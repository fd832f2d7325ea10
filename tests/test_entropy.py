import io
import itertools
import math
import random

import mpmath as mp
import numpy as np
import pytest

from singflow import (BitSequence, ConstantProfile, FlowMeasureSpec, Harmonic,
                      LogHarmonic, MeasureAtom, Power, RoofFunction, Table,
                      Truncated, ZeroProfile, abramov, fiber_sfts, FlowPoint,
                      flow_entropy_bernoulli, parse_roof_spec,
                      roof_integral_bernoulli, roof_prime,
                      separated_entropy_estimate, sex_entropy_formula,
                      sft_entropy_wordcount, shannon_binary,
                      singular_limit_scan, word_count)

LOG2 = math.log(2.0)
GRID = [10.0 ** -e for e in range(3, 13)]


def test_shannon_examples():
    assert shannon_binary(0.5) == pytest.approx(LOG2, abs=1e-15)
    assert shannon_binary(0.0) == 0.0
    assert shannon_binary(1.0) == 0.0
    # cross-checked against high-precision evaluation
    hp = float(-mp.mpf("0.1") * mp.log(mp.mpf("0.1"))
               - mp.mpf("0.9") * mp.log(mp.mpf("0.9")))
    assert shannon_binary(0.1) == pytest.approx(hp, abs=1e-15)
    assert shannon_binary(0.1) == pytest.approx(0.3250829733914482, abs=1e-15)
    with pytest.raises(ValueError):
        shannon_binary(-0.1)
    with pytest.raises(ValueError):
        shannon_binary(1.1)


def test_roof_integral_constant_profile():
    const = ConstantProfile(0.7)
    for lam in (0.1, 0.37, 1e-6):
        assert roof_integral_bernoulli(lam, const) == pytest.approx(0.7, abs=1e-15)


def test_roof_integral_origin_cylinder_only():
    g = ZeroProfile(g0=1.0)
    for lam in (0.2, 1e-4):
        assert roof_integral_bernoulli(lam, g) == pytest.approx(lam, abs=1e-18)


def test_roof_integral_harmonic_log_identity():
    # oracle: sum x^k/k = -log(1-x) turns the series into a closed form
    lam = 1e-12
    expected = lam + lam * (2 - lam) / (1 - lam) * (-math.log(lam * (2 - lam)))
    got = roof_integral_bernoulli(lam, Harmonic(1.0))
    assert got == pytest.approx(expected, rel=1e-12)
    assert got == pytest.approx(5.4876e-11, rel=1e-3)


def test_roof_integral_rejections():
    with pytest.raises(ValueError):
        roof_integral_bernoulli(0.0, Harmonic(1.0))


def test_abramov_examples():
    assert abramov(LOG2, 1.0) == LOG2
    assert abramov(LOG2, 2.0) == LOG2 / 2
    assert abramov(0.0, 3.7) == 0.0
    with pytest.raises(ValueError):
        abramov(1.0, 0.0)


def test_flow_entropy_harmonic_near_singularity():
    # frozen from the closed-form series; the limit value is 1/2
    rep = flow_entropy_bernoulli(1e-12, Harmonic(1.0))
    assert rep.value == pytest.approx(0.5217427, abs=2e-6)
    assert abs(rep.value - 0.5) < 0.05


def test_flow_entropy_power_half_vanishes():
    rep = flow_entropy_bernoulli(1e-6, Power(0.5))
    assert rep.value < 0.01
    # asymptotic oracle: Li_{1/2}(x) ~ sqrt(pi/(1-x))
    lam = 1e-6
    approx_integral = lam + 2 * lam * math.sqrt(math.pi / (lam * (2 - lam)))
    assert rep.value == pytest.approx(shannon_binary(lam) / approx_integral, rel=2e-3)


def test_flow_entropy_log_harmonic_direct_oracle():
    # at lam = 1e-4 the series is brute-force summable; the implementation
    # must match the direct sum
    lam = 1e-4
    ks = np.arange(2, 400_000)
    s = float(np.sum(np.exp(ks * 2 * np.log1p(-lam)) / (ks * np.log(ks))))
    s += (1 / LOG2) * (1 - lam) ** 2
    integral = lam + lam * (2 - lam) / (1 - lam) * s
    rep = flow_entropy_bernoulli(lam, LogHarmonic())
    assert rep.value == pytest.approx(shannon_binary(lam) / integral, rel=1e-9)


def test_flow_entropy_log_harmonic_grows():
    # frozen from the hybrid series (direct head + tail summation), which
    # matches chunked brute force to 12 digits at reachable parameters
    r6 = flow_entropy_bernoulli(1e-6, LogHarmonic()).value
    r12 = flow_entropy_bernoulli(1e-12, LogHarmonic()).value
    assert r6 == pytest.approx(1.4080914, abs=1e-4)
    assert r12 == pytest.approx(2.3827374, abs=1e-4)
    assert r12 > r6


def test_log_harmonic_ratio_enclosure_excludes_three():
    """Evidence for check C3 without the library's series: an explicit head
    below N = 2^16 plus the integral test for the decreasing tail,
    int_N^inf g <= sum_{k>=N} g(k) <= g(N) + int_N^inf g, encloses the
    entropy ratio at lam = 1e-12 around 2.3827 and far below 3.0."""
    lam, n = 1e-12, 2 ** 16
    with mp.workdps(30):
        mlam = mp.mpf(lam)
        c = -2 * mp.log1p(-mlam)          # x^k = e^{-ck}
        k = np.arange(2, n, dtype=np.float64)
        # float64 terms are good to a few ulps each: far inside 1e-12 relative
        head = math.exp(-float(c)) / LOG2 + float(np.sum(np.exp(-float(c) * k) / (k * np.log(k))))

        def g(t):
            return mp.exp(-c * t) / (t * mp.log(t))
        top = 80 / c                      # g beyond it integrates to below e^-80
        points = [mp.mpf(n)]
        while 10 * points[-1] < top:
            points.append(10 * points[-1])
        integral, quad_error = mp.quad(g, points + [top], error=True)
        beyond = mp.exp(-c * top) / (c * top * mp.log(top))
        slack = 1e-12 * head + quad_error
        low = head + integral - slack
        high = head + integral + beyond + g(n) + slack
        h = -mlam * mp.log(mlam) - (1 - mlam) * mp.log1p(-mlam)
        weight = mlam * (2 - mlam) / (1 - mlam)
        ratio_low, ratio_high = h / (mlam + weight * high), h / (mlam + weight * low)
    assert ratio_low < 2.3827374 < ratio_high < 3.0
    assert ratio_high - ratio_low < 1e-6
    assert ratio_low <= flow_entropy_bernoulli(lam, LogHarmonic()).value <= ratio_high


def test_singular_limit_scan_harmonic():
    scan = singular_limit_scan(Harmonic(1.0), GRID)
    assert scan.target == 0.5
    assert scan.monotone_toward_target
    assert scan.final_abs_error < 0.05
    ents = [r.entropy for r in scan.rows]
    assert all(a > b for a, b in zip(ents, ents[1:]))


def test_singular_limit_scan_power_half():
    scan = singular_limit_scan(Power(0.5), [1e-2, 1e-3, 1e-4, 1e-5, 1e-6])
    assert scan.target == 0.0
    assert scan.monotone_toward_target
    assert scan.rows[-1].entropy < 0.01


def test_singular_limit_scan_log_harmonic_divergent():
    scan = singular_limit_scan(LogHarmonic(), [1e-6, 1e-9, 1e-12])
    assert scan.target is None and scan.final_abs_error is None
    ents = [r.entropy for r in scan.rows]
    assert ents[0] < ents[1] < ents[2]


def test_scan_grid_validation():
    with pytest.raises(ValueError):
        singular_limit_scan(Harmonic(1.0), [])
    with pytest.raises(ValueError):
        singular_limit_scan(Harmonic(1.0), [1e-3, 1e-2])


def test_scan_csv_shape():
    scan = singular_limit_scan(Harmonic(1.0), [1e-3, 1e-4])
    buf = io.StringIO()
    scan.to_csv(buf, seed=7)
    lines = buf.getvalue().splitlines()
    assert lines[0] == "# profile=harmonic:1"
    assert lines[1] == "# seed=7"
    assert lines[2] == "lambda,integral,entropy,target,abs_error"
    assert len(lines) == 5


def test_integral_monotone_under_truncation():
    g = Power(0.5)
    for a in (1.0, 2.0):
        ga = Truncated(g, a)
        for lam in GRID:
            assert (roof_integral_bernoulli(lam, g)
                    >= roof_integral_bernoulli(lam, ga) - 1e-18)


def brute_words(words, n):
    """Enumeration oracle: all distinct concatenations of total length n."""
    out = set()

    def rec(prefix):
        if len(prefix) == n:
            out.add(tuple(prefix))
            return
        for w in words:
            if len(prefix) + len(w) <= n:
                rec(prefix + list(w))

    rec([])
    return out


def test_fiber_sft_word_counts():
    first, second = fiber_sfts()
    for m in (1, 2, 5, 10):
        assert word_count(first, 2 * m) == 2 ** m
        assert word_count(second, 2 * m) == 2 ** m
    # enumeration oracle for the 4-letter words of the first fiber
    words4 = brute_words(first, 4)
    assert len(words4) == 4
    assert word_count(first, 4) == 4


def test_fiber_sft_entropy():
    first, second = fiber_sfts()
    assert sft_entropy_wordcount(first, 40).value == pytest.approx(LOG2 / 2, abs=1e-15)
    assert sft_entropy_wordcount(second, 40).value == pytest.approx(LOG2 / 2, abs=1e-15)
    # 2^2000 words of length 4000: a count far wider than a double's exponent range
    assert sft_entropy_wordcount(first, 4000).value == pytest.approx(LOG2 / 2, abs=1e-15)


def test_sft_entropy_wordcount_reads_its_generators_once():
    words = [(0, 1), (1, 1)]
    for gens in (words, iter(words), (w for w in words)):
        assert sft_entropy_wordcount(gens, 4).value == pytest.approx(LOG2 / 2, abs=1e-15)


def test_wordcount_examples():
    full = [(0, 0), (0, 1), (1, 0), (1, 1)]
    assert sft_entropy_wordcount(full, 12).value == pytest.approx(LOG2, abs=1e-15)
    assert word_count(full, 12) == 2 ** 12
    assert sft_entropy_wordcount([("a", "b")], 8).value == 0.0
    rep = sft_entropy_wordcount(fiber_sfts()[0], 7)
    assert rep.value == 0.0 and "empty-language" in rep.flags
    # enumeration oracle
    words = [(0, 1), (1, 1)]
    assert word_count(words, 6) == len(brute_words(words, 6))


def _oracle_concat_dfa(words):
    """Determinized automaton for the language of concatenations of the
    given fixed words.  States are frozensets of suffix positions; paths from
    the start state biject with distinct words.  (The previous counting
    path, for words of any lengths, kept as the oracle.)"""
    words = [tuple(w) for w in words]
    if not words or any(len(w) == 0 for w in words):
        raise ValueError("need nonempty words")
    START = ("start",)
    start_state = frozenset([START])

    def step(state, letter):
        out = set()
        for st in state:
            if st == START:
                for w in words:
                    if w[0] == letter:
                        if len(w) == 1:
                            out.add(START)
                        else:
                            out.add((w, 1))
            else:
                w, i = st
                if w[i] == letter:
                    if i + 1 == len(w):
                        out.add(START)
                    else:
                        out.add((w, i + 1))
        return frozenset(out)

    letters = sorted({l for w in words for l in w}, key=repr)
    states = [start_state]
    index = {start_state: 0}
    trans = []
    k = 0
    while k < len(states):
        row = []
        for letter in letters:
            nxt = step(states[k], letter)
            if not nxt:
                row.append(None)
                continue
            if nxt not in index:
                index[nxt] = len(states)
                states.append(nxt)
            row.append(index[nxt])
        trans.append(row)
        k += 1
    accepting = [i for i, s in enumerate(states) if START in s]
    return trans, accepting, len(letters)


def _oracle_word_count(words, n: int) -> int:
    if n < 0:
        raise ValueError("length must be nonnegative")
    trans, accepting, _ = _oracle_concat_dfa(words)
    m = len(trans)
    counts = [1 if i == 0 else 0 for i in range(m)]
    for _ in range(n):
        new = [0] * m
        for i, c in enumerate(counts):
            if not c:
                continue
            for j in trans[i]:
                if j is not None:
                    new[j] += c
        counts = new
    return sum(counts[i] for i in accepting)


def test_word_count_matches_the_automaton_on_equal_length_words():
    rng = random.Random(9)
    cases = 0
    for _ in range(3000):
        alphabet = "abc"[:rng.randint(1, 3)]
        length = rng.randint(1, 3)
        # drawn with replacement, so repeated words occur
        words = [tuple(rng.choice(alphabet) for _ in range(length))
                 for _ in range(rng.randint(1, 6))]
        for n in range(10):
            assert word_count(words, n) == _oracle_word_count(words, n), (words, n)
            cases += 1
    assert cases == 30000


def test_word_count_rejections():
    for words, n in (([(0, 1)], -1), ([], 4), ([()], 0), ([(0, 1), ()], 2)):
        with pytest.raises(ValueError):
            word_count(words, n)
    with pytest.raises(ValueError, match="words must share one length"):
        word_count([(0,), (1, 1)], 4)


@pytest.mark.parametrize("spec, l", [("harmonic:0.3", 0.3), ("harmonic:1", 1.0),
                                     ("harmonic:2.5", 2.5), ("trunc:1.3:power:0.5", 1.3)])
def test_scan_target_is_the_fiber_entropy_over_the_accelerated_roof(spec, l):
    """The scan's target 1/(2l) is Abramov's quotient on the singular fiber:
    the fiber subshifts' entropy (log 2)/2 over the accelerated roof at the
    zero sequence, l log 2."""
    roof_at_zero = roof_prime(BitSequence.zero(), parse_roof_spec(spec))
    for fiber in fiber_sfts():
        derived = abramov(sft_entropy_wordcount(fiber, 40).value, roof_at_zero)
        assert abs(derived - 1 / (2 * l)) <= 2 * math.ulp(1 / (2 * l)), (spec, derived)


def oracle_entropy_at(lam, profile):
    """h(lam) over the roof integral at 40 digits: the base entropy in mpmath
    from the exact double lam, and g0 lam + lam (2-lam)/(1-lam) times the
    series, the harmonic one in closed form and the others the library's
    (each checked against its own oracles in test_roofs.py, and good to far
    below a double here)."""
    with mp.workdps(40):
        mlam = mp.mpf(lam)
        if isinstance(profile, Harmonic):
            series = -profile.l * mp.log(mlam * (2 - mlam))
        else:
            series = profile.bernoulli_series(mlam)
        integral = profile.g0 * mlam + mlam * (2 - mlam) / (1 - mlam) * series
        return (-mlam * mp.log(mlam) - (1 - mlam) * mp.log1p(-mlam)) / integral


@pytest.mark.parametrize("spec", ["harmonic:1", "power:0.5", "power:2", "logharmonic",
                                  "trunc:0.3:logharmonic"])
def test_error_bound_holds_for_subnormal_lambda(spec):
    """Below 2^-1022 a rounding to a double errs by up to half the subnormal
    spacing, not by a relative ulp: the bound still covers the error."""
    profile = parse_roof_spec(spec).profile
    for lam in (1e-300, 1e-310, 1e-320, 5e-324):
        report = flow_entropy_bernoulli(lam, profile)
        oracle = oracle_entropy_at(lam, profile)
        assert abs(report.value - oracle) <= report.error_bound, (spec, lam)


def test_sex_entropy_formula():
    dirac = FlowMeasureSpec.dirac_at_singularity()
    assert sex_entropy_formula(dirac, 1.0, 0.0) == pytest.approx(0.5, abs=1e-15)
    bern = FlowMeasureSpec.theta_of_bernoulli(0.3)
    assert sex_entropy_formula(bern, 1.0, 0.42) == pytest.approx(0.42, abs=1e-15)
    mix = FlowMeasureSpec.mixture(MeasureAtom("dirac", 0.5),
                                  MeasureAtom("bernoulli", 0.5, 0.3))
    assert sex_entropy_formula(mix, 1.0, 0.3) == pytest.approx(0.4, abs=1e-15)
    with pytest.raises(ValueError):
        sex_entropy_formula(dirac, 0.0, 0.1)


def test_sex_entropy_formula_affine():
    h = 0.37
    for w in np.linspace(0.0, 1.0, 11):
        atoms = []
        if w > 0:
            atoms.append(MeasureAtom("dirac", float(w)))
        if w < 1:
            atoms.append(MeasureAtom("bernoulli", float(1 - w), 0.2))
        spec = FlowMeasureSpec.mixture(*atoms)
        direct = sex_entropy_formula(spec, 2.0, h)
        mixture = (1 - w) * h + w * 0.25
        assert abs(direct - mixture) <= 1e-12


def test_measure_spec_validation():
    with pytest.raises(ValueError):
        FlowMeasureSpec.mixture(MeasureAtom("dirac", 0.4))
    with pytest.raises(ValueError):
        MeasureAtom("bernoulli", 1.0, 1.5)
    with pytest.raises(ValueError):
        MeasureAtom("what", 1.0)


def test_separated_estimate_trivial_cases():
    unit = RoofFunction.const(1.0)
    pt = FlowPoint(BitSequence.from_ones([0]), 0.0)
    assert separated_entropy_estimate([pt], unit, 0.5, 5, 4).value == 0.0
    pts = [FlowPoint(BitSequence.from_ones([j]), 0.0) for j in range(4)]
    assert separated_entropy_estimate(pts, unit, 50.0, 3, 4).value == 0.0


def test_separated_estimate_full_shift_cylinders():
    # the 2^5 cylinder bases at scale 1/2 over 5 steps stay pairwise
    # separated, matching the word-count oracle for the full shift
    unit = RoofFunction.const(1.0)
    pts = []
    for bits in itertools.product((0, 1), repeat=5):
        base = BitSequence(bits, 0) if any(bits) else BitSequence.zero()
        pts.append(FlowPoint(base, 0.0))
    rep = separated_entropy_estimate(pts, unit, 0.5, 5, 4, window=2)
    oracle = math.log(word_count([(0, 0), (0, 1), (1, 0), (1, 1)], 5 + 1)) / 6
    assert rep.value >= oracle - 1e-12
    assert rep.value == pytest.approx(LOG2, abs=1e-12)


def test_table_profile_integral():
    t = Table([0.9, 0.8], tail=Harmonic(1.0))
    lam = 1e-3
    direct = roof_integral_bernoulli(lam, t)
    # oracle: explicit head plus harmonic closed form beyond the table
    x = (1 - lam) ** 2
    w = lambda k: lam * (2 - lam) * (1 - lam) ** (2 * k - 1)
    head = 0.9 * w(1) + 0.8 * w(2)
    harm = lam * (2 - lam) / (1 - lam) * (-math.log(lam * (2 - lam)))
    harm -= w(1) * 1.0 + w(2) / 2.0
    assert direct == pytest.approx(lam + head + harm, rel=1e-10)


def test_scan_csv_rows_of_a_divergent_family():
    # k g(k) -> 0: no finite target, so each row names the divergence and leaves the error empty
    scan = singular_limit_scan(Power(2.0), [1e-3, 1e-4])
    assert scan.target is None and scan.final_abs_error is None
    buf = io.StringIO()
    scan.to_csv(buf)
    lines = buf.getvalue().splitlines()
    assert lines[:2] == ["# profile=power:2", "lambda,integral,entropy,target,abs_error"]
    assert lines[2:] == [f"{r.lam!r},{r.integral!r},{r.entropy!r},divergent," for r in scan.rows]
