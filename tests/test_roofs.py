import fractions
import functools
import math
import os
import pathlib
import random
import subprocess
import sys

import mpmath as mp
import numpy as np
import pytest

from singflow import (ADMISSIBLE, INADMISSIBLE, BitSequence, ConstantProfile,
                      Geometric, Harmonic, LogHarmonic, ParameterDomainError, Power, RoofFunction,
                      RoofSpecError, Table, Truncated, UntaggedTableError,
                      ZeroProfile, admissibility_check, flow_entropy_bernoulli,
                      parse_roof_spec, roof_eval)
from singflow import entropy, roofs, shannon_binary
from singflow.roofs import _log_harmonic_integral, _polylog_singular, _zeta_term


def test_roof_eval_constant():
    f = RoofFunction.const(1.0)
    assert roof_eval(f, BitSequence.zero()) == 1.0
    assert roof_eval(f, BitSequence.from_ones([3])) == 1.0


def test_roof_eval_vanishes_exactly_at_zero_sequence():
    f = RoofFunction.from_profile(Harmonic(1.0))
    assert roof_eval(f, BitSequence.zero()) == 0.0
    assert roof_eval(f, BitSequence.from_ones([10 ** 6])) > 0.0


def test_roof_eval_gap_profile():
    f = RoofFunction.from_profile(Harmonic(1.0))
    assert roof_eval(f, BitSequence.from_ones([4])) == 0.25
    assert roof_eval(f, BitSequence.from_ones([-4])) == 0.25
    assert roof_eval(f, BitSequence.from_ones([-7, 4])) == 0.25
    # origin cylinder uses g0
    assert roof_eval(f, BitSequence.from_ones([0])) == 1.0


def test_log_harmonic_documented_extension():
    g = LogHarmonic()
    assert g.value(1) == 1.0 / math.log(2.0)
    assert g.value(2) == 1.0 / (2.0 * math.log(2.0))


def test_admissibility_by_family():
    assert admissibility_check(Harmonic(1.0)) == ADMISSIBLE
    assert admissibility_check(Power(0.5)) == ADMISSIBLE
    assert admissibility_check(Power(1.0)) == ADMISSIBLE
    assert admissibility_check(Power(2.0)) == INADMISSIBLE
    assert admissibility_check(LogHarmonic()) == ADMISSIBLE
    assert admissibility_check(Table([0.5, 0.25], tail=Geometric(0.5))) == INADMISSIBLE
    assert admissibility_check(ZeroProfile()) == INADMISSIBLE
    # a truncation is admissible when k*g(k) keeps a positive limit or the base diverges
    assert admissibility_check(parse_roof_spec("trunc:1:power:2").profile) == INADMISSIBLE
    assert admissibility_check(parse_roof_spec("trunc:2:power:0.5").profile) == ADMISSIBLE
    assert admissibility_check(parse_roof_spec("trunc:0.3:logharmonic").profile) == ADMISSIBLE


def test_untagged_table_refused():
    t = Table([1.0, 0.5])
    with pytest.raises(UntaggedTableError):
        admissibility_check(t)
    with pytest.raises(UntaggedTableError):
        t.value(3)
    assert t.value(2) == 0.5


def test_truncation_is_pointwise_min():
    g = Truncated(Power(0.5), 2.0)
    for k in range(1, 200):
        assert g.value(k) == min(k ** -0.5, 2.0 / k)
    assert g.kg_limit() == 2.0
    assert Truncated(Harmonic(3.0), 1.0).kg_limit() == 1.0


def test_kg_limits():
    assert Harmonic(2.0).kg_limit() == 2.0
    assert Power(0.5).kg_limit() == math.inf
    assert Power(1.0).kg_limit() == 1.0
    assert Power(1.5).kg_limit() == 0.0
    assert LogHarmonic().kg_limit() == 0.0


def test_roof_spec_language():
    assert parse_roof_spec("const:2.5").constant == 2.5
    assert isinstance(parse_roof_spec("harmonic:1").profile, Harmonic)
    assert parse_roof_spec("power:0.5").profile.alpha == 0.5
    assert isinstance(parse_roof_spec("logharmonic").profile, LogHarmonic)
    t = parse_roof_spec("trunc:2:power:0.5").profile
    assert isinstance(t, Truncated) and t.a == 2.0
    deep = "trunc:1:" * 300 + "harmonic:1"
    assert parse_roof_spec(deep).spec() == deep
    for bad in ("const", "harmonic", "power:x", "nope:1", "trunc:1:" * 1200 + "harmonic:1"):
        with pytest.raises(RoofSpecError):
            parse_roof_spec(bad)
    # a nested error names the bad part once, not once per level
    with pytest.raises(RoofSpecError, match=r"^unknown profile spec 'nope'$"):
        parse_roof_spec("trunc:1:" * 300 + "nope")


@pytest.mark.parametrize("spec", [
    "power:nan", "power:inf", "harmonic:nan", "harmonic:inf", "harmonic:-inf",
    "const:inf", "const:nan", "trunc:nan:harmonic:1", "trunc:inf:power:0.5",
    "trunc:2:harmonic:nan",
])
def test_roof_spec_rejects_non_finite_parameters(spec):
    with pytest.raises(RoofSpecError):
        parse_roof_spec(spec)


def test_parse_roof_spec_raises_only_roof_spec_errors():
    hyp = pytest.importorskip("hypothesis")
    st = hyp.strategies
    word = st.sampled_from(["const", "harmonic", "power", "logharmonic", "trunc", "TRUNC",
                            "1", "0.5", "-2", "nan", "inf", "1e999", "x", "", " "])
    spec = st.lists(word, min_size=1, max_size=8).map(":".join)

    @hyp.settings(max_examples=400, deadline=None, derandomize=True, database=None)
    @hyp.given(st.one_of(st.text(max_size=20), spec))
    def check(text):
        try:
            roof = parse_roof_spec(text)
        except RoofSpecError:
            return
        assert isinstance(roof, RoofFunction)

    check()


def brute_series(profile, lam, terms=60_000):
    """Oracle: direct summation of sum_k g(k) x^k in float64.

    At lam = 1e-3 the weights decay like exp(-0.002 k), so 60k terms leave a
    tail far below double precision.
    """
    ks = np.arange(1, terms + 1, dtype=np.float64)
    vals = np.array([profile.value(k) for k in range(1, terms + 1)])
    return float(np.sum(vals * np.exp(ks * 2.0 * np.log1p(-lam))))


@pytest.mark.parametrize("profile", [
    Harmonic(1.0), Harmonic(2.5), Power(0.5), Power(1.5), LogHarmonic(),
    Geometric(0.5, c=2.0), ConstantProfile(0.7),
    Truncated(Power(0.5), 2.0), Truncated(Harmonic(3.0), 1.0),
    Table([0.9, 0.8, 0.7], tail=Harmonic(1.0)),
])
def test_bernoulli_series_against_brute_force(profile):
    lam = 1e-3  # decay scale ~500k terms, brute force reachable
    exact = float(profile.bernoulli_series(mp.mpf(lam)))
    brute = brute_series(profile, lam)
    assert exact == pytest.approx(brute, rel=5e-9)


def test_roof_function_validation():
    with pytest.raises(ValueError):
        RoofFunction.const(0.0)
    with pytest.raises(ValueError):
        RoofFunction(constant=1.0, profile=Harmonic(1.0))
    with pytest.raises(ValueError):
        RoofFunction()
    with pytest.raises(TypeError):
        Truncated(Geometric(0.5), 1.0)
    # a table base is truncated entry by entry, so only its tail is checked
    with pytest.raises(TypeError):
        Truncated(Table([0.9, 0.8], tail=Geometric(0.5)), 1.0)
    with pytest.raises(UntaggedTableError):
        Truncated(Table([0.9, 0.8]), 1.0)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, -0.5])
def test_table_refuses_values_that_are_not_finite_and_nonnegative(bad):
    with pytest.raises(ValueError, match="finite"):
        Table([0.5, bad], tail=Harmonic())


@pytest.mark.parametrize("profile, lam", [
    # k*g(k) is 0.5, 0.3 over the entries and turns where the tail's 1.0 meets them
    (Truncated(Table([0.5, 0.15], tail=Harmonic(1.0)), 0.464), 1e-3),
    (Truncated(Table([0.5, 0.15], tail=Harmonic(1.0)), 0.464), 1e-2),
    # k*g(k) is not monotone over the entries
    (Truncated(Table([1.0, 0.2, 0.5], tail=Harmonic(1.0)), 1.0), 1e-3),
    (Truncated(Table([0.9, 0.8, 0.7], tail=Harmonic(1.0)), 1.0), 1e-3),
    (Truncated(Table([1.0, 0.4, 0.2], tail=Power(2.0)), 1.0), 1e-3),
    (Truncated(Truncated(Table([0.5, 0.15], tail=Harmonic(1.0)), 0.9), 0.464), 1e-3),
])
def test_truncated_table_matches_brute_force(profile, lam):
    exact = float(profile.bernoulli_series(lam))
    ks = np.arange(1, 40_001, dtype=np.float64)  # x^k < e^-80 past 40,000 at lam >= 1e-3
    vals = np.array([profile.value(k) for k in range(1, 40_001)])
    assert exact == pytest.approx(math.fsum(vals * np.exp(ks * 2.0 * np.log1p(-lam))), rel=1e-12)


# ---------------------------------------------------------------------------
# precision, error bounds and the log-harmonic series

FAMILIES = [
    Harmonic(1.5), Power(0.5), Power(1.0), Power(1.5), Power(2.0), Power(2.37),
    LogHarmonic(), Geometric(0.5, c=2.0),
    ConstantProfile(0.7), ZeroProfile(), Table([0.9, 0.8, 0.7], tail=Power(0.5)),
    Truncated(Power(0.5), 2.0), Truncated(LogHarmonic(), 0.4),
]


def _truncated(g, a):
    """g truncated at a, or g itself where a geometric profile inside it forbids that."""
    try:
        return Truncated(g, a)
    except TypeError:
        return g


def test_every_bernoulli_series_is_finite_or_refuses_its_lambda():
    """Over every family, nested truncations and tables, each call returns a
    finite value with a finite bound or raises ParameterDomainError, for
    lambdas with nan, +-inf, 0, 1, 2, negatives, subnormals, 1 - 2^-53 and
    complex values among them.  At lambda = 2 a power series or a table over a
    power tail used never to return, so this runs only with the check."""
    hyp = pytest.importorskip("hypothesis")
    st = hyp.strategies
    leaf = st.sampled_from([Harmonic(1.5), Power(0.5), Power(2.0), Power(2.37), LogHarmonic(),
                            Geometric(0.5, c=2.0), ConstantProfile(0.7), ZeroProfile()])
    values = st.lists(st.floats(0.0, 2.0), min_size=1, max_size=4)
    profile = st.recursive(leaf, lambda inner: st.one_of(
        st.builds(_truncated, inner, st.floats(0.3, 3.0)),
        st.builds(lambda tail, vals: Table(vals, tail=tail), inner, values)), max_leaves=3)
    lam = st.one_of(st.sampled_from([math.nan, math.inf, -math.inf, 0.0, 1.0, 2.0, -0.5,
                                     5e-324, 1e-310, 1 - 2 ** -53, 0.5, 1e-17, 0.5j,
                                     mp.mpc(0.5, 0), mp.mpf(2)]), st.floats())
    answered = []

    @hyp.settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @hyp.given(profile, lam)
    def check(g, lam):
        try:
            value, bound = g.bernoulli_series(lam, with_bound=True)
        except ParameterDomainError:
            assert not (isinstance(lam, float) and 0 < lam < 1)
            return
        assert mp.isfinite(value) and mp.isfinite(bound) and bound >= 0, (g.spec(), lam)
        answered.append(lam)

    check()
    assert len(answered) >= 50 and {5e-324, 1 - 2 ** -53} <= set(answered)


@pytest.mark.parametrize("call", [
    lambda: Power(0.5).bernoulli_series(2),
    lambda: Table([0.9, 0.8], tail=Power(0.5)).bernoulli_series(2.0),
    lambda: LogHarmonic().bernoulli_series(1),
    lambda: Harmonic(1.0).bernoulli_series(0, with_bound=True),
    lambda: entropy._integral_with_bound(1.0, Harmonic(1.0)),
    lambda: shannon_binary(math.nan),
    lambda: shannon_binary(0.5j),
    lambda: flow_entropy_bernoulli(0.5j, Harmonic(1.0)),
], ids=["power-2", "table-2", "logharmonic-1", "harmonic-0", "integral-1", "shannon-nan",
        "shannon-complex", "entropy-complex"])
def test_lambda_outside_the_domain_raises_the_typed_error(call):
    with pytest.raises(ParameterDomainError, match="Bernoulli parameter"):
        call()


def test_import_leaves_mpmath_precision_alone():
    src = pathlib.Path(__file__).resolve().parents[1] / "src"
    # nor computes anything the roofs keep: each kept value is made on first use
    code = ("import mpmath, singflow, singflow.cli\n"
            "assert mpmath.mp.dps == 15, mpmath.mp.dps\n"
            "from singflow import roofs\n"
            "kept = [v for v in vars(roofs).values() if hasattr(v, 'cache_info')]\n"
            "assert roofs._log_harmonic_parts in kept and roofs._zeta_term in kept\n"
            "assert all(k.cache_info().currsize == 0 for k in kept)")
    env = dict(os.environ, PYTHONPATH=str(src))
    subprocess.run([sys.executable, "-c", code], env=env, check=True)


@pytest.mark.parametrize("profile", FAMILIES, ids=lambda g: g.spec())
def test_results_do_not_depend_on_the_callers_precision(profile):
    results = {}
    for dps in (15, 60):
        with mp.workdps(dps):
            reports = [flow_entropy_bernoulli(lam, profile) for lam in (1e-3, 1e-9)]
            results[dps] = ([(r.value.hex(), r.error_bound.hex()) for r in reports],
                            profile.bernoulli_series(1e-3, with_bound=True))
    assert results[15] == results[60]
    assert isinstance(profile.bernoulli_series(1e-3), mp.mpf)


@pytest.mark.parametrize("profile", FAMILIES, ids=lambda g: g.spec())
def test_error_bound_is_positive_and_finite(profile):
    for lam in (0.3, 1e-4, 1e-12):
        report = flow_entropy_bernoulli(lam, profile)
        assert 0 < report.error_bound < math.inf


@pytest.mark.parametrize("lam", [1e-3, 1e-6, 1e-12])
def test_log_harmonic_bound_is_below_double_precision(lam):
    value, bound = LogHarmonic().bernoulli_series(lam, with_bound=True)
    assert 0 < bound < 1e-25 * value
    report = flow_entropy_bernoulli(lam, LogHarmonic())
    assert 0 < report.error_bound < 1e-15 * report.value


def sumem_log_harmonic(lam):
    """Oracle: the log-harmonic series as the library summed it before its
    explicit tail, 999 explicit terms and then mpmath's Euler-Maclaurin
    summation (sumem, numerical derivatives, an integral to infinity) from
    k = 1000, at 40 digits."""
    with mp.workdps(40):
        lam = mp.mpf(lam)
        x = (1 - lam) ** 2
        head = mp.mpf(1.0 / math.log(2.0)) * x
        head += mp.fsum(mp.power(x, k) / (k * mp.log(k)) for k in range(2, 1000))
        tail = mp.sumem(lambda t: mp.power(x, t) / (t * mp.log(t)), [1000, mp.inf])
        return head + tail


def oracle_entropy(lam, series):
    """Abramov's quotient of the Bernoulli entropy over g0*lam + the weighted
    series (g0 = 1), assembled at 40 digits and rounded once to a double."""
    with mp.workdps(40):
        mlam = mp.mpf(lam)
        integral = float(mlam + mlam * (2 - mlam) / (1 - mlam) * series)
    return (-lam * math.log(lam) - (1.0 - lam) * math.log1p(-lam)) / integral


def truncated_from(series, lam, a):
    """Series of min(g(k), a/k) for the log-harmonic g: a/k below the first k
    with k g(k) <= a, g from there on (k g(k) decreases)."""
    def g(k):
        return 1.0 / math.log(2.0) if k == 1 else 1.0 / (k * math.log(k))
    kstar = 1
    while not g(kstar) * kstar <= a:
        kstar += 1
    with mp.workdps(40):
        x = (1 - mp.mpf(lam)) ** 2
        head = mp.fsum(mp.mpf(a / k) * mp.power(x, k) for k in range(1, kstar))
        g_head = mp.fsum(mp.mpf(g(k)) * mp.power(x, k) for k in range(1, kstar))
        return head + (series - g_head)


def test_log_harmonic_matches_the_sumem_oracle():
    for lam in (1e-2, 3e-4, 1e-5, 2e-7, 1e-8, 5e-10, 1e-11, 1.2e-12):
        series = sumem_log_harmonic(lam)
        assert flow_entropy_bernoulli(lam, LogHarmonic()).value == oracle_entropy(lam, series)
        for a in (0.3, 0.6):
            got = flow_entropy_bernoulli(lam, Truncated(LogHarmonic(), a)).value
            assert got == oracle_entropy(lam, truncated_from(series, lam, a)), (lam, a)


def quad_log_harmonic_integral(c, n):
    """Oracle: the log-harmonic integral as the library computed it before
    its Gauss-Legendre panels, mp.quad on finite breakpoints around the knee
    u0 = log(1/c), (value, bound) with quad's error estimate and the E1 bound
    beyond the last point."""
    lo = mp.log(n)
    u0 = -mp.log(c)
    points = [lo] + [u for u in (u0 - 3, u0, u0 + 2, u0 + 6) if u > lo]
    value = error = mp.mpf(0)
    if len(points) > 1:
        value, error = mp.quad(lambda u: mp.exp(-c * mp.exp(u)) / u, points, error=True)
    top = c * mp.exp(points[-1])
    return value, error + mp.exp(-top) / (top * points[-1])


@pytest.mark.parametrize("start", [64, 10 ** 3, 3 * 10 ** 4, 10 ** 6])
def test_log_harmonic_integral_matches_the_quad_oracle(start):
    for lam in (0.9, 0.5, 1e-1, 1e-3, 1e-6, 1e-9, 1e-12, 1e-17, 1e-50, 1e-100, 1e-300):
        with mp.workdps(30):
            c = -2 * mp.log1p(-mp.mpf(lam))
            value, truncation, rounding = _log_harmonic_integral(c, start)
            oracle, oracle_bound = quad_log_harmonic_integral(c, start)
            assert abs(value - oracle) <= truncation + rounding + oracle_bound, (lam, start)
            # the Gauss and tail part is below the rounding, or below one unit
            assert truncation < max(rounding, mp.eps), (lam, start)
        with mp.workdps(60):  # the same rule, so only the rounding differs
            fine, _, fine_rounding = _log_harmonic_integral(c, start)
            assert abs(value - fine) <= rounding + fine_rounding, (lam, start)


def test_log_harmonic_quadrature_bound_is_below_the_series_rounding():
    for lam in (0.9, 0.5, 1e-1, 1e-3, 1e-6, 1e-9, 1e-12, 1e-17, 1e-50, 1e-100, 1e-300):
        value = LogHarmonic().bernoulli_series(lam)
        with mp.workdps(30):
            _, truncation, rounding = _log_harmonic_integral(-2 * mp.log1p(-mp.mpf(lam)), 64)
            # the series adds the rounding of its 64-term head and tail, 2*64 units of its value
            assert truncation < rounding + 2 * 64 * value * mp.eps, lam


_ORACLE_GAUSS = mp.calculus.quadrature.GaussLegendre(mp.mp)
_oracle_panel = functools.cache(lambda width, prec: [
    (d, w, mp.exp(d)) for d, w in _ORACLE_GAUSS.get_nodes(-width / 2, width / 2, 4, prec)])


def panel_log_harmonic_integral(c, n):
    """Oracle: the log-harmonic integral as the library computed it before
    its knee grid, 24-point Gauss-Legendre panels of f(u) = e^{-c e^u}/u from
    log n to past u0 + 4.5, u0 = log(1/c), 1.25 wide at the knee and
    1.25 * 2^j left of it, every node paying an exp; (value, truncation
    bound, rounding bound) as derived there."""
    lo, u0, prec = mp.log(n), -mp.log(c), mp.mp.prec
    knee, offset, sums, truncation, rounding = float(u0), 0.0, [], 0, 0
    while float(lo) + offset < knee + 4.5:
        at, width = float(lo) + offset, 1.25
        while 2 * width <= min(at, (knee - at) / 2):
            width *= 2
        h, m, b = width / 2, lo + (offset + width / 2), lo + (offset + width)
        decay = -c * mp.exp(m)
        s = mp.fdot((mp.exp(decay * e) / (m + d), w) for d, w, e in _oracle_panel(width, prec))
        rounding += s * (9 + 4 * b * (1 + c * mp.exp(b)))
        growth = 1 if 2.4 * h <= math.pi / 2 else mp.exp(c * mp.exp(m + 2.6 * h))
        truncation += 64 / 15 * h * growth / (m - 2.6 * h) / (24 * 5 ** 46)
        sums.append(s)
        offset += width
    top = c * mp.exp(lo + offset)
    return mp.fsum(sums), truncation + mp.exp(-top) / (top * (lo + offset)), rounding * mp.eps


STARTS = (64, 10 ** 3, 3 * 10 ** 4, 10 ** 6, 10 ** 7)
FIXED_LAMS = (0.9, 0.5, 1e-1, 1e-3, 1e-6, 1e-9, 1e-12, 1e-17, 1e-50, 1e-100, 1e-300)


def seeded_lams(seed, count=200):
    rng = random.Random(seed)
    return [10 ** rng.uniform(-13, -2) for _ in range(count)]


def test_knee_grid_integral_matches_the_panel_oracle():
    """Within both derived bounds: every fixed lambda at every start and at
    30 and 60 digits, and 200 seeded lambdas at the series' start and
    precision."""
    cases = [(lam, start, dps) for lam in FIXED_LAMS for start in STARTS for dps in (30, 60)]
    cases += [(lam, 64, 30) for lam in seeded_lams(2021)]
    places = []  # log n - log(1/c): inside the knee grid's span, or past it
    for lam, start, dps in cases:
        with mp.workdps(dps):
            c = -2 * mp.log1p(-mp.mpf(lam))
            value, truncation, rounding = _log_harmonic_integral(c, start)
            oracle, oracle_truncation, oracle_rounding = panel_log_harmonic_integral(c, start)
            bound = truncation + rounding + oracle_truncation + oracle_rounding
            assert abs(value - oracle) <= bound, (lam, start, dps)
            places.append(float(mp.log(start) + mp.log(c)))
    assert any(-3.75 < p < 5 and p % 1.25 for p in places)  # a cut seam panel, then knee panels
    assert any(p > 5 for p in places)  # past the grid: no panel at all


# (v, w e^(-e^v)) of the 24 nodes on the knee panel [1.25 j, 1.25 (j+1)], per j and precision
_oracle_knee_panel = functools.cache(lambda j, prec: [
    (v, w * mp.exp(-mp.exp(v)))
    for v, w in _ORACLE_GAUSS.get_nodes(1.25 * j, 1.25 * (j + 1), 4, prec)])


def knee_grid_log_harmonic_integral(c, n):
    """Oracle: the log-harmonic integral as the library computed it before
    its integer panel sums, (value, truncation bound, rounding bound).  Knee
    panels on the fixed grid v in [1.25 j, 1.25 (j+1)], j = -3..3, of the knee
    frame v = u - log(1/c), each node one add and one mpf division; left of
    the grid pole-anchored panels 1.25 * 2^j wide from log n, the last cut at
    the seam, each node paying an exp."""
    lo, knee, prec = mp.log(n), -mp.log(c), mp.mp.prec
    j0 = max(-3, math.ceil(float(lo - knee) / 1.25))  # the first grid point at or past log n
    if knee + 1.25 * j0 < lo:  # the float quotient rounded down onto a grid point
        j0 += 1
    j0 = min(j0, 4)  # 4: no knee panel
    seam, offset, sums, truncation, rounding = knee + 1.25 * j0, 0.0, [], 0, 0

    def gauss_bound(h, m, growth):
        return 64 / 15 * h * growth / (m - 2.6 * h) / (24 * 5 ** 46)

    while lo + offset < seam:
        at, width = float(lo) + offset, 1.25
        while 2 * width <= min(at, (float(knee) - at) / 2):
            width *= 2
        if lo + (offset + width) <= seam:
            h, nodes = width / 2, _oracle_panel(width, prec)
            m, b = lo + (offset + h), lo + (offset + width)
        else:  # the last one, cut at the seam
            h = (seam - (lo + offset)) / 2
            m, b = seam - h, seam
            nodes = [(h * x, h * w, mp.exp(h * x))
                     for x, w in _ORACLE_GAUSS.get_nodes(-1, 1, 4, prec)]
        decay = -c * mp.exp(m)
        s = mp.fdot((mp.exp(decay * e) / (m + d), w) for d, w, e in nodes)
        rounding += s * (9 + 4 * b * (1 + c * mp.exp(b)))
        growth = 1 if 2.4 * h <= math.pi / 2 else mp.exp(c * mp.exp(m + 2.6 * h))
        truncation += gauss_bound(h, m, growth)
        sums.append(s)
        offset += width
    for j in range(j0, 4):
        s = mp.fsum(k / (knee + v) for v, k in _oracle_knee_panel(j, prec))
        rounding += s * (8 + 2 * math.exp(1.25 * (j + 1)))
        truncation += gauss_bound(0.625, knee + (1.25 * j + 0.625), 1)
        sums.append(s)
    if j0 < 4:
        rounding += 3 * math.exp(-0.99 * math.exp(1.25 * j0))
    end = max(lo, knee + 5)
    top = c * mp.exp(end)
    return mp.fsum(sums), truncation + mp.exp(-top) / (top * end), rounding * mp.eps


def test_integer_kernel_integral_matches_the_knee_grid_oracle():
    """Within both derived bounds: every fixed lambda at every start and at
    30 and 60 digits, and 200 seeded lambdas at the series' start and
    precision; the cases cut the panel holding log n left of the knee grid,
    inside it, and not at all."""
    cases = [(lam, start, dps) for lam in FIXED_LAMS for start in STARTS for dps in (30, 60)]
    cases += [(lam, 64, 30) for lam in seeded_lams(2021)]
    places = []  # log n - log(1/c)
    for lam, start, dps in cases:
        with mp.workdps(dps):
            c = -2 * mp.log1p(-mp.mpf(lam))
            value, truncation, rounding = _log_harmonic_integral(c, start)
            oracle, oracle_truncation, oracle_rounding = knee_grid_log_harmonic_integral(c, start)
            bound = truncation + rounding + oracle_truncation + oracle_rounding
            assert abs(value - oracle) <= bound, (lam, start, dps)
            places.append(float(mp.log(start) + mp.log(c)))
    assert any(p < -3.75 for p in places)
    assert any(-3.75 < p < 5 and p % 1.25 for p in places)
    assert any(p > 5 for p in places)


def kept_caches():
    """Every cache the roofs module keeps, found by its ``cache_info``."""
    return [v for v in vars(roofs).values() if hasattr(v, "cache_info")]


def test_kept_knee_values_give_one_value_cold_and_warm():
    """The same mpf and bound whatever was kept before: the lambda set runs in
    shuffled order from emptied caches, then warm in another order."""
    rng = random.Random(2022)
    lams = list(FIXED_LAMS) + seeded_lams(2021)  # the oracle test's set
    for cache in kept_caches():
        cache.cache_clear()
    rng.shuffle(lams)
    cold = {lam: LogHarmonic().bernoulli_series(lam, with_bound=True) for lam in lams}
    # at 30 digits: the 7 cells of the knee grid and 38 cells left of it, and one set of parts
    sizes = {roofs._panel_table: 45, roofs._log_harmonic_parts: 1, roofs._log_harmonic_ints: 1}
    assert all(cache.cache_info().currsize == sizes.get(cache, 0) for cache in kept_caches())
    rng.shuffle(lams)
    for lam in lams:
        assert LogHarmonic().bernoulli_series(lam, with_bound=True) == cold[lam], lam
    # the warm pass builds nothing: every kept table is lambda-free
    assert all(cache.cache_info().currsize == sizes.get(cache, 0) for cache in kept_caches())


def product_times(a, b):
    """Taylor coefficients of the product of two series of one length."""
    return [mp.fdot(a[:m + 1], b[m::-1]) for m in range(len(a))]


def product_log_harmonic_factor(n, order):
    """Oracle: Taylor coefficients at t = n, up to h^order, of 1/(t log t) as
    the library made them before the recurrence: the product of the series of
    1/(n+h) and 1/log(n+h) = 1/(log n + sum_m (-1)^{m+1} (h/n)^m / m)."""
    inverse = [mp.mpf(1) / n]
    for m in range(1, order + 1):
        inverse.append(inverse[-1] / -n)
    log_n = mp.log(n)
    log_tail = [-n * inverse[m] / m for m in range(1, order + 1)]
    reciprocal = [1 / log_n]
    for m in range(1, order + 1):
        reciprocal.append(-mp.fdot(log_tail[:m], reciprocal[m - 1::-1]) / log_n)
    return product_times(inverse, reciprocal)


def product_log_harmonic_parts(n, terms):
    """Oracle: the head g(1..n-1) and the two correction polynomials in
    y = -c, highest degree first, built from ``product_log_harmonic_factor``
    as the library built them before the recurrence."""
    head = [mp.mpf(roofs.LOG_HARMONIC_AT_ONE)] + [1 / (k * mp.log(k)) for k in range(2, n)]
    factor = product_log_harmonic_factor(n, 2 * terms + 1)
    beta = [None] + [mp.bernoulli(2 * j) / (2 * j) for j in range(1, terms + 2)]
    corrections = [factor[0] / 2 if i == 0 else 0 for i in range(2 * terms)]
    for j in range(1, terms + 1):
        for i in range(2 * j):
            corrections[i] -= beta[j] * factor[2 * j - 1 - i]
    omitted = [beta[-1] * factor[2 * terms + 1 - i] for i in range(2 * terms + 2)]
    return (head,) + tuple([a / mp.factorial(i) for i, a in enumerate(poly)][::-1]
                           for poly in (corrections, omitted))


@pytest.mark.parametrize("dps", [30, 40, 60])
@pytest.mark.parametrize("n", [64, 100, 1000])
def test_log_harmonic_parts_match_the_product_oracle(n, dps):
    terms = LogHarmonic._EM_TERMS
    with mp.workdps(dps):
        prec = mp.mp.prec
        head, corrections, omitted = roofs._log_harmonic_parts(n, terms, prec)
        oracle_head, oracle_corrections, oracle_omitted = product_log_harmonic_parts(n, terms)
        assert head == oracle_head
        for kept, oracle in ((corrections, oracle_corrections), (omitted, oracle_omitted)):
            assert len(kept) == len(oracle)
            for a, b in zip(kept, oracle):
                assert abs(a - b) <= 16 * mp.ldexp(1, mp.frexp(b)[1] - prec), (a, b)


# ---------------------------------------------------------------------------
# the power series near x = 1

def polylog_reference(alpha, lam):
    """Oracle: Li_alpha(e^-c), c = -2 log1p(-lam), by mpmath at 60 digits
    more than log10(1/lam), so that e^-c keeps about 60 digits of 1 - x."""
    with mp.workdps(int(-math.log10(lam)) + 60):
        c = -2 * mp.log1p(-mp.mpf(lam))
        return mp.polylog(mp.mpf(alpha), mp.exp(-c))


@pytest.mark.parametrize("alpha", [0.3, 0.5, 1.0, 1.5, 2.0, 2.37, 40.5])
def test_power_series_lies_within_its_bound_down_to_tiny_lambda(alpha):
    # 0.5 to 0.04 reach mpmath's own power series and the expansion at
    # x in (0.75, 0.9) for integer alpha; 40.5 sums its first 16 terms
    for lam in (0.5, 0.1, 0.06, 0.04, 1e-3, 1e-20, 1e-30, 1e-38, 1e-45, 1e-100, 1e-300):
        value, bound = Power(alpha).bernoulli_series(lam, with_bound=True)
        reference = polylog_reference(alpha, lam)
        assert abs(value - reference) <= bound, (alpha, lam)
        assert bound < 1e-37 * reference, (alpha, lam)


def test_power_entropy_stays_positive_at_tiny_lambda():
    report = flow_entropy_bernoulli(1e-45, Power(0.5))
    assert 0 < report.error_bound < 1e-14 * report.value


def polylog_of_rounded_x(alpha, lam):
    """Oracle: the power series as the library summed it before its
    expansion near x = 1, mpmath's polylogarithm of the rounded
    x = (1-lam)^2 at 40 digits."""
    with mp.workdps(40):
        return mp.polylog(mp.mpf(alpha), (1 - mp.mpf(lam)) ** 2)


def test_power_series_matches_the_polylog_oracle_cold_and_warm():
    """The doubles of the oracle for lam in [1e-12, 0.5], and one mpf
    whatever the kept zeta values: each alpha runs first from empty caches,
    then every pair runs again in shuffled order."""
    rng = random.Random(1919)

    def grid(n):
        return [10 ** rng.uniform(-12, math.log10(0.5)) for _ in range(n)]

    groups = [(rng.uniform(0.05, 4.0), grid(8)) for _ in range(200)]
    groups += [(2.0, grid(200)), (3.0, grid(200))]
    cold = {}
    for alpha, lams in groups:
        _zeta_term.cache_clear()
        _polylog_singular.cache_clear()
        for lam in lams:
            cold[alpha, lam] = Power(alpha).bernoulli_series(lam)
    pairs = list(cold)
    assert len(pairs) == 2000
    rng.shuffle(pairs)
    for alpha, lam in pairs:
        value = cold[alpha, lam]
        assert Power(alpha).bernoulli_series(lam) == value, (alpha, lam)
        assert float(value) == float(polylog_of_rounded_x(alpha, lam)), (alpha, lam)


def doubling_crossover(t):
    """``Truncated._crossover`` as it was before the shared galloping search:
    doubling, then bisection, on k*g(k) <= a."""
    base_below = t.base.value(1) * 1 <= t.a

    def same_branch(k):
        return (t.base.value(k) * k <= t.a) == base_below

    hi = 1
    while same_branch(hi):
        hi *= 2
        if hi > 2 ** 62:
            return None, base_below
    lo = hi // 2
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if same_branch(mid):
            lo = mid
        else:
            hi = mid
    return hi, base_below


def test_crossover_matches_the_doubling_search():
    """(k*, base_below) of the galloping search on value's own comparison
    against the doubling search on k*g(k), over seeded power, log-harmonic,
    harmonic and nested truncations; a truncation at its base's level has
    none."""
    rng = random.Random(89)
    cases = [parse_roof_spec(s).profile for s in
             ("trunc:0.08:logharmonic", "trunc:1:harmonic:1", "trunc:1:power:1")]
    for _ in range(400):
        cases.append(Truncated(Power(rng.uniform(0.3, 2.5)), math.exp(rng.uniform(-3, 3))))
    for _ in range(250):
        cases.append(Truncated(LogHarmonic(), rng.uniform(0.05, 1.5)))
    for _ in range(100):
        scale = rng.uniform(0.1, 10.0)
        cases.append(Truncated(Harmonic(scale), scale))
        cases.append(Truncated(Harmonic(scale), rng.uniform(0.1, 10.0)))
    for _ in range(150):
        base = rng.choice([Power(rng.uniform(0.3, 2.5)), LogHarmonic(),
                           Harmonic(rng.uniform(0.1, 10.0))])
        cases.append(Truncated(Truncated(base, math.exp(rng.uniform(-3, 3))),
                               math.exp(rng.uniform(-3, 3))))
    assert len(cases) >= 1000
    for t in cases:
        assert t._crossover() == doubling_crossover(t), t.spec()
    assert cases[0]._crossover() == (268338, False)
    assert cases[1]._crossover()[0] is None is cases[2]._crossover()[0]


G0_FAMILIES = {
    "harmonic": lambda g0: Harmonic(1.0, g0=g0),
    "power": lambda g0: Power(0.5, g0=g0),
    "logharmonic": lambda g0: LogHarmonic(g0=g0),
    "geometric": lambda g0: Geometric(0.5, 1.0, g0=g0),
    "constprofile": lambda g0: ConstantProfile(1.0, g0=g0),
    "zero": lambda g0: ZeroProfile(g0=g0),
    "table": lambda g0: Table([0.5], Harmonic(1.0), g0=g0),
}


@pytest.mark.parametrize("family", sorted(G0_FAMILIES))
@pytest.mark.parametrize("g0", [0.0, -1.0, math.nan, math.inf, -math.inf])
def test_every_family_refuses_a_g0_that_is_not_positive_and_finite(family, g0):
    with pytest.raises(ValueError, match="^g0 must be positive and finite$"):
        G0_FAMILIES[family](g0)
    assert G0_FAMILIES[family](0.25).g0 == 0.25


@pytest.mark.parametrize("spec, message", [
    ("harmonic:inf", "bad profile spec 'harmonic:inf': harmonic scale must be positive and finite"),
    ("power:nan", "bad profile spec 'power:nan': power exponent must be positive and finite"),
    ("const:inf", "bad roof spec 'const:inf': constant roofs must be positive and finite"),
    ("trunc:0:harmonic:1",
     "bad profile spec 'trunc:0:harmonic:1': truncation level must be positive and finite"),
])
def test_a_parameter_that_is_not_positive_and_finite_keeps_its_spec_error_text(spec, message):
    with pytest.raises(RoofSpecError) as info:
        parse_roof_spec(spec)
    assert str(info.value) == message


def exact_mpf(v):
    man, exp = v.man_exp
    return fractions.Fraction(man) * fractions.Fraction(2) ** exp


@pytest.mark.parametrize("rho", [0.99, 0.999999, 1 - 2.0 ** -40])
def test_geometric_series_lies_within_its_bound_as_rho_x_nears_one(rho):
    """c rho x/(1 - rho x) against its exact rational value: 1 - rho x cancels
    as rho x -> 1 unless it is summed as (1 - rho) + rho lam(2 - lam)."""
    for lam in [0.9] + [10.0 ** -e for e in range(1, 301, 3)]:
        value, bound = Geometric(rho, 1.5).bernoulli_series(lam, with_bound=True)
        rx = fractions.Fraction(rho) * (1 - fractions.Fraction(lam)) ** 2
        assert abs(exact_mpf(value) - fractions.Fraction(3, 2) * rx / (1 - rx)) <= exact_mpf(bound), lam
