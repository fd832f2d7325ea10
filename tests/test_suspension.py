import math
import time
import tracemalloc

import numpy as np
import pytest

from singflow import (HORIZONTAL, VERTICAL, AdmissibleChain, BitSequence,
                      CanonicalHeightError, FlowPoint, FlowResourceError,
                      Geometric, Harmonic, PairKindError, RoofFunction, UnitPoint,
                      bw_distance_upper, bw_distances_upper, flow, flow_point,
                      flowpoints_close, norm_height, pair_length, parse_roof_spec,
                      parse_sequence_literal, roof_eval, seq_distance, shift,
                      singular_point, unit_roof_extension)
from singflow.roofs import roof_between
from singflow.sequences import compare_radius
from singflow.suspension import _CHUNK, _R, HEIGHT_TOL

HARM = RoofFunction.from_profile(Harmonic(1.0))
UNIT = RoofFunction.const(1.0)


def random_point(rng, f):
    n = int(rng.integers(2, 9))
    window = tuple(int(b) for b in rng.integers(0, 2, size=n))
    tails = [(1,), (1, 0), (1, 0, 0), (0, 1, 1)]
    x = BitSequence(window, int(rng.integers(-4, 4)),
                    tails[int(rng.integers(0, 4))], tails[int(rng.integers(0, 4))])
    if x.is_zero():
        x = BitSequence.from_ones([0])
    return flow_point(f, x, float(rng.uniform(0.0, roof_eval(f, x))))


def stepwise_flow_oracle(p, t, f):
    """Independent forward-crossing simulation: peel one roof at a time with
    plain arithmetic on explicit shifted sequences."""
    assert t >= 0
    base, h = p.base, p.height + t
    while h >= roof_eval(f, base):
        h -= roof_eval(f, base)
        base = shift(base, 1)
    return FlowPoint(base, h)


def test_flow_fixes_singularity():
    star = singular_point()
    assert flow(star, 7.3, HARM) == star
    assert flow(star, -2.0, HARM) == star


def test_flow_constant_roof_translation():
    x = parse_sequence_literal("0*|1011|0*")
    q = flow(FlowPoint(x, 0.0), 2.5, UNIT)
    assert q.base == shift(x, 2) and q.height == pytest.approx(0.5)


def test_flow_one_crossing_matches_stepwise_oracle():
    x = parse_sequence_literal("0*|1001|0*")  # gap coordinates (0, 3)
    p = FlowPoint(x, 0.0)
    q = flow(p, 1.0, HARM)  # g0 = 1, exactly one crossing
    assert q.base == shift(x, 1) and q.height == pytest.approx(0.0, abs=1e-15)
    oracle = stepwise_flow_oracle(p, 1.0, HARM)
    assert flowpoints_close(q, oracle, HARM, 1e-12)


def test_flow_matches_oracle_on_samples():
    rng = np.random.default_rng(17)
    for _ in range(100):
        p = random_point(rng, HARM)
        t = float(rng.uniform(0.0, 4.0))
        assert flowpoints_close(flow(p, t, HARM), stepwise_flow_oracle(p, t, HARM),
                                HARM, 1e-9)


def test_flow_additivity_sampled():
    rng = np.random.default_rng(23)
    for _ in range(500):
        p = random_point(rng, HARM)
        a = float(rng.uniform(-3.0, 3.0))
        b = float(rng.uniform(-3.0, 3.0))
        lhs = flow(flow(p, a, HARM), b, HARM)
        rhs = flow(p, a + b, HARM)
        assert flowpoints_close(lhs, rhs, HARM, 1e-9)


def test_flowpoints_close_across_one_roof_crossing_in_either_order():
    x = BitSequence.from_ones([-2, 9])  # roofs 1/2 at the origin, 1/3 one step on
    top = FlowPoint(x, roof_eval(HARM, x) - 1e-10)
    bottom = FlowPoint(x.shifted(1), 2e-10)  # 3e-10 of flow above top, read on x's roof
    for p, q in ((top, bottom), (bottom, top)):
        assert flowpoints_close(p, q, HARM, 1e-9)
        assert not flowpoints_close(p, q, HARM, 1e-10)
    assert not flowpoints_close(top, FlowPoint(x.shifted(2), 0.0), HARM, 1.0)


def test_flow_outputs_canonical():
    rng = np.random.default_rng(29)
    for _ in range(200):
        p = random_point(rng, HARM)
        q = flow(p, float(rng.uniform(-5.0, 5.0)), HARM)
        assert 0.0 <= q.height < roof_eval(HARM, q.base)


def test_flow_resource_error():
    x = BitSequence.from_ones([0, 10 ** 5])
    p = flow_point(HARM, x, 0.0)
    with pytest.raises(FlowResourceError):
        flow(p, 30.0, HARM, max_crossings=50)


@pytest.mark.parametrize("t", [math.nan, math.inf, -math.inf])
def test_flow_rejects_non_finite_time(t):
    p = flow_point(HARM, BitSequence.from_ones([0, 3]), 0.1)
    with pytest.raises(ValueError, match="finite"):
        flow(p, t, HARM)
    with pytest.raises(ValueError, match="finite"):
        flow(singular_point(), t, HARM)
    with pytest.raises(ValueError, match="finite"):
        unit_roof_extension(HARM).advance(UnitPoint(p, 0.5), t)


def test_flow_into_zero_right_tail_accumulates():
    # beyond the last 1 the roofs shrink but their sum diverges
    x = BitSequence.from_ones([0], left=(1,))
    p = flow_point(HARM, x, 0.0)
    q = flow(p, 3.0, HARM)
    assert 0.0 <= q.height < roof_eval(HARM, q.base)


# ---------------------------------------------------------------------------
# Oracle for flow: the loop as it was when every crossing called roof_eval,
# kept as it was, with the final shift written out as the constructor.

def _kadd(s, c, x):
    # Kahan compensated addition
    y = x - c
    t = s + y
    return t, (t - s) - y


def oracle_flow(p, t, f, max_crossings=10 ** 6):
    if not math.isfinite(t):
        raise ValueError(f"flow time must be finite, got {t!r}")
    base = p.base
    if f.is_singular and base.is_zero():
        return p
    pos = 0
    h, c = _kadd(p.height, 0.0, t)
    roof = roof_eval(f, base, pos)
    crossings = 0
    while h >= roof:
        h, c = _kadd(h, c, -roof)
        pos += 1
        crossings += 1
        if crossings > max_crossings:
            raise FlowResourceError(f"more than {max_crossings} roof crossings")
        roof = roof_eval(f, base, pos)
    while h < 0.0:
        pos -= 1
        crossings += 1
        if crossings > max_crossings:
            raise FlowResourceError(f"more than {max_crossings} roof crossings")
        roof = roof_eval(f, base, pos)
        h, c = _kadd(h, c, roof)
    h = h + c
    if h < 0.0:  # compensation dust
        h = 0.0
    if h >= roof:
        pos += 1
        h = 0.0
    return FlowPoint(BitSequence(base.window, base.start - pos, base.left, base.right)
                     if pos else base, h)


# every roof family, and a geometric roof whose values underflow to 0.0
# once the nearest 1 is 249 or more coordinates away
ORACLE_ROOFS = [parse_roof_spec(s) for s in
                ("const:1", "const:0.3", "harmonic:1", "power:0.5", "logharmonic",
                 "trunc:0.5:harmonic:1", "trunc:0.2:power:0.7")]
ORACLE_ROOFS.append(RoofFunction.from_profile(Geometric(0.05)))


def law_tolerance(p, t, f, want):
    """How far flow may land from the oracle: the law's bound over every level
    flow may cross by its law, those at least _R levels from both 1s of their
    run between the start and the oracle's landing (the bound of a block in a
    side of a run is at most that of the side's whole range), plus 8 ulps of
    |height| + |t| + 1 for the two Kahan loops (Higham, Thm 4.8).  0 where
    no level may be crossed by a law: flow must then match bit for bit."""
    if f.is_constant:
        return 0.0
    assert want.base.window == p.base.window, "the landing is read off the window's start"
    lo, hi = sorted((0, p.base.start - want.base.start))
    total = bound = 0.0
    while lo < hi:
        a, b = p.base.ones_around(lo)
        left = lo if a is None else max(lo, a + _R)
        right = hi if b is None else min(hi, b - _R)
        mid = left if a is None else right if b is None else min(max((a + b) // 2 + 1, left), right)
        for k1, k2 in ((left - a, mid - a) if left < mid else (0, 0),
                       (b - right + 1, b - mid + 1) if mid < right else (0, 0)):
            law = f.profile._level_sum(k1, k2) if k1 < k2 else None
            if law is not None:
                total, bound = total + law[0], bound + law[1]
        lo = hi if b is None else b
    return 0.0 if bound == 0.0 else bound + math.ulp(total) + 8 * 2.0 ** -52 * (
        abs(p.height) + abs(t) + 1)


def assert_flow_like_oracle(p, t, f, max_crossings=10 ** 6):
    """flow against the oracle: bit for bit, or within ``law_tolerance`` where a
    law may cross levels, on a level boundary read by ``flowpoints_close``."""
    want = oracle_flow(p, t, f, max_crossings)
    got = flow(p, t, f, max_crossings)
    tol = law_tolerance(p, t, f, want)
    if tol == 0.0 or got.base != want.base:
        assert got.base == want.base and float.hex(got.height) == float.hex(want.height) \
            or tol and flowpoints_close(got, want, f, tol), (p, t, f.spec(), got, want, tol)
    else:
        assert abs(got.height - want.height) <= tol, (p, t, f.spec(), got, want, tol)


def test_flow_matches_the_oracle_on_seeded_points():
    rng = np.random.default_rng(61)
    for f in ORACLE_ROOFS:
        for _ in range(150):
            p = random_point(rng, f)
            for t in (float(rng.uniform(0.0, 6.0)), -float(rng.uniform(0.0, 6.0)),
                      float(rng.uniform(-0.5, 0.5)), 0.0):
                assert_flow_like_oracle(p, t, f)


def test_flow_matches_the_oracle_along_long_zero_runs():
    rng = np.random.default_rng(67)
    for length in (1, 2, 3, 64, 1500, 2 ** 13):
        x = BitSequence.from_ones([0, length])
        for f in ORACLE_ROOFS:
            roofs = [roof_eval(f, x, j) for j in range(length)]
            m = int(rng.integers(0, length))
            end, before = x.shifted(m), math.fsum(roofs[:m])
            # times that keep both flows inside the run
            for frac in (float(rng.uniform(0.1, 0.9)), 0.999):
                h0 = float(rng.uniform(0.0, roofs[0]))
                he = float(rng.uniform(0.0, roofs[m])) if roofs[m] else 0.0
                assert_flow_like_oracle(flow_point(f, x, h0),
                                        frac * (math.fsum(roofs) - h0), f)
                assert_flow_like_oracle(flow_point(f, end, he), -frac * (before + he), f)


def test_flow_runs_out_of_crossings_exactly_where_the_oracle_does():
    x = BitSequence.from_ones([0, 3000])
    rng = np.random.default_rng(71)
    for f in ORACLE_ROOFS:
        total = math.fsum(roof_eval(f, x, j) for j in range(3000))
        for p, t in ((flow_point(f, x, 0.0), 0.6 * total),
                     (flow_point(f, x.shifted(2000), 0.0), -0.6 * total),
                     (random_point(rng, f), float(rng.uniform(-6.0, 6.0)))):
            # the fewest crossings the oracle completes with
            lo, hi = 0, 10 ** 4
            while lo < hi:
                mid = (lo + hi) // 2
                try:
                    oracle_flow(p, t, f, mid)
                    hi = mid
                except FlowResourceError:
                    lo = mid + 1
            assert_flow_like_oracle(p, t, f, lo)
            if lo:
                with pytest.raises(FlowResourceError):
                    flow(p, t, f, lo - 1)


# ---------------------------------------------------------------------------
# The laws by which flow crosses whole levels of a zero run at once

LAW_PROFILES = [parse_roof_spec(s).profile for s in
                ("harmonic:1", "harmonic:0.37", "power:0.5", "power:1", "power:1.5",
                 "power:3", "logharmonic")]


def test_level_sums_lie_within_their_bounds_of_the_summed_doubles():
    """Each law against math.fsum of the doubles value(k), within half an ulp
    of their exact sum, from one level to 2^20 of them; past _R the bound is
    below 1e-12 of the sum.  The log-harmonic law starts at 2."""
    for g in LAW_PROFILES:
        top = 2 ** 20 if g.spec() == "power:0.5" else 2 ** 16
        values = [g.value(k) for k in range(1, top)]
        for k1, k2 in ((1, 2), (1, 100), (2, 3), (2, 5000), (_R, _R + 1), (_R, 3 * _R),
                       (_R, top), (100, 1000), (top // 2 - 7, top // 2 + 500), (top - 3, top)):
            got = g._level_sum(k1, k2)
            if k1 == 1 and g.spec() == "logharmonic":
                assert got is None
                continue
            want = math.fsum(values[k1 - 1:k2 - 1])
            assert abs(got[0] - want) <= got[1] + math.ulp(want) / 2, (g.spec(), k1, k2)
            if k1 >= _R:
                assert got[1] <= 1e-12 * want, (g.spec(), k1, k2)


@pytest.mark.parametrize("spec", ["harmonic:1", "power:0.5", "power:1.5", "logharmonic"])
def test_flow_matches_the_oracle_deep_in_a_long_run_and_the_zero_tails(spec):
    """Flows over about 2000 levels, both ways, across the middle of a run of
    2^20 zeros and 2^20 out on either zero tail of a single 1."""
    f = parse_roof_spec(spec)
    rng = np.random.default_rng(73)
    n = 2 ** 20
    for x, start in ((BitSequence.from_ones([0, n]), n // 2 - 1000),
                     (BitSequence.from_ones([0]), n), (BitSequence.from_ones([0]), -n)):
        a, b = x.ones_around(start)
        p = flow_point(f, x.shifted(start), float(rng.uniform(0.0, roof_between(f, start, a, b))))
        levels = math.fsum(roof_between(f, start + j, a, b) for j in range(2000))
        for t in (levels, -levels):
            assert_flow_like_oracle(p, t * float(rng.uniform(0.9, 1.0)), f)


@pytest.mark.parametrize("spec", ["harmonic:1", "power:0.5", "logharmonic"])
def test_a_flow_past_two_to_the_forty_zeros_returns_in_a_millisecond(spec):
    """Out along the zero tail of one 1 for the law's time to 1.5 2^40
    positions, and back, each in under 1 ms (best of 5): the flow lands
    within a few levels of there and comes back within the two laws' bounds
    and the Kahan loops' error."""
    f = parse_roof_spec(spec)
    g, far = f.profile, 3 * 2 ** 39
    p = flow_point(f, BitSequence.from_ones([0]), 0.0)
    head = math.fsum([g.g0] + [g.value(k) for k in range(1, _R)])
    law, bound = g._level_sum(_R, far)
    t = head + law
    timings, back_timings = [], []
    for _ in range(5):
        t0 = time.perf_counter()
        q = flow(p, t, f, max_crossings=2 ** 41)
        t1 = time.perf_counter()
        back = flow(q, -t, f, max_crossings=2 ** 41)
        timings.append(t1 - t0)
        back_timings.append(time.perf_counter() - t1)
    assert min(timings) < 1e-3 and min(back_timings) < 1e-3, (timings, back_timings)
    landing = p.base.start - q.base.start
    assert abs(landing - far) <= 4
    assert flowpoints_close(back, p, f, 2 * bound + 8 * 2.0 ** -52 * (t + 1))


def test_flow_runs_out_of_crossings_inside_a_jumped_block():
    """A cap inside the block flow crosses by its law, or one short of the
    count the oracle needs, raises as the oracle does; that count suffices."""
    x = BitSequence.from_ones([0, 2 ** 13])
    for spec in ("harmonic:1", "power:0.5"):
        f = parse_roof_spec(spec)
        total = math.fsum(roof_eval(f, x, j) for j in range(2 ** 13))
        for p, t in ((flow_point(f, x, 0.3), 0.7 * total),
                     (flow_point(f, x.shifted(6000), 0.0), -0.7 * total)):
            want = oracle_flow(p, t, f)
            need = abs(p.base.start - want.base.start)
            try:  # the last level may be met only by the landing's final step
                oracle_flow(p, t, f, need - 1)
                need -= 1
            except FlowResourceError:
                pass
            assert need > 8 * _R
            for cap in (need // 2, need - 1):
                with pytest.raises(FlowResourceError):
                    oracle_flow(p, t, f, cap)
                with pytest.raises(FlowResourceError, match=f"^more than {cap} roof crossings$"):
                    flow(p, t, f, cap)
            assert_flow_like_oracle(p, t, f, need)


def counting_law_calls(f):
    """A list whose length counts the calls flow makes to f's level law."""
    g, calls = f.profile, []
    law = type(g)._level_sum
    g._level_sum = lambda k1, k2: calls.append((k1, k2)) or law(g, k1, k2)
    return calls


def test_flow_finds_its_landing_in_a_few_law_calls():
    """49 law calls take a flow 1.5 2^40 positions out along a zero tail, and 3
    bring it back; 16 to 24 take a flow across about half of a run of 2^13
    zeros and back, as on the bench.  A search that grows linearly in the
    levels breaks these budgets."""
    for spec in ("harmonic:1", "power:0.5", "logharmonic"):
        f = parse_roof_spec(spec)
        g, far = f.profile, 3 * 2 ** 39
        head = math.fsum([g.g0] + [g.value(k) for k in range(1, _R)])
        t = head + g._level_sum(_R, far)[0]
        calls = counting_law_calls(f)
        q = flow(flow_point(f, BitSequence.from_ones([0]), 0.0), t, f, max_crossings=2 ** 41)
        out = len(calls)
        flow(q, -t, f, max_crossings=2 ** 41)
        assert out <= 52 and len(calls) - out <= 4, (spec, out, len(calls) - out)
    rng = np.random.default_rng(97)
    for spec in ("harmonic:1", "power:0.5"):
        f = parse_roof_spec(spec)
        calls = counting_law_calls(f)
        for _ in range(40):
            length = 2 ** 13 + int(rng.integers(1, 32))
            x = BitSequence.from_ones([0, length])
            roofs = [roof_eval(f, x, j) for j in range(length)]
            m = int(rng.integers(7 * length // 16, 9 * length // 16))
            h0, he = 0.5 * roofs[0], 0.5 * roofs[m]
            t = math.fsum(roofs[:m]) + he - h0
            before = len(calls)
            flow(flow_point(f, x, h0), t, f)
            flow(flow_point(f, x.shifted(m), he), -t, f)
            assert len(calls) - before <= 26, (spec, length, m, calls[before:])


def test_a_profile_that_redefines_its_values_crosses_level_by_level():
    """A subclass with values of its own has no law until it gives one, and
    the profiles without a law say so."""
    class Shifted(Harmonic):
        def value(self, k):
            return 1.0 / (k + 1)

    assert Shifted()._level_sum(_R, 4 * _R) is None
    assert Harmonic()._level_sum(_R, 4 * _R) is not None
    for spec in ("trunc:0.5:harmonic:1", "trunc:0.2:power:0.7"):
        assert parse_roof_spec(spec).profile._level_sum(_R, 4 * _R) is None
    assert Geometric(0.5)._level_sum(_R, 4 * _R) is None
    f = RoofFunction.from_profile(Shifted())
    p = flow_point(f, BitSequence.from_ones([0, 2 ** 13]), 0.2)
    assert law_tolerance(p, 12.0, f, oracle_flow(p, 12.0, f)) == 0.0
    assert_flow_like_oracle(p, 12.0, f)


def test_canonical_height_validation():
    x = BitSequence.from_ones([4])
    with pytest.raises(CanonicalHeightError):
        flow_point(HARM, x, 0.5)  # roof is 1/4 here
    with pytest.raises(CanonicalHeightError):
        flow_point(HARM, BitSequence.zero(), 0.1)


def test_pair_length_examples():
    x = BitSequence.from_ones([0, 5])
    a = FlowPoint(x, 0.0)
    assert pair_length(a, a, HORIZONTAL, UNIT) == 0.0
    assert pair_length(a, a, VERTICAL, UNIT) == 0.0
    # vertical on the same fiber
    b = FlowPoint(x, 0.7)
    assert pair_length(FlowPoint(x, 0.2), b, VERTICAL, UNIT) == pytest.approx(0.5)
    # horizontal with prescribed base distances
    y = BitSequence.from_ones([0, 2])   # d(x,y) = 1/4, d(Tx,Ty) = 1/2
    assert seq_distance(x, y) == 0.25
    assert seq_distance(shift(x, 1), shift(y, 1)) == 0.5
    got = pair_length(FlowPoint(x, 0.5), FlowPoint(y, 0.5), HORIZONTAL, UNIT)
    assert got == pytest.approx(0.375)


def test_pair_length_crossing_orientation():
    # flowing up from (x, u) to (Tx, u') costs 1 - u + u'
    x = BitSequence.from_ones([0, 5])
    a = FlowPoint(x, 0.9)
    b = FlowPoint(shift(x, 1), 0.05)
    assert pair_length(a, b, VERTICAL, UNIT) == pytest.approx(0.15)
    assert pair_length(b, a, VERTICAL, UNIT) == pytest.approx(0.15)


def test_pair_length_rejections():
    x = BitSequence.from_ones([0])
    y = BitSequence.from_ones([1])
    with pytest.raises(PairKindError):
        pair_length(FlowPoint(x, 0.1), FlowPoint(x, 0.6), HORIZONTAL, UNIT)
    with pytest.raises(PairKindError):
        pair_length(FlowPoint(x, 0.0), FlowPoint(shift(x, 5), 0.0), VERTICAL, UNIT)


def test_admissible_chain_length():
    x = BitSequence.from_ones([0, 5])
    pts = (FlowPoint(x, 0.0), FlowPoint(x, 0.5), FlowPoint(shift(x, 1), 0.25))
    chain = AdmissibleChain(pts, (VERTICAL, VERTICAL))
    assert chain.length(UNIT) == pytest.approx(0.5 + (1 - 0.5 + 0.25))
    with pytest.raises(ValueError):
        AdmissibleChain(pts, (VERTICAL,))


def test_bw_distance_examples():
    x = parse_sequence_literal("0*|1011|0*")
    a = FlowPoint(x, 0.0)
    assert bw_distance_upper(a, a, UNIT, 2) == 0.0
    b = FlowPoint(shift(x, 1), 0.0)
    d = bw_distance_upper(a, b, UNIT, 4)
    assert d <= 1.0 + 1e-12
    assert d <= min(1.0, seq_distance(x, shift(x, 1))) + 1e-12
    # same fiber bounded by the height difference
    p, q = FlowPoint(x, 0.2), FlowPoint(x, 0.9)
    assert bw_distance_upper(p, q, UNIT, 2) <= 0.7 + 1e-12


def test_bw_distance_rejects_a_negative_window():
    x = parse_sequence_literal("0*|1011|0*")
    a, b = FlowPoint(x, 0.0), FlowPoint(shift(x, 1), 0.0)
    for window in (-1, -4):
        with pytest.raises(ValueError, match="window must be nonnegative"):
            bw_distance_upper(a, b, UNIT, 4, window)
    assert bw_distance_upper(a, b, UNIT, 4, 0) <= 1.0 + 1e-12


def test_bw_distance_same_height_equals_horizontal_formula():
    x = parse_sequence_literal("0*|1011|0*")
    y = parse_sequence_literal("0*|1101|0*")
    for u in (0.0, 0.3, 0.8):
        a, b = FlowPoint(x, u), FlowPoint(y, u)
        d = bw_distance_upper(a, b, UNIT, 4)
        assert d == pytest.approx(pair_length(a, b, HORIZONTAL, UNIT))


def test_bw_distance_properties_sampled():
    rng = np.random.default_rng(31)
    for _ in range(40):
        a = random_point(rng, HARM)
        b = random_point(rng, HARM)
        m = 5
        dab = bw_distance_upper(a, b, HARM, m)
        assert abs(dab - bw_distance_upper(b, a, HARM, m)) <= 1e-12
        assert bw_distance_upper(a, b, HARM, m + 3) <= dab + 1e-12
        assert bw_distance_upper(a, a, HARM, m) == 0.0


def test_bw_relaxed_triangle_by_concatenation():
    rng = np.random.default_rng(37)
    for _ in range(40):
        a = random_point(rng, HARM)
        c = random_point(rng, HARM)
        # middle point on a's fiber so the concatenated chain stays in the pool
        b = flow_point(HARM, a.base,
                       float(rng.uniform(0.0, roof_eval(HARM, a.base))))
        m = 4
        lhs = bw_distance_upper(a, c, HARM, 2 * m)
        rhs = (bw_distance_upper(a, b, HARM, m)
               + bw_distance_upper(b, c, HARM, m))
        assert lhs <= rhs + 1e-12


# ---------------------------------------------------------------------------
# Scalar reference for the chain metric: the triple loop over explicit
# shifted sequences, with coordinate-wise equality and distance.  Symbols
# are read from the description by _at, not through SymbolSequence.at, whose
# segment tiling also builds the bit rows of bw_distance_upper.

def _at(x, n):
    """x_n: the window, or a tail word repeated outward from its edge."""
    end = x.start + len(x.window)
    if n < x.start:
        return x.left[(n - x.start) % len(x.left)]
    if n >= end:
        return x.right[(n - end) % len(x.right)]
    return x.window[n - x.start]


def test_at_reads_the_description_like_at():
    seqs = [BitSequence.zero(), BitSequence.from_ones([0]), BitSequence.periodic((1, 0, 0)),
            BitSequence((1, 1, 0, 1), -3, (0, 1), (1, 0, 0)),
            BitSequence((0, 1), 5, (1,), (0, 0, 1, 1, 0))]
    for x in seqs:
        for y in (x, x.shifted(7), x.shifted(-2 ** 70), x.shifted(2 ** 70 + 3)):
            end = y.start + len(y.window)
            for n in [*range(y.start - 12, end + 12), *range(-2 ** 70 - 9, -2 ** 70 + 9),
                      *range(2 ** 70 - 9, 2 ** 70 + 9)]:
                assert _at(y, n) == y.at(n), (y, n)


def _same(x, y):
    lo = min(x.start, y.start) - math.lcm(len(x.left), len(y.left))
    hi = max(x.start + len(x.window), y.start + len(y.window)) \
        + math.lcm(len(x.right), len(y.right))
    return all(_at(x, n) == _at(y, n) for n in range(lo, hi))


def _distance(x, y):
    if _same(x, y):
        return 0.0
    m = 0
    while _at(x, m) == _at(y, m) and _at(x, -m) == _at(y, -m):
        m += 1
    return math.ldexp(1.0, -min(m, 1074))   # floored at the least positive double


def reference_bw_distance_upper(a, b, f, chain_budget, window=3):
    if _same(a.base, b.base) and a.height == b.height:
        return 0.0
    ua = norm_height(a, f)
    ub = norm_height(b, f)

    bases = []

    def base_index(y):
        for i, z in enumerate(bases):
            if _same(z, y):
                return i
        bases.append(y)
        return len(bases) - 1

    # a and b are vertices 0 and 1 even when their (base, height) keys are equal
    verts = [(base_index(a.base), ua), (base_index(b.base), ub)]

    def add(bi, u):
        if (bi, u) not in verts:
            verts.append((bi, u))

    grid = sorted({0.0, ua, ub})
    for endpoint in (a, b):
        for j in range(-window, window + 1):
            bi = base_index(endpoint.base.shifted(j))
            if roof_eval(f, bases[bi]) == 0.0:
                add(bi, 0.0)
                continue
            for u in grid:
                add(bi, u)

    nb = len(bases)
    shifted = [y.shifted(1) for y in bases]
    succ = [[_same(shifted[i], bases[j]) for j in range(nb)] for i in range(nb)]
    d0 = [[0.0] * nb for _ in range(nb)]
    d1 = [[0.0] * nb for _ in range(nb)]
    for i in range(nb):
        for j in range(i + 1, nb):
            d0[i][j] = d0[j][i] = _distance(bases[i], bases[j])
            d1[i][j] = d1[j][i] = _distance(shifted[i], shifted[j])

    n = len(verts)
    weight = [[math.inf] * n for _ in range(n)]
    for i in range(n):
        weight[i][i] = 0.0
        bi, ui = verts[i]
        for j in range(i + 1, n):
            bj, uj = verts[j]
            best = math.inf
            if bi == bj:
                best = abs(ui - uj)
            elif succ[bi][bj]:
                best = 1.0 - ui + uj
            elif succ[bj][bi]:
                best = 1.0 - uj + ui
            if abs(ui - uj) <= 1e-9:
                u = 0.5 * (ui + uj)
                best = min(best, (1.0 - u) * d0[bi][bj] + u * d1[bi][bj])
            weight[i][j] = weight[j][i] = best

    dist = [math.inf] * n
    dist[0] = 0.0
    for _ in range(chain_budget - 1):
        new = dist[:]
        for v in range(n):
            row = weight[v]
            best = new[v]
            for u in range(n):
                d = dist[u] + row[u]
                if d < best:
                    best = d
            new[v] = best
        dist = new
    return dist[1]


METRIC_ROOFS = [parse_roof_spec(s)
                for s in ("harmonic:1", "power:0.5", "const:1", "logharmonic")]


def _metric_pair(rng, f, kind):
    a = random_point(rng, f)
    if kind == "equal":
        return a, FlowPoint(BitSequence(a.base.window, a.base.start, a.base.left * 2,
                                        a.base.right * 3), a.height)
    if kind == "close-heights":
        # distinct vertices on one fiber, joined by a horizontal pair
        return a, FlowPoint(a.base, math.nextafter(a.height, math.inf))
    if kind == "same-orbit":
        y = a.base.shifted(int(rng.integers(-4, 5)))
        return a, flow_point(f, y, float(rng.uniform(0.0, roof_eval(f, y))))
    if kind == "singular-fiber":
        star = BitSequence.zero()
        return a, flow_point(f, star, float(rng.uniform(0.0, roof_eval(f, star))))
    if kind == "periodic":
        y = BitSequence.periodic(tuple(int(v) for v in rng.integers(0, 2, size=3)) + (1,))
        return a, flow_point(f, y.shifted(int(rng.integers(-3, 4))), 0.0)
    if kind == "far":
        y = random_point(rng, f).base.shifted(int(rng.integers(-40, 41)))
        return a, flow_point(f, y, 0.0)
    return a, random_point(rng, f)


def test_bw_distance_matches_scalar_reference_exactly():
    rng = np.random.default_rng(43)
    kinds = ("equal", "close-heights", "same-orbit", "singular-fiber", "periodic",
             "far", "random")
    checked = 0
    for rep in range(72):
        for f in METRIC_ROOFS:
            for kind in kinds:
                a, b = _metric_pair(rng, f, kind)
                if rng.integers(0, 2):
                    a, b = b, a
                budget = 2 + (checked % 11)
                window = 1 + (checked // 11) % 3
                got = bw_distance_upper(a, b, f, budget, window)
                assert got == reference_bw_distance_upper(a, b, f, budget, window), \
                    (a, b, f.spec(), budget, window)
                checked += 1
    assert checked >= 2000


def test_bw_distance_matches_the_reference_at_window_zero():
    rng = np.random.default_rng(47)
    kinds = ("equal", "close-heights", "same-orbit", "singular-fiber", "periodic",
             "far", "random")
    checked = 0
    for rep in range(36):
        for f in METRIC_ROOFS:
            for kind in kinds:
                a, b = _metric_pair(rng, f, kind)
                if rng.integers(0, 2):
                    a, b = b, a
                budget = 2 + checked % 11
                got, want = bw_distance_upper(a, b, f, budget, 0), \
                    reference_bw_distance_upper(a, b, f, budget, 0)
                assert float.hex(got) == float.hex(want), (a, b, f.spec(), budget)
                checked += 1
    assert checked == 1008


def test_bw_distance_matches_the_reference_when_a_base_is_the_other_s_image():
    """b's base is a.base shifted by window + 1, or a's is b's: one endpoint base
    lies one step past the other orbit's window, the image of its last base."""
    rng = np.random.default_rng(53)
    checked = 0
    for window in range(4):
        for f in ORACLE_ROOFS:
            for sign in (1, -1):
                x = random_point(rng, f).base
                y = x.shifted(sign * (window + 1))
                a = flow_point(f, x, float(rng.uniform(0.0, roof_eval(f, x))))
                b = flow_point(f, y, float(rng.uniform(0.0, roof_eval(f, y))))
                for budget in (2, 3, 5, 9):
                    got = bw_distance_upper(a, b, f, budget, window)
                    want = reference_bw_distance_upper(a, b, f, budget, window)
                    assert float.hex(got) == float.hex(want), (a, b, f.spec(), budget, window)
                    checked += 1
    assert checked == 4 * len(ORACLE_ROOFS) * 2 * 4


def test_bw_distance_zero_flags_match_the_reference_on_every_roof():
    """Bases whose roof vanishes at a finite gap (the geometric roof
    underflows) and bases with no 1 on one side of the orbit's bit row,
    against the reference, which takes every zero flag from roof_eval."""
    rng = np.random.default_rng(73)
    deep = BitSequence.from_ones([0, 600])
    assert [roof_eval(ORACLE_ROOFS[-1], deep, j) == 0.0 for j in (248, 249)] == [False, True]
    # the nearer 1 at distance 248 or 249, on either side
    bases = [deep, deep.shifted(300), deep.shifted(249), deep.shifted(248), deep.shifted(351),
             deep.shifted(352), deep.shifted(-3),
             BitSequence.from_ones([0]), BitSequence.from_ones([2], left=(1, 0)),
             BitSequence.from_ones([-2], right=(0, 0, 1)), BitSequence.zero(),
             BitSequence((1,), 0, (0,), (1,) + (0,) * 40),
             BitSequence.periodic((1, 0, 0, 1))]
    checked = 0
    for f in ORACLE_ROOFS:
        for x in bases:
            for y in (bases[int(rng.integers(0, len(bases)))], x.shifted(int(rng.integers(-3, 4))),
                      random_point(rng, f).base):
                # heights below half the roof, which may be subnormal
                a = flow_point(f, x, 0.5 * float(rng.uniform()) * roof_eval(f, x))
                b = flow_point(f, y, 0.5 * float(rng.uniform()) * roof_eval(f, y))
                budget, window = 2 + checked % 5, 1 + checked % 3
                got = bw_distance_upper(a, b, f, budget, window)
                want = reference_bw_distance_upper(a, b, f, budget, window)
                assert float.hex(got) == float.hex(want), (a, b, f.spec(), budget, window)
                checked += 1
    assert checked == 3 * len(bases) * len(ORACLE_ROOFS)
    # a base that agrees with a boundary base near 0 but for one more 1: a wrong
    # flag on the boundary base drops vertices that the shortest chain runs through
    f = ORACLE_ROOFS[-1]
    for s in (249, 251, 349, 352):
        x, w = deep.shifted(s), BitSequence.from_ones([-s, -2, 600 - s])
        for (p, hp), (q, hq) in (((x, 0.0), (w, 0.25)), ((w, 0.25), (x, 0.4)),
                                 ((x, 0.4), (w, 0.1))):
            a = flow_point(f, p, hp * roof_eval(f, p))
            b = flow_point(f, q, hq * roof_eval(f, q))
            got, want = bw_distance_upper(a, b, f, 6, 3), reference_bw_distance_upper(a, b, f, 6, 3)
            assert float.hex(got) == float.hex(want), (s, hp, hq)


def test_bw_distance_far_windows_match_reference_in_bounded_memory():
    f = METRIC_ROOFS[0]
    near, far = BitSequence((1, 0, 1, 1), 0), BitSequence((1, 1, 0, 1), 20000)
    # one window at 0, and two windows whose bases differ only near 20000
    for x, y in ((near, far), (near.shifted(-20000), far)):
        a, b = FlowPoint(x, 0.0), flow_point(f, y, 0.5 * roof_eval(f, y))
        assert bw_distance_upper(a, b, f, 4, 1) == reference_bw_distance_upper(a, b, f, 4, 1)
    # temporaries grow with the distance of the windows from 0 only linearly
    tracemalloc.start()
    bw_distance_upper(a, b, f, 4, 3)
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    assert peak < 8e6


def test_bw_distance_is_zero_between_two_points_of_one_vertex():
    """Two points of one fiber whose normalized heights round to one double
    share a vertex of the chain graph; their distance is the vertical |ua - ub|."""
    f, x = parse_roof_spec("const:3"), BitSequence.from_ones([0])
    h = 1.6463962841644588
    a, b = FlowPoint(x, h), FlowPoint(x, math.nextafter(h, 9))
    assert a != b and norm_height(a, f) == norm_height(b, f)
    for p, q in ((a, b), (b, a)):
        assert bw_distances_upper(p, q, f, (2, 3, 6)) == (0.0, 0.0, 0.0)
        for budget in (2, 3, 6):
            assert bw_distance_upper(p, q, f, budget) == 0.0
            assert reference_bw_distance_upper(p, q, f, budget) == 0.0


def test_bw_distance_is_zero_within_the_height_tolerance_on_one_fiber():
    """A horizontal pair of one base costs 0, so points of one fiber at
    normalized heights within HEIGHT_TOL are at distance 0.0; further apart,
    the distance is the vertical |ua - ub|."""
    f, x = parse_roof_spec("const:3"), BitSequence.from_ones([0])
    a = FlowPoint(x, 1.0)
    for h in (math.nextafter(1.0, 9), 1.0 + 2e-9):
        b = FlowPoint(x, h)
        assert 0.0 < abs(norm_height(a, f) - norm_height(b, f)) <= HEIGHT_TOL
        for budget in (2, 3, 6):
            assert bw_distance_upper(a, b, f, budget) == 0.0
            assert reference_bw_distance_upper(a, b, f, budget) == 0.0
    b = FlowPoint(x, 1.0 + 3e-6)
    gap = abs(norm_height(a, f) - norm_height(b, f))
    assert gap > HEIGHT_TOL and bw_distance_upper(a, b, f, 6) == gap


def test_bw_distances_match_fresh_calls_and_the_reference_at_every_budget():
    """One graph answers every budget: each answer equals a fresh single-budget
    call and the reference, bit for bit, whatever the order of the budgets."""
    rng = np.random.default_rng(59)
    kinds = ("equal", "close-heights", "same-orbit", "singular-fiber", "periodic",
             "far", "random")
    checked = 0
    for f in METRIC_ROOFS:
        for kind in kinds:
            pair = _metric_pair(rng, f, kind)
            for a, b in (pair, pair[::-1]):
                window = 1 + checked % 3
                budgets = tuple(int(m) for m in rng.permutation(np.r_[2:13, 2:13:3]))
                want = {m: reference_bw_distance_upper(a, b, f, m, window) for m in range(2, 13)}
                got = bw_distances_upper(a, b, f, budgets, window)
                assert len(got) == len(budgets)
                for m, d in zip(budgets, got):
                    fresh = bw_distance_upper(a, b, f, m, window)
                    assert float.hex(d) == float.hex(fresh) == float.hex(want[m]), \
                        (a, b, f.spec(), kind, m, window)
                checked += 1
    assert checked == len(METRIC_ROOFS) * len(kinds) * 2


def test_bw_distances_reject_empty_and_small_budgets():
    x = parse_sequence_literal("0*|1011|0*")
    a, b = FlowPoint(x, 0.0), FlowPoint(shift(x, 1), 0.0)
    with pytest.raises(ValueError, match="at least one chain budget"):
        bw_distances_upper(a, b, UNIT, ())
    for budgets in ((1,), (4, 1), (0, 6)):
        with pytest.raises(ValueError, match="chain budget must be at least 2"):
            bw_distances_upper(a, b, UNIT, budgets)
    with pytest.raises(ValueError, match="chain budget must be at least 2"):
        bw_distance_upper(a, b, UNIT, 1)
    with pytest.raises(ValueError, match="window must be nonnegative"):
        bw_distances_upper(a, b, UNIT, (4,), -1)


# ---------------------------------------------------------------------------
# The graph build reads every per-base fact from the slot rows: roofs from the
# slot bytes through roof_between, and one distance table over the distinct
# bases.  Oracle: the previous build, which looked each roof up by roof_eval.


def slot_oracle_bw_distances_upper(a: FlowPoint, b: FlowPoint, f: RoofFunction,
                       budgets: tuple[int, ...], window: int = 3) -> tuple[float, ...]:
    """The slot-table graph build as it was before roofs came from the slot
    bytes, copied verbatim: roof_eval per base, norm_height per endpoint, and
    one distance table over all 4 window + 4 slots.  Its 2^-m underflows to
    0.0 past m = 1074, so it is compared only on pairs whose bases first differ
    within |m| <= 1074.

    ``bw_distance_upper`` at each of ``budgets``, in order, from one chain
    graph: the t-th relaxation is the distance over at most t edges, so
    budget m reads the iterate that a call with budget m alone stops at.

    Every base and its image under the shift is x.shifted(j) for an endpoint
    base x and -window <= j <= window + 1, so each is a slot: the bytes of
    one orbit's bit row on coordinates -r..r of the shift.  These hold 0 and
    the compare bound of every pair, so equal slots mean equal sequences and
    the first mismatch outward from 0 gives the distance.
    """
    if not budgets:
        raise ValueError("need at least one chain budget")
    if min(budgets) < 2:
        raise ValueError("chain budget must be at least 2")
    if window < 0:
        raise ValueError("window must be nonnegative")
    ua, ub = norm_height(a, f), norm_height(b, f)
    if ua == ub and a.base == b.base:   # one vertex, at vertical length 0
        return (0.0,) * len(budgets)
    orbits = a.base, b.base
    r = compare_radius(*orbits, window + 1)
    # slot s = 2c + o is orbits[o].shifted(c - window) on -r..r and its image
    # is slot s + 2: the base slots come first, then the two image-only slots
    rows = [bytes(z.segment(-r - window, r + window + 2)) for z in orbits]
    slots = [row[c:c + 2 * r + 1] for c in range(2 * window + 2) for row in rows]
    ids: dict = {}
    base = np.array([ids.setdefault(bits, len(ids)) for bits in slots])   # equal slots, one id

    # vertices (base id, normalized height) -> a slot of the base, in first-insertion order
    verts = {(base[2 * window], ua): 2 * window, (base[2 * window + 1], ub): 2 * window + 1}
    grid = sorted({0.0, ua, ub})
    for o in (0, 1):
        for j in range(-window, window + 1):
            s = 2 * (j + window) + o
            for u in ((0.0,) if roof_eval(f, orbits[o], j) == 0.0 else grid):
                verts.setdefault((base[s], u), s)

    # d[s, t] = d(slot s, slot t), from the first mismatch in |m| order, a chunk of
    # columns at a time outward from 0, so the temporaries stay (2n)^2 x _CHUNK for
    # the 2n = 4 window + 4 slots
    bits = np.frombuffer(b"".join(slots), dtype=np.uint8).reshape(len(slots), -1)
    d = np.zeros((len(slots), len(slots)))
    found = base[:, None] == base   # pairs whose first mismatch is seen (2^-m may underflow)
    for k0 in range(0, 2 * r + 1, _CHUNK):
        k = np.arange(k0, min(k0 + _CHUNK, 2 * r + 1))
        m = (k + 1) >> 1   # coordinates 0, 1, -1, ..., r, -r
        col = bits[:, r + np.where(k & 1, m, -m)]
        diff = col[:, None] != col
        hit = diff.any(-1)
        # 2^-m of a chunk's first mismatch exceeds that of any later chunk
        d = np.maximum(d, np.where(hit, np.ldexp(1.0, -m[diff.argmax(-1)]), 0.0))
        found |= hit
        if found.all():
            break

    vs, vu = np.array(list(verts.values())), np.array([u for _, u in verts])
    vb = base[vs]
    up_to = base[vs + 2][:, None] == vb   # the image of fiber i is fiber j
    ui, uj = vu[:, None], vu
    gap = np.abs(ui - uj)   # zero on the diagonal, which no edge undercuts
    up = 1.0 - ui + uj      # from fiber i up through the roof to fiber j
    # vertical: same fiber, or flowing up through the roof to the next one
    weight = np.where(vb[:, None] == vb, gap,
                      np.where(up_to, up, np.where(up_to.T, up.T, math.inf)))
    u = 0.5 * (ui + uj)
    horizontal = (1.0 - u) * d[vs[:, None], vs] + u * d[vs[:, None] + 2, vs + 2]
    weight = np.where((gap <= HEIGHT_TOL) & (horizontal < weight), horizontal, weight)
    # each pair is weighed with the lower vertex index first
    weight = np.where(np.tri(len(vs), k=-1, dtype=bool), weight.T, weight)

    # shortest paths from a (index 0): reach[t] is b's over at most t edges
    dist = np.full(len(vs), math.inf)
    dist[0] = 0.0
    reach = [math.inf]
    for _ in range(max(budgets) - 1):
        new = (dist[:, None] + weight).min(0)  # the zero diagonal keeps dist
        if not (new < dist).any():  # a fixed point stays fixed
            break
        dist = new
        reach.append(float(dist[1]))
    return tuple(reach[min(m, len(reach)) - 1] for m in budgets)



def _oracle_pairs(rng):
    """(a, b, f, window) on every oracle roof: rows wider than _CHUNK, bases
    with no 1 on one side of the row, the geometric roof's underflow at gaps
    248 and 249, period-2 orbits, equal and close heights, and random pairs."""
    deep = BitSequence.from_ones([0, 600])
    two = BitSequence.periodic((1, 0))
    sides = [BitSequence.from_ones([0]), BitSequence.from_ones([-2], right=(0, 0, 1)),
             BitSequence.from_ones([3], left=(1, 0)), BitSequence.zero()]
    for f in ORACLE_ROOFS:
        def point(x, scale=0.5):
            return flow_point(f, x, scale * float(rng.uniform()) * roof_eval(f, x))
        x = random_point(rng, f).base
        for y in (x.shifted(int(rng.choice([-1, 1]) * rng.integers(520, 700))),
                  random_point(rng, f).base.shifted(int(rng.integers(530, 600)))):
            yield point(x), point(y), f, int(rng.integers(0, 4))
        for s in (248, 249, 300, 351, 352):
            yield point(deep.shifted(s)), point(deep.shifted(s + int(rng.integers(-3, 4)))), f, 3
        # rows wider than _CHUNK whose bases first differ past its first _CHUNK
        # columns, at one height, where the horizontal pair is the distance
        for ones in ([0, 560, 600], [-560, 0, 600], [0, 600, 1000]):
            h = 0.5 * float(rng.uniform()) * roof_eval(f, deep)
            yield flow_point(f, deep, h), flow_point(f, BitSequence.from_ones(ones), h), f, 3
        for y in sides:
            yield point(y), point(random_point(rng, f).base), f, int(rng.integers(1, 4))
            yield point(y), point(rng.choice(sides)), f, 2
        for p in (two, two.shifted(1), BitSequence((1,), 0, (1, 0), (1, 0))):
            yield point(two, 1.0), point(p, 1.0), f, int(rng.integers(0, 4))
            yield point(p, 1.0), point(random_point(rng, f).base), f, 3
        a = point(x)
        y = random_point(rng, f).base
        if roof_eval(f, y) > 0.0 and norm_height(a, f) > 0.0:
            # b at a's normalized height, and one ulp above it: horizontal pairs
            b = FlowPoint(y, norm_height(a, f) * roof_eval(f, y))
            if norm_height(b, f) < 1.0:
                yield a, b, f, 3
                yield a, FlowPoint(b.base, math.nextafter(b.height, 0.0)), f, 3


def test_bw_distances_match_the_slot_oracle_bit_for_bit():
    rng = np.random.default_rng(67)
    wide = checked = 0
    for rep in range(3):
        for a, b, f, window in _oracle_pairs(rng):
            for p, q in ((a, b), (b, a)):
                budgets = tuple(int(m) for m in rng.integers(2, 13, size=int(rng.integers(1, 4))))
                got = bw_distances_upper(p, q, f, budgets, window)
                want = slot_oracle_bw_distances_upper(p, q, f, budgets, window)
                assert [d.hex() for d in got] == [d.hex() for d in want], \
                    (p, q, f.spec(), budgets, window)
                wide += 2 * compare_radius(p.base, q.base, window + 1) + 1 > _CHUNK
                checked += 1
    assert checked >= 800 and wide >= 48


def test_slot_bytes_give_the_roof_of_every_slot():
    """bw_distances_upper reads a base's roof from its slot: the 1s of the
    slot nearest to coordinate 0, None where the slot has none, through
    roof_between.  A slot holds a tail period past each window edge, so this
    is roof_eval's answer on every slot, the image-only ones included."""
    rng = np.random.default_rng(71)
    deep = BitSequence.from_ones([0, 600])
    bases = [deep, deep.shifted(249), deep.shifted(351), BitSequence.zero(),
             BitSequence.from_ones([0]), BitSequence.from_ones([-2], right=(0, 0, 1)),
             BitSequence.from_ones([3], left=(1, 0)), BitSequence.periodic((1, 0)),
             BitSequence((1,), 0, (0,), (1,) + (0,) * 40)]
    checked = 0
    for f in ORACLE_ROOFS:
        for x in bases + [random_point(rng, f).base for _ in range(6)]:
            for window in range(4):
                y = random_point(rng, f).base.shifted(int(rng.integers(-30, 31)))
                r = compare_radius(x, y, window + 1)
                row = x._row(-r - window, r + window + 2)
                for c in range(2 * window + 2):
                    key = row[c:c + 2 * r + 1]
                    i, j = key.rfind(1, 0, r + 1), key.find(1, r + 1)
                    got = roof_between(f, r, None if i < 0 else i, None if j < 0 else j)
                    assert got.hex() == roof_eval(f, x, c - window).hex(), (x, f.spec(), c)
                    checked += 1
    assert checked == len(ORACLE_ROOFS) * (len(bases) + 6) * sum(2 * w + 2 for w in range(4))


def test_distinct_points_at_one_height_are_at_positive_distance():
    """Two sequences that first differ at |m| = 1200 are at 2^-1074, not 0.0,
    and so are horizontal pairs of them, at u = 1/2 too, where both terms
    (1 - u) 2^-1074 and u 2^-1074 round to 0."""
    f = parse_roof_spec("harmonic:1")
    x, y = BitSequence.from_ones([0, 1, 2000]), BitSequence.from_ones([0, 1, 1200, 2000])
    tiny = math.ulp(0.0)
    assert seq_distance(x, y) == seq_distance(x.shifted(1), y.shifted(1)) == tiny
    for h in (0.25, 0.5):
        pa, pb = flow_point(f, x, h * roof_eval(f, x)), flow_point(f, y, h * roof_eval(f, y))
        assert pair_length(pa, pb, HORIZONTAL, f) > 0.0
        assert pair_length(pa, pb, HORIZONTAL, f) == pair_length(pb, pa, HORIZONTAL, f) == tiny
        for budget in (2, 6):
            assert bw_distance_upper(pa, pb, f, budget) == bw_distance_upper(pb, pa, f, budget) \
                == tiny
    assert bw_distance_upper(pa, pa, f, 6) == 0.0


def test_unit_roof_extension_examples():
    pi = unit_roof_extension(UNIT)
    x = BitSequence.from_ones([0, 3])
    base = FlowPoint(x, 0.0)
    assert pi(UnitPoint(base, 0.0)) == base
    lifted = pi(UnitPoint(base, 0.25))
    assert lifted.base == x and lifted.height == pytest.approx(0.25)

    pih = unit_roof_extension(HARM)
    xhat = FlowPoint(BitSequence.from_ones([-2, 2]), 0.0)  # k_x = 2
    assert flowpoints_close(pih(UnitPoint(xhat, 0.4)),
                            flow(xhat, 0.4, HARM), HARM, 1e-12)


def test_unit_roof_equivariance_sampled():
    rng = np.random.default_rng(41)
    pi = unit_roof_extension(HARM)
    for _ in range(200):
        p = UnitPoint(random_point(rng, HARM), float(rng.uniform(0.0, 1.0)))
        t = float(rng.uniform(-2.5, 2.5))
        lhs = pi(pi.advance(p, t))
        rhs = flow(pi(p), t, HARM)
        assert flowpoints_close(lhs, rhs, HARM, 1e-9)


def test_norm_height_convention_at_singularity():
    assert norm_height(singular_point(), HARM) == 0.0
