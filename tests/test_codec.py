import math

import numpy as np
import pytest

from singflow import (ADJUSTED, ALPHABET, PAPER, AmbiguousContextError,
                      BitSequence, CodecDomainError, DecodeError,
                      FirstReturnStructureError, GapPair, Harmonic,
                      Power, RegionDomainError, RoofFunction, accel_step,
                      ceil_sqrt, decode_position, decode_sequence, decode_word,
                      encode_block, encode_sequence, fiber_sfts, gap_pair,
                      letter, parse_word, region_of, render_word,
                      return_profile, roof_prime, roof_prime_continuity_probe,
                      sft_entropy_wordcount, shift, step_length)

INF = math.inf
LOG2 = math.log(2.0)
HARM = RoofFunction.from_profile(Harmonic(1.0))


# ---------------------------------------------------------------------------
# regions and step lengths

def test_region_examples():
    assert region_of(GapPair(0, 5)) == 1
    assert region_of(GapPair(4, 7)) == 3      # 7 > 4 >= 7/3
    assert region_of(GapPair(8, 3)) == 4
    assert region_of(GapPair(2, 9)) == 2
    with pytest.raises(RegionDomainError):
        region_of(GapPair(INF, INF))


def test_region_infinite_rays():
    assert region_of(GapPair(0, INF)) == 1
    assert region_of(GapPair(17, INF)) == 2
    assert region_of(GapPair(INF, 17)) == 4


def test_region_boundary_conventions():
    boundary = GapPair(2, 6)  # k- = k+/3
    assert region_of(boundary, ADJUSTED) == 3
    assert region_of(boundary, PAPER) == 2


def test_region_totality_exhaustive():
    # the four regions partition everything except the doubly infinite pair;
    # vectorized predicate cross-checked against region_of on a sample
    n = 2000
    km = np.arange(0, n + 1).reshape(-1, 1)
    kp = np.arange(1, n + 1).reshape(1, -1)
    r1 = km == 0
    r4 = (km > 0) & (kp <= km)
    r2 = (km > 0) & (kp > km) & (3 * km < kp)
    r3 = (km > 0) & (kp > km) & (3 * km >= kp)
    total = r1.astype(int) + r4.astype(int) + r2.astype(int) + r3.astype(int)
    assert np.all(total == 1)
    rng = np.random.default_rng(13)
    for _ in range(300):
        a = int(rng.integers(0, n + 1))
        b = int(rng.integers(1, n + 1))
        want = 1 if r1[a, 0] else 2 if r2[a, b - 1] else 3 if r3[a, b - 1] else 4
        assert region_of(GapPair(a, b)) == want


def test_step_length_examples():
    assert step_length(GapPair(0, 123)) == 1
    assert step_length(GapPair(0, INF)) == 1
    assert step_length(GapPair(2, 9)) == 2
    assert step_length(GapPair(4, 7)) == 4       # 7 - floor(121/32)
    assert step_length(GapPair(8, 3)) == 2       # ceil(3/2)
    assert step_length(GapPair(17, INF)) == 17
    assert step_length(GapPair(INF, 9)) == 5


def test_step_length_positive_sampled():
    rng = np.random.default_rng(19)
    for _ in range(500):
        km = int(rng.integers(0, 5000))
        kp = int(rng.integers(1, 5000))
        assert step_length(GapPair(km, kp)) >= 1


def test_accel_step_examples():
    star = BitSequence.zero()
    assert accel_step(star) == star
    x = BitSequence.from_ones([-2, 9])
    assert accel_step(x) == shift(x, 2)
    y = BitSequence.from_ones([0, 9])
    assert accel_step(y) == shift(y, 1)


def test_accel_step_agrees_with_block_simulation():
    # dual route: object-level steps against the integer profile offsets
    rng = np.random.default_rng(43)
    for _ in range(25):
        gap = int(rng.integers(3, 3000))
        prof = return_profile(gap)
        x = BitSequence.from_ones([0, gap])
        for q in range(prof.p):
            assert gap_pair(x).k_minus == prof.offsets[q]
            x = accel_step(x)
        assert gap_pair(x).k_minus == 0 and x.at(0) == 1


# ---------------------------------------------------------------------------
# first-return profiles

def test_return_profile_gap_11():
    prof = return_profile(11)
    assert (prof.p, prof.r) == (6, 3)
    assert prof.epsilon_bits == {4: 1}
    assert prof.offsets == (0, 1, 2, 4, 8, 10, 11)
    assert prof.regions == (1, 2, 2, 3, 4, 4)


def test_return_profile_gap_5():
    prof = return_profile(5)
    assert (prof.p, prof.r) == (4, 2)
    assert prof.epsilon_bits == {}


def test_return_profile_gap_4_both_conventions():
    adj = return_profile(4, ADJUSTED)
    assert (adj.p, adj.r) == (4, 1)
    assert adj.epsilon_bits == {2: 0}
    lit = return_profile(4, PAPER)
    assert lit.r is None
    assert lit.regions == (1, 2, 4, 4)
    assert lit.word is None


def test_return_profile_small_gaps():
    assert return_profile(1).word == (letter(1, "x"),)
    assert return_profile(2).word == (letter(1, "x"), letter(4, "x"))


def test_first_return_structure_sweep():
    for gap in range(3, 2001):
        prof = return_profile(gap)
        p, r = prof.p, prof.r
        assert r is not None and 0 < r < p
        assert prof.regions == (1,) + (2,) * (r - 1) + (3,) + (4,) * (p - 1 - r)
        for q in range(1, r + 1):
            assert prof.offsets[q] == 2 ** (q - 1)
        for q in range(r + 1, p):
            kp = gap - prof.offsets[q]
            want = 2 ** (p - 1 - q) + sum(prof.epsilon_bits[q + i] << i
                                          for i in range(p - q - 1))
            assert kp == want
        assert 2 * r >= p - 3
        assert p - 2 - r <= math.ceil(p / 2) - 1


# ---------------------------------------------------------------------------
# block words

def test_encode_examples():
    assert render_word(encode_block(11)) == "1^1 2^x 2^x 3^x 4^x 4^1"
    assert render_word(encode_block(4)) == "1^0 3^x 4^x 4^0"
    assert encode_block(1) == (letter(1, "x"),)
    assert encode_block(2) == (letter(1, "x"), letter(4, "x"))


def test_encode_gap_4_paper_raises():
    with pytest.raises(FirstReturnStructureError):
        encode_block(4, PAPER)


def test_alphabet_has_24_letters():
    assert len(ALPHABET) == 24
    assert len(set(ALPHABET)) == 24


def test_decode_examples():
    assert decode_word(parse_word("1^1 2^x 2^x 3^x 4^x 4^1")) == 11
    assert decode_word(parse_word("1^x")) == 1
    assert decode_word(parse_word("1^x 4^x")) == 2
    assert decode_word(parse_word("1^0 3^x 4^x 4^0")) == 4


def test_decode_structural_errors():
    with pytest.raises(DecodeError) as err:
        decode_word(parse_word("1^0 2^x 4^x 2^x"))
    assert err.value.constraint == "y-pattern"
    with pytest.raises(DecodeError) as err:
        decode_word(())
    assert err.value.constraint == "empty-word"
    with pytest.raises(DecodeError) as err:
        decode_word(parse_word("2^x"))
    assert err.value.constraint == "fixed-word-shape"
    with pytest.raises(DecodeError) as err:
        decode_word(parse_word("1^x 3^x 4^x 4^0"))
    assert err.value.constraint == "z1-range"
    with pytest.raises(DecodeError) as err:
        decode_word(parse_word("1^0 3^x 4^x 4^x"))
    assert err.value.constraint == "epsilon-bit"
    with pytest.raises(DecodeError) as err:
        decode_word(parse_word("1^0 3^1 4^x 4^0"))
    assert err.value.constraint == "z-extraneous"


def test_roundtrip_and_injectivity_sweep():
    seen = {}
    for gap in range(1, 2001):
        w = encode_block(gap)
        assert decode_word(w) == gap
        assert w not in seen
        seen[w] = gap


def test_roundtrip_paper_boundary_anomalies():
    anomalies = []
    for gap in range(1, 2001):
        try:
            w = encode_block(gap, PAPER)
        except FirstReturnStructureError:
            anomalies.append(gap)
            continue
        assert decode_word(w) == gap
    assert anomalies == [4, 8, 16, 32, 64, 128, 256, 512, 1024, 2048][:len(anomalies)]
    assert anomalies == [g for g in range(4, 2001) if g & (g - 1) == 0]


# ---------------------------------------------------------------------------
# position recovery

def test_decode_position_examples():
    w11 = encode_block(11)
    got = decode_position(w11, 2)  # letter index q = 3, y = 2
    assert (got.k_minus, got.k_plus) == (2, 9)
    got = decode_position(w11, 0)
    assert (got.k_minus, got.k_plus) == (0, 11)


def test_decode_position_future_segment():
    ctx = [letter(1, "x")] + [letter(2, "x")] * 10
    for depth in (2, 3, 6):
        got = decode_position(ctx, depth - 1, no_ones_right=True)
        assert (got.k_minus, got.k_plus) == (2 ** (depth - 2), INF)


def test_decode_position_past_segment():
    prof = return_profile(11)
    w = list(encode_block(11))
    ctx = w[4:] + [letter(1, "x")]
    got = decode_position(ctx, 0, no_ones_left=True)
    assert (got.k_minus, got.k_plus) == (INF, 11 - prof.offsets[4])


def test_decode_position_errors():
    with pytest.raises(AmbiguousContextError):
        decode_position([letter(2, "x")] * 4, 2)
    with pytest.raises(AmbiguousContextError):
        decode_position(encode_block(11), 99)
    both = decode_position([letter(2, "x")] * 4, 2,
                           no_ones_left=True, no_ones_right=True)
    assert both.is_singular()
    # a halving phase of four steps needs parity bits before the context
    with pytest.raises(AmbiguousContextError):
        decode_position([letter(4, "x")] * 4 + [letter(1, "x")], 0, no_ones_left=True)
    with pytest.raises(DecodeError) as err:
        decode_position([letter(4, "x")] * 3 + [letter(1, "x")], 0, no_ones_left=True)
    assert err.value.constraint == "epsilon-bit"


def test_decode_position_matches_simulation_exhaustively():
    for gap in range(1, 10 ** 4 + 1):
        prof = return_profile(gap)
        offsets = prof.offsets
        for q in range(prof.p):
            got = decode_position(prof.word, q)
            assert (got.k_minus, got.k_plus) == (offsets[q], gap - offsets[q])


# ---------------------------------------------------------------------------
# the block code on sequences

def test_encode_sequence_periodic_block():
    x = BitSequence.periodic((1,) + (0,) * 10)
    u = encode_sequence(x)
    word = encode_block(11)
    assert tuple(u.at(i) for i in range(6)) == word
    assert tuple(u.at(i) for i in range(6, 12)) == word
    assert len(u.left) == 6 and len(u.right) == 6
    assert decode_sequence(u) == x


def test_encode_sequence_zero_maps_to_constant_word():
    u = encode_sequence(BitSequence.zero())
    assert u.window == () and u.left == (letter(1, "x"),) == u.right


def test_encode_sequence_collision_with_all_ones():
    # the all-ones sequence has every gap 1 and collides with the image of
    # the zero sequence; decoding resolves the constant word to zero
    ones = BitSequence.periodic((1,))
    u = encode_sequence(ones)
    assert u == encode_sequence(BitSequence.zero())
    assert decode_sequence(u) == BitSequence.zero()


def test_encode_sequence_domain_errors():
    with pytest.raises(CodecDomainError):
        encode_sequence(BitSequence.from_ones([0, 5]))  # zero tails
    # origin inside a block but off the accelerated orbit
    x = shift(BitSequence.periodic((1,) + (0,) * 10), 3)
    with pytest.raises(CodecDomainError):
        encode_sequence(x)


def test_encode_sequence_equivariance_exhaustive():
    for gap in range(1, 101):
        x = BitSequence.periodic((1,) + (0,) * (gap - 1))
        u = encode_sequence(x)
        y = x
        for _ in range(min(return_profile(gap).p, 8)):
            y = accel_step(y)
            u = shift(u, 1)
            assert encode_sequence(y) == u


def test_encode_sequence_mixed_gaps():
    # two-block cycle 1 0 0 1 0: gaps 3 and 2
    x = BitSequence.periodic((1, 0, 0, 1, 0))
    u = encode_sequence(x)
    expected_cycle = encode_block(3) + encode_block(2)
    assert tuple(u.at(i) for i in range(len(expected_cycle))) == expected_cycle
    assert decode_sequence(u) == x
    assert encode_sequence(accel_step(x)) == shift(u, 1)


def test_decode_sequence_no_ones_is_zero():
    u = encode_sequence(BitSequence.zero())
    assert decode_sequence(u) == BitSequence.zero()
    fiber_word = (letter(2, 0), letter(2, "x"))
    from singflow import SymbolSequence
    v = SymbolSequence((), 0, fiber_word, fiber_word)
    assert decode_sequence(v) == BitSequence.zero()


def test_decode_sequence_future_zero_tail():
    # bits: ...(1 0 0)* then 1 at 0 and zeros forever
    from singflow import SymbolSequence
    x = BitSequence((1,), 0, (1, 0, 0), (0,))
    cyc = encode_block(3)
    tail_letters = (letter(2, "x"),)
    window = cyc  # the block ending at the final 1 has gap 3
    u = SymbolSequence(window + (letter(1, "x"),), -len(window), cyc, tail_letters)
    got = decode_sequence(u)
    assert got == x


def test_decode_sequence_rejects_bad_segments():
    from singflow import SymbolSequence
    bad = SymbolSequence((letter(1, "x"),), 0, (letter(1, "x"),), (letter(4, "x"),))
    with pytest.raises(DecodeError):
        decode_sequence(bad)


def test_roundtrip_random_periodic_patterns():
    rng = np.random.default_rng(47)
    for _ in range(30):
        gaps = [int(rng.integers(1, 40)) for _ in range(int(rng.integers(1, 5)))]
        word = []
        for g in gaps:
            word += [1] + [0] * (g - 1)
        x = BitSequence.periodic(tuple(word))
        u = encode_sequence(x)
        assert decode_sequence(u) == x
        # a few accelerated steps stay consistent
        y, v = x, u
        for _ in range(5):
            y = accel_step(y)
            v = shift(v, 1)
            assert decode_sequence(v) == y


# ---------------------------------------------------------------------------
# the accelerated roof

def test_roof_prime_at_singularity():
    assert roof_prime(BitSequence.zero(), HARM) == 1.0 * LOG2
    two = RoofFunction.from_profile(Harmonic(2.0))
    assert roof_prime(BitSequence.zero(), two) == 2.0 * LOG2
    with pytest.raises(ValueError):
        roof_prime(BitSequence.zero(), RoofFunction.from_profile(Power(0.5)))


def test_roof_prime_single_step():
    x = BitSequence.from_ones([0, 7])
    assert roof_prime(x, HARM) == 1.0  # R1: one term, g0


def test_roof_prime_deep_expanding_phase():
    x = BitSequence.from_ones([-1000, 10 ** 6])
    got = roof_prime(x, HARM)
    oracle = math.fsum(1.0 / j for j in range(1000, 2000))
    assert got == pytest.approx(oracle, abs=1e-12)
    assert got == pytest.approx(0.6933972, abs=1e-6)


def test_roof_prime_power_is_a_birkhoff_sum_of_value():
    # the scalar law k ** -alpha summed over one step; numpy's ks ** -alpha
    # differs from it in the last bit for some k
    g = Power(0.5)
    f = RoofFunction.from_profile(g)
    rng = np.random.default_rng(29)
    for _ in range(300):
        km, kp = int(rng.integers(0, 3000)), int(rng.integers(1, 3000))
        dists = [min(km + j, kp - j) for j in range(step_length(GapPair(km, kp)))]
        want = math.fsum(g.g0 if d == 0 else g.value(d) for d in dists)
        assert roof_prime(BitSequence.from_ones([-km, kp]), f) == want


def test_roof_prime_positive_sampled():
    rng = np.random.default_rng(53)
    for _ in range(100):
        km = int(rng.integers(0, 2000))
        kp = int(rng.integers(1, 2000))
        x = BitSequence.from_ones([p for p in (-km, kp) if True])
        if km == 0:
            x = BitSequence.from_ones([0, kp])
        assert roof_prime(x, HARM) > 0.0


def test_roof_prime_continuity_probe():
    probe = roof_prime_continuity_probe(Harmonic(1.0), 2000)
    assert probe <= 0.02
    values = [roof_prime_continuity_probe(Harmonic(1.0), K)
              for K in (250, 500, 1000, 2000, 4000)]
    assert all(a > b for a, b in zip(values, values[1:]))
    doubled = roof_prime_continuity_probe(Harmonic(2.0), 2000)
    assert doubled <= 0.04


def test_roof_prime_probe_scales_linearly():
    a = roof_prime_continuity_probe(Harmonic(1.0), 500)
    b = roof_prime_continuity_probe(Harmonic(2.0), 500)
    assert b == pytest.approx(2 * a, rel=1e-9)


def test_roof_prime_probe_table_agreeing_beyond_k():
    # a table that matches l/k past its explicit entries probes identically
    from singflow import Table
    table = Table([0.5] * 10, tail=Harmonic(1.0))
    assert (roof_prime_continuity_probe(table, 250)
            == roof_prime_continuity_probe(Harmonic(1.0), 250))


def test_fiber_sfts_shape_and_entropy():
    first, second = fiber_sfts()
    assert [render_word(w) for w in first] == ["2^0 2^x", "2^1 2^x"]
    assert [render_word(w) for w in second] == ["4^0 4^x", "4^1 4^x"]
    assert sft_entropy_wordcount(first, 40).value == pytest.approx(LOG2 / 2)
    assert sft_entropy_wordcount(second, 40).value == pytest.approx(LOG2 / 2)


def test_ceil_sqrt_exact():
    assert ceil_sqrt(0) == 0
    for n in list(range(1, 500)) + [10 ** 12 - 1, 10 ** 12, 10 ** 12 + 1]:
        s = ceil_sqrt(n)
        assert (s - 1) ** 2 < n <= s ** 2
