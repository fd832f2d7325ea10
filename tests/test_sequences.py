import math

import numpy as np
import pytest

from singflow import (BitSequence, FlowPoint, SequenceFormatError, SymbolSequence,
                      format_sequence_literal, gap_pair, parse_roof_spec,
                      parse_sequence_literal, roof_eval, seq_distance, shift)
from singflow.sequences import MAX_GAP, _primitive

INF = math.inf


def random_sequence(rng):
    n = int(rng.integers(1, 12))
    window = tuple(int(b) for b in rng.integers(0, 2, size=n))
    start = int(rng.integers(-8, 8))
    tails = [(0,), (1,), (1, 0), (0, 1, 1), (1, 0, 0, 0)]
    left = tails[int(rng.integers(0, len(tails)))]
    right = tails[int(rng.integers(0, len(tails)))]
    return BitSequence(window, start, left, right)


def test_shift_fixes_zero_sequence():
    star = BitSequence.zero()
    assert shift(star, 5) == star


def test_shift_translates_indices():
    x = BitSequence.from_ones([0])
    y = shift(x, 1)
    assert y.at(-1) == 1 and y.at(0) == 0
    assert y == BitSequence.from_ones([-1])


def test_shift_block_by_four():
    x = parse_sequence_literal("0*|100000000001|0*")
    y = shift(x, 4)
    # coordinate lookup oracle: y_m = x_{m+4}
    for m in range(-20, 20):
        assert y.at(m) == x.at(m + 4)
    assert y.start == -4 and y.end == 8


def test_shift_composition_and_lookup_agreement():
    rng = np.random.default_rng(7)
    for _ in range(60):
        x = random_sequence(rng)
        a = int(rng.integers(-256, 257))
        b = int(rng.integers(-256, 257))
        assert shift(x, 0) == x
        assert shift(shift(x, a), b) == shift(x, a + b)
        y = shift(x, a)
        for m in (-256, -17, -1, 0, 1, 23, 256):
            assert y.at(m) == x.at(m + a)


def test_canonical_form_absorbs_redundant_window():
    # window bits matching the tails are stripped away
    a = BitSequence((0, 0, 1, 0, 0), -2)
    b = BitSequence((1,), 0)
    assert a.window == (1,) and a.start == 0
    assert a == b


def test_zero_sequence_unique_representation():
    a = BitSequence((0, 0, 0), 5)
    assert a.window == () and a.left == (0,) and a.right == (0,)
    assert a.is_zero()
    assert a == BitSequence.zero()


def test_periodic_tail_words_reduced_to_primitive():
    x = BitSequence((1, 1), 0, (1, 0, 1, 0), (0, 1, 0, 1))
    assert len(x.left) == 2 and len(x.right) == 2
    for m in range(-9, -1):
        assert x.at(m) == (m % 2 == 0)
    for m in range(2, 10):
        assert x.at(m) == (m % 2 == 1)
    # a fully periodic description collapses to the anchored periodic form
    y = BitSequence((1,), 0, (1, 0, 1, 0), (0, 1, 0, 1))
    assert y == BitSequence.periodic((1, 0))
    assert y.window == () and y.left == (1, 0) == y.right and y.start == 0


def test_gap_pair_examples():
    assert gap_pair(BitSequence.zero()) == gap_pair(BitSequence.zero())
    star = gap_pair(BitSequence.zero())
    assert star.k_minus == INF and star.k_plus == INF and star.is_singular()

    x = BitSequence.from_ones([0])
    assert gap_pair(x) == gap_pair(BitSequence.from_ones([0]))
    assert (gap_pair(x).k_minus, gap_pair(x).k_plus) == (0, INF)

    # 1 0^10 1 with the first 1 at -1
    y = shift(parse_sequence_literal("0*|100000000001|0*"), 1)
    k = gap_pair(y)
    assert (k.k_minus, k.k_plus) == (1, 10)


def test_gap_pair_shift_identity_small_gaps_exhaustive():
    for g in range(2, 120):
        x = BitSequence.from_ones([0, g])
        for L in range(1, g):
            k = gap_pair(shift(x, L))
            assert (k.k_minus, k.k_plus) == (L, g - L)


def test_gap_pair_shift_identity_every_gap_to_ten_thousand():
    rng = np.random.default_rng(11)
    for g in range(2, 10 ** 4 + 1):
        x = BitSequence.from_ones([0, g])
        for L in {1, g // 2, g - 1, int(rng.integers(1, g))}:
            if not 0 < L < g:
                continue
            k = gap_pair(shift(x, L))
            assert (k.k_minus, k.k_plus) == (L, g - L)


# Oracle for the nearest-ones primitive: the two tail-scanning methods and
# the gap-pair route of roof_eval it replaced, kept as they were.

def last_one_at_or_before(x, p0):
    e = x.end
    if p0 >= e:
        w = x.right
        n = len(w)
        lo = max(0, p0 - e - n + 1)
        for j in range(p0 - e, lo - 1, -1):
            if w[j % n]:
                return e + j
    if p0 >= x.start:
        hit = bytes(x.window).rfind(1, 0, min(p0, e - 1) - x.start + 1)
        if hit >= 0:
            return x.start + hit
    w = x.left
    n = len(w)
    top = min(p0, x.start - 1)
    for q in range(top, top - n, -1):
        j = x.start - 1 - q
        if w[n - 1 - (j % n)]:
            return q
    return None


def first_one_at_or_after(x, p0):
    if p0 < x.start:
        w = x.left
        n = len(w)
        for q in range(p0, min(x.start, p0 + n)):
            j = x.start - 1 - q
            if w[n - 1 - (j % n)]:
                return q
    if p0 < x.end:
        hit = bytes(x.window).find(1, max(p0, x.start) - x.start)
        if hit >= 0:
            return x.start + hit
    w = x.right
    n = len(w)
    j0 = max(0, p0 - x.end)
    for j in range(j0, j0 + n):
        if w[j % n]:
            return x.end + j
    return None


def reference_gap_pair_at(x, pos):
    left = last_one_at_or_before(x, pos)
    right = first_one_at_or_after(x, pos + 1)
    km = INF if left is None or pos - left > MAX_GAP else pos - left
    kp = INF if right is None or right - pos > MAX_GAP else right - pos
    return km, kp


def reference_roof_eval(f, x, pos):
    if f.is_constant:
        return f.constant
    if x.at(pos) == 1:
        return f.profile.g0
    k = min(reference_gap_pair_at(x, pos))
    return 0.0 if k == INF else f.profile.value(k)


ONES_ROOFS = [parse_roof_spec(s) for s in
              ("harmonic:1", "power:0.5", "logharmonic", "const:2", "trunc:0.5:harmonic:2")]


def _ones_cases(rng):
    tails = [(0,), (1,), (1, 0), (0, 1, 1), (1, 0, 0, 0), (0, 0, 0, 0, 1),
             (1,) + (0,) * 9]
    for _ in range(300):
        n = int(rng.integers(0, 12))
        window = tuple(int(b) for b in rng.integers(0, 2, size=n))
        if rng.integers(0, 4) == 0:
            window = (0,) * n  # a window without 1s
        left, right = (tails[int(i)] for i in rng.integers(0, len(tails), size=2))
        yield BitSequence(window, int(rng.integers(-8, 8)), left, right)
    for word in ((1,), (0, 1), (1, 0, 0), (0, 0, 1, 0, 1), (1,) + (0,) * 12):
        yield BitSequence.periodic(word)
    yield BitSequence.zero()
    yield BitSequence.from_ones([0])
    yield BitSequence((1,), -(10 ** 6), (0,), (1,) + (0,) * 999)


def _ones_positions(x, rng):
    s, e = x.start, x.end
    near = {s - 1, s, e - 1, e, 0, -1, 1}
    near |= set(range(s - 1, min(e, s + 20) + 1))
    for k in (1, 2, 3, 7):
        near |= {s - k * len(x.left) - j for j in (0, 1, 2)}
        near |= {e + k * len(x.right) + j for j in (0, 1, 2)}
    near |= {int(v) for v in rng.integers(-60, 60, size=5)}
    far = {10 ** 6, -(10 ** 6), 2 ** 62, -(2 ** 62), 2 ** 63, -(2 ** 63),
           2 ** 63 + 1, -(2 ** 63) - 1}
    return sorted(near | far)


def test_ones_around_and_roofs_match_the_tail_scans():
    rng = np.random.default_rng(37)
    for x in _ones_cases(rng):
        for pos in _ones_positions(x, rng):
            want = (last_one_at_or_before(x, pos), first_one_at_or_after(x, pos + 1))
            assert x.ones_around(pos) == want, (x, pos)
            k = x.gap_pair_at(pos)
            assert (k.k_minus, k.k_plus) == reference_gap_pair_at(x, pos), (x, pos)
            for f in ONES_ROOFS:
                assert roof_eval(f, x, pos) == reference_roof_eval(f, x, pos), (f, x, pos)


def test_ones_around_far_from_a_lone_one():
    x = BitSequence.from_ones([5])
    assert x.ones_around(2 ** 63) == (5, None)
    assert x.ones_around(-(2 ** 63)) == (None, 5)
    assert x.ones_around(5) == (5, None)
    assert x.ones_around(4) == (None, 5)
    assert x.gap_pair_at(2 ** 63).k_minus == INF  # beyond MAX_GAP
    assert BitSequence.zero().ones_around(0) == (None, None)


def test_segment_agrees_with_coordinate_lookup():
    rng = np.random.default_rng(13)
    for _ in range(500):
        x = random_sequence(rng)
        if rng.integers(0, 2):
            x = BitSequence((), int(rng.integers(-8, 8)), x.left, x.right)
        a, b = (int(v) for v in rng.integers(-40, 40, size=2))
        assert x.segment(a, b) == tuple(x.at(n) for n in range(a, b))


def test_empty_window_start_slides_to_the_right_tail():
    a = BitSequence((), 1, (0,), (1, 0))
    b = BitSequence((), 0, (0,), (0, 1))
    assert (a.start, a.window, a.left, a.right) == (0, (), (0,), (0, 1))
    assert (b.start, b.window, b.left, b.right) == (0, (), (0,), (0, 1))
    assert a == b and hash(a) == hash(b)
    assert len({FlowPoint(a, 0.5), FlowPoint(b, 0.5)}) == 1


def test_seq_distance_examples():
    x = BitSequence.from_ones([0, 3])
    assert seq_distance(x, x) == 0.0
    assert seq_distance(BitSequence.from_ones([0]), BitSequence.zero()) == 1.0
    # agree on |n| <= 2, differ at n = 3
    a = BitSequence.from_ones([1, 3])
    b = BitSequence.from_ones([1])
    assert seq_distance(a, b) == 0.125


def test_seq_distance_to_zero_sequence_is_two_to_minus_k():
    rng = np.random.default_rng(3)
    star = BitSequence.zero()
    for _ in range(40):
        x = random_sequence(rng)
        if x.is_zero():
            continue
        k = gap_pair(x)
        kx = 0 if x.at(0) == 1 else min(k.k_minus, k.k_plus)
        assert seq_distance(x, star) == math.ldexp(1.0, -int(kx))


def test_seq_distance_ultrametric():
    rng = np.random.default_rng(5)
    for _ in range(120):
        x, y, z = (random_sequence(rng) for _ in range(3))
        dxz = seq_distance(x, z)
        assert dxz <= max(seq_distance(x, y), seq_distance(y, z)) + 1e-18


def test_literal_roundtrip():
    for text in ["0*|1|0*", "0*|100000000001|0*@-4", "(10)*||(10)*",
                 "(110)*|0010|0*@3", "0*||0*"]:
        x = parse_sequence_literal(text)
        assert parse_sequence_literal(format_sequence_literal(x)) == x


def test_literal_errors():
    with pytest.raises(SequenceFormatError):
        parse_sequence_literal("0*|12|0*")
    with pytest.raises(SequenceFormatError):
        parse_sequence_literal("1*|1|0*")
    with pytest.raises(SequenceFormatError):
        parse_sequence_literal("0*|1")


@pytest.mark.parametrize("text", ["0*|1|0*@x", "0*|1|0*@", "0*|1|0*@1.5", "0*|1|0*@ -"])
def test_literal_malformed_start_is_typed(text):
    with pytest.raises(SequenceFormatError):
        parse_sequence_literal(text)


def _canonical_by_rotation(window, start, left, right):
    """Canonical fields by absorbing one window symbol at a time, rotating
    the tail word after each one."""
    window, left, right = tuple(window), _primitive(tuple(left)), _primitive(tuple(right))
    while window and window[0] == left[0]:
        window = window[1:]
        start += 1
        left = left[1:] + left[:1]
    while window and window[-1] == right[-1]:
        window = window[:-1]
        right = right[-1:] + right[:-1]
    if not window:
        start, left, right = SymbolSequence._normalize_empty(start, left, right)
    return window, start, left, right


def _fields(x):
    return x.window, x.start, x.left, x.right


def test_window_absorption_matches_rotation_on_short_inputs():
    rng = np.random.default_rng(17)
    for _ in range(5000):
        k = int(rng.integers(2, 4))
        word = lambda n: tuple(int(s) for s in rng.integers(0, k, size=n))
        args = (word(int(rng.integers(0, 14))), int(rng.integers(-6, 6)),
                word(int(rng.integers(1, 5))), word(int(rng.integers(1, 5))))
        assert _fields(SymbolSequence(*args)) == _canonical_by_rotation(*args)


def test_window_absorption_matches_rotation_on_long_windows():
    rng = np.random.default_rng(23)
    for left, right in [((1, 0, 0), (0, 1)), ((0,), (1, 1, 0)), ((1, 0), (1, 0))]:
        for reps in (1000, 3001):
            core = tuple(int(b) for b in rng.integers(0, 2, size=50))
            for middle in (core, ()):
                # a window that starts and ends inside the tails' periods
                window = left[1:] + left * reps + middle + right * reps + right[:1]
                args = (window, -7, left, right)
                assert _fields(SymbolSequence(*args)) == _canonical_by_rotation(*args)
                assert _fields(BitSequence(*args)) == _canonical_by_rotation(*args)


def test_bit_validation():
    with pytest.raises(ValueError):
        BitSequence((2,), 0)
