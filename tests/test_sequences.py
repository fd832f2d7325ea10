import math
import timeit

import numpy as np
import pytest

from singflow import (BitSequence, FlowPoint, SequenceFormatError, SymbolSequence,
                      format_sequence_literal, gap_pair, parse_roof_spec,
                      parse_sequence_literal, roof_eval, seq_distance, shift)
from singflow.sequences import MAX_GAP, _last_true, _primitive
from sequence_oracle import normal_form, normalize_empty

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


def _fields_and_caches(x):
    names = ("window", "start", "left", "right")
    if isinstance(x, BitSequence):
        names += ("_wbytes", "_left2", "_right2")
    return {name: getattr(x, name) for name in names}


def test_shifted_is_the_constructor_at_the_moved_start():
    rng = np.random.default_rng(53)
    cases = [random_sequence(rng) for _ in range(300)]
    # empty windows, which the constructor re-anchors
    cases += [BitSequence((), int(rng.integers(-8, 8)), x.left, x.right) for x in cases[:100]]
    cases += [BitSequence.zero(), BitSequence.periodic((1, 0, 0)),
              BitSequence.from_ones([0, 10 ** 4]), BitSequence.from_ones([3], left=(1,))]
    letters = ("a", "b", "cd")
    for _ in range(200):  # sequences over another alphabet, windows empty or not
        word = lambda lo, hi: tuple(letters[int(i)] for i in
                                    rng.integers(0, 3, size=int(rng.integers(lo, hi))))
        cases.append(SymbolSequence(word(0, 8), int(rng.integers(-8, 8)), word(1, 4), word(1, 4)))
    assert any(not x.window for x in cases) and any(x.window for x in cases)
    for x in cases:
        for n in (0, 1, -1, 2, 7, -13, 10 ** 6, -(2 ** 70)):
            y, z = x.shifted(n), type(x)(x.window, x.start - n, x.left, x.right)
            assert type(y) is type(z)
            assert _fields_and_caches(y) == _fields_and_caches(z), (x, n)
            assert y == z and hash(y) == hash(z)
            assert all(y.at(m) == x.at(m + n) for m in range(-5, 6))


def test_from_ones_places_ones_at_exactly_the_given_coordinates():
    rng = np.random.default_rng(59)
    tails = [(0,), (1,), (1, 0), (0, 1, 1)]
    for _ in range(500):
        ones = [int(v) for v in rng.integers(-30, 30, size=int(rng.integers(0, 7)))]
        left, right = (tails[int(i)] for i in rng.integers(0, len(tails), size=2))
        x = BitSequence.from_ones(iter(ones), left, right)
        if not ones:
            assert x == BitSequence((), 0, left, right)
            continue
        lo, hi = min(ones), max(ones)
        window = tuple(1 if n in ones else 0 for n in range(lo, hi + 1))
        assert x == BitSequence(window, lo, left, right)
        assert x == BitSequence(list(window), lo, list(left), list(right))
        assert x.segment(lo, hi + 1) == window
    far = BitSequence.from_ones([0, 2 ** 20], (1, 0), (0, 1, 1))
    assert far == BitSequence([1] + [0] * (2 ** 20 - 1) + [1], 0, [1, 0], [0, 1, 1])


def test_integer_starts_and_shifts_of_any_type_act_as_ints():
    x = BitSequence((1, 0, 1), np.int64(3))
    assert type(x.start) is int and x == BitSequence((1, 0, 1), 3)
    assert x.shifted(2 ** 70).start == 3 - 2 ** 70
    assert x.shifted(np.int64(-5)) == BitSequence((1, 0, 1), 8)
    assert BitSequence.periodic((1, 0)).shifted(np.int32(3)) == BitSequence.periodic((0, 1))
    assert SymbolSequence(("a",), np.int8(2), ("b",), ("c",)).start == 2
    for bad in (2.5, 3.0, "3"):
        for cls, window in ((BitSequence, (1,)), (SymbolSequence, ("a",))):
            with pytest.raises(TypeError):
                cls(window, bad)
        with pytest.raises(TypeError):
            x.shifted(bad)


def test_bits_given_as_bools_or_numpy_integers_are_kept_as_ints():
    want = BitSequence((1, 0, 1, 1), -2, (0, 1), (1, 0, 0))
    for conv in (bool, np.int64, np.uint8):
        x = BitSequence(*(tuple(map(conv, w)) if isinstance(w, tuple) else w
                          for w in ((1, 0, 1, 1), -2, (0, 1), (1, 0, 0))))
        assert x == want and hash(x) == hash(want) and repr(x) == repr(want)
        assert all(type(s) is int for s in x.window + x.left + x.right)
    # an integer array is read symbol by symbol, never as its raw buffer
    assert BitSequence(np.array([1, 0, 1, 1]), -2, np.array([0, 1]), [1, 0, 0]) == want


def test_shifting_a_long_periodic_word_slides_once():
    x = BitSequence.periodic((1,) + (0,) * 3999)
    y = x.shifted(1)
    assert (y.window, y.start, y.left, y.right) == normal_form((), -1, x.left, x.right)
    assert min(timeit.repeat(lambda: x.shifted(1), number=1, repeat=5)) < 5e-3


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


@pytest.mark.parametrize("text", ["0*|1|0*@x", "0*|1|0*@", "0*|1|0*@1.5", "0*|1|0*@ -",
                                  "0*|1|0*@1_0", "0*|1|0*@\u0663"])
def test_literal_malformed_start_is_typed(text):
    with pytest.raises(SequenceFormatError):
        parse_sequence_literal(text)


@pytest.mark.parametrize("sign", ["", "+", "-"])
def test_literal_start_past_the_int_digit_limit_is_typed(sign):
    # 4,300 digits is Python's default limit on int-string conversion
    with pytest.raises(SequenceFormatError):
        parse_sequence_literal("0*|1|0*@" + sign + "9" * 5000)
    x = parse_sequence_literal("0*|1|0*@" + sign + "9" * 4300)
    assert x.start == int(sign + "9" * 4300)


def test_parse_sequence_literal_raises_only_sequence_format_errors():
    hyp = pytest.importorskip("hypothesis")
    st = hyp.strategies
    # literal shapes over the grammar's own characters, digits that are not
    # ASCII (Arabic-Indic three, superscript two) and free text
    part = st.text(alphabet="01()* \t\u0663\u00b2", max_size=6)
    start = st.one_of(st.just(""), st.text(alphabet="+-0123456789 _.x\u0663", max_size=5)
                      .map("@".__add__))
    literal = st.tuples(part, part, part, start).map(lambda t: "|".join(t[:3]) + t[3])

    @hyp.settings(max_examples=400, deadline=None, derandomize=True, database=None)
    @hyp.given(st.one_of(st.text(max_size=20), literal))
    def check(text):
        try:
            x = parse_sequence_literal(text)
        except SequenceFormatError:
            return
        assert isinstance(x, BitSequence)

    check()


def _primitive_by_divisors(word):
    """Oracle for _primitive: the divisor-by-divisor search it replaced,
    kept as it was."""
    n = len(word)
    for per in range(1, n + 1):
        if n % per == 0 and word == word[:per] * (n // per):
            return word[:per]
    return word


def test_primitive_matches_the_divisor_search_exhaustively():
    for n in range(13):
        for code in range(2 ** n):
            word = tuple((code >> i) & 1 for i in range(n))
            assert _primitive(word) == _primitive_by_divisors(word), word
    for word in ((0, 1) * 2520, (1,) + (0,) * 5039, (0, 1, 1) * 1680 + (0,),
                 ("ab", "c") * 3, ("ab", "c", "ab")):
        assert _primitive(word) == _primitive_by_divisors(word)


def test_primitive_matches_the_divisor_search_on_words_and_powers():
    hyp = pytest.importorskip("hypothesis")
    st = hyp.strategies
    words = st.binary(max_size=60).map(lambda b: tuple(v % 3 for v in b))
    powers = st.tuples(st.binary(min_size=1, max_size=9).map(lambda b: tuple(v & 1 for v in b)),
                       st.integers(1, 40)).map(lambda t: t[0] * t[1])

    @hyp.settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @hyp.given(st.one_of(words, powers))
    def check(word):
        root = _primitive(word)
        assert root == _primitive_by_divisors(word)
        assert not word or root * (len(word) // len(root)) == word

    check()


def _canonical_by_rotation(window, start, left, right):
    """Canonical fields by absorbing one window symbol at a time, rotating
    the tail word after each one."""
    window = tuple(window)
    left, right = _primitive_by_divisors(tuple(left)), _primitive_by_divisors(tuple(right))
    while window and window[0] == left[0]:
        window = window[1:]
        start += 1
        left = left[1:] + left[:1]
    while window and window[-1] == right[-1]:
        window = window[:-1]
        right = right[-1:] + right[:-1]
    if not window:
        start, left, right = normalize_empty(start, left, right)
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


@pytest.mark.parametrize("symbol", ["a", 2, -1, 256, 1.0])
@pytest.mark.parametrize("where", ["window", "left", "right"])
def test_bit_validation_names_every_non_bit_symbol(symbol, where):
    parts = {"window": (1,), "left": (0,), "right": (0,)}
    parts[where] = (1, symbol, 1) if where == "window" else (symbol, 1)
    with pytest.raises(ValueError, match="bit sequences hold 0/1 symbols"):
        BitSequence(parts["window"], 0, parts["left"], parts["right"])


def _old_at(x, n):
    """Coordinate lookup as written before it read ``segment``."""
    if x.start <= n < x.end:
        return x.window[n - x.start]
    if n < x.start:
        w = x.left
        return w[len(w) - 1 - ((x.start - 1 - n) % len(w))]
    w = x.right
    return w[(n - x.end) % len(w)]


def test_segment_far_from_the_window():
    far = BitSequence.from_ones([0, 3]).shifted(-2 ** 70)
    assert far.segment(-2, 3) == (0,) * 5
    assert far.segment(2 ** 70 - 1, 2 ** 70 + 5) == (0, 1, 0, 0, 1, 0)
    assert far.segment(3, -2) == () == far.segment(2 ** 70, 2 ** 70)


def test_at_matches_the_direct_lookup_near_and_far_from_the_window():
    rng = np.random.default_rng(29)
    for _ in range(300):
        x = random_sequence(rng)
        far = int(rng.choice([-1, 1])) * 2 ** 70 + int(rng.integers(-50, 50))
        for y in (x, x.shifted(far)):
            for n in [int(v) for v in rng.integers(-30, 30, size=8)] + [far, -far]:
                assert y.at(n) == _old_at(y, n), (y, n)


def test_last_true_finds_the_last_true_of_a_monotone_predicate():
    """On seeded ranges up to 2^62, against the n each predicate k <= n is
    built from (and a linear scan on short ranges): exact for tol 1, below n by
    less than tol for tol 64, hi when ok(hi), in at most 2 log2(hi - lo) + 2
    probes."""
    rng = np.random.default_rng(83)
    for _ in range(3000):
        lo = int(rng.choice([1, 128, int(rng.integers(1, 2 ** int(rng.integers(1, 62))))]))
        hi = lo + int(rng.integers(0, 2 ** int(rng.integers(1, 62))))
        inside = lo + int(rng.integers(0, 2 ** int(rng.integers(1, 63))))
        n = min(hi, int(rng.choice([lo, hi, inside])))
        for tol in (1, 64):
            probes = []

            def ok(k):
                assert lo <= k <= hi, (lo, hi, k)
                probes.append(k)
                return k <= n
            got = _last_true(ok, lo, hi, tol)
            assert got <= n and (got == hi or n < got + tol), (lo, hi, n, tol, got)
            if tol == 1:
                assert got == n
                if hi - lo <= 300:
                    assert got == max(k for k in range(lo, hi + 1) if k <= n)
            if n == hi:
                assert probes == [hi], (lo, hi, probes)
            assert len(probes) <= 2 * math.log2(max(hi - lo, 1)) + 2, (lo, hi, n, tol, probes)
