"""Properties of the sequence normal form, checked with hypothesis: the
normal form is unique, so equal sequences have equal descriptions."""
import math
import random

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from singflow import BitSequence, SymbolSequence, seq_distance  # noqa: E402
from singflow.sequences import compare_radius  # noqa: E402
from sequence_oracle import normal_form  # noqa: E402


def key(x):
    return x.start, x.window, x.left, x.right


def coordinates(x, lo, hi):
    return tuple(x.at(n) for n in range(lo, hi))


def same_coordinates(x, y):
    """Coordinate-wise equality: below both windows the two left tails
    repeat with a common period, above them the right tails do, so one
    common period past the outermost window edges decides."""
    lo = min(x.start, y.start) - math.lcm(len(x.left), len(y.left))
    hi = max(x.end, y.end) + math.lcm(len(x.right), len(y.right))
    return coordinates(x, lo, hi) == coordinates(y, lo, hi)


def redescribe(x, pad_left, pad_right, reps_left, reps_right):
    """The same sequence as x, written with a longer window and tail words
    repeated and re-anchored at the new window edges."""
    lo, hi = x.start - pad_left, x.end + pad_right
    left = coordinates(x, lo - len(x.left) * reps_left, lo)
    right = coordinates(x, hi, hi + len(x.right) * reps_right)
    return BitSequence(coordinates(x, lo, hi), lo, left, right)


_bits = st.integers(0, 1)
_words = st.lists(_bits, min_size=1, max_size=4).map(tuple)
_sequences = st.builds(BitSequence, st.lists(_bits, max_size=5).map(tuple),
                       st.integers(-4, 4), _words, _words)
_property = settings(max_examples=300, derandomize=True, database=None, deadline=None)


@_property
@given(_sequences, _sequences)
def test_equality_is_equality_of_descriptions(x, y):
    same = same_coordinates(x, y)
    assert (key(x) == key(y)) == same
    assert (x == y) == same
    if same:
        assert hash(x) == hash(y)


@_property
@given(_sequences, st.integers(0, 5), st.integers(0, 5), st.integers(1, 3),
       st.integers(1, 3), st.integers(-40, 40))
def test_normal_form_ignores_the_description(x, pad_left, pad_right, reps_left,
                                             reps_right, n):
    y = redescribe(x, pad_left, pad_right, reps_left, reps_right)
    assert same_coordinates(x, y)
    assert key(y) == key(x) and y == x and hash(y) == hash(x)
    assert key(x.shifted(n).shifted(-n)) == key(x)
    assert key(redescribe(x.shifted(n), pad_right, pad_left, 1, 2)) == key(x.shifted(n))


@st.composite
def _descriptions(draw, symbols):
    """(window, start, left, right) over ``symbols``: tails short, proper
    powers, of composite lengths up to 2100, or powers with one symbol
    changed; windows that run several whole tail periods into either tail
    around a core that may be empty."""
    rng = random.Random(draw(st.integers(0, 2 ** 32)))
    word = lambda n: tuple(rng.choice(symbols) for _ in range(n))

    def tail():
        kind = draw(st.sampled_from(("short", "power", "composite", "near power")))
        if kind == "short":
            return word(draw(st.integers(1, 5)))
        if kind == "composite":
            return word(draw(st.sampled_from((12, 360, 1024, 1047, 1050, 1080, 2100))))
        root = word(draw(st.integers(1, 12)))
        w = list(root * draw(st.sampled_from((1, 2, 3, 6, 30, 90, 175))))
        if kind == "near power":
            w[rng.randrange(len(w))] = rng.choice(symbols)
        return tuple(w)

    left, right = tail(), tail()
    a = len(left) * draw(st.integers(0, 3)) + draw(st.integers(0, 4))
    b = len(right) * draw(st.integers(0, 3)) + draw(st.integers(0, 4))
    head, tiled = (left * (a // len(left) + 1))[:a], right * (b // len(right) + 1)
    foot = tiled[len(tiled) - b:]
    window = head + word(draw(st.sampled_from((0, 0, 1, 3, 40)))) + foot
    return window, draw(st.integers(-2 ** 70, 2 ** 70)), left, right


def _empty_windows(symbols):
    """Empty windows between short tails, which slide to where they differ."""
    word = st.lists(st.sampled_from(symbols), min_size=1, max_size=6).map(tuple)
    return st.tuples(st.just(()), st.integers(-9, 9), word, word)


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(st.one_of(*(strategy(symbols).map(lambda d, cls=cls: (cls, d))
                   for strategy in (_descriptions, _empty_windows)
                   for cls, symbols in ((BitSequence, (0, 1)), (SymbolSequence, ("a", "b", "c"))))),
       st.integers(-3000, 3000))
def test_normal_form_matches_the_symbol_by_symbol_oracle(case, n):
    cls, description = case
    x = cls(*description)
    assert (x.window, x.start, x.left, x.right) == normal_form(*description)
    y = x.shifted(n)
    assert (y.window, y.start, y.left, y.right) == normal_form(x.window, x.start - n, x.left, x.right)


def seq_distance_oracle(x, y):
    """seq_distance as it was before byte rows, copied: both sequences as
    tuples on -r..r, scanned outward from 0 symbol by symbol.  Its 2^-m
    underflows to 0.0 past m = 1074."""
    r = compare_radius(x, y)
    u, v = x.segment(-r, r + 1), y.segment(-r, r + 1)
    m = next((m for m in range(r + 1) if u[r + m] != v[r + m] or u[r - m] != v[r - m]), None)
    return 0.0 if m is None else math.ldexp(1.0, -m)


_long_windows = st.one_of(st.binary(max_size=8), st.binary(min_size=200, max_size=625)).map(
    lambda b: tuple((c >> k) & 1 for c in b for k in range(8)))
_tails = st.lists(_bits, min_size=1, max_size=7).map(tuple)


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(_long_windows, st.integers(-6000, 6000), _tails, _tails,
       st.lists(st.integers(0, 10 ** 6), max_size=3), st.integers(-2, 2),
       st.one_of(st.none(), _tails), st.integers(-9000, 9000), st.integers(0, 64))
def test_seq_distance_matches_the_symbol_scan_oracle_on_long_windows(
        window, start, left, right, flips, move, other_tail, lo, span):
    """Windows up to 5,000 bits: y is x with a few window bits flipped, its
    start moved, or a tail replaced.  Equal doubles where the first
    difference lies within |m| <= 1074, and 2^-1074 past it; the byte rows
    read the same bits as ``segment``."""
    x = BitSequence(window, start, left, right)
    w = list(window)
    for i in flips:
        if w:
            w[i % len(w)] ^= 1
    y = BitSequence(tuple(w), start + move, left, other_tail or right)
    want = seq_distance_oracle(x, y)
    if want == 0.0 and x != y:
        want = math.ulp(0.0)
    assert seq_distance(x, y).hex() == seq_distance(y, x).hex() == want.hex()
    assert x._row(lo, lo + span) == bytes(x.segment(lo, lo + span))
