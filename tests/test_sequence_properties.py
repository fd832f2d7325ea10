"""Properties of the sequence normal form, checked with hypothesis: the
normal form is unique, so equal sequences have equal descriptions."""
import math
import random

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from singflow import BitSequence, SymbolSequence  # noqa: E402
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
