"""Properties of the sequence normal form, checked with hypothesis: the
normal form is unique, so equal sequences have equal descriptions."""
import math

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from singflow import BitSequence  # noqa: E402


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
