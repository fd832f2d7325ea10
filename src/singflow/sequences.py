"""Finitely described bi-infinite sequences and the binary shift.

A sequence is stored as an explicit window of symbols plus two periodic
tail words.  The window occupies coordinates ``start .. start+len(window)-1``;
the left tail word tiles leftward (its last symbol sits at ``start-1``), the
right tail word tiles rightward (its first symbol sits just past the window).
Everything of interest here (blocks, periodic points, the all-zero sequence)
is of this shape, so equality, shifts and coordinate lookups are exact.
"""

from __future__ import annotations

import math
import operator
import re
from dataclasses import dataclass

INF = math.inf

# Distances larger than this are reported as infinite.
MAX_GAP = 2 ** 62
_TINY = math.ulp(0.0)   # 2^-1074, the floor of a distance 2^-m: only equal sequences are at 0.0


class SequenceFormatError(ValueError):
    """Raised for malformed textual sequence literals."""


def _primitive(word):
    """Smallest word whose repetition equals ``word``.  A word of length n
    is a proper power iff it has period n/q for a prime q dividing n, so
    one slice comparison per prime factor of n finds its root."""
    n = m = len(word)  # n: the root's length so far; m: the factors left to try
    q = 2
    while m > 1:
        if q * q > m:
            q = m
        if m % q:
            q += 1
        else:
            m //= q
            if word[n // q:n] == word[:n - n // q]:
                n //= q
    return word[:n]


def _agree(a, b) -> int:
    """Common prefix length of a and the longer b, whose first symbols agree,
    by slice comparisons that double after a match and halve after a miss."""
    m, i, k = len(a), 1, 1
    while i + k <= m and a[i:i + k] == b[i:i + k]:
        i, k = i + k, 2 * k
    while k > 1:
        k //= 2
        if i + k <= m and a[i:i + k] == b[i:i + k]:
            i += k
    return i


def _last_true(ok, lo: int, hi: int, tol: int = 1) -> int:
    """The largest n in lo..hi with ok(n), to within tol: an n with ok(n), and
    n = hi or not ok(n + tol), given lo >= 1, ok(lo), and ok true up to some n
    and false past it.  hi if ok(hi), else found by galloping up from lo by
    factors of 16, then bisection (Bentley and Yao's unbounded search)."""
    if ok(hi):
        return hi
    while hi - lo > tol:  # ok(lo), not ok(hi)
        mid = min(16 * lo, (lo + hi) // 2)
        lo, hi = (mid, hi) if ok(mid) else (lo, mid)
    return lo


def _normal_form(window, start: int, left, right) -> tuple:
    """(window, start, left, right) in normal form, the words all bytes or
    all tuples: tails reduced to their roots, window symbols a tail predicts
    absorbed into it (rotating it to stay anchored at the window edge), and
    an empty window slid left while the right tiling predicts the symbol
    before it.  By Fine-Wilf, tilings of periods p and q that agree on p + q
    symbols agree everywhere: one periodic word, anchored at coordinate 0."""
    left, right = _primitive(left), _primitive(right)
    if not left or not right:
        raise ValueError("tail words must be nonempty")
    p, q = len(left), len(right)
    if window and window[0] == left[0]:
        i = _agree(window, left * (len(window) // p + 1))
        window, start, k = window[i:], start + i, i % p
        left = left[k:] + left[:k]
    if window and window[-1] == right[-1]:
        j = _agree(window[::-1], right[::-1] * (len(window) // q + 1))
        window, k = window[:len(window) - j], -j % q
        right = right[k:] + right[:k]
    if not window and left[-1] == right[-1]:
        s = _agree((left[::-1] * (q // p + 2))[:p + q], right[::-1] * (p // q + 2))
        if s == p + q:
            k = -start % q
            return window, 0, right[k:] + right[:k], right[k:] + right[:k]
        start, k, j = start - s, -s % p, -s % q
        left, right = left[k:] + left[:k], right[j:] + right[:j]
    return window, start, left, right


def _tile(word, i: int, j: int):
    """word[k % len(word)] for k in i .. j-1, a word of its type; empty if j <= i."""
    if j <= i:
        return word[:0]
    k = i % len(word)
    return (word * ((j - i + k) // len(word) + 1))[k:k + j - i]


def _segment(window, start: int, left, right, a: int, b: int):
    """Symbols at coordinates a .. b-1 of a description, in its words' type."""
    end = start + len(window)
    return (_tile(left, a - start, min(b, start) - start)
            + window[max(a, start) - start:max(min(b, end) - start, 0)]
            + _tile(right, max(a, end) - end, b - end))


class SymbolSequence:
    """Bi-infinite sequence over an arbitrary alphabet, eventually periodic
    on both sides.

    Construction canonicalizes (``_normal_form``): tail words are reduced
    to their primitive root and window symbols already described by a tail
    are absorbed into it, so the window cannot be shortened without changing
    the sequence.  An empty window sits at the leftmost coordinate from
    which the right tail repeats.  The representation is therefore unique:
    equality and hashing compare descriptions.  It is found by slice
    comparisons, O(log n) for n absorbed symbols and one per prime factor of
    a tail's length: linear time in the description, spent in C.  ``start``
    is any integer (``operator.index``).  Values are immutable.
    """

    __slots__ = ("window", "start", "left", "right")

    def __init__(self, window=(), start=0, left=(0,), right=(0,)):
        window, left, right = self._words(window, left, right)
        self._store(*_normal_form(window, operator.index(start), left, right))

    @staticmethod
    def _words(window, left, right):
        """The three words of a description, in the type ``_normal_form`` reads."""
        return tuple(window), tuple(left), tuple(right)

    def _store(self, window, start, left, right):
        set_ = object.__setattr__
        set_(self, "window", window)
        set_(self, "start", start)
        set_(self, "left", left)
        set_(self, "right", right)

    def __setattr__(self, name, value):
        raise AttributeError("sequences are immutable")

    @property
    def end(self) -> int:
        return self.start + len(self.window)

    def at(self, n: int):
        """Symbol at coordinate n."""
        return self.segment(n, n + 1)[0]

    def segment(self, a: int, b: int) -> tuple:
        """Symbols at coordinates a .. b-1, tiled from the description."""
        return _segment(self.window, self.start, self.left, self.right, a, b)

    def shifted(self, n: int) -> "SymbolSequence":
        """Sequence y with y_m = x_{m+n}; O(1) but for an empty window, which
        the constructor re-anchors: the normal form commutes with the shift."""
        n = operator.index(n)
        if not self.window:
            return type(self)((), self.start - n, self.left, self.right)
        y = object.__new__(type(self))
        for name in (name for c in type(self).__mro__[:-1] for name in c.__slots__):
            object.__setattr__(y, name, getattr(self, name))
        object.__setattr__(y, "start", self.start - n)
        return y

    def __eq__(self, other):
        if self is other:
            return True
        if not isinstance(other, SymbolSequence):
            return NotImplemented
        return (self.start, self.window, self.left, self.right) \
            == (other.start, other.window, other.left, other.right)

    def __hash__(self):
        return hash((self.start, self.window, self.left, self.right))

    def __repr__(self):
        return (f"{type(self).__name__}(window={self.window!r}, "
                f"start={self.start}, left={self.left!r}, right={self.right!r})")


class BitSequence(SymbolSequence):
    """Element of the binary full shift in finite description.

    The all-zero sequence (empty window, both tails ``0``) is the unique
    representation of the shift's fixed point.
    """

    __slots__ = ("_wbytes", "_left2", "_right2")

    @staticmethod
    def _words(window, left, right):
        """The three words as bytes, each checked to hold 0/1 symbols."""
        try:
            words = _bit_row(window), _bit_row(left), _bit_row(right)
        except (TypeError, ValueError):  # a non-integer, or an integer past 0..255
            raise ValueError("bit sequences hold 0/1 symbols") from None
        if b"".join(words).translate(None, b"\x00\x01"):
            raise ValueError("bit sequences hold 0/1 symbols")
        return words

    def _store(self, window, start, left, right):
        """Keep the byte rows of the normal form beside its public tuples."""
        set_ = object.__setattr__
        set_(self, "_wbytes", window)
        set_(self, "_left2", left * 2)
        set_(self, "_right2", right * 2)
        SymbolSequence._store(self, tuple(window), start, tuple(left), tuple(right))

    @classmethod
    def zero(cls) -> "BitSequence":
        return cls()

    @classmethod
    def from_ones(cls, ones, left=(0,), right=(0,)) -> "BitSequence":
        """Sequence with 1s exactly at the given window coordinates."""
        positions = set(ones)
        if not positions:
            return cls(left=left, right=right)
        lo = min(positions)
        window = bytearray(max(positions) - lo + 1)
        for n in positions:
            window[n - lo] = 1
        return cls(bytes(window), lo, left, right)

    @classmethod
    def periodic(cls, word) -> "BitSequence":
        """Fully periodic sequence ...www... with word[0] at coordinate 0."""
        word = tuple(word)
        if not word:
            raise ValueError("period word must be nonempty")
        return cls((), 0, word, word)

    def is_zero(self) -> bool:
        return not self.window and self.left == (0,) and self.right == (0,)

    def ones_around(self, pos: int):
        """(a, b): the last 1 at or before ``pos`` and the first 1 after it,
        each None if there is none.  The window is searched with bytes
        find/rfind, a periodic tail within one period of its word."""
        s, e = self.start, self.end
        a = _tail_one(self._right2, e, pos, False) if pos >= e else None
        if a is None or a < e:
            h = self._wbytes.rfind(1, 0, max(min(pos + 1, e) - s, 0))
            a = s + h if h >= 0 else _tail_one(self._left2, s, min(pos, s - 1), False)
        b = _tail_one(self._left2, s, pos + 1, True) if pos + 1 < s else None
        if b is None or b >= s:
            h = self._wbytes.find(1, max(pos + 1 - s, 0))
            b = s + h if h >= 0 else _tail_one(self._right2, e, max(pos + 1, e), True)
        return a, b

    def _row(self, a: int, b: int) -> bytes:
        """``segment(a, b)`` as bytes, tiled from the byte rows."""
        return _segment(self._wbytes, self.start, self._left2, self._right2, a, b)

    def gap_pair_at(self, pos: int) -> "GapPair":
        """Gap coordinates of the shifted sequence with origin at ``pos``."""
        a, b = self.ones_around(pos)
        km = INF if a is None or pos - a > MAX_GAP else pos - a
        kp = INF if b is None or b - pos > MAX_GAP else b - pos
        return GapPair(km, kp)


def _bit_row(word) -> bytes:
    """``word`` as bytes, read symbol by symbol, never as an int array's buffer."""
    return word if type(word) is bytes else bytes(tuple(word))


def _tail_one(word2: bytes, anchor: int, p: int, after: bool):
    """The 1 nearest to coordinate p, at or after it if ``after``, else at
    or before it, in the tiling of a word (given doubled) whose first symbol
    sits at ``anchor``; None if the word has no 1."""
    n = len(word2) // 2
    i = (p - anchor) % n
    if after:
        h = word2.find(1, i, i + n)
        return None if h < 0 else p + h - i
    h = word2.rfind(1, i + 1, i + n + 1)
    return None if h < 0 else p + h - i - n


@dataclass(frozen=True)
class GapPair:
    """Distances from the origin to the nearest 1 in the past (index <= 0,
    inclusive) and in the strict future.  Both infinite exactly for the
    all-zero sequence."""

    k_minus: object  # nonnegative int, or math.inf
    k_plus: object   # positive int, or math.inf

    def __post_init__(self):
        if self.k_minus != INF and (self.k_minus < 0):
            raise ValueError("k_minus must be >= 0")
        if self.k_plus != INF and (self.k_plus < 1):
            raise ValueError("k_plus must be >= 1")

    def is_singular(self) -> bool:
        return self.k_minus == INF and self.k_plus == INF


def shift(x: SymbolSequence, n: int) -> SymbolSequence:
    """n-fold shift: coordinate m of the result is coordinate m+n of x."""
    return x.shifted(n)


def gap_pair(x: BitSequence) -> GapPair:
    return x.gap_pair_at(0)


def compare_radius(x: SymbolSequence, y: SymbolSequence, reach: int = 0) -> int:
    """A radius r such that coordinates -r..r decide equality of, and the
    distance between, x.shifted(i) and y.shifted(j) for |i|, |j| <= reach:
    past the outermost window edges both sides repeat with a common period."""
    lo = min(x.start, y.start) - reach - math.lcm(len(x.left), len(y.left))
    hi = max(x.end, y.end) + reach + math.lcm(len(x.right), len(y.right))
    return max(-lo, hi)


def seq_distance(x: BitSequence, y: BitSequence) -> float:
    """2^(-m) where m is the smallest |n| at which x and y differ, floored at
    2^-1074 so that only equal sequences are at 0.0: the shorter common prefix
    of their byte rows' halves read outward from 0, by galloping (``_agree``)."""
    r = compare_radius(x, y)
    u, v = x._row(-r, r + 1), y._row(-r, r + 1)
    m = 0 if u[r] != v[r] else min(_agree(u[r:], v[r:]), _agree(u[r::-1], v[r::-1]))
    return 0.0 if m > r else max(math.ldexp(1.0, -m), _TINY)


# ---------------------------------------------------------------------------
# Textual literals:  LEFT|WORD|RIGHT[@START]
#
#   LEFT, RIGHT  ::=  "0*"  |  "(" bits ")*"
#   WORD         ::=  bits (possibly empty; spaces ignored)
#   START        ::=  integer coordinate of WORD's first bit (default 0)
#
# Examples:  "0*|1|0*"        a single 1 at the origin
#            "0*|1001|0*@-1"  the word 1001 on coordinates -1..2
#            "(10)*||(10)*"   the 2-periodic sequence with 1s at even indices

def _parse_bits(s: str) -> tuple:
    bits = []
    for ch in s:
        if ch in " \t":
            continue
        if ch not in "01":
            raise SequenceFormatError(f"invalid bit {ch!r}")
        bits.append(int(ch))
    return tuple(bits)


def _parse_tail(s: str) -> tuple:
    s = s.strip()
    if s == "0*":
        return (0,)
    if s.startswith("(") and s.endswith(")*"):
        bits = _parse_bits(s[1:-2])
        if not bits:
            raise SequenceFormatError("empty periodic tail word")
        return bits
    raise SequenceFormatError(f"tail must be 0* or (w)*, got {s!r}")


def parse_sequence_literal(text: str) -> BitSequence:
    body = text.strip()
    start = 0
    if "@" in body:
        body, _, tail = body.rpartition("@")
        if not re.fullmatch(r"\s*[+-]?[0-9]+\s*", tail):
            raise SequenceFormatError(f"START must be an integer, got {tail!r}")
        try:
            start = int(tail)
        except ValueError as exc:  # past Python's limit on the digits of an int string
            raise SequenceFormatError(f"START has too many digits: {exc}") from None
    parts = body.split("|")
    if len(parts) != 3:
        raise SequenceFormatError("literal must have the form LEFT|WORD|RIGHT[@START]")
    return BitSequence(_parse_bits(parts[1]), start, _parse_tail(parts[0]), _parse_tail(parts[2]))


def format_sequence_literal(x: BitSequence) -> str:
    def tail(w):
        return "0*" if w == (0,) else "(" + "".join(map(str, w)) + ")*"

    word = "".join(map(str, x.window))
    lit = f"{tail(x.left)}|{word}|{tail(x.right)}"
    if x.start != 0:
        lit += f"@{x.start}"
    return lit
