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
from dataclasses import dataclass

INF = math.inf

# Distances larger than this are reported as infinite.
MAX_GAP = 2 ** 62


class SequenceFormatError(ValueError):
    """Raised for malformed textual sequence literals."""


def _primitive(word: tuple) -> tuple:
    """Smallest word whose repetition equals ``word``."""
    n = len(word)
    for per in range(1, n + 1):
        if n % per == 0 and word == word[:per] * (n // per):
            return word[:per]
    return word


def _tile(word: tuple, i: int, j: int) -> tuple:
    """word[k % len(word)] for k in i .. j-1; empty if j <= i."""
    k = i % len(word)
    return (word * ((j - i + k) // len(word) + 1))[k:k + j - i]


class SymbolSequence:
    """Bi-infinite sequence over an arbitrary alphabet, eventually periodic
    on both sides.

    Construction canonicalizes: tail words are reduced to their primitive
    root and window symbols already described by a tail are absorbed into
    it, so the window cannot be shortened without changing the sequence.
    An empty window sits at the leftmost coordinate from which the right
    tail repeats.  The representation is therefore unique: equality and
    hashing compare descriptions.  Values are immutable after construction.
    """

    __slots__ = ("window", "start", "left", "right")

    def __init__(self, window=(), start=0, left=(0,), right=(0,)):
        window = tuple(window)
        left = _primitive(tuple(left))
        right = _primitive(tuple(right))
        if not left or not right:
            raise ValueError("tail words must be nonempty")
        # Absorb window symbols the tails already predict.  Absorbing i
        # symbols rotates the adjacent tail word by i so its anchoring at the
        # window edge stays consistent; count them first, then cut once.
        n, i = len(left), 0
        while i < len(window) and window[i] == left[i % n]:
            i += 1
        if i:
            window, start = window[i:], start + i
            left = left[i % n:] + left[:i % n]
        n, j, m = len(right), 0, len(window)
        while j < m and window[m - 1 - j] == right[-1 - j % n]:
            j += 1
        if j:
            window = window[:m - j]
            right = right[n - j % n:] + right[:n - j % n]
        if not window:
            start, left, right = self._normalize_empty(start, left, right)
        object.__setattr__(self, "window", window)
        object.__setattr__(self, "start", start)
        object.__setattr__(self, "left", left)
        object.__setattr__(self, "right", right)

    def __setattr__(self, name, value):
        raise AttributeError("sequences are immutable")

    @staticmethod
    def _normalize_empty(start, left, right):
        """Slide the start left while the right tiling still predicts the
        symbol before it, so the representation is unique.  Sliding a full
        common period means the two tilings agree everywhere: the sequence
        is one periodic word, anchored at coordinate 0."""
        for _ in range(math.lcm(len(left), len(right))):
            if right[-1] != left[-1]:
                return start, left, right
            start -= 1
            left, right = left[-1:] + left[:-1], right[-1:] + right[:-1]
        k = -start % len(right)
        word = right[k:] + right[:k]
        return 0, word, word

    @property
    def end(self) -> int:
        return self.start + len(self.window)

    def at(self, n: int):
        """Symbol at coordinate n."""
        if self.start <= n < self.end:
            return self.window[n - self.start]
        if n < self.start:
            w = self.left
            j = self.start - 1 - n
            return w[len(w) - 1 - (j % len(w))]
        w = self.right
        return w[(n - self.end) % len(w)]

    def segment(self, a: int, b: int) -> tuple:
        """Symbols at coordinates a .. b-1, tiled from the description."""
        s, e = self.start, self.end
        return (_tile(self.left, a - s, min(b, s) - s)
                + self.window[max(a, s) - s:max(min(b, e) - s, 0)]
                + _tile(self.right, max(a, e) - e, b - e))

    def shifted(self, n: int) -> "SymbolSequence":
        """Sequence y with y_m = x_{m+n}."""
        return type(self)(self.window, self.start - n, self.left, self.right)

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

    def __init__(self, window=(), start=0, left=(0,), right=(0,)):
        super().__init__(window, start, left, right)
        if not set(self.window) <= {0, 1} or not set(self.left) <= {0, 1} \
                or not set(self.right) <= {0, 1}:
            raise ValueError("bit sequences hold 0/1 symbols")
        object.__setattr__(self, "_wbytes", bytes(self.window))
        object.__setattr__(self, "_left2", bytes(self.left * 2))
        object.__setattr__(self, "_right2", bytes(self.right * 2))

    @classmethod
    def zero(cls) -> "BitSequence":
        return cls()

    @classmethod
    def from_ones(cls, ones, left=(0,), right=(0,)) -> "BitSequence":
        """Sequence with 1s exactly at the given window coordinates."""
        positions = set(ones)
        if not positions:
            return cls(left=left, right=right)
        lo, hi = min(positions), max(positions)
        window = tuple(1 if n in positions else 0 for n in range(lo, hi + 1))
        return cls(window, lo, left, right)

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

    def gap_pair_at(self, pos: int) -> "GapPair":
        """Gap coordinates of the shifted sequence with origin at ``pos``."""
        a, b = self.ones_around(pos)
        km = INF if a is None or pos - a > MAX_GAP else pos - a
        kp = INF if b is None or b - pos > MAX_GAP else b - pos
        return GapPair(km, kp)


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
    """2^(-m) where m is the smallest |n| at which x and y differ; 0 if equal.
    Both are materialised once on -r..r and scanned outward from 0."""
    r = compare_radius(x, y)
    u, v = x.segment(-r, r + 1), y.segment(-r, r + 1)
    m = next((m for m in range(r + 1) if u[r + m] != v[r + m] or u[r - m] != v[r - m]), None)
    return 0.0 if m is None else math.ldexp(1.0, -m)


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
        try:
            start = int(tail.strip())
        except ValueError:
            raise SequenceFormatError(f"START must be an integer, got {tail!r}") from None
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
