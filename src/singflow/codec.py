"""Accelerated shift over the binary full shift and its block codec.

The gap coordinates (k-, k+) of a point split into four regions driving a
variable step length L; the accelerated map S shifts by L.  Crossing one
block 1 0^(gap-1) 1 between consecutive 1s, the S-orbit makes a first-return
pattern: one expanding phase where k- doubles, a single visit to the
contracting-entry region R3, then a halving phase where k+ contracts, whose
parities are recorded as bits.  Each block maps to a word over a 24-letter
alphabet from which the block, and the position inside it, can be recovered.

Two boundary conventions for the R2/R3 split are supported.  The default
("adjusted") puts k- = k+/3 into R3, which makes the first-return structure
uniform over all gaps >= 3.  Under the verbatim convention ("paper") every
gap that is a power of two >= 4 skips R3 entirely and has no code word; the
smallest instance is gap 4.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from itertools import chain

import numpy as np

from .roofs import RoofFunction, roof_between
from .sequences import INF, BitSequence, GapPair, SymbolSequence, gap_pair

ADJUSTED = "adjusted"
PAPER = "paper"

_Z_VALUES = (0, 1, 2, 3, 4, "x")

_STEP_CAP = 10 ** 7


class RegionDomainError(ValueError):
    """The accelerated shift is undefined at the all-zero sequence."""


class FirstReturnStructureError(ValueError):
    """No code word across a block: its orbit skips R3, leaves z1 outside 0..4 or overshoots."""


class DecodeError(ValueError):
    """Malformed code word; ``constraint`` names the first violated rule."""

    def __init__(self, constraint: str, message: str):
        super().__init__(f"{constraint}: {message}")
        self.constraint = constraint


class AmbiguousContextError(ValueError):
    """Not enough letters to apply any position-recovery rule."""


class CodecDomainError(ValueError):
    """Sequence outside the block-code domain."""


def _check_boundary(boundary: str) -> bool:
    if boundary not in (ADJUSTED, PAPER):
        raise ValueError(f"boundary must be {ADJUSTED!r} or {PAPER!r}")
    return boundary == ADJUSTED


def ceil_sqrt(n: int) -> int:
    """Exact ceiling of sqrt(n) for nonnegative integers."""
    if n < 0:
        raise ValueError("negative argument")
    return 0 if n == 0 else 1 + math.isqrt(n - 1)


def ceil_sqrt_array(v):
    """Exact ceil(sqrt(v)) for an int64 array with 0 <= v < 2^62: the float
    root is within 2^-21 of the true one there, so one correction each way
    suffices.  An entry outside that range raises ValueError."""
    v = np.asarray(v, dtype=np.int64)
    if ((v < 0) | (v >= 1 << 62)).any():
        raise ValueError("ceil_sqrt_array needs 0 <= v < 2^62")
    s = np.sqrt(v.astype(np.float64)).astype(np.int64)
    s -= s * s > v
    s += (s + 1) * (s + 1) <= v
    return s + (s * s < v)


# ---------------------------------------------------------------------------
# Regions and the accelerated step

def _region_step(km, kp, adjusted: bool) -> tuple:
    """Region 1..4 and step length of the accelerated shift at a gap pair
    that is not the singular one: R1 (k- = 0) steps 1; R4 (0 < k+ <= k-)
    steps ceil(k+/2); between them k- < k+ splits at k- vs k+/3, R2 stepping
    k- and R3 the contracting formula.  The boundary k- = k+/3 goes to R3
    under the adjusted convention and to R2 under the verbatim one."""
    if km == 0:
        return 1, 1
    if kp <= km:
        return 4, (kp + 1) // 2
    if (3 * km < kp) if adjusted else (3 * km <= kp):
        return 2, km
    return 3, _contracting_steps(km, kp)


def _contracting_steps(km, kp):
    """The R3 step k+ - floor((k- + k+)^2 / (8 k-)), on ints or int64 arrays."""
    return kp - (km + kp) ** 2 // (8 * km)


def _region_step_at(k: GapPair, boundary: str) -> tuple:
    """``_region_step`` at a gap pair, which must not be the singular one."""
    adjusted = _check_boundary(boundary)
    if k.is_singular():
        raise RegionDomainError("the accelerated shift is undefined at the zero sequence")
    return _region_step(k.k_minus, k.k_plus, adjusted)


def region_of(k: GapPair, boundary: str = ADJUSTED) -> int:
    """Region index 1..4 of a gap pair (see ``_region_step``)."""
    return _region_step_at(k, boundary)[0]


def step_length(k: GapPair, boundary: str = ADJUSTED) -> int:
    """Step of the accelerated shift: 1 on R1, k- on R2, the contracting
    formula on R3, ceil(k+/2) on R4."""
    return _region_step_at(k, boundary)[1]


def region_steps(km, kp, boundary: str = ADJUSTED) -> tuple:
    """Batch form of the region/step law on integer arrays of finite gap
    pairs (k- >= 0, k+ >= 0): returns int64 arrays (region, step).  A pair
    with k+ = 0 and k- > 0 lands in R4 with step 0, so a walk that has
    reached the end of its block stays there."""
    adjusted = _check_boundary(boundary)
    km, kp = np.broadcast_arrays(np.asarray(km, dtype=np.int64), np.asarray(kp, dtype=np.int64))
    expanding = 3 * km < kp if adjusted else 3 * km <= kp
    region = np.where(km == 0, 1, np.where(kp <= km, 4, np.where(expanding, 2, 3)))
    step = np.where(region == 1, 1, np.where(region == 2, km, (kp + 1) // 2))
    r3 = region == 3  # the contracting formula, only where it applies (k- > 0)
    step[r3] = _contracting_steps(km[r3], kp[r3])
    return region, step


def accel_step(x: BitSequence, boundary: str = ADJUSTED) -> BitSequence:
    """One step of the accelerated shift; fixes the all-zero sequence."""
    if x.is_zero():
        return x
    return x.shifted(step_length(gap_pair(x), boundary))


# ---------------------------------------------------------------------------
# First-return profiles and the block code

@dataclass(frozen=True)
class CodeLetter:
    """Letter y^z with y in 1..4 and z in {0,1,2,3,4,x}."""

    y: int
    z: object

    def __post_init__(self):
        if self.y not in (1, 2, 3, 4):
            raise ValueError(f"y must be 1..4, got {self.y!r}")
        if self.z not in _Z_VALUES:
            raise ValueError(f"z must be one of {_Z_VALUES}, got {self.z!r}")

    def __str__(self):
        return f"{self.y}^{self.z}"


ALPHABET = tuple(CodeLetter(y, z) for y in (1, 2, 3, 4) for z in _Z_VALUES)

_LETTERS = {(l.y, l.z): l for l in ALPHABET}


def letter(y: int, z) -> CodeLetter:
    """Interned alphabet letter (the alphabet has 24 of them)."""
    try:
        return _LETTERS[(y, z)]
    except KeyError:
        raise ValueError(f"no letter {y}^{z} in the alphabet") from None


ONE_X = letter(1, "x")


def parse_letter(text: str) -> CodeLetter:
    y, sep, z = text.strip().partition("^")
    if not sep or len(y) != 1 or not "0" <= y <= "9":
        raise DecodeError("letter-format", f"expected y^z, got {text!r}")
    zv = z if z == "x" else (int(z) if len(z) == 1 and "0" <= z <= "9" else None)
    if zv is None:
        raise DecodeError("letter-format", f"bad z coordinate in {text!r}")
    try:
        return letter(int(y), zv)
    except ValueError as exc:
        raise DecodeError("letter-alphabet", str(exc)) from exc


def parse_word(text: str) -> tuple:
    return tuple(parse_letter(tok) for tok in text.split())


def render_word(word) -> str:
    return " ".join(str(l) for l in word)


@dataclass(frozen=True)
class BlockProfile:
    """Return data of the S-orbit across one block 1 0^(gap-1) 1.

    ``offsets[q]`` is the origin position after q steps (offsets[p] = gap),
    ``r`` the index of the unique R3 visit (None when there is none),
    ``epsilon_bits`` the halving parities for r < q <= p-2, and ``word``
    the code word (None when the structure is broken).
    """

    gap: int
    p: int
    r: int | None
    epsilon_bits: dict
    word: tuple | None
    offsets: tuple
    regions: tuple


def return_profile(gap: int, boundary: str = ADJUSTED) -> BlockProfile:
    """Walk the S-orbit across one block, where at offset o the gap pair is
    (o, gap-o), and collect its return data."""
    if not isinstance(gap, (int, np.integer)) or gap < 1:
        raise ValueError("gap must be a positive integer")
    adjusted = _check_boundary(boundary)
    offsets, regions = [], []
    o = 0
    while o < gap:
        reg, step = _region_step(o, gap - o, adjusted)
        offsets.append(o)
        regions.append(reg)
        o += step
    if o != gap:
        raise FirstReturnStructureError(f"orbit overshot the block: gap={gap}")
    p = len(offsets)
    r = regions.index(3) if 3 in regions else None
    eps = {}
    if gap <= 2:
        word = tuple(_LETTERS[y, "x"] for y in regions)
    elif r is None:
        word = None
    else:
        eps = {q: (gap - offsets[q]) & 1 for q in range(r + 1, p - 1)}
        z1 = gap - ceil_sqrt(8 * (1 << (r - 1)) * (gap - offsets[r + 1]))
        if not 0 <= z1 <= 4:
            raise FirstReturnStructureError(f"z1 out of range for gap {gap}: {z1}")
        # z1 leads; the halving parities fill every other slot counted back
        # from the end, the latest parity in the last slot
        zs = [z1] + ["x"] * (p - 1)
        zs[2 * r + 5 - p::2] = eps.values()
        word = tuple(map(_LETTERS.__getitem__, zip(regions, zs)))
    offsets.append(gap)
    return BlockProfile(gap, p, r, eps, word, tuple(offsets), tuple(regions))


# the widest walk across a gap below 2^30 (r <= 29, then 29 halvings): 8 k- k+ < 2^60
_ROW_MAX = 59


def _walks(gaps, boundary: str) -> tuple:
    """(offsets, regions, p, r, z1): ``return_profiles`` without the words,
    with each walk's length p and its R3 step r (-1 where it has none)."""
    gaps = np.asarray(gaps, dtype=np.int64)
    if gaps.ndim != 1 or not gaps.size or gaps.min() < 1 or gaps.max() >= 1 << 30:
        raise ValueError("gaps must be a nonempty sequence of integers in 1..2^30-1")
    o = np.zeros_like(gaps)
    offsets, regions = [], []
    while (live := o < gaps).any():
        region, step = region_steps(o, gaps - o, boundary)
        offsets.append(o)
        regions.append(np.where(live, region, 0))
        o = o + step
    if (o != gaps).any():
        raise FirstReturnStructureError(f"orbit overshot the block: gap={gaps[o != gaps][0]}")
    offsets.append(o)
    offsets, regions = np.stack(offsets, axis=1), np.stack(regions, axis=1)
    is3, rows = regions == 3, np.arange(gaps.size)
    p, r = np.count_nonzero(regions, axis=1), np.where(is3.any(axis=1), is3.argmax(axis=1), -1)
    # z1 = gap - ceil(sqrt(8 k- k+)) at the step after the R3 visit r, where k- = 2^(r-1)
    z1 = gaps - ceil_sqrt_array(8 * (1 << np.maximum(r - 1, 0)) * (gaps - offsets[rows, r + 1]))
    return offsets, regions, p, r, np.where((r >= 0) & (gaps > 2), z1, 0)


def return_profiles(gaps, boundary: str = ADJUSTED) -> tuple:
    """Walks of the accelerated shift across many blocks, run in lockstep in
    about 2 log2(max gap) steps: the batch twin of ``return_profile``.

    Returns int64 arrays (offsets, regions, z1, words), one row per gap: its
    ``offsets`` padded on the right with the gap, its ``regions`` padded with
    0, its word's z1 (0 where the walk skips R3), and its word as ALPHABET
    indices padded with -1, the rows ``_decode_rows`` inverts.  The word is
    all -1 where ``return_profile`` has none or raises on z1; a walk longer
    than ``_ROW_MAX``, which only a broken region law takes below 2^30, leads
    its word with the non-letter 24.  Gaps stay below 2^30, so that
    8 k- k+ <= 2 gap^2 fits in int64.
    """
    offsets, regions, p, r, z1 = _walks(gaps, boundary)
    gaps, c = offsets[:, -1], np.arange(regions.shape[1])  # each walk ends at its gap
    coded = (r >= 0) & (gaps > 2) & (z1 >= 0) & (z1 <= 4)
    # z indexes (0, 1, 2, 3, 4, x): z1 leads, then x except in every other
    # slot counted back from the end; slot c holds the parity of k+ at step
    # q = (p - 3 + c) / 2 for r < q < p - 1.  Past the walk (region 0) the index is -1.
    two_q = (p - 3)[:, None] + c
    slot = coded[:, None] & (two_q & 1 == 0) & (two_q > 2 * r[:, None]) & (c < p[:, None])
    eps = (gaps[:, None] - np.take_along_axis(offsets, np.clip(two_q >> 1, 0, c.size), 1)) & 1
    z = np.where(slot, eps, np.where(c == 0, np.where(coded, z1, 5)[:, None], 5))
    worded = coded | (gaps <= 2)
    words = np.where(worded[:, None], (regions - 1) * 6 + z, -1)[:, :_ROW_MAX]
    words[worded & (p > _ROW_MAX), 0] = len(ALPHABET)
    return offsets, regions, z1, words


def encode_block(gap: int, boundary: str = ADJUSTED) -> tuple:
    """Code word of the block 1 0^(gap-1)."""
    word = return_profile(gap, boundary).word
    if word is None:
        raise FirstReturnStructureError(
            f"gap {gap} has no R3 visit under the {boundary!r} boundary")
    return word


def _halving_kplus(letters, q: int, e: int) -> int:
    """k+ at the halving step whose letter is letters[q], e steps before the
    last step of its block (where k+ = 1): 2^e plus the parities of k+ at the
    e steps from q on, lowest digit first, read from every other letter
    starting at index q-e+2."""
    kp = 1 << e
    for i in range(e):
        idx = q - e + 2 + 2 * i
        if idx < 0:
            raise AmbiguousContextError(
                "parity bits of the halving phase fall before the context")
        z = letters[idx].z
        if z not in (0, 1):
            raise DecodeError("epsilon-bit", f"expected a parity bit at index {idx}")
        kp += z << i
    return kp


def _code_letters(letters) -> tuple:
    """The letters as a tuple; anything but a code letter raises DecodeError."""
    letters = tuple(letters)
    for l in letters:
        if not isinstance(l, CodeLetter):
            raise DecodeError("letter-alphabet", f"not a code letter: {l!r}")
    return letters


def decode_word(word) -> int:
    """Gap of the block whose code word this is; structural violations raise
    DecodeError naming the broken constraint, and a well-formed word that is
    no gap's code word raises it with ``not-in-image``."""
    letters = _code_letters(word)
    p = len(letters)
    if p == 0:
        raise DecodeError("empty-word", "no letters")
    if p <= 2:
        fixed = (ONE_X, letter(4, "x"))[:p]
        if letters != fixed:
            raise DecodeError("fixed-word-shape", f"length-{p} words must be {render_word(fixed)}")
        return p
    ys = [l.y for l in letters]
    r = ys.count(2) + 1
    expected = [1] + [2] * (r - 1) + [3] + [4] * (p - 1 - r)
    if ys != expected:
        raise DecodeError("y-pattern", f"region order violated: {ys}")
    if p - 1 - r < 1:
        raise DecodeError("y-pattern", "a block word needs a halving phase")
    if 2 * r + 6 - p < 3:
        raise DecodeError("return-time-shape",
                          "too many parity slots for the expanding phase")
    z1 = letters[0].z
    if z1 == "x" or not 0 <= z1 <= 4:
        raise DecodeError("z1-range", f"z1 must be an integer 0..4, got {z1!r}")
    # parity slots: every other position from 2r+6-p up to p, holding the
    # halving parities of k+ at steps r+1, r+2, ... in order
    first = 2 * r + 6 - p
    zs = [l.z for l in letters]
    for pos in range(2, p + 1):
        z = zs[pos - 1]
        if pos >= first and (p - pos) % 2 == 0:
            if z not in (0, 1):
                raise DecodeError("epsilon-bit",
                                  f"slot {pos} must carry a parity bit, got {z!r}")
        elif z != "x":
            raise DecodeError("z-extraneous", f"slot {pos} must be x, got {z!r}")
    km, kp = 1 << (r - 1), _halving_kplus(letters, r + 1, p - r - 2)
    gap = z1 + ceil_sqrt(8 * km * kp)
    if not _in_image(gap, km, kp):
        raise DecodeError("not-in-image", f"the word is not the code word of gap {gap}")
    return gap


def _in_image(gap, km, kp):
    """Whether R3 at k- = km, which forces R2 before it, lands on k+ = kp in
    the block of ``gap`` (ints or int64 arrays).  The adjusted law decides
    it for both boundaries: the verbatim code is the adjusted one without 2^j."""
    return (km < gap - km) & (gap - km <= 3 * km) & (gap * gap // (8 * km) == kp)


def _decode_rows(rows) -> np.ndarray:
    """``decode_word`` on an int64 matrix of words, one per row of ALPHABET
    indices padded on the right with -1 (any other entry before the padding
    is no letter): the int64 array of the decoded gaps, 0 where decode_word raises."""
    rows = np.asarray(rows, dtype=np.int64)
    if rows.ndim != 2 or rows.shape[1] > _ROW_MAX:
        raise ValueError(f"rows must be a matrix at most {_ROW_MAX} letters wide")
    rows = np.pad(rows, ((0, 0), (0, max(0, 3 - rows.shape[1]))), constant_values=-1)
    c, filled = np.arange(rows.shape[1]), rows != -1
    p = np.where(filled.any(1), c.size - filled[:, ::-1].argmax(1), 0)[:, None]
    word = c < p
    y, z = rows // 6 + 1, rows % 6  # z = 5 is x; no y is 1..4 outside the alphabet
    r = np.count_nonzero(word & (y == 2), axis=1, keepdims=True) + 1
    first = 2 * r + 6 - p  # parity slots: from this 1-based position on, every other one
    slot = (c + 1 >= first) & ((p - 1 - c) % 2 == 0)
    bad = word & ((y != np.select([c == 0, c < r, c == r], [1, 2, 3], 4))
                  | (c >= 1) & np.where(slot, z > 1, z != 5))
    block = (p >= 3) & (p - r >= 2) & (first >= 3) & (z[:, :1] != 5) & ~bad.any(1, keepdims=True)
    bits = np.where(word & slot, z & 1, 0) << np.clip((c + 1 - first) // 2, 0, c.size)
    km = np.where(block, 1 << (r - 1), 1)
    kp = np.where(block, (1 << np.clip(p - r - 2, 0, c.size)) + bits.sum(1, keepdims=True), 1)
    gap = z[:, :1] + ceil_sqrt_array(8 * km * kp)
    fixed = (p <= 2) & ~(word[:, :2] & (rows[:, :2] != (5, 23))).any(1, keepdims=True)  # 1^x 4^x
    return np.where(block & _in_image(gap, km, kp), gap, np.where(fixed, p, 0)).ravel()


def _check_endless_phase(letters, y: int) -> None:
    """Endless sides are one phase: an expanding future (y = 2), a halving past (y = 4)."""
    for l in letters:
        if l.y != y:
            side, phase = ("future", "expanding") if y == 2 else ("past", "halving")
            raise DecodeError(f"{side}-segment-letters",
                              f"an endless {phase} phase uses y = {y} letters")


def decode_position(word_context, offset: int, *, no_ones_left: bool = False,
                    no_ones_right: bool = False, boundary: str = ADJUSTED) -> GapPair:
    """Gap coordinates of the base point whose code image carries the letter
    at ``offset`` of ``word_context`` at its origin, by one rule: a halving
    letter (y = 4) reads k+ from the parity letters after it, any other letter
    has k- = 0 at its block leader (y = 1) or 2^(q-2) as the block's q-th
    letter, and the gap gives the other coordinate.  The gap is the decoded
    block word, infinite on a side the flags declare free of y = 1 letters.
    """
    _check_boundary(boundary)
    letters = _code_letters(word_context)
    n = len(letters)
    if not 0 <= offset < n:
        raise AmbiguousContextError("offset outside the provided context")
    i0 = next((c for c in range(offset, -1, -1) if letters[c].y == 1), None)
    i1 = next((c for c in range(offset + 1, n) if letters[c].y == 1), n)
    if i0 is None:
        if i1 == n:
            if no_ones_left and no_ones_right:
                return GapPair(INF, INF)
            raise AmbiguousContextError("no block leader in the context and sides undeclared")
        if not no_ones_left:
            raise AmbiguousContextError("no previous block leader; past side undeclared")
        _check_endless_phase(letters[:i1], 4)
        gap = INF
    elif i1 == n and no_ones_right:
        _check_endless_phase(letters[i0 + 1:], 2)
        gap = INF
    else:
        try:
            gap = decode_word(letters[i0:i1])
        except DecodeError:
            if i1 < n:
                raise
            # an undeclared future may end the context exactly at a block boundary
            raise AmbiguousContextError(
                "context ends inside a block and the future side is undeclared") from None
    if letters[offset].y == 4:
        kp = _halving_kplus(letters, offset, i1 - offset - 1)
        return GapPair(gap - kp if gap < INF else INF, kp)
    km = 0 if offset == i0 else 1 << (offset - i0 - 1)
    return GapPair(km, gap - km if gap < INF else INF)


# ---------------------------------------------------------------------------
# The block code on sequences

def _frame(marks: BitSequence, described: SymbolSequence, code) -> tuple:
    """The 1s of ``marks`` that frame the block code of ``described``, as
    ascending lists (left, middle, right), and ``code(a, b)`` of each block
    [a, b) between consecutive marks of a list, keyed by a.

    The middle runs from the last mark before both the window and 1 to the
    first mark after both the window and 0, or from and to the outermost
    mark where a tail has none; it holds the origin's block.  Each side
    list holds the marks of one period of that tail of ``described`` beyond
    the middle, sharing its inner mark, so its blocks make one period of the
    tail; it is empty when the tail has no mark.  Blocks outside the frame
    repeat blocks of the side lists.
    """
    per_l, per_r = len(described.left), len(described.right)
    a, b = marks.ones_around(min(described.start - 1, 0))
    c, d = marks.ones_around(max(described.end - 1, 0))
    first, last = b if a is None else a, c if d is None else d
    lo = first if a is None else first - per_l
    hi = last if d is None else last + per_r
    ones, m = [], lo - 1
    while (m := marks.ones_around(m)[1]) is not None and m <= hi:
        ones.append(m)
    i, j = ones.index(first), ones.index(last)
    parts = (ones[:i + 1] if a is not None else [], ones[i:j + 1],
             ones[j:] if d is not None else [])
    return (*parts, {s: code(s, t) for part in parts for s, t in zip(part, part[1:])})


def _joined(marks: list, pieces: dict) -> tuple:
    """The pieces of the blocks between consecutive marks, in order."""
    return tuple(chain.from_iterable(pieces[a] for a in marks[:-1]))


def encode_sequence(x: BitSequence, boundary: str = ADJUSTED) -> SymbolSequence:
    """Code image of x, aligned so that the origin letter is the one of the
    origin's own orbit position.

    Defined on sequences whose tails both carry 1s and whose origin lies on
    the accelerated orbit of its block; the all-zero sequence maps to the
    constant 1^x sequence (which collides with the image of the all-ones
    sequence; decoding resolves the constant 1^x word to the zero sequence).
    """
    if x.is_zero():
        return SymbolSequence((), 0, (ONE_X,), (ONE_X,))
    if 1 not in x.left or 1 not in x.right:
        raise CodecDomainError(
            "block coding needs 1s in both tails (recurrent domain)")
    pos0, pos1 = x.ones_around(0)  # the origin's block
    offsets = return_profile(pos1 - pos0, boundary).offsets[:-1]
    if -pos0 not in offsets:
        raise CodecDomainError("origin is not on the accelerated orbit of its block")
    left, middle, right, words = _frame(x, x, lambda a, b: encode_block(b - a, boundary))
    origin = offsets.index(-pos0) + sum(len(words[a]) for a in middle if a < pos0)
    return SymbolSequence(_joined(middle, words), -origin,
                          _joined(left, words), _joined(right, words))


def decode_sequence(u: SymbolSequence, boundary: str = ADJUSTED) -> BitSequence:
    """Left inverse of encode_sequence: block words decode to blocks, sides
    without y = 1 letters decode to zeros positioned by the parity rules,
    and words with no y = 1 at all (including the constant 1^x sequence)
    decode to the zero sequence.  The result does not depend on the
    boundary: both conventions walk the same offsets across a block."""
    _check_boundary(boundary)
    _code_letters(u.window + u.left + u.right)
    leads = [bytes(l.y == 1 for l in w) for w in (u.window, u.left, u.right)]
    lead = BitSequence(leads[0], u.start, *leads[1:])  # a 1 at each block leader of u
    # the image of the zero sequence wins its collision with the all-ones one
    if lead.is_zero() or not u.window and u.left == (ONE_X,) == u.right:
        return BitSequence.zero()

    left, middle, right, blocks = _frame(
        lead, u, lambda a, b: b"\x01" + bytes(decode_word(u.segment(a, b)) - 1))
    if not right:
        _check_endless_phase(u.segment(middle[-1] + 1, u.end) + u.right, 2)
    if not left:
        _check_endless_phase(u.left + u.segment(u.start, middle[0]), 4)

    # anchor: the origin's gap pair, from its block or an endless past's parity letters
    k = bisect_right(middle, 0)
    lo = middle[k - 1] if k else min(0, 3 - middle[0])
    hi = middle[k] + 1 if k < len(middle) else 1
    g = decode_position(u.segment(lo, hi), -lo, no_ones_left=not left, no_ones_right=not right)
    first_bit = g.k_plus if k == 0 else -g.k_minus - sum(len(blocks[a]) for a in middle[:k - 1])

    joined = lambda marks: b"".join([blocks[a] for a in marks[:-1]])
    return BitSequence(joined(middle) + (b"" if right else b"\x01"), first_bit,
                       joined(left) or b"\x00", joined(right) or b"\x00")


# ---------------------------------------------------------------------------
# The accelerated roof and the fiber subshifts

def _birkhoff_over_step(km, kp, f: RoofFunction, boundary: str = ADJUSTED) -> float:
    """Sum of the roof over one accelerated step starting at gap pair (km, kp)."""
    step = step_length(GapPair(km, kp), boundary)
    if step > _STEP_CAP:
        raise RuntimeError(f"step of length {step} exceeds the summation cap")
    return math.fsum(roof_between(f, j, -km, kp) for j in range(step))


def roof_prime(x: BitSequence, f: RoofFunction, boundary: str = ADJUSTED) -> float:
    """Roof of the accelerated suspension: the Birkhoff sum of f over one
    accelerated step, and l log 2 at the zero sequence."""
    if not f.is_singular:
        raise ValueError("the accelerated roof is defined for gap-profile roofs")
    if x.is_zero():
        l = f.profile.kg_limit()
        if not 0 < l < INF:
            raise ValueError(
                "evaluating at the zero sequence needs a finite positive limit of k*g(k)")
        return l * math.log(2.0)
    k = gap_pair(x)
    return _birkhoff_over_step(k.k_minus, k.k_plus, f, boundary)


def roof_prime_continuity_probe(profile, K: int, boundary: str = ADJUSTED) -> float:
    """Max deviation of the accelerated roof from its limit l log 2 over a
    deterministic grid of gap pairs with min(k-, k+) >= K covering the deep
    expanding, boundary, contracting-entry and halving shapes; decreasing
    in K."""
    if K < 3:
        raise ValueError("K must be at least 3")
    l = profile.kg_limit()
    if not 0 < l < INF:
        raise ValueError("the probe needs a finite positive limit of k*g(k)")
    target = l * math.log(2.0)
    pairs = [
        (K, 100 * K), (K, 8 * K),              # deep expanding phase
        (K, 3 * K + 1), (K, 3 * K),            # expanding/contracting boundary
        (2 * K, 3 * K), (2 * K - 1, 2 * K),    # contracting entry
        (2 * K, 2 * K), (3 * K, 2 * K), (100 * K, 2 * K),  # halving phase
    ]
    f = RoofFunction.from_profile(profile)
    return max(abs(_birkhoff_over_step(km, kp, f, boundary) - target) for km, kp in pairs)


def fiber_sfts() -> tuple:
    """The two 2-word-generated subshifts sitting over the singular fiber of
    the symbolic extension: endless expanding (y = 2) and halving (y = 4) phases."""
    return tuple(tuple((letter(y, b), letter(y, "x")) for b in (0, 1)) for y in (2, 4))
