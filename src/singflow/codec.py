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
from dataclasses import dataclass

import numpy as np

from .roofs import RoofFunction
from .sequences import INF, BitSequence, GapPair, SymbolSequence, gap_pair

ADJUSTED = "adjusted"
PAPER = "paper"

_Z_VALUES = (0, 1, 2, 3, 4, "x")

_STEP_CAP = 10 ** 7


class RegionDomainError(ValueError):
    """The accelerated shift is undefined at the all-zero sequence."""


class FirstReturnStructureError(ValueError):
    """The orbit across a block never visits R3, so no code word exists."""


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
    if boundary == ADJUSTED:
        return True
    if boundary == PAPER:
        return False
    raise ValueError(f"boundary must be {ADJUSTED!r} or {PAPER!r}")


def ceil_sqrt(n: int) -> int:
    """Exact ceiling of sqrt(n) for nonnegative integers."""
    if n < 0:
        raise ValueError("negative argument")
    return 0 if n == 0 else 1 + math.isqrt(n - 1)


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
    return 3, kp - (km + kp) ** 2 // (8 * km)


def region_of(k: GapPair, boundary: str = ADJUSTED) -> int:
    """Region index 1..4 of a gap pair (see ``_region_step``)."""
    adjusted = _check_boundary(boundary)
    if k.is_singular():
        raise RegionDomainError("the accelerated shift is undefined at the zero sequence")
    return _region_step(k.k_minus, k.k_plus, adjusted)[0]


def step_length(k: GapPair, boundary: str = ADJUSTED) -> int:
    """Step of the accelerated shift: 1 on R1, k- on R2, the contracting
    formula on R3, ceil(k+/2) on R4."""
    adjusted = _check_boundary(boundary)
    if k.is_singular():
        raise RegionDomainError("the accelerated shift is undefined at the zero sequence")
    return _region_step(k.k_minus, k.k_plus, adjusted)[1]


def region_steps(km, kp, boundary: str = ADJUSTED) -> tuple:
    """Batch form of the region/step law on integer arrays of finite gap
    pairs (k- >= 0, k+ >= 0): returns int64 arrays (region, step).  A pair
    with k+ = 0 and k- > 0 lands in R4 with step 0, so a walk that has
    reached the end of its block stays there."""
    adjusted = _check_boundary(boundary)
    km = np.asarray(km, dtype=np.int64)
    kp = np.asarray(kp, dtype=np.int64)
    expanding = 3 * km < kp if adjusted else 3 * km <= kp
    region = np.where(km == 0, 1, np.where(kp <= km, 4, np.where(expanding, 2, 3)))
    contracting = kp - (km + kp) ** 2 // (8 * np.maximum(km, 1))
    step = np.choose(region - 1, (1, km, contracting, (kp + 1) // 2))
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
    if not sep or len(y) != 1 or not y.isdigit():
        raise DecodeError("letter-format", f"expected y^z, got {text!r}")
    zv = z if z == "x" else (int(z) if z.isdigit() and len(z) == 1 else None)
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
    if gap < 1:
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
        raise AssertionError(f"orbit overshot the block: gap={gap}")
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


def return_profiles(gaps, boundary: str = ADJUSTED) -> tuple:
    """Walks of the accelerated shift across many blocks, run in lockstep.

    Returns int64 arrays (offsets, regions) with one row per gap: row i
    holds ``return_profile(gaps[i]).offsets`` padded on the right with the
    gap, and its ``regions`` padded with 0.  The walk takes about
    2 log2(max gap) iterations whatever the number of gaps.  Gaps stay
    below 2^30, so that 8 k- k+ <= 2 gap^2 fits in int64.
    """
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
        raise AssertionError(f"orbit overshot the block: gap={gaps[o != gaps][0]}")
    offsets.append(o)
    return np.stack(offsets, axis=1), np.stack(regions, axis=1)


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


def decode_word(word) -> int:
    """Gap of the block whose code word this is; structural violations raise
    DecodeError naming the broken constraint."""
    letters = tuple(word)
    for l in letters:
        if not isinstance(l, CodeLetter):
            raise DecodeError("letter-alphabet", f"not a code letter: {l!r}")
    p = len(letters)
    if p == 0:
        raise DecodeError("empty-word", "no letters")
    if p == 1:
        if letters != (ONE_X,):
            raise DecodeError("fixed-word-shape", "length-1 words must be 1^x")
        return 1
    if p == 2:
        if letters != (ONE_X, letter(4, "x")):
            raise DecodeError("fixed-word-shape", "length-2 words must be 1^x 4^x")
        return 2
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
    return z1 + ceil_sqrt(8 * (1 << (r - 1)) * _halving_kplus(letters, r + 1, p - r - 2))


def decode_position(word_context, offset: int, *, no_ones_left: bool = False,
                    no_ones_right: bool = False, boundary: str = ADJUSTED) -> GapPair:
    """Gap coordinates of the base point whose code image carries the letter
    at ``offset`` of ``word_context`` at its origin.

    Inside a complete block the letter index determines one coordinate
    directly (k- = 0 at the leading letter, k- = 2^(q-2) in the expanding
    phase, the parity expansion of k+ in the halving phase) and the decoded
    gap gives the other.  The flags declare that the context continues
    without y = 1 letters beyond the given side.
    """
    letters = tuple(word_context)
    if not 0 <= offset < len(letters):
        raise AmbiguousContextError("offset outside the provided context")
    i0 = next((c for c in range(offset, -1, -1) if letters[c].y == 1), None)
    i1 = next((c for c in range(offset + 1, len(letters)) if letters[c].y == 1), None)

    if i0 is not None and i1 is None and not no_ones_right:
        # the context may end exactly at a block boundary
        try:
            decode_word(letters[i0:])
        except DecodeError:
            raise AmbiguousContextError(
                "context ends inside a block and the future side is undeclared"
            ) from None
        i1 = len(letters)

    if i0 is not None and i1 is not None:
        block = letters[i0:i1]
        gap = decode_word(block)
        p = len(block)
        q = offset - i0 + 1
        y = letters[offset].y
        if y == 1:
            return GapPair(0, gap)
        if y in (2, 3):
            km = 1 << (q - 2)
            return GapPair(km, gap - km)
        s = q - 1  # step index of the halving phase
        kp = _halving_kplus(block, s, p - 1 - s)
        return GapPair(gap - kp, kp)

    if i0 is not None:  # future side without ones
        if not no_ones_right:
            raise AmbiguousContextError("no next block leader; future side undeclared")
        for c in range(i0 + 1, len(letters)):
            if letters[c].y != 2:
                raise DecodeError("future-segment-letters",
                                  "an endless expanding phase uses y = 2 letters")
        q = offset - i0 + 1
        if q == 1:
            return GapPair(0, INF)
        return GapPair(1 << (q - 2), INF)

    if i1 is not None:  # past side without ones
        if not no_ones_left:
            raise AmbiguousContextError("no previous block leader; past side undeclared")
        for c in range(0, i1):
            if letters[c].y != 4:
                raise DecodeError("past-segment-letters",
                                  "an endless halving phase uses y = 4 letters")
        return GapPair(INF, _halving_kplus(letters, offset, i1 - offset - 1))

    if no_ones_left and no_ones_right:
        return GapPair(INF, INF)
    raise AmbiguousContextError("no block leader in the context and sides undeclared")


# ---------------------------------------------------------------------------
# The block code on sequences

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
    per_l, per_r = len(x.left), len(x.right)
    lo = min(x.start, 0) - 3 * per_l - 1
    hi = max(x.end, 0) + 3 * per_r + 1
    ones, b = [], lo - 1
    while (b := x.ones_around(b)[1]) <= hi:
        ones.append(b)

    pos0 = max(p for p in ones if p <= 0)
    pos1 = min(p for p in ones if p > pos0)
    prof0 = return_profile(pos1 - pos0, boundary)
    try:
        q0 = prof0.offsets[:-1].index(-pos0)
    except ValueError:
        raise CodecDomainError(
            "origin is not on the accelerated orbit of its block") from None

    q_left = max(p for p in ones if p <= min(pos0, x.start - per_l))
    p_right = min(p for p in ones if p >= max(pos1, x.end + per_r))

    def block_words(points):
        words = []
        for a, b in zip(points, points[1:]):
            words.append((a, encode_block(b - a, boundary)))
        return words

    left_cycle = block_words([p for p in ones if q_left - per_l <= p <= q_left])
    right_cycle = block_words([p for p in ones if p_right <= p <= p_right + per_r])
    middle = block_words([p for p in ones if q_left <= p <= p_right])

    letters: list = []
    origin_index = None
    for start_bit, w in middle:
        if start_bit == pos0:
            origin_index = len(letters) + q0
        letters.extend(w)
    if origin_index is None:
        raise AssertionError("origin block not materialized")

    wl = tuple(l for _, w in left_cycle for l in w)
    wr = tuple(l for _, w in right_cycle for l in w)
    return SymbolSequence(tuple(letters), -origin_index, wl, wr)


def _cycle_bits(u: SymbolSequence, leaders: list) -> tuple:
    """Bits of the blocks whose words run between consecutive leaders."""
    bits: list = []
    for a, b in zip(leaders, leaders[1:]):
        bits += [1] + [0] * (decode_word(u.segment(a, b)) - 1)
    return tuple(bits)


def decode_sequence(u: SymbolSequence, boundary: str = ADJUSTED) -> BitSequence:
    """Left inverse of encode_sequence: block words decode to blocks, sides
    without y = 1 letters decode to zeros positioned by the parity rules,
    and words with no y = 1 at all (including the constant 1^x sequence)
    decode to the zero sequence."""
    for l in u.window + u.left + u.right:
        if not isinstance(l, CodeLetter):
            raise DecodeError("letter-alphabet", f"not a code letter: {l!r}")

    left_has = any(l.y == 1 for l in u.left)
    right_has = any(l.y == 1 for l in u.right)
    win_has = any(l.y == 1 for l in u.window)
    if not (left_has or right_has or win_has):
        return BitSequence.zero()
    if not u.window and u.left == (ONE_X,) and u.right == (ONE_X,):
        return BitSequence.zero()  # image of the zero sequence wins the collision

    per_l, per_r = len(u.left), len(u.right)
    lo = min(u.start, 0) - 3 * per_l - 1
    hi = max(u.end, 0) + 3 * per_r + 1
    seg = u.segment(lo, hi + 1)
    onepos = [lo + i for i, l in enumerate(seg) if l.y == 1]
    if not onepos:
        raise AssertionError("ones declared but none materialized")

    # anchor: bit coordinate of one block leader
    i0 = max((c for c in onepos if c <= 0), default=None)
    if i0 is not None:
        j1 = next((c for c in onepos if c > i0), None)
        if j1 is None:
            q = -i0 + 1
            anchor_letter, anchor_bit = i0, 0 if q == 1 else -(1 << (q - 2))
        else:
            gap0 = decode_word(u.segment(i0, j1))
            prof0 = return_profile(gap0, boundary)
            q = -i0
            if q >= prof0.p:
                raise DecodeError("word-length",
                                  "block word longer than its return time")
            anchor_letter, anchor_bit = i0, -prof0.offsets[q]
    else:
        i1 = min(onepos)
        ctx_lo = min(lo, i1 - 2 * (i1 - 0) - 4)
        ctx = u.segment(ctx_lo, i1 + 1)
        kpair = decode_position(ctx, 0 - ctx_lo, no_ones_left=True, boundary=boundary)
        anchor_letter, anchor_bit = i1, kpair.k_plus

    # bit coordinates of every materialized block leader
    idx = onepos.index(anchor_letter)
    bit_at = {anchor_letter: anchor_bit}
    for a, b in zip(onepos[idx:], onepos[idx + 1:]):
        bit_at[b] = bit_at[a] + decode_word(u.segment(a, b))
    for b, a in zip(reversed(onepos[:idx + 1]), reversed(onepos[:idx])):
        bit_at[a] = bit_at[b] - decode_word(u.segment(a, b))

    if right_has:
        right_edge = min(c for c in onepos if c >= max(u.end, 0) + per_r)
        right_tail = _cycle_bits(u, [c for c in onepos
                                     if right_edge <= c <= right_edge + per_r])
    else:
        if any(l.y != 2 for l in seg[max(onepos) + 1 - lo:]):
            raise DecodeError("future-segment-letters",
                              "an endless expanding phase uses y = 2 letters")
        right_tail = (0,)
        right_edge = None

    if left_has:
        left_edge = max(c for c in onepos if c <= min(u.start, 0) - per_l)
        left_tail = _cycle_bits(u, [c for c in onepos
                                    if left_edge - per_l <= c <= left_edge])
    else:
        if any(l.y != 4 for l in seg[:min(onepos) - lo]):
            raise DecodeError("past-segment-letters",
                              "an endless halving phase uses y = 4 letters")
        left_tail = (0,)
        left_edge = None

    lo_bit = bit_at[left_edge] if left_edge is not None else bit_at[min(onepos)]
    hi_bit = bit_at[right_edge] if right_edge is not None else bit_at[max(onepos)] + 1
    window = [0] * (hi_bit - lo_bit)
    for c, bit in bit_at.items():
        if lo_bit <= bit < hi_bit:
            window[bit - lo_bit] = 1
    return BitSequence(tuple(window), lo_bit, left_tail, right_tail)


# ---------------------------------------------------------------------------
# The accelerated roof and the fiber subshifts

def _birkhoff_over_step(km, kp, f: RoofFunction, boundary: str = ADJUSTED) -> float:
    """Sum of the roof over one accelerated step starting at gap pair (km, kp)."""
    step = step_length(GapPair(km, kp), boundary)
    if step > _STEP_CAP:
        raise RuntimeError(f"step of length {step} exceeds the summation cap")
    return math.fsum(f.value_at_gap(min(km + j, kp - j)) for j in range(step))


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
    the symbolic extension."""
    first = ((letter(2, 0), letter(2, "x")),
             (letter(2, 1), letter(2, "x")))
    second = ((letter(4, 0), letter(4, "x")),
              (letter(4, 1), letter(4, "x")))
    return first, second
