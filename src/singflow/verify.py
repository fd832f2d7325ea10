"""Exhaustive structural suites of the accelerated-shift block codec.

Each suite maps (gap_max, kplus_max, boundary) to (ok, detail).  The suites
run on whole arrays, in chunks of about ``_CHUNK`` elements so memory stays
flat.  The codec computes everything the code defines: the batch law
``codec.region_steps``, its contracting step ``codec._contracting_steps``, and
the lockstep walks ``codec.return_profiles`` with each gap's z1 and code word;
the suites hold only their checks and messages.
A failure names the first failing pair or gap of a plain loop over the
range, checks taken in the documented order.
"""

from __future__ import annotations

import math
import operator

import numpy as np

from . import codec as cdc
from .sequences import GapPair

_CHUNK = 1 << 15


def _ranges(lo: int, hi: int, width: int = 0):
    """lo..hi as consecutive int64 arrays of about _CHUNK // width items; the
    default width is that of a block walk, at most about 2 log2(gap) + 2 steps.
    Any integer bound works; a float raises TypeError."""
    hi = operator.index(hi)
    if hi >= 1 << 30:  # the walks' limit, so that 8 k- k+ stays in int64
        raise ValueError(f"a sweep must end below 2^30, not at {hi}")
    if hi < max(lo, 1):
        raise ValueError(f"a sweep from {lo} must end at {max(lo, 1)} or past it, not at {hi}")
    size = max(1, _CHUNK // (width or 2 * hi.bit_length() + 2))
    for a in range(lo, hi + 1, size):
        yield np.arange(a, min(a + size, hi + 1), dtype=np.int64)


def region_suite(gap_max: int, kplus_max: int, boundary: str) -> tuple[bool, str]:
    """Each finite pair of the grid (k- outer, k+ inner) lies in the region
    its coordinates name; the infinite rays lie in R1, R2 and R4."""
    limit = min(gap_max, 2000)
    kp = np.arange(1, limit + 1, dtype=np.int64)
    for km in _ranges(0, limit, limit):
        km = km[:, None]
        r, _ = cdc.region_steps(km, kp, boundary)
        ok = np.where(km == 0, r == 1, np.where(kp <= km, r == 4, (r == 2) | (r == 3)))
        if not ok.all():
            i, j = np.unravel_index(np.argmin(ok), ok.shape)
            return False, f"pair ({km[i, 0]},{kp[j]}) fell into R{r[i, j]}"
    for k, want in ((GapPair(0, math.inf), 1), (GapPair(5, math.inf), 2),
                    (GapPair(math.inf, 7), 4)):
        if cdc.region_of(k, boundary) != want:
            return False, f"infinite pair {k} misclassified"
    return True, f"partition exhaustive to {limit}, infinite rays included"


def fr_suite(gap_max: int, kplus_max: int, boundary: str) -> tuple[bool, str]:
    """For each gap 3..gap_max: the leading defect z1 in 0..4, the regions
    R1 R2^(r-1) R3 R4^(p-1-r), offset 2^(q-1) at steps q <= r, k+ halved and
    rounded down from each step r < q < p to the next (to 0 after the last),
    which by induction from q = p-1 is k+ = 2^(p-1-q) + sum_i eps[q+i] 2^i,
    its parity expansion, and the return-time bound 2r >= p-3."""
    bad = []
    for gaps in _ranges(3, gap_max):
        offsets, regions, p, r, z1 = cdc._walks(gaps, boundary)
        has3 = r >= 0
        bad += gaps[~has3].tolist()
        kp = gaps[:, None] - offsets
        t, pc, rc = np.arange(regions.shape[1]), p[:, None], r[:, None]
        pattern = np.where(t == 0, 1, np.where(t < rc, 2, np.where(t == rc, 3, 4)))
        pattern_bad = ((regions != pattern) & (t < pc)).any(axis=1)
        doubling = (t >= 1) & (t <= rc) & (offsets[:, :-1] != 1 << np.maximum(t - 1, 0))
        halving = (t > rc) & (t < pc) & (kp[:, 1:] != kp[:, :-1] >> 1)
        z1_bad = (z1 < 0) | (z1 > 4)
        failed = has3 & (pattern_bad | doubling.any(axis=1) | halving.any(axis=1)
                         | (2 * r < p - 3)) | z1_bad
        if failed.any():
            i = failed.argmax()
            gap = gaps[i]
            if z1_bad[i]:
                return False, f"gap {gap}: z1 out of range ({z1[i]})"
            if pattern_bad[i]:
                return False, f"gap {gap}: region pattern {tuple(regions[i, :p[i]].tolist())}"
            if doubling[i].any():
                return False, f"gap {gap}: doubling broken at step {doubling[i].argmax()}"
            if halving[i].any():
                return False, f"gap {gap}: parity expansion broken at step {halving[i].argmax()}"
            return False, f"gap {gap}: return time bound broken (p={p[i]}, r={r[i]})"
    if bad:
        return False, f"no R3 visit at gaps {bad[:8]}{'...' if len(bad) > 8 else ''}"
    return True, f"first-return structure exact for gaps 3..{gap_max}"


_INJEC_FAILURES = ("lower step bound broken", "unexpected equality case",
                   "upper step bound broken", "defect bound broken")


def injec_suite(gap_max: int, kplus_max: int, boundary: str) -> tuple[bool, str]:
    """Row by row in k+ <= kplus_max, on every R3 pair: the contracting step L obeys
    (k+ - k-)/2 <= L, with equality only at k+ = 3k-, L <= ceil(k+/2), and the
    defect s - ceil(sqrt(v)) of s = k+ + k-, v = 8 k- (k+ - L) lies in 0..4, tested
    as v <= s^2 and not (s >= 5 and v <= (s - 5)^2), since ceil(sqrt(v)) <= n iff
    v <= n^2 for n >= 0.  Then two-sided harmonic sums near the split approach log 2;
    a step whose sum would read off the harmonic table is off by inf."""
    checked = 0
    for kps in _ranges(2, kplus_max, 2 * kplus_max // 3):
        # R3 rows: k+/3 <= k- < k+, the pair k- = k+/3 only when adjusted
        los = -(-kps // 3) if boundary == cdc.ADJUSTED else kps // 3 + 1
        kp = np.repeat(kps, kps - los)
        km = np.arange(kp.size) + np.repeat(los - np.searchsorted(kp, kps), kps - los)
        L = cdc._contracting_steps(km, kp)
        s, v = kp + km, 8 * km * (kp - L)
        # v < 0 (a step past k+) reads as a root of 0; a broken lower bound gives v > s^2
        defect = (v > s * s) | ((s >= 5) & (v <= (s - 5) ** 2))
        failed = (L > (kp + 1) // 2) | defect
        if failed.any():
            kplus = kp[failed.argmax()]
            fails = np.stack([2 * L < kp - km, (2 * L == kp - km) & (kp != 3 * km),
                              L > (kp + 1) // 2, defect])
            check = fails[:, kp == kplus].any(axis=1).argmax()
            return False, f"{_INJEC_FAILURES[check]} at k+={kplus}"
        checked += kp.size
    base = np.array([1000, 1499, 2000, 3000, 5000])
    km0 = np.repeat(base, 4)
    kp0 = np.stack([base + 1, 3 * base // 2, 2 * base, 3 * base], axis=1).ravel()
    h = np.concatenate([[0.0], np.cumsum(1.0 / np.arange(1, kp0.max() + 1))])
    L0 = cdc._contracting_steps(km0, kp0)  # all in R3 under the adjusted boundary
    lo = kp0 - L0 - 1
    split = ((h[(kp0 + km0) // 2] - h[km0 - 1])
             + (h[-(-(kp0 + km0) // 2)] - h[np.clip(lo, 0, h.size - 1)]))
    split[(lo < 0) | (lo >= h.size)] = np.inf
    worst = np.abs(split - math.log(2.0)).max()
    if worst > 0.01:
        return False, f"harmonic split sum off by {worst:.4f}"
    return True, f"{checked} contracting pairs exact; split sums within {worst:.4f} of log 2"


def codec_suite(gap_max: int, kplus_max: int, boundary: str) -> tuple[bool, str]:
    """The row kernel ``codec._decode_rows``, the independent inverse whose
    test oracle is the scalar ``decode_word``, maps the code words of the
    lockstep walks back to their gaps, for 1..gap_max; under the verbatim
    boundary exactly the powers of two >= 4 have no word.
    decode(word(g)) == g for every g already makes the words distinct."""
    anomalies = []
    for gaps in _ranges(1, gap_max):
        _, _, z1, words = cdc.return_profiles(gaps, boundary)
        z1_bad = (z1 < 0) | (z1 > 4)
        worded = words[:, 0] != -1
        anomalies += gaps[~worded].tolist()
        failed = z1_bad | worded & (cdc._decode_rows(words) != gaps)
        if failed.any():
            i = failed.argmax()
            return False, (f"gap {gaps[i]}: z1 out of range ({z1[i]})" if z1_bad[i]
                           else f"roundtrip failed at gap {gaps[i]}")
    if boundary == cdc.ADJUSTED:
        if anomalies:
            return False, f"unexpected unencodable gaps {anomalies[:8]}"
        return True, f"gaps 1..{gap_max} roundtrip, all words distinct"
    if anomalies != [1 << j for j in range(2, operator.index(gap_max).bit_length())]:
        return False, f"anomaly set {anomalies[:8]}... differs from powers of two"
    return True, (f"non-anomalous gaps roundtrip; anomalies exactly the "
                  f"{len(anomalies)} powers of two >= 4")


SUITES = {"region": region_suite, "fr": fr_suite,
          "injec": injec_suite, "codec": codec_suite}
