"""The suspension space over the binary shift, its flow, and chain geometry.

Points live in the quotient of {(x,t): 0 <= t <= f(x)} by (x, f(x)) ~ (Tx, 0);
canonical representatives satisfy 0 <= t < f(x), with (x,t) = (*,0) at the
singular fiber of a vanishing roof.  Chain lengths follow Bowen and Walters:
a pair at equal normalized height is horizontal, a pair on the same or on
adjacent fibers is vertical, and distances are infima of chain lengths.  The
crossing length of a vertical pair is measured along the flow through the
roof identification: from (x,u) up to (Tx,u') costs 1 - u + u'.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations_with_replacement

import numpy as np

from .roofs import RoofFunction, admissibility_check, ADMISSIBLE, roof_between, roof_eval
from .sequences import _TINY, BitSequence, _last_true, compare_radius, seq_distance

HORIZONTAL = "horizontal"
VERTICAL = "vertical"

HEIGHT_TOL = 1e-9
_CHUNK = 1024   # columns per comparison step of chain_slots; 16^2 x _CHUNK // nb^2 past 16 bases
MAX_CROSSINGS = 10 ** 6
_R = 64   # levels flow crosses one by one next to each 1 and before its landing


class PairKindError(ValueError):
    """The pair does not have the declared kind."""


class CanonicalHeightError(ValueError):
    """Height outside [0, f(base))."""


class FlowResourceError(RuntimeError):
    """The itinerary needed more roof crossings than allowed."""


class InadmissibleRoofError(ValueError):
    """The roof does not define a suspension flow."""


@dataclass(frozen=True)
class FlowPoint:
    base: BitSequence
    height: float

    def __repr__(self):
        return f"FlowPoint({self.base!r}, {self.height!r})"


def flow_point(f: RoofFunction, base: BitSequence, height: float) -> FlowPoint:
    """Canonical point of the suspension: validates 0 <= height < f(base)
    (height 0 at the singular fiber)."""
    return _checked_point(base, height, roof_eval(f, base))


def _checked_point(base: BitSequence, height: float, roof: float) -> FlowPoint:
    """``flow_point`` where ``roof`` is f(base), already evaluated."""
    if roof == 0.0:
        if height != 0.0:
            raise CanonicalHeightError("only height 0 exists over the singular fiber")
    elif not 0.0 <= height < roof:
        raise CanonicalHeightError(f"height {height} outside [0, {roof})")
    return FlowPoint(base, float(height))


def singular_point() -> FlowPoint:
    return FlowPoint(BitSequence.zero(), 0.0)


def norm_height(p: FlowPoint, f: RoofFunction) -> float:
    """u = t/f(x), with u = 0 at the singular fiber."""
    roof = roof_eval(f, p.base)
    if roof == 0.0:
        return 0.0
    return p.height / roof


def _kadd(s: float, c: float, x: float) -> tuple[float, float]:
    # Kahan compensated addition
    y = x - c
    t = s + y
    return t, (t - s) - y


def _jump(f: RoofFunction, a, b, pos: int, h: float, c: float,
          back: bool) -> tuple[int, float, float]:
    """(n, h, c): flow crosses the n levels from pos up (below pos if ``back``)
    at once, taking the law's sum of their roofs off the compensated height h, c
    (adding it if ``back``); n = 0 for none.  Between the 1s a and b (None:
    none) the roof g(min(pos - a, b - pos)) rises to the run's middle and falls
    after it: one law call per side.  A count is crossed if its law sum plus
    bound stays below the height.  Counts into the last _R levels before the
    far 1, or past 2^52 + _R on a zero tail, are not tried; of the rest, one
    galloping search (``_last_true``) finds the largest crossed one to within
    _R, and n is _R less.  A block past the crossing cap is crossed, and the
    loop raises at its next step."""
    law, height, far = f.profile._level_sum, -h if back else h, a if back else b
    limit = 2 ** 52 + _R if far is None else abs(far - pos) - _R

    def excess(n):  # (law sum plus bound less height, law sum) of n levels
        lo, hi = (pos - n, pos) if back else (pos, pos + n)
        m = lo if a is None else hi if b is None else min(max((a + b) // 2 + 1, lo), hi)
        parts = (([law(lo - a, m - a)] if lo < m else [])
                 + ([law(b - hi + 1, b - m + 1)] if m < hi else []))
        if None in parts:
            return math.nan, 0.0
        total = sum(part[0] for part in parts)
        return total + sum(part[1] for part in parts) + math.ulp(total) - height, total

    if 2 * _R > limit or not excess(2 * _R)[0] < 0:
        return 0, h, c
    n = _last_true(lambda n: excess(n)[0] < 0, 2 * _R, limit, _R) - _R
    total = excess(n)[1]
    return (n, *_kadd(h, c, total if back else -total))


def flow(p: FlowPoint, t: float, f: RoofFunction,
         max_crossings: int = MAX_CROSSINGS) -> FlowPoint:
    """Time-t image of p under the suspension flow, in canonical form.

    The singular fiber is fixed.  Heights are accumulated with compensated summation;
    crossing more than ``max_crossings`` roof levels raises FlowResourceError, and a time
    that is not finite raises ValueError.  Roofs come from the bracket a <= pos < b of the
    nearest 1s (None: unbounded), kept until pos leaves it, so a crossing costs O(1).
    _R levels into a run of a profile with a law (``GapProfile._level_sum``), one step,
    found by one galloping search in O(log n) law calls, crosses all but the last _R
    levels before the landing and the next 1 (``_jump``); they count toward
    ``max_crossings``, and the loop crosses the rest, so a flow over at most 2 _R
    levels of a run adds the same doubles as without the law.  A constant roof has
    none: the loop's compensated sum of c keeps the bits a rounded c n would lose.
    """
    if not math.isfinite(t):
        raise ValueError(f"flow time must be finite, got {t!r}")
    base = p.base
    if f.is_singular and base.is_zero():
        return p
    a, b = (None, None) if f.is_constant else base.ones_around(0)

    def cross_to(pos: int) -> float:  # the roof at pos, |pos| crossings on
        nonlocal a, b, mark
        if abs(pos) > max_crossings:
            raise FlowResourceError(f"more than {max_crossings} roof crossings")
        if a is not None and pos < a:
            a, b = base.ones_around(pos)
            mark = b - _R  # where the law is tried, _R levels into the run
        elif b is not None and pos >= b:
            a, b = base.ones_around(pos)
            mark = a + _R
        return roof_between(f, pos, a, b)

    pos = 0
    h, c = _kadd(p.height, 0.0, t)
    roof = roof_between(f, pos, a, b)
    mark = None if f.is_constant else 1 if a is None else max(1, a + _R)
    while h >= roof:
        h, c = _kadd(h, c, -roof)
        pos += 1
        if pos == mark:
            n, h, c = _jump(f, a, b, pos, h, c, False)
            pos += n
        roof = cross_to(pos)
    mark = None if f.is_constant else -1 if b is None else min(-1, b - _R)
    while h < 0.0:
        pos -= 1
        roof = cross_to(pos)
        h, c = _kadd(h, c, roof)
        if pos == mark:
            n, h, c = _jump(f, a, b, pos, h, c, True)
            pos -= n
    h = max(h + c, 0.0)  # no compensation dust below 0
    if h >= roof:
        pos += 1
        h = 0.0
    return FlowPoint(base.shifted(pos) if pos else base, h)


def flowpoints_close(p: FlowPoint, q: FlowPoint, f: RoofFunction,
                     tol: float = HEIGHT_TOL) -> bool:
    """Whether two canonical points agree up to a height tolerance, allowing
    a representative straddling one roof crossing."""
    if p.base == q.base:
        return abs(p.height - q.height) <= tol
    if q.base == p.base.shifted(1):
        return abs((roof_eval(f, p.base) - p.height) + q.height) <= tol
    if p.base == q.base.shifted(1):
        return abs((roof_eval(f, q.base) - q.height) + p.height) <= tol
    return False


def pair_length(a: FlowPoint, b: FlowPoint, kind: str, f: RoofFunction) -> float:
    """Length of an admissible pair.

    horizontal (equal normalized height u):
        (1-u) d(x_a, x_b) + u d(Tx_a, Tx_b)
    vertical: |u_a - u_b| on the same fiber; through the roof, flowing up
        from a to b on the next fiber costs 1 - u_a + u_b (and symmetrically).
    """
    ua = norm_height(a, f)
    ub = norm_height(b, f)
    if kind == HORIZONTAL:
        if abs(ua - ub) > HEIGHT_TOL:
            raise PairKindError("horizontal pair needs equal normalized heights")
        u = 0.5 * (ua + ub)
        d0 = seq_distance(a.base, b.base)
        return max((1.0 - u) * d0 + u * seq_distance(a.base.shifted(1), b.base.shifted(1)),
                   min(d0, _TINY))   # distinct bases stay positive where both terms round to 0
    if kind == VERTICAL:
        if a.base == b.base:
            return abs(ua - ub)
        if b.base == a.base.shifted(1):
            return 1.0 - ua + ub
        if a.base == b.base.shifted(1):
            return 1.0 - ub + ua
        raise PairKindError("vertical pair needs equal or adjacent fibers")
    raise PairKindError(f"unknown pair kind {kind!r}")


@dataclass(frozen=True)
class AdmissibleChain:
    """Chain of points with a declared kind per consecutive pair."""

    points: tuple
    kinds: tuple

    def __post_init__(self):
        if len(self.kinds) != max(len(self.points) - 1, 0):
            raise ValueError("need one kind per consecutive pair")

    def length(self, f: RoofFunction) -> float:
        return sum(pair_length(a, b, k, f)
                   for a, b, k in zip(self.points, self.points[1:], self.kinds))


def bw_distance_upper(a: FlowPoint, b: FlowPoint, f: RoofFunction,
                      chain_budget: int, window: int = 3) -> float:
    """Minimum length over admissible chains of at most ``chain_budget``
    points whose intermediate bases lie on the two orbits' windows of radius
    ``window``, at normalized heights {0, u_a, u_b}.

    This is an upper bound on the chain-infimum distance: symmetric,
    nonincreasing in the budget, and chains concatenate, so doubling the
    budget satisfies the relaxed triangle inequality.  It is 0.0 on the
    diagonal, and also for two points of one fiber whose normalized heights
    differ by at most ``HEIGHT_TOL``: a horizontal pair of one base costs 0.
    Otherwise it is positive: distances 2^-m, and horizontal lengths of
    distinct bases, are floored at 2^-1074, the least positive double.
    """
    return bw_distances_upper(a, b, f, (chain_budget,), window)[0]


def bw_distances_upper(a: FlowPoint, b: FlowPoint, f: RoofFunction,
                       budgets: tuple[int, ...], window: int = 3) -> tuple[float, ...]:
    """``bw_distance_upper`` at each of ``budgets``, in order, from one chain
    graph: the t-th relaxation is the distance over at most t edges, so
    budget m reads the iterate that a call with budget m alone stops at.
    The graph is ``chain_distances`` on the ``chain_slots`` table of the two
    bases; a shared table over more orbits gives it the same doubles."""
    return chain_distances(chain_slots((a.base, b.base), f, window),
                           0, a.height, 1, b.height, budgets)[0]


def chain_slots(bases, f: RoofFunction, window: int = 3) -> tuple:
    """The height-free part of the chain graphs between points on ``bases``:
    (window, slots, roof, d).  slots[o] holds the ids of bases[o].shifted(j),
    -window <= j <= window + 1, by the bytes of its bit row on -r..r, one id
    per distinct sequence; roof[i] is f at base i, d[i, j] their distance.
    r is at least every pair's compare radius, so the slots hold 0 and the
    compare bound of every pair: equal slots mean equal sequences, a base's
    roof comes from the slot's 1s nearest to 0 (``roof_between``), and the
    first mismatch outward from 0 gives the distance.  A larger r changes
    none of these."""
    if window < 0:
        raise ValueError("window must be nonnegative")
    r = max(compare_radius(x, y, window + 1) for x, y in combinations_with_replacement(bases, 2))
    ids: dict = {}   # equal slots, one id; the distinct bases in id order
    slots = [[ids.setdefault(row[c:c + 2 * r + 1], len(ids)) for c in range(2 * window + 2)]
             for row in (z._row(-r - window, r + window + 2) for z in bases)]
    # a slot holds a tail period past each window edge: its 1s nearest to 0 are the sequence's
    roof = [roof_between(f, r, None if (i := key.rfind(1, 0, r + 1)) < 0 else i,
                         None if (j := key.find(1, r + 1)) < 0 else j) for key in ids]

    # d[i, j] = d(base i, base j) = 2^-m from their first mismatch in |m| order, a chunk of
    # columns at a time, so temporaries stay at most 16^2 x _CHUNK entries for nb bases
    nb, w = len(ids), 2 * r + 1
    step = max(1, _CHUNK * 16 ** 2 // max(nb, 16) ** 2)
    keys = np.frombuffer(b"".join(ids), dtype=np.uint8).reshape(nb, w)
    cols = np.empty_like(keys)   # column k holds coordinate (k + 1) // 2 for odd k, else -k // 2
    cols[:, ::2], cols[:, 1::2] = keys[:, r::-1], keys[:, r + 1:]
    dm = np.maximum(np.ldexp(1.0, -(np.arange(1, w + 1) >> 1)), _TINY)   # each column's 2^-|m|
    d = np.zeros((nb, nb))
    for k0 in range(0, w, step):
        diff = cols[:, None, k0:k0 + step] != cols[:, k0:k0 + step]
        # 2^-m of a chunk's first mismatch is at least that of any later chunk
        d = np.maximum(d, np.where(diff.any(-1), dm[k0 + diff.argmax(-1)], 0.0))
        if np.count_nonzero(d) == nb * nb - nb:   # each pair of distinct bases met its own
            break
    return window, slots, roof, d


def chain_distances(table: tuple, i: int, ha: float, j: int, hb: float,
                    budgets: tuple[int, ...], reverse: bool = False) -> tuple:
    """Rows of ``bw_distances_upper`` from a, at height ha on orbit i of a
    ``chain_slots`` table, to b, at height hb on orbit j, and with ``reverse``
    (one base) from b back to a.  The graph compares ids and reads roofs and
    distances, and adds vertices as the pair's slots first appear, so every
    table over the two orbits gives the same doubles.  On one base, (a, b)
    and (b, a) swap only the vertices a and b, so one weight matrix serves
    both, relaxed from each end."""
    if not budgets:
        raise ValueError("need at least one chain budget")
    if min(budgets) < 2:
        raise ValueError("chain budget must be at least 2")
    window, slots, roof, d = table
    si, sj = slots[i], slots[j]
    if reverse and si != sj:
        raise ValueError("a reversed row needs both points on one base")
    ia, ib = si[window], sj[window]
    ua, ub = (h / roof[k] if roof[k] else 0.0 for h, k in ((ha, ia), (hb, ib)))
    rows = np.arange(2 if reverse else 1)   # the relaxation's sources: a, and b if reverse
    if ua == ub and ia == ib:   # one vertex, at vertical length 0
        return ((0.0,) * len(budgets),) * len(rows)

    # vertices (base id, normalized height) -> the image's id, in first-insertion
    # order: a, b, then each base of orbit i, then of orbit j, at heights {0, ua, ub}
    image = dict(zip(si[:-1] + sj[:-1], si[1:] + sj[1:]))
    verts = {(ia, ua): image[ia], (ib, ub): image[ib]}
    grid = sorted({0.0, ua, ub})
    for k, kn in image.items():
        for u in ((0.0,) if roof[k] == 0.0 else grid):
            verts.setdefault((k, u), kn)

    vb, vu = map(np.array, zip(*verts))
    vi = np.array(list(verts.values()))
    up_to = vi[:, None] == vb   # the image of fiber i is fiber j
    ui, uj = vu[:, None], vu
    gap = np.abs(ui - uj)   # zero on the diagonal, which no edge undercuts
    up = (1.0 - vu)[:, None] + vu   # from fiber i up through the roof to fiber j
    # vertical: same fiber, or flowing up through the roof to the next one
    weight = np.where(vb[:, None] == vb, gap,
                      np.where(up_to, up, np.where(up_to.T, up.T, math.inf)))
    # horizontal, within HEIGHT_TOL: distinct bases stay positive where both terms round to 0
    u = 0.5 * (ui + uj)
    d0 = d[vb][:, vb]
    horizontal = np.maximum((1.0 - u) * d0 + u * d[vi][:, vi], np.minimum(d0, _TINY))
    weight = np.minimum(weight, np.where(gap <= HEIGHT_TOL, horizontal, math.inf))
    # period 2: the up edge from the lower vertex index weighs; all else is symmetric already
    weight = np.where(np.tri(len(vb), k=-1, dtype=bool), weight.T, weight)

    # shortest paths from each source: reach[t][s] is the other end's over at most t edges
    dist = weight[rows]   # over one edge
    reach = [[math.inf] * len(rows), dist[rows, 1 - rows].tolist()]
    for _ in range(max(budgets) - 2):
        new = (dist[:, :, None] + weight).min(1)  # the zero diagonal keeps dist
        if not (new < dist).any():  # a fixed point stays fixed
            break
        dist = new
        reach.append(dist[rows, 1 - rows].tolist())
    return tuple(tuple(reach[min(m, len(reach)) - 1][s] for m in budgets) for s in rows)


@dataclass(frozen=True)
class UnitPoint:
    """Point of the unit-roof suspension over the flow's time-1 map."""

    base_point: FlowPoint
    phase: float

    def __post_init__(self):
        if not 0.0 <= self.phase < 1.0:
            raise ValueError("phase must lie in [0, 1)")


class UnitRoofExtension:
    """Factor map from the unit-roof suspension of the time-1 map down to
    the flow itself: (x_hat, s) |-> time-s image of x_hat.  Equivariant with
    the two flows by construction."""

    def __init__(self, f: RoofFunction, max_crossings: int = MAX_CROSSINGS):
        if f.is_singular and admissibility_check(f.profile) != ADMISSIBLE:
            raise InadmissibleRoofError(f"roof {f.spec()} is not admissible")
        self.f = f
        self.max_crossings = max_crossings

    def project(self, p: UnitPoint) -> FlowPoint:
        return flow(p.base_point, p.phase, self.f, self.max_crossings)

    __call__ = project

    def advance(self, p: UnitPoint, t: float) -> UnitPoint:
        """Time-t map of the unit-roof suspension."""
        total = p.phase + t
        n = total // 1.0  # not finite when t is not, which flow rejects
        moved = flow(p.base_point, n, self.f, self.max_crossings)
        return UnitPoint(moved, total - n)


def unit_roof_extension(f: RoofFunction,
                        max_crossings: int = MAX_CROSSINGS) -> UnitRoofExtension:
    return UnitRoofExtension(f, max_crossings)
