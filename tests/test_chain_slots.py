"""Shared slot tables against the per-pair chain graphs they replaced.

``chain_slots`` builds the height-free part of the chain graphs once for a set
of orbits, and ``chain_distances`` one pair's graph from it.  A ``metric``
sample shares one table over its two orbits between all of its queries, the
two of one base from one weight matrix; the separated-set estimate shares one
per time step over all of its points.  Oracles: ``bw_distances_upper`` as it
built one table per pair, and ``separated_entropy_estimate`` as it called it
once per pair and step, both copied verbatim from before the split.
"""

import itertools
import math
import tracemalloc

import numpy as np
import pytest

from singflow import (BitSequence, EntropyReport, FlowPoint, RoofFunction, entropy, flow,
                      flow_point, parse_roof_spec, roof_eval, separated_entropy_estimate,
                      seq_distance)
from singflow.cli import _random_bits
from singflow.roofs import roof_between
from singflow.sequences import _TINY, compare_radius
from singflow.suspension import _CHUNK, HEIGHT_TOL, chain_distances, chain_slots

# the four roofs the metric bench samples, and a truncated one
ROOFS = [parse_roof_spec(s) for s in ("harmonic:1", "power:0.5", "const:1", "logharmonic",
                                      "trunc:0.3:harmonic:1")]


def oracle_bw_distances_upper(a: FlowPoint, b: FlowPoint, f: RoofFunction,
                              budgets: tuple[int, ...], window: int = 3) -> tuple[float, ...]:
    """``bw_distance_upper`` at each of ``budgets``, in order, from one chain
    graph: the t-th relaxation is the distance over at most t edges, so
    budget m reads the iterate that a call with budget m alone stops at.

    Every base and its image under the shift is x.shifted(j) for an endpoint
    base x and -window <= j <= window + 1, so each is a slot: the bytes of
    one orbit's bit row on coordinates -r..r of the shift.  These hold 0 and
    the compare bound of every pair, so equal slots mean equal sequences, a
    base's roof comes from the slot's 1s nearest to 0 (``roof_between``), and
    the first mismatch outward from 0 gives the distance, in one table over
    the distinct bases.
    """
    if not budgets:
        raise ValueError("need at least one chain budget")
    if min(budgets) < 2:
        raise ValueError("chain budget must be at least 2")
    if window < 0:
        raise ValueError("window must be nonnegative")
    orbits = a.base, b.base
    r = compare_radius(*orbits, window + 1)
    # slot o * n + c is orbits[o].shifted(c - window) on -r..r, for the n shifts
    # -window .. window + 1; for c < n - 1 the next slot is its image
    n = 2 * window + 2
    ids: dict = {}   # equal slots, one id; the distinct bases in id order
    base = [ids.setdefault(row[c:c + 2 * r + 1], len(ids))
            for row in (z._row(-r - window, r + window + 2) for z in orbits) for c in range(n)]
    # a slot holds a tail period past each window edge: its 1s nearest to 0 are the sequence's
    roof = [roof_between(f, r, None if (i := key.rfind(1, 0, r + 1)) < 0 else i,
                         None if (j := key.find(1, r + 1)) < 0 else j) for key in ids]
    ia, ib = base[window], base[n + window]
    ua, ub = (p.height / roof[i] if roof[i] else 0.0 for p, i in ((a, ia), (b, ib)))
    if ua == ub and ia == ib:   # one vertex, at vertical length 0
        return (0.0,) * len(budgets)

    # vertices (base id, normalized height) -> the image's id, in first-insertion
    # order: a, b, then each base of orbit 0, then of orbit 1, at heights {0, ua, ub}
    image = dict(zip(base[:n - 1] + base[n:-1], base[1:n] + base[n + 1:]))
    verts = {(ia, ua): image[ia], (ib, ub): image[ib]}
    grid = sorted({0.0, ua, ub})
    for i, j in image.items():
        for u in ((0.0,) if roof[i] == 0.0 else grid):
            verts.setdefault((i, u), j)

    # d[i, j] = d(base i, base j) = 2^-m from their first mismatch in |m| order, a chunk of
    # columns at a time, so temporaries stay nb^2 x _CHUNK for nb bases
    nb, w = len(ids), 2 * r + 1
    keys = np.frombuffer(b"".join(ids), dtype=np.uint8).reshape(nb, w)
    cols = np.empty_like(keys)   # column k holds coordinate (k + 1) // 2 for odd k, else -k // 2
    cols[:, ::2], cols[:, 1::2] = keys[:, r::-1], keys[:, r + 1:]
    dm = np.maximum(np.ldexp(1.0, -(np.arange(1, w + 1) >> 1)), _TINY)   # each column's 2^-|m|
    d = np.zeros((nb, nb))
    for k0 in range(0, w, _CHUNK):
        diff = cols[:, None, k0:k0 + _CHUNK] != cols[:, k0:k0 + _CHUNK]
        # 2^-m of a chunk's first mismatch is at least that of any later chunk
        d = np.maximum(d, np.where(diff.any(-1), dm[k0 + diff.argmax(-1)], 0.0))
        if np.count_nonzero(d) == nb * nb - nb:   # each pair of distinct bases met its own
            break

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

    # shortest paths from a (index 0): reach[t] is b's over at most t edges
    dist = weight[0]   # over one edge
    reach = [math.inf, float(dist[1])]
    for _ in range(max(budgets) - 2):
        new = (dist[:, None] + weight).min(0)  # the zero diagonal keeps dist
        if not (new < dist).any():  # a fixed point stays fixed
            break
        dist = new
        reach.append(float(dist[1]))
    return tuple(reach[min(m, len(reach)) - 1] for m in budgets)


def oracle_bw_distance_upper(a, b, f, chain_budget, window=3):
    return oracle_bw_distances_upper(a, b, f, (chain_budget,), window)[0]


def oracle_separated_entropy_estimate(points, f: RoofFunction, eps: float, n: int,
                                      chain_budget: int, window: int = 3) -> EntropyReport:
    """(1/n) log of the size of a greedily extracted (n, eps)-separated
    subset under the dynamic distance max_{0<=j<n} of the chain upper bound
    along time-j images."""
    if eps <= 0:
        raise ValueError("eps must be positive")
    if n < 1:
        raise ValueError("n must be >= 1")
    pts = list(points)
    trajs = [[flow(p, float(j), f) for j in range(n)] for p in pts]
    kept: list[int] = []
    for i in range(len(pts)):
        separated = True
        for k in kept:
            dyn = 0.0
            for j in range(n):
                d = oracle_bw_distance_upper(trajs[i][j], trajs[k][j], f, chain_budget,
                                             window=window)
                dyn = max(dyn, d)
                if dyn > eps:
                    break
            if dyn <= eps:
                separated = False
                break
        if separated:
            kept.append(i)
    count = len(kept)
    value = 0.0 if count <= 1 else math.log(count) / n
    return EntropyReport(value, "separated_sets")


def _hex(rows):
    return [[d.hex() for d in row] for row in rows]


def _point(rng, f, x):
    return flow_point(f, x, float(rng.uniform(0.0, roof_eval(f, x))))


def test_one_table_per_sample_matches_the_per_pair_oracle_bit_for_bit():
    """Every query of a metric sample, the reversed and diagonal ones
    included, from one table over its two orbits: the oracle's doubles."""
    rng = np.random.default_rng(3101)
    checked = shared = 0
    for f in ROOFS:
        for window in range(4):
            for rep in range(20):
                x, z = _random_bits(rng), _random_bits(rng)
                pa, pb, pc = _point(rng, f, x), _point(rng, f, x), _point(rng, f, z)
                if rep % 5 == 0:   # one vertex for a and b: the zero shortcut, both ways
                    pb = FlowPoint(x, pa.height)
                budgets = tuple(int(m) for m in rng.integers(2, 13, size=int(rng.integers(1, 4))))
                table = chain_slots((x, z), f, window)
                for (i, ha), (j, hb) in (((0, pa.height), (1, pc.height)),
                                         ((0, pb.height), (1, pc.height)),
                                         ((1, pc.height), (0, pa.height)),
                                         ((0, pa.height), (0, pa.height)),
                                         ((1, pc.height), (1, pc.height))):
                    got = chain_distances(table, i, ha, j, hb, budgets)
                    want = oracle_bw_distances_upper(FlowPoint((x, z)[i], ha),
                                                     FlowPoint((x, z)[j], hb), f, budgets, window)
                    assert _hex(got) == _hex([want]), (f.spec(), x, z, i, j, budgets, window)
                    checked += 1
                got = chain_distances(table, 0, pa.height, 0, pb.height, budgets, reverse=True)
                want = [oracle_bw_distances_upper(p, q, f, budgets, window)
                        for p, q in ((pa, pb), (pb, pa))]
                assert _hex(got) == _hex(want), (f.spec(), x, budgets, window)
                shared += 1
    assert checked == 5 * shared == 5 * len(ROOFS) * 4 * 20


def test_every_pair_of_a_set_table_matches_the_oracle():
    """A table over more orbits than a pair, in shuffled order: a radius wider
    than most pairs' own, ids that first appear on a third orbit, and two
    bases that first differ at |m| = 90.  Every ordered pair gets the
    oracle's doubles, on period-2 orbits too, whose up edges both ways
    depend on the vertex order."""
    rng = np.random.default_rng(3105)
    two = BitSequence.periodic((1, 0))
    far, near = BitSequence.from_ones([0, 1, 90]), BitSequence.from_ones([0, 1])
    checked = 0
    for f in ROOFS:
        for rep in range(6):
            shift = int(rng.integers(-3, 4))
            bases = [two.shifted(1), _random_bits(rng), far.shifted(shift), two,
                     near.shifted(shift), _random_bits(rng)]
            bases = [bases[k] for k in rng.permutation(len(bases))]
            heights = [float(rng.uniform(0.0, roof_eval(f, x))) for x in bases]
            window = int(rng.integers(0, 4))
            budgets = tuple(int(m) for m in rng.integers(2, 13, size=2))
            table = chain_slots(bases, f, window)
            for i, j in itertools.product(range(len(bases)), repeat=2):
                got = chain_distances(table, i, heights[i], j, heights[j], budgets)
                want = oracle_bw_distances_upper(FlowPoint(bases[i], heights[i]),
                                                 FlowPoint(bases[j], heights[j]), f, budgets, window)
                assert _hex(got) == _hex([want]), (f.spec(), bases[i], bases[j], budgets, window)
                checked += 1
    assert checked == len(ROOFS) * 6 * 36


def test_a_reversed_row_needs_one_base():
    f = ROOFS[0]
    x, z = BitSequence.from_ones([0]), BitSequence.from_ones([0, 3])
    table = chain_slots((x, z, x), f)
    assert chain_distances(table, 0, 0.5, 2, 0.25, (4,), reverse=True) == \
        chain_distances(table, 0, 0.5, 0, 0.25, (4,), reverse=True)
    with pytest.raises(ValueError, match="one base"):
        chain_distances(table, 0, 0.5, 1, 0.25, (4,), reverse=True)


def _point_sets(rng, f):
    """Seeded point sets: distinct windows on zero tails as the bench draws
    them, the CLI's periodic tails, and a repeated point."""
    for size in (2, 3, 5, 8):
        bits = [BitSequence((1,) + tuple(int(b) for b in rng.integers(0, 2, size=4)) + (1,),
                            int(rng.integers(-3, 4))) for _ in range(size)]
        yield [_point(rng, f, x) for x in bits]
        points = [_point(rng, f, _random_bits(rng)) for _ in range(size)]
        yield points + points[:1]


def test_separated_estimate_matches_the_per_pair_oracle():
    rng = np.random.default_rng(3102)
    checked = 0
    for f in ROOFS:
        for points in _point_sets(rng, f):
            n, budget, window = int(rng.integers(1, 4)), int(rng.integers(2, 7)), int(rng.integers(0, 5))
            for eps in (1e-12, 0.25):
                got = separated_entropy_estimate(points, f, eps, n, budget, window)
                want = oracle_separated_entropy_estimate(points, f, eps, n, budget, window)
                assert (got.method, got.value.hex()) == (want.method, want.value.hex()), \
                    (f.spec(), points, eps, n, budget, window)
                checked += 1
    assert checked == len(ROOFS) * 8 * 2


def test_separated_estimate_builds_a_step_table_when_the_pass_first_reaches_it(monkeypatch):
    """Each step's table holds every point's base, and is built once, the
    first time a comparison reaches that step: at eps = 1e-12 every pair of
    distinct points parts at step 0, at eps = 50 no pair parts."""
    built = []
    monkeypatch.setattr(entropy, "chain_slots",
                        lambda bases, *rest: built.append(len(bases)) or chain_slots(bases, *rest))
    f = ROOFS[0]
    points = [flow_point(f, BitSequence.from_ones(ones), 0.0) for ones in ([0], [0, 3], [1, 2], [-2])]
    for eps, want in ((1e-12, [4]), (50.0, [4, 4, 4])):
        built.clear()
        separated_entropy_estimate(points, f, eps, 3, 4)
        assert built == want, eps
    built.clear()
    separated_entropy_estimate(points[:1], f, 50.0, 3, 4)
    assert built == []


def test_long_window_point_set_matches_the_oracle_across_chunks():
    """Eight points whose bases share their 1s near 0 and first differ near
    |m| = 200: a step's table holds more than 16 bases, so it compares fewer
    columns a step, and its rows span several of them before a pair differs."""
    f = ROOFS[0]
    rng = np.random.default_rng(3103)
    points = [_point(rng, f, BitSequence.from_ones([0, 2, 200 + k, 420])) for k in range(8)]
    bases = [p.base for p in points]
    _, _, roof, d = chain_slots(bases, f, 4)
    nb = len(roof)
    step = _CHUNK * 16 ** 2 // nb ** 2
    assert nb > 16 and step < _CHUNK
    assert 0.0 < d[d > 0].min() < 2.0 ** -(step // 2)   # a first mismatch past the first step
    for eps in (1e-12, 0.25):
        for n in (1, 2):
            got = separated_entropy_estimate(points, f, eps, n, 4, 4)
            want = oracle_separated_entropy_estimate(points, f, eps, n, 4, 4)
            assert got.value.hex() == want.value.hex(), (eps, n)


def test_a_large_set_table_keeps_its_comparison_temporaries_bounded():
    """About 240 bases on rows of about 6,000 columns that differ near 0: a
    step of _CHUNK columns would compare 240^2 x 1024 entries (59 MB of
    booleans); scaled, a step stays within 16^2 x _CHUNK of them."""
    rng = np.random.default_rng(3104)
    bases = [BitSequence.from_ones(sorted({int(k) for k in rng.integers(-8, 9, size=5)})
                                   + [int(rng.integers(2500, 3000))]) for _ in range(24)]
    tracemalloc.start()
    _, slots, roof, d = chain_slots(bases, ROOFS[0], 4)
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    assert len(roof) > 200 and peak < 8e6
    for o, p in ((0, 1), (2, 3), (5, 23)):
        assert d[slots[o][4], slots[p][4]] == seq_distance(bases[o], bases[p])
