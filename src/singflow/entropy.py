"""Entropy arithmetic for the suspension flow.

Bernoulli base entropies are exact; roof integrals use the exact law
f(u) = g(k_u), which puts weight lam*(2-lam)*(1-lam)^(2k-1) on g(k) and
weight lam on g0.  Abramov's quotient turns base entropy into flow entropy,
and the closed-form symbolic-extension value adds w/(2l) for the weight w
sitting on the singular fiber.  Word counts for the fiber subshifts are
exact integers by unique parsing of equal-length generators.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass

import mpmath as mp

from .roofs import _REAL, MP_DPS, GapProfile, ParameterDomainError, RoofFunction
from .sequences import _TINY, INF
from .suspension import chain_distances, chain_slots, flow


@dataclass(frozen=True)
class EntropyReport:
    value: float
    method: str
    error_bound: float | None = None
    flags: tuple = ()


@dataclass(frozen=True)
class MeasureAtom:
    kind: str           # "bernoulli" | "dirac"
    weight: float
    lam: float | None = None

    def __post_init__(self):
        if self.kind not in ("bernoulli", "dirac"):
            raise ValueError(f"unknown atom kind {self.kind!r}")
        if self.weight < 0:
            raise ValueError("weights must be nonnegative")
        if self.kind == "bernoulli" and not (self.lam is not None and 0 < self.lam < 1):
            raise ValueError("Bernoulli parameter must lie strictly in (0,1)")


@dataclass(frozen=True)
class FlowMeasureSpec:
    """Finite mixture of lifted Bernoulli measures and the point mass at the
    singular fiber.  Weights must sum to 1 within 1e-12."""

    atoms: tuple

    def __post_init__(self):
        total = sum(a.weight for a in self.atoms)
        if abs(total - 1.0) > 1e-12:
            raise ValueError(f"weights sum to {total}, not 1")

    @classmethod
    def mixture(cls, *atoms: MeasureAtom) -> "FlowMeasureSpec":
        return cls(tuple(atoms))

    @classmethod
    def theta_of_bernoulli(cls, lam: float) -> "FlowMeasureSpec":
        return cls((MeasureAtom("bernoulli", 1.0, lam),))

    @classmethod
    def dirac_at_singularity(cls) -> "FlowMeasureSpec":
        return cls((MeasureAtom("dirac", 1.0),))

    def singular_weight(self) -> float:
        return sum(a.weight for a in self.atoms if a.kind == "dirac")


def shannon_binary(lam: float) -> float:
    """-lam log lam - (1-lam) log(1-lam), natural log, 0 log 0 = 0."""
    if not (isinstance(lam, _REAL) and 0.0 <= lam <= 1.0):
        raise ParameterDomainError("Bernoulli parameter must lie in [0,1]")
    if lam in (0.0, 1.0):
        return 0.0
    return -lam * math.log(lam) - (1.0 - lam) * math.log1p(-lam)


_ULP = 2.0 ** -53  # unit roundoff of a double
# _TINY, 2^-1074: below 2^-1022 a rounding to a double errs by up to half of it


def _integral_with_bound(lam: float, g: GapProfile) -> tuple[float, float]:
    """The roof integral as a double and a derived bound on its error."""
    if not (isinstance(lam, _REAL) and 0.0 < lam < 1.0):
        raise ParameterDomainError("Bernoulli parameter must lie strictly in (0,1)")
    with mp.workdps(MP_DPS):
        mlam = mp.mpf(lam)
        series, series_bound = g.bernoulli_series(mlam, with_bound=True)
        weight = mlam * (2 - mlam) / (1 - mlam)
        total = mp.mpf(g.g0) * mlam + weight * series
        value = float(total)
        # the series' bound carried through its weight, a few roundings of
        # the assembly, and the roundings to a double of the value and the bound
        bound = float(weight * series_bound + 8 * abs(total) * mp.eps) + abs(value) * _ULP + _TINY
    return value, bound


def roof_integral_bernoulli(lam: float, g: GapProfile) -> float:
    """Exact-series value of the roof integral against the Bernoulli(lam)
    measure: g0*lam + sum_{k>=1} g(k) lam(2-lam)(1-lam)^(2k-1)."""
    value, _ = _integral_with_bound(lam, g)
    return value


def abramov(h_base: float, roof_integral: float) -> float:
    """Base entropy over roof integral."""
    if roof_integral <= 0:
        raise ValueError("roof integral must be positive")
    return h_base / roof_integral


def flow_entropy_bernoulli(lam: float, g: GapProfile) -> EntropyReport:
    """Entropy of the lifted Bernoulli(lam) measure under the profile-g roof.
    ``error_bound`` is the value times the integral's relative bound plus
    the rounding of ``shannon_binary`` (5 units: each of its terms is a
    logarithm within an ulp and two or three more roundings, and the terms
    share a sign) and one unit for the quotient; below 2^-1022 each of the 5
    may err by _TINY instead, which the quotient divides by the integral."""
    integral, bound = _integral_with_bound(lam, g)
    value = abramov(shannon_binary(lam), integral)
    rel = bound / integral + 6 * _ULP
    return EntropyReport(value, g.series_kind, error_bound=abs(value) * rel + 5 * _TINY / integral)


@dataclass(frozen=True)
class ScanRow:
    lam: float
    integral: float
    entropy: float


@dataclass(frozen=True)
class ScanResult:
    """Entropy scan along a decreasing grid of Bernoulli parameters, with
    trend diagnostics against the declared limit at the singularity."""

    profile_spec: str
    rows: tuple
    target: float | None       # 1/(2l) for finite l, 0.0 for l = inf, None: divergent
    monotone_toward_target: bool
    final_abs_error: float | None

    def to_csv(self, fh, seed: int | None = None) -> None:
        fh.write(f"# profile={self.profile_spec}\n")
        if seed is not None:
            fh.write(f"# seed={seed}\n")
        fh.write("lambda,integral,entropy,target,abs_error\n")
        for row in self.rows:
            if self.target is None:
                tgt, err = "divergent", ""
            else:
                tgt = repr(self.target)
                err = repr(abs(row.entropy - self.target))
            fh.write(f"{row.lam!r},{row.integral!r},{row.entropy!r},{tgt},{err}\n")

    def to_json(self) -> str:
        payload = {
            "profile": self.profile_spec,
            "target": self.target,
            "monotone_toward_target": self.monotone_toward_target,
            "final_abs_error": self.final_abs_error,
            "rows": [{"lambda": r.lam, "integral": r.integral, "entropy": r.entropy}
                     for r in self.rows],
        }
        return json.dumps(payload, indent=2, sort_keys=True)


def singular_limit_scan(g: GapProfile, lam_grid) -> ScanResult:
    """Row per lambda of (integral, entropy), plus the trend against the
    declared limit: 1/(2l) for finite positive l = lim k g(k), 0 for l = inf,
    divergence for l = 0."""
    grid = list(lam_grid)
    if not grid or any(not 0 < lam < 1 for lam in grid):
        raise ValueError("grid must be nonempty inside (0,1)")
    if any(a <= b for a, b in zip(grid, grid[1:])):
        raise ValueError("grid must be strictly decreasing")
    rows = []
    for lam in grid:
        integral, _ = _integral_with_bound(lam, g)
        rows.append(ScanRow(lam, integral, abramov(shannon_binary(lam), integral)))
    l = g.kg_limit()
    ents = [r.entropy for r in rows]
    if l == INF:
        target = 0.0
        monotone = all(a > b for a, b in zip(ents, ents[1:]))
    elif l == 0:
        target = None
        monotone = all(a < b for a, b in zip(ents, ents[1:]))
    else:
        target = 1.0 / (2.0 * l)
        monotone = all(abs(a - target) > abs(b - target)
                       for a, b in zip(ents, ents[1:]))
    final_err = None if target is None else abs(ents[-1] - target)
    return ScanResult(g.spec(), tuple(rows), target, monotone, final_err)


# ---------------------------------------------------------------------------
# Word counting for block-concatenation subshifts

def word_count(words, n: int) -> int:
    """Exact number of distinct length-n concatenations of the given words,
    which must share one length L.  Such words parse uniquely, so d distinct
    words make d^(n/L) words of length n when L divides n, and none
    otherwise."""
    if n < 0:
        raise ValueError("length must be nonnegative")
    distinct = {tuple(w) for w in words}
    lengths = {len(w) for w in distinct}
    if not distinct or 0 in lengths:
        raise ValueError("need nonempty words")
    if len(lengths) > 1:
        raise ValueError("words must share one length")
    (L,) = lengths
    return len(distinct) ** (n // L) if n % L == 0 else 0


def sft_entropy_wordcount(allowed_two_letter_words, n: int) -> EntropyReport:
    """(1/n) log N(n) where N(n) is the exact count of admissible words of
    length n in the subshift generated by the given 2-letter words."""
    if n < 1:
        raise ValueError("word length must be >= 1")
    words = tuple(map(tuple, allowed_two_letter_words))  # one pass over an iterator
    if any(len(w) != 2 for w in words):
        raise ValueError("generators must be 2-letter words")
    count = word_count(words, n)
    if count == 0:
        return EntropyReport(0.0, "word_count", flags=("empty-language",))
    # exact integer count; math.log takes ints of any size
    return EntropyReport(math.log(count) / n, "word_count")


def sex_entropy_formula(measure: FlowMeasureSpec, l: float, h_of_base_part: float) -> float:
    """Closed-form symbolic-extension entropy: affine in the measure, worth
    h on the nonsingular part and 1/(2l) on the singular atom."""
    if not 0 < l < INF:
        raise ValueError("needs a finite positive limit l")
    w = measure.singular_weight()
    return h_of_base_part * (1.0 - w) + w / (2.0 * l)


def separated_entropy_estimate(points, f: RoofFunction, eps: float, n: int,
                               chain_budget: int, window: int = 3) -> EntropyReport:
    """(1/n) log of the size of a greedily extracted (n, eps)-separated
    subset under the dynamic distance max_{0<=j<n} of the chain upper bound
    along time-j images.  The pairs of step j share one ``chain_slots`` table
    of every point's time-j base, built when the pass first reaches step j;
    like any table over a pair's orbits, it gives ``bw_distance_upper``'s doubles."""
    if eps <= 0:
        raise ValueError("eps must be positive")
    if n < 1:
        raise ValueError("n must be >= 1")
    pts = list(points)
    trajs = [[flow(p, float(j), f) for j in range(n)] for p in pts]
    table = functools.cache(lambda j: chain_slots([t[j].base for t in trajs], f, window))
    kept: list[int] = []
    for i in range(len(pts)):
        separated = True
        for k in kept:
            dyn = 0.0
            for j in range(n):
                d = chain_distances(table(j), i, trajs[i][j].height, k, trajs[k][j].height,
                                    (chain_budget,))[0][0]
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
