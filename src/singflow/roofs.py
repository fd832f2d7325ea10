"""Roof functions over the binary shift.

A roof is either a positive constant or a gap profile: f(x) = g(k_x) where
k_x is the distance from the origin of x to its nearest 1 (g(0) =: g0 on the
cylinder of sequences with a 1 at the origin).  Gap-profile roofs vanish
exactly at the all-zero sequence; the suspension over such a roof is well
defined iff the series sum_k g(k) diverges.

Bernoulli-measure series for these profiles are evaluated with mpmath so
that parameters as small as 1e-12 keep full accuracy; closed forms are used
wherever a family has one.
"""

from __future__ import annotations

import math

import mpmath as mp

from .sequences import INF, BitSequence

ADMISSIBLE = "admissible"
INADMISSIBLE = "inadmissible"

# Documented extension of the log-harmonic profile below its natural domain.
LOG_HARMONIC_AT_ONE = 1.0 / math.log(2.0)

_MP_DPS = 40
_MAX_EXPLICIT_TERMS = 10 ** 6


class UntaggedTableError(ValueError):
    """A table profile without a tail cannot be classified or extended."""


class ProfileResourceError(RuntimeError):
    """An exact evaluation would need too many explicit terms."""


def _mp(x):
    return mp.mpf(x)


def _one_minus_x(lam: mp.mpf) -> mp.mpf:
    # 1 - (1-lam)^2, evaluated without cancellation
    return lam * (2 - lam)


class GapProfile:
    """Base class: positive values g(k) for k >= 1 tending to 0, plus the
    origin value g0."""

    g0 = 1.0
    series_kind = "series"  # how bernoulli_series is evaluated

    def value(self, k: int) -> float:
        raise NotImplementedError

    def values(self, ks):
        import numpy as np

        return np.array([self.value(int(k)) for k in ks], dtype=float)

    def kg_limit(self) -> float:
        """lim_k k*g(k); may be 0 or math.inf."""
        raise NotImplementedError

    def series_diverges(self) -> bool:
        """Whether sum_k g(k) = +inf (decided per family, not numerically)."""
        raise NotImplementedError

    def bernoulli_series(self, lam) -> mp.mpf:
        """sum_{k>=1} g(k) x^k with x = (1-lam)^2, full precision."""
        raise NotImplementedError

    def spec(self) -> str:
        raise NotImplementedError

    def __repr__(self):
        return f"<GapProfile {self.spec()}>"


class Harmonic(GapProfile):
    """g(k) = l/k."""

    series_kind = "closed_form"

    def __init__(self, l: float = 1.0, g0: float = 1.0):
        if not 0 < l < INF:
            raise ValueError("harmonic scale must be positive and finite")
        self.l = float(l)
        self.g0 = float(g0)

    def value(self, k):
        return self.l / k

    def values(self, ks):
        return self.l / ks

    def kg_limit(self):
        return self.l

    def series_diverges(self):
        return True

    def bernoulli_series(self, lam):
        lam = _mp(lam)
        return -_mp(self.l) * mp.log(_one_minus_x(lam))

    def spec(self):
        return f"harmonic:{self.l:g}"


class Power(GapProfile):
    """g(k) = k^(-alpha)."""

    series_kind = "closed_form"  # polylogarithm

    def __init__(self, alpha: float, g0: float = 1.0):
        if not 0 < alpha < INF:
            raise ValueError("power exponent must be positive and finite")
        self.alpha = float(alpha)
        self.g0 = float(g0)

    def value(self, k):
        return k ** (-self.alpha)

    def values(self, ks):
        return ks ** (-self.alpha)

    def kg_limit(self):
        if self.alpha < 1:
            return INF
        return 1.0 if self.alpha == 1 else 0.0

    def series_diverges(self):
        return self.alpha <= 1

    def bernoulli_series(self, lam):
        lam = _mp(lam)
        x = (1 - lam) ** 2
        return mp.polylog(_mp(self.alpha), x)

    def spec(self):
        return f"power:{self.alpha:g}"


class LogHarmonic(GapProfile):
    """g(k) = 1/(k log k) for k >= 2; g(1) uses the documented extension
    1/(1*log 2)."""

    _HEAD = 1000  # explicit terms before the Euler-Maclaurin tail

    def __init__(self, g0: float = 1.0):
        self.g0 = float(g0)

    def value(self, k):
        if k == 1:
            return LOG_HARMONIC_AT_ONE
        return 1.0 / (k * math.log(k))

    def kg_limit(self):
        return 0.0

    def series_diverges(self):
        return True

    def bernoulli_series(self, lam):
        lam = _mp(lam)
        x = (1 - lam) ** 2
        head = _mp(LOG_HARMONIC_AT_ONE) * x
        head += mp.fsum(mp.power(x, k) / (k * mp.log(k)) for k in range(2, self._HEAD))
        tail = mp.sumem(lambda t: mp.power(x, t) / (t * mp.log(t)), [self._HEAD, mp.inf])
        return head + tail

    def spec(self):
        return "logharmonic"


class Geometric(GapProfile):
    """g(k) = c * rho^k, 0 < rho < 1."""

    series_kind = "closed_form"

    def __init__(self, rho: float, c: float = 1.0, g0: float = 1.0):
        if not 0 < rho < 1:
            raise ValueError("geometric ratio must lie in (0,1)")
        if not 0 < c < INF:
            raise ValueError("geometric scale must be positive and finite")
        self.rho = float(rho)
        self.c = float(c)
        self.g0 = float(g0)

    def value(self, k):
        return self.c * self.rho ** k

    def kg_limit(self):
        return 0.0

    def series_diverges(self):
        return False

    def bernoulli_series(self, lam):
        lam = _mp(lam)
        x = (1 - lam) ** 2
        rx = _mp(self.rho) * x
        return _mp(self.c) * rx / (1 - rx)

    def spec(self):
        return f"geometric:{self.rho:g}:{self.c:g}"


class ConstantProfile(GapProfile):
    """g == c; with g0 = c this is the constant roof written as a profile."""

    series_kind = "closed_form"

    def __init__(self, c: float, g0: float | None = None):
        if not 0 < c < INF:
            raise ValueError("constant profile must be positive and finite")
        self.c = float(c)
        self.g0 = float(c if g0 is None else g0)

    def value(self, k):
        return self.c

    def kg_limit(self):
        return INF

    def series_diverges(self):
        return True

    def bernoulli_series(self, lam):
        lam = _mp(lam)
        x = (1 - lam) ** 2
        # c * x/(1-x) with 1-x = lam(2-lam) exactly
        return _mp(self.c) * x / _one_minus_x(lam)

    def spec(self):
        return f"constprofile:{self.c:g}"


class ZeroProfile(GapProfile):
    """g == 0 away from the origin cylinder."""

    series_kind = "closed_form"

    def __init__(self, g0: float = 1.0):
        self.g0 = float(g0)

    def value(self, k):
        return 0.0

    def kg_limit(self):
        return 0.0

    def series_diverges(self):
        return False

    def bernoulli_series(self, lam):
        return mp.mpf(0)

    def spec(self):
        return "zero"


class Table(GapProfile):
    """Explicit values for k = 1..len(values); beyond that the declared tail
    profile takes over.  Without a tail the table cannot be classified or
    evaluated past its end."""

    def __init__(self, values, tail: GapProfile | None = None, g0: float = 1.0):
        self.table = tuple(float(v) for v in values)
        if any(v < 0 for v in self.table):
            raise ValueError("table values must be nonnegative")
        self.tail = tail
        self.g0 = float(g0)

    def value(self, k):
        if 1 <= k <= len(self.table):
            return self.table[k - 1]
        if self.tail is None:
            raise UntaggedTableError(
                "table profile queried past its end and no tail is declared")
        return self.tail.value(k)

    def kg_limit(self):
        if self.tail is None:
            raise UntaggedTableError("table profile has no declared tail")
        return self.tail.kg_limit()

    def series_diverges(self):
        if self.tail is None:
            raise UntaggedTableError(
                "admissibility of a table profile needs a declared tail")
        return self.tail.series_diverges()

    def bernoulli_series(self, lam):
        if self.tail is None:
            raise UntaggedTableError("table profile has no declared tail")
        lam = _mp(lam)
        x = (1 - lam) ** 2
        m = len(self.table)
        head = mp.fsum(_mp(v) * mp.power(x, k) for k, v in enumerate(self.table, start=1))
        tail_full = self.tail.bernoulli_series(lam)
        tail_head = mp.fsum(_mp(self.tail.value(k)) * mp.power(x, k) for k in range(1, m + 1))
        return head + (tail_full - tail_head)

    def spec(self):
        tail = "?" if self.tail is None else self.tail.spec()
        return f"table[{len(self.table)}]+{tail}"


class Truncated(GapProfile):
    """Pointwise truncation min(g(k), a/k)."""

    def __init__(self, base: GapProfile, a: float):
        if not 0 < a < INF:
            raise ValueError("truncation level must be positive and finite")
        if isinstance(base, Geometric):
            raise TypeError("truncation needs a base with monotone k*g(k)")
        if isinstance(base, Table):
            h = [k * v for k, v in enumerate(base.table, start=1)]
            up = all(x <= y for x, y in zip(h, h[1:]))
            down = all(x >= y for x, y in zip(h, h[1:]))
            if not (up or down):
                raise TypeError("truncation needs a base with monotone k*g(k)")
        self.base = base
        self.a = float(a)
        self.g0 = base.g0

    def value(self, k):
        return min(self.base.value(k), self.a / k)

    def kg_limit(self):
        return min(self.base.kg_limit(), self.a)

    def series_diverges(self):
        if self.kg_limit() > 0:
            return True
        # limit 0 < a means the base branch wins eventually
        return self.base.series_diverges()

    def _crossover(self) -> tuple[int | None, bool]:
        """Smallest k at which the active branch flips (None if it never
        does), and whether the base branch is the one active below it.
        k*g(k) is monotone for every supported base, so a doubling search
        plus bisection is exact."""
        base_below = self.base.value(1) * 1 <= self.a

        def same_branch(k):
            return (self.base.value(k) * k <= self.a) == base_below

        hi = 1
        while same_branch(hi):
            hi *= 2
            if hi > 2 ** 62:
                return None, base_below
        lo = hi // 2
        while hi - lo > 1:
            mid = (lo + hi) // 2
            if same_branch(mid):
                lo = mid
            else:
                hi = mid
        return hi, base_below

    def bernoulli_series(self, lam):
        lam = _mp(lam)
        x = (1 - lam) ** 2
        kstar, base_below = self._crossover()
        below = self.base if base_below else Harmonic(self.a, g0=self.g0)
        if kstar is None:
            return below.bernoulli_series(lam)
        above = Harmonic(self.a, g0=self.g0) if base_below else self.base
        if kstar > _MAX_EXPLICIT_TERMS:
            raise ProfileResourceError(
                f"truncation crossover at k={kstar} exceeds the explicit-term cap")
        head = mp.fsum(_mp(below.value(k)) * mp.power(x, k) for k in range(1, kstar))
        above_head = mp.fsum(_mp(above.value(k)) * mp.power(x, k) for k in range(1, kstar))
        return head + (above.bernoulli_series(lam) - above_head)

    def spec(self):
        return f"trunc:{self.a:g}:{self.base.spec()}"


def admissibility_check(g: GapProfile) -> str:
    """Classify the suspension over g as well defined or not, by the
    divergence of sum_k g(k) decided symbolically per family."""
    return ADMISSIBLE if g.series_diverges() else INADMISSIBLE


class RoofFunction:
    """Constant roof, or a gap-profile roof f(x) = g(k_x) vanishing at the
    all-zero sequence."""

    def __init__(self, *, constant: float | None = None, profile: GapProfile | None = None):
        if (constant is None) == (profile is None):
            raise ValueError("exactly one of constant/profile must be given")
        if constant is not None and not 0 < constant < INF:
            raise ValueError("constant roofs must be positive and finite")
        self.constant = float(constant) if constant is not None else None
        self.profile = profile

    @classmethod
    def const(cls, c: float) -> "RoofFunction":
        return cls(constant=c)

    @classmethod
    def from_profile(cls, g: GapProfile) -> "RoofFunction":
        return cls(profile=g)

    @classmethod
    def truncated(cls, g: GapProfile, a: float) -> "RoofFunction":
        return cls(profile=Truncated(g, a))

    @property
    def is_constant(self) -> bool:
        return self.constant is not None

    @property
    def is_singular(self) -> bool:
        return self.profile is not None

    def value_at_gap(self, k) -> float:
        """Roof value on the set where the nearest 1 sits at distance k
        (k = 0 on the origin cylinder, inf at the all-zero sequence)."""
        if self.is_constant:
            return self.constant
        if k == INF:
            return 0.0
        if k == 0:
            return self.profile.g0
        return self.profile.value(k)

    def spec(self) -> str:
        if self.is_constant:
            return f"const:{self.constant:g}"
        return self.profile.spec()

    def __repr__(self):
        return f"<RoofFunction {self.spec()}>"


def roof_eval(f: RoofFunction, x: BitSequence, pos: int = 0) -> float:
    """f(T^pos x); gap-profile roofs return g(k) with k the distance from
    coordinate pos to the nearest 1, 0 exactly at the all-zero sequence."""
    if f.is_constant:
        return f.constant
    if x.at(pos) == 1:
        return f.profile.g0
    k = x.gap_pair_at(pos)
    return f.value_at_gap(min(k.k_minus, k.k_plus))


# Mini-language for roofs:  const:c | harmonic:l | power:alpha | logharmonic
# | trunc:a:<profile>

class RoofSpecError(ValueError):
    """Malformed roof specification string."""


def parse_profile_spec(text: str) -> GapProfile:
    parts = text.strip().split(":")
    head = parts[0].lower()
    try:
        if head == "harmonic" and len(parts) == 2:
            return Harmonic(float(parts[1]))
        if head == "power" and len(parts) == 2:
            return Power(float(parts[1]))
        if head == "logharmonic" and len(parts) == 1:
            return LogHarmonic()
        if head == "trunc" and len(parts) >= 3:
            return Truncated(parse_profile_spec(":".join(parts[2:])), float(parts[1]))
    except ValueError as exc:
        raise RoofSpecError(f"bad profile spec {text!r}: {exc}") from exc
    raise RoofSpecError(f"unknown profile spec {text!r}")


def parse_roof_spec(text: str) -> RoofFunction:
    parts = text.strip().split(":")
    if parts[0].lower() == "const":
        if len(parts) != 2:
            raise RoofSpecError(f"bad roof spec {text!r}")
        try:
            return RoofFunction.const(float(parts[1]))
        except ValueError as exc:
            raise RoofSpecError(f"bad roof spec {text!r}: {exc}") from exc
    return RoofFunction.from_profile(parse_profile_spec(text))


mp.mp.dps = max(mp.mp.dps, _MP_DPS)
