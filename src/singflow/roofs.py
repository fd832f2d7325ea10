"""Roof functions over the binary shift.

A roof is either a positive constant or a gap profile: f(x) = g(k_x) where
k_x is the distance from the origin of x to its nearest 1 (g(0) =: g0 on the
cylinder of sequences with a 1 at the origin).  Gap-profile roofs vanish
exactly at the all-zero sequence; the suspension over such a roof is well
defined iff the series sum_k g(k) diverges.

Bernoulli-measure series for these profiles are evaluated with mpmath so
that parameters as small as 1e-12 keep full accuracy; closed forms are used
wherever a family has one.  Every series runs under its own local precision
(``mp.workdps``) and never changes mpmath's global context, and each can
return a derived bound on its error next to its value.
"""

from __future__ import annotations

import functools
import math

import mpmath as mp

from .sequences import INF, MAX_GAP, BitSequence

ADMISSIBLE = "admissible"
INADMISSIBLE = "inadmissible"

# Documented extension of the log-harmonic profile below its natural domain.
LOG_HARMONIC_AT_ONE = 1.0 / math.log(2.0)

# Decimal digits the series and the entropy quotient are evaluated at; the
# log-harmonic series needs only 30 for its doubles and runs at that.
MP_DPS = 40
_LOG_HARMONIC_DPS = 30
_MAX_EXPLICIT_TERMS = 10 ** 6
# mpmath's closed forms (log, polylog) and the few operations around them
# are each good to about an ulp; a generous count for all of them
_CLOSED_FORM_ULPS = 64


class UntaggedTableError(ValueError):
    """A table profile without a tail cannot be classified or extended."""


class ProfileResourceError(RuntimeError):
    """An exact evaluation would need too many explicit terms."""


def _rounding(magnitude, ops: int) -> mp.mpf:
    """Bound on the rounding error of ``ops`` operations on values of at most
    ``magnitude``, at the working precision."""
    return ops * abs(magnitude) * mp.eps


def _series(dps: int):
    """Decorator for ``bernoulli_series``: the decorated method takes lam as
    an mpf and returns (value, absolute error bound).  The public method
    evaluates it under ``dps`` digits and returns the value, or the pair
    with ``with_bound=True``."""
    def decorate(method):
        @functools.wraps(method)
        def bernoulli_series(self, lam, with_bound=False):
            with mp.workdps(dps):
                value, bound = method(self, mp.mpf(lam))
            return (value, bound) if with_bound else value
        return bernoulli_series
    return decorate


def _closed_form(value) -> tuple:
    return value, _rounding(value, _CLOSED_FORM_ULPS)


def _head_swap(head, profile: "GapProfile", lam) -> tuple:
    """(value, bound) of sum_k h(k) x^k, x = (1-lam)^2, where h(k) is the
    k-th of the ``head`` values for k = 1..len(head) and ``profile.value(k)``
    beyond: the profile's series plus the explicit differences of the head.
    The bound is the profile's plus the rounding of the head, whose k-th
    power of x carries k roundings."""
    x = (1 - lam) ** 2
    series, bound = profile.bernoulli_series(lam, with_bound=True)
    diff = magnitude = mp.mpf(0)
    xk = mp.mpf(1)
    m = 0
    for m, v in enumerate(head, start=1):
        xk *= x
        term = (mp.mpf(v) - profile.value(m)) * xk
        diff += term
        magnitude += abs(term)
    value = series + diff
    return value, bound + _rounding(magnitude, 2 * m + 4) + _rounding(value, 1)


def _log_harmonic_derivatives(c, n: int, order: int) -> list:
    """Taylor coefficients at t = n, up to h^order, of the log-harmonic term
    e^{-ct}/(t log t): the product of the series of e^{-c(n+h)}, 1/(n+h) and
    1/log(n+h) = 1/(log n + sum_m (-1)^{m+1} (h/n)^m / m).  The m-th
    derivative at n is m! times the m-th coefficient."""
    decay = [mp.exp(-c * n)]
    inverse = [mp.mpf(1) / n]
    for m in range(1, order + 1):
        decay.append(decay[-1] * -c / m)
        inverse.append(inverse[-1] / -n)
    log_n = mp.log(n)
    # log(n+h) - log n: coefficient m at index m-1 is -n * inverse[m] / m
    log_tail = [-n * inverse[m] / m for m in range(1, order + 1)]
    reciprocal = [1 / log_n]
    for m in range(1, order + 1):
        reciprocal.append(-mp.fdot(log_tail[:m], reciprocal[m - 1::-1]) / log_n)

    def times(a, b):
        return [mp.fdot(a[:m + 1], b[m::-1]) for m in range(order + 1)]
    return times(decay, times(inverse, reciprocal))


def _log_harmonic_integral(c, n: int) -> tuple:
    """(value, bound) of the integral of e^{-ct}/(t log t) over [n, inf).
    After t = e^u it is the integral of e^{-c e^u}/u, whose knee c e^u = 1
    sits at u0 = log(1/c); quad runs on finite breakpoints around it (an
    infinite endpoint on this integrand can stall quad for minutes), and the
    part beyond the last point U is below E1(c e^U)/U < e^{-c e^U}/(c e^U U)."""
    lo = mp.log(n)
    u0 = -mp.log(c)
    points = [lo] + [u for u in (u0 - 3, u0, u0 + 2, u0 + 6) if u > lo]
    value = error = mp.mpf(0)
    if len(points) > 1:
        value, error = mp.quad(lambda u: mp.exp(-c * mp.exp(u)) / u, points, error=True)
    top = c * mp.exp(points[-1])
    return value, error + mp.exp(-top) / (top * points[-1])


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

    def kg_limit(self) -> float:
        """lim_k k*g(k); may be 0 or math.inf."""
        raise NotImplementedError

    def series_diverges(self) -> bool:
        """Whether sum_k g(k) = +inf (decided per family, not numerically)."""
        raise NotImplementedError

    def bernoulli_series(self, lam, with_bound=False):
        """sum_{k>=1} g(k) x^k with x = (1-lam)^2 as an mpf well beyond double
        precision; with ``with_bound=True`` the pair (value, absolute error
        bound)."""
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

    def kg_limit(self):
        return self.l

    def series_diverges(self):
        return True

    @_series(MP_DPS)
    def bernoulli_series(self, lam):
        return _closed_form(-mp.mpf(self.l) * mp.log(_one_minus_x(lam)))

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

    def kg_limit(self):
        if self.alpha < 1:
            return INF
        return 1.0 if self.alpha == 1 else 0.0

    def series_diverges(self):
        return self.alpha <= 1

    @_series(MP_DPS)
    def bernoulli_series(self, lam):
        x = (1 - lam) ** 2
        return _closed_form(mp.polylog(mp.mpf(self.alpha), x))

    def spec(self):
        return f"power:{self.alpha:g}"


class LogHarmonic(GapProfile):
    """g(k) = 1/(k log k) for k >= 2; g(1) uses the documented extension
    1/(1*log 2)."""

    _HEAD = 64          # explicit terms before the Euler-Maclaurin tail
    _EM_TERMS = 10      # Bernoulli-number corrections of the tail

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

    @_series(_LOG_HARMONIC_DPS)
    def bernoulli_series(self, lam):
        """Explicit head for k < N, then the Euler-Maclaurin tail
        sum_{k>=N} g(k) = int_N^inf g + g(N)/2 - sum_j B_2j/(2j)! g^(2j-1)(N) + R
        for g(t) = x^t/(t log t) = e^{-ct}/(t log t).  g is completely
        monotone on t > 1 (a product of e^{-ct}, 1/t and 1/log t), so every
        even derivative is positive and R lies between 0 and the first
        omitted correction, which is the tail's bound."""
        n, terms = self._HEAD, self._EM_TERMS
        x = (1 - lam) ** 2
        c = -2 * mp.log1p(-lam)
        head = mp.mpf(LOG_HARMONIC_AT_ONE) * x
        xk = x
        for k in range(2, n):
            xk *= x
            head += xk / (k * mp.log(k))
        coeffs = _log_harmonic_derivatives(c, n, 2 * terms + 1)
        # B_2j/(2j)! g^(2j-1)(N) = B_2j/(2j) times the (2j-1)-th coefficient
        tail = coeffs[0] / 2 - mp.fsum(mp.bernoulli(2 * j) / (2 * j) * coeffs[2 * j - 1]
                                       for j in range(1, terms + 1))
        omitted = abs(mp.bernoulli(2 * terms + 2) / (2 * terms + 2) * coeffs[2 * terms + 1])
        integral, integral_bound = _log_harmonic_integral(c, n)
        value = head + tail + integral
        return value, omitted + integral_bound + _rounding(value, 4 * n)

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

    @_series(MP_DPS)
    def bernoulli_series(self, lam):
        x = (1 - lam) ** 2
        rx = mp.mpf(self.rho) * x
        return _closed_form(mp.mpf(self.c) * rx / (1 - rx))

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

    @_series(MP_DPS)
    def bernoulli_series(self, lam):
        x = (1 - lam) ** 2
        # c * x/(1-x) with 1-x = lam(2-lam) exactly
        return _closed_form(mp.mpf(self.c) * x / _one_minus_x(lam))

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

    @_series(MP_DPS)
    def bernoulli_series(self, lam):
        return mp.mpf(0), mp.mpf(0)

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

    @_series(MP_DPS)
    def bernoulli_series(self, lam):
        if self.tail is None:
            raise UntaggedTableError("table profile has no declared tail")
        return _head_swap(self.table, self.tail, lam)

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

    @_series(MP_DPS)
    def bernoulli_series(self, lam):
        kstar, base_below = self._crossover()
        below = self.base if base_below else Harmonic(self.a, g0=self.g0)
        if kstar is None:
            return below.bernoulli_series(lam, with_bound=True)
        above = Harmonic(self.a, g0=self.g0) if base_below else self.base
        if kstar > _MAX_EXPLICIT_TERMS:
            raise ProfileResourceError(
                f"truncation crossover at k={kstar} exceeds the explicit-term cap")
        return _head_swap((below.value(k) for k in range(1, kstar)), above, lam)

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
    """f(T^pos x); gap-profile roofs return ``value_at_gap`` of the distance
    from coordinate pos to the nearest 1 (infinite beyond MAX_GAP)."""
    if f.is_constant:
        return f.constant
    a, b = x.ones_around(pos)
    k = min(INF if a is None else pos - a, INF if b is None else b - pos)
    return f.value_at_gap(INF if k > MAX_GAP else k)


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

