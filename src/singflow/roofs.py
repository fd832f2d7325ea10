"""Roof functions over the binary shift.

A roof is either a positive constant or a gap profile: f(x) = g(k_x) where
k_x is the distance from the origin of x to its nearest 1 (g(0) =: g0 on the
cylinder of sequences with a 1 at the origin).  Gap-profile roofs vanish
exactly at the all-zero sequence; the suspension over such a roof is well
defined iff the series sum_k g(k) diverges.

Bernoulli-measure series for these profiles are evaluated with mpmath so
that parameters far below 1e-12 keep full accuracy; closed forms are used
wherever a family has one, the power series near x = 1 sums the expansion of
the polylogarithm in c = -log x from zeta values kept per exponent, and the
log-harmonic tail integral runs on fixed Gauss-Legendre panels.  Every
series runs under its own local precision (``mp.workdps``) and never changes
mpmath's global context, and each can return a derived bound on its error
next to its value.
"""

from __future__ import annotations

import functools
import math
import numbers
import operator

import mpmath as mp

from .sequences import INF, MAX_GAP, BitSequence, _last_true

ADMISSIBLE = "admissible"
INADMISSIBLE = "inadmissible"

# Documented extension of the log-harmonic profile below its natural domain.
LOG_HARMONIC_AT_ONE = 1.0 / math.log(2.0)

# Decimal digits the series and the entropy quotient are evaluated at; the
# log-harmonic series needs only 30 for its doubles and runs at that.
MP_DPS = 40
_LOG_HARMONIC_DPS = 30
_MAX_EXPLICIT_TERMS = 10 ** 6
# mpmath's closed forms (log) and the few operations around them are each
# good to about an ulp; a generous count for all of them
_CLOSED_FORM_ULPS = 64
_REAL = (float, mp.mpf, numbers.Real)   # concrete types first: an ABC check costs about 1 us


class UntaggedTableError(ValueError):
    """A table profile without a tail cannot be classified or extended."""


class ProfileResourceError(RuntimeError):
    """An exact evaluation would need too many explicit terms."""


class ParameterDomainError(ValueError):
    """A Bernoulli parameter outside its domain, or not a real number."""


def _rounding(magnitude, ops: int) -> mp.mpf:
    """Bound on the rounding error of ``ops`` operations on values of at most
    ``magnitude``, at the working precision."""
    return ops * abs(magnitude) * mp.eps


def _series(dps: int):
    """Decorator for ``bernoulli_series``: the decorated method takes lam as
    an mpf and returns (value, absolute error bound).  The public method
    evaluates it under ``dps`` digits and returns the value, or the pair
    with ``with_bound=True``, for a real lam in (0, 1) only."""
    def decorate(method):
        @functools.wraps(method)
        def bernoulli_series(self, lam, with_bound=False):
            if not (isinstance(lam, _REAL) and 0 < lam < 1):
                raise ParameterDomainError(f"Bernoulli parameter {lam!r} is not a real in (0,1)")
            with mp.workdps(dps):
                value, bound = method(self, mp.mpf(lam))
            return (value, bound) if with_bound else value
        return bernoulli_series
    return decorate


def _closed_form(value) -> tuple:
    return value, _rounding(value, _CLOSED_FORM_ULPS)


def _horner(coefficients, x) -> mp.mpf:
    """sum_i C_i x^(N-1-i) 2^-B for N integers C_i, highest degree first, at
    the exact mpf x >= 0, B = prec + _GUARD: Horner's rule on integers in
    units of 2^-B, one floor a step, converted to mpf once.  Each floor
    loses less than a unit, times x^j for the j steps after it."""
    man, exp = x.man << max(x.exp, 0), min(x.exp, 0)
    total = 0
    for coefficient in coefficients:
        total = (total * man >> -exp) + coefficient
    return mp.ldexp(total, -mp.mp.prec - _GUARD)


def _head_swap(head, profile: "GapProfile", lam) -> tuple:
    """(value, bound) of sum_k h(k) x^k, x = (1-lam)^2, where h(k) is the
    k-th of the m ``head`` values for k = 1..m and ``profile.value(k)``
    beyond: the profile's series plus x sum_k d_k x^(k-1), d_k = h(k) -
    profile.value(k), by ``_horner`` on D_k = floor(h(k) 2^B) -
    floor(value(k) 2^B), within a unit of d_k 2^B.  At the rounded x the m
    coefficients and m-1 floors cost under 2m units of 2^-B.  x's three
    roundings move x^k by 1.5k eps, and the conversion and the product one
    more: (2m + 2) eps sum_k |d_k| x^k, and the profile's bound."""
    x = (1 - lam) ** 2
    series, bound = profile.bernoulli_series(lam, with_bound=True)
    bits = mp.mp.prec + _GUARD
    m = len(head)
    pairs = list(zip(reversed(head), map(profile.value, range(m, 0, -1))))
    try:
        diffs = [math.floor(math.ldexp(v, bits)) - math.floor(math.ldexp(w, bits)) for v, w in pairs]
    except OverflowError:  # a value of 2^(1024-B) or more: mpf scales it exactly
        diffs = [int(mp.ldexp(v, bits)) - int(mp.ldexp(w, bits)) for v, w in pairs]
    magnitude = x * _horner(map(abs, diffs), x)
    value = series + x * _horner(diffs, x)
    return value, bound + _rounding(magnitude, 2 * m + 2) + mp.ldexp(2 * m * x, -bits) \
        + _rounding(value, 1)


@functools.cache
def _log_harmonic_parts(n: int, terms: int, prec: int) -> tuple:
    """The lambda-free parts of the log-harmonic series at ``prec`` bits, made
    on first use: g(k) for 1 <= k < n, and the Euler-Maclaurin corrections at
    t = n of e^{-ct}/(t log t) over e^{-cn} as two polynomials in y = -c
    (highest degree first; ``_log_harmonic_ints`` keeps them as integers).
    The Taylor coefficients F_m of F = 1/(t log t) at n invert those of t log t,
    G_0 = n log n, G_1 = log n + 1 and G_m = (-1)^m/(m(m-1) n^(m-1)) for
    m >= 2: F_0 = 1/G_0 and F_m = -(sum_{i=1..m} G_i F_(m-i))/G_0.  The m-th
    Taylor coefficient of e^{-c(n+h)} F(n+h) is e^{-cn} sum_i y^i/i! F_(m-i),
    so F(n)/2 - sum_{j<=terms} B_2j/(2j) times coefficient 2j-1 and the first
    omitted correction, B_2J/(2J) times coefficient 2J-1 with J = terms + 1,
    are polynomials in y with lambda-free coefficients."""
    head = [mp.mpf(LOG_HARMONIC_AT_ONE)] + [1 / (k * mp.log(k)) for k in range(2, n)]
    with mp.workprec(prec + 10):  # guard bits: each F_m carries the rounding of all before it
        log_n = mp.log(n)
        g = [n * log_n, log_n + 1] + [
            mp.mpf((-1) ** m) / (m * (m - 1) * n ** (m - 1)) for m in range(2, 2 * terms + 2)]
        f = [1 / g[0]]
        for m in range(1, 2 * terms + 2):
            f.append(-mp.fdot(g[1:m + 1], f[::-1]) / g[0])
    beta = [None] + [mp.bernoulli(2 * j) / (2 * j) for j in range(1, terms + 2)]
    corrections = [f[0] / 2] + [0] * (2 * terms - 1)
    for j in range(1, terms + 1):
        for i in range(2 * j):
            corrections[i] -= beta[j] * f[2 * j - 1 - i]
    omitted = [beta[-1] * f[2 * terms + 1 - i] for i in range(2 * terms + 2)]
    return (head,) + tuple([a / mp.factorial(i) for i, a in enumerate(poly)][::-1]
                           for poly in (corrections, omitted))


@functools.cache
def _log_harmonic_ints(n: int, terms: int, prec: int) -> tuple:
    """``_log_harmonic_parts`` for ``_horner``, made on first use: g(n-1..1),
    and the two polynomials in c = -y, each truncated to units of 2^-B."""
    head, *polys = _log_harmonic_parts(n, terms, prec)
    bits = prec + _GUARD
    return (tuple(int(mp.ldexp(g, bits)) for g in reversed(head)),) + tuple(
        tuple(int(mp.ldexp(a, bits)) * (-1) ** (len(p) - 1 - j) for j, a in enumerate(p))
        for p in polys)


_GAUSS = mp.calculus.quadrature.GaussLegendre(mp.mp)  # keeps its nodes, made on first use
_GUARD = 10  # the integer sums run in units of 2^-B, B = prec + _GUARD


@functools.lru_cache(maxsize=4096)
def _panel_table(i: int, span: int, prec: int) -> tuple:
    """The integer kernel of the cell [1.25 i, 1.25 (i+span)] of the knee
    frame at ``prec`` bits, made on first use: (V, W) with V_k = round(v_k 2^B)
    and W_k = round(w_k e^{-e^{v_k}} 2^{2B}), B = prec + _GUARD, for its 24
    Gauss-Legendre nodes v_k and weights w_k, evaluated at B + 20 bits."""
    bits = prec + _GUARD
    with mp.workprec(bits + 20):
        nodes = _GAUSS.get_nodes(1.25 * i, 1.25 * (i + span), 4, bits + 20)
        return (tuple(int(mp.nint(mp.ldexp(v, bits))) for v, _ in nodes),
                tuple(int(mp.nint(mp.ldexp(w * mp.exp(-mp.exp(v)), 2 * bits))) for v, w in nodes))


def _top_cells():
    """The top cells (i, span) of the knee frame, right to left: the knee grid
    j = 3..-3, then cells 1.25 * 2^k wide doubling leftwards from -3.75."""
    yield from ((j, 1) for j in range(3, -4, -1))
    span = 1
    while True:
        yield -2 - 2 * span, span
        span *= 2


def _gauss_bound(h, m, reach):
    # Trefethen's bound for 24 nodes on [m-h, m+h], rho = 5: |1/u| <= 1/(m - 2.6h), and
    # |e^{-e^v}| <= 1 if 2.4h <= pi/2, else e^{e^reach}, reach the ellipse's right end in v
    growth = 1 if 2.4 * h <= math.pi / 2 else math.exp(math.exp(reach))
    return 64 / 15 * h * growth / (m - 2.6 * h) / (24 * 5 ** 46)


def _log_harmonic_integral(c, n: int) -> tuple:
    """(value, truncation bound, rounding bound) of the integral of
    e^{-ct}/(t log t) over [n, inf), n >= 64: of f(u) = e^{-c e^u}/u from
    log n, in the knee frame v = u - L, L = log(1/c), where the knee
    c e^u = 1 sits at v = 0 for every c, so f = e^{-e^v}/(L + v).  24-point
    Gauss-Legendre panels on the cells of a fixed grid in v, whose ends are
    multiples of 1.25: the knee grid [1.25 j, 1.25 (j+1)], j = -3..3, then,
    left of -3.75, cells 1.25 * 2^k wide, doubling leftwards, each ending at
    least its own width left of the knee.  A cell whose part right of log n
    is wider than its left end u is halved, on the same grid, so the panels
    keep clear of the pole.  The cells from log n to L + 5 are taken; none
    when log n lies past L + 5.
    * A cell right of log n is lambda-free: e^{-e^v} and its nodes v_k do not
      depend on c, so ``_panel_table`` keeps V_k and W_k, L is rounded once to
      L_B = round(L 2^B), and the panel is sum_k W_k // (L_B + V_k) in units
      of 2^-B: one integer division per node, exact integer sums over all
      such panels, one conversion to mpf.
    * The panel holding log n is cut to start there and is summed in mpf, a
      node paying two exps: e^{-c e^m e^d} at offset d from its centre m.
    The rule on [m-h, m+h] errs by at most (64/15) h M rho^-46/(rho^2-1),
    rho = 5 (Trefethen, SIAM Review 50, 2008, Thm 4.5), where on the
    Bernstein ellipse Re u in m -+ 2.6h, |Im u| <= 2.4h, |1/u| <= 1/(m-2.6h)
    <= 1/(0.4h) as no panel is wider than its left end, and
    |e^{-c e^u}| = |e^{-e^v}| <= e^{e^{Re v}} <= e^{e^{m_v + 2.6h}} (1 if
    2.4h <= pi/2, as on every cell 1.25 wide): in the knee frame this does
    not depend on c, and it stays below e^{e^{-2.75}} left of the knee grid.
    Past the last point U the integral is below e^{-c e^U}/(c e^U U).
    Rounding, in units eps = 2^(1-prec) and delta = 2^-B = eps/2048: L_B is
    within 1 of 2^B L (L at B + 40 bits, |L| < 2^38) and V_k within 1 of
    2^B v_k (|v_k| < 2^19), so L_B + V_k is 2^B u_k within 2, a relative
    delta/2 as u_k >= log 64 > 4; W_k is within 1/2 and a relative delta/2 of
    its value (at B + 20 bits, the node's error magnified by at most e^5 in
    e^{-e^v}); each floor loses less than one unit.  So a lambda-free panel
    of exact rule value Q is good to 25 delta + delta Q, and with the
    conversion and the final addition the P such panels of total V are good
    to eps (P/64 + 3V).  The cut panel sum s ending at b is good to
    eps s (9 + 4b (1 + c e^b)) (README, "Bernoulli series").  Where a rounded
    end meets the exact grid, at log n and at the cut panel's end b, within
    eps u + 2 delta of its place, |f| <= 1/u: 3 eps."""
    lo, prec = mp.log(n), mp.mp.prec
    bits = prec + _GUARD
    with mp.workprec(bits + 40):
        knee = int(mp.nint(mp.ldexp(-mp.log(c), bits)))  # L_B
    # log n and 1.25 in units of 2^-B, and L as a float for the Gauss bounds
    start, step, knee_f = int(mp.nint(mp.ldexp(lo, bits))), 5 << (bits - 2), knee / 2 ** bits
    total, panels, cut, truncation = 0, 0, None, 0
    for cell in _top_cells():
        if knee + sum(cell) * step <= start:
            break
        cells = [cell]
        while cells:
            i, span = cells.pop()
            left, right = knee + i * step, knee + (i + span) * step
            if right <= start:
                continue
            if right > 2 * max(left, start):  # wider than its left end: halve it
                span //= 2
                cells += [(i, span), (i + span, span)]
            elif left < start:
                cut = right
            else:
                vs, ws = _panel_table(i, span, prec)
                total += sum(map(operator.floordiv, ws, map(knee.__add__, vs)))
                panels += 1
                h = 0.625 * span
                truncation += _gauss_bound(h, knee_f + 1.25 * i + h, 1.25 * i + 3.6 * h)
    value = mp.ldexp(total, -bits)
    rounding = panels / 64 + 3 * value + 3  # the last 3: the seams
    if cut is not None:
        b = mp.ldexp(cut, -bits)
        h = (b - lo) / 2
        m = lo + h
        nodes = [(h * x, h * w, mp.exp(h * x)) for x, w in _GAUSS.get_nodes(-1, 1, 4, prec)]
        decay = -c * mp.exp(m)
        s = mp.fdot((mp.exp(decay * e) / (m + d), w) for d, w, e in nodes)
        rounding += s * (9 + 4 * b * (1 + c * mp.exp(b)))
        truncation += _gauss_bound(h, m, float(m + 2.6 * h) - knee_f)
        value += s
    end = max(lo, mp.ldexp(knee + 4 * step, -bits))
    top = c * mp.exp(end)
    return value, truncation + mp.exp(-top) / (top * end), rounding * mp.eps


def _one_minus_x(lam: mp.mpf) -> mp.mpf:
    # 1 - (1-lam)^2, evaluated without cancellation
    return lam * (2 - lam)


@functools.lru_cache(maxsize=4096)
def _zeta_term(alpha: float, k: int, prec: int) -> tuple:
    """(zeta(alpha-k), a_k) at ``prec`` bits, made on first use.  For
    s = k+1-alpha > 1 the functional equation gives |zeta(alpha-k)| <=
    2 Gamma(s) zeta(s)/(2 pi)^s <= a_k = 2 Gamma(s) s/((s-1) (2 pi)^s), as
    zeta(s) <= 1 + 1/(s-1); a_k is None for s <= 1."""
    s = k + 1 - mp.mpf(alpha)
    majorant = 2 * mp.gamma(s) * s / ((s - 1) * (2 * mp.pi) ** s) if s > 1 else None
    return mp.zeta(1 - s), majorant


@functools.lru_cache(maxsize=256)
def _polylog_singular(alpha: float, prec: int):
    """The lambda-free factor of the singular term of Li_alpha(e^-c) at
    ``prec`` bits, made on first use: Gamma(1-alpha) for non-integer alpha,
    else ((-1)^(n-1)/(n-1)!, H_(n-1)) for alpha = n."""
    if alpha != int(alpha):
        return mp.gamma(1 - mp.mpf(alpha))
    n = int(alpha)
    return (-1) ** (n - 1) / mp.factorial(n - 1), mp.harmonic(n - 1)


def _polylog_near_one(alpha: float, c) -> tuple:
    """(value, bound) of Li_alpha(e^-c) for 0 < c <= log(1/0.75) and alpha
    other than 1, from the expansion around c = 0 (DLMF 25.12.12):
    Gamma(1-alpha) c^(alpha-1) + sum_{k>=0} zeta(alpha-k) (-c)^k/k!, and for
    alpha = n the singular term (-c)^(n-1)/(n-1)! (H_(n-1) - log c) in place
    of the pole at k = n-1.  Past k > alpha every |term| is below its
    majorant a_k c^k/k! (``_zeta_term``), and each majorant is at most c/2pi
    times the one before, so the loop stops at the first majorant below eps
    and bounds the rest by it over 1 - c/2pi.  The rounding: c = -2
    log1p(-lam) is good to 2 units, so c^k/k! after k steps carries 4k,
    zeta and the product 4 more; the singular term carries 2|alpha-1| + 5
    (non-integer), or 3n + 4 on P c^(n-1) (H + |log c| + 2) (alpha = n)."""
    prec = mp.mp.prec
    if alpha != int(alpha):
        singular = _polylog_singular(alpha, prec) * c ** (mp.mpf(alpha) - 1)
        rounding = _rounding(singular, 2 * abs(alpha - 1) + 5)
        pole = None
    else:
        pole = int(alpha) - 1
        sign_factorial, harmonic = _polylog_singular(alpha, prec)
        log_c, power = mp.log(c), sign_factorial * c ** pole
        singular = power * (harmonic - log_c)
        rounding = _rounding(power * (harmonic + abs(log_c) + 2), 3 * pole + 7)
    terms, t, k = [], mp.mpf(1), 0  # t = (-c)^k/k!
    while True:
        if k != pole:
            terms.append(_zeta_term(alpha, k, prec)[0] * t)
        k += 1
        t = t * -c / k
        if k > alpha:
            omitted = _zeta_term(alpha, k, prec)[1] * abs(t)
            if omitted < mp.eps:
                break
    value = singular + mp.fsum(terms)
    rounding += _rounding(mp.fsum(terms, absolute=True), 4 * k)
    return value, omitted / (1 - c / (2 * mp.pi)) + rounding + _rounding(value, 1)


def _em_levels(k1: int, k2: int, big: float, spread: float, terms) -> tuple:
    """(sum, bound) in doubles of g(k), k1 <= k < k2, for a completely monotone g
    by Euler-Maclaurin (DLMF 2.10.1): big + C(k1) - C(k2) + E, big the integral
    over [k1, k2], C(x) = g(x) (1/2 + t1 - t2 + t3), t_j = |B_2j/(2j)! g^(2j-1)/g|
    at x, and E between 0 and the first omitted correction, as no derivative
    of g changes sign: |E| <= T(k1) = |B_8/8! g^(7)(k1)|.  ``terms(x)`` gives
    g(x), t1, t2, t3 and T(x)/g(x).  Rounding, u = 2^-53, each libm call within
    an ulp: big is good to ``spread`` u and each t_j to 32u, so C(x) to 40u of
    m(x) = g(x) (1/2 + t1 + t2 + t3) <= m(k1); the two additions cost 2u of
    |big| + 2 m(k1); each double g(k) lies within 5u of g(k), adding 5u of the
    same, or within 2^-1074 below the normal range."""
    (g1, a1, b1, c1, omitted), (g2, a2, b2, c2, _) = terms(k1), terms(k2)
    total = big + g1 * (0.5 + a1 - b1 + c1) - g2 * (0.5 + a2 - b2 + c2)
    return total, g1 * (omitted + 2.0 ** -53 * 96 * (0.5 + a1 + b1 + c1)) \
        + 2.0 ** -53 * (spread + 8) * abs(big) + (k2 - k1) * 5e-324


def _power_levels(alpha: float, k1: int, k2: int) -> tuple:
    """``_em_levels`` for t^-alpha: t1 = alpha/(12x), t2 = t1 (alpha+1)(alpha+2)
    /(60x^2), t3 = t2 (alpha+3)(alpha+4)/(42x^2), T/g = t3 (alpha+5)(alpha+6)
    /(40x^2).  The integral, k1^(1-alpha) expm1(z)/(1-alpha) with z = (1-alpha)
    log1p((k2-k1)/k1) and no cancellation, is good to (13 + 5|z|)u, expm1
    turning z's 5u into 5u max(1, z); at alpha = 1 it is log1p((k2-k1)/k1),
    good to 3u, and C the digamma expansion (DLMF 5.11.2)."""
    def terms(x):
        t1 = alpha / (12 * x)
        t2 = t1 * (alpha + 1) * (alpha + 2) / (60 * x * x)
        t3 = t2 * (alpha + 3) * (alpha + 4) / (42 * x * x)
        return x ** -alpha, t1, t2, t3, t3 * (alpha + 5) * (alpha + 6) / (40 * x * x)
    log_ratio = math.log1p((k2 - k1) / k1)
    z = (1 - alpha) * log_ratio
    big = log_ratio if alpha == 1 else k1 * k1 ** -alpha * math.expm1(z) / (1 - alpha)
    return _em_levels(k1, k2, big, 13 + 5 * abs(z), terms)


def _log_harmonic_terms(x: int) -> tuple:
    # g(t) = 1/(t log t): g^(m)(x) = (-1)^m m! g(x) P_m(y)/x^m, y = 1/log x
    y = 1 / math.log(x)
    p3 = 1 + y * (11 / 6 + y * (2 + y))
    p5 = 1 + y * (137 / 60 + y * (15 / 4 + y * (17 / 4 + y * (3 + y))))
    p7 = 1 + y * (363 / 140 + y * (469 / 90 + y * (967 / 120 + y * (28 / 3
                                                             + y * (23 / 3 + y * (4 + y))))))
    return y / x, (1 + y) / (12 * x), p3 / (120 * x ** 3), p5 / (252 * x ** 5), p7 / (240 * x ** 7)


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

    def _level_sum(self, k1: int, k2: int):
        """(sum, bound) by a law of the doubles value(k), 1 <= k1 <= k < k2 < 2^53,
        the bound on its distance from their exact sum; None without a law, and
        ``flow`` crosses the runs level by level.  A subclass that redefines
        ``value`` has no law unless it gives its own."""
        return None

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        if "value" in vars(cls) and "_level_sum" not in vars(cls):
            cls._level_sum = GapProfile._level_sum

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

    def _level_sum(self, k1, k2):
        # l times the law of 1/k, whose bound covers the doubles l/k, and an ulp for the product
        total, bound = _power_levels(1.0, k1, k2)
        return self.l * total, self.l * (bound + 2.0 ** -52 * total)

    def spec(self):
        return f"harmonic:{self.l:g}"


class Power(GapProfile):
    """g(k) = k^(-alpha); its series is the polylogarithm Li_alpha(x)."""

    series_kind = "closed_form"

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
        """The polylogarithm Li_alpha(x), x = (1-lam)^2.  alpha = 1 is the
        harmonic law -log(1-x).  Where mpmath sums the power series itself
        (x <= 0.75, or x < 0.9 for non-integer alpha) ``mp.polylog`` does:
        it stops at the first term below its eps, 10 guard bits below ours,
        so the rest is under eps x/(1-x)/1024 and its at most ~960 terms
        round to within an ulp; x's two roundings move the sum by at most
        2 eps Li_(alpha-1)(x) <= 2 eps x/(1-x)^2.  For alpha - 1 >= prec/4
        the first 16 terms leave at most 16^(1-alpha)/(alpha-1) < eps, each
        term good to 3k + 3 units.  Otherwise ``_polylog_near_one`` sums
        the expansion around x = 1 at c = -2 log1p(-lam), read exactly."""
        alpha = self.alpha
        if alpha == 1:
            return _closed_form(-mp.log(_one_minus_x(lam)))
        x = (1 - lam) ** 2
        if alpha - 1 >= mp.mp.prec / 4:
            value = mp.fsum(x ** k * mp.mpf(k) ** -alpha for k in range(1, 17))
            return value, _rounding(value, 52) + mp.eps
        if x <= 0.75 or (alpha != int(alpha) and x < 0.9):
            value = mp.polylog(alpha, x)
            return value, _rounding(value, 2) + _rounding(x / _one_minus_x(lam) ** 2, 3)
        return _polylog_near_one(alpha, -2 * mp.log1p(-lam))

    def _level_sum(self, k1, k2):
        return _power_levels(self.alpha, k1, k2)

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
        omitted correction.  Both are e^{-cN} times a polynomial in c, and the
        head is x times one in x: ``_horner`` sums the three on integers kept
        per precision (``_log_harmonic_ints``).  The bound adds that
        correction, the integral's bounds, the fixed-point terms, 2N x
        units of 2^-B for the head and 2N' max(1, c)^(N'-1) e^{-cN} for each
        polynomial of N' <= 2 terms + 2 coefficients, and 2N eps of the value
        for the roundings of x, c and the steps in mpf (README, "Bernoulli
        series")."""
        n, terms = self._HEAD, self._EM_TERMS
        x = (1 - lam) ** 2
        c = -2 * mp.log1p(-lam)
        # B_2j/(2j)! g^(2j-1)(N) = B_2j/(2j) times the (2j-1)-th Taylor coefficient
        head, corrections, first_omitted = _log_harmonic_ints(n, terms, mp.mp.prec)
        decay = mp.exp(-c * n)
        tail = decay * _horner(corrections, c)
        omitted = abs(decay * _horner(first_omitted, c))
        integral, truncation, rounding = _log_harmonic_integral(c, n)
        value = x * _horner(head, x) + tail + integral
        fixed = 2 * n * x + 8 * (terms + 1) * decay * max(1, c) ** (2 * terms + 1)  # in 2^-B
        return value, omitted + truncation + rounding + mp.ldexp(fixed, -mp.mp.prec - _GUARD) \
            + _rounding(value, 2 * n)

    def _level_sum(self, k1, k2):
        """``_em_levels`` from k1 >= 2 (g is completely monotone on t > 1; the c = 0
        case of ``_log_harmonic_parts``): log log k2 - log log k1, the integral,
        is log1p(log1p((k2-k1)/k1)/log k1), good to 8u."""
        if k1 < 2:
            return None
        big = math.log1p(math.log1p((k2 - k1) / k1) / math.log(k1))
        return _em_levels(k1, k2, big, 8, _log_harmonic_terms)

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
        if not all(0 <= v < INF for v in self.table):
            raise ValueError("table values must be nonnegative and finite")
        self.tail = tail
        self.g0 = float(g0)

    @property
    def _tail(self) -> GapProfile:
        if self.tail is None:
            raise UntaggedTableError("table profile has no declared tail")
        return self.tail

    def value(self, k):
        if 1 <= k <= len(self.table):
            return self.table[k - 1]
        return self._tail.value(k)

    def kg_limit(self):
        return self._tail.kg_limit()

    def series_diverges(self):
        return self._tail.series_diverges()

    @_series(MP_DPS)
    def bernoulli_series(self, lam):
        return _head_swap(self.table, self._tail, lam)

    def spec(self):
        tail = "?" if self.tail is None else self.tail.spec()
        return f"table[{len(self.table)}]+{tail}"


class Truncated(GapProfile):
    """Pointwise truncation min(g(k), a/k); over a table, or a truncated table,
    the table of the truncated entries over the truncated tail."""

    def __init__(self, base: GapProfile, a: float):
        if not 0 < a < INF:
            raise ValueError("truncation level must be positive and finite")
        if isinstance(base, Geometric):
            raise TypeError("truncation needs a base with monotone k*g(k)")
        self.base = base
        self.a = float(a)
        self.g0 = base.g0
        table = base._table if isinstance(base, Truncated) else base
        self._table = None
        if isinstance(table, Table):
            self._table = Table([min(v, self.a / k) for k, v in enumerate(table.table, start=1)],
                                Truncated(table._tail, a), base.g0)

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
        """Smallest k at which ``value`` switches branch (None if none does up
        to MAX_GAP), and whether the base branch, base.value(k) <= a/k, is the
        one active below it.  k*g(k) is monotone for every base but a table,
        which is truncated entry by entry, so one galloping search
        (``_last_true``) is exact."""
        base_below = self.base.value(1) <= self.a
        last = _last_true(lambda k: (self.base.value(k) <= self.a / k) == base_below, 1, MAX_GAP)
        return (None if last == MAX_GAP else last + 1), base_below

    @_series(MP_DPS)
    def bernoulli_series(self, lam):
        if self._table is not None:
            return self._table.bernoulli_series(lam, with_bound=True)
        kstar, base_below = self._crossover()
        below = self.base if base_below else Harmonic(self.a, g0=self.g0)
        if kstar is None:
            return below.bernoulli_series(lam, with_bound=True)
        above = Harmonic(self.a, g0=self.g0) if base_below else self.base
        if kstar > _MAX_EXPLICIT_TERMS:
            raise ProfileResourceError(
                f"truncation crossover at k={kstar} exceeds the explicit-term cap")
        return _head_swap(list(map(self.value, range(1, kstar))), above, lam)

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

    @property
    def is_constant(self) -> bool:
        return self.constant is not None

    @property
    def is_singular(self) -> bool:
        return self.profile is not None

    def value_at_gap(self, k) -> float:
        """Roof value on the set where the nearest 1 sits at distance k
        (k = 0 on the origin cylinder, inf at the all-zero sequence)."""
        if self.profile is None:
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


def roof_between(f: RoofFunction, pos: int, a, b) -> float:
    """f at coordinate pos of a sequence whose nearest 1s are a <= pos < b (None: none)."""
    k = INF if a is None else pos - a
    if b is not None and b - pos < k:
        k = b - pos
    return f.value_at_gap(INF if k > MAX_GAP else k)


def roof_eval(f: RoofFunction, x: BitSequence, pos: int = 0) -> float:
    """f(T^pos x), from the 1s of x nearest to coordinate pos."""
    if f.is_constant:
        return f.constant
    return roof_between(f, pos, *x.ones_around(pos))


# Mini-language for roofs:  const:c | harmonic:l | power:alpha | logharmonic
# | trunc:a:<profile>

class RoofSpecError(ValueError):
    """Malformed roof specification string."""


def parse_profile_spec(text: str) -> GapProfile:
    if text.lower().count("trunc:") > 300:  # deeper, a roof would overrun Python's recursion limit
        raise RoofSpecError("profile spec nests more than 300 truncations")
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
    except RoofSpecError:  # from the base, named there: not wrapped once per level
        raise
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

