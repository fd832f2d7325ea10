"""Reference values for the benchmark's output checks.

Nothing here calls singflow.  The accelerated shift is walked with plain
integers from its definition, series are summed directly with numpy or
evaluated through closed forms with math and mpmath, and sequences are read
from their stored window and tail words.  A check that passes therefore does
not depend on the code path the benchmark times.
"""

from __future__ import annotations

import math

import mpmath as mp
import numpy as np

ADJUSTED = "adjusted"
PAPER = "paper"

# Explicit terms summed before a series tail is bracketed.
HEAD_TERMS = 10 ** 6


# ---------------------------------------------------------------------------
# The accelerated shift across one block 1 0^(gap-1) 1

def block_walk(gap: int, boundary: str) -> tuple[list, list, list]:
    """Origin offsets, regions and k+ values of the accelerated orbit across
    one block, from the region/step definition of the paper."""
    offsets, regions, kplus = [], [], []
    o = 0
    while o < gap:
        km, kp = o, gap - o
        if km == 0:
            region, step = 1, 1
        elif kp <= km:
            region, step = 4, (kp + 1) // 2
        elif 3 * km < kp or (boundary == PAPER and 3 * km == kp):
            region, step = 2, km
        else:
            region, step = 3, kp - (km + kp) ** 2 // (8 * km)
        offsets.append(o)
        regions.append(region)
        kplus.append(kp)
        o += step
    if o != gap:
        raise AssertionError(f"reference walk overshot gap {gap}")
    return offsets, regions, kplus


def _ceil_sqrt(n: int) -> int:
    return 0 if n == 0 else 1 + math.isqrt(n - 1)


def block_word(gap: int, boundary: str) -> list | None:
    """Code word of a block as (y, z) pairs, None when the orbit skips R3.

    The first letter carries z1 = gap - ceil(sqrt(8 k-_r k+_(r+1))), the
    halving parities sit in every other slot counted back from the end, and
    every other slot is x.
    """
    offsets, regions, kplus = block_walk(gap, boundary)
    p = len(regions)
    if gap <= 2:
        return [(y, "x") for y in regions]
    if 3 not in regions:
        return None
    r = regions.index(3)
    zs: list = ["x"] * p
    zs[0] = gap - _ceil_sqrt(8 * (1 << (r - 1)) * kplus[r + 1])
    for i in range(p - 2 - r):
        zs[p - 2 * i - 1] = kplus[p - 2 - i] & 1
    return list(zip(regions, zs))


def render(word) -> str:
    return " ".join(f"{y}^{z}" for y, z in word)


def powers_of_two(lo: int, hi: int) -> list:
    """Powers of two in [lo, hi]: the gaps the verbatim boundary cannot code."""
    return [1 << j for j in range(hi.bit_length()) if lo <= 1 << j <= hi]


def contracting_pairs(kplus_max: int, boundary: str) -> int:
    """Number of pairs k+/3 <= k- < k+ (k+/3 < k- under the verbatim
    boundary) with 2 <= k+ <= kplus_max."""
    total = 0
    for kp in range(2, kplus_max + 1):
        lo = -(-kp // 3) if boundary == ADJUSTED else kp // 3 + 1
        total += max(kp - lo, 0)
    return total


# ---------------------------------------------------------------------------
# Finitely described sequences, read from their stored fields

def symbol_at(seq, n: int):
    """Symbol at coordinate n of a sequence stored as a window starting at
    ``start`` between a left tail word (its last symbol at start-1) and a
    right tail word (its first symbol just past the window)."""
    window, start = seq.window, seq.start
    end = start + len(window)
    if start <= n < end:
        return window[n - start]
    if n < start:
        left = seq.left
        return left[len(left) - 1 - ((start - 1 - n) % len(left))]
    right = seq.right
    return right[(n - end) % len(right)]


def same_sequence(a, b, shift: int = 0) -> bool:
    """Whether a_n == b_(n+shift) for every n."""
    lo = min(a.start, b.start - shift) - math.lcm(len(a.left), len(b.left))
    hi = (max(a.start + len(a.window), b.start + len(b.window) - shift)
          + math.lcm(len(a.right), len(b.right)))
    return all(symbol_at(a, n) == symbol_at(b, n + shift) for n in range(lo, hi))


# ---------------------------------------------------------------------------
# Bernoulli-measure series sum_k g(k) x^k with x = (1 - lam)^2

def shannon(lam: float) -> float:
    return -lam * math.log(lam) - (1.0 - lam) * math.log1p(-lam)


def roof_integral(lam: float, series: float, g0: float = 1.0) -> float:
    """g0 * lam + sum_k g(k) * lam (2 - lam) (1 - lam)^(2k - 1)."""
    return g0 * lam + lam * (2.0 - lam) / (1.0 - lam) * series


def _decay(lam: float) -> float:
    """c with x^k = exp(-c k)."""
    return -2.0 * math.log1p(-lam)


def harmonic_series(lam: float, scale: float) -> float:
    """scale * sum_k x^k / k = -scale * log(1 - x), with 1 - x = lam (2 - lam)."""
    return -scale * math.log(lam * (2.0 - lam))


def polylog_series(lam: float, alpha: float) -> float:
    """sum_k k^-alpha x^k for non-integer alpha through Jonquiere's expansion
    around x = 1: Gamma(1-s) (-mu)^(s-1) + sum_j zeta(s-j) mu^j / j!,
    mu = log x, which converges for |mu| < 2 pi."""
    with mp.workdps(30):
        s = mp.mpf(alpha)
        mu = 2 * mp.log1p(-mp.mpf(lam))
        total = mp.gamma(1 - s) * (-mu) ** (s - 1)
        term_mu = mp.mpf(1)
        for j in range(40):
            total += mp.zeta(s - j) * term_mu
            term_mu *= mu / (j + 1)
        return float(total)


def _head_terms(lam: float, g_of_k) -> float:
    k = np.arange(1, HEAD_TERMS, dtype=np.float64)
    return float(np.sum(g_of_k(k) * np.exp(-_decay(lam) * k)))


def _log_harmonic_values(k):
    out = np.empty_like(k)
    out[0] = 1.0 / math.log(2.0)  # documented extension at k = 1
    out[1:] = 1.0 / (k[1:] * np.log(k[1:]))
    return out


def _log_harmonic_tail(lam: float) -> tuple[float, float]:
    """sum_{k >= N} x^k / (k log k) as midpoint and half-width of the bracket
    [I, I + h(N)], I the integral of the decreasing summand h from N on."""
    c = _decay(lam)
    n = HEAD_TERMS
    h_n = math.exp(-c * n) / (n * math.log(n))
    if h_n < 1e-300:
        return 0.0, 0.0
    with mp.workdps(20):
        cn = mp.mpf(c) * n
        logn = mp.log(n)
        # t = N e^s turns the integrand into exp(-cN e^s) / (log N + s)
        f = lambda s: mp.exp(-cn * mp.exp(s)) / (logn + s)
        knee = max(float(-mp.log(cn)), 0.0)
        integral = float(mp.quad(f, [0, knee, knee + 4, knee + 40]))
    return integral + h_n / 2, h_n / 2


def log_harmonic_series(lam: float) -> tuple[float, float]:
    """Series of g(k) = 1/(k log k) (g(1) = 1/log 2) and its error bound."""
    tail, err = _log_harmonic_tail(lam)
    return _head_terms(lam, _log_harmonic_values) + tail, err + 1e-13


def trunc_power_series(lam: float, a: float, alpha: float) -> float:
    """Series of min(k^-alpha, a/k) for alpha < 1, where a/k wins past a
    finite crossover below HEAD_TERMS."""
    head = _head_terms(lam, lambda k: np.minimum(k ** -alpha, a / k))
    harmonic_tail = harmonic_series(lam, a) - _head_terms(lam, lambda k: a / k)
    return head + harmonic_tail


def trunc_log_harmonic_series(lam: float, a: float) -> tuple[float, float]:
    """Series of min(g(k), a/k) for the log-harmonic g and a < 1/log 2, where
    g wins past a finite crossover below HEAD_TERMS."""
    head = _head_terms(lam, lambda k: np.minimum(_log_harmonic_values(k), a / k))
    tail, err = _log_harmonic_tail(lam)
    return head + tail, err + 1e-13


def table_power_series(lam: float, values, alpha: float) -> float:
    """Explicit values for k = 1..m, then the k^-alpha tail."""
    x = (1.0 - lam) ** 2
    head = math.fsum(v * x ** k for k, v in enumerate(values, start=1))
    tail_head = math.fsum(k ** -alpha * x ** k for k in range(1, len(values) + 1))
    return head + polylog_series(lam, alpha) - tail_head


def geometric_series(lam: float, rho: float, c: float) -> float:
    rx = rho * (1.0 - lam) ** 2
    return c * rx / (1.0 - rx)


def constant_series(lam: float, c: float) -> float:
    return c * (1.0 - lam) ** 2 / (lam * (2.0 - lam))


def close(a: float, b: float, rel: float) -> bool:
    return abs(a - b) <= rel * max(abs(a), abs(b))
