"""The Bernoulli series' fixed-point Horner sums against the mpf sums they
replaced: the log-harmonic head and its two Euler-Maclaurin polynomials, and
the explicit head differences that ``Table`` and ``Truncated`` add to a
profile's series.  Each oracle is the library's mpf code as it was; on a
seeded sweep the doubles agree, and the two sums differ by at most the new
derived fixed-point term plus the oracle's own rounding bound."""

import functools
import math
import random

import mpmath as mp
import pytest

from singflow import Harmonic, LogHarmonic, Power, Table, Truncated, ZeroProfile
from singflow import roofs
from singflow.roofs import _GUARD, _rounding

N, TERMS = LogHarmonic._HEAD, LogHarmonic._EM_TERMS


def sweep_lams(rng, count):
    """count lambdas: log-uniform in (1e-300, 0.9), and a tenth each
    subnormal, in (0.9, 1 - 1e-9) and in (1 - 1e-9, 1)."""
    lams = []
    for i in range(count):
        kind = i % 10
        if kind == 7:
            lam = math.ldexp(rng.randrange(1, 2 ** 52), -1074)
        elif kind == 8:
            lam = 1 - 10 ** rng.uniform(-9, -1)
        elif kind == 9:
            lam = 1 - 10 ** rng.uniform(-15.9, -9)
        else:
            lam = 10 ** rng.uniform(-300, math.log10(0.9))
        assert 0 < lam < 1
        lams.append(lam)
    return lams


def mpf_log_harmonic_series(lam):
    """Oracle: ``LogHarmonic.bernoulli_series`` as it summed its head and tail
    in mpf, 62 powers of x, one fdot and two polyvals, at the working
    precision: (value, bound, the bound's 4n eps of the value)."""
    lam = mp.mpf(lam)
    x = (1 - lam) ** 2
    c = -2 * mp.log1p(-lam)
    powers = [x]
    for _ in range(2, N):
        powers.append(powers[-1] * x)
    head, corrections, first_omitted = roofs._log_harmonic_parts(N, TERMS, mp.mp.prec)
    head = mp.fdot(powers, head)
    decay = mp.exp(-c * N)
    tail = decay * mp.polyval(corrections, -c)
    omitted = abs(decay * mp.polyval(first_omitted, -c))
    integral, truncation, rounding = roofs._log_harmonic_integral(c, N)
    value = head + tail + integral
    share = _rounding(value, 4 * N)
    return value, omitted + truncation + rounding + share, share


def log_harmonic_fixed_term(lam):
    """The derived fixed-point term of the log-harmonic series: 2n x units of
    2^-B for the head, 4 N' max(1, c)^(N'-1) e^{-cn} for its polynomials of
    at most N' = 2 terms + 2 coefficients."""
    lam = mp.mpf(lam)
    x, c = (1 - lam) ** 2, -2 * mp.log1p(-lam)
    degree = 2 * TERMS + 1
    return mp.ldexp(2 * N * x + 4 * (degree + 1) * mp.exp(-c * N) * max(1, c) ** degree,
                    -mp.mp.prec - _GUARD)


def test_log_harmonic_series_matches_the_mpf_oracle(monkeypatch):
    """2,000 seeded lambdas, subnormal ones and ones in (1 - 1e-9, 1) among
    them: the same double, and within the fixed-point term plus the oracle's
    rounding share; every tenth against the oracle at 60 digits within both
    bounds, which checks the whole of the new bound.  The series and its
    oracle share each integral, the same code on the same c and precision."""
    compute = roofs._log_harmonic_integral
    kept = functools.cache(lambda c, n, prec: compute(c, n))
    monkeypatch.setattr(roofs, "_log_harmonic_integral", lambda c, n: kept(c, n, mp.mp.prec))
    lams = sweep_lams(random.Random(3001), 2000)
    for i, lam in enumerate(lams):
        value, bound = LogHarmonic().bernoulli_series(lam, with_bound=True)
        with mp.workdps(roofs._LOG_HARMONIC_DPS):
            oracle, _, share = mpf_log_harmonic_series(lam)
            assert float(value) == float(oracle), lam
            assert abs(value - oracle) <= log_harmonic_fixed_term(lam) + share, lam
        if i % 10 == 0:
            with mp.workdps(60):
                fine, fine_bound, _ = mpf_log_harmonic_series(lam)
                assert abs(value - fine) <= bound + fine_bound, lam


def mpf_head_swap(head, profile, lam):
    """Oracle: ``_head_swap`` as it summed the head differences in mpf with
    a running power of x: (value, bound, the bound's part for the head)."""
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
    head_part = _rounding(magnitude, 2 * m + 4) + _rounding(value, 1)
    return value, bound + head_part, head_part


def swapped(profile):
    """The head values and the profile beyond them that ``bernoulli_series``
    hands ``_head_swap`` for a table or a truncation with a crossover."""
    if isinstance(profile, Truncated) and profile._table is not None:
        profile = profile._table
    if isinstance(profile, Table):
        return list(profile.table), profile._tail
    kstar, base_below = profile._crossover()
    above = Harmonic(profile.a, g0=profile.g0) if base_below else profile.base
    return [profile.value(k) for k in range(1, kstar)], above


def truncation_near(rng, kstar):
    """A truncation whose crossover lies near kstar >= 3: of the log-harmonic
    base (a/k below it), or of a power base with k g(k) rising or falling."""
    kind = rng.randrange(3)
    if kind == 0:
        return Truncated(LogHarmonic(), 1 / math.log(kstar))
    if kind == 1:
        alpha = rng.uniform(0.3, 0.9)
        return Truncated(Power(alpha), kstar ** (1 - alpha))
    alpha = rng.uniform(1.1, 2.5)
    return Truncated(Power(alpha), kstar ** (1 - alpha))


def random_tail(rng):
    """A tail whose truncation at a in (0.1, 2) crosses over below k = 10^3."""
    alpha = rng.choice([rng.uniform(0.3, 0.9), rng.uniform(1.5, 2.5)])
    return rng.choice([Power(alpha), Harmonic(rng.uniform(0.5, 2.0)), LogHarmonic(),
                       truncation_near(rng, rng.randint(3, 40))])


def head_swap_cases(seed):
    """(profile, lambdas): 150 tables, and 150 truncations with crossovers
    log-uniform in 3..300, of which 30 are truncated tables, then five with
    crossovers from 1,000 to 30,000 at one lambda each."""
    rng = random.Random(seed)
    tables, truncations = [], []
    for _ in range(150):
        values = [rng.uniform(0.0, 2.0) for _ in range(rng.randint(1, 60))]
        tables.append((Table(values, tail=random_tail(rng)), sweep_lams(rng, 10)))
    for i in range(150):
        if i % 5 == 0:
            values = [rng.uniform(0.0, 2.0) for _ in range(rng.randint(1, 40))]
            profile = Truncated(Table(values, tail=random_tail(rng)), rng.uniform(0.1, 2.0))
        else:
            profile = truncation_near(rng, round(3 * 100 ** rng.random()))
        truncations.append((profile, sweep_lams(rng, 10)))
    for kstar in (1000, 3000, 10_000, 20_000, 30_000):
        truncations.append((truncation_near(rng, kstar), sweep_lams(rng, 1)))
    return tables, truncations


@pytest.mark.parametrize("family", ["table", "truncated"])
def test_head_swap_matches_the_mpf_oracle(family):
    """At least 1,500 (profile, lambda) pairs per family: the oracle gives
    the same double, and the two sums lie within 2m x 2^-B, the new
    fixed-point term, plus the oracle's part of the bound for the head.
    ``bernoulli_series`` is the head swap at each profile's first lambda,
    and every tenth profile's first lambda lies within both whole bounds of
    the oracle at 60 digits."""
    tables, truncations = head_swap_cases(3002)
    cases = tables if family == "table" else truncations
    assert sum(len(lams) for _, lams in cases) >= 1500
    heads = []
    for i, (profile, lams) in enumerate(cases):
        head, above = swapped(profile)
        # the sum, its oracle and bernoulli_series share the series beyond the head
        above.bernoulli_series = functools.cache(above.bernoulli_series)
        heads.append(len(head))
        for lam in lams:
            with mp.workdps(roofs.MP_DPS):
                mlam = mp.mpf(lam)
                value, bound = roofs._head_swap(head, above, mlam)
                oracle, _, head_part = mpf_head_swap(head, above, mlam)
                assert float(value) == float(oracle), (profile.spec(), lam)
                fixed = mp.ldexp(2 * len(head) * (1 - mlam) ** 2, -mp.mp.prec - _GUARD)
                assert abs(value - oracle) <= fixed + head_part, (profile.spec(), lam)
            if lam == lams[0]:
                assert profile.bernoulli_series(lam, with_bound=True) == (value, bound)
            if i % 10 == 0 and lam == lams[0]:
                with mp.workdps(60):
                    fine, fine_bound, _ = mpf_head_swap(head, above, mp.mpf(lam))
                    assert abs(value - fine) <= bound + fine_bound, (profile.spec(), lam)
    if family == "truncated":
        assert min(heads) >= 1 and 25_000 < max(heads) <= 30_001


def test_head_swap_bound_alone_covers_a_head_over_the_zero_profile():
    """Over ``ZeroProfile``, whose series and bound are 0, the head's part is
    the whole bound, the rounding of x included: 300 seeded heads of 1-60
    values lie within it of the oracle at 60 digits."""
    rng = random.Random(3003)
    for _ in range(300):
        head = [rng.uniform(0.0, 2.0) for _ in range(rng.randint(1, 60))]
        lam = rng.choice(sweep_lams(rng, 10))
        with mp.workdps(roofs.MP_DPS):
            value, bound = roofs._head_swap(head, ZeroProfile(), mp.mpf(lam))
        with mp.workdps(60):
            fine, fine_bound, _ = mpf_head_swap(head, ZeroProfile(), mp.mpf(lam))
            assert abs(value - fine) <= bound + fine_bound, (head, lam)
