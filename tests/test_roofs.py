import math
import os
import pathlib
import subprocess
import sys

import mpmath as mp
import numpy as np
import pytest

from singflow import (ADMISSIBLE, INADMISSIBLE, BitSequence, ConstantProfile,
                      Geometric, Harmonic, LogHarmonic, Power, RoofFunction,
                      RoofSpecError, Table, Truncated, UntaggedTableError,
                      ZeroProfile, admissibility_check, flow_entropy_bernoulli,
                      parse_roof_spec, roof_eval)


def test_roof_eval_constant():
    f = RoofFunction.const(1.0)
    assert roof_eval(f, BitSequence.zero()) == 1.0
    assert roof_eval(f, BitSequence.from_ones([3])) == 1.0


def test_roof_eval_vanishes_exactly_at_zero_sequence():
    f = RoofFunction.from_profile(Harmonic(1.0))
    assert roof_eval(f, BitSequence.zero()) == 0.0
    assert roof_eval(f, BitSequence.from_ones([10 ** 6])) > 0.0


def test_roof_eval_gap_profile():
    f = RoofFunction.from_profile(Harmonic(1.0))
    assert roof_eval(f, BitSequence.from_ones([4])) == 0.25
    assert roof_eval(f, BitSequence.from_ones([-4])) == 0.25
    assert roof_eval(f, BitSequence.from_ones([-7, 4])) == 0.25
    # origin cylinder uses g0
    assert roof_eval(f, BitSequence.from_ones([0])) == 1.0


def test_log_harmonic_documented_extension():
    g = LogHarmonic()
    assert g.value(1) == 1.0 / math.log(2.0)
    assert g.value(2) == 1.0 / (2.0 * math.log(2.0))


def test_admissibility_by_family():
    assert admissibility_check(Harmonic(1.0)) == ADMISSIBLE
    assert admissibility_check(Power(0.5)) == ADMISSIBLE
    assert admissibility_check(Power(1.0)) == ADMISSIBLE
    assert admissibility_check(Power(2.0)) == INADMISSIBLE
    assert admissibility_check(LogHarmonic()) == ADMISSIBLE
    assert admissibility_check(Table([0.5, 0.25], tail=Geometric(0.5))) == INADMISSIBLE
    assert admissibility_check(ZeroProfile()) == INADMISSIBLE


def test_untagged_table_refused():
    t = Table([1.0, 0.5])
    with pytest.raises(UntaggedTableError):
        admissibility_check(t)
    with pytest.raises(UntaggedTableError):
        t.value(3)
    assert t.value(2) == 0.5


def test_truncation_is_pointwise_min():
    g = Truncated(Power(0.5), 2.0)
    for k in range(1, 200):
        assert g.value(k) == min(k ** -0.5, 2.0 / k)
    assert g.kg_limit() == 2.0
    assert Truncated(Harmonic(3.0), 1.0).kg_limit() == 1.0


def test_kg_limits():
    assert Harmonic(2.0).kg_limit() == 2.0
    assert Power(0.5).kg_limit() == math.inf
    assert Power(1.0).kg_limit() == 1.0
    assert Power(1.5).kg_limit() == 0.0
    assert LogHarmonic().kg_limit() == 0.0


def test_roof_spec_language():
    assert parse_roof_spec("const:2.5").constant == 2.5
    assert isinstance(parse_roof_spec("harmonic:1").profile, Harmonic)
    assert parse_roof_spec("power:0.5").profile.alpha == 0.5
    assert isinstance(parse_roof_spec("logharmonic").profile, LogHarmonic)
    t = parse_roof_spec("trunc:2:power:0.5").profile
    assert isinstance(t, Truncated) and t.a == 2.0
    for bad in ("const", "harmonic", "power:x", "nope:1"):
        with pytest.raises(RoofSpecError):
            parse_roof_spec(bad)


@pytest.mark.parametrize("spec", [
    "power:nan", "power:inf", "harmonic:nan", "harmonic:inf", "harmonic:-inf",
    "const:inf", "const:nan", "trunc:nan:harmonic:1", "trunc:inf:power:0.5",
    "trunc:2:harmonic:nan",
])
def test_roof_spec_rejects_non_finite_parameters(spec):
    with pytest.raises(RoofSpecError):
        parse_roof_spec(spec)


def brute_series(profile, lam, terms=60_000):
    """Oracle: direct summation of sum_k g(k) x^k in float64.

    At lam = 1e-3 the weights decay like exp(-0.002 k), so 60k terms leave a
    tail far below double precision.
    """
    ks = np.arange(1, terms + 1, dtype=np.float64)
    vals = np.array([profile.value(k) for k in range(1, terms + 1)])
    return float(np.sum(vals * np.exp(ks * 2.0 * np.log1p(-lam))))


@pytest.mark.parametrize("profile", [
    Harmonic(1.0), Harmonic(2.5), Power(0.5), Power(1.5), LogHarmonic(),
    Geometric(0.5, c=2.0), ConstantProfile(0.7),
    Truncated(Power(0.5), 2.0), Truncated(Harmonic(3.0), 1.0),
    Table([0.9, 0.8, 0.7], tail=Harmonic(1.0)),
])
def test_bernoulli_series_against_brute_force(profile):
    lam = 1e-3  # decay scale ~500k terms, brute force reachable
    exact = float(profile.bernoulli_series(mp.mpf(lam)))
    brute = brute_series(profile, lam)
    assert exact == pytest.approx(brute, rel=5e-9)


def test_roof_function_validation():
    with pytest.raises(ValueError):
        RoofFunction.const(0.0)
    with pytest.raises(ValueError):
        RoofFunction(constant=1.0, profile=Harmonic(1.0))
    with pytest.raises(ValueError):
        RoofFunction()
    with pytest.raises(TypeError):
        Truncated(Geometric(0.5), 1.0)


# ---------------------------------------------------------------------------
# precision, error bounds and the log-harmonic series

FAMILIES = [
    Harmonic(1.5), Power(0.5), Power(1.5), LogHarmonic(), Geometric(0.5, c=2.0),
    ConstantProfile(0.7), ZeroProfile(), Table([0.9, 0.8, 0.7], tail=Power(0.5)),
    Truncated(Power(0.5), 2.0), Truncated(LogHarmonic(), 0.4),
]


def test_import_leaves_mpmath_precision_alone():
    src = pathlib.Path(__file__).resolve().parents[1] / "src"
    code = "import mpmath, singflow, singflow.cli; assert mpmath.mp.dps == 15, mpmath.mp.dps"
    env = dict(os.environ, PYTHONPATH=str(src))
    subprocess.run([sys.executable, "-c", code], env=env, check=True)


@pytest.mark.parametrize("profile", FAMILIES, ids=lambda g: g.spec())
def test_results_do_not_depend_on_the_callers_precision(profile):
    results = {}
    for dps in (15, 60):
        with mp.workdps(dps):
            reports = [flow_entropy_bernoulli(lam, profile) for lam in (1e-3, 1e-9)]
            results[dps] = ([(r.value.hex(), r.error_bound.hex()) for r in reports],
                            profile.bernoulli_series(1e-3, with_bound=True))
    assert results[15] == results[60]
    assert isinstance(profile.bernoulli_series(1e-3), mp.mpf)


@pytest.mark.parametrize("profile", FAMILIES, ids=lambda g: g.spec())
def test_error_bound_is_positive_and_finite(profile):
    for lam in (0.3, 1e-4, 1e-12):
        report = flow_entropy_bernoulli(lam, profile)
        assert 0 < report.error_bound < math.inf


@pytest.mark.parametrize("lam", [1e-3, 1e-6, 1e-12])
def test_log_harmonic_bound_is_below_double_precision(lam):
    value, bound = LogHarmonic().bernoulli_series(lam, with_bound=True)
    assert 0 < bound < 1e-25 * value
    report = flow_entropy_bernoulli(lam, LogHarmonic())
    assert 0 < report.error_bound < 1e-15 * report.value


def sumem_log_harmonic(lam):
    """Oracle: the log-harmonic series as the library summed it before its
    explicit tail, 999 explicit terms and then mpmath's Euler-Maclaurin
    summation (sumem, numerical derivatives, an integral to infinity) from
    k = 1000, at 40 digits."""
    with mp.workdps(40):
        lam = mp.mpf(lam)
        x = (1 - lam) ** 2
        head = mp.mpf(1.0 / math.log(2.0)) * x
        head += mp.fsum(mp.power(x, k) / (k * mp.log(k)) for k in range(2, 1000))
        tail = mp.sumem(lambda t: mp.power(x, t) / (t * mp.log(t)), [1000, mp.inf])
        return head + tail


def oracle_entropy(lam, series):
    """Abramov's quotient of the Bernoulli entropy over g0*lam + the weighted
    series (g0 = 1), assembled at 40 digits and rounded once to a double."""
    with mp.workdps(40):
        mlam = mp.mpf(lam)
        integral = float(mlam + mlam * (2 - mlam) / (1 - mlam) * series)
    return (-lam * math.log(lam) - (1.0 - lam) * math.log1p(-lam)) / integral


def truncated_from(series, lam, a):
    """Series of min(g(k), a/k) for the log-harmonic g: a/k below the first k
    with k g(k) <= a, g from there on (k g(k) decreases)."""
    def g(k):
        return 1.0 / math.log(2.0) if k == 1 else 1.0 / (k * math.log(k))
    kstar = 1
    while not g(kstar) * kstar <= a:
        kstar += 1
    with mp.workdps(40):
        x = (1 - mp.mpf(lam)) ** 2
        head = mp.fsum(mp.mpf(a / k) * mp.power(x, k) for k in range(1, kstar))
        g_head = mp.fsum(mp.mpf(g(k)) * mp.power(x, k) for k in range(1, kstar))
        return head + (series - g_head)


def test_log_harmonic_matches_the_sumem_oracle():
    for lam in (1e-2, 3e-4, 1e-5, 2e-7, 1e-8, 5e-10, 1e-11, 1.2e-12):
        series = sumem_log_harmonic(lam)
        assert flow_entropy_bernoulli(lam, LogHarmonic()).value == oracle_entropy(lam, series)
        for a in (0.3, 0.6):
            got = flow_entropy_bernoulli(lam, Truncated(LogHarmonic(), a)).value
            assert got == oracle_entropy(lam, truncated_from(series, lam, a)), (lam, a)
