import math

import mpmath as mp
import numpy as np
import pytest

from singflow import (ADMISSIBLE, INADMISSIBLE, BitSequence, ConstantProfile,
                      Geometric, Harmonic, LogHarmonic, Power, RoofFunction,
                      RoofSpecError, Table, Truncated, UntaggedTableError,
                      ZeroProfile, admissibility_check, parse_roof_spec,
                      roof_eval)


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
    vals = profile.values(ks.astype(np.int64))
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
