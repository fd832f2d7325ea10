"""The batch region/step kernel, the lockstep block walks and the verify
suites built on them.

The kernel is compared with a region/step law written out here and with the
library's scalar law; the lockstep walks with the scalar ``return_profile``.
"""

import math
import warnings

import numpy as np
import pytest

from singflow import ADJUSTED, ALPHABET, PAPER, return_profile
from singflow import codec as cdc
from singflow.cli import main
from singflow.verify import SUITES, ceil_sqrt_array

INDEX = {l: i for i, l in enumerate(ALPHABET)}


def reference_law(km: int, kp: int, boundary: str) -> tuple:
    if km == 0:
        return 1, 1
    if kp <= km:
        return 4, -(-kp // 2)
    if 3 * km < kp or (boundary == PAPER and 3 * km == kp):
        return 2, km
    return 3, kp - (km + kp) * (km + kp) // (8 * km)


@pytest.mark.parametrize("boundary", [ADJUSTED, PAPER])
def test_region_steps_match_the_scalar_law_on_the_full_grid(boundary):
    km, kp = np.meshgrid(np.arange(0, 601), np.arange(1, 601), indexing="ij")
    region, step = cdc.region_steps(km, kp, boundary)
    adjusted = boundary == ADJUSTED
    got = list(zip(region.ravel().tolist(), step.ravel().tolist()))
    pairs = list(zip(km.ravel().tolist(), kp.ravel().tolist()))
    assert got == [reference_law(a, b, boundary) for a, b in pairs]
    assert got == [cdc._region_step(a, b, adjusted) for a, b in pairs]


def test_region_steps_holds_a_finished_walk_in_place():
    region, step = cdc.region_steps([5, 1], [0, 0])
    assert step.tolist() == [0, 0]


@pytest.mark.parametrize("boundary", [ADJUSTED, PAPER])
def test_return_profiles_match_return_profile(boundary):
    top = 20000
    offsets, regions, z1, words = cdc.return_profiles(range(1, top + 1), boundary)
    rows = zip(range(1, top + 1), offsets.tolist(), regions.tolist(), z1.tolist(), words.tolist())
    for gap, row_o, row_r, z, row_w in rows:
        prof = return_profile(gap, boundary)
        p = prof.p
        assert tuple(row_o[:p + 1]) == prof.offsets
        assert tuple(row_r[:p]) == prof.regions
        assert set(row_o[p + 1:]) <= {gap} and set(row_r[p:]) <= {0}
        assert (row_r.index(3) if 3 in row_r else None) == prof.r
        word = [INDEX[l] for l in prof.word or ()]
        assert row_w == word + [-1] * (len(row_w) - len(word))
        assert z == (0 if prof.r is None else prof.word[0].z)


def test_return_profiles_rejects_bad_gaps():
    for gaps in ([], [3, 0], [[3]], [5, 1 << 30]):
        with pytest.raises(ValueError):
            cdc.return_profiles(gaps)


def test_ceil_sqrt_array_exact_near_squares():
    roots = sorted({k for e in range(0, 32) for k in (1 << e, (1 << e) - 1, (1 << e) + 1)}
                   | set(range(1, 3000)) | {3037000498, 2 ** 31 - 1})
    roots = [k for k in roots if 0 < k and k * k + 1 < 2 ** 62]
    n = np.array([k * k + d for k in roots for d in (-1, 0, 1) if k * k + d > 0],
                 dtype=np.int64)
    want = [1 + math.isqrt(int(v) - 1) for v in n]
    assert ceil_sqrt_array(n).tolist() == want
    assert ceil_sqrt_array(np.array([0, 1, 2])).tolist() == [0, 1, 2]


def _verify_text(argv, capsys):
    code = main(argv)
    return code, capsys.readouterr().out


def test_verify_all_prints_the_recorded_text(capsys):
    code, out = _verify_text(["verify", "--suite", "all", "--gap-max", "3000",
                              "--kplus-max", "500"], capsys)
    assert code == 0
    assert out == (
        "# boundary=adjusted gap_max=3000 kplus_max=500 seed=2024\n"
        "region   PASS  partition exhaustive to 2000, infinite rays included\n"
        "fr       PASS  first-return structure exact for gaps 3..3000\n"
        "injec    PASS  83333 contracting pairs exact; split sums within 0.0035 of log 2\n"
        "codec    PASS  gaps 1..3000 roundtrip, all words distinct\n")


def test_verify_all_paper_boundary_prints_the_recorded_text(capsys):
    code, out = _verify_text(["verify", "--suite", "all", "--gap-max", "3000",
                              "--kplus-max", "500", "--boundary", "paper"], capsys)
    assert code == 1
    assert out == (
        "# boundary=paper gap_max=3000 kplus_max=500 seed=2024\n"
        "region   PASS  partition exhaustive to 2000, infinite rays included\n"
        "fr       FAIL  no R3 visit at gaps [4, 8, 16, 32, 64, 128, 256, 512]...\n"
        "injec    PASS  83167 contracting pairs exact; split sums within 0.0035 of log 2\n"
        "codec    PASS  non-anomalous gaps roundtrip; anomalies exactly the "
        "10 powers of two >= 4\n")


# each suite's sweep: its first value and the bound it runs to
SWEEPS = {"region": (0, "gap"), "fr": (3, "gap"), "injec": (2, "kplus"), "codec": (1, "gap")}


@pytest.mark.parametrize("gap_max, kplus_max", [(-1, -1), (0, 0), (1, 1), (2, 2), (5, 3)])
def test_suites_on_tiny_ranges(gap_max, kplus_max):
    """A suite whose sweep would check nothing refuses it; the rest pass."""
    results = {}
    for name, fn in SUITES.items():
        lo, bound = SWEEPS[name]
        hi = gap_max if bound == "gap" else kplus_max
        if hi < max(lo, 1):
            message = f"a sweep from {lo} must end at {max(lo, 1)} or past it, not at {hi}"
            with pytest.raises(ValueError, match=f"^{message}$"):
                fn(gap_max, kplus_max, ADJUSTED)
        else:
            results[name] = fn(gap_max, kplus_max, ADJUSTED)
    assert all(ok for ok, _ in results.values())
    if gap_max == 5:
        assert results["fr"][1] == "first-return structure exact for gaps 3..5"
        assert results["codec"][1] == "gaps 1..5 roundtrip, all words distinct"


LAW = cdc.region_steps
CONTRACTING = cdc._contracting_steps


def _floor_halving(km, kp, boundary=ADJUSTED):
    """The law with R4 stepping floor(k+/2) instead of ceil(k+/2)."""
    region, step = LAW(km, kp, boundary)
    kp = np.asarray(kp)
    return region, np.where(region == 4, np.maximum(kp // 2, np.minimum(kp, 1)), step)


def _long_r3_step(km, kp):
    """The contracting step one longer whenever 7 divides k+."""
    return np.minimum(CONTRACTING(km, kp) + (kp % 7 == 0), kp)


def _short_r3_step(km, kp):
    """The contracting step one shorter, kept >= 1 so every walk ends."""
    return np.maximum(CONTRACTING(km, kp) - 1, 1)


def _shorter_r3_step_at_11(km, kp):
    """The contracting step one shorter whenever 11 divides k+: at (4, 11)
    it falls below (k+ - k-)/2."""
    return CONTRACTING(km, kp) - (kp % 11 == 0)


def _halved_gap_at_13(km, kp):
    """The step ceil((k+ - k-)/2) whenever 13 divides k+: the equality case
    of the lower bound, at (5, 13), off k+ = 3k-."""
    return np.where(kp % 13 == 0, (kp - km + 1) // 2, CONTRACTING(km, kp))


# The texts of the last two laws were recorded with the mutation applied to
# the R3 entries of ``region_steps`` and injec's four checks stacked row by
# row: its single mask reports the same first failure.
@pytest.mark.parametrize("law, expected", [
    (_floor_halving, {"fr": "gap 7: parity expansion broken at step 3",
                      "codec": "roundtrip failed at gap 7"}),
    # the words of this law are well formed but not the true law's code
    # words, so decode_word rejects the first of them as not in the image
    (_long_r3_step, {"injec": "upper step bound broken at k+=7",
                     "codec": "roundtrip failed at gap 11"}),
    (_short_r3_step, {"fr": "gap 5: z1 out of range (-1)",
                      "injec": "defect bound broken at k+=3",
                      "codec": "gap 5: z1 out of range (-1)"}),
    (_shorter_r3_step_at_11, {"fr": "gap 15: z1 out of range (-1)",
                              "injec": "lower step bound broken at k+=11",
                              "codec": "gap 15: z1 out of range (-1)"}),
    (_halved_gap_at_13, {"fr": "gap 21: z1 out of range (-5)",
                         "injec": "unexpected equality case at k+=13",
                         "codec": "gap 21: z1 out of range (-5)"}),
])
def test_suites_report_the_first_failure_of_a_broken_law(monkeypatch, law, expected):
    target = "region_steps" if law is _floor_halving else "_contracting_steps"
    monkeypatch.setattr(cdc, target, law)
    for name, fn in SUITES.items():
        ok, detail = fn(3000, 300, ADJUSTED)
        if name in expected:
            assert (ok, detail) == (False, expected[name])
        else:
            assert ok, detail


def test_fr_names_the_step_where_halving_breaks(monkeypatch):
    """R4 steps 1 instead of 2 at k+ = 3 in the block of gap 14 only, so k+
    runs 6, 3, 2, 1 after R3: the halving breaks at the step where the true
    walk has k+ = 3, above the first step after R3."""
    def law(km, kp, boundary=ADJUSTED):
        region, step = LAW(km, kp, boundary)
        return region, np.where((region == 4) & (kp == 3) & (km + kp == 14), 1, step)

    kplus, regions = [14], []
    while kplus[-1]:
        region, step = reference_law(14 - kplus[-1], kplus[-1], ADJUSTED)
        regions.append(region)
        kplus.append(kplus[-1] - step)
    broken = kplus.index(3)
    assert broken > regions.index(3) + 1
    monkeypatch.setattr(cdc, "region_steps", law)
    assert SUITES["fr"](3000, 0, ADJUSTED) == (
        False, f"gap 14: parity expansion broken at step {broken}")


def _overshooting_r3_step(km, kp):
    """The contracting step one past k+ whenever 5 divides k+."""
    return np.where(kp % 5 == 0, kp + 1, CONTRACTING(km, kp))


def test_an_overshooting_walk_is_a_typed_error_and_a_cli_error(monkeypatch, capsys):
    monkeypatch.setattr(cdc, "_contracting_steps", _overshooting_r3_step)
    message = "orbit overshot the block: gap=7"
    with pytest.raises(cdc.FirstReturnStructureError, match=f"^{message}$"):
        return_profile(7)
    with pytest.raises(cdc.FirstReturnStructureError, match=f"^{message}$"):
        cdc.return_profiles(range(1, 30))
    assert main(["verify", "--suite", "fr", "--gap-max", "30"]) == 2
    assert capsys.readouterr() == ("", f"error: {message}\n")


def test_region_suite_reports_the_first_misplaced_pair(monkeypatch):
    def law(km, kp, boundary=ADJUSTED):
        region, step = LAW(km, kp, boundary)
        return np.where((km == 37) & ((kp == 200) | (kp == 300)), 4, region), step

    monkeypatch.setattr(cdc, "region_steps", law)
    assert SUITES["region"](350, 0, ADJUSTED) == (False, "pair (37,200) fell into R4")


def test_the_contracting_law_is_written_once(monkeypatch):
    """The scalar law, the batch law and the injec suite all take the R3
    step from ``_contracting_steps``; ``reference_law`` stays the oracle."""
    assert reference_law(2, 5, ADJUSTED) == cdc._region_step(2, 5, True) == (3, 2)
    monkeypatch.setattr(cdc, "_contracting_steps", lambda km, kp: kp - km)
    assert cdc._region_step(2, 5, True) == (3, 3)
    assert cdc.region_steps([2, 0, 5, 1], [5, 5, 5, 5])[1].tolist() == [3, 1, 3, 1]
    assert SUITES["injec"](0, 20, ADJUSTED) == (False, "defect bound broken at k+=3")


def test_z1_out_of_range_is_a_typed_error_and_a_cli_error(monkeypatch, capsys):
    monkeypatch.setattr(cdc, "_contracting_steps", _short_r3_step)
    with pytest.raises(cdc.FirstReturnStructureError, match="z1 out of range for gap 5: -1"):
        return_profile(5)
    for argv in (["codec", "profile", "--gap", "5"], ["codec", "encode", "--gap", "5"],
                 ["report", "--gap-max", "50", "--kplus-max", "30", "--grid", "1e-3..1e-4"]):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err == "error: z1 out of range for gap 5: -1\n", argv
        assert captured.out == ""
    assert main(["codec", "roundtrip", "--gap-max", "100"]) == 1
    assert capsys.readouterr().out == "codec FAIL  gap 5: z1 out of range (-1)\n"


@pytest.mark.parametrize("name", sorted(SUITES))
def test_suites_take_any_integer_bound_and_refuse_a_float(name):
    fn = SUITES[name]
    want = fn(100, 30, ADJUSTED)
    assert want[0]
    for kind in (np.int64, np.int32, np.uint16):
        assert fn(kind(100), kind(30), ADJUSTED) == want
    with pytest.raises(TypeError):
        fn(100.0, 30.0, ADJUSTED)


def test_injec_names_an_overshooting_step_without_numpy_warnings(monkeypatch):
    """A contracting step past k+ would put a negative value under the root of
    the defect; the upper step bound names its row first, and nothing warns."""
    monkeypatch.setattr(cdc, "_contracting_steps", _overshooting_r3_step)
    with np.errstate(all="raise"), warnings.catch_warnings():
        warnings.simplefilter("error")
        assert SUITES["injec"](0, 300, ADJUSTED) == (False, "upper step bound broken at k+=5")
