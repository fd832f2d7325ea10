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
from singflow.codec import ceil_sqrt_array
from singflow.verify import _INJEC_FAILURES, SUITES, _ranges

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


def test_ceil_sqrt_array_refuses_entries_outside_its_range():
    """Past 2^62 the float root is no longer close enough (2^63 - 1 would read
    3037000501, not 3037000500), and a negative entry has no root: both raise,
    before numpy warns of anything."""
    top = 2 ** 62 - 1
    assert ceil_sqrt_array(np.array([top, 0])).tolist() == [1 + math.isqrt(top - 1), 0]
    assert ceil_sqrt_array(np.array([], dtype=np.int64)).tolist() == []
    with np.errstate(all="raise"), warnings.catch_warnings():
        warnings.simplefilter("error")
        for bad in ([2 ** 62], [2 ** 63 - 1], [-1], [4, -9, 16], [-(2 ** 63)]):
            with pytest.raises(ValueError, match=r"^ceil_sqrt_array needs 0 <= v < 2\^62$"):
                ceil_sqrt_array(np.array(bad, dtype=np.int64))


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


@pytest.mark.parametrize("boundary", [ADJUSTED, PAPER])
@pytest.mark.parametrize("kplus_max", [2, 3])
def test_injec_counts_a_split_step_past_k_plus_as_an_infinite_error(monkeypatch, kplus_max,
                                                                     boundary):
    """No row reaches k+ = 5, so the row checks pass; the split sums' steps
    k+ + 1 at k+ = 1500, 2000, ... would read h[-2], now an infinite error
    whatever the table's length."""
    monkeypatch.setattr(cdc, "_contracting_steps", _overshooting_r3_step)
    with np.errstate(all="raise"), warnings.catch_warnings():
        warnings.simplefilter("error")
        assert SUITES["injec"](0, kplus_max, boundary) == (
            False, "harmonic split sum off by inf")


@pytest.mark.parametrize("boundary", [ADJUSTED, PAPER])
def test_injec_counts_a_split_step_past_the_table_as_an_infinite_error(monkeypatch, boundary):
    """A step of -2 at (k-, k+) = (5000, 15000), the largest split pair, would
    read h[15001], one past the table's 15,001 entries."""
    monkeypatch.setattr(cdc, "_contracting_steps", lambda km, kp: np.where(
        (km == 5000) & (kp == 15000), -2, CONTRACTING(km, kp)))
    assert SUITES["injec"](0, 20, boundary) == (False, "harmonic split sum off by inf")


def _root_defect_out_of_range(s, v):
    """injec's defect check as it was written with a root: the defect
    s - ceil(sqrt(v)), with v clamped at 0, outside 0..4."""
    signed = s - ceil_sqrt_array(np.maximum(v, 0))
    return (signed < 0) | (signed > 4)


def _integer_defect_out_of_range(s, v):
    """The two integer comparisons injec_suite makes in place of the root."""
    return (v > s * s) | ((s >= 5) & (v <= (s - 5) ** 2))


def _defect_triples(rng, n):
    """n seeded (k-, k+, L) with v = 8 k- (k+ - L) at one of s^2, s^2 - 1,
    (s-5)^2, (s-5)^2 - 1 for s = k+ + k-, where 8 k- divides it.  v is a
    multiple of 8, so it never meets a square plus one."""
    triples = []
    while len(triples) < n:
        s = int(rng.integers(1, 1 << 29))
        target = [s * s, s * s - 1, (s - 5) ** 2, (s - 5) ** 2 - 1][len(triples) % 4]
        km = int(rng.integers(1, 40))
        if 0 < target and target % (8 * km) == 0 and km < s:
            kp = s - km
            triples.append((km, kp, kp - target // (8 * km)))
    return np.array(triples, dtype=np.int64).T


def test_the_integer_defect_check_is_the_root_check():
    """Element by element: every s < 70 against every v from -3 to (s + 1)^2,
    squares and their neighbours included; seeded triples (k-, k+, L) with k+
    below 2^29, steps past k+ (v < 0) and rows s < 5 among them; and triples
    with v at the two squares or one below, where the comparisons switch."""
    s = np.repeat(np.arange(70), [(k + 1) ** 2 + 4 for k in range(70)])
    v = np.concatenate([np.arange(-3, (k + 1) ** 2 + 1) for k in range(70)])
    want = _root_defect_out_of_range(s, v)
    assert (_integer_defect_out_of_range(s, v) == want).all()
    assert want.any() and not want.all()
    rng = np.random.default_rng(2029)
    km = rng.integers(1, 1 << 28, 200000)
    kp = km + rng.integers(1, 1 << 28, km.size)
    km[::11], kp[::11] = 1, rng.integers(2, 4, kp[::11].size)  # s < 5
    L = cdc._contracting_steps(km, kp) + rng.integers(-3, 4, km.size)
    L[::7] = kp[::7] + rng.integers(1, 1000, L[::7].size)  # steps past k+
    for km, kp, L in ((km, kp, L), _defect_triples(rng, 4000)):
        s, v = kp + km, 8 * km * (kp - L)
        want = _root_defect_out_of_range(s, v)
        assert (_integer_defect_out_of_range(s, v) == want).all()
        assert want.any() and not want.all()


def _root_injec_suite(gap_max, kplus_max, boundary):
    """injec_suite as it was written with a root and a 60,000-entry harmonic
    table: the oracle of the integer checks."""
    checked = 0
    for kps in _ranges(2, kplus_max, 2 * kplus_max // 3):
        los = -(-kps // 3) if boundary == ADJUSTED else kps // 3 + 1
        kp = np.repeat(kps, kps - los)
        km = np.arange(kp.size) + np.repeat(los - np.searchsorted(kp, kps), kps - los)
        L = cdc._contracting_steps(km, kp)
        signed = kp + km - ceil_sqrt_array(np.maximum(8 * km * (kp - L), 0))
        failed = (L > (kp + 1) // 2) | (signed < 0) | (signed > 4)
        if failed.any():
            kplus = kp[failed.argmax()]
            fails = np.stack([2 * L < kp - km, (2 * L == kp - km) & (kp != 3 * km),
                              L > (kp + 1) // 2, (signed < 0) | (signed > 4)])
            check = fails[:, kp == kplus].any(axis=1).argmax()
            return False, f"{_INJEC_FAILURES[check]} at k+={kplus}"
        checked += kp.size
    h = np.concatenate([[0.0], np.cumsum(1.0 / np.arange(1, 60001))])
    base = np.array([1000, 1499, 2000, 3000, 5000])
    km0 = np.repeat(base, 4)
    kp0 = np.stack([base + 1, 3 * base // 2, 2 * base, 3 * base], axis=1).ravel()
    L0 = cdc._contracting_steps(km0, kp0)
    split = ((h[(kp0 + km0) // 2] - h[km0 - 1])
             + (h[-(-(kp0 + km0) // 2)] - h[kp0 - L0 - 1]))
    worst = np.abs(split - math.log(2.0)).max()
    if worst > 0.01:
        return False, f"harmonic split sum off by {worst:.4f}"
    return True, f"{checked} contracting pairs exact; split sums within {worst:.4f} of log 2"


def _seeded_r3_step(seed):
    """The contracting step moved by -3..3 on a seeded few rows of k+."""
    shift = np.random.default_rng(seed).integers(-3, 4, 1001) * (
        np.random.default_rng(seed + 1).random(1001) < 0.02)
    return lambda km, kp: CONTRACTING(km, kp) + shift[np.minimum(kp, 1000)]


def _r3_step_at_square(k, j):
    """The contracting step moved to k+ - (s - k)^2 / (8 k-) + j on every pair
    where 8 k- divides (s - k)^2 and the step bounds still hold: there v is
    (s - k)^2 - 8 k- j, and the defect sits at k or one step off it."""
    def law(km, kp):
        s, L = km + kp, CONTRACTING(km, kp)
        q, rem = np.divmod((s - k) ** 2, 8 * km)
        step = kp - q + j
        return np.where((rem == 0) & (2 * step > kp - km) & (step <= (kp + 1) // 2), step, L)
    return law


@pytest.mark.parametrize("boundary", [ADJUSTED, PAPER])
@pytest.mark.parametrize("law", [
    None, _floor_halving, _long_r3_step, _short_r3_step, _shorter_r3_step_at_11,
    _halved_gap_at_13, _overshooting_r3_step, lambda km, kp: kp - km,
    *(_seeded_r3_step(seed) for seed in range(0, 40, 2)),
    *(_r3_step_at_square(k, j) for k in (0, 4, 5) for j in (-1, 0, 1))])
def test_injec_matches_the_root_oracle(monkeypatch, law, boundary):
    if law is not None:
        target = "region_steps" if law is _floor_halving else "_contracting_steps"
        monkeypatch.setattr(cdc, target, law)
    for kplus_max in (2, 3, 20, 300, 1000):
        got = SUITES["injec"](0, kplus_max, boundary)
        want = _root_injec_suite(0, kplus_max, boundary)
        if law is _overshooting_r3_step and kplus_max < 5:
            # no row reaches k+ = 5, and the split sums read h[k+ - L - 1] = h[-2],
            # counted from the end of tables of different lengths: both fail there
            assert not got[0] and not want[0]
            assert got[1].startswith("harmonic split sum off by ")
        else:
            assert got == want
