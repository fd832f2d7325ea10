import hashlib
import json
import os
import pathlib
import subprocess
import sys
import time

import numpy as np
import pytest

from singflow import cli, suspension
from singflow import codec as cdc
from singflow.cli import GridSpecError, main, parse_grid


def run_cli(argv, capsys):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_parse_grid():
    assert parse_grid("1e-3..1e-5") == [1e-3, 1e-4, 1e-5]
    assert parse_grid("0.5,0.25") == [0.5, 0.25]
    with pytest.raises(ValueError):
        parse_grid("1e-5..1e-3")
    with pytest.raises(ValueError):
        parse_grid("2e-3..1e-5")
    assert issubclass(GridSpecError, ValueError)  # the CLI's exit-2 path catches ValueError
    for spec in ("1e-3..x", "", " ", "nan", "inf", "0.5,2", "1e-3,,1e-4", "1e-3,", "1..1e-3",
                 "1e-5..1e-3", "0..1e-3", "1e-3..1e-4..1e-5",
                 # digits that are not ASCII, and underscores, which float() reads
                 "\u0660.\u0665,1_0e-3", "1_0e-3", "\uff11e-3", "1e-3..1e-1_2"):
        with pytest.raises(GridSpecError):
            parse_grid(spec)


def test_parse_grid_yields_lambdas_or_grid_spec_errors():
    hyp = pytest.importorskip("hypothesis")
    st = hyp.strategies
    token = st.one_of(st.sampled_from(["1e-3", "1e-12", "0.5", "1", "0", "-0.1", "2", "nan",
                                       "inf", "1e400", "1e-400", "", " ", "x", "1e-3..1e-5"]),
                      st.text(alphabet="0123456789.e-+ ", max_size=6))
    grid = st.lists(token, min_size=1, max_size=4).flatmap(
        lambda toks: st.sampled_from([",", ".."]).map(lambda sep: sep.join(toks)))

    @hyp.settings(max_examples=400, deadline=None, derandomize=True, database=None)
    @hyp.given(st.one_of(st.text(max_size=20), grid))
    def check(spec):
        try:
            lams = parse_grid(spec)
        except GridSpecError:
            return
        assert lams and all(type(lam) is float and 0 < lam < 1 for lam in lams)
        assert spec.isascii() and "_" not in spec

    check()


def test_codec_encode_golden(capsys):
    code, out, _ = run_cli(["codec", "encode", "--gap", "11"], capsys)
    assert code == 0
    assert out == "1^1 2^x 2^x 3^x 4^x 4^1\n"


def test_codec_decode_inverse(capsys):
    code, out, _ = run_cli(["codec", "decode", "--word", "1^1 2^x 2^x 3^x 4^x 4^1"],
                           capsys)
    assert code == 0 and out.strip() == "11"


def test_codec_profile_json(capsys):
    code, out, _ = run_cli(["codec", "profile", "--gap", "11"], capsys)
    payload = json.loads(out)
    assert code == 0
    assert payload["p"] == 6 and payload["r"] == 3
    assert payload["offsets"] == [0, 1, 2, 4, 8, 10, 11]
    assert payload["epsilon_bits"] == {"4": 1}


def test_codec_roundtrip_command(capsys):
    code, out, _ = run_cli(["codec", "roundtrip", "--gap-max", "500"], capsys)
    assert code == 0 and "PASS" in out


def test_entropy_scan_csv(tmp_path):
    target = tmp_path / "scan.csv"
    argv = ["entropy-scan", "--roof", "harmonic:1", "--grid", "1e-3..1e-8",
            "--output", str(target)]
    assert main(argv) == 0
    first = target.read_text()
    lines = first.splitlines()
    assert lines[2] == "lambda,integral,entropy,target,abs_error"
    assert len(lines) == 3 + 6
    last = lines[-1].split(",")
    assert float(last[3]) == 0.5
    # byte-identical reruns
    assert main(argv) == 0
    assert target.read_text() == first


def test_entropy_scan_json(capsys):
    code, out, _ = run_cli(["entropy-scan", "--roof", "power:0.5",
                            "--grid", "1e-2..1e-4", "--format", "json"], capsys)
    payload = json.loads(out)
    assert code == 0
    assert payload["target"] == 0.0
    assert len(payload["rows"]) == 3


def test_verify_suites_pass(capsys):
    code, out, _ = run_cli(["verify", "--suite", "fr", "--gap-max", "3000"], capsys)
    assert code == 0
    assert "fr       PASS" in out


def test_verify_paper_boundary_fails(capsys):
    code, out, _ = run_cli(["verify", "--suite", "fr", "--gap-max", "3000",
                            "--boundary", "paper"], capsys)
    assert code == 1
    assert "FAIL" in out and "4" in out


def test_verify_codec_paper_boundary_asserts_anomalies(capsys):
    code, out, _ = run_cli(["verify", "--suite", "codec", "--gap-max", "3000",
                            "--boundary", "paper"], capsys)
    assert code == 0
    assert "powers of two" in out


def test_metric_command(capsys):
    code, out, _ = run_cli(["metric", "--samples", "40", "--seed", "5"], capsys)
    assert code == 0
    assert out.count("PASS") == 3


def test_metric_seed_recorded(tmp_path):
    target = tmp_path / "metric.txt"
    assert main(["metric", "--samples", "30", "--seed", "99",
                 "--output", str(target)]) == 0
    assert "seed=99" in target.read_text()


@pytest.mark.parametrize("check, broken, lines", [
    ("flowpoints_close", lambda *args: False, [
        "flow-additivity      FAIL  20 triples, 20 mismatches",
        "chain-metric         PASS  symmetry/diagonal/budget/triangle, 0 mismatches",
        "unit-roof-extension  FAIL  equivariance, 10 mismatches"]),
    # every distance 1.0: symmetric, monotone and triangular, but d(p, p) != 0
    ("chain_distances", lambda t, i, ha, j, hb, budgets, reverse=False:
        ((1.0,) * len(budgets),) * (1 + reverse), [
        "flow-additivity      PASS  20 triples, 0 mismatches",
        "chain-metric         FAIL  symmetry/diagonal/budget/triangle, 10 mismatches",
        "unit-roof-extension  PASS  equivariance, 0 mismatches"]),
    # 0 on the diagonal, else more budget, a longer chain, yet too short to break
    # the triangle check
    ("chain_distances", lambda t, i, ha, j, hb, budgets, reverse=False:
        (tuple(0.0 if (i, ha) == (j, hb) else 1e-9 * k for k in budgets),) * (1 + reverse), [
        "flow-additivity      PASS  20 triples, 0 mismatches",
        "chain-metric         FAIL  symmetry/diagonal/budget/triangle, 10 mismatches",
        "unit-roof-extension  PASS  equivariance, 0 mismatches"]),
], ids=["flowpoints_close", "diagonal", "budget"])
def test_metric_prints_fail_lines_and_exits_one(check, broken, lines, monkeypatch, capsys):
    monkeypatch.setattr(cli, check, broken)
    code, out, err = run_cli(["metric", "--samples", "20", "--seed", "3"], capsys)
    assert code == 1 and err == ""
    assert out.splitlines() == ["# roof=harmonic:1 samples=20 seed=3"] + lines


def test_metric_evaluates_each_drawn_roof_once(monkeypatch, capsys):
    """``point`` draws a height under the roof it evaluated and hands that roof
    to the check ``flow_point`` runs too, so a drawn point costs one
    ``roof_eval``: 20 + 4 x 10 points, none evaluated again in ``suspension``
    (``flowpoints_close``, which reads roofs of its own, is stubbed)."""
    calls = {cli: 0, suspension: 0}
    for module in calls:
        def counting(f, x, *rest, module=module, roof_eval=module.roof_eval):
            calls[module] += 1
            return roof_eval(f, x, *rest)
        monkeypatch.setattr(module, "roof_eval", counting)
    monkeypatch.setattr(cli, "flowpoints_close", lambda *args: True)
    code, out, _ = run_cli(["metric", "--samples", "20", "--seed", "3"], capsys)
    assert code == 0 and out.count("PASS") == 3
    assert calls == {cli: 60, suspension: 0}


def test_report_command(tmp_path):
    target = tmp_path / "report.json"
    assert main(["report", "--gap-max", "400", "--kplus-max", "300",
                 "--grid", "1e-3..1e-6", "--output", str(target)]) == 0
    payload = json.loads(target.read_text())
    assert all(s["pass"] for s in payload["suites"].values())
    assert payload["sample_words"]["11"] == "1^1 2^x 2^x 3^x 4^x 4^1"
    assert payload["fiber_word_counts"]["40"] == str(2 ** 20)


def test_bad_roof_spec_exits_nonzero(capsys):
    code, _, err = run_cli(["entropy-scan", "--roof", "nope:1"], capsys)
    assert code == 2 and "error:" in err
    # a well-formed roof the scan cannot use: a constant one
    code, out, err = run_cli(["entropy-scan", "--roof", "const:1", "--grid", "1e-3"], capsys)
    assert (code, out, err) == (2, "", "error: entropy scans need a gap-profile roof\n")


def test_run_config_entrypoint(tmp_path):
    target = tmp_path / "v.txt"
    assert main(["verify", "--suite", "region", "--gap-max", "200",
                 "--output", str(target)]) == 0
    assert "region" in target.read_text()


# options each subcommand used to accept without reading them
UNREAD = [
    ["entropy-scan", "--roof", "harmonic:1", "--boundary", "paper"],
    ["entropy-scan", "--roof", "harmonic:1", "--max-crossings", "10"],
    ["entropy-scan", "--roof", "harmonic:1", "--tol", "1e-9"],
    ["codec", "encode", "--seed", "1"],
    ["codec", "encode", "--tol", "1e-9"],
    ["codec", "encode", "--max-crossings", "10"],
    ["verify", "--suite", "region", "--tol", "1e-9"],
    ["verify", "--suite", "region", "--max-crossings", "10"],
    ["metric", "--samples", "10", "--boundary", "paper"],
    ["metric", "--samples", "10", "--tol", "1e-9"],
    ["report", "--max-crossings", "10"],
    ["report", "--tol", "1e-9"],
]


@pytest.mark.parametrize("argv", UNREAD, ids=[f"{a[0]} {a[-2]}" for a in UNREAD])
def test_unread_options_are_rejected(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


# SHA-256 of the report stdout, recorded before the CLI dropped its config
# object; no bench workload pins the report
@pytest.mark.parametrize("boundary, code, digest", [
    ("adjusted", 0, "2105ed2067dd0c65e17a4e1f5d35b93618557d8e11787aa54f6441a1b269f71a"),
    ("paper", 1, "9430408f40207f2d8e8c6e934258cad51c439338320c8ea8ddea60eeb2272dd8"),
])
def test_report_stdout_is_pinned(boundary, code, digest, capsys):
    got, out, _ = run_cli(["report", "--gap-max", "400", "--kplus-max", "300",
                           "--grid", "1e-3..1e-6", "--boundary", boundary], capsys)
    assert got == code
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_resource_error_exits_two_without_traceback(capsys):
    # min(1/(k log k), 0.05/k) switches branch only at k = 485,165,196
    code, out, err = run_cli(["entropy-scan", "--roof", "trunc:0.05:logharmonic",
                              "--grid", "1e-3"], capsys)
    assert code == 2 and out == ""
    assert err.startswith("error: ") and "485165196" in err


def test_unwritable_output_exits_two_without_traceback(tmp_path, capsys):
    target = tmp_path / "missing" / "x.csv"
    code, out, err = run_cli(["codec", "encode", "--output", str(target)], capsys)
    assert code == 2 and out == ""
    assert err.startswith("error: ") and "x.csv" in err
    assert not target.exists()


def test_metric_budget_below_two_writes_nothing(capsys):
    code, out, err = run_cli(["metric", "--samples", "10", "--budget", "1"], capsys)
    assert code == 2 and out == ""
    assert err.startswith("error: ") and "budget" in err


def test_inadmissible_roof_writes_nothing(capsys):
    # two properties pass before the unit-roof extension rejects the roof
    code, out, err = run_cli(["metric", "--samples", "10", "--roof", "power:2"], capsys)
    assert code == 2 and out == ""
    assert err.startswith("error: ") and "not admissible" in err


@pytest.mark.parametrize("argv, message", [
    (["metric", "--samples", "10", "--budget", "1"], "budget"),
    (["metric", "--samples", "10", "--roof", "power:2"], "not admissible"),
])
def test_error_leaves_output_file_untouched(argv, message, tmp_path, capsys):
    target = tmp_path / "keep.txt"
    target.write_text("kept\n")
    code, out, err = run_cli(argv + ["--output", str(target)], capsys)
    assert code == 2 and out == ""
    assert err.startswith("error: ") and message in err
    assert target.read_text() == "kept\n"


def test_flow_resource_error_exits_two(capsys):
    code, out, err = run_cli(["metric", "--samples", "10", "--max-crossings", "0"], capsys)
    assert code == 2 and out == ""
    assert err.startswith("error: ") and "roof crossings" in err


@pytest.mark.parametrize("argv, message", [
    (["entropy-scan", "--roof", "harmonic:1", "--grid", "inf..1e-3"], "finite"),
    (["report", "--grid", "1e400..1e-3"], "finite"),
    (["entropy-scan", "--roof", "harmonic:1", "--grid", "0..1e-3"], "positive"),
    (["entropy-scan", "--roof", "harmonic:1", "--grid", "1e-3,,1e-4"], "bad grid"),
    (["entropy-scan", "--roof", "trunc:1:" * 1200 + "harmonic:1", "--grid", "1e-3"],
     "nests more than 300 truncations"),
    (["metric", "--samples", "-5"], "samples"),
    (["codec", "decode", "--word", "1^4 2^x 2^x 3^x 4^x 4^1"], "not-in-image"),
    (["verify", "--gap-max", "-1", "--kplus-max", "-1"], "nonnegative"),
    (["verify", "--suite", "injec", "--kplus-max", "-1"], "nonnegative"),
    (["codec", "roundtrip", "--gap-max", "-3"], "nonnegative"),
    (["report", "--gap-max", "-3"], "nonnegative"),
    (["verify", "--gap-max", "2", "--kplus-max", "1"],
     "a sweep from 3 must end at 3 or past it, not at 2"),
    (["codec", "roundtrip", "--gap-max", "0"], "a sweep from 1 must end at 1 or past it, not at 0"),
], ids=["infinite-sweep", "overflowing-sweep", "zero-sweep", "empty-grid-token",
        "deep-roof-spec", "negative-samples", "word-outside-image", "negative-verify-ranges",
        "negative-kplus-max", "negative-roundtrip-range", "negative-report-range",
        "empty-verify-sweep", "empty-roundtrip-sweep"])
def test_bad_sizes_exit_two_and_write_nothing(argv, message, capsys):
    code, out, err = run_cli(argv, capsys)
    assert code == 2 and out == ""
    assert err.startswith("error: ") and message in err


@pytest.mark.parametrize("argv", [
    ["verify", "--suite", "fr", "--gap-max", str(1 << 30)],
    ["verify", "--suite", "codec", "--gap-max", str(1 << 30)],
    ["verify", "--suite", "injec", "--kplus-max", str(1 << 30)],
    ["verify", "--gap-max", str(1 << 30)],
    ["codec", "roundtrip", "--gap-max", str(1 << 30)],
    ["report", "--gap-max", str(1 << 30)],
], ids=["fr", "codec", "injec", "all", "roundtrip", "report"])
def test_a_sweep_past_the_walks_limit_exits_two_at_once(argv, capsys):
    """Gaps and k+ stop below 2^30; a sweep to 2^30 would run for hours
    before the walks refused it, so it is refused before it starts."""
    start = time.perf_counter()
    code, out, err = run_cli(argv, capsys)
    assert time.perf_counter() - start < 1.0
    assert code == 2 and out == ""
    assert err == f"error: a sweep must end below 2^30, not at {1 << 30}\n"


SRC = pathlib.Path(__file__).resolve().parents[1] / "src"
FRESH = "import sys; from singflow.cli import main; sys.exit(main(sys.argv[1:]))"


def test_the_cached_parser_keeps_no_state_between_calls(tmp_path, monkeypatch, capsys):
    """Each call in one process matches the same call made first in a fresh
    interpreter: stdout, exit code and the --output file."""
    monkeypatch.setenv("COLUMNS", "80")  # the help text wraps to the terminal
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(SRC)] + os.environ.get("PYTHONPATH", "").split(os.pathsep)))
    target = tmp_path / "out.txt"
    calls = [
        ["verify", "--suite", "fr", "--gap-max", "300", "--kplus-max", "40"],
        ["verify"],
        ["codec", "encode"],
        ["codec", "encode", "--gap", "4", "--boundary", "paper"],
        ["codec", "decode", "--word", "1^0 3^x 4^x 4^x"],
        ["verify", "--suite", "nope"],
        ["codec", "encode", "--gap", "5", "--output", str(target)],
        ["codec", "encode", "--boundary", "paper"],
        ["--help"],
    ]

    def outcome(run):
        target.unlink(missing_ok=True)
        out, code = run()
        return out, code, target.read_text() if target.exists() else None

    def fresh_run(argv):
        proc = subprocess.run([sys.executable, "-c", FRESH, *argv], env=env,
                              capture_output=True, text=True, check=False)
        return proc.stdout, proc.returncode

    def same_process(argv):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        return capsys.readouterr().out, code

    fresh = [outcome(lambda: fresh_run(argv)) for argv in calls]
    assert [code for _, code, _ in fresh] == [0, 0, 0, 2, 2, 2, 0, 0, 0]
    assert fresh[6][2] == "1^1 2^x 3^x 4^x\n"
    for argv, want in zip(calls, fresh):
        assert outcome(lambda: same_process(argv)) == want, argv


def test_verify_codec_fails_a_law_whose_walks_outgrow_the_decoder(monkeypatch, capsys):
    """A law that halves one step at a time across the block of gap 1000
    makes a walk hundreds of steps long, wider than any code word; the
    suite reports it as a FAIL line, not as an error."""
    law = cdc.region_steps

    def slow_halving(km, kp, boundary=cdc.ADJUSTED):
        region, step = law(km, kp, boundary)
        at_1000 = (region == 4) & (np.asarray(km) + np.asarray(kp) == 1000)
        return region, np.where(at_1000, np.minimum(step, 1), step)

    monkeypatch.setattr(cdc, "region_steps", slow_halving)
    assert cdc.return_profiles([1000])[1].shape[1] > cdc._ROW_MAX
    code, out, err = run_cli(["verify", "--suite", "codec", "--gap-max", "1200"], capsys)
    assert (code, err) == (1, "")
    assert out.splitlines()[1] == "codec    FAIL  roundtrip failed at gap 1000"
