import hashlib
import json

import pytest

from singflow.cli import main, parse_grid


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
