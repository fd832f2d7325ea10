"""Self-test of the benchmark's checks, failure accounting and tracer.

Run from the repository root:  python3 -m pytest bench
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

sf = run.load_program()


def _corrupt_text(out):
    """Change the last digit of a CLI job's stdout."""
    code, text = out
    i = max(i for i, ch in enumerate(text) if ch.isdigit())
    return code, text[:i] + str((int(text[i]) + 1) % 10) + text[i + 1:]


LIBRARY_CORRUPTIONS = {
    "entropy-scan": ("flow_entropy_bernoulli table", lambda reports: [
        dataclasses.replace(r, value=r.value * (1 + 1e-9)) for r in reports]),
    "flow-geometry": ("flow harmonic", lambda out: (
        dataclasses.replace(out[0], height=out[0].height + 1e-6), out[1])),
    "sequence-codec": ("decode_sequence #0", lambda y: y.shifted(1)),
}


def _failed_after(job, output) -> int:
    ledger = run.Ledger(golden=None)
    ledger.record(job, output, None)
    return ledger.failed


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_corrupted_output_is_counted_as_failed(name):
    jobs = workloads.WORKLOADS[name](sf, 3)
    cli_job = next((j for j in jobs if j.cli), None)
    if cli_job is not None:
        out = cli_job.run()
        assert _failed_after(cli_job, out) == 0
        assert _failed_after(cli_job, _corrupt_text(out)) == 1
        assert _failed_after(cli_job, (out[0] + 1, out[1])) == 1
    if name in LIBRARY_CORRUPTIONS:
        prefix, corrupt = LIBRARY_CORRUPTIONS[name]
        # decode reads the image that encode left behind, so run in order
        outputs = {}
        for job in jobs:
            outputs[job.name] = job.run()
            if job.name.startswith(prefix):
                break
        assert _failed_after(job, outputs[job.name]) == 0
        assert _failed_after(job, corrupt(outputs[job.name])) == 1


def test_raising_job_is_counted_as_failed():
    def boom():
        raise ValueError("broken")
    ledger = run.Ledger(golden=None)
    run.run_pass([workloads.Job("boom", boom, lambda out: None)], ledger)
    assert (ledger.attempted, ledger.failed) == (1, 1)
    assert "ValueError" in ledger.reasons[0]


def test_golden_hash_mismatch_is_counted_as_failed():
    job = workloads.verify_sweep(sf, workloads.DEFAULT_SEED)[-1]
    golden = json.loads(run.GOLDEN.read_text())["verify-sweep"]
    out = job.run()
    ledger = run.Ledger(golden)
    ledger.record(job, out, None)
    assert ledger.failed == 0
    ledger = run.Ledger({job.name: "0" * 64})
    ledger.record(job, out, None)
    assert ledger.failed == 1


def test_tracer_removes_every_wrapper():
    before = {id(v) for m in spans._holders() for v in vars(m).values()}
    tracer = spans.Tracer()
    tracer.install()
    assert tracer.bindings > len(spans.SPANS)  # aliases were wrapped too
    tracer.remove()
    assert {id(v) for m in spans._holders() for v in vars(m).values()} == before


def test_baseline_is_frozen_and_separate():
    import mpmath

    prec = mpmath.mp.prec
    base, context = run.load_baseline()
    assert run.tree_digest(run.BASELINE) == run.BASELINE_SHA256
    assert base.cli.main is not sf.cli.main
    assert run.BASELINE.resolve() in Path(base.__file__).resolve().parents
    assert mpmath.mp.prec == prec
    with context():
        mpmath.mp.prec = prec + 7
    assert mpmath.mp.prec == prec
    with context():
        assert mpmath.mp.prec == prec + 7
        mpmath.mp.prec = prec  # leave the baseline as it was
    twin = run.baseline_jobs(workloads.sequence_codec, 3)[1]
    assert twin.check(twin.run()) is None


def _bench(root: Path, *args) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=root,
                          capture_output=True, text=True, timeout=600)


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_layer_calls_repeat_between_processes(name):
    args = ("--workload", name, "--seed", "5", "--seconds", "0.1", "--trace", "1")
    runs = [json.loads(_bench(BENCH.parent, *args).stdout.splitlines()[-1]) for _ in range(2)]
    calls = [{k: v["value"] for k, v in r["metrics"].items() if k.endswith(".calls")}
             for r in runs]
    assert all(r["correct"] and r["failed"] == 0 for r in runs)
    assert calls[0] == calls[1] and any(calls[0].values())


def test_benchmark_json_names_the_printed_metrics():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert ([(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]]
            == spans.metric_catalog() + list(run.EXTRA_LAYER))
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    proc = _bench(tmp_path, "--workload", "verify-sweep", "--seed", "1",
                  "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
