"""Benchmark for singflow: four workloads, end-to-end and per-layer metrics.

Run from the repository root (the program is imported from ./src):

    python3 bench/run.py --workload verify-sweep --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seconds 5     # every workload, both modes
    python3 bench/run.py --record-golden                # re-record bench/golden.json

A run times set-up in fresh interpreters, runs one untimed warm-up pass of
the workload's jobs, then repeats the jobs closed-loop (one job at a time, one
process, no extra threads) until --seconds have passed, checking every output
of every pass.  With --trace 0 every job runs right beside its twin on the
frozen baseline copy of the program in bench/baseline, and the run reports
the end-to-end metrics, the workload's time among them as a ratio to the
baseline's time in the same passes.  With --trace 1 it alternates plain
passes with passes under the tracer and reports the per-layer metrics and
the tracer's overhead.  The last stdout line is one JSON object with the keys
correct, attempted, failed and metrics; a fuller record, with the
environment, every pass time and the aggregated spans, is written to
bench/out/.  WORKLOADS.md gives the rationale for each workload and the
metric each layer should move.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import functools
import hashlib
import importlib
import importlib.util
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
GOLDEN = BENCH / "golden.json"
BASELINE = BENCH / "baseline" / "singflow"
BASELINE_NAME = "singflow_baseline"
# digest of bench/baseline/singflow; the yardstick must never change
BASELINE_SHA256 = "390ba781eaac788dc153137ef869e1c877f4fdaa62c716e5f11fd214a7e62bb2"

SETUP_RUNS = 9
IMPORT_PROFILE_RUNS = 3

END_TO_END = (("setup_s", "s"), ("wall_ratio", "ratio"), ("peak_rss_mb", "MB"))
EXTRA_LAYER = (("trace.overhead", "ratio", "lower"),
               ("setup.numpy.import_s", "s", "lower"),
               ("setup.mpmath.import_s", "s", "lower"),
               ("setup.singflow.import_s", "s", "lower"))

SETUP_CODE = """\
import sys, time
sys.path.insert(0, sys.argv[1])
t0 = time.perf_counter()
import singflow, singflow.cli
print(time.perf_counter() - t0)
print(singflow.__file__)
"""


def fail(message: str) -> None:
    print(f"bench: {message}", file=sys.stderr)
    sys.exit(2)


def load_program():
    """Import singflow from ./src, never from an installed copy."""
    if not (SRC / "singflow" / "__init__.py").is_file():
        fail(f"no singflow sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import singflow
    import singflow.cli  # noqa: F401  (binds singflow.cli)

    if SRC.resolve() not in Path(singflow.__file__).resolve().parents:
        fail(f"singflow was imported from {singflow.__file__}, not {SRC}")
    return singflow


def tree_digest(root: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted(root.rglob("*.py")):
        digest.update(str(path.relative_to(root)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


@functools.cache
def load_baseline():
    """Import the frozen copy in bench/baseline as ``singflow_baseline``.

    Returns the package and a context manager that every use of it must
    enter; a module is imported once, so later calls return the same pair.  Both copies share mpmath's global context, and roofs raises its
    precision on import; the context swaps in the baseline's own precision
    and swaps back the program's, so neither copy sees the other's.
    """
    import mpmath

    if tree_digest(BASELINE) != BASELINE_SHA256:
        fail(f"{BASELINE} differs from the frozen baseline; restore it from git")
    program_prec = mpmath.mp.prec
    spec = importlib.util.spec_from_file_location(
        BASELINE_NAME, BASELINE / "__init__.py", submodule_search_locations=[str(BASELINE)])
    package = importlib.util.module_from_spec(spec)
    sys.modules[BASELINE_NAME] = package
    spec.loader.exec_module(package)
    importlib.import_module(f"{BASELINE_NAME}.cli")
    own = [mpmath.mp.prec]
    mpmath.mp.prec = program_prec

    @contextlib.contextmanager
    def context():
        theirs = mpmath.mp.prec
        mpmath.mp.prec = own[0]
        try:
            yield
        finally:
            own[0] = mpmath.mp.prec
            mpmath.mp.prec = theirs

    return package, context


def baseline_jobs(build, seed: int) -> list:
    """The workload's jobs on the baseline, each run inside its context;
    every output is checked once here, so the yardstick is known to work."""
    package, context = load_baseline()
    with context():
        jobs = build(package, seed)

    def inside(job):
        def run():
            with context():
                return job.run()
        return dataclasses.replace(job, run=run)

    jobs = [inside(job) for job in jobs]
    for job in jobs:
        reason = job.check(job.run())
        if reason:
            fail(f"the baseline failed its own check on {job.name}: {reason}")
    return jobs


def import_child(extra_args=()) -> subprocess.CompletedProcess:
    proc = subprocess.run([sys.executable, *extra_args, "-c", SETUP_CODE, str(SRC)],
                          capture_output=True, text=True, timeout=120, cwd=ROOT)
    if proc.returncode != 0:
        fail(f"import in a fresh interpreter failed:\n{proc.stderr}")
    path = proc.stdout.split("\n")[1]
    if SRC.resolve() not in Path(path).resolve().parents:
        fail(f"fresh interpreter imported singflow from {path}")
    return proc


def setup_seconds() -> float:
    """Import time of singflow and singflow.cli in a fresh interpreter."""
    return float(import_child().stdout.split("\n")[0])


def import_profile() -> dict:
    """Median cumulative import time of numpy, mpmath and singflow's own
    modules, from ``python -X importtime``."""
    runs = []
    for _ in range(IMPORT_PROFILE_RUNS):
        cumulative = {}
        for line in import_child(("-X", "importtime")).stderr.splitlines():
            parts = line.split("|")
            if len(parts) == 3 and parts[1].strip().isdigit():
                cumulative.setdefault(parts[2].strip(), int(parts[1]) / 1e6)
        own = (cumulative["singflow"] + cumulative["singflow.cli"]
               - cumulative["numpy"] - cumulative["mpmath"])
        runs.append({"setup.numpy.import_s": cumulative["numpy"],
                     "setup.mpmath.import_s": cumulative["mpmath"],
                     "setup.singflow.import_s": own})
    return {k: statistics.median(r[k] for r in runs) for k in runs[0]}


def environment(args) -> dict:
    import mpmath
    import numpy

    try:
        # the ceiling keeps git from reporting a repository that encloses ROOT
        commit = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                capture_output=True, text=True, timeout=10,
                                env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)}
                                ).stdout.strip()
    except OSError:
        commit = ""
    return {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "cpu_count": os.cpu_count(),
            "cpu_affinity": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "mpmath": mpmath.__version__, "platform": platform.platform(),
            "commit": commit or None, "src_sha256": tree_digest(SRC)}


class Ledger:
    """Jobs attempted and failed, with the first reasons."""

    def __init__(self, golden: dict | None):
        self.golden = golden
        self.attempted = 0
        self.failed = 0
        self.reasons: list = []

    def record(self, job, output, error) -> None:
        self.attempted += 1
        reason = error if error else job.check(output)
        if not reason and self.golden is not None and job.cli:
            want = self.golden.get(job.name)
            got = hashlib.sha256(output[1].encode()).hexdigest()
            if got != want:
                reason = f"stdout sha256 {got} differs from the golden {want}"
        if reason:
            self.failed += 1
            if len(self.reasons) < 20:
                self.reasons.append(f"{job.name}: {reason}")


def run_pass(jobs, ledger: Ledger, tracer=None) -> list:
    """Run every job once, in order; return the seconds spent in each."""
    seconds = []
    for job in jobs:
        output, error = None, None
        if tracer is not None:
            tracer.job = job.name
        t0 = perf_counter()
        try:
            output = job.run()
        except Exception as exc:  # a raising job is a failed job; keep measuring
            error = f"raised {type(exc).__name__}: {exc}"
        seconds.append(perf_counter() - t0)
        if tracer is not None:
            tracer.job = None
        ledger.record(job, output, error)
    return seconds


def traced_pass(jobs, ledger: Ledger, tracer) -> tuple[list, dict]:
    tracer.install()
    try:
        seconds = run_pass(jobs, ledger, tracer)
    finally:
        tracer.remove()
    return seconds, tracer.take()


def paired_pass(jobs, twins, ledger: Ledger) -> tuple[list, list]:
    """Run every job twice around two runs of its baseline twin (job, twin,
    twin, job), so that a drift in the host's speed over the four runs
    cancels; return the mean seconds of each job and of each twin."""
    seconds, twin_seconds = [], []
    for job, twin in zip(jobs, twins):
        first = run_pass([job], ledger)[0]
        twin_runs = time_call(twin.run) + time_call(twin.run)
        seconds.append((first + run_pass([job], ledger)[0]) / 2)
        twin_seconds.append(twin_runs / 2)
    return seconds, twin_seconds


def time_call(fn) -> float:
    t0 = perf_counter()
    fn()
    return perf_counter() - t0


def fastest_jobs(passes: list) -> float:
    """Sum over jobs of each job's fastest time in any pass.

    Load from other tenants of a shared host only adds time, in phases that
    can outlast a pass; a job's fastest run is its own cost, and the sum is
    the time to finish the workload's jobs without that load.
    """
    return sum(min(times) for times in zip(*passes))


def merge_spans(total: dict, spans: dict) -> None:
    for key, row in spans.items():
        acc = total.setdefault(key, [0] * len(row))
        for i, v in enumerate(row):
            acc[i] += v


def measure(args) -> int:
    sf = load_program()
    import spans as tr
    import workloads

    env = environment(args)
    if not args.trace:
        import_child()  # may compile bytecode; not counted
    build = workloads.WORKLOADS[args.workload]
    jobs = build(sf, args.seed)
    golden = None
    if args.seed == workloads.DEFAULT_SEED:
        golden = json.loads(GOLDEN.read_text()).get(args.workload, {})
    ledger = Ledger(golden)
    run_pass(jobs, ledger)  # warm-up: caches and lazy set-up, checked, not timed
    # the program alone, before the baseline adds its own modules and caches
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    tracer = tr.Tracer() if args.trace else None
    twins = [] if args.trace else baseline_jobs(build, args.seed)
    plain, traced, baseline, layers, spans, setup = [], [], [], [], {}, []
    start = perf_counter()
    deadline = start + args.seconds
    while True:
        if tracer is not None:
            plain.append(run_pass(jobs, ledger))
            seconds, pass_spans = traced_pass(jobs, ledger, tracer)
            traced.append(seconds)
            layers.append(tr.per_layer(pass_spans))
            merge_spans(spans, pass_spans)
        else:
            seconds, twin_seconds = paired_pass(jobs, twins, ledger)
            plain.append(seconds)
            baseline.append(twin_seconds)
            # set-up samples spread over the run, so that one phase of the
            # host's load does not decide them all
            if len(setup) < min(SETUP_RUNS, SETUP_RUNS * (perf_counter() - start) / args.seconds):
                setup.append(setup_seconds())
        if perf_counter() >= deadline:
            break
    while not args.trace and len(setup) < SETUP_RUNS:
        setup.append(setup_seconds())

    correct = ledger.failed == 0
    if args.trace:
        metrics = {}
        for name, unit, _ in tr.metric_catalog():
            values = [layer[name] for layer in layers]
            if name.endswith((".calls", ".errors", "_ratio")):
                if len(set(values)) != 1:
                    correct = False
                    ledger.reasons.append(f"{name} differs between passes: {values}")
                metrics[name] = (values[0], unit)
            else:
                metrics[name] = (statistics.median(values), unit)
        metrics["trace.overhead"] = (fastest_jobs(traced) / fastest_jobs(plain), "ratio")
        for name, value in import_profile().items():
            metrics[name] = (value, "s")
    else:
        ratios = [sum(p) / sum(b) for p, b in zip(plain, baseline)]
        metrics = {"setup_s": (statistics.median(setup), "s"),
                   "wall_ratio": (statistics.median(ratios), "ratio"),
                   "peak_rss_mb": (peak_mb, "MB")}

    result = {"correct": correct, "attempted": ledger.attempted, "failed": ledger.failed,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    record = {"environment": env, "result": result, "jobs": [job.name for job in jobs],
              "setup_s": setup, "plain_job_s": plain, "traced_job_s": traced,
              "baseline_job_s": baseline,
              "failures": ledger.reasons,
              "spans": [{"job": j, "parent": p, "span": s, "calls": r[0], "total_s": r[1],
                         "self_s": r[2], "errors": r[3]}
                        for (j, p, s), r in sorted(spans.items(), key=lambda kv: repr(kv[0]))]}
    OUT.mkdir(exist_ok=True)
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n")

    print("# env " + json.dumps(env, sort_keys=True))
    pass_s = [sum(times) for times in plain]
    print(f"# {len(jobs)} jobs a pass; {len(plain)} {'paired' if baseline else 'plain'} passes "
          f"(median {statistics.median(pass_s):.4f} s, fastest {min(pass_s):.4f} s)"
          + (f", {len(traced)} traced passes" if traced else "")
          + f"; failed_frac {ledger.failed / ledger.attempted:.4f}")
    if baseline:
        print(f"# wall_s {fastest_jobs(plain):.4f} s, baseline {fastest_jobs(baseline):.4f} s "
              "(sum of each job's fastest time; informational, not a metric)")
    for reason in ledger.reasons:
        print(f"# FAILED {reason}")
    for name, (value, unit) in metrics.items():
        print(f"{name:48s} {value:>16.6g} {unit}")
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Every workload in its own process, untraced then traced."""
    import workloads

    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in workloads.WORKLOADS:
        for trace in (0, 1):
            argv = [sys.executable, str(BENCH / "run.py"), "--workload", name,
                    "--seed", str(args.seed), "--seconds", str(args.seconds),
                    "--trace", str(trace)]
            proc = subprocess.run(argv, capture_output=True, text=True, timeout=900, cwd=ROOT)
            if proc.returncode != 0:
                fail(f"{name} --trace {trace} exited {proc.returncode}:\n{proc.stderr}")
            result = json.loads(proc.stdout.splitlines()[-1])
            print(f"## {name} --trace {trace}")
            print("\n".join(proc.stdout.splitlines()[1:-1]))
            merged["correct"] &= result["correct"]
            merged["attempted"] += result["attempted"]
            merged["failed"] += result["failed"]
            for metric, value in result["metrics"].items():
                merged["metrics"][f"{name}/{metric}"] = value
    print(json.dumps(merged))
    return 0


def record_golden(args) -> int:
    """Hash the stdout of every CLI job at the default seed."""
    sf = load_program()
    import workloads

    golden = {}
    for name, build in workloads.WORKLOADS.items():
        golden[name] = {}
        for job in build(sf, workloads.DEFAULT_SEED):
            if not job.cli:
                continue
            output = job.run()
            reason = job.check(output)
            if reason:
                fail(f"not recording a failing job: {job.name}: {reason}")
            golden[name][job.name] = hashlib.sha256(output[1].encode()).hexdigest()
    GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    print(f"recorded {sum(map(len, golden.values()))} stdout hashes to {GOLDEN}")
    return 0


def main(argv=None) -> int:
    import workloads

    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=[*workloads.WORKLOADS, "all"], default="all")
    ap.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record-golden", action="store_true")
    args = ap.parse_args(argv)
    if args.record_golden:
        return record_golden(args)
    if args.workload == "all":
        return run_all(args)
    return measure(args)


if __name__ == "__main__":
    sys.exit(main())
