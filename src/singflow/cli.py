"""Batch experiment runner.

Subcommands wrap the library: ``entropy-scan`` emits the singular-limit
table, ``codec`` encodes/decodes/profiles block words and runs the
exhaustive roundtrip, ``verify`` runs the structural suites and prints a
pass/fail table, ``metric`` samples the flow/metric properties, ``report``
aggregates a small run of everything into one JSON artifact.

Outputs are deterministic for a fixed (config, seed): no timestamps, seeds
recorded in headers, fixed column order.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass

import numpy as np

from . import codec as cdc
from . import entropy as ent
from .roofs import Harmonic, RoofSpecError, parse_roof_spec, roof_eval
from .sequences import BitSequence
from .suspension import (UnitPoint, bw_distance_upper, flow, flow_point,
                         flowpoints_close, unit_roof_extension)
from .verify import SUITES


@dataclass
class ExperimentConfig:
    command: str
    roof_spec: str = "harmonic:1"
    grid: str = "1e-3..1e-12"
    gap: int = 11
    word: str = ""
    gap_max: int = 10000
    kplus_max: int = 2000
    suite: str = "all"
    boundary: str = cdc.ADJUSTED
    seed: int = 2024
    tol: float = 1e-18
    max_crossings: int = 10 ** 6
    samples: int = 200
    budget: int = 6
    output: str = "-"
    fmt: str = "csv"
    action: str = "encode"


def parse_grid(spec: str) -> list:
    """Grid syntax: 'A..B' sweeps decades from A down to B, or a comma list."""
    spec = spec.strip()
    if ".." in spec:
        a, _, b = spec.partition("..")
        ea = math.log10(float(a))
        eb = math.log10(float(b))
        if abs(ea - round(ea)) > 1e-9 or abs(eb - round(eb)) > 1e-9:
            raise ValueError("decade sweeps need powers of ten")
        ea, eb = int(round(ea)), int(round(eb))
        if eb > ea:
            raise ValueError("sweep must decrease")
        return [10.0 ** e for e in range(ea, eb - 1, -1)]
    return [float(tok) for tok in spec.split(",") if tok.strip()]


def _open_output(path: str):
    if path == "-":
        return sys.stdout, False
    return open(path, "w", encoding="utf-8"), True


# ---------------------------------------------------------------------------
# verify

def _run_verify(cfg: ExperimentConfig, out) -> int:
    names = list(SUITES) if cfg.suite == "all" else [cfg.suite]
    if any(n not in SUITES for n in names):
        raise ValueError(f"unknown suite {cfg.suite!r}")
    failures = 0
    out.write(f"# boundary={cfg.boundary} gap_max={cfg.gap_max} "
              f"kplus_max={cfg.kplus_max} seed={cfg.seed}\n")
    for name in names:
        ok, detail = SUITES[name](cfg.gap_max, cfg.kplus_max, cfg.boundary)
        failures += 0 if ok else 1
        out.write(f"{name:8s} {'PASS' if ok else 'FAIL'}  {detail}\n")
    return 1 if failures else 0


# ---------------------------------------------------------------------------
# metric property sampling

def _random_bits(rng) -> BitSequence:
    n = int(rng.integers(2, 10))
    window = tuple(int(b) for b in rng.integers(0, 2, size=n))
    start = int(rng.integers(-5, 5))
    tails = [(1, 0, 0), (1,), (0, 1), (1, 0, 0, 0, 1)]
    left = tails[int(rng.integers(0, len(tails)))]
    right = tails[int(rng.integers(0, len(tails)))]
    x = BitSequence(window, start, left, right)
    return BitSequence((1,), 0) if x.is_zero() else x


def _run_metric(cfg: ExperimentConfig, out) -> int:
    rng = np.random.default_rng(cfg.seed)
    f = parse_roof_spec(cfg.roof_spec)
    failures = 0
    out.write(f"# roof={cfg.roof_spec} samples={cfg.samples} seed={cfg.seed}\n")

    bad = 0
    for _ in range(cfg.samples):
        x = _random_bits(rng)
        p = flow_point(f, x, rng.uniform(0.0, roof_eval(f, x)))
        a = float(rng.uniform(-3.0, 3.0))
        b = float(rng.uniform(-3.0, 3.0))
        lhs = flow(flow(p, a, f, cfg.max_crossings), b, f, cfg.max_crossings)
        rhs = flow(p, a + b, f, cfg.max_crossings)
        if not flowpoints_close(lhs, rhs, f, 1e-9):
            bad += 1
    failures += bad > 0
    out.write(f"flow-additivity      {'PASS' if bad == 0 else 'FAIL'}  "
              f"{cfg.samples} triples, {bad} mismatches\n")

    bad = 0
    m = cfg.budget
    for _ in range(max(cfg.samples // 10, 10)):
        x = _random_bits(rng)
        z = _random_bits(rng)
        pa = flow_point(f, x, rng.uniform(0.0, roof_eval(f, x)))
        pb = flow_point(f, x, rng.uniform(0.0, roof_eval(f, x)))
        pc = flow_point(f, z, rng.uniform(0.0, roof_eval(f, z)))
        dab = bw_distance_upper(pa, pb, f, m)
        dba = bw_distance_upper(pb, pa, f, m)
        dac2 = bw_distance_upper(pa, pc, f, 2 * m)
        dbc = bw_distance_upper(pb, pc, f, m)
        ok = (abs(dab - dba) <= 1e-12
              and bw_distance_upper(pa, pa, f, m) == 0.0
              and bw_distance_upper(pa, pc, f, m + 2) <= bw_distance_upper(pa, pc, f, m) + 1e-12
              and dac2 <= dab + dbc + 1e-12)
        if not ok:
            bad += 1
    failures += bad > 0
    out.write(f"chain-metric         {'PASS' if bad == 0 else 'FAIL'}  "
              f"symmetry/diagonal/budget/triangle, {bad} mismatches\n")

    bad = 0
    pi = unit_roof_extension(f, cfg.max_crossings)
    for _ in range(max(cfg.samples // 10, 10)):
        x = _random_bits(rng)
        p = UnitPoint(flow_point(f, x, rng.uniform(0.0, roof_eval(f, x))),
                      float(rng.uniform(0.0, 1.0)))
        t = float(rng.uniform(-2.0, 2.0))
        lhs = pi.project(pi.advance(p, t))
        rhs = flow(pi.project(p), t, f, cfg.max_crossings)
        if not flowpoints_close(lhs, rhs, f, 1e-9):
            bad += 1
    failures += bad > 0
    out.write(f"unit-roof-extension  {'PASS' if bad == 0 else 'FAIL'}  "
              f"equivariance, {bad} mismatches\n")
    return 1 if failures else 0


# ---------------------------------------------------------------------------
# entropy scan and codec actions

def _run_scan(cfg: ExperimentConfig, out) -> int:
    roof = parse_roof_spec(cfg.roof_spec)
    if roof.is_constant:
        raise ValueError("entropy scans need a gap-profile roof")
    result = ent.singular_limit_scan(roof.profile, parse_grid(cfg.grid), cfg.tol)
    if cfg.fmt == "json":
        out.write(result.to_json() + "\n")
    else:
        result.to_csv(out, seed=cfg.seed)
    return 0


def _run_codec(cfg: ExperimentConfig, out) -> int:
    if cfg.action == "encode":
        out.write(cdc.render_word(cdc.encode_block(cfg.gap, cfg.boundary)) + "\n")
        return 0
    if cfg.action == "decode":
        out.write(f"{cdc.decode_word(cdc.parse_word(cfg.word))}\n")
        return 0
    if cfg.action == "profile":
        prof = cdc.return_profile(cfg.gap, cfg.boundary)
        payload = {
            "gap": prof.gap, "p": prof.p, "r": prof.r,
            "epsilon_bits": {str(k): v for k, v in sorted(prof.epsilon_bits.items())},
            "word": None if prof.word is None else cdc.render_word(prof.word),
            "offsets": list(prof.offsets),
        }
        out.write(json.dumps(payload, indent=2, sort_keys=True) + "\n")
        return 0
    if cfg.action == "roundtrip":
        ok, detail = SUITES["codec"](cfg.gap_max, cfg.kplus_max, cfg.boundary)
        out.write(f"codec {'PASS' if ok else 'FAIL'}  {detail}\n")
        return 0 if ok else 1
    raise ValueError(f"unknown codec action {cfg.action!r}")


def _run_report(cfg: ExperimentConfig, out) -> int:
    suites = {}
    for name, fn in SUITES.items():
        ok, detail = fn(cfg.gap_max, cfg.kplus_max, cfg.boundary)
        suites[name] = {"pass": ok, "detail": detail}
    scan = ent.singular_limit_scan(Harmonic(1.0), parse_grid(cfg.grid), cfg.tol)
    fibers = cdc.fiber_sfts()
    payload = {
        "seed": cfg.seed,
        "boundary": cfg.boundary,
        "suites": suites,
        "harmonic_scan": json.loads(scan.to_json()),
        "sample_words": {g: cdc.render_word(cdc.encode_block(g, cfg.boundary))
                         for g in (1, 2, 3, 5, 11)},
        "fiber_entropy": ent.sft_entropy_wordcount(fibers[0], 40).value,
        # exact counts as decimal strings
        "fiber_word_counts": {str(2 * m): str(ent.word_count(fibers[0], 2 * m))
                              for m in range(1, 21)},
    }
    out.write(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return 0 if all(s["pass"] for s in suites.values()) else 1


def run(cfg: ExperimentConfig) -> int:
    out, close = _open_output(cfg.output)
    try:
        if cfg.command == "entropy-scan":
            return _run_scan(cfg, out)
        if cfg.command == "codec":
            return _run_codec(cfg, out)
        if cfg.command == "verify":
            return _run_verify(cfg, out)
        if cfg.command == "metric":
            return _run_metric(cfg, out)
        if cfg.command == "report":
            return _run_report(cfg, out)
        raise ValueError(f"unknown command {cfg.command!r}")
    finally:
        if close:
            out.close()


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="singflow",
        description="Singular suspension flows over the binary shift: "
                    "entropy scans, the accelerated-shift block codec, and "
                    "structural verification suites.")
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--boundary", choices=[cdc.ADJUSTED, cdc.PAPER],
                       default=cdc.ADJUSTED)
        p.add_argument("--seed", type=int, default=2024)
        p.add_argument("--output", default="-")
        p.add_argument("--tol", type=float, default=1e-18)
        p.add_argument("--max-crossings", type=int, default=10 ** 6)

    p = sub.add_parser("entropy-scan", help="singular-limit entropy table")
    p.add_argument("--roof", dest="roof_spec", required=True)
    p.add_argument("--grid", default="1e-3..1e-12")
    p.add_argument("--format", dest="fmt", choices=["csv", "json"], default="csv")
    common(p)

    p = sub.add_parser("codec", help="block-code actions")
    p.add_argument("action", choices=["encode", "decode", "profile", "roundtrip"])
    p.add_argument("--gap", type=int, default=11)
    p.add_argument("--word", default="")
    p.add_argument("--gap-max", dest="gap_max", type=int, default=10000)
    common(p)

    p = sub.add_parser("verify", help="structural suites")
    p.add_argument("--suite", choices=list(SUITES) + ["all"], default="all")
    p.add_argument("--gap-max", dest="gap_max", type=int, default=10000)
    p.add_argument("--kplus-max", dest="kplus_max", type=int, default=2000)
    common(p)

    p = sub.add_parser("metric", help="sampled flow and metric properties")
    p.add_argument("--roof", dest="roof_spec", default="harmonic:1")
    p.add_argument("--samples", type=int, default=200)
    p.add_argument("--budget", type=int, default=6)
    common(p)

    p = sub.add_parser("report", help="aggregate JSON report")
    p.add_argument("--grid", default="1e-3..1e-8")
    p.add_argument("--gap-max", dest="gap_max", type=int, default=2000)
    p.add_argument("--kplus-max", dest="kplus_max", type=int, default=1000)
    common(p)

    return ap


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    cfg = ExperimentConfig(command=args.command)
    for key, value in vars(args).items():
        if hasattr(cfg, key) and value is not None:
            setattr(cfg, key, value)
    try:
        return run(cfg)
    except (ValueError, RoofSpecError, cdc.DecodeError,
            cdc.FirstReturnStructureError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
