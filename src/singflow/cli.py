"""Batch experiment runner.

Subcommands wrap the library: ``entropy-scan`` emits the singular-limit
table, ``codec`` encodes/decodes/profiles block words and runs the
exhaustive roundtrip, ``verify`` runs the structural suites and prints a
pass/fail table, ``metric`` samples the flow/metric properties, ``report``
aggregates a small run of everything into one JSON artifact.

Each subcommand takes exactly the options its handler reads, with their
defaults written once, in the parser.  Outputs are deterministic for fixed
arguments: no timestamps, seeds recorded in headers, fixed column order.
"""

from __future__ import annotations

import argparse
import functools
import io
import json
import math
import sys

import numpy as np

from . import codec as cdc
from . import entropy as ent
from .roofs import Harmonic, ProfileResourceError, parse_roof_spec, roof_eval
from .sequences import BitSequence
from .suspension import (FlowResourceError, UnitPoint, _checked_point, chain_distances,
                         chain_slots, flow, flowpoints_close, unit_roof_extension)
from .verify import SUITES


class GridSpecError(ValueError):
    """Malformed lambda grid specification."""


def parse_grid(spec: str) -> list:
    """Grid syntax: 'A..B' sweeps decades from A down to B, or a comma list.
    Anything but a nonempty list of lambdas in (0, 1) raises GridSpecError."""
    if not spec.isascii() or "_" in spec:  # float() reads other digits and underscores too
        raise GridSpecError(f"bad grid {spec!r}: every lambda must be a number")
    spec = spec.strip()
    try:
        grid = [float(t) for t in (spec.split("..", 1) if ".." in spec else spec.split(","))]
    except ValueError:
        raise GridSpecError(f"bad grid {spec!r}: every lambda must be a number") from None
    if ".." in spec:
        a, b = grid
        if not (0 < a < math.inf and 0 < b < math.inf):
            raise GridSpecError("decade sweeps need finite positive endpoints")
        ea, eb = math.log10(a), math.log10(b)
        if abs(ea - round(ea)) > 1e-9 or abs(eb - round(eb)) > 1e-9:
            raise GridSpecError("decade sweeps need powers of ten")
        ea, eb = int(round(ea)), int(round(eb))
        if eb > ea:
            raise GridSpecError("sweep must decrease")
        grid = [10.0 ** e for e in range(ea, eb - 1, -1)]
    if not all(0 < lam < 1 for lam in grid):
        raise GridSpecError(f"bad grid {spec!r}: every lambda must lie in (0, 1)")
    return grid


# ---------------------------------------------------------------------------
# verify

def _run_verify(args: argparse.Namespace, out) -> int:
    names = list(SUITES) if args.suite == "all" else [args.suite]
    failures = 0
    out.write(f"# boundary={args.boundary} gap_max={args.gap_max} "
              f"kplus_max={args.kplus_max} seed={args.seed}\n")
    for name in names:
        ok, detail = SUITES[name](args.gap_max, args.kplus_max, args.boundary)
        failures += 0 if ok else 1
        out.write(f"{name:8s} {'PASS' if ok else 'FAIL'}  {detail}\n")
    return 1 if failures else 0


# ---------------------------------------------------------------------------
# metric property sampling

def _random_bits(rng) -> BitSequence:
    n = int(rng.integers(2, 10))
    window = tuple(rng.integers(0, 2, size=n).tolist())
    start = int(rng.integers(-5, 5))
    tails = [(1, 0, 0), (1,), (0, 1), (1, 0, 0, 0, 1)]
    left = tails[int(rng.integers(0, len(tails)))]
    right = tails[int(rng.integers(0, len(tails)))]
    x = BitSequence(window, start, left, right)
    return BitSequence((1,), 0) if x.is_zero() else x


def _run_metric(args: argparse.Namespace, out) -> int:
    if args.budget < 2:
        raise ValueError("chain budget must be at least 2")
    if args.samples < 0:
        raise ValueError("samples must be nonnegative")
    rng = np.random.default_rng(args.seed)
    f = parse_roof_spec(args.roof_spec)
    n, m = args.max_crossings, args.budget
    # built on first use, so the first two properties' errors come before a bad roof's
    extension = functools.cache(lambda: unit_roof_extension(f, n))
    out.write(f"# roof={args.roof_spec} samples={args.samples} seed={args.seed}\n")

    def point(x):
        roof = roof_eval(f, x)
        return _checked_point(x, rng.uniform(0.0, roof), roof)

    def additive():
        p = point(_random_bits(rng))
        a, b = float(rng.uniform(-3.0, 3.0)), float(rng.uniform(-3.0, 3.0))
        return flowpoints_close(flow(flow(p, a, f, n), b, f, n), flow(p, a + b, f, n), f, 1e-9)

    def chain_metric():
        x, z = _random_bits(rng), _random_bits(rng)
        pa, pb, pc = point(x), point(x), point(z)
        table = chain_slots((x, z), f)   # orbit 0 holds pa and pb, orbit 1 pc
        (dab,), (dba,) = chain_distances(table, 0, pa.height, 0, pb.height, (m,), reverse=True)
        dac2, dac_more, dac = chain_distances(table, 0, pa.height, 1, pc.height,
                                              (2 * m, m + 2, m))[0]
        dbc = chain_distances(table, 0, pb.height, 1, pc.height, (m,))[0][0]
        return (abs(dab - dba) <= 1e-12
                and chain_distances(table, 0, pa.height, 0, pa.height, (m,)) == ((0.0,),)
                and dac_more <= dac + 1e-12
                and dac2 <= dab + dbc + 1e-12)

    def equivariant():
        pi = extension()
        p = UnitPoint(point(_random_bits(rng)), float(rng.uniform(0.0, 1.0)))
        t = float(rng.uniform(-2.0, 2.0))
        return flowpoints_close(pi.project(pi.advance(p, t)), flow(pi.project(p), t, f, n), f, 1e-9)

    few = max(args.samples // 10, 10)
    failures = 0
    for name, trials, check, detail in (
            ("flow-additivity", args.samples, additive, f"{args.samples} triples"),
            ("chain-metric", few, chain_metric, "symmetry/diagonal/budget/triangle"),
            ("unit-roof-extension", few, equivariant, "equivariance")):
        bad = sum(not check() for _ in range(trials))
        failures += bad > 0
        out.write(f"{name:21s}{'PASS' if bad == 0 else 'FAIL'}  {detail}, {bad} mismatches\n")
    return 1 if failures else 0


# ---------------------------------------------------------------------------
# entropy scan and codec actions

def _run_scan(args: argparse.Namespace, out) -> int:
    roof = parse_roof_spec(args.roof_spec)
    if roof.is_constant:
        raise ValueError("entropy scans need a gap-profile roof")
    result = ent.singular_limit_scan(roof.profile, parse_grid(args.grid))
    if args.fmt == "json":
        out.write(result.to_json() + "\n")
    else:
        result.to_csv(out, seed=args.seed)
    return 0


def _run_codec(args: argparse.Namespace, out) -> int:
    if args.action == "encode":
        out.write(cdc.render_word(cdc.encode_block(args.gap, args.boundary)) + "\n")
        return 0
    if args.action == "decode":
        out.write(f"{cdc.decode_word(cdc.parse_word(args.word))}\n")
        return 0
    if args.action == "profile":
        prof = cdc.return_profile(args.gap, args.boundary)
        payload = {
            "gap": prof.gap, "p": prof.p, "r": prof.r,
            "epsilon_bits": {str(k): v for k, v in sorted(prof.epsilon_bits.items())},
            "word": None if prof.word is None else cdc.render_word(prof.word),
            "offsets": list(prof.offsets),
        }
        out.write(json.dumps(payload, indent=2, sort_keys=True) + "\n")
        return 0
    # roundtrip; the codec suite reads no k+ bound
    ok, detail = SUITES["codec"](args.gap_max, 0, args.boundary)
    out.write(f"codec {'PASS' if ok else 'FAIL'}  {detail}\n")
    return 0 if ok else 1


def _run_report(args: argparse.Namespace, out) -> int:
    suites = {}
    for name, fn in SUITES.items():
        ok, detail = fn(args.gap_max, args.kplus_max, args.boundary)
        suites[name] = {"pass": ok, "detail": detail}
    scan = ent.singular_limit_scan(Harmonic(1.0), parse_grid(args.grid))
    fibers = cdc.fiber_sfts()
    payload = {
        "seed": args.seed,
        "boundary": args.boundary,
        "suites": suites,
        "harmonic_scan": json.loads(scan.to_json()),
        "sample_words": {g: cdc.render_word(cdc.encode_block(g, args.boundary))
                         for g in (1, 2, 3, 5, 11)},
        "fiber_entropy": ent.sft_entropy_wordcount(fibers[0], 40).value,
        # exact counts as decimal strings
        "fiber_word_counts": {str(2 * m): str(ent.word_count(fibers[0], 2 * m))
                              for m in range(1, 21)},
    }
    out.write(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return 0 if all(s["pass"] for s in suites.values()) else 1


@functools.cache  # parse_args keeps no state in the parser: build it once
def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="singflow",
        description="Singular suspension flows over the binary shift: "
                    "entropy scans, the accelerated-shift block codec, and "
                    "structural verification suites.")
    sub = ap.add_subparsers(dest="command", required=True)
    shared = {
        "--boundary": dict(choices=[cdc.ADJUSTED, cdc.PAPER], default=cdc.ADJUSTED),
        "--seed": dict(type=int, default=2024),
        "--max-crossings": dict(type=int, default=10 ** 6),
        "--output": dict(default="-"),
    }

    def command(name, run, help, *options):
        """Subcommand dispatching to ``run``, with --output and the named
        shared options."""
        p = sub.add_parser(name, help=help)
        p.set_defaults(run=run)
        for opt in options + ("--output",):
            p.add_argument(opt, **shared[opt])
        return p

    p = command("entropy-scan", _run_scan, "singular-limit entropy table", "--seed")
    p.add_argument("--roof", dest="roof_spec", required=True)
    p.add_argument("--grid", default="1e-3..1e-12")
    p.add_argument("--format", dest="fmt", choices=["csv", "json"], default="csv")

    p = command("codec", _run_codec, "block-code actions", "--boundary")
    p.add_argument("action", choices=["encode", "decode", "profile", "roundtrip"])
    p.add_argument("--gap", type=int, default=11)
    p.add_argument("--word", default="")
    p.add_argument("--gap-max", type=int, default=10000)

    p = command("verify", _run_verify, "structural suites", "--boundary", "--seed")
    p.add_argument("--suite", choices=list(SUITES) + ["all"], default="all")
    p.add_argument("--gap-max", type=int, default=10000)
    p.add_argument("--kplus-max", type=int, default=2000)

    p = command("metric", _run_metric, "sampled flow and metric properties",
                "--seed", "--max-crossings")
    p.add_argument("--roof", dest="roof_spec", default="harmonic:1")
    p.add_argument("--samples", type=int, default=200)
    p.add_argument("--budget", type=int, default=6)

    p = command("report", _run_report, "aggregate JSON report", "--boundary", "--seed")
    p.add_argument("--grid", default="1e-3..1e-8")
    p.add_argument("--gap-max", type=int, default=2000)
    p.add_argument("--kplus-max", type=int, default=1000)

    return ap


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    out = io.StringIO()  # written only once the command returns: an error writes nothing
    try:
        if min(getattr(args, "gap_max", 0), getattr(args, "kplus_max", 0)) < 0:
            raise ValueError("--gap-max and --kplus-max must be nonnegative")
        code = args.run(args, out)
        if args.output == "-":
            sys.stdout.write(out.getvalue())
        else:
            with open(args.output, "w", encoding="utf-8") as dest:
                dest.write(out.getvalue())
    except (ValueError, ProfileResourceError, FlowResourceError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return code


if __name__ == "__main__":
    sys.exit(main())
