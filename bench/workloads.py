"""The benchmark's workloads: jobs drawn from a seed, each with a check.

A job calls into singflow once; its check compares the output with a value
from ``reference`` and returns None when the output is correct, or the
reason it is not.  Jobs go through ``singflow.cli.main(argv)`` wherever the
CLI can express them and through the library API only where it cannot.

Random draws are stratified (fixed sizes, seeded values), so that every seed
asks for the same amount of work and the seed moves what is computed, not how
much.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import random
import re
from dataclasses import dataclass
from typing import Callable

import reference as ref
from reference import ADJUSTED, PAPER

DEFAULT_SEED = 2024

WHY = {
    "verify-sweep": "exhaustive CLI verify suites under both boundaries; time in "
                    "codec's region/step law and cli's suite loops",
    "entropy-scan": "CLI entropy-scan of every roof family down to lam=1e-12 plus "
                    "library series; the only mpmath path, time in roofs and entropy",
    "flow-geometry": "CLI metric on four roofs plus long flows and separated sets; "
                     "time in bw_distance_upper, sequence eq and seq_distance",
    "sequence-codec": "library encode/decode of long recurrent sequences; time in "
                      "window canonicalisation, the only sequence-level codec path",
}

# verify-sweep sizes
REGION_MAX = 350
SWEEP_GAP_MAX = 4000
KPLUS_MAX = 1000
SPOT_BITS = (2, 5, 9, 14, 20, 31)

# entropy-scan sizes
# A log-harmonic row costs 30-300 ms depending on lambda; mantissas from a
# narrow band keep the cost of a grid nearly the same for every seed.
GRID_EXPONENTS = (4, 8, 12)

# flow-geometry sizes
METRIC_ROOFS = ("harmonic:1", "power:0.5", "const:1", "logharmonic")
METRIC_SAMPLES = 100
ZERO_RUN_BITS = (12, 13)
SEPARATED_POINTS = 8
SEPARATED_STEPS = 2

# sequence-codec: bit lengths of the block gaps in (left tail, window, right tail)
SEQUENCE_SHAPES = (
    ((2, 10), (1, 5, 12), (3, 10)),
    ((10,), (2, 12, 3), (10, 2)),
    ((10, 1), (6, 12), (2, 10)),
    ((3, 10), (12, 1, 4), (10,)),
    ((10,), (3, 12), (4, 10)),
    ((5, 10), (7, 12, 2), (10, 3)),
)


@dataclass
class Job:
    name: str
    run: Callable[[], object]
    check: Callable[[object], object]   # None when correct, else the reason
    cli: bool = False                   # stdout is hashed against golden.json at DEFAULT_SEED


def _cli(sf, argv: list, check) -> Job:
    def run():
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = sf.cli.main(argv)
        return code, out.getvalue()
    return Job(" ".join(argv), run, check, cli=True)


def _expect(code: int, lines: list) -> Callable:
    """Check the exit code and every stdout line; a line given as a function
    returns the reason it is wrong, or None."""
    def check(out):
        got_code, text = out
        if got_code != code:
            return f"exit {got_code}, expected {code}"
        got = text.splitlines()
        if len(got) != len(lines):
            return f"{len(got)} lines, expected {len(lines)}"
        for want, line in zip(lines, got):
            if callable(want):
                reason = want(line)
                if reason:
                    return reason
            elif line != want:
                return f"line {line!r}, expected {want!r}"
        return None
    return check


def _gap(rng: random.Random, bits: int) -> int:
    """A gap just above 2^bits: never a power of two, narrow in size."""
    return (1 << bits) + rng.randrange(1, 1 << min(bits, 5))


# ---------------------------------------------------------------------------
# verify-sweep

def verify_sweep(sf, seed: int) -> list:
    rng = random.Random(seed)
    jobs = []
    powers = ref.powers_of_two(4, SWEEP_GAP_MAX)
    for b in (ADJUSTED, PAPER):
        def verify(suite, gap_max, code, line):
            argv = ["verify", "--suite", suite, "--boundary", b, "--gap-max", str(gap_max),
                    "--kplus-max", str(KPLUS_MAX), "--seed", str(seed)]
            header = (f"# boundary={b} gap_max={gap_max} kplus_max={KPLUS_MAX} "
                      f"seed={seed}")
            jobs.append(_cli(sf, argv, _expect(code, [header, line])))

        verify("region", REGION_MAX, 0, f"region   PASS  partition exhaustive to "
               f"{REGION_MAX}, infinite rays included")
        if b == ADJUSTED:
            verify("fr", SWEEP_GAP_MAX, 0, f"fr       PASS  first-return structure "
                   f"exact for gaps 3..{SWEEP_GAP_MAX}")
            verify("codec", SWEEP_GAP_MAX, 0, f"codec    PASS  gaps 1..{SWEEP_GAP_MAX} "
                   f"roundtrip, all words distinct")
        else:
            # the documented FAIL: every power of two >= 4 skips R3
            more = "..." if len(powers) > 8 else ""
            verify("fr", SWEEP_GAP_MAX, 1, f"fr       FAIL  no R3 visit at gaps "
                   f"{powers[:8]}{more}")
            verify("codec", SWEEP_GAP_MAX, 0, f"codec    PASS  non-anomalous gaps "
                   f"roundtrip; anomalies exactly the {len(powers)} powers of two >= 4")
        verify("injec", SWEEP_GAP_MAX, 0, _injec_line(ref.contracting_pairs(KPLUS_MAX, b)))

        for bits in SPOT_BITS:
            gap = _gap(rng, bits)
            offsets, regions, kplus = ref.block_walk(gap, b)
            word = ref.render(ref.block_word(gap, b))
            jobs.append(_cli(sf, ["codec", "encode", "--gap", str(gap), "--boundary", b],
                             _expect(0, [word])))
            jobs.append(_cli(sf, ["codec", "decode", "--word", word], _expect(0, [str(gap)])))
            r = regions.index(3)
            profile = {"gap": gap, "p": len(regions), "r": r, "word": word,
                       "offsets": offsets + [gap],
                       "epsilon_bits": {str(q): kplus[q] & 1
                                        for q in range(r + 1, len(regions) - 1)}}
            jobs.append(_cli(sf, ["codec", "profile", "--gap", str(gap), "--boundary", b],
                             _expect_json(profile)))
    return jobs


def _injec_line(pairs: int) -> Callable:
    pattern = re.compile(r"injec    PASS  (\d+) contracting pairs exact; "
                         r"split sums within (\d\.\d{4}) of log 2")

    def check(line):
        m = pattern.fullmatch(line)
        if not m:
            return f"injec line {line!r}"
        if int(m.group(1)) != pairs or float(m.group(2)) > 0.01:
            return f"injec counted {m.group(1)} pairs (expected {pairs}), split {m.group(2)}"
        return None
    return check


def _expect_json(want: dict) -> Callable:
    def check(out):
        code, text = out
        if code != 0:
            return f"exit {code}"
        got = json.loads(text)
        return None if got == want else f"profile {got}, expected {want}"
    return check


# ---------------------------------------------------------------------------
# entropy-scan

def _grid(rng: random.Random) -> list:
    """One lambda in each listed decade, the last in [1e-12, 1.25e-12)."""
    return [float(f"{rng.uniform(1.0, 1.25):.4f}e-{e}") for e in GRID_EXPONENTS]


def _scan_check(spec: str, seed: int, grid: list, series: Callable, target,
                fmt: str) -> Callable:
    """Rows against reference integrals and entropies.  ``series`` maps lam
    to (value, absolute error bound)."""
    rows = []
    for lam in grid:
        s, err = series(lam)
        integral = ref.roof_integral(lam, s)
        rel = max(2 * err / s, 1e-11)
        rows.append((lam, integral, ref.shannon(lam) / integral, rel))
    ents = [r[2] for r in rows]
    if target is None:
        monotone = all(a < b for a, b in zip(ents, ents[1:]))
    elif target == 0.0:
        monotone = all(a > b for a, b in zip(ents, ents[1:]))
    else:
        monotone = all(abs(a - target) > abs(b - target) for a, b in zip(ents, ents[1:]))

    def row_reason(lam, integral, entropy, want):
        w_lam, w_int, w_ent, rel = want
        if lam != w_lam:
            return f"lambda {lam!r}, expected {w_lam!r}"
        if not ref.close(integral, w_int, rel) or not ref.close(entropy, w_ent, rel):
            return f"lambda {lam!r}: ({integral!r}, {entropy!r}) vs ({w_int!r}, {w_ent!r})"
        return None

    def check(out):
        code, text = out
        if code != 0:
            return f"exit {code}"
        if fmt == "json":
            got = json.loads(text)
            if got["profile"] != spec or got["target"] != target:
                return f"header {got['profile']!r} target {got['target']!r}"
            if got["monotone_toward_target"] != monotone:
                return "monotone flag disagrees with the reference rows"
            if len(got["rows"]) != len(rows):
                return f"{len(got['rows'])} rows"
            for row, want in zip(got["rows"], rows):
                reason = row_reason(row["lambda"], row["integral"], row["entropy"], want)
                if reason:
                    return reason
            return None
        lines = text.splitlines()
        head = [f"# profile={spec}", f"# seed={seed}",
                "lambda,integral,entropy,target,abs_error"]
        if lines[:3] != head or len(lines) != 3 + len(rows):
            return f"csv header {lines[:3]} with {len(lines) - 3} rows"
        for line, want in zip(lines[3:], rows):
            lam, integral, entropy, tgt, abs_err = line.split(",")
            reason = row_reason(float(lam), float(integral), float(entropy), want)
            if reason:
                return reason
            if target is None:
                if (tgt, abs_err) != ("divergent", ""):
                    return f"target columns {tgt!r},{abs_err!r} for a divergent family"
            elif float(tgt) != target or float(abs_err) != abs(float(entropy) - target):
                return f"target columns {tgt!r},{abs_err!r}"
        return None
    return check


def entropy_scan(sf, seed: int) -> list:
    rng = random.Random(seed)
    scale = round(rng.uniform(0.5, 2.0), 2)
    below = round(rng.uniform(0.3, 0.8), 2)
    above = round(rng.uniform(1.5, 2.99), 2)
    above += 0.01 if above == int(above) else 0.0
    t_pow, t_alpha = round(rng.uniform(1.5, 3.0), 2), round(rng.uniform(0.4, 0.7), 2)
    t_log = round(rng.uniform(0.3, 0.6), 2)
    exact = lambda f: (lambda lam: (f(lam), 0.0))
    families = (
        (f"harmonic:{scale}", f"harmonic:{scale:g}", 1 / (2 * scale),
         exact(lambda lam: ref.harmonic_series(lam, scale)), "json"),
        (f"power:{below}", f"power:{below:g}", 0.0,
         exact(lambda lam: ref.polylog_series(lam, below)), "csv"),
        ("power:1", "power:1", 0.5, exact(lambda lam: ref.harmonic_series(lam, 1.0)), "csv"),
        (f"power:{above}", f"power:{above:g}", None,
         exact(lambda lam: ref.polylog_series(lam, above)), "csv"),
        ("logharmonic", "logharmonic", None, ref.log_harmonic_series, "csv"),
        (f"trunc:{t_pow}:power:{t_alpha}", f"trunc:{t_pow:g}:power:{t_alpha:g}",
         1 / (2 * t_pow), exact(lambda lam: ref.trunc_power_series(lam, t_pow, t_alpha)), "csv"),
        (f"trunc:{t_log}:logharmonic", f"trunc:{t_log:g}:logharmonic", None,
         lambda lam: ref.trunc_log_harmonic_series(lam, t_log), "csv"),
    )
    jobs = []
    for arg, spec, target, series, fmt in families:
        grid = _grid(rng)
        # a log-harmonic row costs as much as a whole scan of another family:
        # one job per row keeps the jobs of this workload of similar size
        for rows in ([[lam] for lam in grid] if "logharmonic" in spec else [grid]):
            argv = ["entropy-scan", "--roof", arg, "--grid", ",".join(map(repr, rows)),
                    "--format", fmt, "--seed", str(seed)]
            jobs.append(_cli(sf, argv, _scan_check(spec, seed, rows, series, target, fmt)))

    # profiles the roof language cannot name
    rho, c = round(rng.uniform(0.2, 0.9), 3), round(rng.uniform(0.5, 2.0), 3)
    const = round(rng.uniform(0.2, 3.0), 3)
    table = [round(rng.uniform(0.1, 2.0), 3) for _ in range(6)]
    t_alpha2 = round(rng.uniform(1.3, 2.6), 2)
    t_alpha2 += 0.01 if t_alpha2 == int(t_alpha2) else 0.0
    roofs = sf.roofs
    library = (  # (name, profile, series method, origin value g0, reference series)
        ("geometric", roofs.Geometric(rho, c), "closed_form", 1.0,
         lambda lam: ref.geometric_series(lam, rho, c)),
        ("constant", roofs.ConstantProfile(const), "closed_form", const,
         lambda lam: ref.constant_series(lam, const)),
        ("table", roofs.Table(table, tail=roofs.Power(t_alpha2)), "series", 1.0,
         lambda lam: ref.table_power_series(lam, table, t_alpha2)),
    )
    for name, profile, method, g0, series in library:
        grid = _grid(rng)
        want = [ref.shannon(lam) / ref.roof_integral(lam, series(lam), g0) for lam in grid]

        def run(profile=profile, grid=grid):
            return [sf.entropy.flow_entropy_bernoulli(lam, profile) for lam in grid]

        def check(reports, want=want, method=method):
            if len(reports) != len(want):
                return f"{len(reports)} reports for {len(want)} lambdas"
            for report, w in zip(reports, want):
                if report.method != method or not ref.close(report.value, w, 1e-11):
                    return f"{report} vs {w!r}"
            return None
        jobs.append(Job(f"flow_entropy_bernoulli {name}", run, check))

    half = math.log(2.0) / 2
    for i, fiber in enumerate(sf.codec.fiber_sfts()):
        n = 2 * rng.randrange(60, 200)

        def run(fiber=fiber, n=n):
            return (sf.entropy.sft_entropy_wordcount(fiber, n).value,
                    sf.entropy.word_count(fiber, n), sf.entropy.word_count(fiber, n + 1))

        def check(out, n=n):
            value, even, odd = out
            # a free binary choice every other letter: 2^(n/2) complete words
            if even != 2 ** (n // 2) or odd != 0 or not ref.close(value, half, 1e-12):
                return f"fiber counts {even}, {odd}, entropy {value!r}"
            return None
        jobs.append(Job(f"sft_entropy_wordcount fiber{i}", run, check))
    return jobs


# ---------------------------------------------------------------------------
# flow-geometry

def flow_geometry(sf, seed: int) -> list:
    rng = random.Random(seed)
    jobs = []
    for spec in METRIC_ROOFS:
        s = rng.randrange(10 ** 6)
        argv = ["metric", "--roof", spec, "--samples", str(METRIC_SAMPLES), "--seed", str(s)]
        lines = [f"# roof={spec} samples={METRIC_SAMPLES} seed={s}",
                 f"flow-additivity      PASS  {METRIC_SAMPLES} triples, 0 mismatches",
                 "chain-metric         PASS  symmetry/diagonal/budget/triangle, 0 mismatches",
                 "unit-roof-extension  PASS  equivariance, 0 mismatches"]
        jobs.append(_cli(sf, argv, _expect(0, lines)))

    # long flows along the zero run of 1 0^(L-1) 1, forward and back
    profiles = (("harmonic", sf.roofs.Harmonic(1.0), lambda d: 1.0 / d),
                ("power", sf.roofs.Power(0.5), lambda d: d ** -0.5))
    for (name, profile, g), bits in ((p, b) for p in profiles for b in ZERO_RUN_BITS):
        f = sf.roofs.RoofFunction.from_profile(profile)
        length = _gap(rng, bits)
        x = sf.sequences.BitSequence.from_ones([0, length])
        roofs = [1.0] + [g(min(j, length - j)) for j in range(1, length)]
        m = rng.randrange(7 * length // 16, 9 * length // 16)  # crossings ~ L/2
        u, h0 = rng.uniform(0.25, 0.75), rng.uniform(0.25, 0.75)
        t = math.fsum(roofs[:m]) + u * roofs[m] - h0
        start = sf.suspension.flow_point(f, x, h0)
        end = sf.suspension.flow_point(f, x.shifted(m), u * roofs[m])

        def run(f=f, start=start, end=end, t=t):
            return (sf.suspension.flow(start, t, f), sf.suspension.flow(end, -t, f))

        def check(out, x=x, m=m, h_end=u * roofs[m], h0=h0):
            fwd, back = out
            if not ref.same_sequence(fwd.base, x, m) or abs(fwd.height - h_end) > 1e-9:
                return f"forward flow did not land {m} roofs on at height {h_end!r}"
            if not ref.same_sequence(back.base, x) or abs(back.height - h0) > 1e-9:
                return f"backward flow did not return to height {h0!r}"
            return None
        jobs.append(Job(f"flow {name} zero run {length}", run, check))

    # separated sets on distinct seeded points over the harmonic roof
    f = sf.roofs.RoofFunction.from_profile(sf.roofs.Harmonic(1.0))
    points, seen = [], set()
    while len(points) < SEPARATED_POINTS:
        n = rng.randrange(3, 8)
        window = (1,) + tuple(rng.randrange(2) for _ in range(n - 2)) + (1,)
        start = rng.randrange(-3, 4)
        if (window, start) in seen:
            continue
        seen.add((window, start))
        x = sf.sequences.BitSequence(window, start)
        points.append(sf.suspension.flow_point(f, x, rng.uniform(0.0, 1.0) * sf.roofs.roof_eval(f, x)))

    def run_tiny():
        return sf.entropy.separated_entropy_estimate(points, f, 1e-12, SEPARATED_STEPS, 4)

    def check_tiny(report):
        # below every distance between distinct points, all of them are kept
        want = math.log(SEPARATED_POINTS) / SEPARATED_STEPS
        return None if ref.close(report.value, want, 1e-15) else f"{report.value!r} vs {want!r}"

    def run_coarse():
        return sf.entropy.separated_entropy_estimate(points, f, 0.25, SEPARATED_STEPS, 4)

    def check_coarse(report):
        count = math.exp(report.value * SEPARATED_STEPS)
        if report.method != "separated_sets" or abs(count - round(count)) > 1e-9 \
                or not 1 <= round(count) <= SEPARATED_POINTS:
            return f"{report} is not the log of a subset size"
        return None
    jobs.append(Job("separated_entropy_estimate eps=1e-12", run_tiny, check_tiny))
    jobs.append(Job("separated_entropy_estimate eps=0.25", run_coarse, check_coarse))
    return jobs


# ---------------------------------------------------------------------------
# sequence-codec

def _blocks(gaps) -> tuple:
    bits: list = []
    for g in gaps:
        bits += [1] + [0] * (g - 1)
    return tuple(bits)


def sequence_codec(sf, seed: int) -> list:
    rng = random.Random(seed)
    codec = sf.codec
    letter_key = lambda l: (l.y, l.z)
    jobs = []
    for i, shape in enumerate(SEQUENCE_SHAPES):
        b = ADJUSTED if i % 2 == 0 else PAPER
        left, middle, right = ([_gap(rng, bits) for bits in part] for part in shape)
        offsets = ref.block_walk(middle[0], b)[0]
        q0 = rng.randrange(len(offsets))
        # origin q0 accelerated steps into the first window block
        x = sf.sequences.BitSequence(_blocks(middle), -offsets[q0], _blocks(left), _blocks(right))
        image = [l for g in middle for l in ref.block_word(g, b)]
        leader = ref.block_word(middle[1] if len(middle) > 1 else right[0], b)[0]
        context = [codec.letter(y, z) for y, z in ref.block_word(middle[0], b) + [leader]]
        state = {}

        def run_encode(x=x, b=b, state=state):
            state["u"] = codec.encode_sequence(x, b)
            return state["u"]

        def check_encode(u, q0=q0, image=image):
            got = [letter_key(ref.symbol_at(u, n - q0)) for n in range(len(image))]
            return None if got == image else "window letters differ from the block words"

        def run_decode(b=b, state=state):
            return codec.decode_sequence(state["u"], b)

        def check_decode(y, x=x):
            return None if ref.same_sequence(y, x) else "decode(encode(x)) != x"

        def run_position(context=context, n=len(offsets), b=b):
            return [codec.decode_position(context, q, boundary=b) for q in range(n)]

        def check_position(pairs, offsets=offsets, gap=middle[0]):
            got = [(k.k_minus, k.k_plus) for k in pairs]
            want = [(o, gap - o) for o in offsets]
            return None if got == want else f"positions {got} vs {want}"

        jobs += [Job(f"encode_sequence #{i}", run_encode, check_encode),
                 Job(f"decode_sequence #{i}", run_decode, check_decode),
                 Job(f"decode_position #{i}", run_position, check_position)]
    return jobs


WORKLOADS = {
    "verify-sweep": verify_sweep,
    "entropy-scan": entropy_scan,
    "flow-geometry": flow_geometry,
    "sequence-codec": sequence_codec,
}
