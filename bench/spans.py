"""Per-layer spans recorded from outside the program.

The tracer replaces each public function named in SPANS, on every singflow
module and class that binds it (``from ... import`` aliases and class
attribute aliases included), with a wrapper that times the call.  Spans are
aggregated in memory by (job, parent span, span); a span's self time is its
duration minus the time covered by the wrapped calls it made.  ``remove``
puts every original back.
"""

from __future__ import annotations

import functools
import inspect
import sys
from time import perf_counter

LAYERS = ("cli", "codec", "sequences", "roofs", "suspension", "entropy")

# (layer, span name, defining module, class or None, attribute)
SPANS = (
    ("cli", "main", "singflow.cli", None, "main"),
    ("codec", "region_of", "singflow.codec", None, "region_of"),
    ("codec", "step_length", "singflow.codec", None, "step_length"),
    ("codec", "return_profile", "singflow.codec", None, "return_profile"),
    ("codec", "encode_block", "singflow.codec", None, "encode_block"),
    ("codec", "decode_word", "singflow.codec", None, "decode_word"),
    ("codec", "encode_sequence", "singflow.codec", None, "encode_sequence"),
    ("codec", "decode_sequence", "singflow.codec", None, "decode_sequence"),
    ("codec", "decode_position", "singflow.codec", None, "decode_position"),
    ("sequences", "init", "singflow.sequences", "SymbolSequence", "__init__"),
    ("sequences", "shifted", "singflow.sequences", "SymbolSequence", "shifted"),
    ("sequences", "eq", "singflow.sequences", "SymbolSequence", "__eq__"),
    ("sequences", "gap_pair_at", "singflow.sequences", "BitSequence", "gap_pair_at"),
    ("sequences", "seq_distance", "singflow.sequences", None, "seq_distance"),
    ("roofs", "series.harmonic", "singflow.roofs", "Harmonic", "bernoulli_series"),
    ("roofs", "series.power", "singflow.roofs", "Power", "bernoulli_series"),
    ("roofs", "series.logharmonic", "singflow.roofs", "LogHarmonic", "bernoulli_series"),
    ("roofs", "series.geometric", "singflow.roofs", "Geometric", "bernoulli_series"),
    ("roofs", "series.constant", "singflow.roofs", "ConstantProfile", "bernoulli_series"),
    ("roofs", "series.zero", "singflow.roofs", "ZeroProfile", "bernoulli_series"),
    ("roofs", "series.table", "singflow.roofs", "Table", "bernoulli_series"),
    ("roofs", "series.trunc", "singflow.roofs", "Truncated", "bernoulli_series"),
    ("roofs", "roof_eval", "singflow.roofs", None, "roof_eval"),
    ("roofs", "parse_roof_spec", "singflow.roofs", None, "parse_roof_spec"),
    ("suspension", "flow", "singflow.suspension", None, "flow"),
    ("suspension", "flow_point", "singflow.suspension", None, "flow_point"),
    ("suspension", "flowpoints_close", "singflow.suspension", None, "flowpoints_close"),
    ("suspension", "bw_distance_upper", "singflow.suspension", None, "bw_distance_upper"),
    ("suspension", "unit.advance", "singflow.suspension", "UnitRoofExtension", "advance"),
    ("suspension", "unit.project", "singflow.suspension", "UnitRoofExtension", "project"),
    ("entropy", "singular_limit_scan", "singflow.entropy", None, "singular_limit_scan"),
    ("entropy", "flow_entropy_bernoulli", "singflow.entropy", None, "flow_entropy_bernoulli"),
    ("entropy", "word_count", "singflow.entropy", None, "word_count"),
    ("entropy", "sft_entropy_wordcount", "singflow.entropy", None, "sft_entropy_wordcount"),
    ("entropy", "separated_entropy_estimate", "singflow.entropy", None,
     "separated_entropy_estimate"),
)

# Spans whose results are counted when truthy, for sequences.eq.true_ratio.
COUNT_TRUE = {"sequences.eq"}

CALLS, TOTAL, SELF, ERRORS, TRUE = range(5)


def span_key(layer: str, name: str) -> str:
    return f"{layer}.{name}"


def metric_catalog() -> list:
    """(name, unit, better) of every per-layer metric, in report order."""
    out = []
    for layer in LAYERS:
        for lay, name, *_ in SPANS:
            if lay == layer:
                key = span_key(lay, name)
                out.append((f"{key}.calls", "count", "lower"))
                out.append((f"{key}.self_s", "s", "lower"))
        out += [(f"{layer}.calls", "count", "lower"),
                (f"{layer}.self_s", "s", "lower"),
                (f"{layer}.errors", "count", "lower")]
    out += [("codec.encode_block.ok_ratio", "ratio", "higher"),
            ("sequences.eq.true_ratio", "ratio", "higher")]
    return out


def _holders():
    """Every singflow module and every class defined in one."""
    for name, module in list(sys.modules.items()):
        if name == "singflow" or name.startswith("singflow."):
            yield module
            for value in vars(module).values():
                if inspect.isclass(value) and value.__module__ == name:
                    yield value


class Tracer:
    """Wraps the SPANS while installed; records only while ``job`` is set."""

    def __init__(self):
        self.job = None
        self._stack: list = []
        self.spans: dict = {}        # (job, parent, span) -> [calls, total, self, errors, true]
        self._patched: list = []     # (holder, attribute, original)

    def install(self) -> None:
        wrappers = {}  # keyed by id: module namespaces also hold unhashable values
        for layer, name, module, cls, attr in SPANS:
            owner = sys.modules[module] if cls is None else vars(sys.modules[module])[cls]
            fn = vars(owner)[attr]
            wrappers[id(fn)] = self._wrap(fn, span_key(layer, name))
        for holder in _holders():
            for attr, value in list(vars(holder).items()):
                if id(value) in wrappers:
                    setattr(holder, attr, wrappers[id(value)])
                    self._patched.append((holder, attr, value))

    def remove(self) -> None:
        for holder, attr, original in reversed(self._patched):
            setattr(holder, attr, original)
        if any(vars(holder)[attr] is not original for holder, attr, original in self._patched):
            raise RuntimeError("a traced function was not restored")
        self._patched.clear()

    @property
    def bindings(self) -> int:
        return len(self._patched)

    def take(self) -> dict:
        spans, self.spans = self.spans, {}
        return spans

    def _wrap(self, fn, key: str):
        stack = self._stack
        count_true = key in COUNT_TRUE

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self.job is None:
                return fn(*args, **kwargs)
            parent = stack[-1][0] if stack else None
            frame = [key, 0.0]
            stack.append(frame)
            failed = 1
            result = None
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
                failed = 0
                return result
            finally:
                dt = perf_counter() - t0
                stack.pop()
                if stack:
                    stack[-1][1] += dt
                row = self.spans.get((self.job, parent, key))
                if row is None:
                    row = self.spans[(self.job, parent, key)] = [0, 0.0, 0.0, 0, 0]
                row[CALLS] += 1
                row[TOTAL] += dt
                row[SELF] += dt - frame[1]
                row[ERRORS] += failed
                if count_true and result is True:
                    row[TRUE] += 1

        return wrapper


def per_layer(spans: dict) -> dict:
    """Per-span and per-layer totals of one pass, keyed by metric name."""
    by_key: dict = {}
    for (_job, _parent, key), row in spans.items():
        acc = by_key.setdefault(key, [0, 0.0, 0.0, 0, 0])
        for i, v in enumerate(row):
            acc[i] += v
    out = {}
    for layer in LAYERS:
        calls = errors = 0
        self_s = 0.0
        for lay, name, *_ in SPANS:
            if lay != layer:
                continue
            key = span_key(lay, name)
            row = by_key.get(key, [0, 0.0, 0.0, 0, 0])
            out[f"{key}.calls"] = row[CALLS]
            out[f"{key}.self_s"] = row[SELF]
            calls += row[CALLS]
            self_s += row[SELF]
            errors += row[ERRORS]
        out[f"{layer}.calls"] = calls
        out[f"{layer}.self_s"] = self_s
        out[f"{layer}.errors"] = errors
    enc = by_key.get("codec.encode_block", [0, 0.0, 0.0, 0, 0])
    eq = by_key.get("sequences.eq", [0, 0.0, 0.0, 0, 0])
    out["codec.encode_block.ok_ratio"] = (enc[CALLS] - enc[ERRORS]) / enc[CALLS] if enc[CALLS] else 0.0
    out["sequences.eq.true_ratio"] = eq[TRUE] / eq[CALLS] if eq[CALLS] else 0.0
    return out
