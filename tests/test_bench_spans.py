"""The bench tracer wraps each function named in bench/spans.py by looking it
up in its module's or class's own namespace; a span whose function was
renamed, removed or moved to a base class would break every traced run.
The file is read and executed here, never imported from or written to."""

import importlib
import pathlib
import types

SPANS_PY = pathlib.Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def load_spans() -> types.ModuleType:
    module = types.ModuleType("bench_spans")
    module.__file__ = str(SPANS_PY)
    exec(compile(SPANS_PY.read_text(encoding="utf-8"), str(SPANS_PY), "exec"),
         module.__dict__)
    return module


def test_every_span_names_a_function_of_its_own_namespace():
    spans = load_spans()
    assert spans.SPANS
    for layer, name, module, cls, attr in spans.SPANS:
        owner = importlib.import_module(module)
        if cls is not None:
            assert cls in vars(owner), f"{layer}.{name}: no class {module}.{cls}"
            owner = vars(owner)[cls]
        where = f"{module}.{cls + '.' if cls else ''}{attr}"
        assert attr in vars(owner), f"{layer}.{name}: {where} is not defined there"
        assert callable(vars(owner)[attr]), f"{layer}.{name}: {where} is not callable"
