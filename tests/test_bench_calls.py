"""Every call the benchmark's workloads make into singflow still resolves.

A workload receives the package as ``sf``.  Each attribute chain that starts
at ``sf``, or at a local name bound to ``sf.<module>``, must name an object of
``singflow.<module>``, and each call through such a chain must bind its
arguments to the callee's signature, keywords included.  A public removal
that would break the benchmark fails here rather than in a bench run.  The
file is parsed with ``ast``, never imported from or written to."""

import ast
import importlib
import inspect
import pathlib

WORKLOADS_PY = pathlib.Path(__file__).resolve().parents[1] / "bench" / "workloads.py"


def _chain(node):
    """The names of an attribute chain ``a.b.c`` as ["a", "b", "c"], or None
    when it does not start at a plain name."""
    names = []
    while isinstance(node, ast.Attribute):
        names.append(node.attr)
        node = node.value
    return [node.id] + names[::-1] if isinstance(node, ast.Name) else None


def _workload_references(fn: ast.FunctionDef) -> list:
    """(module, attribute path, call or None, line) for every chain into the
    package inside one function that takes ``sf``."""
    stores = {}
    for node in ast.walk(fn):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            stores[node.id] = stores.get(node.id, 0) + 1
    aliases = {}
    for node in ast.walk(fn):
        if isinstance(node, ast.Assign) and len(node.targets) == 1 \
                and isinstance(node.targets[0], ast.Name):
            chain = _chain(node.value)
            name = node.targets[0].id
            if chain and chain[0] == "sf" and len(chain) == 2 and stores[name] == 1:
                aliases[name] = chain[1]
    inner = {id(node.value) for node in ast.walk(fn) if isinstance(node, ast.Attribute)}
    calls = {id(node.func): node for node in ast.walk(fn) if isinstance(node, ast.Call)}
    refs = []
    for node in ast.walk(fn):
        if not isinstance(node, ast.Attribute) or id(node) in inner:
            continue
        chain = _chain(node)
        if chain is None:
            continue
        if chain[0] == "sf":
            module, path = chain[1], chain[2:]
        elif chain[0] in aliases:
            module, path = aliases[chain[0]], chain[1:]
        else:
            continue
        refs.append((module, path, calls.get(id(node)), node.lineno))
    return refs


def bench_references() -> list:
    tree = ast.parse(WORKLOADS_PY.read_text(encoding="utf-8"), str(WORKLOADS_PY))
    refs = []
    for fn in tree.body:
        if isinstance(fn, ast.FunctionDef) and fn.args.args and fn.args.args[0].arg == "sf":
            refs += _workload_references(fn)
    return refs


def test_every_bench_call_into_singflow_resolves():
    refs = bench_references()
    named = {(module, ".".join(path)) for module, path, _, _ in refs}
    # the scan sees direct chains, aliased modules and keyword calls
    assert {("cli", "main"), ("roofs", "Geometric"), ("codec", "decode_position")} <= named
    for module, path, call, line in refs:
        where = f"bench/workloads.py:{line}: singflow.{'.'.join([module] + path)}"
        obj = importlib.import_module(f"singflow.{module}")
        for attr in path:
            assert hasattr(obj, attr), f"{where}: no attribute {attr!r}"
            obj = getattr(obj, attr)
        if call is None:
            continue
        assert callable(obj), f"{where} is not callable"
        sig = inspect.signature(obj)
        takes_any = any(p.kind is p.VAR_KEYWORD for p in sig.parameters.values())
        keywords = [k.arg for k in call.keywords if k.arg is not None]
        for key in keywords:
            assert takes_any or key in sig.parameters, f"{where} has no parameter {key!r}"
        # with no *args or **kwargs at the call, the argument count is known too
        if not any(isinstance(a, ast.Starred) for a in call.args) \
                and len(keywords) == len(call.keywords):
            try:
                sig.bind(*call.args, **dict.fromkeys(keywords))
            except TypeError as exc:
                raise AssertionError(f"{where}: {exc}") from None
