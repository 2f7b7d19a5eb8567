"""Rules on the library source itself."""

import ast
import importlib.util
from pathlib import Path

import etacover
from etacover.qseries import QSeries

SOURCES = sorted(Path(etacover.__file__).parent.glob("*.py"))


def test_no_bare_asserts():
    # python -O strips assert statements, so library checks must raise
    found = [
        f"{path.name}:{node.lineno}"
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Assert)
    ]
    assert SOURCES and found == []


def test_eta_products_are_built_only_by_from_factors():
    # index reduction and exponent merging live in EtaProduct.from_factors
    found, constructors = [], 0
    for path in SOURCES:
        tree = ast.parse(path.read_text())
        inside = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.FunctionDef) and node.name == "from_factors":
                constructors += 1
                inside.update(id(n) for n in ast.walk(node))
        found += [
            f"{path.name}:{node.lineno}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Call) and id(node) not in inside
            and "EtaProduct" in (getattr(node.func, "id", None), getattr(node.func, "attr", None))
        ]
    assert constructors == 1 and found == []


def test_benchmark_trace_targets_resolve():
    # perfbench/tracing.py wraps these names from outside the package, and
    # `perfbench/run.py --trace 1` stops with LookupError if one is gone
    path = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    targets = tracing.TIMED + tracing.COUNTED
    missing = [
        f"{module}.{attr}" for module, attr in targets
        if not callable(getattr(importlib.import_module(module), attr, None))
    ]
    missing += [m for m in tracing.TIMED_METHODS.values() if m not in vars(QSeries)]
    assert targets and missing == []
