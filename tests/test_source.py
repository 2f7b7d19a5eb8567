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
