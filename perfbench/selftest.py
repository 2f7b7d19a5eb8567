"""Self-test of the benchmark itself, on a few fast operations per workload.

    python3 -m pytest -q perfbench/selftest.py

The file name keeps it out of the package's own test run.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import reference  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

BENCH = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def _bench(*args: str, cwd: Path = HERE.parent) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in BENCH["workloads"]])
def test_tiny_run_prints_every_metric_with_its_unit(workload, trace):
    proc = _bench("--workload", workload, "--seed", "3", "--seconds", "1",
                  "--trace", str(trace), "--tiny")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = BENCH["per_layer" if trace else "end_to_end"]
    assert {n: m["unit"] for n, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared
    }
    assert "machine: nproc" in proc.stdout and "numpy" in proc.stdout


def test_traced_self_times_add_up_to_the_traced_wall_time():
    traced = run.run_child(workloads.operations("deep", tiny=True), trace=True)
    trace = traced["trace"]
    calls, self_s, incl_s = tracing.aggregate(trace)
    assert min(self_s.values()) >= 0
    names = trace["names"]
    for name, _, _, parent, op in trace["spans"]:
        assert (parent < 0) == (names[name] == "cli.main") and op >= 0
    assert calls["cli.main"] == len(traced["ops"])
    span_wall = incl_s["cli.main"]
    assert sum(self_s.values()) == pytest.approx(span_wall, rel=1e-9)
    # the operation timer also holds the tracer's excluded bookkeeping and
    # the wrapper around cli.main, nothing else
    wall = sum(op["wall_s"] for op in traced["ops"])
    assert 0 <= wall - trace["excluded_s"] - span_wall < 0.01 * wall + 1e-3
    metrics = tracing.layer_metrics(trace, 0, wall, wall)  # scale 1: raw seconds
    layers = sum(metrics[f"layer.{name}.self_s"]["value"] for name in tracing.LAYERS)
    assert layers == pytest.approx(span_wall, rel=1e-9)


def _altered(content):
    """The same kind of content with one mathematical fact changed."""
    if isinstance(content, str):  # expansion text
        return content.replace("+", "-", 1)
    if isinstance(content, dict):  # certify --json
        return {**content, "degree": content["degree"] + 1}
    if isinstance(content[0], dict):  # certify summary lines
        return [{**content[0], "overall": not content[0]["overall"]}] + content[1:]
    return content[:-1] + [[content[-1][0], content[-1][1] + 1]]  # cusp rows


@pytest.mark.parametrize("workload", sorted(workloads.TINY))
def test_altered_reference_counts_every_operation_as_failed(workload):
    ops = workloads.operations(workload, tiny=True)
    runs = [run.run_child(ops)]
    ref = reference.load()
    assert run.failures(ops, runs, ref) == (len(ops), [])
    altered = dict(ref)
    for argv in ops:
        key = reference.op_key(argv)
        altered[key] = _altered(ref[key])
        assert altered[key] != ref[key]
    attempted, failed = run.failures(ops, runs, altered)
    assert attempted == len(ops)
    assert [why for _, why, _ in failed] == ["output differs from the reference"] * len(ops)


def test_nonzero_exit_code_is_a_failure():
    argv = ["expand", "--p", "23", "--function", "G", "--prec", "200"]
    assert reference.check(argv, 1, "", reference.load()) == "exit code 1"
    assert reference.check(argv, None, "", reference.load()) == "exit code None"


def test_every_workload_operation_has_a_reference():
    ref = reference.load()
    for ops in list(workloads.WORKLOADS.values()) + list(workloads.TINY.values()):
        for argv in ops:
            assert ref.get(reference.op_key(argv)) is not None, argv


def test_seed_only_permutes_the_operations():
    for name, ops in workloads.WORKLOADS.items():
        first = workloads.operations(name, 7)
        assert sorted(first) == sorted(ops)
        assert workloads.operations(name, 7) == first
    assert workloads.operations("sweep") == workloads.operations("sweep", workloads.DEFAULT_SEED)
    assert workloads.operations("sweep", 7) != workloads.operations("sweep", 8)


def test_without_sources_it_fails_without_a_result(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench("--workload", "sweep", "--seed", "1", "--seconds", "1",
                  "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
