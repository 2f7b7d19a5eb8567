"""etacover benchmark: run one workload and print its metrics.

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 40 --trace 0

Run from anywhere inside a checkout; the program under test is the
checkout's ``src/``.  Each pass of the workload runs in a fresh child
process (``child.py``), so caches never carry over between passes.
Passes repeat while another one fits in ``--seconds``; each operation's
time is its median over the passes.  Set-up is timed in every child,
including a few extra ones that only import the program.  Times are
scaled to a reference machine speed by a calibration probe that every
child runs (see README.md).  Every operation's output is
checked against ``reference.json``.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` additionally
runs one traced pass and prints the per-layer metrics instead.  The last
line of stdout is one JSON object: correct, attempted, failed, metrics.
The lines before it repeat the metrics for people, with the machine.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import reference
import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_PROBES = 3  # before the passes, and again after
CHILD_TIMEOUT_S = 170
CALIBRATION_REF_S = 0.015  # the probe's typical time where this was tuned


class ChildError(RuntimeError):
    """A benchmark child crashed, hung or broke the protocol."""


def run_child(ops: list, trace: bool = False) -> dict:
    """Run ops in a fresh process; add its set-up and total time."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    request = json.dumps({"ops": ops, "trace": trace})
    t0 = time.perf_counter()
    with subprocess.Popen(
        [sys.executable, str(HERE / "child.py")],
        stdin=subprocess.PIPE, stdout=subprocess.PIPE, cwd=ROOT, env=env, text=True,
    ) as proc:
        ready = proc.stdout.readline()
        setup = time.perf_counter() - t0
        try:
            out, _ = proc.communicate(request, timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            raise ChildError(f"child did not finish within {CHILD_TIMEOUT_S} s") from None
    if ready != "ready\n" or proc.returncode != 0:
        raise ChildError(f"child exited with {proc.returncode} (ready line {ready!r})")
    data = json.loads(out)
    data["setup_s"] = setup
    data["elapsed_s"] = time.perf_counter() - t0
    return data


def measure(ops: list, seconds: float) -> tuple[list, list]:
    """Set-up probes and untraced passes for about `seconds` seconds.

    The set-up probes run half before the passes and half after, so that
    their median spans the run rather than one moment of it.
    """
    start = time.perf_counter()
    probes = [run_child([]) for _ in range(SETUP_PROBES)]
    passes = [run_child(ops)]
    while True:
        typical = statistics.median(p["elapsed_s"] for p in passes)
        if time.perf_counter() - start + typical > seconds:
            break
        passes.append(run_child(ops))
    probes += [run_child([]) for _ in range(SETUP_PROBES)]
    return probes, passes


def _walls(run: dict) -> list:
    return [op["wall_s"] for op in run["ops"]]


def per_op_times(passes: list) -> list:
    """Each operation's wall time: its median over the passes."""
    return [statistics.median(times) for times in zip(*(_walls(p) for p in passes))]


def end_to_end(probes: list, passes: list) -> tuple[dict, dict]:
    """The end-to-end metrics, and the raw figures they come from.

    Timings are scaled to the reference machine speed: raw seconds times
    CALIBRATION_REF_S over the mean calibration probe of the run.  The
    machine this was tuned on drifts by a third from minute to minute,
    and the probe follows the drift; raw times over ten runs spread about
    twice as wide as scaled ones.
    """
    med = statistics.median
    per_op = per_op_times(passes)
    children = probes + passes
    raw = {
        "wall_s": sum(per_op),
        "op_p50_s": med(per_op),
        "op_max_s": max(per_op),
        "setup_s": med(c["setup_s"] for c in children),
        "calibration_s": statistics.mean(x for c in children for x in c["calibration_s"]),
    }
    scale = CALIBRATION_REF_S / raw["calibration_s"]
    metrics = {
        "wall_s": {"value": raw["wall_s"] * scale, "unit": "s"},
        "op_max_s": {"value": raw["op_max_s"] * scale, "unit": "s"},
        "peak_rss_mb": {"value": med(p["peak_rss_kb"] / 1024 for p in passes), "unit": "MB"},
        "setup_s": {"value": raw["setup_s"] * scale, "unit": "s"},
    }
    return metrics, raw


def failures(ops: list, runs: list, ref: dict) -> tuple[int, list]:
    """Operations attempted, and (argv, reason, stderr) for each failure."""
    attempted, failed = 0, []
    for run in runs:
        for argv, op in zip(ops, run["ops"], strict=True):
            attempted += 1
            why = reference.check(argv, op["rc"], op["stdout"], ref)
            if why is not None:
                failed.append((argv, why, op["stderr"]))
    return attempted, failed


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="a few fast operations of the workload, for the self-test")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "etacover" / "cli.py").is_file():
        print(f"error: no etacover sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    ops = workloads.operations(args.workload, args.seed, args.tiny)
    try:
        probes, passes = measure(ops, args.seconds)
        traced = run_child(ops, trace=True) if args.trace else None
    except ChildError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    runs = passes + ([traced] if traced else [])
    attempted, failed = failures(ops, runs, reference.load())
    metrics, raw = end_to_end(probes, passes)
    scaled = metrics
    if traced:
        metrics = tracing.layer_metrics(
            traced["trace"],
            output_bytes=sum(len(op["stdout"].encode()) for op in traced["ops"]),
            wall_s=sum(_walls(traced)),
            untraced_wall_s=scaled["wall_s"]["value"],
            scale=CALIBRATION_REF_S / statistics.mean(traced["calibration_s"]),
        )

    print(f"workload {args.workload}, seed {args.seed}: {len(ops)} operations per pass, "
          f"{len(passes)} untraced passes{', 1 traced pass' if traced else ''}, "
          f"{len(probes) + len(passes)} set-ups")
    print(f"machine: nproc {len(os.sched_getaffinity(0))}, cpu {cpu_model()}, "
          f"python {passes[0]['python']}, numpy {passes[0]['numpy']}")
    print(f"calibration probe {raw['calibration_s']:.6g} s (reference {CALIBRATION_REF_S} s); "
          "raw, unscaled: " + ", ".join(f"{k} {raw[k]:.6g} s" for k in
                                         ("wall_s", "op_p50_s", "op_max_s", "setup_s")))
    if traced:
        print("end to end, scaled: " + ", ".join(
            f"{k} {m['value']:.6g} {m['unit']}" for k, m in scaled.items()))
    for name, m in metrics.items():
        print(f"  {name:40s} {m['value']:>16.6g} {m['unit']}")
    # op_p50_s is printed but not bounded: it is one operation's time, too
    # noisy to gate on (see README.md)
    op_p50 = raw["op_p50_s"] * CALIBRATION_REF_S / raw["calibration_s"]
    print(f"  {'op_p50_s':40s} {op_p50:>16.6g} s")
    print(f"  {'fail_ratio':40s} {len(failed) / attempted:>16.6g} ({len(failed)}/{attempted})")
    for argv_, why, stderr in failed:
        print(f"FAILED {reference.op_key(argv_)}: {why} {stderr.strip()[-300:]}")
    print(json.dumps({
        "correct": not failed,
        "attempted": attempted,
        "failed": len(failed),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
