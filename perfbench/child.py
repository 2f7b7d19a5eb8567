"""One benchmark process: import etacover, say so, run operations.

Started by ``run.py`` with ``src`` on PYTHONPATH.  Protocol: once
``etacover.cli`` is imported the child prints ``ready``; it then reads one
JSON request ``{"ops": [argv, ...], "trace": bool}`` from stdin, runs the
operations in order through ``etacover.cli.main`` with stdout and stderr
captured, and prints one JSON line with each operation's exit code,
output and wall time, its own peak RSS, and the trace when asked for.
"""

import sys

import etacover.cli

sys.stdout.write("ready\n")
sys.stdout.flush()

import contextlib  # noqa: E402  (after "ready": not part of set-up)
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from fractions import Fraction  # noqa: E402

import numpy  # noqa: E402


def run_op(argv: list[str]) -> dict:
    out, err = io.StringIO(), io.StringIO()
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = etacover.cli.main(argv)
        except SystemExit as exc:  # argparse rejects its input this way
            rc = exc.code if isinstance(exc.code, int) else 1
        except Exception:  # a crash is a failed operation; keep going
            traceback.print_exc()
            rc = None
    wall = time.perf_counter() - t0
    return {"rc": rc, "stdout": out.getvalue(), "stderr": err.getvalue(), "wall_s": wall}


CALIBRATE_EVERY_S = 0.25


@dataclass(frozen=True)
class _Matrix:
    """Stands in for SL2Matrix; kept here so that no change to etacover
    moves the calibration probe."""

    a: int
    b: int
    c: int
    d: int

    def __post_init__(self):
        if self.a * self.d - self.b * self.c != 1:
            raise ValueError("not unimodular")

    def __mul__(self, o):
        return _Matrix(self.a * o.a + self.b * o.c, self.a * o.b + self.b * o.d,
                       self.c * o.a + self.d * o.c, self.c * o.b + self.d * o.d)


def calibrate() -> float:
    """Seconds for a fixed piece of pure-Python work: a probe of how fast
    the machine runs at the moment.  It mixes the interpreter paths the
    workloads live on: integer arithmetic, small frozen dataclasses with
    a validating constructor, and Fraction sums kept in a dict."""
    t0 = time.perf_counter()
    x = 0
    for i in range(50_000):
        x = (x * 31 + i) % 1_000_003
    m, step, reset = _Matrix(1, 0, 0, 1), _Matrix(1, 1, 0, 1), _Matrix(1, 0, 7, 1)
    for _ in range(3_000):
        m = m * step
        if m.b > 1000:
            m = reset
    sums = {}
    for i in range(1, 750):
        n = i % 97
        sums[n] = sums.get(n, Fraction(0)) + Fraction(i % 7, i % 11 + 1) * Fraction(3, i % 5 + 1)
    return time.perf_counter() - t0


def main() -> None:
    request = json.loads(sys.stdin.read())
    tracer = None
    if request["trace"]:
        import tracing

        tracer = tracing.Tracer()
        tracer.install()
    # the machine's speed changes from second to second, so after each
    # operation the child probes it about once per CALIBRATE_EVERY_S of
    # operation time: the probes then sample the run the way its time was
    # spent
    results, calibration = [], [calibrate(), calibrate()]
    for op_id, argv in enumerate(request["ops"]):
        if tracer is not None:
            tracer.op_id = op_id
        results.append(run_op(argv))
        probes = 1 + int(results[-1]["wall_s"] / CALIBRATE_EVERY_S)
        calibration += [calibrate() for _ in range(probes)]
    payload = {
        "ops": results,
        "calibration_s": calibration,
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }
    if tracer is not None:
        payload["trace"] = tracer.dump()
    sys.stdout.write(json.dumps(payload) + "\n")


main()
