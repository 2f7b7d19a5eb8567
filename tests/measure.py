"""Wall time, peak RSS and stdout digest of `python -m etacover ARGV` under source trees.

    python3 tests/measure.py --src A --src B --runs N -- ARGV...

Each --src is a directory put on PYTHONPATH (a checkout's `src`).  Each of the
N rounds runs ARGV once in a fresh child per tree, and the tree that goes
first alternates from round to round.  The child's stdout is read in pieces
through sha256, so no output is held.  Its peak RSS is the child's own
ru_maxrss from os.wait4: RUSAGE_CHILDREN would be a running maximum over
every child waited for, so it would report the largest run so far.  Wall
time runs from spawn to exit.  Prints one line per run, then the medians of
each tree.  Not a test: pytest collects only test_*.py.
"""

import argparse
import hashlib
import os
import statistics
import subprocess
import sys
import time

CHUNK = 1 << 16


def measure(src: str, argv: list[str]) -> dict:
    """One run of `python -m etacover argv` with PYTHONPATH=src."""
    env = {**os.environ, "PYTHONPATH": src}
    start = time.perf_counter()
    with subprocess.Popen([sys.executable, "-m", "etacover", *argv], env=env,
                          stdout=subprocess.PIPE) as child:
        sha, size = hashlib.sha256(), 0
        while chunk := child.stdout.read(CHUNK):
            sha.update(chunk)
            size += len(chunk)
        _, status, usage = os.wait4(child.pid, 0)
        wall = time.perf_counter() - start
        child.returncode = os.waitstatus_to_exitcode(status)  # reaped: leaving waits for nothing
    return {"wall_s": wall, "peak_mb": usage.ru_maxrss / 1024, "bytes": size,
            "sha256": sha.hexdigest(), "exit": child.returncode}


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description="time python -m etacover under source trees")
    parser.add_argument("--src", action="append", required=True, help="a tree for PYTHONPATH")
    parser.add_argument("--runs", type=int, default=3, help="rounds over every tree")
    parser.add_argument("command", nargs="+", help="etacover's arguments, after --")
    args = parser.parse_args(argv)
    srcs, runs, command = args.src, args.runs, args.command
    results = {src: [] for src in srcs}
    for n in range(runs):
        for src in srcs if n % 2 == 0 else srcs[::-1]:
            r = measure(src, command)
            results[src].append(r)
            print(f"run {n + 1} {src}: {r['wall_s']:.3f} s  {r['peak_mb']:.1f} MB  "
                  f"{r['bytes']} bytes  sha256 {r['sha256']}  exit {r['exit']}", flush=True)
    for src, rs in results.items():
        print(f"median {src}: {statistics.median(r['wall_s'] for r in rs):.3f} s  "
              f"{statistics.median(r['peak_mb'] for r in rs):.1f} MB")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
