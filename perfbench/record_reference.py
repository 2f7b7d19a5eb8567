"""Record reference.json: the content of every workload operation.

    python3 perfbench/record_reference.py

Runs each workload once against the checkout's ``src/`` and refuses to
record an operation that exits with a non-zero code.  Only re-record
when the mathematics is meant to change, and say so in the change.
"""

from __future__ import annotations

import json
import sys

import reference
import run
import workloads


def main() -> int:
    recorded = {}
    for name in sorted(workloads.WORKLOADS):
        ops = workloads.operations(name)
        for argv, op in zip(ops, run.run_child(ops)["ops"], strict=True):
            if op["rc"] != 0:
                print(f"error: {reference.op_key(argv)} exited {op['rc']}", file=sys.stderr)
                return 1
            recorded[reference.op_key(argv)] = reference.content(argv, op["stdout"])
    reference.REFERENCE_PATH.write_text(json.dumps(recorded, indent=1, sort_keys=True) + "\n")
    print(f"recorded {len(recorded)} operations in {reference.REFERENCE_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
