"""Write reference/seed0.json.gz: the seed-0 outputs of every workload.

    python3 qbench/make_reference.py

Run it only to pin the outputs of a commit whose results are trusted; the
invariant checks must pass on every operation before anything is written.
"""

from __future__ import annotations

import gzip
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import checks  # noqa: E402
import workloads  # noqa: E402


def main() -> int:
    doc = {}
    for workload in workloads.WORKLOADS:
        entries = []
        state: dict = {}
        for op in workloads.make_ops(workload, 0):
            output = op.execute(state, None)
            problems = checks.invariants(op, output)
            if problems:
                print(f"{op.name}: {problems}", file=sys.stderr)
                return 1
            entries.append(checks.summarize(op, output))
        doc[workload] = entries
        print(f"{workload}: {len(entries)} outputs")
    checks.REFERENCE.parent.mkdir(exist_ok=True)
    with gzip.GzipFile(checks.REFERENCE, "wb", mtime=0) as fh:
        fh.write(json.dumps(doc, sort_keys=True).encode())
    return 0


if __name__ == "__main__":
    sys.exit(main())
