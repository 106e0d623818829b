#!/usr/bin/env python3
"""Compare two result files written by run.py.

    python3 perfbench/compare.py perfbench/out/A.json perfbench/out/B.json

Prints each metric side by side with the ratio B/A, says whether the
training trajectories are bitwise identical (same trajectory digests),
and flags results whose environment records differ in machine, versions
or backend, whose numbers should not be compared. Exits 1 when flagged.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import envinfo


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    a, b = (json.loads(Path(p).read_text()) for p in argv)
    for key in ("workload", "seed", "trace", "smoke"):
        if a[key] != b[key]:
            print(f"note: {key} differs: {a[key]!r} vs {b[key]!r}")
    diffs = envinfo.differences(a["environment"], b["environment"])
    for d in diffs:
        print(f"FLAGGED environment differs, numbers are not comparable: {d}")
    print(f"{'metric':36s} {'A':>14s} {'B':>14s} {'B/A':>8s}")
    for name, ma in a["metrics"].items():
        mb = b["metrics"].get(name)
        if mb is None:
            print(f"{name:36s} {ma['value']:14.6g} {'-':>14s}")
            continue
        ratio = mb["value"] / ma["value"] if ma["value"] else float("nan")
        print(f"{name:36s} {ma['value']:14.6g} {mb['value']:14.6g} {ratio:8.3f} {ma['unit']}")
    same = set(a["trajectory_digests"]) == set(b["trajectory_digests"])
    print(f"trajectory digests: {'identical' if same else 'DIFFER'} "
          f"({len(set(a['trajectory_digests']))} vs {len(set(b['trajectory_digests']))} distinct)")
    print(f"operations: A {a['attempted']} attempted / {a['failed']} failed; "
          f"B {b['attempted']} attempted / {b['failed']} failed")
    return 1 if diffs else 0


if __name__ == "__main__":
    sys.exit(main())
