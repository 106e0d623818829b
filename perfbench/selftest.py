#!/usr/bin/env python3
"""Self-test: run every workload at smoke size, untraced and traced.

    python3 perfbench/selftest.py

For each run it checks that the last output line is the result object,
that every metric ``BENCHMARK.json`` names for that mode is emitted with
its unit (end-to-end metrics also non-zero), that no operation failed and
that every output check of the workload actually ran. Exits 0 when all
runs pass.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def check_run(bench: dict, workload: str, trace: int) -> list[str]:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", "0", "--seconds", "1", "--trace", str(trace), "--smoke"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        return [f"exit code {proc.returncode}: {proc.stderr[-2000:]}"]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"result keys {sorted(result)}")
    if not result["correct"] or result["failed"] or result["attempted"] < 1:
        problems.append(f"correct={result['correct']} attempted={result['attempted']} "
                        f"failed={result['failed']}")
    wanted = bench["per_layer"] if trace else bench["end_to_end"]
    got = result["metrics"]
    if set(got) != {m["name"] for m in wanted}:
        problems.append(f"metric names differ: {sorted(set(got) ^ {m['name'] for m in wanted})}")
    for m in wanted:
        entry = got.get(m["name"])
        if entry is None:
            continue
        if entry.get("unit") != m["unit"]:
            problems.append(f"{m['name']}: unit {entry.get('unit')!r}, expected {m['unit']!r}")
        if not trace and not entry.get("value"):
            problems.append(f"{m['name']}: end-to-end value is {entry.get('value')!r}")
    full = json.loads((HERE / "out" / f"{workload}-seed0-trace{trace}-smoke.json").read_text())
    if full["missing_checks"] or not full["checks"]:
        problems.append(f"output checks that did not run: {full['missing_checks']}")
    if trace and full["absent_wrappers"]:
        problems.append(f"wrapped names absent: {full['absent_wrappers']}")
    return problems


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    failed = 0
    for workload in (w["name"] for w in bench["workloads"]):
        for trace in (0, 1):
            problems = check_run(bench, workload, trace)
            status = "ok" if not problems else "FAIL"
            print(f"{status:4s} {workload} trace={trace}")
            for p in problems:
                print(f"     {p}")
            failed += bool(problems)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
