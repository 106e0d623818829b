#!/usr/bin/env python3
"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload train_default --seed 0 --seconds 10 --trace 0

``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json``;
``--trace 1`` is a separate run that wraps the library's layers and
reports the per-layer metrics. ``--smoke`` shrinks every size so a run
takes seconds (used by ``perfbench/selftest.py``).

Every metric is printed as ``name value unit``; the last line of standard
output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``. The full result (environment record, output
checks, trajectory digests, failures) is written to
``perfbench/out/<workload>-seed<seed>-trace<0|1>[-smoke].json``, and a
traced run writes its spans beside it.

The program is imported from ``src/`` of the checkout that holds this
file; without it the run exits with code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

# One BLAS thread per process, set before numpy loads. On a small shared
# machine multi-threaded BLAS made run-to-run times noisier, and the sweep's
# two workers would each start their own thread pool on the same cores.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"


def _load_softalign() -> bool:
    src = ROOT / "src"
    if not (src / "softalign" / "__init__.py").is_file():
        return False
    sys.path.insert(0, str(src))
    import softalign

    return Path(softalign.__file__).resolve().is_relative_to(src.resolve())


def peak_rss_mb() -> float:
    """Peak RSS of this process plus that of its largest finished child."""
    kb = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
          + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kb / 1024.0


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in bench["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=names)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=bench["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="tiny sizes, for the self-test")
    args = ap.parse_args(argv)

    if not _load_softalign():
        print(f"perfbench: no softalign package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    import envinfo
    import layers
    import tracing
    import workloads
    from softalign import backend, gradcheck, harness, synthgen, trainer

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}" + ("-smoke" if args.smoke else "")
    workdir = OUT / f"work-{tag}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    tracer = install = None
    if args.trace:
        tracer = tracing.Tracer(workdir / "spans")

        def install():
            layers.install(tracer, synthgen, trainer, gradcheck, harness, backend)

        install()
    run = workloads.Run(args.seed, args.seconds, args.smoke, workdir, tracer, install)
    try:
        workloads.WORKLOADS[args.workload](run)
    except Exception as exc:  # noqa: BLE001 - a broken workload is reported as failed
        run.fail_ops("workload", 1, exc)
    finally:
        if tracer is not None:
            absent = sorted(set(tracer.absent))
            tracer.uninstall()
            tracer.collect()
        shutil.rmtree(workdir, ignore_errors=True)

    if args.trace:
        measured = layers.layer_metrics(tracer.spans, workloads.SWEEP_JOBS)
        measured["trace.overhead_pct"] = run.details.get("trace_overhead_pct", 0.0)
        measured["trace.absent_wrappers"] = float(len(absent))
        wanted = bench["per_layer"]
    else:
        measured = dict(run.e2e, peak_rss_mb=peak_rss_mb())
        wanted = bench["end_to_end"]
    metrics = {m["name"]: {"value": float(measured.get(m["name"], 0.0)), "unit": m["unit"]}
               for m in wanted}

    missing_checks = [k for k in workloads.REQUIRED_CHECKS[args.workload]
                      if run.checks[k] == 0]
    attempted = max(run.attempted, 1)
    correct = run.failed == 0 and run.attempted > 0 and not missing_checks
    full = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "smoke": args.smoke,
        "environment": envinfo.record(ROOT, args.seed),
        "correct": correct, "attempted": attempted, "failed": run.failed,
        "checks": dict(run.checks), "missing_checks": missing_checks,
        "failures": run.failures,
        "trajectory_digests": run.digests,
        "metrics": metrics,
        "all_measured": measured,
        "details": run.details,
        "reference_kernel_s": run.reference.samples,
    }
    if args.trace:
        full["absent_wrappers"] = absent
        tracer.write(OUT / f"spans-{tag}.jsonl")
    (OUT / f"{tag}.json").write_text(json.dumps(full, indent=2) + "\n")

    for name, m in metrics.items():
        print(f"{name:36s} {m['value']:14.6g} {m['unit']}")
    print(f"operations: {attempted} attempted, {run.failed} failed; "
          f"checks run: {dict(run.checks)}")
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": run.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
