#!/usr/bin/env python3
"""KG-construction benchmark of corenlp_ray.

    python3 perfbench/run.py --workload {web_pages,long_pages,kg_job} \\
        --seed N --seconds S --trace {0,1}

Run from the repository root. ``--trace 0`` measures the end-to-end
metrics; ``--trace 1`` is a separate traced run that reports the
per-layer metrics. The last stdout line is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before
it is a JSON detail record (sample counts, tail level, failures).
See perfbench/README.md for the workloads and metrics.
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import threading

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("web_pages", "long_pages", "kg_job")
HARD_EXIT_S = 175.0


def _args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--num-cpus", type=int, default=2,
                   help="kg_job: logical CPUs of the local Ray cluster")
    p.add_argument("--setup-probe", choices=WORKLOADS[:2],
                   help=argparse.SUPPRESS)
    a = p.parse_args(argv)
    if not a.workload and not a.setup_probe:
        p.error("--workload is required")
    return a


def _import_engine() -> None:
    """Import corenlp_ray from the checkout this file sits in, and make
    Ray workers find it too, whatever the launch directory."""
    if not os.path.isfile(os.path.join(ROOT, "corenlp_ray", "__init__.py")):
        raise SystemExit(f"perfbench: no corenlp_ray/ package in {ROOT}")
    sys.path.insert(0, ROOT)
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (ROOT, os.environ.get("PYTHONPATH")) if p)
    import corenlp_ray

    if os.path.dirname(os.path.dirname(
            os.path.abspath(corenlp_ray.__file__))) != ROOT:
        raise SystemExit("perfbench: corenlp_ray imported from "
                         f"{corenlp_ray.__file__}, not from {ROOT}")


def main(argv=None) -> int:
    a = _args(argv)
    _import_engine()
    import workloads

    if a.setup_probe:
        print(workloads.setup_probe(a.setup_probe))
        return 0

    run = workloads.Run(a.workload, a.seed, a.seconds, bool(a.trace))
    printed = threading.Lock()

    def emit(metrics: dict) -> None:
        import report

        if not printed.acquire(blocking=False):
            return
        run.detail.update(workload=a.workload, seed=a.seed,
                          trace=a.trace, attempted=run.attempted,
                          failed=run.failed, errors=run.errors,
                          failed_frac=run.failed / max(run.attempted, 1))
        print(json.dumps(run.detail), flush=True)
        print(report.result_line(run.failed == 0 and bool(metrics),
                                 max(run.attempted, 1),
                                 run.failed if run.attempted else 1,
                                 metrics), flush=True)

    def hard_exit() -> None:
        # a run that wedges past the budget still reports and exits
        run.fail("run", f"still running after {HARD_EXIT_S:.0f} s")
        emit({})
        workloads.stop_children(timeout=2.0)
        os._exit(0)

    watchdog = threading.Timer(HARD_EXIT_S, hard_exit)
    watchdog.daemon = True
    watchdog.start()
    metrics: dict = {}
    temp_dir = None
    try:
        if a.workload == "kg_job":
            temp_dir = workloads.ray_temp_dir()
            metrics = workloads.run_kg(run, a.num_cpus, temp_dir)
        elif a.trace:
            metrics = workloads.trace_in_process(run)
        else:
            metrics = workloads.run_in_process(run)
    except Exception as exc:  # reported as a failed run below
        run.fail("run", exc)
        metrics = {}
    finally:
        workloads.stop_children()
        shutil.rmtree(run.work, ignore_errors=True)
        if temp_dir:
            shutil.rmtree(temp_dir, ignore_errors=True)
    watchdog.cancel()
    emit(metrics)
    return 0


if __name__ == "__main__":
    sys.exit(main())
