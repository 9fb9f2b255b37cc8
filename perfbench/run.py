#!/usr/bin/env python3
"""The reproduction's end-to-end benchmark: one command, two workloads.

Run from the repository root::

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 40 --trace 0

Workloads (see README.md for why each exists):

* ``sweep``  — one default-scale cell per algorithm through the serial
  ``run_sweep``, and the full tiny-scale grid through
  ``run_sweep_parallel(workers=2)``; each cold into an empty trace store,
  then warm over it;
* ``advise`` — one closed-loop HTTP client against ``repro serve``
  walking the answer ladder (sweep, cache, predicted).

A run does a fixed number of whole rounds for its ``--seconds``, checks
every output against the benchmark's own references, and prints one JSON
line last: ``correct``, ``attempted``, ``failed`` and ``metrics``.
``--trace 0`` reports the end-to-end metrics; ``--trace 1`` wraps the
layers' public functions and reports the per-layer metrics instead.
"""

from __future__ import annotations

import argparse
import os
import shutil
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
#: Every run's private state (trace store, sweep cache, predictor
#: artifact, temporary files) lives under here and is removed afterwards.
SCRATCH = ROOT / ".perfbench_tmp"

WORKLOADS = ("sweep", "advise")


def isolate_environment(workdir: Path) -> None:
    """Make the run independent of the caller's shell and home cache."""
    for name in list(os.environ):
        if name.startswith("REPRO_"):
            del os.environ[name]
    for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[name] = "1"
    tmp = workdir / "tmp"
    tmp.mkdir(parents=True)
    os.environ["TMPDIR"] = str(tmp)
    os.environ["XDG_CACHE_HOME"] = str(workdir / "xdg")
    os.environ["REPRO_TRACE_CACHE"] = str(workdir / "traces")
    os.environ["REPRO_SWEEP_CACHE"] = str(workdir / "sweeps")
    os.environ["REPRO_PREDICTOR"] = "0"
    os.environ["PYTHONPATH"] = str(SRC)
    tempfile.tempdir = str(tmp)


def stop_resource_tracker() -> None:
    """Stop and reap the ``multiprocessing`` resource tracker, if the run
    started one (the shared-memory graph plane of the parallel sweep
    does).  Left alone it outlives this process until it notices its
    pipe closed, so a run would end with a process still running."""
    tracker = sys.modules.get("multiprocessing.resource_tracker")
    stop = getattr(getattr(tracker, "_resource_tracker", None), "_stop", None)
    if stop is not None:
        stop()


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(
            f"perfbench: no program sources at {SRC} — run from the root "
            "of a full checkout",
            file=sys.stderr,
        )
        return 2
    SCRATCH.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=SCRATCH))
    try:
        isolate_environment(workdir)
        sys.path[:0] = [str(SRC), str(HERE)]
        from statistics import median

        from common import END_TO_END, PER_LAYER, Result, host_probe_ms, peak_rss_mb

        probes = [host_probe_ms() for _ in range(3)]
        result = Result()
        tracer = None
        if args.trace:
            from tracing import Tracer, install

            tracer = Tracer()
            install(tracer)
        try:
            if args.workload == "advise":
                from advise import run_advise

                run_advise(args, workdir, result, tracer)
            else:
                from sweeps import run_sweeps

                run_sweeps(args, workdir, result, tracer)
        finally:
            if tracer is not None:
                tracer.restore()
        probes += [host_probe_ms() for _ in range(3)]
        if tracer is not None:
            result.metric("host.probe_ms", median(probes), "ms")
        else:
            result.metric("peak_rss_mb", peak_rss_mb(), "MB")
        catalog = PER_LAYER if tracer is not None else END_TO_END
        result.expect(
            set(result.metrics) <= {name for name, _, _ in catalog},
            f"uncatalogued metrics {sorted(result.metrics)}",
        )
        for name, unit, _ in catalog:
            # A layer this workload does not exercise reads 0.
            if name not in result.metrics:
                result.metric(name, 0.0, unit)
        print(f"host probe: {median(probes):.2f} ms", file=sys.stderr)
    finally:
        stop_resource_tracker()
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            SCRATCH.rmdir()
        except OSError:
            pass  # another run is using it
    for problem in result.problems:
        print(f"CHECK FAILED: {problem}", file=sys.stderr)
    print(result.line(), flush=True)
    return 0 if not result.problems else 1


if __name__ == "__main__":
    sys.exit(main())
