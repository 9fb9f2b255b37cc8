"""Helpers shared by the benchmark's workloads."""

from __future__ import annotations

import json
import os
import resource
import subprocess
import sys
import time
from statistics import median

import numpy as np


def host_probe_ms() -> float:
    """A fixed pure-Python plus numpy loop, in milliseconds."""
    start = time.perf_counter()
    acc = 0
    for i in range(300_000):
        acc += (i * i) % 7
    values = np.arange(200_000, dtype=np.float64)
    for _ in range(30):
        values = np.sqrt(values * values + 1.0)
    return (time.perf_counter() - start) * 1000.0


def peak_rss_mb() -> float:
    """Largest resident set of this process or any child it reaped."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


class Result:
    """What one run reports."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.metrics = {}

    def metric(self, name: str, value: float, unit: str) -> None:
        self.metrics[name] = {"value": float(value), "unit": unit}

    def expect(self, condition: bool, message: str) -> None:
        if not condition and len(self.problems) < 20:
            self.problems.append(message)

    def line(self) -> str:
        return json.dumps(
            {
                "correct": not self.problems,
                "attempted": self.attempted,
                "failed": self.failed,
                "metrics": self.metrics,
            },
            sort_keys=True,
        )


def round_count(seconds: float, nominal_round_s: float) -> int:
    """Rounds for a run of ``seconds``, from a workload's nominal round
    length: a fixed number, so every run of one length does the same work."""
    return max(1, round(seconds / nominal_round_s))


def fresh_process_seconds(code: str, *args: str, repeat: int = 3) -> float:
    """Median wall time of a fresh interpreter running ``code``."""
    times = []
    for _ in range(repeat):
        start = time.perf_counter()
        subprocess.run(
            [sys.executable, "-c", code, *args], check=True, env=os.environ
        )
        times.append(time.perf_counter() - start)
    return median(times)


#: (name, unit, better) of every end-to-end metric; untraced runs of every
#: workload report all of them.
END_TO_END = (
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
    ("cold_runs_per_s", "1/s", "higher"),
    ("warm_runs_per_s", "1/s", "higher"),
)

#: (name, unit, better) of every per-layer metric; traced runs report all
#: of them, with 0 for a layer the workload does not exercise.
PER_LAYER = (
    ("host.probe_ms", "ms", "lower"),
    ("traced.cold_runs_per_s", "1/s", "higher"),
    ("traced.warm_runs_per_s", "1/s", "higher"),
    ("sweep.cells_s.cold", "s", "lower"),
    ("sweep.cells_s.warm", "s", "lower"),
    ("sweep.grid_s.cold", "s", "lower"),
    ("sweep.grid_s.warm", "s", "lower"),
    ("graph.build_s", "s", "lower"),
    ("serve.upload_ms", "ms", "lower"),
    ("kernels.run_s", "s", "lower"),
    ("kernels.run_s.sssp", "s", "lower"),
    ("kernels.run_s.cc", "s", "lower"),
    ("kernels.run_s.bfs", "s", "lower"),
    ("kernels.runs.cold", "count", "lower"),
    ("kernels.runs.warm", "count", "lower"),
    ("runtime.reference_s", "s", "lower"),
    ("runtime.verify_s", "s", "lower"),
    ("tracestore.save_s", "s", "lower"),
    ("tracestore.saves.cold", "count", "lower"),
    ("tracestore.saves.warm", "count", "lower"),
    ("tracestore.bytes", "B", "lower"),
    ("tracestore.load_s", "s", "lower"),
    ("tracestore.loads", "count", "lower"),
    ("machine.time_s.cold", "s", "lower"),
    ("machine.time_s.warm", "s", "lower"),
    ("machine.calls", "count", "lower"),
    ("machine.styles", "count", "lower"),
    ("harness.self_s.cold", "s", "lower"),
    ("harness.self_s.warm", "s", "lower"),
    ("parallel.publish_s", "s", "lower"),
    ("checkpoint.save_s", "s", "lower"),
    ("checkpoint.saves", "count", "lower"),
    ("parallel.worker_cpu_s", "s", "lower"),
    ("parallel.busy", "ratio", "higher"),
    ("serve.boot_s", "s", "lower"),
    ("serve.client_ms.sweep", "ms", "lower"),
    ("serve.client_ms.cache", "ms", "lower"),
    ("serve.client_ms.predicted", "ms", "lower"),
    ("serve.server_ms.sweep", "ms", "lower"),
    ("serve.server_ms.cache", "ms", "lower"),
    ("serve.server_ms.predicted", "ms", "lower"),
    ("serve.http_ms", "ms", "lower"),
    ("jobs.execute_ms", "ms", "lower"),
    ("jobs.overhead_ms", "ms", "lower"),
    ("serve.jobs_run", "count", "lower"),
    ("serve.attempts_failed", "count", "lower"),
    ("serve.cache_hits", "count", "higher"),
    ("serve.predicted", "count", "higher"),
    ("predictor.train_s", "s", "lower"),
    ("predictor.best_style_ms", "ms", "lower"),
)
