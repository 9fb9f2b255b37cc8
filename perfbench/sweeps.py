"""The ``sweep`` workload: the study's sweep, serial and parallel.

One run sweeps, each on its own trace store:

* the *paper cells* — one default-scale cell per algorithm through the
  serial, in-process ``run_sweep``;
* the *grid* — every algorithm on every tiny input through
  ``run_sweep_parallel(workers=2)``, the CLI's default on two cores.

The work is cut into *segments*, each timed on its own: one paper cell or
the grid, run cold (into an empty trace store) or warm (a fresh
``Launcher`` over the same store).  The inputs are the program's registry
graphs, which do not depend on the seed, so every run does the same work
and the spread between runs is the host's own.
"""

from __future__ import annotations

import math
import os
import resource
import shutil
import time
from pathlib import Path
from statistics import fmean

from common import fresh_process_seconds, round_count
from references import References, self_check

#: One default-scale cell per algorithm, covering all five inputs.  The
#: relaxation algorithms (SSSP, BFS) put the kernel engine on the cold
#: path; SSSP on the high-diameter grid makes the warm segments
#: timing-bound.  CC runs in the grid only: its cheapest default-scale
#: cell (13 s cold) would not fit a run.
PAPER_CELLS = (
    ("sssp", "2d-2e20.sym"),
    ("bfs", "rmat22.sym"),
    ("mis", "soc-LiveJournal1"),
    ("tc", "coPapersDBLP"),
    ("pr", "USA-road-d.NY"),
)
PARALLEL_WORKERS = 2
GRID = "grid"
CELLS = "cells"
#: Seconds one round takes on the reference host; ``--seconds`` divided
#: by it (at least 1) fixes the rounds of a run, so every run of one
#: length does the same work.
NOMINAL_ROUND_S = 50.0

SETUP_CODE = (
    "import sys\n"
    "import repro.bench\n"
    "from repro.graph.datasets import load_all, load_dataset\n"
    "for name in sys.argv[1:]:\n"
    "    load_dataset(name, 'default')\n"
    "load_all('tiny')\n"
)


def _expected(cells, graphs):
    """Every (spec, device, graph) cell the given cells must produce, and
    the number of distinct semantic executions behind them."""
    from repro.bench.harness import SweepConfig
    from repro.styles.axes import Model
    from repro.styles.combos import enumerate_specs

    config = SweepConfig()
    keys = set()
    semantic = 0
    for algorithm, name in cells:
        kinds = set()
        for model in Model:
            for spec in enumerate_specs(algorithm, model):
                kinds.add(spec.semantic_key())
                for device in config.devices_for(model):
                    keys.add((spec, device.name, graphs[name].name))
        semantic += len(kinds)
    return keys, semantic


def _paper_cell(cell, graphs, store_dir):
    """One cell through ``run_sweep`` with a fresh launcher."""
    from repro.bench.harness import SweepConfig, run_sweep
    from repro.bench.tracestore import TraceStore
    from repro.runtime.launcher import Launcher

    algorithm, name = cell
    launcher = Launcher(verify=True, trace_store=TraceStore(store_dir))
    results = run_sweep(
        SweepConfig(scale="default", algorithms=(algorithm,), graphs=(name,)),
        launcher=launcher,
        graphs={name: graphs[name]},
    )
    return results.runs, results.failures, launcher.kernel_executions


def _parallel_grid(store_dir):
    """The full tiny grid through ``run_sweep_parallel``."""
    from repro.bench.harness import SweepConfig
    from repro.bench.parallel import run_sweep_parallel

    os.environ["REPRO_TRACE_CACHE"] = str(store_dir)
    results = run_sweep_parallel(SweepConfig(scale="tiny"), workers=PARALLEL_WORKERS)
    return results.runs, results.failures, results.kernel_executions


def _children_cpu() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def _check_semantic_outputs(cells, graphs, store_dir, result):
    """Read every semantic variant back from the warm store and compare
    its output with the benchmark's own reference."""
    from repro.bench.tracestore import TraceStore
    from repro.runtime.launcher import Launcher
    from repro.runtime.verify import pr_tolerance
    from repro.styles.axes import Model
    from repro.styles.combos import enumerate_specs

    refs = References(pr_tolerance)
    launcher = Launcher(verify=True, trace_store=TraceStore(store_dir))
    checked = 0
    for algorithm, name in cells:
        graph = graphs[name]
        source = launcher.source_for(graph)
        seen = set()
        for model in Model:
            for spec in enumerate_specs(algorithm, model):
                key = spec.semantic_key()
                if key in seen:
                    continue
                seen.add(key)
                values = launcher.execute_semantic(spec, graph).values
                try:
                    refs.check(algorithm.value, graph, source, values)
                except AssertionError as exc:
                    result.expect(False, f"{spec.label()} on {name}: {exc}")
                checked += 1
        launcher.release(graph, algorithm)
    result.expect(
        launcher.kernel_executions == 0,
        f"reading outputs back ran {launcher.kernel_executions} kernels",
    )
    return checked


def run_sweeps(args, workdir: Path, result, tracer) -> None:
    from repro.graph.datasets import dataset_names, load_all, load_dataset
    from repro.styles.axes import Algorithm

    from tracing import Tracer, kernel_seconds, layer_seconds

    cells = [(Algorithm(a), g) for a, g in PAPER_CELLS]
    grid = [(a, g) for a in Algorithm for g in dataset_names()]
    names = sorted({name for _, name in cells})
    setup_s = fresh_process_seconds(SETUP_CODE, *names)
    t0 = time.perf_counter()
    graphs = {name: load_dataset(name, "default") for name in names}
    build_s = time.perf_counter() - t0
    tiny = load_all("tiny")

    expected = {cell: _expected([cell], graphs) for cell in cells}
    expected[GRID] = _expected(grid, tiny)
    total_runs = sum(len(keys) for keys, _ in expected.values())
    segments = []
    cold_runs = {}
    stores = {}

    def measure(kind: str, key) -> None:
        keys, semantic = expected[key]
        label = f"{kind} {key if key == GRID else key[0].value + ' x ' + key[1]}"
        before = tracer.snapshot() if tracer else None
        cpu0 = _children_cpu()
        start = time.perf_counter()
        if key == GRID:
            runs, failures, kernels = _parallel_grid(stores[GRID])
        else:
            runs, failures, kernels = _paper_cell(key, graphs, stores[CELLS])
        seconds = time.perf_counter() - start
        segments.append({
            "kind": kind,
            "key": key,
            "seconds": seconds,
            "kernels": kernels,
            "worker_cpu": _children_cpu() - cpu0,
            "spans": Tracer.diff(tracer.snapshot(), before) if tracer else {},
        })
        result.attempted += len(keys)
        missing = len(keys - {(r.spec, r.device, r.graph) for r in runs})
        result.failed += missing
        result.expect(
            missing == 0 and len(runs) == len(keys),
            f"{label}: {len(runs)} runs, {missing} of {len(keys)} cells missing",
        )
        result.expect(not failures, f"{label}: failures {failures[:3]}")
        result.expect(
            all(r.verified and math.isfinite(r.seconds) and r.seconds > 0
                for r in runs),
            f"{label}: a run is unverified or has bad seconds",
        )
        if kind == "cold":
            result.expect(
                kernels == semantic,
                f"{label}: ran {kernels} kernels, expected {semantic}",
            )
            first = cold_runs.setdefault(key, runs)
            result.expect(runs == first, f"{label}: differs from round 1")
        else:
            result.expect(kernels == 0, f"{label}: ran {kernels} kernels")
            result.expect(
                runs == cold_runs[key], f"{label}: differs from the cold run"
            )

    # Segments of one kind are spread over the whole round, so each rate
    # averages over more of the host's own speed changes (it moves by
    # tens of percent for tens of seconds at a time).  Each paper cell is
    # warm right after its own cold run and again at the end; a rate
    # takes each segment's fastest repetition.
    for index in range(round_count(args.seconds, NOMINAL_ROUND_S)):
        for path in stores.values():
            shutil.rmtree(path, ignore_errors=True)
        stores = {GRID: workdir / f"grid-{index}", CELLS: workdir / f"cells-{index}"}
        measure("cold", GRID)
        for cell in cells:
            measure("cold", cell)
            measure("warm", cell)
        measure("warm", GRID)
        for cell in cells:
            measure("warm", cell)

    # Correctness beyond the segments themselves: every semantic variant's
    # output from the warm stores against the independent references, and
    # the references against the program's serial oracles.
    from repro.kernels import serial
    from repro.runtime.verify import pr_tolerance

    semantic = sum(n for _, n in expected.values())
    checked = _check_semantic_outputs(cells, graphs, stores[CELLS], result)
    checked += _check_semantic_outputs(grid, tiny, stores[GRID], result)
    result.expect(checked == semantic, f"checked {checked} of {semantic} variants")
    try:
        self_check(tiny.values(), serial, pr_tolerance,
                   lambda g: int(g.degrees.argmax()))
    except AssertionError as exc:
        result.expect(False, str(exc))

    def by_key(kind, fn, keys=None):
        out = {}
        for seg in segments:
            if seg["kind"] == kind and (keys is None or seg["key"] in keys):
                out.setdefault(seg["key"], []).append(fn(seg))
        return out.values()

    def rate(kind):
        """Runs per second of one pass over every segment, from each
        segment's fastest repetition."""
        return total_runs / sum(min(v) for v in by_key(kind, lambda s: s["seconds"]))

    prefix = "" if tracer is None else "traced."
    result.metric(f"{prefix}cold_runs_per_s", rate("cold"), "1/s")
    result.metric(f"{prefix}warm_runs_per_s", rate("warm"), "1/s")
    if tracer is None:
        result.metric("setup_s", setup_s, "s")
        return

    def per_pass(kind, fn, keys=None):
        """One pass of a kind: per segment, the mean over its repetitions."""
        return sum(fmean(v) for v in by_key(kind, fn, keys))

    def span(kind, name, field=0, keys=None):
        return per_pass(
            kind, lambda s: s["spans"].get(name, (0.0, 0, 0))[field], keys
        )

    result.metric("graph.build_s", build_s, "s")
    result.metric(
        "kernels.run_s",
        per_pass("cold", lambda s: sum(kernel_seconds(s["spans"]).values())),
        "s",
    )
    for algorithm in ("sssp", "cc", "bfs"):
        result.metric(
            f"kernels.run_s.{algorithm}",
            per_pass("cold", lambda s: kernel_seconds(s["spans"]).get(algorithm, 0.0)),
            "s",
        )
    for kind in ("cold", "warm"):
        result.metric(f"kernels.runs.{kind}", per_pass(kind, lambda s: s["kernels"]), "count")
        result.metric(f"tracestore.saves.{kind}", span(kind, "tracestore.save", 1), "count")
        result.metric(f"machine.time_s.{kind}", span(kind, "machine.time"), "s")
        result.metric(f"harness.self_s.{kind}", per_pass(
            kind, lambda s: s["seconds"] - layer_seconds(s["spans"]), cells
        ), "s")
    result.metric("runtime.reference_s", span("cold", "runtime.reference"), "s")
    result.metric("runtime.verify_s", span("cold", "runtime.verify"), "s")
    result.metric("tracestore.save_s", span("cold", "tracestore.save"), "s")
    result.metric("tracestore.bytes", sum(
        p.stat().st_size for p in stores[CELLS].rglob("*") if p.is_file()
    ), "B")
    result.metric("tracestore.load_s", span("warm", "tracestore.load"), "s")
    result.metric("tracestore.loads", span("warm", "tracestore.load", 1), "count")
    result.metric("machine.calls", span("warm", "machine.time", 1), "count")
    result.metric("machine.styles", span("warm", "machine.time", 2), "count")

    def grid_total(fn):
        """One cold plus one warm grid segment."""
        return per_pass("cold", fn, [GRID]) + per_pass("warm", fn, [GRID])

    cpu = grid_total(lambda s: s["worker_cpu"])
    for kind in ("cold", "warm"):
        result.metric(f"sweep.cells_s.{kind}", sum(
            min(v) for v in by_key(kind, lambda s: s["seconds"], cells)), "s")
        result.metric(f"sweep.grid_s.{kind}", sum(
            min(v) for v in by_key(kind, lambda s: s["seconds"], [GRID])), "s")
    result.metric("parallel.publish_s", grid_total(
        lambda s: s["spans"].get("parallel.publish", (0.0,))[0]), "s")
    result.metric("checkpoint.save_s", grid_total(
        lambda s: s["spans"].get("checkpoint.save", (0.0,))[0]), "s")
    result.metric("checkpoint.saves", grid_total(
        lambda s: s["spans"].get("checkpoint.save", (0.0, 0))[1]), "count")
    result.metric("parallel.worker_cpu_s", cpu, "s")
    result.metric("parallel.busy", cpu / (
        PARALLEL_WORKERS * grid_total(lambda s: s["seconds"])), "ratio")
