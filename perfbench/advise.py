"""The ``advise`` workload: one closed-loop client against ``repro serve``.

The client uploads seeded ~300-vertex graphs from three shape families
and walks the service's answer ladder.  Each round, for every family:

1. a fresh graph with ``"predict": false``   -> a ``sweep`` answer;
2. the same request again                    -> a ``cache`` answer;
3. another fresh graph, prediction allowed   -> a ``predicted`` answer.

The predictor is trained during set-up on a tiny-scale BFS sweep (seed 0,
300 rounds), the same recipe as the service's smoke test.  One request is
in flight at a time; the service closes every connection after its
answer, so each request opens its own.
"""

from __future__ import annotations

import http.client
import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path
from statistics import fmean, median

import numpy as np

from common import round_count

FAMILIES = ("grid", "powerlaw", "community")
N_VERTICES = 300
PREDICTOR_SEED = 0
PREDICTOR_ROUNDS = 300
BOOTS = 3
#: Graphs whose sweep answers are re-derived in-process and compared.
SAMPLE = 3
REQUEST_TIMEOUT = 60.0
#: Seconds one round (nine requests) takes on the reference host.
NOMINAL_ROUND_S = 2.0


def _distinct_pairs(rng, candidates: np.ndarray, count: int) -> np.ndarray:
    """The first ``count`` distinct loop-free undirected pairs, in order."""
    candidates = candidates[candidates[:, 0] != candidates[:, 1]]
    key = np.minimum(candidates[:, 0], candidates[:, 1]) * N_VERTICES + \
        np.maximum(candidates[:, 0], candidates[:, 1])
    _, first = np.unique(key, return_index=True)
    return candidates[np.sort(first)[:count]]


def make_edges(family: str, rng: np.random.Generator) -> np.ndarray:
    """A raw undirected edge list of a fixed size per family.

    The structure varies with the seed; the vertex and edge counts do
    not, so the work per request varies little within a family.
    """
    n = N_VERTICES
    if family == "grid":
        # A 15 x 20 lattice missing 10% of its edges, plus 5 shortcuts:
        # high diameter, like a road network.
        ids = np.arange(n).reshape(15, 20)
        lattice = np.concatenate([
            np.stack([ids[:, :-1].ravel(), ids[:, 1:].ravel()], 1),
            np.stack([ids[:-1, :].ravel(), ids[1:, :].ravel()], 1),
        ])
        keep = rng.permutation(len(lattice))[: len(lattice) * 9 // 10]
        shortcuts = _distinct_pairs(rng, rng.integers(0, n, size=(50, 2)), 5)
        return np.concatenate([lattice[np.sort(keep)], shortcuts])
    if family == "powerlaw":
        # Preferential attachment: each new vertex links to three distinct
        # earlier vertices drawn by degree.
        degree = np.zeros(n)
        edges = [(0, 1), (1, 2), (0, 2)]
        degree[:3] = 2
        for v in range(3, n):
            picks = rng.choice(v, size=3, replace=False,
                               p=degree[:v] / degree[:v].sum())
            for u in picks:
                edges.append((v, int(u)))
            degree[picks] += 1
            degree[v] = 3
        return np.array(edges)
    if family == "community":
        # Six equal communities: 150 edges inside each, 60 between them.
        groups = rng.permutation(np.arange(n) % 6)
        members = [np.flatnonzero(groups == g) for g in range(6)]
        inside = [
            _distinct_pairs(rng, rng.choice(m, size=(600, 2)), 150)
            for m in members
        ]
        pairs = rng.integers(0, n, size=(600, 2))
        between = pairs[groups[pairs[:, 0]] != groups[pairs[:, 1]]]
        return np.concatenate(inside + [_distinct_pairs(rng, between, 60)])
    raise ValueError(family)


def expected_edge_count(edges: np.ndarray) -> int:
    """Directed edges after symmetrising, deduplicating, dropping loops."""
    u, v = edges[:, 0].astype(np.int64), edges[:, 1].astype(np.int64)
    keep = u != v
    both = np.concatenate([u[keep] * N_VERTICES + v[keep],
                           v[keep] * N_VERTICES + u[keep]])
    return int(np.unique(both).size)


class Server:
    """One ``repro serve`` process on an ephemeral port."""

    def __init__(self, workdir: Path, index: int):
        self.log = workdir / f"serve-{index}.log"
        start = time.perf_counter()
        with open(self.log, "w") as log:
            self.proc = subprocess.Popen(
                [sys.executable, "-m", "repro", "--scale", "tiny", "serve",
                 "--port", "0", "--workers", "1"],
                stdout=subprocess.DEVNULL, stderr=log, env=os.environ,
            )
        try:
            self.port = self._wait_for_port()
        except BaseException:
            self.stop()
            raise
        self.boot_s = time.perf_counter() - start

    def _wait_for_port(self) -> int:
        deadline = time.monotonic() + 60
        while time.monotonic() < deadline:
            for line in self.log.read_text().splitlines():
                if "serving on http://" in line:
                    return int(line.rsplit(":", 1)[1])
            if self.proc.poll() is not None:
                break
            time.sleep(0.005)
        raise RuntimeError(f"server did not boot: {self.log.read_text()!r}")

    def request(self, method: str, path: str, body=None):
        """(status, payload, client milliseconds)."""
        data = None if body is None else json.dumps(body)
        start = time.perf_counter()
        conn = http.client.HTTPConnection("127.0.0.1", self.port,
                                          timeout=REQUEST_TIMEOUT)
        try:
            conn.request(method, path, body=data)
            resp = conn.getresponse()
            payload = json.loads(resp.read())
        finally:
            conn.close()
        return resp.status, payload, (time.perf_counter() - start) * 1000.0

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()


def train_predictor(workdir: Path):
    """Train and save the artifact; returns (path, mine+fit seconds)."""
    from repro.bench import StylePredictor, SweepConfig, mine_results, run_sweep
    from repro.bench.tracestore import TraceStore
    from repro.runtime.launcher import Launcher
    from repro.styles.axes import Algorithm

    results = run_sweep(
        SweepConfig(scale="tiny", algorithms=(Algorithm.BFS,)),
        launcher=Launcher(trace_store=TraceStore(workdir / "train-traces")),
    )
    start = time.perf_counter()
    predictor = StylePredictor.train(
        mine_results(results), seed=PREDICTOR_SEED, rounds=PREDICTOR_ROUNDS
    )
    fit_s = time.perf_counter() - start
    return predictor.save(workdir / "predictor" / "model.json"), fit_s


def _best_per_cell(runs):
    best = {}
    for run in runs:
        key = (run.spec.algorithm.value, run.spec.model.value, run.device)
        if key not in best or run.seconds < best[key].seconds:
            best[key] = run
    return best


def run_advise(args, workdir: Path, result, tracer) -> None:
    from repro.graph.builder import from_edge_arrays
    from repro.graph.validate import GraphValidator
    from repro.styles.axes import Algorithm, Model
    from repro.styles.combos import enumerate_specs

    setup_start = time.perf_counter()
    artifact, fit_s = train_predictor(workdir)
    train_s = time.perf_counter() - setup_start
    os.environ["REPRO_PREDICTOR"] = str(artifact)
    boots = []
    for index in range(BOOTS - 1):
        server = Server(workdir, index)
        server.stop()
        boots.append(server.boot_s)
    server = Server(workdir, BOOTS - 1)
    boots.append(server.boot_s)
    setup_s = train_s + median(boots)

    valid = {
        m.value: {s.label() for s in enumerate_specs(Algorithm.BFS, m)}
        for m in Model
    }
    answers = {"sweep": [], "cache": [], "predicted": []}
    uploads = []  # (edges, sweep answer) per swept graph, in order

    def ask(body, source, edges, family):
        result.attempted += 1
        status, payload, client_ms = server.request("POST", "/v1/advise", body)
        ok = (status == 200 and payload.get("source") == source
              and payload.get("degraded") is False)
        if not ok:
            result.failed += 1
            result.expect(False, f"{source} request answered {status}: "
                                 f"{str(payload)[:200]}")
            return None
        result.expect(
            payload["graph"]["n_edges"] == expected_edge_count(edges),
            f"{source} answer: n_edges {payload['graph']['n_edges']} != "
            f"{expected_edge_count(edges)}",
        )
        answers[source].append((client_ms, payload, family))
        return payload

    def one_round(index: int) -> None:
        for f, family in enumerate(FAMILIES):
            edges = make_edges(family, np.random.default_rng([args.seed, index, f, 0]))
            body = {"edges": edges.tolist(), "n_vertices": N_VERTICES,
                    "predict": False}
            swept = ask(body, "sweep", edges, family)
            cached = ask(body, "cache", edges, family)
            uploads.append((edges, swept))
            if swept is not None and cached is not None:
                keys = ("graph", "measured", "n_runs", "failures", "advisor")
                result.expect(
                    all(swept[k] == cached[k] for k in keys),
                    "cache answer differs from its sweep answer",
                )
                result.expect(
                    swept["kernel_executions"] > 0 and not swept["failures"],
                    "sweep answer ran no kernels or reported failures",
                )
            fresh = make_edges(family, np.random.default_rng([args.seed, index, f, 1]))
            predicted = ask({"edges": fresh.tolist(), "n_vertices": N_VERTICES},
                            "predicted", fresh, family)
            if predicted is not None:
                result.expect(predicted["kernel_executions"] == 0,
                              "predicted answer executed kernels")
                result.expect(
                    predicted["measured"] and all(
                        m["style"] in valid[m["model"]] and m["seconds"] > 0
                        for m in predicted["measured"]
                    ),
                    "predicted answer names an invalid variant",
                )

    try:
        for index in range(round_count(args.seconds, NOMINAL_ROUND_S)):
            one_round(index)
        status, statz, _ = server.request("GET", "/statz")
    finally:
        server.stop()
    result.expect(status == 200, f"/statz answered {status}")
    counts = {
        "serve.jobs_run": statz["executor"]["jobs_run"],
        "serve.attempts_failed": statz["executor"]["attempts_failed"],
        "serve.cache_hits": statz["stats"]["cache_hits"],
        "serve.predicted": statz["stats"]["predicted"],
    }
    want = {
        "serve.jobs_run": len(answers["sweep"]),
        "serve.attempts_failed": 0,
        "serve.cache_hits": len(answers["cache"]),
        "serve.predicted": len(answers["predicted"]),
    }
    result.expect(counts == want, f"/statz counts {counts} != request mix {want}")

    # Re-derive a sample of sweep answers in-process: the best style and
    # seconds per cell must equal the minimum over a verified run_sweep.
    from repro.bench.harness import SweepConfig, run_sweep

    def build(edges):
        graph = from_edge_arrays(
            edges[:, 0], edges[:, 1], N_VERTICES,
            symmetrize=True, dedup=True, drop_self_loops=True, name="upload",
        )
        GraphValidator().check(graph)
        graph.fingerprint()
        return graph

    os.environ["REPRO_TRACE_CACHE"] = str(workdir / "inprocess-traces")
    for edges, swept in uploads[:SAMPLE]:
        if swept is None:
            continue
        graph = build(edges)
        runs = run_sweep(
            SweepConfig(scale="tiny", algorithms=(Algorithm.BFS,), trace_cache=False),
            graphs={graph.name: graph},
        ).runs
        best = _best_per_cell(runs)
        got = {(m["algorithm"], m["model"], m["device"]): (m["style"], m["seconds"])
               for m in swept["measured"]}
        want_best = {k: (r.spec.label(), r.seconds) for k, r in best.items()}
        result.expect(got == want_best,
                      "a sweep answer's best styles differ from run_sweep")
        result.expect(swept["n_runs"] == len(runs),
                      f"sweep answer n_runs {swept['n_runs']} != {len(runs)}")

    def p50(source, field=None):
        """Mean over the shape families of each family's median latency:
        every round sends each family once, so this weighs them equally
        however the graphs of one seed happen to fall."""
        by_family = {
            family: median(
                ms if field is None else p[field]
                for ms, p, f in answers[source] if f == family
            )
            for family in FAMILIES
        }
        if field is None:
            print(f"{source} p50 ms by family: {by_family}", file=sys.stderr)
        return fmean(by_family.values())

    # Runs per second a client receives: a sweep answer carries the best
    # of n_runs verified runs, cold from kernels or re-served from cache.
    n_runs = answers["sweep"][0][1]["n_runs"] if answers["sweep"] else 0
    prefix = "" if tracer is None else "traced."
    result.metric(f"{prefix}cold_runs_per_s", n_runs / (p50("sweep") / 1000.0), "1/s")
    result.metric(f"{prefix}warm_runs_per_s", n_runs / (p50("cache") / 1000.0), "1/s")
    if tracer is None:
        result.metric("setup_s", setup_s, "s")
        return

    from repro.bench.predictor import StylePredictor
    from repro.graph.properties import analyze
    from repro.machine.devices import CPUS, DEVICES, GPUS
    from repro.serve.jobs import SweepJob, execute_job_inline

    for source in answers:
        result.metric(f"serve.client_ms.{source}", p50(source), "ms")
        result.metric(f"serve.server_ms.{source}",
                      p50(source, "elapsed_ms"), "ms")
    result.metric("serve.http_ms", median(
        ms - p["elapsed_ms"] for group in answers.values() for ms, p, _ in group
    ), "ms")
    result.metric("serve.boot_s", median(boots), "s")
    result.metric("predictor.train_s", fit_s, "s")
    for name, value in counts.items():
        result.metric(name, value, "count")

    upload_ms = []
    for edges, _ in uploads:
        start = time.perf_counter()
        build(edges)
        upload_ms.append((time.perf_counter() - start) * 1000.0)
    result.metric("serve.upload_ms", median(upload_ms), "ms")

    execute_ms = []
    for edges, _ in uploads[:SAMPLE]:
        job = SweepJob(graph=build(edges), algorithms=(Algorithm.BFS,),
                       models=tuple(Model), gpu_names=tuple(GPUS),
                       cpu_names=tuple(CPUS))
        start = time.perf_counter()
        execute_job_inline(job)
        execute_ms.append((time.perf_counter() - start) * 1000.0)
    result.metric("jobs.execute_ms", fmean(execute_ms), "ms")
    result.metric("jobs.overhead_ms", p50("sweep", "elapsed_ms") - fmean(execute_ms), "ms")

    predictor = StylePredictor.load(artifact)
    best_ms = []
    for f, family in enumerate(FAMILIES):
        graph = build(make_edges(family, np.random.default_rng([args.seed, 0, f, 1])))
        start = time.perf_counter()
        features = analyze(graph).features()
        for model in Model:
            for name in (GPUS if model.is_gpu else CPUS):
                predictor.best_style(Algorithm.BFS, model, features, DEVICES[name])
        best_ms.append((time.perf_counter() - start) * 1000.0)
    result.metric("predictor.best_style_ms", median(best_ms), "ms")
