"""Independent references for the benchmark's correctness checks.

Built on ``scipy.sparse.csgraph`` and numpy only, so a fault shared by the
program's kernels and its own serial oracles (``repro.kernels.serial``)
cannot hide from the benchmark.  Each check takes a graph's raw CSR arrays
and one kernel output and raises :class:`ReferenceMismatch` on any
disagreement.
"""

from __future__ import annotations

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse import csgraph

#: Program outputs at or above this value mean "unreached".  The program
#: stores unreached distances as a large sentinel; anything this large is
#: far beyond any real path length on the benchmark's inputs.
UNREACHED = np.int64(1) << np.int64(59)

PR_DAMPING = 0.85


class ReferenceMismatch(AssertionError):
    """A program output disagrees with the benchmark's own reference."""


def adjacency(graph, *, weighted: bool = False) -> csr_matrix:
    """The graph as a scipy CSR matrix (weights or ones)."""
    n = graph.n_vertices
    if weighted:
        data = np.asarray(graph.weights, dtype=np.float64)
    else:
        data = np.ones(graph.n_edges, dtype=np.float64)
    return csr_matrix(
        (data, np.asarray(graph.col_idx), np.asarray(graph.row_ptr)),
        shape=(n, n),
    )


def bfs_hops(graph, source: int) -> np.ndarray:
    return csgraph.shortest_path(
        adjacency(graph), method="D", unweighted=True, indices=source
    )


def sssp_distances(graph, source: int) -> np.ndarray:
    return csgraph.dijkstra(adjacency(graph, weighted=True), indices=source)


def component_minima(labels: np.ndarray) -> np.ndarray:
    """Relabel any partition so each vertex carries its component's
    smallest vertex id (two labelings describe the same partition iff
    their relabelings are equal)."""
    labels = np.asarray(labels).astype(np.int64)
    _, dense = np.unique(labels, return_inverse=True)
    minima = np.full(dense.max() + 1 if dense.size else 0, labels.size)
    np.minimum.at(minima, dense, np.arange(labels.size))
    return minima[dense]


def cc_partition(graph) -> np.ndarray:
    _, labels = csgraph.connected_components(adjacency(graph), directed=False)
    return component_minima(labels)


def triangle_count(graph) -> int:
    a = adjacency(graph)
    a.setdiag(0)
    a.eliminate_zeros()
    a.data[:] = 1.0
    # Every triangle is counted six times in trace(A^3) for a symmetric A.
    return int(round((a @ a).multiply(a).sum() / 6.0))


def pagerank(graph, tol: float = 1e-13, max_iters: int = 10000) -> np.ndarray:
    """Power iteration with the uniform dangling-node correction."""
    n = graph.n_vertices
    deg = np.diff(np.asarray(graph.row_ptr)).astype(np.float64)
    dangling = deg == 0
    # x_new[v] = sum over edges (u -> v) of x[u] / deg[u]: a transposed
    # matrix-vector product over the CSR adjacency.
    at = adjacency(graph).T.tocsr()
    rank = np.full(n, 1.0 / n)
    for _ in range(max_iters):
        new = at @ (rank / np.where(dangling, 1.0, deg))
        new = (1.0 - PR_DAMPING) / n + PR_DAMPING * (new + rank[dangling].sum() / n)
        if np.abs(new - rank).sum() < tol:
            return new
        rank = new
    return rank


# ----------------------------------------------------------------------
# Checks
# ----------------------------------------------------------------------
def _distances_match(name: str, values, reference: np.ndarray) -> None:
    values = np.asarray(values).astype(np.int64)
    unreached = values >= UNREACHED
    if not np.array_equal(unreached, np.isinf(reference)):
        raise ReferenceMismatch(f"{name}: reachable set differs")
    reached = ~unreached
    if not np.array_equal(values[reached], reference[reached].astype(np.int64)):
        bad = int(np.count_nonzero(values[reached] != reference[reached]))
        raise ReferenceMismatch(f"{name}: {bad} distances differ")


def check_independent_maximal(graph, values) -> None:
    in_set = np.asarray(values).astype(bool)
    row_ptr = np.asarray(graph.row_ptr)
    src = np.repeat(np.arange(graph.n_vertices), np.diff(row_ptr))
    dst = np.asarray(graph.col_idx)
    loops = src == dst
    if np.any(in_set[src] & in_set[dst] & ~loops):
        raise ReferenceMismatch("mis: two adjacent vertices are both in the set")
    covered = in_set.copy()
    covered[dst[in_set[src] & ~loops]] = True
    if not covered.all():
        raise ReferenceMismatch("mis: the set is not maximal")


class References:
    """Per-graph reference cache: each reference is computed once."""

    def __init__(self, pr_tolerance):
        #: ``n_vertices -> absolute per-rank tolerance`` (the program's
        #: documented PageRank acceptance rule).
        self.pr_tolerance = pr_tolerance
        self._cache = {}

    def _get(self, key, compute):
        if key not in self._cache:
            self._cache[key] = compute()
        return self._cache[key]

    def check(self, algorithm: str, graph, source: int, values) -> None:
        """Raise :class:`ReferenceMismatch` unless ``values`` is right."""
        fp = graph.fingerprint()
        if algorithm == "bfs":
            ref = self._get((fp, "bfs", source), lambda: bfs_hops(graph, source))
            _distances_match("bfs", values, ref)
        elif algorithm == "sssp":
            ref = self._get(
                (fp, "sssp", source), lambda: sssp_distances(graph, source)
            )
            _distances_match("sssp", values, ref)
        elif algorithm == "cc":
            ref = self._get((fp, "cc"), lambda: cc_partition(graph))
            if not np.array_equal(component_minima(values), ref):
                raise ReferenceMismatch("cc: partition differs")
        elif algorithm == "mis":
            check_independent_maximal(graph, values)
        elif algorithm == "pr":
            ref = self._get((fp, "pr"), lambda: pagerank(graph))
            atol = self.pr_tolerance(graph.n_vertices)
            worst = float(np.abs(np.asarray(values, dtype=np.float64) - ref).max())
            if not worst <= atol:
                raise ReferenceMismatch(
                    f"pr: max deviation {worst:.3e} > tolerance {atol:.3e}"
                )
        elif algorithm == "tc":
            ref = self._get((fp, "tc"), lambda: triangle_count(graph))
            if int(np.asarray(values).ravel()[0]) != ref:
                raise ReferenceMismatch(
                    f"tc: counted {int(np.asarray(values).ravel()[0])}, "
                    f"reference {ref}"
                )
        else:
            raise ValueError(f"unknown algorithm {algorithm!r}")


def self_check(graphs, serial, pr_tolerance, source_for) -> int:
    """Check these references against the program's serial oracles.

    ``serial`` is the ``repro.kernels.serial`` module; every oracle output
    on every graph must pass the reference checks.  Returns the number of
    (algorithm, graph) pairs checked.
    """
    refs = References(pr_tolerance)
    checked = 0
    for graph in graphs:
        source = source_for(graph)
        outputs = {
            "bfs": serial.serial_bfs(graph, source),
            "sssp": serial.serial_sssp(graph, source),
            "cc": serial.serial_cc(graph),
            "mis": serial.serial_mis(graph),
            "pr": serial.serial_pagerank(graph),
            "tc": np.array([serial.serial_triangle_count(graph)]),
        }
        for algorithm, values in outputs.items():
            try:
                refs.check(algorithm, graph, source, values)
            except ReferenceMismatch as exc:
                raise ReferenceMismatch(
                    f"self-check on {graph.name}: {exc}"
                ) from None
            checked += 1
    return checked
