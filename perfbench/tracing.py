"""Outside-in tracing for ``--trace 1`` runs.

A :class:`Tracer` replaces public functions of the program's layers with
timed wrappers for the duration of a traced run and restores them after.
Spans accumulate in memory as (seconds, calls, items) per span name; a
workload takes :meth:`Tracer.snapshot` before and after a segment and
reports the difference.  Untraced runs never construct a tracer, so they
execute the program's functions unwrapped.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict
from typing import Callable, Dict, Optional, Tuple


class Tracer:
    def __init__(self) -> None:
        self.seconds: Dict[str, float] = defaultdict(float)
        self.calls: Dict[str, int] = defaultdict(int)
        self.items: Dict[str, int] = defaultdict(int)
        self._patched = []

    def _record(self, name: str, seconds: float, items: int = 0) -> None:
        self.seconds[name] += seconds
        self.calls[name] += 1
        self.items[name] += items

    def timed(
        self,
        fn: Callable,
        name: Callable[..., str],
        items: Optional[Callable[..., int]] = None,
    ) -> Callable:
        """``fn`` wrapped to record one span per call under ``name(*args)``."""
        record = self._record

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                record(
                    name(*args, **kwargs),
                    time.perf_counter() - start,
                    items(*args, **kwargs) if items is not None else 0,
                )

        return wrapper

    def patch(self, owner, attr: str, span: str, items=None) -> None:
        """Wrap ``owner.attr`` (a module function or a class method)."""
        original = owner.__dict__[attr]
        self._patched.append((owner, attr, original))
        setattr(owner, attr, self.timed(original, lambda *a, **k: span, items))

    def patch_with(self, owner, attr: str, make: Callable[[Callable], Callable]) -> None:
        """Replace ``owner.attr`` with ``make(original)``."""
        original = owner.__dict__[attr]
        self._patched.append((owner, attr, original))
        setattr(owner, attr, make(original))

    def restore(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def snapshot(self) -> Tuple[Dict[str, float], Dict[str, int], Dict[str, int]]:
        return dict(self.seconds), dict(self.calls), dict(self.items)

    @staticmethod
    def diff(after, before):
        """Per-span (seconds, calls, items) accumulated between snapshots."""
        out = {}
        for kind, (a, b) in enumerate(zip(after, before)):
            for name, value in a.items():
                delta = value - b.get(name, 0)
                out.setdefault(name, [0.0, 0, 0])[kind] = delta
        return {name: tuple(v) for name, v in out.items()}


def install(tracer: Tracer) -> None:
    """Wrap the public entry points of every layer the benchmark names."""
    from repro.bench import checkpoint, tracestore
    from repro.graph import datasets, shm
    from repro.machine import cpu, gpu
    from repro.runtime import launcher

    tracer.patch(datasets.DatasetSpec, "build", "graph.build")
    tracer.patch(launcher, "reference_solution", "runtime.reference")
    tracer.patch(launcher, "verify_result", "runtime.verify")
    tracer.patch(tracestore.TraceStore, "save", "tracestore.save")
    tracer.patch(tracestore.TraceStore, "load", "tracestore.load")
    # time_trace_batch(self, trace, styles): one call times len(styles)
    # mapping variants of one trace on one device.
    styles = lambda self, trace, specs, *a, **k: len(specs)  # noqa: E731
    tracer.patch(gpu.GPUModel, "time_trace_batch", "machine.time", styles)
    tracer.patch(cpu.CPUModel, "time_trace_batch", "machine.time", styles)
    tracer.patch(shm.SharedGraphPlane, "publish", "parallel.publish")
    tracer.patch(checkpoint.CheckpointStore, "save_block", "checkpoint.save")

    def wrap_build_kernel(build_kernel):
        # The launcher builds one kernel object per (graph, algorithm) and
        # calls its ``run`` once per semantic variant it executes.
        @functools.wraps(build_kernel)
        def build(algorithm, graph, source):
            kernel = build_kernel(algorithm, graph, source)
            kernel.run = tracer.timed(
                kernel.run, lambda *a, **k: f"kernels.run.{algorithm.value}"
            )
            return kernel

        return build

    tracer.patch_with(launcher, "build_kernel", wrap_build_kernel)


#: Span names whose time :func:`layer_seconds` subtracts from a pass's wall
#: time to leave the harness's own share.  They never nest in one another.
LAYER_SPANS = (
    "runtime.reference",
    "runtime.verify",
    "tracestore.save",
    "tracestore.load",
    "machine.time",
)


def kernel_seconds(spans) -> Dict[str, float]:
    return {
        name.rsplit(".", 1)[1]: v[0]
        for name, v in spans.items()
        if name.startswith("kernels.run.")
    }


def layer_seconds(spans) -> float:
    return sum(kernel_seconds(spans).values()) + sum(
        spans.get(name, (0.0,))[0] for name in LAYER_SPANS
    )
