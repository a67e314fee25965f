"""Spans and work counts around thermolim's public functions.

The tracer wraps library functions from outside: every module namespace
that holds a wrapped function (for example `lab.diagonalize` and
`condensates.diagonalize` besides `hamiltonians.diagonalize`) gets the
wrapper, so no call path escapes it.  Spans are kept in memory with parent
links; a span opened on a thread with no open span (the `lemma31` build
pool) takes the enclosing experiment span as parent.

Per-layer metrics, for every span name:
  <name>.calls   spans opened
  <name>.busy_s  length of the union of the name's span intervals
  <name>.self_s  busy time not covered by child spans
  trace.overhead_s  measured cost of one span (span_cost_s) times spans
plus work counts computed from arguments and results at the wrapper (see
COUNTS).  All counts are computed, not measured: bytes are array sizes.
"""

from __future__ import annotations

import functools
import statistics
import sys
import threading
import time
from collections import defaultdict

import numpy as np

# the Duhamel quadrature stops doubling at 4096 intervals, i.e. 4097 nodes
DUHAMEL_NODE_CAP = 4097

# span name -> what it wraps: (module, attribute) or (module, class, method)
TARGETS = {
    "hamiltonians.diagonalize": [("hamiltonians", "diagonalize")],
    "propagators.evolve_spectral": [("propagators", "evolve_spectral")],
    "propagators.evolve_free": [("propagators", "evolve_free")],
    "propagators.duhamel_bound": [("propagators", "duhamel_bound")],
    "quasifree.radial_transform": [("quasifree", "RadialFunction3D", "radial_transform")],
    "quasifree.temporal_correlation": [("quasifree", "temporal_correlation")],
    "grids.fourier_at": [("grids", "fourier_at")],
    "quasifree.momentum_weight": [("quasifree", "momentum_weight")],
    "quasifree.geometric_resolvent_series": [("quasifree", "geometric_resolvent_series")],
    "quasifree.thermal_state": [
        ("quasifree", "QuasifreeState", "__post_init__"),
        ("quasifree", "position_density"),
        ("quasifree", "thermal_edge_weight"),
    ],
    "fock.build_fock": [("fock", "build_fock")],
    "fock.gibbs_number_resolvent": [("fock", "gibbs_number_resolvent")],
    "fock.gibbs_field_resolvent": [("fock", "gibbs_field_resolvent")],
    "condensates.trap_mode": [("condensates", "trap_mode")],
    "condensates.condensate_count_scaling": [("condensates", "condensate_count_scaling")],
    "condensates.smeared_mode_limit": [("condensates", "smeared_mode_limit")],
    "condensates.l1_profile_check": [("condensates", "l1_profile_check")],
}

# hamiltonians.diagonalize is reported as two layers: the full dense solve
# and the partial stebz solve behave and scale differently
SPAN_NAMES = [
    "hamiltonians.diagonalize_full",
    "hamiltonians.diagonalize_partial",
    *[name for name in TARGETS if name != "hamiltonians.diagonalize"],
]

COUNTS = [
    "hamiltonians.diagonalize_full.modes",
    "hamiltonians.diagonalize_full.eigvec_bytes",
    "hamiltonians.diagonalize_partial.modes",
    "hamiltonians.diagonalize_partial.eigvec_bytes",
    "propagators.evolve_spectral.bytes",
    "propagators.duhamel_bound.nodes",
    "propagators.duhamel_bound.capped",
    "quasifree.radial_transform.kernel_evals",
    "fock.build_fock.dimension_max",
    "fock.dense_bytes_max",
]


def layer_metric_names(labels: list[str]) -> list[str]:
    """Every per-layer metric, for a benchmark whose experiments have these labels."""
    names = [f"{n}.{k}" for n in SPAN_NAMES for k in ("calls", "busy_s", "self_s")]
    names += COUNTS
    names += [f"lab.{label}.wall_s" for label in labels]
    names += ["lab.self_s", "trace.wall_s", "trace.overhead_s"]
    return names


def _diagonalize_name(args, kwargs) -> str:
    H = args[0] if args else kwargs["H"]
    n_modes = args[1] if len(args) > 1 else kwargs.get("n_modes")
    full = n_modes is None or n_modes >= H.size
    return "hamiltonians.diagonalize_full" if full else "hamiltonians.diagonalize_partial"


def _count_diagonalize(tracer, name, args, kwargs, result):
    tracer.add(f"{name}.modes", result.n_modes)
    tracer.add(f"{name}.eigvec_bytes", result.eigenvectors.nbytes)


def _count_evolve_spectral(tracer, name, args, kwargs, result):
    decomp = args[0] if args else kwargs["decomp"]
    tracer.add(f"{name}.bytes", decomp.eigenvectors.nbytes)


def _count_radial_transform(tracer, name, args, kwargs, result):
    fn, p = args[0], (args[1] if len(args) > 1 else kwargs["p"])
    tracer.add(f"{name}.kernel_evals", np.atleast_1d(p).size * fn.grid.r.size)


def _count_build_fock(tracer, name, args, kwargs, result):
    d = result.dimension
    tracer.maximum("fock.build_fock.dimension_max", d)
    tracer.maximum("fock.dense_bytes_max", d * d * 16)  # one dense complex D x D


COUNTERS = {
    "hamiltonians.diagonalize": _count_diagonalize,
    "propagators.evolve_spectral": _count_evolve_spectral,
    "quasifree.radial_transform": _count_radial_transform,
    "fock.build_fock": _count_build_fock,
}


class Span:
    __slots__ = ("name", "parent", "start", "end")

    def __init__(self, name, parent, start):
        self.name, self.parent, self.start, self.end = name, parent, start, None


class Tracer:
    """In-memory span recorder; `install` wraps the library, `metrics` summarises."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counts: dict[str, float] = defaultdict(float)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._root: Span | None = None
        self._undo: list[tuple[object, str, object]] = []

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def add(self, key: str, value: float) -> None:
        with self._lock:
            self.counts[key] += value

    def maximum(self, key: str, value: float) -> None:
        with self._lock:
            self.counts[key] = max(self.counts[key], value)

    def call(self, name: str, fn, args=(), kwargs=None, root: bool = False):
        """Run fn(*args, **kwargs) inside a span called `name`.

        A root span (one experiment) also parents spans opened while it runs
        on threads that have no open span of their own.
        """
        stack = self._stack()
        span = Span(name, stack[-1] if stack else self._root, time.perf_counter())
        self.spans.append(span)
        stack.append(span)
        if root:
            self._root = span
        try:
            return fn(*args, **(kwargs or {}))
        finally:
            span.end = time.perf_counter()
            stack.pop()
            if root:
                self._root = None

    def wrap(self, target_name: str, fn):
        tracer = self
        counter = COUNTERS.get(target_name)
        naming = _diagonalize_name if target_name == "hamiltonians.diagonalize" else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            name = naming(args, kwargs) if naming else target_name
            result = tracer.call(name, fn, args, kwargs)
            if counter:
                counter(tracer, name, args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        """Replace every target in every thermolim namespace that holds it."""
        import thermolim  # noqa: F401  (loads every submodule)

        modules = [m for n, m in sys.modules.items() if n == "thermolim" or n.startswith("thermolim.")]
        for name, targets in TARGETS.items():
            for target in targets:
                owner = sys.modules["thermolim." + target[0]]
                if len(target) == 3:
                    cls = getattr(owner, target[1])
                    self._patch(cls, target[2], self.wrap(name, vars(cls)[target[2]]))
                    continue
                original = getattr(owner, target[1])
                wrapped = self.wrap(name, original)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            self._patch(module, attr, wrapped)

    def _patch(self, owner, attr, value) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    def metrics(self) -> dict[str, float]:
        """calls/busy_s/self_s per span name, Duhamel node counts, lab spans,
        and the tracer's own cost: measured cost per span times spans."""
        children = defaultdict(list)
        for s in self.spans:
            if s.parent is not None:
                children[id(s.parent)].append(s)
        intervals = defaultdict(list)
        out: dict[str, float] = defaultdict(float)
        for s in self.spans:
            intervals[s.name].append((s.start, s.end))
            out[f"{s.name}.calls"] += 1
            covered = _union([(max(c.start, s.start), min(c.end, s.end)) for c in children[id(s)]])
            out[f"{s.name}.self_s"] += (s.end - s.start) - covered
            if s.name == "propagators.duhamel_bound":
                nodes = sum(1 for c in children[id(s)] if c.name == "propagators.evolve_free")
                out["propagators.duhamel_bound.nodes"] += nodes
                out["propagators.duhamel_bound.capped"] += int(nodes >= DUHAMEL_NODE_CAP)
        for name, iv in intervals.items():
            out[f"{name}.busy_s"] = _union(iv)
        for key, value in self.counts.items():
            out[key] = value
        lab = [s for s in self.spans if s.name.startswith("lab.")]
        out["lab.self_s"] = sum(out[f"{n}.self_s"] for n in {s.name for s in lab})
        for s in lab:
            out[f"{s.name}.wall_s"] = out[f"{s.name}.busy_s"]
        out["trace.spans"] = len(self.spans)
        out["trace.overhead_s"] = span_cost_s() * len(self.spans)
        return dict(out)


def layer_self_total(metrics: dict[str, float]) -> float:
    """Self time of the wrapped layers: the traced wall time minus the time
    spent in lab's own code between calls into them (`lab.self_s`)."""
    return sum(v for k, v in metrics.items() if k.endswith(".self_s") and not k.startswith("lab."))


def span_cost_s(calls: int = 2000, repeats: int = 5) -> float:
    """Measured cost of one span: a traced no-op call minus a plain one,
    median over `repeats` batches.  Work counters are not included."""
    def noop():
        return None

    costs = []
    for _ in range(repeats):
        traced = Tracer().wrap("calibration", noop)
        t0 = time.perf_counter()
        for _ in range(calls):
            noop()
        t1 = time.perf_counter()
        for _ in range(calls):
            traced()
        t2 = time.perf_counter()
        costs.append(((t2 - t1) - (t1 - t0)) / calls)
    return statistics.median(costs)


def _union(intervals) -> float:
    """Total length covered by a set of (start, end) intervals."""
    total, reach = 0.0, -float("inf")
    for start, end in sorted(intervals):
        start = max(start, reach)
        if end > start:
            total += end - start
            reach = end
    return total
