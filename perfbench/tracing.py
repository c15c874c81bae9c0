"""In-memory spans around ccmin's layer boundaries, and their self times.

Tracing is installed from the benchmark's side only: ``install`` replaces the
public functions named in ``FUNCTION_LAYERS`` in every ccmin namespace that
holds them (so ``ccmin.bench.exact_optimum`` and ``ccmin.diagnostics.nacsmd``
are both caught), and the methods named in ``METHOD_LAYERS`` on their classes.
Nothing under ``src/`` changes. Call it only in a process that is measured as
a traced run: the wrappers cost about a microsecond per call.

A span is (name, start, end, parent). Spans live in flat arrays while the run
goes and are written out once at the end. A span's self time is its duration
minus the part of it that its child spans cover.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import time
from array import array

# layer name -> (defining module, public function)
FUNCTION_LAYERS = {
    "diagnostics.exact_optimum": ("diagnostics", "exact_optimum"),
    "diagnostics.ridge_psi": ("diagnostics", "ridge_psi"),
    "diagnostics.certificate_check": ("diagnostics", "certificate_check"),
    "diagnostics.lower_bound_experiment": ("diagnostics", "lower_bound_experiment"),
    "solvers.nacsmd": ("solvers", "nacsmd"),
    "solvers.acsmd": ("solvers", "acsmd"),
    "solvers.acsa_baseline": ("solvers", "acsa_baseline"),
    "solvers.default_schedule": ("solvers", "default_schedule"),
    "solvers.validate_schedule": ("solvers", "validate_schedule"),
    "regularizers.composite_prox": ("regularizers", "composite_prox"),
    "oracles.bernoulli_oracle": ("oracles", "bernoulli_oracle"),
    "geometry.power_uc_constant": ("geometry", "power_uc_constant"),
    "geometry.derive_params": ("geometry", "derive_params"),
    "bench.run_experiment": ("bench", "run_experiment"),
    # one (cell, seed) run of a grid: setup, solve, check, record
    "bench.run": ("bench", "_job"),
}

# layer name -> (module, class, methods); a class of None means every oracle
# class that defines the method itself
METHOD_LAYERS = {
    "regularizers.H_eval": ("regularizers", "PowerNormRegularizer", ("value", "grad")),
    "solvers.schedule_eval": ("solvers", "PolynomialSchedule", ("alpha", "gamma")),
    "oracles.sample_gradient": ("oracles", None, ("sample_gradient",)),
    "oracles.mean_gradient": ("oracles", None, ("mean_gradient",)),
}

LAYERS = tuple(FUNCTION_LAYERS) + tuple(METHOD_LAYERS)
SOLVER_LAYERS = ("solvers.nacsmd", "solvers.acsmd", "solvers.acsa_baseline")
MODULES = ("bench", "diagnostics", "solvers", "regularizers", "oracles", "geometry")


class Tracer:
    """Records nested spans in call order; single-threaded."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self._stack: list[int] = []
        self.steps = 0                  # solver iterations, summed from returned traces
        self.optimum_keys: set = set()  # distinct instances given to exact_optimum

    def _open(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(self.clock())
        return idx

    def _close(self, idx: int):
        self.end[idx] = self.clock()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        """Record one span around a block."""
        idx = self._open(name)
        try:
            yield
        finally:
            self._close(idx)

    def wrap(self, name: str, fn, on_result=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if on_result is not None:
                on_result(args, result)
            return result

        return traced

    def write(self, path, origin: float = 0.0):
        """Save the spans as arrays in a ``.npz`` file, times relative to ``origin``."""
        import numpy as np

        np.savez(
            path,
            names=np.array(self.names),
            name_id=np.frombuffer(self.name_id, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=np.float64) - origin,
            end=np.frombuffer(self.end, dtype=np.float64) - origin,
            parent=np.frombuffer(self.parent, dtype=np.int32),
        )


def self_times(start, end, parent) -> list:
    """Duration of each span minus the union of its children's intervals."""
    children: dict[int, list] = {}
    for i, p in enumerate(parent):
        if p >= 0:
            children.setdefault(p, []).append(i)
    out = [e - s for s, e in zip(start, end)]
    for p, kids in children.items():
        covered = 0.0
        lo = hi = None
        for k in sorted(kids, key=start.__getitem__):
            a, b = max(start[k], start[p]), min(end[k], end[p])
            if b <= a:
                continue
            if hi is None or a > hi:
                if hi is not None:
                    covered += hi - lo
                lo, hi = a, b
            else:
                hi = max(hi, b)
        if hi is not None:
            covered += hi - lo
        out[p] -= covered
    return out


def layer_totals(tracer: Tracer, names) -> dict:
    """{name: (calls, self seconds)} for each requested span name."""
    selfs = self_times(tracer.start, tracer.end, tracer.parent)
    totals = {name: [0, 0.0] for name in names}
    for nid, st in zip(tracer.name_id, selfs):
        entry = totals.get(tracer.names[nid])
        if entry is not None:
            entry[0] += 1
            entry[1] += st
    return {name: (calls, s) for name, (calls, s) in totals.items()}


def durations(tracer: Tracer, name: str) -> list:
    nid = tracer._name_ids.get(name)
    return [e - s for n, s, e in zip(tracer.name_id, tracer.start, tracer.end) if n == nid]


def install(tracer: Tracer, ccmin) -> None:
    """Wrap every layer of an imported ccmin package with ``tracer`` spans."""
    modules = {m: importlib.import_module(f"ccmin.{m}") for m in MODULES}
    namespaces = [ccmin, *modules.values()]

    def count_steps(args, result):
        tracer.steps += int(result[-1].T)

    def note_instance(args, result):
        inst = args[0]
        tracer.optimum_keys.add((inst.dimension, inst.x_star.tobytes()))

    hooks = {name: count_steps for name in SOLVER_LAYERS}
    hooks["diagnostics.exact_optimum"] = note_instance

    for layer, (mod, attr) in FUNCTION_LAYERS.items():
        original = getattr(modules[mod], attr)
        wrapped = tracer.wrap(layer, original, hooks.get(layer))
        for ns in namespaces:
            if getattr(ns, attr, None) is original:
                setattr(ns, attr, wrapped)

    base = modules["oracles"].StochasticGradientOracle
    for layer, (mod, cls_name, methods) in METHOD_LAYERS.items():
        if cls_name is None:
            classes = [c for c in vars(modules[mod]).values()
                       if isinstance(c, type) and issubclass(c, base) and c is not base]
        else:
            classes = [getattr(modules[mod], cls_name)]
        for cls in classes:
            for meth in methods:
                if meth in vars(cls):
                    setattr(cls, meth, tracer.wrap(layer, vars(cls)[meth]))
