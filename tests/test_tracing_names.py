"""``perfbench/tracing.py`` wraps ccmin's layers by name, so every name it
lists must stay, and its step count reads ``result[-1].T`` from what each
solver layer returns, so that contract must stay too. The file is loaded by
path and only read: ``install``, which patches the process, is never
called."""

import importlib
import importlib.util
from pathlib import Path

import numpy as np
import pytest

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_function_layer_resolves(tracing):
    for layer, (mod, attr) in tracing.FUNCTION_LAYERS.items():
        assert mod in tracing.MODULES, layer
        assert callable(getattr(importlib.import_module(f"ccmin.{mod}"), attr, None)), layer


def test_every_method_layer_resolves(tracing):
    oracles = importlib.import_module("ccmin.oracles")
    base = oracles.StochasticGradientOracle
    assert isinstance(base, type)
    for layer, (mod, cls_name, methods) in tracing.METHOD_LAYERS.items():
        module = importlib.import_module(f"ccmin.{mod}")
        if cls_name is None:
            # every oracle class that defines the method itself; at least one does
            classes = [c for c in vars(module).values()
                       if isinstance(c, type) and issubclass(c, base) and c is not base]
            for meth in methods:
                assert any(meth in vars(c) for c in classes), layer
        else:
            cls = getattr(module, cls_name, None)
            assert isinstance(cls, type), layer
            for meth in methods:
                assert callable(vars(cls).get(meth)), (layer, meth)


def test_the_optimum_hook_reads_a_ridge_instance(monkeypatch):
    # the exact_optimum hook keys each instance on (inst.dimension,
    # inst.x_star.tobytes()); these are the instances a grid hands it
    bench = importlib.import_module("ccmin.bench")
    real, seen = bench.exact_optimum, []

    def recording(instance, *args, **kwargs):
        seen.append(instance)
        return real(instance, *args, **kwargs)

    monkeypatch.setattr(bench, "exact_optimum", recording)
    cfg = bench.resolve_config({"instance": {"d": [3]}, "run": {"seeds": [0]}})
    bundle = bench._prepare_cell(cfg, bench.build_cells(cfg)[0], 0)
    assert len(seen) == 1
    for inst in seen + [bundle["ridge"]]:
        assert inst.dimension == inst.x_star.size == 3


def test_every_solver_layer_returns_its_steps_last(tracing):
    # count_steps adds int(result[-1].T) per solver call: the last element
    # of each solver's result is the trace, whose T is the steps it ran
    ccmin = importlib.import_module("ccmin")
    inst = ccmin.RidgeInstance(x_star=np.array([0.5, -0.25, 1.0]), sigma_b=0.1, mu=2.0, q=2.0)
    H = ccmin.PowerNormRegularizer(mu=2.0, q=2.0)
    params = ccmin.derive_params(2.0, 2.0, inst.L, 2.0)
    x1 = np.zeros((2, 3))
    oracle = ccmin.OracleRows([ccmin.RidgeOracle(inst)] * 2,
                              [np.random.default_rng(s) for s in range(2)])
    runs = {
        "solvers.nacsmd": lambda f, T: f(oracle, H, ccmin.default_schedule(
            params, "nacsmd", validate_horizon=T), x1, T),
        "solvers.acsmd": lambda f, T: f(oracle, H, ccmin.default_schedule(
            params, "acsmd", validate_horizon=T), x1, T),
        "solvers.acsa_baseline": lambda f, T: f(oracle, H, inst.mu_F, params.L, x1, T),
    }
    assert sorted(runs) == sorted(tracing.SOLVER_LAYERS)
    for layer in tracing.SOLVER_LAYERS:
        mod, attr = tracing.FUNCTION_LAYERS[layer]
        solver = getattr(importlib.import_module(f"ccmin.{mod}"), attr)
        for T in (1, 7):
            result = runs[layer](solver, T)
            assert isinstance(result, tuple), layer
            assert int(result[-1].T) == T, layer
