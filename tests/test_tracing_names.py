"""``perfbench/tracing.py`` wraps ccmin's layers by name, so every name it
lists must stay. The file is loaded by path and only read: ``install``,
which patches the process, is never called."""

import importlib
import importlib.util
from pathlib import Path

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
