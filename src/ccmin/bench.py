"""Benchmark harness and CLI.

A single JSON config describes an experiment grid: an instance block
(synthetic regression, its deterministic variant, or the adversarial
hidden-sign instance), a solver block (which algorithms and schedule knobs),
a run block (target accuracy, horizon, seeds), and an output block. Every
quantity has a default matching the standard benchmark setup (d=50, kappa=2,
mu=2, sigma_b=0.1, epsilon=0.01; the exponent q, the target vector scale and
the start point are calibration choices, flagged like any other override)
and any key the user changes is listed under ``overrides`` in all emitted
artifacts.

The grid runs a grid point (d, L_multiplier) at a time (optionally across
processes). Each seed's instance is built once per grid point and shared by
its cells; the seeds of every cell of one solver are the rows of one batched
solver call, each row under its own cell's schedule and with the bits of its
run alone, and a restart cell runs one seed at a time. As each grid point's
job returns, in grid order, its runs are written a run at a time: each
run's ``trace-<cell>-<seed>.csv`` with header
``t,psi_gap,bregman_to_opt,alpha_t,gamma_t`` and its lines of
``plotdata.csv``. So memory holds one grid point's results, not the grid's.
Then the grid's ``summary.json`` (per-cell medians/quartiles, resolved
schedules, certificate status); last a ``manifest.json`` carrying the
resolved config, the hashes of the bytes written and the Python, numpy and
platform versions. Every file is UTF-8. Outputs are deterministic: the same
config byte-for-byte reproduces the same CSVs and summary.

Exit codes: 0 success, 2 config validation failure, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import contextlib
import copy
import csv
import functools
import hashlib
import io
import itertools
import json
import math
import numbers
import os
import platform
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .diagnostics import (
    NoiseTerms,
    _ridge_psi,
    certificate_check,
    concentration_check,
    exact_optimum,
    lower_bound_experiment,
    ridge_psi,
)
from .errors import ConfigError, NumericalError, ParameterError
from .geometry import bregman_to, derive_params, power_uc_constant
from .oracles import (
    AdditiveNoiseOracle,
    OracleRows,
    RidgeInstance,
    RidgeOracle,
    _philox,
    bernoulli_oracle,
)
from .regularizers import PowerNormRegularizer
from .solvers import (
    PolynomialSchedule,
    RestartPlan,
    _solver,
    acsa_baseline,
    default_degree,
    default_schedule,
    plan_from_params,
    restart,
    validate_schedule,
)

__all__ = [
    "DEFAULT_CONFIG",
    "resolve_config",
    "build_cells",
    "run_experiment",
    "emit_table",
    "emit_plotdata",
    "parse_plotdata",
    "main",
]

DEFAULT_CONFIG = {
    "instance": {
        "kind": "ridge",              # ridge | custom-deterministic | bernoulli
        "d": 50,
        "q": 3.0,                     # reference tables do not pin q; chosen by calibration
        "kappa": 2.0,
        "mu": 2.0,
        "sigma_b": 0.1,
        "x_star": {"kind": "uniform", "scale": 0.3},
        "x1": {"kind": "constant", "value": 3.25},
        "L_multiplier": 1.0,
        "R": None,
        # bernoulli-only knobs
        "sigma": 1.0,
        "target_accuracy": 0.05,
    },
    "solver": {
        "algorithms": ["acsa", "nacsmd", "acsmd1", "acsmd2", "acsmd3"],
        "safety_scale": 1.0,
        # "printed" runs the literal polynomial constants of the reference
        # experiments (nominal mu, no offset repair); "validated" auto-tunes
        # offsets until the step conditions hold, as the certificates require
        "schedule_mode": "printed",
        "acsa_stage0": 1,
    },
    "run": {
        "epsilon": 0.01,
        "T_max": 999,
        "seeds": {"count": 20, "base": 0},
        "stop_at_target": True,
        "restart": None,              # None | "auto" | {"n":..,"K":..,"T":..}
        "certificates": True,
        "thin": 1,
    },
    "output": {
        "dir": "ccmin-out",
        "formats": ["csv", "json"],
        "traces": True,
        "plotdata": True,
    },
}

_PRESETS = ("acsmd1", "acsmd2", "acsmd3")  # plain-string names for acsmd of degree 1, 2, 3
_ALGORITHMS = ("acsa", "nacsmd", "acsmd") + _PRESETS
_KINDS = ("ridge", "custom-deterministic", "bernoulli")
CENSOR_MARGIN = 1  # censored runs count as T_max + 1 in medians
# the keys each kind of start-point block takes besides its "kind"
_START_KEYS = {"x_star": {"uniform": {"scale"}, "fixed": {"values"}},
               "x1": {"constant": {"value"}, "zeros": set(), "fixed": {"values"}}}


def _merge_defaults(raw: dict, defaults: dict, path: str, overrides: list) -> dict:
    out = {}
    for key, default in defaults.items():
        if key in raw:
            value = raw[key]
            if isinstance(default, dict) and isinstance(value, dict) and key not in ("x_star", "x1"):
                out[key] = _merge_defaults(value, default, f"{path}{key}.", overrides)
                continue
            if isinstance(default, bool) and not isinstance(value, bool):
                raise ConfigError(f"{path}{key} must be true or false, got {value!r}")
            if value != default:
                overrides.append(f"{path}{key}")
            out[key] = value
        else:
            # a copy, since resolve_config rewrites parts of the result
            out[key] = copy.deepcopy(default)
    unknown = set(raw) - set(defaults)
    if unknown:
        raise ConfigError(f"unknown config keys under {path or 'top level'}: {sorted(unknown)}")
    return out


def _number(value, key: str):
    """``value`` if it is a finite real number (a bool is not one), else a
    ConfigError naming ``key``."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real) or not math.isfinite(value):
        raise ConfigError(f"{key} must be a finite number, got {value!r}")
    return value


def _integer(value, key: str, least: int):
    """``value`` if it is an integer (a bool is not one) >= ``least``, else a
    ConfigError naming ``key``."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < least:
        raise ConfigError(f"{key} must be an integer >= {least}, got {value!r}")
    return value


def _unit_scale(value, key: str):
    """``safety_scale`` is only echoed: schedules have no gamma multiplier,
    since one above 1 breaks the growth condition at large t. Any value
    but 1 is a ConfigError naming ``key``."""
    if _number(value, key) != 1:
        raise ConfigError(f"{key} must be 1 (schedules have no gamma multiplier), got {value!r}")


def _check_algorithm(alg: dict, key: str):
    """Refuse an unknown key or a bad value in the algorithm entry ``key``
    (its ``name`` is checked with the plain names). A preset name is only a
    plain string, and the ``acsa`` baseline, which has no polynomial
    schedule, takes no ``m`` or ``offset``."""
    if alg["name"] in _PRESETS:
        raise ConfigError(f"{key}.name {alg['name']!r} is only a plain string; an object "
                          "names 'acsmd' and sets its own 'm' and 'offset'")
    unknown = set(alg) - {"name", "m", "offset", "label", "safety_scale"}
    if unknown:
        raise ConfigError(f"unknown config keys under {key}: {sorted(unknown)}")
    schedule_keys = sorted({"m", "offset"} & set(alg))
    if alg["name"] == "acsa" and schedule_keys:
        raise ConfigError(f"{key}: the acsa baseline has no polynomial schedule, "
                          f"so takes no {schedule_keys}")
    if "m" in alg and _number(alg["m"], f"{key}.m") <= -1:
        raise ConfigError(f"{key}.m must be > -1, got {alg['m']!r}")
    offset = alg.get("offset", 0)
    if offset != "condition_root" and _number(offset, f"{key}.offset") < 0:
        raise ConfigError(f"{key}.offset must be 'condition_root' or >= 0, got {offset!r}")
    label = alg.get("label", "-")
    if not isinstance(label, str) or not label:
        raise ConfigError(f"{key}.label must be a non-empty string, got {label!r}")
    if "safety_scale" in alg:
        _unit_scale(alg["safety_scale"], f"{key}.safety_scale")


def _check_file_name_part(text: str, key: str):
    """Refuse ``text``, which goes into trace file names, where it holds a
    path separator or NUL, or the file-system encoding cannot encode it (an
    ASCII locale, say)."""
    advice = "use another label or set output.traces to false"
    if any(sep and sep in text for sep in (os.sep, os.altsep, "\0")):
        raise ConfigError(f"{key} {text!r} names trace files, so must hold no path "
                          f"separator or NUL; {advice}")
    try:
        os.fsencode(text)
    except UnicodeEncodeError:
        raise ConfigError(
            f"{key} {text!r} names trace files, which the file-system encoding "
            f"({sys.getfilesystemencoding()}) cannot encode; {advice}") from None


def _check_restart(plan, T_max: int):
    """Refuse a ``run.restart`` that is not null, ``"auto"`` or an explicit
    plan ``{n, K, T}`` with integers n >= 0, K >= 1, T >= K whose n K + T
    steps fit in ``T_max``."""
    if plan is None or plan == "auto":
        return
    if not isinstance(plan, dict) or set(plan) != {"n", "K", "T"}:
        raise ConfigError(f"run.restart must be null, 'auto' or {{n, K, T}}, got {plan!r}")
    n = _integer(plan["n"], "run.restart.n", 0)
    K = _integer(plan["K"], "run.restart.K", 1)
    steps = n * K + _integer(plan["T"], "run.restart.T", K)
    if steps > T_max:
        raise ConfigError(f"run.restart runs {steps} steps, more than run.T_max = {T_max}")


def _check_keys(cfg: dict, reals: tuple, counts: tuple):
    """Type-check a subcommand's keys: ``reals`` must be finite numbers,
    ``counts`` integers >= 1, and ``seed`` an integer >= 0."""
    for key in reals:
        _number(cfg[key], key)
    for key in counts:
        _integer(cfg[key], key, 1)
    _integer(cfg["seed"], "seed", 0)


def _check_instance_values(inst: dict):
    """Refuse the instance values that every seed's set-up would refuse,
    each where its kind reads it: a nonpositive ``mu`` on any kind, a negative
    ``sigma_b`` on a ridge instance (``custom-deterministic`` runs with
    sigma_b = 0), a nonpositive ``R`` on either regression kind, and on
    ``bernoulli`` a nonpositive ``sigma`` or a ``target_accuracy`` that
    ``bernoulli_oracle`` refuses."""
    if not inst["mu"] > 0.0:
        raise ConfigError(f"instance.mu must be > 0, got {inst['mu']!r}")
    if inst["kind"] == "bernoulli":
        if not inst["sigma"] > 0.0:
            raise ConfigError(f"instance.sigma must be > 0, got {inst['sigma']!r}")
        try:
            bernoulli_oracle(inst["mu"], inst["q"], inst["sigma"], inst["target_accuracy"], nu=1)
        except ParameterError as exc:  # mu and sigma pass, so target_accuracy is refused
            accuracy = inst["target_accuracy"]
            raise ConfigError(f"instance.target_accuracy {accuracy!r} is refused: {exc}") from None
        return
    if inst["kind"] == "ridge" and inst["sigma_b"] < 0.0:
        raise ConfigError(f"instance.sigma_b must be >= 0, got {inst['sigma_b']!r}")
    if inst["R"] is not None and not inst["R"] > 0.0:
        raise ConfigError(f"instance.R must be null or > 0, got {inst['R']!r}")


def resolve_config(raw: dict) -> dict:
    """Fill defaults, record overrides, and validate the static structure."""
    if not isinstance(raw, dict):
        raise ConfigError("config must be a JSON object")
    overrides: list = []
    cfg = _merge_defaults(raw, DEFAULT_CONFIG, "", overrides)
    cfg["overrides"] = sorted(overrides)

    inst = cfg["instance"]
    if inst["kind"] not in _KINDS:
        raise ConfigError(f"instance.kind must be one of {_KINDS}, got {inst['kind']!r}")
    for key in ("d", "L_multiplier"):
        if not isinstance(inst[key], list):
            inst[key] = [inst[key]]
    for d in inst["d"]:
        _integer(d, "instance.d", 1)
    if any(_number(m, "instance.L_multiplier") <= 0 for m in inst["L_multiplier"]):
        raise ConfigError("instance.L_multiplier entries must be positive")
    if _number(inst["q"], "instance.q") < 2.0:
        raise ConfigError(f"instance.q must be >= 2, got {inst['q']}")
    if not 1.0 < _number(inst["kappa"], "instance.kappa") <= 2.0:
        raise ConfigError(f"instance.kappa must lie in (1, 2], got {inst['kappa']}")
    for key in ("mu", "sigma_b", "sigma", "target_accuracy"):
        _number(inst[key], f"instance.{key}")
    if inst["R"] is not None:
        _number(inst["R"], "instance.R")
    _check_instance_values(inst)
    _unit_scale(cfg["solver"]["safety_scale"], "solver.safety_scale")
    _integer(cfg["solver"]["acsa_stage0"], "solver.acsa_stage0", 1)
    for name, kinds in _START_KEYS.items():
        block, key = inst[name], f"instance.{name}"
        if not isinstance(block, dict) or block.get("kind") not in kinds:
            raise ConfigError(f"{key}.kind must be one of {sorted(kinds)}")
        unknown = set(block) - kinds[block["kind"]] - {"kind"}
        if unknown:
            raise ConfigError(f"unknown config keys under {key}: {sorted(unknown)}")
        if block["kind"] == "fixed" and not isinstance(block.get("values"), list):
            raise ConfigError(f"fixed {name} needs a 'values' list")
        for field in set(block) - {"kind"}:
            for value in block[field] if field == "values" else [block[field]]:
                _number(value, f"{key}.{field}")
        # a bernoulli instance reads neither block
        if block["kind"] == "fixed" and inst["kind"] != "bernoulli":
            for d in inst["d"]:
                if len(block["values"]) != d:
                    raise ConfigError(f"{key}.values has {len(block['values'])} entries "
                                      f"but instance.d = {d}")
    if cfg["solver"]["schedule_mode"] not in ("printed", "validated"):
        raise ConfigError("solver.schedule_mode must be 'printed' or 'validated'")

    algs = cfg["solver"]["algorithms"]
    if not algs:
        raise ConfigError("solver.algorithms must not be empty")
    for i, alg in enumerate(algs):
        name = alg.get("name") if isinstance(alg, dict) else alg
        if name not in _ALGORITHMS:
            raise ConfigError(f"unknown algorithm {name!r}; expected one of {_ALGORITHMS}")
        if isinstance(alg, dict):
            _check_algorithm(alg, f"solver.algorithms[{i}]")
            if "label" in alg and cfg["output"]["traces"]:
                _check_file_name_part(alg["label"], f"solver.algorithms[{i}].label")
        if name == "acsa" and inst["kind"] == "bernoulli":
            raise ConfigError("the accelerated baseline needs a regression instance")

    run = cfg["run"]
    seeds = run["seeds"]
    if isinstance(seeds, dict):
        count = _integer(seeds.get("count", 0), "run.seeds.count", 1)
        base = _integer(seeds.get("base", 0), "run.seeds.base", 0)
        run["seeds"] = list(range(base, base + count))
    elif isinstance(seeds, list):
        if not seeds:
            raise ConfigError("run.seeds must not be empty")
        run["seeds"] = [_integer(s, "run.seeds", 0) for s in seeds]
    else:
        raise ConfigError("run.seeds must be a list or {count, base}")
    _integer(run["T_max"], "run.T_max", 1)
    _check_restart(run["restart"], run["T_max"])
    if not 0.0 < _number(run["epsilon"], "run.epsilon") < 1.0:
        raise ConfigError("run.epsilon must lie in (0, 1)")
    if _number(run["thin"], "run.thin") < 1:
        raise ConfigError("run.thin must be >= 1")
    # a cell's label names its trace files and its summary entry
    labels = [cell["label"] for cell in build_cells(cfg)]
    for label in labels:
        if labels.count(label) > 1:
            raise ConfigError(
                f"{labels.count(label)} grid cells share the label {label!r}; list each "
                "d and L_multiplier once and give repeated algorithms their own 'label'")
    return cfg


def _algorithm_spec(alg) -> dict:
    if isinstance(alg, dict):
        spec = dict(alg)
    elif alg in _PRESETS:
        spec = {"name": "acsmd", "m": float(alg[-1]), "offset": "condition_root", "label": alg}
    else:
        spec = {"name": alg}
    spec.setdefault("label", spec["name"])
    return spec


def build_cells(cfg: dict) -> list:
    """Expand the grid: one cell per (d, L_multiplier, algorithm)."""
    inst = cfg["instance"]
    cells = []
    for d in inst["d"]:
        for mult in inst["L_multiplier"]:
            for alg in cfg["solver"]["algorithms"]:
                spec = _algorithm_spec(alg)
                label = f"{inst['kind']}-d{int(d)}-Lx{mult:g}-{spec['label']}"
                cells.append({
                    "label": label,
                    "d": int(d),
                    "L_multiplier": float(mult),
                    "algorithm": spec,
                })
    return cells


def _draw_x_star(inst: dict, d: int, seed: int) -> np.ndarray:
    xs = inst["x_star"]
    if xs["kind"] == "fixed":
        return np.asarray(xs["values"], dtype=float)
    rng = _philox((seed, 101))
    return xs.get("scale", 1.0) * rng.uniform(-1.0, 1.0, d)


def _make_x1(inst: dict, d: int) -> np.ndarray:
    x1 = inst["x1"]
    if x1["kind"] == "zeros":
        return np.zeros(d)
    if x1["kind"] == "constant":
        return float(x1.get("value", 0.0)) * np.ones(d)
    return np.asarray(x1["values"], dtype=float)


def _resolve_schedule(spec: dict, params, target: str, solver_cfg: dict, nominal_mu: float,
                      horizon: int):
    """Build the run schedule, once per grid cell (it is seed-independent).

    In "printed" mode the literal polynomial constants are used: degree per
    the target's standard formula (or the user's m), offset 2(m+1)M/mu for
    the plain solver and (L/mu)^(1/q) for the accelerated variants, with the
    nominal regularizer weight mu. These can violate the step conditions at
    small t; "validated" mode instead calls default_schedule, which repairs
    the offset against the calibrated convexity modulus over the ``horizon``
    steps the run takes.
    """
    m, offset = spec.get("m"), spec.get("offset")
    validated = solver_cfg["schedule_mode"] == "validated"
    if offset == "condition_root" or (offset is None and target == "acsmd" and not validated):
        offset = (params.L / nominal_mu) ** (1.0 / params.q)
    if validated:
        return default_schedule(params, target, m=m, offset=offset, validate_horizon=horizon)
    if m is None:
        # the reference experiments run constant alpha_t for nacsmd
        m = 0.0 if target == "nacsmd" else default_degree(params, target)
    if offset is None:
        offset = 2.0 * (m + 1.0) * params.M / nominal_mu
    return PolynomialSchedule(m=float(m), offset=float(offset), target=target)


def _cell_schedule(cfg: dict, cell: dict, params):
    """The run schedule of a ``nacsmd``/``acsmd`` cell and its description
    for ``summary.json``, whose ``valid`` says whether it passes
    ``validate_schedule`` at ``T_max``: what ``ccmin run`` runs and ``ccmin
    validate`` checks. A validated schedule passes there, since
    ``default_schedule`` returns no other, so only a printed one is scanned.
    ``params`` may be any seed's: a schedule's validity does not read sigma,
    the one parameter that differs between the seeds of a cell."""
    spec, T_max = cell["algorithm"], int(cfg["run"]["T_max"])
    mode = cfg["solver"]["schedule_mode"]
    sched = _resolve_schedule(spec, params, spec["name"], cfg["solver"], cfg["instance"]["mu"],
                              T_max)
    valid = mode == "validated" or validate_schedule(sched, params, T_max).ok
    return sched, dict(sched.describe(), valid=valid, mode=mode)


def _prepare_cell(cfg: dict, cell: dict, seed: int):
    """Build one seed's problem bundle at the grid point of ``cell``. Only
    the cell's ``d`` and ``L_multiplier`` are read, so the bundle serves
    every cell of that (d, L_multiplier), and a grid builds it once there.
    A start point whose gap to the optimum is not finite is a
    NumericalError."""
    inst = cfg["instance"]
    kind = inst["kind"]
    if kind == "bernoulli":
        rng_nu = _philox((seed, 11))
        nu = 1 if rng_nu.random() < 0.5 else -1
        oracle, b_inst = bernoulli_oracle(
            inst["mu"], inst["q"], inst["sigma"], inst["target_accuracy"], nu=nu,
        )
        mu_eff = inst["mu"] * power_uc_constant(inst["q"])
        params = derive_params(inst["q"], 2.0, 0.0, mu_eff, sigma=inst["sigma"])
        H = PowerNormRegularizer(mu=inst["mu"], q=inst["q"])
        x1 = np.zeros(1)
        psi = lambda x: b_inst.psi(float(np.asarray(x).ravel()[0]))  # noqa: E731
        return {
            "oracle": oracle, "params": params, "H": H, "x1": x1, "ridge": None,
            "psi": psi, "psi_star": b_inst.psi_star, "x_opt": np.array([b_inst.x_opt]),
            "gap0": b_inst.gap_at_origin, "mu_f": None,
        }

    d = cell["d"]
    x_star = _draw_x_star(inst, d, seed)
    sigma_b = 0.0 if kind == "custom-deterministic" else inst["sigma_b"]
    ridge = RidgeInstance(x_star=x_star, sigma_b=sigma_b, mu=inst["mu"], q=inst["q"], R=inst["R"])
    L_declared = ridge.L * cell["L_multiplier"]
    mu_eff = inst["mu"] * power_uc_constant(inst["q"])
    params = derive_params(inst["q"], inst["kappa"], L_declared, mu_eff,
                           sigma=ridge.declared_sigma)
    H = PowerNormRegularizer(mu=inst["mu"], q=inst["q"])
    oracle = RidgeOracle(ridge)
    if kind == "custom-deterministic":
        oracle = AdditiveNoiseOracle(oracle.mean_gradient, d, q=inst["q"])
    x_opt, psi_star = exact_optimum(ridge)
    x1 = _make_x1(inst, d)
    psi = lambda x: ridge_psi(ridge, x)  # noqa: E731
    with np.errstate(over="ignore", invalid="ignore"):  # refused just below
        gap0 = psi(x1) - psi_star
    if not math.isfinite(gap0):
        # no run could reach a target relative to it
        raise NumericalError(f"the start point's gap psi(x1) - psi* is {gap0}")
    return {
        "oracle": oracle, "params": params, "H": H, "x1": x1, "ridge": ridge,
        "psi": psi, "psi_star": psi_star, "x_opt": x_opt, "gap0": gap0, "mu_f": ridge.mu_F,
    }


class _RowFn:
    """A function of an ``(S, d)`` batch, built by ``make`` from per-row
    data (arrays or lists indexed by row). ``take(keep)`` rebuilds it on the
    rows ``keep``: a row that leaves a batch run is evaluated no more."""

    def __init__(self, make, *data):
        self._make, self._data = make, data
        self._fn = make(*data)

    def __call__(self, x):
        return self._fn(x)

    def take(self, keep):
        return _RowFn(self._make, *(
            d[keep] if isinstance(d, np.ndarray) else [d[i] for i in keep] for d in self._data))


def _ridge_gaps(ridge, x_star, psi_star):
    """x -> psi(x) - psi_star row-wise, row i on the instance ``ridge``
    with the minimizer data of row i."""
    return lambda x: _ridge_psi(x, x_star, ridge.sigma_b, ridge.mu, ridge.q) - psi_star


def _psi_gaps(psi, psi_star):
    """x -> psi(x) - psi_star with each row's own objective ``psi[i]``."""
    return lambda x: np.array([f(row) for f, row in zip(psi, x)]) - psi_star


def _groups(cells: list) -> list:
    """The cells of each grid point (d, L_multiplier), in the grid's cell
    order: ``build_cells`` lists a grid point's cells one after another."""
    return [list(group) for _, group in
            itertools.groupby(cells, key=lambda cell: (cell["d"], cell["L_multiplier"]))]


def _batch(cfg: dict, seeds: list, rows_data: list):
    """(oracle, start points, gap and Bregman functions, stop gaps) of the
    runs on the bundles ``rows_data`` of the seeds ``seeds``, one row each,
    all of one (d, L_multiplier); each row draws from its seed's stream."""
    run_cfg = cfg["run"]
    first = rows_data[0]
    oracle = OracleRows([b["oracle"] for b in rows_data], [_philox((s, 7)) for s in seeds])
    psi_star = np.array([b["psi_star"] for b in rows_data])
    if first["ridge"] is not None:
        x_star = np.stack([b["ridge"].x_star for b in rows_data])
        gap_fn = _RowFn(functools.partial(_ridge_gaps, first["ridge"]), x_star, psi_star)
    else:
        gap_fn = _RowFn(_psi_gaps, [b["psi"] for b in rows_data], psi_star)
    bregman_fn = _RowFn(functools.partial(bregman_to, first["H"]),
                        np.stack([b["x_opt"] for b in rows_data]))
    gap0 = np.array([b["gap0"] for b in rows_data])
    stop_gap = run_cfg["epsilon"] * gap0 if run_cfg["stop_at_target"] else None
    return oracle, np.stack([b["x1"] for b in rows_data]), gap_fn, bregman_fn, stop_gap


def _run_group(cfg: dict, cells: list, bundles: dict) -> dict:
    """The runs of the cells ``cells``, all of one solver and one grid
    point, on each seed's bundle of ``bundles`` ({seed: bundle}), as the
    rows of one batched solver call, or one seed at a time for restart
    cells: {(label, seed): (record, rows) or the exception that ended the
    run}. A cell whose schedule fails gets its own error."""
    run_cfg = cfg["run"]
    T_max = int(run_cfg["T_max"])
    name = cells[0]["algorithm"]["name"]
    first = next(iter(bundles.values()))
    out = {}
    runs = []  # (cell, seed, bundle, schedule description, certify?), one per row
    scheds = []
    for cell in cells:
        if name == "acsa":
            sched = None
            desc = {"kind": "acsa-stage-doubling", "L": first["params"].L,
                    "mu_f": first["mu_f"], "stage0": cfg["solver"]["acsa_stage0"]}
            want_cert = False
        else:
            try:
                sched, desc = _cell_schedule(cfg, cell, first["params"])
            except (NumericalError, ParameterError) as exc:
                out.update({(cell["label"], seed): exc for seed in bundles})
                continue
            # the run inequality presumes validity
            want_cert = run_cfg["certificates"] and desc["valid"]
        for seed, bundle in bundles.items():
            runs.append((cell, seed, bundle, desc, want_cert))
            scheds.append(sched)
    if not runs:
        return out
    if run_cfg["restart"] is not None and name != "acsa":
        # restart plans differ per seed: one seed at a time
        for (cell, seed, bundle, desc, _), sched in zip(runs, scheds):
            out[cell["label"], seed] = _restart_run(cfg, cell, seed, bundle, sched, desc)
        return out

    rows_data = [bundle for _, _, bundle, _, _ in runs]
    oracle, x1, gap_fn, bregman_fn, stop_gap = _batch(cfg, [seed for _, seed, *_ in runs],
                                                      rows_data)
    if name == "acsa":
        _, trace = acsa_baseline(
            oracle, first["H"], first["mu_f"], first["params"].L, x1, T_max,
            gap_fn=gap_fn, stop_gap=stop_gap, stage0=cfg["solver"]["acsa_stage0"],
        )
    else:
        # only the certified rows read the noise terms, but every row
        # may compute them: they do not touch the run
        noise_fn = None
        if any(want_cert for *_, want_cert in runs):
            noise_fn = NoiseTerms(np.stack([b["x_opt"] for b in rows_data]),
                                  first["params"].p)
        # _cell_schedule already checked each schedule over these T_max steps
        _, _, trace = _solver(name)(
            oracle, first["H"], scheds, x1, T_max, stop_gap=stop_gap,
            gap_fn=gap_fn, bregman_fn=bregman_fn, noise_fn=noise_fn,
        )

    for k, (cell, seed, bundle, desc, want_cert) in enumerate(runs):
        try:
            trace_k = trace.row(k)
            cert_status = "n/a"
            if want_cert:
                report = certificate_check(trace_k, bundle["params"], bundle["H"],
                                           bundle["x_opt"], bundle["psi"], bundle["psi_star"])
                cert_status = "ok" if report.ok else f"violated@t={report.first_violation}"
            out[cell["label"], seed] = _run_outcome(cell, seed, bundle, [trace_k],
                                                    run_cfg["epsilon"], cert_status, desc)
        except (NumericalError, ParameterError) as exc:
            out[cell["label"], seed] = exc
    return out


def _restart_run(cfg: dict, cell: dict, seed: int, bundle: dict, sched, desc: dict):
    """One seed's restart run under its cell's schedule ``sched``, which
    ``_cell_schedule`` describes as ``desc``: its (record, trace rows), or
    the exception that ended it.

    Each stage is a ``(d,)`` run (a batch of one row of the solver's loop),
    and the run's trace rows are its stages' rows in order. An auto plan is
    sized within ``T_max`` steps by ``plan_from_params``, and an explicit one
    fits in them by ``resolve_config``, so every stage runs within the
    horizon ``_cell_schedule`` validated. The record's schedule names the
    plan."""
    run_cfg, name = cfg["run"], cell["algorithm"]["name"]
    H, psi, psi_star = bundle["H"], bundle["psi"], bundle["psi_star"]
    bregman_fn = bregman_to(H, bundle["x_opt"])
    try:
        if run_cfg["restart"] == "auto":
            V0 = bregman_fn(bundle["x1"])
            plan = plan_from_params(bundle["params"], name, max(V0, 1e-12),
                                    run_cfg["epsilon"] * bundle["gap0"], sched,
                                    int(run_cfg["T_max"]))
        else:
            plan = RestartPlan(**run_cfg["restart"])
        _, traces = restart(
            name, bundle["oracle"], H, sched, bundle["x1"], plan, rng=_philox((seed, 7)),
            gap_fn=lambda x: psi(x) - psi_star, bregman_fn=bregman_fn,
        )
        desc = dict(desc, restart_plan={"n": plan.n, "K": plan.K, "T": plan.T})
        # certificates are per-stage statements: a chain gets none
        return _run_outcome(cell, seed, bundle, traces, run_cfg["epsilon"], "n/a", desc)
    except (NumericalError, ParameterError) as exc:
        return exc


def _run_outcome(cell, seed, bundle, traces, epsilon, cert_status, sched_desc):
    """(per-run record, trace rows for the CSV) of one finished run, whose
    ``traces`` are its stages' traces in order: one, unless it is a restart
    chain."""
    # the acsa baseline records no Bregman series
    rows = np.concatenate([np.column_stack([
        tr.psi_gap,
        tr.bregman_to_opt if tr.bregman_to_opt is not None else np.full(tr.T, np.nan),
        tr.alphas, tr.gammas]) for tr in traces])
    rows = np.column_stack([np.arange(1, len(rows) + 1, dtype=float), rows])
    gap0 = bundle["gap0"]
    rel = rows[:, 1] / gap0
    hits = np.nonzero(rel <= epsilon * (1.0 + 1e-12))[0]
    iterations = int(hits[0]) + 1 if hits.size else None
    record = {
        "cell": cell["label"],
        "seed": seed,
        "iterations_to_target": iterations,
        "final_relative_gap": float(rel[-1]),
        "gap0": float(gap0),
        "psi_star": float(bundle["psi_star"]),
        "steps_run": len(rows),
        "certificate": cert_status,
        "schedule": sched_desc,
    }
    return record, rows


def _job(args):
    """The cells of one grid point, every seed of each: per cell, a (per-run
    record, trace rows for the CSV) pair per seed, the rows None where the
    run errored.

    Each seed's bundle is built once and serves every cell. The runs of one
    solver's cells are the rows of one batched solver call, each on its own
    random stream and cell schedule, so every row has the bits of its run
    alone; restart runs, whose plans differ per seed, go one seed at a time.
    A seed whose set-up fails, a cell whose schedule fails, or a row that
    goes non-finite gets its own error record and the other runs go on.
    """
    cfg, cells, seeds = args
    outcomes, bundles = {}, {}
    for seed in seeds:
        try:
            bundles[seed] = _prepare_cell(cfg, cells[0], seed)
        except (NumericalError, ParameterError) as exc:
            outcomes.update({(cell["label"], seed): exc for cell in cells})
    for name in dict.fromkeys(cell["algorithm"]["name"] for cell in cells) if bundles else ():
        batch = [cell for cell in cells if cell["algorithm"]["name"] == name]
        try:
            outcomes.update(_run_group(cfg, batch, bundles))
        except (NumericalError, ParameterError) as exc:
            outcomes.update({(cell["label"], seed): exc for cell in batch for seed in bundles})

    def outcome(cell, seed):
        got = outcomes[cell["label"], seed]
        if not isinstance(got, Exception):
            return got
        # a diverged run, or one whose cell the parameters rule out (say, a
        # restart plan on a schedule whose bound is undefined), is recorded
        # against its cell; the grid keeps going
        return {"cell": cell["label"], "seed": seed, "error": str(got),
                "iterations_to_target": None, "certificate": "n/a", "schedule": None}, None

    return [[outcome(cell, seed) for seed in seeds] for cell in cells]


def _cell_summary(cell: dict, seeds: list, records: list, T_max: int) -> dict:
    """The ``summary.json`` entry of ``cell`` from its runs' records, one
    per seed of ``seeds``."""
    its = [r["iterations_to_target"] for r in records]
    # an errored run has no count to censor, so only completed runs count
    completed = [r["iterations_to_target"] for r in records if "error" not in r]
    censored = [float(i) if i is not None else float(T_max + CENSOR_MARGIN) for i in completed]
    stats = dict.fromkeys(("median_iterations", "q1_iterations", "q3_iterations", "hit_rate"))
    if completed:
        stats = {
            "median_iterations": float(np.median(censored)),
            "q1_iterations": float(np.percentile(censored, 25)),
            "q3_iterations": float(np.percentile(censored, 75)),
            "hit_rate": float(np.mean([i is not None for i in completed])),
        }
    violations = sum(1 for r in records if r["certificate"].startswith("violated"))
    checked = sum(1 for r in records if r["certificate"] != "n/a")
    errors = {str(r["seed"]): r["error"] for r in records if "error" in r}
    schedule = next((r["schedule"] for r in records if r["schedule"] is not None), None)
    return {
        "cell": cell["label"],
        "d": cell["d"],
        "L_multiplier": cell["L_multiplier"],
        "algorithm": cell["algorithm"]["label"],
        "seeds": seeds,
        "iterations": its,
        **stats,
        "schedule": schedule,
        "certificates": {"checked": checked, "violations": violations},
        "failed_runs": errors,
    }


def run_experiment(cfg: dict, out_dir=None, workers: int = 1) -> dict:
    """Run the full grid. As each grid point's job returns, in grid order,
    write its runs' trace CSVs and plotdata lines; then summary.json, and
    manifest.json last."""
    cfg = resolve_config(cfg)
    seeds = cfg["run"]["seeds"]
    out = Path(out_dir if out_dir is not None else cfg["output"]["dir"])
    out.mkdir(parents=True, exist_ok=True)
    write_traces = bool(cfg["output"]["traces"])
    write_plot = bool(cfg["output"]["plotdata"])

    # a job is a grid point; its cells are a run of the grid's cells
    jobs = [(cfg, group, seeds) for group in _groups(build_cells(cfg))]
    files, cell_summaries = {}, []  # the manifest's hashes, each of the bytes as written
    with contextlib.ExitStack() as stack:
        done = map(_job, jobs)
        if workers > 1:
            pool = concurrent.futures.ProcessPoolExecutor(max_workers=workers)
            done = stack.enter_context(pool).map(_job, jobs, chunksize=1)
        if write_plot:
            write_plot_lines, plot_digest = stack.enter_context(_atomic_file(out / "plotdata.csv"))
            write_plot_lines(emit_plotdata(()))  # the header alone
        for (_, group, _), group_results in zip(jobs, done):
            for cell, cell_results in zip(group, group_results):
                cell_summaries.append(_cell_summary(
                    cell, seeds, [record for record, _ in cell_results], cfg["run"]["T_max"]))
                for seed, (record, rows) in zip(seeds, cell_results):
                    if rows is None:
                        continue
                    if write_traces:
                        name = f"trace-{cell['label']}-{seed}.csv"
                        files[name] = _write_trace_csv(out / name, rows)
                    if write_plot:
                        rel = rows[:, 1] / record["gap0"]
                        write_plot_lines(_plot_lines(
                            (cell["label"], cell["algorithm"]["label"], seed, int(t),
                             math.log10(max(r, 1e-300)))
                            for t, r in zip(rows[:, 0].tolist(), rel.tolist())))
    if write_plot:
        files["plotdata.csv"] = plot_digest.hexdigest()
    summary = {
        "version": __version__,
        "config": cfg,
        "cells": cell_summaries,
    }
    files["summary.json"] = _write_text_atomic(out / "summary.json", _stable_json(summary))

    # the one block of any artifact that differs between machines; uname,
    # not platform.platform(), which scans the interpreter binary for libc
    uname = platform.uname()
    environment = {"python": platform.python_version(), "numpy": np.__version__,
                   "platform": f"{uname.system}-{uname.release}-{uname.machine}"}
    manifest = {"version": __version__, "config": cfg, "files": files,
                "environment": environment}
    # last, so that every file it hashes is already in place
    _write_text_atomic(out / "manifest.json", _stable_json(manifest))
    return summary


@contextlib.contextmanager
def _atomic_file(path: Path):
    """Yield ``(write, digest)``: ``write(text)`` appends ``text`` as UTF-8
    bytes to a ``.tmp`` sibling of ``path``, and ``digest`` is the sha256 of
    every byte written. The sibling replaces ``path`` whole when the block
    ends, or is unlinked if it raises, so a reader never sees a half-written
    file and a failed write leaves no ``.tmp`` behind."""
    tmp = path.with_name(path.name + ".tmp")
    digest = hashlib.sha256()
    try:
        with tmp.open("wb") as fh:
            def write(text: str):
                data = text.encode("utf-8")
                digest.update(data)
                fh.write(data)

            yield write, digest
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
    tmp.replace(path)


def _write_text_atomic(path: Path, text: str) -> str:
    """Write ``text`` to ``path`` through ``_atomic_file``, line endings as
    given; returns the sha256 of the bytes written."""
    with _atomic_file(path) as (write, digest):
        write(text)
    return digest.hexdigest()


_TRACE_HEADER = "t,psi_gap,bregman_to_opt,alpha_t,gamma_t\r\n"
# csv.writer's bytes for these rows: no value needs quoting, "\r\n" ends a line
_TRACE_ROW = "%d,%.10e,%.10e,%.10e,%.10e\r\n"


def _write_trace_csv(path: Path, rows: np.ndarray) -> str:
    text = _TRACE_ROW * len(rows) % tuple(rows.ravel().tolist())
    return _write_text_atomic(path, _TRACE_HEADER + text)


def _stable_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


_REAL = (int, float)
_KIND_NAMES = {_REAL: "a number", str: "a string", list: "a list", dict: "an object"}


def _read(block, key: str, where: str, kind=object):
    """``block[key]``, ``block`` being ``where`` in a summary; a ConfigError
    naming ``key`` if ``block`` is not an object that holds it, or if its
    value is not of ``kind`` (``_REAL``: a number, not a bool)."""
    if not isinstance(block, dict) or key not in block:
        raise ConfigError(f"emit_table: {where} has no key {key!r}, so is no grid summary")
    value = block[key]
    if not isinstance(value, kind) or (kind is _REAL and isinstance(value, bool)):
        raise ConfigError(f"emit_table: {where}'s {key!r} must be {_KIND_NAMES[kind]}, "
                          f"got {value!r}")
    return value


def emit_table(summary: dict):
    """Median-iteration matrix (instance axis x algorithm): aligned text + CSV.

    The instance axis is whichever of d / L_multiplier varies; cells must
    form a full factorial grid over one axis or the emitter refuses. A cell
    whose median run missed the target reads ``>T_max``; one whose runs all
    errored reads ``err``. A summary that lacks a key the table reads, or
    holds a value of the wrong type there, is a ConfigError naming the key.
    """
    cells = _read(summary, "cells", "the summary", list)
    for i, c in enumerate(cells):
        for key, kind in (("d", _REAL), ("L_multiplier", _REAL), ("algorithm", str),
                          ("seeds", list), ("failed_runs", dict)):
            _read(c, key, f"cells[{i}]", kind)
        # a cell whose runs all errored has no median, and its entry reads none
        _read(c, "median_iterations", f"cells[{i}]",
              object if len(c["failed_runs"]) == len(c["seeds"]) else _REAL)
    T_max = _read(_read(_read(summary, "config", "the summary"), "run", "config"), "T_max",
                  "config.run", _REAL)
    ds = sorted({c["d"] for c in cells})
    mults = sorted({c["L_multiplier"] for c in cells})
    algs = []
    for c in cells:
        if c["algorithm"] not in algs:
            algs.append(c["algorithm"])
    if len(ds) > 1 and len(mults) > 1:
        raise ConfigError("emit_table: cells vary along both d and L_multiplier")
    axis, values = ("d", ds) if len(mults) == 1 else ("L_multiplier", mults)
    lookup = {(c[axis], c["algorithm"]): c for c in cells}
    if len(lookup) != len(values) * len(algs):
        raise ConfigError("emit_table: cells do not form a full grid")

    def fmt(cell):
        if len(cell["failed_runs"]) == len(cell["seeds"]):
            return "err"  # every run errored: nothing to censor
        med = cell["median_iterations"]
        return f">{T_max}" if med > T_max else f"{med:.0f}"

    header = ["iterations_required"] + algs
    rows = []
    for v in values:
        label = f"{axis}={v:g}"
        rows.append([label] + [fmt(lookup[(v, a)]) for a in algs])

    widths = [max(len(str(r[i])) for r in [header] + rows) for i in range(len(header))]
    text_lines = [
        "  ".join(str(x).rjust(w) for x, w in zip(r, widths)) for r in [header] + rows
    ]
    buf = io.StringIO()
    w = csv.writer(buf)
    w.writerow(header)
    for r in rows:
        w.writerow(r)
    return "\n".join(text_lines) + "\n", buf.getvalue()


_PLOT_HEADER = ["cell", "algorithm", "seed", "t", "log10_rel_gap"]
# csv.writer's bytes for a plotdata row once its two labels are quoted as
# csv.writer quotes them; no number needs quoting
_PLOT_ROW = "%s,%s,%d,%d,%.17g\r\n"


@functools.lru_cache(maxsize=1024)
def _csv_field(text: str) -> str:
    """``text`` as csv.writer writes it inside a row of several fields."""
    buf = io.StringIO()
    csv.writer(buf).writerow([text, ""])
    return buf.getvalue()[:-len(",\r\n")]


def _plot_lines(rows) -> str:
    """The plotdata lines of ``rows``, (cell, algorithm, seed, t, value)
    tuples, as csv.writer writes them."""
    flat = [x for cell, alg, seed, t, val in rows
            for x in (_csv_field(cell), _csv_field(alg), seed, t, val)]
    return _PLOT_ROW * (len(flat) // 5) % tuple(flat)


def emit_plotdata(rows) -> str:
    """``plotdata.csv`` of ``rows``: its header, then ``_plot_lines(rows)``,
    the formatter ``run_experiment`` streams each run's lines through."""
    return ",".join(_PLOT_HEADER) + "\r\n" + _plot_lines(rows)


def parse_plotdata(text: str):
    rows = []
    reader = csv.reader(io.StringIO(text))
    header = next(reader)
    if header != _PLOT_HEADER:
        raise ConfigError(f"unexpected plotdata header {header}")
    for cell, alg, seed, t, val in reader:
        rows.append((cell, alg, int(seed), int(t), float(val)))
    return rows


def _load_config(path, what: str = "config") -> dict:
    """The JSON object in the file ``path``; a missing file, malformed JSON
    or JSON that is not an object is a ConfigError naming ``what``."""
    try:
        raw = json.loads(Path(path).read_text(encoding="utf-8"))
    except FileNotFoundError:
        raise ConfigError(f"{what} file not found: {path}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{what} is not valid JSON: {exc}") from None
    if not isinstance(raw, dict):
        raise ConfigError(f"{what} must be a JSON object, got {type(raw).__name__}")
    return raw


def _subcommand_config(args, what: str, defaults: dict, reals: tuple, counts: tuple) -> dict:
    """The config of a ``lowerbound`` or ``concentration`` run: ``defaults``
    updated from the file, its seed overridden by ``--seed``, every key
    known and type-checked by ``_check_keys``."""
    raw = _load_config(args.config)
    unknown = set(raw) - set(defaults)
    if unknown:
        raise ConfigError(f"unknown {what} keys: {sorted(unknown)}")
    cfg = dict(defaults)
    cfg.update(raw)
    if args.seed is not None:
        cfg["seed"] = args.seed
    _check_keys(cfg, reals, counts)
    return cfg


def _write_out(out, files: dict):
    """Write each ``{name: text}`` of ``files`` into the directory ``out``
    of a subcommand's ``--out``, if one was given."""
    if out:
        out = Path(out)
        out.mkdir(parents=True, exist_ok=True)
        for name, text in files.items():
            _write_text_atomic(out / name, text)


def _write_payload(args, name: str, payload: dict):
    """Print ``payload`` and write it as ``name`` into ``--out``."""
    text = _stable_json(payload)
    sys.stdout.write(text)
    _write_out(args.out, {name: text})


def _cmd_run(args) -> int:
    cfg = _load_config(args.config)
    if args.seed is not None:
        run = cfg.setdefault("run", {})
        seeds = run.get("seeds", {})
        # without --seeds-count the config's count (or the default) stays and
        # only the base moves; seeds of another type are left for
        # resolve_config to reject
        if args.seeds_count is not None:
            run["seeds"] = {"count": args.seeds_count, "base": args.seed}
        elif isinstance(seeds, list):
            run["seeds"] = {"count": len(seeds), "base": args.seed}
        elif isinstance(seeds, dict):
            run["seeds"] = dict(seeds, base=args.seed)
    summary = run_experiment(cfg, out_dir=args.out, workers=args.workers)
    text, _ = emit_table(summary)
    sys.stdout.write(text)
    return 0


def _cmd_validate(args) -> int:
    cfg = resolve_config(_load_config(args.config))
    for group in _groups(build_cells(cfg)):
        scheduled = [cell for cell in group if cell["algorithm"]["name"] != "acsa"]
        if scheduled:
            params = _prepare_cell(cfg, group[0], cfg["run"]["seeds"][0])["params"]
            for cell in scheduled:
                # a validated schedule that cannot be made valid is a NumericalError
                _cell_schedule(cfg, cell, params)
    sys.stdout.write(_stable_json(cfg))
    return 0


def _cmd_table(args) -> int:
    path = Path(args.summary)
    if path.is_dir():
        path = path / "summary.json"
    text, csv_text = emit_table(_load_config(path, "summary"))
    sys.stdout.write(text)
    _write_out(args.out, {"table.txt": text, "table.csv": csv_text})
    return 0


def _cmd_lowerbound(args) -> int:
    cfg = _subcommand_config(
        args, "lowerbound",
        {"solver": "acsmd", "mu": 1.0, "q": 2.0, "sigma": 1.0,
         "epsilon": 0.05, "gamma": 0.5, "trials": 400, "seed": 0},
        ("mu", "q", "sigma", "epsilon", "gamma"), ("trials",))
    report = lower_bound_experiment(
        cfg["solver"], cfg["mu"], cfg["q"], cfg["sigma"],
        cfg["epsilon"], cfg["gamma"], cfg["trials"], seed=cfg["seed"],
    )
    payload = {k: getattr(report, k) for k in (
        "empirical_failure_rate", "T_bound", "theory_rate", "threshold", "ok",
        "allzero_rate", "allzero_expected", "activation", "gradient_scale", "trials",
    )}
    _write_payload(args, "lowerbound.json", payload)
    return 0


def _cmd_concentration(args) -> int:
    cfg = _subcommand_config(
        args, "concentration",
        {"noise": "bounded_sphere", "weight_degree": 0, "T": 100,
         "trials": 100000, "sigma": 1.0, "R": 1.0, "dim": 4, "q": 2.0, "seed": 0},
        ("weight_degree", "sigma", "R", "q"), ("T", "trials", "dim"))
    t = np.arange(1, cfg["T"] + 1, dtype=float)
    with np.errstate(over="ignore"):  # concentration_check refuses what overflows
        weights = t ** cfg["weight_degree"]
    report = concentration_check(
        cfg["noise"], weights, cfg["trials"], seed=cfg["seed"],
        sigma=cfg["sigma"], R=cfg["R"], dim=cfg["dim"], q=cfg["q"],
    )
    payload = {
        "tau": report.tau.tolist(),
        "empirical": report.empirical.tolist(),
        "bound": report.bound.tolist(),
        "ok": report.ok,
        "mgf_estimate": report.mgf_estimate,
        "sigma_R": report.sigma_R,
    }
    _write_payload(args, "concentration.json", payload)
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="ccmin",
        description="Benchmark harness for composite stochastic mirror-descent solvers",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run an experiment grid from a JSON config")
    p_run.add_argument("config")
    p_run.add_argument("--out", default=None)
    p_run.add_argument("--seed", type=int, default=None)
    p_run.add_argument("--seeds-count", type=int, default=None,
                       help="seeds to run from --seed on (default: the config's count)")
    p_run.add_argument("--workers", type=int, default=1)
    p_run.set_defaults(func=_cmd_run)

    p_val = sub.add_parser("validate", help="resolve and validate a config without running")
    p_val.add_argument("config")
    p_val.set_defaults(func=_cmd_validate)

    p_tab = sub.add_parser("table", help="format the median-iteration table from a summary")
    p_tab.add_argument("summary")
    p_tab.add_argument("--out", default=None)
    p_tab.set_defaults(func=_cmd_table)

    p_lb = sub.add_parser("lowerbound", help="failure-probability experiment vs the hidden-sign oracle")
    p_lb.add_argument("config")
    p_lb.add_argument("--seed", type=int, default=None)
    p_lb.add_argument("--out", default=None)
    p_lb.set_defaults(func=_cmd_lowerbound)

    p_cc = sub.add_parser("concentration", help="Monte Carlo martingale tail check")
    p_cc.add_argument("config")
    p_cc.add_argument("--seed", type=int, default=None)
    p_cc.add_argument("--out", default=None)
    p_cc.set_defaults(func=_cmd_concentration)

    args = parser.parse_args(argv)
    if args.command == "run" and args.seeds_count is not None and args.seed is None:
        p_run.error("--seeds-count counts seeds from --seed on, so needs --seed")
    try:
        return args.func(args)
    except (ConfigError, ParameterError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
