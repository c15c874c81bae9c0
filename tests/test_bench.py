import copy
import csv
import hashlib
import io
import json
import os
import platform
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import ccmin
import ccmin.bench as bench
import ccmin.solvers as solvers
from ccmin import exact_optimum, lower_bound_experiment
from ccmin.bench import (
    DEFAULT_CONFIG,
    build_cells,
    emit_plotdata,
    emit_table,
    main,
    parse_plotdata,
    resolve_config,
    run_experiment,
)
from ccmin.errors import ConfigError

TINY = {
    "instance": {"d": [3]},
    "solver": {"algorithms": ["nacsmd", "acsmd1"]},
    "run": {"epsilon": 0.05, "T_max": 60, "seeds": [0, 1]},
    "output": {"traces": True, "plotdata": True},
}

# a schedule whose growth inequality fails by rounding at t = 16286
FAR = {
    "instance": {"d": [3]},
    "solver": {"schedule_mode": "validated",
               "algorithms": [{"name": "nacsmd", "m": 2.0, "offset": 120000000.5,
                               "label": "far"}]},
    "run": {"T_max": 50, "seeds": [0]},
}


class TestConfig:
    def test_defaults_and_overrides(self):
        cfg = resolve_config({"instance": {"d": [10], "sigma_b": 0.2}})
        assert cfg["instance"]["q"] == DEFAULT_CONFIG["instance"]["q"]
        assert "instance.sigma_b" in cfg["overrides"]
        assert "instance.d" in cfg["overrides"]
        assert "instance.q" not in cfg["overrides"]

    def test_unknown_keys_rejected(self):
        with pytest.raises(ConfigError, match="unknown config keys"):
            resolve_config({"instance": {"dd": 3}})

    def test_empty_seeds_rejected(self):
        with pytest.raises(ConfigError, match="seeds"):
            resolve_config({"run": {"seeds": []}})

    def test_empty_algorithms_rejected(self):
        with pytest.raises(ConfigError, match="algorithms"):
            resolve_config({"solver": {"algorithms": []}})

    def test_bad_kind_rejected(self):
        with pytest.raises(ConfigError, match="kind"):
            resolve_config({"instance": {"kind": "mnist"}})

    def test_bad_schedule_mode_rejected(self):
        with pytest.raises(ConfigError, match="schedule_mode"):
            resolve_config({"solver": {"schedule_mode": "yolo"}})

    def test_defaults_are_not_aliased(self):
        before = copy.deepcopy(DEFAULT_CONFIG)
        resolve_config({})
        assert DEFAULT_CONFIG == before
        assert resolve_config({"instance": {"d": 50}})["overrides"] == []

    @pytest.mark.parametrize("d", [3.7, 0.5, 0, -2, 20.0, True])
    def test_dimension_must_be_a_positive_integer(self, d):
        # once truncated to 3 (3.7) or refused as "must be positive" (0.5)
        with pytest.raises(ConfigError, match=r"instance\.d must be an integer >= 1, got "):
            resolve_config({"instance": {"d": [20, d]}})

    def test_safety_scale_is_only_echoed(self):
        entry = {"name": "nacsmd", "m": 0, "offset": "condition_root", "label": "n0",
                 "safety_scale": 1}
        cfg = resolve_config({"solver": {"algorithms": [entry], "safety_scale": 1.0}})
        assert cfg["solver"]["algorithms"] == [entry]
        for scale in (1.0005, 1.5):
            with pytest.raises(ConfigError, match=r"^solver\.safety_scale must be 1 "):
                resolve_config({"solver": {"safety_scale": scale}})
            bad = [dict(entry, safety_scale=scale)]
            with pytest.raises(ConfigError, match=r"^solver\.algorithms\[0\]\.safety_scale "):
                resolve_config({"solver": {"algorithms": bad}})

    @pytest.mark.parametrize("kind", ["ridge", "custom-deterministic"])
    def test_fixed_start_points_have_every_d_entries(self, kind):
        # a mismatch was found per cell at run time, after the cells before it ran
        fixed = {"kind": "fixed", "values": [1.0, 2.0, 3.0]}
        with pytest.raises(ConfigError, match=r"^instance\.x1\.values has 3 entries but "
                                              r"instance\.d = 4$"):
            resolve_config({"instance": {"kind": kind, "d": [3, 4], "x1": fixed}})
        with pytest.raises(ConfigError, match=r"^instance\.x_star\.values has 3 entries but "
                                              r"instance\.d = 2$"):
            resolve_config({"instance": {"kind": kind, "d": [2, 3], "x_star": fixed}})
        resolve_config({"instance": {"kind": kind, "d": [3], "x1": fixed, "x_star": fixed}})
        # a bernoulli instance reads neither block
        resolve_config({"instance": {"kind": "bernoulli", "d": [4], "x1": fixed},
                        "solver": {"algorithms": ["nacsmd"]}})

    def test_grid_expansion(self):
        cfg = resolve_config({"instance": {"d": [2, 3], "L_multiplier": [1, 5]}})
        cells = build_cells(cfg)
        assert len(cells) == 2 * 2 * 5
        labels = {c["label"] for c in cells}
        assert len(labels) == len(cells)


def child_env(**extra):
    """The environment, plus ``extra``, of a child interpreter that imports
    the ccmin under test, wherever pytest found it."""
    paths = [str(Path(bench.__file__).parents[1]), os.environ.get("PYTHONPATH")]
    return dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in paths if p), **extra)


class HalfWritten:
    """A file whose write stores half the text, then fails."""

    def __init__(self, fh):
        self.fh = fh

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.fh.close()

    def write(self, text):
        self.fh.write(text[: len(text) // 2])
        raise OSError("disk full")


class TestRunExperiment:
    def test_outputs_and_determinism(self, tmp_path):
        out1 = tmp_path / "a"
        out2 = tmp_path / "b"
        s1 = run_experiment(TINY, out_dir=out1)
        s2 = run_experiment(TINY, out_dir=out2)
        names = sorted(p.name for p in out1.iterdir())
        assert "summary.json" in names and "manifest.json" in names
        assert any(n.startswith("trace-") for n in names)
        for name in names:
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), name
        assert s1 == s2
        env = json.loads((out1 / "manifest.json").read_text())["environment"]
        assert env["python"] == platform.python_version()
        assert env["numpy"] == np.__version__
        assert env["platform"].startswith(platform.system())

    def test_trace_csv_schema(self, tmp_path):
        run_experiment(TINY, out_dir=tmp_path)
        trace = next(p for p in tmp_path.iterdir() if p.name.startswith("trace-"))
        header = trace.read_text().splitlines()[0]
        assert header == "t,psi_gap,bregman_to_opt,alpha_t,gamma_t"
        assert not [p.name for p in tmp_path.iterdir() if p.name.endswith(".tmp")]

    def test_trace_csv_never_half_written(self, tmp_path, monkeypatch):
        real_open = Path.open
        monkeypatch.setattr(Path, "open", lambda self, *a, **k: HalfWritten(real_open(self, *a, **k)))
        path = tmp_path / "trace-x-0.csv"
        with pytest.raises(OSError, match="disk full"):
            bench._write_trace_csv(path, np.ones((5, 5)))
        assert list(tmp_path.iterdir()) == []

    def test_summary_and_plotdata_never_half_written(self, tmp_path, monkeypatch):
        # a lone surrogate cannot be encoded, so the first plot line fails
        monkeypatch.setattr(bench, "_csv_field", lambda text: "\ud800")
        with pytest.raises(UnicodeEncodeError):
            run_experiment(TINY, out_dir=tmp_path)
        names = {p.name for p in tmp_path.iterdir()}
        # summary.json follows every trace and plot line, so it is not written
        assert "trace-ridge-d3-Lx1-nacsmd-0.csv" in names
        assert not names & {"summary.json", "plotdata.csv", "manifest.json"}
        assert not [n for n in names if n.endswith(".tmp")]

    def test_a_trace_failing_mid_stream_leaves_no_plotdata(self, tmp_path, monkeypatch):
        # the second run's trace CSV fails half-way, after the first run's
        # trace and plot lines are written
        real_open = Path.open

        def open_(self, *args, **kwargs):
            fh = real_open(self, *args, **kwargs)
            return HalfWritten(fh) if self.name.endswith("-nacsmd-1.csv.tmp") else fh

        monkeypatch.setattr(Path, "open", open_)
        with pytest.raises(OSError, match="disk full"):
            run_experiment(TINY, out_dir=tmp_path)
        names = {p.name for p in tmp_path.iterdir()}
        assert "trace-ridge-d3-Lx1-nacsmd-0.csv" in names
        assert not names & {"summary.json", "plotdata.csv", "manifest.json"}
        assert not [n for n in names if n.endswith(".tmp")]

    def test_quoted_labels_stream_the_emitter_bytes(self, tmp_path, monkeypatch):
        cfg = {"instance": {"d": [3]},
               "solver": {"algorithms": [{"name": "nacsmd", "label": 'a,"b"'},
                                         {"name": "acsmd", "m": 1.0, "label": "ünï"}]},
               "run": {"epsilon": 0.05, "T_max": 60, "seeds": [0, 1]}}

        def no_read_back(self, *args, **kwargs):
            raise AssertionError(f"{self.name} read back")

        # each manifest hash is of the bytes written: no file is read back
        with monkeypatch.context() as m:
            m.setattr(Path, "read_bytes", no_read_back)
            m.setattr(Path, "read_text", no_read_back)
            run_experiment(cfg, out_dir=tmp_path)
        # rows rebuilt from the trace CSVs, in grid order: the steps of each
        # run and log10 of its gap over gap0 (10 digits in the trace)
        resolved = resolve_config(cfg)
        plot = (tmp_path / "plotdata.csv").read_bytes().decode("utf-8")
        values = [row[4] for row in parse_plotdata(plot)]
        rows = []
        for cell in build_cells(resolved):
            for seed in resolved["run"]["seeds"]:
                gap0 = bench._prepare_cell(resolved, cell, seed)["gap0"]
                trace = (tmp_path / f"trace-{cell['label']}-{seed}.csv").read_bytes()
                for line in trace.decode("utf-8").splitlines()[1:]:
                    t, gap = line.split(",")[:2]
                    value = values[len(rows)]
                    assert value == pytest.approx(np.log10(float(gap) / gap0), abs=1e-9)
                    rows.append((cell["label"], cell["algorithm"]["label"], seed, int(t), value))
        assert len(rows) == len(values) > 0
        assert plot == emit_plotdata(rows)
        assert {'a,"b"', "ünï"} == {alg for _, alg, *_ in rows}
        files = json.loads((tmp_path / "manifest.json").read_text(encoding="utf-8"))["files"]
        assert len(files) == len(list(tmp_path.iterdir())) - 1
        for name, digest in files.items():
            assert hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() == digest, name

    def test_artifacts_are_utf8_under_an_ascii_locale(self, tmp_path):
        # the files' encoding is UTF-8, not the locale's (file names aside)
        cfg = {"instance": {"d": [3]},
               "solver": {"algorithms": [{"name": "nacsmd", "label": "ünï"}]},
               "run": {"T_max": 20, "seeds": [0]}, "output": {"traces": False}}
        path = tmp_path / "config.json"
        path.write_text(json.dumps(cfg))
        env = child_env(LC_ALL="C", PYTHONUTF8="0", PYTHONCOERCECLOCALE="0",
                        PYTHONIOENCODING="utf-8")
        proc = subprocess.run([sys.executable, "-m", "ccmin.bench", "run", str(path),
                               "--out", str(tmp_path / "ascii")],
                              capture_output=True, text=True, env=env)
        assert proc.returncode == 0, proc.stderr
        run_experiment(cfg, out_dir=tmp_path / "here")
        for name in ("plotdata.csv", "summary.json"):
            here = (tmp_path / "here" / name).read_bytes()
            assert (tmp_path / "ascii" / name).read_bytes() == here, name
        plot = (tmp_path / "ascii" / "plotdata.csv").read_bytes()
        assert "\r\nridge-d3-Lx1-ünï,ünï,0,1,".encode("utf-8") in plot

    def test_a_label_the_file_names_cannot_encode_is_refused(self, tmp_path):
        # with traces on, the label names trace files: an ASCII file-system
        # encoding cannot hold it, so the config is refused before any run
        cfg = {"instance": {"d": [3]},
               "solver": {"algorithms": ["nacsmd", {"name": "nacsmd", "label": "ünï"}]},
               "run": {"T_max": 20, "seeds": [0]}}
        path = tmp_path / "config.json"
        path.write_text(json.dumps(cfg))
        env = child_env(LC_ALL="C", PYTHONUTF8="0", PYTHONCOERCECLOCALE="0",
                        PYTHONIOENCODING="utf-8")
        out = tmp_path / "out"
        for args in (["validate", str(path)], ["run", str(path), "--out", str(out)]):
            proc = subprocess.run([sys.executable, "-m", "ccmin.bench", *args],
                                  capture_output=True, text=True, env=env)
            assert proc.returncode == 2, proc.stderr
            assert "solver.algorithms[1].label 'ünï'" in proc.stderr
            assert proc.stdout == ""
        assert not out.exists()

    def test_emission_holds_one_run(self, tmp_path):
        # 40 runs of 1000 steps, 40,000 plot rows: the emitted text is held a
        # run at a time, so the peak is about the grid's trace arrays (1.6 MB)
        cfg = {"instance": {"d": [3]}, "solver": {"algorithms": ["nacsmd"]},
               "run": {"seeds": {"count": 40, "base": 0}, "T_max": 1000,
                       "stop_at_target": False, "certificates": False}}
        # a one-step grid first, so that lazy imports and power_uc_constant's
        # cached value are not counted
        run_experiment(dict(cfg, run={"seeds": [0], "T_max": 1}), out_dir=tmp_path / "warm")
        tracemalloc.start()
        try:
            run_experiment(cfg, out_dir=tmp_path / "grid")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(parse_plotdata((tmp_path / "grid" / "plotdata.csv").read_text())) == 40_000
        assert peak < 4e6, peak  # 13 MB while every plot row was kept

    def test_memory_holds_one_grid_point(self, tmp_path):
        # 8 grid points of 10 runs of 1000 steps: each grid point's runs are
        # written as its job returns, so its trace rows (0.4 MB) are held
        # and not the grid's (3.2 MB; a peak of 3.6 MB while they were)
        cfg = {"instance": {"d": list(range(3, 11))}, "solver": {"algorithms": ["nacsmd"]},
               "run": {"seeds": {"count": 10, "base": 0}, "T_max": 1000,
                       "stop_at_target": False, "certificates": False}}
        # a one-step grid first, so that lazy imports and power_uc_constant's
        # cached value are not counted
        run_experiment(dict(cfg, run={"seeds": [0], "T_max": 1}), out_dir=tmp_path / "warm")
        tracemalloc.start()
        try:
            summary = run_experiment(cfg, out_dir=tmp_path / "grid")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert all(cell["failed_runs"] == {} for cell in summary["cells"])
        assert len(list((tmp_path / "grid").glob("trace-*.csv"))) == 80
        assert peak < 2e6, peak

    def test_atomic_write_keeps_the_old_file(self, tmp_path):
        path = tmp_path / "summary.json"
        path.write_text("old\n")
        with pytest.raises(UnicodeEncodeError):
            bench._write_text_atomic(path, "new \ud800\n")
        assert path.read_text() == "old\n"
        assert [p.name for p in tmp_path.iterdir()] == ["summary.json"]
        bench._write_text_atomic(path, "new\r\n")
        assert path.read_bytes() == b"new\r\n"

    def test_summary_embeds_resolved_config_and_certificates(self, tmp_path):
        s = run_experiment(TINY, out_dir=tmp_path)
        assert s["config"]["instance"]["q"] == DEFAULT_CONFIG["instance"]["q"]
        assert s["config"]["overrides"]
        for cell in s["cells"]:
            assert "certificates" in cell
            assert cell["schedule"] is not None
            # printed-mode constant-alpha plain solver validates, so its runs
            # carry live certificate checks with zero violations
            if cell["algorithm"] == "nacsmd":
                assert cell["certificates"]["checked"] == 2
                assert cell["certificates"]["violations"] == 0

    def test_validated_mode_checks_everything(self, tmp_path):
        cfg = dict(TINY, solver={"algorithms": ["acsmd1"], "schedule_mode": "validated"})
        s = run_experiment(cfg, out_dir=tmp_path)
        cell = s["cells"][0]
        assert cell["schedule"]["valid"]
        assert cell["certificates"]["checked"] == 2
        assert cell["certificates"]["violations"] == 0

    def test_custom_deterministic_instance(self, tmp_path):
        cfg = {
            "instance": {"kind": "custom-deterministic", "d": [4]},
            "solver": {"algorithms": ["nacsmd"]},
            "run": {"epsilon": 0.01, "T_max": 400, "seeds": [0]},
            "output": {"traces": False, "plotdata": False},
        }
        s = run_experiment(cfg, out_dir=tmp_path)
        assert s["cells"][0]["hit_rate"] == 1.0

    def test_bernoulli_instance(self, tmp_path):
        cfg = {
            "instance": {"kind": "bernoulli", "mu": 1.0, "q": 2.0, "sigma": 1.0,
                         "target_accuracy": 0.05},
            "solver": {"algorithms": ["acsmd"]},
            "run": {"epsilon": 0.5, "T_max": 30, "seeds": [0, 1, 2]},
            "output": {"traces": False, "plotdata": False},
        }
        s = run_experiment(cfg, out_dir=tmp_path)
        assert s["cells"][0]["median_iterations"] > 0

    def test_restart_auto_mode(self, tmp_path):
        cfg = {
            "instance": {"kind": "custom-deterministic", "d": [4], "q": 2.0},
            "solver": {"algorithms": ["nacsmd"], "schedule_mode": "validated"},
            "run": {"epsilon": 0.001, "T_max": 40_000, "seeds": [0], "restart": "auto",
                    "stop_at_target": False},
            "output": {"traces": False, "plotdata": False},
        }
        s = run_experiment(cfg, out_dir=tmp_path)
        assert s["cells"][0]["hit_rate"] == 1.0

    def test_restart_auto_plan_longer_than_T_max_is_recorded(self, tmp_path):
        # the plan of test_restart_auto_mode needs 38574 steps
        cfg = {
            "instance": {"kind": "custom-deterministic", "d": [4], "q": 2.0},
            "solver": {"algorithms": ["nacsmd"], "schedule_mode": "validated"},
            "run": {"epsilon": 0.001, "T_max": 500, "seeds": [0], "restart": "auto",
                    "stop_at_target": False},
            "output": {"traces": False, "plotdata": False},
        }
        cell = run_experiment(cfg, out_dir=tmp_path)["cells"][0]
        assert cell["hit_rate"] is None
        assert cell["failed_runs"] == {"0": "plan_from_params: no plan of n=10 halving stages "
                                            "of K=3 steps and a final stage reaching "
                                            "epsilon=0.05630841141765061 fits in a horizon of "
                                            "500 steps"}

    def test_restart_plans_read_the_bound_within_T_max(self, tmp_path, monkeypatch):
        # these plans need millions of steps: the planner gives up at the
        # run's 300 instead of streaming the bound on to find them
        seen = []
        real = solvers._bound_term_arrays

        def recording(params, sched, target, t, A_prev=0.0):
            seen.append(int(np.max(t)))
            return real(params, sched, target, t, A_prev)

        monkeypatch.setattr(solvers, "_bound_term_arrays", recording)
        cfg = {"instance": {"d": [20], "q": 2.0}, "solver": {"schedule_mode": "validated"},
               "run": {"restart": "auto", "T_max": 300, "seeds": [0, 1]},
               "output": {"traces": False, "plotdata": False}}
        cells = run_experiment(cfg, out_dir=tmp_path)["cells"]
        assert seen and max(seen) <= 300
        assert [len(cell["failed_runs"]) for cell in cells] == [0, 2, 2, 2, 2]

    def test_schedule_valid_over_its_run_keeps_its_offset(self, tmp_path):
        # growth fails by rounding at t = 16286, far past the run's 50 steps
        cell = run_experiment(FAR, out_dir=tmp_path / "out")["cells"][0]
        assert cell["schedule"]["offset"] == 120000000.5
        assert cell["schedule"]["valid"] is True
        path = tmp_path / "config.json"
        path.write_text(json.dumps(FAR))
        assert main(["validate", str(path)]) == 0

    def test_no_schedule_is_scanned_past_its_run(self, tmp_path, monkeypatch):
        horizons = []
        real = solvers.validate_schedule

        def recording(sched, params, horizon):
            horizons.append(horizon)
            return real(sched, params, horizon)

        monkeypatch.setattr(solvers, "validate_schedule", recording)
        monkeypatch.setattr(bench, "validate_schedule", recording)
        for restart in (None, "auto"):
            cfg = {"instance": {"d": [4], "q": 2.0},
                   "solver": {"schedule_mode": "validated", "algorithms": ["nacsmd", "acsmd"]},
                   "run": {"epsilon": 0.5, "T_max": 50, "seeds": [0, 1], "restart": restart,
                           "stop_at_target": False},
                   "output": {"traces": False, "plotdata": False}}
            cells = run_experiment(cfg, out_dir=tmp_path / str(restart))["cells"]
            assert not any(cell["failed_runs"] for cell in cells)
            assert all(("restart_plan" in cell["schedule"]) == (restart == "auto")
                       for cell in cells)
        assert horizons and max(horizons) <= 50
        del horizons[:]
        report = lower_bound_experiment("acsmd", 1.0, 2.0, 1.0, 0.05, 0.5, trials=4)
        assert horizons and max(horizons) <= report.T_bound

    def test_no_schedule_is_scanned_twice_at_one_horizon(self, tmp_path, monkeypatch):
        # default_schedule returns only a schedule that passes at T_max, so a
        # validated cell is not scanned there again; a printed one is scanned once
        scans = []
        real = solvers.validate_schedule

        def recording(sched, params, horizon):
            scans.append(repr((sched, params, horizon)))
            return real(sched, params, horizon)

        monkeypatch.setattr(solvers, "validate_schedule", recording)
        monkeypatch.setattr(bench, "validate_schedule", recording)
        for mode in ("validated", "printed"):
            del scans[:]
            cfg = {"instance": {"d": [3, 5]},
                   "solver": {"schedule_mode": mode,
                              "algorithms": ["nacsmd", "acsmd1", "acsmd2"]},
                   "run": {"T_max": 60, "seeds": [0, 1], "stop_at_target": False},
                   "output": {"traces": False, "plotdata": False}}
            cells = run_experiment(cfg, out_dir=tmp_path / mode)["cells"]
            assert len(scans) == len(set(scans)), mode
            if mode == "printed":
                assert len(scans) == len(cells)
            else:
                assert all(cell["schedule"]["valid"] for cell in cells)
            for cell in cells:
                checked = 2 if cell["schedule"]["valid"] else 0
                assert cell["certificates"]["checked"] == checked

    def test_parallel_workers_match_serial(self, tmp_path):
        s1 = run_experiment(TINY, out_dir=tmp_path / "w1", workers=1)
        s2 = run_experiment(TINY, out_dir=tmp_path / "w2", workers=2)
        assert s1 == s2

    def test_run_failure_recorded_without_aborting(self, tmp_path, monkeypatch):
        import ccmin.bench as bench
        from ccmin.errors import NumericalError

        real = bench._run_group

        def flaky(cfg, cells, bundles):
            return {(label, seed): NumericalError("synthetic blow-up at t=3") if seed == 1
                    else outcome for (label, seed), outcome in real(cfg, cells, bundles).items()}

        monkeypatch.setattr(bench, "_run_group", flaky)
        s = run_experiment(dict(TINY, solver={"algorithms": ["nacsmd"]}),
                           out_dir=tmp_path)
        cell = s["cells"][0]
        assert cell["failed_runs"] == {"1": "synthetic blow-up at t=3"}
        assert cell["iterations"][0] is not None  # seed 0 still ran
        # the statistics cover the completed run only; the errored one is not
        # a censored T_max + 1
        assert cell["median_iterations"] == cell["iterations"][0]
        assert cell["q1_iterations"] == cell["q3_iterations"] == cell["iterations"][0]
        assert cell["hit_rate"] == 1.0

    def test_all_errored_cell_has_null_statistics(self, tmp_path, monkeypatch):
        from ccmin.errors import NumericalError

        def broken(cfg, cells, bundles):
            raise NumericalError("synthetic blow-up")

        monkeypatch.setattr(bench, "_run_group", broken)
        s = run_experiment(dict(TINY, solver={"algorithms": ["nacsmd"]}), out_dir=tmp_path)
        cell = s["cells"][0]
        assert [cell[k] for k in ("median_iterations", "q1_iterations", "q3_iterations",
                                  "hit_rate")] == [None] * 4
        assert emit_table(s)[1].splitlines()[1] == "d=3,err"

    def test_a_failing_solver_leaves_the_others_of_its_grid_point(self, tmp_path,
                                                                   monkeypatch):
        from ccmin.errors import NumericalError

        real = bench._run_group

        def broken_mirror_descent(cfg, cells, bundles):
            if cells[0]["algorithm"]["name"] != "acsa":
                raise NumericalError("synthetic blow-up")
            return real(cfg, cells, bundles)

        monkeypatch.setattr(bench, "_run_group", broken_mirror_descent)
        cfg = {"instance": {"d": [3, 4]}, "solver": {"algorithms": ["nacsmd", "acsa", "acsmd1"]},
               "run": {"epsilon": 0.05, "T_max": 60, "seeds": [0, 1, 2]}}
        s = run_experiment(cfg, out_dir=tmp_path)
        by_alg = {}
        for cell in s["cells"]:
            by_alg.setdefault(cell["algorithm"], []).append(cell)
        for cell in by_alg["acsa"]:
            assert cell["failed_runs"] == {}
            assert cell["median_iterations"] is not None
        # the nacsmd and acsmd cells of a grid point are one mirror-descent batch
        for cell in by_alg["nacsmd"] + by_alg["acsmd1"]:
            assert cell["failed_runs"] == {str(seed): "synthetic blow-up" for seed in (0, 1, 2)}
        traces = {p.name for p in tmp_path.glob("trace-*.csv")}
        assert len(traces) == 2 * 3 and all("acsa" in n for n in traces)

    def test_a_start_point_with_no_finite_gap_is_a_set_up_error(self, tmp_path, capsys):
        # psi(x1) overflows: gap0 = inf, against which acsa once "hit" its
        # target at t = 1 (inf <= eps inf) and was recorded as a miss
        cfg = {"instance": {"d": [3], "x1": {"kind": "constant", "value": 1e200}},
               "solver": {"algorithms": ["acsa", "nacsmd"]},
               "run": {"T_max": 50, "seeds": [0, 1]}}
        with np.errstate(over="ignore"):
            s = run_experiment(cfg, out_dir=tmp_path / "out")
            path = tmp_path / "config.json"
            path.write_text(json.dumps(cfg))
            assert main(["validate", str(path)]) == 3
        errors = [cell["failed_runs"] for cell in s["cells"]]
        assert errors[0] == errors[1] and sorted(errors[0]) == ["0", "1"]
        assert "is inf" in errors[0]["0"]
        assert not list((tmp_path / "out").glob("trace-*.csv"))
        assert capsys.readouterr().err.startswith("numerical failure:")

    def test_zero_target_vector_runs(self, tmp_path):
        # x_star = 0 gives the radius estimate 2||x_star||_q = 0; no
        # schedule, bound or certificate reads a radius, so its runs go on
        cfg = {"instance": {"d": [3], "x_star": {"kind": "uniform", "scale": 0.0}},
               "solver": {"algorithms": ["nacsmd", "acsa"]},
               "run": {"T_max": 40, "seeds": [0, 1]}}
        s = run_experiment(cfg, out_dir=tmp_path)
        assert [c["failed_runs"] for c in s["cells"]] == [{}, {}]

    def test_nonpositive_radius_is_refused_before_any_run(self, tmp_path):
        # every seed's instance would refuse it, so it is no run's error
        cfg = {"instance": {"d": [3], "R": -1}, "solver": {"algorithms": ["nacsmd"]},
               "run": {"T_max": 40, "seeds": [0]}}
        with pytest.raises(ConfigError, match=r"instance\.R must be null or > 0, got -1"):
            run_experiment(cfg, out_dir=tmp_path / "out")
        assert not (tmp_path / "out").exists()

    def test_parameter_error_recorded_without_aborting(self, tmp_path):
        # printed smooth-case acsmd1 breaks its step condition, so the auto
        # restart planner rejects it; the nacsmd cell must still complete
        cfg = {"instance": {"d": [3], "q": 2.0},
               "solver": {"algorithms": ["nacsmd", "acsmd1"]},
               "run": {"restart": "auto", "T_max": 400, "seeds": [0, 1]}}
        s = run_experiment(cfg, out_dir=tmp_path)
        nac, ac1 = s["cells"]
        assert nac["failed_runs"] == {}
        assert nac["iterations"] == [it for it in nac["iterations"] if it is not None]
        assert sorted(ac1["failed_runs"]) == ["0", "1"]
        assert "plan_from_params" in ac1["failed_runs"]["0"]
        assert (tmp_path / "manifest.json").exists()


@pytest.fixture
def optimum_calls(monkeypatch):
    """Counts the solves of exact_optimum."""
    calls = []

    def counted(instance, *args, **kwargs):
        calls.append(instance)
        return exact_optimum(instance, *args, **kwargs)

    monkeypatch.setattr(bench, "exact_optimum", counted)
    return calls


class TestOptimumMemo:
    QUIET = {"traces": False, "plotdata": False}

    def test_one_solve_per_instance(self, tmp_path, optimum_calls):
        cfg = {"instance": {"d": [2, 3]},
               "solver": {"algorithms": ["acsa", "nacsmd", "acsmd1"]},
               "run": {"T_max": 30, "seeds": [0, 1]}, "output": self.QUIET}
        run_experiment(cfg, out_dir=tmp_path)
        assert len(optimum_calls) == 4  # (d, seed) pairs, not 12 cells x seeds

    def test_deterministic_instance_gets_its_own_optimum(self, tmp_path, optimum_calls):
        base = {"instance": {"d": [3]}, "solver": {"algorithms": ["nacsmd"]},
                "run": {"T_max": 30, "seeds": [0, 1]}, "output": self.QUIET}
        det = dict(base, instance={"d": [3], "kind": "custom-deterministic"})
        run_experiment(base, out_dir=tmp_path / "ridge")
        run_experiment(det, out_dir=tmp_path / "det")
        assert [inst.sigma_b for inst in optimum_calls] == [0.1, 0.1, 0.0, 0.0]
        cfg = resolve_config(det)
        bundle = bench._prepare_cell(cfg, build_cells(cfg)[0], 0)
        assert bundle["psi_star"] == exact_optimum(optimum_calls[2])[1]
        assert [inst.sigma_b for inst in optimum_calls[4:]] == [0.0]  # its own solve

    def test_one_solve_per_instance_past_256_seeds(self, tmp_path, optimum_calls):
        # each seed's instance is built once for all the algorithms' cells
        cfg = {"instance": {"d": [2]}, "solver": {"algorithms": ["nacsmd", "acsa"]},
               "run": {"T_max": 5, "seeds": list(range(257))}, "output": self.QUIET}
        run_experiment(cfg, out_dir=tmp_path)
        assert len(optimum_calls) == 257


def counted_prepare(monkeypatch):
    """The (d, L_multiplier, seed) of each _prepare_cell call, in order."""
    calls, real = [], bench._prepare_cell

    def counted(cfg, cell, seed):
        calls.append((cell["d"], cell["L_multiplier"], seed))
        return real(cfg, cell, seed)

    monkeypatch.setattr(bench, "_prepare_cell", counted)
    return calls


class TestOneSetUpPerGridPoint:
    CFG = {"instance": {"d": [2, 3], "L_multiplier": [1.0, 2.0]},
           "solver": {"algorithms": ["acsa", "nacsmd", "acsmd1"]},
           "run": {"T_max": 30, "seeds": [0, 1]},
           "output": {"traces": False, "plotdata": False}}

    def test_a_grid_builds_each_instance_once_per_grid_point(self, tmp_path, monkeypatch):
        calls = counted_prepare(monkeypatch)
        summary = run_experiment(self.CFG, out_dir=tmp_path)
        # 2 d x 2 L_multiplier x 2 seeds, not once more for each of 3 algorithms
        assert sorted(calls) == sorted((d, m, s) for d in (2, 3) for m in (1.0, 2.0)
                                       for s in (0, 1))
        assert len(summary["cells"]) == 12
        assert all(cell["failed_runs"] == {} for cell in summary["cells"])

    def test_validate_builds_seed_0_once_per_grid_point(self, tmp_path, monkeypatch, capsys):
        calls = counted_prepare(monkeypatch)
        path = tmp_path / "config.json"
        path.write_text(json.dumps(self.CFG))
        assert main(["validate", str(path)]) == 0
        assert calls == [(d, m, 0) for d in (2, 3) for m in (1.0, 2.0)]


class TestEmitters:
    def test_single_summary_single_row(self, tmp_path):
        cfg = dict(TINY, solver={"algorithms": ["nacsmd"]})
        s = run_experiment(cfg, out_dir=tmp_path)
        text, csv_text = emit_table(s)
        assert len(text.strip().splitlines()) == 2
        assert csv_text.splitlines()[0] == "iterations_required,nacsmd"

    def test_table_matches_summary_medians(self, tmp_path):
        s = run_experiment(TINY, out_dir=tmp_path)
        _, csv_text = emit_table(s)
        rows = csv_text.strip().splitlines()[1:]
        med = {(c["d"], c["algorithm"]): c["median_iterations"] for c in s["cells"]}
        for row in rows:
            parts = row.split(",")
            d = int(parts[0].split("=")[1])
            for alg, val in zip(["nacsmd", "acsmd1"], parts[1:]):
                assert float(val.lstrip(">")) == pytest.approx(med[(d, alg)], abs=0.51)

    def test_mixed_axes_rejected(self, tmp_path):
        cfg = dict(TINY)
        cfg["instance"] = {"d": [2, 3], "L_multiplier": [1, 2]}
        s = run_experiment(dict(cfg, output={"traces": False, "plotdata": False}),
                           out_dir=tmp_path)
        with pytest.raises(ConfigError, match="both"):
            emit_table(s)

    def test_all_failed_cell_is_marked_err(self, tmp_path):
        # printed smooth-case acsmd1 fails the auto restart planner on every
        # seed, while nacsmd runs; a censored cell would read >400 instead
        cfg = {"instance": {"d": [3], "q": 2.0},
               "solver": {"algorithms": ["nacsmd", "acsmd1"]},
               "run": {"restart": "auto", "T_max": 400, "seeds": [0, 1]}}
        s = run_experiment(cfg, out_dir=tmp_path)
        _, csv_text = emit_table(s)
        row = csv_text.splitlines()[1].split(",")
        assert row[0] == "d=3" and row[2] == "err"
        assert row[1] != "err"

    def test_plotdata_has_the_csv_writer_bytes(self):
        def reference(rows):
            buf = io.StringIO()
            w = csv.writer(buf)
            w.writerow(["cell", "algorithm", "seed", "t", "log10_rel_gap"])
            for cell, alg, seed, t, val in rows:
                w.writerow([cell, alg, int(seed), int(t), f"{val:.17g}"])
            return buf.getvalue()

        labels = ["ridge-d20-Lx1-acsmd1", "a,b", 'say "hi"', "two\nlines", "cr\rx", "",
                  " padded ", "50%", "ünï", "'quote'"]
        values = [-0.123456789012345, -300.0, 5e-324, -2.2250738585072014e-310, 0.0,
                  -0.0, 1e300, float("inf"), float("-inf"), float("nan"), -1.5]
        rows = [(labels[i % len(labels)], labels[(3 * i) % len(labels)], i % 7,
                 np.int64(i + 1), values[i % len(values)]) for i in range(60)]
        assert emit_plotdata(rows) == reference(rows)
        assert emit_plotdata([]) == reference([])

    def test_plotdata_roundtrip(self):
        rows = [("cell-a", "nacsmd", 0, 1, -0.123456789012345),
                ("cell-a", "nacsmd", 0, 2, -1.5),
                ("cell-b", "acsmd1", 3, 1, 0.0)]
        assert parse_plotdata(emit_plotdata(rows)) == rows


class TestCli:
    def write_cfg(self, tmp_path, cfg):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(cfg))
        return str(path)

    def test_validate_ok(self, tmp_path, capsys):
        rc = main(["validate", self.write_cfg(tmp_path, TINY)])
        assert rc == 0
        assert json.loads(capsys.readouterr().out)["instance"]["d"] == [3]

    def test_validate_bad_config_exit_2(self, tmp_path, capsys):
        rc = main(["validate", self.write_cfg(tmp_path, {"instance": {"zzz": 1}})])
        assert rc == 2

    def test_validate_unrepairable_schedule_exit_3(self, tmp_path, capsys):
        # every offset doubling from 200 at m = 60 overflows within the
        # 200000 steps: the validated schedule cannot be built
        cfg = {"instance": {"d": [3]},
               "solver": {"schedule_mode": "validated",
                          "algorithms": [{"name": "nacsmd", "m": 60.0, "offset": 200.0}]},
               "run": {"T_max": 200000, "seeds": [0]}}
        with np.errstate(over="ignore", invalid="ignore"):
            assert main(["validate", self.write_cfg(tmp_path, cfg)]) == 3
        assert "offset doublings" in capsys.readouterr().err

    @pytest.mark.parametrize("cfg,key", [
        ({"instance": {"q": "3"}}, "instance.q"),
        ({"run": {"T_max": "50"}}, "run.T_max"),
        ({"instance": {"d": [20, "x"]}}, "instance.d"),
        ({"instance": {"kappa": True}}, "instance.kappa"),
        ({"run": {"seeds": {"count": "2"}}}, "run.seeds.count"),
        ({"instance": {"mu": "2"}, "run": {"T_max": 20, "seeds": [0]}}, "instance.mu"),
        ({"instance": {"sigma_b": "0.1"}}, "instance.sigma_b"),
        ({"instance": {"sigma": [1.0]}}, "instance.sigma"),
        ({"instance": {"target_accuracy": None}}, "instance.target_accuracy"),
        ({"instance": {"R": "1"}}, "instance.R"),
        ({"solver": {"safety_scale": "1.5"}}, "solver.safety_scale"),
        ({"solver": {"acsa_stage0": True}}, "solver.acsa_stage0"),
    ])
    def test_validate_mistyped_value_exit_2(self, tmp_path, capsys, cfg, key):
        assert main(["validate", self.write_cfg(tmp_path, cfg)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and key in err

    @pytest.mark.parametrize("d", [3.7, 0.5])
    @pytest.mark.parametrize("command", ["validate", "run"])
    def test_non_integer_dimension_exit_2(self, tmp_path, capsys, command, d):
        cfg = {"instance": {"d": [d]}, "run": {"T_max": 20, "seeds": [0]}}
        extra = ["--out", str(tmp_path / "out")] if command == "run" else []
        assert main([command, self.write_cfg(tmp_path, cfg)] + extra) == 2
        assert capsys.readouterr().err == f"error: instance.d must be an integer >= 1, got {d}\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["validate", "run"])
    @pytest.mark.parametrize("run,key", [
        ({"seeds": {"count": 2.7, "base": 0}}, "run.seeds.count must be an integer >= 1, got 2.7"),
        ({"seeds": {"count": 2, "base": 0.5}}, "run.seeds.base must be an integer >= 0, got 0.5"),
        ({"seeds": [0, 1.5]}, "run.seeds must be an integer >= 0, got 1.5"),
        ({"T_max": 5.5}, "run.T_max must be an integer >= 1, got 5.5"),
        ({"restart": "bogus"}, "run.restart must be null, 'auto' or {n, K, T}, got 'bogus'"),
        ({"restart": {"n": 1}},
         "run.restart must be null, 'auto' or {n, K, T}, got {'n': 1}"),
        ({"restart": {"n": 1.5, "K": 5, "T": 10}},
         "run.restart.n must be an integer >= 0, got 1.5"),
        ({"restart": {"n": 1, "K": 0, "T": 10}}, "run.restart.K must be an integer >= 1, got 0"),
        ({"restart": {"n": 1, "K": 5, "T": 3}}, "run.restart.T must be an integer >= 5, got 3"),
        ({"restart": {"n": 2, "K": 5, "T": 11}},
         "run.restart runs 21 steps, more than run.T_max = 20"),
    ])
    def test_non_integer_run_keys_exit_2(self, tmp_path, capsys, command, run, key):
        # once truncated: seeds [0, 1] for count 2.7 and base 0.5, seed 1 for
        # 1.5, and 5 steps for a T_max echoed as 5.5. A bad restart plan
        # crashed the run, recorded one error per run, or ran past T_max
        cfg = {"instance": {"d": [3]}, "solver": {"algorithms": ["nacsmd"]},
               "run": dict({"T_max": 20, "seeds": [0]}, **run)}
        extra = ["--out", str(tmp_path / "out")] if command == "run" else []
        assert main([command, self.write_cfg(tmp_path, cfg)] + extra) == 2
        assert capsys.readouterr().err == f"error: {key}\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["validate", "run"])
    @pytest.mark.parametrize("extra,message", [
        ({"instance": {"x_star": {"kind": "uniform", "scale": "big"}}},
         "instance.x_star.scale must be a finite number, got 'big'"),
        ({"instance": {"x1": {"kind": "constant", "value": "abc"}}},
         "instance.x1.value must be a finite number, got 'abc'"),
        ({"instance": {"x_star": {"kind": "fixed", "values": ["a", 1, 2]}}},
         "instance.x_star.values must be a finite number, got 'a'"),
        ({"instance": {"x1": {"kind": "fixed", "values": [1.0, float("nan"), 2.0]}}},
         "instance.x1.values must be a finite number, got nan"),
        ({"instance": {"x_star": {"kind": "uniform", "scael": 2.0}}},
         "unknown config keys under instance.x_star: ['scael']"),
        ({"instance": {"x1": {"kind": "zeros", "value": 1.0}}},
         "unknown config keys under instance.x1: ['value']"),
        ({"instance": {"x1": {"kind": "fixed"}}}, "fixed x1 needs a 'values' list"),
        ({"instance": {"x_star": 0.3}},
         "instance.x_star.kind must be one of ['fixed', 'uniform']"),
        ({"run": {"stop_at_target": "false"}},
         "run.stop_at_target must be true or false, got 'false'"),
        ({"run": {"certificates": 0}}, "run.certificates must be true or false, got 0"),
        ({"output": {"traces": "no"}}, "output.traces must be true or false, got 'no'"),
        ({"output": {"plotdata": None}}, "output.plotdata must be true or false, got None"),
        ({"instance": {"d": [3, 4], "x1": {"kind": "fixed", "values": [1.0, 2.0, 3.0]}}},
         "instance.x1.values has 3 entries but instance.d = 4"),
        ({"instance": {"d": [3, 4], "x_star": {"kind": "fixed", "values": [0.1] * 4}}},
         "instance.x_star.values has 4 entries but instance.d = 3"),
    ], ids=["scale", "value", "values", "nan-values", "unknown-key", "zeros-key",
            "fixed-without-values", "not-a-block", "stop_at_target", "certificates", "traces",
            "plotdata", "x1-length", "x_star-length"])
    def test_bad_start_point_or_switch_exit_2(self, tmp_path, capsys, command, extra, message):
        # each exited 1 with a traceback, exited 0 and ran with another value,
        # or (a fixed start point of another length) ran the cells before it
        cfg = {"instance": {"d": [3]}, "solver": {"algorithms": ["nacsmd"]},
               "run": {"T_max": 20, "seeds": [0]}}
        for block, keys in extra.items():
            cfg[block] = dict(cfg.get(block, {}), **keys)
        out = tmp_path / "out"
        args = ["--out", str(out)] if command == "run" else []
        assert main([command, self.write_cfg(tmp_path, cfg)] + args) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize("command", ["validate", "run"])
    def test_baseline_on_the_bernoulli_instance_exit_2(self, tmp_path, capsys, command):
        # the config is refused before any run starts, so nothing is written
        cfg = {"instance": {"kind": "bernoulli"}, "solver": {"algorithms": ["nacsmd", "acsa"]}}
        out = tmp_path / "out"
        extra = ["--out", str(out)] if command == "run" else []
        assert main([command, self.write_cfg(tmp_path, cfg)] + extra) == 2
        assert "needs a regression instance" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["validate", "run"])
    @pytest.mark.parametrize("solver,key", [
        ({"algorithms": ["acsa"], "acsa_stage0": 2.5}, "solver.acsa_stage0"),
        ({"algorithms": ["acsa"], "acsa_stage0": 0}, "solver.acsa_stage0"),
        ({"safety_scale": 0.5}, "solver.safety_scale"),
        ({"algorithms": [{"name": "nacsmd", "safety_scale": 0.5}]}, "].safety_scale"),
        ({"safety_scale": 1.5}, "solver.safety_scale must be 1"),
        ({"algorithms": [{"name": "nacsmd", "safety_scale": 1.5}]},
         "solver.algorithms[0].safety_scale must be 1"),
        ({"algorithms": ["acsmd1", {"name": "nacsmd", "m": "x"}]}, "solver.algorithms[1].m"),
        ({"algorithms": [{"name": "nacsmd", "m": -1.5}]}, "solver.algorithms[0].m must be > -1"),
        ({"algorithms": [{"name": "nacsmd", "offset": "bogus"}]}, "solver.algorithms[0].offset"),
        ({"algorithms": [{"name": "nacsmd", "offset": -2.0}]}, "solver.algorithms[0].offset"),
        ({"algorithms": [{"name": "nacsmd", "ofset": 3}]}, "solver.algorithms[0]: ['ofset']"),
        ({"algorithms": [{"name": "nacsmd", "label": ""}]}, "solver.algorithms[0].label"),
        ({"algorithms": [{"name": "nacsmd", "label": 7}]}, "solver.algorithms[0].label"),
        ({"algorithms": [{"name": "acsmd1", "label": "x"}]}, "solver.algorithms[0].name"),
        ({"algorithms": ["nacsmd", {"name": "acsmd3"}]}, "solver.algorithms[1].name"),
        ({"algorithms": [{"name": "acsa", "m": 2.0}]}, "solver.algorithms[0]: the acsa"),
        ({"algorithms": ["nacsmd", {"name": "acsa", "m": 2.0, "offset": 50, "label": "A2"}]},
         "solver.algorithms[1]: the acsa baseline has no polynomial schedule, "
         "so takes no ['m', 'offset']"),
    ])
    def test_bad_stage0_or_safety_scale_exit_2(self, tmp_path, capsys, command, solver, key):
        # refused before any run starts, so nothing is written
        cfg = {"instance": {"d": [3]}, "solver": solver, "run": {"T_max": 20, "seeds": [0]}}
        out = tmp_path / "out"
        extra = ["--out", str(out)] if command == "run" else []
        assert main([command, self.write_cfg(tmp_path, cfg)] + extra) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and key in err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["validate", "run"])
    @pytest.mark.parametrize("instance,algorithms", [
        ({"d": [3]}, ["nacsmd", {"name": "nacsmd", "m": 1.0}]),
        ({"d": [3, 3]}, ["nacsmd"]),
        ({"d": [3], "L_multiplier": [1.0, 1.0]}, ["nacsmd"]),
        ({"d": [3], "L_multiplier": [1.0, 1.0000001]}, ["nacsmd"]),  # both print Lx1
    ])
    def test_cells_sharing_a_label_exit_2(self, tmp_path, capsys, command, instance,
                                           algorithms):
        # two cells with one label would write one set of trace files and
        # report one cell's runs under both; refused before any run starts
        cfg = {"instance": instance, "solver": {"algorithms": algorithms},
               "run": {"T_max": 40, "seeds": [0, 1]}}
        out = tmp_path / "out"
        extra = ["--out", str(out)] if command == "run" else []
        assert main([command, self.write_cfg(tmp_path, cfg)] + extra) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "'ridge-d3-Lx1-nacsmd'" in err
        assert not out.exists()

    def test_validate_resolves_every_schedule_run_does(self, tmp_path, monkeypatch, capsys):
        cfg = {"instance": {"kind": "bernoulli"},
               "solver": {"algorithms": ["nacsmd", "acsmd1"], "schedule_mode": "validated"},
               "run": {"T_max": 30, "seeds": [0, 1]},
               "output": {"traces": False, "plotdata": False}}
        path = self.write_cfg(tmp_path, cfg)
        real = bench._resolve_schedule
        resolved = {}
        for command in ("validate", "run"):
            seen = resolved[command] = set()

            def recording(spec, *args, seen=seen):
                seen.add(spec["label"])
                return real(spec, *args)

            monkeypatch.setattr(bench, "_resolve_schedule", recording)
            extra = ["--out", str(tmp_path / "out")] if command == "run" else []
            assert main([command, path] + extra) == 0
        assert resolved["validate"] == resolved["run"] == {"nacsmd", "acsmd1"}

    def test_missing_config_exit_2(self, capsys):
        assert main(["run", "/nonexistent/config.json"]) == 2

    @pytest.mark.parametrize("label", ["a/b", "a\0b"])
    @pytest.mark.parametrize("command", ["validate", "run"])
    def test_a_label_that_is_no_file_name_exit_2(self, tmp_path, capsys, command, label):
        # with traces on the label names trace files, so a path separator or
        # NUL would break the run after summary.json was written
        cfg = {"instance": {"d": [3]}, "solver": {"algorithms": [{"name": "nacsmd",
                                                                 "label": label}]},
               "run": {"T_max": 20, "seeds": [0]}}
        out = tmp_path / "out"
        extra = ["--out", str(out)] if command == "run" else []
        assert main([command, self.write_cfg(tmp_path, cfg)] + extra) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith(f"error: solver.algorithms[0].label {label!r}")
        assert captured.out == ""
        assert not out.exists()
        # without traces no file name holds it
        cfg["output"] = {"traces": False}
        assert main([command, self.write_cfg(tmp_path, cfg)] + extra) == 0

    @pytest.mark.parametrize("command", ["run", "validate"])
    @pytest.mark.parametrize("instance,key", [
        ({"d": [3], "mu": -1.0}, "instance.mu"),
        ({"d": [3], "sigma_b": -0.1}, "instance.sigma_b"),
        ({"d": [3], "R": -1.0}, "instance.R"),
        ({"kind": "bernoulli", "sigma": -1.0}, "instance.sigma"),
        ({"kind": "bernoulli", "target_accuracy": 5.0}, "instance.target_accuracy"),
        ({"kind": "bernoulli", "target_accuracy": 0.0}, "instance.target_accuracy"),
        # sigma^p overflows: once an OverflowError traceback, exit 1
        ({"kind": "bernoulli", "sigma": 1e300}, "instance.sigma"),
    ])
    def test_an_instance_value_every_seed_refuses_exit_2(self, tmp_path, capsys, command,
                                                         instance, key):
        # run once recorded the same set-up error for every run and exited 0
        cfg = {"instance": instance, "solver": {"algorithms": ["nacsmd"]},
               "run": {"T_max": 20, "seeds": [0]}}
        out = tmp_path / "out"
        extra = ["--out", str(out)] if command == "run" else []
        assert main([command, self.write_cfg(tmp_path, cfg)] + extra) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith(f"error: {key} ")
        assert captured.out == ""
        assert not out.exists()

    def test_instance_values_a_kind_does_not_read_are_accepted(self, tmp_path):
        # custom-deterministic runs with sigma_b = 0, and bernoulli reads
        # neither sigma_b nor R, so none of these configs errs in any run
        for instance in ({"kind": "custom-deterministic", "sigma_b": -0.1},
                         {"kind": "bernoulli", "sigma_b": -0.1, "R": -1.0}):
            cfg = {"instance": dict(instance, d=[3]), "solver": {"algorithms": ["nacsmd"]},
                   "run": {"T_max": 20, "seeds": [0]}}
            s = run_experiment(cfg, out_dir=tmp_path / instance["kind"])
            assert s["cells"][0]["failed_runs"] == {}

    def test_seeds_count_without_seed_exit_2(self, tmp_path, capsys):
        # the count runs from --seed on, so alone it has no seeds to count
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as exc:
            main(["run", self.write_cfg(tmp_path, TINY), "--out", str(out),
                  "--seeds-count", "3"])
        assert exc.value.code == 2
        assert "--seeds-count" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["validate", "run", "lowerbound", "concentration"])
    @pytest.mark.parametrize("text", ["5", "[1, 2]", "null", '"cfg"'])
    def test_a_config_that_is_no_object_exit_2(self, tmp_path, capsys, command, text):
        path = tmp_path / "config.json"
        path.write_text(text)
        assert main([command, str(path), "--seed", "1"] if command != "validate"
                    else [command, str(path)]) == 2
        assert capsys.readouterr().err.startswith("error: config must be a JSON object")

    @pytest.mark.parametrize("text,message", [
        (None, "summary file not found"),
        ("{", "summary is not valid JSON"),
        ("[]", "summary must be a JSON object"),
    ])
    def test_table_on_a_missing_or_malformed_summary_exit_2(self, tmp_path, capsys, text,
                                                             message):
        path = tmp_path / "summary.json"
        if text is not None:
            path.write_text(text)
        assert main(["table", str(tmp_path)]) == 2
        assert capsys.readouterr().err.startswith(f"error: {message}")

    @pytest.mark.parametrize("summary,key", [
        ({}, "'cells'"),
        ({"cells": [{"d": 3}], "config": {}}, "'L_multiplier'"),
    ])
    def test_table_on_an_object_that_is_no_summary_exit_2(self, tmp_path, capsys, summary,
                                                           key):
        path = tmp_path / "summary.json"
        path.write_text(json.dumps(summary))
        assert main(["table", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: emit_table:") and f"no key {key}" in err

    @pytest.mark.parametrize("change,message", [
        ({}, "cells[0]'s 'median_iterations' must be a number, got None"),
        ({"d": "x"}, "cells[0]'s 'd' must be a number, got 'x'"),
        ({"seeds": 1}, "cells[0]'s 'seeds' must be a list, got 1"),
        ({"algorithm": ["a"]}, "cells[0]'s 'algorithm' must be a string, got ['a']"),
    ], ids=["median", "d", "seeds", "algorithm"])
    def test_table_on_a_summary_of_wrong_types_exit_2(self, tmp_path, capsys, change,
                                                       message):
        # each once died with a TypeError or ValueError traceback, exit 1
        cell = dict({"d": 3, "L_multiplier": 1, "algorithm": "a", "seeds": [0],
                     "failed_runs": {}, "median_iterations": None}, **change)
        path = tmp_path / "summary.json"
        path.write_text(json.dumps({"cells": [cell], "config": {"run": {"T_max": 5}}}))
        assert main(["table", str(path)]) == 2
        assert capsys.readouterr().err == f"error: emit_table: {message}\n"

    def test_run_and_table(self, tmp_path, capsys):
        cfg_path = self.write_cfg(tmp_path, TINY)
        out = tmp_path / "out"
        assert main(["run", cfg_path, "--out", str(out)]) == 0
        assert (out / "summary.json").exists()
        assert (out / "manifest.json").exists()
        capsys.readouterr()
        assert main(["table", str(out), "--out", str(out)]) == 0
        assert "iterations_required" in capsys.readouterr().out
        assert (out / "table.csv").exists()

    def test_run_seed_keeps_config_seed_count(self, tmp_path, capsys):
        cfg = dict(TINY, solver={"algorithms": ["nacsmd"]},
                   run={"epsilon": 0.05, "T_max": 20, "seeds": {"count": 2}},
                   output={"traces": False, "plotdata": False})
        out = tmp_path / "out"
        assert main(["run", self.write_cfg(tmp_path, cfg), "--out", str(out),
                     "--seed", "5"]) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["cells"][0]["seeds"] == [5, 6]

    def test_lowerbound_subcommand(self, tmp_path, capsys):
        cfg = {"trials": 40, "epsilon": 0.05}
        rc = main(["lowerbound", self.write_cfg(tmp_path, cfg), "--out", str(tmp_path)])
        assert rc == 0
        assert (tmp_path / "lowerbound.json").read_text() == capsys.readouterr().out
        payload = json.loads((tmp_path / "lowerbound.json").read_text())
        assert payload["T_bound"] == 3

    def test_concentration_subcommand(self, tmp_path, capsys):
        cfg = {"trials": 2000, "T": 20}
        rc = main(["concentration", self.write_cfg(tmp_path, cfg), "--out", str(tmp_path)])
        assert rc == 0
        assert (tmp_path / "concentration.json").read_text() == capsys.readouterr().out
        payload = json.loads((tmp_path / "concentration.json").read_text())
        assert payload["ok"] is True
        assert payload["mgf_estimate"] <= 2.0 + 1e-9

    @pytest.mark.parametrize("sigma", [0.0, -1.0])
    def test_concentration_nonpositive_sigma_exit_2(self, tmp_path, capsys, sigma):
        cfg = {"sigma": sigma, "trials": 100, "T": 5}
        assert main(["concentration", self.write_cfg(tmp_path, cfg)]) == 2
        assert capsys.readouterr().err.startswith("error:")

    @pytest.mark.parametrize("degree", [400, 200])
    def test_concentration_overflowing_weights_exit_2(self, tmp_path, capsys, degree):
        # t^400 overflows at t = 10; t^200 does not, but its squares do: the
        # payload once held NaN and Infinity, which are not JSON, and exit 0
        cfg = {"weight_degree": degree, "T": 10, "trials": 1000}
        with np.errstate(over="ignore"):
            assert main(["concentration", self.write_cfg(tmp_path, cfg)]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: concentration_check needs finite weights")

    @pytest.mark.parametrize("command,cfg,code,err", [
        ("concentration", {"weight_degree": 400, "T": 100, "trials": 100}, 2,
         "error: concentration_check needs finite weights"),
        ("run", {"instance": {"d": [3], "x1": {"kind": "constant", "value": 1e200}},
                 "solver": {"algorithms": ["acsa", "nacsmd"]},
                 "run": {"T_max": 20, "seeds": [0]}, "output": {"traces": False}}, 0, ""),
        ("validate", {"instance": {"d": [3], "x1": {"kind": "constant", "value": 1e200}},
                      "run": {"T_max": 20, "seeds": [0]}}, 3,
         "numerical failure: the start point's gap"),
    ], ids=["concentration", "run", "validate"])
    def test_an_overflow_that_is_refused_warns_nothing(self, tmp_path, command, cfg, code,
                                                       err):
        # the overflowing weights and start-point gap are checked right after
        # they are computed; numpy's overflow warnings once came first
        extra = ["--out", str(tmp_path / "out")] if command == "run" else []
        proc = subprocess.run(
            [sys.executable, "-m", "ccmin.bench", command, self.write_cfg(tmp_path, cfg)]
            + extra, capture_output=True, text=True, env=child_env(), timeout=120)
        assert proc.returncode == code, proc.stderr
        assert "RuntimeWarning" not in proc.stderr
        assert proc.stderr.startswith(err) if err else proc.stderr == ""

    @pytest.mark.parametrize("command,cfg,key", [
        ("lowerbound", {"trials": 5, "q": 1.0}, "q must be >= 2"),
        ("concentration", {"trials": 100, "T": 5, "q": 1.0}, "q >= 2"),
        ("concentration", {"trials": 100, "T": 5, "R": 0.0}, "R > 0"),
        # an infinite horizon once died in math.floor with an OverflowError, exit 1
        ("lowerbound", {"sigma": 1e300}, "horizon"),
    ])
    def test_subcommand_out_of_range_exit_2(self, tmp_path, capsys, command, cfg, key):
        # each once fell through to a ZeroDivisionError and exit 1
        assert main([command, self.write_cfg(tmp_path, cfg)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and key in err

    @pytest.mark.parametrize("command,cfg,key", [
        ("lowerbound", {"trials": "40", "epsilon": 0.05}, "trials"),
        ("lowerbound", {"trials": 40, "mu": True}, "mu"),
        ("lowerbound", {"trials": 40.0}, "trials"),
        ("lowerbound", {"trials": 0}, "trials"),
        ("lowerbound", {"trials": 5, "seed": -1}, "seed"),
        ("lowerbound", {"trials": 5, "epsilon": None}, "epsilon"),
        ("concentration", {"sigma": "1", "trials": 100, "T": 5}, "sigma"),
        ("concentration", {"trials": 100, "T": 5.5}, "T"),
        ("concentration", {"trials": 100, "T": 5, "dim": 2.0}, "dim"),
        ("concentration", {"trials": 100, "T": 5, "seed": "1"}, "seed"),
        ("concentration", {"trials": 100, "T": 5, "q": [2.0]}, "q"),
        ("concentration", {"trials": True, "T": 5}, "trials"),
    ])
    def test_subcommand_mistyped_value_exit_2(self, tmp_path, capsys, command, cfg, key):
        assert main([command, self.write_cfg(tmp_path, cfg)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and key in err

    def test_console_entry_point(self):
        proc = subprocess.run([sys.executable, "-m", "ccmin.bench", "--help"],
                              capture_output=True, text=True, env=child_env())
        assert proc.returncode == 0
        assert "run" in proc.stdout


def test_public_names():
    # a new public name needs a caller and an edit here
    assert sorted(ccmin.__all__) == [
        "AdditiveNoiseOracle", "BernoulliLowerBoundInstance", "BernoulliOracle",
        "CertificateReport", "ConfigError", "DiagnosticUnavailableError", "GeometryParams",
        "NoiseTerms", "NumericalError", "OracleRows", "ParameterError", "PolynomialSchedule",
        "PowerNormRegularizer", "RestartPlan", "RidgeInstance", "RidgeOracle", "RunTrace",
        "StochasticGradientOracle", "acsa_baseline", "acsmd", "bernoulli_oracle",
        "bregman_to", "certificate_check", "certificate_options", "composite_prox",
        "concentration_check", "default_schedule", "derive_params", "diagnostics", "dual_exponent",
        "errors", "exact_optimum", "expectation_bound", "geometry", "lower_bound_experiment",
        "lq_norm", "martingale_tail_bound", "nacsmd", "oracles", "plan_from_params", "power_inv_r",
        "power_uc_constant", "regularizers", "restart", "ridge_psi", "solvers",
        "validate_schedule",
    ]
