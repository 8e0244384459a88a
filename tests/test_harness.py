"""Harness: regressions, experiment runner, comparisons, CLI."""

import json
import math
import os
import pathlib
import re

import numpy as np
import pytest

from rotstrip.params import Params
from rotstrip.spectral import SpectralField
from rotstrip.layers import BoundaryTrace
from rotstrip.correctors import ApproxSolution, assemble_dirichlet_approx
from rotstrip.direct import graded_nodes, solve_direct
from rotstrip.harness import (
    DEFAULT_TOLERANCES,
    ExperimentSpec,
    compare,
    regress_loglog,
    run,
)
from rotstrip.cli import load_config, main, parse_gamma, parse_trace


class TestRegression:
    def test_exact_power_law(self):
        x = np.array([1.0, 2.0, 4.0, 8.0])
        reg = regress_loglog(zip(x, x ** 2))
        assert reg.slope == pytest.approx(2.0, abs=1e-12)
        assert reg.r_squared == pytest.approx(1.0, abs=1e-12)

    def test_noisy_quarter_power(self):
        rng = np.random.default_rng(1)
        x = np.geomspace(1e-4, 1e-1, 12)
        y = 3.0 * x ** 0.25 * (1.0 + 0.01 * rng.standard_normal(len(x)))
        reg = regress_loglog(zip(x, y))
        assert reg.slope == pytest.approx(0.25, abs=0.01)

    def test_two_points_rejected(self):
        with pytest.raises(ValueError, match="3 points"):
            regress_loglog([(1.0, 1.0), (2.0, 2.0)])

    def test_nonpositive_rejected(self):
        with pytest.raises(ValueError, match="positive"):
            regress_loglog([(1.0, 1.0), (2.0, -2.0), (3.0, 3.0)])


class TestSpecValidation:
    def test_empty_grid_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            ExperimentSpec(kind="bl_scaling", epsilon=[])

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown experiment kind"):
            ExperimentSpec(kind="nope", epsilon=[1e-3])

    def test_mismatched_grids_rejected(self):
        with pytest.raises(ValueError, match="nu grid"):
            ExperimentSpec(kind="bl_scaling", epsilon=[1e-3, 1e-4], nu=[1e-3])

    def test_unknown_tolerance_key_rejected(self):
        # a misspelled key must not leave the default in force
        with pytest.raises(ValueError, match="ekman_rate_rell"):
            ExperimentSpec(kind="ekman_rate", epsilon=[1e-2],
                           tolerances={"ekman_rate_rell": 0.5})

    @pytest.mark.parametrize("save_every", [0, -5, 2.5, True])
    def test_save_every_not_a_positive_integer_rejected(self, save_every):
        with pytest.raises(ValueError, match=f"save_every={save_every!r}"):
            ExperimentSpec(kind="ekman_rate", epsilon=[1e-2], save_every=save_every)

    def test_known_tolerance_key_overrides_default(self):
        spec = ExperimentSpec(kind="ekman_rate", epsilon=[1e-2],
                              tolerances={"ekman_rate_rel": 0.5})
        assert spec.tolerances["ekman_rate_rel"] == 0.5
        assert set(spec.tolerances) == set(DEFAULT_TOLERANCES)


def test_wind_norm_slope_tolerance_read_from_spec(tmp_path):
    assert DEFAULT_TOLERANCES["wind_norm_slope"] == 0.05
    checks = {}
    for tag, tolerances in (("default", {}), ("zero", {"wind_norm_slope": 0.0})):
        spec = ExperimentSpec(kind="wind_convergence", epsilon=[1e-2, 5e-3, 2.5e-3],
                              beta=[1.0], t_end=0.02, Nz=128, save_every=5,
                              out=str(tmp_path / tag), tolerances=tolerances)
        checks[tag] = {c["name"]: c for c in run(spec)["checks"]}["wind_norm_slope"]
    assert checks["default"]["tolerance"] == "0.75+-0.05"
    assert checks["default"]["passed"]
    # the same slope, now held to a zero tolerance
    assert checks["zero"]["value"] == checks["default"]["value"] != 0.75
    assert checks["zero"]["tolerance"] == "0.75+-0.0"
    assert not checks["zero"]["passed"]


def test_summary_beta_is_the_beta_run(tmp_path):
    # the default beta grid used to read [0, 0, 0] in the summary while the
    # points ran (and the CSV reported) beta = 1
    spec = ExperimentSpec(kind="wind_convergence", epsilon=[4e-2, 2e-2, 1e-2], t_end=0.01,
                          Nz=64, out=str(tmp_path / "wind"))
    summary = run(spec)
    assert not summary["errors"], summary["errors"]
    rows = (tmp_path / "wind" / "wind_convergence.csv").read_text().splitlines()
    assert rows[0].split(",")[2] == "beta"
    assert summary["spec"]["beta"] == [float(r.split(",")[2]) for r in rows[1:]] == [1.0] * 3


def test_each_solved_grid_built_once(tmp_path, monkeypatch):
    # the spec builds each solved point's graded grid and the point's solve
    # takes it; the solve used to build the same grid again
    from rotstrip import direct, harness

    calls = []

    def counting(Nz, delta):
        calls.append((Nz, delta))
        return graded_nodes(Nz, delta)

    monkeypatch.setattr(harness, "graded_nodes", counting)
    monkeypatch.setattr(direct, "graded_nodes", counting)
    spec = ExperimentSpec(kind="ekman_rate", epsilon=[2e-2, 1.5e-2, 1e-2], Nz=96,
                          t_end=0.05, out=str(tmp_path / "ekman"))
    summary = run(spec, parallel=1)
    assert not summary["errors"], summary["errors"]
    assert [c["name"] for c in summary["checks"]] == [f"ekman_rate_point{i}" for i in range(3)]
    assert calls == [(96, Params(eps, eps).layer_scale) for eps in spec.epsilon]


class TestRun:
    @pytest.mark.filterwarnings("ignore::rotstrip.layers.AmbiguousSelectionWarning")
    def test_bl_scaling_passes_and_writes(self, tmp_path):
        spec = ExperimentSpec(kind="bl_scaling",
                              epsilon=[1e-2, 1e-3, 1e-4, 1e-5],
                              out=str(tmp_path / "bl"))
        summary = run(spec)
        assert summary["all_passed"], summary
        assert (tmp_path / "bl" / "bl_scaling.csv").exists()
        assert (tmp_path / "bl" / "summary.json").exists()

    def test_resonant_growth(self, tmp_path):
        spec = ExperimentSpec(kind="resonant_growth", epsilon=[1e-3],
                              out=str(tmp_path / "res"))
        summary = run(spec)
        assert summary["all_passed"], summary

    @pytest.mark.filterwarnings("ignore::rotstrip.layers.AmbiguousSelectionWarning")
    def test_rerun_byte_identical(self, tmp_path):
        for sub in ("a", "b"):
            spec = ExperimentSpec(kind="bl_scaling",
                                  epsilon=[1e-2, 1e-3, 1e-4],
                                  out=str(tmp_path / sub))
            run(spec)
        a = (tmp_path / "a" / "bl_scaling.csv").read_bytes()
        b = (tmp_path / "b" / "bl_scaling.csv").read_bytes()
        assert a == b

    def test_failures_recorded_per_point_and_run_continues(self, tmp_path, monkeypatch):
        # the solver fails on the first grid point; the second must still run
        from rotstrip import harness

        def failing_first(gamma, sigma, p, **kwargs):
            if p.epsilon == 2e-2:
                raise ValueError("solver failure on point 0")
            return solve_direct(gamma, sigma, p, **kwargs)

        monkeypatch.setattr(harness, "solve_direct", failing_first)
        spec = ExperimentSpec(kind="ekman_rate", epsilon=[2e-2, 1e-2],
                              Nz=96, t_end=0.05, out=str(tmp_path / "bad"))
        summary = run(spec)
        assert not summary["all_passed"]
        assert not summary["errors"]  # nothing fatal: recorded per point
        by_name = {c["name"]: c for c in summary["checks"]}
        assert not by_name["ekman_rate_point0"]["passed"]
        assert "ekman_rate_point1" in by_name


class TestParallelExecution:
    def test_parallel_matches_serial(self, tmp_path):
        # the grid is in neither cost order, so the pool (longest point
        # first) runs the points out of grid order; the files must not show it
        sums = {}
        for tag, par in (("serial", 1), ("parallel", 2)):
            spec = ExperimentSpec(kind="ekman_rate", epsilon=[8e-3, 1e-2, 6e-3],
                                  Nz=128, t_end=0.3, save_every=20,
                                  out=str(tmp_path / tag))
            sums[tag] = run(spec, parallel=par)
        a = [c["value"] for c in sums["serial"]["checks"]]
        b = [c["value"] for c in sums["parallel"]["checks"]]
        assert a == b
        assert sums["parallel"]["all_passed"]
        names = ["ekman_rate.csv"] + [f"point_{i:03d}/diagnostics.csv" for i in range(3)]
        for name in names:
            serial = (tmp_path / "serial" / name).read_bytes()
            assert serial == (tmp_path / "parallel" / name).read_bytes(), name
        rows = (tmp_path / "parallel" / "ekman_rate.csv").read_text().splitlines()[1:]
        assert [float(r.split(",")[0]) for r in rows] == [8e-3, 1e-2, 6e-3]

    def test_pool_gets_points_longest_first(self, monkeypatch):
        # a pool of min(parallel, points) workers, smallest eps submitted first
        import concurrent.futures

        from rotstrip import harness

        seen = {"order": []}

        class RecordingPool:
            def __init__(self, max_workers):
                seen["workers"] = max_workers

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def submit(self, fn, worker, job):
                seen["order"].append(job[1][0])
                future = concurrent.futures.Future()
                future.set_result(fn(worker, job))
                return future

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
        jobs = [({}, (eps, eps, 0.0)) for eps in (8e-3, 1e-2, 6e-3)]
        results = harness._map_points(lambda job: job[1][0], jobs, parallel=4)
        assert results == [8e-3, 1e-2, 6e-3]
        assert seen == {"workers": 3, "order": [6e-3, 8e-3, 1e-2]}

    def test_parallel_below_one_rejected(self, tmp_path):
        spec = ExperimentSpec(kind="bl_scaling", epsilon=[1e-2, 1e-3, 1e-4],
                              out=str(tmp_path / "out"))
        for bad in (0, -3):
            with pytest.raises(ValueError, match="parallel"):
                run(spec, parallel=bad)


    @pytest.mark.parametrize("kind, epsilon", [("bl_scaling", [1e-2, 1e-3, 1e-4]),
                                               ("resonant_growth", [1e-3]),
                                               ("destabilization", [3e-2])])
    def test_parallel_on_a_kind_without_a_pool_rejected(self, tmp_path, kind, epsilon):
        # these kinds run in the calling process: a pool size would be ignored
        spec = ExperimentSpec(kind=kind, epsilon=epsilon, out=str(tmp_path / "out"))
        with pytest.raises(ValueError, match=f"parallel=2: {kind} runs in the calling"):
            run(spec, parallel=2)
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("kind", ["resonant_growth", "destabilization"])
    def test_more_than_one_point_on_a_single_point_kind_rejected(self, tmp_path, kind):
        # only the first point would run
        spec = ExperimentSpec(kind=kind, epsilon=[3e-2, 1e-2], out=str(tmp_path / "out"))
        with pytest.raises(ValueError, match=f"{kind} runs one grid point, got 2"):
            run(spec)
        assert not (tmp_path / "out").exists()


@pytest.fixture(scope="module")
def destabilization_checks(tmp_path_factory):
    """The checks of one destabilization run, shared by the tests below."""
    spec = ExperimentSpec(kind="destabilization", epsilon=[3e-2], beta=[1.0],
                          t_end=8.0, Nz=128, dt_factor=10.0, save_every=100,
                          out=str(tmp_path_factory.mktemp("dest") / "dest"))
    summary = run(spec)
    assert not summary["errors"], summary["errors"]
    return {c["name"]: c for c in summary["checks"]}


class TestDestabilizationExperiment:
    def test_resonant_column_tracks_selfsimilar_profile(self, destabilization_checks):
        assert destabilization_checks["selfsimilar_rel_error_early"]["passed"]
        assert destabilization_checks["strip_response_rel_error"]["passed"]

    @pytest.mark.xfail(strict=True, reason=(
        "interior_mass_fraction_final reads 0.0876 against its >= 0.10 at nu t = 0.24; "
        "the long-time claim on the direct solution is ROADMAP item 6"))
    def test_interior_mass_fraction_reaches_its_bound(self, destabilization_checks):
        check = destabilization_checks["interior_mass_fraction_final"]
        assert check["value"] >= 0.10
        assert check["passed"]


class TestCompare:
    def test_direct_against_itself_is_zero(self):
        p = Params(1e-2, 1e-2)
        gamma = SpectralField({(1, 0, 1): 1.0})
        out = solve_direct(gamma, None, p, t_end=0.05, Nz=96, save_every=10)

        class Sampler:
            parts = {}

            def hat_profile(self, k_h, t, z):
                traj = out[k_h]
                idx = int(np.argmin(np.abs(np.asarray(traj.times) - t)))
                return traj.snapshots[idx][0].T

        res = compare(out, Sampler(), [0.0, 0.02, 0.05])
        assert res["sup_error"] == 0.0
        assert not res["attribution_flags"]

    def test_each_part_evaluated_once(self):
        # one hat_profile per part, column and time; the error curve is the
        # one of the summed approximation, bit for bit
        p = Params(1e-2, 1e-2)
        gamma = SpectralField({(1, 0, 1): 1.0, (0, 0, 1): 0.5})
        out = solve_direct(gamma, None, p, t_end=0.05, Nz=96, save_every=10)
        approx = assemble_dirichlet_approx(gamma, p)
        calls = {name: 0 for name in approx.parts}

        class Counted:
            def __init__(self, name):
                self.name, self.part = name, approx.parts[name]

            def hat_profile(self, k_h, t, z):
                calls[self.name] += 1
                return self.part.hat_profile(k_h, t, z)

            def l2_norm(self, t):
                return self.part.l2_norm(t)

        counted = ApproxSolution(p, {name: Counted(name) for name in approx.parts})
        res = compare(out, counted, np.linspace(0.0, 0.05, 6))
        assert calls == {name: 2 * 6 for name in approx.parts}  # 2 columns x 6 times
        assert not res["attribution_flags"]
        for i, (t, err) in enumerate(zip(res["times"], res["errors"])):
            err_sq = 0.0
            for k_h, traj in sorted(out.items()):
                idx = int(np.argmin(np.abs(np.asarray(traj.times) - t)))
                diff = traj.snapshots[idx][0].T - approx.hat_profile(k_h, t, traj.z)
                err_sq += float(np.sum(traj.weights * np.sum(np.abs(diff) ** 2, axis=0)))
            assert err == 2.0 * math.pi * math.sqrt(err_sq)

    def test_wind_approximation_explains_direct_solution(self):
        # full assembled sum vs the reference solver, non-resonant stress:
        # after the switch-on transient decays the approximation captures the
        # response to a fraction of its own (small) norm
        p = Params(1e-3, 1e-3, beta=1.0)
        sigma = BoundaryTrace(1, {(0.0, (1, 0)): np.array([1.0, 0.0])})
        from rotstrip.correctors import assemble_wind_approx

        approx = assemble_wind_approx(sigma, p)
        out = solve_direct(SpectralField({}), sigma, p, t_end=2.0,
                           dt=p.epsilon / 10, Nz=256, save_every=50)
        res = compare(out, approx, np.linspace(1.0, 2.0, 4))
        bound = approx.total_norm(1.5)
        assert res["sup_error"] < 0.25 * bound
        assert not res["attribution_flags"]

    @pytest.mark.filterwarnings("ignore::rotstrip.layers.AmbiguousSelectionWarning")
    def test_quasi_resonant_hierarchy_improves_and_converges(self):
        # the oscillating corrector strictly improves on the bare surface
        # layer, and the absolute direct-vs-approximation error vanishes
        # along the sweep (relative to the o(1) approximation it plateaus:
        # the true solution carries third-mode content at the layer scale
        # that the two-mode construction patches only at interior scale)
        from rotstrip.correctors import assemble_wind_approx

        errs = {}
        for eps in (1e-2, 1e-3):
            p = Params(eps, eps, beta=1.0)
            sigma = BoundaryTrace(1, {(1.0, (1, 0)): np.array([1.0, 0.5j])})
            approx = assemble_wind_approx(sigma, p)
            out = solve_direct(SpectralField({}), sigma, p, t_end=1.5,
                               dt=eps / 10, Nz=256, save_every=50)
            traj = out[(1, 0)]
            idx = len(traj.times) - 1
            t = traj.times[idx]
            u = traj.snapshots[idx][0]

            def err_for(target):
                prof = target.hat_profile((1, 0), t, traj.z)
                return 2 * np.pi * np.sqrt(np.sum(
                    traj.weights * np.sum(np.abs(u.T - prof) ** 2, axis=0)))

            bare = err_for(ApproxSolution(p, {name: approx.parts[name] for name in
                                              ("surface_layer", "flux_corrector")}))
            full = err_for(approx)
            assert full < 0.8 * bare  # the corrector genuinely helps
            errs[eps] = full
        assert errs[1e-3] < 0.6 * errs[1e-2]  # absolute error vanishes

    def test_envelope_tracks_direct_at_moderate_params(self):
        p = Params(1e-2, 1e-2)
        gamma = SpectralField({(1, 0, 1): 1.0})
        out = solve_direct(gamma, None, p, t_end=0.2, Nz=192, save_every=10)
        approx = assemble_dirichlet_approx(gamma, p)
        envelope = ApproxSolution(p, {"interior_envelope": approx.parts["interior_envelope"]})
        res = compare(out, envelope, np.linspace(0.0, 0.2, 6))
        assert res["sup_error"] < 0.5 * gamma.norm()
        assert not res["attribution_flags"]


DATA = pathlib.Path(__file__).parent / "data"

#: the configuration of the frozen `rotstrip bl` outputs in tests/data
BL_FROZEN_CONFIG = {
    "epsilon": 1e-2, "nu": 5e-3, "t": 1.0,
    "delta0": {
        "0.0,1,0": [[1.0, 0.5], [0.0, -0.3]],
        "0.5,1,-2": [0.7, [0.0, 1.0]],
        "1.0,1,1": [[1.0, 0.0], [0.2, 0.3]],
        "-1.0,0,1": [0.4, 0.0],
        "1.0,0,0": [[1.0, 0.0], [0.3, 1.0]],
        "2.0,0,0": [[0.0, 1.0], 0.5],
    },
    "delta1": {
        "0.0,1,0": [1.0, 0.0],
        "-0.3,2,1": [[0.5, -0.5], 1.0],
        "-1.0,1,0": [[0.0, 1.0], [1.0, 0.0]],
        "1.0,0,0": [[1.0, 0.0], [0.0, 1.0]],
        "-1.0,0,0": [1.0, [0.0, 0.5]],
    },
}


class TestCLI:
    def test_modes_command(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"epsilon": 1e-3, "nu": 1e-3, "kmax": 1}))
        out = tmp_path / "out"
        rc = main(["modes", "--config", str(cfg), "--out", str(out), "--seedless"])
        assert rc == 0
        text = (out / "modes.csv").read_text()
        assert "damping_real" in text.splitlines()[0]
        summary = json.loads((out / "run_summary.json").read_text())
        assert summary["seedless"]

    def test_key_value_config(self, tmp_path):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("epsilon = 0.001\nnu = 0.001\nkmax = 1\n# comment\n")
        parsed = load_config(cfg)
        assert parsed["epsilon"] == 0.001
        out = tmp_path / "out"
        assert main(["modes", "--config", str(cfg), "--out", str(out)]) == 0

    def test_bl_command(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "epsilon": 1e-3, "nu": 1e-3,
            "delta1": {"0.0,1,0": [1.0, 0.0], "1.0,0,0": [[1.0, 0.0], [0.0, 1.0]]},
        }))
        out = tmp_path / "out"
        assert main(["bl", "--config", str(cfg), "--out", str(out)]) == 0
        lines = (out / "bl_modes.csv").read_text().splitlines()
        kinds = {line.split(",")[0] for line in lines[1:]}
        assert "classical" in kinds and "resonant" in kinds

    def test_bl_command_output_frozen(self, tmp_path):
        # classical, quasi-resonant and resonant entries on both walls; the
        # three files are compared byte for byte with tests/data
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(BL_FROZEN_CONFIG))
        out = tmp_path / "out"
        assert main(["bl", "--config", str(cfg), "--out", str(out)]) == 0
        kinds = {tuple(line.split(",")[:2])
                 for line in (out / "bl_modes.csv").read_text().splitlines()[1:]}
        assert kinds == {(k, s) for k in ("classical", "quasi_resonant", "resonant")
                         for s in "01"}
        for name in ("bl_modes.csv", "bl_traces.csv", "bl_summary.json"):
            assert (out / name).read_bytes() == (DATA / name).read_bytes(), name

    def test_envelope_command(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"epsilon": 1e-3, "nu": 1e-3,
                                   "gamma": {"1,0,1": 1.0}, "t_end": 0.5, "nt": 6}))
        out = tmp_path / "out"
        assert main(["envelope", "--config", str(cfg), "--out", str(out)]) == 0
        assert (out / "envelope.csv").exists()

    def test_direct_command(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"epsilon": 1e-2, "nu": 1e-2,
                                   "gamma": {"1,0,1": 1.0},
                                   "t_end": 0.02, "Nz": 96, "save_every": 10}))
        out = tmp_path / "out"
        assert main(["direct", "--config", str(cfg), "--out", str(out)]) == 0
        assert (out / "mode_1_0_snapshots.csv").exists()
        assert (out / "mode_1_0_diagnostics.csv").exists()

    def test_direct_command_passes_save_every_unconverted(self, tmp_path, capsys):
        # int() would turn 2.5 into 2 and true into 1, and the run would save
        # at an interval the config does not state
        cfg = tmp_path / "cfg.json"
        for value in (2.5, True):
            cfg.write_text(json.dumps({"epsilon": 1e-2, "nu": 1e-2, "gamma": {"1,0,1": 1.0},
                                       "t_end": 0.01, "Nz": 64, "save_every": value}))
            with pytest.raises(SystemExit) as exc:
                main(["direct", "--config", str(cfg), "--out", str(tmp_path / "out")])
            assert exc.value.code == 2
            assert f"save_every={value!r}" in capsys.readouterr().err

    @pytest.mark.parametrize("command, key, value", [
        ("direct", "Nz", 64.9), ("compare", "Nz", True), ("compare", "nt", 9.5),
        ("envelope", "nt", 6.0), ("modes", "kmax", 1.7)])
    def test_integer_keys_are_not_truncated(self, tmp_path, capsys, command, key, value):
        # int() would run "Nz": 64.9 with Nz = 64 and "kmax": 1.7 with kmax = 1
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"epsilon": 1e-2, "nu": 1e-2, key: value}))
        with pytest.raises(SystemExit) as exc:
            main([command, "--config", str(cfg), "--out", str(tmp_path / "out")])
        assert exc.value.code == 2
        assert f"{key}={value!r} must be an integer" in capsys.readouterr().err

    @pytest.mark.parametrize("command, entries, message", [
        ("direct", {"dt_factor": 5}, "too coarse"),
        ("direct", {"gamma": {"1,0": 1.0}}, "three components"),
        ("compare", {"case": "spindown"}, "unknown compare case 'spindown'"),
    ])
    def test_bad_input_exits_2_on_every_command(self, tmp_path, capsys, command, entries,
                                                message):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"epsilon": 1e-2, "nu": 1e-2, "gamma": {"1,0,1": 1.0},
                                   "t_end": 0.01, "Nz": 64, **entries}))
        with pytest.raises(SystemExit) as exc:
            main([command, "--config", str(cfg), "--out", str(tmp_path / "out")])
        assert exc.value.code == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("command, entries, message", [
        ("direct", {"epsilon": None}, "epsilon=None must be a finite number"),
        ("direct", {"t_end": None}, "t_end=None must be a finite number >= 0"),
        ("direct", {"dt_factor": None}, "dt_factor=None must be a finite number"),
        ("direct", {"dt_factor": 0}, "dt_factor=0 must be positive"),
        ("compare", {"t_end": None}, "t_end=None must be a finite number >= 0"),
        ("compare", {"beta": "x"}, "beta='x' must be a finite number"),
        ("bl", {"t": None}, "t=None must be a finite number >= 0"),
        ("modes", {"epsilon": "x"}, "epsilon='x' must be a finite number"),
        ("modes", {"epsilon": [0.01]}, "epsilon=[0.01] must be a finite number"),
        ("envelope", {"nu": math.nan}, "nu=nan must be a finite number"),
    ])
    def test_numeric_keys_checked(self, tmp_path, capsys, command, entries, message):
        # these used to raise TypeError (a traceback, exit 1), divide by zero,
        # or exit 2 with float()'s message, which does not name the key
        solve = {"gamma": {"1,0,1": 1.0}, "t_end": 0.01, "Nz": 64}
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"epsilon": 1e-2, "nu": 1e-2,
                                   **(solve if command in ("direct", "compare") else {}),
                                   **entries}))
        with pytest.raises(SystemExit) as exc:
            main([command, "--config", str(cfg), "--out", str(tmp_path / "out")])
        assert exc.value.code == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("command, entries, message", [
        ("envelope", {"nt": 0}, "nt=0 must be an integer >= 1"),
        ("compare", {"nt": 0}, "nt=0 must be an integer >= 1"),
        ("modes", {"kmax": 0}, "kmax=0 must be an integer >= 1"),
        ("modes", {"kmax": -1}, "kmax=-1 must be an integer >= 1"),
        ("compare", {"gamma": {}}, "no column to solve"),
        ("compare", {"case": "wind", "sigma": {}}, "no column to solve"),
        ("direct", {}, "no column to solve"),
    ])
    def test_empty_input_exits_2(self, tmp_path, capsys, command, entries, message):
        # these used to exit 0 with a header-only or empty CSV or nothing
        # written, or to die on an empty max() or an uncaught StopIteration
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"epsilon": 1e-2, "nu": 1e-2, **entries}))
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as exc:
            main([command, "--config", str(cfg), "--out", str(out)])
        assert exc.value.code == 2
        assert message in capsys.readouterr().err
        assert not list(out.iterdir())

    @pytest.mark.parametrize("spec, message", [
        ({"kind": "bl_scaling", "epsilon": [1e-2], "t_ned": 0.3},
         "unknown config key(s) for sweep: t_ned"),
        ({"epsilon": [1e-2]}, "missing config key(s) for sweep: kind"),
        ({"kind": "bl_scaling"}, "missing config key(s) for sweep: epsilon"),
    ])
    def test_sweep_keys_checked(self, tmp_path, capsys, spec, message):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(spec))
        with pytest.raises(SystemExit) as exc:
            main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "out")])
        assert exc.value.code == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("entries, message", [
        ({"Nz": 64.9}, "Nz=64.9 must be an integer"),
        ({"Nz": True}, "Nz=True must be an integer"),
        ({"dt_factor": 0}, "dt_factor=0 must be at least 10"),
        ({"mode": [1, 0]}, "mode=[1, 0] must be 3 integers"),
        ({"mode": [1, 0, 1.5]}, "mode=[1, 0, 1.5] must be 3 integers"),
        ({"k_h": [1, 0, 5]}, "k_h=[1, 0, 5] must be 2 integers"),
        ({"epsilon": [2.0]}, "epsilon must lie in (0, 1], got 2.0"),
        ({"epsilon": [1e-2, 5e-3], "nu": [1e-2, 0.0]}, "nu must lie in (0, 1], got 0.0"),
        ({"t_end": -0.01}, "t_end=-0.01 must be >= 0"),
        ({"Nz": 8}, "Nz=8 must be an integer >= 32"),
        # point 1's graded grid is refused; point 0 used to run before it failed
        ({"epsilon": [1e-2, 5e-3]}, "epsilon=0.005, nu=0.005: grading for delta=5.000e-03"),
    ])
    def test_bad_sweep_spec_exits_2_before_any_point(self, tmp_path, capsys, entries,
                                                     message):
        # these used to reach the grid points and fail there (exit 1), or,
        # for k_h, to run its first two entries silently
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"kind": "ekman_rate", "epsilon": [1e-2], "t_end": 0.01,
                                   "Nz": 64, **entries}))
        with pytest.raises(SystemExit) as exc:
            main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "out")])
        assert exc.value.code == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "out" / "point_000").exists()

    @pytest.mark.parametrize("entries, message", [
        ({"mu": "x"}, "mu='x' must be a finite number"),
        ({"mu": None}, "mu=None must be a finite number"),
        ({"mu": math.nan}, "mu=nan must be a finite number"),
        ({"t_end": math.inf}, "t_end=inf must be a finite number"),
        ({"dt_factor": math.inf}, "dt_factor=inf must be a finite number"),
        ({"dt_factor": [20]}, "dt_factor=[20] must be a finite number"),
    ])
    def test_spec_numbers_checked_as_stored(self, tmp_path, capsys, entries, message):
        # these used to pass the spec and fail inside every point (exit 1),
        # or, for mu, to be accepted unchecked
        self.assert_spec_rejected(tmp_path, capsys, entries, message)

    @staticmethod
    def assert_spec_rejected(tmp_path, capsys, entries, message):
        """ExperimentSpec raises message, and rotstrip sweep exits 2 with it
        before any point runs."""
        spec = {"kind": "ekman_rate", "epsilon": [1e-2], "t_end": 0.01, "Nz": 64, **entries}
        with pytest.raises(ValueError, match=re.escape(message)):
            ExperimentSpec(**spec)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(spec))
        with pytest.raises(SystemExit) as exc:
            main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "out")])
        assert exc.value.code == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "out" / "point_000").exists()

    @pytest.mark.parametrize("entries, message", [
        ({"epsilon": 0.01}, "epsilon=0.01 must be a list of finite numbers"),
        ({"epsilon": [0.01, None]}, "epsilon=None must be a finite number"),
        ({"epsilon": "1"}, "epsilon='1' must be a list of finite numbers"),
        ({"epsilon": ["x"]}, "epsilon='x' must be a finite number"),
        ({"epsilon": [1e-2, 2e-2], "beta": "12"}, "beta='12' must be a list of finite numbers"),
        ({"nu": 0.01}, "nu=0.01 must be a list of finite numbers"),
        ({"beta": [math.inf]}, "beta=inf must be a finite number"),
        ({"tolerances": {"ekman_rate_rel": "x"}},
         "tolerances['ekman_rate_rel']='x' must be a finite number >= 0"),
        ({"tolerances": {"ekman_rate_rel": None}},
         "tolerances['ekman_rate_rel']=None must be a finite number >= 0"),
        ({"tolerances": {"ekman_rate_rel": -0.1}},
         "tolerances['ekman_rate_rel']=-0.1 must be a finite number >= 0"),
        ({"tolerances": {"ekman_rate_rel": math.nan}},
         "tolerances['ekman_rate_rel']=nan must be a finite number >= 0"),
        ({"tolerances": ["ekman_rate_rel"]},
         "tolerances=['ekman_rate_rel'] must be a mapping of finite numbers >= 0"),
    ])
    def test_spec_grids_and_tolerances_checked(self, tmp_path, capsys, entries, message):
        # these used to raise TypeError (a traceback, exit 1), read a string
        # grid by character, run every point before failing, or exit 2 with a
        # message that did not name the key
        self.assert_spec_rejected(tmp_path, capsys, entries, message)

    @pytest.mark.parametrize("command", ["direct", "compare", "envelope"])
    @pytest.mark.parametrize("t_end", [math.inf, math.nan, -1.0])
    def test_time_must_be_finite(self, tmp_path, capsys, command, t_end):
        # an infinite t_end used to die in solve_direct with OverflowError
        # (exit 1), and the envelope blamed a coefficient of the mode
        cfg = tmp_path / "cfg.json"
        grid = {} if command == "envelope" else {"Nz": 64}
        cfg.write_text(json.dumps({"epsilon": 1e-2, "nu": 1e-2, "gamma": {"1,0,1": 1.0},
                                   "t_end": t_end, **grid}))
        with pytest.raises(SystemExit) as exc:
            main([command, "--config", str(cfg), "--out", str(tmp_path / "out")])
        assert exc.value.code == 2
        assert f"t_end={t_end!r} must be a finite number >= 0" in capsys.readouterr().err

    def test_spec_numbers_stored_as_floats(self):
        # numeric strings convert as the eps, nu and beta grids do
        spec = ExperimentSpec(kind="ekman_rate", epsilon=["1e-2"], mu="0.5", t_end="0.01",
                              dt_factor="20", Nz=64)
        assert (spec.epsilon, spec.mu, spec.t_end, spec.dt_factor) == ([1e-2], 0.5, 0.01, 20.0)
        assert all(type(v) is float for v in (spec.mu, spec.t_end, spec.dt_factor))

    def test_sweep_keys_are_the_spec_fields(self):
        from rotstrip.cli import CONFIG_KEYS

        assert CONFIG_KEYS["sweep"] == set(ExperimentSpec.__dataclass_fields__)

    def test_unknown_config_key_rejected(self, tmp_path, capsys):
        # a misspelled key, and N: a key that was once read but never used
        for command, key in (("direct", "t_ned"), ("modes", "N")):
            cfg = tmp_path / f"{command}.json"
            cfg.write_text(json.dumps({"epsilon": 1e-2, "nu": 1e-2, key: 4 if key == "N" else 0.3}))
            with pytest.raises(SystemExit) as exc:
                main([command, "--config", str(cfg), "--out", str(tmp_path / "out")])
            assert exc.value.code == 2
            assert key in capsys.readouterr().err

    def test_compare_command(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"case": "dirichlet", "epsilon": 1e-2, "nu": 1e-2,
                                   "gamma": {"1,0,1": 1.0}, "t_end": 0.05,
                                   "Nz": 96, "nt": 4}))
        out = tmp_path / "out"
        assert main(["compare", "--config", str(cfg), "--out", str(out)]) == 0
        assert (out / "error_curve.csv").exists()

    @pytest.mark.filterwarnings("ignore::rotstrip.layers.AmbiguousSelectionWarning")
    def test_sweep_command_exit_codes(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"kind": "bl_scaling",
                                   "epsilon": [1e-2, 1e-3, 1e-4]}))
        out = tmp_path / "out"
        assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == 0

    def test_bad_parallel_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"epsilon": 1e-3, "nu": 1e-3, "kmax": 1}))
        for command, value, message in (("sweep", "-3", "at least 1"),
                                        ("sweep", "0", "at least 1"),
                                        ("sweep", "two", "invalid int"),
                                        ("modes", "2", "sweep only")):
            with pytest.raises(SystemExit) as exc:
                main([command, "--config", str(cfg), "--out", str(tmp_path / "out"),
                      "--parallel", value])
            assert exc.value.code == 2
            assert message in capsys.readouterr().err

    @pytest.mark.parametrize("spec, parallel, message", [
        ({"kind": "bl_scaling", "epsilon": [1e-2, 1e-3, 1e-4]}, "2",
         "bl_scaling runs in the calling process"),
        ({"kind": "resonant_growth", "epsilon": [1e-3, 1e-4]}, "1",
         "resonant_growth runs one grid point, got 2"),
    ])
    def test_sweep_the_run_cannot_honour_rejected(self, tmp_path, capsys, spec,
                                                  parallel, message):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(spec))
        with pytest.raises(SystemExit) as exc:
            main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "out"),
                  "--parallel", parallel])
        assert exc.value.code == 2
        assert message in capsys.readouterr().err

    def test_seedless_guard_trips_on_randomness(self):
        from rotstrip.cli import seedless_guard

        with pytest.raises(RuntimeError, match="seedless"):
            with seedless_guard(True):
                np.random.default_rng(0)
        # restored afterwards
        np.random.default_rng(0)


def test_parse_helpers():
    g = parse_gamma({"1,0,1": [1.0, -2.0], "0,0,2": 0.5})
    assert g[(1, 0, 1)] == 1.0 - 2.0j
    tr = parse_trace({"1.0,1,0": [[1.0, 0.0], [0.0, 1.0]]}, 1)
    assert tr.side == 1
    assert tr.table[(1.0, (1, 0))][1] == 1j


def test_parse_trace_rejects_values_that_are_not_two_entries():
    for value in ([1.0, 0.0, 5.0], [1.0], 1.0, "1,0"):
        with pytest.raises(ValueError, match="0.5,1,0"):
            parse_trace({"0.5,1,0": value}, 0)


def test_parse_rejects_keys_naming_one_entry():
    with pytest.raises(ValueError, match="1.0,0,0"):
        parse_trace({"1,0,0": [1.0, 0.0], "1.0,0,0": [0.0, 1.0]}, 1)
    with pytest.raises(ValueError, match="1,0,01"):
        parse_gamma({"1,0,1": 1.0, "1,0,01": 2.0})
    # distinct entries still parse
    assert len(parse_trace({"1,0,0": [1.0, 0.0], "-1,0,0": [0.0, 1.0]}, 1).table) == 2
    assert parse_gamma({"1,0,1": 1.0, "1,0,-1": 2.0}).modes() == [(1, 0, -1), (1, 0, 1)]


def test_envelope_csv_solves_the_pumping_once(tmp_path, monkeypatch):
    # a T-time envelope CSV makes one batched pumping call, not one per time,
    # and writes what per-time evolve_c calls give
    from rotstrip import envelope
    from rotstrip.harness import envelope_csv, _write_csv

    calls = []
    original = envelope.pumping

    def counting(modes, params):
        calls.append(len(modes))
        return original(modes, params)

    gamma = SpectralField({(1, 0, 1): 1.0, (0, 1, -1): 0.3 - 0.7j, (0, 0, 1): 0.8,
                           (2, -1, 3): 0.1 + 0.9j})
    p = Params(1e-3, 2e-3)
    times = np.linspace(0.0, 3.0, 50)
    monkeypatch.setattr(envelope, "pumping", counting)
    envelope_csv(gamma, p, times, tmp_path / "envelope.csv")
    assert calls == [4]
    monkeypatch.setattr(envelope, "pumping", original)

    header = (tmp_path / "envelope.csv").read_text().splitlines()[0].split(",")
    rows = []
    for t in times:
        c = envelope.evolve_c(gamma, p, float(t))
        rows.append([float(t)] + [c[k].real for k in gamma.modes()]
                    + [c[k].imag for k in gamma.modes()])
    _write_csv(tmp_path / "per_time.csv", header, rows)
    assert (tmp_path / "envelope.csv").read_bytes() == (tmp_path / "per_time.csv").read_bytes()
