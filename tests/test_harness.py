"""Harness: regressions, experiment runner, comparisons, CLI."""

import json
import math
import os

import numpy as np
import pytest

from rotstrip.params import Params
from rotstrip.spectral import SpectralField
from rotstrip.layers import BoundaryTrace
from rotstrip.correctors import assemble_dirichlet_approx
from rotstrip.direct import solve_direct
from rotstrip.harness import (
    ExperimentSpec,
    _EnvelopeOnly,
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


class TestRun:
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

    def test_rerun_byte_identical(self, tmp_path):
        for sub in ("a", "b"):
            spec = ExperimentSpec(kind="bl_scaling",
                                  epsilon=[1e-2, 1e-3, 1e-4],
                                  out=str(tmp_path / sub))
            run(spec)
        a = (tmp_path / "a" / "bl_scaling.csv").read_bytes()
        b = (tmp_path / "b" / "bl_scaling.csv").read_bytes()
        assert a == b

    def test_failures_recorded_per_point_and_run_continues(self, tmp_path):
        # first grid point has an absurd resolution for its layer and must be
        # rejected by the solver; the second is feasible and must still run
        spec = ExperimentSpec(kind="ekman_rate", epsilon=[1e-5, 1e-2],
                              Nz=96, t_end=0.05, out=str(tmp_path / "bad"))
        summary = run(spec)
        assert not summary["all_passed"]
        assert not summary["errors"]  # nothing fatal: recorded per point
        by_name = {c["name"]: c for c in summary["checks"]}
        assert not by_name["ekman_rate_point0"]["passed"]
        assert "ekman_rate_point1" in by_name


class TestParallelExecution:
    def test_parallel_matches_serial(self, tmp_path):
        sums = {}
        for tag, par in (("serial", 1), ("parallel", 2)):
            spec = ExperimentSpec(kind="ekman_rate", epsilon=[1e-2, 8e-3],
                                  Nz=128, t_end=0.3, save_every=20,
                                  out=str(tmp_path / tag))
            sums[tag] = run(spec, parallel=par)
        a = [c["value"] for c in sums["serial"]["checks"]]
        b = [c["value"] for c in sums["parallel"]["checks"]]
        assert a == b
        assert sums["parallel"]["all_passed"]


class TestDestabilizationExperiment:
    def test_resonant_column_tracks_selfsimilar_profile(self, tmp_path):
        spec = ExperimentSpec(kind="destabilization", epsilon=[3e-2], beta=[1.0],
                              t_end=8.0, Nz=128, dt_factor=10.0, save_every=100,
                              out=str(tmp_path / "dest"))
        summary = run(spec)
        assert not summary["errors"], summary["errors"]
        by_name = {c["name"]: c for c in summary["checks"]}
        assert by_name["selfsimilar_rel_error_early"]["passed"]
        assert by_name["strip_response_rel_error"]["passed"]


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

            def err_for(include):
                prof = approx.hat_profile((1, 0), t, traj.z, include=include)
                return 2 * np.pi * np.sqrt(np.sum(
                    traj.weights * np.sum(np.abs(u.T - prof) ** 2, axis=0)))

            bare = err_for(["surface_layer", "flux_corrector"])
            full = err_for(None)
            assert full < 0.8 * bare  # the corrector genuinely helps
            errs[eps] = full
        assert errs[1e-3] < 0.6 * errs[1e-2]  # absolute error vanishes

    def test_envelope_tracks_direct_at_moderate_params(self):
        p = Params(1e-2, 1e-2)
        gamma = SpectralField({(1, 0, 1): 1.0})
        out = solve_direct(gamma, None, p, t_end=0.2, Nz=192, save_every=10)
        approx = assemble_dirichlet_approx(gamma, p)
        res = compare(out, _EnvelopeOnly(approx), np.linspace(0.0, 0.2, 6))
        assert res["sup_error"] < 0.5 * gamma.norm()
        assert not res["attribution_flags"]


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

    def test_unknown_config_key_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"epsilon": 1e-2, "nu": 1e-2, "t_ned": 0.3}))
        with pytest.raises(SystemExit) as exc:
            main(["direct", "--config", str(cfg), "--out", str(tmp_path / "out")])
        assert exc.value.code != 0
        assert "t_ned" in capsys.readouterr().err

    def test_compare_command(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"case": "dirichlet", "epsilon": 1e-2, "nu": 1e-2,
                                   "gamma": {"1,0,1": 1.0}, "t_end": 0.05,
                                   "Nz": 96, "nt": 4}))
        out = tmp_path / "out"
        assert main(["compare", "--config", str(cfg), "--out", str(out)]) == 0
        assert (out / "error_curve.csv").exists()

    def test_sweep_command_exit_codes(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"kind": "bl_scaling",
                                   "epsilon": [1e-2, 1e-3, 1e-4]}))
        out = tmp_path / "out"
        assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == 0

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
