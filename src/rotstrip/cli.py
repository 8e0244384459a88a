"""Batch command-line front end.

Subcommands: modes (eigen/damping tables), bl (build and evaluate the layer
operator), envelope (filtered amplitude evolution), direct (reference solve),
compare (direct vs assembled approximation), sweep (experiment specs).  All
input comes from --config (JSON, or simple key=value lines); outputs are flat
CSVs plus a JSON summary.  Exit code 0 iff every declared check passed.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import itertools
import json
import os
import sys

import numpy as np

from .params import Params, _finite, check_integer
from .spectral import SpectralField
from .layers import BoundaryTrace, build_B, trace_residuals
from .harness import (
    ExperimentSpec,
    compare,
    envelope_csv,
    run,
    write_damping_csv,
    _write_csv,
)
from .correctors import ApproxSolution, assemble_dirichlet_approx, assemble_wind_approx
from .direct import diagnostics_csv, snapshot_csv, solve_direct


def load_config(path) -> dict:
    """JSON if the file starts with '{', else simple key=value lines (values
    parsed as JSON where possible, kept as strings otherwise)."""
    with open(path) as f:
        text = f.read()
    if text.lstrip().startswith("{"):
        return json.loads(text)
    out = {}
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        key, _, value = line.partition("=")
        value = value.strip()
        try:
            out[key.strip()] = json.loads(value)
        except json.JSONDecodeError:
            out[key.strip()] = value
    return out


def _is_number(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def _as_complex(key, v) -> complex:
    """v, a number or exactly a [re, im] pair of numbers, as a complex; any
    other v is a ValueError naming the table key it came from."""
    if _is_number(v):
        return complex(v)
    if isinstance(v, (list, tuple)) and len(v) == 2 and all(map(_is_number, v)):
        return complex(v[0], v[1])
    raise ValueError(f"key {key!r}: a coefficient must be a number or a [re, im] pair "
                     f"of numbers, got {v!r}")


def _items(table, form: str):
    """The (key, value) pairs of a config table keyed "form"; anything but a
    mapping is a ValueError."""
    if not isinstance(table, dict):
        raise ValueError(f"expected a table {{\"{form}\": ...}}, got {table!r}")
    return table.items()


def _fields(key, form: str, types) -> tuple:
    """The three comma-separated fields of a table key, converted by types;
    a key that does not read form is a ValueError naming it."""
    parts = str(key).split(",")
    try:
        if len(parts) != 3:
            raise ValueError
        return tuple(t(p) for t, p in zip(types, parts))
    except ValueError:
        raise ValueError(f"key {key!r} must have three components {form}") from None


def parse_gamma(table: dict) -> SpectralField:
    """{"k1,k2,k3": amplitude} with amplitude a number or [re, im]; two keys
    naming one mode are rejected."""
    coeffs = {}
    for key, v in _items(table, "k1,k2,k3"):
        k = _fields(key, "k1,k2,k3, each an integer", (int, int, int))
        if k in coeffs:
            raise ValueError(f"gamma key {key!r} names mode {k} again")
        coeffs[k] = _as_complex(key, v)
    return SpectralField(coeffs)


def parse_trace(table: dict, side: int) -> BoundaryTrace:
    """{"mu,k1,k2": [v1, v2]} with entries numbers or [re, im] pairs; a value
    that is not two entries, and two keys naming one entry, are rejected."""
    out = {}
    for key, v in _items(table, "mu,k1,k2"):
        mu, k1, k2 = _fields(key, "mu,k1,k2: a number and two integers", (float, int, int))
        entry = (mu, (k1, k2))
        if entry in out:
            raise ValueError(f"trace key {key!r} names entry {entry} again")
        if not isinstance(v, (list, tuple)) or len(v) != 2:
            raise ValueError(f"trace value of key {key!r} must be two entries [v1, v2], got {v!r}")
        out[entry] = np.array([_as_complex(key, v[0]), _as_complex(key, v[1])])
    return BoundaryTrace(side, out)


PARAM_KEYS = {"epsilon", "nu", "beta"}

#: config keys each subcommand reads
CONFIG_KEYS = {
    "modes": PARAM_KEYS | {"kmax", "modes"},
    "bl": PARAM_KEYS | {"delta0", "delta1", "t"},
    "envelope": PARAM_KEYS | {"gamma", "t_end", "nt"},
    "direct": PARAM_KEYS | {"gamma", "sigma", "t_end", "dt_factor", "Nz", "save_every"},
    "compare": PARAM_KEYS | {"case", "gamma", "sigma", "full_sum", "t_end", "dt_factor",
                             "Nz", "save_every", "nt"},
    "sweep": {f.name for f in dataclasses.fields(ExperimentSpec)},
}
#: config keys a subcommand cannot run without: ExperimentSpec's fields without a default
REQUIRED_KEYS = {"sweep": {f.name for f in dataclasses.fields(ExperimentSpec)
                           if f.default is dataclasses.MISSING
                           and f.default_factory is dataclasses.MISSING}}


def params_from(cfg: dict) -> Params:
    return Params(
        epsilon=_finite("epsilon", cfg.get("epsilon", 1e-3)),
        nu=_finite("nu", cfg.get("nu", 1e-3)),
        beta=_finite("beta", cfg.get("beta", Params.beta)),
    )


@contextlib.contextmanager
def seedless_guard(enabled: bool):
    """Assert no randomness is consumed: poison the usual numpy entry points
    for the duration of the command."""
    if not enabled:
        yield
        return
    names = ["random", "standard_normal", "normal", "uniform", "rand", "randn",
             "randint", "default_rng", "seed"]
    saved = {n: getattr(np.random, n) for n in names}

    def poison(name):
        def _fail(*a, **k):
            raise RuntimeError(f"--seedless violated: np.random.{name} was called")
        return _fail

    try:
        for n in names:
            setattr(np.random, n, poison(n))
        yield
    finally:
        for n, fn in saved.items():
            setattr(np.random, n, fn)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def cmd_modes(cfg, outdir):
    p = params_from(cfg)
    kmax = check_integer("kmax", cfg.get("kmax", 3), 1)
    modes = cfg.get("modes")
    if modes is not None and not isinstance(modes, list):
        raise ValueError(f"modes={modes!r} must be a list of \"k1,k2,k3\" entries")
    if modes:
        modes = [_fields(m, "k1,k2,k3, each an integer", (int, int, int)) for m in modes]
    else:
        modes = [k for k in itertools.product(range(-kmax, kmax + 1), repeat=3)
                 if k != (0, 0, 0)]
    write_damping_csv(modes, p, os.path.join(outdir, "modes.csv"))
    return []


def cmd_bl(cfg, outdir):
    p = params_from(cfg)
    t = _finite("t", cfg.get("t", 0.1), 0.0)
    delta0 = parse_trace(cfg.get("delta0", {}), 0)
    delta1 = parse_trace(cfg.get("delta1", {}), 1)
    sol = build_B(delta0, delta1, p)
    tab = sol.table
    rows = []
    for kind, quasi in (("classical", False), ("quasi_resonant", True)):
        for i, j in zip(*np.nonzero(tab.keep & (tab.quasi == quasi)[:, None])):
            lam, alpha = tab.q[i, j] * p.layer_scale, tab.alpha[i, j]
            rows.append((kind, int(tab.side[i]), float(tab.mu[i]), int(tab.k_h[i, 0]),
                         int(tab.k_h[i, 1]), 2 * int(j) - 1, lam.real, lam.imag,
                         alpha.real, alpha.imag))
    for layer in sol.resonant:
        for mu, amplitude in layer.entries:
            rows.append(("resonant", layer.side, mu, 0, 0, 0,
                         0.0, 0.0, amplitude.real, amplitude.imag))
    _write_csv(os.path.join(outdir, "bl_modes.csv"),
               ["kind", "side", "mu", "k1", "k2", "sigma",
                "re_lambda", "im_lambda", "re_alpha", "im_alpha"], rows)
    res = trace_residuals(sol, p, t=t)
    rrows = []
    for name in ("classical_bottom_at_top", "classical_top_at_bottom",
                 "quasi_bottom_at_top", "quasi_top_at_bottom"):
        for r in getattr(res, name):
            rrows.append((name, r["mu"], r["k_h"][0], r["k_h"][1], r["magnitude"]))
    for r in res.resonant_traces:
        rrows.append(("resonant", 0.0, 0, 0, r["magnitude"]))
    _write_csv(os.path.join(outdir, "bl_traces.csv"),
               ["part", "mu", "k1", "k2", "magnitude"], rrows)
    norms = {part: sol.part_norm_h(part, t)
             for part in ("classical", "quasi_resonant", "resonant")}
    with open(os.path.join(outdir, "bl_summary.json"), "w") as f:
        json.dump({"norms_h": norms}, f, indent=2)
    return []


def cmd_envelope(cfg, outdir):
    p = params_from(cfg)
    gamma = parse_gamma(cfg.get("gamma", {"1,0,1": 1.0}))
    t_end = _finite("t_end", cfg.get("t_end", 1.0), 0.0)
    nt = check_integer("nt", cfg.get("nt", 21), 1)
    envelope_csv(gamma, p, np.linspace(0.0, t_end, nt), os.path.join(outdir, "envelope.csv"))
    write_damping_csv(gamma.modes(), p, os.path.join(outdir, "modes.csv"))
    return []


def _solve(cfg, p, gamma, sigma, t_end):
    """solve_direct with the config's dt = epsilon / dt_factor, Nz and save_every."""
    dt_factor = _finite("dt_factor", cfg.get("dt_factor", 10.0))
    if dt_factor <= 0.0:
        raise ValueError(f"dt_factor={dt_factor:g} must be positive")
    return solve_direct(gamma, sigma, p, t_end=t_end, dt=p.epsilon / dt_factor,
                        Nz=check_integer("Nz", cfg.get("Nz", 256)),
                        save_every=cfg.get("save_every", 10))


def cmd_direct(cfg, outdir):
    p = params_from(cfg)
    gamma = parse_gamma(cfg.get("gamma", {}))
    sigma = parse_trace(cfg.get("sigma", {}), 1) if cfg.get("sigma") else None
    out = _solve(cfg, p, gamma, sigma, _finite("t_end", cfg.get("t_end", 0.1), 0.0))
    for k_h, traj in sorted(out.items()):
        stem = f"mode_{k_h[0]}_{k_h[1]}"
        snapshot_csv(traj, os.path.join(outdir, f"{stem}_snapshots.csv"))
        diagnostics_csv(traj, os.path.join(outdir, f"{stem}_diagnostics.csv"))
    return []


def cmd_compare(cfg, outdir):
    p = params_from(cfg)
    case = cfg.get("case", "dirichlet")
    t_end = _finite("t_end", cfg.get("t_end", 0.2), 0.0)
    nt = check_integer("nt", cfg.get("nt", 9), 1)
    if case == "dirichlet":
        gamma = parse_gamma(cfg.get("gamma", {"1,0,1": 1.0}))
        direct = _solve(cfg, p, gamma, None, t_end)
        approx = assemble_dirichlet_approx(gamma, p)
        target = approx if cfg.get("full_sum") else ApproxSolution(
            p, {"interior_envelope": approx.parts["interior_envelope"]})
    elif case == "wind":
        sigma = parse_trace(cfg.get("sigma", {"0.0,1,0": [1.0, 0.0]}), 1)
        direct = _solve(cfg, p, SpectralField({}), sigma, t_end)
        target = assemble_wind_approx(sigma, p)
    else:
        raise ValueError(f"unknown compare case {case!r}")
    res = compare(direct, target, np.linspace(0.0, t_end, nt))
    _write_csv(os.path.join(outdir, "error_curve.csv"), ["t", "error"],
               list(zip(res["times"], res["errors"])))
    with open(os.path.join(outdir, "compare_summary.json"), "w") as f:
        json.dump({"sup_error": res["sup_error"],
                   "part_norms": res["part_norms"],
                   "attribution_flags": res["attribution_flags"]}, f, indent=2, default=str)
    return [{"name": "attribution_complete", "value": len(res["attribution_flags"]),
             "tolerance": "no triangle-inequality violations",
             "passed": not res["attribution_flags"]}]


def cmd_sweep(cfg, outdir, parallel=1):
    cfg = dict(cfg)
    cfg.setdefault("out", outdir)
    spec = ExperimentSpec(**cfg)
    summary = run(spec, parallel=parallel)
    return summary["checks"] + [
        {"name": f"error:{e}", "value": e, "tolerance": "none", "passed": False}
        for e in summary["errors"]]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="rotstrip",
        description="Batch experiments for the rotating-strip laboratory.")
    parser.add_argument("command", choices=["modes", "bl", "envelope", "direct",
                                            "compare", "sweep"])
    parser.add_argument("--config", help="JSON or key=value parameter file")
    parser.add_argument("--out", default="rotstrip_out", help="output directory")
    parser.add_argument("--parallel", type=int, default=1, metavar="N",
                        help="grid points to run concurrently, N >= 1 (sweep only)")
    parser.add_argument("--seedless", action="store_true",
                        help="assert that no randomness is consumed")
    args = parser.parse_args(argv)
    if args.parallel < 1:
        parser.error(f"--parallel must be at least 1, got {args.parallel}")
    if args.parallel != 1 and args.command != "sweep":
        parser.error(f"--parallel {args.parallel} applies to sweep only, not {args.command}")

    cfg = load_config(args.config) if args.config else {}
    unknown = sorted(set(cfg) - CONFIG_KEYS[args.command])
    if unknown:
        parser.error(f"unknown config key(s) for {args.command}: {', '.join(unknown)}")
    missing = sorted(REQUIRED_KEYS.get(args.command, set()) - set(cfg))
    if missing:
        parser.error(f"missing config key(s) for {args.command}: {', '.join(missing)}")
    os.makedirs(args.out, exist_ok=True)

    commands = {"modes": cmd_modes, "bl": cmd_bl, "envelope": cmd_envelope,
                "direct": cmd_direct, "compare": cmd_compare,
                "sweep": lambda cfg, out: cmd_sweep(cfg, out, parallel=args.parallel)}
    with seedless_guard(args.seedless):
        try:
            checks = commands[args.command](cfg, args.out)
        except ValueError as exc:  # input the command cannot honour
            parser.error(str(exc))

    summary = {"command": args.command, "out": args.out,
               "seedless": bool(args.seedless), "checks": checks,
               "all_passed": all(c["passed"] for c in checks)}
    with open(os.path.join(args.out, "run_summary.json"), "w") as f:
        json.dump(summary, f, indent=2, default=str)
    for c in checks:
        status = "PASS" if c["passed"] else "FAIL"
        print(f"[{status}] {c['name']}: {c['value']} (tolerance {c['tolerance']})")
    return 0 if summary["all_passed"] else 1


if __name__ == "__main__":
    sys.exit(main())
