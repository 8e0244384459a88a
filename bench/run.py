"""Benchmark of rotstrip: four checked workloads, timed end to end and per layer.

    python3 bench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a checkout; the package is imported from ./src and
nowhere else.  A run builds the workload's inputs from the seed, repeats
whole rounds of its operations for about S seconds (every round's outputs
are checked), and prints as its last line one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones (wall_s, setup_s, cpu_s,
peak_rss_mib), their times rescaled to a fixed host speed sampled while
they run (see hostspeed.py); with --trace 1 rounds alternate untraced and
traced and the metrics are the per-layer ones, as measured, plus the tracing
overhead and the share of wall time the layer spans cover.  See
bench/README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback

# one BLAS thread per process, set before numpy is first imported
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(BENCH_DIR, "out")
DEFAULT_SEED = 1
SETUP_REPEATS = 5


def import_package():
    """Import rotstrip from this checkout's src/, refusing any other copy."""
    sys.path.insert(0, SRC)
    try:
        import rotstrip
    except ImportError as exc:
        sys.exit(f"cannot import rotstrip from {SRC}: {exc}")
    where = os.path.dirname(os.path.abspath(rotstrip.__file__))
    if where != os.path.join(SRC, "rotstrip"):
        sys.exit(f"rotstrip was imported from {where}, not from {SRC}")


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def cpu_now() -> float:
    """User plus system CPU of this process and its reaped children."""
    me = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return me.ru_utime + me.ru_stime + kids.ru_utime + kids.ru_stime


def peak_rss_mib() -> float:
    """Peak resident memory, the larger of this process and its children."""
    kib = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
              resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kib / 1024.0


def measure_setup(workload: str, seed: int) -> list:
    """Wall time of a fresh interpreter that imports rotstrip and builds the
    workload's inputs, repeated SETUP_REPEATS times: (at reference speed,
    as measured) of each."""
    import hostspeed
    times = []
    for _ in range(SETUP_REPEATS):
        # no timeout: with one, the wait polls in 50 ms sleeps and quantises the time
        with hostspeed.Timed(cpu_now) as timed:
            subprocess.run([sys.executable, os.path.abspath(__file__), "--setup-only",
                            "--workload", workload, "--seed", str(seed)],
                           check=True, cwd=ROOT)
        times.append((timed.wall, timed.raw_wall))
    return times


def layer_metrics(tr, wall: float, probe) -> dict:
    """Per-layer figures of one traced round (units in the metric names)."""
    probe_s, probe_columns = probe
    count = tr.counts.get
    solve_s = tr.total("direct.solve")
    steps = count("direct.column_steps", 0)
    hat = tr.total("correctors.hat_profile")
    compare_s = tr.total("harness.compare")
    return {
        "direct.solve_s": (solve_s, "s"),
        "direct.columns": (count("direct.columns", 0), "count"),
        "direct.column_steps": (steps, "count"),
        "direct.snapshots": (count("direct.snapshots", 0), "count"),
        "direct.column_setup_ms": (1e3 * probe_s / probe_columns if probe_columns else 0.0, "ms"),
        "direct.step_us": (1e6 * (solve_s - probe_s) / steps if steps else 0.0, "us"),
        "correctors.assemble_wind_s": (tr.total("correctors.assemble_wind"), "s"),
        "correctors.assemble_dirichlet_s": (tr.total("correctors.assemble_dirichlet"), "s"),
        "correctors.total_norm_s": (tr.total("correctors.total_norm"), "s"),
        "correctors.parts": (count("correctors.parts", 0), "count"),
        "correctors.hat_profile_s": (hat, "s"),
        "harness.compare_s": (compare_s, "s"),
        "harness.compare_self_s": (compare_s - hat, "s"),
        "harness.profile_evals": (count("harness.profile_evals", 0), "count"),
        "layers.build_B_s": (tr.total("layers.build_B"), "s"),
        "layers.decay_rates_s": (tr.total("layers.decay_rates"), "s"),
        "layers.trace_residuals_s": (tr.total("layers.trace_residuals"), "s"),
        "layers.ambiguous_selections": (count("layers.ambiguous_selections", 0), "count"),
        "envelope.damping_table_s": (tr.total("envelope.damping_table"), "s"),
        "harness.run_s": (tr.total("harness.run"), "s"),
        "harness.points": (count("harness.points", 0), "count"),
        "harness.fit_decay_s": (tr.total("harness.fit_decay"), "s"),
        "cli.main_s": (tr.total("cli.main"), "s"),
        "cli.files_written": (count("cli.files_written", 0), "count"),
        "cli.bytes_written": (count("cli.bytes_written", 0), "count"),
        "trace.coverage_pct": (100.0 * tr.top_level() / wall, "%"),
        "trace.spectral_pct": (100.0 * tr.total("spectral") / wall, "%"),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help="import the package, build the inputs and exit (times set-up)")
    args = ap.parse_args(argv)

    import_package()
    sys.path.insert(0, BENCH_DIR)
    import hostspeed
    import tracing
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        sys.exit(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    wl = WORKLOADS[args.workload]
    workdir = os.path.join(OUT, f"{args.workload}-{os.getpid():08d}")
    if args.setup_only:
        wl.build(args.seed, workdir, False)
        _remove(workdir)
        return 0

    setup = [] if args.trace else measure_setup(args.workload, args.seed)
    inputs = wl.build(args.seed, workdir, False)
    ops = wl.ops(inputs)
    # (traced, wall_s, cpu_s, layer metrics or None, measured wall_s, measured cpu_s);
    # wall_s and cpu_s are rescaled to reference speed unless the run is traced
    rounds = []
    spans = []  # one span record per traced round, written to the trace file
    attempted = failed = 0
    failures = []
    start = time.perf_counter()
    try:
        while True:
            # free the previous round's outputs, cycles included, outside the timing
            outputs = None
            gc.collect()
            traced = bool(args.trace) and len(rounds) % 2 == 1
            tr = tracing.Tracer(workdir) if traced else tracing.NullTracer()
            attempted += ops
            # a traced run keeps its span times free of the speed samples
            timed = contextlib.nullcontext() if args.trace else hostspeed.Timed(cpu_now, workdir)
            cpu0, t0 = cpu_now(), time.perf_counter()
            try:
                with timed:
                    if traced:
                        with tracing.instrument(tr):
                            outputs = wl.run(inputs, tr)
                    else:
                        outputs = wl.run(inputs, tr)
            except Exception:  # a failed round counts all its operations as failed
                traceback.print_exc()
                failed += ops
                outputs = None
            wall = raw_wall = time.perf_counter() - t0
            cpu = raw_cpu = cpu_now() - cpu0
            if not args.trace:
                wall, cpu, raw_wall, raw_cpu = timed.wall, timed.cpu, timed.raw_wall, timed.raw_cpu
            layers = None
            if traced:
                tr.merge_spool()
                layers = layer_metrics(tr, wall, wl.probe(inputs))
                spans.append(_span_record(tr, t0, wall))
            rounds.append((traced, wall, cpu, layers, raw_wall, raw_cpu))
            if outputs is not None:
                failures += [f"round {len(rounds)}: {f}" for f in wl.check(inputs, outputs)]
            elapsed = time.perf_counter() - start
            enough = len(rounds) >= max(wl.min_rounds, 2 if args.trace else 1)
            if enough and elapsed + raw_wall > args.seconds:
                break
    finally:
        _remove(workdir)

    for f in failures:
        print(f"CHECK FAILED: {f}", file=sys.stderr)
    plain = [r for r in rounds if not r[0]]
    if args.trace:
        metrics = _traced_metrics(rounds, plain)
        os.makedirs(OUT, exist_ok=True)
        path = os.path.join(OUT, f"trace-{args.workload}-seed{args.seed}.json")
        with open(path, "w") as f:
            json.dump({"workload": args.workload, "seed": args.seed, "rounds": spans}, f)
    else:
        metrics = {
            "wall_s": (statistics.median(r[1] for r in plain), "s"),
            "setup_s": (statistics.median(s for s, _ in setup), "s"),
            "cpu_s": (statistics.median(r[2] for r in plain), "s"),
            "peak_rss_mib": (peak_rss_mib(), "MiB"),
        }
        spread = {"wall_s": [(r[1], r[4]) for r in plain], "setup_s": setup,
                  "cpu_s": [(r[2], r[5]) for r in plain]}
        for name, pairs in spread.items():
            for label, values in (("at reference speed", [a for a, _ in pairs]),
                                  ("as measured", [b for _, b in pairs])):
                q1, q2, q3 = quartiles(values)
                print(f"{args.workload} {name} {label}: median {q2:.4f} s, quartiles "
                      f"{q1:.4f}..{q3:.4f} over {len(values)} samples: "
                      f"{' '.join(f'{v:.3f}' for v in values)}")
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


def _traced_metrics(rounds, plain) -> dict:
    traced = [r for r in rounds if r[0]]
    layers = [r[3] for r in traced]
    metrics = {name: (statistics.median(m[name][0] for m in layers), unit)
               for name, (_, unit) in layers[0].items()}
    wall_traced = statistics.median(r[1] for r in traced)
    wall_plain = statistics.median(r[1] for r in plain)
    metrics["trace.overhead_s"] = (wall_traced - wall_plain, "s")
    metrics["trace.overhead_pct"] = (100.0 * (wall_traced - wall_plain) / wall_plain, "%")
    return metrics


def _span_record(tr, t0, wall) -> dict:
    """The spans of one traced round, times relative to its start."""
    return {
        "wall_s": wall,
        "counts": tr.counts,
        "summed_calls": {name: {"seconds": sec, "calls": n}
                         for name, (sec, n) in tr.times.items()},
        "spans": [[name, a - t0, b - a, depth, pid] for name, a, b, depth, pid in tr.spans],
    }


def _remove(path):
    shutil.rmtree(path, ignore_errors=True)
    if os.path.isdir(OUT) and not os.listdir(OUT):
        os.rmdir(OUT)


if __name__ == "__main__":
    sys.exit(main())
