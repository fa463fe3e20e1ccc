"""conicwave benchmark: one command, three seeded closed-loop workloads.

Run from the repository root:

    python3 perfbench/run.py --workload {scatter,kernel,verify} \\
        --seed N --seconds S --trace {0,1}

The package is imported from ``src/`` of the same checkout, single-process,
with ``CONIC_THREADS`` unset and BLAS/OpenMP threads capped at the CPUs this
process may use.  Every run builds fresh models and engines, so every package
memo starts empty, as in a user's CLI run.

Workloads (details in ``workloads.py``):

* ``scatter``: ``scattering_data`` on four conical profiles, nine lambdas
  per profile and round over the decades of [1e-6, 1e2];
* ``kernel``: hyperboloid a=1, ``KernelEngine(xi_abs_max=1.1e3)``; a cold
  phase (the first ``evolution_kernel``, which builds the spectral table)
  and then ``--seconds`` of warm rounds, one (xi, xi') pair per sign stratum,
  each pair evaluated at three t for both kinds;
* ``verify``: ``cli.main`` in-process, five commands per round, CSVs checked.

End-to-end metrics (``--trace 0``), reported on every workload:

* ``setup_s``: median of 11 set-ups of the workload's profiles, charts,
  potentials and models (and the kernel engine);
* ``wall_s``: scatter and verify: median round wall time; kernel: the cold
  table build;
* ``ops_per_s``: ops per second over the untraced rounds;
* ``op_tail_ms``: the highest percentile of the round ops with at least ten
  samples beyond it (the maximum below 11 samples);
* ``slow_op_ms``, ``mid_op_ms``, ``fast_op_ms``: 10%-trimmed mean latency
  of the workload's three op classes (``workloads.CLASSES``); latencies are
  multi-modal, so an overall or per-class median would jump between modes;
* ``peak_rss_mb``: peak resident set size through the first round.

Times are converted to a reference machine speed by ``workloads.SpeedProbe``,
which times a fixed loop in a child process on the benchmark's CPU (the
host's speed drifts by up to 2x within seconds); the plain wall-clock values
are printed beside them and kept in the run record.

``--trace 1`` installs the span wrappers of ``tracing.py`` and reports the
per-layer metrics instead, with a per-phase self-time table.  Each run also
writes its full record (environment, failures, percentiles and, when
traced, the spans) to ``.perfbench_out/`` in the checkout.  The last line
of standard output is the result JSON.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = ROOT / ".perfbench_out"
WORKLOADS = ("scatter", "kernel", "verify")
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


def prepare() -> dict:
    """Pin threads and put the checkout's ``src`` first on the path.

    Must run before numpy is imported.  Raises SystemExit when the checkout
    has no package source.
    """
    env = {"CONIC_THREADS_was": os.environ.pop("CONIC_THREADS", None)}
    ncpu = len(os.sched_getaffinity(0))
    for var in THREAD_VARS:
        given = os.environ.get(var, "")
        if not (given.isdigit() and 1 <= int(given) <= ncpu):
            os.environ[var] = str(ncpu)
    src = ROOT / "src"
    if not (src / "conicwave" / "__init__.py").is_file():
        raise SystemExit(f"error: no package source at {src}/conicwave")
    sys.path.insert(0, str(src))
    env.update({var: os.environ[var] for var in THREAD_VARS})
    env["nproc"] = ncpu
    env["cpu_count"] = os.cpu_count()
    return env


def git_sha() -> str:
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def per_layer(run, tracer) -> dict:
    """Every per-layer metric of a traced run."""
    from tracing import LAYERS
    phases = tracer.phases()
    m = {}
    for layer in LAYERS:
        calls = sum(tracer.layer_table(ph).get(layer, [0, 0.0])[0]
                    for ph in phases)
        own = sum(tracer.layer_table(ph).get(layer, [0, 0.0])[1]
                  for ph in phases)
        m[f"{layer}.calls"] = (calls, "count")
        m[f"{layer}.self_s"] = (own, "s")

    def named(name, *fields):
        calls, outer, layer_s = tracer.named(phases, name)
        vals = {"calls": (calls, "count"), "top_calls": (outer, "count"),
                "self_s": (layer_s, "s")}
        for f in fields:
            m[f"{name}.{f}"] = vals[f]
        return calls, outer

    named("geometry.chart_build", "self_s")
    named("geometry.potential_build", "self_s")
    named("geometry.V", "calls")
    named("hankel.f0_values", "calls", "self_s")
    m["hankel.f0_values.points"] = (
        tracer.counter(phases, "hankel.f0_values.points"), "count")
    n_sets = named("volterra.separable_integrators", "calls")[0]
    named("panels.integrator_build", "calls", "self_s")
    n_sweeps = named("panels.node_values", "calls")[0]
    named("panels.interpolate", "self_s")
    m["panels.interpolate.points"] = (
        tracer.counter(phases, "panels.PanelGrid.interpolate.points"),
        "count")
    m["volterra.sweeps_per_solve"] = (
        n_sweeps / n_sets if n_sets else 0.0, "1")
    named("jost.scattering_data", "calls", "self_s")
    n_ivp = named("jost.solve_ivp", "calls", "self_s")[0]
    nfev = tracer.counter(phases, "jost.solve_ivp.nfev")
    m["jost.solve_ivp.nfev"] = (nfev, "count")
    m["jost.solve_ivp.nfev_per_call"] = (nfev / n_ivp if n_ivp else 0.0, "1")
    records = tracer.counter(phases, "kernel.records")
    m["kernel.records"] = (records, "count")
    cold = run.extra.get("cold")
    cold_s = cold[1] - cold[0] if cold else 0.0
    m["kernel.records_per_s"] = (
        run.extra.get("cold_records", 0) / cold_s if cold_s else 0.0, "1/s")
    named("kernel.evolution_kernel", "calls", "self_s")
    named("kernel.stationary_phase_check", "calls", "self_s")
    calls, top = named("oscquad.panel_osc_integral", "calls", "top_calls",
                       "self_s")
    m["oscquad.panel_osc_integral.bisect_ratio"] = (
        calls / top if top else 0.0, "1")
    named("oscquad.tail_integral", "calls")
    named("cli.main", "calls", "self_s")
    m["cli.csv_bytes"] = (tracer.counter(phases, "cli.csv_bytes"), "bytes")
    warm = [ph for ph in phases if ph == "warm"]
    m["warm.hankel.f0_values.calls"] = (
        tracer.named(warm, "hankel.f0_values")[0], "count")
    m["warm.jost.solve_ivp.calls"] = (
        tracer.named(warm, "jost.solve_ivp")[0], "count")
    m["warm.kernel.records"] = (tracer.counter(warm, "kernel.records"),
                                "count")
    traced = [t1 - t0 for tr, t0, t1, _ in run.rounds if tr]
    plain = [t1 - t0 for tr, t0, t1, _ in run.rounds if not tr]
    import statistics
    m["trace.overhead_frac"] = (
        statistics.median(traced) / statistics.median(plain) - 1.0
        if traced and plain else 0.0, "1")
    return m


def layer_report(tracer) -> str:
    from tracing import LAYERS
    lines = []
    for ph in tracer.phases():
        table = tracer.layer_table(ph)
        total = sum(v[1] for v in table.values()) or 1.0
        lines.append(f"phase {ph}: traced time {total:.3f} s")
        lines.append(f"  {'layer':<10}{'entries':>10}{'self_s':>11}"
                     f"{'share':>8}")
        for layer in ("bench",) + LAYERS:
            calls, own = table.get(layer, [0, 0.0])
            lines.append(f"  {layer:<10}{calls:>10}{own:>11.3f}"
                         f"{100 * own / total:>7.1f}%")
    return "\n".join(lines)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    if args.seed < 0:
        ap.error("--seed must be non-negative")
    env = prepare()
    t_start = time.perf_counter()

    import numpy
    import scipy
    import tracing
    import workloads as wl

    tracer = tracing.Tracer() if args.trace else tracing.NullTracer()
    # traced runs report counts and self times, not normalized latencies
    probe = wl.NullProbe() if args.trace else wl.SpeedProbe()
    if args.trace:
        tracer.install()
    run = wl.Run(args.workload, args.seed, args.seconds, tracer,
                 bool(args.trace))
    try:
        with probe:
            if args.workload == "scatter":
                wl.run_scatter(run, wl.load_reference("scatter"))
            elif args.workload == "kernel":
                wl.run_kernel(run, wl.load_reference("kernel"))
            else:
                wl.run_verify(run, wl.verify_reference(), OUT)
    finally:
        if args.trace:
            tracer.uninstall()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    why = next(w["why"] for w in spec["workloads"]
               if w["name"] == args.workload)
    e2e = wl.end_to_end(run, probe)
    metrics = per_layer(run, tracer) if args.trace else {
        k: (v, u) for k, (v, _, u) in e2e.items()}
    failed = len(run.failures)
    env.update({"git_sha": git_sha(), "python": platform.python_version(),
                "numpy": numpy.__version__, "scipy": scipy.__version__,
                "platform": platform.platform(), "seed": args.seed})
    record = {
        "workload": args.workload, "why": why,
        "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "env": env, "classes": wl.CLASSES[args.workload],
        "wall_s_is": wl.WALL[args.workload],
        "class_samples": run.extra.get("class_n"),
        "op_tail": run.extra.get("tail"),
        "rounds": [{"traced": tr, "wall_s": t1 - t0, "ops": n}
                   for tr, t0, t1, n in run.rounds],
        "setup_s_samples": [t1 - t0 for t0, t1 in run.setup],
        "probe": {"samples": len(probe.c),
                  "median_s": float(numpy.median(probe.c)) if len(probe.c)
                  else None,
                  "nominal_s": wl.PROBE_NOMINAL_S},
        "intervals": {"ops": run.samples, "rounds": run.rounds,
                      "setup": run.setup,
                      "probe_t": probe.t.tolist(),
                      "probe_c": probe.c.tolist()},
        "end_to_end": {k: v[0] for k, v in e2e.items()},
        "end_to_end_wall_clock": {k: v[1] for k, v in e2e.items()},
        "metrics": {k: v[0] for k, v in metrics.items()},
        "failures": run.failures[:50],
        "run_s": time.perf_counter() - t_start,
    }
    record.update({k: v for k, v in run.extra.items()
                   if k not in ("class_n", "tail")})
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if args.trace:
        record["trace_missing"] = tracer.missing
        with open(OUT / f"trace-{stem}.json", "w", encoding="utf-8") as fh:
            json.dump(tracer.dump(), fh)
    with open(OUT / f"result-{stem}.json", "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, default=str)

    cls_names = wl.CLASSES[args.workload]
    t = record["op_tail"]
    notes = {"wall_s": wl.WALL[args.workload],
             "op_tail_ms": f"p{t['percentile']:.1f} of n={t['n']}",
             "slow_op_ms": cls_names[0], "mid_op_ms": cls_names[1],
             "fast_op_ms": cls_names[2]}
    print(f"workload {args.workload} seed {args.seed}: "
          f"{run.attempted} ops, {failed} failed, "
          f"{len(run.rounds)} rounds")
    if args.trace:
        for name, (value, unit) in metrics.items():
            print(f"  {name:<42}{value:>16.6g} {unit}")
        print(layer_report(tracer))
        print(f"spans kept {len(tracer.spans)}, dropped {tracer.dropped}")
    else:
        print(f"  {'metric':<14}{'value':>14}{'wall clock':>14}")
        for name, (value, wall, unit) in e2e.items():
            print(f"  {name:<14}{value:>14.6g}{wall:>14.6g} {unit:<5}"
                  f"{notes.get(name, '')}")
    for line in run.failures[:10]:
        print(f"  FAILED {line}")
    result = {"correct": failed == 0, "attempted": run.attempted,
              "failed": failed,
              "metrics": {k: {"value": float(v), "unit": u}
                          for k, (v, u) in metrics.items()}}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
