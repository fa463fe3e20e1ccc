"""Tests of the benchmark itself.

    python3 -m pytest perfbench/test_perfbench.py

The package is imported from ``src/`` as ``run.py`` does.  The kernel
workload needs over a minute for its cold table build, so its checks run in
the benchmark runs themselves rather than here.
"""

from __future__ import annotations

import copy
import json
import shutil
import subprocess
import sys
import time

import run as bench

bench.prepare()

import conicwave  # noqa: E402
import numpy as np  # noqa: E402
import scipy.integrate  # noqa: E402
import tracing  # noqa: E402
import workloads as wl  # noqa: E402

SPEC = json.loads((bench.ROOT / "BENCHMARK.json").read_text())


def _bench(*args, cwd=bench.ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args],
                          cwd=cwd, capture_output=True, text=True,
                          timeout=600)


def _scatter(seed: int, traced: bool, reference=None) -> wl.Run:
    tracer = tracing.Tracer() if traced else tracing.NullTracer()
    run = wl.Run("scatter", seed, 0.01, tracer, traced)
    if traced:
        tracer.install()
    try:
        wl.run_scatter(run, reference or wl.load_reference("scatter"))
    finally:
        if traced:
            tracer.uninstall()
    return run


def test_smoke_run_prints_the_declared_metrics():
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        proc = _bench("--workload", "scatter", "--seed", "3", "--seconds",
                      "0.1", "--trace", str(trace))
        assert proc.returncode == 0, proc.stderr
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0
        assert result["attempted"] >= 1
        assert list(result["metrics"]) == [m["name"] for m in SPEC[key]]
        for m in SPEC[key]:
            assert result["metrics"][m["name"]]["unit"] == m["unit"]


def test_planted_reference_fault_counts_as_failure():
    ref = copy.deepcopy(wl.load_reference("scatter"))
    for entries in ref["pools"]["hyperboloid-a1"].values():
        for entry in entries:
            entry["W"] = [x * (1.0 + 1e-4) for x in entry["W"]]
    run = _scatter(5, False, ref)
    assert run.attempted == 4 * len(wl.SCATTER_DRAWS)
    assert len(run.failures) == len(wl.SCATTER_DRAWS)
    assert all("W deviates" in f for f in run.failures)


def test_planted_csv_fault_is_reported():
    want = wl.verify_reference()["coeffs-0"]
    header, row, rest = want.split("\n", 2)
    cells = row.split(",")
    cells[9] = repr(float(cells[9]) * (1.0 + 1e-4))        # re_W
    assert wl.csv_problems(want, want) == []
    assert wl.csv_problems("\n".join([header, ",".join(cells), rest]), want)


def test_traced_outputs_equal_untraced_and_wrappers_are_removed():
    plain = _scatter(7, False)
    traced = _scatter(7, True)
    assert len(traced.rounds) == 2 and traced.rounds[0][0]
    assert plain.outputs and not plain.failures and not traced.failures
    for key, out in plain.outputs.items():
        assert traced.outputs[key] == out, key
    assert conicwave.jost.solve_ivp is scipy.integrate.solve_ivp
    assert conicwave.cli.stationary_phase_check \
        is conicwave.kernel.stationary_phase_check
    assert not hasattr(conicwave.ScatteringModel.scattering_data,
                       "__wrapped__")


def test_exits_nonzero_without_package_source(tmp_path):
    shutil.copy(bench.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(bench.BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench("--workload", "scatter", "--seed", "1", "--seconds", "1",
                  "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_speed_probe_samples_and_stops_its_child():
    probe = wl.SpeedProbe()
    with probe:
        t0 = time.perf_counter()
        time.sleep(0.3)
        t1 = time.perf_counter()
    assert probe._proc.returncode == 0
    assert len(probe.c) >= 5 and np.all(probe.c > 0)
    assert np.all(np.diff(probe.t) > 0)
    assert 0 < probe.duration(t0, t1) <= (t1 - t0) * probe.scale(t0, t1)
