"""The benchmark's three workloads, their input pools and output checks.

Every workload is a closed loop: one caller, and each call is issued only
after the previous one returns.  Inputs come from pools that ``reference/``
records together with the outputs the package gave for them (see
``make_reference.py``).  Pools are finely stratified, each round's strata
are fixed, and the seed only picks the entry within each stratum, so any
seed gives the same work mix.

A round is the workload's fixed unit of work.  Rounds repeat until
``seconds`` have passed.  In a traced run, even rounds are traced and odd
rounds are not, which gives the tracing overhead on the same strata.

Every timed interval is recorded as (start, end) and converted to a duration
at the end through ``SpeedProbe``, which removes the host's speed drift.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import conicwave as cw
from conicwave import cli

HERE = Path(__file__).resolve().parent
REF_DIR = HERE / "reference"

SETUP_REPEATS = 11

PROBE_PERIOD_S = 0.05
#: probe samples this far either side of an interval also set its scale
PROBE_WINDOW_S = 0.5
#: probe-loop duration that defines the reference speed (its median on the
#: 2-core host the benchmark was built on)
PROBE_NOMINAL_S = 0.38e-3

#: per workload: what the three op classes and wall_s measure
CLASSES = {
    "scatter": ("low-energy pipeline solve, lam <= lam_low",
                "oscillatory solve near threshold, lam_low < lam < 0.1",
                "oscillatory solve, lam >= 0.1"),
    "kernel": ("first evaluation of a new (xi, xi') pair",
               "repeat-pair schrodinger kernel",
               "repeat-pair wave_plus kernel"),
    "verify": ("validate-low command", "statphase command",
               "coeffs command"),
}
WALL = {
    "scatter": "median wall time of one round (36 solves)",
    "kernel": "first evolution_kernel on a fresh engine (cold table build)",
    "verify": "median wall time of one round (5 CLI commands)",
}

#: share of the samples cut from each end of a class by ``trimmed_mean``
TRIM = 0.1
UNITS = {"setup_s": "s", "wall_s": "s", "ops_per_s": "1/s",
         "op_tail_ms": "ms", "slow_op_ms": "ms", "mid_op_ms": "ms",
         "fast_op_ms": "ms", "peak_rss_mb": "MB"}

# -- output gates -------------------------------------------------------------

#: |beta|^2 - |alpha|^2 = 1, acceptance criterion 5
UNITARITY_GATE = 1e-5
#: |W - W_basis| / |W|; the scatter pools peak at 5.3e-8
CONNECTION_GATE = 1e-6
#: spread of the basis coefficients over three matching points; the pools
#: peak at 1.5e-9
CONSTANCY_GATE = 1e-8
#: relative deviation from the recorded reference outputs; wide enough for
#: the 2e-7 oscillatory unitarity floor to be fixed without a new reference
REF_RTOL = 1e-6
#: a kernel value may also move by this many times its recorded err_est,
#: the quadrature error a changed integration may trade.  So the kernel
#: tolerance is 1e-6 relative plus 10 err_est: over the warm pool that is
#: 3.3e-6 relative for the median op and up to 8.8e-3 for the smallest
#: values (|v| near 1e-7, err_est near 1e-10)
KERNEL_ERR_FACTOR = 10.0
#: five-band partition of the full kernel, acceptance criterion 10
PARTITION_GATE = 1e-5
PARTITION_TRIPLES = 2
#: absolute tolerance on CSV residual columns, whose gates the commands
#: apply themselves
CSV_RESIDUAL_ATOL = 1e-6

SCATTER_PROFILES = (
    ("hyperboloid-a0.2", {"kind": "hyperboloid", "params": {"a": 0.2}}),
    ("hyperboloid-a1", {"kind": "hyperboloid", "params": {"a": 1.0}}),
    ("hyperboloid-a10", {"kind": "hyperboloid", "params": {"a": 10.0}}),
    ("cone-k5", {"kind": "two-sided-cone-smoothed",
                 "params": {"kappa": 5.0}}),
)
DECADES = tuple(range(-6, 2))          # lam in [1e-6, 1e2]
#: each decade's pool has SUBSTRATA equal log sub-ranges with CHOICES entries
#: each; entry CHOICES * k + j is the j-th choice in sub-range k
SUBSTRATA = 12
CHOICES = 2
#: decades drawn per profile and round; the near-threshold decade twice, so
#: that it forms a class of its own with enough samples (mixing it with the
#: cheaper decade above gives a two-cluster class whose median jumps)
SCATTER_DRAWS = (-6, -5, -4, -3, -2, -2, -1, 0, 1)
MID_LAM_MAX = 0.1

KERNEL_PROFILE = {"kind": "hyperboloid", "params": {"a": 1.0}}
KERNEL_XI_ABS_MAX = 1.1e3
#: the cold op's lambda range (up to 70) covers every warm op's
COLD_OP = ("schrodinger", 10.0, 300.0, -300.0)
SIGN_STRATA = ((1, 1), (1, -1), (-1, 1), (-1, -1))
#: |xi| and |xi'| each fall in one of MAG_BINS log bins of [10^-0.5, 300];
#: pool pair CHOICES * (a + MAG_BINS * b) + j of a sign stratum is the j-th
#: choice with |xi| in bin a and |xi'| in bin b
MAG_BINS = 4

VERIFY_PROFILE = {"kind": "hyperboloid", "params": {"a": 1.0}}
VERIFY_COMMANDS = ("coeffs", "validate-low", "validate-high", "jost",
                   "statphase")
VERIFY_VARIANTS = 8
#: commands whose lam grid the seed picks among VERIFY_VARIANTS jitters
VERIFY_VARIED = ("coeffs", "jost")


def build_model(profile: dict) -> cw.ScatteringModel:
    prof = cw.make_profile(profile)
    chart = cw.ArclengthChart(prof)
    pot = cw.PotentialProfile(prof, chart)
    return cw.ScatteringModel(prof, chart, pot)


def verify_config(command: str, variant: int | None = None) -> dict:
    """CLI config of one verify command.

    Variants jitter the coeffs and jost lam grids by at most a tenth of a
    grid step: the outputs differ per variant, the work mix does not (a
    whole-step shift changes the command's cost by up to 70%).
    """
    doc = {"profile": VERIFY_PROFILE, "command": command}
    if command == "coeffs":
        d = variant / (30.0 * VERIFY_VARIANTS)
        doc["lam_grid"] = {"min": 10 ** (-6 + d), "max": 10 ** (2 + d),
                           "count": 25, "scale": "log"}
    elif command == "jost":
        d = variant / (10.0 * VERIFY_VARIANTS)
        doc["lam_grid"] = {"min": 10 ** (-4 + d), "max": 10 ** (1 + d),
                           "count": 6, "scale": "log"}
        doc["xi_grid"] = {"min": -20.0, "max": 20.0, "count": 9,
                          "scale": "linear"}
    return doc


def csv_name(command: str) -> str:
    return command.replace("-", "_") + ".csv"


def load_reference(name: str):
    with open(REF_DIR / f"{name}.json", encoding="utf-8") as fh:
        return json.load(fh)


# -- machine-speed probe ------------------------------------------------------

class SpeedProbe:
    """Samples the host's speed while a run is timed.

    A child process (``speedprobe.py``) times a fixed pure-Python loop
    every PROBE_PERIOD_S on the CPU this process last ran on.  On the
    shared 2-core host this benchmark was built on, the speed of Python
    code drifts by up to 2x over seconds to minutes, and differently on
    each CPU.  Each interval is scaled by PROBE_NOMINAL_S over the median
    probe duration within PROBE_WINDOW_S of it; probe time inside an
    interval, when the probe ran in place of the benchmark, is subtracted.

    Over ten seeds the scaled kernel figures spread (IQR/median) by 2-6%
    against 6-8% in wall clock, the scatter ones by 3-13% against 6-24%;
    a probe on the other CPU left 8-12% on five kernel runs.  Because the
    probe runs outside the benchmark's process, a slowdown the package
    causes there (its own threads holding the GIL, long C calls) does not
    slow the probe and is not scaled away: a planted helper thread that
    holds the GIL left the probe's median unchanged and showed as +62-90%
    in the scaled scatter latencies.
    """

    def __init__(self):
        self.t = self.c = np.zeros(0)
        self._proc = None

    def __enter__(self):
        self._proc = subprocess.Popen(
            [sys.executable, str(HERE / "speedprobe.py"),
             repr(PROBE_PERIOD_S)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
        self._proc.stdout.readline()
        return self

    def __exit__(self, *exc):
        try:
            out, _ = self._proc.communicate(timeout=30)
        except subprocess.TimeoutExpired:
            self._proc.kill()
            self._proc.wait()
            raise
        doc = json.loads(out)
        self.t, self.c = np.asarray(doc["t"]), np.asarray(doc["c"])

    def scale(self, t0: float, t1: float) -> float:
        """Reference over measured speed around [t0, t1]."""
        i0, i1 = np.searchsorted(self.t, [t0 - PROBE_WINDOW_S,
                                          t1 + PROBE_WINDOW_S])
        if i1 <= i0:
            return 1.0
        return PROBE_NOMINAL_S / float(np.median(self.c[i0:i1]))

    def duration(self, t0: float, t1: float) -> float:
        """Length of [t0, t1] less the probe time inside it, at the
        reference speed."""
        i0, i1 = np.searchsorted(self.t, [t0, t1])
        raw = (t1 - t0) - float(np.sum(self.c[i0:i1]))
        return raw * self.scale(t0, t1)


class NullProbe(SpeedProbe):
    """No sampling: durations are plain wall time (used by traced runs)."""

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        pass


# -- shared run state ---------------------------------------------------------

@dataclass
class Run:
    """Samples, failures and outputs of one workload run."""

    workload: str
    seed: int
    seconds: float
    tracer: object
    traced: bool
    samples: list = field(default_factory=list)   # (class, t0, t1, round)
    rounds: list = field(default_factory=list)    # (traced, t0, t1, ops)
    failures: list = field(default_factory=list)
    outputs: dict = field(default_factory=dict)
    attempted: int = 0
    setup: list = field(default_factory=list)     # (t0, t1)
    extra: dict = field(default_factory=dict)

    def __post_init__(self):
        self.rng = np.random.default_rng(self.seed)
        self.round = None

    def fail(self, key: str, why: str) -> None:
        self.failures.append(f"{key}: {why}")

    def op(self, cls: int, key: str, fn, check):
        """Time one call; check its output outside the timer.

        Package errors and failed checks count as failures; only ops that
        pass contribute latency samples.  ``cls`` is the op class (0, 1, 2)
        or None for ops that only count toward the round totals.
        """
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            with self.tracer.op(f"{self.workload}.{cls}"):
                out = fn()
        except cw.ConicwaveError as exc:
            self.fail(key, f"{type(exc).__name__}: {exc}")
            return
        t1 = time.perf_counter()
        self.outputs[key] = out
        problems = check(out)
        if problems:
            self.fail(key, "; ".join(problems))
        else:
            self.samples.append((cls, t0, t1, self.round))

    def check_only(self, key: str, problems) -> None:
        self.attempted += 1
        if problems:
            self.fail(key, "; ".join(problems))

    def round_loop(self, max_rounds=None):
        """Yield (round, traced) until ``seconds`` have passed."""
        start = time.perf_counter()
        r = 0
        min_rounds = 2 if self.traced else 1
        while max_rounds is None or r < max_rounds:
            if r >= min_rounds and time.perf_counter() - start >= self.seconds:
                return
            yield r, self.traced and r % 2 == 0
            r += 1

    def timed_round(self, traced: bool, body) -> None:
        self.round = len(self.rounds)
        n0 = self.attempted
        with self.tracer.phase("round" if self.workload != "kernel"
                               else "warm", traced):
            t0 = time.perf_counter()
            body()
            t1 = time.perf_counter()
        self.rounds.append((traced, t0, t1, self.attempted - n0))
        self.round = None
        if len(self.rounds) == 1:
            # later rounds only add allocator slack, which varies with the
            # number of rounds that fit in the run
            self.extra["rss_mb"] = resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024.0

    def timed_setup(self, build):
        """Run ``build`` SETUP_REPEATS times; keep the last result."""
        obj = None
        with self.tracer.phase("setup", self.traced):
            for _ in range(SETUP_REPEATS):
                t0 = time.perf_counter()
                obj = build()
                self.setup.append((t0, time.perf_counter()))
        return obj


def rel_dev(value: complex, ref, scale: float) -> float:
    return abs(complex(value) - complex(*ref)) / scale


# -- scatter ------------------------------------------------------------------

def _scatter_check(ref: dict):
    W_ref = complex(*ref["W"])
    beta_scale = abs(complex(*ref["beta"]))

    def check(sd):
        res = sd.residuals
        out = []
        if not res["unitarity"] <= UNITARITY_GATE:
            out.append(f"unitarity {res['unitarity']:.2e} > {UNITARITY_GATE}")
        if not res["connection_identity"] <= CONNECTION_GATE:
            out.append(f"connection identity {res['connection_identity']:.2e}")
        if not res["wronskian_constancy"] <= CONSTANCY_GATE:
            out.append(f"Wronskian constancy "
                       f"{res['wronskian_constancy']:.2e}")
        for name, val, scale in (("W", sd.W, abs(W_ref)),
                                 ("alpha", sd.alpha_minus, beta_scale),
                                 ("beta", sd.beta_minus, beta_scale)):
            dev = rel_dev(val, ref[name], scale)
            if not dev <= REF_RTOL:
                out.append(f"{name} deviates {dev:.2e} from the reference")
        return out
    return check


def run_scatter(run: Run, reference: dict) -> None:
    """Fresh models each round; one pool lam per (profile, draw).

    Round r takes sub-range (r + 3 * profile + 5 * draw) mod SUBSTRATA,
    which spreads the sub-ranges over the profiles and draws of every round
    and gives every seed the same work mix; the seed picks the entry within
    each sub-range.
    """
    pools = reference["pools"]

    def build_all():
        return {p: build_model(doc) for p, doc in SCATTER_PROFILES}

    models = run.timed_setup(build_all)
    for r, traced in run.round_loop():
        if r > 0:
            models = build_all()

        def body():
            for ip, (p, _) in enumerate(SCATTER_PROFILES):
                m = models[p]
                for i_d, d in enumerate(SCATTER_DRAWS):
                    sub = (r + 3 * ip + 5 * i_d) % SUBSTRATA
                    entry = pools[p][str(d)][
                        CHOICES * sub + int(run.rng.integers(CHOICES))]
                    lam = entry["lam"]
                    cls = 0 if lam <= m.lam_low else (
                        1 if lam < MID_LAM_MAX else 2)
                    run.op(cls, f"scatter/{p}/{lam!r}",
                           lambda: m.scattering_data(lam),
                           _scatter_check(entry))
        run.timed_round(traced, body)


# -- kernel -------------------------------------------------------------------

def _kernel_check(ref):
    value_ref = complex(*ref["value"])
    tol = REF_RTOL * abs(value_ref) + KERNEL_ERR_FACTOR * ref["err_est"]

    def check(ks):
        out = []
        # evolution_kernel raises QuadratureError past this gate; restated
        # here so a changed gate cannot pass silently
        if not ks.err_est <= 1e-4 * max(1.0, abs(ks.value)):
            out.append(f"err_est {ks.err_est:.2e} over the 1e-4 gate")
        dev = abs(ks.value - value_ref)
        if not dev <= tol:
            out.append(f"value deviates {dev:.2e} (tolerance {tol:.2e})")
        return out
    return check


def kernel_ops(pair: dict):
    """(class, kind, t) per op of a pair; the first op is the new-pair op."""
    ops = []
    for i, t in enumerate(pair["t"]):
        for kind in ("schrodinger", "wave_plus"):
            cls = 0 if not ops else (1 if kind == "schrodinger" else 2)
            ops.append((cls, kind, t))
    return ops


def partition_problems(eng, t, xi, xip) -> list:
    full = eng.evolution_kernel("schrodinger", t, xi, xip).value
    tot = 0j
    for band, args in (("low_low", (xi, xip)), ("osc_osc", (xi, xip)),
                       ("osc_low", (xi, xip)), ("osc_low", (xip, xi)),
                       ("high_energy", (xi, xip))):
        tot += eng.band_kernel("schrodinger", band, t, *args).value
    dev = abs(tot - full) / abs(full)
    return [] if dev <= PARTITION_GATE else [
        f"band partition deviates {dev:.2e} > {PARTITION_GATE}"]


def warm_bins(r: int, s: int) -> int:
    """Magnitude-bin pair of sign stratum s in warm round r.

    Every round covers each |xi| bin and each |xi'| bin once over its four
    strata, and 16 rounds use every bin pair of a stratum once.
    """
    a = (r + s) % MAG_BINS
    b = (r + 3 * s + r // MAG_BINS) % MAG_BINS
    return a + MAG_BINS * b


def run_kernel(run: Run, reference: dict) -> None:
    """Cold table build, then warm rounds of one pair per sign stratum;
    the seed picks each pair among the CHOICES of its magnitude bins."""
    pools = reference["pairs"]

    def build():
        return cw.KernelEngine(build_model(KERNEL_PROFILE),
                               xi_abs_max=KERNEL_XI_ABS_MAX)

    eng = run.timed_setup(build)
    # the engine has no public count of built table records, so the table
    # size is read from its record dict
    kind, t, xi, xip = COLD_OP
    with run.tracer.phase("cold", run.traced):
        t0 = time.perf_counter()
        run.op(None, "kernel/cold",
               lambda: eng.evolution_kernel(kind, t, xi, xip),
               _kernel_check(reference["cold"]))
        run.extra["cold"] = (t0, time.perf_counter())
        run.tracer.add("kernel.records", len(eng._records))
    run.extra["cold_records"] = len(eng._records)

    done = []
    for r, traced in run.round_loop(max_rounds=MAG_BINS ** 2):
        pairs = [pools[s][CHOICES * warm_bins(r, s)
                          + int(run.rng.integers(CHOICES))]
                 for s in range(len(pools))]
        done.extend(pairs)

        def body():
            before = len(eng._records)
            for pair in pairs:
                for (cls, kind_, t_), ref in zip(kernel_ops(pair),
                                                 pair["ops"]):
                    run.op(cls, f"kernel/{kind_}/{t_!r}/{pair['xi']!r}/"
                                f"{pair['xi_prime']!r}",
                           lambda: eng.evolution_kernel(
                               kind_, t_, pair["xi"], pair["xi_prime"]),
                           _kernel_check(ref))
            run.tracer.add("kernel.records", len(eng._records) - before)
        run.timed_round(traced, body)
    run.extra["warm_rounds"] = len(done) // len(pools)

    for pair in done[:PARTITION_TRIPLES]:
        try:
            problems = partition_problems(eng, pair["t"][0], pair["xi"],
                                          pair["xi_prime"])
        except cw.ConicwaveError as exc:
            problems = [f"{type(exc).__name__}: {exc}"]
        run.check_only(f"kernel/partition/{pair['xi']!r}/"
                       f"{pair['xi_prime']!r}", problems)


# -- verify -------------------------------------------------------------------

def _numeric(text: str):
    try:
        return float(text)
    except ValueError:
        return None


def csv_problems(got: str, want: str) -> list:
    """Compare two CSV texts: text cells exactly, numbers within REF_RTOL.

    re_X/im_X columns are scaled by |X| of the row, residual columns get
    CSV_RESIDUAL_ATOL, and JSON constant cells are compared per key.
    """
    rows_g = list(csv.reader(io.StringIO(got)))
    rows_w = list(csv.reader(io.StringIO(want)))
    if len(rows_g) != len(rows_w) or rows_g[:1] != rows_w[:1]:
        return ["CSV shape or header differs from the reference"]
    header = rows_w[0]
    idx = {name: i for i, name in enumerate(header)}
    out = []
    for n, (rg, rw) in enumerate(zip(rows_g[1:], rows_w[1:]), start=1):
        if len(rg) != len(rw):
            return [f"row {n} has {len(rg)} cells, reference {len(rw)}"]
        for col, (a, b) in enumerate(zip(rg, rw)):
            name = header[col]
            if name == "constants":
                ca, cb = json.loads(a), json.loads(b)
                bad = ca.keys() != cb.keys() or any(
                    abs(ca[k] - cb[k]) > REF_RTOL * abs(cb[k]) + 1e-12
                    for k in cb)
                if bad:
                    out.append(f"row {n} constants differ")
                continue
            fa, fb = _numeric(a), _numeric(b)
            if fa is None or fb is None:
                if a != b:
                    out.append(f"row {n} {name}: {a!r} != {b!r}")
                continue
            if np.isnan(fb):
                if not np.isnan(fa):
                    out.append(f"row {n} {name}: {a} != nan")
                continue
            scale = abs(fb)
            if name[:3] in ("re_", "im_"):
                other = ("im_" if name[:3] == "re_" else "re_") + name[3:]
                if other in idx:
                    scale = float(np.hypot(fb, float(rw[idx[other]])))
            atol = CSV_RESIDUAL_ATOL if (
                name.startswith("res_") or name in (
                    "worst_residual", "oracle_abs_err")) else 0.0
            if not abs(fa - fb) <= REF_RTOL * scale + atol:
                out.append(f"row {n} {name}: {a} vs reference {b}")
    return out[:5]


def run_verify(run: Run, reference: dict, workdir: Path) -> None:
    """Five CLI commands per round, configs chosen once per run."""
    variants = {c: int(run.rng.integers(VERIFY_VARIANTS))
                for c in VERIFY_VARIED}
    cfg_dir = workdir / "verify"
    cfg_paths = {}

    def setup():
        cfg_dir.mkdir(parents=True, exist_ok=True)
        for c in VERIFY_COMMANDS:
            path = cfg_dir / f"{c}.json"
            path.write_text(json.dumps(verify_config(c, variants.get(c))),
                            encoding="utf-8")
            cfg_paths[c] = path
        # the model the CLI builds for every command
        return build_model(VERIFY_PROFILE)

    run.timed_setup(setup)
    # a round holds one sample per command, so the classes are the three
    # longest commands, whose single samples are the steadiest; all five
    # count toward the round time, the throughput and the tail
    classes = {"validate-low": 0, "statphase": 1, "coeffs": 2}
    for _, traced in run.round_loop():
        def body():
            for c in VERIFY_COMMANDS:
                out_dir = cfg_dir / f"out-{c}"
                csv_path = out_dir / csv_name(c)
                if csv_path.exists():
                    csv_path.unlink()
                ref_key = f"{c}-{variants[c]}" if c in variants else c

                def call(c=c, out_dir=out_dir):
                    with contextlib.redirect_stdout(io.StringIO()), \
                            contextlib.redirect_stderr(io.StringIO()) as err:
                        code = cli.main([c, "--config", str(cfg_paths[c]),
                                         "--out", str(out_dir)])
                    return code, err.getvalue()

                def check(out, csv_path=csv_path, ref_key=ref_key):
                    code, err = out
                    if code != 0:
                        return [f"exit {code}: {err.strip()[:200]}"]
                    if not csv_path.exists():
                        return ["no CSV written"]
                    got = csv_path.read_text(encoding="utf-8")
                    run.tracer.add("cli.csv_bytes", len(got.encode()))
                    run.outputs[f"verify/{ref_key}.csv"] = got
                    return csv_problems(got, reference[ref_key])

                run.op(classes.get(c), f"verify/{ref_key}", call, check)
        run.timed_round(traced, body)


def verify_reference() -> dict:
    out = {}
    for path in sorted((REF_DIR / "verify").glob("*.csv")):
        out[path.stem] = path.read_text(encoding="utf-8")
    return out


# -- metrics ------------------------------------------------------------------

def tail(samples_ms: list) -> tuple:
    """(value, percentile, n): the highest percentile with at least ten
    samples beyond it, or the maximum when there are fewer than 11."""
    xs = sorted(samples_ms)
    n = len(xs)
    if n == 0:
        return 0.0, 0.0, 0
    if n < 11:
        return xs[-1], 100.0, n
    return xs[n - 11], 100.0 * (n - 10) / n, n


def trimmed_mean(xs: list) -> float:
    """Mean without the lowest and highest TRIM share of the samples.

    A class mixes fixed shares of unlike ops (one- and two-channel kernel
    pairs, cheap and dear lambdas), so its median can sit in the gap between
    clusters and jump from run to run; the trimmed mean moves smoothly and
    still drops stragglers.
    """
    xs = sorted(xs)
    k = int(TRIM * len(xs))
    return statistics.mean(xs[k:len(xs) - k]) if xs else 0.0


def end_to_end(run: Run, probe: SpeedProbe) -> dict:
    """Every end-to-end metric, computed from the untraced rounds.

    Returns name -> (value, wall-clock value, unit): times in the value are
    scaled to the reference speed by ``probe``, the wall-clock value is the
    same metric from the plain interval lengths.
    """
    plain = {i for i, r in enumerate(run.rounds) if not r[0]}
    rounds = [run.rounds[i] for i in sorted(plain)]
    samples = [(cls, t0, t1) for cls, t0, t1, r in run.samples if r in plain]
    untraced_ops = sum(r[3] for r in rounds)

    def metrics(dur) -> dict:
        round_s = [dur(r[1], r[2]) for r in rounds]
        by_cls = {0: [], 1: [], 2: []}
        for cls, t0, t1 in samples:
            if cls is not None:
                by_cls[cls].append(1e3 * dur(t0, t1))
        wall = dur(*run.extra["cold"]) if run.workload == "kernel" else (
            statistics.median(round_s) if round_s else 0.0)
        busy = sum(round_s)
        return {
            "setup_s": statistics.median(dur(*iv) for iv in run.setup),
            "wall_s": wall,
            "ops_per_s": untraced_ops / busy if busy else 0.0,
            "op_tail_ms": tail([1e3 * dur(t0, t1)
                                for _, t0, t1 in samples])[0],
            "slow_op_ms": trimmed_mean(by_cls[0]),
            "mid_op_ms": trimmed_mean(by_cls[1]),
            "fast_op_ms": trimmed_mean(by_cls[2]),
            "peak_rss_mb": run.extra["rss_mb"],
        }

    _, t_pct, t_n = tail([t1 - t0 for _, t0, t1 in samples])
    run.extra["tail"] = {"percentile": t_pct, "n": t_n}
    run.extra["class_n"] = {k: sum(1 for c, _, _ in samples if c == k)
                            for k in (0, 1, 2)}
    scaled = metrics(probe.duration)
    wall = metrics(lambda t0, t1: t1 - t0)
    return {k: (scaled[k], wall[k], UNITS[k]) for k in scaled}
