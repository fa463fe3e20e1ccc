"""Record the input pools and the package's outputs for them.

    python3 perfbench/make_reference.py [scatter] [kernel] [verify]

Writes ``perfbench/reference/``.  Run it only at a commit whose outputs are
trusted: the benchmark counts any later deviation beyond the tolerances in
``workloads.py`` as a failed op.  Pools come from a fixed seed, independent
of the benchmark's ``--seed``.
"""

from __future__ import annotations

import json
import math
import sys
import time

import run as bench

POOL_SEED = 20261017
XI_LOG_RANGE = (-0.5, math.log10(300.0))
T_LOG_RANGE = (1.0, math.log10(2.0e3))
#: warm t stay this far (absolute) from every channel phase; see
#: off_light_cone
LIGHT_CONE_GAP = 0.3


def off_light_cone(t: float, a: float, b: float) -> bool:
    """True when t is at least LIGHT_CONE_GAP away from both channel phases
    |xi| + |xi'| and ||xi| - |xi'||.

    Near the light cone the wave kernel's Abel tail cannot meet the
    engine's error gate and evolution_kernel("wave_plus", ...) raises
    QuadratureError.  A scan of 5651 wave_plus ops over the warm (t, xi,
    xi') range failed 362 times, all within 0.137 of a phase and none at
    0.15 or more, so the gap is about twice the failing band.  It removes
    0.4% of log-uniform warm triples.
    """
    return all(abs(t - th) >= LIGHT_CONE_GAP for th in (a + b, abs(a - b)))


def pair(z: complex) -> list:
    return [z.real, z.imag]


def make_scatter(wl, rng) -> dict:
    pools, worst = {}, {}
    for name, doc in wl.SCATTER_PROFILES:
        model = wl.build_model(doc)
        pools[name] = {}
        for d in wl.DECADES:
            # CHOICES lams per sub-range of the decade, away from its edges
            n = wl.SUBSTRATA * wl.CHOICES
            u = (np.arange(n) // wl.CHOICES + rng.uniform(0.05, 0.95, n)) \
                / wl.SUBSTRATA
            entries = []
            for lam in 10.0 ** (d + u):
                sd = model.scattering_data(float(lam))
                for key, val in sd.residuals.items():
                    worst[key] = max(worst.get(key, 0.0), val)
                entries.append({"lam": float(lam), "W": pair(sd.W),
                                "alpha": pair(sd.alpha_minus),
                                "beta": pair(sd.beta_minus)})
            pools[name][str(d)] = entries
        print(f"scatter {name} done", flush=True)
    return {"pools": pools, "worst_residuals": worst}


def make_kernel(wl, rng) -> dict:
    eng = wl.cw.KernelEngine(wl.build_model(wl.KERNEL_PROFILE),
                             xi_abs_max=wl.KERNEL_XI_ABS_MAX)
    kind, t, xi, xip = wl.COLD_OP
    t0 = time.perf_counter()
    ks = eng.evolution_kernel(kind, t, xi, xip)
    print(f"kernel cold {time.perf_counter() - t0:.1f} s, "
          f"{len(eng._records)} records", flush=True)
    out = {"cold": {"value": pair(ks.value), "err_est": ks.err_est},
           "pairs": []}
    cold_records = len(eng._records)
    lo, hi = T_LOG_RANGE
    for s1, s2 in wl.SIGN_STRATA:
        stratum = []
        for j in range(wl.CHOICES * wl.MAG_BINS ** 2):
            bins = j // wl.CHOICES
            # |xi| in bin bins % MAG_BINS, |xi'| in bin bins // MAG_BINS
            a, b = 10.0 ** (XI_LOG_RANGE[0] + (XI_LOG_RANGE[1]
                                               - XI_LOG_RANGE[0])
                            * (np.array([bins % wl.MAG_BINS,
                                         bins // wl.MAG_BINS])
                               + rng.uniform(0, 1, 2)) / wl.MAG_BINS)
            # one t per third of the log range, off the light cone
            ts = []
            for k in range(3):
                t_ = 10.0 ** (lo + (hi - lo) * (k + rng.uniform()) / 3)
                while not off_light_cone(t_, a, b):
                    t_ = 10.0 ** (lo + (hi - lo) * (k + rng.uniform()) / 3)
                ts.append(float(t_))
            p = {"xi": float(s1 * a), "xi_prime": float(s2 * b), "t": ts,
                 "ops": []}
            for _, kind_, t_ in wl.kernel_ops(p):
                ks = eng.evolution_kernel(kind_, t_, p["xi"], p["xi_prime"])
                p["ops"].append({"value": pair(ks.value),
                                 "err_est": ks.err_est})
            stratum.append(p)
        out["pairs"].append(stratum)
        print(f"kernel stratum {(s1, s2)} done", flush=True)
    if len(eng._records) != cold_records:
        raise SystemExit("warm ops built new table records")
    return out


def make_verify(wl, cli) -> None:
    ref = wl.REF_DIR / "verify"
    ref.mkdir(parents=True, exist_ok=True)
    work = bench.OUT / "make-reference"
    work.mkdir(parents=True, exist_ok=True)
    for c in wl.VERIFY_COMMANDS:
        variants = range(wl.VERIFY_VARIANTS) if c in wl.VERIFY_VARIED \
            else [None]
        for v in variants:
            cfg = work / "cfg.json"
            cfg.write_text(json.dumps(wl.verify_config(c, v)))
            t0 = time.perf_counter()
            code = cli.main([c, "--config", str(cfg), "--out", str(work)])
            if code != 0:
                raise SystemExit(f"{c} variant {v} exited {code}")
            name = c if v is None else f"{c}-{v}"
            (ref / f"{name}.csv").write_text(
                (work / wl.csv_name(c)).read_text())
            print(f"verify {name} {time.perf_counter() - t0:.2f} s",
                  flush=True)


if __name__ == "__main__":
    bench.prepare()
    import numpy as np
    import workloads as wl
    from conicwave import cli

    which = sys.argv[1:] or ["scatter", "kernel", "verify"]
    wl.REF_DIR.mkdir(exist_ok=True)
    for name in which:
        # each pool draws from its own stream, so pools regenerate alone
        rng = np.random.default_rng([POOL_SEED, ["scatter", "kernel",
                                                 "verify"].index(name)])
        if name == "verify":
            make_verify(wl, cli)
            continue
        doc = make_scatter(wl, rng) if name == "scatter" \
            else make_kernel(wl, rng)
        with open(wl.REF_DIR / f"{name}.json", "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=0)
