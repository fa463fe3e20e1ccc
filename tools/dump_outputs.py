"""Print every output the benchmark checks, one line each, for a diff.

Run from the root of a checkout (about 15 s on two cores):

    python3 tools/dump_outputs.py > outputs.txt
    python3 tools/dump_outputs.py before.txt > after.txt

Given an earlier dump, it also writes to standard error, so that the dump
itself does not change, per section how many lines changed; over the
scatter lines, per field, how many lines moved W, alpha- and beta-, their
largest change scaled as ``workloads._scatter_check`` scales it, the
largest relative change of a+- and b+- and the largest absolute change of
each residual; over the kernel lines the largest relative change of the
value and of ``err_est`` and the largest change of the value as a share of
the earlier ``err_est``; over the statphase lines the largest relative
change of ``lhs``; and over each jost CSV's lines the largest relative
change of f and of f'.  Lines are compared in dump order, so the earlier
dump must come from the same version of this tool.

It imports the package from this checkout's ``src/`` and prints

* ``scatter``: the ``repr`` of ``scattering_data`` at each of the 768 pool
  entries of ``perfbench/reference/scatter.json``;
* ``kernel``: the value and ``err_est`` of the kernel workload's cold op and
  of all 768 warm ops, on one engine, in the reference's order;
* ``verify``: the sha1 of the CSV that each of the 19 verify configs writes;
* ``statphase``: the ``case`` and ``lhs`` cells of each row of the
  statphase CSV, after its sha1;
* ``jost``: the lambda, xi, f and f' cells of each row of each jost CSV,
  after its sha1.

Two checkouts' dumps that ``diff`` equal have byte-identical outputs.  This
is no gate: a change that re-records ``perfbench/reference/`` moves them on
purpose.
"""

from __future__ import annotations

import contextlib
import csv as csvlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import workloads as wl  # noqa: E402
from conicwave import cli  # noqa: E402


def scatter_lines():
    pools = wl.load_reference("scatter")["pools"]
    for p, doc in wl.SCATTER_PROFILES:
        model = wl.build_model(doc)
        for draw, entries in pools[p].items():
            for e in entries:
                sd = model.scattering_data(e["lam"])
                yield f"scatter {p} {draw} {e['lam']!r} {sd!r}"


def kernel_lines():
    ref = wl.load_reference("kernel")
    eng = wl.cw.KernelEngine(wl.build_model(wl.KERNEL_PROFILE),
                             xi_abs_max=wl.KERNEL_XI_ABS_MAX)
    ops = [("cold", *wl.COLD_OP)] + [
        (f"{kind}/{t!r}/{pair['xi']!r}/{pair['xi_prime']!r}", kind, t,
         pair["xi"], pair["xi_prime"])
        for stratum in ref["pairs"] for pair in stratum
        for _, kind, t in wl.kernel_ops(pair)]
    for key, *args in ops:
        ks = eng.evolution_kernel(*args)
        yield f"kernel {key} {ks.value!r} {ks.err_est!r}"


def verify_lines():
    configs = [(c, v) for c in wl.VERIFY_COMMANDS
               for v in (range(wl.VERIFY_VARIANTS)
                         if c in wl.VERIFY_VARIED else [None])]
    with tempfile.TemporaryDirectory() as tmp:
        for c, v in configs:
            name = c if v is None else f"{c}-{v}"
            cfg = Path(tmp) / f"{name}.json"
            cfg.write_text(json.dumps(wl.verify_config(c, v)),
                           encoding="utf-8")
            out = Path(tmp) / name
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(io.StringIO()):
                code = cli.main([c, "--config", str(cfg), "--out", str(out)])
            csv = out / wl.csv_name(c)
            digest = (hashlib.sha1(csv.read_bytes()).hexdigest()
                      if csv.exists() else "no-csv")
            yield f"verify {name} exit={code} {digest}"
            if not csv.exists():
                continue
            rows = csvlib.DictReader(io.StringIO(csv.read_text()))
            if c == "statphase":
                for row in rows:
                    yield f"statphase {row['case']} {row['lhs']}"
            elif c == "jost":
                for row in rows:
                    yield " ".join(["jost", name] + [row[k] for k in (
                        "lambda", "xi", "re_f", "im_f", "re_df", "im_df")])


#: the names a ``ScatteringData`` repr uses
_REPR_NAMES = {"__builtins__": {}, "ScatteringData": dict,
               "nan": float("nan"), "inf": float("inf")}


def _record(line: str) -> dict:
    """The fields of a scatter line's ``ScatteringData`` repr."""
    return eval(line.split(" ", 4)[4], _REPR_NAMES)


def _scatter_moves(old: str, new: str, lines: dict) -> list:
    """(key, change, scale) of each field of two scatter lines: W, alpha-
    and beta- scaled as ``workloads._scatter_check`` scales them (|W| and
    |beta-| of the earlier line), a+-, b+- relative, residuals absolute;
    ``lines`` counts, per field of the first three, the lines it moved."""
    r0, r1 = _record(old), _record(new)
    scales = {"W": abs(r0["W"]), "alpha_minus": abs(r0["beta_minus"]),
              "beta_minus": abs(r0["beta_minus"])}
    moves = []
    for name, scale in scales.items():
        if r1[name] != r0[name]:
            lines[name] = lines.get(name, 0) + 1
        moves.append((f"scatter {name}: max change / reference scale",
                      r1[name] - r0[name], scale))
    for name in ("a_plus", "b_plus", "a_minus", "b_minus"):
        moves.append((f"scatter {name}: max relative change",
                      r1[name] - r0[name], r0[name]))
    for name, val in r0["residuals"].items():
        moves.append((f"scatter residual {name}: max absolute change",
                      r1["residuals"][name] - val, 1.0))
    return moves


def compare(before: list, after: list) -> list:
    """Summary lines of what changed from the dump ``before`` to ``after``
    (lists of lines), line by line in dump order."""
    changed, scatter_lines = {}, {}
    worst = {"kernel values: max relative change": 0.0,
             "kernel err_est: max relative change": 0.0,
             "kernel values: max change / earlier err_est": 0.0,
             "statphase lhs: max relative change": 0.0}
    for k in range(max(len(before), len(after))):
        old = before[k] if k < len(before) else ""
        new = after[k] if k < len(after) else ""
        section = (new or old).split(" ", 1)[0]
        changed.setdefault(section, [0, 0])[1] += 1
        if old == new:
            continue
        changed[section][0] += 1
        old_f, new_f = old.split(" "), new.split(" ")
        if section == "scatter" and old_f[:4] == new_f[:4]:
            moves = _scatter_moves(old, new, scatter_lines)
        elif section == "kernel" and old_f[:2] == new_f[:2]:
            (v0, e0), (v1, e1) = ((complex(f[2]), float(f[3]))
                                  for f in (old_f, new_f))
            moves = zip(list(worst)[:3], (v1 - v0, e1 - e0, v1 - v0),
                        (v0, e0, e0))
        elif section == "statphase" and old_f[:2] == new_f[:2]:
            v0, v1 = float(old_f[2]), float(new_f[2])
            moves = [("statphase lhs: max relative change", v1 - v0, v0)]
        elif section == "jost" and old_f[:4] == new_f[:4]:
            (f0, d0), (f1, d1) = ((complex(float(f[4]), float(f[5])),
                                   complex(float(f[6]), float(f[7])))
                                  for f in (old_f, new_f))
            moves = [(f"jost {new_f[1]} {name}: max relative change", v1 - v0,
                      v0) for name, v0, v1 in (("f", f0, f1), ("df", d0, d1))]
        else:
            continue
        for key, num, den in moves:
            rel = abs(num) / abs(den) if den else float("inf") if num else 0.0
            worst[key] = max(worst.get(key, 0.0), rel)
    return ([f"{section}: {n} of {total} lines changed"
             for section, (n, total) in changed.items()]
            + [f"scatter {name}: moved on {scatter_lines.get(name, 0)} lines"
               for name in ("W", "alpha_minus", "beta_minus")]
            + [f"{key}: {val:.3e}" for key, val in worst.items()])


def main(argv: list) -> None:
    if len(argv) > 1:
        raise SystemExit("usage: dump_outputs.py [EARLIER_DUMP]")
    lines = []
    for source in (scatter_lines, kernel_lines, verify_lines):
        for line in source():
            print(line, flush=True)
            lines.append(line)
    if argv:
        before = Path(argv[0]).read_text(encoding="utf-8").splitlines()
        for line in compare(before, lines):
            print(line, file=sys.stderr)


if __name__ == "__main__":
    main(sys.argv[1:])
