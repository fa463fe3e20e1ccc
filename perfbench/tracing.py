"""Opt-in span tracer for the conicwave benchmark.

``Tracer.install`` wraps, from outside the package, every function and
method defined in the layer modules, at every name the package looks it up
under (module globals of all ``conicwave`` modules and class attributes), plus
the ``solve_ivp`` that ``jost`` imports.  Nothing is wrapped unless a traced
run asks for it, and ``uninstall`` restores every original object.

Spans record (name, start, end, parent, op).  A span's own time is its
duration minus the time its child spans cover, so summing own times over a
layer partitions the traced wall time exactly.  A named function's
``layer_s`` is its duration minus the time spent in spans of other layers
below it, counted on the outermost call only, so recursion is not double
counted.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import time
from types import FunctionType

import numpy as np

#: spans kept for the JSON dump (about 200 bytes each); a traced kernel run
#: makes about two million, so later ones are only counted
#: (``spans_dropped``), while the per-layer statistics cover every call
MAX_SPANS = 200_000

LAYERS = ("geometry", "hankel", "panels", "volterra", "jost", "kernel",
          "oscquad", "cli")

#: reported name -> traced span names it sums over
NAMED = {
    "geometry.chart_build": ("geometry.ArclengthChart.__init__",),
    "geometry.potential_build": ("geometry.PotentialProfile.__init__",),
    # MirroredPotential.V forwards to PotentialProfile.V, so this counts every
    # potential evaluation exactly once
    "geometry.V": ("geometry.PotentialProfile.V",),
    "hankel.f0_values": ("hankel.f0_values",),
    "panels.integrator_build": ("panels.SuffixIntegrator.__init__",
                                "panels.PrefixIntegrator.__init__"),
    "panels.node_values": ("panels.SuffixIntegrator.node_values",
                           "panels.PrefixIntegrator.node_values"),
    "panels.interpolate": ("panels.PanelGrid.interpolate",),
    "volterra.separable_integrators": ("volterra.separable_integrators",),
    "jost.scattering_data": ("jost.ScatteringModel.scattering_data",),
    "jost.solve_ivp": ("jost.solve_ivp",),
    "kernel.evolution_kernel": ("kernel.KernelEngine.evolution_kernel",),
    "kernel.stationary_phase_check": ("kernel.stationary_phase_check",),
    "oscquad.panel_osc_integral": ("oscquad.panel_osc_integral",),
    "oscquad.tail_integral": ("oscquad.tail_integral",),
    "cli.main": ("cli.main",),
}


def _points(arg_index):
    return lambda args, out: ("points", int(np.size(args[arg_index])))


#: span name -> (args, result) -> (counter, amount)
_COUNTERS = {
    "hankel.f0_values": _points(0),
    "panels.PanelGrid.interpolate": _points(2),
    "jost.solve_ivp": lambda args, out: ("nfev", int(out.nfev)),
}


class _Frame:
    __slots__ = ("name", "layer", "start", "child", "cross", "span", "outer")


class Tracer:
    """Collects spans and per-phase aggregates while ``active``."""

    def __init__(self):
        self.active = False
        self.phase_name = ""
        self.spans: list = []
        self.dropped = 0
        self.missing: list = []
        # phase -> span name -> [calls, own_s, outer_calls, layer_s]
        self.stats: dict = {}
        # phase -> layer -> calls entering the layer from another one
        self.entries: dict = {}
        # phase -> counter name -> value
        self.counters: dict = {}
        self._stack: list = []
        self._depth: dict = {}
        self._op = -1
        self._undo: list = []
        self._names: set = set()

    # -- phases and ops -------------------------------------------------------

    @contextlib.contextmanager
    def phase(self, name: str, traced: bool = True):
        """Trace the block as phase ``name`` (a no-op when not traced)."""
        if not traced:
            yield
            return
        self.active, self.phase_name = True, name
        self.stats.setdefault(name, {})
        self.entries.setdefault(name, {})
        self.counters.setdefault(name, {})
        try:
            yield
        finally:
            self.active = False

    @contextlib.contextmanager
    def op(self, label: str):
        """Root span of one benchmark operation."""
        if not self.active:
            yield
            return
        self._op += 1
        frame = self._enter("bench." + label, "bench")
        try:
            yield
        finally:
            self._exit(frame, None, None)

    def add(self, counter: str, amount) -> None:
        if self.active:
            c = self.counters[self.phase_name]
            c[counter] = c.get(counter, 0) + amount

    # -- span bookkeeping -----------------------------------------------------

    def _enter(self, name: str, layer: str) -> _Frame:
        f = _Frame()
        f.name, f.layer, f.child, f.cross = name, layer, 0.0, 0.0
        depth = self._depth.get(name, 0) + 1
        self._depth[name] = depth
        f.outer = depth == 1
        parent = self._stack[-1] if self._stack else None
        if parent is None or parent.layer != layer:
            e = self.entries[self.phase_name]
            e[layer] = e.get(layer, 0) + 1
        if len(self.spans) < MAX_SPANS:
            f.span = len(self.spans)
            self.spans.append([name, 0.0, 0.0,
                               parent.span if parent is not None else -1,
                               self._op, self.phase_name])
        else:
            f.span = -1
            self.dropped += 1
        self._stack.append(f)
        f.start = time.perf_counter()
        return f

    def _exit(self, f: _Frame, args, out) -> None:
        end = time.perf_counter()
        dur = end - f.start
        self._stack.pop()
        self._depth[f.name] -= 1
        st = self.stats[self.phase_name].get(f.name)
        if st is None:
            st = self.stats[self.phase_name][f.name] = [0, 0.0, 0, 0.0]
        st[0] += 1
        st[1] += dur - f.child
        if f.outer:
            st[2] += 1
            st[3] += dur - f.cross
        if self._stack:
            parent = self._stack[-1]
            parent.child += dur
            parent.cross += dur if parent.layer != f.layer else f.cross
        if f.span >= 0:
            self.spans[f.span][1] = f.start
            self.spans[f.span][2] = end
        counter = _COUNTERS.get(f.name)
        if counter is not None and out is not None:
            key, amount = counter(args, out)
            c = self.counters[self.phase_name]
            key = f.name + "." + key
            c[key] = c.get(key, 0) + amount

    # -- installation ---------------------------------------------------------

    def _wrap(self, name: str, layer: str, fn):
        tracer = self
        self._names.add(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            frame = tracer._enter(name, layer)
            out = None
            try:
                out = fn(*args, **kwargs)
                return out
            finally:
                tracer._exit(frame, args, out)
        return wrapper

    def _set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self) -> None:
        """Wrap the layer modules' functions."""
        package = importlib.import_module("conicwave")
        modules = {layer: importlib.import_module(f"conicwave.{layer}")
                   for layer in LAYERS}
        wrapped: dict = {}
        for layer, mod in modules.items():
            for attr, val in list(vars(mod).items()):
                if getattr(val, "__module__", None) != mod.__name__:
                    continue
                if isinstance(val, FunctionType):
                    wrapped[val] = self._wrap(f"{layer}.{attr}", layer, val)
                elif isinstance(val, type):
                    self._wrap_class(layer, mod, val)
        # every binding of a wrapped function, including cross-module imports
        for mod in (package, *modules.values()):
            for attr, val in list(vars(mod).items()):
                if isinstance(val, FunctionType) and val in wrapped:
                    self._set(mod, attr, wrapped[val])
        jost = modules["jost"]
        self._set(jost, "solve_ivp",
                  self._wrap("jost.solve_ivp", "jost", jost.solve_ivp))
        self.missing = [n for names in NAMED.values() for n in names
                        if n not in self._names]

    def _wrap_class(self, layer: str, mod, cls) -> None:
        for name, member in list(vars(cls).items()):
            if name.startswith("__") and name not in ("__init__", "__call__"):
                continue
            binder = type(member) if isinstance(
                member, (classmethod, staticmethod)) else None
            fn = member.__func__ if binder else member
            if not isinstance(fn, FunctionType) \
                    or fn.__code__.co_filename != mod.__file__:
                continue
            w = self._wrap(f"{layer}.{cls.__name__}.{name}", layer, fn)
            self._set(cls, name, binder(w) if binder else w)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    # -- reporting ------------------------------------------------------------

    def phases(self) -> list:
        return list(self.stats)

    def layer_table(self, phase: str) -> dict:
        """layer -> (entries, own seconds) for one phase."""
        out = {}
        for name, (_, own, _, _) in self.stats.get(phase, {}).items():
            out.setdefault(name.split(".", 1)[0], [0, 0.0])[1] += own
        for layer, n in self.entries.get(phase, {}).items():
            out.setdefault(layer, [0, 0.0])[0] = n
        return out

    def named(self, phases, name: str) -> tuple:
        """(calls, outer calls, layer seconds) of a NAMED entry."""
        calls = outer = 0
        layer_s = 0.0
        for ph in phases:
            for span in NAMED[name]:
                st = self.stats.get(ph, {}).get(span)
                if st:
                    calls += st[0]
                    outer += st[2]
                    layer_s += st[3]
        return calls, outer, layer_s

    def counter(self, phases, key: str):
        return sum(self.counters.get(ph, {}).get(key, 0) for ph in phases)

    def dump(self) -> dict:
        return {"spans_fields": ["name", "start", "end", "parent", "op",
                                 "phase"],
                "spans": self.spans, "spans_dropped": self.dropped,
                "missing": self.missing,
                "stats_fields": ["calls", "own_s", "outer_calls", "layer_s"],
                "stats": self.stats, "entries": self.entries,
                "counters": self.counters}


class NullTracer:
    """Stand-in used when tracing is off: every hook is a no-op."""

    active = False

    @contextlib.contextmanager
    def phase(self, name: str, traced: bool = True):
        yield

    @contextlib.contextmanager
    def op(self, label: str):
        yield

    def add(self, counter: str, amount) -> None:
        pass
