"""Spans around the calls into each ``choremarket`` module.

The tracer wraps every public function of every ``choremarket`` module, in
its defining module and wherever another ``choremarket`` module imported it
by name, so a call through either name opens a span.  The one private hook
is ``lp._pivot``, which is only counted.  Spans are recorded only inside an
operation window (``begin_op``/``end_op``); outside one the wrappers pass
straight through.  Spans live in flat arrays and are written out at the end.
"""

from __future__ import annotations

import functools
import gzip
import inspect
import json
import sys
import time
from array import array
from statistics import median

LAYERS = (
    "cli",
    "model",
    "lp",
    "enumeration",
    "fixedpoint",
    "verification",
    "graphs",
    "sat_reduction",
    "polymatrix",
)

JSON_FUNCTIONS = frozenset(
    f"model.{name}"
    for name in (
        "instance_to_json",
        "instance_from_json",
        "candidate_to_json",
        "candidate_from_json",
        "save_json",
        "load_json",
    )
)


def _verify_mode(args, kwargs, result):
    cand = args[1] if len(args) > 1 else kwargs.get("cand")
    return getattr(cand, "mode", None)


#: What to keep from a call's result, per span name.
NOTES = {
    "lp.lp_solve": lambda args, kwargs, result: result.status,
    "enumeration.enumerate_equilibria": lambda args, kwargs, result: (
        result.patterns_tried,
        len(result.equilibria),
    ),
    "fixedpoint.solve": lambda args, kwargs, result: result.iterations,
    "verification.verify_equilibrium": _verify_mode,
}


def _package_modules():
    return [
        module
        for name, module in sorted(sys.modules.items())
        if module is not None and (name == "choremarket" or name.startswith("choremarket."))
    ]


class Tracer:
    def __init__(self):
        self.names = []
        self._name_index = {}
        self.name = array("i")
        self.parent = array("q")
        self.op = array("q")
        self.start = array("d")
        self.end = array("d")
        self.notes = {}
        self.stack = []
        self.op_id = -1
        self.op_windows = []
        self.pivots = 0
        self._restore = []

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        modules = _package_modules()
        wrappers = {}
        for module in modules:
            layer = module.__name__.rsplit(".", 1)[-1]
            for attr, obj in vars(module).items():
                if (
                    attr.startswith("_")
                    or not inspect.isfunction(obj)
                    or obj.__module__ != module.__name__
                ):
                    continue
                name = f"{layer}.{attr}"
                wrappers[obj] = self._wrap(obj, name, NOTES.get(name))
        for module in modules:
            for attr, obj in list(vars(module).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._restore.append((module, attr, obj))
                    setattr(module, attr, wrappers[obj])
        lp = sys.modules.get("choremarket.lp")
        pivot = getattr(lp, "_pivot", None)
        if pivot is None:
            return

        def counted_pivot(*args, **kwargs):
            if self.op_id >= 0:
                self.pivots += 1
            return pivot(*args, **kwargs)

        self._restore.append((lp, "_pivot", pivot))
        lp._pivot = counted_pivot

    def uninstall(self) -> None:
        while self._restore:
            module, attr, obj = self._restore.pop()
            setattr(module, attr, obj)

    def _wrap(self, fn, name, note):
        index = self._name_index.setdefault(name, len(self.names))
        if index == len(self.names):
            self.names.append(name)
        clock = time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if tracer.op_id < 0:
                return fn(*args, **kwargs)
            stack = tracer.stack
            span = len(tracer.start)
            tracer.name.append(index)
            tracer.parent.append(stack[-1] if stack else -1)
            tracer.op.append(tracer.op_id)
            tracer.end.append(0.0)
            stack.append(span)
            tracer.start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.end[span] = clock()
                stack.pop()
            if note is not None:
                try:
                    tracer.notes[span] = note(args, kwargs, result)
                except (AttributeError, TypeError, IndexError):
                    pass  # a changed signature or result leaves the note out
            return result

        return traced

    # -- operation windows --------------------------------------------------

    def begin_op(self) -> None:
        self.op_id = len(self.op_windows)
        self.op_windows.append([time.perf_counter(), 0.0])

    def end_op(self) -> None:
        self.op_windows[-1][1] = time.perf_counter()
        self.op_id = -1

    # -- results --------------------------------------------------------------

    def layer_metrics(self) -> dict:
        """Per-layer counts and times over every recorded span."""
        n = len(self.start)
        names = [self.names[i] for i in self.name]
        layer_of = [name.split(".", 1)[0] for name in self.names]
        layer = [layer_of[i] for i in self.name]
        parent = self.parent
        dur = [e - s for s, e in zip(self.start, self.end)]
        child = [0.0] * n
        for i in range(n):
            if parent[i] >= 0:
                child[parent[i]] += dur[i]

        def is_entry(i):
            return parent[i] < 0 or layer[parent[i]] != layer[i]

        by_name = {}
        for i, name in enumerate(names):
            by_name.setdefault(name, []).append(i)

        def named(name):
            return by_name.get(name, [])

        def total(spans):
            return float(sum(dur[i] for i in spans))

        entries = {name: [] for name in LAYERS}
        self_s = dict.fromkeys(LAYERS, 0.0)
        for i in range(n):
            self_s[layer[i]] = self_s.get(layer[i], 0.0) + dur[i] - child[i]
            if is_entry(i):
                entries.setdefault(layer[i], []).append(i)

        lp_calls = named("lp.lp_solve")
        enum_calls = named("enumeration.enumerate_equilibria")
        patterns = sum(self.notes[i][0] for i in enum_calls if i in self.notes)
        rays = sum(self.notes[i][1] for i in enum_calls if i in self.notes)
        solves = named("fixedpoint.solve")
        snap_lps = [i for i in lp_calls if parent[i] >= 0 and names[parent[i]] == "fixedpoint.solve"]
        verifies = named("verification.verify_equilibrium")
        exact = [i for i in verifies if self.notes.get(i) == "exact"]
        floats = [i for i in verifies if self.notes.get(i) == "float"]
        json_spans = [
            i
            for i in range(n)
            if names[i] in JSON_FUNCTIONS and (parent[i] < 0 or names[parent[i]] not in JSON_FUNCTIONS)
        ]
        null_vector = named("fixedpoint.stochastic_null_vector")
        op_s = sum(end - start for start, end in self.op_windows)
        covered = sum(dur[i] for i in range(n) if parent[i] < 0)

        metrics = {
            "lp.calls": len(lp_calls),
            "lp.s": total(entries["lp"]),
            "lp.p50_ms": 1000 * median(dur[i] for i in lp_calls) if lp_calls else 0.0,
            "lp.pivots": self.pivots,
            "lp.pivots_per_call": self.pivots / len(lp_calls) if lp_calls else 0.0,
            "lp.infeasible_frac": (
                sum(1 for i in lp_calls if self.notes.get(i) == "infeasible") / len(lp_calls)
                if lp_calls
                else 0.0
            ),
            "enumeration.calls": len(entries["enumeration"]),
            "enumeration.patterns_tried": patterns,
            "enumeration.hit_frac": rays / patterns if patterns else 0.0,
            "fixedpoint.solve_calls": len(solves),
            "fixedpoint.iterations": sum(self.notes.get(i, 0) for i in solves),
            "fixedpoint.phi_step_s": total(named("fixedpoint.phi_step")),
            "fixedpoint.null_vector_calls": len(null_vector),
            "fixedpoint.null_vector_s": total(null_vector),
            "fixedpoint.allocation_s": total(named("fixedpoint.optimal_allocation")),
            "fixedpoint.snap_lp_calls": len(snap_lps),
            "fixedpoint.snap_lp_s": total(snap_lps),
            "model.agent_budget_calls": len(named("model.agent_budget")),
            "model.agent_budget_s": total(named("model.agent_budget")),
            "model.chore_supply_calls": len(named("model.chore_supply")),
            "model.chore_supply_s": total(named("model.chore_supply")),
            "model.json_s": total(json_spans),
            "cli.calls": len(entries["cli"]),
            "verification.exact_calls": len(exact),
            "verification.exact_s": total(exact),
            "verification.float_calls": len(floats),
            "verification.float_s": total(floats),
            "graphs.calls": len(entries["graphs"]),
            "graphs.s": total(entries["graphs"]),
            "sat_reduction.s": total(entries["sat_reduction"]),
            "polymatrix.s": total(entries["polymatrix"]),
            "trace.op_s": op_s,
            "trace.spans": n,
            "trace.coverage_frac": covered / op_s if op_s else 0.0,
        }
        for name in LAYERS:
            metrics[f"{name}.self_s"] = self_s[name]
        return metrics

    def write(self, path, extra: dict) -> None:
        """Write every span, relative to the first operation's start."""
        origin = self.op_windows[0][0] if self.op_windows else 0.0
        doc = dict(extra)
        doc["names"] = self.names
        doc["ops"] = [[s - origin, e - origin] for s, e in self.op_windows]
        doc["spans"] = {
            "name": list(self.name),
            "parent": list(self.parent),
            "op": list(self.op),
            "start": [round(s - origin, 9) for s in self.start],
            "end": [round(e - origin, 9) for e in self.end],
        }
        doc["notes"] = {str(i): v for i, v in self.notes.items()}
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as handle:
            json.dump(doc, handle)
