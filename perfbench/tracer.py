"""Spans around calls into the public functions of each ezmerton module.

The tracer times the program from outside: `install` replaces each public
function of the six modules with a wrapper, in every ezmerton namespace that
holds it (so calls between modules are seen too), and the returned callable
puts the originals back.  Nothing inside the package changes.

When `picard_solve` raises, its span still carries the split point's chi,
outer iterations and clamp events: they are read from the solver's own frame
locals in the exception's traceback, since the failed solve returns no report.

Spans stay in memory and are written out when the run ends.  Functions that
run once per lattice layer (the kernel, `step_expectation`,
`transformed_consumption`) are counted into their caller instead of getting a
span of their own, which keeps memory bounded; their time still counts as
child time of the enclosing span, so self time stays exact.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time
from collections import defaultdict

MODULES = ("preferences", "closed_form", "lattice", "solver", "experiments", "cli")

#: Called once per lattice layer; aggregated instead of recorded as spans.
LEAVES = frozenset({
    "preferences.transformed_aggregator",
    "preferences.transformed_aggregator_grid",
    "preferences.transformed_consumption",
    "lattice.step_expectation",
})


#: Frame locals that hold (chi, outer iterations, clamp events) in the solver
#: functions a raising `picard_solve` passes through: its own frame once the
#: outer loop has returned (the iteration trace, one entry per iteration), else
#: the outer loop's frame (the number of the iteration that raised).
_SOLVER_LOCALS = {"picard_solve": ("chi", "trace", "clamp_events"),
                  "_solve_exponent": ("chi", "it", "clamp_total")}


def _failed_solve_attrs(error: BaseException) -> dict:
    """chi, outer iterations and clamp events of a `picard_solve` that raised.

    The first solver frame of the traceback that has all three locals set is
    the outermost iteration; empty when no frame has them.
    """
    tb = error.__traceback__
    while tb is not None:
        names = _SOLVER_LOCALS.get(tb.tb_frame.f_code.co_name)
        local = tb.tb_frame.f_locals
        if names and all(n in local for n in names):
            chi, its, clamps = (local[n] for n in names)
            its = len(its) if isinstance(its, list) else its
            return {"chi": chi, "iterations": its, "clamp_events": clamps}
        tb = tb.tb_next
    return {}


def _attrs(name: str, args, result, error: BaseException | None) -> dict | None:
    """Outcome attributes kept on the spans that carry them."""
    if name == "lattice.build_lattice" and result is not None:
        return {"n": result.n_steps}
    if name == "solver.picard_solve":
        attrs = {"rho": args[0].rho}
        if result is not None:
            attrs.update(iterations=result.iterations, residual=result.residual,
                         chi=result.chi, clamp_events=result.clamp_events)
        elif error is not None:
            attrs.update(error=type(error).__name__, **_failed_solve_attrs(error))
        return attrs
    if name == "solver.generalized_utility" and result is not None:
        return {"levels": len(result.ns)}
    return None


class Tracer:
    """Spans and per-function totals, grouped by phase ("setup", "pass0", ...)."""

    def __init__(self):
        self.phase = "setup"
        self.spans: list[dict] = []
        # (phase, name) -> [calls, inclusive ns, self ns]
        self.totals: dict[tuple[str, str], list[int]] = defaultdict(lambda: [0, 0, 0])
        self._stack: list[list[int]] = []  # child ns of each open span

    def call(self, name: str, fn, args, kwargs):
        clock = time.perf_counter_ns
        if name in LEAVES:
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                took = clock() - start
                tot = self.totals[(self.phase, name)]
                tot[0] += 1
                tot[1] += took
                tot[2] += took
                if self._stack:
                    self._stack[-1][0] += took
        frame = [0, len(self.spans)]  # child ns, span id
        parent = self._stack[-1][1] if self._stack else None
        self.spans.append(None)  # reserve the id so children point at it
        self._stack.append(frame)
        result, error = None, None
        start = clock()
        try:
            result = fn(*args, **kwargs)
            return result
        except BaseException as exc:
            error = exc
            raise
        finally:
            end = clock()
            self._stack.pop()
            took = end - start
            own = took - frame[0]
            if self._stack:
                self._stack[-1][0] += took
            tot = self.totals[(self.phase, name)]
            tot[0] += 1
            tot[1] += took
            tot[2] += own
            span = {"id": frame[1], "parent": parent, "phase": self.phase,
                    "name": name, "start_ns": start, "end_ns": end, "self_ns": own,
                    "ok": error is None}
            attrs = _attrs(name, args, result, error)
            error = None  # drop the traceback, which holds the solver's grids
            if attrs:
                span["attrs"] = attrs
            self.spans[frame[1]] = span

    def merge(self, phase: str, data: dict) -> None:
        """Add the spans and totals another process wrote, under `phase`."""
        offset = len(self.spans)
        for span in data["spans"]:
            span.update(phase=phase, id=span["id"] + offset,
                        parent=None if span["parent"] is None else span["parent"] + offset)
            self.spans.append(span)
        for _, name, calls, incl, own in data["totals"]:
            tot = self.totals[(phase, name)]
            tot[0] += calls
            tot[1] += incl
            tot[2] += own

    def to_json_dict(self) -> dict:
        return {"spans": self.spans,
                "totals": [[ph, name, *tot] for (ph, name), tot in self.totals.items()]}


def install(tracer: Tracer, *callers):
    """Wrap every public function of the six modules; returns the undo callable.

    The wrappers replace the originals in the ezmerton namespaces and in the
    `callers` modules, which imported some of them by name.
    """
    import ezmerton

    layers = {m: importlib.import_module(f"ezmerton.{m}") for m in MODULES}
    mods = [ezmerton, *layers.values(), *callers]
    wrappers = {}
    for modname, mod in layers.items():
        for attr in getattr(mod, "__all__", []):
            fn = getattr(mod, attr)
            if inspect.isfunction(fn) and fn.__module__ == mod.__name__:
                wrappers[id(fn)] = (fn, _wrap(tracer, f"{modname}.{attr}", fn))
    patched = []
    for mod in mods:
        for attr, value in list(vars(mod).items()):
            if id(value) in wrappers and wrappers[id(value)][0] is value:
                patched.append((mod, attr, value))
                setattr(mod, attr, wrappers[id(value)][1])

    def undo():
        for mod, attr, value in patched:
            setattr(mod, attr, value)

    return undo


def _wrap(tracer: Tracer, name: str, fn):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        return tracer.call(name, fn, args, kwargs)
    return traced
