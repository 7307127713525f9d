"""Spans around calls into deffuant, installed from outside the package.

``Tracer.install`` replaces the public entry points of each module (and the
hooks of each observer class) with wrappers that time every call.  Spans are
kept in memory as per-(parent, name) aggregates of call count, total time and
time covered by direct child spans, so self time is ``total - child``.
Counters that per-step ratios need are taken at the same boundaries, in
``note`` callbacks that run after a span has closed.

The tracer's own work is taken out of every figure.  Before it wraps
anything, ``install`` times a wrapped no-op against a plain one and learns
what a span costs inside its own window and what it leaves on its caller.
Each span's time is then reduced by its own inside cost, by the cost of every
span nested in it and by the time of their notes.  This is an estimate: the
no-op takes four positional arguments, the real calls take two to ten.
"""

from __future__ import annotations

import functools
import os
import statistics
import sys
from time import perf_counter


class Tracer:
    def __init__(self):
        self.spans: dict[tuple[str, str], list] = {}   # (parent, name) -> [calls, total, child]
        self.counts: dict[str, float] = {}
        self.durations: dict[str, list[float]] = {}
        # open spans: [name, child time, tracer time spent inside the window]
        self._stack: list[list] = []
        # seconds per span: inside its window, left on the caller without and with a note
        self.cost = {"inside": 0.0, "outside": 0.0, "outside_noted": 0.0}
        self._last_step = None

    def count(self, key: str, value: float = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + value

    def wrap(self, func, name: str, keep: bool = False, note=None):
        """``func`` timed as span ``name``; ``note(args, result)`` runs after it.

        The note's own time is charged to the tracer, not to any span.
        """
        spans, stack = self.spans, self._stack
        inside = self.cost["inside"]
        outside = self.cost["outside" if note is None else "outside_noted"]

        @functools.wraps(func)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            frame = [name, 0.0, 0.0]
            stack.append(frame)
            t0 = perf_counter()
            try:
                result = func(*args, **kwargs)
            finally:
                dt = perf_counter() - t0 - inside - frame[2]
                stack.pop()
                key = (parent[0] if parent else "", name)
                agg = spans.get(key)
                if agg is None:
                    agg = spans[key] = [0, 0.0, 0.0]
                agg[0] += 1
                agg[1] += dt
                agg[2] += frame[1]
                if parent is not None:
                    parent[1] += dt
                    parent[2] += frame[2] + inside + outside
                if keep:
                    self.durations.setdefault(name, []).append(dt)
            if note is not None:
                t1 = perf_counter()
                note(args, result)
                if parent is not None:
                    parent[2] += perf_counter() - t1
            return result

        return traced

    def calibrate(self, calls: int = 20000, repeats: int = 5) -> None:
        """Set ``cost`` from a wrapped no-op timed against a plain one."""

        def noop(a, b, c, d):
            return None

        def loop(f):
            for _ in range(calls):
                f(1, 2, 3, 4)

        def empty(f):
            for _ in range(calls):
                pass

        samples = {key: [] for key in self.cost}
        for _ in range(repeats):
            for noted in (False, True):
                probe = Tracer()   # zero costs: its figures hold the whole tracer cost
                inner = probe.wrap(noop, "inner", note=(lambda args, result: None)
                                   if noted else None)
                probe.wrap(loop, "outer")(inner)
                t0 = perf_counter()
                empty(noop)
                t1 = perf_counter()
                loop(noop)
                t2 = perf_counter()
                outer_calls, outer_total, outer_child = probe.spans[("", "outer")]
                inner_total = probe.spans[("outer", "inner")][1]
                # the outer self time beyond the bare loop is what each span left on it
                samples["outside_noted" if noted else "outside"].append(
                    (outer_total - outer_child - (t1 - t0)) / calls)
                if not noted:
                    # the inner window beyond a plain call
                    samples["inside"].append((inner_total - (t2 - t1 - (t1 - t0))) / calls)
        self.cost = {key: max(0.0, statistics.median(v)) for key, v in samples.items()}

    def patch_function(self, module, attr: str, name: str, **kw) -> None:
        """Wrap ``module.attr`` and every reference to it held by a deffuant module."""
        original = getattr(module, attr)
        _replace_everywhere(original, self.wrap(original, name, **kw))

    def patch_method(self, cls, attr: str, name: str, **kw) -> None:
        """Wrap a method only where ``cls`` itself defines it."""
        if attr in vars(cls):
            setattr(cls, attr, self.wrap(vars(cls)[attr], name, **kw))

    def install(self) -> None:
        from deffuant import cli, geometry, graphs, invariants, model, montecarlo, norms

        self.calibrate()
        self.patch_function(cli, "load_config", "cli.load_config")
        for attr in ("_write_csv", "_write_json"):
            self.patch_function(cli, attr, "cli.artifacts",
                                note=lambda args, _: self.count(
                                    "cli.artifacts.bytes", os.path.getsize(args[0])))

        def note_trajectory(args, trajectory):
            self.count("model.steps", trajectory.steps_run)

        run_trajectory = self.wrap(model.run_trajectory, "model.run_trajectory",
                                   note=note_trajectory)

        @functools.wraps(model.run_trajectory)
        def fresh_run_trajectory(*args, **kwargs):
            self._last_step = None
            return run_trajectory(*args, **kwargs)

        _replace_everywhere(model.run_trajectory, fresh_run_trajectory)

        def note_step(args, _):
            # Every observer sees each step; count it at the first one.
            t, i, fired = args[1], args[2], args[4]
            if t != self._last_step:
                self._last_step = t
                if fired:
                    self.count("model.fired_steps")
                if i < 0:
                    self.count("model.empty_steps")

        self.patch_function(graphs, "complete_edges", "graphs.complete_edges")
        for cls in (graphs.ConstantGraph, graphs.CyclicGraph, graphs.ErdosRenyiGraph,
                    graphs.PiecewiseGraph):
            self.patch_method(cls, "edges_at", "graphs.edges_at")

        for cls, label in ((invariants.UpdateIdentityObserver, "identity"),
                           (invariants.ContractionObserver, "contraction"),
                           (invariants.DiameterMonotoneObserver, "diameter")):
            for hook in ("at_start", "before_step", "after_step", "at_end"):
                self.patch_method(cls, hook, f"invariants.{label}.{hook}",
                                  note=note_step if hook == "after_step" else None)

        def note_tracker(args, _):
            tracker, t, social_edges = args[0], args[1], args[-1]
            if tracker.time is None or tracker.time == t:   # the edges were measured
                self.count("invariants.tracker.edges_measured", len(social_edges))

        self.patch_method(invariants.StoppingTimeTracker, "before_step",
                          "invariants.tracker.before_step", note=note_tracker)
        self.patch_method(invariants.StoppingTimeTracker, "at_end",
                          "invariants.tracker.at_end", note=note_tracker)
        self.patch_function(invariants, "settle_time", "invariants.settle_time",
                            note=lambda args, _: self.count(
                                "invariants.settle_time.states", len(args[0])))

        def note_trial(args, result):
            self.count("montecarlo.trials")
            self.count("montecarlo.trial_steps", result.steps_run)
            self.count("montecarlo.decided", result.outcome.verdict.value != "undecided")

        self.patch_function(montecarlo, "run_trial", "montecarlo.run_trial", keep=True,
                            note=note_trial)
        self.patch_function(montecarlo, "run_ensemble", "montecarlo.run_ensemble")
        for hook in ("at_start", "after_step", "at_end"):
            self.patch_method(montecarlo.OutcomeClassifier, hook,
                              f"montecarlo.classifier.{hook}",
                              note=note_step if hook == "after_step" else None)
        self.patch_method(montecarlo.OutcomeClassifier, "_check",
                          "montecarlo.classifier.check")

        self.patch_function(geometry, "chebyshev_center", "geometry.bound")
        self.patch_function(geometry, "expected_center_distance", "geometry.bound")

        def note_cross(args, _):
            a, b = args[0], args[1]
            # the (m, k, d) difference temporary plus the (m, k) result, in float64
            self.count("norms.cross_distances.bytes_computed",
                       8 * a.shape[0] * b.shape[0] * (a.shape[1] + 1))

        self.patch_function(norms, "cross_distances", "norms.cross_distances",
                            note=note_cross)

    def export(self) -> dict:
        return {
            "spans": [[parent, name, *agg] for (parent, name), agg in self.spans.items()],
            "counts": self.counts,
            "durations": self.durations,
            "cost": self.cost,
        }


def _replace_everywhere(original, replacement) -> None:
    for mod_name, mod in list(sys.modules.items()):
        if mod_name == "deffuant" or mod_name.startswith("deffuant."):
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, replacement)
