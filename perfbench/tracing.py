"""Span wrappers around the public functions of each layer.

A traced host process calls :func:`install` once, after importing the
program and before doing any work.  Every wrapped call records one span
``(name, start, end)`` in memory (``time.perf_counter`` is the system
monotonic clock, so spans from a server compare with the client's own
timestamps); :func:`dump` writes them out when the host ends.  Nothing
under ``src/`` knows about this module.

A call into a layer that is already open on the same thread records no
second span, so a layer's time is never counted twice; a layer's span
does include the time of the layers it calls.
"""

from __future__ import annotations

import functools
import json
import threading
import time

_clock = time.perf_counter


class Recorder:
    """Spans and counters, kept in memory until :meth:`dump`."""

    def __init__(self):
        self.spans: list = []
        self.counters: dict = {}
        self._local = threading.local()
        self._lock = threading.Lock()

    def stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def count(self, name: str, amount: float = 1) -> None:
        with self._lock:
            self.counters[name] = self.counters.get(name, 0) + amount

    def call(self, name: str, fn, args, kwargs):
        stack = self.stack()
        if name in stack:
            return fn(*args, **kwargs)
        stack.append(name)
        start = _clock()
        try:
            return fn(*args, **kwargs)
        finally:
            end = _clock()
            stack.pop()
            # list.append is atomic under the interpreter lock.
            self.spans.append((name, start, end))

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"spans": self.spans, "counters": self.counters}, handle)


def _wrap(recorder: Recorder, owner, attr: str, name: str, after=None) -> None:
    original = getattr(owner, attr)

    @functools.wraps(original)
    def wrapper(*args, **kwargs):
        result = recorder.call(name, original, args, kwargs)
        if after is not None:
            after(args, result)
        return result

    setattr(owner, attr, wrapper)


def install(recorder: Recorder) -> None:
    """Wrap every layer's public functions; call once per process."""
    from repro.core.neuroplan import NeuroPlan
    from repro.evaluator.evaluator import PlanEvaluator
    from repro.evaluator.feasibility import FeasibilityChecker
    from repro.nn.optim import Adam
    from repro.nn.tensor import Tensor
    from repro.planning.formulation import PlanningILP
    from repro.rl import batched, rollouts
    from repro.rl.env import PlanningEnv
    from repro.rl.policy import ActorCriticPolicy
    from repro.serve.service import PlanningService
    from repro.solver import model as solver_model
    from repro.topology import generators

    wrap = functools.partial(_wrap, recorder)
    wrap(generators, "make_instance", "topology.instance")
    wrap(NeuroPlan, "first_stage", "core.first_stage")
    wrap(NeuroPlan, "second_stage", "core.second_stage")
    for collector in (
        rollouts.SerialRolloutCollector,
        rollouts.ParallelRolloutCollector,
        batched.BatchedRolloutCollector,
    ):
        wrap(collector, "collect", "rl.collect")
    wrap(PlanningEnv, "action_mask", "rl.mask")
    wrap(PlanningEnv, "step", "rl.env_step")
    wrap(Tensor, "backward", "nn.backward")
    wrap(Adam, "step", "nn.optim")
    for method in ("forward", "value", "distribution"):
        wrap(ActorCriticPolicy, method, "nn.forward")
    wrap(batched.BatchedPolicyEvaluator, "forward", "nn.forward")

    def count_step_evaluation(_args, _result):
        if "rl.env_step" in recorder.stack():
            recorder.count("rl.step_evaluations")

    wrap(PlanEvaluator, "evaluate", "evaluator.evaluate", count_step_evaluation)
    wrap(FeasibilityChecker, "check", "evaluator.check")

    def record_ilp_size(args, _result):
        ilp = args[0]
        recorder.count("planning.ilp_vars", ilp.num_variables)
        recorder.count("planning.ilp_rows", ilp.num_constraints)

    wrap(PlanningILP, "__init__", "planning.ilp_build", record_ilp_size)

    optimize = solver_model.Model.optimize

    @functools.wraps(optimize)
    def traced_optimize(self, *args, **kwargs):
        relax = kwargs.get("relax", args[2] if len(args) > 2 else False)
        integer = not relax and self.num_integer_variables > 0
        name = "solver.milp" if integer else "solver.lp"
        return recorder.call(name, optimize, (self, *args), kwargs)

    solver_model.Model.optimize = traced_optimize

    milp = solver_model.milp

    @functools.wraps(milp)
    def counted_milp(*args, **kwargs):
        result = milp(*args, **kwargs)
        recorder.count("solver.milp_nodes", getattr(result, "mip_node_count", 0))
        return result

    solver_model.milp = counted_milp
    wrap(PlanningService, "plan", "serve.request")
    wrap(PlanningService, "replan", "serve.request")


def union_length(intervals) -> float:
    """Total length covered by a set of ``(start, end)`` intervals."""
    covered = 0.0
    reach = float("-inf")
    for start, end in sorted(intervals):
        if end <= reach:
            continue
        covered += end - max(start, reach)
        reach = end
    return covered


def summarize(trace: dict, window: "tuple[float, float]") -> dict:
    """Per-layer figures of one traced host, over its whole life.

    ``window`` is the timed part of the run; ``trace.unattributed_s``
    is the share of it that no span covers.
    """
    totals: dict = {}
    counts: dict = {}
    for name, start, end in trace["spans"]:
        totals[name] = totals.get(name, 0.0) + (end - start)
        counts[name] = counts.get(name, 0) + 1
    counters = trace["counters"]
    steps = counts.get("rl.env_step", 0)
    evaluations = counters.get("rl.step_evaluations", 0)
    lo, hi = window
    clipped = [
        (max(start, lo), min(end, hi))
        for _, start, end in trace["spans"]
        if end > lo and start < hi
    ]
    return {
        "topology.instance_s": totals.get("topology.instance", 0.0),
        "core.first_stage_s": totals.get("core.first_stage", 0.0),
        "core.second_stage_s": totals.get("core.second_stage", 0.0),
        "rl.collect_s": totals.get("rl.collect", 0.0),
        "rl.mask_s": totals.get("rl.mask", 0.0),
        "rl.env_steps": steps,
        "rl.env_step_s": totals.get("rl.env_step", 0.0),
        "rl.lp_skip_frac": 1.0 - evaluations / steps if steps else 0.0,
        "nn.backward_s": totals.get("nn.backward", 0.0),
        "nn.optim_s": totals.get("nn.optim", 0.0),
        "nn.forward_calls": counts.get("nn.forward", 0),
        "nn.forward_s": totals.get("nn.forward", 0.0),
        "evaluator.evaluate_calls": counts.get("evaluator.evaluate", 0),
        "evaluator.evaluate_s": totals.get("evaluator.evaluate", 0.0),
        "evaluator.check_calls": counts.get("evaluator.check", 0),
        "evaluator.check_s": totals.get("evaluator.check", 0.0),
        "solver.lp_solves": counts.get("solver.lp", 0),
        "solver.lp_s": totals.get("solver.lp", 0.0),
        "solver.milp_solves": counts.get("solver.milp", 0),
        "solver.milp_s": totals.get("solver.milp", 0.0),
        "solver.milp_nodes": counters.get("solver.milp_nodes", 0),
        "planning.ilp_build_s": totals.get("planning.ilp_build", 0.0),
        "planning.ilp_vars": counters.get("planning.ilp_vars", 0),
        "planning.ilp_rows": counters.get("planning.ilp_rows", 0),
        "trace.unattributed_s": max(0.0, (hi - lo) - union_length(clipped)),
    }
