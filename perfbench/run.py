"""The repository's benchmark: the paper pipeline and the served plan and
replan paths, timed from outside the program.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see README.md): ``paper-B`` runs ``NeuroPlan.plan`` in a host
process; ``serve-plan`` and ``serve-replan`` send HTTP requests to a
``neuroplan serve`` process from two keep-alive clients.  A run repeats
whole rounds -- a fresh host, then the workload's fixed operation list
-- until ``--seconds`` have passed.  ``--trace 0`` reports the
end-to-end metrics; ``--trace 1`` alternates untraced and traced rounds
and reports the per-layer metrics.  Every output is checked; the last
line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import http.client
import json
import os
import queue
import shutil
import signal
import subprocess
import sys
import tempfile
import threading
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import common  # noqa: E402
import loadgen  # noqa: E402
import mix  # noqa: E402
import tracing  # noqa: E402

WORK_ROOT = os.path.join(common.ROOT, ".perfbench-work")
HOST_TIMEOUT_S = 150.0
COST_RTOL = 1e-9  # the verifier's cost agreement (repro.scenarios.baselines)

END_TO_END = {
    "setup_s": "s",
    "run_s": "s",
    "p50_ms": "ms",
    "tail_ms": "ms",
    "plan_cost": "cost",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "topology.instance_s": "s",
    "core.first_stage_s": "s",
    "core.second_stage_s": "s",
    "rl.collect_s": "s",
    "rl.mask_s": "s",
    "rl.env_steps": "count",
    "rl.env_step_s": "s",
    "rl.lp_skip_frac": "ratio",
    "nn.backward_s": "s",
    "nn.optim_s": "s",
    "nn.forward_calls": "count",
    "nn.forward_s": "s",
    "evaluator.evaluate_calls": "count",
    "evaluator.evaluate_s": "s",
    "evaluator.check_calls": "count",
    "evaluator.check_s": "s",
    "solver.lp_solves": "count",
    "solver.lp_s": "s",
    "solver.milp_solves": "count",
    "solver.milp_s": "s",
    "solver.milp_nodes": "count",
    "planning.ilp_build_s": "s",
    "planning.ilp_vars": "count",
    "planning.ilp_rows": "count",
    "serve.http_ms": "ms",
    "serve.queue_ms": "ms",
    "serve.polish_ms": "ms",
    "serve.rollout_ms": "ms",
    "serve.cache_hits": "count",
    "serve.agent_builds": "count",
    "serve.batch_mean": "req/batch",
    "serve.lp_solves": "count",
    "solverfarm.warm_starts": "count",
    "solverfarm.cache_hits": "count",
    "solverfarm.lp_solves": "count",
    "trace.unattributed_s": "s",
    "trace.overhead_s": "s",
}


# ----------------------------------------------------------------------
# Host processes
# ----------------------------------------------------------------------
class Host:
    """A child process hosting the program, read line by line."""

    def __init__(self, args: list):
        self.started = time.perf_counter()
        self.proc = common.spawn(args)
        self._lines: queue.Queue = queue.Queue()
        self._reader = threading.Thread(target=self._read, daemon=True)
        self._reader.start()

    def _read(self) -> None:
        for line in self.proc.stdout:
            self._lines.put(line)
        self._lines.put(None)

    def line(self, prefix: str = "") -> str:
        """The next stdout line starting with ``prefix``."""
        deadline = time.perf_counter() + HOST_TIMEOUT_S
        while True:
            remaining = deadline - time.perf_counter()
            if remaining <= 0:
                raise TimeoutError(f"host printed no {prefix or 'line'!r}")
            try:
                line = self._lines.get(timeout=remaining)
            except queue.Empty:
                continue
            if line is None:
                raise RuntimeError(
                    f"host exited ({self.proc.wait()}) before printing "
                    f"{prefix or 'a line'!r}"
                )
            if line.startswith(prefix):
                return line.strip()

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
        try:
            self.proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self._reader.join(timeout=5)
        self.proc.stdout.close()


def http_json(port: int, method: str, path: str, body: "dict | None" = None):
    """One request on a fresh connection (set-up and read-outs only)."""
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=HOST_TIMEOUT_S)
    try:
        data = None if body is None else json.dumps(body).encode()
        conn.request(method, path, body=data, headers={"Connection": "close"})
        response = conn.getresponse()
        return response.status, json.loads(response.read())
    finally:
        conn.close()


# ----------------------------------------------------------------------
# Output checks shared by the workloads
# ----------------------------------------------------------------------
class Checks:
    """Property violations of a run, and the verifier's costs."""

    def __init__(self):
        self.problems: list = []
        self.rejected: set = set()  # identities the verifier rejected
        self.costs: dict = {}  # identity -> verifier-derived cost

    def verify(self, identity, instance, capacities, reported_cost) -> None:
        from repro.scenarios.verifier import verify_plan

        report = verify_plan(instance, capacities)
        if not report.feasible:
            sys.stderr.write(f"{identity}: verifier rejects the plan\n")
            self.rejected.add(identity)
            return
        if abs(report.cost - reported_cost) > COST_RTOL * max(1.0, abs(reported_cost)):
            self.problems.append(
                f"{identity}: verifier cost {report.cost!r} != reported "
                f"{reported_cost!r}"
            )
        self.costs[identity] = report.cost

    def same_everywhere(self, identity, plans) -> None:
        if any(plan != plans[0] for plan in plans[1:]):
            self.problems.append(f"{identity}: plans differ between operations")


def ok(record: dict) -> bool:
    return record["status"] == 200 and record["payload"].get("feasible") is True


# ----------------------------------------------------------------------
# paper-B: NeuroPlan.plan in a host process
# ----------------------------------------------------------------------
class PaperB:
    name = "paper-B"
    min_rounds = 1

    def __init__(self, workload_seed: int, tmp: str):
        # The paper profile fixes instance, training seed and alpha; the
        # workload seed has no input to arrange in a one-operation list.
        self.tmp = tmp
        self._rounds = 0

    def prepare(self) -> None:
        pass

    def round(self, traced: bool) -> dict:
        self._rounds += 1
        trace_path = os.path.join(self.tmp, f"trace-{self._rounds}.json")
        host = Host(["perfbench/host_core.py"] + ([trace_path] if traced else []))
        outcome = {"traced": traced, "trace": trace_path if traced else None}
        try:
            host.line('{"ready"')
            outcome["setup_s"] = time.perf_counter() - host.started
            result = json.loads(host.line('{"window"'))
        except (RuntimeError, TimeoutError) as exc:
            sys.stderr.write(f"paper-B round failed: {exc}\n")
            result = None
        finally:
            host.stop()
        outcome["result"] = result
        if result is not None:
            start, end = result["window"]
            outcome.update(window=(start, end), run_s=end - start)
            outcome["latencies_ms"] = [(end - start) * 1000.0]
            outcome["peak_rss_mb"] = result["peak_rss_mb"]
        return outcome

    def succeeded(self, rounds: list, rejected: set) -> int:
        return sum(
            1 for r in rounds if r["result"] is not None and "final" not in rejected
        )

    def check(self, rounds: list) -> Checks:
        from repro.topology import generators

        import host_core

        checks = Checks()
        results = [r["result"] for r in rounds if r["result"] is not None]
        if not results:
            checks.problems.append("no plan returned")
            return checks
        for result in results:
            if result["status"] != "optimal":
                checks.problems.append(f"stage-2 status {result['status']!r}")
            if result["final_cost"] > result["first_stage_cost"] * (1 + COST_RTOL):
                checks.problems.append("final plan costs more than the first stage")
        checks.same_everywhere("final", [r["final"] for r in results])
        checks.same_everywhere("first-stage", [r["first_stage"] for r in results])
        instance = generators.make_instance(
            host_core.TOPOLOGY, seed=host_core.INSTANCE_SEED, scale=host_core.SCALE
        )
        first = results[0]
        checks.verify(
            "first-stage", instance, first["first_stage"], first["first_stage_cost"]
        )
        checks.verify("final", instance, first["final"], first["final_cost"])
        if "first-stage" in checks.rejected:
            checks.problems.append("the verifier rejects the first-stage plan")
        checks.costs.pop("first-stage", None)  # plan_cost is the returned plan's
        return checks

    def response_layers(self, outcome: dict) -> dict:
        return {}


# ----------------------------------------------------------------------
# Served workloads: a neuroplan serve process per round
# ----------------------------------------------------------------------
SERVED_HORIZON = 512  # rollout steps of the published model
TRAIN = dict(epochs=2, steps_per_epoch=48, max_trajectory_length=96, seed=0)


def publish_model(store_dir: str) -> None:
    """Train the served policy on band-A@0.5 seed 0 and publish it with
    a rollout horizon long enough for every listed instance to end
    feasible."""
    from repro.rl.a2c import A2CConfig
    from repro.rl.agent import AgentConfig, NeuroPlanAgent
    from repro.serve import ModelKey, ModelStore
    from repro.topology import generators

    instance = generators.make_instance(mix.TOPOLOGY, seed=0, scale=mix.SCALE)
    agent = NeuroPlanAgent(
        instance,
        AgentConfig(max_units_per_step=2, max_steps=96, a2c=A2CConfig(**TRAIN)),
    )
    agent.train()
    ModelStore(store_dir).publish(
        agent.policy,
        key=ModelKey(mix.TOPOLOGY, mix.SCALE, "short"),
        agent_kwargs={
            "max_units_per_step": 2,
            "max_steps": SERVED_HORIZON,
            "evaluator_mode": "neuroplan",
            "feature_set": "capacity",
        },
        source={"algo": "a2c", "bench": "perfbench"},
    )


class Served:
    """Shared round structure of the two serving workloads."""

    warmup_path = "/v1/plan"
    min_rounds = 1

    def __init__(self, workload_seed: int, tmp: str):
        self.workload_seed = workload_seed
        self.tmp = tmp
        self.model_dir = os.path.join(tmp, "models")
        self._rounds = 0

    def prepare(self) -> None:
        publish_model(self.model_dir)

    def start(self, traced: bool, trace_path: str) -> "tuple[Host, int, float]":
        serve = ["serve", "--model-dir", self.model_dir, "--port", "0"]
        if traced:
            host = Host(["perfbench/serve_host.py", trace_path, *serve])
        else:
            host = Host(["-m", "repro.cli", *serve])
        try:
            line = host.line("neuroplan-serve listening on ")
            port = int(line.rsplit(":", 1)[1])
            status, _ = http_json(port, "GET", "/healthz")
            if status != 200:
                raise RuntimeError(f"/healthz answered {status}")
            body = mix.plan_body(mix.WARMUP_SEED, False)
            status, payload = http_json(port, "POST", self.warmup_path, body)
            if status != 200 or payload.get("feasible") is not True:
                raise RuntimeError(f"warm-up request failed: {status} {payload}")
        except BaseException:
            host.stop()
            raise
        return host, port, time.perf_counter() - host.started

    def round(self, traced: bool) -> dict:
        self._rounds += 1
        trace_path = os.path.join(self.tmp, f"trace-{self._rounds}.json")
        host, port, setup_s = self.start(traced, trace_path)
        try:
            records, window = loadgen.run_clients(port, self.scripts())
            _, server_metrics = http_json(port, "GET", "/metrics")
            peak = common.peak_rss_mb(host.proc.pid)
        finally:
            host.stop()
        return {
            "traced": traced,
            "trace": trace_path if traced else None,
            "setup_s": setup_s,
            "window": window,
            "run_s": window[1] - window[0],
            "records": records,
            "latencies_ms": [(r["end"] - r["start"]) * 1000.0 for r in records],
            "server_metrics": server_metrics,
            "peak_rss_mb": peak,
        }

    def succeeded(self, rounds: list, rejected: set) -> int:
        return sum(
            1
            for r in rounds
            for rec in r["records"]
            if ok(rec) and self.identity(rec) not in rejected
        )

    def response_layers(self, outcome: dict) -> dict:
        records = [r for r in outcome["records"] if ok(r)]
        plans = [r for r in records if r["path"] == "/v1/plan"]
        replans = [r for r in records if r["path"] == "/v1/replan"]
        computed = [r for r in records if not r["payload"]["cache_hit"]]
        polished = [r for r in computed if r["body"].get("second_stage")]

        def mean_ms(rows, value):
            return 1000.0 * sum(value(r) for r in rows) / len(rows) if rows else 0.0

        def timing(name):
            return lambda r: r["payload"]["timings"][name]

        server = outcome["server_metrics"]
        counters = server["telemetry"]["counters"]
        batches = forwards = 0
        for stats in server["batching"].get("models", {}).values():
            batches += stats["batches"] + stats["fastpath"]
            forwards += stats["coalesced_requests"] + stats["fastpath"]
        return {
            "serve.http_ms": mean_ms(
                records, lambda r: r["end"] - r["start"] - timing("total_s")(r)
            ),
            "serve.queue_ms": mean_ms(records, timing("queue_s")),
            "serve.polish_ms": mean_ms(polished, timing("ilp_s")),
            "serve.rollout_ms": mean_ms(computed, timing("rollout_s")),
            "serve.cache_hits": sum(1 for r in records if r["payload"]["cache_hit"]),
            "serve.agent_builds": counters.get("serve.models_loaded", 0),
            "serve.batch_mean": forwards / batches if batches else 0.0,
            "serve.lp_solves": sum(r["payload"]["lp_solves"] for r in plans),
            "solverfarm.warm_starts": sum(
                1 for r in replans if r["payload"]["replan"]["warm_start"]
            ),
            "solverfarm.cache_hits": sum(
                1 for r in replans if r["payload"]["solver_cache"]["rollout"]
            ),
            "solverfarm.lp_solves": sum(r["payload"]["lp_solves"] for r in replans),
        }


class ServePlan(Served):
    name = "serve-plan"
    # Enough rounds that the pooled latencies support the tail percentile.
    min_rounds = 4

    def scripts(self) -> list:
        return loadgen.shared_queue_scripts(
            mix.plan_phases(self.workload_seed, self._rounds), "/v1/plan"
        )

    @staticmethod
    def identity(record: dict) -> tuple:
        return (record["body"]["seed"], record["body"]["second_stage"])

    def check(self, rounds: list) -> Checks:
        from repro.topology import generators

        checks = Checks()
        by_identity: dict = {}
        for outcome in rounds:
            for record in outcome["records"]:
                if ok(record):
                    key = self.identity(record)
                    by_identity.setdefault(key, []).append(record["payload"])
        for key, payloads in sorted(by_identity.items()):
            checks.same_everywhere(key, [p["plan"] for p in payloads])
            seed, polished = key
            first = payloads[0]
            if polished:
                if first["second_stage_status"] != "optimal":
                    checks.problems.append(
                        f"{key}: polish status {first['second_stage_status']!r}"
                    )
                plain = by_identity.get((seed, False))
                if plain and first["cost"] > plain[0]["cost"] * (1 + COST_RTOL):
                    checks.problems.append(f"{key}: polish raised the cost")
            instance = generators.make_instance(
                mix.TOPOLOGY, seed=seed, scale=mix.SCALE
            )
            checks.verify(key, instance, first["plan"], first["cost"])
        return checks


class ServeReplan(Served):
    name = "serve-replan"
    warmup_path = "/v1/replan"

    def prepare(self) -> None:
        from repro.scenarios.multiperiod import growth_schedule
        from repro.topology import generators

        super().prepare()
        self.traffic: dict = {}  # instance seed -> per-period demand matrices
        self.specs: dict = {}  # instance seed -> per-period drift specs
        for seeds in mix.REPLAN_CLIENT_SEEDS:
            for seed in seeds:
                base = generators.make_instance(
                    mix.TOPOLOGY, seed=seed, scale=mix.SCALE
                )
                schedule = growth_schedule(base.traffic, periods=mix.PERIODS, seed=seed)
                self.traffic[seed] = schedule
                self.specs[seed] = [
                    {
                        "flows": [
                            {
                                "src": f.src,
                                "dst": f.dst,
                                "cos": f.cos.name,
                                "demand": f.demand,
                            }
                            for f in traffic
                        ]
                    }
                    for traffic in schedule
                ]

    def scripts(self) -> list:
        walks = mix.replan_walks(self.workload_seed, self._rounds)
        return [self._walker(walk) for walk in walks]

    def _walker(self, walk: list):
        def script(client):
            for seed, repeats in walk:
                prior = prior_spec = None
                for period, spec in enumerate(self.specs[seed]):
                    body = {
                        "topology": mix.TOPOLOGY,
                        "scale": mix.SCALE,
                        "seed": seed,
                        "demands": spec,
                        "prior_plan": prior,
                        "prior_demands": prior_spec,
                        "no_cache": True,
                    }
                    tags = {"stream": seed, "period": period}
                    record = client.post("/v1/replan", body, repeat=False, **tags)
                    if period in repeats:
                        client.post("/v1/replan", body, repeat=True, **tags)
                    if not ok(record):
                        break  # the rest of the stream has no prior plan
                    prior, prior_spec = record["payload"]["plan"], spec

        return script

    @staticmethod
    def identity(record: dict) -> tuple:
        return (record["stream"], record["period"])

    def check(self, rounds: list) -> Checks:
        from dataclasses import replace

        from repro.rl.agent import greedy_rollout
        from repro.rl.env import PlanningEnv
        from repro.serve import ModelKey, PolicyRegistry

        checks = Checks()
        by_step: dict = {}
        warm: dict = {}  # stream -> last period answered by a warm rollout
        for outcome in rounds:
            for record in outcome["records"]:
                if ok(record):
                    key = self.identity(record)
                    by_step.setdefault(key, []).append(record["payload"])
                    if record["payload"]["replan"]["warm_start"]:
                        warm[record["stream"]] = max(
                            warm.get(record["stream"], 0), record["period"]
                        )
        registry = PolicyRegistry(self.model_dir)
        try:
            for (stream, period), payloads in sorted(by_step.items()):
                checks.same_everywhere((stream, period), [p["plan"] for p in payloads])
                before = by_step.get((stream, period - 1))
                if before and payloads[0]["cost"] < before[0]["cost"] * (1 - COST_RTOL):
                    checks.problems.append(
                        f"stream {stream}: cost fell at period {period}"
                    )
                agent, _ = registry.agent(
                    ModelKey(mix.TOPOLOGY, mix.SCALE, "short"), seed=stream
                )
                instance = replace(agent.instance, traffic=self.traffic[stream][period])
                checks.verify(
                    (stream, period), instance, payloads[0]["plan"], payloads[0]["cost"]
                )
            for stream in sorted({s for s, _ in by_step}):
                if stream not in warm:
                    checks.problems.append(f"stream {stream}: no warm replan")
                    continue
                period = warm[stream]
                agent, _ = registry.agent(
                    ModelKey(mix.TOPOLOGY, mix.SCALE, "short"), seed=stream
                )
                drifted = replace(agent.instance, traffic=self.traffic[stream][period])
                env = PlanningEnv(drifted, **agent.env.replica_kwargs())
                scratch = greedy_rollout(env, agent.policy)
                if scratch.capacities != by_step[(stream, period)][0]["plan"]:
                    checks.problems.append(
                        f"stream {stream} period {period}: warm replan differs "
                        "from a from-scratch rollout"
                    )
        finally:
            registry.close()
        return checks


WORKLOADS = {w.name: w for w in (PaperB, ServePlan, ServeReplan)}


# ----------------------------------------------------------------------
# Metrics
# ----------------------------------------------------------------------
def end_to_end(workload, rounds: list, checks: Checks) -> dict:
    rounds = [r for r in rounds if "run_s" in r]  # a failed host times nothing
    latencies = [ms for r in rounds for ms in r["latencies_ms"]]
    if workload.name == "paper-B":
        # One operation per round: the median and the slowest time to a
        # plan; too few samples for a tail percentile.
        tail = max(latencies)
    else:
        quantile = common.tail_percentile(
            workload.min_rounds * mix.ops_per_round(workload.name)
        )
        tail = common.percentile(latencies, quantile)
    costs = list(checks.costs.values())
    values = {
        "setup_s": common.median(r["setup_s"] for r in rounds),
        "run_s": common.median(r["run_s"] for r in rounds),
        "p50_ms": common.median(latencies),
        "tail_ms": tail,
        "plan_cost": sum(costs) / len(costs) if costs else float("nan"),
        "peak_rss_mb": common.median(r["peak_rss_mb"] for r in rounds),
    }
    return values


def per_layer(workload, untraced: list, traced: list) -> dict:
    values = dict.fromkeys(PER_LAYER, 0.0)
    traced = [r for r in traced if "run_s" in r]
    untraced = [r for r in untraced if "run_s" in r]
    layer_rows = []
    for r in traced:
        with open(r["trace"], encoding="utf-8") as handle:
            layer_rows.append(tracing.summarize(json.load(handle), r["window"]))
    response_rows = [workload.response_layers(r) for r in untraced]
    for rows in (layer_rows, response_rows):
        for name in rows[0] if rows else ():
            values[name] = common.median(row[name] for row in rows)
    values["trace.overhead_s"] = common.median(
        r["run_s"] for r in traced
    ) - common.median(r["run_s"] for r in untraced)
    return values


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    common.require_program()

    os.makedirs(WORK_ROOT, exist_ok=True)
    tmp = tempfile.mkdtemp(dir=WORK_ROOT)
    try:
        workload = WORKLOADS[args.workload](args.seed, tmp)
        workload.prepare()
        untraced: list = []
        traced: list = []
        steal_before, ticks_before = common.cpu_ticks()
        deadline = time.perf_counter() + args.seconds
        while (
            not untraced
            or time.perf_counter() < deadline
            or (not args.trace and len(untraced) < workload.min_rounds)
        ):
            untraced.append(workload.round(traced=False))
            if args.trace:
                traced.append(workload.round(traced=True))
        steal_after, ticks_after = common.cpu_ticks()
        rounds = untraced + traced
        checks = workload.check(rounds)
        attempted = len(rounds) * mix.ops_per_round(workload.name)
        failed = attempted - workload.succeeded(rounds, checks.rejected)
        if args.trace:
            values = per_layer(workload, untraced, traced)
            units = PER_LAYER
        else:
            values = end_to_end(workload, untraced, checks)
            units = END_TO_END
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    correct = not checks.problems
    for problem in checks.problems:
        sys.stderr.write(f"check failed: {problem}\n")
    steal = (steal_after - steal_before) / max(1, ticks_after - ticks_before)
    print(
        f"workload={workload.name} seed={args.seed} cpu_count={os.cpu_count()} "
        f"cpu_steal={steal:.1%} rounds: {len(untraced)} untraced, "
        f"{len(traced)} traced"
    )
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": attempted,
                "failed": failed,
                "metrics": {
                    name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()
                },
            }
        )
    )
    return 0 if correct and failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
