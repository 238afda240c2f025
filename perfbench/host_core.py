"""Host process of the paper-B workload: the paper's two-stage pipeline.

Run as ``python3 perfbench/host_core.py [TRACE_OUT]`` with the
checkout's ``src`` on ``PYTHONPATH``.  It imports the program, builds
the instance, prints a ``ready`` line, runs one ``NeuroPlan.plan`` and
prints the result as one JSON line.  With ``TRACE_OUT`` the layers are
wrapped in spans (see ``tracing.py``) and the spans are written there.
"""

import json
import os
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import common  # noqa: E402

# Band B at scale 0.5: 9 nodes, 20 IP links, 15 failure scenarios, 29
# flows.  8 x 128 training steps give stage 1 and the stage-2 MILP each
# a large share of the run.  No ILP time limit, so the plan is a
# function of these inputs alone.
TOPOLOGY = "B"
SCALE = 0.5
INSTANCE_SEED = 0
PROFILE = dict(
    epochs=8,
    steps_per_epoch=128,
    max_trajectory_length=128,
    relax_factor=1.5,
    seed=0,
    ilp_time_limit=None,
)


def main() -> int:
    trace_out = sys.argv[1] if len(sys.argv) > 1 else None
    from repro.core.neuroplan import NeuroPlan, NeuroPlanConfig
    from repro.topology import generators

    recorder = None
    if trace_out:
        import tracing

        recorder = tracing.Recorder()
        tracing.install(recorder)
    instance = generators.make_instance(TOPOLOGY, seed=INSTANCE_SEED, scale=SCALE)
    print(json.dumps({"ready": True}), flush=True)

    planner = NeuroPlan(NeuroPlanConfig(**PROFILE))
    start = time.perf_counter()
    result = planner.plan(instance)
    end = time.perf_counter()
    if recorder is not None:
        recorder.dump(trace_out)
    print(
        json.dumps(
            {
                "window": [start, end],
                "status": result.second_stage_status,
                "first_stage": result.first_stage.capacities,
                "first_stage_cost": result.first_stage_cost,
                "final": result.final.capacities,
                "final_cost": result.final_cost,
                "peak_rss_mb": common.peak_rss_mb(os.getpid()),
            }
        ),
        flush=True,
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
