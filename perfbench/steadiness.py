"""Steadiness check: two sets of runs of the same commit, compared.

    python3 perfbench/steadiness.py [--runs 10] [--sets 2] [--seconds 30]
                                    [--workloads paper-B,serve-plan,...]
                                    [--seed 100] [--out results.json]

Each set runs every workload ``--runs`` times, each run with its own
seed, rotating the workload order from one run to the next so slow
drift of the machine spreads over all workloads.  For every end-to-end
metric and workload it prints each set's median and quartile spread
(``statistics.quantiles(n=4)``, over the median) and whether the sets
agree within the bound in ``BENCHMARK.json``: every spread but that of
``setup_s`` within the bound, and no set's median worse than the first
set's by more than the bound.  The share of failed operations must be
the same in every set.  Exits non-zero when anything disagrees.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import common  # noqa: E402


def run_once(workload: str, seed: int, seconds: int) -> dict:
    started = time.perf_counter()
    proc = subprocess.run(
        [
            sys.executable,
            "perfbench/run.py",
            "--workload", workload,
            "--seed", str(seed),
            "--seconds", str(seconds),
            "--trace", "0",
        ],
        cwd=common.ROOT,
        stdout=subprocess.PIPE,
        stderr=subprocess.DEVNULL,
        text=True,
        timeout=600,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}")
    out = json.loads(lines[-1])
    out["wall_s"] = time.perf_counter() - started
    return out


def worse_by(first: float, second: float, better: str) -> float:
    """How much worse ``second`` is than ``first``, as a share of it."""
    change = (second - first) / first
    return change if better == "lower" else -change


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--sets", type=int, default=2)
    parser.add_argument("--seconds", type=int, default=None)
    parser.add_argument("--workloads", default=None)
    parser.add_argument("--seed", type=int, default=100)
    parser.add_argument("--out", default=None)
    args = parser.parse_args()

    with open(os.path.join(common.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    seconds = args.seconds or spec["run_seconds"]
    workloads = (
        args.workloads.split(",")
        if args.workloads
        else [w["name"] for w in spec["workloads"]]
    )
    metrics = {m["name"]: m for m in spec["end_to_end"]}

    results: dict = {}  # (set, workload) -> list of run outputs
    for set_index in range(args.sets):
        for run in range(args.runs):
            seed = args.seed + set_index * args.runs + run
            shift = run % len(workloads)
            for workload in workloads[shift:] + workloads[:shift]:
                out = run_once(workload, seed, seconds)
                results.setdefault((set_index, workload), []).append(out)
                print(
                    f"set {set_index} run {run} {workload} seed {seed} "
                    f"({out['wall_s']:.0f} s): "
                    + " ".join(
                        f"{k}={v['value']:.6g}" for k, v in out["metrics"].items()
                    ),
                    flush=True,
                )

    agree = True
    print()
    print(f"cpu_count={os.cpu_count()} runs={args.runs} seconds={seconds}")
    for workload in workloads:
        shares = {
            sum(o["failed"] for o in results[(s, workload)])
            / sum(o["attempted"] for o in results[(s, workload)])
            for s in range(args.sets)
        }
        correct = all(
            o["correct"] for s in range(args.sets) for o in results[(s, workload)]
        )
        if len(shares) != 1 or not correct:
            agree = False
        print(f"{workload}: failed shares {sorted(shares)} all correct {correct}")
        for name, metric in metrics.items():
            bound = metric["bound"]
            medians, spreads = [], []
            for s in range(args.sets):
                values = [o["metrics"][name]["value"] for o in results[(s, workload)]]
                medians.append(common.median(values))
                spreads.append(common.quartile_spread(values))
            spread_ok = name == "setup_s" or all(sp <= bound for sp in spreads)
            drift_ok = all(
                worse_by(medians[0], m, metric["better"]) <= bound for m in medians[1:]
            )
            agree = agree and spread_ok and drift_ok
            print(
                f"  {name:12s} medians "
                + " ".join(f"{m:.6g}" for m in medians)
                + "  spreads "
                + " ".join(f"{sp:.3f}" for sp in spreads)
                + f"  bound {bound}  {'ok' if spread_ok and drift_ok else 'DISAGREE'}"
            )
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(
                {f"{s}/{w}": runs for (s, w), runs in results.items()}, fh, indent=1
            )
    return 0 if agree else 1


if __name__ == "__main__":
    sys.exit(main())
