"""The operation lists, as pure functions of the workload seed and the
round's index within the run.

Every list is a seeded *arrangement* of a fixed multiset of distinct
operations: the seed decides order, which identities repeat and where,
but never which instances or demands are planned.  So the distinct
plans, and their mean cost, are the same for every seed, while the
order the service sees them in is not.
"""

from __future__ import annotations

import random

TOPOLOGY = "A"
SCALE = 0.5

# serve-plan: band-A@0.5 instance seeds; each is planned unpolished and
# polished once (the first request for a seed builds its agent cold),
# then REPEATS of those identities are sent again as response-cache hits.
PLAN_SEEDS = tuple(range(10))
PLAN_REPEATS = 10

# Instance seed of the request that finishes server set-up.  It is in
# no list, so every listed seed still pays its cold agent build.
WARMUP_SEED = 10

# serve-replan: client i walks the growth streams over REPLAN_CLIENT_SEEDS[i],
# one stream per instance seed, PERIODS periods each; REPLAN_REPEATS
# periods per stream are sent twice in a row (solver-cache hits).
REPLAN_CLIENT_SEEDS = ((0, 2, 4), (1, 3, 5))
PERIODS = 16
REPLAN_REPEATS = 2


def plan_body(seed: int, second_stage: bool) -> dict:
    return {
        "topology": TOPOLOGY,
        "scale": SCALE,
        "seed": seed,
        "second_stage": second_stage,
    }


def _rng(workload_seed: int, round_index: int) -> random.Random:
    # Each round of a run gets its own arrangement, so a run's figures
    # average over many orders instead of resting on one.
    return random.Random(workload_seed * 1_000_003 + round_index)


def plan_phases(workload_seed: int, round_index: int) -> list:
    """Two phases of request bodies: every distinct identity once, in a
    seeded order, then the seeded repeats.  The clients finish the
    first phase before starting the second, so each repeat is a hit."""
    rng = _rng(workload_seed, round_index)
    distinct = [
        plan_body(seed, polish) for seed in PLAN_SEEDS for polish in (False, True)
    ]
    first = list(distinct)
    rng.shuffle(first)
    repeats = [dict(body) for body in rng.sample(distinct, PLAN_REPEATS)]
    return [first, repeats]


def replan_walks(workload_seed: int, round_index: int) -> list:
    """Per client: ``[(instance_seed, repeated_periods), ...]`` in the
    seeded order the client walks its streams."""
    rng = _rng(workload_seed, round_index)
    walks = []
    for seeds in REPLAN_CLIENT_SEEDS:
        order = list(seeds)
        rng.shuffle(order)
        walks.append(
            [
                (seed, tuple(sorted(rng.sample(range(1, PERIODS), REPLAN_REPEATS))))
                for seed in order
            ]
        )
    return walks


def ops_per_round(workload: str) -> int:
    if workload == "serve-plan":
        return 2 * len(PLAN_SEEDS) + PLAN_REPEATS
    if workload == "serve-replan":
        streams = sum(len(seeds) for seeds in REPLAN_CLIENT_SEEDS)
        return streams * (PERIODS + REPLAN_REPEATS)
    return 1
