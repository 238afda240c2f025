"""Shared helpers: the checkout layout, statistics, child processes."""

from __future__ import annotations

import math
import os
import statistics
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")

# Tail percentiles the benchmark may report; a workload uses the highest
# one that its guaranteed sample count supports with ten samples beyond.
TAIL_LADDER = (90, 95, 98, 99)


def require_program() -> None:
    """Exit non-zero unless the program's sources sit beside the bench."""
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        sys.stderr.write(f"perfbench: no program sources under {SRC}\n")
        sys.exit(2)
    if SRC not in sys.path:
        sys.path.insert(0, SRC)


def spawn(args: list) -> subprocess.Popen:
    """A host process running the checkout's own sources, line-buffered."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    env["PYTHONUNBUFFERED"] = "1"
    return subprocess.Popen(
        [sys.executable, *args],
        cwd=ROOT,
        env=env,
        stdin=subprocess.DEVNULL,
        stdout=subprocess.PIPE,
        text=True,
    )


def peak_rss_mb(pid: int) -> float:
    """The process's peak resident set (VmHWM), in MB."""
    with open(f"/proc/{pid}/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


def cpu_ticks() -> "tuple[int, int]":
    """(steal, total) CPU ticks of this machine so far, from /proc/stat.

    Steal is time the hypervisor ran something else while this machine's
    CPUs had work; the benchmark reports its share of each run so that a
    slow run on a shared host can be told apart from a slow program.
    """
    with open("/proc/stat", encoding="ascii") as handle:
        fields = [int(v) for v in handle.readline().split()[1:]]
    return fields[7], sum(fields)


def median(values) -> float:
    return float(statistics.median(values))


def tail_percentile(min_samples: int) -> int:
    """Highest ladder percentile with at least ten samples beyond it."""
    supported = [
        q for q in TAIL_LADDER if min_samples * (100 - q) / 100.0 >= 10
    ]
    if not supported:
        raise ValueError(f"{min_samples} samples support no tail percentile")
    return supported[-1]


def percentile(values, q: float) -> float:
    """Nearest-rank percentile: the smallest value with at least q% of
    the sample at or below it."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of an empty sample")
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return float(ordered[rank - 1])


def quartile_spread(values) -> float:
    """Distance between the first and third quartile, over the median."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)
