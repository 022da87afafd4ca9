"""Compare two commits' benchmark runs by the rule in BENCHMARK.json.

Usage::

    python bench/compare.py A.json B.json

``A.json`` holds the parent commit's runs and ``B.json`` the change's:
each is a ``bench/out/results.json`` collected by running ``bench/run.py``
in that commit's checkout, alternating which commit runs first. Runs
pair up by workload and seed, in order. For every end-to-end metric and
workload the report gives each side's median and quartiles, the share of
pairs the change won (ties count for neither) and a verdict:

``better``
    the change won at least nine tenths of the pairs and the medians
    differ by more than the parent's interquartile range;
``worse``
    the change's median is worse than the parent's by more than the
    metric's bound;
``unresolved``
    the parent's runs spread wider than the bound, so no-regression
    cannot be shown, and not every run of the change beats every run of
    the parent;
``unchanged``
    otherwise.

A gain does not count when the change failed more operations. Runs of a
workload and seed that measured different episode counts are not
comparable (tick times are minima over episodes); ``compare.py`` refuses
them with exit status 2. The report says whether the simulated run
traces are identical per seed, and lists per-layer medians of traced
runs side by side. The exit status is 1 when a metric got worse, a run
failed its checks, or a seed's run trace differs; pass
``--simulation-may-change`` for a change meant to alter the simulated
results.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path
from typing import Dict, List, Sequence, Tuple

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"
WIN_SHARE = 0.9


def load_runs(path: Path) -> List[dict]:
    return json.loads(Path(path).read_text())["runs"]


def pair_runs(a: Sequence[dict], b: Sequence[dict], trace: int) -> Dict[str, List[Tuple[dict, dict]]]:
    """Pairs of runs per workload, matched by seed in order of appearance.

    Raises ``ValueError`` when the two runs of a pair measured different
    episode counts.
    """
    queues: Dict[Tuple[str, int], List[dict]] = defaultdict(list)
    def usable(run: dict) -> bool:
        return run["trace"] == trace and not run["quick"] and bool(run["metrics"])

    for run in b:
        if usable(run):
            queues[(run["workload"], run["seed"])].append(run)
    pairs: Dict[str, List[Tuple[dict, dict]]] = defaultdict(list)
    for run in a:
        if not usable(run):
            continue
        queue = queues[(run["workload"], run["seed"])]
        if queue:
            change = queue.pop(0)
            if run["episode_count"] != change["episode_count"]:
                raise ValueError(
                    f"{run['workload']} seed {run['seed']}: the parent ran "
                    f"{run['episode_count']} episodes and the change "
                    f"{change['episode_count']}; run both with the same --seconds"
                )
            pairs[run["workload"]].append((run, change))
    return pairs


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values: Sequence[float]) -> str:
    q1, q2, q3 = quartiles(values)
    return f"{q2:.5g} [{q1:.5g}, {q3:.5g}]"


def verdict(a: Sequence[float], b: Sequence[float], better: str, bound: float,
            more_failures: bool) -> Tuple[str, int]:
    """The rule applied to paired values; returns (verdict, pairs won)."""
    sign = 1.0 if better == "higher" else -1.0
    wins = sum(1 for x, y in zip(a, b) if sign * (y - x) > 0)
    q1, median_a, q3 = quartiles(a)
    median_b = statistics.median(b)
    gain = sign * (median_b - median_a)
    if not more_failures and wins >= WIN_SHARE * len(a) and gain > q3 - q1:
        return "better", wins
    every_run_better = all(sign * (y - x) > 0 for x in a for y in b)
    if (q3 - q1) > bound * abs(median_a) and not every_run_better:
        return "unresolved", wins
    if -gain > bound * abs(median_a):
        return "worse", wins
    return "unchanged", wins


def main(argv: Sequence[str] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path, help="results.json of the parent commit")
    parser.add_argument("change", type=Path, help="results.json of the change")
    parser.add_argument("--simulation-may-change", action="store_true",
                        help="do not fail when a seed's simulated run trace differs")
    args = parser.parse_args(argv)
    spec = json.loads(BENCHMARK.read_text())
    a_runs, b_runs = load_runs(args.parent), load_runs(args.change)
    status = 0
    if not all(run["correct"] for run in a_runs + b_runs):
        print("some runs failed their checks")
        status = 1

    try:
        pairs = pair_runs(a_runs, b_runs, trace=0)
        traced = pair_runs(a_runs, b_runs, trace=1)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    header = (f"{'workload':<13} {'metric':<18} {'parent median [q1, q3]':>32} "
              f"{'change median [q1, q3]':>32} {'won':>6}  verdict")
    print(header)
    for workload, matched in sorted(pairs.items()):
        more_failures = (
            sum(b["failed"] for _, b in matched) > sum(a["failed"] for a, _ in matched)
        )
        for metric in spec["end_to_end"]:
            name = metric["name"]
            a = [x["metrics"][name] for x, _ in matched]
            b = [y["metrics"][name] for _, y in matched]
            result, wins = verdict(a, b, metric["better"], metric["bound"], more_failures)
            if result == "worse":
                status = 1
            print(f"{workload:<13} {name:<18} {spread(a):>32} {spread(b):>32} "
                  f"{wins:>3}/{len(matched):<3} {result}")
        same = all(x["digest"] == y["digest"] for x, y in matched)
        print(f"{workload:<13} simulated run traces identical per seed: {'yes' if same else 'NO'}")
        if not same and not args.simulation_may_change:
            status = 1

    if traced:
        print(f"\n{'workload':<13} {'per-layer metric':<32} {'parent':>12} {'change':>12}")
    for workload, matched in sorted(traced.items()):
        for metric in spec["per_layer"]:
            name = metric["name"]
            a = statistics.median(x["metrics"][name] for x, _ in matched)
            b = statistics.median(y["metrics"][name] for _, y in matched)
            print(f"{workload:<13} {name:<32} {a:>12.5g} {b:>12.5g} {metric['unit']}")
    return status


if __name__ == "__main__":
    sys.exit(main())
