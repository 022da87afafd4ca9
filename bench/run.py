"""Run the repo benchmark: four closed-loop workloads, checked and timed.

Usage (from the repository root)::

    python bench/run.py                          # all four workloads
    python bench/run.py --workload twig_c --seed 11 --seconds 20 --trace 0
    python bench/run.py --trace                  # per-layer self times

Every episode is a fresh process (``bench/episode.py``), run one at a
time on one CPU, with BLAS/OpenMP pinned to one thread. A run makes one
episode per 2.5 ``--seconds`` (at least three) of each workload,
interleaving workloads when several are asked for. Every episode of a
workload does the same work, and must record the same simulated run
trace; tick times (CPU time, gated, and wall time) are taken per tick as
the minimum over episodes, and set-up time and memory as the median.
With ``--trace`` the run adds
as many traced episodes and reports per-layer metrics instead.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. Each run is also
appended to ``bench/out/results.json`` (see ``bench/compare.py``). The
exit status is 0 only when every check passed.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
from importlib import metadata
from pathlib import Path
from typing import Dict, List, Optional, Sequence

import numpy as np

from episode import WORKLOADS, available_cpus

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"

#: Round-trip percentiles of the ctrl_serve load generator (untraced
#: episodes): metric name -> (RPC method, percentile).
RPC_PERCENTILES = {
    "ctrl.allocate_ms_p50": ("allocate", 50),
    "ctrl.allocate_ms_p99": ("allocate", 99),
    "ctrl.report_ms_p50": ("report_interval", 50),
    "ctrl.report_ms_p99": ("report_interval", 99),
    "ctrl.heartbeat_ms_p50": ("heartbeat", 50),
}

MIN_EPISODES = 3
#: Nominal wall time of one episode; ``--seconds`` buys this many.
EPISODE_S = 2.5
#: An episode that runs this long has hung: about ten times the slowest
#: traced episode (fleet_learn).
EPISODE_TIMEOUT_S = 60.0
#: Traced self times must add up to the traced tick within this share.
SELF_TIME_TOLERANCE = 0.05
#: The simulated statistics every episode of a workload must repeat.
SIMULATED = ("digest", "qos_guarantee", "energy_kj")


def load_metrics() -> Dict[str, Dict[str, str]]:
    """Metric name -> unit, for the ``end_to_end`` and ``per_layer`` lists
    of ``BENCHMARK.json``, in the order given there."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {kind: {m["name"]: m["unit"] for m in spec[kind]}
            for kind in ("end_to_end", "per_layer")}


def git_sha() -> Optional[str]:
    """The checked-out commit, read from ``.git`` without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
    except OSError:
        return None
    if not head.startswith("ref: "):
        return head
    ref = head[len("ref: "):]
    try:
        return (git / ref).read_text().strip()
    except OSError:
        pass
    try:
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def machine() -> Dict[str, object]:
    try:
        numpy_version = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy_version = None
    return {
        "cpus": available_cpus(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "git_sha": git_sha(),
    }


def episode_env() -> Dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env["PYTHONHASHSEED"] = "0"
    return env


def run_episode(workload: str, seed: int, traced: bool, quick: bool) -> Dict[str, object]:
    """One episode in a fresh process; a crash or timeout is a failed op."""
    command = [sys.executable, str(BENCH / "episode.py"),
               "--workload", workload, "--seed", str(seed)]
    command += ["--trace"] * traced + ["--quick"] * quick
    failure = {"workload": workload, "traced": traced, "attempted": 1, "failed": 1}
    try:
        proc = subprocess.run(command, cwd=ROOT, env=episode_env(), capture_output=True,
                              text=True, timeout=EPISODE_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return {**failure, "errors": [f"episode timed out after {EPISODE_TIMEOUT_S:.0f} s"]}
    lines = proc.stdout.strip().splitlines()
    try:
        report = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        tail = proc.stderr.strip().splitlines()[-3:]
        return {**failure, "errors": [f"episode exited {proc.returncode}: {tail}"]}
    if proc.returncode != 0 and not report.get("failed"):
        report["failed"] = 1
    return report


def episode_count(seconds: float, quick: bool) -> int:
    """Episodes per workload: a fixed count for a given ``--seconds``."""
    if quick:
        return 2
    return max(MIN_EPISODES, math.ceil(seconds / EPISODE_S))


def run_episodes(names: Sequence[str], seed: int, count: int, traced: bool,
                 quick: bool) -> Dict[str, List[Dict[str, object]]]:
    """``count`` episodes per workload (and as many traced ones with
    ``traced``), interleaved across workloads."""
    plan = (False, True) if traced else (False,)
    episodes: Dict[str, List[Dict[str, object]]] = {name: [] for name in names}
    for _ in range(count):
        for name in names:
            for flag in plan:
                episodes[name].append(run_episode(name, seed, flag, quick))
    return episodes


def median(values) -> float:
    values = list(values)
    return float(statistics.median(values)) if values else float("nan")


def steady(series: Sequence[Sequence[float]]) -> np.ndarray:
    """Element-wise minimum over episodes of per-tick (or per-call) times.

    Every episode of a workload does the same work tick by tick, so the
    minimum over episodes is that tick's cost with the least interference
    from other load on the machine.
    """
    return np.min(np.asarray(series, dtype=np.float64), axis=0)


def summarize(name: str, reports: List[Dict[str, object]]) -> Dict[str, object]:
    """Metrics and checks of one workload's episodes. An episode that
    crashed or timed out reports a failed operation itself."""
    attempted = sum(int(r.get("attempted", 1)) for r in reports)
    failed = sum(int(r.get("failed", 0)) for r in reports)
    errors = [f"{name}: {e}" for r in reports for e in r.get("errors", [])]
    done = [r for r in reports if "digest" in r]
    for key in SIMULATED:
        values = {r[key] for r in done}
        if len(values) > 1:
            failed += len(done) - 1
            errors.append(f"{name}: {key} differs across episodes: {sorted(values)}")
    plain = [r for r in done if not r["traced"]]
    traced = [r for r in done if r["traced"]]
    for r in traced:
        if r["self_gap"] > SELF_TIME_TOLERANCE or r["escaped_spans"]:
            failed += 1
            errors.append(
                f"{name}: traced self times miss the tick by {100 * r['self_gap']:.1f} % "
                f"({r['escaped_spans']} span(s) outside their parent)"
            )
    summary: Dict[str, object] = {
        "workload": name,
        "episodes": len(reports),
        "attempted": attempted,
        "failed": failed,
        "errors": errors,
        "correct": failed == 0,
        "end_to_end": {},
        "per_layer": {},
    }
    if not plain:
        return summary
    ticks = steady([r["tick_cpu_ms"] for r in plain])
    summary["ticks"] = len(ticks)
    summary["end_to_end"] = {
        "setup_s": median(r["setup_s"] for r in plain),
        "peak_rss_mb": median(r["peak_rss_mb"] for r in plain),
        "tick_cpu_ms_p50": float(np.percentile(ticks, 50)),
    }
    first = plain[0]
    summary["digest"] = first["digest"]
    summary["simulated"] = {"sim.qos_met_ratio": first["qos_guarantee"],
                            "sim.energy_kj": first["energy_kj"]}
    summary["failed_ops_share"] = failed / max(attempted, 1)
    if traced:
        layers = {
            key: median(r["layers"][key] for r in traced)
            for key in traced[0]["layers"]
        }
        for metric, (method, q) in RPC_PERCENTILES.items():
            calls = steady([r["rpc_ms"][method] for r in plain])
            layers[metric] = float(np.percentile(calls, q)) if calls.size else 0.0
        layers["loop.tick_cpu_ms_p90"] = float(np.percentile(ticks, 90))
        layers["loop.tick_wall_ms_p50"] = float(
            np.percentile(steady([r["tick_ms"] for r in plain]), 50))
        layers["loop.setup_wall_s"] = median(r["setup_wall_s"] for r in plain)
        layers.update(summary["simulated"])
        untraced_tick = summary["end_to_end"]["tick_cpu_ms_p50"]
        traced_tick = float(np.percentile(steady([r["tick_cpu_ms"] for r in traced]), 50))
        layers["obs.trace_overhead_pct"] = 100.0 * (traced_tick - untraced_tick) / untraced_tick
        summary["per_layer"] = layers
        summary["self_ms"] = traced[-1]["self_ms"]
    return summary


def print_summary(summary: Dict[str, object], seed: int, units: Dict[str, str]) -> None:
    name = summary["workload"]
    print(f"== {name}  seed {seed}  episodes {summary['episodes']}  "
          f"ticks {summary.get('ticks', 0)}  attempted {summary['attempted']}  "
          f"failed {summary['failed']}")
    for key, value in summary["end_to_end"].items():
        print(f"  {key:<34} {value:>14.6g} {units[key]}")
    if "digest" in summary:
        if not summary["per_layer"]:
            for key, value in summary["simulated"].items():
                print(f"  {key:<34} {value:>14.6g} {units[key]}")
        print(f"  {'failed_ops_share':<34} {summary['failed_ops_share']:>14.6g} ratio")
        print(f"  {'run trace digest':<34} {summary['digest'][:16]}")
    if summary.get("self_ms"):
        print(f"  self time per tick (traced): {'span':<28} {'ms':>10} {'calls':>9}")
        for span, (ms, calls) in summary["self_ms"].items():
            print(f"  {'':<29}{span:<28} {ms:>10.4f} {calls:>9.2f}")
    for key, value in summary["per_layer"].items():
        print(f"  {key:<34} {value:>14.6g} {units[key]}")
    for error in summary["errors"]:
        print(f"  FAILED: {error}")


def append_results(record: Dict[str, object]) -> None:
    """Append one run to ``bench/out/results.json`` (atomic replace)."""
    OUT.mkdir(exist_ok=True)
    path = OUT / "results.json"
    try:
        runs = json.loads(path.read_text())["runs"]
    except (OSError, ValueError, KeyError, TypeError):
        runs = []
    runs.append(record)
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps({"runs": runs}, indent=1) + "\n")
    os.replace(tmp, path)


def parse_args(argv: Optional[Sequence[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=list(WORKLOADS),
                        help="run one workload (default: all four, interleaved)")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=20.0,
                        help="measuring time per workload: one episode per "
                             f"{EPISODE_S:g} s, at least {MIN_EPISODES}")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1), help="report per-layer metrics instead")
    parser.add_argument("--quick", action="store_true",
                        help="tiny workloads, two episodes (for tests)")
    return parser.parse_args(argv)


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no repro package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    declared = load_metrics()
    units = {**declared["end_to_end"], **declared["per_layer"]}
    names = [args.workload] if args.workload else list(WORKLOADS)
    traced = bool(args.trace)
    count = episode_count(args.seconds, args.quick)
    episodes = run_episodes(names, args.seed, count, traced, args.quick)
    summaries = [summarize(name, episodes[name]) for name in names]
    host = machine()
    print(f"cpus {host['cpus']}  python {host['python']}  numpy {host['numpy']}  "
          f"commit {host['git_sha']}")
    for summary in summaries:
        print_summary(summary, args.seed, units)
    kind = "per_layer" if traced else "end_to_end"
    wanted = declared[kind]
    metrics: Dict[str, Dict[str, object]] = {}
    for summary in summaries:
        values = summary[kind]
        for key, unit in wanted.items():
            if key in values:
                label = key if len(names) == 1 else f"{summary['workload']}.{key}"
                metrics[label] = {"value": values[key], "unit": unit}
    correct = all(s["correct"] for s in summaries) and len(metrics) == len(wanted) * len(names)
    result = {
        "correct": correct,
        "attempted": sum(s["attempted"] for s in summaries),
        "failed": sum(s["failed"] for s in summaries),
        "metrics": metrics,
    }
    for summary in summaries:
        append_results({
            "workload": summary["workload"], "seed": args.seed, "trace": int(traced),
            "quick": args.quick, "episode_count": count, "machine": host,
            "correct": summary["correct"], "attempted": summary["attempted"],
            "failed": summary["failed"], "errors": summary["errors"],
            "digest": summary.get("digest"),
            "metrics": {**summary["end_to_end"], **summary.get("simulated", {}),
                        **summary["per_layer"]},
            "episodes": [
                {k: v for k, v in r.items() if k not in ("tick_ms", "tick_cpu_ms", "rpc_ms")}
                for r in episodes[summary["workload"]]
            ],
        })
    print(json.dumps(result), flush=True)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
