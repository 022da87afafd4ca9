"""Command-line interface: ``python -m repro``.

Subcommands
-----------
- ``list``               — show every reproducible paper artifact.
- ``run <id>...``        — run one or more experiments and print their
  tables (``--scale quick|default|paper`` picks the experiment's config
  at that scale, :func:`repro.experiments.registry.config_for`, the one
  the benchmarks' ``REPRO_BENCH_SCALE`` names;
  ``--jobs N`` dispatches the batch to N worker processes;
  ``--trace`` records a JSONL trace + manifest per experiment under
  ``--out-dir``; ``--strict`` re-raises the first failure instead of
  recording it and continuing).
- ``capacity``           — print the simulated platform and Table-II view.
- ``compare``            — one-cell Twig-S vs baselines comparison with a
  terminal bar chart (``--scale`` picks the harness budgets).
- ``trace``              — inspect a recorded JSONL trace:
  ``summarize`` (run-level aggregates), ``tail`` (last events),
  ``export-csv`` (flatten one event type), ``report`` (learning curve +
  violation timeline).
- ``serve``              — run the control-plane coordinator daemon
  (node registry, heartbeat lifecycle, online allocation, rolling
  policy updates; see ``docs/control_plane.md``).
- ``node``               — run one Twig node agent: join a coordinator,
  heartbeat, and serve ``allocate``/``report_interval``/``update_policy``.
- ``ctrl``               — operator commands against a running
  coordinator: ``status``, ``allocate``, ``rollout``.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace
from typing import Any, Optional

from repro.analysis.textplot import bar_chart
from repro.errors import ReproError
from repro.experiments.registry import REGISTRY, SCALES, config_for, run_experiment


def _config_for(experiment_id: str, scale: str, args: argparse.Namespace) -> Optional[Any]:
    """The registry's config for ``experiment_id`` at ``scale``, with the
    ``cluster``/``hier`` flags of the parsed ``run`` namespace ``args``
    (``--nodes``, ``--seed``, ``--balancer``, ``--traffic``; for ``hier``
    also ``--levels`` and ``--budget-period``) applied."""
    config = config_for(experiment_id, scale)
    if experiment_id not in ("cluster", "hier"):
        return config
    flags = {"nodes": "num_nodes", "seed": "seed", "balancer": "balancer",
             "traffic_preset": "traffic"}
    if experiment_id == "hier":
        flags.update(levels="levels", budget_period="budget_period")
    overrides = {key: getattr(args, flag) for flag, key in flags.items()
                 if getattr(args, flag) is not None}
    if overrides.get("num_nodes", config.num_nodes) == 1:
        overrides["regions"] = ("r0",)
    return replace(config, **overrides)


def cmd_list(_args: argparse.Namespace) -> int:
    width = max(len(e) for e in REGISTRY)
    for experiment_id, entry in REGISTRY.items():
        print(f"{experiment_id:<{width}s}  {entry.description}")
    return 0


def cmd_run(args: argparse.Namespace) -> int:
    experiments = args.experiment
    batch_flags = (
        args.trace or args.strict or args.out_dir or args.retries
        or args.resume or args.checkpoint_every
    )
    if len(experiments) == 1 and not batch_flags:
        # Single untraced run: no manifest machinery, just the table.
        config = _config_for(experiments[0], args.scale, args)
        result = run_experiment(experiments[0], config)
        print(result.format_table())
        return 0

    from repro.experiments.runner import run_experiments

    out_dir = args.out_dir or args.resume or "runs"
    configs = {e: _config_for(e, args.scale, args) for e in experiments}
    runs = run_experiments(
        experiments,
        configs={k: v for k, v in configs.items() if v is not None},
        strict=args.strict,
        out_dir=out_dir,
        trace=args.trace,
        validate=args.validate,
        jobs=args.jobs,
        retries=args.retries,
        resume=args.resume,
        checkpoint_every=args.checkpoint_every,
    )
    failed = 0
    for run in runs:
        print(f"== {run.experiment_id} ({run.manifest.status}) ==")
        if run.ok and run.result is not None:
            print(run.result.format_table())
        elif run.ok:
            # Salvaged from a previous batch's manifest (--resume): the
            # Result object died with the original process.
            print("skipped: already completed in a previous batch (--resume)")
        else:
            failed += 1
            print(f"error: {run.manifest.error}")
        if args.trace:
            print(
                f"trace: {run.manifest.trace_path} "
                f"({run.manifest.trace_events} events), "
                f"manifest: {out_dir}/{run.experiment_id}/manifest.json"
            )
        print()
    if failed:
        print(f"{failed}/{len(runs)} experiments failed (see manifests)")
    return 1 if failed else 0


def cmd_capacity(_args: argparse.Namespace) -> int:
    from repro.server.spec import ServerSpec
    from repro.services.profiles import TAILBENCH_SERVICES, get_profile

    spec = ServerSpec()
    print(
        f"platform: {spec.sockets} x {spec.cores_per_socket} cores, "
        f"DVFS {spec.dvfs.min_ghz}-{spec.dvfs.max_ghz} GHz, "
        f"{spec.socket.llc_mb} MB LLC, {spec.socket.membw_gbps} GB/s per socket"
    )
    print(f"{'service':10s} {'max rps':>8s} {'QoS (ms)':>9s} {'paper rps':>10s} {'paper ms':>9s}")
    for name in TAILBENCH_SERVICES:
        profile = get_profile(name)
        print(
            f"{name:10s} {profile.max_load_rps:8.0f} {profile.qos_target_ms:9.2f} "
            f"{profile.paper_max_load_rps:10.0f} {profile.paper_qos_target_ms:9.2f}"
        )
    return 0


def cmd_compare(args: argparse.Namespace) -> int:
    from repro.experiments.common import HARNESS, run_single_service_comparison

    summaries = run_single_service_comparison(args.service, args.load, HARNESS[args.scale])
    print(f"{args.service} @ {args.load * 100:.0f}% load — normalised energy (static = 1.0):")
    print(
        bar_chart(
            {name: s.normalized_energy for name, s in summaries.items()},
            reference=1.0,
            unit="x",
        )
    )
    print()
    for name, summary in summaries.items():
        qos = sum(summary.qos_guarantee.values()) / len(summary.qos_guarantee)
        print(f"{name:9s} qos {qos:5.1f}%  power {summary.mean_power_w:5.1f} W")
    return 0


def cmd_trace_summarize(args: argparse.Namespace) -> int:
    from repro.obs import format_summary, iter_trace, summarize_events

    summary = summarize_events(iter_trace(args.trace_file))
    if args.json:
        print(json.dumps(summary.to_dict(), indent=2, sort_keys=True))
    else:
        print(format_summary(summary))
    return 0


def cmd_trace_tail(args: argparse.Namespace) -> int:
    from collections import deque

    from repro.obs import iter_trace

    events: Any = deque(maxlen=args.lines)
    for event in iter_trace(args.trace_file):
        if args.type is not None and event.get("ev") != args.type:
            continue
        events.append(event)
    for event in events:
        print(json.dumps(event, separators=(",", ":")))
    return 0


def _flatten(event: dict) -> dict:
    """One CSV row per event; nested objects become dotted columns."""
    row = {}
    for key, value in event.items():
        if isinstance(value, dict):
            for inner_key, inner in value.items():
                if isinstance(inner, dict):
                    for leaf_key, leaf in inner.items():
                        row[f"{key}.{inner_key}.{leaf_key}"] = leaf
                else:
                    row[f"{key}.{inner_key}"] = inner
        elif isinstance(value, list):
            row[key] = ";".join(str(v) for v in value)
        else:
            row[key] = value
    return row


def cmd_trace_export_csv(args: argparse.Namespace) -> int:
    import csv

    from repro.obs import iter_trace

    rows = []
    columns: list = []
    for event in iter_trace(args.trace_file):
        if event.get("ev") != args.type:
            continue
        row = _flatten(event)
        for column in row:
            if column not in columns:
                columns.append(column)
        rows.append(row)
    if not rows:
        print(f"no {args.type!r} events in {args.trace_file}", file=sys.stderr)
        return 1
    handle = open(args.output, "w", newline="") if args.output else sys.stdout
    try:
        writer = csv.DictWriter(handle, fieldnames=columns, restval="")
        writer.writeheader()
        writer.writerows(rows)
    finally:
        if args.output:
            handle.close()
    if args.output:
        print(f"wrote {len(rows)} rows to {args.output}", file=sys.stderr)
    return 0


def cmd_trace_report(args: argparse.Namespace) -> int:
    from pathlib import Path

    from repro.analysis.trace_report import render_report

    timings = None
    if not args.no_timings:
        manifest_path = (
            Path(args.manifest)
            if args.manifest
            else Path(args.trace_file).parent / "manifest.json"
        )
        if manifest_path.exists():
            from repro.obs.manifest import RunManifest

            timings = RunManifest.read(manifest_path).timings
        elif args.manifest:
            print(f"error: manifest {manifest_path} not found", file=sys.stderr)
            return 1
    print(render_report(args.trace_file, bucket=args.bucket, timings=timings))
    return 0


def _serve_until(duration: Optional[float]) -> None:
    """Block until ``duration`` seconds pass or SIGINT/SIGTERM arrives."""
    import signal
    import threading

    stop = threading.Event()

    def handler(signum, frame):
        stop.set()

    old_int = signal.signal(signal.SIGINT, handler)
    old_term = signal.signal(signal.SIGTERM, handler)
    try:
        stop.wait(duration)
    finally:
        signal.signal(signal.SIGINT, old_int)
        signal.signal(signal.SIGTERM, old_term)


def cmd_serve(args: argparse.Namespace) -> int:
    from repro.ctrl import Coordinator
    from repro.obs.sink import open_sink

    with open_sink(args.trace) as sink:
        coordinator = Coordinator(
            args.services,
            bind=args.bind,
            heartbeat_interval_s=args.heartbeat_interval,
            degraded_after=args.degraded_after,
            offline_after=args.offline_after,
            balancer=args.balancer,
            seed=args.seed,
            trace=sink,
        )
        try:
            coordinator.start_sweeper()
            print(f"coordinator serving on {coordinator.address}", flush=True)
            _serve_until(args.duration)
        finally:
            coordinator.close()
    print("coordinator stopped")
    return 0


def cmd_node(args: argparse.Namespace) -> int:
    from repro.ctrl import TwigNodeAgent

    agent = TwigNodeAgent(
        args.id, args.services, seed=args.seed, bind=args.bind
    )
    try:
        epoch = agent.join(args.coordinator)
        agent.start_heartbeats()
        print(
            f"node {args.id} serving on {agent.address} "
            f"(coordinator {args.coordinator}, epoch {epoch})",
            flush=True,
        )
        _serve_until(args.duration)
    finally:
        agent.close()
    print(f"node {args.id} stopped")
    return 0


def cmd_ctrl_status(args: argparse.Namespace) -> int:
    from repro.ctrl import RpcClient

    with RpcClient(args.coordinator, timeout_s=args.timeout) as client:
        status = client.call("status")
    if args.json:
        print(json.dumps(status, indent=2, sort_keys=True))
        return 0
    counts = status["counts"]
    print(
        f"coordinator {args.coordinator}: registry v{status['version']}, "
        f"policy v{status['policy_version']}"
        + (f" ({status['policy_source']})" if status["policy_source"] else "")
    )
    print(
        "  "
        + "  ".join(f"{state}={count}" for state, count in counts.items())
    )
    for node in status["nodes"]:
        print(
            f"  {node['node_id']:16s} {node['state']:12s} "
            f"epoch {node['epoch']:<4d} policy v{node['policy_version']:<4d} "
            f"missed {node['missed']}  {node['address']}"
        )
    return 0


def cmd_ctrl_allocate(args: argparse.Namespace) -> int:
    from repro.ctrl import RpcClient

    demand = {}
    for pair in args.demand:
        service, sep, rate = pair.partition("=")
        if not sep or not service:
            print(
                f"error: demand must be service=rps pairs, got {pair!r}",
                file=sys.stderr,
            )
            return 1
        try:
            demand[service] = float(rate)
        except ValueError:
            print(f"error: invalid rate in {pair!r}", file=sys.stderr)
            return 1
    with RpcClient(args.coordinator, timeout_s=args.timeout) as client:
        result = client.call("allocate", {"demand": demand})
    if args.json:
        print(json.dumps(result, indent=2, sort_keys=True))
        return 0
    for node_id, rates in result["nodes"].items():
        cells = "  ".join(f"{svc}={rate:.1f}" for svc, rate in rates.items())
        print(f"{node_id:16s} {cells}")
    return 0


def cmd_ctrl_rollout(args: argparse.Namespace) -> int:
    from pathlib import Path

    from repro.ctrl import RpcClient

    # Resolve against the operator's cwd before sending: the coordinator
    # and every node agent resolve the path against *their own* working
    # directories, so a relative path silently means a different file (or
    # none) on each process even on a shared filesystem.
    params: dict = {"path": str(Path(args.checkpoint).resolve())}
    if args.version is not None:
        params["version"] = args.version
    with RpcClient(args.coordinator, timeout_s=args.timeout) as client:
        result = client.call("rollout", params, timeout_s=args.timeout)
    print(
        f"policy v{result['version']} from {result['source']}: "
        f"{len(result['updated'])}/{len(result['targets'])} nodes updated"
    )
    for node_id, reason in result["failed"].items():
        print(f"  {node_id}: {reason}", file=sys.stderr)
    return 1 if result["failed"] or not result["updated"] else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="repro", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list reproducible paper artifacts").set_defaults(
        func=cmd_list
    )

    run_parser = sub.add_parser("run", help="run one or more experiments")
    run_parser.add_argument("experiment", nargs="+", choices=sorted(REGISTRY))
    run_parser.add_argument("--scale", choices=SCALES, default="quick")
    run_parser.add_argument(
        "--strict", action="store_true",
        help="re-raise the first experiment failure instead of recording it "
             "in the manifest and continuing",
    )
    run_parser.add_argument(
        "--trace", action="store_true",
        help="record a structured JSONL trace + run manifest per experiment",
    )
    run_parser.add_argument(
        "--out-dir", default=None,
        help="directory for traces/manifests (default: runs/)",
    )
    run_parser.add_argument(
        "--validate", action="store_true",
        help="schema-validate every trace event as it is emitted (slower)",
    )
    run_parser.add_argument(
        "--jobs", type=int, default=1, metavar="N",
        help="run experiments in up to N worker processes (clamped to the "
             "CPUs this process may run on, os.sched_getaffinity; serial "
             "when that leaves one); results, manifests and traces are "
             "identical to a serial run modulo timing fields",
    )
    run_parser.add_argument(
        "--retries", type=int, default=0, metavar="N",
        help="re-run a failing experiment up to N extra times with "
             "exponential backoff, and rebuild a crashed worker pool up "
             "to N times (incompatible with --strict)",
    )
    run_parser.add_argument(
        "--resume", default=None, metavar="DIR",
        help="skip experiments that already have an ok manifest under "
             "DIR/<id>/manifest.json (salvage of an interrupted batch); "
             "DIR doubles as --out-dir when that is not given",
    )
    run_parser.add_argument(
        "--checkpoint-every", type=int, default=None, metavar="N",
        help="write a rolling full-state run checkpoint "
             "(<out-dir>/<id>/run.ckpt.npz) every N control intervals "
             "inside each experiment",
    )
    run_parser.add_argument(
        "--nodes", type=int, default=None, metavar="N",
        help="cluster experiment only: number of simulated nodes",
    )
    run_parser.add_argument(
        "--seed", type=int, default=None,
        help="cluster experiment only: base seed (the whole cluster "
             "trajectory is a pure function of it)",
    )
    run_parser.add_argument(
        "--balancer", default=None,
        help="cluster experiment only: load-balancer policy "
             "(round_robin, least_loaded, power_of_two, sharded_by_key)",
    )
    run_parser.add_argument(
        "--traffic", dest="traffic_preset", default=None,
        help="cluster experiment only: traffic preset "
             "(steady, diurnal, flash_crowd, regional_shift)",
    )
    run_parser.add_argument(
        "--levels", type=int, default=None, metavar="N",
        help="hier experiment only: size of the allocator's budget ladder",
    )
    run_parser.add_argument(
        "--budget-period", dest="budget_period", type=int, default=None,
        metavar="K",
        help="hier experiment only: control intervals between budget "
             "assignments",
    )
    run_parser.set_defaults(func=cmd_run)

    sub.add_parser("capacity", help="show platform + Table-II view").set_defaults(
        func=cmd_capacity
    )

    compare_parser = sub.add_parser("compare", help="Twig-S vs baselines on one cell")
    compare_parser.add_argument("--service", default="masstree")
    compare_parser.add_argument("--load", type=float, default=0.5)
    compare_parser.add_argument("--scale", choices=SCALES, default="quick")
    compare_parser.set_defaults(func=cmd_compare)

    trace_parser = sub.add_parser("trace", help="inspect a recorded JSONL trace")
    trace_sub = trace_parser.add_subparsers(dest="trace_command", required=True)

    summarize = trace_sub.add_parser(
        "summarize", help="run-level aggregates recovered from the trace"
    )
    summarize.add_argument("trace_file")
    summarize.add_argument("--json", action="store_true", help="machine-readable output")
    summarize.set_defaults(func=cmd_trace_summarize)

    tail = trace_sub.add_parser("tail", help="print the last events of a trace")
    tail.add_argument("trace_file")
    tail.add_argument("-n", "--lines", type=int, default=10)
    tail.add_argument("--type", default=None, help="only events of this type")
    tail.set_defaults(func=cmd_trace_tail)

    export = trace_sub.add_parser(
        "export-csv", help="flatten one event type to CSV"
    )
    export.add_argument("trace_file")
    export.add_argument("--type", default="interval", help="event type to export")
    export.add_argument("-o", "--output", default=None, help="output file (default: stdout)")
    export.set_defaults(func=cmd_trace_export_csv)

    report = trace_sub.add_parser(
        "report", help="learning curve + violation timeline + timings"
    )
    report.add_argument("trace_file")
    report.add_argument("--bucket", type=int, default=0, help="bucket size (0 = auto)")
    report.add_argument(
        "--manifest", default=None,
        help="manifest.json whose timing histograms to include "
             "(default: auto-discover next to the trace file)",
    )
    report.add_argument(
        "--no-timings", action="store_true", help="omit the timings section"
    )
    report.set_defaults(func=cmd_trace_report)

    serve_parser = sub.add_parser(
        "serve", help="run the control-plane coordinator daemon"
    )
    serve_parser.add_argument(
        "--services", nargs="+", default=["masstree", "xapian"],
        help="services every node in the fleet manages",
    )
    serve_parser.add_argument(
        "--bind", default="127.0.0.1:0",
        help="host:port or unix:/path to serve on (port 0 = ephemeral; "
             "the bound address is printed on startup)",
    )
    serve_parser.add_argument(
        "--heartbeat-interval", type=float, default=1.0, metavar="S",
        help="seconds between expected node heartbeats",
    )
    serve_parser.add_argument(
        "--degraded-after", type=int, default=1, metavar="N",
        help="missed heartbeats before a node is marked degraded",
    )
    serve_parser.add_argument(
        "--offline-after", type=int, default=3, metavar="N",
        help="missed heartbeats before a degraded node goes offline "
             "(must exceed --degraded-after)",
    )
    serve_parser.add_argument(
        "--balancer", default="least_loaded",
        help="load-balancer policy for allocate calls",
    )
    serve_parser.add_argument("--seed", type=int, default=0)
    serve_parser.add_argument(
        "--trace", default=None, metavar="FILE",
        help="record control-plane events (node_registered, "
             "node_state_change, ...) to a JSONL trace",
    )
    serve_parser.add_argument(
        "--duration", type=float, default=None, metavar="S",
        help="exit after S seconds (default: run until SIGINT/SIGTERM)",
    )
    serve_parser.set_defaults(func=cmd_serve)

    node_parser = sub.add_parser(
        "node", help="run one Twig node agent against a coordinator"
    )
    node_parser.add_argument("--id", required=True, help="stable node identifier")
    node_parser.add_argument(
        "--coordinator", required=True, metavar="ADDR",
        help="coordinator address (host:port or unix:/path)",
    )
    node_parser.add_argument(
        "--services", nargs="+", default=["masstree", "xapian"],
        help="services this node's Twig manages (must match the coordinator)",
    )
    node_parser.add_argument(
        "--bind", default="127.0.0.1:0",
        help="address the node agent serves RPCs on",
    )
    node_parser.add_argument("--seed", type=int, default=0)
    node_parser.add_argument(
        "--duration", type=float, default=None, metavar="S",
        help="exit after S seconds (default: run until SIGINT/SIGTERM)",
    )
    node_parser.set_defaults(func=cmd_node)

    ctrl_parser = sub.add_parser(
        "ctrl", help="operator commands against a running coordinator"
    )
    ctrl_sub = ctrl_parser.add_subparsers(dest="ctrl_command", required=True)

    ctrl_status = ctrl_sub.add_parser("status", help="fleet lifecycle snapshot")
    ctrl_status.add_argument("--coordinator", required=True, metavar="ADDR")
    ctrl_status.add_argument("--timeout", type=float, default=5.0)
    ctrl_status.add_argument("--json", action="store_true")
    ctrl_status.set_defaults(func=cmd_ctrl_status)

    ctrl_allocate = ctrl_sub.add_parser(
        "allocate", help="spread per-service demand over the serving fleet"
    )
    ctrl_allocate.add_argument("--coordinator", required=True, metavar="ADDR")
    ctrl_allocate.add_argument(
        "demand", nargs="+", metavar="SVC=RPS",
        help="per-service offered load, e.g. masstree=3000",
    )
    ctrl_allocate.add_argument("--timeout", type=float, default=5.0)
    ctrl_allocate.add_argument("--json", action="store_true")
    ctrl_allocate.set_defaults(func=cmd_ctrl_allocate)

    ctrl_rollout = ctrl_sub.add_parser(
        "rollout", help="roll a checkpointed policy onto the healthy fleet"
    )
    ctrl_rollout.add_argument("--coordinator", required=True, metavar="ADDR")
    ctrl_rollout.add_argument(
        "checkpoint", help="repro.ckpt checkpoint path (twig or bdq_agent kind)"
    )
    ctrl_rollout.add_argument(
        "--version", type=int, default=None,
        help="explicit policy version (default: coordinator's current + 1)",
    )
    ctrl_rollout.add_argument("--timeout", type=float, default=30.0)
    ctrl_rollout.set_defaults(func=cmd_ctrl_rollout)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except BrokenPipeError:
        # Downstream pager/head closed the pipe; not an error.
        sys.stderr.close()
        return 0
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
