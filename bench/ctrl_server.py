"""Server process of the ctrl_serve workload.

Serves one :class:`~repro.ctrl.coordinator.Coordinator` and one
:class:`~repro.ctrl.node_agent.TwigNodeAgent` on loopback ports, prints
their addresses as one JSON line, and serves until its standard input
closes. The load generator runs in another process, so the numbers it
measures are RPC, codec and handler work, not contention with it for
the interpreter lock. With ``--spans PATH`` the handlers and the layers
below them are traced and the spans are written to PATH at exit.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from tracer import Tracer, write_spans

#: No virtual node misses a deadline however slow a round is, so
#: allocation never depends on timing.
HEARTBEAT_INTERVAL_S = 3600.0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--rounds", type=int, required=True)
    parser.add_argument("--services", required=True)
    parser.add_argument("--spans")
    args = parser.parse_args()
    tracer = None
    if args.spans:
        tracer = Tracer()
        tracer.install(dispatchers=True)

    from repro.core.config import TwigConfig
    from repro.ctrl.coordinator import Coordinator
    from repro.ctrl.node_agent import TwigNodeAgent

    services = args.services.split(",")
    config = TwigConfig.fast(
        epsilon_mid_steps=int(0.4 * args.rounds),
        epsilon_final_steps=int(0.8 * args.rounds),
    )
    coordinator = Coordinator(
        services, heartbeat_interval_s=HEARTBEAT_INTERVAL_S,
        balancer="least_loaded", seed=args.seed,
    )
    try:
        agent = TwigNodeAgent("agent0", services, seed=args.seed, config=config)
        try:
            print(json.dumps({"coordinator": coordinator.address,
                              "agent": agent.address}), flush=True)
            sys.stdin.read()
        finally:
            agent.close()
    finally:
        coordinator.close()
    if tracer is not None:
        Path(args.spans).parent.mkdir(parents=True, exist_ok=True)
        write_spans(args.spans, tracer.spans)
    return 0


if __name__ == "__main__":
    sys.exit(main())
