"""PMC synthesis from ground-truth service activity.

The substrate knows exactly how many requests a service completed, how many
core-seconds it burned, and how contended the memory system was; a real
profiling tool (libpfm) would observe that activity through the 11 Table-I
counters. The vector engine (:mod:`repro.engine.vector_env`) performs that
mapping for every node and service, with the causal structure that makes
the paper's Figure 1 result hold in simulation:

- cycle counters reflect *busy time* x frequency, so together with retired
  instructions they encode utilisation (which drives queueing latency);
- LLC misses carry the contention signal (``miss_inflation``);
- branch/L1 counters scale with the instruction stream per the service's
  instruction mix, adding service-identity information;
- IPC alone (instructions / cycles) aliases states with very different
  queueing delay, which is why the IPC-only latency predictor of Figure 1
  has much higher error.

Each reading gets independent multiplicative Gaussian measurement noise.
:func:`ipc` reads a set of readings back as instructions per cycle.
"""

from __future__ import annotations

from typing import Mapping


def ipc(readings: Mapping[str, float]) -> float:
    """Instructions per cycle from a set of raw readings."""
    cycles = readings.get("UNHALTED_CORE_CYCLES", 0.0)
    if cycles <= 0:
        return 0.0
    return readings.get("INSTRUCTION_RETIRED", 0.0) / cycles
