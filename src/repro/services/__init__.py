"""Latency-critical service substrate.

The paper drives real Tailbench services (Masstree, Xapian, Moses,
Img-dnn) plus Memcached and Web-Search; none are runnable here, so this
subpackage provides queueing-theoretic stand-ins whose tail latency
responds to load, core count, DVFS and colocation interference the way the
real services do:

- :mod:`repro.services.queueing` — Erlang-C / M/M/c sojourn-time math with
  a squared-coefficient-of-variation correction for non-exponential work.
- :mod:`repro.services.profiles` — per-service calibration constants
  (service times, frequency sensitivity, memory traffic, Table II loads).
- :mod:`repro.services.interference` — shared memory-bandwidth and LLC
  contention between services on a socket.
- :mod:`repro.services.service` — what a service did over one interval
  (:class:`IntervalResult`) and the latency model the engine computes it
  with: backlog carry-over, so latency explodes under sustained overload,
  as in the paper's capacity characterisation.
- :mod:`repro.services.loadgen` — constant, step-wise varying and diurnal
  request-rate generators used by the evaluation.
"""

from repro.services.interference import InterferenceModel
from repro.services.loadgen import (
    ConstantLoad,
    DiurnalLoad,
    LoadGenerator,
    StepwiseVaryingLoad,
    TraceLoad,
)
from repro.services.profiles import ServiceProfile, builtin_profiles, get_profile
from repro.services.queueing import (
    erlang_c,
    mmc_sojourn_tail,
    response_time_quantile,
    utilization,
)
from repro.services.service import IntervalResult

__all__ = [
    "ConstantLoad",
    "DiurnalLoad",
    "InterferenceModel",
    "IntervalResult",
    "LoadGenerator",
    "ServiceProfile",
    "StepwiseVaryingLoad",
    "TraceLoad",
    "builtin_profiles",
    "erlang_c",
    "get_profile",
    "mmc_sojourn_tail",
    "response_time_quantile",
    "utilization",
]
