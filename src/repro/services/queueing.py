"""Multi-server queueing formulas used by the service models.

We model each LC service in an interval as an M/M/c-like system and use the
closed-form sojourn-time tail to extract latency percentiles. Two
refinements adapt the textbook formulas to LC cloud services:

- fractional server counts (timeshared cores give non-integer capacity) are
  handled by interpolating Erlang-C between the neighbouring integers;
- non-exponential service-time variability is folded in with an
  Allen-Cunneen-style correction that scales the waiting-time mass by
  ``(1 + cv2) / 2``.
"""

from __future__ import annotations

import math

import numpy as np

from repro.errors import ConfigurationError


def utilization(arrival_rate: float, service_rate: float, servers: float) -> float:
    """Offered utilisation rho = lambda / (c * mu)."""
    if service_rate <= 0 or servers <= 0:
        raise ConfigurationError("service_rate and servers must be positive")
    if arrival_rate < 0:
        raise ConfigurationError(f"arrival_rate must be >= 0, got {arrival_rate}")
    return arrival_rate / (service_rate * servers)


def _erlang_c_integer(servers: int, offered: float) -> float:
    """Erlang-C probability of waiting for an integer server count.

    ``offered`` is the offered load a = lambda / mu (in Erlangs). Requires
    a < servers for stability. Computed with a numerically stable recurrence
    on the Erlang-B blocking probability.
    """
    if offered >= servers:
        return 1.0
    if offered <= 0.0:
        return 0.0
    # Erlang-B recurrence: B(0) = 1; B(k) = a*B(k-1) / (k + a*B(k-1))
    blocking = 1.0
    for k in range(1, servers + 1):
        blocking = offered * blocking / (k + offered * blocking)
    rho = offered / servers
    return blocking / (1.0 - rho + rho * blocking)


def erlang_c(servers: float, offered: float) -> float:
    """Erlang-C for possibly fractional server counts (linear interpolation)."""
    if not math.isfinite(servers):
        raise ConfigurationError(f"servers must be finite, got {servers}")
    if servers <= 0:
        raise ConfigurationError(f"servers must be positive, got {servers}")
    if offered < 0:
        raise ConfigurationError(f"offered load must be >= 0, got {offered}")
    low = math.floor(servers)
    high = math.ceil(servers)
    if low == high or low < 1:
        return _erlang_c_integer(max(high, 1), offered)
    p_low = _erlang_c_integer(low, offered)
    p_high = _erlang_c_integer(high, offered)
    weight = servers - low
    return (1.0 - weight) * p_low + weight * p_high


def erlang_c_batch(servers: np.ndarray, offered: np.ndarray) -> np.ndarray:
    """Vectorized :func:`erlang_c` over arrays of (servers, offered) pairs.

    Bitwise-equivalent to calling the scalar function elementwise (pinned
    by ``tests/test_services_queueing.py``). The Erlang-B recurrence runs
    unmasked for every element up to the largest integer count ``K``,
    into a ``(K + 1, n)`` table whose row ``k`` is every element's
    ``B(k)``, computed as ``t = offered * B(k-1)``, ``B(k) = t / (t + k)``,
    the scalar loop's two roundings. Each element then reads its own
    ``B`` at its two integer counts, and the same fractional
    interpolation and the same ``offered >= servers -> 1.0`` /
    ``offered <= 0 -> 0.0`` guards apply per *integer* evaluation,
    exactly where the scalar code applies them. The table costs
    ``K + 1`` rows of ``n``; the engine's counts are effective cores, so
    ``K`` is at most the socket's cores. Non-finite server counts are
    refused before any indexing, as the scalar function refuses them.
    """
    servers = np.asarray(servers, dtype=np.float64)
    offered = np.asarray(offered, dtype=np.float64)
    servers, offered = np.broadcast_arrays(servers, offered)
    if servers.size == 0:
        return np.zeros_like(servers)
    if not np.isfinite(servers).all():
        raise ConfigurationError("servers must be finite")
    if np.any(servers <= 0):
        raise ConfigurationError("servers must be positive")
    if np.any(offered < 0):
        raise ConfigurationError("offered load must be >= 0")
    shape = servers.shape
    servers = servers.ravel()
    offered = offered.ravel()

    low = np.floor(servers)
    high = np.ceil(servers)
    degenerate = (low == high) | (low < 1)
    # Degenerate elements evaluate a single integer count max(high, 1).
    n_low = np.where(degenerate, np.maximum(high, 1.0), low).astype(np.int64)
    n_high = np.maximum(high, 1.0).astype(np.int64)

    # Shared Erlang-B table: B(0) = 1, then every element advances
    # together, computing rows past its own counts that it never reads.
    # An infinite load fills its column with NaN (inf / inf), which the
    # ``offered >= n`` guard replaces.
    table = np.empty((int(n_high.max()) + 1, offered.size))
    table[0] = 1.0
    t = np.empty_like(offered)
    denominator = np.empty_like(offered)
    with np.errstate(invalid="ignore"):
        for k in range(1, len(table)):
            np.multiply(offered, table[k - 1], out=t)
            np.add(t, k, out=denominator)
            np.divide(t, denominator, out=table[k])
    columns = np.arange(offered.size)

    def _finish(n: np.ndarray) -> np.ndarray:
        b = table[n, columns]
        n = n.astype(np.float64)
        with np.errstate(divide="ignore", invalid="ignore"):
            rho = offered / n
            p = b / (1.0 - rho + rho * b)
        p = np.where(offered >= n, 1.0, p)
        return np.where(offered <= 0.0, 0.0, p)

    p_low = _finish(n_low)
    p_high = _finish(n_high)
    weight = servers - low
    interpolated = (1.0 - weight) * p_low + weight * p_high
    return np.where(degenerate, p_low, interpolated).reshape(shape)


def mmc_sojourn_tail(
    t: float,
    arrival_rate: float,
    service_rate: float,
    servers: float,
    cv2: float = 1.0,
) -> float:
    """P(T > t) for the M/M/c sojourn time T = service + waiting.

    The waiting time W is 0 with probability 1 - Pw and Exp(theta) with
    probability Pw, where theta = c*mu - lambda; the service time S is
    Exp(mu). The tail of their sum has the closed form used below. ``cv2``
    (squared coefficient of variation of service times) inflates the
    waiting mass Allen-Cunneen style.
    """
    if t < 0:
        return 1.0
    mu = service_rate
    lam = arrival_rate
    c = servers
    rho = utilization(lam, mu, c)
    if rho >= 1.0:
        return 1.0  # unstable: the tail never decays within the interval model
    p_wait = erlang_c(c, lam / mu)
    p_wait = min(1.0, p_wait * (1.0 + cv2) / 2.0)
    theta = c * mu - lam
    exp_mu = math.exp(-mu * t)
    if abs(theta - mu) < 1e-9 * mu:
        # Degenerate case: W and S have (almost) the same rate; the sum of
        # two iid Exp(mu) is Gamma(2, mu).
        tail_sum = (1.0 + mu * t) * exp_mu
    else:
        tail_sum = (theta * exp_mu - mu * math.exp(-theta * t)) / (theta - mu)
    return (1.0 - p_wait) * exp_mu + p_wait * tail_sum


def response_time_quantile(
    arrival_rate: float,
    service_rate: float,
    servers: float,
    quantile: float = 0.99,
    cv2: float = 1.0,
) -> float:
    """The q-quantile of the M/M/c sojourn time, found by bisection.

    Returns ``math.inf`` when the system is unstable (rho >= 1).
    """
    if not 0.0 < quantile < 1.0:
        raise ConfigurationError(f"quantile must be in (0, 1), got {quantile}")
    rho = utilization(arrival_rate, service_rate, servers)
    if rho >= 1.0:
        return math.inf
    target = 1.0 - quantile
    # Bracket: the tail is monotone decreasing in t.
    low, high = 0.0, 1.0 / service_rate
    while mmc_sojourn_tail(high, arrival_rate, service_rate, servers, cv2) > target:
        high *= 2.0
        if high > 1e9 / service_rate:
            return math.inf
    for _ in range(80):
        mid = 0.5 * (low + high)
        if mmc_sojourn_tail(mid, arrival_rate, service_rate, servers, cv2) > target:
            low = mid
        else:
            high = mid
    return 0.5 * (low + high)
