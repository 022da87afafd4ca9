"""End-to-end integration tests across the full stack.

These exercise the complete pipeline — environment, telemetry, monitor,
agent, mapper, metrics — the way the experiments do, at small step
budgets. They complement the per-module unit tests by catching interface
drift between subsystems.
"""

import numpy as np
import pytest

from repro.baselines import HipsterManager, PartiesManager, StaticManager
from repro.core import Twig, TwigConfig
from repro.core.power_model import ServicePowerModel
from repro.experiments.common import make_environment
from repro.experiments.profiling import fit_service_power_model
from repro.experiments.runner import run_manager
from repro.server.spec import ServerSpec
from repro.services.loadgen import ConstantLoad, StepwiseVaryingLoad
from repro.services.profiles import get_profile
from repro.sim.environment import ColocationEnvironment, EnvironmentConfig
from tests.helpers import _assert_traces_equal


def test_full_loop_twig_s_with_fitted_power_model(rng):
    """Twig wired with an Equation-2 model fitted from profiling data."""
    spec = ServerSpec()
    profile = get_profile("masstree")
    model = fit_service_power_model(
        profile, spec, rng,
        loads=(0.3, 0.6), core_counts=(6, 12, 18), dvfs_indices=(0, 4, 8),
        seconds_per_point=2, n_candidates=400,
    )
    twig = Twig(
        [profile],
        TwigConfig.fast(epsilon_mid_steps=150, epsilon_final_steps=300),
        np.random.default_rng(42),
        spec=spec,
        power_models={"masstree": model},
    )
    env = make_environment(["masstree"], [0.4], 7, spec)
    trace = run_manager(twig, env, 400)
    assert trace.steps() == 400
    assert np.isfinite(trace.energy_j())
    assert twig.last_rewards["masstree"] != 0.0


def test_all_managers_coexist_on_same_environment_seed():
    """Every manager runs against identically seeded environments and
    produces comparable, finite summaries."""
    spec = ServerSpec()
    profile = get_profile("xapian")
    results = {}
    for name, manager in (
        ("static", StaticManager(["xapian"], spec=spec)),
        ("hipster", HipsterManager(profile, np.random.default_rng(3), spec=spec,
                                   learning_phase_steps=100)),
        ("twig", Twig([profile], TwigConfig.fast(epsilon_mid_steps=100,
                                                 epsilon_final_steps=200),
                      np.random.default_rng(42), spec=spec)),
    ):
        env = make_environment(["xapian"], [0.3], 11, spec)
        trace = run_manager(manager, env, 250)
        results[name] = trace.mean_power_w(100)
    assert all(20.0 < p < 130.0 for p in results.values())


def test_twig_c_three_services(rng):
    """Twig-C generalises beyond pairs: three colocated services."""
    spec = ServerSpec()
    names = ["masstree", "xapian", "img-dnn"]
    profiles = [get_profile(n) for n in names]
    twig = Twig(
        profiles,
        TwigConfig.fast(epsilon_mid_steps=100, epsilon_final_steps=200),
        np.random.default_rng(42),
        spec=spec,
    )
    assert twig.agent.config.state_dim == 33
    assert len(twig.agent.online.branch_sizes) == 3
    env = make_environment(names, [0.2, 0.2, 0.2], 7, spec)
    trace = run_manager(twig, env, 150)
    for name in names:
        assert len(trace.services[name].p99_ms) == 150


def test_service_swap_mid_run(rng):
    """Environment swap + Twig transfer keeps the loop consistent."""
    spec = ServerSpec()
    masstree, moses, xapian = (get_profile(n) for n in ("masstree", "moses", "xapian"))
    twig = Twig(
        [masstree, moses],
        TwigConfig.fast(epsilon_mid_steps=100, epsilon_final_steps=200),
        np.random.default_rng(42),
        spec=spec,
    )
    env = make_environment(["masstree", "moses"], [0.2, 0.3], 7, spec)
    run_manager(twig, env, 80)
    env.swap_service(
        "moses", xapian, ConstantLoad(xapian.max_load_rps, 0.3, rng=np.random.default_rng(9))
    )
    twig.transfer_to("moses", xapian)
    trace = run_manager(twig, env, 80)
    assert "xapian" in trace.services
    assert len(trace.services["xapian"].p99_ms) == 80


def test_load_spike_recovery():
    """Failure injection: a 4x load spike must not wedge the pipeline —
    the service violates during the spike and recovers afterwards."""
    spec = ServerSpec()
    profile = get_profile("masstree")
    spike = [0.3] * 60 + [1.2] * 20 + [0.3] * 120
    from repro.services.loadgen import TraceLoad

    env = ColocationEnvironment(
        EnvironmentConfig(spec=spec),
        [profile],
        {"masstree": TraceLoad(profile.max_load_rps, spike, jitter_std=0.0)},
        np.random.default_rng(7),
    )
    manager = StaticManager(["masstree"], spec=spec)
    trace = run_manager(manager, env, len(spike))
    p99 = np.asarray(trace.services["masstree"].p99_ms)
    target = profile.qos_target_ms
    assert np.any(p99[60:80] > target)          # the spike hurts
    assert np.all(np.isfinite(p99))             # but nothing blows up
    assert np.mean(p99[-40:] <= target) > 0.9   # and it recovers


def test_varying_load_pipeline_with_parties():
    spec = ServerSpec()
    names = ["moses", "masstree"]
    profiles = [get_profile(n) for n in names]
    generators = {
        "moses": StepwiseVaryingLoad(2800, step_every=30, rng=np.random.default_rng(1)),
        "masstree": ConstantLoad(2400, 0.2, rng=np.random.default_rng(2)),
    }
    env = ColocationEnvironment(
        EnvironmentConfig(spec=spec), profiles, generators, np.random.default_rng(7)
    )
    manager = PartiesManager(profiles, np.random.default_rng(3), spec=spec)
    trace = run_manager(manager, env, 200)
    assert trace.steps() == 200
    assert sum(trace.migrations.values()) > 0


def test_determinism_same_seeds_same_trace():
    """The whole stack is reproducible from seeds."""
    def one_run():
        spec = ServerSpec()
        profile = get_profile("masstree")
        twig = Twig(
            [profile],
            TwigConfig.fast(epsilon_mid_steps=80, epsilon_final_steps=160),
            np.random.default_rng(42),
            spec=spec,
        )
        env = make_environment(["masstree"], [0.4], 7, spec)
        return run_manager(twig, env, 120)

    _assert_traces_equal(one_run(), one_run())


@pytest.mark.slow
def test_twig_robust_across_seeds():
    """Behavioural robustness: different seeds converge to similar QoS
    and all beat static on power at 30% load."""
    spec = ServerSpec()
    profile = get_profile("masstree")
    static_env = make_environment(["masstree"], [0.3], 1, spec)
    static_trace = run_manager(StaticManager(["masstree"], spec=spec), static_env, 200)
    base = static_trace.mean_power_w()
    for seed in (1, 2, 3):
        twig = Twig(
            [profile],
            TwigConfig.fast(epsilon_mid_steps=1500, epsilon_final_steps=2500),
            np.random.default_rng(seed),
            spec=spec,
        )
        env = make_environment(["masstree"], [0.3], seed + 50, spec)
        trace = run_manager(twig, env, 3500)
        assert trace.qos_guarantee("masstree", 300) > 85.0, seed
        assert trace.mean_power_w(300) < base, seed
