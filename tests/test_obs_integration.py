"""Integration tests: traced runs, manifests, strict failure handling."""

from pathlib import Path

import numpy as np
import pytest

from repro.core import Twig, TwigConfig
from repro.errors import ConfigurationError
from repro.experiments import runner
from repro.experiments.runner import run_experiments, run_manager
from repro.obs import (
    NULL_SINK,
    MemorySink,
    ObsContext,
    activate,
    current,
    read_trace,
    summarize_events,
    validate_event,
)
from repro.obs.manifest import git_sha
from repro.server.spec import ServerSpec
from repro.services.loadgen import ConstantLoad
from repro.services.profiles import get_profile
from repro.sim.environment import ColocationEnvironment, EnvironmentConfig


def _env(seed=3, fraction=0.4):
    spec = ServerSpec()
    profile = get_profile("masstree")
    return ColocationEnvironment(
        EnvironmentConfig(spec=spec),
        [profile],
        {"masstree": ConstantLoad(profile.max_load_rps, fraction, rng=np.random.default_rng(seed))},
        np.random.default_rng(seed),
    )


def _twig(seed=1):
    return Twig(
        [get_profile("masstree")],
        TwigConfig.fast(),
        np.random.default_rng(seed),
        spec=ServerSpec(),
    )


def test_default_run_is_untraced():
    env = _env()
    assert env.trace is NULL_SINK
    run_manager(_twig(), env, 5)
    assert env.trace is NULL_SINK


def test_traced_run_emits_valid_schema_events():
    sink = MemorySink()
    obs = ObsContext(sink=sink)
    run_manager(_twig(), _env(), 30, obs=obs)
    assert sink.events, "traced run emitted nothing"
    for event in sink.events:
        validate_event(event)
    counts = {}
    for event in sink.events:
        counts[event["ev"]] = counts.get(event["ev"], 0) + 1
    assert counts["run_start"] == 1
    assert counts["run_end"] == 1
    assert counts["interval"] == 30
    assert counts["action"] == 30
    assert counts["reward"] == 30


def test_traced_run_records_timings():
    obs = ObsContext(sink=MemorySink())
    run_manager(_twig(), _env(), 10, obs=obs)
    summary = obs.timings.summary()
    assert summary["env.step"]["count"] == 10
    assert summary["manager.update"]["count"] == 10
    assert summary["agent.act"]["count"] == 10


def test_trace_aggregates_match_run_trace():
    sink = MemorySink()
    env = _env()
    trace = run_manager(_twig(), env, 40, obs=ObsContext(sink=sink))
    summary = summarize_events(sink.events)
    assert summary.steps == trace.steps()
    assert summary.services["masstree"].qos_guarantee_pct == pytest.approx(
        trace.qos_guarantee("masstree")
    )
    assert summary.mean_power_w == pytest.approx(trace.mean_power_w())
    # energy_j in the trace is the cumulative (noisy) RAPL reading.
    assert summary.final_energy_j == pytest.approx(env.energy_j)


def test_ambient_context_is_picked_up():
    sink = MemorySink()
    with activate(ObsContext(sink=sink)):
        assert current() is not None
        run_manager(_twig(), _env(), 5)
    assert current() is None
    assert any(e["ev"] == "interval" for e in sink.events)


def test_explicit_obs_wins_over_ambient():
    ambient = MemorySink()
    explicit = MemorySink()
    with activate(ObsContext(sink=ambient)):
        run_manager(_twig(), _env(), 5, obs=ObsContext(sink=explicit))
    assert not ambient.events
    assert explicit.events


def test_qos_violation_streaks_are_consecutive():
    sink = MemorySink()
    run_manager(_twig(), _env(fraction=0.9), 40, obs=ObsContext(sink=sink))
    violations = {
        (e["t"], e["service"]): e["consecutive"] for e in sink.of_type("qos_violation")
    }
    assert violations, "overloaded run produced no violations"
    for (t, name), streak in violations.items():
        previous = violations.get((t - 1, name), 0)
        assert streak == previous + 1


# ---------------------------------------------------------------------- #
# experiment batches
# ---------------------------------------------------------------------- #
def test_run_experiments_writes_manifest_and_trace(tmp_path):
    from repro.experiments.fig07_learning_curve import Fig07Config

    config = Fig07Config(
        total_steps=60, bucket=30, twig_epsilon_mid=20, hipster_learning_phase=20
    )
    runs = run_experiments(
        ["fig07"], configs={"fig07": config}, out_dir=tmp_path, trace=True
    )
    assert len(runs) == 1 and runs[0].ok
    manifest = runs[0].manifest
    assert manifest.seed == config.seed
    # The SHA of the code that ran: None outside a git checkout, by design.
    assert manifest.git_sha == git_sha(Path(runner.__file__).resolve().parent)
    assert manifest.wall_time_s > 0
    assert (tmp_path / "fig07" / "manifest.json").exists()
    events = read_trace(tmp_path / "fig07" / "trace.jsonl")
    assert len(events) == manifest.trace_events
    for event in events:
        validate_event(event)
    # The manifest's summary block is exactly what summarize recomputes.
    assert manifest.summary["trace"] == summarize_events(events).to_dict()
    assert manifest.timings["env.step"]["count"] == 2 * config.total_steps


def test_manifest_deterministic_given_fixed_seed(tmp_path):
    from repro.experiments.fig07_learning_curve import Fig07Config

    config = Fig07Config(
        total_steps=40, bucket=20, twig_epsilon_mid=10, hipster_learning_phase=10
    )
    summaries = []
    for sub in ("a", "b"):
        runs = run_experiments(
            ["fig07"], configs={"fig07": config}, out_dir=tmp_path / sub, trace=True
        )
        manifest = runs[0].manifest
        summaries.append((manifest.config_hash, manifest.summary["trace"]))
    assert summaries[0] == summaries[1]


def test_failures_recorded_in_manifest_not_swallowed(tmp_path, monkeypatch):
    import repro.experiments.registry as registry

    def exploding(experiment_id, config=None):
        raise RuntimeError("kaboom")

    monkeypatch.setattr(registry, "run_experiment", exploding)
    runs = run_experiments(["fig07", "mem"], out_dir=tmp_path)
    assert [r.ok for r in runs] == [False, False]
    for run in runs:
        assert run.manifest.status == "failed"
        assert "kaboom" in run.manifest.error
        assert (tmp_path / run.experiment_id / "manifest.json").exists()


def test_strict_reraises_first_failure(tmp_path, monkeypatch):
    import repro.experiments.registry as registry

    def exploding(experiment_id, config=None):
        raise RuntimeError("kaboom")

    monkeypatch.setattr(registry, "run_experiment", exploding)
    with pytest.raises(RuntimeError, match="kaboom"):
        run_experiments(["fig07"], out_dir=tmp_path, strict=True)
    # The manifest is written before the re-raise.
    assert (tmp_path / "fig07" / "manifest.json").exists()


def test_trace_requires_out_dir():
    with pytest.raises(ConfigurationError, match="out_dir"):
        run_experiments(["mem"], trace=True)
