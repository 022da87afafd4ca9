"""Tests for run manifests: hashing determinism, round-trip, git SHA."""

from dataclasses import dataclass
from pathlib import Path

import pytest

from repro.errors import ConfigurationError
from repro.obs.manifest import RunManifest, config_hash, git_sha


@dataclass(frozen=True)
class _Config:
    seed: int = 7
    steps: int = 100
    name: str = "fig07"


def test_config_hash_deterministic():
    assert config_hash(_Config()) == config_hash(_Config())
    assert config_hash(None) == config_hash(None)
    assert config_hash({"b": 2, "a": 1}) == config_hash({"a": 1, "b": 2})


def test_config_hash_sensitive_to_values():
    assert config_hash(_Config(seed=7)) != config_hash(_Config(seed=8))
    assert config_hash(_Config()) != config_hash(None)


def test_config_hash_handles_nested_and_exotic_values():
    a = config_hash({"x": [1, 2, (3, 4)], "y": _Config()})
    b = config_hash({"x": [1, 2, (3, 4)], "y": _Config()})
    assert a == b
    # non-JSON values fall back to repr() rather than failing
    assert config_hash({"f": float}) == config_hash({"f": float})


def test_manifest_round_trip(tmp_path):
    manifest = RunManifest(
        experiment_id="fig07",
        seed=7,
        config_hash=config_hash(_Config()),
        git_sha="abc123",
        started_at="2026-08-06T00:00:00+00:00",
        wall_time_s=1.5,
        summary={"result_type": "Fig07Result"},
        timings={"env.step": {"count": 10, "total_s": 0.1}},
        trace_path="runs/fig07/trace.jsonl",
        trace_events=42,
    )
    path = manifest.write(tmp_path / "deep" / "manifest.json")
    loaded = RunManifest.read(path)
    assert loaded == manifest


def test_comparable_dict_drops_only_timing_fields():
    a = RunManifest(
        experiment_id="fig07",
        started_at="2026-08-06T00:00:00+00:00",
        wall_time_s=1.5,
        timings={"env.step": {"count": 10, "total_s": 0.1}},
    )
    b = RunManifest(
        experiment_id="fig07",
        started_at="2026-08-06T09:99:99+00:00",
        wall_time_s=9.9,
        timings={"env.step": {"count": 10, "total_s": 0.9}},
    )
    # Same run modulo timing: comparable views agree, raw dicts do not.
    assert a.comparable_dict() == b.comparable_dict()
    assert a.to_dict() != b.to_dict()
    for field in RunManifest.TIMING_FIELDS:
        assert field not in a.comparable_dict()
        assert field in a.to_dict()
    # A substantive difference still shows up.
    c = RunManifest(experiment_id="fig07", status="failed", error="boom")
    assert a.comparable_dict() != c.comparable_dict()


def test_manifest_rejects_bad_status():
    with pytest.raises(ConfigurationError):
        RunManifest(experiment_id="x", status="partial")


def test_manifest_read_rejects_unknown_fields(tmp_path):
    path = tmp_path / "manifest.json"
    path.write_text('{"experiment_id": "x", "bogus": 1}')
    with pytest.raises(ConfigurationError, match="unknown fields"):
        RunManifest.read(path)


def test_manifest_read_missing_file():
    with pytest.raises(ConfigurationError, match="not found"):
        RunManifest.read("/nonexistent/manifest.json")


def test_git_sha_of_this_repo():
    root = Path(__file__).resolve().parents[1]
    sha = git_sha(root)
    if (root / ".git").exists():
        # A git checkout: the SHA must resolve.
        assert sha is not None
        assert len(sha) == 40
    else:
        # An export without .git (git archive) has no commit to report.
        assert sha is None


def test_git_sha_outside_a_repo(tmp_path):
    assert git_sha(tmp_path) is None
