"""Run traces are float64 arrays, and a fleet checkpoint stacks them.

Both run loops (:func:`run_manager`, :func:`run_fleet`) return every
series as a float64 array of one value per interval, also after a
resume. A ``vector_run`` checkpoint stores the traces as one header and
seven stacked arrays, however many nodes the fleet has; the per-node
layout of format versions 1 and 2 still resumes (the checked-in
fixture, ``tests/test_vector_run_fixture.py``).
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.baselines import StaticManager
from repro.ckpt.checkpoint import META_KEY
from repro.engine.rollout import run_fleet
from repro.engine.vector_env import VectorEnvironment
from repro.experiments.common import make_environment
from repro.experiments.runner import (
    RUN_CKPT_NAME,
    RUN_SERIES,
    SERVICE_SERIES,
    RunTrace,
    run_manager,
)
from repro.hier.baselines import make_rule_fleet
from tests.helpers import _assert_traces_equal
from tests.test_golden_run_traces import _paper_twig
from tests.test_vector_run_fixture import FIXTURE, STEPS, _fleet

SERVICES = ["masstree", "xapian"]


def _assert_array_series(trace: RunTrace, steps: int) -> None:
    for name, series in trace.services.items():
        for key in SERVICE_SERIES:
            values = getattr(series, key)
            assert isinstance(values, np.ndarray), (name, key)
            assert (values.dtype, values.shape) == (np.float64, (steps,)), (name, key)
    for key in RUN_SERIES:
        values = getattr(trace, key)
        assert isinstance(values, np.ndarray), key
        assert (values.dtype, values.shape) == (np.float64, (steps,)), key


def _paper_pair():
    config = {"services": SERVICES, "seed": 4}
    return _paper_twig(config), make_environment(SERVICES, [0.4, 0.4], 4)


def _static_fleet(nodes):
    venv = VectorEnvironment.from_services(SERVICES, {"masstree": 0.4, "xapian": 0.5}, nodes, 9)
    return make_rule_fleet("static", SERVICES, nodes, 9), venv


def test_scalar_loop_returns_float64_arrays(tmp_path):
    steps = 12
    plain = run_manager(*_paper_pair(), steps)
    _assert_array_series(plain, steps)
    run_manager(*_paper_pair(), steps, checkpoint_every=5, checkpoint_dir=tmp_path)
    resumed = run_manager(*_paper_pair(), steps, resume_from=tmp_path)
    _assert_array_series(resumed, steps)
    _assert_traces_equal(resumed, plain)


def test_fleet_loop_returns_float64_arrays(tmp_path):
    steps = 7
    plain = run_fleet(*_static_fleet(3), steps)
    for trace in plain:
        _assert_array_series(trace, steps)
    run_fleet(*_static_fleet(3), steps, checkpoint_every=3, checkpoint_dir=tmp_path)
    resumed = run_fleet(*_static_fleet(3), steps, resume_from=tmp_path)
    for trace in resumed:
        _assert_array_series(trace, steps)
    _assert_traces_equal(resumed, plain)


def test_per_node_fixture_resumes_to_float64_arrays():
    for trace in run_fleet(*_fleet(), STEPS, resume_from=FIXTURE):
        _assert_array_series(trace, STEPS)


@pytest.mark.parametrize("nodes", [1, 4, 9])
def test_vector_run_checkpoint_stacks_traces_in_seven_arrays(nodes, tmp_path):
    steps, every = 5, 4
    run_fleet(*_static_fleet(nodes), steps, checkpoint_every=every, checkpoint_dir=tmp_path)
    with np.load(tmp_path / RUN_CKPT_NAME) as written:
        members = [m for m in written.files if m.startswith("traces/")]
        assert members == [f"traces/{key}" for key in SERVICE_SERIES + RUN_SERIES]
        for key in SERVICE_SERIES:
            assert written[f"traces/{key}"].shape == (nodes, len(SERVICES), every)
        for key in RUN_SERIES:
            assert written[f"traces/{key}"].shape == (nodes, every)
        scalars = json.loads(bytes(written[META_KEY]).decode())["scalars"]
    header = {k: v for k, v in scalars.items() if k.startswith("traces/")}
    assert sorted(header) == ["traces/header/interval_s", "traces/header/qos_target_ms",
                              "traces/header/service_order"]
    assert header["traces/header/service_order"] == SERVICES


def test_record_still_appends_to_a_hand_built_trace():
    env = make_environment(SERVICES, [0.4, 0.4], 4)
    manager = StaticManager(SERVICES)
    trace = RunTrace.for_env(manager.name, env)
    assignments = manager.initial_assignments()
    for _ in range(3):
        trace.record(env.step(assignments))
    assert trace.steps() == 3
    assert isinstance(trace.power_w, list)
    assert len(trace.services["xapian"].p99_ms) == 3
