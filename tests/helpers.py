"""Assertions shared by test modules."""

import numpy as np

from repro.core.mapper import AssignmentBatch
from repro.experiments.runner import RUN_SERIES, SERVICE_SERIES


def as_batch(engine, assignments):
    """Per-node ``name -> CoreAssignment`` dicts as the ``AssignmentBatch``
    a vector or cluster ``engine`` installs."""
    return AssignmentBatch.from_dicts(
        engine.names, assignments, engine.spec, engine.config.socket_index
    )


def _assert_tree_equal(a, b, path="root"):
    """Exact (bitwise for arrays) equality of two checkpoint trees."""
    if isinstance(a, dict):
        assert isinstance(b, dict), path
        assert set(a) == set(b), path
        for key in a:
            _assert_tree_equal(a[key], b[key], f"{path}.{key}")
    elif isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        a, b = np.asarray(a), np.asarray(b)
        assert a.dtype == b.dtype, path
        assert a.shape == b.shape, path
        assert np.array_equal(a, b, equal_nan=a.dtype.kind == "f"), path
    elif isinstance(a, (list, tuple)):
        assert len(a) == len(b), path
        for i, (x, y) in enumerate(zip(a, b)):
            _assert_tree_equal(x, y, f"{path}[{i}]")
    else:
        assert a == b, path


def _series_bits(values):
    """A series' length and float64 bytes."""
    array = np.asarray(values, dtype=np.float64)
    return len(array), array.tobytes()


def _assert_traces_equal(a, b):
    """Two RunTraces, or two lists of them, record the same run: the same
    services in the same order with the same QoS targets, the same
    interval and migrations, and every series the same length and the
    same float64 bytes. Stricter than list ``==``, which also fails on two
    NaN objects, and it reads list and array series alike."""
    a, b = (x if isinstance(x, list) else [x] for x in (a, b))
    assert len(a) == len(b)
    for e, (ta, tb) in enumerate(zip(a, b)):
        assert list(ta.services) == list(tb.services), e
        for name, sa in ta.services.items():
            sb = tb.services[name]
            assert sa.qos_target_ms == sb.qos_target_ms, (e, name)
            for key in SERVICE_SERIES:
                assert _series_bits(getattr(sa, key)) == _series_bits(getattr(sb, key)), (
                    e, name, key)
        for key in RUN_SERIES:
            assert _series_bits(getattr(ta, key)) == _series_bits(getattr(tb, key)), (e, key)
        assert dict(ta.migrations) == dict(tb.migrations), e
        assert ta.interval_s == tb.interval_s, e
