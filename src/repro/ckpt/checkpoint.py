"""Versioned, atomic, full-state checkpoint container.

A checkpoint is a single ``.npz`` file holding a *state tree*: a nested
``dict`` whose leaves are either numpy arrays or JSON-serialisable
scalars (ints, floats, bools, strings, ``None``, lists, nested dicts).
The tree is flattened to ``a/b/c`` path keys; array leaves become npz
members, scalar leaves are collected into a JSON envelope stored under
the reserved ``__meta__`` member together with the container format
name, format version, and a caller-chosen *kind* tag (``"bdq_agent"``,
``"twig"``, ``"run"``) so a checkpoint can never be silently restored
into the wrong object.

Durability: :func:`save_state` writes to a temporary file in the target
directory, flushes and fsyncs it, then atomically renames it over the
destination (followed by a best-effort directory fsync). A crash mid-save
leaves either the old checkpoint or the new one, never a torn file.

Loading is stage-then-commit: :func:`load_state` parses and validates the
whole container before returning the state tree, and wraps every parse
failure (truncated zip, bad JSON, wrong kind/version) in
:class:`repro.errors.CheckpointError`. Callers restore objects from the
returned tree only after the load succeeded, so a corrupt checkpoint can
never leave behind a half-loaded agent.

Version policy (mirrors the trace-event schema in :mod:`repro.obs.events`):
``CKPT_VERSION`` is bumped when the state tree for an existing kind gains,
loses, or retypes an entry that an older or newer reader would misread;
adding a new *kind* is additive and keeps the version. An entry whose
absence the loader refuses needs no bump: a tree without it fails with
:class:`repro.errors.CheckpointError` as malformed, which is what a
version check would say. One such entry is the ``controller`` subtree of
a PARTIES or Heracles rule fleet's manager tree in a ``vector_run`` file,
added at version 3: the version-3 files written before rule fleets kept
their controllers' state lack it and are refused by
``RuleFleet.load_state_dict``, while a static fleet's tree never has
one. Loaders reject versions newer than they understand.
"""

from __future__ import annotations

import copy
import json
import os
import tempfile
from pathlib import Path
from typing import Any, Dict, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

from repro.errors import CheckpointError

CKPT_FORMAT = "repro.ckpt"
#: 2: an agent tree (``bdq_agent``, and wherever one is nested) lost its
#: scalar replay ``buffer``; every agent keeps ``num_envs`` and
#: ``striped``. Version-1 files still load: their ring becomes stripe 0.
#: 3: a ``vector_run`` tree's ``traces`` subtree is one ``header`` and
#: seven stacked arrays, ``(nodes, services, ticks)`` for the service
#: series and ``(nodes, ticks)`` for the node series, instead of one
#: subtree per node. Version-1 and -2 files, with per-node traces, still
#: load.
CKPT_VERSION = 3

#: Reserved npz member holding the JSON envelope (format/version/kind/scalars).
META_KEY = "__meta__"

_SEP = "/"


def resolve_checkpoint_path(path: Union[str, Path]) -> Path:
    """Normalise a checkpoint path the way ``np.savez`` does.

    ``np.savez`` appends ``.npz`` when the filename does not already end
    with it; loading must apply the same rule or suffix-less paths do not
    round-trip. Used by both this module and the weight-only
    :func:`repro.nn.network.save_weights` format.
    """
    path = Path(path)
    if path.suffix != ".npz":
        path = path.with_name(path.name + ".npz")
    return path


def _json_default(obj: Any) -> Any:
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.floating):
        return float(obj)
    if isinstance(obj, np.bool_):
        return bool(obj)
    raise TypeError(f"checkpoint scalar of unsupported type {type(obj).__name__}: {obj!r}")


def _flatten(
    tree: Dict[str, Any]
) -> Tuple[Dict[str, np.ndarray], Dict[str, Any]]:
    """Flatten a nested state tree into (array leaves, scalar leaves)."""
    arrays: Dict[str, np.ndarray] = {}
    scalars: Dict[str, Any] = {}

    def walk(node: Dict[str, Any], prefix: str) -> None:
        for key, value in node.items():
            if not isinstance(key, str):
                raise CheckpointError(
                    f"state tree keys must be str, got {type(key).__name__} at {prefix!r}"
                )
            if _SEP in key or key == META_KEY:
                raise CheckpointError(f"invalid state tree key {key!r} at {prefix!r}")
            path = f"{prefix}{_SEP}{key}" if prefix else key
            if isinstance(value, dict):
                if value:
                    walk(value, path)
                else:
                    # An empty dict has no children to carry it; record it
                    # as a scalar so the tree shape round-trips.
                    scalars[path] = {}
            elif isinstance(value, np.ndarray):
                arrays[path] = value
            else:
                scalars[path] = value

    walk(tree, "")
    return arrays, scalars


def _unflatten(
    arrays: Dict[str, np.ndarray], scalars: Dict[str, Any]
) -> Dict[str, Any]:
    tree: Dict[str, Any] = {}

    def insert(path: str, value: Any) -> None:
        parts = path.split(_SEP)
        node = tree
        for part in parts[:-1]:
            child = node.setdefault(part, {})
            if not isinstance(child, dict):
                raise CheckpointError(f"conflicting checkpoint entries at {path!r}")
            node = child
        if parts[-1] in node:
            raise CheckpointError(f"duplicate checkpoint entry {path!r}")
        node[parts[-1]] = value

    for path, value in arrays.items():
        insert(path, value)
    for path, value in scalars.items():
        insert(path, value)
    return tree


def save_state(path: Union[str, Path], kind: str, tree: Dict[str, Any]) -> Path:
    """Atomically write ``tree`` as a ``kind``-tagged checkpoint at ``path``.

    Returns the resolved path actually written (``.npz`` appended when the
    input path has no suffix).
    """
    path = resolve_checkpoint_path(path)
    arrays, scalars = _flatten(tree)
    envelope = {
        "format": CKPT_FORMAT,
        "version": CKPT_VERSION,
        "kind": str(kind),
        "scalars": scalars,
    }
    try:
        encoded = json.dumps(envelope, default=_json_default).encode("utf-8")
    except TypeError as exc:
        raise CheckpointError(f"state tree is not serialisable: {exc}") from exc
    payload: Dict[str, np.ndarray] = {META_KEY: np.frombuffer(encoded, dtype=np.uint8)}
    payload.update(arrays)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp_name = tempfile.mkstemp(
        prefix=f".{path.name}.", suffix=".tmp", dir=path.parent
    )
    tmp = Path(tmp_name)
    try:
        with os.fdopen(fd, "wb") as handle:
            # np.savez through an open handle: passing the tmp *name* would
            # trigger savez's own ``.npz`` suffix appending and break the
            # rename target.
            np.savez(handle, **payload)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
    try:
        # Make the rename itself durable. Best effort: not every
        # filesystem supports directory fsync.
        dir_fd = os.open(path.parent, os.O_RDONLY)
        try:
            os.fsync(dir_fd)
        finally:
            os.close(dir_fd)
    except OSError:
        pass
    return path


def _open_existing(path: Union[str, Path]) -> Path:
    resolved = resolve_checkpoint_path(path)
    if resolved.exists():
        return resolved
    if Path(path).exists():
        return Path(path)
    raise FileNotFoundError(f"checkpoint not found: {path}")


def _read_container(
    path: Path,
) -> Tuple[Optional[Dict[str, Any]], Dict[str, np.ndarray]]:
    """Parse an npz container; envelope is None for legacy (non-ckpt) files."""
    try:
        with np.load(path, allow_pickle=False) as data:
            if META_KEY not in data.files:
                return None, {}
            raw = bytes(data[META_KEY].tobytes())
            envelope = json.loads(raw.decode("utf-8"))
            arrays = {key: data[key] for key in data.files if key != META_KEY}
    except CheckpointError:
        raise
    except Exception as exc:  # zipfile.BadZipFile, OSError, json/unicode errors
        raise CheckpointError(f"unreadable checkpoint {path}: {exc}") from exc
    if not isinstance(envelope, dict) or envelope.get("format") != CKPT_FORMAT:
        raise CheckpointError(f"{path} is not a {CKPT_FORMAT} checkpoint")
    return envelope, arrays


def checkpoint_kind(path: Union[str, Path]) -> Optional[str]:
    """Return the kind tag of a checkpoint, or None for a legacy npz file.

    A *legacy* file is a readable ``.npz`` without the ``__meta__``
    envelope — the pre-``repro.ckpt`` weight-only format. Unreadable or
    torn files raise :class:`CheckpointError`.
    """
    envelope, _ = _read_container(_open_existing(path))
    if envelope is None:
        return None
    return str(envelope.get("kind"))


def load_state(path: Union[str, Path], kind: Optional[str] = None) -> Dict[str, Any]:
    """Load a checkpoint written by :func:`save_state` as a nested state tree.

    When ``kind`` is given, a container of any other kind is rejected.
    All failures raise :class:`CheckpointError` (except a missing file,
    which raises ``FileNotFoundError``).
    """
    path = _open_existing(path)
    envelope, arrays = _read_container(path)
    if envelope is None:
        raise CheckpointError(
            f"{path} is a legacy weight-only npz file, not a {CKPT_FORMAT} checkpoint"
        )
    version = envelope.get("version")
    if not isinstance(version, int) or version > CKPT_VERSION or version < 1:
        raise CheckpointError(
            f"{path} has unsupported {CKPT_FORMAT} version {version!r} "
            f"(this build reads <= {CKPT_VERSION})"
        )
    found_kind = str(envelope.get("kind"))
    if kind is not None and found_kind != kind:
        raise CheckpointError(
            f"{path} holds a {found_kind!r} checkpoint, expected {kind!r}"
        )
    scalars = envelope.get("scalars")
    if not isinstance(scalars, dict):
        raise CheckpointError(f"{path} has a malformed scalar envelope")
    return _unflatten(arrays, scalars)


def rng_state(generator: np.random.Generator) -> Dict[str, Any]:
    """Snapshot a Generator's bit-generator state as a checkpointable tree."""
    return copy.deepcopy(generator.bit_generator.state)


def set_rng_state(generator: np.random.Generator, state: Dict[str, Any]) -> None:
    """Restore a Generator from a tree produced by :func:`rng_state`.

    The state dict survives the npz round-trip unchanged for the numpy
    bit generators (PCG64's 128-bit integers serialise through JSON;
    MT19937's ``key`` vector rides along as an array leaf).
    """
    try:
        generator.bit_generator.state = copy.deepcopy(dict(state))
    except (KeyError, TypeError, ValueError) as exc:
        raise CheckpointError(f"invalid RNG state in checkpoint: {exc}") from exc


def check_rng_state(generator: np.random.Generator, state: Dict[str, Any]) -> None:
    """Raise ``CheckpointError`` unless :func:`set_rng_state` would take
    ``state``; ``generator`` itself is left as it is."""
    set_rng_state(copy.deepcopy(generator), state)


def checked_array(
    tree: Mapping[str, Any],
    key: str,
    shape: Sequence[int],
    dtype: Any = np.int64,
    low: Optional[float] = None,
    high: Optional[float] = None,
) -> np.ndarray:
    """``tree[key]`` as a new ``dtype`` array, or ``CheckpointError``.

    The leaf must have ``shape`` and every value must lie in ``[low,
    high]`` (a bound left ``None`` is open; NaN passes a float range). An
    integer ``dtype`` also refuses values its cast would change.
    """
    try:
        stored = np.asarray(tree[key])
        with np.errstate(invalid="ignore"):
            value = np.array(stored, dtype=dtype)
    except (KeyError, TypeError, ValueError) as exc:
        raise CheckpointError(f"malformed {key!r} leaf: {exc}") from exc
    if value.shape != tuple(shape):
        raise CheckpointError(f"{key!r} has shape {value.shape}, expected {tuple(shape)}")
    if np.issubdtype(value.dtype, np.integer) and not np.array_equal(value, stored):
        raise CheckpointError(f"{key!r} holds values that are not integers")
    if (low is not None and (value < low).any()) or (high is not None and (value > high).any()):
        raise CheckpointError(f"{key!r} out of range [{low}, {high}]")
    return value
