"""The benchmark's hooks into ``repro`` still resolve.

``bench/tracer.py`` times a traced episode by replacing
``cls.__dict__[attr]`` for each of its ``TARGETS`` and each
``DISPATCHERS`` class's ``_dispatch``; ``bench/episode.py`` and
``bench/ctrl_server.py`` import ``repro`` names inside the functions that
build each workload. Moving or renaming one of them breaks only a traced
or quick benchmark run, and tier-1 starts neither, so these tests check
the hooks without running one. ``bench/tracer.py`` is loaded by path;
nothing under ``bench/`` is imported as a package.
"""

from __future__ import annotations

import ast
import importlib
import importlib.util
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "bench"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", BENCH / "tracer.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


TRACER = _load_tracer()


def _repro_imports():
    """``(file, module, name)`` for every ``from repro... import name`` in
    ``bench/*.py``, at any depth of the file."""
    found = []
    for path in sorted(BENCH.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if (
                isinstance(node, ast.ImportFrom)
                and node.level == 0
                and node.module.split(".")[0] == "repro"
            ):
                found.extend((path.name, node.module, alias.name) for alias in node.names)
    return found


IMPORTS = _repro_imports()


@pytest.mark.parametrize(
    "module,cls,attr", [target[:3] for target in TRACER.TARGETS],
    ids=[f"{cls}.{attr}" for _, cls, attr, _ in TRACER.TARGETS],
)
def test_each_traced_attribute_is_its_class_own(module, cls, attr):
    owner = getattr(importlib.import_module(module), cls)
    assert attr in owner.__dict__, f"{module}.{cls} does not define {attr!r} itself"


@pytest.mark.parametrize("module,cls", TRACER.DISPATCHERS,
                         ids=[cls for _, cls in TRACER.DISPATCHERS])
def test_each_dispatcher_defines_dispatch(module, cls):
    owner = getattr(importlib.import_module(module), cls)
    assert "_dispatch" in owner.__dict__


def test_the_scan_finds_the_bench_imports():
    files = {source for source, _, _ in IMPORTS}
    assert {"episode.py", "ctrl_server.py"} <= files
    assert len(IMPORTS) >= 15


@pytest.mark.parametrize("source,module,name", IMPORTS,
                         ids=[f"{source}:{module}.{name}" for source, module, name in IMPORTS])
def test_each_bench_repro_import_resolves(source, module, name):
    imported = importlib.import_module(module)
    assert hasattr(imported, name) or importlib.util.find_spec(f"{module}.{name}"), (
        f"bench/{source} imports {name!r} from {module}, which does not define it"
    )
