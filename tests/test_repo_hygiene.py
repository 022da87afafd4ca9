"""Guard against re-committing bytecode, caches, and build artifacts.

The seed tree shipped 66 tracked ``__pycache__/*.pyc`` files; this test
(part of the default ``make test`` path) fails if any tracked path ever
matches those patterns again, and checks that ``.gitignore`` keeps
ignoring them. It also checks that every test module the Makefile names
exists, so deleting a module cannot silently break a ``make`` target, and
that every method the benchmark's span tracer wraps is still defined
where the tracer looks for it, and that every ``repro`` name the
benchmark imports still resolves.
"""

import ast
import importlib
import importlib.util
import re
import subprocess
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[1]

#: Substring/suffix patterns no tracked file may match.
FORBIDDEN_PARTS = ("__pycache__", ".pytest_cache", ".egg-info", ".hypothesis")
FORBIDDEN_SUFFIXES = (".pyc", ".pyo")

#: Patterns .gitignore must cover so the artifacts never show up as
#: untracked noise either.
REQUIRED_IGNORES = ("__pycache__/", ".pytest_cache/", "*.egg-info/", "build/", "dist/")


def _tracked_files():
    if not (REPO_ROOT / ".git").exists():
        pytest.skip("not a git checkout")
    try:
        out = subprocess.run(
            ["git", "ls-files"],
            cwd=REPO_ROOT,
            capture_output=True,
            text=True,
            timeout=30,
        )
    except (OSError, subprocess.TimeoutExpired):
        pytest.skip("git unavailable")
    if out.returncode != 0:
        pytest.skip(f"git ls-files failed: {out.stderr.strip()}")
    return out.stdout.splitlines()


def test_no_tracked_bytecode_or_build_artifacts():
    offenders = [
        path
        for path in _tracked_files()
        if any(part in path.split("/") or part in path for part in FORBIDDEN_PARTS)
        or path.endswith(FORBIDDEN_SUFFIXES)
    ]
    assert offenders == [], f"artifact files are tracked by git: {offenders[:10]}"


def test_gitignore_covers_artifact_patterns():
    gitignore = REPO_ROOT / ".gitignore"
    assert gitignore.exists(), "repository must have a root .gitignore"
    lines = {line.strip() for line in gitignore.read_text().splitlines()}
    missing = [pattern for pattern in REQUIRED_IGNORES if pattern not in lines]
    assert missing == [], f".gitignore is missing {missing}"


def test_pycod_pattern_covers_pyc():
    # *.py[cod] is the conventional spelling; make sure it (or *.pyc) is there.
    lines = (REPO_ROOT / ".gitignore").read_text()
    assert "*.py[cod]" in lines or "*.pyc" in lines


def test_makefile_names_only_existing_test_modules():
    makefile = (REPO_ROOT / "Makefile").read_text()
    named = set(re.findall(r"\b(?:tests|benchmarks)/[\w/]+\.py\b", makefile))
    assert named, "expected the Makefile to name test modules"
    missing = sorted(path for path in named if not (REPO_ROOT / path).is_file())
    assert missing == [], f"Makefile names missing test modules: {missing}"


def test_bench_tracer_targets_exist():
    """``bench/tracer.py`` wraps each target through its class's own
    ``__dict__``: a refactor that deletes a traced method, or moves it to a
    base class, breaks every traced benchmark run. Only the full bench run
    exercises the tracer, so this checks its tables against ``src``."""
    spec = importlib.util.spec_from_file_location(
        "bench_tracer", REPO_ROOT / "bench" / "tracer.py"
    )
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    targets = [(module, cls, attr) for module, cls, attr, _ in tracer.TARGETS]
    targets += [(module, cls, "_dispatch") for module, cls in tracer.DISPATCHERS]
    missing = [
        f"{module}.{cls}.{attr}"
        for module, cls, attr in targets
        if attr not in vars(getattr(importlib.import_module(module), cls))
    ]
    assert not missing, f"traced names not defined on their own class: {missing}"


def test_bench_repro_imports_resolve():
    """``bench/*.py`` import ``repro`` names inside functions, which only
    a benchmark run executes, so a refactor that moves one
    (``run_fleet``, ``run_manager``, ``RunTrace``, ...) fails here first."""
    imports = [
        (path.name, node.module, alias.name)
        for path in sorted((REPO_ROOT / "bench").glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.ImportFrom)
        and node.module is not None
        and node.module.split(".")[0] == "repro"
        for alias in node.names
    ]
    assert imports, "expected bench/ to import from repro"
    missing = [
        f"{source}: from {module} import {name}"
        for source, module, name in imports
        if not hasattr(importlib.import_module(module), name)
    ]
    assert not missing, f"bench imports that no longer resolve: {missing}"
