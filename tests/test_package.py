"""Package surface: lazy Monte Carlo exports and a numpy-free CLI import."""
from __future__ import annotations

import importlib
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import hdqkd
import hdqkd.montecarlo

SRC = Path(__file__).resolve().parents[1] / "src"


def test_cli_import_loads_no_numpy():
    # Parsing a preset builds the pinned table, so this also catches a
    # tabulation that pulls numpy into set-up.
    probe = (
        "import sys; sys.path.insert(0, sys.argv[1]); import hdqkd.cli; "
        "import hdqkd.scenario; hdqkd.scenario.parse_config('', preset='fig2b'); "
        "print('numpy' in sys.modules)"
    )
    result = subprocess.run(
        [sys.executable, "-c", probe, str(SRC)],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "False"


def test_monte_carlo_names_resolve_to_the_module():
    for name in ("SimConfig", "SessionTally", "coverage_experiment", "simulate_session"):
        assert getattr(hdqkd, name) is getattr(hdqkd.montecarlo, name)


def test_star_import_binds_all_names():
    # The package and every module with an __all__: a stale entry fails.
    # Importing __main__ would run the CLI.
    names = ["hdqkd"] + [
        f"hdqkd.{m.name}"
        for m in pkgutil.iter_modules(hdqkd.__path__)
        if m.name != "__main__"
    ]
    for module in map(importlib.import_module, names):
        if not hasattr(module, "__all__"):
            continue
        namespace: dict[str, object] = {}
        exec(f"from {module.__name__} import *", namespace)
        assert [n for n in module.__all__ if n not in namespace] == [], module


def test_unknown_attribute_raises():
    with pytest.raises(AttributeError, match="no_such_name"):
        hdqkd.no_such_name  # noqa: B018 - the lookup is the test
