"""Package surface: lazy Monte Carlo exports and a numpy-free CLI import."""
from __future__ import annotations

import argparse
import importlib
import pkgutil
import re
import subprocess
import sys
from pathlib import Path

import pytest

import hdqkd
import hdqkd.montecarlo
from hdqkd.cli import build_parser
from hdqkd.fluctuation import METHODS
from hdqkd.scenario import _SECTIONS, parse_config

SRC = Path(__file__).resolve().parents[1] / "src"
README = SRC.parent / "README.md"


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


def test_method_lists_match_fluctuation_methods():
    # The README's two lists and every --method option read METHODS.
    text = README.read_text(encoding="utf-8")
    options = re.findall(r"--method \{([^}]*)\}", text)
    comments = re.findall(r"^method = \w+ +# (.+)$", text, re.MULTILINE)
    assert len(options) == len(comments) == 1
    assert tuple(options[0].split(",")) == METHODS
    assert tuple(comments[0].split(" | ")) == METHODS
    subparsers = next(
        a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)
    )
    choices = {
        name: action.choices
        for name, sub in subparsers.choices.items()
        for action in sub._actions
        if action.dest == "method"
    }
    assert set(choices) == {"point", "sweep", "maxdist", "coverage"}
    assert all(tuple(c) == METHODS for c in choices.values())


def test_readme_config_block_is_the_accepted_key_set():
    # The documented block parses, and its keys (the commented-out table
    # path included) are exactly the keys a document may set.
    text = README.read_text(encoding="utf-8")
    (block,) = re.findall(r"```ini\n(.*?)```", text, re.DOTALL)
    parse_config(block)
    keys: dict[str, set[str]] = {}
    for line in block.splitlines():
        if header := re.fullmatch(r"\[(\w+)\]", line):
            section = header.group(1)
            keys[section] = set()
        elif entry := re.match(r"(?:# )?(\w+) = ", line):
            keys[section].add(entry.group(1))
    assert keys == _SECTIONS
