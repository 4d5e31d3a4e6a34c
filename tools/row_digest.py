"""Print the count and sha256 of the ``sweep_distance`` row reprs.

The rows are every preset x ``n_pulses`` in {1e9, 1e10, 1e11, 1e12,
1e13, inf} x security model {table, gaussian} x 0-300 km at 1 km, looped
in that order (presets sorted by name).  Their reprs are joined by
newlines, with a trailing newline, and hashed.  Two trees that print the
same line evaluate every one of these points to the same floats, so the
script checks a refactor that should move no byte of output.

Run from the repository root (takes a few seconds)::

    PYTHONPATH=src python tools/row_digest.py
"""
from __future__ import annotations

import hashlib

from hdqkd.scenario import parse_config, preset_names
from hdqkd.sweep import sweep_distance

PULSES = ("1e9", "1e10", "1e11", "1e12", "1e13", "inf")
MODELS = ("table", "gaussian")


def main() -> None:
    reprs = []
    for name in preset_names():
        for pulses in PULSES:
            for model in MODELS:
                doc = f"[protocol]\nn_pulses = {pulses}\n"
                doc += f"[security_model]\nmodel = {model}\n"
                scenario = parse_config(doc, preset=name)
                reprs += map(repr, sweep_distance(scenario, 0.0, 300.0, 1.0))
    text = "\n".join(reprs) + "\n"
    print(len(reprs), hashlib.sha256(text.encode()).hexdigest())


if __name__ == "__main__":
    main()
