"""Golden CSV bytes: every preset's sweep output is pinned by its sha256.

For each preset the 0-300 km sweep at a 5 km step is rendered with
``format_rows`` under four variants: the preset's own pulse count and
``n_pulses = 1e10``, each with the pinned-table and the Gaussian security
model.  The digests in ``data/golden_csv.json`` were captured from the
implementation before its evaluation path was consolidated; any change
to the numbers, the formatting or the row set shows up here.

Regenerate (only for a deliberate change of output, recorded in
CHANGES.md) with ``python tests/test_golden_csv.py --write``.
"""
from __future__ import annotations

import hashlib
import json
import os
import sys

import pytest

from hdqkd.scenario import PRESETS, parse_config
from hdqkd.sweep import format_rows, sweep_distance

DATA = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data", "golden_csv.json")
PULSES = ("own", "1e10")
MODELS = ("table", "gaussian")
VARIANTS = [f"{pulses}/{model}" for pulses in PULSES for model in MODELS]


def digest(preset: str, variant: str) -> str:
    pulses, model = variant.split("/")
    doc = f"[security_model]\nmodel = {model}\n"
    if pulses != "own":
        doc += f"[protocol]\nn_pulses = {pulses}\n"
    scenario = parse_config(doc, preset=preset)
    csv = format_rows(sweep_distance(scenario, 0.0, 300.0, 5.0))
    return hashlib.sha256(csv.encode("utf-8")).hexdigest()


def _load() -> dict[str, dict[str, str]]:
    with open(DATA, encoding="utf-8") as handle:
        return json.load(handle)


def test_every_preset_is_pinned():
    golden = _load()
    assert sorted(golden) == sorted(PRESETS)
    for preset, variants in golden.items():
        assert sorted(variants) == sorted(VARIANTS), preset


@pytest.mark.parametrize("preset", sorted(PRESETS))
def test_csv_bytes_match_golden(preset):
    expected = _load()[preset]
    got = {variant: digest(preset, variant) for variant in VARIANTS}
    assert got == expected


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: python tests/test_golden_csv.py --write")
    table = {
        preset: {variant: digest(preset, variant) for variant in VARIANTS}
        for preset in sorted(PRESETS)
    }
    os.makedirs(os.path.dirname(DATA), exist_ok=True)
    with open(DATA, "w", encoding="utf-8") as handle:
        json.dump(table, handle, indent=1, sort_keys=True)
        handle.write("\n")
