"""Scenario configuration: presets, config-file parsing, validation.

A scenario bundles the physical constants, the decoy intensities and
selection probabilities, the basis probability, the failure budget, the
fluctuation method, the pulse count (``inf`` allowed) and the security
model.  Unset ``[physical]`` and ``[epsilons]`` keys take the defaults of
:class:`~hdqkd.physics.PhysicalParams` and
:class:`~hdqkd.fluctuation.EpsilonBudget`.  The protocol defaults are
symmetric basis choice, decoys at half the signal intensity (and a tenth
of that for the weak decoy) and the mode's default selection ratios.

Config files are plain ``key = value`` lines under ``[physical]``,
``[protocol]``, ``[epsilons]`` and ``[security_model]`` sections, with
``#`` comments.  Unknown keys are rejected with their line number, and so
is a document value that does not convert or is out of range.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace
from functools import cached_property
from typing import TYPE_CHECKING

from .decoy import IntensityConfig
from .errors import ConfigError, DomainError, SecurityModelError
from .fluctuation import METHODS, EpsilonBudget
from .physics import ChannelPoint, FrameParams, PhysicalParams
from .security import (
    GaussianSecurityModel,
    SecurityModel,
    TableSecurityModel,
    load_pinned_table,
)

if TYPE_CHECKING:
    from .montecarlo import SimConfig

__all__ = [
    "Scenario",
    "PRESETS",
    "parse_config",
    "parse_pulses",
    "preset_names",
    "build_scenario",
]

#: The ``[protocol] mode`` words.
TWO_DECOY = "two-decoy"
SINGLE_DECOY = "single-decoy"


@dataclass(frozen=True)
class Scenario:
    """A fully resolved evaluation scenario."""

    phys: PhysicalParams
    intensities: IntensityConfig
    p_t: float
    budget: EpsilonBudget
    method: str
    n_pulses: float
    beta: float
    delta_phi: float
    security_model: SecurityModel
    security_ref: str
    name: str = "custom"

    def __post_init__(self) -> None:
        if self.method not in METHODS:
            raise ConfigError(
                f"[protocol] method must be one of {METHODS}, got {self.method!r} "
                "(n_pulses = inf gives the exact row with any method)"
            )
        if not 0.0 < self.p_t < 1.0:
            raise ConfigError(f"p_t must lie in (0, 1), got {self.p_t}")
        if not 0.0 < self.beta <= 1.0:
            raise ConfigError(f"beta must lie in (0, 1], got {self.beta}")
        if not self.n_pulses > 0:
            raise ConfigError(f"n_pulses must be > 0, got {self.n_pulses}")
        if not 0.0 <= self.delta_phi < math.inf:
            raise ConfigError(
                f"delta_phi must be finite and >= 0, got {self.delta_phi}"
            )

    @cached_property
    def frame(self) -> FrameParams:
        return FrameParams.from_physical(self.phys)

    def with_overrides(
        self,
        method: str | None = None,
        n_pulses: float | None = None,
    ) -> "Scenario":
        out = self
        if method is not None:
            out = replace(out, method=method)
        if n_pulses is not None:
            out = replace(out, n_pulses=n_pulses)
        return out

    def sim_config(
        self, length_km: float, seed: int, n_pulses: float | None = None
    ) -> SimConfig:
        """The Monte Carlo session of this scenario at one channel point,
        of ``n_pulses`` pulses (the scenario's own count by default)."""
        from .montecarlo import SimConfig

        return SimConfig(
            scenario=self,
            channel=ChannelPoint.from_length(self.phys.alpha, length_km),
            n_pulses=self.n_pulses if n_pulses is None else n_pulses,
            seed=seed,
        )


def _preset(
    d: int,
    mu: float,
    mode: str,
    method: str,
    n_pulses: str = "inf",
) -> dict[str, dict[str, str]]:
    protocol = {"mode": mode, "mu": repr(mu), "method": method, "n_pulses": n_pulses}
    return {"physical": {"schmidt_d": str(d)}, "protocol": protocol}


#: Named scenario presets; decoy intensities default to v1 = mu/2 and
#: v2 = v1/10 (two-decoy) or v = mu/2 (single-decoy).
PRESETS: dict[str, dict[str, dict[str, str]]] = {
    "fig2a": _preset(8, 0.01, TWO_DECOY, "hoeffding"),
    "fig2b": _preset(8, 0.10, TWO_DECOY, "hoeffding"),
    "fig2c": _preset(8, 0.25, TWO_DECOY, "hoeffding"),
    "fig2d": _preset(8, 0.01, SINGLE_DECOY, "hoeffding"),
    "fig2e": _preset(8, 0.10, SINGLE_DECOY, "hoeffding"),
    "fig2f": _preset(8, 0.25, SINGLE_DECOY, "hoeffding"),
    "fig3a": _preset(8, 0.01, TWO_DECOY, "chernoff"),
    "fig3b": _preset(8, 0.10, TWO_DECOY, "chernoff"),
    "fig3c": _preset(8, 0.25, TWO_DECOY, "chernoff"),
    "fig3d": _preset(8, 0.01, SINGLE_DECOY, "chernoff"),
    "fig3e": _preset(8, 0.10, SINGLE_DECOY, "chernoff"),
    "fig3f": _preset(8, 0.25, SINGLE_DECOY, "chernoff"),
    "fig4a": _preset(8, 0.10, SINGLE_DECOY, "chernoff", n_pulses="1e12"),
    "fig4b": _preset(8, 0.25, SINGLE_DECOY, "chernoff", n_pulses="1e11"),
    "fig5": _preset(32, 0.01, SINGLE_DECOY, "chernoff"),
    "fig6a": _preset(32, 0.10, TWO_DECOY, "chernoff"),
    "fig6b": _preset(32, 0.25, TWO_DECOY, "chernoff"),
}


def preset_names() -> list[str]:
    return sorted(PRESETS)


_DEFAULTS: dict[str, dict[str, str]] = {
    "protocol": {
        "mode": TWO_DECOY,
        "mu": "0.10",
        "p_t": "0.5",
        "n_pulses": "inf",
        "method": "hoeffding",
        "beta": "0.9",
        "delta_phi": "0.0",
    },
    "security_model": {"model": "table"},
}

#: Sections that are one dataclass record each, with the noun that names
#: the record in its cross-field errors.  Unset keys keep the field defaults.
_RECORDS = {
    "physical": (PhysicalParams, "parameters"),
    "epsilons": (EpsilonBudget, "budget"),
}

#: Keys a document may set: every record field and defaulted key, plus the
#: optional ones whose absence means a derived value (decoy intensities,
#: selection ratios) or the pinned table.
_SECTIONS = {sec: {f.name for f in fields(cls)} for sec, (cls, _) in _RECORDS.items()}
_SECTIONS.update((section, set(keys)) for section, keys in _DEFAULTS.items())
_SECTIONS["protocol"] |= {"v1", "v2", "ratios"}
_SECTIONS["security_model"] |= {"table"}


class _DocValue(str):
    """A value read from a config document; ``lineno`` is its line."""

    lineno: int


def _parse_lines(text: str) -> dict[str, dict[str, str]]:
    """Parse ``key = value`` lines into {section: {key: value}}."""
    out: dict[str, dict[str, str]] = {}
    section: str | None = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            section = line[1:-1].strip()
            if section not in _SECTIONS:
                raise ConfigError(
                    f"line {lineno}: unknown section [{section}] "
                    f"(expected one of {sorted(_SECTIONS)})"
                )
            out.setdefault(section, {})
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        if section is None:
            raise ConfigError(
                f"line {lineno}: key outside any section; start with e.g. [protocol]"
            )
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in _SECTIONS[section]:
            raise ConfigError(
                f"line {lineno}: unknown key {key!r} in section [{section}]"
            )
        if not value:
            raise ConfigError(f"line {lineno}: empty value for {key!r}")
        if key in out.setdefault(section, {}):
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        located = _DocValue(value)
        located.lineno = lineno
        out[section][key] = located
    return out


def _merge(
    base: dict[str, dict[str, str]], overlay: dict[str, dict[str, str]]
) -> dict[str, dict[str, str]]:
    merged = {section: dict(keys) for section, keys in base.items()}
    for section, keys in overlay.items():
        merged.setdefault(section, {}).update(keys)
    return merged


def _where(value: str | None) -> str:
    """``line N: `` if a document set ``value``, else nothing."""
    return f"line {value.lineno}: " if isinstance(value, _DocValue) else ""


def _value_error(label: str, value: str, problem: str) -> ConfigError:
    """``label: problem``, led by ``line N: `` if a document set ``value``."""
    return ConfigError(f"{_where(value)}{label}: {problem}")


def _field_error(section: dict[str, str], lead: str, exc: Exception) -> ConfigError:
    """``lead`` and ``exc``'s message, led by ``line N: `` if the message opens
    with a field of ``section`` (after an optional ``[section]``) that the
    document set.  A relation between fields opens with no field name."""
    words = str(exc).split()
    name = words[1] if words[0].startswith("[") else words[0]
    return ConfigError(f"{_where(section.get(name))}{lead}{exc}")


def _to_float(label: str, value: str) -> float:
    try:
        number = float(value)
    except ValueError as exc:
        raise _value_error(label, value, f"not a number: {value!r}") from exc
    if not math.isfinite(number):
        raise _value_error(label, value, f"must be finite, got {value!r}")
    return number


def _to_int(label: str, value: str) -> int:
    try:
        return int(value)
    except ValueError as exc:
        raise _value_error(label, value, f"not an integer: {value!r}") from exc


def parse_pulses(label: str, value: str) -> float:
    """A pulse count: ``inf`` or ``infinity`` in any case, or a finite number > 0.

    ``label`` names the value in error messages, e.g. ``[protocol] n_pulses``
    or ``--n-pulses``.
    """
    if value.lower() in ("inf", "infinity"):
        return math.inf
    number = _to_float(label, value)
    if number <= 0.0:
        raise _value_error(label, value, f"must be > 0 (or inf), got {value!r}")
    return number


def _record(section: str, raw: dict[str, str]) -> PhysicalParams | EpsilonBudget:
    """Build a record section from the keys set in ``raw``."""
    cls, noun = _RECORDS[section]
    kwargs = {}
    for field in fields(cls):
        if field.name in raw:
            convert = _to_int if field.type in (int, "int") else _to_float
            kwargs[field.name] = convert(f"[{section}] {field.name}", raw[field.name])
    try:
        return cls(**kwargs)
    except DomainError as exc:
        raise _field_error(raw, f"[{section}] invalid {noun}: ", exc) from exc


def _parse_ratios(value: str, mode: str) -> tuple[float, float]:
    label = "[protocol] ratios"
    parts = value.split(":")
    expected = 3 if mode == TWO_DECOY else 2
    if len(parts) != expected:
        problem = f"{mode} mode needs {expected} colon-separated weights, got {value!r}"
        raise _value_error(label, value, problem)
    try:
        weights = [float(p) for p in parts]
    except ValueError as exc:
        raise _value_error(label, value, f"not numbers: {value!r}") from exc
    if not all(math.isfinite(w) and w > 0 for w in weights):
        problem = f"weights must be finite and > 0, got {value!r}"
        raise _value_error(label, value, problem)
    total = sum(weights)
    probs = [w / total for w in weights]
    if expected == 3:  # IntensityConfig's remainder for v2
        probs[2] = 1.0 - probs[0] - probs[1]
    if not all(0.0 < p < 1.0 for p in probs):
        problem = f"selection probabilities must lie in (0, 1), got {probs}"
        raise _value_error(label, value, problem)
    return probs[0], probs[1]


def build_scenario(
    values: dict[str, dict[str, str]], name: str = "custom"
) -> Scenario:
    """Build and validate a scenario from merged string values.

    Unset ``[physical]`` and ``[epsilons]`` keys keep the dataclass defaults.
    """
    phys = _record("physical", values.get("physical", {}))

    proto = values["protocol"]
    mode = proto["mode"]
    if mode not in (TWO_DECOY, SINGLE_DECOY):
        problem = f"expected '{TWO_DECOY}' or '{SINGLE_DECOY}', got {mode!r}"
        raise _value_error("[protocol] mode", mode, problem)
    mu = _to_float("[protocol] mu", proto["mu"])
    v1 = _to_float("[protocol] v1", proto["v1"]) if "v1" in proto else mu / 2.0
    ratios = proto.get("ratios", "7:2:1" if mode == TWO_DECOY else "4:1")
    p_mu, p_v1 = _parse_ratios(ratios, mode)
    try:
        if mode == TWO_DECOY:
            v2 = _to_float("[protocol] v2", proto["v2"]) if "v2" in proto else v1 / 10.0
            intensities = IntensityConfig.two_decoy(mu, v1, v2, p_mu, p_v1)
        else:
            if "v2" in proto:
                raise _value_error(
                    "[protocol] v2", proto["v2"], "not allowed in single-decoy mode"
                )
            intensities = IntensityConfig.single_decoy(mu, v1, p_mu, p_v1)
    except DomainError as exc:
        raise _field_error(proto, "[protocol] invalid intensities: ", exc) from exc

    n_pulses = parse_pulses("[protocol] n_pulses", proto["n_pulses"])
    budget = _record("epsilons", values.get("epsilons", {}))

    sec = values["security_model"]
    model_kind, table_path = sec["model"], sec.get("table")
    if model_kind == "table":
        try:
            if table_path is None:
                model: SecurityModel = load_pinned_table()
                ref = "table:pinned"
            else:
                model = TableSecurityModel.from_file(table_path)
                ref = f"table:{table_path}"
        except OSError as exc:
            problem = f"cannot read {table_path!r}: {exc}"
            raise _value_error("[security_model] table", table_path, problem) from exc
        except SecurityModelError as exc:
            raise _value_error("[security_model] table", table_path, str(exc)) from exc
    elif model_kind == "gaussian":
        if table_path is not None:
            problem = "not allowed with model = gaussian"
            raise _value_error("[security_model] table", table_path, problem)
        model = GaussianSecurityModel()
        ref = "gaussian"
    else:
        problem = f"expected 'table' or 'gaussian', got {model_kind!r}"
        raise _value_error("[security_model] model", model_kind, problem)

    p_t, beta, delta_phi = (
        _to_float(f"[protocol] {k}", proto[k]) for k in ("p_t", "beta", "delta_phi")
    )
    try:
        return Scenario(
            phys=phys,
            intensities=intensities,
            p_t=p_t,
            budget=budget,
            method=str(proto["method"]),
            n_pulses=n_pulses,
            beta=beta,
            delta_phi=delta_phi,
            security_model=model,
            security_ref=ref,
            name=name,
        )
    except ConfigError as exc:
        raise _field_error(proto, "", exc) from exc


def parse_config(text: str, preset: str | None = None) -> Scenario:
    """Parse a configuration document, optionally on top of a preset.

    Precedence: package defaults, then the preset, then the document.
    Neither defaults nor presets set ``v1``, ``v2`` or ``ratios``, so
    unless the document does, they follow the final ``mu`` and ``mode``
    (``v1 = mu/2``, ``v2 = v1/10`` and the mode's default ratios).
    """
    values = _DEFAULTS
    if preset is not None:
        if preset not in PRESETS:
            raise ConfigError(
                f"unknown preset {preset!r} (available: {', '.join(preset_names())})"
            )
        values = _merge(values, PRESETS[preset])
    values = _merge(values, _parse_lines(text))
    return build_scenario(values, name=preset or "custom")
