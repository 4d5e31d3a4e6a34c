"""Scenario configuration: presets, config-file parsing, validation.

A scenario bundles the physical constants, the decoy intensities and
selection probabilities, the basis probability, the failure budget, the
fluctuation method, the pulse count (``inf`` allowed) and the security
model.  Presets mirror the standard evaluation setups: 0.2 dB/km loss,
93% detector efficiencies, 1 kHz dark counts, a 30 ps coherence time, a
10 ps correlation-time change, symmetric basis choice, 1e-10 failure
budgets, decoys at half the signal intensity (and a tenth of that for
the weak decoy) with 7:2:1 or 4:1 selection ratios.

Config files are plain ``key = value`` lines under ``[physical]``,
``[protocol]``, ``[epsilons]`` and ``[security_model]`` sections, with
``#`` comments.  Unknown keys are rejected with their line number.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cached_property
from typing import TYPE_CHECKING

from .decoy import SINGLE_DECOY, TWO_DECOY, IntensityConfig
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

__all__ = ["Scenario", "PRESETS", "parse_config", "preset_names", "build_scenario"]

_SECTIONS = {
    "physical": {
        "alpha",
        "eta_alice",
        "eta_bob",
        "r_dc",
        "delta_j",
        "delta_coh",
        "schmidt_d",
        "delta_delta",
    },
    "protocol": {
        "mode",
        "mu",
        "v1",
        "v2",
        "ratios",
        "p_t",
        "n_pulses",
        "method",
        "beta",
        "delta_phi",
    },
    "epsilons": {"eps_pe", "eps_ec", "eps_bar", "eps_pa"},
    "security_model": {"model", "table"},
}


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
        """Materialize a Monte Carlo configuration at one channel point."""
        from .montecarlo import SimConfig

        pulses = n_pulses if n_pulses is not None else self.n_pulses
        if not math.isfinite(pulses) or pulses != int(pulses):
            raise ConfigError(
                f"simulation needs a finite integer n_pulses, got {pulses}"
            )
        return SimConfig(
            phys=self.phys,
            frame=self.frame,
            channel=ChannelPoint.from_length(self.phys.alpha, length_km),
            intensities=self.intensities,
            p_t=self.p_t,
            n_pulses=int(pulses),
            seed=seed,
        )


def _preset(
    d: int,
    mu: float,
    mode: str,
    method: str,
    n_pulses: str = "inf",
) -> dict[str, dict[str, str]]:
    ratios = "7:2:1" if mode == TWO_DECOY else "4:1"
    protocol = {
        "mode": mode,
        "mu": repr(mu),
        "ratios": ratios,
        "method": method,
        "n_pulses": n_pulses,
    }
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
    "physical": {
        "alpha": "0.2",
        "eta_alice": "0.93",
        "eta_bob": "0.93",
        "r_dc": "1000",
        "delta_j": "20e-12",
        "delta_coh": "30e-12",
        "schmidt_d": "8",
        "delta_delta": "10e-12",
    },
    "protocol": {
        "mode": TWO_DECOY,
        "mu": "0.10",
        "ratios": "7:2:1",
        "p_t": "0.5",
        "n_pulses": "inf",
        "method": "hoeffding",
        "beta": "0.9",
        "delta_phi": "0.0",
    },
    "epsilons": {
        "eps_pe": "1e-10",
        "eps_ec": "1e-10",
        "eps_bar": "1e-10",
        "eps_pa": "1e-10",
    },
    "security_model": {"model": "table"},
}


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
        out[section][key] = value
    return out


def _merge(
    base: dict[str, dict[str, str]], overlay: dict[str, dict[str, str]]
) -> dict[str, dict[str, str]]:
    merged = {section: dict(keys) for section, keys in base.items()}
    for section, keys in overlay.items():
        merged.setdefault(section, {}).update(keys)
    return merged


def _to_float(section: str, key: str, value: str) -> float:
    try:
        number = float(value)
    except ValueError as exc:
        raise ConfigError(f"[{section}] {key}: not a number: {value!r}") from exc
    if not math.isfinite(number):
        raise ConfigError(f"[{section}] {key}: must be finite, got {value!r}")
    return number


def _to_int(section: str, key: str, value: str) -> int:
    try:
        return int(value)
    except ValueError as exc:
        raise ConfigError(f"[{section}] {key}: not an integer: {value!r}") from exc


def _parse_ratios(value: str, mode: str) -> tuple[float, float]:
    parts = value.split(":")
    expected = 3 if mode == TWO_DECOY else 2
    if len(parts) != expected:
        raise ConfigError(
            f"[protocol] ratios: {mode} mode needs {expected} colon-separated "
            f"weights, got {value!r}"
        )
    try:
        weights = [float(p) for p in parts]
    except ValueError as exc:
        raise ConfigError(f"[protocol] ratios: not numbers: {value!r}") from exc
    if not all(math.isfinite(w) and w > 0 for w in weights):
        raise ConfigError(
            f"[protocol] ratios: weights must be finite and > 0, got {value!r}"
        )
    total = sum(weights)
    return weights[0] / total, weights[1] / total


def build_scenario(
    values: dict[str, dict[str, str]], name: str = "custom"
) -> Scenario:
    """Build and validate a scenario from merged string values."""
    phys_raw = values["physical"]
    try:
        phys = PhysicalParams(
            alpha=_to_float("physical", "alpha", phys_raw["alpha"]),
            eta_alice=_to_float("physical", "eta_alice", phys_raw["eta_alice"]),
            eta_bob=_to_float("physical", "eta_bob", phys_raw["eta_bob"]),
            r_dc=_to_float("physical", "r_dc", phys_raw["r_dc"]),
            delta_j=_to_float("physical", "delta_j", phys_raw["delta_j"]),
            delta_coh=_to_float("physical", "delta_coh", phys_raw["delta_coh"]),
            schmidt_d=_to_int("physical", "schmidt_d", phys_raw["schmidt_d"]),
            delta_delta=_to_float("physical", "delta_delta", phys_raw["delta_delta"]),
        )
    except DomainError as exc:
        raise ConfigError(f"[physical] invalid parameters: {exc}") from exc

    proto = values["protocol"]
    mode = proto["mode"]
    if mode not in (TWO_DECOY, SINGLE_DECOY):
        raise ConfigError(
            f"[protocol] mode: expected '{TWO_DECOY}' or '{SINGLE_DECOY}', "
            f"got {mode!r}"
        )
    mu = _to_float("protocol", "mu", proto["mu"])
    v1 = _to_float("protocol", "v1", proto["v1"]) if "v1" in proto else mu / 2.0
    p_mu, p_v1 = _parse_ratios(proto["ratios"], mode)
    try:
        if mode == TWO_DECOY:
            v2 = _to_float("protocol", "v2", proto["v2"]) if "v2" in proto else v1 / 10.0
            intensities = IntensityConfig.two_decoy(mu, v1, v2, p_mu, p_v1)
        else:
            if "v2" in proto:
                raise ConfigError("[protocol] v2: not allowed in single-decoy mode")
            intensities = IntensityConfig.single_decoy(mu, v1, p_mu, p_v1)
    except DomainError as exc:
        raise ConfigError(f"[protocol] invalid intensities: {exc}") from exc

    n_raw = proto["n_pulses"].lower()
    n_pulses = math.inf if n_raw in ("inf", "infinity") else _to_float(
        "protocol", "n_pulses", n_raw
    )

    eps = values["epsilons"]
    try:
        budget = EpsilonBudget(
            eps_pe=_to_float("epsilons", "eps_pe", eps["eps_pe"]),
            eps_ec=_to_float("epsilons", "eps_ec", eps["eps_ec"]),
            eps_bar=_to_float("epsilons", "eps_bar", eps["eps_bar"]),
            eps_pa=_to_float("epsilons", "eps_pa", eps["eps_pa"]),
        )
    except DomainError as exc:
        raise ConfigError(f"[epsilons] invalid budget: {exc}") from exc

    sec = values["security_model"]
    model_kind = sec["model"]
    if model_kind == "table":
        table_path = sec.get("table")
        try:
            if table_path is None:
                model: SecurityModel = load_pinned_table()
                ref = "table:pinned"
            else:
                model = TableSecurityModel.from_file(table_path)
                ref = f"table:{table_path}"
        except OSError as exc:
            raise ConfigError(
                f"[security_model] table: cannot read {table_path!r}: {exc}"
            ) from exc
        except SecurityModelError as exc:
            raise ConfigError(f"[security_model] table: {exc}") from exc
    elif model_kind == "gaussian":
        if "table" in sec:
            raise ConfigError(
                "[security_model] table: not allowed with model = gaussian"
            )
        model = GaussianSecurityModel()
        ref = "gaussian"
    else:
        raise ConfigError(
            f"[security_model] model: expected 'table' or 'gaussian', "
            f"got {model_kind!r}"
        )

    return Scenario(
        phys=phys,
        intensities=intensities,
        p_t=_to_float("protocol", "p_t", proto["p_t"]),
        budget=budget,
        method=proto["method"],
        n_pulses=n_pulses,
        beta=_to_float("protocol", "beta", proto["beta"]),
        delta_phi=_to_float("protocol", "delta_phi", proto["delta_phi"]),
        security_model=model,
        security_ref=ref,
        name=name,
    )


def parse_config(text: str, preset: str | None = None) -> Scenario:
    """Parse a configuration document, optionally on top of a preset.

    Precedence: package defaults, then the preset, then the document.
    Changing ``mu`` or ``mode`` in the document invalidates inherited
    decoy intensities (they fall back to the derived defaults), and a
    mode change without explicit ratios picks the mode's default ratios.
    """
    values = _DEFAULTS
    name = preset or "custom"
    if preset is not None:
        if preset not in PRESETS:
            raise ConfigError(
                f"unknown preset {preset!r} (available: {', '.join(preset_names())})"
            )
        values = _merge(values, PRESETS[preset])
    overrides = _parse_lines(text)
    proto_over = overrides.get("protocol", {})
    if proto_over:
        proto = dict(values["protocol"])
        if "mu" in proto_over or "mode" in proto_over:
            proto.pop("v1", None)
            proto.pop("v2", None)
        if "mode" in proto_over and "ratios" not in proto_over:
            proto["ratios"] = "7:2:1" if proto_over["mode"] == TWO_DECOY else "4:1"
        values = {**values, "protocol": proto}
    values = _merge(values, overrides)
    return build_scenario(values, name=name)
