"""Shared helpers for the test suite."""
from __future__ import annotations

import math
from dataclasses import replace

import pytest

from hdqkd.decoy import IntensityConfig, IntensityStats, expected_stats
from hdqkd.physics import (
    ChannelPoint,
    FrameParams,
    PhysicalParams,
    pair_yield,
    postselection_prob_closed,
)


def exact_stats(
    cfg: IntensityConfig,
    phys: PhysicalParams,
    frame: FrameParams,
    length_km: float,
    zeta: float | None = None,
    delta_phi: float = 0.0,
) -> dict[str, IntensityStats]:
    """Zero-fluctuation measured statistics from the analytic model.

    The model expectation at the channel of ``length_km``, with the
    frame's own excess noise unless ``zeta`` is given.
    """
    channel = ChannelPoint.from_length(phys.alpha, length_km)
    if zeta is not None:
        frame = replace(frame, zeta=zeta)
    return expected_stats(cfg, phys, frame, channel, delta_phi)


def true_quantities(
    cfg: IntensityConfig,
    phys: PhysicalParams,
    frame: FrameParams,
    length_km: float,
) -> tuple[float, float]:
    """(single-pair yield, single-pair fraction) of the honest channel."""
    channel = ChannelPoint.from_length(phys.alpha, length_km)
    gamma1 = pair_yield(1, phys.eta_alice, phys.eta_bob, channel.eta_t, frame.p_d)
    p_mu = postselection_prob_closed(
        cfg.mu, phys.eta_alice, phys.eta_bob, channel.eta_t, frame.p_d
    )
    kmu = cfg.mu * math.exp(-cfg.mu) * gamma1 / p_mu
    return gamma1, kmu


@pytest.fixture
def default_phys() -> PhysicalParams:
    return PhysicalParams()


@pytest.fixture
def default_frame(default_phys: PhysicalParams) -> FrameParams:
    return FrameParams.from_physical(default_phys)
