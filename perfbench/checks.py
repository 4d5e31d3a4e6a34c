"""Output checks of the benchmark.

Each check returns a list of problems, empty when the output is right.
They test invariants rather than golden values, so a change that moves
the numbers on purpose still passes them.
"""
from __future__ import annotations

import math

#: Absolute tolerance of the closed-form/series agreement and of the
#: capacity identity, both sums of a few terms of order one.
ABS_TOL = 1e-12

#: Standard deviations allowed between a simulated rate and the closed form.
SIGMAS = 6.0


def check_row(row) -> list[str]:
    """Invariants of one result row."""
    where = f"at {row.length_km} km"
    problems = []
    if not 0.0 <= row.kmu_lb <= 1.0:
        problems.append(f"kmu_lb {row.kmu_lb!r} outside [0, 1] {where}")
    if row.positive != (row.delta_i > 0.0):
        problems.append(f"positive={row.positive} with delta_i={row.delta_i!r} {where}")
    if math.isfinite(row.delta_i):
        expected = row.r_hd - row.ec_term - row.pa_term - row.smooth_term
        if not abs(row.delta_i - expected) <= ABS_TOL:
            problems.append(
                f"delta_i {row.delta_i!r} != r_hd - ec - pa - smooth = {expected!r} {where}"
            )
    elif not (row.delta_i == -math.inf and row.r_hd == -math.inf):
        problems.append(f"no-key row carries delta_i={row.delta_i!r} r_hd={row.r_hd!r} {where}")
    return problems


def check_sweep(rows, l_min: float, l_max: float, step: float) -> list[str]:
    """Row invariants plus an ascending grid covering [l_min, l_max]."""
    problems = []
    lengths = [row.length_km for row in rows]
    expected = int(math.floor((l_max - l_min) / step + 1e-9)) + 1
    if len(lengths) != expected:
        problems.append(f"{len(lengths)} rows, expected {expected}")
    elif lengths[0] != l_min or abs(lengths[-1] - l_max) > 1e-9 * max(1.0, l_max):
        problems.append(f"grid spans {lengths[0]}..{lengths[-1]}, expected {l_min}..{l_max}")
    if any(b <= a for a, b in zip(lengths, lengths[1:])):
        problems.append("lengths do not ascend")
    for row in rows:
        problems += check_row(row)
    return problems


def check_max_distance(capacity, distance: float, tol_km: float, ceiling_km: float) -> list[str]:
    """The search result brackets the sign change of ``capacity(length)``."""
    if math.isinf(distance):
        if capacity(ceiling_km) > 0.0:
            return []
        return [f"reported inf but capacity is not positive at {ceiling_km} km"]
    if distance == 0.0:
        if capacity(0.0) <= 0.0:
            return []
        return ["reported 0 km but capacity is positive at 0 km"]
    problems = []
    below = max(distance - tol_km, 0.0)
    if not capacity(below) > 0.0:
        problems.append(f"capacity not positive at {below} km below the reported {distance} km")
    if not capacity(distance + tol_km) <= 0.0:
        problems.append(
            f"capacity still positive at {distance + tol_km} km above the reported {distance} km"
        )
    return problems


def check_postselection(closed: float, series: float, where: str) -> list[str]:
    if abs(closed - series) <= ABS_TOL:
        return []
    return [f"closed form {closed!r} != series {series!r} at {where}"]


def check_session(tally) -> list[str]:
    """Each role's empirical rate lies within SIGMAS of the closed form."""
    problems = []
    for role, _lam, _p in tally.config.intensities.roles():
        frames = tally.frames(role, "DD")
        p_closed = tally.config.analytic_postselection(role)
        sigma = math.sqrt(p_closed * (1.0 - p_closed) / frames)
        p_hat = tally.empirical_p(role)
        if not abs(p_hat - p_closed) <= SIGMAS * sigma:
            problems.append(
                f"role {role}: empirical {p_hat!r} vs closed form {p_closed!r} "
                f"(sigma {sigma:.3g}, {frames} frames)"
            )
    return problems


def check_coverage(fraction: float, eps: float, trials: int) -> list[str]:
    """Coverage at least 1 - eps minus SIGMAS binomial standard deviations."""
    floor = 1.0 - eps - SIGMAS * math.sqrt(eps * (1.0 - eps) / trials)
    if fraction >= floor:
        return []
    return [f"coverage {fraction} below {floor:.4f} ({trials} trials, eps {eps})"]
