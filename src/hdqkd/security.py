"""Pluggable security models supplying I(A;B) and the Holevo bound.

Two implementations ship.  The Gaussian model evaluates a
collective-attack Holevo bound on a two-mode Gaussian time-frequency
state whose entanglement is set by the Schmidt number and whose
correlations are degraded by the excess-noise factors; it is validated
by contract (ranges, monotonicity) and by an independently coded
spectral oracle.  The table model interpolates a deterministic grid and
is what reproducible sweeps and the acceptance suite use.  The pinned
table is the Gaussian model tabulated on a fixed grid, built once per
process and shared (:func:`load_pinned_table`); a user's table is read
from a text file.
"""
from __future__ import annotations

import bisect
import functools
import math
from dataclasses import dataclass
from typing import Iterable, Protocol

from .errors import DomainError, SecurityModelError

__all__ = [
    "SecurityQuantities",
    "SecurityModel",
    "TableSecurityModel",
    "GaussianSecurityModel",
    "gaussian_entropy",
    "load_pinned_table",
    "PINNED_DIMENSIONS",
    "PINNED_ZETA_GRID",
]

#: Dimensions and noise-factor nodes of the pinned table.  The grid is
#: dense where sweeps actually land (noise factors below ~1) and coarse
#: toward the no-key cap at 1e3.
PINNED_DIMENSIONS = (8, 32)
PINNED_ZETA_GRID = (
    0.0, 0.005, 0.01, 0.02, 0.03, 0.05, 0.07, 0.1, 0.15, 0.2, 0.3, 0.5,
    0.7, 1.0, 1.5, 2.0, 3.0, 5.0, 7.0, 10.0, 15.0, 20.0, 30.0, 50.0,
    100.0, 200.0, 500.0, 1000.0,
)


@dataclass(frozen=True)
class SecurityQuantities:
    """Information quantities entering the key-rate formula.

    ``i_ab`` is the mutual information per coincidence, ``phi_ub`` the
    upper bound on the eavesdropper's Holevo information and ``i_r`` the
    number of shared random bits per coincidence (log2 of the alphabet
    dimension).
    """

    i_ab: float
    phi_ub: float
    i_r: float

    def __post_init__(self) -> None:
        if not self.i_ab >= 0.0:
            raise DomainError(f"i_ab must be >= 0, got {self.i_ab}")
        if not self.phi_ub >= 0.0:
            raise DomainError(f"phi_ub must be >= 0, got {self.phi_ub}")
        if not self.i_r >= 0.0:
            raise DomainError(f"i_r must be >= 0, got {self.i_r}")


class SecurityModel(Protocol):
    """Anything that can evaluate the security quantities.

    A query is the Schmidt number and the two excess-noise factors
    ``(d, zeta_t, zeta_w)``; the bound depends on nothing else.
    """

    def quantities(
        self, d: int, zeta_t: float, zeta_w: float
    ) -> SecurityQuantities: ...


def gaussian_entropy(nu: float) -> float:
    """Entropy (bits) of a thermal mode with symplectic eigenvalue ``nu``."""
    if nu <= 1.0:
        return 0.0
    a = (nu + 1.0) / 2.0
    b = (nu - 1.0) / 2.0
    return a * math.log2(a) - b * math.log2(b)


def _validate_query(d: int, zeta_t: float, zeta_w: float) -> None:
    if not 2 <= d < math.inf or int(d) != d:
        raise DomainError(f"dimension must be an integer >= 2, got {d}")
    if not (0.0 <= zeta_t < math.inf and 0.0 <= zeta_w < math.inf):
        name = "zeta_w" if 0.0 <= zeta_t < math.inf else "zeta_t"
        raise DomainError(
            f"excess-noise factor {name} must be finite and >= 0, "
            f"got ({zeta_t}, {zeta_w})"
        )


def _gaussian_bound(d: int, zeta_t: float, zeta_w: float) -> tuple[float, float]:
    """``(i_ab, phi_ub)`` of the Gaussian model; arguments unchecked."""
    nu = float(d)
    nu2 = nu * nu
    c0sq = nu2 - 1.0
    # Injected noise in units where u = nu * n_t; the correlated
    # combination's base variance is 2 (nu - sqrt(nu^2 - 1)).
    scale = 2.0 * nu * (nu - math.sqrt(c0sq))
    u = zeta_t * scale
    v = zeta_w * scale
    # Symplectic invariants of the noisy state; the discriminant is
    # regrouped into nonnegative terms so pure-state corners do not
    # suffer cancellation.
    delta = 2.0 + u + v + u * v / nu2
    det = (1.0 + u) * (1.0 + v)
    disc_sq = nu2 * nu2 * (u - v) ** 2 + u * v * (
        u * v + 4.0 * nu2 + 2.0 * nu2 * (u + v)
    )
    disc = math.sqrt(disc_sq) / nu2
    nu_plus = math.sqrt(max((delta + disc) / 2.0, 1.0))
    nu_minus = max(math.sqrt(det) / nu_plus, 1.0)
    # Conditional state of the transmitted mode after a timing
    # homodyne on Alice's side.
    nu_cond = math.sqrt(max((1.0 + u) * (nu2 + v), 1.0)) / nu
    phi_ub = max(
        gaussian_entropy(nu_plus)
        + gaussian_entropy(nu_minus)
        - gaussian_entropy(nu_cond),
        0.0,
    )
    i_ab = 0.5 * math.log2((nu2 + u) / (1.0 + u))
    return i_ab, phi_ub


class GaussianSecurityModel:
    """Collective-attack bound on a Gaussian time-frequency state.

    The biphoton is modelled as a two-mode squeezed Gaussian state whose
    symplectic eigenvalue equals the Schmidt number ``d`` (so the ideal
    timing measurement extracts exactly ``log2 d`` bits).  The channel
    injects independent Gaussian noise into the transmitted mode's
    timing and frequency quadratures, scaled so the variance of the
    correlated combination grows by ``1 + zeta``; Alice's marginal is
    untouched.  The Holevo bound is the entropy of the joint state minus
    the entropy conditioned on the timing measurement, each from
    symplectic eigenvalues.  The absolute time scales cancel in these
    dimensionless quantities, and the bound is nondecreasing in each
    noise factor.
    """

    def quantities(self, d: int, zeta_t: float, zeta_w: float) -> SecurityQuantities:
        _validate_query(d, zeta_t, zeta_w)
        i_ab, phi_ub = _gaussian_bound(d, zeta_t, zeta_w)
        return SecurityQuantities(i_ab=i_ab, phi_ub=phi_ub, i_r=math.log2(d))


class TableSecurityModel:
    """Deterministic security quantities interpolated from a grid.

    The file format is one ``d zeta_t zeta_w i_ab phi_ub`` record per
    line, whitespace-separated, with ``#`` comments; every value must be
    finite, and ``i_ab`` and ``phi_ub`` must be >= 0, so no interpolant
    falls below 0 either.  Each dimension must carry a complete
    rectangular (zeta_t, zeta_w) grid; duplicates are rejected.  Queries
    interpolate bilinearly in the noise factors, return grid values
    verbatim on the nodes, and refuse extrapolation.
    """

    def __init__(self, rows: Iterable[tuple[int, float, float, float, float]]):
        entries: dict[int, dict[tuple[float, float], tuple[float, float]]] = {}
        for d, zeta_t, zeta_w, i_ab, phi_ub in rows:
            per_d = entries.setdefault(int(d), {})
            key = (float(zeta_t), float(zeta_w))
            if key in per_d:
                raise SecurityModelError(
                    f"duplicate grid point d={d} zeta_t={zeta_t} zeta_w={zeta_w}"
                )
            per_d[key] = (float(i_ab), float(phi_ub))
        if not entries:
            raise SecurityModelError("security table is empty")
        self._grids: dict[int, tuple[list[float], list[float], dict]] = {}
        for d, per_d in entries.items():
            ts = sorted({t for t, _ in per_d})
            ws = sorted({w for _, w in per_d})
            if len(per_d) != len(ts) * len(ws):
                raise SecurityModelError(
                    f"security table for d={d} is not a complete rectangular "
                    f"grid ({len(per_d)} entries for {len(ts)}x{len(ws)} nodes)"
                )
            self._grids[d] = (ts, ws, per_d)

    @classmethod
    def from_text(cls, text: str) -> "TableSecurityModel":
        rows = []
        for lineno, raw in enumerate(text.splitlines(), start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            fields = line.split()
            if len(fields) != 5:
                raise SecurityModelError(
                    f"line {lineno}: expected 'd zeta_t zeta_w i_ab phi_ub', "
                    f"got {len(fields)} fields"
                )
            try:
                d = int(fields[0])
                values = [float(f) for f in fields[1:]]
            except ValueError as exc:
                raise SecurityModelError(f"line {lineno}: {exc}") from exc
            for name, value in zip(("zeta_t", "zeta_w", "i_ab", "phi_ub"), values):
                if not math.isfinite(value):
                    raise SecurityModelError(
                        f"line {lineno}: {name} must be finite, got {value}"
                    )
                if name in ("i_ab", "phi_ub") and value < 0.0:
                    raise SecurityModelError(
                        f"line {lineno}: {name} must be >= 0, got {value}"
                    )
            rows.append((d, values[0], values[1], values[2], values[3]))
        return cls(rows)

    @classmethod
    def from_file(cls, path: str) -> "TableSecurityModel":
        with open(path, "r", encoding="utf-8") as handle:
            return cls.from_text(handle.read())

    def dimensions(self) -> list[int]:
        return sorted(self._grids)

    @staticmethod
    def _bracket(grid: list[float], value: float, name: str) -> tuple[int, int, float]:
        if value < grid[0] or value > grid[-1]:
            raise SecurityModelError(
                f"{name}={value:.6g} outside the table hull "
                f"[{grid[0]:.6g}, {grid[-1]:.6g}]"
            )
        hi = bisect.bisect_left(grid, value)
        if hi < len(grid) and grid[hi] == value:
            return hi, hi, 0.0
        lo = hi - 1
        frac = (value - grid[lo]) / (grid[hi] - grid[lo])
        return lo, hi, frac

    def quantities(self, d: int, zeta_t: float, zeta_w: float) -> SecurityQuantities:
        _validate_query(d, zeta_t, zeta_w)
        if d not in self._grids:
            raise SecurityModelError(
                f"dimension d={d} not tabulated (available: {self.dimensions()})"
            )
        ts, ws, per_d = self._grids[d]
        t_lo, t_hi, ft = self._bracket(ts, zeta_t, "zeta_t")
        w_lo, w_hi, fw = self._bracket(ws, zeta_w, "zeta_w")

        def value(field: int) -> float:
            e00 = per_d[(ts[t_lo], ws[w_lo])][field]
            e10 = per_d[(ts[t_hi], ws[w_lo])][field]
            e01 = per_d[(ts[t_lo], ws[w_hi])][field]
            e11 = per_d[(ts[t_hi], ws[w_hi])][field]
            low = e00 + ft * (e10 - e00)
            high = e01 + ft * (e11 - e01)
            return low + fw * (high - low)

        return SecurityQuantities(i_ab=value(0), phi_ub=value(1), i_r=math.log2(d))


@functools.cache
def load_pinned_table() -> TableSecurityModel:
    """The Gaussian model tabulated on the pinned grid.

    Evaluates the bound of :class:`GaussianSecurityModel` at every node
    of ``PINNED_DIMENSIONS x PINNED_ZETA_GRID x PINNED_ZETA_GRID``
    (without per-node query checks, which the constant grid passes and
    which would only add set-up time) and rounds ``i_ab`` and
    ``phi_ub`` to 12 significant digits.  The
    rounding is part of the pinned numbers: every golden ``model =
    table`` CSV matches with it and none matches without it.

    The table is built once per process and the one model is shared by
    every caller; nothing mutates it.  ``TableSecurityModel.from_file``
    is not cached, since a user's file may change.
    """
    def digits12(x: float) -> float:
        return float(f"{x:.12g}")

    rows = []
    for d in PINNED_DIMENSIONS:
        for zeta_t in PINNED_ZETA_GRID:
            for zeta_w in PINNED_ZETA_GRID:
                i_ab, phi_ub = _gaussian_bound(d, zeta_t, zeta_w)
                rows.append((d, zeta_t, zeta_w, digits12(i_ab), digits12(phi_ub)))
    return TableSecurityModel(rows)
