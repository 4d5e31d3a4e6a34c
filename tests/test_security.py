"""Security-model tests: table semantics and the Gaussian bound contract."""
from __future__ import annotations

import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hdqkd.errors import DomainError, SecurityModelError
from hdqkd.security import (
    PINNED_DIMENSIONS,
    PINNED_ZETA_GRID,
    GaussianSecurityModel,
    SecurityQuantities,
    TableSecurityModel,
    gaussian_entropy,
    load_pinned_table,
)

SMALL_TABLE = """
# d zeta_t zeta_w i_ab phi_ub
8 0.0 0.0 3.0 0.0
8 0.0 0.1 2.9 0.2
8 0.1 0.0 2.8 0.3
8 0.1 0.1 2.7 0.5
"""


class TestTableModel:
    def test_node_lookup_verbatim(self):
        table = TableSecurityModel.from_text(SMALL_TABLE)
        sq = table.quantities(8, 0.1, 0.1)
        assert sq.i_ab == 2.7
        assert sq.phi_ub == 0.5
        assert sq.i_r == 3.0

    def test_midpoint_linear_rule(self):
        table = TableSecurityModel.from_text(SMALL_TABLE)
        sq = table.quantities(8, 0.05, 0.05)
        # Bilinear interpolation at the cell center averages the corners.
        assert sq.i_ab == pytest.approx((3.0 + 2.9 + 2.8 + 2.7) / 4, rel=1e-12)
        assert sq.phi_ub == pytest.approx((0.0 + 0.2 + 0.3 + 0.5) / 4, rel=1e-12)

    def test_interpolation_along_one_axis(self):
        table = TableSecurityModel.from_text(SMALL_TABLE)
        sq = table.quantities(8, 0.0, 0.025)
        assert sq.phi_ub == pytest.approx(0.05, rel=1e-12)

    def test_out_of_hull_named(self):
        table = TableSecurityModel.from_text(SMALL_TABLE)
        with pytest.raises(SecurityModelError, match="zeta_t"):
            table.quantities(8, 0.2, 0.05)
        with pytest.raises(SecurityModelError, match="zeta_w"):
            table.quantities(8, 0.05, 0.2)

    def test_unknown_dimension(self):
        table = TableSecurityModel.from_text(SMALL_TABLE)
        with pytest.raises(SecurityModelError, match="d=16"):
            table.quantities(16, 0.05, 0.05)

    def test_duplicate_rejected(self):
        with pytest.raises(SecurityModelError, match="duplicate"):
            TableSecurityModel.from_text(SMALL_TABLE + "8 0.1 0.1 2.7 0.5\n")

    def test_incomplete_grid_rejected(self):
        bad = SMALL_TABLE + "8 0.2 0.0 2.0 1.0\n"
        with pytest.raises(SecurityModelError, match="rectangular"):
            TableSecurityModel.from_text(bad)

    def test_malformed_line(self):
        with pytest.raises(SecurityModelError, match="line"):
            TableSecurityModel.from_text("8 0.0 0.0 3.0\n")

    def test_negative_query_rejected(self):
        bad = [(-0.01, 0.0), (math.nan, 0.0), (0.0, math.nan)]
        for model in (TableSecurityModel.from_text(SMALL_TABLE), GaussianSecurityModel()):
            for args in bad:
                with pytest.raises(DomainError):
                    model.quantities(8, *args)
            for d in (math.nan, math.inf):
                with pytest.raises(DomainError):
                    model.quantities(d, 0.0, 0.0)

    @pytest.mark.parametrize("field", ["i_ab", "phi_ub", "i_r"])
    def test_nan_quantities_rejected(self, field):
        values = {"i_ab": 1.0, "phi_ub": 0.5, "i_r": 3.0, field: math.nan}
        with pytest.raises(DomainError, match=field):
            SecurityQuantities(**values)


class TestPinnedTable:
    def test_parsed_once_per_process(self):
        assert load_pinned_table() is load_pinned_table()

    def test_loads_and_covers_needed_range(self):
        table = load_pinned_table()
        assert table.dimensions() == [8, 32]
        for d in (8, 32):
            sq0 = table.quantities(d, 0.0, 0.0)
            assert sq0.phi_ub == 0.0
            assert sq0.i_ab == pytest.approx(math.log2(d), rel=1e-9)
            # The hull reaches the no-key cap.
            table.quantities(d, 1000.0, 1000.0)

    def test_monotone_along_grid_axes(self):
        table = load_pinned_table()
        for d in PINNED_DIMENSIONS:
            for w in (0.0, 0.1, 1.0):
                phis = [
                    table.quantities(d, t, w).phi_ub
                    for t in PINNED_ZETA_GRID
                ]
                assert all(b >= a - 1e-12 for a, b in zip(phis, phis[1:]))
                iabs = [
                    table.quantities(d, t, w).i_ab
                    for t in PINNED_ZETA_GRID
                ]
                assert all(b <= a + 1e-12 for a, b in zip(iabs, iabs[1:]))

    def test_matches_generator_model_on_nodes(self):
        table = load_pinned_table()
        model = GaussianSecurityModel()
        for d in PINNED_DIMENSIONS:
            for zt in PINNED_ZETA_GRID:
                for zw in PINNED_ZETA_GRID:
                    got = table.quantities(d, zt, zw)
                    want = model.quantities(d, zt, zw)
                    assert got.phi_ub == pytest.approx(want.phi_ub, rel=1e-10, abs=1e-12)
                    assert got.i_ab == pytest.approx(want.i_ab, rel=1e-10)

    def test_node_values_pinned(self):
        # sha256 of the 1568 node records at 12 significant digits, one
        # "d zeta_t zeta_w i_ab phi_ub" line each; any change to the
        # tabulated numbers shows here before it shows in a CSV.
        table = load_pinned_table()
        lines = []
        for d in PINNED_DIMENSIONS:
            for zt in PINNED_ZETA_GRID:
                for zw in PINNED_ZETA_GRID:
                    q = table.quantities(d, zt, zw)
                    lines.append(f"{d} {zt:.12g} {zw:.12g} {q.i_ab:.12g} {q.phi_ub:.12g}")
        assert len(lines) == 1568
        digest = hashlib.sha256(("\n".join(lines) + "\n").encode()).hexdigest()
        assert digest == "5b5dc61ce15cf90c701fdaaedb7c56077aa9d3f19e752a0fb16604972a2adf65"


def _spectral_oracle(d: int, zeta_t: float, zeta_w: float) -> tuple[float, float]:
    """Independently coded evaluation of the same Gaussian bound.

    Builds the full covariance matrix of the noise-injected state and
    extracts symplectic spectra numerically (eigenvalues of
    i*Omega*Gamma) instead of using the closed-form two-mode
    expressions; the conditional state is formed by an explicit Schur
    complement with a pseudoinverse.
    """
    nu = float(d)
    c0 = math.sqrt(nu * nu - 1.0)
    n_t = zeta_t * 2.0 * (nu - c0)
    n_w = zeta_w * 2.0 * (nu - c0)
    gamma = np.array(
        [
            [nu, 0.0, c0, 0.0],
            [0.0, nu, 0.0, -c0],
            [c0, 0.0, nu + n_t, 0.0],
            [0.0, -c0, 0.0, nu + n_w],
        ]
    )
    j = np.array([[0.0, 1.0], [-1.0, 0.0]])
    omega = np.block([[j, np.zeros((2, 2))], [np.zeros((2, 2)), j]])

    def symplectic(mat: np.ndarray) -> np.ndarray:
        omega_n = omega[: mat.shape[0], : mat.shape[0]]
        eig = np.linalg.eigvals(1j * omega_n @ mat)
        values = np.sort(np.abs(eig))
        return values[::2]  # each eigenvalue appears twice

    def entropy(values) -> float:
        return sum(gaussian_entropy(max(float(v), 1.0)) for v in values)

    joint = entropy(symplectic(gamma))
    # Condition the transmitted mode on a homodyne measurement of
    # Alice's timing quadrature.
    a = gamma[:2, :2]
    b = gamma[2:, 2:]
    c = gamma[:2, 2:]
    proj = np.array([[1.0, 0.0], [0.0, 0.0]])
    cond = b - c.T @ np.linalg.pinv(proj @ a @ proj) @ c
    conditional = entropy(symplectic(cond))
    phi = max(joint - conditional, 0.0)
    # Timing mutual information from the covariance sub-block.
    var_a = gamma[0, 0]
    var_a_given_b = var_a - gamma[0, 2] ** 2 / gamma[2, 2]
    i_ab = 0.5 * math.log2(var_a / var_a_given_b)
    return i_ab, phi


class TestGaussianModel:
    def test_contract_ranges(self):
        model = GaussianSecurityModel()
        for d in (2, 8, 32):
            for zeta in (0.0, 0.01, 0.1, 1.0, 100.0):
                sq = model.quantities(d, zeta, zeta)
                assert 0.0 <= sq.i_ab <= math.log2(d) + 1e-12
                assert sq.phi_ub >= 0.0
                assert sq.i_r == math.log2(d)

    def test_zero_noise_is_minimum(self):
        model = GaussianSecurityModel()
        base = model.quantities(8, 0.0, 0.0)
        assert base.phi_ub == 0.0
        assert base.i_ab == pytest.approx(3.0, rel=1e-12)
        assert model.quantities(8, 0.001, 0.001).phi_ub <= (
            model.quantities(8, 0.01, 0.01).phi_ub
        )

    @given(
        d=st.sampled_from([8, 32]),
        zeta=st.floats(0.0, 50.0),
        bump=st.floats(1e-6, 10.0),
    )
    @settings(max_examples=200)
    def test_monotone_in_each_noise_argument(self, d, zeta, bump):
        model = GaussianSecurityModel()
        base = model.quantities(d, zeta, zeta).phi_ub
        more_t = model.quantities(d, zeta + bump, zeta).phi_ub
        more_w = model.quantities(d, zeta, zeta + bump).phi_ub
        assert more_t >= base - 1e-10
        assert more_w >= base - 1e-10

    def test_domain_errors(self):
        model = GaussianSecurityModel()
        with pytest.raises(DomainError):
            model.quantities(1, 0.0, 0.0)
        with pytest.raises(DomainError):
            model.quantities(8, -0.1, 0.0)

    def test_against_independent_spectral_oracle(self):
        model = GaussianSecurityModel()
        points = [
            (8, 0.0851, 0.0851),
            (8, 0.01, 0.3),
            (8, 2.0, 2.0),
            (32, 0.0209, 0.0209),
            (32, 0.5, 0.1),
        ]
        for d, zt, zw in points:
            sq = model.quantities(d, zt, zw)
            i_ab, phi = _spectral_oracle(d, zt, zw)
            assert sq.i_ab == pytest.approx(i_ab, rel=1e-10)
            assert sq.phi_ub == pytest.approx(phi, rel=1e-8, abs=1e-10)
