import json

import numpy as np
import pytest


from stokesmg._exact import MAX_DENSE_DOFS
from stokesmg.operators import STRESS, div, grad, lap_pressure
from stokesmg.problems import BubbleSpec, bubble_coefficients, constant_coefficients
from stokesmg.schur import schur_diagonal
from stokesmg.spectrum import (
    SpectrumReport,
    analyze_stokes_spectrum,
    assemble_dense,
    schur_complement_matrix,
    sym_eigenvalues,
)

from conftest import NO_SLIP, PERIODIC, mkgrid


class TestAssembleDense:
    def test_identity_operator(self):
        g = mkgrid(4, bc=NO_SLIP)
        I = assemble_dense(lambda x: x, g)
        assert np.array_equal(I, np.eye(g.n_unknowns()))

    def test_divergence_on_2x2_periodic(self):
        # 4 cells x 8 faces; each row has two +1 and two -1 entries at h=1
        g = mkgrid(2, bc=PERIODIC)
        D = assemble_dense(lambda u: div(u), g, domain="face", codomain="cell")
        assert D.shape == (4, 8)
        for row in D:
            assert sorted(row.tolist()) == [-1.0, -1.0, 0.0, 0.0, 0.0, 0.0, 1.0, 1.0]

    def test_lap_equals_D_times_G(self):
        g = mkgrid(4, bc=NO_SLIP)
        D = assemble_dense(lambda u: div(u), g, domain="face", codomain="cell")
        G = assemble_dense(lambda p: grad(p), g, domain="cell", codomain="face")
        Lp = assemble_dense(lambda p: lap_pressure(p), g, domain="cell",
                            codomain="cell")
        assert np.array_equal(Lp, D @ G)

    def test_adjointness_as_matrices(self):
        g = mkgrid(4, bc=NO_SLIP)
        D = assemble_dense(lambda u: div(u), g, domain="face", codomain="cell")
        G = assemble_dense(lambda p: grad(p), g, domain="cell", codomain="face")
        assert np.abs(G + D.T).max() <= 1e-14

    def test_cap_enforced(self):
        g = mkgrid(256, bc=NO_SLIP)
        with pytest.raises(ValueError):
            assemble_dense(lambda x: x, g)

    def test_one_cap_for_every_space(self):
        # the exact subsolvers' cap counts the grid's Stokes unknowns, so a
        # cell-space operator on a grid past it is refused before any probe
        g = mkgrid(84, bc=NO_SLIP)
        assert g.n_cell_unknowns() <= MAX_DENSE_DOFS < g.n_unknowns()

        def probed(p):
            raise AssertionError("a column was probed")

        with pytest.raises(ValueError, match="capped"):
            assemble_dense(probed, g, domain="cell", codomain="cell")


class TestSymEigenvalues:
    def test_analytic_2x2(self):
        lam = sym_eigenvalues(np.array([[2.0, 1.0], [1.0, 2.0]]))
        assert np.allclose(lam, [1.0, 3.0], atol=1e-12)

    def test_diagonal_sorted(self):
        lam = sym_eigenvalues(np.diag([3.0, -1.0, 2.0]))
        assert np.allclose(lam, [-1.0, 2.0, 3.0])

    def test_trace_preserved(self, rng):
        A = rng.standard_normal((40, 40))
        A = 0.5 * (A + A.T)
        lam = sym_eigenvalues(A)
        assert lam.sum() == pytest.approx(np.trace(A), rel=1e-10, abs=1e-10)

    def test_nonsymmetric_rejected(self, rng):
        A = rng.standard_normal((6, 6))
        with pytest.raises(ValueError, match="symmetric"):
            sym_eigenvalues(A)
        with pytest.raises(ValueError):
            sym_eigenvalues(np.zeros((3, 4)))


class TestStokesSpectrum:
    def test_M_constant_viscosity_16(self):
        g = mkgrid(16, bc=NO_SLIP)
        coeff = constant_coefficients(g, viscous_form=STRESS)
        rep = analyze_stokes_spectrum(g, coeff, "M")
        assert rep.n_dof == 16 * 16 + 2 * 16 * 15 == 736
        assert rep.nonpositive_count == 16 * 16

    def test_S_positive_semidefinite(self):
        g = mkgrid(8, bc=NO_SLIP)
        coeff = constant_coefficients(g, viscous_form=STRESS)
        rep = analyze_stokes_spectrum(g, coeff, "S")
        assert rep.zero_multiplicity == 1
        assert rep.eigenvalues.min() >= -rep.tol_zero

    def test_precondS_constant_viscosity_16(self):
        g = mkgrid(16, bc=NO_SLIP)
        coeff = constant_coefficients(g, viscous_form=STRESS)
        rep = analyze_stokes_spectrum(g, coeff, "precondS")
        n = 16
        assert rep.zero_multiplicity == 1
        assert rep.non_unit_count <= 2 * (n - 1) + 2 * (n - 1)
        assert rep.min_nonzero > 0
        assert rep.max_nonzero <= 1.0 + 1e-8

    def test_bubble_contrast_100_16(self):
        # clustering degrades with contrast but stays bounded; the measured
        # near-unit fraction at this size and seed is ~0.35
        g = mkgrid(16, bc=NO_SLIP)
        coeff = bubble_coefficients(g, BubbleSpec(seed=0))
        rep = analyze_stokes_spectrum(g, coeff, "precondS")
        assert rep.zero_multiplicity == 1
        assert rep.frac_near_unit >= 0.30
        assert rep.min_nonzero > 0.05
        assert rep.max_nonzero < 2.0

    def test_unsteady_schur_analysis_rejected(self):
        g = mkgrid(8, bc=NO_SLIP)
        coeff = constant_coefficients(g, theta=1.0)
        with pytest.raises(ValueError, match="steady"):
            analyze_stokes_spectrum(g, coeff, "S")

    def test_unknown_analysis_rejected(self):
        g = mkgrid(8, bc=NO_SLIP)
        with pytest.raises(ValueError):
            analyze_stokes_spectrum(g, constant_coefficients(g), "Q")

    def test_spectrum_grid_cap(self):
        g = mkgrid(64, bc=NO_SLIP)
        with pytest.raises(ValueError, match="cap"):
            analyze_stokes_spectrum(g, constant_coefficients(g), "M")

    def test_similarity_with_power_method(self, rng):
        # brute-force check: dominant eigenvalue of V S (nonsymmetric form)
        # matches the largest eigenvalue of V^{1/2} S V^{1/2}
        g = mkgrid(8, bc=NO_SLIP)
        coeff = bubble_coefficients(g, BubbleSpec(seed=4, r_mu=10, r_rho=10))
        S = schur_complement_matrix(g, coeff)
        VS = schur_diagonal(coeff).ravel(order="F")[:, None] * S
        v = rng.standard_normal(VS.shape[0])
        lam_prev = 0.0
        for _ in range(4000):
            w = VS @ v
            lam = np.linalg.norm(w)
            v = w / lam
            if abs(lam - lam_prev) <= 1e-12 * lam:
                break
            lam_prev = lam
        rep = analyze_stokes_spectrum(g, coeff, "precondS")
        assert lam == pytest.approx(rep.max_nonzero, rel=1e-6)


class TestReport:
    def test_json_roundtrip(self):
        g = mkgrid(8, bc=NO_SLIP)
        rep = analyze_stokes_spectrum(g, constant_coefficients(g), "precondS")
        blob = json.loads(rep.to_json())
        assert blob["which"] == "precondS"
        assert blob["zero_multiplicity"] == 1
        assert len(blob["histogram_counts"]) == len(blob["histogram_edges"]) - 1
        assert blob["n_eigenvalues"] == len(blob["eigenvalues"])

    def test_counts_consistent(self):
        rep = SpectrumReport(which="test", n_dof=4,
                             eigenvalues=np.array([0.0, 1.0, 1.0, 0.5]),
                             tol_zero=1e-12, tol_unit=1e-8)
        assert rep.zero_multiplicity == 1
        assert rep.non_unit_count == 2  # the zero and the 0.5
        assert rep.min_nonzero == 0.5 and rep.max_nonzero == 1.0
