import math

import numpy as np
import pytest

from stokesmg.grid import StokesVector, norm2
from stokesmg.operators import STRESS, apply_M
from stokesmg.problems import (
    BubbleSpec,
    CflSpec,
    bubble_coefficients,
    bubble_density,
    bubble_profile,
    cfl_to_theta,
    constant_coefficients,
    make_rhs,
    project_nulls,
)

from conftest import NO_SLIP, PERIODIC, mkgrid


class TestBubbleProfile:
    def test_interface_value(self):
        # tanh(0) = 0: f = (r+1)/2 = 50.5 on the interface, noise off
        g = mkgrid(32, bc=NO_SLIP)
        spec = BubbleSpec(noise_amp=0.0)
        prof = bubble_profile(g, 100.0, spec, None)
        L = 32.0
        # cells straddling the circle x = center + radius along the midline
        X, Y = g.cell_centers()
        d = np.sqrt((X - L / 2) ** 2 + (Y - L / 2) ** 2) - L / 4
        nearest = np.unravel_index(np.argmin(np.abs(d)), d.shape)
        assert prof[nearest] == pytest.approx(
            50.5 + 49.5 * math.tanh(d[nearest] / g.h), rel=1e-12)

    def test_far_field_reaches_contrast(self):
        g = mkgrid(32, bc=NO_SLIP)
        spec = BubbleSpec(noise_amp=0.0)
        prof = bubble_profile(g, 100.0, spec, None)
        assert prof[0, 0] == pytest.approx(100.0, abs=1e-6)  # corner, far outside

    def test_center_is_embedded_phase(self):
        g = mkgrid(32, bc=NO_SLIP)
        spec = BubbleSpec(noise_amp=0.0)
        prof = bubble_profile(g, 100.0, spec, None)
        assert prof[16, 16] == pytest.approx(1.0, abs=1e-3)

    def test_flip_orientation(self):
        g = mkgrid(32, bc=NO_SLIP)
        spec = BubbleSpec(noise_amp=0.0, positive_outside=False)
        prof = bubble_profile(g, 100.0, spec, None)
        assert prof[16, 16] == pytest.approx(100.0, rel=1e-3)
        assert prof[0, 0] == pytest.approx(1.0, abs=1e-6)

    def test_contrast_one_is_unity(self):
        g = mkgrid(16, bc=NO_SLIP)
        prof = bubble_profile(g, 1.0, BubbleSpec(noise_amp=0.0), None)
        assert np.all(prof == 1.0)

    def test_bounds_with_and_without_noise(self):
        g = mkgrid(32, bc=NO_SLIP)
        prof = bubble_profile(g, 100.0, BubbleSpec(noise_amp=0.0), None)
        assert prof.min() >= 1.0 - 1e-9
        assert prof.max() <= 100.0 + 1e-9
        coeff = bubble_coefficients(g, BubbleSpec(seed=0))
        assert coeff.mu_cell.data.min() > 1.0  # noise only adds
        assert bubble_density(g, BubbleSpec(seed=0)).data.min() > 1.0

    def test_validation(self):
        with pytest.raises(ValueError):
            BubbleSpec(r_mu=0.5)
        with pytest.raises(ValueError):
            BubbleSpec(epsilon=0.0)

    @pytest.mark.parametrize("seed", [1.5, True, -1, "1"])
    def test_non_count_seed_refused(self, seed):
        # int(seed) would draw seed 1's stream for 1.5 and True
        with pytest.raises(ValueError, match="seed"):
            BubbleSpec(seed=seed)


class TestBubbleCoefficients:
    def test_deterministic_per_seed(self):
        g = mkgrid(16, bc=NO_SLIP)
        a = bubble_coefficients(g, BubbleSpec(seed=7))
        b = bubble_coefficients(g, BubbleSpec(seed=7))
        assert np.array_equal(a.mu_cell.data, b.mu_cell.data)
        for fa, fb in zip(a.rho_face.components, b.rho_face.components):
            assert np.array_equal(fa, fb)
        c = bubble_coefficients(g, BubbleSpec(seed=8))
        assert not np.array_equal(a.mu_cell.data, c.mu_cell.data)

    def test_independent_noise_streams(self):
        g = mkgrid(16, bc=NO_SLIP)
        coeff = bubble_coefficients(g, BubbleSpec(seed=7))
        # same tanh part, different noise: fields must differ (the set's
        # density is the one bubble_density draws)
        rho = bubble_density(g, BubbleSpec(seed=7))
        assert not np.array_equal(coeff.mu_cell.data, rho.data)

    def test_theta_and_form_passthrough(self):
        g = mkgrid(16, bc=NO_SLIP)
        coeff = bubble_coefficients(g, BubbleSpec(seed=1), theta=2.5)
        assert coeff.theta == 2.5 and coeff.viscous_form is STRESS


class TestConstantCoefficients:
    def test_uniform_fields_and_averages(self):
        g = mkgrid(8, bc=NO_SLIP)
        coeff = constant_coefficients(g, mu0=3.0, rho0=2.0, theta=0.5)
        assert np.all(coeff.mu_cell.data == 3.0)
        for a in range(2):
            assert np.all(coeff.rho_face.components[a] == 2.0)
        assert np.all(coeff.mu_node_edge.plane(0, 1) == 3.0)


class TestCfl:
    def test_formula_arithmetic(self):
        # mu0=2, rho0=4, h=0.5, theta=8 -> beta = 2/(8*4*0.25) = 0.25
        beta = 2.0 / (8.0 * 4.0 * 0.25)
        assert beta == 0.25
        assert cfl_to_theta(CflSpec(beta), 2.0, 4.0, 0.5) == pytest.approx(8.0)

    def test_steady_limit(self):
        assert cfl_to_theta(CflSpec(math.inf), 1.0, 1.0, 1.0) == 0.0

    def test_unit_case(self):
        assert cfl_to_theta(CflSpec(1.0), 1.0, 1.0, 1.0) == 1.0

    def test_inviscid_flag(self):
        spec = CflSpec(0.0)
        assert spec.inviscid and not spec.steady
        assert cfl_to_theta(spec, 1.0, 1.0, 1.0) == 1.0  # unit time step

    @pytest.mark.parametrize("beta", [-1.0, math.nan])
    def test_negative_rejected(self, beta):
        with pytest.raises(ValueError):
            CflSpec(beta)


class TestMakeRhs:
    def test_rhs_is_M_of_solution(self):
        g = mkgrid(16, bc=NO_SLIP)
        coeff = constant_coefficients(g)
        rhs, x = make_rhs(g, coeff, seed=3)
        assert norm2(rhs - apply_M(x, coeff)) == 0.0

    def test_same_seed_bit_identical(self):
        g = mkgrid(16, bc=NO_SLIP)
        coeff = constant_coefficients(g)
        r1, x1 = make_rhs(g, coeff, seed=5)
        r2, x2 = make_rhs(g, coeff, seed=5)
        assert norm2(r1 - r2) == 0.0 and norm2(x1 - x2) == 0.0

    @pytest.mark.parametrize("seed", [1.5, True, -1, "1"])
    def test_non_count_seed_refused(self, seed):
        g = mkgrid(8, bc=NO_SLIP)
        with pytest.raises(ValueError, match="seed"):
            make_rhs(g, constant_coefficients(g), seed=seed)

    def test_solution_respects_null_spaces(self):
        g = mkgrid(16, bc=PERIODIC)
        coeff = constant_coefficients(g, theta=0.0)
        rhs, x = make_rhs(g, coeff, seed=4)
        assert abs(x.p.data.mean()) < 1e-14
        for a in range(2):
            assert abs(x.u.interior(a).mean()) < 1e-14

    def test_constant_solution_projected_to_zero(self):
        g = mkgrid(8, bc=PERIODIC)
        coeff = constant_coefficients(g, theta=0.0)
        x = StokesVector.zeros(g)
        for a in range(2):
            x.u.components[a][...] = 4.0
        x.p.data[...] = 7.0
        assert norm2(project_nulls(x, coeff)) <= 1e-13

    def test_roundtrip_solve_recovers_solution(self):
        from stokesmg.krylov import GmresConfig, gmres_solve
        from stokesmg.precond import P2, PrecondConfig

        g = mkgrid(32, bc=NO_SLIP)
        coeff = bubble_coefficients(g, BubbleSpec(seed=41))
        rhs, x_exact = make_rhs(g, coeff, seed=42)
        x, hist = gmres_solve(rhs, coeff, PrecondConfig(kind=P2),
                              GmresConfig(rtol=1e-12, max_iters=150))
        assert hist.converged
        x = project_nulls(x, coeff)
        x_ref = project_nulls(x_exact, coeff)
        assert norm2(x - x_ref) <= 1e-8 * norm2(x_ref)
