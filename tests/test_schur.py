import numpy as np
import pytest

from stokesmg.grid import CellField, norm2
from stokesmg.operators import (
    LAPLACIAN,
    STRESS,
    STRESS_BULK,
    lap_pressure,
    make_coefficients,
)
from stokesmg.problems import constant_coefficients
from stokesmg.schur import (
    MINUS,
    PLUS,
    SchurConfig,
    apply_schur_inv,
    exact_schur_apply,
)
from stokesmg._exact import DenseCellSolver, DenseFaceSolver

from conftest import PERIODIC, NO_SLIP, mkgrid, random_cell


class TestConfig:
    def test_defaults(self):
        cfg = SchurConfig()
        assert cfg.sign is MINUS and cfg.pressure_cycles == 1

    def test_validation(self):
        with pytest.raises(ValueError):
            SchurConfig(pressure_cycles=0)

    def test_sign_takes_its_type_at_construction(self):
        # a sign given by its value is its member, so "minus" runs the minus
        # sign; an unknown one is refused
        assert SchurConfig(sign="minus").sign is MINUS
        assert SchurConfig(sign="plus").sign is PLUS
        with pytest.raises(ValueError):
            SchurConfig(sign="negative")


class TestDiagonalScalings:
    def test_stress_double_viscosity(self, rng):
        g = mkgrid(8, bc=PERIODIC)
        coeff = constant_coefficients(g, mu0=3.0, viscous_form=STRESS)
        r = random_cell(g, rng)
        out = apply_schur_inv(r, coeff)
        assert np.array_equal(out.data, 6.0 * r.data)

    def test_bulk_combination(self, rng):
        g = mkgrid(8, bc=PERIODIC)
        coeff = constant_coefficients(g, mu0=3.0, gamma0=1.0,
                                      viscous_form=STRESS_BULK)
        r = random_cell(g, rng)
        out = apply_schur_inv(r, coeff)
        assert np.allclose(out.data, 5.0 * r.data)

    def test_laplacian_plain_viscosity(self, rng):
        g = mkgrid(8, bc=PERIODIC)
        coeff = constant_coefficients(g, mu0=3.0, viscous_form=LAPLACIAN)
        r = random_cell(g, rng)
        out = apply_schur_inv(r, coeff)
        assert np.array_equal(out.data, 3.0 * r.data)

    def test_variable_viscosity_uses_cell_values(self, rng):
        g = mkgrid(8, bc=NO_SLIP)
        mu = CellField(g, 1.0 + rng.random(g.cells))
        coeff = make_coefficients(g, 0.0, CellField(g, np.ones(g.cells)), mu)
        r = random_cell(g, rng)
        out = apply_schur_inv(r, coeff)
        assert np.allclose(out.data, 2.0 * mu.data * r.data)

    def test_unsteady_requires_pressure_solver(self, rng):
        g = mkgrid(8, bc=PERIODIC)
        coeff = constant_coefficients(g, theta=1.0)
        with pytest.raises(ValueError):
            apply_schur_inv(random_cell(g, rng), coeff)


class TestInviscid:
    def test_single_fourier_mode_scaled_by_eigenvalue(self):
        # theta=1, mu=0, rho=1, periodic: the approximation is
        # -Lp^{-1}, so a Fourier mode comes back divided by |lambda_k|
        n, h = 8, 1.0
        g = mkgrid(n, bc=PERIODIC, h=h)
        coeff = constant_coefficients(g, mu0=0.0, theta=1.0)
        solver = DenseCellSolver(g, coeff)
        kx, ky = 2 * np.pi * 1 / n, 2 * np.pi * 3 / n
        X, Y = np.meshgrid((np.arange(n) + 0.5) * h, (np.arange(n) + 0.5) * h,
                           indexing="ij")
        mode = CellField(g, np.cos(kx * X + ky * Y))
        # eigenvalue of the 5-point staggered Laplacian for this mode
        lam = -(4 / h**2) * (np.sin(kx * h / 2) ** 2 + np.sin(ky * h / 2) ** 2)
        # sanity: mode is an eigenvector of the implementation Laplacian
        assert norm2(lap_pressure(mode) - lam * mode) <= 1e-12 * abs(lam) * norm2(mode)
        out = apply_schur_inv(mode, coeff, solver.solve)
        assert norm2(out - (1.0 / abs(lam)) * mode) <= 1e-10 * norm2(mode) / abs(lam)

    def test_exact_schur_is_scaled_laplacian(self, rng):
        # A = theta*rho0 diagonal: S p = -Lp p / (theta rho0) exactly
        g = mkgrid(8, bc=NO_SLIP)
        theta, rho0 = 2.0, 4.0
        coeff = constant_coefficients(g, mu0=0.0, rho0=rho0, theta=theta)
        p = random_cell(g, rng, mean_zero=True)
        got = exact_schur_apply(p, coeff)
        want = (-1.0 / (theta * rho0)) * lap_pressure(p)
        assert norm2(got - want) <= 1e-12 * norm2(want)


class TestExactApply:
    @pytest.mark.parametrize("form,mu0,gamma0,scale", [
        (STRESS, 3.0, 0.0, 6.0),
        (LAPLACIAN, 3.0, 0.0, 3.0),
        (STRESS_BULK, 3.0, 1.0, 5.0),
    ])
    def test_periodic_constant_inverse_scaling(self, form, mu0, gamma0, scale, rng):
        g = mkgrid(8, bc=PERIODIC)
        coeff = constant_coefficients(g, mu0=mu0, gamma0=gamma0, viscous_form=form)
        p = random_cell(g, rng, mean_zero=True)
        out = exact_schur_apply(p, coeff)
        assert norm2(out - (1.0 / scale) * p) <= 1e-10 * norm2(p) / scale

    def test_linearity(self, rng):
        g = mkgrid(8, bc=NO_SLIP)
        coeff = constant_coefficients(g, mu0=2.0)
        solver = DenseFaceSolver(g, coeff)
        p1, p2 = random_cell(g, rng), random_cell(g, rng)
        lhs = exact_schur_apply(
            CellField(g, 1.5 * p1.data - 0.5 * p2.data), coeff, solver)
        rhs = CellField(
            g,
            1.5 * exact_schur_apply(p1, coeff, solver).data
            - 0.5 * exact_schur_apply(p2, coeff, solver).data,
        )
        assert norm2(lhs - rhs) <= 1e-12 * max(norm2(rhs), 1e-30)


class TestCompositionExactness:
    @pytest.mark.parametrize("theta", [0.0, 2.0])
    @pytest.mark.parametrize("form,mu0,gamma0", [
        (STRESS, 3.0, 0.0), (LAPLACIAN, 1.5, 0.0), (STRESS_BULK, 3.0, 1.0)])
    def test_periodic_constant_roundtrip(self, theta, form, mu0, gamma0, rng):
        # apply_schur_inv o exact_schur_apply = identity on mean-zero p
        g = mkgrid(8, bc=PERIODIC)
        coeff = constant_coefficients(g, mu0=mu0, gamma0=gamma0, theta=theta,
                                      viscous_form=form)
        p = random_cell(g, rng, mean_zero=True)
        s = exact_schur_apply(p, coeff)
        solver = DenseCellSolver(g, coeff) if theta > 0 else None
        back = apply_schur_inv(s, coeff, solver.solve if solver else None)
        assert norm2(back - p) <= 1e-10 * norm2(p)

    def test_linearity_of_inexact_inverse(self, rng):
        from stokesmg.multigrid import SmootherParams, build_hierarchy, mg_solve

        g = mkgrid(16, bc=NO_SLIP)
        coeff = constant_coefficients(g, theta=1.0)
        hier = build_hierarchy(g, coeff)
        params = SmootherParams()
        solve = lambda b: mg_solve(b, hier, params, 1)
        p1, p2 = random_cell(g, rng), random_cell(g, rng)
        lhs = apply_schur_inv(CellField(g, 2.0 * p1.data + 3.0 * p2.data),
                              coeff, solve)
        rhs = CellField(g, 2.0 * apply_schur_inv(p1, coeff, solve).data
                        + 3.0 * apply_schur_inv(p2, coeff, solve).data)
        assert norm2(lhs - rhs) <= 1e-12 * max(norm2(rhs), 1.0)
