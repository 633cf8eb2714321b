import dataclasses

import numpy as np
import pytest

from stokesmg.grid import (
    FREE_SLIP,
    NO_SLIP,
    PERIODIC,
    CellField,
    FaceField,
    StokesVector,
    dot,
    norm2,
)
from stokesmg.operators import (
    LAPLACIAN,
    STRESS,
    STRESS_BULK,
    BoundaryValues,
    CoefficientSet,
    apply_A,
    apply_Lrho,
    apply_M,
    apply_viscous,
    average_cell_to_faces,
    average_cell_to_node_edge,
    boundary_lift,
    div,
    grad,
    helmholtz_diagonal,
    homogenize,
    lap_pressure,
    lrho_diagonal,
    make_coefficients,
    rescale,
    velocity_null_components,
)

import reference
from conftest import (
    MIXED_WALLS,
    divergence_free_face,
    mkgrid,
    random_cell,
    random_face,
    random_stokes,
)

ALL_FORMS = [LAPLACIAN, STRESS, STRESS_BULK]


def make_variable_coeff(grid, rng, theta=0.7, form=STRESS):
    mu = CellField(grid, 1.0 + rng.random(grid.cells))
    rho = CellField(grid, 1.0 + rng.random(grid.cells))
    gamma = CellField(grid, rng.random(grid.cells))
    return make_coefficients(grid, theta, rho, mu, gamma, form)


class TestDivGrad:
    def test_div_constant_is_zero(self):
        g = mkgrid(8, bc=PERIODIC)
        u = FaceField(g, tuple(np.full(g.face_shape(a), 4.2) for a in range(2)))
        assert np.abs(div(u).data).max() == 0.0

    def test_div_stencil_arithmetic(self):
        # one cell with u+=3, u-=1, v+=v-=2 at h=0.5 gives (3-1)/0.5 = 4
        g = mkgrid(4, bc=NO_SLIP, h=0.5)
        u = FaceField.zeros(g)
        u.components[0][2, 1] = 3.0
        u.components[0][1, 1] = 1.0
        u.components[1][1, 1] = 2.0
        u.components[1][1, 2] = 2.0
        assert div(u).data[1, 1] == pytest.approx(4.0)

    def test_div_of_grad_constant(self):
        g = mkgrid(8, bc=NO_SLIP)
        p = CellField(g, np.full(g.cells, 3.0))
        assert np.abs(div(grad(p)).data).max() == 0.0

    def test_grad_stencil_arithmetic(self):
        g = mkgrid(4, bc=NO_SLIP)
        p = CellField.zeros(g)
        p.data[0, 1] = 2.0
        p.data[1, 1] = 5.0
        assert grad(p).components[0][1, 1] == pytest.approx(3.0)

    def test_grad_periodic_two_cells_wraps(self):
        # 1D pattern {0, 1} along x: interior face +1, wrap face -1
        g = mkgrid(2, bc=PERIODIC)
        p = CellField(g, np.array([[0.0, 0.0], [1.0, 1.0]]))
        gx = grad(p).components[0]
        assert np.all(gx[1, :] == 1.0)
        assert np.all(gx[0, :] == -1.0)

    def test_grad_zero_on_boundary_faces(self, rng):
        g = mkgrid(8, bc=NO_SLIP)
        gp = grad(random_cell(g, rng))
        assert np.all(gp.components[0][[0, -1], :] == 0.0)
        assert np.all(gp.components[1][:, [0, -1]] == 0.0)

    @pytest.mark.parametrize("dim", [2, 3])
    @pytest.mark.parametrize("bc", [PERIODIC, NO_SLIP, FREE_SLIP])
    def test_loop_oracle(self, dim, bc, rng):
        g = mkgrid(6, bc=bc, dim=dim, h=0.37)
        u = random_face(g, rng)
        p = random_cell(g, rng)
        assert np.allclose(div(u).data, reference.ref_div(u), atol=1e-13)
        got = grad(p)
        want = reference.ref_grad(p)
        for a in range(dim):
            assert np.allclose(got.components[a], want[a], atol=1e-13)


class TestLapPressure:
    def test_constant(self):
        g = mkgrid(8, bc=PERIODIC)
        assert np.abs(lap_pressure(CellField(g, np.full(g.cells, 2.0))).data).max() == 0.0

    def test_five_point_center(self):
        g = mkgrid(8, bc=PERIODIC)
        p = CellField.zeros(g)
        p.data[4, 4] = 1.0
        lp = lap_pressure(p)
        assert lp.data[4, 4] == pytest.approx(-4.0)
        assert lp.data[3, 4] == lp.data[5, 4] == lp.data[4, 3] == lp.data[4, 5] == 1.0

    def test_identity_with_div_grad(self, rng):
        g = mkgrid(8, bc=PERIODIC)
        p = random_cell(g, rng)
        assert np.array_equal(lap_pressure(p).data, div(grad(p)).data)


class TestLrho:
    def test_constant_density_reduction(self, rng):
        g = mkgrid(8, bc=PERIODIC)
        coeff = make_coefficients(g, 1.0, CellField(g, np.full(g.cells, 2.0)),
                                  CellField(g, np.ones(g.cells)))
        p = random_cell(g, rng)
        assert np.allclose(apply_Lrho(p, coeff).data, lap_pressure(p).data / 2.0,
                           atol=1e-14)

    def test_constant_pressure(self, rng):
        g = mkgrid(8, bc=NO_SLIP)
        coeff = make_variable_coeff(g, rng)
        p = CellField(g, np.full(g.cells, 5.0))
        assert np.abs(apply_Lrho(p, coeff).data).max() == 0.0

    def test_hand_enumerated_pattern(self):
        # 1D-style alternating pattern: p = {0,1,0,1}, rho_face = {2,4,2,4}
        # fluxes 1/rho*(p_i - p_{i-1}) = {-1/2, 1/4, -1/2, 1/4}; divergence
        # alternates +-3/4 (the two-cell periodic case tiled twice).
        g = mkgrid(4, bc=PERIODIC)
        p = CellField(g, np.tile(np.array([[0.0], [1.0]]), (2, 4)))
        rho_face = FaceField(
            g,
            (np.tile(np.array([[2.0], [4.0]]), (2, 4)), np.full((4, 4), 1.0)),
        )
        coeff = CoefficientSet(
            theta=1.0,
            rho_cell=CellField(g, np.ones(g.cells)),
            rho_face=rho_face,
            mu_cell=CellField(g, np.ones(g.cells)),
            mu_node_edge=average_cell_to_node_edge(CellField(g, np.ones(g.cells))),
            gamma_cell=CellField.zeros(g),
        )
        out = apply_Lrho(p, coeff).data
        assert np.allclose(out[0::2, :], 0.75)
        assert np.allclose(out[1::2, :], -0.75)

    def test_nonpositive_density_rejected(self, rng):
        # checked once when the coefficients are built, not per application
        g = mkgrid(4, bc=PERIODIC)
        coeff = make_variable_coeff(g, rng)
        rho_face = coeff.rho_face.copy()
        rho_face.components[0][2, 2] = 0.0
        with pytest.raises(ValueError, match="face density must be positive"):
            dataclasses.replace(coeff, rho_face=rho_face)

    @pytest.mark.parametrize("bc", [PERIODIC, NO_SLIP])
    def test_loop_oracle(self, bc, rng):
        g = mkgrid(6, bc=bc, h=0.25)
        coeff = make_variable_coeff(g, rng)
        p = random_cell(g, rng)
        assert np.allclose(apply_Lrho(p, coeff).data, reference.ref_apply_Lrho(p, coeff),
                           atol=1e-12)


class TestViscous:
    @pytest.mark.parametrize("form", ALL_FORMS)
    def test_constant_velocity_periodic(self, form, rng):
        g = mkgrid(8, bc=PERIODIC)
        coeff = make_variable_coeff(g, rng, form=form)
        u = FaceField(g, tuple(np.full(g.face_shape(a), 1.7) for a in range(2)))
        out = apply_viscous(u, coeff)
        for a in range(2):
            assert np.abs(out.components[a]).max() < 1e-13

    @pytest.mark.parametrize("dim", [2, 3])
    def test_stress_equals_scaled_laplacian_on_divfree(self, dim, rng):
        g = mkgrid(8, bc=PERIODIC, dim=dim)
        mu0 = 2.5
        u = divergence_free_face(g, rng)
        assert np.abs(div(u).data).max() < 1e-12
        ones = CellField(g, np.ones(g.cells))
        stress = apply_viscous(
            u, make_coefficients(g, 0.0, ones, CellField(g, np.full(g.cells, mu0)),
                                 viscous_form=STRESS))
        lap = apply_viscous(
            u, make_coefficients(g, 0.0, ones, ones, viscous_form=LAPLACIAN))
        scale = max(norm2(stress), 1.0)
        assert norm2(stress - mu0 * lap) <= 1e-13 * scale

    @pytest.mark.parametrize("dim", [2, 3])
    @pytest.mark.parametrize("gamma0", [None, 0.8])
    def test_fourier_symbol_single_mode(self, dim, gamma0):
        # periodic constant coefficients: staggered Fourier modes are
        # eigenfunctions with the symbol of the stress (or bulk) operator
        n, h, mu0 = 8, 0.5, 1.7
        g = mkgrid(n, bc=PERIODIC, dim=dim, h=h)
        form = STRESS if gamma0 is None else STRESS_BULK
        ones = CellField(g, np.ones(g.cells))
        coeff = make_coefficients(
            g, 0.0, ones, CellField(g, np.full(g.cells, mu0)),
            None if gamma0 is None else CellField(g, np.full(g.cells, gamma0)),
            form)
        k = 2 * np.pi * np.array([1, 2, 3][:dim]) / (n * h)
        L_hat = reference.stress_symbol_matrix(k, h, mu0, gamma0)
        # amplitude vector across components
        amp = np.arange(1, dim + 1, dtype=float)
        modes = []
        for a in range(dim):
            coords = [np.arange(n) * h + (0.5 * h if ax != a else 0.0)
                      for ax in range(dim)]
            mesh = np.meshgrid(*coords, indexing="ij")
            phase = sum(k[ax] * mesh[ax] for ax in range(dim))
            modes.append(amp[a] * np.exp(1j * phase))
        want = L_hat @ amp
        for part in (np.real, np.imag):
            u = FaceField(g, tuple(part(m) for m in modes))
            got = apply_viscous(u, coeff)
            for a in range(dim):
                expect = part(want[a] / amp[a] * modes[a])
                assert np.allclose(got.components[a], expect, atol=1e-12 * abs(want).max())

    @pytest.mark.parametrize("dim", [2, 3])
    @pytest.mark.parametrize("form", ALL_FORMS)
    def test_kron_oracle_periodic_constant(self, dim, form, rng):
        if form is LAPLACIAN:
            pytest.skip("kron oracle covers the coupled forms")
        n, h, mu0, gamma0 = (6 if dim == 2 else 4), 0.7, 1.3, 0.4
        g = mkgrid(n, bc=PERIODIC, dim=dim, h=h)
        ones = CellField(g, np.ones(g.cells))
        coeff = make_coefficients(
            g, 0.0, ones, CellField(g, np.full(g.cells, mu0)),
            CellField(g, np.full(g.cells, gamma0)) if form is STRESS_BULK else None,
            form)
        A_kron = reference.kron_stress_matrix(
            n, h, mu0, dim, gamma0 if form is STRESS_BULK else None)
        from stokesmg.grid import pack_face, unpack_face

        nu = sum(g.n_face_unknowns(a) for a in range(dim))
        for _ in range(5):
            v = rng.standard_normal(nu)
            got = pack_face(apply_A(unpack_face(g, v), coeff))
            want = A_kron @ v
            assert np.allclose(got, want, atol=1e-11 * max(1.0, np.abs(want).max()))

    @pytest.mark.parametrize("dim", [2, 3])
    @pytest.mark.parametrize("form", ALL_FORMS)
    @pytest.mark.parametrize("bc", [NO_SLIP, FREE_SLIP,
                                    [(PERIODIC, PERIODIC), (NO_SLIP, NO_SLIP)],
                                    [(NO_SLIP, NO_SLIP), (FREE_SLIP, FREE_SLIP)]])
    def test_loop_oracle_walls(self, dim, form, bc, rng):
        if dim == 3 and isinstance(bc, list):
            bc = bc + [(NO_SLIP, FREE_SLIP)]
        g = mkgrid(4, bc=bc, dim=dim, h=0.31)
        coeff = make_variable_coeff(g, rng, form=form)
        u = random_face(g, rng)
        got = apply_viscous(u, coeff)
        want = reference.ref_viscous(u, coeff)
        for a in range(dim):
            assert np.allclose(got.components[a], want[a], atol=1e-12), (dim, form, a)

    def test_missing_coefficients_rejected(self, rng):
        g = mkgrid(4)
        coeff = make_variable_coeff(g, rng)
        object.__setattr__  # no-op; CoefficientSet is a plain dataclass
        coeff.mu_node_edge = None
        with pytest.raises(AttributeError):
            apply_viscous(random_face(g, rng), coeff)


class TestApplyA:
    def test_inviscid_diagonal(self, rng):
        from stokesmg.problems import inviscid_coefficients

        g = mkgrid(8, bc=NO_SLIP)
        coeff = inviscid_coefficients(g, CellField(g, np.full(g.cells, 2.0)), theta=1.0)
        u = random_face(g, rng)
        out = apply_A(u, coeff)
        for a in range(2):
            assert np.allclose(out.interior(a), 2.0 * u.interior(a), atol=1e-14)

    def test_steady_is_minus_viscous(self, rng):
        g = mkgrid(8, bc=PERIODIC)
        coeff = make_variable_coeff(g, rng, theta=0.0)
        u = random_face(g, rng)
        assert norm2(apply_A(u, coeff) + apply_viscous(u, coeff)) == 0.0

    def test_constant_velocity_periodic(self, rng):
        g = mkgrid(8, bc=PERIODIC)
        coeff = make_variable_coeff(g, rng, theta=0.9)
        u = FaceField(g, tuple(np.full(g.face_shape(a), 3.0) for a in range(2)))
        out = apply_A(u, coeff)
        for a in range(2):
            want = 0.9 * coeff.rho_face.components[a] * 3.0
            assert np.allclose(out.components[a], want, atol=1e-12)

    @pytest.mark.parametrize("dim", [2, 3])
    def test_loop_oracle(self, dim, rng):
        g = mkgrid(4, bc=NO_SLIP, dim=dim, h=0.5)
        coeff = make_variable_coeff(g, rng, theta=1.3, form=STRESS_BULK)
        u = random_face(g, rng)
        got = apply_A(u, coeff)
        want = reference.ref_apply_A(u, coeff)
        for a in range(dim):
            assert np.allclose(got.components[a], want[a], atol=1e-12)


class TestRowScaling:
    """Rows scaled once by 1/h^2 against the flux-scaled formulas."""

    @staticmethod
    def case(dim, form, theta, h, rng):
        cells, bc = MIXED_WALLS[dim]
        g = mkgrid(cells, bc=bc, h=h)
        coeff = make_variable_coeff(g, rng, theta=theta, form=form)
        normal, tangential = {}, {}
        for b in range(dim):
            if g.periodic(b):
                continue
            for side in (0, 1):
                normal[(b, side)] = rng.standard_normal(
                    tuple(n for ax, n in enumerate(g.cells) if ax != b))
                for c in range(dim):
                    if c != b:
                        tangential[(b, side, c)] = rng.standard_normal(
                            tuple(n for ax, n in enumerate(g.face_shape(c)) if ax != b))
        bvals = BoundaryValues(g, normal, tangential)
        # nonzero wall faces and wall values: the homogenize path
        u_b = boundary_lift(bvals)
        for a in range(dim):
            u_b.interior(a)[...] = rng.standard_normal(u_b.interior(a).shape)
        return g, coeff, bvals, u_b, random_face(g, rng), random_cell(g, rng)

    @staticmethod
    def pairs(coeff, bvals, u_b, u, p):
        """(package, oracle) arrays for A with and without wall data, and L_rho."""
        for args in ((u_b, coeff, bvals), (u, coeff)):
            yield from zip(apply_A(*args).components, reference.flux_scaled_apply_A(*args))
        yield apply_Lrho(p, coeff).data, reference.flux_scaled_apply_Lrho(p, coeff)

    @pytest.mark.parametrize("h", [1.0, 2.0**-6])
    @pytest.mark.parametrize("theta", [0.0, 0.7])
    @pytest.mark.parametrize("form", ALL_FORMS)
    @pytest.mark.parametrize("dim", [2, 3])
    def test_bitwise_for_power_of_two_h(self, dim, form, theta, h, rng):
        _, *fields = self.case(dim, form, theta, h, rng)
        for got, want in self.pairs(*fields):
            assert np.array_equal(got, want)

    @pytest.mark.parametrize("h", [1.0 / 48.0, 0.3])
    @pytest.mark.parametrize("theta", [0.0, 0.7])
    @pytest.mark.parametrize("form", ALL_FORMS)
    @pytest.mark.parametrize("dim", [2, 3])
    def test_rounding_level_for_other_h(self, dim, form, theta, h, rng):
        _, *fields = self.case(dim, form, theta, h, rng)
        for got, want in self.pairs(*fields):
            assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))


class TestApplyM:
    def test_zero(self, rng):
        g = mkgrid(8, bc=NO_SLIP)
        coeff = make_variable_coeff(g, rng)
        assert norm2(apply_M(StokesVector.zeros(g), coeff)) == 0.0

    def test_constants_periodic(self, rng):
        g = mkgrid(8, bc=PERIODIC)
        coeff = make_variable_coeff(g, rng, theta=0.8)
        x = StokesVector(
            FaceField(g, tuple(np.full(g.face_shape(a), 2.0) for a in range(2))),
            CellField(g, np.full(g.cells, 5.0)),
        )
        out = apply_M(x, coeff)
        assert np.abs(out.p.data).max() < 1e-13
        for a in range(2):
            want = 0.8 * coeff.rho_face.components[a] * 2.0
            assert np.allclose(out.u.components[a], want, atol=1e-12)

    def test_dense_kron_product_periodic(self, rng):
        # assemble the full saddle matrix from the independent kron blocks
        import scipy.sparse as sp

        n, h, mu0 = 6, 0.8, 1.9
        g = mkgrid(n, bc=PERIODIC, h=h)
        ones = CellField(g, np.ones(g.cells))
        coeff = make_coefficients(g, 0.0, ones,
                                  CellField(g, np.full(g.cells, mu0)),
                                  viscous_form=STRESS)
        A = reference.kron_stress_matrix(n, h, mu0, 2)
        D1 = reference._d1(n) / h
        eye = sp.identity(n, format="csr")
        Dx = sp.kron(eye, D1).toarray()
        Dy = sp.kron(D1, eye).toarray()
        D = np.hstack([Dx, Dy])
        G = -D.T
        M = np.block([[A, G], [-D, np.zeros((n * n, n * n))]])
        from stokesmg.grid import pack_stokes, unpack_stokes

        for _ in range(5):
            v = rng.standard_normal(g.n_unknowns())
            got = pack_stokes(apply_M(unpack_stokes(g, v), coeff))
            want = M @ v
            assert np.allclose(got, want, atol=1e-11 * max(1.0, np.abs(want).max()))


class TestAdjointness:
    @pytest.mark.parametrize("dim", [2, 3])
    @pytest.mark.parametrize("bc", [PERIODIC, NO_SLIP, FREE_SLIP])
    def test_div_grad_adjoint(self, dim, bc, rng):
        g = mkgrid(8 if dim == 2 else 6, bc=bc, dim=dim, h=0.43)
        p = random_cell(g, rng)
        u = random_face(g, rng)
        lhs = dot(grad(p), u)
        rhs = -dot(p, div(u))
        scale = norm2(p) * norm2(u) / g.h
        assert abs(lhs - rhs) <= 1e-13 * scale

    @pytest.mark.parametrize("dim", [2, 3])
    @pytest.mark.parametrize("bc", [PERIODIC, NO_SLIP, FREE_SLIP])
    @pytest.mark.parametrize("form", ALL_FORMS)
    def test_M_self_adjoint(self, dim, bc, form, rng):
        g = mkgrid(6, bc=bc, dim=dim, h=0.6)
        coeff = make_variable_coeff(g, rng, theta=0.5, form=form)
        x = random_stokes(g, rng)
        y = random_stokes(g, rng)
        lhs = dot(apply_M(x, coeff), y)
        rhs = dot(x, apply_M(y, coeff))
        scale = max(abs(lhs), abs(rhs), norm2(x) * norm2(y) / g.h**2)
        assert abs(lhs - rhs) <= 1e-12 * scale

    def test_M_linearity(self, rng):
        g = mkgrid(8, bc=NO_SLIP)
        coeff = make_variable_coeff(g, rng)
        x, y = random_stokes(g, rng), random_stokes(g, rng)
        lhs = apply_M(2.0 * x + (-3.0) * y, coeff)
        rhs = 2.0 * apply_M(x, coeff) + (-3.0) * apply_M(y, coeff)
        assert norm2(lhs - rhs) <= 1e-12 * (norm2(lhs) + 1.0)


class TestCoefficients:
    def test_face_average_is_adjacent_mean(self, rng):
        g = mkgrid(4, bc=NO_SLIP)
        rho = random_cell(g, rng)
        rho.data += 2.0
        rf = average_cell_to_faces(rho)
        assert rf.components[0][2, 1] == pytest.approx(
            0.5 * (rho.data[1, 1] + rho.data[2, 1]))
        assert rf.components[0][0, 1] == rho.data[0, 1]  # one-sided at wall

    def test_node_average_is_four_neighbor_mean(self, rng):
        g = mkgrid(4, bc=NO_SLIP)
        mu = random_cell(g, rng)
        mn = average_cell_to_node_edge(mu).plane(0, 1)
        want = 0.25 * (mu.data[0, 0] + mu.data[1, 0] + mu.data[0, 1] + mu.data[1, 1])
        assert mn[1, 1] == pytest.approx(want)
        assert mn[0, 0] == pytest.approx(mu.data[0, 0])  # corner

    def test_periodic_wraps(self, rng):
        g = mkgrid(4, bc=PERIODIC)
        rho = random_cell(g, rng)
        rf = average_cell_to_faces(rho)
        assert rf.components[0][0, 2] == pytest.approx(
            0.5 * (rho.data[-1, 2] + rho.data[0, 2]))

    def test_invariants_enforced(self):
        g = mkgrid(4)
        ones = CellField(g, np.ones(g.cells))
        with pytest.raises(ValueError):
            make_coefficients(g, 1.0, CellField.zeros(g), ones)  # rho <= 0
        with pytest.raises(ValueError):
            make_coefficients(g, 1.0, ones, CellField(g, -np.ones(g.cells)))
        with pytest.raises(ValueError):
            make_coefficients(g, 0.0, ones, CellField.zeros(g))  # steady inviscid

    @pytest.mark.parametrize("theta", [0.0, 1.0])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("name", ["mu_cell", "rho_cell", "gamma_cell", "rho_face",
                                      "theta"])
    def test_nonfinite_rejected(self, name, bad, theta):
        g = mkgrid(4)
        ones = CellField(g, np.ones(g.cells))
        coeff = make_coefficients(g, theta, ones, ones, ones)
        if name == "theta":
            with pytest.raises(ValueError):
                dataclasses.replace(coeff, theta=bad)
            return
        field = getattr(coeff, name)
        arr = field.components[1] if name == "rho_face" else field.data
        arr[1, 2] = bad
        with pytest.raises(ValueError):
            dataclasses.replace(coeff)

    def test_velocity_null_components(self):
        ones = lambda g: CellField(g, np.ones(g.cells))
        g = mkgrid(4, bc=PERIODIC)
        c = make_coefficients(g, 0.0, ones(g), ones(g))
        assert velocity_null_components(g, c) == (0, 1)
        c = make_coefficients(g, 1.0, ones(g), ones(g))
        assert velocity_null_components(g, c) == ()
        g = mkgrid(4, bc=[(PERIODIC, PERIODIC), (NO_SLIP, NO_SLIP)])
        c = make_coefficients(g, 0.0, ones(g), ones(g))
        assert velocity_null_components(g, c) == ()
        g = mkgrid(4, bc=[(PERIODIC, PERIODIC), (FREE_SLIP, FREE_SLIP)])
        c = make_coefficients(g, 0.0, ones(g), ones(g))
        assert velocity_null_components(g, c) == (0,)


# one wall kind on a 4^2 grid (ids: the boundary condition), mixed walls, and
# odd periodic counts such as a 6 -> 3 coarsening produces
DIAGONAL_GRIDS = [pytest.param(mkgrid(4, bc=bc), id=str(bc))
                  for bc in (PERIODIC, NO_SLIP, FREE_SLIP)] + [
    pytest.param(mkgrid((8, 6), bc=[(NO_SLIP, FREE_SLIP), (PERIODIC, PERIODIC)]),
                 id="mixed_walls_2d"),
    pytest.param(mkgrid((4, 6, 4), bc=[(NO_SLIP, FREE_SLIP), (PERIODIC, PERIODIC),
                                       (FREE_SLIP, NO_SLIP)]), id="mixed_walls_3d"),
    pytest.param(mkgrid((6, 3)), id="odd_periodic_2d"),
    pytest.param(mkgrid((3, 3, 3)), id="odd_periodic_3d"),
]


class TestDiagonals:
    @pytest.mark.parametrize("g", DIAGONAL_GRIDS)
    @pytest.mark.parametrize("form", ALL_FORMS)
    def test_helmholtz_diagonal_matches_probing(self, g, form, rng):
        coeff = make_variable_coeff(g, rng, theta=0.3, form=form)
        diag = helmholtz_diagonal(g, coeff)
        for a in range(g.dim):
            for idx in np.ndindex(g.face_shape(a)):
                if not g.periodic(a) and idx[a] in (0, g.cells[a]):
                    continue
                e = FaceField.zeros(g)
                e.components[a][idx] = 1.0
                assert apply_A(e, coeff).components[a][idx] == pytest.approx(
                    diag.components[a][idx], rel=1e-12)

    @pytest.mark.parametrize("g", DIAGONAL_GRIDS)
    def test_lrho_diagonal_matches_probing(self, g, rng):
        coeff = make_variable_coeff(g, rng)
        diag = lrho_diagonal(g, coeff)
        for idx in np.ndindex(g.cells):
            e = CellField.zeros(g)
            e.data[idx] = 1.0
            assert apply_Lrho(e, coeff).data[idx] == pytest.approx(
                diag.data[idx], rel=1e-12)


class TestHomogenize:
    def test_zero_boundary_values_noop(self, rng):
        g = mkgrid(8, bc=NO_SLIP)
        coeff = make_variable_coeff(g, rng)
        rhs = random_stokes(g, rng)
        rhs.p.data -= rhs.p.data.mean()
        out = homogenize(BoundaryValues.zeros(g), coeff, rhs)
        assert norm2(out - rhs) == 0.0

    def test_incompatible_data_rejected(self, rng):
        g = mkgrid(8, bc=NO_SLIP)
        coeff = make_variable_coeff(g, rng)
        rhs = StokesVector.zeros(g)  # g = 0
        bvals = BoundaryValues(g, {(0, 0): np.full(8, 1.0)}, {})  # net inflow
        with pytest.raises(ValueError, match="incompatible"):
            homogenize(bvals, coeff, rhs)

    def test_manufactured_roundtrip(self, rng):
        # an affine problem solved via the homogenized system matches the
        # affine operator applied to (solution + boundary lift)
        from stokesmg.krylov import GmresConfig, gmres_solve
        from stokesmg.precond import PrecondConfig, PrecondKind

        g = mkgrid(16, bc=NO_SLIP)
        coeff = make_variable_coeff(g, rng, theta=1.0, form=STRESS)
        # tangential lid velocity plus compatible normal in/outflow
        lid = np.sin(2 * np.pi * (np.arange(17)) / 16.0)
        inflow = np.sin(2 * np.pi * (np.arange(16) + 0.5) / 16.0)
        bvals = BoundaryValues(
            g,
            {(0, 0): inflow.copy(), (0, 1): inflow.copy()},  # equal in/out: compatible
            {(1, 1, 0): lid},
        )
        rhs = random_stokes(g, rng)
        rhs.p.data -= rhs.p.data.mean()
        net = float(div(boundary_lift(bvals)).data.sum())
        rhs.p.data -= net / g.n_cell_unknowns() / g.h**2  # fold flux into source
        hom = homogenize(bvals, coeff, rhs)
        x, hist = gmres_solve(hom, coeff, PrecondConfig(kind=PrecondKind.P2),
                              GmresConfig(rtol=1e-13, max_iters=60))
        assert hist.converged
        # rebuild the affine solution: interior solve + boundary values
        full = x.copy()
        lift = boundary_lift(bvals)
        for a in range(2):
            full.u.components[a][...] += lift.components[a]
        resid_u = apply_A(full.u, coeff, bvals) + grad(full.p) - rhs.u
        resid_p = -1.0 * div(full.u) - rhs.p
        err = np.sqrt(sum(np.sum(resid_u.interior(a) ** 2) for a in range(2))
                      + np.sum(resid_p.data ** 2))
        assert err <= 1e-10 * max(1.0, norm2(rhs))


class TestRescale:
    def test_unit_scale_unchanged(self, rng):
        g = mkgrid(8, h=1.0)
        coeff = make_coefficients(g, 0.0, CellField(g, np.ones(g.cells)),
                                  CellField(g, np.ones(g.cells)))
        rhs = random_stokes(g, rng)
        coeff2, rhs2, spec = rescale(coeff, rhs)
        assert spec.c == 1.0
        assert norm2(rhs2 - rhs) == 0.0

    def test_roundtrip_identity(self, rng):
        g = mkgrid(8, h=1.0)
        coeff = make_coefficients(g, 0.0, CellField(g, np.ones(g.cells)),
                                  CellField(g, np.full(g.cells, 100.0)))
        rhs = random_stokes(g, rng)
        coeff2, rhs2, spec = rescale(coeff, rhs)
        assert spec.c == pytest.approx(0.01)
        x = random_stokes(g, rng)
        back = spec.unscale_solution(spec.scale_solution(x))
        assert norm2(back - x) <= 1e-15 * norm2(x)

    def test_scaled_rhs_shares_no_storage(self, rng):
        # a pressure sharing the input's buffer would keep all of it alive
        g = mkgrid(8, bc=NO_SLIP, h=1.0)
        coeff = make_coefficients(g, 0.0, CellField(g, np.ones(g.cells)),
                                  CellField(g, np.full(g.cells, 100.0)))
        rhs = random_stokes(g, rng).copy()
        _, rhs2, spec = rescale(coeff, rhs)
        assert not np.shares_memory(rhs2.buffer, rhs.buffer)
        for got, comp in zip(rhs2.u.components, rhs.u.components):
            assert got.tobytes() == (spec.c * comp).tobytes()
        assert rhs2.p.data.tobytes() == rhs.p.data.tobytes()

    def test_scaled_solution_matches_unscaled(self, rng):
        from stokesmg.krylov import GmresConfig, gmres_solve
        from stokesmg.precond import PrecondConfig, PrecondKind
        from stokesmg.problems import bubble_coefficients, BubbleSpec, make_rhs

        g = mkgrid(32, bc=NO_SLIP)
        coeff = bubble_coefficients(g, BubbleSpec(seed=3))
        rhs, _ = make_rhs(g, coeff, seed=4)
        gcfg = GmresConfig(rtol=1e-12, max_iters=120)
        pcfg = PrecondConfig(kind=PrecondKind.P2)
        x_plain, h1 = gmres_solve(rhs, coeff, pcfg, gcfg)
        coeff2, rhs2, spec = rescale(coeff, rhs)
        x_scaled, h2 = gmres_solve(rhs2, coeff2, pcfg, gcfg)
        x_back = spec.unscale_solution(x_scaled)
        assert h1.converged and h2.converged
        assert norm2(x_back - x_plain) <= 1e-6 * norm2(x_plain)


class TestInhomogeneousBoundaries:
    @pytest.mark.parametrize("dim", [2, 3])
    def test_affine_operator_matches_ghost_oracle(self, dim, rng):
        # nonzero wall data feeds the one-sided stencils; compare against
        # the loop oracle's ghost reflection through the wall values
        g = mkgrid(4, bc=NO_SLIP, dim=dim, h=0.4)
        coeff = make_variable_coeff(g, rng, theta=1.2, form=STRESS)
        normal, tangential = {}, {}
        for a in range(dim):
            for side in (0, 1):
                shape_n = tuple(n for ax, n in enumerate(g.cells) if ax != a)
                normal[(a, side)] = rng.standard_normal(shape_n)
                for c in range(dim):
                    if c == a:
                        continue
                    shape_t = tuple(
                        n for ax, n in enumerate(g.face_shape(c)) if ax != a)
                    tangential[(a, side, c)] = rng.standard_normal(shape_t)
        bvals = BoundaryValues(g, normal, tangential)
        u = boundary_lift(bvals)
        for a in range(dim):
            u.interior(a)[...] = rng.standard_normal(u.interior(a).shape)
        got = apply_A(u, coeff, bvals)
        want = reference.ref_apply_A(u, coeff, bvals)
        for a in range(dim):
            assert np.allclose(got.components[a], want[a], atol=1e-12)

    def test_boundary_value_shape_checked(self, rng):
        g = mkgrid(4, bc=NO_SLIP)
        bvals = BoundaryValues(g, {(0, 0): np.zeros(3)}, {})
        with pytest.raises(ValueError, match="shape"):
            bvals.normal_values(0, 0)
