import numpy as np
import pytest

from stokesmg.grid import (
    CellField,
    FaceField,
    StokesVector,
    norm2,
)
from stokesmg.operators import (
    STRESS,
    apply_A,
    apply_M,
    grad,
    lap_pressure,
    make_coefficients,
)
from stokesmg.precond import (
    IDENTITY,
    P1,
    P2,
    P3,
    P4,
    P5,
    PrecondConfig,
    Preconditioner,
)
from stokesmg.problems import constant_coefficients, project_nulls
from stokesmg.schur import PLUS, SchurConfig

from conftest import (
    FREE_SLIP,
    NO_SLIP,
    PERIODIC,
    divergence_free_face,
    mkgrid,
    random_cell,
    random_stokes,
)

ALL_KINDS = [P1, P2, P3, P4, P5]


class TestIdentityKind:
    def test_passthrough(self, rng):
        g = mkgrid(8, bc=NO_SLIP)
        coeff = constant_coefficients(g)
        pre = Preconditioner(coeff, PrecondConfig(kind=IDENTITY))
        r = random_stokes(g, rng)
        out = pre.apply(r)
        assert norm2(out - r) == 0.0
        assert pre.scalar_vcycles == 0


class TestExactIdentities:
    def test_p1_exact_inverse_periodic_constant(self, rng):
        g = mkgrid(16, bc=PERIODIC)
        coeff = constant_coefficients(g, viscous_form=STRESS)
        pre = Preconditioner(coeff, PrecondConfig(kind=P1, exact_subsolvers=True))
        x = project_nulls(random_stokes(g, rng), coeff)
        back = pre.apply(apply_M(x, coeff))
        assert norm2(back - x) <= 1e-12 * norm2(x)

    def test_p4_equals_p2_when_coupling_vanishes(self, rng):
        # r with r_p = 0 and D A^{-1} r_u = 0: take r_u = A w, w div-free
        g = mkgrid(8, bc=PERIODIC)
        coeff = constant_coefficients(g, viscous_form=STRESS)
        w = divergence_free_face(g, rng)
        for a in range(2):
            view = w.interior(a)
            view -= view.mean()
        r = StokesVector(apply_A(w, coeff), CellField.zeros(g))
        out2 = Preconditioner(coeff, PrecondConfig(kind=P2, exact_subsolvers=True)).apply(r)
        out4 = Preconditioner(coeff, PrecondConfig(kind=P4, exact_subsolvers=True)).apply(r)
        assert norm2(out2 - out4) <= 1e-11 * max(norm2(out2), 1.0)

    @pytest.mark.parametrize("bc", [NO_SLIP, PERIODIC, FREE_SLIP])
    def test_inviscid_p2_nilpotent(self, bc, rng):
        # (P2^{-1} M - I)^2 = 0 in the inviscid limit, any boundaries
        g = mkgrid(8, bc=bc)
        coeff = constant_coefficients(g, mu0=0.0, theta=1.5)
        pre = Preconditioner(coeff, PrecondConfig(kind=P2, exact_subsolvers=True))
        z = random_stokes(g, rng, mean_zero_p=True)
        T = lambda v: pre.apply(apply_M(v, coeff))
        w1 = T(z) - z
        w2 = T(w1) - w1
        assert norm2(w2) <= 1e-11 * max(norm2(w1), 1.0)


class TestLinearity:
    @pytest.mark.parametrize("kind", ALL_KINDS)
    @pytest.mark.parametrize("theta", [0.0, 1.0])
    def test_linear_and_deterministic(self, kind, theta, rng):
        g = mkgrid(16, bc=NO_SLIP)
        coeff = constant_coefficients(g, theta=theta)
        pre = Preconditioner(coeff, PrecondConfig(kind=kind))
        x, y = random_stokes(g, rng), random_stokes(g, rng)
        lhs = pre.apply(1.25 * x + (-0.75) * y)
        rhs = 1.25 * pre.apply(x) + (-0.75) * pre.apply(y)
        assert norm2(lhs - rhs) <= 1e-12 * max(norm2(rhs), 1.0)
        a1 = pre.apply(x)
        a2 = pre.apply(x)
        assert norm2(a1 - a2) == 0.0  # bit-identical repeat

    def test_null_projection_applied(self, rng):
        g = mkgrid(8, bc=PERIODIC)
        coeff = constant_coefficients(g, theta=0.0)
        pre = Preconditioner(coeff, PrecondConfig(kind=P2))
        out = pre.apply(random_stokes(g, rng))
        assert abs(out.p.data.mean()) < 1e-13
        for a in range(2):
            assert abs(out.u.interior(a).mean()) < 1e-13


class TestCostAccounting:
    @pytest.mark.parametrize("kind,steady_cost,unsteady_cost", [
        (P1, 2 * 1 + 1, 2 * 1 + 1),   # projection always solves a Poisson
        (P2, 2, 2 + 1),
        (P3, 2, 2 + 1),
        (P4, 2, 2 + 1),
        (P5, 4, 4 + 1),
    ])
    def test_scalar_vcycle_counter(self, kind, steady_cost, unsteady_cost, rng):
        g = mkgrid(16, bc=NO_SLIP)
        for theta, want in ((0.0, steady_cost), (1.0, unsteady_cost)):
            coeff = constant_coefficients(g, theta=theta)
            pre = Preconditioner(coeff, PrecondConfig(kind=kind))
            pre.apply(random_stokes(g, rng))
            assert pre.scalar_vcycles == want, (kind, theta)

    def test_counter_scales_with_cycles(self, rng):
        g = mkgrid(16, bc=NO_SLIP)
        coeff = constant_coefficients(g, theta=1.0)
        cfg = PrecondConfig(kind=P2, velocity_cycles=3,
                            schur=SchurConfig(pressure_cycles=2))
        pre = Preconditioner(coeff, cfg)
        pre.apply(random_stokes(g, rng))
        assert pre.scalar_vcycles == 2 * 3 + 2

    def test_3d_velocity_cost(self, rng):
        g = mkgrid(8, bc=NO_SLIP, dim=3)
        coeff = constant_coefficients(g, theta=0.0)
        pre = Preconditioner(coeff, PrecondConfig(kind=P2))
        pre.apply(random_stokes(g, rng))
        assert pre.scalar_vcycles == 3


class TestSignFlip:
    def test_plus_negates_pressure_estimate(self, rng):
        g = mkgrid(8, bc=NO_SLIP)
        coeff = constant_coefficients(g, theta=0.0)
        r = random_stokes(g, rng)
        minus = Preconditioner(coeff, PrecondConfig(kind=P4)).apply(r)
        plus = Preconditioner(
            coeff, PrecondConfig(kind=P4, schur=SchurConfig(sign=PLUS))).apply(r)
        assert norm2(minus.u - plus.u) == 0.0
        assert norm2(minus.p + plus.p) <= 1e-13 * max(norm2(minus.p), 1.0)


class TestCommutation:
    @pytest.mark.parametrize("dim", [2, 3])
    def test_gradient_commutes_with_laplacians_periodic(self, dim, rng):
        # L G = G L_p on periodic grids (constant-coefficient building block
        # behind the exact-preconditioner identities)
        from stokesmg.operators import LAPLACIAN

        g = mkgrid(8 if dim == 2 else 6, bc=PERIODIC, dim=dim)
        coeff = constant_coefficients(g, viscous_form=LAPLACIAN)
        p = random_cell(g, rng, mean_zero=True)
        lhs = apply_A(grad(p), coeff)          # -L G p (steady, mu0 = 1)
        rhs = grad(lap_pressure(p))            # G L_p p
        scale = max(norm2(rhs), 1.0)
        assert norm2(lhs + rhs) <= 1e-11 * scale

    @pytest.mark.parametrize("dim", [2, 3])
    def test_stress_form_doubles_on_gradients(self, dim, rng):
        # L_mu G p = 2 mu0 G L_p p: the mechanism behind the factor two in
        # the local-viscosity Schur approximation
        mu0 = 1.7
        g = mkgrid(8 if dim == 2 else 6, bc=PERIODIC, dim=dim)
        coeff = constant_coefficients(g, mu0=mu0, viscous_form=STRESS)
        p = random_cell(g, rng, mean_zero=True)
        lhs = apply_A(grad(p), coeff)                    # -L_mu G p
        rhs = 2.0 * mu0 * grad(lap_pressure(p))          # 2 mu0 G L_p p
        scale = max(norm2(rhs), 1.0)
        assert norm2(lhs + rhs) <= 1e-11 * scale


class TestValidation:
    def test_velocity_cycles_positive(self):
        with pytest.raises(ValueError):
            PrecondConfig(velocity_cycles=0)

    @pytest.mark.parametrize("n, dim, match", [
        (128, 2, None),
        (18, 3, "capped at 20000 DOFs, grid has 22356"),
    ])
    def test_dense_cap_enforced(self, n, dim, match):
        g = mkgrid(n, bc=NO_SLIP, dim=dim)
        coeff = constant_coefficients(g)
        with pytest.raises(ValueError, match=match):
            Preconditioner(coeff, PrecondConfig(kind=P2, exact_subsolvers=True))

    def test_kind_takes_its_type_at_construction(self):
        # a kind given by its value is the member; an unknown one is refused
        # before any hierarchy is built, not at the first apply
        assert PrecondConfig(kind="P2").kind is P2
        assert PrecondConfig(kind="identity").kind is IDENTITY
        with pytest.raises(ValueError):
            PrecondConfig(kind="P9")


def positive_zero_on_walls(u) -> bool:
    """Every boundary face of ``u`` holds +0.0, with no sign bit."""
    planes = [np.take(c, end, axis=a) for a, c in enumerate(u.components)
              if not u.grid.periodic(a) for end in (0, -1)]
    return all(np.all(q == 0.0) and not np.signbit(q).any() for q in planes)


class TestBoundaryFaces:
    """Boundary faces are not unknowns.  Every velocity subsolve leaves +0.0
    there (the V-cycle zeroes its iterate and relaxes only unknowns, the
    exact solver unpacks into zeros) and so does ``grad``, so P1's corrected
    velocity u - G phi / rho holds +0.0 there with no zeroing of its own."""

    @pytest.mark.parametrize("dim", [2, 3])
    @pytest.mark.parametrize("walls", ["no_slip", "free_slip", "mixed"])
    def test_subsolves_grad_and_p1_hold_positive_zero_on_walls(self, dim, walls, rng):
        bc = {"no_slip": NO_SLIP, "free_slip": FREE_SLIP,
              "mixed": [(NO_SLIP, FREE_SLIP)] + [(PERIODIC, PERIODIC)] * (dim - 1)}[walls]
        n = 16 if dim == 2 else 8
        g = mkgrid(n, bc=bc, dim=dim, h=1.0 / n)
        for theta in (0.0, 1.0):
            mu, rho = (CellField(g, 1.0 + rng.random(g.cells)) for _ in range(2))
            coeff = make_coefficients(g, theta, rho, mu)
            for cycles, exact in ((1, False), (2, False), (1, True)):
                pre = Preconditioner(coeff, PrecondConfig(
                    kind=P1, velocity_cycles=cycles, exact_subsolvers=exact))
                # random on every face, the boundary faces included
                b = FaceField(g, tuple(rng.standard_normal(g.face_shape(a))
                                       for a in range(dim)))
                r = StokesVector(b, random_cell(g, rng))
                assert positive_zero_on_walls(pre.velocity_solve(b))
                assert positive_zero_on_walls(grad(r.p))
                assert positive_zero_on_walls(pre.apply(r).u)
