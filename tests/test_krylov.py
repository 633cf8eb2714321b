import numpy as np
import pytest

from stokesmg import grid, krylov
from stokesmg.grid import FREE_SLIP, CellField, FaceField, StokesVector, norm2
from stokesmg.krylov import (
    GmresConfig,
    gmres_kernel,
    gmres_solve,
    true_residual,
)
from stokesmg.operators import apply_M, rescale
from stokesmg.precond import IDENTITY, P1, P2, P3, P4, P5, PrecondConfig, Preconditioner
from stokesmg.problems import (
    BubbleSpec,
    bubble_coefficients,
    constant_coefficients,
    make_rhs,
)

from conftest import NO_SLIP, PERIODIC, mkgrid


class TestConfig:
    def test_defaults(self):
        cfg = GmresConfig()
        assert cfg.restart == 10 and cfg.rtol == 1e-9 and cfg.track_true_residual

    def test_validation(self):
        with pytest.raises(ValueError):
            GmresConfig(restart=0)
        with pytest.raises(ValueError):
            GmresConfig(rtol=0.0)
        for atol in (-1.0, float("nan")):
            with pytest.raises(ValueError):
                GmresConfig(atol=atol)

    @pytest.mark.parametrize("key", ["rtol", "atol"])
    @pytest.mark.parametrize("value", [float("inf"), float("nan")])
    def test_nonfinite_tolerances_rejected(self, key, value):
        # an infinite rtol or atol would stop every solve at once as converged
        with pytest.raises(ValueError, match=f"{key} must be"):
            GmresConfig(**{key: value})

    def test_basis_beyond_physical_memory_rejected(self):
        # the basis holds min(restart, max_iters) + 1 Stokes vectors: a
        # bounded restart keeps it small whatever max_iters is, and both
        # huge are refused before any allocation
        g = mkgrid(8, bc=NO_SLIP)
        krylov.require_memory(g, GmresConfig(restart=10, max_iters=10**12))
        huge = GmresConfig(restart=10**12, max_iters=10**12)
        with pytest.raises(ValueError, match="physical memory"):
            krylov.require_memory(g, huge)
        coeff = constant_coefficients(g, 1.0, 1.0, 1.0)
        with pytest.raises(ValueError, match="physical memory"):
            gmres_solve(StokesVector.zeros(g), coeff, PrecondConfig(kind=IDENTITY), huge)


class TestKernel:
    def test_two_by_two_diagonal_hand_solved(self):
        # A = diag(2, 5), b = (2, 10): x = (1, 2); GMRES needs two steps.
        # After one step the minimizer over span{b} is alpha*b with
        # alpha = <b, Ab>/<Ab, Ab> = 508/2516, leaving residual
        # 2*sqrt(141525)/629; after two steps the space is all of R^2.
        A = np.diag([2.0, 5.0])
        b = np.array([2.0, 10.0])
        seen = []
        x, status, k = gmres_kernel(
            lambda v: A @ v, b, restart=5, max_iters=10, target=1e-13 * 10.4,
            breakdown_tol=0.0, callback=lambda k, xk, rp, rf: seen.append((k, rp)))
        assert status in ("converged", "breakdown")
        assert k <= 2
        assert np.allclose(x, [1.0, 2.0], atol=1e-12)
        assert seen[0][1] == pytest.approx(2.0 * np.sqrt(141525.0) / 629.0, rel=1e-12)

    def test_solve_upper_matches_dense_reference(self, rng):
        R = np.triu(rng.standard_normal((8, 8))) + 8.0 * np.eye(8)
        g = rng.standard_normal(8)
        y = krylov._solve_upper(R, g)
        assert np.allclose(y, np.linalg.solve(R, g), rtol=1e-13, atol=1e-15)

    def test_memory_basis_is_restart_plus_one(self, monkeypatch):
        # the kernel allocates exactly one (m+1, n) basis block per call,
        # however many restarts reuse it
        allocs = []
        orig = np.zeros

        def spy(shape, *a, **k):
            allocs.append(shape)
            return orig(shape, *a, **k)

        monkeypatch.setattr(np, "zeros", spy)
        A = np.diag(np.arange(1.0, 21.0))
        b = np.ones(20)
        _, status, k = gmres_kernel(lambda v: A @ v, b, restart=4, max_iters=40,
                                    target=1e-10 * np.linalg.norm(b), breakdown_tol=0.0)
        assert k > 2 * 4  # at least two restarts
        two_d = [s for s in allocs if isinstance(s, tuple) and len(s) == 2 and s[1] == 20]
        assert two_d == [(5, 20)]

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("restart, stop_at", [(10, 3), (2, 2)])
    def test_nonfinite_stops_at_once(self, bad, restart, stop_at):
        # the third operator call returns a non-finite entry: inside a
        # restart window the Givens/Arnoldi checks catch it, at a restart
        # (restart=2) the recomputed residual norm does
        A = np.diag(np.arange(1.0, 21.0))
        b = np.ones(20)
        calls = []

        def op(v):
            calls.append(1)
            out = A @ v
            if len(calls) == 3:
                out[0] = bad
            return out

        x, status, k = gmres_kernel(op, b, restart=restart, max_iters=50,
                                    target=1e-14, breakdown_tol=0.0)
        assert status == "nonfinite"
        assert (k, len(calls)) == (stop_at, 3)
        assert np.all(np.isfinite(x))


class TestSolveIdentities:
    def test_p1_exact_single_iteration(self, rng):
        g = mkgrid(16, bc=PERIODIC)
        coeff = constant_coefficients(g)
        rhs, _ = make_rhs(g, coeff, seed=5)
        x, hist = gmres_solve(rhs, coeff, PrecondConfig(kind=P1, exact_subsolvers=True),
                              GmresConfig(rtol=1e-10, max_iters=10))
        assert hist.iterations == 1
        assert hist.entries[-1].resid_precond <= 1e-10 * hist.entries[0].resid_precond

    @pytest.mark.parametrize("kind", [P2, P3])
    def test_triangular_exact_two_iterations_inviscid(self, kind, rng):
        g = mkgrid(16, bc=NO_SLIP)
        coeff = constant_coefficients(g, mu0=0.0, theta=1.0)
        rhs, _ = make_rhs(g, coeff, seed=6)
        x, hist = gmres_solve(rhs, coeff, PrecondConfig(kind=kind, exact_subsolvers=True),
                              GmresConfig(rtol=1e-11, max_iters=10))
        assert hist.iterations <= 2
        assert true_residual(x, rhs, coeff) <= 1e-10 * norm2(rhs)

    def test_zero_rhs_zero_iterations(self):
        g = mkgrid(16, bc=NO_SLIP)
        coeff = constant_coefficients(g)
        x, hist = gmres_solve(StokesVector.zeros(g), coeff, PrecondConfig(kind=P2),
                              GmresConfig())
        assert hist.iterations == 0 and hist.status == "converged"
        assert norm2(x) == 0.0

    def test_nan_rhs_stops_before_iterating(self, monkeypatch):
        g = mkgrid(16, bc=NO_SLIP)
        coeff = constant_coefficients(g)
        rhs, _ = make_rhs(g, coeff, seed=4)
        rhs.u.components[0][3, 5] = np.nan
        pre = Preconditioner(coeff, PrecondConfig(kind=P2))
        applications = []
        real_apply = pre.apply

        def counted_M(x, c):
            applications.append("M")
            return apply_M(x, c)

        def counted_P(r):
            applications.append("P")
            return real_apply(r)

        monkeypatch.setattr(krylov, "apply_M", counted_M)
        monkeypatch.setattr(pre, "apply", counted_P)
        x, hist = gmres_solve(rhs, coeff, PrecondConfig(kind=P2),
                              GmresConfig(max_iters=50), precond=pre)
        assert hist.status == "nonfinite" and not hist.converged
        assert hist.iterations == 0
        assert applications == ["P"]
        assert norm2(x) == 0.0


class TestHistory:
    def test_rows_schema(self, rng):
        g = mkgrid(16, bc=NO_SLIP)
        coeff = constant_coefficients(g)
        rhs, _ = make_rhs(g, coeff, seed=2)
        _, hist = gmres_solve(rhs, coeff, PrecondConfig(kind=P2),
                              GmresConfig(rtol=1e-8, max_iters=60))
        rows = hist.rows()
        assert rows[0][0] == 0 and len(rows[0]) == 5
        iters = [r[0] for r in rows]
        assert iters == list(range(len(rows)))

    def test_precond_residual_monotone_within_restart(self, rng):
        g = mkgrid(32, bc=NO_SLIP)
        coeff = bubble_coefficients(g, BubbleSpec(seed=11))
        rhs, _ = make_rhs(g, coeff, seed=12)
        _, hist = gmres_solve(rhs, coeff, PrecondConfig(kind=P2),
                              GmresConfig(restart=5, rtol=1e-10, max_iters=100))
        prev = None
        for e in hist.entries[1:]:
            if not e.restart and prev is not None:
                assert e.resid_precond <= prev * (1 + 1e-12)
            prev = e.resid_precond
        assert any(e.restart for e in hist.entries), "expected at least one restart"
        # restart rows appear right after multiples of the restart length
        flags = [e.iteration for e in hist.entries if e.restart]
        assert all((it - 1) % 5 == 0 for it in flags)

    def test_true_residual_recomputed_not_recurred(self, rng):
        g = mkgrid(16, bc=NO_SLIP)
        coeff = constant_coefficients(g)
        rhs, x_exact = make_rhs(g, coeff, seed=3)
        assert true_residual(x_exact, rhs, coeff) <= 1e-12 * norm2(rhs)
        assert true_residual(StokesVector.zeros(g), rhs, coeff) == pytest.approx(
            norm2(rhs))

    def test_givens_estimate_matches_recomputation(self, rng):
        g = mkgrid(32, bc=NO_SLIP)
        coeff = bubble_coefficients(g, BubbleSpec(seed=21))
        rhs, _ = make_rhs(g, coeff, seed=22)
        pcfg = PrecondConfig(kind=P2)
        gcfg = GmresConfig(rtol=1e-8, max_iters=40)
        pre = Preconditioner(coeff, pcfg)
        recomputed = {}

        base = Preconditioner(coeff, pcfg)
        x, hist = gmres_solve(rhs, coeff, pcfg, gcfg, precond=base)
        # recompute r_P at the final iterate from scratch
        z = base.apply(apply_M(x, coeff) - rhs)
        final = hist.entries[-1].resid_precond
        assert norm2(z) == pytest.approx(final, rel=1e-8)

    def test_determinism(self):
        g = mkgrid(32, bc=NO_SLIP)
        coeff = bubble_coefficients(g, BubbleSpec(seed=8))
        rhs, _ = make_rhs(g, coeff, seed=9)
        runs = []
        for _ in range(2):
            _, hist = gmres_solve(rhs, coeff, PrecondConfig(kind=P2),
                                  GmresConfig(rtol=1e-10, max_iters=80))
            runs.append(hist.rows())
        assert runs[0] == runs[1]

    @pytest.mark.parametrize("max_iters", [1, 4, 7])
    def test_huge_restart_is_sized_by_max_iters(self, max_iters):
        # a window never holds more than max_iters iterations: a restart far
        # beyond it allocates no larger basis and gives the same bits
        g = mkgrid(16, bc=NO_SLIP)
        coeff = bubble_coefficients(g, BubbleSpec(seed=3))
        rhs, _ = make_rhs(g, coeff, seed=4)
        runs = []
        for restart in (max_iters, 10**12):
            x, hist = gmres_solve(rhs, coeff, PrecondConfig(kind=P2),
                                  GmresConfig(restart=restart, max_iters=max_iters,
                                              rtol=1e-14))
            runs.append((hist.status, hist.rows(), x.buffer.tobytes()))
        assert runs[0][0] == "maxiter"
        assert runs[0] == runs[1]

    def test_untracked_solve_forms_the_iterate_once_per_window(self, monkeypatch):
        # without the true residual nothing reads an iterate inside a
        # restart window: combine runs once per window (at its end, or at
        # the exit inside the last one), and the solve is the tracked one
        calls = []
        original = krylov.combine

        def counted(*args):
            calls.append(1)
            return original(*args)

        monkeypatch.setattr(krylov, "combine", counted)
        g = mkgrid(32, bc=NO_SLIP)
        coeff = bubble_coefficients(g, BubbleSpec(seed=8))
        rhs, _ = make_rhs(g, coeff, seed=9)
        runs = {}
        for track in (True, False):
            calls.clear()
            x, hist = gmres_solve(rhs, coeff, PrecondConfig(kind=P2),
                                  GmresConfig(restart=4, rtol=1e-10, max_iters=80,
                                              track_true_residual=track))
            runs[track] = (hist.status, x.buffer.tobytes(),
                           [e.resid_precond for e in hist.entries], len(calls))
        iters = len(runs[True][2]) - 1
        assert runs[True][0] == "converged" and iters > 2 * 4
        assert runs[True][3] == iters
        assert runs[False][3] == -(-iters // 4)
        assert runs[True][:3] == runs[False][:3]

    def test_maxiter_status(self, rng):
        g = mkgrid(32, bc=NO_SLIP)
        coeff = bubble_coefficients(g, BubbleSpec(seed=13))
        rhs, _ = make_rhs(g, coeff, seed=14)
        _, hist = gmres_solve(rhs, coeff, PrecondConfig(kind=P2),
                              GmresConfig(rtol=1e-12, max_iters=3))
        assert hist.status == "maxiter"
        assert hist.iterations == 3


class TestScaledResiduals:
    def test_true_and_precond_residuals_agree_after_rescale(self):
        # on a well-scaled (rescaled) run the two residual notions stay
        # within two orders of magnitude at termination
        g = mkgrid(64, bc=NO_SLIP)
        coeff = bubble_coefficients(g, BubbleSpec(seed=31))
        rhs, _ = make_rhs(g, coeff, seed=32)
        coeff, rhs, _ = rescale(coeff, rhs)
        _, hist = gmres_solve(rhs, coeff, PrecondConfig(kind=P2),
                              GmresConfig(rtol=1e-9, max_iters=120))
        assert hist.converged
        last = hist.entries[-1]
        first = hist.entries[0]
        rel_p = last.resid_precond / first.resid_precond
        rel_t = last.resid_true / first.resid_true
        ratio = rel_t / rel_p
        assert 1e-2 <= ratio <= 1e2


class TestNullSpaceRobustness:
    @pytest.mark.parametrize("dim", [2, 3])
    def test_periodic_steady_converges_with_mg(self, dim):
        # A is singular on constant velocities; projection after each
        # preconditioner application keeps the iteration in the unknown space
        from stokesmg.grid import GridSpec, PERIODIC

        n = 16 if dim == 2 else 8
        g = mkgrid(n, bc=PERIODIC, dim=dim)
        coeff = constant_coefficients(g, theta=0.0)
        rhs, _ = make_rhs(g, coeff, seed=2)
        x, hist = gmres_solve(rhs, coeff, PrecondConfig(kind=P2),
                              GmresConfig(rtol=1e-10, max_iters=100))
        assert hist.converged
        assert true_residual(x, rhs, coeff) <= 1e-9 * norm2(rhs)

    def test_mixed_periodic_freeslip(self):
        from stokesmg.grid import FREE_SLIP, GridSpec, PERIODIC

        g = GridSpec((16, 16), 1.0, ((PERIODIC, PERIODIC),
                                     (FREE_SLIP, FREE_SLIP)))
        coeff = constant_coefficients(g, theta=0.0)
        rhs, _ = make_rhs(g, coeff, seed=3)
        x, hist = gmres_solve(rhs, coeff, PrecondConfig(kind=P2),
                              GmresConfig(rtol=1e-10, max_iters=100))
        assert hist.converged
        assert true_residual(x, rhs, coeff) <= 1e-9 * norm2(rhs)


class TestAlternativeForms:
    def test_all_freeslip_bubble_converges(self):
        from stokesmg.grid import FREE_SLIP, GridSpec
        from stokesmg.problems import BubbleSpec, bubble_coefficients

        g = GridSpec((32, 32), 1.0, ((FREE_SLIP, FREE_SLIP),) * 2)
        coeff = bubble_coefficients(g, BubbleSpec(seed=0))
        rhs, _ = make_rhs(g, coeff, seed=1)
        x, hist = gmres_solve(rhs, coeff, PrecondConfig(kind=P2),
                              GmresConfig(rtol=1e-10, max_iters=100))
        assert hist.converged
        assert true_residual(x, rhs, coeff) <= 1e-9 * norm2(rhs)

    def test_bulk_viscosity_bubble_converges(self):
        from stokesmg.grid import GridSpec, NO_SLIP
        from stokesmg.operators import STRESS_BULK
        from stokesmg.problems import BubbleSpec, bubble_coefficients

        g = GridSpec((32, 32), 1.0, ((NO_SLIP, NO_SLIP),) * 2)
        coeff = bubble_coefficients(g, BubbleSpec(seed=0), gamma0=1.0,
                                    viscous_form=STRESS_BULK)
        rhs, _ = make_rhs(g, coeff, seed=1)
        x, hist = gmres_solve(rhs, coeff, PrecondConfig(kind=P2),
                              GmresConfig(rtol=1e-10, max_iters=150))
        assert hist.converged
        assert true_residual(x, rhs, coeff) <= 1e-9 * norm2(rhs)

    def test_laplacian_form_bubble_converges(self):
        from stokesmg.grid import GridSpec, NO_SLIP
        from stokesmg.operators import LAPLACIAN
        from stokesmg.problems import BubbleSpec, bubble_coefficients

        g = GridSpec((32, 32), 1.0, ((NO_SLIP, NO_SLIP),) * 2)
        coeff = bubble_coefficients(g, BubbleSpec(seed=0),
                                    viscous_form=LAPLACIAN)
        rhs, _ = make_rhs(g, coeff, seed=1)
        x, hist = gmres_solve(rhs, coeff, PrecondConfig(kind=P2),
                              GmresConfig(rtol=1e-10, max_iters=150))
        assert hist.converged
        assert true_residual(x, rhs, coeff) <= 1e-9 * norm2(rhs)


# ---------------------------------------------------------------------------
# boundary faces, which are not unknowns, and the Krylov buffers
# ---------------------------------------------------------------------------

WALL_KINDS = [P1, P2, P3, P4, P5]


def wall_faces(x: StokesVector):
    """The boundary-face slabs of each bounded velocity component."""
    g = x.grid
    for a in range(g.dim):
        if not g.periodic(a):
            comp = x.u.components[a]
            for end in (0, -1):
                yield comp[(slice(None),) * a + (end,)]


def with_dirty_walls(x: StokesVector, rng) -> StokesVector:
    """A separate copy of ``x`` with random nonzero boundary faces."""
    out = StokesVector(FaceField(x.grid, tuple(c.copy() for c in x.u.components)),
                       CellField(x.grid, x.p.data.copy()))
    for face in wall_faces(out):
        face[...] = rng.standard_normal(face.shape)
    return out


def wall_problem(bc, theta):
    g = mkgrid(16, bc=bc)
    coeff = bubble_coefficients(g, BubbleSpec(seed=41), theta=theta)
    rhs, _ = make_rhs(g, coeff, seed=42)
    return g, coeff, rhs


def stokes_bits(x: StokesVector) -> list[bytes]:
    return [arr.tobytes() for arr in (*x.u.components, x.p.data)]


class TestWallFaces:
    @pytest.mark.parametrize("kind", WALL_KINDS + [IDENTITY], ids=lambda k: k.value)
    @pytest.mark.parametrize("theta", [0.0, 1.0], ids=["steady", "unsteady"])
    @pytest.mark.parametrize("bc", [NO_SLIP, FREE_SLIP], ids=lambda bc: bc.value)
    def test_rhs_wall_values_are_ignored(self, kind, theta, bc):
        g, coeff, rhs = wall_problem(bc, theta)
        dirty = with_dirty_walls(rhs, np.random.default_rng(43))
        runs = [gmres_solve(b, coeff, PrecondConfig(kind=kind),
                            GmresConfig(restart=4, rtol=1e-8, max_iters=10))
                for b in (rhs, dirty)]
        (x_clean, h_clean), (x_dirty, h_dirty) = runs
        assert h_clean.rows() == h_dirty.rows() and h_clean.status == h_dirty.status
        assert stokes_bits(x_clean) == stokes_bits(x_dirty)

    @pytest.mark.parametrize("kind", WALL_KINDS, ids=lambda k: k.value)
    @pytest.mark.parametrize("theta", [0.0, 1.0], ids=["steady", "unsteady"])
    @pytest.mark.parametrize("bc", [NO_SLIP, FREE_SLIP], ids=lambda bc: bc.value)
    @pytest.mark.parametrize("exact", [False, True], ids=["mg", "exact"])
    def test_preconditioners_write_zero_walls(self, kind, theta, bc, exact):
        g, coeff, rhs = wall_problem(bc, theta)
        out = Preconditioner(coeff, PrecondConfig(kind=kind, exact_subsolvers=exact)).apply(
            with_dirty_walls(rhs, np.random.default_rng(44)))
        assert all(np.all(face == 0.0) for face in wall_faces(out))

    @pytest.mark.parametrize("theta", [0.0, 1.0], ids=["steady", "unsteady"])
    @pytest.mark.parametrize("bc", [NO_SLIP, FREE_SLIP], ids=lambda bc: bc.value)
    def test_saddle_operator_and_residual_write_zero_walls(self, theta, bc):
        g, coeff, rhs = wall_problem(bc, theta)
        rng = np.random.default_rng(45)
        x = with_dirty_walls(rhs, rng)
        for out in (apply_M(x, coeff), apply_M(x, coeff, rhs=with_dirty_walls(rhs, rng))):
            assert all(np.all(face == 0.0) for face in wall_faces(out))

    def test_solve_makes_no_pack_or_unpack_copy(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("a solve copied through pack/unpack")

        for module in (grid, krylov):
            for name in ("pack_stokes", "unpack_stokes"):
                monkeypatch.setattr(module, name, refuse)
        g = mkgrid(32, bc=NO_SLIP)
        coeff = bubble_coefficients(g, BubbleSpec(seed=8))
        rhs, _ = make_rhs(g, coeff, seed=9)
        x, hist = gmres_solve(rhs, coeff, PrecondConfig(kind=P2),
                              GmresConfig(rtol=1e-10, max_iters=80))
        assert hist.converged
        assert true_residual(x, rhs, coeff) <= 1e-9 * norm2(rhs)
