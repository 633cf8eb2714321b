import ctypes

import numpy as np
import pytest

from stokesmg import kernels, multigrid
from stokesmg.krylov import GmresConfig
from stokesmg.problems import BubbleSpec, CflSpec
from stokesmg.grid import (
    FREE_SLIP,
    NO_SLIP,
    PERIODIC,
    CellField,
    FaceField,
    LayoutError,
    NodeEdgeField,
    norm2,
)
from stokesmg.multigrid import (
    SmootherParams,
    build_hierarchy,
    coarsen_coefficients,
    mg_cycles,
    mg_solve,
    prolong_cell,
    prolong_face,
    restrict_cell,
    restrict_face,
    smooth_cell,
    smooth_face,
    vcycle,
)
from stokesmg.operators import (
    LAPLACIAN,
    STRESS,
    STRESS_BULK,
    apply_A,
    apply_Lrho,
    helmholtz_diagonal,
    lrho_diagonal,
    make_coefficients,
)
from stokesmg.precond import PrecondConfig, SchurConfig
from stokesmg.problems import constant_coefficients

import reference
from conftest import MIXED_WALLS, mkgrid, random_cell, random_face
from reference import _sweep, lrho_couplings, viscous_couplings


def poisson_coeff(grid, theta=1.0):
    ones = CellField(grid, np.ones(grid.cells))
    return make_coefficients(grid, theta, ones, ones)


class TestSmootherParams:
    def test_validation(self):
        with pytest.raises(ValueError):
            SmootherParams(omega=0.0)
        with pytest.raises(ValueError):
            SmootherParams(omega=1.5)
        with pytest.raises(ValueError):
            SmootherParams(sweeps_down=0)
        with pytest.raises(ValueError):
            SmootherParams(bottom_sweeps=4)

    def test_defaults(self):
        p = SmootherParams()
        assert (p.omega, p.sweeps_down, p.sweeps_up, p.bottom_sweeps) == (1.0, 2, 2, 8)


@pytest.mark.parametrize("make, key", [
    (SmootherParams, "sweeps_down"), (SmootherParams, "sweeps_up"),
    (SmootherParams, "bottom_sweeps"), (PrecondConfig, "velocity_cycles"),
    (SchurConfig, "pressure_cycles"), (GmresConfig, "restart"), (GmresConfig, "max_iters")])
def test_config_counts_are_integers(make, key):
    # a fractional count would construct and fail only inside the first
    # solve, in a library call or in GMRES
    count = getattr(make(), key)
    for value in (count + 0.5, float(count), str(count)):
        with pytest.raises(ValueError, match=f"{key} must be an integer"):
            make(**{key: value})
    assert getattr(make(**{key: np.int64(count)}), key) == count


@pytest.mark.parametrize("make, key", [
    (SmootherParams, "sweeps_down"), (PrecondConfig, "velocity_cycles"),
    (SchurConfig, "pressure_cycles"), (GmresConfig, "restart"), (GmresConfig, "max_iters")])
def test_config_counts_refuse_bools(make, key):
    # True is an int to Python, but no count
    with pytest.raises(ValueError, match=f"{key} must be an integer, got True"):
        make(**{key: True})


@pytest.mark.parametrize("make, key, value", [
    (SmootherParams, "omega", None), (GmresConfig, "rtol", None), (GmresConfig, "atol", "0"),
    (BubbleSpec, "r_mu", "2"), (BubbleSpec, "epsilon", True), (CflSpec, "beta", "1")])
def test_config_reals_refuse_non_reals(make, key, value):
    # a comparison would raise TypeError, or take a bool as 0 or 1
    with pytest.raises(ValueError, match=f"{key} must be a real number, got {value!r}"):
        make(**{key: value})


class TestHierarchy:
    def test_power_of_two_bottoms_at_two(self):
        g = mkgrid(16, bc=NO_SLIP)
        hier = build_hierarchy(g, poisson_coeff(g))
        assert [lv.grid.cells for lv in hier.levels] == [
            (16, 16), (8, 8), (4, 4), (2, 2)]

    def test_48_bottoms_at_three(self):
        g = mkgrid((48, 48), bc=NO_SLIP)
        hier = build_hierarchy(g, poisson_coeff(g))
        assert hier.levels[-1].grid.cells == (3, 3)

    def test_uncoarsenable_grid_rejected(self):
        g = mkgrid(2, bc=NO_SLIP)
        with pytest.raises(ValueError):
            build_hierarchy(g, poisson_coeff(g))

    def test_zero_diagonal_detected(self):
        # a steady region of exactly zero viscosity yields degenerate rows
        g = mkgrid(8, bc=NO_SLIP)
        mu = CellField.zeros(g)
        mu.data[0, 0] = 1.0
        coeff = make_coefficients(g, 0.0, CellField(g, np.ones(g.cells)), mu)
        hier = build_hierarchy(g, coeff)
        with pytest.raises(ZeroDivisionError):
            hier.diag_face(0)


class TestCoarsenCoefficients:
    def test_constants_preserved(self):
        g = mkgrid(8, bc=NO_SLIP)
        coeff = constant_coefficients(g, mu0=3.0, rho0=2.0, theta=0.5)
        hier = build_hierarchy(g, coeff)
        for lvl_coeff in hier.levels:
            assert np.allclose(lvl_coeff.mu_cell.data, 3.0)
            assert np.allclose(lvl_coeff.mu_node_edge.plane(0, 1), 3.0)
            for a in range(2):
                assert np.allclose(lvl_coeff.rho_face.components[a], 2.0)
            assert lvl_coeff.theta == 0.5

    def test_cell_children_mean(self, rng):
        g = mkgrid(8, bc=NO_SLIP)
        coeff = poisson_coeff(g)
        coeff.mu_cell.data[0:2, 0:2] = [[1.0, 3.0], [2.0, 6.0]]
        out = coarsen_coefficients(coeff, g.coarsened())
        assert out.mu_cell.data[0, 0] == pytest.approx(3.0)

    def test_node_direct_injection(self, rng):
        g = mkgrid(8, bc=NO_SLIP)
        mu = CellField(g, 1.0 + rng.random(g.cells))
        coeff = make_coefficients(g, 0.0, CellField(g, np.ones(g.cells)), mu)
        fine_nodes = coeff.mu_node_edge.plane(0, 1)
        out = coarsen_coefficients(coeff, g.coarsened())
        coarse_nodes = out.mu_node_edge.plane(0, 1)
        assert np.array_equal(coarse_nodes, fine_nodes[::2, ::2])

    def test_face_overlay_mean(self, rng):
        g = mkgrid(8, bc=NO_SLIP)
        rho = CellField(g, 1.0 + rng.random(g.cells))
        coeff = make_coefficients(g, 1.0, rho, poisson_coeff(g).mu_cell)
        out = coarsen_coefficients(coeff, g.coarsened())
        fine = coeff.rho_face.components[0]
        assert out.rho_face.components[0][1, 1] == pytest.approx(
            0.5 * (fine[2, 2] + fine[2, 3]))

    def test_3d_edge_overlay_mean(self, rng):
        g = mkgrid(4, bc=NO_SLIP, dim=3)
        mu = CellField(g, np.abs(random_cell(g, rng).data) + 1.0)
        coeff = make_coefficients(g, 0.0, CellField(g, np.ones(g.cells)), mu)
        out = coarsen_coefficients(coeff, g.coarsened())
        fine = coeff.mu_node_edge.plane(0, 1)  # z-oriented edges
        got = out.mu_node_edge.plane(0, 1)
        assert got[1, 1, 0] == pytest.approx(0.5 * (fine[2, 2, 0] + fine[2, 2, 1]))

    @pytest.mark.parametrize("dim", [2, 3])
    @pytest.mark.parametrize("bc", [PERIODIC, NO_SLIP, FREE_SLIP])
    def test_every_level_array_is_c_contiguous(self, dim, bc, rng):
        # the compiled kernels read coefficients in place and refuse a
        # strided view
        g = mkgrid(16 if dim == 2 else 8, bc=bc, dim=dim)
        coeff = make_coefficients(g, 0.5, CellField(g, 1.0 + rng.random(g.cells)),
                                  CellField(g, 1.0 + rng.random(g.cells)),
                                  CellField(g, rng.random(g.cells)))
        hier = build_hierarchy(g, coeff)
        assert len(hier) >= 3
        for c in hier.levels:
            arrays = [c.mu_cell.data, c.gamma_cell.data,
                      *c.rho_face.components, *c.mu_node_edge.arrays.values()]
            assert all(arr.flags.c_contiguous for arr in arrays)


class TestTransfers:
    def test_restrict_cell_children(self):
        g = mkgrid(8, bc=NO_SLIP)
        f = CellField.zeros(g)
        f.data[0:2, 0:2] = [[1.0, 3.0], [2.0, 6.0]]
        assert restrict_cell(f).data[0, 0] == pytest.approx(3.0)

    def test_restrict_face_paper_example(self):
        g = mkgrid(8, bc=NO_SLIP)
        u = FaceField.zeros(g)
        u.components[0][1, 2] = 8.0   # fine (2i-1, 2j) for coarse (1, 1)
        u.components[0][2, 2] = 4.0   # fine (2i, 2j)
        assert restrict_face(u).components[0][1, 1] == pytest.approx(2.0)

    def test_restrict_odd_rejected(self):
        g = mkgrid((6, 6), bc=NO_SLIP)
        c = restrict_cell(CellField.zeros(g))  # 6 -> 3 fine
        with pytest.raises(ValueError):
            restrict_cell(c)
        with pytest.raises(ValueError):
            restrict_face(FaceField.zeros(c.grid))

    def test_prolong_cell_injection(self):
        g = mkgrid(4, bc=NO_SLIP)
        c = CellField.zeros(g)
        c.data[1, 2] = 7.0
        f = prolong_cell(c)
        assert np.all(f.data[2:4, 4:6] == 7.0)
        assert f.data.sum() == pytest.approx(4 * 7.0)

    def test_prolong_face_paper_examples(self):
        g = mkgrid(4, bc=NO_SLIP)
        c = FaceField.zeros(g)
        c.components[0][2, 2] = 4.0
        c.components[0][2, 1] = 8.0
        assert prolong_face(c).components[0][4, 4] == pytest.approx(5.0)
        c2 = FaceField.zeros(g)
        c2.components[0][2, 2] = 4.0
        c2.components[0][3, 2] = 8.0
        assert prolong_face(c2).components[0][5, 4] == pytest.approx(4.5)

    @pytest.mark.parametrize("dim", [2, 3])
    def test_transfers_return_the_hierarchy_grids(self, dim, rng):
        # a transfer hands on the hierarchy's own grid objects, built once
        g, coeff = smoother_case(MIXED_WALLS, dim, STRESS, rng)
        grids = [level.grid for level in build_hierarchy(g, coeff).levels]
        assert len(grids) >= 2
        for fine, coarse in zip(grids, grids[1:]):
            assert restrict_cell(CellField.zeros(fine)).grid is coarse
            assert restrict_face(FaceField.zeros(fine)).grid is coarse
            assert prolong_cell(CellField.zeros(coarse)).grid is fine
            assert prolong_face(FaceField.zeros(coarse)).grid is fine

    @pytest.mark.parametrize("dim", [2, 3])
    @pytest.mark.parametrize("bc", [PERIODIC, NO_SLIP, FREE_SLIP])
    def test_partition_of_unity(self, dim, bc):
        g = mkgrid(8 if dim == 2 else 4, bc=bc, dim=dim)
        const = FaceField(g, tuple(np.full(g.face_shape(a), 3.0) for a in range(dim)))
        r = restrict_face(const)
        for a in range(dim):
            assert np.allclose(r.interior(a), 3.0)
        gc = g.coarsened()
        constc = FaceField(gc, tuple(np.full(gc.face_shape(a), 3.0) for a in range(dim)))
        p = prolong_face(constc)
        for a in range(dim):
            # rows sum to one everywhere, including wall-adjacent rows
            assert np.allclose(p.interior(a), 3.0)
        cc = CellField(gc, np.full(gc.cells, 3.0))
        assert np.allclose(prolong_cell(cc).data, 3.0)
        assert np.allclose(restrict_cell(CellField(g, np.full(g.cells, 3.0))).data, 3.0)


class TestSmoothers:
    def test_diagonal_system_solved_in_one_sweep(self, rng):
        # theta*rho*u = r with mu = 0 is diagonal; omega = 1 lands exactly
        g = mkgrid(8, bc=NO_SLIP)
        rho = CellField(g, 1.0 + rng.random(g.cells))
        coeff = make_coefficients(g, 2.0, rho, CellField.zeros(g))
        diag = helmholtz_diagonal(g, coeff)
        rhs = random_face(g, rng)
        u = FaceField.zeros(g)
        smooth_face(u, rhs, g, coeff, diag, omega=1.0)
        r = rhs - apply_A(u, coeff)
        assert norm2(r) <= 1e-13 * norm2(rhs)

    def test_exact_solution_is_fixed_point(self, rng):
        g = mkgrid(8, bc=PERIODIC)
        coeff = poisson_coeff(g)
        x = random_cell(g, rng, mean_zero=True)
        rhs = apply_Lrho(x, coeff)
        before = x.copy()
        smooth_cell(x, rhs, g, coeff, lrho_diagonal(g, coeff), omega=1.0)
        assert norm2(x - before) <= 1e-12 * norm2(before)

    def test_residual_nonincreasing(self, rng):
        g = mkgrid(32, bc=NO_SLIP)
        coeff = poisson_coeff(g)
        diag = lrho_diagonal(g, coeff)
        rhs = random_cell(g, rng, mean_zero=True)
        x = CellField.zeros(g)
        prev = norm2(rhs)
        for _ in range(4):
            smooth_cell(x, rhs, g, coeff, diag, omega=1.0)
            rn = norm2(CellField(g, rhs.data - apply_Lrho(x, coeff).data))
            assert rn <= prev * (1 + 1e-12)
            prev = rn



def reference_face_sweep(u, rhs, grid, coeff, diag, omega):
    """smooth_face's colour order and parity masks, residuals from apply_A."""
    for a in range(grid.dim):
        interior = grid.interior_slices(a)
        for parity in (0, 1):
            res = (rhs - apply_A(u, coeff)).components[a][interior]
            view = u.components[a][interior]
            mask = np.indices(view.shape).sum(axis=0) % 2 == parity
            view[mask] += omega * res[mask] / diag.components[a][interior][mask]


def reference_cell_sweep(phi, rhs, coeff, diag, omega):
    """Red-black masks with a full apply_Lrho residual per colour."""
    for parity in (0, 1):
        res = rhs.data - apply_Lrho(phi, coeff).data
        mask = np.indices(phi.data.shape).sum(axis=0) % 2 == parity
        phi.data[mask] += omega * res[mask] / diag.data[mask]


def operator_face_sweep(u, rhs, grid, coeff, diag, omega):
    """smooth_face's relaxation, each component's residual from apply_A."""
    for a in range(grid.dim):
        res = rhs.components[a] - apply_A(u, coeff).components[a]
        _sweep(grid, u.components[a], res, grid.interior_slices(a),
               diag.components[a], viscous_couplings(grid, coeff, a), omega)


def operator_cell_sweep(phi, rhs, grid, coeff, diag, omega):
    """smooth_cell's relaxation, its residual from apply_Lrho."""
    res = rhs.data - apply_Lrho(phi, coeff).data
    _sweep(grid, phi.data, res, (slice(None),) * grid.dim, diag.data,
           lrho_couplings(grid, coeff), omega)


# odd periodic counts: each colour touches itself across the wrap
ODD_PERIODIC = {
    2: ((6, 3), [(PERIODIC, PERIODIC)] * 2),
    3: ((3, 3, 3), [(PERIODIC, PERIODIC)] * 3),
}


def smoother_case(grids, dim, form, rng, theta=0.4):
    cells, bc = grids[dim]
    g = mkgrid(cells, bc=bc, h=0.5)
    mu = CellField(g, 1.0 + rng.random(g.cells))
    rho = CellField(g, 1.0 + rng.random(g.cells))
    gamma = CellField(g, rng.random(g.cells))
    return g, make_coefficients(g, theta, rho, mu, gamma, viscous_form=form)


class TestSmootherMatchesOperator:
    # smoother_case's h = 0.5 is a power of two, so the smoothers' residuals
    # round exactly like rhs - A x formed from the operators
    def check_face_sweep(self, grids, form, dim, theta, rng):
        g, coeff = smoother_case(grids, dim, form, rng, theta)
        diag = helmholtz_diagonal(g, coeff)
        rhs = random_face(g, rng)
        u = random_face(g, rng)
        ref, exact = u.copy(), u.copy()
        smooth_face(u, rhs, g, coeff, diag, omega=0.8)
        reference_face_sweep(ref, rhs, g, coeff, diag, omega=0.8)
        assert norm2(u - ref) <= 1e-13 * norm2(ref)
        operator_face_sweep(exact, rhs, g, coeff, diag, 0.8)
        for x, y in zip(u.components, exact.components):
            assert np.array_equal(x, y)

    @pytest.mark.parametrize("form", [LAPLACIAN, STRESS, STRESS_BULK])
    @pytest.mark.parametrize("dim", [2, 3])
    def test_one_sweep_matches_full_operator_sweep(self, form, dim, rng):
        self.check_face_sweep(MIXED_WALLS, form, dim, 0.4, rng)

    @pytest.mark.parametrize("form", [LAPLACIAN, STRESS, STRESS_BULK])
    @pytest.mark.parametrize("dim", [2, 3])
    def test_one_sweep_matches_on_odd_periodic_grid(self, form, dim, rng):
        self.check_face_sweep(ODD_PERIODIC, form, dim, 0.4, rng)

    @pytest.mark.parametrize("grids", [MIXED_WALLS, ODD_PERIODIC],
                             ids=["mixed_walls", "odd_periodic"])
    @pytest.mark.parametrize("form", [LAPLACIAN, STRESS, STRESS_BULK])
    @pytest.mark.parametrize("dim", [2, 3])
    def test_steady_sweep_matches_full_operator_sweep(self, grids, form, dim, rng):
        # theta = 0: the smoother's residual forms no mass term
        self.check_face_sweep(grids, form, dim, 0.0, rng)

    @pytest.mark.parametrize("grids", [MIXED_WALLS, ODD_PERIODIC],
                             ids=["mixed_walls", "odd_periodic"])
    @pytest.mark.parametrize("dim", [2, 3])
    def test_one_cell_sweep_matches_full_operator_sweep(self, grids, dim, rng):
        g, coeff = smoother_case(grids, dim, STRESS, rng)
        diag = lrho_diagonal(g, coeff)
        rhs = random_cell(g, rng)
        phi = random_cell(g, rng)
        ref, exact = phi.copy(), phi.copy()
        smooth_cell(phi, rhs, g, coeff, diag, omega=0.8)
        reference_cell_sweep(ref, rhs, coeff, diag, omega=0.8)
        assert norm2(phi - ref) <= 1e-13 * norm2(ref)
        operator_cell_sweep(exact, rhs, g, coeff, diag, 0.8)
        assert np.array_equal(phi.data, exact.data)


class TestSmootherCost:
    # each smoother call is one library sweep, which forms its own residuals
    # (the face sweep one per component, the first skipped under zero_guess);
    # smg_sweep takes the kind (nonzero: cell) first and zero_guess fourth

    @classmethod
    def count_residuals(cls, monkeypatch, calls, flags=None):
        """Count library sweeps whose ``zero_guess`` argument is false into
        ``calls``, and append every sweep's flag to ``flags[kind]``."""
        lib = kernels.load()

        def run(*args, _f=lib.smg_sweep):
            kind = "cell" if args[0] else "face"
            calls[kind] += not args[3]
            if flags is not None:
                flags[kind].append(args[3])
            return _f(*args)

        monkeypatch.setattr(lib, "smg_sweep", run)

    @pytest.mark.parametrize("zero_guess", [False, True])
    @pytest.mark.parametrize("dim", [2, 3])
    def test_one_library_sweep_per_smoother_call(self, dim, zero_guess, rng, monkeypatch):
        calls, flags = {"face": 0, "cell": 0}, {"face": [], "cell": []}
        self.count_residuals(monkeypatch, calls, flags)
        g, coeff = smoother_case(MIXED_WALLS, dim, STRESS, rng)
        smooth_face(random_face(g, rng), random_face(g, rng), g, coeff,
                    helmholtz_diagonal(g, coeff), 1.0, zero_guess)
        smooth_cell(random_cell(g, rng), random_cell(g, rng), g, coeff,
                    lrho_diagonal(g, coeff), 1.0, zero_guess)
        assert flags == {"face": [zero_guess], "cell": [zero_guess]}

    @classmethod
    def count_in_smoothers(cls, monkeypatch):
        """Count the reference V-cycle's smoother calls and the residuals
        their kernels form."""
        calls = dict.fromkeys(["smooth_face", "smooth_cell", "face", "cell"], 0)

        def counted(name):
            original = getattr(kernels, name)

            def run(*args, **kwargs):
                calls[name] += 1
                return original(*args, **kwargs)

            return run

        for name in ("smooth_face", "smooth_cell"):
            monkeypatch.setattr(kernels, name, counted(name))
        cls.count_residuals(monkeypatch, calls)
        return calls

    @pytest.mark.parametrize("dim", [2, 3])
    def test_zero_iterate_sweeps_skip_the_operator(self, dim, rng, monkeypatch):
        # every level's pre-smoothing (and the bottom relaxation) starts
        # from x = 0, so its first sweep takes rhs as the residual
        g, coeff = smoother_case(MIXED_WALLS, dim, STRESS_BULK, rng, theta=0.7)
        hier = build_hierarchy(g, coeff)
        levels = len(hier)
        assert levels >= 2
        calls = self.count_in_smoothers(monkeypatch)
        reference.vcycle(random_face(g, rng), hier, SmootherParams())
        assert calls["face"] == calls["smooth_face"] - levels
        reference.vcycle(random_cell(g, rng), hier, SmootherParams())
        assert calls["cell"] == calls["smooth_cell"] - levels

    @pytest.mark.parametrize("omega", [1.0, 0.8])
    @pytest.mark.parametrize("dim", [2, 3])
    def test_zero_iterate_skip_is_exact_in_vcycles(self, dim, omega, rng, monkeypatch):
        # the library's cycle skips the operator on zero iterates; the
        # reference cycle with every sweep applying A gives the same bits
        g, coeff = smoother_case(MIXED_WALLS, dim, STRESS_BULK, rng, theta=0.7)
        hier = build_hierarchy(g, coeff)
        params = SmootherParams(omega=omega)
        rhs = {"face": random_face(g, rng), "cell": random_cell(g, rng)}
        skipped = {kind: vcycle(r, hier, params) for kind, r in rhs.items()}
        for name in ("smooth_face", "smooth_cell"):
            original = getattr(kernels, name)
            # drop the positional zero-iterate flag: every sweep applies A
            monkeypatch.setattr(kernels, name,
                                lambda *args, _f=original: _f(*args[:6]))
        for kind, r in rhs.items():
            full = reference.vcycle(r, hier, params)
            for x, y in zip(reference.field_arrays(full),
                            reference.field_arrays(skipped[kind]), strict=True):
                assert np.array_equal(x, y)

    @pytest.mark.parametrize("grids", [MIXED_WALLS, ODD_PERIODIC],
                             ids=["mixed_walls", "odd_periodic"])
    @pytest.mark.parametrize("dim", [2, 3])
    def test_zero_iterate_sweep_is_exact(self, grids, dim, rng):
        g, coeff = smoother_case(grids, dim, STRESS_BULK, rng, theta=0.7)
        rhs_f, rhs_c = random_face(g, rng), random_cell(g, rng)
        out = {}
        for zero_guess in (False, True):
            u, phi = FaceField.zeros(g), CellField.zeros(g)
            smooth_face(u, rhs_f, g, coeff, helmholtz_diagonal(g, coeff), 0.8, zero_guess)
            smooth_cell(phi, rhs_c, g, coeff, lrho_diagonal(g, coeff), 0.8, zero_guess)
            out[zero_guess] = (*u.components, phi.data)
        for x, y in zip(out[False], out[True]):
            assert np.array_equal(x, y)


class TestSmootherArguments:
    @pytest.mark.parametrize("dim", [2, 3])
    def test_smoothers_are_called_positionally(self, dim, rng, monkeypatch):
        # span tracers wrap the smoothers as (x, rhs, grid, *rest), with no
        # keyword arguments, so the reference V-cycle, which drives the
        # stand-alone smoothers, passes every argument by position
        calls = dict.fromkeys(["smooth_face", "smooth_cell"], 0)

        def positional(name):
            original = getattr(kernels, name)

            def run(x, rhs, grid, *rest):
                calls[name] += 1
                return original(x, rhs, grid, *rest)

            return run

        for name in calls:
            monkeypatch.setattr(kernels, name, positional(name))
        g, coeff = smoother_case(MIXED_WALLS, dim, STRESS_BULK, rng, theta=0.7)
        hier = build_hierarchy(g, coeff)
        params = SmootherParams()
        for rhs in (random_face(g, rng), random_cell(g, rng)):
            reference.vcycle(rhs, hier, params)
        assert all(calls.values())


class TestLibraryCalls:
    @classmethod
    def count_calls(cls, monkeypatch):
        """Count every call of every library entry, by name."""
        lib, calls = kernels.load(), {}
        for name in kernels.SIGNATURES:
            def run(*args, _f=getattr(lib, name), _name=name):
                calls[_name] = calls.get(_name, 0) + 1
                return _f(*args)

            monkeypatch.setattr(lib, name, run)
        return calls

    @pytest.mark.parametrize("dim", [2, 3])
    def test_one_library_call_per_vcycle(self, dim, rng, monkeypatch):
        # a kind's first cycle also forms every level's diagonal, once
        g, coeff = smoother_case(MIXED_WALLS, dim, STRESS_BULK, rng, theta=0.7)
        hier = build_hierarchy(g, coeff)
        assert len(hier) >= 2
        calls = self.count_calls(monkeypatch)
        params = SmootherParams()
        for rhs in (random_face(g, rng), random_cell(g, rng)):
            vcycle(rhs, hier, params)
            assert calls == {"smg_diag": len(hier), "smg_vcycle": 1}
            calls.clear()
            vcycle(rhs, hier, params)
            assert calls == {"smg_vcycle": 1}
            calls.clear()

    def test_plans_hold_addresses_only(self, rng):
        # a kind's plan takes a few hundred bytes per level, whatever the
        # grid's size: no workspace outlives a cycle
        per_level = []
        for n in (8, 64):
            g = mkgrid(n, bc=NO_SLIP)
            hier = build_hierarchy(g, constant_coefficients(g, theta=0.0))
            for rhs in (random_face(g, rng), random_cell(g, rng)):
                vcycle(rhs, hier, SmootherParams())
            per_level.append({cell: ctypes.sizeof(hier.plan(cell)) / len(hier)
                              for cell in (True, False)})
        assert per_level[0] == per_level[1]
        assert all(size < 500 for size in per_level[0].values())


class TestVcycle:
    def test_zero_rhs(self):
        g = mkgrid(16, bc=NO_SLIP)
        hier = build_hierarchy(g, poisson_coeff(g))
        out = vcycle(CellField.zeros(g), hier, SmootherParams())
        assert norm2(out) == 0.0

    def test_linearity(self, rng):
        g = mkgrid(16, bc=NO_SLIP)
        hier = build_hierarchy(g, poisson_coeff(g))
        params = SmootherParams()
        r1, r2 = random_cell(g, rng), random_cell(g, rng)
        a, b = 0.7, -1.3
        combined = vcycle(CellField(g, a * r1.data + b * r2.data), hier, params)
        split = a * vcycle(r1, hier, params).data \
            + b * vcycle(r2, hier, params).data
        scale = max(norm2(combined), 1.0)
        assert np.abs(combined.data - split).max() <= 1e-12 * scale

    def test_bit_determinism(self, rng):
        g = mkgrid(16, bc=NO_SLIP)
        coeff = constant_coefficients(g, theta=0.0, viscous_form=STRESS)
        hier = build_hierarchy(g, coeff)
        rhs = random_face(g, rng)
        p = SmootherParams()
        out1 = vcycle(rhs, hier, p)
        out2 = vcycle(rhs, hier, p)
        for a in range(2):
            assert np.array_equal(out1.components[a], out2.components[a])

    def test_rhs_that_is_not_a_field_rejected(self):
        # the right-hand side's type selects the cycle: a bare array or a
        # node/edge field has no V-cycle
        g = mkgrid(16, bc=NO_SLIP)
        hier = build_hierarchy(g, poisson_coeff(g))
        for rhs in (np.zeros(g.cells), NodeEdgeField.zeros(g)):
            for solve in (lambda r: vcycle(r, hier, SmootherParams()),
                          lambda r: mg_solve(r, hier, SmootherParams(), 2),
                          lambda r: next(mg_cycles(r, hier, SmootherParams()))):
                with pytest.raises(LayoutError):
                    solve(rhs)

    def test_pressure_contraction_256(self, rng):
        g = mkgrid(256, bc=NO_SLIP)
        coeff = poisson_coeff(g)
        hier = build_hierarchy(g, coeff)
        params = SmootherParams()
        rhs = random_cell(g, rng, mean_zero=True)
        x = CellField.zeros(g)
        prev = norm2(rhs)
        for cycle in range(4):
            res = CellField(g, rhs.data - apply_Lrho(x, coeff).data)
            x.data += vcycle(res, hier, params).data
            rn = norm2(CellField(g, rhs.data - apply_Lrho(x, coeff).data))
            assert rn / prev <= 0.15
            prev = rn


class TestMgSolve:
    def test_single_cycle_equals_vcycle(self, rng):
        g = mkgrid(16, bc=NO_SLIP)
        coeff = poisson_coeff(g)
        hier = build_hierarchy(g, coeff)
        rhs = random_cell(g, rng, mean_zero=True)
        params = SmootherParams()
        a = mg_solve(rhs, hier, params, 1)
        b = vcycle(rhs, hier, params)
        assert np.array_equal(a.data, b.data)

    @pytest.mark.parametrize("n_cycles", [0, 2.5, "2", multigrid.MAX_CYCLES + 1])
    def test_cycle_count_validated(self, n_cycles):
        # refused as the configs refuse them: not a TypeError from range,
        # and no solve past MAX_CYCLES
        g = mkgrid(8, bc=NO_SLIP)
        hier = build_hierarchy(g, poisson_coeff(g))
        rhs = CellField.zeros(g)
        with pytest.raises(ValueError, match="cycles"):
            mg_solve(rhs, hier, SmootherParams(), n_cycles)
        mg_solve(rhs, hier, SmootherParams(), multigrid.MAX_CYCLES)

    def test_dozen_cycles_reach_1e10_512(self, rng):
        # publication-size pressure solve: about a dozen V-cycles to 1e-10
        g = mkgrid(512, bc=NO_SLIP)
        coeff = poisson_coeff(g)
        hier = build_hierarchy(g, coeff)
        rhs = random_cell(g, rng, mean_zero=True)
        x = mg_solve(rhs, hier, SmootherParams(), 12)
        rel = norm2(CellField(g, rhs.data - apply_Lrho(x, coeff).data)) / norm2(rhs)
        assert rel <= 1e-10

    def test_monotone_residual_in_cycles(self, rng):
        g = mkgrid(32, bc=NO_SLIP)
        coeff = poisson_coeff(g)
        hier = build_hierarchy(g, coeff)
        rhs = random_cell(g, rng, mean_zero=True)
        prev = norm2(rhs)
        for n in range(1, 6):
            x = mg_solve(rhs, hier, SmootherParams(), n)
            rn = norm2(CellField(g, rhs.data - apply_Lrho(x, coeff).data))
            assert rn < prev
            prev = rn

    def test_velocity_contraction_128_stress(self, rng):
        g = mkgrid(128, bc=NO_SLIP)
        coeff = constant_coefficients(g, theta=0.0, viscous_form=STRESS)
        hier = build_hierarchy(g, coeff)
        params = SmootherParams()
        rhs = random_face(g, rng)
        x = FaceField.zeros(g)
        prev = norm2(rhs)
        for cycle in range(5):
            res = rhs - apply_A(x, coeff)
            corr = vcycle(res, hier, params)
            for a in range(2):
                x.components[a][...] += corr.components[a]
            rn = norm2(rhs - apply_A(x, coeff))
            assert rn / prev <= 0.2
            prev = rn


class TestDiagonals3d:
    @pytest.mark.parametrize("form", [STRESS])
    def test_mixed_freeslip_diagonal_matches_probing_3d(self, form, rng):
        from stokesmg.operators import (LAPLACIAN, STRESS_BULK, apply_A,
                                        helmholtz_diagonal)

        g = mkgrid(4, bc=[(FREE_SLIP, FREE_SLIP), (NO_SLIP, NO_SLIP),
                          (FREE_SLIP, FREE_SLIP)], dim=3, h=0.5)
        mu = CellField(g, 1.0 + rng.random(g.cells))
        rho = CellField(g, 1.0 + rng.random(g.cells))
        gam = CellField(g, rng.random(g.cells))
        for frm in (LAPLACIAN, STRESS, STRESS_BULK):
            coeff = make_coefficients(g, 0.4, rho, mu, gam, viscous_form=frm)
            diag = helmholtz_diagonal(g, coeff)
            for a in range(3):
                for idx in np.ndindex(g.face_shape(a)):
                    if not g.periodic(a) and idx[a] in (0, g.cells[a]):
                        continue
                    e = FaceField.zeros(g)
                    e.components[a][idx] = 1.0
                    assert apply_A(e, coeff).components[a][idx] == pytest.approx(
                        diag.components[a][idx], rel=1e-12), (frm, a, idx)
