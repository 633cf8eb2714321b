import numpy as np
import pytest

from stokesmg import _exact
from stokesmg._exact import DenseCellSolver, DenseFaceSolver, probe_columns, probe_sparse
from stokesmg.grid import (
    FREE_SLIP,
    NO_SLIP,
    PERIODIC,
    CellField,
    FaceField,
    pack_cell,
    pack_face,
    unpack_cell,
    unpack_face,
)
from stokesmg.operators import (
    LAPLACIAN,
    STRESS,
    STRESS_BULK,
    apply_A,
    apply_Lrho,
    div,
    grad,
    make_coefficients,
    velocity_null_components,
)
from stokesmg.problems import constant_coefficients
from stokesmg.spectrum import assemble_dense, schur_complement_matrix

import reference
from conftest import mkgrid

P = (PERIODIC, PERIODIC)
#: (cells, bc); the odd periodic counts need the fallback colours
GRIDS = {
    "periodic": ((6, 4), [P, P]),
    "no_slip": ((4, 5), [(NO_SLIP, NO_SLIP)] * 2),
    "free_slip": ((5, 4), [(FREE_SLIP, FREE_SLIP)] * 2),
    "mixed": ((6, 5), [(NO_SLIP, FREE_SLIP), P]),
    "odd_periodic_5": ((5, 5), [P, P]),
    "odd_periodic_7": ((7, 7), [P, P]),
    "odd_periodic_7_walls": ((7, 4), [P, (NO_SLIP, NO_SLIP)]),
    "3d_odd_periodic": ((5, 3, 4), [P, P, P]),
    "3d_mixed": ((4, 5, 4), [(NO_SLIP, FREE_SLIP), P, (FREE_SLIP, NO_SLIP)]),
}


def variable_case(name, theta, rng, form=STRESS):
    cells, bc = GRIDS[name]
    g = mkgrid(cells, bc=bc, h=0.5)
    mu = CellField(g, 1.0 + rng.random(g.cells))
    rho = CellField(g, 1.0 + rng.random(g.cells))
    gamma = CellField(g, rng.random(g.cells))
    return g, make_coefficients(g, theta, rho, mu, gamma, viscous_form=form)


def face_shapes(g):
    return [FaceField.zeros(g).interior(a).shape for a in range(g.dim)]


def face_op(g, coeff):
    return lambda v: pack_face(apply_A(unpack_face(g, v), coeff))


def cell_op(g, coeff):
    return lambda v: pack_cell(apply_Lrho(unpack_cell(g, v), coeff))


def n_face(g):
    return sum(g.n_face_unknowns(a) for a in range(g.dim))


def face_nulls(g, coeff):
    sizes = [g.n_face_unknowns(a) for a in range(g.dim)]
    offsets = np.cumsum([0] + sizes)
    nulls = []
    for a in velocity_null_components(g, coeff):
        v = np.zeros(offsets[-1])
        v[offsets[a]:offsets[a + 1]] = 1.0 / np.sqrt(sizes[a])
        nulls.append(v)
    return nulls


def rel_err(x, ref):
    return np.linalg.norm(x - ref) / np.linalg.norm(ref)


class TestColouredProbe:
    @pytest.mark.parametrize("theta", [0.0, 0.7])
    @pytest.mark.parametrize("form", [LAPLACIAN, STRESS, STRESS_BULK])
    @pytest.mark.parametrize("name", list(GRIDS))
    def test_velocity_operator_bitwise(self, name, form, theta, rng):
        g, coeff = variable_case(name, theta, rng, form)
        sparse = probe_sparse(face_op(g, coeff), g, face_shapes(g))
        assert np.array_equal(sparse.toarray(), probe_columns(face_op(g, coeff), n_face(g)))

    @pytest.mark.parametrize("name", list(GRIDS))
    def test_pressure_operator_bitwise(self, name, rng):
        g, coeff = variable_case(name, 0.7, rng)
        sparse = probe_sparse(cell_op(g, coeff), g, [g.cells])
        dense = probe_columns(cell_op(g, coeff), g.n_cell_unknowns())
        assert np.array_equal(sparse.toarray(), dense)

    def test_stencil_beyond_one_index_rejected(self):
        # row 0 reads index 2, whose colour the wall leaves without a window column
        g = mkgrid(6, bc=NO_SLIP)
        with pytest.raises(RuntimeError, match="no column"):
            probe_sparse(lambda v: np.roll(v, -2), g, [g.cells])

    def test_probe_count_48_periodic(self, monkeypatch):
        # one apply per component and colour: 2 components x 3^2 colours
        calls = {"apply_A": 0, "apply_Lrho": 0}

        def counted(name):
            original = getattr(_exact, name)

            def run(*args, **kwargs):
                calls[name] += 1
                return original(*args, **kwargs)

            return run

        for name in calls:
            monkeypatch.setattr(_exact, name, counted(name))
        g = mkgrid(48, bc=PERIODIC)
        coeff = constant_coefficients(g)
        DenseFaceSolver(g, coeff)
        DenseCellSolver(g, coeff)
        assert calls == {"apply_A": 2 * 9, "apply_Lrho": 9}


class TestSparseSolveMatchesDenseOracle:
    TOL = 1e-12

    @pytest.mark.parametrize("theta", [0.0, 0.7])
    @pytest.mark.parametrize("name", ["periodic", "no_slip", "mixed", "odd_periodic_5",
                                      "3d_odd_periodic", "3d_mixed"])
    def test_face_solver(self, name, theta, rng):
        g, coeff = variable_case(name, theta, rng)
        A = probe_columns(face_op(g, coeff), n_face(g))
        nulls = face_nulls(g, coeff)
        solver = DenseFaceSolver(g, coeff)
        b = rng.standard_normal(n_face(g))
        consistent = b - sum((v @ b) * v for v in nulls)
        for rhs in (b, consistent):
            ref = reference.dense_shifted_solve(A, nulls, rhs)
            assert rel_err(solver.solve_packed(rhs), ref) <= self.TOL
            assert rel_err(pack_face(solver.solve(unpack_face(g, rhs))), ref) <= self.TOL

    @pytest.mark.parametrize("name", ["periodic", "no_slip", "odd_periodic_7_walls",
                                      "3d_mixed"])
    def test_cell_solver(self, name, rng):
        g, coeff = variable_case(name, 0.7, rng)
        n = g.n_cell_unknowns()
        L = probe_columns(cell_op(g, coeff), n)
        solver = DenseCellSolver(g, coeff)
        b = rng.standard_normal(n)
        for rhs in (b, b - b.mean()):
            ref = reference.dense_shifted_solve(L, [np.full(n, 1.0 / np.sqrt(n))], rhs)
            assert rel_err(solver.solve_packed(rhs), ref) <= self.TOL
            assert rel_err(pack_cell(solver.solve(unpack_cell(g, rhs))), ref) <= self.TOL

    @pytest.mark.parametrize("name", ["periodic", "no_slip", "mixed"])
    def test_schur_complement_matrix(self, name, rng):
        g, coeff = variable_case(name, 0.0, rng)
        A = probe_columns(face_op(g, coeff), n_face(g))
        G = assemble_dense(grad, g, domain="cell", codomain="face")
        D = assemble_dense(div, g, domain="face", codomain="cell")
        ref = -D @ reference.dense_shifted_solve(A, face_nulls(g, coeff), G)
        assert rel_err(schur_complement_matrix(g, coeff), ref) <= self.TOL
