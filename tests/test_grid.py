import pickle

import numpy as np
import pytest

from stokesmg.grid import (
    FREE_SLIP,
    NO_SLIP,
    PERIODIC,
    BoundaryCondition,
    CellField,
    FaceField,
    GridSpec,
    LayoutError,
    NodeEdgeField,
    StokesVector,
    dot,
    norm2,
    pack_stokes,
    unpack_face,
    unpack_stokes,
)

from conftest import mkgrid, random_cell, random_face, random_stokes


class TestGridSpec:
    def test_dim_validation(self):
        with pytest.raises(ValueError):
            GridSpec((8,), 1.0, ((PERIODIC, PERIODIC),))
        with pytest.raises(ValueError):
            GridSpec((8, 8, 8, 8), 1.0, ((PERIODIC, PERIODIC),) * 4)

    def test_cells_validation(self):
        with pytest.raises(ValueError):
            mkgrid((8, 1))
        with pytest.raises(ValueError):
            mkgrid(8, h=0.0)

    @pytest.mark.parametrize("cells", [(8.9, 8), (8.0, 8), ("8", 8), (8, None)])
    def test_non_integer_cell_counts_rejected(self, cells):
        # a count is taken as it is or refused, never truncated
        with pytest.raises(ValueError, match="integers"):
            GridSpec(cells, 1.0, ((NO_SLIP, NO_SLIP),) * 2)
        grid = GridSpec((np.int64(8), 6), 1.0, ((NO_SLIP, NO_SLIP),) * 2)
        assert grid.cells == (8, 6) and all(type(n) is int for n in grid.cells)

    @pytest.mark.parametrize("names", [("no_slip", "no_slip"), ("free_slip", "no_slip"),
                                       ("periodic", "periodic")])
    def test_boundary_conditions_take_their_type_at_construction(self, names, rng):
        # a condition given by its value is its member, so the faces are
        # sized, and the library is told the walls, as for the member
        from stokesmg.operators import apply_A, make_coefficients

        members = tuple(BoundaryCondition(name) for name in names)
        by_name = GridSpec((8, 8), 0.25, (names, names))
        grid = GridSpec((8, 8), 0.25, (members, members))
        assert by_name == grid and all(b is m for b, m in zip(by_name.bc[0], members))
        outputs = []
        for g in (by_name, grid):
            ones = CellField(g, np.ones(g.cells))
            u = FaceField(g, tuple(np.ones(g.face_shape(a)) for a in range(2)))
            outputs.append(apply_A(u, make_coefficients(g, 1.0, ones, ones)).components)
        assert [c.tobytes() for c in outputs[0]] == [c.tobytes() for c in outputs[1]]
        with pytest.raises(ValueError):
            GridSpec((8, 8), 0.25, (("wall", "wall"),) * 2)

    @pytest.mark.parametrize("h", ["0.5", None, True, 10**400],
                             ids=["str", "None", "bool", "int-beyond-float"])
    def test_non_real_spacing_rejected(self, h):
        # refused like any other bad spacing, with ValueError; a bool is an
        # int to Python, but no spacing
        with pytest.raises(ValueError, match="grid spacing"):
            GridSpec((8, 8), h, ((NO_SLIP, NO_SLIP),) * 2)

    def test_integer_spacing_stored_as_float(self):
        grid = GridSpec((8, 8), 1, ((NO_SLIP, NO_SLIP),) * 2)
        assert type(grid.h) is float and grid.h == 1.0

    @pytest.mark.parametrize("h", [np.inf, np.nan, -np.inf, 1e-200, 1e200, 1e-160,
                                   np.float64(1e200)])
    def test_nonfinite_spacing_rejected(self, h):
        with pytest.raises(ValueError, match="positive and finite"):
            mkgrid(8, h=h)

    def test_periodic_pairing(self):
        with pytest.raises(ValueError):
            GridSpec((8, 8), 1.0, ((PERIODIC, NO_SLIP), (NO_SLIP, NO_SLIP)))
        # matched pairs are fine, even mixed across axes
        GridSpec((8, 8), 1.0, ((PERIODIC, PERIODIC), (NO_SLIP, FREE_SLIP)))

    def test_face_shapes(self):
        g = mkgrid((8, 4), bc=NO_SLIP)
        assert g.face_shape(0) == (9, 4)
        assert g.face_shape(1) == (8, 5)
        gp = mkgrid((8, 4), bc=PERIODIC)
        assert gp.face_shape(0) == (8, 4)

    def test_node_edge_shapes(self):
        g = mkgrid(4, bc=NO_SLIP, dim=3)
        assert g.node_edge_shape((0, 1)) == (5, 5, 4)
        assert g.node_edge_shape((1, 2)) == (4, 5, 5)

    def test_unknown_counts_match_paper_32(self):
        g = mkgrid(32, bc=NO_SLIP)
        n = 32
        assert g.n_face_unknowns(0) == (n - 1) * n
        assert g.n_unknowns() == n * n + 2 * n * (n - 1) == 3008

    def test_coarsening(self):
        g = mkgrid(8, bc=NO_SLIP)
        gc = g.coarsened()
        assert gc.cells == (4, 4) and gc.h == 2.0
        assert not mkgrid((6, 6)).coarsened().can_coarsen()  # 3 cells is terminal

    def test_coarsened_and_refined_are_built_once(self):
        g, fresh = mkgrid(8, bc=NO_SLIP), mkgrid(8, bc=NO_SLIP)
        gc = g.coarsened()
        assert g.coarsened() is gc and gc.refined() is g
        made = mkgrid(4, bc=NO_SLIP, h=2.0)
        assert made.refined() == fresh and made.refined().coarsened() is made
        # the linked grids are no part of a grid's value
        assert g == fresh and hash(g) == hash(fresh)
        assert pickle.dumps(g) == pickle.dumps(fresh)
        assert pickle.dumps(gc) == pickle.dumps(mkgrid(4, bc=NO_SLIP, h=2.0))


class TestFieldContainers:
    def test_cell_shape_checked(self):
        g = mkgrid(4)
        with pytest.raises(LayoutError):
            CellField(g, np.zeros((4, 5)))

    def test_face_shape_checked(self):
        g = mkgrid(4, bc=NO_SLIP)
        with pytest.raises(LayoutError):
            FaceField(g, (np.zeros((4, 4)), np.zeros((4, 5))))

    def test_node_edge_keys_checked(self):
        g = mkgrid(4)
        with pytest.raises(LayoutError):
            NodeEdgeField(g, {(0, 2): np.zeros((4, 4))})

    def test_stokes_needs_shared_grid(self):
        g1, g2 = mkgrid(4), mkgrid(8)
        with pytest.raises(LayoutError):
            StokesVector(FaceField.zeros(g1), CellField.zeros(g2))

    @pytest.mark.parametrize("dim", [2, 3])
    def test_arrays_are_fixed_at_construction(self, dim, rng):
        # the kernels keep a coefficient set's addresses, so a field given
        # another array would leave them reading the old one; values change
        # in place, augmented assignment included
        g = mkgrid(4, bc=NO_SLIP, dim=dim)
        p, u, ne = random_cell(g, rng), random_face(g, rng), NodeEdgeField.zeros(g)
        data, comps, plane = p.data, u.components, ne.arrays[(0, 1)]
        with pytest.raises(AttributeError):
            p.data = 5 * p.data
        with pytest.raises(AttributeError):
            u.components = tuple(c.copy() for c in comps)
        with pytest.raises(AttributeError):
            ne.arrays = dict(ne.arrays)
        with pytest.raises(TypeError):
            ne.arrays[(0, 1)] = plane.copy()
        want = p.data - 1.0
        p.data -= 1.0
        u.components[0][...] += 1.0
        ne.arrays[(0, 1)][...] = 2.0
        assert p.data is data and u.components is comps and ne.arrays[(0, 1)] is plane
        assert np.array_equal(p.data, want) and np.all(plane == 2.0)
        # the read-only mapping of node/edge arrays still pickles
        assert np.all(pickle.loads(pickle.dumps(ne)).arrays[(0, 1)] == 2.0)

    def test_interior_view_excludes_walls(self):
        g = mkgrid(4, bc=NO_SLIP)
        u = FaceField.zeros(g)
        u.components[0][0, :] = 99.0  # boundary faces
        assert u.interior(0).shape == (3, 4)
        assert norm2(u) == 0.0  # boundary values carry no norm


class TestAlgebra:
    def test_dot_ones_counts_cells(self):
        g = mkgrid(4)
        ones = CellField(g, np.ones(g.cells))
        assert dot(ones, ones) == 16.0

    def test_dot_zero(self, rng):
        g = mkgrid(4)
        assert dot(random_cell(g, rng), CellField.zeros(g)) == 0.0

    def test_dot_unit_basis(self):
        g = mkgrid(4)
        e3 = CellField.zeros(g)
        e3.data[3, 0] = 1.0
        assert dot(e3, e3) == 1.0

    @pytest.mark.parametrize("bc", [PERIODIC, NO_SLIP])
    def test_dot_matches_norm(self, bc, rng):
        g = mkgrid(8, bc=bc)
        for x in (random_cell(g, rng), random_face(g, rng), random_stokes(g, rng)):
            assert abs(dot(x, x) - norm2(x) ** 2) <= 1e-14 * max(dot(x, x), 1.0)

    @pytest.mark.parametrize("dim", [2, 3])
    def test_dot_matches_blas_reference(self, dim, rng):
        # dot sums in the library's order, not BLAS's: equal up to the
        # standard rounding bound n * eps * sum |a_i b_i|
        g = mkgrid(8, bc=NO_SLIP, dim=dim)
        a, b = pack_stokes(random_stokes(g, rng)), pack_stokes(random_stokes(g, rng))
        x, y = unpack_stokes(g, a), unpack_stokes(g, b)
        bound = len(a) * np.finfo(float).eps * np.dot(np.abs(a), np.abs(b))
        assert abs(dot(x, y) - np.dot(a, b)) <= bound

    def test_dot_symmetric_bilinear(self, rng):
        g = mkgrid(8, bc=NO_SLIP)
        x, y, z = (random_face(g, rng) for _ in range(3))
        assert dot(x, y) == pytest.approx(dot(y, x), rel=1e-14)
        lhs = dot(z + 2.5 * x, y)
        assert lhs == pytest.approx(2.5 * dot(x, y) + dot(z, y), rel=1e-12)

    def test_norm_examples(self):
        g = mkgrid(4)
        assert norm2(CellField.zeros(g)) == 0.0
        e = CellField.zeros(g)
        e.data[1, 2] = 1.0
        assert norm2(e) == 1.0

    def test_dot_layout_mismatch(self):
        with pytest.raises(LayoutError):
            dot(CellField.zeros(mkgrid(4)), FaceField.zeros(mkgrid(4)))


class TestPacking:
    @pytest.mark.parametrize("bc", [PERIODIC, NO_SLIP, FREE_SLIP])
    def test_roundtrip(self, bc, rng):
        g = mkgrid((8, 4), bc=bc)
        x = random_stokes(g, rng)
        v = pack_stokes(x)
        assert v.shape == (g.n_unknowns(),)
        y = unpack_stokes(g, v)
        assert norm2(y - x) == 0.0

    def test_face_vector_length_checked(self):
        g = mkgrid(4, bc=NO_SLIP)
        with pytest.raises(LayoutError):
            unpack_face(g, np.zeros(g.n_unknowns()))

    def test_axis_major_order(self):
        # first index fastest: cell (1, 0) precedes (0, 1) in the packed vector
        g = mkgrid(4)
        f = CellField.zeros(g)
        f.data[1, 0] = 1.0
        from stokesmg.grid import pack_cell

        assert pack_cell(f)[1] == 1.0
