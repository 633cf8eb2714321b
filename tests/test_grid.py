import numpy as np
import pytest

from stokesmg.grid import (
    FREE_SLIP,
    NO_SLIP,
    PERIODIC,
    CellField,
    FaceField,
    GridSpec,
    LayoutError,
    NodeEdgeField,
    StokesVector,
    axpy,
    dot,
    norm2,
    pack_stokes,
    subtract_mean,
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
        # dot sums in numpy's einsum order, not BLAS's: equal up to the
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
        lhs = dot(axpy(2.5, x, z), y)
        assert lhs == pytest.approx(2.5 * dot(x, y) + dot(z, y), rel=1e-12)

    def test_norm_examples(self):
        g = mkgrid(4)
        assert norm2(CellField.zeros(g)) == 0.0
        e = CellField.zeros(g)
        e.data[1, 2] = 1.0
        assert norm2(e) == 1.0

    def test_axpy_example(self):
        g = mkgrid(2)  # 4 cells
        ones = CellField(g, np.ones(g.cells))
        out = axpy(2.0, ones, CellField.zeros(g))
        assert np.all(out.data == 2.0)
        assert norm2(out) == 4.0

    def test_axpy_layout_mismatch(self, rng):
        with pytest.raises(LayoutError):
            axpy(1.0, CellField.zeros(mkgrid(4)), CellField.zeros(mkgrid(8)))
        with pytest.raises(LayoutError):
            dot(CellField.zeros(mkgrid(4)), FaceField.zeros(mkgrid(4)))

    def test_subtract_mean(self):
        g = mkgrid(2)
        assert np.all(subtract_mean(CellField(g, np.full((2, 2), 7.0))).data == 0.0)
        f = CellField(g, np.array([[1.0, 1.0], [3.0, 3.0]]))
        out = subtract_mean(f)  # mean is 2
        assert np.array_equal(out.data, [[-1.0, -1.0], [1.0, 1.0]])
        again = subtract_mean(out)
        assert np.array_equal(again.data, out.data)

    def test_subtract_mean_face_per_component(self, rng):
        g = mkgrid(8, bc=NO_SLIP)
        u = random_face(g, rng)
        out = subtract_mean(u)
        for a in range(2):
            assert abs(out.interior(a).mean()) < 1e-14


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
