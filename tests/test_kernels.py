"""The compiled library: bitwise contract, operator structure, build and
cache.

The property tests draw grids, walls, viscous forms, coefficients and
relaxation settings and require the compiled sweeps, operators (the saddle
residual included), smoother diagonals and transfers to equal the numpy
oracle in ``reference.py`` bit for bit, signed zeros included, the
one-call V-cycles to equal its recursion over the stand-alone entries, and
the Krylov reductions to equal its summation loops; others assemble the
compiled operators densely and check D = -G^T and the symmetry of A and
L_rho, one checks that the null projection removes exactly the null
components, and one that the V-cycles and the preconditioners are linear
at rounding level.  ``test_sanitizers.py`` runs these properties against
a sanitizer build.  The build
tests compile the source with every warning an error, check the ctypes
bindings and structs against the C prototypes and typedefs and run the CLI
in fresh processes with their own cache directories.
"""

import ctypes
import gc
import json
import os
import re
import shutil
import subprocess
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import stokesmg
from stokesmg import kernels, multigrid
from stokesmg.grid import (
    FREE_SLIP,
    NO_SLIP,
    PERIODIC,
    CellField,
    FaceField,
    GridSpec,
    LayoutError,
    StokesVector,
)
from stokesmg.operators import (
    LAPLACIAN,
    STRESS,
    STRESS_BULK,
    apply_A,
    apply_Lrho,
    apply_M,
    div,
    grad,
    helmholtz_diagonal,
    lrho_diagonal,
    make_coefficients,
    project_nulls,
    velocity_null_components,
)
from stokesmg.precond import PrecondConfig, Preconditioner, PrecondKind
from stokesmg.spectrum import assemble_dense

import reference
from conftest import viscous

SRC = os.path.dirname(os.path.dirname(os.path.abspath(stokesmg.__file__)))
REPO = os.path.dirname(SRC)

# deterministic, no example database on disk, and a fixed budget of a few
# seconds per property
PROPERTY = settings(derandomize=True, database=None, deadline=None, max_examples=300)
DENSE = settings(derandomize=True, database=None, deadline=None, max_examples=40)


def draw_walls(draw, dim):
    bc = []
    for _ in range(dim):
        lo = draw(st.sampled_from([NO_SLIP, FREE_SLIP, PERIODIC]))
        hi = lo if lo is PERIODIC else draw(st.sampled_from([NO_SLIP, FREE_SLIP]))
        bc.append((lo, hi))
    return tuple(bc)


@st.composite
def sweep_cases(draw, counts=st.integers(2, 9)):
    """A grid with 2-9 cells per axis (``counts``) and its coefficients, a
    random generator for fields, and the sweep's settings."""
    dim = draw(st.sampled_from([2, 3]))
    cells = tuple(draw(counts) for _ in range(dim))
    h = draw(st.sampled_from([2.0**-k for k in range(8)] + [1 / 48, 0.3]))
    grid = GridSpec(cells, h, draw_walls(draw, dim))
    form = draw(st.sampled_from([LAPLACIAN, STRESS, STRESS_BULK]))
    theta = draw(st.sampled_from([0.0, 0.7, 3.0]))
    contrast = draw(st.sampled_from([1.0, 1e2, 1e4]))
    omega = draw(st.floats(0.0, 1.0, exclude_min=True) | st.just(1.0))
    zero_guess = draw(st.booleans())
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    mu = CellField(grid, contrast ** rng.random(cells))
    rho = CellField(grid, contrast ** rng.random(cells))
    gamma = CellField(grid, contrast * rng.random(cells))
    coeff = make_coefficients(grid, theta, rho, mu, gamma, viscous_form=form)
    return grid, coeff, omega, zero_guess, rng


def random_face(grid, rng, zero=False):
    u = FaceField.zeros(grid)
    if not zero:
        for a in range(grid.dim):
            view = u.interior(a)
            view[...] = rng.standard_normal(view.shape)
    return u


@PROPERTY
@given(sweep_cases())
def test_face_sweep_equals_oracle(case):
    grid, coeff, omega, zero_guess, rng = case
    diag = helmholtz_diagonal(grid, coeff)
    rhs = random_face(grid, rng)
    u = random_face(grid, rng, zero=zero_guess)
    want = u.copy()
    multigrid.smooth_face(u, rhs, grid, coeff, diag, omega, zero_guess)
    reference.smooth_face(want, rhs, grid, coeff, diag, omega, zero_guess)
    for got, ref in zip(u.components, want.components):
        assert np.array_equal(got, ref)


@PROPERTY
@given(sweep_cases())
def test_cell_sweep_equals_oracle(case):
    grid, coeff, omega, zero_guess, rng = case
    diag = lrho_diagonal(grid, coeff)
    rhs = CellField(grid, rng.standard_normal(grid.cells))
    phi = CellField(grid, np.zeros(grid.cells) if zero_guess
                    else rng.standard_normal(grid.cells))
    want = phi.copy()
    multigrid.smooth_cell(phi, rhs, grid, coeff, diag, omega, zero_guess)
    reference.smooth_cell(want, rhs, grid, coeff, diag, omega, zero_guess)
    assert np.array_equal(phi.data, want.data)


def same_bits(got, want) -> bool:
    """Equal shapes and bytes: every entry rounded alike, signed zeros too."""
    return all(x.shape == y.shape and x.tobytes() == y.tobytes()
               for x, y in zip(got, want, strict=True))


def full_face(grid, rng):
    """Random on every face, the boundary faces included."""
    return FaceField(grid, tuple(rng.standard_normal(grid.face_shape(a))
                                 for a in range(grid.dim)))


@PROPERTY
@given(sweep_cases())
def test_velocity_operators_equal_oracle(case):
    grid, coeff, _, _, rng = case
    u, rhs = full_face(grid, rng), full_face(grid, rng)
    x = StokesVector(u, CellField(grid, rng.standard_normal(grid.cells)))
    b = StokesVector(rhs, CellField(grid, rng.standard_normal(grid.cells)))
    saddle = [(apply_M(x, coeff), reference.apply_M(x, coeff)),
              (apply_M(x, coeff, rhs=b), reference.saddle_residual(x, coeff, b))]
    pairs = [
        (apply_A(u, coeff), reference.apply_A(u, coeff)),
        (apply_A(u, coeff, rhs=rhs), reference.apply_A(u, coeff, rhs=rhs)),
        (viscous(u, coeff), reference.apply_viscous(u, coeff)),
        *[(got.u, want.u) for got, want in saddle],
    ]
    for got, want in pairs:
        assert same_bits(got.components, want.components)
    for got, want in saddle:
        assert same_bits([got.p.data], [want.p.data])
        # one buffer, [u_0 | u_1 (| u_2) | p]
        assert got.buffer.tobytes() == b"".join(
            arr.tobytes() for arr in (*want.u.components, want.p.data))


@PROPERTY
@given(sweep_cases())
def test_pressure_operators_equal_oracle(case):
    grid, coeff, _, _, rng = case
    u = full_face(grid, rng)
    p, rhs = (CellField(grid, rng.standard_normal(grid.cells)) for _ in range(2))
    assert same_bits([div(u).data], [reference.div(u).data])
    assert same_bits(grad(p).components, reference.grad(p).components)
    assert same_bits([apply_Lrho(p, coeff).data], [reference.apply_Lrho(p, coeff).data])
    assert same_bits([apply_Lrho(p, coeff, rhs).data],
                     [rhs.data - reference.apply_Lrho(p, coeff).data])


@PROPERTY
@given(sweep_cases())
def test_diagonals_equal_oracle(case):
    grid, coeff = case[:2]
    assert same_bits(helmholtz_diagonal(grid, coeff).components,
                     reference.helmholtz_diagonal(grid, coeff).components)
    assert same_bits([lrho_diagonal(grid, coeff).data],
                     [reference.lrho_diagonal(grid, coeff).data])


@PROPERTY
@given(sweep_cases(counts=st.sampled_from([4, 6, 8, 10])))
def test_transfers_equal_oracle(case):
    # even counts: the fine grid restricts, and its coarse grid (2-5 cells
    # per axis, odd ones included) prolongs
    grid, _, _, _, rng = case
    coarse = grid.coarsened()
    fine_u, coarse_u = full_face(grid, rng), full_face(coarse, rng)
    fine_p = CellField(grid, rng.standard_normal(grid.cells))
    coarse_p = CellField(coarse, rng.standard_normal(coarse.cells))
    pairs = [
        (multigrid.restrict_face(fine_u), reference.restrict_face(fine_u)),
        (multigrid.prolong_face(coarse_u), reference.prolong_face(coarse_u)),
    ]
    for got, want in pairs:
        assert got.grid == want.grid
        assert same_bits(got.components, want.components)
    for got, want in ((multigrid.restrict_cell(fine_p), reference.restrict_cell(fine_p)),
                      (multigrid.prolong_cell(coarse_p), reference.prolong_cell(coarse_p))):
        assert got.grid == want.grid
        assert same_bits([got.data], [want.data])


VCYCLES = settings(derandomize=True, database=None, deadline=None, max_examples=80)


@VCYCLES
@given(sweep_cases(counts=st.sampled_from([4, 6, 8, 12, 16])), st.sampled_from([1.0, 0.8]),
       st.integers(1, 3), st.integers(1, 3), st.integers(8, 11))
def test_vcycle_equals_reference_recursion(case, omega, down, up, bottom):
    # even counts of at least 4 coarsen at least once: hierarchies of two
    # to four levels, odd coarse grids included; both right-hand sides are
    # random on every face, boundary faces included
    grid, coeff, _, _, rng = case
    hier = multigrid.build_hierarchy(grid, coeff)
    params = multigrid.SmootherParams(omega, down, up, bottom)
    for rhs in (full_face(grid, rng), CellField(grid, rng.standard_normal(grid.cells))):
        got = multigrid.vcycle(rhs, hier, params)
        want = reference.vcycle(rhs, hier, params)
        assert same_bits(reference.field_arrays(got), reference.field_arrays(want))


def test_vcycle_plan_keeps_what_it_points_at():
    # a coefficient set's level and a hierarchy's plan hold addresses: when
    # every coefficient and diagonal array is swapped for a copy after the
    # first calls, the old arrays must stay alive (the sanitizer run would
    # report reading freed memory) and the cycles and operators keep their
    # bits
    grid = GridSpec((8, 6, 4), 0.25, ((NO_SLIP, FREE_SLIP), (PERIODIC, PERIODIC),
                                      (NO_SLIP, NO_SLIP)))
    rng = np.random.default_rng(5)
    coeff = make_coefficients(grid, 0.5, *(CellField(grid, 1.0 + rng.random(grid.cells))
                                           for _ in range(3)), viscous_form=STRESS_BULK)
    hier = multigrid.build_hierarchy(grid, coeff)
    params = multigrid.SmootherParams()
    rhs = (full_face(grid, rng), CellField(grid, rng.standard_normal(grid.cells)))
    x = StokesVector(full_face(grid, rng), rhs[1])

    def calls():
        return [reference.field_arrays(multigrid.vcycle(r, hier, params)) for r in rhs] + [
            [apply_M(x, coeff).buffer], apply_A(x.u, coeff, rhs=rhs[0]).components,
            [apply_Lrho(x.p, coeff).data], helmholtz_diagonal(grid, coeff).components]

    first = calls()
    # fields refuse another array, so each is swapped around that check
    for level, c in enumerate(hier.levels):
        for field in (c.mu_cell, c.gamma_cell, hier.diag_cell(level)):
            object.__setattr__(field, "data", field.data.copy())
        for field in (c.rho_face, hier.diag_face(level)):
            object.__setattr__(field, "components",
                               tuple(x.copy() for x in field.components))
        object.__setattr__(c.mu_node_edge, "arrays",
                           {k: x.copy() for k, x in c.mu_node_edge.arrays.items()})
    gc.collect()
    for got, want in zip(calls(), first, strict=True):
        assert same_bits(got, want)


# ---------------------------------------------------------------------------
# Krylov reductions
# ---------------------------------------------------------------------------

#: Stokes buffer lengths of the benchmark's bubble grids, 2D 256^2 and 3D
#: 48^3 with no-slip walls
BENCH_SIZES = tuple(
    StokesVector.buffer_size(GridSpec(cells, 1.0, ((NO_SLIP, NO_SLIP),) * len(cells)))
    for cells in ((256, 256), (48, 48, 48)))


def krylov_vector(rng, n):
    """Entries spread over twelve decades, so a sum in another order rounds
    differently, with some signed zeros."""
    v = rng.standard_normal(n) * 10.0 ** rng.uniform(-6, 6, n)
    v[rng.random(n) < 0.1] = 0.0
    v[rng.random(n) < 0.1] = -0.0
    return v


def float_bits(value) -> bytes:
    return np.float64(value).tobytes()


@st.composite
def reduction_cases(draw):
    """A length and a generator.  The lengths end the lane loop at every
    tail (0-9), end the first block or cross into the second (4092-4100),
    end the second or cross into the third (8191-8193), or reach the team
    threshold, where the blocks are shared among threads."""
    n = draw(st.one_of(st.integers(0, 9), st.integers(4092, 4100), st.integers(8191, 8193),
                       st.just(team_min_entries() + 3)))
    return n, np.random.default_rng(draw(st.integers(0, 2**32 - 1)))


@PROPERTY
@given(reduction_cases())
def test_dot_equals_oracle(case):
    n, rng = case
    a, b = krylov_vector(rng, n), krylov_vector(rng, n)
    assert float_bits(kernels.sum_products(a, b)) == float_bits(reference.krylov_dot(a, b))


def check_arnoldi(n, j, rng):
    V = np.array([krylov_vector(rng, n) for _ in range(j + 3)]).reshape(j + 3, n)
    w = krylov_vector(rng, n)
    want_h, want_w, following = reference.arnoldi(V, j, w)
    before = V.copy()
    h = kernels.arnoldi(V, j, w)
    assert h.tobytes() == want_h.tobytes()
    assert w.tobytes() == want_w.tobytes()
    if following is not None:
        before[j + 1] = following
    # row j + 1 is the normalized w, every other row is left as it was
    assert V.tobytes() == before.tobytes()


def check_combine(n, m, rng):
    V = np.array([krylov_vector(rng, n) for _ in range(m)]).reshape(m, n)
    y, x = rng.standard_normal(m) * 10.0 ** rng.uniform(-3, 3, m), krylov_vector(rng, n)
    assert kernels.combine(V, y, x).tobytes() == reference.combine(V, y, x).tobytes()


@PROPERTY
@given(reduction_cases(), st.integers(0, 10))
def test_arnoldi_equals_oracle(case, j):
    n, rng = case
    check_arnoldi(n, j, rng)


@pytest.mark.parametrize("bad", [0.0, 1e300, np.nan])
def test_arnoldi_leaves_the_next_row_without_a_positive_finite_norm(bad):
    # w -> 0 (an invariant subspace), w . w overflowing or NaN: GMRES stops
    # before it reads row j + 1, so the step does not write it
    V = np.zeros((3, 5))
    V[0, 0], V[2] = 1.0, 7.0
    w = np.zeros(5)
    w[0], w[3] = 2.0, bad
    h = kernels.arnoldi(V, 1, w)
    assert not 0.0 < h[2] < np.inf
    assert V[2].tolist() == [7.0] * 5


def test_arnoldi_refuses_a_basis_it_cannot_write():
    V, w = np.zeros((2, 4)), np.zeros(4)
    for args in [(V, 1, w), (V, -1, w), (V, 0, np.zeros(3)), (V[:, ::2], 0, w[::2]),
                 (V.astype(np.float32), 0, w)]:
        with pytest.raises(LayoutError):
            kernels.arnoldi(*args)


@PROPERTY
@given(reduction_cases(), st.integers(0, 11))
def test_combine_equals_oracle(case, m):
    n, rng = case
    check_combine(n, m, rng)


@pytest.mark.parametrize("n", BENCH_SIZES)
def test_reductions_equal_oracle_at_benchmark_sizes(n):
    rng = np.random.default_rng(n)
    a, b = krylov_vector(rng, n), krylov_vector(rng, n)
    assert float_bits(kernels.sum_products(a, b)) == float_bits(reference.krylov_dot(a, b))
    check_arnoldi(n, 2, rng)
    check_combine(n, 3, rng)


# ---------------------------------------------------------------------------
# structure of the assembled operators
# ---------------------------------------------------------------------------


def off_diagonal_asymmetry(M: np.ndarray) -> np.ndarray:
    """|M_ij - M_ji| over ``n eps sum |terms|``, entry by entry.

    Each term of an off-diagonal entry is one coupling weight, and that
    weight enters the diagonal of both rows with the same sign as all of
    that diagonal's terms (the viscous weights, the bulk weight
    gamma - 2/3 mu inside the normal weight gamma + 4/3 mu, the density
    weights) and at least its magnitude; an entry sums at most four terms.
    So ``4 min(|M_ii|, |M_jj|)`` bounds its ``sum |terms|``, and a few dozen
    operations per entry give ``n``.
    """
    d = np.abs(np.diag(M))
    bound = 64 * np.finfo(float).eps * 4 * np.minimum.outer(d, d)
    return np.abs(M - M.T) / bound


@DENSE
@given(sweep_cases(counts=st.integers(2, 6)))
def test_divergence_is_minus_gradient_transpose(case):
    grid = case[0]
    D = assemble_dense(div, grid, domain="face", codomain="cell")
    G = assemble_dense(grad, grid, domain="cell", codomain="face")
    assert np.array_equal(D, -G.T)


@DENSE
@given(sweep_cases(counts=st.integers(2, 6)))
def test_velocity_and_pressure_operators_are_symmetric(case):
    grid, coeff = case[:2]
    A = assemble_dense(lambda u: apply_A(u, coeff), grid, domain="face", codomain="face")
    L = assemble_dense(lambda p: apply_Lrho(p, coeff), grid, domain="cell", codomain="cell")
    assert off_diagonal_asymmetry(A).max() <= 1.0
    assert off_diagonal_asymmetry(L).max() <= 1.0


@PROPERTY
@given(sweep_cases())
def test_null_projection_removes_exactly_the_null_components(case):
    grid, coeff, _, _, rng = case
    nulls = velocity_null_components(grid, coeff)
    for a in range(grid.dim):
        const = FaceField.zeros(grid)
        const.interior(a)[...] = 1.0
        image = apply_A(const, coeff).components
        assert all(np.all(c == 0) for c in image) == (a in nulls)
    x = StokesVector(full_face(grid, rng), CellField(grid, rng.standard_normal(grid.cells)))
    out = project_nulls(x, coeff)
    eps = np.finfo(float).eps
    for a in range(grid.dim):
        if a not in nulls:
            assert same_bits([out.u.components[a]], [x.u.components[a]])
            continue
        view, before = out.u.interior(a), x.u.interior(a)
        assert abs(view.mean()) <= view.size * eps * np.abs(before).max()
    assert abs(out.p.data.mean()) <= x.p.data.size * eps * np.abs(x.p.data).max()


# ---------------------------------------------------------------------------
# linearity of the V-cycles and the preconditioners
# ---------------------------------------------------------------------------

LINEAR = settings(derandomize=True, database=None, deadline=None, max_examples=60)
#: scale factors of normal magnitude: a subnormal factor or smoother weight
#: rounds the scaled input itself to a few bits, which no linear map undoes
SCALES = st.just(0.0) | st.floats(0.125, 8.0) | st.floats(-8.0, -0.125)


def sup(field) -> float:
    """Largest magnitude of a cell, face or Stokes field."""
    if isinstance(field, StokesVector):
        return max(sup(field.u), sup(field.p))
    arrays = (field.data,) if isinstance(field, CellField) else field.components
    return max(float(np.abs(arr).max()) for arr in arrays)


@LINEAR
@given(sweep_cases(counts=st.sampled_from([4, 6, 8, 12, 16])), SCALES, SCALES)
def test_vcycles_and_preconditioners_are_linear(case, alpha, beta):
    # |P(a x + b y) - a Px - b Py| <= 64 eps (|a| |Px| + |b| |Py|) in the max
    # norm, for both V-cycles and P1-P5 over multigrid subsolvers
    grid, coeff, _, _, rng = case
    params = multigrid.SmootherParams()
    hier = multigrid.build_hierarchy(grid, coeff)

    def face():
        return random_face(grid, rng)

    def cell():
        return CellField(grid, rng.standard_normal(grid.cells))

    def stokes():
        return StokesVector(face(), cell())

    maps = [(lambda r: multigrid.vcycle(r, hier, params), draw) for draw in (face, cell)]
    maps += [(Preconditioner(coeff, PrecondConfig(kind=kind), params).apply, stokes)
             for kind in PrecondKind if kind is not PrecondKind.IDENTITY]
    eps = np.finfo(float).eps
    for apply, draw in maps:
        x, y = draw(), draw()
        px, py = apply(x), apply(y)
        error = sup(apply(alpha * x + beta * y) - (alpha * px + beta * py))
        assert error <= 64 * eps * (abs(alpha) * sup(px) + abs(beta) * sup(py))


# ---------------------------------------------------------------------------
# team sizes
# ---------------------------------------------------------------------------

TEAM_SIZES = (1, 2, 3)
TEAM = settings(derandomize=True, database=None, deadline=None, max_examples=12)


def team_min_entries() -> int:
    """Entries a grid needs before the library runs a call on it on its team."""
    return ctypes.c_long.in_dll(kernels.load(), "smg_team_min_entries").value


@st.composite
def team_cases(draw):
    """A grid above the team threshold (3D 22-30 cells per
    axis, 2D 106-140), even counts so it coarsens or any counts, with
    its walls, viscous form and coefficients, and a generator."""
    dim = draw(st.sampled_from([2, 3]))
    even = draw(st.booleans())
    low, high = (22, 30) if dim == 3 else (106, 140)
    counts = st.integers(low // 2, high // 2).map(lambda n: 2 * n) if even else \
        st.integers(low, high)
    cells = tuple(draw(counts) for _ in range(dim))
    grid = GridSpec(cells, draw(st.sampled_from([1 / 64, 0.3])), draw_walls(draw, dim))
    form = draw(st.sampled_from([LAPLACIAN, STRESS, STRESS_BULK]))
    theta = draw(st.sampled_from([0.0, 0.7]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    mu, rho = (CellField(grid, 1e2 ** rng.random(cells)) for _ in range(2))
    gamma = CellField(grid, 1e2 * rng.random(cells))
    coeff = make_coefficients(grid, theta, rho, mu, gamma, viscous_form=form)
    return grid, coeff, rng


def outputs_by_team_size(run) -> list[bytes]:
    """``run()``'s arrays as bytes, per team size; the process's size is
    restored after."""
    out = []
    try:
        for n in TEAM_SIZES:
            kernels.set_threads(n)
            out.append(b"".join(arr.tobytes() for arr in run()))
    finally:
        kernels.set_threads(kernels.team_size())
    return out


def arnoldi_outputs(V, j, w):
    """The values, basis and w of an Arnoldi step on copies of V and w."""
    V, w = V.copy(), w.copy()
    return [kernels.arnoldi(V, j, w), V, w]


@TEAM
@given(team_cases(), st.integers(0, 11))
def test_parallel_calls_give_the_same_bytes_at_every_team_size(case, m):
    # every entry that runs on the team: both V-cycles, the saddle operator
    # and its residual, the face and the cell operator each with and
    # without a right-hand side, the basis combination, the dot product and
    # the Arnoldi step, odd lengths included
    grid, coeff, rng = case
    assert StokesVector.buffer_size(grid) >= team_min_entries()
    u, rhs = full_face(grid, rng), full_face(grid, rng)
    p, q = (CellField(grid, rng.standard_normal(grid.cells)) for _ in range(2))
    x, b = StokesVector(u, p), StokesVector(rhs, q)
    n = StokesVector.buffer_size(grid) + int(rng.integers(0, 4))
    V, y, z = rng.standard_normal((m, n)), rng.standard_normal(m), rng.standard_normal(n)
    j, odd = min(m, 10), n | 1
    basis, a, w = (krylov_vector(rng, odd * k).reshape(-1, odd) for k in (j + 2, 1, 1))
    runs = [
        lambda: [apply_M(x, coeff).buffer, apply_M(x, coeff, rhs=b).buffer],
        lambda: [*apply_A(u, coeff).components, *apply_A(u, coeff, rhs=rhs).components],
        lambda: [apply_Lrho(p, coeff).data, apply_Lrho(p, coeff, q).data],
        lambda: [kernels.combine(V, y, z)],
        lambda: [np.float64(kernels.sum_products(a, w))],
        lambda: arnoldi_outputs(basis, j, w[0]),
    ]
    if grid.can_coarsen():
        hier = multigrid.build_hierarchy(grid, coeff)
        params = multigrid.SmootherParams(0.8, 2, 1, 8)
        runs += [lambda: reference.field_arrays(multigrid.vcycle(rhs, hier, params)),
                 lambda: reference.field_arrays(multigrid.vcycle(q, hier, params))]
    for run in runs:
        first, *others = outputs_by_team_size(run)
        assert all(other == first for other in others)


def test_concurrent_callers_get_their_own_results():
    # two threads of the process call the library at once: a caller that
    # finds the team busy runs alone; each must still get the bytes a lone
    # caller gets
    rng = np.random.default_rng(7)
    cases = []
    for cells in ((128, 112), (24, 24, 22)):
        grid = GridSpec(cells, 1 / 64, ((NO_SLIP, FREE_SLIP),) * len(cells))
        coeff = make_coefficients(grid, 0.7, *(CellField(grid, 1 + rng.random(cells))
                                               for _ in range(3)), viscous_form=STRESS)
        hier = multigrid.build_hierarchy(grid, coeff)
        x = StokesVector(full_face(grid, rng), CellField(grid, rng.standard_normal(cells)))
        V = rng.standard_normal((5, StokesVector.buffer_size(grid)))
        cases.append(lambda x=x, coeff=coeff, hier=hier, V=V: [
            apply_M(x, coeff).buffer,
            *multigrid.vcycle(x.u, hier, multigrid.SmootherParams()).components,
            multigrid.vcycle(x.p, hier, multigrid.SmootherParams()).data,
            *arnoldi_outputs(V[:4], 2, V[4])])
    want = [[arr.tobytes() for arr in run()] for run in cases]
    got = [[], []]

    def repeat(k):
        for _ in range(20):
            got[k].append([arr.tobytes() for arr in cases[k]()])

    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=repeat, args=(k,)) for k in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(switch)
    assert not any(t.is_alive() for t in threads)
    assert got == [[want[0]] * 20, [want[1]] * 20]


# ---------------------------------------------------------------------------
# build and cache
# ---------------------------------------------------------------------------

CONFIG = """{"problem": {"kind": "bubble", "dim": 2, "cells": 8, "bc": "no_slip",
              "seed": 0},
 "solver": {"gmres": {"max_iters": 60}},
 "sweep": {"solver.precond.kind": ["P1", "P2"]}}"""


def run_cli(tmp_path, cache, *args, path=None, env=None, command="run"):
    env = dict(env or os.environ, XDG_CACHE_HOME=str(cache), PYTHONPATH=SRC)
    if path is not None:
        env["PATH"] = path
    config = tmp_path / "config.json"
    config.write_text(CONFIG)
    return subprocess.run(
        [sys.executable, "-m", "stokesmg.cli", command, "--config", str(config), *args],
        cwd=tmp_path, env=env, capture_output=True, text=True)


def tree(root):
    """Every file under ``root`` except bytecode and the test caches."""
    out = set()
    for base, dirs, files in os.walk(root):
        dirs[:] = [d for d in dirs if d not in (".git", "__pycache__", ".pytest_cache")]
        out.update(os.path.join(base, f) for f in files)
    return out


def libraries(cache):
    folder = cache / "stokesmg"
    return sorted(p.name for p in folder.iterdir()) if folder.exists() else []


@pytest.mark.parametrize("command", ["run", "mg-bench", "spectrum"])
def test_missing_compiler_exits_4_without_outputs(tmp_path, command):
    empty = tmp_path / "bin"
    empty.mkdir()
    done = run_cli(tmp_path, tmp_path / "cache", "--out", str(tmp_path / "out"),
                   path=str(empty), command=command)
    assert done.returncode == 4, done.stderr
    assert f"'{kernels.COMPILER}'" in done.stderr
    assert not (tmp_path / "out").exists()
    assert libraries(tmp_path / "cache") == []


def test_source_compiles_without_warnings(tmp_path):
    # stricter than the build, which keeps its own flags and cache key; at
    # the build's optimization gcc's flow analysis runs, so its
    # maybe-uninitialized, array-bounds and null-dereference warnings cover
    # the stages' size-only mode, which takes NULL for every array
    compiler = shutil.which(kernels.COMPILER)
    if compiler is None:
        pytest.skip(f"no C compiler '{kernels.COMPILER}'")
    done = subprocess.run([compiler, *kernels.FLAGS, "-c",
                           "-Wall", "-Wextra", "-Wshadow", "-Wnull-dereference", "-Werror",
                           "-std=c99", kernels.SOURCE, "-o", str(tmp_path / "sweeps.o")],
                          capture_output=True, text=True)
    assert done.returncode == 0, done.stderr


#: the row loops of sweeps.c compiled once per combination of their choices,
#: and how many combinations each has
INSTANCED_LOOPS = {"residual_loop": 16, "gradient_loop": 4}


def test_compiled_row_instances_vectorize(tmp_path):
    # a test per entry put back into one of these loops would keep it
    # scalar; gcc reports each compiled instance by the line of the source
    # loop
    compiler = shutil.which(kernels.COMPILER)
    if compiler is None:
        pytest.skip(f"no C compiler '{kernels.COMPILER}'")
    macros = subprocess.run([compiler, "-dM", "-E", "-x", "c", os.devnull],
                            capture_output=True, text=True).stdout
    if "__GNUC__" not in macros or "__clang__" in macros:
        pytest.skip("the vectorizer report read here is gcc's")
    done = subprocess.run([compiler, *kernels.FLAGS, "-fopt-info-vec-all", kernels.SOURCE,
                           "-o", str(tmp_path / "sweeps.so")], capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    lines = open(kernels.SOURCE).read().splitlines()
    for body, instances in INSTANCED_LOOPS.items():
        start = next(n for n, text in enumerate(lines) if re.search(rf"\b{body}\(", text))
        loop = next(n for n in range(start, len(lines)) if lines[n].lstrip().startswith("for ("))
        at = re.compile(rf"sweeps\.c:{loop + 1}:\d+: (.*)")
        reports = [m.group(1) for m in map(at.search, done.stderr.splitlines()) if m]
        assert sum("loop vectorized" in r for r in reports) >= instances, (body, reports)
        assert not [r for r in reports if "missed" in r], (body, reports)


#: the exported definitions of sweeps.c: result, name and parameter list
C_ENTRY = re.compile(r"^(int|void|double)\s+(smg_\w+)\(([^)]*)\)\s*\{", re.M)
#: the multi-line struct typedefs of sweeps.c: body and name
C_STRUCT = re.compile(r"^typedef struct \{\n(.*?)^\} (\w+);", re.M | re.S)
#: the C structs the bindings pass, by typedef name
STRUCTS = {"grid3": kernels._Grid3, "smg_level": kernels._Level}


def c_kind(parameter: str) -> str:
    """A parameter's kind: a pointer to one of ``STRUCTS`` by its name, any
    other pointer alike, else its scalar type."""
    words = parameter.replace("*", " * ").split()
    if "*" in words:
        structs = [w for w in words if w in STRUCTS]
        return f"{structs[0]} *" if structs else "pointer"
    kind = " ".join(words[:-1])
    assert kind in ("int", "long", "double"), parameter
    return kind


def ctypes_kind(t) -> str:
    if t is None:
        return "void"
    if issubclass(t, ctypes._Pointer):
        names = {cls: name for name, cls in STRUCTS.items()}
        return f"{names[t._type_]} *" if t._type_ in names else "pointer"
    if issubclass(t, ctypes.c_void_p):
        return "pointer"
    return {ctypes.c_int: "int", ctypes.c_long: "long", ctypes.c_double: "double"}[t]


def c_members(body: str) -> list[str]:
    """Member names of a struct body, in order."""
    body = re.sub(r"/\*.*?\*/", "", body, flags=re.S)
    return [re.search(r"(\w+)\s*$", re.sub(r"\[\w*\]", "", part)).group(1)
            for declaration in body.split(";")[:-1] for part in declaration.split(",")]


def test_bindings_match_the_c_prototypes():
    # ctypes cannot check a call against the prototype: a binding that
    # drifts from sweeps.c passes its arguments in the wrong places silently
    with open(kernels.SOURCE) as handle:
        defined = {name: (result, [c_kind(p) for p in parameters.split(",")])
                   for result, name, parameters in C_ENTRY.findall(handle.read())}
    bound = {name: (ctypes_kind(restype), [ctypes_kind(t) for t in argtypes])
             for name, (restype, argtypes) in kernels.SIGNATURES.items()}
    assert defined == bound
    # and no entry stays bound once nothing calls it
    with open(kernels.__file__) as handle:
        assert set(re.findall(r"\.(smg_\w+)\(", handle.read())) == set(kernels.SIGNATURES)


def test_bound_structs_match_the_c_typedefs():
    # a member out of place shifts the ones after it: the library would read
    # one coefficient's address as another's, or the form as theta
    with open(kernels.SOURCE) as handle:
        typedefs = {name: c_members(body) for body, name in C_STRUCT.findall(handle.read())}
    for name, cls in STRUCTS.items():
        assert [member for member, _ in cls._fields_] == typedefs[name], name
    size = ctypes.c_long.in_dll(kernels.load(), "smg_level_size").value
    assert ctypes.sizeof(kernels._Level) == size


def test_failed_build_names_the_command_and_quotes_stderr(tmp_path, monkeypatch):
    broken = tmp_path / "sweeps.c"
    broken.write_text("int broken(void) { return }\n")
    monkeypatch.setattr(kernels, "SOURCE", str(broken))
    monkeypatch.setattr(kernels, "_library", None)
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "cache"))
    with pytest.raises(kernels.KernelBuildError) as err:
        kernels.load()
    message = str(err.value)
    assert message.startswith(f"'{kernels.COMPILER} ")
    assert str(broken) in message and "error" in message
    assert kernels._library is None


def test_jobs_build_once_in_the_parent_and_match_sequential(tmp_path):
    cache = tmp_path / "cache"
    before = tree(REPO)
    parallel = run_cli(tmp_path, cache, "--jobs", "2", "--out", str(tmp_path / "p"))
    assert parallel.returncode == 0, parallel.stderr
    assert [name.endswith(".so") for name in libraries(cache)] == [True]
    sequential = run_cli(tmp_path, cache, "--jobs", "1", "--out", str(tmp_path / "s"))
    assert sequential.returncode == 0, sequential.stderr
    assert len(libraries(cache)) == 1
    for name in ("run_000.csv", "run_001.csv"):
        assert (tmp_path / "p" / name).read_bytes() == (tmp_path / "s" / name).read_bytes()
    # the build writes into the cache only, never into the sources or repo
    assert tree(REPO) == before


def tiny_sweep_matches_oracle():
    """One compiled face sweep, checked against the oracle."""
    grid = GridSpec((4, 6), 0.5, ((NO_SLIP, FREE_SLIP), (PERIODIC, PERIODIC)))
    rng = np.random.default_rng(3)
    coeff = make_coefficients(grid, 0.7, CellField(grid, 1 + rng.random(grid.cells)),
                              CellField(grid, 1 + rng.random(grid.cells)))
    diag, rhs, u = helmholtz_diagonal(grid, coeff), random_face(grid, rng), random_face(grid, rng)
    want = u.copy()
    multigrid.smooth_face(u, rhs, grid, coeff, diag, 0.8)
    reference.smooth_face(want, rhs, grid, coeff, diag, 0.8)
    return all(np.array_equal(x, y) for x, y in zip(u.components, want.components))


def test_library_with_another_key_is_rebuilt_not_loaded(tmp_path, monkeypatch):
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
    monkeypatch.setattr(kernels, "_library", None)
    key = kernels.library_key()
    folder = tmp_path / "stokesmg"
    folder.mkdir()
    # not a loadable library at all: loading it would fail
    stale = folder / f"sweeps-{key}.so"
    stale.write_bytes(b"\x7fELF" + kernels.KEY_TAG + b"0" * len(key))
    kernels.load()
    assert kernels.KEY_TAG + key.encode() in stale.read_bytes()
    assert libraries(tmp_path) == [stale.name]
    assert tiny_sweep_matches_oracle()


def test_unwritable_cache_builds_in_a_temporary_directory(tmp_path):
    # a file where the cache directory belongs: nothing can be written there
    # (a read-only mode does not bind for the superuser)
    cache = tmp_path / "cache"
    cache.mkdir()
    (cache / "stokesmg").write_text("occupied")
    temporary = tmp_path / "tmp"
    temporary.mkdir()
    env = dict(os.environ, TMPDIR=str(temporary))
    done = run_cli(tmp_path, cache, "--out", str(tmp_path / "out"), env=env)
    assert done.returncode == 0, done.stderr
    assert (cache / "stokesmg").read_text() == "occupied"
    assert sorted(p.name for p in cache.iterdir()) == ["stokesmg"]
    # the per-process build directory is gone
    assert list(temporary.iterdir()) == []
    manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
    assert [r["status"] for r in manifest["runs"]] == ["converged", "converged"]
