"""No kernel writes its inputs.

The operators, smoothers, every entry of the compiled library, V-cycles and
transfers scale and accumulate in place on arrays they allocate themselves.  A slip
that lets such an in-place step land on an input (a coefficient array, the
right-hand side, a boundary value, the field being differenced) would
corrupt the caller's data without changing the returned value of that
call.  Each test takes a byte copy of every input array before the call and
compares afterwards.
"""

import dataclasses

import numpy as np
import pytest

from stokesmg import kernels, multigrid
from stokesmg.grid import (
    FREE_SLIP,
    NO_SLIP,
    PERIODIC,
    CellField,
    FaceField,
    LayoutError,
    StokesVector,
)
from stokesmg.multigrid import (
    SmootherParams,
    build_hierarchy,
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
    apply_M,
    div,
    grad,
    helmholtz_diagonal,
    lrho_diagonal,
    make_coefficients,
)

from conftest import mkgrid, random_cell, random_face

# (cells, bc) per wall kind and dimension; the odd periodic counts make a
# colour touch itself across the wrap and cannot be coarsened
WALLS = {
    "no_slip": {2: ((8, 6), NO_SLIP), 3: ((4, 6, 4), NO_SLIP)},
    "free_slip": {2: ((8, 6), FREE_SLIP), 3: ((4, 4, 6), FREE_SLIP)},
    "periodic": {2: ((8, 6), PERIODIC), 3: ((4, 6, 4), PERIODIC)},
    "mixed": {
        2: ((8, 6), [(NO_SLIP, FREE_SLIP), (PERIODIC, PERIODIC)]),
        3: ((4, 6, 4), [(NO_SLIP, FREE_SLIP), (PERIODIC, PERIODIC),
                        (FREE_SLIP, NO_SLIP)]),
    },
    "odd_periodic": {2: ((6, 3), PERIODIC), 3: ((3, 5, 3), PERIODIC)},
}
FORMS = [LAPLACIAN, STRESS, STRESS_BULK]

walls = pytest.mark.parametrize("walls", list(WALLS))
dims = pytest.mark.parametrize("dim", [2, 3])
forms = pytest.mark.parametrize("form", FORMS, ids=[f.value for f in FORMS])


def case(walls, dim, form, rng):
    cells, bc = WALLS[walls][dim]
    g = mkgrid(cells, bc=bc, h=0.5)
    rho = CellField(g, 1.0 + rng.random(g.cells))
    mu = CellField(g, 1.0 + rng.random(g.cells))
    gamma = CellField(g, rng.random(g.cells))
    return g, make_coefficients(g, 0.7, rho, mu, gamma, viscous_form=form)


def arrays_of(obj):
    """Every float array reachable from a field, coefficient set or
    hierarchy, in a fixed order."""
    if isinstance(obj, np.ndarray):
        return [obj]
    if isinstance(obj, CellField):
        return [obj.data]
    if isinstance(obj, FaceField):
        return list(obj.components)
    if isinstance(obj, StokesVector):
        return arrays_of(obj.u) + arrays_of(obj.p)
    if isinstance(obj, multigrid.MgHierarchy):
        return [arr for c in obj.levels for arr in arrays_of(c)]
    # CoefficientSet
    return (arrays_of(obj.rho_face)
            + arrays_of(obj.mu_cell)
            + [obj.mu_node_edge.arrays[k] for k in sorted(obj.mu_node_edge.arrays)]
            + arrays_of(obj.gamma_cell))


def snapshot(*objs):
    return [arr.tobytes() for obj in objs for arr in arrays_of(obj)]


def assert_unchanged(before, *objs):
    after = snapshot(*objs)
    assert len(after) == len(before)
    changed = [i for i, (x, y) in enumerate(zip(before, after)) if x != y]
    assert changed == [], f"input arrays {changed} were written"


@walls
@dims
@forms
def test_velocity_operators_leave_inputs(walls, dim, form, rng):
    g, coeff = case(walls, dim, form, rng)
    u, rhs = random_face(g, rng), random_face(g, rng)
    before = snapshot(u, rhs, coeff)
    apply_A(u, coeff)
    apply_A(u, coeff, rhs=rhs)
    assert_unchanged(before, u, rhs, coeff)


@walls
@dims
def test_saddle_and_pressure_operators_leave_inputs(walls, dim, rng):
    g, coeff = case(walls, dim, STRESS_BULK, rng)
    x = StokesVector(random_face(g, rng), random_cell(g, rng))
    rhs = random_cell(g, rng)
    before = snapshot(x, rhs, coeff)
    apply_M(x, coeff)
    grad(x.p)
    div(x.u)
    apply_Lrho(x.p, coeff)
    apply_Lrho(x.p, coeff, rhs)
    assert_unchanged(before, x, rhs, coeff)


@walls
@dims
@forms
def test_operator_kernels_leave_inputs(walls, dim, form, rng):
    # every operator and diagonal entry of the library, the operators with
    # and without a right-hand side
    g, coeff = case(walls, dim, form, rng)
    u, base, p, rhs = random_face(g, rng), random_face(g, rng), random_cell(g, rng), random_cell(g, rng)
    before = snapshot(u, base, p, rhs, coeff)
    kernels.apply_A(u, coeff)
    kernels.apply_A(u, coeff, rhs=base)
    kernels.apply_M(StokesVector(u, p), coeff)
    kernels.apply_M(StokesVector(u, p), coeff, rhs=StokesVector(base, rhs))
    kernels.apply_Lrho(p, coeff)
    kernels.apply_Lrho(p, coeff, rhs)
    kernels.grad(p)
    kernels.div(u)
    kernels.helmholtz_diagonal(g, coeff)
    kernels.lrho_diagonal(g, coeff)
    assert_unchanged(before, u, base, p, rhs, coeff)


@walls
@dims
@forms
@pytest.mark.parametrize("zero_guess", [False, True])
def test_face_smoother_moves_only_x(walls, dim, form, zero_guess, rng):
    g, coeff = case(walls, dim, form, rng)
    diag = helmholtz_diagonal(g, coeff)
    rhs = random_face(g, rng)
    u = FaceField.zeros(g) if zero_guess else random_face(g, rng)
    before, start = snapshot(rhs, diag, coeff), [snapshot(c) for c in u.components]
    smooth_face(u, rhs, g, coeff, diag, 0.8, zero_guess)
    assert_unchanged(before, rhs, diag, coeff)
    # one library call relaxes every component
    assert all(snapshot(c) != was for c, was in zip(u.components, start))


@walls
@dims
@forms
@pytest.mark.parametrize("zero_guess", [False, True])
def test_face_kernel_moves_only_its_component(walls, dim, form, zero_guess, rng):
    # the one library call relaxes the components in turn: component a's
    # right-hand side and diagonal reach component a, and no component
    # relaxed before it
    g, coeff = case(walls, dim, form, rng)
    diag = helmholtz_diagonal(g, coeff)
    rhs = random_face(g, rng)
    u = FaceField.zeros(g) if zero_guess else random_face(g, rng)
    want = u.copy()
    smooth_face(want, rhs, g, coeff, diag, 0.8, zero_guess)
    for a in range(dim):
        rhs_a, diag_a = rhs.copy(), diag.copy()
        rhs_a.components[a][...] += rng.random(rhs_a.components[a].shape)
        diag_a.components[a][...] *= 1.5
        before, got = snapshot(rhs_a, diag_a, coeff), u.copy()
        smooth_face(got, rhs_a, g, coeff, diag_a, 0.8, zero_guess)
        assert_unchanged(before, rhs_a, diag_a, coeff)
        for b in range(a):
            assert snapshot(got.components[b]) == snapshot(want.components[b])
        assert snapshot(got.components[a]) != snapshot(want.components[a])


@walls
@dims
@pytest.mark.parametrize("zero_guess", [False, True])
def test_cell_smoother_moves_only_x(walls, dim, zero_guess, rng):
    g, coeff = case(walls, dim, STRESS, rng)
    diag = lrho_diagonal(g, coeff)
    rhs = random_cell(g, rng)
    phi = CellField.zeros(g) if zero_guess else random_cell(g, rng)
    before, start = snapshot(rhs, diag, coeff), snapshot(phi)
    smooth_cell(phi, rhs, g, coeff, diag, 0.8, zero_guess)
    assert_unchanged(before, rhs, diag, coeff)
    assert snapshot(phi) != start


@walls
@dims
@pytest.mark.parametrize("zero_guess", [False, True])
def test_cell_kernel_moves_only_x(walls, dim, zero_guess, rng):
    # fields built from Fortran-ordered arrays hold C-contiguous copies:
    # the source arrays are not written, and x moves exactly as with
    # C-ordered inputs
    g, coeff = case(walls, dim, STRESS, rng)
    diag = lrho_diagonal(g, coeff)
    rhs = random_cell(g, rng)
    phi = CellField.zeros(g) if zero_guess else random_cell(g, rng)
    want, start = phi.copy(), snapshot(phi)
    smooth_cell(want, rhs, g, coeff, diag, 0.8, zero_guess)
    sources = [np.asfortranarray(f.data) for f in (rhs, diag)]
    assert not any(src.flags.c_contiguous for src in sources)
    before = snapshot(*sources, coeff)
    rhs_f, diag_f = (CellField(g, src) for src in sources)
    for f, src in zip((rhs_f, diag_f), sources):
        assert f.data.flags.c_contiguous and not np.shares_memory(f.data, src)
    smooth_cell(phi, rhs_f, g, coeff, diag_f, 0.8, zero_guess)
    assert_unchanged(before, *sources, coeff)
    assert snapshot(phi) == snapshot(want) != start


def strided(arr):
    """A non-contiguous view holding ``arr``'s values."""
    out = np.empty(arr.shape[:-1] + (2 * arr.shape[-1],))[..., ::2]
    out[...] = arr
    assert not out.flags.c_contiguous
    return out


def strided_face(u, axis):
    """``u`` with its ``axis`` component reassigned to a strided view, around
    the field's refusal of another array."""
    comps = list(u.components)
    comps[axis] = strided(comps[axis])
    object.__setattr__(u, "components", tuple(comps))
    return u


def strided_cell(f):
    """``f`` with its data reassigned to a strided view, around the field's
    refusal of another array."""
    object.__setattr__(f, "data", strided(f.data))
    return f


def refusal_cases(g, coeff, rng):
    """(name, call, iterate or None) of every stencil, each given one input
    whose array was reassigned around the field constructor."""
    last = g.dim - 1
    u, p, phi = random_face(g, rng), random_cell(g, rng), random_cell(g, rng)
    bad_u, bad_p = strided_face(random_face(g, rng), last), strided_cell(random_cell(g, rng))
    # a set of its own, with a face density field of its own to reassign
    bad_coeff = dataclasses.replace(coeff, theta=0.7,
                                    rho_face=FaceField(g, coeff.rho_face.components))
    strided_face(bad_coeff.rho_face, 0)
    fdiag, cdiag = helmholtz_diagonal(g, coeff), lrho_diagonal(g, coeff)
    return [
        ("div", lambda: div(bad_u), None),
        ("grad", lambda: grad(bad_p), None),
        ("apply_Lrho", lambda: apply_Lrho(bad_p, coeff), None),
        ("apply_Lrho rhs", lambda: apply_Lrho(p, coeff, bad_p), None),
        ("apply_Lrho coeff", lambda: apply_Lrho(p, bad_coeff), None),
        ("apply_A", lambda: apply_A(bad_u, coeff), None),
        ("apply_A rhs", lambda: apply_A(u, coeff, rhs=bad_u), None),
        ("apply_A coeff", lambda: apply_A(u, bad_coeff), None),
        ("apply_M", lambda: apply_M(StokesVector(u, bad_p), coeff), None),
        ("apply_M rhs", lambda: apply_M(StokesVector(u, p), coeff,
                                        rhs=StokesVector(bad_u, p)), None),
        ("helmholtz_diagonal", lambda: helmholtz_diagonal(g, bad_coeff), None),
        ("lrho_diagonal", lambda: lrho_diagonal(g, bad_coeff), None),
        ("smooth_cell iterate", lambda: smooth_cell(bad_p, p, g, coeff, cdiag, 0.8), bad_p),
        ("smooth_cell rhs", lambda: smooth_cell(phi, bad_p, g, coeff, cdiag, 0.8), phi),
        ("smooth_cell coeff", lambda: smooth_cell(phi, p, g, bad_coeff, cdiag, 0.8), phi),
        ("smooth_face iterate", lambda: smooth_face(bad_u, u, g, coeff, fdiag, 0.8), bad_u),
        ("smooth_face rhs", lambda: smooth_face(u, bad_u, g, coeff, fdiag, 0.8), u),
        ("smooth_face coeff", lambda: smooth_face(u, u.copy(), g, bad_coeff, fdiag, 0.8), u),
        ("restrict_cell", lambda: restrict_cell(bad_p), None),
        ("prolong_cell", lambda: prolong_cell(bad_p), None),
        ("restrict_face", lambda: restrict_face(bad_u), None),
        ("prolong_face", lambda: prolong_face(bad_u), None),
    ]


class Untouchable:
    """Stands in for the library: records every entry that is called."""

    def __init__(self):
        self.calls = []

    def __getattr__(self, name):
        return lambda *args: self.calls.append(name)


@pytest.mark.parametrize("walls", ["no_slip", "mixed"])
@dims
def test_strided_field_arrays_are_refused_before_the_library(walls, dim, rng, monkeypatch):
    # field constructors store C-contiguous arrays; one reassigned to a
    # strided view afterwards is refused, not copied, and nothing runs
    g, coeff = case(walls, dim, STRESS_BULK, rng)
    cases = refusal_cases(g, coeff, rng)
    library = Untouchable()
    monkeypatch.setattr(kernels, "_library", library)
    for name, call, iterate in cases:
        start = iterate is not None and snapshot(iterate)
        with pytest.raises(LayoutError):
            call()
        assert library.calls == [], name
        if iterate is not None:
            assert snapshot(iterate) == start, name


@pytest.mark.parametrize("walls", [w for w in WALLS if w != "odd_periodic"])
@dims
@forms
def test_vcycle_and_mg_solve_leave_rhs(walls, dim, form, rng):
    g, coeff = case(walls, dim, form, rng)
    hier = build_hierarchy(g, coeff)
    params = SmootherParams(omega=0.8)
    for rhs in (random_face(g, rng), random_cell(g, rng)):
        before = snapshot(rhs, hier)
        vcycle(rhs, hier, params)
        mg_solve(rhs, hier, params, 2)
        assert_unchanged(before, rhs, hier)


@walls
@dims
def test_transfers_leave_inputs(walls, dim, rng):
    g, _ = case(walls, dim, STRESS, rng)
    fields = [random_face(g, rng), random_cell(g, rng)]
    before = snapshot(*fields)
    prolong_face(fields[0])
    prolong_cell(fields[1])
    if g.can_coarsen():
        restrict_face(fields[0])
        restrict_cell(fields[1])
    assert_unchanged(before, *fields)
