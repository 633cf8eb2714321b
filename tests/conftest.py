import numpy as np
import pytest

from stokesmg.grid import (
    FREE_SLIP,
    NO_SLIP,
    PERIODIC,
    CellField,
    FaceField,
    GridSpec,
    StokesVector,
)
from stokesmg.operators import BoundaryValues


# every boundary kind at once: no-slip, free-slip and periodic axes
MIXED_WALLS = {
    2: ((8, 6), [(NO_SLIP, FREE_SLIP), (PERIODIC, PERIODIC)]),
    3: ((4, 6, 4), [(NO_SLIP, FREE_SLIP), (PERIODIC, PERIODIC),
                    (FREE_SLIP, NO_SLIP)]),
}


def mkgrid(n, bc=PERIODIC, dim=2, h=1.0):
    """Cube grid with the same boundary condition on every side."""
    if isinstance(n, int):
        n = (n,) * dim
    if not isinstance(bc, (list, tuple)):
        bc = [(bc, bc)] * len(n)
    return GridSpec(tuple(n), h, tuple(bc))


def random_cell(grid, rng, mean_zero=False):
    f = CellField(grid, rng.standard_normal(grid.cells))
    if mean_zero:
        f.data -= f.data.mean()
    return f


def random_face(grid, rng):
    u = FaceField.zeros(grid)
    for a in range(grid.dim):
        view = u.interior(a)
        view[...] = rng.standard_normal(view.shape)
    return u


def random_bvals(grid, rng):
    """Nonzero normal and tangential wall values on every bounded axis."""
    bvals = BoundaryValues.zeros(grid)
    for axis in range(grid.dim):
        if grid.periodic(axis):
            continue
        for side in (0, 1):
            shape = tuple(n for b, n in enumerate(grid.cells) if b != axis)
            bvals.normal[(axis, side)] = rng.standard_normal(shape)
            for comp in range(grid.dim):
                if comp != axis:
                    shape = tuple(n for b, n in enumerate(grid.face_shape(comp))
                                  if b != axis)
                    bvals.tangential[(axis, side, comp)] = rng.standard_normal(shape)
    return bvals


def random_stokes(grid, rng, mean_zero_p=False):
    return StokesVector(random_face(grid, rng), random_cell(grid, rng, mean_zero_p))


def divergence_free_face(grid, rng):
    """Discrete curl of a random potential (periodic grids only)."""
    assert all(grid.periodic(a) for a in range(grid.dim))
    h = grid.h
    if grid.dim == 2:
        psi = rng.standard_normal(grid.cells)
        ux = (np.roll(psi, -1, axis=1) - psi) / h
        uy = -(np.roll(psi, -1, axis=0) - psi) / h
        return FaceField(grid, (ux, uy))
    pots = [rng.standard_normal(grid.cells) for _ in range(3)]
    comps = []
    for a in range(3):
        b, c = (a + 1) % 3, (a + 2) % 3
        d_b = (np.roll(pots[c], -1, axis=b) - pots[c]) / h
        d_c = (np.roll(pots[b], -1, axis=c) - pots[b]) / h
        comps.append(d_b - d_c)
    return FaceField(grid, tuple(comps))


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


#: tests that wait on a child process: the sanitizer runs (test_sanitizers.py,
#: about half a minute, and test_thread_sanitizer.py) and the benchmark's own
#: suite (test_perfbench_suite.py, several seconds)
CHILD_TESTS = ("test_kernel_properties_pass_under_sanitizers",
               "test_team_property_passes_under_thread_sanitizer",
               "test_benchmark_suite_passes")
_child_runs = []


@pytest.hookimpl(trylast=True)
def pytest_collection_modifyitems(items):
    # start each child once its test is selected (last, after -k and -m
    # deselection), so it runs beside the rest of the suite
    for item in items:
        if item.name in CHILD_TESTS:
            item.module.CHILD.start()
            _child_runs.append(item.module.CHILD)


def pytest_sessionfinish():
    # a run stopped before a child's test leaves no child behind
    for run in _child_runs:
        run.stop()
