"""Multigrid subsolver convergence, in the style of the smoothing study.

Solves the constant-coefficient pressure Poisson problem and the staggered
velocity problem on a 128^2 no-slip box, varying the number of smoothing
sweeps per level.  Two sweeps buy a big jump over one; more helps only a
little -- which is why the preconditioners default to 2+2.
"""

import numpy as np

from stokesmg import (
    NO_SLIP,
    CellField,
    FaceField,
    GridSpec,
    SmootherParams,
    apply_A,
    apply_Lrho,
    build_hierarchy,
    constant_coefficients,
    norm2,
    vcycle,
)

rng = np.random.default_rng(3)
grid = GridSpec((128, 128), 1.0, ((NO_SLIP, NO_SLIP),) * 2)
coeff = constant_coefficients(grid, theta=1.0)
hier = build_hierarchy(grid, coeff)
print("hierarchy:", " -> ".join(str(lv.grid.cells[0]) for lv in hier.levels))

for target in ("pressure", "velocity"):
    print(f"\n=== {target} solver, relative residual per V-cycle ===")
    print("cycle " + "".join(f"   sweeps={s}" for s in (1, 2, 3)))
    histories = {}
    for sweeps in (1, 2, 3):
        params = SmootherParams(sweeps_down=sweeps, sweeps_up=sweeps)
        if target == "pressure":
            rhs = CellField(grid, rng.standard_normal(grid.cells))
            rhs.data -= rhs.data.mean()
            x = CellField.zeros(grid)
            resid = lambda: CellField(grid, rhs.data - apply_Lrho(x, coeff).data)
        else:
            rhs = FaceField.zeros(grid)
            for a in range(2):
                view = rhs.interior(a)
                view[...] = rng.standard_normal(view.shape)
            x = FaceField.zeros(grid)
            resid = lambda: rhs - apply_A(x, coeff)
        r0 = norm2(rhs)
        rels = []
        for _ in range(10):
            corr = vcycle(resid(), hier, params)
            if target == "pressure":
                x.data += corr.data
            else:
                for a in range(2):
                    x.components[a][...] += corr.components[a]
            rels.append(norm2(resid()) / r0)
        histories[sweeps] = rels
    for cycle in range(10):
        row = " ".join(f"{histories[s][cycle]:10.2e}" for s in (1, 2, 3))
        print(f"{cycle + 1:5d} {row}")
