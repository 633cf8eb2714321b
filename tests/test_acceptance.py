"""Acceptance suite.

One test per acceptance criterion, each printing a PASS/FAIL line; run with
``pytest tests/test_acceptance.py -v -s`` to see the lines as they complete.
All tolerances are pinned here, not configurable.
"""

import functools
import math

import numpy as np

from stokesmg.grid import CellField, dot, norm2
from stokesmg.krylov import GmresConfig, gmres_solve, true_residual
from stokesmg.multigrid import SmootherParams, build_hierarchy, vcycle
from stokesmg.operators import (
    LAPLACIAN,
    STRESS,
    apply_A,
    apply_Lrho,
    apply_M,
    div,
    grad,
    make_coefficients,
    rescale,
)
from stokesmg.precond import P1, P2, P3, P4, P5, PrecondConfig
from stokesmg.problems import (
    BubbleSpec,
    CflSpec,
    bubble_coefficients,
    cfl_to_theta,
    constant_coefficients,
    make_rhs,
)
from stokesmg.schur import MINUS, PLUS, SchurConfig, apply_schur_inv, exact_schur_apply
from stokesmg.spectrum import analyze_stokes_spectrum

from conftest import (
    NO_SLIP,
    PERIODIC,
    divergence_free_face,
    mkgrid,
    random_cell,
    random_face,
    random_stokes,
)


def report(criterion: int, ok: bool, detail: str):
    print(f"[criterion {criterion:2d}] {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {criterion}: {detail}"


# ---------------------------------------------------------------------------
# shared bubble solves (criteria 6, 7, 8 reuse the same 128^2 problem)
# ---------------------------------------------------------------------------


@functools.lru_cache(maxsize=None)
def bubble_solve(n, dim, kind_name, sign_name="minus", beta=math.inf,
                 contrast=100.0, max_iters=100, rtol=1e-12):
    kind = {"P1": P1, "P2": P2, "P3": P3, "P4": P4, "P5": P5}[kind_name]
    sign = MINUS if sign_name == "minus" else PLUS
    g = mkgrid(n, bc=NO_SLIP, dim=dim)
    cfl = CflSpec(beta)
    spec = BubbleSpec(r_mu=contrast, r_rho=contrast, seed=0)
    # beta = 0 is the bubble without viscosity, at theta = 1
    theta = cfl_to_theta(cfl, 1.0, 1.0, g.h)
    coeff = bubble_coefficients(g, spec, theta=theta, mu0=0.0 if cfl.inviscid else 1.0)
    rhs, _ = make_rhs(g, coeff, seed=1)
    coeff, rhs, _ = rescale(coeff, rhs)
    pcfg = PrecondConfig(kind=kind, schur=SchurConfig(sign=sign))
    gcfg = GmresConfig(restart=10, rtol=rtol, max_iters=max_iters)
    _, hist = gmres_solve(rhs, coeff, pcfg, gcfg)
    return hist


def first_reaching(hist, tol):
    """(iteration, scalar_vcycles) of the first entry with that true-residual
    reduction, or (None, None)."""
    r0 = hist.entries[0].resid_true
    for e in hist.entries:
        if e.resid_true <= tol * r0:
            return e.iteration, e.scalar_vcycles
    return None, None


# ---------------------------------------------------------------------------
# criterion 1: stencil/adjoint identities
# ---------------------------------------------------------------------------


def test_criterion_1_stencil_adjoint_suite(rng):
    worst = {"adjoint": 0.0, "dglp": 0.0, "selfadj": 0.0, "stress": 0.0}
    for dim, n in ((2, 32), (3, 16)):
        for bc in (PERIODIC, NO_SLIP):
            g = mkgrid(n, bc=bc, dim=dim)
            p = random_cell(g, rng)
            u = random_face(g, rng)
            lhs = dot(grad(p), u)
            rhs = -dot(p, div(u))
            scale = norm2(p) * norm2(u) / g.h
            worst["adjoint"] = max(worst["adjoint"], abs(lhs - rhs) / (1e-13 * scale))

            from stokesmg.operators import lap_pressure

            ok_dg = np.array_equal(lap_pressure(p).data, div(grad(p)).data)
            worst["dglp"] = max(worst["dglp"], 0.0 if ok_dg else 2.0)

            mu = CellField(g, 1.0 + rng.random(g.cells))
            rho = CellField(g, 1.0 + rng.random(g.cells))
            coeff = make_coefficients(g, 0.8, rho, mu)
            x, y = random_stokes(g, rng), random_stokes(g, rng)
            sa_l = dot(apply_M(x, coeff), y)
            sa_r = dot(x, apply_M(y, coeff))
            sa_scale = max(abs(sa_l), abs(sa_r), norm2(x) * norm2(y) / g.h**2)
            worst["selfadj"] = max(worst["selfadj"],
                                   abs(sa_l - sa_r) / (1e-12 * sa_scale))
        # stress form equals mu0 x Laplacian on divergence-free fields (periodic)
        g = mkgrid(n, bc=PERIODIC, dim=dim)
        mu0 = 2.0
        w = divergence_free_face(g, rng)
        ones = CellField(g, np.ones(g.cells))
        # L_mu is -A in steady flow
        stress = -apply_A(w, make_coefficients(
            g, 0.0, ones, CellField(g, np.full(g.cells, mu0)), viscous_form=STRESS))
        lap = -apply_A(w, make_coefficients(
            g, 0.0, ones, ones, viscous_form=LAPLACIAN))
        worst["stress"] = max(worst["stress"], norm2(stress - mu0 * lap)
                              / (1e-13 * max(norm2(stress), 1.0)))
    ok = all(v <= 1.0 for v in worst.values())
    report(1, ok, "adjointness, D G = L_p, M self-adjointness, stress-vs-Laplacian "
           f"(worst/tolerance ratios: { {k: round(v, 3) for k, v in worst.items()} })")


# ---------------------------------------------------------------------------
# criterion 2: multigrid convergence rate
# ---------------------------------------------------------------------------


def test_criterion_2_multigrid_rate(rng):
    results = []
    for dim, n in ((2, 256), (3, 48)):
        g = mkgrid(n, bc=NO_SLIP, dim=dim)
        coeff = constant_coefficients(g, theta=1.0)
        hier = build_hierarchy(g, coeff)
        params = SmootherParams(sweeps_down=2, sweeps_up=2)
        rhs = random_cell(g, rng, mean_zero=True)
        x = CellField.zeros(g)
        r0 = norm2(rhs)
        prev = r0
        ratios = []
        reached = None
        for cycle in range(1, 16):
            res = CellField(g, rhs.data - apply_Lrho(x, coeff).data)
            x.data += vcycle(res, hier, params).data
            rn = norm2(CellField(g, rhs.data - apply_Lrho(x, coeff).data))
            ratios.append(rn / prev)
            prev = rn
            if rn / r0 <= 1e-10:
                reached = cycle
                break
        ok = reached is not None and all(r <= 0.2 for r in ratios[2:])
        results.append((dim, n, reached, max(ratios[2:], default=0.0), ok))
    ok = all(r[-1] for r in results)
    report(2, ok, "pressure V-cycle rate: " + "; ".join(
        f"{d}D {n}: 1e-10 in {c} cycles, worst late ratio {m:.3f}"
        for d, n, c, m, _ in results))


# ---------------------------------------------------------------------------
# criterion 3: exact-subsolver iteration counts
# ---------------------------------------------------------------------------


def test_criterion_3_exact_subsolver_identities():
    lines = []
    ok = True

    g = mkgrid(16, bc=PERIODIC)
    coeff = constant_coefficients(g, viscous_form=STRESS)
    rhs, _ = make_rhs(g, coeff, seed=2)
    for kind, limit in ((P1, 1), (P2, 2), (P3, 2)):
        x, hist = gmres_solve(rhs, coeff,
                              PrecondConfig(kind=kind, exact_subsolvers=True),
                              GmresConfig(rtol=1e-10, max_iters=8))
        exact = hist.iterations == 1 if limit == 1 else hist.iterations <= limit
        ok &= exact and hist.converged
        lines.append(f"periodic {kind.value}:{hist.iterations}")

    g = mkgrid(16, bc=NO_SLIP)
    coeff = constant_coefficients(g, mu0=0.0, theta=1.0)
    rhs, _ = make_rhs(g, coeff, seed=3)
    for kind, limit in ((P1, 1), (P2, 2), (P3, 2)):
        x, hist = gmres_solve(rhs, coeff,
                              PrecondConfig(kind=kind, exact_subsolvers=True),
                              GmresConfig(rtol=1e-11, max_iters=8))
        rel = true_residual(x, rhs, coeff) / norm2(rhs)
        good = (hist.iterations == 1 if limit == 1 else hist.iterations <= limit)
        ok &= good and rel <= 1e-10
        lines.append(f"inviscid {kind.value}:{hist.iterations} (true rel {rel:.1e})")

    report(3, ok, ", ".join(lines))


# ---------------------------------------------------------------------------
# criterion 4: Fourier/Schur exactness
# ---------------------------------------------------------------------------


def test_criterion_4_schur_exactness(rng):
    from stokesmg.operators import STRESS_BULK

    g = mkgrid(8, bc=PERIODIC)
    cases = [(STRESS, 3.0, 0.0, "2mu"), (LAPLACIAN, 3.0, 0.0, "mu"),
             (STRESS_BULK, 3.0, 1.0, "4/3mu+gamma")]
    errs = []
    for form, mu0, gamma0, label in cases:
        coeff = constant_coefficients(g, mu0=mu0, gamma0=gamma0, viscous_form=form)
        p = random_cell(g, rng, mean_zero=True)
        back = apply_schur_inv(exact_schur_apply(p, coeff), coeff)
        errs.append((label, norm2(back - p) / norm2(p)))
    ok = all(e <= 1e-10 for _, e in errs)
    report(4, ok, "inverse composition on mean-zero pressure: "
           + ", ".join(f"{l}: {e:.1e}" for l, e in errs))


# ---------------------------------------------------------------------------
# criterion 5: spectrum claims at 32^2
# ---------------------------------------------------------------------------


def test_criterion_5_spectrum_claims():
    g = mkgrid(32, bc=NO_SLIP)
    coeff = constant_coefficients(g, viscous_form=STRESS)
    ok = g.n_unknowns() == 3008

    rep_m = analyze_stokes_spectrum(g, coeff, "M")
    ok &= rep_m.nonpositive_count == 1024

    rep = analyze_stokes_spectrum(g, coeff, "precondS")
    ok &= rep.zero_multiplicity == 1
    ok &= rep.non_unit_count <= 2 * 31 + 2 * 31
    ok &= rep.min_nonzero > 0 and rep.max_nonzero <= 1.0 + 1e-8
    report(5, ok, f"N_dof={g.n_unknowns()}, M nonpositive={rep_m.nonpositive_count}, "
           f"Schur zero-mult={rep.zero_multiplicity}, "
           f"non-unit={rep.non_unit_count} (<=124), "
           f"range=({rep.min_nonzero:.3f}, {rep.max_nonzero:.10f}]")


# ---------------------------------------------------------------------------
# criterion 6: end-to-end bubble benchmark
# ---------------------------------------------------------------------------


def _no_stall(hist):
    windows = []
    current = []
    for e in hist.entries[1:]:
        if e.restart and current:
            windows.append(current)
            current = []
        current.append(e.resid_precond)
    if current:
        windows.append(current)
    return all(w[-1] < w[0] for w in windows if len(w) > 1)


def test_criterion_6_bubble_benchmark():
    h2 = bubble_solve(128, 2, "P2", max_iters=100)
    it2, _ = first_reaching(h2, 1e-10)
    ok2 = it2 is not None and it2 <= 100 and _no_stall(h2)

    h3 = bubble_solve(48, 3, "P2", max_iters=120)
    it3, _ = first_reaching(h3, 1e-10)
    ok3 = it3 is not None and it3 <= 120 and _no_stall(h3)

    report(6, ok2 and ok3,
           f"2D 128^2: 10 orders at iteration {it2} (<=100), no stall {_no_stall(h2)}; "
           f"3D 48^3: at iteration {it3} (<=120), no stall {_no_stall(h3)}")


# ---------------------------------------------------------------------------
# criterion 7: preconditioner cost ordering
# ---------------------------------------------------------------------------


def test_criterion_7_preconditioner_ordering():
    cost = {}
    for kind, iters in (("P1", 100), ("P2", 100), ("P4", 300), ("P5", 200)):
        hist = bubble_solve(128, 2, kind, max_iters=iters)
        _, cyc = first_reaching(hist, 1e-9)
        cost[kind] = cyc
    ok = (cost["P2"] is not None
          and cost["P2"] <= cost["P1"]
          and cost["P2"] < cost["P4"]
          and cost["P2"] < cost["P5"])
    report(7, ok, "scalar V-cycles to 1e-9: "
           + ", ".join(f"{k}={v}" for k, v in cost.items()))


# ---------------------------------------------------------------------------
# criterion 8: Schur-complement sign
# ---------------------------------------------------------------------------


def test_criterion_8_schur_sign():
    minus = bubble_solve(128, 2, "P2", sign_name="minus", max_iters=100)
    plus = bubble_solve(128, 2, "P2", sign_name="plus", max_iters=300)
    im, _ = first_reaching(minus, 1e-9)
    ip, _ = first_reaching(plus, 1e-9)
    ok = im is not None and ip is not None and im < ip
    report(8, ok, f"iterations to 1e-9: minus={im}, plus={ip}")


# ---------------------------------------------------------------------------
# criterion 9: grid-size robustness at contrast 2
# ---------------------------------------------------------------------------


def test_criterion_9_grid_robustness():
    lines = []
    ok = True
    for kind in ("P1", "P2"):
        small = bubble_solve(64, 2, kind, contrast=2.0, max_iters=100)
        large = bubble_solve(256, 2, kind, contrast=2.0, max_iters=100)
        i_small, _ = first_reaching(small, 1e-9)
        i_large, _ = first_reaching(large, 1e-9)
        good = (i_small is not None and i_large is not None
                and i_large <= 1.5 * i_small)
        ok &= good
        lines.append(f"{kind}: 64^2={i_small}, 256^2={i_large}")
    report(9, ok, "; ".join(lines) + " (need 256^2 <= 1.5 x 64^2)")


# ---------------------------------------------------------------------------
# criterion 10: viscous-CFL sweep monotonicity
# ---------------------------------------------------------------------------


def test_criterion_10_cfl_sweep():
    betas = (0.0, 1.0, 1e4, math.inf)
    lines = []
    ok = True
    for kind in ("P1", "P2"):
        iters = []
        for beta in betas:
            hist = bubble_solve(64, 2, kind, beta=beta, max_iters=150)
            it, _ = first_reaching(hist, 1e-9)
            iters.append(it)
        good = (all(i is not None for i in iters)
                and all(a <= b for a, b in zip(iters, iters[1:])))
        ok &= good
        lines.append(f"{kind}: {iters}")
    report(10, ok, "iterations to 1e-9 across beta=(0,1,1e4,inf): " + "; ".join(lines))


# ---------------------------------------------------------------------------
# criterion 11: preset determinism
# ---------------------------------------------------------------------------


def test_criterion_11_preset_determinism(tmp_path):
    from stokesmg.cli import PRESETS, main

    mismatches = []
    for name, preset in sorted(PRESETS.items()):
        outs = []
        for attempt in range(2):
            out = tmp_path / f"{name}-{attempt}"
            code = main([preset["command"], "--preset", name, "--out", str(out)])
            assert code == 0, (name, code)
            body = {
                f.name: f.read_text()
                for f in sorted(out.iterdir()) if f.name != "manifest.json"
            }
            outs.append(body)
        if outs[0] != outs[1]:
            mismatches.append(name)
    report(11, not mismatches,
           f"all {len(PRESETS)} presets byte-identical on rerun"
           + (f"; mismatches: {mismatches}" if mismatches else ""))
