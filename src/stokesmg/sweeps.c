/* Two-colour Gauss-Seidel sweeps of the multigrid smoothers.
 *
 * smg_face_sweep relaxes one velocity component of A = theta rho - L_mu and
 * smg_cell_sweep the density-weighted pressure operator D (1/rho) G, in
 * place.  One sweep forms the residual r = rhs - A x once, relaxes the red
 * entries (even index sum over the unknowns) from it Jacobi-style, brings r
 * up to date at the black entries from the red corrections alone, and
 * relaxes the black entries.
 *
 * Every entry is rounded as the numpy formulation rounds it: the same
 * operations in the same order, with no fused multiply-add (the library is
 * built with -ffp-contract=off), so the sweeps are bitwise equal to the
 * whole-array reference in tests/reference.py.  Coupling weights are
 * recomputed from mu and rho with the same scalar products.
 *
 * Arrays are C-contiguous float64 in the package's layouts.  A 2D grid is
 * addressed as a 3D grid whose leading axis has one cell and couples
 * nothing.  The caller passes the scalars it rounds itself (1/h^2, h).
 *
 * Each pass runs row by row along the contiguous last axis.  A row function
 * takes its neighbour offsets and wall tests for one column "at" (see
 * LINE) and is kept out of line, so its loop is compiled once.
 */

#include <stdlib.h>
#include <string.h>

#ifndef SMG_KEY
#define SMG_KEY ""
#endif

/* the build's cache key, read by the loader before it loads a library */
const char smg_key[] = SMG_KEY;

#define ROW_FUNCTION static __attribute__((noinline)) void

enum { PERIODIC = 0, NO_SLIP = 1, FREE_SLIP = 2 };
enum { LAPLACIAN = 0, STRESS = 1, STRESS_BULK = 2 };

typedef struct {
    long n[3];        /* cells per axis */
    int lo[3], hi[3]; /* boundary condition of the low and high side */
    int first;        /* first coupled axis: 0 in 3D, 1 in 2D */
    double h;
    double inv_h2;     /* 1 / h^2 */
    double neg_inv_h2; /* -1 / h^2 */
} grid3;

/* Shape of an array staggered along axes x and y (-1 for none). */
static void shape_of(const grid3 *g, int x, int y, long s[3])
{
    for (int k = 0; k < 3; k++)
        s[k] = g->n[k] + ((k == x || k == y) && g->lo[k] != PERIODIC);
}

static long count(const long s[3])
{
    return s[0] * s[1] * s[2];
}

static inline int periodic(const grid3 *g, int x)
{
    return g->lo[x] == PERIODIC;
}

static inline long wrap(long i, long n)
{
    return i < 0 ? i + n : (i >= n ? i - n : i);
}

/* Offset of row (i, j) of shape s, shifted by d along axis x when x < 2. */
static inline long row(const long *s, long i, long j, int x, long d)
{
    if (x == 0)
        i = wrap(i + d, s[0]);
    else if (x == 1)
        j = wrap(j + d, s[1]);
    return (i * s[1] + j) * s[2];
}

/* Offset o such that p[o + k] is the neighbour d along axis x of entry k
 * of row (i, j), in an array of shape s.  Along axis 2 it is evaluated at
 * column "at": it holds for k == at, and for every k when neither k + d
 * nor at + d wraps. */
static inline long nbr(const long *s, long i, long j, long at, int x, long d)
{
    long c = x == 2 ? wrap(at + d, s[2]) : at;
    return row(s, i, j, x, d) + c - at;
}

static inline long idx_along(long i, long j, long k, int x)
{
    return x == 0 ? i : (x == 1 ? j : k);
}

/* The rows (i, j) of a box [lo3, hi3). */
#define ROWS(lo3, hi3)                          \
    for (long i = lo3[0]; i < hi3[0]; i++)      \
        for (long j = lo3[1]; j < hi3[1]; j++)

/* First column at or after lo of the colour whose index sum plus shift
 * has the given parity. */
#define COLOUR_START(lo, shift, parity) ((lo) + ((i + j + (lo) + (shift) + (parity)) & 1))

/* Runs a row over columns k = start, start + step, ... below hi of a row
 * spanning columns [lo, hi), start being lo or lo + 1: "setup" sets the
 * offsets and wall tests for column "at", then "run" covers columns
 * [k0, k1).  The two end columns, where a periodic shift wraps and walls
 * sit, run on their own with at = k; the columns in between run at once,
 * with at = lo + 1, where no shift wraps. */
#define LINE(lo, hi, start, step, setup, run)                           \
    do {                                                                \
        long at = (lo) + 1;                                             \
        long k0 = (start) == (lo) ? (start) + (step) : (start);         \
        long k1 = (hi) - 1;                                             \
        setup;                                                          \
        run;                                                            \
        if ((start) == (lo)) {                                          \
            at = k0 = (lo);                                             \
            k1 = k0 + 1;                                                \
            setup;                                                      \
            run;                                                        \
        }                                                               \
        if ((hi) - 1 > (lo) && ((hi) - 1 - (start)) % (step) == 0) {    \
            at = k0 = (hi) - 1;                                         \
            k1 = k0 + 1;                                                \
            setup;                                                      \
            run;                                                        \
        }                                                               \
    } while (0)

/* Red entries of the box [lo3, hi3) of shape s: delta = omega res / diag
 * and x += delta. */
static void relax_red(const long *s, const long *lo3, const long *hi3, long shift,
                      double omega, const double *res, const double *diag,
                      double *delta, double *x)
{
    ROWS(lo3, hi3) {
        long r = row(s, i, j, -1, 0);
        for (long k = COLOUR_START(lo3[2], shift, 0); k < hi3[2]; k += 2) {
            double d = res[r + k] / diag[r + k];
            if (omega != 1.0)
                d *= omega;
            delta[r + k] = d;
            x[r + k] += d;
        }
    }
}

/* ------------------------------------------------------------------------
 * velocity component a
 * ------------------------------------------------------------------------ */

typedef struct {
    const grid3 *g;
    int a, form, bounded, nb, bs[2]; /* bs: the other coupled axes */
    double theta, omega;
    double *u[3], *ua;
    const double *rhs, *diag, *mu, *gamma, *rho, *w[2]; /* w[m]: (a, bs[m]) */
    double *delta, *r, *fn, *divu, *ft[2];
    long sc[3], sf[3][3], sn[2][3]; /* cells, faces, (a, bs[m]) nodes/edges */
} face_sweep_t;

/* The normal coupling weight of the viscous form at one cell, as
 * viscous_couplings rounds it. */
static inline double normal_weight(int form, double inv_h2, double mu, double gamma)
{
    if (form == LAPLACIAN)
        return inv_h2 * mu;
    if (form == STRESS)
        return (2.0 * inv_h2) * mu;
    return inv_h2 * (2.0 * mu + (gamma - (2.0 / 3.0) * mu));
}

/* r plus one axis' two neighbour terms in _add_neighbors' order: a
 * periodic axis adds their sum, a bounded axis the upper term and then the
 * lower one, each where that neighbour exists. */
static inline double add_pair(double r, int periodic_axis, int has_lo, int has_hi,
                              double lo, double hi)
{
    if (periodic_axis)
        return r + (lo + hi);
    if (has_hi)
        r += hi;
    if (has_lo)
        r += lo;
    return r;
}

/* div(u) of the current iterate at the cells */
typedef struct { long rc, r0[3], r1[3]; } div_at;

static void div_setup(const face_sweep_t *f, long i, long j, long at, div_at *o)
{
    o->rc = row(f->sc, i, j, -1, 0);
    for (int b = f->g->first; b < 3; b++) {
        o->r0[b] = row(f->sf[b], i, j, -1, 0);
        o->r1[b] = nbr(f->sf[b], i, j, at, b, 1);
    }
}

ROW_FUNCTION div_row(const face_sweep_t *f, const div_at *o, long k0, long k1)
{
    const double *u0 = f->u[0], *u1 = f->u[1], *u2 = f->u[2];
    const long a0 = o->r0[0], b0 = o->r1[0], a1 = o->r0[1], b1 = o->r1[1];
    const long a2 = o->r0[2], b2 = o->r1[2], rc = o->rc;
    const int three = f->g->first == 0;
    const double h = f->g->h;
    for (long k = k0; k < k1; k++) {
        double s = 0.0;
        if (three)
            s += u0[b0 + k] - u0[a0 + k];
        s += u1[b1 + k] - u1[a1 + k];
        s += u2[b2 + k] - u2[a2 + k];
        f->divu[rc + k] = s / h;
    }
}

/* normal fluxes at the cells */
typedef struct { long rc, rf, r1; } normal_at;

static void normal_setup(const face_sweep_t *f, long i, long j, long at, normal_at *o)
{
    o->rc = row(f->sc, i, j, -1, 0);
    o->rf = row(f->sf[f->a], i, j, -1, 0);
    o->r1 = nbr(f->sf[f->a], i, j, at, f->a, 1);
}

ROW_FUNCTION normal_row(const face_sweep_t *f, const normal_at *o, long k0, long k1)
{
    const double *ua = f->ua, *mu = f->mu, *gamma = f->gamma, *divu = f->divu;
    const long rc = o->rc, rf = o->rf, r1 = o->r1;
    const int doubled = f->form != LAPLACIAN, bulk_form = f->form == STRESS_BULK;
    const double h = f->g->h;
    double *fn = f->fn;
    if (!bulk_form) { /* the common forms, without branches */
        if (doubled)
            for (long k = k0; k < k1; k++)
                fn[rc + k] = ((ua[r1 + k] - ua[rf + k]) * 2.0) * mu[rc + k];
        else
            for (long k = k0; k < k1; k++)
                fn[rc + k] = (ua[r1 + k] - ua[rf + k]) * mu[rc + k];
        return;
    }
    for (long k = k0; k < k1; k++) { /* stress-bulk */
        double d = (ua[r1 + k] - ua[rf + k]) * 2.0;
        d *= mu[rc + k];
        double bulk = (2.0 / 3.0) * mu[rc + k];
        bulk = gamma[rc + k] - bulk;
        bulk *= divu[rc + k];
        bulk *= h;
        fn[rc + k] = d + bulk;
    }
}

/* tangential fluxes at the (a, b) nodes or edges; a wall row takes the
 * one-sided difference against the wall, a free-slip wall no flux */
typedef struct { long rn, rf, rb, ra1, rb1; int lo_wall, hi_wall, slip; } tangent_at;

static void tangent_setup(const face_sweep_t *f, int m, long i, long j, long at,
                          tangent_at *o)
{
    const grid3 *g = f->g;
    int a = f->a, b = f->bs[m];
    long jb = idx_along(i, j, at, b);
    o->rn = row(f->sn[m], i, j, -1, 0);
    o->rf = row(f->sf[a], i, j, -1, 0);
    o->rb = row(f->sf[b], i, j, -1, 0);
    o->ra1 = nbr(f->sf[a], i, j, at, b, -1);
    o->rb1 = nbr(f->sf[b], i, j, at, a, -1);
    o->lo_wall = !periodic(g, b) && jb == 0;
    o->hi_wall = !periodic(g, b) && jb == g->n[b];
    o->slip = (o->lo_wall && g->lo[b] == FREE_SLIP) || (o->hi_wall && g->hi[b] == FREE_SLIP);
}

ROW_FUNCTION tangent_row(const face_sweep_t *f, int m, const tangent_at *o,
                         long k0, long k1)
{
    const double *ua = f->ua, *ub = f->u[f->bs[m]], *w = f->w[m];
    const long rn = o->rn, rf = o->rf, rb = o->rb, ra1 = o->ra1, rb1 = o->rb1;
    const int lo_wall = o->lo_wall, hi_wall = o->hi_wall, slip = o->slip;
    const int cross = f->form != LAPLACIAN;
    double *out = f->ft[m];
    if (!lo_wall && !hi_wall) { /* the common row, without branches */
        if (cross)
            for (long k = k0; k < k1; k++)
                out[rn + k] = ((ua[rf + k] - ua[ra1 + k]) + (ub[rb + k] - ub[rb1 + k]))
                              * w[rn + k];
        else
            for (long k = k0; k < k1; k++)
                out[rn + k] = (ua[rf + k] - ua[ra1 + k]) * w[rn + k];
        return;
    }
    for (long k = k0; k < k1; k++) { /* a wall row */
        double t = lo_wall ? (ua[rf + k] - 0.0) * 2.0 : (0.0 - ua[ra1 + k]) * 2.0;
        if (cross)
            t += ub[rb + k] - ub[rb1 + k];
        t *= w[rn + k];
        if (slip)
            t = 0.0;
        out[rn + k] = t;
    }
}

/* r = ((flux differences) / h^2 - theta rho u) + rhs at the unknowns */
typedef struct { long rf, rc, rc1, rn[2], rn1[2]; } residual_at;

static void residual_setup(const face_sweep_t *f, long i, long j, long at, residual_at *o)
{
    o->rf = row(f->sf[f->a], i, j, -1, 0);
    o->rc = row(f->sc, i, j, -1, 0);
    o->rc1 = nbr(f->sc, i, j, at, f->a, -1);
    for (int m = 0; m < f->nb; m++) {
        o->rn[m] = row(f->sn[m], i, j, -1, 0);
        o->rn1[m] = nbr(f->sn[m], i, j, at, f->bs[m], 1);
    }
}

ROW_FUNCTION residual_row(const face_sweep_t *f, const residual_at *o, long k0, long k1)
{
    const double *fn = f->fn, *ua = f->ua, *rho = f->rho, *rhs = f->rhs;
    const double *t0 = f->ft[0], *t1 = f->nb == 2 ? f->ft[1] : f->ft[0];
    const long rf = o->rf, rc = o->rc, rc1 = o->rc1;
    const long n0 = o->rn[0], m0 = o->rn1[0];
    const long n1 = f->nb == 2 ? o->rn[1] : n0, m1 = f->nb == 2 ? o->rn1[1] : m0;
    const int two = f->nb == 2, mass_term = f->theta > 0;
    const double theta = f->theta, inv_h2 = f->g->inv_h2;
    double *r = f->r;
    for (long k = k0; k < k1; k++) {
        double v = fn[rc + k] - fn[rc1 + k];
        v += t0[m0 + k] - t0[n0 + k];
        if (two)
            v += t1[m1 + k] - t1[n1 + k];
        v *= inv_h2;
        if (mass_term) {
            double mass = theta * rho[rf + k];
            mass *= ua[rf + k];
            v -= mass;
        }
        r[rf + k] = v + rhs[rf + k];
    }
}

/* black entries: r plus each coupling's red corrections, relaxed */
typedef struct {
    long rf, rc, rc1, rup, rdn, rn[2], rn1[2], rlo[2], rhi[2];
    int has_lo[2], has_hi[2];
} black_face_at;

static void black_face_setup(const face_sweep_t *f, long i, long j, long at,
                             black_face_at *o)
{
    const long *sa = f->sf[f->a];
    o->rf = row(sa, i, j, -1, 0);
    o->rc = row(f->sc, i, j, -1, 0);
    o->rc1 = nbr(f->sc, i, j, at, f->a, -1);
    o->rup = nbr(sa, i, j, at, f->a, 1);
    o->rdn = nbr(sa, i, j, at, f->a, -1);
    for (int m = 0; m < f->nb; m++) {
        int b = f->bs[m];
        long jb = idx_along(i, j, at, b);
        o->rn[m] = row(f->sn[m], i, j, -1, 0);
        o->rn1[m] = nbr(f->sn[m], i, j, at, b, 1);
        o->rlo[m] = nbr(sa, i, j, at, b, -1);
        o->rhi[m] = nbr(sa, i, j, at, b, 1);
        o->has_lo[m] = periodic(f->g, b) || jb >= 1;
        o->has_hi[m] = periodic(f->g, b) || jb <= f->g->n[b] - 2;
    }
}

ROW_FUNCTION black_face_row(const face_sweep_t *f, const black_face_at *o,
                            long k0, long k1)
{
    const double *mu = f->mu, *gamma = f->gamma, *delta = f->delta;
    const double *res = f->r, *diag = f->diag;
    const double *w0 = f->w[0], *w1 = f->nb == 2 ? f->w[1] : f->w[0];
    const long rf = o->rf, rc = o->rc, rc1 = o->rc1, rup = o->rup, rdn = o->rdn;
    const int two = f->nb == 2, last = two;
    const long n0 = o->rn[0], m0 = o->rn1[0], lo0 = o->rlo[0], hi0 = o->rhi[0];
    const long n1 = o->rn[last], m1 = o->rn1[last], lo1 = o->rlo[last], hi1 = o->rhi[last];
    const int p0 = periodic(f->g, f->bs[0]), p1 = periodic(f->g, f->bs[last]);
    const int hl0 = o->has_lo[0], hh0 = o->has_hi[0];
    const int hl1 = o->has_lo[last], hh1 = o->has_hi[last];
    const int form = f->form, bounded = f->bounded;
    const double inv_h2 = f->g->inv_h2, omega = f->omega;
    double *ua = f->ua;
    for (long k = k0; k < k1; k += 2) {
        double r = res[rf + k];
        /* normal coupling: cell k joins faces k and k + 1 along a */
        double up = normal_weight(form, inv_h2, mu[rc + k], gamma[rc + k]) * delta[rup + k];
        double down = normal_weight(form, inv_h2, mu[rc1 + k], gamma[rc1 + k]) * delta[rdn + k];
        r = add_pair(r, !bounded, 1, 1, down, up);
        /* tangential couplings: node j joins rows j - 1 and j along b */
        r = add_pair(r, p0, hl0, hh0, (inv_h2 * w0[n0 + k]) * delta[lo0 + k],
                     (inv_h2 * w0[m0 + k]) * delta[hi0 + k]);
        if (two)
            r = add_pair(r, p1, hl1, hh1, (inv_h2 * w1[n1 + k]) * delta[lo1 + k],
                         (inv_h2 * w1[m1 + k]) * delta[hi1 + k]);
        r /= diag[rf + k];
        if (omega != 1.0)
            r *= omega;
        ua[rf + k] += r;
    }
}

int smg_face_sweep(const grid3 *g, int a, int form, double theta, double omega,
                   int zero_guess, double *u0, double *u1, double *u2,
                   const double *rhs, const double *diag, const double *mu,
                   const double *gamma, const double *rho,
                   const double *ne01, const double *ne02, const double *ne12)
{
    const double *ne[3][3] = {{0, ne01, ne02}, {ne01, 0, ne12}, {ne02, ne12, 0}};
    face_sweep_t f = {.g = g, .a = a, .form = form, .bounded = !periodic(g, a),
                      .theta = theta, .omega = omega, .u = {u0, u1, u2},
                      .rhs = rhs, .diag = diag, .mu = mu, .gamma = gamma, .rho = rho};
    f.ua = f.u[a];
    shape_of(g, -1, -1, f.sc);
    for (int x = g->first; x < 3; x++)
        shape_of(g, x, x, f.sf[x]);
    long nn = 0;
    for (int b = g->first; b < 3; b++) {
        if (b == a)
            continue;
        f.bs[f.nb] = b;
        f.w[f.nb] = ne[a][b];
        shape_of(g, a, b, f.sn[f.nb]);
        nn += count(f.sn[f.nb++]);
    }
    const long *sa = f.sf[a], *sc = f.sc;
    long nc = count(sc), nf = count(sa), zero3[3] = {0, 0, 0};
    /* unknowns: the interior along a, everything along the other axes */
    long lo3[3] = {0, 0, 0}, hi3[3] = {sa[0], sa[1], sa[2]};
    lo3[a] = f.bounded;
    hi3[a] = sa[a] - f.bounded;

    double *work = malloc((nf + (zero_guess ? 0 : nf + 2 * nc + nn)) * sizeof(double));
    if (!work)
        return -1;
    f.delta = work;
    memset(f.delta, 0, nf * sizeof(double));

    if (zero_guess) {
        f.r = (double *)rhs;
    } else {
        f.r = work + nf;
        f.fn = f.r + nf;
        f.divu = f.fn + nc;
        f.ft[0] = f.divu + nc;
        if (f.nb == 2)
            f.ft[1] = f.ft[0] + count(f.sn[0]);

        if (form == STRESS_BULK)
            ROWS(zero3, sc) {
                div_at o = {0};
                LINE(0, sc[2], 0, 1, div_setup(&f, i, j, at, &o),
                     div_row(&f, &o, k0, k1));
            }
        ROWS(zero3, sc) {
            normal_at o;
            LINE(0, sc[2], 0, 1, normal_setup(&f, i, j, at, &o),
                 normal_row(&f, &o, k0, k1));
        }
        for (int m = 0; m < f.nb; m++) {
            /* the node/edge rows of the unknowns */
            const long *s = f.sn[m];
            long nlo[3] = {0, 0, 0}, nhi[3] = {s[0], s[1], s[2]};
            nlo[a] = lo3[a];
            nhi[a] = s[a] - f.bounded;
            ROWS(nlo, nhi) {
                tangent_at o;
                LINE(nlo[2], nhi[2], nlo[2], 1, tangent_setup(&f, m, i, j, at, &o),
                     tangent_row(&f, m, &o, k0, k1));
            }
        }
        ROWS(lo3, hi3) {
            residual_at o;
            LINE(lo3[2], hi3[2], lo3[2], 1, residual_setup(&f, i, j, at, &o),
                 residual_row(&f, &o, k0, k1));
        }
    }

    relax_red(sa, lo3, hi3, -f.bounded, omega, f.r, diag, f.delta, f.ua);
    ROWS(lo3, hi3) {
        black_face_at o;
        LINE(lo3[2], hi3[2], COLOUR_START(lo3[2], -f.bounded, 1), 2,
             black_face_setup(&f, i, j, at, &o), black_face_row(&f, &o, k0, k1));
    }

    free(work);
    return 0;
}

/* ------------------------------------------------------------------------
 * pressure
 * ------------------------------------------------------------------------ */

typedef struct {
    const grid3 *g;
    double omega;
    double *p;
    const double *rhs, *diag, *rho[3];
    double *delta, *r, *flux[3];
    long sc[3], sf[3][3];
} cell_sweep_t;

/* (1/rho) G p at the faces along x; wall faces carry no flux */
typedef struct { long rf, rc, rc1; int inner; } gradient_at;

static void gradient_setup(const cell_sweep_t *c, int x, long i, long j, long at,
                           gradient_at *o)
{
    long jx = idx_along(i, j, at, x);
    o->rf = row(c->sf[x], i, j, -1, 0);
    o->rc = row(c->sc, i, j, -1, 0);
    o->rc1 = nbr(c->sc, i, j, at, x, -1);
    o->inner = periodic(c->g, x) || (jx > 0 && jx < c->g->n[x]);
}

ROW_FUNCTION gradient_row(const cell_sweep_t *c, int x, const gradient_at *o,
                          long k0, long k1)
{
    const double *p = c->p, *rho = c->rho[x];
    const long rf = o->rf, rc = o->rc, rc1 = o->rc1;
    const int inner = o->inner;
    double *out = c->flux[x];
    for (long k = k0; k < k1; k++) {
        double d = 0.0;
        if (inner)
            d = p[rc + k] - p[rc1 + k];
        out[rf + k] = d / rho[rf + k];
    }
}

/* r = rhs - D (1/rho) G p */
typedef struct { long rc, r0[3], r1[3]; } poisson_at;

static void poisson_setup(const cell_sweep_t *c, long i, long j, long at, poisson_at *o)
{
    o->rc = row(c->sc, i, j, -1, 0);
    for (int x = c->g->first; x < 3; x++) {
        o->r0[x] = row(c->sf[x], i, j, -1, 0);
        o->r1[x] = nbr(c->sf[x], i, j, at, x, 1);
    }
}

ROW_FUNCTION poisson_row(const cell_sweep_t *c, const poisson_at *o, long k0, long k1)
{
    const double *f0 = c->flux[0], *f1 = c->flux[1], *f2 = c->flux[2], *rhs = c->rhs;
    const long a0 = o->r0[0], b0 = o->r1[0], a1 = o->r0[1], b1 = o->r1[1];
    const long a2 = o->r0[2], b2 = o->r1[2], rc = o->rc;
    const int three = c->g->first == 0;
    const double inv_h2 = c->g->inv_h2;
    double *r = c->r;
    for (long k = k0; k < k1; k++) {
        double v = 0.0;
        if (three)
            v += f0[b0 + k] - f0[a0 + k];
        v += f1[b1 + k] - f1[a1 + k];
        v += f2[b2 + k] - f2[a2 + k];
        v *= inv_h2;
        r[rc + k] = rhs[rc + k] - v;
    }
}

/* black entries: face k joins cells k - 1 and k along x, with weight
 * -1/(rho h^2) */
typedef struct { long rc, r0[3], r1[3], rlo[3], rhi[3]; int has_lo[3], has_hi[3]; } black_cell_at;

static void black_cell_setup(const cell_sweep_t *c, long i, long j, long at,
                             black_cell_at *o)
{
    o->rc = row(c->sc, i, j, -1, 0);
    for (int x = c->g->first; x < 3; x++) {
        long jx = idx_along(i, j, at, x);
        o->r0[x] = row(c->sf[x], i, j, -1, 0);
        o->r1[x] = nbr(c->sf[x], i, j, at, x, 1);
        o->rlo[x] = nbr(c->sc, i, j, at, x, -1);
        o->rhi[x] = nbr(c->sc, i, j, at, x, 1);
        o->has_lo[x] = periodic(c->g, x) || jx >= 1;
        o->has_hi[x] = periodic(c->g, x) || jx <= c->g->n[x] - 2;
    }
}

ROW_FUNCTION black_cell_row(const cell_sweep_t *c, const black_cell_at *o,
                            long k0, long k1)
{
    const grid3 *g = c->g;
    const double *delta = c->delta, *res = c->r, *diag = c->diag;
    const double *q0 = c->rho[0], *q1 = c->rho[1], *q2 = c->rho[2];
    const long rc = o->rc;
    const long a0 = o->r0[0], b0 = o->r1[0], lo0 = o->rlo[0], hi0 = o->rhi[0];
    const long a1 = o->r0[1], b1 = o->r1[1], lo1 = o->rlo[1], hi1 = o->rhi[1];
    const long a2 = o->r0[2], b2 = o->r1[2], lo2 = o->rlo[2], hi2 = o->rhi[2];
    const int p0 = periodic(g, 0), p1 = periodic(g, 1), p2 = periodic(g, 2);
    const int hl0 = o->has_lo[0], hh0 = o->has_hi[0], hl1 = o->has_lo[1];
    const int hh1 = o->has_hi[1], hl2 = o->has_lo[2], hh2 = o->has_hi[2];
    const int three = g->first == 0;
    const double neg_inv_h2 = g->neg_inv_h2, omega = c->omega;
    double *p = c->p;
    for (long k = k0; k < k1; k += 2) {
        double r = res[rc + k];
        if (three)
            r = add_pair(r, p0, hl0, hh0, (neg_inv_h2 / q0[a0 + k]) * delta[lo0 + k],
                         (neg_inv_h2 / q0[b0 + k]) * delta[hi0 + k]);
        r = add_pair(r, p1, hl1, hh1, (neg_inv_h2 / q1[a1 + k]) * delta[lo1 + k],
                     (neg_inv_h2 / q1[b1 + k]) * delta[hi1 + k]);
        r = add_pair(r, p2, hl2, hh2, (neg_inv_h2 / q2[a2 + k]) * delta[lo2 + k],
                     (neg_inv_h2 / q2[b2 + k]) * delta[hi2 + k]);
        r /= diag[rc + k];
        if (omega != 1.0)
            r *= omega;
        p[rc + k] += r;
    }
}

int smg_cell_sweep(const grid3 *g, double omega, int zero_guess, double *p,
                   const double *rhs, const double *diag,
                   const double *rho0, const double *rho1, const double *rho2)
{
    cell_sweep_t c = {.g = g, .omega = omega, .p = p, .rhs = rhs, .diag = diag,
                      .rho = {rho0, rho1, rho2}};
    const long *sc = c.sc;
    long nf = 0, zero3[3] = {0, 0, 0};
    shape_of(g, -1, -1, c.sc);
    for (int x = g->first; x < 3; x++) {
        shape_of(g, x, x, c.sf[x]);
        nf += count(c.sf[x]);
    }
    long nc = count(sc);

    double *work = malloc((nc + (zero_guess ? 0 : nc + nf)) * sizeof(double));
    if (!work)
        return -1;
    c.delta = work;
    memset(c.delta, 0, nc * sizeof(double));

    if (zero_guess) {
        c.r = (double *)rhs;
    } else {
        c.r = work + nc;
        double *next = c.r + nc;
        for (int x = g->first; x < 3; x++) {
            const long *s = c.sf[x];
            c.flux[x] = next;
            next += count(s);
            ROWS(zero3, s) {
                gradient_at o;
                LINE(0, s[2], 0, 1, gradient_setup(&c, x, i, j, at, &o),
                     gradient_row(&c, x, &o, k0, k1));
            }
        }
        ROWS(zero3, sc) {
            poisson_at o = {0};
            LINE(0, sc[2], 0, 1, poisson_setup(&c, i, j, at, &o),
                 poisson_row(&c, &o, k0, k1));
        }
    }

    relax_red(sc, zero3, sc, 0, omega, c.r, diag, c.delta, p);
    ROWS(zero3, sc) {
        black_cell_at o = {0};
        LINE(0, sc[2], COLOUR_START(0, 0, 1), 2, black_cell_setup(&c, i, j, at, &o),
             black_cell_row(&c, &o, k0, k1));
    }

    free(work);
    return 0;
}
