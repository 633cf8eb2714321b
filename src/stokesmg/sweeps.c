/* The compiled stencils: the two-colour Gauss-Seidel sweeps of the multigrid
 * smoothers, the operators, the grid transfers and the V-cycle over them.
 *
 * smg_face_sweep relaxes every velocity component of A = theta rho - L_mu,
 * one after the other, and smg_cell_sweep the density-weighted pressure
 * operator D (1/rho) G, in place.  Each component (or the pressure) forms
 * the residual r = rhs - A x once, relaxes the red entries (even index sum
 * over the unknowns) from it Jacobi-style, brings r up to date at the black
 * entries from the red corrections alone, and relaxes the black entries.
 *
 * The operators run the stages the sweeps form their residuals with:
 * smg_face_apply gives A u, rhs - A u, the saddle operator
 * (A u + G p, -D u) or its residual, smg_cell_apply D (1/rho) G p or its
 * residual, and smg_div and smg_grad D and G.  smg_face_diag and
 * smg_cell_diag form the diagonals the sweeps divide by, on the rows of
 * their black updates, so each coupling weight and wall rule is written
 * once, here.  smg_restrict_* and smg_prolong_* are the multigrid
 * transfers, one pass per axis.  smg_face_vcycle and smg_cell_vcycle run a
 * whole V-cycle in one call, level by level through the stages of those
 * entries.  smg_dot, smg_mgs_step and smg_combine are the Krylov
 * reductions over flat vectors, each summed in one documented order (see
 * below) that the loops in tests/reference.py repeat.
 *
 * Every entry is rounded as the numpy formulation rounds it: the same
 * operations in the same order, with no fused multiply-add (the library is
 * built with -ffp-contract=off), so every output is bitwise equal to the
 * whole-array reference in tests/reference.py.
 *
 * Arrays are C-contiguous float64 in the package's layouts.  A 2D grid is
 * addressed as a 3D grid whose leading axis has one cell and couples
 * nothing; per-axis pointer arrays (a field's components, the node/edge
 * planes) hold three entries, the unused ones NULL.
 * The caller passes the scalars it rounds itself (1/h^2, h).  No entry
 * writes its inputs.  An entry allocates its workspace once and frees it
 * before it returns (-1: the allocation failed); inside a V-cycle the
 * stages share the cycle's one allocation, and the threads of a call share
 * its workspace.
 *
 * Each pass runs row by row along the contiguous last axis.  A row function
 * takes its neighbour offsets and wall tests for one column "at" (see
 * LINE) and is kept out of line, so its loop is compiled once.
 *
 * The V-cycles, smg_face_apply, smg_cell_apply and smg_combine run on a
 * team of threads (see "the team" below): each pass cuts its rows into
 * chunks that the threads claim, and a stage waits for the chunks of the
 * passes it reads.  No entry of a pass reads what another entry of the
 * same pass writes, so an entry's operations do not depend on which
 * thread runs it, and every output is bitwise the same at any team size.
 * The other entries, and the Krylov dot products, run on the calling
 * thread.
 */

#define _POSIX_C_SOURCE 200809L

#include <pthread.h>
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

/* ------------------------------------------------------------------------
 * the team
 * ------------------------------------------------------------------------
 * A process has one team: the thread that calls an entry and up to
 * TEAM_MAX - 1 helper threads, started at the first call that wants them
 * and kept for the life of the process.  smg_set_threads sets how many
 * threads a call uses (1 until it is called: no helper).  A call runs one task
 * (team_run) on the calling thread, and every helper that wakes in time
 * joins it and runs the same task.  Each pass of the task (SHARES, ROWS)
 * cuts its items into chunks, which the threads claim one at a time, the
 * caller from the first chunk on and the helpers from the last one back,
 * so each thread runs through contiguous rows, and a thread that is late
 * or descheduled holds up only a chunk it has claimed; a thread that
 * reaches a pass whose chunks are all claimed skips it.
 * team_sync waits until every chunk of the passes so far is done: passes
 * between two syncs must not read what the others write.  A call whose
 * grid holds fewer than TEAM_MIN_ENTRIES entries runs on the calling
 * thread alone, and so does a V-cycle from its first level below that
 * down and back.
 *
 * Between calls the helpers sleep on the team's condition variable, never
 * spinning; a waiting thread inside a call spins for at most SPIN_ROUNDS
 * rounds, then sleeps.  A call that finds the team busy (a second calling
 * thread) runs alone.  A forked child starts with no helpers; its first
 * call that wants them starts its own. */

/* threads of the team at most */
enum { TEAM_MAX = 64 };

/* Entries (velocity faces and pressure cells) a grid needs before a call
 * or V-cycle level on it runs on the team: 2D 128^2 (49k entries) and 3D
 * 24^3 (57k) do, 2D 64^2 (12k) and 3D 16^3 (17k) do not.  Below it a
 * chunk holds a few hundred entries, a few microseconds of work, and its
 * claim and the waits cost about as much as the second thread saves. */
#define TEAM_MIN_ENTRIES 32768

/* read by the package's tests, which size their grids from it */
const long smg_team_min_entries = TEAM_MIN_ENTRIES;

/* rounds a waiting thread spins before it sleeps: tens of microseconds */
#define SPIN_ROUNDS 2000

/* chunks per thread of a pass, and passes whose claims can be open at
 * once (more than a task runs between two syncs) */
enum { CHUNKS = 8, RING = 16 };

/* One thread's view of the running call: the call's thread count,
 * whether the thread claims chunks from the back (a helper), and the
 * passes and chunks it has met in it. */
typedef struct {
    int size, back;
    unsigned pass, expected;
} team_t;

/* a team of the calling thread alone */
#define SOLO (&(team_t){.size = 1})

typedef void (*task_fn)(team_t *tm, void *arg);

static struct {
    pthread_mutex_t lock;
    pthread_cond_t wake;
    int want;     /* threads per call */
    int forks;    /* the fork handlers are registered */
    int helpers;  /* helper threads started in this process */
    int busy;     /* a call holds the team */
    int sleepers; /* threads asleep on wake */
    unsigned job;  /* calls published, times 256, plus the call's thread count */
    unsigned open; /* the running call's job word less its count, plus the
                      helpers inside it; CLOSED once the caller is done */
    unsigned completed; /* chunks done in the running call */
    /* per pass mod RING: pass << 32 | chunks claimed from the back << 16 |
       chunks claimed from the front */
    unsigned long long slot[RING];
    unsigned born[TEAM_MAX];  /* the job word a helper was started at */
    task_fn task;
    void *arg;
} team = {.lock = PTHREAD_MUTEX_INITIALIZER, .wake = PTHREAD_COND_INITIALIZER, .want = 1};

enum { CLOSED = 128, INSIDE = 127 };

static unsigned load_word(const unsigned *word)
{
    return __atomic_load_n(word, __ATOMIC_SEQ_CST);
}

static inline void spin_pause(void)
{
#if defined(__x86_64__) || defined(__i386__)
    __builtin_ia32_pause();
#endif
}

/* Returns once *word differs from old, after spinning at most rounds
 * rounds; then it sleeps until wake_sleepers wakes it. */
static void await_change(const unsigned *word, unsigned old, long rounds)
{
    for (long k = 0; k < rounds; k++) {
        if (load_word(word) != old)
            return;
        spin_pause();
    }
    pthread_mutex_lock(&team.lock);
    __atomic_add_fetch(&team.sleepers, 1, __ATOMIC_SEQ_CST);
    while (load_word(word) == old)
        pthread_cond_wait(&team.wake, &team.lock);
    __atomic_sub_fetch(&team.sleepers, 1, __ATOMIC_SEQ_CST);
    pthread_mutex_unlock(&team.lock);
}

/* Wakes the threads asleep in await_change after a word they wait on was
 * changed.  A sleeper counts itself before it reads the word, and the
 * change (sequentially consistent) comes before the count is read, so
 * either the sleeper sees the change or it is woken. */
static void wake_sleepers(void)
{
    if (__atomic_load_n(&team.sleepers, __ATOMIC_SEQ_CST)) {
        pthread_mutex_lock(&team.lock);
        pthread_cond_broadcast(&team.wake);
        pthread_mutex_unlock(&team.lock);
    }
}

static void add_word(unsigned *word, unsigned n)
{
    __atomic_add_fetch(word, n, __ATOMIC_SEQ_CST);
    wake_sleepers();
}

/* Waits until every chunk of the passes this thread has met is done. */
static void team_sync(team_t *tm)
{
    unsigned done;
    if (tm->size == 1)
        return;
    while ((int)((done = load_word(&team.completed)) - tm->expected) < 0)
        await_change(&team.completed, done, SPIN_ROUNDS);
}

/* The next unclaimed chunk of this thread's current pass, of n (at most
 * CHUNKS TEAM_MAX), from its end; -1 when none is left (or a later pass
 * holds the slot: this one is done). */
static long claim(const team_t *tm, long n)
{
    unsigned long long *slot = &team.slot[tm->pass % RING];
    unsigned long long w = __atomic_load_n(slot, __ATOMIC_ACQUIRE);
    for (;;) {
        unsigned tag = (unsigned)(w >> 32);
        long front = tag == tm->pass ? (long)(w & 0xffff) : 0;
        long back = tag == tm->pass ? (long)(w >> 16 & 0xffff) : 0;
        if ((int)(tag - tm->pass) > 0 || front + back >= n)
            return -1;
        unsigned long long next = (unsigned long long)tm->pass << 32
                                  | (unsigned)(back + tm->back) << 16
                                  | (unsigned)(front + !tm->back);
        if (__atomic_compare_exchange_n(slot, &w, next, 0, __ATOMIC_ACQ_REL,
                                        __ATOMIC_ACQUIRE))
            return tm->back ? n - 1 - back : front;
    }
}

/* A pass over n items: the chunk [lo, hi) being run, of chunks. */
typedef struct {
    long n, chunks, lo, hi;
    unsigned claimed;
} pass_t;

static inline pass_t pass_begin(team_t *tm, long n)
{
    pass_t ps = {n, 1, 0, 0, 0};
    if (tm->size > 1) {
        ps.chunks = n < CHUNKS * tm->size ? n : CHUNKS * tm->size;
        tm->pass++;
        tm->expected += (unsigned)ps.chunks;
    }
    return ps;
}

/* Claims the pass's next chunk into ps->lo, ps->hi; 0 when none is left,
 * once the chunks this thread ran are counted done. */
static inline int pass_next(team_t *tm, pass_t *ps)
{
    if (tm->size == 1) {
        ps->hi = ps->claimed++ ? 0 : ps->n;
        return ps->hi > 0;
    }
    long c = ps->chunks ? claim(tm, ps->chunks) : -1;
    if (c < 0) {
        if (ps->claimed)
            add_word(&team.completed, ps->claimed);
        return 0;
    }
    ps->claimed++;
    ps->lo = ps->n * c / ps->chunks;
    ps->hi = ps->n * (c + 1) / ps->chunks;
    return 1;
}

/* One pass over n items: the body runs once per chunk [ps.lo, ps.hi). */
#define SHARES(tm, n, ps) for (pass_t ps = pass_begin(tm, n); pass_next(tm, &ps);)

/* One pass over the rows (i, j) of a box [lo3, hi3). */
#define ROWS(tm, lo3, hi3)                                                      \
    SHARES(tm, ((hi3)[1] - (lo3)[1]) * ((hi3)[0] - (lo3)[0]), ps_)               \
        for (long r_ = ps_.lo, n1_ = (hi3)[1] - (lo3)[1]; r_ < ps_.hi; r_++)     \
            for (long i = (lo3)[0] + r_ / n1_, j = (lo3)[1] + r_ % n1_, once_ = 1; \
                 once_; once_ = 0)

/* Helper id: sleeps until a call wants it, joins the call if the caller
 * has not finished it yet, and runs the task. */
static void *helper_main(void *place)
{
    int id = (int)(long)place;
    unsigned seen = team.born[id];
    for (;;) {
        await_change(&team.job, seen, 0);
        seen = load_word(&team.job);
        if (id >= (int)(seen & 255))
            continue;
        unsigned w = load_word(&team.open);
        while ((w & ~255u) == (seen & ~255u) && !(w & CLOSED)
               && !__atomic_compare_exchange_n(&team.open, &w, w + 1, 0, __ATOMIC_SEQ_CST,
                                               __ATOMIC_SEQ_CST))
            ;
        if ((w & ~255u) != (seen & ~255u) || (w & CLOSED))
            continue;
        team_t tm = {.size = (int)(seen & 255), .back = 1};
        team.task(&tm, team.arg);
        __atomic_sub_fetch(&team.open, 1, __ATOMIC_SEQ_CST);
        wake_sleepers();
    }
    return NULL;
}

/* fork: the child keeps no helper and no lock of the parent's */
static void fork_prepare(void)
{
    pthread_mutex_lock(&team.lock);
}

static void fork_parent(void)
{
    pthread_mutex_unlock(&team.lock);
}

static void fork_child(void)
{
    pthread_mutex_init(&team.lock, NULL);
    pthread_cond_init(&team.wake, NULL);
    team.helpers = team.busy = team.sleepers = 0;
}

/* Starts helpers until want threads can run; returns how many can. */
static int hire(int want)
{
    if (!team.forks && pthread_atfork(fork_prepare, fork_parent, fork_child) != 0)
        return 1;
    team.forks = 1;
    pthread_attr_t attr;
    if (team.helpers < want - 1 && pthread_attr_init(&attr) == 0) {
        pthread_attr_setdetachstate(&attr, PTHREAD_CREATE_DETACHED);
        while (team.helpers < want - 1) {
            pthread_t thread;
            int id = team.helpers + 1;
            team.born[id] = team.job;
            if (pthread_create(&thread, &attr, helper_main, (void *)(long)id) != 0)
                break;
            team.helpers = id;
        }
        pthread_attr_destroy(&attr);
    }
    return team.helpers + 1 < want ? team.helpers + 1 : want;
}

/* Runs task(tm, arg) for a call on entries entries, on the calling thread
 * and the helpers that join it, and returns once all have left it. */
static void team_run(long entries, task_fn task, void *arg)
{
    team_t tm = {.size = 1};
    int want = __atomic_load_n(&team.want, __ATOMIC_RELAXED);
    int held = want > 1 && entries >= TEAM_MIN_ENTRIES
               && !__atomic_exchange_n(&team.busy, 1, __ATOMIC_ACQUIRE);
    if (held && (tm.size = hire(want)) > 1) {
        unsigned job = (team.job & ~255u) + 256;
        team.task = task;
        team.arg = arg;
        __atomic_store_n(&team.completed, 0, __ATOMIC_RELAXED);
        for (int k = 0; k < RING; k++)
            __atomic_store_n(&team.slot[k], 0, __ATOMIC_RELAXED);
        __atomic_store_n(&team.open, job, __ATOMIC_SEQ_CST);
        __atomic_store_n(&team.job, job + (unsigned)tm.size, __ATOMIC_SEQ_CST);
        wake_sleepers();
    }
    task(&tm, arg);
    if (tm.size > 1) {
        unsigned w;
        team_sync(&tm);
        __atomic_fetch_or(&team.open, CLOSED, __ATOMIC_SEQ_CST);
        while ((w = load_word(&team.open)) & INSIDE)
            await_change(&team.open, w, SPIN_ROUNDS);
    }
    if (held)
        __atomic_store_n(&team.busy, 0, __ATOMIC_RELEASE);
}

/* Threads a call uses from now on: n, within 1 and TEAM_MAX. */
void smg_set_threads(int n)
{
    n = n < 1 ? 1 : (n > TEAM_MAX ? TEAM_MAX : n);
    __atomic_store_n(&team.want, n, __ATOMIC_RELAXED);
}

/* x[k] = 0 at the n entries of x, as one pass */
static void zero_pass(team_t *tm, double *x, long n)
{
    SHARES(tm, n, ps)
        memset(x + ps.lo, 0, (ps.hi - ps.lo) * sizeof(double));
}

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

/* Red entries of row (i, j) of shape s in columns [lo, hi): delta = omega
 * res / diag and x += delta. */
static inline void red_row(const long *s, long i, long j, long lo, long hi, long shift,
                           double omega, const double *res, const double *diag,
                           double *delta, double *x)
{
    long r = row(s, i, j, -1, 0);
    for (long k = COLOUR_START(lo, shift, 0); k < hi; k += 2) {
        double d = res[r + k] / diag[r + k];
        if (omega != 1.0)
            d *= omega;
        delta[r + k] = d;
        x[r + k] += d;
    }
}

/* r plus one axis' two neighbour terms in the numpy sweep's order (see
 * tests/reference.py): a periodic axis adds their sum, a bounded axis the
 * upper term and then the lower one, each where that neighbour exists. */
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

/* ------------------------------------------------------------------------
 * pressure
 * ------------------------------------------------------------------------ */

typedef struct {
    const grid3 *g;
    double omega;
    double *p; /* written by the sweep only */
    const double *rhs, *diag, *rho[3];
    double *delta, *r, *flux[3];
    long sc[3], sf[3][3];
} cell_t;

static void cell_shapes(cell_t *c)
{
    shape_of(c->g, -1, -1, c->sc);
    for (int x = c->g->first; x < 3; x++)
        shape_of(c->g, x, x, c->sf[x]);
}

/* G p at the faces along x, divided by rho (by h when rho is NULL); wall
 * faces carry no flux */
typedef struct { long rf, rc, rc1; int inner; } gradient_at;

static void gradient_setup(const cell_t *c, int x, long i, long j, long at,
                           gradient_at *o)
{
    long jx = idx_along(i, j, at, x);
    o->rf = row(c->sf[x], i, j, -1, 0);
    o->rc = row(c->sc, i, j, -1, 0);
    o->rc1 = nbr(c->sc, i, j, at, x, -1);
    o->inner = periodic(c->g, x) || (jx > 0 && jx < c->g->n[x]);
}

ROW_FUNCTION gradient_row(const cell_t *c, int x, const gradient_at *o,
                          long k0, long k1)
{
    const double *p = c->p, *rho = c->rho[x];
    const long rf = o->rf, rc = o->rc, rc1 = o->rc1;
    const int inner = o->inner;
    const double h = c->g->h;
    double *out = c->flux[x];
    if (rho) {
        for (long k = k0; k < k1; k++) {
            double d = inner ? p[rc + k] - p[rc1 + k] : 0.0;
            out[rf + k] = d / rho[rf + k];
        }
    } else {
        for (long k = k0; k < k1; k++) {
            double d = inner ? p[rc + k] - p[rc1 + k] : 0.0;
            out[rf + k] = d / h;
        }
    }
}

/* c->flux[x] for every coupled axis x */
static void gradient_rows(team_t *tm, const cell_t *c)
{
    long zero3[3] = {0, 0, 0};
    for (int x = c->g->first; x < 3; x++) {
        const long *s = c->sf[x];
        ROWS(tm, zero3, s) {
            gradient_at o;
            LINE(0, s[2], 0, 1, gradient_setup(c, x, i, j, at, &o),
                 gradient_row(c, x, &o, k0, k1));
        }
    }
}

/* D (1/rho) G p from the fluxes, scaled once by 1/h^2: r = rhs - it, or r
 * = it when rhs is NULL */
typedef struct { long rc, r0[3], r1[3]; } poisson_at;

static void poisson_setup(const cell_t *c, long i, long j, long at, poisson_at *o)
{
    o->rc = row(c->sc, i, j, -1, 0);
    for (int x = c->g->first; x < 3; x++) {
        o->r0[x] = row(c->sf[x], i, j, -1, 0);
        o->r1[x] = nbr(c->sf[x], i, j, at, x, 1);
    }
}

ROW_FUNCTION poisson_row(const cell_t *c, const poisson_at *o, long k0, long k1)
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
        r[rc + k] = rhs ? rhs[rc + k] - v : v;
    }
}

static void poisson_line(const cell_t *c, long i, long j)
{
    poisson_at o = {0};
    LINE(0, c->sc[2], 0, 1, poisson_setup(c, i, j, at, &o), poisson_row(c, &o, k0, k1));
}

/* black entries: face k joins cells k - 1 and k along x, with weight
 * -1/(rho h^2) */
typedef struct { long rc, r0[3], r1[3], rlo[3], rhi[3]; int has_lo[3], has_hi[3]; } black_cell_at;

static void black_cell_setup(const cell_t *c, long i, long j, long at,
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

ROW_FUNCTION black_cell_row(const cell_t *c, const black_cell_at *o,
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

/* the faces of every coupled axis */
static long cell_face_count(const cell_t *c)
{
    long nf = 0;
    for (int x = c->g->first; x < 3; x++)
        nf += count(c->sf[x]);
    return nf;
}

/* entries of a cell sweep's workspace */
static long cell_sweep_size(const grid3 *g, int zero_guess)
{
    cell_t c = {.g = g};
    cell_shapes(&c);
    long nc = count(c.sc);
    return nc + (zero_guess ? 0 : nc + cell_face_count(&c));
}

/* Each row's residual and red entries are one pass: the red entries read
 * the row's residual alone. */
static void cell_sweep(team_t *tm, const grid3 *g, double omega, int zero_guess,
                       double *p, const double *rhs, const double *diag,
                       const double *const *rho, double *work)
{
    cell_t c = {.g = g, .omega = omega, .p = p, .rhs = rhs, .diag = diag,
                .rho = {rho[0], rho[1], rho[2]}};
    const long *sc = c.sc;
    long zero3[3] = {0, 0, 0};
    cell_shapes(&c);
    long nc = count(sc);

    c.delta = work;
    zero_pass(tm, c.delta, nc);
    c.r = zero_guess ? (double *)rhs : work + nc;
    if (!zero_guess) {
        double *next = c.r + nc;
        for (int x = g->first; x < 3; x++) {
            c.flux[x] = next;
            next += count(c.sf[x]);
        }
        gradient_rows(tm, &c);
    }
    team_sync(tm);
    ROWS(tm, zero3, sc) {
        if (!zero_guess)
            poisson_line(&c, i, j);
        red_row(sc, i, j, 0, sc[2], 0, omega, c.r, diag, c.delta, p);
    }
    team_sync(tm);
    ROWS(tm, zero3, sc) {
        black_cell_at o = {0};
        LINE(0, sc[2], COLOUR_START(0, 0, 1), 2, black_cell_setup(&c, i, j, at, &o),
             black_cell_row(&c, &o, k0, k1));
    }
    team_sync(tm);
}

int smg_cell_sweep(const grid3 *g, double omega, int zero_guess, double *p,
                   const double *rhs, const double *diag, const double *const *rho)
{
    double *work = malloc(cell_sweep_size(g, zero_guess) * sizeof(double));
    if (!work)
        return -1;
    cell_sweep(SOLO, g, omega, zero_guess, p, rhs, diag, rho, work);
    free(work);
    return 0;
}

/* entries of a cell operator's workspace */
static long cell_apply_size(const grid3 *g)
{
    cell_t c = {.g = g};
    cell_shapes(&c);
    return cell_face_count(&c);
}

static void cell_apply(team_t *tm, const grid3 *g, const double *p,
                       const double *rhs, const double *const *rho, double *out,
                       double *work)
{
    cell_t c = {.g = g, .p = (double *)p, .rhs = rhs, .r = out,
                .rho = {rho[0], rho[1], rho[2]}};
    cell_shapes(&c);
    double *next = work;
    for (int x = g->first; x < 3; x++) {
        c.flux[x] = next;
        next += count(c.sf[x]);
    }
    gradient_rows(tm, &c);
    team_sync(tm);
    long zero3[3] = {0, 0, 0};
    ROWS(tm, zero3, c.sc)
        poisson_line(&c, i, j);
    team_sync(tm);
}

typedef struct {
    const grid3 *g;
    const double *p, *rhs, *const *rho;
    double *out, *work;
} cell_apply_args;

static void cell_apply_task(team_t *tm, void *arg)
{
    const cell_apply_args *a = arg;
    cell_apply(tm, a->g, a->p, a->rhs, a->rho, a->out, a->work);
}

/* entries of a grid's Stokes vector: its velocity faces and pressure
 * cells, which decide whether a call on it runs on the team */
static long stokes_entries(const grid3 *g);

/* out = D (1/rho) G p, or rhs - D (1/rho) G p when rhs is not NULL */
int smg_cell_apply(const grid3 *g, const double *p, const double *rhs,
                   const double *const *rho, double *out)
{
    cell_apply_args a = {g, p, rhs, rho, out, malloc(cell_apply_size(g) * sizeof(double))};
    if (!a.work)
        return -1;
    team_run(stokes_entries(g), cell_apply_task, &a);
    free(a.work);
    return 0;
}

/* out[x] = G p along each coupled axis x */
void smg_grad(const grid3 *g, const double *p, double *const *out)
{
    cell_t c = {.g = g, .p = (double *)p, .flux = {out[0], out[1], out[2]}};
    cell_shapes(&c);
    gradient_rows(SOLO, &c);
}

/* the diagonal: per axis, 0 + (lower + upper) of the black rows' face
 * weights, a wall face weighing zero (it carries no flux) */
ROW_FUNCTION cell_diag_row(const cell_t *c, const black_cell_at *o, long k0, long k1)
{
    const double neg_inv_h2 = c->g->neg_inv_h2;
    for (long k = k0; k < k1; k++) {
        double d = 0.0;
        for (int x = c->g->first; x < 3; x++) {
            const double *q = c->rho[x];
            double lo = o->has_lo[x] ? neg_inv_h2 / q[o->r0[x] + k] : 0.0;
            double hi = o->has_hi[x] ? neg_inv_h2 / q[o->r1[x] + k] : 0.0;
            d += 0.0 + (lo + hi);
        }
        c->r[o->rc + k] = d;
    }
}

/* out = the diagonal of D (1/rho) G, which smg_cell_sweep divides by */
void smg_cell_diag(const grid3 *g, const double *const *rho, double *out)
{
    cell_t c = {.g = g, .r = out, .rho = {rho[0], rho[1], rho[2]}};
    long zero3[3] = {0, 0, 0};
    cell_shapes(&c);
    ROWS(SOLO, zero3, c.sc) {
        black_cell_at o = {0};
        LINE(0, c.sc[2], 0, 1, black_cell_setup(&c, i, j, at, &o),
             cell_diag_row(&c, &o, k0, k1));
    }
}

/* ------------------------------------------------------------------------
 * velocity
 * ------------------------------------------------------------------------ */

/* What the operator stage stores at the rows of component a. */
enum { OUT_A = 0, OUT_RESIDUAL = 1, OUT_SADDLE = 2, OUT_SADDLE_RESIDUAL = 3 };

typedef struct {
    const grid3 *g;
    int a, form, out, bounded, nb, bs[2]; /* bs: the other coupled axes */
    double theta, omega;
    const double *u[3];
    double *ua; /* component a; written by the sweep only */
    const double *base, *diag, *mu, *gamma, *rho, *w[2]; /* w[m]: (a, bs[m]) */
    const double *rhs; /* the saddle residual's right-hand side at component a */
    const double *wall[2][2]; /* [m][side]: wall velocities, NULL for zero */
    double *delta, *r, *fn, *divu, *ft[2];
    long sc[3], sf[3][3], sn[2][3]; /* cells, faces, (a, bs[m]) nodes/edges */
} face_t;

static void face_shapes(face_t *f)
{
    shape_of(f->g, -1, -1, f->sc);
    for (int x = f->g->first; x < 3; x++)
        shape_of(f->g, x, x, f->sf[x]);
}

/* Points f at component a: its other coupled axes, their node/edge
 * viscosities (ne[x + y - 1] is the (x, y) plane; none when ne is NULL)
 * and wall velocities (walls[(3 a + b) 2 + side], or none).  Returns the
 * entries of its tangential flux arrays. */
static long face_component(face_t *f, int a, const double *const *ne,
                           const double *const *walls)
{
    const grid3 *g = f->g;
    long nn = 0;
    f->a = a;
    f->bounded = !periodic(g, a);
    f->ua = (double *)f->u[a];
    f->nb = 0;
    for (int b = g->first; b < 3; b++) {
        if (b == a)
            continue;
        int m = f->nb++;
        f->bs[m] = b;
        f->w[m] = ne ? ne[a + b - 1] : NULL;
        for (int side = 0; side < 2; side++)
            f->wall[m][side] = walls ? walls[(3 * a + b) * 2 + side] : NULL;
        shape_of(g, a, b, f->sn[m]);
        nn += count(f->sn[m]);
    }
    return nn;
}

/* The box of component a's unknowns: the interior along a, everything
 * along the other axes. */
static void unknowns(const face_t *f, long lo3[3], long hi3[3])
{
    const long *sa = f->sf[f->a];
    for (int k = 0; k < 3; k++) {
        lo3[k] = 0;
        hi3[k] = sa[k];
    }
    lo3[f->a] = f->bounded;
    hi3[f->a] = sa[f->a] - f->bounded;
}

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

/* D u at the cells */
typedef struct { long rc, r0[3], r1[3]; } div_at;

static void div_setup(const face_t *f, long i, long j, long at, div_at *o)
{
    o->rc = row(f->sc, i, j, -1, 0);
    for (int b = f->g->first; b < 3; b++) {
        o->r0[b] = row(f->sf[b], i, j, -1, 0);
        o->r1[b] = nbr(f->sf[b], i, j, at, b, 1);
    }
}

ROW_FUNCTION div_row(const face_t *f, const div_at *o, long k0, long k1)
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

/* f->divu = D u */
static void div_rows(team_t *tm, const face_t *f)
{
    long zero3[3] = {0, 0, 0};
    ROWS(tm, zero3, f->sc) {
        div_at o = {0};
        LINE(0, f->sc[2], 0, 1, div_setup(f, i, j, at, &o), div_row(f, &o, k0, k1));
    }
}

/* normal fluxes at the cells */
typedef struct { long rc, rf, r1; } normal_at;

static void normal_setup(const face_t *f, long i, long j, long at, normal_at *o)
{
    o->rc = row(f->sc, i, j, -1, 0);
    o->rf = row(f->sf[f->a], i, j, -1, 0);
    o->r1 = nbr(f->sf[f->a], i, j, at, f->a, 1);
}

ROW_FUNCTION normal_row(const face_t *f, const normal_at *o, long k0, long k1)
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
 * one-sided difference against the wall velocity, a free-slip wall no
 * flux */
typedef struct { long rn, rf, rb, ra1, rb1, rw; int lo_wall, hi_wall, slip; } tangent_at;

static void tangent_setup(const face_t *f, int m, long i, long j, long at,
                          tangent_at *o)
{
    const grid3 *g = f->g;
    const long *sa = f->sf[f->a];
    int a = f->a, b = f->bs[m];
    long jb = idx_along(i, j, at, b);
    o->rn = row(f->sn[m], i, j, -1, 0);
    o->rf = row(sa, i, j, -1, 0);
    o->rb = row(f->sf[b], i, j, -1, 0);
    o->ra1 = nbr(sa, i, j, at, b, -1);
    o->rb1 = nbr(f->sf[b], i, j, at, a, -1);
    /* the wall planes have component a's shape without axis b */
    o->rw = b == 0 ? j * sa[2] : (b == 1 ? i * sa[2] : i * sa[1] + j - at);
    o->lo_wall = !periodic(g, b) && jb == 0;
    o->hi_wall = !periodic(g, b) && jb == g->n[b];
    o->slip = (o->lo_wall && g->lo[b] == FREE_SLIP) || (o->hi_wall && g->hi[b] == FREE_SLIP);
}

ROW_FUNCTION tangent_row(const face_t *f, int m, const tangent_at *o,
                         long k0, long k1)
{
    const double *ua = f->ua, *ub = f->u[f->bs[m]], *w = f->w[m];
    const double *lo = f->wall[m][0], *hi = f->wall[m][1];
    const long rn = o->rn, rf = o->rf, rb = o->rb, ra1 = o->ra1, rb1 = o->rb1, rw = o->rw;
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
        double t = lo_wall ? (ua[rf + k] - (lo ? lo[rw + k] : 0.0)) * 2.0
                           : ((hi ? hi[rw + k] : 0.0) - ua[ra1 + k]) * 2.0;
        if (cross)
            t += ub[rb + k] - ub[rb1 + k];
        t *= w[rn + k];
        if (slip)
            t = 0.0;
        out[rn + k] = t;
    }
}

/* The stage's output from the operator row Au: Au itself, the residual
 * base - Au, Au + base with G p stored in base, or the saddle residual
 * rhs - (Au + base). */
static inline double finish(const face_t *f, double Au, long at)
{
    if (f->out == OUT_RESIDUAL)
        return f->base[at] - Au;
    if (f->out == OUT_SADDLE)
        return Au + f->base[at];
    if (f->out == OUT_SADDLE_RESIDUAL)
        return f->rhs[at] - (Au + f->base[at]);
    return Au;
}

/* L_mu u = (flux differences) / h^2 at the unknowns, then A u = theta rho u
 * - L_mu u (no mass term in steady flow: -L_mu u) and what f->out asks */
typedef struct { long rf, rc, rc1, rn[2], rn1[2]; } residual_at;

static void residual_setup(const face_t *f, long i, long j, long at, residual_at *o)
{
    o->rf = row(f->sf[f->a], i, j, -1, 0);
    o->rc = row(f->sc, i, j, -1, 0);
    o->rc1 = nbr(f->sc, i, j, at, f->a, -1);
    for (int m = 0; m < f->nb; m++) {
        o->rn[m] = row(f->sn[m], i, j, -1, 0);
        o->rn1[m] = nbr(f->sn[m], i, j, at, f->bs[m], 1);
    }
}

ROW_FUNCTION residual_row(const face_t *f, const residual_at *o, long k0, long k1)
{
    const double *fn = f->fn, *ua = f->ua, *rho = f->rho;
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
            v = mass - v;
        } else {
            v = -v;
        }
        r[rf + k] = finish(f, v, rf + k);
    }
}

/* The fluxes of the stage over component a's unknowns, into f->fn and
 * f->ft (reading f->divu in the stress-bulk form); residual_line then
 * forms the stage's rows from them into f->r. */
static void flux_rows(team_t *tm, const face_t *f)
{
    const int a = f->a;
    const long *sc = f->sc;
    long zero3[3] = {0, 0, 0}, lo3[3], hi3[3];
    unknowns(f, lo3, hi3);
    ROWS(tm, zero3, sc) {
        normal_at o;
        LINE(0, sc[2], 0, 1, normal_setup(f, i, j, at, &o),
             normal_row(f, &o, k0, k1));
    }
    for (int m = 0; m < f->nb; m++) {
        /* the node/edge rows of the unknowns */
        const long *s = f->sn[m];
        long nlo[3] = {0, 0, 0}, nhi[3] = {s[0], s[1], s[2]};
        nlo[a] = lo3[a];
        nhi[a] = s[a] - f->bounded;
        ROWS(tm, nlo, nhi) {
            tangent_at o;
            LINE(nlo[2], nhi[2], nlo[2], 1, tangent_setup(f, m, i, j, at, &o),
                 tangent_row(f, m, &o, k0, k1));
        }
    }
}

/* row (i, j) of the box [lo3, hi3) of component a's unknowns */
static void residual_line(const face_t *f, long i, long j, const long *lo3,
                          const long *hi3)
{
    residual_at o;
    LINE(lo3[2], hi3[2], lo3[2], 1, residual_setup(f, i, j, at, &o),
         residual_row(f, &o, k0, k1));
}

/* Component a's boundary faces (not unknowns), into f->r: A u is zero
 * there, negated in steady flow (-L_mu u).  The saddle residual holds +0
 * there whatever its right-hand side holds, as the saddle operator does
 * (-0 + G p, G p being +0 on a wall). */
static void wall_rows(team_t *tm, const face_t *f)
{
    if (!f->bounded)
        return;
    const long *s = f->sf[f->a];
    double zero = f->theta > 0 ? 0.0 : -0.0;
    for (int end = 0; end < 2; end++) {
        long lo3[3] = {0, 0, 0}, hi3[3] = {s[0], s[1], s[2]};
        lo3[f->a] = end ? s[f->a] - 1 : 0;
        hi3[f->a] = lo3[f->a] + 1;
        ROWS(tm, lo3, hi3) {
            long r = row(s, i, j, -1, 0);
            for (long k = lo3[2]; k < hi3[2]; k++)
                f->r[r + k] = f->out == OUT_SADDLE_RESIDUAL ? 0.0 : finish(f, zero, r + k);
        }
    }
}

/* black entries: r plus each coupling's red corrections, relaxed */
typedef struct {
    long rf, rc, rc1, rup, rdn, rn[2], rn1[2], rlo[2], rhi[2];
    int has_lo[2], has_hi[2];
} black_face_at;

static void black_face_setup(const face_t *f, long i, long j, long at,
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

ROW_FUNCTION black_face_row(const face_t *f, const black_face_at *o,
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

/* entries of the largest component's tangential flux arrays on f->g */
static long tangent_size(face_t *f)
{
    long nn = 0;
    face_shapes(f);
    for (int a = f->g->first; a < 3; a++) {
        long n = face_component(f, a, NULL, NULL);
        nn = n > nn ? n : nn;
    }
    return nn;
}

/* entries of a face sweep's workspace, sized for the largest component */
static long face_sweep_size(const grid3 *g)
{
    face_t f = {.g = g};
    long nn = tangent_size(&f), nf = 0;
    for (int a = g->first; a < 3; a++)
        nf = count(f.sf[a]) > nf ? count(f.sf[a]) : nf;
    return 2 * nf + 2 * count(f.sc) + nn;
}

/* Relaxes u[a] for every coupled axis a in turn, each from its own
 * residual, which reads the components already relaxed.  zero_guess
 * promises that u is zero, so the first component takes rhs as its
 * residual. */
static void face_sweep(team_t *tm, const grid3 *g, int form, double theta,
                       double omega, int zero_guess, double *const *u,
                       const double *const *rhs, const double *const *diag,
                       const double *mu, const double *gamma, const double *const *rho,
                       const double *const *ne, double *work)
{
    face_t f = {.g = g, .form = form, .out = OUT_RESIDUAL, .theta = theta,
                .omega = omega, .u = {u[0], u[1], u[2]}, .mu = mu, .gamma = gamma};
    face_shapes(&f);
    long nc = count(f.sc), nf = 0;
    for (int a = g->first; a < 3; a++)
        nf = count(f.sf[a]) > nf ? count(f.sf[a]) : nf;
    f.delta = work;
    f.fn = work + 2 * nf;
    f.divu = f.fn + nc;
    f.ft[0] = f.divu + nc;

    for (int a = g->first; a < 3; a++) {
        const long *sa = f.sf[a];
        long lo3[3], hi3[3];
        face_component(&f, a, ne, NULL);
        f.base = rhs[a];
        f.diag = diag[a];
        f.rho = rho[a];
        f.ft[1] = f.ft[0] + count(f.sn[0]);
        unknowns(&f, lo3, hi3);
        zero_pass(tm, f.delta, count(sa));

        int from_rhs = zero_guess && a == g->first;
        f.r = from_rhs ? (double *)rhs[a] : work + nf;
        if (!from_rhs) {
            if (form == STRESS_BULK) {
                div_rows(tm, &f);
                team_sync(tm);
            }
            flux_rows(tm, &f);
        }
        team_sync(tm);
        ROWS(tm, lo3, hi3) {
            if (!from_rhs)
                residual_line(&f, i, j, lo3, hi3);
            red_row(sa, i, j, lo3[2], hi3[2], -f.bounded, omega, f.r, f.diag, f.delta,
                    f.ua);
        }
        team_sync(tm);
        ROWS(tm, lo3, hi3) {
            black_face_at o;
            LINE(lo3[2], hi3[2], COLOUR_START(lo3[2], -f.bounded, 1), 2,
                 black_face_setup(&f, i, j, at, &o), black_face_row(&f, &o, k0, k1));
        }
        team_sync(tm);
    }
}

int smg_face_sweep(const grid3 *g, int form, double theta, double omega,
                   int zero_guess, double *const *u, const double *const *rhs,
                   const double *const *diag, const double *mu, const double *gamma,
                   const double *const *rho, const double *const *ne)
{
    double *work = malloc(face_sweep_size(g) * sizeof(double));
    if (!work)
        return -1;
    face_sweep(SOLO, g, form, theta, omega, zero_guess, u, rhs, diag, mu, gamma, rho, ne,
               work);
    free(work);
    return 0;
}

/* the diagonal at component a's unknowns: theta rho, then per coupling (the
 * normal one, then each b != a) 0 + (lower + upper) of the black rows'
 * weights.  On a wall along b the wall's one-sided coupling stands in for
 * the missing neighbour: doubled on a no-slip wall (a difference over h/2),
 * dropped on a free-slip wall (no tangential flux). */
ROW_FUNCTION face_diag_row(const face_t *f, const black_face_at *o, long k0, long k1)
{
    const grid3 *g = f->g;
    const double *mu = f->mu, *gamma = f->gamma, inv_h2 = g->inv_h2;
    const long rf = o->rf, rc = o->rc, rc1 = o->rc1;
    for (long k = k0; k < k1; k++) {
        double d = f->theta * f->rho[rf + k];
        d += 0.0 + (normal_weight(f->form, inv_h2, mu[rc1 + k], gamma[rc1 + k])
                    + normal_weight(f->form, inv_h2, mu[rc + k], gamma[rc + k]));
        for (int m = 0; m < f->nb; m++) {
            int b = f->bs[m];
            double lo = inv_h2 * f->w[m][o->rn[m] + k];
            double hi = inv_h2 * f->w[m][o->rn1[m] + k];
            if (!o->has_lo[m])
                lo *= g->lo[b] == NO_SLIP ? 2.0 : 0.0;
            if (!o->has_hi[m])
                hi *= g->hi[b] == NO_SLIP ? 2.0 : 0.0;
            d += 0.0 + (lo + hi);
        }
        f->r[rf + k] = d;
    }
}

/* out[a] = the diagonal of A = theta rho - L_mu at every component a, which
 * smg_face_sweep divides by; boundary faces (not unknowns) hold 1 */
void smg_face_diag(const grid3 *g, int form, double theta, const double *mu,
                   const double *gamma, const double *const *rho,
                   const double *const *ne, double *const *out)
{
    face_t f = {.g = g, .form = form, .theta = theta, .mu = mu, .gamma = gamma};
    face_shapes(&f);
    for (int a = g->first; a < 3; a++) {
        long lo3[3], hi3[3];
        face_component(&f, a, ne, NULL);
        f.rho = rho[a];
        f.r = out[a];
        if (f.bounded)
            for (long k = 0; k < count(f.sf[a]); k++)
                f.r[k] = 1.0;
        unknowns(&f, lo3, hi3);
        ROWS(SOLO, lo3, hi3) {
            black_face_at o;
            LINE(lo3[2], hi3[2], lo3[2], 1, black_face_setup(&f, i, j, at, &o),
                 face_diag_row(&f, &o, k0, k1));
        }
    }
}

/* entries of a face operator's workspace */
static long face_apply_size(const grid3 *g, int form, int out)
{
    face_t f = {.g = g};
    long nn = tangent_size(&f);
    int own_div = form == STRESS_BULK && out != OUT_SADDLE && out != OUT_SADDLE_RESIDUAL;
    return count(f.sc) * (1 + own_div) + nn;
}

/* The arguments of smg_face_apply, and its workspace. */
typedef struct {
    const grid3 *g;
    int form, out;
    double theta;
    const double *const *u, *p, *const *base, *base_p, *mu, *gamma;
    const double *const *rho, *const *ne, *const *walls;
    double *const *res, *res_p, *work;
} face_apply_args;

static void face_apply(team_t *tm, const face_apply_args *in)
{
    const grid3 *g = in->g;
    int form = in->form, out = in->out;
    double *const *res = in->res, *res_p = in->res_p, *work = in->work;
    face_t f = {.g = g, .form = form, .out = out, .theta = in->theta, .mu = in->mu,
                .gamma = in->gamma, .u = {in->u[0], in->u[1], in->u[2]}};
    face_shapes(&f);
    long nc = count(f.sc);
    int saddle = out == OUT_SADDLE || out == OUT_SADDLE_RESIDUAL;
    int own_div = form == STRESS_BULK && !saddle;
    f.fn = work;
    f.divu = saddle ? res_p : work + nc;
    if (form == STRESS_BULK || saddle)
        div_rows(tm, &f);
    if (saddle) {
        cell_t c = {.g = g, .p = (double *)in->p, .flux = {res[0], res[1], res[2]}};
        cell_shapes(&c);
        gradient_rows(tm, &c);
    }
    team_sync(tm);
    for (int a = g->first; a < 3; a++) {
        face_component(&f, a, in->ne, in->walls);
        f.rho = in->rho[a];
        f.r = res[a];
        f.base = saddle ? res[a] : (in->base ? in->base[a] : NULL);
        f.rhs = out == OUT_SADDLE_RESIDUAL ? in->base[a] : NULL;
        f.ft[0] = work + nc * (1 + own_div);
        f.ft[1] = f.ft[0] + count(f.sn[0]);
        long lo3[3], hi3[3];
        unknowns(&f, lo3, hi3);
        flux_rows(tm, &f);
        team_sync(tm);
        ROWS(tm, lo3, hi3)
            residual_line(&f, i, j, lo3, hi3);
        wall_rows(tm, &f);
        team_sync(tm);
    }
    if (saddle) {
        SHARES(tm, nc, ps) {
            if (out == OUT_SADDLE)
                for (long k = ps.lo; k < ps.hi; k++)
                    res_p[k] = -res_p[k];
            else
                for (long k = ps.lo; k < ps.hi; k++)
                    res_p[k] = in->base_p[k] - -res_p[k];
        }
        team_sync(tm);
    }
}

static void face_apply_task(team_t *tm, void *arg)
{
    face_apply(tm, arg);
}

/* Every component a of the velocity operator into res[a], as "out" asks:
 * A u, base - A u (base[a] the residual's right-hand side), the saddle
 * operator's A u + G p, with -D u into res_p, or the saddle residual
 * base[a] - (A u + G p), with base_p - (-D u) into res_p and +0 on the
 * boundary faces.  walls may be NULL (zero wall velocities). */
int smg_face_apply(const grid3 *g, int form, double theta, int out,
                   const double *const *u, const double *p,
                   const double *const *base, const double *base_p, const double *mu,
                   const double *gamma, const double *const *rho,
                   const double *const *ne, const double *const *walls,
                   double *const *res, double *res_p)
{
    face_apply_args a = {g, form, out, theta, u, p, base, base_p, mu, gamma, rho, ne, walls,
                         res, res_p, malloc(face_apply_size(g, form, out) * sizeof(double))};
    if (!a.work)
        return -1;
    team_run(stokes_entries(g), face_apply_task, &a);
    free(a.work);
    return 0;
}

/* out = D u */
void smg_div(const grid3 *g, const double *const *u, double *out)
{
    face_t f = {.g = g, .u = {u[0], u[1], u[2]}, .divu = out};
    face_shapes(&f);
    div_rows(SOLO, &f);
}

/* ------------------------------------------------------------------------
 * grid transfers
 * ------------------------------------------------------------------------
 * A transfer is a sequence of passes, each along one axis x, as the numpy
 * formulation applies them: every line of the array along x maps to a line
 * of the output by the same taps, an output entry t combining up to three
 * source entries q[] in one of the forms below. */

enum { ZERO, COPY, MEAN, MIX, W3 };
enum { PAIR_MEAN, RESTRICT_NORMAL, PROLONG_TANGENT, PROLONG_NORMAL };

typedef struct { int how; long q[3]; } tap_t;

/* The taps of output entry t of a pass from n source entries. */
static tap_t tap(int pass, int per, long t, long n)
{
    long i = t >> 1;
    switch (pass) {
    case PAIR_MEAN: /* 0.5 (in[2t] + in[2t + 1]) */
        return (tap_t){MEAN, {2 * t, 2 * t + 1, 0}};
    case RESTRICT_NORMAL: /* 1/4, 1/2, 1/4; boundary faces zero */
        if (!per && (t == 0 || 2 * t == n - 1))
            return (tap_t){ZERO, {0, 0, 0}};
        return (tap_t){W3, {wrap(2 * t - 1, n), 2 * t, 2 * t + 1}};
    case PROLONG_TANGENT: /* 3/4 of the parent, 1/4 of its neighbour on t's side; walls clamp */
        if (t & 1)
            return (tap_t){MIX, {i, per ? wrap(i + 1, n) : (i + 1 < n ? i + 1 : i), 0}};
        return (tap_t){MIX, {i, per ? wrap(i - 1, n) : (i > 0 ? i - 1 : i), 0}};
    default: /* PROLONG_NORMAL: overlaying faces copy, the others average */
        if (t & 1)
            return (tap_t){MEAN, {i, wrap(i + 1, n), 0}};
        return (tap_t){COPY, {i, 0, 0}};
    }
}

/* Output entries of a pass from n source entries. */
static long pass_length(int pass, int per, long n)
{
    if (pass == PAIR_MEAN)
        return n / 2;
    if (pass == RESTRICT_NORMAL)
        return per ? n / 2 : n / 2 + 1;
    if (pass == PROLONG_TANGENT)
        return 2 * n;
    return per ? 2 * n : 2 * n - 1;
}

/* y[l ys] from the taps' source entries p*[l ps], for lanes l. */
static inline __attribute__((always_inline)) void
combine(int how, double *y, long ys, const double *p0, const double *p1, const double *p2,
        long ps, long lanes)
{
    switch (how) {
    case ZERO:
        for (long l = 0; l < lanes; l++)
            y[l * ys] = 0.0;
        break;
    case COPY:
        for (long l = 0; l < lanes; l++)
            y[l * ys] = p0[l * ps];
        break;
    case MEAN:
        for (long l = 0; l < lanes; l++)
            y[l * ys] = 0.5 * (p0[l * ps] + p1[l * ps]);
        break;
    case MIX:
        for (long l = 0; l < lanes; l++)
            y[l * ys] = 0.75 * p0[l * ps] + 0.25 * p1[l * ps];
        break;
    default:
        for (long l = 0; l < lanes; l++)
            y[l * ys] = 0.25 * p0[l * ps] + 0.5 * p1[l * ps] + 0.25 * p2[l * ps];
    }
}

/* lines along the contiguous axis taken together by a pass, and output
 * entries whose taps it holds at a time */
#define LINE_BLOCK 16
#define TAP_BLOCK 64

/* One pass along x from src (shape s) into dst.  Every line along x has
 * the same taps: along axis 0 or 1 each tap combines the contiguous runs
 * of entries that follow x, one run of output entry t of outer slab o at a
 * time; along axis 2, a block of lines at a time over TAP_BLOCK taps. */
static void transfer_pass(team_t *tm, int pass, int per, int x, const double *src,
                          const long *s, double *dst)
{
    long n = s[x], m = pass_length(pass, per, n);
    long run = x == 0 ? s[1] * s[2] : (x == 1 ? s[2] : 1);
    long outer = x == 0 ? 1 : (x == 1 ? s[0] : s[0] * s[1]);
    if (x < 2) {
        SHARES(tm, outer * m, ps) {
            for (long u = ps.lo; u < ps.hi; u++) {
                long o = u / m, t = u % m;
                const double *in = src + o * n * run;
                tap_t tp = tap(pass, per, t, n);
                combine(tp.how, dst + u * run, 1, in + tp.q[0] * run, in + tp.q[1] * run,
                        in + tp.q[2] * run, 1, run);
            }
        }
        return;
    }
    tap_t taps[TAP_BLOCK];
    SHARES(tm, outer, ps) {
        for (long t0 = 0; t0 < m; t0 += TAP_BLOCK) {
            long nt = m - t0 < TAP_BLOCK ? m - t0 : TAP_BLOCK;
            for (long t = 0; t < nt; t++)
                taps[t] = tap(pass, per, t0 + t, n);
            for (long o = ps.lo; o < ps.hi; o += LINE_BLOCK) {
                long lanes = ps.hi - o < LINE_BLOCK ? ps.hi - o : LINE_BLOCK;
                const double *in = src + o * n;
                for (long t = 0; t < nt; t++) {
                    const long *q = taps[t].q;
                    combine(taps[t].how, dst + o * m + t0 + t, m, in + q[0], in + q[1],
                            in + q[2], n, lanes);
                }
            }
        }
    }
}

/* Runs passes[k] along axes[k], k < np, from src of shape s into dst, the
 * passes between writing into work, which holds transfer_size entries;
 * without work, returns that size. */
static long transfer(team_t *tm, const grid3 *g, int np, const int *passes,
                     const int *axes, const double *src, const long *s, double *dst,
                     double *work)
{
    const double *in = src;
    long shape[3] = {s[0], s[1], s[2]}, used = 0;
    for (int k = 0; k < np - 1; k++) {
        shape[axes[k]] = pass_length(passes[k], periodic(g, axes[k]), shape[axes[k]]);
        used += count(shape);
    }
    if (!work)
        return used;
    double *next = work;
    memcpy(shape, s, sizeof shape);
    for (int k = 0; k < np; k++) {
        int x = axes[k], per = periodic(g, x);
        double *out = k == np - 1 ? dst : next;
        transfer_pass(tm, passes[k], per, x, in, shape, out);
        team_sync(tm);
        shape[x] = pass_length(passes[k], per, shape[x]);
        next += count(shape);
        in = out;
    }
    return used;
}

/* The passes of a transfer of component a (a < 0: of a cell field): the
 * first pass along each other coupled axis, the second along a. */
static int transfer_plan(const grid3 *g, int a, int first, int second, int *passes,
                         int *axes)
{
    int np = 0;
    for (int b = g->first; b < 3; b++) {
        if (b != a) {
            passes[np] = first;
            axes[np++] = b;
        }
    }
    if (a >= 0) {
        passes[np] = second;
        axes[np++] = a;
    }
    return np;
}

/* Restriction (g fine) or prolongation (g coarse) of every component of a
 * face field, as a face restriction runs it: means over the axes
 * tangential to a, then the 1/4, 1/2, 1/4 stencil along a; a face
 * prolongation: 3/4-1/4 interpolation along the axes tangential to a, then
 * copies and means along a.  Without work, returns its size. */
static long face_transfer(team_t *tm, const grid3 *g, int restricting,
                          const double *const *src, double *const *dst, double *work)
{
    long size = 0;
    for (int a = g->first; a < 3; a++) {
        int passes[3], axes[3];
        int np = restricting ? transfer_plan(g, a, PAIR_MEAN, RESTRICT_NORMAL, passes, axes)
                             : transfer_plan(g, a, PROLONG_TANGENT, PROLONG_NORMAL,
                                             passes, axes);
        long s[3];
        shape_of(g, a, a, s);
        long n = transfer(tm, g, np, passes, axes, work ? src[a] : NULL, s,
                          work ? dst[a] : NULL, work);
        size = n > size ? n : size;
    }
    return size;
}

/* coarse = the 2^d-child means of fine; g is the fine grid.  Without
 * work, returns its size. */
static long restrict_cell(team_t *tm, const grid3 *g, const double *fine,
                          double *coarse, double *work)
{
    int passes[3], axes[3];
    int np = transfer_plan(g, -1, PAIR_MEAN, 0, passes, axes);
    long s[3];
    shape_of(g, -1, -1, s);
    return transfer(tm, g, np, passes, axes, fine, s, coarse, work);
}

int smg_restrict_cell(const grid3 *g, const double *fine, double *coarse)
{
    double *work = malloc(restrict_cell(SOLO, g, NULL, NULL, NULL) * sizeof(double));
    if (!work)
        return -1;
    restrict_cell(SOLO, g, fine, coarse, work);
    free(work);
    return 0;
}

static int face_transfer_entry(const grid3 *g, int restricting, const double *const *src,
                               double *const *dst)
{
    long size = face_transfer(SOLO, g, restricting, NULL, NULL, NULL);
    double *work = malloc(size * sizeof(double));
    if (!work)
        return -1;
    face_transfer(SOLO, g, restricting, src, dst, work);
    free(work);
    return 0;
}

/* coarse[a] = means over the axes tangential to a, then the 1/4, 1/2, 1/4
 * stencil along a; g is the fine grid */
int smg_restrict_face(const grid3 *g, const double *const *fine, double *const *coarse)
{
    return face_transfer_entry(g, 1, fine, coarse);
}

static void prolong_cell(team_t *tm, const grid3 *g, const double *coarse,
                         double *fine)
{
    long s[3], d[3], zero3[3] = {0, 0, 0};
    shape_of(g, -1, -1, s);
    for (int k = 0; k < 3; k++)
        d[k] = k < g->first ? s[k] : 2 * s[k];
    ROWS(tm, zero3, d) {
        const double *in = coarse + row(s, i >> 1, j >> 1, -1, 0);
        double *out = fine + row(d, i, j, -1, 0);
        for (long k = 0; k < d[2]; k++)
            out[k] = in[k >> 1];
    }
    team_sync(tm);
}

/* fine = each coarse value injected into its 2^d children; g is the
 * coarse grid */
int smg_prolong_cell(const grid3 *g, const double *coarse, double *fine)
{
    prolong_cell(SOLO, g, coarse, fine);
    return 0;
}

/* fine[a] = 3/4-1/4 interpolation along the axes tangential to a, then
 * copies and means along a; g is the coarse grid */
int smg_prolong_face(const grid3 *g, const double *const *coarse, double *const *fine)
{
    return face_transfer_entry(g, 0, coarse, fine);
}

/* ------------------------------------------------------------------------
 * V-cycles
 * ------------------------------------------------------------------------
 * smg_face_vcycle and smg_cell_vcycle run one residual-correction V-cycle
 * from a zero guess over a plan of levels, finest first, with the stages
 * of the entries above in the order the reference recursion in
 * tests/reference.py calls those entries, so every output bit is theirs.
 * Each call makes one allocation and frees it before it returns, laid out
 * as a stack of frames, one per level (see
 * cycle_level): a level's frame holds its sweeps' workspace, or its
 * residual and then its prolonged correction, followed by the coarser
 * level's right-hand side, iterate and frame.  The caller owns the finest
 * iterate and right-hand side.  The whole cycle is one task of the team;
 * from the first level below TEAM_MIN_ENTRIES down and back, the calling
 * thread runs alone while the helpers wait at one barrier. */

/* One level of a V-cycle plan: its grid and what its sweeps and residual
 * read.  diag is the face diagonal per axis, or the cell diagonal first. */
typedef struct {
    grid3 g;
    const double *diag[3];
    const double *mu, *gamma, *rho[3], *ne[3];
} smg_level;

enum { FACE, CELL };

typedef struct {
    int kind, form;
    long levels;
    const smg_level *plan;
    double theta, omega;
    int down, up, bottom;
    double *const *x;
    const double *const *rhs;
    double *work;
} cycle_t;

/* Entries of each component of a field of the kind on g, indexed by axis
 * (a cell field has one, first); 0 for none.  Returns their sum. */
static long parts(int kind, const grid3 *g, long n[3])
{
    long s[3], total = 0;
    for (int a = 0; a < 3; a++) {
        n[a] = 0;
        if (kind == CELL ? a == 0 : a >= g->first) {
            shape_of(g, kind == CELL ? -1 : a, kind == CELL ? -1 : a, s);
            n[a] = count(s);
            total += n[a];
        }
    }
    return total;
}

static long field_size(int kind, const grid3 *g)
{
    long n[3];
    return parts(kind, g, n);
}

static long stokes_entries(const grid3 *g)
{
    return field_size(FACE, g) + field_size(CELL, g);
}

/* Points c at the components of a field stored from buf on; returns the
 * entry after it. */
static double *field_at(int kind, const grid3 *g, double *buf, double *c[3])
{
    long n[3];
    parts(kind, g, n);
    for (int a = 0; a < 3; a++) {
        c[a] = n[a] ? buf : NULL;
        buf += n[a];
    }
    return buf;
}

/* x = 0, or x += e when e is not NULL, at every entry of each component,
 * boundary faces included */
static void zero_or_add(team_t *tm, int kind, const grid3 *g, double *const *x,
                        const double *const *e)
{
    long n[3];
    parts(kind, g, n);
    for (int a = 0; a < 3; a++) {
        if (!n[a])
            continue;
        if (!e)
            zero_pass(tm, x[a], n[a]);
        else
            SHARES(tm, n[a], ps)
                for (long k = ps.lo; k < ps.hi; k++)
                    x[a][k] += e[a][k];
    }
    team_sync(tm);
}

static long most(long a, long b)
{
    return a > b ? a : b;
}

/* Entries of level l's frame: what its sweeps use, or its residual with
 * the residual's workspace, or its residual or prolonged correction (at
 * the frame's start) with level l + 1's right-hand side and iterate, then
 * the transfer's workspace or level l + 1's frame. */
static long frame_size(const cycle_t *cy, long l)
{
    const grid3 *g = &cy->plan[l].g;
    long sweep = cy->kind == CELL ? cell_sweep_size(g, 0) : face_sweep_size(g);
    if (l == cy->levels - 1)
        return sweep;
    const grid3 *gc = &cy->plan[l + 1].g;
    long fine = field_size(cy->kind, g), coarse = 2 * field_size(cy->kind, gc);
    long apply = cy->kind == CELL ? cell_apply_size(g)
                                  : face_apply_size(g, cy->form, OUT_RESIDUAL);
    long down = cy->kind == CELL ? restrict_cell(SOLO, g, NULL, NULL, NULL)
                                 : face_transfer(SOLO, g, 1, NULL, NULL, NULL);
    long up = cy->kind == CELL ? 0 : face_transfer(SOLO, gc, 0, NULL, NULL, NULL);
    long below = most(most(down, up), frame_size(cy, l + 1));
    return most(most(sweep, fine + apply), fine + coarse + below);
}

/* sweeps relaxations of x on level lv, the first from x = 0 when from_zero */
static void relax(team_t *tm, const cycle_t *cy, const smg_level *lv, int sweeps,
                  int from_zero, double *const *x, const double *const *rhs, double *work)
{
    for (int k = 0; k < sweeps; k++) {
        int zero_guess = from_zero && k == 0;
        if (cy->kind == CELL)
            cell_sweep(tm, &lv->g, cy->omega, zero_guess, x[0], rhs[0], lv->diag[0],
                       lv->rho, work);
        else
            face_sweep(tm, &lv->g, cy->form, cy->theta, cy->omega, zero_guess, x, rhs,
                       lv->diag, lv->mu, lv->gamma, lv->rho, lv->ne, work);
    }
}

/* x = the V-cycle of level l on rhs, in the frame_size entries from frame
 * on.  The residual, and later the prolonged correction, take the frame's
 * start; the coarse right-hand side and iterate follow it (over the
 * residual's workspace, dead by then), then the coarse level's frame. */
static void cycle_level(team_t *tm, const cycle_t *cy, long l, double *const *x,
                        const double *const *rhs, double *frame)
{
    const smg_level *lv = cy->plan + l;
    const grid3 *g = &lv->g;
    if (tm->size > 1 && stokes_entries(g) < TEAM_MIN_ENTRIES) {
        SHARES(tm, 1, ps)
            cycle_level(SOLO, cy, l, x, rhs, frame);
        team_sync(tm);
        return;
    }
    zero_or_add(tm, cy->kind, g, x, NULL);
    if (l == cy->levels - 1) {
        relax(tm, cy, lv, cy->bottom, 1, x, rhs, frame);
        return;
    }
    relax(tm, cy, lv, cy->down, 1, x, rhs, frame);

    /* the residual, restricted to the coarse right-hand side */
    const grid3 *gc = &lv[1].g;
    double *r[3], *crhs[3], *cx[3];
    double *after = field_at(cy->kind, g, frame, r);
    double *below = field_at(cy->kind, gc, field_at(cy->kind, gc, after, crhs), cx);
    if (cy->kind == CELL) {
        cell_apply(tm, g, x[0], rhs[0], lv->rho, r[0], after);
        restrict_cell(tm, g, r[0], crhs[0], below);
    } else {
        face_apply_args a = {.g = g, .form = cy->form, .out = OUT_RESIDUAL,
                             .theta = cy->theta, .u = (const double *const *)x,
                             .base = rhs, .mu = lv->mu, .gamma = lv->gamma,
                             .rho = lv->rho, .ne = lv->ne, .res = r, .work = after};
        face_apply(tm, &a);
        face_transfer(tm, g, 1, (const double *const *)r, crhs, below);
    }

    cycle_level(tm, cy, l + 1, cx, (const double *const *)crhs, below);

    /* the prolonged correction */
    double *e[3];
    field_at(cy->kind, g, frame, e);
    if (cy->kind == CELL)
        prolong_cell(tm, gc, cx[0], e[0]);
    else
        face_transfer(tm, gc, 0, (const double *const *)cx, e, below);
    zero_or_add(tm, cy->kind, g, x, (const double *const *)e);
    relax(tm, cy, lv, cy->up, 0, x, rhs, frame);
}

static void cycle_task(team_t *tm, void *arg)
{
    const cycle_t *cy = arg;
    cycle_level(tm, cy, 0, cy->x, cy->rhs, cy->work);
}

static int vcycle(cycle_t *cy)
{
    cy->work = malloc(frame_size(cy, 0) * sizeof(double));
    if (!cy->work)
        return -1;
    team_run(stokes_entries(&cy->plan->g), cycle_task, cy);
    free(cy->work);
    return 0;
}

/* u = one V-cycle of the velocity operator on rhs from u = 0, over the
 * plan's levels; down, up and bottom count the sweeps of each pass */
int smg_face_vcycle(long levels, const smg_level *plan, int form, double theta,
                    double omega, int down, int up, int bottom, const double *const *rhs,
                    double *const *u)
{
    cycle_t cy = {.kind = FACE, .form = form, .levels = levels, .plan = plan,
                  .theta = theta, .omega = omega, .down = down, .up = up,
                  .bottom = bottom, .x = u, .rhs = rhs};
    return vcycle(&cy);
}

/* p = one V-cycle of the pressure operator on rhs from p = 0 (see
 * smg_face_vcycle) */
int smg_cell_vcycle(long levels, const smg_level *plan, double omega, int down, int up,
                    int bottom, const double *rhs, double *p)
{
    double *x[3] = {p, NULL, NULL};
    const double *b[3] = {rhs, NULL, NULL};
    cycle_t cy = {.kind = CELL, .levels = levels, .plan = plan, .omega = omega,
                  .down = down, .up = up, .bottom = bottom, .x = x, .rhs = b};
    return vcycle(&cy);
}

/* ------------------------------------------------------------------------
 * Krylov reductions
 * ------------------------------------------------------------------------
 * Over contiguous vectors of n entries.  A dot product rounds each product
 * a[k] b[k], adds it to running partial sum k mod 4 (each starting at 0.0,
 * entries in increasing order) and combines the four as
 * (s0 + s1) + (s2 + s3).  The order depends on n alone, not on the
 * machine or on how the loop is compiled. */

static inline double lanes(const double s[4])
{
    return (s[0] + s[1]) + (s[2] + s[3]);
}

/* a . b */
double smg_dot(long n, const double *a, const double *b)
{
    double s[4] = {0.0, 0.0, 0.0, 0.0};
    long k = 0;
    for (; k + 4 <= n; k += 4) {
        s[0] += a[k] * b[k];
        s[1] += a[k + 1] * b[k + 1];
        s[2] += a[k + 2] * b[k + 2];
        s[3] += a[k + 3] * b[k + 3];
    }
    for (; k < n; k++)
        s[k & 3] += a[k] * b[k];
    return lanes(s);
}

/* One modified Gram-Schmidt step, w -= h v entry by entry (h v rounded
 * first), in the same pass as the next step's dot product: returns
 * next . w of the updated w (next may be w itself).  Each entry of w is
 * updated before it is read, so the result is bitwise smg_dot(n, next, w)
 * after the update. */
double smg_mgs_step(long n, double h, const double *v, double *w, const double *next)
{
    double s[4] = {0.0, 0.0, 0.0, 0.0};
    long k = 0;
    for (; k + 4 <= n; k += 4) {
        w[k] -= h * v[k];
        s[0] += next[k] * w[k];
        w[k + 1] -= h * v[k + 1];
        s[1] += next[k + 1] * w[k + 1];
        w[k + 2] -= h * v[k + 2];
        s[2] += next[k + 2] * w[k + 2];
        w[k + 3] -= h * v[k + 3];
        s[3] += next[k + 3] * w[k + 3];
    }
    for (; k < n; k++) {
        w[k] -= h * v[k];
        s[k & 3] += next[k] * w[k];
    }
    return lanes(s);
}

typedef struct {
    long n, m;
    const double *V, *y, *x;
    double *out;
} combine_args;

/* Items [lo, hi) of smg_combine: the blocks of four entries, then the
 * entries after the last block as one more item. */
static void combine_items(const combine_args *c, long lo, long hi)
{
    const long n = c->n, m = c->m, blocks = n / 4;
    const double *V = c->V, *y = c->y, *x = c->x;
    double *out = c->out;
    long k = 4 * lo;
    for (; k < 4 * (hi < blocks ? hi : blocks); k += 4) {
        double s[4] = {0.0, 0.0, 0.0, 0.0};
        for (long i = 0; i < m; i++) {
            const double *row = V + i * n + k;
            s[0] += y[i] * row[0];
            s[1] += y[i] * row[1];
            s[2] += y[i] * row[2];
            s[3] += y[i] * row[3];
        }
        for (int j = 0; j < 4; j++)
            out[k + j] = x[k + j] + s[j];
    }
    if (hi <= blocks)
        return;
    for (; k < n; k++) {
        double s = 0.0;
        for (long i = 0; i < m; i++)
            s += y[i] * V[i * n + k];
        out[k] = x[k] + s;
    }
}

static void combine_task(team_t *tm, void *arg)
{
    const combine_args *c = arg;
    SHARES(tm, c->n / 4 + 1, ps)
        combine_items(c, ps.lo, ps.hi);
}

/* out = x + (y[0] v_0 + ... + y[m-1] v_m-1) entry by entry, the products
 * added in order of i to 0.0; row v_i starts at V + i n, and out aliases
 * none of the inputs.  Each entry's sum is its own, so the team splits the
 * entries. */
void smg_combine(long n, long m, const double *V, const double *y, const double *x,
                 double *out)
{
    combine_args c = {n, m, V, y, x, out};
    team_run(n, combine_task, &c);
}
