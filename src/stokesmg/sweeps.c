/* The compiled stencils: the two-colour Gauss-Seidel sweeps of the multigrid
 * smoothers, the operators, the grid transfers and the V-cycle over them.
 *
 * Each multigrid job is one stage that takes the field kind: a velocity
 * field (FACE) of A = theta rho - L_mu, or a pressure field (CELL) of the
 * density-weighted operator D (1/rho) G.  smg_sweep relaxes x in place,
 * every velocity component one after the other.  Each component (or the
 * pressure) forms the residual r = rhs - A x once, relaxes the red entries
 * (even index sum over the unknowns) from it Jacobi-style, brings r up to
 * date at the black entries from the red corrections alone, and relaxes the
 * black entries.  smg_diag forms the diagonal the sweep divides by, on the
 * rows of its black updates, so each coupling weight and wall rule is
 * written once, here.  smg_transfer restricts or prolongs a field of either
 * kind, one pass per axis (the cell prolongation's an injection).
 * smg_vcycle runs a whole V-cycle in one call, level by level through the
 * same stages.
 *
 * The operators run the stages the sweeps form their residuals with:
 * smg_apply gives either kind's operator, or its residual rhs - A x, through
 * the V-cycle's residual stage, smg_saddle the saddle operator
 * (A u + G p, -D u) or its residual, and smg_div and smg_grad D and G; one
 * row function sums D, for the divergence and for the pressure operator
 * alike.  smg_dot,
 * smg_arnoldi (a whole Gram-Schmidt step of GMRES) and smg_combine are the
 * Krylov reductions over flat vectors, each summed in one documented
 * blocked order (see below) that the loops in tests/reference.py repeat.
 *
 * Every entry is rounded as the numpy formulation rounds it: the same
 * operations in the same order, with no fused multiply-add (the library is
 * built with -ffp-contract=off), so every output is bitwise equal to the
 * whole-array reference in tests/reference.py.
 *
 * Arrays are C-contiguous float64 in the package's layouts.  A 2D grid is
 * addressed as a 3D grid whose leading axis has one cell and couples
 * nothing; per-axis pointer arrays (a velocity field's components, the
 * node/edge planes) hold three entries, the unused ones NULL, and a
 * pressure field's takes the first.  Every entry that reads
 * coefficients takes them as one smg_level (the grid, the viscous form,
 * theta and the coefficient arrays), which the caller builds once per
 * coefficient set; a sweep takes a copy holding the smoother's diagonal,
 * and a V-cycle one such copy per level.  The grid carries h and 1/h^2 as
 * the caller rounds them; a weight of -1/h^2 negates 1/h^2, which is
 * exact.  No entry writes its inputs, except the iterate a sweep relaxes
 * and the vector and basis row smg_arnoldi orthogonalizes and normalizes
 * in place.  An entry allocates its workspace once and frees it before it
 * returns (-1: the allocation failed); a stage called without workspace
 * returns the size it needs.  Inside a V-cycle the stages share the
 * cycle's one allocation, and the threads of a call share its workspace.
 *
 * Each pass runs row by row along the contiguous last axis.  A row function
 * takes its neighbour offsets and wall tests for one column "at" (see
 * LINE) and is kept out of line.  It is one source loop.  Where a choice
 * inside the loop would keep it from compiling to vector code, the loop is
 * a ROW_INSTANCE taking that choice as a parameter, and the row function
 * switches to a call with the choice as a literal constant, so each
 * combination is compiled once, as a loop without a branch: residual_row's
 * output mode, coupling count and mass term, gradient_row's wall test and
 * densities.  A second loop, or terms written out that a loop would
 * repeat, stay only where a comment gives their measured cost.
 *
 * smg_vcycle, smg_apply, smg_saddle and the Krylov reductions run on a
 * team of threads (see "the team" below): each pass cuts its rows
 * (or a reduction's blocks) into chunks that the threads claim, and a
 * stage waits for the chunks of the passes it reads.  No entry of a pass
 * reads what another entry of the same pass writes, and a reduction adds
 * its block sums in block order, so an entry's operations do not depend on
 * which thread runs it, and every output is bitwise the same at any team
 * size.  The other entries run on the calling thread.
 */

#define _POSIX_C_SOURCE 200809L

#include <float.h>
#include <math.h>
#include <pthread.h>
#include <stdlib.h>
#include <string.h>

#ifndef SMG_KEY
#define SMG_KEY ""
#endif

/* the build's cache key, read by the loader before it loads a library */
const char smg_key[] = SMG_KEY;

#define ROW_FUNCTION static __attribute__((noinline)) void
/* a row's loop, compiled anew into each call that fixes its choices */
#define ROW_INSTANCE static inline __attribute__((always_inline)) void

enum { PERIODIC = 0, NO_SLIP = 1, FREE_SLIP = 2 };
enum { LAPLACIAN = 0, STRESS = 1, STRESS_BULK = 2 };
enum { FACE, CELL }; /* the field kinds */

typedef struct {
    long n[3];        /* cells per axis */
    int lo[3], hi[3]; /* boundary condition of the low and high side */
    int first;        /* first coupled axis: 0 in 3D, 1 in 2D */
    double h;
    double inv_h2;     /* 1 / h^2 */
} grid3;

/* A coefficient set on its grid, as every entry that reads coefficients
 * takes it: the viscous form, theta, the cell viscosities mu and gamma, the
 * face densities rho per axis and the node/edge viscosities ne per plane
 * (ne[x + y - 1] the (x, y) plane, NULL for none).  In a V-cycle plan diag
 * is the level's smoother diagonal: the face diagonal per axis, or the cell
 * diagonal first. */
typedef struct {
    grid3 g;
    int form;
    double theta;
    const double *diag[3];
    const double *mu, *gamma, *rho[3], *ne[3];
} smg_level;

/* read by the package's tests, which check the binding's layout against it */
const long smg_level_size = sizeof(smg_level);

/* Shape of an array staggered along axes x and y (-1 for none). */
static void shape_of(const grid3 *g, int x, int y, long s[3])
{
    for (int k = 0; k < 3; k++)
        s[k] = g->n[k] + ((k == x || k == y) && g->lo[k] != PERIODIC);
}

/* The shapes of the cells, sc, and of the faces along each coupled axis x,
 * sf[x]. */
static void shapes(const grid3 *g, long sc[3], long sf[3][3])
{
    shape_of(g, -1, -1, sc);
    for (int x = g->first; x < 3; x++)
        shape_of(g, x, x, sf[x]);
}

static long count(const long s[3])
{
    return s[0] * s[1] * s[2];
}

static long most(long a, long b)
{
    return a > b ? a : b;
}

/* n entries of workspace, one at least: a stage takes NULL workspace as a
 * request for its size, so a zero size must not allocate NULL */
static double *workspace(long n)
{
    return malloc(most(n, 1) * sizeof(double));
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
    const smg_level *lv; /* NULL: no densities */
    double omega;
    double *p; /* written by the sweep only */
    const double *rhs, *diag;
    double *delta, *r, *flux[3];
    long sc[3], sf[3][3];
} cell_t;

/* Points c->flux at the faces of every coupled axis, stored from buf on
 * (NULL without buf); returns their count. */
static long cell_fluxes(cell_t *c, double *buf)
{
    long nf = 0;
    for (int x = c->g->first; x < 3; x++) {
        c->flux[x] = buf ? buf + nf : NULL;
        nf += count(c->sf[x]);
    }
    return nf;
}

/* G p at the faces along x, divided by rho (by h with no densities); wall
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

ROW_INSTANCE gradient_loop(const cell_t *c, int x, const gradient_at *o, long k0, long k1,
                          int inner, int densities)
{
    const double *p = c->p, *rho = densities ? c->lv->rho[x] : NULL;
    const long rf = o->rf, rc = o->rc, rc1 = o->rc1;
    const double h = c->g->h;
    double *out = c->flux[x];
    for (long k = k0; k < k1; k++) {
        double d = inner ? p[rc + k] - p[rc1 + k] : 0.0;
        out[rf + k] = d / (densities ? rho[rf + k] : h);
    }
}

ROW_FUNCTION gradient_row(const cell_t *c, int x, const gradient_at *o,
                          long k0, long k1)
{
    switch (o->inner << 1 | (c->lv != NULL)) {
#define GRADIENT(code)                                                          \
    case code: gradient_loop(c, x, o, k0, k1, (code) >> 1, (code) & 1); break;
        GRADIENT(0) GRADIENT(1) GRADIENT(2) GRADIENT(3)
#undef GRADIENT
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

/* D of the face arrays c->flux at the cells, their differences summed in
 * axis order: with densities the pressure operator D (1/rho) G p from its
 * fluxes, scaled once by 1/h^2, r = rhs - it (r = it when rhs is NULL);
 * without, the divergence, r = it / h */
typedef struct { long rc, r0[3], r1[3]; } div_at;

static void div_setup(const cell_t *c, long i, long j, long at, div_at *o)
{
    o->rc = row(c->sc, i, j, -1, 0);
    for (int x = c->g->first; x < 3; x++) {
        o->r0[x] = row(c->sf[x], i, j, -1, 0);
        o->r1[x] = nbr(c->sf[x], i, j, at, x, 1);
    }
}

ROW_FUNCTION div_row(const cell_t *c, const div_at *o, long k0, long k1)
{
    const double *f0 = c->flux[0], *f1 = c->flux[1], *f2 = c->flux[2], *rhs = c->rhs;
    const long a0 = o->r0[0], b0 = o->r1[0], a1 = o->r0[1], b1 = o->r1[1];
    const long a2 = o->r0[2], b2 = o->r1[2], rc = o->rc;
    const int three = c->g->first == 0, densities = c->lv != NULL;
    const double h = c->g->h, inv_h2 = c->g->inv_h2;
    double *r = c->r;
    for (long k = k0; k < k1; k++) {
        double v = (three ? 0.0 + (f0[b0 + k] - f0[a0 + k]) : 0.0)
                   + (f1[b1 + k] - f1[a1 + k]) + (f2[b2 + k] - f2[a2 + k]);
        if (!densities)
            v /= h;
        else if (rhs)
            v = rhs[rc + k] - v * inv_h2;
        else
            v *= inv_h2;
        r[rc + k] = v;
    }
}

static void div_line(const cell_t *c, long i, long j)
{
    div_at o = {0};
    LINE(0, c->sc[2], 0, 1, div_setup(c, i, j, at, &o), div_row(c, &o, k0, k1));
}

static void div_rows(team_t *tm, const cell_t *c)
{
    long zero3[3] = {0, 0, 0};
    ROWS(tm, zero3, c->sc)
        div_line(c, i, j);
}

/* out = D u */
static void divergence(team_t *tm, const grid3 *g, const double *const *u, double *out)
{
    cell_t c = {.g = g, .flux = {(double *)u[0], (double *)u[1], (double *)u[2]}, .r = out};
    shapes(g, c.sc, c.sf);
    div_rows(tm, &c);
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
    const double *q0 = c->lv->rho[0], *q1 = c->lv->rho[1], *q2 = c->lv->rho[2];
    const long rc = o->rc;
    const long a0 = o->r0[0], b0 = o->r1[0], lo0 = o->rlo[0], hi0 = o->rhi[0];
    const long a1 = o->r0[1], b1 = o->r1[1], lo1 = o->rlo[1], hi1 = o->rhi[1];
    const long a2 = o->r0[2], b2 = o->r1[2], lo2 = o->rlo[2], hi2 = o->rhi[2];
    const int p0 = periodic(g, 0), p1 = periodic(g, 1), p2 = periodic(g, 2);
    const int hl0 = o->has_lo[0], hh0 = o->has_hi[0], hl1 = o->has_lo[1];
    const int hh1 = o->has_hi[1], hl2 = o->has_lo[2], hh2 = o->has_hi[2];
    const int three = g->first == 0;
    const double neg_inv_h2 = -g->inv_h2, omega = c->omega;
    double *p = c->p;
    /* the axes written out, not looped: a loop over them made a 2D
     * pressure V-cycle 1-5% slower */
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

/* One sweep of the pressure p[0] against rhs[0], dividing by lv->diag[0];
 * without work, returns its size.  Each row's residual and red entries are
 * one pass: the red entries read the row's residual alone. */
static long cell_sweep(team_t *tm, const smg_level *lv, double omega, int zero_guess,
                       double *const *p, const double *const *rhs, double *work)
{
    const grid3 *g = &lv->g;
    cell_t c = {.g = g, .lv = lv, .omega = omega, .diag = lv->diag[0]};
    const long *sc = c.sc;
    long zero3[3] = {0, 0, 0};
    shapes(g, c.sc, c.sf);
    long nc = count(sc);
    long size = nc + (zero_guess ? 0 : nc + cell_fluxes(&c, NULL));
    if (!work)
        return size;

    c.p = p[0];
    c.rhs = rhs[0];
    c.delta = work;
    zero_pass(tm, c.delta, nc);
    c.r = zero_guess ? (double *)c.rhs : work + nc;
    if (!zero_guess) {
        cell_fluxes(&c, c.r + nc);
        gradient_rows(tm, &c);
    }
    team_sync(tm);
    ROWS(tm, zero3, sc) {
        if (!zero_guess)
            div_line(&c, i, j);
        red_row(sc, i, j, 0, sc[2], 0, omega, c.r, c.diag, c.delta, c.p);
    }
    team_sync(tm);
    ROWS(tm, zero3, sc) {
        black_cell_at o = {0};
        LINE(0, sc[2], COLOUR_START(0, 0, 1), 2, black_cell_setup(&c, i, j, at, &o),
             black_cell_row(&c, &o, k0, k1));
    }
    team_sync(tm);
    return size;
}

/* r[0] = D (1/rho) G p[0], or rhs[0] - it when rhs is not NULL; without
 * work, returns its size */
static long cell_apply(team_t *tm, const smg_level *lv, const double *const *p,
                       const double *const *rhs, double *const *r, double *work)
{
    cell_t c = {.g = &lv->g, .lv = lv};
    shapes(c.g, c.sc, c.sf);
    long size = cell_fluxes(&c, work);
    if (!work)
        return size;
    c.p = (double *)p[0];
    c.rhs = rhs ? rhs[0] : NULL;
    c.r = r[0];
    gradient_rows(tm, &c);
    team_sync(tm);
    div_rows(tm, &c);
    team_sync(tm);
    return size;
}

/* out[x] = G p along each coupled axis x */
void smg_grad(const grid3 *g, const double *p, double *const *out)
{
    cell_t c = {.g = g, .p = (double *)p, .flux = {out[0], out[1], out[2]}};
    shapes(g, c.sc, c.sf);
    gradient_rows(SOLO, &c);
}

/* the diagonal: per axis, 0 + (lower + upper) of the black rows' face
 * weights, a wall face weighing zero (it carries no flux) */
ROW_FUNCTION cell_diag_row(const cell_t *c, const black_cell_at *o, long k0, long k1)
{
    const double neg_inv_h2 = -c->g->inv_h2;
    for (long k = k0; k < k1; k++) {
        double d = 0.0;
        for (int x = c->g->first; x < 3; x++) {
            const double *q = c->lv->rho[x];
            double lo = o->has_lo[x] ? neg_inv_h2 / q[o->r0[x] + k] : 0.0;
            double hi = o->has_hi[x] ? neg_inv_h2 / q[o->r1[x] + k] : 0.0;
            d += 0.0 + (lo + hi);
        }
        c->r[o->rc + k] = d;
    }
}

/* out = the diagonal of D (1/rho) G, which the pressure sweep divides by */
static void cell_diag(const smg_level *lv, double *out)
{
    cell_t c = {.g = &lv->g, .lv = lv, .r = out};
    long zero3[3] = {0, 0, 0};
    shapes(c.g, c.sc, c.sf);
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
    const smg_level *lv;
    int a, out, bounded, nb, bs[2]; /* bs: the other coupled axes */
    double omega;
    const double *u[3];
    double *ua; /* component a; written by the sweep only */
    const double *base, *diag, *rho, *w[2]; /* at component a; w[m]: (a, bs[m]) */
    const double *rhs; /* the saddle residual's right-hand side at component a */
    double *delta, *r, *fn, *divu, *ft[2];
    long sc[3], sf[3][3], sn[2][3]; /* cells, faces, (a, bs[m]) nodes/edges */
} face_t;

/* Points f at component a: its density, its other coupled axes and their
 * node/edge viscosities.  Returns the entries of its tangential flux
 * arrays. */
static long face_component(face_t *f, int a)
{
    const grid3 *g = f->g;
    long nn = 0;
    f->a = a;
    f->bounded = !periodic(g, a);
    f->ua = (double *)f->u[a];
    f->rho = f->lv->rho[a];
    f->nb = 0;
    for (int b = g->first; b < 3; b++) {
        if (b == a)
            continue;
        int m = f->nb++;
        f->bs[m] = b;
        f->w[m] = f->lv->ne[a + b - 1];
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
    const double *ua = f->ua, *mu = f->lv->mu, *gamma = f->lv->gamma, *divu = f->divu;
    const long rc = o->rc, rf = o->rf, r1 = o->r1;
    const int bulk_form = f->lv->form == STRESS_BULK;
    /* a factor, not a test per entry, which made a face V-cycle 1-4%
     * slower; the Laplacian's 1.0 multiplies exactly */
    const double factor = f->lv->form == LAPLACIAN ? 1.0 : 2.0, h = f->g->h;
    double *fn = f->fn;
    for (long k = k0; k < k1; k++) {
        double d = (ua[r1 + k] - ua[rf + k]) * factor;
        d *= mu[rc + k];
        if (bulk_form) {
            double bulk = (2.0 / 3.0) * mu[rc + k];
            bulk = gamma[rc + k] - bulk;
            bulk *= divu[rc + k];
            d += bulk * h;
        }
        fn[rc + k] = d;
    }
}

/* tangential fluxes at the (a, b) nodes or edges; a no-slip wall row takes
 * the one-sided difference against a zero wall velocity, a free-slip wall
 * no flux */
typedef struct { long rn, rf, rb, ra1, rb1; int lo_wall, hi_wall, slip; } tangent_at;

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
    o->lo_wall = !periodic(g, b) && jb == 0;
    o->hi_wall = !periodic(g, b) && jb == g->n[b];
    o->slip = (o->lo_wall && g->lo[b] == FREE_SLIP) || (o->hi_wall && g->hi[b] == FREE_SLIP);
}

ROW_FUNCTION tangent_row(const face_t *f, int m, const tangent_at *o,
                         long k0, long k1)
{
    const double *ua = f->ua, *ub = f->u[f->bs[m]], *w = f->w[m];
    const long rn = o->rn, rf = o->rf, rb = o->rb, ra1 = o->ra1, rb1 = o->rb1;
    const int lo_wall = o->lo_wall, hi_wall = o->hi_wall, slip = o->slip;
    const int cross = f->lv->form != LAPLACIAN;
    double *out = f->ft[m];
    /* an interior row; the wall rows in a loop of their own, since folding
     * them into this one made a face V-cycle 8-13% slower and apply_M 4-9% */
    if (!lo_wall && !hi_wall) {
        for (long k = k0; k < k1; k++) {
            double t = ua[rf + k] - ua[ra1 + k];
            if (cross)
                t += ub[rb + k] - ub[rb1 + k];
            out[rn + k] = t * w[rn + k];
        }
        return;
    }
    for (long k = k0; k < k1; k++) { /* a wall row; 0.0 - u, as -u would turn +0 into -0 */
        double t = lo_wall ? ua[rf + k] * 2.0 : (0.0 - ua[ra1 + k]) * 2.0;
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
static inline double finish(const face_t *f, int out, double Au, long at)
{
    if (out == OUT_RESIDUAL)
        return f->base[at] - Au;
    if (out == OUT_SADDLE)
        return Au + f->base[at];
    if (out == OUT_SADDLE_RESIDUAL)
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

ROW_INSTANCE residual_loop(const face_t *f, const residual_at *o, long k0, long k1,
                          int out, int two, int mass_term)
{
    const double *fn = f->fn, *ua = f->ua, *rho = f->rho;
    const double *t0 = f->ft[0], *t1 = two ? f->ft[1] : f->ft[0];
    const long rf = o->rf, rc = o->rc, rc1 = o->rc1;
    const long n0 = o->rn[0], m0 = o->rn1[0];
    const long n1 = two ? o->rn[1] : n0, m1 = two ? o->rn1[1] : m0;
    const double theta = f->lv->theta, inv_h2 = f->g->inv_h2;
    double *r = f->r;
    /* the couplings written out, not looped: a loop over them made a face
     * V-cycle 8-11% slower and apply_M 7-10% slower */
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
        r[rf + k] = finish(f, out, v, rf + k);
    }
}

ROW_FUNCTION residual_row(const face_t *f, const residual_at *o, long k0, long k1)
{
    switch (f->out << 2 | (f->nb == 2) << 1 | (f->lv->theta > 0)) {
#define RESIDUAL(code)                                                          \
    case code: residual_loop(f, o, k0, k1, (code) >> 2, (code) >> 1 & 1, (code) & 1); break;
        RESIDUAL(0) RESIDUAL(1) RESIDUAL(2) RESIDUAL(3) RESIDUAL(4) RESIDUAL(5)
        RESIDUAL(6) RESIDUAL(7) RESIDUAL(8) RESIDUAL(9) RESIDUAL(10) RESIDUAL(11)
        RESIDUAL(12) RESIDUAL(13) RESIDUAL(14) RESIDUAL(15)
#undef RESIDUAL
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
    double zero = f->lv->theta > 0 ? 0.0 : -0.0;
    for (int end = 0; end < 2; end++) {
        long lo3[3] = {0, 0, 0}, hi3[3] = {s[0], s[1], s[2]};
        lo3[f->a] = end ? s[f->a] - 1 : 0;
        hi3[f->a] = lo3[f->a] + 1;
        ROWS(tm, lo3, hi3) {
            long r = row(s, i, j, -1, 0);
            for (long k = lo3[2]; k < hi3[2]; k++)
                f->r[r + k] = f->out == OUT_SADDLE_RESIDUAL ? 0.0
                                                            : finish(f, f->out, zero, r + k);
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
    const double *mu = f->lv->mu, *gamma = f->lv->gamma, *delta = f->delta;
    const double *res = f->r, *diag = f->diag;
    const double *w0 = f->w[0], *w1 = f->nb == 2 ? f->w[1] : f->w[0];
    const long rf = o->rf, rc = o->rc, rc1 = o->rc1, rup = o->rup, rdn = o->rdn;
    const int two = f->nb == 2, last = two;
    const long n0 = o->rn[0], m0 = o->rn1[0], lo0 = o->rlo[0], hi0 = o->rhi[0];
    const long n1 = o->rn[last], m1 = o->rn1[last], lo1 = o->rlo[last], hi1 = o->rhi[last];
    const int p0 = periodic(f->g, f->bs[0]), p1 = periodic(f->g, f->bs[last]);
    const int hl0 = o->has_lo[0], hh0 = o->has_hi[0];
    const int hl1 = o->has_lo[last], hh1 = o->has_hi[last];
    const int form = f->lv->form, bounded = f->bounded;
    const double inv_h2 = f->g->inv_h2, omega = f->omega;
    double *ua = f->ua;
    /* the couplings written out, not looped: a loop over them made a face
     * V-cycle 2-7% slower */
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

/* entries of the largest component's tangential flux arrays on f->g, with
 * f's shapes set */
static long tangent_size(face_t *f)
{
    long nn = 0;
    shapes(f->g, f->sc, f->sf);
    for (int a = f->g->first; a < 3; a++)
        nn = most(face_component(f, a), nn);
    return nn;
}

/* Relaxes u[a] for every coupled axis a in turn, each from its own
 * residual, which reads the components already relaxed, dividing by
 * lv->diag[a]; without work, returns its size, sized for the largest
 * component.  zero_guess promises that u is zero, so the first component
 * takes rhs as its residual. */
static long face_sweep(team_t *tm, const smg_level *lv, double omega, int zero_guess,
                       double *const *u, const double *const *rhs, double *work)
{
    const grid3 *g = &lv->g;
    face_t f = {.g = g, .lv = lv, .out = OUT_RESIDUAL, .omega = omega};
    long nn = tangent_size(&f), nc = count(f.sc), nf = 0;
    for (int a = g->first; a < 3; a++)
        nf = most(count(f.sf[a]), nf);
    long size = 2 * nf + 2 * nc + nn;
    if (!work)
        return size;
    for (int a = g->first; a < 3; a++)
        f.u[a] = u[a];
    f.delta = work;
    f.fn = work + 2 * nf;
    f.divu = f.fn + nc;
    f.ft[0] = f.divu + nc;

    for (int a = g->first; a < 3; a++) {
        const long *sa = f.sf[a];
        long lo3[3], hi3[3];
        face_component(&f, a);
        f.base = rhs[a];
        f.diag = lv->diag[a];
        f.ft[1] = f.ft[0] + count(f.sn[0]);
        unknowns(&f, lo3, hi3);
        zero_pass(tm, f.delta, count(sa));

        int from_rhs = zero_guess && a == g->first;
        f.r = from_rhs ? (double *)rhs[a] : work + nf;
        if (!from_rhs) {
            if (lv->form == STRESS_BULK) {
                divergence(tm, g, f.u, f.divu);
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
    return size;
}

/* the diagonal at component a's unknowns: theta rho, then per coupling (the
 * normal one, then each b != a) 0 + (lower + upper) of the black rows'
 * weights.  On a wall along b the wall's one-sided coupling stands in for
 * the missing neighbour: doubled on a no-slip wall (a difference over h/2),
 * dropped on a free-slip wall (no tangential flux). */
ROW_FUNCTION face_diag_row(const face_t *f, const black_face_at *o, long k0, long k1)
{
    const grid3 *g = f->g;
    const smg_level *lv = f->lv;
    const double *mu = lv->mu, *gamma = lv->gamma, inv_h2 = g->inv_h2;
    const long rf = o->rf, rc = o->rc, rc1 = o->rc1;
    for (long k = k0; k < k1; k++) {
        double d = lv->theta * f->rho[rf + k];
        d += 0.0 + (normal_weight(lv->form, inv_h2, mu[rc1 + k], gamma[rc1 + k])
                    + normal_weight(lv->form, inv_h2, mu[rc + k], gamma[rc + k]));
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
 * the velocity sweep divides by; boundary faces (not unknowns) hold 1 */
static void face_diag(const smg_level *lv, double *const *out)
{
    face_t f = {.g = &lv->g, .lv = lv};
    shapes(f.g, f.sc, f.sf);
    for (int a = f.g->first; a < 3; a++) {
        long lo3[3], hi3[3];
        face_component(&f, a);
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

/* The arguments of an operator stage: the field kind, what a face stage
 * stores (OUT_*), x (u, with the saddle's p), the right-hand sides (NULL:
 * none), the outputs and the workspace (NULL: the stage returns its size
 * and runs nothing). */
typedef struct {
    const smg_level *lv;
    int kind, out;
    const double *const *u, *p, *const *base, *base_p;
    double *const *res, *res_p, *work;
} apply_args;

static long face_apply(team_t *tm, const apply_args *in)
{
    const grid3 *g = &in->lv->g;
    int form = in->lv->form, out = in->out;
    double *const *res = in->res, *res_p = in->res_p, *work = in->work;
    face_t f = {.g = g, .lv = in->lv, .out = out};
    long nn = tangent_size(&f), nc = count(f.sc);
    int saddle = out == OUT_SADDLE || out == OUT_SADDLE_RESIDUAL;
    int own_div = form == STRESS_BULK && !saddle;
    long size = nc * (1 + own_div) + nn;
    if (!work)
        return size;
    for (int a = g->first; a < 3; a++)
        f.u[a] = in->u[a];
    f.fn = work;
    f.divu = saddle ? res_p : work + nc;
    if (form == STRESS_BULK || saddle)
        divergence(tm, g, f.u, f.divu);
    if (saddle) {
        cell_t c = {.g = g, .p = (double *)in->p, .flux = {res[0], res[1], res[2]}};
        shapes(g, c.sc, c.sf);
        gradient_rows(tm, &c);
    }
    team_sync(tm);
    for (int a = g->first; a < 3; a++) {
        face_component(&f, a);
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
        /* two loops: one loop testing out per entry made apply_M 2-3% slower */
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
    return size;
}

/* out = D u */
void smg_div(const grid3 *g, const double *const *u, double *out)
{
    divergence(SOLO, g, u, out);
}

/* ------------------------------------------------------------------------
 * grid transfers
 * ------------------------------------------------------------------------
 * A transfer is a sequence of passes, each along one axis x, as the numpy
 * formulation applies them: every line of the array along x maps to a line
 * of the output by the same taps, an output entry t combining up to three
 * source entries q[] in one of the forms below. */

enum { ZERO, COPY, MEAN, MIX, W3 };
enum { PAIR_MEAN, RESTRICT_NORMAL, PROLONG_TANGENT, PROLONG_NORMAL, INJECT };

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
    case PROLONG_NORMAL: /* overlaying faces copy, the others average */
        if (t & 1)
            return (tap_t){MEAN, {i, wrap(i + 1, n), 0}};
        /* fall through */
    default: /* INJECT: both children copy their parent */
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
    if (pass == PROLONG_TANGENT || pass == INJECT)
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
 * passes between writing into work; returns the entries of work they use,
 * and without work runs nothing. */
static long transfer(team_t *tm, const grid3 *g, int np, const int *passes,
                     const int *axes, const double *src, const long *s, double *dst,
                     double *work)
{
    const double *in = src;
    long shape[3] = {s[0], s[1], s[2]}, used = 0;
    for (int k = 0; k < np; k++) {
        int x = axes[k], per = periodic(g, x);
        if (work) {
            double *out = k == np - 1 ? dst : work + used;
            transfer_pass(tm, passes[k], per, x, in, shape, out);
            team_sync(tm);
            in = out;
        }
        shape[x] = pass_length(passes[k], per, shape[x]);
        used += k < np - 1 ? count(shape) : 0;
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

/* Restriction (g fine) or prolongation (g coarse) of a field of the kind.
 * A velocity field's restriction runs means over the axes tangential to
 * each component a, then the 1/4, 1/2, 1/4 stencil along a, and its
 * prolongation 3/4-1/4 interpolation along the axes tangential to a, then
 * copies and means along a.  A pressure field is planned as "component"
 * a = -1, every coupled axis tangential: its restriction takes the means
 * of the 2^d children, and its prolongation injects each value into its
 * 2^d children, one pass per axis.  Without work, returns its size. */
static long transfer_field(team_t *tm, int kind, int restricting, const grid3 *g,
                           const double *const *src, double *const *dst, double *work)
{
    long size = 0;
    for (int a = kind == CELL ? -1 : g->first; a < (kind == CELL ? 0 : 3); a++) {
        int passes[3], axes[3], c = a < 0 ? 0 : a;
        int tangent = restricting ? PAIR_MEAN : (a < 0 ? INJECT : PROLONG_TANGENT);
        int np = transfer_plan(g, a, tangent, restricting ? RESTRICT_NORMAL : PROLONG_NORMAL,
                               passes, axes);
        long s[3];
        shape_of(g, a, a, s);
        size = most(transfer(tm, g, np, passes, axes, work ? src[c] : NULL, s,
                             work ? dst[c] : NULL, work), size);
    }
    return size;
}

/* ------------------------------------------------------------------------
 * the multigrid stages
 * ------------------------------------------------------------------------
 * One stage per job, for a field of either kind, as per-axis pointers (a
 * pressure field's first): sweep and the operator stage (the residual, or
 * the saddle's) here, transfer_field above.  The V-cycle and the
 * stand-alone entries below call only these.  Without work, each returns
 * its size. */

/* one sweep of x against rhs on level lv, dividing by lv->diag */
static long sweep(team_t *tm, int kind, const smg_level *lv, double omega, int zero_guess,
                  double *const *x, const double *const *rhs, double *work)
{
    return kind == CELL ? cell_sweep(tm, lv, omega, zero_guess, x, rhs, work)
                        : face_sweep(tm, lv, omega, zero_guess, x, rhs, work);
}

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

/* entries of a grid's Stokes vector: its velocity faces and pressure
 * cells, which decide whether a call on it runs on the team */
static long stokes_entries(const grid3 *g)
{
    return field_size(FACE, g) + field_size(CELL, g);
}

/* the operator stage of either kind */
static long operator_stage(team_t *tm, const apply_args *a)
{
    return a->kind == CELL ? cell_apply(tm, a->lv, a->u, a->base, a->res, a->work)
                           : face_apply(tm, a);
}

/* r = rhs - (the kind's operator on level lv) x, or the operator alone
 * when rhs is NULL */
static long residual(team_t *tm, int kind, const smg_level *lv, const double *const *x,
                     const double *const *rhs, double *const *r, double *work)
{
    apply_args a = {.lv = lv, .kind = kind, .out = rhs ? OUT_RESIDUAL : OUT_A, .u = x,
                    .base = rhs, .res = r, .work = work};
    return operator_stage(tm, &a);
}

static void operator_task(team_t *tm, void *arg)
{
    operator_stage(tm, arg);
}

/* Runs an operator stage as one task of the team, in its own workspace. */
static int run_operator(apply_args *a)
{
    a->work = workspace(operator_stage(SOLO, a));
    if (!a->work)
        return -1;
    team_run(stokes_entries(&a->lv->g), operator_task, a);
    free(a->work);
    return 0;
}

/* The residual stage as one entry: of the pressure operator when cell is
 * nonzero (x, rhs and r hold the pressure first), else of the velocity
 * operator, whose boundary faces carry rhs's, or -0 in steady flow. */
int smg_apply(int cell, const smg_level *lv, const double *const *x,
              const double *const *rhs, double *const *r)
{
    apply_args a = {.lv = lv, .kind = cell ? CELL : FACE, .out = rhs ? OUT_RESIDUAL : OUT_A,
                    .u = x, .base = rhs, .res = r};
    return run_operator(&a);
}

/* The saddle operator: every component a of A u + G p into res[a], with
 * -D u into res_p; or, when base is not NULL, the saddle residual
 * base[a] - (A u + G p), with base_p - (-D u) into res_p and +0 on the
 * boundary faces.  Every wall velocity is zero. */
int smg_saddle(const smg_level *lv, const double *const *u, const double *p,
               const double *const *base, const double *base_p, double *const *res,
               double *res_p)
{
    apply_args a = {lv, FACE, base ? OUT_SADDLE_RESIDUAL : OUT_SADDLE, u, p, base, base_p,
                    res, res_p, NULL};
    return run_operator(&a);
}

/* One sweep of x on the operator of level lv, which holds the diagonal:
 * of the pressure operator when cell is nonzero, else of the velocity
 * operator.  zero_guess promises that x is zero, so the (first component's)
 * residual is rhs and the operator is not applied. */
int smg_sweep(int cell, const smg_level *lv, double omega, int zero_guess,
              const double *const *rhs, double *const *x)
{
    int kind = cell ? CELL : FACE;
    double *work = workspace(sweep(SOLO, kind, lv, omega, zero_guess, NULL, NULL, NULL));
    if (!work)
        return -1;
    sweep(SOLO, kind, lv, omega, zero_guess, x, rhs, work);
    free(work);
    return 0;
}

/* out = the diagonal a sweep of the kind divides by, on level lv */
void smg_diag(int cell, const smg_level *lv, double *const *out)
{
    if (cell)
        cell_diag(lv, out[0]);
    else
        face_diag(lv, out);
}

/* dst = the restriction of src (g the fine grid) when restricting is
 * nonzero, else its prolongation (g the coarse grid), of a pressure field
 * when cell is nonzero, else of a velocity field */
int smg_transfer(int cell, int restricting, const grid3 *g, const double *const *src,
                 double *const *dst)
{
    int kind = cell ? CELL : FACE;
    double *work = workspace(transfer_field(SOLO, kind, restricting, g, NULL, NULL, NULL));
    if (!work)
        return -1;
    transfer_field(SOLO, kind, restricting, g, src, dst, work);
    free(work);
    return 0;
}

/* ------------------------------------------------------------------------
 * V-cycles
 * ------------------------------------------------------------------------
 * smg_vcycle runs one residual-correction V-cycle of either operator from
 * a zero guess over a plan of levels, finest first, with the stages above
 * in the order the reference recursion in tests/reference.py calls the
 * stand-alone entries, so every output bit is theirs.  Each call makes one
 * allocation and frees it before it returns, laid out as a stack of frames,
 * one per level (see cycle_level): a level's frame holds its sweeps'
 * workspace, or its residual and then its prolonged correction, followed
 * by the coarser level's right-hand side, iterate and frame.  The caller
 * owns the finest iterate and right-hand side.  The whole cycle is one task
 * of the team; from the first level below TEAM_MIN_ENTRIES down and back,
 * the calling thread runs alone while the helpers wait at one barrier. */

typedef struct {
    int kind;
    long levels;
    const smg_level *plan;
    double omega;
    int down, up, bottom;
    double *const *x;
    const double *const *rhs;
    double *work;
} cycle_t;

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

/* Entries of level l's frame: what its sweeps use, or its residual with
 * the residual's workspace, or its residual or prolonged correction (at
 * the frame's start) with level l + 1's right-hand side and iterate, then
 * the transfer's workspace or level l + 1's frame. */
static long frame_size(const cycle_t *cy, long l)
{
    const smg_level *lv = cy->plan + l;
    long own = sweep(SOLO, cy->kind, lv, 0.0, 0, NULL, NULL, NULL);
    if (l == cy->levels - 1)
        return own;
    const grid3 *g = &lv->g, *gc = &lv[1].g;
    long fine = field_size(cy->kind, g), coarse = 2 * field_size(cy->kind, gc);
    long res = residual(SOLO, cy->kind, lv, NULL, NULL, NULL, NULL);
    long down = transfer_field(SOLO, cy->kind, 1, g, NULL, NULL, NULL);
    long up = transfer_field(SOLO, cy->kind, 0, gc, NULL, NULL, NULL);
    long below = most(most(down, up), frame_size(cy, l + 1));
    return most(most(own, fine + res), fine + coarse + below);
}

/* sweeps relaxations of x on level lv, the first from x = 0 when from_zero */
static void relax(team_t *tm, const cycle_t *cy, const smg_level *lv, int sweeps,
                  int from_zero, double *const *x, const double *const *rhs, double *work)
{
    for (int k = 0; k < sweeps; k++)
        sweep(tm, cy->kind, lv, cy->omega, from_zero && k == 0, x, rhs, work);
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
    residual(tm, cy->kind, lv, (const double *const *)x, rhs, r, after);
    transfer_field(tm, cy->kind, 1, g, (const double *const *)r, crhs, below);

    cycle_level(tm, cy, l + 1, cx, (const double *const *)crhs, below);

    /* the prolonged correction */
    double *e[3];
    field_at(cy->kind, g, frame, e);
    transfer_field(tm, cy->kind, 0, gc, (const double *const *)cx, e, below);
    zero_or_add(tm, cy->kind, g, x, (const double *const *)e);
    relax(tm, cy, lv, cy->up, 0, x, rhs, frame);
}

static void cycle_task(team_t *tm, void *arg)
{
    const cycle_t *cy = arg;
    cycle_level(tm, cy, 0, cy->x, cy->rhs, cy->work);
}

/* x = one V-cycle on rhs from x = 0 over the plan's levels: of the
 * pressure operator when cell is nonzero (x and rhs hold the pressure
 * first), else of the velocity operator (one component per axis).  down,
 * up and bottom count the sweeps of each pass. */
int smg_vcycle(int cell, long levels, const smg_level *plan, double omega, int down,
               int up, int bottom, const double *const *rhs, double *const *x)
{
    cycle_t cy = {.kind = cell ? CELL : FACE, .levels = levels, .plan = plan,
                  .omega = omega, .down = down, .up = up, .bottom = bottom, .x = x,
                  .rhs = rhs};
    cy.work = workspace(frame_size(&cy, 0));
    if (!cy.work)
        return -1;
    team_run(stokes_entries(&plan->g), cycle_task, &cy);
    free(cy.work);
    return 0;
}

/* ------------------------------------------------------------------------
 * Krylov reductions
 * ------------------------------------------------------------------------
 * Over contiguous vectors of n entries, cut into blocks of RED_BLOCK
 * entries (the last one shorter).  A dot product sums each block on its
 * own: it rounds each product a[k] b[k], adds it to running partial sum
 * k mod 4 (each starting at 0.0, entries in increasing order) and combines
 * the four as (s0 + s1) + (s2 + s3).  It then adds the block sums left to
 * right, starting from the first block's (n = 0 gives +0.0).  RED_BLOCK is
 * a constant, so the order depends on n alone, not on the team size, the
 * machine or how the loop is compiled: the team splits the blocks, and
 * every thread that needs the result adds the same block sums in the same
 * order.  An n of at most RED_BLOCK is one block, summed as one four-lane
 * pass. */

/* entries per block of a reduction: a multiple of 4, so lane k mod 4 of a
 * block is lane k mod 4 of the vector */
#define RED_BLOCK 4096

static long red_blocks(long n)
{
    return (n + RED_BLOCK - 1) / RED_BLOCK;
}

static inline double lanes(const double s[4])
{
    return (s[0] + s[1]) + (s[2] + s[3]);
}

/* the block sums of block 0, 1, ..., blocks - 1, added in that order */
static double add_blocks(const double *sums, long blocks)
{
    if (blocks == 0)
        return 0.0;
    double total = sums[0];
    for (long b = 1; b < blocks; b++)
        total += sums[b];
    return total;
}

/* The sum of block b of next . w, after w -= h v over the block when v is
 * not NULL (h v rounded first, each entry of w updated before it is read:
 * next may be w itself). */
static double block_sum(long n, long b, double h, const double *v, double *w,
                        const double *next)
{
    double s[4] = {0.0, 0.0, 0.0, 0.0};
    long k = b * RED_BLOCK, end = k + RED_BLOCK < n ? k + RED_BLOCK : n;
    /* one loop with and one without the update: a test of v inside a
     * single loop made the update pass twice as slow */
    if (v) {
        for (; k + 4 <= end; k += 4) {
            w[k] -= h * v[k];
            s[0] += next[k] * w[k];
            w[k + 1] -= h * v[k + 1];
            s[1] += next[k + 1] * w[k + 1];
            w[k + 2] -= h * v[k + 2];
            s[2] += next[k + 2] * w[k + 2];
            w[k + 3] -= h * v[k + 3];
            s[3] += next[k + 3] * w[k + 3];
        }
        for (; k < end; k++) {
            w[k] -= h * v[k];
            s[k & 3] += next[k] * w[k];
        }
        return lanes(s);
    }
    for (; k + 4 <= end; k += 4) {
        s[0] += next[k] * w[k];
        s[1] += next[k + 1] * w[k + 1];
        s[2] += next[k + 2] * w[k + 2];
        s[3] += next[k + 3] * w[k + 3];
    }
    for (; k < end; k++)
        s[k & 3] += next[k] * w[k];
    return lanes(s);
}

/* The pass forming each block's sum of next . w into sums (after
 * w -= h v, see block_sum), a sync, and their total, which every thread
 * forms alike. */
static double blocked_pass(team_t *tm, long n, double h, const double *v, double *w,
                           const double *next, double *sums)
{
    long blocks = red_blocks(n);
    SHARES(tm, blocks, ps)
        for (long b = ps.lo; b < ps.hi; b++)
            sums[b] = block_sum(n, b, h, v, w, next);
    team_sync(tm);
    return add_blocks(sums, blocks);
}

typedef struct {
    long n, j;
    double *V, *w, *h, *sums;
} krylov_args;

static void dot_task(team_t *tm, void *arg)
{
    krylov_args *d = arg;
    double total = blocked_pass(tm, d->n, 0.0, NULL, d->w, d->V, d->sums);
    if (!tm->back)
        *d->h = total;
}

/* *out = a . b; -1: the allocation failed */
int smg_dot(long n, const double *a, const double *b, double *out)
{
    /* b as blocked_pass's w, which it writes only with an update to make */
    krylov_args d = {.n = n, .V = (double *)a, .w = (double *)b, .h = out};
    d.sums = workspace(red_blocks(n));
    if (!d.sums)
        return -1;
    team_run(n, dot_task, &d);
    free(d.sums);
    return 0;
}

/* two doubles, divided as one instruction where the machine has one:
 * each quotient is the IEEE quotient of its pair, as a scalar division's */
typedef double pair __attribute__((vector_size(2 * sizeof(double))));

/* out = w / d at n entries, two at a time: a scalar division made an
 * Arnoldi step (11 rows of 197k entries) 5-6% slower */
static void divide(double *out, const double *w, double d, long n)
{
    const pair dd = {d, d};
    long k = 0;
    for (; k + 2 <= n; k += 2) {
        pair x;
        memcpy(&x, w + k, sizeof x);
        x /= dd;
        memcpy(out + k, &x, sizeof x);
    }
    for (; k < n; k++)
        out[k] = w[k] / d;
}

/* The steps of smg_arnoldi.  Step i's block sums have their own row of
 * sums: a thread that claimed no chunk of a pass can still be adding the
 * previous step's sums while another thread writes the next step's. */
static void arnoldi_task(team_t *tm, void *arg)
{
    krylov_args *a = arg;
    const long n = a->n, j = a->j, blocks = red_blocks(n);
    double *V = a->V, *w = a->w;
    double h = blocked_pass(tm, n, 0.0, NULL, w, V, a->sums);
    for (long i = 0; i <= j; i++) {
        if (!tm->back)
            a->h[i] = h;
        const double *next = i < j ? V + (i + 1) * n : w;
        h = blocked_pass(tm, n, h, V + i * n, w, next, a->sums + (i + 1) * blocks);
    }
    if (!tm->back)
        a->h[j + 1] = h;
    if (!(h > 0.0 && h <= DBL_MAX))
        return;
    double norm = sqrt(h);
    SHARES(tm, n, ps)
        divide(V + (j + 1) * n + ps.lo, w + ps.lo, norm, ps.hi - ps.lo);
}

/* One Arnoldi step of modified Gram-Schmidt on w against the basis rows
 * v_0 ... v_j (row v_i at V + i n): for i = 0 ... j in turn,
 * h[i] = v_i . w and w -= h[i] v_i entry by entry (h[i] v_i rounded
 * first); then h[j + 1] = w . w.  When that is positive and finite, row
 * v_j+1 = w / sqrt(h[j + 1]), else it is left as it was.  Each dot is
 * summed in the blocked order, fused into the pass of the update before
 * it, so a step costs one pass and one sync of the team.  -1: the
 * allocation failed. */
int smg_arnoldi(long n, long j, double *V, double *w, double *h)
{
    krylov_args a = {.n = n, .j = j, .V = V, .w = w, .h = h};
    a.sums = workspace((j + 2) * red_blocks(n));
    if (!a.sums)
        return -1;
    team_run(n, arnoldi_task, &a);
    free(a.sums);
    return 0;
}

typedef struct {
    long n, m;
    const double *V, *y, *x;
    double *out;
} combine_args;

/* Items [lo, hi) of smg_combine: the blocks of four entries, then the
 * entries after the last block as one more item.  The blocks pay: one
 * loop over single entries was 54-59% slower at 197k entries. */
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
