/* The compiled run kernel: one draw block of R pdsg and mirror-prox rows on a
 * quadratic instance, the rows split in groups over a few threads.
 *
 * Each iteration is solver._row_block's, operation for operation, on the
 * arrays of a QuadraticInstance.  Every product is the BLAS call that numpy's
 * matmul makes for the same operands (matvec, rmatvec and dot below), through
 * the cblas functions of the library numpy has loaded; the rest is IEEE
 * arithmetic in the Python order, compiled with -ffp-contract=off so that no
 * product and sum fuse.  So every row is bit-equal to its per-row run.
 * compiled.py builds, binds and self-checks this file.
 */
#include <math.h>
#include <pthread.h>
#include <stdint.h>
#include <stdlib.h>

enum { ROW_MAJOR = 101, COL_MAJOR = 102, TRANS = 112 };

typedef void gemv32(int, int, int32_t, int32_t, double, const double *, int32_t,
                    const double *, int32_t, double, double *, int32_t);
typedef void gemv64(int, int, int64_t, int64_t, double, const double *, int64_t,
                    const double *, int64_t, double, double *, int64_t);
typedef double ddot32(int32_t, const double *, int32_t, const double *, int32_t);
typedef double ddot64(int64_t, const double *, int64_t, const double *, int64_t);

static void *gemv_fn, *ddot_fn;
static int wide;  /* the BLAS takes 64-bit integers */

void pdsg_bind(void *gemv, void *ddot, int wide_ints)
{
    gemv_fn = gemv;
    ddot_fn = ddot;
    wide = wide_ints;
}

/* u'v as numpy's dot takes it: a running sum from 0.0 plus ddot */
static double dot(int64_t n, const double *u, const double *v)
{
    double sum = 0.0;
    sum += wide ? ((ddot64 *)ddot_fn)(n, u, 1, v, 1)
                : ((ddot32 *)ddot_fn)((int32_t)n, u, 1, v, 1);
    return sum;
}

static void gemv(int order, int64_t M, int64_t N, const double *A, int64_t lda,
                 const double *x, double *y)
{
    if (wide)
        ((gemv64 *)gemv_fn)(order, TRANS, M, N, 1.0, A, lda, x, 1, 0.0, y, 1);
    else
        ((gemv32 *)gemv_fn)(order, TRANS, (int32_t)M, (int32_t)N, 1.0, A,
                            (int32_t)lda, x, 1, 0.0, y, 1);
}

/* y = A x for a C-contiguous A (rows, cols), as numpy's matmul dispatches it:
 * dot for one output row, its no-BLAS loop for an inner length of 1, gemv
 * (column-major, transposed) otherwise */
static void matvec(const double *A, int64_t rows, int64_t cols, const double *x, double *y)
{
    if (rows == 1)
        y[0] = dot(cols, A, x);
    else if (cols == 1)
        for (int64_t k = 0; k < rows; k++)
            y[k] = 0.0 + A[k] * x[0];
    else
        gemv(COL_MAJOR, cols, rows, A, cols, x, y);
}

/* y = A'v, the same dispatch for the transposed view (row-major gemv) */
static void rmatvec(const double *A, int64_t rows, int64_t cols, const double *v, double *y)
{
    if (cols == 1)
        y[0] = dot(rows, A, v);
    else if (rows == 1)
        for (int64_t k = 0; k < cols; k++)
            y[k] = 0.0 + A[k] * v[0];
    else
        gemv(ROW_MAJOR, rows, cols, A, cols, v, y);
}

/* f_j(y) = (1/2) y'Q_j y + a_j'y - b_j, with Q_j y left in Qy */
static double value(int64_t n, const double *Qj, const double *aj, double bj,
                    const double *y, double *Qy)
{
    matvec(Qj, n, n, y, Qy);
    return 0.5 * dot(n, y, Qy) + dot(n, aj, y) - bj;
}

/* A block: its operands, shared read-only by its threads, and its rows'
 * state, stacked.  Row r reads its index triples from draws[r] (nb triples
 * i, xi, j), its steps from alphas[r] and rhos[r] and its dual rule from
 * rules[r] = (mirror, cap, limit) (solver._policy), and advances its iterate
 * X[r], dual Z[r], sums SP[r] and SW[r] and weight sum W[r] in place. */
struct block {
    int64_t n, p, m, nb;
    const double *H, *c, *Q, *a, *b, *lo, *hi;
    const int64_t *draws;
    const double *alphas, *rhos, *rules;
    double *X, *Z, *SP, *SW, *W;
    int64_t *stops;
};

/* A block's part for one thread: its rows first .. first + count - 1, the
 * thread started for them, if any, and its result: 0, or -1 when out of
 * memory */
struct part {
    const struct block *blk;
    int64_t first, count;
    pthread_t id;
    int started, status;
};

/* Iterations 1..nb of a part's rows, iteration outer and rows inner, so
 * that rows with equal draws read each slice while it is in cache.  A row
 * that diverges at iteration t is left as before t and stops; the others
 * run on. */
static void run_part(struct part *g)
{
    const struct block *B = g->blk;
    int64_t n = B->n, p = B->p, nb = B->nb, end = g->first + g->count;
    double *work = malloc(sizeof(double) * (size_t)(4 * n + p));
    if (work == NULL) {
        g->status = -1;
        return;
    }
    double *g0 = work, *Qx = g0 + n, *xn = Qx + n, *Qy = xn + n, *res = Qy + n;
    for (int64_t r = g->first; r < end; r++)
        B->stops[r] = nb;
    int64_t live = g->count;
    for (int64_t t = 0; t < nb && live; t++) {
        for (int64_t r = g->first; r < end; r++) {
            if (B->stops[r] < nb)
                continue;
            const int64_t *draw = B->draws + 3 * (r * nb + t);
            int64_t i = draw[0], xi = draw[1], j = draw[2];
            double a_k = B->alphas[r * nb + t], r_k = B->rhos[r * nb + t];
            int mirror = B->rules[3 * r] != 0.0;
            double cap = B->rules[3 * r + 1], limit = B->rules[3 * r + 2];
            double *x = B->X + r * n, *z = B->Z + r * B->m;
            const double *Hi = B->H + xi * p * n, *ci = B->c + xi * p, *ai = B->a + i * n;
            const double *lo = B->lo, *hi = B->hi;

            /* g0 = H_i'(H_i x - c_i), then f_i(x) with Q_i x */
            matvec(Hi, p, n, x, res);
            for (int64_t k = 0; k < p; k++)
                res[k] = res[k] - ci[k];
            rmatvec(Hi, p, n, res, g0);
            double fval = value(n, B->Q + i * n * n, ai, B->b[i], x, Qx);

            /* the penalty term enters when the multiplier is positive; a
             * NaN one takes pdsg's branch and skips mirror-prox's */
            double mult = r_k * fval + z[i];
            int active = mirror ? mult > 0.0 : !(mult <= 0.0);
            int bad = 0;
            for (int64_t k = 0; k < n; k++) {
                double d = active ? g0[k] + mult * (Qx[k] + ai[k]) : g0[k];
                double v = x[k] - a_k * d;
                /* np.maximum, then np.minimum: NaN propagates, a tie takes the bound */
                v = isnan(v) || v > lo[k] ? v : lo[k];
                v = isnan(v) || v < hi[k] ? v : hi[k];
                xn[k] = v;
                bad |= !isfinite(v);
            }

            /* dual coordinate j at the new iterate (pdsg) or the old one
             * (mirror-prox); Python's max keeps its first argument on a tie
             * or a NaN */
            double fj = value(n, B->Q + j * n * n, B->a + j * n, B->b[j], mirror ? x : xn, Qy);
            double zj = z[j], low = -zj / r_k;
            double zn = zj + r_k * (fj > low ? fj : low);
            zn = zn < 0.0 ? 0.0 : zn > cap ? cap : zn;
            if (bad || !(zn <= limit)) {
                B->stops[r] = t;
                live--;
                continue;
            }

            z[j] = zn;
            double *sp = B->SP + r * n, *sw = B->SW + r * n;
            for (int64_t k = 0; k < n; k++) {
                x[k] = xn[k];
                sp[k] = sp[k] + xn[k];
                sw[k] = sw[k] + a_k * xn[k];
            }
            B->W[r] = B->W[r] + a_k;
        }
    }
    free(work);
    g->status = 0;
}

static void *run_thread(void *g)
{
    run_part(g);
    return NULL;
}

/* Iterations 1..nb of a block (struct block) on T threads: the caller and
 * T - 1 started here and joined before the return.  Thread k runs the
 * counts[k] rows that follow the earlier threads'.  stops[r] is the
 * iteration (from 0) at which row r diverged, or nb.  Returns 0, or -1 when
 * out of memory. */
int64_t pdsg_block(int64_t n, int64_t p, int64_t m, const double *H, const double *c,
                   const double *Q, const double *a, const double *b,
                   const double *lo, const double *hi,
                   int64_t nb, const int64_t *draws,
                   const double *alphas, const double *rhos, const double *rules,
                   double *X, double *Z, double *SP, double *SW, double *W,
                   int64_t *stops, int64_t T, const int64_t *counts)
{
    struct block blk = {n, p, m, nb, H, c, Q, a, b, lo, hi, draws, alphas, rhos, rules,
                        X, Z, SP, SW, W, stops};
    struct part *part = malloc(sizeof(struct part) * (size_t)T);
    if (part == NULL)
        return -1;
    for (int64_t k = 0, at = 0; k < T; at += counts[k++])
        part[k] = (struct part){.blk = &blk, .first = at, .count = counts[k]};
    /* a part whose thread cannot be started runs on the caller */
    for (int64_t k = 1; k < T; k++)
        part[k].started = pthread_create(&part[k].id, NULL, run_thread, &part[k]) == 0;
    for (int64_t k = 0; k < T; k++)
        if (!part[k].started)
            run_part(&part[k]);
    int64_t status = 0;
    for (int64_t k = 0; k < T; k++) {
        if (part[k].started)
            pthread_join(part[k].id, NULL);
        status = part[k].status ? -1 : status;
    }
    free(part);
    return status;
}
