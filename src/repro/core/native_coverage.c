/*
 * Native CoverageState kernel: marginal gain, insertion, replay and the
 * all-photo gains over the flat incidence CSR
 * (repro.core.instance.IncidenceCSR).  Loaded by repro.core.native,
 * which validates every index this file trusts and falls back to the
 * numpy kernel when the library cannot be built.
 *
 * A membership is its range of the base arrays followed, when the
 * incidence has a tail (a grown live archive), by its range of the tail
 * arrays: both are gathered into one operand list, so the kernel sees
 * exactly the entries of the compact layout, in the same order.
 *
 * Bit-identity with the numpy kernel rests on three rules:
 *   - the phi-scale, subtract and compare steps are single IEEE double
 *     operations (built with -ffp-contract=off, so never fused);
 *   - each membership's masked dot product calls the very cblas_ddot
 *     that numpy's `a @ b` dispatches to, passed in as `ddot`, once per
 *     run of at most `dot_chunk` entries (a threaded BLAS sums a longer
 *     call in an order that depends on its thread count), and adds the
 *     calls in order to a zero like numpy's DOUBLE_dot does;
 *   - memberships are summed in ascending subset order.
 *
 * phocus_all_gains forms numpy's per-entry max(sim - best, 0) * wrel
 * products and sums each photo's as np.add.reduceat does: the first
 * product plus numpy's pairwise sum of the rest (see pairwise_sum).
 * repro.core.native serves it only after comparing it bitwise with
 * np.add.reduceat in the running process.
 */
#include <stdint.h>

/* cdef-begin */
typedef double (*phocus_ddot_ilp64)(int64_t, const double *, int64_t,
                                    const double *, int64_t);
typedef double (*phocus_ddot_lp64)(int, const double *, int,
                                   const double *, int);

typedef struct {
    int64_t n;                          /* photos */
    const int64_t *photo_member_indptr; /* photo -> membership range */
    const int64_t *member_entry_indptr; /* membership -> entry range */
    const int64_t *slots;
    const double *sims;
    const int64_t *tail_indptr;         /* membership -> tail range, or NULL */
    const int64_t *tail_slots;
    const double *tail_sims;
    const double *slot_wrel;            /* W(q)·R(q, ·), one per slot */
    double *best;                       /* the state's coverage vector */
    double *dot_w, *dot_d;              /* one membership's dot operands */
    int64_t *pending_slots;             /* writes the last gain implies */
    double *pending_sims;
    int64_t pending;
    int64_t dot_chunk;                  /* entries per ddot call */
    void *ddot;
    int ilp64;
} phocus_coverage;

double phocus_gain(phocus_coverage *c, int64_t p, double phi);
void phocus_commit(phocus_coverage *c);
double phocus_add(phocus_coverage *c, int64_t p, double phi);
double phocus_replay(phocus_coverage *c, const int64_t *ids, int64_t count);
void phocus_all_gains(phocus_coverage *c, double *gains);
/* cdef-end */

static double masked_dot(const phocus_coverage *c, int64_t n)
{
    double sum = 0.0;
    for (int64_t s = 0; s < n; s += c->dot_chunk) {
        int64_t len = n - s < c->dot_chunk ? n - s : c->dot_chunk;
        const double *w = c->dot_w + s, *d = c->dot_d + s;
        if (c->ilp64)
            sum += ((phocus_ddot_ilp64)c->ddot)(len, w, 1, d, 1);
        else
            sum += ((phocus_ddot_lp64)c->ddot)((int)len, w, 1, d, 1);
    }
    return sum;
}

/* Gather the positive deltas of entries [from, to) into the dot operands
 * after the n already there, and their writes after the pending ones;
 * returns the new n (the pending count grows by as many). */
static inline int64_t gather(phocus_coverage *c, const int64_t *slots,
                             const double *sims, int64_t from, int64_t to,
                             double phi, int64_t n, int64_t pending)
{
    const int scale = phi != 1.0;  /* full fidelity uses sims unscaled */
    const double *best = c->best, *slot_wrel = c->slot_wrel;
    double *dot_w = c->dot_w, *dot_d = c->dot_d, *pending_sims = c->pending_sims;
    int64_t *pending_slots = c->pending_slots;
    for (int64_t e = from; e < to; e++) {
        double sim = scale ? phi * sims[e] : sims[e];
        double delta = sim - best[slots[e]];
        if (delta > 0) {
            dot_w[n] = slot_wrel[slots[e]];
            dot_d[n] = delta;
            n++;
            pending_slots[pending] = slots[e];
            pending_sims[pending] = sim;
            pending++;
        }
    }
    return n;
}

double phocus_gain(phocus_coverage *c, int64_t p, double phi)
{
    double total = 0.0;
    int64_t pending = 0;
    for (int64_t k = c->photo_member_indptr[p];
         k < c->photo_member_indptr[p + 1]; k++) {
        int64_t n = gather(c, c->slots, c->sims, c->member_entry_indptr[k],
                           c->member_entry_indptr[k + 1], phi, 0, pending);
        if (c->tail_indptr)
            n = gather(c, c->tail_slots, c->tail_sims, c->tail_indptr[k],
                       c->tail_indptr[k + 1], phi, n, pending + n);
        pending += n;
        if (n)
            total += masked_dot(c, n);
    }
    c->pending = pending;
    return total;
}

void phocus_commit(phocus_coverage *c)
{
    for (int64_t i = 0; i < c->pending; i++)
        c->best[c->pending_slots[i]] = c->pending_sims[i];
    c->pending = 0;
}

double phocus_add(phocus_coverage *c, int64_t p, double phi)
{
    double total = phocus_gain(c, p, phi);
    phocus_commit(c);
    return total;
}

/* Add every photo of ids in order at full fidelity; the realised gains
 * summed in that order from a zero, as CoverageState.add accumulates
 * its value. */
double phocus_replay(phocus_coverage *c, const int64_t *ids, int64_t count)
{
    double value = 0.0;
    for (int64_t i = 0; i < count; i++)
        value += phocus_add(c, ids[i], 1.0);
    return value;
}

/* numpy's pairwise_sum for doubles: sequential from -0.0 below 8 terms,
 * eight accumulators up to 128, otherwise the two halves (split at a
 * multiple of 8) summed apart. */
static double pairwise_sum(const double *a, int64_t n)
{
    if (n < 8) {
        double res = -0.0;
        for (int64_t i = 0; i < n; i++)
            res += a[i];
        return res;
    }
    if (n <= 128) {
        double r[8];
        int64_t i;
        for (int j = 0; j < 8; j++)
            r[j] = a[j];
        for (i = 8; i < n - (n % 8); i += 8)
            for (int j = 0; j < 8; j++)
                r[j] += a[i + j];
        double res = ((r[0] + r[1]) + (r[2] + r[3])) +
                     ((r[4] + r[5]) + (r[6] + r[7]));
        for (; i < n; i++)
            res += a[i];
        return res;
    }
    int64_t n2 = n / 2;
    n2 -= n2 % 8;
    return pairwise_sum(a, n2) + pairwise_sum(a + n2, n - n2);
}

/* Append the products of entries [from, to) after the m in dot_w;
 * returns the new m. */
static inline int64_t products(const phocus_coverage *c, const int64_t *slots,
                               const double *sims, int64_t from, int64_t to,
                               int64_t m)
{
    const double *best = c->best, *slot_wrel = c->slot_wrel;
    double *out = c->dot_w;
    for (int64_t e = from; e < to; e++) {
        double delta = sims[e] - best[slots[e]];
        /* np.maximum(delta, 0.0): a -0.0 delta becomes +0.0 */
        out[m++] = (delta > 0 ? delta : 0.0) * slot_wrel[slots[e]];
    }
    return m;
}

/* gains[p] for every photo, as one np.add.reduceat over its products:
 * 0 without entries, else the first product plus the pairwise sum of
 * the rest.  Uses dot_w as scratch; pending writes are kept. */
void phocus_all_gains(phocus_coverage *c, double *gains)
{
    for (int64_t p = 0; p < c->n; p++) {
        int64_t m = 0;
        for (int64_t k = c->photo_member_indptr[p];
             k < c->photo_member_indptr[p + 1]; k++) {
            m = products(c, c->slots, c->sims, c->member_entry_indptr[k],
                         c->member_entry_indptr[k + 1], m);
            if (c->tail_indptr)
                m = products(c, c->tail_slots, c->tail_sims, c->tail_indptr[k],
                             c->tail_indptr[k + 1], m);
        }
        gains[p] = m == 0 ? 0.0
                 : m == 1 ? c->dot_w[0]
                 : c->dot_w[0] + pairwise_sum(c->dot_w + 1, m - 1);
    }
}
