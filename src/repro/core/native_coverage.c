/*
 * Native CoverageState kernel: marginal gain and insertion over the flat
 * incidence CSR (repro.core.instance.IncidenceCSR).  Loaded by
 * repro.core.native, which validates every index this file trusts and
 * falls back to the numpy kernel when the library cannot be built.
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
 */
#include <stdint.h>

/* cdef-begin */
typedef double (*phocus_ddot_ilp64)(int64_t, const double *, int64_t,
                                    const double *, int64_t);
typedef double (*phocus_ddot_lp64)(int, const double *, int,
                                   const double *, int);

typedef struct {
    const int64_t *photo_member_indptr; /* photo -> membership range */
    const int64_t *member_entry_indptr; /* membership -> entry range */
    const int64_t *slots;
    const double *sims;
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

double phocus_gain(phocus_coverage *c, int64_t p, double phi)
{
    const int scale = phi != 1.0;  /* full fidelity uses sims unscaled */
    double total = 0.0;
    int64_t pending = 0;
    for (int64_t k = c->photo_member_indptr[p];
         k < c->photo_member_indptr[p + 1]; k++) {
        int64_t n = 0;
        for (int64_t e = c->member_entry_indptr[k];
             e < c->member_entry_indptr[k + 1]; e++) {
            double sim = scale ? phi * c->sims[e] : c->sims[e];
            double delta = sim - c->best[c->slots[e]];
            if (delta > 0) {
                c->dot_w[n] = c->slot_wrel[c->slots[e]];
                c->dot_d[n] = delta;
                n++;
                c->pending_slots[pending] = c->slots[e];
                c->pending_sims[pending] = sim;
                pending++;
            }
        }
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
