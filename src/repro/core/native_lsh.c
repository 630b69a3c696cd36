/*
 * Native banded-LSH candidates (repro.scale.lsh_candidate_keys) and their
 * exact-cosine check (repro.sparsify.simhash.verify_candidate_pairs).
 * Loaded by repro.core.native, which checks every array and bound this
 * file trusts before a pointer reaches it.
 *
 * Per band, phocus_lsh_band sorts the photos by bucket key with a stable
 * LSD radix sort (passes of at most 16 bits), so photo ids ascend inside
 * each bucket and the order equals numpy's argsort(kind="stable").  It
 * records, for every photo i, the range of sorted positions after i in
 * its bucket: exactly i's partners j > i in that band.
 *
 * The pairs then come out row by row.  Row i's partners in every band
 * set bits in an n-bit map (the cross-band dedup), and a scan of the map
 * from the lowest to the highest partner yields the unique j in
 * ascending order, written as the keys i * n + j.  Rows ascend, so the
 * keys come out sorted and unique without any sort.  phocus_lsh_count
 * makes the same walk to size the output exactly.
 *
 * phocus_verify reads each candidate key i * m + j, forms the dot product
 * of unit rows i and j and keeps (i, j, min(1, s)) when s >= tau.  The
 * dot sums in the order of numpy's einsum("ij,ij->i") on a build whose
 * vectors hold two doubles and multiply-add without fusing (SSE2); the
 * loader compares the two bit for bit, per width, before this serves.
 */
#include <stdint.h>
#include <string.h>

/* cdef-begin */
typedef struct {
    int64_t n;            /* photos */
    int64_t bands;
    int32_t *order;       /* (bands, n): each band's photo ids, by key */
    int32_t *spans;       /* (bands, n, 2): photo i's partners in band b
                             sit at order[b][lo..hi) */
    uint64_t *sorted_keys;  /* n: the last band's keys, sorted */
    uint64_t *tmp_keys;     /* n */
    int32_t *tmp_order;     /* n */
    int32_t *counts;        /* 1 << 16: one radix pass's histogram */
    uint64_t *bits;         /* (n + 63) / 64 words, zero between rows */
} phocus_lsh;

void phocus_lsh_band(phocus_lsh *c, int64_t b, const uint64_t *keys,
                     int key_bits);
int64_t phocus_lsh_count(phocus_lsh *c, int64_t *emitted);
int64_t phocus_lsh_emit(phocus_lsh *c, int64_t r0, int64_t r1, int64_t *out,
                        int64_t capacity);
int64_t phocus_verify(const double *unit, int64_t m, int64_t d,
                      const int64_t *keys, int64_t count, double tau,
                      int64_t *out_i, int64_t *out_j, double *out_v);
/* cdef-end */

#define RADIX_BITS 16

static void radix_pass(const phocus_lsh *c, const uint64_t *kin,
                       const int32_t *oin, uint64_t *kout, int32_t *oout,
                       int shift, uint64_t mask)
{
    int32_t *counts = c->counts;
    int64_t n = c->n;
    memset(counts, 0, (size_t)(mask + 1) * sizeof *counts);
    for (int64_t i = 0; i < n; i++)
        counts[(kin[i] >> shift) & mask]++;
    int32_t total = 0;
    for (uint64_t d = 0; d <= mask; d++) {
        int32_t count = counts[d];
        counts[d] = total;
        total += count;
    }
    for (int64_t i = 0; i < n; i++) {
        int32_t at = counts[(kin[i] >> shift) & mask]++;
        kout[at] = kin[i];
        oout[at] = oin ? oin[i] : (int32_t)i;
    }
}

void phocus_lsh_band(phocus_lsh *c, int64_t b, const uint64_t *keys,
                     int key_bits)
{
    int64_t n = c->n;
    int32_t *order = c->order + b * n;
    int32_t *spans = c->spans + 2 * b * n;
    uint64_t *sk = c->sorted_keys;
    int passes = (key_bits + RADIX_BITS - 1) / RADIX_BITS;
    if (passes == 0) {  /* every key is 0: one bucket in id order */
        for (int64_t i = 0; i < n; i++) {
            order[i] = (int32_t)i;
            sk[i] = keys[i];
        }
    } else {
        int digit = (key_bits + passes - 1) / passes;
        uint64_t mask = ((uint64_t)1 << digit) - 1;
        const uint64_t *kin = keys;
        const int32_t *oin = 0;
        for (int p = 0; p < passes; p++) {
            /* Alternate buffers so that the last pass lands in order/sk. */
            int last_side = (passes - 1 - p) % 2 == 0;
            uint64_t *kout = last_side ? sk : c->tmp_keys;
            int32_t *oout = last_side ? order : c->tmp_order;
            radix_pass(c, kin, oin, kout, oout, p * digit, mask);
            kin = kout;
            oin = oout;
        }
    }
    for (int64_t start = 0, p = 1; p <= n; p++) {
        if (p == n || sk[p] != sk[start]) {
            for (int64_t q = start; q < p; q++) {
                int32_t *span = spans + 2 * (int64_t)order[q];
                span[0] = (int32_t)(q + 1);
                span[1] = (int32_t)p;
            }
            start = p;
        }
    }
}

/* Sets the bits of row i's partners in every band; returns the lowest
 * partner (n when there is none) and stores the highest in *hi_j and the
 * number of emissions in *emitted. */
static int64_t mark_row(const phocus_lsh *c, int64_t i, int64_t *hi_j,
                        int64_t *emitted)
{
    const int64_t n = c->n, bands = c->bands;
    uint64_t *bits = c->bits;
    int64_t lo_j = n, top = -1, count = 0;
    for (int64_t b = 0; b < bands; b++) {
        const int32_t *span = c->spans + 2 * (b * n + i);
        if (i + 1 < n)  /* the next row's partners in this band */
            __builtin_prefetch(c->order + b * n + span[2]);
        int32_t lo = span[0], hi = span[1];
        if (lo == hi)
            continue;
        const int32_t *partners = c->order + b * n;
        /* Ids ascend inside a bucket: the range's ends bound the row. */
        if (partners[lo] < lo_j)
            lo_j = partners[lo];
        if (partners[hi - 1] > top)
            top = partners[hi - 1];
        for (int32_t p = lo; p < hi; p++) {
            int32_t j = partners[p];
            bits[j >> 6] |= (uint64_t)1 << (j & 63);
        }
        count += hi - lo;
    }
    *hi_j = top;
    *emitted = count;
    return lo_j;
}

int64_t phocus_lsh_count(phocus_lsh *c, int64_t *emitted)
{
    uint64_t *bits = c->bits;
    int64_t unique = 0;
    for (int64_t i = 0; i < c->n; i++) {
        int64_t hi_j;
        int64_t lo_j = mark_row(c, i, &hi_j, &emitted[i]);
        if (hi_j < 0)
            continue;
        for (int64_t w = lo_j >> 6; w <= hi_j >> 6; w++) {
            unique += __builtin_popcountll(bits[w]);
            bits[w] = 0;
        }
    }
    return unique;
}

/* Writes rows r0..r1-1 to out, at most capacity keys; returns how many
 * keys the rows hold (more than capacity only if the count was wrong). */
int64_t phocus_lsh_emit(phocus_lsh *c, int64_t r0, int64_t r1, int64_t *out,
                        int64_t capacity)
{
    uint64_t *bits = c->bits;
    int64_t written = 0;
    for (int64_t i = r0; i < r1; i++) {
        int64_t hi_j, emitted;
        int64_t lo_j = mark_row(c, i, &hi_j, &emitted);
        if (hi_j < 0)
            continue;
        int64_t base = i * c->n;
        for (int64_t w = lo_j >> 6; w <= hi_j >> 6; w++) {
            uint64_t word = bits[w];
            while (word) {
                if (written < capacity)
                    out[written] = base + (w << 6) + __builtin_ctzll(word);
                written++;
                word &= word - 1;
            }
            bits[w] = 0;
        }
    }
    return written;
}

/* einsum's sum of x[k] * y[k]: two lanes hold the even and the odd
 * terms; each block of four lane-pairs folds into the lanes as
 * x0*y0 + (x1*y1 + (x2*y2 + (x3*y3 + acc))), the tail follows one
 * lane-pair at a time, and the lanes add last.  einsum zero-pads an odd
 * tail; adding 0*0 changes no lane, since a lane that starts at +0 never
 * holds -0. */
static double einsum_dot(const double *x, const double *y, int64_t d)
{
    double acc0 = 0.0, acc1 = 0.0;
    int64_t k = 0;
    for (; k + 8 <= d; k += 8) {
        acc0 = x[k] * y[k]
             + (x[k + 2] * y[k + 2] + (x[k + 4] * y[k + 4] + (x[k + 6] * y[k + 6] + acc0)));
        acc1 = x[k + 1] * y[k + 1]
             + (x[k + 3] * y[k + 3] + (x[k + 5] * y[k + 5] + (x[k + 7] * y[k + 7] + acc1)));
    }
    for (; k + 2 <= d; k += 2) {
        acc0 = x[k] * y[k] + acc0;
        acc1 = x[k + 1] * y[k + 1] + acc1;
    }
    if (k < d)
        acc0 = x[k] * y[k] + acc0;
    return acc0 + acc1;
}

/* Verifies count keys; writes the kept pairs to out_i/out_j/out_v (each
 * with room for count) and returns how many it kept. */
int64_t phocus_verify(const double *unit, int64_t m, int64_t d,
                      const int64_t *keys, int64_t count, double tau,
                      int64_t *out_i, int64_t *out_j, double *out_v)
{
    int64_t kept = 0, i = 0, row = 0;  /* row = i * m */
    for (int64_t t = 0; t < count; t++) {
        int64_t key = keys[t];
        if (key < row || key - row >= m) {  /* sorted keys rarely change row */
            i = key / m;
            row = i * m;
        }
        int64_t j = key - row;
        double s = einsum_dot(unit + i * d, unit + j * d, d);
        if (s >= tau) {
            out_i[kept] = i;
            out_j[kept] = j;
            out_v[kept] = s > 1.0 ? 1.0 : s;
            kept++;
        }
    }
    return kept;
}
