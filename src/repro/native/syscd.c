/*
 * SySCD bucket kernels in C: the compiled twin of the numpy reference in
 * repro/solvers/syscd_kernels.py (exact_epoch_numpy, bucket_pass_numpy).
 *
 * Built on first use with `cc -O2 -fPIC -shared -ffp-contract=off` (see
 * repro/native/__init__.py) and loaded through ctypes, which releases the
 * GIL for the duration of every call.  Both functions replay the numpy
 * reference bit for bit, which rests
 * on three rules:
 *
 *   - every dot is a left-to-right sum seeded with the *first product*, as
 *     np.cumsum does (out[0] = x[0], not 0.0 + x[0]: the two differ on a
 *     signed zero);
 *   - every scatter applies its updates in flat order, as np.add.at does;
 *   - the delta is ((target - dot) - nlam * coef) * inv_denom with no fused
 *     multiply-add, hence -ffp-contract=off and no -ffast-math.
 *
 * Coordinates are read through perm + indptr directly, so the caller needs
 * no per-epoch gather.  Every pointer is validated by the Python binding
 * (dtype, contiguity, length, index bounds) before it reaches this file.
 */

#include <stdint.h>

/*
 * Exact Algorithm-1 pass over order[0:n_order]: every update sees the
 * state left by the previous one.  Assumes distinct minor indices within a
 * major vector (canonical compressed storage), as the reference's fancy +=
 * does.
 */
void syscd_exact_pass(
    const int64_t *indptr, const int64_t *indices, const double *data,
    const double *target, const double *inv_denom, double nlam,
    double *coef, double *shared, const int64_t *order, int64_t n_order)
{
    for (int64_t k = 0; k < n_order; ++k) {
        const int64_t j = order[k];
        const int64_t lo = indptr[j];
        const int64_t hi = indptr[j + 1];
        double dot = 0.0;
        for (int64_t p = lo; p < hi; ++p) {
            const double prod = data[p] * shared[indices[p]];
            dot = (p == lo) ? prod : dot + prod;
        }
        const double delta = ((target[j] - dot) - nlam * coef[j]) * inv_denom[j];
        coef[j] += delta;
        for (int64_t p = lo; p < hi; ++p) {
            shared[indices[p]] += data[p] * delta;
        }
    }
}

/*
 * One thread's chunk of one merge period: buckets[0:n_buckets] in order,
 * each covering perm[edges[b]:edges[b+1]].  Within a bucket every inner
 * product reads the replica as of bucket start; the bucket's updates are
 * applied after all of its dots.  `dots` holds at least one bucket width.
 *
 * The dot of one coordinate is the difference of two running prefix sums
 * over the whole bucket, exactly as bucket_pass_numpy forms it from
 * np.cumsum, not a fresh per-coordinate sum.
 */
void syscd_bucket_chunk(
    const int64_t *indptr, const int64_t *indices, const double *data,
    const double *target, const double *inv_denom, double nlam,
    double *replica, double *dots,
    double *coef, const int64_t *perm, const int64_t *edges,
    const int64_t *buckets, int64_t n_buckets)
{
    for (int64_t c = 0; c < n_buckets; ++c) {
        const int64_t b = buckets[c];
        const int64_t first = edges[b];
        const int64_t width = edges[b + 1] - first;
        const int64_t *coords = perm + first;

        double acc = 0.0;
        int seeded = 0;
        for (int64_t s = 0; s < width; ++s) {
            const int64_t j = coords[s];
            const double start = acc;
            for (int64_t p = indptr[j]; p < indptr[j + 1]; ++p) {
                const double prod = data[p] * replica[indices[p]];
                acc = seeded ? acc + prod : prod;
                seeded = 1;
            }
            dots[s] = acc - start;
        }

        for (int64_t s = 0; s < width; ++s) {
            const int64_t j = coords[s];
            const double delta =
                ((target[j] - dots[s]) - nlam * coef[j]) * inv_denom[j];
            coef[j] += delta;
            for (int64_t p = indptr[j]; p < indptr[j + 1]; ++p) {
                replica[indices[p]] += data[p] * delta;
            }
        }
    }
}
