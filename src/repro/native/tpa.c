/*
 * One epoch of Algorithm 2 (TPA-SCD) for ridge regression, in float32: the
 * compiled twin of repro.gpu.engine.reference_epoch with RidgePrimalRule /
 * RidgeDualRule, which it replays bit for bit.
 *
 * The epoch runs perm[0:n_perm] in waves of wave_size thread blocks.  Every
 * block of a wave computes its inner product against the shared vector as
 * it stood when the wave was scheduled; then the wave's updates are applied.
 * Bit identity with the numpy reference rests on these rules:
 *
 *   - lane u of a block accumulates elements u, u + n_threads, ... in order
 *     into a lane that starts at +0.0f (np.zeros + np.add.at), never seeded
 *     with the first product: 0.0f + -0.0f is +0.0f;
 *   - the lanes are combined by the shared-memory tree reduction,
 *     lane[u] += lane[u + v] for v = n_threads/2, ..., 1.  A lane is never
 *     -0.0f (IEEE round-to-nearest gives -0 only for -0 + -0), so adding
 *     one of the +0.0f lanes past a block's length is exact and skipped;
 *   - deltas use the reference's association, ((dot - nlam*w) * inv) or
 *     (((lam*y - dot) - nlam*w) * inv), with no fused multiply-add, hence
 *     -ffp-contract=off and no -ffast-math;
 *   - weights take numpy's buffered `weights[coords] += deltas`: every
 *     delta reads the wave-start weight, and a coordinate repeated within
 *     a wave keeps its last update;
 *   - shared-vector contributions data[p] * delta are added in flat order,
 *     as np.add.at applies them.
 *
 * Coordinates are read through perm + indptr directly, so no per-epoch
 * gather is needed.  Every pointer is validated by the Python binding
 * (dtype, contiguity, length, index bounds) before it reaches this file.
 */

#include <stdint.h>

/* stats[] slots, filled only when the caller observes the epoch */
enum {
    ST_WAVES, ST_BLOCKS, ST_NNZ, ST_CONFLICTS, ST_MIN_NNZ, ST_MAX_NNZ,
    ST_LANES_ACTIVE, ST_COUNT
};

/* One block's strided partials and tree reduction; `lanes` holds n_threads. */
static float block_dot(
    const int64_t *indices, const float *data, const float *y,
    const float *shared, int64_t lo, int64_t hi, int64_t n_threads,
    float *lanes)
{
    const int64_t len = hi - lo;
    if (len <= 0) {
        return 0.0f;
    }
    const int64_t active = len < n_threads ? len : n_threads;
    for (int64_t u = 0; u < active; ++u) {
        lanes[u] = 0.0f;
    }
    int64_t u = 0;
    for (int64_t p = lo; p < hi; ++p) {
        const int64_t i = indices[p];
        const float g = y ? y[i] - shared[i] : shared[i];
        lanes[u] += data[p] * g;
        if (++u == n_threads) {
            u = 0;
        }
    }
    /* levels whose source lanes all lie past `active` add +0.0f: skip them;
     * the first level that remains reads lanes [v, active) only */
    int64_t v = n_threads >> 1;
    while (v >= active) {
        v >>= 1;
    }
    if (v) {
        for (int64_t t = 0; t < active - v; ++t) {
            lanes[t] += lanes[t + v];
        }
        v >>= 1;
    }
    for (; v; v >>= 1) {
        for (int64_t t = 0; t < v; ++t) {
            lanes[t] += lanes[t + v];
        }
    }
    return lanes[0];
}

/* The profiler's and tracer's view of waves [perm, perm + n): block and lane
 * counts, and same-wave writes to an already written shared element.
 * `marks` (one byte per shared element, all zero) is left all zero. */
static void observe_wave(
    const int64_t *indptr, const int64_t *indices, const int64_t *perm,
    int64_t n, int64_t n_threads, int64_t *stats, uint8_t *marks)
{
    stats[ST_WAVES] += 1;
    stats[ST_BLOCKS] += n;
    for (int64_t k = 0; k < n; ++k) {
        const int64_t lo = indptr[perm[k]];
        const int64_t hi = indptr[perm[k] + 1];
        const int64_t len = hi > lo ? hi - lo : 0;
        stats[ST_NNZ] += len;
        stats[ST_LANES_ACTIVE] += len < n_threads ? len : n_threads;
        if (len < stats[ST_MIN_NNZ]) {
            stats[ST_MIN_NNZ] = len;
        }
        if (len > stats[ST_MAX_NNZ]) {
            stats[ST_MAX_NNZ] = len;
        }
        for (int64_t p = lo; p < hi; ++p) {
            if (marks[indices[p]]) {
                stats[ST_CONFLICTS] += 1;
            } else {
                marks[indices[p]] = 1;
            }
        }
    }
    for (int64_t k = 0; k < n; ++k) {
        for (int64_t p = indptr[perm[k]]; p < indptr[perm[k] + 1]; ++p) {
            marks[indices[p]] = 0;
        }
    }
}

/*
 * Primal (dual == 0): coordinates are columns, dots read y - shared over the
 * minor axis, delta = (dot - nlam*w) * inv_denom.  Dual: coordinates are
 * rows, dots read shared, delta = ((lam*y[j] - dot) - nlam*w) * inv_denom.
 *
 * `scratch` holds n_threads + 2 * min(wave_size, n_perm) floats.  `stats`
 * (ST_COUNT slots) and `marks` are NULL unless the epoch is observed;
 * observing never changes the arithmetic.
 */
void tpa_epoch(
    const int64_t *indptr, const int64_t *indices, const float *data,
    const float *y, const float *inv_denom, float lam, float nlam,
    float *weights, float *shared, const int64_t *perm,
    int64_t n_perm, int64_t wave_size, int64_t n_threads, int64_t dual,
    float *scratch, int64_t *stats, uint8_t *marks)
{
    float *lanes = scratch;
    float *deltas = scratch + n_threads;
    float *updated = deltas + (wave_size < n_perm ? wave_size : n_perm);
    const float *residual_y = dual ? 0 : y;

    if (stats) {
        for (int k = 0; k < ST_COUNT; ++k) {
            stats[k] = 0;
        }
        stats[ST_MIN_NNZ] = INT64_MAX;
    }
    for (int64_t s = 0; s < n_perm; s += wave_size) {
        const int64_t n = n_perm - s < wave_size ? n_perm - s : wave_size;
        const int64_t *coords = perm + s;
        if (stats) {
            observe_wave(indptr, indices, coords, n, n_threads, stats, marks);
        }
        for (int64_t k = 0; k < n; ++k) {
            const int64_t j = coords[k];
            deltas[k] = block_dot(
                indices, data, residual_y, shared, indptr[j], indptr[j + 1],
                n_threads, lanes);
        }
        for (int64_t k = 0; k < n; ++k) {
            const int64_t j = coords[k];
            const float dot = deltas[k];
            const float num = dual ? (lam * y[j] - dot) - nlam * weights[j]
                                   : dot - nlam * weights[j];
            deltas[k] = num * inv_denom[j];
            updated[k] = weights[j] + deltas[k];
        }
        for (int64_t k = 0; k < n; ++k) {
            const int64_t j = coords[k];
            const float delta = deltas[k];
            weights[j] = updated[k];
            for (int64_t p = indptr[j]; p < indptr[j + 1]; ++p) {
                shared[indices[p]] += data[p] * delta;
            }
        }
    }
}
