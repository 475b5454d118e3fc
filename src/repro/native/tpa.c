/*
 * One epoch of Algorithm 2 (TPA-SCD) in float32 for every coordinate rule of
 * repro.gpu: the compiled twin of repro.gpu.engine.reference_epoch, which it
 * replays bit for bit.  The rule is one of the RULE_* cases below; each
 * replays the numpy `deltas` of its Python class (RidgePrimalRule,
 * RidgeDualRule, ElasticNetPrimalRule, SvmDualRule), whose `native`
 * attribute names the case, the per-coordinate arrays (`vecs`) and the
 * scalars (`params`) it hands over, in the order listed at each case.
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
 *   - every update uses its numpy rule's association, with no fused
 *     multiply-add, hence -ffp-contract=off and no -ffast-math; np.sign,
 *     np.maximum and np.clip are restated with numpy's signed-zero and NaN
 *     results, not fmaxf/fminf/copysignf;
 *   - weights take numpy's buffered `weights[coords] += deltas`: every
 *     delta reads the wave-start weight, and a coordinate repeated within
 *     a wave keeps its last update;
 *   - shared-vector contributions data[p] * (delta * scale) are added in
 *     flat order, as np.add.at applies them.
 *
 * Coordinates are read through perm + indptr directly, so no per-epoch
 * gather is needed.  Every pointer is validated by the Python binding
 * (dtype, contiguity, length, index bounds) before it reaches this file.
 *
 * On a GPU, hundreds of resident thread blocks hide each other's memory
 * latency; here the blocks run one after another, so each would stall on
 * the head of its column or row.  The dot loop therefore prefetches the
 * indices and data of the block PREFETCH_AHEAD places further along perm
 * (across a wave boundary too), up to PREFETCH_SPAN elements: past those
 * the hardware prefetcher follows the stream.  A prefetch reads nothing
 * the arithmetic sees, so the bits are those of the loop without it.
 */

#include <math.h>
#include <stdint.h>

/* how many blocks ahead of the current one the dot loop prefetches, and
 * how many of that block's leading elements */
#define PREFETCH_AHEAD 4
#define PREFETCH_SPAN 64

#if defined(__GNUC__)
#define PREFETCH(addr) __builtin_prefetch(addr)
#else
#define PREFETCH(addr) ((void)(addr))
#endif

/* stats[] slots, filled only when the caller observes the epoch */
enum {
    ST_WAVES, ST_BLOCKS, ST_NNZ, ST_CONFLICTS, ST_MIN_NNZ, ST_MAX_NNZ,
    ST_LANES_ACTIVE, ST_COUNT
};

/* the coordinate rules, in the order of _NATIVE_RULES in repro/gpu/engine.py */
enum { RULE_RIDGE_PRIMAL, RULE_RIDGE_DUAL, RULE_ELASTIC_NET, RULE_SVM };

/* np.sign on float32: +0.0f for either zero, a NaN passes through */
static float np_sign(float x)
{
    return x > 0.0f ? 1.0f : x < 0.0f ? -1.0f : x == 0.0f ? 0.0f : x;
}

/* np.maximum(x, 0.0): +0.0f for either zero, a NaN passes through */
static float np_maximum0(float x)
{
    return x > 0.0f || x != x ? x : 0.0f;
}

/* np.clip(x, 0.0, 1.0): -0.0f stays -0.0f, a NaN passes through */
static float np_clip01(float x)
{
    return x < 0.0f ? 0.0f : x > 1.0f ? 1.0f : x;
}

/* Coordinate j's weight change from its inner product `dot` and wave-start
 * weight `w`; the shared-vector scale goes to *scale. */
static float rule_delta(
    int64_t rule, const float *const *vecs, const float *params, int64_t j,
    float dot, float w, float *scale)
{
    *scale = 1.0f;
    switch (rule) {
    case RULE_RIDGE_PRIMAL:
        /* vecs: inv_denom; params: nlam */
        return (dot - params[0] * w) * vecs[0][j];
    case RULE_RIDGE_DUAL:
        /* vecs: y, inv_denom; params: lam, nlam */
        return ((params[0] * vecs[0][j] - dot) - params[1] * w) * vecs[1][j];
    case RULE_ELASTIC_NET: {
        /* vecs: norms, inv_denom; params: inv_n, threshold */
        const float rho = (dot + vecs[0][j] * w) * params[0];
        const float shrunk = np_sign(rho) * np_maximum0(fabsf(rho) - params[1]);
        return shrunk * vecs[1][j] - w;
    }
    default: {
        /* RULE_SVM.  vecs: y, inv_norms, zero_norm, scale; params: lam_n */
        const float grad = params[0] * (1.0f - vecs[0][j] * dot) * vecs[1][j];
        const float unconstrained = (w + grad) + vecs[2][j] * ((1.0f - w) - grad);
        *scale = vecs[3][j];
        return np_clip01(unconstrained) - w;
    }
    }
}

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
    if (len <= n_threads) {
        /* one element per lane: the lane is 0.0f plus its only product */
        for (int64_t u = 0; u < len; ++u) {
            const int64_t i = indices[lo + u];
            const float g = y ? y[i] - shared[i] : shared[i];
            lanes[u] = 0.0f + data[lo + u] * g;
        }
    } else {
        for (int64_t u = 0; u < n_threads; ++u) {
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
        const int64_t len = hi - lo;
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
 * `y` is the label vector over the minor axis for residual rules (the dots
 * read y - shared) and NULL for rules whose dots read the shared vector.
 *
 * `scratch` holds n_threads + 2 * min(wave_size, n_perm) floats.  `stats`
 * (ST_COUNT slots) and `marks` are NULL unless the epoch is observed;
 * observing never changes the arithmetic.
 */
void tpa_epoch(
    const int64_t *indptr, const int64_t *indices, const float *data,
    const float *y, int64_t rule, const float *const *vecs, const float *params,
    float *weights, float *shared, const int64_t *perm,
    int64_t n_perm, int64_t wave_size, int64_t n_threads,
    float *scratch, int64_t *stats, uint8_t *marks)
{
    float *lanes = scratch;
    float *deltas = scratch + n_threads;
    float *updated = deltas + (wave_size < n_perm ? wave_size : n_perm);

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
            if (s + k + PREFETCH_AHEAD < n_perm) {
                /* 8 int64 indices or 16 float32 values to a 64-byte line.
                 * Inline on purpose: GCC 12 deletes the call to a static
                 * function whose only effect is a prefetch. */
                const int64_t ahead = coords[k + PREFETCH_AHEAD];
                const int64_t lo = indptr[ahead];
                int64_t span = indptr[ahead + 1] - lo;
                if (span > PREFETCH_SPAN) {
                    span = PREFETCH_SPAN;
                }
                for (int64_t q = 0; q < span; q += 8) {
                    PREFETCH(indices + lo + q);
                }
                for (int64_t q = 0; q < span; q += 16) {
                    PREFETCH(data + lo + q);
                }
            }
            const int64_t j = coords[k];
            deltas[k] = block_dot(
                indices, data, y, shared, indptr[j], indptr[j + 1], n_threads,
                lanes);
        }
        for (int64_t k = 0; k < n; ++k) {
            const int64_t j = coords[k];
            float scale;
            const float delta = rule_delta(
                rule, vecs, params, j, deltas[k], weights[j], &scale);
            updated[k] = weights[j] + delta;
            deltas[k] = delta * scale;
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
