/*
 * The two float64 products of a compressed sparse matrix: the compiled twins
 * of repro.sparse.matrix._CompressedBase._scatter_product and
 * _gather_product, which they replay bit for bit.  "Major" is the
 * compressed axis (columns of CSC, rows of CSR): segment j owns the
 * nonzeros indptr[j] .. indptr[j + 1] - 1, whose indices address the minor
 * axis.
 *
 *   - sparse_scatter (CSC matvec, CSR rmatvec): out[indices[p]] +=
 *     data[p] * x[j], in flat order p = 0, 1, ..., nnz - 1, exactly as
 *     np.add.at applies data * np.repeat(x, lengths) onto np.zeros;
 *   - sparse_gather (CSC rmatvec, CSR matvec): segment_sums of the products
 *     data[p] * x[indices[p]], i.e. ONE float64 running prefix over all
 *     nnz in flat order, taken as np.cumsum does (prefix[1] = v[0], not
 *     0.0 + v[0]: the two differ on -0.0), and each segment's result
 *     prefix[hi] - prefix[lo].  An empty segment is therefore
 *     prefix - prefix, which is NaN after an infinite prefix, as in numpy.
 *
 * No fused multiply-add and no reassociation (-ffp-contract=off, no
 * -ffast-math).  When both operands of a numpy add, subtract or multiply
 * are NaN, the result carries the first operand's payload; C leaves the
 * operand order of a commutative operation to the compiler.  Restating
 * numpy's choice on every operation (np_first) doubles the cost of a pass,
 * so each product runs a plain pass first and repeats it NaN-ordered only
 * when that pass could have met two NaN operands.
 *
 * The loops check their own bounds instead of trusting a validated matrix:
 * indptr[0] == 0, indptr[j] <= indptr[j + 1] <= nnz, indptr[n_major] ==
 * nnz, and every index < n_minor as an unsigned compare (so a negative
 * index is out of range too).  A defect returns one of the SPARSE_* codes
 * below before the offending element is read; `out` is a fresh array the
 * binding owns and discards on any non-zero status.
 */

#include <stdint.h>

/* status codes, mirrored by repro.sparse.matrix._NATIVE_DEFECTS */
enum {
    SPARSE_OK,
    SPARSE_INDPTR_START,  /* indptr[0] != 0 */
    SPARSE_INDPTR_ORDER,  /* indptr[j + 1] < indptr[j] */
    SPARSE_INDPTR_BOUND,  /* indptr[j + 1] > nnz */
    SPARSE_INDPTR_END,    /* indptr[n_major] < nnz */
    SPARSE_INDEX_BOUND    /* indices[p] outside [0, n_minor) */
};

#if defined(__GNUC__)
#define ALWAYS_INLINE inline __attribute__((always_inline))
#else
#define ALWAYS_INLINE inline
#endif

/* r = a op b with numpy's NaN payload: a's whenever a is NaN (a + a is a,
 * quieted). */
static inline double np_first(double a, double r)
{
    return r != r && a != a ? a + a : r;
}

/* np_first in the NaN-ordered pass, plain r in the fast one */
#define NP(a, r) (nan_order ? np_first((a), (r)) : (r))

/* Check segment j's bounds against the previous end and nnz. */
static int64_t segment_status(int64_t lo, int64_t hi, int64_t nnz)
{
    if (hi < lo)
        return SPARSE_INDPTR_ORDER;
    if (hi > nnz)
        return SPARSE_INDPTR_BOUND;
    return SPARSE_OK;
}

static ALWAYS_INLINE int64_t scatter_pass(
    const int64_t *indptr, const int64_t *indices, const double *data,
    int64_t n_major, int64_t n_minor, int64_t nnz, const double *x,
    double *out, int *nan_seen, const int nan_order)
{
    int seen = 0;
    if (indptr[0] != 0)
        return SPARSE_INDPTR_START;
    for (int64_t j = 0; j < n_major; ++j) {
        const int64_t lo = indptr[j], hi = indptr[j + 1];
        const int64_t status = segment_status(lo, hi, nnz);
        if (status != SPARSE_OK)
            return status;
        const double xj = x[j];
        for (int64_t p = lo; p < hi; ++p) {
            const uint64_t i = (uint64_t)indices[p];
            if (i >= (uint64_t)n_minor)
                return SPARSE_INDEX_BOUND;
            const double v = NP(data[p], data[p] * xj);
            seen |= v != v;
            out[i] = NP(out[i], out[i] + v);
        }
    }
    *nan_seen = seen;
    return indptr[n_major] == nnz ? SPARSE_OK : SPARSE_INDPTR_END;
}

/* Two NaN operands meet only in a NaN product or in an add of a NaN
 * product, so the fast pass needs the NaN-ordered one only if it formed a
 * NaN product; then out is rebuilt. */
int64_t sparse_scatter(
    const int64_t *indptr, const int64_t *indices, const double *data,
    int64_t n_major, int64_t n_minor, int64_t nnz, const double *x,
    double *out)
{
    int nan_seen;
    const int64_t status = scatter_pass(
        indptr, indices, data, n_major, n_minor, nnz, x, out, &nan_seen, 0);
    if (status != SPARSE_OK || !nan_seen)
        return status;
    for (int64_t i = 0; i < n_minor; ++i)
        out[i] = 0.0;
    return scatter_pass(
        indptr, indices, data, n_major, n_minor, nnz, x, out, &nan_seen, 1);
}

static ALWAYS_INLINE int64_t gather_pass(
    const int64_t *indptr, const int64_t *indices, const double *data,
    int64_t n_major, int64_t n_minor, int64_t nnz, const double *x,
    double *out, double *last, const int nan_order)
{
    if (indptr[0] != 0)
        return SPARSE_INDPTR_START;
    double prefix = 0.0;
    for (int64_t j = 0; j < n_major; ++j) {
        const int64_t lo = indptr[j], hi = indptr[j + 1];
        const int64_t status = segment_status(lo, hi, nnz);
        if (status != SPARSE_OK)
            return status;
        const double start = prefix;
        for (int64_t p = lo; p < hi; ++p) {
            const uint64_t i = (uint64_t)indices[p];
            if (i >= (uint64_t)n_minor)
                return SPARSE_INDEX_BOUND;
            const double v = NP(data[p], data[p] * x[i]);
            prefix = p == 0 ? v : NP(prefix, prefix + v);
        }
        out[j] = NP(prefix, prefix - start);
    }
    *last = prefix;
    return indptr[n_major] == nnz ? SPARSE_OK : SPARSE_INDPTR_END;
}

/* Every product feeds the one prefix, every result is the difference of
 * two of its values, and a NaN prefix stays NaN, so the fast pass met a NaN
 * operand only if it ends on a NaN prefix; then the NaN-ordered pass
 * rewrites out. */
int64_t sparse_gather(
    const int64_t *indptr, const int64_t *indices, const double *data,
    int64_t n_major, int64_t n_minor, int64_t nnz, const double *x,
    double *out)
{
    double last;
    const int64_t status = gather_pass(
        indptr, indices, data, n_major, n_minor, nnz, x, out, &last, 0);
    if (status != SPARSE_OK || last == last)
        return status;
    return gather_pass(
        indptr, indices, data, n_major, n_minor, nnz, x, out, &last, 1);
}
