/*
 * The two float64 products of a compressed sparse matrix: the compiled twins
 * of repro.sparse.matrix._CompressedBase._scatter_product and
 * _gather_product, which they replay bit for bit; and two row passes over a
 * CSR matrix for repro.objectives.ridge that stand in for them.  "Major" is
 * the compressed axis (columns of CSC, rows of CSR): segment j owns the
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
 *     prefix - prefix, which is NaN after an infinite prefix, as in numpy;
 *   - sparse_row_sums (a CSR stand-in for CSC matvec): row i's sum of
 *     data[p] * x[indices[p]] from a fresh +0.0, in row order.  The CSC
 *     scatter adds the same products onto out[i] = +0.0 in column order,
 *     so the bits agree whenever row i's column indices do not decrease;
 *   - sparse_gap_pass (the primal gap's two products in one read of a CSR
 *     matrix): per row i, w[i] as in sparse_row_sums, then alpha[i] =
 *     (y[i] - w[i]) / n, then data[p] * alpha[i] scattered onto wbar in
 *     flat order: the bits of CSC matvec, of numpy's (y - w) / n and of
 *     CSR rmatvec.
 *
 * And the sort every compressed matrix is built with
 * (repro.sparse.ops._stable_order): sparse_counting_order, the stable
 * counting-sort order of nnz int64 keys in [0, n_keys), exactly
 * np.argsort(keys, kind="stable"), in O(nnz + n_keys).  Given a second,
 * minor key it sorts by the minor key first and then, stably, by the
 * major one (an LSD radix sort), which is np.lexsort((minor, major)).
 *
 * The row passes return SPARSE_ROW_ORDER, which is not a defect, when a
 * row's column indices decrease (after checking every row for the defects
 * below); the caller then runs the two products instead.  Every
 * constructor in the package builds rows in column order (a transpose of
 * CSC, from_coo, the generators).
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
 * binding owns and discards on any non-zero status.  The sort checks every
 * key against its n_keys the same way, before it writes any position.
 */

#include <stddef.h>
#include <stdint.h>

/* status codes, mirrored by repro.sparse.ops._NATIVE_DEFECTS */
enum {
    SPARSE_OK,
    SPARSE_INDPTR_START,  /* indptr[0] != 0 */
    SPARSE_INDPTR_ORDER,  /* indptr[j + 1] < indptr[j] */
    SPARSE_INDPTR_BOUND,  /* indptr[j + 1] > nnz */
    SPARSE_INDPTR_END,    /* indptr[n_major] < nnz */
    SPARSE_INDEX_BOUND,   /* indices[p] outside [0, n_minor), or a sort
                           * key outside [0, n_keys) */
    SPARSE_ROW_ORDER      /* row passes only, not a defect: a row's column
                           * indices decrease (repro.objectives.ridge) */
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

/* The row passes over CSR: w[j] is row j's sum of data[p] * x[indices[p]]
 * from a fresh +0.0, in row order; with y (NULL for sums alone), alpha[j] =
 * (y[j] - w[j]) / n, and data[p] * alpha[j] scattered onto wbar once row
 * j's sum is complete.  *nan_seen says whether a product or an alpha was
 * NaN.  A row whose indices decrease is noted and the walk goes on, so
 * that a defect further on is still the status returned. */
static ALWAYS_INLINE int64_t row_pass(
    const int64_t *indptr, const int64_t *indices, const double *data,
    int64_t n_major, int64_t n_minor, int64_t nnz, const double *x,
    const double *y, double n, double *w, double *alpha, double *wbar,
    int *nan_seen, const int nan_order)
{
    int seen = 0, unsorted = 0;
    if (indptr[0] != 0)
        return SPARSE_INDPTR_START;
    for (int64_t j = 0; j < n_major; ++j) {
        const int64_t lo = indptr[j], hi = indptr[j + 1];
        const int64_t status = segment_status(lo, hi, nnz);
        if (status != SPARSE_OK)
            return status;
        double acc = 0.0;
        uint64_t prev = 0;
        for (int64_t p = lo; p < hi; ++p) {
            const uint64_t i = (uint64_t)indices[p];
            if (i >= (uint64_t)n_minor)
                return SPARSE_INDEX_BOUND;
            unsorted |= i < prev;
            prev = i;
            const double v = NP(data[p], data[p] * x[i]);
            seen |= v != v;
            acc = NP(acc, acc + v);
        }
        w[j] = acc;
        if (!y)
            continue;
        const double a = NP(y[j], y[j] - acc) / n;
        seen |= a != a;
        alpha[j] = a;
        /* row j's indices were bounds-checked by its sum */
        for (int64_t p = lo; p < hi; ++p) {
            const int64_t i = indices[p];
            const double v = NP(data[p], data[p] * a);
            seen |= v != v;
            wbar[i] = NP(wbar[i], wbar[i] + v);
        }
    }
    *nan_seen = seen;
    if (indptr[n_major] != nnz)
        return SPARSE_INDPTR_END;
    return unsorted ? SPARSE_ROW_ORDER : SPARSE_OK;
}

/* Two NaN operands meet only in a NaN product or in an add of one, so the
 * NaN-ordered pass reruns (and rewrites out) only after a NaN product. */
int64_t sparse_row_sums(
    const int64_t *indptr, const int64_t *indices, const double *data,
    int64_t n_major, int64_t n_minor, int64_t nnz, const double *x,
    double *out)
{
    int nan_seen;
    const int64_t status = row_pass(
        indptr, indices, data, n_major, n_minor, nnz, x, NULL, 0.0, out,
        NULL, NULL, &nan_seen, 0);
    if (status != SPARSE_OK || !nan_seen)
        return status;
    return row_pass(
        indptr, indices, data, n_major, n_minor, nnz, x, NULL, 0.0, out,
        NULL, NULL, &nan_seen, 1);
}

/* w = A beta, alpha = (y - w) / n and wbar = A^T alpha over one read of a
 * CSR matrix.  A NaN meets another NaN only after a NaN product or a NaN
 * alpha; then wbar is cleared and the NaN-ordered pass rewrites all three. */
int64_t sparse_gap_pass(
    const int64_t *indptr, const int64_t *indices, const double *data,
    int64_t n_major, int64_t n_minor, int64_t nnz, const double *beta,
    const double *y, double n, double *w, double *alpha, double *wbar)
{
    int nan_seen;
    const int64_t status = row_pass(
        indptr, indices, data, n_major, n_minor, nnz, beta, y, n, w, alpha,
        wbar, &nan_seen, 0);
    if (status != SPARSE_OK || !nan_seen)
        return status;
    for (int64_t i = 0; i < n_minor; ++i)
        wbar[i] = 0.0;
    return row_pass(
        indptr, indices, data, n_major, n_minor, nnz, beta, y, n, w, alpha,
        wbar, &nan_seen, 1);
}

/* One stable counting pass: the entries within[0], within[1], ... (0, 1,
 * ... when within is NULL) go to order grouped by key, in key order, and in
 * their order in `within` inside a group.  start holds n_keys + 1 counts.
 * Every key is checked in the counting loop, before order is written. */
static int64_t counting_pass(
    const int64_t *keys, int64_t n_keys, const int64_t *within, int64_t nnz,
    int64_t *start, int64_t *order)
{
    for (int64_t k = 0; k <= n_keys; ++k)
        start[k] = 0;
    for (int64_t p = 0; p < nnz; ++p) {
        const uint64_t key = (uint64_t)keys[p];
        if (key >= (uint64_t)n_keys)
            return SPARSE_INDEX_BOUND;
        ++start[key + 1];
    }
    /* start[k] = the first slot of key k; start[n_keys] is not read */
    for (int64_t k = 1; k < n_keys; ++k)
        start[k] += start[k - 1];
    for (int64_t r = 0; r < nnz; ++r) {
        const int64_t p = within ? within[r] : r;
        order[start[keys[p]]++] = p;
    }
    return SPARSE_OK;
}

/* order = np.argsort(keys, kind="stable") for keys in [0, n_keys); with a
 * minor key (non-NULL), np.lexsort((minor, keys)): a pass by minor into
 * scratch, then a stable pass by keys over scratch into order.  start holds
 * max(n_keys, n_minor) + 1 counts; scratch (nnz) is unused without minor. */
int64_t sparse_counting_order(
    const int64_t *keys, int64_t n_keys, const int64_t *minor,
    int64_t n_minor, int64_t nnz, int64_t *start, int64_t *scratch,
    int64_t *order)
{
    if (!minor)
        return counting_pass(keys, n_keys, NULL, nnz, start, order);
    const int64_t status = counting_pass(minor, n_minor, NULL, nnz, start, scratch);
    if (status != SPARSE_OK)
        return status;
    return counting_pass(keys, n_keys, scratch, nnz, start, order);
}
