/* Compiled twin of kernels.pure.count_closing_pairs, written by hand
 * against the CPython API (no Cython needed to change it).
 *
 * For row i the pairs it may close are the neighbours of ids[i] above
 * ids[i] that are also later candidates, so the row costs
 * min(|neighbours above ids[i]|, |later candidates|) searches: the
 * shorter side is walked and each of its elements is binary-searched
 * in the longer side from a cursor that only moves forward (adaptive
 * sorted-set intersection).  The ids are converted once per
 * call; each adjacency list is read in place and only the items a
 * search probes are converted, so a hub's adjacency is never copied.
 */

#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <stdint.h>

/* items[k] as an id.  Returns -1 with OverflowError (negative or
 * >= 2**64) or TypeError (not an int) set. */
static inline int
item_id(PyObject *item, uint64_t *out)
{
    unsigned long long v = PyLong_AsUnsignedLongLong(item);
    if (v == (unsigned long long)-1 && PyErr_Occurred())
        return -1;
    *out = (uint64_t)v;
    return 0;
}

/* First k in [lo, n) with ids[k] >= x, or n. */
static Py_ssize_t
bisect_ids(const uint64_t *ids, Py_ssize_t lo, Py_ssize_t n, uint64_t x)
{
    Py_ssize_t hi = n;
    while (lo < hi) {
        Py_ssize_t mid = lo + ((hi - lo) >> 1);
        if (ids[mid] < x)
            lo = mid + 1;
        else
            hi = mid;
    }
    return lo;
}

/* The same search over python ints, with `strict` asking for the first
 * item > x instead of >= x.  Returns -1 with an exception set. */
static Py_ssize_t
bisect_items(PyObject **items, Py_ssize_t lo, Py_ssize_t n, uint64_t x,
             int strict)
{
    Py_ssize_t hi = n;
    uint64_t y;
    while (lo < hi) {
        Py_ssize_t mid = lo + ((hi - lo) >> 1);
        if (item_id(items[mid], &y) < 0)
            return -1;
        if (strict ? y > x : y >= x)
            hi = mid;
        else
            lo = mid + 1;
    }
    return lo;
}

/* Pairs closed by row i: ids[j] in adj for j > i.  adj is sorted, ids
 * strictly ascending.  Returns -1 with an exception set. */
static Py_ssize_t
count_row(const uint64_t *ids, Py_ssize_t n, Py_ssize_t i,
          PyObject **adj, Py_ssize_t len)
{
    Py_ssize_t lo = bisect_items(adj, 0, len, ids[i], 1);
    Py_ssize_t found = 0, k, cur;
    uint64_t y;
    if (lo < 0)
        return -1;
    if (len - lo <= n - i - 1) {
        /* walk the neighbours above ids[i], search the candidates */
        cur = i + 1;
        for (k = lo; k < len && cur < n; k++) {
            if (item_id(adj[k], &y) < 0)
                return -1;
            cur = bisect_ids(ids, cur, n, y);
            if (cur < n && ids[cur] == y) {
                found++;
                cur++;
            }
        }
    }
    else {
        /* walk the candidates, search the neighbours */
        cur = lo;
        for (k = i + 1; k < n && cur < len; k++) {
            cur = bisect_items(adj, cur, len, ids[k], 0);
            if (cur < 0)
                return -1;
            if (cur < len) {
                if (item_id(adj[cur], &y) < 0)
                    return -1;
                if (y == ids[k]) {
                    found++;
                    cur++;
                }
            }
        }
    }
    return found;
}

PyDoc_STRVAR(count_closing_pairs_doc,
"count_closing_pairs(ids, adj_lists)\n--\n\n"
"See kernels.pure.count_closing_pairs.  Ids and neighbours must be ints\n"
"in [0, 2**64); a probed one outside raises OverflowError, a non-int\n"
"TypeError.");

static PyObject *
count_closing_pairs(PyObject *Py_UNUSED(module), PyObject *const *args,
                    Py_ssize_t nargs)
{
    PyObject *ids_seq = NULL, *adj_seq = NULL, *row = NULL;
    uint64_t *ids = NULL;
    Py_ssize_t n, m, i, found, total = 0;

    if (nargs != 2) {
        PyErr_Format(PyExc_TypeError,
                     "count_closing_pairs expected 2 arguments, got %zd",
                     nargs);
        return NULL;
    }
    ids_seq = PySequence_Fast(args[0], "ids must be a sequence");
    if (ids_seq == NULL)
        goto fail;
    adj_seq = PySequence_Fast(args[1], "adj_lists must be a sequence");
    if (adj_seq == NULL)
        goto fail;
    n = PySequence_Fast_GET_SIZE(ids_seq);
    m = PySequence_Fast_GET_SIZE(adj_seq);
    if (m > n - 1)
        m = n - 1;  /* rows past the last candidate close nothing */
    if (m <= 0)
        goto done;
    ids = PyMem_New(uint64_t, n);
    if (ids == NULL) {
        PyErr_NoMemory();
        goto fail;
    }
    for (i = 0; i < n; i++) {
        if (item_id(PySequence_Fast_GET_ITEM(ids_seq, i), &ids[i]) < 0)
            goto fail;
    }
    /* the size is read again each row: turning a row that is neither a
     * list nor a tuple into one runs python code, which may shrink a
     * list passed as adj_lists */
    for (i = 0; i < m && i < PySequence_Fast_GET_SIZE(adj_seq); i++) {
        row = PySequence_Fast(PySequence_Fast_GET_ITEM(adj_seq, i),
                              "adj_lists items must be sequences");
        if (row == NULL)
            goto fail;
        found = count_row(ids, n, i, PySequence_Fast_ITEMS(row),
                          PySequence_Fast_GET_SIZE(row));
        Py_CLEAR(row);
        if (found < 0)
            goto fail;
        total += found;
    }
done:
    PyMem_Free(ids);
    Py_XDECREF(adj_seq);
    Py_XDECREF(ids_seq);
    return PyLong_FromSsize_t(total);
fail:
    PyMem_Free(ids);
    Py_XDECREF(adj_seq);
    Py_XDECREF(ids_seq);
    return NULL;
}

static PyMethodDef pairs_methods[] = {
    {"count_closing_pairs", (PyCFunction)(void (*)(void))count_closing_pairs,
     METH_FASTCALL,
     count_closing_pairs_doc},
    {NULL, NULL, 0, NULL}
};

static struct PyModuleDef pairs_module = {
    PyModuleDef_HEAD_INIT,
    "_pairs",
    "Compiled twin of kernels.pure.count_closing_pairs.",
    -1,
    pairs_methods
};

PyMODINIT_FUNC
PyInit__pairs(void)
{
    return PyModule_Create(&pairs_module);
}
