/* Compiled twins of kernels.pure.count_closing_pairs and
 * kernels.pure.edges_symmetric, the two kernels that read adjacency
 * lists, written by hand against the CPython API.
 *
 * count_closing_pairs: for row i the pairs it may close are the
 * neighbours of ids[i] above ids[i] that are also later candidates, so
 * the row costs min(|neighbours above ids[i]|, |later candidates|)
 * searches: the shorter side is walked and each of its elements is
 * binary-searched in the longer side from a cursor that only moves
 * forward (adaptive sorted-set intersection).  The ids are converted
 * once per call; each adjacency list is read in place and only the
 * items a search probes are converted, so a hub's adjacency is never
 * copied.
 *
 * edges_symmetric: one pass over the vertices in ascending id order,
 * with a cursor into each vertex's down-prefix (its neighbours below
 * its own id); see the comment above it.
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

/* edges_symmetric(ids, rows).  Every up-edge (v, w), v < w, must be
 * the next unmatched entry of w's down-prefix, and walking v's up-edges
 * advances w's cursor.  Vertices are walked in ascending order, so the
 * up-edges into w arrive in ascending order of v: once the walk reaches
 * w, its cursor must sit at the end of its down-prefix.  Then every
 * up-edge has its reverse, every down-edge was matched by one, and each
 * down-prefix is strictly ascending; the walk checks that each up part
 * is strictly ascending above its vertex (so no self-loop) and that
 * each up neighbour is a vertex.  No up/down count is needed.
 *
 * The ids are converted once into `ids`, every down-prefix once into
 * one buffer `down`: vertex i's prefix ends at end[i] and starts at
 * end[i - 1], and cur[i] is its cursor.  A prefix is the entries before
 * the first one not below the vertex, found by bisecting the row (on an
 * unsorted row that may be anything, and the walk then fails), so the
 * buffer holds exactly the down entries: 8 bytes per edge plus 24 per
 * vertex.  Up parts are read in place. */

/* The walk, once ids, end and the size of down are known.  Returns 1
 * when symmetric, 0 when not, -1 with an exception set by item_id. */
static int
walk_symmetric(PyObject **rows, Py_ssize_t n, const uint64_t *ids,
               uint64_t *down, const Py_ssize_t *end, Py_ssize_t *cur)
{
    Py_ssize_t i, k, len, lo;
    PyObject **items;
    uint64_t vid, prev, y;

    for (i = 0; i < n; i++) {
        items = PySequence_Fast_ITEMS(rows[i]);
        cur[i] = i > 0 ? end[i - 1] : 0;
        for (k = cur[i]; k < end[i]; k++) {
            if (item_id(items[k - cur[i]], &down[k]) < 0)
                return -1;
        }
    }
    for (i = 0; i < n; i++) {
        if (cur[i] != end[i])
            return 0;  /* a down-edge whose reverse never came */
        items = PySequence_Fast_ITEMS(rows[i]);
        len = PySequence_Fast_GET_SIZE(rows[i]);
        vid = prev = ids[i];
        lo = i + 1;
        for (k = end[i] - (i > 0 ? end[i - 1] : 0); k < len; k++) {
            if (item_id(items[k], &y) < 0)
                return -1;
            if (y <= prev)
                return 0;  /* a self-loop, or not strictly ascending */
            prev = y;
            lo = bisect_ids(ids, lo, n, y);
            if (lo == n || ids[lo] != y)
                return 0;  /* not a vertex */
            if (cur[lo] == end[lo] || down[cur[lo]] != vid)
                return 0;  /* no reverse edge */
            cur[lo]++;
        }
    }
    return 1;
}

PyDoc_STRVAR(edges_symmetric_doc,
"edges_symmetric(ids, rows)\n--\n\n"
"See kernels.pure.edges_symmetric.  An id or neighbour outside\n"
"[0, 2**64) makes the answer False; a non-int id, a row that is not a\n"
"list or tuple, or a non-int neighbour it reads raises TypeError,\n"
"and rows of another length than ids ValueError.");

static PyObject *
edges_symmetric(PyObject *Py_UNUSED(module), PyObject *const *args,
                Py_ssize_t nargs)
{
    PyObject *ids_seq = NULL, *rows_seq = NULL, *result = NULL, *row;
    PyObject **ids_items, **rows;
    uint64_t *ids = NULL, *down = NULL;
    Py_ssize_t *end = NULL, *cur = NULL;
    Py_ssize_t n, i, k, total = 0;
    int ok;

    if (nargs != 2) {
        PyErr_Format(PyExc_TypeError,
                     "edges_symmetric expected 2 arguments, got %zd", nargs);
        return NULL;
    }
    ids_seq = PySequence_Fast(args[0], "ids must be a sequence");
    if (ids_seq == NULL)
        goto done;
    rows_seq = PySequence_Fast(args[1], "rows must be a sequence");
    if (rows_seq == NULL)
        goto done;
    n = PySequence_Fast_GET_SIZE(ids_seq);
    if (PySequence_Fast_GET_SIZE(rows_seq) != n) {
        PyErr_SetString(PyExc_ValueError,
                        "ids and rows differ in length");
        goto done;
    }
    ids_items = PySequence_Fast_ITEMS(ids_seq);
    rows = PySequence_Fast_ITEMS(rows_seq);
    /* type checks first, so a caller error is reported whatever the
     * data; nothing below runs python code, so the rows stay as read */
    for (i = 0; i < n; i++) {
        if (!PyLong_Check(ids_items[i])) {
            PyErr_SetString(PyExc_TypeError, "ids must be ints");
            goto done;
        }
        row = rows[i];
        if (!PyList_Check(row) && !PyTuple_Check(row)) {
            PyErr_SetString(PyExc_TypeError,
                            "rows must be lists or tuples");
            goto done;
        }
    }
    ids = PyMem_New(uint64_t, n);
    end = PyMem_New(Py_ssize_t, n);
    cur = PyMem_New(Py_ssize_t, n);
    if (n > 0 && (ids == NULL || end == NULL || cur == NULL)) {
        PyErr_NoMemory();
        goto done;
    }
    for (i = 0; i < n; i++) {
        if (item_id(ids_items[i], &ids[i]) < 0)
            goto bad_id;
        if (i > 0 && ids[i] <= ids[i - 1]) {
            ok = 0;
            goto answer;
        }
        row = rows[i];
        k = bisect_items(PySequence_Fast_ITEMS(row), 0,
                         PySequence_Fast_GET_SIZE(row), ids[i], 0);
        if (k < 0)
            goto bad_id;
        total += k;
        end[i] = total;
    }
    down = PyMem_New(uint64_t, total);
    if (total > 0 && down == NULL) {
        PyErr_NoMemory();
        goto done;
    }
    ok = walk_symmetric(rows, n, ids, down, end, cur);
    if (ok < 0)
        goto bad_id;
answer:
    result = PyBool_FromLong(ok);
    goto done;
bad_id:
    /* a negative id or one >= 2**64 is no vertex */
    if (PyErr_ExceptionMatches(PyExc_OverflowError)) {
        PyErr_Clear();
        result = PyBool_FromLong(0);
    }
done:
    PyMem_Free(down);
    PyMem_Free(cur);
    PyMem_Free(end);
    PyMem_Free(ids);
    Py_XDECREF(rows_seq);
    Py_XDECREF(ids_seq);
    return result;
}

static PyMethodDef pairs_methods[] = {
    {"count_closing_pairs", (PyCFunction)(void (*)(void))count_closing_pairs,
     METH_FASTCALL,
     count_closing_pairs_doc},
    {"edges_symmetric", (PyCFunction)(void (*)(void))edges_symmetric,
     METH_FASTCALL,
     edges_symmetric_doc},
    {NULL, NULL, 0, NULL}
};

static struct PyModuleDef pairs_module = {
    PyModuleDef_HEAD_INIT,
    "_pairs",
    "Compiled twins of kernels.pure.count_closing_pairs and\n"
    "kernels.pure.edges_symmetric.",
    -1,
    pairs_methods
};

PyMODINIT_FUNC
PyInit__pairs(void)
{
    return PyModule_Create(&pairs_module);
}
