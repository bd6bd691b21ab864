/* Compiled twins of kernels.pure.max_clique and
 * kernels.pure.maximal_cliques, written by hand against the CPython API.
 *
 * Same algorithms, visit order and tie-breaking as the pure twins, over
 * arrays of uint64_t words instead of python ints: a mask over n
 * vertices is nw = ceil(n / 64) words, bit j in word j / 64, and the
 * rows are one block of n * nw words.  Every buffer is sized from n, so
 * any width works.  Masks cross the boundary through int.to_bytes and
 * int.from_bytes in little-endian order, and the bytes are the words'
 * memory as is, so only little-endian targets build.
 *
 * Each search node takes one PyMem block for its own masks (and, in
 * max_clique, its colour order), freed before it returns; recursion is
 * as deep as the largest clique.
 */

#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <stdint.h>
#include <string.h>

#if PY_BIG_ENDIAN
#error "_cliques.c reads int.to_bytes(..., 'little') output as uint64_t words"
#endif

/* int.to_bytes, int.from_bytes and "little", set at import.  The
 * unbound int methods never run an override on an int subclass. */
static PyObject *int_to_bytes, *int_from_bytes, *str_little;

/* `mask`, an int in [0, 2**(64 * nw)), as nw words; `nbytes` is the int
 * 8 * nw.  Returns -1 with TypeError (not an int) or OverflowError
 * (negative, or too wide) set. */
static int
mask_to_words(PyObject *mask, PyObject *nbytes, Py_ssize_t nw, uint64_t *out)
{
    PyObject *args[3] = {mask, nbytes, str_little}, *b;

    if (!PyLong_Check(mask)) {
        PyErr_Format(PyExc_TypeError, "masks must be ints, not %.200s",
                     Py_TYPE(mask)->tp_name);
        return -1;
    }
    b = PyObject_Vectorcall(int_to_bytes, args, 3, NULL);
    if (b == NULL)
        return -1;
    memcpy(out, PyBytes_AS_STRING(b), (size_t)nw * 8);
    Py_DECREF(b);
    return 0;
}

static PyObject *
words_to_int(const uint64_t *words, Py_ssize_t nw)
{
    PyObject *b = PyBytes_FromStringAndSize((const char *)words, nw * 8);
    PyObject *args[2] = {b, str_little}, *out;

    if (b == NULL)
        return NULL;
    out = PyObject_Vectorcall(int_from_bytes, args, 2, NULL);
    Py_DECREF(b);
    return out;
}

/* The first n masks of `rows` as n * nw words in a new PyMem block (at
 * least one word, so n == 0 gets a block too).  Returns NULL with an
 * exception set: ValueError when rows holds fewer than n masks. */
static uint64_t *
rows_to_words(PyObject *rows, Py_ssize_t n, Py_ssize_t nw, PyObject *nbytes)
{
    PyObject *seq, *row;
    uint64_t *out = NULL;
    Py_ssize_t i;
    int err;

    seq = PySequence_Fast(rows, "rows must be a sequence");
    if (seq == NULL)
        return NULL;
    if (PySequence_Fast_GET_SIZE(seq) < n) {
        PyErr_SetString(PyExc_ValueError, "rows holds fewer than n masks");
        goto fail;
    }
    out = PyMem_New(uint64_t, n > 0 ? n * nw : 1);
    if (out == NULL) {
        PyErr_NoMemory();
        goto fail;
    }
    /* the size is read again each row: an allocation may run a
     * collection, and python code that shrinks a list passed as rows */
    for (i = 0; i < n; i++) {
        if (i >= PySequence_Fast_GET_SIZE(seq)) {
            PyErr_SetString(PyExc_ValueError, "rows shrank while read");
            goto fail;
        }
        row = PySequence_Fast_GET_ITEM(seq, i);
        Py_INCREF(row);
        err = mask_to_words(row, nbytes, nw, out + i * nw);
        Py_DECREF(row);
        if (err < 0)
            goto fail;
    }
    Py_DECREF(seq);
    return out;
fail:
    PyMem_Free(out);
    Py_DECREF(seq);
    return NULL;
}

static inline Py_ssize_t
popcount(const uint64_t *mask, Py_ssize_t nw)
{
    Py_ssize_t w, c = 0;
    for (w = 0; w < nw; w++)
        c += __builtin_popcountll(mask[w]);
    return c;
}

static inline int
is_empty(const uint64_t *mask, Py_ssize_t nw)
{
    Py_ssize_t w;
    for (w = 0; w < nw; w++) {
        if (mask[w])
            return 0;
    }
    return 1;
}

/* The lowest set bit of mask at or past word *w, or -1; *w moves to
 * its word, so a mask that only loses bits is scanned once in all. */
static inline Py_ssize_t
lowest_bit(const uint64_t *mask, Py_ssize_t nw, Py_ssize_t *w)
{
    for (; *w < nw; (*w)++) {
        if (mask[*w])
            return *w * 64 + __builtin_ctzll(mask[*w]);
    }
    return -1;
}

#define BIT(v) ((uint64_t)1 << ((v) & 63))
#define SET_BIT(mask, v) ((mask)[(v) >> 6] |= BIT(v))
#define CLEAR_BIT(mask, v) ((mask)[(v) >> 6] &= ~BIT(v))

typedef struct {
    const uint64_t *rows;
    Py_ssize_t nw;
    Py_ssize_t best_size;
    uint64_t *best;
    int found;
} MaxClique;

/* pure.max_clique's expand: colour P greedily, then branch on its
 * vertices in reverse colour order, dropping each from P once tried.
 * Returns -1 with MemoryError set. */
static int
mc_expand(MaxClique *st, const uint64_t *rmask, Py_ssize_t rsize,
          const uint64_t *pmask)
{
    Py_ssize_t nw = st->nw, pc = popcount(pmask, nw);
    Py_ssize_t i, k, c, v, w, wi;
    uint64_t *buf, *rest, *avail, *pcur, *child, *rchild, nonempty;
    Py_ssize_t *order, *colors;
    const uint64_t *row;
    int err = 0;

    if (pc == 0)
        return 0;
    buf = PyMem_Malloc(5 * nw * sizeof(uint64_t)
                       + 2 * pc * sizeof(Py_ssize_t));
    if (buf == NULL) {
        PyErr_NoMemory();
        return -1;
    }
    rest = buf;
    avail = buf + nw;
    pcur = buf + 2 * nw;
    child = buf + 3 * nw;
    rchild = buf + 4 * nw;
    order = (Py_ssize_t *)(buf + 5 * nw);
    colors = order + pc;

    /* greedy colouring: peel independent sets, lowest index first */
    memcpy(rest, pmask, nw * 8);
    for (k = 0, c = 0; k < pc;) {
        c++;
        memcpy(avail, rest, nw * 8);
        w = 0;
        while ((v = lowest_bit(avail, nw, &w)) >= 0) {
            order[k] = v;
            colors[k] = c;
            k++;
            CLEAR_BIT(rest, v);
            row = st->rows + v * nw;
            for (wi = w; wi < nw; wi++)
                avail[wi] &= ~row[wi];
            CLEAR_BIT(avail, v);
        }
    }
    memcpy(pcur, pmask, nw * 8);
    for (i = pc - 1; i >= 0; i--) {
        if (rsize + colors[i] <= st->best_size)
            break;
        v = order[i];
        row = st->rows + v * nw;
        nonempty = 0;
        for (wi = 0; wi < nw; wi++) {
            child[wi] = pcur[wi] & row[wi];
            nonempty |= child[wi];
        }
        if (nonempty) {
            memcpy(rchild, rmask, nw * 8);
            SET_BIT(rchild, v);
            err = mc_expand(st, rchild, rsize + 1, child);
            if (err < 0)
                break;
        }
        else if (rsize + 1 > st->best_size) {
            st->best_size = rsize + 1;
            memcpy(st->best, rmask, nw * 8);
            SET_BIT(st->best, v);
            st->found = 1;
        }
        CLEAR_BIT(pcur, v);
    }
    PyMem_Free(buf);
    return err;
}

PyDoc_STRVAR(max_clique_doc,
"max_clique(n, rows, lower_bound=0)\n--\n\n"
"See kernels.pure.max_clique.  rows must hold at least n masks, each a\n"
"non-negative int below 2**(64 * ceil(n / 64)); else ValueError,\n"
"OverflowError or TypeError.");

static PyObject *
max_clique(PyObject *Py_UNUSED(module), PyObject *args, PyObject *kwargs)
{
    static char *kwlist[] = {"n", "rows", "lower_bound", NULL};
    PyObject *rows, *nbytes = NULL, *result = NULL;
    Py_ssize_t n, nw, lower_bound = 0, w;
    uint64_t *words = NULL, *buf = NULL, *full, *rroot;
    MaxClique st;

    if (!PyArg_ParseTupleAndKeywords(args, kwargs, "nO|n:max_clique", kwlist,
                                     &n, &rows, &lower_bound))
        return NULL;
    if (n <= 0)
        return Py_BuildValue("(ii)", 0, 0);
    nw = (n + 63) / 64;
    nbytes = PyLong_FromSsize_t(nw * 8);
    if (nbytes == NULL)
        goto done;
    words = rows_to_words(rows, n, nw, nbytes);
    if (words == NULL)
        goto done;
    buf = PyMem_New(uint64_t, 3 * nw);
    if (buf == NULL) {
        PyErr_NoMemory();
        goto done;
    }
    full = buf;
    rroot = buf + nw;
    st.rows = words;
    st.nw = nw;
    st.best_size = lower_bound;
    st.best = buf + 2 * nw;
    st.found = 0;
    memset(rroot, 0, nw * 8);
    for (w = 0; w < nw; w++)
        full[w] = UINT64_MAX;
    if (n & 63)
        full[nw - 1] = BIT(n) - 1;
    if (mc_expand(&st, rroot, 0, full) < 0)
        goto done;
    if (st.found)
        result = Py_BuildValue("(nN)", st.best_size,
                               words_to_int(st.best, nw));
    else
        result = Py_BuildValue("(ii)", 0, 0);
done:
    PyMem_Free(buf);
    PyMem_Free(words);
    Py_XDECREF(nbytes);
    return result;
}

typedef struct {
    const uint64_t *rows;
    Py_ssize_t nw;
    PyObject *out;
} MaximalCliques;

/* pure.maximal_cliques's bk: report R when P and X are empty, else
 * branch on P minus the pivot's neighbours, the pivot being the P|X
 * vertex with most P-neighbours (lowest index on ties).  Returns -1
 * with an exception set. */
static int
bk(MaximalCliques *st, const uint64_t *rmask, const uint64_t *pmask,
   const uint64_t *xmask)
{
    Py_ssize_t nw = st->nw, w, wi, u, v, cnt, best_cnt = -1, best_u = 0;
    uint64_t *buf, *ext, *p, *x, *rchild, *pchild, *xchild, cw;
    const uint64_t *row;
    PyObject *clique;
    int err = 0;

    if (is_empty(pmask, nw) && is_empty(xmask, nw)) {
        clique = words_to_int(rmask, nw);
        if (clique == NULL)
            return -1;
        err = PyList_Append(st->out, clique);
        Py_DECREF(clique);
        return err;
    }
    for (w = 0; w < nw; w++) {
        for (cw = pmask[w] | xmask[w]; cw; cw &= cw - 1) {
            u = w * 64 + __builtin_ctzll(cw);
            row = st->rows + u * nw;
            cnt = 0;
            for (wi = 0; wi < nw; wi++)
                cnt += __builtin_popcountll(pmask[wi] & row[wi]);
            if (cnt > best_cnt) {
                best_cnt = cnt;
                best_u = u;
            }
        }
    }
    buf = PyMem_New(uint64_t, 6 * nw);
    if (buf == NULL) {
        PyErr_NoMemory();
        return -1;
    }
    ext = buf;
    p = buf + nw;
    x = buf + 2 * nw;
    rchild = buf + 3 * nw;
    pchild = buf + 4 * nw;
    xchild = buf + 5 * nw;
    row = st->rows + best_u * nw;
    for (wi = 0; wi < nw; wi++)
        ext[wi] = pmask[wi] & ~row[wi];
    memcpy(p, pmask, nw * 8);
    memcpy(x, xmask, nw * 8);
    w = 0;
    while ((v = lowest_bit(ext, nw, &w)) >= 0) {
        row = st->rows + v * nw;
        memcpy(rchild, rmask, nw * 8);
        SET_BIT(rchild, v);
        for (wi = 0; wi < nw; wi++) {
            pchild[wi] = p[wi] & row[wi];
            xchild[wi] = x[wi] & row[wi];
        }
        err = bk(st, rchild, pchild, xchild);
        if (err < 0)
            break;
        CLEAR_BIT(p, v);
        SET_BIT(x, v);
        CLEAR_BIT(ext, v);
    }
    PyMem_Free(buf);
    return err;
}

PyDoc_STRVAR(maximal_cliques_doc,
"maximal_cliques(n, rows, p_mask, x_mask)\n--\n\n"
"See kernels.pure.maximal_cliques.  n must be >= 0, p_mask and x_mask\n"
"non-negative ints below 2**n, and rows must hold at least n masks, each\n"
"a non-negative int below 2**(64 * ceil(n / 64)); else ValueError,\n"
"OverflowError or TypeError.");

static PyObject *
maximal_cliques(PyObject *Py_UNUSED(module), PyObject *args,
                PyObject *kwargs)
{
    static char *kwlist[] = {"n", "rows", "p_mask", "x_mask", NULL};
    PyObject *rows, *p_mask, *x_mask, *nbytes = NULL, *out = NULL;
    Py_ssize_t n, nw;
    uint64_t *words = NULL, *buf = NULL, *rroot, *proot, *xroot, high;
    MaximalCliques st;

    if (!PyArg_ParseTupleAndKeywords(args, kwargs, "nOOO:maximal_cliques",
                                     kwlist, &n, &rows, &p_mask, &x_mask))
        return NULL;
    if (n < 0) {
        PyErr_SetString(PyExc_ValueError, "n must be >= 0");
        return NULL;
    }
    nw = n > 0 ? (n + 63) / 64 : 1;
    nbytes = PyLong_FromSsize_t(nw * 8);
    if (nbytes == NULL)
        goto done;
    buf = PyMem_New(uint64_t, 3 * nw);
    if (buf == NULL) {
        PyErr_NoMemory();
        goto done;
    }
    rroot = buf;
    proot = buf + nw;
    xroot = buf + 2 * nw;
    if (mask_to_words(p_mask, nbytes, nw, proot) < 0
            || mask_to_words(x_mask, nbytes, nw, xroot) < 0)
        goto done;
    /* a P or X bit at n or above would index a row past the n read */
    high = n & 63 ? ~(BIT(n) - 1) : (n ? 0 : UINT64_MAX);
    if ((proot[nw - 1] | xroot[nw - 1]) & high) {
        PyErr_SetString(PyExc_ValueError,
                        "p_mask and x_mask must be below 2**n");
        goto done;
    }
    words = rows_to_words(rows, n, nw, nbytes);
    if (words == NULL)
        goto done;
    out = PyList_New(0);
    if (out == NULL)
        goto done;
    memset(rroot, 0, nw * 8);
    st.rows = words;
    st.nw = nw;
    st.out = out;
    if (bk(&st, rroot, proot, xroot) < 0)
        Py_CLEAR(out);
done:
    PyMem_Free(words);
    PyMem_Free(buf);
    Py_XDECREF(nbytes);
    return out;
}

static PyMethodDef cliques_methods[] = {
    {"max_clique", (PyCFunction)(void (*)(void))max_clique,
     METH_VARARGS | METH_KEYWORDS, max_clique_doc},
    {"maximal_cliques", (PyCFunction)(void (*)(void))maximal_cliques,
     METH_VARARGS | METH_KEYWORDS, maximal_cliques_doc},
    {NULL, NULL, 0, NULL}
};

static struct PyModuleDef cliques_module = {
    PyModuleDef_HEAD_INIT,
    "_cliques",
    "Compiled twins of kernels.pure.max_clique and maximal_cliques.",
    -1,
    cliques_methods
};

PyMODINIT_FUNC
PyInit__cliques(void)
{
    if (int_to_bytes == NULL) {
        int_to_bytes = PyObject_GetAttrString((PyObject *)&PyLong_Type,
                                              "to_bytes");
        int_from_bytes = PyObject_GetAttrString((PyObject *)&PyLong_Type,
                                                "from_bytes");
        str_little = PyUnicode_InternFromString("little");
        if (int_to_bytes == NULL || int_from_bytes == NULL
                || str_little == NULL) {
            Py_CLEAR(int_to_bytes);
            Py_CLEAR(int_from_bytes);
            Py_CLEAR(str_little);
            return NULL;
        }
    }
    return PyModule_Create(&cliques_module);
}
