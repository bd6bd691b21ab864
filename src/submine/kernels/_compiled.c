/* The compiled kernels: the twins of the functions in kernels.pure,
 * written by hand against the CPython API, in three sections: the id
 * hashes, the clique searches and the kernels that read or build
 * adjacency lists.
 */

#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

/* ---- hashes ---- */

/* Compiled twins of kernels.pure.mix64 and kernels.pure.minhash_signature.
 *
 * Both hash the low 64 bits of their int arguments, as the pure twins do
 * with `& MASK64`, so negative ints and ints >= 2**64 hash alike in both
 * backends.  A signature converts the pull ids once into a uint64_t array
 * and takes one minimum over it per seed.
 */

/* The signature of the empty pull set: all-max, so it sorts last
 * (minhash.SENTINEL_SIG). */
#define SENTINEL_SIG UINT64_MAX

/* splitmix64 finalizer */
static inline uint64_t
mix(uint64_t x)
{
    x ^= x >> 30;
    x *= 0xBF58476D1CE4E5B9ULL;
    x ^= x >> 27;
    x *= 0x94D049BB133111EBULL;
    return x ^ (x >> 31);
}

/* The low 64 bits of an int.  Returns -1 with TypeError set when `obj`
 * is not an int (the pure twins fail on `&` and `^` alike). */
static inline int
low64(PyObject *obj, uint64_t *out)
{
    if (!PyLong_Check(obj)) {
        PyErr_Format(PyExc_TypeError, "expected an int, not %.200s",
                     Py_TYPE(obj)->tp_name);
        return -1;
    }
    *out = (uint64_t)PyLong_AsUnsignedLongLongMask(obj);
    if (*out == (uint64_t)-1 && PyErr_Occurred())
        return -1;
    return 0;
}

PyDoc_STRVAR(mix64_doc,
"mix64(x)\n--\n\n"
"See kernels.pure.mix64.  A non-int raises TypeError.");

static PyObject *
mix64(PyObject *Py_UNUSED(module), PyObject *arg)
{
    uint64_t x;
    if (low64(arg, &x) < 0)
        return NULL;
    return PyLong_FromUnsignedLongLong(mix(x));
}

/* A tuple of `ell` copies of SENTINEL_SIG. */
static PyObject *
sentinel_sigs(Py_ssize_t ell)
{
    PyObject *out = PyTuple_New(ell), *sig;
    Py_ssize_t k;
    if (out == NULL)
        return NULL;
    for (k = 0; k < ell; k++) {
        sig = PyLong_FromUnsignedLongLong(SENTINEL_SIG);
        if (sig == NULL) {
            Py_DECREF(out);
            return NULL;
        }
        PyTuple_SET_ITEM(out, k, sig);
    }
    return out;
}

PyDoc_STRVAR(minhash_signature_doc,
"minhash_signature(pull_ids, seeds)\n--\n\n"
"See kernels.pure.minhash_signature.  pull_ids may be any iterable,\n"
"seeds any sequence; a non-int id or seed raises TypeError.");

static PyObject *
minhash_signature(PyObject *Py_UNUSED(module), PyObject *const *args,
                  Py_ssize_t nargs)
{
    PyObject *ids_seq = NULL, *seeds_seq = NULL, *out = NULL, *sig;
    uint64_t *ids = NULL, *seeds, h, best;
    Py_ssize_t n, ell, i, k;

    if (nargs != 2) {
        PyErr_Format(PyExc_TypeError,
                     "minhash_signature expected 2 arguments, got %zd",
                     nargs);
        return NULL;
    }
    ids_seq = PySequence_Fast(args[0], "pull_ids must be iterable");
    if (ids_seq == NULL)
        goto fail;
    seeds_seq = PySequence_Fast(args[1], "seeds must be a sequence");
    if (seeds_seq == NULL)
        goto fail;
    n = PySequence_Fast_GET_SIZE(ids_seq);
    ell = PySequence_Fast_GET_SIZE(seeds_seq);
    if (n == 0) {
        out = sentinel_sigs(ell);
        goto done;
    }
    /* ids and seeds are all read before the first python object is made:
     * making one may run a collection, and python code that changes a
     * list passed in */
    ids = PyMem_New(uint64_t, n + ell);
    if (ids == NULL) {
        PyErr_NoMemory();
        goto fail;
    }
    seeds = ids + n;
    for (i = 0; i < n; i++) {
        if (low64(PySequence_Fast_GET_ITEM(ids_seq, i), &ids[i]) < 0)
            goto fail;
    }
    for (k = 0; k < ell; k++) {
        if (low64(PySequence_Fast_GET_ITEM(seeds_seq, k), &seeds[k]) < 0)
            goto fail;
    }
    out = PyTuple_New(ell);
    if (out == NULL)
        goto fail;
    for (k = 0; k < ell; k++) {
        best = UINT64_MAX;
        for (i = 0; i < n; i++) {
            h = mix(ids[i] ^ seeds[k]);
            if (h < best)
                best = h;
        }
        sig = PyLong_FromUnsignedLongLong(best);
        if (sig == NULL)
            goto fail;
        PyTuple_SET_ITEM(out, k, sig);
    }
done:
    PyMem_Free(ids);
    Py_XDECREF(seeds_seq);
    Py_XDECREF(ids_seq);
    return out;
fail:
    PyMem_Free(ids);
    Py_XDECREF(out);
    Py_XDECREF(seeds_seq);
    Py_XDECREF(ids_seq);
    return NULL;
}

/* ---- clique searches ---- */

/* Compiled twins of kernels.pure.max_clique and
 * kernels.pure.maximal_cliques.
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

#if PY_BIG_ENDIAN
#error "_compiled.c reads int.to_bytes(..., 'little') output as uint64_t words"
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

/* ---- adjacency-list kernels ---- */

/* Compiled twins of kernels.pure.count_closing_pairs,
 * kernels.pure.edges_symmetric and kernels.pure.parse_id_lines, the
 * kernels that read or build adjacency lists.
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
 *
 * parse_id_lines: one pass over the text of a graph file, interning
 * ids in a table local to the call; see the comment above it.
 */

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

/* parse_id_lines(pieces): the bulk parse behind graph.read_graph_sha256.
 * It reads the decoded text of a graph file once, one piece of whole
 * lines at a time, through each piece's UTF-8 form (for ASCII text, the
 * piece's own buffer).  A line with three tab-separated fields, whose
 * id and neighbour tokens are ASCII digits below 2**64, with no repeated
 * neighbour and no self-loop, becomes a row; every other line that is
 * neither blank nor a comment goes to the slow list, for
 * graph.parse_vertex_line to parse or to word its error.  Any byte of a
 * multi-byte character is neither a digit nor ASCII whitespace, so a
 * token holding one sends its line to the slow list, while a label may
 * hold any character but a tab.
 *
 * Ids are interned in an open-addressing table local to the call: each
 * distinct id gets one int object, shared by every row that holds it.
 * The same table marks which ids a row defines, so the ids the rows
 * reference and never define fall out of one pass over it. */

/* Character classes of the UTF-8 bytes: the ASCII whitespace that
 * str.split() and str.isspace() take, and the digits; every byte of a
 * multi-byte character is CH_OTHER. */
enum { CH_OTHER, CH_DIGIT, CH_SPACE };
static unsigned char char_class[256];

static void
init_char_class(void)
{
    const char *spaces = " \t\n\v\f\r\x1c\x1d\x1e\x1f";
    int c;
    for (c = '0'; c <= '9'; c++)
        char_class[c] = CH_DIGIT;
    for (; *spaces; spaces++)
        char_class[(unsigned char)*spaces] = CH_SPACE;
}

/* [s, e) as a decimal id: 1 when it is a nonempty run of digits below
 * 2**64, else 0. */
static int
parse_u64(const char *s, const char *e, uint64_t *out)
{
    uint64_t v = 0;
    unsigned d;
    if (s == e)
        return 0;
    for (; s < e; s++) {
        d = (unsigned)(unsigned char)*s - '0';
        if (d > 9)
            return 0;
        if (v > UINT64_MAX / 10 || (v == UINT64_MAX / 10 && d > UINT64_MAX % 10))
            return 0;
        v = v * 10 + d;
    }
    *out = v;
    return 1;
}

static int
cmp_u64(const void *a, const void *b)
{
    uint64_t x = *(const uint64_t *)a, y = *(const uint64_t *)b;
    return (x > y) - (x < y);
}

/* The id table: `cap` slots (a power of two), a slot is empty while its
 * object is NULL, and `defined[k]` says whether a row has slot k's id as
 * its own. */
typedef struct {
    uint64_t key;
    PyObject *obj;
} id_slot;

typedef struct {
    id_slot *slots;
    unsigned char *defined;
    size_t cap, used;
} id_table;

static inline size_t
slot_of(uint64_t x, size_t mask)
{
    return (size_t)mix(x) & mask;
}

static int
table_init(id_table *t, size_t hint)
{
    t->cap = 16;
    while (t->cap < 2 * hint)
        t->cap *= 2;
    t->used = 0;
    t->slots = PyMem_Calloc(t->cap, sizeof(id_slot));
    t->defined = PyMem_Calloc(t->cap, 1);
    if (t->slots == NULL || t->defined == NULL) {
        PyErr_NoMemory();
        return -1;
    }
    return 0;
}

static void
table_free(id_table *t)
{
    size_t k;
    if (t->slots != NULL) {
        for (k = 0; k < t->cap; k++)
            Py_XDECREF(t->slots[k].obj);
    }
    PyMem_Free(t->slots);
    PyMem_Free(t->defined);
}

/* The slot holding x, or the empty slot where it would go. */
static inline size_t
table_find(const id_table *t, uint64_t x)
{
    size_t mask = t->cap - 1, k = slot_of(x, mask);
    while (t->slots[k].obj != NULL && t->slots[k].key != x)
        k = (k + 1) & mask;
    return k;
}

/* Doubles the table once half of it is used. */
static int
table_grow(id_table *t)
{
    id_table bigger;
    size_t k, j;
    if (table_init(&bigger, t->cap) < 0) {
        PyMem_Free(bigger.slots);
        PyMem_Free(bigger.defined);
        return -1;
    }
    for (k = 0; k < t->cap; k++) {
        if (t->slots[k].obj != NULL) {
            j = table_find(&bigger, t->slots[k].key);
            bigger.slots[j] = t->slots[k];
            bigger.defined[j] = t->defined[k];
        }
    }
    bigger.used = t->used;
    PyMem_Free(t->slots);
    PyMem_Free(t->defined);
    *t = bigger;
    return 0;
}

/* The slot of x, inserting x with a new int object if it is not there.
 * Returns (size_t)-1 with an exception set. */
static size_t
table_intern(id_table *t, uint64_t x)
{
    size_t k = table_find(t, x);
    if (t->slots[k].obj != NULL)
        return k;
    if (2 * (t->used + 1) > t->cap) {
        if (table_grow(t) < 0)
            return (size_t)-1;
        k = table_find(t, x);
    }
    t->slots[k].obj = PyLong_FromUnsignedLongLong(x);
    if (t->slots[k].obj == NULL)
        return (size_t)-1;
    t->slots[k].key = x;
    t->used++;
    return k;
}

/* Parses the line [s, e) into nbs (grown as needed) and, when it is a
 * row, returns 1 with *vid, the label's span and *n set; 0 when it goes
 * to the slow list; -1 on a memory error. */
static int
parse_row(const char *s, const char *e, uint64_t *vid, const char **label,
          const char **label_end, uint64_t **nbs, Py_ssize_t *nbs_cap,
          Py_ssize_t *n)
{
    const char *tab1, *tab2, *p, *tok;
    Py_ssize_t k, cnt = 0;
    int sorted = 1;
    uint64_t x;

    tab1 = memchr(s, '\t', e - s);
    if (tab1 == NULL)
        return 0;
    tab2 = memchr(tab1 + 1, '\t', e - tab1 - 1);
    if (tab2 == NULL || memchr(tab2 + 1, '\t', e - tab2 - 1) != NULL)
        return 0;
    if (!parse_u64(s, tab1, vid))
        return 0;
    p = tab2 + 1;
    while (p < e) {
        while (p < e && char_class[(unsigned char)*p] == CH_SPACE)
            p++;
        if (p == e)
            break;
        tok = p;
        while (p < e && char_class[(unsigned char)*p] == CH_DIGIT)
            p++;
        if (p < e && char_class[(unsigned char)*p] != CH_SPACE)
            return 0;  /* a `:`, a sign or any other character */
        if (!parse_u64(tok, p, &x))
            return 0;
        if (cnt == *nbs_cap) {
            Py_ssize_t want = *nbs_cap ? 2 * *nbs_cap : 64;
            uint64_t *grown = PyMem_Resize(*nbs, uint64_t, want);
            if (grown == NULL) {
                PyErr_NoMemory();
                return -1;
            }
            *nbs = grown;
            *nbs_cap = want;
        }
        if (cnt > 0 && x <= (*nbs)[cnt - 1])
            sorted = 0;
        (*nbs)[cnt++] = x;
    }
    if (!sorted)
        qsort(*nbs, (size_t)cnt, sizeof(uint64_t), cmp_u64);
    for (k = 0; k < cnt; k++) {
        if ((*nbs)[k] == *vid || (k > 0 && (*nbs)[k] == (*nbs)[k - 1]))
            return 0;  /* a self-loop or a repeated neighbour */
    }
    *label = tab1 + 1;
    *label_end = tab2;
    *n = cnt;
    return 1;
}

/* Appends item to list and drops the caller's reference to it. */
static int
append_steal(PyObject *list, PyObject *item)
{
    int rc;
    if (item == NULL)
        return -1;
    rc = PyList_Append(list, item);
    Py_DECREF(item);
    return rc;
}

/* The ids the table holds that no row defines, ascending. */
static PyObject *
undefined_ids(const id_table *t)
{
    PyObject *out;
    uint64_t *keys;
    size_t k, m = 0;
    Py_ssize_t i;

    keys = PyMem_New(uint64_t, t->used + 1);
    if (keys == NULL)
        return PyErr_NoMemory();
    for (k = 0; k < t->cap; k++) {
        if (t->slots[k].obj != NULL && !t->defined[k])
            keys[m++] = t->slots[k].key;
    }
    qsort(keys, m, sizeof(uint64_t), cmp_u64);
    out = PyList_New((Py_ssize_t)m);
    if (out != NULL) {
        for (i = 0; i < (Py_ssize_t)m; i++)
            PyList_SET_ITEM(out, i,
                            Py_NewRef(t->slots[table_find(t, keys[i])].obj));
    }
    PyMem_Free(keys);
    return out;
}

/* Whether the line [s, e) is blank as str.isspace() sees it: 1 or 0,
 * -1 with an exception set.  Only a line that holds nothing but ASCII
 * whitespace and multi-byte characters asks str.isspace(). */
static int
line_is_blank(const char *s, const char *e)
{
    PyObject *line, *blank;
    const char *p;
    int wide = 0, rc;

    for (p = s; p < e; p++) {
        if ((unsigned char)*p >= 0x80)
            wide = 1;
        else if (char_class[(unsigned char)*p] != CH_SPACE)
            return 0;
    }
    if (!wide)
        return 1;
    line = PyUnicode_DecodeUTF8(s, e - s, NULL);
    if (line == NULL)
        return -1;
    blank = PyObject_CallMethod(line, "isspace", NULL);
    Py_DECREF(line);
    if (blank == NULL)
        return -1;
    rc = PyObject_IsTrue(blank);
    Py_DECREF(blank);
    return rc;
}

/* The str of the UTF-8 bytes [s, e) of text, whose buffer starts at
 * data: a plain slice when the text is ASCII. */
static PyObject *
text_span(PyObject *text, const char *data, const char *s, const char *e)
{
    if (PyUnicode_IS_ASCII(text))
        return PyUnicode_Substring(text, s - data, e - data);
    return PyUnicode_DecodeUTF8(s, e - s, NULL);
}

/* What parse_id_lines has built so far. */
typedef struct {
    PyObject *vids, *labels, *rows, *slow;
    id_table table;
    uint64_t *nbs;
    Py_ssize_t nbs_cap, lineno;
} parse_state;

/* Parses the lines of one piece into st.  Returns -1 with an exception
 * set. */
static int
parse_piece(parse_state *st, PyObject *text)
{
    PyObject *row, *label_obj;
    const char *data, *s, *e, *end, *label, *label_end;
    uint64_t vid;
    Py_ssize_t len, n, i;
    size_t k;
    int rc, blank;

    if (!PyUnicode_Check(text)) {
        PyErr_SetString(PyExc_TypeError, "parse_id_lines expects str pieces");
        return -1;
    }
    data = PyUnicode_AsUTF8AndSize(text, &len);
    if (data == NULL)
        return -1;
    end = data + len;
    for (s = data; s < end; s = e + 1) {
        e = memchr(s, '\n', end - s);
        if (e == NULL)
            e = end;
        st->lineno++;
        if (*s == '#')
            continue;  /* a comment */
        rc = parse_row(s, e, &vid, &label, &label_end, &st->nbs,
                       &st->nbs_cap, &n);
        if (rc < 0)
            return -1;
        if (rc == 0) {
            blank = line_is_blank(s, e);
            if (blank < 0 || (!blank && append_steal(st->slow, Py_BuildValue(
                    "(nNn)", st->lineno, text_span(text, data, s, e),
                    PyList_GET_SIZE(st->vids))) < 0))
                return -1;
            continue;
        }
        row = PyList_New(n);
        if (row == NULL)
            return -1;
        for (i = 0; i < n; i++) {
            k = table_intern(&st->table, st->nbs[i]);
            if (k == (size_t)-1) {
                Py_DECREF(row);
                return -1;
            }
            PyList_SET_ITEM(row, i, Py_NewRef(st->table.slots[k].obj));
        }
        PyObject_GC_UnTrack(row);
        if (append_steal(st->rows, row) < 0)
            return -1;
        k = table_intern(&st->table, vid);
        if (k == (size_t)-1)
            return -1;
        st->table.defined[k] = 1;
        if (PyList_Append(st->vids, st->table.slots[k].obj) < 0)
            return -1;
        if (label == label_end)
            label_obj = Py_NewRef(Py_None);
        else
            label_obj = text_span(text, data, label, label_end);
        if (append_steal(st->labels, label_obj) < 0)
            return -1;
    }
    return 0;
}

PyDoc_STRVAR(parse_id_lines_doc,
"parse_id_lines(pieces)\n--\n\n"
"See kernels.pure.parse_id_lines.  Equal ids in the result are one int\n"
"object.  A piece with a lone surrogate, which no file decodes to,\n"
"raises UnicodeEncodeError.");

static PyObject *
parse_id_lines(PyObject *Py_UNUSED(module), PyObject *pieces)
{
    parse_state st = {NULL, NULL, NULL, NULL, {NULL, NULL, 0, 0}, NULL, 0, 0};
    PyObject *it, *piece, *missing = NULL, *result = NULL;
    int rc;

    if (PyUnicode_Check(pieces)) {
        PyErr_SetString(PyExc_TypeError,
                        "parse_id_lines expects str pieces, not a str");
        return NULL;
    }
    it = PyObject_GetIter(pieces);
    if (it == NULL)
        return NULL;
    st.vids = PyList_New(0);
    st.labels = PyList_New(0);
    st.rows = PyList_New(0);
    st.slow = PyList_New(0);
    if (st.vids == NULL || st.labels == NULL || st.rows == NULL
            || st.slow == NULL || table_init(&st.table, 0) < 0)
        goto done;
    while ((piece = PyIter_Next(it)) != NULL) {
        rc = parse_piece(&st, piece);
        Py_DECREF(piece);
        if (rc < 0)
            goto done;
    }
    if (PyErr_Occurred())
        goto done;
    missing = undefined_ids(&st.table);
    if (missing != NULL)
        result = PyTuple_Pack(5, st.vids, st.labels, st.rows, st.slow,
                              missing);
done:
    table_free(&st.table);
    PyMem_Free(st.nbs);
    Py_XDECREF(missing);
    Py_XDECREF(st.slow);
    Py_XDECREF(st.rows);
    Py_XDECREF(st.labels);
    Py_XDECREF(st.vids);
    Py_DECREF(it);
    return result;
}


static PyMethodDef compiled_methods[] = {
    {"mix64", (PyCFunction)mix64, METH_O, mix64_doc},
    {"minhash_signature", (PyCFunction)(void (*)(void))minhash_signature,
     METH_FASTCALL, minhash_signature_doc},
    {"max_clique", (PyCFunction)(void (*)(void))max_clique,
     METH_VARARGS | METH_KEYWORDS, max_clique_doc},
    {"maximal_cliques", (PyCFunction)(void (*)(void))maximal_cliques,
     METH_VARARGS | METH_KEYWORDS, maximal_cliques_doc},
    {"count_closing_pairs", (PyCFunction)(void (*)(void))count_closing_pairs,
     METH_FASTCALL, count_closing_pairs_doc},
    {"edges_symmetric", (PyCFunction)(void (*)(void))edges_symmetric,
     METH_FASTCALL, edges_symmetric_doc},
    {"parse_id_lines", parse_id_lines, METH_O, parse_id_lines_doc},
    {NULL, NULL, 0, NULL}
};

static struct PyModuleDef compiled_module = {
    PyModuleDef_HEAD_INIT,
    "_compiled",
    "Compiled twins of the kernels in kernels.pure.",
    -1,
    compiled_methods
};

PyMODINIT_FUNC
PyInit__compiled(void)
{
    init_char_class();
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
    return PyModule_Create(&compiled_module);
}
