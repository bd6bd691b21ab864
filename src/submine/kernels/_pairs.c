/* Compiled twins of kernels.pure.count_closing_pairs,
 * kernels.pure.edges_symmetric and kernels.pure.parse_id_lines, the
 * kernels that read or build adjacency lists, written by hand against
 * the CPython API.
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

#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

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
    /* the splitmix64 finalizer, as mix64 in _hash.c */
    x ^= x >> 30;
    x *= 0xBF58476D1CE4E5B9ULL;
    x ^= x >> 27;
    x *= 0x94D049BB133111EBULL;
    x ^= x >> 31;
    return (size_t)x & mask;
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

static PyMethodDef pairs_methods[] = {
    {"count_closing_pairs", (PyCFunction)(void (*)(void))count_closing_pairs,
     METH_FASTCALL,
     count_closing_pairs_doc},
    {"edges_symmetric", (PyCFunction)(void (*)(void))edges_symmetric,
     METH_FASTCALL,
     edges_symmetric_doc},
    {"parse_id_lines", parse_id_lines, METH_O, parse_id_lines_doc},
    {NULL, NULL, 0, NULL}
};

static struct PyModuleDef pairs_module = {
    PyModuleDef_HEAD_INIT,
    "_pairs",
    "Compiled twins of kernels.pure.count_closing_pairs,\n"
    "kernels.pure.edges_symmetric and kernels.pure.parse_id_lines.",
    -1,
    pairs_methods
};

PyMODINIT_FUNC
PyInit__pairs(void)
{
    init_char_class();
    return PyModule_Create(&pairs_module);
}
