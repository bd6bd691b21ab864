/* Compiled twins of kernels.pure.mix64 and kernels.pure.minhash_signature,
 * written by hand against the CPython API.
 *
 * Both hash the low 64 bits of their int arguments, as the pure twins do
 * with `& MASK64`, so negative ints and ints >= 2**64 hash alike in both
 * backends.  A signature converts the pull ids once into a uint64_t array
 * and takes one minimum over it per seed.
 */

#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <stdint.h>

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

static PyMethodDef hash_methods[] = {
    {"mix64", (PyCFunction)mix64, METH_O, mix64_doc},
    {"minhash_signature", (PyCFunction)(void (*)(void))minhash_signature,
     METH_FASTCALL, minhash_signature_doc},
    {NULL, NULL, 0, NULL}
};

static struct PyModuleDef hash_module = {
    PyModuleDef_HEAD_INIT,
    "_hash",
    "Compiled twins of kernels.pure.mix64 and minhash_signature.",
    -1,
    hash_methods
};

PyMODINIT_FUNC
PyInit__hash(void)
{
    return PyModule_Create(&hash_module);
}
