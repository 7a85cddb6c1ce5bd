/* Compiled piling kernel: normalize and survivors with the contracts of
 * raag._purekernel, by the same algorithm on the same piles. The push pass
 * keeps one stack per generator: the ascending positions of its surviving
 * letters. A letter cancels against the top of its own stack when that top is
 * its inverse and no stack of a generator in its noncomm row has a later top;
 * otherwise it is pushed. normalize depiles by fronts (earliest positions
 * left): it emits the smallest generator whose front comes before the front
 * of every generator in its noncomm row, and rechecks first the generator
 * that last blocked it, since fronts only move later.
 *
 * The codes fill the first half of one int32 buffer and the stacks the
 * second. Stack j has room for the letters of generator j between a -1 below
 * it, which no position precedes, and one slot above, where normalize writes
 * L as the front of an emptied stack. So memory is O(letters + generators)
 * beside the int32 copy of noncomm. Codes and noncomm entries are checked
 * before use: an out-of-range value would address memory outside the stacks. */

#define PY_SSIZE_T_CLEAN
#include <Python.h>

typedef struct {
    Py_ssize_t L, n, count;  /* letters; generators; letters left on the stacks */
    int32_t *code;        /* the L signed generator codes, then the stacks */
    int32_t *row;         /* noncomm row i is row[off[i] .. off[i + 1]) */
    Py_ssize_t *off, *pos, *top, *blk;  /* stack j is code[pos[j] .. top[j]); blk: see normalize */
} Piles;

static void piles_free(Piles *p)
{
    PyMem_Free(p->code);
    PyMem_Free(p->row);
    PyMem_Free(p->off);
}

/* Reads an int in lo..hi other than skip. It runs no Python code, so no
 * sequence being read can change under the reader. */
static int read_int(PyObject *o, long lo, long hi, long skip, const char *what, long *v)
{
    if (!PyLong_Check(o)) {
        PyErr_Format(PyExc_TypeError, "%s must be an int, not %.200s", what, Py_TYPE(o)->tp_name);
        return -1;
    }
    if ((*v = PyLong_AsLong(o)) == -1 && PyErr_Occurred())
        return -1;
    if (*v < lo || *v > hi || *v == skip) {
        PyErr_Format(PyExc_ValueError, "%s %ld is outside %ld..%ld or is %ld", what, *v, lo, hi, skip);
        return -1;
    }
    return 0;
}

/* Copies the n rows of noncomm into p->row and p->off, checking every entry. */
static int read_noncomm(PyObject *rows, Piles *p)
{
    Py_ssize_t i, k, size;
    long j;
    for (i = 0; i < p->n; i++) {
        if ((size = PyObject_Length(PySequence_Fast_GET_ITEM(rows, i))) < 0)
            return -1;
        p->off[i + 1] = p->off[i] + size;
    }
    if ((p->row = PyMem_New(int32_t, p->off[p->n] + 1)) == NULL) {
        PyErr_NoMemory();
        return -1;
    }
    for (i = 0; i < p->n; i++) {
        PyObject *r = PySequence_Fast(PySequence_Fast_GET_ITEM(rows, i), "noncomm rows must be sequences");
        if (r == NULL)
            return -1;
        if ((size = PySequence_Fast_GET_SIZE(r)) != p->off[i + 1] - p->off[i])
            PyErr_Format(PyExc_ValueError, "noncomm[%zd] changed length while read", i);
        for (k = 0; k < size && !PyErr_Occurred(); k++)
            if (read_int(PySequence_Fast_GET_ITEM(r, k), 0, (long)p->n - 1, (long)i, "noncomm entry", &j) == 0)
                p->row[p->off[i] + k] = (int32_t)j;
        Py_DECREF(r);
        if (PyErr_Occurred())
            return -1;
    }
    return 0;
}

/* Parses and checks (codes, noncomm), lays out the stacks and runs the push
 * pass; the generators are the len(noncomm) rows. On success the caller frees
 * p with piles_free; on failure p holds nothing and an exception is set. */
static int pile(PyObject *const *args, Py_ssize_t nargs, Piles *p)
{
    Py_ssize_t L, n, j, k, q, *pos, *top;
    PyObject *codes = NULL, *rows = NULL;
    int32_t *code;
    int status = -1;
    memset(p, 0, sizeof(*p));
    if (nargs != 2) {
        PyErr_Format(PyExc_TypeError, "expected (codes, noncomm), got %zd arguments", nargs);
        return -1;
    }
    if ((codes = PySequence_Fast(args[0], "codes must be a sequence")) == NULL
            || (rows = PySequence_Fast(args[1], "noncomm must be a sequence")) == NULL)
        goto fail;
    L = PySequence_Fast_GET_SIZE(codes);
    n = PySequence_Fast_GET_SIZE(rows);
    if (L > INT32_MAX || n > INT32_MAX) {
        PyErr_SetString(PyExc_OverflowError, "words and alphabets are limited to 2**31 - 1 letters");
        goto fail;
    }
    p->L = L;
    p->n = n;
    code = p->code = PyMem_New(int32_t, 2 * (L + n) + 1);
    p->off = PyMem_Calloc(4 * n + 1, sizeof(Py_ssize_t));
    if (code == NULL || p->off == NULL) {
        PyErr_NoMemory();
        goto fail;
    }
    pos = p->pos = p->off + n + 1;
    top = p->top = pos + n;  /* top[j] counts the letters of generator j until the layout below */
    p->blk = top + n;
    if (read_noncomm(rows, p) < 0)
        goto fail;
    for (k = 0; k < L; k++) {
        long c;
        if (read_int(PySequence_Fast_GET_ITEM(codes, k), -(long)n, (long)n, 0, "letter code", &c) < 0)
            goto fail;
        code[k] = (int32_t)c;
        top[(c > 0 ? c : -c) - 1]++;
    }
    for (q = L, j = 0; j < n; j++) {
        Py_ssize_t c = top[j];
        code[q] = -1;
        pos[j] = top[j] = q + 1;
        q += c + 2;
    }
    for (k = 0; k < L; k++) {
        int32_t c = code[k], v = (c > 0 ? c : -c) - 1, t = code[top[v] - 1];
        const int32_t *r = p->row + p->off[v], *end = p->row + p->off[v + 1];
        if (t >= 0 && code[t] == -c) {
            while (r < end && code[top[*r] - 1] < t)
                r++;
            if (r == end) {
                top[v]--;
                p->count--;
                continue;
            }
        }
        code[top[v]++] = (int32_t)k;
        p->count++;
    }
    status = 0;
fail:
    Py_XDECREF(codes);
    Py_XDECREF(rows);
    if (status < 0)
        piles_free(p);
    return status;
}

static PyObject *normalize(PyObject *Py_UNUSED(self), PyObject *const *args, Py_ssize_t nargs)
{
    Piles p;
    Py_ssize_t i, t, k;
    int32_t f;
    PyObject *out, *letter;
    if (pile(args, nargs, &p) < 0)
        return NULL;
    for (i = 0; i < p.n; i++) {
        p.code[p.top[i]] = (int32_t)p.L;
        p.blk[i] = i;
    }
    /* emit the smallest generator whose front comes before every front in its
     * noncomm row; the earliest front always does, so the scan stops below n */
    if ((out = PyList_New(p.count)) != NULL)
        for (k = 0; k < p.count; k++) {
            for (i = 0;; i++) {
                f = p.code[p.pos[i]];
                if (f == p.L || p.code[p.pos[p.blk[i]]] < f)
                    continue;
                for (t = p.off[i]; t < p.off[i + 1] && p.code[p.pos[p.row[t]]] > f; t++)
                    ;
                if (t == p.off[i + 1])
                    break;
                p.blk[i] = p.row[t];
            }
            if ((letter = PyLong_FromLong(p.code[f])) == NULL) {
                Py_CLEAR(out);
                break;
            }
            PyList_SET_ITEM(out, k, letter);
            p.pos[i]++;
        }
    piles_free(&p);
    return out;
}

static PyObject *survivors(PyObject *Py_UNUSED(self), PyObject *const *args, Py_ssize_t nargs)
{
    Piles p;
    Py_ssize_t j, q, k = 0;
    PyObject *out, *pos;
    if (pile(args, nargs, &p) < 0)
        return NULL;
    /* sort: flag each surviving position in the part of the buffer that held
     * the codes, then read the flags in order */
    memset(p.code, 0, p.L * sizeof(int32_t));
    for (j = 0; j < p.n; j++)
        for (q = p.pos[j]; q < p.top[j]; q++)
            p.code[p.code[q]] = 1;
    if ((out = PyList_New(p.count)) != NULL)
        for (q = 0; q < p.L; q++) {
            if (!p.code[q])
                continue;
            if ((pos = PyLong_FromSsize_t(q)) == NULL) {
                Py_CLEAR(out);
                break;
            }
            PyList_SET_ITEM(out, k++, pos);
        }
    piles_free(&p);
    return out;
}

static PyMethodDef methods[] = {
    {"normalize", (PyCFunction)(void (*)(void))normalize, METH_FASTCALL,
     "normalize(codes, noncomm): the canonical reduced word, as raag._purekernel.normalize."},
    {"survivors", (PyCFunction)(void (*)(void))survivors, METH_FASTCALL,
     "survivors(codes, noncomm): the positions left by the piling pass, as raag._purekernel.survivors."},
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef module = {
    .m_base = PyModuleDef_HEAD_INIT,
    .m_name = "_speedups",
    .m_doc = "Compiled piling kernel with the contracts of raag._purekernel.",
    .m_size = 0,
    .m_methods = methods,
};

PyMODINIT_FUNC PyInit__speedups(void)
{
    return PyModule_Create(&module);
}
