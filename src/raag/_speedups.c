/* Compiled piling kernel: normalize and survivors with the contracts of
 * raag._purekernel. Unlike the pure kernel, whose piles hold positions
 * only, these piles keep zero markers: a letter also pushes a 0 onto the
 * pile of every generator in its noncomm row, a letter cancels only against
 * its inverse on top of its own pile (a marker on top blocks it), and
 * depiling emits the smallest generator whose read head shows a letter,
 * advancing the heads of its row past one marker each.
 *
 * The piles share one buffer in compressed-sparse-row layout. A letter pushes
 * onto its own pile and the piles of its noncomm row, and a cancellation only
 * pops, so pile j never holds more than bound[j] = cnt[j] + the sum of cnt[i]
 * over the rows i that name j (cnt[i]: the letters of generator i), and the
 * piles take L * (1 + non-commuting degree) bytes. An entry is the sign of a
 * letter of the pile's generator, or 0 for a letter of a non-commuting one;
 * each pile follows a 0 sentinel. The positions of the letters on pile j sit
 * on a stack of their own. Codes and noncomm entries are checked before use:
 * an out-of-range value would address memory outside the piles. */

#define PY_SSIZE_T_CLEAN
#include <Python.h>

typedef struct {
    Py_ssize_t L, n, count;  /* letters; generators; letters left on the piles */
    int32_t *code;        /* the L signed generator codes, then the position stacks */
    int32_t *row;         /* noncomm row i is row[off[i] .. off[i + 1]) */
    signed char *pile, **head, **top;  /* pile j runs from head[j] up to top[j] */
    Py_ssize_t *off, *pos, *ptop;  /* position stack j is code[pos[j] .. ptop[j]) */
} Piles;

static void piles_free(Piles *p)
{
    PyMem_Free(p->code);
    PyMem_Free(p->row);
    PyMem_Free(p->pile);
    PyMem_Free(p->off);
    PyMem_Free(p->head);
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

/* Parses and checks (codes, noncomm), lays out the piles and runs the push
 * pass; the generators are the len(noncomm) rows. On success the caller frees
 * p with piles_free; on failure p holds nothing and an exception is set. */
static int pile(PyObject *const *args, Py_ssize_t nargs, Piles *p)
{
    Py_ssize_t L, n, i, j, k, t, q, *cnt, *bound;
    PyObject *codes = NULL, *rows = NULL;
    int32_t *code;
    signed char *e, **top;
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
    code = p->code = PyMem_New(int32_t, 2 * L + 1);
    p->off = PyMem_Calloc(3 * n + 1, sizeof(Py_ssize_t));
    p->head = PyMem_New(signed char *, 2 * n + 1);
    if (code == NULL || p->off == NULL || p->head == NULL) {
        PyErr_NoMemory();
        goto fail;
    }
    cnt = p->pos = p->off + n + 1;  /* pos and ptop hold cnt and bound until the layout below */
    bound = p->ptop = p->pos + n;
    top = p->top = p->head + n;
    if (read_noncomm(rows, p) < 0)
        goto fail;
    for (k = 0; k < L; k++) {
        long c;
        if (read_int(PySequence_Fast_GET_ITEM(codes, k), -(long)n, (long)n, 0, "letter code", &c) < 0)
            goto fail;
        p->code[k] = (int32_t)c;
        cnt[(c > 0 ? c : -c) - 1]++;
    }
    memcpy(bound, cnt, n * sizeof(Py_ssize_t));
    for (i = 0; i < n; i++)
        for (t = p->off[i]; t < p->off[i + 1]; t++)
            bound[p->row[t]] += cnt[i];
    for (q = n, j = 0; j < n; j++)
        q += bound[j];
    if ((e = p->pile = PyMem_New(signed char, q + 1)) == NULL) {
        PyErr_NoMemory();
        goto fail;
    }
    for (q = L, j = 0; j < n; j++) {
        Py_ssize_t b = bound[j], c = cnt[j];
        *e++ = 0;
        p->head[j] = top[j] = e;
        e += b;
        p->pos[j] = p->ptop[j] = q;
        q += c;
    }
    for (k = 0; k < L; k++) {
        int32_t c = code[k], v = (c > 0 ? c : -c) - 1;
        signed char sign = c > 0 ? 1 : -1;
        const int32_t *r = p->row + p->off[v], *end = p->row + p->off[v + 1];
        if (top[v][-1] == -sign) {
            top[v]--;
            p->ptop[v]--;
            for (; r < end; r++)
                top[*r]--;
            p->count--;
        } else {
            *top[v]++ = sign;
            code[p->ptop[v]++] = (int32_t)k;
            for (; r < end; r++)
                *top[*r]++ = 0;
            p->count++;
        }
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
    PyObject *out, *letter;
    if (pile(args, nargs, &p) < 0)
        return NULL;
    /* emit the smallest generator whose pile shows a letter at its read head */
    if ((out = PyList_New(p.count)) != NULL)
        for (k = 0; k < p.count; k++) {
            for (i = 0; i < p.n && !(p.head[i] < p.top[i] && *p.head[i]); i++)
                ;
            if (i == p.n)
                PyErr_SetString(PyExc_ValueError, "no letter can be emitted while letters remain; is noncomm symmetric?");
            if (i == p.n || (letter = PyLong_FromSsize_t((i + 1) * *p.head[i])) == NULL) {
                Py_CLEAR(out);
                break;
            }
            PyList_SET_ITEM(out, k, letter);
            p.head[i]++;
            for (t = p.off[i]; t < p.off[i + 1]; t++)
                p.head[p.row[t]]++;
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
        for (q = p.pos[j]; q < p.ptop[j]; q++)
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
