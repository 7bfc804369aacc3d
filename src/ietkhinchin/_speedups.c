/* Compiled twin of the pure-Python kernels in _kernel.py.  The three entry
 * points take the same arguments as their pure twins and do the same
 * floating-point operations in the same order, so the results are
 * bit-identical (tests/test_kernel.py).  setup.py compiles this file with
 * -ffp-contract=off, so no multiply and add are fused into one rounding.
 * Every input is validated first: malformed rows, more than MAXD letters,
 * out-of-range letters, negative n and unknown phi kinds raise ValueError
 * instead of reading or writing out of bounds. */
#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <limits.h>
#include <math.h>
#include <string.h>

#define MAXD 16

enum { OK = 0, PRECISION = 1, TIE = 2, BUDGET = 3, NOT_REDUCED = 4, REDUCED = 5 }; /* as _kernel */

static const char *PHI_KINDS[] = {"zero", "const", "log1", "log2", "power"};
enum { PHI_ZERO, PHI_CONST, PHI_LOG1, PHI_LOG2, PHI_POWER, PHI_NKINDS };

/* An i.e.t. on the letters 0..d-1: both rows, the lengths by letter and
 * their running total, which the pure kernel sums in letter order. */
typedef struct { int d, top[MAXD], bot[MAXD]; double len[MAXD], total; } Datum;

/* phi as its (kind, c, p) spec, evaluated only at the n that is tested. */
typedef struct { int kind; double c, p; } Phi;

static int read_row(PyObject *obj, int d, int *row, const char *name)
{
    int seen[MAXD] = {0};
    PyObject *seq = PySequence_Fast(obj, "a row must be a sequence of letter indices");
    if (seq == NULL)
        return -1;
    int ok = PySequence_Fast_GET_SIZE(seq) == d;
    for (int i = 0; ok && i < d; i++) {
        long v = PyLong_AsLong(PySequence_Fast_GET_ITEM(seq, i));
        if (v == -1 && PyErr_Occurred()) {
            Py_DECREF(seq);
            return -1;
        }
        ok = v >= 0 && v < d && !seen[v];
        if (ok)
            seen[v] = 1;
        row[i] = (int)v;
    }
    Py_DECREF(seq);
    if (!ok)
        PyErr_Format(PyExc_ValueError, "%s is not a permutation of 0..%d", name, d - 1);
    return ok ? 0 : -1;
}

static int read_datum(PyObject *top, PyObject *bot, PyObject *lengths, Datum *D)
{
    PyObject *seq = PySequence_Fast(lengths, "lengths must be a sequence of floats");
    if (seq == NULL)
        return -1;
    Py_ssize_t d = PySequence_Fast_GET_SIZE(seq);
    if (d < 2 || d > MAXD)
        PyErr_Format(PyExc_ValueError, "the compiled kernel takes 2 to %d letters, not %zd",
                     MAXD, d);
    D->d = (int)d;
    D->total = 0.0;
    for (int i = 0; i < D->d && !PyErr_Occurred(); i++) {
        D->len[i] = PyFloat_AsDouble(PySequence_Fast_GET_ITEM(seq, i));
        D->total += D->len[i];
    }
    Py_DECREF(seq);
    if (PyErr_Occurred() || read_row(top, D->d, D->top, "top") < 0
        || read_row(bot, D->d, D->bot, "bot") < 0)
        return -1;
    if (D->top[D->d - 1] == D->bot[D->d - 1]) {
        PyErr_SetString(PyExc_ValueError, "top and bot end with the same letter");
        return -1;
    }
    return 0;
}

static int read_phi(PyObject *obj, Phi *phi)
{
    const char *kind;
    PyObject *spec = PySequence_Tuple(obj);
    if (spec == NULL)
        return -1;
    if (PyTuple_GET_SIZE(spec) != 3)
        PyErr_SetString(PyExc_ValueError, "phi must be a (kind, c, p) spec");
    else if (PyArg_ParseTuple(spec, "sdd", &kind, &phi->c, &phi->p)) {
        for (phi->kind = 0; phi->kind < PHI_NKINDS; phi->kind++)
            if (strcmp(kind, PHI_KINDS[phi->kind]) == 0)
                break;
        if (phi->kind == PHI_NKINDS)
            PyErr_Format(PyExc_ValueError, "unknown phi kind '%s'", kind);
    }
    Py_DECREF(spec);
    return PyErr_Occurred() ? -1 : 0;
}

/* phi(n) for n >= 1, as _kernel.phi_at computes it. */
static double phi_at(const Phi *phi, long long n)
{
    double x = (double)n, lg;
    switch (phi->kind) {
    case PHI_ZERO:
        return 0.0;
    case PHI_CONST:
        return phi->c;
    case PHI_LOG1:
        return phi->c / (x * log((double)(n + 1)));
    case PHI_LOG2:
        lg = log((double)(n + 1));
        return phi->c / ((x * lg) * lg);
    default:
        return phi->c / pow(x, phi->p);
    }
}

/* |x| as the pure kernel takes it: a negative zero stays as it is. */
static double absval(double x)
{
    return x < 0.0 ? -x : x;
}

/* Append item, a new reference or NULL, to list; the item is released. */
static int append_new(PyObject *list, PyObject *item)
{
    int failed = item == NULL || PyList_Append(list, item) < 0;
    Py_XDECREF(item);
    return failed ? -1 : 0;
}

static void left_endpoints(const int *row, const double *len, int d, double *u)
{
    double acc = 0.0;
    for (int i = 0; i < d; i++) {
        u[row[i]] = acc;
        acc += len[row[i]];
    }
}

/* The pieces [left, right) of one row and the shift that carries each piece
 * to its place in the other row, whose left endpoints are u_other. */
typedef struct { double left[MAXD], right[MAXD], shift[MAXD]; } Breaks;

static void row_breaks(const int *row, const double *len, int d, const double *u_other,
                       Breaks *b)
{
    double acc = 0.0;
    for (int i = 0; i < d; i++) {
        b->left[i] = acc;
        b->right[i] = acc + len[row[i]];
        b->shift[i] = u_other[row[i]] - acc;
        acc += len[row[i]];
    }
}

/* Move the loser, the row's last letter, to just after the winner.  The
 * winner is another letter of the row, since the rows end differently. */
static void insert_after_winner(int *row, int d, int winner, int loser)
{
    int pos = 0;
    while (row[pos] != winner)
        pos++;
    for (int i = d - 1; i > pos + 1; i--)
        row[i] = row[i - 1];
    row[pos + 1] = loser;
}

/* One float induction step.  Returns the arrow type (0 top, 1 bottom) and
 * sets winner and loser, or returns -1 with stop set to TIE or PRECISION
 * when the two last lengths lie within the guard band. */
static int induction_step(Datum *D, double band, int *winner, int *loser, int *stop)
{
    int d = D->d;
    double lt = D->len[D->top[d - 1]], lb = D->len[D->bot[d - 1]];
    if (absval(lt - lb) < band * D->total) {
        *stop = lt == lb ? TIE : PRECISION;
        return -1;
    }
    int kind_top = lt > lb;
    *winner = kind_top ? D->top[d - 1] : D->bot[d - 1];
    *loser = kind_top ? D->bot[d - 1] : D->top[d - 1];
    D->len[*winner] = D->len[*winner] - D->len[*loser];
    insert_after_winner(kind_top ? D->bot : D->top, d, *winner, *loser);
    D->total = D->total - D->len[*loser];
    return kind_top ? 0 : 1;
}

static PyObject *induction_arrows(PyObject *self, PyObject *args, PyObject *kwargs)
{
    static char *kwlist[] = {"top", "bot", "lengths", "max_steps", "band", NULL};
    PyObject *top, *bot, *lengths;
    long long max_steps;
    double band;
    Datum D;
    if (!PyArg_ParseTupleAndKeywords(args, kwargs, "OOOLd", kwlist, &top, &bot, &lengths,
                                     &max_steps, &band)
        || read_datum(top, bot, lengths, &D) < 0)
        return NULL;
    PyObject *types = PyList_New(0);
    if (types == NULL)
        return NULL;
    int status = OK, winner, loser;
    for (long long step = 0; step < max_steps; step++) {
        int kind = induction_step(&D, band, &winner, &loser, &status);
        if (kind < 0)
            break;
        if (append_new(types, PyLong_FromLong(kind)) < 0) {
            Py_DECREF(types);
            return NULL;
        }
    }
    return Py_BuildValue("(Ni)", types, status);
}

static PyObject *scan_solutions(PyObject *self, PyObject *args, PyObject *kwargs)
{
    static char *kwlist[] = {"top", "bot", "lengths", "n_max", "phi", "band", "max_steps", NULL};
    PyObject *top, *bot, *lengths, *phi_spec;
    long long n_max, max_steps, steps = 0;
    double band;
    Datum D;
    Phi phi;
    if (!PyArg_ParseTupleAndKeywords(args, kwargs, "OOOLOdL", kwlist, &top, &bot, &lengths,
                                     &n_max, &phi_spec, &band, &max_steps)
        || read_datum(top, bot, lengths, &D) < 0 || read_phi(phi_spec, &phi) < 0)
        return NULL;
    int d = D.d, status = OK, beta_ok[MAXD], alpha_ok[MAXD];
    long long l_cnt[MAXD] = {0}, h_cnt[MAXD] = {0}, q_cnt[MAXD];
    double u_top[MAXD], u_bot[MAXD];
    for (int i = 0; i < d; i++) {
        q_cnt[i] = 1;
        alpha_ok[D.top[i]] = i > 0;
        beta_ok[D.bot[i]] = i > 0;
    }
    PyObject *cands = PyList_New(0);
    if (cands == NULL)
        return NULL;
    for (;;) {
        /* d >= 2, so both minima are over at least one letter */
        long long min_l = LLONG_MAX, min_h = LLONG_MAX, reach;
        int winner, loser;
        for (int i = 0; i < d; i++) {
            if (beta_ok[i] && l_cnt[i] < min_l)
                min_l = l_cnt[i];
            if (alpha_ok[i] && h_cnt[i] < min_h)
                min_h = h_cnt[i];
        }
        /* the counters are non-negative, so an overflowing sum exceeds n_max */
        if (__builtin_add_overflow(min_l, min_h, &reach) || reach > n_max)
            break;
        if (steps >= max_steps) {
            status = BUDGET;
            break;
        }
        int kind = induction_step(&D, band, &winner, &loser, &status);
        if (kind < 0)
            break;
        long long *counter = kind == 0 ? &l_cnt[loser] : &h_cnt[loser];
        if (__builtin_add_overflow(*counter, q_cnt[winner], counter)
            || __builtin_add_overflow(q_cnt[loser], q_cnt[winner], &q_cnt[loser])) {
            PyErr_SetString(PyExc_OverflowError, "return-time counter overflow");
            Py_DECREF(cands);
            return NULL;
        }
        steps++;
        left_endpoints(D.top, D.len, d, u_top);
        left_endpoints(D.bot, D.len, d, u_bot);
        if (!(kind == 0 ? beta_ok : alpha_ok)[loser])
            continue;
        /* the loser closes a triple with every admissible partner letter */
        for (int j = 0; j < d; j++) {
            int beta = kind == 0 ? loser : j, alpha = kind == 0 ? j : loser;
            long long n;
            if (!beta_ok[beta] || !alpha_ok[alpha]
                || __builtin_add_overflow(l_cnt[beta], h_cnt[alpha], &n) || n < 1 || n > n_max)
                continue;
            double gap = absval(u_bot[beta] - u_top[alpha]), bound = phi_at(&phi, n);
            if (absval(gap - bound) < band * D.total) {
                status = PRECISION;
                goto done;
            }
            if (gap < bound
                && append_new(cands, Py_BuildValue("(iiLd)", beta, alpha, n, gap)) < 0) {
                Py_DECREF(cands);
                return NULL;
            }
        }
    }
done:
    return Py_BuildValue("(iNL)", status, cands, steps);
}

static int within_band(double x, double edge, double guard)
{
    return x != edge && edge - guard < x && x < edge + guard;
}

/* The piece that holds x, or -1 when x lies within the guard band of an
 * edge met before it, or in no piece. */
static int locate(double x, const Breaks *b, int d, double guard)
{
    for (int i = 0; i < d; i++) {
        if (within_band(x, b->left[i], guard) || within_band(x, b->right[i], guard))
            return -1;
        if (b->left[i] <= x && x < b->right[i])
            return i;
    }
    return -1;
}

/* The pullback test of _kernel.reduced_check; forward holds n + 1 points. */
static int pullback(const Datum *D, int beta, int alpha, long long n, double band,
                    double *forward, double *gap)
{
    int d = D->d, nsing = 0;
    double u_top[MAXD], u_bot[MAXD], sing[2 * MAXD], guard = band * D->total;
    Breaks tb, bb;
    left_endpoints(D->top, D->len, d, u_top);
    left_endpoints(D->bot, D->len, d, u_bot);
    row_breaks(D->top, D->len, d, u_bot, &tb);
    row_breaks(D->bot, D->len, d, u_top, &bb);
    for (int i = 1; i < d; i++) {
        sing[nsing++] = u_top[D->top[i]];
        sing[nsing++] = u_bot[D->bot[i]];
    }
    *gap = 0.0;
    forward[0] = u_bot[beta];
    for (long long j = 0; j < n; j++) {
        int piece = locate(forward[j], &tb, d, guard);
        if (piece < 0)
            return PRECISION;
        forward[j + 1] = forward[j] + tb.shift[piece];
    }
    double target = u_top[alpha], back = target;
    *gap = absval(forward[n] - target);
    if (*gap < guard)
        return PRECISION;
    for (long long k = 0; k <= n; k++) {
        double x = forward[n - k];
        double lo = x < back ? x : back, hi = x < back ? back : x;
        for (int i = 0; i < nsing; i++) {
            if (within_band(lo, sing[i], guard) || within_band(hi, sing[i], guard))
                return PRECISION;
            if (lo < sing[i] && sing[i] < hi)
                return NOT_REDUCED;
        }
        if (k < n) {
            int piece = locate(back, &bb, d, guard);
            if (piece < 0)
                return PRECISION;
            back = back + bb.shift[piece];
        }
    }
    return REDUCED;
}

static PyObject *reduced_check(PyObject *self, PyObject *args, PyObject *kwargs)
{
    static char *kwlist[] = {"top", "bot", "lengths", "beta", "alpha", "n", "band", NULL};
    PyObject *top, *bot, *lengths;
    long long beta, alpha, n;
    double band, gap;
    Datum D;
    if (!PyArg_ParseTupleAndKeywords(args, kwargs, "OOOLLLd", kwlist, &top, &bot, &lengths,
                                     &beta, &alpha, &n, &band)
        || read_datum(top, bot, lengths, &D) < 0)
        return NULL;
    if (beta < 0 || beta >= D.d || alpha < 0 || alpha >= D.d || n < 0) {
        PyErr_Format(PyExc_ValueError, "need 0 <= beta, alpha < %d and n >= 0", D.d);
        return NULL;
    }
    double *forward = PyMem_New(double, (size_t)n + 1);
    if (forward == NULL)
        return PyErr_NoMemory();
    int status = pullback(&D, (int)beta, (int)alpha, n, band, forward, &gap);
    PyMem_Free(forward);
    return Py_BuildValue("(id)", status, gap);
}

#define METHOD(name) \
    {#name, (PyCFunction)(void (*)(void))name, METH_VARARGS | METH_KEYWORDS, \
     "Compiled twin of _kernel." #name "."}

static PyMethodDef methods[] = {
    METHOD(induction_arrows), METHOD(scan_solutions), METHOD(reduced_check), {NULL, NULL, 0, NULL},
};

static struct PyModuleDef module = {
    PyModuleDef_HEAD_INIT, "ietkhinchin._speedups",
    "Compiled twins of the pure-Python kernels in ietkhinchin._kernel.", -1, methods,
};

PyMODINIT_FUNC PyInit__speedups(void)
{
    PyObject *m = PyModule_Create(&module);
    if (m != NULL && PyModule_AddIntConstant(m, "MAXD", MAXD) < 0)
        Py_CLEAR(m);
    return m;
}
