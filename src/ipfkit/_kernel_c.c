/* Compiled branch-and-bound kernel for minimum induced path factors.
 *
 * Mirrors _kernel_py.solve_min_ipf exactly: same branching order, same
 * bound (count + 1), same budget handling.  Results (count, witness edges,
 * node count, truncated) must be identical to the pure-Python kernel on
 * every input; that module describes the search, the skipped left arm at
 * v's highest free neighbour, the bound, the last-path closure
 * (close_last) and the budget checks on counted nodes and on growth
 * steps.
 *
 * Dead nodes: grow returns once count + 2 >= best_count.  From then on the
 * bound cuts every child before it is counted, except a path covering all
 * of avail; that path exists only when G[avail] is itself a path, and it
 * is then the first path the enumeration closes (both arms grow to their
 * ends before any close), so it was tried before the incumbent fell.
 *
 * Counting identity: while count + 3 == best_count, a child improves only
 * if avail minus the closed path A is one induced path B, and then the sum
 * of c(x) = deg_U(x) - 2 over A equals target = e(U) - |U| on any host
 * (U = avail; the degrees over A sum to 2e(A) + e(A, B), and e(U) = e(A) +
 * e(B) + e(A, B) with e(A) = |A| - 1 and e(B) = |B| - 1).  solve computes
 * target, the arms carry the running sum p, close_path drops a path with
 * p != target that leaves vertices uncovered, and grow stops once
 * p - 2 > target on the left arm or p - 1 > target on the right arm (a
 * later vertex has c >= -1, and one with c = -1 ends its arm).  The
 * condition is tested on every call, because best_count falls while a
 * node enumerates.  Only children whose close_last would fail are
 * dropped, so rho, witnesses and the order of incumbents stay those of
 * the full enumeration; the Python twin gives the proof in full.
 *
 * A plain CPython extension, built by setup.py with any C compiler:
 *     python3 setup.py build_ext --inplace
 */

#define PY_SSIZE_T_CLEAN
#include <Python.h>

typedef unsigned long long u64;

#if defined(__GNUC__) || defined(__clang__)
#define POPCNT(x) __builtin_popcountll(x)
#define CTZ(x) __builtin_ctzll(x)
#else
static int POPCNT(u64 x)
{ int c = 0; while (x) { x &= x - 1; c++; } return c; }
static int CTZ(u64 x)
{ int c = 0; while (!(x & 1ULL)) { x >>= 1; c++; } return c; }
#endif

#define MAXN 62

typedef struct {
    u64 adj[MAXN];
    u64 full;
    int best_count, best_len, truncated;
    long long node_limit, nodes, steps;
    PyObject *monotonic;  /* time.monotonic, or NULL without a time limit */
    double deadline;
    int eu[MAXN], ev[MAXN];    /* edges of the partial IPF being built */
    int beu[MAXN], bev[MAXN];  /* edges of the best IPF found */
} Solver;

static void solve(Solver *s, u64 covered, int count, int depth);
static void grow(Solver *s, u64 covered, int count, u64 avail, int v,
                 int target, u64 path, int p, int tip, int lfirst,
                 int left_done, int depth);

static void push_edge(Solver *s, int depth, int a, int b)
{
    s->eu[depth] = a < b ? a : b;
    s->ev[depth] = a < b ? b : a;
}

/* time.monotonic(), the clock the Python twin reads; -1.0 with the error
 * set if the call raises. */
static double now(Solver *s)
{
    PyObject *t = PyObject_CallNoArgs(s->monotonic);
    double d;
    if (t == NULL)
        return -1.0;
    d = PyFloat_AsDouble(t);
    Py_DECREF(t);
    return d;
}

/* The budget check of a growth step: with a time limit, read the clock on
 * every 4096th step; once the budget is out, stop growing. */
static int out_of_time(Solver *s)
{
    if (!s->monotonic)
        return 0;
    if (s->truncated || (++s->steps % 4096 == 0
                         && (now(s) > s->deadline || PyErr_Occurred())))
        s->truncated = 1;
    return s->truncated;
}

/* One path must cover avail: record count + 1 when G[avail] is a path,
 * walking it from an end vertex onto eu/ev at depth. */
static void close_last(Solver *s, u64 avail, int count, int depth)
{
    u64 bits = avail, seen, nxt;
    int end = -1, tip, d;
    while (bits) {
        int w = CTZ(bits);
        bits &= bits - 1;
        d = POPCNT(s->adj[w] & avail);
        if (d > 2)
            return;
        if (d < 2 && end < 0)
            end = w;
    }
    if (end < 0)
        return;  /* a cycle, or cycles only */
    seen = 1ULL << end;
    tip = end;
    nxt = s->adj[tip] & avail;
    while (nxt) {
        int w = CTZ(nxt);
        push_edge(s, depth++, tip, w);
        seen |= nxt;
        tip = w;
        nxt = s->adj[tip] & avail & ~seen;
    }
    if (seen == avail)
        solve(s, s->full, count + 1, depth);  /* records the cover */
}

/* c(w) = deg_U(w) - 2 of the counting identity, U = avail. */
static int excess(Solver *s, u64 avail, int w)
{
    return POPCNT(s->adj[w] & avail) - 2;
}

/* Close the path: the child solve, unless count + 3 == best_count and the
 * path's sum p misses the target while leaving vertices uncovered, so
 * that the child's close_last would fail. */
static void close_path(Solver *s, u64 covered, int count, u64 avail,
                       int target, u64 path, int p, int depth)
{
    if (count + 3 == s->best_count && p != target && path != avail)
        return;
    solve(s, covered | path, count + 1, depth);
}

/* Start the right arm at v; lfirst is the first vertex of the left arm,
 * or -1 when the left arm is empty. */
static void grow_right(Solver *s, u64 covered, int count, u64 avail, int v,
                       int target, u64 path, int p, int lfirst, int depth)
{
    u64 cands = s->adj[v] & avail & ~path;
    u64 blocked = path & ~(1ULL << v);
    while (cands) {
        u64 wbit = cands & (0 - cands);
        int w = CTZ(wbit);
        cands ^= wbit;
        if (lfirst >= 0 && w <= lfirst)
            continue;  /* reflection dedup: right arm starts above left */
        if (s->adj[w] & blocked)
            continue;
        push_edge(s, depth, v, w);
        grow(s, covered, count, avail, v, target, path | wbit,
             p + excess(s, avail, w), w, lfirst, 1, depth + 1);
    }
    /* empty right arm: close here only when the left arm is also empty,
     * otherwise the reversed orientation covers this path */
    if (lfirst < 0)
        close_path(s, covered, count, avail, target, path, p, depth);
}

/* Extend the current arm at tip, longest extensions first; p is the sum
 * of c over the path. */
static void grow(Solver *s, u64 covered, int count, u64 avail, int v,
                 int target, u64 path, int p, int tip, int lfirst,
                 int left_done, int depth)
{
    u64 cands, blocked;
    if (out_of_time(s) || count + 2 >= s->best_count)
        return;  /* out of time, or a dead node (see the header) */
    if (count + 3 == s->best_count && p - (left_done ? 1 : 2) > target)
        return;  /* every later vertex adds at least -1, an arm's end */
    cands = s->adj[tip] & avail & ~path;
    blocked = path & ~(1ULL << tip);
    while (cands) {
        u64 wbit = cands & (0 - cands);
        int w = CTZ(wbit);
        cands ^= wbit;
        if (s->adj[w] & blocked)
            continue;  /* chord against the rest of the path */
        push_edge(s, depth, tip, w);
        grow(s, covered, count, avail, v, target, path | wbit,
             p + excess(s, avail, w), w, lfirst, left_done, depth + 1);
    }
    if (!left_done)
        grow_right(s, covered, count, avail, v, target, path, p, lfirst,
                   depth);
    else
        close_path(s, covered, count, avail, target, path, p, depth);
}

static void solve(Solver *s, u64 covered, int count, int depth)
{
    u64 avail, lbits, bits;
    int v, target, pv;
    if (covered == s->full) {
        if (count < s->best_count) {
            s->best_count = count;
            s->best_len = depth;
            memcpy(s->beu, s->eu, depth * sizeof(int));
            memcpy(s->bev, s->ev, depth * sizeof(int));
        }
        return;
    }
    if (s->truncated)
        return;
    if (count + 1 >= s->best_count)
        return;
    s->nodes++;
    if ((s->node_limit && s->nodes > s->node_limit)
            || (s->monotonic && s->nodes % 4096 == 0
                && (now(s) > s->deadline || PyErr_Occurred()))) {
        s->truncated = 1;
        return;
    }
    avail = s->full ^ covered;
    if (count + 2 == s->best_count) {
        close_last(s, avail, count, depth);
        return;
    }
    v = CTZ(avail);
    /* the counting identity's target e(U) - |U| (see the header) */
    target = 0;
    for (bits = avail; bits; bits &= bits - 1)
        target += POPCNT(s->adj[CTZ(bits)] & avail);
    target = target / 2 - POPCNT(avail);
    pv = excess(s, avail, v);
    /* left arm rooted at v; its first vertex caps the right arm's first
     * vertex so each path is enumerated once, and the arm started at v's
     * highest free neighbour, which no right arm can follow, is skipped */
    lbits = s->adj[v] & avail;
    while (lbits & (lbits - 1)) {
        u64 wbit = lbits & (0 - lbits);
        int w = CTZ(wbit);
        lbits ^= wbit;
        push_edge(s, depth, v, w);
        grow(s, covered, count, avail, v, target, (1ULL << v) | wbit,
             pv + excess(s, avail, w), w, w, 0, depth + 1);
    }
    /* no left arm: v is an endpoint (or trivial) */
    grow_right(s, covered, count, avail, v, target, 1ULL << v, pv, -1,
               depth);
}

static PyObject *solve_min_ipf(PyObject *self, PyObject *args, PyObject *kw)
{
    static char *kwlist[] = {"n", "adj", "node_limit", "time_limit", NULL};
    int n, i;
    long long node_limit = 0;
    double time_limit = 0.0;
    PyObject *adj, *edges;
    Solver s;

    if (!PyArg_ParseTupleAndKeywords(args, kw, "iO|Ld:solve_min_ipf",
                                     kwlist, &n, &adj, &node_limit,
                                     &time_limit))
        return NULL;
    if (n < 0 || n > MAXN) {
        PyErr_SetString(PyExc_ValueError,
                        "kernel supports at most 62 vertices");
        return NULL;
    }
    memset(&s, 0, sizeof s);
    for (i = 0; i < n; i++) {
        PyObject *item = PySequence_GetItem(adj, i);
        if (item == NULL)
            return NULL;
        s.adj[i] = PyLong_AsUnsignedLongLong(item);
        Py_DECREF(item);
        if (s.adj[i] == (u64)-1 && PyErr_Occurred())
            return NULL;
    }
    s.full = (1ULL << n) - 1;
    s.node_limit = node_limit;
    s.best_count = n;
    if (time_limit != 0.0) {
        PyObject *time = PyImport_ImportModule("time");
        if (time == NULL)
            return NULL;
        s.monotonic = PyObject_GetAttrString(time, "monotonic");
        Py_DECREF(time);
        if (s.monotonic == NULL)
            return NULL;
        s.deadline = now(&s) + time_limit;
        if (PyErr_Occurred()) {
            Py_DECREF(s.monotonic);
            return NULL;
        }
    }
    solve(&s, 0, 0, 0);
    Py_XDECREF(s.monotonic);
    if (PyErr_Occurred())
        return NULL;
    edges = PyList_New(s.best_len);
    if (edges == NULL)
        return NULL;
    for (i = 0; i < s.best_len; i++) {
        PyObject *e = Py_BuildValue("(ii)", s.beu[i], s.bev[i]);
        if (e == NULL) {
            Py_DECREF(edges);
            return NULL;
        }
        PyList_SET_ITEM(edges, i, e);
    }
    return Py_BuildValue("(iNLO)", s.best_count, edges, s.nodes,
                         s.truncated ? Py_True : Py_False);
}

static PyMethodDef methods[] = {
    {"solve_min_ipf", (PyCFunction)(void (*)(void))solve_min_ipf,
     METH_VARARGS | METH_KEYWORDS,
     "solve_min_ipf(n, adj, node_limit=0, time_limit=0.0)\n--\n\n"
     "Return (best_count, best_edges, nodes, truncated)."},
    {NULL, NULL, 0, NULL}
};

static struct PyModuleDef module = {
    PyModuleDef_HEAD_INIT, "_kernel_c",
    "Compiled branch-and-bound kernel for minimum induced path factors.",
    -1, methods
};

PyMODINIT_FUNC PyInit__kernel_c(void)
{
    return PyModule_Create(&module);
}
