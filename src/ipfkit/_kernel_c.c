/* Compiled branch-and-bound kernel for minimum induced path factors.
 *
 * Mirrors _kernel_py.solve_min_ipf exactly: same branching order, same
 * prunes, same budget handling.  Results (count, witness edges, node
 * count, truncated) must be identical to the pure-Python kernel on every
 * input.  The docstring of _kernel_py describes each mechanism and proves
 * it changes no result; the sections are named there as here:
 *
 *   search and left arms   the opening paragraphs (solve, grow, grow_right)
 *   last-path closure      "Last-path closure" (close_last)
 *   dead nodes             "Dead nodes" (the count + 2 return in grow)
 *   counting identity      "Counting identity" (close_path, Node.target)
 *   end-count bound        "End-count bound" (weight, close_path, grow)
 *   seen states            "Seen states" (seen_before)
 *   upper bound            "Upper bound"
 *   budget                 "Budget" (out_of_time and the check in solve)
 *
 * The seen-state table is C's own: an open-addressing hash table of u64
 * keys (covered + 1; 0 marks a free slot) and u8 counts that doubles while
 * it is at most half full.  At seen_cap states it takes 2 * seen_cap slots
 * of 9 bytes, rounded up to a power of two, or 18.9 MB at seen_cap = 2^20.
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

/* The seen-state table: slot i holds the covered set keys[i] - 1 (a free
 * slot holds 0) and the lowest count at which solve entered it. */
typedef struct {
    u64 *keys;
    unsigned char *counts;
    size_t mask, used, cap;  /* slots - 1, states held, most states held */
} Seen;

typedef struct {
    u64 adj[MAXN];
    u64 full;
    int best_count, best_len, truncated;
    long long node_limit, nodes, steps;
    PyObject *monotonic;  /* time.monotonic, or NULL without a time limit */
    double deadline;
    int eu[MAXN], ev[MAXN];    /* edges of the partial IPF being built */
    int beu[MAXN], bev[MAXN];  /* edges of the best IPF found */
    Seen seen;
} Solver;

/* The node being enumerated: its uncovered set avail, branch vertex v and
 * the counting identity's target e(U) - |U|. */
typedef struct {
    u64 covered, avail;
    int count, v, target;
} Node;

static void solve(Solver *s, u64 covered, int count, int depth);
static void grow(Solver *s, const Node *nd, u64 path, int p, int tip,
                 u64 rstarts, u64 settled, int f, u64 fresh, int depth);

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

static size_t seen_slot(const Seen *t, u64 key)
{
    size_t i = (size_t)((key * 0x9E3779B97F4A7C15ULL) >> 32) & t->mask;
    while (t->keys[i] && t->keys[i] != key)
        i = (i + 1) & t->mask;
    return i;
}

/* Allocate a table of the given power-of-two number of slots and move the
 * states of t into it; 0, with MemoryError set, if the memory is not
 * there. */
static int seen_resize(Seen *t, size_t slots)
{
    Seen nt = *t;
    size_t i;
    nt.keys = PyMem_Calloc(slots, sizeof(u64));
    nt.counts = PyMem_Malloc(slots);
    if (nt.keys == NULL || nt.counts == NULL) {
        PyMem_Free(nt.keys);
        PyMem_Free(nt.counts);
        PyErr_NoMemory();
        return 0;
    }
    nt.mask = slots - 1;
    for (i = 0; t->keys && i <= t->mask; i++)
        if (t->keys[i]) {
            size_t j = seen_slot(&nt, t->keys[i]);
            nt.keys[j] = t->keys[i];
            nt.counts[j] = t->counts[i];
        }
    PyMem_Free(t->keys);
    PyMem_Free(t->counts);
    *t = nt;
    return 1;
}

/* Whether the state was entered before at a count no higher; if not, note
 * it at count: lower its count, or insert it while the table holds fewer
 * than cap states.  Sets truncated when the table cannot grow. */
static int seen_before(Solver *s, u64 covered, int count)
{
    Seen *t = &s->seen;
    u64 key = covered + 1;
    size_t i;
    if (!t->cap)
        return 0;
    i = seen_slot(t, key);
    if (t->keys[i]) {
        if (t->counts[i] <= count)
            return 1;
        t->counts[i] = (unsigned char)count;
        return 0;
    }
    if (t->used == t->cap)
        return 0;
    if (2 * (t->used + 1) > t->mask + 1) {
        if (!seen_resize(t, 2 * (t->mask + 1))) {
            s->truncated = 1;
            return 1;
        }
        i = seen_slot(t, key);
    }
    t->keys[i] = key;
    t->counts[i] = (unsigned char)count;
    t->used++;
    return 0;
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

/* The end weight of a vertex whose free neighbours are nb: 2 for none, 1
 * when they are pairwise adjacent, else 0. */
static int weight(Solver *s, u64 nb)
{
    u64 bits;
    if (!(nb & (nb - 1)))
        return nb ? 1 : 2;
    for (bits = nb; bits; bits &= bits - 1)
        if ((nb & ~s->adj[CTZ(bits)]) != (bits & (0 - bits)))
            return 0;
    return 1;
}

/* Close the path: the child solve, unless it cannot beat best_count.  At
 * count + 3 == best_count that is a sum p that misses the target while
 * leaving vertices uncovered, so that the child's close_last would fail;
 * below, the end weight of what is left needing too many paths. */
static void close_path(Solver *s, const Node *nd, u64 path, int p,
                       int depth)
{
    int count = nd->count;
    if (count + 3 == s->best_count) {
        if (p != nd->target && path != nd->avail)
            return;
    } else if (count + 4 <= s->best_count) {
        u64 rest = nd->avail & ~path, bits;
        int f = 0;
        for (bits = rest; bits; bits &= bits - 1)
            f += weight(s, s->adj[CTZ(bits)] & rest);
        if (f > 2 * (s->best_count - count) - 4)
            return;
    }
    solve(s, nd->covered | path, count + 1, depth);
}

/* Start the right arm at v from each of rstarts, the possible starts left
 * by the left arm; fresh holds the neighbours of v and of the left arm's
 * tip, which the first step settles. */
static void grow_right(Solver *s, const Node *nd, u64 path, int p,
                       u64 rstarts, u64 settled, int f, u64 fresh,
                       int depth)
{
    u64 cands = rstarts;
    while (cands) {
        u64 wbit = cands & (0 - cands);
        int w = CTZ(wbit);
        cands ^= wbit;
        push_edge(s, depth, nd->v, w);
        grow(s, nd, path | wbit, p + excess(s, nd->avail, w), w, 0,
             settled, f, fresh, depth + 1);
    }
    /* empty right arm: close here only when the left arm is also empty,
     * otherwise the reversed orientation covers this path */
    if (path == 1ULL << nd->v)
        close_path(s, nd, path, p, depth);
}

/* Extend the current arm at tip, longest extensions first: the left arm
 * while rstarts, its possible right-arm starts, is not empty, else the
 * right arm.  p is the sum of c over the path, f the end weight of the
 * settled set, which the free vertices of fresh (the neighbours of the
 * previous tip) now join. */
static void grow(Solver *s, const Node *nd, u64 path, int p, int tip,
                 u64 rstarts, u64 settled, int f, u64 fresh, int depth)
{
    u64 rest, bits, cands, blocked, tipbit = 1ULL << tip;
    int count = nd->count;
    if (out_of_time(s) || count + 2 >= s->best_count)
        return;  /* out of time, or a dead node (see _kernel_py) */
    rest = nd->avail & ~path;
    for (bits = settled & s->adj[tip]; bits; bits &= bits - 1) {
        u64 nb = s->adj[CTZ(bits)] & rest;
        f += weight(s, nb) - weight(s, nb | tipbit);
    }
    bits = fresh & rest & ~settled;
    settled |= bits;
    for (; bits; bits &= bits - 1)
        f += weight(s, s->adj[CTZ(bits)] & rest);
    if (f > 2 * (s->best_count - count) - 4)
        return;  /* the settled ends need count + 1 + ceil(f/2) paths */
    cands = s->adj[tip] & rest;
    blocked = path & ~tipbit;
    while (cands) {
        u64 wbit = cands & (0 - cands), rs;
        int w = CTZ(wbit);
        cands ^= wbit;
        if (s->adj[w] & blocked)
            continue;  /* chord against the rest of the path */
        rs = rstarts & ~s->adj[w];
        if (rstarts && !rs)
            continue;  /* no right arm can follow: closes nothing */
        push_edge(s, depth, tip, w);
        grow(s, nd, path | wbit, p + excess(s, nd->avail, w), w, rs,
             settled, f, s->adj[tip], depth + 1);
    }
    if (rstarts)
        grow_right(s, nd, path, p, rstarts, settled, f,
                   s->adj[tip] | s->adj[nd->v], depth);
    else
        close_path(s, nd, path, p, depth);
}

static void solve(Solver *s, u64 covered, int count, int depth)
{
    u64 avail, nbrs, lbits, bits;
    int v, pv;
    Node nd;
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
    if (count + 1 >= s->best_count || seen_before(s, covered, count))
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
    nd.covered = covered;
    nd.avail = avail;
    nd.count = count;
    nd.v = v;
    /* the counting identity's target e(U) - |U| (see _kernel_py) */
    nd.target = 0;
    for (bits = avail; bits; bits &= bits - 1)
        nd.target += POPCNT(s->adj[CTZ(bits)] & avail);
    nd.target = nd.target / 2 - POPCNT(avail);
    pv = excess(s, avail, v);
    /* left arm rooted at v; a right arm starts at a free neighbour of v
     * above the left arm's first vertex, so each path is enumerated once,
     * and a left arm that leaves no such start closes nothing and is not
     * grown */
    nbrs = s->adj[v] & avail;
    for (lbits = nbrs; lbits; lbits &= lbits - 1) {
        u64 wbit = lbits & (0 - lbits);
        int w = CTZ(wbit);
        u64 rs = nbrs & ~((wbit << 1) - 1) & ~s->adj[w];
        if (!rs)
            continue;
        push_edge(s, depth, v, w);
        grow(s, &nd, (1ULL << v) | wbit, pv + excess(s, avail, w), w, rs,
             0, 0, 0, depth + 1);
    }
    /* no left arm: v is an endpoint (or trivial) */
    grow_right(s, &nd, 1ULL << v, pv, nbrs, 0, 0, s->adj[v], depth);
}

static PyObject *solve_min_ipf(PyObject *self, PyObject *args, PyObject *kw)
{
    static char *kwlist[] = {"n", "adj", "node_limit", "time_limit",
                             "upper", "seen_cap", NULL};
    int n, i, upper = 0;
    long long node_limit = 0, seen_cap = 0;
    double time_limit = 0.0;
    PyObject *adj, *edges;
    Solver s;

    if (!PyArg_ParseTupleAndKeywords(args, kw, "iO|LdiL:solve_min_ipf",
                                     kwlist, &n, &adj, &node_limit,
                                     &time_limit, &upper, &seen_cap))
        return NULL;
    if (n < 0 || n > MAXN) {
        PyErr_SetString(PyExc_ValueError,
                        "kernel supports at most 62 vertices");
        return NULL;
    }
    if (upper < 0 || seen_cap < 0) {
        PyErr_SetString(PyExc_ValueError,
                        "upper and seen_cap must be at least 0");
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
    s.best_count = upper && upper < n ? upper : n;
    s.seen.cap = (size_t)seen_cap;
    if (time_limit != 0.0) {
        PyObject *time = PyImport_ImportModule("time");
        if (time != NULL) {
            s.monotonic = PyObject_GetAttrString(time, "monotonic");
            Py_DECREF(time);
        }
        if (s.monotonic != NULL)
            s.deadline = now(&s) + time_limit;
    }
    if (!PyErr_Occurred() && (!seen_cap || seen_resize(&s.seen, 1024)))
        solve(&s, 0, 0, 0);
    Py_XDECREF(s.monotonic);
    PyMem_Free(s.seen.keys);
    PyMem_Free(s.seen.counts);
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
     "solve_min_ipf(n, adj, node_limit=0, time_limit=0.0, upper=0,"
     " seen_cap=0)\n--\n\n"
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
