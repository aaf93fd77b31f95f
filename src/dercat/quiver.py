"""Quivers, Dynkin classification, Euler form, positive roots.

Vertices are 1-based in files and 0-based everywhere in code; the parser and
printer do the translation.  All values are immutable after construction.

This is the bottom layer every other module imports, so it also holds the
package's error class InternalInconsistencyError, and integer, the one reader
of the integers in files and options.  All of it is integer arithmetic with
no matrix inversion: the inverse of the Euler matrix is the
path-count matrix (path_counts), which gives the projective dimension
vectors and the inverse Coxeter matrix.  The AR translate that it drives
lives in zq, as one tau-orbit table per quiver.  One topological sort
(_sinks_first) serves as the cycle check and as the sink-first vertex order.

Two tables are memoized per quiver (lru_cache keyed on the quiver, whose
hash is computed once).  roots_of(q) (Roots) is the one root context of the
product route: the positive roots numbered once, and Euler-form rows and
columns by root index; positive_roots reads its roots.  path_counts(q) gives
every projective and injective dimension vector.  The Quiver keeps its own
sink-first order, which sink_first_order returns.
"""

import heapq
from collections import namedtuple
from functools import lru_cache


class QuiverError(ValueError):
    pass


class QuiverFormatError(QuiverError):
    """Malformed quiver file."""


class NotDynkinError(QuiverError):
    """Operation requires a Dynkin quiver."""


class InternalInconsistencyError(RuntimeError):
    """An invariant the theory guarantees failed to hold; never expected."""


def _sinks_first(n, arrows):
    """Kahn's topological sort, least-numbered sink first: every arrow points
    from a later to an earlier vertex, in O(arrows + n log n): a heap of the
    ready sinks, and each vertex's in-arrows.  Raises QuiverError on a cycle."""
    outdeg, into = [0] * n, {}
    for s, t in arrows:
        outdeg[s] += 1
        into.setdefault(t, []).append(s)
    ready = [v for v in range(n) if not outdeg[v]]
    order = []
    while ready:
        v = heapq.heappop(ready)
        order.append(v)
        for s in into.get(v, ()):
            outdeg[s] -= 1
            if not outdeg[s]:
                heapq.heappush(ready, s)
    if len(order) != n:
        raise QuiverError("cycle detected")
    return tuple(order)


class Quiver:
    """Finite acyclic quiver: n vertices 0..n-1 and a tuple of (source, target) arrows.

    Immutable, compared by (n, arrows), with its hash, its neighbour lists
    and its sink-first order computed once: every memo below is keyed on it.
    """

    __slots__ = ("n", "arrows", "_hash", "_adj", "_order")

    def __init__(self, n, arrows):
        if n < 1:
            raise QuiverError("quiver needs at least one vertex")
        arrows = tuple((int(s), int(t)) for s, t in arrows)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "arrows", arrows)
        adj = {}   # a vertex with no arrow costs nothing here
        for s, t in arrows:
            if not (0 <= s < n and 0 <= t < n):
                raise QuiverError("arrow endpoint out of range: %d -> %d" % (s + 1, t + 1))
            if s == t:
                raise QuiverError("loop at vertex %d" % (s + 1))
            adj.setdefault(s, set()).add(t)
            adj.setdefault(t, set()).add(s)
        try:
            order = _sinks_first(n, arrows)  # the cycle check, kept as sink_first_order
        except (MemoryError, OverflowError):
            # [0] * n, refused at once: no memory holds this many vertices
            raise QuiverError("too many vertices: %d" % n) from None
        object.__setattr__(self, "_order", order)
        object.__setattr__(self, "_hash", hash((n, arrows)))
        object.__setattr__(self, "_adj", tuple(tuple(sorted(adj.get(v, ()))) for v in range(n)))

    def __setattr__(self, name, value):
        raise AttributeError("Quiver is immutable")

    def __delattr__(self, name):
        raise AttributeError("Quiver is immutable")

    def __eq__(self, other):
        if not isinstance(other, Quiver):
            return NotImplemented
        return self.n == other.n and self.arrows == other.arrows

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return "Quiver(n=%r, arrows=%r)" % (self.n, self.arrows)

    def __reduce__(self):
        # copy and pickle go through __init__: __setattr__ refuses a slot-by-slot restore
        return (Quiver, (self.n, self.arrows))

    def neighbors(self, v):
        return self._adj[v]

    def components(self):
        """Connected components of the underlying graph, each a sorted vertex list."""
        seen = [False] * self.n
        comps = []
        for v in range(self.n):
            if seen[v]:
                continue
            stack = [v]
            seen[v] = True
            comp = []
            while stack:
                u = stack.pop()
                comp.append(u)
                for w in self.neighbors(u):
                    if not seen[w]:
                        seen[w] = True
                        stack.append(w)
            comps.append(sorted(comp))
        return comps

    def is_connected(self):
        return len(self.components()) == 1


def integer(text):
    """The integer that text spells in ASCII digits with an optional leading
    "-": the one reader of every number from outside, in files and options.
    int() alone also takes "+1", "1_0", " 5" and other scripts' digits."""
    digits = text[1:] if text.startswith("-") else text
    if not (digits.isascii() and digits.isdigit()):
        raise ValueError("invalid integer value: %r" % text)
    return int(text)


def parse_quiver(text):
    """Parse the line-based quiver file format: `vertices <n>`, `arrow <i> <j>`."""
    n = None
    arrows = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        try:
            values = [integer(p) for p in parts[1:]]
        except ValueError:
            values = None
        if parts[0] == "vertices":
            if n is not None or values is None or len(values) != 1 or values[0] < 0:
                raise QuiverFormatError("malformed line %d: %r" % (lineno, raw))
            n = values[0]
        elif parts[0] == "arrow":
            if n is None:
                raise QuiverFormatError("malformed line %d: arrow before vertices" % lineno)
            if values is None or len(values) != 2:
                raise QuiverFormatError("malformed line %d: %r" % (lineno, raw))
            i, j = values
            if not (1 <= i <= n and 1 <= j <= n):
                raise QuiverFormatError("vertex out of range on line %d: %r" % (lineno, raw))
            arrows.append((i - 1, j - 1))
        else:
            raise QuiverFormatError("malformed line %d: %r" % (lineno, raw))
    if n is None:
        raise QuiverFormatError("missing `vertices` line")
    return Quiver(n, tuple(arrows))


class DynkinType(namedtuple("DynkinType", "family rank")):
    """ADE family and rank; family is None for non-Dynkin graphs."""

    __slots__ = ()

    @property
    def is_dynkin(self):
        return self.family is not None

    def __str__(self):
        return "%s%d" % (self.family, self.rank) if self.is_dynkin else "NotDynkin"


NOT_DYNKIN = DynkinType(None, 0)


def _classify_component(q, comp, arrows):
    n = len(comp)
    if arrows != n - 1:
        return NOT_DYNKIN  # connected with n-1 edges iff tree; multi-edges land here too
    # a tree has no multi-edge, so a degree is a neighbour count
    deg = {v: len(q.neighbors(v)) for v in comp}
    degs = sorted(deg.values(), reverse=True)
    if n == 1:
        return DynkinType("A", 1)
    if degs[0] <= 2:
        return DynkinType("A", n)
    if degs[0] >= 4 or degs.count(3) > 1:
        return NOT_DYNKIN
    center = next(v for v in comp if deg[v] == 3)
    legs = []
    for w in q.neighbors(center):
        length = 1
        prev, cur = center, w
        while True:
            nxt = [u for u in q.neighbors(cur) if u != prev]
            if not nxt:
                break
            prev, cur = cur, nxt[0]
            length += 1
        legs.append(length)
    legs.sort()
    if legs[:2] == [1, 1]:
        return DynkinType("D", n)
    if legs == [1, 2, 2]:
        return DynkinType("E", 6)
    if legs == [1, 2, 3]:
        return DynkinType("E", 7)
    if legs == [1, 2, 4]:
        return DynkinType("E", 8)
    return NOT_DYNKIN


def classify_components(q):
    """Per-component Dynkin types, in component order; one pass counts each
    component's arrows."""
    comps = q.components()
    where = {v: k for k, comp in enumerate(comps) for v in comp}
    arrows = [0] * len(comps)
    for s, _ in q.arrows:
        arrows[where[s]] += 1
    return tuple(_classify_component(q, c, a) for c, a in zip(comps, arrows))


def is_dynkin(q):
    return all(t.is_dynkin for t in classify_components(q))


def ensure_dynkin(q):
    if not is_dynkin(q):
        # the component types as `quiver validate` lists them, e.g. "NotDynkin, A1"
        raise NotDynkinError("quiver is not Dynkin: %s"
                             % ", ".join(str(k) for k in classify_components(q)))


def euler_matrix(q):
    """Matrix E with <d,e> = d^T E e, i.e. E = I - (arrow count matrix)."""
    e = [[int(i == j) for j in range(q.n)] for i in range(q.n)]
    for s, t in q.arrows:
        e[s][t] -= 1
    return e


def euler_form(q, d, e):
    """<d,e> = sum d_i e_i - sum over arrows i->j of d_i e_j."""
    if len(d) != q.n or len(e) != q.n:
        raise QuiverError("dimension vector length mismatch")
    total = sum(x * y for x, y in zip(d, e))
    for s, t in q.arrows:
        total -= d[s] * e[t]
    return total


def positive_roots(q):
    """All positive roots, sorted: the roots of the one root context, roots_of(q)."""
    return roots_of(q).roots


class _Table(dict):
    """self[a] = fill(a), computed on first lookup."""

    def __init__(self, fill):
        self.fill = fill

    def __missing__(self, a):
        value = self[a] = self.fill(a)
        return value


class Roots:
    """The per-quiver root context of the product route.

    roots: the positive roots, sorted, so index order is root order; index:
    root -> its number; rows[a][b] = cols[b][a] = <r_a, r_b>, each row or
    column built on first use (r_a^T E by bilinearity, then dots): no
    roots x roots table unless every root is asked about.

    The roots are grown height by height from the simple roots.  For a
    positive root r, r + e_i is a root exactly when the symmetric form
    (r, e_i) = 2 r_i - (sum of r_j over the neighbours j of i) is -1, and
    every root of height h + 1 > 1 is such an r + e_i with r of height h
    (Gabriel: the positive roots are the positive vectors of Tits form 1).
    Orientation-free: only the underlying graph enters.  Requires Dynkin input.
    """

    __slots__ = ("roots", "index", "rows", "cols", "_by_vertex")

    def __init__(self, q):
        ensure_dynkin(q)
        simple = [simple_root(q, i) for i in range(q.n)]
        level, roots = simple, list(simple)
        while level:
            level = {r[:i] + (r[i] + 1,) + r[i + 1:] for r in level for i in range(q.n)
                     if sum(r[j] for j in q.neighbors(i)) - 2 * r[i] == 1}
            roots.extend(level)
        roots = self.roots = tuple(sorted(roots))
        self.index = {r: a for a, r in enumerate(roots)}
        self._by_vertex = tuple(zip(*roots))
        self.rows = _Table(lambda a: self.dots([euler_form(q, roots[a], e) for e in simple]))
        self.cols = _Table(lambda b: self.dots([euler_form(q, e, roots[b]) for e in simple]))

    def dots(self, v):
        """The dot product of v with every root, by root index, added up
        vertex by vertex: the vertices where v is 0 cost nothing."""
        out = [0] * len(self.roots)
        for f, col in zip(v, self._by_vertex):
            if f:
                out = [u + f * w for u, w in zip(out, col)]
        return tuple(out)


# the one context per quiver: every product layer reads the same numbering
roots_of = lru_cache(maxsize=None)(Roots)


def simple_root(q, i):
    return tuple(1 if j == i else 0 for j in range(q.n))


def sink_first_order(q):
    """Vertex order in which every arrow points from a later to an earlier vertex.

    Processing vertices in this order keeps each one a sink of the partially
    reflected quiver, which is what the reflection-functor constructions need.
    The quiver sorted its vertices so once, as its cycle check.
    """
    return q._order


@lru_cache(maxsize=None)
def path_counts(q):
    """P[i][j] = number of directed paths from i to j (1 on the diagonal).

    P is the inverse of the Euler matrix: E = I - A for the arrow count matrix
    A, which is nilpotent, so E^-1 = I + A + A^2 + ...  Filled sinks first:
    row v is e_v plus the rows of the targets of v's arrows.  Memoized: each
    projective (proj_dims) and injective is read off it again and again.
    """
    rows = {}
    for v in sink_first_order(q):
        row = [int(v == j) for j in range(q.n)]
        for s, t in q.arrows:
            if s == v:
                row = [a + b for a, b in zip(row, rows[t])]
        rows[v] = row
    return tuple(tuple(rows[v]) for v in range(q.n))


def coxeter_inverse(q):
    """Integer matrix with dim(tau^-1 M) = C^-1 . dim(M) for non-injective
    indecomposables M: C^-1 = -E^-T E = -P^T E, with P = E^-1 (path_counts)."""
    p, e = path_counts(q), euler_matrix(q)
    return tuple(tuple(-sum(p[k][i] * e[k][j] for k in range(q.n)) for j in range(q.n))
                 for i in range(q.n))


def proj_dims(q, i):
    """Dimension vector of the indecomposable projective at vertex i: row i of P."""
    return path_counts(q)[i]
