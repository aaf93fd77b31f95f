"""Quivers, Dynkin classification, Euler form, positive roots, AR translate on roots.

Vertices are 1-based in files and 0-based everywhere in code; the parser and
printer do the translation.  All values are immutable after construction.

This is the bottom layer every other module imports, so it also holds the
package's error class InternalInconsistencyError and the root-level AR
translate (tau_root / tau_inv_root, with the projective and injective roots
it wraps at): integer functions of the Coxeter matrix, which lives here too.
"""

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from . import linalg


class QuiverError(ValueError):
    pass


class QuiverFormatError(QuiverError):
    """Malformed quiver file."""


class NotDynkinError(QuiverError):
    """Operation requires a Dynkin quiver."""


class InternalInconsistencyError(RuntimeError):
    """An invariant the theory guarantees failed to hold; never expected."""


@dataclass(frozen=True)
class Quiver:
    """Finite acyclic quiver: n vertices 0..n-1 and a tuple of (source, target) arrows."""

    n: int
    arrows: tuple

    def __post_init__(self):
        if self.n < 1:
            raise QuiverError("quiver needs at least one vertex")
        object.__setattr__(self, "arrows", tuple((int(s), int(t)) for s, t in self.arrows))
        for s, t in self.arrows:
            if not (0 <= s < self.n and 0 <= t < self.n):
                raise QuiverError("arrow endpoint out of range: %d -> %d" % (s + 1, t + 1))
            if s == t:
                raise QuiverError("loop at vertex %d" % (s + 1))
        if self._has_cycle():
            raise QuiverError("cycle detected")

    def _has_cycle(self):
        indeg = [0] * self.n
        for _, t in self.arrows:
            indeg[t] += 1
        queue = [v for v in range(self.n) if indeg[v] == 0]
        seen = 0
        while queue:
            v = queue.pop()
            seen += 1
            for s, t in self.arrows:
                if s == v:
                    indeg[t] -= 1
                    if indeg[t] == 0:
                        queue.append(t)
        return seen != self.n

    def neighbors(self, v):
        out = set()
        for s, t in self.arrows:
            if s == v:
                out.add(t)
            elif t == v:
                out.add(s)
        return sorted(out)

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


def parse_quiver(text):
    """Parse the line-based quiver file format: `vertices <n>`, `arrow <i> <j>`."""
    n = None
    arrows = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if parts[0] == "vertices":
            if n is not None or len(parts) != 2 or not parts[1].isdigit():
                raise QuiverFormatError("malformed line %d: %r" % (lineno, raw))
            n = int(parts[1])
        elif parts[0] == "arrow":
            if n is None:
                raise QuiverFormatError("malformed line %d: arrow before vertices" % lineno)
            if len(parts) != 3:
                raise QuiverFormatError("malformed line %d: %r" % (lineno, raw))
            try:
                i, j = int(parts[1]), int(parts[2])
            except ValueError:
                raise QuiverFormatError("malformed line %d: %r" % (lineno, raw))
            if not (1 <= i <= n and 1 <= j <= n):
                raise QuiverFormatError("vertex out of range on line %d: %r" % (lineno, raw))
            arrows.append((i - 1, j - 1))
        else:
            raise QuiverFormatError("malformed line %d: %r" % (lineno, raw))
    if n is None:
        raise QuiverFormatError("missing `vertices` line")
    return Quiver(n, tuple(arrows))


def format_quiver(q):
    lines = ["vertices %d" % q.n]
    lines += ["arrow %d %d" % (s + 1, t + 1) for s, t in q.arrows]
    return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class DynkinType:
    """ADE family and rank; family is None for non-Dynkin graphs."""

    family: str
    rank: int

    @property
    def is_dynkin(self):
        return self.family is not None

    def __str__(self):
        return "%s%d" % (self.family, self.rank) if self.is_dynkin else "NotDynkin"


NOT_DYNKIN = DynkinType(None, 0)


def _classify_component(q, comp):
    n = len(comp)
    edges = [(s, t) for s, t in q.arrows if s in comp]
    if len(edges) != n - 1:
        return NOT_DYNKIN  # connected with n-1 edges iff tree; multi-edges land here too
    deg = {v: 0 for v in comp}
    for s, t in edges:
        deg[s] += 1
        deg[t] += 1
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
    """Per-component Dynkin types, in component order."""
    return tuple(_classify_component(q, set(c)) for c in q.components())


def classify(q):
    """Dynkin type of a connected quiver; the sorted component multiset otherwise."""
    types = classify_components(q)
    if len(types) == 1:
        return types[0]
    return tuple(sorted(types, key=str))


def is_dynkin(q):
    return all(t.is_dynkin for t in classify_components(q))


def ensure_dynkin(q):
    if not is_dynkin(q):
        raise NotDynkinError("quiver is not Dynkin: %s" % (classify(q),))


def euler_matrix(q):
    """Matrix E with <d,e> = d^T E e, i.e. E = I - (arrow count matrix)."""
    e = linalg.identity(q.n)
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


@lru_cache(maxsize=None)
def positive_roots(q):
    """All positive roots, by closure of the simple roots under simple reflections.

    Orientation-free: only the underlying graph enters.  Requires Dynkin input
    (termination is guaranteed by finiteness of the root system).
    """
    ensure_dynkin(q)
    adj = [q.neighbors(v) for v in range(q.n)]

    def reflect(r, i):
        out = list(r)
        out[i] = sum(r[j] for j in adj[i]) - r[i]
        return tuple(out)

    roots = {tuple(1 if j == i else 0 for j in range(q.n)) for i in range(q.n)}
    frontier = set(roots)
    while frontier:
        new = set()
        for r in frontier:
            for i in range(q.n):
                s = reflect(r, i)
                if all(x >= 0 for x in s) and any(x > 0 for x in s) and s not in roots:
                    new.add(s)
        roots |= new
        frontier = new
    return tuple(sorted(roots))


def simple_root(q, i):
    return tuple(1 if j == i else 0 for j in range(q.n))


@lru_cache(maxsize=None)
def coxeter_matrix(q):
    """Integer matrix C with dim(tau M) = C . dim(M) for non-projective indecomposables."""
    e = euler_matrix(q)
    einv = linalg.inverse(e)
    m = linalg.mat_neg(linalg.mat_mul(einv, linalg.transpose(e)))
    return tuple(tuple(int(x) for x in row) for row in m)


@lru_cache(maxsize=None)
def coxeter_inverse(q):
    m = linalg.inverse([[Fraction(x) for x in row] for row in coxeter_matrix(q)])
    return tuple(tuple(int(x) for x in row) for row in m)


@lru_cache(maxsize=None)
def path_exists(q):
    """Boolean matrix p[i][j]: directed path from i to j (including i == j)."""
    n = q.n
    p = [[i == j for j in range(n)] for i in range(n)]
    for _ in range(n):
        for s, t in q.arrows:
            for i in range(n):
                if p[i][s] and not p[i][t]:
                    p[i][t] = True
    return tuple(tuple(row) for row in p)


@lru_cache(maxsize=None)
def sink_first_order(q):
    """Vertex order in which every arrow points from a later to an earlier vertex.

    Processing vertices in this order keeps each one a sink of the partially
    reflected quiver, which is what the reflection-functor constructions need.
    """
    remaining = set(range(q.n))
    outdeg = {v: 0 for v in remaining}
    for s, _ in q.arrows:
        outdeg[s] += 1
    order = []
    while remaining:
        sinks = sorted(v for v in remaining if outdeg[v] == 0)
        if not sinks:
            raise QuiverError("cycle detected")  # unreachable after validation
        v = sinks[0]
        order.append(v)
        remaining.remove(v)
        for s, t in q.arrows:
            if t == v and s in remaining:
                outdeg[s] -= 1
    return tuple(order)


def proj_dims(q, i):
    """Dimension vector of the indecomposable projective at vertex i."""
    p = path_exists(q)
    return tuple(1 if p[i][j] else 0 for j in range(q.n))


def inj_dims(q, i):
    p = path_exists(q)
    return tuple(1 if p[j][i] else 0 for j in range(q.n))


# ---------------------------------------------------------------------------
# AR translate on roots


def proj_roots(q):
    return tuple(proj_dims(q, i) for i in range(q.n))


def inj_roots(q):
    return tuple(inj_dims(q, i) for i in range(q.n))


def tau_root(q, root):
    """Root of tau(M) for the indecomposable M of the given root; None if projective."""
    if root in proj_roots(q):
        return None
    phi = coxeter_matrix(q)
    out = tuple(sum(phi[a][b] * root[b] for b in range(q.n)) for a in range(q.n))
    if out not in positive_roots(q):
        raise InternalInconsistencyError("tau left the root system: %r" % (out,))
    return out


def tau_inv_root(q, root):
    if root in inj_roots(q):
        return None
    phi_inv = coxeter_inverse(q)
    out = tuple(sum(phi_inv[a][b] * root[b] for b in range(q.n)) for a in range(q.n))
    if out not in positive_roots(q):
        raise InternalInconsistencyError("inverse tau left the root system: %r" % (out,))
    return out
