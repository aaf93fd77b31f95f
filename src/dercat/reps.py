"""Quiver representations over exact rationals.

Hom spaces by solving the intertwiner equations, Ext^1 through the Euler form
(with a resolution-based cross-check), indecomposables from positive roots via
reflection functors, Krull-Schmidt decomposition by Hom-count back-substitution,
and the module-level AR translate.

hom_dim_roots / ext_dim_roots build both indecomposables and solve for their
intertwiners.  They are the independent oracle for the closed Euler-form rule
of derived.pair_hom_dim, which is what the rest of the package uses.

All functions are pure; memoized tables are keyed by (quiver, roots) and
guarded by a lock, so results are identical under any evaluation order.
"""

import threading
from dataclasses import dataclass
from fractions import Fraction

from . import linalg, quiver as qv
from .linalg import Subspace

PROJECTIVE = "projective"
INJECTIVE = "injective"

_lock = threading.Lock()
_indec_cache = {}
_homdim_cache = {}
_knitting_cache = {}


class InternalInconsistencyError(RuntimeError):
    """An invariant the theory guarantees failed to hold; never expected."""


class Representation:
    """Vertexwise vector spaces and one exact-rational matrix per arrow.

    Matrix for an arrow i -> j has shape (dims[j], dims[i]).
    """

    def __init__(self, q, dims, mats=None):
        self.quiver = q
        self.dims = tuple(int(d) for d in dims)
        if len(self.dims) != q.n or any(d < 0 for d in self.dims):
            raise ValueError("bad dimension vector %r" % (dims,))
        if mats is None:
            mats = [linalg.zeros(self.dims[t], self.dims[s]) for s, t in q.arrows]
        self.mats = [linalg.mat_from_rows(m) if m else [] for m in mats]
        for (s, t), m in zip(q.arrows, self.mats):
            if linalg.shape(m) != (self.dims[t], self.dims[s]) and self.dims[t] > 0:
                raise ValueError("matrix shape mismatch on arrow %d->%d" % (s, t))

    @property
    def total_dim(self):
        return sum(self.dims)

    def is_zero(self):
        return self.total_dim == 0

    def __repr__(self):
        return "Representation(dims=%r)" % (self.dims,)


def zero_rep(q):
    return Representation(q, [0] * q.n)


def simple_rep(q, i):
    return Representation(q, qv.simple_root(q, i))


def proj_rep(q, i):
    """Indecomposable projective at i; valid when paths between vertices are unique."""
    dims = qv.proj_dims(q, i)
    mats = []
    for s, t in q.arrows:
        if dims[s] and dims[t]:
            mats.append([[Fraction(1)]])
        else:
            mats.append(linalg.zeros(dims[t], dims[s]))
    return Representation(q, dims, mats)


def inj_rep(q, i):
    dims = qv.inj_dims(q, i)
    mats = []
    for s, t in q.arrows:
        if dims[s] and dims[t]:
            mats.append([[Fraction(1)]])
        else:
            mats.append(linalg.zeros(dims[t], dims[s]))
    return Representation(q, dims, mats)


def direct_sum(reps):
    if not reps:
        raise ValueError("empty direct sum needs an explicit quiver; use zero_rep")
    q = reps[0].quiver
    assert all(r.quiver == q for r in reps)
    dims = tuple(sum(r.dims[v] for r in reps) for v in range(q.n))
    mats = []
    for a, (s, t) in enumerate(q.arrows):
        m = linalg.zeros(dims[t], dims[s])
        ro = co = 0
        for r in reps:
            blk = r.mats[a]
            for i in range(r.dims[t]):
                for j in range(r.dims[s]):
                    m[ro + i][co + j] = blk[i][j]
            ro += r.dims[t]
            co += r.dims[s]
        mats.append(m)
    return Representation(q, dims, mats)


class RepMap:
    """Morphism of representations: one matrix per vertex, commuting with all arrows."""

    def __init__(self, source, target, vertex_mats, check=False):
        self.source = source
        self.target = target
        self.mats = [linalg.mat_from_rows(m) if m else [] for m in vertex_mats]
        for v in range(source.quiver.n):
            if target.dims[v] > 0 and linalg.shape(self.mats[v]) != (target.dims[v], source.dims[v]):
                raise ValueError("vertex matrix shape mismatch at %d" % v)
        if check and not self.is_morphism():
            raise ValueError("vertex matrices do not commute with the arrow maps")

    def is_morphism(self):
        q = self.source.quiver
        for a, (s, t) in enumerate(q.arrows):
            ms, mt = self.source.dims[s], self.source.dims[t]
            ns, nt = self.target.dims[s], self.target.dims[t]
            if ms == 0 or nt == 0:
                continue
            lhs = linalg.mat_mul_dims(self._mat(t), self.source.mats[a], nt, mt, ms)
            rhs = linalg.mat_mul_dims(self.target.mats[a], self._mat(s), nt, ns, ms)
            if not linalg.mat_eq(lhs, rhs):
                return False
        return True

    def _mat(self, v):
        m = self.mats[v]
        if not m:
            return linalg.zeros(self.target.dims[v], self.source.dims[v])
        return m

    def compose(self, other):
        """self after other (other first)."""
        assert other.target.dims == self.source.dims
        mats = [linalg.mat_mul_dims(self._mat(v), other._mat(v),
                                    self.target.dims[v], self.source.dims[v],
                                    other.source.dims[v])
                for v in range(self.source.quiver.n)]
        return RepMap(other.source, self.target, mats)

    def add(self, other):
        return RepMap(self.source, self.target,
                      [linalg.mat_add(self._mat(v), other._mat(v)) if self.target.dims[v] and self.source.dims[v] else self._mat(v)
                       for v in range(self.source.quiver.n)])

    def scale(self, c):
        return RepMap(self.source, self.target,
                      [linalg.mat_scale(c, self._mat(v)) for v in range(self.source.quiver.n)])

    def neg(self):
        return self.scale(-1)

    def is_zero(self):
        return all(linalg.is_zero_mat(self._mat(v)) for v in range(self.source.quiver.n))

    def __repr__(self):
        return "RepMap(%r -> %r)" % (self.source.dims, self.target.dims)


def identity_map(m):
    return RepMap(m, m, [linalg.identity(d) for d in m.dims])


def zero_map(source, target):
    return RepMap(source, target,
                  [linalg.zeros(target.dims[v], source.dims[v]) for v in range(source.quiver.n)])


def _hom_system(m, n):
    """Rows of the intertwiner system; unknowns are the stacked vertex matrices."""
    q = m.quiver
    offs = []
    total = 0
    for v in range(q.n):
        offs.append(total)
        total += n.dims[v] * m.dims[v]
    rows = []
    for a, (s, t) in enumerate(q.arrows):
        ma, na = m.mats[a], n.mats[a]
        for r in range(n.dims[t]):
            for c in range(m.dims[s]):
                row = [Fraction(0)] * total
                # (phi_t . M_a)[r,c] = sum_k phi_t[r,k] M_a[k,c]
                for k in range(m.dims[t]):
                    if ma[k][c] != 0:
                        row[offs[t] + r * m.dims[t] + k] += ma[k][c]
                # (N_a . phi_s)[r,c] = sum_k N_a[r,k] phi_s[k,c]
                for k in range(n.dims[s]):
                    if na[r][k] != 0:
                        row[offs[s] + k * m.dims[s] + c] -= na[r][k]
                rows.append(row)
    return rows, offs, total


def _vector_to_map(m, n, offs, vec):
    mats = []
    for v in range(m.quiver.n):
        mat = linalg.zeros(n.dims[v], m.dims[v])
        for r in range(n.dims[v]):
            for c in range(m.dims[v]):
                mat[r][c] = vec[offs[v] + r * m.dims[v] + c]
        mats.append(mat)
    return RepMap(m, n, mats)


def hom_space(m, n):
    """Basis of Hom(M, N) as a list of RepMaps."""
    if m.quiver != n.quiver:
        raise ValueError("representations live over different quivers")
    rows, offs, total = _hom_system(m, n)
    if total == 0:
        return []
    basis = linalg.nullspace(rows) if rows else [
        [Fraction(1) if i == j else Fraction(0) for j in range(total)] for i in range(total)]
    return [_vector_to_map(m, n, offs, v) for v in basis]


def hom_dim_mod(m, n):
    return len(hom_space(m, n))


def ext1_dim(m, n):
    """dim Ext^1(M, N) = dim Hom(M, N) - <dim M, dim N>; hereditary, so exact."""
    d = hom_dim_mod(m, n) - qv.euler_form(m.quiver, m.dims, n.dims)
    if d < 0:
        raise InternalInconsistencyError("negative Ext dimension for %r, %r" % (m.dims, n.dims))
    return d


def kernel(f):
    """Kernel of a morphism, with its inclusion map."""
    q = f.source.quiver
    incs = []
    kdims = []
    for v in range(q.n):
        if f.source.dims[v] == 0:
            incs.append([])
            kdims.append(0)
            continue
        if f.target.dims[v] == 0:
            incs.append(linalg.identity(f.source.dims[v]))
            kdims.append(f.source.dims[v])
            continue
        basis = linalg.nullspace(f._mat(v))
        kdims.append(len(basis))
        incs.append(linalg.transpose(basis) if basis else [])
    kmats = []
    for a, (s, t) in enumerate(q.arrows):
        if kdims[s] == 0 or kdims[t] == 0:
            kmats.append(linalg.zeros(kdims[t], kdims[s]))
            continue
        rhs = linalg.mat_mul(f.source.mats[a], incs[s])
        sol = linalg.solve_matrix(incs[t], rhs)
        if sol is None:
            raise InternalInconsistencyError("kernel is not a subrepresentation")
        kmats.append(sol)
    k = Representation(q, kdims, kmats)
    inc = RepMap(k, f.source, [incs[v] if kdims[v] and f.source.dims[v] else
                               linalg.zeros(f.source.dims[v], kdims[v]) for v in range(q.n)])
    return k, inc


def cokernel(f):
    """Cokernel of a morphism, with its projection map."""
    q = f.source.quiver
    projs = []
    cdims = []
    sections = []
    for v in range(q.n):
        nv = f.target.dims[v]
        if nv == 0:
            projs.append([])
            sections.append([])
            cdims.append(0)
            continue
        span = Subspace(nv)
        if f.source.dims[v]:
            fm = f._mat(v)
            for c in range(f.source.dims[v]):
                span.add([fm[r][c] for r in range(nv)])
        im_basis = [list(r) for r in span.rows]
        ext = Subspace(nv)
        for r in im_basis:
            ext.add(r)
        std = [[Fraction(1) if i == j else Fraction(0) for j in range(nv)] for i in range(nv)]
        chosen = ext.extend_basis(std)
        cols = [list(c) for c in im_basis] + [std[i] for i in chosen]
        u = linalg.transpose(cols)
        uinv = linalg.inverse(u)
        pr = uinv[len(im_basis):]
        cdims.append(len(chosen))
        projs.append(pr)
        sections.append(linalg.solve_matrix(pr, linalg.identity(len(chosen))) if chosen else [])
    cmats = []
    for a, (s, t) in enumerate(q.arrows):
        if cdims[s] == 0 or cdims[t] == 0:
            cmats.append(linalg.zeros(cdims[t], cdims[s]))
            continue
        cmats.append(linalg.mat_mul(projs[t], linalg.mat_mul(f.target.mats[a], sections[s])))
    c = Representation(q, cdims, cmats)
    pr = RepMap(f.target, c, [projs[v] if cdims[v] and f.target.dims[v] else
                              linalg.zeros(cdims[v], f.target.dims[v]) for v in range(q.n)])
    return c, pr


def image_dims(f):
    q = f.source.quiver
    return tuple(linalg.rank(f._mat(v)) if f.source.dims[v] and f.target.dims[v] else 0
                 for v in range(q.n))


def top_dims(m):
    """Dimension vector of M / rad M."""
    q = m.quiver
    out = []
    for v in range(q.n):
        if m.dims[v] == 0:
            out.append(0)
            continue
        span = Subspace(m.dims[v])
        for a, (s, t) in enumerate(q.arrows):
            if t != v or m.dims[s] == 0:
                continue
            mat = m.mats[a]
            for c in range(m.dims[s]):
                span.add([mat[r][c] for r in range(m.dims[v])])
        out.append(m.dims[v] - span.dim)
    return tuple(out)


def _unique_path(q, i, j):
    """The vertex sequence of the unique directed path i -> j, or None."""
    if i == j:
        return [i]
    for s, t in q.arrows:
        if s == i:
            rest = _unique_path(q, t, j)
            if rest is not None:
                return [i] + rest
    return None


def _proj_generator_map(q, i, m, gen):
    """The morphism P_i -> M sending the canonical generator to gen (a column in M_i)."""
    p = proj_rep(q, i)
    mats = []
    images = {}
    images[i] = [[x] for x in gen]
    # walk outward: image at w = (composite of arrow maps along the unique path)(gen)
    order = list(range(q.n))
    changed = True
    while changed:
        changed = False
        for a, (s, t) in enumerate(q.arrows):
            if s in images and p.dims[t] and t not in images:
                if m.dims[t] and m.dims[s]:
                    images[t] = linalg.mat_mul(m.mats[a], images[s])
                else:
                    images[t] = linalg.zeros(m.dims[t], 1)
                changed = True
    for v in order:
        if p.dims[v] and m.dims[v]:
            mats.append(images[v])
        else:
            mats.append(linalg.zeros(m.dims[v], p.dims[v]))
    return p, RepMap(p, m, mats)


def projective_cover(m):
    """(list of projective vertex indices, epimorphism from their sum onto M)."""
    q = m.quiver
    indices = []
    maps = []
    for v in range(q.n):
        if m.dims[v] == 0:
            continue
        span = Subspace(m.dims[v])
        for a, (s, t) in enumerate(q.arrows):
            if t != v or m.dims[s] == 0:
                continue
            mat = m.mats[a]
            for c in range(m.dims[s]):
                span.add([mat[r][c] for r in range(m.dims[v])])
        std = [[Fraction(1) if x == y else Fraction(0) for y in range(m.dims[v])]
               for x in range(m.dims[v])]
        for i in span.extend_basis(std):
            indices.append(v)
            maps.append(_proj_generator_map(q, v, m, std[i])[1])
    if not indices:
        z = zero_rep(q)
        return [], zero_map(z, m)
    p0 = proj_sum_rep(q, indices)
    mats = []
    for v in range(q.n):
        cols = []
        for idx, f in zip(indices, maps):
            pd = qv.proj_dims(q, idx)[v]
            if pd:
                cols.append([f._mat(v)[r][0] for r in range(m.dims[v])] if m.dims[v] else [])
        if m.dims[v] and cols:
            mats.append(linalg.transpose(cols))
        else:
            mats.append(linalg.zeros(m.dims[v], sum(qv.proj_dims(q, idx)[v] for idx in indices)))
    return indices, RepMap(p0, m, mats)


def proj_sum_rep(q, indices):
    if not indices:
        return zero_rep(q)
    return direct_sum([proj_rep(q, i) for i in indices])


@dataclass
class ProjResolution:
    """Minimal projective resolution 0 -> P1 -> P0 -> M -> 0."""

    p1_indices: list
    p0_indices: list
    p1: Representation
    p0: Representation
    d: RepMap      # P1 -> P0
    eps: RepMap    # P0 -> M


def proj_resolution(m):
    q = m.quiver
    p0_indices, eps = projective_cover(m)
    p0 = eps.source
    k, inc = kernel(eps)
    if k.is_zero():
        z = zero_rep(q)
        return ProjResolution([], p0_indices, z, p0, zero_map(z, p0), eps)
    p1_indices, cover = projective_cover(k)
    p1 = cover.source
    if p1.dims != k.dims:
        raise InternalInconsistencyError("first syzygy is not projective")
    d = inc.compose(cover)
    return ProjResolution(p1_indices, p0_indices, p1, p0, d, eps)


def ext1_dim_via_resolution(m, n):
    """dim Ext^1 from Hom(P0,N) -> Hom(P1,N); independent of the Euler-form route."""
    res = proj_resolution(m)
    return (hom_dim_mod(res.p1, n) - hom_dim_mod(res.p0, n) + hom_dim_mod(m, n)
            if not res.p1.is_zero() else 0)


# ---------------------------------------------------------------------------
# reflection functors and indecomposables from roots


def _reflect_quiver(q, v):
    return qv.Quiver(q.n, tuple((t, s) if s == v or t == v else (s, t) for s, t in q.arrows))


def reflect_at_sink(q, m, v):
    """Bernstein-Gelfand-Ponomarev reflection at a sink; returns (quiver, rep)."""
    in_arrows = [a for a, (s, t) in enumerate(q.arrows) if t == v]
    srcs = [q.arrows[a][0] for a in in_arrows]
    widths = [m.dims[s] for s in srcs]
    total = sum(widths)
    if m.dims[v] and total:
        phi = []
        for r in range(m.dims[v]):
            row = []
            for a in in_arrows:
                row += list(m.mats[a][r])
            phi.append(row)
        kern = linalg.nullspace(phi)
    else:
        kern = [[Fraction(1) if i == j else Fraction(0) for j in range(total)] for i in range(total)]
    kdim = len(kern)
    newdims = list(m.dims)
    newdims[v] = kdim
    newq = _reflect_quiver(q, v)
    mats = []
    for a, (s, t) in enumerate(q.arrows):
        if t != v:
            mats.append(m.mats[a])
            continue
        # reversed arrow v -> s: project kernel vectors to the s block
        off = 0
        for b, w in zip(in_arrows, widths):
            if b == a:
                break
            off += w
        blk = linalg.zeros(m.dims[s], kdim)
        for c, vec in enumerate(kern):
            for r in range(m.dims[s]):
                blk[r][c] = vec[off + r]
        mats.append(blk)
    return newq, Representation(newq, newdims, mats)


def reflect_at_source(q, m, v):
    """Dual reflection at a source; returns (quiver, rep)."""
    out_arrows = [a for a, (s, t) in enumerate(q.arrows) if s == v]
    tgts = [q.arrows[a][1] for a in out_arrows]
    heights = [m.dims[t] for t in tgts]
    total = sum(heights)
    span = Subspace(total)
    if m.dims[v] and total:
        for c in range(m.dims[v]):
            col = []
            for a in out_arrows:
                col += [m.mats[a][r][c] for r in range(m.dims[q.arrows[a][1]])]
            span.add(col)
    im_basis = [list(r) for r in span.rows]
    ext = Subspace(total)
    for r in im_basis:
        ext.add(r)
    std = [[Fraction(1) if i == j else Fraction(0) for j in range(total)] for i in range(total)]
    chosen = ext.extend_basis(std)
    cdim = len(chosen)
    if total:
        u = linalg.transpose([list(c) for c in im_basis] + [std[i] for i in chosen])
        pr = linalg.inverse(u)[len(im_basis):]
    else:
        pr = []
    newdims = list(m.dims)
    newdims[v] = cdim
    newq = _reflect_quiver(q, v)
    mats = []
    for a, (s, t) in enumerate(q.arrows):
        if s != v:
            mats.append(m.mats[a])
            continue
        # reversed arrow t -> v: include M_t into the sum, then project to the cokernel
        off = 0
        for b, h in zip(out_arrows, heights):
            if b == a:
                break
            off += h
        blk = linalg.zeros(cdim, m.dims[t])
        for r in range(cdim):
            for c in range(m.dims[t]):
                blk[r][c] = pr[r][off + c]
        mats.append(blk)
    return newq, Representation(newq, newdims, mats)


def _sigma(q, r, v):
    out = list(r)
    out[v] = sum(r[j] for j in q.neighbors(v)) - r[v]
    return tuple(out)


def indec_of_root(q, root):
    """The indecomposable representation with the given positive root as dimension vector.

    Built by reducing the root to a simple one along an admissible sink sequence
    and applying the inverse reflection functors; deterministic.
    """
    root = tuple(root)
    with _lock:
        hit = _indec_cache.get((q, root))
    if hit is not None:
        return hit
    if root not in qv.positive_roots(q):
        raise qv.QuiverError("not a positive root: %r" % (root,))
    stack = []
    cur_q, cur_r = q, root
    found = None
    for _ in range(len(qv.positive_roots(q)) * (q.n + 1)):
        if found is not None:
            break
        for v in qv.sink_first_order(q):
            if cur_r == qv.simple_root(q, v):
                found = v
                break
            stack.append((cur_q, v))
            cur_r = _sigma(cur_q, cur_r, v)
            cur_q = _reflect_quiver(cur_q, v)
    if found is None:
        raise InternalInconsistencyError("root reduction failed for %r" % (root,))
    m = simple_rep(cur_q, found)
    back_q = cur_q
    for prev_q, v in reversed(stack):
        back_q, m = reflect_at_source(back_q, m, v)
        if back_q != prev_q:
            raise InternalInconsistencyError("reflection bookkeeping out of sync")
    if m.dims != root:
        raise InternalInconsistencyError("reflection functors missed the root %r" % (root,))
    result = Representation(q, m.dims, m.mats)
    with _lock:
        _indec_cache[(q, root)] = result
    return result


# ---------------------------------------------------------------------------
# Krull-Schmidt decomposition


def knitting_order(q):
    """All positive roots ordered by (tau-orbit depth, slice position).

    In this order the matrix of Hom dimensions between indecomposables is
    upper uni-triangular, so decompose() is a single back-substitution.
    """
    with _lock:
        hit = _knitting_cache.get(q)
    if hit is not None:
        return hit
    qv.ensure_dynkin(q)
    phi_inv = qv.coxeter_inverse(q)
    order = []
    roots = set(qv.positive_roots(q))
    slicepos = {v: i for i, v in enumerate(qv.sink_first_order(q))}
    per_orbit = []
    for i in range(q.n):
        r = qv.proj_dims(q, i)
        depth = 0
        orbit = []
        while tuple(r) in roots:
            orbit.append((depth, slicepos[i], tuple(r)))
            r = tuple(sum(phi_inv[a][b] * r[b] for b in range(q.n)) for a in range(q.n))
            depth += 1
            if any(x < 0 for x in r):
                break
        per_orbit.extend(orbit)
    per_orbit.sort()
    order = tuple(r for _, _, r in per_orbit)
    if len(order) != len(roots) or set(order) != roots:
        raise InternalInconsistencyError("knitting enumeration missed roots")
    with _lock:
        _knitting_cache[q] = order
    return order


def hom_dim_roots(q, r1, r2):
    """dim Hom between the canonical indecomposables of two roots (memoized).

    Oracle route: solves the intertwiner system; the closed form is
    derived.pair_hom_dim.
    """
    with _lock:
        hit = _homdim_cache.get((q, r1, r2))
    if hit is not None:
        return hit
    d = hom_dim_mod(indec_of_root(q, r1), indec_of_root(q, r2))
    with _lock:
        _homdim_cache[(q, r1, r2)] = d
    return d


def ext_dim_roots(q, r1, r2):
    d = hom_dim_roots(q, r1, r2) - qv.euler_form(q, r1, r2)
    if d < 0:
        raise InternalInconsistencyError("negative Ext dimension")
    return d


def decompose(x):
    """Multiset of (root, multiplicity) with X isomorphic to the matching direct sum."""
    q = x.quiver
    if x.is_zero():
        return {}
    order = knitting_order(q)
    h = [hom_dim_mod(indec_of_root(q, r), x) for r in order]
    mult = {}
    for idx in range(len(order) - 1, -1, -1):
        r = order[idx]
        val = h[idx]
        for jdx in range(idx + 1, len(order)):
            s = order[jdx]
            if mult.get(s):
                # Hom between Dynkin indecomposables, closed form as in
                # derived.pair_hom_dim
                val -= mult[s] * max(qv.euler_form(q, r, s), 0)
        if val < 0:
            raise InternalInconsistencyError("negative multiplicity in decomposition")
        if val:
            mult[r] = val
    total = [0] * q.n
    for r, m in mult.items():
        for v in range(q.n):
            total[v] += m * r[v]
    if tuple(total) != x.dims:
        raise InternalInconsistencyError("decomposition does not add up to %r" % (x.dims,))
    return mult


def is_indec(x):
    d = decompose(x)
    return len(d) == 1 and next(iter(d.values())) == 1


# ---------------------------------------------------------------------------
# AR translate on modules


def proj_roots(q):
    return tuple(qv.proj_dims(q, i) for i in range(q.n))


def inj_roots(q):
    return tuple(qv.inj_dims(q, i) for i in range(q.n))


def tau_root(q, root):
    """Root of tau(M) for the indecomposable M of the given root; None if projective."""
    if root in proj_roots(q):
        return None
    phi = qv.coxeter_matrix(q)
    out = tuple(sum(phi[a][b] * root[b] for b in range(q.n)) for a in range(q.n))
    if out not in qv.positive_roots(q):
        raise InternalInconsistencyError("tau left the root system: %r" % (out,))
    return out


def tau_inv_root(q, root):
    if root in inj_roots(q):
        return None
    phi_inv = qv.coxeter_inverse(q)
    out = tuple(sum(phi_inv[a][b] * root[b] for b in range(q.n)) for a in range(q.n))
    if out not in qv.positive_roots(q):
        raise InternalInconsistencyError("inverse tau left the root system: %r" % (out,))
    return out


def tau_module(m):
    """AR translate of an indecomposable; the marker string for projectives."""
    if not is_indec(m):
        raise ValueError("tau is only defined summand-wise; input is decomposable")
    r = tau_root(m.quiver, m.dims)
    if r is None:
        return PROJECTIVE
    return indec_of_root(m.quiver, r)


def tau_inv_module(m):
    if not is_indec(m):
        raise ValueError("inverse tau needs an indecomposable input")
    r = tau_inv_root(m.quiver, m.dims)
    if r is None:
        return INJECTIVE
    return indec_of_root(m.quiver, r)


# ---------------------------------------------------------------------------
# text format


def format_rep(m):
    lines = ["rep dims=[%s]" % ",".join(str(d) for d in m.dims)]
    for a, (s, t) in enumerate(m.quiver.arrows):
        if m.dims[s] and m.dims[t]:
            rows = ";".join("[%s]" % ",".join(str(x) for x in row) for row in m.mats[a])
            lines.append("mat %d = [%s]" % (a + 1, rows))
    return "\n".join(lines) + "\n"


def parse_rep(q, text):
    dims = None
    mats = {}
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("rep dims="):
            body = line[len("rep dims="):].strip()
            dims = tuple(int(x) for x in body.strip("[]").split(",") if x.strip())
        elif line.startswith("mat "):
            head, body = line.split("=", 1)
            a = int(head.split()[1]) - 1
            body = body.strip()
            assert body.startswith("[") and body.endswith("]")
            rows = []
            for chunk in body[1:-1].split(";"):
                chunk = chunk.strip().strip("[]")
                if chunk:
                    rows.append([Fraction(x) for x in chunk.split(",")])
            mats[a] = rows
        else:
            raise ValueError("malformed representation line: %r" % raw)
    if dims is None:
        raise ValueError("missing `rep dims=` line")
    full = []
    for a, (s, t) in enumerate(q.arrows):
        full.append(mats.get(a, linalg.zeros(dims[t], dims[s])))
    return Representation(q, dims, full)
