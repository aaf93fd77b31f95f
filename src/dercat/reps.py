"""Quiver representations over exact rationals.

Hom spaces by solving the intertwiner equations, Ext^1 through the Euler form,
indecomposables from positive roots via reflection functors, and Krull-Schmidt
decomposition.  The AR translate on roots is integer arithmetic and lives in
quiver (tau_root / tau_inv_root).

decompose first runs the brick test: a module with dim End = 1 is
indecomposable (a decomposable one has two orthogonal idempotents), and a
Dynkin indecomposable is the brick fixed by its root, so one End system settles
the common case of an exchange-triangle cone.  Only a decomposable module goes
on to the Hom-count back-substitution.

hom_dim_roots / ext_dim_roots build both indecomposables and solve for their
intertwiners.  They are the independent oracle for the closed Euler-form rule
of derived.pair_hom_dim, which is what the rest of the package uses.

generates_thick, the thick-closure search, is the oracle for the generation
half of derived.is_tilting; only the test suite calls it.  Beyond the oracles
this module serves only `dercat ind list`: no module of the integer route
(quiver, linalg, derived, sgd, slices, mutation) imports it.

All functions are pure; the memoized tables (indecomposables, knitting order,
root Hom dimensions) are functools.lru_cache entries keyed by (quiver, roots),
so results are identical under any evaluation order.
"""

import random as _random
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from . import linalg, quiver as qv
from .linalg import Subspace


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

    def __init__(self, source, target, vertex_mats):
        self.source = source
        self.target = target
        self.mats = [linalg.mat_from_rows(m) if m else [] for m in vertex_mats]
        for v in range(source.quiver.n):
            if target.dims[v] > 0 and linalg.shape(self.mats[v]) != (target.dims[v], source.dims[v]):
                raise ValueError("vertex matrix shape mismatch at %d" % v)

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


def intertwiner_rows(m, n, offs, total):
    """Rows of the system phi_t M_a = N_a phi_s over the arrows a: s -> t.

    The unknowns are the vertex matrices phi_v (n.dims[v] x m.dims[v]), stored
    row by row from offs[v] in a vector of length total.
    """
    rows = []
    for a, (s, t) in enumerate(m.quiver.arrows):
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
    return rows


def intertwiner_system(pairs):
    """Layout and intertwiner rows for the vertex maps of several pairs at once.

    pairs[d] = (M, N), e.g. one pair per degree of a chain map.  Returns
    (offs, total, rows): the maps of pair d start at offs[d][v] in one vector
    of length total, in the order of pairs.
    """
    offs = {}
    total = 0
    for d, (m, n) in pairs.items():
        offs[d] = []
        for v in range(m.quiver.n):
            offs[d].append(total)
            total += n.dims[v] * m.dims[v]
    rows = [row for d, (m, n) in pairs.items()
            for row in intertwiner_rows(m, n, offs[d], total)]
    return offs, total, rows


def vector_to_map(m, n, offs, vec):
    """The RepMap M -> N whose vertex matrices sit in vec at offs, as in intertwiner_rows."""
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
    offs, total, rows = intertwiner_system({0: (m, n)})
    return [vector_to_map(m, n, offs[0], v) for v in linalg.solutions(rows, total)]


def hom_dim_mod(m, n):
    return len(hom_space(m, n))


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
            raise qv.InternalInconsistencyError("kernel is not a subrepresentation")
        kmats.append(sol)
    k = Representation(q, kdims, kmats)
    inc = RepMap(k, f.source, [incs[v] if kdims[v] and f.source.dims[v] else
                               linalg.zeros(f.source.dims[v], kdims[v]) for v in range(q.n)])
    return k, inc


def _complement_projection(cols, dim):
    """Cokernel projection of the dim x len(cols) matrix with these columns.

    The complement of the column span is spanned by the standard vectors that
    extend its echelon basis; the rows returned project Q^dim onto it."""
    if not dim:
        return []
    span = Subspace(dim)
    for c in cols:
        span.add(c)
    im_basis = [list(r) for r in span.rows]
    std = linalg.identity(dim)
    chosen = span.extend_basis(std)
    u = linalg.transpose(im_basis + [std[i] for i in chosen])
    return linalg.inverse(u)[len(im_basis):]


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
        fm = f._mat(v)
        pr = _complement_projection([[fm[r][c] for r in range(nv)]
                                     for c in range(f.source.dims[v])], nv)
        cdims.append(len(pr))
        projs.append(pr)
        sections.append(linalg.solve_matrix(pr, linalg.identity(len(pr))) if pr else [])
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
        std = linalg.identity(m.dims[v])
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
        raise qv.InternalInconsistencyError("first syzygy is not projective")
    d = inc.compose(cover)
    return ProjResolution(p1_indices, p0_indices, p1, p0, d, eps)


# ---------------------------------------------------------------------------
# reflection functors and indecomposables from roots


def _reflect_quiver(q, v):
    return qv.Quiver(q.n, tuple((t, s) if s == v or t == v else (s, t) for s, t in q.arrows))


def reflect_at_source(q, m, v):
    """Dual reflection at a source; returns (quiver, rep)."""
    out_arrows = [a for a, (s, t) in enumerate(q.arrows) if s == v]
    tgts = [q.arrows[a][1] for a in out_arrows]
    heights = [m.dims[t] for t in tgts]
    total = sum(heights)
    # column c of M_v -> (sum of M_t over the arrows v -> t), stacked in arrow order
    cols = [[m.mats[a][r][c] for a, t in zip(out_arrows, tgts) for r in range(m.dims[t])]
            for c in range(m.dims[v])]
    pr = _complement_projection(cols, total)
    cdim = len(pr)
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


@lru_cache(maxsize=None)
def indec_of_root(q, root):
    """The indecomposable representation with the given positive root (a tuple)
    as dimension vector (memoized).

    Built by reducing the root to a simple one along an admissible sink sequence
    and applying the inverse reflection functors; deterministic.
    """
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
        raise qv.InternalInconsistencyError("root reduction failed for %r" % (root,))
    m = simple_rep(cur_q, found)
    back_q = cur_q
    for prev_q, v in reversed(stack):
        back_q, m = reflect_at_source(back_q, m, v)
        if back_q != prev_q:
            raise qv.InternalInconsistencyError("reflection bookkeeping out of sync")
    if m.dims != root:
        raise qv.InternalInconsistencyError("reflection functors missed the root %r" % (root,))
    return Representation(q, m.dims, m.mats)


# ---------------------------------------------------------------------------
# Krull-Schmidt decomposition


@lru_cache(maxsize=None)
def knitting_order(q):
    """All positive roots ordered by (tau-orbit depth, slice position).

    In this order the matrix of Hom dimensions between indecomposables is
    upper uni-triangular, so decompose() is a single back-substitution.
    """
    qv.ensure_dynkin(q)
    phi_inv = qv.coxeter_inverse(q)
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
        raise qv.InternalInconsistencyError("knitting enumeration missed roots")
    return order


@lru_cache(maxsize=None)
def hom_dim_roots(q, r1, r2):
    """dim Hom between the canonical indecomposables of two roots (memoized).

    Oracle route: solves the intertwiner system; the closed form is
    derived.pair_hom_dim.
    """
    return hom_dim_mod(indec_of_root(q, r1), indec_of_root(q, r2))


def ext_dim_roots(q, r1, r2):
    d = hom_dim_roots(q, r1, r2) - qv.euler_form(q, r1, r2)
    if d < 0:
        raise qv.InternalInconsistencyError("negative Ext dimension")
    return d


def decompose(x):
    """Multiset of (root, multiplicity) with X isomorphic to the matching direct sum.

    Brick test: dim End(X) = 1 means X is indecomposable, hence the
    indecomposable of the root dims(X) (Dynkin indecomposables are bricks and
    are determined by their dimension vector).  Otherwise the multiplicities
    come from dim Hom(M(r), X) by back-substitution in knitting order.
    """
    q = x.quiver
    if x.is_zero():
        return {}
    if hom_dim_mod(x, x) == 1:
        if x.dims not in qv.positive_roots(q):
            raise qv.InternalInconsistencyError(
                "brick with dimension vector %r, which is not a positive root" % (x.dims,))
        return {x.dims: 1}
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
            raise qv.InternalInconsistencyError("negative multiplicity in decomposition")
        if val:
            mult[r] = val
    total = [0] * q.n
    for r, m in mult.items():
        for v in range(q.n):
            total[v] += m * r[v]
    if tuple(total) != x.dims:
        raise qv.InternalInconsistencyError("decomposition does not add up to %r" % (x.dims,))
    return mult


# ---------------------------------------------------------------------------
# thick-closure generation oracle (slow; used by the test suite)


def _sampled_maps(m, n, rng):
    basis = hom_space(m, n)
    out = list(basis)
    if len(basis) > 1:
        for _ in range(3):
            f = basis[0].scale(rng.randint(-2, 2))
            for g in basis[1:]:
                f = f.add(g.scale(rng.randint(-2, 2)))
            out.append(f)
    return out


def _extension_middles(q, r_top, r_sub, rng):
    """Middle terms of sampled extensions of M(r_top) by M(r_sub), as root multisets."""
    m = indec_of_root(q, r_top)
    n = indec_of_root(q, r_sub)
    res = proj_resolution(m)
    if res.p1.is_zero():
        return []
    out = []
    for h in _sampled_maps(res.p1, n, rng):
        # pushout of (P1 -> P0, P1 -> N): cokernel of x -> (d x, -h x)
        p0n = direct_sum([res.p0, n])
        mats = []
        for v in range(q.n):
            top = res.d._mat(v)
            bot = linalg.mat_scale(-1, h._mat(v))
            mats.append([list(r) for r in top] + [list(r) for r in bot]
                        if res.p1.dims[v] else linalg.zeros(p0n.dims[v], 0))
        f = RepMap(res.p1, p0n, mats)
        e, _ = cokernel(f)
        out.append(decompose(e))
    return out


def generates_thick(t):
    """Whether the thick closure of T reaches every indecomposable stalk.

    Saturates a set of roots under cones of morphisms between stalks: a module
    map contributes its kernel and cokernel, an extension class contributes the
    middle term.  Morphisms are sampled from Hom bases plus seeded combinations,
    so membership claims are sound; saturation is re-run until stable.  A
    test-only oracle: no CLI verb calls it.
    """
    q = t.quiver
    rng = _random.Random(20240 + q.n)
    have = set(r for r, _ in t.basic().indecs())
    all_roots = set(qv.positive_roots(q))
    while have != all_roots:
        new = set()
        pairs = [(a, b) for a in sorted(have) for b in sorted(have)]
        for r1, r2 in pairs:
            m = indec_of_root(q, r1)
            n = indec_of_root(q, r2)
            for f in _sampled_maps(m, n, rng):
                k, _ = kernel(f)
                c, _ = cokernel(f)
                for part in (decompose(k), decompose(c)):
                    new |= set(part) - have
            if ext_dim_roots(q, r1, r2) > 0:
                for mid in _extension_middles(q, r1, r2, rng):
                    new |= set(mid) - have
        if not new:
            return False
        have |= new
    return True


# ---------------------------------------------------------------------------
# text format


def format_rep(m):
    lines = ["rep dims=[%s]" % ",".join(str(d) for d in m.dims)]
    for a, (s, t) in enumerate(m.quiver.arrows):
        if m.dims[s] and m.dims[t]:
            rows = ";".join("[%s]" % ",".join(str(x) for x in row) for row in m.mats[a])
            lines.append("mat %d = [%s]" % (a + 1, rows))
    return "\n".join(lines) + "\n"
