"""Quiver representations over exact rationals, the module layer of the chain oracle.

Indecomposables come from positive roots via reflection functors
(indec_of_root).  Minimal projective resolutions (proj_resolution, one
projective cover of M and one of the first syzygy read off inside P0, both
from projective_cover) are what complexes builds its stalk complexes from.
commute_rows, the rows of U_t A + sign B U_s = 0 in unknown matrices, is the
one row builder of HomKSpace's systems: intertwiner_system lays out the
unknowns and reads its intertwiner rows off it, and complexes its chain
condition and homotopy boundaries.  complexes.homk_pair_dim is the one
oracle for the closed Euler-form rule derived.pair_hom_dim, and the test
suite compares the two on every root pair.  The AR translate is integer
arithmetic and lives in zq (tau_pair, read off one tau-orbit table per
quiver).

Beyond the chain oracle this module serves only `dercat ind list --reps`
(format_rep); the listing order is zq.knitting_order.  No module of the
integer route (quiver, derived, zq, sgd, slices, mutation) imports reps,
nor linalg, on which it runs.

All functions are pure.  The memoized tables are functools.lru_cache entries
keyed on the quiver: the indecomposable projectives (proj_rep, one per
vertex, shared by every complex) and the indecomposables (indec_of_root, one
per root), so results are identical under any evaluation order.  The CLI
reads each indecomposable once, through complexes.resolution; the test suite
resolves every root in several tests, and the memo builds each
indecomposable once for all of them.  Those tables hand every caller the
same Representation, so no representation is written after construction:
whatever is built from one (a direct sum, a RepMap, a resolution) copies its
entries.
"""

from collections import namedtuple
from fractions import Fraction
from functools import lru_cache

from . import linalg, quiver as qv


class Representation:
    """Vertexwise vector spaces and one exact-rational matrix per arrow.

    Matrix for an arrow i -> j has shape (dims[j], dims[i]).  Never written
    after construction: the memoized tables share one instance among callers.
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

    def __repr__(self):
        return "Representation(dims=%r)" % (self.dims,)


def zero_rep(q):
    return Representation(q, [0] * q.n)


def simple_rep(q, i):
    return Representation(q, qv.simple_root(q, i))


@lru_cache(maxsize=None)
def proj_rep(q, i):
    """Indecomposable projective at i (memoized); valid when paths between
    vertices are unique."""
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
    if any(r.quiver != q for r in reps):
        raise ValueError("direct sum of representations of different quivers")
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

    def __repr__(self):
        return "RepMap(%r -> %r)" % (self.source.dims, self.target.dims)


def zero_map(source, target):
    return RepMap(source, target,
                  [linalg.zeros(target.dims[v], source.dims[v]) for v in range(source.quiver.n)])


def commute_rows(total, sign, ut, a, us, b, nr, nc):
    """Rows of the nr x nc system U_t A + sign B U_s = 0, one per entry (r, c).

    The unknown matrices U_t and U_s are each an (offset, width) block stored
    row by row in a vector of length total, or None when the term is absent;
    the width of U_t is the number of rows of A, that of U_s is nc.
    """
    rows = []
    for r in range(nr):
        for c in range(nc):
            row = [Fraction(0)] * total
            if ut is not None:
                off, w = ut
                for k in range(w):
                    if a[k][c] != 0:
                        row[off + r * w + k] += a[k][c]
            if us is not None:
                off, w = us
                for k, x in enumerate(b[r]):
                    if x != 0:
                        row[off + k * w + c] += sign * x
            rows.append(row)
    return rows


def intertwiner_system(pairs):
    """Layout and intertwiner rows for the vertex maps of several pairs at once.

    pairs[d] = (M, N), e.g. one pair per degree of a chain map.  Returns
    (offs, total, rows): the vertex matrix phi_v (N_v x M_v) of pair d is
    stored row by row from offs[d][v] in one vector of length total, in the
    order of pairs, and rows is the system phi_t M_a = N_a phi_s over the
    arrows a: s -> t.
    """
    offs = {}
    total = 0
    for d, (m, n) in pairs.items():
        offs[d] = []
        for v in range(m.quiver.n):
            offs[d].append(total)
            total += n.dims[v] * m.dims[v]
    rows = [row for d, (m, n) in pairs.items()
            for a, (s, t) in enumerate(m.quiver.arrows)
            for row in commute_rows(total, -1, (offs[d][t], m.dims[t]), m.mats[a],
                                    (offs[d][s], m.dims[s]), n.mats[a], n.dims[t], m.dims[s])]
    return offs, total, rows


def _complement_projection(cols, dim):
    """Cokernel projection of the dim x len(cols) matrix with these columns.

    The complement of the column span is spanned by the standard vectors that
    extend its reduced echelon basis; the rows returned project Q^dim onto it."""
    if not dim:
        return []
    r, pivots = linalg.rref(cols)
    im_basis = r[:len(pivots)]
    std = linalg.identity(dim)
    u = linalg.transpose(im_basis + [std[i] for i in linalg.independent(std, im_basis)])
    # u's columns are a basis of Q^dim, so this solve is its inverse
    return linalg.solve_matrix(u, std)[len(im_basis):]


def _generator_images(m, i, gen):
    """Per vertex, the image in M of the generator of P_i sent to gen (a vector
    in M_i), or None off the support of P_i.

    The image at t is the arrow maps along the unique path from i applied to
    gen; in reversed sink-first order each arrow's source comes first."""
    q = m.quiver
    images = [None] * q.n
    images[i] = gen
    for s in reversed(qv.sink_first_order(q)):
        if images[s] is None:
            continue
        for a, (src, t) in enumerate(q.arrows):
            if src == s and images[t] is None:
                images[t] = ([sum(x * y for x, y in zip(row, images[s])) for row in m.mats[a]]
                             if m.dims[s] else [linalg.ZERO] * m.dims[t])
    return images


def projective_cover(m, spans):
    """(list of projective vertex indices, map from their sum into M) for the
    subrepresentation of M spanned by the vectors spans[v] of M_v at each v.

    The map is written in M's own coordinates and is onto that subrepresentation."""
    q = m.quiver
    indices = []
    images = []
    for v in range(q.n):
        if not spans[v]:
            continue
        # the generators of the top at v: span vectors outside the arrows' images
        arrow_images = [[sum(x * y for x, y in zip(row, w)) for row in mat]
                        for mat, (s, t) in zip(m.mats, q.arrows) if t == v
                        for w in spans[s]]
        for i in linalg.independent(spans[v], arrow_images):
            indices.append(v)
            images.append(_generator_images(m, v, spans[v][i]))
    if not indices:
        z = zero_rep(q)
        return [], zero_map(z, m)
    p0 = proj_sum_rep(q, indices)
    mats = []
    for v in range(q.n):
        cols = [im[v] for idx, im in zip(indices, images) if qv.proj_dims(q, idx)[v]]
        if m.dims[v] and cols:
            mats.append(linalg.transpose(cols))
        else:
            mats.append(linalg.zeros(m.dims[v], sum(qv.proj_dims(q, idx)[v] for idx in indices)))
    return indices, RepMap(p0, m, mats)


def proj_sum_rep(q, indices):
    if not indices:
        return zero_rep(q)
    return direct_sum([proj_rep(q, i) for i in indices])


# the minimal projective resolution 0 -> P1 --d--> P0 --eps--> M -> 0
ProjResolution = namedtuple("ProjResolution", "p1_indices p0_indices p1 p0 d eps")


def proj_resolution(m):
    """The cover eps of M, then the cover d of ker eps read off inside P0:
    kQ is hereditary, so d is injective and its source is ker eps."""
    p0_indices, eps = projective_cover(m, [linalg.identity(d) for d in m.dims])
    p0 = eps.source
    syz = [linalg.nullspace(eps.mats[v], p0.dims[v]) for v in range(m.quiver.n)]
    p1_indices, d = projective_cover(p0, syz)
    p1 = d.source
    if p1.dims != tuple(map(len, syz)):
        raise qv.InternalInconsistencyError("first syzygy is not projective")
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
        # reversed arrow t -> v: include M_t into the sum, then project off the image
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
    as dimension vector (memoized for the test suite's sweeps over every root:
    the CLI reads each one once, through complexes.resolution).

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
# text format


def format_rep(m):
    lines = ["rep dims=[%s]" % ",".join(str(d) for d in m.dims)]
    for a, (s, t) in enumerate(m.quiver.arrows):
        if m.dims[s] and m.dims[t]:
            rows = ";".join("[%s]" % ",".join(str(x) for x in row) for row in m.mats[a])
            lines.append("mat %d = [%s]" % (a + 1, rows))
    return "\n".join(lines) + "\n"
