"""Bounded complexes of projectives: the homotopy-category oracle.

What remains here: stalk_complex, the minimal projective resolution of an
indecomposable stalk; HomKSpace, Hom in the homotopy category, solved exactly
as the chain-map system modulo the image of the homotopy system; and
sgldim_ringel, the chain-map oracle of sgd.sgldim.  The oracle evaluates
length profiles by a scan over shifts (sgldim_scan, _profile), asking a Hom
function at each shift, where sgd reads them off in closed form; it runs the
scan on homk_pair_dim, and the test suite also on derived.pair_hom_dim.
This module imports the product modules (derived, sgd), never the reverse.

Every complex built here is minimal: a stalk complex is a minimal projective
resolution P1 -> P0, and P1 and P0 even share no indecomposable summand (a
rigid module's minimal presentation has none in common: Adachi-Iyama-Reiten,
*tau-tilting theory*, 2014).  So no block of a differential runs between
equal projectives, nothing is contractible, and Ringel's length is the degree
span hi - lo.  The test suite pins both on every reference root.

Terms are multisets of indecomposable projectives (stored as vertex index
lists); differentials are morphisms of representations, kept as block grids of
maps between single projectives.  Shift convention: X[1] moves the term of
degree d to degree d-1 and negates the differentials; stalks of modules sit
in degrees (-1-k, -k) for an object placed at suspension k.
"""

from fractions import Fraction
from functools import lru_cache

from . import derived as dv, linalg, quiver as qv, reps, sgd
from .linalg import Subspace
from .reps import RepMap


def _proj_offsets(q, indices):
    """Per-vertex starting offsets of each projective summand inside the sum."""
    offs = []
    run = [0] * q.n
    for i in indices:
        offs.append(tuple(run))
        pd = qv.proj_dims(q, i)
        run = [run[v] + pd[v] for v in range(q.n)]
    return offs, tuple(run)


def _slice_blocks(q, src_indices, tgt_indices, f):
    """Cut a morphism between sums of projectives into its (target, source) blocks."""
    soffs, _ = _proj_offsets(q, src_indices)
    toffs, _ = _proj_offsets(q, tgt_indices)
    blocks = []
    for b, tb in enumerate(tgt_indices):
        row = []
        tdims = qv.proj_dims(q, tb)
        for a, sa in enumerate(src_indices):
            sdims = qv.proj_dims(q, sa)
            mats = []
            for v in range(q.n):
                if tdims[v] and sdims[v]:
                    big = f._mat(v)
                    mats.append([[big[toffs[b][v] + r][soffs[a][v] + c]
                                  for c in range(sdims[v])] for r in range(tdims[v])])
                else:
                    mats.append(linalg.zeros(tdims[v], sdims[v]))
            row.append(RepMap(reps.proj_rep(q, sa), reps.proj_rep(q, tb), mats))
        blocks.append(row)
    return blocks


def _assemble_blocks(q, src_indices, tgt_indices, blocks):
    src = reps.proj_sum_rep(q, src_indices)
    tgt = reps.proj_sum_rep(q, tgt_indices)
    soffs, sdims = _proj_offsets(q, src_indices)
    toffs, tdims = _proj_offsets(q, tgt_indices)
    mats = [linalg.zeros(tdims[v], sdims[v]) for v in range(q.n)]
    for b, tb in enumerate(tgt_indices):
        td = qv.proj_dims(q, tb)
        for a, sa in enumerate(src_indices):
            blk = blocks[b][a]
            sd = qv.proj_dims(q, sa)
            for v in range(q.n):
                if td[v] and sd[v]:
                    bm = blk._mat(v)
                    for r in range(td[v]):
                        for c in range(sd[v]):
                            mats[v][toffs[b][v] + r][soffs[a][v] + c] = bm[r][c]
    return RepMap(src, tgt, mats)


class ProjComplex:
    """Bounded complex of sums of indecomposable projectives; d o d = 0 is trusted."""

    def __init__(self, q, terms, diffs):
        self.quiver = q
        self.terms = {d: tuple(t) for d, t in terms.items() if t}
        self.diffs = {d: blocks for d, blocks in diffs.items()
                      if d in self.terms and (d + 1) in self.terms}
        self._term_reps = {}

    def degrees(self):
        return sorted(self.terms)

    @property
    def lo(self):
        return min(self.terms) if self.terms else 0

    @property
    def hi(self):
        return max(self.terms) if self.terms else 0

    def term(self, d):
        return self.terms.get(d, ())

    def term_rep(self, d):
        if d not in self._term_reps:
            self._term_reps[d] = reps.proj_sum_rep(self.quiver, self.term(d))
        return self._term_reps[d]

    def diff(self, d):
        """Assembled differential out of degree d (a zero map on empty terms)."""
        if d in self.diffs:
            return _assemble_blocks(self.quiver, self.term(d), self.term(d + 1), self.diffs[d])
        return reps.zero_map(self.term_rep(d), self.term_rep(d + 1))

    def __repr__(self):
        return "ProjComplex(%r)" % ({d: self.term(d) for d in self.degrees()},)


def stalk_complex(q, root, shift=0):
    """Minimal complex of the indecomposable stalk M[shift] for a positive root."""
    m = reps.indec_of_root(q, root)
    res = reps.proj_resolution(m)
    if not res.p1_indices:
        return ProjComplex(q, {-shift: tuple(res.p0_indices)}, {})
    blocks = _slice_blocks(q, res.p1_indices, res.p0_indices, res.d)
    return ProjComplex(q, {-1 - shift: tuple(res.p1_indices), -shift: tuple(res.p0_indices)},
                       {-1 - shift: blocks})


# ---------------------------------------------------------------------------
# Hom in the homotopy category


def _vec_of_maps(offs, total, maps):
    """Inverse of reps.vector_to_map for degreewise maps laid out by intertwiner_system."""
    vec = [Fraction(0)] * total
    for d, f in maps.items():
        m, n = f.source, f.target
        for v in range(len(m.dims)):
            if m.dims[v] and n.dims[v]:
                fm = f._mat(v)
                for r in range(n.dims[v]):
                    for c in range(m.dims[v]):
                        vec[offs[d][v] + r * m.dims[v] + c] = fm[r][c]
    return vec


class HomKSpace:
    """Hom(X, Y) in the homotopy category.

    dim is its dimension.  _rep_vecs are chain maps (as unknown vectors laid
    out by _offs) whose classes form a basis modulo _bbasis, a basis of the
    null-homotopic ones.
    """

    def __init__(self, x, y):
        q = x.quiver
        degrees = sorted(set(x.terms) & set(y.terms))
        self._pairs = {d: (x.term_rep(d), y.term_rep(d)) for d in degrees}
        self._offs, self._total, rows = reps.intertwiner_system(self._pairs)
        # chain condition: phi^{d+1} dX^d - dY^d phi^d = 0, expressed on the unknowns
        for d in sorted(x.terms):
            dx = x.diff(d)
            dy = y.diff(d)
            src, nxt = x.term_rep(d), x.term_rep(d + 1)
            tgt = y.term_rep(d + 1)
            for v in range(q.n):
                if src.dims[v] == 0 or tgt.dims[v] == 0:
                    continue
                for r in range(tgt.dims[v]):
                    for c in range(src.dims[v]):
                        row = [Fraction(0)] * self._total
                        nontrivial = False
                        if (d + 1) in self._pairs:
                            dxm = dx._mat(v)
                            for k in range(nxt.dims[v]):
                                if dxm[k][c] != 0:
                                    row[self._offs[d + 1][v] + r * nxt.dims[v] + k] += dxm[k][c]
                                    nontrivial = True
                        if d in self._pairs:
                            dym = dy._mat(v)
                            for k in range(y.term_rep(d).dims[v]):
                                if dym[r][k] != 0:
                                    row[self._offs[d][v] + k * src.dims[v] + c] -= dym[r][k]
                                    nontrivial = True
                        if nontrivial:
                            rows.append(row)
        z_basis = linalg.solutions(rows, self._total)
        # homotopies: maps X^d -> Y^{d-1} with no chain condition
        hpairs = {d: (x.term_rep(d), y.term_rep(d - 1)) for d in x.terms if y.term(d - 1)}
        hoffs, htotal, hrows = reps.intertwiner_system(hpairs)
        boundaries = []
        for hv in linalg.solutions(hrows, htotal):
            hmaps = {d: reps.vector_to_map(m, n, hoffs[d], hv) for d, (m, n) in hpairs.items()}
            comps = {}
            for d in degrees:
                parts = []
                if (d + 1) in hmaps:
                    parts.append(hmaps[d + 1].compose(x.diff(d)))
                if d in hmaps:
                    parts.append(y.diff(d - 1).compose(hmaps[d]))
                if parts:
                    f = parts[0]
                    for p in parts[1:]:
                        f = f.add(p)
                    comps[d] = f
            boundaries.append(_vec_of_maps(self._offs, self._total, comps))
        bspan = Subspace(self._total)
        self._bbasis = []
        for bv in boundaries:
            if bspan.add(bv):
                self._bbasis.append(bv)
        self._rep_vecs = [z_basis[i] for i in bspan.extend_basis(z_basis)]
        self.dim = len(self._rep_vecs)


# memoized per-quiver tables (functools.lru_cache; cache_info() reports use)


@lru_cache(maxsize=None)
def stalk_complex_cached(q, root, shift):
    return stalk_complex(q, root, shift)


@lru_cache(maxsize=None)
def homk_pair_dim(q, r1, r2, gap):
    """dim Hom_K(res(M1), res(M2)[gap]); depends on the shift gap only."""
    return HomKSpace(stalk_complex_cached(q, r1, 0), stalk_complex_cached(q, r2, gap)).dim


# ---------------------------------------------------------------------------
# strong global dimension from chain maps: the oracle of sgd.sgldim


def _profile(q, t_indecs, x_root, x_shift, pair):
    """Exact extreme shifts of Hom(X, T[n]) and Hom(T[n], X), each Hom
    dimension read off pair(q, r1, s1, r2, s2).

    Only n with a shift gap of 0 or 1 against some summand can contribute, so
    both scans are finite.
    """
    smin = min(s for _, s in t_indecs)
    smax = max(s for _, s in t_indecs)
    ell_plus = None
    for n in range(x_shift + 1 - smin, x_shift - smax - 1, -1):
        if any(pair(q, x_root, x_shift, r, s + n) for r, s in t_indecs):
            ell_plus = n
            break
    ell_minus = None
    for n in range(x_shift - 1 - smax, x_shift - smin + 1):
        if any(pair(q, r, s + n, x_root, x_shift) for r, s in t_indecs):
            ell_minus = n
            break
    if ell_plus is None or ell_minus is None:
        raise qv.InternalInconsistencyError(
            "tilting object misses %r[%d] entirely" % (x_root, x_shift))
    return sgd.LengthProfile(ell_minus, ell_plus)


def sgldim_scan(t, pair):
    """sup of ell_T with its witness, the profiles scanned shift by shift
    (_profile) with each Hom dimension read off pair(q, r1, s1, r2, s2)."""
    q = t.quiver
    indecs = t.basic().indecs()
    best_val = -1
    best_witness = None
    # ell is invariant under suspension of X, so each root is solved once, at shift 0
    for root in qv.positive_roots(q):
        prof = _profile(q, indecs, root, 0, pair)
        key = (-prof.ell_minus, root)
        if prof.ell > best_val or (prof.ell == best_val and key < best_witness):
            best_val = prof.ell
            best_witness = key
    w = dv.stalk(q, best_witness[1], best_witness[0])
    return sgd.SgdReport(best_val, w)


def _chain_pair(q, r1, s1, r2, s2):
    return homk_pair_dim(q, r1, r2, s2 - s1)


def _is_projective_slice(t):
    tb = t.basic()
    q = t.quiver
    if tb.num_distinct() != q.n or tb.spread != 0:
        return False
    return set(r for r, _ in tb.indecs()) == set(qv.proj_roots(q))


def sgldim_ringel(t):
    """Cross-oracle value: chain-map profiles, and, when T is the projective
    generator (up to suspension), also Ringel's own definition: the largest
    length hi - lo of a minimal complex of an indecomposable module.

    Raises on any disagreement with sgd.sgldim.
    """
    return _sgldim_ringel(t.basic())


@lru_cache(maxsize=None)
def _sgldim_ringel(t):
    """sgldim_ringel on a basic T.  On the projective slice the lengths are
    the degree spans hi - lo of the stalk complexes: these are minimal (see
    the module docstring), so the span is Ringel's length."""
    if not dv.is_tilting(t):
        raise ValueError("strong global dimension needs a tilting object")
    q = t.quiver
    rep = sgldim_scan(t, _chain_pair)
    if _is_projective_slice(t):
        sup_len = 0
        for root in qv.positive_roots(q):
            c = stalk_complex_cached(q, root, 0)
            sup_len = max(sup_len, c.hi - c.lo)
        if sup_len != rep.value:
            raise qv.InternalInconsistencyError(
                "minimal-complex lengths disagree with the profile scan: %d vs %d"
                % (sup_len, rep.value))
    ref = sgd.sgldim(t)
    if rep.value != ref.value:
        raise qv.InternalInconsistencyError(
            "dual strong-global-dimension algorithms disagree: %d vs %d"
            % (ref.value, rep.value))
    return rep
