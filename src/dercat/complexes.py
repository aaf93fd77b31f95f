"""Bounded complexes of projectives: the homotopy-category oracle.

What remains here: stalk_complex, the minimal projective resolution of an
indecomposable stalk placed at its shift; HomKSpace, Hom in the homotopy
category, solved exactly as the chain-map system modulo the image of the
homotopy system; and sgldim_ringel, the chain-map oracle of sgd.sgldim.
HomKSpace builds all three of its linear systems, the intertwiners, the chain
condition and the boundary map of the homotopies, from reps.commute_rows over
unknown vectors: no chain map or homotopy is ever built as a RepMap.  A chain
map lives in the degrees where X and Y both have terms, so when they share
none HomKSpace is 0 at once, with no system built and no elimination.  The
memo is on the resolution, one per (quiver, root): every shift of a stalk
places the same resolution, so each root is resolved once.  The oracle
evaluates length profiles by a scan over shifts (sgldim_scan, _profile),
asking a Hom function at each shift, where sgd reads them off in closed form;
it runs the scan on homk_pair_dim, and the test suite also on
derived.pair_hom_dim.  This module imports the product modules (derived,
sgd), never the reverse.

Every complex built here is minimal: a stalk complex is a minimal projective
resolution P1 -> P0, and P1 and P0 even share no indecomposable summand (a
rigid module's minimal presentation has none in common: Adachi-Iyama-Reiten,
*tau-tilting theory*, 2014).  So no block of a differential runs between
equal projectives, nothing is contractible, and Ringel's length is the degree
span hi - lo.  The test suite pins both on every reference root.

Terms are multisets of indecomposable projectives (stored as vertex index
lists); differentials are morphisms of representations.  A stalk complex's
terms and differential are its resolution's own p1, p0 and d, shared by
reference: projective_cover builds each term as the direct sum of its
summands in index order, so nothing is assembled or copied per HomKSpace,
which reads the differentials' matrices as they are.  The stalk of a module
at suspension k sits in degrees (-1-k, -k) and keeps the unsigned d at every
k.  The suspension X[k] moves the term of degree d to degree d-k and takes
the sign (-1)^k on the differentials; negating every other term is an
isomorphism from that complex to the stalk, so every Hom dimension is the
same (the test suite compares them on every root pair of D4 and A5).
"""

from functools import lru_cache

from . import derived as dv, linalg, quiver as qv, reps, sgd


class ProjComplex:
    """Bounded complex of sums of indecomposable projectives; d o d = 0 is trusted.

    Three tables, each keyed by degree and holding only the degrees whose
    term is non-empty: terms[d], the vertex indices of the term's
    indecomposable summands; term_reps[d], their direct sum in that order;
    and diffs[d], the differential, a RepMap from term_reps[d] to
    term_reps[d + 1] (absent where either term is empty).
    """

    def __init__(self, q, terms, term_reps, diffs):
        self.quiver = q
        self.terms = terms
        self.term_reps = term_reps
        self.diffs = diffs

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
        return self.term_reps[d] if d in self.term_reps else reps.zero_rep(self.quiver)

    def __repr__(self):
        return "ProjComplex(%r)" % ({d: self.term(d) for d in self.degrees()},)


@lru_cache(maxsize=None)
def resolution(q, root):
    """The minimal projective resolution of the indecomposable of a positive
    root (memoized per quiver): every shift of its stalk places this one."""
    return reps.proj_resolution(reps.indec_of_root(q, root))


def stalk_complex(q, root, shift):
    """Minimal complex of the indecomposable stalk M[shift] for a positive root:
    the memoized resolution's p1, p0 and d, by reference, in degrees
    -1-shift and -shift."""
    res = resolution(q, root)
    if not res.p1_indices:
        return ProjComplex(q, {-shift: tuple(res.p0_indices)}, {-shift: res.p0}, {})
    return ProjComplex(q, {-1 - shift: tuple(res.p1_indices), -shift: tuple(res.p0_indices)},
                       {-1 - shift: res.p1, -shift: res.p0}, {-1 - shift: res.d})


# ---------------------------------------------------------------------------
# Hom in the homotopy category


class HomKSpace:
    """Hom(X, Y) in the homotopy category.

    dim is its dimension.  _rep_vecs are chain maps (as unknown vectors laid
    out by _offs) whose classes form a basis modulo _bbasis, a basis of the
    null-homotopic ones.  When X and Y share no degree every table is empty
    and dim is 0, with nothing solved.
    """

    def __init__(self, x, y):
        q = x.quiver
        degrees = sorted(set(x.terms) & set(y.terms))
        if not degrees:
            # a chain map lives in the shared degrees: with none, Hom is 0
            self.dim, self._rep_vecs, self._bbasis = 0, [], []
            self._pairs, self._offs, self._total = {}, {}, 0
            return
        self._pairs = {d: (x.term_rep(d), y.term_rep(d)) for d in degrees}
        offs, total, rows = reps.intertwiner_system(self._pairs)
        self._offs, self._total = offs, total

        def commute(uoffs, utotal, sign, d, e):
            """Rows, at every vertex, of u^{d+1} dX^d + sign dY^e u^d: maps
            X^d -> Y^{e+1} in the unknown maps u laid out by uoffs (none
            where Y^{e+1} is empty)."""
            if e + 1 not in y.terms:
                return []
            f = x.diffs[d].mats if d in x.diffs and d + 1 in uoffs else None
            g = y.diffs[e].mats if e in y.diffs and d in uoffs else None
            src, tgt = x.term_rep(d), y.term_rep(e + 1)
            out = []
            for v in range(q.n):
                ut = (uoffs[d + 1][v], x.term_rep(d + 1).dims[v]) if f else None
                us = (uoffs[d][v], src.dims[v]) if g else None
                out += reps.commute_rows(utotal, sign, ut, f and f[v], us, g and g[v],
                                         tgt.dims[v], src.dims[v])
            return out

        # chain condition: phi^{d+1} dX^d - dY^d phi^d = 0
        rows += [row for d in sorted(x.terms) for row in commute(offs, total, -1, d, d)
                 if any(row)]
        z_basis = linalg.nullspace(rows, total)
        # homotopies: maps h^d: X^d -> Y^{d-1} with no chain condition.  The
        # boundary of h is L h, where the row of L at a chain coordinate of
        # degree d is that of h^{d+1} dX^d + dY^{d-1} h^d
        hpairs = {d: (x.term_rep(d), y.term_rep(d - 1)) for d in x.terms if y.term(d - 1)}
        hoffs, htotal, hrows = reps.intertwiner_system(hpairs)
        h_basis = linalg.nullspace(hrows, htotal)
        boundaries = []
        if h_basis:
            lrows = [row for d in offs for row in commute(hoffs, htotal, 1, d, d - 1)]
            boundaries = linalg.mat_mul_dims(h_basis, linalg.transpose(lrows),
                                             len(h_basis), htotal, total)
        # one elimination picks a basis of the boundaries, then the cycles
        # that extend it
        nb = len(boundaries)
        picked = linalg.independent(boundaries + z_basis)
        self._bbasis = [boundaries[i] for i in picked if i < nb]
        self._rep_vecs = [z_basis[i - nb] for i in picked if i >= nb]
        self.dim = len(self._rep_vecs)


# memoized per-quiver tables (functools.lru_cache; cache_info() reports use)


@lru_cache(maxsize=None)
def homk_pair_dim(q, r1, r2, gap):
    """dim Hom_K(res(M1), res(M2)[gap]); depends on the shift gap only."""
    return HomKSpace(stalk_complex(q, r1, 0), stalk_complex(q, r2, gap)).dim


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
            c = stalk_complex(q, root, 0)
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
