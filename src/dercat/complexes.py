"""Bounded complexes of projectives: the homotopy-category model.

Terms are multisets of indecomposable projectives (stored as vertex index
lists); differentials are morphisms of representations, kept as block grids of
maps between single projectives.  Hom spaces in the homotopy category are
computed by solving the chain-map system exactly and quotienting by the image
of the homotopy system.

sgldim_ringel, the chain-map oracle of sgd.sgldim, lives here too: it runs
sgd's profile scan with homk_pair_dim in place of the Euler-form rule.  This
module imports the product modules (derived, sgd), never the reverse.

Shift convention: shift(X, 1) moves the term of degree d to degree d-1 and
negates the differentials; stalks of modules sit in degrees (-1-k, -k) for an
object placed at suspension k.
"""

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from . import derived as dv, linalg, quiver as qv, reps, sgd
from .linalg import Subspace
from .reps import RepMap


class ZeroObjectError(ValueError):
    pass


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
            if blk is None:
                continue
            sd = qv.proj_dims(q, sa)
            for v in range(q.n):
                if td[v] and sd[v]:
                    bm = blk._mat(v)
                    for r in range(td[v]):
                        for c in range(sd[v]):
                            mats[v][toffs[b][v] + r][soffs[a][v] + c] = bm[r][c]
    return RepMap(src, tgt, mats)


class ProjComplex:
    """Bounded complex of direct sums of indecomposable projectives.

    The constructor trusts its differentials; `validate()` checks d o d = 0.
    """

    def __init__(self, q, terms, diffs):
        self.quiver = q
        self.terms = {d: tuple(t) for d, t in terms.items() if t}
        self.diffs = {}
        for d, blocks in diffs.items():
            if d in self.terms and (d + 1) in self.terms:
                self.diffs[d] = [[blk for blk in row] for row in blocks]
        self._term_reps = {}

    def degrees(self):
        return sorted(self.terms)

    @property
    def lo(self):
        return min(self.terms) if self.terms else 0

    @property
    def hi(self):
        return max(self.terms) if self.terms else 0

    def is_zero(self):
        return not self.terms

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

    def validate(self):
        for d in self.degrees():
            if self.term(d + 1) and self.term(d + 2):
                sq = self.diff(d + 1).compose(self.diff(d))
                if not sq.is_zero():
                    raise ValueError("differential does not square to zero at degree %d" % d)

    def shift(self, k):
        sign = Fraction(-1) ** (k % 2)
        terms = {d - k: t for d, t in self.terms.items()}
        diffs = {}
        for d, blocks in self.diffs.items():
            diffs[d - k] = [[None if blk is None else blk.scale(sign) for blk in row]
                            for row in blocks]
        return ProjComplex(self.quiver, terms, diffs)

    def direct_sum(self, other):
        assert self.quiver == other.quiver
        terms = {}
        diffs = {}
        for d in set(self.terms) | set(other.terms):
            terms[d] = self.term(d) + other.term(d)
        for d in terms:
            if not terms.get(d + 1):
                continue
            rows = []
            na, nb = len(self.term(d)), len(other.term(d))
            for b in range(len(self.term(d + 1))):
                row = [self.diffs[d][b][a] if d in self.diffs else None for a in range(na)]
                rows.append(row + [None] * nb)
            for b in range(len(other.term(d + 1))):
                row = [None] * na
                row += [other.diffs[d][b][a] if d in other.diffs else None for a in range(nb)]
                rows.append(row)
            if rows:
                diffs[d] = rows
        return ProjComplex(self.quiver, terms, diffs)

    def blocks_or_zero(self, d):
        if d in self.diffs:
            return self.diffs[d]
        return [[None] * len(self.term(d)) for _ in self.term(d + 1)]

    def minimize(self):
        """Homotopy-equivalent complex with radical differentials.

        Gaussian elimination on isomorphism blocks between equal projectives in
        adjacent degrees; pivots are chosen lowest degree first, then lowest
        summand positions, so the result is deterministic.
        """
        q = self.quiver
        terms = {d: list(t) for d, t in self.terms.items()}
        diffs = {d: [row[:] for row in blocks] for d, blocks in self.diffs.items()}

        def find_pivot():
            for d in sorted(diffs):
                blocks = diffs[d]
                for a in range(len(terms[d])):
                    for b in range(len(terms[d + 1])):
                        if terms[d][a] != terms[d + 1][b]:
                            continue
                        blk = blocks[b][a]
                        if blk is None:
                            continue
                        i = terms[d][a]
                        lam = blk._mat(i)[0][0]
                        if lam != 0:
                            return d, a, b, lam
            return None

        while True:
            piv = find_pivot()
            if piv is None:
                break
            d, a, b, lam = piv
            blocks = diffs[d]
            col_a = [blocks[bb][a] for bb in range(len(terms[d + 1]))]
            row_b = blocks[b]
            for bb in range(len(terms[d + 1])):
                if bb == b or col_a[bb] is None:
                    continue
                for aa in range(len(terms[d])):
                    if aa == a or row_b[aa] is None:
                        continue
                    corr = col_a[bb].compose(row_b[aa]).scale(Fraction(1) / lam)
                    cur = blocks[bb][aa]
                    blocks[bb][aa] = corr.neg() if cur is None else cur.add(corr.neg())
            # drop the contractible pair
            for bb in range(len(terms[d + 1])):
                del blocks[bb][a]
            del blocks[b]
            del terms[d][a]
            del terms[d + 1][b]
            if d - 1 in diffs:
                diffs[d - 1] = [row for i, row in enumerate(diffs[d - 1]) if i != a]
            if d + 1 in diffs:
                for row in diffs[d + 1]:
                    del row[b]
            for dd in (d - 1, d, d + 1):
                if dd in diffs and (not terms.get(dd) or not terms.get(dd + 1)):
                    del diffs[dd]
            for dd in (d, d + 1):
                if dd in terms and not terms[dd]:
                    del terms[dd]
        return ProjComplex(q, {d: tuple(t) for d, t in terms.items()}, diffs)

    def homology(self):
        """H^d for each degree, as representations (only nonzero ones returned)."""
        out = {}
        for d in self.degrees():
            z, inc = reps.kernel(self.diff(d))
            if z.is_zero():
                continue
            prev = self.diff(d - 1) if self.term(d - 1) else reps.zero_map(
                reps.zero_rep(self.quiver), self.term_rep(d))
            gmats = []
            ok = True
            for v in range(self.quiver.n):
                if z.dims[v] and prev.source.dims[v]:
                    sol = linalg.solve_matrix(inc._mat(v), prev._mat(v))
                    if sol is None:
                        raise qv.InternalInconsistencyError("image not inside kernel")
                    gmats.append(sol)
                else:
                    gmats.append(linalg.zeros(z.dims[v], prev.source.dims[v]))
            g = RepMap(prev.source, z, gmats)
            h, _ = reps.cokernel(g)
            if not h.is_zero():
                out[d] = h
        return out

    def __repr__(self):
        return "ProjComplex(%r)" % ({d: self.term(d) for d in self.degrees()},)


@dataclass(frozen=True)
class RingelLength:
    r: int
    s: int

    @property
    def length(self):
        return self.s - self.r


def ringel_length(x):
    """Extreme degrees of the minimal model; undefined for the zero object."""
    m = x.minimize()
    if m.is_zero():
        raise ZeroObjectError("the zero object has no length")
    return RingelLength(m.lo, m.hi)


def zero_complex(q):
    return ProjComplex(q, {}, {})


def stalk_complex(q, root, shift=0):
    """Minimal complex of the indecomposable stalk M[shift] for a positive root."""
    m = reps.indec_of_root(q, root)
    res = reps.proj_resolution(m)
    if not res.p1_indices:
        return ProjComplex(q, {-shift: tuple(res.p0_indices)}, {})
    blocks = _slice_blocks(q, res.p1_indices, res.p0_indices, res.d)
    return ProjComplex(q, {-1 - shift: tuple(res.p1_indices), -shift: tuple(res.p0_indices)},
                       {-1 - shift: blocks})


class ChainMap:
    """Degreewise morphisms commuting with the differentials."""

    def __init__(self, source, target, comps):
        self.source = source
        self.target = target
        self.comps = {d: f for d, f in comps.items()
                      if source.term(d) and target.term(d)}

    def comp(self, d):
        if d in self.comps:
            return self.comps[d]
        return reps.zero_map(self.source.term_rep(d), self.target.term_rep(d))

    def is_chain_map(self):
        for d in set(self.source.terms) | set(self.target.terms):
            if not self.source.term(d):
                continue
            lhs = self.comp(d + 1).compose(self.source.diff(d))
            rhs = self.target.diff(d).compose(self.comp(d))
            for v in range(self.source.quiver.n):
                if not linalg.mat_eq(lhs._mat(v), rhs._mat(v)):
                    return False
        return True

    def compose(self, other):
        assert other.target is self.source or other.target.terms == self.source.terms
        comps = {}
        for d in self.comps:
            if other.source.term(d):
                comps[d] = self.comp(d).compose(other.comp(d))
        return ChainMap(other.source, self.target, comps)


def identity_chain_map(x):
    return ChainMap(x, x, {d: reps.identity_map(x.term_rep(d)) for d in x.degrees()})


def cone(f):
    """Mapping cone; degree d term is X^{d+1} + Y^d."""
    x, y = f.source, f.target
    q = x.quiver
    terms = {}
    for d in set(xd - 1 for xd in x.terms) | set(y.terms):
        terms[d] = x.term(d + 1) + y.term(d)
    diffs = {}
    for d in list(terms):
        if not terms.get(d) or not terms.get(d + 1):
            continue
        nx, ny = len(x.term(d + 1)), len(y.term(d))
        nxt_x, nxt_y = len(x.term(d + 2)), len(y.term(d + 1))
        xblocks = x.blocks_or_zero(d + 1) if x.term(d + 1) and x.term(d + 2) else None
        yblocks = y.blocks_or_zero(d) if y.term(d) and y.term(d + 1) else None
        fblocks = (_slice_blocks(q, x.term(d + 1), y.term(d + 1), f.comp(d + 1))
                   if x.term(d + 1) and y.term(d + 1) else None)
        rows = []
        for b in range(nxt_x):
            row = [None if xblocks is None or xblocks[b][a] is None else xblocks[b][a].neg()
                   for a in range(nx)]
            rows.append(row + [None] * ny)
        for b in range(nxt_y):
            row = [None if fblocks is None else fblocks[b][a] for a in range(nx)]
            row += [None if yblocks is None else yblocks[b][a] for a in range(ny)]
            rows.append(row)
        if rows:
            diffs[d] = rows
    out = ProjComplex(q, terms, diffs)
    out.validate()
    return out


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
    """Hom(X, Y) in the homotopy category: dimension, basis, and coordinates."""

    def __init__(self, x, y):
        self.x = x
        self.y = y
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

    @property
    def basis(self):
        return [ChainMap(self.x, self.y,
                         {d: reps.vector_to_map(m, n, self._offs[d], vec)
                          for d, (m, n) in self._pairs.items()})
                for vec in self._rep_vecs]

    def coords(self, f):
        """Coordinates of a chain map in the quotient basis (modulo homotopy)."""
        vec = _vec_of_maps(self._offs, self._total, {d: f.comp(d) for d in self._pairs})
        cols = [list(v) for v in self._rep_vecs] + [list(b) for b in self._bbasis]
        if not cols:
            if any(x != 0 for x in vec):
                raise qv.InternalInconsistencyError("nonzero map in a zero Hom space")
            return ()
        sol = linalg.solve(linalg.transpose(cols), vec)
        if sol is None:
            raise qv.InternalInconsistencyError("chain map outside the computed Hom space")
        return tuple(sol[: self.dim])


# memoized per-quiver tables (functools.lru_cache; cache_info() reports use)


@lru_cache(maxsize=None)
def stalk_complex_cached(q, root, shift):
    return stalk_complex(q, root, shift)


@lru_cache(maxsize=None)
def homk_space_cached(q, src, tgt):
    """HomKSpace between cached stalk complexes; src and tgt are (root, shift)."""
    return HomKSpace(stalk_complex_cached(q, *src), stalk_complex_cached(q, *tgt))


@lru_cache(maxsize=None)
def homk_pair_dim(q, r1, r2, gap):
    """dim Hom_K(res(M1), res(M2)[gap]); depends on the shift gap only."""
    return HomKSpace(stalk_complex_cached(q, r1, 0), stalk_complex_cached(q, r2, gap)).dim


# ---------------------------------------------------------------------------
# strong global dimension from chain maps: the oracle of sgd.sgldim


def _chain_pair(q, r1, s1, r2, s2):
    return homk_pair_dim(q, r1, r2, s2 - s1)


def _is_projective_slice(t):
    tb = t.basic()
    q = t.quiver
    if tb.num_distinct() != q.n or tb.spread != 0:
        return False
    return set(r for r, _ in tb.indecs()) == set(qv.proj_roots(q))


def sgldim_ringel(t):
    """Cross-oracle value: chain-map profiles, or genuine minimal-complex lengths
    when T is the projective generator (up to suspension).

    Raises on any disagreement with sgd.sgldim.
    """
    return _sgldim_ringel(t.basic())


@lru_cache(maxsize=None)
def _sgldim_ringel(t):
    if not dv.is_tilting(t):
        raise ValueError("strong global dimension needs a tilting object")
    q = t.quiver
    rep = sgd.sgldim_scan(t, _chain_pair)
    if _is_projective_slice(t):
        sup_len = 0
        for root in qv.positive_roots(q):
            sup_len = max(sup_len, ringel_length(stalk_complex_cached(q, root, 0)).length)
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
