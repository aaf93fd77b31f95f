"""Slices of the AR quiver and hereditary generating subcategories.

For a Dynkin quiver the whole derived category is a single transjective
component of shape ZQ, so slices are sections of ZQ: one vertex per tau-orbit,
adjacent choices differing by the mesh relations.  A tilting object determines
a canonical slice through its Hom-minimal summands, whose window reproduces
the strong global dimension exactly (minus two).
"""

from dataclasses import dataclass, field
from functools import lru_cache

from . import derived as dv, quiver as qv, sgd
from .quiver import InternalInconsistencyError


class SliceError(ValueError):
    """Input the slice machinery does not cover (the CLI exits 2 on it)."""


class ZQ:
    """The translation quiver ZQ with its dictionary to stalk objects.

    Vertices are (m, i): the m-th inverse-tau translate of the projective at
    vertex i, with (0, i) the projective slice at suspension 0.
    """

    def __init__(self, q):
        qv.ensure_dynkin(q)
        if not q.is_connected():
            raise SliceError("slice machinery needs a connected quiver")
        self.q = q
        self._obj = {}
        self._vert = {}
        for i in range(q.n):
            self._set(0, i, (qv.proj_dims(q, i), 0))
        self._mrange = {i: (0, 0) for i in range(q.n)}

    def _set(self, m, i, obj):
        self._obj[(m, i)] = obj
        self._vert[obj] = (m, i)

    def object_of(self, m, i):
        """(root, shift) of the vertex; expands the dictionary lazily."""
        if (m, i) not in self._obj:
            lo, hi = self._mrange[i]
            while hi < m:
                cur = dv.stalk(self.q, *self._obj[(hi, i)])
                nxt = dv.tau_inv_derived(cur).indecs()[0]
                hi += 1
                self._set(hi, i, nxt)
            while lo > m:
                cur = dv.stalk(self.q, *self._obj[(lo, i)])
                prv = dv.tau_derived(cur).indecs()[0]
                lo -= 1
                self._set(lo, i, prv)
            self._mrange[i] = (lo, hi)
        return self._obj[(m, i)]

    def vertex_of(self, obj):
        obj = (tuple(obj[0]), int(obj[1]))
        if obj in self._vert:
            return self._vert[obj]
        cap = len(qv.positive_roots(self.q)) * (abs(obj[1]) + 3)
        for i in range(self.q.n):
            lo, hi = self._mrange[i]
            for m in range(hi + 1, hi + cap + 1):
                if self.object_of(m, i) == obj:
                    return (m, i)
            lo, _ = self._mrange[i]
            for m in range(lo - 1, lo - cap - 1, -1):
                if self.object_of(m, i) == obj:
                    return (m, i)
        raise InternalInconsistencyError("object %r not found in ZQ" % (obj,))

    def tau_inv(self, v):
        return (v[0] + 1, v[1])

    def arrows_out(self, v):
        m, i = v
        out = [(m, u) for u, w in self.q.arrows if w == i]
        out += [(m + 1, w) for u, w in self.q.arrows if u == i]
        return out

    def arrows_in(self, v):
        m, i = v
        inn = [(m, w) for u, w in self.q.arrows if u == i]
        inn += [(m - 1, u) for u, w in self.q.arrows if w == i]
        return inn


@lru_cache(maxsize=None)
def zq_of(q):
    """The shared, lazily growing ZQ of a quiver."""
    return ZQ(q)


@dataclass(frozen=True)
class Slice:
    """A section of ZQ: one vertex per tau-orbit, mesh-adjacent choices."""

    quiver: object
    vertices: tuple                  # (m, i), one per orbit i
    objects: tuple                   # matching (root, shift) pairs
    sources: tuple = field(default=())  # subset of vertices with no in-arrow inside the slice

    def positions(self):
        return {i: m for m, i in self.vertices}


def _slice_from_positions(q, pos):
    z = zq_of(q)
    verts = tuple(sorted((pos[i], i) for i in range(q.n)))
    objs = tuple(z.object_of(m, i) for m, i in verts)
    vset = set(verts)
    srcs = tuple(v for v in verts if not any(w in vset for w in z.arrows_in(v)))
    return Slice(q, verts, objs, srcs)


def is_section(q, pos):
    """Mesh adjacency: positions must differ by 0 or 1 along each arrow i->j."""
    return all(pos[j] - pos[i] in (0, 1) for i, j in q.arrows)


def find_slice(t):
    """The canonical slice through the Hom-minimal summands of a tilting object.

    Sources are the summands receiving no nonzero morphism from the others; the
    slice is their sectional-successor closure.  The construction is asserted,
    not searched: the sources of the result must be summands of T and every
    summand must be a path-successor of the slice.
    """
    q = t.quiver
    if not dv.is_tilting(t):
        raise ValueError("slices are extracted from tilting objects")
    z = zq_of(q)
    indecs = list(t.basic().indecs())
    objs = [dv.stalk(q, r, s) for r, s in indecs]
    sources = []
    for k, x in enumerate(indecs):
        if not any(dv.hom_dim(objs[j], objs[k]) for j in range(len(indecs)) if j != k):
            sources.append(z.vertex_of(x))
    if not sources:
        raise InternalInconsistencyError("tilting object with no Hom-minimal summand")

    # hook-free (= sectional) path end states; sectional paths stay within n steps
    hf = set((None, s) for s in sources)
    frontier = list(hf)
    for _ in range(q.n + 1):
        new = []
        for prev, cur in frontier:
            for w in z.arrows_out(cur):
                if prev is not None and w == z.tau_inv(prev):
                    continue
                state = (cur, w)
                if state not in hf:
                    hf.add(state)
                    new.append(state)
        frontier = new
        if not new:
            break
    if frontier:
        raise InternalInconsistencyError("sectional path longer than the rank")
    candidates = set(c for _, c in hf)

    bad_seeds = set()
    for prev, cur in hf:
        if prev is None:
            continue
        hook = z.tau_inv(prev)
        if hook in [w for w in z.arrows_out(cur)]:
            bad_seeds.add(hook)
    m_cap = max(m for m, _ in candidates) + 1
    bad = set()
    frontier = [v for v in bad_seeds]
    bad |= bad_seeds
    while frontier:
        v = frontier.pop()
        for w in zq_arrows_bounded(z, v, m_cap):
            if w not in bad:
                bad.add(w)
                frontier.append(w)
    chosen = sorted(candidates - bad)
    if len(chosen) != q.n or len(set(i for _, i in chosen)) != q.n:
        raise InternalInconsistencyError(
            "sectional closure is not a slice: %r" % (chosen,))
    sl = _slice_from_positions(q, {i: m for m, i in chosen})
    summand_verts = set(z.vertex_of(x) for x in indecs)
    if not set(sl.sources) <= summand_verts:
        raise InternalInconsistencyError("slice sources are not all summands of T")
    if not _all_successors(z, set(sl.vertices), summand_verts):
        raise InternalInconsistencyError("a summand of T is not a successor of the slice")
    return sl


def zq_arrows_bounded(z, v, m_cap):
    return [w for w in z.arrows_out(v) if w[0] <= m_cap]


def _all_successors(z, starts, targets):
    m_cap = max(m for m, _ in targets | starts) + 1
    seen = set(starts)
    frontier = list(starts)
    while frontier:
        v = frontier.pop()
        for w in zq_arrows_bounded(z, v, m_cap):
            if w not in seen:
                seen.add(w)
                frontier.append(w)
    return targets <= seen


def hered_membership(sl, x):
    """Whether X lies in the hereditary subcategory cut out by the slice.

    The defining condition quantifies over all nonzero shifts, but only two
    shifts per slice element can carry a morphism, so the check is finite.
    """
    xb = x.basic()
    if xb.num_distinct() != 1:
        raise ValueError("membership applies to indecomposables")
    (xr, xs), = xb.indecs()
    q = sl.quiver
    for (sr, ss) in sl.objects:
        for i in (ss - xs, ss - xs + 1):
            if i != 0 and dv.pair_hom_dim(q, sr, ss, xr, xs + i):
                return False
    return True


def level_of(sl, x):
    """The unique i with X in H[i]; hard failure if none or several."""
    xb = x.basic()
    (xr, xs), = xb.indecs()
    lo = xs - max(s for _, s in sl.objects) - 1
    hi = xs - min(s for _, s in sl.objects) + 1
    found = [i for i in range(lo, hi + 1) if hered_membership(sl, x.shift(-i))]
    if len(found) != 1:
        raise InternalInconsistencyError(
            "summand %r sits in %d hereditary shifts" % (xb.indecs(), len(found)))
    return found[0]


@dataclass(frozen=True)
class HeredWindow:
    slice: Slice
    ell: int
    levels: tuple   # ((root, shift), level) pairs, normalized to start at 0


def shift_window(t, sl):
    """Minimal window of slice-shift levels containing every summand of T."""
    tb = t.basic()
    levels = []
    for r, s in tb.indecs():
        levels.append(((r, s), level_of(sl, dv.stalk(t.quiver, r, s))))
    base = min(l for _, l in levels)
    levels = tuple((o, l - base) for o, l in levels)
    ell = max(l for _, l in levels)
    return HeredWindow(sl, ell, levels)


def enumerate_slices(q, m_lo, m_hi, cap=100000):
    """All sections with every chosen position in [m_lo, m_hi]; (slices, truncated).

    Vertices go in a depth-first order of the tree Q: each after the first has
    one placed neighbour, and that arrow's bounds are all a section asks of it."""
    out = []
    truncated = False

    def rec(pos, remaining):
        nonlocal truncated
        if len(out) >= cap:
            truncated = True
            return
        if not remaining:
            out.append(_slice_from_positions(q, dict(pos)))
            return
        i = remaining[0]
        anchored = [j for j in q.neighbors(i) if j in pos]
        lo, hi = m_lo, m_hi
        for j in anchored:
            for (a, b) in q.arrows:
                if (a, b) == (i, j):
                    lo = max(lo, pos[j] - 1)
                    hi = min(hi, pos[j])
                elif (a, b) == (j, i):
                    lo = max(lo, pos[j])
                    hi = min(hi, pos[j] + 1)
        for m in range(lo, hi + 1):
            pos[i] = m
            rec(pos, remaining[1:])
            del pos[i]

    order = []
    seen = set()
    stack = [qv.sink_first_order(q)[0]]
    while stack:
        v = stack.pop()
        if v in seen:
            continue
        seen.add(v)
        order.append(v)
        stack.extend(u for u in q.neighbors(v) if u not in seen)
    rec({}, order)
    return out, truncated


@dataclass(frozen=True)
class TheoremAReport:
    sgd: int
    ell: int
    equality_ok: bool
    upper_ok: bool
    slices_checked: int
    truncated: bool


def theoremA_verify(t, window_pad=2, cap=100000):
    """Upper bound over every enumerated slice, equality at the canonical one."""
    if not dv.is_tilting(t):
        raise ValueError("needs a tilting object")
    value = sgd.sgldim(t).value
    if value < 2:
        raise ValueError("the equality statement concerns non-hereditary cases")
    sl = find_slice(t)
    hw = shift_window(t, sl)
    if min(l for _, l in hw.levels) != 0:
        raise InternalInconsistencyError("canonical slice window does not start at 0")
    equality_ok = (value == hw.ell + 2)
    z = zq_of(t.quiver)
    verts = [z.vertex_of(o) for o in t.basic().indecs()]
    m_lo = min(m for m, _ in verts) - window_pad
    m_hi = max(m for m, _ in verts) + window_pad
    slices, truncated = enumerate_slices(t.quiver, m_lo, m_hi, cap)
    upper_ok = True
    for s2 in slices:
        hw2 = shift_window(t, s2)
        if value > hw2.ell + 2:
            upper_ok = False
            break
    if not (equality_ok and upper_ok):
        raise InternalInconsistencyError(
            "slice window bound failed: sgd=%d ell=%d upper_ok=%s" % (value, hw.ell, upper_ok))
    return TheoremAReport(value, hw.ell, equality_ok, upper_ok, len(slices), truncated)


def lower_bound_witness(t, sl, ell):
    """An object M one shift past the window with ell_T(M) >= ell + 2.

    Searches the inverse-tau translate of the slice at suspension ell + 1 for
    nonzero morphisms from a top-window summand of T and into the shifted
    sources; both conditions are asserted, per the transjective lower bound.
    """
    if ell < 1:
        raise ValueError("the lower-bound witness needs ell >= 1")
    q = t.quiver
    hw = shift_window(t, sl)
    tops = [o for o, l in hw.levels if l == ell]
    if not tops:
        raise InternalInconsistencyError("no summand at the top of the window")
    src_sum = dv.DerivedObject(
        q, [(zq_of(q).object_of(*v)[0], zq_of(q).object_of(*v)[1] + ell + 2, 1)
            for v in sl.sources])
    big_l = dv.stalk(q, *tops[0])
    for (sr, ss) in sl.objects:
        m_obj = dv.tau_inv_derived(dv.stalk(q, sr, ss)).shift(ell + 1)
        if dv.hom_dim(big_l, m_obj) and dv.hom_dim(m_obj, src_sum):
            prof = sgd.ell_profile(t, m_obj)
            if prof.ell < ell + 2:
                raise InternalInconsistencyError(
                    "witness fails the length bound: %r" % (m_obj,))
            return m_obj
    raise InternalInconsistencyError("no lower-bound witness in the slice translate")
