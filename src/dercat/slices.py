"""Slices of the AR quiver and hereditary generating subcategories.

For a Dynkin quiver the whole derived category is a single transjective
component of shape ZQ, so slices are sections of ZQ: one vertex per tau-orbit,
adjacent choices differing by the mesh relations.  The arrows of ZQ are read
off one table, ZQ.step: each edge i - j of Q gives the arrows
(m, i) -> (m + step[i, j], j), with step 1 along the Q-arrow i -> j and 0
against it.  A tilting object determines a canonical slice, the pointwise
least of the single-source sections of its Hom-minimal summands, whose window
reproduces the strong global dimension exactly (minus two).

The hereditary window of a slice is scanned on (root, shift) pairs: level_of
and shift_window build no objects, and test membership through one private
test, _in_hereditary.
"""

from collections import namedtuple
from functools import lru_cache

from . import derived as dv, quiver as qv, sgd
from .quiver import InternalInconsistencyError


class SliceError(ValueError):
    """Input the slice machinery does not cover (the CLI exits 2 on it)."""


class ZQ:
    """The translation quiver ZQ with its dictionary to stalk objects.

    Vertices are (m, i): the m-th inverse-tau translate of the projective at
    vertex i, with (0, i) the projective slice at suspension 0.  The arrows
    are (m, i) -> (m + step[i, j], j) for each neighbour j of i in Q.

    The dictionary starts at the projective slice and grows only through
    object_of.  An object at shift >= 0 sits at some m >= 0, one at shift < 0
    at some m < 0, so vertex_of grows every orbit one step a round in that
    direction and stops at the first match.
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
        self.step = {}
        for i, j in q.arrows:
            self.step[i, j] = 1
            self.step[j, i] = 0

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
        up = obj[1] >= 0
        # an orbit spends at most #roots steps at one shift, so an object of ZQ
        # is found well inside this bound
        for _ in range(len(qv.positive_roots(self.q)) * (abs(obj[1]) + 3)):
            for i in range(self.q.n):
                lo, hi = self._mrange[i]
                m = hi + 1 if up else lo - 1
                if self.object_of(m, i) == obj:
                    return (m, i)
        raise InternalInconsistencyError("object %r not found in ZQ" % (obj,))


@lru_cache(maxsize=None)
def zq_of(q):
    """The shared, lazily growing ZQ of a quiver."""
    return ZQ(q)


# A section of ZQ: one vertex per tau-orbit, mesh-adjacent choices.  vertices
# are (m, i), one per orbit i; objects the matching (root, shift) pairs;
# sources the vertices with no in-arrow inside the slice.
Slice = namedtuple("Slice", "quiver vertices objects sources")


def _slice_from_positions(q, pos):
    z = zq_of(q)
    verts = tuple(sorted((pos[i], i) for i in range(q.n)))
    objs = tuple(z.object_of(m, i) for m, i in verts)
    srcs = tuple((m, i) for m, i in verts
                 if not any(pos[j] == m - z.step[j, i] for j in q.neighbors(i)))
    return Slice(q, verts, objs, srcs)


def is_section(q, pos):
    """Mesh adjacency: positions must differ by 0 or 1 along each arrow i->j."""
    return all(pos[j] - pos[i] in (0, 1) for i, j in q.arrows)


def _single_source_section(z, m, i):
    """Positions of the section of ZQ whose only source is (m, i): one walk
    over the tree Q from i, following the arrow out of each placed vertex."""
    pos = {i: m}
    stack = [i]
    while stack:
        u = stack.pop()
        for j in z.q.neighbors(u):
            if j not in pos:
                pos[j] = pos[u] + z.step[u, j]
                stack.append(j)
    return pos


def find_slice(t):
    """The canonical slice through the Hom-minimal summands of a tilting object.

    Those summands receive no nonzero morphism from the others.  The minimum of
    two sections of ZQ is again a section, and the slice is the pointwise least
    of the single-source sections at these summands.  The construction is
    asserted, not searched: the result must be a section, its sources must be
    summands of T, and every summand (m, i) must be a successor of the slice,
    that is m >= pos[i].
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
    sections = [_single_source_section(z, m, i) for m, i in sources]
    pos = {i: min(p[i] for p in sections) for i in range(q.n)}
    if not is_section(q, pos):
        raise InternalInconsistencyError("pointwise minimum is not a section: %r" % (pos,))
    sl = _slice_from_positions(q, pos)
    summand_verts = set(z.vertex_of(x) for x in indecs)
    if not set(sl.sources) <= summand_verts:
        raise InternalInconsistencyError("slice sources are not all summands of T")
    if any(m < pos[i] for m, i in summand_verts):
        raise InternalInconsistencyError("a summand of T is not a successor of the slice")
    return sl


def _in_hereditary(sl, xr, xs):
    """Whether M(xr)[xs] lies in the hereditary subcategory cut out by the slice.

    The defining condition quantifies over all nonzero shifts, but only two
    shifts per slice element can carry a morphism, so the check is finite.
    """
    q = sl.quiver
    for (sr, ss) in sl.objects:
        for i in (ss - xs, ss - xs + 1):
            if i != 0 and dv.pair_hom_dim(q, sr, ss, xr, xs + i):
                return False
    return True


def level_of(sl, xr, xs):
    """The unique i with M(xr)[xs] in H[i]; hard failure if none or several."""
    lo = xs - max(s for _, s in sl.objects) - 1
    hi = xs - min(s for _, s in sl.objects) + 1
    found = [i for i in range(lo, hi + 1) if _in_hereditary(sl, xr, xs - i)]
    if len(found) != 1:
        raise InternalInconsistencyError(
            "summand %r sits in %d hereditary shifts" % (((xr, xs),), len(found)))
    return found[0]


# levels: ((root, shift), level) pairs, normalized to start at 0
HeredWindow = namedtuple("HeredWindow", "slice ell levels")


def shift_window(t, sl):
    """Minimal window of slice-shift levels containing every summand of T."""
    levels = [((r, s), level_of(sl, r, s)) for r, s in t.basic().indecs()]
    base = min(l for _, l in levels)
    levels = tuple((o, l - base) for o, l in levels)
    ell = max(l for _, l in levels)
    return HeredWindow(sl, ell, levels)


def enumerate_slices(q, m_lo, m_hi, cap=100000):
    """All sections with every chosen position in [m_lo, m_hi]; (slices, truncated).

    Vertices go in a depth-first order of the tree Q: each after the first has
    one placed neighbour j, and a section asks only that it take the arrow
    (pos[j], j) -> (pos[j] + step[j, i], i) or the one into (pos[j], j)."""
    z = zq_of(q)
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
            lo = max(lo, pos[j] + z.step[j, i] - 1)
            hi = min(hi, pos[j] + z.step[j, i])
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


def window_slices(t, pad, cap=100000):
    """enumerate_slices from the least ZQ position of T's summands to the
    greatest, each widened by pad."""
    verts = [zq_of(t.quiver).vertex_of(o) for o in t.basic().indecs()]
    return enumerate_slices(t.quiver, min(m for m, _ in verts) - pad,
                            max(m for m, _ in verts) + pad, cap)


TheoremAReport = namedtuple(
    "TheoremAReport", "sgd ell equality_ok upper_ok slices_checked truncated")


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
    slices, truncated = window_slices(t, window_pad, cap)
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

