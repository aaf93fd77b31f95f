"""Slices of the AR quiver and hereditary generating subcategories.

For a Dynkin quiver the whole derived category is a single transjective
component of shape ZQ, so slices are sections of ZQ: one vertex per tau-orbit,
adjacent choices differing by the mesh relations.  ZQ coordinates are root
arithmetic in derived (zq_object, zq_vertex: one tau-walk of under two
Coxeter numbers each), and the arrows of ZQ are read off one memoized table,
step(q): each edge i - j of Q gives the arrows (m, i) -> (m + step[i, j], j),
with step 1 along the Q-arrow i -> j and 0 against it.  A tilting object
determines a canonical slice, the pointwise least of the single-source
sections of its Hom-minimal summands, whose window reproduces the strong
global dimension exactly (minus two).

The hereditary window of a slice is read by root index (quiver.roots_of):
each summand's level is the live shift of the slice objects into it
(derived.nonzero_shift), with no scan over shifts and no objects built.
"""

from collections import namedtuple
from functools import lru_cache

from . import derived as dv, quiver as qv, sgd
from .quiver import InternalInconsistencyError


class SliceError(ValueError):
    """Input the slice machinery does not cover (the CLI exits 2 on it)."""


@lru_cache(maxsize=None)
def step(q):
    """The arrow table of ZQ: each edge i - j of Q gives the arrows
    (m, i) -> (m + step[i, j], j), with step 1 along the Q-arrow i -> j and 0
    against it.  Every slice entry point reads it, so each guards here."""
    qv.ensure_dynkin(q)
    if not q.is_connected():
        raise SliceError("slice machinery needs a connected quiver")
    out = {}
    for i, j in q.arrows:
        out[i, j] = 1
        out[j, i] = 0
    return out


# A section of ZQ: one vertex per tau-orbit, mesh-adjacent choices.  vertices
# are (m, i), one per orbit i; objects the matching (root, shift) pairs;
# sources the vertices with no in-arrow inside the slice.
Slice = namedtuple("Slice", "quiver vertices objects sources")


def _slice_from_positions(q, pos):
    st = step(q)
    verts = tuple(sorted((pos[i], i) for i in range(q.n)))
    objs = tuple(dv.zq_object(q, m, i) for m, i in verts)
    srcs = tuple((m, i) for m, i in verts
                 if not any(pos[j] == m - st[j, i] for j in q.neighbors(i)))
    return Slice(q, verts, objs, srcs)


def is_section(q, pos):
    """Mesh adjacency: positions must differ by 0 or 1 along each arrow i->j."""
    return all(pos[j] - pos[i] in (0, 1) for i, j in q.arrows)


def _single_source_section(q, m, i):
    """Positions of the section of ZQ whose only source is (m, i): one walk
    over the tree Q from i, following the arrow out of each placed vertex."""
    st = step(q)
    pos = {i: m}
    stack = [i]
    while stack:
        u = stack.pop()
        for j in q.neighbors(u):
            if j not in pos:
                pos[j] = pos[u] + st[u, j]
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
    c = qv.roots_of(q)
    indecs = t.basic().indecs()
    sources = [dv.zq_vertex(q, *o) for o, x in zip(indecs, t.pairs)
               if not any(dv.nonzero_shift(c, y, x) == 0 for y in t.pairs if y != x)]
    if not sources:
        raise InternalInconsistencyError("tilting object with no Hom-minimal summand")
    sections = [_single_source_section(q, m, i) for m, i in sources]
    pos = {i: min(p[i] for p in sections) for i in range(q.n)}
    if not is_section(q, pos):
        raise InternalInconsistencyError("pointwise minimum is not a section: %r" % (pos,))
    sl = _slice_from_positions(q, pos)
    summand_verts = set(dv.zq_vertex(q, *x) for x in indecs)
    if not set(sl.sources) <= summand_verts:
        raise InternalInconsistencyError("slice sources are not all summands of T")
    if any(m < pos[i] for m, i in summand_verts):
        raise InternalInconsistencyError("a summand of T is not a successor of the slice")
    return sl


def level_of(c, slice_pairs, x):
    """The unique i with X in H[i], H the hereditary subcategory of a slice,
    for X and the slice objects as (root index, shift) pairs over context c.
    H holds the Y with Hom(S, Y[j]) = 0 for every slice object S and j != 0,
    so each S with Hom(S[i], X) != 0, i = -nonzero_shift(S, X), fixes level i;
    they must all agree (some S maps to X, as the slice generates)."""
    found = set(-i for y in slice_pairs if (i := dv.nonzero_shift(c, y, x)) is not None)
    if len(found) != 1:
        raise InternalInconsistencyError("summand %r: the slice fixes %d hereditary shifts"
                                         % (((c.roots[x[0]], x[1]),), len(found)))
    return found.pop()


# levels: ((root, shift), level) pairs, normalized to start at 0
HeredWindow = namedtuple("HeredWindow", "slice ell levels")


def shift_window(t, sl):
    """Minimal window of slice-shift levels containing every summand of T."""
    c = qv.roots_of(t.quiver)
    slice_pairs = [(c.index[r], s) for r, s in sl.objects]
    levels = [(o, level_of(c, slice_pairs, x)) for o, x in zip(t.indecs(), t.pairs)]
    base = min(l for _, l in levels)
    levels = tuple((o, l - base) for o, l in levels)
    ell = max(l for _, l in levels)
    return HeredWindow(sl, ell, levels)


# enumerate_slices stops after this many slices and reports the truncation
SLICE_CAP = 100000


def enumerate_slices(q, m_lo, m_hi):
    """All sections with every chosen position in [m_lo, m_hi]; (slices, truncated).

    Vertices go in a depth-first order of the tree Q: each after the first has
    one placed neighbour j, and a section asks only that it take the arrow
    (pos[j], j) -> (pos[j] + step[j, i], i) or the one into (pos[j], j)."""
    st = step(q)
    out = []
    truncated = False

    def rec(pos, remaining):
        nonlocal truncated
        if len(out) >= SLICE_CAP:
            truncated = True
            return
        if not remaining:
            out.append(_slice_from_positions(q, dict(pos)))
            return
        i = remaining[0]
        anchored = [j for j in q.neighbors(i) if j in pos]
        lo, hi = m_lo, m_hi
        for j in anchored:
            lo = max(lo, pos[j] + st[j, i] - 1)
            hi = min(hi, pos[j] + st[j, i])
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


def window_slices(t, pad):
    """enumerate_slices from the least ZQ position of T's summands to the
    greatest, each widened by pad."""
    q = t.quiver
    verts = [dv.zq_vertex(q, *o) for o in t.basic().indecs()]
    return enumerate_slices(q, min(m for m, _ in verts) - pad, max(m for m, _ in verts) + pad)


TheoremAReport = namedtuple("TheoremAReport", "sgd ell slices_checked truncated")


def theoremA_verify(t, window_pad=2):
    """Upper bound over every enumerated slice, equality at the canonical one."""
    if not dv.is_tilting(t):
        raise ValueError("needs a tilting object")
    value = sgd.sgldim(t).value
    if value < 2:
        raise ValueError("the equality statement concerns non-hereditary cases")
    hw = shift_window(t, find_slice(t))
    slices, truncated = window_slices(t, window_pad)
    upper_ok = all(value <= shift_window(t, s2).ell + 2 for s2 in slices)
    if value != hw.ell + 2 or not upper_ok:
        raise InternalInconsistencyError(
            "slice window bound failed: sgd=%d ell=%d upper_ok=%s" % (value, hw.ell, upper_ok))
    return TheoremAReport(value, hw.ell, len(slices), truncated)
