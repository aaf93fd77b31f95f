"""Slices of the AR quiver and hereditary generating subcategories.

For a Dynkin quiver the whole derived category is a single transjective
component of shape ZQ, so slices are sections of ZQ: one vertex per tau-orbit,
adjacent choices differing by the mesh relations.  ZQ coordinates are
lookups in zq's tau-orbit table (zq_pair, zq_vertex), and the arrows of
ZQ are read off one memoized table, step(q): each edge i - j of Q gives the
arrows (m, i) -> (m + step[i, j], j), with step 1 along the Q-arrow i -> j
and 0 against it.  A tilting object determines a canonical slice, the
pointwise least of the single-source sections of its Hom-minimal summands,
whose window reproduces the strong global dimension exactly (minus two).

Slice objects, summands and window levels are (root index, shift) pairs over
quiver.roots_of, as in derived: no function here takes or returns a root
vector, which only an error message spells out.  Each summand's level is the
live shift of the slice objects into it (derived.nonzero_shift), with no
scan over shifts and no objects built.  enumerate_slices gives sections as
position vectors, which theoremA_verify reads as pairs (zq.zq_pair); a Slice
is built only where one is returned or printed (find_slice, `slice
--all-slices`).
"""

from collections import namedtuple
from functools import lru_cache

from . import derived as dv, quiver as qv, sgd, zq
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
# are (m, i), one per orbit i; pairs the matching (root index, shift) pairs;
# sources the vertices with no in-arrow inside the slice.
Slice = namedtuple("Slice", "quiver vertices pairs sources")


def slice_from_positions(q, pos):
    """The Slice at the positions pos[i] of a section, one per tau-orbit i."""
    st = step(q)
    verts = tuple(sorted((pos[i], i) for i in range(q.n)))
    pairs = tuple(zq.zq_pair(q, m, i) for m, i in verts)
    srcs = tuple((m, i) for m, i in verts
                 if not any(pos[j] == m - st[j, i] for j in q.neighbors(i)))
    return Slice(q, verts, pairs, srcs)


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
    sources = [zq.zq_vertex(q, x) for x in t.pairs
               if not any(dv.nonzero_shift(c, y, x) == 0 for y in t.pairs if y != x)]
    if not sources:
        raise InternalInconsistencyError("tilting object with no Hom-minimal summand")
    sections = [_single_source_section(q, m, i) for m, i in sources]
    pos = {i: min(p[i] for p in sections) for i in range(q.n)}
    if not is_section(q, pos):
        raise InternalInconsistencyError("pointwise minimum is not a section: %r" % (pos,))
    sl = slice_from_positions(q, pos)
    summand_verts = set(zq.zq_vertex(q, x) for x in t.pairs)
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


def _levels(t, slice_pairs):
    """The level of each summand of T (in t.pairs order) against the slice
    objects as (root index, shift) pairs, normalized to start at 0."""
    c = qv.roots_of(t.quiver)
    levels = [level_of(c, slice_pairs, x) for x in t.pairs]
    base = min(levels)
    return [l - base for l in levels]


# levels: (summand pair, level) pairs in t.pairs order, normalized to start at 0
HeredWindow = namedtuple("HeredWindow", "slice ell levels")


def shift_window(t, sl):
    """Minimal window of slice-shift levels containing every summand of T."""
    levels = tuple(zip(t.pairs, _levels(t, sl.pairs)))
    return HeredWindow(sl, max(l for _, l in levels), levels)


# enumerate_slices returns at most this many sections and reports whether more exist
SLICE_CAP = 100000


def enumerate_slices(q, m_lo, m_hi):
    """Position vectors (pos[i] = m of the vertex (m, i)) of the sections with
    every position in [m_lo, m_hi], as (sections, truncated); truncated says
    that a section beyond the first SLICE_CAP exists.

    The vertices of the tree Q go in a depth-first order, each after the first
    with one earlier neighbour j, and a section asks only that vertex i take
    the arrow out of (pos[j], j), at pos[j] + step[j, i], or the one into it,
    one less.  So a section is the first position m and one such choice per
    edge: 2^(n-1) offsets from m, in lexicographic order, into first."""
    st = step(q)
    first = qv.sink_first_order(q)[0]
    # each vertex i as a depth-first stack pops it, with its earlier neighbour j
    offsets, stack = [{first: 0}], [(u, first) for u in q.neighbors(first)]
    while stack:
        i, j = stack.pop()
        offsets = [{**o, i: o[j] + st[j, i] - 1 + b} for o in offsets for b in (0, 1)]
        stack.extend((u, i) for u in q.neighbors(i) if u != j)
    offsets = [(min(o.values()), max(o.values()), tuple(o[i] for i in range(q.n)))
               for o in offsets]
    out = []
    for m in range(m_lo, m_hi + 1):
        for lo, hi, off in offsets:
            if m_lo <= m + lo and m + hi <= m_hi:
                if len(out) == SLICE_CAP:
                    return out, True
                out.append(tuple(m + d for d in off))
    return out, False


def window_slices(t, pad):
    """enumerate_slices from the least ZQ position of T's summands to the
    greatest, each widened by pad."""
    q = t.quiver
    verts = [zq.zq_vertex(q, x) for x in t.pairs]
    if not verts:
        raise SliceError("the zero object has no summands to place on ZQ")
    return enumerate_slices(q, min(m for m, _ in verts) - pad, max(m for m, _ in verts) + pad)


TheoremAReport = namedtuple("TheoremAReport", "sgd ell slices_checked truncated")


def theoremA_verify(t, window_pad):
    """Upper bound over every enumerated slice, equality at the canonical one.
    Each enumerated section is read as its (root index, shift) pairs
    (zq.zq_pair), with no Slice built."""
    if not dv.is_tilting(t):
        raise ValueError("needs a tilting object")
    value = sgd.sgldim(t).value
    if value < 2:
        raise ValueError("the equality statement concerns non-hereditary cases")
    q = t.quiver
    hw = shift_window(t, find_slice(t))
    sections, truncated = window_slices(t, window_pad)
    upper_ok = all(value <= max(_levels(t, [zq.zq_pair(q, m, i) for i, m in enumerate(pos)])) + 2
                   for pos in sections)
    if value != hw.ell + 2 or not upper_ok:
        raise InternalInconsistencyError(
            "slice window bound failed: sgd=%d ell=%d upper_ok=%s" % (value, hw.ell, upper_ok))
    return TheoremAReport(value, hw.ell, len(sections), truncated)
