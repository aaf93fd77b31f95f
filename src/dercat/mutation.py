"""Tilting mutation: splits, exchange triangles, Theorem B chains.

Mutation at a split T = t1 + t2 replaces each t2 summand x by the Y of its
exchange triangle Y -> B -> x -> Y[1], where B -> x is the minimal right
add(t1)-approximation; co-mutation uses x -> B -> Y -> x[1] with the minimal
left one.  The two are the dual halves of silting mutation (Aihara-Iyama,
Silting mutation in triangulated categories, 2012) and share one path,
`_exchange`, with a `left` flag.

Y is read off K0 in integers.  The summand classes of T are a basis
(derived.k0_inverse), and [Y] = [B] - [x], so Y has T-coordinates -1 at x, 0
at the other t2 summands and its multiplicity in B at each t1 summand.  Once
per basic T, `_candidates` files each root (derived.k0_coords) under the
summand j where its coordinates, or their negatives at odd shift, read -1
at j and >= 0 elsewhere.  `_survivors` places each root filed under x at
the shift of x or the next one with the right parity, and keeps a candidate
whose coordinates vanish at the other t2 summands, whose connecting map
with x is nonzero and which is rigid against t1.  All of it runs on
(root index, shift) pairs over quiver.roots_of, each Hom read at its live
shift (derived.nonzero_shift); no candidate object is built, and the
admissible splits are bitmasks (_admissible_masks), made into Split objects
only when used.  The true Y always survives, so a unique survivor is Y; any
other count is an InternalInconsistencyError, except that no survivor on a
co-mutation split with Hom(t1, t2) != 0, which need not invert any
mutation, is a ValueError.  Every output is re-checked for tilting-ness.
"""

import random as _random
from collections import namedtuple
from functools import lru_cache
from operator import neg

from . import derived as dv, quiver as qv, sgd, slices as sls
from .quiver import InternalInconsistencyError

Split = namedtuple("Split", "t1 t2")

# One exchange triangle: replacement -> approx -> summand -> replacement[1]
# (co-mutation: summand -> approx -> replacement -> summand[1]).  x is the
# (root, shift) summand being exchanged, approx_copies the (root, shift)
# summands of the approximation, replacement the resulting (root, shift).
ApproxTriangle = namedtuple("ApproxTriangle", "x approx_copies replacement")


def partition(t, t2_picks):
    """Split T as (rest, chosen summands), with no condition on Hom between them.

    This is all co_mutate needs: the split that inverts a mutation has the new
    summands as t2, and Hom(t2, t1) need not vanish for it.
    """
    tb = t.basic()
    picks = set((tuple(r), int(s)) for r, s in t2_picks)
    all_indecs = set(tb.indecs())
    if not picks or not picks <= all_indecs:
        raise ValueError("t2 must be a nonempty subset of the summands")
    return Split(tb.restrict(all_indecs - picks), tb.restrict(picks))


def make_split(t, t2_picks):
    """Split T as (rest, chosen summands); Hom(t2, t1) must vanish."""
    split = partition(t, t2_picks)
    if not split.t1.is_zero() and dv.hom_dim(split.t2, split.t1) != 0:
        raise ValueError("split is not admissible: Hom(t2, t1) != 0")
    return split


def admissible_splits(t):
    """All splits with both parts nonzero and Hom(t2, t1) = 0, in ascending mask order."""
    tb = t.basic()
    return [_split(tb, mask) for mask in _admissible_masks(tb)]


def _admissible_masks(tb):
    """The admissible splits of the basic T as bitmasks, ascending: bit i
    picks summand i into t2.  A mask is admissible when no summand it picks
    maps nonzero into a summand it leaves out, that is when it equals the
    set its summands map into."""
    c = qv.roots_of(tb.quiver)
    # into[i]: bitmask of the summands j with Hom(T_i, T_j) != 0, i among them
    into = [sum(1 << j for j, y in enumerate(tb.pairs) if dv.nonzero_shift(c, x, y) == 0)
            for x in tb.pairs]
    # reach[mask]: the summands that those of mask map into, one lowest bit at a time
    reach = [0]
    for mask in range(1, 1 << len(into)):
        low = mask & -mask
        reach.append(reach[mask ^ low] | into[low.bit_length() - 1])
    return [mask for mask in range(1, len(reach) - 1) if reach[mask] == mask]


def _split(tb, mask):
    return Split(*(tb.take([i for i in range(len(tb.pairs)) if (mask >> i & 1) == bit])
                   for bit in (0, 1)))


@lru_cache(maxsize=None)
def _candidates(tb):
    """Exchange candidates of the basic tilting T by summand index j, in root
    order: (root index, parity, coordinates), the coordinates (-1)^parity
    times the root's (derived.k0_coords), -1 at j and >= 0 elsewhere.
    Memoized, so every split of T reads one table."""
    out = [[] for _ in range(tb.num_distinct())]
    for a, base in enumerate(dv.k0_coords(tb)):
        if min(base) == -1 and base.count(-1) == 1:
            out[base.index(-1)].append((a, 0, base))
        if max(base) == 1 and base.count(1) == 1:
            out[base.index(1)].append((a, 1, tuple(map(neg, base))))
    return tuple(map(tuple, out))


def _survivors(c, cands, t1, zero, x, left):
    """The (pair, T-coordinates) candidates of x's entry of _candidates that
    pass the exchange filter against the t1 pairs, with coordinates zero at
    the indices `zero` of the other t2 summands."""
    sx = x[1]
    out = []
    for a, parity, co in cands:
        if zero and any(map(co.__getitem__, zero)):
            continue
        # of the two shifts tried, the one with the candidate's parity
        s = sx if sx % 2 == parity else (sx + 1 if left else sx - 1)
        # the connecting map: Y -> x[1] shifted down for co-mutation, x -> Y[1]
        if (dv.nonzero_shift(c, (a, s - 1), x) if left
                else dv.nonzero_shift(c, x, (a, s + 1))) != 0:
            continue
        # t1 and Y are rigid on their own, so this tests Y against t1
        if dv.rigid_against(c, (a, s), t1):
            out.append(((a, s), co))
    return out


def _not_an_inverse(t2):
    return ValueError("co-mutation at t2 = %r gives a non-tilting object; the split "
                      "does not invert a mutation" % (t2,))


def _exchange(t, split, left):
    """Replace each t2 summand by its unique exchange survivor; returns (new
    object, exchange triangles)."""
    tb = t.basic()
    if not dv.is_tilting(tb):
        raise ValueError("mutation starts from a tilting object")
    if set(split.t1.pairs) | set(split.t2.pairs) != set(tb.pairs):
        raise ValueError("split does not partition the summands of T")
    if not left and dv.hom_dim(split.t2, split.t1) != 0:
        raise ValueError("split is not admissible")
    c = qv.roots_of(tb.quiver)

    def obj(p):   # (root index, shift) -> (root, shift)
        return c.roots[p[0]], p[1]

    index = {p: j for j, p in enumerate(tb.pairs)}
    t1 = [(index[p], p) for p in split.t1.pairs]
    t2 = split.t2.pairs
    cands = _candidates(tb)
    triangles = []
    new = list(split.t1.pairs)
    for x in t2:
        zero = [index[p] for p in t2 if p != x]
        found = _survivors(c, cands[index[x]], split.t1.pairs, zero, x, left)
        if len(found) != 1:
            if left and not found and dv.hom_dim(split.t1, split.t2) != 0:
                raise _not_an_inverse(split.t2.indecs())
            raise InternalInconsistencyError(
                "%d exchange candidates for %r, not one" % (len(found), obj(x)))
        ((repl, co),) = found
        triangles.append(ApproxTriangle(
            obj(x), tuple(obj(p) for k, p in t1 for _ in range(co[k])), obj(repl)))
        new.append(repl)
    out = dv.DerivedObject.of_pairs(tb.quiver, tuple(sorted(new, key=lambda p: (p[1], p[0]))))
    if not dv.is_tilting(out):
        if not left:
            raise InternalInconsistencyError("mutation produced a non-tilting object")
        if dv.hom_dim(split.t1, split.t2) == 0:
            raise InternalInconsistencyError("co-mutation produced a non-tilting object")
        raise _not_an_inverse(split.t2.indecs())
    return out, triangles


def mutate_with_data(t, split):
    """Mutation at the given split; returns (new object, exchange triangles)."""
    return _exchange(t, split, False)


def mutate(t, split):
    return mutate_with_data(t, split)[0]


def co_mutate_with_data(t, split):
    """Dual mutation: each t2 summand x goes to the cone of its minimal left
    add(t1)-approximation x -> B.

    Inverts mutate on the matching split, which can have Hom(t1, t2) != 0,
    so only the partition is required.  Under Hom(t1, t2) = 0 anything but
    one survivor per summand and a tilting output is a broken invariant;
    otherwise the split may invert no mutation, and that raises ValueError.
    """
    return _exchange(t, split, True)


def co_mutate(t, split):
    return co_mutate_with_data(t, split)[0]


# cell: (Hom(X,T1[l]) != 0, Hom(T2,X[1]) != 0); predicted and actual:
# (ell_minus, ell_plus, ell) against T
TableCheck = namedtuple("TableCheck", "cell predicted actual")


def verify_length_table(t, t_prime, split, x):
    """The two-predicate length table for a mutation, checked against the
    directly computed profile; mismatches raise."""
    prof_new = sgd.ell_profile(t_prime, x)
    xn = x.shift(-prof_new.ell_minus)
    ell = prof_new.ell
    # Hom(xn, t1[ell]) and Hom(t2, xn[1]), each nonzero where a live shift is
    c, (xp,) = qv.roots_of(t.quiver), xn.pairs
    p_row = any(dv.nonzero_shift(c, xp, y) == ell for y in split.t1.pairs)
    p_col = any(dv.nonzero_shift(c, y, xp) == 1 for y in split.t2.pairs)
    if p_row and p_col:
        predicted = (-1, ell, ell + 1)
    elif p_row:
        predicted = (0, ell, ell)
    elif p_col:
        predicted = (-1, ell - 1, ell)
    else:
        predicted = (0, ell - 1, ell - 1)
    prof_old = sgd.ell_profile(t, xn)
    actual = (prof_old.ell_minus, prof_old.ell_plus, prof_old.ell)
    if predicted != actual:
        raise InternalInconsistencyError(
            "length table mismatch for %r: predicted %r got %r"
            % (xn.indecs(), predicted, actual))
    return TableCheck((p_row, p_col), predicted, actual)


def sgd_delta(t, t_prime):
    """sgldim(T) - sgldim(T'); the absolute value may never exceed 1."""
    a = sgd.sgldim(t).value
    b = sgd.sgldim(t_prime).value
    if abs(a - b) > 1:
        raise InternalInconsistencyError(
            "mutation moved the strong global dimension by %d" % (a - b))
    return a - b


def theoremB_sequence(t):
    """Mutation chain T^(0), ..., T^(l) = T with s.gl.dim End(T^(i)) = 2 + i.

    Built downward: split off the top slice-window level and mutate, asserting
    the dimension drops by exactly one each step.  Entries are (object, split),
    the split being the one applied to that object on the way down; the first
    entry carries no split.
    """
    d = sgd.sgldim(t).value
    if d < 2:
        raise ValueError("the sequence construction needs s.gl.dim >= 2")
    downward = []
    cur = t.basic()
    while True:
        dc = sgd.sgldim(cur).value
        if dc == 2:
            downward.append((cur, None))
            break
        sl = sls.find_slice(cur)
        hw = sls.shift_window(cur, sl)
        if hw.ell != dc - 2:
            raise InternalInconsistencyError(
                "canonical window %d does not match s.gl.dim %d" % (hw.ell, dc))
        top = [o for o, l in hw.levels if l == hw.ell]
        split = make_split(cur, top)
        nxt = mutate(cur, split)
        if sgd.sgldim(nxt).value != dc - 1:
            raise InternalInconsistencyError(
                "mutation step failed to decrease the dimension by one")
        downward.append((cur, split))
        cur = nxt
    return list(reversed(downward))


# the widest shift spread random_tilting_walk accepts
SPREAD_CAP = 4


def random_tilting_walk(q, seed, steps):
    """Seeded mutation walk from the projective generator; deterministic.

    Steps whose result would exceed SPREAD_CAP are rejected and the next
    candidate split is tried; a step with no acceptable split keeps T.
    """
    rng = _random.Random(seed)
    t = dv.projective_generator(q)
    log = []
    for step in range(steps):
        masks = _admissible_masks(t)
        order = list(range(len(masks)))
        rng.shuffle(order)
        applied = False
        for idx in order:
            split = _split(t, masks[idx])
            cand = mutate(t, split)
            if cand.spread <= SPREAD_CAP:
                log.append({"step": step, "t2": split.t2.indecs(), "result": cand.indecs()})
                t = cand
                applied = True
                break
        if not applied:
            log.append({"step": step, "t2": None, "result": t.indecs()})
    return t, log
