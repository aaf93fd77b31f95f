"""Tilting mutation: splits, minimal approximations, exchange triangles.

The replacement of each summand is computed honestly in the homotopy category:
the approximation is assembled from chain-map bases (multiplicities from the
quotient by composite morphisms), its cone is minimized, and the homology is
decomposed back into stalks.  Every mutation output is re-checked for
tilting-ness; failures are raised, never papered over.

Mutation and co-mutation are the two dual halves of silting mutation
(Aihara-Iyama, Silting mutation in triangulated categories, 2012) and share one
exchange path, `_exchange`, with a `left` flag.  Apart from the conditions each
direction puts on its split, the flag changes three things only: which end of
the Hom space the t1 summand takes (`_approx_data`), whether the
approximation's blocks are joined by columns (a map out of the sum) or by rows
(a map into it, `_assemble`), and whether the cone is shifted down
(`_replace_by_cone`).
"""

import random as _random
from dataclasses import dataclass
from functools import reduce

from . import complexes as cx, derived as dv, linalg, reps as rp, sgd, slices as sls
from .linalg import Subspace
from .reps import InternalInconsistencyError


@dataclass(frozen=True)
class Split:
    t1: object
    t2: object


@dataclass
class ApproxTriangle:
    """One exchange triangle: replacement -> approx -> summand -> replacement[1]."""

    x: tuple                 # the (root, shift) summand being exchanged
    approx_copies: tuple     # (root, shift) summands of the approximation
    chain_map: object        # the approximation as a chain map (or None when zero)
    replacement: tuple       # resulting (root, shift)


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
    t2 = tb.restrict(sorted(picks, key=lambda p: (p[1], p[0])))
    t1 = tb.restrict(sorted(all_indecs - picks, key=lambda p: (p[1], p[0])))
    return Split(t1, t2)


def make_split(t, t2_picks):
    """Split T as (rest, chosen summands); Hom(t2, t1) must vanish."""
    split = partition(t, t2_picks)
    if not split.t1.is_zero() and dv.hom_dim(split.t2, split.t1) != 0:
        raise ValueError("split is not admissible: Hom(t2, t1) != 0")
    return split


def admissible_splits(t):
    """All splits with both parts nonzero and Hom(t2, t1) = 0, in ascending mask order.

    Bit i of a mask picks summand i of t.basic() into t2.  The Hom pattern
    between summands is computed once; a mask is admissible when no summand it
    picks maps nonzero into a summand it leaves out.
    """
    tb = t.basic()
    q = tb.quiver
    indecs = tb.indecs()
    n = len(indecs)
    # into[i]: bitmask of the summands j with Hom(T_i, T_j) != 0
    into = [0] * n
    for i, (ri, si) in enumerate(indecs):
        for j, (rj, sj) in enumerate(indecs):
            if dv.pair_hom_dim(q, ri, si, rj, sj):
                into[i] |= 1 << j
    out = []
    for mask in range(1, (1 << n) - 1):
        if all(not into[i] & ~mask for i in range(n) if mask >> i & 1):
            picks = [indecs[i] for i in range(n) if mask >> i & 1]
            rest = [indecs[i] for i in range(n) if not mask >> i & 1]
            out.append(Split(tb.restrict(rest), tb.restrict(picks)))
    return out


def _radical_complement(q, src, tgt, others):
    """Basis indices of Hom(src, tgt) spanning a complement of the maps
    factoring through the other summands, in the homotopy quotient.

    Serves both approximations: right ones vary src over add(t1), left ones tgt.
    """
    sp = cx.homk_space_cached(q, src, tgt)
    if sp.dim == 0:
        return sp, []
    span = Subspace(sp.dim)
    for mid in others:
        through = cx.homk_space_cached(q, src, mid)
        onward = cx.homk_space_cached(q, mid, tgt)
        if through.dim == 0 or onward.dim == 0:
            continue
        for f in through.basis:
            for g in onward.basis:
                span.add(list(sp.coords(g.compose(f))))
    return sp, span.extend_basis(linalg.identity(sp.dim))


def _assemble(q, x_cx, pieces, maps, into):
    """One chain map between x and the direct sum of the pieces, from one map
    per piece: x -> sum (blocks joined by rows) when `into`, else sum -> x
    (blocks joined by columns)."""
    total = cx.zero_complex(q)
    for p in pieces:
        total = total.direct_sum(p)
    src, tgt = (x_cx, total) if into else (total, x_cx)
    join = linalg.vstack if into else linalg.hstack
    comps = {d: rp.RepMap(src.term_rep(d), tgt.term_rep(d),
                          [reduce(join, [f.comp(d)._mat(v) for f in maps]) for v in range(q.n)])
             for d in src.degrees() if tgt.term(d)}
    return cx.ChainMap(src, tgt, comps)


def _object_of_complex(q, c):
    """Stalk decomposition of a complex: minimize, take homology, decompose."""
    m = c.minimize()
    if m.is_zero():
        return dv.DerivedObject(q, [])
    summands = []
    for d, h in m.homology().items():
        for root, mult in rp.decompose(h).items():
            summands.append((root, -d, mult))
    return dv.DerivedObject(q, summands)


@dataclass
class ApproxData:
    copies: list       # one (root, shift) per summand copy of the approximation
    piece_maps: list   # matching chain maps copy -> x (right) or x -> copy (left)
    big: object        # assembled chain map, None when the approximation is zero
    x_cx: object


def _approx_data(t1, x, left):
    """Minimal approximation of the summand x by add(t1): add(t1) -> x, or
    x -> add(t1) when `left`.

    Multiplicity of each t1 summand is the dimension of Hom between it and x
    modulo the maps factoring through the other summands; components are basis
    representatives completing that quotient.
    """
    q = t1.quiver
    t1_indecs = t1.basic().indecs()
    x_cx = cx.stalk_complex_cached(q, *x)
    copies = []
    maps = []
    for s in t1_indecs:
        others = [o for o in t1_indecs if o != s]
        ends = (x, s) if left else (s, x)
        sp, chosen = _radical_complement(q, *ends, others)
        basis = sp.basis if chosen else []
        for k in chosen:
            copies.append(s)
            maps.append(basis[k])
    if not copies:
        return ApproxData([], [], None, x_cx)
    pieces = [cx.stalk_complex_cached(q, *s) for s in copies]
    return ApproxData(copies, maps, _assemble(q, x_cx, pieces, maps, left), x_cx)


def right_approx_data(t1, x):
    """Minimal right approximation add(t1) -> x of the summand x."""
    return _approx_data(t1, x, False)


def left_approx_data(t1, x):
    """Dual construction: minimal left approximation x -> add(t1)."""
    return _approx_data(t1, x, True)


def _replace_by_cone(q, data, left):
    """Cone of the approximation, as a stalk object; asserted indecomposable."""
    if data.big is None:
        # zero approximation: the triangle degenerates to a pure (co)suspension
        return _object_of_complex(q, data.x_cx).shift(1 if left else -1)
    obj = _object_of_complex(q, cx.cone(data.big))
    if not left:
        obj = obj.shift(-1)
    if sum(s.mult for s in obj.summands) != 1:
        raise InternalInconsistencyError(
            "exchange produced a decomposable replacement: %r" % (obj,))
    return obj


def _exchange(t, split, left):
    """Replace each t2 summand x by the cone of its approximation from add(t1):
    right approximations for mutation, left ones for co-mutation.
    Returns (new object, exchange triangles)."""
    q = t.quiver
    tb = t.basic()
    if not dv.is_tilting(tb):
        raise ValueError("mutation starts from a tilting object")
    if set(split.t1.indecs()) | set(split.t2.indecs()) != set(tb.indecs()):
        raise ValueError("split does not partition the summands of T")
    if not left and dv.hom_dim(split.t2, split.t1) != 0:
        raise ValueError("split is not admissible")
    # the public entry points, looked up at call time, so that a wrapper put
    # around either one (to count calls, say) sees the calls made from here
    approx = left_approx_data if left else right_approx_data
    triangles = []
    new_summands = list(split.t1.indecs())
    for x in split.t2.indecs():
        data = approx(split.t1, x)
        (repl,) = _replace_by_cone(q, data, left).indecs()
        triangles.append(ApproxTriangle(x, tuple(data.copies), data.big, repl))
        new_summands.append(repl)
    out = dv.DerivedObject(q, [(r, s, 1) for r, s in new_summands])
    if not dv.is_tilting(out):
        if not left:
            raise InternalInconsistencyError("mutation produced a non-tilting object")
        if dv.hom_dim(split.t1, split.t2) == 0:
            raise InternalInconsistencyError("co-mutation produced a non-tilting object")
        raise ValueError("co-mutation at t2 = %r gives a non-tilting object; the split "
                         "does not invert a mutation" % (split.t2.indecs(),))
    return out, triangles


def mutate_with_data(t, split):
    """Mutation at the given split; returns (new object, exchange triangles)."""
    return _exchange(t, split, False)


def mutate(t, split):
    return mutate_with_data(t, split)[0]


def co_mutate_with_data(t, split):
    """Dual mutation: left approximations, cone taken without the downward shift.

    Inverts mutate on the matching split (replacement summands against the same
    t1).  The dualized vanishing Hom(t1, t2) = 0 is how fresh dual mutations
    arise, but it can fail on a matching split, so only the partition is
    required here.  A non-tilting output under Hom(t1, t2) = 0 is a broken
    invariant, since that condition makes the output tilting; under
    Hom(t1, t2) != 0 it raises ValueError, as the split may not invert any
    mutation.  A fault in the co-mutation itself on a split of the second kind
    reads as that ValueError too; the round-trip tests against mutate catch it.
    """
    return _exchange(t, split, True)


def co_mutate(t, split):
    return co_mutate_with_data(t, split)[0]


@dataclass(frozen=True)
class TableCheck:
    cell: tuple       # (Hom(X,T1[l]) != 0, Hom(T2,X[1]) != 0)
    predicted: tuple  # (ell_minus, ell_plus, ell) against T
    actual: tuple


def verify_length_table(t, t_prime, split, x):
    """The two-predicate length table for a mutation, checked against the
    directly computed profile; mismatches raise."""
    prof_new = sgd.ell_profile(t_prime, x)
    xn = x.shift(-prof_new.ell_minus)
    ell = prof_new.ell
    p_row = dv.hom_dim(xn, split.t1.shift(ell)) != 0 if not split.t1.is_zero() else False
    p_col = dv.hom_dim(split.t2, xn.shift(1)) != 0
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


def random_tilting_walk(q, seed, steps, spread_cap=4):
    """Seeded mutation walk from the projective generator; deterministic.

    Steps whose result would exceed the shift-spread cap are rejected and the
    next candidate split is tried; a step with no acceptable split keeps T.
    """
    rng = _random.Random(seed)
    t = dv.projective_generator(q)
    log = []
    for step in range(steps):
        splits = admissible_splits(t)
        order = list(range(len(splits)))
        rng.shuffle(order)
        applied = False
        for idx in order:
            cand = mutate(t, splits[idx])
            if cand.spread <= spread_cap:
                log.append({"step": step, "t2": splits[idx].t2.indecs(),
                            "result": cand.indecs()})
                t = cand
                applied = True
                break
        if not applied:
            log.append({"step": step, "t2": None, "result": t.indecs()})
    return t, log
