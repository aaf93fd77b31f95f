"""Tilting mutation: splits, exchange triangles, Theorem B chains.

Mutation at a split T = t1 + t2 replaces each t2 summand x by the Y of its
exchange triangle Y -> B -> x -> Y[1], where B -> x is the minimal right
add(t1)-approximation; co-mutation uses x -> B -> Y -> x[1] with the minimal
left one.  The two are the dual halves of silting mutation (Aihara-Iyama,
Silting mutation in triangulated categories, 2012) and share one path,
`_exchange`, with a `left` flag.

Y is read off K0 in integers.  The summand classes of T are a basis (the
integral inverse derived.k0_inverse), and [Y] = [B] - [x], so Y has
T-coordinates -1 at x, 0 at the other t2 summands and its multiplicity in B
at each t1 summand: the index of the exchange (ibid., section 2).
`_survivors` tries every positive root at the shift of x and the one below
(above, for co-mutation), and keeps a candidate whose coordinates have that
sign pattern, which is rigid against t1, and whose connecting map with x is
nonzero.  The true Y always survives, so a unique survivor is Y, and its t1
coordinates are the approximation's multiplicities.  Any other count is an
InternalInconsistencyError, except that no survivor on a co-mutation split
with Hom(t1, t2) != 0, which need not invert any mutation, is a ValueError.
Every output is re-checked for tilting-ness.
"""

import random as _random
from dataclasses import dataclass

from . import derived as dv, quiver as qv, sgd, slices as sls
from .quiver import InternalInconsistencyError


@dataclass(frozen=True)
class Split:
    t1: object
    t2: object


@dataclass
class ApproxTriangle:
    """One exchange triangle: replacement -> approx -> summand -> replacement[1]
    (co-mutation: summand -> approx -> replacement -> summand[1])."""

    x: tuple                 # the (root, shift) summand being exchanged
    approx_copies: tuple     # (root, shift) summands of the approximation
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


def _survivors(q, coords, t1, t2, x, left):
    """The ((root, shift), T-coordinates) candidates passing the exchange
    filter for the t2 summand x.  `coords[r]` holds the T-coordinates of
    M(r)[0] by summand; M(r)[s] has (-1)^s times them."""
    rx, sx = x
    out = []
    for r, base in coords.items():
        for s in ((sx, sx + 1) if left else (sx - 1, sx)):
            c = {o: -v if s % 2 else v for o, v in base.items()}
            if c[x] != -1 or any(c[o] for o in t2 if o != x) or any(c[o] < 0 for o in t1):
                continue
            # the connecting map: Y -> x[1] shifted down for co-mutation, x -> Y[1]
            linked = (dv.pair_hom_dim(q, r, s - 1, rx, sx) if left
                      else dv.pair_hom_dim(q, rx, sx, r, s + 1))
            # t1 and Y are rigid on their own, so this tests Y against t1
            if linked and dv.rigidity_failure(dv.DerivedObject(
                    q, [(a, b, 1) for a, b in t1 + ((r, s),)])) is None:
                out.append(((r, s), c))
    return out


def _not_an_inverse(t2):
    return ValueError("co-mutation at t2 = %r gives a non-tilting object; the split "
                      "does not invert a mutation" % (t2,))


def _exchange(t, split, left):
    """Replace each t2 summand by its unique exchange survivor; returns (new
    object, exchange triangles)."""
    q = t.quiver
    tb = t.basic()
    if not dv.is_tilting(tb):
        raise ValueError("mutation starts from a tilting object")
    if set(split.t1.indecs()) | set(split.t2.indecs()) != set(tb.indecs()):
        raise ValueError("split does not partition the summands of T")
    if not left and dv.hom_dim(split.t2, split.t1) != 0:
        raise ValueError("split is not admissible")
    t1, t2 = split.t1.indecs(), split.t2.indecs()
    inv = dv.k0_inverse(tb)
    # T-coordinates of each M(r)[0]: the integral inverse applied to its class r
    coords = {r: dict(zip(tb.indecs(), (sum(a * b for a, b in zip(row, r)) for row in inv)))
              for r in qv.positive_roots(q)}
    triangles = []
    new_summands = list(t1)
    for x in t2:
        found = _survivors(q, coords, t1, t2, x, left)
        if len(found) != 1:
            if left and not found and dv.hom_dim(split.t1, split.t2) != 0:
                raise _not_an_inverse(t2)
            raise InternalInconsistencyError(
                "%d exchange candidates for %r, not one" % (len(found), x))
        ((repl, c),) = found
        triangles.append(ApproxTriangle(x, tuple(o for o in t1 for _ in range(c[o])), repl))
        new_summands.append(repl)
    out = dv.DerivedObject(q, [(r, s, 1) for r, s in new_summands])
    if not dv.is_tilting(out):
        if not left:
            raise InternalInconsistencyError("mutation produced a non-tilting object")
        if dv.hom_dim(split.t1, split.t2) == 0:
            raise InternalInconsistencyError("co-mutation produced a non-tilting object")
        raise _not_an_inverse(t2)
    return out, triangles


def mutate_with_data(t, split):
    """Mutation at the given split; returns (new object, exchange triangles)."""
    return _exchange(t, split, False)


def mutate(t, split):
    return mutate_with_data(t, split)[0]


def co_mutate_with_data(t, split):
    """Dual mutation: each t2 summand x goes to the cone of its minimal left
    add(t1)-approximation x -> B.

    Inverts mutate on the matching split (replacement summands against the
    same t1).  That split can have Hom(t1, t2) != 0, so only the partition is
    required.  Under Hom(t1, t2) = 0 the output is tilting, so anything but
    one survivor per summand, or a non-tilting output, is a broken invariant.
    Otherwise the split may invert no mutation: no survivor, or a non-tilting
    output, raises ValueError.  A fault in the exchange itself there reads as
    that ValueError too; the round-trip tests against mutate catch it.
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
