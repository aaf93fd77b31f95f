"""Stalk-summand model of the bounded derived category of a Dynkin quiver.

Objects are formal multisets of (positive root, shift) pairs; morphism
dimensions follow the two-neighbour rule: module Homs at equal shift, Ext^1
into the next shift, zero otherwise.  Since kQ is hereditary, every
indecomposable of D^b(kQ) is a shifted module, so the rule is complete.

For Q Dynkin every indecomposable module is directing, hence determined by its
root and with at most one of Hom and Ext^1 nonzero between two of them (Happel,
*Triangulated categories in the representation theory of finite dimensional
algebras*, 1988; Ringel, *Tame algebras and integral quadratic forms*, LNM
1099).  Both dimensions therefore come out of the Euler form in integer
arithmetic; see pair_hom_dim.  Independent oracles for that closed form are
reps.hom_dim_roots / reps.ext_dim_roots (intertwiner systems on modules built
by reflection functors) and complexes.homk_pair_dim (chain maps modulo
homotopy); the test suite and `verify homagree` compare against them.

The tilting test (rigid, n distinct summands, integral inverse of the class
matrix) has one independent oracle for its generation half, the thick-closure
search reps.generates_thick; only the test suite calls it.  This module is on
the product path, so it imports neither reps nor complexes: the AR translate
it needs is quiver.tau_root / quiver.tau_inv_root.
"""

from dataclasses import dataclass
from functools import lru_cache

from . import linalg, quiver as qv


@dataclass(frozen=True)
class StalkSummand:
    root: tuple
    shift: int
    mult: int

    def __post_init__(self):
        if self.mult < 1 or any(x < 0 for x in self.root) or not any(self.root):
            raise ValueError("bad summand %r" % (self,))


class DerivedObject:
    """Formal direct sum of shifted indecomposable stalks; immutable."""

    def __init__(self, q, summands):
        self.quiver = q
        merged = {}
        for item in summands:
            if isinstance(item, StalkSummand):
                root, shift, mult = item.root, item.shift, item.mult
            else:
                root, shift, mult = item
            root = tuple(root)
            if root not in qv.positive_roots(q):
                raise qv.QuiverError("not a positive root: %r" % (root,))
            merged[(int(shift), root)] = merged.get((int(shift), root), 0) + int(mult)
        self.summands = tuple(StalkSummand(root, shift, mult)
                              for (shift, root), mult in sorted(merged.items()))

    def is_zero(self):
        return not self.summands

    def indecs(self):
        """Distinct indecomposable summands as (root, shift) pairs, canonical order."""
        return tuple((s.root, s.shift) for s in self.summands)

    def indecs_with_mult(self):
        return tuple((s.root, s.shift, s.mult) for s in self.summands)

    def num_distinct(self):
        return len(self.summands)

    def basic(self):
        return DerivedObject(self.quiver, [(s.root, s.shift, 1) for s in self.summands])

    def shift(self, k):
        return DerivedObject(self.quiver, [(s.root, s.shift + k, s.mult) for s in self.summands])

    def restrict(self, picks):
        """Sub-sum on the given (root, shift) pairs, multiplicity 1 each."""
        return DerivedObject(self.quiver, [(r, s, 1) for r, s in picks])

    @property
    def min_shift(self):
        return min(s.shift for s in self.summands)

    @property
    def max_shift(self):
        return max(s.shift for s in self.summands)

    @property
    def spread(self):
        return self.max_shift - self.min_shift

    def key(self):
        return (self.quiver, self.indecs_with_mult())

    def __eq__(self, other):
        return isinstance(other, DerivedObject) and self.key() == other.key()

    def __hash__(self):
        return hash(self.key())

    def __repr__(self):
        return "DerivedObject(%s)" % ", ".join(
            "%r[%d]^%d" % (s.root, s.shift, s.mult) for s in self.summands)


def stalk(q, root, shift=0, mult=1):
    return DerivedObject(q, [(root, shift, mult)])


def projective_generator(q, shift=0):
    """The sum of all indecomposable projectives, placed at one shift."""
    return DerivedObject(q, [(qv.proj_dims(q, i), shift, 1) for i in range(q.n)])


def pair_hom_dim(q, r1, s1, r2, s2):
    """dim Hom(M(r1)[s1], M(r2)[s2]) in D^b(kQ), from the Euler form alone.

    Hom(M[s1], N[s2]) = Ext^(s2-s1)(M, N), which vanishes outside gaps 0 and 1
    because kQ is hereditary.  The Euler form gives <r1,r2> = dim Hom - dim
    Ext^1, and for directing indecomposables (all of them, when Q is Dynkin)
    one of the two is zero, so dim Hom = max(<r1,r2>, 0) and dim Ext^1 =
    max(-<r1,r2>, 0).  Oracles: reps.hom_dim_roots / reps.ext_dim_roots and
    complexes.homk_pair_dim.
    """
    gap = s2 - s1
    if gap == 0:
        return max(qv.euler_form(q, r1, r2), 0)
    if gap == 1:
        return max(-qv.euler_form(q, r1, r2), 0)
    return 0


def hom_dim(x, y):
    """dim Hom(X, Y) by the stalk-summand rule, summed over all summand pairs."""
    if x.quiver != y.quiver:
        raise qv.QuiverError("objects live over different quivers")
    total = 0
    for a in x.summands:
        for b in y.summands:
            if b.shift - a.shift in (0, 1):
                total += a.mult * b.mult * pair_hom_dim(
                    x.quiver, a.root, a.shift, b.root, b.shift)
    return total


def tau_derived(x):
    """AR translate, summand-wise: modules translate, projectives wrap to injectives."""
    if x.is_zero():
        raise ValueError("tau of the zero object")
    q = x.quiver
    out = []
    for s in x.summands:
        t = qv.tau_root(q, s.root)
        if t is None:
            i = qv.proj_roots(q).index(s.root)
            out.append((qv.inj_dims(q, i), s.shift - 1, s.mult))
        else:
            out.append((t, s.shift, s.mult))
    return DerivedObject(q, out)


def tau_inv_derived(x):
    if x.is_zero():
        raise ValueError("inverse tau of the zero object")
    q = x.quiver
    out = []
    for s in x.summands:
        t = qv.tau_inv_root(q, s.root)
        if t is None:
            i = qv.inj_roots(q).index(s.root)
            out.append((qv.proj_dims(q, i), s.shift + 1, s.mult))
        else:
            out.append((t, s.shift, s.mult))
    return DerivedObject(q, out)


def serre_dual_check(x, y):
    """Hom(X, Y) = D Hom(Y, tau X [1]), dimension-wise."""
    return hom_dim(x, y) == hom_dim(y, tau_derived(x).shift(1))


def k0_class(x):
    """Alternating-sign class in the Grothendieck group."""
    q = x.quiver
    out = [0] * q.n
    for s in x.summands:
        sign = -1 if s.shift % 2 else 1
        for v in range(q.n):
            out[v] += sign * s.mult * s.root[v]
    return tuple(out)


def k0_unimodular(t):
    """Whether the classes of the distinct summands span the full lattice,
    i.e. k0_inverse finds an integral inverse (determinant +-1).

    Kept as a documented cheap guard inside is_tilting.  In D^b(kQ) a rigid
    object with n distinct summands already generates (cf. Aihara-Iyama,
    Silting mutation in triangulated categories, 2012), and on every rigid
    n-summand object with shifts in {0, 1} over A3, D4 and alternating A4
    this test never changed the verdict.  `dercat tilting check` prints its
    verdict as the `unimodular classes:` line.
    """
    return k0_inverse(t.basic()) is not None


@lru_cache(maxsize=None)
def k0_inverse(t):
    """Integral inverse of the class matrix of T's distinct summands, or None.

    Column j is the class of summand j of t.indecs(), so row j of the inverse
    gives that summand's coefficient in the basis [T]: the T-coordinates of
    mutation's exchange filter.  None unless T has n distinct summands whose
    classes span the lattice.  Memoized: callers pass the basic object, so one
    n x n inverse serves the tilting test and every exchange from T.
    """
    q = t.quiver
    if t.num_distinct() != q.n:
        return None
    cols = [k0_class(stalk(q, r, s)) for r, s in t.indecs()]
    inv = linalg.inverse(linalg.mat_from_rows(zip(*cols)))
    if inv is None or any(x.denominator != 1 for row in inv for x in row):
        return None
    return tuple(tuple(int(x) for x in row) for row in inv)


def is_tilting(t):
    """Rigid, n distinct indecomposable summands, unimodular class lattice.

    The generation half of the definition is not searched for here: the
    thick-closure oracle reps.generates_thick certifies it in the test suite, and
    the production criterion keeps the exact K-group test in place of that
    exponential cone search.
    """
    return _is_tilting(t.basic())


# memoized on the basic object, so multiplicities and summand order share one
# entry; mutation and the length profiles test the same T again and again
@lru_cache(maxsize=None)
def _is_tilting(tb):
    if tb.is_zero() or tb.num_distinct() != tb.quiver.n:
        return False
    return rigidity_failure(tb) is None and k0_unimodular(tb)


def rigidity_failure(t):
    """A witness (i, (root,shift), (root,shift)) with Hom(T, T[i]) nonzero, i != 0,
    or None when T is rigid.

    Only |i| <= spread+1 can be nonzero, and for each i only the summand pairs
    whose shift gap is 0 or 1 (the rest vanish by pair_hom_dim).
    """
    tb = t.basic()
    if tb.is_zero():
        return None
    w = tb.spread
    for i in range(-(w + 1), w + 2):
        if i == 0:
            continue
        for r1, s1 in tb.indecs():
            for r2, s2 in tb.indecs():
                if s2 + i - s1 in (0, 1) and pair_hom_dim(tb.quiver, r1, s1, r2, s2 + i):
                    return i, (r1, s1), (r2, s2)
    return None


# ---------------------------------------------------------------------------
# object files


def format_object(x):
    """Canonical object-file text: one summand per line, shift then root order."""
    lines = []
    for s in x.summands:
        lines.append("summand dim=[%s] shift=%d mult=%d"
                     % (",".join(str(d) for d in s.root), s.shift, s.mult))
    return "\n".join(lines) + ("\n" if lines else "")


def parse_object(q, text):
    summands = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if not line.startswith("summand "):
            raise ValueError("malformed object line %d: %r" % (lineno, raw))
        fields = {}
        for tok in line[len("summand "):].split():
            k, eq, v = tok.partition("=")
            if not eq:
                raise ValueError("malformed object line %d: %r" % (lineno, raw))
            # a misspelt key must not fall back to its default, nor a repeat win
            if k not in ("dim", "shift", "mult") or k in fields:
                raise ValueError("malformed object line %d: %r: %s key %r" % (
                    lineno, raw, "repeated" if k in fields else "unknown", k))
            fields[k] = v
        try:
            dim = fields["dim"]
            # exactly one bracket pair: `1,1,1` and `[[1,1,1]]` are not vectors
            if not (dim.startswith("[") and dim.endswith("]")):
                raise ValueError
            root = tuple(int(x) for x in dim[1:-1].split(","))
            shift = int(fields.get("shift", "0"))
            mult = int(fields.get("mult", "1"))
        except (KeyError, ValueError):
            raise ValueError("malformed object line %d: %r" % (lineno, raw))
        summands.append((root, shift, mult))
    return DerivedObject(q, summands)
