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
arithmetic; see pair_hom_dim.  The one independent oracle for that closed
form is complexes.homk_pair_dim (chain maps modulo homotopy between minimal
projective resolutions); the test suite and `verify homagree` compare
against it.

The tilting test is: rigid, n distinct summands, integral inverse of the
class matrix.  Its generation half is not searched for.  Mutation takes
tilting objects to tilting objects (Aihara-Iyama, *Silting mutation in
triangulated categories*, 2012), so everything reached from the projective
generator generates.  The test suite checks, in integers, on A3, A4 (two
orientations) and D4, that the objects so reached are exactly the rigid
n-summand objects in a shift window one wider than the widest of them, and
that each passes is_tilting.

The AR translate on (root, shift) pairs is tau_pair, and the coordinates of
D^b(kQ) as one translation quiver ZQ are read off it (zq_object, zq_vertex).
tau^-h = [2] on each tau-orbit, h the Coxeter number (tau_period), so a
coordinate costs at most about 2h tau-steps however far out it lies.

This module is on the product path, so it imports neither reps nor
complexes, nor linalg or fractions: the class-matrix inverse (k0_inverse) is
fraction-free integer elimination.

Summands are validated in one place, DerivedObject.__init__, the only code
that builds StalkSummand records from outside input: each root must be a
positive root (which rules out zero and negative vectors), and each
multiplicity, after equal summands are merged, must be at least 1.  basic,
shift and restrict derive new records from an object's own, which are
already validated, merged and sorted, so they build nothing twice.
"""

from collections import namedtuple
from functools import lru_cache
from operator import mul

from . import quiver as qv

StalkSummand = namedtuple("StalkSummand", "root shift mult")


class DerivedObject:
    """Formal direct sum of shifted indecomposable stalks; immutable.

    Takes (root, shift, mult) triples, StalkSummand records among them, and
    merges equal (root, shift) pairs.
    """

    def __init__(self, q, summands):
        self.quiver = q
        roots = qv.root_set(q)
        merged = {}
        for root, shift, mult in summands:
            root = tuple(root)
            if root not in roots:
                raise qv.QuiverError("not a positive root: %r" % (root,))
            key = (int(shift), root)
            merged[key] = merged.get(key, 0) + int(mult)
        out = []
        for (shift, root), mult in sorted(merged.items()):
            s = StalkSummand(root, shift, mult)
            if mult < 1:
                raise ValueError("bad summand %r" % (s,))
            out.append(s)
        self.summands = tuple(out)

    @classmethod
    def _of_records(cls, q, records):
        """The object on StalkSummand records already validated, merged and
        sorted by (shift, root)."""
        obj = cls.__new__(cls)
        obj.quiver = q
        obj.summands = records
        return obj

    def is_zero(self):
        return not self.summands

    def indecs(self):
        """Distinct indecomposable summands as (root, shift) pairs, canonical order."""
        return tuple((s.root, s.shift) for s in self.summands)

    def num_distinct(self):
        return len(self.summands)

    def basic(self):
        """Every multiplicity set to 1; the object itself when already basic."""
        if all(s.mult == 1 for s in self.summands):
            return self
        return DerivedObject._of_records(
            self.quiver, tuple(StalkSummand(s.root, s.shift, 1) for s in self.summands))

    def shift(self, k):
        k = int(k)
        return DerivedObject._of_records(
            self.quiver, tuple(StalkSummand(s.root, s.shift + k, s.mult) for s in self.summands))

    def restrict(self, picks):
        """Sub-sum on the given (root, shift) pairs, multiplicity 1 each; each
        pair must be a summand."""
        picks = set(picks)
        out = tuple(s if s.mult == 1 else StalkSummand(s.root, s.shift, 1)
                    for s in self.summands if (s.root, s.shift) in picks)
        if len(out) != len(picks):
            raise ValueError("not summands of %r: %r" % (
                self, sorted(picks - {(s.root, s.shift) for s in out})))
        return DerivedObject._of_records(self.quiver, out)

    @property
    def min_shift(self):
        return min(s.shift for s in self.summands)

    @property
    def max_shift(self):
        return max(s.shift for s in self.summands)

    @property
    def spread(self):
        return self.max_shift - self.min_shift

    # StalkSummand records compare and hash as (root, shift, mult) tuples
    def __eq__(self, other):
        return (isinstance(other, DerivedObject) and self.summands == other.summands
                and self.quiver == other.quiver)

    def __hash__(self):
        return hash((self.quiver, self.summands))

    def __repr__(self):
        return "DerivedObject(%s)" % ", ".join(
            "%r[%d]^%d" % (s.root, s.shift, s.mult) for s in self.summands)


def stalk(q, root, shift=0):
    return DerivedObject(q, [(root, shift, 1)])


def projective_generator(q):
    """The sum of all indecomposable projectives, at shift 0."""
    return DerivedObject(q, [(qv.proj_dims(q, i), 0, 1) for i in range(q.n)])


def pair_hom_dim(q, r1, s1, r2, s2):
    """dim Hom(M(r1)[s1], M(r2)[s2]) in D^b(kQ), from the Euler form alone.

    Hom(M[s1], N[s2]) = Ext^(s2-s1)(M, N), which vanishes outside gaps 0 and 1
    because kQ is hereditary.  The Euler form gives <r1,r2> = dim Hom - dim
    Ext^1, and for directing indecomposables (all of them, when Q is Dynkin)
    one of the two is zero, so dim Hom = max(<r1,r2>, 0) and dim Ext^1 =
    max(-<r1,r2>, 0).  Oracle: complexes.homk_pair_dim.
    """
    gap = s2 - s1
    if gap == 0 or gap == 1:
        e = qv.euler_form(q, r1, r2)
        if gap:
            e = -e
        return e if e > 0 else 0
    return 0


def nonzero_shift(q, x, y):
    """The i != 0 with Hom(x, y[i]) != 0 for (root, shift) pairs x and y, or 0
    when there is none.

    Only gaps 0 and 1 are live, so i is s1 - s2 or s1 - s2 + 1, whatever the
    spread; and by pair_hom_dim the gap-0 Hom is nonzero exactly when
    <r1,r2> > 0, the gap-1 one exactly when <r1,r2> < 0, so one Euler value
    picks the one live shift.
    """
    (r1, s1), (r2, s2) = x, y
    e = qv.euler_form(q, r1, r2)
    if e > 0:
        return s1 - s2
    if e < 0:
        return s1 - s2 + 1
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


def tau_pair(q, root, shift, k=1):
    """tau^k of M(root)[shift] as a (root, shift) pair; k < 0 walks with tau^-1.

    Modules translate by the Coxeter matrix.  The one wrap leaves the module
    category: tau P_i = I_i[-1], and tau^-1 I_i = P_i[1].
    """
    if k >= 0:
        step, ends, wraps, ds = qv.tau_root, qv.proj_roots(q), qv.inj_roots(q), -1
    else:
        step, ends, wraps, ds = qv.tau_inv_root, qv.inj_roots(q), qv.proj_roots(q), 1
    for _ in range(abs(k)):
        nxt = step(q, root)
        if nxt is None:
            root, shift = wraps[ends.index(root)], shift + ds
        else:
            root = nxt
    return root, shift


def tau_derived(x):
    """AR translate, summand-wise (tau_pair)."""
    if x.is_zero():
        raise ValueError("tau of the zero object")
    q = x.quiver
    return DerivedObject(q, [tau_pair(q, s.root, s.shift) + (s.mult,) for s in x.summands])


@lru_cache(maxsize=None)
def tau_period(q, i):
    """The h with tau^-h P_i = P_i[2], the Coxeter number of i's component
    (Happel 1988); tau commutes with the shift, so tau^-h = [2] on the whole
    tau-orbit of P_i."""
    p = qv.proj_dims(q, i)
    root, shift, h = p, 0, 0
    while (root, shift) != (p, 2):
        root, shift = tau_pair(q, root, shift, -1)
        h += 1
    return h


@lru_cache(maxsize=None)
def zq_object(q, m, i):
    """(root, shift) at the ZQ vertex (m, i), that is tau^-m P_i[0]: m = 0 is
    the projective slice at suspension 0, and shift >= 0 exactly when m >= 0.
    Each h = tau_period(q, i) steps add 2 to the shift; under h are walked."""
    k, r = divmod(m, tau_period(q, i))
    root, shift = tau_pair(q, qv.proj_dims(q, i), 0, -r)
    return root, shift + 2 * k


@lru_cache(maxsize=None)
def zq_vertex(q, root, shift):
    """ZQ vertex (m, i) of M(root)[shift]: tau walks M(root)[shift mod 2]
    down to the projective slice and m counts the steps; each 2 taken off the
    shift adds tau_period(q, i) to m."""
    if root not in qv.root_set(q):
        raise qv.InternalInconsistencyError("object %r not found in ZQ" % ((root, shift),))
    k, shift = divmod(shift, 2)
    projs = qv.proj_roots(q)
    m = 0
    while shift != 0 or root not in projs:
        root, shift = tau_pair(q, root, shift, 1)
        m += 1
    i = projs.index(root)
    return m + k * tau_period(q, i), i


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
    Silting mutation in triangulated categories, 2012), and the test suite
    pins that this guard holds on every object of the mutation census of A3,
    both A4 orientations and D4.  `dercat tilting check` prints its verdict as
    the `unimodular classes:` line.
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
    n = q.n
    if t.num_distinct() != n:
        return None
    cols = [k0_class(stalk(q, r, s)) for r, s in t.indecs()]
    # fraction-free Gauss-Jordan on [A | I] (Bareiss, Math. Comp. 1968): each
    # step divides exactly by the previous pivot, and the end is [d I | d A^-1]
    # with d = +-det A
    m = [list(row) + [int(i == j) for j in range(n)] for i, row in enumerate(zip(*cols))]
    prev = 1
    for k in range(n):
        p = next((i for i in range(k, n) if m[i][k]), None)
        if p is None:
            return None
        m[k], m[p] = m[p], m[k]
        pk = m[k]
        for i in range(n):
            if i != k:
                f = m[i][k]
                m[i] = [(pk[k] * a - f * b) // prev for a, b in zip(m[i], pk)]
        prev = pk[k]
    if abs(prev) != 1:
        return None
    return tuple(tuple(prev * x for x in row[n:]) for row in m)


def k0_coords(t):
    """T-coordinates of every M(r)[0], as {root: tuple by summand of t.indecs()}:
    k0_inverse applied to the class r; M(r)[s] has (-1)^s times them.  None
    when k0_inverse is.
    """
    inv = k0_inverse(t)
    if inv is None:
        return None
    return {r: tuple(sum(map(mul, row, r)) for row in inv) for r in qv.positive_roots(t.quiver)}


def is_tilting(t):
    """Rigid, n distinct indecomposable summands, unimodular class lattice.

    The generation half of the definition is not searched for: the exact
    K-group test stands in for a cone search, and the mutation census in the
    test suite certifies the criterion (see the module docstring).
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

    Each ordered summand pair is tested at its one live shift only
    (nonzero_shift).  The witness is the least (i, index of the first
    summand, index of the second) in t.basic().indecs() order: the first one
    a scan over i, then summand pairs, would meet.
    """
    q = t.quiver
    pairs = t.basic().indecs()
    found = None
    for a, x in enumerate(pairs):
        for b, y in enumerate(pairs):
            i = nonzero_shift(q, x, y)
            if i and (found is None or (i, a, b) < found):
                found = (i, a, b)
    if found is None:
        return None
    i, a, b = found
    return i, pairs[a], pairs[b]


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
