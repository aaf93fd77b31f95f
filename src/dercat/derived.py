"""Stalk-summand model of the bounded derived category of a Dynkin quiver.

Objects are formal multisets of (positive root, shift) pairs.  Since kQ is
hereditary, every indecomposable of D^b(kQ) is a shifted module, and Hom
between two of them lives at shift gaps 0 (Hom) and 1 (Ext^1) only.  For Q
Dynkin every indecomposable is directing, so at most one of the two is
nonzero (Happel, *Triangulated categories in the representation theory of
finite dimensional algebras*, 1988; Ringel, *Tame algebras and integral
quadratic forms*, LNM 1099), and the Euler form gives it in integers:
Hom(M(r1)[s1], M(r2)[s2 + i]) is nonzero only at i = s1 - s2 when
<r1,r2> > 0 and at i = s1 - s2 + 1 when it is < 0 (nonzero_shift), with
dimension |<r1,r2>|.  The one independent oracle is complexes.homk_pair_dim
(chain maps modulo homotopy between minimal projective resolutions); the
test suite and `verify homagree` compare it with pair_hom_dim.

A summand is a (root index, shift) pair over the per-quiver context
quiver.roots_of, here and in zq, sgd, slices, mutation and the CLI
handlers: an object is its distinct pairs, sorted by (shift, index), with
their multiplicities, and every Euler value is read by index.  Root vectors
cross only a boundary.  In: DerivedObject.__init__ (the one place that
validates outside input: each root must be a positive root, each merged
multiplicity at least 1), stalk, projective_generator and parse_object.
Out: format_object, indecs and __repr__.  The chain oracle reads roots
through pair_hom_dim.  basic, shift and take derive new pairs from
validated ones (of_pairs).

The tilting test is: rigid, n distinct summands, integral inverse of the
class matrix.  Its generation half is not searched for: mutation takes
tilting objects to tilting objects (Aihara-Iyama, *Silting mutation in
triangulated categories*, 2012), and the test suite checks on A3, A4 (two
orientations) and D4 that the objects reached from the projective generator
are exactly the rigid n-summand objects of a shift window, each tilting.

The AR translate (tau_pair, tau_derived) and the ZQ coordinates are the
next layer up, zq, whose tau-orbit table is keyed on the same root indices,
and which imports this one.  This module imports neither reps nor
complexes, nor linalg or fractions: k0_inverse is fraction-free integer
elimination.
"""

from functools import lru_cache

from . import quiver as qv


class DerivedObject:
    """Formal direct sum of shifted indecomposable stalks; immutable.

    Takes (root, shift, mult) triples and merges equal (root, shift) pairs.
    Inside, an object is its distinct summands as (root index, shift) pairs
    over quiver.roots_of in (shift, index) order, which is (shift, root)
    order, and their multiplicities.
    """

    def __init__(self, q, summands):
        index = qv.roots_of(q).index
        merged = {}
        for root, shift, mult in summands:
            a = index.get(tuple(root))
            if a is None:
                raise qv.QuiverError("not a positive root: %r" % (tuple(root),))
            key = (int(shift), a)
            merged[key] = merged.get(key, 0) + int(mult)
        keys = sorted(merged)
        self.quiver = q
        self.pairs = tuple((a, s) for s, a in keys)
        self.mults = tuple(merged[k] for k in keys)
        if min(self.mults, default=1) < 1:
            raise ValueError("bad summand %r[%d]^%d" % next(
                (r, s, m) for (r, s), m in zip(self.indecs(), self.mults) if m < 1))

    @classmethod
    def of_pairs(cls, q, pairs, mults=None):
        """The object on distinct (root index, shift) pairs in (shift, index)
        order, multiplicity 1 each unless mults are given."""
        obj = cls.__new__(cls)
        obj.quiver = q
        obj.pairs = pairs
        obj.mults = mults or (1,) * len(pairs)
        return obj

    def is_zero(self):
        return not self.pairs

    def indecs(self):
        """Distinct indecomposable summands as (root, shift) pairs, in pairs order."""
        roots = qv.roots_of(self.quiver).roots
        return tuple((roots[a], s) for a, s in self.pairs)

    def num_distinct(self):
        return len(self.pairs)

    def basic(self):
        """Every multiplicity set to 1; the object itself when already basic."""
        return self if self.mults.count(1) == len(self.mults) else self.take(range(len(self.pairs)))

    def shift(self, k):
        k = int(k)
        return DerivedObject.of_pairs(self.quiver, tuple((a, s + k) for a, s in self.pairs),
                                      self.mults)

    def take(self, keep):
        """Sub-sum on the summands at the given positions, multiplicity 1 each."""
        return DerivedObject.of_pairs(self.quiver, tuple([self.pairs[i] for i in keep]))

    @property
    def min_shift(self):
        return min(s for _, s in self.pairs)

    @property
    def max_shift(self):
        return max(s for _, s in self.pairs)

    @property
    def spread(self):
        return self.max_shift - self.min_shift

    # an object hashes as its pairs, which omit the multiplicities
    def __eq__(self, other):
        return (isinstance(other, DerivedObject) and self.pairs == other.pairs
                and self.mults == other.mults and self.quiver == other.quiver)

    def __hash__(self):
        return hash(self.pairs)

    def __repr__(self):
        return "DerivedObject(%s)" % ", ".join(
            "%r[%d]^%d" % (r, s, m) for (r, s), m in zip(self.indecs(), self.mults))


def stalk(q, root, shift=0):
    return DerivedObject(q, [(root, shift, 1)])


def projective_generator(q):
    """The sum of all indecomposable projectives, at shift 0."""
    return DerivedObject(q, [(qv.proj_dims(q, i), 0, 1) for i in range(q.n)])


def nonzero_shift(c, x, y):
    """The one i with Hom(x, y[i]) != 0, for (root index, shift) pairs x and
    y over the root context c, or None: <r1,r2> = dim Hom - dim Ext^1 with one
    of the two zero, so gap 0 is live when <r1,r2> > 0, gap 1 when < 0."""
    (a, s1), (b, s2) = x, y
    e = c.rows[a][b]
    return s1 - s2 + (e < 0) if e else None


def rigid_against(c, y, pairs):
    """Whether Hom(y, p[i]) = Hom(p, y[i]) = 0 for every p in pairs and i != 0:
    nonzero_shift both ways, read off y's own Euler row and column."""
    (a, s), row, col = y, c.rows[y[0]], c.cols[y[0]]
    return not any(row[b] and s - t + (row[b] < 0) or col[b] and t - s + (col[b] < 0)
                   for b, t in pairs)


def pair_hom_dim(q, r1, s1, r2, s2):
    """dim Hom(M(r1)[s1], M(r2)[s2]) in D^b(kQ): |<r1,r2>| at the live shift
    (nonzero_shift), 0 elsewhere.  Oracle: complexes.homk_pair_dim."""
    c = qv.roots_of(q)
    x, y = (c.index[r1], s1), (c.index[r2], s2)
    return abs(c.rows[x[0]][y[0]]) if nonzero_shift(c, x, y) == 0 else 0


def hom_dim(x, y):
    """dim Hom(X, Y) by the stalk-summand rule, summed over all summand pairs."""
    if x.quiver != y.quiver:
        raise qv.QuiverError("objects live over different quivers")
    c = qv.roots_of(x.quiver)
    return sum(u * v * abs(c.rows[p[0]][o[0]])
               for p, u in zip(x.pairs, x.mults) for o, v in zip(y.pairs, y.mults)
               if nonzero_shift(c, p, o) == 0)


def k0_class(x):
    """Alternating-sign class in the Grothendieck group."""
    roots = qv.roots_of(x.quiver).roots
    return tuple(sum((1 - 2 * (s % 2)) * m * roots[a][v] for (a, s), m in zip(x.pairs, x.mults))
                 for v in range(x.quiver.n))


def k0_unimodular(t):
    """Whether the classes of the distinct summands span the lattice, i.e.
    k0_inverse finds an integral inverse; is_tilting's cheap guard."""
    return k0_inverse(t.basic()) is not None


def k0_inverse(t):
    """Integral inverse of the class matrix of T's distinct summands, or None.

    Column j is the class of summand j of t.pairs, so row j of the inverse
    gives that summand's coefficient in the basis [T]: the T-coordinates of
    mutation's exchange filter.  None unless T has n distinct summands whose
    classes span the lattice.  Memoized on the basic T moved to least shift
    0, since T[k] has (-1)^k times T's inverse: one n x n inverse serves the
    tilting test and every exchange from each suspension of T.
    """
    k = t.min_shift if t.pairs else 0
    inv = _k0_inverse(t.shift(-k) if k else t)
    return inv if inv is None or k % 2 == 0 else tuple(tuple(-x for x in row) for row in inv)


@lru_cache(maxsize=None)
def _k0_inverse(t):
    n = t.quiver.n
    if t.num_distinct() != n:
        return None
    cols = [k0_class(t.take((j,))) for j in range(n)]
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
            f = m[i][k]
            # a row with nothing to clear is only rescaled by pk[k] / prev
            if i != k and (f or pk[k] != prev):
                m[i] = [(pk[k] * a - f * b) // prev for a, b in zip(m[i], pk)]
        prev = pk[k]
    if abs(prev) != 1:
        return None
    return tuple(tuple(prev * x for x in row[n:]) for row in m)


def k0_coords(t):
    """T-coordinates of every M(r_a)[0], by root index a, each a tuple by
    summand of t.pairs: k0_inverse applied to the class r_a; M(r_a)[s]
    has (-1)^s times them.  None when k0_inverse is.
    """
    inv = k0_inverse(t)
    if inv is None:
        return None
    # one summand's coordinates of every root at a time: the inverse is sparse
    return list(zip(*map(qv.roots_of(t.quiver).dots, inv)))


def is_tilting(t):
    """Rigid, n distinct indecomposable summands, unimodular class lattice;
    the generation half is not searched for (see the module docstring)."""
    return _is_tilting(t.basic())


# memoized on the basic object, so multiplicities and summand order share one
# entry; mutation and the length profiles test the same T again and again
@lru_cache(maxsize=None)
def _is_tilting(tb):
    if tb.is_zero() or tb.num_distinct() != tb.quiver.n:
        return False
    return rigidity_failure(tb) is None and k0_unimodular(tb)


def rigidity_failure(t):
    """A witness (i, x, y), x and y summands of T as (root index, shift)
    pairs, with Hom(x, y[i]) nonzero, i != 0, or None when T is rigid.

    Each ordered summand pair is tested at its one live shift only
    (nonzero_shift).  The witness is the least (i, position of x, position
    of y) in t.pairs order: the first one a scan over i, then summand pairs,
    would meet.
    """
    c, pairs = qv.roots_of(t.quiver), t.pairs
    found = min(((i, a, b) for a, x in enumerate(pairs) for b, y in enumerate(pairs)
                 if (i := nonzero_shift(c, x, y))), default=None)
    return None if found is None else (found[0], pairs[found[1]], pairs[found[2]])


# ---------------------------------------------------------------------------
# object files


def format_object(x):
    """Canonical object-file text: one summand per line, shift then root order."""
    return "".join("summand dim=[%s] shift=%d mult=%d\n" % (",".join(map(str, r)), s, m)
                   for (r, s), m in zip(x.indecs(), x.mults))


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
            root = tuple(qv.integer(x) for x in dim[1:-1].split(","))
            shift = qv.integer(fields.get("shift", "0"))
            mult = qv.integer(fields.get("mult", "1"))
        except (KeyError, ValueError):
            raise ValueError("malformed object line %d: %r" % (lineno, raw))
        # DerivedObject checks multiplicities only after equal summands merge,
        # so a negative line could cancel part of another
        if mult < 1:
            raise ValueError("malformed object line %d: %r: mult must be at least 1"
                             % (lineno, raw))
        summands.append((root, shift, mult))
    return DerivedObject(q, summands)
