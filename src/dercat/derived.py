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

The fast tilting test (rigid, n distinct summands, unimodular class lattice)
is backed by a slow thick-closure oracle.
"""

import random as _random
from dataclasses import dataclass
from fractions import Fraction

from . import linalg, quiver as qv, reps


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

    def direct_sum(self, other):
        assert other.quiver == self.quiver
        return DerivedObject(self.quiver, self.indecs_with_mult() + other.indecs_with_mult())

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
        t = reps.tau_root(q, s.root)
        if t is None:
            i = reps.proj_roots(q).index(s.root)
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
        t = reps.tau_inv_root(q, s.root)
        if t is None:
            i = reps.inj_roots(q).index(s.root)
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


def is_rigid(t):
    """Hom(T, T[i]) = 0 for all i != 0; only |i| <= spread+1 can be nonzero."""
    if t.is_zero():
        return True
    tb = t.basic()
    w = tb.spread
    for i in range(-(w + 1), w + 2):
        if i != 0 and hom_dim(tb, tb.shift(i)) != 0:
            return False
    return True


def k0_unimodular(t):
    """Whether the classes of the distinct summands span the full lattice."""
    tb = t.basic()
    q = t.quiver
    if tb.num_distinct() != q.n:
        return False
    cols = [k0_class(stalk(q, r, s)) for r, s in tb.indecs()]
    d = linalg.det([[Fraction(x) for x in row] for row in zip(*cols)])
    return d in (1, -1)


def is_tilting(t):
    """Rigid, n distinct indecomposable summands, unimodular class lattice.

    The generation half of the definition is certified separately by
    generates_thick; the production criterion keeps the exact K-group test in
    place of the exponential cone search.
    """
    if t.is_zero():
        return False
    tb = t.basic()
    if tb.num_distinct() != t.quiver.n:
        return False
    if not is_rigid(tb):
        return False
    return k0_unimodular(tb)


def rigidity_failure(t):
    """A witness (i, (root,shift), (root,shift)) with Hom into shift i nonzero, or None."""
    tb = t.basic()
    w = tb.spread
    for i in range(-(w + 1), w + 2):
        if i == 0:
            continue
        for r1, s1 in tb.indecs():
            for r2, s2 in tb.indecs():
                if pair_hom_dim(tb.quiver, r1, s1, r2, s2 + i):
                    return i, (r1, s1), (r2, s2)
    return None


# ---------------------------------------------------------------------------
# thick-closure generation oracle (slow; used by the test suite)


def _sampled_maps(m, n, rng):
    basis = reps.hom_space(m, n)
    out = list(basis)
    if len(basis) > 1:
        for _ in range(3):
            f = basis[0].scale(rng.randint(-2, 2))
            for g in basis[1:]:
                f = f.add(g.scale(rng.randint(-2, 2)))
            out.append(f)
    return out


def _extension_middles(q, r_top, r_sub, rng):
    """Middle terms of sampled extensions of M(r_top) by M(r_sub), as root multisets."""
    m = reps.indec_of_root(q, r_top)
    n = reps.indec_of_root(q, r_sub)
    res = reps.proj_resolution(m)
    if res.p1.is_zero():
        return []
    out = []
    for h in _sampled_maps(res.p1, n, rng):
        # pushout of (P1 -> P0, P1 -> N): cokernel of x -> (d x, -h x)
        p0n = reps.direct_sum([res.p0, n])
        mats = []
        for v in range(q.n):
            top = res.d._mat(v)
            bot = linalg.mat_scale(-1, h._mat(v))
            mats.append([list(r) for r in top] + [list(r) for r in bot]
                        if res.p1.dims[v] else linalg.zeros(p0n.dims[v], 0))
        f = reps.RepMap(res.p1, p0n, mats)
        e, _ = reps.cokernel(f)
        out.append(reps.decompose(e))
    return out


def generates_thick(t, max_rounds=None):
    """Whether the thick closure of T reaches every indecomposable stalk.

    Saturates a set of roots under cones of morphisms between stalks: a module
    map contributes its kernel and cokernel, an extension class contributes the
    middle term.  Morphisms are sampled from Hom bases plus seeded combinations,
    so membership claims are sound; saturation is re-run until stable.
    """
    q = t.quiver
    rng = _random.Random(20240 + q.n)
    have = set(r for r, _ in t.basic().indecs())
    all_roots = set(qv.positive_roots(q))
    rounds = 0
    while True:
        rounds += 1
        new = set()
        pairs = [(a, b) for a in sorted(have) for b in sorted(have)]
        for r1, r2 in pairs:
            m = reps.indec_of_root(q, r1)
            n = reps.indec_of_root(q, r2)
            for f in _sampled_maps(m, n, rng):
                k, _ = reps.kernel(f)
                c, _ = reps.cokernel(f)
                for part in (reps.decompose(k), reps.decompose(c)):
                    new |= set(part) - have
            if reps.ext_dim_roots(q, r1, r2) > 0:
                for mid in _extension_middles(q, r1, r2, rng):
                    new |= set(mid) - have
        if not new:
            break
        have |= new
        if have == all_roots:
            return True
        if max_rounds and rounds >= max_rounds:
            break
    return have == all_roots


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
            if "=" not in tok:
                raise ValueError("malformed object line %d: %r" % (lineno, raw))
            k, v = tok.split("=", 1)
            fields[k] = v
        try:
            root = tuple(int(x) for x in fields["dim"].strip("[]").split(","))
            shift = int(fields.get("shift", "0"))
            mult = int(fields.get("mult", "1"))
        except (KeyError, ValueError):
            raise ValueError("malformed object line %d: %r" % (lineno, raw))
        summands.append((root, shift, mult))
    return DerivedObject(q, summands)
