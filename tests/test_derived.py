import itertools
import math
import pathlib
import random
from collections import Counter
from fractions import Fraction

import pytest

from conftest import pair_of
from dercat import derived as dv, quiver as qv, sgd, zq


def obj(q, *parts):
    return dv.DerivedObject(q, [(r, s, m) for r, s, m in parts])


def window_objects(q, shifts=range(-2, 3)):
    return [dv.stalk(q, r, s) for r in qv.positive_roots(q) for s in shifts]


def test_hom_dim_examples(a2, a3):
    s1, s2 = dv.stalk(a2, (1, 0)), dv.stalk(a2, (0, 1))
    p1, p2 = dv.stalk(a2, (1, 1)), dv.stalk(a2, (0, 1))
    assert dv.hom_dim(s1, s2.shift(1)) == 1
    assert dv.hom_dim(s1, s2.shift(5)) == 0
    assert dv.hom_dim(p2, p1) == 1
    with pytest.raises(qv.QuiverError, match="different quivers"):
        dv.hom_dim(s1, dv.stalk(a3, (1, 0, 0)))


def test_hom_dim_additive_in_multiplicity(a2):
    x = obj(a2, ((1, 0), 0, 2))
    y = obj(a2, ((0, 1), 1, 3))
    assert dv.hom_dim(x, y) == 6


def test_summand_validation(a2):
    with pytest.raises(qv.QuiverError):
        dv.stalk(a2, (2, 0))
    for bad in ((0, 0), (-1, 0)):
        with pytest.raises(qv.QuiverError, match="not a positive root"):
            dv.stalk(a2, bad)
    with pytest.raises(ValueError):
        dv.DerivedObject(a2, [((1, 0), 0, 0)])
    # multiplicities are checked after equal summands merge
    with pytest.raises(ValueError, match=r"bad summand \(1, 0\)\[2\]\^-1$"):
        dv.DerivedObject(a2, [((1, 0), 2, 1), ((0, 1), 0, 1), ([1, 0], 2, -2)])
    assert dv.DerivedObject(a2, [((1, 0), 0, 2), ((1, 0), 0, -1)]) == dv.stalk(a2, (1, 0))


def test_tau_examples(a2):
    assert zq.tau_derived(dv.stalk(a2, (1, 0))) == dv.stalk(a2, (0, 1))
    assert zq.tau_derived(dv.stalk(a2, (0, 1))) == dv.stalk(a2, (1, 1), -1)


def test_tau_round_trip(a3, d4):
    for q in (a3, d4):
        for x in window_objects(q):
            (pair,) = x.pairs
            assert zq.tau_pair(q, zq.tau_pair(q, pair), -1) == pair
            assert zq.tau_pair(q, zq.tau_pair(q, pair, -1)) == pair
            assert zq.tau_derived(x).pairs == (zq.tau_pair(q, pair),)
            thrice = zq.tau_pair(q, zq.tau_pair(q, zq.tau_pair(q, pair)))
            assert zq.tau_pair(q, pair, 3) == thrice


def test_serre_examples(a2):
    s1, s2 = dv.stalk(a2, (1, 0)), dv.stalk(a2, (0, 1))
    p1 = dv.stalk(a2, (1, 1))
    assert zq.serre_dual_check(s1, s2.shift(1))
    assert zq.serre_dual_check(p1, p1)


def test_serre_window_scan(a2, a3):
    for q in (a2, a3):
        for x, y in itertools.product(window_objects(q, range(0, 3)), repeat=2):
            assert zq.serre_dual_check(x, y)


def test_is_rigid_examples(a2):
    assert dv.rigidity_failure(dv.projective_generator(a2)) is None
    bad = obj(a2, ((0, 1), 0, 1), ((1, 0), 1, 1))
    # Hom(S1[1], S2[2]) = Ext^1(S1, S2) != 0
    assert dv.rigidity_failure(bad) == (2, pair_of(a2, (1, 0), 1), pair_of(a2, (0, 1), 0))
    for r in qv.positive_roots(a2):
        assert dv.rigidity_failure(dv.stalk(a2, r)) is None


def full_scan_rigidity_failure(t):
    """rigidity_failure as first written: every shift i in [-(w+1), w+1], w
    the spread, then every ordered summand pair at a gap of 0 or 1; the first
    failure found is the witness, its summands as (root index, shift) pairs."""
    tb = t.basic()
    if tb.is_zero():
        return None
    w = tb.spread
    for i in range(-(w + 1), w + 2):
        if i == 0:
            continue
        for x, (r1, s1) in zip(tb.pairs, tb.indecs()):
            for y, (r2, s2) in zip(tb.pairs, tb.indecs()):
                if s2 + i - s1 in (0, 1) and dv.pair_hom_dim(tb.quiver, r1, s1, r2, s2 + i):
                    return i, x, y
    return None


def test_rigidity_witness_matches_the_full_scan(a4_alt, d4):
    # every 2-summand object and a fixed sample of 3-summand ones, shifts 0..2
    seen = Counter()
    for q in (a4_alt, d4):
        pairs = [(r, s) for s in range(3) for r in qv.positive_roots(q)]
        triples = list(itertools.combinations(pairs, 3))
        picks = list(itertools.combinations(pairs, 2)) + random.Random(0).sample(triples, 500)
        for pick in picks:
            t = dv.DerivedObject(q, [(r, s, 1) for r, s in pick])
            want = full_scan_rigidity_failure(t)
            assert dv.rigidity_failure(t) == want, pick
            seen["rigid" if want is None else "i<0" if want[0] < 0 else "i>0"] += 1
    assert seen == {"rigid": 434, "i<0": 932, "i>0": 699}


def test_is_tilting_examples(a2):
    assert dv.is_tilting(dv.projective_generator(a2))
    apr = obj(a2, ((1, 1), 0, 1), ((1, 0), 0, 1))
    assert dv.is_tilting(apr)
    assert not dv.is_tilting(obj(a2, ((0, 1), 0, 1), ((1, 0), 0, 1)))


def test_is_tilting_counts_distinct_and_allows_multiplicity(a2):
    fat = obj(a2, ((1, 1), 0, 2), ((0, 1), 0, 1))
    assert dv.is_tilting(fat)
    assert not dv.is_tilting(obj(a2, ((1, 1), 0, 2)))


def test_is_tilting_memo_is_keyed_on_the_basic_object(a3):
    # the mutation of the projective generator at P1 = (1,1,1)
    t = obj(a3, ((1, 0, 0), -1, 1), ((0, 0, 1), 0, 1), ((0, 1, 1), 0, 1))
    doubled = obj(a3, ((1, 0, 0), -1, 1), ((0, 0, 1), 0, 2), ((0, 1, 1), 0, 1))
    permuted = obj(a3, ((0, 1, 1), 0, 1), ((1, 0, 0), -1, 1), ((0, 0, 1), 0, 1))
    dv._is_tilting.cache_clear()
    assert [dv.is_tilting(x) for x in (t, doubled, permuted)] == [True] * 3
    assert dv._is_tilting.cache_info().currsize == 1


def test_is_tilting_shift_invariant(a2, a3):
    for q, t in ((a2, dv.projective_generator(a2)), (a3, dv.projective_generator(a3))):
        for k in (-2, -1, 1, 3):
            assert dv.is_tilting(t.shift(k))


def test_k0_examples(a2):
    assert dv.k0_class(dv.stalk(a2, (1, 0))) == (1, 0)
    assert dv.k0_class(dv.stalk(a2, (1, 0), 1)) == (-1, 0)
    assert dv.k0_class(dv.projective_generator(a2)) == (1, 2)


def test_euler_pairing_window(a2, a3):
    for q in (a2, a3):
        for x, y in itertools.product(window_objects(q, range(0, 2)), repeat=2):
            total = sum((-1) ** i * dv.hom_dim(x, y.shift(i)) for i in range(-3, 4))
            assert total == qv.euler_form(q, dv.k0_class(x), dv.k0_class(y))


def test_rigidity_beyond_spread_vanishes(a3):
    # Happel adjacency: Hom(T, T[i]) = 0 once |i| exceeds spread + 1
    t = obj(a3, ((1, 1, 1), 0, 1), ((0, 1, 0), 2, 1))
    w = t.spread
    for i in range(w + 2, w + 6):
        assert dv.hom_dim(t, t.shift(i)) == 0
        assert dv.hom_dim(t, t.shift(-i)) == 0


def rigid_census(q, top):
    """Every rigid basic object with n stalk summands, shifts in [0, top] and
    min shift 0, by brute force over cliques of pairwise rigid stalks."""

    def rigid(a, b):
        # Hom(a, b[i]) and Hom(b, a[i]) for i != 0; only two gaps carry maps
        for (rx, sx), (ry, sy) in ((a, b), (b, a)):
            for i in (sx - sy, sx - sy + 1):
                if i and dv.pair_hom_dim(q, rx, sx, ry, sy + i):
                    return False
        return True

    stalks = [(r, s) for s in range(top + 1) for r in qv.positive_roots(q)]
    fits = {a: {b for b in stalks if b != a and rigid(a, b)} for a in stalks}
    out = set()

    def grow(chosen, candidates):
        if len(chosen) == q.n:
            if min(s for _, s in chosen) == 0:
                out.add(dv.DerivedObject(q, [(r, s, 1) for r, s in chosen]))
            return
        for k, a in enumerate(candidates):
            grow(chosen + [a], [b for b in candidates[k + 1:] if b in fits[a]])

    grow([], [a for a in stalks if rigid(a, a)])
    return out


def test_mutation_closure_is_the_rigid_census(a3, a4_alt, a4, d4, census):
    # Mutation keeps tilting objects tilting (Aihara-Iyama 2012), so each
    # object reached from the projective generator generates.  Brute force
    # over a shift window one wider than the widest object reached finds no
    # rigid n-summand object outside the closure: on these types, rigid with
    # n summands is tilting, as is_tilting takes it to be.
    sizes = {}
    for name, q in (("A3", a3), ("A4-alt", a4_alt), ("A4-lin", a4), ("D4", d4)):
        reached = census(q)
        assert all(t.min_shift == 0 for t in reached)
        widest = max(t.spread for t in reached)
        assert rigid_census(q, widest + 1) == reached, name
        for t in reached:
            assert dv.is_tilting(t) and dv.k0_unimodular(t), t
        sizes[name] = len(reached)
    # type A_n has binom(3n, n) / (2n + 1) tilting objects up to shift: 12, 55
    a_n = {n: math.comb(3 * n, n) // (2 * n + 1) for n in (3, 4)}
    assert sizes == {"A3": a_n[3], "A4-alt": a_n[4], "A4-lin": a_n[4], "D4": 69}
    # the census up to shift does not depend on the orientation
    hist = [Counter(sgd.sgldim(t).value for t in census(q)) for q in (a4_alt, a4)]
    assert hist[0] == hist[1] == {1: 20, 2: 30, 3: 5}


def test_thick_oracle_rejects_non_generator(a2):
    t = obj(a2, ((1, 1), 0, 1), ((1, 1), 1, 1))
    assert not dv.is_tilting(t)


def test_object_file_round_trip(a2):
    t = obj(a2, ((1, 1), -1, 2), ((1, 0), 0, 1))
    text = dv.format_object(t)
    assert dv.parse_object(a2, text) == t
    assert dv.format_object(dv.parse_object(a2, text)) == text


def test_object_file_canonical_order(a2):
    t = dv.parse_object(a2, "summand dim=[1,0] shift=2\nsummand dim=[0,1] shift=-1\n")
    assert [s for _, s in t.pairs] == [-1, 2]


def test_object_file_errors(a2):
    with pytest.raises(ValueError):
        dv.parse_object(a2, "sumand dim=[1,0] shift=0\n")
    with pytest.raises(ValueError):
        dv.parse_object(a2, "summand dim=[1,x] shift=0\n")


def test_zero_object_parse(a2):
    assert dv.parse_object(a2, "# empty\n").is_zero()
    assert dv.format_object(dv.DerivedObject(a2, [])) == ""


D4_ALT = pathlib.Path(__file__).parents[1] / "bench" / "inputs" / "D4-alt.q"


def det(m):
    """Laplace expansion along the first row."""
    if not m:
        return 1
    return sum((-1) ** j * x * det([row[:j] + row[j + 1:] for row in m[1:]])
               for j, x in enumerate(m[0]) if x)


def fraction_inverse(a):
    """adj(A) / det A in Fractions; None when A is singular."""
    d = det(a)
    if d == 0:
        return None
    n = len(a)
    return [[Fraction((-1) ** (i + j) * det([r[:i] + r[i + 1:] for k, r in enumerate(a) if k != j]), d)
             for j in range(n)] for i in range(n)]


@pytest.mark.parametrize("which, want", [
    ("A3", {"ok": 128, "singular": 92}),
    ("D4-alt", {"ok": 4992, "singular": 5586, "|det|>=2": 48}),
])
def test_k0_inverse_matches_a_fraction_reference(a3, which, want):
    # every basic n-summand stalk object with shifts in {0, 1}, rigid or not
    q = a3 if which == "A3" else qv.parse_quiver(D4_ALT.read_text())
    pairs = [(r, s) for s in (0, 1) for r in qv.positive_roots(q)]
    seen = Counter()
    for picks in itertools.combinations(pairs, q.n):
        t = dv.DerivedObject(q, [(r, s, 1) for r, s in picks])
        # column j: the class of summand j
        ref = fraction_inverse([[(-1) ** s * r[i] for r, s in t.indecs()] for i in range(q.n)])
        got = dv.k0_inverse(t)
        if ref is None:
            seen["singular"] += 1
            assert got is None, picks
        elif any(x.denominator != 1 for row in ref for x in row):
            seen["|det|>=2"] += 1
            assert got is None, picks
        else:
            seen["ok"] += 1
            assert got == tuple(tuple(int(x) for x in row) for row in ref), picks
    assert seen == want
