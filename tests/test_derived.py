import itertools

import pytest

from dercat import derived as dv, quiver as qv, reps


def obj(q, *parts):
    return dv.DerivedObject(q, [(r, s, m) for r, s, m in parts])


def window_objects(q, shifts=range(-2, 3)):
    return [dv.stalk(q, r, s) for r in qv.positive_roots(q) for s in shifts]


def test_hom_dim_examples(a2):
    s1, s2 = dv.stalk(a2, (1, 0)), dv.stalk(a2, (0, 1))
    p1, p2 = dv.stalk(a2, (1, 1)), dv.stalk(a2, (0, 1))
    assert dv.hom_dim(s1, s2.shift(1)) == 1
    assert dv.hom_dim(s1, s2.shift(5)) == 0
    assert dv.hom_dim(p2, p1) == 1


def test_hom_dim_additive_in_multiplicity(a2):
    x = obj(a2, ((1, 0), 0, 2))
    y = obj(a2, ((0, 1), 1, 3))
    assert dv.hom_dim(x, y) == 6


def test_summand_validation(a2):
    with pytest.raises(qv.QuiverError):
        dv.stalk(a2, (2, 0))
    with pytest.raises(ValueError):
        dv.DerivedObject(a2, [((1, 0), 0, 0)])


def test_tau_examples(a2):
    assert dv.tau_derived(dv.stalk(a2, (1, 0))) == dv.stalk(a2, (0, 1))
    assert dv.tau_derived(dv.stalk(a2, (0, 1))) == dv.stalk(a2, (1, 1), -1)


def test_tau_round_trip(a3, d4):
    for q in (a3, d4):
        for x in window_objects(q):
            assert dv.tau_inv_derived(dv.tau_derived(x)) == x
            assert dv.tau_derived(dv.tau_inv_derived(x)) == x


def test_serre_examples(a2):
    s1, s2 = dv.stalk(a2, (1, 0)), dv.stalk(a2, (0, 1))
    p1 = dv.stalk(a2, (1, 1))
    assert dv.serre_dual_check(s1, s2.shift(1))
    assert dv.serre_dual_check(p1, p1)


def test_serre_window_scan(a2, a3):
    for q in (a2, a3):
        for x, y in itertools.product(window_objects(q, range(0, 3)), repeat=2):
            assert dv.serre_dual_check(x, y)


def test_is_rigid_examples(a2):
    assert dv.rigidity_failure(dv.projective_generator(a2)) is None
    bad = obj(a2, ((0, 1), 0, 1), ((1, 0), 1, 1))
    # Hom(S1[1], S2[2]) = Ext^1(S1, S2) != 0
    assert dv.rigidity_failure(bad) == (2, ((1, 0), 1), ((0, 1), 0))
    for r in qv.positive_roots(a2):
        assert dv.rigidity_failure(dv.stalk(a2, r)) is None


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


def test_thick_oracle_agrees_on_module_census(a2):
    roots = qv.positive_roots(a2)
    for pair in itertools.combinations(roots, 2):
        t = obj(a2, (pair[0], 0, 1), (pair[1], 0, 1))
        if dv.is_tilting(t):
            assert reps.generates_thick(t)


def test_thick_oracle_rejects_non_generator(a2):
    t = obj(a2, ((1, 1), 0, 1), ((1, 1), 1, 1))
    assert not dv.is_tilting(t)
    assert not reps.generates_thick(t)


def test_thick_oracle_on_a3_census(a3):
    roots = qv.positive_roots(a3)
    for triple in itertools.combinations(roots, 3):
        t = dv.DerivedObject(a3, [(r, 0, 1) for r in triple])
        if dv.is_tilting(t):
            assert reps.generates_thick(t)


def test_object_file_round_trip(a2):
    t = obj(a2, ((1, 1), -1, 2), ((1, 0), 0, 1))
    text = dv.format_object(t)
    assert dv.parse_object(a2, text) == t
    assert dv.format_object(dv.parse_object(a2, text)) == text


def test_object_file_canonical_order(a2):
    t = dv.parse_object(a2, "summand dim=[1,0] shift=2\nsummand dim=[0,1] shift=-1\n")
    assert [s.shift for s in t.summands] == [-1, 2]


def test_object_file_errors(a2):
    with pytest.raises(ValueError):
        dv.parse_object(a2, "sumand dim=[1,0] shift=0\n")
    with pytest.raises(ValueError):
        dv.parse_object(a2, "summand dim=[1,x] shift=0\n")


def test_zero_object_parse(a2):
    assert dv.parse_object(a2, "# empty\n").is_zero()
    assert dv.format_object(dv.DerivedObject(a2, [])) == ""
