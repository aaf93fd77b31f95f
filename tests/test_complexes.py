import itertools

import pytest

from dercat import complexes as cx, quiver as qv, reps


def res(q, root, shift=0):
    return cx.stalk_complex_cached(q, root, shift)


def k0_of_complex(c):
    q = c.quiver
    out = [0] * q.n
    for d in c.degrees():
        sign = -1 if d % 2 else 1
        for v in range(q.n):
            out[v] += sign * c.term_rep(d).dims[v]
    return tuple(out)


def test_stalk_degrees(a2):
    c = res(a2, (1, 0), 0)
    assert c.lo == -1 and c.hi == 0
    assert c.term(-1) == (1,) and c.term(0) == (0,)
    p = res(a2, (1, 1), 0)
    assert p.degrees() == [0]


def test_shift_conventions(a2):
    c = res(a2, (1, 0), 0)
    s = c.shift(1)
    assert s.degrees() == [-2, -1]
    assert s.shift(-1).degrees() == c.degrees()
    # stalk at suspension k == stalk at 0 shifted by k
    assert res(a2, (1, 0), 2).degrees() == c.shift(2).degrees()


def test_shift_adjunction(a2):
    x = res(a2, (1, 0))
    y = res(a2, (0, 1))
    assert cx.HomKSpace(x, y.shift(1)).dim == cx.HomKSpace(x.shift(-1), y).dim


def test_hom_k_identity(a3):
    for r in qv.positive_roots(a3):
        assert cx.HomKSpace(res(a3, r), res(a3, r)).dim >= 1


def test_hom_k_double_shift_vanishes(a2):
    for r1, r2 in itertools.product(qv.positive_roots(a2), repeat=2):
        assert cx.HomKSpace(res(a2, r1), res(a2, r2, 2)).dim == 0


def test_hom_k_ext_direction(a2):
    # the nonsplit extension lives one shift up, source to target
    assert cx.HomKSpace(res(a2, (1, 0)), res(a2, (0, 1), 1)).dim == 1
    assert cx.HomKSpace(res(a2, (0, 1)), res(a2, (1, 0), 1)).dim == 0


def test_cone_of_identity_contractible(a2):
    c = cx.cone(cx.identity_chain_map(res(a2, (1, 1))))
    assert c.minimize().is_zero()


def test_cone_of_zero_splits(a2):
    x, y = res(a2, (1, 0)), res(a2, (0, 1))
    c = cx.cone(cx.ChainMap(x, y, {}))
    hom = {d: reps.decompose(h) for d, h in c.homology().items()}
    assert hom == {0: {(0, 1): 1}, -1: {(1, 0): 1}}


def test_cone_socle_inclusion_is_simple_stalk(a2):
    p2, p1 = res(a2, (0, 1)), res(a2, (1, 1))
    f = cx.HomKSpace(p2, p1).basis[0]
    c = cx.cone(f).minimize()
    assert {d: reps.decompose(h) for d, h in c.homology().items()} == {0: {(1, 0): 1}}


def test_cone_k0_identity(a3):
    rng_pairs = [((1, 1, 0), (0, 1, 1)), ((1, 0, 0), (1, 1, 1)), ((0, 0, 1), (0, 1, 1))]
    for r1, r2 in rng_pairs:
        x, y = res(a3, r1), res(a3, r2)
        space = cx.HomKSpace(x, y)
        for f in space.basis:
            c = cx.cone(f)
            want = tuple(ky - kx for kx, ky in zip(k0_of_complex(x), k0_of_complex(y)))
            assert k0_of_complex(c) == want


def test_minimize_idempotent(a3):
    c = res(a3, (1, 1, 1)).direct_sum(res(a3, (0, 1, 0), 1))
    m = c.minimize()
    m2 = m.minimize()
    assert {d: m.term(d) for d in m.degrees()} == {d: m2.term(d) for d in m2.degrees()}


def test_minimize_strips_contractible_summand(a2):
    base = res(a2, (1, 0))
    pad = cx.cone(cx.identity_chain_map(res(a2, (1, 1))))
    fat = base.direct_sum(pad)
    m = fat.minimize()
    assert sorted(m.degrees()) == [-1, 0]
    assert m.term(-1) == (1,) and m.term(0) == (0,)


def test_minimize_preserves_homology(a3):
    c = res(a3, (1, 1, 0)).direct_sum(cx.cone(cx.identity_chain_map(res(a3, (1, 1, 1)))))
    before = {d: reps.decompose(h) for d, h in c.homology().items()}
    after = {d: reps.decompose(h) for d, h in c.minimize().homology().items()}
    assert before == after


def test_homology_of_resolution_is_the_module(a2):
    h = res(a2, (1, 0)).homology()
    assert list(h) == [0] and reps.decompose(h[0]) == {(1, 0): 1}


def test_homology_zero_for_contractible(a2):
    assert cx.cone(cx.identity_chain_map(res(a2, (1, 1)))).homology() == {}


def test_ringel_length_values(a2):
    assert cx.ringel_length(res(a2, (1, 1))).length == 0
    assert cx.ringel_length(res(a2, (1, 0))).length == 1
    assert cx.ringel_length(res(a2, (1, 0)).shift(5)).length == 1


def test_ringel_length_zero_object(a2):
    with pytest.raises(cx.ZeroObjectError):
        cx.ringel_length(cx.zero_complex(a2))


def test_d_squared_validation(a2):
    p2 = reps.proj_rep(a2, 1)
    p1 = reps.proj_rep(a2, 0)
    f = reps.hom_space(p2, p1)[0]
    g = reps.hom_space(p1, reps.proj_rep(a2, 0))[0]
    c = cx.ProjComplex(a2, {0: (1,), 1: (0,), 2: (0,)}, {0: [[f]], 1: [[g]]})
    with pytest.raises(ValueError):
        c.validate()


def test_happel_agreement_window(a2, a3):
    for q in (a2, a3):
        roots = qv.positive_roots(q)
        for gap in range(-2, 4):
            for r1, r2 in itertools.product(roots, repeat=2):
                want = (reps.hom_dim_roots(q, r1, r2) if gap == 0 else
                        reps.ext_dim_roots(q, r1, r2) if gap == 1 else 0)
                assert cx.homk_pair_dim(q, r1, r2, gap) == want


def test_hom_k_basis_maps_are_chain_maps():
    # D5, alternating orientation; gaps 0 and 1 are the only ones with maps
    d5_alt = qv.Quiver(5, ((0, 1), (2, 1), (2, 3), (2, 4)))
    roots = qv.positive_roots(d5_alt)
    for r1, r2 in itertools.product(roots, repeat=2):
        for gap in (0, 1):
            for f in cx.HomKSpace(res(d5_alt, r1), res(d5_alt, r2, gap)).basis:
                assert f.is_chain_map()
