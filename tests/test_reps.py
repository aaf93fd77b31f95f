import itertools
import random
from fractions import Fraction

import pytest

from dercat import linalg, quiver as qv, reps


def identity_map(m):
    return reps.RepMap(m, m, [linalg.identity(d) for d in m.dims])


def map_is_zero(f):
    """Whether every vertex matrix of the RepMap f is zero."""
    return all(x == 0 for v in range(f.source.quiver.n) for row in f._mat(v) for x in row)


def test_hom_socle_inclusion(a2):
    p1, p2 = reps.proj_rep(a2, 0), reps.proj_rep(a2, 1)
    assert reps.hom_dim_mod(p2, p1) == 1


def test_hom_simple_into_projective_vanishes(a2):
    s1, p1 = reps.simple_rep(a2, 0), reps.proj_rep(a2, 0)
    assert reps.hom_dim_mod(s1, p1) == 0


def test_hom_simple_endomorphisms(a3):
    for i in range(3):
        s = reps.simple_rep(a3, i)
        assert reps.hom_dim_mod(s, s) == 1


def test_hom_quiver_mismatch(a2, a3):
    with pytest.raises(ValueError):
        reps.hom_space(reps.simple_rep(a2, 0), reps.simple_rep(a3, 0))


def test_ext_hand_values(a2):
    s1, s2 = (1, 0), (0, 1)
    assert reps.ext_dim_roots(a2, s1, s2) == 1
    assert reps.ext_dim_roots(a2, s2, s1) == 0


def test_ext_projective_source_vanishes(a3):
    for i in range(3):
        p = qv.proj_dims(a3, i)
        for r in qv.positive_roots(a3):
            assert reps.ext_dim_roots(a3, p, r) == 0


def test_indec_of_root_examples(a2, a3):
    m = reps.indec_of_root(a2, (1, 1))
    assert m.dims == (1, 1) and m.mats[0][0][0] != 0
    s = reps.indec_of_root(a2, (1, 0))
    assert s.dims == (1, 0)
    sincere = reps.indec_of_root(a3, (1, 1, 1))
    assert sincere.dims == (1, 1, 1)
    assert all(mat[0][0] != 0 for mat in sincere.mats)


def test_indec_of_root_rejects_non_root(a2):
    with pytest.raises(qv.QuiverError):
        reps.indec_of_root(a2, (2, 1))


def test_indecs_are_bricks(a4, d4):
    for q in (a4, d4):
        for r in qv.positive_roots(q):
            m = reps.indec_of_root(q, r)
            assert m.dims == r
            assert reps.decompose(m) == {r: 1}
            assert reps.hom_dim_mod(m, m) == 1


def test_decompose_hand_example(a2):
    x = reps.Representation(a2, (1, 2), [[[1], [0]]])
    assert reps.decompose(x) == {(1, 1): 1, (0, 1): 1}


def test_decompose_round_trip(d4):
    e6_alt = qv.parse_quiver("vertices 6\narrow 1 2\narrow 3 2\narrow 3 4\narrow 5 4\narrow 3 6\n")
    for q in (d4, e6_alt):
        for r in qv.positive_roots(q):
            assert reps.decompose(reps.indec_of_root(q, r)) == {r: 1}, r


def test_decompose_root_dims_with_zero_arrow_map(a2):
    # S1 + S2: its dimension vector (1,1) is a root, but dim End = 2, so the
    # brick test must not take it for the indecomposable of that root
    x = reps.Representation(a2, (1, 1), [[[0]]])
    assert reps.hom_dim_mod(x, x) == 2
    assert reps.decompose(x) == {(1, 0): 1, (0, 1): 1}


def test_decompose_zero(a2):
    assert reps.decompose(reps.zero_rep(a2)) == {}


def test_decompose_additive_on_random_sums(a3):
    rng = random.Random(5)
    roots = qv.positive_roots(a3)
    for _ in range(15):
        picks = [rng.choice(roots) for _ in range(rng.randint(1, 4))]
        total = reps.direct_sum([reps.indec_of_root(a3, r) for r in picks])
        want = {}
        for r in picks:
            want[r] = want.get(r, 0) + 1
        assert reps.decompose(total) == want


def test_hom_dims_conjugation_invariant(a3):
    rng = random.Random(7)
    m = reps.indec_of_root(a3, (1, 1, 0))
    n = reps.indec_of_root(a3, (0, 1, 1))

    def conjugate(rep):
        mats = []
        units = []
        for d in rep.dims:
            u = [[Fraction(rng.randint(1, 3)) if i == j else Fraction(rng.randint(-1, 1))
                  for j in range(d)] for i in range(d)]
            if linalg.inverse(u) is None:
                u = linalg.identity(d)
            units.append(u)
        for a, (s, t) in enumerate(rep.quiver.arrows):
            if rep.dims[s] and rep.dims[t]:
                mats.append(linalg.mat_mul(units[t], linalg.mat_mul(
                    rep.mats[a], linalg.inverse(units[s]))))
            else:
                mats.append(rep.mats[a])
        return reps.Representation(rep.quiver, rep.dims, mats)

    for _ in range(5):
        assert reps.hom_dim_mod(conjugate(m), conjugate(n)) == reps.hom_dim_mod(m, n)


def test_proj_resolution_simple(a2):
    res = reps.proj_resolution(reps.simple_rep(a2, 0))
    assert res.p1_indices == [1] and res.p0_indices == [0]
    assert res.d.is_morphism() and res.eps.is_morphism()
    # exactness by rank count at each vertex
    for v in range(2):
        rk_d = linalg.rank(res.d._mat(v)) if res.p1.dims[v] else 0
        assert res.p0.dims[v] - rk_d == res.eps.source.dims[v] - res.p1.dims[v]


def test_proj_resolution_projective_input(a2):
    res = reps.proj_resolution(reps.proj_rep(a2, 0))
    assert res.p1.is_zero() and res.p0_indices == [0]
    res2 = reps.proj_resolution(reps.simple_rep(a2, 1))
    assert res2.p1.is_zero() and res2.p0_indices == [1]


def test_tau_hand_values(a2):
    assert qv.tau_root(a2, (1, 0)) == (0, 1)
    assert qv.tau_root(a2, qv.proj_dims(a2, 1)) is None


def test_ar_formula_sampled(a3, d4):
    # dim Ext^1(Y, X) = dim Hom(X, tau Y) for Y non-projective
    for q in (a3, d4):
        for r1, r2 in itertools.product(qv.positive_roots(q), repeat=2):
            x = reps.indec_of_root(q, r2)
            tr = qv.tau_root(q, r1)
            rhs = reps.hom_dim_mod(x, reps.indec_of_root(q, tr)) if tr else 0
            assert reps.ext_dim_roots(q, r1, r2) == rhs


def test_tau_inv_round_trip(d4):
    for r in qv.positive_roots(d4):
        tr = qv.tau_root(d4, r)
        if tr is not None:
            assert qv.tau_inv_root(d4, tr) == r


def test_kernel_cokernel_socle_inclusion(a2):
    f = reps.hom_space(reps.proj_rep(a2, 1), reps.proj_rep(a2, 0))[0]
    k, _ = reps.kernel(f)
    c, _ = reps.cokernel(f)
    assert k.is_zero()
    assert reps.decompose(c) == {(1, 0): 1}


def test_kernel_cokernel_identity_and_zero(a3):
    m = reps.indec_of_root(a3, (1, 1, 1))
    n = reps.indec_of_root(a3, (0, 1, 0))
    k, _ = reps.kernel(identity_map(m))
    c, _ = reps.cokernel(identity_map(m))
    assert k.is_zero() and c.is_zero()
    z = reps.zero_map(m, n)
    k2, _ = reps.kernel(z)
    c2, _ = reps.cokernel(z)
    assert k2.dims == m.dims and c2.dims == n.dims


def test_kernel_cokernel_induced_maps_commute(d4):
    m = reps.indec_of_root(d4, (1, 1, 1, 2))
    n = reps.indec_of_root(d4, (0, 1, 1, 1))
    for f in reps.hom_space(m, n):
        k, inc = reps.kernel(f)
        c, pr = reps.cokernel(f)
        assert inc.is_morphism() and pr.is_morphism()
        assert map_is_zero(pr.compose(f))
        assert map_is_zero(f.compose(inc))


def test_knitting_order_is_upper_triangular(a4):
    order = reps.knitting_order(a4)
    idx = {r: i for i, r in enumerate(order)}
    for r1, r2 in itertools.product(order, repeat=2):
        if r1 != r2 and reps.hom_dim_roots(a4, r1, r2):
            assert idx[r1] < idx[r2]


def test_hom_space_maps_are_morphisms(d4):
    indecs = [reps.indec_of_root(d4, r) for r in qv.positive_roots(d4)]
    for m, n in itertools.product(indecs, repeat=2):
        for f in reps.hom_space(m, n):
            assert f.is_morphism()
