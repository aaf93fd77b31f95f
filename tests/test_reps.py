import itertools
import pathlib

import pytest
from hypothesis import given, settings, strategies as st

from conftest import apply, coxeter_matrix, inj_dims, pair_of, root_of
from dercat import cli, complexes as cx, linalg, quiver as qv, reps, zq

D4_ALT = pathlib.Path(__file__).parents[1] / "bench" / "inputs" / "D4-alt.q"


def identity_map(m):
    return reps.RepMap(m, m, [linalg.identity(d) for d in m.dims])


def is_morphism(f):
    """Whether the vertex matrices of the RepMap f commute with every arrow."""
    for a, (s, t) in enumerate(f.source.quiver.arrows):
        ms, mt = f.source.dims[s], f.source.dims[t]
        ns, nt = f.target.dims[s], f.target.dims[t]
        if ms == 0 or nt == 0:
            continue
        lhs = linalg.mat_mul_dims(f._mat(t), f.source.mats[a], nt, mt, ms)
        rhs = linalg.mat_mul_dims(f.target.mats[a], f._mat(s), nt, ns, ms)
        if not linalg.mat_eq(lhs, rhs):
            return False
    return True


def map_is_zero(f):
    """Whether every vertex matrix of the RepMap f is zero."""
    return all(x == 0 for v in range(f.source.quiver.n) for row in f._mat(v) for x in row)


# Hom and Ext^1 between modules are read off the chain route: chain maps
# between projective resolutions at gap 0 and gap 1


def test_hom_socle_inclusion(a2):
    p1, p2 = qv.proj_dims(a2, 0), qv.proj_dims(a2, 1)
    assert cx.homk_pair_dim(a2, p2, p1, 0) == 1


def test_hom_simple_into_projective_vanishes(a2):
    s1, p1 = qv.simple_root(a2, 0), qv.proj_dims(a2, 0)
    assert cx.homk_pair_dim(a2, s1, p1, 0) == 0


def test_hom_simple_endomorphisms(a3):
    for i in range(3):
        s = qv.simple_root(a3, i)
        assert cx.homk_pair_dim(a3, s, s, 0) == 1


def test_ext_hand_values(a2):
    s1, s2 = (1, 0), (0, 1)
    assert cx.homk_pair_dim(a2, s1, s2, 1) == 1
    assert cx.homk_pair_dim(a2, s2, s1, 1) == 0


def test_ext_projective_source_vanishes(a3):
    for i in range(3):
        p = qv.proj_dims(a3, i)
        for r in qv.positive_roots(a3):
            assert cx.homk_pair_dim(a3, p, r, 1) == 0


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
            assert cx.homk_pair_dim(q, r, r, 0) == 1


def test_proj_resolution_simple(a2):
    res = reps.proj_resolution(reps.simple_rep(a2, 0))
    assert res.p1_indices == [1] and res.p0_indices == [0]
    assert is_morphism(res.d) and is_morphism(res.eps)
    # exactness by rank count at each vertex
    for v in range(2):
        rk_d = len(linalg.rref(res.d._mat(v))[1]) if res.p1.dims[v] else 0
        assert res.p0.dims[v] - rk_d == res.eps.source.dims[v] - res.p1.dims[v]


def test_proj_resolution_projective_input(a2):
    res = reps.proj_resolution(reps.proj_rep(a2, 0))
    assert res.p1.is_zero() and res.p0_indices == [0]
    res2 = reps.proj_resolution(reps.simple_rep(a2, 1))
    assert res2.p1.is_zero() and res2.p0_indices == [1]


def test_tau_hand_values(a2):
    # 1 -> 2: tau S_1 = S_2, and tau P_2 = I_2[-1] leaves the module category
    assert zq.tau_pair(a2, pair_of(a2, (1, 0), 0)) == pair_of(a2, (0, 1), 0)
    assert (zq.tau_pair(a2, pair_of(a2, qv.proj_dims(a2, 1), 0)) == pair_of(a2, inj_dims(a2, 1), -1)
            == pair_of(a2, (1, 1), -1))


def test_ar_formula_sampled(a3, d4):
    # dim Ext^1(Y, X) = dim Hom(X, tau Y) for Y non-projective, whose tau is
    # the module of root C dim Y; for Y = P_i, tau Y = I_i[-1] and Ext^1(Y, -) = 0
    for q in (a3, d4):
        projs = qv.proj_roots(q)
        for r1, r2 in itertools.product(qv.positive_roots(q), repeat=2):
            tr, ts = root_of(q, zq.tau_pair(q, pair_of(q, r1, 0)))
            if r1 in projs:
                assert (tr, ts) == (inj_dims(q, projs.index(r1)), -1)
                rhs = 0
            else:
                assert (tr, ts) == (apply(coxeter_matrix(q), r1), 0)
                rhs = cx.homk_pair_dim(q, r2, tr, 0)
            assert cx.homk_pair_dim(q, r1, r2, 1) == rhs


def test_tau_inv_round_trip(d4):
    for r in qv.positive_roots(d4):
        tr = zq.tau_pair(d4, pair_of(d4, r, 0))
        assert zq.tau_pair(d4, tr, -1) == pair_of(d4, r, 0)
        if tr[1] == 0:
            assert tr == pair_of(d4, apply(coxeter_matrix(d4), r), 0)


def test_kernel_cokernel_socle_inclusion(a2):
    # the socle inclusion P2 -> P1 is the resolution's differential of S1; the
    # augmentation P1 -> S1 has it as kernel
    res = reps.proj_resolution(reps.simple_rep(a2, 0))
    k, _ = reps.kernel(res.d)
    assert k.is_zero()
    k2, inc = reps.kernel(res.eps)
    assert k2.dims == qv.proj_dims(a2, 1)
    assert map_is_zero(res.eps.compose(inc))


def test_kernel_cokernel_identity_and_zero(a3):
    m = reps.indec_of_root(a3, (1, 1, 1))
    n = reps.indec_of_root(a3, (0, 1, 0))
    k, _ = reps.kernel(identity_map(m))
    assert k.is_zero()
    z = reps.zero_map(m, n)
    k2, _ = reps.kernel(z)
    assert k2.dims == m.dims


def test_kernel_cokernel_induced_maps_commute(d4):
    # kernels of the two maps of each indecomposable's projective resolution
    for r in qv.positive_roots(d4):
        res = reps.proj_resolution(reps.indec_of_root(d4, r))
        for f in (res.eps, res.d):
            k, inc = reps.kernel(f)
            assert is_morphism(f) and is_morphism(inc)
            assert map_is_zero(f.compose(inc))
        # exact: eps has the image of d as its kernel, and d is injective
        assert reps.kernel(res.eps)[0].dims == res.p1.dims
        assert reps.kernel(res.d)[0].is_zero()


def test_mat_mul_rejects_mismatched_shapes():
    # a raise, not an assert, so the check holds under python -O
    with pytest.raises(ValueError, match="cannot multiply 2x3 by 2x3"):
        linalg.mat_mul(linalg.zeros(2, 3), linalg.zeros(2, 3))


def _rank(vectors):
    return len(linalg.rref(vectors)[1])


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 4).flatmap(lambda dim: st.lists(
    st.lists(st.integers(-2, 2), min_size=dim, max_size=dim), max_size=6)), st.integers(0, 6))
def test_independent_picks_where_the_prefix_rank_grows(rows, k):
    vecs = linalg.mat_from_rows(rows)
    grows = [i for i in range(len(vecs)) if _rank(vecs[:i + 1]) > _rank(vecs[:i])]
    chosen = linalg.independent(vecs)
    assert chosen == grows
    # independent, and spanning every vector of the list
    assert _rank([vecs[i] for i in chosen] + vecs) == len(chosen)
    # after a base: the same choice, counted from the end of the base
    assert linalg.independent(vecs[k:], vecs[:k]) == [i - k for i in grows if i >= k]


def test_the_chain_oracle_builds_each_projective_once_and_never_writes_it(capsys):
    # every complex shares the one proj_rep of each vertex, so a write into it
    # would reach every Hom computed after; emptied first, so that the
    # stalk complexes are built again, the table fills during the run
    q = qv.parse_quiver(D4_ALT.read_text())
    for memo in (reps.proj_rep, cx.stalk_complex_cached, cx.homk_pair_dim):
        memo.cache_clear()
    assert cli.main(["verify", "homagree", "--quiver", str(D4_ALT)]) == 0
    capsys.readouterr()
    misses = reps.proj_rep.cache_info().misses
    assert misses <= q.n
    for i in range(q.n):
        shared, fresh = reps.proj_rep(q, i), reps.proj_rep.__wrapped__(q, i)
        assert shared.dims == fresh.dims and shared.mats == fresh.mats, i
    # each of those reads was a hit: every compared projective is the shared one
    assert reps.proj_rep.cache_info().misses == misses
