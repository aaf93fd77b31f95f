import hashlib
import itertools
import pathlib

import pytest
from hypothesis import given, settings, strategies as st

from conftest import (INPUTS, apply, compose, coxeter_matrix, inj_dims, pair_of,
                      reference_quivers, root_of)
from dercat import cli, complexes as cx, linalg, quiver as qv, reps, zq

D4_ALT = pathlib.Path(__file__).parents[1] / "bench" / "inputs" / "D4-alt.q"


def is_morphism(f):
    """Whether the vertex matrices of the RepMap f commute with every arrow."""
    for a, (s, t) in enumerate(f.source.quiver.arrows):
        ms, mt = f.source.dims[s], f.source.dims[t]
        ns, nt = f.target.dims[s], f.target.dims[t]
        if ms == 0 or nt == 0:
            continue
        lhs = linalg.mat_mul_dims(f.mats[t], f.source.mats[a], nt, mt, ms)
        rhs = linalg.mat_mul_dims(f.target.mats[a], f.mats[s], nt, ns, ms)
        if lhs != rhs:
            return False
    return True


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
        rk_d = len(linalg.rref(res.d.mats[v])[1]) if res.p1.dims[v] else 0
        assert res.p0.dims[v] - rk_d == res.eps.source.dims[v] - res.p1.dims[v]


def test_proj_resolution_projective_input(a2):
    res = reps.proj_resolution(reps.proj_rep(a2, 0))
    assert not any(res.p1.dims) and res.p0_indices == [0]
    res2 = reps.proj_resolution(reps.simple_rep(a2, 1))
    assert not any(res2.p1.dims) and res2.p0_indices == [1]


def test_the_resolutions_of_every_bench_root_are_as_recorded():
    # the cover indices and the differential's matrices of every
    # indecomposable of the bench quivers, quiver by quiver and root by root
    # in sorted order, byte for byte as recorded
    h = hashlib.sha256()
    for path in sorted(INPUTS.glob("*.q")):
        q = qv.parse_quiver(path.read_text())
        for root in sorted(qv.positive_roots(q)):
            res = reps.proj_resolution(reps.indec_of_root(q, root))
            mats = [[[str(x) for x in row] for row in m] for m in res.d.mats]
            h.update(repr((path.stem, root, res.p1_indices, res.p0_indices, mats)).encode())
    assert h.hexdigest() == "a0718e38a7e071f1ac789ac8114694fa425ba592dc991e518222644776bd56fb"


def test_tau_hand_values(a2):
    # 1 -> 2: tau S_1 = S_2, and tau P_2 = I_2[-1] leaves the module category
    assert zq.tau_pair(a2, pair_of(a2, (1, 0), 0)) == pair_of(a2, (0, 1), 0)
    assert (zq.tau_pair(a2, pair_of(a2, qv.proj_dims(a2, 1), 0)) == pair_of(a2, inj_dims(a2, 1), -1)
            == pair_of(a2, (1, 1), -1))


def test_ar_formula_sampled(a3, d4):
    # dim Ext^1(Y, X) = dim Hom(X, tau Y) for Y non-projective, whose tau is
    # the module of root C dim Y; for Y = P_i, tau Y = I_i[-1] and Ext^1(Y, -) = 0
    for q in (a3, d4):
        projs = qv.path_counts(q)
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


def test_proj_resolution_is_exact_on_every_reference_root():
    # 0 -> P1 --d--> P0 --eps--> M -> 0 at each vertex, by rank
    for q in reference_quivers():
        for r in qv.positive_roots(q):
            m = reps.indec_of_root(q, r)
            res = reps.proj_resolution(m)
            assert is_morphism(res.d) and is_morphism(res.eps), r
            for v in range(q.n):
                m_v, p0_v, p1_v = m.dims[v], res.p0.dims[v], res.p1.dims[v]
                assert _rank(res.eps.mats[v]) == m_v, (r, v)
                assert _rank(res.d.mats[v]) == p1_v, (r, v)
                ed = linalg.mat_mul_dims(res.eps.mats[v], res.d.mats[v], m_v, p0_v, p1_v)
                assert all(x == 0 for row in ed for x in row), (r, v)
                assert p0_v == p1_v + m_v, (r, v)


def _kernel_cover(f):
    """(nullspace of f_v at each v, cover of the kernel of f inside f.source)."""
    spans = [linalg.nullspace(f.mats[v], f.source.dims[v]) for v in range(f.source.quiver.n)]
    return spans, reps.projective_cover(f.source, spans)[1]


def _is_zero_map(f):
    return all(x == 0 for mat in f.mats for row in mat for x in row)


def test_kernel_cokernel_socle_inclusion(a2):
    # the socle inclusion P2 -> P1 is the resolution's differential of S1; the
    # augmentation P1 -> S1 has it as kernel
    res = reps.proj_resolution(reps.simple_rep(a2, 0))
    spans, _ = _kernel_cover(res.d)
    assert [len(b) for b in spans] == [0] * a2.n
    spans, inc = _kernel_cover(res.eps)
    assert tuple(map(len, spans)) == inc.source.dims == qv.proj_dims(a2, 1)
    assert is_morphism(inc) and _is_zero_map(compose(res.eps, inc))


def test_kernel_cokernel_identity_and_zero(a3):
    m = reps.indec_of_root(a3, (1, 1, 1))
    n = reps.indec_of_root(a3, (0, 1, 0))
    spans, inc = _kernel_cover(reps.RepMap(m, m, [linalg.identity(d) for d in m.dims]))
    assert [len(b) for b in spans] == [0] * a3.n and inc.source.dims == (0,) * a3.n
    spans, inc = _kernel_cover(reps.zero_map(m, n))
    assert tuple(map(len, spans)) == m.dims
    assert [_rank(inc.mats[v]) for v in range(a3.n)] == list(m.dims)
    # nullspace takes the width of its system: with no rows or only zero
    # rows every vector solves it, and width 0 leaves no basis vector
    assert linalg.nullspace([], 3) == linalg.identity(3)
    assert linalg.nullspace(linalg.zeros(2, 3), 3) == linalg.identity(3)
    assert linalg.nullspace([], 0) == linalg.nullspace([[], []], 0) == []


def test_kernel_cokernel_induced_maps_commute(d4):
    # kernels of the two maps of each indecomposable's projective resolution,
    # covered inside their source
    for r in qv.positive_roots(d4):
        res = reps.proj_resolution(reps.indec_of_root(d4, r))
        for f in (res.eps, res.d):
            spans, inc = _kernel_cover(f)
            assert is_morphism(f) and is_morphism(inc)
            assert _is_zero_map(compose(f, inc))
            # onto the kernel: f kills the image of inc, which has full width
            assert [_rank(inc.mats[v]) for v in range(d4.n)] == list(map(len, spans)), r
        # exact: eps has the image of d as its kernel, and d is injective
        assert tuple(map(len, _kernel_cover(res.eps)[0])) == res.p1.dims
        assert not any(_kernel_cover(res.d)[0])


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
    # would reach every Hom computed after; emptied first, with the
    # resolutions, so that the table fills during the run
    q = qv.parse_quiver(D4_ALT.read_text())
    for memo in (reps.proj_rep, cx.resolution, cx.homk_pair_dim):
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
