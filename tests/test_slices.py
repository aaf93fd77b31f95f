import itertools
import pathlib
import time
from collections import Counter

import pytest

from conftest import ell_profile, pair_of, reference_quivers, root_of, stalk_at, tau_reference
from dercat import (cli, complexes as cx, derived as dv, mutation as mu, quiver as qv, sgd,
                    slices as sls, zq)

INPUTS = pathlib.Path(__file__).parents[1] / "bench" / "inputs"


def positions(sl):
    """The slice as {orbit i: m}, one position per tau-orbit."""
    return {i: m for m, i in sl.vertices}


def in_hereditary(sl, xr, xs):
    """Whether M(xr)[xs] lies in the hereditary subcategory cut out by the slice.

    The defining condition quantifies over all nonzero shifts, but only two
    shifts per slice element can carry a morphism, so the check is finite.
    The reference for slices.level_of.
    """
    q = sl.quiver
    for sr, ss in (root_of(q, x) for x in sl.pairs):
        for i in (ss - xs, ss - xs + 1):
            if i != 0 and dv.pair_hom_dim(q, sr, ss, xr, xs + i):
                return False
    return True


def hered_membership(sl, x):
    """Whether the indecomposable X lies in the hereditary subcategory cut out
    by the slice."""
    (xr, xs), = x.basic().indecs()
    return in_hereditary(sl, xr, xs)


def scanned_level(sl, xr, xs):
    """Every shift i with M(xr)[xs] in H[i], over the window where one can lie."""
    lo = xs - max(s for _, s in sl.pairs) - 1
    hi = xs - min(s for _, s in sl.pairs) + 1
    return [i for i in range(lo, hi + 1) if in_hereditary(sl, xr, xs - i)]


def lower_bound_witness(t, sl, ell):
    """An object M one shift past the window with ell_T(M) >= ell + 2.

    Searches the inverse-tau translate of the slice at suspension ell + 1 for
    nonzero morphisms from a top-window summand of T and into the shifted
    sources; both conditions are asserted, per the transjective lower bound.
    """
    if ell < 1:
        raise ValueError("the lower-bound witness needs ell >= 1")
    q = t.quiver
    hw = sls.shift_window(t, sl)
    tops = [x for x, l in hw.levels if l == ell]
    assert tops, "no summand at the top of the window"
    src_sum = dv.DerivedObject(
        q, [(r, s + ell + 2, 1) for r, s in (root_of(q, zq.zq_pair(q, *v)) for v in sl.sources)])
    big_l = stalk_at(q, tops[0])
    for x in sl.pairs:
        m_obj = stalk_at(q, zq.tau_pair(q, x, -1)).shift(ell + 1)
        if dv.hom_dim(big_l, m_obj) and dv.hom_dim(m_obj, src_sum):
            assert ell_profile(t, m_obj).ell >= ell + 2, m_obj
            return m_obj
    raise AssertionError("no lower-bound witness in the slice translate")


def test_zq_dictionary_round_trip(a3, d4):
    for q in [a3, d4] + reference_quivers():
        for m, i in itertools.product(range(-12, 13), range(q.n)):
            obj = zq.zq_pair(q, m, i)
            assert zq.zq_vertex(q, obj) == (m, i), (q, m, i)
            # m = 0 is the projective slice at suspension 0
            assert (obj[1] >= 0) == (m >= 0)
        assert [zq.zq_pair(q, 0, i) for i in range(q.n)] == [pair_of(q, r, 0)
                                                              for r in qv.path_counts(q)]


@pytest.mark.parametrize("name", ["E7-alt", "E8-alt"])
def test_zq_vertex_of_round_trip_on_e_types(name):
    q = qv.parse_quiver((INPUTS / (name + ".q")).read_text())
    shifts = set()
    for m, i in itertools.product(range(-45, 46), range(q.n)):
        obj = zq.zq_pair(q, m, i)
        shifts.add(obj[1])
        assert zq.zq_vertex(q, obj) == (m, i)
    assert {-3, -1, 0, 3} <= shifts


def test_zq_coordinates_fold_by_the_coxeter_number():
    # tau^-h = [2]: against a step-by-step tau walk by the Coxeter matrix
    # within three periods, and as a round trip at m = +-10^6, where a walk
    # would take a million steps
    for q in reference_quivers():
        for comp in q.components():
            # a root's support is connected, so it lies in one component
            roots = sum(1 for r in qv.positive_roots(q) if any(r[v] for v in comp))
            for i in comp:
                h = len(zq.orbits(q).walks[i])
                assert h == 2 * roots // len(comp), (q, i)
                assert zq.zq_pair(q, 0, i) == pair_of(q, qv.proj_dims(q, i), 0)
                for m in range(-3 * h, 3 * h + 1):
                    obj = zq.zq_pair(q, m, i)
                    assert (pair_of(q, *tau_reference(q, *root_of(q, obj)))
                            == zq.zq_pair(q, m - 1, i)), (q, m, i)
                    assert zq.tau_pair(q, obj, m) == pair_of(q, qv.proj_dims(q, i), 0), (q, m, i)
                    assert zq.zq_vertex(q, obj) == (m, i), (q, m, i)
                for m in (-10 ** 6, 10 ** 6):
                    a, shift = zq.zq_pair(q, m, i)
                    assert zq.zq_vertex(q, (a, shift)) == (m, i)
                    assert zq.zq_pair(q, m + h, i) == (a, shift + 2)


def test_zq_tau_matches_derived(a3):
    for q in [a3] + reference_quivers():
        for m, i in itertools.product(range(-12, 13), range(q.n)):
            obj = stalk_at(q, zq.zq_pair(q, m, i))
            prev = zq.tau_derived(obj).pairs[0]
            assert zq.zq_pair(q, m - 1, i) == prev


def test_zq_arrows_carry_morphisms():
    for q in (q for q in reference_quivers() if q.is_connected()):
        st = sls.step(q)
        for m, i in itertools.product(range(len(zq.orbits(q).walks[0])), range(q.n)):
            src = stalk_at(q, zq.zq_pair(q, m, i))
            for j in q.neighbors(i):
                mid = stalk_at(q, zq.zq_pair(q, m + st[i, j], j))
                assert dv.hom_dim(src, mid) >= 1
                # mesh: each arrow (m, i) -> mid is followed by one mid -> (m + 1, i)
                assert st[i, j] + st[j, i] == 1
                assert dv.hom_dim(mid, stalk_at(q, zq.zq_pair(q, m + 1, i))) >= 1


def test_zq_meshes_add_up_in_k0():
    # the mesh ending at tau^-1 X: [X] + [tau^-1 X] is the sum of the classes
    # of X's ZQ successors, the wrap P_j[1] included; no Coxeter matrix needed
    meshes = 0
    for q in (q for q in reference_quivers() if q.is_connected()):
        st = sls.step(q)

        def k0(m, i):
            return dv.k0_class(stalk_at(q, zq.zq_pair(q, m, i)))

        h = len(zq.orbits(q).walks[0])
        for m, i in itertools.product(range(-h - 1, h + 2), range(q.n)):
            want = [0] * q.n
            for j in q.neighbors(i):
                want = [a + b for a, b in zip(want, k0(m + st[i, j], j))]
            assert [a + b for a, b in zip(k0(m, i), k0(m + 1, i))] == want, (q, m, i)
            meshes += 1
    assert meshes == 4264


def knitting_reference(q):
    """The roots walked orbit by orbit with the inverse Coxeter matrix from each
    projective until the orbit leaves the roots, sorted by (depth, sink-first
    position of the orbit's vertex)."""
    phi_inv = qv.coxeter_inverse(q)
    roots = set(qv.positive_roots(q))
    slicepos = {v: i for i, v in enumerate(qv.sink_first_order(q))}
    per_orbit = []
    for i in range(q.n):
        r = qv.proj_dims(q, i)
        depth = 0
        while r in roots:
            per_orbit.append((depth, slicepos[i], r))
            r = tuple(sum(phi_inv[a][b] * r[b] for b in range(q.n)) for a in range(q.n))
            depth += 1
    per_orbit.sort()
    order = tuple(r for _, _, r in per_orbit)
    assert sorted(order) == sorted(roots), "the orbits missed roots"
    return order


def test_knitting_order_matches_the_coxeter_orbit_walk():
    for q in reference_quivers():
        assert zq.knitting_order(q) == knitting_reference(q), q


def test_knitting_order_is_upper_triangular(a4):
    order = zq.knitting_order(a4)
    idx = {r: i for i, r in enumerate(order)}
    for r1, r2 in itertools.product(order, repeat=2):
        if r1 != r2 and cx.homk_pair_dim(a4, r1, r2, 0):
            assert idx[r1] < idx[r2]


def test_find_slice_projective_generator(a2):
    t = dv.projective_generator(a2)
    s = sls.find_slice(t)
    assert set(s.pairs) == {pair_of(a2, (1, 1), 0), pair_of(a2, (0, 1), 0)}
    assert [zq.zq_pair(a2, *v) for v in s.sources] == [pair_of(a2, (0, 1), 0)]


def test_find_slice_apr_tilt(a2):
    t = dv.DerivedObject(a2, [((1, 1), 0, 1), ((1, 0), 0, 1)])
    s = sls.find_slice(t)
    assert set(s.pairs) == {pair_of(a2, (1, 1), 0), pair_of(a2, (1, 0), 0)}
    assert [zq.zq_pair(a2, *v) for v in s.sources] == [pair_of(a2, (1, 1), 0)]


def test_find_slice_shift_equivariance(a3):
    t = dv.projective_generator(a3)
    s0 = sls.find_slice(t)
    for k in (-2, 1, 3):
        sk = sls.find_slice(t.shift(k))
        assert set(sk.pairs) == set((a, sh + k) for a, sh in s0.pairs)


def test_find_slice_sources_are_summands(a4, d4):
    for q in (a4, d4):
        for seed in range(8):
            t, _ = mu.random_tilting_walk(q, seed, 5)
            s = sls.find_slice(t)
            summands = set(t.basic().pairs)
            assert set(zq.zq_pair(q, *v) for v in s.sources) <= summands


def test_find_slice_is_least_single_source_section(a4, d4, d5_alt):
    # against enumerate_slices: for each Hom-minimal summand s the one section
    # whose only source is s, then their pointwise minimum
    for q in (a4, d4, d5_alt):
        for seed in range(4):
            t, _ = mu.random_tilting_walk(q, seed, 2 + seed)
            objs = [dv.stalk(q, r, sh) for r, sh in t.basic().indecs()]
            minimal = [zq.zq_vertex(q, x.pairs[0]) for x in objs
                       if not any(dv.hom_dim(y, x) for y in objs if y is not x)]
            found, truncated = sls.enumerate_slices(
                q, min(m for m, _ in minimal), max(m for m, _ in minimal) + q.n)
            assert not truncated
            singles = []
            for s in minimal:
                (single,) = [dict(enumerate(pos)) for pos in found
                             if sls.slice_from_positions(q, pos).sources == (s,)]
                singles.append(single)
            least = {i: min(p[i] for p in singles) for i in range(q.n)}
            assert positions(sls.find_slice(t)) == least, (q, seed)


def test_slice_is_section_and_rigid(a4):
    for seed in range(6):
        t, _ = mu.random_tilting_walk(a4, seed, 4)
        s = sls.find_slice(t)
        assert sls.is_section(a4, positions(s))
        # slice objects are pairwise rigid in nonzero shifts
        for (r1, s1), (r2, s2) in itertools.product([root_of(a4, x) for x in s.pairs], repeat=2):
            for i in (-2, -1, 1, 2):
                assert dv.pair_hom_dim(a4, r1, s1, r2, s2 + i) == 0 or i == 0


def test_hered_membership_examples(a2):
    t = dv.projective_generator(a2)
    s = sls.find_slice(t)
    assert hered_membership(s, dv.stalk(a2, (1, 0), 0))
    assert not hered_membership(s, dv.stalk(a2, (1, 0), 1))
    for x in s.pairs:
        assert hered_membership(s, stalk_at(a2, x))


def test_membership_partitions_window(a3, d4, census):
    t = dv.projective_generator(a3)
    s = sls.find_slice(t)
    for r in qv.positive_roots(a3):
        for k in range(-2, 3):
            x = dv.stalk(a3, r, k)
            levels = [i for i in range(-4, 5) if hered_membership(s, x.shift(-i))]
            assert len(levels) == 1
            assert levels[0] == sls.level_of(qv.roots_of(a3), s.pairs, pair_of(a3, r, k))
    # the canonical slice of every D4 census object, against the membership scan
    for t in sorted(census(d4), key=dv.format_object):
        s = sls.find_slice(t)
        for r in qv.positive_roots(d4):
            for k in range(-2, 5):
                want = sls.level_of(qv.roots_of(d4), s.pairs, pair_of(d4, r, k))
                assert scanned_level(s, r, k) == [want], (t, r, k)


def test_level_of_refuses_a_set_that_is_not_a_slice(a3):
    c = qv.roots_of(a3)
    s = sls.find_slice(dv.projective_generator(a3))
    (a0, s0), (a1, s1), (a2, s2) = s.pairs
    # P2 lifted two shifts: P1 and P2[2] fix different levels of M(1,1,1)
    lifted = ((a0, s0), (a1, s1 + 2), (a2, s2))
    with pytest.raises(qv.InternalInconsistencyError, match="fixes 2 hereditary shifts"):
        sls.level_of(c, lifted, pair_of(a3, (1, 1, 1), 0))
    # S3 alone maps to no shift of S1
    with pytest.raises(qv.InternalInconsistencyError, match="fixes 0 hereditary shifts"):
        sls.level_of(c, [pair_of(a3, (0, 0, 1), 0)], pair_of(a3, (1, 0, 0), 0))


def test_member_and_its_shift_never_both(a3):
    t = dv.projective_generator(a3)
    s = sls.find_slice(t)
    for r in qv.positive_roots(a3):
        for k in range(-2, 3):
            both = (hered_membership(s, dv.stalk(a3, r, k))
                    and hered_membership(s, dv.stalk(a3, r, k + 1)))
            assert not both


def test_shift_window_examples(a2):
    t = dv.projective_generator(a2)
    assert sls.shift_window(t, sls.find_slice(t)).ell == 0
    t2 = dv.DerivedObject(a2, [((0, 1), 0, 1), ((1, 0), -1, 1)])
    assert sls.shift_window(t2, sls.find_slice(t2)).ell == 0


def test_enumerate_slices_a2(a2, monkeypatch):
    found, truncated = sls.enumerate_slices(a2, -1, 1)
    assert not truncated
    assert len(found) == 5
    for pos in found:
        assert sls.is_section(a2, pos)
    # truncated means that a section beyond the cap exists
    monkeypatch.setattr(sls, "SLICE_CAP", 5)
    assert sls.enumerate_slices(a2, -1, 1) == (found, False)
    monkeypatch.setattr(sls, "SLICE_CAP", 4)
    assert sls.enumerate_slices(a2, -1, 1) == (found[:4], True)


def test_enumerate_slices_returns_at_the_cap(e6_alt, monkeypatch):
    # a window two billion positions wide: the loop stops at the cap
    monkeypatch.setattr(sls, "SLICE_CAP", 1000)
    start = time.perf_counter()
    found, truncated = sls.enumerate_slices(e6_alt, -10 ** 9, 10 ** 9)
    assert time.perf_counter() - start < 1.0
    assert truncated and len(found) == 1000
    assert all(sls.is_section(e6_alt, pos) for pos in found)


@pytest.mark.parametrize("window", [(-1, 1), (0, 2), (-2, 1)])
def test_enumerate_slices_matches_brute_force(d4, e6_alt, window):
    m_lo, m_hi = window
    for q in (d4, e6_alt):
        found, truncated = sls.enumerate_slices(q, m_lo, m_hi)
        assert not truncated
        got = sorted(found)
        # every position vector in the window, in ascending order, that is a section
        want = [p for p in itertools.product(range(m_lo, m_hi + 1), repeat=q.n)
                if sls.is_section(q, dict(enumerate(p)))]
        assert got == want


def test_theoremA_on_quasi_tilted(a3):
    t = dv.DerivedObject(a3, [((0, 0, 1), 0, 1), ((1, 0, 0), 0, 1), ((1, 1, 1), 0, 1)])
    rep = sls.theoremA_verify(t, cli.WINDOW_PAD)
    assert rep.sgd == 2 and rep.ell == 0


def test_theoremA_on_sgldim3(a4):
    t = dv.DerivedObject(a4, [((0, 0, 0, 1), 0, 1), ((1, 0, 0, 0), 0, 1),
                              ((1, 1, 1, 1), 0, 1), ((0, 1, 0, 0), 1, 1)])
    rep = sls.theoremA_verify(t, cli.WINDOW_PAD)
    assert rep.sgd == 3 and rep.ell == 1


def test_theoremA_builds_one_slice_per_call(a3, d4, census, monkeypatch):
    # the enumerated sections are read as pairs: the one Slice is find_slice's
    calls = []
    build = sls.slice_from_positions
    monkeypatch.setattr(sls, "slice_from_positions",
                        lambda q, pos: calls.append(pos) or build(q, pos))
    verified = sections = 0
    for q in (a3, d4):
        for t in sorted(census(q), key=dv.format_object):
            if sgd.sgldim(t).value >= 2:
                sections += sls.theoremA_verify(t, cli.WINDOW_PAD).slices_checked
                verified += 1
                assert len(calls) == verified
    assert (verified, len(calls)) == (49, 49) and sections > 10 * verified


def test_theoremA_rejects_hereditary(a2):
    with pytest.raises(ValueError):
        sls.theoremA_verify(dv.projective_generator(a2), cli.WINDOW_PAD)


def test_lower_bound_witness(a4, a4_alt, census):
    # every census object of A4, in both orientations, with a window of width >= 1
    checked = 0
    for q in (a4, a4_alt):
        for t in sorted(census(q), key=dv.format_object):
            s = sls.find_slice(t)
            hw = sls.shift_window(t, s)
            if hw.ell < 1:
                continue
            m = lower_bound_witness(t, s, hw.ell)
            # the witness lies in the stated translate of the slice
            translate = set()
            for x in s.pairs:
                tr, trs = zq.tau_pair(q, x, -1)
                translate.add((tr, trs + hw.ell + 1))
            assert m.pairs[0] in translate
            checked += 1
    assert checked == 10


def test_lower_bound_witness_needs_positive_window(a2):
    t = dv.projective_generator(a2)
    with pytest.raises(ValueError):
        lower_bound_witness(t, sls.find_slice(t), 0)


def test_slice_machinery_requires_connected():
    q = qv.Quiver(2, ())
    with pytest.raises(sls.SliceError):
        sls.step(q)


def test_theorems_a_and_b_on_every_census_object(a3, a4, a4_alt, d4, census):
    # A_n has binom(3n, n) / (2n + 1) tilting objects up to suspension
    expected = [(a3, 12, {1: 8, 2: 4}), (a4, 55, {1: 20, 2: 30, 3: 5}),
                (a4_alt, 55, {1: 20, 2: 30, 3: 5}), (d4, 69, {1: 24, 2: 45})]
    checked = 0
    for q, count, hist in expected:
        objs = sorted(census(q), key=dv.format_object)
        assert len(objs) == count
        assert Counter(sgd.sgldim(t).value for t in objs) == hist
        for t in objs:
            d = sgd.sgldim(t).value
            if d < 2:
                continue
            rep = sls.theoremA_verify(t, cli.WINDOW_PAD)
            assert (rep.sgd, rep.ell, rep.truncated) == (d, d - 2, False)
            # T^(0), ..., T^(d-2) = T: d - 2 mutation steps, step i at s.gl.dim 2 + i
            seq = mu.theoremB_sequence(t)
            assert len(seq) - 1 == d - 2 and seq[-1][0] == t.basic()
            assert [sgd.sgldim(x).value for x, _ in seq] == list(range(2, d + 1))
            checked += 1
    assert checked == 119
