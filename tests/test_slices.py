import itertools
import pathlib
from collections import Counter

import pytest

from conftest import reference_quivers
from dercat import derived as dv, mutation as mu, quiver as qv, sgd, slices as sls

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
    for (sr, ss) in sl.objects:
        for i in (ss - xs, ss - xs + 1):
            if i != 0 and dv.pair_hom_dim(q, sr, ss, xr, xs + i):
                return False
    return True


def level(sl, xr, xs):
    """slices.level_of on a slice and M(xr)[xs], both by roots."""
    c = qv.roots_of(sl.quiver)
    return sls.level_of(c, [(c.index[r], s) for r, s in sl.objects], (c.index[xr], xs))


def hered_membership(sl, x):
    """Whether the indecomposable X lies in the hereditary subcategory cut out
    by the slice."""
    (xr, xs), = x.basic().indecs()
    return in_hereditary(sl, xr, xs)


def scanned_level(sl, xr, xs):
    """Every shift i with M(xr)[xs] in H[i], over the window where one can lie."""
    lo = xs - max(s for _, s in sl.objects) - 1
    hi = xs - min(s for _, s in sl.objects) + 1
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
    tops = [o for o, l in hw.levels if l == ell]
    assert tops, "no summand at the top of the window"
    src_sum = dv.DerivedObject(
        q, [(r, s + ell + 2, 1) for r, s in (dv.zq_object(q, *v) for v in sl.sources)])
    big_l = dv.stalk(q, *tops[0])
    for (sr, ss) in sl.objects:
        m_obj = dv.stalk(q, *dv.tau_pair(q, sr, ss, -1)).shift(ell + 1)
        if dv.hom_dim(big_l, m_obj) and dv.hom_dim(m_obj, src_sum):
            assert sgd.ell_profile(t, m_obj).ell >= ell + 2, m_obj
            return m_obj
    raise AssertionError("no lower-bound witness in the slice translate")


def test_zq_dictionary_round_trip(a3, d4):
    for q in [a3, d4] + reference_quivers():
        for m, i in itertools.product(range(-12, 13), range(q.n)):
            obj = dv.zq_object(q, m, i)
            assert dv.zq_vertex(q, *obj) == (m, i), (q, m, i)
            # m = 0 is the projective slice at suspension 0
            assert (obj[1] >= 0) == (m >= 0)
        assert [dv.zq_object(q, 0, i) for i in range(q.n)] == [(r, 0) for r in qv.proj_roots(q)]


@pytest.mark.parametrize("name", ["E7-alt", "E8-alt"])
def test_zq_vertex_of_round_trip_on_e_types(name):
    q = qv.parse_quiver((INPUTS / (name + ".q")).read_text())
    shifts = set()
    for m, i in itertools.product(range(-45, 46), range(q.n)):
        obj = dv.zq_object(q, m, i)
        shifts.add(obj[1])
        assert dv.zq_vertex(q, *obj) == (m, i)
    assert {-3, -1, 0, 3} <= shifts


def test_zq_coordinates_fold_by_the_coxeter_number():
    # tau^-h = [2]: against a step-by-step tau walk within three periods, and
    # as a round trip at m = +-10^6, where a walk would take a million steps
    for q in reference_quivers():
        for comp in q.components():
            # a root's support is connected, so it lies in one component
            roots = sum(1 for r in qv.positive_roots(q) if any(r[v] for v in comp))
            for i in comp:
                h = dv.tau_period(q, i)
                assert h == 2 * roots // len(comp), (q, i)
                for m in range(-3 * h, 3 * h + 1):
                    obj = dv.tau_pair(q, qv.proj_dims(q, i), 0, -m)
                    assert dv.zq_object(q, m, i) == obj, (q, m, i)
                    assert dv.zq_vertex(q, *obj) == (m, i), (q, m, i)
                for m in (-10 ** 6, 10 ** 6):
                    root, shift = dv.zq_object(q, m, i)
                    assert dv.zq_vertex(q, root, shift) == (m, i)
                    assert dv.zq_object(q, m + h, i) == (root, shift + 2)


def test_zq_vertex_of_rejects_an_object_off_zq(a3):
    with pytest.raises(qv.InternalInconsistencyError, match="not found in ZQ"):
        dv.zq_vertex(a3, (2, 0, 0), 1)


def test_zq_tau_matches_derived(a3):
    for q in [a3] + reference_quivers():
        for m, i in itertools.product(range(-12, 13), range(q.n)):
            obj = dv.stalk(q, *dv.zq_object(q, m, i))
            prev = dv.tau_derived(obj).indecs()[0]
            assert dv.zq_object(q, m - 1, i) == prev


def test_zq_arrows_carry_morphisms(a3, d4):
    for q in (a3, d4):
        st = sls.step(q)
        for m, i in itertools.product(range(-2, 3), range(q.n)):
            src = dv.stalk(q, *dv.zq_object(q, m, i))
            for j in q.neighbors(i):
                mid = dv.stalk(q, *dv.zq_object(q, m + st[i, j], j))
                assert dv.hom_dim(src, mid) >= 1
                # mesh: each arrow (m, i) -> mid is followed by one mid -> (m + 1, i)
                assert st[i, j] + st[j, i] == 1
                assert dv.hom_dim(mid, dv.stalk(q, *dv.zq_object(q, m + 1, i))) >= 1


def test_find_slice_projective_generator(a2):
    t = dv.projective_generator(a2)
    s = sls.find_slice(t)
    assert set(s.objects) == {((1, 1), 0), ((0, 1), 0)}
    assert [dv.zq_object(a2, *v) for v in s.sources] == [((0, 1), 0)]


def test_find_slice_apr_tilt(a2):
    t = dv.DerivedObject(a2, [((1, 1), 0, 1), ((1, 0), 0, 1)])
    s = sls.find_slice(t)
    assert set(s.objects) == {((1, 1), 0), ((1, 0), 0)}
    assert [dv.zq_object(a2, *v) for v in s.sources] == [((1, 1), 0)]


def test_find_slice_shift_equivariance(a3):
    t = dv.projective_generator(a3)
    s0 = sls.find_slice(t)
    for k in (-2, 1, 3):
        sk = sls.find_slice(t.shift(k))
        assert set(sk.objects) == set((r, sh + k) for r, sh in s0.objects)


def test_find_slice_sources_are_summands(a4, d4):
    for q in (a4, d4):
        for seed in range(8):
            t, _ = mu.random_tilting_walk(q, seed, 5)
            s = sls.find_slice(t)
            summands = set(t.basic().indecs())
            assert set(dv.zq_object(q, *v) for v in s.sources) <= summands


def test_find_slice_is_least_single_source_section(a4, d4, d5_alt):
    # against enumerate_slices: for each Hom-minimal summand s the one section
    # whose only source is s, then their pointwise minimum
    for q in (a4, d4, d5_alt):
        for seed in range(4):
            t, _ = mu.random_tilting_walk(q, seed, 2 + seed)
            objs = [dv.stalk(q, r, sh) for r, sh in t.basic().indecs()]
            minimal = [dv.zq_vertex(q, *x.indecs()[0]) for x in objs
                       if not any(dv.hom_dim(y, x) for y in objs if y is not x)]
            found, truncated = sls.enumerate_slices(
                q, min(m for m, _ in minimal), max(m for m, _ in minimal) + q.n)
            assert not truncated
            singles = []
            for s in minimal:
                (single,) = [positions(sl) for sl in found if sl.sources == (s,)]
                singles.append(single)
            least = {i: min(p[i] for p in singles) for i in range(q.n)}
            assert positions(sls.find_slice(t)) == least, (q, seed)


def test_slice_is_section_and_rigid(a4):
    for seed in range(6):
        t, _ = mu.random_tilting_walk(a4, seed, 4)
        s = sls.find_slice(t)
        assert sls.is_section(a4, positions(s))
        # slice objects are pairwise rigid in nonzero shifts
        for (r1, s1), (r2, s2) in itertools.product(s.objects, repeat=2):
            for i in (-2, -1, 1, 2):
                assert dv.pair_hom_dim(a4, r1, s1, r2, s2 + i) == 0 or i == 0


def test_hered_membership_examples(a2):
    t = dv.projective_generator(a2)
    s = sls.find_slice(t)
    assert hered_membership(s, dv.stalk(a2, (1, 0), 0))
    assert not hered_membership(s, dv.stalk(a2, (1, 0), 1))
    for r, sh in s.objects:
        assert hered_membership(s, dv.stalk(a2, r, sh))


def test_membership_partitions_window(a3, d4, census):
    t = dv.projective_generator(a3)
    s = sls.find_slice(t)
    for r in qv.positive_roots(a3):
        for k in range(-2, 3):
            x = dv.stalk(a3, r, k)
            levels = [i for i in range(-4, 5) if hered_membership(s, x.shift(-i))]
            assert len(levels) == 1
            assert levels[0] == level(s, r, k)
    # the canonical slice of every D4 census object, against the membership scan
    for t in sorted(census(d4), key=dv.format_object):
        s = sls.find_slice(t)
        for r in qv.positive_roots(d4):
            for k in range(-2, 5):
                assert scanned_level(s, r, k) == [level(s, r, k)], (t, r, k)


def test_level_of_refuses_a_set_that_is_not_a_slice(a3):
    s = sls.find_slice(dv.projective_generator(a3))
    (r0, s0), (r1, s1), (r2, s2) = s.objects
    # P2 lifted two shifts: P1 and P2[2] fix different levels of M(1,1,1)
    lifted = s._replace(objects=((r0, s0), (r1, s1 + 2), (r2, s2)))
    with pytest.raises(qv.InternalInconsistencyError, match="fixes 2 hereditary shifts"):
        level(lifted, (1, 1, 1), 0)
    # S3 alone maps to no shift of S1
    with pytest.raises(qv.InternalInconsistencyError, match="fixes 0 hereditary shifts"):
        level(s._replace(objects=(((0, 0, 1), 0),)), (1, 0, 0), 0)


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


def test_enumerate_slices_a2(a2):
    found, truncated = sls.enumerate_slices(a2, -1, 1)
    assert not truncated
    assert len(found) == 5
    for s in found:
        assert sls.is_section(a2, positions(s))


@pytest.mark.parametrize("window", [(-1, 1), (0, 2), (-2, 1)])
def test_enumerate_slices_matches_brute_force(d4, e6_alt, window):
    m_lo, m_hi = window
    for q in (d4, e6_alt):
        found, truncated = sls.enumerate_slices(q, m_lo, m_hi)
        assert not truncated
        got = sorted(tuple(positions(s)[i] for i in range(q.n)) for s in found)
        # every position vector in the window, in ascending order, that is a section
        want = [p for p in itertools.product(range(m_lo, m_hi + 1), repeat=q.n)
                if sls.is_section(q, dict(enumerate(p)))]
        assert got == want


def test_theoremA_on_quasi_tilted(a3):
    t = dv.DerivedObject(a3, [((0, 0, 1), 0, 1), ((1, 0, 0), 0, 1), ((1, 1, 1), 0, 1)])
    rep = sls.theoremA_verify(t)
    assert rep.sgd == 2 and rep.ell == 0


def test_theoremA_on_sgldim3(a4):
    t = dv.DerivedObject(a4, [((0, 0, 0, 1), 0, 1), ((1, 0, 0, 0), 0, 1),
                              ((1, 1, 1, 1), 0, 1), ((0, 1, 0, 0), 1, 1)])
    rep = sls.theoremA_verify(t)
    assert rep.sgd == 3 and rep.ell == 1


def test_theoremA_rejects_hereditary(a2):
    with pytest.raises(ValueError):
        sls.theoremA_verify(dv.projective_generator(a2))


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
            for r, sh in s.objects:
                tr, trs = dv.tau_pair(q, r, sh, -1)
                translate.add((tr, trs + hw.ell + 1))
            assert m.indecs()[0] in translate
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
            rep = sls.theoremA_verify(t)
            assert (rep.sgd, rep.ell, rep.truncated) == (d, d - 2, False)
            # T^(0), ..., T^(d-2) = T: d - 2 mutation steps, step i at s.gl.dim 2 + i
            seq = mu.theoremB_sequence(t)
            assert len(seq) - 1 == d - 2 and seq[-1][0] == t.basic()
            assert [sgd.sgldim(x).value for x, _ in seq] == list(range(2, d + 1))
            checked += 1
    assert checked == 119
