import itertools
from fractions import Fraction

from conftest import (INPUTS, compose, homk_basis, maps_to_vector, reference_quivers,
                      vector_to_map)

from dercat import cli, complexes as cx, derived as dv, linalg, quiver as qv, reps


def res(q, root, shift=0):
    return cx.stalk_complex(q, root, shift)


def _clear_chain_oracle_memos():
    """Empty the memos the chain oracle fills, so a count sees every build."""
    for table in (reps.proj_rep, cx.resolution, cx.homk_pair_dim):
        table.cache_clear()


def shift(c, k):
    """The complex c[k]: terms move down k degrees, differentials take the sign (-1)^k."""
    sign = Fraction(-1) ** (k % 2)

    def scaled(f):
        return reps.RepMap(f.source, f.target, [[[sign * x for x in row] for row in m]
                                                for m in f.mats])

    return cx.ProjComplex(c.quiver, {d - k: t for d, t in c.terms.items()},
                          {d - k: r for d, r in c.term_reps.items()},
                          {d - k: scaled(f) for d, f in c.diffs.items()})


def diff(c, d):
    """The differential of c out of degree d, a zero map where a term is empty."""
    return c.diffs[d] if d in c.diffs else reps.zero_map(c.term_rep(d), c.term_rep(d + 1))


def is_chain_map(x, y, maps):
    """Whether the degreewise maps {degree: RepMap} from x to y commute with
    the differentials; a missing degree is the zero map."""
    def comp(d):
        return maps[d] if d in maps else reps.zero_map(x.term_rep(d), y.term_rep(d))
    for d in x.terms:
        lhs = compose(comp(d + 1), diff(x, d))
        rhs = compose(diff(y, d), comp(d))
        if lhs.mats != rhs.mats:
            return False
    return True


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
    s = shift(c, 1)
    assert s.degrees() == [-2, -1]
    assert shift(s, -1).degrees() == c.degrees()
    # stalk at suspension k == stalk at 0 shifted by k
    assert res(a2, (1, 0), 2).degrees() == shift(c, 2).degrees()


def test_shift_adjunction(a2):
    x = res(a2, (1, 0))
    y = res(a2, (0, 1))
    assert cx.HomKSpace(x, shift(y, 1)).dim == cx.HomKSpace(shift(x, -1), y).dim


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


def homology_dims(c, k):
    """dim H^k(c)_v for each vertex v, read as dim Hom_K(P_v, c[k])."""
    q = c.quiver
    return [cx.HomKSpace(res(q, qv.proj_dims(q, v)), shift(c, k)).dim for v in range(q.n)]


def test_homology_of_resolution_is_the_module(d5_alt):
    for r in qv.positive_roots(d5_alt):
        c = res(d5_alt, r)
        assert homology_dims(c, 0) == list(r)
        assert homology_dims(c, -1) == homology_dims(c, 1) == [0] * d5_alt.n


def test_stalk_complexes_are_minimal():
    # P1 and P0 share no indecomposable summand, so no block of the
    # differential runs between equal projectives P_i (where a nonzero entry
    # at vertex i would be an isomorphism): nothing is contractible, and
    # hi - lo is Ringel's length, 0 exactly on the projective roots, else 1
    for q in reference_quivers():
        projs = set(qv.path_counts(q))
        for r in qv.positive_roots(q):
            c = res(q, r)
            assert not set(c.term(-1)) & set(c.term(0)), (q, r)
            assert c.hi - c.lo == (0 if r in projs else 1), (q, r)


def test_happel_agreement_window(a2, a3):
    # the chain route against Happel's closed rule, past the two gaps with maps
    for q in (a2, a3):
        roots = qv.positive_roots(q)
        for gap in range(-2, 4):
            for r1, r2 in itertools.product(roots, repeat=2):
                want = dv.pair_hom_dim(q, r1, 0, r2, gap)
                assert cx.homk_pair_dim(q, r1, r2, gap) == want


def test_hom_k_basis_maps_are_chain_maps(d5_alt):
    # gaps 0 and 1 are the only ones with maps
    roots = qv.positive_roots(d5_alt)
    for r1, r2 in itertools.product(roots, repeat=2):
        for gap in (0, 1):
            x, y = res(d5_alt, r1), res(d5_alt, r2, gap)
            for f in homk_basis(cx.HomKSpace(x, y)):
                assert is_chain_map(x, y, f)


def composed_boundaries(x, y, sp):
    """The boundaries of a homotopy basis, composed map by map: each basis
    vector as maps h^d: X^d -> Y^{d-1}, then h^{d+1} dX^d + dY^{d-1} h^d in
    each degree of sp, summed entrywise in sp's layout."""
    hpairs = {d: (x.term_rep(d), y.term_rep(d - 1)) for d in x.terms if y.term(d - 1)}
    hoffs, htotal, hrows = reps.intertwiner_system(hpairs)
    out = []
    for hv in linalg.nullspace(hrows, htotal):
        h = {d: vector_to_map(m, n, hoffs[d], hv) for d, (m, n) in hpairs.items()}
        parts = ([{d: compose(h[d + 1], diff(x, d))} for d in sp._pairs if d + 1 in h]
                 + [{d: compose(diff(y, d - 1), h[d])} for d in sp._pairs if d in h])
        vecs = [maps_to_vector(sp, part) for part in parts]
        out.append([sum(xs, linalg.ZERO) for xs in zip([linalg.ZERO] * sp._total, *vecs)])
    return out


def test_homotopy_boundaries_are_the_composed_maps():
    # HomKSpace reads each boundary off one row per chain coordinate; the
    # composed maps are the reference, at the gaps where Hom can be nonzero.
    # Equal in order, so the elimination picks the same basis of their span
    for name in ("D4-alt", "A5-alt"):
        q = qv.parse_quiver((INPUTS / ("%s.q" % name)).read_text())
        roots = qv.positive_roots(q)
        for r1, r2, gap in itertools.product(roots, roots, (-1, 0, 1)):
            x, y = res(q, r1), res(q, r2, gap)
            sp = cx.HomKSpace(x, y)
            ref = composed_boundaries(x, y, sp)
            assert sp._bbasis == [ref[i] for i in linalg.independent(ref)], (name, r1, r2, gap)


def test_a_stalk_complex_holds_its_resolutions_terms_and_differential(monkeypatch, capsys):
    # every direct sum is built by a resolution's cover: a stalk complex
    # builds none of its own, and its differential runs between its own terms
    _clear_chain_oracle_memos()
    calls = {"all": 0, "covers": 0}
    direct_sum, proj_resolution, stalk_complex = (reps.direct_sum, reps.proj_resolution,
                                                  cx.stalk_complex)

    def counted_sum(parts):
        calls["all"] += 1
        return direct_sum(parts)

    def counted_resolution(m):
        before = calls["all"]
        out = proj_resolution(m)
        calls["covers"] += calls["all"] - before
        return out

    built = {}

    def recorded_stalk(q, root, shift):
        c = stalk_complex(q, root, shift)
        built[id(c)] = c
        return c

    monkeypatch.setattr(reps, "direct_sum", counted_sum)
    monkeypatch.setattr(reps, "proj_resolution", counted_resolution)
    monkeypatch.setattr(cx, "stalk_complex", recorded_stalk)
    assert cli.main(["verify", "homagree", "--quiver", str(INPUTS / "D4-alt.q")]) == 0
    assert "failed=0" in capsys.readouterr().err
    assert built and calls["covers"]
    assert calls["all"] == calls["covers"], calls
    assert any(c.diffs for c in built.values())
    for c in built.values():
        for d, f in c.diffs.items():
            assert f.source is c.term_rep(d) and f.target is c.term_rep(d + 1), (c, d)


def test_a_stalk_keeps_the_unsigned_differential_at_every_suspension():
    # stalk_complex(q, r, k) keeps the resolution's d at every k, where
    # shift(., k) takes the sign (-1)^k; the two are isomorphic, so every Hom
    # dimension out of a stalk at 0 agrees
    for name in ("D4-alt", "A5-alt"):
        q = qv.parse_quiver((INPUTS / ("%s.q" % name)).read_text())
        roots = qv.positive_roots(q)
        for r1, r2, k in itertools.product(roots, roots, range(-1, 3)):
            x, y = res(q, r1), res(q, r2, k)
            signed = shift(res(q, r2), k)
            assert signed.terms == y.terms, (name, r2, k)
            assert cx.HomKSpace(x, signed).dim == cx.HomKSpace(x, y).dim, (name, r1, r2, k)


def test_a_hom_space_with_no_common_degree_is_zero_with_no_elimination(monkeypatch):
    # a chain map lives in the degrees X and Y share: with none, Hom is 0 and
    # the constructor solves nothing
    calls = [0]
    rref = linalg.rref

    def counted_rref(a):
        calls[0] += 1
        return rref(a)

    monkeypatch.setattr(linalg, "rref", counted_rref)
    checked = 0
    for name in ("D4-alt", "A5-alt"):
        q = qv.parse_quiver((INPUTS / ("%s.q" % name)).read_text())
        roots = qv.positive_roots(q)
        for r1, r2, gap in itertools.product(roots, roots, range(-3, 4)):
            x, y = res(q, r1), res(q, r2, gap)
            if set(x.terms) & set(y.terms):
                continue
            before = calls[0]
            sp = cx.HomKSpace(x, y)
            assert calls[0] == before, (name, r1, r2, gap)
            assert sp.dim == 0 == dv.pair_hom_dim(q, r1, 0, r2, gap), (name, r1, r2, gap)
            checked += 1
    assert checked


def test_homagree_builds_at_most_one_zero_representation_per_root(monkeypatch, capsys):
    # an empty degree is skipped, not filled with a fresh zero representation;
    # only the empty syzygy cover of a projective root builds one
    _clear_chain_oracle_memos()
    q = qv.parse_quiver((INPUTS / "D4-alt.q").read_text())
    calls = [0]
    zero_rep = reps.zero_rep

    def counted_zero_rep(q):
        calls[0] += 1
        return zero_rep(q)

    monkeypatch.setattr(reps, "zero_rep", counted_zero_rep)
    assert cli.main(["verify", "homagree", "--quiver", str(INPUTS / "D4-alt.q")]) == 0
    assert "failed=0" in capsys.readouterr().err
    assert calls[0] <= len(qv.positive_roots(q)) + 1, calls


def test_homagree_resolves_each_root_once(monkeypatch, capsys):
    # every shift of a stalk places the one memoized resolution of its root
    _clear_chain_oracle_memos()
    q = qv.parse_quiver((INPUTS / "D5-alt.q").read_text())
    calls = [0]
    proj_resolution = reps.proj_resolution

    def counted_resolution(m):
        calls[0] += 1
        return proj_resolution(m)

    monkeypatch.setattr(reps, "proj_resolution", counted_resolution)
    assert cli.main(["verify", "homagree", "--quiver", str(INPUTS / "D5-alt.q")]) == 0
    assert "failed=0" in capsys.readouterr().err
    assert calls[0] == len(qv.positive_roots(q)) == 20
