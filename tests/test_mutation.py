import ast
import pathlib
from collections import Counter
from functools import lru_cache

import pytest
from conftest import INPUTS, ell_profile, homk_basis, pair_of, root_of
from test_derived import full_scan_rigidity_failure

from dercat import complexes as cx, derived as dv, linalg, mutation as mu, quiver as qv, sgd
from dercat.quiver import InternalInconsistencyError


def free_t(q):
    return dv.projective_generator(q)


def test_admissible_splits_a2(a2):
    t = free_t(a2)
    splits = mu.admissible_splits(t)
    assert len(splits) == 1
    assert splits[0].t1.indecs() == (((0, 1), 0),)
    assert splits[0].t2.indecs() == (((1, 1), 0),)


def test_canonical_split_is_top_shift(a2):
    t = dv.DerivedObject(a2, [((0, 1), 0, 1), ((1, 0), -1, 1)])
    split = mu.make_split(t, [p for p in t.pairs if p[1] == t.max_shift])
    assert split.t2.indecs() == (((0, 1), 0),)
    assert split.t1.indecs() == (((1, 0), -1),)


def test_single_summand_has_no_split(a1):
    assert mu.admissible_splits(free_t(a1)) == []


def test_make_split_rejects_inadmissible(a2):
    t = free_t(a2)
    with pytest.raises(ValueError):
        mu.make_split(t, [pair_of(a2, (0, 1), 0)])  # Hom(P2 -> P1) != 0


def test_exchange_rejects_a_split_that_is_not_a_partition(a3):
    t = free_t(a3)
    x = dv.stalk(a3, (1, 1, 1), 0)
    # t1 = T overlaps t2 = x; the parts cover T but share x.  The two parts
    # must also cover T: x alone leaves P2 and P3 out
    for split in (mu.Split(t, x), mu.Split(x, dv.stalk(a3, (0, 0, 1), 0))):
        for exchange in (mu.mutate, mu.co_mutate):
            with pytest.raises(ValueError, match="split does not partition the summands of T"):
                exchange(t, split)


def test_minimal_right_approx_socle(a2):
    t = free_t(a2)
    tri = mu.mutate_with_data(t, mu.make_split(t, [pair_of(a2, (1, 1), 0)]))[1][0]
    assert tri.approx_copies == (pair_of(a2, (0, 1), 0),)


def test_minimal_right_approx_zero(a2):
    # over connected A2, End(T) is connected, so between the two summands of
    # a tilting T the approximation never vanishes; with t1 = 0 it does
    t = free_t(a2)
    tri = mu.mutate_with_data(t, mu.make_split(t, t.pairs))[1][0]
    assert tri.x == pair_of(a2, (0, 1), 0)
    assert tri.approx_copies == () and tri.replacement == pair_of(a2, (0, 1), -1)


def test_minimal_right_approx_ext_class(a2):
    t = dv.DerivedObject(a2, [((0, 1), 0, 1), ((1, 0), -1, 1)])
    tri = mu.mutate_with_data(t, mu.make_split(t, [pair_of(a2, (0, 1), 0)]))[1][0]
    assert tri.approx_copies == (pair_of(a2, (1, 0), -1),)


def test_mutate_projectives_a2(a2):
    t = free_t(a2)
    split = mu.make_split(t, [pair_of(a2, (1, 1), 0)])
    out = mu.mutate(t, split)
    assert out.indecs() == (((1, 0), -1), ((0, 1), 0))


def test_mutate_second_step_a2(a2):
    t = dv.DerivedObject(a2, [((0, 1), 0, 1), ((1, 0), -1, 1)])
    out = mu.mutate(t, mu.make_split(t, [pair_of(a2, (0, 1), 0)]))
    assert out.indecs() == (((1, 0), -1), ((1, 1), -1))


def test_mutate_disconnected_zero_approx():
    q = qv.Quiver(2, ())
    t = free_t(q)
    out = mu.mutate(t, mu.make_split(t, [pair_of(q, (0, 1), 0)]))
    assert out.indecs() == (((0, 1), -1), ((1, 0), 0))


def test_mutate_output_always_tilting(a3, a4, d4):
    for q in (a3, a4, d4):
        for seed in range(8):
            t, _ = mu.random_tilting_walk(q, seed, 4)
            for split in mu.admissible_splits(t)[:4]:
                assert dv.is_tilting(mu.mutate(t, split))


def test_comutate_round_trip_examples(a2):
    t = free_t(a2)
    split = mu.make_split(t, [pair_of(a2, (1, 1), 0)])
    t1 = mu.mutate(t, split)
    back = mu.co_mutate(t1, mu.Split(dv.stalk(a2, (0, 1), 0), dv.stalk(a2, (1, 0), -1)))
    assert back == t


def test_comutate_round_trip_batch(a3, d4, e6_alt):
    for q in (a3, d4, e6_alt):
        for seed in range(10):
            t, _ = mu.random_tilting_walk(q, seed, 3 + seed % 4)
            splits = mu.admissible_splits(t)
            for split in splits[:3]:
                t_new = mu.mutate(t, split)
                mutated = set(t_new.pairs) - set(split.t1.pairs)
                back = mu.co_mutate(t_new, mu.partition(t_new, mutated))
                assert back == t.basic()


def test_comutate_on_dual_admissible_splits_is_tilting(a3, d4, e6_alt):
    # swapping the parts of an admissible split gives Hom(t1, t2) = 0, the dual
    # exchange condition, under which co_mutate must give a tilting object (so
    # a non-tilting output there is an invariant breach, never the split)
    for q in (a3, d4, e6_alt):
        for seed in range(4):
            t, _ = mu.random_tilting_walk(q, seed, 3)
            for split in mu.admissible_splits(t):
                assert dv.is_tilting(mu.co_mutate(t, mu.Split(split.t2, split.t1)))


def length_table_cell(t, tp, split, x):
    """The length table at one indecomposable X, the reference for
    mutation.verify_length_table: X moved to ell_minus = 0 against T', its
    cell read off Hom of whole objects, its profile against T predicted."""
    prof_new = ell_profile(tp, x)
    xn = x.shift(-prof_new.ell_minus)
    ell = prof_new.ell
    cell = (dv.hom_dim(xn, split.t1.shift(ell)) != 0, dv.hom_dim(split.t2, xn.shift(1)) != 0)
    predicted = {(True, True): (-1, ell, ell + 1), (True, False): (0, ell, ell),
                 (False, True): (-1, ell - 1, ell), (False, False): (0, ell - 1, ell - 1)}[cell]
    prof_old = ell_profile(t, xn)
    assert (prof_old.ell_minus, prof_old.ell_plus, prof_old.ell) == predicted, (t, split, x)
    return mu.TableCheck(cell, predicted, predicted)


def test_length_table_cells_and_full_window(a3, a4, d4, census):
    # one check per root stands for every shift of the root: against the
    # reference at each cell of the window verify table counts, on every
    # admissible split of every census object
    cells = Counter()
    for q in (a3, a4, d4):
        roots = qv.positive_roots(q)
        for t in sorted(census(q), key=dv.format_object):
            for split in mu.admissible_splits(t):
                tp = mu.mutate(t, split)
                checks = mu.verify_length_table(t, tp, split)
                assert len(checks) == len(roots)
                for k in range(tp.min_shift - 1, tp.max_shift + 2):
                    for root, chk in zip(roots, checks):
                        assert length_table_cell(t, tp, split, dv.stalk(q, root, k)) == chk
                for chk in checks:
                    cells[chk.cell] += 1
                    # the table's prediction is checked inside; spot-check two cells
                    if chk.cell == (True, False):
                        assert chk.predicted[2] == chk.predicted[1]
                    if chk.cell == (False, False):
                        assert chk.predicted == (0, chk.predicted[1], chk.predicted[1])
    # every cell of the table occurs
    assert len(cells) == 4, cells


def test_length_table_names_the_root_it_fails_at(a3, monkeypatch):
    t = free_t(a3)
    split = mu.admissible_splits(t)[0]
    tp = mu.mutate(t, split)
    # every profile reads (k, k): the first root, at shift 0, breaks the table
    monkeypatch.setattr(sgd, "profile", lambda c, pairs, a, k: sgd.LengthProfile(k, k))
    with pytest.raises(InternalInconsistencyError,
                       match=r"mismatch for \(\(\(0, 1, 0\), 0\),\): predicted"):
        mu.verify_length_table(t, tp, split)


def test_sgd_delta_bounded(a3, a4):
    for q in (a3, a4):
        for seed in range(10):
            t, _ = mu.random_tilting_walk(q, seed, 4)
            for split in mu.admissible_splits(t)[:3]:
                assert mu.sgd_delta(t, mu.mutate(t, split)) in (-1, 0, 1)


def test_theoremB_trivial_for_quasi_tilted(a3):
    t = dv.DerivedObject(a3, [((0, 0, 1), 0, 1), ((1, 0, 0), 0, 1), ((1, 1, 1), 0, 1)])
    assert sgd.sgldim(t).value == 2
    seq = mu.theoremB_sequence(t)
    assert len(seq) == 1 and seq[0][0] == t.basic() and seq[0][1] is None


def test_theoremB_rejects_hereditary(a2):
    with pytest.raises(ValueError):
        mu.theoremB_sequence(dv.projective_generator(a2))


def test_theoremB_chain_on_sgldim3(a4):
    t = dv.DerivedObject(a4, [((0, 0, 0, 1), 0, 1), ((1, 0, 0, 0), 0, 1),
                              ((1, 1, 1, 1), 0, 1), ((0, 1, 0, 0), 1, 1)])
    seq = mu.theoremB_sequence(t)
    assert len(seq) == 2
    for i, (obj, split) in enumerate(seq):
        assert dv.is_tilting(obj)
        assert sgd.sgldim(obj).value == 2 + i
        assert (split is None) == (i == 0)
    # the recorded split really mutates T^(1) down to T^(0)
    obj1, split1 = seq[1]
    assert mu.mutate(obj1, split1) == seq[0][0]
    assert mu.sgd_delta(obj1, seq[0][0]) == 1


def test_random_walk_deterministic(a3):
    t1, log1 = mu.random_tilting_walk(a3, 42, 7)
    t2, log2 = mu.random_tilting_walk(a3, 42, 7)
    assert t1 == t2 and log1 == log2


def test_random_walk_zero_steps(a3):
    t, log = mu.random_tilting_walk(a3, 9, 0)
    assert t == dv.projective_generator(a3) and log == []


def test_random_walk_respects_spread_cap(a4, monkeypatch):
    monkeypatch.setattr(mu, "SPREAD_CAP", 3)
    for seed in range(6):
        t, _ = mu.random_tilting_walk(a4, seed, 10)
        assert t.spread <= 3
        assert dv.is_tilting(t)


def brute_force_splits(t):
    """admissible_splits by its definition: a hom_dim sum per mask, ascending."""
    tb = t.basic()
    indecs = tb.indecs()
    n = len(indecs)
    out = []
    for mask in range(1, (1 << n) - 1):
        t2 = dv.DerivedObject(tb.quiver, [(r, s, 1) for i, (r, s) in enumerate(indecs)
                                          if mask >> i & 1])
        t1 = dv.DerivedObject(tb.quiver, [(r, s, 1) for i, (r, s) in enumerate(indecs)
                                          if not mask >> i & 1])
        if dv.hom_dim(t2, t1) == 0:
            out.append(mu.Split(t1, t2))
    return out


walk_quivers = pytest.mark.parametrize("text", [
    "vertices 4\narrow 1 2\narrow 2 3\narrow 3 4\n",
    "vertices 5\narrow 1 2\narrow 3 2\narrow 3 4\narrow 3 5\n",
    "vertices 6\narrow 1 2\narrow 3 2\narrow 3 4\narrow 5 4\narrow 3 6\n",
], ids=["A4", "D5-alt", "E6-alt"])


@walk_quivers
def test_admissible_splits_match_brute_force(text):
    q = qv.parse_quiver(text)
    for seed in range(3):
        t, _ = mu.random_tilting_walk(q, seed, 3)
        assert mu.admissible_splits(t) == brute_force_splits(t), seed


def solve(a, b):
    """One solution of a x = b, or None if inconsistent."""
    cols = len(a[0])
    r, pivots = linalg.rref([row + [linalg.frac(v)] for row, v in zip(a, b)])
    if cols in pivots:
        return None
    x = [linalg.ZERO] * cols
    for i, pc in enumerate(pivots):
        x[pc] = r[i][cols]
    return x


def homk_coords(sp, f):
    """Coordinates of the chain map f, a {degree: RepMap}, in homk_basis(sp),
    modulo the null-homotopic maps."""
    vec = cx._vec_of_maps(sp._offs, sp._total, f)
    cols = sp._rep_vecs + sp._bbasis
    if not cols:
        assert not any(vec), "nonzero map in a zero Hom space"
        return ()
    sol = solve(linalg.transpose(cols), vec)
    assert sol is not None, "chain map outside the computed Hom space"
    return tuple(sol[: sp.dim])


@lru_cache(maxsize=None)
def homk_space_cached(q, src, tgt):
    """HomKSpace between cached stalk complexes; src and tgt are (root index,
    shift) pairs."""
    return cx.HomKSpace(cx.stalk_complex_cached(q, *root_of(q, src)),
                        cx.stalk_complex_cached(q, *root_of(q, tgt)))


def approx_multiplicities(q, t1, x, left):
    """Chain-map reference for the minimal approximation of x by add(t1): for
    each t1 summand s, dim Hom_K(s, x) (Hom_K(x, s) when `left`) less the
    dimension of the span of the maps that factor through the other t1
    summands.  Summands are (root index, shift) pairs."""
    out = Counter()
    for s in t1:
        src, tgt = (x, s) if left else (s, x)
        sp = homk_space_cached(q, src, tgt)
        if sp.dim == 0:
            continue
        through = []
        for mid in t1:
            if mid == s:
                continue
            for f in homk_basis(homk_space_cached(q, src, mid)):
                for g in homk_basis(homk_space_cached(q, mid, tgt)):
                    gf = {d: g[d].compose(f[d]) for d in g if d in f}
                    through.append(homk_coords(sp, gf))
        rank = len(linalg.independent(through))
        if sp.dim > rank:
            out[s] = sp.dim - rank
    return out


@walk_quivers
def test_approx_copies_match_chain_map_reference(text):
    # the K0 coordinates of each replacement against the chain-map quotient,
    # on right mutations, co-mutations of the swapped splits (Hom(t1, t2) = 0)
    # and co-mutations at the inverse splits
    q = qv.parse_quiver(text)
    checked = Counter()
    for seed in range(3):
        t, _ = mu.random_tilting_walk(q, seed, 3)
        for split in mu.admissible_splits(t):
            t_new, right = mu.mutate_with_data(t, split)
            swapped = mu.co_mutate_with_data(t, mu.Split(split.t2, split.t1))[1]
            new = set(t_new.pairs) - set(split.t1.pairs)
            back, inverse = mu.co_mutate_with_data(t_new, mu.partition(t_new, new))
            assert back == t.basic()
            for kind, t1, triangles in (("right", split.t1, right), ("swapped", split.t2, swapped),
                                        ("inverse", split.t1, inverse)):
                for tri in triangles:
                    want = approx_multiplicities(q, t1.pairs, tri.x, kind != "right")
                    assert Counter(tri.approx_copies) == want, (kind, seed, tri)
                    checked[kind] += 1
    assert all(checked[k] for k in ("right", "swapped", "inverse"))


def reference_exchange(t, split, left):
    """The exchange as first written: a {summand: coordinate} dict per root
    for each split, both shifts tried for every root, and rigidity against t1
    by the full shift scan on a fresh t1 + Y object.  Returns (object,
    triangles), the triangles on (root index, shift) pairs; asserts one
    survivor per summand and a tilting result."""
    q = t.quiver
    tb = t.basic()
    t1, t2 = split.t1.indecs(), split.t2.indecs()
    inv = dv.k0_inverse(tb)
    coords = {r: dict(zip(tb.indecs(), (sum(a * b for a, b in zip(row, r)) for row in inv)))
              for r in qv.positive_roots(q)}
    triangles = []
    new = list(t1)
    for x in t2:
        rx, sx = x
        found = []
        for r, base in coords.items():
            for s in ((sx, sx + 1) if left else (sx - 1, sx)):
                sign = -1 if s % 2 else 1
                if (sign * base[x] != -1 or any(base[o] for o in t2 if o != x)
                        or any(sign * base[o] < 0 for o in t1)):
                    continue
                linked = (dv.pair_hom_dim(q, r, s - 1, rx, sx) if left
                          else dv.pair_hom_dim(q, rx, sx, r, s + 1))
                if linked and full_scan_rigidity_failure(dv.DerivedObject(
                        q, [(a, b, 1) for a, b in t1 + ((r, s),)])) is None:
                    found.append(((r, s), {o: sign * v for o, v in base.items()}))
        assert len(found) == 1, (t, split, x, found)
        ((repl, c),) = found
        triangles.append(mu.ApproxTriangle(pair_of(q, *x), tuple(
            pair_of(q, *o) for o in t1 for _ in range(c[o])), pair_of(q, *repl)))
        new.append(repl)
    out = dv.DerivedObject(q, [(r, s, 1) for r, s in new])
    assert dv.is_tilting(out)
    return out, triangles


E7_ALT = pathlib.Path(__file__).parents[1] / "bench" / "inputs" / "E7-alt.q"


def test_exchange_matches_the_reference(a3, a4, a4_alt, d4, e6_alt, census):
    # right mutations at every admissible split, co-mutations at the swapped
    # split (Hom(t1, t2) = 0) and at the split that inverts the mutation
    objects = [(q, t) for q in (a3, a4, a4_alt, d4) for t in census(q)]
    e7_alt = qv.parse_quiver(E7_ALT.read_text())
    objects += [(q, mu.random_tilting_walk(q, seed, 8)[0]) for q in (e6_alt, e7_alt)
                for seed in range(4)]
    checked = Counter()
    for q, t in objects:
        indecs = t.indecs()
        assert t.basic() is t
        for split in mu.admissible_splits(t):
            # each part is T's own records, equal to the object built afresh
            for part in split:
                fresh = dv.DerivedObject(q, [(r, s, 1) for r, s in part.indecs()])
                assert part == fresh and hash(part) == hash(fresh)
                assert set(part.indecs()) <= set(indecs)
            got = mu.mutate_with_data(t, split)
            assert got == reference_exchange(t, split, False)
            swapped = mu.Split(split.t2, split.t1)
            assert mu.co_mutate_with_data(t, swapped) == reference_exchange(t, swapped, True)
            new = set(got[0].pairs) - set(split.t1.pairs)
            inverse = mu.partition(got[0], new)
            back = mu.co_mutate_with_data(got[0], inverse)
            assert back == reference_exchange(got[0], inverse, True) and back[0] == t
            checked[q.n] += 1
    assert checked == {3: 28, 4: 736, 6: 35, 7: 48}
    t = dv.projective_generator(a3)
    fat = dv.DerivedObject(a3, [((0, 0, 1), 0, 2), ((1, 1, 1), 0, 1), ((0, 0, 1), 0, 1),
                                ((0, 1, 1), 0, 1)])
    # equal summands still merge, and basic drops the multiplicity
    assert tuple((r, s, m) for (r, s), m in zip(fat.indecs(), fat.mults)) == (
        ((0, 0, 1), 0, 3), ((0, 1, 1), 0, 1), ((1, 1, 1), 0, 1))
    assert fat.basic() == t and hash(fat.basic()) == hash(t) and fat.basic() is not fat
    # the same summands with other multiplicities are another object
    assert fat != t and fat.shift(1) != t.shift(1) and fat.shift(1).basic() == t.shift(1)
    assert mu.partition(fat, [pair_of(a3, (0, 0, 1), 0)]).t2 == dv.stalk(a3, (0, 0, 1))
    with pytest.raises(ValueError, match="nonempty subset of the summands"):
        mu.partition(t, [pair_of(a3, (0, 0, 1), 1)])


@pytest.mark.parametrize("name, objects, edges, hist", [
    ("A5-alt", 273, 1848, {1: 48, 2: 165, 3: 54, 4: 6}),
    ("D5-alt", 416, 2648, {1: 64, 2: 296, 3: 56}),
], ids=["A5-alt", "D5-alt"])
def test_theorem_b_as_the_distance_along_right_mutations(name, objects, edges, hist,
                                                          census_graph):
    # the whole mutation census of a bench quiver, one edge per admissible split
    q = qv.parse_quiver((INPUTS / (name + ".q")).read_text())
    graph = census_graph(q)
    dim = {t: sgd.sgldim(t).value for t in graph}
    assert len(graph) == objects and sum(map(len, graph.values())) == edges
    assert Counter(dim.values()) == hist
    assert all(abs(dim[t] - dim[u]) <= 1 for t, us in graph.items() for u in us)
    # Theorem B: following right mutations (mutate, the direction
    # theoremB_sequence takes) from T, the set with s.gl.dim <= 2 is
    # max(s.gl.dim - 2, 0) steps away.  Breadth first from that set, backwards
    # along the edges.  (The other direction, right mutations from that set up
    # to T, needs more steps on some E6 and E7 objects.)
    into = {t: [] for t in graph}
    for t, us in graph.items():
        for u in us:
            into[u].append(t)
    dist = {t: 0 for t in graph if dim[t] <= 2}
    frontier = list(dist)
    while frontier:
        reached = []
        for u in frontier:
            for t in into[u]:
                if t not in dist:
                    dist[t] = dist[u] + 1
                    reached.append(t)
        frontier = reached
    assert dist == {t: max(dim[t] - 2, 0) for t in graph}


def test_two_exchange_survivors_are_a_breach(a2, monkeypatch):
    found = mu._survivors
    monkeypatch.setattr(mu, "_survivors", lambda *args: found(*args) * 2)
    t = free_t(a2)
    split = mu.make_split(t, [pair_of(a2, (1, 1), 0)])
    with pytest.raises(InternalInconsistencyError):
        mu.mutate(t, split)
    with pytest.raises(InternalInconsistencyError):
        mu.co_mutate(t, mu.Split(split.t2, split.t1))


def test_product_modules_do_not_import_oracles():
    # the module engine (reps), the chain-complex engine (complexes) and the
    # rational arithmetic they run on (linalg, fractions) serve the oracles
    # alone; the oracles import the product modules, never the reverse
    src = pathlib.Path(mu.__file__).parent
    for name in ("quiver", "derived", "zq", "sgd", "slices", "mutation"):
        imported = set()
        for node in ast.walk(ast.parse((src / (name + ".py")).read_text())):
            if isinstance(node, ast.ImportFrom):
                imported.update((node.module or "").split("."))
                imported.update(a.name for a in node.names)
            elif isinstance(node, ast.Import):
                imported.update(part for a in node.names for part in a.name.split("."))
        assert not imported & {"reps", "complexes", "linalg", "fractions"}, name


# the readers of the root -> index map quiver.roots_of(q).index: the input
# boundary, the chain oracle's entry and the build of the tau-orbit table
INDEX_READERS = {"derived.DerivedObject.__init__", "derived.pair_hom_dim", "zq.orbits"}


def test_root_vectors_become_indices_only_at_the_boundary():
    # every read of an attribute named index under src/dercat, by enclosing
    # def; a call of a method named index, as tuple.index, is not a read
    src = pathlib.Path(mu.__file__).parent
    readers = set()

    def visit(node, scope, calls):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                visit(child, scope + [child.name], calls)
                continue
            if (isinstance(child, ast.Attribute) and child.attr == "index"
                    and isinstance(child.ctx, ast.Load) and id(child) not in calls):
                readers.add(".".join(scope))
            visit(child, scope, calls)

    for path in src.glob("*.py"):
        tree = ast.parse(path.read_text())
        visit(tree, [path.stem], {id(n.func) for n in ast.walk(tree) if isinstance(n, ast.Call)})
    assert readers == INDEX_READERS


# every definition is named in src: the chain-map oracle sgldim_ringel too,
# which `verify ringel` runs
UNREFERENCED_ALLOWED = set()


def test_every_definition_is_referenced_in_src():
    # a def or class that no code under src/dercat names is test-only or dead;
    # names inside strings and docstrings do not count, dunders are implicit
    src = pathlib.Path(mu.__file__).parent
    defined = set()
    used = set()
    for path in src.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined.add(node.name)
            elif isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    unreferenced = {n for n in defined - used if not (n.startswith("__") and n.endswith("__"))}
    assert unreferenced == UNREFERENCED_ALLOWED
