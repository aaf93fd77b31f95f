import ast
import pathlib
from collections import Counter

import pytest

from dercat import complexes as cx, derived as dv, mutation as mu, quiver as qv, sgd
from dercat.linalg import Subspace
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
    split = mu.make_split(t, [p for p in t.indecs() if p[1] == t.max_shift])
    assert split.t2.indecs() == (((0, 1), 0),)
    assert split.t1.indecs() == (((1, 0), -1),)


def test_single_summand_has_no_split(a1):
    assert mu.admissible_splits(free_t(a1)) == []


def test_make_split_rejects_inadmissible(a2):
    t = free_t(a2)
    with pytest.raises(ValueError):
        mu.make_split(t, [((0, 1), 0)])  # Hom(P2 -> P1) != 0


def test_minimal_right_approx_socle(a2):
    t = free_t(a2)
    tri = mu.mutate_with_data(t, mu.make_split(t, [((1, 1), 0)]))[1][0]
    assert tri.approx_copies == (((0, 1), 0),)


def test_minimal_right_approx_zero(a2):
    # over connected A2, End(T) is connected, so between the two summands of
    # a tilting T the approximation never vanishes; with t1 = 0 it does
    t = free_t(a2)
    tri = mu.mutate_with_data(t, mu.make_split(t, t.indecs()))[1][0]
    assert tri.x == ((0, 1), 0)
    assert tri.approx_copies == () and tri.replacement == ((0, 1), -1)


def test_minimal_right_approx_ext_class(a2):
    t = dv.DerivedObject(a2, [((0, 1), 0, 1), ((1, 0), -1, 1)])
    tri = mu.mutate_with_data(t, mu.make_split(t, [((0, 1), 0)]))[1][0]
    assert tri.approx_copies == (((1, 0), -1),)


def test_mutate_projectives_a2(a2):
    t = free_t(a2)
    split = mu.make_split(t, [((1, 1), 0)])
    out = mu.mutate(t, split)
    assert out.indecs() == (((1, 0), -1), ((0, 1), 0))


def test_mutate_second_step_a2(a2):
    t = dv.DerivedObject(a2, [((0, 1), 0, 1), ((1, 0), -1, 1)])
    out = mu.mutate(t, mu.make_split(t, [((0, 1), 0)]))
    assert out.indecs() == (((1, 0), -1), ((1, 1), -1))


def test_mutate_disconnected_zero_approx():
    q = qv.Quiver(2, ())
    t = free_t(q)
    out = mu.mutate(t, mu.make_split(t, [((0, 1), 0)]))
    assert out.indecs() == (((0, 1), -1), ((1, 0), 0))


def test_mutate_output_always_tilting(a3, a4, d4):
    for q in (a3, a4, d4):
        for seed in range(8):
            t, _ = mu.random_tilting_walk(q, seed, 4)
            for split in mu.admissible_splits(t)[:4]:
                assert dv.is_tilting(mu.mutate(t, split))


def test_comutate_round_trip_examples(a2):
    t = free_t(a2)
    split = mu.make_split(t, [((1, 1), 0)])
    t1 = mu.mutate(t, split)
    back = mu.co_mutate(t1, mu.Split(t1.restrict([((0, 1), 0)]),
                                     t1.restrict([((1, 0), -1)])))
    assert back == t


def test_comutate_round_trip_batch(a3, d4, e6_alt):
    for q in (a3, d4, e6_alt):
        for seed in range(10):
            t, _ = mu.random_tilting_walk(q, seed, 3 + seed % 4)
            splits = mu.admissible_splits(t)
            for split in splits[:3]:
                t_new = mu.mutate(t, split)
                mutated = set(t_new.indecs()) - set(split.t1.indecs())
                back = mu.co_mutate(t_new, mu.Split(split.t1, t_new.restrict(sorted(mutated))))
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


def test_length_table_cells_and_full_window(a3):
    for seed in range(6):
        t, _ = mu.random_tilting_walk(a3, seed, 4)
        splits = mu.admissible_splits(t)
        if not splits:
            continue
        split = splits[seed % len(splits)]
        tp = mu.mutate(t, split)
        seen_cells = set()
        for k in range(tp.min_shift - 1, tp.max_shift + 2):
            for root in qv.positive_roots(a3):
                chk = mu.verify_length_table(t, tp, split, dv.stalk(a3, root, k))
                seen_cells.add(chk.cell)
                # the table's prediction is checked inside; spot-check two cells
                if chk.cell == (True, False):
                    assert chk.predicted[2] == chk.predicted[1]
                if chk.cell == (False, False):
                    assert chk.predicted == (0, chk.predicted[1], chk.predicted[1])
        assert (False, False) in seen_cells or seen_cells


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


def test_random_walk_respects_spread_cap(a4):
    for seed in range(6):
        t, _ = mu.random_tilting_walk(a4, seed, 10, spread_cap=3)
        assert t.spread <= 3
        assert dv.is_tilting(t)


def brute_force_splits(t):
    """admissible_splits by its definition: a hom_dim sum per mask, ascending."""
    tb = t.basic()
    indecs = tb.indecs()
    n = len(indecs)
    out = []
    for mask in range(1, (1 << n) - 1):
        t2 = tb.restrict([indecs[i] for i in range(n) if mask >> i & 1])
        t1 = tb.restrict([indecs[i] for i in range(n) if not mask >> i & 1])
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


def approx_multiplicities(q, t1, x, left):
    """Chain-map reference for the minimal approximation of x by add(t1): for
    each t1 summand s, dim Hom_K(s, x) (Hom_K(x, s) when `left`) less the
    dimension of the span of the maps that factor through the other t1
    summands."""
    out = Counter()
    for s in t1:
        src, tgt = (x, s) if left else (s, x)
        sp = cx.homk_space_cached(q, src, tgt)
        if sp.dim == 0:
            continue
        span = Subspace(sp.dim)
        for mid in t1:
            if mid == s:
                continue
            for f in cx.homk_space_cached(q, src, mid).basis:
                for g in cx.homk_space_cached(q, mid, tgt).basis:
                    span.add(list(sp.coords(g.compose(f))))
        if sp.dim > span.dim:
            out[s] = sp.dim - span.dim
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
            new = sorted(set(t_new.indecs()) - set(split.t1.indecs()))
            back, inverse = mu.co_mutate_with_data(t_new, mu.Split(split.t1, t_new.restrict(new)))
            assert back == t.basic()
            for kind, t1, triangles in (("right", split.t1, right), ("swapped", split.t2, swapped),
                                        ("inverse", split.t1, inverse)):
                for tri in triangles:
                    want = approx_multiplicities(q, t1.indecs(), tri.x, kind != "right")
                    assert Counter(tri.approx_copies) == want, (kind, seed, tri)
                    checked[kind] += 1
    assert all(checked[k] for k in ("right", "swapped", "inverse"))


def test_two_exchange_survivors_are_a_breach(a2, monkeypatch):
    found = mu._survivors
    monkeypatch.setattr(mu, "_survivors", lambda *args: found(*args) * 2)
    t = free_t(a2)
    split = mu.make_split(t, [((1, 1), 0)])
    with pytest.raises(InternalInconsistencyError):
        mu.mutate(t, split)
    with pytest.raises(InternalInconsistencyError):
        mu.co_mutate(t, mu.Split(split.t2, split.t1))


def test_product_modules_do_not_import_oracles():
    # the module engine (reps) and the chain-complex engine (complexes) serve
    # the oracles alone; the oracles import the product modules, never the reverse
    src = pathlib.Path(mu.__file__).parent
    for name in ("quiver", "linalg", "derived", "sgd", "slices", "mutation"):
        imported = set()
        for node in ast.walk(ast.parse((src / (name + ".py")).read_text())):
            if isinstance(node, ast.ImportFrom):
                imported.update((node.module or "").split("."))
                imported.update(a.name for a in node.names)
            elif isinstance(node, ast.Import):
                imported.update(part for a in node.names for part in a.name.split("."))
        assert not imported & {"reps", "complexes"}, name
