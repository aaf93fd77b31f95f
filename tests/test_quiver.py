import itertools
import pathlib
import pickle
import random

import pytest
from hypothesis import given, settings, strategies as st

from conftest import apply, coxeter_matrix, inj_dims, pair_of, reference_quivers
from dercat import quiver as qv, zq

BENCH_QUIVERS = sorted((pathlib.Path(__file__).parents[1] / "bench" / "inputs").glob("*.q"))


def format_quiver(q):
    """The quiver file text of q, one arrow per line in arrow order."""
    lines = ["vertices %d" % q.n]
    lines += ["arrow %d %d" % (s + 1, t + 1) for s, t in q.arrows]
    return "\n".join(lines) + "\n"


def test_parse_basic():
    q = qv.parse_quiver("vertices 2\narrow 1 2\n")
    assert q.n == 2 and q.arrows == ((0, 1),)


def test_parse_a1_no_arrows():
    q = qv.parse_quiver("vertices 1")
    assert q.n == 1 and q.arrows == ()


def test_parse_comments_and_blank_lines():
    q = qv.parse_quiver("# a quiver\nvertices 2\n\narrow 1 2  # the only arrow\n")
    assert q.arrows == ((0, 1),)


def test_parse_cycle_rejected():
    with pytest.raises(qv.QuiverError, match="cycle"):
        qv.parse_quiver("vertices 2\narrow 1 2\narrow 2 1\n")


def test_parse_loop_rejected():
    with pytest.raises(qv.QuiverError, match="loop"):
        qv.parse_quiver("vertices 2\narrow 1 1\n")


def test_parse_out_of_range_rejected():
    with pytest.raises(qv.QuiverFormatError, match="out of range"):
        qv.parse_quiver("vertices 2\narrow 1 3\n")


def test_parse_malformed_rejected():
    with pytest.raises(qv.QuiverFormatError, match="malformed"):
        qv.parse_quiver("vertices 2\narrows 1 2\n")
    with pytest.raises(qv.QuiverFormatError):
        qv.parse_quiver("arrow 1 2\n")


def test_print_parse_round_trip(a3, d4):
    for q in (a3, d4):
        text = format_quiver(q)
        assert qv.parse_quiver(text) == q
        assert format_quiver(qv.parse_quiver(text)) == text


def classify(q):
    (kind,) = qv.classify_components(q)   # every quiver classified here is connected
    return kind


def test_classify_linear_a3(a3):
    assert str(classify(a3)) == "A3"


def test_classify_d4(d4):
    assert str(classify(d4)) == "D4"


def test_classify_e6():
    # center 2 with legs 1-0-2, 4-3-2, 5-2: lengths (2, 2, 1)
    q = qv.Quiver(6, ((0, 2), (1, 0), (3, 2), (4, 3), (5, 2)))
    assert str(classify(q)) == "E6"


def test_classify_degree_four_not_dynkin():
    q = qv.Quiver(5, ((0, 4), (1, 4), (2, 4), (3, 4)))
    assert not classify(q).is_dynkin


def test_classify_multi_edge_not_dynkin():
    q = qv.Quiver(2, ((0, 1), (0, 1)))
    assert not classify(q).is_dynkin


def test_classify_disconnected():
    q = qv.Quiver(3, ((0, 1),))
    kinds = qv.classify_components(q)
    assert sorted(str(k) for k in kinds) == ["A1", "A2"]
    assert qv.is_dynkin(q)


def test_classify_reorientation_invariant(d5):
    rng = random.Random(11)
    base = str(classify(d5))
    for _ in range(20):
        arrows = tuple((t, s) if rng.random() < 0.5 else (s, t) for s, t in d5.arrows)
        try:
            q2 = qv.Quiver(d5.n, arrows)
        except qv.QuiverError:
            continue
        assert str(classify(q2)) == base


def test_euler_hand_values(a2):
    assert qv.euler_form(a2, (1, 0), (0, 1)) == -1
    assert qv.euler_form(a2, (0, 1), (1, 0)) == 0
    assert qv.euler_form(a2, (0, 0), (0, 0)) == 0


def test_euler_length_mismatch(a2):
    with pytest.raises(qv.QuiverError):
        qv.euler_form(a2, (1, 0, 0), (0, 1))


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(-4, 4), min_size=9, max_size=9))
def test_euler_bilinear(vals):
    q = qv.Quiver(3, ((0, 1), (1, 2)))
    d1, d2, e = tuple(vals[0:3]), tuple(vals[3:6]), tuple(vals[6:9])
    lhs = qv.euler_form(q, tuple(a + b for a, b in zip(d1, d2)), e)
    assert lhs == qv.euler_form(q, d1, e) + qv.euler_form(q, d2, e)
    rhs = qv.euler_form(q, e, tuple(a + b for a, b in zip(d1, d2)))
    assert rhs == qv.euler_form(q, e, d1) + qv.euler_form(q, e, d2)


def test_positive_roots_a2(a2):
    assert set(qv.positive_roots(a2)) == {(1, 0), (0, 1), (1, 1)}


def test_positive_roots_a1(a1):
    assert qv.positive_roots(a1) == ((1,),)


def test_positive_roots_counts(a3, d4, d5):
    assert len(qv.positive_roots(a3)) == 6
    assert len(qv.positive_roots(d4)) == 12
    assert len(qv.positive_roots(d5)) == 20


def _tits_box_roots(q, bound=4):
    """Independent oracle: positive roots are the nonzero d >= 0 with q(d) = 1."""
    out = set()
    for d in itertools.product(range(bound + 1), repeat=q.n):
        if any(d) and qv.euler_form(q, d, d) == 1:
            out.add(d)
    return out


def test_positive_roots_against_tits_oracle(a2, a3, a4, d4, d5):
    for q in (a2, a3, a4, d4, d5):
        assert set(qv.positive_roots(q)) == _tits_box_roots(q)


def _reflection_closure(q):
    """Reference: the simple roots closed under the simple reflections, kept
    while positive (positive_roots grows them by height instead)."""

    def reflect(r, i):
        out = list(r)
        out[i] = sum(r[j] for j in q.neighbors(i)) - r[i]
        return tuple(out)

    roots = {qv.simple_root(q, i) for i in range(q.n)}
    frontier = set(roots)
    while frontier:
        new = set()
        for r in frontier:
            for i in range(q.n):
                s = reflect(r, i)
                if all(x >= 0 for x in s) and any(x > 0 for x in s) and s not in roots:
                    new.add(s)
        roots |= new
        frontier = new
    return tuple(sorted(roots))


def _ade_edges(family, n):
    """A_n is the path 0 - ... - n-1; D_n and E_n are the path on n - 1
    vertices with vertex n-1 joined to vertex n-3 (D) or to vertex 2 (E)."""
    path = [(i, i + 1) for i in range(n - 2 if family != "A" else n - 1)]
    return path + ([] if family == "A" else [(n - 3 if family == "D" else 2, n - 1)])


def _two_orientations(edges):
    """Every edge i - j as i -> j, and the bipartite orientation (each vertex
    a source or a sink), coloured by distance from vertex 0."""
    colour = {0: 0}
    while len(colour) <= len(edges):
        for i, j in edges:
            if (i in colour) != (j in colour):
                known, new = (i, j) if i in colour else (j, i)
                colour[new] = 1 - colour[known]
    return edges, [(i, j) if colour[i] == 0 else (j, i) for i, j in edges]


ADE = ([("A", n, n * (n + 1) // 2) for n in range(1, 9)]
       + [("D", n, n * (n - 1)) for n in range(4, 9)] + [("E", 6, 36), ("E", 7, 63), ("E", 8, 120)])


@pytest.mark.parametrize("family, n, count", ADE, ids=["%s%d" % t[:2] for t in ADE])
def test_positive_roots_by_height_match_the_reflection_closure(family, n, count):
    for arrows in _two_orientations(_ade_edges(family, n)):
        q = qv.Quiver(n, arrows)
        assert str(classify(q)) == "%s%d" % (family, n)
        roots = qv.positive_roots(q)
        assert roots == _reflection_closure(q) and len(roots) == count


def test_positive_roots_requires_dynkin():
    q = qv.Quiver(5, ((0, 4), (1, 4), (2, 4), (3, 4)))
    with pytest.raises(qv.NotDynkinError):
        qv.positive_roots(q)


def test_sink_first_order_property(a4, d5):
    for q in (a4, d5):
        pos = {v: i for i, v in enumerate(qv.sink_first_order(q))}
        assert all(pos[t] < pos[s] for s, t in q.arrows)


def sinks_first_reference(n, arrows):
    """The sink-first order as first written: at each step the least ready
    sink, found by a scan, then a scan of every arrow into it."""
    outdeg = [0] * n
    for s, _ in arrows:
        outdeg[s] += 1
    ready = [v for v in range(n) if not outdeg[v]]
    order = []
    while ready:
        v = min(ready)
        ready.remove(v)
        order.append(v)
        for s, t in arrows:
            if t == v:
                outdeg[s] -= 1
                if not outdeg[s]:
                    ready.append(s)
    return tuple(order)


def test_sink_first_order_is_the_least_ready_sink_each_step():
    # `ind list --reps` and the slice enumeration follow this order, so the
    # heap must pick exactly what the scan picked, on Dynkin quivers and on
    # random acyclic ones with multi-edges
    rng = random.Random(5)
    quivers = reference_quivers()
    for _ in range(200):
        n = rng.randint(1, 12)
        rank = rng.sample(range(n), n)
        pairs = [(u, v) for u in range(n) for v in range(n) if rank[u] > rank[v]]
        quivers.append(qv.Quiver(n, [rng.choice(pairs) for _ in range(rng.randint(0, 2 * n))]
                                 if pairs else ()))
    for q in quivers:
        assert qv.sink_first_order(q) == sinks_first_reference(q.n, q.arrows), q


def test_coxeter_swaps_projectives_for_injectives(a3, d4):
    for q in (a3, d4):
        phi = coxeter_matrix(q)
        for i in range(q.n):
            p = qv.proj_dims(q, i)
            img = tuple(sum(phi[a][b] * p[b] for b in range(q.n)) for a in range(q.n))
            assert img == tuple(-x for x in inj_dims(q, i))
            # in D^b the class -I_i is I_i[-1] = tau P_i, the one wrap
            assert zq.tau_pair(q, pair_of(q, p, 0)) == pair_of(q, inj_dims(q, i), -1)


@pytest.mark.parametrize("path", BENCH_QUIVERS, ids=lambda p: p.stem)
def test_root_memos_agree_with_direct_formulas(path):
    q = qv.parse_quiver(path.read_text())
    roots = qv.positive_roots(q)
    c = qv.roots_of(q)
    assert c.roots == roots and c.index == {r: a for a, r in enumerate(roots)}
    assert qv.proj_roots(q) == tuple(qv.proj_dims(q, i) for i in range(q.n))
    projs, injs = qv.proj_roots(q), [inj_dims(q, i) for i in range(q.n)]
    # an equal quiver parsed again reads the same memo entries
    same = qv.parse_quiver(path.read_text())
    assert same is not q and hash(same) == hash(q) and qv.proj_roots(same) is projs
    assert qv.roots_of(same) is c and zq.orbits(same) is zq.orbits(q)
    # tau on modules is C, with tau P_i = I_i[-1]; tau^-1 is C^-1, with tau^-1 I_i = P_i[1]
    phi, phi_inv = coxeter_matrix(q), qv.coxeter_inverse(q)
    for r in roots:
        want = (injs[projs.index(r)], -1) if r in projs else (apply(phi, r), 0)
        assert zq.tau_pair(q, pair_of(q, r, 0)) == pair_of(q, *want)
        want = (projs[injs.index(r)], 1) if r in injs else (apply(phi_inv, r), 0)
        assert zq.tau_pair(q, pair_of(q, r, 0), -1) == pair_of(q, *want)
        assert zq.tau_pair(same, pair_of(q, r, 0)) == zq.tau_pair(q, pair_of(q, r, 0))
    e = qv.euler_matrix(q)
    e_times = {r: apply(e, r) for r in roots}
    for d, f in itertools.product(roots, repeat=2):
        want = sum(a * b for a, b in zip(d, e_times[f]))
        assert qv.euler_form(q, d, f) == want
        assert qv.euler_form(same, d, f) == want
        # the context's rows and columns, by root index
        assert c.rows[c.index[d]][c.index[f]] == want == c.cols[c.index[f]][c.index[d]]


NOT_A_TREE = "vertices 3\narrow 1 2\narrow 2 3\narrow 1 3\n"


@pytest.mark.parametrize("text", [p.read_text() for p in BENCH_QUIVERS] + [NOT_A_TREE],
                         ids=[p.stem for p in BENCH_QUIVERS] + ["not-a-tree"])
def test_integer_inverses(text):
    # E^-1 is the path-count matrix, and C^-1 = -P^T E inverts C = -P E^T
    q = qv.parse_quiver(text)
    n = q.n
    ident = [[int(i == j) for j in range(n)] for i in range(n)]

    def mul(a, b):
        return [[sum(a[i][k] * b[k][j] for k in range(n)) for j in range(n)] for i in range(n)]

    p = qv.path_counts(q)
    assert mul(p, qv.euler_matrix(q)) == ident
    assert mul(coxeter_matrix(q), qv.coxeter_inverse(q)) == ident
    assert all(isinstance(x, int) for m in (p, coxeter_matrix(q), qv.coxeter_inverse(q))
               for row in m for x in row)
    if text == NOT_A_TREE:
        # two paths 1 -> 3: P_1 has dimension 2 at vertex 3
        assert p[0][2] == 2 and qv.proj_dims(q, 0) == (1, 1, 2) and inj_dims(q, 2) == (2, 1, 1)


def test_quiver_is_immutable(a3):
    with pytest.raises(AttributeError):
        a3.n = 4
    with pytest.raises(AttributeError):
        del a3.arrows
    assert a3 == qv.Quiver(3, [(0, 1), (1, 2)]) and a3 != qv.Quiver(3, ((1, 0), (1, 2)))
    back = pickle.loads(pickle.dumps(a3))
    assert back == a3 and hash(back) == hash(a3)
