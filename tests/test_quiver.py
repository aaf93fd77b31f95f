import itertools
import pathlib
import pickle
import random

import pytest
from hypothesis import given, settings, strategies as st

from dercat import quiver as qv

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


def test_classify_linear_a3(a3):
    assert str(qv.classify(a3)) == "A3"


def test_classify_d4(d4):
    assert str(qv.classify(d4)) == "D4"


def test_classify_e6():
    # center 2 with legs 1-0-2, 4-3-2, 5-2: lengths (2, 2, 1)
    q = qv.Quiver(6, ((0, 2), (1, 0), (3, 2), (4, 3), (5, 2)))
    assert str(qv.classify(q)) == "E6"


def test_classify_degree_four_not_dynkin():
    q = qv.Quiver(5, ((0, 4), (1, 4), (2, 4), (3, 4)))
    assert not qv.classify(q).is_dynkin


def test_classify_multi_edge_not_dynkin():
    q = qv.Quiver(2, ((0, 1), (0, 1)))
    assert not qv.classify(q).is_dynkin


def test_classify_disconnected():
    q = qv.Quiver(3, ((0, 1),))
    kinds = qv.classify_components(q)
    assert sorted(str(k) for k in kinds) == ["A1", "A2"]
    assert qv.is_dynkin(q)


def test_classify_reorientation_invariant(d5):
    rng = random.Random(11)
    base = str(qv.classify(d5))
    for _ in range(20):
        arrows = tuple((t, s) if rng.random() < 0.5 else (s, t) for s, t in d5.arrows)
        try:
            q2 = qv.Quiver(d5.n, arrows)
        except qv.QuiverError:
            continue
        assert str(qv.classify(q2)) == base


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


def test_positive_roots_requires_dynkin():
    q = qv.Quiver(5, ((0, 4), (1, 4), (2, 4), (3, 4)))
    with pytest.raises(qv.NotDynkinError):
        qv.positive_roots(q)


def test_sink_first_order_property(a4, d5):
    for q in (a4, d5):
        pos = {v: i for i, v in enumerate(qv.sink_first_order(q))}
        assert all(pos[t] < pos[s] for s, t in q.arrows)


def test_coxeter_swaps_projectives_for_injectives(a3, d4):
    for q in (a3, d4):
        phi = qv.coxeter_matrix(q)
        for i in range(q.n):
            p = qv.proj_dims(q, i)
            img = tuple(sum(phi[a][b] * p[b] for b in range(q.n)) for a in range(q.n))
            assert img == tuple(-x for x in qv.inj_dims(q, i))


def _apply(m, r):
    return tuple(sum(a * b for a, b in zip(row, r)) for row in m)


@pytest.mark.parametrize("path", BENCH_QUIVERS, ids=lambda p: p.stem)
def test_root_memos_agree_with_direct_formulas(path):
    q = qv.parse_quiver(path.read_text())
    roots = qv.positive_roots(q)
    c = qv.roots_of(q)
    assert c.roots == roots and c.index == {r: a for a, r in enumerate(roots)}
    assert qv.proj_roots(q) == tuple(qv.proj_dims(q, i) for i in range(q.n))
    assert qv.inj_roots(q) == tuple(qv.inj_dims(q, i) for i in range(q.n))
    # an equal quiver parsed again reads the same memo entries
    same = qv.parse_quiver(path.read_text())
    assert same is not q and hash(same) == hash(q) and qv.proj_roots(same) is qv.proj_roots(q)
    assert qv.roots_of(same) is c
    phi, phi_inv = qv.coxeter_matrix(q), qv.coxeter_inverse(q)
    for r in roots:
        assert qv.tau_root(q, r) == (None if r in qv.proj_roots(q) else _apply(phi, r))
        assert qv.tau_inv_root(q, r) == (None if r in qv.inj_roots(q) else _apply(phi_inv, r))
        assert qv.tau_root(same, r) == qv.tau_root(q, r)
    e = qv.euler_matrix(q)
    e_times = {r: _apply(e, r) for r in roots}
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
    assert mul(qv.coxeter_matrix(q), qv.coxeter_inverse(q)) == ident
    assert all(isinstance(x, int) for m in (p, qv.coxeter_matrix(q), qv.coxeter_inverse(q))
               for row in m for x in row)
    if text == NOT_A_TREE:
        # two paths 1 -> 3: P_1 has dimension 2 at vertex 3
        assert p[0][2] == 2 and qv.proj_dims(q, 0) == (1, 1, 2) and qv.inj_dims(q, 2) == (2, 1, 1)


def test_quiver_is_immutable(a3):
    with pytest.raises(AttributeError):
        a3.n = 4
    with pytest.raises(AttributeError):
        del a3.arrows
    assert a3 == qv.Quiver(3, [(0, 1), (1, 2)]) and a3 != qv.Quiver(3, ((1, 0), (1, 2)))
    back = pickle.loads(pickle.dumps(a3))
    assert back == a3 and hash(back) == hash(a3)
