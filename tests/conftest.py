import itertools
import pathlib
from functools import lru_cache

import pytest

from dercat import derived as dv, linalg, mutation as mu, quiver as qv, reps, sgd


def vector_to_map(m, n, offs, vec):
    """The RepMap M -> N whose vertex matrices sit in vec from offs, each
    stored row by row as reps.intertwiner_system lays them out."""
    return reps.RepMap(m, n, [[[vec[offs[v] + r * m.dims[v] + c] for c in range(m.dims[v])]
                               for r in range(n.dims[v])] for v in range(m.quiver.n)])


def compose(g, f):
    """The RepMap g after f (f first), vertex by vertex."""
    if f.target.dims != g.source.dims:
        raise ValueError("cannot compose %r after %r" % (g, f))
    return reps.RepMap(f.source, g.target, [
        linalg.mat_mul_dims(g.mats[v], f.mats[v], g.target.dims[v], g.source.dims[v],
                            f.source.dims[v]) for v in range(f.source.quiver.n)])


def maps_to_vector(sp, maps):
    """The inverse of vector_to_map for degreewise maps, a {degree: RepMap},
    laid out as the unknowns of the complexes.HomKSpace sp."""
    vec = [linalg.ZERO] * sp._total
    for d, f in maps.items():
        for v, mat in enumerate(f.mats):
            for r, row in enumerate(mat):
                for c, x in enumerate(row):
                    vec[sp._offs[d][v] + r * f.source.dims[v] + c] = x
    return vec


def homk_basis(sp):
    """Chain maps whose classes form a basis of the complexes.HomKSpace sp,
    each a {degree: RepMap} over the degrees where source and target both
    have terms."""
    return [{d: vector_to_map(m, n, sp._offs[d], vec) for d, (m, n) in sp._pairs.items()}
            for vec in sp._rep_vecs]


INPUTS = pathlib.Path(__file__).parents[1] / "bench" / "inputs"


@lru_cache(maxsize=None)
def coxeter_matrix(q):
    """Integer matrix C with dim(tau M) = C . dim(M) for non-projective
    indecomposables: C = -E^-1 E^T = -P E^T, P the path-count matrix.  The
    reference for tau on modules; the program steps with C^-1 only."""
    p, e = qv.path_counts(q), qv.euler_matrix(q)
    return tuple(tuple(-sum(p[i][k] * e[j][k] for k in range(q.n)) for j in range(q.n))
                 for i in range(q.n))


def apply(m, r):
    return tuple(sum(a * b for a, b in zip(row, r)) for row in m)


def inj_dims(q, i):
    """Dimension vector of the indecomposable injective at vertex i: column i of P."""
    return tuple(row[i] for row in qv.path_counts(q))


def tau_reference(q, root, shift):
    """tau of M(root)[shift] as a (root, shift) pair, by C on modules and
    tau P_i = I_i[-1] on projectives."""
    projs = qv.proj_roots(q)
    if root in projs:
        return inj_dims(q, projs.index(root)), shift - 1
    return apply(coxeter_matrix(q), root), shift


def pair_of(q, root, shift=0):
    """The (root index, shift) pair of M(root)[shift], read off the input
    boundary: assertions written in roots compare with pairs through it."""
    return dv.stalk(q, root, shift).pairs[0]


def root_of(q, x):
    """The (root, shift) pair of the (root index, shift) pair x."""
    return qv.roots_of(q).roots[x[0]], x[1]


def stalk_at(q, x):
    """The indecomposable object on the (root index, shift) pair x."""
    return dv.DerivedObject.of_pairs(q, (x,))


def ell_profile(t, x):
    """Length profile of the indecomposable X against the tilting object T:
    sgd.profile on X's one (root index, shift) pair."""
    (a, k), = x.pairs
    return sgd.profile(qv.roots_of(t.quiver), t.pairs, a, k)


def _orientations(n, edges):
    for flips in itertools.product((False, True), repeat=len(edges)):
        yield qv.Quiver(n, [(j, i) if f else (i, j) for (i, j), f in zip(edges, flips)])


def reference_quivers():
    """Every bench/inputs quiver, A2+A1, and every orientation of A5 and D5."""
    out = [qv.parse_quiver(p.read_text()) for p in sorted(INPUTS.glob("*.q"))]
    out.append(qv.Quiver(3, ((0, 1),)))
    out.extend(_orientations(5, ((0, 1), (1, 2), (2, 3), (3, 4))))
    out.extend(_orientations(5, ((0, 4), (1, 4), (4, 2), (2, 3))))
    return out


@pytest.fixture(scope="session")
def a1():
    return qv.Quiver(1, ())


@pytest.fixture(scope="session")
def a2():
    return qv.Quiver(2, ((0, 1),))


@pytest.fixture(scope="session")
def a3():
    return qv.Quiver(3, ((0, 1), (1, 2)))


@pytest.fixture(scope="session")
def a4():
    return qv.Quiver(4, ((0, 1), (1, 2), (2, 3)))


@pytest.fixture(scope="session")
def a4_alt():
    return qv.Quiver(4, ((0, 1), (2, 1), (2, 3)))


@pytest.fixture(scope="session")
def d4():
    return qv.Quiver(4, ((0, 3), (1, 3), (2, 3)))


@pytest.fixture(scope="session")
def d5():
    return qv.Quiver(5, ((0, 4), (1, 4), (4, 2), (2, 3)))


@pytest.fixture(scope="session")
def d5_alt():
    return qv.Quiver(5, ((0, 1), (2, 1), (2, 3), (2, 4)))


@pytest.fixture(scope="session")
def e6_alt():
    return qv.parse_quiver("vertices 6\narrow 1 2\narrow 3 2\narrow 3 4\narrow 5 4\narrow 3 6\n")


@lru_cache(maxsize=None)
def _mutation_graph(q):
    # breadth first: the loop reaches the objects appended while it runs
    order = [dv.projective_generator(q)]
    seen = set(order)
    graph = {}
    for t in order:
        graph[t] = []
        for split in mu.admissible_splits(t):
            u = mu.mutate(t, split)
            u = u.shift(-u.min_shift)
            graph[t].append(u)
            if u not in seen:
                seen.add(u)
                order.append(u)
    return graph


@lru_cache(maxsize=None)
def _mutation_closure(q):
    return frozenset(_mutation_graph(q))


@pytest.fixture(scope="session")
def census():
    """census(q): the tilting objects reached from the projective generator by
    mutation at every admissible split, each shifted to min shift 0."""
    return _mutation_closure


@pytest.fixture(scope="session")
def census_graph():
    """census_graph(q): {T: the right mutations of T, one per admissible
    split in split order, each shifted to min shift 0} over census(q)."""
    return _mutation_graph
