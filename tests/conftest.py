import itertools
import pathlib
from functools import lru_cache

import pytest

from dercat import derived as dv, mutation as mu, quiver as qv, reps


def homk_basis(sp):
    """Chain maps whose classes form a basis of the complexes.HomKSpace sp,
    each a {degree: RepMap} over the degrees where source and target both
    have terms."""
    return [{d: reps.vector_to_map(m, n, sp._offs[d], vec) for d, (m, n) in sp._pairs.items()}
            for vec in sp._rep_vecs]


INPUTS = pathlib.Path(__file__).parents[1] / "bench" / "inputs"


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
def _mutation_closure(q):
    # breadth first: the loop reaches the objects appended while it runs
    order = [dv.projective_generator(q)]
    seen = set(order)
    for t in order:
        for split in mu.admissible_splits(t):
            u = mu.mutate(t, split)
            u = u.shift(-u.min_shift)
            if u not in seen:
                seen.add(u)
                order.append(u)
    return frozenset(seen)


@pytest.fixture(scope="session")
def census():
    """census(q): the tilting objects reached from the projective generator by
    mutation at every admissible split, each shifted to min shift 0."""
    return _mutation_closure
