"""The closed Euler-form Hom rule against the chain-map oracle, on every root pair."""

import itertools

import pytest
from conftest import _orientations

from dercat import complexes as cx, derived as dv, quiver as qv

QUIVERS = {
    "A5-alt": "vertices 5\narrow 1 2\narrow 3 2\narrow 3 4\narrow 5 4\n",
    "D5-alt": "vertices 5\narrow 1 2\narrow 3 2\narrow 3 4\narrow 3 5\n",
    "A6-lin": "vertices 6\narrow 1 2\narrow 2 3\narrow 3 4\narrow 4 5\narrow 5 6\n",
    "E6-alt": "vertices 6\narrow 1 2\narrow 3 2\narrow 3 4\narrow 5 4\narrow 3 6\n",
    "E6-lin": "vertices 6\narrow 1 2\narrow 2 3\narrow 3 4\narrow 4 5\narrow 3 6\n",
    "A2+A1": "vertices 3\narrow 1 2\n",
}


# Hom and Ext^1 between the modules of two roots, as chain maps between their
# projective resolutions at gaps 0 and 1
@pytest.mark.parametrize("name", sorted(QUIVERS))
def test_pair_hom_dim_matches_module_oracle(name):
    q = qv.parse_quiver(QUIVERS[name])
    for r1, r2 in itertools.product(qv.positive_roots(q), repeat=2):
        hom = cx.homk_pair_dim(q, r1, r2, 0)
        ext = cx.homk_pair_dim(q, r1, r2, 1)
        assert dv.pair_hom_dim(q, r1, 3, r2, 3) == hom, (r1, r2)
        assert dv.pair_hom_dim(q, r1, 3, r2, 4) == ext, (r1, r2)
        assert hom * ext == 0, (r1, r2)
        for gap in (-1, 2):
            assert dv.pair_hom_dim(q, r1, 3, r2, 3 + gap) == 0


# every orientation of A4 and D4 (8 each), all root pairs, gaps -1 to 2
@pytest.mark.parametrize("n, edges", [(4, ((0, 1), (1, 2), (2, 3))),
                                      (4, ((0, 3), (1, 3), (2, 3)))], ids=["A4", "D4"])
def test_chain_oracle_on_every_orientation(n, edges):
    for q in _orientations(n, edges):
        roots = qv.positive_roots(q)
        for r1, r2, gap in itertools.product(roots, roots, range(-1, 3)):
            want = dv.pair_hom_dim(q, r1, 3, r2, 3 + gap)
            assert cx.homk_pair_dim(q, r1, r2, gap) == want, (q.arrows, r1, r2, gap)
