"""The closed Euler-form Hom rule against the module oracles, on every root pair."""

import itertools

import pytest

from dercat import derived as dv, quiver as qv, reps

QUIVERS = {
    "A5-alt": "vertices 5\narrow 1 2\narrow 3 2\narrow 3 4\narrow 5 4\n",
    "D5-alt": "vertices 5\narrow 1 2\narrow 3 2\narrow 3 4\narrow 3 5\n",
    "A6-lin": "vertices 6\narrow 1 2\narrow 2 3\narrow 3 4\narrow 4 5\narrow 5 6\n",
    "E6-alt": "vertices 6\narrow 1 2\narrow 3 2\narrow 3 4\narrow 5 4\narrow 3 6\n",
    "E6-lin": "vertices 6\narrow 1 2\narrow 2 3\narrow 3 4\narrow 4 5\narrow 3 6\n",
    "A2+A1": "vertices 3\narrow 1 2\n",
}


@pytest.mark.parametrize("name", sorted(QUIVERS))
def test_pair_hom_dim_matches_module_oracle(name):
    q = qv.parse_quiver(QUIVERS[name])
    for r1, r2 in itertools.product(qv.positive_roots(q), repeat=2):
        hom = reps.hom_dim_roots(q, r1, r2)
        ext = reps.ext_dim_roots(q, r1, r2)
        assert dv.pair_hom_dim(q, r1, 3, r2, 3) == hom, (r1, r2)
        assert dv.pair_hom_dim(q, r1, 3, r2, 4) == ext, (r1, r2)
        assert hom * ext == 0, (r1, r2)
        for gap in (-1, 2):
            assert dv.pair_hom_dim(q, r1, 3, r2, 3 + gap) == 0


def test_decompose_direct_sum_of_three():
    q = qv.parse_quiver(QUIVERS["E6-alt"])
    # (0,1,0,0,0,0) is a simple projective with Hom into the other root, so the
    # back-substitution has to subtract the other summands' Hom counts
    picks = [(0, 1, 0, 0, 0, 0), (1, 1, 1, 1, 0, 1), (1, 1, 1, 1, 0, 1)]
    x = reps.direct_sum([reps.indec_of_root(q, r) for r in picks])
    assert reps.decompose(x) == {(0, 1, 0, 0, 0, 0): 1, (1, 1, 1, 1, 0, 1): 2}

