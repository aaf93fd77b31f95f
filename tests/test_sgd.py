import os
import pathlib
import subprocess
import sys

import pytest
from conftest import ell_profile

from dercat import complexes as cx, derived as dv, mutation as mu, quiver as qv, sgd


def test_profile_examples(a2):
    t = dv.projective_generator(a2)
    p = ell_profile(t, dv.stalk(a2, (1, 0)))
    assert (p.ell_minus, p.ell_plus, p.ell) == (0, 1, 1)
    p2 = ell_profile(t, dv.stalk(a2, (1, 1)))
    assert (p2.ell_minus, p2.ell_plus, p2.ell) == (0, 0, 0)


def test_profile_shift_invariance(a2):
    t = dv.projective_generator(a2)
    for k in (-3, -1, 2, 4):
        assert ell_profile(t, dv.stalk(a2, (1, 0), k)).ell == 1


def test_profile_requires_tilting(a2):
    # the length table takes profiles against T and T', and refuses either
    # when it is not tilting
    bad = dv.DerivedObject(a2, [((0, 1), 0, 1), ((1, 0), 0, 1)])
    t = dv.projective_generator(a2)
    (split,) = mu.admissible_splits(t)
    for pair in ((bad, t), (t, bad)):
        with pytest.raises(ValueError, match="against tilting objects"):
            mu.verify_length_table(*pair, split)


def test_sgldim_hereditary(a2):
    r = sgd.sgldim(dv.projective_generator(a2))
    assert r.value == 1
    assert r.witness == dv.stalk(a2, (1, 0))


def test_sgldim_semisimple(a1):
    assert sgd.sgldim(dv.projective_generator(a1)).value == 0


def test_sgldim_tilted_still_hereditary(a2):
    t = dv.DerivedObject(a2, [((0, 1), 0, 1), ((1, 0), -1, 1)])
    assert sgd.sgldim(t).value == 1
    assert cx.sgldim_ringel(t).value == 1


def test_sgldim_shift_invariance(a3):
    t = dv.projective_generator(a3)
    for k in (-2, 1, 3):
        assert sgd.sgldim(t.shift(k)).value == sgd.sgldim(t).value


def test_sgldim_witness_validity(a3, a4):
    for q in (a3, a4):
        for seed in range(6):
            t, _ = mu.random_tilting_walk(q, seed, 5)
            rep = sgd.sgldim(t)
            prof = ell_profile(t, rep.witness)
            assert prof.ell == rep.value
            assert prof.ell_minus == 0


def test_sgldim_window_robustness(a3):
    # the scan window follows T's shifts, so suspending T moves the witness along
    for seed in range(8):
        t, _ = mu.random_tilting_walk(a3, seed, 5)
        rep = sgd.sgldim(t)
        for k in (-3, 2):
            moved = sgd.sgldim(t.shift(k))
            assert moved.value == rep.value
            assert moved.witness == rep.witness.shift(k)


def test_dual_algorithms_agree_on_walks(a3, d4):
    for q in (a3, d4):
        for seed in range(12):
            t, _ = mu.random_tilting_walk(q, seed, 4 + seed % 5)
            assert sgd.sgldim(t).value == cx.sgldim_ringel(t).value


def test_sgldim_rejects_non_tilting(a2):
    with pytest.raises(ValueError):
        sgd.sgldim(dv.stalk(a2, (1, 0)))


def test_module_tilting_values_quasi_tilted_bound(a3):
    # every module tilting over A3 is hereditary or quasi-tilted
    import itertools
    roots = qv.positive_roots(a3)
    values = set()
    for triple in itertools.combinations(roots, 3):
        t = dv.DerivedObject(a3, [(r, 0, 1) for r in triple])
        if dv.is_tilting(t):
            values.add(sgd.sgldim(t).value)
    assert values == {1, 2}


def test_sgldim_three_witness_a4(a4):
    t = dv.DerivedObject(a4, [((0, 0, 0, 1), 0, 1), ((1, 0, 0, 0), 0, 1),
                              ((1, 1, 1, 1), 0, 1), ((0, 1, 0, 0), 1, 1)])
    assert dv.is_tilting(t)
    assert sgd.sgldim(t).value == 3
    assert cx.sgldim_ringel(t).value == 3


def test_sgldim_is_the_same_on_the_basic_object(a4):
    t = dv.DerivedObject(a4, [((0, 0, 0, 1), 0, 1), ((1, 0, 0, 0), 0, 1),
                              ((1, 1, 1, 1), 0, 1), ((0, 1, 0, 0), 1, 1)])
    rep = sgd.sgldim(t)
    doubled = dv.DerivedObject(a4, [((0, 0, 0, 1), 0, 2), ((1, 0, 0, 0), 0, 1),
                                    ((1, 1, 1, 1), 0, 1), ((0, 1, 0, 0), 1, 1)])
    reordered = dv.DerivedObject(a4, [((0, 1, 0, 0), 1, 1), ((1, 1, 1, 1), 0, 1),
                                      ((1, 0, 0, 0), 0, 1), ((0, 0, 0, 1), 0, 1)])
    assert sgd.sgldim(t) == rep
    assert sgd.sgldim(doubled) == rep
    assert sgd.sgldim(reordered) == rep


def test_closed_form_profiles_equal_the_shift_scan(a4, a4_alt, d4, census):
    # the oracle's scan over shifts, fed the product route's Hom dimensions,
    # against the closed form on every census object and every root
    checked = 0
    for q in (a4, a4_alt, d4):
        roots = qv.positive_roots(q)
        for t in sorted(census(q), key=dv.format_object):
            for root in roots:
                for k in (-1, 0, 3):
                    want = cx._profile(q, t.indecs(), root, k, dv.pair_hom_dim)
                    assert ell_profile(t, dv.stalk(q, root, k)) == want, (t, root, k)
            assert sgd.sgldim(t) == cx.sgldim_scan(t, dv.pair_hom_dim), t
            checked += 1
    assert checked == 55 + 55 + 69


def test_sgldim_reads_only_the_rows_and_columns_of_the_summands():
    # E8 has 120 positive roots: sgd on its projective generator reads the
    # Euler rows and columns of the 8 summands, and builds no 120 x 120 table
    code = ("from dercat import derived as dv, quiver as qv, sgd\n"
            "q = qv.parse_quiver(open(%r).read())\n"
            "print(sgd.sgldim(dv.projective_generator(q)).value)\n"
            "c = qv.roots_of(q)\n"
            "print(len(c.roots), len(c.rows), len(c.cols))\n"
            % str(pathlib.Path(__file__).parents[1] / "bench" / "inputs" / "E8-alt.q"))
    env = dict(os.environ, PYTHONPATH=str(pathlib.Path(sgd.__file__).parents[1]))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=env, timeout=120, check=True).stdout.split()
    assert out == ["1", "120", "8", "8"]
