import csv
import os
import pathlib
import subprocess
import sys

import pytest

from dercat import cli, derived as dv, mutation as mu, quiver as qv, slices as sls


@pytest.fixture
def a1_file(tmp_path):
    path = tmp_path / "a1.q"
    path.write_text("vertices 1\n")
    return str(path)


@pytest.mark.parametrize("which", ["delta", "table"])
def test_verify_mutation_checks_reject_single_vertex(a1_file, which, capsys):
    assert cli.main(["verify", which, "--quiver", a1_file]) == 2
    assert "at least two vertices" in capsys.readouterr().err


def test_verify_delta_gives_up_after_walk_cap(tmp_path, monkeypatch, capsys):
    path = tmp_path / "a2.q"
    path.write_text("vertices 2\narrow 1 2\n")
    monkeypatch.setattr(mu, "admissible_splits", lambda t: [])
    assert cli.main(["verify", "delta", "--quiver", str(path), "--samples", "2"]) == 1
    assert "only 0 of 2 instances" in capsys.readouterr().err


def test_comutate_inverts_mutate(tmp_path):
    q = qv.Quiver(3, ((0, 1), (1, 2)))
    quiver, obj = tmp_path / "a3.q", tmp_path / "p.obj"
    quiver.write_text("vertices 3\narrow 1 2\narrow 2 3\n")
    t = dv.projective_generator(q)
    obj.write_text(dv.format_object(t))
    mutated, back = tmp_path / "m.obj", tmp_path / "back.obj"
    # summand 2 is P1 = (1,1,1); Hom(P1, P2 + P3) = 0, so the split is admissible
    assert cli.main(["mutate", "--quiver", str(quiver), "--object", str(obj),
                     "--t2", "2", "--out", str(mutated)]) == 0
    tp = dv.parse_object(q, mutated.read_text())
    (new,) = [i for i, x in enumerate(tp.indecs()) if x not in t.indecs()]
    assert cli.main(["comutate", "--quiver", str(quiver), "--object", str(mutated),
                     "--t2", str(new), "--out", str(back)]) == 0
    assert back.read_text() == obj.read_text()


def test_verify_a_reports_truncation(tmp_path, monkeypatch, capsys):
    path = tmp_path / "a3.q"
    path.write_text("vertices 3\narrow 1 2\narrow 2 3\n")
    argv = ["verify", "a", "--quiver", str(path), "--seed", "3", "--samples", "4"]
    assert cli.main(argv) == 0
    rows = capsys.readouterr().out.splitlines()
    assert any("status=pass" in r for r in rows)
    assert not any("truncated" in r for r in rows)
    monkeypatch.setattr(sls, "SLICE_CAP", 1)
    assert cli.main(argv) == 0
    rows = capsys.readouterr().out.splitlines()
    passed = [r for r in rows if "status=pass" in r]
    assert passed and all(r.endswith("slices=1 truncated") for r in passed)


@pytest.mark.parametrize("text, kind", [("vertices 3\narrow 1 2\narrow 2 3\n", "A3"),
                                        ("vertices 3\narrow 1 2\n", "A1+A2")],
                         ids=["A3", "A1+A2"])
def test_sgd_csv_parses_as_four_fields(tmp_path, capsys, text, kind):
    quiver, obj = tmp_path / "q.q", tmp_path / "p.obj"
    quiver.write_text(text)
    obj.write_text(dv.format_object(dv.projective_generator(qv.parse_quiver(text))))
    assert cli.main(["sgd", "--csv", "--quiver", str(quiver), "--object", str(obj)]) == 0
    rows = list(csv.reader(capsys.readouterr().out.splitlines()))
    assert rows[0] == ["quiver", "object-hash", "value", "witness"]
    assert len(rows) == 2 and len(rows[1]) == 4 and rows[1][0] == kind
    assert rows[1][3].startswith("summand dim=[")


def test_comutate_rejects_a_split_that_inverts_no_mutation(tmp_path, capsys):
    q = qv.Quiver(3, ((0, 1), (1, 2)))
    quiver, obj = tmp_path / "a3.q", tmp_path / "p.obj"
    quiver.write_text("vertices 3\narrow 1 2\narrow 2 3\n")
    obj.write_text(dv.format_object(dv.projective_generator(q)))
    mutated = tmp_path / "m.obj"
    assert cli.main(["mutate", "--quiver", str(quiver), "--object", str(obj),
                     "--t2", "2", "--out", str(mutated)]) == 0
    capsys.readouterr()
    # summand 2 of the result is (0,1,1)[0], an old summand, not the new one
    assert cli.main(["comutate", "--quiver", str(quiver), "--object", str(mutated),
                     "--t2", "2"]) == 2
    err = capsys.readouterr().err
    assert "non-tilting" in err and "((0, 1, 1), 0)" in err
    assert "invariant breach" not in err


def test_verify_reports_counts_on_stderr(tmp_path, capsys):
    path = tmp_path / "a3.q"
    path.write_text("vertices 3\narrow 1 2\narrow 2 3\n")
    assert cli.main(["verify", "a", "--quiver", str(path), "--seed", "0", "--samples", "3"]) == 0
    out, err = capsys.readouterr()
    assert out.count("status=skip") == 3
    assert "checked" not in out
    assert err.splitlines()[-1] == "# checked=0 skipped=3 failed=0"


def test_verify_min_checked(tmp_path, capsys):
    # on A3 at seed 0, `verify a` checks 3 of its 20 instances and skips 17
    path = tmp_path / "a3.q"
    path.write_text("vertices 3\narrow 1 2\narrow 2 3\n")
    argv = ["verify", "a", "--quiver", str(path), "--seed", "0"]
    assert cli.main(argv) == 0
    out, err = capsys.readouterr()
    assert err.splitlines()[-1] == "# checked=3 skipped=17 failed=0"
    assert cli.main(argv + ["--min-checked", "3"]) == 0
    assert capsys.readouterr() == (out, err)
    assert cli.main(argv + ["--min-checked", "4"]) == 1
    got = capsys.readouterr()
    assert got.out == out
    assert got.err == err + "error: 3 instances checked, fewer than --min-checked 4\n"


# argv whose usage or error text comes from the top-level parser or from the
# verb's own subparser
@pytest.mark.parametrize("argv", [[], ["--help"], ["nosuch"], ["sgd", "--help"],
                                  ["sgd", "--quiver", "x.q"],
                                  ["sgd", "--quiver", "x.q", "--object", "y.obj", "extra"]],
                         ids=["none", "help", "typo", "sgd-help", "sgd-no-object", "sgd-extra"])
def test_one_verb_parser_prints_what_the_full_parser_does(argv, capsys):
    full = cli.build_parser([])   # no verb to go by: every subparser
    with pytest.raises(SystemExit) as e:
        full.parse_args(argv)
    want = capsys.readouterr()
    assert cli.main(argv) == (2 if e.value.code else 0)
    assert capsys.readouterr() == want
    # the parser for one verb has that verb's subparser and no other
    with pytest.raises(SystemExit):
        cli.build_parser(["sgd"]).parse_args(["quiver", "validate", "--quiver", "x.q"])
    capsys.readouterr()


def test_mutate_rejects_an_out_of_range_summand_index(tmp_path, capsys):
    q = qv.Quiver(3, ((0, 1), (1, 2)))
    quiver, obj = tmp_path / "a3.q", tmp_path / "p.obj"
    quiver.write_text("vertices 3\narrow 1 2\narrow 2 3\n")
    obj.write_text(dv.format_object(dv.projective_generator(q)))
    for verb in ("mutate", "comutate"):
        # a repeated index is refused too, not merged into one
        for t2 in ("-1", "3", "0,-3", "1,1"):
            argv = [verb, "--quiver", str(quiver), "--object", str(obj), "--t2", t2]
            assert cli.main(argv) == 2, (verb, t2)
            out, err = capsys.readouterr()
            assert out == "" and "bad --t2" in err


def test_tilting_check_prints_the_first_rigidity_witness(tmp_path, capsys):
    # Hom(T, T[i]) != 0 at i = -1, 1, 2 and 3; the witness is the least i,
    # then the least summand indices of T.basic(), whatever the file order
    quiver, obj = tmp_path / "a4.q", tmp_path / "t.obj"
    quiver.write_text("vertices 4\narrow 1 2\narrow 3 2\narrow 3 4\n")
    obj.write_text("summand dim=[0,1,1,0] shift=2\nsummand dim=[0,0,1,0] shift=2\n"
                   "summand dim=[1,1,0,0] shift=0 mult=2\nsummand dim=[0,0,1,0] shift=1\n")
    assert cli.main(["tilting", "check", "--quiver", str(quiver), "--object", str(obj)]) == 1
    assert capsys.readouterr().out == (
        "rigid: no\n"
        "  Hom((0, 0, 1, 0)[1], (0, 0, 1, 0)[1]) != 0 at i=-1\n"
        "summands: 4 of 4\n"
        "unimodular classes: no\n"
        "tilting: no\n")


def test_object_file_rejects_unknown_and_repeated_keys(tmp_path, capsys):
    quiver, obj = tmp_path / "a3.q", tmp_path / "t.obj"
    quiver.write_text("vertices 3\narrow 1 2\narrow 2 3\n")
    # "shfit" would have read as shift 0, and the second "shift" would have won
    for bad, why in (("summand dim=[1,1,1] shfit=-1", "unknown key 'shfit'"),
                     ("summand dim=[1,1,1] shift=0 shift=-1", "repeated key 'shift'")):
        obj.write_text("summand dim=[0,0,1]\nsummand dim=[0,1,1]\n" + bad + "\n")
        assert cli.main(["sgd", "--quiver", str(quiver), "--object", str(obj)]) == 2
        out, err = capsys.readouterr()
        assert out == "" and "line 3" in err and why in err


def test_tilting_check_on_a_determinant_two_object(tmp_path, capsys):
    # four distinct summands whose classes span an index-2 sublattice
    quiver, obj = tmp_path / "d4.q", tmp_path / "t.obj"
    quiver.write_text(D4_ALT)
    obj.write_text("".join("summand dim=[%s] shift=0\n" % r
                           for r in ("0,0,0,1", "0,0,1,0", "1,0,0,0", "1,2,1,1")))
    assert cli.main(["tilting", "check", "--quiver", str(quiver), "--object", str(obj)]) == 1
    out = capsys.readouterr().out
    assert "summands: 4 of 4\nunimodular classes: no\ntilting: no\n" in out


@pytest.mark.parametrize("dim", ["1,1,1", "[[1,1,1]]"])
def test_object_file_needs_one_bracket_pair(tmp_path, capsys, dim):
    quiver, obj = tmp_path / "a3.q", tmp_path / "t.obj"
    quiver.write_text("vertices 3\narrow 1 2\narrow 2 3\n")
    # the projective generator, but for the brackets round its first vector
    obj.write_text("summand dim=%s\nsummand dim=[0,1,1]\nsummand dim=[0,0,1]\n" % dim)
    assert cli.main(["tilting", "check", "--quiver", str(quiver), "--object", str(obj)]) == 2
    out, err = capsys.readouterr()
    assert out == "" and "line 1" in err


@pytest.mark.parametrize("argv", [
    ["verify", "delta", "--samples", "-2"],
    ["random-tilting", "--seed", "0", "--steps", "-3"],
    ["verify", "a", "--window-pad", "-1"],
    ["slice", "--object", "t.obj", "--window-pad", "-1"],
])
def test_negative_counts_are_usage_errors(tmp_path, capsys, argv):
    path = tmp_path / "a3.q"
    path.write_text("vertices 3\narrow 1 2\narrow 2 3\n")
    assert cli.main(argv + ["--quiver", str(path)]) == 2
    out, err = capsys.readouterr()
    assert out == "" and "must be a non-negative integer" in err


def test_tilting_check_names_a_rigidity_witness(tmp_path, capsys):
    quiver, obj = tmp_path / "a2.q", tmp_path / "t.obj"
    quiver.write_text("vertices 2\narrow 1 2\n")
    # P1 and P1[1]: Hom(P1[1], P1[1]) != 0 is a nonzero map T -> T[-1]
    obj.write_text("summand dim=[1,1] shift=0\nsummand dim=[1,1] shift=1\n")
    assert cli.main(["tilting", "check", "--quiver", str(quiver), "--object", str(obj)]) == 1
    assert capsys.readouterr().out == (
        "rigid: no\n"
        "  Hom((1, 1)[0], (1, 1)[0]) != 0 at i=-1\n"
        "summands: 2 of 2\n"
        "unimodular classes: no\n"
        "tilting: no\n")


def test_ind_list_reps_prints_each_indecomposable(tmp_path, capsys):
    path = tmp_path / "a3.q"
    path.write_text("vertices 3\narrow 1 2\narrow 2 3\n")
    assert cli.main(["ind", "list", "--reps", "--quiver", str(path)]) == 0
    # knitting order: the projectives P3, P2, P1, then their inverse translates
    assert capsys.readouterr().out == (
        "rep dims=[0,0,1]\n"
        "rep dims=[0,1,1]\nmat 2 = [[1]]\n"
        "rep dims=[1,1,1]\nmat 1 = [[1]]\nmat 2 = [[1]]\n"
        "rep dims=[0,1,0]\n"
        "rep dims=[1,1,0]\nmat 1 = [[1]]\n"
        "rep dims=[1,0,0]\n")


def test_closed_stdout_is_not_a_usage_error(tmp_path):
    path = tmp_path / "a5.q"
    path.write_text("vertices 5\narrow 1 2\narrow 3 2\narrow 3 4\narrow 5 4\n")
    env = dict(os.environ, PYTHONPATH=str(pathlib.Path(cli.__file__).parents[1]))
    proc = subprocess.Popen([sys.executable, "-m", "dercat.cli", "ind", "list", "--reps",
                             "--quiver", str(path)],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    proc.stdout.close()   # the reader goes away before the first write
    err = proc.stderr.read().decode()
    # 0 only if the whole output was written before the close took effect
    assert proc.wait() in (141, 0)
    assert "error:" not in err and "Traceback" not in err


# A4 with an isolated fifth vertex, and the s.gl.dim-3 object of A4 plus its simple
A4_A1 = "vertices 5\narrow 1 2\narrow 2 3\narrow 3 4\n"
A4_A1_OBJECT = ("summand dim=[0,0,0,1,0]\nsummand dim=[1,0,0,0,0]\nsummand dim=[1,1,1,1,0]\n"
                "summand dim=[0,1,0,0,0] shift=1\nsummand dim=[0,0,0,0,1]\n")


@pytest.mark.parametrize("verb", [["slice"], ["slice", "--all-slices"], ["theoremb"]])
def test_slice_verbs_reject_a_disconnected_quiver(tmp_path, capsys, verb):
    quiver, obj = tmp_path / "q.q", tmp_path / "t.obj"
    quiver.write_text(A4_A1)
    obj.write_text(A4_A1_OBJECT)
    assert cli.main(verb + ["--quiver", str(quiver), "--object", str(obj)]) == 2
    out, err = capsys.readouterr()
    assert out == "" and "error: slice machinery needs a connected quiver" in err


@pytest.mark.parametrize("argv,given", [
    (["sgd"], 2), (["tilting", "check"], 2), (["mutate", "--t2", "0"], 2),
    (["comutate", "--t2", "0"], 2), (["slice"], 2), (["theoremb"], 2), (["hom"], 1), (["hom"], 3),
])
def test_a_wrong_number_of_object_files_is_a_usage_error(tmp_path, capsys, argv, given):
    q = qv.Quiver(3, ((0, 1), (1, 2)))
    quiver, obj = tmp_path / "a3.q", tmp_path / "p.obj"
    quiver.write_text("vertices 3\narrow 1 2\narrow 2 3\n")
    obj.write_text(dv.format_object(dv.projective_generator(q)))
    # the extra file need not exist: the count is checked before any file is read
    objects = [str(obj)] + [str(tmp_path / "missing.obj")] * (given - 1)
    argv = argv + ["--quiver", str(quiver)] + [a for o in objects for a in ("--object", o)]
    assert cli.main(argv) == 2
    out, err = capsys.readouterr()
    needed = 2 if argv[0] == "hom" else 1
    assert out == "" and "exactly %d --object file" % needed in err and "got %d" % given in err


def test_verify_csv_and_jsonl_are_exclusive(tmp_path, capsys):
    path = tmp_path / "a3.q"
    path.write_text("vertices 3\narrow 1 2\narrow 2 3\n")
    assert cli.main(["verify", "serre", "--quiver", str(path), "--csv", "--jsonl"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and "not allowed with argument" in err


# Run in a fresh interpreter: its last stdout line is the exit code, then the
# dercat modules whose code has run, then "|" and which of dataclasses, inspect
# and fractions (with the modules they pull in, the costliest standard imports a
# layer could add) are loaded.  A LazyLoader module that has not run yet is an
# instance of a ModuleType subclass, so `type(m) is ModuleType` tells them apart.
LAYER_PROBE = """
import sys, types
from dercat import cli
layers = ("quiver", "linalg", "reps", "complexes", "derived", "sgd", "slices", "mutation")
missing = [n for n in layers if "dercat." + n not in sys.modules]
assert not missing, missing
code = cli.main(sys.argv[1:])
print(code, *sorted(k.split(".")[1] for k, m in list(sys.modules.items())
                    if k.startswith("dercat.") and type(m) is types.ModuleType),
      "|", *[m for m in ("dataclasses", "inspect", "fractions") if m in sys.modules])
"""

D4_ALT = "vertices 4\narrow 1 2\narrow 3 2\narrow 4 2\n"
INPUTS = pathlib.Path(__file__).parents[1] / "bench" / "inputs"


def _run_fresh(code, *argv):
    env = dict(os.environ, PYTHONPATH=str(pathlib.Path(cli.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-c", code, *argv], capture_output=True, text=True,
                          env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()[-1].split()


def test_a_verb_runs_only_the_layers_it_uses(tmp_path):
    quiver, obj = tmp_path / "d4.q", tmp_path / "p.obj"
    quiver.write_text(D4_ALT)
    obj.write_text(dv.format_object(dv.projective_generator(qv.parse_quiver(D4_ALT))))
    q, o = ["--quiver", str(quiver)], ["--object", str(obj)]
    base = ["cli", "derived", "quiver"]
    product = base + ["sgd"]
    walk, cut = sorted(base + ["mutation"]), sorted(base + ["slices"])
    table = sorted(product + ["mutation"])
    both = sorted(product + ["mutation", "slices"])
    # an s.gl.dim-3 object, so theoremb takes a mutation step through a slice
    d5 = ["--quiver", str(INPUTS / "D5-alt.q"), "--object", str(INPUTS / "D5-alt-sgd3.obj")]
    # no product verb imports dataclasses, inspect or fractions: the part after
    # "|" is empty
    for argv, layers in (
            # the set-up probe of every benchmark workload: neither derived nor sgd
            (["quiver", "validate"] + q, ["cli", "quiver"]), (["sgd"] + q + o, product),
            (["tilting", "check"] + q + o, base), (["hom"] + q + o + o, base),
            (["verify", "serre"] + q, base),
            (["mutate", "--t2", "3"] + q + o, walk),
            (["random-tilting", "--seed", "0", "--steps", "3"] + q, walk),
            (["verify", "table", "--samples", "1"] + q, table),
            (["verify", "delta", "--samples", "1"] + q, table),
            (["slice"] + q + o, cut), (["theoremb"] + d5, both),
            (["verify", "a", "--samples", "3"] + q, both)):
        assert _run_fresh(LAYER_PROBE, *argv) == ["0"] + layers + ["|"], argv
    # the oracle routes load their rational arithmetic, and no more
    oracle = sorted(base + ["complexes", "linalg", "reps"])
    ran = _run_fresh(LAYER_PROBE, "verify", "homagree", *q)
    assert ran == ["0"] + oracle + ["|", "fractions"], ran
    ran = _run_fresh(LAYER_PROBE, "ind", "list", "--reps", *q)
    assert ran == ["0"] + sorted(base + ["linalg", "reps"]) + ["|", "fractions"], ran


def test_lazy_layer_reuses_an_imported_module():
    code = ("import sys\nfrom dercat import mutation\nfrom dercat import cli\n"
            "print(cli.mu is mutation and sys.modules['dercat.mutation'] is mutation)\n")
    assert _run_fresh(code) == ["True"]
