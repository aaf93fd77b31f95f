import csv
import os
import pathlib
import subprocess
import sys
import time

import pytest
from hypothesis import given, settings, strategies as st

from dercat import (cli, complexes as cx, derived as dv, mutation as mu, quiver as qv,
                    slices as sls)


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


def test_verify_ringel_fails_the_rows_where_the_oracles_disagree(tmp_path, monkeypatch, capsys):
    path = tmp_path / "a3.q"
    path.write_text("vertices 3\narrow 1 2\narrow 2 3\n")
    argv = ["verify", "ringel", "--quiver", str(path), "--samples", "3", "--min-checked", "3"]
    assert cli.main(argv) == 0
    out, err = capsys.readouterr()
    rows = out.splitlines()
    # hereditary instances too: the oracle checks the value, not a theorem on it
    assert len(rows) == 3 and all(r.endswith("status=pass  detail=sgd=1") for r in rows)
    assert err == "# checked=3 skipped=0 failed=0\n"

    def disagree(t):
        raise qv.InternalInconsistencyError("dual strong-global-dimension algorithms disagree")

    monkeypatch.setattr(cx, "sgldim_ringel", disagree)
    assert cli.main(argv) == 1
    out, err = capsys.readouterr()
    assert all(r.endswith("status=FAIL  detail=dual strong-global-dimension algorithms "
                          "disagree") for r in out.splitlines())
    assert err.count("# replay object:") == 3 and "# checked=3 skipped=0 failed=3" in err
    monkeypatch.undo()
    assert cli.main(argv[:-1] + ["4"]) == 1
    assert "fewer than --min-checked 4" in capsys.readouterr().err


@pytest.mark.parametrize("count", [10 ** 18, 10 ** 20], ids=["MemoryError", "OverflowError"])
def test_a_vertex_count_past_the_address_space_is_one_error(tmp_path, capsys, count):
    # only these two counts: [0] * count is refused at once, by the allocator
    # at 10^18 and before it at 10^20; a count the OS might grant is never run
    path = tmp_path / "huge.q"
    path.write_text("vertices %d\n" % count)
    assert cli.main(["quiver", "validate", "--quiver", str(path)]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err == "error: too many vertices: %d\n" % count


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


# argv whose usage or error text comes from the top level or from the verb's
# own row: main prints what parse gives, help on stdout (exit 0) or the usage
# error on stderr (exit 2), headed by the usage line of the command named
@pytest.mark.parametrize("argv, path", [
    ([], ()), (["--help"], ()), (["nosuch"], ()), (["sgd", "--help"], ("sgd",)),
    (["sgd", "--quiver", "x.q"], ("sgd",)),
    (["sgd", "--quiver", "x.q", "--object", "y.obj", "extra"], ("sgd",))],
    ids=["none", "help", "typo", "sgd-help", "sgd-no-object", "sgd-extra"])
def test_one_verb_parser_prints_what_the_full_parser_does(argv, path, capsys):
    try:
        out, err, code = cli.parse(argv), "", 0
    except cli.UsageError as e:
        out, err, code = "", str(e) + "\n", 2
    assert cli.main(argv) == code
    assert capsys.readouterr() == (out, err)
    usage = (out or err).splitlines()[0]
    assert usage.startswith(" ".join(("usage: dercat",) + path + ("[-h] ",)))
    # a verb's usage line names its options, and the top level's every command
    rows = [v for v in cli.VERBS if v.path[:len(path)] == path]
    names = [n for n, _ in rows[0].options] if path else [v.path[0] for v in rows]
    assert all(n in usage for n in names), usage


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
    # "shfit" would have read as shift 0, and the second "shift" would have won;
    # a multiplicity below 1 would have cancelled part of an equal summand
    # (mult 2 then -1, or 1 then 0, read as mult 1), and a lone mult=0 was
    # reported without its line; the last line is the bad one
    for bad, why in (("summand dim=[1,1,1] shfit=-1", "unknown key 'shfit'"),
                     ("summand dim=[1,1,1] shift=0 shift=-1", "repeated key 'shift'"),
                     ("summand dim=[1,1,1] mult=2\nsummand dim=[1,1,1] mult=-1", "at least 1"),
                     ("summand dim=[1,1,1] mult=1\nsummand dim=[1,1,1] mult=0", "at least 1"),
                     ("summand dim=[1,1,1] mult=0", "at least 1")):
        text = "summand dim=[0,0,1]\nsummand dim=[0,1,1]\n" + bad + "\n"
        obj.write_text(text)
        assert cli.main(["sgd", "--quiver", str(quiver), "--object", str(obj)]) == 2
        out, err = capsys.readouterr()
        assert out == "" and "malformed object line %d:" % text.count("\n") in err
        assert why in err


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
    with subprocess.Popen([sys.executable, "-m", "dercat.cli", "ind", "list", "--reps",
                           "--quiver", str(path)],
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env) as proc:
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


def test_all_slices_of_the_zero_object_is_an_error(tmp_path, capsys):
    quiver, obj = tmp_path / "a3.q", tmp_path / "zero.obj"
    quiver.write_text("vertices 3\narrow 1 2\narrow 2 3\n")
    obj.write_text("")
    assert cli.main(["slice", "--all-slices", "--quiver", str(quiver), "--object", str(obj)]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err == "error: the zero object has no summands to place on ZQ\n"


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


VERIFY_ROWS = [v for v in cli.VERBS if v.path[0] == "verify"]


def _names(verb):
    return {name for name, _ in verb.options + verb.exclusive}


# (mode, option): an option of some verify mode that this mode's rows do not read
FOREIGN_OPTIONS = [(v.path[1], name) for v in VERIFY_ROWS
                   for name in sorted(set().union(*map(_names, VERIFY_ROWS)) - _names(v))]


def test_a_verify_mode_refuses_the_options_it_does_not_read(tmp_path, capsys):
    # --window-pad on the six modes other than `a`, --seed and --samples on
    # serre and homagree: each was accepted and ignored
    assert len(FOREIGN_OPTIONS) == 10
    path = tmp_path / "a3.q"
    path.write_text("vertices 3\narrow 1 2\narrow 2 3\n")
    for mode, name in FOREIGN_OPTIONS:
        argv = ["verify", mode, "--quiver", str(path), name, "1"]
        assert cli.main(argv) == 2, argv
        out, err = capsys.readouterr()
        assert out == "" and "unrecognized arguments: %s 1" % name in err


@pytest.mark.parametrize("verb", cli.VERBS, ids=lambda v: " ".join(v.path))
def test_an_option_the_verb_does_not_take_prints_the_verbs_own_usage(verb, capsys):
    # an option of another row, and one of none: not a prefix of the verb's
    # own names, which would read it as that option
    own = _names(verb)
    foreign = [n for n in sorted(set().union(*map(_names, cli.VERBS))) + ["--nosuch"]
               if not any(o.startswith(n) for o in own)]
    assert len(foreign) >= 2
    given = [w for name, kw in verb.options if kw.get("required")
             for w in (name, "1") * (verb.objects if name == "--object" else 1)]
    for name in (foreign[0], foreign[-1]):
        assert cli.main(list(verb.path) + given + [name, "1"]) == 2
        out, err = capsys.readouterr()
        usage = err.splitlines()[0]
        # the line that -h prints first
        assert out == "" and usage == cli.parse(list(verb.path) + ["-h"]).splitlines()[0]
        assert usage.startswith("usage: dercat %s [-h]" % " ".join(verb.path))
        assert all(n in usage for n in own) and name not in usage
        assert err.splitlines()[1:] == ["dercat %s: error: unrecognized arguments: %s 1"
                                        % (" ".join(verb.path), name)]


def test_slice_refuses_a_window_pad_without_all_slices(tmp_path, capsys):
    q = qv.Quiver(3, ((0, 1), (1, 2)))
    quiver, obj = tmp_path / "a3.q", tmp_path / "p.obj"
    quiver.write_text("vertices 3\narrow 1 2\narrow 2 3\n")
    obj.write_text(dv.format_object(dv.projective_generator(q)))
    argv = ["slice", "--quiver", str(quiver), "--object", str(obj), "--window-pad", "3"]
    assert cli.main(argv) == 2
    assert capsys.readouterr() == ("", "error: --window-pad applies only with --all-slices\n")
    assert cli.main(argv + ["--all-slices"]) == 0


# int() alone reads each of these: "1_0" as 10, "+1" as 1, " 5" as 5, and the
# Arabic-Indic digits U+0661 and U+0663 as 1 and 3
@pytest.mark.parametrize("text, line", [
    ("vertices \u0663\n", 1),
    ("vertices 12\narrow 1_0 2\n", 2),
    ("vertices 3\narrow +2 3\n", 2),
])
def test_a_quiver_file_spells_its_integers_in_ascii_digits(tmp_path, capsys, text, line):
    path = tmp_path / "x.q"
    path.write_text(text, encoding="utf-8")
    assert cli.main(["quiver", "validate", "--quiver", str(path)]) == 2
    out, err = capsys.readouterr()
    assert out == "" and "malformed line %d:" % line in err


@pytest.mark.parametrize("line", [
    "summand dim=[1,1] shift=1_0 mult=+1",
    "summand dim=[1,1] mult=+1",
    "summand dim=[\u0661,0]",
])
def test_an_object_file_spells_its_integers_in_ascii_digits(tmp_path, capsys, line):
    quiver, obj = tmp_path / "a2.q", tmp_path / "t.obj"
    quiver.write_text("vertices 2\narrow 1 2\n")
    obj.write_text("summand dim=[0,1]\n" + line + "\n", encoding="utf-8")
    assert cli.main(["sgd", "--quiver", str(quiver), "--object", str(obj)]) == 2
    out, err = capsys.readouterr()
    assert out == "" and "malformed object line 2:" in err


@pytest.mark.parametrize("t2", ["+1", " 1", "\u0661"])
def test_t2_spells_its_indices_in_ascii_digits(tmp_path, capsys, t2):
    q = qv.Quiver(3, ((0, 1), (1, 2)))
    quiver, obj = tmp_path / "a3.q", tmp_path / "p.obj"
    quiver.write_text("vertices 3\narrow 1 2\narrow 2 3\n")
    obj.write_text(dv.format_object(dv.projective_generator(q)))
    assert cli.main(["mutate", "--quiver", str(quiver), "--object", str(obj), "--t2", t2]) == 2
    out, err = capsys.readouterr()
    assert out == "" and "bad --t2" in err


def test_integer_options_take_ascii_digits_only(tmp_path, capsys):
    types = {kw["type"] for v in cli.VERBS for _, kw in v.options if "type" in kw}
    assert types == {qv.integer, cli.non_negative_int}
    for value in ("1_0", "+1", " 5", "5 ", "\u0663", "", "-", "--1"):
        for read in types:
            with pytest.raises(ValueError):
                read(value)
    assert qv.integer("-12") == -12 and cli.non_negative_int("012") == 12
    path = tmp_path / "a3.q"
    path.write_text("vertices 3\narrow 1 2\narrow 2 3\n")
    argv = ["random-tilting", "--quiver", str(path), "--seed", "1_0", "--steps", "+2"]
    assert cli.main(argv) == 2
    out, err = capsys.readouterr()
    assert out == "" and "invalid integer value: '1_0'" in err


# Run in a fresh interpreter: its last stdout line is the exit code, then the
# dercat modules whose code has run, then "|" and which of dataclasses, inspect
# and fractions (with the modules they pull in, the costliest standard imports a
# layer could add) and of argparse, gettext and locale (what a parser built on
# argparse would load) are loaded.  A LazyLoader module that has not run yet is an
# instance of a ModuleType subclass, so `type(m) is ModuleType` tells them apart.
LAYER_PROBE = """
import sys, types
from dercat import cli
layers = ("quiver", "linalg", "reps", "complexes", "derived", "zq", "sgd", "slices", "mutation",
          "verify")
missing = [n for n in layers if "dercat." + n not in sys.modules]
assert not missing, missing
code = cli.main(sys.argv[1:])
print(code, *sorted(k.split(".")[1] for k, m in list(sys.modules.items())
                    if k.startswith("dercat.") and type(m) is types.ModuleType),
      "|", *[m for m in ("dataclasses", "inspect", "fractions", "argparse", "gettext", "locale")
             if m in sys.modules])
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
    walk, cut = sorted(base + ["mutation"]), sorted(base + ["slices", "zq"])
    table = sorted(product + ["mutation", "verify"])
    both = sorted(product + ["mutation", "slices", "verify", "zq"])
    # an s.gl.dim-3 object, so theoremb takes a mutation step through a slice
    d5 = ["--quiver", str(INPUTS / "D5-alt.q"), "--object", str(INPUTS / "D5-alt-sgd3.obj")]
    # verify (the verify and theoremb verbs, and sgd --csv's rows) and zq (tau
    # and the ZQ coordinates) run only where they are used; no product verb
    # imports dataclasses, inspect or fractions, and no command line argparse,
    # gettext or locale: the part after "|" is empty
    for argv, layers in (
            # the set-up probe of every benchmark workload: neither derived nor sgd
            (["quiver", "validate"] + q, ["cli", "quiver"]), (["sgd"] + q + o, product),
            (["tilting", "check"] + q + o, base), (["hom"] + q + o + o, base),
            (["sgd", "--csv"] + q + o, sorted(product + ["verify"])),
            (["verify", "serre"] + q, sorted(base + ["verify", "zq"])),
            (["mutate", "--t2", "3"] + q + o, walk),
            (["random-tilting", "--seed", "0", "--steps", "3"] + q, walk),
            (["verify", "table", "--samples", "1"] + q, table),
            (["verify", "delta", "--samples", "1"] + q, table),
            (["slice"] + q + o, cut), (["theoremb"] + d5, both),
            (["verify", "a", "--samples", "3"] + q, both)):
        assert _run_fresh(LAYER_PROBE, *argv) == ["0"] + layers + ["|"], argv
    # the oracle routes load their rational arithmetic, and no more
    oracle = sorted(base + ["complexes", "linalg", "reps", "verify"])
    ran = _run_fresh(LAYER_PROBE, "verify", "homagree", *q)
    assert ran == ["0"] + oracle + ["|", "fractions"], ran
    ran = _run_fresh(LAYER_PROBE, "verify", "ringel", "--samples", "1", *q)
    assert ran == ["0"] + sorted(oracle + ["mutation", "sgd"]) + ["|", "fractions"], ran
    # knitting order reads the ZQ coordinates off zq's table; with no
    # --object, derived never runs, and only --reps builds modules
    assert _run_fresh(LAYER_PROBE, "ind", "list", *q) == ["0", "cli", "quiver", "zq", "|"]
    ran = _run_fresh(LAYER_PROBE, "ind", "list", "--reps", *q)
    assert ran == ["0"] + ["cli", "linalg", "quiver", "reps", "zq"] + ["|", "fractions"], ran
    # an abbreviated option name runs the verb; help and usage errors load no layer
    assert _run_fresh(LAYER_PROBE, "quiver", "validate", "--quiv", str(quiver)) == [
        "0", "cli", "quiver", "|"]
    for argv, code in ((["--help"], "0"), (["sgd", "-h"], "0"),
                       (["verify", "homagree", "--samples", "3"] + q, "2")):
        assert _run_fresh(LAYER_PROBE, *argv) == [code, "cli", "quiver", "|"], argv


def test_verify_never_imports_the_cli_module(tmp_path):
    # under -m the CLI runs as __main__; an import of dercat.cli from a layer
    # would compile cli.py a second time, as a module of that name.  The
    # abbreviated --samp is read by the same parse, with no module of its own.
    env = dict(os.environ, PYTHONPATH=str(pathlib.Path(cli.__file__).parents[1]))
    for samples in ("--samples", "--samp"):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-m", "dercat.cli", "verify",
                               "delta", samples, "1", "--quiver", str(INPUTS / "A5-alt.q")],
                              capture_output=True, text=True, env=env, timeout=120)
        assert proc.returncode == 0, proc.stderr
        imported = [line.rsplit("|", 1)[1].strip() for line in proc.stderr.splitlines()
                    if line.startswith("import time:")]
        assert "dercat" in imported and "dercat.cli" not in imported, imported
        assert "dercat.usage" not in imported and "argparse" not in imported, imported


def test_lazy_layer_reuses_an_imported_module():
    code = ("import sys\nfrom dercat import mutation\nfrom dercat import cli\n"
            "print(cli.mu is mutation and sys.modules['dercat.mutation'] is mutation)\n")
    assert _run_fresh(code) == ["True"]


E6_ALT_FILE, D4_ALT_FILE = str(INPUTS / "E6-alt.q"), str(INPUTS / "D4-alt.q")


# {T} is the test's directory, {OUT} a file of each side's own
@pytest.mark.parametrize("argv, code, expect", [
    (["quiver", "validate", "--quiver", E6_ALT_FILE], 0, "dynkin: yes\n"),
    (["--help"], 0, "usage: dercat"),
    (["sgd", "--quiver", E6_ALT_FILE], 2, "required: --object"),
    (["tilting", "check", "--quiver", E6_ALT_FILE, "--object", "{T}/s.obj"], 1, "tilting: no\n"),
    (["mutate", "--quiver", E6_ALT_FILE, "--object", "{T}/p.obj", "--t2", "4", "--out", "{OUT}"],
     0, ""),
    # 152,064 bytes: many times the child's stdout buffer
    (["verify", "homagree", "--quiver", D4_ALT_FILE], 0, "# checked=2304 "),
])
def test_process_entry_prints_and_exits_what_main_does(tmp_path, capsys, argv, code, expect):
    e6 = qv.parse_quiver((INPUTS / "E6-alt.q").read_text())
    (tmp_path / "s.obj").write_text("summand dim=[1,0,0,0,0,0]\n")
    (tmp_path / "p.obj").write_text(dv.format_object(dv.projective_generator(e6)))

    def args(side):
        return [a.replace("{T}", str(tmp_path)).replace("{OUT}", str(tmp_path / side))
                for a in argv]

    assert cli.main(args("main.obj")) == code
    out, err = capsys.readouterr()
    assert expect in out + err
    # block-buffered stdout: output that run failed to flush would be lost
    env = dict(os.environ, PYTHONPATH=str(pathlib.Path(cli.__file__).parents[1]))
    env.pop("PYTHONUNBUFFERED", None)
    proc = subprocess.run([sys.executable, "-m", "dercat.cli", *args("run.obj")],
                          capture_output=True, env=env, timeout=120)
    assert (proc.stdout.decode(), proc.stderr.decode(), proc.returncode) == (out, err, code)
    written = [p.read_bytes() if p.exists() else None
               for p in (tmp_path / "main.obj", tmp_path / "run.obj")]
    assert written[0] == written[1] and (written[0] is not None) == ("--out" in argv)


def _run_into_dev_full(argv, unbuffered):
    env = dict(os.environ, PYTHONPATH=str(pathlib.Path(cli.__file__).parents[1]))
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    with open("/dev/full", "w") as full:
        proc = subprocess.run([sys.executable, "-m", "dercat.cli", *argv], stdout=full,
                              stderr=subprocess.PIPE, text=True, env=env, timeout=120)
    return proc.returncode, proc.stderr


needs_dev_full = pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
NO_SPACE = "error: [Errno 28] No space left on device\n"


@needs_dev_full
@pytest.mark.parametrize("argv", [
    # a short output fails at main's flush, a long one at a write inside the verb
    ["quiver", "validate", "--quiver", E6_ALT_FILE],
    ["verify", "homagree", "--quiver", D4_ALT_FILE]], ids=["flush", "write"])
def test_a_failed_stdout_write_is_reported_once(argv):
    # block-buffered: the unwritten bytes stay in the buffer after the failure
    assert _run_into_dev_full(argv, unbuffered=False) == (2, NO_SPACE)


@needs_dev_full
@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
def test_help_that_cannot_be_written_is_an_error(unbuffered):
    assert _run_into_dev_full(["--help"], unbuffered) == (2, NO_SPACE)
    assert _run_into_dev_full(["sgd", "--help"], unbuffered) == (2, NO_SPACE)


class _Flushed(Exception):
    pass


@pytest.mark.parametrize("flush_error, code", [(None, 1), (OSError(28, "No space left"), 2)])
def test_run_flushes_then_exits_with_mains_code(monkeypatch, flush_error, code):
    events = []

    class Stream:
        def __init__(self, name):
            self.name = name

        def write(self, text):
            events.append(("write", self.name, text))

        def flush(self):
            events.append(("flush", self.name))
            if self.name == "stdout" and flush_error is not None:
                raise flush_error

    def exit_(status):
        events.append(("exit", status))
        raise _Flushed

    monkeypatch.setattr(cli, "main", lambda: events.append(("main",)) or 1)
    monkeypatch.setattr(sys, "stdout", Stream("stdout"))
    monkeypatch.setattr(sys, "stderr", Stream("stderr"))
    monkeypatch.setattr(os, "_exit", exit_)
    with pytest.raises(_Flushed):
        cli.run()
    # a failed write is never a silent exit: it is reported on stderr
    report = [("write", "stderr", "error: [Errno 28] No space left"), ("write", "stderr", "\n")]
    assert events == ([("main",), ("flush", "stdout")] + (report if flush_error else [])
                      + [("flush", "stderr"), ("exit", code)])


def test_a_quiver_that_is_not_dynkin_is_named_by_its_components(tmp_path, capsys):
    quiver, obj = tmp_path / "q.q", tmp_path / "t.obj"
    # a double arrow 1 -> 2 (not Dynkin) beside an isolated vertex (A1)
    quiver.write_text("vertices 3\narrow 1 2\narrow 1 2\n")
    obj.write_text("summand dim=[1,0,0]\n")
    for argv in (["ind", "list"], ["sgd", "--object", str(obj)]):
        assert cli.main(argv + ["--quiver", str(quiver)]) == 2
        assert capsys.readouterr() == ("", "error: quiver is not Dynkin: NotDynkin, A1\n")


def test_mutation_of_an_object_with_no_summands_is_refused(tmp_path, capsys):
    quiver, obj = tmp_path / "a3.q", tmp_path / "zero.obj"
    quiver.write_text("vertices 3\narrow 1 2\narrow 2 3\n")
    obj.write_text("")
    for verb in ("mutate", "comutate"):
        assert cli.main([verb, "--quiver", str(quiver), "--object", str(obj), "--t2", "0"]) == 2
        assert capsys.readouterr() == ("", "error: mutation starts from a tilting object\n")


def _namespace(argv, given):
    """What parse should make of argv: the row's defaults, then the given values."""
    verb = next(v for v in cli.VERBS if tuple(argv[:len(v.path)]) == v.path)
    ns = dict(zip(("cmd", "sub"), verb.path), fn=verb.fn)
    for name, kw in verb.options + verb.exclusive:
        flag = kw.get("action") == "store_true"
        ns[name[2:].replace("-", "_")] = kw.get("default", False if flag else None)
    return dict(ns, **given)


# (argv, plain, outcome): plain is the verb's words, then `--name value` pairs
# and flags with exact names and values that do not start with "-"; outcome
# is the values parse sets over the row's defaults, 2 for a usage error, or
# "help".  Every plain line parses.
PARSE_CASES = [
    (["quiver", "validate", "--quiver", "x.q"], True, {"quiver": "x.q"}),
    (["ind", "list", "--reps", "--quiver", "x.q"], True, {"reps": True, "quiver": "x.q"}),
    (["hom", "--quiver", "x.q", "--object", "a.obj", "--object", "b.obj"], True,
     {"quiver": "x.q", "object": ["a.obj", "b.obj"]}),
    (["tilting", "check", "--object", "a.obj", "--quiver", "x.q"], True,
     {"quiver": "x.q", "object": ["a.obj"]}),
    (["sgd", "--quiver", "x.q", "--object", "a.obj", "--csv", "--csv"], True,
     {"quiver": "x.q", "object": ["a.obj"], "csv": True}),
    (["mutate", "--quiver", "x.q", "--object", "a.obj", "--t2", "0,2", "--out", "m.obj"], True,
     {"quiver": "x.q", "object": ["a.obj"], "t2": "0,2", "out": "m.obj"}),
    (["comutate", "--quiver", "x.q", "--object", "a.obj", "--t2", "1"], True,
     {"quiver": "x.q", "object": ["a.obj"], "t2": "1"}),
    (["slice", "--all-slices", "--window-pad", "5", "--quiver", "x.q", "--object", "a.obj"], True,
     {"all_slices": True, "window_pad": 5, "quiver": "x.q", "object": ["a.obj"]}),
    (["theoremb", "--quiver", "x.q", "--object", "a.obj", "--out-prefix", "p", "--csv"], True,
     {"quiver": "x.q", "object": ["a.obj"], "out_prefix": "p", "csv": True}),
    (["random-tilting", "--quiver", "x.q", "--seed", "50", "--steps", "8"], True,
     {"quiver": "x.q", "seed": 50, "steps": 8}),
    (["verify", "a", "--quiver", "x.q", "--seed", "0", "--samples", "4", "--jsonl"], True,
     {"quiver": "x.q", "seed": 0, "samples": 4, "jsonl": True}),
    # an abbreviated name, an unknown one, --name=value, -h and --
    (["sgd", "--quiv", "x.q", "--object", "a.obj"], False, {"quiver": "x.q", "object": ["a.obj"]}),
    (["sgd", "--quiver", "x.q", "--object", "a.obj", "--nosuch"], False, 2),
    (["sgd", "--quiver=x.q", "--object", "a.obj"], False, {"quiver": "x.q", "object": ["a.obj"]}),
    (["sgd", "-h"], False, "help"),
    (["sgd", "--quiver", "x.q", "--", "--object", "a.obj"], False, 2),
    # a value starting with "-", type failures (int() alone reads " 5" and
    # "5_0"), an unknown verify mode
    (["random-tilting", "--quiver", "x.q", "--seed", "-1"], False, {"quiver": "x.q", "seed": -1}),
    (["slice", "--quiver", "x.q", "--object", "a.obj", "--window-pad", "x"], False, 2),
    (["random-tilting", "--quiver", "x.q", "--seed", "0", "--steps", " -1"], False, 2),
    (["slice", "--all-slices", "--window-pad", " 5", "--quiver", "x.q", "--object", "a.obj"],
     False, 2),
    (["random-tilting", "--quiver", "x.q", "--seed", "5_0", "--steps", "8"], False, 2),
    (["verify", "c", "--quiver", "x.q"], False, 2),
    # a missing required option, both of the exclusive pair, the verify mode
    # after the options, a verb path cut short, no verb
    (["sgd", "--quiver", "x.q"], False, 2),
    (["verify", "a", "--quiver", "x.q", "--csv", "--jsonl"], False, 2),
    (["verify", "--quiver", "x.q", "a"], False, 2),
    (["tilting", "--quiver", "x.q", "--object", "a.obj"], False, 2),
    ([], False, 2),
]


@pytest.mark.parametrize("argv, plain", [case[:2] for case in PARSE_CASES])
def test_the_fast_parse_takes_plain_command_lines_only(argv, plain):
    outcome = next(o for a, _, o in PARSE_CASES if a == argv)
    assert not plain or isinstance(outcome, dict)
    if outcome == 2:
        with pytest.raises(cli.UsageError):
            cli.parse(argv)
    elif outcome == "help":
        assert cli.parse(argv).startswith("usage: dercat %s [-h]" % argv[0])
    else:
        assert vars(cli.parse(argv)) == _namespace(argv, outcome)


OPTION_NAMES = sorted({name for v in cli.VERBS for name, _ in v.options + v.exclusive})
STRAY = ["-h", "--help", "--", "--nosuch", "extra"] + OPTION_NAMES
ODD_VALUES = ["-1", "", " 5", "5_0", "+1", "\u0663", "a,b", "x.q", " -1", "-"]


@st.composite
def _command_lines(draw):
    """A plain command line of a verb, its options in any order, some
    repeated, then up to three edits that may or may not leave it valid: an
    abbreviated name, --name=value, an odd value, a stray word, a verb path
    cut short, a dropped option."""
    verb = draw(st.sampled_from(cli.VERBS))
    path, pieces = list(verb.path), []
    for name, kw in verb.options + verb.exclusive:
        if not (kw.get("required") or draw(st.booleans())):
            continue
        for _ in range(draw(st.integers(1, 2))):
            if kw.get("action") == "store_true":
                pieces.append([name])
            else:
                pieces.append([name, draw(st.sampled_from(["x.q", "a,b"] if "type" not in kw
                                                          else ["0", "3"]))])
    pieces = draw(st.permutations(pieces))
    for _ in range(draw(st.integers(0, 3))):
        edit = draw(st.sampled_from(["abbreviate", "equals", "value", "stray", "cut", "drop"]))
        i = draw(st.integers(0, len(pieces) - 1)) if pieces else None
        if edit == "abbreviate" and i is not None and len(pieces[i][0]) > 3:
            name = pieces[i][0]
            pieces[i] = [name[:draw(st.integers(3, len(name) - 1))]] + pieces[i][1:]
        elif edit == "equals" and i is not None and len(pieces[i]) == 2:
            pieces[i] = ["=".join(pieces[i])]
        elif edit == "value" and i is not None and len(pieces[i]) == 2:
            pieces[i] = [pieces[i][0], draw(st.sampled_from(ODD_VALUES))]
        elif edit == "stray":
            pieces.insert(draw(st.integers(0, len(pieces))), [draw(st.sampled_from(STRAY))])
        elif edit == "cut":
            path = path[:1]
        elif edit == "drop" and i is not None:
            del pieces[i]
    return path + [w for piece in pieces for w in piece]


def test_any_command_line_parses_is_help_or_is_a_usage_error():
    outcomes = set()

    @settings(derandomize=True, max_examples=600, deadline=None)
    @given(_command_lines())
    def check(argv):
        try:
            got = cli.parse(argv)
        except ValueError as e:   # UsageError, or a wrong count of --object files
            got = e
        # -h, --help or a prefix of it (an edit may cut it) wins over any error
        helps = [w for w in argv if w == "-h" or len(w) > 2 and "--help".startswith(w)]
        assert isinstance(got, str) == bool(helps), argv
        outcomes.add(type(got).__name__)

    check()
    assert outcomes == {"SimpleNamespace", "str", "UsageError", "ValueError"}, outcomes


# values a string option takes as written, "-" and a negative integer among them
VALUES = {str: ["x.q", "a,b", "-", "-1", ""], qv.integer: ["0", "3", "-1"],
          cli.non_negative_int: ["0", "3"]}


@st.composite
def _spellings(draw):
    """One command line of a verb spelt two ways: the second reorders the
    option pairs (the --object files keep their order), writes some values as
    --name=value and cuts some names to a prefix that no other name shares."""
    verb = draw(st.sampled_from(cli.VERBS))
    names = [n for n, _ in verb.options + verb.exclusive] + ["--help"]
    chosen = list(verb.options)
    if verb.exclusive and draw(st.booleans()):
        chosen.append(draw(st.sampled_from(verb.exclusive)))
    pieces = []
    for name, kw in chosen:
        if name == "--object":
            pieces += [[name, "t%d.obj" % k] for k in range(verb.objects)]
        elif kw.get("action") == "store_true":
            pieces += [[name]] * draw(st.integers(0, 1))
        elif kw.get("required") or draw(st.booleans()):
            pieces.append([name, draw(st.sampled_from(VALUES[kw.get("type", str)]))])
    objects = iter([p for p in pieces if p[0] == "--object"])
    respelt = []
    for j in draw(st.permutations(range(len(pieces)))):
        name, *value = next(objects) if pieces[j][0] == "--object" else pieces[j]
        name = draw(st.sampled_from([name[:k] for k in range(3, len(name) + 1) if k == len(name)
                                     or sum(n.startswith(name[:k]) for n in names) == 1]))
        respelt += ["%s=%s" % (name, value[0])] if value and draw(st.booleans()) else [name] + value
    return list(verb.path) + [w for piece in pieces for w in piece], list(verb.path) + respelt


@settings(derandomize=True, max_examples=400, deadline=None)
@given(_spellings())
def test_a_line_parses_alike_however_its_options_are_spelt(lines):
    plain, respelt = lines
    assert vars(cli.parse(respelt)) == vars(cli.parse(plain)), respelt


@pytest.mark.parametrize("arrows", [
    lambda n: [],
    lambda n: [(v + 1, v) for v in range(1, n)],
    lambda n: [(v, v + 1) for v in range(1, n, 2)],
], ids=["arrowless", "path", "disjoint-A2"])
def test_quiver_validate_is_linear_in_the_file(tmp_path, capsys, arrows):
    # 20,000 vertices: the checks scanned every arrow once per vertex or per
    # component, which took tens of seconds here
    path = tmp_path / "big.q"
    path.write_text("vertices 20000\n" + "".join("arrow %d %d\n" % a for a in arrows(20000)))
    start = time.perf_counter()
    assert cli.main(["quiver", "validate", "--quiver", str(path)]) == 0
    assert time.perf_counter() - start < 2.0
    assert capsys.readouterr().out.endswith("\ndynkin: yes\n")
