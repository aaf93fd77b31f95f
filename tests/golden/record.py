"""The golden CLI corpus: command lines and the digests of what they print.

corpus.json lists, one case a line, an argv and the sha256 of its stdout and
stderr and its exit code, as `dercat.cli.main` gives them in process.  In an
argv, `{I}` stands for bench/inputs and `{W}` for a fresh work directory that
prepare() fills; the same placeholders replace those directories in the
output before it is hashed, so an error that names a file reads alike
anywhere.  A case with "save" also writes its stdout to that {W} path, for the
cases after it to read: the seeded walks make the objects that the other
verbs run on.

Usage errors and help texts are cases like any other: cli.parse writes them
from the verb table alone, so they read alike on every Python version.

Re-record after a change that alters output on purpose, and name every argv
whose digests changed where the change is described:

    PYTHONPATH=src python tests/golden/record.py
"""

import contextlib
import hashlib
import io
import json
import pathlib
import sys
from collections import Counter

from dercat import cli, derived as dv, quiver as qv

HERE = pathlib.Path(__file__).resolve().parent
CORPUS = HERE / "corpus.json"
INPUTS = HERE.parents[1] / "bench" / "inputs"

BENCH_QUIVERS = ("A5-alt", "A6-lin", "D4-alt", "D5-alt", "E6-alt", "E7-alt", "E7-lin", "E8-alt")

# small quivers and hand-made objects for the cases the bench inputs do not reach
FILES = {
    "a1.q": "vertices 1\n",
    "a3.q": "vertices 3\narrow 1 2\narrow 2 3\n",
    "a1a2.q": "vertices 3\narrow 1 2\n",
    "cycle.q": "vertices 2\narrow 1 2\narrow 2 1\n",
    # int() would read 1_0 as 10: the arrow 10 -> 2
    "underscore.q": "vertices 12\narrow 1_0 2\n",
    "zero.obj": "",
    "bad.obj": "summand dim=[1,0,0,0,0,0]\n",
}


def prepare(work):
    """Write FILES, and the E6-alt projective generator shifted by +-10^6."""
    for name, text in FILES.items():
        (work / name).write_text(text)
    p = dv.projective_generator(qv.parse_quiver((INPUTS / "E6-alt.q").read_text()))
    for name, k in (("far", 10 ** 6), ("near", -10 ** 6)):
        (work / ("E6-alt.%s.obj" % name)).write_text(dv.format_object(p.shift(k)))


def _cases():
    out = []

    def case(*argv, save=None):
        out.append({"argv": list(argv), "save": save} if save else {"argv": list(argv)})

    for name in BENCH_QUIVERS:
        q = ["--quiver", "{I}/%s.q" % name]
        n = qv.parse_quiver((INPUTS / ("%s.q" % name)).read_text()).n

        def obj(tag):
            return "{W}/%s.%s.obj" % (name, tag)

        case("quiver", "validate", *q)
        case("ind", "list", *q)
        # the reflection functors over the rationals: about 3 s on E8, which
        # CI checks against a recorded digest instead
        if not name.startswith("E8"):
            case("ind", "list", "--reps", *q)
        case("random-tilting", *q, "--seed", "0", save=obj("P"))
        for seed, steps in ((1, 6), (5, 10)):
            case("random-tilting", *q, "--seed", str(seed), "--steps", str(steps),
                 save=obj("w%d" % seed))
        for tag in ("P", "w1", "w5"):
            o = ["--object", obj(tag)]
            case("tilting", "check", *q, *o)
            case("sgd", *q, *o)
            case("sgd", "--csv", *q, *o)
            case("hom", *q, *o, "--object", obj("P"))
            # each summand on its own: admissible or not, a partition or not
            for i in range(n):
                case("mutate", *q, *o, "--t2", str(i))
                case("comutate", *q, *o, "--t2", str(i))
            case("slice", *q, *o)
            case("slice", "--all-slices", "--window-pad", "0", *q, *o)
            case("theoremb", *q, *o)
        case("slice", "--all-slices", *q, "--object", obj("w5"))
        case("theoremb", "--csv", *q, "--object", obj("w5"))
        for which in ("a", "b", "table", "delta"):
            case("verify", which, *q, "--seed", "3", "--samples", "2")
        case("verify", "a", *q, "--seed", "0", "--samples", "2", "--window-pad", "0", "--csv")
        case("verify", "table", *q, "--seed", "0", "--samples", "1", "--jsonl")
    e6, a5 = ["--quiver", "{I}/E6-alt.q"], ["--quiver", "{I}/A5-alt.q"]
    # the verify jobs of the benchmark's walk-verify workload
    case("verify", "a", *a5, "--seed", "0", "--samples", "4")
    case("verify", "table", *e6, "--seed", "0", "--samples", "1")
    case("verify", "delta", *e6, "--seed", "0", "--samples", "2")
    case("theoremb", "--quiver", "{I}/D5-alt.q", "--object", "{I}/D5-alt-sgd3.obj")
    case("verify", "serre", "--quiver", "{I}/D4-alt.q")
    case("verify", "homagree", "--quiver", "{W}/a3.q")
    # every row of the chain-map Hom oracle on two bench quivers
    case("verify", "homagree", "--quiver", "{I}/D4-alt.q")
    case("verify", "homagree", "--quiver", "{I}/A5-alt.q")
    # the chain-map s.gl.dim oracle on the corpus of verify a|b
    case("verify", "ringel", "--quiver", "{W}/a3.q", "--jsonl")
    case("verify", "ringel", "--quiver", "{I}/D4-alt.q", "--samples", "4", "--min-checked", "1")
    case("verify", "ringel", "--quiver", "{I}/D5-alt.q", "--samples", "4")
    case("verify", "b", "--quiver", "{W}/a3.q", "--min-checked", "50")
    # far out in ZQ: the coordinates fold by the Coxeter number
    for tag in ("far", "near"):
        case("slice", *e6, "--object", "{W}/E6-alt.%s.obj" % tag)
        case("slice", "--all-slices", "--window-pad", "1", *e6,
             "--object", "{W}/E6-alt.%s.obj" % tag)
    # errors main reports itself: exit 2 (1 for a failed verdict) and one message
    case("hom", *e6, "--object", "{W}/E6-alt.P.obj")
    case("mutate", *e6, "--object", "{W}/E6-alt.P.obj", "--t2", "0,0")
    case("mutate", *e6, "--object", "{W}/E6-alt.P.obj", "--t2", "9")
    case("tilting", "check", *e6, "--object", "{W}/bad.obj")
    case("sgd", *e6, "--object", "{W}/bad.obj")
    case("slice", "--all-slices", *e6, "--object", "{W}/zero.obj")
    case("slice", "--quiver", "{W}/a1a2.q", "--object", "{W}/zero.obj")
    case("verify", "delta", "--quiver", "{W}/a1.q")
    case("verify", "table", "--quiver", "{W}/a1.q")
    case("quiver", "validate", "--quiver", "{W}/cycle.q")
    case("sgd", "--quiver", "{W}/cycle.q", "--object", "{W}/zero.obj")
    case("quiver", "validate", "--quiver", "{W}/missing.q")
    case("quiver", "validate", "--quiver", "{W}/underscore.q")
    case("slice", *e6, "--object", "{W}/E6-alt.P.obj", "--window-pad", "3")
    case("verify", "a", *a5, "--samples", "1", "--min-checked", "5")
    # usage errors, each under the usage line of the command it names
    case("sgd", *e6)
    case("frobnicate", *e6)
    case("verify", "c", *e6)
    case("slice", *e6, "--object", "{W}/E6-alt.P.obj", "--window-pad", "-1")
    case("verify", "a", *a5, "--csv", "--jsonl")
    case("random-tilting", *e6, "--seed", "x")
    # an option that another verify mode reads and this one does not
    case("verify", "homagree", "--quiver", "{I}/D4-alt.q", "--samples", "3")
    case("verify", "serre", "--quiver", "{W}/a3.q", "--seed", "1")
    case("verify", "delta", *a5, "--window-pad", "1")
    case("random-tilting", *e6, "--s", "1")
    case("sgd", *e6, "--object", "{W}/E6-alt.P.obj", "--")
    case("sgd", "--csv=1", *e6, "--object", "{W}/E6-alt.P.obj")
    # other spellings of a plain command line
    case("sgd", "--quiv", "{I}/E6-alt.q", "--obj={W}/E6-alt.w1.obj")
    case("random-tilting", *e6, "--seed=-1")
    # help: the top level, each command group and each verb
    case("-h")
    for path in dict.fromkeys(v.path[:i] for v in cli.VERBS for i in (1, 2)):
        case(*path, "-h")
    repeated = [argv for argv, k in Counter(tuple(e["argv"]) for e in out).items() if k > 1]
    if repeated:
        raise ValueError("the corpus repeats %s" % ", ".join(" ".join(a) for a in repeated))
    return out


def _digest(text):
    return hashlib.sha256(text.encode()).hexdigest()


def run_case(entry, work):
    """(stdout, stderr, exit code) of one case, with the directories put back
    as placeholders, after writing a "save" case's stdout to the work dir."""
    argv = [a.replace("{I}", str(INPUTS)).replace("{W}", str(work)) for a in entry["argv"]]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    if "save" in entry:
        pathlib.Path(entry["save"].replace("{W}", str(work))).write_text(out.getvalue())

    def placeholders(text):
        return text.replace(str(work), "{W}").replace(str(INPUTS), "{I}")

    return {"stdout": _digest(placeholders(out.getvalue())),
            "stderr": _digest(placeholders(err.getvalue())), "code": code}


def dump(entries):
    return "[\n" + ",\n".join(json.dumps(e, sort_keys=True) for e in entries) + "\n]\n"


def main():
    import tempfile
    with tempfile.TemporaryDirectory() as tmp:
        work = pathlib.Path(tmp)
        prepare(work)
        entries = [dict(e, **run_case(e, work)) for e in _cases()]
    CORPUS.write_text(dump(entries))
    print("%d cases written to %s" % (len(entries), CORPUS.name), file=sys.stderr)


if __name__ == "__main__":
    main()
