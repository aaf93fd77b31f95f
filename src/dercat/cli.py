"""Command-line surface.

Exit codes: 0 success, 1 property or verdict failure, 2 usage/parse errors
and failed reads or writes, 141 stdout closed by its reader (as a shell
reports death by SIGPIPE).  `main(argv)` is the in-process API: it returns
the exit code and leaves the interpreter as it is.  A process enters through
`run`, which calls main, flushes stdout and stderr and leaves by os._exit,
without interpreter teardown.  Every command is deterministic given its
input files and --seed.  Every `verify` mode ends by writing
`# checked=N skipped=M failed=K` to stderr, so a run that checked nothing
shows as such, and exits 1 below `--min-checked`.

A process runs only the layers its verb uses, and builds only its verb's
subparser (build_parser).  quiver is imported here and is all that `quiver
validate` runs; the other modules are bound through _lazy, in sys.modules
from start-up but run on first attribute access.  main reads --quiver, and
each --object through derived, before it hands them to the verb.  `tilting
check` and `hom` run quiver and derived, and `sgd` adds sgd: integer
arithmetic, with neither linalg nor fractions.  `mutate`, `comutate` and
`random-tilting` run quiver, derived and mutation.  The `verify` and
`theoremb` verbs live in verify, which `sgd --csv` reads for its row
output; zq (tau and the ZQ coordinates) runs under `slice`, `verify serre`
and `ind list` and wherever slices runs.  `verify table|delta` run quiver,
derived, sgd, mutation and verify, `slice` runs quiver, derived, zq and
slices, and `theoremb` and `verify a|b` reach all seven.  `ind list` runs
quiver, zq, reps and linalg, and `verify homagree` quiver, derived,
verify, complexes, reps and linalg.  LazyLoader rather than imports inside
each command, because a tool that wraps functions in place (the benchmark's
tracer, bench/traced.py) looks every layer up in sys.modules right after
importing this module: all ten are there, and each runs when it is read.
"""

import argparse
import importlib.util
import os
import sys

from . import quiver as qv


def _lazy(name):
    """dercat.<name>, whose code runs on its first attribute access: the
    importlib.util.LazyLoader recipe, except that a module already in
    sys.modules is returned as it is (a second module object would hide a
    monkeypatch on the first)."""
    full = "%s.%s" % (__package__, name)
    if full in sys.modules:
        return sys.modules[full]
    spec = importlib.util.find_spec(full)
    loader = importlib.util.LazyLoader(spec.loader)
    spec.loader = loader
    module = importlib.util.module_from_spec(spec)
    sys.modules[full] = module
    loader.exec_module(module)
    # as an eager import would, so `import dercat.<name>` can reach it
    setattr(sys.modules[__package__], name, module)
    return module


# no handler here calls linalg or complexes directly: they are bound so that
# they are in sys.modules with the other layers from start-up (see the module
# docstring)
_lazy("linalg")
_lazy("complexes")
dv = _lazy("derived")
zq = _lazy("zq")
sgd = _lazy("sgd")
reps = _lazy("reps")
sls = _lazy("slices")
mu = _lazy("mutation")
vf = _lazy("verify")


def _read(path):
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def cmd_quiver_validate(args, q):
    kinds = qv.classify_components(q)
    print("vertices %d, arrows %d" % (q.n, len(q.arrows)))
    print("components: %s" % ", ".join(str(k) for k in kinds))
    print("dynkin: %s" % ("yes" if qv.is_dynkin(q) else "no"))
    return 0


def cmd_ind_list(args, q):
    for root in reps.knitting_order(q):
        if args.reps:
            print(reps.format_rep(reps.indec_of_root(q, root)), end="")
        else:
            print("dim=[%s]" % ",".join(str(d) for d in root))
    return 0


def cmd_hom(args, q, x, y):
    print("dim Hom = %d" % dv.hom_dim(x, y))
    return 0


def cmd_tilting_check(args, q, t):
    tb = t.basic()
    failure = dv.rigidity_failure(tb)
    unimodular = dv.k0_unimodular(tb)
    tilting = dv.is_tilting(tb)
    print("rigid: %s" % ("no" if failure else "yes"))
    if failure:
        i, src, tgt = failure
        print("  Hom(%r[%d], %r[%d]) != 0 at i=%d" % (src[0], src[1], tgt[0], tgt[1] + i, i))
    print("summands: %d of %d" % (tb.num_distinct(), q.n))
    print("unimodular classes: %s" % ("yes" if unimodular else "no"))
    print("tilting: %s" % ("yes" if tilting else "no"))
    return 0 if tilting else 1


def cmd_sgd(args, q, t):
    rep = sgd.sgldim(t)
    if args.csv:
        row = {"quiver": "+".join(sorted(str(k) for k in qv.classify_components(q))),
               "object-hash": vf.object_hash(t), "value": rep.value,
               "witness": dv.format_object(rep.witness).strip().replace("\n", ";")}
        vf.emit_rows([row], ["quiver", "object-hash", "value", "witness"], "csv")
    else:
        print("s.gl.dim = %d" % rep.value)
        print("witness:")
        sys.stdout.write(dv.format_object(rep.witness))
    return 0


def _parse_t2(t, spec_str, dual):
    """The split with the listed summands as t2: admissible for mutate, any
    partition for comutate (the split inverting a mutation need not be admissible)."""
    indecs = t.basic().indecs()
    try:
        idx = [int(i) for i in spec_str.split(",")]
    except ValueError:
        idx = None
    # a negative index would silently pick from the end of the list, and a
    # repeated one would be dropped
    if idx is None or not all(0 <= i < len(indecs) for i in idx) or len(set(idx)) != len(idx):
        raise ValueError("bad --t2 %r; expected comma-separated summand indices 0..%d"
                         % (spec_str, len(indecs) - 1))
    picks = [indecs[i] for i in idx]
    return mu.partition(t, picks) if dual else mu.make_split(t, picks)


def cmd_mutate(args, t, dual):
    split = _parse_t2(t, args.t2, dual)
    out = mu.co_mutate(t, split) if dual else mu.mutate(t, split)
    text = dv.format_object(out)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


def cmd_slice(args, q, t):
    if args.all_slices:
        found, truncated = sls.window_slices(t, args.window_pad)
        for s in found:
            print("slice: " + " ".join("[%s]@%d" % (",".join(map(str, r)), sh)
                                       for r, sh in s.objects))
        if truncated:
            print("# truncated at cap", file=sys.stderr)
        return 0
    s = sls.find_slice(t)
    src_objs = set(zq.zq_object(q, *v) for v in s.sources)
    for r, sh in s.objects:
        mark = "  # source" if (r, sh) in src_objs else ""
        print("summand dim=[%s] shift=%d mult=1%s" % (",".join(map(str, r)), sh, mark))
    return 0


def cmd_random_tilting(args, q):
    t, log = mu.random_tilting_walk(q, args.seed, args.steps)
    sys.stdout.write(dv.format_object(t))
    for entry in log:
        print("# step %d t2=%s" % (entry["step"], entry["t2"]), file=sys.stderr)
    return 0


def non_negative_int(text):
    """argparse type of the count options: a negative count is a usage error (exit 2)."""
    n = int(text)
    if n < 0:
        raise argparse.ArgumentTypeError("must be a non-negative integer, got %d" % n)
    return n


# the verbs, in the order the full parser lists them
VERBS = ("quiver", "ind", "hom", "tilting", "sgd", "mutate", "comutate", "slice", "theoremb",
         "random-tilting", "verify")


class _Parser(argparse.ArgumentParser):
    """argparse's parser, except that text it cannot write to stdout raises
    the OSError, for main to report: argparse drops it, and `--help >
    /dev/full` on unbuffered stdout exited 0.  A failed write to stderr,
    where argparse reports usage errors, still passes: nothing is left to
    report it on."""

    def _print_message(self, message, file=None):
        if message and file is sys.stdout:
            file.write(message)
        else:
            super()._print_message(message, file)


class _Unbuilt:
    """A verb's subparser when another verb is on the command line: a no-op."""

    def __getattr__(self, name):
        return lambda *args, **kwargs: self


def build_parser(argv):
    """The parser, with only the subparser of the verb argv starts with, if any
    (no argument, --help, a typo: all of them); the usage line names every
    verb either way, so usage and error text are the full parser's."""
    verb = argv[0] if argv and argv[0] in VERBS else None
    p = _Parser(prog="dercat", description="Exact derived-category computations for Dynkin quivers")
    sub = p.add_subparsers(dest="cmd", required=True,
                           metavar="{%s}" % ",".join(VERBS) if verb else None)

    def add_parser(name, **kwargs):
        return sub.add_parser(name, **kwargs) if verb in (None, name) else _Unbuilt()

    def add_common(sp, objects):
        sp.add_argument("--quiver", required=True, help="quiver file")
        sp.add_argument("--object", action="append", required=True,
                        help="object file" if objects == 1 else "object file, twice: X then Y")
        # main checks the count: `append` alone would take extra files and ignore them
        sp.set_defaults(objects_needed=(sp.prog, objects))

    spq = add_parser("quiver", help="quiver utilities")
    sq = spq.add_subparsers(dest="sub", required=True)
    v = sq.add_parser("validate")
    v.add_argument("--quiver", required=True)
    v.set_defaults(fn=cmd_quiver_validate)

    spi = add_parser("ind", help="indecomposables")
    si = spi.add_subparsers(dest="sub", required=True)
    il = si.add_parser("list")
    il.add_argument("--quiver", required=True)
    il.add_argument("--reps", action="store_true")
    il.set_defaults(fn=cmd_ind_list)

    h = add_parser("hom")
    add_common(h, objects=2)
    h.set_defaults(fn=cmd_hom)

    spt = add_parser("tilting", help="tilting checks")
    st = spt.add_subparsers(dest="sub", required=True)
    tc = st.add_parser("check")
    add_common(tc, objects=1)
    tc.set_defaults(fn=cmd_tilting_check)

    s = add_parser("sgd")
    add_common(s, objects=1)
    s.add_argument("--csv", action="store_true")
    s.set_defaults(fn=cmd_sgd)

    for name, dual in (("mutate", False), ("comutate", True)):
        m = add_parser(name)
        add_common(m, objects=1)
        m.add_argument("--t2", required=True, help="comma-separated summand indices")
        m.add_argument("--out", help="output object file")
        m.set_defaults(fn=lambda a, q, t, dual=dual: cmd_mutate(a, t, dual))

    sl = add_parser("slice")
    add_common(sl, objects=1)
    sl.add_argument("--all-slices", action="store_true")
    sl.add_argument("--window-pad", type=non_negative_int, default=2)
    sl.set_defaults(fn=cmd_slice)

    tb = add_parser("theoremb")
    add_common(tb, objects=1)
    tb.add_argument("--out-prefix", help="write numbered object files with this prefix")
    tb.add_argument("--csv", action="store_true")
    # through a lambda: set_defaults runs for unbuilt verbs too, and reading
    # vf.cmd_theoremb here would load verify on every parse
    tb.set_defaults(fn=lambda a, q, t: vf.cmd_theoremb(a, q, t))

    rt = add_parser("random-tilting")
    rt.add_argument("--quiver", required=True)
    rt.add_argument("--seed", type=int, required=True)
    rt.add_argument("--steps", type=non_negative_int, default=0)
    rt.set_defaults(fn=cmd_random_tilting)

    ve = add_parser("verify")
    ve.add_argument("which", choices=["a", "b", "table", "delta", "serre", "homagree"])
    ve.add_argument("--quiver", required=True)
    ve.add_argument("--seed", type=int, default=0)
    ve.add_argument("--samples", type=non_negative_int, default=20)
    ve.add_argument("--window-pad", type=non_negative_int, default=2)
    ve.add_argument("--min-checked", type=non_negative_int, default=0,
                    help="exit 1 when fewer instances were checked")
    fmt = ve.add_mutually_exclusive_group()
    fmt.add_argument("--csv", action="store_true")
    fmt.add_argument("--jsonl", action="store_true")
    ve.set_defaults(fn=lambda a, q: vf.cmd_verify(a, q))
    return p


def _discard_stdout():
    """Point stdout at devnull: output it could not take is dropped, so no
    later flush fails on it again."""
    os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    try:
        args = build_parser(argv).parse_args(argv)
        prog, needed = getattr(args, "objects_needed", (None, 0))
        if needed and len(args.object) != needed:
            print("error: %s takes exactly %d --object file%s, got %d"
                  % (prog, needed, "s" if needed > 1 else "", len(args.object)), file=sys.stderr)
            return 2
        # every verb reads --quiver, then its --object files over that quiver
        q = qv.parse_quiver(_read(args.quiver))
        objects = [dv.parse_object(q, _read(path)) for path in getattr(args, "object", ())]
        code = args.fn(args, q, *objects)
        sys.stdout.flush()   # a closed pipe must show here, not at exit
        return code
    except SystemExit as e:   # argparse's, after --help or a usage error it printed
        return 2 if e.code not in (0, None) else 0
    except BrokenPipeError:
        # `dercat ... | head`: quiet; devnull stops a second failure at exit
        _discard_stdout()
        return 141
    except (OSError, ValueError, qv.QuiverError) as e:
        print("error: %s" % e, file=sys.stderr)
        # one report: output that stdout cannot take is dropped, not met
        # again by run's flush; output it can take is written as before
        try:
            sys.stdout.flush()
        except OSError:
            _discard_stdout()
        return 2
    except qv.InternalInconsistencyError as e:
        print("invariant breach: %s" % e, file=sys.stderr)
        return 1


def run():
    """The process entry (`python -m dercat.cli`, the `dercat` script): main
    on sys.argv, then flush and leave through os._exit, skipping module
    teardown and the final collection.  Nothing needs them: dercat registers
    no atexit handler, starts no thread, and closes every file it writes
    before main returns.  An exception escaping main propagates as usual."""
    code = main()
    # main flushes only after a verb returns or fails: --help and usage
    # errors reach this flush with stdout unwritten
    try:
        sys.stdout.flush()
    except BrokenPipeError:
        _discard_stdout()
        code = 141
    except OSError as e:
        print("error: %s" % e, file=sys.stderr)
        code = 2
    try:
        sys.stderr.flush()
    except OSError:
        code = code or 2   # nothing left to report it on
    os._exit(code)


if __name__ == "__main__":
    run()
