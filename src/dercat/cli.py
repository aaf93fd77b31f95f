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

Every verb is declared once, in VERBS: its handler, its number of --object
files and its options.  main parses a plain command line itself
(parse_plain): the verb path, verify's `which`, then flags and `--name
value` pairs with exact names.  Anything else, --help and usage errors among
it, goes to argparse, whose parser dercat.usage builds from the same table;
argparse, and with it gettext and locale, is imported only then.

A process runs only the layers its verb uses, and imports argparse only
off the plain path.  quiver is imported here and is all that `quiver
validate` runs; the other modules are bound through _lazy, in sys.modules
from start-up but run on first attribute access.  main reads --quiver, and
each --object through derived, before it hands them to the verb.  `tilting
check` and `hom` run quiver and derived, and `sgd` adds sgd: integer
arithmetic, with neither linalg nor fractions.  `mutate`, `comutate` and
`random-tilting` run quiver, derived and mutation.  The `verify` and
`theoremb` verbs live in verify, which `sgd --csv` reads for its row
output; zq (tau, the ZQ coordinates and the knitting order) runs under
`slice`, `verify serre` and `ind list` and wherever slices runs.  `verify
table|delta` run quiver, derived, sgd, mutation and verify, `slice` runs
quiver, derived, zq and slices, and `theoremb` and `verify a|b` reach all
seven.  `ind list` runs quiver and zq alone, `ind list --reps` adds reps
and linalg, and `verify homagree` runs quiver, derived, verify, complexes,
reps and linalg; `verify ringel` adds sgd and mutation.  LazyLoader rather
than imports inside each command, because a tool that wraps functions in
place (the benchmark's tracer, bench/traced.py) looks every layer up in
sys.modules right after importing this module: all ten are there, and each
runs when it is read.
"""

import importlib.util
import os
import sys
import types
from collections import namedtuple

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
zq = _lazy("zq")
dv = _lazy("derived")
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
    print("dynkin: %s" % ("yes" if all(k.is_dynkin for k in kinds) else "no"))
    return 0


def cmd_ind_list(args, q):
    for root in zq.knitting_order(q):
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
        i, (a, s), (b, t) = failure
        roots = qv.roots_of(q).roots
        print("  Hom(%r[%d], %r[%d]) != 0 at i=%d" % (roots[a], s, roots[b], t + i, i))
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
    # tilting first: an object with no summands would otherwise read as a bad index
    pairs = mu.require_tilting(t).pairs
    try:
        idx = [int(i) for i in spec_str.split(",")]
    except ValueError:
        idx = None
    # a negative index would silently pick from the end of the list, and a
    # repeated one would be dropped
    if idx is None or not all(0 <= i < len(pairs) for i in idx) or len(set(idx)) != len(idx):
        raise ValueError("bad --t2 %r; expected comma-separated summand indices 0..%d"
                         % (spec_str, len(pairs) - 1))
    picks = [pairs[i] for i in idx]
    return mu.partition(t, picks) if dual else mu.make_split(t, picks)


def _mutate(args, t, dual):
    split = _parse_t2(t, args.t2, dual)
    out = mu.co_mutate(t, split) if dual else mu.mutate(t, split)
    text = dv.format_object(out)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


def cmd_mutate(args, q, t):
    return _mutate(args, t, False)


def cmd_comutate(args, q, t):
    return _mutate(args, t, True)


def cmd_slice(args, q, t):
    dims = [",".join(map(str, r)) for r in qv.roots_of(q).roots]
    if args.all_slices:
        found, truncated = sls.window_slices(t, args.window_pad)
        for pos in found:
            print("slice: " + " ".join("[%s]@%d" % (dims[a], sh)
                                       for a, sh in sls.slice_from_positions(q, pos).pairs))
        if truncated:
            print("# truncated at cap", file=sys.stderr)
        return 0
    s = sls.find_slice(t)
    for v, (a, sh) in zip(s.vertices, s.pairs):
        mark = "  # source" if v in s.sources else ""
        print("summand dim=[%s] shift=%d mult=1%s" % (dims[a], sh, mark))
    return 0


def cmd_random_tilting(args, q):
    t, log = mu.random_tilting_walk(q, args.seed, args.steps)
    sys.stdout.write(dv.format_object(t))
    for entry in log:
        print("# step %d t2=%s" % (entry["step"], entry["t2"]), file=sys.stderr)
    return 0


# theoremb and verify live in the verify module: read vf.<handler> only when
# the verb runs, or building the table would load verify on every command
def cmd_theoremb(args, q, t):
    return vf.cmd_theoremb(args, q, t)


def cmd_verify(args, q):
    return vf.cmd_verify(args, q)


def non_negative_int(text):
    """Type of the count options: a negative count is a usage error (exit 2)."""
    n = int(text)
    if n < 0:
        import argparse   # here, not at the top: only a usage error needs it
        raise argparse.ArgumentTypeError("must be a non-negative integer, got %d" % n)
    return n


# path: the verb's words; objects: how many --object files it takes (main
# checks the count: `append` alone would take extra files and ignore them);
# options and exclusive: (name, add_argument keywords) pairs, exclusive being
# one mutually exclusive group; help: the first word's line in `dercat --help`
Verb = namedtuple("Verb", "path fn objects options exclusive help")


def _verb(path, fn, *options, objects=0, exclusive=(), help=None):
    """A row of VERBS.  The keywords of an option are type (int or
    non_negative_int; none for a string), required, default, action
    ("append" or "store_true"), help and choices.  A verb with object files
    takes --quiver and --object before its own options."""
    if objects:
        options = (("--quiver", {"required": True, "help": "quiver file"}),
                   ("--object", {"action": "append", "required": True,
                                 "help": "object file" if objects == 1
                                 else "object file, twice: X then Y"})) + options
    return Verb(tuple(path.split()), fn, objects, options, exclusive, help)


QUIVER = ("--quiver", {"required": True})
CSV = ("--csv", {"action": "store_true"})
T2 = ("--t2", {"required": True, "help": "comma-separated summand indices"})
OUT = ("--out", {"help": "output object file"})

# every verb, in the order `dercat --help` lists them
VERBS = (
    _verb("quiver validate", cmd_quiver_validate, QUIVER, help="quiver utilities"),
    _verb("ind list", cmd_ind_list, QUIVER, ("--reps", {"action": "store_true"}),
          help="indecomposables"),
    _verb("hom", cmd_hom, objects=2),
    _verb("tilting check", cmd_tilting_check, objects=1, help="tilting checks"),
    _verb("sgd", cmd_sgd, CSV, objects=1),
    _verb("mutate", cmd_mutate, T2, OUT, objects=1),
    _verb("comutate", cmd_comutate, T2, OUT, objects=1),
    _verb("slice", cmd_slice, ("--all-slices", {"action": "store_true"}),
          ("--window-pad", {"type": non_negative_int, "default": 2}), objects=1),
    _verb("theoremb", cmd_theoremb,
          ("--out-prefix", {"help": "write numbered object files with this prefix"}), CSV,
          objects=1),
    _verb("random-tilting", cmd_random_tilting, QUIVER, ("--seed", {"type": int, "required": True}),
          ("--steps", {"type": non_negative_int, "default": 0})),
    _verb("verify", cmd_verify,
          ("which", {"choices": ["a", "b", "table", "delta", "serre", "homagree", "ringel"]}),
          QUIVER,
          ("--seed", {"type": int, "default": 0}),
          ("--samples", {"type": non_negative_int, "default": 20}),
          ("--window-pad", {"type": non_negative_int, "default": 2}),
          ("--min-checked", {"type": non_negative_int, "default": 0,
                             "help": "exit 1 when fewer instances were checked"}),
          exclusive=(CSV, ("--jsonl", {"action": "store_true"}))),
)


def _value(kw, argv, i):
    """argv[i] as the option or positional takes it, or None where argparse
    might read it otherwise or refuse it: no word, a word starting with "-",
    a type or choices failure."""
    if i >= len(argv) or argv[i].startswith("-"):
        return None
    try:
        value = kw.get("type", str)(argv[i])
    except Exception:   # ValueError or non_negative_int's: argparse repeats the call, reports it
        return None
    return value if value in kw.get("choices", (value,)) else None


def parse_plain(argv):
    """The namespace argparse gives a plain command line, or None.  Plain
    means the verb's words, its positional, then `--name value` pairs and
    flags with exact names, every option it requires, and at most one of an
    exclusive pair.  None (abbreviated or unknown names, `--name=value`, -h,
    --, a value starting with "-" or failing its type) sends argv to argparse."""
    verb = next((v for v in VERBS if tuple(argv[:len(v.path)]) == v.path), None)
    if verb is None:
        return None
    ns = {"cmd": verb.path[0], "fn": verb.fn}
    if len(verb.path) > 1:
        ns["sub"] = verb.path[1]
    if verb.objects:
        # argparse's prog of the verb's subparser
        ns["objects_needed"] = ("dercat " + " ".join(verb.path), verb.objects)
    i = len(verb.path)
    named = {}   # option name -> (dest, keywords)
    for name, kw in verb.options + verb.exclusive:
        if name.startswith("-"):
            dest = name.lstrip("-").replace("-", "_")
            named[name] = dest, kw
            ns[dest] = kw.get("default", False if kw.get("action") == "store_true" else None)
        else:
            ns[name] = _value(kw, argv, i)
            if ns[name] is None:
                return None
            i += 1
    seen = set()
    while i < len(argv):
        if argv[i] not in named:
            return None
        dest, kw = named[argv[i]]
        seen.add(argv[i])
        if kw.get("action") == "store_true":
            ns[dest] = True
            i += 1
            continue
        value = _value(kw, argv, i + 1)
        if value is None:
            return None
        ns[dest] = (ns[dest] or []) + [value] if kw.get("action") == "append" else value
        i += 2
    if any(kw.get("required") and name not in seen for name, (_, kw) in named.items()):
        return None
    if len(seen & {name for name, _ in verb.exclusive}) > 1:
        return None
    return types.SimpleNamespace(**ns)


def _discard_stdout():
    """Point stdout at devnull: output it could not take is dropped, so no
    later flush fails on it again."""
    os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    try:
        args = parse_plain(argv)
        if args is None:
            from . import usage   # argparse: --help, usage errors and every other spelling
            args = usage.build_parser(VERBS, argv).parse_args(argv)
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
