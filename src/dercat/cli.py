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

Every verb, and each `verify` mode, is declared once, in VERBS: its handler,
its help line, its number of --object files and the options it reads, and no
other.  parse reads every command line from that table alone, and writes the
help text and the usage errors from it too: it imports nothing.

A process runs only the layers its verb uses.  quiver is imported here and
is all that `quiver validate` runs; the other modules are bound through
_lazy, in sys.modules from start-up but run on first attribute access.  main
reads --quiver, and each --object through derived, before it hands them to
the verb.  `tilting check` and `hom` run quiver and derived, and `sgd` adds
sgd: integer arithmetic, with neither linalg nor fractions.  `mutate`,
`comutate` and `random-tilting` run quiver, derived and mutation.  The
`verify` and `theoremb` verbs live in verify, which `sgd --csv` reads for
its row output; zq (tau, the ZQ coordinates and the knitting order) runs
under `slice`, `verify serre` and `ind list` and wherever slices runs.
`verify table|delta` run quiver, derived, sgd, mutation and verify, `slice`
runs quiver, derived, zq and slices, and `theoremb` and `verify a|b` reach
all seven.  `ind list` runs quiver and zq alone, `ind list --reps` adds reps
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
        idx = [qv.integer(i) for i in spec_str.split(",")]
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
    if args.window_pad is not None and not args.all_slices:
        raise ValueError("--window-pad applies only with --all-slices")
    dims = [",".join(map(str, r)) for r in qv.roots_of(q).roots]
    if args.all_slices:
        pad = WINDOW_PAD if args.window_pad is None else args.window_pad
        found, truncated = sls.window_slices(t, pad)
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
    """Type of the count options: quiver.integer, and not negative.  Either
    failure is a ValueError, which parse reports as a usage error (exit 2)."""
    n = qv.integer(text)
    if n < 0:
        raise ValueError("must be a non-negative integer, got %d" % n)
    return n


Verb = namedtuple("Verb", "path fn help objects options exclusive")


def _verb(path, fn, help, *options, objects=0, exclusive=()):
    """A row of VERBS: its words, handler and help line, how many --object
    files it takes (parse checks the count: `append` alone would take extra
    files), and its options as (name, keywords) pairs, exclusive being a group
    of which a line gives at most one.  The keywords are type (quiver.integer
    or non_negative_int; none for a string), required, default, action
    ("append" or "store_true") and help.  A verb with object files takes
    --quiver and --object before its own options."""
    if objects:
        options = (QUIVER, ("--object", {"action": "append", "required": True,
                                         "help": "object file" if objects == 1
                                         else "object file, twice: X then Y"})) + options
    return Verb(tuple(path.split()), fn, help, objects, options, exclusive)


WINDOW_PAD = 2   # the default --window-pad of `slice --all-slices` and `verify a`
QUIVER = ("--quiver", {"required": True, "help": "quiver file"})
CSV = ("--csv", {"action": "store_true", "help": "print rows as CSV"})
T2 = ("--t2", {"required": True, "help": "comma-separated summand indices"})
OUT = ("--out", {"help": "output object file"})
SEED = ("--seed", {"type": qv.integer, "default": 0, "help": "seed of the first walk"})
SAMPLES = ("--samples", {"type": non_negative_int, "default": 20, "help": "instances to check"})
MIN_CHECKED = ("--min-checked", {"type": non_negative_int, "default": 0,
                                 "help": "exit 1 when fewer instances were checked"})


def _verify(mode, help, *options):
    """`verify <mode>`: --quiver, the options its rows read, --min-checked, --csv|--jsonl."""
    return _verb("verify " + mode, cmd_verify, help, QUIVER, *options, MIN_CHECKED, exclusive=(
        CSV, ("--jsonl", {"action": "store_true", "help": "print rows as JSON lines"})))


# every verb, in the order `dercat --help` lists them
VERBS = (
    _verb("quiver validate", cmd_quiver_validate, "check a quiver file and name its components",
          QUIVER),
    _verb("ind list", cmd_ind_list, "list the indecomposables in knitting order", QUIVER,
          ("--reps", {"action": "store_true", "help": "print each as a representation"})),
    _verb("hom", cmd_hom, "dim Hom(X, Y) in the derived category", objects=2),
    _verb("tilting check", cmd_tilting_check, "check that T is tilting", objects=1),
    _verb("sgd", cmd_sgd, "strong global dimension of End(T), with a witness", CSV, objects=1),
    _verb("mutate", cmd_mutate, "mutate T at the summands --t2", T2, OUT, objects=1),
    _verb("comutate", cmd_comutate, "co-mutate T at the summands --t2", T2, OUT, objects=1),
    _verb("slice", cmd_slice, "the slice of T, or with --all-slices every slice near it",
          ("--all-slices", {"action": "store_true"}),
          ("--window-pad", {"type": non_negative_int}), objects=1),
    _verb("theoremb", cmd_theoremb, "the Theorem B mutation chain from T",
          ("--out-prefix", {"help": "write numbered object files with this prefix"}), CSV,
          objects=1),
    _verb("random-tilting", cmd_random_tilting, "a tilting object from a seeded mutation walk",
          QUIVER, ("--seed", {"type": qv.integer, "required": True}),
          ("--steps", {"type": non_negative_int, "default": 0})),
    _verify("a", "Theorem A, s.gl.dim = ell + 2, on seeded walks", SEED, SAMPLES,
            ("--window-pad", {"type": non_negative_int, "default": WINDOW_PAD})),
    _verify("b", "the Theorem B chain on seeded walks", SEED, SAMPLES),
    _verify("table", "the length table of seeded mutations", SEED, SAMPLES),
    _verify("delta", "s.gl.dim moves by at most 1 under seeded mutations", SEED, SAMPLES),
    _verify("serre", "Serre duality on indecomposables at shifts 0 to 3"),
    _verify("homagree", "Hom by Happel's rule against the chain-map oracle"),
    _verify("ringel", "s.gl.dim against the chain-map oracle on seeded walks", SEED, SAMPLES),
)


class UsageError(ValueError):
    """A command line that no row of VERBS takes: the usage line of the verb or
    command group that it names, then the error.  main prints it and exits 2."""

    def __init__(self, path, message):
        super().__init__("%s\n%s: error: %s" % (_usage(path), " ".join(("dercat",) + path),
                                                 message))


def _dest(name):
    return name[2:].replace("-", "_")


def _spell(name, kw):
    return name if kw.get("action") == "store_true" else name + " " + _dest(name).upper()


def _under(path):
    """The rows under path: [the verb] where path is a verb's, else its group's."""
    return [v for v in VERBS if v.path[:len(path)] == path]


def _usage(path):
    verb = _under(path)[0]
    if verb.path != path:   # a command group
        tail = ["{%s} ..." % ",".join(dict.fromkeys(v.path[len(path)] for v in _under(path)))]
    else:
        tail = [_spell(n, kw) if kw.get("required") else "[%s]" % _spell(n, kw)
                for n, kw in verb.options]
        if verb.exclusive:
            tail.append("[%s]" % " | ".join(_spell(n, kw) for n, kw in verb.exclusive))
    return " ".join(("usage: dercat",) + path + ("[-h]",) + tuple(tail))


def _help(path):
    """What -h prints: the usage line, then the verb's options or the group's commands."""
    verb = _under(path)[0]
    if verb.path == path:
        head = [verb.help, "", "options:"]
        table = [("-h, --help", "show this help and exit")] + [
            (_spell(n, kw), kw.get("help", "")) for n, kw in verb.options + verb.exclusive]
    else:
        head = ([] if path else ["Exact derived-category computations for Dynkin quivers", ""])
        head, table = head + ["commands:"], [(" ".join(v.path), v.help) for v in _under(path)]
    width = max(len(left) for left, _ in table) + 2
    lines = [("  " + left.ljust(width) + right).rstrip() for left, right in table]
    return "\n".join([_usage(path), ""] + head + lines) + "\n"


def _is_value(word):
    """A word an option takes as its value: not "-..." unless "-" or a negative integer."""
    return not word.startswith("-") or word == "-" or word[1:].isdecimal()


def _is_help(word):
    return word == "-h" or len(word) > 2 and "--help".startswith(word)


def parse(argv):
    """The namespace of argv's verb, or the help text that -h or --help asks
    for; a line that no row takes raises UsageError.  argv is the verb's
    words, then its options in any order: a name is the option's, or a prefix
    of it and of no other, and a value follows "=" in the same word or is the
    next word (_is_value).  -h after the command's words wins over any error."""
    verb = next((v for v in VERBS if tuple(argv[:len(v.path)]) == v.path), None)
    # no verb: the command group that argv starts with, whose help and usage
    # list its commands, else the top level
    path = verb.path if verb else tuple(argv[:1])
    if not _under(path):
        path = ()
    words = argv[len(path):]
    if any(_is_help(w) for w in words):
        return _help(path)
    if verb is None:
        raise UsageError(path, "invalid choice: %r" % words[0] if words else "missing command")
    options = dict(verb.options + verb.exclusive)
    ns = dict(zip(("cmd", "sub"), path), fn=verb.fn)
    ns.update((_dest(n), kw.get("default", False if kw.get("action") == "store_true" else None))
              for n, kw in options.items())
    extras, i = [], 0
    while i < len(words):
        word, i = words[i], i + 1
        name, eq, value = word.partition("=")
        found = [name] if name in options else [n for n in options if n.startswith(name)]
        if word == "--" or _is_value(word) or not found:   # no verb takes positionals
            extras.append(word)
            continue
        if len(found) > 1:
            raise UsageError(path, "ambiguous option: %s could match %s"
                             % (name, ", ".join(found)))
        name, kw = found[0], options[found[0]]
        if kw.get("action") == "store_true":
            if eq:
                raise UsageError(path, "argument %s: ignored explicit argument %r" % (name, value))
            value = True
        else:
            if not eq:
                if i == len(words) or not _is_value(words[i]):
                    raise UsageError(path, "argument %s: expected one argument" % name)
                value, i = words[i], i + 1
            try:
                value = kw.get("type", str)(value)
            except ValueError as e:
                raise UsageError(path, "argument %s: %s" % (name, e)) from None
        dest = _dest(name)
        ns[dest] = (ns[dest] or []) + [value] if kw.get("action") == "append" else value
    both = [n for n, _ in verb.exclusive if ns[_dest(n)]]
    if len(both) > 1:
        raise UsageError(path, "argument %s: not allowed with argument %s" % tuple(both[::-1]))
    missing = [n for n, kw in verb.options if kw.get("required") and ns[_dest(n)] is None]
    if missing:
        raise UsageError(path, "the following arguments are required: %s" % ", ".join(missing))
    if extras:
        raise UsageError(path, "unrecognized arguments: %s" % " ".join(extras))
    if verb.objects and len(ns["object"]) != verb.objects:
        raise ValueError("dercat %s takes exactly %d --object file%s, got %d" % (
            " ".join(path), verb.objects, "s" if verb.objects > 1 else "", len(ns["object"])))
    return types.SimpleNamespace(**ns)


def _discard_stdout():
    """Point stdout at devnull: output it could not take is dropped, so no
    later flush fails on it again."""
    os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    try:
        args = parse(argv)
        if isinstance(args, str):   # the help text, on stdout like any output
            sys.stdout.write(args)
            code = 0
        else:
            # every verb reads --quiver, then its --object files over that quiver
            q = qv.parse_quiver(_read(args.quiver))
            objects = [dv.parse_object(q, _read(path)) for path in getattr(args, "object", ())]
            code = args.fn(args, q, *objects)
        sys.stdout.flush()   # a closed pipe must show here, not at exit
        return code
    except UsageError as e:
        print(e, file=sys.stderr)
        return 2
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
    # main flushes only after a verb or the help text is written: a usage
    # error reaches this flush with stdout unwritten
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
