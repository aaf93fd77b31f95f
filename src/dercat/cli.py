"""Command-line surface.

Exit codes: 0 success, 1 property or verdict failure, 2 usage/parse errors,
141 stdout closed by its reader (as a shell reports death by SIGPIPE).
Every command is deterministic given its input files and --seed.  Every
`verify` mode ends by writing `# checked=N skipped=M failed=K` to stderr, so a
run that checked nothing shows as such, and exits 1 below `--min-checked`.

A process runs only the layers its verb uses, and builds only its verb's
subparser (build_parser).  quiver is imported here and is all that `quiver
validate` runs; the other layers are bound through _lazy, in sys.modules
from start-up but run on first attribute access.  `tilting check`, `hom`
and `verify serre` add derived, and `sgd` adds sgd: integer arithmetic,
with neither linalg nor fractions.  `mutate`, `comutate` and
`random-tilting` run quiver, derived and mutation, `verify table|delta` add
sgd, `slice` runs quiver, derived and slices, and `theoremb` and `verify
a|b` run all five.  `ind list` runs quiver, derived, reps and linalg, and
`verify homagree` adds complexes.  LazyLoader rather than imports inside
each command, because a tool that wraps functions in place (the benchmark's
tracer, bench/traced.py) looks every layer up in sys.modules right after
importing this module: all eight are there, and each runs when it is read.
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


# no verb calls linalg directly: it is bound here so that it is in sys.modules
# with the other layers from start-up (see the module docstring)
_lazy("linalg")
dv = _lazy("derived")
sgd = _lazy("sgd")
reps = _lazy("reps")
cx = _lazy("complexes")
sls = _lazy("slices")
mu = _lazy("mutation")


def _read(path):
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _load_quiver(path):
    return qv.parse_quiver(_read(path))


def _load_object(q, path):
    return dv.parse_object(q, _read(path))


def _object_hash(x):
    import hashlib   # here, not at the top: most verbs never hash
    return hashlib.sha256(dv.format_object(x).encode()).hexdigest()[:12]


def _emit_rows(rows, header, fmt):
    if fmt == "csv":
        import csv   # here, not at the top: only the --csv outputs write CSV
        out = csv.writer(sys.stdout, lineterminator="\n")
        out.writerow(header)
        out.writerows([r[h] for h in header] for r in rows)
    elif fmt == "jsonl":
        import json   # here, not at the top: only `verify --jsonl` prints JSON
        for r in rows:
            print(json.dumps(r, sort_keys=True))
    else:
        for r in rows:
            print("  ".join("%s=%s" % (h, r[h]) for h in header))


def cmd_quiver_validate(args):
    q = _load_quiver(args.quiver)
    kinds = qv.classify_components(q)
    print("vertices %d, arrows %d" % (q.n, len(q.arrows)))
    print("components: %s" % ", ".join(str(k) for k in kinds))
    print("dynkin: %s" % ("yes" if qv.is_dynkin(q) else "no"))
    return 0


def cmd_ind_list(args):
    q = _load_quiver(args.quiver)
    for root in reps.knitting_order(q):
        if args.reps:
            print(reps.format_rep(reps.indec_of_root(q, root)), end="")
        else:
            print("dim=[%s]" % ",".join(str(d) for d in root))
    return 0


def cmd_hom(args):
    q = _load_quiver(args.quiver)
    x = _load_object(q, args.object[0])
    y = _load_object(q, args.object[1])
    print("dim Hom = %d" % dv.hom_dim(x, y))
    return 0


def cmd_tilting_check(args):
    q = _load_quiver(args.quiver)
    t = _load_object(q, args.object[0])
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


def cmd_sgd(args):
    q = _load_quiver(args.quiver)
    t = _load_object(q, args.object[0])
    rep = sgd.sgldim(t)
    if args.csv:
        row = {"quiver": "+".join(sorted(str(k) for k in qv.classify_components(q))),
               "object-hash": _object_hash(t), "value": rep.value,
               "witness": dv.format_object(rep.witness).strip().replace("\n", ";")}
        _emit_rows([row], ["quiver", "object-hash", "value", "witness"], "csv")
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


def cmd_mutate(args, dual=False):
    q = _load_quiver(args.quiver)
    t = _load_object(q, args.object[0])
    split = _parse_t2(t, args.t2, dual)
    out = mu.co_mutate(t, split) if dual else mu.mutate(t, split)
    text = dv.format_object(out)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


def cmd_slice(args):
    q = _load_quiver(args.quiver)
    t = _load_object(q, args.object[0])
    if args.all_slices:
        found, truncated = sls.window_slices(t, args.window_pad)
        for s in found:
            print("slice: " + " ".join("[%s]@%d" % (",".join(map(str, r)), sh)
                                       for r, sh in s.objects))
        if truncated:
            print("# truncated at cap", file=sys.stderr)
        return 0
    s = sls.find_slice(t)
    src_objs = set(dv.zq_object(q, *v) for v in s.sources)
    for r, sh in s.objects:
        mark = "  # source" if (r, sh) in src_objs else ""
        print("summand dim=[%s] shift=%d mult=1%s" % (",".join(map(str, r)), sh, mark))
    return 0


def cmd_theoremb(args):
    q = _load_quiver(args.quiver)
    t = _load_object(q, args.object[0])
    seq = mu.theoremB_sequence(t)
    rows = []
    for i, (obj, split) in enumerate(seq):
        if args.out_prefix:
            with open("%s%d.obj" % (args.out_prefix, i), "w", encoding="utf-8") as fh:
                fh.write(dv.format_object(obj))
        rows.append({"index": i, "sgldim": sgd.sgldim(obj).value,
                     "object": _object_hash(obj)})
    _emit_rows(rows, ["index", "sgldim", "object"], "csv" if args.csv else "text")
    return 0


def cmd_random_tilting(args):
    q = _load_quiver(args.quiver)
    t, log = mu.random_tilting_walk(q, args.seed, args.steps)
    sys.stdout.write(dv.format_object(t))
    for entry in log:
        print("# step %d t2=%s" % (entry["step"], entry["t2"]), file=sys.stderr)
    return 0


# bound on the walks `verify delta|table` draws per requested instance, so the
# loop ends even if walks keep landing on objects with no admissible split
MAX_WALKS_PER_SAMPLE = 10


def _corpus(q, seed, samples):
    return [mu.random_tilting_walk(q, seed + k, 4 + (seed + k) % 7)[0] for k in range(samples)]


def cmd_verify(args):
    q = _load_quiver(args.quiver)
    fmt = "csv" if args.csv else ("jsonl" if args.jsonl else "text")
    rows = []
    failures = 0
    which = args.which

    def fail_row(row, obj=None):
        nonlocal failures
        failures += 1
        rows.append(row)
        if obj is not None:
            print("# replay object:", file=sys.stderr)
            sys.stderr.write(dv.format_object(obj))

    if which in ("homagree", "serre"):
        pairs = [(r, s) for r in qv.positive_roots(q) for s in range(4)]

        def tag(r, s):
            return "%s@%d" % (".".join(str(d) for d in r), s)

        for r1, s1 in pairs:
            for r2, s2 in pairs:
                if which == "homagree":
                    a = dv.pair_hom_dim(q, r1, s1, r2, s2)
                    b = cx.homk_pair_dim(q, r1, r2, s2 - s1)
                    ok = a == b
                    detail = "%d/%d" % (a, b)
                else:
                    ok = dv.serre_dual_check(dv.stalk(q, r1, s1), dv.stalk(q, r2, s2))
                    detail = ""
                row = {"check": which, "x": tag(r1, s1), "y": tag(r2, s2),
                       "status": "pass" if ok else "FAIL", "detail": detail}
                if ok:
                    rows.append(row)
                else:
                    fail_row(row)
        _emit_rows(rows, ["check", "x", "y", "status", "detail"], fmt)
    elif which in ("delta", "table"):
        if q.n < 2:
            print("error: verify %s needs at least two vertices: a tilting object with one "
                  "summand has no admissible split to mutate at" % which, file=sys.stderr)
            return 2
        count = args.samples
        done = 0
        k = 0
        while done < count:
            if k >= MAX_WALKS_PER_SAMPLE * count:
                print("error: only %d of %d instances had an admissible split after %d walks"
                      % (done, count, k), file=sys.stderr)
                failures += 1
                break
            t, _ = mu.random_tilting_walk(q, args.seed + k, 3 + k % 6)
            k += 1
            splits = mu.admissible_splits(t)
            if not splits:
                continue
            split = splits[(args.seed + k) % len(splits)]
            tp = mu.mutate(t, split)
            try:
                if which == "delta":
                    detail = "delta=%d" % mu.sgd_delta(t, tp)
                else:
                    roots = qv.positive_roots(q)
                    cells = 0
                    for kk in range(tp.min_shift - 1, tp.max_shift + 2):
                        for root in roots:
                            mu.verify_length_table(t, tp, split, dv.stalk(q, root, kk))
                            cells += 1
                    detail = "cells=%d" % cells
                rows.append({"check": which, "instance": _object_hash(t),
                             "status": "pass", "detail": detail})
            except qv.InternalInconsistencyError as e:
                fail_row({"check": which, "instance": _object_hash(t),
                          "status": "FAIL", "detail": str(e)}, t)
            done += 1
        _emit_rows(rows, ["check", "instance", "status", "detail"], fmt)
    elif which in ("a", "b"):
        for t in _corpus(q, args.seed, args.samples):
            value = sgd.sgldim(t).value
            row = {"check": which, "instance": _object_hash(t), "status": "pass"}
            if value < 2:
                rows.append(dict(row, status="skip", detail="hereditary"))
                continue
            try:
                if which == "a":
                    rep = sls.theoremA_verify(t, window_pad=args.window_pad)
                    row["detail"] = "ell=%d sgd=%d slices=%d%s" % (
                        rep.ell, rep.sgd, rep.slices_checked, " truncated" if rep.truncated else "")
                else:
                    seq = mu.theoremB_sequence(t)
                    row["detail"] = "length=%d" % (len(seq) - 1)
                    if len(seq) - 1 != value - 2 or any(
                            sgd.sgldim(obj).value != 2 + i for i, (obj, _) in enumerate(seq)):
                        row["status"] = "FAIL"
            except qv.InternalInconsistencyError as e:
                row.update(status="FAIL", detail=str(e))
            if row["status"] == "pass":
                rows.append(row)
            else:
                fail_row(row, t)
        _emit_rows(rows, ["check", "instance", "status", "detail"], fmt)
    # pass and FAIL rows were checked; stdout stays the rows alone
    checked = sum(1 for r in rows if r["status"] != "skip")
    print("# checked=%d skipped=%d failed=%d" % (checked, len(rows) - checked, failures),
          file=sys.stderr)
    if checked < args.min_checked:
        print("error: %d instances checked, fewer than --min-checked %d"
              % (checked, args.min_checked), file=sys.stderr)
        return 1
    return 1 if failures else 0


def non_negative_int(text):
    """argparse type of the count options: a negative count is a usage error (exit 2)."""
    n = int(text)
    if n < 0:
        raise argparse.ArgumentTypeError("must be a non-negative integer, got %d" % n)
    return n


# the verbs, in the order the full parser lists them
VERBS = ("quiver", "ind", "hom", "tilting", "sgd", "mutate", "comutate", "slice", "theoremb",
         "random-tilting", "verify")


class _Unbuilt:
    """A verb's subparser when another verb is on the command line: a no-op."""

    def __getattr__(self, name):
        return lambda *args, **kwargs: self


def build_parser(argv):
    """The parser, with only the subparser of the verb argv starts with, if any
    (no argument, --help, a typo: all of them); the usage line names every
    verb either way, so usage and error text are the full parser's."""
    verb = argv[0] if argv and argv[0] in VERBS else None
    p = argparse.ArgumentParser(prog="dercat",
                                description="Exact derived-category computations for Dynkin quivers")
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
        m.set_defaults(fn=lambda a, dual=dual: cmd_mutate(a, dual))

    sl = add_parser("slice")
    add_common(sl, objects=1)
    sl.add_argument("--all-slices", action="store_true")
    sl.add_argument("--window-pad", type=non_negative_int, default=2)
    sl.set_defaults(fn=cmd_slice)

    tb = add_parser("theoremb")
    add_common(tb, objects=1)
    tb.add_argument("--out-prefix", help="write numbered object files with this prefix")
    tb.add_argument("--csv", action="store_true")
    tb.set_defaults(fn=cmd_theoremb)

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
    ve.set_defaults(fn=cmd_verify)
    return p


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    try:
        args = build_parser(argv).parse_args(argv)
    except SystemExit as e:
        return 2 if e.code not in (0, None) else 0
    prog, needed = getattr(args, "objects_needed", (None, 0))
    if needed and len(args.object) != needed:
        print("error: %s takes exactly %d --object file%s, got %d"
              % (prog, needed, "s" if needed > 1 else "", len(args.object)), file=sys.stderr)
        return 2
    try:
        code = args.fn(args)
        sys.stdout.flush()   # a closed pipe must show here, not at exit
        return code
    except BrokenPipeError:
        # `dercat ... | head`: quiet; devnull stops a second failure at exit
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except (OSError, ValueError, qv.QuiverError) as e:
        print("error: %s" % e, file=sys.stderr)
        return 2
    except qv.InternalInconsistencyError as e:
        print("invariant breach: %s" % e, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
