"""The `verify` and `theoremb` verbs, and the row output they share with `sgd --csv`.

cli binds this module lazily, like the layers, so the verbs that never
print rows never compile it.  It does not import cli: under `python -m
dercat.cli` that import would compile cli a second time, as dercat.cli
beside __main__.  Each handler takes the parsed arguments and the quiver,
and theoremb its object too, as cli.main loaded them.  `verify table`
checks each root once (mutation.verify_length_table), and its cells= counts
each root at every shift of the window min_shift - 1 .. max_shift + 1 of T'.
`verify ringel` runs the chain-map oracle complexes.sgldim_ringel on the
corpus of `verify a|b`, and a row fails where it disagrees with sgd.sgldim.
Each mode is one of three row generators, _pair_rows (serre, homagree),
_mutation_rows (delta, table) and _walk_rows (a, b, ringel), whose rows
cmd_verify counts, prints and judges.
"""

import sys

from . import complexes as cx, derived as dv, mutation as mu, quiver as qv, sgd, slices as sls, zq


def object_hash(x):
    import hashlib   # here, not at the top: most verbs never hash
    return hashlib.sha256(dv.format_object(x).encode()).hexdigest()[:12]


def emit_rows(rows, header, fmt):
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


def cmd_theoremb(args, q, t):
    seq = mu.theoremB_sequence(t)
    rows = []
    for i, (obj, split) in enumerate(seq):
        if args.out_prefix:
            with open("%s%d.obj" % (args.out_prefix, i), "w", encoding="utf-8") as fh:
                fh.write(dv.format_object(obj))
        rows.append({"index": i, "sgldim": sgd.sgldim(obj).value,
                     "object": object_hash(obj)})
    emit_rows(rows, ["index", "sgldim", "object"], "csv" if args.csv else "text")
    return 0


# bound on the walks `verify delta|table` draws per requested instance, so the
# loop ends even if walks keep landing on objects with no admissible split
MAX_WALKS_PER_SAMPLE = 10


def _pair_rows(args, q):
    """`serre` and `homagree`: a row for each pair of indecomposables at shifts 0..3."""
    pairs = [(r, s, "%s@%d" % (".".join(str(d) for d in r), s))
             for r in qv.positive_roots(q) for s in range(4)]
    for r1, s1, x in pairs:
        for r2, s2, y in pairs:
            if args.sub == "homagree":
                a = dv.pair_hom_dim(q, r1, s1, r2, s2)
                b = cx.homk_pair_dim(q, r1, r2, s2 - s1)
                ok, detail = a == b, "%d/%d" % (a, b)
            else:
                ok = zq.serre_dual_check(dv.stalk(q, r1, s1), dv.stalk(q, r2, s2))
                detail = ""
            yield {"check": args.sub, "x": x, "y": y,
                   "status": "pass" if ok else "FAIL", "detail": detail}, None


def _mutation_rows(args, q):
    """`delta` and `table`: a row for each of --samples mutations T -> T' at
    an admissible split, T drawn by seeded walks."""
    if q.n < 2:
        raise ValueError("verify %s needs at least two vertices: a tilting object with one "
                         "summand has no admissible split to mutate at" % args.sub)
    done = k = 0
    while done < args.samples:
        if k >= MAX_WALKS_PER_SAMPLE * args.samples:
            print("error: only %d of %d instances had an admissible split after %d walks"
                  % (done, args.samples, k), file=sys.stderr)
            yield None, None
            return
        t, _ = mu.random_tilting_walk(q, args.seed + k, 3 + k % 6)
        k += 1
        splits = mu.admissible_splits(t)
        if not splits:
            continue
        split = splits[(args.seed + k) % len(splits)]
        tp = mu.mutate(t, split)
        row = {"check": args.sub, "instance": object_hash(t), "status": "pass"}
        try:
            if args.sub == "delta":
                row["detail"] = "delta=%d" % mu.sgd_delta(t, tp)
            else:
                checks = mu.verify_length_table(t, tp, split)
                row["detail"] = "cells=%d" % (len(checks) * (tp.spread + 3))
        except qv.InternalInconsistencyError as e:
            row.update(status="FAIL", detail=str(e))
        yield row, t
        done += 1


def _walk_rows(args, q):
    """`a`, `b` and `ringel`: a row for each of --samples seeded walks."""
    for seed in range(args.seed, args.seed + args.samples):
        t = mu.random_tilting_walk(q, seed, 4 + seed % 7)[0]
        value = sgd.sgldim(t).value
        row = {"check": args.sub, "instance": object_hash(t), "status": "pass"}
        # Theorems A and B are about s.gl.dim >= 2; the chain-map oracle
        # checks the value itself, so it runs on every instance
        if value < 2 and args.sub != "ringel":
            yield dict(row, status="skip", detail="hereditary"), t
            continue
        try:
            if args.sub == "ringel":
                row["detail"] = "sgd=%d" % cx.sgldim_ringel(t).value
            elif args.sub == "a":
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
        yield row, t


def cmd_verify(args, q):
    """The mode's rows, each with the object it checked or None, then the counts
    and the verdict.  A FAIL row's object is printed for replay; a None row is a
    failure that the generator reported itself (the walk cap of delta and table)."""
    if args.sub in ("serre", "homagree"):
        rows_of, header = _pair_rows, ["check", "x", "y", "status", "detail"]
    else:
        rows_of = _mutation_rows if args.sub in ("delta", "table") else _walk_rows
        header = ["check", "instance", "status", "detail"]
    rows, failures = [], 0
    for row, t in rows_of(args, q):
        if row is None or row["status"] == "FAIL":
            failures += 1
            if t is not None:
                sys.stderr.write("# replay object:\n" + dv.format_object(t))
        if row is not None:
            rows.append(row)
    emit_rows(rows, header, "csv" if args.csv else ("jsonl" if args.jsonl else "text"))
    # pass and FAIL rows were checked; stdout stays the rows alone
    checked = sum(1 for r in rows if r["status"] != "skip")
    print("# checked=%d skipped=%d failed=%d" % (checked, len(rows) - checked, failures),
          file=sys.stderr)
    if checked < args.min_checked:
        print("error: %d instances checked, fewer than --min-checked %d"
              % (checked, args.min_checked), file=sys.stderr)
        return 1
    return 1 if failures else 0
