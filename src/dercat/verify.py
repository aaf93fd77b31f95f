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


def _corpus(q, seed, samples):
    return [mu.random_tilting_walk(q, seed + k, 4 + (seed + k) % 7)[0] for k in range(samples)]


def cmd_verify(args, q):
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
                    ok = zq.serre_dual_check(dv.stalk(q, r1, s1), dv.stalk(q, r2, s2))
                    detail = ""
                row = {"check": which, "x": tag(r1, s1), "y": tag(r2, s2),
                       "status": "pass" if ok else "FAIL", "detail": detail}
                if ok:
                    rows.append(row)
                else:
                    fail_row(row)
        emit_rows(rows, ["check", "x", "y", "status", "detail"], fmt)
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
                    checks = mu.verify_length_table(t, tp, split)
                    detail = "cells=%d" % (len(checks) * (tp.spread + 3))
                rows.append({"check": which, "instance": object_hash(t),
                             "status": "pass", "detail": detail})
            except qv.InternalInconsistencyError as e:
                fail_row({"check": which, "instance": object_hash(t),
                          "status": "FAIL", "detail": str(e)}, t)
            done += 1
        emit_rows(rows, ["check", "instance", "status", "detail"], fmt)
    elif which in ("a", "b", "ringel"):
        for t in _corpus(q, args.seed, args.samples):
            value = sgd.sgldim(t).value
            row = {"check": which, "instance": object_hash(t), "status": "pass"}
            # Theorems A and B are about s.gl.dim >= 2; the chain-map oracle
            # checks the value itself, so it runs on every instance
            if value < 2 and which != "ringel":
                rows.append(dict(row, status="skip", detail="hereditary"))
                continue
            try:
                if which == "ringel":
                    row["detail"] = "sgd=%d" % cx.sgldim_ringel(t).value
                elif which == "a":
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
        emit_rows(rows, ["check", "instance", "status", "detail"], fmt)
    # pass and FAIL rows were checked; stdout stays the rows alone
    checked = sum(1 for r in rows if r["status"] != "skip")
    print("# checked=%d skipped=%d failed=%d" % (checked, len(rows) - checked, failures),
          file=sys.stderr)
    if checked < args.min_checked:
        print("error: %d instances checked, fewer than --min-checked %d"
              % (checked, args.min_checked), file=sys.stderr)
        return 1
    return 1 if failures else 0
