"""Untimed input preparation for one benchmark run.

Usage: python prep.py <workload> <seed> <outdir>

Runs in its own process with dercat importable.  It writes the object files
the timed CLI jobs read, and `manifest.json` with the expected CLI outputs
that can be derived from the library directly (so every seed, not only the
one with stored digests, gets an exact check where one is cheap).

Walk objects come from `mutation.random_tilting_walk`: walk seeds are derived
from the benchmark seed, and the first object on a walk whose s.gl.dim is 3
is taken.
"""

import json
import sys
from pathlib import Path

from dercat import derived as dv, mutation as mu, quiver as qv, sgd

INPUTS = Path(__file__).resolve().parent / "inputs"
WALK_STEPS = 8
WALK_TRIES = 20
TARGET_SGLDIM = 3


def load_quiver(name):
    return qv.parse_quiver((INPUTS / (name + ".q")).read_text())


def sgd_stdout(rep):
    return "s.gl.dim = %d\nwitness:\n%s" % (rep.value, dv.format_object(rep.witness))


def walk_object(q, seed):
    """First object of s.gl.dim 3 on the seeded walks; (object, walk seed, step)."""
    for k in range(WALK_TRIES):
        walk_seed = seed * 1000 + k
        _, log = mu.random_tilting_walk(q, walk_seed, WALK_STEPS)
        for entry in log:
            if entry["t2"] is None:
                continue
            t = dv.DerivedObject(q, [(r, s, 1) for r, s in entry["result"]])
            if sgd.sgldim(t).value == TARGET_SGLDIM:
                return t, walk_seed, entry["step"]
    raise SystemExit("no s.gl.dim %d object on %d walks" % (TARGET_SGLDIM, WALK_TRIES))


def prep_happel(seed, outdir):
    man = {}
    for name in ("E7-lin", "E7-alt", "E8-alt"):
        q = load_quiver(name)
        (outdir / (name + ".P.obj")).write_text(dv.format_object(dv.projective_generator(q)))
    for name in ("E7-lin", "E7-alt"):
        q = load_quiver(name)
        t, walk_seed, step = walk_object(q, seed)
        (outdir / (name + ".W.obj")).write_text(dv.format_object(t))
        man[name + ".W"] = {"walk_seed": walk_seed, "step": step}
        man["sgd:%s:W" % name] = sgd_stdout(sgd.sgldim(t))
        if name == "E7-lin":
            p = dv.projective_generator(q)
            man["hom:%s:P,W" % name] = "dim Hom = %d\n" % dv.hom_dim(p, t)
            man["hom:%s:W,W" % name] = "dim Hom = %d\n" % dv.hom_dim(t, t)
    return man


def prep_walk(seed, outdir):
    q = load_quiver("E6-alt")
    t, walk_seed, step = walk_object(q, seed)
    splits = mu.admissible_splits(t)
    split = splits[seed % len(splits)]
    t2 = set(split.t2.indecs())
    (outdir / "E6-alt.W.obj").write_text(dv.format_object(t))
    return {
        "E6-alt.W": {"walk_seed": walk_seed, "step": step},
        "mutate.t2": ",".join(str(i) for i, x in enumerate(t.indecs()) if x in t2),
        "mutate:E6-alt:W": dv.format_object(mu.mutate(t, split)),
    }


PREP = {"happel-cold": prep_happel, "walk-verify": prep_walk, "chain-oracle": lambda s, o: {}}


def main(argv):
    workload, seed, outdir = argv[0], int(argv[1]), Path(argv[2])
    man = PREP[workload](seed, outdir)
    (outdir / "manifest.json").write_text(json.dumps(man, indent=1, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
