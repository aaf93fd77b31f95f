"""Per-layer metrics from the spans that traced.py records.

A span is (name, start, end, parent, extra) with `parent` the index of the
enclosing span in the same job (-1 for the root).  A span's self time is its
duration minus the part of that interval its direct children cover; a
layer's self time is the sum over its spans.  The layer is the first
component of the span name (`reps.hom_space` -> `reps`).
"""

import json
from collections import Counter, defaultdict

# (metric, unit), in the order BENCHMARK.json lists them
PER_LAYER = [
    ("quiver.coxeter.calls", "count"),
    ("quiver.self_s", "s"),
    ("linalg.calls", "count"),
    ("linalg.self_s", "s"),
    ("linalg.rref.calls", "count"),
    ("linalg.rref.cells", "count"),
    ("linalg.rref.nonzero_ratio", "ratio"),
    ("linalg.inverse.calls", "count"),
    ("reps.self_s", "s"),
    ("reps.indec_of_root.calls", "count"),
    ("reps.reflect.calls", "count"),
    ("reps.hom_systems", "count"),
    ("reps.hom_dim_roots.calls", "count"),
    ("reps.hom_dim_roots.hit_ratio", "ratio"),
    ("reps.decompose.calls", "count"),
    ("complexes.self_s", "s"),
    ("complexes.homk.systems", "count"),
    ("complexes.homk.self_s", "s"),
    ("complexes.homk.hit_ratio", "ratio"),
    ("complexes.minimize.calls", "count"),
    ("complexes.cone.calls", "count"),
    ("derived.self_s", "s"),
    ("derived.pair_hom_dim.calls", "count"),
    ("derived.is_tilting.calls", "count"),
    ("derived.tau.calls", "count"),
    ("sgd.self_s", "s"),
    ("sgd.sgldim.calls", "count"),
    ("sgd.sgldim.hit_ratio", "ratio"),
    ("slices.self_s", "s"),
    ("slices.find_slice.calls", "count"),
    ("slices.find_slice.self_s", "s"),
    ("slices.zq_object_of.calls", "count"),
    ("slices.enumerate_slices.slices", "count"),
    ("slices.shift_window.calls", "count"),
    ("mutation.self_s", "s"),
    ("mutation.mutate.calls", "count"),
    ("mutation.approx.calls", "count"),
    ("mutation.splits.tested", "count"),
    ("mutation.splits.yield", "ratio"),
    ("mutation.walk.retries", "count"),
    ("cli.verify.checked", "count"),
    ("cli.verify.skipped", "count"),
    ("trace.overhead_ratio", "ratio"),
]

LAYERS = ("quiver", "linalg", "reps", "complexes", "derived", "sgd", "slices", "mutation", "cli")

# a call of the key span is a cache hit when no span of these names ran below it
HIT_MISS_MARKER = {
    "reps.hom_dim_roots": "reps.hom_space",
    "complexes.homk_pair_dim": "complexes.HomKSpace.__init__",
    "complexes.homk_space_cached": "complexes.HomKSpace.__init__",
    "sgd.sgldim": "derived.is_tilting",
}


def load(path):
    """Spans of one traced job as a list of (name, start, end, parent, extra)."""
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    names = doc["names"]
    return [(names[n], start, end, parent, extra) for n, start, end, parent, extra in doc["spans"]]


def self_times(spans):
    """Duration minus the union of the direct children's intervals, per span."""
    children = defaultdict(list)
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            children[parent].append((start, end))
    out = []
    for i, (_, start, end, _, _) in enumerate(spans):
        covered = 0.0
        reach = start
        for cs, ce in sorted(children.get(i, ())):
            cs, ce = max(cs, reach), min(ce, end)
            if ce > cs:
                covered += ce - cs
                reach = ce
        out.append((end - start) - covered)
    return out


def _ratio(num, den):
    return num / den if den else 0.0


class Tally:
    """Counts and times summed over the traced jobs of one workload run."""

    def __init__(self):
        self.calls = Counter()
        self.name_self = defaultdict(float)
        self.layer_self = defaultdict(float)
        self.layer_under = defaultdict(float)
        self.hits = Counter()
        self.rref_cells = 0
        self.rref_nonzero = 0
        self.slices_found = 0
        self.splits_tested = 0
        self.splits_found = 0
        self.walk_retries = 0

    def add_job(self, spans):
        selfs = self_times(spans)
        markers = set(HIT_MISS_MARKER.values())
        below = set()           # (ancestor index, marker name)
        kids = Counter()        # (parent index, child name)
        for name, _, _, parent, _ in spans:
            kids[(parent, name)] += 1
            if name in markers:
                p = parent
                while p >= 0 and (p, name) not in below:
                    below.add((p, name))
                    p = spans[p][3]
        bit = {layer: 1 << k for k, layer in enumerate(LAYERS)}
        above = []              # bitmask of the layers of each span's ancestors
        for i, (name, start, end, parent, extra) in enumerate(spans):
            layer = name.split(".", 1)[0]
            mask = 0
            if parent >= 0:
                mask = above[parent] | bit.get(spans[parent][0].split(".", 1)[0], 0)
            above.append(mask)
            if not mask & bit.get(layer, 0):
                self.layer_under[layer] += end - start
            self.calls[name] += 1
            self.name_self[name] += selfs[i]
            self.layer_self[layer] += selfs[i]
            marker = HIT_MISS_MARKER.get(name)
            if marker is not None and (i, marker) not in below:
                self.hits[name] += 1
            if name == "linalg.rref":
                self.rref_cells += extra[0]
                self.rref_nonzero += extra[1]
            elif name == "slices.enumerate_slices":
                self.slices_found += extra
            elif name == "mutation.admissible_splits":
                self.splits_tested += kids[(i, "derived.hom_dim")] + kids[(i, "mutation.make_split")]
                self.splits_found += extra
            elif name == "mutation.random_tilting_walk":
                self.walk_retries += kids[(i, "mutation.mutate_with_data")] - extra

    def metrics(self, verify_checked, verify_skipped, overhead_ratio):
        c, s = self.calls, self.name_self
        homk = ("complexes.homk_pair_dim", "complexes.homk_space_cached")
        values = {
            "quiver.coxeter.calls": c["quiver.coxeter_matrix"] + c["quiver.coxeter_inverse"],
            "linalg.calls": sum(n for k, n in c.items() if k.startswith("linalg.")),
            "linalg.rref.calls": c["linalg.rref"],
            "linalg.rref.cells": self.rref_cells,
            "linalg.rref.nonzero_ratio": _ratio(self.rref_nonzero, self.rref_cells),
            "linalg.inverse.calls": c["linalg.inverse"],
            "reps.indec_of_root.calls": c["reps.indec_of_root"],
            "reps.reflect.calls": c["reps.reflect_at_source"] + c["reps.reflect_at_sink"],
            "reps.hom_systems": c["reps.hom_space"],
            "reps.hom_dim_roots.calls": c["reps.hom_dim_roots"],
            "reps.hom_dim_roots.hit_ratio": _ratio(self.hits["reps.hom_dim_roots"],
                                                   c["reps.hom_dim_roots"]),
            "reps.decompose.calls": c["reps.decompose"],
            "complexes.homk.systems": c["complexes.HomKSpace.__init__"],
            "complexes.homk.self_s": s["complexes.HomKSpace.__init__"],
            "complexes.homk.hit_ratio": _ratio(sum(self.hits[k] for k in homk),
                                               sum(c[k] for k in homk)),
            "complexes.minimize.calls": c["complexes.ProjComplex.minimize"],
            "complexes.cone.calls": c["complexes.cone"],
            "derived.pair_hom_dim.calls": c["derived.pair_hom_dim"],
            "derived.is_tilting.calls": c["derived.is_tilting"],
            "derived.tau.calls": c["derived.tau_derived"] + c["derived.tau_inv_derived"],
            "sgd.sgldim.calls": c["sgd.sgldim"],
            "sgd.sgldim.hit_ratio": _ratio(self.hits["sgd.sgldim"], c["sgd.sgldim"]),
            "slices.find_slice.calls": c["slices.find_slice"],
            "slices.find_slice.self_s": s["slices.find_slice"],
            "slices.zq_object_of.calls": c["slices.ZQ.object_of"],
            "slices.enumerate_slices.slices": self.slices_found,
            "slices.shift_window.calls": c["slices.shift_window"],
            "mutation.mutate.calls": c["mutation.mutate_with_data"] + c["mutation.co_mutate_with_data"],
            "mutation.approx.calls": c["mutation.right_approx_data"] + c["mutation.left_approx_data"],
            "mutation.splits.tested": self.splits_tested,
            "mutation.splits.yield": _ratio(self.splits_found, self.splits_tested),
            "mutation.walk.retries": self.walk_retries,
            "cli.verify.checked": verify_checked,
            "cli.verify.skipped": verify_skipped,
            "trace.overhead_ratio": overhead_ratio,
        }
        for layer in LAYERS:
            if layer != "cli":
                values[layer + ".self_s"] = self.layer_self[layer]
        return {name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER}

    def layer_shares(self):
        """Per layer: (share of traced job time in its own code, share under its spans)."""
        total = sum(self.layer_self.values())
        return {k: (_ratio(self.layer_self[k], total), _ratio(self.layer_under[k], total))
                for k in LAYERS}
