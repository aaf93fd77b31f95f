"""Traced stand-in for `python -m dercat.cli`.

Usage: python traced.py <spans.json> <job id> <dercat arguments...>

Wraps the public functions and methods of each dercat layer, runs
`dercat.cli.main` on the arguments, writes every recorded span to
<spans.json> and exits with the CLI's exit code.  Stdout is the CLI's own.

A span is (name, start, end, parent, extra): `parent` is the index of the
enclosing span (-1 for the root), and `extra` is a value some spans carry for
counters measured where the work happens (see HOOKS).  Spans stay in memory
until the CLI returns.
"""

import functools
import json
import sys
import time

from dercat import cli

# layer module -> public callables to wrap ("Class.method" for methods).
# Trivial accessors called hundreds of thousands of times per job (zeros,
# shape, proj_dims, term_rep, ...) are left out: their wrapper would cost more
# than their body, and the time they take lands in the caller's self time.
TARGETS = {
    "quiver": ["parse_quiver", "classify_components", "euler_matrix", "euler_form",
               "coxeter_matrix", "coxeter_inverse"],
    "linalg": ["rref", "rank", "nullspace", "solve", "solve_matrix", "inverse", "det",
               "mat_mul", "Subspace.add", "Subspace.contains", "Subspace.extend_basis"],
    "reps": ["hom_space", "hom_dim_mod", "hom_dim_roots", "ext_dim_roots", "ext1_dim",
             "indec_of_root", "reflect_at_source", "reflect_at_sink", "knitting_order",
             "decompose", "kernel", "cokernel", "projective_cover", "proj_resolution",
             "tau_root", "tau_inv_root", "tau_module", "RepMap.compose"],
    "complexes": ["HomKSpace.__init__", "HomKSpace.coords", "HomKSpace.basis", "hom_k",
                  "homk_pair_dim", "homk_space_cached", "stalk_complex",
                  "stalk_complex_cached", "cone", "ringel_length", "ProjComplex.minimize",
                  "ProjComplex.homology", "ChainMap.compose"],
    "derived": ["pair_hom_dim", "hom_dim", "is_rigid", "is_tilting", "k0_unimodular",
                "tau_derived", "tau_inv_derived", "serre_dual_check", "generates_thick",
                "parse_object", "format_object"],
    "sgd": ["sgldim", "sgldim_ringel", "ell_profile"],
    "slices": ["zq_of", "ZQ.object_of", "ZQ.vertex_of", "find_slice", "shift_window",
               "level_of", "hered_membership", "enumerate_slices", "theoremA_verify",
               "lower_bound_witness"],
    "mutation": ["make_split", "admissible_splits", "right_approx_data", "left_approx_data",
                 "mutate_with_data", "co_mutate_with_data", "verify_length_table",
                 "sgd_delta", "theoremB_sequence", "random_tilting_walk"],
    "cli": ["main"],
}


def _rref_size(args, result):
    a = args[0]
    return [len(a) * (len(a[0]) if a else 0), sum(1 for row in a for x in row if x != 0)]


# span name -> extra(args, result), recorded on the span after the call returns
HOOKS = {
    "linalg.rref": _rref_size,
    "slices.enumerate_slices": lambda args, result: len(result[0]),
    "mutation.admissible_splits": lambda args, result: len(result),
    "mutation.random_tilting_walk": lambda args, result: sum(
        1 for entry in result[1] if entry["t2"] is not None),
}

SPANS = []
_STACK = [-1]


def traced(name, fn):
    hook = HOOKS.get(name)
    clock = time.perf_counter

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        idx = len(SPANS)
        span = [name, 0.0, 0.0, _STACK[-1], None]
        SPANS.append(span)
        _STACK.append(idx)
        span[1] = clock()
        try:
            result = fn(*args, **kwargs)
        finally:
            span[2] = clock()
            _STACK.pop()
        if hook is not None:
            span[4] = hook(args, result)
        return result

    return wrapper


def install():
    """Wrap every target in place; returns the targets that no longer exist."""
    modules = [m for k, m in sorted(sys.modules.items()) if k.startswith("dercat.")]
    missing = []
    for layer, names in TARGETS.items():
        mod = sys.modules["dercat." + layer]
        for name in names:
            span_name = layer + "." + name
            if "." in name:
                cls_name, meth = name.split(".")
                cls = getattr(mod, cls_name, None)
                orig = cls.__dict__.get(meth) if cls is not None else None
                if isinstance(orig, property):
                    setattr(cls, meth, property(traced(span_name, orig.fget), orig.fset, orig.fdel))
                elif orig is not None:
                    setattr(cls, meth, traced(span_name, orig))
                else:
                    missing.append(span_name)
                continue
            orig = getattr(mod, name, None)
            if orig is None:
                missing.append(span_name)
                continue
            wrapped = traced(span_name, orig)
            # rebind every namespace holding the object, e.g. `from .x import f`
            for m in modules:
                for key, val in list(vars(m).items()):
                    if val is orig:
                        setattr(m, key, wrapped)
    return missing


def main(argv):
    out_path, job = argv[0], argv[1]
    for name in install():
        print("traced.py: no %s to wrap; its counters read 0" % name, file=sys.stderr)
    try:
        rc = cli.main(argv[2:])
    finally:
        sys.stdout.flush()
        names = {}
        rows = [[names.setdefault(s[0], len(names)), s[1], s[2], s[3], s[4]] for s in SPANS]
        with open(out_path, "w", encoding="utf-8") as fh:
            json.dump({"job": job, "names": list(names), "spans": rows}, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
