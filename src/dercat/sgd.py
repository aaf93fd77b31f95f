"""Strong global dimension of endomorphism algebras of tilting objects.

sgldim evaluates length profiles with derived.pair_hom_dim, the closed
Euler-form Hom rule (integer arithmetic only).  Its oracle is
complexes.sgldim_ringel: the same profiles evaluated with genuine chain-map
computations on minimal complexes (plus, for a projective-slice tilting
object, the literal sup of the degree spans hi - lo of the stalk complexes,
which are minimal, so the spans are Ringel's lengths).  Disagreement is a
hard failure.

This module is on the product path with quiver, derived, slices and
mutation, and like them imports neither the oracle engines (reps, complexes)
nor the rational arithmetic they run on (linalg, fractions); the test suite
checks that.  The oracle imports this module, never the reverse.
"""

from collections import namedtuple
from functools import lru_cache

from . import derived as dv, quiver as qv
from .quiver import InternalInconsistencyError


class LengthProfile(namedtuple("LengthProfile", "ell_minus ell_plus")):
    __slots__ = ()

    @property
    def ell(self):
        return self.ell_plus - self.ell_minus


# witness: a DerivedObject, normalized so ell_minus = 0
SgdReport = namedtuple("SgdReport", "value witness")


def _profile(q, t_indecs, x_root, x_shift, pair):
    """Exact extreme shifts of Hom(X, T[n]) and Hom(T[n], X).

    Only n with a shift gap of 0 or 1 against some summand can contribute, so
    both scans are finite.
    """
    smin = min(s for _, s in t_indecs)
    smax = max(s for _, s in t_indecs)
    ell_plus = None
    for n in range(x_shift + 1 - smin, x_shift - smax - 1, -1):
        if any(pair(q, x_root, x_shift, r, s + n) for r, s in t_indecs):
            ell_plus = n
            break
    ell_minus = None
    for n in range(x_shift - 1 - smax, x_shift - smin + 1):
        if any(pair(q, r, s + n, x_root, x_shift) for r, s in t_indecs):
            ell_minus = n
            break
    if ell_plus is None or ell_minus is None:
        raise InternalInconsistencyError(
            "tilting object misses %r[%d] entirely" % (x_root, x_shift))
    return LengthProfile(ell_minus, ell_plus)


def ell_profile(t, x):
    """Length profile of an indecomposable X against a tilting object T."""
    if not dv.is_tilting(t):
        raise ValueError("length profiles are defined against tilting objects")
    xb = x.basic()
    if xb.num_distinct() != 1 or x.summands[0].mult != 1:
        raise ValueError("X must be indecomposable")
    (root, shift), = xb.indecs()
    return _profile(t.quiver, t.basic().indecs(), root, shift, dv.pair_hom_dim)


def sgldim_scan(t, pair):
    """sup of ell_T with its witness, each Hom dimension read off pair(q, r1, s1, r2, s2).

    sgldim passes derived.pair_hom_dim; complexes.sgldim_ringel passes chain-map
    Hom dimensions.
    """
    q = t.quiver
    indecs = t.basic().indecs()
    best_val = -1
    best_witness = None
    # ell is invariant under suspension of X, so each root is solved once, at shift 0
    for root in qv.positive_roots(q):
        prof = _profile(q, indecs, root, 0, pair)
        key = (-prof.ell_minus, root)
        if prof.ell > best_val or (prof.ell == best_val and key < best_witness):
            best_val = prof.ell
            best_witness = key
    w = dv.stalk(q, best_witness[1], best_witness[0])
    return SgdReport(best_val, w)


def sgldim(t):
    """sup of ell_T over the indecomposables of D^b(kQ), with a witness."""
    return _sgldim(t.basic())


# memoized on the basic object, so multiplicities and summand order share one
# entry (complexes.sgldim_ringel is memoized the same way)
@lru_cache(maxsize=None)
def _sgldim(tb):
    if not dv.is_tilting(tb):
        raise ValueError("strong global dimension needs a tilting object")
    return sgldim_scan(tb, dv.pair_hom_dim)
