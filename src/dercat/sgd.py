"""Strong global dimension of endomorphism algebras of tilting objects.

Two routes to the same number.  sgldim evaluates length profiles with
derived.pair_hom_dim, the closed Euler-form Hom rule (integer arithmetic only).
sgldim_ringel is the oracle: the same profiles evaluated with genuine
chain-map computations on minimal complexes (plus, for a projective-slice
tilting object, the literal sup of minimal-complex lengths).  Disagreement is
a hard failure.
"""

import threading
from dataclasses import dataclass

from . import complexes as cx, derived as dv, quiver as qv, reps
from .reps import InternalInconsistencyError


@dataclass(frozen=True)
class LengthProfile:
    ell_minus: int
    ell_plus: int

    @property
    def ell(self):
        return self.ell_plus - self.ell_minus


@dataclass(frozen=True)
class SgdReport:
    value: int
    witness: object          # DerivedObject, normalized so ell_minus = 0
    window: tuple            # (min_shift - 1, max_shift + 1) of T


def _chain_pair(q, r1, s1, r2, s2):
    return cx.homk_pair_dim(q, r1, r2, s2 - s1)


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


def ell_profile(t, x, engine="happel"):
    """Length profile of an indecomposable X against a tilting object T."""
    if not dv.is_tilting(t):
        raise ValueError("length profiles are defined against tilting objects")
    xb = x.basic()
    if xb.num_distinct() != 1 or x.summands[0].mult != 1:
        raise ValueError("X must be indecomposable")
    pair = dv.pair_hom_dim if engine == "happel" else _chain_pair
    (root, shift), = xb.indecs()
    return _profile(t.quiver, t.basic().indecs(), root, shift, pair)


_sgd_lock = threading.Lock()
_sgd_cache = {}


def _sgldim_scan(t, pair):
    q = t.quiver
    tb = t.basic()
    indecs = tb.indecs()
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
    return SgdReport(best_val, w, (tb.min_shift - 1, tb.max_shift + 1))


def sgldim(t):
    """sup of ell_T over the indecomposables of D^b(kQ), with a witness."""
    key = (t.basic().key(), "happel")
    with _sgd_lock:
        hit = _sgd_cache.get(key)
    if hit is not None:
        return hit
    if not dv.is_tilting(t):
        raise ValueError("strong global dimension needs a tilting object")
    rep = _sgldim_scan(t, dv.pair_hom_dim)
    with _sgd_lock:
        _sgd_cache[key] = rep
    return rep


def _is_projective_slice(t):
    tb = t.basic()
    q = t.quiver
    if tb.num_distinct() != q.n or tb.spread != 0:
        return False
    return set(r for r, _ in tb.indecs()) == set(reps.proj_roots(q))


def sgldim_ringel(t):
    """Cross-oracle value: chain-map profiles, or genuine minimal-complex lengths
    when T is the projective generator (up to suspension).

    Raises on any disagreement with sgldim.
    """
    key = (t.basic().key(), "ringel")
    with _sgd_lock:
        hit = _sgd_cache.get(key)
    if hit is not None:
        return hit
    if not dv.is_tilting(t):
        raise ValueError("strong global dimension needs a tilting object")
    q = t.quiver
    rep = _sgldim_scan(t, _chain_pair)
    if _is_projective_slice(t):
        sup_len = 0
        for root in qv.positive_roots(q):
            sup_len = max(sup_len, cx.ringel_length(cx.stalk_complex_cached(q, root, 0)).length)
        if sup_len != rep.value:
            raise InternalInconsistencyError(
                "minimal-complex lengths disagree with the profile scan: %d vs %d"
                % (sup_len, rep.value))
    ref = sgldim(t)
    if rep.value != ref.value:
        raise InternalInconsistencyError(
            "dual strong-global-dimension algorithms disagree: %d vs %d"
            % (ref.value, rep.value))
    with _sgd_lock:
        _sgd_cache[key] = rep
    return rep
