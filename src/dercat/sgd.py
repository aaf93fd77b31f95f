"""Strong global dimension of endomorphism algebras of tilting objects.

Length profiles come in closed form, with no scan over shifts.  Against a
summand M(r)[s] of T, X = M(x)[k] has one live shift each way
(derived.nonzero_shift): Hom(X, M(r)[s + n]) != 0 only at n = k - s when
<x,r> > 0 and n = k + 1 - s when it is < 0; Hom(M(r)[s + n], X) != 0 only at
n = k - s when <r,x> > 0 and n = k - s - 1 when it is < 0.  ell_plus(X) is
the largest n of the first kind over T's summands, ell_minus(X) the least of
the second.  Summands and the witness are (root index, shift) pairs over
quiver.roots_of, as in derived, and the Euler values are read by index: one
row and one column per summand of T serve every X, so no roots x roots table
is built; roots appear only in an error message.  The scan over shifts is
the oracle's own code, complexes.sgldim_scan, fed chain-map Hom dimensions
by sgldim_ringel and derived.pair_hom_dim by the test suite.  Like the other
product modules, this one imports neither reps, complexes, linalg nor
fractions.  Nothing here is memoized: a repeat of sgldim costs one profile
pass over the cached root context, and the tilting test it starts with is
derived's memo.
"""

from collections import namedtuple

from . import derived as dv, quiver as qv
from .quiver import InternalInconsistencyError


class LengthProfile(namedtuple("LengthProfile", "ell_minus ell_plus")):
    __slots__ = ()

    @property
    def ell(self):
        return self.ell_plus - self.ell_minus


# witness: a DerivedObject, normalized so ell_minus = 0
SgdReport = namedtuple("SgdReport", "value witness")


def profile(c, pairs, a, k):
    """Length profile of M(r_a)[k] against a tilting object's (root index,
    shift) pairs over the root context c, in the module docstring's form."""
    plus = minus = None
    for b, s in pairs:
        e = c.cols[b][a]   # <x, r_b>
        if e and (plus is None or k - s + (e < 0) > plus):
            plus = k - s + (e < 0)
        e = c.rows[b][a]   # <r_b, x>
        if e and (minus is None or k - s - (e < 0) < minus):
            minus = k - s - (e < 0)
    if plus is None or minus is None:
        raise InternalInconsistencyError(
            "tilting object misses %r[%d] entirely" % (c.roots[a], k))
    return LengthProfile(minus, plus)


def sgldim(t):
    """sup of ell_T over the indecomposables of D^b(kQ), with a witness.  Only
    T's distinct pairs enter, so multiplicities and summand order do not."""
    if not dv.is_tilting(t):
        raise ValueError("strong global dimension needs a tilting object")
    c = qv.roots_of(t.quiver)
    # ell is invariant under suspension of X, so each root is solved once, at
    # shift 0; the witness has the largest ell, then the largest ell_minus,
    # then the least root
    profs = [profile(c, t.pairs, a, 0) for a in range(len(c.roots))]
    neg_ell, shift, a = min((p.ell_minus - p.ell_plus, -p.ell_minus, a)
                            for a, p in enumerate(profs))
    return SgdReport(-neg_ell, dv.DerivedObject.of_pairs(t.quiver, ((a, shift),)))
