"""The AR translate and the ZQ coordinates of D^b(kQ).

D^b(kQ) of a Dynkin quiver is the mesh category of ZQ (Happel 1988), and
this layer, between derived and slices, places objects on it.  tau_root and
tau_inv_root translate roots by the integer Coxeter matrices of quiver;
tau_pair lifts them to (root, shift) pairs, whose one wrap leaves the module
category, and the ZQ coordinates (zq_object, zq_vertex) are read off it.
tau^-h = [2] on each tau-orbit, h the Coxeter number (tau_period), so a
coordinate costs at most about 2h tau-steps however far out it lies.
Everything is memoized per quiver, like the root maps of quiver.
"""

from functools import lru_cache
from operator import mul

from . import derived as dv, quiver as qv


def inj_dims(q, i):
    """Dimension vector of the indecomposable injective at vertex i: column i of P."""
    return tuple(row[i] for row in qv.path_counts(q))


@lru_cache(maxsize=None)
def inj_roots(q):
    return tuple(inj_dims(q, i) for i in range(q.n))


# memoized per (quiver, root), so the root is a tuple: the slice and mutation
# layers translate the same few roots over and over, and the root-system check
# then runs once per root
@lru_cache(maxsize=None)
def tau_root(q, root):
    """Root of tau(M) for the indecomposable M of the given root; None if projective."""
    return _translate(q, root, qv.proj_roots(q), qv.coxeter_matrix)


@lru_cache(maxsize=None)
def tau_inv_root(q, root):
    return _translate(q, root, inj_roots(q), qv.coxeter_inverse)


def _translate(q, root, ends, matrix):
    if root in ends:
        return None
    out = tuple(sum(map(mul, row, root)) for row in matrix(q))
    if out not in qv.roots_of(q).index:
        raise qv.InternalInconsistencyError("tau left the root system: %r" % (out,))
    return out


def tau_pair(q, root, shift, k=1):
    """tau^k of M(root)[shift] as a (root, shift) pair; k < 0 walks with tau^-1.

    Modules translate by the Coxeter matrix.  The one wrap leaves the module
    category: tau P_i = I_i[-1], and tau^-1 I_i = P_i[1].
    """
    if k >= 0:
        step, ends, wraps, ds = tau_root, qv.proj_roots(q), inj_roots(q), -1
    else:
        step, ends, wraps, ds = tau_inv_root, inj_roots(q), qv.proj_roots(q), 1
    for _ in range(abs(k)):
        nxt = step(q, root)
        if nxt is None:
            root, shift = wraps[ends.index(root)], shift + ds
        else:
            root = nxt
    return root, shift


def tau_derived(x):
    """AR translate, summand-wise (tau_pair)."""
    if x.is_zero():
        raise ValueError("tau of the zero object")
    q = x.quiver
    return dv.DerivedObject(q, [tau_pair(q, s.root, s.shift) + (s.mult,) for s in x.summands])


@lru_cache(maxsize=None)
def tau_period(q, i):
    """The h with tau^-h P_i = P_i[2], the Coxeter number of i's component
    (Happel 1988); tau commutes with the shift, so tau^-h = [2] on the whole
    tau-orbit of P_i."""
    p = qv.proj_dims(q, i)
    root, shift, h = p, 0, 0
    while (root, shift) != (p, 2):
        root, shift = tau_pair(q, root, shift, -1)
        h += 1
    return h


@lru_cache(maxsize=None)
def zq_object(q, m, i):
    """(root, shift) at the ZQ vertex (m, i), that is tau^-m P_i[0]: m = 0 is
    the projective slice at suspension 0, and shift >= 0 exactly when m >= 0.
    Each h = tau_period(q, i) steps add 2 to the shift; under h are walked."""
    k, r = divmod(m, tau_period(q, i))
    root, shift = tau_pair(q, qv.proj_dims(q, i), 0, -r)
    return root, shift + 2 * k


@lru_cache(maxsize=None)
def zq_vertex(q, root, shift):
    """ZQ vertex (m, i) of M(root)[shift]: tau walks M(root)[shift mod 2]
    down to the projective slice and m counts the steps; each 2 taken off the
    shift adds tau_period(q, i) to m."""
    if root not in qv.roots_of(q).index:
        raise qv.InternalInconsistencyError("object %r not found in ZQ" % ((root, shift),))
    k, shift = divmod(shift, 2)
    projs = qv.proj_roots(q)
    m = 0
    while shift != 0 or root not in projs:
        root, shift = tau_pair(q, root, shift, 1)
        m += 1
    i = projs.index(root)
    return m + k * tau_period(q, i), i


def serre_dual_check(x, y):
    """Hom(X, Y) = D Hom(Y, tau X [1]), dimension-wise."""
    return dv.hom_dim(x, y) == dv.hom_dim(y, tau_derived(x).shift(1))
