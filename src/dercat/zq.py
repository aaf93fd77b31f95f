"""The AR translate and the ZQ coordinates of D^b(kQ).

D^b(kQ) of a Dynkin quiver is the mesh category of ZQ (Happel 1988), and
this layer, between derived and slices, places objects on it.  One table per
quiver, orbits(q), holds every tau-orbit over one period as (root index,
shift) pairs; tau^-h = [2] on each orbit, h the Coxeter number of its
component, so the ZQ coordinates (zq_pair, zq_vertex) and the translate
(tau_pair) are lookups in it plus one divmod, however far out an object
lies.  Every summand here is a (root index, shift) pair, as in derived;
orbits is the one function that looks roots up by vector, while it builds
the table.  `dercat ind list` prints the roots in the order of their ZQ
coordinates (knitting_order), read off the same table, and so runs only
quiver and this module.
"""

from collections import namedtuple
from functools import lru_cache
from operator import mul

from . import derived as dv, quiver as qv

# walks[i][m] = tau^-m P_i as a (root index, shift) pair, for 0 <= m < h_i;
# at[a, s] = (m, i) for s in {0, 1}: the segment holds each such object once
Orbits = namedtuple("Orbits", "walks at")


@lru_cache(maxsize=None)
def orbits(q):
    """Walk tau^-1 from each P_i until P_i[2].  A module steps by the inverse
    Coxeter matrix; the one wrap leaves the module category: tau^-1 I_j = P_j[1]."""
    c = qv.roots_of(q)
    phi_inv = qv.coxeter_inverse(q)
    inj = {col: j for j, col in enumerate(zip(*qv.path_counts(q)))}
    walks, at = [], {}
    for i in range(q.n):
        start = c.index[qv.proj_dims(q, i)]
        a, s, walk = start, 0, []
        while (a, s) != (start, 2):
            # each object at shift 0 or 1 once, or the walk never reaches P_i[2]
            if s > 1 or (a, s) in at:
                raise qv.InternalInconsistencyError("tau-orbit of P_%d does not close" % (i + 1))
            at[a, s] = len(walk), i
            walk.append((a, s))
            root = c.roots[a]
            if root in inj:
                a, s = c.index[qv.proj_dims(q, inj[root])], s + 1
                continue
            root = tuple(sum(map(mul, row, root)) for row in phi_inv)
            if root not in c.index:
                raise qv.InternalInconsistencyError("tau left the root system: %r" % (root,))
            a = c.index[root]
        walks.append(tuple(walk))
    return Orbits(tuple(walks), at)


def tau_pair(q, x, k=1):
    """tau^k of the (root index, shift) pair x; k < 0 walks with tau^-1.
    tau^k takes the ZQ vertex (m, i) to (m - k, i)."""
    m, i = zq_vertex(q, x)
    return zq_pair(q, m - k, i)


def tau_derived(x):
    """AR translate, summand-wise (tau_pair), multiplicities kept."""
    if x.is_zero():
        raise ValueError("tau of the zero object")
    pairs, mults = zip(*sorted(((tau_pair(x.quiver, p), m) for p, m in zip(x.pairs, x.mults)),
                               key=lambda e: (e[0][1], e[0][0])))
    return dv.DerivedObject.of_pairs(x.quiver, pairs, mults)


def zq_pair(q, m, i):
    """(root index, shift) at the ZQ vertex (m, i), that is tau^-m P_i[0]:
    m = 0 is the projective slice at suspension 0, and shift >= 0 exactly
    when m >= 0.  Each period of the orbit, len(walks[i]), adds 2 to the shift."""
    walk = orbits(q).walks[i]
    k, m = divmod(m, len(walk))
    a, shift = walk[m]
    return a, shift + 2 * k


def zq_vertex(q, x):
    """ZQ vertex (m, i) of the (root index, shift) pair x: x at its shift
    mod 2 is in the table, and each 2 taken off the shift adds the period of
    i's orbit to m."""
    o = orbits(q)
    k, shift = divmod(x[1], 2)
    m, i = o.at[x[0], shift]
    return m + k * len(o.walks[i]), i


def knitting_order(q):
    """All positive roots ordered by (tau-orbit depth, slice position).

    The depth m and orbit i are the ZQ vertex (m, i) of the module at shift 0,
    read off orbits(q).at, and the slice position is i's place in the
    sink-first order.  In this order Hom between distinct indecomposables
    only goes forward: the matrix of Hom dimensions is upper uni-triangular.
    `dercat ind list` prints the indecomposables in this order.
    """
    qv.ensure_dynkin(q)
    at = orbits(q).at
    slicepos = {v: k for k, v in enumerate(qv.sink_first_order(q))}
    roots = qv.roots_of(q).roots

    def key(a):
        m, i = at[a, 0]
        return m, slicepos[i]

    return tuple(roots[a] for a in sorted(range(len(roots)), key=key))


def serre_dual_check(x, y):
    """Hom(X, Y) = D Hom(Y, tau X [1]), dimension-wise."""
    return dv.hom_dim(x, y) == dv.hom_dim(y, tau_derived(x).shift(1))
