"""Dense exact linear algebra over the rationals, for the oracles.

Matrices are lists of rows of Fractions.  Everything here is small and
desk-scale; no attempt at asymptotic cleverness.  Only the oracle modules
(reps, complexes) import this: the product route (quiver, derived, sgd,
slices, mutation) is integer arithmetic and imports neither this module nor
fractions.

rref is the one elimination: nullspace and solve_matrix read their answers
off it, and independent reads the pivot columns of the vectors stacked as
columns for every span choice the oracles make.  nullspace takes the number
of unknowns with the rows, so a system with no rows has every vector as a
solution.
"""

from fractions import Fraction

ZERO = Fraction(0)
ONE = Fraction(1)


def frac(x):
    return x if isinstance(x, Fraction) else Fraction(x)


def zeros(rows, cols):
    return [[ZERO] * cols for _ in range(rows)]


def identity(n):
    m = zeros(n, n)
    for i in range(n):
        m[i][i] = ONE
    return m


def shape(a):
    return (len(a), len(a[0]) if a else 0)


def mat_from_rows(rows):
    return [[frac(x) for x in row] for row in rows]


def transpose(a):
    r, c = shape(a)
    return [[a[i][j] for i in range(r)] for j in range(c)]


def mat_mul(a, b):
    ra, ca = shape(a)
    rb, cb = shape(b)
    if ca != rb:
        raise ValueError("cannot multiply %dx%d by %dx%d" % (ra, ca, rb, cb))
    out = zeros(ra, cb)
    for i in range(ra):
        arow = a[i]
        orow = out[i]
        for k in range(ca):
            x = arow[k]
            if x == 0:
                continue
            brow = b[k]
            for j in range(cb):
                if brow[j] != 0:
                    orow[j] += x * brow[j]
    return out


def mat_mul_dims(a, b, rows, inner, cols):
    """Product with explicit shapes; degenerate dimensions give a zero matrix."""
    if rows == 0 or cols == 0 or inner == 0:
        return zeros(rows, cols)
    return mat_mul(a, b)


def rref(a):
    """Reduced row echelon form; returns (matrix, pivot column list)."""
    m = [row[:] for row in a]
    rows, cols = shape(m)
    pivots = []
    r = 0
    for c in range(cols):
        pr = None
        for i in range(r, rows):
            if m[i][c] != 0:
                pr = i
                break
        if pr is None:
            continue
        m[r], m[pr] = m[pr], m[r]
        pv = m[r][c]
        if pv != 1:
            m[r] = [x / pv for x in m[r]]
        for i in range(rows):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [x - f * y for x, y in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == rows:
            break
    return m, pivots


def nullspace(a, cols):
    """Basis of {v : a v = 0} for the rows a in cols unknowns (the identity
    when a has no rows)."""
    r, pivots = rref(a)
    pivset = set(pivots)
    free = [c for c in range(cols) if c not in pivset]
    basis = []
    for fc in free:
        v = [ZERO] * cols
        v[fc] = ONE
        for i, pc in enumerate(pivots):
            v[pc] = -r[i][fc]
        basis.append(v)
    return basis


def solve_matrix(a, b):
    """One solution X of a X = b (matrix right-hand side), or None."""
    rows, cols = shape(a)
    rb, cb = shape(b)
    if rb != rows:
        raise ValueError("right-hand side has %d rows, not %d" % (rb, rows))
    aug = [a[i][:] + b[i][:] for i in range(rows)]
    r, pivots = rref(aug)
    if any(p >= cols for p in pivots):
        return None
    x = zeros(cols, cb)
    for i, pc in enumerate(pivots):
        for j in range(cb):
            x[pc][j] = r[i][cols + j]
    return x


def independent(vectors, base=()):
    """Indices i of the vectors outside the span of base and vectors[:i].

    The pivot columns of rref on base and vectors stacked as columns: the
    greedy choice, so the chosen vectors and base span what all of them span.
    """
    k = len(base)
    return [p - k for p in rref(transpose(list(base) + list(vectors)))[1] if p >= k]
