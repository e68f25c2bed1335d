"""Exact quaternion arithmetic over the rationals, for small test oracles.

A quaternion a + b i + c j + d k is a tuple of four ``Fraction``s, and a
matrix is a list of rows.  The quaternions form a division ring, so
Gauss-Jordan elimination gives ranks and inverses with no rounding; with
integer (Lipschitz) inputs every rank below is exact.  Entries grow with
size, so keep matrices small (order 6 or less).
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

from quatinv.qcore import QMatrix

ZERO = (Fraction(0),) * 4
ONE = (Fraction(1),) + (Fraction(0),) * 3


def qmul(p, q):
    a1, b1, c1, d1 = p
    a2, b2, c2, d2 = q
    return (a1 * a2 - b1 * b2 - c1 * c2 - d1 * d2,
            a1 * b2 + b1 * a2 + c1 * d2 - d1 * c2,
            a1 * c2 - b1 * d2 + c1 * a2 + d1 * b2,
            a1 * d2 + b1 * c2 - c1 * b2 + d1 * a2)


def qsub(p, q):
    return tuple(x - y for x, y in zip(p, q))


def qinv(p):
    a, b, c, d = p
    n2 = a * a + b * b + c * c + d * d
    return (a / n2, -b / n2, -c / n2, -d / n2)


def eye(n):
    return [[ONE if i == j else ZERO for j in range(n)] for i in range(n)]


def matmul(x, y):
    out = []
    for row in x:
        new = []
        for j in range(len(y[0])):
            acc = ZERO
            for k, xk in enumerate(row):
                if xk != ZERO and y[k][j] != ZERO:
                    acc = tuple(s + t for s, t in zip(acc, qmul(xk, y[k][j])))
            new.append(acc)
        out.append(new)
    return out


def _eliminate(rows, ncols):
    # Gauss-Jordan on the rows in place, pivoting in the first ncols
    # columns by left row operations: returns the rank
    r = 0
    for j in range(ncols):
        piv = next((i for i in range(r, len(rows)) if rows[i][j] != ZERO),
                   None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        inv = qinv(rows[r][j])
        rows[r] = [qmul(inv, x) for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][j] != ZERO:
                m = rows[i][j]
                rows[i] = [qsub(x, qmul(m, y))
                           for x, y in zip(rows[i], rows[r])]
        r += 1
    return r


def rank(x):
    return _eliminate([list(row) for row in x], len(x[0]) if x else 0)


def inverse(x):
    n = len(x)
    rows = [list(row) + e for row, e in zip(x, eye(n))]
    if _eliminate(rows, n) != n:
        raise ZeroDivisionError("singular matrix")
    return [row[n:] for row in rows]


def index_and_core_rank(a):
    """(k, rank(A^k)): the index of a square A, the smallest k >= 0 with
    rank(A^{k+1}) = rank(A^k), and the rank of its Drazin inverse."""
    p, p_rank = eye(len(a)), len(a)
    k = 0
    while True:
        nxt = matmul(p, a)
        nxt_rank = rank(nxt)
        if nxt_rank == p_rank:
            return k, p_rank
        p, p_rank, k = nxt, nxt_rank, k + 1


def to_qmatrix(x):
    q = np.array([[[float(c) for c in e] for e in row] for row in x])
    return QMatrix(q[..., 0] + 1j * q[..., 1], q[..., 2] + 1j * q[..., 3])


def random_lipschitz(rng, lo, hi):
    return tuple(Fraction(int(v)) for v in rng.integers(lo, hi + 1, size=4))


def block_diag(c, k):
    # C (+) J_k, with J_k the k-by-k nilpotent Jordan block (ones above the
    # diagonal) and J_0 empty
    m = len(c)
    n = m + k
    out = [[ZERO] * n for _ in range(n)]
    for i in range(m):
        out[i][:m] = c[i]
    for i in range(m, n - 1):
        out[i][i + 1] = ONE
    return out


def _random_unit_or_zero(rng):
    # one of the eight units +-1, +-i, +-j, +-k, or 0, each with chance 1/9
    v = int(rng.integers(0, 9))
    if v == 8:
        return ZERO
    e = [Fraction(0)] * 4
    e[v // 2] = Fraction(1 if v % 2 else -1)
    return tuple(e)


def similar_jordan(rng, n, k):
    """(A, P) with A = P (C (+) J_k) P^-1 of order n and index k.

    P = L U with L unit lower and U unit upper triangular, each entry of
    their strict parts 0 or one of the units +-1, +-i, +-j, +-k, so P^-1 is
    a Lipschitz-integer matrix too and A has integer components.  C is an
    invertible (n - k)-by-(n - k) Lipschitz-integer matrix with components
    in [-2, 2]."""
    low, up = eye(n), eye(n)
    for i in range(n):
        for j in range(i):
            low[i][j] = _random_unit_or_zero(rng)
            up[j][i] = _random_unit_or_zero(rng)
    p = matmul(low, up)
    m = n - k
    while True:
        c = [[random_lipschitz(rng, -2, 2) for _ in range(m)]
             for _ in range(m)]
        if rank(c) == m:
            break
    return matmul(matmul(p, block_diag(c, k)), inverse(p)), p
