"""The real representation of a quaternion matrix, a test oracle.

A = W + X i + Y j + Z k, m-by-n, maps to the 4m-by-4n real matrix

    chi(A) = [[W, -X, -Y, -Z],
              [X,  W, -Z,  Y],
              [Y,  Z,  W, -X],
              [Z, -Y,  X,  W]],

the matrix of left multiplication by A on the four real coordinates.  chi
is an injective real *-homomorphism: chi(A B) = chi(A) chi(B) and
chi(A*) = chi(A)^T, so a formula evaluated on chi gives chi of the
quaternion answer, and rank(chi(A)) = 4 rank(A) (Wei et al., *Quaternion
Matrix Computations*, 2018).  It is built from A's four real planes with
numpy alone, and so shares no code with either route: no complex
representation, no pair array and no complex LAPACK call.
"""

from __future__ import annotations

import numpy as np

from quatinv.qcore import QMatrix

# block (i, j) of chi is sign * plane: _BLOCKS[i][j] = (sign, plane index)
_BLOCKS = (((1, 0), (-1, 1), (-1, 2), (-1, 3)),
           ((1, 1), (1, 0), (-1, 3), (1, 2)),
           ((1, 2), (1, 3), (1, 0), (-1, 1)),
           ((1, 3), (-1, 2), (1, 1), (1, 0)))


def chi(a: QMatrix) -> np.ndarray:
    """The 4m-by-4n real representation of A."""
    planes = a.components()
    return np.block([[s * planes[p] for s, p in row] for row in _BLOCKS])


def from_chi(c: np.ndarray) -> QMatrix:
    """The quaternion matrix whose chi is nearest c: each plane is the mean
    of its four signed blocks (the orthogonal projection onto chi's image),
    so a real result that is chi(X) to rounding reads back as X."""
    m, n = c.shape[0] // 4, c.shape[1] // 4
    planes = np.zeros((4, m, n))
    for i, row in enumerate(_BLOCKS):
        for j, (s, p) in enumerate(row):
            planes[p] += s * c[i * m:(i + 1) * m, j * n:(j + 1) * n]
    return QMatrix.from_components(*(planes / 4))
