"""Dense quaternion matrices and their complex representation.

A quaternion ``zeta = w + x*i + y*j + z*k`` multiplies by the Hamilton rules
``i*j = -j*i = k``, ``j*k = -k*j = i``, ``k*i = -i*k = j``, ``i*i = j*j = k*k = -1``.
Writing ``zeta = g1 + g2*j`` with complex ``g1 = w + x*i`` and ``g2 = y + z*i``
(the Cayley-Dickson form), a dense m-by-n quaternion matrix is stored as the
complex component pair ``(Q1, Q2)`` with ``Q = Q1 + Q2*j``.

The complex representation of ``Q`` is the 2m-by-2n complex block matrix

    Q^C = [[ Q1,        Q2       ],
           [-conj(Q2),  conj(Q1) ]]

which is a ring homomorphism: sums, real scalings, products, and conjugate
transposes commute with the embedding.  A 2m-by-2n complex matrix ``C`` is a
complex representation of some quaternion matrix exactly when it satisfies the
symplectic constraint ``J_m C = conj(C) J_n`` with ``J_k = [[0, I],[-I, 0]]``.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "QMatrix",
    "QmatFormatError",
    "mat_mul",
    "crep_mul",
    "conj_transpose",
    "fro_norm",
    "to_crep",
    "from_crep",
    "symmetrize_crep",
    "random_qmat",
    "hstack_q",
    "vstack_q",
    "read_qmat",
    "write_qmat",
]

#: absolute symplectic-constraint tolerance is CREP_TOL * max(1, ||C||_F)
CREP_TOL = 1e-10

_EPS = np.finfo(float).eps
# the hand-written kernels form squared norms, which overflow or underflow
# unless the largest component magnitude lies in [_SAFE_MIN, _SAFE_MAX]
# (LAPACK's xGESVD bounds, sqrt(tiny) / eps and its reciprocal)
_SAFE_MIN = math.sqrt(np.finfo(float).tiny) / _EPS
_SAFE_MAX = 1.0 / _SAFE_MIN
# a sum of squares below this has lost digits to gradual underflow
_TINY_SUM = np.finfo(float).tiny / _EPS


def _as_complex(a) -> np.ndarray:
    out = np.array(a, dtype=np.complex128, copy=True)
    if out.ndim != 2:
        raise ValueError(f"expected a 2-D array, got shape {out.shape}")
    return out


class QMatrix:
    """Immutable dense m-by-n quaternion matrix ``Q = Q1 + Q2*j``.

    Parameters
    ----------
    q1, q2 : (m, n) array_like of complex
        Cayley-Dickson component pair.  The entry ``(i, j)`` as a quaternion
        is ``(Re Q1, Im Q1, Re Q2, Im Q2)`` at that position.

    The constructor copies both components, so a caller that later writes to
    the arrays it passed cannot change the matrix.  Results this module
    computes into fresh arrays no one else holds (``mat_mul``, ``+``, ``-``,
    negation, real scaling, ``hstack_q``, ``vstack_q`` and the symplectic
    projection behind ``symmetrize_crep``) own them instead: the arrays are
    made read-only in place, with no copy.  Only C-contiguous arrays that
    own their data are taken over.  A view or a transpose (``from_crep``'s
    blocks, ``conj_transpose``, the column halves of ``crep_mul``'s product
    row) still goes through the copying constructor: owning it would keep
    the whole parent buffer alive and hand later products a strided operand.
    """

    __slots__ = ("q1", "q2")

    def __init__(self, q1, q2):
        q1 = _as_complex(q1)
        q2 = _as_complex(q2)
        if q1.shape != q2.shape:
            raise ValueError(
                f"component shapes differ: {q1.shape} vs {q2.shape}")
        self._freeze(q1, q2)

    def _freeze(self, q1, q2):
        q1.setflags(write=False)
        q2.setflags(write=False)
        object.__setattr__(self, "q1", q1)
        object.__setattr__(self, "q2", q2)

    @classmethod
    def _own(cls, q1: np.ndarray, q2: np.ndarray) -> "QMatrix":
        # a matrix that takes over the fresh results q1 and q2 of this
        # module's arithmetic, which nothing else references; an array that
        # is not complex128 (the projection of a real array is real), not
        # C-contiguous or not the owner of its data is copied
        if not all(c.dtype == np.complex128 and c.flags.c_contiguous
                   and c.flags.owndata for c in (q1, q2)):
            return cls(q1, q2)
        out = object.__new__(cls)
        out._freeze(q1, q2)
        return out

    def __setattr__(self, name, value):
        raise AttributeError("QMatrix is immutable")

    # -- construction helpers ------------------------------------------------

    @classmethod
    def from_components(cls, w, x, y, z) -> "QMatrix":
        """Build from the four real component planes."""
        w, x, y, z = (np.asarray(t, dtype=float) for t in (w, x, y, z))
        return cls(w + 1j * x, y + 1j * z)

    @classmethod
    def from_real(cls, a) -> "QMatrix":
        """Embed a real (or complex) matrix as a quaternion matrix."""
        a = _as_complex(a)
        return cls(a, np.zeros_like(a))

    @classmethod
    def zeros(cls, m: int, n: int) -> "QMatrix":
        return cls(np.zeros((m, n), dtype=complex), np.zeros((m, n), dtype=complex))

    @classmethod
    def eye(cls, n: int) -> "QMatrix":
        return cls.from_real(np.eye(n))

    # -- basic queries -------------------------------------------------------

    @property
    def shape(self) -> tuple:
        return self.q1.shape

    @property
    def nrows(self) -> int:
        return self.q1.shape[0]

    @property
    def ncols(self) -> int:
        return self.q1.shape[1]

    def components(self) -> tuple:
        """The four real planes ``(w, x, y, z)``."""
        return (self.q1.real.copy(), self.q1.imag.copy(),
                self.q2.real.copy(), self.q2.imag.copy())

    def abs2(self) -> np.ndarray:
        """Entrywise squared quaternion modulus, a real (m, n) array."""
        return (self.q1.real**2 + self.q1.imag**2
                + self.q2.real**2 + self.q2.imag**2)

    # -- arithmetic ----------------------------------------------------------

    def __add__(self, other: "QMatrix") -> "QMatrix":
        if self.shape != other.shape:
            raise ValueError(f"shape mismatch: {self.shape} vs {other.shape}")
        return QMatrix._own(self.q1 + other.q1, self.q2 + other.q2)

    def __sub__(self, other: "QMatrix") -> "QMatrix":
        if self.shape != other.shape:
            raise ValueError(f"shape mismatch: {self.shape} vs {other.shape}")
        return QMatrix._own(self.q1 - other.q1, self.q2 - other.q2)

    def __neg__(self) -> "QMatrix":
        return QMatrix._own(-self.q1, -self.q2)

    def __mul__(self, alpha) -> "QMatrix":
        # real scalar scaling only; quaternion scaling is side-dependent
        alpha = float(alpha)
        return QMatrix._own(alpha * self.q1, alpha * self.q2)

    __rmul__ = __mul__

    def __matmul__(self, other: "QMatrix") -> "QMatrix":
        return mat_mul(self, other)

    def __repr__(self) -> str:
        return f"QMatrix(shape={self.shape})"


def mat_mul(a: QMatrix, b: QMatrix) -> QMatrix:
    """Quaternion matrix product via component-pair (direct) arithmetic.

    ``(A1 + A2 j)(B1 + B2 j) = (A1 B1 - A2 conj(B2)) + (A1 B2 + A2 conj(B1)) j``
    — four complex GEMMs, the native quaternion-arithmetic realization.
    """
    if a.ncols != b.nrows:
        raise ValueError(
            f"inner dimensions disagree: {a.shape} @ {b.shape}")
    return QMatrix._own(*_pair_mm(a.q1, a.q2, b.q1, b.q2))


def _pair_mm(a1, a2, b1, b2):
    # the pair (C1, C2) of (A1 + A2 j)(B1 + B2 j) from complex components
    return (a1 @ b1 - a2 @ np.conj(b2), a1 @ b2 + a2 @ np.conj(b1))


def crep_mul(a: QMatrix, b: QMatrix) -> QMatrix:
    """Quaternion matrix product via the complex representation.

    Multiplies the first block row ``[A1, A2]`` by ``B^C`` — one complex GEMM
    of doubled inner dimension.  Agrees with :func:`mat_mul` to rounding.
    """
    if a.ncols != b.nrows:
        raise ValueError(
            f"inner dimensions disagree: {a.shape} @ {b.shape}")
    row = np.hstack([a.q1, a.q2]) @ to_crep(b)
    n = b.ncols
    return QMatrix(row[:, :n], row[:, n:])


def _route_mul(route: str):
    # the product of a route ("direct" or "crep"), read from the module
    # globals at call time so wrappers installed on those names are seen
    if route == "direct":
        return mat_mul
    if route == "crep":
        return crep_mul
    raise ValueError(f"unknown route {route!r}")


def conj_transpose(a: QMatrix) -> QMatrix:
    """Conjugate transpose ``A*``; satisfies ``(A*)^C = (A^C)*``."""
    return QMatrix(np.conj(a.q1).T, -a.q2.T)


def fro_norm(a: QMatrix) -> float:
    """Frobenius norm ``sqrt(sum |q_ij|^2)``; equals ``sqrt(||A^C||_F^2 / 2)``.

    A sum of squares that overflows, or falls below tiny/eps where the
    squares lose digits, is summed again on A scaled by a power of two.
    """
    with np.errstate(over="ignore", under="ignore"):
        total = float(np.sum(a.abs2()))
        if total == math.inf or total < _TINY_SUM:
            a, k = _scale_to_safe(a)
            return math.ldexp(math.sqrt(float(np.sum(a.abs2()))), -k)
    return math.sqrt(total)


def _scale_to_safe(a: QMatrix):
    """(A 2^k, k), as xGESVD scales its input: k = 0 when the largest
    component magnitude of A is 0 or in the safe range, else the exact
    power of two that brings it to [1/2, 1)."""
    big = max(float(np.abs(t).max(initial=0.0))
              for c in (a.q1, a.q2) for t in (c.real, c.imag))
    if big == 0.0 or _SAFE_MIN <= big <= _SAFE_MAX:
        return a, 0
    # a subnormal big is brought only to 2^1023 big, still inside the range
    k = min(-math.frexp(big)[1], 1023)
    return a * math.ldexp(1.0, k), k


def _crep_dims(c: np.ndarray) -> tuple:
    # (m, n) of the quaternion matrix a 2m-by-2n complex array represents
    if c.ndim != 2 or c.shape[0] % 2 or c.shape[1] % 2:
        raise ValueError(f"expected a 2m-by-2n array, got shape {c.shape}")
    return c.shape[0] // 2, c.shape[1] // 2


def to_crep(a: QMatrix) -> np.ndarray:
    """The read-only 2m-by-2n complex representation ``A^C`` of A."""
    m, n = a.shape
    data = np.empty((2 * m, 2 * n), dtype=np.complex128)
    data[:m, :n], data[:m, n:] = a.q1, a.q2
    lower_left = data[m:, :n]
    np.conjugate(a.q2, out=lower_left)
    np.negative(lower_left, out=lower_left)
    np.conjugate(a.q1, out=data[m:, n:])
    data.setflags(write=False)
    return data


def _quaternion_part(c: np.ndarray) -> QMatrix:
    # the quaternion matrix whose complex representation is the symplectic
    # projection of the 2m-by-2n array c (see symmetrize_crep): the mean of
    # each component as read off the top and the bottom block row
    c = np.asarray(c)
    m, n = _crep_dims(c)
    return QMatrix._own(0.5 * (c[:m, :n] + np.conj(c[m:, n:])),
                        0.5 * (c[:m, n:] - np.conj(c[m:, :n])))


def symplectic_residual(c: np.ndarray) -> float:
    """Frobenius norm of ``J_m C - conj(C) J_n``.

    With C = [[C1, C2], [C3, C4]] that matrix is [[R1, R2], [conj R2,
    -conj R1]] for R1 = C3 + conj C2 and R2 = C4 - conj C1, so its norm is
    sqrt(2) times the :func:`fro_norm` of the pair (R1, R2): a sum of
    squares that neither overflows nor loses digits to underflow.
    """
    c = np.asarray(c)
    m, n = _crep_dims(c)
    r1 = c[m:, :n] + np.conj(c[:m, n:])
    r2 = c[m:, n:] - np.conj(c[:m, :n])
    return math.sqrt(2.0) * fro_norm(QMatrix(r1, r2))


def from_crep(c: np.ndarray) -> QMatrix:
    """Extract the quaternion matrix from a (valid) complex representation.

    The residual and ||C||_F (the :func:`fro_norm` of the pair of C's top
    and bottom block rows) are both scale-safe sums, so the test holds from
    1e-300 to 1e300.

    Raises
    ------
    ValueError
        If C is not 2m-by-2n, or if the symplectic constraint
        ``J_m C = conj(C) J_n`` is violated beyond
        ``CREP_TOL * max(1, ||C||_F)`` — the data is not the complex
        representation of any quaternion matrix.
    """
    c = np.asarray(c)
    m, n = _crep_dims(c)
    res = symplectic_residual(c)
    scale = max(1.0, fro_norm(QMatrix(c[:m], c[m:])))
    if res > CREP_TOL * scale:
        raise ValueError(
            f"symplectic constraint violated: residual {res / scale:.3e} "
            f"relative to max(1, ||C||_F) exceeds {CREP_TOL:.0e}")
    return QMatrix(c[:m, :n], c[:m, n:])


def symmetrize_crep(c0) -> np.ndarray:
    """Project a 2m-by-2n complex matrix onto the symplectic-constraint set.

    Returns the read-only ``C = (C0 + J_m^T conj(C0) J_n) / 2``, which
    satisfies ``J_m C = conj(C) J_n`` exactly (to rounding) and fixes every
    matrix that already satisfies the constraint.  C is the complex
    representation of the quaternion matrix with Q1 = (C11 + conj C22) / 2
    and Q2 = (C12 - conj C21) / 2.
    """
    return to_crep(_quaternion_part(c0))


def random_qmat(m: int, n: int, rng) -> QMatrix:
    """Random quaternion matrix, all four components uniform on [0, 1) from
    the numpy generator rng."""
    return QMatrix.from_components(*(rng.random((m, n)) for _ in range(4)))


def hstack_q(mats) -> QMatrix:
    """Concatenate quaternion matrices left to right."""
    return QMatrix._own(np.hstack([a.q1 for a in mats]),
                        np.hstack([a.q2 for a in mats]))


def vstack_q(mats) -> QMatrix:
    """Concatenate quaternion matrices top to bottom."""
    return QMatrix._own(np.vstack([a.q1 for a in mats]),
                        np.vstack([a.q2 for a in mats]))


# -- .qmat text format -------------------------------------------------------
#
# line 1:  QMAT <m> <n>
# then m*n row-major lines "w x y z"; '#' comment lines allowed before the
# header; writers emit 17 significant digits so values round-trip bitwise.


class QmatFormatError(ValueError):
    """Raised for malformed .qmat files."""


def write_qmat(path, a: QMatrix) -> None:
    """Write A as a ``.qmat`` text file: a ``QMAT m n`` header, then the m n
    entries row by row, one line of four components (w x y z of
    w + x i + y j + z k) each, printed with 17 significant digits so that
    reading the file back gives A bit for bit."""
    w, x, y, z = a.components()
    m, n = a.shape
    with open(path, "w", encoding="ascii") as fh:
        fh.write(f"QMAT {m} {n}\n")
        for i in range(m):
            for j in range(n):
                fh.write(f"{w[i, j]:.17g} {x[i, j]:.17g} "
                         f"{y[i, j]:.17g} {z[i, j]:.17g}\n")


def read_qmat(path) -> QMatrix:
    """Read a ``.qmat`` text file as written by :func:`write_qmat`.

    Blank lines and lines starting with ``#`` are skipped.  Raises
    :class:`QmatFormatError` for a bad header, a wrong number of entries or
    fields, and a non-numeric or non-finite (NaN, Inf) value.
    """
    with open(path, "r", encoding="ascii") as fh:
        header = None
        for raw in fh:
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            header = line
            break
        if header is None:
            raise QmatFormatError(f"{path}: empty file")
        parts = header.split()
        if len(parts) != 3 or parts[0] != "QMAT":
            raise QmatFormatError(f"{path}: bad header {header!r}")
        try:
            m, n = int(parts[1]), int(parts[2])
        except ValueError as exc:
            raise QmatFormatError(f"{path}: bad header {header!r}") from exc
        if m < 0 or n < 0:
            raise QmatFormatError(f"{path}: negative dimensions in {header!r}")
        vals = np.zeros((m * n, 4))
        got = 0
        for raw in fh:
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if got >= m * n:
                raise QmatFormatError(f"{path}: more than {m*n} entries")
            fields = line.split()
            if len(fields) != 4:
                raise QmatFormatError(
                    f"{path}: entry {got}: expected 4 fields, got {len(fields)}")
            try:
                vals[got] = [float(t) for t in fields]
            except ValueError as exc:
                raise QmatFormatError(
                    f"{path}: entry {got}: non-numeric field") from exc
            if not np.isfinite(vals[got]).all():
                raise QmatFormatError(
                    f"{path}: entry {got} (row {got // n}, column {got % n}):"
                    f" non-finite value {line!r}")
            got += 1
        if got != m * n:
            raise QmatFormatError(f"{path}: expected {m*n} entries, got {got}")
    planes = vals.reshape(m, n, 4)
    return QMatrix.from_components(planes[..., 0], planes[..., 1],
                                   planes[..., 2], planes[..., 3])
