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
    """

    __slots__ = ("q1", "q2")

    def __init__(self, q1, q2):
        q1 = _as_complex(q1)
        q2 = _as_complex(q2)
        if q1.shape != q2.shape:
            raise ValueError(
                f"component shapes differ: {q1.shape} vs {q2.shape}")
        q1.setflags(write=False)
        q2.setflags(write=False)
        object.__setattr__(self, "q1", q1)
        object.__setattr__(self, "q2", q2)

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
        return QMatrix(self.q1 + other.q1, self.q2 + other.q2)

    def __sub__(self, other: "QMatrix") -> "QMatrix":
        if self.shape != other.shape:
            raise ValueError(f"shape mismatch: {self.shape} vs {other.shape}")
        return QMatrix(self.q1 - other.q1, self.q2 - other.q2)

    def __neg__(self) -> "QMatrix":
        return QMatrix(-self.q1, -self.q2)

    def __mul__(self, alpha) -> "QMatrix":
        # real scalar scaling only; quaternion scaling is side-dependent
        alpha = float(alpha)
        return QMatrix(alpha * self.q1, alpha * self.q2)

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
    c1 = a.q1 @ b.q1 - a.q2 @ np.conj(b.q2)
    c2 = a.q1 @ b.q2 + a.q2 @ np.conj(b.q1)
    return QMatrix(c1, c2)


def crep_mul(a: QMatrix, b: QMatrix) -> QMatrix:
    """Quaternion matrix product via the complex representation.

    Multiplies the first block row ``[A1, A2]`` by ``B^C`` — one complex GEMM
    of doubled inner dimension.  Agrees with :func:`mat_mul` to rounding.
    """
    if a.ncols != b.nrows:
        raise ValueError(
            f"inner dimensions disagree: {a.shape} @ {b.shape}")
    return _row_times_crep(a, to_crep(b))


def _row_times_crep(a: QMatrix, bc: np.ndarray) -> QMatrix:
    # A B as the first block row [A1, A2] of A^C times B^C, for a B that is
    # already held in its complex representation bc
    _, n = _crep_dims(bc)
    row = np.hstack([a.q1, a.q2]) @ bc
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


def _scale_to_safe(a: QMatrix, ncols: int | None = None, power: int = 1):
    """(A 2^k, k), as xGESVD scales its input: k = 0 when the largest
    component magnitude of A's first ncols columns (all by default) is 0 or
    its power-th power is in the safe range, else the exact power of two
    that brings it to [1/2, 1)."""
    big = max(float(np.abs(t[:, :ncols]).max(initial=0.0))
              for t in (a.q1.real, a.q1.imag, a.q2.real, a.q2.imag))
    if big == 0.0 or (_SAFE_MIN ** (1.0 / power) <= big
                      <= _SAFE_MAX ** (1.0 / power)):
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
    data = np.block([[a.q1, a.q2], [-np.conj(a.q2), np.conj(a.q1)]])
    data.setflags(write=False)
    return data


def symplectic_residual(c: np.ndarray) -> float:
    """Frobenius norm of ``J_m C - conj(C) J_n`` computed blockwise."""
    c = np.asarray(c)
    m, n = _crep_dims(c)
    c1, c2 = c[:m, :n], c[:m, n:]
    c3, c4 = c[m:, :n], c[m:, n:]
    # J_m C = [[C3, C4], [-C1, -C2]];  conj(C) J_n = [[-conj C2, conj C1],
    #                                                 [-conj C4, conj C3]]
    r1 = c3 + np.conj(c2)
    r2 = c4 - np.conj(c1)
    r3 = -c1 + np.conj(c4)
    r4 = -c2 - np.conj(c3)
    return math.sqrt(sum(float(np.sum(np.abs(t) ** 2)) for t in (r1, r2, r3, r4)))


def from_crep(c: np.ndarray) -> QMatrix:
    """Extract the quaternion matrix from a (valid) complex representation.

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
    scale = max(1.0, float(np.linalg.norm(c)))
    if res > CREP_TOL * scale:
        raise ValueError(
            f"symplectic constraint violated: residual {res:.3e} exceeds "
            f"{CREP_TOL:.0e} * {scale:.3e}")
    return QMatrix(c[:m, :n], c[:m, n:])


def symmetrize_crep(c0) -> np.ndarray:
    """Project a 2m-by-2n complex matrix onto the symplectic-constraint set.

    Returns the read-only ``C = (C0 + J_m^T conj(C0) J_n) / 2``, which
    satisfies ``J_m C = conj(C) J_n`` exactly (to rounding) and fixes every
    matrix that already satisfies the constraint.  Used to restore
    quaternion structure after an unstructured complex computation.
    """
    c0 = np.asarray(c0, dtype=complex)
    m, n = _crep_dims(c0)
    d1, d2 = np.conj(c0[:m, :n]), np.conj(c0[:m, n:])
    d3, d4 = np.conj(c0[m:, :n]), np.conj(c0[m:, n:])
    # J_m^T conj(C0) J_n = [[d4, -d3], [-d2, d1]]
    twisted = np.block([[d4, -d3], [-d2, d1]])
    data = 0.5 * (c0 + twisted)
    data.setflags(write=False)
    return data


def random_qmat(m: int, n: int, rng: np.random.Generator) -> QMatrix:
    """Random quaternion matrix with all four components uniform on [0, 1)."""
    return QMatrix.from_components(*(rng.random((m, n)) for _ in range(4)))


def hstack_q(mats) -> QMatrix:
    """Concatenate quaternion matrices left to right."""
    return QMatrix(np.hstack([a.q1 for a in mats]),
                   np.hstack([a.q2 for a in mats]))


def vstack_q(mats) -> QMatrix:
    """Concatenate quaternion matrices top to bottom."""
    return QMatrix(np.vstack([a.q1 for a in mats]),
                   np.vstack([a.q2 for a in mats]))


# -- .qmat text format -------------------------------------------------------
#
# line 1:  QMAT <m> <n>
# then m*n row-major lines "w x y z"; '#' comment lines allowed before the
# header; writers emit 17 significant digits so values round-trip bitwise.


class QmatFormatError(ValueError):
    """Raised for malformed .qmat files."""


def write_qmat(path, a: QMatrix, comments=()) -> None:
    w, x, y, z = a.components()
    m, n = a.shape
    with open(path, "w", encoding="ascii") as fh:
        for line in comments:
            fh.write(f"# {line}\n")
        fh.write(f"QMAT {m} {n}\n")
        for i in range(m):
            for j in range(n):
                fh.write(f"{w[i, j]:.17g} {x[i, j]:.17g} "
                         f"{y[i, j]:.17g} {z[i, j]:.17g}\n")


def read_qmat(path) -> QMatrix:
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
