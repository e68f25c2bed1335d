"""Rank, full rank decomposition, quaternion SVD, and the free-block {1}-inverse.

Two computational routes are kept genuinely separate throughout:

* ``direct`` — native quaternion arithmetic on the Cayley-Dickson component
  pair (quaternion Householder bidiagonalization to a real bidiagonal, whose
  SVD is then real LAPACK work; quaternion row operations for the
  elimination).  A^C is never formed.
* ``crep``  — complex structure-preserving arithmetic on the doubled complex
  representation (one complex SVD / GEMM of doubled size, followed by exact
  restoration of the quaternion block structure; singular-vector pairs the
  pairing walk misses are picked by largest residual, each pick deflating
  the candidates by one rank-2 update).

Both must agree to rounding; the test suite enforces this.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .qcore import (
    QMatrix,
    conj_transpose,
    crep_mul,
    fro_norm,
    mat_mul,
    to_crep,
)

__all__ = [
    "FullRankFactorization",
    "QSvdResult",
    "rank",
    "qsvd",
    "full_rank_decompose",
    "one_inverse",
    "random_free_blocks",
]

_EPS = np.finfo(float).eps


def _rank_threshold(sigma: np.ndarray, m: int, n: int) -> float:
    # sigma: deduplicated quaternion singular values, nonincreasing
    if sigma.size == 0 or sigma[0] == 0.0:
        return 0.0
    return max(m, n) * _EPS * float(sigma[0])


def _require_finite(a: QMatrix, op: str) -> None:
    # LAPACK would only report "SVD did not converge" on NaN/Inf input
    if not (np.isfinite(a.q1).all() and np.isfinite(a.q2).all()):
        raise ValueError(f"{op}: input has non-finite entries (NaN or Inf)")


def _crep_singular_values(a: QMatrix) -> np.ndarray:
    """Quaternion singular values = pairwise-deduplicated spectrum of A^C."""
    s = np.linalg.svd(to_crep(a).data, compute_uv=False)
    return 0.5 * (s[0::2] + s[1::2])


def rank(a: QMatrix) -> int:
    """Numerical rank of a quaternion matrix: half the rank of A^C."""
    _require_finite(a, "rank")
    m, n = a.shape
    if m == 0 or n == 0:
        return 0
    sig = _crep_singular_values(a)
    return int(np.count_nonzero(sig > _rank_threshold(sig, m, n)))


# =========================================================== quaternion SVD


@dataclass(frozen=True)
class QSvdResult:
    """SVD ``A = U diag(sigma) V*`` with unitary quaternion U (m,m), V (n,n)."""

    u: QMatrix
    sigma: np.ndarray
    v: QMatrix
    rank: int

    def reconstruct(self) -> QMatrix:
        k = self.sigma.size
        us1 = self.u.q1[:, :k] * self.sigma
        us2 = self.u.q2[:, :k] * self.sigma
        vk = QMatrix(self.v.q1[:, :k], self.v.q2[:, :k])
        return mat_mul(QMatrix(us1, us2), conj_transpose(vk))


def qsvd(a: QMatrix, method: str = "crep") -> QSvdResult:
    """Quaternion SVD by the selected realization.

    Parameters
    ----------
    a : QMatrix
    method : {"crep", "direct"}
        "crep": complex SVD of A^C with symplectic structure restoration.
        "direct": quaternion Householder bidiagonalization followed by the
        real LAPACK SVD of the bidiagonal.

    Raises ``ValueError`` for an input with NaN or Inf entries, and
    ``np.linalg.LinAlgError`` (a ``ValueError``) if LAPACK does not converge.
    """
    _require_finite(a, "qsvd")
    m, n = a.shape
    if m == 0 or n == 0:
        return QSvdResult(QMatrix.eye(m), np.zeros(0), QMatrix.eye(n), 0)
    if method == "crep":
        return _qsvd_crep(a)
    if method == "direct":
        return _qsvd_direct(a)
    raise ValueError(f"unknown qsvd method {method!r}")


def _psi_partner(w: np.ndarray, half: int) -> np.ndarray:
    # -J conj(w): the forced partner column of a symplectic block basis
    out = np.empty_like(w)
    out[:half] = -np.conj(w[half:])
    out[half:] = np.conj(w[:half])
    return out


def _greedy_pairs(columns: np.ndarray, svals: np.ndarray, half: int,
                  want: int):
    """Walk `columns` in order, keeping one representative per antiunitary pair.

    Each kept column w is orthonormalized against everything kept so far and
    against the forced partners -J conj(w); a column that deflates to (near)
    nothing is the partner of an earlier keep and is skipped.  Returns the
    kept representatives, their associated singular values, and the full
    orthonormal basis (keeps + partners) for later completion.
    """
    basis = np.empty((columns.shape[0], 2 * want), dtype=complex)
    k = 0
    reps, sigs = [], []
    for idx in range(columns.shape[1]):
        if len(reps) == want:
            break
        v = columns[:, idx].astype(complex)
        if k:
            kept = basis[:, :k]
            v -= kept @ np.conj(np.conj(v) @ kept)
        nrm = np.linalg.norm(v)
        if nrm <= math.sqrt(0.5):
            continue  # partner of an earlier keep
        w = v / nrm
        reps.append(w)
        sigs.append(float(svals[idx]))
        basis[:, k] = w
        basis[:, k + 1] = _psi_partner(w, half)
        k += 2
    return reps, sigs, basis[:, :k]


def _complete_pairs(cands: np.ndarray, half: int, count: int):
    """`count` pair representatives from the span of `cands`.

    `cands` must be orthogonal to the pairs found so far and span a space
    closed under w -> -J conj(w).  Each pick is the candidate with the
    largest residual norm; the candidates are then deflated by the new pair.
    Returns the representatives and the indices of the picked candidates.
    """
    reps, picked = [], []
    for _ in range(count):
        norms = np.linalg.norm(cands, axis=0)
        t = int(np.argmax(norms))
        w = cands[:, t] / norms[t]
        for p in (w, _psi_partner(w, half)):
            cands = cands - np.outer(p, np.conj(p) @ cands)
        reps.append(w)
        picked.append(t)
    return reps, picked


def _qsvd_crep(a: QMatrix) -> QSvdResult:
    m, n = a.shape
    c = to_crep(a).data  # exactly symplectic by construction
    _, shat, vhat_h = np.linalg.svd(c, full_matrices=True)
    vhat = vhat_h.conj().T
    svals = np.zeros(2 * n)
    svals[: shat.size] = shat

    # right singular pairs.  Within a repeated (or null) singular value the
    # columns of vhat need not come paired and the walk can fall short; the
    # rest is picked from the walked columns' residuals, which stay inside
    # their own singular subspace and so keep their singular values.
    w_reps, w_sigs, w_basis = _greedy_pairs(vhat, svals, n, n)
    if len(w_reps) < n:
        resid = vhat - w_basis @ (w_basis.conj().T @ vhat)
        extra, picked = _complete_pairs(resid, n, n - len(w_reps))
        w_reps += extra
        w_sigs += [float(svals[t]) for t in picked]

    order = np.argsort(-np.asarray(w_sigs), kind="stable")
    w_cols = np.column_stack([w_reps[t] for t in order])
    sigma = np.asarray(w_sigs)[order][: min(m, n)]
    r = int(np.count_nonzero(sigma > _rank_threshold(sigma, m, n)))

    # left vectors: u_c = C w_c / sigma_c above the rank cut, then re-paired
    # to restore exact orthonormality, then symplectic completion (which
    # also makes up any representative the re-pairing lost)
    u_basis = np.zeros((2 * m, 0), dtype=complex)
    u_reps = []
    if r:
        raw = c @ w_cols[:, :r] / sigma[:r]
        u_reps, _, u_basis = _greedy_pairs(raw, sigma[:r], m, r)
    if len(u_reps) < m:
        # the complement of the left pairs, from one complete QR, is closed
        # under w -> -J conj(w)
        q, _ = np.linalg.qr(u_basis, mode="complete")
        extra, _ = _complete_pairs(q[:, u_basis.shape[1]:], m,
                                   m - len(u_reps))
        u_reps += extra
    u_cols = np.column_stack(u_reps)

    u = QMatrix(u_cols[:m, :], -np.conj(u_cols[m:, :]))
    v = QMatrix(w_cols[:n, :], -np.conj(w_cols[n:, :]))
    return QSvdResult(u, sigma, v, r)


# ---------------------------------------------------- direct route kernels
#
# Pair arithmetic on (X1, X2) complex arrays, X = X1 + X2*j.  Scalars are
# (s1, s2) pairs.


def _pair_mm(a1, a2, b1, b2):
    return (a1 @ b1 - a2 @ np.conj(b2), a1 @ b2 + a2 @ np.conj(b1))


def _scalar_times(s1, s2, x1, x2):
    # quaternion scalar (s1,s2) left-multiplying entries of (x1,x2)
    return s1 * x1 - s2 * np.conj(x2), s1 * x2 + s2 * np.conj(x1)


def _times_scalar(x1, x2, s1, s2):
    # entries of (x1,x2) right-multiplied by quaternion scalar (s1,s2)
    return x1 * s1 - x2 * np.conj(s2), x1 * s2 + x2 * np.conj(s1)


def _reflector(x1, x2):
    """Householder data (v, ||v||^2, beta) sending x to -mu*beta*e1.

    mu = x_1/|x_1| (1 if x_1 = 0) and beta = ||x||, so the reflected vector's
    leading entry has the magnitude of x and the rest vanish.
    """
    beta = math.sqrt(float(np.sum(np.abs(x1) ** 2 + np.abs(x2) ** 2)))
    if beta == 0.0:
        return None
    h1 = abs(complex(x1[0])) ** 2 + abs(complex(x2[0])) ** 2
    habs = math.sqrt(h1)
    if habs == 0.0:
        mu1, mu2 = 1.0 + 0j, 0j
    else:
        mu1, mu2 = x1[0] / habs, x2[0] / habs
    v1 = x1.astype(complex).copy()
    v2 = x2.astype(complex).copy()
    v1[0] += mu1 * beta
    v2[0] += mu2 * beta
    vn2 = float(np.sum(np.abs(v1) ** 2 + np.abs(v2) ** 2))
    return v1, v2, vn2


def _apply_reflector_left(b1, b2, v1, v2, vn2):
    # B := (I - (2/vn2) v v*) B  in place on the given views
    vc1, vc2 = np.conj(v1), -v2  # v* entries
    w1, w2 = _pair_mm(vc1[None, :], vc2[None, :], b1, b2)
    u1, u2 = _pair_mm(v1[:, None], v2[:, None], w1, w2)
    b1 -= (2.0 / vn2) * u1
    b2 -= (2.0 / vn2) * u2


def _apply_reflector_right(b1, b2, v1, v2, vn2):
    # B := B (I - (2/vn2) v v*) in place
    t1, t2 = _pair_mm(b1, b2, v1[:, None], v2[:, None])
    vc1, vc2 = np.conj(v1), -v2
    u1, u2 = _pair_mm(t1, t2, vc1[None, :], vc2[None, :])
    b1 -= (2.0 / vn2) * u1
    b2 -= (2.0 / vn2) * u2


def _bidiagonalize(a: QMatrix):
    """Reduce A (m >= n) to real upper bidiagonal B = U* A V by quaternion
    Householder reflectors with unit-quaternion phase normalization."""
    m, n = a.shape
    b1, b2 = a.q1.copy(), a.q2.copy()
    u1 = np.eye(m, dtype=complex)
    u2 = np.zeros((m, m), dtype=complex)
    v1 = np.eye(n, dtype=complex)
    v2 = np.zeros((n, n), dtype=complex)

    for c in range(n):
        ref = _reflector(b1[c:, c], b2[c:, c])
        if ref is not None:
            rv1, rv2, vn2 = ref
            _apply_reflector_left(b1[c:, c:], b2[c:, c:], rv1, rv2, vn2)
            # U := U H (same reflector, applied from the right)
            _apply_reflector_right(u1[:, c:], u2[:, c:], rv1, rv2, vn2)
        # make the diagonal entry real nonnegative: row *= d, U col *= conj(d)
        pa = math.sqrt(abs(complex(b1[c, c])) ** 2 + abs(complex(b2[c, c])) ** 2)
        if pa > 0.0:
            d1, d2 = np.conj(b1[c, c]) / pa, -b2[c, c] / pa
            b1[c, c:], b2[c, c:] = _scalar_times(d1, d2, b1[c, c:], b2[c, c:])
            u1[:, c], u2[:, c] = _times_scalar(
                u1[:, c], u2[:, c], np.conj(d1), -d2)
            b1[c, c] = b1[c, c].real
            b2[c, c] = 0.0
        if c + 1 < n:
            # right reflector built from the conjugated row tail
            y1, y2 = np.conj(b1[c, c + 1:]), -b2[c, c + 1:]
            ref = _reflector(y1, y2)
            if ref is not None:
                rv1, rv2, vn2 = ref
                _apply_reflector_right(b1[c:, c + 1:], b2[c:, c + 1:],
                                       rv1, rv2, vn2)
                _apply_reflector_right(v1[:, c + 1:], v2[:, c + 1:],
                                       rv1, rv2, vn2)
            pa = math.sqrt(abs(complex(b1[c, c + 1])) ** 2
                           + abs(complex(b2[c, c + 1])) ** 2)
            if pa > 0.0:
                q1c, q2c = b1[c, c + 1], b2[c, c + 1]
                e1, e2 = np.conj(q1c) / pa, -q2c / pa
                b1[c:, c + 1], b2[c:, c + 1] = _times_scalar(
                    b1[c:, c + 1], b2[c:, c + 1], e1, e2)
                v1[:, c + 1], v2[:, c + 1] = _times_scalar(
                    v1[:, c + 1], v2[:, c + 1], e1, e2)
                b1[c, c + 1] = b1[c, c + 1].real
                b2[c, c + 1] = 0.0
    d = np.array([b1[t, t].real for t in range(n)])
    e = np.array([b1[t, t + 1].real for t in range(n - 1)])
    return QMatrix(u1, u2), d, e, QMatrix(v1, v2)


def _qsvd_direct(a: QMatrix) -> QSvdResult:
    m, n = a.shape
    if m < n:
        res = _qsvd_direct(conj_transpose(a))
        return QSvdResult(res.v, res.sigma, res.u, res.rank)
    u0, d, e, v0 = _bidiagonalize(a)
    # the bidiagonal is real: its SVD is plain real LAPACK work
    ur, sigma, vrt = np.linalg.svd(np.diag(d) + np.diag(e, 1))
    # real rotations mix quaternion columns componentwise
    u1 = u0.q1.copy()
    u2 = u0.q2.copy()
    u1[:, :n] = u0.q1[:, :n] @ ur
    u2[:, :n] = u0.q2[:, :n] @ ur
    v = QMatrix(v0.q1 @ vrt.T, v0.q2 @ vrt.T)
    r = int(np.count_nonzero(sigma > _rank_threshold(sigma, m, n)))
    return QSvdResult(QMatrix(u1, u2), sigma, v, r)


# ================================================= full rank decomposition


@dataclass(frozen=True)
class FullRankFactorization:
    """A = F @ G with F (m, r) full column rank and G (r, n) full row rank.

    ``r == 0`` designates the empty factorization of the zero matrix; callers
    must check :attr:`is_empty` before dividing by anything.
    """

    f: QMatrix
    g: QMatrix
    r: int

    @property
    def is_empty(self) -> bool:
        return self.r == 0


def _elim_tol(a: QMatrix) -> float:
    m, n = a.shape
    big = math.sqrt(float(a.abs2().max())) if m and n else 0.0
    return max(m, n) * _EPS * big


def _rref_direct(a: QMatrix, tol: float):
    """Reduced row echelon form by quaternion row operations on the pair."""
    a1, a2 = a.q1.copy(), a.q2.copy()
    m, n = a1.shape
    piv_cols = []
    row = 0
    # rejection threshold must follow element growth, or leftover rounding
    # noise in a rank-deficient tail can masquerade as one more pivot
    big = 0.0
    for c in range(n):
        if row == m:
            break
        big = max(big, math.sqrt(float((np.abs(a1) ** 2
                                        + np.abs(a2) ** 2).max())))
        tol_c = max(tol, max(m, n) * _EPS * big)
        width = np.abs(a1[row:, c]) ** 2 + np.abs(a2[row:, c]) ** 2
        imax = row + int(np.argmax(width))
        if math.sqrt(float(width[imax - row])) <= tol_c:
            continue
        if imax != row:
            a1[[row, imax]] = a1[[imax, row]]
            a2[[row, imax]] = a2[[imax, row]]
        p1, p2 = complex(a1[row, c]), complex(a2[row, c])
        n2 = abs(p1) ** 2 + abs(p2) ** 2
        s1, s2 = np.conj(p1) / n2, -p2 / n2  # p^{-1}
        a1[row], a2[row] = _scalar_times(s1, s2, a1[row], a2[row])
        a1[row, c] = 1.0
        a2[row, c] = 0.0
        q1 = a1[:, c].copy()
        q2 = a2[:, c].copy()
        q1[row] = 0.0
        q2[row] = 0.0
        # rows -= q * pivot_row (quaternion outer update)
        a1 -= q1[:, None] * a1[row][None, :] - q2[:, None] * np.conj(a2[row])[None, :]
        a2 -= q1[:, None] * a2[row][None, :] + q2[:, None] * np.conj(a1[row])[None, :]
        a1[:, c] = 0.0
        a2[:, c] = 0.0
        a1[row, c] = 1.0
        piv_cols.append(c)
        row += 1
    return QMatrix(a1[:row], a2[:row]), piv_cols


def _rref_crep(a: QMatrix, tol: float):
    """Same elimination, carried out on the doubled complex representation
    with paired block rows (complex structure preserving)."""
    m, n = a.shape
    d = to_crep(a).data.copy()
    piv_cols = []
    row = 0
    # growth-aware threshold, mirroring _rref_direct (quaternion magnitudes
    # read off the representative top block row pair)
    big = 0.0
    for c in range(n):
        if row == m:
            break
        big = max(big, math.sqrt(float((np.abs(d[:m, :n]) ** 2
                                        + np.abs(d[:m, n:]) ** 2).max())))
        tol_c = max(tol, max(m, n) * _EPS * big)
        width = np.abs(d[row:m, c]) ** 2 + np.abs(d[row:m, c + n]) ** 2
        imax = row + int(np.argmax(width))
        if math.sqrt(float(width[imax - row])) <= tol_c:
            continue
        if imax != row:
            d[[row, imax]] = d[[imax, row]]
            d[[m + row, m + imax]] = d[[m + imax, m + row]]
        p1, p2 = complex(d[row, c]), complex(d[row, c + n])
        n2 = abs(p1) ** 2 + abs(p2) ** 2
        s1, s2 = np.conj(p1) / n2, -p2 / n2
        sb = np.array([[s1, s2], [-np.conj(s2), np.conj(s1)]])
        d[[row, m + row], :] = sb @ d[[row, m + row], :]
        q1 = d[:m, c].copy()
        q2 = d[:m, c + n].copy()
        q1[row] = 0.0
        q2[row] = 0.0
        top = d[row, :].copy()
        bot = d[m + row, :].copy()
        d[:m, :] -= q1[:, None] * top[None, :] + q2[:, None] * bot[None, :]
        d[m:, :] -= (-np.conj(q2)[:, None] * top[None, :]
                     + np.conj(q1)[:, None] * bot[None, :])
        for cc in (c, c + n):
            d[:, cc] = 0.0
        d[row, c] = 1.0
        d[m + row, c + n] = 1.0
        piv_cols.append(c)
        row += 1
    return QMatrix(d[:row, :n], d[:row, n:]), piv_cols


def full_rank_decompose(a: QMatrix, side: str = "column-form",
                        route: str = "direct") -> FullRankFactorization:
    """Full rank decomposition A = F G by column-pivoted elimination.

    Parameters
    ----------
    a : QMatrix
    side : {"column-form", "row-form"}
        "column-form": F is built from the pivot columns of A and G from the
        reduced rows.  "row-form": the mirrored construction from the pivot
        rows (the elimination runs on A* and the factors are conjugate-
        transposed back), so the row factor inherits A's left spaces.
    route : {"direct", "crep"}
        Arithmetic realization of the elimination.
    """
    kind = side.split("-")[0]
    if kind == "row":
        fact = full_rank_decompose(conj_transpose(a), side="column-form",
                                   route=route)
        return FullRankFactorization(
            conj_transpose(fact.g), conj_transpose(fact.f), fact.r)
    if kind != "column":
        raise ValueError(f"unknown side {side!r}")
    if route == "direct":
        g, piv = _rref_direct(a, _elim_tol(a))
    elif route == "crep":
        g, piv = _rref_crep(a, _elim_tol(a))
    else:
        raise ValueError(f"unknown route {route!r}")
    f = QMatrix(a.q1[:, piv], a.q2[:, piv])
    return FullRankFactorization(f, g, len(piv))


# ========================================================== {1}-inverse


def random_free_blocks(q: int, p: int, s: int, rng: np.random.Generator):
    """Uniform-[0,1) free blocks (K, L, M) for a rank-s q-by-p input."""
    from .qcore import random_qmat

    return (random_qmat(s, q - s, rng),
            random_qmat(p - s, s, rng),
            random_qmat(p - s, q - s, rng))


def one_inverse(w: QMatrix, k: QMatrix | None = None,
                l: QMatrix | None = None, m: QMatrix | None = None,
                method: str = "crep") -> QMatrix:
    """A {1}-inverse of w from its SVD and arbitrary free blocks.

    With ``w = U diag(sigma) V*`` of rank s, every choice of K (s, q-s),
    L (p-s, s), M (p-s, q-s) gives

        w^(1) = V [[diag(sigma_{1..s})^{-1}, K], [L, M]] U*

    and ``w @ w^(1) @ w == w`` holds for all of them.  Zero blocks (the
    default) give the Moore-Penrose inverse of w.
    """
    qdim, pdim = w.shape
    res = qsvd(w, method=method)
    s = res.rank
    if k is None:
        k = QMatrix.zeros(s, qdim - s)
    if l is None:
        l = QMatrix.zeros(pdim - s, s)
    if m is None:
        m = QMatrix.zeros(pdim - s, qdim - s)
    for name, blk, want in (("K", k, (s, qdim - s)),
                            ("L", l, (pdim - s, s)),
                            ("M", m, (pdim - s, qdim - s))):
        if blk.shape != want:
            raise ValueError(
                f"free block {name} has shape {blk.shape}, expected {want}")
    mid1 = np.zeros((pdim, qdim), dtype=complex)
    mid2 = np.zeros((pdim, qdim), dtype=complex)
    if s:
        mid1[:s, :s] = np.diag(1.0 / res.sigma[:s])
    mid1[:s, s:] = k.q1
    mid2[:s, s:] = k.q2
    mid1[s:, :s] = l.q1
    mid2[s:, :s] = l.q2
    mid1[s:, s:] = m.q1
    mid2[s:, s:] = m.q2
    mid = QMatrix(mid1, mid2)
    mm = mat_mul if method == "direct" else crep_mul
    return mm(mm(res.v, mid), conj_transpose(res.u))
