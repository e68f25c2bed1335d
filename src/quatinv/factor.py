"""Rank, full rank decomposition, quaternion SVD, and the free-block {1}-inverse.

Two computational routes are kept genuinely separate throughout:

* ``direct`` — native quaternion arithmetic on the Cayley-Dickson component
  pair (quaternion Householder bidiagonalization to a real bidiagonal, whose
  SVD is then real LAPACK work; quaternion row operations for the
  elimination).  The bidiagonalization loop applies only the reflectors;
  one scalar pass then finds the unit-quaternion phases that make the
  bidiagonal real, and U and V are the reflector products in compact-WY
  form, I - Y T Y*, times one diagonal of phases.  A^C is never formed.
* ``crep``  — complex structure-preserving arithmetic on the doubled complex
  representation (one complex SVD / GEMM of doubled size, and no other
  factorization, followed by exact restoration of the quaternion block
  structure; one routine pairs the singular vectors of either side, picking
  the pairs its walk misses by largest residual).

Both must agree to rounding; the test suite enforces this.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .qcore import (
    QMatrix,
    _route_mul,
    conj_transpose,
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


def _pairs(cands: np.ndarray, half: int, walk: int):
    """`half` orthonormal pair representatives from the columns of `cands`.

    The first `walk` columns are walked in order; each is orthonormalized
    against the pairs kept so far (w and its forced partner -J conj(w)), and
    one that deflates to (near) nothing is a partner and is skipped.  Pairs
    the walk falls short of are completed from the residuals of the columns
    not kept, which with the kept pairs must span a space closed under
    w -> -J conj(w).  Returns the representatives as columns and the column
    of `cands` each came from.
    """
    basis = np.empty((cands.shape[0], 2 * half), dtype=complex)
    k = 0
    src = []
    for idx in range(walk):
        if k == 2 * half:
            break
        v = cands[:, idx].copy()
        if k:
            kept = basis[:, :k]
            v -= kept @ np.conj(np.conj(v) @ kept)
        nrm = np.linalg.norm(v)
        if nrm <= math.sqrt(0.5):
            continue  # partner of an earlier keep
        basis[:, k] = v / nrm
        basis[:, k + 1] = _psi_partner(basis[:, k], half)
        src.append(idx)
        k += 2
    reps = basis[:, 0:k:2]
    if k < 2 * half:
        kept = basis[:, :k]
        rest = np.delete(np.arange(cands.shape[1]), src)
        resid = cands[:, rest] - kept @ (kept.conj().T @ cands[:, rest])
        extra, picked = _complete_pairs(resid, half, half - k // 2)
        reps = np.column_stack([reps] + extra)
        src += rest[picked].tolist()
    return reps, src


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
    uhat, shat, vhat_h = np.linalg.svd(c, full_matrices=True)
    svals = np.zeros(2 * n)
    svals[: shat.size] = shat

    # right singular pairs.  Within a repeated (or null) singular value the
    # columns of vhat need not come paired and the walk can fall short; the
    # rest is picked from the skipped columns' residuals, which stay inside
    # their own singular subspace and so keep their singular values.
    w_cols, src = _pairs(vhat_h.conj().T, n, 2 * n)
    w_sigs = svals[src]
    order = np.argsort(-w_sigs, kind="stable")
    w_cols = w_cols[:, order]
    sigma = w_sigs[order][: min(m, n)]
    r = int(np.count_nonzero(sigma > _rank_threshold(sigma, m, n)))

    # left vectors: u_c = C w_c / sigma_c above the rank cut, re-paired to
    # restore exact orthonormality, then completed from those columns and
    # the complex SVD's left vectors past 2r, whose span is closed under
    # w -> -J conj(w) and also holds any representative the walk lost
    raw = c @ w_cols[:, :r] / sigma[:r]
    u_cols, _ = _pairs(np.hstack([raw, uhat[:, 2 * r:]]), m, r)

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
    """Householder data (v, tau) with (I - tau v v*) x = -mu*beta*e1.

    mu = x_1/|x_1| (1 if x_1 = 0) and beta = ||x||, so the reflected vector's
    leading entry has the magnitude of x and the rest vanish.  v is returned
    as one (k, 2) array holding the pair (v1, v2) as its columns, and
    tau = 2/||v||^2 = 1/(beta (beta + |x_1|)) is real.
    """
    beta = math.sqrt(np.vdot(x1, x1).real + np.vdot(x2, x2).real)
    if beta == 0.0:
        return None
    habs = math.sqrt(abs(complex(x1[0])) ** 2 + abs(complex(x2[0])) ** 2)
    v = np.stack([x1, x2], axis=1)
    if habs == 0.0:
        v[0, 0] += beta
    else:
        v[0] *= 1.0 + beta / habs  # x_1 + mu*beta
    return v, 1.0 / (beta * (beta + habs))


def _reflect_rows(b1, b2, v, tau):
    # B := (I - tau v v*) B in place on the given views.  w = tau v* B takes
    # its conjugates on the vectors: conj(conj(v2) B2), not v2 conj(B2).  The
    # products stay matrix-vector: one (2, k) @ (k, l) product in their place
    # raised the direct route's median pinv error by a third
    cv1, cv2 = np.conj(v[:, 0]), np.conj(v[:, 1])
    w1 = tau * (cv1 @ b1 + np.conj(cv2 @ b2))
    w2 = tau * (cv1 @ b2 - np.conj(cv2 @ b1))
    b1 -= v @ np.stack([w1, -np.conj(w2)])
    b2 -= v @ np.stack([w2, np.conj(w1)])


def _reflect_cols(b1, b2, v, tau):
    # B := B (I - tau v v*) in place; t = tau B v
    v1, v2 = v[:, 0], v[:, 1]
    t1 = tau * (b1 @ v1 - b2 @ np.conj(v2))
    t2 = tau * (b1 @ v2 + b2 @ np.conj(v1))
    b1 -= np.stack([t1, t2], axis=1) @ np.conj(v.T)
    b2 -= np.stack([t2, -t1], axis=1) @ v.T


def _wy_product(y1, y2, tau):
    """H_0 H_1 ... H_{k-1} with H_c = I - tau_c y_c y_c*, as I - Y T Y*.

    The compact-WY factor T is upper triangular with inverse
    S = diag(1/tau) + strictly-upper(Y*Y) (the derivation needs only
    associativity and a real tau, so it holds for quaternions).  T Y* is
    found by back substitution in S, one row per reflector, which is more
    accurate than forming T by its column recurrence.  A skipped reflector
    has tau_c = 0 and y_c = 0, and its row of T Y* is zero.
    """
    rows, k = y1.shape
    ys1, ys2 = y1.conj().T, -y2.T  # Y*
    g1, g2 = _pair_mm(ys1, ys2, y1, y2)  # Gram Y*Y
    w1 = np.empty((k, rows), dtype=complex)
    w2 = np.empty((k, rows), dtype=complex)
    for c in reversed(range(k)):
        z1, z2 = _pair_mm(g1[c, c + 1:], g2[c, c + 1:], w1[c + 1:], w2[c + 1:])
        w1[c] = tau[c] * (ys1[c] - z1)
        w2[c] = tau[c] * (ys2[c] - z2)
    z1, z2 = _pair_mm(y1, y2, w1, w2)
    return np.eye(rows) - z1, -z2


def _unit_product(x1, x2, s1, s2):
    # x s / |x s| on Python complex pairs, or s when x = 0.  Dividing by
    # |x s| rather than |x| keeps a long chain of phases unit
    t1, t2 = x1 * s1 - x2 * s2.conjugate(), x1 * s2 + x2 * s1.conjugate()
    h = math.hypot(abs(t1), abs(t2))
    return (t1 / h, t2 / h) if h > 0.0 else (s1, s2)


def _bidiagonalize(a: QMatrix):
    """Reduce A (m >= n) to real upper bidiagonal B = U* A V by quaternion
    Householder reflectors and unit-quaternion phases.

    The loop applies only the reflectors, to B alone, and leaves a quaternion
    bidiagonal with diagonal d_c and superdiagonal e_c.  A reflector built
    from x s, for a unit scalar s, equals the one built from x, so the phases
    that make B real can wait until after the loop: one scalar pass finds
    P = diag(p_c), Q = diag(q_c) with P* B Q real and nonnegative,

        q_0 = 1,  p_c = d_c q_c / |d_c|,  q_{c+1} = conj(e_c) p_c / |e_c|

    (p_c = q_c when d_c = 0 and q_{c+1} = p_c when e_c = 0: any unit phase
    serves there).  U is the reflector product, accumulated once in
    compact-WY form, times P; V likewise, times Q.
    """
    m, n = a.shape
    b1, b2 = a.q1.astype(complex), a.q2.astype(complex)
    # reflector vectors (zero above their pivot) and real taus
    yu1 = np.zeros((m, n), dtype=complex)
    yu2 = np.zeros((m, n), dtype=complex)
    yv1 = np.zeros((n, n - 1), dtype=complex)
    yv2 = np.zeros((n, n - 1), dtype=complex)
    tau_u = np.zeros(n)
    tau_v = np.zeros(n - 1)

    for c in range(n):
        ref = _reflector(b1[c:, c], b2[c:, c])
        if ref is not None:
            rv, tau_u[c] = ref
            yu1[c:, c], yu2[c:, c] = rv.T
            _reflect_rows(b1[c:, c:], b2[c:, c:], rv, tau_u[c])
        if c + 1 < n:
            # right reflector built from the conjugated row tail
            ref = _reflector(np.conj(b1[c, c + 1:]), -b2[c, c + 1:])
            if ref is not None:
                rv, tau_v[c] = ref
                yv1[c + 1:, c], yv2[c + 1:, c] = rv.T
                _reflect_cols(b1[c:, c + 1:], b2[c:, c + 1:], rv, tau_v[c])

    d = np.hypot(np.abs(b1.diagonal()), np.abs(b2.diagonal()))
    e = np.hypot(np.abs(b1.diagonal(1)), np.abs(b2.diagonal(1)))
    pu1, pu2 = np.ones(m, dtype=complex), np.zeros(m, dtype=complex)
    pv1, pv2 = np.ones(n, dtype=complex), np.zeros(n, dtype=complex)
    s = (1.0 + 0j, 0j)  # the running phase: q_c, then p_c
    for c in range(n):
        pv1[c], pv2[c] = s
        s = _unit_product(complex(b1[c, c]), complex(b2[c, c]), *s)
        pu1[c], pu2[c] = s
        if c + 1 < n:
            s = _unit_product(complex(b1[c, c + 1]).conjugate(),
                              -complex(b2[c, c + 1]), *s)
    u1, u2 = _times_scalar(*_wy_product(yu1, yu2, tau_u), pu1, pu2)
    v1, v2 = _times_scalar(*_wy_product(yv1, yv2, tau_v), pv1, pv2)
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
    mm = _route_mul(method)
    return mm(mm(res.v, mid), conj_transpose(res.u))
