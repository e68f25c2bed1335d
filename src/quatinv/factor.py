"""Rank, full rank decomposition, quaternion SVD, and the {1}-inverses.

Two computational routes are kept genuinely separate throughout:

* ``direct`` — native quaternion arithmetic on the Cayley-Dickson component
  pair (quaternion Householder reflectors: bidiagonalization to a real
  bidiagonal, whose SVD is then real LAPACK work, and the column-pivoted QR
  of the full rank decomposition; Gaussian elimination for the square
  solve).  The bidiagonalization loop applies only the reflectors; one
  scalar pass then finds the unit-quaternion phases that make the bidiagonal
  real, and U and V are the reflector products in compact-WY form,
  I - Y T Y*, times one diagonal of phases.  A^C is never formed.
* ``crep``  — complex structure-preserving arithmetic on the doubled complex
  representation (one complex SVD / GEMM of doubled size, and no other
  factorization, followed by exact restoration of the quaternion block
  structure; one routine pairs the singular vectors of either side, picking
  the pairs its walk misses by largest residual, with the residual norms
  downdated pick by pick; the pivoted QR applies each reflector to paired
  rows of A^C).

``qsvd`` has a full mode (unitary U and V) and a compact one (only the r
pairs above the rank cut); both decide r by the same rule.  On crep the
compact SVD is LAPACK's thin SVD, whose top 2r right vectors are paired and
mapped to the left side as C w / sigma, with no completion of the null
cluster; on direct it is the full result sliced.  Every {1}-inverse,
W+ + Z - W+ W Z W W+ for a free matrix Z of W*'s shape, takes the compact
SVD alone; the full one serves only callers that want unitary factors.

The direct square solve W^-1 B (for a W whose full rank is already
decided) is a blocked LU with partial pivoting of [W | B] in pair
arithmetic, as the crep route's is LAPACK's LU of W^C.  It ends in the same
upper-triangular back substitution as the direct QR of
``full_rank_decompose``.

Both must agree to rounding; the test suite enforces this.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .qcore import (
    _EPS,
    QMatrix,
    _route_mul,
    _scale_to_safe,
    conj_transpose,
    from_crep,
    hstack_q,
    mat_mul,
    symmetrize_crep,
    to_crep,
)

__all__ = [
    "FullRankFactorization",
    "QSvdResult",
    "rank",
    "qsvd",
    "full_rank_decompose",
    "one_inverse",
]


def _rank_threshold(lead: float, m: int, n: int) -> float:
    # the one rank rule: a value counts when it is above max(m, n) eps times
    # the leading one (sigma_1 for an SVD, the first pivot's norm for a QR)
    return max(m, n) * _EPS * lead


def _require_finite(a: QMatrix, op: str) -> None:
    # LAPACK would only report "SVD did not converge" on NaN/Inf input
    if not (np.isfinite(a.q1).all() and np.isfinite(a.q2).all()):
        raise ValueError(f"{op}: input has non-finite entries (NaN or Inf)")


def _crep_rank(s: np.ndarray, m: int, n: int) -> int:
    # the rank of an m-by-n quaternion matrix from the LAPACK singular values
    # s of its A^C, which come in equal pairs: the quaternion singular values
    # are the pair means
    sig = 0.5 * (s[0::2] + s[1::2])
    return int(np.count_nonzero(sig > _rank_threshold(sig[0], m, n)))


def rank(a: QMatrix) -> int:
    """Numerical rank of a quaternion matrix: half the rank of A^C."""
    _require_finite(a, "rank")
    m, n = a.shape
    if m == 0 or n == 0:
        return 0
    return _crep_rank(np.linalg.svd(to_crep(a), compute_uv=False), m, n)


# =========================================================== quaternion SVD


@dataclass(frozen=True)
class QSvdResult:
    """SVD ``A = U diag(sigma) V*`` of an m-by-n quaternion matrix of rank r.

    Full: unitary U (m, m) and V (n, n), and the min(m, n) singular values.
    Compact: U (m, r) and V (n, r) with orthonormal columns, and the r
    singular values above the rank cut.
    """

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


def qsvd(a: QMatrix, method: str = "crep", full: bool = True) -> QSvdResult:
    """Quaternion SVD by the selected realization.

    Parameters
    ----------
    a : QMatrix
    method : {"crep", "direct"}
        "crep": complex SVD of A^C with symplectic structure restoration.
        "direct": quaternion Householder bidiagonalization followed by the
        real LAPACK SVD of the bidiagonal.
    full : bool
        True: unitary U (m, m) and V (n, n) and all min(m, n) singular
        values.  False: the compact SVD, only the r pairs above the rank cut:
        U (m, r), V (n, r) and sigma_1..r.  Both modes decide r by the same
        rule.  On crep the compact mode runs LAPACK's thin SVD and pairs only
        the top 2r complex singular vectors; on direct it slices the full
        result.

    Raises ``ValueError`` for an input with NaN or Inf entries, and
    ``np.linalg.LinAlgError`` (a ``ValueError``) if LAPACK does not converge.
    """
    if method not in ("crep", "direct"):
        raise ValueError(f"unknown qsvd method {method!r}")
    _require_finite(a, "qsvd")
    m, n = a.shape
    if m == 0 or n == 0:
        if full:
            return QSvdResult(QMatrix.eye(m), np.zeros(0), QMatrix.eye(n), 0)
        return QSvdResult(QMatrix.zeros(m, 0), np.zeros(0),
                          QMatrix.zeros(n, 0), 0)
    if method == "crep":
        return _qsvd_crep(a, full)
    res = _qsvd_direct(a)
    if full:
        return res
    r = res.rank
    return QSvdResult(QMatrix(res.u.q1[:, :r], res.u.q2[:, :r]),
                      res.sigma[:r],
                      QMatrix(res.v.q1[:, :r], res.v.q2[:, :r]), r)


def _psi_partner(w: np.ndarray, half: int) -> np.ndarray:
    # -J conj(w): the forced partner column of a symplectic block basis
    out = np.empty_like(w)
    out[:half] = -np.conj(w[half:])
    out[half:] = np.conj(w[:half])
    return out


def _pairs(cands: np.ndarray, half: int, count: int,
           more: np.ndarray | None = None):
    """`count` orthonormal pair representatives from the columns of `cands`,
    vectors of length 2 `half`.

    The columns of `cands` are walked in order; each is orthonormalized
    against the pairs kept so far (w and its forced partner -J conj(w)), and
    one that deflates to (near) nothing is a partner and is skipped.  Pairs
    the walk falls short of are completed by largest residual from the
    columns not kept and the columns of `more`, which are appended only
    then: the squared residual norms of the candidates are found once, and
    each pick takes the largest, is orthonormalized against the kept pairs
    and downdates the rest by its own pair (the candidates must span, with
    the kept pairs, a space closed under w -> -J conj(w)).  Returns the
    representatives as columns and the column of `cands` (or of `more`,
    counted on from the end of `cands`) each came from.
    """
    want = 2 * count
    basis = np.empty((cands.shape[0], want), dtype=complex)
    k = 0
    src = []
    for idx in range(cands.shape[1]):
        if k == want:
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
    if k < want:
        if more is not None:
            cands = np.hstack([cands, more])
        resid = (np.sum(np.abs(cands) ** 2, axis=0)
                 - np.sum(np.abs(basis[:, :k].conj().T @ cands) ** 2, axis=0))
        resid[src] = -np.inf
    while k < want:
        t = int(np.argmax(resid))
        v = cands[:, t].copy()
        kept = basis[:, :k]
        for _ in range(2):
            v -= kept @ np.conj(np.conj(v) @ kept)
        basis[:, k] = v / np.linalg.norm(v)
        basis[:, k + 1] = _psi_partner(basis[:, k], half)
        resid -= np.sum(np.abs(basis[:, k:k + 2].conj().T @ cands) ** 2, axis=0)
        resid[t] = -np.inf
        src.append(t)
        k += 2
    return basis[:, 0::2], src


def _qsvd_crep(a: QMatrix, full: bool) -> QSvdResult:
    m, n = a.shape
    c = to_crep(a)  # exactly symplectic by construction
    uhat, shat, vhat_h = np.linalg.svd(c, full_matrices=full)
    r = _crep_rank(shat, m, n)
    svals = np.zeros(2 * n)
    svals[: shat.size] = shat

    # right singular pairs.  Within a repeated (or null) singular value the
    # columns of vhat need not come paired and the walk can fall short; the
    # rest is picked from the skipped columns' residuals, which stay inside
    # their own singular subspace and so keep their singular values.  The
    # compact SVD walks only the top 2r columns, whose span is closed under
    # w -> -J conj(w) when the rank cut falls in a gap.
    pairs = n if full else r
    w_cols, src = _pairs(vhat_h[:2 * pairs].conj().T, n, pairs)
    w_sigs = svals[src]
    order = np.argsort(-w_sigs, kind="stable")
    w_cols = w_cols[:, order]
    sigma = w_sigs[order][: min(m, n)]

    # left vectors: u_c = C w_c / sigma_c above the rank cut, re-paired to
    # restore exact orthonormality.  The full SVD completes them from those
    # columns and the complex SVD's left vectors past 2r, whose span is
    # closed under w -> -J conj(w) and also holds any representative the
    # walk lost; the compact one falls back on the top 2r left vectors,
    # which it reads only if the walk falls short
    raw = c @ w_cols[:, :r] / sigma[:r]
    fallback = uhat[:, 2 * r:] if full else uhat[:, :2 * r]
    u_cols, _ = _pairs(raw, m, m if full else r, more=fallback)

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


def _inverse(p1, p2):
    # the quaternion inverse conj(p) / |p|^2 of the scalar (p1, p2)
    n2 = abs(p1) ** 2 + abs(p2) ** 2
    return np.conj(p1) / n2, -p2 / n2


def _sub_outer(b1, b2, l, u1, u2):
    # B -= l u in place, for a quaternion column l held as one (k, 2) array
    # of the pair (l1, l2) and a row (u1, u2): per component one rank-2
    # complex update, l @ [u1; -conj(u2)] and l @ [u2; conj(u1)]
    r = np.empty((2, 2, u1.shape[-1]), dtype=complex)
    r[0, 0], r[1, 0] = u1, u2
    np.negative(np.conj(u2), out=r[0, 1])
    np.conj(u1, out=r[1, 1])
    b1 -= l @ r[0]
    b2 -= l @ r[1]


def _reflect_rows(b1, b2, v, tau):
    # B := (I - tau v v*) B in place on the given views.  w = tau v* B takes
    # its conjugates on the vectors: conj(conj(v2) B2), not v2 conj(B2).  The
    # products stay matrix-vector: one (2, k) @ (k, l) product in their place
    # raised the direct route's median pinv error by a third
    cv1, cv2 = np.conj(v[:, 0]), np.conj(v[:, 1])
    w1 = tau * (cv1 @ b1 + np.conj(cv2 @ b2))
    w2 = tau * (cv1 @ b2 - np.conj(cv2 @ b1))
    _sub_outer(b1, b2, v, w1, w2)


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
    a, k = _scale_to_safe(a)
    u0, d, e, v0 = _bidiagonalize(a)
    # the bidiagonal is real: its SVD is plain real LAPACK work
    ur, sigma, vrt = np.linalg.svd(np.diag(d) + np.diag(e, 1))
    # real rotations mix quaternion columns componentwise
    u1 = u0.q1.copy()
    u2 = u0.q2.copy()
    u1[:, :n] = u0.q1[:, :n] @ ur
    u2[:, :n] = u0.q2[:, :n] @ ur
    v = QMatrix(v0.q1 @ vrt.T, v0.q2 @ vrt.T)
    r = int(np.count_nonzero(sigma > _rank_threshold(sigma[0], m, n)))
    if k:
        sigma = np.ldexp(sigma, -k)
    return QSvdResult(QMatrix(u1, u2), sigma, v, r)


# ================================================= full rank decomposition


@dataclass(frozen=True)
class FullRankFactorization:
    """A = F @ G with F (m, r) full column rank and G (r, n) full row rank.

    ``r == 0`` designates the empty factorization of the zero matrix, with
    F (m, 0) and G (0, n).
    """

    f: QMatrix
    g: QMatrix
    r: int


def _pivot(x1, x2):
    # the column of the pair (x1, x2) with the largest quaternion norm, and
    # that norm
    w = np.sum(np.abs(x1) ** 2 + np.abs(x2) ** 2, axis=0)
    j = int(np.argmax(w))
    return j, math.sqrt(w[j])


def _back_substitute(b1, b2, r):
    # R11^{-1} R12 as a pair, for R11 = B[:r, :r] upper triangular (nothing
    # below its diagonal is read) and R12 = B[:r, r:], by back substitution
    # with the pivots' quaternion inverses.  Each step's pair product
    # R[k, k+1:r] X[k+1:] is _pair_mm's, with the conjugates of the solved
    # rows kept rather than taken again at every step
    x1, x2, c1, c2 = np.empty((4, r, b1.shape[1] - r), dtype=complex)
    for k in reversed(range(r)):
        v1, v2 = b1[k, k + 1:r], b2[k, k + 1:r]
        z1 = v1 @ x1[k + 1:] - v2 @ c2[k + 1:]
        z2 = v1 @ x2[k + 1:] + v2 @ c1[k + 1:]
        x1[k], x2[k] = _scalar_times(*_inverse(b1[k, k], b2[k, k]),
                                     b1[k, r:] - z1, b2[k, r:] - z2)
        c1[k], c2[k] = np.conj(x1[k]), np.conj(x2[k])
    return x1, x2


def _qr_direct(a: QMatrix):
    """Column-pivoted quaternion Householder QR on the component pair.

    Returns the column permutation, the rank r and X = R11^{-1} R12 as a
    pair, found by back substitution with the pivots' quaternion inverses.
    None of them depends on A's scale, so A is first brought to the safe
    range.
    """
    m, n = a.shape
    a = _scale_to_safe(a)[0]
    b1, b2 = a.q1.copy(), a.q2.copy()
    perm = np.arange(n)
    r = stop = 0
    for k in range(min(m, n)):
        j, big = _pivot(b1[k:, k:], b2[k:, k:])
        if k == 0:
            stop = _rank_threshold(big, m, n)
        if big <= stop:
            break
        j += k
        for arr in (b1, b2, perm):
            arr[..., [k, j]] = arr[..., [j, k]]
        _reflect_rows(b1[k:, k:], b2[k:, k:], *_reflector(b1[k:, k], b2[k:, k]))
        r = k + 1
    return perm, r, QMatrix(*_back_substitute(b1, b2, r))


# the panel width of the blocked LU; 16 measured fastest on 128-by-128
# solves with one BLAS thread
_LU_BLOCK = 16


def _solve_direct(w: QMatrix, b: QMatrix) -> QMatrix:
    """W^{-1} B for a square W of full rank, by the LU of [W | B] with
    partial pivoting on rows, in pair arithmetic.

    Blocked and right-looking, as LAPACK's xGETRF is.  Step k takes as pivot
    p the row of largest |w_ik| in column k of W, swaps rows, and stores the
    multipliers l = w_ik p^-1 (right division by the pivot) in place; inside
    a panel of _LU_BLOCK columns it updates only the panel, by the rank-2
    pair update of the Householder kernels.  After each panel, the panel's
    row interchanges go to the columns on its right, U12 = L11^-1 A12 by
    forward substitution, and A22 -= L21 U12 is one pair GEMM.  B's columns
    ride along to L^-1 P B, so the back substitution with U gives W^-1 B
    with no permutation to undo.  B never supplies a pivot, and W's columns
    alone set the scale.  The growth of partial pivoting is the same risk
    the crep route's LU of W^C (xGETRF) already carries.  Raises
    ``np.linalg.LinAlgError`` if a pivot column is exactly zero.
    """
    n = w.ncols
    a = _scale_to_safe(hstack_q([w, b]), n)[0]
    a1, a2 = a.q1.copy(), a.q2.copy()
    for j0 in range(0, n, _LU_BLOCK):
        j1 = min(j0 + _LU_BLOCK, n)
        nb = j1 - j0
        # the panel as one (rows, nb, 2) array: a column's pair is one
        # (rows, 2) view, the layout of l in _sub_outer
        p = np.stack([a1[j0:, j0:j1], a2[j0:, j0:j1]], axis=-1)
        p1, p2 = p[..., 0], p[..., 1]
        perm = np.arange(n - j0)
        for c in range(nb):
            mag = np.abs(p1[c:, c]) ** 2 + np.abs(p2[c:, c]) ** 2
            j = int(np.argmax(mag))
            if mag[j] == 0.0:
                raise np.linalg.LinAlgError("Singular matrix")
            j += c
            p[[c, j]] = p[[j, c]]
            perm[[c, j]] = perm[[j, c]]
            p1[c + 1:, c], p2[c + 1:, c] = _times_scalar(
                p1[c + 1:, c], p2[c + 1:, c], *_inverse(p1[c, c], p2[c, c]))
            _sub_outer(p1[c + 1:, c + 1:], p2[c + 1:, c + 1:], p[c + 1:, c],
                       p1[c, c + 1:], p2[c, c + 1:])
        # the L of earlier panels is not read again, so it stays unswapped
        a1[j0:, j0:j1], a2[j0:, j0:j1] = p1, p2
        a1[j0:, j1:], a2[j0:, j1:] = a1[j0:, j1:][perm], a2[j0:, j1:][perm]
        for c in range(nb - 1):
            k = j0 + c
            _sub_outer(a1[k + 1:j1, j1:], a2[k + 1:j1, j1:], p[c + 1:nb, c],
                       a1[k, j1:], a2[k, j1:])
        z1, z2 = _pair_mm(a1[j1:, j0:j1], a2[j1:, j0:j1],
                          a1[j0:j1, j1:], a2[j0:j1, j1:])
        a1[j1:, j1:] -= z1
        a2[j1:, j1:] -= z2
    return QMatrix(*_back_substitute(a1, a2, n))


def _qr_crep(a: QMatrix):
    """The same pivoted QR on A^C, structure preserving: columns c and n+c
    of A^C (one quaternion column) move together, and each reflector acts
    on the paired rows as the rank-2 complex update I - tau v^C (v^C)*.
    X comes from a complex solve with the 2r-by-2r R11^C."""
    m, n = a.shape
    c = to_crep(_scale_to_safe(a)[0]).copy()
    perm = np.arange(n)
    r = stop = 0
    for k in range(min(m, n)):
        # quaternion column norms, read off the top block row [Q1, Q2]
        j, big = _pivot(c[k:m, k:n], c[k:m, n + k:])
        if k == 0:
            stop = _rank_threshold(big, m, n)
        if big <= stop:
            break
        j += k
        c[:, [k, j, n + k, n + j]] = c[:, [j, k, n + j, n + k]]
        perm[[k, j]] = perm[[j, k]]
        v, tau = _reflector(c[k:m, k], c[k:m, n + k])
        vb = np.conj(v[:, ::-1]) * [-1, 1]  # v^C = [v; vb]
        top, bot = c[k:m, k:], c[m + k:, k:]
        h = tau * (v.conj().T @ top + vb.conj().T @ bot)
        top -= v @ h
        bot -= vb @ h
        r = k + 1
    rows = np.r_[:r, m:m + r]
    x = np.linalg.solve(c[np.ix_(rows, np.r_[:r, n:n + r])],
                        c[np.ix_(rows, np.r_[r:n, n + r:2 * n])])
    return perm, r, from_crep(symmetrize_crep(x))


def full_rank_decompose(a: QMatrix, side: str = "column-form",
                        route: str = "direct") -> FullRankFactorization:
    """Full rank decomposition A = F G by column-pivoted Householder QR.

    A P = Q [[R11, R12], [0, R22]] with R11 r-by-r.  Each step pivots on the
    trailing column of largest quaternion norm, and the QR stops once that
    norm is at most max(m, n) eps times the first pivot's (the SVD rank rule
    with this norm in place of sigma_1).  F is A's pivot columns in A's
    column order and G = [I, R11^{-1} R12] P^T, the identity on F's columns.

    Parameters
    ----------
    a : QMatrix
    side : {"column-form", "row-form"}
        "column-form": F is built from the pivot columns of A.  "row-form":
        the mirrored construction from the pivot rows (the QR runs on A* and
        the factors are conjugate-transposed back), so the row factor
        inherits A's left spaces.
    route : {"direct", "crep"}
        Arithmetic realization of the QR: quaternion reflectors on the
        component pair, or their complex representations on A^C.

    Raises ``ValueError`` for an input with NaN or Inf entries.
    """
    _require_finite(a, "full_rank_decompose")
    if side == "row-form":
        fact = full_rank_decompose(conj_transpose(a), side="column-form",
                                   route=route)
        return FullRankFactorization(
            conj_transpose(fact.g), conj_transpose(fact.f), fact.r)
    if side != "column-form":
        raise ValueError(f"unknown side {side!r}")
    if route == "direct":
        perm, r, x = _qr_direct(a)
    elif route == "crep":
        perm, r, x = _qr_crep(a)
    else:
        raise ValueError(f"unknown route {route!r}")
    # row k of G belongs to pivot column piv[k]
    order = np.argsort(perm[:r])
    piv = perm[:r][order]
    g1, g2 = np.zeros((2, r, a.ncols), dtype=complex)
    g1[np.arange(r), piv] = 1.0
    g1[:, perm[r:]] = x.q1[order]
    g2[:, perm[r:]] = x.q2[order]
    f = QMatrix(a.q1[:, piv], a.q2[:, piv])
    return FullRankFactorization(f, QMatrix(g1, g2), r)


# ========================================================== {1}-inverse


def one_inverse(w: QMatrix, z: QMatrix | None = None,
                method: str = "crep") -> QMatrix:
    """A {1}-inverse of w from its compact SVD and a free matrix z.

    With ``w = U_r diag(sigma) V_r*`` the compact SVD of w (rank r) and
    W+ = V_r diag(sigma)^-1 U_r* its Moore-Penrose inverse, the {1}-inverses
    of w are exactly

        w^(1) = W+ + Z - W+ W Z W W+ = W+ + Z - V_r (V_r* Z U_r) U_r*

    for Z of w*'s shape (Ben-Israel & Greville, *Generalized Inverses*, 2nd
    ed., Ch. 1 Sec. 2; the proof needs only associativity and W W+ W = W,
    so it holds for quaternions).  z None is Z = 0, which gives W+.  The
    projectors V_r V_r* and U_r U_r* are the same on both routes, so one z
    gives the same {1}-inverse on each.  Raises ``ValueError`` for a z of
    another shape than (w.ncols, w.nrows).
    """
    if z is not None and z.shape != (w.ncols, w.nrows):
        raise ValueError(
            f"z has shape {z.shape}, expected {(w.ncols, w.nrows)}")
    res = qsvd(w, method=method, full=False)
    mm = _route_mul(method)
    uh = conj_transpose(res.u)
    vs = QMatrix(res.v.q1 / res.sigma, res.v.q2 / res.sigma)
    x = mm(vs, uh)
    if z is None:
        return x
    core = mm(mm(conj_transpose(res.v), z), res.u)
    return x + z - mm(mm(res.v, core), uh)
