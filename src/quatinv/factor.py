"""Rank, full rank decomposition, quaternion SVD, and the {1}-inverses.

Two computational routes are kept genuinely separate throughout:

* ``direct`` — native quaternion arithmetic on the Cayley-Dickson component
  pair (quaternion Householder reflectors: bidiagonalization to a real
  bidiagonal, whose SVD is then real LAPACK work, the column-pivoted QR
  of the full rank decomposition, and the unpivoted QR of the square
  solve).  Every direct kernel holds its matrix as one C-contiguous
  (rows, cols, 2) complex "pair array", X1 and X2 side by side.  Since
  (s1 + s2 j) y = s1 y + s2 (j y), each quaternion rank-2 (reflector)
  update is one complex product of its columns with the row expanded to
  [y; j y], and one in-place subtraction; a row times a block is
  A1 X + A2 (j X), two complex products on the flattened pair arrays.
  Only rows are expanded: A^C is never formed.  The bidiagonalization loop
  applies only the reflectors; one scalar pass then finds the
  unit-quaternion phases that make the bidiagonal real.  U and V are formed
  only in the columns returned: the phases times the real SVD's factors,
  with the stored reflectors applied to them, last first.
* ``crep``  — complex structure-preserving arithmetic on the doubled complex
  representation: LAPACK's SVD and GEMM of doubled size, LAPACK's LU for
  the square solve, and the column-pivoted QR of the full rank
  decomposition on A^C's left block column alone, whose paired rows each
  reflector updates and off which R is read for the route's square solve.
  A complex solution is read back once, as the quaternion matrix whose
  representation is its symplectic projection; one routine pairs the
  singular vectors of either side, picking the pairs its walk misses by
  largest residual, with the residual norms downdated pick by pick.

``rank`` counts the singular values of A^C above max(m, n)·eps·sigma_1.
It reads the tall orientation C of A^C, 2M-by-2N with M = max(m, n) and
N = min(m, n): a wide A^C is copied to its conjugate transpose, which is
(A*)^C bit for bit, so a rectangular A and A* have the same rank.  Every
nonempty A is first tested for full rank with no SVD: one Cholesky
factorization, of order 2N, of C* C - tau I, with
tau = (2M + 2N + 5)·eps·||C||_F^2 (the rounding bounds of the Gram product
and of the factorization) plus the threshold's square, on A scaled by a
power of two into the safe range.  If it runs to the end, sigma_min lies
far above the threshold and the rank is N; if not, ``_svd_rank`` decides
from the singular values of the same orientation.  A caller that already
knows A is singular (the index walk, past A itself) calls ``_svd_rank``
directly.

Both pivoted QRs share one pivot rule.  The squared quaternion column
norms are computed once and downdated by each new row of R; a norm is
computed again only when it falls below sqrt(eps) times its last exact
value (LAPACK's xLAQP2 test).  The stop test reads the exact norm of the
chosen pivot column, so the rank rule of ``full_rank_decompose`` holds, and
the step's reflector takes that same norm rather than computing it again.

``qsvd`` has a full mode (unitary U and V) and a compact one (only the r
pairs above the rank cut); both decide r by the same rule.  On crep the
compact SVD is LAPACK's thin SVD, whose top 2r right vectors are paired and
mapped to the left side as C w / sigma, with no completion of the null
cluster; on direct the bidiagonalization's reflectors act on the r
columns alone.  Every {1}-inverse, W+ + Z - W+ W Z W W+ for a free matrix
Z of W*'s shape, takes the compact SVD alone; the full one serves only
callers that want unitary factors.

Each route has one square solve, ``_solve(w, b, route)``: W^-1 B for a W
whose full rank is already decided.  The Urquhart core of
:mod:`quatinv.geninv`, ``pinv_solve`` and the crep pivoted QR (for
R11^-1 R12, on R's rows read off its block column) call it.  On direct it
is the unpivoted Householder QR of [W | B] on the pair array, one
reflector per column with the direct QR's own kernels, which ends in the
same upper-triangular back substitution as the QR of
``full_rank_decompose``; so the direct route eliminates by reflectors
alone.  On crep it is LAPACK's LU with partial pivoting of W^C with B^C,
whose solution is read through the symplectic projection.

Both must agree to rounding; the test suite enforces this.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .qcore import (
    _EPS,
    QMatrix,
    _check_route,
    _quaternion_part,
    _route_mul,
    _scale_to_safe,
    conj_transpose,
    hstack_q,
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


def _gram_proves_full_rank(c: np.ndarray) -> bool:
    # True only if the A whose tall orientation of A^C is c (2M-by-2N,
    # M = max(m, n) >= N = min(m, n), A in the safe range) has rank N under
    # the SVD rule; False proves nothing.  G = C* C, of order 2N, is the
    # representation of A* A (of A A* for a wide A), so one GEMM of its top
    # block row [P, Q], N-by-2M times 2M-by-2N, fixes it.  With u = eps / 2
    # and the complex forms of the bounds, for complex multiply-adds taken as
    # units (Higham, Accuracy and Stability of Numerical Algorithms, 2nd ed.,
    # §3.6: sqrt(2) gamma_(j+2) for gamma_j), the GEMM of inner dimension 2M
    # gives ||fl(G) - G||_2 <= sqrt(2) gamma_(2M+2) ||C||_F^2, and a Cholesky
    # factorization of order 2N of fl(G) - tau I that runs to the end gives
    # R* R = fl(G) - tau I + E with ||E||_2 <= sqrt(2) gamma_(2N+3) ||R||_F^2
    # (ibid., Thm 10.3), ||R||_F^2 being ||C||_F^2 (1 + O(M u)).  R* R is
    # semidefinite, so sigma_min(C)^2 >= tau - sqrt(2) (2M + 2N + 5) u
    # ||C||_F^2 (1 + O(M u)).  tau is (2M + 2N + 5) eps ||C||_F^2, sqrt(2)
    # times that rounding, plus the rule's threshold squared,
    # (M eps sigma_1)^2 <= (M eps)^2 ||C||_F^2 / 2 (C's singular values come
    # in equal pairs): success leaves sigma_min above the threshold by a
    # multiple of sqrt(M eps) sigma_1, far beyond the SVD's own rounding.
    # At m = n the shift is (4n + 5) eps ||C||_F^2 plus the same square.
    # Below, m and n are M and N
    m, n = c.shape[0] // 2, c.shape[1] // 2
    g = np.empty((2 * n, 2 * n), dtype=c.dtype)
    top = np.matmul(np.conj(c[:, :n]).T, c, out=g[:n])
    np.negative(np.conj(top[:, n:]), out=g[n:, :n])
    np.conj(top[:, :n], out=g[n:, n:])
    fro2 = np.trace(g).real  # ||C||_F^2
    shift = (2 * m + 2 * n + 5) * _EPS + 0.5 * (m * _EPS) ** 2
    g.flat[::2 * n + 1] -= shift * fro2
    try:
        np.linalg.cholesky(g)
    except np.linalg.LinAlgError:
        return False
    return True


def _svd_rank(a: QMatrix, c: np.ndarray | None = None) -> int:
    # the SVD rule on the singular values of A^C (c, when the caller has it)
    # for a finite nonempty A, with no full-rank test first.  They are taken
    # of the tall orientation: a wide A^C is copied to its conjugate
    # transpose, which is (A*)^C bit for bit, so rank(A*) = rank(A)
    m, n = a.shape
    if c is None:
        c = to_crep(a)
    if m < n:
        c = np.conj(c.T)
    return _crep_rank(np.linalg.svd(c, compute_uv=False), m, n)


def rank(a: QMatrix) -> int:
    """Numerical rank of a quaternion matrix: half the rank of A^C.

    The rank is the number of singular values above max(m, n)·ε·σ_1.  Every
    nonempty A is first tested for full rank with no SVD, on the tall
    orientation C of A^C (a wide A^C read as its conjugate transpose, which
    is (A*)^C), of size 2M×2N with M = max(m, n) and N = min(m, n).  One
    Cholesky factorization of C*C − τI, of order 2N, with
    τ = ((2M + 2N + 5)·ε + (M·ε)²/2)·‖C‖_F², covers the rounding of the
    Gram product and of the factorization plus the threshold's square:
    success proves σ_min well above the threshold, so the rank is N with no
    SVD.  The test runs on A scaled by a power of two into the safe range.
    An A that fails it takes the singular values of the same tall
    orientation, so rank(A*) = rank(A) for every rectangular A.  A square
    A and A* are ranked from two different matrices, A^C and (A*)^C, whose
    singular values can round to different ranks at a near tie.
    """
    _require_finite(a, "rank")
    m, n = a.shape
    if m == 0 or n == 0:
        return 0
    c = to_crep(a)  # the SVD rule reads the caller's A^C, never a scaled one
    safe, k = _scale_to_safe(a)
    cs = to_crep(safe) if k else c
    # the tall orientation, as _svd_rank reads it: (A*)^C for a wide A
    if _gram_proves_full_rank(cs if m >= n else np.conj(cs.T)):
        return min(m, n)
    return _svd_rank(a, c)


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
        the top 2r complex singular vectors; on direct it applies the
        bidiagonalization's reflectors to those r columns alone.

    Raises ``ValueError`` for an input with NaN or Inf entries, and
    ``np.linalg.LinAlgError`` (a ``ValueError``) if LAPACK does not converge.
    """
    _check_route(method, "qsvd method")
    _require_finite(a, "qsvd")
    m, n = a.shape
    if m == 0 or n == 0:
        if full:
            return QSvdResult(QMatrix.eye(m), np.zeros(0), QMatrix.eye(n), 0)
        return QSvdResult(QMatrix.zeros(m, 0), np.zeros(0),
                          QMatrix.zeros(n, 0), 0)
    if method == "crep":
        return _qsvd_crep(a, full)
    return _qsvd_direct(a, full)


def _psi_partner(w: np.ndarray, half: int, out: np.ndarray) -> None:
    # out := -J conj(w), the forced partner column of a symplectic block
    # basis
    np.conj(w[half:], out=out[:half])
    np.negative(out[:half], out=out[:half])
    np.conj(w[:half], out=out[half:])


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
        # np.linalg.norm's own arithmetic, without its argument checks
        nrm = math.sqrt(v.real.dot(v.real) + v.imag.dot(v.imag))
        if nrm <= math.sqrt(0.5):
            continue  # partner of an earlier keep
        np.divide(v, nrm, out=basis[:, k])
        _psi_partner(basis[:, k], half, basis[:, k + 1])
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
        nrm = math.sqrt(v.real.dot(v.real) + v.imag.dot(v.imag))
        np.divide(v, nrm, out=basis[:, k])
        _psi_partner(basis[:, k], half, basis[:, k + 1])
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
# The direct kernels hold a quaternion matrix X = X1 + X2 j as one
# C-contiguous pair array of shape (rows, cols, 2), with X1 in [..., 0] and
# X2 in [..., 1]; a row or a column is a (k, 2) pair array, a scalar a (2,)
# one.  A quaternion s = s1 + s2 j times y is s1 y + s2 (j y), so a rank-2
# (reflector) update is one complex product of the (k, 2) columns with a
# row expanded to [y; j y], and one in-place subtraction.  A row times a
# block is A1 X + A2 (j X), two complex matrix-vector products on the
# flattened pair arrays (_back_substitute); one product of the interleaved
# row with X expanded would mix the A1 and the A2 terms in one sum, which
# cost a blocked elimination of the lorenz system 0.13 digits.  Only rows
# are expanded; A^C is never formed.  The per-column loops run at orders
# where each numpy call's overhead weighs as much as its flops, so each
# step writes through views and reused buffers, and moves columns only
# when the pivot moves.  Each product keeps its operands' layout: a
# strided conjugate row can round a matrix-vector product differently


def _pair(a: QMatrix) -> np.ndarray:
    # a fresh C-contiguous pair array, whatever the layout of A's components
    p = np.empty(a.shape + (2,), dtype=complex)
    p[..., 0], p[..., 1] = a.q1, a.q2
    return p


def _from_pair(p: np.ndarray) -> QMatrix:
    # the matrix of a pair array, read into fresh C-contiguous components
    return QMatrix._own(np.ascontiguousarray(p[..., 0]),
                        np.ascontiguousarray(p[..., 1]))


def _qconj(y):
    # entrywise quaternion conjugate of a pair array: (conj(y1), -y2)
    out = np.conj(y)
    np.negative(y[..., 1], out=out[..., 1])
    return out


def _jmul(y, out=None):
    # j y entrywise for a pair array y: (-conj(y2), conj(y1))
    out = np.conjugate(y[..., ::-1], out=out)
    np.negative(out[..., 0], out=out[..., 0])
    return out


def _reflector(x, beta=None):
    """Householder data (v, tau) with (I - tau v v*) x = -mu*beta*e1, for a
    quaternion column x held as a (k, 2) pair array.

    mu = x_1/|x_1| (1 if x_1 = 0) and beta = ||x||, so the reflected vector's
    leading entry has the magnitude of x and the rest vanish; a caller that
    has just computed ||x|| passes it as beta.  v is a (k, 2) pair array,
    and tau = 2/||v||^2 = 1/(beta (beta + |x_1|)) is real.
    """
    if beta is None:
        beta = math.sqrt(np.vdot(x[:, 0], x[:, 0]).real
                         + np.vdot(x[:, 1], x[:, 1]).real)
    if beta == 0.0:
        return None
    x1, x2 = x[0].tolist()
    habs = math.sqrt(abs(x1) ** 2 + abs(x2) ** 2)
    v = x.copy()
    if habs == 0.0:
        v[0, 0] += beta
    else:
        v[0] *= 1.0 + beta / habs  # x_1 + mu*beta
    return v, 1.0 / (beta * (beta + habs))


def _reflect_rows(b, v, tau):
    # B := (I - tau v v*) B in place on the pair view b, as B -= v w for
    # w = tau v* B = tau (t0 - j t1), where t0 = conj(v1)^T B and
    # t1 = conj(v2)^T B are matrix-vector products.  The pair product v w
    # is v @ [w; j w], and [w; j w] = tau ([t0; t1] + [-j t1; j t0]), whose
    # second term is [t1; t0] conjugated with its components swapped, and
    # then negated where the row and the component differ.  One
    # (2, k) @ (k, 2 l) product in place of the two matrix-vector ones took
    # the 80-by-120 QR from 3.3 to 5.1 ms (one BLAS thread) and the direct
    # pinv accuracy on the benchmark from 13.13 to 13.12 digits
    k, l = b.shape[:2]
    bf = b.reshape(k, 2 * l)
    vh = np.conj(v.T, order="C")
    e = np.empty((2, 2 * l), dtype=complex)
    np.matmul(vh[0], bf, out=e[0])
    np.matmul(vh[1], bf, out=e[1])
    e3 = e.reshape(2, l, 2)
    mix = np.conj(e3[::-1, :, ::-1])
    np.negative(mix[0, :, 1], out=mix[0, :, 1])
    np.negative(mix[1, :, 0], out=mix[1, :, 0])
    e3 += mix
    e *= tau
    b -= (v @ e).reshape(k, l, 2)


def _apply_reflectors(y, tau, x):
    # X := H_0 H_1 ... H_{k-1} X in place, for H_c = I - tau_c y_c y_c* with
    # y_c the columns of the (rows, k) pair array y (zero above row c) and X
    # a C-contiguous (rows, l, 2) pair array; a skipped reflector has
    # tau_c = 0.  Applied last first, each acts on X's rows c: alone
    # (Golub & Van Loan, Matrix Computations, 4th ed., 5.1.6)
    for c, t in reversed(list(enumerate(tau.tolist()))):
        if t != 0.0:
            _reflect_rows(x[c:], y[c:, c], t)


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
    serves there).  Returns (yu, tau_u, pu), d, e, (yv, tau_v, pv): the left
    reflectors as the columns of the (m, n) pair array yu with their taus,
    and P's phases as the (m, 2) pair array pu (1 past row n), so that
    U = H_0 ... H_{n-1} P; the right ones likewise, with V = H_0 ... H_{n-2} Q
    (yv is (n, n - 1), its column c zero down to row c).  A skipped
    reflector has tau = 0.
    """
    m, n = a.shape
    b = _pair(a)
    # reflector vectors (zero above their pivot) and real taus
    yu = np.zeros((m, n, 2), dtype=complex)
    yv = np.zeros((n, n - 1, 2), dtype=complex)
    tau_u = np.zeros(n)
    tau_v = np.zeros(n - 1)
    # the right update's buffers, whose leading entries step c reads as
    # C-contiguous arrays: tau B v, rows c:, and [v*; j v*]
    tbuf, ebuf = np.empty(2 * m, dtype=complex), np.empty(4 * n, dtype=complex)

    for c in range(n):
        ref = _reflector(b[c:, c])
        if ref is not None:
            yu[c:, c], tau_u[c] = ref
            _reflect_rows(b[c:, c:], yu[c:, c], tau_u[c])
        if c + 1 < n:
            # right reflector built from the conjugated row tail, applied as
            # B := B - (tau B v) v*.  B v is summed per component: summed
            # as the pair product, it moves the direct rank decision at the
            # near-tie inputs of tests/test_geninv.py
            ref = _reflector(_qconj(b[c, c + 1:]))
            if ref is not None:
                v, tau_v[c] = ref
                yv[c + 1:, c] = v
                blk = b[c:, c + 1:]
                b1, b2 = blk[..., 0], blk[..., 1]
                k, l = blk.shape[:2]
                t = tbuf[:2 * k].reshape(k, 2)
                np.subtract(b1 @ v[:, 0], b2 @ np.conj(v[:, 1]), out=t[:, 0])
                np.add(b1 @ v[:, 1], b2 @ np.conj(v[:, 0]), out=t[:, 1])
                t *= tau_v[c]
                e = ebuf[:4 * l].reshape(2, l, 2)
                e[0] = _qconj(v)
                _jmul(e[0], out=e[1])
                blk -= (t @ e.reshape(2, 2 * l)).reshape(k, l, 2)

    diag = b[np.arange(n), np.arange(n)]
    sup = b[np.arange(n - 1), np.arange(1, n)]
    d = np.hypot(np.abs(diag[:, 0]), np.abs(diag[:, 1]))
    e = np.hypot(np.abs(sup[:, 0]), np.abs(sup[:, 1]))
    pu = np.zeros((m, 2), dtype=complex)
    pu[:, 0] = 1.0
    pv = np.zeros((n, 2), dtype=complex)
    s = (1.0 + 0j, 0j)  # the running phase: q_c, then p_c
    for c in range(n):
        pv[c] = s
        s = _unit_product(complex(diag[c, 0]), complex(diag[c, 1]), *s)
        pu[c] = s
        if c + 1 < n:
            s = _unit_product(complex(sup[c, 0]).conjugate(),
                              -complex(sup[c, 1]), *s)
    return (yu, tau_u, pu), d, e, (yv, tau_v, pv)


def _qsvd_direct(a: QMatrix, full: bool) -> QSvdResult:
    m, n = a.shape
    if m < n:
        res = _qsvd_direct(conj_transpose(a), full)
        return QSvdResult(res.v, res.sigma, res.u, res.rank)
    a, k = _scale_to_safe(a)
    (yu, tau_u, pu), d, e, (yv, tau_v, pv) = _bidiagonalize(a)
    # the bidiagonal is real: its SVD is plain real LAPACK work
    ur, sigma, vrt = np.linalg.svd(np.diag(d) + np.diag(e, 1))
    r = int(np.count_nonzero(sigma > _rank_threshold(sigma[0], m, n)))
    cu, cv = (m, n) if full else (r, r)
    # U = H_U (P [ur 0; 0 I]) and V = H_V (Q vrt^T), in the columns returned
    # only.  A diagonal of unit quaternions times a real matrix is entrywise;
    # each start matrix must be C-contiguous, or _reflect_rows's reshape
    # copies it on every reflector
    ru = np.eye(m, cu)
    ru[:n, :n] = ur[:, :cu]
    u = pu[:, None] * ru[..., None]
    v = pv[:, None] * np.ascontiguousarray(vrt[:cv].T)[..., None]
    _apply_reflectors(yu, tau_u, u)
    _apply_reflectors(yv, tau_v, v)
    if k:
        sigma = np.ldexp(sigma, -k)
    return QSvdResult(_from_pair(u), sigma[:cv], _from_pair(v), r)


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


# xLAQP2's safeguard: a downdated squared column norm that has fallen below
# sqrt(eps) times the last one computed exactly has lost half its digits to
# cancellation, and is computed again
_STALE = math.sqrt(_EPS)


def _sq_norms(x1, x2):
    # the squared quaternion norms of the columns of the pair (x1, x2)
    return np.sum(np.abs(x1) ** 2 + np.abs(x2) ** 2, axis=0)


def _downdate(nrm, floor, x1, x2):
    # nrm -= |R[k, j]|^2 for the columns of the pair (x1, x2), whose first
    # row is the new row k of R; a column whose downdated norm is stale,
    # below its floor (_STALE times its last exact one), is computed again
    # from the rows below, and its floor with it
    nrm -= np.abs(x1[0]) ** 2 + np.abs(x2[0]) ** 2
    stale = nrm < floor
    if stale.any():
        nrm[stale] = _sq_norms(x1[1:, stale], x2[1:, stale])
        floor[stale] = _STALE * nrm[stale]


def _pivoted_qr(m, n, pairs, step):
    """The pivot and stop rule of both pivoted QRs: (perm, r).

    pairs is a (2, m, n) view of the matrix as it stands, the pair (x1, x2)
    of complex halves whose squared moduli add up to the quaternion ones,
    and step(k, beta) applies step k's reflector, built from column k and
    its exact norm beta.  The
    squared column norms are computed once and then downdated by each new
    row of R (Quintana-Orti, Sun & Bischof, SIAM J. Sci. Comput. 1998), with
    xLAQP2's recomputation of a stale one (Drmac & Bujanovic, ACM TOMS
    2008).  Step k pivots on the column j of largest downdated norm,
    swapping columns k and j only when they differ, and stops when that
    column's exact norm is at most max(m, n) eps times the first pivot's.
    """
    perm = np.arange(n)
    nrm = _sq_norms(*pairs)
    floor = _STALE * nrm
    r = stop = 0
    steps = min(m, n)
    for k in range(steps):
        i = int(nrm[k:].argmax())
        x1, x2 = pairs[:, k:, k:]  # views: they see the swap and the step
        big = math.sqrt(np.vdot(x1[:, i], x1[:, i]).real
                        + np.vdot(x2[:, i], x2[:, i]).real)
        if k == 0:
            stop = _rank_threshold(big, m, n)
        if big <= stop:
            break
        j = k + i
        if j > k:
            # the norms of column k are never read again
            perm[k], perm[j] = perm[j], perm[k]
            nrm[j], floor[j] = nrm[k], floor[k]
            col = pairs[:, :, k].copy()
            pairs[:, :, k] = pairs[:, :, j]
            pairs[:, :, j] = col
        step(k, big)
        r = k + 1
        if r < steps:  # the norms are read again
            _downdate(nrm[r:], floor[r:], x1[:, 1:], x2[:, 1:])
    return perm, r


def _back_substitute(b, r):
    # R11^{-1} R12 as a pair array, for R11 = b[:r, :r] upper triangular
    # (nothing below its diagonal is read) and R12 = b[:r, r:], by back
    # substitution: x_k = d_k (r12_k - R11[k, k+1:] x[k+1:]) for
    # k = r-1, ..., 0, with d_k = conj(p_k) / |p_k|^2 the quaternion inverse
    # of the pivot p_k.  The rows of X and of j X are kept as they are
    # solved, so each row costs two matrix-vector products with the rows
    # below and one product of its expansion [y; j y] with d_k's, written
    # straight into row k of X and of j X
    l = b.shape[1] - r
    u1 = np.ascontiguousarray(b[:r, :r, 0])
    u2 = np.ascontiguousarray(b[:r, :r, 1])
    p = b[np.arange(r), np.arange(r)]
    n2 = np.abs(p[:, 0]) ** 2 + np.abs(p[:, 1]) ** 2
    xs = np.empty((r, 2, 2 * l), dtype=complex)  # rows of X and of j X
    x, jx = xs[:, 0], xs[:, 1]
    ed = np.empty((r, 2, 2), dtype=complex)
    ed[:, 0] = _qconj(p) / n2[:, None]
    _jmul(ed[:, 0], out=ed[:, 1])
    y = np.empty((2, l, 2), dtype=complex)  # [y; j y]
    for k in reversed(range(r)):
        z = u1[k, k + 1:] @ x[k + 1:]
        z += u2[k, k + 1:] @ jx[k + 1:]
        np.subtract(b[k, r:], z.reshape(l, 2), out=y[0])
        _jmul(y[0], out=y[1])
        np.matmul(ed[k], y.reshape(2, 2 * l), out=xs[k])
    return x.reshape(r, l, 2)


def _qr_direct(a: QMatrix):
    """Column-pivoted quaternion Householder QR on the pair array.

    Returns the column permutation, the rank r and X = R11^{-1} R12, found
    by back substitution with the pivots' quaternion inverses.  None of them
    depends on A's scale, so A is first brought to the safe range.
    """
    m, n = a.shape
    b = _pair(_scale_to_safe(a)[0])

    def step(k, beta):
        _reflect_rows(b[k:, k:], *_reflector(b[k:, k], beta))

    perm, r = _pivoted_qr(m, n, b.transpose(2, 0, 1), step)
    return perm, r, _from_pair(_back_substitute(b, r))


def _solve_direct(w: QMatrix, b: QMatrix | None) -> QMatrix:
    """W^{-1} B for a square W of full rank, by the Householder QR of
    [W | B] on one pair array (B None is the identity, written straight
    into it).

    Unpivoted and one column at a time, with the reflectors of the direct
    QR: step k builds a reflector from column k of W, rows k:, and applies
    it to rows k: of [W | B].  B's columns ride along to Q* B, so the back
    substitution with R gives W^-1 B.  Only W's columns shape a reflector:
    W alone sets the scale, and B is scaled by the same power of two.  A
    reflector has no growth factor, so the solve is backward stable for
    every W (Higham, Accuracy and Stability of Numerical Algorithms, 2nd
    ed., Thm 19.4), where an LU with partial pivoting can grow by 2^(n-1).
    Raises ``np.linalg.LinAlgError`` if a column is exactly zero.
    """
    n = w.ncols
    w, k = _scale_to_safe(w)
    if b is None:
        a = np.zeros((n, 2 * n, 2), dtype=complex)
        a[:, :n, 0], a[:, :n, 1] = w.q1, w.q2
        np.fill_diagonal(a[:, n:, 0], math.ldexp(1.0, k))
    else:
        a = _pair(hstack_q([w, b * math.ldexp(1.0, k) if k else b]))
    for c in range(n):
        ref = _reflector(a[c:, c])
        if ref is None:
            raise np.linalg.LinAlgError("Singular matrix")
        _reflect_rows(a[c:, c:], *ref)
    return _from_pair(_back_substitute(a, n))


def _solve(w: QMatrix, b: QMatrix | None, route: str) -> QMatrix:
    # W^-1 B for a square W of full rank, from one factorization in the
    # route's own arithmetic: the Householder QR of [W | B] on direct, and
    # LAPACK's LU with partial pivoting of W^C on crep.  B None is the
    # identity, so W^-1 itself is solved for with no QMatrix.eye.  On crep
    # the solution of W^C Y = B^C is symplectic only to rounding, and it is
    # read once, through the projection of qcore._quaternion_part
    if route == "direct":
        return _solve_direct(w, b)
    rhs = np.eye(2 * w.nrows, dtype=complex) if b is None else to_crep(b)
    return _quaternion_part(np.linalg.solve(to_crep(w), rhs))


def _qr_crep(a: QMatrix):
    """The same pivoted QR on A^C, structure preserving.  Only A^C's left
    block column L = [Q1; -conj Q2] (2m-by-n) is stored: the right one,
    [Q2; conj Q1] = [-conj L_bot; conj L_top], is fixed by it, and every
    reflector, the representation of a quaternion one, keeps that
    structure.  Step k, once columns k and j of L are swapped, builds the
    reflector from the true pair (Q1, Q2) of column k, and applies it as
    the rank-2 complex update I - tau v^C (v^C)* to rows k: of L's two
    halves, in columns k: only.  The column norms are read off L's halves as they
    stand, since only moduli enter.  R = R1 + R2 j is read off L once,
    after the loop, as R1 = L_top and R2 = -conj L_bot in rows :r, and
    X = R11^-1 R12 comes from the route's square solve, ``_solve``."""
    m, n = a.shape
    a = _scale_to_safe(a)[0]
    c = np.concatenate([a.q1, -np.conj(a.q2)])  # L = [Q1; -conj Q2]

    # the step's column buffers, whose leading 2 (m - k) entries step k
    # reads as C-contiguous arrays
    xbuf, vbuf = np.empty(2 * m, dtype=complex), np.empty(2 * m, dtype=complex)

    def step(k, beta):
        top, bot = c[k:m, k:], c[m + k:, k:]
        x = xbuf[:2 * (m - k)].reshape(m - k, 2)
        x[:, 0] = top[:, 0]
        np.negative(np.conj(bot[:, 0]), out=x[:, 1])  # Q2, not L_bot
        v, tau = _reflector(x, beta)
        # v^C = [v; vb] with vb = [-conj v2, conj v1], so vb* = [-v2^T; v1^T]
        vbh = vbuf[:2 * (m - k)].reshape(2, m - k)
        np.negative(v[:, 1], out=vbh[0])
        vbh[1] = v[:, 0]
        h = np.conj(v.T) @ top
        h += vbh @ bot
        h *= tau
        top -= v @ h
        bot -= np.conj(vbh.T) @ h

    perm, r = _pivoted_qr(m, n, c.reshape(2, m, n), step)
    if r == 0:  # no solve, so no representation with A's n columns
        return perm, 0, QMatrix.zeros(0, n)
    r1, r2 = c[:r], -np.conj(c[m:m + r])  # rows :r of R = R1 + R2 j
    r11, r12 = QMatrix(r1[:, :r], r2[:, :r]), QMatrix(r1[:, r:], r2[:, r:])
    return perm, r, _solve(r11, r12, "crep")


def full_rank_decompose(a: QMatrix,
                        route: str = "direct") -> FullRankFactorization:
    """Full rank decomposition A = F G by column-pivoted Householder QR.

    A P = Q [[R11, R12], [0, R22]] with R11 r-by-r.  Each step pivots on the
    trailing column of largest quaternion norm, and the QR stops once that
    norm is at most max(m, n) eps times the first pivot's (the SVD rank rule
    with this norm in place of sigma_1).  The norms are downdated by each
    row of R, as LAPACK's xGEQP3 does, and one is computed again when it
    has fallen below sqrt(eps) times its last exact value; the stop test
    reads the chosen column's exact norm.  F is A's pivot columns in A's
    column order and G = [I, R11^{-1} R12] P^T, the identity on F's columns.
    F has full column rank and G full row rank, so the one factorization
    fixes all four of A's spaces: R_r(A) = R_r(F), N_r(A) = N_r(G),
    R_l(A) = R_l(G) and N_l(A) = N_l(F).

    Parameters
    ----------
    a : QMatrix
    route : {"direct", "crep"}
        Arithmetic realization of the QR: quaternion reflectors on the
        pair array, or their complex representations on A^C's left block
        column.

    Raises ``ValueError`` for an input with NaN or Inf entries.
    """
    _require_finite(a, "full_rank_decompose")
    _check_route(route)
    perm, r, x = (_qr_direct if route == "direct" else _qr_crep)(a)
    # row k of G belongs to pivot column piv[k]
    order = np.argsort(perm[:r])
    piv = perm[:r][order]
    g1 = np.zeros((r, a.ncols), dtype=complex)
    g2 = np.zeros_like(g1)
    g1[np.arange(r), piv] = 1.0
    g1[:, perm[r:]] = x.q1[order]
    g2[:, perm[r:]] = x.q2[order]
    f = QMatrix(a.q1[:, piv], a.q2[:, piv])
    return FullRankFactorization(f, QMatrix._own(g1, g2), r)


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
    gives the same {1}-inverse on each.  The Urquhart core of
    :mod:`quatinv.geninv` builds its {1}-inverse by this same formula from
    the one compact SVD whose rank it reports.  Raises ``ValueError`` for a
    z of another shape than (w.ncols, w.nrows).
    """
    if z is not None and z.shape != (w.ncols, w.nrows):
        raise ValueError(
            f"z has shape {z.shape}, expected {(w.ncols, w.nrows)}")
    return _one_inverse_from(qsvd(w, method=method, full=False), z, method)


def _one_inverse_from(res: QSvdResult, z: QMatrix | None,
                      method: str) -> QMatrix:
    # W+ + Z - V_r (V_r* Z U_r) U_r* from the compact SVD res of W, in the
    # route's products; z has W*'s shape or is None (Z = 0)
    mm = _route_mul(method)
    uh = conj_transpose(res.u)
    vs = QMatrix._own(res.v.q1 / res.sigma, res.v.q2 / res.sigma)
    x = mm(vs, uh)
    if z is None:
        return x
    core = mm(mm(conj_transpose(res.v), z), res.u)
    return x + z - mm(mm(res.v, core), uh)
