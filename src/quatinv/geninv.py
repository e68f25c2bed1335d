"""Generalized inverses of quaternion matrices with prescribed subspaces.

Constructors for outer ({2}-) inverses, {1,2}-inverses, and the classical
special cases (Moore-Penrose, Drazin, group inverse).  The Urquhart-type
expression

    X = S (T A S)^(1) T

is an outer inverse with right range R_r(S) exactly when
rank(TAS) = rank(S), and right null space N_r(T) exactly when
rank(TAS) = rank(T); it is a {1}-inverse exactly when rank(TAS) = rank(A).
These rank conditions are the module's one subspace test: it compares no
spaces otherwise.  The prescribed-space constructors (``outer_right``,
``outer_left``, ``outer_both``, ``outer_w_right``, ``outer_w_left``) and
``pinv_report`` therefore return an :class:`InverseReport` carrying the
computed matrix together with the four ranks, the flags they imply, and the
defining residuals; its rank(TAS) is that of the factorization that built
X.  Every report, that of an inverse that does not exist included, comes
from one builder, which classifies the ranks for the report's side; the
three S, T constructors share one body, and so do the two W ones.
``pinv``, ``drazin`` and ``group_inverse`` return the bare matrix: they
call the core directly and compute no rank of A and no residual.  The
Drazin and group inverses come from one walk over the normalized powers of
A, formed with the route's own product, which starts from A itself, finds
the index k, ranking each power once, and prescribes W = A^k (W = I for an
invertible A, passed as None and neither built nor factored).  The walk
stops at the first power whose computed rank does not fall (exact ranks of
powers never rise, computed ones can), and only A^1 takes ``rank``'s
square full-rank test: every later power is singular once A^1 is, so it
goes straight to the singular values.  The core takes None for S or T as
the identity and forms no product with it.  ``pinv`` (method "svd") is the
core on S = T = I, passed as None, so W = A and the core's rule below acts
on A itself: one LU of A for a square A of full rank, else the {1}-inverse
from A's compact SVD with Z = 0, which is A+ and costs the one product
(V diag(1/sigma)) U*.  Its error therefore follows cond(A), where the
composed A* (A*AA*)^(1) A* would cube it; that expression is still
``outer_right(a, A*, A*)``.  ``pinv_solve`` returns pinv(A) B by the same
rule: it ranks a square A only, solves one of full rank by the core's LU,
and otherwise applies A+ from A's compact SVD to B; ``pinv(A)`` is
``pinv_solve(A, I)`` bit for bit.

The W-prescribed variants factor a single matrix W = F G by full rank
decomposition and invert the small matrix G A F; they fail (reported, not
raised) when that matrix is singular, since the target inverse then does not
exist.  One factorization fixes W's right and left spaces alike, and
X = F (G A F)^-1 G does not depend on which one is used, so ``outer_w_left``
is ``outer_w_right`` under another label.  One helper serves both, ``pinv``
by "frd" (W = A*, so G A F squares A's scale and condition, and an A
outside the safe range is first scaled by a power of two) and the Drazin
and group inverses (W = A^k).

Every constructor takes ``route`` in {"direct", "crep"}: native quaternion
arithmetic versus complex-representation arithmetic end to end.  The route
is checked on entry, by the package's one route check in
:mod:`quatinv.qcore`, and all five outer-inverse constructors (and both
Moore-Penrose realizations) evaluate the expression through one private
core, differing only in S and T, the free matrix z that picks the
{1}-inverse of TAS, and whether a singular TAS means the inverse does not
exist.  The core has one rule: when W = TAS is square and rank(W) equals
its order, its only {1}-inverse is W^-1, and X = (S W^-1) T, with W^-1
alone from one LU with partial pivoting in the route's own arithmetic (of
W^C by LAPACK on crep, of [W | I] in quaternion pair arithmetic on
direct), with no SVD of W.  T has at least rank(W) columns, so the LU
carries W's order of right-hand sides, never T's width.  That LU is
``factor._solve``, the one square solve of each route, and ``pinv_solve``
calls it too.  The rule covers the Moore-Penrose inverse of a square
invertible A, every W-prescribed constructor (Drazin and group inverses
included) and any outer inverse whose TAS is square and nonsingular; a
rectangular or singular W = TAS takes its {1}-inverse W+ + Z - W+ W Z W W+
from its compact SVD, whose rank is the rank(TAS) reported (on a near tie
it can differ from ``rank(TAS)``, which only decides whether the LU
applies).  So this module factors nothing and forms no complex
representation itself: it composes ``factor``'s kernels with the route's
product.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .factor import (
    _one_inverse_from,
    _require_finite,
    _solve,
    _svd_rank,
    full_rank_decompose,
    qsvd,
    rank,
)
from .qcore import (
    QMatrix,
    _check_route,
    _route_mul,
    _scale_to_safe,
    conj_transpose,
    fro_norm,
    mat_mul,
)

__all__ = [
    "InverseExistenceError",
    "InverseReport",
    "outer_right",
    "outer_left",
    "outer_both",
    "outer_w_right",
    "outer_w_left",
    "pinv",
    "pinv_solve",
    "pinv_report",
    "penrose_residuals",
    "mat_index",
    "drazin",
    "group_inverse",
]


class InverseExistenceError(Exception):
    """The requested inverse does not exist for this input."""


@dataclass(frozen=True)
class InverseReport:
    """Result of an inverse constructor.

    x              -- the computed matrix (all zeros when exists is False)
    exists         -- False only when a required small matrix was singular
    reason         -- diagnostic for exists=False, else ""
    classification -- rank-condition flags: is_one_inverse, is_outer,
                      range_matches, nullspace_matches, is_12_unique
                      (both-sided constructors add per-side variants)
    residuals      -- absolute Frobenius defining residuals
    ranks          -- nu = rank(A), s = rank(S), t = rank(T), w = rank(TAS)
                      as decided by the factorization that built x
    side           -- which subspaces are prescribed: right / left / both
    route          -- arithmetic used to build x
    """

    x: QMatrix
    exists: bool
    reason: str
    classification: dict = field(default_factory=dict)
    residuals: dict = field(default_factory=dict)
    ranks: dict = field(default_factory=dict)
    side: str = "right"
    route: str = "direct"


def _classify(ranks, side):
    # the rank conditions of X = S (TAS)^(1) T.  One side reads them from
    # (S, T); side "both" reads the left side's from (T, S) too, so that a
    # space flag holds on both sides and is_outer on either, and then adds
    # each side's space flags and whether the sides disagree
    nu, w = ranks["nu"], ranks["w"]
    pairs = [(ranks["s"], ranks["t"])]
    if side == "both":
        pairs.append((ranks["t"], ranks["s"]))
    spaces = [(w == s, w == t) for s, t in pairs]
    range_matches, null_matches = map(all, zip(*spaces))
    cls = {
        "is_one_inverse": w == nu,
        "is_outer": any(r or n for r, n in spaces),
        "range_matches": range_matches,
        "nullspace_matches": null_matches,
        "is_12_unique": range_matches and null_matches and w == nu,
    }
    if side == "both":
        for name, (r, n) in zip(("right", "left"), spaces):
            cls[f"{name}_range_matches"] = r
            cls[f"{name}_nullspace_matches"] = n
        cls["sides_disagree"] = spaces[0][0] != spaces[0][1]
    return cls


def _defining_residuals(a, x, penrose=False):
    # XAX = X and AXA = A, both from the smaller of AX (m x m) and XA
    # (n x n), formed once; with penrose, also AX and XA Hermitian, which
    # forms the other product too
    m, n = a.shape
    if n <= m:
        xa = mat_mul(x, a)
        xax, axa = mat_mul(xa, x), mat_mul(a, xa)
        ax = mat_mul(a, x) if penrose else None
    else:
        ax = mat_mul(a, x)
        xax, axa = mat_mul(x, ax), mat_mul(ax, a)
        xa = mat_mul(x, a) if penrose else None
    res = {"outer": fro_norm(xax - x), "one": fro_norm(axa - a)}
    if penrose:
        res["p3"] = fro_norm(conj_transpose(ax) - ax)
        res["p4"] = fro_norm(conj_transpose(xa) - xa)
    return res


_SINGULAR = ("prescribed-space inverse does not exist: "
             "G*A*F is singular (rank {} < {})")


def _report(a, x, ranks, side, route, penrose=False):
    # the one InverseReport.  X None is an inverse that does not exist, a
    # singular G A F of order r = ranks["s"]: reported as a zero X of A*'s
    # shape, every flag False and the reason naming rank(GAF) and r.  The
    # residuals of that zero X are known without a product: XAX - X = 0,
    # AXA - A = -A, and AX = XA = 0 are Hermitian
    cls, reason = _classify(ranks, side), ""
    if x is None:
        x = QMatrix.zeros(a.ncols, a.nrows)
        cls = dict.fromkeys(cls, False)
        reason = _SINGULAR.format(ranks["w"], ranks["s"])
        res = {"outer": 0.0, "one": fro_norm(a)}
        if penrose:
            res["p3"] = res["p4"] = 0.0
    else:
        res = _defining_residuals(a, x, penrose)
    return InverseReport(
        x=x, exists=not reason, reason=reason, classification=cls,
        residuals=res, ranks=ranks, side=side, route=route)


def _urquhart(a, s, t, route, z=None, need_inverse=False):
    # X = S (TAS)^(1) T; returns (X, rank W), whose rank conditions are the
    # one subspace test of _classify.  S or T None stands for the identity,
    # and no product is formed with it.  z picks the {1}-inverse of W = TAS
    # as in one_inverse and must have W*'s shape.  rank(W) only picks the
    # square solve: a square W of full rank has one {1}-inverse, W^-1, so
    # X = (S W^-1) T, with W^-1 alone from factor._solve, the LU pinv_solve
    # also takes, and z unused: T has at least rank(T) >= rank(W) columns,
    # so W^-1 T would carry more right-hand sides through the LU.  Any other
    # W: with need_inverse X is None (the prescribed-space inverse does not
    # exist), else X and the rank reported both come from one compact SVD
    # of W
    mm = _route_mul(route)

    def prod(p, q):  # P Q, where None is the identity
        return q if p is None else p if q is None else mm(p, q)

    w = prod(prod(t, a), s)
    if z is not None and z.shape != (w.ncols, w.nrows):
        raise ValueError(
            f"z has shape {z.shape}, expected {(w.ncols, w.nrows)}")
    w_rank = rank(w)
    if w.nrows == w.ncols == w_rank:
        return prod(prod(s, _solve(w, None, route)), t), w_rank
    if need_inverse:
        return None, w_rank
    sv = qsvd(w, method=route, full=False)
    return prod(prod(s, _one_inverse_from(sv, z, route)), t), sv.rank


# side -> outer_<side>'s two generators by name, each with the axes on which
# it must match A*'s shape: the core's S has A.ncols rows and its T A.nrows
# columns, outer_left's S2 is the core's T, and outer_both's S and T have
# A*'s shape
_OUTER_ARGS = {"right": (("S1", (0,)), ("T1", (1,))),
               "left": (("S2", (1,)), ("T2", (0,))),
               "both": (("S", (0, 1)), ("T", (0, 1)))}


def _outer(a, s, t, route, z, side):
    # outer_right, outer_left and outer_both: the generators' shapes, the
    # ranks of A, s and t, then X = S (TAS)^(1) T, whose S is t and T is s
    # on the left
    _check_route(route)
    want = (a.ncols, a.nrows)
    for arg, (name, axes) in zip((s, t), _OUTER_ARGS[side]):
        for ax in axes:
            if arg.shape[ax] != want[ax]:
                noun = ("rows", "columns")[ax]
                raise ValueError(
                    f"{name} has {arg.shape[ax]} {noun}, expected {want[ax]}")
    ranks = {"nu": rank(a), "s": rank(s), "t": rank(t)}
    gens = (t, s) if side == "left" else (s, t)
    x, ranks["w"] = _urquhart(a, *gens, route, z)
    return _report(a, x, ranks, side, route)


def outer_right(a: QMatrix, s1: QMatrix, t1: QMatrix, route: str = "direct",
                z: QMatrix | None = None) -> InverseReport:
    """Outer inverse with prescribed right range R_r(S1) / null space N_r(T1).

    Builds X = S1 (T1 A S1)^(1) T1 and classifies it by the rank of T1*A*S1
    against rank(S1), rank(T1), and rank(A).  ``z`` picks the {1}-inverse
    W+ + Z - W+ W Z W W+ of W = T1 A S1, as in
    :func:`quatinv.factor.one_inverse`: None gives W+, and any other z must
    have W*'s shape (S1.ncols, T1.nrows).  One z gives the same X on both
    routes.  The classification does not depend on z, and when
    rank(W) = rank(S1) = rank(T1) neither does X.  A square W of full rank
    has W^-1 as its only {1}-inverse, so z is checked and then unused.
    """
    return _outer(a, s1, t1, route, z, "right")


def outer_left(a: QMatrix, s2: QMatrix, t2: QMatrix, route: str = "direct",
               z: QMatrix | None = None) -> InverseReport:
    """Outer inverse with prescribed left range R_l(S2) / null space N_l(T2).

    Mirror of :func:`outer_right`: X = T2 (S2 A T2)^(1) S2, classified by
    rank(S2 A T2) against rank(S2), rank(T2), rank(A); ``z`` picks the
    {1}-inverse of S2 A T2 and has shape (T2.ncols, S2.nrows).
    """
    return _outer(a, s2, t2, route, z, "left")


def outer_both(a: QMatrix, s: QMatrix, t: QMatrix, route: str = "direct",
               z: QMatrix | None = None) -> InverseReport:
    """Outer inverse prescribing right spaces from (S, T) and left from (T, S).

    Same expression X = S (TAS)^(1) T; the right-side conditions compare
    rank(TAS) with (rank S, rank T), the left-side conditions with the pair
    swapped.  When rank(TAS) = rank(S) = rank(T) both sides match and X is
    the unique outer inverse with all four prescribed spaces; the combined
    flags report each side plus their conjunction, and ``sides_disagree``
    marks the asymmetric cases.  ``z`` picks the {1}-inverse of TAS as in
    :func:`outer_right`.
    """
    return _outer(a, s, t, route, z, "both")


def _w_inverse(a, w, route):
    # (X, rank(GAF), r) of X = F (G A F)^-1 G for the full rank
    # decomposition W = F G of rank r; X is None when G A F is singular.
    # W None is the identity of a square A: F = G = I go to the core as
    # None and r = n, with nothing factored.  G = I when W has full column
    # rank, and goes as None too
    f = g = None
    r = a.ncols
    if w is not None:
        if w.shape != (a.ncols, a.nrows):
            raise ValueError(
                f"W has shape {w.shape}, expected {(a.ncols, a.nrows)}")
        fact = full_rank_decompose(w, route=route)
        f, r = fact.f, fact.r
        g = fact.g if r < w.ncols else None
    x, w_rank = _urquhart(a, f, g, route, need_inverse=True)
    return x, w_rank, r


def _outer_w(a, w, route, side):
    # outer_w_right and outer_w_left: one X = F (G A F)^-1 G, labelled side
    _check_route(route)
    x, w_rank, r = _w_inverse(a, w, route)
    return _report(a, x, {"nu": rank(a), "s": r, "t": r, "w": w_rank},
                   side, route)


def outer_w_right(a: QMatrix, w1: QMatrix, route: str = "direct") -> InverseReport:
    """Outer inverse with the right and left spaces of one matrix W1.

    Factors W1 = F G by :func:`quatinv.factor.full_rank_decompose` and
    returns X = F (G A F)^{-1} G when G A F is invertible, so R_r(X) =
    R_r(F), N_r(X) = N_r(G), R_l(X) = R_l(G) and N_l(X) = N_l(F): W1's four
    spaces.  Any other full rank decomposition is (F M)(M^-1 G) for an
    invertible r-by-r M, which cancels in X, so X is the same whichever is
    used.  A singular G A F means no outer inverse with those spaces exists;
    the report carries ``exists=False`` instead of raising.
    """
    return _outer_w(a, w1, route, "right")


def outer_w_left(a: QMatrix, w2: QMatrix, route: str = "direct") -> InverseReport:
    """:func:`outer_w_right`'s report, labelled ``side="left"``: one full
    rank decomposition fixes W2's left spaces as well as its right ones, and
    X does not depend on which one is used.
    """
    return _outer_w(a, w2, route, "left")


# ======================================================= classical inverses


def penrose_residuals(a: QMatrix, x: QMatrix) -> dict:
    """Absolute Frobenius residuals of the four Penrose conditions."""
    return _defining_residuals(a, x, penrose=True)


def _moore_penrose(a, method, route):
    # (X, rank W, r) of the Moore-Penrose inverse X = S (TAS)^(1) T.  By
    # "svd" S = T = I, passed as None so that no product with I is formed,
    # and W = A: the core's rule acts on A itself, one LU for a square A of
    # full rank, else A+ from A's compact SVD (r is None).
    # By "frd" the W-inverse of W = A* of rank r, X None when GAF is
    # singular; GAF squares A's scale, so an A outside the safe range runs
    # scaled by 2^e to [1/2, 1)
    _check_route(route)
    if method == "svd":
        x, w_rank = _urquhart(a, None, None, route)
        return x, w_rank, None
    if method != "frd":
        raise ValueError(f"unknown pinv method {method!r}")
    a, e = _scale_to_safe(a)
    x, w_rank, r = _w_inverse(a, conj_transpose(a), route)
    if e and x is not None:
        x = x * math.ldexp(1.0, e)
    return x, w_rank, r


def pinv_report(a: QMatrix, method: str = "svd",
                route: str = "direct") -> InverseReport:
    """Moore-Penrose inverse with the full report and Penrose residuals.

    method selects the formula realization: "svd" runs the core on
    S = T = I, so W = A, which one LU inverts when A is square of full rank
    and A's compact SVD pseudo-inverts otherwise; "frd" factors A* and
    inverts the small matrix (the W-prescribed construction with W = A*).
    Combined with route this gives four realizations.  For "svd" the ranks
    are those of the spaces the Moore-Penrose inverse prescribes, R(A*) and
    N(A*): s = t = rank(A*), and w is the rank of A's factorization.  Ranks
    and residuals are those of the caller's A, also when "frd" ran on A
    scaled by a power of two.
    """
    x, w_rank, r = _moore_penrose(a, method, route)
    ranks = {"nu": rank(a), "s": r, "t": r, "w": w_rank}
    if r is None:  # the ranks of outer_right(a, A*, A*)
        astar = conj_transpose(a)
        ranks["s"], ranks["t"] = rank(astar), rank(astar)
    return _report(a, x, ranks, "right", route, penrose=True)


def pinv(a: QMatrix, method: str = "svd", route: str = "direct") -> QMatrix:
    """Moore-Penrose inverse of a quaternion matrix (zero maps to zero).

    The X of :func:`pinv_report` alone; raises
    :class:`InverseExistenceError` when "frd" meets a singular G*A*F.
    """
    x, w_rank, r = _moore_penrose(a, method, route)
    if x is None:
        raise InverseExistenceError(_SINGULAR.format(w_rank, r))
    return x


def pinv_solve(a: QMatrix, b: QMatrix, route: str = "direct") -> QMatrix:
    """Minimum-norm least-squares solution pinv(A) @ B, by the core's rule.

    A square A whose rank equals its order has pinv(A) = A^-1, and A^-1 B
    comes from one LU with partial pivoting in the route's own arithmetic:
    the same kernel by which the core solves a square nonsingular TAS.  Any
    other A (rectangular, which is not ranked, or rank deficient) gets
    A+ = V diag(1/sigma) U*, built as the core builds a {1}-inverse from
    the compact rank-revealing SVD of A itself (only its r pairs above the
    rank cut), then applied to B.  Either path loses accuracy only with
    cond(A).  ``pinv(A)`` is the same rule applied to B = I and equals
    ``pinv_solve(A, I)``.  Use this for solving linear systems; use
    :func:`pinv` when the inverse matrix itself is the object of study.
    A or B with a NaN or Inf entry raises ``ValueError``.
    """
    _check_route(route)
    if a.shape[0] != b.shape[0]:
        raise ValueError(
            f"dimension mismatch: A is {a.shape}, B is {b.shape}")
    _require_finite(b, "pinv_solve")
    if a.nrows == a.ncols == rank(a):
        return _solve(a, b, route)
    sv = qsvd(a, method=route, full=False)
    return _route_mul(route)(_one_inverse_from(sv, None, route), b)


def _spectral(a: QMatrix, route, group: bool = False):
    # (k, P, X) for square A: k = Ind(A) from one walk that ranks each of
    # A^1, ..., A^{k+1} once, rescaled to unit Frobenius norm (central, so
    # ranks and spaces stay), and stops at the first power whose rank does
    # not fall: exact ranks of powers never rise, but computed ones can.
    # Only A^1 takes rank()'s full-rank test: once it fails, every later
    # power is singular and goes straight to the SVD rule, _svd_rank.
    # P = A^k so rescaled, None for k = 0 (the identity, never built); X the
    # outer inverse with W = P (the Drazin inverse), None when route is
    # None; for k = 0 W goes to _w_inverse as None, so I is never factored.
    # The powers are the route's products (direct ones when route is None).
    # With group, Ind(A) > 1 raises before X is built.  A NaN or Inf is
    # refused before the walk's normalization can meet it
    if a.nrows != a.ncols:
        raise ValueError(f"the index needs a square matrix, got {a.shape}")
    _require_finite(a, "mat_index" if route is None
                    else "group_inverse" if group else "drazin")
    mm = _route_mul(route or "direct")
    b = a * (1.0 / max(1.0, fro_norm(a)))
    p, p_rank = None, a.nrows
    # the rank falls at every step that does not break, so the loop breaks
    # by k = n
    for k in range(a.nrows + 1):
        nxt = mm(p, b) if k else b  # A^1 = b, not I b
        nrm = fro_norm(nxt)
        if nrm > 0.0:
            nxt = nxt * (1.0 / nrm)
        nxt_rank = _svd_rank(nxt) if k else rank(nxt)
        if nxt_rank >= p_rank:
            break
        p, p_rank = nxt, nxt_rank
    if group and k > 1:
        raise InverseExistenceError(
            f"group inverse does not exist: Ind(A) = {k} > 1")
    if route is None:
        return k, p, None
    x, w_rank, r = _w_inverse(a, p, route)
    if x is None:  # mathematically impossible; numerically defensive
        raise InverseExistenceError(_SINGULAR.format(w_rank, r))
    return k, p, x


def mat_index(a: QMatrix) -> int:
    """Smallest k >= 0 with rank(A^{k+1}) = rank(A^k) (A square).

    Powers are renormalized by their Frobenius norm at every step; positive
    real scaling is central, so ranks are unaffected.  The k returned is
    the one the computed ranks give: on an ill-conditioned similarity input
    A = P J P^-1 the walk by powers can misjudge a rank and return another
    index, with no error raised (ROADMAP items 6-7; strict-xfail
    reproducers in ``tests/test_exact_index.py``,
    ``test_index_walk_outside_the_family``).
    """
    return _spectral(a, None)[0]


def drazin(a: QMatrix, route: str = "direct") -> QMatrix:
    """Drazin inverse: the outer inverse prescribed by W = A^k, k = Ind(A).

    The W-construction only sees the spaces of A^k, which positive real
    rescaling leaves untouched, so normalized powers feed it directly.
    X satisfies A^{k+1} X = A^k, XAX = X and AX = XA when the walk by
    powers judges the index and rank(A^k) right.  On an ill-conditioned
    similarity input A = P J P^-1 it can misjudge them (ROADMAP items 6-7):
    X then fails those equations and no error is raised.  The strict-xfail
    reproducers are ``test_index_walk_outside_the_family`` in
    ``tests/test_exact_index.py`` (seed 0 on crep and seed 18 on direct
    return such an X).
    """
    _check_route(route)
    return _spectral(a, route)[2]


def group_inverse(a: QMatrix, route: str = "direct") -> QMatrix:
    """Group inverse: Drazin inverse restricted to Ind(A) <= 1.

    Invertible inputs (index 0) return the ordinary inverse, solved from
    W = A^0 = I; index >= 2 raises :class:`InverseExistenceError` since the
    group inverse requires rank(A^2) = rank(A).  Like :func:`drazin`, it
    trusts the walk by powers, which can misjudge the index on an
    ill-conditioned similarity input (ROADMAP items 6-7): X then fails
    A^2 X = A, XAX = X and AX = XA, and no error is raised.
    """
    _check_route(route)
    return _spectral(a, route, group=True)[2]

