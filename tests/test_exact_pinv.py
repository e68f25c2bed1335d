"""The Moore-Penrose inverse against an exact oracle.

The inputs are products L R of integer (Lipschitz) quaternion matrices up to
6-by-6, so their rank r and their full rank decomposition A = F G are exact:
Gauss-Jordan (``qexact``) reduces A to its row echelon form, whose r
nonzero rows are G, and F is A's pivot columns.  Then

    A+ = G* (G G*)^-1 (F* F)^-1 F*

(Ben-Israel & Greville, *Generalized Inverses*, 2nd ed., Ch. 1), in
rational arithmetic, rounded once to floating point.  ``pinv``,
``pinv_report`` and ``pinv_solve`` must reach it within c n kappa eps on
both routes, kappa = sigma_1 / sigma_r of A; the "frd" method forms
G A F for W = A*, which squares kappa, so its bound is c n kappa^2 eps.
"""

from fractions import Fraction
from functools import lru_cache

import numpy as np
import pytest

import qexact
from quatinv.geninv import pinv, pinv_report, pinv_solve
from quatinv.qcore import fro_norm, to_crep

EPS = np.finfo(float).eps
SEEDS = range(24)

# c of each bound: 4 times the largest err / (n kappa eps) (kappa^2 for
# "frd") measured over SEEDS on both routes, with one BLAS thread and with
# the default threads alike, rounded up to two significant digits.
# Measured largest multiples: "svd" 1.22, pinv_solve 1.31, "frd" 0.41
C_SVD = 4.9
C_SOLVE = 5.3
# "frd" squares kappa through G A F with F = W's pivot columns; ROADMAP
# item 3 (an orthonormal F) would bring it to the "svd" bound
C_FRD = 1.7


def qconj_t(x):
    # the conjugate transpose of an exact matrix
    return [[(a, -b, -c, -d) for (a, b, c, d) in col] for col in zip(*x)]


def exact_pinv(a, m, n):
    """(A+, r) of an exact m-by-n A, from its full rank decomposition."""
    rows = [list(row) for row in a]
    r = qexact._eliminate(rows, n)
    if r == 0:
        return [[qexact.ZERO] * m for _ in range(n)], 0
    g = rows[:r]
    piv = [next(j for j in range(n) if row[j] != qexact.ZERO) for row in g]
    f = [[row[j] for j in piv] for row in a]
    gh, fh = qconj_t(g), qconj_t(f)
    return qexact.matmul(
        qexact.matmul(gh, qexact.inverse(qexact.matmul(g, gh))),
        qexact.matmul(qexact.inverse(qexact.matmul(fh, f)), fh)), r


@lru_cache(maxsize=None)
def case(seed):
    """(A, B, exact A+, exact A+ B, r, kappa) for one seed."""
    rng = np.random.default_rng(900 + seed)
    m, n = (int(v) for v in rng.integers(1, 7, size=2))
    k = int(rng.integers(1, min(m, n) + 1))

    def draw(rows, cols):
        return [[qexact.random_lipschitz(rng, -2, 2) for _ in range(cols)]
                for _ in range(rows)]

    a = qexact.matmul(draw(m, k), draw(k, n))
    b = draw(m, 2)
    x, r = exact_pinv(a, m, n)
    s = np.linalg.svd(to_crep(qexact.to_qmatrix(a)), compute_uv=False)
    kappa = float(s[0] / s[2 * r - 1]) if r else 1.0
    return (qexact.to_qmatrix(a), qexact.to_qmatrix(b), qexact.to_qmatrix(x),
            qexact.to_qmatrix(qexact.matmul(x, b)), r, kappa)


def rel_err(x, want):
    return fro_norm(x - want) / fro_norm(want) if fro_norm(want) else \
        fro_norm(x)


def test_the_oracle_is_a_moore_penrose_inverse():
    # the four Penrose equations hold exactly for the rational X of a 4-by-3
    # A whose last row is the difference of two others
    rng = np.random.default_rng(900)
    a = [[qexact.random_lipschitz(rng, -2, 2) for _ in range(3)]
         for _ in range(4)]
    a[3] = [qexact.qsub(x, y) for x, y in zip(a[0], a[1])]
    x, r = exact_pinv(a, 4, 3)
    assert r == qexact.rank(a)
    mm = qexact.matmul
    assert mm(mm(a, x), a) == a
    assert mm(mm(x, a), x) == x
    assert mm(a, x) == qconj_t(mm(a, x))
    assert mm(x, a) == qconj_t(mm(x, a))
    assert all(isinstance(c, Fraction) for row in x for e in row for c in e)


def test_the_family_holds_every_rank_and_shape():
    cases = [case(seed) for seed in SEEDS]
    assert {c[0].nrows > c[0].ncols for c in cases} == {True, False}
    assert any(c[4] < min(c[0].shape) for c in cases)  # rank deficient
    assert any(c[4] == min(c[0].shape) for c in cases)  # full rank
    assert max(c[0].shape[0] for c in cases) == 6


@pytest.mark.parametrize("route", ["direct", "crep"])
def test_pinv_matches_the_exact_oracle(route):
    for seed in SEEDS:
        a, b, want, want_b, r, kappa = case(seed)
        n = max(a.shape)
        for method, bound in (("svd", C_SVD * n * kappa * EPS),
                              ("frd", C_FRD * n * kappa ** 2 * EPS)):
            rep = pinv_report(a, method=method, route=route)
            assert rep.ranks["nu"] == rep.ranks["w"] == r, (seed, method)
            assert rel_err(rep.x, want) <= bound, (seed, method)
            x = pinv(a, method=method, route=route)
            assert rel_err(x, want) <= bound, (seed, method)
        x = pinv_solve(a, b, route=route)
        assert rel_err(x, want_b) <= C_SOLVE * n * kappa * EPS, seed
