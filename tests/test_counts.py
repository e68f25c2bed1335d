"""Factorization counts per public constructor and route.

The paper's inverses are short compositions of a few factorizations, and
the library aims at one factorization per matrix per solve.  Each row
below pins, for one constructor on one input, how many times each of these
runs:

* LAPACK's SVD (``svd``: of A^C for a rank, and on direct the compact
  SVD's of the real bidiagonal) and its LU solve (``solve``, crep's square
  solve);
* the Gram-Cholesky full-rank proof of ``rank``, by outcome (``proved`` or
  ``unproved``, the latter followed by an SVD);
* the direct kernels ``_bidiagonalize``, ``_qr_direct`` and
  ``_solve_direct``, and crep's pivoted QR ``_qr_crep``.

The inputs are small ones of the benchmark's kinds; its full-size inputs
give the same counts.  A change that adds or removes a factorization
changes a row here, and must say why.
"""

from collections import Counter

import numpy as np
import pytest

from quatinv import factor
from quatinv.apps import blur, build_blur, deblur_quaternion
from quatinv.geninv import (drazin, group_inverse, mat_index, outer_both,
                            outer_left, outer_right, outer_w_left,
                            outer_w_right, pinv, pinv_report, pinv_solve)
from quatinv.qcore import QMatrix, conj_transpose, random_qmat
from test_apps import rand_image
from test_geninv import block_diag_q, rand_rank_deficient

RNG = np.random.default_rng(2718)
# pinv's A: 6x4 of rank 3; prescribed's A, 6x4 of full rank, and W, 4x6 of
# rank 2; S and T of a square W = TAS of full rank, 3x3
A_DEF = rand_rank_deficient(6, 4, 3, RNG)
A, W = random_qmat(6, 4, RNG), rand_rank_deficient(4, 6, 2, RNG)
S, T = random_qmat(4, 3, RNG), random_qmat(3, 6, RNG)
SQUARE = random_qmat(5, 5, RNG)
# C (+) N for an invertible C and a nilpotent N of index 3 and 1
INDEX_3 = block_diag_q(random_qmat(3, 3, RNG),
                       QMatrix.from_real(np.eye(3, k=1)))
INDEX_1 = block_diag_q(random_qmat(3, 3, RNG), QMatrix.zeros(2, 2))
BLUR = build_blur(2, 8, sigma=3.0, r=1, s=3)
BLURRED = blur(BLUR, rand_image(16, 16, seed=2718))

# each route's kernels for one square solve, and for the pivoted QR of W
# then the square solve of G A F (crep's QR solves for R11^-1 R12 by LU)
SOLVE = {"direct": {"_solve_direct": 1}, "crep": {"solve": 1}}
QR_SOLVE = {"direct": {"_qr_direct": 1, "_solve_direct": 1},
            "crep": {"_qr_crep": 1, "solve": 2}}
# on direct the compact SVD bidiagonalizes and then takes LAPACK's SVD of
# the real bidiagonal, counted with the SVDs
QSVD = {"direct": {"_bidiagonalize": 1}, "crep": {}}

# name: (run(route), counts on both routes, counts on the route alone)
ROWS = {
    "pinv_report": (lambda route: pinv_report(A_DEF, route=route),
                    dict(unproved=4, svd=5), QSVD),
    "pinv_report_frd": (
        lambda route: pinv_report(A_DEF, method="frd", route=route),
        dict(unproved=1, svd=1, proved=1), QR_SOLVE),
    "pinv": (lambda route: pinv(A_DEF, route=route),
             dict(unproved=1, svd=2), QSVD),
    "pinv_frd": (lambda route: pinv(A_DEF, method="frd", route=route),
                 dict(proved=1), QR_SOLVE),
    "pinv_of_a_square_a": (lambda route: pinv(SQUARE, route=route),
                           dict(proved=1), SOLVE),
    "pinv_solve": (lambda route: pinv_solve(SQUARE, SQUARE, route=route),
                   dict(proved=1), SOLVE),
    "pinv_solve_of_a_rectangle": (
        lambda route: pinv_solve(A_DEF, A_DEF, route=route),
        dict(svd=1), QSVD),
    "outer_right": (lambda route: outer_right(A, S, T, route=route),
                    dict(proved=4), SOLVE),
    "outer_left": (lambda route: outer_left(A, T, S, route=route),
                   dict(proved=4), SOLVE),
    "outer_both": (
        lambda route: outer_both(A, conj_transpose(A), W, route=route),
        dict(proved=2, unproved=2, svd=3), QSVD),
    "outer_w_right": (lambda route: outer_w_right(A, W, route=route),
                      dict(proved=2), QR_SOLVE),
    "outer_w_left": (lambda route: outer_w_left(A, W, route=route),
                     dict(proved=2), QR_SOLVE),
    "drazin": (lambda route: drazin(INDEX_3, route=route),
               dict(unproved=1, svd=4, proved=1), QR_SOLVE),
    "drazin_of_an_invertible_a": (lambda route: drazin(SQUARE, route=route),
                                  dict(proved=1), SOLVE),
    "group_inverse": (lambda route: group_inverse(INDEX_1, route=route),
                      dict(unproved=1, svd=2, proved=1), QR_SOLVE),
    "group_inverse_of_an_invertible_a": (
        lambda route: group_inverse(SQUARE, route=route),
        dict(proved=1), SOLVE),
    "mat_index": (lambda route: mat_index(INDEX_3),
                  dict(unproved=1, svd=4), {"direct": {}, "crep": {}}),
    "deblur_restore": (
        lambda route: deblur_quaternion(BLUR, BLURRED, route=route),
        dict(proved=2), {"direct": {"_solve_direct": 2},
                         "crep": {"solve": 2}}),
}


def _named(name):
    return lambda *args, **kwargs: name


def counts(run, route, record):
    kinds = []
    record(factor._gram_proves_full_rank,
           lambda ok, c: "proved" if ok else "unproved", kinds, result=True)
    for fn in (np.linalg.svd, np.linalg.solve, factor._bidiagonalize,
               factor._qr_direct, factor._solve_direct, factor._qr_crep):
        record(fn, _named(fn.__name__), kinds)
    run(route)
    return Counter(kinds)


@pytest.mark.parametrize("name", sorted(ROWS))
@pytest.mark.parametrize("route", ["direct", "crep"])
def test_factorization_counts(name, route, record):
    run, both, own = ROWS[name]
    want = Counter(both) + Counter(own[route])
    assert counts(run, route, record) == want
