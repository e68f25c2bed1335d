"""The index walk against an exact oracle.

The inputs are A = P (C (+) J_k) P^-1 with integer components (see
``qexact.similar_jordan``), so the index k and rank(A^k), which is the rank
of the Drazin inverse, are known exactly.  On the family with cond(P^C) <=
KAPPA_MAX, ``mat_index`` and the rank of ``drazin``'s X must equal them on
both routes.  Inputs outside it, on which the walk is known to go wrong,
stay as strict-xfail reproducers.
"""

from fractions import Fraction
from functools import lru_cache

import numpy as np
import pytest

import qexact
from quatinv.factor import rank
from quatinv.cli import main
from quatinv.geninv import InverseExistenceError, _spectral, drazin, mat_index
from quatinv.qcore import QMatrix, fro_norm, mat_mul, to_crep, write_qmat

# the family's conditioning bound.  Over seeds 0-199 (54 inputs inside it)
# nothing inside it went wrong; the best-conditioned input that did had
# cond(P^C) = 42
KAPPA_MAX = 30.0
SEEDS = range(40)


@lru_cache(maxsize=None)
def case(seed):
    """(A, k, rank(A^k), cond(P^C)) for the seed's input, of order n <= 6."""
    rng = np.random.default_rng(seed)
    k = int(rng.integers(0, 4))
    n = int(rng.integers(k + 1, 7))
    a, p = qexact.similar_jordan(rng, n, k)
    index, core = qexact.index_and_core_rank(a)
    assert index == k and core == n - k  # the construction, checked exactly
    kappa = float(np.linalg.cond(to_crep(qexact.to_qmatrix(p))))
    return qexact.to_qmatrix(a), index, core, kappa


def walk_errors(seed, route):
    a, index, core, _ = case(seed)
    errors = []
    if mat_index(a) != index:
        errors.append(f"mat_index {mat_index(a)} != {index}")
    x = drazin(a, route=route)
    if rank(x) != core:
        errors.append(f"rank(X) {rank(x)} != {core}")
    return errors


def test_the_oracle_ranks_exactly():
    # rank(N) < rank(N + E) for a nilpotent N and a perturbation E of one
    # part in 2^60, which no floating-point rank resolves
    tiny = Fraction(1, 2 ** 60)
    n = qexact.block_diag([], 3)
    assert qexact.rank(n) == 2
    n[2][0] = (tiny,) + qexact.ZERO[1:]
    assert qexact.rank(n) == 3
    assert qexact.index_and_core_rank(qexact.block_diag([[qexact.ONE]], 3)) \
        == (3, 1)


def test_the_family_holds_every_index_from_0_to_3():
    inside = [case(seed)[1] for seed in SEEDS if case(seed)[3] <= KAPPA_MAX]
    assert sorted(set(inside)) == [0, 1, 2, 3]


@pytest.mark.parametrize("route", ["direct", "crep"])
def test_index_walk_matches_the_exact_oracle(route):
    wrong = {seed: walk_errors(seed, route) for seed in SEEDS
             if case(seed)[3] <= KAPPA_MAX}
    assert {seed: e for seed, e in wrong.items() if e} == {}


# (seed, route) of the inputs outside the family on which the walk goes
# wrong: mat_index misses the index (13, 17, 18, 31), drazin raises
# InverseExistenceError (0, 7, 22, 26, 28, 31, 33, 39 on crep, 18 on crep)
# or returns an X of the wrong rank (18 on direct), which its check misses
OUTSIDE_WRONG = [
    (0, "crep"), (7, "crep"), (13, "direct"), (13, "crep"),
    (17, "direct"), (17, "crep"), (18, "direct"), (18, "crep"),
    (22, "direct"), (26, "crep"), (28, "crep"), (31, "direct"),
    (31, "crep"), (33, "direct"), (39, "crep"),
]


@pytest.mark.xfail(strict=True, reason="index walk by powers outside the "
                   "family's conditioning bound (ROADMAP items 6-7)")
@pytest.mark.parametrize("seed,route", OUTSIDE_WRONG)
def test_index_walk_outside_the_family(seed, route):
    assert case(seed)[3] > KAPPA_MAX
    assert walk_errors(seed, route) == []


@pytest.mark.parametrize("route", ["direct", "crep"])
def test_walk_stops_when_the_computed_rank_rises(route):
    # order 5, index 3, rank(A^3) = 2, cond(P^C) = 82: on crep the computed
    # rank of the normalized powers rises from one power to the next, and a
    # walk that stops only on equal ranks raised RuntimeError
    a, index, core, _ = case(886)
    k, p, x, _ = _spectral(a, route)
    assert k == index and rank(p) == core and rank(x) == core
    ak = QMatrix.eye(a.nrows)
    for _ in range(k):
        ak = mat_mul(ak, a)
    assert fro_norm(mat_mul(mat_mul(ak, a), x) - ak) <= 1.1e-10 * fro_norm(ak)


# (seed, route) of the inputs, among seeds 0-199, on which the walk returned
# a wrong X that drazin's check rejects, with g from 2.6e-3 to 5.5e-2; on
# every right X of those seeds g <= 1.6e-12
REJECTED = [(55, "direct"), (171, "direct"), (86, "crep"), (138, "crep")]


@pytest.mark.parametrize("seed,route", REJECTED)
def test_drazin_rejects_an_x_that_misses_its_equations(seed, route):
    assert case(seed)[3] > KAPPA_MAX
    with pytest.raises(InverseExistenceError, match=r"by g = \S+ > sqrt"):
        drazin(case(seed)[0], route=route)


def test_cli_drazin_exits_1_with_the_rejection(tmp_path, capsys):
    path = tmp_path / "A.qmat"
    write_qmat(path, case(55)[0])
    assert main(["drazin", "--in", str(path), "--route", "direct"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("drazin: Drazin inverse rejected: ")
    assert err.count("\n") == 1
