"""A catalogue of recorded faults, each of which the named tests must catch.

Every mutant is one literal replacement in one file under ``src/``: the
original snippet, which must occur exactly once in that file, and what
replaces it.  The runner copies ``src/`` to a temporary directory, applies
one mutant at a time to the copy, and runs the mutant's tests against it
with ``pytest -x``.  The run fails when a mutant survives (its tests pass),
when an original snippet no longer matches the source (a refactor must then
update the entry), when a named test no longer exists (its file is gone,
or it has no ``def`` of that name), or when the named tests do not pass on
the unmutated copy.  The checkout itself is never edited.

Run from anywhere, with the test dependencies installed::

    python tests/mutants.py
"""

from __future__ import annotations

import os
import re
import shutil
import subprocess
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


@dataclass(frozen=True)
class Mutant:
    name: str
    path: str  # relative to src/
    original: str
    replacement: str
    tests: tuple  # pytest node ids, relative to the repository root


MUTANTS = (
    Mutant(
        "gram-proof-without-rounding-shift",
        "quatinv/factor.py",
        "shift = (2 * m + 2 * n + 5) * _EPS + 0.5 * (m * _EPS) ** 2",
        "shift = 0.5 * (m * _EPS) ** 2",
        ("tests/test_factor.py::test_exactly_singular_squares_fail_the_full_rank_test",
         "tests/test_factor.py::test_exactly_singular_rectangles_fail_the_full_rank_test"),
    ),
    Mutant(
        "gram-proof-on-a-wide-representation",
        "quatinv/factor.py",
        "_gram_proves_full_rank(cs if m >= n else np.conj(cs.T))",
        "_gram_proves_full_rank(cs)",
        ("tests/test_factor.py::test_rank_of_a_full_rank_rectangular_input_runs_no_svd",
         "tests/test_factor.py::test_rectangular_rank_equals_the_svd_rule"),
    ),
    Mutant(
        "to-crep-without-negation",
        "quatinv/qcore.py",
        "    np.negative(lower_left, out=lower_left)\n",
        "",
        ("tests/test_qcore.py",),
    ),
    Mutant(
        "qr-norms-never-recomputed",
        "quatinv/factor.py",
        "    if stale.any():\n",
        "    if False:\n",
        ("tests/test_factor.py::test_norms_are_computed_again_only_at_the_start_and_when_stale",),
    ),
    Mutant(
        "qr-downdate-by-one-component",
        "quatinv/factor.py",
        "nrm -= np.abs(x1[0]) ** 2 + np.abs(x2[0]) ** 2",
        "nrm -= np.abs(x1[0]) ** 2",
        ("tests/test_factor.py::test_downdated_pivots_match_a_qr_that_recomputes_every_norm",),
    ),
    Mutant(
        "qr-stop-test-on-the-downdated-norm",
        "quatinv/factor.py",
        "        if big <= stop:\n",
        "        if math.sqrt(nrm[k + i]) <= stop:\n",
        ("tests/test_factor.py::test_stop_test_reads_the_exact_pivot_norm",),
    ),
    Mutant(
        "classify-range-against-t",
        "quatinv/geninv.py",
        "spaces = [(w == s, w == t) for s, t in pairs]",
        "spaces = [(w == t, w == t) for s, t in pairs]",
        ("tests/test_realrep.py",),
    ),
    Mutant(
        "classify-left-side-without-the-swap",
        "quatinv/geninv.py",
        'pairs.append((ranks["t"], ranks["s"]))',
        'pairs.append((ranks["s"], ranks["t"]))',
        ("tests/test_geninv.py::test_outer_both_sides_disagree_flag",
         "tests/test_realrep.py"),
    ),
    Mutant(
        "outer-left-generators-unswapped",
        "quatinv/geninv.py",
        'gens = (t, s) if side == "left" else (s, t)',
        "gens = (s, t)",
        ("tests/test_realrep.py::test_outer_inverse_matches_the_real_representation",
         "tests/test_geninv.py::test_outer_left_rank_condition_example"),
    ),
    Mutant(
        "index-walk-from-the-identity",
        "quatinv/geninv.py",
        "nxt = mm(p, b) if k else b",
        "nxt = mm(p if k else QMatrix.eye(a.nrows), b)",
        ("tests/test_geninv.py::test_index_walk_multiplies_no_identity",
         "tests/test_geninv.py::test_drazin_of_an_invertible_a_builds_no_identity"),
    ),
    Mutant(
        "own-takes-any-array",
        "quatinv/qcore.py",
        "        if not all(c.dtype == np.complex128 and c.flags.c_contiguous\n"
        "                   and c.flags.owndata for c in (q1, q2)):\n"
        "            return cls(q1, q2)\n",
        "",
        ("tests/test_qcore.py::test_owned_results_are_read_only_and_c_contiguous",),
    ),
    Mutant(
        "w-inverse-multiplies-g-equal-to-i",
        "quatinv/geninv.py",
        "g = fact.g if r < w.ncols else None",
        "g = fact.g",
        ("tests/test_geninv.py::test_w_inverses_multiply_no_identity",),
    ),
    Mutant(
        "restore-applies-t1-for-its-pinv",
        "quatinv/apps/deblur.py",
        "_along_q(t1_inv, c.view(float))",
        "_along_q(op.t1_blur, c.view(float))",
        ("tests/test_apps.py::test_deblur_agrees_with_the_general_solve",),
    ),
    Mutant(
        "route-check-accepts-any-name",
        "quatinv/qcore.py",
        "    if route not in _ROUTES:\n",
        "    if False:\n",
        ("tests/test_factor.py::test_unknown_route_raises_on_every_shape",
         "tests/test_geninv.py::test_unknown_route_is_rejected_before_any_rank"),
    ),
    Mutant(
        "crep-qr-reads-r2-without-its-conjugate",
        "quatinv/factor.py",
        "-np.conj(c[m:m + r])",
        "-c[m:m + r]",
        ("tests/test_factor.py::test_frd_reconstructs_and_has_full_rank_factors",
         "tests/test_factor.py::test_frd_routes_agree"),
    ),
    Mutant(
        "ssim-block-offset-one-row-short",
        "quatinv/apps/deblur.py",
        "(s0, c * s1, s2, s1)",
        "(s0, (c - 1) * s1, s2, s1)",
        ("tests/test_apps.py::test_metrics_ssim_matches_the_2d_window[42x74]",
         "tests/test_apps.py::test_metrics_ssim_matches_the_2d_window[74x42]",
         "tests/test_apps.py::test_metrics_ssim_matches_the_2d_window[139x40]",
         "tests/test_apps.py::test_metrics_ssim_matches_the_2d_window[266x30]"),
    ),
)


def snippet_errors() -> list:
    """One message for each mutant whose original does not occur exactly
    once in its file under src/."""
    errors = []
    for mut in MUTANTS:
        count = (ROOT / "src" / mut.path).read_text().count(mut.original)
        if count != 1:
            errors.append(f"{mut.name}: the original occurs {count} times "
                          f"in src/{mut.path}, not once")
    return errors


def missing_tests(mutants=MUTANTS) -> list:
    """One message for each test id a mutant names that does not resolve:
    its file does not exist, or a ``::name`` in it has no ``def name`` (or
    ``class name``) there."""
    errors = []
    for mut in mutants:
        for test in mut.tests:
            path, *names = test.split("::")
            file = ROOT / path
            if not file.is_file():
                errors.append(f"{mut.name}: no file {path}")
                continue
            text = file.read_text()
            for name in names:
                name = name.split("[")[0]
                if not re.search(rf"^\s*(def|class) {re.escape(name)}\b", text,
                                 re.MULTILINE):
                    errors.append(f"{mut.name}: no test {name} in {path}")
    return errors


def _run_tests(src: Path, module: str, tests) -> int:
    # pytest's exit code for tests run against the quatinv under src; the
    # copy must shadow any installed quatinv, or the run would test the
    # checkout
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")
    where = subprocess.run(
        [sys.executable, "-c", f"import {module} as m; print(m.__file__)"],
        env=env, cwd=ROOT, capture_output=True, text=True, check=True)
    if not Path(where.stdout.strip()).is_relative_to(src):
        raise RuntimeError(f"{module} loads from {where.stdout.strip()}, "
                           f"not from the copy under {src}")
    cmd = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
           *tests]
    return subprocess.run(cmd, env=env, cwd=ROOT, stdout=subprocess.DEVNULL,
                          stderr=subprocess.DEVNULL).returncode


def _module(path: str) -> str:
    return path.removesuffix(".py").replace("/", ".")


def main() -> int:
    errors = snippet_errors() + missing_tests()
    if errors:
        print("\n".join(errors))
        return 1
    failed = []
    with tempfile.TemporaryDirectory() as tmp:
        src = Path(tmp) / "src"
        ignore = shutil.ignore_patterns("__pycache__", "*.egg-info")
        shutil.copytree(ROOT / "src", src, ignore=ignore)
        tests = sorted({t for m in MUTANTS for t in m.tests})
        code = _run_tests(src, _module(MUTANTS[0].path), tests)
        if code != 0:
            print(f"the named tests do not pass unmutated (pytest exit {code})")
            return 1
        for mut in MUTANTS:
            target = src / mut.path
            pristine = target.read_text()
            target.write_text(pristine.replace(mut.original, mut.replacement))
            try:
                code = _run_tests(src, _module(mut.path), mut.tests)
            finally:
                target.write_text(pristine)
            # pytest exits 1 when a test failed; 0 means the mutant
            # survived, anything else that the run itself broke
            verdict = {0: "SURVIVED", 1: "killed"}.get(
                code, f"ERROR (pytest exit {code})")
            print(f"{mut.name}: {verdict}")
            if code != 1:
                failed.append(mut.name)
    if failed:
        print(f"{len(failed)} of {len(MUTANTS)} mutants not killed: "
              f"{', '.join(failed)}")
        return 1
    print(f"all {len(MUTANTS)} mutants killed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
