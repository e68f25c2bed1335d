import argparse
import ast
import importlib
import itertools
import json
import re
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from quatinv.cli import build_parser, main
from quatinv.geninv import pinv
from quatinv.qcore import (
    QMatrix,
    conj_transpose,
    fro_norm,
    mat_mul,
    random_qmat,
    read_qmat,
    write_qmat,
)
from quatinv.apps import ColorImage, read_ppm, write_ppm
from test_factor import svd_rule_rank


@pytest.fixture
def rand_mat(tmp_path):
    rng = np.random.default_rng(0)
    a = random_qmat(6, 4, rng)
    path = tmp_path / "A.qmat"
    write_qmat(path, a)
    return a, str(path)


def load_json(path):
    with open(path) as fh:
        return json.load(fh)


def test_pinv_end_to_end(rand_mat, tmp_path):
    a, a_path = rand_mat
    out = tmp_path / "X.qmat"
    rpt = tmp_path / "r.json"
    code = main(["pinv", "--in", a_path, "--out", str(out),
                 "--json", str(rpt)])
    assert code == 0
    report = load_json(rpt)
    assert set(report["residuals"]) == {"one", "outer", "p3", "p4"}
    assert all(v <= 1e-9 for v in report["residuals"].values())
    assert report["within_tol"] is True
    x = read_qmat(out)
    assert x.shape == (4, 6)
    # written matrix re-reads bitwise
    again = tmp_path / "X2.qmat"
    write_qmat(again, x)
    assert out.read_bytes() == again.read_bytes()


def test_pinv_frd_crep_realization(rand_mat, tmp_path):
    a, a_path = rand_mat
    rpt = tmp_path / "r.json"
    code = main(["pinv", "--in", a_path, "--method", "frd",
                 "--route", "crep", "--json", str(rpt)])
    assert code == 0
    report = load_json(rpt)
    assert report["method"] == "frd" and report["route"] == "crep"
    assert all(v <= 1e-9 for v in report["residuals"].values())


def test_outer_classification_flags(tmp_path):
    rng = np.random.default_rng(1)
    a = random_qmat(5, 5, rng)
    astar = mat_mul(QMatrix.eye(5), a)  # any invertible generator works here
    paths = {}
    for name, m in [("A", a), ("S", QMatrix.eye(5)), ("T", QMatrix.eye(5))]:
        p = tmp_path / f"{name}.qmat"
        write_qmat(p, m)
        paths[name] = str(p)
    rpt = tmp_path / "r.json"
    code = main(["outer", "--in", paths["A"], "--s", paths["S"],
                 "--t", paths["T"], "--route", "crep", "--json", str(rpt)])
    assert code == 0
    report = load_json(rpt)
    cls = report["classification"]
    assert cls["is_one_inverse"] and cls["is_12_unique"]
    assert report["ranks"]["nu"] == 5


def write_inputs(tmp_path, **mats):
    paths = {}
    for name, m in mats.items():
        paths[name] = str(tmp_path / f"{name}.qmat")
        write_qmat(paths[name], m)
    return paths


def residual_command(command, tmp_path):
    a = random_qmat(6, 4, np.random.default_rng(7))
    if command == "pinv":
        p = write_inputs(tmp_path, A=a)
        return ["pinv", "--in", p["A"]]
    if command == "outer":
        p = write_inputs(tmp_path, A=a, S=QMatrix.eye(4), T=QMatrix.eye(6))
        return ["outer", "--in", p["A"], "--s", p["S"], "--t", p["T"]]
    p = write_inputs(tmp_path, A=a, W=conj_transpose(a))
    return ["outer-w", "--in", p["A"], "--w", p["W"]]


def scaled_residuals(residuals, a, x):
    # the residuals --tol judges: one/||A|| and outer/||X||, p3 and p4 as
    # they are
    norms = {"one": fro_norm(a), "outer": fro_norm(x)}
    return {k: v / norms[k] if norms.get(k) else v
            for k, v in residuals.items()}


@pytest.mark.parametrize("command", ["pinv", "outer", "outer-w"])
@pytest.mark.parametrize("tol", [1e-300, None])
def test_residual_above_tol_warns_on_stderr(command, tol, tmp_path, capsys):
    args = residual_command(command, tmp_path)
    rpt, out = tmp_path / "r.json", tmp_path / "X.qmat"
    tol_args = [] if tol is None else ["--tol", str(tol)]
    assert main(args + tol_args + ["--json", str(rpt), "--out", str(out)]) == 0
    report = load_json(rpt)
    warnings = [line for line in capsys.readouterr().err.splitlines()
                if "warning:" in line]
    scaled = scaled_residuals(report["residuals"], read_qmat(args[2]),
                              read_qmat(out))
    worst = max(scaled, key=scaled.get)
    if tol is None:  # the default 1e-8 holds
        assert report["within_tol"] is True
        assert warnings == []
    else:
        assert report["within_tol"] is False
        assert len(warnings) == 1
        assert f"worst scaled residual {worst} = {scaled[worst]:.3e}" \
            in warnings[0]
        assert "--tol 1e-300" in warnings[0]


def test_outer_w_existence_failure_exits_1(tmp_path):
    nilp = QMatrix(np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex),
                   np.zeros((2, 2), dtype=complex))
    a_path = tmp_path / "N.qmat"
    w_path = tmp_path / "W.qmat"
    write_qmat(a_path, nilp)
    write_qmat(w_path, QMatrix.eye(2))
    rpt = tmp_path / "diag.json"
    code = main(["outer-w", "--in", str(a_path), "--w", str(w_path),
                 "--json", str(rpt)])
    assert code == 1
    report = load_json(rpt)
    assert report["exists"] is False
    assert "singular" in report["reason"]


@pytest.mark.parametrize("case", ["pinv-direct", "pinv-crep", "outer-w"])
def test_missing_inverse_exits_1_with_its_reason_alone(case, tmp_path,
                                                       capsys):
    # the zero placeholder X of an inverse that does not exist is neither
    # written nor judged against --tol: stderr carries the reason alone
    if case == "outer-w":
        p = write_inputs(tmp_path, A=QMatrix.from_real(np.diag([1.0, 0.0])),
                         W=QMatrix.from_real(np.diag([0.0, 1.0])))
        argv = ["outer-w", "--in", p["A"], "--w", p["W"]]
    else:
        # 5x4 A = U diag(1, 1, 1e-10) V* with orthonormal U and V: A* has
        # rank 3, but G*A*F of its factorization falls below the rank cut
        from test_factor import rand_unitary

        rng = np.random.default_rng(5)
        u, v = rand_unitary(5, rng), rand_unitary(4, rng)
        u = QMatrix(u.q1[:, :3], u.q2[:, :3])
        v = QMatrix(v.q1[:, :3], v.q2[:, :3])
        sigma = QMatrix.from_real(np.diag([1.0, 1.0, 1e-10]))
        p = write_inputs(tmp_path, A=mat_mul(mat_mul(u, sigma),
                                             conj_transpose(v)))
        argv = ["pinv", "--in", p["A"], "--method", "frd",
                "--route", case.split("-")[1]]
    rpt, out = tmp_path / "r.json", tmp_path / "X.qmat"
    assert main(argv + ["--json", str(rpt), "--out", str(out)]) == 1
    report = load_json(rpt)
    assert report["exists"] is False and report["within_tol"] is False
    assert "G*A*F is singular" in report["reason"]
    assert not out.exists()
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"{argv[0]}: {report['reason']}\n"


@pytest.mark.parametrize("command", ["group", "outer-w", "rank", "pinv"])
def test_unwritable_json_exits_2_on_one_line(command, tmp_path, capsys):
    # a --json that cannot be written is an exit 2 with one stderr line,
    # also after an inverse that does not exist: the group inverse of the
    # index-2 nilpotent block, and outer-w with a singular G*A*F
    nilp = QMatrix.from_real(np.array([[0.0, 1.0], [0.0, 0.0]]))
    if command == "outer-w":
        p = write_inputs(tmp_path, A=QMatrix.from_real(np.diag([1.0, 0.0])),
                         W=QMatrix.from_real(np.diag([0.0, 1.0])))
        argv = ["outer-w", "--in", p["A"], "--w", p["W"]]
    else:
        a = nilp if command == "group" else random_qmat(
            6, 4, np.random.default_rng(7))
        argv = [command, "--in", write_inputs(tmp_path, A=a)["A"]]
    rpt = tmp_path / "missing_dir" / "r.json"
    assert main(argv + ["--json", str(rpt)]) == 2
    out, err = capsys.readouterr()
    assert out == "" and not rpt.exists()
    assert err.count("\n") == 1 and "Traceback" not in err
    assert err.startswith(f"{command}: error: ")


def test_drazin_and_group_on_block_example(tmp_path):
    # invertible 1x1 block (+) nilpotent 2x2 Jordan block -> index 2
    q1 = np.diag([2.0, 0.0, 0.0]).astype(complex)
    q1[1, 2] = 1.0
    a = QMatrix(q1, np.zeros((3, 3), complex))
    a_path = tmp_path / "A.qmat"
    write_qmat(a_path, a)
    rpt = tmp_path / "d.json"
    out = tmp_path / "AD.qmat"
    code = main(["drazin", "--in", str(a_path), "--out", str(out),
                 "--json", str(rpt)])
    assert code == 0
    report = load_json(rpt)
    assert report["index"] == 2
    assert all(v <= 1e-10 for v in report["residuals"].values())
    x = read_qmat(out)
    assert abs(x.q1[0, 0] - 0.5) <= 1e-12

    code = main(["group", "--in", str(a_path), "--json", str(rpt)])
    assert code == 1  # index 2 > 1: no group inverse
    assert load_json(rpt)["exists"] is False


def test_drazin_power_residual_is_relative(tmp_path):
    # "power" is ||A A^k X - A^k|| on A^k rescaled to unit Frobenius norm,
    # so it does not grow with the scale of A (here ||A^2|| ~ 1e12)
    rng = np.random.default_rng(3)
    q1 = np.diag([2.0, 0.0, 0.0]).astype(complex)
    q1[1, 2] = 1.0
    p = random_qmat(3, 3, rng) + QMatrix.eye(3) * 3.0
    a = mat_mul(mat_mul(p, QMatrix(q1, np.zeros((3, 3), complex))), pinv(p))
    a_path = tmp_path / "A.qmat"
    write_qmat(a_path, a * 1e6)
    rpt = tmp_path / "d.json"
    assert main(["drazin", "--in", str(a_path), "--json", str(rpt)]) == 0
    report = load_json(rpt)
    assert report["index"] == 2
    assert report["residuals"]["power"] <= 1e-12


def test_group_on_invertible(tmp_path):
    rng = np.random.default_rng(2)
    a = random_qmat(3, 3, rng)
    a_path = tmp_path / "A.qmat"
    write_qmat(a_path, a)
    rpt = tmp_path / "g.json"
    code = main(["group", "--in", str(a_path), "--json", str(rpt)])
    assert code == 0
    assert all(v <= 1e-9 for v in load_json(rpt)["residuals"].values())


def test_rank_frd_svd_smoke(tmp_path):
    rng = np.random.default_rng(3)
    a = mat_mul(random_qmat(6, 3, rng), random_qmat(3, 5, rng))
    a_path = tmp_path / "A.qmat"
    write_qmat(a_path, a)
    rpt = tmp_path / "r.json"

    assert main(["rank", "--in", str(a_path), "--json", str(rpt)]) == 0
    assert load_json(rpt)["rank"] == 3

    prefix = str(tmp_path / "fact")
    assert main(["frd", "--in", str(a_path), "--out", prefix,
                 "--json", str(rpt)]) == 0
    rep = load_json(rpt)
    assert rep["rank"] == 3 and rep["reconstruction_residual"] <= 1e-10
    f = read_qmat(prefix + ".F.qmat")
    g = read_qmat(prefix + ".G.qmat")
    assert fro_norm(mat_mul(f, g) - a) <= 1e-10

    assert main(["svd", "--in", str(a_path), "--route", "crep",
                 "--out", prefix, "--json", str(rpt)]) == 0
    rep = load_json(rpt)
    assert rep["rank"] == 3
    assert len(rep["sigma"]) == 5
    u = read_qmat(prefix + ".U.qmat")
    assert u.shape == (6, 6)


def test_usage_errors_exit_2(tmp_path, capsys):
    assert main([]) == 2
    assert main(["pinv"]) == 2                       # missing --in
    assert main(["nonsense"]) == 2
    missing = str(tmp_path / "missing.qmat")
    assert main(["rank", "--in", missing]) == 2
    bad = tmp_path / "bad.qmat"
    bad.write_text("not a matrix\n")
    assert main(["rank", "--in", str(bad)]) == 2
    capsys.readouterr()


def test_non_finite_input_exits_2(tmp_path, capsys):
    bad = tmp_path / "nan.qmat"
    bad.write_text("QMAT 1 2\n1 0 0 0\n0 nan 0 0\n")
    for cmd in ("rank", "svd", "pinv"):
        assert main([cmd, "--in", str(bad)]) == 2
        err = capsys.readouterr().err
        assert "entry 1" in err and "non-finite" in err


def test_runtime_error_exits_2_without_traceback(tmp_path, monkeypatch,
                                                 capsys):
    import quatinv.cli as cli

    def unstable(a, route, group=False):
        raise RuntimeError("rank sequence failed to stabilize")

    monkeypatch.setattr(cli, "_spectral", unstable)
    path = tmp_path / "A.qmat"
    write_qmat(path, random_qmat(3, 3, np.random.default_rng(5)))
    assert main(["drazin", "--in", str(path)]) == 2
    err = capsys.readouterr().err
    assert err == "drazin: error: rank sequence failed to stabilize\n"


HUGE = "QMAT 2 2\n" + "\n".join(
    " ".join(f"{'-' if (i + j) % 3 == 0 else ''}1e300" for j in range(4))
    for i in range(4)) + "\n"


@pytest.mark.parametrize("argv", [
    ["outer", "--s", "{a}", "--t", "{a}"], ["outer-w", "--w", "{a}"],
], ids=lambda argv: " ".join(arg for arg in argv if arg != "{a}"))
def test_overflow_exits_2_on_one_line(argv, tmp_path, capsys):
    # finite entries near 1e300 overflow inside the products
    path = tmp_path / "huge.qmat"
    path.write_text(HUGE)
    argv = [arg.format(a=path) for arg in argv]
    assert main(argv + ["--in", str(path), "--json", str(tmp_path / "r")]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.count("\n") == 1
    assert err.startswith(f"{argv[0]}: error: ")
    assert "overflow" in err or "non-finite" in err


@pytest.mark.parametrize("command", ["frd", "svd"])
def test_huge_input_decomposes_on_both_routes(command, tmp_path, capsys):
    # the factorizations alone need no squares of the entries beyond what
    # scaling by a power of two keeps finite, so both routes succeed and
    # agree on the rank
    path = tmp_path / "huge.qmat"
    path.write_text(HUGE)
    ranks = {}
    for route in ("direct", "crep"):
        rpt = tmp_path / f"{route}.json"
        assert main([command, "--in", str(path), "--route", route,
                     "--json", str(rpt)]) == 0
        out, err = capsys.readouterr()
        assert err == ""
        ranks[route] = load_json(rpt)["rank"]
        assert f"rank {ranks[route]}" in out
    assert ranks == {"direct": 2, "crep": 2}


TINY = HUGE.replace("1e300", "1e-300")


@pytest.mark.parametrize("text", [HUGE, TINY], ids=["1e300", "1e-300"])
def test_rank_of_extreme_square_input(text, tmp_path, capsys):
    # the full-rank test forms a Gram matrix, whose entries square A's; it
    # runs on A scaled by a power of two, so under the CLI's errstate
    # neither overflow nor underflow stops it
    path = tmp_path / "a.qmat"
    path.write_text(text)
    rpt = tmp_path / "r.json"
    assert main(["rank", "--in", str(path), "--json", str(rpt)]) == 0
    assert capsys.readouterr().err == ""
    assert load_json(rpt)["rank"] == 2


@pytest.mark.parametrize("scale", [1e300, 1e-300], ids=["1e300", "1e-300"])
@pytest.mark.parametrize("m, n, r", [(5, 3, 3), (5, 3, 2), (3, 5, 3),
                                     (3, 5, 2)],
                         ids=["tall", "tall-deficient", "wide",
                              "wide-deficient"])
def test_rank_of_extreme_rectangular_input(m, n, r, scale, tmp_path,
                                           capsys):
    # rectangular inputs take the full-rank test too, on the Gram matrix of
    # the tall orientation of A^C scaled by a power of two; a short rank
    # then falls through to the SVD, and both print the SVD rule's rank
    rng = np.random.default_rng(10 * m + r)
    path = tmp_path / "a.qmat"
    write_qmat(path, mat_mul(random_qmat(m, r, rng),
                             random_qmat(r, n, rng)) * scale)
    want = svd_rule_rank(read_qmat(path))
    assert want == r
    rpt = tmp_path / "r.json"
    assert main(["rank", "--in", str(path), "--json", str(rpt)]) == 0
    out, err = capsys.readouterr()
    assert err == ""
    assert out == f"rank {want}\n"
    assert load_json(rpt)["rank"] == want


@pytest.mark.parametrize("index", [0, 1])
@pytest.mark.parametrize("op", ["drazin", "group"])
@pytest.mark.parametrize("route", ["direct", "crep"])
def test_spectral_cli_reports_the_checks_residuals(tmp_path, record, route,
                                                   op, index):
    # the residuals are those the check of X formed, with the route's own
    # product: past the library call, drazin forms no product for index 1
    # and the three of the residuals for index 0 (which the walk does not
    # check), and group one more, (AX) A
    import quatinv.geninv as geninv
    import quatinv.qcore as qcore

    rng = np.random.default_rng(12)
    p = random_qmat(4, 4, rng) + QMatrix.eye(4) * 3.0
    d = np.diag([2.0, 1.0, 0.5, 0.0 if index else 3.0]).astype(complex)
    a = mat_mul(mat_mul(p, QMatrix(d, np.zeros((4, 4), complex))), pinv(p))
    path = tmp_path / "A.qmat"
    write_qmat(path, a)
    products = record(qcore.mat_mul, lambda x, y: "direct")
    record(qcore.crep_mul, lambda x, y: "crep", products)
    ctor = geninv.group_inverse if op == "group" else geninv.drazin
    ctor(read_qmat(path), route=route)
    walk = len(products)
    products.clear()
    rpt = tmp_path / "r.json"
    assert main([op, "--in", str(path), "--route", route,
                 "--json", str(rpt)]) == 0
    assert products == [route] * (walk + 3 * (1 - index) + (op == "group"))
    report = load_json(rpt)
    assert report["index"] == index
    assert max(report["residuals"].values()) <= 1e-12


def test_drazin_of_an_invertible_input_reports_index_zero(tmp_path):
    # A^0 = I is built for the power residual alone
    path = tmp_path / "a.qmat"
    write_qmat(path, random_qmat(4, 4, np.random.default_rng(8)))
    rpt = tmp_path / "r.json"
    assert main(["drazin", "--in", str(path), "--json", str(rpt)]) == 0
    report = load_json(rpt)
    assert report["index"] == 0
    assert report["residuals"]["power"] <= 1e-12


@pytest.mark.parametrize("argv", [
    ["pinv"], ["pinv", "--method", "frd"], ["drazin"], ["group"],
], ids=" ".join)
def test_huge_input_inverts_on_both_routes(argv, tmp_path, capsys):
    # pinv by "svd" inverts A itself by one square solve, "frd" runs on A
    # scaled by a power of two, and the index walk normalizes by a
    # scale-safe norm, so X = A^-1 on both routes
    path = tmp_path / "huge.qmat"
    path.write_text(HUGE)
    a = read_qmat(path)
    for route in ("direct", "crep"):
        out = tmp_path / f"{route}.qmat"
        assert main(argv + ["--in", str(path), "--route", route,
                            "--out", str(out), "--json",
                            str(tmp_path / "r")]) == 0
        _, err = capsys.readouterr()
        # --tol judges one and outer relative to ||A|| and ||X||, so a
        # correct inverse of a 1e300 matrix is within it
        assert err == ""
        if argv[0] == "pinv":
            assert load_json(tmp_path / "r")["within_tol"] is True
        ax = mat_mul(a, read_qmat(out))
        assert fro_norm(ax - QMatrix.eye(2)) <= 1e-13


def test_overflow_in_the_console_prints_no_warning(tmp_path):
    path = tmp_path / "huge.qmat"
    path.write_text(HUGE)
    proc = subprocess.run(
        [sys.executable, "-m", "quatinv.cli", "outer", "--in", str(path),
         "--s", str(path), "--t", str(path)],
        capture_output=True, text=True)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr == ("outer: error: floating-point overflow or invalid "
                           "value (overflow encountered in matmul)\n")


# the shared flags each subcommand reads; every other one is refused
FLAGS_READ = {
    "pinv": {"--route", "--tol", "--out", "--json"},
    "outer": {"--route", "--tol", "--out", "--json"},
    "outer-w": {"--route", "--tol", "--out", "--json"},
    "drazin": {"--route", "--out", "--json"},
    "group": {"--route", "--out", "--json"},
    "frd": {"--route", "--out", "--json"},
    "svd": {"--route", "--out", "--json"},
    "rank": {"--json"},
    "deblur": {"--route", "--out", "--json"},
    "lorenz-filter": {"--route", "--seed", "--out", "--json"},
}
SHARED_FLAGS = {"--route": "crep", "--seed": "1", "--tol": "0.001",
                "--out": "o", "--json": "j"}
REQUIRED_ARGS = {
    "outer": ["--in", "A", "--s", "S", "--t", "T"],
    "outer-w": ["--in", "A", "--w", "W"],
    "deblur": ["--image", "I", "--p", "2", "--q", "8"],
    "lorenz-filter": [],
}


@pytest.mark.parametrize("command", sorted(FLAGS_READ))
def test_subcommand_takes_only_the_flags_it_reads(command, capsys):
    parser = build_parser()
    base = [command] + REQUIRED_ARGS.get(command, ["--in", "A"])
    for flag, value in SHARED_FLAGS.items():
        if flag in FLAGS_READ[command]:
            args = parser.parse_args(base + [flag, value])
            assert str(getattr(args, flag[2:])) == value
        else:
            with pytest.raises(SystemExit) as exc:
                parser.parse_args(base + [flag, value])
            assert exc.value.code == 2
    capsys.readouterr()


def shared_flags_by_subcommand():
    """{subcommand: the shared flags its parser accepts} from build_parser."""
    parser = build_parser()
    sub = next(action for action in parser._actions
               if isinstance(action, argparse._SubParsersAction))
    return {name: set(p._option_string_actions) & set(SHARED_FLAGS)
            for name, p in sub.choices.items()}


def marked_flags(header, rows):
    """{subcommand: flags marked in its row} of a shared-flag table."""
    flags = [cell.strip("`") for cell in header[1:]]
    assert set(flags) == set(SHARED_FLAGS)
    table = {}
    for cells in rows:
        for name in cells[0].replace("`", "").split(", "):
            table[name] = {flag for flag, cell in zip(flags, cells[1:])
                           if cell}
    return table


README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_flag_table_matches_the_parser():
    lines = README.read_text(encoding="utf-8").splitlines()
    first = next(i for i, line in enumerate(lines)
                 if line.startswith("| subcommand |"))
    cells = [[cell.strip() for cell in line.strip("|").split("|")]
             for line in itertools.takewhile(lambda line: line.startswith("|"),
                                             lines[first:])]
    # cells[1] is the "---" rule under the header
    table = marked_flags(cells[0], cells[2:])
    assert table == shared_flags_by_subcommand()


def test_docstring_flag_table_matches_the_parser():
    import quatinv.cli as cli

    lines = cli.__doc__.splitlines()
    rules = [i for i, line in enumerate(lines) if line.strip().startswith("=")]
    # a simple table's columns begin where the runs of "=" begin
    starts = [m.start() for m in re.finditer("=+", lines[rules[0]])]

    def cut(line):
        return [line[a:b].strip() for a, b in zip(starts, starts[1:] + [None])]

    table = marked_flags(cut(lines[rules[0] + 1]),
                         [cut(line) for line in lines[rules[1] + 1:rules[2]]])
    assert table == shared_flags_by_subcommand()


def test_readme_python_examples_run(capsys):
    # every python block of README.md runs as written, so a change of the
    # library's API cannot leave the tour stale
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(
        encoding="utf-8"), flags=re.S | re.M)
    assert blocks
    for block in blocks:
        exec(compile(block, str(README), "exec"), {})
    assert "'p3'" in capsys.readouterr().out


def test_readme_cli_lines_parse():
    # every quatinv line of README.md's sh blocks, with its backslash
    # continuations joined, parses as written, so a removed flag cannot
    # leave the tour stale
    blocks = re.findall(r"^```sh\n(.*?)^```", README.read_text(
        encoding="utf-8"), flags=re.S | re.M)
    lines = [line for block in blocks
             for line in block.replace("\\\n", " ").splitlines()
             if line.startswith("quatinv ")]
    assert len(lines) >= 9
    parser = build_parser()
    for line in lines:
        try:
            parser.parse_args(shlex.split(line, comments=True)[1:])
        except SystemExit:
            pytest.fail(f"README line does not parse: {line}")


@pytest.mark.parametrize("argv,named", [
    (["bench", "--suite", "pinv_all4"], "'bench'"),
    (["rank", "--in", "A", "--route", "crep"], "--route"),
    (["pinv", "--in", "A", "--seed", "1"], "--seed"),
    (["drazin", "--in", "A", "--tol", "1e-3"], "--tol"),
])
def test_unread_flag_exits_2_on_one_line(argv, named, rand_mat, capsys):
    # A names a readable matrix, so only the refused flag can fail the run
    argv = [rand_mat[1] if tok == "A" else tok for tok in argv]
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert len(err.splitlines()) == 1 and named in err
    assert "Traceback" not in err


def test_help_exits_0(capsys):
    assert main(["--help"]) == 0
    capsys.readouterr()


def test_deblur_cli(tmp_path):
    rng = np.random.default_rng(4)
    img = ColorImage(*rng.uniform(0.1, 0.9, size=(3, 16, 16)))
    ppm = tmp_path / "in.ppm"
    write_ppm(ppm, img)
    rpt = tmp_path / "m.json"
    out = tmp_path / "restored.ppm"
    code = main(["deblur", "--image", str(ppm), "--p", "2", "--q", "8",
                 "--sigma", "3", "--r", "3", "--s", "3", "--compare-real",
                 "--out", str(out), "--json", str(rpt)])
    assert code == 0
    report = load_json(rpt)
    assert set(report) == {"psnr_db", "ssim", "rr", "corr_orig", "corr_quat",
                           "corr_real", "params", "blur_rank"}
    assert report["psnr_db"] >= 40.0
    assert report["rr"] <= 1e-6
    assert np.array(report["corr_real"]).shape == (3, 3)
    assert out.exists()


def test_deblur_real_out_implies_the_real_restoration(tmp_path):
    # --real-out alone runs the real block restoration, writes it and
    # reports its correlations, as with --compare-real
    rng = np.random.default_rng(4)
    ppm = tmp_path / "in.ppm"
    write_ppm(ppm, ColorImage(*rng.uniform(0.1, 0.9, size=(3, 16, 16))))
    rpt = tmp_path / "m.json"
    real = tmp_path / "real.ppm"
    assert main(["deblur", "--image", str(ppm), "--p", "2", "--q", "8",
                 "--real-out", str(real), "--json", str(rpt)]) == 0
    assert read_ppm(real).h == 16
    assert np.array(load_json(rpt)["corr_real"]).shape == (3, 3)


@pytest.mark.parametrize("value", ["inf", "nan", "-inf"])
def test_deblur_non_finite_sigma_exits_2_before_the_run(value, tmp_path,
                                                         capsys):
    rng = np.random.default_rng(4)
    ppm = tmp_path / "in.ppm"
    write_ppm(ppm, ColorImage(*rng.uniform(0.1, 0.9, size=(3, 16, 16))))
    rpt = tmp_path / "m.json"
    assert main(["deblur", "--image", str(ppm), "--p", "2", "--q", "8",
                 f"--sigma={value}", "--json", str(rpt)]) == 2
    out, err = capsys.readouterr()
    assert out == "" and not rpt.exists()
    assert err == ("deblur: error: sigma must be positive and finite, "
                   f"got {float(value)}\n")


def test_deblur_reports_a_singular_box_band(tmp_path):
    # the box band of halfwidth 3 is singular at q = 16: rank 15
    rng = np.random.default_rng(7)
    ppm = tmp_path / "in.ppm"
    write_ppm(ppm, ColorImage(*rng.uniform(0.1, 0.9, size=(3, 32, 12))))
    rpt = tmp_path / "m.json"
    assert main(["deblur", "--image", str(ppm), "--p", "2", "--q", "16",
                 "--s", "3", "--json", str(rpt)]) == 0
    assert load_json(rpt)["blur_rank"] == {"t0": 2, "t1": 15}


def reject_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


@pytest.mark.parametrize("compare_real", [False, True])
def test_deblur_flat_channel_writes_strict_json(compare_real, tmp_path):
    # a constant red channel has no defined correlation: null, not NaN
    rng = np.random.default_rng(6)
    g, b = rng.uniform(0.1, 0.9, size=(2, 16, 16))
    ppm = tmp_path / "flat.ppm"
    write_ppm(ppm, ColorImage(np.full((16, 16), 0.5), g, b))
    rpt = tmp_path / "m.json"
    proc = subprocess.run(
        [sys.executable, "-m", "quatinv.cli", "deblur", "--image", str(ppm),
         "--p", "2", "--q", "8", "--json", str(rpt)]
        + (["--compare-real"] if compare_real else []),
        capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert "RuntimeWarning" not in proc.stderr
    report = json.loads(rpt.read_text(), parse_constant=reject_constant)
    assert report["corr_orig"][0] == [None, None, None]
    assert (report["corr_real"] is None) != compare_real


def test_deblur_rejects_height_mismatch(tmp_path, capsys):
    rng = np.random.default_rng(5)
    img = ColorImage(*rng.uniform(0.1, 0.9, size=(3, 12, 12)))
    ppm = tmp_path / "in.ppm"
    write_ppm(ppm, img)
    assert main(["deblur", "--image", str(ppm), "--p", "2", "--q", "8"]) == 2
    err = capsys.readouterr().err
    assert "12" in err and "16" in err


def test_deblur_oversize_operator_exits_2_before_building_it(tmp_path):
    # p q = 1e6 against a 16-row image: the height check comes before
    # build_blur and any work on its bands
    rng = np.random.default_rng(5)
    ppm = tmp_path / "small.ppm"
    write_ppm(ppm, ColorImage(*rng.uniform(0.1, 0.9, size=(3, 16, 16))))
    proc = subprocess.run(
        [sys.executable, "-m", "quatinv.cli", "deblur", "--image", str(ppm),
         "--p", "1000", "--q", "1000"], capture_output=True, text=True)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr == ("deblur: error: image height 16 does not match "
                           "operator size 1000000\n")


def test_memory_error_exits_2_on_one_line(rand_mat, monkeypatch, capsys):
    import quatinv.cli as cli

    def exhausted(*args, **kwargs):
        raise MemoryError("Unable to allocate 7.28 TiB for an array")

    monkeypatch.setattr(cli, "pinv_report", exhausted)
    assert main(["pinv", "--in", rand_mat[1]]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == ("pinv: error: out of memory (Unable to allocate 7.28 TiB "
                   "for an array)\n")


def test_lorenz_filter_cli(tmp_path):
    rpt = tmp_path / "f.json"
    prefix = str(tmp_path / "run")
    code = main(["lorenz-filter", "--T", "4", "--dt", "0.05",
                 "--noise-sigma", "0.01", "--seed", "5",
                 "--out", prefix, "--json", str(rpt)])
    assert code == 0
    report = load_json(rpt)
    assert report["delay_samples"] == 20
    assert report["order"] == 30
    assert report["relative_error"] <= 1e-8
    with open(prefix + ".trajectory.csv") as fh:
        assert fh.readline().strip() == "t,x,y,z"
    with open(prefix + ".filter.csv") as fh:
        assert fh.readline().strip() == "t,dr,dg,db,dhat_r,dhat_g,dhat_b"


@pytest.mark.parametrize("flag, value, named", [
    ("--T", "inf", "T=inf"), ("--T", "nan", "T=nan"),
    ("--dt", "inf", "dt=inf"), ("--dt", "nan", "dt=nan"),
    ("--noise-sigma", "inf", "noise_sigma"),
    ("--noise-sigma", "nan", "noise_sigma"),
])
def test_lorenz_filter_non_finite_parameter_exits_2(flag, value, named,
                                                    tmp_path, capsys):
    rpt = tmp_path / "f.json"
    assert main(["lorenz-filter", "--T", "3", "--dt", "0.1", flag, value,
                 "--json", str(rpt)]) == 2
    out, err = capsys.readouterr()
    assert out == "" and not rpt.exists()
    assert err.startswith("lorenz-filter: error: ") and named in err
    assert err.count("\n") == 1


def test_same_seed_same_json(tmp_path):
    r1, r2, r3 = (tmp_path / f"{i}.json" for i in range(3))
    base = ["lorenz-filter", "--T", "3", "--dt", "0.1",
            "--noise-sigma", "0.05"]
    main(base + ["--seed", "9", "--json", str(r1)])
    main(base + ["--seed", "9", "--json", str(r2)])
    main(base + ["--seed", "10", "--json", str(r3)])
    assert r1.read_text() == r2.read_text()
    assert r1.read_text() != r3.read_text()


def test_console_script_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "quatinv.cli", "--help"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert "quatinv" in proc.stdout


MODULES = ["quatinv.qcore", "quatinv.factor", "quatinv.geninv",
           "quatinv.apps", "quatinv.apps.deblur", "quatinv.apps.lorenz",
           "quatinv.apps.ppm", "quatinv.cli"]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_is_defined(name):
    # a stale __all__ entry would otherwise fail only ``import *``
    module = importlib.import_module(name)
    assert [attr for attr in module.__all__ if not hasattr(module, attr)] == []


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_has_a_docstring(name):
    # the public API documents itself: help() on any exported name says
    # what it does
    module = importlib.import_module(name)
    assert [attr for attr in module.__all__
            if not (getattr(getattr(module, attr, None), "__doc__", None)
                    or "").strip()] == []


PACKAGE = Path(importlib.import_module("quatinv.qcore").__file__).parent
SOURCES = sorted(PACKAGE.rglob("*.py"))


@pytest.mark.parametrize(
    "path", SOURCES, ids=[str(p.relative_to(PACKAGE)) for p in SOURCES])
def test_every_imported_name_is_used(path):
    # a name a module imports is read somewhere in it or re-exported by its
    # __all__; a leftover import is dead code that still couples modules
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound = alias.asname or alias.name.split(".")[0]
                imported[bound] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(getattr(t, "id", None) == "__all__"
                        for t in node.targets)):
            used.update(ast.literal_eval(node.value))
    assert {name: line for name, line in imported.items()
            if name not in used} == {}


def test_every_private_top_level_name_is_read():
    # a private function, class or constant defined at the top level of a
    # module is read somewhere in the package, as a name or an attribute;
    # one that nothing reads is a dead helper
    defined, read = {}, set()
    for path in SOURCES:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, ast.Assign):
                names = [getattr(t, "id", "") for t in node.targets]
            elif isinstance(node, ast.AnnAssign):
                names = [getattr(node.target, "id", "")]
            else:
                continue
            for name in names:
                if name.startswith("_") and not name.startswith("__"):
                    defined[f"{path.relative_to(PACKAGE)}:{name}"] = name
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    assert [where for where, name in defined.items() if name not in read] == []


def test_without_json_the_report_goes_to_stdout(rand_mat, capsys):
    # stdout holds the JSON report, then the one-line summary
    a, a_path = rand_mat
    assert main(["frd", "--in", a_path, "--route", "crep"]) == 0
    out, err = capsys.readouterr()
    report, end = json.JSONDecoder().raw_decode(out)
    assert report["op"] == "frd" and report["route"] == "crep"
    assert report["rank"] == 4 and report["shape"] == [6, 4]
    assert report["f_shape"] == [6, 4] and report["g_shape"] == [4, 4]
    assert out[end:].strip() == (
        f"frd: rank 4, ||FG-A|| = {report['reconstruction_residual']:.3e}")
    assert err == ""
