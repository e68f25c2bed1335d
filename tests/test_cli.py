import argparse
import importlib
import itertools
import json
import re
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
from quatinv.apps import ColorImage, write_ppm


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


@pytest.mark.parametrize("command", ["pinv", "outer", "outer-w"])
@pytest.mark.parametrize("tol", [1e-300, None])
def test_residual_above_tol_warns_on_stderr(command, tol, tmp_path, capsys):
    args = residual_command(command, tmp_path)
    rpt = tmp_path / "r.json"
    tol_args = [] if tol is None else ["--tol", str(tol)]
    assert main(args + tol_args + ["--json", str(rpt)]) == 0
    report = load_json(rpt)
    warnings = [line for line in capsys.readouterr().err.splitlines()
                if "warning:" in line]
    worst = max(report["residuals"], key=report["residuals"].get)
    if tol is None:  # the default 1e-8 holds
        assert report["within_tol"] is True
        assert warnings == []
    else:
        assert report["within_tol"] is False
        assert len(warnings) == 1
        assert f"worst residual {worst} =" in warnings[0]
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


@pytest.mark.parametrize("argv", [
    ["pinv"], ["pinv", "--method", "frd"], ["drazin"], ["group"],
], ids=" ".join)
def test_huge_input_inverts_on_both_routes(argv, tmp_path, capsys):
    # the composed pinv runs on A scaled by a power of two and the index
    # walk normalizes by a scale-safe norm, so X = A^-1 on both routes
    path = tmp_path / "huge.qmat"
    path.write_text(HUGE)
    a = read_qmat(path)
    for route in ("direct", "crep"):
        out = tmp_path / f"{route}.qmat"
        assert main(argv + ["--in", str(path), "--route", route,
                            "--out", str(out), "--json",
                            str(tmp_path / "r")]) == 0
        _, err = capsys.readouterr()
        # pinv's residuals are absolute, so at 1e300 they warn
        assert "error" not in err
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


def test_readme_flag_table_matches_the_parser():
    lines = (Path(__file__).resolve().parents[1] / "README.md").read_text(
        encoding="utf-8").splitlines()
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
                           "corr_real", "params"}
    assert report["psnr_db"] >= 40.0
    assert report["rr"] <= 1e-6
    assert np.array(report["corr_real"]).shape == (3, 3)
    assert out.exists()


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


@pytest.mark.parametrize("name", [
    "quatinv.qcore", "quatinv.factor", "quatinv.geninv", "quatinv.apps",
    "quatinv.apps.deblur", "quatinv.apps.lorenz", "quatinv.apps.ppm",
    "quatinv.cli",
])
def test_every_exported_name_is_defined(name):
    # a stale __all__ entry would otherwise fail only ``import *``
    module = importlib.import_module(name)
    assert [attr for attr in module.__all__ if not hasattr(module, attr)] == []
