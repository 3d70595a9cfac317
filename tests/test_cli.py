import cmath
import csv
import io
import json
import math
import os
import subprocess
import sys
import tracemalloc
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import mpmath as mp
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import rankone
from rankone import cli
from rankone.core import DenseOperator, LowRankProduct, OperatorDifference
from rankone.discretize import Tridiagonal, TridiagonalResolvent
from rankone.krein import BISECTION_RTOL


def run_cli(argv):
    """Invoke main() capturing stdout; returns (exit_code, stdout_text)."""
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = cli.main(argv)
    return code, buf.getvalue()


def parse_csv(text):
    rows = list(csv.reader(io.StringIO(text)))
    return rows[0], rows[1:]


# ------------------------------------------------------------------ greens


def test_greens_static_difference_values():
    code, out = run_cli(["greens", "--which", "diff", "--grid-m", "3"])
    assert code == 0
    header, rows = parse_csv(out)
    assert header == ["x", "xi", "re", "im"]
    assert len(rows) == 9
    for x, xi, re, im in rows:
        assert float(re) == pytest.approx(float(x) * float(xi), abs=1e-15)
        assert float(im) == 0


def test_greens_dd_at_zero_matches_negated_static():
    code, out = run_cli(["greens", "--which", "dd", "--z", "0", "--grid-m", "3"])
    assert code == 0
    _, rows = parse_csv(out)
    table = {(r[0], r[1]): float(r[2]) for r in rows}
    assert table[("0.5", "0.5")] == pytest.approx(-0.25)


def test_greens_pole_exits_two():
    code, _ = run_cli(["greens", "--which", "dd", "--z", f"{math.pi**2}", "--grid-m", "2"])
    assert code == 2


def test_greens_rejects_unknown_kernel():
    code, _ = run_cli(["greens", "--which", "nn", "--grid-m", "2"])
    assert code == 3


@pytest.mark.parametrize(
    "command",
    [
        ["greens", "--which", "dn", "--grid-m", "3"],
        ["greens", "--which", "diff", "--grid-m", "3"],
        ["resolvent-diff", "--source", "analytic", "--grid-m", "3"],
    ],
)
@pytest.mark.parametrize("z", ["-30,2", "-1e-3"])
def test_negative_z_as_separate_token(command, z):
    code_sep, out_sep = run_cli([*command, "--z", z])
    code_eq, out_eq = run_cli([*command, f"--z={z}"])
    assert code_sep == code_eq == 0
    assert out_sep == out_eq


def test_greens_json_mirrors_csv_rows():
    code_c, out_c = run_cli(["greens", "--which", "dn", "--grid-m", "4"])
    code_j, out_j = run_cli(["greens", "--which", "dn", "--grid-m", "4", "--format", "json"])
    assert code_c == code_j == 0
    _, csv_rows = parse_csv(out_c)
    record = json.loads(out_j)
    assert record["command"] == "greens"
    assert record["status"] == {"ok": True}
    assert len(record["rows"]) == len(csv_rows)
    for json_row, csv_row in zip(record["rows"], csv_rows):
        for a, b in zip(json_row, csv_row):
            assert float(a) == pytest.approx(float(b), abs=1e-16)


# -------------------------------------------------------------------- eigs


def test_eigs_analytic_frozen():
    code, out = run_cli(["eigs", "--method", "analytic", "--count", "2"])
    assert code == 0
    _, rows = parse_csv(out)
    assert float(rows[0][1]) == pytest.approx(2.4674011002723395, abs=1e-12)
    assert float(rows[1][1]) == pytest.approx(22.206609902451056, abs=1e-12)


def test_eigs_denominator_matches_analytic():
    code, out = run_cli(["eigs", "--method", "denominator", "--count", "2"])
    assert code == 0
    _, rows = parse_csv(out)
    assert float(rows[0][1]) == pytest.approx(2.4674011002723395, abs=1e-9)
    assert float(rows[1][1]) == pytest.approx(22.206609902451056, abs=1e-9)


def test_eigs_denominator_thirty_roots_within_bisection_tolerance():
    code, out = run_cli(["eigs", "--method", "denominator", "--count", "30"])
    assert code == 0
    _, rows = parse_csv(out)
    assert [int(r[0]) for r in rows] == list(range(30))
    for j, z, _k in rows:
        exact = ((int(j) + 0.5) * math.pi) ** 2
        assert abs(float(z) - exact) <= BISECTION_RTOL * exact


def test_eigs_discrete_within_one_percent():
    code, out = run_cli(["eigs", "--method", "discrete", "--count", "1", "--n", "1000"])
    assert code == 0
    _, rows = parse_csv(out)
    assert abs(float(rows[0][1]) - 2.4674011002723395) / 2.4674011002723395 < 0.01


def test_eigs_discrete_requires_n():
    code, _ = run_cli(["eigs", "--method", "discrete", "--count", "1"])
    assert code == 3


def test_eigs_denominator_refuses_count_below_one(capsys):
    code = cli.main(["eigs", "--method", "denominator", "--count", "0"])
    out, err = capsys.readouterr()
    _assert_one_line_input_error(code, out, err)
    assert "count must be >= 1" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["greens", "--which", "dd", "--z", "nan,1", "--grid-m", "2"],
        ["resolvent-diff", "--source", "analytic", "--z", "nan", "--grid-m", "2"],
    ],
    ids=["greens", "resolvent-diff"],
)
def test_analytic_path_refuses_a_non_finite_z(argv, capsys):
    _assert_one_line_input_error(cli.main(argv), *capsys.readouterr())


def test_eigs_rejects_unknown_method():
    code, _ = run_cli(["eigs", "--method", "bogus", "--count", "1"])
    assert code == 3


# ---------------------------------------------------------- resolvent-diff


def test_resolvent_diff_analytic_contains_frozen_value():
    code, out = run_cli(["resolvent-diff", "--z", "1", "--source", "analytic", "--grid-m", "3"])
    assert code == 0
    _, rows = parse_csv(out)
    table = {(r[0], r[1]): float(r[2]) for r in rows}
    assert table[("0.5", "0.5")] == pytest.approx(-0.5055526174055559, abs=1e-13)


def test_resolvent_diff_analytic_zero_limit():
    code, out = run_cli(["resolvent-diff", "--z", "0", "--source", "analytic", "--grid-m", "3"])
    assert code == 0
    _, rows = parse_csv(out)
    for x, xi, re, im in rows:
        assert float(re) == pytest.approx(-float(x) * float(xi), abs=1e-14)


def test_resolvent_diff_discrete_reports_small_deviation():
    code, out = run_cli(["resolvent-diff", "--z", "1", "--source", "discrete", "--n", "200"])
    assert code == 0
    _, rows = parse_csv(out)
    table = {r[0]: float(r[1]) for r in rows}
    assert table["max_abs_dev_factored_vs_brute"] <= 1e-8
    assert table["max_abs_dev_factor_free_vs_brute"] <= 1e-8


def test_resolvent_diff_complex_flag_syntax():
    code, out = run_cli(["resolvent-diff", "--z", "1.5,0.5", "--source", "discrete", "--n", "60"])
    assert code == 0
    _, rows = parse_csv(out)
    table = {r[0]: float(r[1]) for r in rows}
    assert table["denominator_im"] != 0


@pytest.mark.parametrize("z", ["inf", "nan", "1,nan"])
def test_resolvent_diff_non_finite_z_exits_three_with_one_line(z, capsys):
    code = cli.main(["resolvent-diff", "--source", "discrete", "--n", "20", "--z", z])
    _assert_one_line_input_error(code, *capsys.readouterr())


@pytest.mark.parametrize("z", ["1e12", "-1e12", "1e12,1"])
def test_resolvent_diff_at_large_z_is_no_eigenvalue_hit(z):
    code, out = run_cli(["resolvent-diff", "--source", "discrete", "--n", "20", "--z", z])
    assert code == 0
    table = {r[0]: float(r[1]) for r in parse_csv(out)[1]}
    assert table["denominator_re"] == pytest.approx(21.0, rel=1e-5)


@pytest.mark.parametrize("z", ["1e16", "-1e20", "1e300"])
def test_resolvent_diff_at_huge_z_reports_the_limit_denominator(z):
    # The denominator tends to 1 + <l|T1 f> = n + 1 = 21; -f + z R1 f lost it
    # to rounding and exited 2, "denominator 5.6e+282 vanishes" at z = 1e300.
    code, out = run_cli(["resolvent-diff", "--source", "discrete", "--n", "20", f"--z={z}"])
    assert code == 0
    table = {r[0]: float(r[1]) for r in parse_csv(out)[1]}
    assert table["denominator_re"] == pytest.approx(21.0, rel=1e-12)


# ----------------------------------------------------------------- perturb


def test_perturb_file_one_dimensional(tmp_path):
    path = tmp_path / "m.txt"
    path.write_text("1\n2\n1\n1\n")
    code, out = run_cli(["perturb", "--matrix-file", str(path)])
    assert code == 0
    table = {r[0]: float(r[1]) for r in parse_csv(out)[1]}
    assert table["denominator_re"] == pytest.approx(0.5)
    assert table["branch_regular"] == 1


def test_perturb_random_regular(tmp_path):
    code, out = run_cli(["perturb", "--random", "--seed", "7", "--dim", "8"])
    assert code == 0
    table = {r[0]: float(r[1]) for r in parse_csv(out)[1]}
    assert table["branch_regular"] == 1
    assert table["inverse_residual"] <= 1e-10
    assert table["solve_residual"] <= 1e-10


def test_perturb_crafted_singular_instance(tmp_path):
    path = tmp_path / "singular.txt"
    path.write_text("2\n1 0\n0 1\n1 0\n1 0\n")  # A = I, f = l = e1
    code, out = run_cli(["perturb", "--matrix-file", str(path)])
    assert code == 0
    table = {r[0]: float(r[1]) for r in parse_csv(out)[1]}
    assert table["branch_regular"] == 0
    assert table["null_vector_residual"] <= 1e-9


def test_perturb_malformed_file_exits_three(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("not a matrix\n")
    code, _ = run_cli(["perturb", "--matrix-file", str(path)])
    assert code == 3


def test_perturb_wrong_block_shape_exits_three(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("2\n1 0\n0 1\n1 0\n")  # f given without l
    code, _ = run_cli(["perturb", "--matrix-file", str(path)])
    assert code == 3


# A = 1e-200 I inverts without trouble, but A^-1 f = 1e400 overflows.
OVERFLOWING_INSTANCE = "2\n1e-200 0\n0 1e-200\n1e200 1e200\n1 -1\n"


def _assert_one_line_input_error(code, out, err):
    assert code == cli.EXIT_INPUT_ERROR == 3
    assert out == ""
    assert err.startswith("rankone: input error:")
    assert err.count("\n") == 1


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_perturb_overflow_exits_three_with_one_line(tmp_path, capsys):
    path = tmp_path / "overflow.txt"
    path.write_text(OVERFLOWING_INSTANCE)
    code = cli.main(["perturb", "--matrix-file", str(path)])
    _assert_one_line_input_error(code, *capsys.readouterr())


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize(
    "text",
    [
        "2\n1 0\n0 1\n1e160 1e160\n1e160 0\n",  # |f><l| overflows
        "2\n1 0\n0 1\n1 1\n1e308 -9.99999999e307\n",  # B B^-1 overflows
    ],
    ids=["outer", "product"],
)
def test_perturb_overflow_elsewhere_exits_three_with_one_line(tmp_path, capsys, text):
    path = tmp_path / "overflow.txt"
    path.write_text(text)
    code = cli.main(["perturb", "--matrix-file", str(path)])
    _assert_one_line_input_error(code, *capsys.readouterr())


def test_perturb_overflow_prints_one_stderr_line_as_subprocess(tmp_path):
    # pytest captures warnings in-process; a separate interpreter prints them.
    path = tmp_path / "overflow.txt"
    path.write_text(OVERFLOWING_INSTANCE)
    result = subprocess.run(
        [sys.executable, "-m", "rankone.cli", "perturb", "--matrix-file", str(path)],
        env=_subprocess_env(), capture_output=True, text=True, stdin=subprocess.DEVNULL,
    )
    _assert_one_line_input_error(result.returncode, result.stdout, result.stderr)


def test_perturb_pairing_overflow_prints_one_stderr_line_as_subprocess(tmp_path):
    # A = I and f = l = (1e154, 1e154): B is invertible but <l|A^-1 f> overflows.
    path = tmp_path / "overflow.txt"
    path.write_text("2\n1 0\n0 1\n1e154 1e154\n1e154 1e154\n")
    result = subprocess.run(
        [sys.executable, "-m", "rankone.cli", "perturb", "--matrix-file", str(path)],
        env=_subprocess_env(), capture_output=True, text=True, stdin=subprocess.DEVNULL,
    )
    _assert_one_line_input_error(result.returncode, result.stdout, result.stderr)
    assert "out of floating-point range" in result.stderr


def test_closed_stdout_exits_zero_without_traceback():
    # 40 000 rows, far more than a pipe holds: the writes after the reader
    # has gone fail with EPIPE, as under `| head -1`.
    proc = subprocess.Popen(
        [sys.executable, "-m", "rankone.cli", "greens", "--which", "dd", "--z", "1,1", "--grid-m", "200"],
        env=_subprocess_env(), stdin=subprocess.DEVNULL, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    )
    try:
        assert proc.stdout.readline() == b"x,xi,re,im\n"
        proc.stdout.close()
        _, err = proc.communicate(timeout=60)
    finally:
        proc.kill()
    assert proc.returncode == cli.EXIT_OK
    assert err == b""


def _assert_cannot_write(result):
    assert result.returncode == cli.EXIT_RESOURCE_ERROR
    lines = result.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("rankone: cannot write output: "), result.stderr


def test_closed_stdout_descriptor_exits_four_with_one_line():
    # `>&-`: the interpreter starts with sys.stdout = None.
    result = subprocess.run(
        ["sh", "-c", 'exec "$0" -m rankone.cli greens --which dd --grid-m 3 >&-', sys.executable],
        env=_subprocess_env(), capture_output=True, text=True, stdin=subprocess.DEVNULL,
    )
    _assert_cannot_write(result)


@pytest.mark.parametrize(
    "redirect, expected",
    [
        ("2>&-", cli.EXIT_INPUT_ERROR),
        ("2</dev/null", cli.EXIT_INPUT_ERROR),
        (">&- 2>&-", cli.EXIT_RESOURCE_ERROR),
    ],
    ids=["closed", "read-only", "stdout-and-stderr-closed"],
)
def test_unwritable_stderr_keeps_the_exit_code(redirect, expected):
    # `2>&-` starts the interpreter with sys.stderr = None; a descriptor 2
    # open only for reading makes every write to stderr fail with EBADF.
    # --grid-m 1 is an input error; with stdout closed too, the table cannot
    # be written either.
    grid_m = 1 if expected == cli.EXIT_INPUT_ERROR else 3
    result = subprocess.run(
        ["sh", "-c", f'exec "$0" -m rankone.cli greens --which dd --grid-m {grid_m} {redirect}', sys.executable],
        env=_subprocess_env(), capture_output=True, text=True, stdin=subprocess.DEVNULL,
    )
    assert result.returncode == expected
    assert result.stdout == "" and result.stderr == ""


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_full_device_on_stdout_exits_four_with_one_line(fmt):
    with open("/dev/full", "w") as full:
        result = subprocess.run(
            [sys.executable, "-m", "rankone.cli", "greens", "--which", "dd", "--grid-m", "3", "--format", fmt],
            env=_subprocess_env(), stdout=full, stderr=subprocess.PIPE, text=True, stdin=subprocess.DEVNULL,
        )
    _assert_cannot_write(result)


def _mp_kernel(which, k, x, xi):
    """Kernel of greens --which (diff also for resolvent-diff) at 30 digits."""
    with mp.workdps(30):
        k = mp.mpc(k)
        a, b = min(x, xi), 1.0 - max(x, xi)
        if which == "dd":
            return complex(-mp.sin(k * a) * mp.sin(k * b) / (k * mp.sin(k)))
        if which == "dn":
            return complex(-mp.sin(k * a) * mp.cos(k * b) / (k * mp.cos(k)))
        return complex(-mp.sin(k * x) * mp.sin(k * xi) / (k * mp.sin(k) * mp.cos(k)))


@pytest.mark.parametrize(
    "command, z, grid_m",
    [
        (["resolvent-diff", "--source", "analytic"], "-1.3e5", 2),
        (["greens", "--which", "dn"], "-1.3e5", 2),
        (["greens", "--which", "dd"], "-5e5", 3),
        (["greens", "--which", "dd"], "0,1e6", 3),
        # pi^2, an eigenvalue of T_dd but not of T_dn
        (["greens", "--which", "dn"], "9.869604401089358", 3),
    ],
)
def test_kernel_table_matches_mpmath_below_overflow(command, z, grid_m):
    code, out = run_cli(command + [f"--z={z}", "--grid-m", str(grid_m)])
    assert code == 0
    which = command[-1] if command[0] == "greens" else "diff"
    # At the k the command evaluates at, the principal root of z: at z = pi^2
    # the centre dn value is 1.6e-17, and rounding k alone moves it by 23%.
    k = cmath.sqrt(cli.parse_complex(z))
    for x, xi, re, im in parse_csv(out)[1]:
        exact = _mp_kernel(which, k, float(x), float(xi))
        assert abs(complex(float(re), float(im)) - exact) <= 1e-12 * abs(exact), (x, xi)


@pytest.mark.parametrize(
    "argv",
    [
        ["greens", "--which", "dd", "--z", "-1e6", "--grid-m", "2"],
        ["resolvent-diff", "--source", "analytic", "--z=-1e6", "--grid-m", "2"],
    ],
)
def test_kernel_overflow_exits_three_with_one_line(argv, capsys):
    # |Im k| = 1000 overflows cmath.sin.
    code = cli.main(argv)
    _assert_one_line_input_error(code, *capsys.readouterr())


# ----------------------------------------------------------------- recover


def test_recover_discrete_pair():
    code, out = run_cli(["recover", "--n", "200"])
    assert code == 0
    table = {r[0]: float(r[1]) for r in parse_csv(out)[1]}
    assert table["reconstruction_residual"] <= 1e-10
    assert table["rank_estimate"] == 1
    h = 1.0 / 201
    assert table["f_shape_max_dev"] <= 5 * h
    assert table["l_shape_max_dev"] <= 5 * h


def test_recover_smallest_pair():
    code, out = run_cli(["recover", "--n", "2"])
    assert code == 0
    table = {r[0]: float(r[1]) for r in parse_csv(out)[1]}
    assert table["reconstruction_residual"] <= 1e-12


# ------------------------------------------- discrete commands at any n

DISCRETE_COMMANDS = (
    ["recover"],
    ["resolvent-diff", "--source", "discrete", "--z", "1.5,0.5"],
)


@pytest.mark.parametrize("command", DISCRETE_COMMANDS, ids=["recover", "resolvent-diff"])
def test_discrete_commands_never_form_a_matrix(command, monkeypatch):
    def refuse(*args):
        raise AssertionError("dense matrix formed")

    for cls in (Tridiagonal, TridiagonalResolvent, OperatorDifference, LowRankProduct):
        monkeypatch.setattr(cls, "matrix", property(refuse))
    monkeypatch.setattr(DenseOperator, "__post_init__", refuse)
    code, _ = run_cli([*command, "--n", "200"])
    assert code == 0


@pytest.mark.parametrize("command", DISCRETE_COMMANDS, ids=["recover", "resolvent-diff"])
def test_discrete_commands_at_large_n_allocate_no_dense_matrix(command):
    # A dense n x n complex matrix would take 160 GB here.  The bound is in
    # complex n-vectors: the real testbed keeps D, its factors and the check
    # block real, so recover peaks at ~17 and resolvent-diff, whose z is
    # complex, at ~30.  Both held ~31 and ~38 when every value was complex.
    n = 100_000
    tracemalloc.start()
    try:
        code, out = run_cli([*command, "--n", str(n)])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 0
    assert peak < {"recover": 24, "resolvent-diff": 36}[command[0]] * n * 16
    table = {r[0]: float(r[1]) for r in parse_csv(out)[1]}
    if command[0] == "recover":
        assert table["reconstruction_residual"] <= 1e-10
        assert table["rank_estimate"] == 1
    else:
        assert table["max_abs_dev_factored_vs_brute"] <= 1e-8
        assert table["max_abs_dev_factor_free_vs_brute"] <= 1e-8


# ------------------------------------------------------ exit-code contract


_Z_PARTS = st.one_of(
    st.sampled_from([math.inf, -math.inf, math.nan, 1e308, -1e300, 5e-324, -2.2e-308, 0.0, -0.0]),
    st.floats(min_value=-400.0, max_value=400.0),
)


@st.composite
def _cli_argv(draw):
    """argv of one command with a z of extreme parts, --n in [-3, 5000], --count in [-1, 100], --grid-m in [-1, 4]."""
    parts = draw(st.lists(_Z_PARTS, min_size=1, max_size=2))
    z = ",".join(repr(v) for v in parts)
    n = str(draw(st.integers(-3, 5000)))
    count = str(draw(st.integers(-1, 100)))
    grid_m = str(draw(st.integers(-1, 4)))
    which = draw(st.sampled_from(["dd", "dn", "diff"]))
    return draw(st.sampled_from([
        ["greens", "--which", which, "--grid-m", grid_m],
        ["greens", "--which", which, "--z", z, "--grid-m", grid_m],
        ["eigs", "--method", draw(st.sampled_from(["analytic", "denominator", "discrete"])), "--count", count, "--n", n],
        ["resolvent-diff", "--source", "analytic", "--z", z, "--grid-m", grid_m],
        ["resolvent-diff", "--source", "discrete", "--z", z, "--n", n],
        ["recover", "--n", n],
    ]))


@settings(max_examples=100, deadline=None)
@given(_cli_argv())
def test_every_argv_exits_with_a_documented_code_and_no_traceback(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(argv)
    assert code in (0, 1, 2, 3, 4)
    assert "Traceback" not in err.getvalue()
    if code == 0:
        assert "nan" not in out.getvalue().lower()


# ------------------------------------------------------------- determinism


@pytest.mark.parametrize(
    "argv",
    [
        ["greens", "--which", "diff", "--grid-m", "4"],
        ["eigs", "--method", "denominator", "--count", "1"],
        ["perturb", "--random", "--seed", "3", "--dim", "6", "--format", "json"],
        ["recover", "--n", "40"],
    ],
)
def test_output_is_byte_identical(argv):
    code_a, out_a = run_cli(argv)
    code_b, out_b = run_cli(argv)
    assert code_a == code_b == 0
    assert out_a == out_b


def test_out_of_memory_exits_four_with_one_line(monkeypatch, capsys):
    def exhausted(args):
        raise MemoryError("Unable to allocate 149. GiB for an array with shape (100000, 100000)")

    monkeypatch.setattr(cli, "cmd_recover", exhausted)
    code = cli.main(["recover", "--n", "100000"])
    captured = capsys.readouterr()
    assert code == cli.EXIT_RESOURCE_ERROR == 4
    assert captured.out == ""
    assert captured.err.startswith("rankone: out of memory:")
    assert captured.err.count("\n") == 1


def test_csv_uses_seventeen_significant_digits():
    _, out = run_cli(["eigs", "--method", "analytic", "--count", "1"])
    _, rows = parse_csv(out)
    # full float64 round-trip: reading the text back reproduces the value
    assert float(rows[0][1]) == (math.pi / 2) ** 2


def _subprocess_env() -> dict:
    src = str(Path(rankone.__file__).resolve().parents[1])
    return dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))


def test_import_leaves_heavy_scipy_modules_unloaded():
    # Each of these costs a large share of start-up; none is needed to import
    # the package or the CLI.  A factorization loads only scipy's LAPACK
    # extension (see the next test), and only on first use: a module-level
    # import of rankone._lapack would load it for every command.
    heavy = ("scipy.linalg", "scipy.optimize", "scipy.integrate", "scipy.fft", "scipy.linalg._flapack")
    for module in ("rankone", "rankone.cli"):
        code = f"import sys, {module}; print([m for m in {heavy!r} if m in sys.modules])"
        result = subprocess.run(
            [sys.executable, "-c", code], env=_subprocess_env(), capture_output=True, text=True, check=True
        )
        assert result.stdout.strip() == "[]", module


def test_factorizing_commands_leave_heavy_scipy_modules_unloaded():
    # Each command factors z - T or a dense matrix: the LAPACK extension is
    # loaded from its file, so no scipy package __init__ runs.
    heavy = ("scipy.linalg", "scipy.optimize", "scipy.integrate", "scipy.fft")
    commands = [
        ["perturb", "--random", "--dim", "8"],
        ["recover", "--n", "40"],
        ["resolvent-diff", "--source", "discrete", "--n", "40", "--z", "1.5,0.5"],
        ["verify"],
    ]
    code = (
        "import contextlib, io, sys\n"
        "from rankone import cli\n"
        f"for argv in {commands!r}:\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        assert cli.main(argv) == 0, argv\n"
        f"print('scipy.linalg._flapack' in sys.modules, [m for m in {heavy!r} if m in sys.modules])"
    )
    result = subprocess.run(
        [sys.executable, "-c", code], env=_subprocess_env(), capture_output=True, text=True, check=True
    )
    assert result.stdout.strip() == "True []"
