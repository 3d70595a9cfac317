"""Command-line front end: tables and machine-readable results on stdout.

Commands: greens, eigs, resolvent-diff, perturb, recover, verify.
Data goes to stdout as CSV (header row, 17 significant digits) or JSON
(the full record: command, parameters, columns, rows, status);
diagnostics go to stderr.  Exit codes: 0 success, 1 invariant failure,
2 spectral pole hit, 3 input error, 4 out of memory.  All randomness is
seeded, so output is byte-identical for identical command, flags and seed.
recover and resolvent-diff --source discrete form no n x n matrix at any n:
their check rows act on a seeded n x 4 Gaussian block, O(n) time and memory.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import discretize, krein, laplace, probing, verification
from .core import (
    DenseOperator,
    Functional,
    RankOneForm,
    SingularMatrixError,
    Vector,
    invert,
)
from .krein import EigenvalueHitError, SpectralPoint
from .perturbed_inverse import RegularInverse, perturbed_inverse, solve_perturbed

EXIT_OK = 0
EXIT_INVARIANT_FAILURE = 1
EXIT_SPECTRAL_POLE = 2
EXIT_INPUT_ERROR = 3
EXIT_RESOURCE_ERROR = 4


class InputError(ValueError):
    """Malformed file or invalid command input."""


@dataclass
class OutputRecord:
    command: str
    parameters: dict
    columns: list[str]
    rows: list[tuple] = field(default_factory=list)
    status: dict = field(default_factory=lambda: {"ok": True})


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, float):
        return f"{value:.17g}"
    return str(value)


def emit(record: OutputRecord, fmt: str, stream) -> None:
    if fmt == "csv":
        writer = csv.writer(stream, lineterminator="\n")
        writer.writerow(record.columns)
        for row in record.rows:
            writer.writerow([_fmt(v) for v in row])
    else:
        payload = {
            "command": record.command,
            "parameters": record.parameters,
            "columns": record.columns,
            "rows": [list(row) for row in record.rows],
            "status": record.status,
        }
        json.dump(payload, stream, indent=2)
        stream.write("\n")


def parse_complex(text: str) -> complex:
    """Parse RE or RE,IM into a complex number."""
    parts = text.split(",")
    if len(parts) not in (1, 2):
        raise argparse.ArgumentTypeError(f"expected RE or RE,IM, got {text!r}")
    try:
        re = float(parts[0])
        im = float(parts[1]) if len(parts) == 2 else 0.0
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad complex literal {text!r}") from exc
    return complex(re, im)


def _grid_values(m: int) -> np.ndarray:
    return np.linspace(0.0, 1.0, m)


CHECK_SEED = 0


def _check_block(n: int) -> np.ndarray:
    """Seeded n x 4 Gaussian block G of the check rows: (D - |f1><l1|) G and (R_dn - R_dd) G."""
    return np.random.default_rng(CHECK_SEED).standard_normal((n, 4))


# ------------------------------------------------------------------- commands


# --which -> (static kernel, spectral kernel)
_GREENS_KERNELS = {
    "dd": (laplace.green_dd_static, laplace.green_dd_spectral),
    "dn": (laplace.green_dn_static, laplace.green_dn_spectral),
    "diff": (laplace.static_difference, laplace.spectral_difference),
}


def cmd_greens(args) -> OutputRecord:
    params = {"which": args.which, "grid_m": args.grid_m, "format": args.format}
    static, spectral = _GREENS_KERNELS[args.which]
    if args.z is not None:
        params["z"] = [args.z.real, args.z.imag]
        kernel, kernel_args = spectral, (SpectralPoint.from_z(args.z),)
    else:
        params["z"] = None
        kernel, kernel_args = static, ()
    record = OutputRecord("greens", params, ["x", "xi", "re", "im"])
    for x in _grid_values(args.grid_m):
        for xi in _grid_values(args.grid_m):
            value = kernel(laplace.KernelPoint(float(x), float(xi)), *kernel_args)
            record.rows.append((float(x), float(xi), value.real, value.imag))
    return record


def _analytic_root_search(count: int) -> list[krein.EigenPair]:
    hi = (count * math.pi) ** 2 - 1.0
    exclusions = [(j * math.pi) ** 2 for j in range(1, count + 1)]

    def d_fn(z: complex) -> complex:
        return laplace.krein_denominator(SpectralPoint.from_z(z))

    return krein.find_new_eigenvalues(d_fn, (0.05, hi), count, exclusions)


def cmd_eigs(args) -> OutputRecord:
    params = {"count": args.count, "method": args.method, "n": args.n}
    record = OutputRecord("eigs", params, ["index", "z", "k"])
    if args.method == "analytic":
        points = laplace.dn_eigenvalues(args.count)
        rows = [(i, s.z.real, s.k.real) for i, s in enumerate(points)]
    elif args.method == "denominator":
        found = _analytic_root_search(args.count)
        rows = [(i, p.z.real, p.k.real) for i, p in enumerate(found)]
    else:  # discrete
        if args.n is None:
            raise InputError("--n is required for method 'discrete'")
        values = discretize.discrete_new_eigenvalues(discretize.build_pair(args.n), args.count)
        rows = [(i, z, math.sqrt(z)) for i, z in enumerate(values)]
    record.rows = rows
    return record


def cmd_resolvent_diff(args) -> OutputRecord:
    params = {
        "z": [args.z.real, args.z.imag],
        "source": args.source,
        "n": args.n,
        "grid_m": args.grid_m,
    }
    if args.source == "analytic":
        record = OutputRecord("resolvent-diff", params, ["x", "xi", "re", "im"])
        s = SpectralPoint.from_z(args.z)
        for x in _grid_values(args.grid_m):
            for xi in _grid_values(args.grid_m):
                value = laplace.spectral_difference(laplace.KernelPoint(float(x), float(xi)), s)
                record.rows.append((float(x), float(xi), value.real, value.imag))
        return record

    if args.n is None:
        raise InputError("--n is required for source 'discrete'")
    pair_ = discretize.build_pair(args.n)
    d = discretize.inverse_difference(pair_)
    probe = probing.choose_probe(d)
    form = probing.recover_factors(d, probe)
    r1 = discretize.resolvent(pair_.t_dd, args.z)
    factored = krein.resolvent_difference(r1, args.z, form)
    factor_free = probing.resolvent_difference_factor_free(r1, args.z, d, probe)
    # Brute force: (R_dn - R_dd) G, R_dn from its own factorization of z - t_dn.
    g = _check_block(args.n)
    brute = discretize.resolvent(pair_.t_dn, args.z).apply(g) - r1.apply(g)
    record = OutputRecord("resolvent-diff", params, ["quantity", "value"])
    record.rows = [
        ("denominator_re", factored.denominator.real),
        ("denominator_im", factored.denominator.imag),
        ("max_abs_dev_factored_vs_brute", float(np.max(np.abs(factored.apply(g) - brute)))),
        ("max_abs_dev_factor_free_vs_brute", float(np.max(np.abs(factor_free.apply(g) - brute)))),
        ("brute_force_max_abs", float(np.max(np.abs(brute)))),
    ]
    return record


def _read_matrix_file(path: Path, rng: np.random.Generator):
    try:
        tokens_by_line = [
            line.split() for line in path.read_text().splitlines() if line.strip()
        ]
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    try:
        dim = int(tokens_by_line[0][0])
        numbers = [[float(t) for t in line] for line in tokens_by_line[1:]]
    except (IndexError, ValueError) as exc:
        raise InputError(f"malformed matrix file {path}: {exc}") from exc
    if dim < 1 or len(numbers) < dim or any(len(row) != dim for row in numbers[:dim]):
        raise InputError(f"malformed matrix file {path}: expected {dim}x{dim} matrix block")
    a = DenseOperator(np.array(numbers[:dim]))
    rest = numbers[dim:]
    if rest and (len(rest) != 2 or any(len(row) != dim for row in rest)):
        raise InputError(f"malformed matrix file {path}: f/l block must be two rows of {dim}")
    if rest:
        f, l = Vector(rest[0]), Functional(rest[1])
    else:
        f = Vector(rng.uniform(-1, 1, dim))
        l = Functional(rng.uniform(-1, 1, dim))
    return a, RankOneForm(f, l)


def _random_perturb_instance(rng: np.random.Generator, dim: int):
    a = DenseOperator(rng.uniform(-1, 1, (dim, dim)) + 2.0 * dim * np.eye(dim))
    f = Vector(rng.uniform(-1, 1, dim))
    l = Functional(rng.uniform(-1, 1, dim))
    return a, RankOneForm(f, l)


def cmd_perturb(args) -> OutputRecord:
    params = {"seed": args.seed, "dim": args.dim, "format": args.format}
    rng = np.random.default_rng(args.seed)
    if args.matrix_file is not None:
        params["matrix_file"] = str(args.matrix_file)
        a, form = _read_matrix_file(Path(args.matrix_file), rng)
    else:
        params["matrix_file"] = None
        a, form = _random_perturb_instance(rng, args.dim)
    try:
        a_inv = invert(a)
    except SingularMatrixError as exc:
        raise InputError(f"input matrix is singular: {exc}") from exc

    b = a - form.materialize()
    result = perturbed_inverse(a_inv, form)
    record = OutputRecord("perturb", params, ["quantity", "value"])
    if isinstance(result, RegularInverse):
        b_inv = result.apply_to(a_inv)
        inverse_residual = float(np.max(np.abs((b @ b_inv).matrix - np.eye(a.dim))))
        w = Vector(np.ones(a.dim))
        v = solve_perturbed(a_inv, form, w)
        solve_residual = float(np.max(np.abs((b @ v - w).entries)))
        record.rows = [
            ("branch_regular", 1),
            ("denominator_re", result.denominator.real),
            ("denominator_im", result.denominator.imag),
            ("inverse_residual", inverse_residual),
            ("solve_residual", solve_residual),
        ]
    else:
        v0 = result.null_vector
        null_residual = (b @ v0).norm() / (b.norm_max() * v0.norm())
        record.rows = [
            ("branch_regular", 0),
            ("denominator_re", 0.0),
            ("denominator_im", 0.0),
            ("null_vector_residual", null_residual),
        ]
    return record


def cmd_recover(args) -> OutputRecord:
    params = {"n": args.n}
    pair_ = discretize.build_pair(args.n)
    d = discretize.inverse_difference(pair_)
    probe = probing.choose_probe(d)
    form = probing.recover_factors(d, probe)
    g = _check_block(args.n)
    d_g = d.apply(g)
    residual = np.max(np.abs(d_g - np.outer(form.f.entries, form.l.weights @ g))) / np.max(np.abs(d_g))

    x = pair_.grid.nodes
    # Gauge-normalize so the recovered f matches the ramp at the last node.
    factor = x[-1] / form.f.entries[-1]
    f_shape_dev = float(np.max(np.abs(form.f.entries * factor - x)))
    l_shape_dev = float(np.max(np.abs(form.l.weights * (1.0 / factor) / pair_.grid.h - x)))

    record = OutputRecord("recover", params, ["quantity", "value"])
    record.rows = [
        ("reconstruction_residual", float(residual)),
        ("rank_estimate", verification.sketch_rank(d, 1e-8, np.random.default_rng(CHECK_SEED))),
        ("pairing_re", probe.pairing.real),
        ("pairing_im", probe.pairing.imag),
        ("f_shape_max_dev", f_shape_dev),
        ("l_shape_max_dev", l_shape_dev),
    ]
    return record


def cmd_verify(args) -> OutputRecord:
    params = {"seed": args.seed}
    results = verification.run_all(args.seed)
    record = OutputRecord("verify", params, ["invariant", "passed", "measured", "threshold"])
    record.rows = [(r.name, int(r.passed), r.measured, r.threshold) for r in results]
    failures = sum(1 for r in results if not r.passed)
    if failures:
        record.status = {"ok": False, "code": EXIT_INVARIANT_FAILURE,
                         "message": f"{failures} invariant(s) failed"}
    return record


# --------------------------------------------------------------------- parser


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse defaults to exit code 2; we reserve that
        self.exit(EXIT_INPUT_ERROR, f"{self.prog}: error: {message}\n")


def build_parser() -> _Parser:
    parser = _Parser(prog="rankone", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("greens", help="sample a Green's kernel on a square grid")
    p.add_argument("--which", choices=("dd", "dn", "diff"), required=True)
    p.add_argument("--z", type=parse_complex, default=None, help="spectral point RE[,IM]; omit for the static kernel")
    p.add_argument("--grid-m", type=int, default=5)
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.set_defaults(fn=cmd_greens)

    p = sub.add_parser("eigs", help="eigenvalues introduced by the Neumann condition")
    p.add_argument("--count", type=int, default=1)
    p.add_argument("--method", choices=("analytic", "denominator", "discrete"), required=True)
    p.add_argument("--n", type=int, default=None, help="interior nodes (discrete method)")
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.set_defaults(fn=cmd_eigs)

    p = sub.add_parser("resolvent-diff", help="resolvent difference, analytic or via the discrete pipeline")
    p.add_argument("--z", type=parse_complex, required=True)
    p.add_argument("--source", choices=("analytic", "discrete"), required=True)
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--grid-m", type=int, default=5)
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.set_defaults(fn=cmd_resolvent_diff)

    p = sub.add_parser("perturb", help="rank-one update of an inverse, from file or seeded")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--matrix-file", type=str, default=None)
    group.add_argument("--random", action="store_true")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--dim", type=int, default=8)
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.set_defaults(fn=cmd_perturb)

    p = sub.add_parser("recover", help="recover rank-one factors of the discrete inverse difference")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.set_defaults(fn=cmd_recover)

    p = sub.add_parser("verify", help="run the named invariant suite")
    p.add_argument("--seed", type=int, default=verification.DEFAULT_SEED)
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.set_defaults(fn=cmd_verify)

    return parser


def _join_z_values(argv: list[str]) -> list[str]:
    """Rewrite `--z VALUE` as `--z=VALUE`.

    argparse reads a separate value such as -30,2 or -1e-3 as an option
    and rejects it; the joined form takes any value.
    """
    joined = []
    tokens = iter(argv)
    for token in tokens:
        value = next(tokens, None) if token == "--z" else None
        joined.append(token if value is None else f"--z={value}")
    return joined


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(_join_z_values(sys.argv[1:] if argv is None else argv))
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        if getattr(args, "grid_m", 2) < 2:
            raise InputError("--grid-m must be >= 2")
        record = args.fn(args)
    except (laplace.PoleError, EigenvalueHitError, discretize.SpectrumHitError) as exc:
        print(f"rankone: spectral pole: {exc}", file=sys.stderr)
        return EXIT_SPECTRAL_POLE
    except ValueError as exc:  # InputError included
        print(f"rankone: input error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    except OverflowError as exc:
        print(f"rankone: input error: result out of floating-point range ({exc})", file=sys.stderr)
        return EXIT_INPUT_ERROR
    except MemoryError as exc:
        print(f"rankone: out of memory: {str(exc) or 'allocation failed'}", file=sys.stderr)
        return EXIT_RESOURCE_ERROR
    emit(record, args.format, sys.stdout)
    if not record.status.get("ok", True):
        return int(record.status.get("code", EXIT_INVARIANT_FAILURE))
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
