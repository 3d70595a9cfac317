"""The benchmark workloads: seeded inputs, the timed op, and its oracle check.

Each workload derives every input from the run seed and the op index, so
the same seed gives the same ops in the same order.  ``run`` is the timed
op and calls only public functions of rankone, each through the tracer;
``check`` runs afterwards, outside the timed region, and compares the
outputs with oracles that do not use rankone (closed forms, plain numpy,
mpmath).  It returns the modules whose outputs failed, empty when all
passed.  ``counts`` returns the exact per-op counters.
"""

from __future__ import annotations

import csv
import io
import math
import re
import subprocess
import sys

import numpy as np

from rankone import discretize, krein, laplace, probing, verification
from rankone.core import DenseOperator, Functional, RankOneForm, Vector, invert
from rankone.krein import SpectralPoint, find_new_eigenvalues
from rankone.perturbed_inverse import (
    SingularInverse,
    SingularPerturbationError,
    perturbed_inverse,
    solve_perturbed,
)

# Tolerances follow the acceptance suite and tests/test_cli.py; where a
# check there is absolute at one size, it is made relative here so that it
# holds at every size a workload draws.
REL_OUTER = 1e-10  # recovered |f1><l1| and D against their exact values
REL_INVERSE = 1e-10  # B B^-1 - I, B v - w (criterion 3)
REL_NULL = 1e-9  # |B v0| / (|B|max |v0|) (criterion 3, singular)
REL_RESIDUAL = 1e-12  # (z - T_dn)(R1 + dR) v - v, backward-error form
REL_SPECTRUM = 1e-8  # discrete roots and eigenvalues against the closed form
REL_ROOT = 1e-11  # analytic roots: 1e-9 absolute at z = 22.2 in criterion 6
REL_KERNEL = 1e-12  # kernels against mpmath, relative to max(1, |exact|)
CLI_DEV = 1e-8  # resolvent-diff deviations (tests/test_cli.py)


def rng_for(seed: int, *keys: int) -> np.random.Generator:
    return np.random.default_rng([seed, *keys])


def van_der_corput(k: int) -> float:
    """k-th term of the base-2 van der Corput sequence; any prefix spreads evenly."""
    out, denom = 0.0, 1.0
    while k:
        k, bit = divmod(k, 2)
        denom *= 2.0
        out += bit / denom
    return out


def dd_spectrum(n: int, count: int) -> np.ndarray:
    """Lowest eigenvalues of the discrete Dirichlet-Dirichlet operator, closed form."""
    h = 1.0 / (n + 1)
    j = np.arange(1, count + 1)
    return 4.0 / h**2 * np.sin(j * np.pi * h / 2.0) ** 2


def dn_spectrum(n: int, count: int) -> np.ndarray:
    """Lowest eigenvalues of the discrete Dirichlet-Neumann operator, closed form."""
    h = 1.0 / (n + 1)
    j = np.arange(1, count + 1)
    return 4.0 / h**2 * np.sin((2 * j - 1) * np.pi / (2 * (2 * n + 1))) ** 2


def _rel_dev(got, exact) -> float:
    got, exact = np.asarray(got), np.asarray(exact)
    return float(np.max(np.abs(got - exact)) / np.max(np.abs(exact)))


def _cvec(r: np.random.Generator, dim: int) -> np.ndarray:
    return r.uniform(-1, 1, dim) + 1j * r.uniform(-1, 1, dim)


class Workload:
    name = ""
    # Exact counts are summed over the first count_ops ops, which every run completes.
    count_ops = 1
    # A run ends only after a whole group of ops.
    op_group = 1

    def __init__(self, seed: int, tiny: bool, root):
        self.seed = seed
        self.tiny = tiny
        self.root = root

    def setup(self, tracer):
        """Generate what the inputs need and warm up, before the first timed op."""

    def make_input(self, i: int):
        raise NotImplementedError

    def run(self, inp, t):
        raise NotImplementedError

    def check(self, inp, out) -> list[str]:
        raise NotImplementedError

    def counts(self, inp, out) -> dict:
        return {}

    def after_loop(self, t) -> list[str]:
        """Traced-run extras outside the op loop; returns failed modules."""
        return []


# --------------------------------------------------------------- dense-krein


class DenseKrein(Workload):
    """Full discrete testbed pipeline at one grid size n per op."""

    name = "dense-krein"
    count_ops = 2
    op_group = 2
    roots = 5

    def __init__(self, seed, tiny, root):
        super().__init__(seed, tiny, root)
        self.center, self.half = (60, 20) if tiny else (1000, 200)
        self.used: set[int] = set()

    def setup(self, tracer):
        # One small op loads every LAPACK path the timed ops use.
        inp = self._input_for(-1, 40)
        self.check(inp, self.run(inp, tracer))

    def _size(self, i: int) -> int:
        # Ops come in pairs n = center -/+ d_k, d_k from a jittered van der
        # Corput sequence: any prefix of pairs spreads evenly over the range
        # and is symmetric about the center, so medians barely depend on the
        # seed or on how many ops fit in the run.  No n repeats in a run.
        k, side = divmod(i, 2)
        jitter = rng_for(self.seed, 1, k).uniform(0.0, 1.0 / 32.0)
        d = max(1, round(self.half * (van_der_corput(k + 1) - jitter)))
        n = self.center + (d if side == k % 2 else -d)
        lo, hi = self.center - self.half, self.center + self.half
        if len(self.used) > hi - lo:
            self.used.clear()
        while n in self.used:
            n = lo + (n + 1 - lo) % (hi - lo + 1)
        self.used.add(n)
        return n

    def make_input(self, i):
        return self._input_for(i, self._size(i))

    def _input_for(self, i, n):
        r = rng_for(self.seed, 2, i + 1)
        # One real z in the middle half of a gap of the merged low spectra,
        # one complex z; both off both spectra.
        edges = np.sort(np.concatenate([[0.0], dd_spectrum(n, 5), dn_spectrum(n, 5)]))
        g = int(r.integers(0, len(edges) - 1))
        z_real = edges[g] + (0.25 + 0.5 * r.random()) * (edges[g + 1] - edges[g])
        z_cplx = complex(r.uniform(-50.0, 200.0), r.uniform(0.5, 20.0) * r.choice([-1.0, 1.0]))
        return {"n": n, "zs": (complex(z_real), z_cplx), "v_seed": (self.seed, 3, i + 1)}

    def run(self, inp, t):
        evals = [0]
        pair = t.call("discretize.build_pair", discretize.build_pair, inp["n"])
        d = t.call("discretize.inverse_difference", discretize.inverse_difference, pair)
        probe = t.call("probing.choose_probe", probing.choose_probe, d)
        form = t.call("probing.recover_factors", probing.recover_factors, d, probe)
        diffs = []
        for z in inp["zs"]:
            r1 = t.call("discretize.resolvent", discretize.resolvent, pair.t_dd, z)
            fac = t.call("krein.resolvent_difference", krein.resolvent_difference, r1, z, form)
            free = t.call(
                "probing.resolvent_difference_factor_free",
                probing.resolvent_difference_factor_free, r1, z, d, probe,
            )
            diffs.append((z, r1, fac, free))
        d_fn = t.call(
            "discretize.krein_denominator_function",
            discretize.krein_denominator_function, pair, form,
        )

        def counted(z):
            evals[0] += 1
            return d_fn(z)

        poles = t.call("discretize.dd_eigenvalues", discretize.dd_eigenvalues, pair)
        found = t.call(
            "krein.find_new_eigenvalues", find_new_eigenvalues,
            counted, (0.05, float(poles[self.roots - 1])), self.roots,
            [float(p) for p in poles[: self.roots - 1]],
        )
        eigs = t.call(
            "discretize.discrete_new_eigenvalues",
            discretize.discrete_new_eigenvalues, pair, self.roots,
        )
        return {"d": d, "form": form, "diffs": diffs, "found": found, "eigs": eigs,
                "evals": evals[0]}

    def check(self, inp, out):
        n = inp["n"]
        h = 1.0 / (n + 1)
        x = np.arange(1, n + 1) * h
        exact = h * np.outer(x, x)
        bad = []
        if _rel_dev(out["d"].matrix, exact) > REL_OUTER:
            bad.append("discretize")
        form = out["form"]
        if _rel_dev(np.outer(form.f.entries, form.l.weights), exact) > REL_OUTER:
            bad.append("probing")
        mu = dn_spectrum(n, self.roots)
        found = [p.z.real for p in out["found"]]
        if len(found) != self.roots or _rel_spectrum(found, mu) > REL_SPECTRUM:
            bad.append("krein")
        if _rel_spectrum(out["eigs"], mu) > REL_SPECTRUM:
            bad.append("discretize")
        v = _cvec(rng_for(*inp["v_seed"]), n)
        for z, r1, fac, free in out["diffs"]:
            r1v = r1.matrix @ v
            for module, diff in (("krein", fac), ("probing", free)):
                u = r1v - diff.left.entries * (diff.right.weights @ v) / diff.denominator
                if _krein_residual(z, u, v, h) > REL_RESIDUAL:
                    bad.append(module)
        return bad

    def counts(self, inp, out):
        return {
            "krein.find_new_eigenvalues.denominator_evals": out["evals"],
            "krein.roots_found": len(out["found"]),
            "krein.roots_expected": self.roots,
        }

    def after_loop(self, t):
        # The cold CLI, n = 200 counterpart of this pipeline, and the verify suite.
        cli = CliSession(self.seed, self.tiny, self.root)
        cli.setup(t)
        inp = cli.make_input(0)
        return cli.check(inp, cli.run(inp, t)) + cli.after_loop(t)


def _rel_spectrum(got, exact) -> float:
    got, exact = np.asarray(got, dtype=float), np.asarray(exact, dtype=float)
    if got.shape != exact.shape:
        return math.inf
    return float(np.max(np.abs(got - exact) / np.abs(exact)))


def _krein_residual(z: complex, u: np.ndarray, v: np.ndarray, h: float) -> float:
    """Backward error of (z - T_dn) u = v, T_dn applied from its 3-point stencil."""
    tu = 2.0 * u
    tu[1:] -= u[:-1]
    tu[:-1] -= u[1:]
    tu[-1] -= u[-1]  # mirror ghost node: last diagonal entry 1/h^2
    tu /= h * h
    res = z * u - tu - v
    scale = (abs(z) + 4.0 / h**2) * np.max(np.abs(u)) + np.max(np.abs(v))
    return float(np.max(np.abs(res)) / scale)


# ------------------------------------------------------------- small-updates


class SmallUpdates(Workload):
    """One small complex rank-one update per op; every tenth is singular.

    A singular op checks the null vector that perturbed_inverse returns and
    that solve_perturbed refuses the system.  It does not call
    null_space_certificate: at its default tol=1e-9 that function rejects
    about a third of genuine null vectors, its own included, because it
    takes the sine of the angle as sqrt(1 - cos^2), whose rounding floor is
    about 1.5e-8.
    """

    name = "small-updates"
    count_ops = 100

    def setup(self, tracer):
        # Each dimension appears equally often in the pool, in seeded order,
        # so the mix of sizes is the same whatever the seed.
        lo, hi, reps = (4, 8, 2) if self.tiny else (4, 64, 10)
        dims = rng_for(self.seed, 0).permutation(np.tile(np.arange(lo, hi + 1), reps))
        self.pool = [
            _update_instance(rng_for(self.seed, 1, j), int(dim), singular=(j % 10 == 9))
            for j, dim in enumerate(dims)
        ]
        for j in range(min(20, len(self.pool))):
            inp = self.pool[j]
            self.check(inp, self.run(inp, tracer))

    def make_input(self, i):
        return self.pool[i % len(self.pool)]

    def run(self, inp, t):
        a = DenseOperator(inp["a"])
        form = RankOneForm(Vector(inp["f"]), Functional(inp["l"]))
        a_inv = t.call("core.invert", invert, a)
        result = t.call("perturbed_inverse.perturbed_inverse", perturbed_inverse, a_inv, form)
        try:
            solution = t.call(
                "perturbed_inverse.solve_perturbed", solve_perturbed, a_inv, form, Vector(inp["w"])
            )
        except SingularPerturbationError:  # the expected answer on singular ops
            t.failed_layer = None
            solution = None
        d = form.materialize()
        probe = t.call("probing.choose_probe", probing.choose_probe, d)
        recovered = t.call("probing.recover_factors", probing.recover_factors, d, probe)
        value = t.call("probing.bilinear_value", probing.bilinear_value, d, a, probe)
        return {"a_inv": a_inv, "result": result, "solution": solution,
                "recovered": recovered, "value": value}

    def check(self, inp, out):
        a, f, l, w = inp["a"], inp["f"], inp["l"], inp["w"]
        eye = np.eye(a.shape[0])
        a_inv = out["a_inv"].matrix
        bad = []
        if np.max(np.abs(a @ a_inv - eye)) > REL_INVERSE:
            bad.append("core")
        b = a - np.outer(f, l)
        result = out["result"]
        if inp["singular"]:
            v0 = getattr(result, "null_vector", None)
            if (
                v0 is None
                or out["solution"] is not None
                or np.linalg.norm(b @ v0.entries)
                > REL_NULL * np.max(np.abs(b)) * np.linalg.norm(v0.entries)
            ):
                bad.append("perturbed_inverse")
        elif (
            out["solution"] is None
            or np.max(np.abs(b @ (a_inv + result.correction.matrix) - eye)) > REL_INVERSE
            or np.max(np.abs(b @ out["solution"].entries - w)) > REL_INVERSE * np.max(np.abs(w))
        ):
            bad.append("perturbed_inverse")
        rec = out["recovered"]
        exact = l @ (a @ f)
        if (
            _rel_dev(np.outer(rec.f.entries, rec.l.weights), np.outer(f, l)) > REL_OUTER
            or abs(out["value"] - exact) > REL_OUTER * abs(exact)
        ):
            bad.append("probing")
        return bad

    def counts(self, inp, out):
        return {"perturbed_inverse.singular_branch.calls": int(isinstance(out["result"], SingularInverse))}


def _update_instance(r: np.random.Generator, dim: int, singular: bool) -> dict:
    """(A, f, l, w) with A well conditioned; singular ones have <l|A^-1 f> = 1."""
    a = r.uniform(-1, 1, (dim, dim)) + 1j * r.uniform(-1, 1, (dim, dim)) + 2.0 * dim * np.eye(dim)
    while True:
        f, l = _cvec(r, dim), _cvec(r, dim)
        q = l @ np.linalg.solve(a, f)
        if singular:
            l = l / q
            break
        if abs(1.0 - q) > 0.1:
            break
    return {"a": a, "f": f, "l": l, "w": _cvec(r, dim), "singular": singular}


# --------------------------------------------------------- analytic-spectral


KERNELS = ("spectral_difference", "green_dd_spectral", "green_dn_spectral")
Z_KINDS = ("real", "complex", "negative", "tiny")
ROOT_COUNTS = range(5, 31)


class AnalyticSpectral(Workload):
    """One closed-form kernel on a square grid plus a k cot k root search per op."""

    name = "analytic-spectral"
    count_ops = 50
    # Every kernel on every z kind, so each worker's share of a run has the same mix.
    op_group = len(KERNELS) * len(Z_KINDS)
    checked_points = 8

    def setup(self, tracer):
        import mpmath

        self.mp = mpmath
        self.grid = [float(x) for x in np.linspace(0.0, 1.0, 10 if self.tiny else 100)]
        counts = list(range(2, 6)) if self.tiny else list(ROOT_COUNTS)
        self.root_counts = [int(c) for c in rng_for(self.seed, 0).permutation(counts)]
        for i in range(len(Z_KINDS) * len(KERNELS)):  # every kernel on every z kind
            inp = self.make_input(-1 - i)
            self.check(inp, self.run(inp, tracer))

    def make_input(self, i):
        # Kernel, z kind and root count cycle with coprime-ish periods, so the
        # mix over a run is the same whatever the seed.
        r = rng_for(self.seed, 2, i + 1000)
        z_kind = Z_KINDS[(i // len(KERNELS)) % len(Z_KINDS)]
        if z_kind == "real":  # strictly between poles of sin k and cos k
            k = (int(r.integers(1, 40)) + r.uniform(0.1, 0.9)) * math.pi / 2.0
            z = complex(k * k)
        elif z_kind == "complex":
            z = complex(r.uniform(-50.0, 300.0), r.uniform(0.5, 50.0) * r.choice([-1.0, 1.0]))
        elif z_kind == "negative":
            z = complex(-r.uniform(0.01, 400.0))
        else:  # Taylor branch: |z| < 1e-8
            z = r.uniform(1e-12, 1e-8) * np.exp(1j * r.uniform(0.0, 2.0 * math.pi))
        count = self.root_counts[i % len(self.root_counts)]
        m = len(self.grid)
        points = [(int(p) // m, int(p) % m) for p in r.choice(m * m, self.checked_points, replace=False)]
        return {
            "kernel": KERNELS[i % len(KERNELS)],
            "z": z,
            "count": count,
            "interval": (0.05, (count * math.pi) ** 2 - 1.0),
            "poles": [(j * math.pi) ** 2 for j in range(1, count + 1)],
            "points": points,
        }

    def run(self, inp, t):
        kernel = getattr(laplace, inp["kernel"])
        s = SpectralPoint.from_z(inp["z"])
        grid = self.grid
        with t.span("laplace.kernel_grid"):
            values = [kernel(laplace.KernelPoint(x, xi), s) for x in grid for xi in grid]
        evals = [0]

        def denominator(z):
            evals[0] += 1
            return laplace.krein_denominator(SpectralPoint.from_z(z))

        found = t.call(
            "krein.find_new_eigenvalues", find_new_eigenvalues,
            denominator, inp["interval"], inp["count"], inp["poles"],
        )
        return {"values": values, "found": found, "evals": evals[0]}

    def check(self, inp, out):
        bad = []
        mp = self.mp
        m = len(self.grid)
        with mp.workdps(30):
            k = mp.sqrt(mp.mpc(inp["z"]))
            for ix, jx in inp["points"]:
                exact = complex(_mp_kernel(mp, inp["kernel"], k, self.grid[ix], self.grid[jx]))
                if abs(out["values"][ix * m + jx] - exact) > REL_KERNEL * max(1.0, abs(exact)):
                    bad.append("laplace")
                    break
        targets = [((j + 0.5) * math.pi) ** 2 for j in range(inp["count"])]
        found = [p.z.real for p in out["found"]]
        if len(found) != len(targets) or _rel_spectrum(found, targets) > REL_ROOT:
            bad.append("krein")
        return bad

    def counts(self, inp, out):
        return {
            "laplace.kernel.evals": len(out["values"]),
            "laplace.krein_denominator.evals": out["evals"],
            "krein.find_new_eigenvalues.denominator_evals": out["evals"],
            "krein.roots_found": len(out["found"]),
            "krein.roots_expected": inp["count"],
        }


def _mp_kernel(mp, kind: str, k, x: float, xi: float):
    """The three spectral kernels in closed form, at mpmath precision."""
    a, b = mp.mpf(min(x, xi)), mp.mpf(max(x, xi))
    if kind == "green_dd_spectral":
        return -mp.sin(k * a) * mp.sin(k * (1 - b)) / (k * mp.sin(k))
    if kind == "green_dn_spectral":
        return -mp.sin(k * a) * mp.cos(k * (1 - b)) / (k * mp.cos(k))
    return -mp.sin(k * x) * mp.sin(k * xi) / (k * mp.sin(k) * mp.cos(k))


# --------------------------------------------------------------- cli-session


VERIFY_LARGEST = (
    "check_exact_rank_one",
    "check_sherman_morrison_cross",
    "check_static_kernel_convergence",
    "check_krein_cross_check",
    "check_eigenvalue_consistency",
    "check_probe_independence",
)
IMPORT_SAMPLES = 3
_IMPORT_LINE = re.compile(r"import time:\s*\d+\s*\|\s*(\d+)\s*\|\s*rankone\.cli\s*$", re.M)


class CliSession(Workload):
    """Six cold `python -m rankone.cli` commands per op.

    Not a timed workload of its own: a run holds only a handful of its
    ~8.5 s ops, and with it the benchmark's time budget left runs too short
    to be steady on a 2-vCPU VM.  dense-krein's traced run runs one op of
    it (see DenseKrein.after_loop), which gives the cli and verification
    layers.
    """

    name = "cli-session"
    count_ops = 1

    def __init__(self, seed, tiny, root):
        super().__init__(seed, tiny, root)
        self.n = 20 if tiny else 200
        self.dim = 4 if tiny else 8
        self.count = 3 if tiny else 10
        self.grid_m = 5 if tiny else 100
        self.env = None

    def setup(self, tracer):
        import os

        self.env = dict(os.environ)
        # A cold child loads the interpreter and package files once before timing.
        self._cli(["eigs", "--method", "analytic", "--count", "1"])

    def _python(self, argv):
        return subprocess.run(
            [sys.executable] + argv, capture_output=True, text=True, env=self.env,
            cwd=self.root, timeout=150,
        )

    def _cli(self, argv):
        return self._python(["-m", "rankone.cli"] + argv)

    def make_input(self, i):
        perturb_seed = int(rng_for(self.seed, 1, i).integers(0, 2**31))
        return {
            "perturb_seed": perturb_seed,
            "commands": (
                ("perturb", ["perturb", "--random", "--dim", str(self.dim), "--seed", str(perturb_seed)]),
                ("recover", ["recover", "--n", str(self.n)]),
                ("resolvent-diff", ["resolvent-diff", "--source", "discrete", "--n", str(self.n),
                                    "--z", "1.5,0.5"]),
                ("eigs", ["eigs", "--method", "denominator", "--count", str(self.count)]),
                ("greens", ["greens", "--which", "diff", "--z", "1,0.5", "--grid-m", str(self.grid_m)]),
                ("verify", ["verify"]),
            ),
        }

    def run(self, inp, t):
        out = {}
        for name, argv in inp["commands"]:
            with t.span(f"cli.{name}"):
                out[name] = self._cli(argv)
        return out

    def check(self, inp, out):
        if any(proc.returncode != 0 for proc in out.values()):
            return ["cli"]
        try:
            tables = {name: _csv_rows(proc.stdout) for name, proc in out.items()}
            ok = (
                self._perturb_ok(inp, _as_table(tables["perturb"]))
                and self._recover_ok(_as_table(tables["recover"]))
                and self._resolvent_ok(_as_table(tables["resolvent-diff"]))
                and self._eigs_ok(tables["eigs"])
                and self._greens_ok(tables["greens"])
            )
        except (KeyError, ValueError, IndexError):
            ok = False
        bad = [] if ok else ["cli"]
        verify_rows = _csv_rows(out["verify"].stdout)
        if len(verify_rows) < 12 or any(row[1] != "1" for row in verify_rows):
            bad.append("verification")
        return bad

    def _perturb_ok(self, inp, table):
        # The CLI's documented seeded instance, rebuilt with numpy alone.
        r = np.random.default_rng(inp["perturb_seed"])
        dim = self.dim
        a = r.uniform(-1, 1, (dim, dim)) + 2.0 * dim * np.eye(dim)
        f, l = r.uniform(-1, 1, dim), r.uniform(-1, 1, dim)
        den = 1.0 - l @ np.linalg.solve(a, f)
        got = complex(table["denominator_re"], table["denominator_im"])
        return (
            table["branch_regular"] == 1
            and table["inverse_residual"] <= REL_INVERSE
            and table["solve_residual"] <= REL_INVERSE
            and abs(got - den) <= REL_INVERSE * max(1.0, abs(den))
        )

    def _recover_ok(self, table):
        h = 1.0 / (self.n + 1)
        pairing = h * (self.n * h) ** 2  # largest entry of h x x^T, at the last node
        return (
            table["reconstruction_residual"] <= REL_OUTER
            and table["rank_estimate"] == 1
            and table["f_shape_max_dev"] <= 5 * h
            and table["l_shape_max_dev"] <= 5 * h
            and abs(table["pairing_re"] - pairing) <= REL_OUTER * pairing
        )

    def _resolvent_ok(self, table):
        n, z = self.n, 1.5 + 0.5j
        h = 1.0 / (n + 1)
        x = np.arange(1, n + 1) * h
        t_dd = (np.diag(np.full(n, 2.0)) - np.diag(np.ones(n - 1), 1) - np.diag(np.ones(n - 1), -1)) / h**2
        r1f = np.linalg.solve(z * np.eye(n) - t_dd, x)
        den = 1.0 + z * ((h * x) @ (-x + z * r1f))
        got = complex(table["denominator_re"], table["denominator_im"])
        return (
            table["max_abs_dev_factored_vs_brute"] <= CLI_DEV
            and table["max_abs_dev_factor_free_vs_brute"] <= CLI_DEV
            and abs(got - den) <= REL_OUTER * abs(den)
        )

    def _eigs_ok(self, rows):
        targets = [((j + 0.5) * math.pi) ** 2 for j in range(self.count)]
        return _rel_spectrum([float(r[1]) for r in rows], targets) <= REL_ROOT

    def _greens_ok(self, rows):
        m = self.grid_m
        k = np.sqrt(1.0 + 0.5j)
        g = np.linspace(0.0, 1.0, m)
        x, xi = np.meshgrid(g, g, indexing="ij")
        exact = (-np.sin(k * x) * np.sin(k * xi) / (k * np.sin(k) * np.cos(k))).ravel()
        got = np.array([complex(float(r[2]), float(r[3])) for r in rows])
        coords = np.array([(float(r[0]), float(r[1])) for r in rows])
        return (
            got.shape == exact.shape
            and np.array_equal(coords, np.column_stack([x.ravel(), xi.ravel()]))
            and bool(np.all(np.abs(got - exact) <= REL_KERNEL * np.maximum(1.0, np.abs(exact))))
        )

    def after_loop(self, t):
        # Cold import of the CLI module, as the child interpreter itself reports it.
        bad = []
        for _ in range(IMPORT_SAMPLES):
            proc = self._python(["-X", "importtime", "-c", "import rankone.cli"])
            found = _IMPORT_LINE.search(proc.stderr)
            if proc.returncode != 0 or not found:
                bad.append("cli")
                break
            t.record("cli.import", int(found.group(1)) / 1e3)
        # The six costliest verify checks, and the whole suite, in this process.
        seed = verification.DEFAULT_SEED
        with t.span("verification.run_all"):
            results = verification.run_all(seed)
        for name in VERIFY_LARGEST:
            with t.span(f"verification.{name}"):
                results.append(getattr(verification, name)(seed))
        return bad + ([] if all(r.passed for r in results) else ["verification"])


def _csv_rows(text: str) -> list[list[str]]:
    return list(csv.reader(io.StringIO(text)))[1:]


def _as_table(rows) -> dict[str, float]:
    return {row[0]: float(row[1]) for row in rows}


WORKLOADS = {w.name: w for w in (DenseKrein, SmallUpdates, AnalyticSpectral)}
