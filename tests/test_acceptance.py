"""Acceptance suite: one test per criterion, at the stated tolerance.

Each test prints a single pass/fail line (visible with `pytest -s` or on
failure).  Run the whole gate with:

    pytest tests/test_acceptance.py -v -s
"""

import math
import time

import cmath
import numpy as np
import scipy.integrate

from rankone import cli, discretize, laplace
from rankone.core import DenseOperator, Functional, Vector, invert, outer, pair
from rankone.krein import SpectralPoint, find_new_eigenvalues, resolvent_difference
from rankone.perturbed_inverse import RegularInverse, perturbed_inverse
from rankone.probing import (
    ADMISSIBILITY_RTOL,
    bilinear_value,
    choose_probe,
    coordinate_probe,
    recover_factors,
    resolvent_difference_factor_free,
)
from rankone.verification import regular_instance, singular_instance

Z0 = 2.4674011002723395  # ((1/2) pi)^2


def _criterion(num: int, name: str, ok: bool, detail: str = ""):
    print(f"[acceptance {num:02d}] {name}: {'PASS' if ok else 'FAIL'} {detail}".rstrip())
    assert ok, f"acceptance criterion {num} ({name}) failed: {detail}"


def test_criterion_01_static_kernel_difference():
    start = time.perf_counter()
    pair_ = discretize.build_pair(400)
    diff = discretize.inverse_difference(pair_)
    x = pair_.grid.nodes
    dev = float(np.max(np.abs(diff.matrix / pair_.grid.h - np.outer(x, x))))
    elapsed = time.perf_counter() - start
    ok = dev <= 5 * pair_.grid.h and elapsed < 10.0
    _criterion(1, "static-kernel-difference", ok, f"dev={dev:.3e} time={elapsed:.2f}s")


def test_criterion_02_exact_rank_one():
    worst = 0.0
    for n in (200, 500, 1000):
        matrix = discretize.inverse_difference(discretize.build_pair(n)).matrix
        assert not matrix.imag.any()  # the real SVD below sees all of D
        sigma = np.linalg.svd(matrix.real, compute_uv=False)
        worst = max(worst, float(sigma[1] / sigma[0]))
    _criterion(2, "exact-rank-one", worst <= 1e-10, f"max sigma2/sigma1={worst:.3e}")


def test_criterion_03_sherman_morrison_equivalence():
    rng = np.random.default_rng(1234)
    worst_regular = 0.0
    for _ in range(100):
        a, a_inv, form = regular_instance(rng, 8)
        result = perturbed_inverse(a_inv, form)
        assert isinstance(result, RegularInverse)
        oracle = invert(a - form.materialize())
        dev = np.max(np.abs(result.apply_to(a_inv).matrix - oracle.matrix))
        worst_regular = max(worst_regular, float(dev / np.max(np.abs(oracle.matrix))))

    worst_singular = 0.0
    for _ in range(10):
        a, a_inv, form = singular_instance(rng, 8)
        b = a - form.materialize()
        u = a_inv @ form.f
        worst_singular = max(worst_singular, (b @ u).norm() / (b.norm_max() * u.norm()))

    ok = worst_regular <= 1e-10 and worst_singular <= 1e-9
    _criterion(
        3,
        "sherman-morrison-equivalence",
        ok,
        f"regular={worst_regular:.3e} singular={worst_singular:.3e}",
    )


def _off_spectrum_sample(pair_, count_real: int, count_complex: int, rng):
    spectra = np.concatenate(
        [discretize.dd_eigenvalues(pair_), np.linalg.eigvalsh(pair_.t_dn.matrix)]
    )
    zs = []
    while len(zs) < count_real:
        z = float(rng.uniform(-5.0, 50.0))
        if np.min(np.abs(spectra - z)) >= 0.5:
            zs.append(complex(z))
    while len(zs) < count_real + count_complex:
        re = float(rng.uniform(-5.0, 50.0))
        im = float(rng.uniform(0.5, 3.0)) * (1 if rng.uniform() < 0.5 else -1)
        zs.append(complex(re, im))
    return zs


def test_criterion_04_krein_resolvent_formula():
    rng = np.random.default_rng(991)
    pair_ = discretize.build_pair(200)
    d = discretize.inverse_difference(pair_)
    probe = choose_probe(d)
    form = recover_factors(d, probe)
    worst = 0.0
    for z in _off_spectrum_sample(pair_, 10, 10, rng):
        r1 = discretize.resolvent(pair_.t_dd, z)
        brute = (discretize.resolvent(pair_.t_dn, z) - r1).matrix
        factored = resolvent_difference(r1, z, form).materialize().matrix
        free = resolvent_difference_factor_free(r1, z, d, probe).materialize().matrix
        worst = max(worst, float(np.max(np.abs(factored - brute))))
        worst = max(worst, float(np.max(np.abs(free - brute))))
    _criterion(4, "krein-resolvent-formula", worst <= 1e-8, f"max dev={worst:.3e}")


def _denominator_sample():
    dd_poles = np.array([(j * math.pi) ** 2 for j in range(1, 8)])
    zs = []
    for z in np.linspace(0.3, 38.0, 70):
        if np.min(np.abs(dd_poles - z)) >= 0.5:
            zs.append(complex(z))
        if len(zs) == 35:
            break
    re = np.linspace(-6.0, 30.0, 15)
    im = np.linspace(0.5, 3.0, 15)
    zs += [complex(r, s * (1 if i % 2 else -1)) for i, (r, s) in enumerate(zip(re, im))]
    return zs


def test_criterion_05_denominator_identity():
    zs = _denominator_sample()
    assert len(zs) == 50
    worst_chain = 0.0
    worst_quad = 0.0
    for z in zs:
        s = SpectralPoint.from_z(z)
        sp = laplace.scalar_pairing(s)
        worst_chain = max(worst_chain, abs(1.0 + s.z * sp - laplace.krein_denominator(s)))
        k = s.k
        re, _ = scipy.integrate.quad(
            lambda t: (-t * cmath.sin(k * t) / cmath.sin(k)).real, 0, 1, epsabs=1e-13, epsrel=1e-13
        )
        im, _ = scipy.integrate.quad(
            lambda t: (-t * cmath.sin(k * t) / cmath.sin(k)).imag, 0, 1, epsabs=1e-13, epsrel=1e-13
        )
        worst_quad = max(worst_quad, abs(sp - (re + 1j * im)))
    ok = worst_chain <= 1e-12 and worst_quad <= 1e-10
    _criterion(
        5, "denominator-identity", ok, f"chain={worst_chain:.3e} quadrature={worst_quad:.3e}"
    )


def test_criterion_06_eigenvalues():
    def analytic_fn(z: complex) -> complex:
        return laplace.krein_denominator(SpectralPoint.from_z(z))

    exclusions = [(j * math.pi) ** 2 for j in (1, 2)]
    found = find_new_eigenvalues(analytic_fn, (0.05, 70.0), 3, exclusions)
    targets = [((n + 0.5) * math.pi) ** 2 for n in range(3)]
    dev_analytic = max(abs(p.z.real - t) for p, t in zip(found, targets))
    ok_analytic = len(found) == 3 and dev_analytic <= 1e-9 and abs(found[0].z.real - Z0) <= 1e-9

    pair_ = discretize.build_pair(1000)
    d_fn = discretize.krein_denominator_function(pair_)
    discrete_exclusions = [float(v) for v in discretize.dd_eigenvalues(pair_) if v < 9.0]
    discrete = find_new_eigenvalues(d_fn, (0.1, 9.0), 1, discrete_exclusions)
    rel = abs(discrete[0].z.real - Z0) / Z0
    ok = ok_analytic and rel < 0.01
    _criterion(6, "eigenvalues", ok, f"analytic dev={dev_analytic:.2e} discrete rel={rel:.2e}")


def _spectral_difference_error(n: int) -> float:
    pair_ = discretize.build_pair(n)
    h = pair_.grid.h
    s = SpectralPoint.from_z(1.0 + 0j)
    brute = (
        discretize.resolvent(pair_.t_dn, 1.0) - discretize.resolvent(pair_.t_dd, 1.0)
    ).matrix / h
    x = pair_.grid.nodes
    analytic = np.empty((n, n), dtype=complex)
    for i, xi in enumerate(x):
        for j, xj in enumerate(x):
            analytic[i, j] = laplace.spectral_difference(laplace.KernelPoint(xi, xj), s)
    return float(np.max(np.abs(brute - analytic)))


def test_criterion_07_spectral_kernel_difference():
    err_400 = _spectral_difference_error(400)
    err_800 = _spectral_difference_error(800)
    ok = err_800 <= 5e-3 and err_800 < err_400
    _criterion(
        7, "spectral-kernel-difference", ok, f"err(400)={err_400:.3e} err(800)={err_800:.3e}"
    )


def test_criterion_08_probe_independence():
    rng = np.random.default_rng(55)
    dim = 16
    f = np.array(rng.uniform(-1, 1, dim) + 1j * rng.uniform(-1, 1, dim))
    l = np.array(rng.uniform(-1, 1, dim) + 1j * rng.uniform(-1, 1, dim))
    d = outer(Vector(f), Functional(l))
    s = DenseOperator(rng.uniform(-1, 1, (dim, dim)) + 2.0 * dim * np.eye(dim))
    direct = pair(Functional(l), s @ Vector(f))
    reference = None
    worst_outer = 0.0
    worst_bilinear = 0.0
    for i in range(dim):
        for j in range(dim):
            probe = coordinate_probe(d, i, j)
            if abs(probe.pairing) <= ADMISSIBILITY_RTOL * d.norm_max():
                continue
            mat = recover_factors(d, probe).materialize().matrix
            if reference is None:
                reference = mat
            else:
                worst_outer = max(
                    worst_outer, float(np.max(np.abs(mat - reference))) / d.norm_max()
                )
            worst_bilinear = max(
                worst_bilinear, abs(bilinear_value(d, s, probe) - direct) / abs(direct)
            )
    ok = worst_outer <= 1e-10 and worst_bilinear <= 1e-10
    _criterion(
        8, "probe-independence", ok, f"outer={worst_outer:.3e} bilinear={worst_bilinear:.3e}"
    )


def test_criterion_09_branch_independence():
    dd_poles = np.array([(j * math.pi) ** 2 for j in range(1, 8)])
    dn_poles = np.array([((j + 0.5) * math.pi) ** 2 for j in range(8)])
    zs = []
    for z in np.linspace(0.25, 44.0, 200):
        if np.min(np.abs(dd_poles - z)) >= 0.4 and np.min(np.abs(dn_poles - z)) >= 0.4:
            zs.append(complex(z))
        if len(zs) == 80:
            break
    zs += [complex(r, i) for r, i in zip(np.linspace(-5, 20, 20), np.linspace(0.5, 4.0, 20))]
    assert len(zs) == 100
    pt = laplace.KernelPoint(0.3, 0.7)
    worst = 0.0
    for z in zs:
        s = SpectralPoint.from_z(z)
        s_neg = SpectralPoint.from_k(-s.k)
        for fn in (
            lambda q: laplace.green_dd_spectral(pt, q),
            lambda q: laplace.spectral_difference(pt, q),
            lambda q: laplace.ramp_response(0.6, q),
            lambda q: laplace.deflected_ramp(0.6, q),
            laplace.scalar_pairing,
            laplace.krein_denominator,
        ):
            a, b = fn(s), fn(s_neg)
            worst = max(worst, abs(a - b) / max(1.0, abs(a)))
    _criterion(9, "branch-independence", worst <= 1e-14, f"max dev={worst:.3e}")


def test_criterion_10_verify_command(capsys):
    start = time.perf_counter()
    code = cli.main(["verify"])
    elapsed = time.perf_counter() - start
    captured = capsys.readouterr()
    rows = [line for line in captured.out.splitlines()[1:] if line]
    with capsys.disabled():
        ok = code == 0 and elapsed < 60.0 and len(rows) >= 12
        _criterion(10, "verify-command", ok, f"exit={code} time={elapsed:.1f}s rows={len(rows)}")
