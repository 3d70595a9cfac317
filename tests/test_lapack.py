import numpy as np
import pytest

from rankone import _lapack
from rankone.core import invert
from rankone.discretize import build_pair, dd_eigenvalues, eigenvalue_count, resolvent
from rankone.verification import random_operator

ROUTINES = ("dstebz", "zgetrf", "zgetrs", "dgtcon", "zgtcon", "dgttrf", "zgttrf", "dgttrs", "zgttrs")


def _bits(values) -> list:
    """Dtype, shape and raw bytes of each value: equal iff bit-identical, NaN and -0 included."""
    return [(a.dtype.str, a.shape, a.tobytes()) for a in map(np.asarray, values)]


def _results() -> list:
    """Every LAPACK-backed result: factors, solves N and T, rcond, Sturm counts, dense inverses."""
    out = []
    for n in (2, 3, 1000):
        pair = build_pair(n)
        t, lam = pair.t_dd, dd_eigenvalues(pair)
        b = np.exp(1j * np.arange(n))
        for z in (1.5 + 0.5j, 30.0, float(lam[0]) + 1e-6):
            r = resolvent(t, z)
            anorm = float(np.max(np.abs(z * np.eye(n) - t.matrix).sum(axis=0)))
            gtcon = _lapack.for_dtype("gtcon", r.dtype)
            out += [*r.factors, r.apply(b), r.apply_left(b), r.apply(b.real), gtcon(*r.factors, anorm)[0]]
        out += [eigenvalue_count(t, lo, hi) for lo, hi in ((-1.0, float(lam[-1]) / 2), (0.0, 1e9), (5.0, 5.5))]
    for dim in (4, 64):
        out.append(invert(random_operator(np.random.default_rng(dim), dim)).matrix)
    return out


def test_routines_load_without_the_public_scipy_linalg():
    assert _lapack._wrappers.__name__ == "scipy.linalg._flapack"
    assert _lapack._wrappers.__file__ == _lapack._extension_path()


@pytest.mark.parametrize("lookup", ["missing", "unloadable"])
def test_fallback_gives_bit_identical_results(monkeypatch, tmp_path, lookup):
    from scipy.linalg import lapack

    broken = tmp_path / "_flapack.so"
    broken.write_bytes(b"not a shared object")
    monkeypatch.setattr(_lapack, "_extension_path", lambda: None if lookup == "missing" else str(broken))
    fallback = _lapack._load()
    assert fallback is lapack
    direct = _results()
    for name in ROUTINES:
        assert callable(getattr(fallback, name))
        monkeypatch.setattr(_lapack, name, getattr(fallback, name))
    assert _bits(_results()) == _bits(direct)
