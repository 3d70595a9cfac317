"""Fixtures shared by the test modules."""

import mpmath as mp
import pytest


def _mp_kernel(which, k, x, xi):
    """The spectral kernel dd, dn or diff at k, at 30 digits, in its textbook quotient form."""
    with mp.workdps(30):
        k = mp.mpc(k)
        a, b = min(x, xi), 1.0 - max(x, xi)
        if which == "dd":
            return complex(-mp.sin(k * a) * mp.sin(k * b) / (k * mp.sin(k)))
        if which == "dn":
            return complex(-mp.sin(k * a) * mp.cos(k * b) / (k * mp.cos(k)))
        return complex(-mp.sin(k * x) * mp.sin(k * xi) / (k * mp.sin(k) * mp.cos(k)))


@pytest.fixture
def lapack_calls(monkeypatch):
    """``calls(*names)``: the list of the d and z LAPACK routines ``names`` called from then on, in call order."""
    from rankone import _lapack

    def calls(*names) -> list:
        called = []
        for routine in (prefix + name for name in names for prefix in "dz"):

            def counted(*args, _routine=routine, _call=getattr(_lapack, routine), **kwargs):
                called.append(_routine)
                return _call(*args, **kwargs)

            monkeypatch.setattr(_lapack, routine, counted)
        return called

    return calls


@pytest.fixture
def mp_kernel():
    """The 30-digit oracle of the spectral kernels, for the kernel functions and the CLI's kernel tables."""
    return _mp_kernel
