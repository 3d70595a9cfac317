"""LAPACK's dstebz and d/z getrf, getrs, gttrf, gttrs, gtcon, from scipy's compiled wrappers.

``scipy.linalg.lapack`` re-exports the f2py functions of the extension
module ``scipy/linalg/_flapack``.  Importing it runs ``scipy/__init__``
and ``scipy/linalg/__init__`` first, ~0.3 s; loading the extension from
its file takes a few milliseconds and yields the same function objects,
so every result is bit-identical.  When the file cannot be found or
loaded, the routines come from the public ``scipy.linalg.lapack``.
Import this module only where a matrix is factored.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import os

_NAME = "scipy.linalg._flapack"


def _extension_path() -> str | None:
    """Path of scipy's ``_flapack`` extension file, or None when it is not there."""
    spec = importlib.util.find_spec("scipy")
    if spec is None or not spec.submodule_search_locations:
        return None
    for root in spec.submodule_search_locations:
        for suffix in importlib.machinery.EXTENSION_SUFFIXES:
            path = os.path.join(root, "linalg", "_flapack" + suffix)
            if os.path.isfile(path):
                return path
    return None


def _load():
    """scipy's ``_flapack`` loaded from its file, without running a scipy ``__init__``.

    Falls back to ``scipy.linalg.lapack`` when the file is missing or fails to load.
    """
    path = _extension_path()
    if path is not None:
        loader = importlib.machinery.ExtensionFileLoader(_NAME, path)
        spec = importlib.util.spec_from_file_location(_NAME, path, loader=loader)
        try:
            module = importlib.util.module_from_spec(spec)
            loader.exec_module(module)
            return module
        except ImportError:  # not a loadable extension for this interpreter
            pass
    from scipy.linalg import lapack

    return lapack


_wrappers = _load()
dstebz = _wrappers.dstebz
dgetrf, zgetrf = _wrappers.dgetrf, _wrappers.zgetrf
dgetrs, zgetrs = _wrappers.dgetrs, _wrappers.zgetrs
dgtcon, zgtcon = _wrappers.dgtcon, _wrappers.zgtcon
dgttrf, zgttrf = _wrappers.dgttrf, _wrappers.zgttrf
dgttrs, zgttrs = _wrappers.dgttrs, _wrappers.zgttrs


def for_dtype(name: str, dtype):
    """The d routine ``name`` (getrf, getrs, gttrf, gttrs, gtcon) for real arrays of ``dtype``, the z one for complex."""
    return globals()[("z" if dtype.kind == "c" else "d") + name]
