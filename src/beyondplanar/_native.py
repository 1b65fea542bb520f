"""Kernel selection: the compiled kernels when the library is built, pure Python otherwise.

`python3 setup.py build_ext --inplace` builds _kernels.c into the library
file found here; without it the package runs _kernels_py, with identical
results.
"""

from __future__ import annotations

import os
from importlib.machinery import EXTENSION_SUFFIXES

from . import _kernels_py


def find_library(directory: str) -> str | None:
    """Path of the built kernel library in `directory`, or None."""
    for suffix in EXTENSION_SUFFIXES:
        path = os.path.join(directory, "_kernels_lib" + suffix)
        if os.path.isfile(path):
            return path
    return None


_path = find_library(os.path.dirname(__file__))
if _path is None:
    _impl = _kernels_py
else:
    from ._kernels_c import CompiledKernels

    _impl = CompiledKernels(_path)

IMPLEMENTATION: str = _impl.IMPLEMENTATION
max_clique = _impl.max_clique
max_conflict_bounded_set = _impl.max_conflict_bounded_set
