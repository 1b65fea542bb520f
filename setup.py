"""Build script: compiles the search kernels in _kernels.c into a shared library.

The package runs without it (see _native), so a failed compile only
warns. Build in place with `python3 setup.py build_ext --inplace`.
"""

from setuptools import Extension, setup

# _kernels_lib: a name no .py module has, since imports try extension files first.
kernels = Extension("beyondplanar._kernels_lib", ["src/beyondplanar/_kernels.c"], extra_compile_args=["-O3"], optional=True)
setup(ext_modules=[kernels])
