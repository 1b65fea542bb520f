"""Session fixture: the compiled search kernels, built from source for the test run."""

import os
import shutil
import subprocess
import sys
import sysconfig
from pathlib import Path

import pytest

from beyondplanar import _native

ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture(scope="session")
def compiled_kernels(tmp_path_factory):
    """_kernels.c built by setup.py's recipe into a temporary directory, never into src/."""
    compiler = (os.environ.get("CC") or sysconfig.get_config_var("CC") or "cc").split()[0]
    if shutil.which(compiler) is None:
        pytest.skip(f"no C compiler found ({compiler}); the compiled kernels are untested")
    out = tmp_path_factory.mktemp("kernels")
    cmd = [sys.executable, "setup.py", "build_ext", "--build-lib", str(out), "--build-temp", str(out)]
    subprocess.run(cmd, cwd=ROOT, check=True, stdout=subprocess.DEVNULL)
    path = _native.find_library(str(out / "beyondplanar"))
    if path is None:
        pytest.fail("setup.py build_ext built no kernel library; see its warnings above")
    from beyondplanar._kernels_c import CompiledKernels

    return CompiledKernels(path)
