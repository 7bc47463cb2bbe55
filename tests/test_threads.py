"""Importing meshreform limits BLAS/OpenMP threads to one unless the user
chose a count, or numpy was loaded first (its pools are sized by then)."""

import os
import subprocess
import sys

import pytest

import meshreform

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SRC = os.path.dirname(os.path.dirname(os.path.abspath(meshreform.__file__)))


def _threads_after(imports, preset):
    env = {k: v for k, v in os.environ.items() if k not in THREAD_VARS}
    env.update(preset)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, os.environ.get("PYTHONPATH")) if p)
    code = (f"import os; {imports}; "
            f"print(*(os.environ.get(v, '-') for v in {THREAD_VARS!r}))")
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, check=True)
    return out.stdout.split()


@pytest.mark.parametrize("imports, preset, want", [
    ("import meshreform", {}, ["1", "1", "1"]),
    ("import meshreform", {"OPENBLAS_NUM_THREADS": "2"}, ["2", "1", "1"]),
    ("import numpy, meshreform", {}, ["-", "-", "-"]),
])
def test_blas_thread_default(imports, preset, want):
    assert _threads_after(imports, preset) == want
