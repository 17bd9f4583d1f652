import os
import subprocess
import sys

import numpy as np
import pytest

from derham_lft import _kernels, walk_system
from derham_lft.measure import _float_params, _uniforms


@pytest.fixture(scope="module")
def params():
    return _float_params(walk_system(0.5))


def test_jit_and_python_paths_agree_bitwise(params):
    if not _kernels.using_numba():
        pytest.skip("numba unavailable or disabled")
    u = _uniforms(314, 50_000)
    d_jit = np.empty(u.size, dtype=np.uint8)
    s_jit = np.empty(u.size, dtype=np.float64)
    _kernels.path_arrays(*params, 0.0, u, d_jit, s_jit)
    d_py = np.empty(u.size, dtype=np.uint8)
    s_py = np.empty(u.size, dtype=np.float64)
    _kernels.path_arrays.py_func(*params, 0.0, u, d_py, s_py)
    assert np.array_equal(d_jit, d_py)
    assert np.array_equal(s_jit, s_py)


def test_env_flag_forces_fallback():
    code = (
        "from derham_lft import _kernels; "
        "print(_kernels.using_numba(), _kernels.path_arrays is _kernels._path_arrays)"
    )
    env = dict(os.environ, NUMBA_DISABLE_JIT="1")
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.split() == ["False", "True"]


def test_default_uses_numba_when_available():
    try:
        import numba  # noqa: F401
    except ImportError:
        pytest.skip("numba not installed")
    env = {k: v for k, v in os.environ.items() if k != "NUMBA_DISABLE_JIT"}
    code = "from derham_lft import _kernels; print(_kernels.using_numba())"
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "True"


def test_sampling_identical_under_fallback(params):
    code = """
import numpy as np
from derham_lft import sample_path, walk_system
p = sample_path(walk_system(0.5), 20000, seed=321)
print(int(p.digits.sum()), repr(float(p.states.sum())))
"""
    outs = []
    for flag in ("0", "1"):
        env = dict(os.environ, NUMBA_DISABLE_JIT=flag)
        out = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
        )
        outs.append(out.stdout)
    assert outs[0] == outs[1]
