"""Fixtures shared by the test modules."""
import numpy as np
import pytest

# The BLAS build, and whether the CPU has AVX-512, under which the digests
# of simulated costs and `verify` lines in test_cli.py and test_acceptance.py
# were recorded. Those bytes follow the summation order of the BLAS dot and
# matrix-vector kernels, which differs between BLAS builds and between the
# CPU kernels one build dispatches to.
PINNED_BLAS = ("scipy-openblas 0.3.31.188.0", True)


def _blas():
    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    features = np._core._multiarray_umath.__cpu_features__
    return f"{blas.get('name')} {blas.get('version')}", bool(features.get("AVX512F"))


@pytest.fixture
def pinned_blas():
    """Skip a digest test on a BLAS build other than the recorded one."""
    if _blas() != PINNED_BLAS:
        pytest.skip(f"digests recorded under {PINNED_BLAS}, this is {_blas()}")
