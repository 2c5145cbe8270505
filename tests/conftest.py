"""Shared test helpers."""
import tracemalloc

import pytest


def _peak_traced_bytes(fn, *args):
    """The peak of the memory tracemalloc traces while fn(*args) runs, in
    bytes. fn runs once untraced first, so that what its first call sets up
    (a lazy import, such as kernels.gelu_fwd's scipy.special) is not counted,
    whichever test ran first; the second call is traced."""
    fn(*args)
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.fixture
def peak_traced_bytes():
    """peak_traced_bytes(fn, *args): the peak bytes tracemalloc traces while
    a second call of fn(*args) runs. A fixture, so that no test imports a
    conftest module by name, which another test directory's conftest can
    shadow."""
    return _peak_traced_bytes
