import pytest

from onebit_isac import linalg


@pytest.fixture
def blas_controls():
    """(get, set) thread-count functions of each loaded OpenBLAS build, each
    set to 2 threads for the test, so that a count left at 1 shows; the
    counts the test found are restored after it. Skips where no build is
    found."""
    controls = linalg._blas_thread_controls()
    if not controls:
        pytest.skip("no OpenBLAS build with a thread-count symbol is loaded")
    saved = [get() for get, _ in controls]
    for _, put in controls:
        put(2)
    yield controls
    for (_, put), count in zip(controls, saved):
        put(count)
