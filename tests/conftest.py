import pytest

from prefetchlab import lstm


@pytest.fixture
def one_blas_thread():
    """OpenBLAS held at one thread, as training holds it, and given back its
    count after. Lanes run only beside OpenBLAS, so without it the test is
    skipped."""
    threads = lstm.blas_threads(set_to=1)
    if threads is None:
        pytest.skip("numpy links no OpenBLAS")
    yield
    lstm.blas_threads(set_to=threads)
