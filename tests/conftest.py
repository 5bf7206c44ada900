import pytest

from gkpkit import cli


@pytest.fixture(autouse=True, scope="session")
def one_blas_thread():
    """Run every test under the CLI's BLAS-thread pin, so that in-process
    callers get the same last bits as the command line on any host."""
    with cli._one_blas_thread():
        yield
