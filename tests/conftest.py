import pytest
from hypothesis import settings

from gkpkit import cli

# Tier-1 runs the same examples on every run and host: a fixed derandomized
# search, no example database carried between runs, no per-example deadline
settings.register_profile("tier1", derandomize=True, database=None, deadline=None)
settings.load_profile("tier1")


@pytest.fixture(autouse=True, scope="session")
def one_blas_thread():
    """Run every test under the CLI's BLAS-thread pin, so that in-process
    callers get the same last bits as the command line on any host."""
    with cli._one_blas_thread():
        yield
