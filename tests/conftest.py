import signal

import pytest

from riccikit import families
from riccikit.graphs import Graph

TEST_SECONDS = 120  # far above the slowest test, which takes a few seconds


@pytest.fixture(autouse=True)
def time_limit():
    """Fail a test that runs past TEST_SECONDS instead of letting the suite hang."""

    def expire(signum, frame):
        # pytest.fail, not a plain exception: one raised from a signal handler
        # can surface as an INTERNALERROR instead of a failed test.
        pytest.fail(f"test ran past its {TEST_SECONDS} s limit", pytrace=False)

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(TEST_SECONDS)
    yield
    signal.alarm(0)
    signal.signal(signal.SIGALRM, previous)


@pytest.fixture(scope="session")
def k2():
    return families.complete(2)[0]


@pytest.fixture(scope="session")
def k3():
    return families.complete(3)[0]


@pytest.fixture(scope="session")
def c6():
    return families.cycle(6)[0]


@pytest.fixture(scope="session")
def path3():
    return Graph([(0, 1), (1, 2)])


@pytest.fixture(scope="session")
def k4_minus_edge():
    # complete on {0,1,2,3} without the 0-1 edge
    return Graph([(0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])


@pytest.fixture(scope="session")
def figure1_pair():
    return families.figure1()
