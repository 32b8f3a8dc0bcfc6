"""Shared fixtures: small benchmark instances reused across the suite.

Problems cache their fitness table and global optimum, so session scope
builds each once.
"""

import pytest

from epilink.problems import (
    CNiah,
    CTrap,
    CycTrap,
    LeadingOnes,
    LeadingTraps,
    OneMax,
    fork_problem,
    weak_pair_problem,
)


@pytest.fixture(scope="session")
def onemax4():
    return OneMax(4)


@pytest.fixture(scope="session")
def onemax8():
    return OneMax(8)


@pytest.fixture(scope="session")
def leadingones5():
    return LeadingOnes(5)


@pytest.fixture(scope="session")
def ctrap8():
    return CTrap(2)


@pytest.fixture(scope="session")
def cniah4():
    return CNiah(1)


@pytest.fixture(scope="session")
def cniah8():
    return CNiah(2)


@pytest.fixture(scope="session")
def cyctrap12():
    return CycTrap(4)


@pytest.fixture(scope="session")
def leadingtraps8():
    return LeadingTraps(2)


@pytest.fixture(scope="session")
def weak_pair():
    return weak_pair_problem()


@pytest.fixture(scope="session")
def fork():
    return fork_problem()
