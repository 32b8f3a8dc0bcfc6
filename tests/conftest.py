"""Shared fixtures: small benchmark instances reused across the suite, and
the scalar block formulas the tests import.

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
    LookupTable,
    OneMax,
)


# trap4 and niah4 are the scalar reference formulas of the block kinds,
# against which the tests check the batched fitness.
def trap4(b0: int, b1: int, b2: int, b3: int) -> int:
    """Deceptive 4-bit trap: 4 when all ones, else 3 minus the number of ones."""
    u = b0 + b1 + b2 + b3
    return 4 if u == 4 else 3 - u


def niah4(b0: int, b1: int, b2: int, b3: int) -> int:
    """Needle in a haystack: 4 when all ones, 0 otherwise."""
    return 4 if b0 + b1 + b2 + b3 == 4 else 0


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
    """3-bit lookup problem carrying a weak order-2 epistasis onto locus 2.

    The pair {0,1} is epistatic to 2 (witness: locus 0 at 0, locus 1 at 1)
    while neither singleton is.
    """
    return LookupTable.from_pairs(
        3,
        {"111": 10, "001": 9, "101": 8, "010": 7, "011": 6},
        name="weak-pair-3bit",
    )


@pytest.fixture(scope="session")
def fork():
    """3-bit lookup problem where locus 0 is strictly epistatic to loci 1 and 2.

    Both (0,1,2) and (0,2,1) are proper decomposition orders.
    """
    return LookupTable.from_pairs(
        3,
        {"111": 10, "110": 9, "101": 9, "100": 8, "000": 7, "010": 6, "001": 6},
        name="fork-3bit",
    )
