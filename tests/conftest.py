from __future__ import annotations

import numpy as np
import pytest

from randers_lab.killing import EuclideanKilling, GroupKilling, hopf_field, standard_J
from randers_lab.randers import NavigationData
from randers_lab.selftest import fixture_navs
from randers_lab.spaces import CompactGroup, Euclidean, Product, Sphere


def conjugated_hopf(k: int, c: float, seed: int) -> np.ndarray:
    """c * Q J Q^T for a seeded random orthogonal Q: on S^{2k-1} these
    are exactly the rotation generators of constant length."""
    Q, _ = np.linalg.qr(np.random.default_rng(seed).normal(size=(2 * k, 2 * k)))
    return c * Q @ standard_J(k) @ Q.T


# the anti-Hopf wind 0.3 * (R + -R), R = [[0, -1], [1, 0]]: constant
# length, but not a multiple of the standard J
ANTI_HOPF = 0.3 * np.array([[0.0, -1, 0, 0], [1, 0, 0, 0], [0, 0, 0, 1], [0, 0, -1, 0]])


@pytest.fixture(scope="session")
def navs():
    return fixture_navs()


@pytest.fixture
def e2():
    return Euclidean(2)


@pytest.fixture
def s3():
    return Sphere(3, 1.0)


@pytest.fixture
def su2():
    return CompactGroup("SU2", 1.0)


@pytest.fixture
def e2_nav(e2):
    """The hand-checked fixture: flat plane, wind (1/2, 0)."""
    return NavigationData(e2, EuclideanKilling(e2, np.array([0.5, 0.0])))


@pytest.fixture
def hopf_nav(s3):
    return NavigationData(s3, hopf_field(s3, 0.3))


@pytest.fixture
def su2_nav(su2):
    return NavigationData(su2, GroupKilling(su2, np.array([0.0, 0.3, 0.0, 0.0]), np.zeros(4)))


@pytest.fixture
def rng():
    return np.random.default_rng(1234)
