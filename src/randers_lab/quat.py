"""Quaternion helpers, real-first convention q = [w, x, y, z].

All functions broadcast over leading axes; the quaternion lives in the
last axis (size 4). Pure imaginary quaternions double as su(2) elements.
"""
from __future__ import annotations

import itertools

import numpy as np


def qmul(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Hamilton product p*q, broadcasting over leading axes."""
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    pw, px, py, pz = p[..., 0], p[..., 1], p[..., 2], p[..., 3]
    qw, qx, qy, qz = q[..., 0], q[..., 1], q[..., 2], q[..., 3]
    return np.stack(
        [
            pw * qw - px * qx - py * qy - pz * qz,
            pw * qx + px * qw + py * qz - pz * qy,
            pw * qy - px * qz + py * qw + pz * qx,
            pw * qz + px * qy - py * qx + pz * qw,
        ],
        axis=-1,
    )


def qconj(q: np.ndarray) -> np.ndarray:
    q = np.asarray(q, dtype=float)
    return q * np.array([1.0, -1.0, -1.0, -1.0])


def binary_icosahedral() -> np.ndarray:
    """The 120 unit quaternions of the binary icosahedral group 2I, shape
    (120, 4), the identity first: the 8 units +-1, +-i, +-j, +-k, the 16
    (+-1 +-i +-j +-k)/2, and the 96 even permutations of
    (0, +-1, +-phi, +-1/phi)/2, phi the golden ratio."""
    phi = (1.0 + np.sqrt(5.0)) / 2.0
    units = np.vstack([np.eye(4), -np.eye(4)])
    halves = np.array(list(itertools.product((0.5, -0.5), repeat=4)))
    signed = np.array(list(itertools.product((1.0, -1.0), repeat=3))) * [0.5, phi / 2, 0.5 / phi]
    golden = np.hstack([np.zeros((8, 1)), signed])
    even = [p for p in itertools.permutations(range(4))
            if sum(a > b for a, b in itertools.combinations(p, 2)) % 2 == 0]
    return np.vstack([units, halves, *(golden[:, p] for p in even)])
