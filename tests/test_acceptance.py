"""Acceptance gate: the nine headline checks, one test each.

Each test prints a single PASS/FAIL line (run pytest with -s or read the
captured output) and asserts the criterion's verdict. The distance-oracle
criterion builds three 20k-node graphs and is the only slow one; point
RANDERS_LAB_CACHE at a writable directory to reuse graphs across runs.
"""
from __future__ import annotations

import time

from randers_lab import selftest


def _run(number, **kwargs):
    """Run one criterion, assert its verdict, and return its wall time
    (the result itself carries no timings, so it stays deterministic)."""
    t0 = time.perf_counter()
    result = selftest.CRITERIA[number](**kwargs)
    elapsed = time.perf_counter() - t0
    status = "PASS" if result["passed"] else "FAIL"
    print(f"CRITERION {number}: {status} ({result['name']})")
    assert result["passed"], result
    return elapsed


def test_criterion_1_conversion_round_trip():
    # 200 random (h, W) per space round-trip within 1e-10; Euclidean
    # fixture exact to 1e-14; < 1 s
    assert _run(1) < 1.0


def test_criterion_2_norm_fixtures_and_indicatrix():
    # F((1,0)) = 2/3, F((-1,0)) = 2, F(W) = 1/3 to 1e-14; F(W+u) = 1 to
    # 1e-12 on 500 h-unit u per space; < 1 s
    assert _run(2) < 1.0


def test_criterion_3_fundamental_tensor():
    # positive definite on 500 samples with wind up to 0.9; g = h at W=0
    # within 1e-6
    _run(3)


def test_criterion_4_flow_identity():
    # phi_{X+W;t} vs phi_{X;t} o phi_{W;t} < 1e-9, 100 samples, t in [0,2]
    _run(4)


def test_criterion_5_cw_displacement_constancy():
    # (max-min)/mean < 1e-4 at t=0.1 on the Hopf fixture; rotation
    # control fails by > 0.05; < 2 min
    assert _run(5) < 120.0


def test_criterion_6_distance_oracle_agreement():
    # 20 random pairs per space at n=20000 within 3%; Euclidean hand
    # values within 3%; < 5 min including builds
    assert _run(6) < 300.0


def test_criterion_7_direction_exhaustion():
    # worst matching residual < 1e-6 over 50 directions on all four spaces
    _run(7)


def test_criterion_8_cw_connection():
    # residual < 1e-6 on 10 nearby sphere pairs + 10 Euclidean pairs;
    # returned flows pass the displacement check
    _run(8)


def test_criterion_9_quasi_metric_axioms():
    # oriented triangle inequality on 1000 triples per space; asymmetry
    # > 0.05 somewhere when c >= 0.3; symmetric to 1e-9 when W = 0
    _run(9)
