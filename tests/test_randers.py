from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from randers_lab.killing import EuclideanKilling, hopf_field, zero_field
from randers_lab.randers import (
    NavigationData,
    NotRanders,
    WindTooStrong,
    defining_to_nav_matrices,
    from_navigation,
    fundamental_tensor,
    nav_to_defining_matrices,
    to_navigation,
)
from randers_lab.spaces import Euclidean, Sphere, random_tangent

# the hand-worked plane fixture: h = I, W = (1/2, 0)
A_FIX = np.array([[16.0 / 9.0, 0.0], [0.0, 4.0 / 3.0]])
B_FIX = np.array([-2.0 / 3.0, 0.0])


def test_matrix_conversion_fixture():
    a, b = nav_to_defining_matrices(np.eye(2), np.array([0.5, 0.0]))
    np.testing.assert_allclose(a, A_FIX, atol=1e-14)
    np.testing.assert_allclose(b, B_FIX, atol=1e-14)


def test_matrix_conversion_fixture_reverse():
    h, w = defining_to_nav_matrices(A_FIX, B_FIX)
    np.testing.assert_allclose(h, np.eye(2), atol=1e-14)
    np.testing.assert_allclose(w, [0.5, 0.0], atol=1e-14)


def test_zero_wind_is_identity_conversion():
    h = np.diag([2.0, 3.0, 5.0])
    a, b = nav_to_defining_matrices(h, np.zeros(3))
    np.testing.assert_array_equal(a, h)
    np.testing.assert_array_equal(b, 0.0)


@given(st.integers(2, 5), st.integers(0, 10_000))
@settings(max_examples=60, deadline=None)
def test_matrix_round_trip_random(dim, seed):
    rng = np.random.default_rng(seed)
    q = rng.normal(size=(dim, dim))
    h = q @ q.T + dim * np.eye(dim)
    w = rng.normal(size=dim)
    hw = np.sqrt(w @ h @ w)
    if hw > 0:
        w *= rng.uniform(0.0, 0.95) / hw
    a, b = nav_to_defining_matrices(h, w)
    h2, w2 = defining_to_nav_matrices(a, b)
    np.testing.assert_allclose(h2, h, atol=1e-10 * np.abs(h).max())
    np.testing.assert_allclose(w2, w, atol=1e-10)


def test_wind_too_strong_raises():
    with pytest.raises(WindTooStrong):
        nav_to_defining_matrices(np.eye(2), np.array([1.0, 0.0]))


def test_not_randers_raises():
    with pytest.raises(NotRanders):
        defining_to_nav_matrices(np.eye(2), np.array([1.0, 0.0]))


def test_norm_fixtures(e2_nav):
    x = np.zeros(2)
    assert e2_nav.finsler_norm(x, np.array([1.0, 0.0])) == pytest.approx(2.0 / 3.0, abs=1e-14)
    assert e2_nav.finsler_norm(x, np.array([-1.0, 0.0])) == pytest.approx(2.0, abs=1e-14)
    assert e2_nav.finsler_norm(x, np.array([0.5, 0.0])) == pytest.approx(1.0 / 3.0, abs=1e-14)
    # the F-unit vector in the wind direction is W + e1
    assert e2_nav.finsler_norm(x, np.array([1.5, 0.0])) == pytest.approx(1.0, abs=1e-14)


def test_norm_zero_wind_is_h_norm(rng):
    s = Sphere(3, 1.0)
    nav = NavigationData(s, zero_field(s))
    x = s.sample(rng, 20)
    y = s.tangent_project(x, rng.normal(size=x.shape))
    hlen = np.sqrt(s.h_inner(x, y, y))
    np.testing.assert_allclose(nav.finsler_norm(x, y), hlen, atol=1e-13)


@pytest.mark.parametrize("scale", [0.5, 2.0, 10.0])
def test_norm_positive_homogeneity(hopf_nav, rng, scale):
    x = hopf_nav.space.sample(rng, 50)
    y = hopf_nav.space.tangent_project(x, rng.normal(size=x.shape))
    f = hopf_nav.finsler_norm(x, y)
    np.testing.assert_allclose(hopf_nav.finsler_norm(x, scale * y), scale * f, rtol=1e-12)


def test_norm_is_asymmetric(e2_nav):
    # F(y) != F(-y) whenever h(y, W) != 0
    x = np.zeros(2)
    y = np.array([1.0, 0.3])
    assert abs(e2_nav.finsler_norm(x, y) - e2_nav.finsler_norm(x, -y)) > 0.5


def test_indicatrix_identity(navs, rng):
    for nav in navs.values():
        x = nav.space.sample(rng, 100)
        u = random_tangent(nav.space, rng, x)
        y = nav.wind.evaluate(x) + u
        np.testing.assert_allclose(nav.finsler_norm(x, y), 1.0, atol=1e-12)


def test_defining_form_fixture(e2_nav):
    df = from_navigation(e2_nav, np.zeros(2))
    np.testing.assert_allclose(df.a, A_FIX, atol=1e-14)
    np.testing.assert_allclose(df.b, B_FIX, atol=1e-14)
    assert df.norm_defining(e2_nav.space, np.array([1.0, 0.0])) == pytest.approx(2.0 / 3.0, abs=1e-14)


def test_defining_form_hopf_constant_lambda(hopf_nav, rng):
    xs = hopf_nav.space.sample(rng, 10)
    for x in xs:
        assert float(hopf_nav.lam(x)) == pytest.approx(0.91, abs=1e-12)
        df = from_navigation(hopf_nav, x)
        w_coeff = df.frame @ hopf_nav.wind.evaluate(x)
        np.testing.assert_allclose(df.b, -w_coeff / 0.91, atol=1e-12)


def test_norm_agrees_across_representations(navs, rng):
    for nav in navs.values():
        xs = nav.space.sample(rng, 125)
        ys = nav.space.tangent_project(xs, rng.normal(size=xs.shape))
        for x, y in zip(xs, ys):
            df = from_navigation(nav, x)
            assert df.norm_defining(nav.space, y) == pytest.approx(
                float(nav.finsler_norm(x, y)), abs=1e-10)


def test_manifold_round_trip(hopf_nav, rng):
    x = hopf_nav.space.sample(rng, 1)[0]
    df = from_navigation(hopf_nav, x)
    h, wamb = to_navigation(df)
    np.testing.assert_allclose(h, np.eye(3), atol=1e-10)
    np.testing.assert_allclose(wamb, hopf_nav.wind.evaluate(x), atol=1e-10)


def test_fundamental_tensor_equals_h_when_windless(rng):
    e = Euclidean(3)
    nav = NavigationData(e, zero_field(e))
    x = np.zeros(3)
    y = rng.normal(size=3)
    g = fundamental_tensor(nav, x, y)
    np.testing.assert_allclose(g, np.eye(3), atol=1e-6)


def test_fundamental_tensor_positive_definite(e2_nav, rng):
    for _ in range(50):
        x = rng.uniform(-3, 3, size=2)
        y = rng.normal(size=2)
        g = fundamental_tensor(e2_nav, x, y)
        assert np.linalg.eigvalsh(g).min() > 0


def test_fundamental_tensor_zero_homogeneous(hopf_nav, rng):
    x = hopf_nav.space.sample(rng, 1)[0]
    y = random_tangent(hopf_nav.space, rng, x)
    g1 = fundamental_tensor(hopf_nav, x, y)
    g2 = fundamental_tensor(hopf_nav, x, 2.0 * y)
    np.testing.assert_allclose(g2, g1, atol=1e-6)


def test_fundamental_tensor_rejects_zero_direction(e2_nav):
    with pytest.raises(ValueError):
        fundamental_tensor(e2_nav, np.zeros(2), np.zeros(2))


# NavigationData validates the wind when it is built, from length_range

def test_validate_zero_wind():
    s = Sphere(3, 1.0)
    nav = NavigationData(s, zero_field(s))
    assert nav.wind.length_range() == (0.0, 0.0)


def test_validate_hopf(hopf_nav):
    lo, hi = hopf_nav.wind.length_range()
    assert lo == pytest.approx(0.3, abs=1e-12)
    assert hi == pytest.approx(0.3, abs=1e-12)


def test_validate_flags_overspeed_wind():
    e = Euclidean(2)
    for v in ([1.2, 0.0], [1.0, 0.0]):
        with pytest.raises(WindTooStrong):
            NavigationData(e, EuclideanKilling(e, np.array(v)))


def test_validate_accepts_near_unit_wind():
    e = Euclidean(2)
    nav = NavigationData(e, EuclideanKilling(e, np.array([0.985, 0.0])))
    assert nav.wind.length_range() == (0.985, 0.985)
