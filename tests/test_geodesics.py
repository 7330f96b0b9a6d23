from __future__ import annotations

import numpy as np
import pytest

from randers_lab.geodesics import (
    NoMatchingField,
    RootNotBracketed,
    f_distance,
    f_distance_batch,
    f_geodesic_flowcurve,
    f_geodesic_ode,
)
from randers_lab.killing import EuclideanKilling, SphereKilling, hopf_field, zero_field
from randers_lab.randers import NavigationData, WindTooStrong
from randers_lab.spaces import Euclidean, Sphere, random_tangent


def test_flowcurve_euclidean_fixture(e2_nav):
    # W = (1/2,0), y = (3/2,0): X = (1,0), curve (3t/2, 0), F-length 1 on [0,1]
    curve = f_geodesic_flowcurve(e2_nav, np.zeros(2), np.array([1.5, 0.0]), T=1.0)
    np.testing.assert_allclose(curve.points[-1], [1.5, 0.0], atol=1e-12)
    mid = curve.points[len(curve) // 2]
    np.testing.assert_allclose(mid[1], 0.0, atol=1e-12)
    # F-arc-length of [0, t] equals t for unit-speed flow curves
    assert f_distance(e2_nav, np.zeros(2), curve.points[-1]) == pytest.approx(1.0, abs=1e-9)


def test_flowcurve_requires_unit_speed(e2_nav):
    with pytest.raises(NoMatchingField):
        f_geodesic_flowcurve(e2_nav, np.zeros(2), np.array([3.0, 0.0]), T=1.0)


def test_flowcurve_windless_sphere_is_great_circle(rng):
    s = Sphere(3, 1.0)
    nav = NavigationData(s, zero_field(s))
    x = s.sample(rng, 1)[0]
    u = random_tangent(s, rng, x)
    curve = f_geodesic_flowcurve(nav, x, u, T=1.0, n_steps=50)
    expected = s.h_exp(x, u, curve.ts)
    np.testing.assert_allclose(curve.points, expected, atol=1e-9)


def test_flowcurve_no_match_off_family(e2_nav):
    # a vector of the wrong F-norm can't be hit; unit but unreachable can't
    # happen on Euclidean (translations cover everything), so check the norm gate
    with pytest.raises(NoMatchingField):
        f_geodesic_flowcurve(e2_nav, np.zeros(2), np.array([0.0, 2.0]))


def test_ode_flat_windless_straight(rng):
    e = Euclidean(2)
    nav = NavigationData(e, zero_field(e))
    x = np.array([0.5, -1.0])
    y = np.array([0.6, 0.8])
    curve = f_geodesic_ode(nav, x, y, T=1.0, step=1e-2)
    expected = x + curve.ts[:, None] * y
    np.testing.assert_allclose(curve.points, expected, atol=1e-9)
    assert not curve.diverged


def test_ode_minkowski_straight(e2_nav):
    # translation-invariant norm: geodesics remain straight lines
    x = np.zeros(2)
    y = np.array([1.0, 1.0])
    y = y / e2_nav.finsler_norm(x, y)
    curve = f_geodesic_ode(e2_nav, x, y, T=1.0, step=1e-2)
    # collinearity with y
    cross = curve.points[:, 0] * y[1] - curve.points[:, 1] * y[0]
    np.testing.assert_allclose(cross, 0.0, atol=1e-8)


def test_ode_matches_flowcurve_on_hopf(hopf_nav):
    rng = np.random.default_rng(17)
    from randers_lab.killing import constant_length_family

    fam = constant_length_family(hopf_nav)
    x = hopf_nav.space.sample(rng, 1)[0]
    X = fam.random_member(rng, 1.0)
    y = (X + hopf_nav.wind).evaluate(x)
    flow_curve = f_geodesic_flowcurve(hopf_nav, x, y, T=1.0, n_steps=1000)
    ode_curve = f_geodesic_ode(hopf_nav, x, y, T=1.0, step=1e-3)
    assert not ode_curve.diverged
    sup = np.abs(flow_curve.points - ode_curve.points).max()
    assert sup < 1e-5


# --- distances ----------------------------------------------------------------

def test_distance_identical_points(hopf_nav, rng):
    x = hopf_nav.space.sample(rng, 1)[0]
    assert f_distance(hopf_nav, x, x) <= 1e-12


def test_distance_refuses_wind_of_length_one_or_more(e2):
    # g(t) = d_h(x, phi_{W;-t}(y)) - t has no root once |W| >= 1, so the
    # wind is refused where the navigation data is built
    with pytest.raises(WindTooStrong):
        NavigationData(e2, EuclideanKilling(e2, np.array([1.2, 0.0])))


def test_distance_raises_when_length_range_under_reports(e2_nav, monkeypatch):
    # against the wind d_F = 2 > d_h = 1; a bound of 0 ends the bracket at 1
    monkeypatch.setattr(EuclideanKilling, "length_range", lambda self: (0.0, 0.0))
    with pytest.raises(RootNotBracketed):
        f_distance(e2_nav, np.array([1.0, 0.0]), np.zeros(2))


def test_distance_brackets_with_the_exact_wind_maximum(s3):
    # rotation blocks (0.6, 0.05): against the 0.6 block the net angular
    # speed is 0.4, so the angle 0.1 takes 0.25, and the root sits at the
    # end of the bracket [0, d_h / (1 - 0.6)]
    A = np.zeros((4, 4))
    A[1, 0], A[0, 1], A[3, 2], A[2, 3] = 0.6, -0.6, 0.05, -0.05
    nav = NavigationData(s3, SphereKilling(s3, A))
    y = np.array([np.cos(0.1), -np.sin(0.1), 0.0, 0.0])
    assert f_distance(nav, np.array([1.0, 0.0, 0.0, 0.0]), y) == pytest.approx(0.25, abs=1e-9)


def test_distance_euclidean_fixture(e2_nav):
    o = np.zeros(2)
    p = np.array([1.0, 0.0])
    assert f_distance(e2_nav, o, p) == pytest.approx(2.0 / 3.0, abs=1e-9)
    assert f_distance(e2_nav, p, o) == pytest.approx(2.0, abs=1e-9)


def test_distance_equals_minkowski_norm(e2_nav, rng):
    # flat space with constant wind: d(x,y) = F(y - x)
    for _ in range(20):
        x, y = rng.uniform(-4, 4, size=(2, 2))
        expected = float(e2_nav.finsler_norm(x, y - x))
        assert f_distance(e2_nav, x, y) == pytest.approx(expected, abs=1e-9)


def test_distance_windless_sphere_is_arc(rng):
    s = Sphere(3, 1.0)
    nav = NavigationData(s, zero_field(s))
    xs = s.sample(rng, 10)
    ys = s.sample(rng, 10)
    d = f_distance_batch(nav, xs, ys)
    np.testing.assert_allclose(d, s.h_distance(xs, ys), atol=1e-9)


def test_distance_consistency_along_geodesic(hopf_nav):
    rng = np.random.default_rng(23)
    from randers_lab.killing import constant_length_family

    fam = constant_length_family(hopf_nav)
    x = hopf_nav.space.sample(rng, 1)[0]
    X = fam.random_member(rng, 1.0)
    y = (X + hopf_nav.wind).evaluate(x)
    curve = f_geodesic_flowcurve(hopf_nav, x, y, T=1.2, n_steps=12)
    for t, p in zip(curve.ts, curve.points):
        if t == 0.0 or t > 1.0:  # stay below the minimality horizon
            continue
        assert f_distance(hopf_nav, x, p) == pytest.approx(t, abs=1e-6)


def test_distance_asymmetry_appears_with_wind(hopf_nav):
    rng = np.random.default_rng(31)
    xs = hopf_nav.space.sample(rng, 100)
    ys = hopf_nav.space.sample(rng, 100)
    fwd = f_distance_batch(hopf_nav, xs, ys)
    bwd = f_distance_batch(hopf_nav, ys, xs)
    assert np.abs(fwd - bwd).max() > 0.05


def test_distance_symmetric_without_wind(rng):
    s = Sphere(3, 1.0)
    nav = NavigationData(s, zero_field(s))
    xs = s.sample(rng, 50)
    ys = s.sample(rng, 50)
    gap = np.abs(f_distance_batch(nav, xs, ys) - f_distance_batch(nav, ys, xs))
    assert gap.max() <= 1e-9


def test_distance_triangle_inequality(su2_nav):
    rng = np.random.default_rng(47)
    xs = su2_nav.space.sample(rng, 200)
    ys = su2_nav.space.sample(rng, 200)
    zs = su2_nav.space.sample(rng, 200)
    dxz = f_distance_batch(su2_nav, xs, zs)
    dxy = f_distance_batch(su2_nav, xs, ys)
    dyz = f_distance_batch(su2_nav, ys, zs)
    assert (dxz - dxy - dyz).max() <= 1e-9


def test_distance_batch_matches_scalar(hopf_nav, rng):
    xs = hopf_nav.space.sample(rng, 5)
    ys = hopf_nav.space.sample(rng, 5)
    batch = f_distance_batch(hopf_nav, xs, ys)
    singles = [f_distance(hopf_nav, x, y) for x, y in zip(xs, ys)]
    np.testing.assert_allclose(batch, singles, atol=1e-12)
