from __future__ import annotations

import warnings

import numpy as np
import pytest

from randers_lab.geodesics import (
    NoMatchingField,
    RootNotBracketed,
    _slope,
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
    expected = s.h_exp(x, curve.ts[:, None] * u)
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


@pytest.mark.parametrize("nav", ["e2_nav", "hopf_nav"])
def test_distance_refuses_non_finite_rows(nav, request):
    # a NaN row fails every comparison, so it would read as distance 0; a
    # point at infinity has a finite chord distance on the sphere
    nav = request.getfixturevalue(nav)
    x = nav.space.sample(np.random.default_rng(0), 3)
    y = x[::-1].copy()
    y[1, 0], y[2, 0] = np.nan, np.inf
    with pytest.raises(ValueError, match=r"2 of 3 rows are not, the first \[1, 2\]"):
        f_distance_batch(nav, x, y)


@pytest.mark.parametrize("nav", ["e2_nav", "hopf_nav"])
def test_distance_refuses_misaligned_pairs(nav, request):
    # 3 rows against 1 used to index out of bounds, and 2 against 3 to fail
    # in numpy's broadcasting
    nav = request.getfixturevalue(nav)
    x = nav.space.sample(np.random.default_rng(0), 3)
    with pytest.raises(ValueError, match="^f_distance: xs has 3 rows but ys has 1; pairs are"):
        f_distance_batch(nav, x, x[:1])
    with pytest.raises(ValueError, match="xs has 2 rows but ys has 3"):
        f_distance_batch(nav, x[:2], x)


def test_distance_refuses_points_of_another_shape(hopf_nav):
    # 3-coordinate rows on S^3 used to end in numpy's matmul error, and a
    # 2-row x in f_distance in a broadcast error
    x = hopf_nav.space.sample(np.random.default_rng(0), 2)
    says = (r"^f_distance: points here are 4 coordinates \(ambient_dim\), "
            r"got points of shape \(3,\) and \(3,\)$")
    with pytest.raises(ValueError, match=says):
        f_distance_batch(hopf_nav, x[:, :3], x[:, :3])
    with pytest.raises(ValueError, match=r"shape \(4,\) and \(5,\)$"):
        f_distance_batch(hopf_nav, x, np.hstack([x, x[:, :1]]))
    with pytest.raises(ValueError, match=r"shape \(2, 4\) and \(4,\)$"):
        f_distance(hopf_nav, x, x[0])


def test_distance_refuses_an_infinite_h_distance(e2_nav):
    # finite points whose difference overflows
    says = r"finite h-distance; 1 of 2 rows are not, the first \[1\]"
    with np.errstate(over="ignore"), pytest.raises(ValueError, match=says):
        f_distance_batch(e2_nav, [[0.0, 0.0], [1e308, 0.0]], [[1.0, 0.0], [-1e308, 0.0]])


def test_distance_brackets_with_the_exact_wind_maximum(s3):
    # rotation blocks (0.6, 0.05): against the 0.6 block the net angular
    # speed is 0.4, so the angle 0.1 takes 0.25, and the root sits at the
    # end of the bracket [0, d_h / (1 - 0.6)]
    A = np.zeros((4, 4))
    A[1, 0], A[0, 1], A[3, 2], A[2, 3] = 0.6, -0.6, 0.05, -0.05
    nav = NavigationData(s3, SphereKilling(s3, A))
    y = np.array([np.cos(0.1), -np.sin(0.1), 0.0, 0.0])
    assert f_distance(nav, np.array([1.0, 0.0, 0.0, 0.0]), y) == pytest.approx(0.25, abs=1e-9)


@pytest.mark.parametrize("seed", [496, 1062, 193578])
def test_distance_along_the_wind_next_to_the_cut_locus(su2_nav, seed):
    # z lies 1e-7 short of the antipode of x0 and x1 is z carried by the
    # wind for t = d_h(x0, z), so d_F(x0, x1) = t is the end of the bracket
    # [0, d_h / (1 - |W|)], where h_distance rounds by about 1e-8
    space = su2_nav.space
    rng = np.random.default_rng(seed)
    x0 = space.sample(rng, 1)[0]
    z = space.h_exp(x0, (np.pi - 1e-7) * random_tangent(space, rng, x0))
    t = float(space.h_distance(x0, z))
    x1 = su2_nav.wind.flow(z, t)
    assert f_distance(su2_nav, x0, x1) == pytest.approx(t, abs=1e-8)


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


# --- the Newton solver ---------------------------------------------------------

FIXTURES = ["euclidean", "sphere-hopf", "su2-left", "product"]


def _nav(navs, name):
    if name == "hopf-0.9":
        s3 = Sphere(3, 1.0)
        return NavigationData(s3, hopf_field(s3, 0.9))
    return navs[name]


def _bisect(nav, x, y):
    """The root of g(t) = d_h(x, phi_{W;-t}(y)) - t by plain bisection to
    rounding on the same bracket: a second route to f_distance_batch."""
    space = nav.space
    lo = np.zeros(len(x))
    hi = space.h_distance(x, y) * (1.0 + 1e-5) / (1.0 - nav.wind.length_range()[1]) + 1e-12
    for _ in range(100):
        mid = 0.5 * (lo + hi)
        pos = space.h_distance(x, nav.wind.flow(y, -mid)) - mid > 0.0
        lo, hi = np.where(pos, mid, lo), np.where(pos, hi, mid)
    return 0.5 * (lo + hi)


@pytest.mark.parametrize("name", FIXTURES)
def test_slope_is_the_derivative_of_g(navs, name):
    # g'(t) = h(log_{y_t} x, W(y_t)) / d_h(x, y_t) - 1 against a central
    # difference; d_h(x, y_t) stays below 2.2, away from the cut locus at
    # pi, where d_h has a kink
    nav = navs[name]
    space = nav.space
    rng = np.random.default_rng(7)
    x = space.sample(rng, 500)
    y = space.h_exp(x, rng.uniform(0.1, 2.0, (500, 1)) * random_tangent(space, rng, x))
    t = rng.uniform(0.05, 0.5, 500)

    def g(s):
        return space.h_distance(x, nav.wind.flow(y, -s)) - s

    yt = nav.wind.flow(y, -t)
    d = space.h_distance(x, yt)
    slope = _slope(nav, x, yt, d)
    fd = 1e-5
    central = (g(t + fd) - g(t - fd)) / (2 * fd)
    np.testing.assert_allclose(slope, central, rtol=0, atol=1e-7)
    wmax = nav.wind.length_range()[1]
    assert np.all((slope >= -1 - wmax - 1e-12) & (slope <= -1 + wmax + 1e-12))


@pytest.mark.parametrize("name", FIXTURES + ["hopf-0.9"])
@pytest.mark.parametrize("apart", [3.1, 1e-8, None], ids=["near-antipodal", "1e-8", "random"])
def test_distance_agrees_with_plain_bisection(navs, name, apart):
    nav = _nav(navs, name)
    space = nav.space
    rng = np.random.default_rng(11)
    x = space.sample(rng, 300)
    y = space.sample(rng, 300) if apart is None else \
        space.h_exp(x, apart * random_tangent(space, rng, x))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        d = f_distance_batch(nav, x, y)
    np.testing.assert_allclose(d, _bisect(nav, x, y), rtol=0, atol=1e-10)


@pytest.mark.parametrize("name", FIXTURES)
def test_distance_takes_a_few_flows_per_batch(navs, name, monkeypatch):
    # Newton closes every row of a 10^3-pair batch within a handful of
    # evaluations, where bisection to 1e-10 takes 37-39
    nav = navs[name]
    calls = []
    flow = type(nav.wind).flow
    monkeypatch.setattr(type(nav.wind), "flow", lambda self, x, t: calls.append(1) or flow(self, x, t))
    rng = np.random.default_rng(5)
    f_distance_batch(nav, nav.space.sample(rng, 1000), nav.space.sample(rng, 1000))
    assert len(calls) <= 10
