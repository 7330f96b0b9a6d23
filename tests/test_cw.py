from __future__ import annotations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from randers_lab.cw import (
    CwReport,
    SearchFailed,
    cw_connect,
    cw_displacement_check,
    direction_exhaustion_check,
    small_time_threshold,
)
from randers_lab.geodesics import f_distance, f_distance_batch
from randers_lab.killing import (
    EuclideanKilling,
    GroupKilling,
    ProductKilling,
    SphereKilling,
    constant_length_family,
    hopf_field,
    zero_field,
)
from randers_lab.randers import NavigationData
from randers_lab.selftest import fixture_navs
from randers_lab.spaces import CompactGroup, Euclidean, Product, Sphere, random_tangent

from conftest import ANTI_HOPF, conjugated_hopf


def _map_report(nav, rho, n_samples, seed):
    """The displacement report of a point map rho, sampled as
    cw_displacement_check samples a flow."""
    xs = nav.space.sample(np.random.default_rng(seed), n_samples)
    images = np.array([rho(x) for x in xs])
    return CwReport("map", f_distance_batch(nav, xs, images), tol=1e-4)


def _rot(a1, a2):
    A = np.zeros((4, 4))
    A[0, 1], A[1, 0] = -a1, a1
    A[2, 3], A[3, 2] = -a2, a2
    return A


def test_euclidean_translation_displacement_is_one(e2_nav):
    X = EuclideanKilling(e2_nav.space, np.array([1.5, 0.0]))  # X + W, F-unit
    rep = cw_displacement_check(e2_nav, (X, 1.0), n_samples=40, seed=0)
    assert rep.is_cw
    np.testing.assert_allclose(rep.displacements, 1.0, atol=1e-9)


def test_hopf_family_flow_is_cw(hopf_nav):
    fam = constant_length_family(hopf_nav)
    X = fam.random_member(np.random.default_rng(8), 1.0) + hopf_nav.wind
    rep = cw_displacement_check(hopf_nav, (X, 0.1), n_samples=100, seed=1)
    assert rep.is_cw
    assert rep.rel_spread < 1e-4


def test_rotation_control_fails(s3):
    nav = NavigationData(s3, zero_field(s3))
    bad = SphereKilling(s3, _rot(1.0, 2.0))
    rep = cw_displacement_check(nav, (bad, 0.1), n_samples=100, seed=2)
    assert not rep.is_cw
    assert rep.d_max - rep.d_min > 0.05


def test_negative_control_per_space(navs):
    # a non-isometry map must fail on every fixture space; guards the
    # tolerance from going vacuous
    for name, nav in navs.items():
        space = nav.space

        def squash(x, s=space):
            mid = s.sample(np.random.default_rng(0), 1)[0]
            return s.retract(x + 0.3 * (mid - x))

        rep = _map_report(nav, squash, 60, seed=3)
        assert not rep.is_cw, name


def test_report_dict_shape(e2_nav):
    X = EuclideanKilling(e2_nav.space, np.array([1.5, 0.0]))
    rep = cw_displacement_check(e2_nav, (X, 0.5), n_samples=10, seed=4)
    d = rep.to_dict()
    assert d["verdict"] == "CW"
    assert d["n_samples"] == 10
    assert len(rep.displacements) == 10


def test_small_time_threshold_euclidean(e2_nav):
    X = EuclideanKilling(e2_nav.space, np.array([1.5, 0.0]))
    assert small_time_threshold(e2_nav, X) == np.inf


def test_small_time_threshold_unit_sphere():
    s = Sphere(3, 1.0)
    nav = NavigationData(s, zero_field(s))
    X = hopf_field(s, 1.0)
    assert small_time_threshold(nav, X) == pytest.approx(np.pi, rel=1e-6)


def test_small_time_threshold_rejects_nonconstant(s3):
    nav = NavigationData(s3, zero_field(s3))
    with pytest.raises(ValueError):
        small_time_threshold(nav, SphereKilling(s3, _rot(1.0, 2.0)))


def test_small_time_threshold_rejects_a_spread_sampling_misses():
    # F-length sqrt(|Ax|^2 + 1) runs over [sqrt(2), sqrt(1 + (1 + 5e-7)^2)],
    # a relative spread of 2.5e-7 that samples checked to 1e-6 cannot tell
    # from constant; windless, Y - L*W = Y has a non-constant S^3 factor
    p = Product((Sphere(3, 1.0), Euclidean(2)))
    nav = NavigationData(p, zero_field(p))
    Y = ProductKilling(p, (SphereKilling(p.factors[0], _rot(1.0, 1.0 + 5e-7)),
                           EuclideanKilling(p.factors[1], np.array([1.0, 0.0]))))
    with pytest.raises(ValueError, match="on factor 0"):
        small_time_threshold(nav, Y)


def _threshold_navs():
    navs = dict(fixture_navs())
    s3, s5 = Sphere(3, 1.0), Sphere(5, 1.0)
    navs["anti-hopf"] = NavigationData(s3, SphereKilling(s3, ANTI_HOPF))
    navs["qjq-S5"] = NavigationData(s5, SphereKilling(s5, conjugated_hopf(3, 0.3, seed=1)))
    return navs


@pytest.mark.parametrize("name", ["euclidean", "sphere-hopf", "su2-left", "product",
                                  "anti-hopf", "qjq-S5"])
def test_small_time_threshold_is_delta_over_f_length(name):
    # Y = c * (X + W) with X an h-unit family member has F-length c; the
    # threshold is delta / L with L the sampled F-length to 1e-12
    nav = _threshold_navs()[name]
    rng = np.random.default_rng(31)
    c = rng.uniform(0.3, 1.5)
    Y = (constant_length_family(nav).random_member(rng, 1.0) + nav.wind).scaled(c)
    xs = nav.space.sample(rng, 10_000)
    lengths = nav.finsler_norm(xs, Y.evaluate(xs))
    np.testing.assert_allclose(lengths, c, rtol=1e-12)
    got = small_time_threshold(nav, Y)
    delta = nav.space.injectivity_radius
    if not np.isfinite(delta):
        assert got == np.inf
        return
    L = delta / got
    assert np.max(np.abs(lengths - L)) <= 1e-12 * L


def test_random_fields_pass_at_half_threshold(hopf_nav):
    # constant F-length fields are (h-unit member) + W, rescaled as a whole
    fam = constant_length_family(hopf_nav)
    rng = np.random.default_rng(9)
    for _ in range(20):
        Y = (fam.random_member(rng, 1.0) + hopf_nav.wind).scaled(rng.uniform(0.3, 1.5))
        t = 0.5 * small_time_threshold(hopf_nav, Y)
        rep = cw_displacement_check(hopf_nav, (Y, t), n_samples=30, seed=5)
        assert rep.is_cw


def test_exhaustion_euclidean_exact(e2_nav):
    rep = direction_exhaustion_check(e2_nav, np.zeros(2), n_directions=25, seed=0)
    assert rep.passed
    assert rep.worst_residual < 1e-12


def test_exhaustion_hopf(hopf_nav):
    x = hopf_nav.space.sample(np.random.default_rng(101), 1)[0]
    rep = direction_exhaustion_check(hopf_nav, x, n_directions=50, seed=1)
    assert rep.passed
    assert rep.worst_residual < 1e-6
    assert len(rep.residuals) == 50


def test_exhaustion_product(navs):
    nav = navs["product"]
    x = nav.space.sample(np.random.default_rng(2), 1)[0]
    rep = direction_exhaustion_check(nav, x, n_directions=50, seed=2)
    assert rep.passed


def test_connect_identity(hopf_nav):
    x = hopf_nav.space.sample(np.random.default_rng(3), 1)[0]
    res = cw_connect(hopf_nav, x, x)
    assert (res.t, res.residual, res.method) == (0.0, 0.0, "identity")


def test_connect_identity_measures_its_gap(e2_nav):
    # 5e-11 apart, the points are at f_distance 0: the identity joins them
    # with the gap as its residual, which a tolerance below it refuses
    x0 = np.array([0.3, -1.2])
    x1 = x0 + [5e-11, 0.0]
    res = cw_connect(e2_nav, x0, x1)
    assert res.method == "identity" and res.residual == pytest.approx(5e-11, rel=1e-3)
    with pytest.raises(SearchFailed) as err:
        cw_connect(e2_nav, x0, x1, tol=1e-12)
    assert err.value.best_residual == res.residual


def test_nan_time_is_refused_not_cw(hopf_nav):
    Y = constant_length_family(hopf_nav).random_member(np.random.default_rng(1), 1.0) + hopf_nav.wind
    with pytest.raises(ValueError, match="5 of 5 rows are not"):
        cw_displacement_check(hopf_nav, (Y, np.nan), n_samples=5)


@pytest.mark.parametrize("n", [1, 0])
def test_displacement_check_needs_two_samples(hopf_nav, n):
    # one displacement has spread 0, which would read as CW
    with pytest.raises(ValueError, match=f"n_samples must be at least 2 for a spread, got {n}"):
        cw_displacement_check(hopf_nav, (hopf_nav.wind, 0.1), n_samples=n)


def test_connect_euclidean_exact(e2_nav, rng):
    x0, x1 = rng.uniform(-3, 3, size=(2, 2))
    res = cw_connect(e2_nav, x0, x1)
    assert res.residual < 1e-9
    assert res.t == pytest.approx(f_distance(e2_nav, x0, x1), abs=1e-9)
    # hand solution: X = (x1 - x0)/t - W
    expected = (x1 - x0) / res.t - np.array([0.5, 0.0])
    np.testing.assert_allclose(res.member.v, expected, atol=1e-9)


def test_connect_hopf_nearby(hopf_nav):
    rng = np.random.default_rng(10)
    s = hopf_nav.space
    x0 = s.sample(rng, 1)[0]
    from randers_lab.spaces import random_tangent

    x1 = s.h_exp(x0, 0.3 * random_tangent(s, rng, x0))
    res = cw_connect(hopf_nav, x0, x1)
    assert res.residual < 1e-6
    Y = res.member + hopf_nav.wind
    rep = cw_displacement_check(hopf_nav, (Y, res.t), n_samples=50, seed=6)
    assert rep.is_cw


def test_connect_flow_hits_target(su2_nav):
    rng = np.random.default_rng(11)
    x0, x1 = su2_nav.space.sample(rng, 2)
    res = cw_connect(su2_nav, x0, x1)
    Y = res.member + su2_nav.wind
    np.testing.assert_allclose(Y.flow(x0, res.t), x1, atol=1e-6)


def _left_wind(g):
    """The left-invariant wind of h-length 0.3 on SU(2) at g's scale."""
    return GroupKilling(g, np.array([0.0, 0.3 / g.scale, 0.0, 0.0]), np.zeros(4))


@pytest.mark.parametrize("scale, product", [(0.8, False), (2.0, False), (0.8, True)],
                         ids=["SU2-0.8", "SU2-2.0", "S3xSU2-0.8"])
def test_connect_off_the_unit_scale(scale, product):
    # family members are h-unit, and h is scale^2 * dot on SU(2): the
    # direction is normalised in h, not in the ambient norm
    g = CompactGroup("SU2", scale)
    nav = NavigationData(g, _left_wind(g))
    if product:
        s3 = Sphere(3, 1.0)
        prod = Product((s3, g))
        nav = NavigationData(prod, ProductKilling(prod, (hopf_field(s3, 0.3), _left_wind(g))))
    rng = np.random.default_rng(17)
    for x0, x1 in zip(nav.space.sample(rng, 5), nav.space.sample(rng, 5)):
        res = cw_connect(nav, x0, x1, tol=1e-9)
        assert res.residual < 1e-9
        assert res.t == f_distance(nav, x0, x1)


@pytest.mark.parametrize("dim, radius, A", [
    (3, 1.0, ANTI_HOPF),
    (5, 1.3, conjugated_hopf(3, 0.3, seed=1)),
    (7, 1.0, conjugated_hopf(4, -0.4, seed=2)),
], ids=["anti-hopf-S3", "qjq-S5", "qjq-S7"])
def test_conjugated_hopf_winds_pass_every_check(dim, radius, A):
    # every constant-length rotation wind c * Q J Q^T gets its family: the
    # paper's claims hold for it as they do for the Hopf wind
    s = Sphere(dim, radius)
    nav = NavigationData(s, SphereKilling(s, A))
    rng = np.random.default_rng(dim)
    Y = constant_length_family(nav).random_member(rng, 1.0) + nav.wind
    assert cw_displacement_check(nav, (Y, 0.4), n_samples=50, seed=1).rel_spread < 1e-8
    rep = direction_exhaustion_check(nav, s.sample(rng, 1)[0], n_directions=32, seed=3)
    assert rep.worst_residual < 1e-6
    for x0, x1 in zip(s.sample(rng, 10), s.sample(rng, 10)):
        assert cw_connect(nav, x0, x1).residual < 1e-9


def test_cw_composition_euclidean(e2_nav):
    # two commuting CW translations compose to a CW translation at the
    # combined time
    rng = np.random.default_rng(12)
    a, b, c = rng.uniform(-2, 2, size=(3, 2))
    r1 = cw_connect(e2_nav, a, b)
    r2 = cw_connect(e2_nav, b, c)
    Y1 = r1.member + e2_nav.wind
    Y2 = r2.member + e2_nav.wind

    def comp(x):
        return Y2.flow(Y1.flow(x, r1.t), r2.t)

    rep = _map_report(e2_nav, comp, 40, seed=7)
    assert rep.is_cw


def test_cw_composition_product(navs):
    # wind-parallel members on the sphere part commute with each other
    nav = navs["product"]
    fam = constant_length_family(nav)
    x0 = nav.space.sample(np.random.default_rng(13), 1)[0]
    W = nav.wind
    u1 = (fam.match(x0, W.evaluate(x0)))  # parallel to the wind
    Y = u1 + W

    def comp(x):
        return Y.flow(Y.flow(x, 0.05), 0.08)

    rep = _map_report(nav, comp, 40, seed=8)
    assert rep.is_cw


def test_search_failed_reports_best(su2_nav):
    # an unreachable target: distance exceeded while tol is absurd
    x0 = np.array([1.0, 0, 0, 0])
    x1 = np.array([0.0, 0, 0, 1.0])
    with pytest.raises(SearchFailed) as err:
        cw_connect(su2_nav, x0, x1, tol=1e-30)
    assert err.value.best_residual >= 0


def _hard_pair(nav, kind, gap, rng):
    """A pair (x0, x1) that stresses the closed form of cw_connect."""
    space = nav.space
    x0 = space.sample(rng, 1)[0]
    u = random_tangent(space, rng, x0)
    if isinstance(space, Product):  # aim at the sphere factor's cut locus
        u[space.slices[1]] = 0.0
        u /= np.linalg.norm(u)
    if kind == "tiny":
        return x0, space.h_exp(x0, 1e-9 * u)
    reach = space.injectivity_radius if np.isfinite(space.injectivity_radius) else 5.0
    z = space.h_exp(x0, (reach - gap) * u)
    if kind == "cut":
        return x0, z
    # wind-pulled: d_F(x0, x1) = t and pulling x1 back along the wind for
    # t lands on z, at (or next to) the antipode of x0
    return x0, nav.wind.flow(z, float(space.h_distance(x0, z)))


@given(fixture=st.sampled_from(["euclidean", "sphere-hopf", "su2-left", "product"]),
       kind=st.sampled_from(["cut", "wind-pulled", "tiny"]),
       gap=st.sampled_from([0.0, 1e-7, 1e-3]),
       seed=st.integers(0, 2**32 - 1))
@settings(max_examples=120, deadline=None)
# z within 1e-12 of the antipode of x0, where the h-log came out part radial
@example(fixture="su2-left", kind="wind-pulled", gap=0.0, seed=230406)
@example(fixture="su2-left", kind="wind-pulled", gap=0.0, seed=1963)
def test_connect_closed_form_on_hard_pairs(navs, fixture, kind, gap, seed):
    nav = navs[fixture]
    x0, x1 = _hard_pair(nav, kind, gap, np.random.default_rng(seed))
    res = cw_connect(nav, x0, x1)
    assert res.method == "closed-form"
    assert res.residual < 1e-6
