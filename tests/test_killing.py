from __future__ import annotations

import numpy as np
import pytest

from randers_lab.killing import (
    EuclideanKilling,
    GroupKilling,
    KillingField,
    ProductKilling,
    SphereKilling,
    UnsupportedWind,
    commutator,
    constant_length_family,
    hopf_field,
    killing_from_config,
    standard_J,
    zero_field,
)
from randers_lab.randers import NavigationData
from randers_lab.spaces import CompactGroup, Euclidean, Product, Sphere, random_tangent

from conftest import ANTI_HOPF, conjugated_hopf


def _rot_blocks(angles):
    """Block-diagonal skew matrix rot(a1) + rot(a2) + ..."""
    k = len(angles)
    A = np.zeros((2 * k, 2 * k))
    for i, a in enumerate(angles):
        A[2 * i, 2 * i + 1] = -a
        A[2 * i + 1, 2 * i] = a
    return A


# --- evaluation -------------------------------------------------------------

def test_hopf_evaluate_at_pole(s3):
    X = hopf_field(s3, 1.0)
    v = X.evaluate(np.array([1.0, 0, 0, 0]))
    np.testing.assert_allclose(v, [0, 1, 0, 0])


def test_hopf_orthogonal_to_base(s3, rng):
    X = hopf_field(s3, 1.0)
    xs = s3.sample(rng, 200)
    vs = X.evaluate(xs)
    np.testing.assert_allclose(np.einsum("ij,ij->i", xs, vs), 0.0, atol=1e-14)


def test_euclidean_field_constant(rng):
    e = Euclidean(2)
    X = EuclideanKilling(e, np.array([1.0, 2.0]))
    xs = e.sample(rng, 10)
    np.testing.assert_array_equal(X.evaluate(xs), np.broadcast_to([1.0, 2.0], (10, 2)))


def test_product_field_componentwise(rng):
    p = Product((Sphere(3, 1.0), Euclidean(2)))
    X = ProductKilling(p, (hopf_field(p.factors[0], 0.5),
                           EuclideanKilling(p.factors[1], np.array([1.0, 0.0]))))
    x = p.sample(rng, 1)[0]
    v = X.evaluate(x)
    np.testing.assert_allclose(v[:4], p.factors[0].tangent_project(x[:4], v[:4]), atol=1e-14)
    np.testing.assert_array_equal(v[4:], [1.0, 0.0])


def test_skew_generator_required(s3):
    with pytest.raises(ValueError):
        SphereKilling(s3, np.eye(4))


def test_generators_have_the_space_s_shape(s3, su2):
    with pytest.raises(ValueError, match=r"a generator on S\^3 is a 4x4 matrix, got shape \(2, 2\)"):
        SphereKilling(s3, 0.3 * standard_J(1))
    with pytest.raises(ValueError, match=r"on E\^2 is a vector of 2 numbers, got shape \(3,\)"):
        EuclideanKilling(Euclidean(2), np.array([0.1, 0.0, 0.0]))
    with pytest.raises(ValueError, match=r"of 4 numbers, got shapes \(4,\) and \(3,\)"):
        GroupKilling(su2, np.zeros(4), np.array([0.0, 0.3, 0.0]))
    with pytest.raises(ValueError, match=r"got shapes \(2, 4\) and \(4,\)"):
        GroupKilling(su2, np.zeros((2, 4)), np.zeros(4))


@pytest.mark.parametrize("cfg", [
    {"type": "group-left", "l": [0.0, 0.3, 0.0, 0.0]},
    {"type": "group-right", "r": [0.0, 0.0, -0.2, 0.1]},
    {"type": "group-pair", "l": [0.0, 0.3, 0.0, 0.0], "r": [0.0, 0.0, 0.2, 0.0]},
], ids=["left", "right", "pair"])
def test_group_winds_round_trip_through_json(su2, cfg):
    X = killing_from_config(su2, cfg)
    assert X.to_config() == cfg
    Y = killing_from_config(su2, X.to_config())
    assert np.array_equal(Y.l, X.l) and np.array_equal(Y.r, X.r)


# --- residual ---------------------------------------------------------------

def _flow_any(space, X, x, t, rk_steps: int = 8):
    """Flow for a KillingField (exact) or a callable vector field (RK4)."""
    if isinstance(X, KillingField):
        return X.flow(x, t)
    y = np.asarray(x, dtype=float).copy()
    h = t / rk_steps
    proj = space.tangent_project
    for _ in range(rk_steps):
        k1 = proj(y, X(y))
        y2 = space.retract(y + 0.5 * h * k1)
        k2 = proj(y2, X(y2))
        y3 = space.retract(y + 0.5 * h * k2)
        k3 = proj(y3, X(y3))
        y4 = space.retract(y + h * k3)
        k4 = proj(y4, X(y4))
        y = space.retract(y + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4))
    return y


def killing_residual(space, X, n_samples: int = 20, seed: int = 0,
                     dt: float = 1e-3, eps: float = 1e-4) -> float:
    """Max over samples of |d/dt h(dphi_t u, dphi_t v)| at t = 0.

    Pushforwards are taken by central differences through geodesic
    curves; the flow is exact for KillingField inputs and RK4 for
    callables, so a nonzero residual isolates failure of the Killing
    equation rather than integration error.
    """
    rng = np.random.default_rng(seed)
    xs = space.sample(rng, n_samples)
    worst = 0.0
    for x in xs:
        u = random_tangent(space, rng, x)
        v = random_tangent(space, rng, x)

        def inner_at(t):
            ends_u = [_flow_any(space, X, space.h_exp(x, u, s), t) for s in (eps, -eps)]
            ends_v = [_flow_any(space, X, space.h_exp(x, v, s), t) for s in (eps, -eps)]
            du = (ends_u[0] - ends_u[1]) / (2 * eps)
            dv = (ends_v[0] - ends_v[1]) / (2 * eps)
            y = _flow_any(space, X, x, t)
            du = space.tangent_project(y, du)
            dv = space.tangent_project(y, dv)
            return space.h_inner(y, du, dv)

        resid = abs(inner_at(dt) - inner_at(-dt)) / (2 * dt)
        worst = max(worst, float(resid))
    return worst


def test_killing_residual_rotation_small(s3, rng):
    g = rng.normal(size=(4, 4))
    X = SphereKilling(s3, g - g.T)
    assert killing_residual(s3, X) < 1e-7


def test_killing_residual_translation_tiny():
    e = Euclidean(3)
    X = EuclideanKilling(e, np.array([1.0, -2.0, 0.5]))
    assert killing_residual(e, X) < 1e-12


def test_killing_residual_gradient_control(s3):
    # X = e1 - <e1,x> x stretches the metric; must be caught
    def bad(x):
        e1 = np.zeros(x.shape[-1])
        e1[0] = 1.0
        return s3.tangent_project(x, np.broadcast_to(e1, x.shape))

    assert killing_residual(s3, bad) > 1e-2


def test_killing_residual_group_sides(su2):
    L = GroupKilling(su2, np.array([0.0, 1.0, 0.0, 0.0]), np.zeros(4))
    R = GroupKilling(su2, np.zeros(4), np.array([0.0, 0.0, 1.0, 0.0]))
    assert killing_residual(su2, L) < 1e-7
    assert killing_residual(su2, R) < 1e-7


# --- length range and stats -------------------------------------------------

def test_length_range_hopf_constant(s3):
    lo, hi = hopf_field(s3, 0.3).length_range()
    assert lo == pytest.approx(0.3, abs=1e-12)
    assert hi == pytest.approx(0.3, abs=1e-12)


def test_length_range_unequal_rotation(s3):
    lo, hi = SphereKilling(s3, _rot_blocks([1.0, 2.0])).length_range()
    assert lo == pytest.approx(1.0, abs=1e-12)
    assert hi == pytest.approx(2.0, abs=1e-12)


def test_length_range_euclidean():
    e = Euclidean(2)
    assert EuclideanKilling(e, np.array([3.0, 4.0])).length_range() == (5.0, 5.0)


def _random_field(space, rng):
    if isinstance(space, Product):
        return ProductKilling(space, tuple(_random_field(f, rng) for f in space.factors))
    if isinstance(space, Sphere):
        G = rng.normal(size=(space.ambient_dim, space.ambient_dim))
        return SphereKilling(space, G - G.T)
    if isinstance(space, CompactGroup):
        return GroupKilling(space, rng.normal(size=4) * [0, 1, 1, 1],
                            rng.normal(size=4) * [0, 1, 1, 1])
    return EuclideanKilling(space, rng.normal(size=space.n))


@pytest.mark.parametrize("space", [
    Sphere(5, 1.3),
    CompactGroup("SU2", 0.8),
    Product((Sphere(3, 1.0), CompactGroup("SU2", 0.8), Euclidean(2))),
], ids=["S5", "SU2", "product"])
def test_length_range_bounds_sampled_lengths(space):
    rng = np.random.default_rng(17)
    for _ in range(5):
        X = _random_field(space, rng)
        lo, hi = X.length_range()
        xs = space.sample(rng, 10_000)
        V = X.evaluate(xs)
        lengths = np.sqrt(space.h_inner(xs, V, V))
        assert lengths.min() >= lo - 1e-12 * hi
        assert lengths.max() <= hi + 1e-12 * hi
        # and the range is not loose: samples come within 10% of both ends
        assert lengths.min() - lo < 0.1 * hi and hi - lengths.max() < 0.1 * hi


def _sampled_f_lengths(nav, X, n_samples: int = 1000, seed: int = 0):
    """(min, max) of the F-length F(X) over quasi-uniform samples."""
    xs = nav.space.sample(np.random.default_rng(seed), n_samples)
    vals = nav.finsler_norm(xs, X.evaluate(xs))
    return float(np.min(vals)), float(np.max(vals))


def test_length_stats_finsler_length(e2_nav):
    # F-length of the F-unit field X + W with X = (1,0), W = (1/2,0)
    X = EuclideanKilling(e2_nav.space, np.array([1.5, 0.0]))
    lo, hi = _sampled_f_lengths(e2_nav, X)
    assert lo == pytest.approx(1.0, abs=1e-14)
    assert hi == pytest.approx(1.0, abs=1e-14)


# --- commutators ------------------------------------------------------------

def fd_lie_bracket(space, X, Y, x, eps: float = 1e-5):
    """Finite-difference Lie bracket [X,Y](x); the oracle that pins signs."""

    def ev(F, p):
        return F.evaluate(p) if isinstance(F, KillingField) else F(p)

    def dYX(p):  # directional derivative of Y along X
        v = ev(X, p)
        return (ev(Y, space.retract(p + eps * v)) - ev(Y, space.retract(p - eps * v))) / (2 * eps)

    def dXY(p):
        v = ev(Y, p)
        return (ev(X, space.retract(p + eps * v)) - ev(X, space.retract(p - eps * v))) / (2 * eps)

    return space.tangent_project(x, dYX(x) - dXY(x))


def test_commutator_hopf_with_unitary(s3):
    J = standard_J(2)
    A = np.kron(np.array([[0.0, -1.0], [1.0, 0.0]]), np.eye(2))  # complex-linear, skew
    assert np.allclose(A @ J - J @ A, 0)
    C = commutator(hopf_field(s3, 1.0), SphereKilling(s3, A))
    assert np.allclose(C.A, 0)


def test_commutator_translations_vanish():
    e = Euclidean(3)
    X = EuclideanKilling(e, np.array([1.0, 0, 0]))
    Y = EuclideanKilling(e, np.array([0.0, 1, 0]))
    assert np.allclose(commutator(X, Y).v, 0)


@pytest.mark.parametrize("case", ["sphere", "group"])
def test_commutator_matches_fd_bracket(case, rng):
    # the closed-form bracket must match a finite-difference Lie bracket,
    # including sign, on 50 samples
    if case == "sphere":
        space = Sphere(3, 1.0)
        g1, g2 = rng.normal(size=(2, 4, 4))
        X = SphereKilling(space, g1 - g1.T)
        Y = SphereKilling(space, g2 - g2.T)
    else:
        space = CompactGroup("SU2", 1.0)
        X = GroupKilling(space, rng.normal(size=4) * [0, 1, 1, 1], rng.normal(size=4) * [0, 1, 1, 1])
        Y = GroupKilling(space, rng.normal(size=4) * [0, 1, 1, 1], rng.normal(size=4) * [0, 1, 1, 1])
    C = commutator(X, Y)
    xs = space.sample(rng, 50)
    exact = C.evaluate(xs)
    approx = np.stack([fd_lie_bracket(space, X, Y, x) for x in xs])
    np.testing.assert_allclose(exact, approx, atol=1e-6)


# --- flows ------------------------------------------------------------------

def test_hopf_flow_periodic(s3, rng):
    X = hopf_field(s3, 1.0)
    x = s3.sample(rng, 5)
    np.testing.assert_allclose(X.flow(x, 2 * np.pi), x, atol=1e-12)


def test_flow_group_law(s3, rng):
    g = rng.normal(size=(4, 4))
    X = SphereKilling(s3, g - g.T)
    x = s3.sample(rng, 5)
    a = X.flow(X.flow(x, 0.3), 0.9)
    b = X.flow(x, 1.2)
    np.testing.assert_allclose(a, b, atol=1e-12)


def test_su2_left_flow_is_subgroup(su2):
    X = GroupKilling(su2, np.array([0.0, 1.0, 0.0, 0.0]), np.zeros(4))
    one = np.array([1.0, 0, 0, 0])
    for t in (0.3, 1.0, np.pi):
        np.testing.assert_allclose(X.flow(one, t), [np.cos(t), np.sin(t), 0, 0], atol=1e-14)


def test_flow_identity_for_commuting_fields(hopf_nav, rng):
    fam = constant_length_family(hopf_nav)
    X = fam.random_member(np.random.default_rng(7), 0.8)
    W = hopf_nav.wind
    xs = hopf_nav.space.sample(rng, 100)
    for t in np.linspace(0.0, 2.0, 9):
        lhs = (X + W).flow(xs, t)
        rhs = X.flow(W.flow(xs, t), t)
        np.testing.assert_allclose(lhs, rhs, atol=1e-9)


def test_flow_preserves_h_distance(hopf_nav, rng):
    xs = hopf_nav.space.sample(rng, 50)
    ys = hopf_nav.space.sample(rng, 50)
    d0 = hopf_nav.space.h_distance(xs, ys)
    W = hopf_nav.wind
    d1 = hopf_nav.space.h_distance(W.flow(xs, 0.7), W.flow(ys, 0.7))
    np.testing.assert_allclose(d1, d0, atol=1e-9)


def test_wind_flow_is_f_isometry(hopf_nav, rng):
    # F(dphi_t y) = F(y): push tangent vectors with the linear flow map
    xs = hopf_nav.space.sample(rng, 50)
    ys = random_tangent(hopf_nav.space, rng, xs, unit=False)
    W = hopf_nav.wind
    t = 0.63
    f0 = hopf_nav.finsler_norm(xs, ys)
    # the flow of a skew generator is the linear map expm(tA)
    xt = W.flow(xs, t)
    yt = W.flow(ys, t)  # linear in the ambient coordinates
    f1 = hopf_nav.finsler_norm(xt, yt)
    np.testing.assert_allclose(f1, f0, atol=1e-9)


# --- constant-length families -----------------------------------------------

def test_family_contains_wind_direction(hopf_nav):
    fam = constant_length_family(hopf_nav)
    J = standard_J(2)
    M = fam.match(np.array([1.0, 0, 0, 0]), hopf_nav.wind.evaluate(np.array([1.0, 0, 0, 0])))
    # matching along W itself recovers a multiple of J
    np.testing.assert_allclose(M.A / 0.3, J, atol=1e-10)


def test_family_member_algebra(hopf_nav):
    fam = constant_length_family(hopf_nav)
    J = standard_J(2)
    rng = np.random.default_rng(42)
    for _ in range(20):
        M = fam.random_member(rng, 1.0).A
        np.testing.assert_allclose(M @ M, -np.eye(4), atol=1e-12)
        np.testing.assert_allclose(M @ J - J @ M, 0.0, atol=1e-12)


def test_family_members_have_constant_f_length(navs):
    rng = np.random.default_rng(5)
    for nav in navs.values():
        fam = constant_length_family(nav)
        X = fam.random_member(rng, 1.0)
        lo, hi = _sampled_f_lengths(nav, X + nav.wind)
        assert hi - lo < 1e-9


def test_family_k2_directions_cover_sphere():
    # at x = (1,0,0,0) the evaluation map of the c'-scaled family covers a
    # 2-sphere worth of directions: J'x has |J'x| = 1 and <J'x, x> = 0, and
    # the x-orthogonal component of J'x spans all of span(e2,e3,e4)
    s = Sphere(3, 1.0)
    nav = NavigationData(s, hopf_field(s, 0.3))
    fam = constant_length_family(nav)
    rng = np.random.default_rng(11)
    x = np.array([1.0, 0, 0, 0])
    dirs = np.stack([fam.random_member(rng, 1.0).evaluate(x) for _ in range(1000)])
    np.testing.assert_allclose(np.linalg.norm(dirs, axis=1), 1.0, atol=1e-12)
    # spread over the tangent 3-space minus nothing: rank of the span is 3
    assert np.linalg.matrix_rank(dirs, tol=1e-8) == 3
    # both J and -J orientations occur
    comps = dirs @ np.array([0.0, 1.0, 0, 0])
    assert comps.max() > 0.9 and comps.min() < -0.9


def test_group_family_opposite_side(su2_nav):
    fam = constant_length_family(su2_nav)
    rng = np.random.default_rng(3)
    M = fam.random_member(rng, 1.0)
    # left-invariant wind -> right-invariant family, so the pair commutes
    C = commutator(M, su2_nav.wind)
    assert np.allclose(C.l, 0) and np.allclose(C.r, 0)


def test_unsupported_wind_rejected(s3):
    nav = NavigationData(s3, SphereKilling(s3, 0.3 * _rot_blocks([1.0, 2.0])))
    with pytest.raises(UnsupportedWind):
        constant_length_family(nav)


@pytest.mark.parametrize("k", [2, 3, 4])
@pytest.mark.parametrize("c", [0.3, -0.3, 0.7, 1e-3])
def test_hopf_family_frame_is_exactly_identity(k, c):
    # the real Schur form of c*J is c*J itself, so the Hopf wind's family
    # is the standard one bit for bit
    s = Sphere(2 * k - 1, 1.0)
    fam = constant_length_family(NavigationData(s, hopf_field(s, c)))
    assert np.array_equal(fam.Q, np.eye(2 * k))


@pytest.mark.parametrize("dim, A", [
    (3, ANTI_HOPF),
    (5, conjugated_hopf(3, 0.3, seed=1)),
    (7, conjugated_hopf(4, -0.4, seed=2)),
], ids=["anti-hopf-S3", "qjq-S5", "qjq-S7"])
def test_conjugated_family_commutes_with_wind(dim, A):
    s = Sphere(dim, 1.0)
    fam = constant_length_family(NavigationData(s, SphereKilling(s, A)))
    np.testing.assert_allclose(fam.Q @ fam.Q.T, np.eye(dim + 1), atol=1e-12)
    rng = np.random.default_rng(dim)
    x = s.sample(rng, 1)[0]
    for _ in range(20):
        M = fam.random_member(rng, 1.0).A
        np.testing.assert_allclose(M @ M, -np.eye(dim + 1), atol=1e-12)
        np.testing.assert_allclose(M @ A - A @ M, 0.0, atol=1e-12)
        v = random_tangent(s, rng, x)
        np.testing.assert_allclose(fam.match(x, v).evaluate(x), v, atol=1e-12)


def test_zero_field_flow_is_identity(rng):
    p = Product((Sphere(3, 1.0), Euclidean(2)))
    Z = zero_field(p)
    x = p.sample(rng, 4)
    np.testing.assert_array_equal(Z.flow(x, 1.7), x)


# --- homogeneity: translations to a base point ------------------------------

def _homogeneous_winds():
    s3, s5, su2 = Sphere(3, 1.0), Sphere(5, 1.3), CompactGroup("SU2", 0.8)
    l, r = np.array([0.0, 0.4, 0.0, 0.0]), np.array([0.0, 0.0, 0.3, 0.0])
    prod = Product((s3, su2))
    return {
        "S3-hopf": hopf_field(s3, 0.3),
        "S3-anti-hopf": SphereKilling(s3, ANTI_HOPF),
        "S5-qjq": SphereKilling(s5, conjugated_hopf(3, 0.3, seed=1)),
        "SU2-left": GroupKilling(su2, l, np.zeros(4)),
        "SU2-right": GroupKilling(su2, np.zeros(4), r),
        "S3xSU2": ProductKilling(prod, (hopf_field(s3, 0.3), GroupKilling(su2, l, np.zeros(4)))),
        "S3-zero": zero_field(s3),
    }


HOMOGENEOUS_WINDS = _homogeneous_winds()


@pytest.mark.parametrize("name", HOMOGENEOUS_WINDS)
def test_family_flow_carries_any_point_to_the_base_point(name):
    # the oracle's rho_x: the time-1 flow of the family member X with
    # X(x) = log_x(o). X has constant length, so its integral curve from x
    # is the h-geodesic to o, and X commutes with the wind, so rho_x is an
    # F-isometry; the antipode -o (on every factor) and a point 1e-9 from
    # it are the hardest sources, where log_x(o) has length pi R
    W = HOMOGENEOUS_WINDS[name]
    space, nav = W.space, NavigationData(W.space, W)
    family = constant_length_family(nav)
    rng = np.random.default_rng(31)
    o = space.sample(rng, 1)[0]
    xs = np.vstack([space.sample(rng, 30), -o,
                    space.h_exp(-o, 1e-9 * random_tangent(space, rng, -o))])
    ys = space.sample(rng, 20)
    vs = rng.uniform(0.1, 2.0, (20, 1)) * random_tangent(space, rng, ys)
    f = nav.finsler_norm(ys, vs)
    for x in xs:
        rho = family.match(x, space.h_log(x, o))
        assert np.linalg.norm(rho.flow(x, 1.0) - o) <= 1e-12
        # the flows of compact factors are linear maps of the ambient
        # space, so the differential of rho is rho itself
        moved = nav.finsler_norm(rho.flow(ys, 1.0), rho.flow(vs, 1.0))
        np.testing.assert_allclose(moved, f, rtol=1e-14, atol=0)


def test_sphere_flow_is_contiguous():
    # the real part of the complex product is copied out: numpy's sums over
    # a strided view round differently, which moved the oracle's arc weights
    # from a flowed point by a few 1e-16 on some pairs
    from randers_lab.oracle import _arc_weights

    s3 = Sphere(3, 1.0)
    nav = NavigationData(s3, hopf_field(s3, 0.3))
    family = constant_length_family(nav)
    rng = np.random.default_rng(3)
    xs, ys = s3.sample(rng, 100), s3.sample(rng, 100)
    nodes = s3.sample(rng, 2000)
    o = nodes[0]
    for x, y in zip(xs, ys):
        moved = family.match(x, s3.h_log(x, o)).flow(np.stack([x, y]), 1.0)
        assert moved.flags.c_contiguous
        for row, copy in zip(moved, moved.copy()):
            got, want = _arc_weights(nav, row, nodes), _arc_weights(nav, copy, nodes)
            assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])
