from __future__ import annotations

import numpy as np
import pytest

from randers_lab.config import ConfigError
from randers_lab.spaces import (
    CompactGroup,
    Euclidean,
    Product,
    Sphere,
    SpaceError,
    _dot,
    _norm,
    frame,
    random_tangent,
    space_from_config,
)

SPACES = [
    Euclidean(2),
    Euclidean(3),
    Sphere(3, 1.0),
    Sphere(3, 2.0),
    Sphere(5, 1.0),
    CompactGroup("SU2", 1.0),
    CompactGroup("SU2", 0.5),
    Product((Sphere(3, 1.0), Euclidean(2))),
]


def _ids(spaces):
    return [type(s).__name__ + str(getattr(s, "dim", "")) for s in spaces]


def test_h_inner_euclidean_orthogonal():
    e = Euclidean(2)
    assert e.h_inner(np.zeros(2), np.array([1.0, 0.0]), np.array([0.0, 1.0])) == 0.0


def test_h_inner_sphere_ambient():
    s = Sphere(3, 1.0)
    x = np.array([1.0, 0, 0, 0])
    u = np.array([0.0, 1, 0, 0])
    assert s.h_inner(x, u, u) == pytest.approx(1.0)


def test_h_inner_product_additive(rng):
    p = Product((Euclidean(1), Sphere(3, 1.0)))
    x = p.sample(rng, 1)[0]
    u = random_tangent(p, rng, x)
    v = random_tangent(p, rng, x)
    parts = list(zip(p.factors, p.split(x), p.split(u), p.split(v)))
    total = sum(f.h_inner(xf, uf, vf) for f, xf, uf, vf in parts)
    assert p.h_inner(x, u, v) == pytest.approx(total, abs=1e-14)


def test_h_exp_euclidean_line():
    e = Euclidean(2)
    x = np.array([1.0, -2.0])
    v = np.array([0.5, 3.0])
    np.testing.assert_allclose(e.h_exp(x, 2.0 * v), x + 2.0 * v)


def test_h_exp_sphere_quarter_turn():
    s = Sphere(3, 1.0)
    x = np.array([1.0, 0, 0, 0])
    v = np.array([0.0, 1, 0, 0])
    np.testing.assert_allclose(s.h_exp(x, np.pi / 2 * v), [0, 1, 0, 0], atol=1e-15)


def test_h_exp_su2_one_parameter_subgroup():
    g = CompactGroup("SU2", 1.0)
    one = np.array([1.0, 0, 0, 0])
    i = np.array([0.0, 1, 0, 0])
    np.testing.assert_allclose(g.h_exp(one, np.pi * i), [-1, 0, 0, 0], atol=1e-15)


@pytest.mark.parametrize("space", SPACES, ids=_ids(SPACES))
def test_h_exp_distance_consistency(space, rng):
    # d(x, exp_x(t v)) = t |v|_h below the injectivity radius
    xs = space.sample(rng, 40)
    vs = random_tangent(space, rng, xs)
    cap = min(space.injectivity_radius, 10.0)
    for t in (0.1 * cap, 0.5 * cap, 0.9 * cap):
        ys = space.h_exp(xs, t * vs)
        np.testing.assert_allclose(space.h_distance(xs, ys), t, atol=1e-9)


@pytest.mark.parametrize("space", SPACES, ids=_ids(SPACES))
def test_h_distance_symmetric_triangle(space, rng):
    xs = space.sample(rng, 200)
    ys = space.sample(rng, 200)
    zs = space.sample(rng, 200)
    dxy = space.h_distance(xs, ys)
    np.testing.assert_allclose(dxy, space.h_distance(ys, xs), atol=1e-9)
    viol = dxy - (space.h_distance(xs, zs) + space.h_distance(zs, ys))
    assert viol.max() <= 1e-9


def test_product_distance_l2(rng):
    p = Product((Sphere(3, 1.0), Euclidean(2)))
    x, y = p.sample(rng, 2)
    expected = np.sqrt(sum(
        f.h_distance(xf, yf) ** 2
        for f, xf, yf in zip(p.factors, p.split(x), p.split(y))))
    assert p.h_distance(x, y) == pytest.approx(expected, abs=1e-12)


@pytest.mark.parametrize("space", SPACES, ids=_ids(SPACES))
def test_tangent_project_idempotent(space, rng):
    xs = space.sample(rng, 100)
    ws = rng.normal(size=xs.shape)
    p1 = space.tangent_project(xs, ws)
    p2 = space.tangent_project(xs, p1)
    np.testing.assert_allclose(p1, p2, atol=1e-12)


def test_sphere_radial_projection_kills_x():
    s = Sphere(3, 2.0)
    x = s.retract(np.array([1.0, 1.0, 1.0, 1.0]))
    np.testing.assert_allclose(s.tangent_project(x, x), 0.0, atol=1e-14)


def test_euclidean_projection_is_identity(rng):
    e = Euclidean(3)
    w = rng.normal(size=3)
    np.testing.assert_array_equal(e.tangent_project(np.zeros(3), w), w)


@pytest.mark.parametrize("space", SPACES, ids=_ids(SPACES))
def test_frame_is_orthonormal(space, rng):
    x = space.sample(rng, 1)[0]
    B = frame(space, x)
    assert B.shape == (space.dim, space.ambient_dim)
    G = np.array([[space.h_inner(x, bi, bj) for bj in B] for bi in B])
    np.testing.assert_allclose(G, np.eye(space.dim), atol=1e-10)


@pytest.mark.parametrize("space", SPACES, ids=_ids(SPACES))
def test_dexp_matches_finite_differences(space, rng):
    x = space.sample(rng, 20)
    v = space.tangent_project(x, rng.normal(size=x.shape))
    u = space.tangent_project(x, rng.normal(size=x.shape))
    eps = 1e-6
    fd = (space.h_exp(x, v + eps * u) - space.h_exp(x, v - eps * u)) / (2 * eps)
    np.testing.assert_allclose(space.h_dexp(x, v, u), fd, atol=1e-8)


def test_dexp_at_zero_is_identity(rng):
    s = Sphere(3, 1.0)
    x = s.sample(rng, 5)
    u = random_tangent(s, rng, x)
    np.testing.assert_array_equal(s.h_dexp(x, np.zeros_like(x), u), u)


def test_sphere_log_inverts_exp(rng):
    s = Sphere(3, 1.0)
    x = s.sample(rng, 30)
    v = random_tangent(s, rng, x)
    y = s.h_exp(x, 0.7 * v)
    np.testing.assert_allclose(s.h_log(x, y), 0.7 * v, atol=1e-12)


def test_sphere_antipodal_log_has_length_pi():
    s = Sphere(3, 1.0)
    x = np.array([1.0, 0, 0, 0])
    v = s.h_log(x, -x)
    assert np.sqrt(s.h_inner(x, v, v)) == pytest.approx(np.pi)


GREAT_SPHERES = [Sphere(3, 1.0), Sphere(3, 2.0), CompactGroup("SU2", 1.0)]


@pytest.mark.parametrize("length", [1e-4, 1e-6, 1e-8])
@pytest.mark.parametrize("space", GREAT_SPHERES, ids=_ids(GREAT_SPHERES))
def test_log_inverts_exp_at_short_range(space, length, rng):
    # the angle of nearly coincident points must not come from arccos
    x = space.sample(rng, 200)
    v = length * random_tangent(space, rng, x)
    err = np.linalg.norm(space.h_log(x, space.h_exp(x, v)) - v, axis=-1)
    assert np.max(err) / length < 1e-6


@pytest.mark.parametrize("d", [2, 4, 6, 8])
def test_norm_equals_numpy_bitwise(d, rng):
    # single rows, batches, a stack and a strided view, over many scales
    for shape in [(d,), (1, d), (3, d), (1000, d), (20, 7, d)]:
        v = rng.normal(size=shape) * 10.0 ** rng.uniform(-8, 8, size=shape[:-1] + (1,))
        assert np.array_equal(_norm(v), np.linalg.norm(v, axis=-1))
    v = rng.normal(size=(500, 2 * d))[:, ::2]
    assert np.array_equal(_norm(v), np.linalg.norm(v, axis=-1))


@pytest.mark.parametrize("s", [Sphere(3, 1.0), Sphere(3, 2.0), Sphere(7, 1.3)],
                         ids=["S3", "S3-R2", "S7"])
def test_sphere_maps_match_their_numpy_forms(s, rng):
    # _norm changes no bit of the sphere's maps: h_log of a point against a
    # batch and of row-aligned batches, h_exp, h_distance and retract, each
    # against its np.linalg.norm form
    x = s.sample(rng, 300)
    y = np.concatenate([s.sample(rng, 200), s.h_exp(x[200:], 1e-7 * random_tangent(s, rng, x[200:]))])
    R = s.radius
    for a, b in [(x[0], y), (x, y), (x[0], y[0])]:
        d = b - a
        dr = _dot(d, a) / R
        perp = d - (dr / R)[..., None] * a
        pn = np.linalg.norm(perp, axis=-1)
        theta = np.arctan2(pn, R + dr)
        want = (R * theta / np.where(pn < 1e-300, 1.0, pn))[..., None] * perp
        assert np.array_equal(s.h_log(a, b), want)
    chord = np.linalg.norm(x - y, axis=-1)
    assert np.array_equal(s.h_distance(x, y), 2.0 * R * np.arcsin(np.clip(chord / (2.0 * R), 0.0, 1.0)))
    v = s.tangent_project(x, rng.normal(size=x.shape))
    speed = np.linalg.norm(v, axis=-1)
    u = v / np.where(speed < 1e-300, 1.0, speed)[..., None]
    out = np.cos(speed / R)[..., None] * x + (R * np.sin(speed / R))[..., None] * u
    assert np.array_equal(s.h_exp(x, v), R * out / np.linalg.norm(out, axis=-1, keepdims=True))
    assert np.array_equal(Euclidean(3).h_distance(x[:, :3], y[:, :3]),
                          np.linalg.norm(y[:, :3] - x[:, :3], axis=-1))


def test_product_point_needs_its_ambient_dim():
    p = Product((Sphere(3, 1.0), Euclidean(2)))
    p.check_point([1, 0, 0, 0, 0.5, 0.5])
    for bad in ([1, 0, 0, 0, 0.5, 0.5, 9], [1, 0, 0, 0, 0.5]):
        with pytest.raises(SpaceError, match="ambient dim 6"):
            p.check_point(bad)


@pytest.mark.parametrize("R", [1e4, 1e8])
def test_sampled_points_on_large_spheres_are_points(R):
    # an absolute 1e-12 on | |x| - R | refused 36 and 92 of these 200
    s = Sphere(3, R)
    xs = s.sample(np.random.default_rng(0), 200)
    s.check_point(xs)
    for x in xs:
        s.check_point(x)


def test_point_rule_at_radius_one():
    s = Sphere(3, 1.0)
    s.check_point([1.0 + 5e-13, 0.0, 0.0, 0.0])
    with pytest.raises(SpaceError, match="^point off the sphere by 2.000e-12$"):
        s.check_point([1.0 + 2e-12, 0.0, 0.0, 0.0])
    with pytest.raises(SpaceError, match="^point off the sphere by"):
        s.check_point([0.0, 0.0, 0.0, 0.0])  # the origin has no retraction


def test_off_factor_product_point_names_the_product():
    p = Product((Sphere(3, 1.0), Euclidean(2)))
    with pytest.raises(SpaceError, match="^point off the product by 1.000e-01$"):
        p.check_point([1.1, 0, 0, 0, 0, 0])
    # each factor keeps its own tolerance: a far-out Euclidean factor does
    # not widen the sphere's to 1e-12 of the whole point's size
    with pytest.raises(SpaceError, match="^point off the product by 1.000e-07$"):
        p.check_point([1 + 1e-7, 0, 0, 0, 1e6, 0])
    with pytest.raises(SpaceError, match="non-finite"):
        p.check_point([1, 0, 0, 0, 0, np.inf])


def test_one_point_rule_for_every_space():
    for cls in (Euclidean, Sphere, CompactGroup, Product):
        assert "check_point" not in vars(cls)


def test_antipode_log_on_a_large_sphere_is_tangent():
    # an absolute 1e-14 on |perp| left it almost radial at R = 1e4
    R = 1e4
    s = Sphere(3, R)
    xs = s.sample(np.random.default_rng(0), 200)
    v = s.h_log(xs, -xs)
    vn = np.linalg.norm(v, axis=1)
    assert np.max(np.abs(_dot(v, xs)) / (vn * R)) <= 1e-12
    np.testing.assert_allclose(vn, np.pi * R, rtol=1e-12)


class _Draws:
    """An rng whose normal() returns the given draws in turn."""

    def __init__(self, *draws):
        self.draws = [np.asarray(g, dtype=float) for g in draws]

    def normal(self, size):
        g = self.draws.pop(0)
        assert g.shape == size
        return g


def test_random_tangent_redraws_a_radial_row_of_a_batch():
    s = Sphere(3, 1.0)
    x = np.eye(4)[:3]
    first = np.array([[2.0, 0, 0, 0], [0.3, 0.1, -0.7, 0.2], [0.5, -0.4, 0.2, 0.9]])
    # the accepted rows of a redraw are huge: measured against the first
    # row's new draw they would look radial, but they keep their own draw
    second = np.array([[0.5, 0.0, 0.0, 1.0], [0.0, 0.0, 0.0, 1e7], [1e7, 0.0, 0.0, 0.0]])
    rng = _Draws(first, second)
    u = random_tangent(s, rng, x)
    assert not rng.draws
    w = s.tangent_project(x[1:], first[1:])
    np.testing.assert_array_equal(u[1:], w / np.linalg.norm(w, axis=1)[:, None])
    np.testing.assert_array_equal(u[0], [0.0, 0.0, 0.0, 1.0])


def test_random_tangent_redraws_a_radial_point():
    s = Sphere(3, 1.0)
    x = np.array([1.0, 0.0, 0.0, 0.0])
    rng = _Draws([3.0, 0.0, 0.0, 0.0], [0.5, 1.0, 0.0, 0.0])
    np.testing.assert_array_equal(random_tangent(s, rng, x), [0.0, 1.0, 0.0, 0.0])
    assert not rng.draws
    # a point radial in all nine draws keeps its last projection, here 0
    rng = _Draws(*[[2.0, 0.0, 0.0, 0.0]] * 9)
    np.testing.assert_array_equal(random_tangent(s, rng, x), np.zeros(4))
    assert not rng.draws


def test_even_sphere_rejected():
    with pytest.raises(SpaceError):
        Sphere(2, 1.0)


@pytest.mark.parametrize("space, bad, says", [
    (Euclidean(2), [0.0, 0.0, 0.0], "expected ambient dim 2, got 3"),
    (Sphere(3, 1.0), [1.0, 0.0], "expected ambient dim 4, got 2"),
    (CompactGroup("SU2", 1.0), [1.0, 0.0, 0.0], "expected ambient dim 4, got 3"),
], ids=["E2", "S3", "SU2"])
def test_point_needs_the_ambient_dim(space, bad, says):
    with pytest.raises(SpaceError, match=says):
        space.check_point(bad)


@pytest.mark.parametrize("cfg, error, says", [
    ({"kind": "sphere", "dim": 3, "radius": 0}, SpaceError, "sphere radius must be positive"),
    ({"kind": "sphere", "dim": 3, "radius": -1.0}, SpaceError, "sphere radius must be positive"),
    ({"kind": "group", "name": "SU3"}, SpaceError,
     "unsupported group 'SU3'; only SU2 is implemented"),
    ({"kind": "group", "scale": 0.0}, SpaceError, "group scale must be positive"),
    ({"kind": "group", "scale": float("inf")}, ConfigError,
     '"scale" is a finite number, got Infinity'),
    ({"kind": "euclidean", "n": 2, "box": float("nan")}, ConfigError,
     '"box" is a finite number, got NaN'),
    ({"kind": "euclidean", "n": 0}, SpaceError, "euclidean dimension must be >= 1, got 0"),
    ({"kind": "euclidean", "n": -1}, SpaceError, "euclidean dimension must be >= 1, got -1"),
    ({"kind": "product"}, SpaceError, 'a product\'s "factors" is missing'),
    ({"kind": "product", "factors": []}, SpaceError, "product needs at least one factor"),
    ({"kind": "product", "factors": {"kind": "euclidean", "n": 2}}, SpaceError,
     'a product\'s "factors" is a list of spaces'),
], ids=["radius-0", "radius-neg", "group-SU3", "scale-0", "scale-inf", "box-nan",
        "euclidean-n0", "euclidean-n-neg", "factors-missing", "factors-empty", "factors-object"])
def test_space_configs_are_refused_where_built(cfg, error, says):
    with pytest.raises(error, match=says):
        space_from_config(cfg)


@pytest.mark.parametrize("make, says", [
    (lambda: Euclidean(2, box=float("nan")), "euclidean box must be positive and finite, got nan"),
    (lambda: Sphere(3, radius=float("inf")), "sphere radius must be positive and finite, got inf"),
    (lambda: CompactGroup("SU2", scale=float("inf")),
     "group scale must be positive and finite, got inf"),
], ids=["box-nan", "radius-inf", "scale-inf"])
def test_constructors_refuse_non_finite_sizes(make, says):
    # a config never gets here with NaN or Infinity (`config.json_number`);
    # a space built in Python does
    with pytest.raises(SpaceError, match=says):
        make()


def test_su2_scale_antipodal_distance():
    g = CompactGroup("SU2", 0.5)
    one = np.array([1.0, 0, 0, 0])
    assert g.h_distance(one, -one) == pytest.approx(0.5 * np.pi)


def test_space_config_round_trip():
    cfg = {"kind": "product", "factors": [
        {"kind": "sphere", "dim": 3, "radius": 1.0},
        {"kind": "euclidean", "n": 2},
    ]}
    p = space_from_config(cfg)
    assert isinstance(p, Product)
    assert space_from_config(p.to_config()) == p


def test_product_flattens_nested():
    p = Product((Product((Euclidean(1), Euclidean(1))), Sphere(3, 1.0)))
    assert len(p.factors) == 3
    assert p.ambient_dim == 6
