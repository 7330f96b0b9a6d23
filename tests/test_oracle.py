from __future__ import annotations

from pathlib import Path

import numpy as np
import pytest

from randers_lab.geodesics import f_distance, f_distance_batch
from randers_lab.killing import (
    EuclideanKilling,
    GroupKilling,
    SphereKilling,
    UnsupportedWind,
    zero_field,
)
from randers_lab.oracle import (
    GraphMismatch,
    build_graph,
    oracle_distance,
    oracle_distance_pairs,
)
from randers_lab.randers import NavigationData
from randers_lab.spaces import CompactGroup, Euclidean, Sphere


@pytest.fixture(scope="module")
def e2_graph(tmp_path_factory):
    e = Euclidean(2)
    nav = NavigationData(e, EuclideanKilling(e, np.array([0.5, 0.0])))
    cache = tmp_path_factory.mktemp("cache")
    return nav, build_graph(nav, 10_000, 12, seed=0, cache_dir=cache), cache


@pytest.fixture(scope="module")
def s3_windless_graph():
    s = Sphere(3, 1.0)
    nav = NavigationData(s, zero_field(s))
    return nav, build_graph(nav, 20_000, 16, seed=0)


def test_build_reports_connectivity_and_eps(e2_graph):
    nav, g, _ = e2_graph
    assert g.n_nodes == 10_000
    assert g.eps > 0
    # row/col arrays describe a directed edge list over all nodes
    assert g.rows.min() >= 0 and g.rows.max() < g.n_nodes
    assert (g.weights > 0).all()


def test_same_seed_same_hash(e2_graph):
    nav, g, cache = e2_graph
    g2 = build_graph(nav, 10_000, 12, seed=0, cache_dir=cache)
    assert g2.graph_hash == g.graph_hash


def test_different_seed_different_hash(e2_graph):
    nav, g, _ = e2_graph
    g2 = build_graph(nav, 10_000, 12, seed=1)
    assert g2.graph_hash != g.graph_hash


def test_querying_with_wrong_nav_rejected(e2_graph):
    nav_e, g, _ = e2_graph
    s = Sphere(3, 1.0)
    other = NavigationData(s, zero_field(s))
    with pytest.raises(GraphMismatch):
        oracle_distance(g, other, s.sample(np.random.default_rng(0), 2)[0],
                        s.sample(np.random.default_rng(1), 2)[0])


def test_directed_weights_are_asymmetric(e2_graph):
    nav, g, _ = e2_graph
    # find a reverse edge for some forward edge and compare weights
    fwd = {(int(r), int(c)): w for r, c, w in
           zip(g.rows[:2000], g.cols[:2000], g.weights[:2000])}
    gaps = [abs(w - fwd[(c, r)]) for (r, c), w in fwd.items() if (c, r) in fwd]
    assert max(gaps) > 1e-3


def test_oracle_euclidean_fixture(e2_graph):
    nav, g, _ = e2_graph
    est, hint = oracle_distance(g, nav, np.zeros(2), np.array([1.0, 0.0]))
    assert est == pytest.approx(2.0 / 3.0, rel=0.03)
    est2, _ = oracle_distance(g, nav, np.array([1.0, 0.0]), np.zeros(2))
    assert est2 == pytest.approx(2.0, rel=0.03)
    assert hint > 0


def test_windless_sphere_matches_arc(s3_windless_graph):
    nav, g = s3_windless_graph
    rng = np.random.default_rng(2)
    xs = nav.space.sample(rng, 20)
    ys = nav.space.sample(rng, 20)
    est = oracle_distance_pairs(g, nav, xs, ys)
    exact = nav.space.h_distance(xs, ys)
    np.testing.assert_allclose(est, exact, rtol=0.02)


def test_oracle_never_undercuts(s3_windless_graph):
    nav, g = s3_windless_graph
    rng = np.random.default_rng(3)
    xs = nav.space.sample(rng, 30)
    ys = nav.space.sample(rng, 30)
    est = oracle_distance_pairs(g, nav, xs, ys)
    d = f_distance_batch(nav, xs, ys)
    assert (d <= est + 1e-9).all()


def test_oracle_asymmetry_sign_agreement(e2_graph):
    nav, g, _ = e2_graph
    rng = np.random.default_rng(4)
    xs = rng.uniform(-3, 3, size=(15, 2))
    ys = rng.uniform(-3, 3, size=(15, 2))
    fwd = oracle_distance_pairs(g, nav, xs, ys)
    bwd = oracle_distance_pairs(g, nav, ys, xs)
    dfwd = f_distance_batch(nav, xs, ys)
    dbwd = f_distance_batch(nav, ys, xs)
    hint = 4.0 * g.eps
    for of, ob, af, ab in zip(fwd, bwd, dfwd, dbwd):
        if abs(af - ab) > 2 * hint:
            assert np.sign(of - ob) == np.sign(af - ab)


def test_estimates_monotone_in_n():
    # denser nets can only find shorter (or equal) paths, up to 0.5% noise
    s = Sphere(3, 1.0)
    nav = NavigationData(s, zero_field(s))
    rng = np.random.default_rng(5)
    xs = s.sample(rng, 5)
    ys = s.sample(rng, 5)
    prev = None
    for n, k in ((1_000, 10), (10_000, 12), (40_000, 14)):
        g = build_graph(nav, n, k, seed=0)
        est = oracle_distance_pairs(g, nav, xs, ys)
        if prev is not None:
            assert (est <= prev * 1.005).all()
        prev = est


def test_min_nodes_enforced(e2_graph):
    nav, _, _ = e2_graph
    with pytest.raises(ValueError):
        build_graph(nav, 50, 8, seed=0)


def test_hopf_pairs_certified(hopf_nav):
    g = build_graph(hopf_nav, 20_000, 64, seed=0)
    rng = np.random.default_rng(6)
    xs = hopf_nav.space.sample(rng, 10)
    ys = hopf_nav.space.sample(rng, 10)
    est = oracle_distance_pairs(g, hopf_nav, xs, ys)
    d = f_distance_batch(hopf_nav, xs, ys)
    assert (d <= est + 1e-9).all()
    np.testing.assert_allclose(d, est, rtol=0.05)


@pytest.mark.parametrize("cached", [False, True], ids=["no-cache", "cache"])
def test_build_refuses_wind_of_nonconstant_length(cached, tmp_path, monkeypatch):
    # F is constant along h-geodesics only for a wind of constant length;
    # for these the h-length runs over [0.05, 0.6] and [0.1, 0.7]
    monkeypatch.delenv("RANDERS_LAB_CACHE", raising=False)
    s3 = Sphere(3, 1.0)
    su2 = CompactGroup("SU2", 1.0)
    A = np.zeros((4, 4))
    A[1, 0], A[0, 1], A[3, 2], A[2, 3] = 0.6, -0.6, 0.05, -0.05
    winds = [SphereKilling(s3, A),
             GroupKilling(su2, np.array([0.0, 0.4, 0.0, 0.0]), np.array([0.0, 0.0, 0.3, 0.0]))]
    for W in winds:
        with pytest.raises(UnsupportedWind):
            build_graph(NavigationData(W.space, W), 1000, 8, seed=0,
                        cache_dir=tmp_path if cached else None)
    assert list(tmp_path.iterdir()) == []


def test_interrupted_cache_write_leaves_no_file(tmp_path, monkeypatch):
    e = Euclidean(2)
    nav = NavigationData(e, EuclideanKilling(e, np.array([0.5, 0.0])))
    savez = np.savez_compressed

    def interrupted(path, **arrays):
        Path(path).write_bytes(b"PK\x03\x04partial")
        raise OSError("disk full")

    monkeypatch.setattr(np, "savez_compressed", interrupted)
    with pytest.raises(OSError, match="disk full"):
        build_graph(nav, 1000, 8, seed=0, cache_dir=tmp_path)
    assert list(tmp_path.iterdir()) == []

    monkeypatch.setattr(np, "savez_compressed", savez)
    g = build_graph(nav, 1000, 8, seed=0, cache_dir=tmp_path)
    assert [p.suffix for p in tmp_path.iterdir()] == [".npz"]
    assert build_graph(nav, 1000, 8, seed=0, cache_dir=tmp_path).graph_hash == g.graph_hash
