from __future__ import annotations

from pathlib import Path

import numpy as np
import pytest
from scipy.sparse.csgraph import dijkstra

from randers_lab.geodesics import f_distance, f_distance_batch
from randers_lab.killing import (
    EuclideanKilling,
    GroupKilling,
    ProductKilling,
    SphereKilling,
    UnsupportedWind,
    constant_length_family,
    hopf_field,
    zero_field,
)
from randers_lab.oracle import (
    GraphDisconnected,
    GraphMismatch,
    _arc_weights,
    _knn_edges,
    build_graph,
    oracle_distance,
    oracle_distance_pairs,
)
from randers_lab.randers import NavigationData
from randers_lab.spaces import CompactGroup, Euclidean, Product, Sphere

from conftest import ANTI_HOPF, conjugated_hopf


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


@pytest.mark.parametrize("k", [0, 100, 150])
def test_k_below_node_count_enforced(e2_graph, k):
    nav, _, _ = e2_graph
    with pytest.raises(ValueError, match="k must lie in"):
        build_graph(nav, 100, k, seed=0)


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


def _winds():
    s3, su2, e2 = Sphere(3, 1.0), CompactGroup("SU2", 1.0), Euclidean(2)
    s5, s7 = Sphere(5, 1.3), Sphere(7, 1.0)
    prod = Product((s3, e2))
    blocks = np.zeros((4, 4))
    blocks[1, 0], blocks[0, 1], blocks[3, 2], blocks[2, 3] = 0.6, -0.6, 0.05, -0.05
    l, r = np.array([0.0, 0.4, 0.0, 0.0]), np.array([0.0, 0.0, 0.3, 0.0])
    return {
        "hopf+0.3": hopf_field(s3, 0.3),
        "hopf-0.3": hopf_field(s3, -0.3),
        "anti-hopf": SphereKilling(s3, ANTI_HOPF),
        "s3-blocks": SphereKilling(s3, blocks),
        "qjq-S5": SphereKilling(s5, conjugated_hopf(3, 0.3, seed=1)),
        "qjq-S7": SphereKilling(s7, conjugated_hopf(4, -0.4, seed=2)),
        "group-left": GroupKilling(su2, l, np.zeros(4)),
        "group-right": GroupKilling(su2, np.zeros(4), r),
        "group-pair": GroupKilling(su2, l, r),
        "euclidean-const": EuclideanKilling(e2, np.array([0.2, 0.1])),
        "zero": zero_field(prod),
        "product-nonconstant": ProductKilling(
            prod, (SphereKilling(s3, blocks), EuclideanKilling(e2, np.array([0.2, 0.0])))),
    }


WINDS = _winds()
REFUSED = {"s3-blocks", "group-pair", "product-nonconstant"}


@pytest.mark.parametrize("name", WINDS)
def test_family_and_oracle_share_one_acceptance_rule(name, tmp_path, monkeypatch):
    # a wind gets a family exactly when the oracle builds for it, and a
    # refused wind leaves nothing in the cache
    monkeypatch.delenv("RANDERS_LAB_CACHE", raising=False)
    nav = NavigationData(WINDS[name].space, WINDS[name])
    try:
        constant_length_family(nav)
        refused = False
    except UnsupportedWind:
        refused = True
    assert refused == (name in REFUSED)
    if refused:
        with pytest.raises(UnsupportedWind, match="constant length"):
            build_graph(nav, 200, 16, seed=0, cache_dir=tmp_path)
        assert list(tmp_path.iterdir()) == []
    else:
        build_graph(nav, 200, 16, seed=0, cache_dir=tmp_path)
        assert len(list(tmp_path.iterdir())) == 1


def test_disconnected_net_raises_at_the_requested_k(tmp_path):
    # no silent retry at a larger k: the graph would not be the one asked for
    e = Euclidean(2)
    nav = NavigationData(e, EuclideanKilling(e, np.array([0.2, 0.0])))
    with pytest.raises(GraphDisconnected, match="at k=2; use a larger k"):
        build_graph(nav, 100, 2, seed=0, cache_dir=tmp_path)
    assert list(tmp_path.iterdir()) == []


def test_interrupted_cache_write_leaves_no_file(tmp_path, monkeypatch):
    e = Euclidean(2)
    nav = NavigationData(e, EuclideanKilling(e, np.array([0.5, 0.0])))
    savez = np.savez

    def interrupted(path, **arrays):
        Path(path).write_bytes(b"PK\x03\x04partial")
        raise OSError("disk full")

    monkeypatch.setattr(np, "savez", interrupted)
    with pytest.raises(OSError, match="disk full"):
        build_graph(nav, 1000, 8, seed=0, cache_dir=tmp_path)
    assert list(tmp_path.iterdir()) == []

    monkeypatch.setattr(np, "savez", savez)
    g = build_graph(nav, 1000, 8, seed=0, cache_dir=tmp_path)
    assert [p.suffix for p in tmp_path.iterdir()] == [".npz"]
    assert build_graph(nav, 1000, 8, seed=0, cache_dir=tmp_path).graph_hash == g.graph_hash


def test_compressed_cache_still_loads(tmp_path):
    # caches written with np.savez_compressed under the same keys load as before
    e = Euclidean(2)
    nav = NavigationData(e, EuclideanKilling(e, np.array([0.5, 0.0])))
    g = build_graph(nav, 1000, 8, seed=0, cache_dir=tmp_path)
    (path,) = tmp_path.iterdir()
    with np.load(path) as z:
        arrays = {key: z[key] for key in z.files}
    np.savez_compressed(path, **arrays)
    with np.load(path) as z:
        assert z.zip.getinfo("rows.npy").compress_type != 0
    assert build_graph(nav, 1000, 8, seed=0, cache_dir=tmp_path).graph_hash == g.graph_hash


@pytest.mark.parametrize("space, k", [
    (Euclidean(2), 6),
    (Sphere(3, 1.0), 8),
    (CompactGroup("SU2", 0.8), 8),
    (Product((Sphere(3, 1.0), Euclidean(2))), 8),
], ids=["E2", "S3", "SU2-0.8", "S3xR2"])
def test_knn_edges_match_brute_force(space, k):
    # the chord kNN (re-ranked where the space needs it) is the h-kNN, and
    # eps is the largest h-distance from a node to its nearest neighbour
    n = 500
    nodes = space.sample(np.random.default_rng(8), n)
    i, j = np.meshgrid(np.arange(n), np.arange(n), indexing="ij")
    d = space.h_distance(nodes[i.ravel()], nodes[j.ravel()]).reshape(n, n)
    np.fill_diagonal(d, np.inf)
    nn = np.argsort(d, axis=1, kind="stable")[:, :k]
    src = np.repeat(np.arange(n), k)
    brute = set(zip(src, nn.ravel())) | set(zip(nn.ravel(), src))

    rows, cols, d_nn = _knn_edges(space, nodes, k)
    edges = list(zip(rows.tolist(), cols.tolist()))
    assert len(edges) == len(set(edges))
    assert set(edges) == {(int(a), int(b)) for a, b in brute}
    assert np.max(d_nn) == np.max(d.min(axis=1))


def test_build_keeps_its_csr(monkeypatch):
    # the strong-component check's matrix is reused by the queries
    monkeypatch.delenv("RANDERS_LAB_CACHE", raising=False)
    e = Euclidean(2)
    nav = NavigationData(e, EuclideanKilling(e, np.array([0.5, 0.0])))
    g = build_graph(nav, 1000, 8, seed=0)
    assert "csr" in vars(g)
    assert g.csr.shape == (1000, 1000) and g.csr.nnz == len(g.rows)


def test_batches_must_align(hopf_nav):
    g = build_graph(hopf_nav, 500, 16, seed=0)
    xs = hopf_nav.space.sample(np.random.default_rng(1), 3)
    with pytest.raises(ValueError, match="3 rows but ys has 1"):
        oracle_distance_pairs(g, hopf_nav, xs, xs[:1])
    est = oracle_distance_pairs(g, hopf_nav, np.empty((0, 4)), np.empty((0, 4)))
    assert est.shape == (0,)


def _reference_pairs(g, nav, xs, ys):
    """The unbounded query: a full Dijkstra from every snapped source and
    the two-arc pass recursing once, each leg recomputed. Returns the
    estimates, the graph candidates and the best of the other curves."""
    def two_arc(x, y, depth):
        wx = _arc_weights(nav, np.broadcast_to(x, g.nodes.shape), g.nodes)
        wy = _arc_weights(nav, g.nodes, np.broadcast_to(y, g.nodes.shape))
        tot = wx + wy
        zi = int(np.argmin(tot))
        best = float(tot[zi])
        if depth > 0:
            z = g.nodes[zi]
            best = min(best, two_arc(x, z, depth - 1) + two_arc(z, y, depth - 1))
        return best

    space = nav.space
    _, si = g.tree.query(space.embed(xs), k=1)
    _, ti = g.tree.query(space.embed(ys), k=1)
    hop_out = _arc_weights(nav, xs, g.nodes[si])
    hop_in = _arc_weights(nav, g.nodes[ti], ys)
    hop_out = np.where(space.h_distance(xs, g.nodes[si]) < 1e-14, 0.0, hop_out)
    hop_in = np.where(space.h_distance(g.nodes[ti], ys) < 1e-14, 0.0, hop_in)
    srcs = np.unique(si)
    D = dijkstra(g.csr, directed=True, indices=srcs)
    row = {int(s): r for r, s in enumerate(srcs)}
    est = np.empty(len(xs))
    graph = np.empty(len(xs))
    curves = np.empty(len(xs))
    for i in range(len(xs)):
        graph[i] = hop_out[i] + D[row[int(si[i])], ti[i]] + hop_in[i]
        direct = float(_arc_weights(nav, xs[i][None, :], ys[i][None, :])[0])
        curves[i] = min(direct, two_arc(xs[i], ys[i], depth=1))
        est[i] = min(graph[i], curves[i])
    return est, graph, curves


def _strong_product_nav():
    prod = Product((Sphere(3, 1.0), Euclidean(2)))
    return NavigationData(prod, ProductKilling(prod, (
        hopf_field(prod.factors[0], 0.6),
        EuclideanKilling(prod.factors[1], np.array([0.6, 0.0])))))


def _s3_hopf_nav():
    s3 = Sphere(3, 1.0)
    return NavigationData(s3, hopf_field(s3, 0.3))


@pytest.mark.parametrize("make_nav, graph_wins", [
    (_strong_product_nav, True),
    (_s3_hopf_nav, False),
], ids=["S3xR2-strong", "S3-hopf-0.3"])
def test_bounded_query_matches_unbounded(make_nav, graph_wins):
    # limiting each Dijkstra to what can still beat the best curve known
    # leaves every estimate unchanged, bit for bit
    nav = make_nav()
    g = build_graph(nav, 2000, 32, seed=5)
    rng = np.random.default_rng(3)
    xs = nav.space.sample(rng, 100)
    ys = nav.space.sample(rng, 100)
    # a second pair from the same source, x == y, and x on a net node
    xs = np.vstack([xs, xs[:1], xs[1:2], g.nodes[7:8]])
    ys = np.vstack([ys, ys[2:3], xs[1:2], ys[3:4]])
    want, graph, curves = _reference_pairs(g, nav, xs, ys)
    got = oracle_distance_pairs(g, nav, xs, ys)
    assert np.array_equal(got, want)
    # the graph path wins somewhere only under the strong wind
    assert np.any(graph < curves) == graph_wins
