from __future__ import annotations

from pathlib import Path

import numpy as np
import pytest
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components, dijkstra
from scipy.spatial import cKDTree

from randers_lab import oracle
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
    _load,
    build_graph,
    oracle_distance,
    oracle_distance_pairs,
)
from randers_lab.randers import NavigationData
from randers_lab.spaces import CompactGroup, Euclidean, Product, Sphere, random_tangent

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
    assert len(g.nodes) == 10_000
    assert g.eps > 0
    # row/col arrays describe an undirected edge list over all nodes,
    # weighted in both directions
    assert g.rows.min() >= 0 and g.cols.max() < len(g.nodes)
    assert (g.rows < g.cols).all()
    assert (g.weights_fwd > 0).all() and (g.weights_rev > 0).all()


def test_same_seed_same_hash(e2_graph):
    nav, g, cache = e2_graph
    g2 = build_graph(nav, 10_000, 12, seed=0, cache_dir=cache)
    assert g2.graph_hash == g.graph_hash
    # the landmark table is not hashed, so it must survive the cache itself
    assert np.array_equal(g2.d_land, g.d_land)


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
    # each stored edge carries both directions, and the search graph holds
    # them as its two orientations
    r, c = g.rows[:2000], g.cols[:2000]
    fwd, rev = g.weights_fwd[:2000], g.weights_rev[:2000]
    assert np.max(np.abs(fwd - rev)) > 1e-3
    assert np.array_equal(np.asarray(g.csr[r, c]).ravel(), fwd)
    assert np.array_equal(np.asarray(g.csr[c, r]).ravel(), rev)


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
    tiny = np.zeros((4, 4))
    tiny[1, 0], tiny[0, 1], tiny[3, 2], tiny[2, 3] = 5e-7, -5e-7, 1e-6, -1e-6
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
        "product-factor-nonconstant": ProductKilling(
            prod, (SphereKilling(s3, tiny), EuclideanKilling(e2, np.array([0.9, 0.0])))),
    }


WINDS = _winds()
REFUSED = {"s3-blocks", "group-pair", "product-nonconstant", "product-factor-nonconstant"}


def test_product_length_hides_a_factor_spread():
    # the l2 combination shrinks the sphere factor's spread [5e-7, 1e-6] to
    # about 4e-13, below the tolerance, so only a per-factor test refuses it
    W = WINDS["product-factor-nonconstant"]
    lo, hi = W.length_range()
    assert hi - lo < 1e-12
    with pytest.raises(UnsupportedWind, match="on factor 0 runs over"):
        constant_length_family(NavigationData(W.space, W))


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


def test_disconnected_count_is_the_unreachable_nodes():
    # the count is the nodes outside node 0's component of the h-kNN graph
    # of the same 100 nodes, found here by brute force
    e = Euclidean(2)
    nav = NavigationData(e, EuclideanKilling(e, np.array([0.2, 0.0])))
    nodes = e.sample(np.random.default_rng(0), 100)
    d = e.h_distance(nodes[:, None], nodes[None])
    np.fill_diagonal(d, np.inf)
    near = np.argsort(d, axis=1)[:, :2]
    knn = csr_matrix((np.ones(200), (np.repeat(np.arange(100), 2), near.ravel())), (100, 100))
    _, label = connected_components(knn, directed=False)
    far = int(np.count_nonzero(label != label[0]))
    assert far > 0
    with pytest.raises(GraphDisconnected, match=f"^{far} nodes unreachable from node 0 at k=2"):
        build_graph(nav, 100, 2, seed=0)


def test_disconnected_orbit_net_raises_at_the_requested_k():
    # the 240-node S^3 orbit net (2 base rows) falls apart at k = 2 into
    # 12 strong components, and holds together from k = 3
    nav = _s3_hopf_nav()
    with pytest.raises(GraphDisconnected, match="at k=2; use a larger k"):
        build_graph(nav, 240, 2, seed=7)
    assert np.isfinite(build_graph(nav, 240, 3, seed=7).d_land).all()


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


@pytest.mark.parametrize("via_env", [False, True], ids=["cache_dir", "RANDERS_LAB_CACHE"])
@pytest.mark.parametrize("inside", [False, True], ids=["a-file", "below-a-file"])
def test_unusable_cache_directory_fails_before_the_build(tmp_path, monkeypatch, via_env, inside):
    # a regular file where the directory should be, or above it, is refused
    # before the kd-tree runs, naming the path
    e = Euclidean(2)
    nav = NavigationData(e, EuclideanKilling(e, np.array([0.5, 0.0])))
    blocker = tmp_path / "cache"
    blocker.write_text("not a directory")
    cache = blocker / "sub" if inside else blocker

    def refuse(*args, **kwargs):
        raise AssertionError("the build ran before the cache directory was checked")

    monkeypatch.setattr(oracle, "_knn_edges", refuse)
    if via_env:
        monkeypatch.setenv("RANDERS_LAB_CACHE", str(cache))
    with pytest.raises(ValueError, match=f"^oracle cache '{cache}' is not a usable directory"):
        build_graph(nav, 1000, 8, seed=0, cache_dir=None if via_env else cache)
    assert blocker.read_text() == "not a directory"


def test_compressed_cache_still_loads(tmp_path):
    # caches written with np.savez_compressed under the same keys load as before
    e = Euclidean(2)
    nav = NavigationData(e, EuclideanKilling(e, np.array([0.5, 0.0])))
    g = build_graph(nav, 1000, 8, seed=0, cache_dir=tmp_path)
    (path,) = tmp_path.iterdir()
    with np.load(path) as z:
        arrays = {key: z[key] for key in z.files}
    assert {"rows", "cols", "weights_fwd", "weights_rev", "d_land"} <= arrays.keys()
    np.savez_compressed(path, **arrays)
    with np.load(path) as z:
        assert z.zip.getinfo("rows.npy").compress_type != 0
        assert z.zip.getinfo("weights_rev.npy").compress_type != 0
        assert z.zip.getinfo("d_land.npy").compress_type != 0
    loaded = build_graph(nav, 1000, 8, seed=0, cache_dir=tmp_path)
    assert loaded.graph_hash == g.graph_hash
    assert (loaded.csr != g.csr).nnz == 0
    assert np.array_equal(loaded.d_land, g.d_land)


def _without(key):
    def spoil(data, path):
        # a file in an older layout, under this version's name
        path.write_bytes(data)
        with np.load(path) as z:
            arrays = {k: z[k] for k in z.files if k != key}
        np.savez(path, **arrays)
        return path.read_bytes()
    return spoil


@pytest.mark.parametrize("space, spoil", [
    ("E2", lambda data, path: data[:len(data) // 2]),
    ("E2", lambda data, path: b""),
    ("E2", lambda data, path: b"not a cache file"),
    ("E2", _without("d_land")),
    ("S3", _without("leg_row")),  # a compact space's row of x-legs
], ids=["truncated", "empty", "garbage", "missing-key", "missing-leg-row"])
def test_unreadable_cache_is_a_miss(space, spoil, tmp_path):
    # the graph is rebuilt and the file atomically replaced by a readable one
    nav = {"E2": _e2_nav, "S3": _s3_hopf_nav}[space]()
    g = build_graph(nav, 1000, 8, seed=0, cache_dir=tmp_path)
    (path,) = tmp_path.iterdir()
    data = path.read_bytes()
    path.write_bytes(spoil(data, path))
    rebuilt = build_graph(nav, 1000, 8, seed=0, cache_dir=tmp_path)
    assert rebuilt.graph_hash == g.graph_hash
    assert list(tmp_path.iterdir()) == [path]
    assert path.read_bytes() == data
    assert _load(path).graph_hash == g.graph_hash


@pytest.mark.parametrize("space, k", [
    (Euclidean(2), 6),
    (Sphere(3, 1.0), 8),
    (CompactGroup("SU2", 0.8), 8),
    (Product((Sphere(3, 1.0), Euclidean(2))), 8),
], ids=["E2", "S3", "SU2-0.8", "S3xR2"])
def test_knn_edges_match_brute_force(space, k):
    # the edges are the chord kNN of the embedding, and eps is the largest
    # h-distance from a node to its chord-nearest neighbour; where
    # h-distance grows with the chord (E^2, S^3, SU(2)) they are the h-kNN
    n = 500
    nodes = space.sample(np.random.default_rng(8), n)
    i, j = np.meshgrid(np.arange(n), np.arange(n), indexing="ij")
    emb = space.embed(nodes)
    chord = np.linalg.norm(emb[i] - emb[j], axis=-1)
    d = space.h_distance(nodes[i.ravel()], nodes[j.ravel()]).reshape(n, n)
    np.fill_diagonal(chord, np.inf)
    np.fill_diagonal(d, np.inf)

    def undirected(dist):
        nn = np.argsort(dist, axis=1, kind="stable")[:, :k]
        src = np.repeat(np.arange(n), k)
        return {(int(a), int(b)) for a, b in zip(src, nn.ravel())} | {
            (int(b), int(a)) for a, b in zip(src, nn.ravel())}

    # a net of random nodes is the orbit net of the trivial group
    rows, cols, d_nn = _knn_edges(space, nodes, k, np.zeros((1, 1), dtype=np.int32))
    assert (rows < cols).all()
    edges = list(zip(rows.tolist(), cols.tolist()))
    assert len(edges) == len(set(edges))
    # each undirected edge stands for both of its orientations
    both = set(edges) | {(b, a) for a, b in edges}
    assert both == undirected(chord)
    assert len(both) == 2 * len(edges)
    nearest = np.argmin(chord, axis=1)
    assert np.max(d_nn) == np.max(d[np.arange(n), nearest])
    if isinstance(space, Product):
        assert np.max(d_nn) >= np.max(d.min(axis=1))
    else:
        assert both == undirected(d)
        assert np.max(d_nn) == np.max(d.min(axis=1))


def test_build_keeps_its_csr(monkeypatch):
    # the landmark search's matrix is reused by the queries
    monkeypatch.delenv("RANDERS_LAB_CACHE", raising=False)
    e = Euclidean(2)
    nav = NavigationData(e, EuclideanKilling(e, np.array([0.5, 0.0])))
    g = build_graph(nav, 1000, 8, seed=0)
    assert "csr" in vars(g)
    assert g.csr.shape == (1000, 1000) and g.csr.nnz == 2 * len(g.rows)


def test_batches_must_align(e2_nav, hopf_nav):
    # a NaN source used to fail deep inside the move to node 0 on S^3, and
    # in the snap's kd-tree on E^2
    for nav in (e2_nav, hopf_nav):
        g = build_graph(nav, 500, 16, seed=0)
        xs = nav.space.sample(np.random.default_rng(1), 3)
        with pytest.raises(ValueError, match="3 rows but ys has 1"):
            oracle_distance_pairs(g, nav, xs, xs[:1])
        bad = xs.copy()
        bad[1, 0] = np.nan
        with pytest.raises(ValueError, match=r"^the oracle needs finite points at a finite "
                                             r"h-distance; 1 of 3 rows are not, the first \[1\]$"):
            oracle_distance_pairs(g, nav, bad, xs)
        d = nav.space.ambient_dim
        with pytest.raises(ValueError, match=rf"^the oracle: points here are {d} coordinates "
                                             rf"\(ambient_dim\), got points of shape "
                                             rf"\({d},\) and \({d + 1},\)$"):
            oracle_distance_pairs(g, nav, xs, np.hstack([xs, xs[:, :1]]))
        with pytest.raises(ValueError, match=rf"shape \(3, {d}\) and \({d},\)$"):
            oracle_distance(g, nav, xs, xs[0])
        est = oracle_distance_pairs(g, nav, np.empty((0, d)), np.empty((0, d)))
        assert est.shape == (0,)


def _nearest_nodes(g, space, pts):
    """The node nearest each point in chord, by a kd-tree of its own: the
    reference for the queries' snaps."""
    return cKDTree(space.embed(g.nodes)).query(space.embed(pts), k=1)[1]


def _reference_pairs(g, nav, xs, ys):
    """The unbounded query: a full Dijkstra from every snapped source and
    the two-arc pass recursing once, each leg recomputed. Returns the
    estimates, the graph candidates and the best of the other curves."""
    def two_arc(x, y, depth):
        wx = _arc_weights(nav, np.broadcast_to(x, g.nodes.shape), g.nodes)[0]
        wy = _arc_weights(nav, np.broadcast_to(y, g.nodes.shape), g.nodes)[1]
        tot = wx + wy
        zi = int(np.argmin(tot))
        best = float(tot[zi])
        if depth > 0:
            z = g.nodes[zi]
            best = min(best, two_arc(x, z, depth - 1) + two_arc(z, y, depth - 1))
        return best

    si, ti = _nearest_nodes(g, nav.space, xs), _nearest_nodes(g, nav.space, ys)
    hop_out = _arc_weights(nav, xs, g.nodes[si])[0]
    hop_in = _arc_weights(nav, g.nodes[ti], ys)[0]
    srcs = np.unique(si)
    D = dijkstra(g.csr, directed=True, indices=srcs)
    row = {int(s): r for r, s in enumerate(srcs)}
    est = np.empty(len(xs))
    graph = np.empty(len(xs))
    curves = np.empty(len(xs))
    for i in range(len(xs)):
        graph[i] = hop_out[i] + D[row[int(si[i])], ti[i]] + hop_in[i]
        direct = float(_arc_weights(nav, xs[i][None, :], ys[i][None, :])[0][0])
        curves[i] = min(direct, two_arc(xs[i], ys[i], depth=1))
        est[i] = min(graph[i], curves[i])
    # the sources a search bounded by the curves alone would visit
    bounded = np.unique(si[curves - hop_out - hop_in + 1e-9 * curves >= 0])
    return est, graph, curves, bounded


def _base_point_reference(g, nav, xs, ys):
    """The query on a compact space with nothing pruned: each pair moved
    by rho_x, the flow that carries x to node 0, one full Dijkstra from
    node 0, and the two-arc over all nodes. Returns the estimates, the
    graph candidates and the best of the other curves."""
    space, o = nav.space, g.nodes[0]
    family = constant_length_family(nav)
    D = dijkstra(g.csr, directed=True, indices=0)
    graph = np.empty(len(xs))
    curves = np.empty(len(xs))
    for i, (x, y) in enumerate(zip(xs, ys)):
        # a copy, as in the oracle: the flow returns a strided real part, and
        # numpy's sums can round differently over a strided operand
        xp, yp = np.array(family.match(x, space.h_log(x, o)).flow(np.stack([x, y]), 1.0))
        t = _nearest_nodes(g, space, yp)
        graph[i] = _arc_weights(nav, xp, o)[0] + D[t] + _arc_weights(nav, g.nodes[t], yp)[0]
        direct = float(_arc_weights(nav, x, y)[0])
        curves[i] = min(direct, _all_nodes_two_arc(nav, g, xp, yp, _arc_weights(nav, xp, o)[0]))
    return np.minimum(graph, curves), graph, curves


def _strong_product_nav():
    prod = Product((Sphere(3, 1.0), Euclidean(2)))
    return NavigationData(prod, ProductKilling(prod, (
        hopf_field(prod.factors[0], 0.6),
        EuclideanKilling(prod.factors[1], np.array([0.6, 0.0])))))


def _s3_hopf_nav():
    s3 = Sphere(3, 1.0)
    return NavigationData(s3, hopf_field(s3, 0.3))


def _e2_nav():
    e2 = Euclidean(2)
    return NavigationData(e2, EuclideanKilling(e2, np.array([0.5, 0.0])))


@pytest.mark.parametrize("make_nav", [_e2_nav, _strong_product_nav], ids=["E2", "S3xR2-strong"])
def test_edge_weights_in_blocks_keep_the_graph(make_nav, monkeypatch):
    # 1000 nodes at k = 8 hold about 5000 edges: with blocks of 1000 the
    # edge weights run over several blocks and give the one-block graph
    nav = make_nav()
    whole = build_graph(nav, 1000, 8, seed=3)
    monkeypatch.setattr(oracle, "_CHUNK", 1000)
    blocks = build_graph(nav, 1000, 8, seed=3)
    assert len(blocks.rows) > 3 * 1000
    assert blocks.graph_hash == whole.graph_hash


@pytest.mark.parametrize("make_nav", [_e2_nav, _s3_hopf_nav, _strong_product_nav],
                         ids=["E2", "S3-hopf-0.3", "S3xR2-strong"])
def test_landmark_bound_is_below_the_graph_distance(make_nav):
    nav = make_nav()
    g = build_graph(nav, 2000, 32, seed=5)
    if nav.space.compact:
        # queries run from node 0 alone, and the one row is its full search
        assert g.d_land.shape == (1, len(g.nodes))
        assert np.array_equal(g.d_land, dijkstra(g.csr, directed=True, indices=[0]))
        return
    # each row is a full search from its landmark, the one node at distance
    # 0; farthest-point sampling starts at node 0 and never repeats a node
    land = np.argmin(g.d_land, axis=1)
    assert land[0] == 0 and len(set(land.tolist())) == len(land) == 8
    assert np.array_equal(g.d_land, dijkstra(g.csr, directed=True, indices=land))
    rng = np.random.default_rng(11)
    s, t = rng.integers(0, len(g.nodes), size=(2, 200))
    d = dijkstra(g.csr, directed=True, indices=s)[np.arange(200), t]
    lb = g.lower_bound(s, t)
    # up to rounding, far inside the queries' 1e-9 relative margin
    assert np.all(lb <= d * (1 + 1e-12))
    assert np.median(lb / d) > 0.5


@pytest.mark.parametrize("make_nav, graph_wins", [
    (_strong_product_nav, True),
    (_s3_hopf_nav, False),
], ids=["S3xR2-strong", "S3-hopf-0.3"])
def test_bounded_query_matches_unbounded(make_nav, graph_wins, monkeypatch):
    # limiting each Dijkstra to what can still beat the best curve known,
    # and skipping the pairs whose landmark bound already exceeds that,
    # leaves every estimate unchanged, bit for bit; on a compact space every
    # pair is moved to node 0, and the build's search from there is the one
    # a query needs
    nav = make_nav()
    g = build_graph(nav, 2000, 32, seed=5)
    rng = np.random.default_rng(3)
    xs = nav.space.sample(rng, 100)
    ys = nav.space.sample(rng, 100)
    # a second pair from the same source, x == y, and x on a net node
    xs = np.vstack([xs, xs[:1], xs[1:2], g.nodes[7:8]])
    ys = np.vstack([ys, ys[2:3], xs[1:2], ys[3:4]])
    if nav.space.compact:
        want, graph, curves = _base_point_reference(g, nav, xs, ys)
    else:
        want, graph, curves, bounded = _reference_pairs(g, nav, xs, ys)
    searched = []

    def counted(*args, **kwargs):
        searched.append(kwargs["indices"])
        return dijkstra(*args, **kwargs)

    monkeypatch.setattr(oracle, "dijkstra", counted)
    got = oracle_distance_pairs(g, nav, xs, ys)
    assert np.array_equal(got, want)
    # the graph path wins somewhere only under the strong wind
    assert np.any(graph < curves) == graph_wins
    if nav.space.compact:
        assert searched == []
        return
    # the landmark bound leaves out some sources the budget alone would search
    assert set(searched) <= set(bounded.tolist())
    assert len(searched) < len(bounded)


def _noether_winds():
    s3, su2, e2, s5 = Sphere(3, 1.0), CompactGroup("SU2", 0.8), Euclidean(2), Sphere(5, 1.3)
    prod = Product((s3, e2))
    return {
        "E2": EuclideanKilling(e2, np.array([0.5, 0.0])),
        "S3-hopf": hopf_field(s3, 0.3),
        "S3-anti-hopf": SphereKilling(s3, ANTI_HOPF),
        "SU2-left": GroupKilling(su2, np.array([0.0, 0.4, 0.0, 0.0]), np.zeros(4)),
        "S3xR2": ProductKilling(prod, (hopf_field(s3, 0.6),
                                       EuclideanKilling(e2, np.array([0.6, 0.0])))),
        "qjq-S5": SphereKilling(s5, conjugated_hopf(3, 0.3, seed=1)),
    }


NOETHER_WINDS = _noether_winds()


def _near_cut_locus(space, rng, a):
    """Points 1e-3 short of a's cut locus on every compact factor (a unit
    step on Euclidean ones, which have none)."""
    if isinstance(space, Product):
        return np.concatenate([_near_cut_locus(f, rng, af)
                               for f, af in zip(space.factors, space.split(a))], axis=-1)
    r = space.injectivity_radius
    return space.h_exp(a, (r - 1e-3 if np.isfinite(r) else 1.0) * random_tangent(space, rng, a))


@pytest.mark.parametrize("name", NOETHER_WINDS)
def test_reverse_weight_matches_the_direct_route(name):
    # the reverse weight from the forward log (the first integral h(v, W)
    # is constant along the arc) equals F(b, log_b(a)), the log taken at b
    W = NOETHER_WINDS[name]
    space, nav = W.space, NavigationData(W.space, W)
    rng = np.random.default_rng(17)
    a = space.sample(rng, 600)
    b = np.concatenate([
        space.sample(rng, 200),
        space.h_exp(a[200:400], 1e-8 * random_tangent(space, rng, a[200:400])),
        _near_cut_locus(space, rng, a[400:]),
    ])
    fwd, rev = _arc_weights(nav, a, b)
    assert np.array_equal(fwd, nav.finsler_norm(a, space.h_log(a, b)))
    direct = nav.finsler_norm(b, space.h_log(b, a))
    if name == "E2":
        assert np.array_equal(rev, direct)
    else:
        np.testing.assert_allclose(rev, direct, rtol=1e-12, atol=0)


@pytest.mark.parametrize("make_nav, n_edges, eps", [
    (_e2_nav, 22946, 0.38800879236779207),
    (_s3_hopf_nav, 23520, 0.22451305959147969),
], ids=["E2", "S3-hopf-0.3"])
def test_undirected_storage_keeps_the_directed_graph(make_nav, n_edges, eps):
    # on E^2 the directed arc count and eps are the values the graph had
    # when every orientation was stored as its own row; on S^3 (the orbit
    # net of 2I, 17 base rows) every stored edge is tiled to all 120 orbits,
    # in both orientations. Each forward weight is the direct route's
    # F(r, log_r(c)) bit for bit
    nav = make_nav()
    g = build_graph(nav, 2000, 10, seed=0)
    assert 2 * len(g.mult) * len(g.rows) == g.csr.nnz == n_edges
    assert g.eps == eps
    a, b = g.nodes[g.rows], g.nodes[g.cols]
    assert np.array_equal(g.weights_fwd, nav.finsler_norm(a, nav.space.h_log(a, b)))


def _all_nodes_two_arc(nav, g, x, y, hop):
    """`_best_two_arc` with every leg over all nodes: the search the chord
    bound prunes. On a compact space the x-legs are the curves x -> o -> v
    through node 0, of F-length hop + F(o -> v)."""
    nodes = g.nodes
    if nav.space.compact:
        wx = hop + _arc_weights(nav, nodes[0], nodes)[0]
    else:
        wx, _ = _arc_weights(nav, x, nodes)
    _, wy = _arc_weights(nav, y, nodes)
    tot = wx + wy
    zi = int(np.argmin(tot))
    from_z, to_z = _arc_weights(nav, nodes[zi], nodes)
    return min(float(tot[zi]), float(np.min(wx + to_z)) + float(np.min(from_z + wy)))


@pytest.mark.parametrize("name", NOETHER_WINDS)
def test_pruned_two_arc_matches_all_nodes(name, monkeypatch):
    # legs over the nodes inside the chord ellipse alone give the same
    # length, bit for bit, as legs over all nodes; "S3xR2" is the strong
    # product wind of `_strong_product_nav`
    W = NOETHER_WINDS[name]
    space, nav = W.space, NavigationData(W.space, W)
    g = build_graph(nav, 2000, 32, seed=5)
    rng = np.random.default_rng(23)
    x = space.sample(rng, 40)
    y = np.concatenate([
        space.sample(rng, 30),
        _near_cut_locus(space, rng, x[30:36]),  # 1e-3 short of the cut locus
        space.h_exp(x[36:38], 1e-8 * random_tangent(space, rng, x[36:38])),
        x[38:39],  # x == y
        g.nodes[11:12],  # y on a net node
    ])
    # x on a node; both on one node; x and y 1e-13 before and after a node
    # along the wind's integral curve, a geodesic, where F(v) = |v|_h/(1+w)
    # makes the chord bound tight and the coordinates' rounding makes the
    # chords exceed the h-distance by more than the relative margin
    z = g.nodes[5]
    wz = W.evaluate(z)
    step = 1e-13 * wz / np.sqrt(space.h_inner(z, wz, wz))
    x = np.vstack([x, g.nodes[3:4], g.nodes[4:5], space.h_exp(z, -step)])
    y = np.vstack([y, y[0:1], g.nodes[4:5], space.h_exp(z, step)])
    # on a compact space the x-legs pass through node 0, whatever x is
    hops = _arc_weights(nav, x, g.nodes[0])[0]
    legs = []

    def counted(nav_, a, b):
        legs.append(len(np.atleast_2d(b)))
        return _arc_weights(nav_, a, b)

    want = [_all_nodes_two_arc(nav, g, a, b, h) for a, b, h in zip(x, y, hops)]
    monkeypatch.setattr(oracle, "_arc_weights", counted)
    got = [oracle._best_two_arc(nav, g, a, b, h)[0] for a, b, h in zip(x, y, hops)]
    assert got == want
    # the legs visit at most about half of the nodes (a quarter to a third
    # but for the strong product wind, whose 1 + w is 1.85)
    assert sum(legs) < 0.6 * 3 * len(x) * len(g.nodes)


def _compact_winds():
    s3, su2 = Sphere(3, 1.0), CompactGroup("SU2", 0.8)
    left = GroupKilling(su2, np.array([0.0, 0.4, 0.0, 0.0]), np.zeros(4))
    prod = Product((s3, su2))
    return {
        "S3-hopf": hopf_field(s3, 0.3),
        "SU2-left": left,
        "S3xSU2": ProductKilling(prod, (hopf_field(s3, 0.3), left)),
    }


COMPACT_WINDS = _compact_winds()


@pytest.mark.parametrize("name", COMPACT_WINDS)
def test_compact_two_arc_starts_from_the_leg_row(name, monkeypatch):
    # on a compact space the query moves x to x' at node 0, o, and every
    # x-leg is the curve x' -> o -> v: the pruned search equals the one over
    # all nodes bit for bit, computes no arc from x', and runs fewer y-legs
    # than there are nodes in the chord ellipse of the best length
    W = COMPACT_WINDS[name]
    space, nav = W.space, NavigationData(W.space, W)
    g = build_graph(nav, 2000, 32, seed=5)
    o = g.nodes[0]
    assert np.array_equal(g.leg_row, _arc_weights(nav, o, g.nodes)[0])
    rng = np.random.default_rng(29)
    x, y = oracle._to_base_point(nav, g, space.sample(rng, 30), space.sample(rng, 30))
    assert np.max(space.h_distance(x, o)) < 1e-12
    # x' on o and y 1e-13 past it along the wind's integral curve, x' and y
    # 1e-13 before and after o, y on a net node, and x = y
    wo = W.evaluate(o)
    step = 1e-13 * wo / np.sqrt(space.h_inner(o, wo, wo))
    x = np.vstack([x, o, space.h_exp(o, -step), x[:2]])
    y = np.vstack([y, space.h_exp(o, step), space.h_exp(o, step), g.nodes[11], x[1]])
    hops = _arc_weights(nav, x, o)[0]
    want = [_all_nodes_two_arc(nav, g, a, b, h) for a, b, h in zip(x, y, hops)]
    calls = []

    def counted(nav_, a, b):
        calls.append((a, len(np.atleast_2d(b))))
        return _arc_weights(nav_, a, b)

    monkeypatch.setattr(oracle, "_arc_weights", counted)
    got, y_rows, ellipse = [], 0, 0
    grow = 1.0 + W.length_range()[1]
    for a, b, h, best in zip(x, y, hops, want):
        calls.clear()
        got.append(oracle._best_two_arc(nav, g, a, b, h)[0])
        assert not any(arg is a for arg, _ in calls)
        y_rows += sum(n for arg, n in calls if arg is b)
        chords = g.chords_from_o + oracle._chords(g.coords, space.embed(b))
        ellipse += np.count_nonzero(chords <= grow * best)
    assert got == want
    assert y_rows < ellipse


def test_winning_paths_lie_in_their_ellipse():
    # every node on the full search's path of a pair the graph wins lies in
    # that pair's landmark ellipse, so the restricted search finds the path
    nav = _strong_product_nav()
    g = build_graph(nav, 2000, 32, seed=5)
    rng = np.random.default_rng(3)
    xs = nav.space.sample(rng, 100)
    ys = nav.space.sample(rng, 100)
    _, graph, curves, _ = _reference_pairs(g, nav, xs, ys)
    si, ti = _nearest_nodes(g, nav.space, xs), _nearest_nodes(g, nav.space, ys)
    hops = _arc_weights(nav, xs, g.nodes[si])[0] + _arc_weights(nav, g.nodes[ti], ys)[0]
    wins = np.flatnonzero(graph < curves)
    assert len(wins) > 0
    for i in wins:
        budget = curves[i] - hops[i] + 1e-9 * curves[i]
        inside = set(g.ellipse(si[i], ti[i], budget).tolist())
        _, pred = dijkstra(g.csr, directed=True, indices=si[i], return_predecessors=True)
        v, path = ti[i], []
        while v >= 0:
            path.append(int(v))
            v = pred[v]
        assert path[-1] == si[i]
        assert set(path) <= inside
        assert len(inside) < len(g.nodes)


def test_ellipse_searches_keep_the_estimates(monkeypatch):
    # every search runs on the rows of its pair's ellipse alone, and the
    # estimates are those of the unbounded searches, bit for bit
    nav = _strong_product_nav()
    g = build_graph(nav, 2000, 32, seed=5)
    rng = np.random.default_rng(3)
    xs = nav.space.sample(rng, 100)
    ys = nav.space.sample(rng, 100)
    want = _reference_pairs(g, nav, xs, ys)[0]
    graphs = []

    def counted(csr, **kwargs):
        graphs.append(csr)
        return dijkstra(csr, **kwargs)

    monkeypatch.setattr(oracle, "dijkstra", counted)
    assert np.array_equal(oracle_distance_pairs(g, nav, xs, ys), want)
    assert graphs
    for m in graphs:
        assert m is not g.csr
        assert m.shape == g.csr.shape and m.nnz < g.csr.nnz


def test_landmark_sources_read_their_rows(monkeypatch):
    # a search from a landmark is its row of d_land: pairs whose snapped
    # source is a landmark run no search and keep the unbounded estimates
    nav = _strong_product_nav()
    g = build_graph(nav, 2000, 32, seed=5)
    land = np.argmin(g.d_land, axis=1)
    rng = np.random.default_rng(4)
    xs = np.repeat(g.nodes[land], 12, axis=0)
    ys = nav.space.sample(rng, len(xs))
    want, graph, curves, _ = _reference_pairs(g, nav, xs, ys)
    searched = []

    def counted(*args, **kwargs):
        searched.append(kwargs["indices"])
        return dijkstra(*args, **kwargs)

    monkeypatch.setattr(oracle, "dijkstra", counted)
    assert np.array_equal(oracle_distance_pairs(g, nav, xs, ys), want)
    # the graph path wins somewhere, so some pair is live
    assert np.any(graph < curves)
    assert searched == []


def test_compact_spaces_answer_from_the_base_point(monkeypatch):
    # `compact` picks the route: a space without an R^n factor moves every
    # pair to node 0 and runs no search; S^3 x R^2 keeps its searches
    s3, su2, e2 = Sphere(3, 1.0), CompactGroup("SU2", 0.8), Euclidean(2)
    assert (e2.compact, s3.compact, su2.compact) == (False, True, True)
    assert Product((s3, su2)).compact and not Product((s3, e2)).compact
    prod = Product((s3, su2))
    nav = NavigationData(prod, ProductKilling(prod, (
        hopf_field(s3, 0.3), GroupKilling(su2, np.array([0.0, 0.4, 0.0, 0.0]), np.zeros(4)))))
    g = build_graph(nav, 2000, 32, seed=5)
    assert g.d_land.shape == (1, len(g.nodes))
    strong = _strong_product_nav()
    g_strong = build_graph(strong, 2000, 32, seed=5)
    searched = []

    def counted(*args, **kwargs):
        searched.append(kwargs["indices"])
        return dijkstra(*args, **kwargs)

    monkeypatch.setattr(oracle, "dijkstra", counted)
    rng = np.random.default_rng(9)
    xs, ys = prod.sample(rng, 20), prod.sample(rng, 20)
    est = oracle_distance_pairs(g, nav, xs, ys)
    assert searched == []
    assert np.all(est >= f_distance_batch(nav, xs, ys) - 1e-9)
    xs, ys = strong.space.sample(rng, 20), strong.space.sample(rng, 20)
    oracle_distance_pairs(g_strong, strong, xs, ys)
    assert len(searched) > 0


@pytest.mark.parametrize("name", ["E2", "S3-hopf", "SU2-left", "S3xR2"])
def test_snaps_are_the_chord_nearest_nodes(name):
    # the snaps `_best_two_arc` reads off its chords are the nodes an
    # independent kd-tree finds, for random points, points on nodes and
    # x = y; on a compact space x' lies at node 0 (`_to_base_point`)
    W = NOETHER_WINDS[name]
    space, nav = W.space, NavigationData(W.space, W)
    g = build_graph(nav, 2000, 16, seed=5)
    rng = np.random.default_rng(31)
    ys = np.vstack([space.sample(rng, 30), g.nodes[[0, 3, 500, len(g.nodes) - 1]]])
    if space.compact:
        ys = np.vstack([ys, g.nodes[:1]])  # x = y = o
        xs = np.broadcast_to(g.nodes[0], ys.shape)
    else:
        xs = np.vstack([space.sample(rng, 30), g.nodes[[9, 3, 1, 2]]])
        ys = np.vstack([ys, xs[:2]])  # x = y, at random and on node 9
        xs = np.vstack([xs, xs[:2]])
    hops = _arc_weights(nav, xs, g.nodes[0])[0]
    snaps = np.array([oracle._best_two_arc(nav, g, x, y, h)[1:] for x, y, h in zip(xs, ys, hops)])
    assert np.array_equal(snaps[:, 0], _nearest_nodes(g, space, xs))
    assert np.array_equal(snaps[:, 1], _nearest_nodes(g, space, ys))


def test_compact_query_on_a_cached_graph_calls_no_scipy(tmp_path, monkeypatch):
    # the source is node 0, a landmark, and the snaps come from the chords:
    # a graph read from the cache answers with no kd-tree and no search
    nav = _s3_hopf_nav()
    g = build_graph(nav, 2000, 16, seed=5, cache_dir=tmp_path)
    rng = np.random.default_rng(37)
    xs, ys = nav.space.sample(rng, 20), nav.space.sample(rng, 20)
    want = oracle_distance_pairs(g, nav, xs, ys)

    def refuse(*args, **kwargs):
        raise AssertionError("a compact query called scipy")

    for name in ("cKDTree", "dijkstra", "csr_matrix"):
        monkeypatch.setattr(oracle, name, refuse)
    loaded = build_graph(nav, 2000, 16, seed=5, cache_dir=tmp_path)
    assert "csr" not in vars(loaded) and "coords" not in vars(loaded)
    assert np.array_equal(oracle_distance_pairs(loaded, nav, xs, ys), want)


def _orbit_winds():
    s3, su2 = Sphere(3, 1.0), CompactGroup("SU2", 0.8)
    return {
        "S3-hopf": hopf_field(s3, 0.3),
        "S3-anti-hopf": SphereKilling(s3, ANTI_HOPF),
        "S3-qjq": SphereKilling(s3, conjugated_hopf(2, -0.4, seed=3)),
        "SU2-left": GroupKilling(su2, np.array([0.0, 0.4, 0.0, 0.0]), np.zeros(4)),
        "SU2-right": GroupKilling(su2, np.zeros(4), np.array([0.0, 0.0, 0.3, 0.0])),
    }


ORBIT_WINDS = _orbit_winds()


@pytest.fixture(scope="module")
def orbit_graphs():
    """480-node orbit nets (4 base rows, k = 8), one per wind."""
    graphs = {}
    for name, W in ORBIT_WINDS.items():
        nav = NavigationData(W.space, W)
        graphs[name] = nav, build_graph(nav, 400, 8, seed=7)
    return graphs


@pytest.mark.parametrize("name", ORBIT_WINDS)
def test_orbit_group_closes_and_commutes_with_the_wind(name):
    # 2I's 120 maps, the identity first: a group under the table, each map
    # orthogonal and commuting with the wind's linear map A, so each is an
    # F-isometry
    W = ORBIT_WINDS[name]
    mats = oracle._orbit_group(W.space, constant_length_family(NavigationData(W.space, W)))
    mult = oracle._multiplication_table(mats)
    eye = np.eye(4)
    assert mats.shape == (120, 4, 4) and np.array_equal(mats[0], eye)
    gaps = np.abs(mats[:, None] - mats[None]).max(axis=(2, 3)) + 9.0 * np.eye(120)
    assert gaps.min() > 0.1  # 120 distinct maps
    assert np.abs(mats[mult] - np.matmul(mats[:, None], mats[None])).max() <= 1e-14
    assert (np.sort(mult, axis=1) == np.arange(120)).all()
    assert np.abs(mats @ mats.transpose(0, 2, 1) - eye).max() <= 1e-14
    A = W.evaluate(eye).T  # the wind is x -> A x
    assert np.abs(mats @ A - A @ mats).max() <= 1e-14


@pytest.mark.parametrize("name", ORBIT_WINDS)
def test_orbit_net_edges_are_the_brute_force_knn(name, orbit_graphs):
    # the tiled graph holds every arc of the h-kNN graph of all 480 nodes
    # (both orientations), up to ties at the k-th distance within 1e-12
    nav, g = orbit_graphs[name]
    n, k = len(g.nodes), g.k
    assert n == 480 and len(g.mult) == 120 and g.rows.max() < 4
    i, j = np.meshgrid(np.arange(n), np.arange(n), indexing="ij")
    d = nav.space.h_distance(g.nodes[i.ravel()], g.nodes[j.ravel()]).reshape(n, n)
    np.fill_diagonal(d, np.inf)
    d_k = np.sort(d, axis=1)[:, k - 1:k]
    maybe = d <= d_k + 1e-12
    # a node without ties at its k-th distance has exactly k sure neighbours
    sure = (d < d_k - 1e-12) | (maybe & (maybe.sum(axis=1, keepdims=True) == k))
    got = g.csr.toarray() > 0
    assert (got == got.T).all()
    assert not (sure | sure.T)[~got].any()
    assert not got[~(maybe | maybe.T)].any()
    assert abs(g.eps - d.min(axis=1).max()) <= 1e-12


@pytest.mark.parametrize("name", ORBIT_WINDS)
def test_tiled_weights_are_the_arc_lengths(name, orbit_graphs):
    # each copied weight is the F-length of its own arc, to rounding
    nav, g = orbit_graphs[name]
    coo = g.csr.tocoo()
    direct = _arc_weights(nav, g.nodes[coo.row], g.nodes[coo.col])[0]
    np.testing.assert_allclose(coo.data, direct, rtol=1e-13, atol=0)


def test_antipodal_edge_is_one_arc():
    # at k = n - 1 each base node's kNN holds its antipode M_-1 b, an edge
    # that is its own mirror: one arc each way, not two arcs summed into
    # one. h_log joins antipodes along a fixed direction that M_g need not
    # keep, so a copied antipodal arc is another half great circle between
    # the same nodes, of F-length at most pi R / (1 - |W|)
    nav = _s3_hopf_nav()
    g = build_graph(nav, 240, 239, seed=7)
    assert len(g.nodes) == 240 and g.csr.nnz == 240 * 239
    coo = g.csr.tocoo()
    anti = nav.space.h_distance(g.nodes[coo.row], g.nodes[coo.col]) > np.pi - 1e-6
    assert anti.sum() == 240
    direct = _arc_weights(nav, g.nodes[coo.row], g.nodes[coo.col])[0]
    np.testing.assert_allclose(coo.data[~anti], direct[~anti], rtol=1e-13, atol=0)
    assert np.all(coo.data[anti] <= np.pi / (1 - 0.3))


@pytest.mark.parametrize("name", ORBIT_WINDS)
def test_orbit_net_cache_round_trips(name, tmp_path):
    W = ORBIT_WINDS[name]
    nav = NavigationData(W.space, W)
    g = build_graph(nav, 400, 8, seed=7, cache_dir=tmp_path)
    (path,) = tmp_path.iterdir()
    loaded = build_graph(nav, 400, 8, seed=7, cache_dir=tmp_path)
    assert "csr" not in vars(loaded)  # read from the file, tiled anew
    assert loaded.graph_hash == g.graph_hash
    assert (loaded.csr != g.csr).nnz == 0
    assert np.array_equal(loaded.d_land, g.d_land)
    assert np.array_equal(loaded.leg_row, g.leg_row) and len(g.leg_row) == 480
    assert len(_load(path).nodes) == 480


def test_orbit_net_cache_is_small(tmp_path):
    # the file holds the base rows' edges: the criterion-6 scale S^3 graph
    # is 2.6 million edges, and its file stays under 2 MiB
    g = build_graph(_s3_hopf_nav(), 20_000, 256, seed=61, cache_dir=tmp_path)
    (path,) = tmp_path.iterdir()
    assert len(g.nodes) == 20_040 and g.csr.nnz > 5_000_000
    assert path.stat().st_size < 2 * 2**20


def _product_nav(factor, wind):
    """S^3 (Hopf wind 0.3) times factor with wind."""
    s3 = Sphere(3, 1.0)
    prod = Product((s3, factor))
    return NavigationData(prod, ProductKilling(prod, (hopf_field(s3, 0.3), wind)))


@pytest.mark.parametrize("name, make_nav, n, k, seed, digest", [
    ("E2", _e2_nav, 10_000, 12, 0,
     "580eae13694138032f8e6f68546eb38141e5cb7e01c113ab66887cd831c47bbc"),
    ("S3xR2", lambda: _product_nav(Euclidean(2), EuclideanKilling(Euclidean(2), [0.3, 0.0])),
     10_000, 128, 61, "92f2f1dc00032143eeae27f2a11a61c6677694f5fb01d6443ddd8f9d5584262d"),
    ("S5-qjq", lambda: NavigationData(Sphere(5, 1.3), NOETHER_WINDS["qjq-S5"]), 2000, 32, 5,
     "0e56de28bda37667d7748a3e37ddb465557c18e11e487f4389e197ca9146f8e1"),
    ("S3xSU2", lambda: _product_nav(CompactGroup("SU2", 0.8), GroupKilling(
        CompactGroup("SU2", 0.8), np.array([0.0, 0.4, 0.0, 0.0]), np.zeros(4))),
     2000, 32, 5, "d13d5e640185bc4ae1a0982c2fa0bfd3d1a2c702cbb5ff8f6eb8619562eb3209"),
], ids=["E2", "S3xR2", "S5-qjq", "S3xSU2"])
def test_trivial_group_keeps_the_graph(name, make_nav, n, k, seed, digest):
    # spaces outside S^3 and SU(2) take the trivial group: n random nodes,
    # the chord kNN of their embedding, pinned bit for bit
    g = build_graph(make_nav(), n, k, seed=seed)
    assert len(g.mult) == 1 and len(g.nodes) == n
    assert g.graph_hash == digest


@pytest.mark.parametrize("which", ["E2", "S3xR2", "S3-hopf", "S3-anti-hopf", "SU2-right",
                                   "antipodal"])
def test_search_graph_pattern_is_symmetric(which, orbit_graphs):
    # every edge is in the search graph both ways, which makes "node 0
    # reaches every node" the same as "strongly connected"
    if which in orbit_graphs:
        g = orbit_graphs[which][1]
    else:
        make_nav, n, k = {"E2": (_e2_nav, 1000, 8), "S3xR2": (_strong_product_nav, 1000, 16),
                          "antipodal": (_s3_hopf_nav, 240, 239)}[which]
        g = build_graph(make_nav(), n, k, seed=7)
    pattern = g.csr.copy()
    pattern.data[:] = 1.0
    assert pattern.nnz > 0 and (pattern != pattern.T).nnz == 0
    assert np.isfinite(g.d_land).all()


def _generic_tiling(n, rows, cols, fwd, rev, mult):
    """`_search_graph` without its trivial-group return: the base rows
    tiled through the group table, whatever its size."""
    size = len(mult)
    nb = n // size
    h, c = np.divmod(cols, nb)
    mirror = np.argmin(mult, axis=1)[h] * nb + rows
    two = (c != rows) | (mirror != cols)
    base = csr_matrix((np.concatenate([fwd, rev[two]]),
                       (np.concatenate([rows, c[two]]), np.concatenate([cols, mirror[two]]))),
                      shape=(nb, n))
    h, c = np.divmod(base.indices, nb)
    indices = np.take(mult, h, axis=1) * nb + c
    indptr = base.indptr[:-1] + base.nnz * np.arange(size)[:, None]
    return csr_matrix((np.tile(base.data, size), indices.ravel(),
                       np.append(indptr.ravel(), size * base.nnz)), shape=(n, n))


def test_trivial_group_search_graph_is_the_base_rows():
    # with |G| = 1 the base rows are the whole search graph, returned
    # without a tiled copy, and entry for entry the generic tiling
    nav = _product_nav(Euclidean(2), EuclideanKilling(Euclidean(2), [0.3, 0.0]))
    g = build_graph(nav, 1000, 16, seed=61)
    assert len(g.mult) == 1
    want = _generic_tiling(len(g.nodes), g.rows, g.cols, g.weights_fwd, g.weights_rev, g.mult)
    for part in ("data", "indices", "indptr"):
        got, ref = getattr(g.csr, part), getattr(want, part)
        assert got.dtype == ref.dtype and np.array_equal(got, ref)
