"""Brute-force asymmetric distance oracle on an epsilon-net graph.

Independent of `geodesics.f_distance` by construction: the only
ingredients are h-geodesic arcs between sampled nodes and the navigation
norm. Every edge weight is the exact F-length of the h-geodesic arc
between its endpoints -- for a constant-length Killing wind the
integrand F(gamma, gamma') is constant along h-geodesics, so that length
is F(x, log_x(y)) in closed form. Consequently every graph path is the
F-length of an actual piecewise-smooth curve and the oracle can never
undercut the true infimum (it only overshoots, by the net dilation).
That needs the wind's length to be constant: `build_graph` asks
`killing.constant_length_family`, the one test of a supported wind, and
so refuses exactly the winds the verifiers refuse, with `UnsupportedWind`.

The net's edges join each node to its k nearest neighbours in h, in
both directions. A kd-tree over `space.embed` finds them: on spaces whose
h-distance grows with the chord (`chord_ordered`: R^n, spheres, SU(2))
the chord kNN is the h-kNN as it stands; on products of two or more
factors it is over-fetched and re-ranked by h-distance, the one place
the re-rank runs. eps, the largest h-distance from a node to its nearest
neighbour, comes from that same query. The cache is an uncompressed
`.npz`; older compressed ones still load.

Queries first take the best of the direct arc and of curves through
net nodes: the 2-arc x -> z -> y with z the best single intermediate
node, and the path that refines both of its legs through a further node
each. Those candidates are again lengths of actual curves, so the
no-undercut guarantee survives while the dilation error drops by roughly
an order of magnitude. The graph search then stops at the best curve
already known: each source's Dijkstra runs only as far as a graph path
could still beat one of its pairs' estimates, which leaves every
estimate exactly what an unbounded search gives. Error hints are
C_HINT * eps with eps the largest nearest-neighbor gap; convergence runs
on S^3 at n = 2e4, k = 256 showed worst-case relative errors well below
eps/typical-distance, so the default C_HINT = 4 is a loose but honest
upper coefficient.
"""
from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components, dijkstra
from scipy.spatial import cKDTree

from .killing import constant_length_family
from .randers import NavigationData

C_HINT = 4.0
_CACHE_VERSION = 4


class GraphDisconnected(RuntimeError):
    pass


class GraphMismatch(ValueError):
    pass


def _arc_weights(nav, a, b):
    """Exact F-length of the h-geodesic arcs a[i] -> b[i]."""
    v = nav.space.h_log(a, b)
    return nav.finsler_norm(a, v)


@dataclass(frozen=True)
class NetGraph:
    nav_config: dict
    n_nodes: int
    k: int
    seed: int
    nodes: np.ndarray
    rows: np.ndarray
    cols: np.ndarray
    weights: np.ndarray
    eps: float

    @cached_property
    def csr(self) -> csr_matrix:
        n = self.n_nodes
        return csr_matrix((self.weights, (self.rows, self.cols)), shape=(n, n))

    @cached_property
    def tree(self) -> cKDTree:
        from .spaces import space_from_config

        space = space_from_config(self.nav_config["space"])
        return cKDTree(space.embed(self.nodes))

    @cached_property
    def graph_hash(self) -> str:
        h = hashlib.sha256()
        h.update(json.dumps(self.nav_config, sort_keys=True).encode())
        h.update(np.int64([self.n_nodes, self.k, self.seed]).tobytes())
        h.update(self.nodes.tobytes())
        h.update(self.rows.tobytes())
        h.update(self.cols.tobytes())
        h.update(self.weights.tobytes())
        return h.hexdigest()


def _knn_edges(space, nodes, k):
    """Directed kNN pairs under h-distance, both orientations, deduplicated,
    and each node's h-distance to its nearest neighbour.

    Where h-distance is a nondecreasing function of the chord
    (`space.chord_ordered`), the chord kNN of the embedding is the h-kNN.
    Elsewhere (products of two or more factors) the chord kNN is
    over-fetched 1.5x and re-ranked by the true metric, and a row whose
    k-th h-distance lies past its farthest fetched chord is re-ranked
    over the chord ball of that radius; the nearest-neighbour distance is
    the least of the re-ranked ones. Either way the result is the exact
    h-kNN.
    """
    n = len(nodes)
    emb = space.embed(nodes)
    tree = cKDTree(emb)
    fetch = k if space.chord_ordered else min(n - 1, int(np.ceil(1.5 * k)))
    chord, jj = tree.query(emb, k=fetch + 1, workers=-1)
    jj = jj[:, 1:]
    if fetch > k:
        base = np.repeat(np.arange(n), fetch).reshape(n, fetch)
        d_true = space.h_distance(nodes[base.ravel()], nodes[jj.ravel()]).reshape(n, fetch)
        order = np.argsort(d_true, axis=1, kind="stable")[:, :k]
        jj = np.take_along_axis(jj, order, axis=1)
        d_nn = d_true.min(axis=1)
        # embed is isometric, so h-distance is at least the chord: a row
        # whose k-th h-distance passes its farthest fetched chord may miss
        # nodes beyond the fetch, and is re-ranked over that chord ball
        d_k = np.take_along_axis(d_true, order[:, -1:], axis=1)[:, 0]
        for i in np.flatnonzero(chord[:, -1] < d_k):
            ball = np.sort(tree.query_ball_point(emb[i], d_k[i]))
            ball = ball[ball != i]
            d = space.h_distance(nodes[i], nodes[ball])
            near = np.argsort(d, kind="stable")[:k]
            jj[i] = ball[near]
            d_nn[i] = d[near[0]]
    else:
        d_nn = space.h_distance(nodes, nodes[jj[:, 0]])
    rows = np.repeat(np.arange(n, dtype=np.int64), k)
    cols = jj.ravel().astype(np.int64, copy=False)
    # both orientations, then dedupe (duplicate entries would be summed by
    # CSR); sorting the codes gives np.unique's result without its hashing
    enc = np.concatenate([rows * n + cols, cols * n + rows])
    enc.sort()
    keep = np.empty(len(enc), dtype=bool)
    keep[0] = True
    np.not_equal(enc[1:], enc[:-1], out=keep[1:])
    r, c = np.divmod(enc[keep], n)
    return r.astype(np.int32), c.astype(np.int32), d_nn


def build_graph(nav: NavigationData, n_nodes: int, k: int, seed: int,
                cache_dir: str | os.PathLike | None = None) -> NetGraph:
    """Deterministic epsilon-net graph for nav; raises GraphDisconnected
    when the kNN graph is not strongly connected."""
    if n_nodes < 100:
        raise ValueError("need at least 100 nodes for a meaningful net")
    if not 1 <= k < n_nodes:
        raise ValueError(f"k must lie in [1, {n_nodes - 1}] for {n_nodes} nodes, got {k}")
    constant_length_family(nav)  # refuses an unsupported wind
    cfg = nav.to_config()
    if cache_dir is None:
        cache_dir = os.environ.get("RANDERS_LAB_CACHE")
    cache_path = None
    if cache_dir:
        key = hashlib.sha256(json.dumps(
            {"cfg": cfg, "n": n_nodes, "k": k, "seed": seed, "v": _CACHE_VERSION},
            sort_keys=True).encode()).hexdigest()[:20]
        cache_path = Path(cache_dir).expanduser() / f"netgraph-{key}.npz"
        if cache_path.exists():
            return _load(cache_path)

    space = nav.space
    rng = np.random.default_rng(seed)
    nodes = space.sample(rng, n_nodes)

    rows, cols, d_nn = _knn_edges(space, nodes, k)
    # chunked to bound peak memory at acceptance-scale edge counts
    weights = np.empty(len(rows))
    for lo in range(0, len(rows), 1_000_000):
        sl = slice(lo, lo + 1_000_000)
        weights[sl] = _arc_weights(nav, nodes[rows[sl]], nodes[cols[sl]])
    csr = csr_matrix((weights, (rows, cols)), shape=(n_nodes, n_nodes))
    n_comp, _ = connected_components(csr, directed=True, connection="strong")
    if n_comp > 1:
        raise GraphDisconnected(f"{n_comp} strong components at k={k}; use a larger k")

    # eps = max over nodes of the h-distance to the nearest neighbor
    eps = float(np.max(d_nn))

    g = NetGraph(nav_config=cfg, n_nodes=n_nodes, k=k, seed=seed,
                 nodes=nodes, rows=rows, cols=cols, weights=weights, eps=eps)
    # the component check's matrix is the one the queries need
    g.__dict__["csr"] = csr
    if cache_path is not None:
        # write beside the cache file and rename it into place, so a failed
        # write leaves nothing at cache_path (numpy appends .npz if missing);
        # uncompressed, as deflate took 70x the write time to save 40% of the bytes
        cache_path.parent.mkdir(parents=True, exist_ok=True)
        tmp = cache_path.with_name(f"{cache_path.stem}.{os.getpid()}.tmp.npz")
        try:
            np.savez(
                tmp, nodes=nodes, rows=rows, cols=cols, weights=weights,
                eps=eps, meta=json.dumps({"cfg": cfg, "n": n_nodes, "k": k, "seed": seed}))
            os.replace(tmp, cache_path)
        finally:
            tmp.unlink(missing_ok=True)
    return g


def _load(path: Path) -> NetGraph:
    z = np.load(path, allow_pickle=False)
    meta = json.loads(str(z["meta"]))
    return NetGraph(nav_config=meta["cfg"], n_nodes=meta["n"], k=meta["k"],
                    seed=meta["seed"], nodes=z["nodes"], rows=z["rows"],
                    cols=z["cols"], weights=z["weights"], eps=float(z["eps"]))


def _check_nav(g: NetGraph, nav: NavigationData) -> None:
    if json.dumps(g.nav_config, sort_keys=True) != json.dumps(nav.to_config(), sort_keys=True):
        raise GraphMismatch("graph was built for different navigation data")


def _best_two_arc(nav, nodes, x, y) -> float:
    """F-length of the best curve from x to y through net nodes: the 2-arc
    x -> z -> y through the best node z, or x -> u -> z -> v -> y, which
    refines each of its legs through its own best node, when that is
    shorter. Each set of arcs between a point and all nodes is computed once."""
    wx = _arc_weights(nav, np.broadcast_to(x, nodes.shape), nodes)
    wy = _arc_weights(nav, nodes, np.broadcast_to(y, nodes.shape))
    tot = wx + wy
    zi = int(np.argmin(tot))
    z = np.broadcast_to(nodes[zi], nodes.shape)
    via_x = float(np.min(wx + _arc_weights(nav, nodes, z)))
    via_y = float(np.min(_arc_weights(nav, z, nodes) + wy))
    return min(float(tot[zi]), via_x + via_y)


def oracle_distance(g: NetGraph, nav: NavigationData, x, y):
    """(estimate, upper_error_hint) for d_F(x, y).

    estimate = the shortest known actual curve: snap hops + graph path,
    the direct arc, and 2-arc relaxations through net nodes.
    error_hint = C_HINT * eps.
    """
    est = oracle_distance_pairs(g, nav, np.asarray(x)[None, :], np.asarray(y)[None, :])[0]
    return float(est), C_HINT * g.eps


def oracle_distance_pairs(g: NetGraph, nav: NavigationData, xs, ys) -> np.ndarray:
    """Vectorized oracle estimates for row-aligned point arrays.

    Each estimate is the shortest of the direct arc, the curves through
    net nodes (`_best_two_arc`) and the snap hops plus the graph path.
    A graph path can only win when it is no longer than the best of the
    others less the hops, so each snapped source runs one Dijkstra
    limited to the largest such budget among its pairs, and none when
    every budget is negative; the estimates equal those of unbounded
    searches bit for bit.
    """
    _check_nav(g, nav)
    space = nav.space
    xs = np.atleast_2d(np.asarray(xs, dtype=float))
    ys = np.atleast_2d(np.asarray(ys, dtype=float))
    if len(xs) != len(ys):
        raise ValueError(f"xs has {len(xs)} rows but ys has {len(ys)}; pairs are row-aligned")
    _, si = g.tree.query(space.embed(xs), k=1)
    _, ti = g.tree.query(space.embed(ys), k=1)

    hop_out = _arc_weights(nav, xs, g.nodes[si])
    hop_in = _arc_weights(nav, g.nodes[ti], ys)
    # zero-length hops when the endpoint coincides with its node
    hop_out = np.where(space.h_distance(xs, g.nodes[si]) < 1e-14, 0.0, hop_out)
    hop_in = np.where(space.h_distance(g.nodes[ti], ys) < 1e-14, 0.0, hop_in)

    direct = _arc_weights(nav, xs, ys)
    best = np.array([min(d, _best_two_arc(nav, g.nodes, x, y))
                     for d, x, y in zip(direct, xs, ys)])
    # a graph path longer than best - hops cannot win; the relative margin
    # covers the rounding of hop_out + path + hop_in
    budget = best - hop_out - hop_in + 1e-9 * best
    est = best.copy()
    for src in np.unique(si):
        mine = np.flatnonzero(si == src)
        limit = budget[mine].max()
        if limit < 0:
            continue
        D = dijkstra(g.csr, directed=True, indices=src, limit=limit)
        est[mine] = np.minimum(hop_out[mine] + D[ti[mine]] + hop_in[mine], best[mine])
    return est
