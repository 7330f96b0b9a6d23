"""Brute-force asymmetric distance oracle on an epsilon-net graph.

Independent of `geodesics.f_distance` by construction: the only
ingredients are h-geodesic arcs between sampled nodes and the navigation
norm. Every edge weight is the exact F-length of the h-geodesic arc
between its endpoints -- for a constant-length Killing wind the
integrand F(gamma, gamma') is constant along h-geodesics, so that length
is F(x, log_x(y)) in closed form. Consequently every graph path is the
F-length of an actual piecewise-smooth curve and the oracle can never
undercut the true infimum (it only overshoots, by the net dilation).
That needs the wind's length to be constant, so `build_graph` refuses
any other wind with `UnsupportedWind`.

Queries additionally relax the graph estimate through single
intermediate nodes (a "2-arc" pass, recursing once); those candidates
are again lengths of actual curves, so the no-undercut guarantee
survives while the dilation error drops by roughly an order of
magnitude. Error hints are C_HINT * eps with eps the largest
nearest-neighbor gap; convergence runs on S^3 at n = 2e4, k = 256 showed
worst-case relative errors well below eps/typical-distance, so the
default C_HINT = 4 is a loose but honest upper coefficient.
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

from .killing import UnsupportedWind
from .randers import NavigationData

C_HINT = 4.0
_CACHE_VERSION = 2


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
    """Directed kNN pairs under h-distance (chord kNN with over-fetch,
    re-ranked by the true metric), both orientations, deduplicated."""
    n = len(nodes)
    emb = space.embed(nodes)
    tree = cKDTree(emb)
    fetch = min(n - 1, int(np.ceil(1.5 * k)))
    _, jj = tree.query(emb, k=fetch + 1, workers=-1)
    jj = jj[:, 1:]
    if fetch > k:
        base = np.repeat(np.arange(n), fetch).reshape(n, fetch)
        d_true = space.h_distance(nodes[base.ravel()], nodes[jj.ravel()]).reshape(n, fetch)
        order = np.argsort(d_true, axis=1, kind="stable")[:, :k]
        jj = np.take_along_axis(jj, order, axis=1)
    rows = np.repeat(np.arange(n), k)
    cols = jj.ravel()
    # both orientations, then dedupe (duplicate entries would be summed by CSR)
    r = np.concatenate([rows, cols])
    c = np.concatenate([cols, rows])
    enc = np.unique(r.astype(np.int64) * n + c.astype(np.int64))
    return (enc // n).astype(np.int32), (enc % n).astype(np.int32)


def build_graph(nav: NavigationData, n_nodes: int, k: int, seed: int,
                cache_dir: str | os.PathLike | None = None) -> NetGraph:
    """Deterministic epsilon-net graph for nav; strongly connected or it
    retries once with 2k and then raises GraphDisconnected."""
    if n_nodes < 100:
        raise ValueError("need at least 100 nodes for a meaningful net")
    lo, hi = nav.wind.length_range()
    if hi - lo > 1e-12:
        raise UnsupportedWind("the oracle needs a wind of constant length; "
                              f"its h-length runs over [{lo:.6g}, {hi:.6g}]")
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

    k_try = k
    for attempt in range(2):
        rows, cols = _knn_edges(space, nodes, k_try)
        # chunked to bound peak memory at acceptance-scale edge counts
        weights = np.empty(len(rows))
        d_edge = np.empty(len(rows))
        for lo in range(0, len(rows), 1_000_000):
            sl = slice(lo, lo + 1_000_000)
            a, b = nodes[rows[sl]], nodes[cols[sl]]
            weights[sl] = _arc_weights(nav, a, b)
            d_edge[sl] = space.h_distance(a, b)
        csr = csr_matrix((weights, (rows, cols)), shape=(n_nodes, n_nodes))
        n_comp, _ = connected_components(csr, directed=True, connection="strong")
        if n_comp == 1:
            break
        if attempt == 1:
            raise GraphDisconnected(f"{n_comp} strong components at k={k_try}")
        k_try *= 2

    # eps = max over nodes of the h-distance to the nearest neighbor
    first = np.searchsorted(rows, np.arange(n_nodes), side="left")
    eps = float(np.max(np.minimum.reduceat(d_edge, first)))

    g = NetGraph(nav_config=cfg, n_nodes=n_nodes, k=k, seed=seed,
                 nodes=nodes, rows=rows, cols=cols, weights=weights, eps=eps)
    if cache_path is not None:
        # write beside the cache file and rename it into place, so a failed
        # write leaves nothing at cache_path (numpy appends .npz if missing)
        cache_path.parent.mkdir(parents=True, exist_ok=True)
        tmp = cache_path.with_name(f"{cache_path.stem}.{os.getpid()}.tmp.npz")
        try:
            np.savez_compressed(
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


def _best_two_arc(nav, nodes, x, y, depth: int) -> float:
    wx = _arc_weights(nav, np.broadcast_to(x, nodes.shape), nodes)
    wy = _arc_weights(nav, nodes, np.broadcast_to(y, nodes.shape))
    tot = wx + wy
    zi = int(np.argmin(tot))
    best = float(tot[zi])
    if depth > 0:
        z = nodes[zi]
        best = min(best, _best_two_arc(nav, nodes, x, z, depth - 1)
                   + _best_two_arc(nav, nodes, z, y, depth - 1))
    return best


def oracle_distance(g: NetGraph, nav: NavigationData, x, y):
    """(estimate, upper_error_hint) for d_F(x, y).

    estimate = the shortest known actual curve: snap hops + graph path,
    the direct arc, and 2-arc relaxations through net nodes.
    error_hint = C_HINT * eps.
    """
    est = oracle_distance_pairs(g, nav, np.asarray(x)[None, :], np.asarray(y)[None, :])[0]
    return float(est), C_HINT * g.eps


def oracle_distance_pairs(g: NetGraph, nav: NavigationData, xs, ys) -> np.ndarray:
    """Vectorized oracle estimates for row-aligned point arrays; shares
    Dijkstra runs between pairs with a common snapped source."""
    _check_nav(g, nav)
    space = nav.space
    xs = np.atleast_2d(np.asarray(xs, dtype=float))
    ys = np.atleast_2d(np.asarray(ys, dtype=float))
    _, si = g.tree.query(space.embed(xs), k=1)
    _, ti = g.tree.query(space.embed(ys), k=1)

    hop_out = _arc_weights(nav, xs, g.nodes[si])
    hop_in = _arc_weights(nav, g.nodes[ti], ys)
    # zero-length hops when the endpoint coincides with its node
    hop_out = np.where(space.h_distance(xs, g.nodes[si]) < 1e-14, 0.0, hop_out)
    hop_in = np.where(space.h_distance(g.nodes[ti], ys) < 1e-14, 0.0, hop_in)

    srcs = np.unique(si)
    D = dijkstra(g.csr, directed=True, indices=srcs)
    smap = {int(s): r for r, s in enumerate(srcs)}
    est = np.empty(len(xs))
    for i in range(len(xs)):
        graph_part = D[smap[int(si[i])], ti[i]]
        cand = hop_out[i] + graph_part + hop_in[i]
        direct = float(_arc_weights(nav, xs[i][None, :], ys[i][None, :])[0])
        est[i] = min(cand, direct, _best_two_arc(nav, g.nodes, xs[i], ys[i], depth=1))
    return est
