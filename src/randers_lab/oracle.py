"""Brute-force asymmetric distance oracle on an epsilon-net graph.

Independent of `geodesics.f_distance` by construction: the only
ingredients are h-geodesic arcs between sampled nodes and the navigation
norm. Every edge weight is the exact F-length of the h-geodesic arc
between its endpoints. Along an h-geodesic gamma the first integral
h(gamma', W) of a Killing wind W is constant (Noether), and so are
h(gamma', gamma') and, for a wind of constant length, lam = 1 - h(W, W);
so the integrand F(gamma, gamma') is constant and the arc's length is
F(x, log_x(y)) in closed form. The arc run backwards starts at
-gamma'(1) with the same constants, so one log v = log_x(y) gives both
directions: with s = h(v, W(x)) and q = h(v, v),

    F(x -> y) = (sqrt(s^2 + lam q) - s) / lam,
    F(y -> x) = (sqrt(s^2 + lam q) + s) / lam = F(x, -v).

Consequently every graph path is the F-length of an actual
piecewise-smooth curve and the oracle can never undercut the true
infimum (it only overshoots, by the net dilation). That needs the wind's
length to be constant, on every factor of a product: `build_graph` asks
`killing.constant_length_family`, the one test of a supported wind, and
so refuses exactly the winds the verifiers refuse, with `UnsupportedWind`.

The net is an orbit net: the orbit of nb = ceil(n / |G|) sampled base
points under a finite group G of orthogonal ambient maps that preserve h
and commute with the wind, so F-isometries (`_orbit_group`). Node
g * nb + b is M_g applied to base point b, so the node count rounds up to
a multiple of |G|. On S^3, for every supported wind, G is the right
multiplication by the 120 quaternions of the binary icosahedral group
2I, conjugated by the wind's frame Q; on SU(2) 2I acts on the side
opposite a one-sided wind; elsewhere G is trivial and the net is n
random points. Each M_g permutes the nodes, so kNN(M_g u) = M_g kNN(u)
and F(M_g u -> M_g v) = F(u -> v): only the nb base rows take a kNN
query, a dedupe and edge weights.

The net's edges join each node to its k nearest neighbours. They are
stored undirected from the base rows, one row (b, h * nb + c) per
edge with the two weights F(b -> M_h c) and back; the edge's mirror
c -> (h^-1, b) out of base row c shares the row (with the trivial group
that is one row (r, c) with r < c). The search graph holds both
orientations: its base rows are built and then tiled, row g * nb + b
being base row b with each column h * nb + c moved to mult[g, h] * nb + c
for the group table mult. A copied weight is the F-length of its own arc
to about 1e-14 relative, as the nodes M_g b are rounded, so the
guarantee below holds to that rounding, which the queries' 1e-9 margins
cover. (An arc between antipodes, which h_log takes along a fixed
direction, copies to another half great circle between the same nodes.)
A kd-tree over `space.embed` of all nodes finds the edges: each node's k
nearest neighbours in chord; it serves the build alone. The guarantee
asks only that each edge be an actual arc, whichever nodes it joins; on
R^n, spheres and SU(2), where h-distance grows with the chord, these are
the h-kNN as well.
eps, the largest h-distance from a node to its chord-nearest
neighbour, comes from that same query. The build picks 8
landmark nodes (node 0 alone on a compact space) by farthest-point
sampling over the embedding, from node 0, and stores the graph distances
from each to every node, d_land. Holding each edge both ways, the search
graph is strongly connected exactly when node 0 reaches every node, or
GraphDisconnected is raised. On a compact space the build also stores
the leg row, leg_row[v] = F(o -> v) from node 0 = o to every node. The
cache is an uncompressed `.npz` of the nodes, the base rows' edges,
mult, d_land and the leg row; older compressed ones still load, and an
unreadable file, or one without a key, is a miss, rebuilt and replaced.

Queries run one pipeline on every space. On a compact space (no R^n
factor) a pre-step first carries each pair by an F-isometry to a pair
(x', y') whose source x' lies within 1e-12 of o (`_to_base_point`).
Each query then takes the best of the direct arc and of curves through
net nodes: the 2-arc x -> z -> y with z the best single intermediate
node, and the path that refines both of its legs through a further node
each. On a compact space the leg from x' to a node v is the curve
x' -> o -> v, of F-length F(x' -> o) + leg_row[v], so no leg from x' is
computed per pair. Those candidates are again lengths of actual curves,
so the no-undercut guarantee survives while the dilation error drops by
roughly an order of magnitude. The graph path joins the nodes nearest x
and y in chord, read off the chords of the bound below. From a snapped
source that is a landmark it is that landmark's row of d_land, so no
search runs on a compact space, where x' snaps to o; from any other
source the search stops at the best curve already known, which leaves
every estimate exactly what an unbounded search gives.

Two certified lower bounds confine both phases to the nodes that can
still matter, and leave every estimate bit for bit what the search over
all nodes gives:
* the Zermelo bound. The indicatrix is the h-unit sphere translated by
  W (Bao-Robles-Shen), so F(v) >= |v|_h / (1 + max|W|), and an arc is at
  least its chord over 1 + max|W|. The two-arc curves run only through
  the nodes whose chord sum (from o in place of x' on a compact space)
  allows a curve as short as one already known; as the x-legs are known
  before any leg to y is computed, a leg z -> y runs only where its
  chord fits in what the x-leg leaves of that length.
* the landmark (ALT) bound of Goldberg & Harrelson (SODA 2005): by the
  directed triangle inequality, d_G(s, t) >= d_G(l, t) - d_G(l, s) for
  every landmark l. A pair whose bound exceeds its budget runs no search;
  the others from a source that is no landmark search only the rows of
  the nodes v whose bounds d_G(s, v) + d_G(v, t) fit the budget, as
  every path within the budget runs through such nodes alone.

Error hints are C_HINT * eps with eps the largest nearest-neighbor gap;
convergence runs on S^3 at n = 2e4, k = 256 showed worst-case relative
errors well below eps/typical-distance, so the default C_HINT = 4 is a
loose but honest upper coefficient.
"""
from __future__ import annotations

import hashlib
import json
import os
import zipfile
from dataclasses import dataclass, fields
from functools import cached_property
from pathlib import Path

import numpy as np

from . import quat
from .killing import GroupFamily, SphereFamily, constant_length_family
from .randers import NavigationData
from .spaces import space_from_config

C_HINT = 4.0
_CACHE_VERSION = 11
_N_LANDMARKS = 8
# edges per block of the build's edge weights, to bound peak memory at
# acceptance-scale edge counts
_CHUNK = 1_000_000


# the scipy names, bound on first use (PEP 562) by `__getattr__`: a compact
# query on a cached graph needs none of them, so it starts on numpy alone.
# connected_components is unused here; perfbench/tracer.py reads it by name
# until the tracer reads spans from the library (ROADMAP item 1)
_SCIPY = {"csr_matrix": "scipy.sparse", "connected_components": "scipy.sparse.csgraph",
          "dijkstra": "scipy.sparse.csgraph", "cKDTree": "scipy.spatial"}


def __getattr__(name):
    if name not in _SCIPY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    value = globals()[name] = getattr(import_module(_SCIPY[name]), name)
    return value


def _scipy(name):
    """The module's current binding of a scipy name, bound now if it is
    not yet: a patch of oracle.<name> reaches every call site."""
    return globals()[name] if name in globals() else __getattr__(name)


class GraphDisconnected(ValueError):
    pass


class GraphMismatch(ValueError):
    pass


def _arc_weights(nav, a, b):
    """Exact F-lengths (a[i] -> b[i], b[i] -> a[i]) of the h-geodesic arcs
    between a[i] and b[i], both from the one log v = log_a(b): the arc
    back is the same arc run backwards, of F-length F(a, -v). A single
    point a broadcasts against b, and the wind is then evaluated once."""
    v = nav.space.h_log(a, b)
    return nav.finsler_norm(a, v, both=True)


@dataclass(frozen=True)
class NetGraph:
    nav_config: dict
    k: int
    seed: int
    nodes: np.ndarray  # node g * nb + b is M_g applied to base node b < nb
    rows: np.ndarray  # the base rows' edges, from base node rows[i] to node cols[i]
    cols: np.ndarray
    weights_fwd: np.ndarray  # F-length rows[i] -> cols[i]
    weights_rev: np.ndarray  # F-length cols[i] -> rows[i]
    eps: float
    d_land: np.ndarray  # (landmarks, n) graph distances from the landmarks; node 0's first
    mult: np.ndarray  # (|G|, |G|) group table: M_mult[g, h] = M_g M_h
    leg_row: np.ndarray  # F(o -> v) from node 0 to every node on a compact space, else empty

    @cached_property
    def csr(self):
        """The directed search graph: every edge in both orientations,
        tiled from the base rows to every orbit."""
        return _search_graph(len(self.nodes), self.rows, self.cols,
                             self.weights_fwd, self.weights_rev, self.mult)

    @cached_property
    def coords(self) -> np.ndarray:
        """The embedded nodes one coordinate per row, shape (d, n), as
        `_chords` reads them."""
        space = space_from_config(self.nav_config["space"])
        return np.ascontiguousarray(space.embed(self.nodes).T)

    @cached_property
    def coords_max(self) -> float:  # the scale of the chord bound's rounding
        return float(np.abs(self.coords).max())

    @cached_property
    def chords_from_o(self) -> np.ndarray:
        """Chord lengths from node 0 to every node."""
        return _chords(self.coords, self.coords[:, 0])

    @cached_property
    def graph_hash(self) -> str:
        h = hashlib.sha256()
        h.update(json.dumps(self.nav_config, sort_keys=True).encode())
        h.update(np.int64([len(self.nodes), self.k, self.seed]).tobytes())
        for a in (self.nodes, self.rows, self.cols, self.weights_fwd, self.weights_rev):
            h.update(a.tobytes())
        return h.hexdigest()

    def lower_bound(self, s, t):
        """Landmark (ALT) lower bounds on the graph distances d_G(s, t):
        d_G(l, t) <= d_G(l, s) + d_G(s, t) for every landmark l."""
        return np.max(self.d_land[:, t] - self.d_land[:, s], axis=0)

    def ellipse(self, s, t, budget) -> np.ndarray:
        """The sorted nodes v that the landmarks leave on some graph path
        s -> v -> t of length at most budget: those with
        lower_bound(s, v) + lower_bound(v, t) <= budget."""
        v = slice(None)  # every node
        return np.flatnonzero(self.lower_bound([s], v) + self.lower_bound(v, [t]) <= budget)


# the arrays the cache stores under their own names; its meta holds the rest
_STORED = tuple(f.name for f in fields(NetGraph))[3:]


def _mirrors(rows, cols, nb, mult):
    """(c, h^-1 * nb + b) for the edges b -> (h * nb + c) = (rows, cols): each
    one's mirror c -> (h^-1, b), its image under M_h^-1, built in place."""
    h, c = np.divmod(cols, nb)
    mirror = np.argmin(mult, axis=1)[h]  # mult[h, h^-1] = 0, the identity
    mirror *= nb
    mirror += rows
    return c, mirror


def _search_graph(n, rows, cols, fwd, rev, mult):
    """The base rows hold every edge b -> (h, c), from base node b to node
    h * nb + c, and its mirror (`_mirrors`), which M_h^-1 maps the arc
    back onto (one arc when the two coincide). Row g * nb + b is then base
    row b with each column h * nb + c moved to mult[g, h] * nb + c: its
    image under M_g, with the same weights."""
    size = len(mult)
    nb = n // size
    c, mirror = _mirrors(rows, cols, nb, mult)
    two = (c != rows) | (mirror != cols)
    csr_matrix = _scipy("csr_matrix")
    base = csr_matrix((np.concatenate([fwd, rev[two]]),
                       (np.concatenate([rows, c[two]]), np.concatenate([cols, mirror[two]]))),
                      shape=(nb, n))
    if size == 1:  # the trivial group: the base rows are every row
        return base
    h, c = np.divmod(base.indices, nb)
    indices = np.take(mult, h, axis=1)  # C-ordered, so ravel() below copies nothing
    indices *= nb
    indices += c
    indptr = base.indptr[:-1] + base.nnz * np.arange(size)[:, None]
    return csr_matrix((np.tile(base.data, size), indices.ravel(),
                       np.append(indptr.ravel(), size * base.nnz)), shape=(n, n))


def _rows_of(csr, keep):
    """csr with every row outside the sorted node indices keep emptied:
    the same shape and node numbers, the kept rows' arcs only."""
    start = csr.indptr[keep]
    lens = csr.indptr[keep + 1] - start
    indptr = np.zeros(csr.shape[0] + 1, dtype=csr.indptr.dtype)
    indptr[keep + 1] = lens
    np.cumsum(indptr, out=indptr)
    take = np.repeat(start - indptr[keep], lens) + np.arange(indptr[-1])
    return _scipy("csr_matrix")((csr.data[take], csr.indices[take], indptr), shape=csr.shape)


def _chords(coords, p):
    """Chord lengths from the embedded point p to every column of coords,
    embedded points stored one coordinate per row, shape (d, n): each
    pass runs over n contiguous values, where a row per point would make
    each a loop of d."""
    s = np.square(coords[0] - p[0])
    for c, q in zip(coords[1:], p[1:]):
        s += np.square(c - q)
    return np.sqrt(s, out=s)


def _landmarks(coords, m):
    """m node indices by farthest-point sampling over the embedding (one
    coordinate per row, as `_chords` reads it), starting at node 0: each
    next landmark is the node farthest in chord from those already
    picked."""
    picks = [0]
    gap = _chords(coords, coords[:, 0])
    for _ in range(m - 1):
        picks.append(int(np.argmax(gap)))
        np.minimum(gap, _chords(coords, coords[:, picks[-1]]), out=gap)
    return np.array(picks)


def _orbit_group(space, family) -> np.ndarray:
    """The maps M_g, shape (|G|, d, d), of a finite group of orthogonal
    ambient maps that preserve h and commute with the wind, so that each
    is an F-isometry; the identity first, exactly, so that the base rows
    of an orbit net are its base points as sampled.

    On S^3 every supported wind is c * Q J Q^T (`killing._family`), and J
    is the left multiplication by i in the pairing (w + ix, y + iz) of a
    quaternion w + xi + yj + zk; so the right multiplications by the
    binary icosahedral group 2I, conjugated by Q, commute with it. On SU(2)
    2I acts on the side of the family's members, opposite a one-sided
    wind. Everywhere else the group is trivial.
    """
    d = space.ambient_dim
    if isinstance(family, SphereFamily) and d == 4:
        right, Q = True, family.Q
    elif isinstance(family, GroupFamily):
        right, Q = family.side == "right", np.eye(d)
    else:
        return np.eye(d)[None]
    p, eye = quat.binary_icosahedral()[:, None], np.eye(d)
    # row j of each image is that map's image of e_j: e_j p, or p e_j
    mats = Q @ (quat.qmul(eye, p) if right else quat.qmul(p, eye)).transpose(0, 2, 1) @ Q.T
    mats[0] = eye
    return mats


def _multiplication_table(mats) -> np.ndarray:
    """mult[g, h] = the index of M_g M_h among mats: the k at which the
    trace of M_k^T M_g M_h peaks, at d, as the maps are orthogonal."""
    size = len(mats)
    prods = np.matmul(mats[:, None], mats[None]).reshape(size * size, -1)
    match = np.argmax(prods @ mats.reshape(size, -1).T, axis=1)
    return match.reshape(size, size).astype(np.int32)


def _knn_edges(space, nodes, k, mult):
    """Undirected chord kNN edges of the embedding, found from the base
    rows alone, and each base node's h-distance to its chord-nearest
    neighbour.

    nodes is an orbit net: node g * nb + b is M_g applied to base node b,
    nb = len(nodes) // len(mult), and each M_g is an isometry that maps
    the nodes onto themselves, so kNN(g * nb + b) is M_g kNN(b). An edge
    and its mirror (`_mirrors`) take one key, the lesser of their codes
    row * n + column, and one of the two rows stands for the edge: with
    the trivial group, the row (r, c) with r < c.

    Where h-distance grows with the chord (R^n, spheres, SU(2)) these are
    the h-kNN; on a product the edges may differ from them, and each is
    still an actual arc.
    """
    n = len(nodes)
    nb = n // len(mult)
    emb = space.embed(nodes)
    _, jj = _scipy("cKDTree")(emb).query(emb[:nb], k=k + 1, workers=-1)
    jj = jj[:, 1:]
    d_nn = space.h_distance(nodes[:nb], nodes[jj[:, 0]])
    rows = np.repeat(np.arange(nb, dtype=np.int64), k)
    cols = jj.ravel()
    # code each edge by its key, then dedupe (duplicate entries would be
    # summed by CSR); sorting the codes gives np.unique's result without
    # its hashing
    enc = rows * n
    enc += cols
    key, mirror = _mirrors(rows, cols, nb, mult)
    key *= n
    key += mirror
    del mirror
    np.minimum(enc, key, out=enc)
    del key
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
    family = constant_length_family(nav)  # refuses an unsupported wind
    cfg = nav.to_config()
    if cache_dir is None:
        cache_dir = os.environ.get("RANDERS_LAB_CACHE")
    cache_path = None
    if cache_dir:
        cache_dir = Path(cache_dir).expanduser()
        try:  # before the build, so that an unusable directory fails at once
            cache_dir.mkdir(parents=True, exist_ok=True)
        except OSError as e:
            raise ValueError(f"oracle cache {str(cache_dir)!r} is not a usable directory "
                             f"({e.strerror})") from None
        key = hashlib.sha256(json.dumps(
            {"cfg": cfg, "n": n_nodes, "k": k, "seed": seed, "v": _CACHE_VERSION},
            sort_keys=True).encode()).hexdigest()[:20]
        cache_path = cache_dir / f"netgraph-{key}.npz"
        if cache_path.exists():
            try:
                return _load(cache_path)
            except (zipfile.BadZipFile, KeyError, ValueError, OSError, EOFError):
                pass  # an unreadable file is a miss: rebuilt and replaced below

    space = nav.space
    mats = _orbit_group(space, family)
    mult = _multiplication_table(mats)
    rng = np.random.default_rng(seed)
    # the orbit net: n_nodes rounded up to a multiple of |G|, node
    # g * nb + b being M_g applied to base point b
    base = space.sample(rng, -(-n_nodes // len(mats)))
    nodes = np.matmul(base, mats.transpose(0, 2, 1)).reshape(-1, space.ambient_dim)
    n_nodes = len(nodes)

    rows, cols, d_nn = _knn_edges(space, nodes, k, mult)
    fwd = np.empty(len(rows))
    rev = np.empty(len(rows))
    for lo in range(0, len(rows), _CHUNK):
        sl = slice(lo, lo + _CHUNK)
        fwd[sl], rev[sl] = _arc_weights(nav, nodes[rows[sl]], nodes[cols[sl]])
    # eps = max over nodes of the h-distance to the chord-nearest neighbour
    eps = float(np.max(d_nn))

    csr = _search_graph(n_nodes, rows, cols, fwd, rev, mult)
    # a compact space carries every query to one from node 0 (`_to_base_point`);
    # csr holds each edge both ways: strongly connected iff node 0 reaches all
    m = 1 if space.compact else _N_LANDMARKS
    coords = np.ascontiguousarray(space.embed(nodes).T)
    d_land = _scipy("dijkstra")(csr, directed=True, indices=_landmarks(coords, m))
    far = np.count_nonzero(np.isinf(d_land[0]))
    if far:
        raise GraphDisconnected(f"{far} nodes unreachable from node 0 at k={k}; use a larger k")
    # the x-legs of every compact query start at node 0 (`_best_two_arc`)
    leg_row = _arc_weights(nav, nodes[0], nodes)[0] if space.compact else np.empty(0)
    g = NetGraph(nav_config=cfg, k=k, seed=seed, nodes=nodes, rows=rows, cols=cols,
                 weights_fwd=fwd, weights_rev=rev, eps=eps, d_land=d_land, mult=mult,
                 leg_row=leg_row)
    # the queries reuse the matrix the landmark search ran on, and the embedding
    vars(g).update(csr=csr, coords=coords)
    if cache_path is not None:
        # write beside the cache file and rename it into place, so a failed
        # write leaves nothing at cache_path (numpy appends .npz if missing);
        # uncompressed, as deflate took 70x the write time to save 40% of the bytes
        tmp = cache_path.with_name(f"{cache_path.stem}.{os.getpid()}.tmp.npz")
        try:
            np.savez(tmp, **{name: getattr(g, name) for name in _STORED},
                     meta=json.dumps({"cfg": cfg, "k": k, "seed": seed}))
            os.replace(tmp, cache_path)
        finally:
            tmp.unlink(missing_ok=True)
    return g


def _load(path: Path) -> NetGraph:
    # np.load leaves a file it opened itself open when the zip is unreadable
    with open(path, "rb") as f, np.load(f, allow_pickle=False) as z:
        meta = json.loads(str(z["meta"]))
        stored = {name: z[name] for name in _STORED}
    stored["eps"] = float(stored["eps"])
    return NetGraph(nav_config=meta["cfg"], k=meta["k"], seed=meta["seed"], **stored)


def _best_two_arc(nav, g: NetGraph, x, y, hop):
    """(F-length, s, t) of the best curve from x to y through net nodes:
    the 2-arc x -> z -> y through the best node z, or x -> u -> z -> v -> y,
    which refines each of its legs through its own best node, when that is
    shorter; s and t are the nodes nearest x and y in chord (o = node 0
    for x on a compact space). The arcs between a point and nodes, both ways, take
    one h-log per node.

    An x-leg x -> v is the arc from x, except on a compact space, where x
    lies at node 0 = o up to rounding (`_to_base_point`): there it is the
    curve x -> o -> v, of F-length hop + leg_row[v] with hop = F(x -> o),
    and no arc from x is computed (hop is read there alone).

    Only nodes that a chord bound leaves in play get legs. The indicatrix
    is the h-unit sphere translated by W, so F(v) >= |v|_h / (1 + w) with
    w the wind's largest length; `embed` is isometric, so an arc is at
    least its chord over 1 + w, and a curve x -> z -> y can reach a length
    L only if chord(x, z) + chord(z, y) <= (1 + w) L, with chord(o, z) in
    place of chord(x, z) on a compact space. As the x-legs are exact before
    any y-leg runs, a y-leg z -> y runs only where
    chord(z, y) <= (1 + w) (L - x-leg). Each minimum is taken over a set
    that holds every node reaching it, so the result is the all-nodes one,
    bit for bit.
    """
    nodes, coords = g.nodes, g.coords
    space = nav.space
    ex = coords[:, 0] if space.compact else space.embed(x)
    ey = space.embed(y)
    cx = g.chords_from_o if space.compact else _chords(coords, ex)
    cy = _chords(coords, ey)
    cxy = cx + cy
    # the relative margin covers the rounding of chords and lengths; the
    # absolute one the rounding of each coordinate, off the manifold and by
    # the embedding, which can make the chord between nearly coincident
    # points exceed their h-distance (by 1e-6 relative at 1e-13 apart)
    grow = (1.0 + nav.wind.length_range()[1]) * (1.0 + 1e-9)
    tol = 1e-12 * max(g.coords_max, np.abs(ex).max(), np.abs(ey).max())

    def within(c, length):  # the nodes whose chord sum c allows `length`
        return c <= grow * length + tol

    def x_legs(v):
        return hop + g.leg_row[v] if space.compact else _arc_weights(nav, x, nodes[v])[0]

    # the 2-arc through the node of least chord sum bounds the best one
    z0 = int(np.argmin(cxy))
    bound = x_legs(z0) + _arc_weights(nav, y, nodes[z0])[1]
    c1 = np.flatnonzero(within(cxy, bound))
    wx = x_legs(c1)
    # y-legs where the x-leg leaves room; the absolute margin covers the
    # rounding of bound and of bound - wx
    room = within(cy[c1], bound - wx + 1e-9 * bound)
    wy = np.full(len(c1), np.inf)
    wy[room] = _arc_weights(nav, y, nodes[c1[room]])[1]
    tot = wx + wy
    j = int(np.argmin(tot))  # c1 is sorted, so ties go to the first node
    zi = c1[j]
    # each refined leg through u = z itself has the length of the 2-arc's
    # leg, and every node that ties or beats it lies in c1
    cz = _chords(coords[:, c1], coords[:, zi])
    via_x_in = within(cx[c1] + cz, wx[j])
    via_y_in = within(cz + cy[c1], wy[j])
    via_x_in[j] = via_y_in[j] = True
    more = via_y_in & ~room  # the y-legs the refinement needs besides
    if more.any():
        wy[more] = _arc_weights(nav, y, nodes[c1[more]])[1]
    u = via_x_in | via_y_in
    from_z, to_z = _arc_weights(nav, nodes[zi], nodes[c1[u]])
    via_x = float(np.min((wx[u] + to_z)[via_x_in[u]]))
    via_y = float(np.min((from_z + wy[u])[via_y_in[u]]))
    return min(float(tot[j]), via_x + via_y), int(np.argmin(cx)), int(np.argmin(cy))


def _to_base_point(nav: NavigationData, g: NetGraph, xs, ys):
    """The pairs (rho(x), rho(y)) = (x', y'), x' at o = node 0: rho is the
    time-1 flow of the X in `constant_length_family` with X(x) = log_x(o),
    an F-isometry, as X commutes with the wind, whose orbits are
    h-geodesics, as X has constant length. Every curve keeps its length,
    so the query (x', y') answers (x, y)."""
    o = g.nodes[0]
    family = constant_length_family(nav)
    moved = np.array([family.match(x, v).flow(np.stack([x, y]), 1.0)
                      for x, y, v in zip(xs, ys, nav.space.h_log(xs, o))])
    return moved.reshape(len(xs), 2, xs.shape[1]).transpose(1, 0, 2)


def oracle_distance(g: NetGraph, nav: NavigationData, x, y):
    """(estimate, upper_error_hint) for d_F(x, y).

    estimate = the shortest known actual curve: snap hops + graph path,
    the direct arc, and 2-arc relaxations through net nodes.
    error_hint = C_HINT * eps.
    """
    return float(oracle_distance_pairs(g, nav, [x], [y])[0]), C_HINT * g.eps


def oracle_distance_pairs(g: NetGraph, nav: NavigationData, xs, ys) -> np.ndarray:
    """Vectorized oracle estimates for row-aligned point arrays.

    Each estimate is the shortest of the direct arc, the curves through
    net nodes and the snap hops plus the graph path, `_best_two_arc`
    giving the curves and the snaps, the nodes nearest in chord. On a
    compact space every pair is first carried to one from node 0
    (`_to_base_point`), and its source snaps to node 0. A graph path can
    only win when it is no longer than the best of the others less the
    hops. A pair whose budget is negative, or below the landmark bound on
    its graph distance, is left out of the search. A pair left whose
    snapped source is a landmark, as node 0 is, reads that landmark's row
    of d_land; every other one runs one Dijkstra limited to its budget,
    over the rows of the nodes in its landmark ellipse (`NetGraph.ellipse`):
    every graph path within the budget keeps all its arcs there. The
    estimates equal those of unbounded searches over all nodes bit for bit.
    """
    if json.dumps(g.nav_config, sort_keys=True) != json.dumps(nav.to_config(), sort_keys=True):
        raise GraphMismatch("graph was built for different navigation data")
    xs, ys, _ = nav.point_pairs("the oracle", xs, ys)
    direct = _arc_weights(nav, xs, ys)[0]
    # h_log(x, x) is exactly 0, so an endpoint on its node hops 0.0
    hop_out = np.full(len(xs), np.nan)  # read by `_best_two_arc` on a compact space alone
    if nav.space.compact:  # each source is moved onto node 0, to rounding, and snaps there
        xs, ys = _to_base_point(nav, g, xs, ys)
        hop_out = _arc_weights(nav, xs, g.nodes[np.zeros(len(xs), dtype=np.intp)])[0]
    two_arc = np.array([_best_two_arc(nav, g, x, y, h)
                        for x, y, h in zip(xs, ys, hop_out)]).reshape(-1, 3)
    best = np.minimum(direct, two_arc[:, 0])
    si, ti = two_arc[:, 1:].astype(np.intp).T
    if not nav.space.compact:
        hop_out = _arc_weights(nav, xs, g.nodes[si])[0]
    hop_in = _arc_weights(nav, g.nodes[ti], ys)[0]
    # a graph path longer than best - hops cannot win; the relative margin
    # covers the rounding of hop_out + path + hop_in, and that of the
    # landmark bounds (a few 1e-16 relative), so a pair whose bound exceeds
    # its budget needs no search, and a node whose bounds leave no path
    # through it within the budget is left out of the pair's search
    budget = best - hop_out - hop_in + 1e-9 * best
    live = (budget >= 0) & (g.lower_bound(si, ti) <= budget)
    est = best.copy()
    for i in np.flatnonzero(live):
        # a node is landmark l exactly when its distance from l is 0
        land = np.flatnonzero(g.d_land[:, si[i]] == 0)
        if len(land):
            D = g.d_land[land[0]]
        else:
            csr = _rows_of(g.csr, g.ellipse(si[i], ti[i], budget[i]))
            D = _scipy("dijkstra")(csr, directed=True, indices=si[i], limit=budget[i])
        est[i] = min(hop_out[i] + D[ti[i]] + hop_in[i], best[i])
    return est
