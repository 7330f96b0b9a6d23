"""Model spaces: Euclidean space, odd spheres, SU(2), and finite products.

Every space stores points and tangents as flat ambient numpy arrays; a
product point is the concatenation of its factor points. All geometric
operations broadcast over a leading batch axis, so `x` may be shape
``(ambient_dim,)`` or ``(m, ambient_dim)`` throughout.

Conventions
-----------
* Sphere(dim=2k-1, radius=R): points are ambient vectors of length R in
  R^{2k}; the metric is the restriction of the ambient dot product.
* CompactGroup("SU2", scale=s): points are unit quaternions [w,x,y,z];
  the bi-invariant metric is s^2 * dot, so d(1,-1) = s*pi.
* Product: the l2 combination of factor distances.

`embed` is an isometric embedding in Euclidean space, so h-distance is
never less than the chord between embeddings. `chord_ordered` states
whether h-distance is moreover a nondecreasing function of that chord,
so that nearest neighbours in the embedding are nearest neighbours in h:
the chord itself on R^n, 2R arcsin(chord/2R) on spheres and SU(2). A
product of two or more factors mixes the factors' chords, and its
h-order can differ. `compact` is False exactly when there is an R^n
factor.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar

import numpy as np


class SpaceError(ValueError):
    pass


def _dot(u, v):
    return np.einsum("...i,...i->...", u, v)


def _check_finite(x) -> None:
    if not np.all(np.isfinite(x)):
        raise SpaceError("point has non-finite coordinates")


def _norm(v):
    """np.linalg.norm(v, axis=-1), bit for bit, at a third of its cost on
    the few coordinates of these spaces. Under 8 entries numpy adds the
    squares of a row in column order, so the columns are summed in that
    order; from 8 on it sums pairwise, and numpy is called."""
    v = np.asarray(v, dtype=float)
    if v.shape[-1] >= 8:
        return np.linalg.norm(v, axis=-1)
    s = v[..., 0] * v[..., 0]
    sq = np.empty_like(s)  # one buffer for every column's squares
    for j in range(1, v.shape[-1]):
        s += np.multiply(v[..., j], v[..., j], out=sq)
    return np.sqrt(s)


# ---------------------------------------------------------------------------
# factor spaces
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Euclidean:
    n: int
    box: float = 5.0

    chord_ordered: ClassVar[bool] = True
    compact: ClassVar[bool] = False

    @property
    def ambient_dim(self) -> int:
        return self.n

    @property
    def dim(self) -> int:
        return self.n

    @property
    def injectivity_radius(self) -> float:
        return np.inf

    def check_point(self, x) -> None:
        x = np.asarray(x)
        if x.shape[-1] != self.n:
            raise SpaceError(f"expected ambient dim {self.n}, got {x.shape[-1]}")
        _check_finite(x)

    def h_inner(self, x, u, v):
        return _dot(u, v)

    def h_exp(self, x, v, t=1.0):
        t = np.asarray(t, dtype=float)
        return np.asarray(x, dtype=float) + t[..., None] * np.asarray(v, dtype=float)

    def h_log(self, x, y):
        return np.asarray(y, dtype=float) - np.asarray(x, dtype=float)

    def h_distance(self, x, y):
        return _norm(np.asarray(y, dtype=float) - np.asarray(x, dtype=float))

    def h_dexp(self, x, v, u):
        return np.asarray(u, dtype=float)

    def tangent_project(self, x, w):
        return np.asarray(w, dtype=float)

    def retract(self, p):
        return np.asarray(p, dtype=float)

    def sample(self, rng, m):
        return rng.uniform(-self.box, self.box, size=(m, self.n))

    def embed(self, pts):
        return np.asarray(pts, dtype=float)

    def to_config(self) -> dict:
        return {"kind": "euclidean", "n": self.n, "box": self.box}


@dataclass(frozen=True)
class Sphere:
    """Odd-dimensional round sphere S^{2k-1} of radius R, ambient R^{2k}."""

    dim: int
    radius: float = 1.0

    chord_ordered: ClassVar[bool] = True
    compact: ClassVar[bool] = True

    def __post_init__(self):
        if self.dim < 1 or self.dim % 2 == 0:
            raise SpaceError(f"sphere dimension must be odd and >= 1, got {self.dim}")
        if self.radius <= 0:
            raise SpaceError("sphere radius must be positive")

    @property
    def ambient_dim(self) -> int:
        return self.dim + 1

    @property
    def injectivity_radius(self) -> float:
        return np.pi * self.radius

    def check_point(self, x) -> None:
        x = np.asarray(x)
        if x.shape[-1] != self.ambient_dim:
            raise SpaceError(f"expected ambient dim {self.ambient_dim}, got {x.shape[-1]}")
        _check_finite(x)
        err = np.max(np.abs(np.linalg.norm(x, axis=-1) - self.radius))
        if err > 1e-12:
            raise SpaceError(f"point off the sphere by {err:.3e}")

    def h_inner(self, x, u, v):
        return _dot(u, v)

    def h_exp(self, x, v, t=1.0):
        x = np.asarray(x, dtype=float)
        v = np.asarray(v, dtype=float)
        R = self.radius
        speed = _norm(v)
        theta = np.asarray(t) * speed / R
        safe = np.where(speed < 1e-300, 1.0, speed)
        u = v / safe[..., None]
        out = np.cos(theta)[..., None] * x + (R * np.sin(theta))[..., None] * u
        return self.retract(out)

    def h_log(self, x, y):
        """Tangent v at x with h_exp(x, v) = y; antipodes get a fixed direction.

        The angle is atan2(|perp|, R cos) with both parts formed from
        d = y - x, so it keeps full relative precision near coincident
        points, where arccos of the dot product loses half the digits.
        """
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        R = self.radius
        d = y - x
        dr = _dot(d, x) / R  # R cos(theta) - R
        perp = d - (dr / R)[..., None] * x
        pn = _norm(perp)
        theta = np.arctan2(pn, R + dr)
        deg = (pn < 1e-14) & (R + dr < 0.0)
        if np.any(deg):
            perp = np.array(perp, copy=True)
            perp[deg] = self._fallback_dir(np.broadcast_to(x, perp.shape)[deg])
            pn = np.where(deg, _norm(perp), pn)
        # antipodes keep theta = pi, coincident points give theta = 0
        return (R * theta / np.where(pn < 1e-300, 1.0, pn))[..., None] * perp

    def _fallback_dir(self, x):
        i = np.argmin(np.abs(x), axis=-1)
        e = np.zeros_like(x)
        np.put_along_axis(e, i[..., None], 1.0, axis=-1)
        return e - (_dot(e, x) / self.radius**2)[..., None] * x

    def h_dexp(self, x, v, u):
        """Differential of the great-circle exponential map.

        Returns d/ds Exp_x(v + s u) at s = 0 for Exp_x(v) = cos(|v|/R) x +
        R sin(|v|/R) v/|v|, with v, u tangent at x. Splitting u into the
        radial part a = <u, v/|v|> and the normal rest gives

            dExp(u) = a (cos(t) v/|v| - sin(t) x / R) + sinc(t) u_perp,

        t = |v|/R — the radial part rides the geodesic, the normal part is
        a Jacobi field. Exact (no finite differences), which matters: the
        ODE integrator differentiates through this twice.
        """
        x = np.asarray(x, dtype=float)
        v = np.asarray(v, dtype=float)
        u = np.asarray(u, dtype=float)
        R = self.radius
        r = np.linalg.norm(v, axis=-1)
        theta = r / R
        small = r < 1e-300
        vhat = v / np.where(small, 1.0, r)[..., None]
        a = _dot(u, vhat)
        uperp = u - a[..., None] * vhat
        out = (a * np.cos(theta))[..., None] * vhat \
            - (a * np.sin(theta) / R)[..., None] * x \
            + np.sinc(theta / np.pi)[..., None] * uperp
        return np.where(small[..., None], u, out)

    def h_distance(self, x, y):
        # 2 arcsin(chord/2R) rather than arccos of the dot product: exact
        # near coincident points where arccos loses eight digits.
        chord = _norm(np.asarray(x, dtype=float) - np.asarray(y, dtype=float))
        return 2.0 * self.radius * np.arcsin(np.clip(chord / (2.0 * self.radius), 0.0, 1.0))

    def tangent_project(self, x, w):
        x = np.asarray(x, dtype=float)
        w = np.asarray(w, dtype=float)
        return w - (_dot(w, x) / self.radius**2)[..., None] * x

    def retract(self, p):
        p = np.asarray(p, dtype=float)
        return self.radius * p / _norm(p)[..., None]

    def sample(self, rng, m):
        g = rng.normal(size=(m, self.ambient_dim))
        return self.radius * g / np.linalg.norm(g, axis=-1, keepdims=True)

    def embed(self, pts):
        return np.asarray(pts, dtype=float)

    def to_config(self) -> dict:
        return {"kind": "sphere", "dim": self.dim, "radius": self.radius}


_UNIT_S3 = Sphere(3, 1.0)


@dataclass(frozen=True)
class CompactGroup:
    """SU(2) as unit quaternions with the bi-invariant metric s^2 * dot."""

    name: str = "SU2"
    scale: float = 1.0

    chord_ordered: ClassVar[bool] = True
    compact: ClassVar[bool] = True

    def __post_init__(self):
        if self.name != "SU2":
            raise SpaceError(f"unsupported group {self.name!r}; only SU2 is implemented")
        if self.scale <= 0:
            raise SpaceError("group scale must be positive")

    @property
    def ambient_dim(self) -> int:
        return 4

    @property
    def dim(self) -> int:
        return 3

    @property
    def injectivity_radius(self) -> float:
        return np.pi * self.scale

    def check_point(self, x) -> None:
        x = np.asarray(x)
        if x.shape[-1] != 4:
            raise SpaceError("SU2 points are quaternions of shape (..., 4)")
        _check_finite(x)
        err = np.max(np.abs(np.linalg.norm(x, axis=-1) - 1.0))
        if err > 1e-12:
            raise SpaceError(f"quaternion norm off by {err:.3e}")

    def h_inner(self, x, u, v):
        return self.scale**2 * _dot(u, v)

    # geometry of the unit quaternion sphere; only lengths carry the scale

    def h_exp(self, x, v, t=1.0):
        return _UNIT_S3.h_exp(x, v, t)

    def h_log(self, x, y):
        return _UNIT_S3.h_log(x, y)

    def h_distance(self, x, y):
        return self.scale * _UNIT_S3.h_distance(x, y)

    def h_dexp(self, x, v, u):
        return _UNIT_S3.h_dexp(x, v, u)

    def tangent_project(self, x, w):
        return _UNIT_S3.tangent_project(x, w)

    def retract(self, p):
        return _UNIT_S3.retract(p)

    def sample(self, rng, m):
        return _UNIT_S3.sample(rng, m)

    def embed(self, pts):
        return self.scale * np.asarray(pts, dtype=float)

    def to_config(self) -> dict:
        return {"kind": "group", "name": self.name, "scale": self.scale}


def _concat_parts(parts):
    """Concatenate per-factor blocks along the last axis, broadcasting the
    batch dimensions (the trailing ambient dims generally differ)."""
    if len(parts) == 1:
        return np.asarray(parts[0], dtype=float)
    parts = [np.asarray(p, dtype=float) for p in parts]
    batch = np.broadcast_shapes(*(p.shape[:-1] for p in parts))
    parts = [np.broadcast_to(p, batch + p.shape[-1:]) for p in parts]
    return np.concatenate(parts, axis=-1)


@dataclass(frozen=True)
class Product:
    factors: tuple

    def __post_init__(self):
        if len(self.factors) < 1:
            raise SpaceError("product needs at least one factor")
        flat = []
        for f in self.factors:
            if isinstance(f, Product):
                flat.extend(f.factors)
            else:
                flat.append(f)
        object.__setattr__(self, "factors", tuple(flat))

    @property
    def ambient_dim(self) -> int:
        return sum(f.ambient_dim for f in self.factors)

    @property
    def dim(self) -> int:
        return sum(f.dim for f in self.factors)

    @property
    def injectivity_radius(self) -> float:
        return min(f.injectivity_radius for f in self.factors)

    @property
    def chord_ordered(self) -> bool:
        return len(self.factors) == 1 and self.factors[0].chord_ordered

    @property
    def compact(self) -> bool:
        return all(f.compact for f in self.factors)

    @property
    def slices(self) -> tuple:
        out, off = [], 0
        for f in self.factors:
            out.append(slice(off, off + f.ambient_dim))
            off += f.ambient_dim
        return tuple(out)

    def split(self, x):
        x = np.asarray(x, dtype=float)
        return [x[..., s] for s in self.slices]

    def check_point(self, x) -> None:
        n = np.shape(x)[-1]
        if n != self.ambient_dim:
            raise SpaceError(f"expected ambient dim {self.ambient_dim}, got {n}")
        for f, xf in zip(self.factors, self.split(x)):
            f.check_point(xf)

    def h_inner(self, x, u, v):
        parts = zip(self.factors, self.split(x), self.split(u), self.split(v))
        return sum(f.h_inner(xf, uf, vf) for f, xf, uf, vf in parts)

    def h_exp(self, x, v, t=1.0):
        parts = [f.h_exp(xf, vf, t) for f, xf, vf in zip(self.factors, self.split(x), self.split(v))]
        return _concat_parts(parts)

    def h_log(self, x, y):
        parts = [f.h_log(xf, yf) for f, xf, yf in zip(self.factors, self.split(x), self.split(y))]
        return _concat_parts(parts)

    def h_distance(self, x, y):
        d2 = sum(f.h_distance(xf, yf) ** 2 for f, xf, yf in zip(self.factors, self.split(x), self.split(y)))
        return np.sqrt(d2)

    def tangent_project(self, x, w):
        parts = [f.tangent_project(xf, wf) for f, xf, wf in zip(self.factors, self.split(x), self.split(w))]
        return _concat_parts(parts)

    def h_dexp(self, x, v, u):
        parts = [f.h_dexp(xf, vf, uf) for f, xf, vf, uf
                 in zip(self.factors, self.split(x), self.split(v), self.split(u))]
        return _concat_parts(parts)

    def retract(self, p):
        parts = [f.retract(pf) for f, pf in zip(self.factors, self.split(p))]
        return _concat_parts(parts)

    def sample(self, rng, m):
        return np.concatenate([f.sample(rng, m) for f in self.factors], axis=-1)

    def embed(self, pts):
        return np.concatenate([f.embed(pf) for f, pf in zip(self.factors, self.split(pts))], axis=-1)

    def to_config(self) -> dict:
        return {"kind": "product", "factors": [f.to_config() for f in self.factors]}


# ---------------------------------------------------------------------------
# shared helpers
# ---------------------------------------------------------------------------


def frame(space, x) -> np.ndarray:
    """Deterministic orthonormal h-frame at x, shape (dim, ambient_dim).

    Gram-Schmidt over the projected ambient basis vectors taken in index
    order; vectors that project below 1e-8 are skipped.
    """
    x = np.asarray(x, dtype=float)
    rows = []
    for i in range(space.ambient_dim):
        e = np.zeros(space.ambient_dim)
        e[i] = 1.0
        v = space.tangent_project(x, e)
        for r in rows:
            v = v - space.h_inner(x, v, r) * r
        nrm = np.sqrt(space.h_inner(x, v, v))
        if nrm > 1e-8:
            rows.append(v / nrm)
        if len(rows) == space.dim:
            break
    if len(rows) != space.dim:
        raise SpaceError("frame construction fell short; point may be invalid")
    return np.array(rows)


def random_tangent(space, rng, x, unit: bool = True) -> np.ndarray:
    """Random tangent vector(s) at x; h-unit by default.

    Draws whose projection is nearly zero (the Gaussian landed almost
    radially) are redrawn — normalizing the projection residue would
    produce a direction that is not actually tangent.
    """
    x = np.asarray(x, dtype=float)
    g = rng.normal(size=x.shape)
    v = space.tangent_project(x, g)
    nrm = np.atleast_1d(np.sqrt(space.h_inner(x, v, v)))
    glen = np.linalg.norm(np.atleast_2d(g), axis=-1)
    for _ in range(8):
        bad = nrm < 1e-6 * glen
        if not bad.any():
            break
        g2 = rng.normal(size=x.shape)
        v2 = space.tangent_project(x, g2)
        if x.ndim > 1:
            v = np.where(bad[..., None], v2, v)
        elif bad[0]:
            v = v2
        nrm = np.atleast_1d(np.sqrt(space.h_inner(x, v, v)))
        glen = np.linalg.norm(np.atleast_2d(g2), axis=-1)
    if unit:
        scale = np.where(nrm < 1e-300, 1.0, nrm)
        v = v / scale[..., None] if x.ndim > 1 else v / scale[0]
    return v


def space_from_config(cfg: dict):
    """A space from a JSON object such as {"kind": "sphere", "dim": 3}; a
    product's "factors" is a list of such objects."""
    if not isinstance(cfg, dict):
        raise SpaceError(f'a space is a JSON object with a "kind", got {cfg!r}')
    kind = cfg.get("kind")
    if kind == "euclidean":
        return Euclidean(n=int(cfg["n"]), box=float(cfg.get("box", 5.0)))
    if kind == "sphere":
        return Sphere(dim=int(cfg["dim"]), radius=float(cfg.get("radius", 1.0)))
    if kind == "group":
        return CompactGroup(name=cfg.get("name", "SU2"), scale=float(cfg.get("scale", 1.0)))
    if kind == "product":
        factors = cfg["factors"]
        if not isinstance(factors, list):
            raise SpaceError(f'a product\'s "factors" is a list of spaces, got {factors!r}')
        return Product(tuple(space_from_config(f) for f in factors))
    raise SpaceError(f"unknown space kind {kind!r}")
