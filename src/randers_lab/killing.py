"""Killing fields on the model spaces: exact flows, the constant-length
rule, and the commuting constant-length families.

Generators are stored exactly (skew matrix / algebra pair / constant
vector / tuple). A sphere field is a skew map, whose flow turns planes
at fixed rates (`_rotate`); SU(2) with its bi-invariant metric is the
round S^3, and its field x -> lx - xr is the sphere rotation of the skew
map L_l - R_r of R^4, with the same evaluate and flow. `flow(x, t)`
broadcasts over a batch of points with a per-point time array, which the
distance code relies on.
`length_range()` reads the (min, max) of the field's h-length off the
generator; it is the only place the length of a field is known, and
`require_constant_length` is the one rule that decides from it whether
that length is constant: for winds in `constant_length_family`, which
the oracle and the verifiers ask, and in `cw.small_time_threshold`.

Sphere conventions: ambient coordinates are paired as (x1+ix2, x3+ix4,
...) and J is the block-diagonal rotation [[0,-1],[1,0]] repeated; a
complex k x k matrix C acts on R^{2k} through `to_real_matrix(C)`.
"""
from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from . import quat
from .config import json_array, json_number
from .spaces import (
    CompactGroup,
    Euclidean,
    Product,
    Sphere,
    _concat_parts,
)


class UnsupportedWind(ValueError):
    pass


# ---------------------------------------------------------------------------
# complex identification on even-dimensional ambient space
# ---------------------------------------------------------------------------


def to_complex(x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    return x[..., 0::2] + 1j * x[..., 1::2]


def to_real_matrix(C: np.ndarray) -> np.ndarray:
    """Real 2k x 2k matrix acting as the complex k x k matrix C."""
    C = np.asarray(C, dtype=complex)
    k = C.shape[0]
    M = np.zeros((2 * k, 2 * k))
    M[0::2, 0::2] = C.real
    M[1::2, 1::2] = C.real
    M[1::2, 0::2] = C.imag
    M[0::2, 1::2] = -C.imag
    return M


def standard_J(k: int) -> np.ndarray:
    return to_real_matrix(1j * np.eye(k))


# ---------------------------------------------------------------------------
# field types
# ---------------------------------------------------------------------------


class KillingField:
    """Base class; subclasses hold exact per-factor generators and define
    evaluate, flow, length_range (the exact (min, max) of the field's
    h-length over the space), + and scaled."""


def _check_generator(X, kind: type, **generators) -> None:
    """Refuse a field X on a space that is not a `kind`, or with a
    non-finite generator: NaN compares False, so it would pass the skew
    and pure-imaginary checks."""
    if not isinstance(X.space, kind):
        raise ValueError(f"{type(X).__name__} acts on a {kind.__name__}, "
                         f"not on {X.space!r}")
    for name, g in generators.items():
        if not np.all(np.isfinite(g)):
            raise ValueError(f"{type(X).__name__} generator {name} has a non-finite "
                             f"entry: {np.asarray(g).tolist()}")


def _rotation_planes(A: np.ndarray):
    """Rates mu > 0 of a skew A and V with rows (p_1, q_1, p_2, ...) /
    sqrt(2), orthonormal p, q with A p = mu q, A q = -mu p: Re z, Im z of
    eigenvectors z of the Hermitian iA. Kernel rates (eigh gives +-1e-16,
    with vectors that need not pair as z, z-bar) are dropped, and rates
    that agree to rounding, as in a constant-length field, kept as one."""
    iA = np.zeros(A.shape, dtype=complex)
    iA.imag = A  # half the cost of 1j * A, paid once per field
    mu, Z = np.linalg.eigh(iA)
    rates = mu.tolist()  # ascending
    n = bisect_right(rates, 1e-13 * rates[-1])
    one = n < len(rates) and rates[-1] - rates[n] <= 1e-14 * rates[-1]
    return mu[-1:] if one else mu[n:], Z.view(float)[:, 2 * n:].T


def _rotate(planes, x, t):
    """exp(tA) x, t a scalar or one time per row: x plus the turn of (a, b) =
    (p.x, q.x) in each plane, exactly 0 at t = 0 and on the kernel; V x is
    (a, b) / sqrt(2), so its turn is doubled. Planes run along the first
    axis, for numpy's long inner loops over rows."""
    mu, V = planes
    x = np.asarray(x, dtype=float)
    theta = mu[:, None] * t if x.ndim > 1 else mu * t
    c, s = np.cos(theta) - 1.0, np.sin(theta)
    ab = V @ x.T
    a, b = ab[0::2], ab[1::2]
    ab[0::2], ab[1::2] = a * c - b * s, a * s + b * c
    return x + 2.0 * (ab.T @ V)


@dataclass(frozen=True)
class EuclideanKilling(KillingField):
    """Constant translation field v (the constant-length class on E^n)."""

    space: Euclidean
    v: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.v, dtype=float)
        _check_generator(self, Euclidean, v=v)
        if v.shape != (self.space.n,):
            raise ValueError(f"a translation on E^{self.space.n} is a vector of "
                             f"{self.space.n} numbers, got shape {v.shape}")
        object.__setattr__(self, "v", v)

    def evaluate(self, x):
        x = np.asarray(x, dtype=float)
        return np.broadcast_to(self.v, x.shape).copy()

    def flow(self, x, t):
        # the products laid out (values, rows): long inner loops over rows
        return np.asarray(x, dtype=float) + np.multiply.outer(self.v, np.asarray(t, dtype=float)).T

    def length_range(self):
        n = float(np.linalg.norm(self.v))
        return n, n

    def __add__(self, other):
        return EuclideanKilling(self.space, self.v + other.v)

    def scaled(self, c):
        return EuclideanKilling(self.space, c * self.v)

    def to_config(self):
        return {"type": "euclidean-const", "v": self.v.tolist()}


@dataclass(frozen=True)
class SphereKilling(KillingField):
    """Rotation field x -> A x with A skew; its flow turns A's planes."""

    space: Sphere
    A: np.ndarray

    def __post_init__(self):
        A = np.asarray(self.A, dtype=float)
        _check_generator(self, Sphere, A=A)
        d = self.space.ambient_dim
        if A.shape != (d, d):
            raise ValueError(f"a generator on S^{self.space.dim} is a {d}x{d} matrix, "
                             f"got shape {A.shape}")
        if np.max(np.abs(A + A.T)) > 1e-12:
            raise ValueError("sphere generator must be skew-symmetric")
        object.__setattr__(self, "A", A)

    @cached_property
    def _planes(self):
        return _rotation_planes(self.A)

    def evaluate(self, x):
        return np.asarray(x, dtype=float) @ self.A.T

    def flow(self, x, t):
        return _rotate(self._planes, x, t)

    def length_range(self):
        # R times A's extreme singular values: its rates, and 0 on a kernel
        mu, V = self._planes
        lo = mu[0] if len(V) == self.space.ambient_dim else 0.0
        return float(self.space.radius * lo), float(self.space.radius * mu.max(initial=0.0))

    def __add__(self, other):
        return SphereKilling(self.space, self.A + other.A)

    def scaled(self, c):
        return SphereKilling(self.space, c * self.A)

    def to_config(self):
        return {"type": "sphere-skew", "matrix": self.A.tolist()}


@dataclass(frozen=True)
class GroupKilling(SphereKilling):
    """x -> l*x - x*r with l, r pure imaginary quaternions: on SU(2), the
    round S^3, the sphere rotation of the skew map A = L_l - R_r of R^4,
    whose flow x -> exp(t l) * x * exp(-t r) turns A's planes."""

    space: CompactGroup
    A: np.ndarray = field(init=False, repr=False)
    l: np.ndarray
    r: np.ndarray

    def __post_init__(self):
        l = np.asarray(self.l, dtype=float)
        r = np.asarray(self.r, dtype=float)
        _check_generator(self, CompactGroup, l=l, r=r)
        if l.shape != (4,) or r.shape != (4,):
            raise ValueError(f"group generators are quaternions of 4 numbers, got shapes "
                             f"{l.shape} and {r.shape}")
        if abs(l[0]) > 1e-12 or abs(r[0]) > 1e-12:
            raise ValueError("group generators must be pure imaginary quaternions")
        object.__setattr__(self, "l", l)
        object.__setattr__(self, "r", r)
        # column j is l e_j - e_j r: both products are linear maps of R^4
        object.__setattr__(self, "A", (quat.qmul(l, np.eye(4)) - quat.qmul(np.eye(4), r)).T)

    def length_range(self):
        # |l x - x r| = |l - x r x̄|, and x r x̄ runs over every pure
        # quaternion of length |r|
        a, b = self.space.scale * np.linalg.norm([self.l, self.r], axis=1)
        return float(abs(a - b)), float(a + b)

    def __add__(self, other):
        return GroupKilling(self.space, self.l + other.l, self.r + other.r)

    def scaled(self, c):
        return GroupKilling(self.space, c * self.l, c * self.r)

    def to_config(self):
        cfg = {"type": "group-pair", "l": self.l.tolist(), "r": self.r.tolist()}
        if not self.r.any():
            cfg = {"type": "group-left", "l": self.l.tolist()}
        elif not self.l.any():
            cfg = {"type": "group-right", "r": self.r.tolist()}
        return cfg


@dataclass(frozen=True)
class ProductKilling(KillingField):
    space: Product
    parts: tuple

    def evaluate(self, x):
        xs = self.space.split(x)
        return _concat_parts([p.evaluate(xf) for p, xf in zip(self.parts, xs)])

    def flow(self, x, t):
        xs = self.space.split(x)
        return _concat_parts([p.flow(xf, t) for p, xf in zip(self.parts, xs)])

    def length_range(self):
        lo, hi = np.array([p.length_range() for p in self.parts]).T
        return float(np.linalg.norm(lo)), float(np.linalg.norm(hi))

    def __add__(self, other):
        return ProductKilling(self.space, tuple(a + b for a, b in zip(self.parts, other.parts)))

    def scaled(self, c):
        return ProductKilling(self.space, tuple(p.scaled(c) for p in self.parts))

    def to_config(self):
        return [dict(p.to_config(), factor=i) for i, p in enumerate(self.parts)]


def zero_field(space) -> KillingField:
    if isinstance(space, Euclidean):
        return EuclideanKilling(space, np.zeros(space.n))
    if isinstance(space, Sphere):
        return SphereKilling(space, np.zeros((space.ambient_dim, space.ambient_dim)))
    if isinstance(space, CompactGroup):
        return GroupKilling(space, np.zeros(4), np.zeros(4))
    if isinstance(space, Product):
        return ProductKilling(space, tuple(zero_field(f) for f in space.factors))
    raise TypeError(f"unknown space {space!r}")


def hopf_field(space: Sphere, c: float) -> SphereKilling:
    """The wind c*J on an odd sphere; h-length c*R everywhere."""
    return SphereKilling(space, c * standard_J(space.ambient_dim // 2))


def require_constant_length(X: KillingField, error: type, claim: str) -> None:
    """Raise error unless X's `length_range()` is constant, hi - lo <=
    1e-12 * max(1, hi), on every factor of a product: the product's l2
    length would shrink a factor's spread."""
    parts = X.parts if isinstance(X, ProductKilling) else (X,)
    for i, part in enumerate(parts):
        lo, hi = part.length_range()
        if hi - lo > 1e-12 * max(1.0, hi):
            where = f" on factor {i}" if isinstance(X, ProductKilling) else ""
            raise error(f"{claim}; its h-length{where} runs over [{lo:.6g}, {hi:.6g}]")


# ---------------------------------------------------------------------------
# constant-length families commuting with the wind
# ---------------------------------------------------------------------------


def _involution_swapping(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Hermitian involution S with S a = b, S b = a for unit complex
    vectors: the reflection I - 2nn* along n = (a - b)/|a - b|."""
    eye = np.eye(a.shape[0], dtype=complex)
    d = a - b
    nd = np.linalg.norm(d)
    if nd < 1e-12:
        return eye
    n = d / nd
    return eye - 2.0 * np.outer(n, n.conj())


@dataclass(frozen=True)
class SphereFamily:
    """Fields c' * Q to_real_matrix(i S) Q^T, S a Hermitian involution:
    rotations of constant length commuting with Q J Q^T, and hence with
    the wind c * Q J Q^T (Q orthogonal; Q = I for the Hopf wind c*J)."""

    space: Sphere
    Q: np.ndarray

    def match(self, x, v) -> SphereKilling:
        """The member X with X(x) = v exactly; h-length |v| everywhere."""
        Q = self.Q
        # match the standard family at Q^T x, then conjugate back
        x = np.asarray(x, dtype=float) @ Q
        v = np.asarray(v, dtype=float) @ Q
        R = self.space.radius
        speed = float(np.linalg.norm(v))
        if speed < 1e-300:
            return zero_field(self.space)
        a = to_complex(x) / R
        b = -1j * to_complex(v) / speed
        S = _involution_swapping(a, b)
        M = to_real_matrix(1j * S)
        return SphereKilling(self.space, (speed / R) * (Q @ M @ Q.T))

    def random_member(self, rng, length: float) -> SphereKilling:
        k = self.space.ambient_dim // 2
        g = rng.normal(size=(k, k)) + 1j * rng.normal(size=(k, k))
        U, _ = np.linalg.qr(g)
        rank = int(rng.integers(0, k + 1))
        P = U[:, :rank] @ U[:, :rank].conj().T
        S = 2.0 * P - np.eye(k, dtype=complex)
        M = self.Q @ to_real_matrix(1j * S) @ self.Q.T
        return SphereKilling(self.space, (length / self.space.radius) * M)


@dataclass(frozen=True)
class EuclideanFamily:
    space: Euclidean

    def match(self, x, v) -> EuclideanKilling:
        return EuclideanKilling(self.space, np.asarray(v, dtype=float))

    def random_member(self, rng, length: float) -> EuclideanKilling:
        g = rng.normal(size=self.space.n)
        return EuclideanKilling(self.space, length * g / np.linalg.norm(g))


@dataclass(frozen=True)
class GroupFamily:
    """Translation fields on one side only, the side opposite the wind, so that
    every member commutes with the wind generator."""

    space: CompactGroup
    side: str  # "left" or "right" -- the side the MEMBERS act on

    def match(self, x, v) -> GroupKilling:
        x = np.asarray(x, dtype=float)
        v = np.asarray(v, dtype=float)
        if self.side == "right":
            r = -quat.qmul(quat.qconj(x), v)
            r[0] = 0.0
            return GroupKilling(self.space, np.zeros(4), r)
        l = quat.qmul(v, quat.qconj(x))
        l[0] = 0.0
        return GroupKilling(self.space, l, np.zeros(4))

    def random_member(self, rng, length: float) -> GroupKilling:
        g = rng.normal(size=3)
        a = np.r_[0.0, length / self.space.scale * g / np.linalg.norm(g)]
        if self.side == "right":
            return GroupKilling(self.space, np.zeros(4), a)
        return GroupKilling(self.space, a, np.zeros(4))


@dataclass(frozen=True)
class ProductFamily:
    space: Product
    parts: tuple

    def match(self, x, v) -> ProductKilling:
        xs = self.space.split(x)
        vs = self.space.split(v)
        return ProductKilling(self.space, tuple(p.match(xf, vf) for p, xf, vf in zip(self.parts, xs, vs)))

    def random_member(self, rng, length: float) -> ProductKilling:
        w = rng.normal(size=len(self.parts))
        w = np.abs(w) / np.linalg.norm(w)
        return ProductKilling(self.space, tuple(p.random_member(rng, length * wi)
                                                for p, wi in zip(self.parts, w)))


def constant_length_family(nav):
    """Family of constant-length Killing fields commuting with nav's wind;
    componentwise on products.

    The one test of a supported wind is `require_constant_length`.
    Everything else follows from it -- a two-sided group wind has
    min < max, and on spheres constant length means A = c * Q J Q^T
    (Berestovskii-Nikonorov), whose family `_family` builds by
    conjugation.
    """
    require_constant_length(nav.wind, UnsupportedWind, "a supported wind has constant length")
    return _family(nav.space, nav.wind)


def _complex_frame(A: np.ndarray) -> np.ndarray:
    """An orthogonal Q with A = +-c * Q J Q^T, for a generator of constant
    length c * Q' J Q'^T, so that -A^2 = c^2 I; Q = I for A = 0 and, bit
    for bit, for A = +-c * J.

    J_A = +-A / c with c = |A e_1| is an orthogonal complex structure.
    Walk e_1, ..., e_d: project each off the columns chosen so far, and if
    at least 1/sqrt(d) of it is left, normalise that to u and append u and
    J_A u. The columns' span stays J_A-invariant, so J_A u is orthogonal to
    it and to u. The frame always completes: were it short by m >= 2
    columns, the d squared remainders against the final span would sum to
    m, yet each is below 1/d.
    """
    d = len(A)
    c = np.linalg.norm(A[:, 0])  # sqrt(c^2) = |c| exactly for A = +-c * J
    if c == 0.0:
        return np.eye(d)
    JA = A / c if A[1, 0] >= 0 else A / -c  # J_A = J for A = +-c * J
    Q = np.zeros((d, d))
    k = 0
    for j, e in enumerate(np.eye(d)):
        r = e - Q[:, :k] @ Q[j, :k]
        nrm = np.linalg.norm(r)
        if nrm >= 1.0 / np.sqrt(d):
            Q[:, k] = r / nrm
            Q[:, k + 1] = JA @ Q[:, k]
            k += 2
    return Q


def _family(space, W):
    if isinstance(space, Product):
        return ProductFamily(space, tuple(_family(f, p) for f, p in zip(space.factors, W.parts)))
    if isinstance(space, Euclidean):
        return EuclideanFamily(space)
    if isinstance(space, Sphere):
        return SphereFamily(space, _complex_frame(W.A))
    if isinstance(space, CompactGroup):
        # members live on the side opposite the wind (both sides work for W=0)
        return GroupFamily(space, "left" if W.r.any() else "right")
    raise TypeError(f"unknown space {space!r}")


# ---------------------------------------------------------------------------
# JSON field specs
# ---------------------------------------------------------------------------


def killing_from_config(space, cfg) -> KillingField:
    """Build a field from a JSON object such as {"type": "hopf", "c": 0.3};
    products take one such object or a list of them, each carrying a
    "factor" index (missing factors are zero)."""
    if isinstance(space, Product):
        parts = [zero_field(f) for f in space.factors]
        entries = cfg if isinstance(cfg, list) else [cfg]
        for entry in entries:
            if not isinstance(entry, dict):
                raise ValueError(f'a product field is a JSON object with a "type" and a '
                                 f'"factor", or a list of them, got {entry!r}')
            i = json_number(entry, "factor", 0, integer=True)
            if not 0 <= i < len(parts):
                raise ValueError(f"factor {i} out of range: this product has factors "
                                 f"0-{len(parts) - 1}")
            parts[i] = killing_from_config(space.factors[i], entry)
        return ProductKilling(space, tuple(parts))
    if not isinstance(cfg, dict):
        raise ValueError(f'a field on {type(space).__name__} is one JSON object with a '
                         f'"type", got {cfg!r}')
    t = cfg.get("type")
    if t == "zero":
        return zero_field(space)
    if t == "hopf":
        return hopf_field(space, json_number(cfg, "c"))
    if t == "sphere-skew":
        return SphereKilling(space, json_array(cfg.get("matrix"), '"matrix"', 2))
    if t == "euclidean-const":
        return EuclideanKilling(space, json_array(cfg.get("v"), '"v"', 1))
    if t == "group-left":
        return GroupKilling(space, json_array(cfg.get("l"), '"l"', 1), np.zeros(4))
    if t == "group-right":
        return GroupKilling(space, np.zeros(4), json_array(cfg.get("r"), '"r"', 1))
    if t == "group-pair":
        return GroupKilling(space, json_array(cfg.get("l"), '"l"', 1),
                            json_array(cfg.get("r"), '"r"', 1))
    raise ValueError(f"unknown field spec {cfg!r}")
