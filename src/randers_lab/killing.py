"""Killing fields on the model spaces: exact flows, brackets, the
constant-length rule, and the commuting constant-length families.

Generators are stored exactly (skew matrix / algebra pair / constant
vector / tuple) and flows are evaluated by matrix or quaternion
exponentials. `flow(x, t)` broadcasts over a batch of points with a
per-point time array, which the distance code relies on.
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

from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.linalg

from . import quat
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

    def __rmul__(self, c):
        return self.scaled(float(c))

    def __sub__(self, other):
        return self + other.scaled(-1.0)


def _as_times(t, x):
    """Broadcast t against the batch shape of x."""
    t = np.asarray(t, dtype=float)
    x = np.asarray(x, dtype=float)
    return np.broadcast_to(t, x.shape[:-1]) if x.ndim > 1 else t


@dataclass(frozen=True)
class EuclideanKilling(KillingField):
    """Constant translation field v (the constant-length class on E^n)."""

    space: Euclidean
    v: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.v, dtype=float)
        if v.shape != (self.space.n,):
            raise ValueError(f"a translation on E^{self.space.n} is a vector of "
                             f"{self.space.n} numbers, got shape {v.shape}")
        object.__setattr__(self, "v", v)

    def evaluate(self, x):
        x = np.asarray(x, dtype=float)
        return np.broadcast_to(self.v, x.shape).copy()

    def flow(self, x, t):
        t = _as_times(t, x)
        return np.asarray(x, dtype=float) + t[..., None] * self.v

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
    """Rotation field x -> A x with A skew."""

    space: Sphere
    A: np.ndarray

    def __post_init__(self):
        A = np.asarray(self.A, dtype=float)
        d = self.space.ambient_dim
        if A.shape != (d, d):
            raise ValueError(f"a generator on S^{self.space.dim} is a {d}x{d} matrix, "
                             f"got shape {A.shape}")
        if np.max(np.abs(A + A.T)) > 1e-12:
            raise ValueError("sphere generator must be skew-symmetric")
        object.__setattr__(self, "A", A)

    @cached_property
    def _eig(self):
        # complex Schur of a normal matrix is diagonal: A = Z diag(lam) Z^H
        T, Z = scipy.linalg.schur(self.A, output="complex")
        return np.diag(T).copy(), Z

    def evaluate(self, x):
        return np.asarray(x, dtype=float) @ self.A.T

    def flow(self, x, t):
        x = np.asarray(x, dtype=float)
        t = _as_times(t, x)
        lam, Z = self._eig
        c = x @ Z.conj()
        e = np.exp(np.multiply.outer(t, lam))
        # contiguous: numpy's sums over a strided real part can round
        # differently from those over a copy of the same values
        return np.ascontiguousarray(np.real((c * e) @ Z.T))

    def length_range(self):
        # R times the extreme singular values of A, |eigenvalues| as A is normal
        s = self.space.radius * np.abs(self._eig[0])
        return float(s.min()), float(s.max())

    def __add__(self, other):
        return SphereKilling(self.space, self.A + other.A)

    def scaled(self, c):
        return SphereKilling(self.space, c * self.A)

    def to_config(self):
        return {"type": "sphere-skew", "matrix": self.A.tolist()}


@dataclass(frozen=True)
class GroupKilling(KillingField):
    """x -> l*x - x*r with l, r pure imaginary quaternions; flow
    x -> exp(t l) * x * exp(-t r)."""

    space: CompactGroup
    l: np.ndarray
    r: np.ndarray

    def __post_init__(self):
        l = np.asarray(self.l, dtype=float)
        r = np.asarray(self.r, dtype=float)
        if l.shape != (4,) or r.shape != (4,):
            raise ValueError(f"group generators are quaternions of 4 numbers, got shapes "
                             f"{l.shape} and {r.shape}")
        if abs(l[0]) > 1e-12 or abs(r[0]) > 1e-12:
            raise ValueError("group generators must be pure imaginary quaternions")
        object.__setattr__(self, "l", l)
        object.__setattr__(self, "r", r)

    def evaluate(self, x):
        x = np.asarray(x, dtype=float)
        return quat.qmul(self.l, x) - quat.qmul(x, self.r)

    def flow(self, x, t):
        x = np.asarray(x, dtype=float)
        t = _as_times(t, x)
        el = quat.qexp_pure(np.multiply.outer(t, self.l[1:]))
        er = quat.qexp_pure(np.multiply.outer(t, -self.r[1:]))
        return quat.qmul(quat.qmul(el, x), er)

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


def commutator(X: KillingField, Y: KillingField) -> KillingField:
    """Lie bracket [X, Y] as a closed-form field.

    Sign convention: for matrix fields x -> Ax, x -> Bx the bracket is
    x -> (BA - AB)x (pinned by a finite-difference test, not by fiat).
    """
    if isinstance(X, SphereKilling) and isinstance(Y, SphereKilling):
        A, B = X.A, Y.A
        return SphereKilling(X.space, B @ A - A @ B)
    if isinstance(X, EuclideanKilling) and isinstance(Y, EuclideanKilling):
        return EuclideanKilling(X.space, np.zeros_like(X.v))
    if isinstance(X, GroupKilling) and isinstance(Y, GroupKilling):
        l = quat.qmul(Y.l, X.l) - quat.qmul(X.l, Y.l)
        r = quat.qmul(Y.r, X.r) - quat.qmul(X.r, Y.r)
        return GroupKilling(X.space, l, r)
    if isinstance(X, ProductKilling) and isinstance(Y, ProductKilling):
        return ProductKilling(X.space, tuple(commutator(a, b) for a, b in zip(X.parts, Y.parts)))
    raise TypeError("commutator needs two fields of the same kind")


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

    def random_member(self, rng, length: float = 1.0) -> SphereKilling:
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

    def random_member(self, rng, length: float = 1.0) -> EuclideanKilling:
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

    def random_member(self, rng, length: float = 1.0) -> GroupKilling:
        g = rng.normal(size=3)
        a = quat.pure(length / self.space.scale * g / np.linalg.norm(g))
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

    def random_member(self, rng, length: float = 1.0) -> ProductKilling:
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


def _family(space, W):
    if isinstance(space, Product):
        return ProductFamily(space, tuple(_family(f, p) for f, p in zip(space.factors, W.parts)))
    if isinstance(space, Euclidean):
        return EuclideanFamily(space)
    if isinstance(space, Sphere):
        # real Schur form A = Q T Q^T, T's 2x2 blocks each +-c * [[0, -1], [1, 0]];
        # negating column 2i+1 of Q flips block i's sign, so that A = +-c * Q J Q^T
        T, Q = scipy.linalg.schur(W.A, output="real")
        signs = np.sign(np.diag(T[0::2, 1::2]))
        Q[:, 1::2] *= np.where(signs == signs[0], 1.0, -1.0)
        return SphereFamily(space, Q)
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
            i = int(entry.get("factor", 0))
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
        return hopf_field(space, float(cfg["c"]))
    if t == "sphere-skew":
        return SphereKilling(space, np.asarray(cfg["matrix"], dtype=float))
    if t == "euclidean-const":
        return EuclideanKilling(space, np.asarray(cfg["v"], dtype=float))
    if t == "group-left":
        return GroupKilling(space, np.asarray(cfg["l"], dtype=float), np.zeros(4))
    if t == "group-right":
        return GroupKilling(space, np.zeros(4), np.asarray(cfg["r"], dtype=float))
    if t == "group-pair":
        return GroupKilling(space, np.asarray(cfg["l"], dtype=float),
                            np.asarray(cfg["r"], dtype=float))
    raise ValueError(f"unknown field spec {cfg!r}")
