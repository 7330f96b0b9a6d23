"""Randers metrics in navigation form (h, W) and defining form (a, b).

The navigation norm used everywhere:

    F(x, y) = (sqrt(h(y,W)^2 + lam*h(y,y)) - h(y,W)) / lam,   lam = 1 - h(W,W).

Under this formula the indicatrix {F=1} is the h-unit sphere translated
by +W, so the F-unit Killing fields assembled elsewhere are X + W with
X of h-unit length. Matrix-level conversions are frame-agnostic; the
manifold-level wrappers express tensors in the deterministic orthonormal
frame of `spaces.frame`.

`NavigationData` checks `h(W,W) < 1` when it is built, from the wind's
exact `length_range()`, and raises `WindTooStrong` otherwise.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .killing import KillingField, zero_field
from .spaces import frame as h_frame


class WindTooStrong(ValueError):
    pass


class NotRanders(ValueError):
    pass


# ---------------------------------------------------------------------------
# matrix-level conversions (pointwise, any frame)
# ---------------------------------------------------------------------------


def nav_to_defining_matrices(h: np.ndarray, W: np.ndarray):
    """(h_ij, W^i) -> (a_ij, b_i): a = h/lam + (W_cov/lam) outer (W_cov/lam),
    b = -W_cov/lam with W_cov = h W."""
    h = np.asarray(h, dtype=float)
    W = np.asarray(W, dtype=float)
    Wc = h @ W
    lam = 1.0 - W @ Wc
    if lam <= 0:
        raise WindTooStrong(f"h(W,W) = {W @ Wc:.6f} >= 1")
    a = h / lam + np.outer(Wc / lam, Wc / lam)
    b = -Wc / lam
    return a, b


def defining_to_nav_matrices(a: np.ndarray, b: np.ndarray):
    """(a_ij, b_i) -> (h_ij, W^i): h = (1-|beta|^2)(a - b outer b),
    W^i = -a^{ij} b_j / (1-|beta|^2)."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    a_inv_b = np.linalg.solve(a, b)
    beta2 = b @ a_inv_b
    if beta2 >= 1.0:
        raise NotRanders(f"|beta|_alpha^2 = {beta2:.6f} >= 1")
    mu = 1.0 - beta2
    h = mu * (a - np.outer(b, b))
    W = -a_inv_b / mu
    return h, W


# ---------------------------------------------------------------------------
# navigation data on a model space
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class NavigationData:
    space: object
    wind: KillingField

    def __post_init__(self):
        top = self.wind.length_range()[1]
        if top >= 1.0:
            raise WindTooStrong(f"wind h-length reaches {top:.6g} >= 1")

    def lam(self, x):
        W = self.wind.evaluate(x)
        return 1.0 - self.space.h_inner(x, W, W)

    def finsler_norm(self, x, y, both=False):
        """F(x, y); broadcasts over leading axes of x, y. With both=True,
        the pair (F(x, y), F(x, -y)) from one evaluation of the wind."""
        y = np.asarray(y, dtype=float)
        W = self.wind.evaluate(x)
        hyW = self.space.h_inner(x, y, W)
        hyy = self.space.h_inner(x, y, y)
        lam = 1.0 - self.space.h_inner(x, W, W)
        root = np.sqrt(hyW**2 + lam * hyy)
        if both:
            return (root - hyW) / lam, (root + hyW) / lam
        return (root - hyW) / lam

    def to_config(self) -> dict:
        return {"space": self.space.to_config(), "wind": self.wind.to_config()}


def riemannian(space) -> NavigationData:
    """The W = 0 case: F reduces to the h-norm."""
    return NavigationData(space, zero_field(space))


# ---------------------------------------------------------------------------
# defining form at a point
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DefiningForm:
    """Pointwise (a_ij, b_i) in an explicit orthonormal h-frame at x."""

    x: np.ndarray
    frame: np.ndarray  # rows = frame vectors, shape (dim, ambient_dim)
    a: np.ndarray
    b: np.ndarray

    def norm_defining(self, space, y):
        """F(y) = sqrt(a_ij y^i y^j) + b_i y^i through the defining form,
        y^i the frame coefficients of the ambient tangent y at x."""
        c = space.h_inner(self.x, self.frame, y)
        return float(np.sqrt(c @ self.a @ c) + self.b @ c)


def from_navigation(nav: NavigationData, x) -> DefiningForm:
    """Defining form of nav at x, expressed in the deterministic frame."""
    x = np.asarray(x, dtype=float)
    B = h_frame(nav.space, x)
    Wamb = nav.wind.evaluate(x)
    w = nav.space.h_inner(x, B, Wamb)
    a, b = nav_to_defining_matrices(np.eye(len(B)), w)
    return DefiningForm(x=x, frame=B, a=a, b=b)


def to_navigation(df: DefiningForm):
    """Back out (h_ij, W^i) in df's frame, plus the ambient wind vector."""
    h, Wc = defining_to_nav_matrices(df.a, df.b)
    W_ambient = Wc @ df.frame
    return h, Wc, W_ambient


# ---------------------------------------------------------------------------
# fundamental tensor
# ---------------------------------------------------------------------------


# sign pairs (a, b) of the 4-point mixed second difference, in combining order
_SIGNS = np.array([(1, 1), (-1, -1), (1, -1), (-1, 1)], dtype=float)


def mixed_second_differences(n: int, blocks, s: float):
    """Stencil of d2f/dz_i dz_j ~ (f++ + f-- - f+- - f-+) / (4 s^2) on R^n,
    f+- = f(z + s e_i - s e_j), for (i, j) in rows x cols of each (rows,
    cols) in blocks. Returns the offsets to add to z, all blocks stacked,
    and the map from f's values there to one matrix per block."""
    E = np.eye(n)
    a, b = _SIGNS.T[..., None]
    offsets = [s * (a * E[r][:, None, None] + b * E[c][None, :, None]) for r, c in blocks]

    def combine(vals):
        ends = np.cumsum([o.size // n for o in offsets])
        vs = [part.reshape(o.shape[:3]) for part, o in zip(np.split(vals, ends[:-1]), offsets)]
        return [(v[..., 0] + v[..., 1] - v[..., 2] - v[..., 3]) / (4 * s * s) for v in vs]

    return np.concatenate([o.reshape(-1, n) for o in offsets]), combine


def fundamental_tensor(nav: NavigationData, x, y) -> np.ndarray:
    """g_ij(x, y) = Hessian of F^2/2 in y, central differences in the
    orthonormal frame with a step of 1e-4 times the h-length of y."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    speed = np.sqrt(nav.space.h_inner(x, y, y))
    if speed < 1e-300:
        raise ValueError("fundamental tensor is undefined at y = 0")
    B = h_frame(nav.space, x)
    dim = len(B)
    c0 = nav.space.h_inner(x, B, y)
    s = 1e-4 * speed

    # F^2/2 at the frame-coefficient offsets, evaluated in one batch
    offsets, combine = mixed_second_differences(dim, [(np.arange(dim), np.arange(dim))], s)
    ys = (c0 + offsets) @ B
    vals = 0.5 * nav.finsler_norm(np.broadcast_to(x, ys.shape), ys) ** 2
    (g,) = combine(vals)
    return 0.5 * (g + g.T)
