"""Clifford-Wolf checks: displacement constancy of Killing flows,
small-time thresholds, direction exhaustion, and connecting point pairs
by flows of constant-length fields.

A Clifford-Wolf translation moves every point the same distance; for the
spaces here those translations arise as time-t flows of Killing fields
whose F-length is constant. The checks below sample displacements with
`f_distance`, so they are honest measurements, not algebraic identities.
They use no oracle graph: the oracle is cross-checked against
`f_distance` in its own tests and in the acceptance criteria.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geodesics import f_distance, f_distance_batch
from .killing import KillingField, constant_length_family, length_stats, zero_field
from .randers import NavigationData
from .spaces import random_tangent


class SearchFailed(RuntimeError):
    def __init__(self, msg, best_residual):
        super().__init__(msg)
        self.best_residual = best_residual


@dataclass(frozen=True)
class CwReport:
    description: str
    n_samples: int
    displacements: np.ndarray
    tol: float

    @property
    def d_min(self) -> float:
        return float(np.min(self.displacements))

    @property
    def d_max(self) -> float:
        return float(np.max(self.displacements))

    @property
    def d_mean(self) -> float:
        return float(np.mean(self.displacements))

    @property
    def rel_spread(self) -> float:
        return (self.d_max - self.d_min) / self.d_mean if self.d_mean > 0 else 0.0

    @property
    def is_cw(self) -> bool:
        return self.rel_spread < self.tol

    def to_dict(self) -> dict:
        return {
            "description": self.description,
            "n_samples": self.n_samples,
            "min": self.d_min,
            "max": self.d_max,
            "mean": self.d_mean,
            "rel_spread": self.rel_spread,
            "tol": self.tol,
            "verdict": "CW" if self.is_cw else "not-CW",
            "samples": [float(v) for v in self.displacements],
        }


@dataclass(frozen=True)
class ExhaustionReport:
    base_point: np.ndarray
    directions: np.ndarray
    residuals: np.ndarray
    tol: float

    @property
    def worst_residual(self) -> float:
        return float(np.max(self.residuals))

    @property
    def passed(self) -> bool:
        return self.worst_residual < self.tol

    def to_dict(self) -> dict:
        return {
            "base_point": [float(v) for v in self.base_point],
            "n_directions": len(self.directions),
            "worst_residual": self.worst_residual,
            "tol": self.tol,
            "passed": bool(self.passed),
            "residuals": [float(r) for r in self.residuals],
        }


def cw_displacement_check(nav: NavigationData, isometry, n_samples: int = 100,
                          tol: float = 1e-4, seed: int = 0) -> CwReport:
    """Sample x -> d_F(x, rho(x)) and report its spread.

    `isometry` is either a pair (X, t) flowed exactly, or a plain point
    map. Verdict is CW iff (max - min)/mean < tol.
    """
    rng = np.random.default_rng(seed)
    xs = nav.space.sample(rng, n_samples)
    if isinstance(isometry, tuple):
        X, t = isometry
        images = X.flow(xs, float(t))
        desc = f"flow({type(X).__name__}, t={t})"
    else:
        images = np.array([isometry(x) for x in xs])
        desc = getattr(isometry, "__name__", "map")
    disp = f_distance_batch(nav, xs, images)
    return CwReport(description=desc, n_samples=n_samples, displacements=disp, tol=tol)


def small_time_threshold(nav: NavigationData, X: KillingField) -> float:
    """delta / L with delta the h-injectivity radius and L the constant
    F-length of X; returns inf on Euclidean space (translations are CW
    at every t)."""
    lo, hi = length_stats(nav, X, n_samples=512, seed=7)
    if hi - lo > 1e-6 * max(hi, 1e-12):
        raise ValueError(f"field has non-constant F-length: [{lo:.6g}, {hi:.6g}]")
    L = 0.5 * (lo + hi)
    if L < 1e-300:
        return np.inf
    delta = nav.space.injectivity_radius
    return float(delta / L) if np.isfinite(delta) else np.inf


def direction_exhaustion_check(nav: NavigationData, x, n_directions: int = 50,
                               tol: float = 1e-6, seed: int = 0) -> ExhaustionReport:
    """For sampled F-unit directions y at x, match a family member X with
    (X + W)(x) = y and record the angle between the matched field value
    and the target."""
    family = constant_length_family(nav)
    x = np.asarray(x, dtype=float)
    rng = np.random.default_rng(seed)
    Wx = nav.wind.evaluate(x)
    dirs = []
    resid = []
    for _ in range(n_directions):
        u = random_tangent(nav.space, rng, x)  # h-unit
        y = Wx + u  # F(y) = 1: the indicatrix is the h-sphere shifted by W
        X = family.match(x, u)
        Yx = X.evaluate(x) + Wx
        num = nav.space.h_inner(x, Yx, y)
        den = np.sqrt(nav.space.h_inner(x, Yx, Yx) * nav.space.h_inner(x, y, y))
        ang = float(np.arccos(np.clip(num / den, -1.0, 1.0)))
        dirs.append(y)
        resid.append(ang)
    return ExhaustionReport(base_point=x, directions=np.array(dirs),
                            residuals=np.array(resid), tol=tol)


@dataclass(frozen=True)
class ConnectResult:
    member: KillingField  # X: the constant-length family member
    t: float
    residual: float
    total: KillingField  # Y = X + W, the field whose flow moves x0 to x1
    method: str

    def __iter__(self):
        return iter((self.member, self.t))


def cw_connect(nav: NavigationData, x0, x1, tol: float = 1e-6) -> ConnectResult:
    """Find (X, t) with flow(X+W, t)(x0) = x1 and displacement t =
    f_distance(x0, x1).

    Closed form: pull x1 back along the wind for time t, take the h-log,
    and match the family member through that h-geodesic direction. It is
    exact on every supported space, because constant-length Killing
    fields there have h-geodesic orbits; a residual above `tol` raises
    SearchFailed carrying that residual.
    """
    space = nav.space
    x0 = np.asarray(x0, dtype=float)
    x1 = np.asarray(x1, dtype=float)
    family = constant_length_family(nav)
    t = f_distance(nav, x0, x1)
    if t < 1e-12:
        X = zero_field(space)
        return ConnectResult(member=X, t=0.0, residual=0.0,
                             total=X + nav.wind, method="identity")

    z = nav.wind.flow(x1, -t)
    v = space.h_log(x0, z)
    vn = np.linalg.norm(v)
    X = family.match(x0, v / vn) if vn > 0 else zero_field(space)
    Y = X + nav.wind
    residual = float(np.linalg.norm(Y.flow(x0, t) - x1))
    if not residual < tol:  # NaN fails too
        raise SearchFailed(f"cw_connect residual {residual:.3e} > tol {tol:.1e}", residual)
    return ConnectResult(member=X, t=t, residual=residual, total=Y,
                         method="closed-form")
