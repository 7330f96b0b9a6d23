"""Clifford-Wolf checks: displacement constancy of Killing flows,
small-time thresholds, direction exhaustion, and connecting point pairs
by flows of constant-length fields.

A Clifford-Wolf translation moves every point the same distance; for the
spaces here those translations arise as time-t flows of Killing fields
whose F-length is constant. The displacement checks sample `f_distance`,
so they are honest measurements; `small_time_threshold` decides constant
F-length exactly, from the generators. They use no oracle graph: the
oracle is cross-checked against `f_distance` in its own tests and in the
acceptance criteria.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geodesics import f_distance, f_distance_batch
from .killing import KillingField, constant_length_family, require_constant_length, zero_field
from .randers import NavigationData
from .spaces import random_tangent


class SearchFailed(RuntimeError):
    def __init__(self, msg, best_residual):
        super().__init__(msg)
        self.best_residual = best_residual


@dataclass(frozen=True)
class CwReport:
    description: str
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
            "n_samples": len(self.displacements),
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
            "n_directions": len(self.residuals),
            "worst_residual": self.worst_residual,
            "tol": self.tol,
            "passed": bool(self.passed),
            "residuals": [float(r) for r in self.residuals],
        }


def cw_displacement_check(nav: NavigationData, flow, n_samples: int = 100,
                          tol: float = 1e-4, seed: int = 0) -> CwReport:
    """Sample x -> d_F(x, phi_{X;t}(x)) for the pair flow = (X, t), flowed
    exactly, and report its spread. Verdict is CW iff (max - min)/mean < tol.
    """
    if n_samples < 2:
        raise ValueError(f"n_samples must be at least 2 for a spread, got {n_samples}")
    X, t = flow
    xs = nav.space.sample(np.random.default_rng(seed), n_samples)
    disp = f_distance_batch(nav, xs, X.flow(xs, float(t)))
    return CwReport(description=f"flow({type(X).__name__}, t={t})", displacements=disp, tol=tol)


def small_time_threshold(nav: NavigationData, Y: KillingField) -> float:
    """delta / L with delta the h-injectivity radius and L the constant
    F-length of Y. Exact: L = F(Y) at one point, and as the indicatrix is
    the h-unit sphere shifted by W, F(x, y) = L iff |y - L*W(x)|_h = L; so
    Y has constant F-length iff Y - L*W has constant h-length, else
    ValueError."""
    x0 = nav.space.sample(np.random.default_rng(7), 1)[0]
    L = float(nav.finsler_norm(x0, Y.evaluate(x0)))
    require_constant_length(Y + nav.wind.scaled(-L), ValueError,
                            f"a field of constant F-length L = {L:.6g} has Y - L*W of constant length")
    return np.inf if L < 1e-300 else float(nav.space.injectivity_radius / L)


def direction_exhaustion_check(nav: NavigationData, x, n_directions: int = 50,
                               tol: float = 1e-6, seed: int = 0) -> ExhaustionReport:
    """For sampled F-unit directions y at x, match a family member X with
    (X + W)(x) = y and record the angle between the matched field value
    and the target."""
    family = constant_length_family(nav)
    x = np.asarray(x, dtype=float)
    rng = np.random.default_rng(seed)
    Wx = nav.wind.evaluate(x)
    resid = []
    for _ in range(n_directions):
        u = random_tangent(nav.space, rng, x)  # h-unit
        y = Wx + u  # F(y) = 1: the indicatrix is the h-sphere shifted by W
        X = family.match(x, u)
        Yx = X.evaluate(x) + Wx
        num = nav.space.h_inner(x, Yx, y)
        den = np.sqrt(nav.space.h_inner(x, Yx, Yx) * nav.space.h_inner(x, y, y))
        resid.append(float(np.arccos(np.clip(num / den, -1.0, 1.0))))
    return ExhaustionReport(base_point=x, residuals=np.array(resid), tol=tol)


@dataclass(frozen=True)
class ConnectResult:
    member: KillingField  # X: the constant-length family member
    t: float
    residual: float
    total: KillingField  # Y = X + W, the field whose flow moves x0 to x1
    method: str


def cw_connect(nav: NavigationData, x0, x1, tol: float = 1e-6) -> ConnectResult:
    """Find (X, t) with flow(X+W, t)(x0) = x1 and displacement t =
    f_distance(x0, x1).

    Closed form: pull x1 back along the wind for time t, take the h-log,
    and match the family member through that h-geodesic direction. It is
    exact on every supported space, because constant-length Killing
    fields there have h-geodesic orbits. Points at distance 0 are joined
    by the identity, whose residual is |x1 - x0|. A residual above `tol`
    raises SearchFailed carrying that residual.
    """
    space = nav.space
    x0 = np.asarray(x0, dtype=float)
    x1 = np.asarray(x1, dtype=float)
    family = constant_length_family(nav)
    t = f_distance(nav, x0, x1)
    if t < 1e-12:
        t, X, method = 0.0, zero_field(space), "identity"
        Y = X + nav.wind
        residual = float(np.linalg.norm(x1 - x0))
    else:
        z = nav.wind.flow(x1, -t)
        # next to the antipode rounding leaves part of the h-log radial,
        # which match would drop from the member's unit length
        v = space.tangent_project(x0, space.h_log(x0, z))
        vn = float(np.sqrt(space.h_inner(x0, v, v)))  # family members are h-unit
        X = family.match(x0, v / vn) if vn > 0 else zero_field(space)
        Y = X + nav.wind
        residual = float(np.linalg.norm(Y.flow(x0, t) - x1))
        method = "closed-form"
    if not residual < tol:  # NaN fails too
        raise SearchFailed(f"cw_connect residual {residual:.3e} > tol {tol:.1e}", residual)
    return ConnectResult(member=X, t=t, residual=residual, total=Y, method=method)
