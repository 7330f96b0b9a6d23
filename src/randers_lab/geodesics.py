"""F-geodesics and the asymmetric distance of a Randers space whose wind
is a constant-length Killing field.

Two independent geodesic routes are kept deliberately separate:

* `f_geodesic_flowcurve` -- the structural route: match a constant-length
  Killing field X with (X+W)(x) = y and follow its exact flow.
* `f_geodesic_ode` -- a plain Euler-Lagrange integrator for F^2/2 in
  moving geodesic-normal charts, knowing nothing about Killing fields.

`f_distance` realizes the navigation description of the distance: the
smallest root of g(t) = d_h(x, phi_{W;-t}(y)) - t. Since d_h is
1-Lipschitz and the target moves with h-speed ||W|| < 1, g is strictly
decreasing, so the root is unique and [0, d_h(x, y)/(1 - ||W||)] brackets
it, with ||W|| the exact maximum from `wind.length_range()`; bisection
starts on that interval directly, its end padded by 1e-5 relative.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .killing import constant_length_family
from .randers import NavigationData, mixed_second_differences
from .spaces import frame as h_frame


# bisection stops at a bracket this wide; pairs this close in h are at distance 0
_TOL = 1e-10


class NoMatchingField(RuntimeError):
    pass


class RootNotBracketed(RuntimeError):
    pass


@dataclass(frozen=True)
class GeodesicCurve:
    ts: np.ndarray
    points: np.ndarray  # (len(ts), ambient_dim)
    kind: str  # "flow" | "ode"
    diverged: bool = False

    def __len__(self):
        return len(self.ts)


def f_geodesic_flowcurve(nav: NavigationData, x, y, T: float = 1.0,
                         n_steps: int = 200) -> GeodesicCurve:
    """Geodesic t -> phi_{X+W;t}(x) with (X+W)(x) = y, F(y) = 1.

    X is matched from the constant-length family (exact, residual
    checked); the curve has unit F-speed, so F-arc-length on [0,t] is t.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    Fy = float(nav.finsler_norm(x, y))
    if not np.isclose(Fy, 1.0, atol=1e-8):
        raise NoMatchingField(f"direction must be F-unit, got F(y) = {Fy:.6e}")
    family = constant_length_family(nav)
    Wx = nav.wind.evaluate(x)
    X = family.match(x, y - Wx)
    resid = np.linalg.norm(X.evaluate(x) + Wx - y)
    if resid > 1e-8:
        raise NoMatchingField(f"family match residual {resid:.3e}")
    Y = X + nav.wind
    ts = np.linspace(0.0, T, n_steps + 1)
    pts = Y.flow(np.broadcast_to(x, (len(ts), x.shape[-1])), ts)
    return GeodesicCurve(ts=ts, points=pts, kind="flow")


# ---------------------------------------------------------------------------
# Euler-Lagrange integrator in moving charts
# ---------------------------------------------------------------------------


def _chart_rhs(nav, p, B, xi, c, fd: float):
    """Acceleration xi'' from the Euler-Lagrange equations of L = F^2/2
    in the chart Phi(xi) = h_exp(p, xi @ B), all derivatives by central
    finite differences evaluated in one batched norm call."""
    dim = len(B)
    space = nav.space
    # offsets of z = (xi, c): first differences in xi, then the mixed
    # second differences of the metric block d2L/dc2 and of d2L/dc dxi
    pos, vel = np.arange(dim), dim + np.arange(dim)
    mixed, combine = mixed_second_differences(2 * dim, [(vel, vel), (vel, pos)], fd)
    first = fd * np.eye(dim, 2 * dim)
    Z = np.concatenate([np.stack([first, -first], axis=1).reshape(-1, 2 * dim), mixed])
    xis, cs = xi + Z[:, :dim], c + Z[:, dim:]

    pb = np.broadcast_to(p, xis.shape[:-1] + p.shape)
    base = space.h_exp(pb, xis @ B)
    # velocities through the analytic chart differential — finite
    # differences here would feed rounding noise into the second-order
    # stencils below, where /fd^2 blows it up
    dphi = space.h_dexp(pb, xis @ B, cs @ B)
    L = 0.5 * nav.finsler_norm(base, dphi) ** 2

    dL_dxi = (L[0:2 * dim:2] - L[1:2 * dim:2]) / (2 * fd)
    M, C = combine(L[2 * dim:])  # C[i, k] = d2L / dc_i dxi_k
    M = 0.5 * (M + M.T)
    return np.linalg.solve(M, dL_dxi - C @ c)


def f_geodesic_ode(nav: NavigationData, x, y, T: float = 1.0,
                   step: float = 1e-3) -> GeodesicCurve:
    """Fixed-step RK4 on the Euler-Lagrange system of F^2/2.

    The chart is re-centered at the current point after every step, so
    xi stays near 0 and the h_exp chart stays well-conditioned. The
    curve is flagged diverged when the F-speed (a first integral)
    drifts by more than 1e-6 relative.
    """
    space = nav.space
    p = np.asarray(x, dtype=float)
    v = np.asarray(y, dtype=float)
    n_steps = int(round(T / step))
    ts = np.linspace(0.0, T, n_steps + 1)
    pts = [p.copy()]
    # fourth root of machine epsilon: balances truncation against
    # round-off in the second-difference stencils
    fd = 1e-4
    speed0 = float(nav.finsler_norm(p, v))
    speed_drift = 0.0

    for _ in range(n_steps):
        B = h_frame(space, p)
        # chart coordinates at the step start: xi = 0, c = v in the h-orthonormal frame B
        c = space.h_inner(p, B, v)
        xi = np.zeros(len(B))

        def acc(xi_, c_):
            return _chart_rhs(nav, p, B, xi_, c_, fd)

        k1x, k1c = c, acc(xi, c)
        k2x, k2c = c + 0.5 * step * k1c, acc(xi + 0.5 * step * k1x, c + 0.5 * step * k1c)
        k3x, k3c = c + 0.5 * step * k2c, acc(xi + 0.5 * step * k2x, c + 0.5 * step * k2c)
        k4x, k4c = c + step * k3c, acc(xi + step * k3x, c + step * k3c)
        xi_new = xi + (step / 6.0) * (k1x + 2 * k2x + 2 * k3x + k4x)
        c_new = c + (step / 6.0) * (k1c + 2 * k2c + 2 * k3c + k4c)

        # push the state back to the manifold and re-center the chart
        p_new = space.h_exp(p, xi_new @ B)
        v_new = space.tangent_project(p_new, space.h_dexp(p, xi_new @ B, c_new @ B))
        p, v = p_new, v_new
        pts.append(p.copy())
        speed_drift = max(speed_drift, abs(float(nav.finsler_norm(p, v)) - speed0))

    diverged = speed_drift > 1e-6 * max(speed0, 1.0)
    return GeodesicCurve(ts=ts, points=np.array(pts), kind="ode", diverged=diverged)


# ---------------------------------------------------------------------------
# distance
# ---------------------------------------------------------------------------


def f_distance_batch(nav: NavigationData, xs, ys) -> np.ndarray:
    """Vectorized f_distance over row-aligned point arrays."""
    space = nav.space
    xs = np.atleast_2d(np.asarray(xs, dtype=float))
    ys = np.atleast_2d(np.asarray(ys, dtype=float))
    m = len(xs)
    wmax = nav.wind.length_range()[1]
    g0 = np.asarray(space.h_distance(xs, ys), dtype=float)
    out = np.zeros(m)
    active = g0 > _TOL
    if not np.any(active):
        return out
    rows = np.flatnonzero(active)
    xa, ya = xs[rows], ys[rows]
    lo = np.zeros(rows.size)
    # g falls by at least (1 - |W|) per unit t, so the relative pad puts
    # g(hi) at least 1e-5 * g0 below 0. Without it, hi is the root itself
    # when the wind pulls y straight along the geodesic, and h_distance's
    # rounding near the cut locus (about sqrt(eps) * R) can lift g(hi)
    # above the check's 1e-9.
    hi = g0[rows] * (1.0 + 1e-5) / (1.0 - wmax) + 1e-12

    def g_of(t):
        return space.h_distance(xa, nav.wind.flow(ya, -t)) - t

    # g is strictly decreasing, so g(hi) <= 0 brackets the root; a
    # length_range that under-reports the wind breaks that (a NaN fails
    # the check too)
    chk = g_of(hi)
    if not np.all(chk <= 1e-9):
        raise RootNotBracketed(f"g(hi) = {np.max(chk):.3e} > 0; does length_range "
                               "under-report the wind?")
    for _ in range(200):
        if np.max(hi - lo) < _TOL:
            break
        mid = 0.5 * (lo + hi)
        pos = g_of(mid) > 0.0
        lo = np.where(pos, mid, lo)
        hi = np.where(pos, hi, mid)
    out[rows] = 0.5 * (lo + hi)
    return out


def f_distance(nav: NavigationData, x, y) -> float:
    """Asymmetric Randers distance d_F(x, y); smallest root of
    d_h(x, phi_{W;-t}(y)) = t."""
    return float(f_distance_batch(nav, np.asarray(x)[None, :], np.asarray(y)[None, :])[0])
