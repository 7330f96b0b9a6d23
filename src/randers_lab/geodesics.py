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
it, with ||W|| the exact maximum from `wind.length_range()`; the end is
padded by 1e-5 relative. Inside that bracket a safeguarded Newton
iteration finds the root, starting at t = d_h(x, y). The derivative is
exact: with y_t = phi_{W;-t}(y), the first variation of distance along
the flow gives g'(t) = h(log_{y_t} x, W(y_t)) / d_h(x, y_t) - 1, which
lies in [-1 - ||W||, -1 + ||W||]. Every evaluation moves one end of the
bracket. Each step lands _TOL/4 past the Newton point, towards the far
end but at most half way there, so the bracket closes from both sides.
A step that leaves the bracket, or is NaN, takes the midpoint instead;
that covers the cut locus, where h_log is degenerate.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .killing import constant_length_family
from .randers import NavigationData, mixed_second_differences
from .spaces import frame as h_frame


# a row's root is the midpoint of its bracket once the bracket is this
# narrow; pairs this close in h are at distance 0
_TOL = 1e-10


class NoMatchingField(ValueError):
    pass


class RootNotBracketed(ValueError):
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
    drifts by more than 1e-6 relative. T is finite and at least 0.
    """
    if not 0.0 <= T < np.inf:
        raise ValueError(f"T must be finite and at least 0, got {T}")
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


def _slope(nav: NavigationData, x, yt, d) -> np.ndarray:
    """g'(t) for g(t) = d_h(x, y_t) - t, y_t = phi_{W;-t}(y) and d =
    d_h(x, y_t): the first variation of distance along the flow,
    h(log_{y_t} x, W(y_t)) / d - 1. A row with d = 0 gets NaN."""
    space = nav.space
    return space.h_inner(yt, space.h_log(yt, x), nav.wind.evaluate(yt)) \
        / np.where(d > 0.0, d, np.nan) - 1.0


def f_distance_batch(nav: NavigationData, xs, ys) -> np.ndarray:
    """Vectorized f_distance over row-aligned point arrays, checked by
    `NavigationData.point_pairs`: a NaN row would fail `g0 > _TOL` below
    and read as distance 0."""
    space = nav.space
    xs, ys, g0 = nav.point_pairs("f_distance", xs, ys)
    m = len(xs)
    wmax = nav.wind.length_range()[1]
    out = np.zeros(m)
    rows = np.flatnonzero(g0 > _TOL)
    if not rows.size:
        return out
    xa, ya = xs[rows], ys[rows]
    lo = np.zeros(rows.size)
    # g falls by at least (1 - |W|) per unit t, so the relative pad puts
    # g(hi) at least 1e-5 * g0 below 0. Without it, hi is the root itself
    # when the wind pulls y straight along the geodesic, and h_distance's
    # rounding near the cut locus (about sqrt(eps) * R) can lift g(hi)
    # above the check's 1e-9.
    hi = g0[rows] * (1.0 + 1e-5) / (1.0 - wmax) + 1e-12

    # g is strictly decreasing, so g(hi) <= 0 brackets the root; a
    # length_range that under-reports the wind breaks that (a NaN fails
    # the check too)
    chk = space.h_distance(xa, nav.wind.flow(ya, -hi)) - hi
    if not np.all(chk <= 1e-9):
        raise RootNotBracketed(f"g(hi) = {np.max(chk):.3e} > 0; does length_range "
                               "under-report the wind?")
    t = g0[rows]
    for _ in range(200):
        yt = nav.wind.flow(ya, -t)
        d = space.h_distance(xa, yt)
        g = d - t
        pos = g > 0.0
        lo = np.where(pos, t, lo)
        hi = np.where(pos, hi, t)
        done = hi - lo < _TOL
        if done.any():
            out[rows[done]] = 0.5 * (lo[done] + hi[done])
            keep = ~done
            rows, xa, ya, yt, d, g, pos, lo, hi, t = (
                a[keep] for a in (rows, xa, ya, yt, d, g, pos, lo, hi, t))
            if not rows.size:
                break
        newton = t - g / _slope(nav, xa, yt, d)
        # past the Newton point by _TOL/4 towards the far end of the
        # bracket, at most half way there, so the next point lands beyond
        # the root and the bracket closes from both ends; a step outside
        # (lo, hi), or NaN, takes the midpoint
        tn = newton + np.clip(0.5 * (np.where(pos, hi, lo) - newton), -0.25 * _TOL, 0.25 * _TOL)
        t = np.where((lo < tn) & (tn < hi), tn, 0.5 * (lo + hi))
    out[rows] = 0.5 * (lo + hi)
    return out


def f_distance(nav: NavigationData, x, y) -> float:
    """Asymmetric Randers distance d_F(x, y); smallest root of
    d_h(x, phi_{W;-t}(y)) = t."""
    return float(f_distance_batch(nav, np.asarray(x)[None, :], np.asarray(y)[None, :])[0])
