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
from .randers import NavigationData
from .spaces import frame as h_frame


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

    # assemble every (position offset, velocity) pair the stencils need
    pos, vel = [], []

    def push(dxi, dc):
        pos.append(xi + dxi)
        vel.append(c + dc)

    eye = np.eye(dim)
    # dL/dxi
    for k in range(dim):
        push(fd * eye[k], 0.0 * c)
        push(-fd * eye[k], 0.0 * c)
    # d2L/dc2 (metric block)
    for i in range(dim):
        for j in range(dim):
            for si, sj in ((1, 1), (-1, -1), (1, -1), (-1, 1)):
                push(0.0 * xi, fd * (si * eye[i] + sj * eye[j]))
    # d2L/dxi dc
    for i in range(dim):
        for k in range(dim):
            for si, sk in ((1, 1), (-1, -1), (1, -1), (-1, 1)):
                push(fd * sk * eye[k], fd * si * eye[i])

    pos = np.array(pos)
    vel = np.array(vel)
    pb = np.broadcast_to(p, pos.shape[:-1] + p.shape)
    base = space.h_exp(pb, pos @ B)
    # velocities through the analytic chart differential — finite
    # differences here would feed rounding noise into the second-order
    # stencils below, where /fd^2 blows it up
    dphi = space.h_dexp(pb, pos @ B, vel @ B)
    L = 0.5 * nav.finsler_norm(base, dphi) ** 2

    idx = 0
    dL_dxi = np.empty(dim)
    for k in range(dim):
        dL_dxi[k] = (L[idx] - L[idx + 1]) / (2 * fd)
        idx += 2
    M = np.empty((dim, dim))
    for i in range(dim):
        for j in range(dim):
            M[i, j] = (L[idx] + L[idx + 1] - L[idx + 2] - L[idx + 3]) / (4 * fd * fd)
            idx += 4
    M = 0.5 * (M + M.T)
    C = np.empty((dim, dim))  # C[i,k] = d2L / dc_i dxi_k
    for i in range(dim):
        for k in range(dim):
            C[i, k] = (L[idx] + L[idx + 1] - L[idx + 2] - L[idx + 3]) / (4 * fd * fd)
            idx += 4
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
        # chart coordinates at the step start: xi = 0, c = coefficients of v
        c = np.array([space.h_inner(p, v, f) for f in B])
        gram = np.array([[space.h_inner(p, f, g) for g in B] for f in B])
        c = np.linalg.solve(gram, c)
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


def f_distance_batch(nav: NavigationData, xs, ys, tol: float = 1e-10) -> np.ndarray:
    """Vectorized f_distance over row-aligned point arrays."""
    space = nav.space
    xs = np.atleast_2d(np.asarray(xs, dtype=float))
    ys = np.atleast_2d(np.asarray(ys, dtype=float))
    m = len(xs)
    wmax = nav.wind.length_range()[1]
    g0 = np.asarray(space.h_distance(xs, ys), dtype=float)
    out = np.zeros(m)
    active = g0 > tol
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
        if np.max(hi - lo) < tol:
            break
        mid = 0.5 * (lo + hi)
        pos = g_of(mid) > 0.0
        lo = np.where(pos, mid, lo)
        hi = np.where(pos, hi, mid)
    out[rows] = 0.5 * (lo + hi)
    return out


def f_distance(nav: NavigationData, x, y, tol: float = 1e-10) -> float:
    """Asymmetric Randers distance d_F(x, y); smallest root of
    d_h(x, phi_{W;-t}(y)) = t."""
    return float(f_distance_batch(nav, np.asarray(x)[None, :], np.asarray(y)[None, :], tol=tol)[0])
