"""The acceptance suite: nine numbered criteria, each a function that
returns a verdict dict. Both the pytest acceptance tests and the CLI
`selftest` subcommand run these, so there is exactly one source of
truth for pass/fail.
"""
from __future__ import annotations

import time

import numpy as np

from .cw import cw_connect, cw_displacement_check, direction_exhaustion_check
from .geodesics import f_distance_batch
from .killing import (
    EuclideanKilling,
    GroupKilling,
    ProductKilling,
    SphereKilling,
    constant_length_family,
    hopf_field,
)
from .oracle import build_graph, oracle_distance_pairs
from .randers import (
    NavigationData,
    defining_to_nav_matrices,
    from_navigation,
    fundamental_tensor,
    nav_to_defining_matrices,
    riemannian,
    to_navigation,
)
from .spaces import CompactGroup, Euclidean, Product, Sphere, random_tangent


def fixture_navs() -> dict:
    """The four standing fixtures used across the criteria."""
    e2 = Euclidean(2)
    s3 = Sphere(3, 1.0)
    su2 = CompactGroup("SU2", 1.0)
    prod = Product((Sphere(3, 1.0), Euclidean(2)))
    return {
        "euclidean": NavigationData(e2, EuclideanKilling(e2, [0.5, 0.0])),
        "sphere-hopf": NavigationData(s3, hopf_field(s3, 0.3)),
        "su2-left": NavigationData(su2, GroupKilling(su2, [0.0, 0.3, 0.0, 0.0], np.zeros(4))),
        "product": NavigationData(
            prod,
            ProductKilling(prod, (hopf_field(prod.factors[0], 0.3),
                                  EuclideanKilling(prod.factors[1], [0.3, 0.0])))),
    }


def _random_spd(rng, d):
    q, _ = np.linalg.qr(rng.normal(size=(d, d)))
    eig = np.exp(rng.uniform(-0.8, 0.8, size=d))
    return q @ np.diag(eig) @ q.T


def criterion_1() -> dict:
    """Conversion round trip + exact Euclidean fixture."""
    rng = np.random.default_rng(1)
    worst = 0.0
    for d in (2, 3, 3, 5):  # matrix dims of the four model spaces
        for _ in range(200):
            h = _random_spd(rng, d)
            w = rng.normal(size=d)
            w *= rng.uniform(0.0, 0.95) / np.sqrt(w @ h @ w)
            a, b = nav_to_defining_matrices(h, w)
            h2, w2 = defining_to_nav_matrices(a, b)
            worst = max(worst, float(np.max(np.abs(h2 - h))), float(np.max(np.abs(w2 - w))))
    a, b = nav_to_defining_matrices(np.eye(2), np.array([0.5, 0.0]))
    fix = max(
        float(np.max(np.abs(a - np.array([[16.0 / 9.0, 0.0], [0.0, 4.0 / 3.0]])))),
        float(np.max(np.abs(b - np.array([-2.0 / 3.0, 0.0])))),
    )
    # manifold-level wrappers round-trip as well
    nav_err = 0.0
    for nav in fixture_navs().values():
        xs = nav.space.sample(np.random.default_rng(2), 5)
        for x in xs:
            df = from_navigation(nav, x)
            h2, wc, wamb = to_navigation(df)
            nav_err = max(nav_err, float(np.max(np.abs(h2 - np.eye(len(h2))))),
                          float(np.max(np.abs(wamb - nav.wind.evaluate(x)))))
    passed = worst < 1e-10 and fix < 1e-14 and nav_err < 1e-10
    return {"criterion": 1, "name": "conversion round trip", "passed": bool(passed),
            "details": {"roundtrip_max_err": worst, "fixture_err": fix,
                        "manifold_roundtrip_err": nav_err}}


def criterion_2() -> dict:
    """Norm fixtures and the indicatrix identity F(W+u) = 1."""
    navs = fixture_navs()
    nav_e = navs["euclidean"]
    x0 = np.zeros(2)
    fixtures = {
        "F((1,0))": (float(nav_e.finsler_norm(x0, [1.0, 0.0])), 2.0 / 3.0),
        "F((-1,0))": (float(nav_e.finsler_norm(x0, [-1.0, 0.0])), 2.0),
        "F(W)": (float(nav_e.finsler_norm(x0, [0.5, 0.0])), 1.0 / 3.0),
    }
    fix_err = max(abs(got - want) for got, want in fixtures.values())
    worst_ind = 0.0
    for name, nav in navs.items():
        rng = np.random.default_rng(3)
        xs = nav.space.sample(rng, 500)
        us = random_tangent(nav.space, rng, xs)
        W = nav.wind.evaluate(xs)
        F = nav.finsler_norm(xs, W + us)
        worst_ind = max(worst_ind, float(np.max(np.abs(F - 1.0))))
    passed = fix_err < 1e-14 and worst_ind < 1e-12
    return {"criterion": 2, "name": "norm fixtures + indicatrix", "passed": bool(passed),
            "details": {"fixture_err": fix_err, "indicatrix_max_dev": worst_ind,
                        "fixtures": {k: v[0] for k, v in fixtures.items()}}}


def criterion_3() -> dict:
    """Fundamental tensor: positive definite up to ||W|| = 0.9; g = h at W=0."""
    rng = np.random.default_rng(4)
    min_eig = np.inf
    count = 0
    specs = [("e", Euclidean(2)), ("s", Sphere(3, 1.0)), ("g", CompactGroup("SU2", 1.0))]
    while count < 500:
        kind, space = specs[count % 3]
        strength = rng.uniform(0.0, 0.9)
        if kind == "e":
            w = rng.normal(size=2)
            wind = EuclideanKilling(space, strength * w / np.linalg.norm(w))
        elif kind == "s":
            wind = hopf_field(space, strength * rng.choice([-1.0, 1.0]))
        else:
            a = rng.normal(size=3)
            a = strength * a / np.linalg.norm(a)
            wind = GroupKilling(space, np.concatenate([[0.0], a]), np.zeros(4))
        nav = NavigationData(space, wind)
        x = space.sample(rng, 1)[0]
        y = random_tangent(space, rng, x) * rng.uniform(0.2, 3.0)
        g = fundamental_tensor(nav, x, y).g
        min_eig = min(min_eig, float(np.min(np.linalg.eigvalsh(g))))
        count += 1
    gh_err = 0.0
    for _, space in specs:
        nav0 = riemannian(space)
        for x in space.sample(rng, 20):
            y = random_tangent(space, rng, x)
            g = fundamental_tensor(nav0, x, y).g
            gh_err = max(gh_err, float(np.max(np.abs(g - np.eye(len(g))))))
    passed = min_eig > 0 and gh_err < 1e-6
    return {"criterion": 3, "name": "fundamental tensor PD / g=h at W=0",
            "passed": bool(passed),
            "details": {"min_eigenvalue": min_eig, "g_minus_h_max": gh_err}}


def criterion_4() -> dict:
    """Flow identity phi_{X+W;t} = phi_{X;t} o phi_{W;t} on S^3 and SU(2)."""
    navs = fixture_navs()
    worst = 0.0
    for key in ("sphere-hopf", "su2-left"):
        nav = navs[key]
        rng = np.random.default_rng(5)
        fam = constant_length_family(nav)
        X = fam.random_member(rng, 1.0)
        W = nav.wind
        Y = X + W
        xs = nav.space.sample(rng, 100)
        for t in np.linspace(0.0, 2.0, 21):
            lhs = Y.flow(xs, t)
            rhs = X.flow(W.flow(xs, t), t)
            rhs2 = W.flow(X.flow(xs, t), t)
            worst = max(worst, float(np.max(np.abs(lhs - rhs))),
                        float(np.max(np.abs(lhs - rhs2))))
    return {"criterion": 4, "name": "flow identity", "passed": bool(worst < 1e-9),
            "details": {"max_deviation": worst}}


def criterion_5() -> dict:
    """CW displacement constancy at t=0.1 on S^3 Hopf; rotation control fails."""
    navs = fixture_navs()
    nav = navs["sphere-hopf"]
    rng = np.random.default_rng(6)
    fam = constant_length_family(nav)
    X = fam.random_member(rng, 1.0)
    rep = cw_displacement_check(nav, (X + nav.wind, 0.1), n_samples=100, tol=1e-4, seed=11)
    s3 = nav.space
    nav0 = riemannian(s3)
    blocks = np.zeros((4, 4))
    blocks[0, 1], blocks[1, 0] = -1.0, 1.0
    blocks[2, 3], blocks[3, 2] = -2.0, 2.0
    control = cw_displacement_check(nav0, (SphereKilling(s3, blocks), 0.1),
                                    n_samples=100, tol=1e-4, seed=11)
    passed = rep.is_cw and (not control.is_cw) and control.rel_spread > 0.05
    return {"criterion": 5, "name": "CW displacement constancy", "passed": bool(passed),
            "details": {"family_rel_spread": rep.rel_spread,
                        "control_rel_spread": control.rel_spread}}


def criterion_6(n_nodes: int = 20000, cache_dir=None) -> dict:
    """Distance oracle agreement on the three primitive spaces."""
    t0 = time.perf_counter()
    navs = fixture_navs()
    runs = [("euclidean", 64, 20), ("sphere-hopf", 256, 21), ("su2-left", 256, 22)]
    details = {}
    worst = 0.0
    for key, k, seed in runs:
        nav = navs[key]
        g = build_graph(nav, n_nodes, k, seed=seed, cache_dir=cache_dir)
        rng = np.random.default_rng(seed + 100)
        xs = nav.space.sample(rng, 20)
        ys = nav.space.sample(rng, 20)
        truth = f_distance_batch(nav, xs, ys)
        est = oracle_distance_pairs(g, nav, xs, ys)
        rel = np.abs(est - truth) / truth
        details[key] = {"rel_err_mean": float(np.mean(rel)), "rel_err_max": float(np.max(rel)),
                        "eps": g.eps}
        worst = max(worst, float(np.max(rel)))
        if key == "euclidean":
            fx = np.array([[0.0, 0.0], [1.0, 0.0]])
            fy = np.array([[1.0, 0.0], [0.0, 0.0]])
            fest = oracle_distance_pairs(g, nav, fx, fy)
            details["euclidean_fixtures"] = {
                "d(0,(1,0))": float(fest[0]), "d((1,0),0)": float(fest[1])}
            worst = max(worst,
                        abs(fest[0] - 2.0 / 3.0) / (2.0 / 3.0),
                        abs(fest[1] - 2.0) / 2.0)
    # the time bound is part of the verdict; the time itself is not
    # reported, so the result stays deterministic
    passed = worst < 0.03 and time.perf_counter() - t0 < 300.0
    return {"criterion": 6, "name": "distance oracle agreement", "passed": bool(passed),
            "details": details}


def criterion_7() -> dict:
    """Direction exhaustion on all four fixtures."""
    navs = fixture_navs()
    details = {}
    worst = 0.0
    for i, (key, nav) in enumerate(navs.items()):
        x = nav.space.sample(np.random.default_rng(30 + i), 1)[0]
        rep = direction_exhaustion_check(nav, x, n_directions=50, tol=1e-6, seed=40 + i)
        details[key] = rep.worst_residual
        worst = max(worst, rep.worst_residual)
    return {"criterion": 7, "name": "direction exhaustion", "passed": bool(worst < 1e-6),
            "details": details}


def criterion_8() -> dict:
    """cw_connect on nearby S^3 pairs and arbitrary Euclidean pairs."""
    navs = fixture_navs()
    details = {}
    ok = True
    for key, make_pairs in (
        ("sphere-hopf", "near"),
        ("euclidean", "any"),
    ):
        nav = navs[key]
        rng = np.random.default_rng(50 if key == "sphere-hopf" else 51)
        worst_res = 0.0
        worst_spread = 0.0
        for i in range(10):
            x0 = nav.space.sample(rng, 1)[0]
            if make_pairs == "near":
                u = random_tangent(nav.space, rng, x0)
                x1 = nav.space.h_exp(x0, rng.uniform(0.05, 0.3) * u)
            else:
                x1 = nav.space.sample(rng, 1)[0]
            res = cw_connect(nav, x0, x1, tol=1e-6)
            worst_res = max(worst_res, res.residual)
            rep = cw_displacement_check(nav, (res.total, res.t), n_samples=100,
                                        tol=1e-4, seed=60 + i)
            worst_spread = max(worst_spread, rep.rel_spread)
            ok = ok and res.residual < 1e-6 and rep.is_cw
        details[key] = {"worst_residual": worst_res, "worst_rel_spread": worst_spread}
    return {"criterion": 8, "name": "CW connection", "passed": bool(ok), "details": details}


def criterion_9() -> dict:
    """Quasi-metric axioms, asymmetry with wind, symmetry without."""
    navs = fixture_navs()
    details = {}
    ok = True
    for key, nav in navs.items():
        rng = np.random.default_rng(70)
        xs = nav.space.sample(rng, 1000)
        ys = nav.space.sample(rng, 1000)
        zs = nav.space.sample(rng, 1000)
        dxy = f_distance_batch(nav, xs, ys)
        dyz = f_distance_batch(nav, ys, zs)
        dxz = f_distance_batch(nav, xs, zs)
        violation = float(np.max(dxz - (dxy + dyz)))
        self_d = float(np.max(np.abs(f_distance_batch(nav, xs[:100], xs[:100]))))
        positive = float(np.min(dxy))
        dyx = f_distance_batch(nav, ys[:100], xs[:100])
        asym = float(np.max(np.abs(dxy[:100] - dyx)))
        nav0 = riemannian(nav.space)
        d0 = f_distance_batch(nav0, xs[:100], ys[:100])
        d0r = f_distance_batch(nav0, ys[:100], xs[:100])
        sym_dev = float(np.max(np.abs(d0 - d0r)))
        details[key] = {"triangle_violation": violation, "self_distance": self_d,
                        "min_distance": positive, "max_asymmetry": asym,
                        "symmetric_dev_W0": sym_dev}
        ok = ok and violation <= 1e-9 and self_d <= 1e-9 and positive > 0 \
            and asym > 0.05 and sym_dev <= 1e-9
    return {"criterion": 9, "name": "quasi-metric axioms", "passed": bool(ok),
            "details": details}


CRITERIA = {
    1: criterion_1,
    2: criterion_2,
    3: criterion_3,
    4: criterion_4,
    5: criterion_5,
    6: criterion_6,
    7: criterion_7,
    8: criterion_8,
    9: criterion_9,
}


def run_criterion(i: int, cache_dir=None) -> dict:
    """Criterion i's verdict; only the oracle criterion uses cache_dir."""
    return CRITERIA[i](cache_dir=cache_dir) if i == 6 else CRITERIA[i]()
