"""The benchmark's four workloads.

Every workload draws its inputs from the seed alone, runs in one process
(the CLI workload adds one child process at a time), and uses only
constant-length Killing winds: there the navigation formula for d_F holds
and the oracle's never-undercut guarantee is a real check.

Each workload has a `setup` (import, fixtures, inputs; for `cli` also the
warm oracle cache) and a `run` that measures, checks every output and
returns its figures. `work_s`, the one timed end-to-end metric, is the
wall time of one pass of the workload's fixed work: on the oracle
workloads a cold build, a reload and every query batch; on `geodesic`
one `f_distance_batch` per fixture; on `cli` one call of each verb.
Repeated parts run at least their minimum count and then repeat the
same work until `seconds` have passed since the run began; with
`seconds = 0` a run does a fixed amount of work, which is what the
traced run compares. Timings are medians over
the repetitions of each unit of work: the host's speed drifts by tens of
percent over seconds to minutes, and repeating identical work spreads
each unit's samples over the whole run.
"""
from __future__ import annotations

import glob
import json
import math
import os
import resource
import subprocess
import sys
import tempfile
import time
import traceback
from contextlib import contextmanager
from pathlib import Path
from statistics import median

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


class Op:
    def __init__(self):
        self.problems = []

    def check(self, ok, msg):
        if not ok:
            self.problems.append(msg)


class Ledger:
    """Operations attempted and failed; a failure is an exception or a
    failed check, reported on stderr."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    @contextmanager
    def op(self, what):
        op = Op()
        self.attempted += 1
        try:
            yield op
        except Exception:
            op.problems.append(traceback.format_exc())
        if op.problems:
            self.failed += 1
            print(f"FAILED {what}: {'; '.join(op.problems)}", file=sys.stderr)


def repeat(seconds, minimum):
    """Iteration indices: at least `minimum`, then until `seconds` pass."""
    end = time.perf_counter() + seconds
    i = 0
    while i < minimum or time.perf_counter() < end:
        yield i
        i += 1


def _sum_median(times):
    """Sum over work units of each unit's median repetition time."""
    return sum(median(v) for v in times.values())


def fresh_dir(tmp, prefix):
    return tempfile.mkdtemp(prefix=prefix, dir=tmp)


def fixtures(ra):
    """The four standing fixtures; every wind has constant length."""
    e2 = ra.Euclidean(2)
    s3 = ra.Sphere(3, 1.0)
    su2 = ra.CompactGroup("SU2", 1.0)
    prod = ra.Product((ra.Sphere(3, 1.0), ra.Euclidean(2)))
    return {
        "euclidean": ra.NavigationData(e2, ra.EuclideanKilling(e2, np.array([0.5, 0.0]))),
        "sphere-hopf": ra.NavigationData(s3, ra.hopf_field(s3, 0.3)),
        "su2-left": ra.NavigationData(
            su2, ra.GroupKilling(su2, np.array([0.0, 0.3, 0.0, 0.0]), np.zeros(4))),
        "product": ra.NavigationData(prod, ra.ProductKilling(prod, (
            ra.hopf_field(prod.factors[0], 0.3),
            ra.EuclideanKilling(prod.factors[1], np.array([0.3, 0.0]))))),
    }


def self_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ---------------------------------------------------------------------------
# oracle-sphere, oracle-product
# ---------------------------------------------------------------------------


class OracleWorkload:
    """Cold build (cache write included), then the query pairs in batches
    with cache-hit reloads between them; every estimate is checked against
    f_distance."""

    reloads = 5
    batch = 10

    def __init__(self, fixture, n_nodes, k, pairs, rel_err_gate, builds):
        self.fixture = fixture
        self.n_nodes = n_nodes
        self.k = k
        self.pairs = pairs
        self.rel_err_gate = rel_err_gate
        self.builds = builds

    def setup(self, seed, tmp):
        import randers_lab as ra

        nav = fixtures(ra)[self.fixture]
        rng = np.random.default_rng([seed, 1])
        xs = nav.space.sample(rng, self.pairs)
        ys = nav.space.sample(rng, self.pairs)
        return {"ra": ra, "nav": nav, "xs": xs, "ys": ys, "seed": seed, "tmp": tmp}

    def run(self, st, ledger, tr, seconds):
        ra, nav, xs, ys = st["ra"], st["nav"], st["xs"], st["ys"]
        start = time.perf_counter()
        args = (nav, self.n_nodes, self.k)
        builds = []
        for _ in range(self.builds):
            cache = fresh_dir(st["tmp"], "cache-")
            kw = {"seed": st["seed"], "cache_dir": cache}
            g = None
            with ledger.op("cold build_graph") as op:
                op.check(not os.listdir(cache), "cache directory not empty before the cold build")
                with tr.phase("build"):
                    t0 = time.perf_counter()
                    g = ra.build_graph(*args, **kw)
                    builds.append(time.perf_counter() - t0)
                files = glob.glob(os.path.join(cache, "*.npz"))
                op.check(len(files) == 1,
                         f"cold build left {len(files)} cache files, expected 1 (a miss)")
                stamp = _stamp(files[0])
                built_hash = g.graph_hash
            del g

        # reloads are spread over the query batches so that both sample the
        # whole run; the host's speed drifts over tens of seconds
        with tr.phase("check"):
            truth = ra.f_distance_batch(nav, xs, ys)
        n_batches = self.pairs // self.batch
        every = n_batches // self.reloads
        loads, t_query = [], {}
        rel = np.full(self.pairs, np.nan)
        # the cold builds count towards `seconds`
        for it in repeat(seconds - (time.perf_counter() - start), n_batches):
            if it < n_batches and it % every == 0:
                with ledger.op("cache-hit build_graph") as op:
                    with tr.phase("load"):
                        t0 = time.perf_counter()
                        g = ra.build_graph(*args, **kw)
                        loads.append(time.perf_counter() - t0)
                    op.check(_stamp(files[0]) == stamp, "reload rewrote the cache file (a miss)")
                    op.check(g.graph_hash == built_hash,
                             "reloaded graph_hash differs from the built one")
            b = it % n_batches
            sl = slice(b * self.batch, (b + 1) * self.batch)
            busy = math.inf
            with ledger.op(f"oracle_distance_pairs batch {it}") as op:
                with tr.phase("query"):
                    t0 = time.perf_counter()
                    est = ra.oracle_distance_pairs(g, nav, xs[sl], ys[sl])
                    busy = time.perf_counter() - t0
                r = (est - truth[sl]) / truth[sl]
                op.check(np.all(est >= truth[sl] - 1e-9),
                         f"oracle undercuts f_distance by {np.max(truth[sl] - est):.3e}")
                if self.rel_err_gate is not None:
                    op.check(np.all(np.abs(r) < self.rel_err_gate),
                             f"relative error {np.max(np.abs(r)):.4f} >= {self.rel_err_gate}")
                if it < n_batches:
                    rel[sl] = r
            t_query.setdefault(b, []).append(busy)
        del g
        build_s, load_s, query_s = median(builds), median(loads), _sum_median(t_query)
        return {
            "work_s": build_s + load_s + query_s,
            "build_s": build_s,
            "load_s": load_s,
            "query_pairs_per_s": self.pairs / query_s,
            "oracle_rel_err_mean": float(np.mean(np.abs(rel))),
        }

    def peak_rss_mb(self):
        return self_rss_mb()


def _stamp(path):
    s = os.stat(path)
    return (s.st_ino, s.st_size, s.st_mtime_ns)


# ---------------------------------------------------------------------------
# geodesic
# ---------------------------------------------------------------------------


class GeodesicWorkload:
    """The claim path on all four fixtures. The timed part is batched
    f_distance; single f_distance calls, the Clifford-Wolf, exhaustion and
    connect checks, the geodesic ODE against the exact flow curve and the
    quasi-metric axioms run once per run as correctness gates (and in the
    traced run as per-layer work). Builds no graph.

    Only large batches are timed end to end: they are the steadiest work
    on a host whose CPU speed drifts. Single calls, the claims pass and the
    ODE are small operations whose run-to-run spread exceeded any usable
    bound there."""

    batch = 10000  # pairs per fixture
    min_rounds = 2
    singles = 50  # single-call pairs per fixture
    triples = 300
    cw_samples = 100
    cw_t = 0.4
    directions = 50
    far_pairs = 12
    far_dist = 2.5  # h-distance of the connect pairs: 80% of pi on S^3 and SU(2)
    ode_steps = 25
    ode_step = 1e-3

    def setup(self, seed, tmp):
        import randers_lab as ra

        navs = fixtures(ra)
        inputs = {}
        for i, (name, nav) in enumerate(navs.items()):
            rng = np.random.default_rng([seed, 2, i])
            sp = nav.space
            fam = ra.constant_length_family(nav)
            x_ode = sp.sample(rng, 1)[0]
            x0 = sp.sample(rng, self.far_pairs)
            x1 = sp.h_exp(x0, self.far_dist * ra.random_tangent(sp, rng, x0))
            inputs[name] = {
                "xs": sp.sample(rng, self.batch), "ys": sp.sample(rng, self.batch),
                "tri": [sp.sample(rng, self.triples) for _ in range(3)],
                "cw_field": fam.random_member(rng, 1.0) + nav.wind,
                "cw_seed": int(rng.integers(2**31)),
                "ex_point": sp.sample(rng, 1)[0],
                "ex_seed": int(rng.integers(2**31)),
                "far": (x0, x1),
                "ode": (x_ode, (fam.random_member(rng, 1.0) + nav.wind).evaluate(x_ode)),
            }
        return {"ra": ra, "navs": navs, "inputs": inputs}

    def run(self, st, ledger, tr, seconds):
        """Rounds of the four batches, every round the same work; the
        metric uses each fixture's median batch time. The gates follow."""
        ra, navs, inp = st["ra"], st["navs"], st["inputs"]
        t_batch = {}
        for _ in repeat(seconds, self.min_rounds):
            batch_d = self._batches(ra, navs, inp, t_batch, ledger, tr)
        for name, nav in navs.items():
            self._singles(ra, name, nav, inp[name], batch_d[name], ledger, tr)
            self._claims(ra, name, nav, inp[name], ledger, tr)
            self._ode(ra, name, nav, inp[name], ledger, tr)
            with ledger.op(f"quasi-metric axioms {name}") as op, tr.phase("check"):
                x, y, z = inp[name]["tri"]
                dxy = ra.f_distance_batch(nav, x, y)
                dyz = ra.f_distance_batch(nav, y, z)
                dxz = ra.f_distance_batch(nav, x, z)
                dxx = ra.f_distance_batch(nav, x, x)
                op.check(np.max(dxz - (dxy + dyz)) <= 1e-9, "triangle inequality fails")
                op.check(np.max(np.abs(dxx)) <= 1e-9, "d(x, x) != 0")
        work_s = _sum_median(t_batch)
        return {"work_s": work_s, "fdist_pairs_per_s": len(navs) * self.batch / work_s}

    def _batches(self, ra, navs, inp, times, ledger, tr):
        batch_d = {}
        for name, nav in navs.items():
            xs, ys = inp[name]["xs"], inp[name]["ys"]
            busy = math.inf
            with ledger.op(f"f_distance_batch {name}") as op:
                with tr.phase("fdist"):
                    t0 = time.perf_counter()
                    d = ra.f_distance_batch(nav, xs, ys)
                    busy = time.perf_counter() - t0
                op.check(np.all(np.isfinite(d)) and np.all(d > 0), "non-positive distance")
                if name == "euclidean":
                    closed = nav.finsler_norm(xs, ys - xs)
                    op.check(np.max(np.abs(d - closed)) <= 1e-9,
                             f"Euclidean closed form off by {np.max(np.abs(d - closed)):.3e}")
                batch_d[name] = d
            times.setdefault(name, []).append(busy)
        return batch_d

    def _singles(self, ra, name, nav, inp, batch_d, ledger, tr):
        for j in range(self.singles):
            with ledger.op(f"f_distance {name} #{j}") as op:
                with tr.phase("fdist"):
                    v = ra.f_distance(nav, inp["xs"][j], inp["ys"][j])
                op.check(abs(v - batch_d[j]) <= 1e-9,
                         f"single and batch f_distance differ by {abs(v - batch_d[j]):.3e}")

    def _claims(self, ra, name, nav, inp, ledger, tr):
        with ledger.op(f"cw_displacement_check {name}") as op:
            with tr.phase("claims"):
                rep = ra.cw_displacement_check(nav, (inp["cw_field"], self.cw_t),
                                               n_samples=self.cw_samples, seed=inp["cw_seed"])
            op.check(rep.is_cw, f"not CW: rel_spread {rep.rel_spread:.3e}")
        with ledger.op(f"direction_exhaustion_check {name}") as op:
            with tr.phase("claims"):
                ex = ra.direction_exhaustion_check(nav, inp["ex_point"],
                                                   n_directions=self.directions,
                                                   seed=inp["ex_seed"])
            op.check(ex.passed, f"exhaustion residual {ex.worst_residual:.3e}")
        for a, b in zip(*inp["far"]):
            with ledger.op(f"cw_connect {name}") as op:
                with tr.phase("claims"):
                    res = ra.cw_connect(nav, a, b)
                op.check(res.residual < 1e-6, f"cw_connect residual {res.residual:.3e}")

    def _ode(self, ra, name, nav, inp, ledger, tr):
        T = self.ode_steps * self.ode_step
        with ledger.op(f"f_geodesic_ode {name}") as op:
            with tr.phase("ode"):
                curve = ra.f_geodesic_ode(nav, *inp["ode"], T=T, step=self.ode_step)
            with tr.phase("check"):
                ref = ra.f_geodesic_flowcurve(nav, *inp["ode"], T=T, n_steps=self.ode_steps)
            op.check(not curve.diverged, "ODE diverged")
            dev = float(np.max(np.abs(curve.points - ref.points)))
            op.check(dev < 1e-7, f"ODE leaves the flow curve by {dev:.3e}")

    def peak_rss_mb(self):
        return self_rss_mb()


# ---------------------------------------------------------------------------
# cli
# ---------------------------------------------------------------------------


class CliWorkload:
    """CLI verbs, one child process at a time, against the S^3 Hopf
    fixture; `oracle query` reads a cache built during set-up."""

    nodes = 5000
    k = 64
    cw_samples = 50
    cw_t = 0.4
    directions = 20

    def setup(self, seed, tmp):
        import randers_lab as ra

        nav = fixtures(ra)["sphere-hopf"]
        rng = np.random.default_rng([seed, 3])
        x, y, x0, x1, qx, qy = nav.space.sample(rng, 6)
        cache = fresh_dir(tmp, "cache-")
        ra.build_graph(nav, self.nodes, self.k, seed=seed, cache_dir=cache)
        nav_args = ["--space", json.dumps(nav.space.to_config()),
                    "--wind", json.dumps(nav.wind.to_config())]

        def pt(p):
            return json.dumps(p.tolist())

        verbs = {
            "distance": ["distance", *nav_args, "--x", pt(x), "--y", pt(y)],
            "cw-check": ["cw-check", *nav_args, "--seed", str(seed), "--t", repr(self.cw_t),
                         "--samples", str(self.cw_samples)],
            "exhaust": ["exhaust", *nav_args, "--seed", str(seed),
                        "--directions", str(self.directions)],
            "connect": ["connect", *nav_args, "--x0", pt(x0), "--x1", pt(x1)],
            "oracle-query": ["oracle", "query", *nav_args, "--nodes", str(self.nodes),
                             "--k", str(self.k), "--seed", str(seed), "--cache", cache,
                             "--x", pt(qx), "--y", pt(qy)],
        }
        return {"ra": ra, "nav": nav, "seed": seed, "tmp": tmp, "cache": cache,
                "points": (x, y, x0, x1, qx, qy), "verbs": verbs, "expected": None}

    def _expected(self, st):
        """The same computations in this process, for comparison."""
        ra, nav, seed = st["ra"], st["nav"], st["seed"]
        x, y, x0, x1, qx, qy = st["points"]
        Y = ra.constant_length_family(nav).random_member(np.random.default_rng(seed), 1.0) + nav.wind
        cw = ra.cw_displacement_check(nav, (Y, self.cw_t), n_samples=self.cw_samples,
                                      tol=1e-4, seed=seed)
        ex_x = nav.space.sample(np.random.default_rng(seed), 1)[0]
        ex = ra.direction_exhaustion_check(nav, ex_x, n_directions=self.directions,
                                           tol=1e-6, seed=seed)
        con = ra.cw_connect(nav, x0, x1, tol=1e-6)
        g = ra.build_graph(nav, self.nodes, self.k, seed=seed, cache_dir=st["cache"])
        est, hint = ra.oracle_distance(g, nav, qx, qy)
        return {
            "distance": {"d_xy": ra.f_distance(nav, x, y), "d_yx": ra.f_distance(nav, y, x)},
            "cw-check": {"mean": cw.d_mean, "rel_spread": cw.rel_spread, "verdict": "CW"},
            "exhaust": {"worst_residual": ex.worst_residual, "passed": True},
            "connect": {"t": con.t, "residual": con.residual, "method": con.method},
            "oracle-query": {"estimate": est, "error_hint": hint},
        }

    def run(self, st, ledger, tr, seconds):
        if st["expected"] is None:
            with tr.phase("check"):
                st["expected"] = self._expected(st)
        env = child_env()
        lat = {}
        for rnd in repeat(seconds, 1):
            for verb, argv in st["verbs"].items():
                with ledger.op(f"cli {verb} round {rnd}") as op:
                    if tr.enabled:
                        spans = os.path.join(st["tmp"], f"child-{verb}-{rnd}.jsonl")
                        cmd = [sys.executable, str(HERE / "cli_child.py"), spans, *argv]
                    else:
                        cmd = [sys.executable, "-m", "randers_lab.cli", *argv]
                    with tr.phase("cli." + verb):
                        t0 = time.perf_counter()
                        proc = subprocess.run(cmd, capture_output=True, text=True, env=env,
                                              cwd=ROOT, timeout=120)
                        lat.setdefault(verb, []).append(time.perf_counter() - t0)
                        if tr.enabled and os.path.exists(spans):
                            tr.adopt(spans, tr.current)
                    op.check(proc.returncode == 0,
                             f"exit code {proc.returncode}: {proc.stderr.strip()[-300:]}")
                    got = json.loads(proc.stdout)["result"]
                    for key, want in st["expected"][verb].items():
                        op.check(_same(got.get(key), want), f"{key}: CLI {got.get(key)!r} != {want!r}")
        self._children_rss = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
        return {"work_s": _sum_median(lat),
                "cli_ms_p50": 1e3 * median(median(v) for v in lat.values())}

    def peak_rss_mb(self):
        return self._children_rss


def _same(got, want):
    if isinstance(want, float):
        return isinstance(got, (int, float)) and math.isclose(got, want, rel_tol=1e-12, abs_tol=1e-15)
    return got == want


def child_env():
    """Environment for child processes: the checkout's sources, no
    user oracle cache."""
    env = dict(os.environ)
    env.pop("RANDERS_LAB_CACHE", None)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


WORKLOADS = {
    "oracle-sphere": lambda: OracleWorkload("sphere-hopf", 20000, 256, pairs=100,
                                            rel_err_gate=0.03, builds=1),
    "oracle-product": lambda: OracleWorkload("product", 10000, 128, pairs=200,
                                             rel_err_gate=None, builds=2),
    "geodesic": GeodesicWorkload,
    "cli": CliWorkload,
}
