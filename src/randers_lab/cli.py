"""Command-line entry point: one binary wiring spaces, winds, and the
experiment verbs; deterministic given --seed, reports carry the config
hash and library version but never timestamps.

Exit codes: 0 = success / verdict passed, 1 = verdict failed,
2 = usage or configuration error.
"""
from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from .config import ConfigError, ExperimentConfig
from .cw import (
    SearchFailed,
    cw_connect,
    cw_displacement_check,
    direction_exhaustion_check,
)
from .geodesics import (
    NoMatchingField,
    RootNotBracketed,
    f_distance,
    f_geodesic_flowcurve,
    f_geodesic_ode,
)
from .killing import constant_length_family, killing_from_config, zero_field
from .oracle import GraphDisconnected, build_graph, oracle_distance
from .randers import NavigationData, from_navigation, to_navigation
from .reports import geodesic_rows, polyline_svg, histogram_svg, render_json, write_csv
from .selftest import CRITERIA, run_criterion
from .spaces import SpaceError, space_from_config


def _json_arg(s):
    """Inline JSON, or @path / bare path to a JSON file (an argparse type);
    a bare value is read as a file only when that file exists."""
    s = s.strip()
    if s.startswith("@") or os.path.isfile(s):
        s = Path(s.removeprefix("@")).read_text()
    try:
        return json.loads(s)
    except json.JSONDecodeError as e:
        raise argparse.ArgumentTypeError(f"invalid JSON: {e}") from None


def _count(s):
    """A count of at least 1 (an argparse type)."""
    n = int(s)
    if n < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {n}")
    return n


def _positive(s):
    """A float above 0 (an argparse type)."""
    x = float(s)
    if not x > 0:
        raise argparse.ArgumentTypeError(f"must be positive, got {s}")
    return x


# arguments that are not verb parameters: the dispatch, the fields
# ExperimentConfig holds itself, and where output and cache files go
_NOT_PARAMS = {"command", "func", "space", "wind", "out", "cache"}


def _config(args) -> ExperimentConfig:
    params = {k: v for k, v in vars(args).items() if k not in _NOT_PARAMS}
    return ExperimentConfig(space=getattr(args, "space", None),
                            wind=getattr(args, "wind", None), params=params)


def _nav_from_args(args) -> tuple[NavigationData, ExperimentConfig]:
    if args.space is None:
        raise ConfigError("--space is required")
    space = space_from_config(args.space)
    wind = killing_from_config(space, args.wind) if args.wind is not None else zero_field(space)
    return NavigationData(space, wind), _config(args)


def _flat(value, what: str) -> np.ndarray:
    """A flat JSON array of numbers as a float array."""
    if not isinstance(value, list) or not all(
            isinstance(v, (int, float)) and not isinstance(v, bool) for v in value):
        raise ConfigError(f"{what} is a flat JSON array of numbers, got {json.dumps(value)}")
    return np.array(value, dtype=float)


def _point(nav: NavigationData, value) -> np.ndarray:
    x = _flat(value, "a point")
    nav.space.check_point(x)
    return x


def _vector(nav: NavigationData, value) -> np.ndarray:
    """A tangent vector in ambient coordinates: ambient_dim finite numbers."""
    v = _flat(value, "a tangent vector")
    if len(v) != nav.space.ambient_dim or not np.all(np.isfinite(v)):
        raise ConfigError(f"a tangent vector here is {nav.space.ambient_dim} finite numbers, "
                          f"got {json.dumps(value)}")
    return v


def _emit(args, name: str, result: dict, cfg: ExperimentConfig) -> None:
    text = render_json(result, cfg)
    sys.stdout.write(text)
    if args.out:
        outdir = Path(args.out)
        outdir.mkdir(parents=True, exist_ok=True)
        (outdir / f"{name}.json").write_text(text)


def cmd_convert(args) -> int:
    nav, cfg = _nav_from_args(args)
    x = _point(nav, args.point)
    df = from_navigation(nav, x)
    h, wc, wamb = to_navigation(df)
    result = {
        "a": df.a.tolist(),
        "b": df.b.tolist(),
        "h": h.tolist(),
        "W": wamb.tolist(),
        "lambda": float(nav.lam(x)),
        "frame": df.frame.tolist(),
    }
    _emit(args, "convert", result, cfg)
    return 0


def cmd_norm(args) -> int:
    nav, cfg = _nav_from_args(args)
    x = _point(nav, args.point)
    y = _vector(nav, args.vector)
    df = from_navigation(nav, x)
    result = {
        "F_navigation": float(nav.finsler_norm(x, y)),
        "F_defining": df.norm_defining(nav.space, y),
        "lambda": float(nav.lam(x)),
    }
    _emit(args, "norm", result, cfg)
    return 0


def cmd_distance(args) -> int:
    nav, cfg = _nav_from_args(args)
    x = _point(nav, args.x)
    y = _point(nav, args.y)
    result = {"d_xy": f_distance(nav, x, y), "d_yx": f_distance(nav, y, x)}
    _emit(args, "distance", result, cfg)
    return 0


def cmd_geodesic(args) -> int:
    nav, cfg = _nav_from_args(args)
    x = _point(nav, args.x)
    y = _vector(nav, args.direction)
    y = y / nav.finsler_norm(x, y)  # normalize to unit F-speed
    if args.method == "flow":
        curve = f_geodesic_flowcurve(nav, x, y, T=args.T, n_steps=args.steps)
    else:
        curve = f_geodesic_ode(nav, x, y, T=args.T, step=args.step)
    result = {
        "method": curve.kind,
        "T": args.T,
        "n_points": len(curve),
        "endpoint": curve.points[-1].tolist(),
        "diverged": bool(curve.diverged),
    }
    _emit(args, "geodesic", result, cfg)
    if args.out:
        outdir = Path(args.out)
        if args.format == "csv":
            dim = curve.points.shape[1]
            write_csv(outdir / "geodesic.csv", ["t"] + [f"x{i}" for i in range(dim)],
                      geodesic_rows(curve))
        if args.format == "svg":
            (outdir / "geodesic.svg").write_text(polyline_svg(curve.points))
    return 0


def cmd_flow(args) -> int:
    nav, cfg = _nav_from_args(args)
    X = killing_from_config(nav.space, args.field) if args.field is not None else nav.wind
    x = _point(nav, args.point)
    result = {"point": X.flow(x, args.t).tolist(), "t": args.t}
    _emit(args, "flow", result, cfg)
    return 0


def cmd_cw_check(args) -> int:
    nav, cfg = _nav_from_args(args)
    if args.field is not None:
        Y = killing_from_config(nav.space, args.field)
    else:
        family = constant_length_family(nav)
        rng = np.random.default_rng(args.seed)
        Y = family.random_member(rng, 1.0) + nav.wind
    rep = cw_displacement_check(nav, (Y, args.t), n_samples=args.samples,
                                tol=args.tol, seed=args.seed)
    _emit(args, "cw-check", rep.to_dict(), cfg)
    if args.out and args.format == "svg":
        (Path(args.out) / "cw-displacements.svg").write_text(
            histogram_svg(rep.displacements))
    return 0 if rep.is_cw else 1


def cmd_exhaust(args) -> int:
    nav, cfg = _nav_from_args(args)
    if args.point is not None:
        x = _point(nav, args.point)
    else:
        x = nav.space.sample(np.random.default_rng(args.seed), 1)[0]
    rep = direction_exhaustion_check(nav, x, n_directions=args.directions,
                                     tol=args.tol, seed=args.seed)
    _emit(args, "exhaust", rep.to_dict(), cfg)
    return 0 if rep.passed else 1


def cmd_connect(args) -> int:
    nav, cfg = _nav_from_args(args)
    x0 = _point(nav, args.x0)
    x1 = _point(nav, args.x1)
    try:
        res = cw_connect(nav, x0, x1, tol=args.tol)
    except SearchFailed as e:
        _emit(args, "connect", {"failed": True, "best_residual": e.best_residual}, cfg)
        return 1
    result = {
        "t": res.t,
        "residual": res.residual,
        "method": res.method,
        "member": res.member.to_config(),
    }
    _emit(args, "connect", result, cfg)
    return 0


def cmd_oracle(args) -> int:
    nav, cfg = _nav_from_args(args)
    if args.oracle_cmd == "query":  # check the points before paying for a build
        x, y = _point(nav, args.x), _point(nav, args.y)
    g = build_graph(nav, args.nodes, args.k, seed=args.seed, cache_dir=args.cache)
    if args.oracle_cmd == "build":
        result = {"graph_hash": g.graph_hash, "eps": g.eps,
                  "n_nodes": g.n_nodes, "k": g.k, "n_edges": g.csr.nnz}
        _emit(args, "oracle-build", result, cfg)
        return 0
    est, hint = oracle_distance(g, nav, x, y)
    _emit(args, "oracle-query", {"estimate": est, "error_hint": hint}, cfg)
    return 0


def _criteria(text: str) -> list[int]:
    """Criterion numbers from a comma-separated list such as "1,2,5"."""
    try:
        chosen = [int(c) for c in text.split(",")]
    except ValueError:
        chosen = None
    if chosen is None or not set(chosen) <= CRITERIA.keys():
        raise ValueError(f"--criteria takes criteria {min(CRITERIA)}-{max(CRITERIA)}, "
                         f"comma-separated; got {text!r}")
    return chosen


def cmd_selftest(args) -> int:
    chosen = _criteria(args.criteria) if args.criteria else CRITERIA
    results = []
    for i in sorted(chosen):
        t0 = time.perf_counter()
        r = run_criterion(i, cache_dir=args.cache)
        results.append(r)
        status = "PASS" if r["passed"] else "FAIL"
        print(f"CRITERION {i}: {status} ({r['name']})")
        # wall times vary run to run, so they stay out of selftest.json
        print(f"criterion {i}: {time.perf_counter() - t0:.2f} s", file=sys.stderr)
    if args.out:
        text = render_json({"results": results}, _config(args))
        outdir = Path(args.out)
        outdir.mkdir(parents=True, exist_ok=True)
        (outdir / "selftest.json").write_text(text)
    return 0 if all(r["passed"] for r in results) else 1


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="randers-lab",
                                description="Randers navigation-data toolkit")
    p.add_argument("--version", action="version", version=f"randers-lab {__version__}")
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp, seed=False, tol=None, formats=None):
        """--space, --wind and --out, and of --seed, --tol (default tol) and
        --format (one of formats) the ones the verb reads."""
        sp.add_argument("--space", type=_json_arg, help="space JSON (inline, @file, or path)")
        sp.add_argument("--wind", type=_json_arg, help="wind field JSON (inline, @file, or path)")
        sp.add_argument("--out", help="output directory")
        if seed:
            sp.add_argument("--seed", type=int, default=0)
        if tol is not None:
            sp.add_argument("--tol", type=_positive, default=tol)
        if formats is not None:
            sp.add_argument("--format", choices=formats, default="json")

    sp = sub.add_parser("convert", help="navigation data -> defining form at a point")
    common(sp)
    sp.add_argument("--point", type=_json_arg, required=True)
    sp.set_defaults(func=cmd_convert)

    sp = sub.add_parser("norm", help="Finsler norm of a tangent vector")
    common(sp)
    sp.add_argument("--point", type=_json_arg, required=True)
    sp.add_argument("--vector", type=_json_arg, required=True)
    sp.set_defaults(func=cmd_norm)

    sp = sub.add_parser("distance", help="asymmetric distance between two points")
    common(sp)
    sp.add_argument("--x", type=_json_arg, required=True)
    sp.add_argument("--y", type=_json_arg, required=True)
    sp.set_defaults(func=cmd_distance)

    sp = sub.add_parser("geodesic", help="trace an F-geodesic")
    common(sp, formats=["json", "csv", "svg"])
    sp.add_argument("--x", type=_json_arg, required=True)
    sp.add_argument("--direction", type=_json_arg, required=True)
    sp.add_argument("--T", type=float, default=1.0)
    sp.add_argument("--step", type=_positive, default=1e-3, help="ODE step")
    sp.add_argument("--steps", type=_count, default=200, help="flow-curve samples")
    sp.add_argument("--method", choices=["flow", "ode"], default="flow")
    sp.set_defaults(func=cmd_geodesic)

    sp = sub.add_parser("flow", help="flow a point along a Killing field")
    common(sp)
    sp.add_argument("--field", type=_json_arg, help="field JSON (defaults to the wind)")
    sp.add_argument("--point", type=_json_arg, required=True)
    sp.add_argument("--t", type=float, default=1.0)
    sp.set_defaults(func=cmd_flow)

    sp = sub.add_parser("cw-check", help="displacement-constancy check of a flow")
    common(sp, seed=True, tol=1e-4, formats=["json", "svg"])  # relative spread verdict
    sp.add_argument("--field", type=_json_arg,
                    help="full field to flow (default: family member + wind)")
    sp.add_argument("--t", type=float, default=0.1)
    sp.add_argument("--samples", type=_count, default=100)
    sp.set_defaults(func=cmd_cw_check)

    sp = sub.add_parser("exhaust", help="direction exhaustion check")
    common(sp, seed=True, tol=1e-6)
    sp.add_argument("--point", type=_json_arg)
    sp.add_argument("--directions", type=_count, default=50)
    sp.set_defaults(func=cmd_exhaust)

    sp = sub.add_parser("connect", help="CW-connect two points")
    common(sp, tol=1e-6)
    sp.add_argument("--x0", type=_json_arg, required=True)
    sp.add_argument("--x1", type=_json_arg, required=True)
    sp.set_defaults(func=cmd_connect)

    sp = sub.add_parser("oracle", help="epsilon-net distance oracle")
    oracle_sub = sp.add_subparsers(dest="oracle_cmd", required=True)
    for name in ("build", "query"):
        osp = oracle_sub.add_parser(name)
        common(osp, seed=True)
        osp.add_argument("--nodes", type=int, default=10000)
        osp.add_argument("--k", type=int, default=64)
        osp.add_argument("--cache", help="cache directory (default: $RANDERS_LAB_CACHE)")
        if name == "query":
            osp.add_argument("--x", type=_json_arg, required=True)
            osp.add_argument("--y", type=_json_arg, required=True)
        osp.set_defaults(func=cmd_oracle)

    sp = sub.add_parser("selftest", help="run the acceptance criteria")
    sp.add_argument("--out", help="output directory")
    sp.add_argument("--criteria", help="comma-separated subset, e.g. 1,2,5")
    sp.add_argument("--cache", help="oracle cache directory")
    sp.set_defaults(func=cmd_selftest)

    return p


def main(argv=None) -> int:
    try:
        # an unreadable JSON file raises OSError from argument parsing
        args = build_parser().parse_args(argv)
        return args.func(args)
    except (ConfigError, SpaceError, ValueError, OSError, KeyError,
            RootNotBracketed, NoMatchingField, GraphDisconnected) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
