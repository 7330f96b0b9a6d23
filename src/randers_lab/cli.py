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
from .config import ConfigError, ExperimentConfig, json_array
from .cw import (
    SearchFailed,
    cw_connect,
    cw_displacement_check,
    direction_exhaustion_check,
)
from .geodesics import f_distance, f_geodesic_flowcurve, f_geodesic_ode
from .killing import constant_length_family, killing_from_config, zero_field
from .randers import NavigationData, from_navigation, to_navigation
from .reports import geodesic_csv, histogram_svg, polyline_svg, render_json
from .spaces import space_from_config


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


def _count(s, least=1):
    """A count of at least `least` (an argparse type)."""
    n = int(s)
    if n < least:
        raise argparse.ArgumentTypeError(f"must be at least {least}, got {n}")
    return n


def _samples(s):
    """At least 2 samples, the fewest that have a spread (an argparse type)."""
    return _count(s, 2)


def _finite(s):
    """A finite float (an argparse type)."""
    x = float(s)
    if not np.isfinite(x):
        raise argparse.ArgumentTypeError(f"must be a finite number, got {s}")
    return x


def _positive(s):
    """A finite float above 0 (an argparse type)."""
    x = _finite(s)
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


def _point(nav: NavigationData, value) -> np.ndarray:
    x = json_array(value, "a point", 1)
    nav.space.check_point(x)
    return x


def _vector(nav: NavigationData, x: np.ndarray, value) -> np.ndarray:
    """A tangent vector at x in ambient coordinates: ambient_dim finite
    numbers that the tangent projection at x leaves alone, to 1e-9 of |v|."""
    v = json_array(value, "a tangent vector", 1)
    if len(v) != nav.space.ambient_dim:
        raise ConfigError(f"a tangent vector here is {nav.space.ambient_dim} finite numbers, "
                          f"got {json.dumps(value)}")
    off = np.linalg.norm(v - nav.space.tangent_project(x, v))
    if off > 1e-9 * np.linalg.norm(v):
        raise ConfigError(f"{json.dumps(value)} is not tangent at {json.dumps(x.tolist())}: "
                          f"it leaves the tangent space by {off:.3g}")
    return v


def _write(out, files: dict) -> None:
    """Write files, a dict of file name -> text, into the directory out."""
    Path(out).mkdir(parents=True, exist_ok=True)
    for name, text in files.items():
        (Path(out) / name).write_text(text)


def _run(args) -> int:
    """Every verb but selftest: cmd_x(nav, args) -> (result, exit code,
    artifacts) on the navigation data of --space and --wind; the report goes
    to stdout and, with --out, to NAME.json beside the artifacts (name -> text)."""
    if args.space is None:
        raise ConfigError("--space is required")
    space = space_from_config(args.space)
    wind = killing_from_config(space, args.wind) if args.wind is not None else zero_field(space)
    result, code, artifacts = args.func(NavigationData(space, wind), args)
    text = render_json(result, _config(args))
    sys.stdout.write(text)
    if args.out:
        name = f"oracle-{args.oracle_cmd}" if args.command == "oracle" else args.command
        _write(args.out, {f"{name}.json": text, **artifacts})
    return code


def cmd_convert(nav, args):
    x = _point(nav, args.point)
    df = from_navigation(nav, x)
    h, wamb = to_navigation(df)
    result = {
        "a": df.a.tolist(),
        "b": df.b.tolist(),
        "h": h.tolist(),
        "W": wamb.tolist(),
        "lambda": float(nav.lam(x)),
        "frame": df.frame.tolist(),
    }
    return result, 0, {}


def cmd_norm(nav, args):
    x = _point(nav, args.point)
    y = _vector(nav, x, args.vector)
    df = from_navigation(nav, x)
    result = {
        "F_navigation": float(nav.finsler_norm(x, y)),
        "F_defining": df.norm_defining(nav.space, y),
        "lambda": float(nav.lam(x)),
    }
    return result, 0, {}


def cmd_distance(nav, args):
    x = _point(nav, args.x)
    y = _point(nav, args.y)
    return {"d_xy": f_distance(nav, x, y), "d_yx": f_distance(nav, y, x)}, 0, {}


def cmd_geodesic(nav, args):
    x = _point(nav, args.x)
    y = _vector(nav, x, args.direction)
    if not y.any():
        raise ConfigError(f"--direction must be a nonzero tangent vector, got {json.dumps(args.direction)}")
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
    artifacts = {}
    if args.format == "csv":
        artifacts["geodesic.csv"] = geodesic_csv(curve)
    if args.format == "svg":
        artifacts["geodesic.svg"] = polyline_svg(curve.points)
    return result, 0, artifacts


def cmd_flow(nav, args):
    X = killing_from_config(nav.space, args.field) if args.field is not None else nav.wind
    x = _point(nav, args.point)
    return {"point": X.flow(x, args.t).tolist(), "t": args.t}, 0, {}


def cmd_cw_check(nav, args):
    if args.field is not None:
        Y = killing_from_config(nav.space, args.field)
    else:
        family = constant_length_family(nav)
        rng = np.random.default_rng(args.seed)
        Y = family.random_member(rng, 1.0) + nav.wind
    rep = cw_displacement_check(nav, (Y, args.t), n_samples=args.samples,
                                tol=args.tol, seed=args.seed)
    artifacts = {}
    if args.format == "svg":
        artifacts["cw-displacements.svg"] = histogram_svg(rep.displacements)
    return rep.to_dict(), 0 if rep.is_cw else 1, artifacts


def cmd_exhaust(nav, args):
    if args.point is not None:
        x = _point(nav, args.point)
    else:
        x = nav.space.sample(np.random.default_rng(args.seed), 1)[0]
    rep = direction_exhaustion_check(nav, x, n_directions=args.directions,
                                     tol=args.tol, seed=args.seed)
    return rep.to_dict(), 0 if rep.passed else 1, {}


def cmd_connect(nav, args):
    x0 = _point(nav, args.x0)
    x1 = _point(nav, args.x1)
    try:
        res = cw_connect(nav, x0, x1, tol=args.tol)
    except SearchFailed as e:
        return {"failed": True, "best_residual": e.best_residual}, 1, {}
    result = {
        "t": res.t,
        "residual": res.residual,
        "method": res.method,
        "member": res.member.to_config(),
    }
    return result, 0, {}


def cmd_oracle(nav, args):
    # imported by its verb alone; it loads scipy only for a build or a graph
    # search, so a compact query on a cached graph starts on numpy alone
    from .oracle import build_graph, oracle_distance

    if args.oracle_cmd == "query":  # check the points before paying for a build
        x, y = _point(nav, args.x), _point(nav, args.y)
    g = build_graph(nav, args.nodes, args.k, seed=args.seed, cache_dir=args.cache)
    if args.oracle_cmd == "build":
        result = {"graph_hash": g.graph_hash, "eps": g.eps,
                  "n_nodes": len(g.nodes), "k": g.k, "n_edges": g.csr.nnz}
        return result, 0, {}
    est, hint = oracle_distance(g, nav, x, y)
    return {"estimate": est, "error_hint": hint}, 0, {}


def _criteria(text: str) -> list[int]:
    """Criterion numbers from a comma-separated list such as "1,2,5"."""
    from .selftest import CRITERIA

    try:
        chosen = [int(c) for c in text.split(",")]
    except ValueError:
        chosen = None
    if chosen is None or not set(chosen) <= CRITERIA.keys():
        raise ValueError(f"--criteria takes criteria {min(CRITERIA)}-{max(CRITERIA)}, "
                         f"comma-separated; got {text!r}")
    return chosen


def cmd_selftest(args) -> int:
    from .selftest import CRITERIA

    chosen = _criteria(args.criteria) if args.criteria else CRITERIA
    results = []
    for i in sorted(chosen):
        t0 = time.perf_counter()
        r = CRITERIA[i]()
        results.append(r)
        status = "PASS" if r["passed"] else "FAIL"
        print(f"CRITERION {i}: {status} ({r['name']})")
        # wall times vary run to run, so they stay out of selftest.json
        print(f"criterion {i}: {time.perf_counter() - t0:.2f} s", file=sys.stderr)
    if args.out:
        _write(args.out, {"selftest.json": render_json({"results": results}, _config(args))})
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
    sp.add_argument("--T", type=_finite, default=1.0)
    sp.add_argument("--step", type=_positive, default=1e-3, help="ODE step")
    sp.add_argument("--steps", type=_count, default=200, help="flow-curve samples")
    sp.add_argument("--method", choices=["flow", "ode"], default="flow")
    sp.set_defaults(func=cmd_geodesic)

    sp = sub.add_parser("flow", help="flow a point along a Killing field")
    common(sp)
    sp.add_argument("--field", type=_json_arg, help="field JSON (defaults to the wind)")
    sp.add_argument("--point", type=_json_arg, required=True)
    sp.add_argument("--t", type=_finite, default=1.0)
    sp.set_defaults(func=cmd_flow)

    sp = sub.add_parser("cw-check", help="displacement-constancy check of a flow")
    common(sp, seed=True, tol=1e-4, formats=["json", "svg"])  # relative spread verdict
    sp.add_argument("--field", type=_json_arg,
                    help="full field to flow (default: family member + wind)")
    sp.add_argument("--t", type=_finite, default=0.1)
    sp.add_argument("--samples", type=_samples, default=100)
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

    return p


def main(argv=None) -> int:
    try:
        # an unreadable JSON file raises OSError from argument parsing
        args = build_parser().parse_args(argv)
        # a non-finite result is refused where it is used, so numpy's
        # overflow warnings would only precede that one error line
        with np.errstate(over="ignore", invalid="ignore"):
            return cmd_selftest(args) if args.command == "selftest" else _run(args)
    except (ValueError, OSError) as e:  # every library error is a ValueError
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
