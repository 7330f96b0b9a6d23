"""Deterministic report writers: JSON, CSV, and small SVG figures.

Reports carry the config hash and library version but no timestamps,
so rerunning the same config yields byte-identical files.
"""
from __future__ import annotations

import json

import numpy as np

from . import __version__


def render_json(result: dict, config) -> str:
    """The report of `result` under `config`. Strict JSON: a NaN or an
    infinity anywhere raises ValueError instead of writing an invalid file."""
    payload = {"version": __version__, "result": result, "config_hash": config.config_hash,
               "config": json.loads(config.to_json())}
    return json.dumps(payload, sort_keys=True, indent=2, allow_nan=False) + "\n"


def geodesic_csv(curve) -> str:
    """The curve as CSV: a header t,x0,x1,... and a row per sample, every
    number to 17 significant digits."""
    lines = [",".join(["t"] + [f"x{i}" for i in range(curve.points.shape[1])])]
    lines += [",".join(f"{float(v):.17g}" for v in (t, *p)) for t, p in zip(curve.ts, curve.points)]
    return "\n".join(lines) + "\n"


def polyline_svg(points_2d) -> str:
    """SVG polyline through the first two coordinates of a curve."""
    width, height, margin = 480, 480, 20.0
    pts = np.asarray(points_2d, dtype=float)[:, :2]
    lo = pts.min(axis=0)
    hi = pts.max(axis=0)
    span = np.maximum(hi - lo, 1e-12)
    scale = min((width - 2 * margin) / span[0], (height - 2 * margin) / span[1])
    xy = (pts - lo) * scale + margin
    coords = " ".join(f"{x:.3f},{height - y:.3f}" for x, y in xy)
    return (
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">\n'
        f'  <polyline fill="none" stroke="black" stroke-width="1.5" points="{coords}"/>\n'
        "</svg>\n"
    )


def histogram_svg(values) -> str:
    """Bar histogram of sampled values (displacement reports)."""
    bins, width, height, margin = 24, 480, 320, 24.0
    vals = np.asarray(values, dtype=float)
    lo, hi = float(vals.min()), float(vals.max())
    # samples that agree to rounding (a Clifford-Wolf flow's displacements)
    # fit no finite-sized bins, so their range is widened to 1e-9 of its size
    pad = 1e-9 * max(abs(lo), abs(hi))
    if hi - lo < pad:
        lo, hi = lo - pad, hi + pad
    counts, edges = np.histogram(vals, bins=bins, range=(lo, hi))
    top = max(int(counts.max()), 1)
    bw = (width - 2 * margin) / bins
    bars = []
    for i, c in enumerate(counts):
        bh = (height - 2 * margin) * c / top
        x = margin + i * bw
        y = height - margin - bh
        bars.append(f'  <rect x="{x:.2f}" y="{y:.2f}" width="{bw * 0.9:.2f}" '
                    f'height="{bh:.2f}" fill="steelblue"/>')
    label = (f'  <text x="{margin}" y="{margin * 0.8:.2f}" font-size="11">'
             f"range [{edges[0]:.6g}, {edges[-1]:.6g}]</text>")
    return (
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">\n' + "\n".join(bars) + "\n" + label + "\n</svg>\n"
    )
