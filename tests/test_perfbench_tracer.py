"""The benchmark's traced run patches library names from the outside
(`perfbench/tracer.py`); a missing or renamed name makes `install()`
raise. Install the tracer on the current library, and check that
`uninstall()` puts every patched name back."""
from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

import numpy as np
import scipy.optimize

from randers_lab import geodesics, oracle, randers
from randers_lab.selftest import fixture_navs  # selftest loads every module the tracer patches

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def _bindings():
    """Every module-level name and class attribute of the library, and the
    third-party name the tracer patches."""
    out = {("scipy.optimize", "minimize"): scipy.optimize.minimize}
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not (mod_name == "randers_lab" or mod_name.startswith("randers_lab.")):
            continue
        for attr, value in list(vars(mod).items()):
            out[(mod_name, attr)] = value
            if isinstance(value, type) and value.__module__ == mod_name:
                for cattr, cvalue in list(vars(value).items()):
                    out[(mod_name, attr, cattr)] = cvalue
    return out


def test_tracer_installs_on_the_library_and_uninstalls():
    # `oracle` binds its scipy names on first use, and `install()` is a
    # first use: bind them before the snapshot, so that it holds them
    for name in oracle._SCIPY:
        getattr(oracle, name)
    before = _bindings()
    tr = _load_tracer().Tracer()
    try:
        tr.install()
        assert geodesics._chart_rhs is not before[("randers_lab.geodesics", "_chart_rhs")]
        # the patches reach the call sites: one ODE step and one tensor
        nav = fixture_navs()["sphere-hopf"]
        x = np.array([1.0, 0.0, 0.0, 0.0])
        geodesics.f_geodesic_ode(nav, x, np.array([0.0, 0.0, 1.0, 0.0]), T=1e-3, step=1e-3)
        randers.fundamental_tensor(nav, x, np.array([0.0, 1.0, 0.0, 0.0]))
        names = {span[0] for span in tr.spans}
        assert {"geodesics.f_geodesic_ode", "geodesics._chart_rhs", "spaces.frame",
                "spaces.h_exp", "randers.finsler_norm"} <= names
    finally:
        tr.uninstall()
    after = _bindings()
    assert after.keys() == before.keys()
    changed = [key for key in before if after[key] is not before[key]]
    assert not changed


def test_tracer_times_the_wind_flow_of_every_fixture():
    # `patch_method` wraps only a `flow` defined on the class itself, so a
    # flow inherited from a shared base would be skipped without a word and
    # `killing.flow_s` would read 0
    tr = _load_tracer().Tracer()
    try:
        tr.install()
        for name, nav in fixture_navs().items():
            before = len(tr.spans)
            xs = nav.space.sample(np.random.default_rng(0), 4)
            ys = nav.space.sample(np.random.default_rng(1), 4)
            geodesics.f_distance_batch(nav, xs, ys)
            assert "killing.flow" in {span[0] for span in tr.spans[before:]}, name
    finally:
        tr.uninstall()
