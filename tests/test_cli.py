from __future__ import annotations

import importlib
import json
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import randers_lab
from randers_lab import oracle
from randers_lab.cli import main
from randers_lab.cw import SearchFailed
from randers_lab.spaces import Sphere

from conftest import ANTI_HOPF

SRC = Path(__file__).resolve().parent.parent / "src"

E2 = '{"kind": "euclidean", "n": 2}'
WIND = '{"type": "euclidean-const", "v": [0.5, 0.0]}'
S3 = '{"kind": "sphere", "dim": 3, "radius": 1.0}'
HOPF = '{"type": "hopf", "c": 0.3}'


def _refuse(constant):
    raise ValueError(f"a report holds {constant}, which strict JSON has no word for")


def _report(text):
    """A report read as strict JSON, which has no NaN or Infinity."""
    return json.loads(text, parse_constant=_refuse)


def test_convert_fixture(capsys):
    rc = main(["convert", "--space", E2, "--wind", WIND, "--point", "[0.0, 0.0]"])
    assert rc == 0
    out = _report(capsys.readouterr().out)
    np.testing.assert_allclose(out["result"]["a"], [[16 / 9, 0], [0, 4 / 3]], atol=1e-14)
    np.testing.assert_allclose(out["result"]["b"], [-2 / 3, 0], atol=1e-14)
    assert out["result"]["lambda"] == pytest.approx(0.75)
    assert out["version"]
    assert out["config_hash"]


def test_convert_tracks_full_float_precision(capsys):
    main(["convert", "--space", E2, "--wind", WIND, "--point", "[0.1, 0.2]"])
    out = _report(capsys.readouterr().out)
    # JSON floats round-trip bit-exactly (repr gives 17 significant digits
    # whenever needed)
    assert out["result"]["a"][0][0] == 16 / 9


def test_norm_subcommand(capsys):
    rc = main(["norm", "--space", E2, "--wind", WIND,
               "--point", "[0,0]", "--vector", "[1,0]"])
    assert rc == 0
    out = _report(capsys.readouterr().out)
    assert out["result"]["F_navigation"] == pytest.approx(2 / 3, abs=1e-14)
    assert out["result"]["F_defining"] == pytest.approx(2 / 3, abs=1e-10)


def test_distance_subcommand(capsys):
    rc = main(["distance", "--space", E2, "--wind", WIND, "--x", "[0,0]", "--y", "[1,0]"])
    assert rc == 0
    out = _report(capsys.readouterr().out)
    assert out["result"]["d_xy"] == pytest.approx(2 / 3, abs=1e-9)
    assert out["result"]["d_yx"] == pytest.approx(2.0, abs=1e-9)


def test_geodesic_csv_output(tmp_path, capsys):
    rc = main(["geodesic", "--space", E2, "--wind", WIND, "--x", "[0,0]",
               "--direction", "[1.5, 0]", "--T", "1.0", "--out", str(tmp_path),
               "--format", "csv"])
    assert rc == 0
    rows = (tmp_path / "geodesic.csv").read_text().strip().splitlines()
    assert rows[0] == "t,x0,x1"
    last = rows[-1].split(",")
    assert float(last[1]) == pytest.approx(1.5, abs=1e-12)


def test_geodesic_svg_output(tmp_path, capsys):
    rc = main(["geodesic", "--space", E2, "--wind", WIND, "--x", "[0,0]",
               "--direction", "[1.5, 0]", "--out", str(tmp_path), "--format", "svg"])
    assert rc == 0
    svg = (tmp_path / "geodesic.svg").read_text()
    assert svg.startswith("<svg") and "polyline" in svg


def test_flow_subcommand(capsys):
    rc = main(["flow", "--space", S3, "--wind", HOPF, "--point", "[1,0,0,0]",
               "--t", "0.5"])
    assert rc == 0
    out = _report(capsys.readouterr().out)
    p = np.array(out["result"]["point"])
    np.testing.assert_allclose(np.linalg.norm(p), 1.0, atol=1e-12)
    np.testing.assert_allclose(p, [np.cos(0.15), np.sin(0.15), 0, 0], atol=1e-12)


def test_cw_check_hopf_exits_zero(capsys):
    rc = main(["cw-check", "--space", S3, "--wind", HOPF, "--seed", "3",
               "--samples", "50", "--tol", "1e-4"])
    assert rc == 0
    out = _report(capsys.readouterr().out)
    assert out["result"]["verdict"] == "CW"


def test_cw_check_negative_control_exits_one(capsys):
    bad = json.dumps({"type": "sphere-skew", "matrix":
                      [[0, -1, 0, 0], [1, 0, 0, 0], [0, 0, 0, -2], [0, 0, 2, 0]]})
    rc = main(["cw-check", "--space", S3, "--field", bad, "--samples", "60"])
    assert rc == 1


def test_exhaust_subcommand(capsys):
    rc = main(["exhaust", "--space", S3, "--wind", HOPF, "--seed", "4",
               "--directions", "20"])
    assert rc == 0
    out = _report(capsys.readouterr().out)
    assert out["result"]["worst_residual"] < 1e-6


def test_connect_subcommand(capsys):
    rc = main(["connect", "--space", E2, "--wind", WIND, "--x0", "[0,0]",
               "--x1", "[2,1]"])
    assert rc == 0
    out = _report(capsys.readouterr().out)
    assert out["result"]["residual"] < 1e-9
    assert out["result"]["member"]["type"] == "euclidean-const"


def test_oracle_build_and_query(tmp_path, capsys):
    args = ["--space", E2, "--wind", WIND, "--nodes", "2000", "--k", "10",
            "--cache", str(tmp_path)]
    rc = main(["oracle", "build"] + args)
    assert rc == 0
    built = _report(capsys.readouterr().out)
    assert built["result"]["n_nodes"] == 2000
    # directed arcs, the count from when each orientation was its own row
    assert built["result"]["n_edges"] == 22946

    rc = main(["oracle", "query"] + args + ["--x", "[0,0]", "--y", "[1,0]"])
    assert rc == 0
    out = _report(capsys.readouterr().out)
    assert out["result"]["estimate"] == pytest.approx(2 / 3, rel=0.10)


def test_oracle_build_refuses_a_file_as_its_cache_directory(tmp_path, capsys):
    blocker = tmp_path / "cache"
    blocker.write_text("")
    rc = main(["oracle", "build", "--space", E2, "--wind", WIND, "--nodes", "2000",
               "--k", "10", "--cache", str(blocker)])
    assert rc == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.count("\n") == 1
    assert captured.err.startswith(f"error: oracle cache '{blocker}' is not a usable directory")


def test_oracle_build_reports_the_orbit_net(tmp_path, capsys):
    # on S^3 the node count rounds up to a multiple of |2I| = 120, and the
    # edge count is the tiled search graph's, not the base rows'
    rc = main(["oracle", "build", "--space", S3, "--wind", HOPF, "--nodes", "2000",
               "--k", "10", "--cache", str(tmp_path)])
    assert rc == 0
    built = _report(capsys.readouterr().out)["result"]
    assert built["n_nodes"] == 2040
    assert built["n_edges"] == 23520


def test_truncated_oracle_cache_is_rebuilt(tmp_path, capsys):
    # an unreadable cache file is a miss, not a traceback
    args = ["--space", E2, "--wind", WIND, "--nodes", "2000", "--k", "10",
            "--cache", str(tmp_path)]
    query = ["oracle", "query"] + args + ["--x", "[0,0]", "--y", "[1,0]"]
    assert main(["oracle", "build"] + args) == 0
    fresh = _report(capsys.readouterr().out)["result"]
    assert main(query) == 0
    want = _report(capsys.readouterr().out)["result"]
    (path,) = tmp_path.iterdir()
    data = path.read_bytes()
    for argv, result in ((query, want), (["oracle", "build"] + args, fresh)):
        path.write_bytes(data[:len(data) // 2])
        assert main(argv) == 0
        assert _report(capsys.readouterr().out)["result"] == result
        assert path.read_bytes() == data


def test_reports_are_byte_identical(tmp_path, capsys):
    argv = ["distance", "--space", E2, "--wind", WIND, "--x", "[0,0]", "--y", "[1,0]"]
    main(argv)
    first = capsys.readouterr().out
    main(argv)
    second = capsys.readouterr().out
    assert first == second


def test_usage_error_exit_code(capsys):
    rc = main(["distance", "--space", '{"kind": "nope"}', "--x", "[0,0]", "--y", "[1,0]"])
    assert rc == 2


def test_missing_space_is_usage_error(capsys):
    rc = main(["norm", "--point", "[0,0]", "--vector", "[1,0]"])
    assert rc == 2


def test_selftest_subset(capsys):
    rc = main(["selftest", "--criteria", "1,2"])
    assert rc == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert any(line.startswith("CRITERION 1: PASS") for line in lines)
    assert any(line.startswith("CRITERION 2: PASS") for line in lines)


def test_library_error_exits_two_with_one_line(capsys):
    strong = '{"type": "euclidean-const", "v": [1.2, 0.0]}'
    rc = main(["distance", "--space", E2, "--wind", strong, "--x", "[0,0]", "--y", "[1,0]"])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1


def _no_memory(*args, **kwargs):
    raise MemoryError("Unable to allocate 29.1 TiB for an array with shape (1000000000000, 4)")


@pytest.mark.parametrize("argv, patch", [
    (["oracle", "build", "--nodes", "1000000000000"], (oracle, "build_graph")),
    (["cw-check", "--samples", "1000000000000"], (Sphere, "sample")),
], ids=["oracle-build", "cw-check"])
def test_memory_error_exits_two_with_one_line(capsys, monkeypatch, argv, patch):
    # a size too large to allocate is refused as a library error is; the
    # library call raises it here, as a real allocation of that size could
    # page the machine out under memory overcommit
    monkeypatch.setattr(*patch, _no_memory)
    rc = main(argv + ["--space", S3, "--wind", HOPF])
    assert rc == 2
    assert capsys.readouterr().err == (
        "error: Unable to allocate 29.1 TiB for an array with shape (1000000000000, 4)\n")


@pytest.mark.parametrize("verb", [
    ["cw-check"], ["exhaust"], ["oracle", "build"],
    ["oracle", "query", "--x", "[1,0,0,0]", "--y", "[0,1,0,0]"],
], ids=["cw-check", "exhaust", "oracle-build", "oracle-query"])
def test_a_negative_seed_names_its_option(capsys, verb):
    with pytest.raises(SystemExit) as exc:
        main(verb + ["--space", S3, "--wind", HOPF, "--seed", "-1"])
    assert exc.value.code == 2
    assert capsys.readouterr().err.endswith("error: argument --seed: must be at least 0, got -1\n")


def test_seed_parsing_keeps_the_config_hash(capsys):
    # the seed is still the int it was when argparse read it with int()
    h, cfg = _config_of(capsys, ["cw-check", "--space", S3, "--wind", HOPF, "--seed", "3",
                                 "--samples", "10"])
    assert cfg["params"]["seed"] == 3
    assert h == "1c9e69d973d7eb79"


def _config_of(capsys, argv):
    main(argv)
    out = _report(capsys.readouterr().out)
    return out["config_hash"], out["config"]


def test_config_hash_covers_verb_arguments(capsys):
    base = ["cw-check", "--space", S3, "--wind", HOPF, "--seed", "3"]
    h10, cfg10 = _config_of(capsys, base + ["--samples", "10"])
    h40, _ = _config_of(capsys, base + ["--samples", "40"])
    assert h10 != h40
    assert cfg10["params"]["samples"] == 10


def test_config_hash_ignores_out(tmp_path, capsys):
    argv = ["distance", "--space", E2, "--wind", WIND, "--x", "[0,0]", "--y", "[1,0]"]
    h_a, cfg = _config_of(capsys, argv + ["--out", str(tmp_path / "a")])
    h_b, _ = _config_of(capsys, argv + ["--out", str(tmp_path / "b")])
    assert h_a == h_b
    assert "out" not in cfg


def test_oracle_build_reports_arguments_used(tmp_path, capsys):
    _, cfg = _config_of(capsys, ["oracle", "build", "--space", E2, "--wind", WIND,
                                 "--nodes", "2000", "--k", "10", "--cache", str(tmp_path)])
    assert cfg["params"]["nodes"] == 2000
    assert cfg["params"]["k"] == 10


BLOCKS = json.dumps({"type": "sphere-skew", "matrix":
                     [[0, -0.6, 0, 0], [0.6, 0, 0, 0], [0, 0, 0, -0.05], [0, 0, 0.05, 0]]})


@pytest.mark.parametrize("verb, point_args", [
    ("convert", ["--point", "[2,0,0,0]"]),
    ("distance", ["--x", "[2,0,0,0]", "--y", "[1,0,0,0]"]),
    ("connect", ["--x0", "[1,0,0,0]", "--x1", "[0,2,0,0]"]),
])
def test_off_manifold_point_exits_two(capsys, verb, point_args):
    rc = main([verb, "--space", S3, "--wind", HOPF] + point_args)
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error: point off the sphere") and err.count("\n") == 1


def test_product_point_with_extra_components_exits_two(capsys):
    space = json.dumps({"kind": "product", "factors": [json.loads(S3), json.loads(E2)]})
    wind = json.dumps([{**json.loads(HOPF), "factor": 0}, {**json.loads(WIND), "factor": 1}])
    rc = main(["distance", "--space", space, "--wind", wind,
               "--x", "[1,0,0,0,0,0,9]", "--y", "[1,0,0,0,0,0]"])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error: expected ambient dim 6, got 7") and err.count("\n") == 1


def test_oracle_query_checks_points_before_building(tmp_path, capsys):
    rc = main(["oracle", "query", "--space", S3, "--wind", HOPF, "--nodes", "2000",
               "--k", "10", "--cache", str(tmp_path), "--x", "[2,0,0,0]", "--y", "[1,0,0,0]"])
    assert rc == 2
    assert list(tmp_path.iterdir()) == []


def test_malformed_json_is_a_json_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["distance", "--space", E2, "--wind", WIND, "--x", "[1,0,0,", "--y", "[1,0]"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "invalid JSON" in err and "No such file" not in err


def test_json_argument_from_file(tmp_path, capsys):
    path = tmp_path / "space.json"
    path.write_text(E2)
    for spec in ("@" + str(path), str(path)):
        rc = main(["distance", "--space", spec, "--wind", WIND, "--x", "[0,0]", "--y", "[1,0]"])
        assert rc == 0
        assert _report(capsys.readouterr().out)["result"]["d_xy"] == pytest.approx(2 / 3, abs=1e-9)


def test_oracle_build_refuses_nonconstant_wind(tmp_path, capsys):
    rc = main(["oracle", "build", "--space", S3, "--wind", BLOCKS, "--nodes", "2000",
               "--k", "10", "--cache", str(tmp_path)])
    assert rc == 2
    assert "constant length" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("verb", ["oracle build", "cw-check"])
def test_product_wind_with_nonconstant_factor_exits_two(verb, tmp_path, capsys):
    # the product's length spread is 4e-13, but the sphere factor's is 5e-7
    space = json.dumps({"kind": "product", "factors": [json.loads(S3), json.loads(E2)]})
    A = np.zeros((4, 4))
    A[1, 0], A[0, 1], A[3, 2], A[2, 3] = 5e-7, -5e-7, 1e-6, -1e-6
    wind = json.dumps([{"type": "sphere-skew", "matrix": A.tolist(), "factor": 0},
                       {"type": "euclidean-const", "v": [0.9, 0.0], "factor": 1}])
    extra = []
    if verb == "oracle build":
        extra = ["--nodes", "2000", "--k", "10", "--cache", str(tmp_path)]
    rc = main(verb.split() + ["--space", space, "--wind", wind] + extra)
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error: a supported wind has constant length") and err.count("\n") == 1
    assert "on factor 0" in err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("criteria", ["12", "0", "1,x", "two", "1,,2"])
def test_selftest_unknown_criteria_exit_two(criteria, capsys):
    rc = main(["selftest", "--criteria", criteria])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith("error: --criteria takes criteria 1-9") and err.count("\n") == 1


def test_selftest_out_is_byte_identical(tmp_path, capsys):
    # wall times go to stderr, never into selftest.json
    for run in ("a", "b"):
        assert main(["selftest", "--criteria", "1", "--out", str(tmp_path / run)]) == 0
        assert "criterion 1:" in capsys.readouterr().err
    first = (tmp_path / "a" / "selftest.json").read_bytes()
    assert first == (tmp_path / "b" / "selftest.json").read_bytes()
    assert b"elapsed" not in first
    assert _report(first)["result"]["results"][0]["passed"]


def test_disconnected_oracle_net_exits_two_with_one_line(tmp_path, capsys):
    rc = main(["oracle", "build", "--space", E2, "--wind",
               '{"type": "euclidean-const", "v": [0.2, 0.0]}',
               "--nodes", "100", "--k", "2", "--cache", str(tmp_path)])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1
    assert "use a larger k" in err
    assert list(tmp_path.iterdir()) == []


ANTI_HOPF_JSON = json.dumps({"type": "sphere-skew", "matrix": ANTI_HOPF.tolist()})


@pytest.mark.parametrize("verb, args", [
    ("cw-check", ["--samples", "20"]),
    ("exhaust", ["--directions", "16"]),
    ("connect", ["--x0", "[1,0,0,0]", "--x1", "[0,0.6,0.8,0]"]),
    ("geodesic", ["--method", "flow", "--x", "[1,0,0,0]", "--direction", "[0,0.3,0.4,0.5]"]),
])
def test_anti_hopf_wind_passes_every_verb(capsys, verb, args):
    # constant length but not a multiple of J: a supported wind all the same
    rc = main([verb, "--space", S3, "--wind", ANTI_HOPF_JSON] + args)
    assert rc == 0
    result = _report(capsys.readouterr().out)["result"]
    if verb == "exhaust":
        assert result["worst_residual"] < 1e-6
    if verb == "connect":
        assert result["residual"] < 1e-9


SU2 = '{"kind": "group", "name": "SU2", "scale": 1.0}'


@pytest.mark.parametrize("space, x, y", [
    (S3, "[NaN,0,0,0]", "[1,0,0,0]"),
    (S3, "[1,0,0,0]", "[Infinity,0,0,0]"),
    (E2, "[0,NaN]", "[1,0]"),
    (SU2, "[1,0,0,-Infinity]", "[1,0,0,0]"),
], ids=["S3-nan", "S3-inf", "E2-nan", "SU2-inf"])
def test_non_finite_point_exits_two(capsys, space, x, y):
    # NaN compares False with every tolerance, so it is refused on its own
    rc = main(["distance", "--space", space, "--x", x, "--y", y])
    assert rc == 2
    bad = json.loads(x if "N" in x or "I" in x else y)
    assert capsys.readouterr().err == ("error: a point is a flat JSON array of finite numbers, "
                                       f"got {json.dumps(bad)}\n")


@pytest.mark.parametrize("factor", [5, -1])
def test_product_factor_out_of_range_exits_two(capsys, factor):
    space = json.dumps({"kind": "product", "factors": [json.loads(S3), json.loads(E2)]})
    wind = json.dumps([{**json.loads(HOPF), "factor": factor}])
    rc = main(["distance", "--space", space, "--wind", wind,
               "--x", "[1,0,0,0,0,0]", "--y", "[0,1,0,0,0,0]"])
    assert rc == 2
    err = capsys.readouterr().err
    assert err == f"error: factor {factor} out of range: this product has factors 0-1\n"


# every shared option a verb does not read, and a format cw-check never writes
DEAD_OPTIONS = [
    *[(verb, opt) for verb in ("convert", "norm", "distance", "flow")
      for opt in (["--seed", "1"], ["--tol", "1e-3"], ["--format", "json"])],
    ("geodesic", ["--seed", "1"]), ("geodesic", ["--tol", "1e-3"]),
    ("exhaust", ["--format", "json"]),
    ("connect", ["--seed", "1"]), ("connect", ["--format", "json"]),
    *[(verb, opt) for verb in ("oracle build", "oracle query")
      for opt in (["--tol", "1e-3"], ["--format", "json"])],
    *[("selftest", opt) for opt in (["--space", E2], ["--wind", WIND], ["--seed", "1"],
                                    ["--tol", "1e-3"], ["--format", "json"],
                                    ["--cache", "cache"])],
    ("cw-check", ["--format", "csv"]),
]


# each verb's required arguments, so that parsing reaches the options
REQUIRED = {"convert": ["--point", "[0,0]"], "norm": ["--point", "[0,0]", "--vector", "[1,0]"],
            "distance": ["--x", "[0,0]", "--y", "[1,0]"], "flow": ["--point", "[0,0]"],
            "geodesic": ["--x", "[0,0]", "--direction", "[1,0]"],
            "connect": ["--x0", "[0,0]", "--x1", "[1,0]"],
            "oracle query": ["--x", "[0,0]", "--y", "[1,0]"]}


@pytest.mark.parametrize("verb, option", DEAD_OPTIONS,
                         ids=[f"{v}{o[0]}" for v, o in DEAD_OPTIONS])
def test_verb_refuses_options_it_does_not_read(capsys, verb, option):
    with pytest.raises(SystemExit) as exc:
        main(verb.split() + REQUIRED.get(verb, []) + option)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert f"unrecognized arguments: {option[0]}" in err or "invalid choice: 'csv'" in err


def test_config_holds_only_options_the_verb_reads(capsys):
    _, cfg = _config_of(capsys, ["distance", "--space", E2, "--wind", WIND,
                                 "--x", "[0,0]", "--y", "[1,0]"])
    assert set(cfg) == {"space", "wind", "params"}
    assert set(cfg["params"]) == {"x", "y"}
    _, cfg = _config_of(capsys, ["cw-check", "--space", S3, "--wind", HOPF, "--samples", "10"])
    assert {k: cfg["params"][k] for k in ("seed", "tol", "format")} == {
        "seed": 0, "tol": 1e-4, "format": "json"}


@pytest.mark.parametrize("verb, option", [("cw-check", "--samples"),
                                          ("exhaust", "--directions"),
                                          ("cw-check", "--tol"),
                                          ("geodesic", "--step"),
                                          ("geodesic", "--steps")])
def test_counts_and_tolerances_are_checked_at_parse_time(capsys, verb, option):
    with pytest.raises(SystemExit) as exc:
        main([verb, "--space", S3, "--wind", HOPF, option, "0"])
    assert exc.value.code == 2
    assert f"argument {option}: must be " in capsys.readouterr().err


# numbers no verb can honour: an infinite tolerance passes every check, and
# an infinite or NaN time gives NaN points or fails inside numpy
NON_FINITE = [("flow", "--t", "inf"), ("cw-check", "--t", "nan"), ("geodesic", "--T", "inf"),
              ("geodesic", "--T", "nan"), ("cw-check", "--tol", "inf")]


@pytest.mark.parametrize("verb, option, value", NON_FINITE,
                         ids=[f"{v}{o}={x}" for v, o, x in NON_FINITE])
def test_number_options_are_finite(capsys, verb, option, value):
    with pytest.raises(SystemExit) as exc:
        main([verb, "--space", S3, "--wind", HOPF, option, value])
    assert exc.value.code == 2
    assert f"argument {option}: must be a finite number, got {value}" in capsys.readouterr().err


def test_geodesic_ode_refuses_a_negative_time(capsys):
    rc = main(["geodesic", "--space", S3, "--wind", HOPF, "--x", "[1,0,0,0]",
               "--direction", "[0,1,0,0]", "--method", "ode", "--T", "-0.01"])
    assert rc == 2
    assert capsys.readouterr().err == "error: T must be finite and at least 0, got -0.01\n"


@pytest.mark.parametrize("method", ["flow", "ode"])
def test_geodesic_refuses_a_zero_direction(capsys, method):
    # a zero direction has no F-unit multiple: the flow curve would end in
    # F(y) = nan and the ODE in a failed frame
    rc = main(["geodesic", "--space", S3, "--wind", HOPF, "--x", "[1,0,0,0]",
               "--direction", "[0,0,0,0]", "--method", method])
    assert rc == 2
    assert capsys.readouterr().err == ("error: --direction must be a nonzero tangent vector, "
                                       "got [0, 0, 0, 0]\n")


def test_cw_check_needs_two_samples(capsys):
    # one displacement has spread 0, which would read as CW
    with pytest.raises(SystemExit) as exc:
        main(["cw-check", "--space", S3, "--wind", HOPF, "--samples", "1"])
    assert exc.value.code == 2
    assert "argument --samples: must be at least 2, got 1" in capsys.readouterr().err


def test_nan_field_is_refused_not_cw(capsys):
    # the flow of a NaN generator moves every sample to NaN, and a NaN
    # displacement would read as 0 and pass as CW: the field is refused
    # where it is built
    field = '{"type": "euclidean-const", "v": [NaN, 0.0]}'
    rc = main(["cw-check", "--space", E2, "--wind", WIND, "--field", field, "--samples", "3"])
    assert rc == 2
    err = capsys.readouterr().err
    assert err == 'error: "v" is a flat JSON array of finite numbers, got [NaN, 0.0]\n'


def test_report_with_a_non_finite_number_exits_two(tmp_path, capsys):
    # strict JSON has no Infinity: the report of an overflowing flow is
    # refused, and no file is written
    field = '{"type": "euclidean-const", "v": [1e308, 0.0]}'
    rc = main(["flow", "--space", E2, "--field", field, "--point", "[0,0]", "--t", "10",
               "--out", str(tmp_path)])
    assert rc == 2
    assert capsys.readouterr() == ("", "error: Out of range float values are not JSON "
                                   "compliant: inf\n")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("space, wind, says", [
    (S3, '{"type": "hopf", "c": NaN}', '"c" is a finite number, got NaN'),
    (S3, '{"type": "sphere-skew", "matrix": [[0, -Infinity, 0, 0], [Infinity, 0, 0, 0], '
         '[0, 0, 0, 0], [0, 0, 0, 0]]}',
     '"matrix" is a JSON array of arrays of finite numbers, got [[0, -Infinity, 0, 0], '),
    (SU2, '{"type": "group-left", "l": [0, NaN, 0, 0]}',
     '"l" is a flat JSON array of finite numbers, got [0, NaN, 0, 0]'),
    (SU2, '{"type": "group-pair", "l": [0, 0.1, 0, 0], "r": [0, 0, Infinity, 0]}',
     '"r" is a flat JSON array of finite numbers, got [0, 0, Infinity, 0]'),
], ids=["hopf-nan", "skew-inf", "left-nan", "pair-inf"])
def test_non_finite_generators_exit_two(capsys, space, wind, says):
    # NaN passes the skew and pure-imaginary checks, as it compares False
    rc = main(["distance", "--space", space, "--wind", wind,
               "--x", "[1,0,0,0]", "--y", "[0,1,0,0]"])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {says}") and err.count("\n") == 1


@pytest.mark.parametrize("space, wind, says", [
    (E2, HOPF, "SphereKilling acts on a Sphere, not on Euclidean(n=2, box=5.0)"),
    (E2, '{"type": "sphere-skew", "matrix": [[0, -0.3], [0.3, 0]]}',
     "SphereKilling acts on a Sphere, not on Euclidean(n=2, box=5.0)"),
    (E2, '{"type": "group-left", "l": [0, 0.3, 0, 0]}',
     "GroupKilling acts on a CompactGroup, not on Euclidean(n=2, box=5.0)"),
    (S3, '{"type": "euclidean-const", "v": [0.3, 0, 0, 0]}',
     "EuclideanKilling acts on a Euclidean, not on Sphere(dim=3, radius=1.0)"),
    (SU2, HOPF, "SphereKilling acts on a Sphere, not on CompactGroup(name='SU2', scale=1.0)"),
], ids=["hopf-E2", "skew-E2", "group-E2", "const-S3", "hopf-SU2"])
def test_field_on_a_space_of_another_kind_exits_two(capsys, space, wind, says):
    x, y = ("[0,0]", "[1,0]") if space == E2 else ("[1,0,0,0]", "[0,1,0,0]")
    rc = main(["distance", "--space", space, "--wind", wind, "--x", x, "--y", y])
    assert rc == 2
    assert capsys.readouterr().err == f"error: {says}\n"


def test_overflowing_flow_prints_one_error_line(capsys):
    # numpy's overflow warnings would precede the error that refuses the rows
    rc = main(["cw-check", "--space", E2, "--wind", WIND, "--t", "1.7e308"])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error: f_distance needs finite points") and err.count("\n") == 1


def test_cw_check_on_a_right_wind(capsys):
    # a right wind's family acts on the left
    rc = main(["cw-check", "--space", SU2, "--wind", '{"type": "group-right", "r": [0, 0, 0.3, 0]}',
               "--samples", "20"])
    assert rc == 0
    assert _report(capsys.readouterr().out)["result"]["verdict"] == "CW"


def test_every_library_error_is_a_value_error():
    # the CLI exits 2 on a ValueError; SearchFailed is a verdict (exit 1)
    errors = set()
    for info in pkgutil.iter_modules(randers_lab.__path__):
        mod = importlib.import_module(f"randers_lab.{info.name}")
        errors |= {obj for obj in vars(mod).values() if isinstance(obj, type)
                   and issubclass(obj, BaseException) and obj.__module__ == mod.__name__}
    assert len(errors) >= 10
    assert {e for e in errors if not issubclass(e, ValueError)} == {SearchFailed}
    # and each is exported, so a caller can catch it by name
    assert {e.__name__ for e in errors} <= set(randers_lab.__all__)


PRODUCT = json.dumps({"kind": "product", "factors": [json.loads(S3), json.loads(E2)]})


@pytest.mark.parametrize("args, says", [
    (["--space", "[1]"], 'a space is a JSON object with a "kind", got [1]'),
    (["--space", '{"kind": "product", "factors": [1]}'], "a space is a JSON object"),
    (["--space", '{"kind": "product"}'], 'a product\'s "factors" is missing'),
    (["--space", S3, "--wind", '"hopf"'], "a field on Sphere is one JSON object"),
    (["--space", S3, "--wind", f"[{HOPF}]"], "a field on Sphere is one JSON object"),
    (["--space", PRODUCT, "--wind", "[1]"], 'a product field is a JSON object with a "type"'),
    (["--space", S3, "--x", "{}"], "a point is a flat JSON array of numbers, got {}"),
    (["--space", S3, "--x", "[[1,0,0,0]]"], "a point is a flat JSON array of numbers"),
], ids=["space-list", "factor-number", "product-no-factors", "wind-string", "wind-list",
        "product-wind-number", "point-object", "point-nested"])
def test_json_of_the_wrong_shape_exits_two(capsys, args, says):
    argv = ["distance", "--x", "[1,0,0,0]", "--y", "[0,1,0,0]"] + args
    rc = main(argv)
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {says}") and err.count("\n") == 1


@pytest.mark.parametrize("verb, args, says", [
    ("norm", ["--point", "[1,0,0,0]", "--vector", "[0,1,0]"],
     "a tangent vector here is 4 finite numbers"),
    ("geodesic", ["--x", "[1,0,0,0]", "--direction", "[0,1,0,0,0]"],
     "a tangent vector here is 4 finite numbers"),
    ("geodesic", ["--x", "[1,0,0,0]", "--direction", "[0,NaN,0,0]"],
     "a tangent vector is a flat JSON array of finite numbers, got [0, NaN, 0, 0]"),
], ids=["norm-args0", "geodesic-args1", "geodesic-args2"])
def test_tangent_vectors_need_the_ambient_length(capsys, verb, args, says):
    rc = main([verb, "--space", S3, "--wind", HOPF] + args)
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {says}")
    assert err.count("\n") == 1


@pytest.mark.parametrize("space, wind, says", [
    (S3, '{"type": "sphere-skew", "matrix": [[0, -0.3], [0.3, 0]]}',
     "a generator on S^3 is a 4x4 matrix, got shape (2, 2)"),
    (SU2, '{"type": "group-left", "l": [0, 0.3, 0]}',
     "group generators are quaternions of 4 numbers, got shapes (3,) and (4,)"),
], ids=["sphere-2x2", "group-3"])
def test_generators_of_the_wrong_shape_exit_two(capsys, space, wind, says):
    rc = main(["distance", "--space", space, "--wind", wind,
               "--x", "[1,0,0,0]", "--y", "[0,1,0,0]"])
    assert rc == 2
    assert capsys.readouterr().err == f"error: {says}\n"


def test_off_group_point_exits_two(capsys):
    rc = main(["distance", "--space", SU2, "--x", "[1,0,0,0.1]", "--y", "[0,1,0,0]"])
    assert rc == 2
    err = capsys.readouterr().err
    assert err == "error: point off the group by 4.988e-03\n"


def test_flow_then_distance_on_a_large_sphere(capsys):
    # the flowed point is off |x| = 1e4 by about 2e-12, which an absolute
    # tolerance refused
    space = '{"kind": "sphere", "dim": 3, "radius": 10000.0}'
    assert main(["flow", "--space", space, "--field", BLOCKS, "--point", "[6000,0,0,8000]"]) == 0
    p = json.dumps(_report(capsys.readouterr().out)["result"]["point"])
    assert main(["distance", "--space", space, "--x", p, "--y", "[6000,0,0,8000]"]) == 0


@pytest.mark.parametrize("argv, files", [
    (["convert", "--space", S3, "--wind", HOPF, "--point", "[1,0,0,0]"], []),
    (["norm", "--space", S3, "--wind", HOPF, "--point", "[1,0,0,0]", "--vector", "[0,1,0,0]"], []),
    (["distance", "--space", E2, "--wind", WIND, "--x", "[0,0]", "--y", "[1,0]"], []),
    (["geodesic", "--space", E2, "--x", "[0,0]", "--direction", "[1,0]", "--format", "csv"],
     ["geodesic.csv"]),
    (["geodesic", "--space", E2, "--x", "[0,0]", "--direction", "[1,0]", "--format", "svg"],
     ["geodesic.svg"]),
    (["flow", "--space", S3, "--wind", HOPF, "--point", "[1,0,0,0]"], []),
    (["cw-check", "--space", S3, "--wind", HOPF, "--samples", "10", "--format", "svg"],
     ["cw-displacements.svg"]),
    (["exhaust", "--space", S3, "--wind", HOPF, "--directions", "5"], []),
    (["connect", "--space", E2, "--wind", WIND, "--x0", "[0,0]", "--x1", "[2,1]"], []),
    (["oracle", "build", "--space", E2, "--nodes", "300", "--k", "8"], []),
    (["oracle", "query", "--space", E2, "--nodes", "300", "--k", "8", "--x", "[0,0]",
      "--y", "[1,1]"], []),
], ids=["convert", "norm", "distance", "geodesic-csv", "geodesic-svg", "flow", "cw-check",
        "exhaust", "connect", "oracle-build", "oracle-query"])
def test_out_holds_the_report_and_the_artifact(tmp_path, monkeypatch, capsys, argv, files):
    monkeypatch.setenv("RANDERS_LAB_CACHE", str(tmp_path / "cache"))
    name = "-".join(argv[:2]) if argv[0] == "oracle" else argv[0]
    assert main(argv + ["--out", str(tmp_path / "out")]) == 0
    out = capsys.readouterr().out
    assert sorted(p.name for p in (tmp_path / "out").iterdir()) == sorted([f"{name}.json"] + files)
    assert (tmp_path / "out" / f"{name}.json").read_text() == out


def test_cw_check_writes_the_displacement_histogram(tmp_path, capsys):
    rc = main(["cw-check", "--space", S3, "--wind", HOPF, "--samples", "20",
               "--format", "svg", "--out", str(tmp_path)])
    assert rc == 0
    svg = (tmp_path / "cw-displacements.svg").read_text()
    assert svg.startswith("<svg") and "<rect" in svg
    assert _report((tmp_path / "cw-check.json").read_text())["result"]["verdict"] == "CW"


def test_cw_check_histogram_of_displacements_equal_to_rounding(tmp_path, capsys):
    # a Hopf flow moves every sample by 0.4 to within 1e-15, a range too
    # narrow for 24 finite-sized bins unless it is widened
    rc = main(["cw-check", "--space", S3, "--wind", HOPF, "--seed", "3", "--t", "0.4",
               "--samples", "30", "--format", "svg", "--out", str(tmp_path)])
    assert rc == 0
    svg = (tmp_path / "cw-displacements.svg").read_text()
    assert svg.startswith("<svg") and "<rect" in svg
    assert "range [0.4, 0.4]" in svg


@pytest.mark.parametrize("verb, space, wind, says", [
    ("exhaust", '{"kind": "euclidean", "n": 2, "box": NaN}', None,
     '"box" is a finite number, got NaN'),
    ("distance", '{"kind": "sphere", "dim": 3, "radius": NaN}', None,
     '"radius" is a finite number, got NaN'),
    ("distance", E2, '{"type": "euclidean-const", "v": [Infinity, 0]}',
     '"v" is a flat JSON array of finite numbers, got [Infinity, 0]'),
], ids=["box-nan", "radius-nan", "wind-leaf-inf"])
def test_non_finite_config_numbers_exit_two_naming_the_key(capsys, verb, space, wind, says):
    x, y = ("[0,0]", "[1,0]") if "euclidean" in space else ("[1,0,0,0]", "[0,1,0,0]")
    argv = [verb, "--space", space] + (["--x", x, "--y", y] if verb == "distance" else [])
    rc = main(argv + (["--wind", wind] if wind else []))
    assert rc == 2
    assert capsys.readouterr().err == f"error: {says}\n"


@pytest.mark.parametrize("argv, says", [
    (["oracle", "query", "--space", '{"kind": "euclidean", "n": 2, "box": 1e160}',
      "--wind", '{"type": "zero"}', "--nodes", "200", "--k", "8", "--x", "[0,0]",
      "--y", "[1,0]"],
     "the kd-tree found fewer than 8 neighbours of a node, as chord lengths overflow"),
    (["distance", "--space", '{"kind": "euclidean", "n": 0}', "--wind", '{"type": "zero"}',
      "--x", "[]", "--y", "[]"], "euclidean dimension must be >= 1, got 0"),
    (["distance", "--space", '{"kind": "euclidean", "n": -1}', "--wind", '{"type": "zero"}',
      "--x", "[]", "--y", "[]"], "euclidean dimension must be >= 1, got -1"),
], ids=["oracle-box-1e160", "euclidean-n0", "euclidean-n-neg"])
def test_unusable_euclidean_spaces_exit_two_with_one_line(capsys, argv, says):
    # squared chords of a 1e160 box overflow, and the kd-tree marks the
    # neighbours it cannot find with index n
    rc = main(argv)
    assert rc == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.count("\n") == 1
    assert captured.err.startswith(f"error: {says}")


def test_exhaust_at_a_given_point(capsys):
    rc = main(["exhaust", "--space", S3, "--wind", HOPF, "--point", "[0,0.6,0.8,0]",
               "--directions", "10"])
    assert rc == 0
    result = _report(capsys.readouterr().out)["result"]
    assert result["base_point"] == [0.0, 0.6, 0.8, 0.0]
    assert result["passed"] and result["worst_residual"] < 1e-6


def test_connect_below_reach_reports_its_best_residual(capsys):
    # no search meets a tolerance of 1e-300: exit 1 with the residual it got
    rc = main(["connect", "--space", S3, "--wind", HOPF, "--x0", "[1,0,0,0]",
               "--x1", "[0,0.6,0.8,0]", "--tol", "1e-300"])
    assert rc == 1
    result = _report(capsys.readouterr().out)["result"]
    assert result["failed"] is True
    assert 0.0 < result["best_residual"] < 1e-9


def test_geodesic_ode_follows_the_flow_curve(capsys):
    args = ["geodesic", "--space", S3, "--wind", HOPF, "--x", "[1,0,0,0]",
            "--direction", "[0,0.3,0.4,0.5]", "--T", "0.05"]
    assert main(args + ["--method", "ode", "--step", "0.01"]) == 0
    ode = _report(capsys.readouterr().out)["result"]
    assert main(args + ["--method", "flow", "--steps", "5"]) == 0
    flow = _report(capsys.readouterr().out)["result"]
    assert ode["method"] == "ode" and not ode["diverged"] and ode["n_points"] == 6
    np.testing.assert_allclose(ode["endpoint"], flow["endpoint"], rtol=0, atol=1e-9)


@pytest.mark.parametrize("space, wind, says", [
    ('{"kind": "sphere", "dim": [3]}', None, '"dim" is an integer, got [3]'),
    (S3, '{"type": "hopf", "c": [0.3]}', '"c" is a number, got [0.3]'),
    ('{"kind": "sphere", "dim": true}', None, '"dim" is an integer, got true'),
    ('{"kind": "sphere", "dim": 3.5}', None, '"dim" is an integer, got 3.5'),
    ('{"kind": "sphere", "dim": 3, "radius": {"r": 1}}', None,
     '"radius" is a number, got {"r": 1}'),
    (PRODUCT, '{"type": "zero", "factor": "0"}', '"factor" is an integer, got "0"'),
    (S3, '{"type": "hopf"}', '"c" is missing'),
], ids=["dim-list", "c-list", "dim-bool", "dim-fraction", "radius-object", "factor-string",
        "c-missing"])
def test_scalar_json_slots_exit_two(capsys, space, wind, says):
    argv = ["distance", "--space", space, "--x", "[1,0,0,0]", "--y", "[0,1,0,0]"]
    rc = main(argv + (["--wind", wind] if wind else []))
    assert rc == 2
    assert capsys.readouterr().err == f"error: {says}\n"


@pytest.mark.parametrize("space, wind, says", [
    (E2, '{"type": "euclidean-const", "v": [true, 0]}',
     '"v" is a flat JSON array of numbers, got [true, 0]'),
    (S3, '{"type": "sphere-skew", "matrix": [[0, "-0.3", 0, 0], [0.3, 0, 0, 0], '
         '[0, 0, 0, -0.3], [0, 0, 0.3, 0]]}',
     '"matrix" is a JSON array of arrays of numbers, got [[0, "-0.3", 0, 0], '
     '[0.3, 0, 0, 0], [0, 0, 0, -0.3], [0, 0, 0.3, 0]]'),
    (S3, '{"type": "sphere-skew"}', '"matrix" is missing'),
    (S3, '{"type": "sphere-skew", "matrix": [[0, -0.3], [0.3]]}',
     '"matrix" is a JSON array of arrays of numbers, got [[0, -0.3], [0.3]]'),
], ids=["v-bool", "matrix-string", "matrix-missing", "matrix-ragged"])
def test_array_json_slots_exit_two(capsys, space, wind, says):
    x, y = ("[0,0]", "[1,0]") if space == E2 else ("[1,0,0,0]", "[0,1,0,0]")
    rc = main(["distance", "--space", space, "--wind", wind, "--x", x, "--y", y])
    assert rc == 2
    assert capsys.readouterr().err == f"error: {says}\n"


def test_connect_on_scaled_su2(capsys):
    # the left wind 0.3 in h = 0.8^2 * dot; the direction to the target is
    # normalised in h, so the closed form meets its tolerance
    rc = main(["connect", "--space", '{"kind": "group", "name": "SU2", "scale": 0.8}',
               "--wind", '{"type": "group-left", "l": [0, 0.375, 0, 0]}',
               "--x0", "[1,0,0,0]", "--x1", "[0.5,0.5,0.5,0.5]"])
    assert rc == 0
    result = _report(capsys.readouterr().out)["result"]
    assert result["method"] == "closed-form" and result["residual"] < 1e-9


@pytest.mark.parametrize("verb, args", [
    ("norm", ["--point", "[1,0,0,0]", "--vector", "[1,0,0,0]"]),
    ("norm", ["--point", "[1,0,0,0]", "--vector", "[0.5,1,0,0]"]),
    ("geodesic", ["--x", "[0,0.6,0.8,0]", "--direction", "[0,1,0,0]"]),
])
def test_non_tangent_vectors_exit_two(capsys, verb, args):
    rc = main([verb, "--space", S3, "--wind", HOPF] + args)
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error: [") and "is not tangent at" in err and err.count("\n") == 1


def test_tangent_vector_to_rounding_is_taken(capsys):
    rc = main(["norm", "--space", S3, "--wind", HOPF, "--point", "[1,0,0,0]",
               "--vector", "[1e-13,1,0,0]"])
    assert rc == 0
    result = _report(capsys.readouterr().out)["result"]
    assert abs(result["F_navigation"] - result["F_defining"]) <= 1e-12


def _run_python(*argv):
    env = dict(os.environ, PYTHONPATH=str(SRC))
    return subprocess.run([sys.executable, *argv], capture_output=True, text=True, env=env,
                          timeout=120)


def test_cli_starts_without_scipy_and_the_namespace_loads_on_first_use():
    # a name outside the API fails without importing anything (so that
    # `from . import quat` falls through to the submodule); the CLI loads no
    # scipy; the first exported name loads the whole API, oracle included
    proc = _run_python("-c", (
        "import sys, randers_lab\n"
        "try:\n"
        "    randers_lab.nope\n"
        "except AttributeError:\n"
        "    print(sorted(m for m in sys.modules if m.startswith('randers_lab.')))\n"
        "import randers_lab.cli\n"
        "print('scipy' in sys.modules)\n"
        "print(randers_lab.build_graph.__module__, 'scipy' in sys.modules)\n"))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["[]", "False", "randers_lab.oracle True"]


def _cli_imports(*argv):
    """The report of `python -m randers_lab.cli ARGV`, and the top-level
    packages of the modules it imported, as `-X importtime` lists them on
    stderr (a module loaded by `importlib.import_module` is listed by the
    modules it imports in turn)."""
    proc = _run_python("-X", "importtime", "-m", "randers_lab.cli", *argv)
    assert proc.returncode == 0, proc.stderr
    return _report(proc.stdout), {line.rsplit("|", 1)[1].strip().split(".")[0] for line in
                                  proc.stderr.splitlines() if line.startswith("import time:")}


def test_a_compact_cached_query_starts_without_scipy(tmp_path):
    # the build loads scipy (kd-tree, search graph); a compact query on the
    # cached graph needs none of it: the snaps and the path come from chords
    # and node 0's row of d_land
    args = ["--space", S3, "--wind", HOPF, "--nodes", "2000", "--k", "16",
            "--cache", str(tmp_path)]
    _, imported = _cli_imports("oracle", "build", *args)
    assert "scipy" in imported
    report, imported = _cli_imports("oracle", "query", *args,
                                    "--x", "[1,0,0,0]", "--y", "[0,0,1,0]")
    assert "scipy" not in imported and "numpy" in imported
    assert report["result"]["estimate"] > 0


def test_a_cached_build_starts_without_scipy(tmp_path):
    # a cache hit reports the graph without tiling it: n_edges is counted
    # from the base rows and their mirrors, so no scipy loads, and the
    # report is the cold build's
    args = ["oracle", "build", "--space", S3, "--wind", HOPF, "--nodes", "2000", "--k", "16",
            "--cache", str(tmp_path)]
    cold, imported = _cli_imports(*args)
    assert "scipy" in imported
    cached, imported = _cli_imports(*args)
    assert "scipy" not in imported and "numpy" in imported
    assert cached["result"] == cold["result"] and cached["result"]["n_edges"] > 0


def test_a_query_that_searches_loads_scipy(tmp_path, monkeypatch, capsys):
    # on S^3 x R^2 a pair whose graph path may win runs Dijkstra, which
    # binds scipy on the way
    from randers_lab import oracle

    wind = ('[{"type": "hopf", "c": 0.6, "factor": 0},'
            ' {"type": "euclidean-const", "v": [0.6, 0.0], "factor": 1}]')
    args = ["--space", PRODUCT, "--wind", wind, "--nodes", "500", "--k", "16",
            "--cache", str(tmp_path)]
    assert main(["oracle", "build", *args]) == 0
    searched = []
    real = oracle._scipy("dijkstra")

    def counted(*a, **kw):
        searched.append(kw["indices"])
        return real(*a, **kw)

    monkeypatch.setattr(oracle, "dijkstra", counted)
    x, y = "[0,1,0,0,0,0]", "[1,0,0,0,0,0]"
    capsys.readouterr()
    assert main(["oracle", "query", *args, "--x", x, "--y", y]) == 0
    assert len(searched) == 1  # read from the cache, so the search is the query's
    want = _report(capsys.readouterr().out)["result"]
    report, imported = _cli_imports("oracle", "query", *args, "--x", x, "--y", y)
    assert "scipy" in imported and report["result"] == want


def test_the_oracle_builds_without_the_namespace():
    # importing the module directly binds no exported name in the package,
    # and the build binds the scipy names it needs on the way
    proc = _run_python("-c", (
        "import sys, randers_lab\n"
        "from randers_lab.oracle import build_graph\n"
        "from randers_lab.randers import NavigationData\n"
        "from randers_lab.killing import hopf_field\n"
        "from randers_lab.spaces import Sphere\n"
        "s3 = Sphere(3, 1.0)\n"
        "g = build_graph(NavigationData(s3, hopf_field(s3, 0.3)), 2000, 16, seed=5)\n"
        "print(g.graph_hash, 'scipy' in sys.modules)\n"
        "print([n for n in randers_lab.__all__ if n in vars(randers_lab)])\n"))
    assert proc.returncode == 0, proc.stderr
    s3 = randers_lab.Sphere(3, 1.0)
    g = randers_lab.build_graph(randers_lab.NavigationData(s3, randers_lab.hopf_field(s3, 0.3)),
                                2000, 16, seed=5)
    assert proc.stdout.splitlines() == [f"{g.graph_hash} True", "[]"]


def test_disconnected_net_exits_two_from_a_child_process(tmp_path):
    proc = _run_python("-m", "randers_lab.cli", "oracle", "build", "--space", E2,
                       "--nodes", "100", "--k", "1", "--cache", str(tmp_path))
    assert proc.returncode == 2
    assert proc.stderr.startswith("error:") and proc.stderr.count("\n") == 1
    assert "use a larger k" in proc.stderr and proc.stdout == ""
