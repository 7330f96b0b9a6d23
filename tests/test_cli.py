from __future__ import annotations

import json

import numpy as np
import pytest

from randers_lab.cli import main

from conftest import ANTI_HOPF

E2 = '{"kind": "euclidean", "n": 2}'
WIND = '{"type": "euclidean-const", "v": [0.5, 0.0]}'
S3 = '{"kind": "sphere", "dim": 3, "radius": 1.0}'
HOPF = '{"type": "hopf", "c": 0.3}'


def test_convert_fixture(capsys):
    rc = main(["convert", "--space", E2, "--wind", WIND, "--point", "[0.0, 0.0]"])
    assert rc == 0
    out = json.loads(capsys.readouterr().out)
    np.testing.assert_allclose(out["result"]["a"], [[16 / 9, 0], [0, 4 / 3]], atol=1e-14)
    np.testing.assert_allclose(out["result"]["b"], [-2 / 3, 0], atol=1e-14)
    assert out["result"]["lambda"] == pytest.approx(0.75)
    assert out["version"]
    assert out["config_hash"]


def test_convert_tracks_full_float_precision(capsys):
    main(["convert", "--space", E2, "--wind", WIND, "--point", "[0.1, 0.2]"])
    out = json.loads(capsys.readouterr().out)
    # JSON floats round-trip bit-exactly (repr gives 17 significant digits
    # whenever needed)
    assert out["result"]["a"][0][0] == 16 / 9


def test_norm_subcommand(capsys):
    rc = main(["norm", "--space", E2, "--wind", WIND,
               "--point", "[0,0]", "--vector", "[1,0]"])
    assert rc == 0
    out = json.loads(capsys.readouterr().out)
    assert out["result"]["F_navigation"] == pytest.approx(2 / 3, abs=1e-14)
    assert out["result"]["F_defining"] == pytest.approx(2 / 3, abs=1e-10)


def test_distance_subcommand(capsys):
    rc = main(["distance", "--space", E2, "--wind", WIND, "--x", "[0,0]", "--y", "[1,0]"])
    assert rc == 0
    out = json.loads(capsys.readouterr().out)
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
    out = json.loads(capsys.readouterr().out)
    p = np.array(out["result"]["point"])
    np.testing.assert_allclose(np.linalg.norm(p), 1.0, atol=1e-12)
    np.testing.assert_allclose(p, [np.cos(0.15), np.sin(0.15), 0, 0], atol=1e-12)


def test_cw_check_hopf_exits_zero(capsys):
    rc = main(["cw-check", "--space", S3, "--wind", HOPF, "--seed", "3",
               "--samples", "50", "--tol", "1e-4"])
    assert rc == 0
    out = json.loads(capsys.readouterr().out)
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
    out = json.loads(capsys.readouterr().out)
    assert out["result"]["worst_residual"] < 1e-6


def test_connect_subcommand(capsys):
    rc = main(["connect", "--space", E2, "--wind", WIND, "--x0", "[0,0]",
               "--x1", "[2,1]"])
    assert rc == 0
    out = json.loads(capsys.readouterr().out)
    assert out["result"]["residual"] < 1e-9
    assert out["result"]["member"]["type"] == "euclidean-const"


def test_oracle_build_and_query(tmp_path, capsys):
    args = ["--space", E2, "--wind", WIND, "--nodes", "2000", "--k", "10",
            "--cache", str(tmp_path)]
    rc = main(["oracle", "build"] + args)
    assert rc == 0
    built = json.loads(capsys.readouterr().out)
    assert built["result"]["n_nodes"] == 2000
    # directed arcs, the count from when each orientation was its own row
    assert built["result"]["n_edges"] == 22946

    rc = main(["oracle", "query"] + args + ["--x", "[0,0]", "--y", "[1,0]"])
    assert rc == 0
    out = json.loads(capsys.readouterr().out)
    assert out["result"]["estimate"] == pytest.approx(2 / 3, rel=0.10)


def test_oracle_build_reports_the_orbit_net(tmp_path, capsys):
    # on S^3 the node count rounds up to a multiple of |2I| = 120, and the
    # edge count is the tiled search graph's, not the base rows'
    rc = main(["oracle", "build", "--space", S3, "--wind", HOPF, "--nodes", "2000",
               "--k", "10", "--cache", str(tmp_path)])
    assert rc == 0
    built = json.loads(capsys.readouterr().out)["result"]
    assert built["n_nodes"] == 2040
    assert built["n_edges"] == 23520


def test_truncated_oracle_cache_is_rebuilt(tmp_path, capsys):
    # an unreadable cache file is a miss, not a traceback
    args = ["--space", E2, "--wind", WIND, "--nodes", "2000", "--k", "10",
            "--cache", str(tmp_path)]
    query = ["oracle", "query"] + args + ["--x", "[0,0]", "--y", "[1,0]"]
    assert main(["oracle", "build"] + args) == 0
    fresh = json.loads(capsys.readouterr().out)["result"]
    assert main(query) == 0
    want = json.loads(capsys.readouterr().out)["result"]
    (path,) = tmp_path.iterdir()
    data = path.read_bytes()
    for argv, result in ((query, want), (["oracle", "build"] + args, fresh)):
        path.write_bytes(data[:len(data) // 2])
        assert main(argv) == 0
        assert json.loads(capsys.readouterr().out)["result"] == result
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


def _config_of(capsys, argv):
    main(argv)
    out = json.loads(capsys.readouterr().out)
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
        assert json.loads(capsys.readouterr().out)["result"]["d_xy"] == pytest.approx(2 / 3, abs=1e-9)


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
    result = json.loads(capsys.readouterr().out)["result"]
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
    assert capsys.readouterr().err == "error: point has non-finite coordinates\n"


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
                                    ["--tol", "1e-3"], ["--format", "json"])],
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


PRODUCT = json.dumps({"kind": "product", "factors": [json.loads(S3), json.loads(E2)]})


@pytest.mark.parametrize("args, says", [
    (["--space", "[1]"], 'a space is a JSON object with a "kind", got [1]'),
    (["--space", '{"kind": "product", "factors": [1]}'], "a space is a JSON object"),
    (["--space", S3, "--wind", '"hopf"'], "a field on Sphere is one JSON object"),
    (["--space", S3, "--wind", f"[{HOPF}]"], "a field on Sphere is one JSON object"),
    (["--space", PRODUCT, "--wind", "[1]"], 'a product field is a JSON object with a "type"'),
    (["--space", S3, "--x", "{}"], "a point is a flat JSON array of numbers, got {}"),
    (["--space", S3, "--x", "[[1,0,0,0]]"], "a point is a flat JSON array of numbers"),
], ids=["space-list", "factor-number", "wind-string", "wind-list", "product-wind-number",
        "point-object", "point-nested"])
def test_json_of_the_wrong_shape_exits_two(capsys, args, says):
    argv = ["distance", "--x", "[1,0,0,0]", "--y", "[0,1,0,0]"] + args
    rc = main(argv)
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {says}") and err.count("\n") == 1


@pytest.mark.parametrize("verb, args", [
    ("norm", ["--point", "[1,0,0,0]", "--vector", "[0,1,0]"]),
    ("geodesic", ["--x", "[1,0,0,0]", "--direction", "[0,1,0,0,0]"]),
    ("geodesic", ["--x", "[1,0,0,0]", "--direction", "[0,NaN,0,0]"]),
])
def test_tangent_vectors_need_the_ambient_length(capsys, verb, args):
    rc = main([verb, "--space", S3, "--wind", HOPF] + args)
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error: a tangent vector here is 4 finite numbers")
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
    assert err.startswith("error: quaternion norm off by") and err.count("\n") == 1


def test_cw_check_writes_the_displacement_histogram(tmp_path, capsys):
    rc = main(["cw-check", "--space", S3, "--wind", HOPF, "--samples", "20",
               "--format", "svg", "--out", str(tmp_path)])
    assert rc == 0
    svg = (tmp_path / "cw-displacements.svg").read_text()
    assert svg.startswith("<svg") and "<rect" in svg
    assert (tmp_path / "cw-check.json").exists()


def test_exhaust_at_a_given_point(capsys):
    rc = main(["exhaust", "--space", S3, "--wind", HOPF, "--point", "[0,0.6,0.8,0]",
               "--directions", "10"])
    assert rc == 0
    result = json.loads(capsys.readouterr().out)["result"]
    assert result["base_point"] == [0.0, 0.6, 0.8, 0.0]
    assert result["passed"] and result["worst_residual"] < 1e-6


def test_connect_below_reach_reports_its_best_residual(capsys):
    # no search meets a tolerance of 1e-300: exit 1 with the residual it got
    rc = main(["connect", "--space", S3, "--wind", HOPF, "--x0", "[1,0,0,0]",
               "--x1", "[0,0.6,0.8,0]", "--tol", "1e-300"])
    assert rc == 1
    result = json.loads(capsys.readouterr().out)["result"]
    assert result["failed"] is True
    assert 0.0 < result["best_residual"] < 1e-9


def test_geodesic_ode_follows_the_flow_curve(capsys):
    args = ["geodesic", "--space", S3, "--wind", HOPF, "--x", "[1,0,0,0]",
            "--direction", "[0,0.3,0.4,0.5]", "--T", "0.05"]
    assert main(args + ["--method", "ode", "--step", "0.01"]) == 0
    ode = json.loads(capsys.readouterr().out)["result"]
    assert main(args + ["--method", "flow", "--steps", "5"]) == 0
    flow = json.loads(capsys.readouterr().out)["result"]
    assert ode["method"] == "ode" and not ode["diverged"] and ode["n_points"] == 6
    np.testing.assert_allclose(ode["endpoint"], flow["endpoint"], rtol=0, atol=1e-9)
