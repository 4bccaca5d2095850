"""Command-line interface: config parsing, field dumps, golden outputs,
exit codes, and byte-level determinism."""

import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from liouville import (
    ConfigError,
    CriticalSpectrum,
    SingularitySet,
    SolverOptions,
    SurfaceSpec,
    check_h1,
    enumerate_spectrum,
    fieldio,
    locate_region,
)
from liouville.cli import main
from liouville.config import load_config
from liouville.solver import MAX_RESOLUTION, MAX_STEPS, check_resolution

EXCHANGE = [[0.0, 1.0], [1.0, 0.0]]
TORUS = {"type": "closed", "genus": 1}
DATA = Path(__file__).parent / "data"


def write_config(tmp_path, data, name="cfg.json"):
    p = tmp_path / name
    p.write_text(json.dumps(data))
    return str(p)


def run_json(capsys, *argv):
    code = main([*argv, "--json"])
    captured = capsys.readouterr()
    payload = json.loads(captured.out) if captured.out.strip() else None
    return code, payload


# --------------------------------------------------------- config parsing


def test_minimal_config_gets_defaults(tmp_path):
    cfg = load_config(write_config(tmp_path, {"matrix": [[1.0]]}))
    assert cfg.matrix.n == 1
    assert cfg.rho is None
    assert cfg.surface is None
    assert cfg.singularities.count == 0
    assert cfg.resolution == 64
    assert cfg.solver.tol == 1e-8
    assert cfg.solver.steps == 10
    assert cfg.exponent_cap is None
    assert cfg.critical_tol is None
    assert cfg.sigma is None and cfg.mu is None and cfg.direction is None


def test_full_config_round_trip(tmp_path):
    data = {
        "matrix": EXCHANGE,
        "rho": [1.0, 2.0],
        "surface": {"type": "closed", "genus": 2},
        "singularities": [
            {"gamma": 1.0, "position": [0.25, 0.25]},
            {"gamma": 0.5, "position": [0.75, 0.5]},
        ],
        "solver": {"resolution": 32, "tol": 1e-10, "steps": 5},
        "caps": {"exponent_cap": 12.0, "tolerance": 1e-6},
        "sigma": [4.0, 4.0],
        "mu": 2.0,
        "direction": [1.0, 1.0],
    }
    cfg = load_config(write_config(tmp_path, data))
    assert cfg.surface.chi == -2
    np.testing.assert_array_equal(cfg.rho, [1.0, 2.0])
    assert cfg.singularities.gammas == (1.0, 0.5)
    assert cfg.singularities.positions == ((0.25, 0.25), (0.75, 0.5))
    assert cfg.resolution == 32
    assert cfg.exponent_cap == 12.0
    assert cfg.critical_tol == 1e-6
    assert cfg.mu == 2.0
    np.testing.assert_array_equal(cfg.direction, [1.0, 1.0])


def test_surface_forms(tmp_path):
    chi = load_config(
        write_config(tmp_path, {"matrix": [[1.0]], "surface": {"chi": -3}})
    )
    assert chi.surface.chi == -3
    dom = load_config(
        write_config(
            tmp_path,
            {"matrix": [[1.0]], "surface": {"type": "domain", "holes": 4}},
            name="dom.json",
        )
    )
    assert dom.surface.chi == -3


@pytest.mark.parametrize(
    ("data", "anchor"),
    [
        ({}, "matrix"),
        ({"matrix": []}, "matrix"),
        ({"matrix": [[1.0]], "bogus": 1}, "unknown config field"),
        ({"matrix": [1.0]}, "matrix: matrix must have shape (n, n)"),
        ({"matrix": [[True]]}, "matrix[0][0]"),
        (
            {"matrix": [[1.0]], "rho": [1.0, 2.0]},
            "rho: rho must have shape (1,), got (2,)",
        ),
        ({"matrix": [[1.0]], "rho": 3.0}, "rho"),
        ({"matrix": [[1.0]], "surface": {"chi": 0, "genus": 1}}, "unexpected"),
        ({"matrix": [[1.0]], "surface": {"type": "torus"}}, "surface.type"),
        (
            {"matrix": [[1.0]], "surface": {"type": "closed", "genus": -1}},
            "surface.genus",
        ),
        ({"matrix": [[1.0]], "singularities": [{"pos": 1}]}, "gamma"),
        (
            {
                "matrix": [[1.0]],
                "singularities": [
                    {"gamma": 1.0, "position": [0.1, 0.1]},
                    {"gamma": 2.0},
                ],
            },
            "all sources have positions or none",
        ),
        (
            {
                "matrix": [[1.0]],
                "singularities": [{"gamma": 1.0, "position": [0.1]}],
            },
            "position",
        ),
        ({"matrix": [[1.0]], "solver": {"mode": "fast"}}, "unexpected"),
        ({"matrix": [[1.0]], "solver": {"resolution": 33}}, "even"),
        ({"matrix": [[1.0]], "solver": {"tol": 0.0}}, "positive"),
        ({"matrix": [[1.0]], "solver": {"steps": 0}}, "at least 1"),
        ({"matrix": [[1.0]], "caps": {"depth": 3}}, "unexpected"),
        ({"matrix": [[1.0]], "caps": {"exponent_cap": -1.0}}, "positive"),
        ({"matrix": [[1.0]], "mu": 0.0}, "positive"),
        (
            {
                "matrix": [[1.0]],
                "singularities": [{"gamma": 1.0, "position": [True, False]}],
            },
            "singularities[0].position: position[0] must be a real number",
        ),
        (
            {"matrix": [[1.0]], "solver": {"steps": MAX_STEPS + 1}},
            f"solver.steps: steps must be at least 1 and at most {MAX_STEPS}",
        ),
        (
            {"matrix": [[1.0]], "solver": {"resolution": MAX_RESOLUTION + 2}},
            f"solver.resolution: resolution must be a positive even integer "
            f"at most {MAX_RESOLUTION}, got {MAX_RESOLUTION + 2}",
        ),
        (
            {"matrix": [[1.0]], "surface": {**TORUS, "holes": 4}},
            "surface: unexpected fields ['holes']",
        ),
        (
            {"matrix": [[1.0]], "surface": {"type": "domain", "holes": 0, "g": 1}},
            "surface: unexpected fields ['g']",
        ),
        ({"matrix": [[1.0]], "surface": 3}, "surface: expected an object"),
        ({"matrix": [[1.0]], "solver": []}, "solver: expected an object"),
        ({"matrix": [[1.0]], "caps": 1}, "caps: expected an object"),
        (
            {"matrix": [[1.0]], "singularities": {"gamma": 1.0}},
            "singularities: expected a list",
        ),
        (
            {"matrix": [[1.0]], "surface": {"chi": 1.5}},
            "surface.chi: chi must be an integer, got 1.5",
        ),
        (
            {"matrix": [[1.0]], "caps": {"tolerance": -1.0}},
            "caps.tolerance: critical tolerance",
        ),
        (
            {"matrix": [[1.0, 2.0]]},
            "matrix: matrix must have shape (n, n) with n >= 1, got (1, 2)",
        ),
        (
            {"matrix": [[1.0], [1.0, 2.0]]},
            "matrix: matrix[1] has shape (2,), but matrix[0] has shape (1,)",
        ),
        (
            {
                "matrix": [[1.0]],
                "singularities": [{"gamma": 1.0, "postion": [0.1, 0.2]}],
            },
            "singularities[0]: unexpected fields ['postion']",
        ),
        (
            {"matrix": [[1.0]], "singularities": [{}]},
            'singularities[0]: expected an object with "gamma"',
        ),
    ],
)
def test_config_errors_name_their_field(tmp_path, data, anchor):
    path = write_config(tmp_path, data)
    with pytest.raises(ConfigError) as info:
        load_config(path)
    assert anchor in str(info.value)


# Each bound is checked by the type the config builds, or for a cap by the
# library call it feeds; the config error gives that text, anchored at the
# field.
@pytest.mark.parametrize(
    ("field", "section", "make"),
    [
        ("solver.resolution", {"resolution": 33}, check_resolution),
        ("solver.tol", {"tol": 0.0}, lambda tol: SolverOptions(tol=tol)),
        ("solver.steps", {"steps": 0}, lambda steps: SolverOptions(steps=steps)),
        (
            "solver.steps",
            {"steps": MAX_STEPS + 1},
            lambda steps: SolverOptions(steps=steps),
        ),
        ("surface.genus", {"type": "closed", "genus": -1}, SurfaceSpec.closed_surface),
        ("surface.holes", {"type": "domain", "holes": -1}, SurfaceSpec.planar_domain),
        ("surface.chi", {"chi": 1.5}, SurfaceSpec.from_chi),
        (
            "caps.exponent_cap",
            {"exponent_cap": -1.0},
            lambda cap: enumerate_spectrum(SingularitySet.empty(), cap),
        ),
        (
            "caps.tolerance",
            {"tolerance": -1.0},
            lambda tol: locate_region(0.5, CriticalSpectrum((1.0,), {}), tol),
        ),
    ],
    ids=[
        "resolution",
        "tol",
        "steps-low",
        "steps-high",
        "genus",
        "holes",
        "chi",
        "exponent_cap",
        "tolerance",
    ],
)
def test_config_gives_the_text_of_the_type_it_builds(tmp_path, field, section, make):
    name, key = field.split(".")
    with pytest.raises(ValueError) as expected:
        make(section[key])
    path = write_config(tmp_path, {"matrix": [[1.0]], name: section})
    with pytest.raises(ConfigError) as info:
        load_config(path)
    assert str(info.value) == f"{field}: {expected.value}"


@pytest.mark.parametrize("constant", ["NaN", "Infinity", "-Infinity"])
@pytest.mark.parametrize(
    "template, anchor",
    [
        ('{"matrix": [[1.0]], "rho": [%s]}', "rho: rho[0] "),
        ('{"matrix": [[1.0]], "solver": {"tol": %s}}', "solver.tol: tol "),
        (
            '{"matrix": [[1.0]], "caps": {"tolerance": %s}}',
            "caps.tolerance: critical tolerance ",
        ),
        (
            '{"matrix": [[1.0]], "singularities": [{"gamma": 1, "position": [0, %s]}]}',
            "singularities[0].position: position[1] ",
        ),
        ('{"matrix": [[1.0, %s], [1.0, 1.0]]}', "matrix: matrix[0][1] "),
        ('{"matrix": [[1.0]], "surface": {"chi": %s}}', "surface.chi: chi "),
        (
            '{"matrix": [[1.0]], "singularities": [{"gamma": %s}]}',
            "singularities: gamma[0] ",
        ),
        ('{"matrix": [[1.0]], "mu": %s}', "mu: mu "),
    ],
    ids=[
        "rho",
        "solver.tol",
        "caps.tolerance",
        "position",
        "matrix",
        "surface.chi",
        "gamma",
        "mu",
    ],
)
def test_non_finite_json_constants_are_rejected(tmp_path, template, anchor, constant):
    # JSON's NaN and Infinity meet the same rules as 1e999, at their field.
    p = tmp_path / "cfg.json"
    p.write_text(template % constant)
    with pytest.raises(ConfigError) as info:
        load_config(p)
    assert str(info.value).startswith(anchor)
    assert str(info.value).endswith(f", got {float(constant)!r}")


@pytest.mark.parametrize(
    "text, start",
    [
        (
            '{"matrix": [[1.0]], "solver": {"tol": 1e999}}',
            "solver.tol: tol must be a real number, finite and positive, got inf",
        ),
        (
            '{"matrix": [[1.0]], "mu": -1e999}',
            "mu: mu must be a real number, finite and positive, got -inf",
        ),
        (
            '{"matrix": [[1.0]], "mu": 1%s}' % ("0" * 400),
            "mu: mu must be a real number, finite and positive, got 1000",
        ),
        (
            '{"matrix": [[1.0]], "rho": [1e999]}',
            "rho: rho[0] must be a real number, finite, got inf",
        ),
    ],
    ids=["float", "negative-float", "int", "array-entry"],
)
def test_literals_beyond_double_range_are_rejected(tmp_path, text, start):
    p = tmp_path / "cfg.json"
    p.write_text(text)
    with pytest.raises(ConfigError) as info:
        load_config(p)
    assert str(info.value).startswith(start)


def test_missing_file_is_a_config_error(tmp_path):
    with pytest.raises(ConfigError, match="cannot read config"):
        load_config(tmp_path / "absent.json")


def test_bad_json_reports_line_and_column(tmp_path):
    p = tmp_path / "broken.json"
    p.write_text('{"matrix": [[1.0]\n')
    with pytest.raises(ConfigError) as info:
        load_config(p)
    msg = str(info.value)
    assert "invalid JSON" in msg
    assert ":2:" in msg  # error is on line 2


def test_non_object_top_level_rejected(tmp_path):
    p = tmp_path / "list.json"
    p.write_text("[1, 2]")
    with pytest.raises(ConfigError, match="top-level"):
        load_config(p)


def test_instance_requires_surface_and_rho(tmp_path):
    cfg = load_config(write_config(tmp_path, {"matrix": [[1.0]]}))
    with pytest.raises(ConfigError, match="surface"):
        cfg.require_surface()
    cfg = load_config(
        write_config(tmp_path, {"matrix": [[1.0]], "surface": {"chi": 0}})
    )
    with pytest.raises(ConfigError, match="rho"):
        cfg.instance()


# ------------------------------------------------------------ field dumps


def test_binary_round_trip_is_exact(tmp_path):
    rng = np.random.default_rng(0)
    values = rng.standard_normal((2, 8, 8))
    path = tmp_path / "fields.bin"
    fieldio.write_binary(path, values)
    with open(path, "rb") as f:
        assert f.readline() == b"2 8\n"
    back = fieldio.read_binary(path)
    np.testing.assert_array_equal(back, values)


def test_binary_rejects_malformed_dumps(tmp_path):
    bad_header = tmp_path / "bad_header.bin"
    bad_header.write_bytes(b"hello world extra\n")
    with pytest.raises(ValueError, match="header"):
        fieldio.read_binary(bad_header)
    truncated = tmp_path / "short.bin"
    truncated.write_bytes(b"1 4\n" + b"\0" * 8)
    with pytest.raises(ValueError, match="payload bytes"):
        fieldio.read_binary(truncated)
    with pytest.raises(ValueError, match="shape"):
        fieldio.write_binary(tmp_path / "x.bin", np.zeros((1, 4, 5)))


def test_csv_layout(tmp_path):
    values = np.arange(2 * 4 * 4, dtype=np.float64).reshape(2, 4, 4)
    path = tmp_path / "fields.csv"
    fieldio.write_csv(path, values)
    lines = path.read_text().splitlines()
    assert lines[0] == "x,y,u1,u2"
    assert len(lines) == 1 + 16
    assert lines[1] == "0.0,0.0,0.0,16.0"
    assert lines[2].startswith("0.0,0.25,")


# --------------------------------------------------------- golden outputs


def torus_degree_config(tmp_path):
    return write_config(
        tmp_path,
        {
            "matrix": EXCHANGE,
            "surface": TORUS,
            "singularities": [{"gamma": 1.0}, {"gamma": 2.0}],
            "rho": [12.0 * math.pi, 12.0 * math.pi],
        },
    )


def test_degree_command_on_the_torus(tmp_path, capsys):
    code, payload = run_json(capsys, "degree", torus_degree_config(tmp_path))
    assert code == 0
    assert payload["degree"] == 3
    assert payload["region"] == 1
    assert payload["q"] == pytest.approx(1.5, abs=1e-12)
    assert payload["level_below"] == 1.0
    assert payload["level_above"] == 2.0
    assert payload["partial_coefficients"] == [1, 2]


def test_spectrum_command(tmp_path, capsys):
    path = write_config(tmp_path, {"matrix": [[1.0]]})
    code, payload = run_json(capsys, "spectrum", path, "--cap", "3.5")
    assert code == 0
    assert payload == {"cap": 3.5, "levels": [1.0, 2.0, 3.0]}


def test_an_empty_level_list_prints_as_a_list(tmp_path, capsys):
    path = write_config(tmp_path, {"matrix": [[1.0]]})
    assert main(["spectrum", path, "--cap", "0.5"]) == 0
    assert capsys.readouterr().out == "cap     0.5\nlevels  []\n"
    code, payload = run_json(capsys, "spectrum", path, "--cap", "0.5")
    assert code == 0
    assert payload == {"cap": 0.5, "levels": []}


def test_exponent_cap_can_come_from_the_config(tmp_path, capsys):
    path = write_config(
        tmp_path, {"matrix": [[1.0]], "caps": {"exponent_cap": 3.5}}
    )
    code, payload = run_json(capsys, "spectrum", path)
    assert code == 0
    assert payload["levels"] == [1.0, 2.0, 3.0]


def test_series_command(tmp_path, capsys):
    path = write_config(
        tmp_path,
        {
            "matrix": EXCHANGE,
            "surface": TORUS,
            "singularities": [{"gamma": 1.0}, {"gamma": 2.0}],
        },
    )
    code, payload = run_json(capsys, "series", path, "--cap", "3.5")
    assert code == 0
    assert payload["chi"] == 0
    terms = {t["exponent"]: t["coefficient"] for t in payload["terms"]}
    assert terms == {0.0: 1, 1.0: 2, 2.0: 2, 3.0: 1}


def test_check_matrix_passing(tmp_path, capsys):
    path = write_config(tmp_path, {"matrix": EXCHANGE})
    code, payload = run_json(capsys, "check-matrix", path)
    assert code == 0
    assert payload["standard_hypothesis"] == {"holds": True, "violations": []}
    assert payload["strong_interaction_hypothesis"]["holds"] is True


def test_check_matrix_reports_violations_with_exit_2(tmp_path, capsys):
    path = write_config(tmp_path, {"matrix": [[2.0, 1.0], [1.0, 2.0]]})
    code, payload = run_json(capsys, "check-matrix", path)
    assert code == 2
    assert payload["standard_hypothesis"]["holds"] is True
    strong = payload["strong_interaction_hypothesis"]
    assert strong["holds"] is False
    conditions = {v["condition"] for v in strong["violations"]}
    assert "inverse-diagonal" in conditions
    diag = [
        v for v in strong["violations"] if v["condition"] == "inverse-diagonal"
    ]
    assert diag[0]["value"] == pytest.approx(2.0 / 3.0)


def test_degree_holds_a_large_matrix_to_its_own_scale(tmp_path, capsys):
    # 1e12 A with 1e-12 rho is the instance A with rho, whose inverse has
    # a positive diagonal; an absolute tolerance used to answer degree 1.
    plain = {"matrix": [[1.0, 0.5], [0.5, 1.0]], "rho": [3.0, 2.0]}
    scaled = {"matrix": [[1e12, 0.5e12], [0.5e12, 1e12]], "rho": [3e-12, 2e-12]}
    for name, data in (("plain.json", plain), ("scaled.json", scaled)):
        data.update(surface={"chi": 2}, singularities=[{"gamma": 0.5}])
        assert main(["degree", write_config(tmp_path, data, name)]) == 2
        assert capsys.readouterr().err.startswith(
            "error[HypothesisViolation]: strong-interaction hypothesis fails: "
            "inverse-diagonal[0, 0]="
        )


def test_check_matrix_singular_input(tmp_path, capsys):
    path = write_config(tmp_path, {"matrix": [[1.0, 1.0], [1.0, 1.0]]})
    code, payload = run_json(capsys, "check-matrix", path)
    assert code == 2
    # Both reports carry the one invertible violation, at the condition number.
    (violation,) = check_h1([[1.0, 1.0], [1.0, 1.0]]).violations
    assert violation.condition == "invertible"
    report = {
        "holds": False,
        "violations": [
            {"condition": "invertible", "indices": [], "value": violation.value}
        ],
    }
    assert payload["standard_hypothesis"] == report
    assert payload["strong_interaction_hypothesis"] == report


def test_pohozaev_command(tmp_path, capsys):
    path = write_config(
        tmp_path,
        {
            "matrix": EXCHANGE,
            "sigma": [4.0, 4.0],
            "mu": 1.0,
            "direction": [1.0, 1.0],
        },
    )
    code, payload = run_json(capsys, "pohozaev", path)
    assert code == 0
    assert payload["residual"] == pytest.approx(0.0, abs=1e-12)
    assert payload["minimal_mass"]["holds"] is True
    assert payload["hypersurface"]["sigma"] == pytest.approx([4.0, 4.0])
    assert abs(payload["hypersurface"]["residual"]) <= 1e-12 * 32.0


@pytest.mark.parametrize(
    ("given", "missing"),
    [({"sigma": [1.0, 1.0]}, "mu"), ({"mu": 1.0}, "sigma"), ({}, "sigma")],
    ids=["only-sigma", "only-mu", "neither"],
)
def test_pohozaev_requires_sigma_and_mu(tmp_path, capsys, given, missing):
    path = write_config(tmp_path, {"matrix": EXCHANGE, **given})
    assert main(["pohozaev", path]) == 1
    assert capsys.readouterr().err == (
        f'error[ConfigError]: {missing}: pohozaev needs "sigma" and "mu"\n'
    )


# ------------------------------------------------------- solve and verify


def singular_solve_config(tmp_path, **overrides):
    data = {
        "matrix": [[1.0]],
        "surface": TORUS,
        "singularities": [{"gamma": 1.0, "position": [0.5, 0.5]}],
        "rho": [4.0 * math.pi],
        "solver": {"resolution": 32, "tol": 1e-8, "steps": 10},
    }
    data.update(overrides)
    return write_config(tmp_path, data)


def test_solve_then_verify_round_trip(tmp_path, capsys):
    cfg = singular_solve_config(tmp_path)
    dump = str(tmp_path / "fields.bin")
    code, payload = run_json(capsys, "solve", cfg, "--out", dump)
    assert code == 0
    assert payload["resolution"] == 32
    assert payload["q"] == pytest.approx(0.5, abs=1e-12)
    assert payload["residual_norm"] <= 1e-8
    assert payload["max_norm"] > 0.1
    assert len(payload["steps"]) == 10
    assert payload["steps"][-1]["t"] == 1.0
    assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json", "fields.bin"]

    code, report = run_json(capsys, "verify", cfg, "--field", dump)
    assert code == 0
    assert report["normalized_masses"] == pytest.approx([1.0], abs=1e-12)
    assert abs(report["field_means"][0]) <= 1e-12
    assert report["residual_norm"] <= 1e-8
    assert abs(report["residual_means"][0]) <= 1e-10


def test_solve_output_is_deterministic(tmp_path, capsys):
    cfg = singular_solve_config(tmp_path)
    outs = [tmp_path / name for name in ("a.bin", "b.bin", "a.csv", "b.csv")]
    texts = []
    for out in outs:
        assert main(["solve", cfg, "--json", "--out", str(out)]) == 0
        texts.append(capsys.readouterr().out)
    assert texts == texts[:1] * len(outs)
    # One dump per --out: CSV when the path ends in .csv, else binary.
    names = ["a.bin", "a.csv", "b.bin", "b.csv", "cfg.json"]
    assert sorted(p.name for p in tmp_path.iterdir()) == names
    assert outs[0].read_bytes() == outs[1].read_bytes()
    assert outs[2].read_bytes() == outs[3].read_bytes()
    fieldio.write_csv(tmp_path / "expected.csv", fieldio.read_binary(outs[0]))
    assert outs[2].read_bytes() == (tmp_path / "expected.csv").read_bytes()


def test_solve_trivial_instance_stays_at_zero(tmp_path, capsys):
    cfg = write_config(
        tmp_path,
        {
            "matrix": [[1.0]],
            "surface": TORUS,
            "rho": [1.0],
            "solver": {"resolution": 16},
        },
    )
    code, payload = run_json(capsys, "solve", cfg)
    assert code == 0
    assert payload["max_norm"] == 0.0
    assert payload["residual_norm"] == 0.0


def test_resolution_flag_overrides_config(tmp_path, capsys):
    cfg = singular_solve_config(tmp_path)
    code, payload = run_json(capsys, "solve", cfg, "--resolution", "16")
    assert code == 0
    assert payload["resolution"] == 16


def test_verify_rejects_component_mismatch(tmp_path, capsys):
    cfg = singular_solve_config(tmp_path)
    dump = str(tmp_path / "f.bin")
    assert main(["solve", cfg, "--out", dump]) == 0
    capsys.readouterr()
    two = write_config(
        tmp_path,
        {
            "matrix": EXCHANGE,
            "surface": TORUS,
            "rho": [1.0, 1.0],
        },
        name="two.json",
    )
    assert main(["verify", two, "--field", dump]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error[ValueError]: field has shape (1, ")
    assert "2-component system" in err


def test_solve_requires_a_flat_surface(tmp_path, capsys):
    cfg = singular_solve_config(tmp_path, surface={"type": "closed", "genus": 0})
    assert main(["solve", cfg]) == 1
    assert "chi must be 0" in capsys.readouterr().err


def test_solve_requires_source_positions(tmp_path, capsys):
    cfg = singular_solve_config(tmp_path, singularities=[{"gamma": 1.0}])
    assert main(["solve", cfg]) == 1
    assert "positions" in capsys.readouterr().err


def assert_close(actual, expected):
    assert actual == pytest.approx(expected, rel=1e-12, abs=0.0)


@pytest.mark.parametrize("name", ["readme_solve", "pair_solve"])
def test_solve_and_verify_match_the_golden_output(tmp_path, capsys, name):
    # The golden values were recorded with numpy 2.4.6. FFT rounding may
    # differ between numpy builds, so the floats are compared to 1e-12
    # relative and the residual-level ones only against the solver tol.
    golden = json.loads((DATA / "solve.golden.json").read_text())[name]
    config = str(DATA / f"{name}.json")
    tol = load_config(config).solver.tol
    dump = str(tmp_path / "fields.bin")

    code, solved = run_json(capsys, "solve", config, "--out", dump)
    assert code == 0
    expected = golden["solve"]
    assert solved["resolution"] == expected["resolution"]
    assert_close(solved["q"], expected["q"])
    assert_close(solved["max_norm"], expected["max_norm"])
    assert solved["residual_norm"] <= tol
    assert len(solved["steps"]) == len(expected["steps"])
    for step, want in zip(solved["steps"], expected["steps"]):
        assert step["newton_iterations"] == want["newton_iterations"]
        assert_close(step["t"], want["t"])
        assert_close(step["max_norm"], want["max_norm"])
        assert step["final_residual"] <= tol

    code, report = run_json(capsys, "verify", config, "--field", dump)
    assert code == 0
    expected = golden["verify"]
    assert_close(report["functional_value"], expected["functional_value"])
    assert_close(report["normalized_masses"], expected["normalized_masses"])
    assert report["residual_norm"] <= tol
    for key in ("residual_l2", "residual_means", "field_means"):
        assert len(report[key]) == len(expected[key])
        assert all(abs(x) <= tol for x in report[key])


# -------------------------------------------------------------- exit codes


def test_exit_1_on_missing_config(tmp_path, capsys):
    assert main(["degree", str(tmp_path / "absent.json")]) == 1
    assert "error[ConfigError]" in capsys.readouterr().err


def test_exit_1_on_invalid_json(tmp_path, capsys):
    p = tmp_path / "broken.json"
    p.write_text("{nope")
    assert main(["spectrum", str(p)]) == 1
    assert "invalid JSON" in capsys.readouterr().err


def test_exit_1_on_unknown_field(tmp_path, capsys):
    p = write_config(tmp_path, {"matrix": [[1.0]], "extra": 1})
    assert main(["spectrum", str(p)]) == 1
    assert "unknown config field" in capsys.readouterr().err


def test_exit_2_on_hypothesis_violation(tmp_path, capsys):
    p = write_config(
        tmp_path,
        {
            "matrix": [[2.0, 1.0], [1.0, 2.0]],
            "surface": TORUS,
            "rho": [1.0, 1.0],
        },
    )
    assert main(["degree", p]) == 2
    assert "error[HypothesisViolation]" in capsys.readouterr().err


def test_degree_does_not_depend_on_the_scale_of_the_matrix(tmp_path, capsys):
    # 2^-30 A with 2^30 rho has the same q, and scaling by a power of two
    # is exact; the scaled matrix used to fail the invertibility check.
    a = np.array([[0.0, 2.0, 2.0], [2.0, 0.0, 3.0], [2.0, 3.0, 0.0]])
    rho = np.array([5.0, 6.0, 7.0])
    outputs = []
    for k, name in ((0, "plain.json"), (30, "scaled.json")):
        data = {
            "matrix": np.ldexp(a, -k).tolist(),
            "surface": {"chi": 0},
            "rho": np.ldexp(rho, k).tolist(),
        }
        assert main(["degree", write_config(tmp_path, data, name), "--json"]) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]
    assert json.loads(outputs[0])["degree"] == 1


def test_exit_3_on_the_critical_surface(tmp_path, capsys):
    p = write_config(
        tmp_path,
        {
            "matrix": [[1.0]],
            "surface": TORUS,
            "rho": [8.0 * math.pi],
        },
    )
    assert main(["degree", p]) == 3
    assert "error[OnCriticalSurface]" in capsys.readouterr().err


def test_exit_4_on_solver_non_convergence(tmp_path, capsys):
    # An unreachable tolerance stalls the damped Newton iteration; both
    # stall flavors (budget exhausted, damping floor) map to exit 4.
    cfg = singular_solve_config(
        tmp_path, solver={"resolution": 16, "tol": 1e-30, "steps": 1}
    )
    assert main(["solve", cfg]) == 4
    err = capsys.readouterr().err
    assert "error[StepFailure]" in err or "error[NoConvergence]" in err


@pytest.mark.parametrize(
    "overrides",
    [
        {"solver": {"resolution": 16, "tol": math.inf}},
        {"singularities": [{"gamma": 1.0, "position": [0.5, math.nan]}]},
        {"singularities": [{"gamma": 1.0, "position": [True, False]}]},
        # These two ended in a numpy out-of-memory traceback before the
        # solver bounds.
        {"solver": {"steps": 10**18}},
        {"solver": {"resolution": 10_000_000}},
    ],
)
def test_solve_rejects_bad_numbers_before_solving(tmp_path, capsys, overrides):
    # json.dumps writes math.inf and math.nan as Infinity and NaN.
    cfg = singular_solve_config(tmp_path, **overrides)
    assert main(["solve", cfg, "--json"]) == 1
    assert_single_error_line(capsys, "ConfigError")


def test_resolution_flag_beyond_the_bound_is_rejected(tmp_path, capsys):
    cfg = singular_solve_config(tmp_path)
    assert main(["solve", cfg, "--resolution", str(MAX_RESOLUTION + 2)]) == 1
    assert_single_error_line(capsys, "ValueError")


def test_verify_of_a_csv_dump_names_the_binary_dump(tmp_path, capsys):
    dump = str(tmp_path / "F.csv")
    assert main(["solve", str(DATA / "pair_solve.json"), "--out", dump]) == 0
    capsys.readouterr()
    assert main(["verify", str(DATA / "pair_solve.json"), "--field", dump]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    (line,) = captured.err.splitlines()
    assert line.startswith(f"error[ValueError]: {dump}: malformed field dump header")
    assert "binary dump" in line


def test_verify_rejects_a_non_finite_dump(tmp_path, capsys):
    cfg = singular_solve_config(tmp_path)
    values = np.zeros((1, 32, 32))
    values[0, 3, 5] = math.nan
    dump = tmp_path / "nan.bin"
    fieldio.write_binary(dump, values)
    assert main(["verify", cfg, "--field", str(dump)]) == 1
    assert_single_error_line(capsys, "ValueError")


def test_verify_reports_an_overflowing_quadrature_on_one_line(tmp_path):
    # A finite dump whose e^u overflows: numpy's RuntimeWarnings would
    # reach stderr too, so the command runs in a fresh interpreter.
    values = np.zeros((1, 64, 64))
    values[0, 1, 2], values[0, 3, 4] = 800.0, -800.0
    dump = tmp_path / "overflow.bin"
    fieldio.write_binary(dump, values)
    done = fresh_python(
        "import sys; from liouville.cli import main; sys.exit(main(sys.argv[1:]))",
        "verify", str(DATA / "readme_solve.json"), "--field", str(dump),
    )
    assert done.returncode == 1
    assert done.stdout == ""
    lines = done.stderr.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("error[DensityOverflow]: ")
    assert "overflowed" in lines[0]


def test_critical_tolerance_flows_from_config_and_flag(tmp_path, capsys):
    p = write_config(
        tmp_path,
        {
            "matrix": [[1.0]],
            "surface": TORUS,
            "rho": [8.8 * math.pi],
            "caps": {"tolerance": 0.2},
        },
    )
    assert main(["degree", p]) == 3  # q = 1.1 is within 0.2 of level 1
    capsys.readouterr()
    code, payload = run_json(capsys, "degree", p, "--tol-critical", "1e-8")
    assert code == 0
    assert payload["region"] == 1
    assert payload["degree"] == 1


def assert_single_error_line(capsys, kind):
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith(f"error[{kind}]: ")


def on_first_level_config(tmp_path):
    # q = rho^T A rho / (8 pi sum rho) = 1.0, exactly the level n_1 = 1.
    return write_config(
        tmp_path,
        {
            "matrix": EXCHANGE,
            "surface": TORUS,
            "singularities": [{"gamma": 1.0}, {"gamma": 2.0}],
            "rho": [8.0 * math.pi, 8.0 * math.pi],
        },
    )


def test_default_critical_tolerance_catches_an_exact_level(tmp_path, capsys):
    assert main(["degree", on_first_level_config(tmp_path)]) == 3
    assert_single_error_line(capsys, "OnCriticalSurface")


@pytest.mark.parametrize("tol", ["nan", "inf", "-1"])
def test_bad_critical_tolerance_is_rejected(tmp_path, capsys, tol):
    p = on_first_level_config(tmp_path)
    assert main(["degree", p, "--tol-critical", tol]) == 1
    assert_single_error_line(capsys, "ValueError")


@pytest.mark.parametrize("cap", ["0", "-1"])
@pytest.mark.parametrize("command", ["spectrum", "series", "degree"])
def test_invalid_cap_gets_the_same_verdict_everywhere(tmp_path, capsys, command, cap):
    p = torus_degree_config(tmp_path)
    assert main([command, p, "--cap", cap]) == 1
    assert_single_error_line(capsys, "ValueError")


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("command", ["spectrum", "series", "degree"])
def test_level_guard_refuses_on_one_line(capsys, command):
    # (1e9 + 1) * 2^2 candidates: series used to try to build them all.
    assert main([command, str(DATA / "readme_degree.json"), "--cap", "1e9"]) == 1
    assert_single_error_line(capsys, "TooManyLevels")


def test_tiny_masses_get_their_degree(tmp_path, capsys):
    # rho^T A rho = 1e-600 underflows, yet q = 1e-300 / (8 pi) is a double.
    data = {"matrix": [[1.0]], "surface": {"chi": 0}, "rho": [1e-300]}
    code, payload = run_json(capsys, "degree", write_config(tmp_path, data))
    assert code == 0
    assert payload["degree"] == 1 and payload["region"] == 0
    assert payload["q"] == pytest.approx(1e-300 / (8.0 * math.pi), rel=1e-15)


def test_zero_critical_tolerance_counts_only_exact_hits(tmp_path, capsys):
    data = {
        "matrix": [[1.0]],
        "surface": TORUS,
        "rho": [8.0 * math.pi * (1.0 + 1e-12)],
        "caps": {"tolerance": 0.0},
    }
    assert load_config(write_config(tmp_path, data)).critical_tol == 0.0
    code, payload = run_json(capsys, "degree", write_config(tmp_path, data))
    assert code == 0 and payload["region"] == 1
    data["caps"] = {"exponent_cap": 0.0}
    with pytest.raises(
        ConfigError,
        match="caps.exponent_cap: cap must be a real number, finite and positive, "
        "got 0.0",
    ):
        load_config(write_config(tmp_path, data))


def test_zero_critical_tolerance_refuses_q_inside_a_merged_level(tmp_path, capsys):
    # Level 2.3 merges (1 + 0.1) + (1 + 0.2) with 1 + (1.3 + 1e-10), and
    # q lies between the two, so no region holds it at any tolerance.
    data = {
        "matrix": [[1.0]],
        "surface": TORUS,
        "singularities": [{"gamma": 0.1}, {"gamma": 0.2}, {"gamma": 1.3 + 1e-10}],
        "rho": [8.0 * math.pi * (2.3 + 5e-11)],
        "caps": {"tolerance": 0.0},
    }
    assert main(["degree", write_config(tmp_path, data)]) == 3
    captured = capsys.readouterr()
    lines = captured.err.splitlines()
    assert captured.out == "" and len(lines) == 1
    assert lines[0].startswith("error[OnCriticalSurface]: ")
    assert lines[0].endswith("lies on critical level n_7 = 2.3")


def reject_constant(name):
    raise AssertionError(f"{name} in the JSON output")


@pytest.mark.filterwarnings("error")
def test_check_matrix_writes_null_for_an_infinite_condition_number(tmp_path, capsys):
    p = write_config(tmp_path, {"matrix": [[0]]})
    assert main(["check-matrix", p, "--json"]) == 2
    payload = json.loads(capsys.readouterr().out, parse_constant=reject_constant)
    invertible = {"condition": "invertible", "indices": [], "value": None}
    assert payload["standard_hypothesis"]["violations"] == [invertible]


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(
    "command, data",
    [
        ("pohozaev", {"matrix": [[1e-300]], "sigma": [1.7e308], "mu": 0.5}),
        ("degree", {"matrix": [[1.0]], "surface": {"chi": 0}, "rho": [1e300]}),
        (
            "solve",
            {
                "matrix": [[1e10, 1.0], [1.0, -1e10]],
                "surface": {"chi": 0},
                "rho": [1e300, 1e300],
            },
        ),
        (
            "solve",
            {
                "matrix": [[0.0, 2.0], [2.0, 0.0]],
                "surface": {"chi": 0},
                "singularities": [
                    {"gamma": 1.0, "position": [0.0, 0.5]},
                    {"gamma": 1.0, "position": [0.5, 0.0]},
                ],
                "rho": [0.01, 1e300],
                "solver": {"resolution": 16},
            },
        ),
    ],
    ids=["pohozaev-residual", "degree-energy", "solve-energy", "solve-residual"],
)
def test_values_beyond_the_double_range_give_one_error_line(
    tmp_path, capsys, command, data
):
    assert main([command, write_config(tmp_path, data)]) == 1
    assert_single_error_line(capsys, "NumericOverflow")


def test_a_negative_mass_is_quoted_as_a_plain_float(tmp_path, capsys):
    data = {"matrix": EXCHANGE, "surface": {"chi": 0}, "rho": [-1.0, 2.0]}
    assert main(["degree", write_config(tmp_path, data)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error[NegativeRho]: rho[0] = -1.0 is negative\n"


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("scale", [1e300, 1e-300])
def test_hypersurface_masses_ignore_the_scale_of_the_direction(tmp_path, capsys, scale):
    data = {
        "matrix": EXCHANGE,
        "sigma": [1.0, 1.0],
        "mu": 1.0,
        "direction": [scale, scale],
    }
    code, payload = run_json(capsys, "pohozaev", write_config(tmp_path, data))
    assert code == 0
    assert payload["hypersurface"]["sigma"] == pytest.approx([4.0, 4.0], rel=1e-15)


# -------------------------------------------------------------- interface


def test_human_readable_output(tmp_path, capsys):
    code = main(["degree", torus_degree_config(tmp_path)])
    assert code == 0
    out = capsys.readouterr().out
    assert "degree" in out
    assert "3" in out
    assert "{" not in out  # prose, not JSON


@pytest.mark.parametrize(
    "argv",
    [
        ["check-matrix", "cfg.json", "--cap", "3"],
        ["pohozaev", "cfg.json", "--cap", "3"],
        ["degree", "cfg.json", "--resolution", "16"],
        ["solve", "cfg.json", "--tol-merge", "1e-9"],
        ["spectrum", "cfg.json", "--cap", "three"],
        ["verify", "cfg.json"],
        ["degree", "cfg.json", "--tol-merge", "0.5"],
    ],
)
def test_usage_errors_exit_1_with_one_error_line(capsys, argv):
    with pytest.raises(SystemExit) as info:
        main(argv)
    assert info.value.code == 1
    assert_single_error_line(capsys, "UsageError")


FLAGS = {
    "check-matrix": {"--json"},
    "spectrum": {"--json", "--cap"},
    "series": {"--json", "--cap"},
    "degree": {"--json", "--cap", "--tol-critical"},
    "pohozaev": {"--json"},
    "solve": {"--json", "--resolution", "--out"},
    "verify": {"--json", "--field"},
}


def test_each_subcommand_offers_only_the_flags_it_reads(capsys):
    for command, expected in FLAGS.items():
        with pytest.raises(SystemExit) as info:
            main([command, "--help"])
        assert info.value.code == 0
        listed = re.findall(r"^  (--[a-z-]+)", capsys.readouterr().out, re.M)
        assert set(listed) == expected, command
    assert sum(len(flags) for flags in FLAGS.values()) == 14


@pytest.mark.parametrize(
    "command", ["check-matrix", "spectrum", "series", "degree", "pohozaev"]
)
def test_combinatorial_commands_match_the_golden_output(capsys, command):
    golden = json.loads((DATA / "readme_degree.golden.json").read_text())
    config = str(DATA / "readme_degree.json")
    for mode, flags in (("json", ["--json"]), ("text", [])):
        assert main([command, config, *flags]) == golden[command]["exit"]
        assert capsys.readouterr().out == golden[command][mode]


def test_importing_the_cli_does_not_load_scipy():
    import liouville

    src = os.path.dirname(os.path.dirname(liouville.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [src, *filter(None, [env.get("PYTHONPATH")])]
    )
    probe = "import sys, liouville, liouville.cli; print('scipy' in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", probe],
        env=env,
        capture_output=True,
        text=True,
        check=True,
    ).stdout
    assert out.strip() == "False"


def fresh_python(code, *argv, stdout=subprocess.PIPE):
    """Run code in a new interpreter that imports liouville from this tree."""
    import liouville

    src = os.path.dirname(os.path.dirname(liouville.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [src, *filter(None, [env.get("PYTHONPATH")])]
    )
    return subprocess.run(
        [sys.executable, "-c", code, *argv],
        env=env,
        stdout=stdout,
        stderr=subprocess.PIPE,
        text=True,
        timeout=120,
    )


def test_a_closed_stdout_gives_one_error_line():
    # The read end is closed before the child starts, so its first write
    # to stdout fails, as it does under `| head -n 1` once head has left.
    read, write = os.pipe()
    os.close(read)
    try:
        done = fresh_python(
            "import sys; from liouville.cli import main; sys.exit(main(sys.argv[1:]))",
            "spectrum",
            str(DATA / "readme_degree.json"),
            "--json",
            stdout=write,
        )
    finally:
        os.close(write)
    assert done.returncode == 1
    assert "Traceback" not in done.stderr
    lines = done.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error[BrokenPipeError]: ")


def test_solve_and_verify_do_not_load_scipy(tmp_path):
    config = str(DATA / "readme_solve.json")
    dump = str(tmp_path / "fields.bin")
    probe = (
        "import sys; from liouville.cli import main; "
        "codes = main(['solve', sys.argv[1], '--out', sys.argv[2]]), "
        "main(['verify', sys.argv[1], '--field', sys.argv[2]]); "
        "print(codes, 'scipy' in sys.modules)"
    )
    done = fresh_python(probe, config, dump)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "(0, 0) False"


def test_missing_subcommand_exits_via_argparse(capsys):
    with pytest.raises(SystemExit):
        main([])
    capsys.readouterr()


def test_a_closed_stdout_gives_one_error_line_in_process(monkeypatch, capsys):
    # The same path as above, taken in this process so that it runs
    # under the test suite itself: the first flush meets no reader.
    read, write = os.pipe()
    os.close(read)
    closed = os.fdopen(write, "w")
    monkeypatch.setattr(sys, "stdout", closed)
    try:
        code = main(["spectrum", str(DATA / "readme_degree.json"), "--json"])
    finally:
        monkeypatch.undo()
        closed.close()
    assert code == 1
    assert_single_error_line(capsys, "BrokenPipeError")


def test_solve_and_verify_print_plain_numbers(tmp_path, capsys):
    # Text output renders Python floats and tuples as the JSON output
    # does: no numpy scalar reprs, no tuple parentheses.
    cfg = singular_solve_config(tmp_path)
    dump = str(tmp_path / "fields.bin")
    assert main(["solve", cfg, "--out", dump]) == 0
    assert main(["verify", cfg, "--field", dump]) == 0
    out = capsys.readouterr().out
    assert "functional_value" in out and "max_norm" in out
    assert "np." not in out and "(" not in out
