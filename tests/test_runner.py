import copy
import glob
import json
import math
import os
import re
import subprocess
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import slaglab
from slaglab import charts, dec, flux, meshes, runner
from slaglab.cli import main as cli_main
from slaglab.charts import GridSamples
from slaglab.errors import (
    ConfigError,
    RankDeficientError,
    SingularJacobianError,
    SolverFailureError,
)
from slaglab.fixtures import build_fixture, cylinder_translation
from slaglab.flux import ImmersionPath
from slaglab.immersion import ImmersionFamily
from slaglab.meshes import BettiProfile, relative_cycle_basis
from slaglab.runner import (
    CHECKS,
    DEFAULT_TOLERANCES,
    SUITES,
    _SCHEMA,
    _Workspace,
    convergence_study,
    emit,
    emit_convergence,
    run,
    scenario_from_dict,
)


def mesh_to_dict(mesh) -> dict:
    """Inverse of `meshes.mesh_from_dict`: oriented top simplices and labelled boundary."""
    faces = mesh.simplices[mesh.dim - 1] if mesh.dim else np.empty((0, 0))
    labels = [
        [faces[i].tolist(), int(mesh.boundary_labels[i])]
        for i in mesh.boundary_face_ids()
    ]
    tops = []
    for row, flag in zip(mesh.simplices[mesh.dim], mesh.top_orientation):
        t = row.tolist()
        if flag < 0:
            t[0], t[1] = t[1], t[0]
        tops.append(t)
    return {
        "dim": mesh.dim,
        "vertices": mesh.n_vertices,
        "simplices": tops,
        "boundary_labels": labels,
    }


def minimal_scenario(**overrides):
    data = {
        "name": "test-cyl",
        "fixture": {"name": "cylinder_translation", "level": 1},
        "path": {"amplitudes": [0.3], "samples": 33},
        "random_paths": 2,
        "suites": ["topology", "tangent_laws", "closed_form", "flux_oracles"],
    }
    data.update(overrides)
    return data


def test_run_passes_and_reports_every_check_once():
    report = run(scenario_from_dict(minimal_scenario()))
    assert report.passed
    names = [c.name for c in report.checks]
    assert len(names) == len(set(names))
    assert any(n.startswith("closed_form") for n in names)
    assert report.mesh_stats["boundary_components"] == 2


def test_every_check_carries_a_statement():
    report = run(scenario_from_dict(minimal_scenario()))
    for check in report.checks:
        assert check.statement and check.statement != check.name


def test_zero_tolerance_negative_control():
    data = minimal_scenario(
        suites=["flux_oracles"],
        tolerances={"flux_oracle": 0.0},
    )
    report = run(scenario_from_dict(data))
    assert not report.passed  # roundoff-level residuals now count as failures


def test_non_finite_flux_samples_fail_the_tangent_laws(tmp_path, monkeypatch):
    """A family velocity that is NaN at one sample gives NaN cochains; a NaN
    residual is no pass, and report.json stays strict JSON with the residual
    written as "nan".  (An amplitude whose velocity sums overflow is a
    configuration error instead, see below.)"""
    fx = cylinder_translation(1)
    family = fx.family

    def velocity(u, w):
        out = family.velocity(u, w)
        out[np.isclose(u[..., 0], 0.3 * 7 / 32)] = np.nan  # sample 7 of 33
        return out

    fx.family = ImmersionFamily(fx.mesh, 1, family.positions, velocity)
    monkeypatch.setattr(runner, "build_fixture", lambda *args, **kwargs: fx)
    data = minimal_scenario(path={"amplitudes": [0.3], "samples": 33},
                            suites=["tangent_laws"])
    with np.errstate(all="ignore"):
        report = run(scenario_from_dict(data))
    verdicts = {c.name: c.passed for c in report.checks}
    assert not report.passed
    for name in ("theta_closed", "theta_boundary", "phi_closed"):
        assert not verdicts.get(f"tangent_laws/{name}", False)

    def refuse(token):
        raise ValueError(f"non-standard JSON token {token}")

    emit(report, tmp_path)
    with open(tmp_path / "report.json", encoding="utf-8") as fh:
        checks = {c["name"]: c for c in json.load(fh, parse_constant=refuse)["checks"]}
    assert checks["tangent_laws/theta_closed"]["residual"] == "nan"


def test_missing_fixture_field_names_it():
    with pytest.raises(ConfigError, match="fixture"):
        scenario_from_dict({"name": "x"})
    with pytest.raises(ConfigError, match="fixture.name"):
        scenario_from_dict({"fixture": {"level": 2}})


def test_unknown_suite_and_tolerance_rejected():
    with pytest.raises(ConfigError, match="suites"):
        scenario_from_dict(minimal_scenario(suites=["nope"]))
    with pytest.raises(ConfigError, match="tolerance"):
        scenario_from_dict(minimal_scenario(tolerances={"bogus": 1.0}))
    with pytest.raises(ConfigError, match="solver"):
        scenario_from_dict(minimal_scenario(tolerances={"solver": 1}))
    with pytest.raises(ConfigError, match="nonnegative"):
        scenario_from_dict(minimal_scenario(tolerances={"flux_oracle": -1.0}))


def test_emit_is_deterministic(tmp_path):
    scenario = scenario_from_dict(minimal_scenario())
    report = run(scenario)
    dir1, dir2 = tmp_path / "a", tmp_path / "b"
    emit(report, dir1)
    report2 = run(scenario)
    emit(report2, dir2)
    for name in ("report.json", "report.csv"):
        with open(dir1 / name, "rb") as f1, open(dir2 / name, "rb") as f2:
            assert f1.read() == f2.read(), name


def test_emit_failures_first(tmp_path):
    data = minimal_scenario(suites=["tangent_laws", "flux_oracles"],
                            tolerances={"flux_oracle": 0.0})
    report = run(scenario_from_dict(data))
    emit(report, tmp_path)
    with open(tmp_path / "report.csv") as fh:
        lines = fh.read().splitlines()[1:]
    failed_rows = [i for i, ln in enumerate(lines) if ln.split(",")[1] == "0"]
    passed_rows = [i for i, ln in enumerate(lines) if ln.split(",")[1] == "1"]
    assert failed_rows and passed_rows
    assert max(failed_rows) < min(passed_rows)


def test_report_json_key_order_stable(tmp_path):
    report = run(scenario_from_dict(minimal_scenario(suites=["topology"])))
    emit(report, tmp_path)
    with open(tmp_path / "report.json") as fh:
        text = fh.read()
    data = json.loads(text)
    assert text == json.dumps(data, indent=2, sort_keys=True) + "\n"
    assert "elapsed" not in text  # timing stays out of the emitted artifact


def test_scenario_with_mesh_file(tmp_path):
    mesh = cylinder_translation(1).mesh
    path = tmp_path / "mesh.json"
    with open(path, "w") as fh:
        json.dump(mesh_to_dict(mesh), fh)
    scenario = scenario_from_dict(
        {"fixture": {"mesh_file": str(path)}, "suites": ["topology"]}
    )
    report = run(scenario)
    assert report.passed
    assert all(c.name.startswith("topology") for c in report.checks)


def test_scenario_family_expression_override():
    data = minimal_scenario(
        suites=["closed_form"],
        family={"expressions": {"y1": "y1 + u1"}, "parameters": ["u1"]},
    )
    report = run(scenario_from_dict(data))
    assert report.passed


def test_family_spec_requires_fields():
    data = minimal_scenario(family={"expressions": {"y1": "y1 + u1"}})
    with pytest.raises(ConfigError, match="parameters"):
        run(scenario_from_dict(data))


def test_scenario_model_block_override():
    # the conformal model with rescaled top form leaves all checks passing
    data = minimal_scenario(
        suites=["closed_form", "tangent_laws"],
        model={"Omega_scale": 2.0, "rho": 2.0},
    )
    report = run(scenario_from_dict(data))
    assert report.passed


def test_scenario_model_block_dimension_checked():
    data = minimal_scenario(suites=["closed_form"], model={"n": 3})
    with pytest.raises(ConfigError, match="model.n"):
        run(scenario_from_dict(data))


# dx1^dy1 + dx2^dy2 + 0.1 (dx1^dy2 + dx2^dy1) in (x1, y1, x2, y2) order: a Kaehler form
# under which the cylinder's spans <e_y1, e_x2> are not isotropic
_SKEWED_MODEL = {"omega": [[0, 1, 0, 0.1], [-1, 0, -0.1, 0], [0, 0.1, 0, 1], [-0.1, 0, -1, 0]],
                 "rho": 0.99 ** -0.5}


@pytest.mark.parametrize("model, field", [
    ({"n": "x"}, "model.n"),
    ({"Omega_scale": "abc"}, "model.Omega_scale"),
    ({"lattice": 3}, "model: lattice"),
    ({"topology": "sphere"}, "model.topology"),
    ({"Omega_scale": 2.0}, "(no rho supplied)"),
    ({"Omega_scale": 2.0, "rho": "2"}, "model.rho"),
    ({"rho": 0}, "model.rho"),
    ({"omega": [[0, 1], [-1]]}, "model:"),
    ({"omega": True}, "model: omega must be a 2n x 2n matrix"),
    (_SKEWED_MODEL, "model: boundary 1's span must span a Lagrangian 2-plane: rank 2, "
                    "omega 1.000e-01"),
])
def test_bad_model_value_is_config_error_naming_it(tmp_path, capsys, model, field):
    p = write_scenario(tmp_path, minimal_scenario(suites=["closed_form"], model=model))
    assert cli_main(["run", p]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: model")
    assert field in err


_SPAN = [[0, 1, 0, 0], [0, 0, 1, 0]]


@pytest.mark.parametrize("overrides, field", [
    ({"lagrangians": [{"index": 1, "basepoint": "abc", "span": _SPAN}]},
     "lagrangians[0].basepoint"),
    ({"lagrangians": [{"index": "x", "basepoint": [0, 0, 0, 0], "span": _SPAN}]},
     "lagrangians[0].index"),
    ({"lagrangians": [{"index": 1, "basepoint": [0, 0, 0, 0], "span": [[0, 1, 0, 0], [0]]}]},
     "lagrangians[0].span"),
    ({"lagrangians": [{"index": 1, "basepoint": [0, 0, 0], "span": _SPAN}]}, "lagrangians[0]"),
    ({"lagrangians": [{"index": 1, "basepoint": [0, 0, 0, 0], "span": _SPAN},
                      {"index": 2, "basepoint": [0.5, 0, 0, 0],
                       "span": [[0, 0, 1, 0], [1, 1, 0, 0]]}]}, "intersect"),
    ({"family": {"expressions": 3, "parameters": ["u1"]}}, "family.expressions"),
    ({"family": {"expressions": ["y1 + u1"], "parameters": ["u1"]}}, "family.expressions"),
    ({"family": {"expressions": {"y1": "y1 + u1"}, "parameters": "a"}}, "family.parameters"),
    ({"family": {"expressions": {"y1": "y1 + c * u1"}, "parameters": ["u1"],
                 "constants": {"c": "2"}}}, "family.constants"),
    ({"family": {"expressions": {"Y1": "y1 + u1"}, "parameters": ["u1"]}}, "['Y1']"),
    ({"family": {"expressions": {"y1": "y1 + __import__"}, "parameters": ["u1"]}},
     "__import__"),
    ({"family": {"expressions": {"y1": "y1 + 0*len(open('pwned', 'w').name)"},
                 "parameters": ["u1"]}}, "outside the grammar"),
    ({"family": {"expressions": {"y1": "y1 + u1"}, "parameters": ["u1", "u1"]}},
     "family.parameters"),
    ({"family": {"expressions": {"y1": "y1 + u1/0"}, "parameters": ["u1"]}}, "undefined"),
    ({"lagrangians": [{"index": 1, "basepoint": [0, 0, 0, 0], "span": _SPAN},
                      {"index": 5, "basepoint": [0.5, 0, 0, 0], "span": _SPAN}]},
     "lagrangians: indices [1, 5]"),
    ({"lagrangians": [{"index": 1, "basepoint": [0, 0, 0, 0], "span": _SPAN},
                      {"index": 1, "basepoint": [0.5, 0, 0, 0], "span": _SPAN}]},
     "lagrangians: indices [1, 1]"),
    # adjacent vertices at +-1e308: the edge vectors overflow, so no frame is finite
    ({"family": {"expressions": {"y1": "y1 + u1 + c*cos(16*pi*x2)"}, "parameters": ["u1"],
                 "constants": {"c": 1e308}}}, "edge vectors overflow"),
    # omega(e_x2, e_y2) = 1: the span is not isotropic
    ({"lagrangians": [{"index": 1, "basepoint": [0, 0, 0, 0], "span": _SPAN},
                      {"index": 2, "basepoint": [0.5, 0, 0, 0],
                       "span": [[0, 0, 1, 0], [0, 0, 0, 1]]}]},
     "lagrangians[1].span must span a Lagrangian 2-plane: rank 2, omega 1.000e+00"),
    # isotropic, but one direction twice
    ({"lagrangians": [{"index": 1, "basepoint": [0, 0, 0, 0],
                       "span": [[0, 1, 0, 0], [0, 2, 0, 0]]},
                      {"index": 2, "basepoint": [0.5, 0, 0, 0], "span": _SPAN}]},
     "lagrangians[0].span must span a Lagrangian 2-plane: rank 1"),
    # a chart takes one parameter per relative cycle: one on the cylinder, two on two_handle
    ({"family": {"expressions": {"y1": "y1 + u1", "y2": "y2 + u2"}, "parameters": ["u1", "u2"]},
      "path": {"amplitudes": [0.3, 0.2]}}, "family.parameters: got 2, need one per relative"),
    ({"family": {"expressions": {"y1": "y1 + u1"}, "parameters": ["u1"]},
      "fixture": {"name": "two_handle", "level": 1}}, "family.parameters: got 1"),
])
def test_bad_family_or_lagrangian_value_is_config_error_naming_it(tmp_path, capsys, monkeypatch,
                                                                  overrides, field):
    monkeypatch.chdir(tmp_path)  # where an evaluated expression could write
    section = next(iter(overrides))
    p = write_scenario(tmp_path, minimal_scenario(suites=["tangent_laws"], **overrides))
    assert cli_main(["run", p]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {section}")
    assert field in err and "Traceback" not in err
    assert not (tmp_path / "pwned").exists()


@pytest.mark.parametrize("section, key, value", [
    ("fixture", "level", "x"),
    ("fixture", "level", 1.7),
    ("fixture", "almost_cy", "no"),
    ("fixture", "mesh_file", 3),
    ("path", "amplitudes", "ab"),
    ("path", "amplitudes", [0.3, "x"]),
    ("path", "samples", "33"),
    ("grid", "radius", "x"),
    ("grid", "points", 3.9),
    (None, "name", 5),
    (None, "seed", -1),
    (None, "random_paths", -3),
    (None, "random_paths", 0),
    ("tolerances", "closed_form", 1e400),
    ("tolerances", "closed_form", float("nan")),
    (None, "suites", ["closed_form", "closed_form"]),
])
def test_bad_scalar_value_is_config_error_naming_it(tmp_path, capsys, section, key, value):
    data = minimal_scenario(suites=["closed_form"])
    (data.setdefault(section, {}) if section else data)[key] = value
    assert cli_main(["run", write_scenario(tmp_path, data)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith(f"config error: {f'{section}.' if section else ''}{key} must be")
    assert "PASS" not in captured.out


@pytest.mark.parametrize("content, reason", [
    (None, "No such file"),
    ("{nope", "Expecting property name"),
    (json.dumps({"dim": 1, "vertices": 2, "simplices": [[0, 5]], "boundary_labels": []}),
     "unknown vertex 5"),
    (json.dumps({"vertices": 3, "simplices": [[0, 1.5], [1.5, 2]], "boundary_labels": []}),
     "vertex ids: 1.5 is not an integer"),
    (json.dumps({"vertices": 2, "simplices": [[True, False]], "boundary_labels": []}),
     "vertex ids: True is not an integer"),
    (json.dumps({"vertices": 2, "simplices": [[0, 1]],
                 "boundary_labels": [[[0], 1], [[1.0], 2]]}),
     "vertex ids: 1.0 is not an integer"),
    (json.dumps({"vertices": 2, "simplices": [[0, 1]], "boundary_labels": [[[0], "1"], [[1], 2]]}),
     "labels: '1' is not an integer"),
    (json.dumps({"vertices": 2, "simplices": [[0, 1]], "boundary_labels": [[[0], 1.5], [[1], 2]]}),
     "labels: 1.5 is not an integer"),
    (json.dumps({"vertices": 2, "simplices": [[0, 1]],
                 "boundary_labels": [[[0], True], [[1], 2]]}),
     "labels: True is not an integer"),
    (json.dumps({"vertices": 2, "simplices": [[0, 1]], "boundary_labels": [[[0], 1], [[1], 2]],
                 "dim": True}), "dim: True is not an integer"),
    (json.dumps({"vertices": 2, "simplices": [[0, 1]],
                 "boundary_labels": [[[0], 1], [[1], 10 ** 30]]}), "too large"),
], ids=["absent", "not-json", "bad-mesh", "float-vertex", "bool-vertex", "float-face-vertex",
        "string-label", "float-label", "bool-label", "bool-dim", "huge-label"])
def test_bad_mesh_file_is_config_error_naming_it(tmp_path, capsys, content, reason):
    mesh = tmp_path / "mesh.json"
    if content is not None:
        mesh.write_text(content)
    p = write_scenario(tmp_path, {"fixture": {"mesh_file": str(mesh)}, "suites": ["topology"]})
    assert cli_main(["run", p]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: fixture.mesh_file")
    assert reason in err


@pytest.mark.parametrize("key, value", [("name", "two_handle"), ("level", 2),
                                        ("almost_cy", True), ("almost_cy", False)])
def test_mesh_file_with_a_fixture_field_is_config_error_naming_it(tmp_path, capsys, key, value):
    """A mesh file replaces the fixture, so a report would misstate what ran."""
    mesh = tmp_path / "mesh.json"
    mesh.write_text(json.dumps(mesh_to_dict(cylinder_translation(1).mesh)))
    data = {"fixture": {"mesh_file": str(mesh), key: value}, "suites": ["topology"]}
    with pytest.raises(ConfigError, match=f"fixture.{key} cannot be combined"):
        scenario_from_dict(data)
    assert cli_main(["run", write_scenario(tmp_path, data)]) == 2
    assert capsys.readouterr().err.startswith(f"config error: fixture.{key}")


@pytest.mark.parametrize("command, overrides, field", [
    ("run", {"suites": ["closed_form"]}, "suites"),
    ("run", {}, "suites"),
    ("run", {"suites": ["topology"], "model": {"rho": 2.0}}, "model"),
    ("run", {"suites": ["topology"],
             "family": {"expressions": {"y1": "y1 + u1"}, "parameters": ["u1"]}}, "family"),
    ("run", {"suites": ["topology"], "lagrangians": [
        {"index": 1, "basepoint": [0, 0, 0, 0], "span": [[0, 1, 0, 0], [0, 0, 1, 0]]}]},
     "lagrangians"),
    ("converge", {"suites": ["topology"]}, "fixture"),
    ("quadrature", {"suites": ["topology"]}, "fixture"),
    ("run", {"suites": ["topology"], "fixture": {"name": "pair_of_pants", "almost_cy": True}},
     "fixture.almost_cy"),
])
def test_model_less_fixture_takes_only_topology(tmp_path, capsys, command, overrides, field):
    """pair_of_pants has a mesh but no ambient model: nothing but topology may pass on it."""
    p = write_scenario(tmp_path, {"fixture": {"name": "pair_of_pants"}, **overrides})
    argv = {"run": ["run", p], "converge": ["converge", p, "--levels", "1"],
            "quadrature": ["converge", p, "--levels", "1", "--quadrature", "9"]}[command]
    assert cli_main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith(f"config error: {field}")
    assert "PASS" not in captured.out


_FUZZ_POOL = [None, True, -1, 0, 1, 2, 2.5, float("nan"), "x", [], {}, [0.3, "x"], [[0, 1]]]


def _fuzz_base() -> dict:
    """The shipped n = 1 scenario with every optional block filled in."""
    repo = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with open(os.path.join(repo, "scenarios", "interval_almost_cy.json")) as fh:
        data = json.load(fh)
    data.update(
        grid={"radius": 0.1, "points": 5},
        tolerances={"closed_form": 1e-10},
        model={"n": 1, "topology": "torus", "Omega_scale": 2.0, "rho": 2.0},
        family={"expressions": {"y1": "y1 + c*u1"}, "parameters": ["u1"],
                "constants": {"c": 1.0}},
        lagrangians=[{"index": 1, "basepoint": [0, 0], "span": [[0, 1]]},
                     {"index": 2, "basepoint": [0.5, 0], "span": [[0, 1]]}],
    )
    return data


@settings(derandomize=True, deadline=None, max_examples=200)
@given(st.data())
def test_fuzzed_scenario_value_loads_or_is_config_error(data):
    """One value of a scenario is replaced; set-up succeeds or names a config error."""
    scenario = _fuzz_base()
    place = data.draw(st.sampled_from(
        ["scenario", "fixture", "path", "grid", "model", "family", "lagrangians"]))
    target = scenario if place == "scenario" else scenario[place]
    if place == "lagrangians":
        target = target[data.draw(st.integers(0, 1))]
    key = data.draw(st.sampled_from(sorted(_SCHEMA[place])))
    target[key] = copy.deepcopy(data.draw(st.sampled_from(_FUZZ_POOL)))
    try:
        _Workspace(scenario_from_dict(scenario)).amplitudes
    except ConfigError:
        pass


def test_almost_cy_metric_checks_pass_on_the_interval():
    """At n = 1 the star on 1-forms is not conformally invariant, so a rescaled metric shows."""
    data = minimal_scenario(fixture={"name": "interval_c1", "almost_cy": True},
                            suites=["duality", "chart_derivative", "embedding"])
    report = run(scenario_from_dict(data))
    assert sorted(c.name for c in report.checks) == [
        "chart_derivative/dR_periods", "chart_derivative/dS_periods",
        "duality/star_theta_equals_phi", "embedding/B_matches_l2",
        "embedding/W_vanishes", "embedding/gradient_graph"]
    assert report.passed, [(c.name, c.residual) for c in report.checks]


def test_scenario_lagrangian_block():
    width = 0.5
    lams = [
        {"index": 1, "basepoint": [0, 0, 0, 0],
         "span": [[0, 1, 0, 0], [0, 0, 1, 0]]},
        {"index": 2, "basepoint": [width, 0, 0, 0],
         "span": [[0, 1, 0, 0], [0, 0, 1, 0]]},
    ]
    data = minimal_scenario(suites=["tangent_laws"], lagrangians=lams)
    report = run(scenario_from_dict(data))
    assert report.passed


def test_grid_points_below_three_is_config_error(tmp_path, capsys):
    data = minimal_scenario(grid={"radius": 0.1, "points": 2})
    with pytest.raises(ConfigError, match="grid.points"):
        scenario_from_dict(data)
    assert cli_main(["run", write_scenario(tmp_path, data)]) == 2
    assert "grid.points" in capsys.readouterr().err


def test_wrong_amplitude_count_is_config_error(tmp_path, capsys):
    data = minimal_scenario(path={"amplitudes": [0.3, 0.1]}, suites=["closed_form"])
    with pytest.raises(ConfigError, match="path.amplitudes"):
        run(scenario_from_dict(data))
    assert cli_main(["run", write_scenario(tmp_path, data)]) == 2
    assert "path.amplitudes" in capsys.readouterr().err


@pytest.mark.parametrize("overrides, key", [
    ({"suite": ["topology"]}, "suite"),
    ({"tolerance": {"flux_oracle": 1.0}}, "tolerance"),
    ({"fixture": {"name": "cylinder_translation", "levle": 2}}, "levle"),
    ({"path": {"amplitudes": [0.3], "sample": 9}}, "sample"),
    ({"grid": {"points": 7, "raduis": 0.1}}, "raduis"),
    ({"model": {"Omega_scal": 2.0}}, "Omega_scal"),
    ({"family": {"expressions": {"y1": "y1 + u1"}, "parameters": ["u1"],
                 "constant": {"c": 1.0}}}, "constant"),
    ({"lagrangians": [{"index": 1, "basepoint": [0, 0, 0, 0],
                       "span": [[0, 1, 0, 0], [0, 0, 1, 0]], "spn": []}]}, "spn"),
])
def test_unknown_scenario_key_is_config_error(tmp_path, capsys, overrides, key):
    data = minimal_scenario(**overrides)
    with pytest.raises(ConfigError, match=re.escape(f"['{key}']")):
        scenario_from_dict(data)
    assert cli_main(["run", write_scenario(tmp_path, data)]) == 2
    captured = capsys.readouterr()
    assert f"'{key}'" in captured.err
    assert "PASS" not in captured.out


@pytest.mark.parametrize("value", ["0", "-1", "nan", "inf"])
def test_cli_tol_scale_must_be_positive_and_finite(tmp_path, capsys, value):
    p = write_scenario(tmp_path, minimal_scenario(suites=["closed_form"]))
    assert cli_main(["run", p, f"--tol-scale={value}"]) == 2
    captured = capsys.readouterr()
    assert "--tol-scale" in captured.err
    assert "PASS" not in captured.out


def test_straight_path_fluxes_computed_once(monkeypatch):
    import slaglab.runner as runner_module

    calls = []
    original = runner_module.path_fluxes

    def counting(model, path, *args, **kwargs):
        calls.append(path.n_samples)
        return original(model, path, *args, **kwargs)

    monkeypatch.setattr(runner_module, "path_fluxes", counting)
    report = run(scenario_from_dict(minimal_scenario(suites=["tangent_laws", "closed_form"])))
    assert report.passed
    assert calls == [33]


def test_cached_straight_path_failure_fails_every_suite():
    # y1 = y1 + u1 * x1 keeps the path Lagrangian but not calibrated
    data = minimal_scenario(
        suites=["tangent_laws", "flux_oracles", "closed_form"],
        family={"expressions": {"y1": "y1 + u1*x1"}, "parameters": ["u1"]},
    )
    report = run(scenario_from_dict(data))
    errors = {c.name: c.detail for c in report.checks if c.name.endswith("/error")}
    assert sorted(errors) == ["closed_form/error", "flux_oracles/error", "tangent_laws/error"]
    assert all(d.startswith("NonSpecialSampleError") for d in errors.values())
    # sample validity is read from the same pass, so the suite's error is its only entry
    assert [c.name for c in report.checks if c.name.startswith("tangent_laws/")] == [
        "tangent_laws/error"]


def test_straight_path_built_once_per_sample_count(monkeypatch):
    built = []

    class Counting(ImmersionPath):
        @classmethod
        def straight(cls, family, target, n_samples, **kwargs):
            built.append(n_samples)
            return super().straight(family, target, n_samples, **kwargs)

    monkeypatch.setattr(runner, "ImmersionPath", Counting)
    report = run(scenario_from_dict(minimal_scenario(suites=list(SUITES), grid={"points": 5})))
    assert report.passed
    assert sorted(built) == [5, 33, 129]  # the duality probes, the path, the smooth path


def test_homotopy_ends_at_the_curved_path_it_compares(monkeypatch):
    calls = []
    harness = runner.homotopy_invariance_harness

    def spy(*args, **kwargs):
        calls.append((args, kwargs))
        return harness(*args, **kwargs)

    monkeypatch.setattr(runner, "homotopy_invariance_harness", spy)
    data = minimal_scenario(path={"amplitudes": [0.3], "s_curve_strength": 0.8},
                            suites=["homotopy"])
    run(scenario_from_dict(data))
    (args, kwargs), = calls
    curved = args[2]
    assert np.array_equal(kwargs["homotopy"](1.0)(curved.times), curved.u)


def test_curl_grid_fails_gradient_graph_as_a_check(monkeypatch):
    """v = (u2, -u1) has antisymmetric dv/du: the check table, not the fit, judges it."""
    def curl_grid(model, family, lagrangians, rel, ab, radius, points_per_axis):
        axis = np.linspace(-radius, radius, points_per_axis)
        u = np.stack(np.meshgrid(axis, axis, indexing="ij"), axis=-1)
        v = np.stack([u[..., 1], -u[..., 0]], axis=-1)
        return GridSamples(u.shape[:-1], np.full(2, axis[1] - axis[0]), u, u, v)

    monkeypatch.setattr(runner, "sample_grid", curl_grid)
    data = minimal_scenario(fixture={"name": "two_handle"}, path={"amplitudes": [0.3, -0.2]},
                            suites=["embedding"], grid={"points": 5})
    report = run(scenario_from_dict(data))
    checks = {c.name: c for c in report.checks}
    assert "embedding/error" not in checks
    assert not checks["embedding/gradient_graph"].passed
    assert checks["embedding/gradient_graph"].residual == 2.0
    assert report.atlas is not None


@pytest.mark.parametrize("target, error, suite, kept", [
    ("hessian_fit", SingularJacobianError, "embedding",
     ["embedding/B_matches_l2", "embedding/W_vanishes"]),
    ("harmonic_fields", SolverFailureError, "topology",
     ["topology/boundary_squared", "topology/rank_duality"]),
])
def test_checks_yielded_before_a_suite_error_are_reported(monkeypatch, target, error, suite, kept):
    def fail(*args, **kwargs):
        raise error("planted")

    monkeypatch.setattr(runner, target, fail)
    report = run(scenario_from_dict(minimal_scenario(suites=[suite], grid={"points": 5})))
    checks = {c.name: c for c in report.checks}
    assert sorted(checks) == sorted(kept + [f"{suite}/error"])
    assert checks[f"{suite}/error"].detail == f"{error.__name__}: planted"
    assert all(checks[name].passed for name in kept)
    assert report.atlas is None


def test_a_wrong_kernel_count_fails_the_harmonic_counts_check(tmp_path, monkeypatch):
    """A harmonic count one too high is the check table's finding, not a suite error.

    One zeroed face row of d_1 and one zeroed interior-vertex column of d_0 add one
    field to each harmonic space of a connected surface with boundary.
    """
    derivative = dec.exterior_derivative

    def planted(mesh, degree):
        op = derivative(mesh, degree).tolil()
        if degree == 1:
            op[0] = 0.0
        else:
            op[:, mesh.interior_simplex_ids(0)[0]] = 0.0
        return op.tocsr()

    monkeypatch.setattr(dec, "exterior_derivative", planted)
    p = write_scenario(tmp_path, minimal_scenario(
        fixture={"name": "two_handle"}, path={"amplitudes": [0.3, -0.2]}, suites=["topology"]))
    assert cli_main(["run", p, "--out", str(tmp_path / "out")]) == 1
    with open(tmp_path / "out" / "scn" / "report.json", encoding="utf-8") as fh:
        checks = {c["name"]: c for c in json.load(fh)["checks"]}
    assert "topology/error" not in checks
    assert checks["topology/harmonic_counts"]["passed"] is False
    assert checks["topology/harmonic_counts"]["detail"] == "dirichlet=3, neumann=3"


def test_check_table_reads_every_tolerance_key():
    keys = [tolerance for _, tolerance in CHECKS.values() if isinstance(tolerance, str)]
    assert set(keys) <= set(DEFAULT_TOLERANCES)
    assert set(DEFAULT_TOLERANCES) <= set(keys)  # an unread key is a stale default


@pytest.mark.parametrize("path", sorted(glob.glob(os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "scenarios", "*.json"))))
def test_shipped_scenario_reports_exactly_the_check_table(path):
    """Every shipped scenario runs every suite: each check once, in the table's order."""
    report = run(runner.load_scenario(path))
    assert [c.name for c in report.checks] == list(CHECKS)


def test_internal_error_is_reported_and_exits_3(tmp_path, capsys, monkeypatch):
    def broken(ws):
        yield from ()
        return 1 / 0

    monkeypatch.setitem(SUITES, "duality", broken)
    p = write_scenario(tmp_path, minimal_scenario(suites=["closed_form", "duality", "topology"]))
    assert cli_main(["run", p, "--out", str(tmp_path / "out")]) == 3
    assert "Traceback" not in capsys.readouterr().err
    with open(tmp_path / "out" / "scn" / "report.json", encoding="utf-8") as fh:
        checks = {c["name"]: c for c in json.load(fh)["checks"]}
    assert checks["duality/internal_error"]["passed"] is False
    line = broken.__code__.co_firstlineno + 2
    assert checks["duality/internal_error"]["detail"] == (
        f"ZeroDivisionError: division by zero [test_runner.py:{line} in broken]")
    assert {"closed_form/relative_flux", "topology/harmonic_counts"} <= set(checks)
    assert all(c["passed"] for name, c in checks.items() if name != "duality/internal_error")


@pytest.mark.parametrize("fixture, amplitudes", [
    ({"name": "interval_c1"}, [0.25]),
    ({"name": "two_handle"}, [0.3, -0.2]),
    ({"name": "cylinder_translation", "almost_cy": True}, [0.3]),
])
def test_closed_form_oracles_and_duality_on_each_fixture(fixture, amplitudes):
    data = minimal_scenario(fixture=fixture, path={"amplitudes": amplitudes, "samples": 17},
                            suites=["closed_form", "flux_oracles", "duality", "chart_derivative"])
    report = run(scenario_from_dict(data))
    names = sorted(c.name for c in report.checks)
    assert names == ["chart_derivative/dR_periods", "chart_derivative/dS_periods",
                     "closed_form/relative_flux", "closed_form/special_flux",
                     "duality/star_theta_equals_phi",
                     "flux_oracles/random_paths", "flux_oracles/relative_fixture",
                     "flux_oracles/special_fixture"]
    assert report.passed, [(c.name, c.residual, c.detail) for c in report.checks]


# the width of the cylinder follows the path, so the metric does too; every sample is special
_STRETCH = {
    "name": "cylinder-stretch-family",
    "fixture": {"name": "cylinder_translation", "level": 1},
    "family": {"expressions": {"x1": "x1*(w0 + eps*sin(2*pi*u1))/w0", "y1": "y1 + u1"},
               "parameters": ["u1"], "constants": {"w0": 0.5, "eps": 0.1}},
    "path": {"amplitudes": [0.3], "samples": 33},
}


def test_duality_stars_each_probe_with_its_own_metric(monkeypatch):
    report = run(scenario_from_dict(dict(_STRETCH, suites=["duality"])))
    assert report.passed, [(c.name, c.residual) for c in report.checks]
    # a copy that stars every probe with the base structure fails
    ws = _Workspace(scenario_from_dict(_STRETCH))
    original = runner.pullback_metric
    monkeypatch.setattr(runner, "pullback_metric",
                        lambda model, immersion: original(model, ws.fixture.base))
    assert runner._duality_residual(ws) > DEFAULT_TOLERANCES["duality_error"]


# the shipped cylinder's isometric copy under the lattice map (z1, z2) -> (z1 + z2, z2):
# omega pushed forward, the base moved by the family, the spans mapped
_SHEARED = {
    "name": "cylinder-sheared",
    "fixture": {"name": "cylinder_translation", "level": 1},
    "model": {"omega": [[0, 1, 0, -1], [-1, 0, 1, 0], [0, -1, 0, 2], [1, 0, -2, 0]]},
    "family": {"expressions": {"x1": "x1 + x2", "y1": "y1 + y2 + u1"}, "parameters": ["u1"]},
    "lagrangians": [
        {"index": 1, "basepoint": [0, 0, 0, 0], "span": [[0, 1, 0, 0], [1, 0, 1, 0]]},
        {"index": 2, "basepoint": [0.5, 0, 0, 0], "span": [[0, 1, 0, 0], [1, 0, 1, 0]]},
    ],
    "path": {"amplitudes": [0.3]},
}


def test_hodge_structure_is_the_family_start_not_the_fixture_base():
    """On the sheared cylinder every check passes, as on the shipped one.

    Its family starts away from the fixture's base, so a structure pulled back
    from the base mismeasures the tangent cochains: dS_periods reads 1.0 and
    B_matches_l2 0.5 with it.
    """
    report = run(scenario_from_dict(_SHEARED))
    assert report.passed, [(c.name, c.residual) for c in report.checks if not c.passed]
    assert len(report.checks) == 24
    ws = _Workspace(scenario_from_dict(_SHEARED))
    assert np.array_equal(ws.start.positions, ws.fixture.family.positions([0.0]))
    assert not np.array_equal(ws.start.positions, ws.fixture.base.positions)


def test_path_samples_valid_judges_every_sample_of_the_straight_pass():
    """The stretch family leaves its flat Lambda_2 by 9.998e-2, at sample 27 of 33.

    Its first, middle and last samples alone read 9.51e-2.
    """
    report = run(scenario_from_dict(dict(_STRETCH, suites=["tangent_laws"])))
    check = {c.name: c for c in report.checks}["tangent_laws/path_samples_valid"]
    assert not check.passed
    assert check.detail == "worst containment 1.00e-01"


# the shipped cylinder rotated by (z1, z2) -> (z2, -z1), an element of SU(2) and GL(4, Z):
# the family and the spans rotated, so that e_x2 is normal to both boundary spans
_ROTATED = {
    "name": "cylinder-rotated",
    "fixture": {"name": "cylinder_translation", "level": 1},
    "family": {"expressions": {"x1": "x2", "y1": "y2", "x2": "-x1", "y2": "-y1 - u1"},
               "parameters": ["u1"]},
    "lagrangians": [
        {"index": 1, "basepoint": [0, 0, 0, 0], "span": [[0, 0, 0, -1], [1, 0, 0, 0]]},
        {"index": 2, "basepoint": [0, 0, -0.5, 0], "span": [[0, 0, 0, -1], [1, 0, 0, 0]]},
    ],
    "path": {"amplitudes": [0.3]},
}


def test_slides_off_a_boundary_span_are_dropped():
    """A random path that slides the rotated cylinder along e_x2 leaves Lambda by up to 0.197.

    With the slide its random paths fail; set-up drops it, and every check passes.
    """
    report = run(scenario_from_dict(_ROTATED))
    checks = {c.name: c for c in report.checks}
    assert report.passed, [(c.name, c.residual) for c in report.checks if not c.passed]
    assert len(checks) == 24
    assert checks["flux_oracles/random_paths"].detail == (
        "20 paths, seed 20240817; slides [[0.0, 0.0, 1.0, 0.0]] dropped, "
        "not in every boundary span")
    ws = _Workspace(scenario_from_dict(_ROTATED))
    assert ws.fixture.slides == ()
    ws.fixture.slides, ws.slide_note = build_fixture("cylinder_translation").slides, ""
    residual, detail = dict(runner._suite_flux_oracles(ws))["random_paths"]
    assert residual == math.inf
    assert detail == "20 paths, seed 20240817; path 0 is invalid, worst containment 1.44e-01"
    # the shipped spans hold e_x2, so the shipped cylinder keeps its slide and its detail
    shipped = run(scenario_from_dict(minimal_scenario(suites=["flux_oracles"])))
    assert shipped.passed
    assert {c.name: c for c in shipped.checks}["flux_oracles/random_paths"].detail == (
        "2 paths, seed 20240817")


def test_duality_reuses_the_base_structure_on_a_rigid_path(monkeypatch):
    built = []
    original = runner.HodgeStructure

    def counting(mesh, metric):
        built.append(metric)
        return original(mesh, metric)

    monkeypatch.setattr(runner, "HodgeStructure", counting)
    report = run(scenario_from_dict(minimal_scenario(suites=["duality"])))
    assert report.passed and len(built) == 1


@pytest.mark.parametrize("suites, expected", [
    (list(SUITES), ["dirichlet", "neumann"]),
    ([s for s in SUITES if s != "topology"], []),
], ids=["all", "no-topology"])
def test_full_run_builds_each_harmonic_basis_once(monkeypatch, suites, expected):
    """Only the topology suite's count check solves for harmonic fields."""
    import slaglab.dec as dec_module

    calls = []
    original = dec_module.harmonic_fields

    def counting(structure, flavor, *args, **kwargs):
        calls.append(flavor)
        return original(structure, flavor, *args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name.startswith("slaglab"):
            for key, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, key, counting)
    report = run(scenario_from_dict(minimal_scenario(suites=suites)))
    assert report.passed
    assert sorted(calls) == expected


def test_homotopy_sweep_samples_only_the_two_compared_paths(monkeypatch):
    """The homotopy suite evaluates its two paths a block at a time, never whole.

    The straight path's overflow check and the two flux passes each evaluate
    every block once, the harness compares the two endpoints of each path,
    the Hodge structure reads the family's start, and each of the five
    sweeps evaluates one oracle trajectory of the first relative cycle's
    vertices only.
    """
    shapes, lifts = [], []
    positions = ImmersionFamily.positions

    def spy(self, u, vertices=slice(None)):
        shapes.append(np.shape(u))
        lifts.append(positions(self, u, vertices))
        return lifts[-1]

    monkeypatch.setattr(ImmersionFamily, "positions", spy)
    report = run(scenario_from_dict(minimal_scenario(suites=["homotopy"])))
    assert report.passed
    fx = cylinder_translation(1)
    n_vertices, per_block = fx.mesh.n_vertices, (
        flux._BLOCK_SIMPLEX_SAMPLES // fx.mesh.n_simplices(fx.mesh.dim))
    blocks = [min(per_block, 129 - start) for start in range(0, 129, per_block)]
    assert max(blocks) < 129
    cycle = relative_cycle_basis(fx.mesh).chains[:, 0]
    n_chain = len(np.unique(fx.mesh.simplices[1][np.flatnonzero(cycle)]))
    assert sorted(shapes) == sorted(
        [(1,)] + [(2, 1)] * 2 + [(b, 1) for b in blocks] * 3 + [(257, 1)] * 5)
    assert sorted(lift.shape for lift in lifts) == sorted(
        [(n_vertices, 4)] + [(2, n_vertices, 4)] * 2 + [(b, n_vertices, 4) for b in blocks] * 3
        + [(257, n_chain, 4)] * 5)


@pytest.mark.parametrize("amplitude", [1e308, -1e308, 1e200, -1e200])
def test_amplitudes_whose_velocity_sums_overflow_are_a_config_error(tmp_path, capsys, amplitude):
    data = {"fixture": {"name": "cylinder_translation", "level": 1},
            "path": {"amplitudes": [amplitude]}}
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)  # no overflow is computed
        assert cli_main(["run", write_scenario(tmp_path, data)]) == 2
    err = capsys.readouterr().err
    assert "path.amplitudes" in err and "Traceback" not in err


def test_large_amplitudes_with_finite_passes_run_as_checks(tmp_path, capsys):
    """1e150 keeps every flux pass finite: its checks run, and the closed form fails."""
    data = {"fixture": {"name": "cylinder_translation", "level": 1},
            "path": {"amplitudes": [1e150]}, "suites": ["tangent_laws", "closed_form"]}
    assert cli_main(["run", write_scenario(tmp_path, data)]) == 1
    out = capsys.readouterr().out
    assert "[PASS] tangent_laws/theta_closed" in out
    assert "[FAIL] closed_form/relative_flux" in out
    assert cli_main(["run", write_scenario(tmp_path, minimal_scenario(suites=["closed_form"]))]) == 0


def test_model_less_topology_run_says_which_check_did_not_run():
    report = run(scenario_from_dict({"fixture": {"name": "pair_of_pants"},
                                     "suites": ["topology"]}))
    checks = {c.name: c for c in report.checks}
    assert sorted(checks) == ["topology/boundary_squared", "topology/rank_duality"]
    assert report.passed
    assert checks["topology/rank_duality"].detail == (
        "b_rel_1=2, betti=(1, 2, 0); harmonic_counts not run: no ambient metric")
    with_model = run(scenario_from_dict(minimal_scenario(suites=["topology"])))
    assert "not run" not in with_model.checks[0].detail
    assert "topology/harmonic_counts" in [c.name for c in with_model.checks]


def test_scenario_lagrangian_block_missing_field_named():
    lams = [{"index": 1, "basepoint": [0, 0, 0, 0]}]
    with pytest.raises(ConfigError, match=r"lagrangians\[0\].span"):
        scenario_from_dict(minimal_scenario(lagrangians=lams))


def test_convergence_study_shapes_and_orders():
    scenario = scenario_from_dict(minimal_scenario())
    table = convergence_study(scenario, [1, 2])
    assert [row.level for row in table.rows] == [1, 2]
    assert set(table.quantity_names) == {"duality_error", "star_involution", "b_vs_l2"}
    # flat fixture data is exact: duality pinned at the floor, infinite order
    assert table.orders["duality_error"] == float("inf")
    assert table.orders["star_involution"] > 0.8


def test_interval_convergence_table_has_no_star_involution_column(tmp_path):
    """The star involution on 1-forms needs dim 2: no column reads a vacuous 0.0."""
    data = minimal_scenario(fixture={"name": "interval_c1"}, path={"amplitudes": [0.25]})
    table = convergence_study(scenario_from_dict(data), [1, 2])
    assert table.quantity_names == ["b_vs_l2", "duality_error"]
    (path,) = emit_convergence(table, tmp_path)
    with open(path) as fh:
        assert fh.readline() == "level,h,b_vs_l2,duality_error\n"


def test_quadrature_study_shows_simpson_order():
    from slaglab.runner import quadrature_study

    scenario = scenario_from_dict(minimal_scenario())
    table = quadrature_study(scenario, [9, 17, 33])
    errs = [row.residuals["rf_quadrature_error"] for row in table.rows]
    assert errs[0] > errs[1] > errs[2] > 0
    assert table.orders["rf_quadrature_error"] >= 3.9
    assert table.orders["sf_quadrature_error"] >= 3.9


def test_cli_converge_with_quadrature(tmp_path, capsys):
    p = write_scenario(tmp_path, minimal_scenario())
    assert cli_main(["converge", p, "--levels", "1", "--quadrature", "9,17,33",
                     "--out", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "rf_quadrature_error" in out
    with open(tmp_path / "quadrature.csv") as fh:
        lines = fh.read().splitlines()
    assert lines[0] == "level,h,rf_quadrature_error,sf_quadrature_error"
    assert [line.split(",")[0] for line in lines[1:]] == ["9", "17", "33", "order"]
    assert os.path.exists(tmp_path / "convergence.csv")


@pytest.mark.parametrize("flag, value", [
    ("--levels", "1,a"), ("--levels", "1,1.5"), ("--quadrature", "9,x"),
])
def test_cli_converge_refuses_counts_that_are_not_integers(tmp_path, capsys, flag, value):
    p = write_scenario(tmp_path, minimal_scenario())
    assert cli_main(["converge", p, "--levels", "1", flag, value]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith(f"config error: {flag} ")
    assert captured.out == ""


def test_convergence_emit(tmp_path):
    scenario = scenario_from_dict(minimal_scenario())
    table = convergence_study(scenario, [1, 2])
    (path,) = emit_convergence(table, tmp_path)
    with open(path) as fh:
        lines = fh.read().splitlines()
    assert lines[0].startswith("level,h,")
    assert lines[-1].startswith("order,")


# -- CLI ----------------------------------------------------------------------------


def write_scenario(tmp_path, data, name="scn.json"):
    p = tmp_path / name
    with open(p, "w") as fh:
        json.dump(data, fh)
    return str(p)


def test_nameless_scenario_is_named_by_its_file_stem(tmp_path, capsys):
    """The same nameless file in two directories writes the same report bytes."""
    data = minimal_scenario(suites=["closed_form"])
    del data["name"]
    reports = []
    for where in ("a", "b"):
        os.makedirs(tmp_path / where)
        p = write_scenario(tmp_path / where, data, name="nameless.json")
        assert cli_main(["run", p, "--out", str(tmp_path / where / "out")]) == 0
        with open(tmp_path / where / "out" / "nameless" / "report.json", "rb") as fh:
            reports.append(fh.read())
    assert reports[0] == reports[1]
    assert json.loads(reports[0])["scenario"] == "nameless"


def test_cli_run_pass_and_fail_exit_codes(tmp_path, capsys):
    good = write_scenario(tmp_path, minimal_scenario(suites=["closed_form"]))
    assert cli_main(["run", good]) == 0
    bad = write_scenario(
        tmp_path,
        minimal_scenario(suites=["closed_form"], tolerances={"closed_form": 0.0}),
        name="bad.json",
    )
    assert cli_main(["run", bad]) == 1
    capsys.readouterr()


def test_cli_config_error_exit_code(tmp_path, capsys):
    p = write_scenario(tmp_path, {"name": "broken"})
    assert cli_main(["run", p]) == 2
    missing = str(tmp_path / "absent.json")
    assert cli_main(["run", missing]) == 2
    capsys.readouterr()


def test_cli_tol_scale(tmp_path, capsys):
    bad = write_scenario(
        tmp_path,
        minimal_scenario(suites=["closed_form"], tolerances={"closed_form": 1e-18}),
    )
    assert cli_main(["run", bad]) == 1
    assert cli_main(["run", bad, "--tol-scale", "1e6"]) == 0
    capsys.readouterr()


def test_cli_run_jobs_matches_serial(tmp_path, capsys):
    files = [
        write_scenario(tmp_path, minimal_scenario(fixture={"name": name}, suites=["topology"]),
                       name=f"{name}.json")
        for name in ("cylinder_translation", "two_handle")
    ]
    serial, pooled = tmp_path / "serial", tmp_path / "pooled"
    assert cli_main(["run", *files, "--jobs", "1", "--out", str(serial)]) == 0
    assert cli_main(["run", *files, "--jobs", "2", "--out", str(pooled)]) == 0
    capsys.readouterr()
    trees = [{str(f.relative_to(root)): f.read_bytes() for f in root.rglob("*") if f.is_file()}
             for root in (serial, pooled)]
    assert len(trees[0]) == 4 and trees[0] == trees[1]


def test_cli_run_refuses_jobs_below_one(tmp_path, capsys):
    p = write_scenario(tmp_path, minimal_scenario(suites=["closed_form"]))
    for jobs in ("0", "-5"):
        assert cli_main(["run", p, "--jobs", jobs, "--out", str(tmp_path / "out")]) == 2
        assert "--jobs" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_shipped_scenarios_run_without_sympy():
    code = (
        "import sys\n"
        "import slaglab.cli\n"
        "from slaglab import runner\n"
        "for path in sys.argv[1:]:\n"
        "    runner.run(runner.load_scenario(path))\n"
        "assert 'sympy' not in sys.modules, 'sympy was imported'\n"
    )
    repo = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    scenarios = sorted(glob.glob(os.path.join(repo, "scenarios", "*.json")))
    assert scenarios
    src = os.path.dirname(os.path.dirname(os.path.abspath(slaglab.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-c", code, *scenarios], env=env,
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def test_cli_fixtures_list(capsys):
    assert cli_main(["fixtures", "list"]) == 0
    out = capsys.readouterr().out
    assert "cylinder_translation" in out
    assert "two_handle" in out


def test_cli_converge(tmp_path, capsys):
    p = write_scenario(tmp_path, minimal_scenario())
    assert cli_main(["converge", p, "--levels", "1,2", "--out", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "orders:" in out
    assert os.path.exists(tmp_path / "convergence.csv")


def test_cli_run_emits_reports(tmp_path, capsys):
    p = write_scenario(tmp_path, minimal_scenario(suites=["topology"]))
    out_dir = tmp_path / "out"
    assert cli_main(["run", p, "--out", str(out_dir)]) == 0
    capsys.readouterr()
    assert os.path.exists(out_dir / "scn" / "report.json")
    assert os.path.exists(out_dir / "scn" / "report.csv")


def test_atlas_emitted_with_embedding_suites(tmp_path):
    data = minimal_scenario(
        suites=["transitions", "embedding"],
        grid={"radius": 0.1, "points": 5},
    )
    report = run(scenario_from_dict(data))
    assert report.passed and report.atlas is not None
    emit(report, tmp_path)
    assert os.path.exists(tmp_path / "atlas.json")
    with open(tmp_path / "atlas.json") as fh:
        atlas = json.load(fh)
    assert "basepoint_shift_R" in atlas["transitions"]
    assert atlas["w_max"] <= 1e-10
    np.testing.assert_allclose(atlas["b_gram"], atlas["l2_gram"], atol=1e-10)
    # the Hessian-metric gap is reported, in both files, with no check of its own
    assert math.isfinite(atlas["hessian"]["hessian_vs_B"])
    with open(tmp_path / "atlas.csv") as fh:
        row, = (line.strip() for line in fh if line.startswith("hessian_vs_B,"))
    assert float(row.split(",")[2]) == atlas["hessian"]["hessian_vs_B"]
    assert not any("hessian_vs_B" in c.name for c in report.checks)


def test_duality_reads_only_its_probe_samples(monkeypatch):
    """The probes are the whole 5-sample straight path, and nothing more is evaluated."""
    seen = []
    for name in ("tangent_one_form", "dual_form"):
        def spy(model, path, j, form=getattr(runner, name), name=name):
            seen.append((name, path.n_samples, j))
            return form(model, path, j)

        monkeypatch.setattr(runner, name, spy)
    ws = _Workspace(scenario_from_dict(minimal_scenario(suites=["duality"])))
    assert runner._duality_residual(ws) < DEFAULT_TOLERANCES["duality_error"]
    assert sorted(seen) == [(name, 5, j) for name in ("dual_form", "tangent_one_form")
                            for j in range(5)]


def test_transitions_charts_are_independent_straight_paths(monkeypatch):
    """Every transitions chart runs its own straight path from 0 or from the shift.

    translation_identity is path additivity over a triangle, so charts read
    off the running sums of one path would pass it vacuously.
    """
    starts = []

    class Counting(ImmersionPath):
        @classmethod
        def straight(cls, family, target, n_samples, profile=None, start=0.0):
            starts.append(np.broadcast_to(np.asarray(start, dtype=float), np.shape(target)))
            return super().straight(family, target, n_samples, profile, start)

    monkeypatch.setattr(charts, "ImmersionPath", Counting)
    data = minimal_scenario(fixture={"name": "two_handle", "level": 1},
                            path={"amplitudes": [0.3, -0.2]}, suites=["transitions"])
    report = run(scenario_from_dict(data))
    assert report.passed
    m, shift = 2, np.full(2, 0.04)
    assert len(starts) == 2 * (2 * (m + 1) + 1) + 1
    from_base = sum(np.array_equal(s, np.zeros(m)) for s in starts)
    from_shift = sum(np.array_equal(s, shift) for s in starts)
    assert (from_base, from_shift) == (2 * (m + 1) + 2, 2 * (m + 1) + 1)


def test_a_surplus_cycle_generator_is_a_suite_error(monkeypatch):
    """A Betti number planted one low leaves a generator over; the basis refuses it."""
    true_profile = meshes.SimplicialMesh.betti_profile

    def one_low(mesh):
        true = true_profile(mesh)
        return BettiProfile(true.betti, true.b_rel_1 - 1)

    monkeypatch.setattr(meshes.SimplicialMesh, "betti_profile", one_low)
    with pytest.raises(RankDeficientError, match="found 2 relative cycles, expected 1"):
        relative_cycle_basis(build_fixture("two_handle", 1).mesh)
    report = run(scenario_from_dict({"fixture": {"name": "two_handle"},
                                     "path": {"amplitudes": [0.3, -0.2]}, "random_paths": 1}))
    names = {c.name for c in report.checks}
    assert not any(name.endswith("/internal_error") for name in names), names
    assert {"topology/error", "embedding/error"} <= names


def test_transition_charts_take_the_scenario_sample_count():
    """On a curved family the charts' quadrature error shows in translation_identity."""
    data = dict(_STRETCH, suites=["transitions"])
    data["path"] = {"amplitudes": [0.3], "samples": 129}
    report = run(scenario_from_dict(data))
    assert report.passed, [(c.name, c.residual) for c in report.checks]
