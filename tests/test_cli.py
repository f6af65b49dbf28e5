import json
import logging
import os
import subprocess
import sys
import textwrap

import numpy as np
import pytest

import nbodyred
from nbodyred.cli import main
from nbodyred.errors import NumericalError, ValidationError
from nbodyred.serialize import dumps, loop_from_dict, loop_to_dict, scenario_from_dict
from nbodyred.geometry import MassSystem
from nbodyred.action import circular_two_body_loop


CIRCULAR = {
    "masses": [1.0, 1.0],
    "G": 1.0,
    "kappa": -0.5,
    "positions": [[-0.5, 0.5], [0.0, 0.0]],
    "velocities": [[0.0, 0.0], [-0.7071067811865476, 0.7071067811865476]],
}

EQUILATERAL = {
    "masses": [1.0, 1.0, 1.0],
    "positions": [[0.0, 1.0, 0.5], [0.0, 0.0, 0.8660254037844386]],
}

EIGHT = {
    "masses": [1.0, 1.0, 1.0],
    "positions": [[0.97000436, -0.97000436, 0.0], [-0.24308753, 0.24308753, 0.0]],
    "velocities": [[0.466203685, 0.466203685, -0.93240737],
                   [0.43236573, 0.43236573, -0.86473146]],
}

ISOSCELES = {
    "masses": [1.0, 1.0, 1.0],
    "positions": [[-0.6, 0.6, 0.0], [0.0, 0.0, 0.9]],
}

ISOSCELES_MOVING = dict(ISOSCELES, velocities=[[0.0, 0.0, 0.0], [-0.4, 0.4, 0.0]])


def config_args(tmp_path, scenario):
    """--config of a scenario, or of each in a list, written to tmp_path;
    none for scenario None."""
    args = []
    for k, sc in enumerate([] if scenario is None else
                           scenario if isinstance(scenario, list) else [scenario]):
        path = tmp_path / f"scenario{k}.json"
        path.write_text(json.dumps(sc))  # a NaN is written as NaN, which json reads back
        args += ["--config", str(path)]
    return args


@pytest.fixture
def circ_config(tmp_path):
    path = tmp_path / "circ.json"
    path.write_text(json.dumps(CIRCULAR))
    return str(path)


def test_simulate_writes_trajectory_and_audit(tmp_path, circ_config):
    out = tmp_path / "out"
    rc = main(["simulate", "--config", circ_config, "--out", str(out),
               "--horizon", "5", "--tol", "1e-10"])
    assert rc == 0
    audit = json.loads((out / "audit.json").read_text())
    assert audit["energy_drift"] < 1e-8
    assert audit["momentum_drift"] < 1e-8
    header = (out / "trajectory.csv").read_text().splitlines()[0]
    assert header.startswith("t[time],r0_0[length]")


@pytest.mark.parametrize("argv, scenario", [
    (["simulate", "--horizon", "3"], CIRCULAR),
    (["reduce", "--horizon", "3"], CIRCULAR),
    (["homographic", "--e", "0.5", "--samples", "17"], EQUILATERAL),
    (["relequil", "--samples", "65"], ISOSCELES),
    (["hiphop", "--seed", "0", "--modes", "4"], None),
    (["find-central", "--masses", "1,2,3", "--seed", "7"], None),
    (["find-balanced", "--masses", "1,1,1", "--spectrum", "0.7,0.3", "--seed", "3"], None),
    (["kepler", "--e", "0.5", "--samples", "33"], None),
    (["audit", "--horizon", "3", "--integrator", "leapfrog"], CIRCULAR),
    (["shape-sphere", "--horizon", "1", "--samples", "33"], ISOSCELES_MOVING),
], ids=["simulate", "reduce", "homographic", "relequil", "hiphop", "find-central",
        "find-balanced", "kepler", "audit-leapfrog", "shape-sphere"])
def test_simulate_deterministic(tmp_path, argv, scenario):
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        assert main(argv + config_args(tmp_path, scenario) + ["--out", str(out)]) == 0
        outs.append({p.name: p.read_bytes() for p in sorted(out.iterdir())})
    assert outs[0] and outs[0] == outs[1]


def test_hiphop_log_says_what_ran_and_leaves_outputs_alone(tmp_path, caplog):
    argv = ["hiphop", "--seed", "0", "--modes", "8"]
    outs = []
    for name, level in (("quiet", logging.WARNING), ("info", logging.INFO)):
        caplog.clear()
        with caplog.at_level(level, logger="nbodyred"):
            assert main(argv + ["--out", str(tmp_path / name)]) == 0
        outs.append({p.name: p.read_bytes() for p in sorted((tmp_path / name).iterdir())})
    assert outs[0] and outs[0] == outs[1]
    assert [r.getMessage().split(":")[0] for r in caplog.records] == ["minimize_action"]


def test_validation_error_exit_code(tmp_path, capsys):
    bad = dict(CIRCULAR)
    bad["masses"] = [1.0, -1.0]
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(bad))
    rc = main(["simulate", "--config", str(path), "--out", str(tmp_path)])
    assert rc == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ValidationError"
    assert "positive" in err["message"]


@pytest.mark.parametrize("argv, scenario", [
    (["simulate", "--horizon", "nan"], CIRCULAR),
    (["simulate", "--samples", "0"], CIRCULAR),
    (["simulate", "--samples", "1"], CIRCULAR),
    (["reduce", "--horizon", "nan"], CIRCULAR),
    (["simulate"], dict(CIRCULAR, G=float("nan"))),
    (["simulate"], dict(CIRCULAR, kappa=float("nan"))),
    (["simulate", "--tol", "nan", "--horizon", "1"], CIRCULAR),
    (["simulate", "--tol", "0"], CIRCULAR),
    (["simulate", "--tol", "-1"], CIRCULAR),
    (["kepler", "--e", "0.5", "--samples", "0"], None),
    (["kepler", "--e", "0.5", "--samples", "1"], None),
    (["homographic", "--samples", "0"], EQUILATERAL),
    (["homographic", "--samples", "1"], EQUILATERAL),
    (["relequil", "--samples", "1"], ISOSCELES),
    (["relequil", "--samples", "-3"], ISOSCELES),
    (["hiphop", "--seed", "0", "--samples", "0"], None),
    (["hiphop", "--seed", "0", "--samples", "1"], None),
    (["hiphop", "--seed", "0", "--modes", "0"], None),
    (["hiphop", "--seed", "0", "--modes", "-1"], None),
    (["simulate", "--jobs", "0"], [CIRCULAR, CIRCULAR]),
    (["simulate", "--jobs", "-2"], [CIRCULAR, CIRCULAR]),
    (["find-balanced", "--masses", "1,1,1,1", "--spectrum=nan,1", "--seed", "1"], None),
    (["find-balanced", "--masses", "1,1,1,1", "--spectrum=inf,1", "--seed", "1"], None),
    (["hiphop", "--seed", "0", "--gtol", "nan"], None),
    (["hiphop", "--seed", "0", "--gtol", "0"], None),
    (["hiphop", "--seed", "0", "--gtol=-1e-6"], None),
    (["hiphop", "--seed", "0", "--kick", "nan"], None),
    (["hiphop", "--seed", "0", "--kick", "inf"], None),
    (["kepler", "--e", "1.5"], None),
    (["kepler", "--e", "0.5", "--a=-1"], None),
    (["kepler", "--e", "0.5", "--k", "nan"], None),
    (["shape-sphere", "--horizon", "nan"], ISOSCELES_MOVING),
    (["shape-sphere", "--horizon=-1"], ISOSCELES_MOVING),
    (["shape-sphere", "--horizon", "inf"], ISOSCELES_MOVING),
    (["find-central", "--masses", "1,1,1", "--seed=-1"], None),
    (["find-balanced", "--masses", "1,1,1", "--spectrum", "0.7,0.3", "--seed=-1"], None),
    (["hiphop", "--seed=-1", "--modes", "4"], None),
    (["simulate"], dict(CIRCULAR, G="x")),
    (["simulate"], dict(CIRCULAR, kappa=None)),
    (["simulate"], dict(CIRCULAR, G=[1])),
    (["simulate"], dict(CIRCULAR, masses={"a": 1})),
    (["simulate"], dict(CIRCULAR, positions={"x": 1})),
    (["simulate"], dict(CIRCULAR, velocities="fast")),
], ids=["horizon-nan", "samples-0", "samples-1", "reduce-horizon-nan", "G-nan", "kappa-nan",
        "tol-nan", "tol-0", "tol-negative", "kepler-samples-0", "kepler-samples-1",
        "homographic-samples-0", "homographic-samples-1", "relequil-samples-1",
        "relequil-samples-negative", "hiphop-samples-0", "hiphop-samples-1",
        "hiphop-modes-0", "hiphop-modes-negative", "jobs-0", "jobs-negative",
        "spectrum-nan", "spectrum-inf", "gtol-nan", "gtol-0", "gtol-negative", "kick-nan",
        "kick-inf", "kepler-e-above-1", "kepler-a-negative", "kepler-k-nan",
        "shape-sphere-horizon-nan", "shape-sphere-horizon-negative", "shape-sphere-horizon-inf",
        "find-central-seed-negative", "find-balanced-seed-negative", "hiphop-seed-negative",
        "G-string", "kappa-null", "G-list", "masses-object", "positions-object",
        "velocities-string"])
def test_invalid_input_fails_fast_without_outputs(tmp_path, capsys, argv, scenario):
    out = tmp_path / "out"
    rc = main(argv + config_args(tmp_path, scenario) + ["--out", str(out)])
    assert rc == 2
    error = json.loads(capsys.readouterr().err)
    assert error["error"] == "ValidationError"
    if "--seed=-1" in argv:
        assert "--seed" in error["message"]
    if argv == ["simulate"]:   # CIRCULAR with one field changed: the message names it
        field, = [key for key in scenario if scenario[key] is not CIRCULAR[key]]
        assert field in error["message"]
    assert not out.exists()


@pytest.mark.parametrize("argv, code", [
    (["find-central", "--masses", "1,1,1", "--seed", "0", "--G", "1e200"], 0),
    (["find-central", "--masses", "1,1,1", "--seed", "0", "--G", "1e-300"], 0),
    # at distances near 1e150 the kernel's s^(3/2) overflows to inf (with
    # no RuntimeWarning) and every force underflows to 0, so the residuals
    # are NaN
    (["find-balanced", "--masses", "1,1,1", "--spectrum", "1e300,1", "--seed", "0"], 3),
], ids=["G-1e200", "G-1e-300", "spectrum-1e300"])
def test_searches_never_pass_a_nan_residual(tmp_path, capsys, argv, code):
    # the residuals used to square the gradient: at G = 1e200 it overflowed,
    # inf <= inf passed the checks and a configuration of kind "neither"
    # with NaN residuals was written
    out = tmp_path / "out"
    assert main(argv + ["--out", str(out)]) == code
    if code:
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and json.loads(err)["error"] == "NoConvergence"
        assert not out.exists()
    else:
        data = json.loads((out / "central.json").read_text())
        assert data["kind"] == "central" and data["central_residual"] < 1e-12


def test_numerical_error_exit_code(tmp_path, capsys):
    collapse = {
        "masses": [1.0, 1.0, 1.0],
        "positions": [[0.0, 1.0, 0.5], [0.0, 0.0, 0.8660254037844386]],
        "velocities": [[0.0, 0.0, 0.0], [0.0, 0.0, 0.0]],
    }
    path = tmp_path / "collapse.json"
    path.write_text(json.dumps(collapse))
    rc = main(["simulate", "--config", str(path), "--out", str(tmp_path),
               "--horizon", "5"])
    assert rc == 3
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "CollisionError"


def test_leapfrog_audit_of_a_collapse_exits_3(tmp_path, capsys):
    # the leapfrog used to step through the kappa = -1 collapse and write an
    # audit with energy drift 2.8e5
    collapse = {"masses": [1.0, 1.0, 1.0], "kappa": -1.0,
                "positions": [[0.0, 1.0, 0.5], [0.0, 0.0, 0.8660254]],
                "velocities": [[0.0, 0.0, 0.0], [0.0, 0.0, 0.0]]}
    path = tmp_path / "collapse.json"
    path.write_text(json.dumps(collapse))
    out = tmp_path / "out"
    rc = main(["audit", "--integrator", "leapfrog", "--config", str(path), "--horizon", "5",
               "--out", str(out)])
    assert rc == 3
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and json.loads(err[0])["error"] == "CollisionError"
    assert not out.exists()


def test_leapfrog_audit_of_the_figure_eight_over_100_time_units(tmp_path):
    # about 16 periods at the default step horizon / 8192: no collision, and
    # an energy error far inside the leapfrog's bound
    path = tmp_path / "eight.json"
    path.write_text(json.dumps(EIGHT))
    rc = main(["audit", "--integrator", "leapfrog", "--config", str(path), "--horizon", "100",
               "--out", str(tmp_path)])
    assert rc == 0
    assert json.loads((tmp_path / "audit.json").read_text())["energy_drift"] < 1e-4


def test_rhs_budget_exit_code(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr("nbodyred.dynamics.MAX_RHS_EVALS", 100)
    out = tmp_path / "out"
    rc = main(["simulate", "--horizon", "5"] + config_args(tmp_path, CIRCULAR) + ["--out", str(out)])
    assert rc == 3
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "StepFailure" and "budget of 100 evaluations" in err["message"]
    assert not out.exists()


def test_reduce_names_the_collapse_of_the_stronger_eight(tmp_path, capsys, monkeypatch):
    # the figure-eight under kappa = -1, G = 1.7 falls into a collapse, which
    # the reduced route crawls into until its budget, here cut to 20,000,
    # runs out: the run ends as the absolute route does, in a CollisionError
    monkeypatch.setattr("nbodyred.dynamics.MAX_RHS_EVALS", 20_000)
    out = tmp_path / "out"
    rc = main(["reduce", "--horizon", "2", "--out", str(out)]
              + config_args(tmp_path, {**EIGHT, "kappa": -1, "G": 1.7}))
    assert rc == 3
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and json.loads(err[0])["error"] == "CollisionError"
    assert not (out / "reduced.csv").exists()


def test_linear_algebra_failure_exit_code(tmp_path, capsys, monkeypatch):
    # LinAlgError is a ValueError, but a numerical failure, not bad input
    def singular(*args, **kwargs):
        raise np.linalg.LinAlgError("Singular matrix")

    monkeypatch.setattr("nbodyred.cli.find_central", singular)
    out = tmp_path / "out"
    rc = main(["find-central", "--masses", "1,1,1", "--seed", "0", "--out", str(out)])
    assert rc == 3
    assert json.loads(capsys.readouterr().err)["error"] == "LinAlgError"
    assert not out.exists()


@pytest.mark.parametrize("jobs", ["1", "2"])
@pytest.mark.parametrize("error", [MemoryError, FloatingPointError, OverflowError])
def test_foreign_numerical_failures_exit_code(tmp_path, capsys, monkeypatch, error, jobs):
    # failures raised by numpy or Python rather than by the package are
    # numerical too: exit 3 with a JSON error, no traceback and no output
    def fail(*args, **kwargs):
        raise error("injected")

    # the pool's workers are forked, so they inherit the patch
    monkeypatch.setattr("nbodyred.cli.integrate_absolute", fail)
    out = tmp_path / "out"
    rc = main(["simulate", "--horizon", "1", "--jobs", jobs, "--out", str(out)]
              + config_args(tmp_path, [CIRCULAR, CIRCULAR]))
    assert rc == 3
    errors = [json.loads(line) for line in capsys.readouterr().err.splitlines()]
    assert [e["error"] for e in errors] == [error.__name__] * 2
    assert not out.exists()

    monkeypatch.setattr("nbodyred.cli.find_central", fail)
    rc = main(["find-central", "--masses", "1,1,1", "--seed", "0", "--out", str(out)])
    assert rc == 3
    assert json.loads(capsys.readouterr().err)["error"] == error.__name__
    assert not out.exists()


def test_nan_mass_is_reported_as_not_finite(tmp_path, capsys):
    out = tmp_path / "out"
    rc = main(["find-central", "--masses", "1,1,nan", "--seed", "0", "--out", str(out)])
    assert rc == 2
    assert json.loads(capsys.readouterr().err) == {"error": "ValidationError",
                                                   "message": "masses must be finite"}
    assert not out.exists()


def test_balanced_search_failure_exit_code(tmp_path, capsys, monkeypatch):
    # a potential that turns NaN inside the orbit search is a numerical
    # failure (exit 3), not a validation error
    from nbodyred import configurations

    exact, calls = configurations._orbit_cost_grad, []

    def nan_after_first(*args):
        calls.append(args)
        U, g = exact(*args)
        return (U, g) if len(calls) == 1 else (np.nan, np.full_like(g, np.nan))

    monkeypatch.setattr("nbodyred.configurations._orbit_cost_grad", nan_after_first)
    out = tmp_path / "out"
    rc = main(["find-balanced", "--masses", "1,1,1", "--spectrum", "0.7,0.3", "--seed", "3",
               "--out", str(out)])
    assert rc == 3
    assert json.loads(capsys.readouterr().err)["error"] == "NoConvergence"
    assert len(calls) > 1
    assert not out.exists()


@pytest.mark.parametrize("writer", ["csv", "json"])
def test_failed_write_leaves_neither_file_nor_temporary(tmp_path, monkeypatch, writer):
    # a formatter failing partway through a file: the earlier file survives
    # intact, and no partial file or temporary is left beside it
    from nbodyred import serialize

    rows = np.arange(60.0).reshape(20, 3)
    write = {"csv": lambda path: serialize.write_csv(path, ["a", "b", "c"], rows),
             "json": lambda path: serialize.write_json(path, {"rows": rows})}[writer]
    kept, fresh = tmp_path / "kept", tmp_path / "fresh"
    write(str(kept))
    before = kept.read_bytes()
    exact, calls = serialize.fmt, []

    def failing(x):
        calls.append(x)
        if len(calls) == 25:
            raise ValueError("injected formatter failure")
        return exact(x)

    monkeypatch.setattr(serialize, "fmt", failing)
    for path in (kept, fresh):
        calls.clear()
        with pytest.raises(ValueError, match="injected"):
            write(str(path))
    assert kept.read_bytes() == before
    assert sorted(p.name for p in tmp_path.iterdir()) == ["kept"]


@pytest.mark.parametrize("argv, scenario, target", [
    (["simulate", "--horizon", "1"], CIRCULAR, "audit_invariants"),
    (["hiphop", "--seed", "0", "--modes", "4"], None, "verify_loop"),
], ids=["simulate", "hiphop"])
def test_failed_command_leaves_no_outputs(tmp_path, capsys, monkeypatch, argv, scenario, target):
    # every result is computed before the first file is written
    def fail(*args, **kwargs):
        raise NumericalError("injected failure")

    monkeypatch.setattr(f"nbodyred.cli.{target}", fail)
    out = tmp_path / "out"
    rc = main(argv + config_args(tmp_path, scenario) + ["--out", str(out)])
    assert rc == 3
    assert json.loads(capsys.readouterr().err)["error"] == "NumericalError"
    assert not out.exists()


def test_find_central_json(tmp_path):
    rc = main(["find-central", "--masses", "1,2,3", "--dim", "2",
               "--seed", "7", "--out", str(tmp_path)])
    assert rc == 0
    data = json.loads((tmp_path / "central.json").read_text())
    assert data["kind"] == "central"
    assert data["central_residual"] < 1e-10
    r = np.asarray(data["positions"])
    d01 = np.linalg.norm(r[:, 0] - r[:, 1])
    d02 = np.linalg.norm(r[:, 0] - r[:, 2])
    d12 = np.linalg.norm(r[:, 1] - r[:, 2])
    assert max(d01, d02, d12) - min(d01, d02, d12) < 1e-9


def test_find_balanced_json(tmp_path):
    rc = main(["find-balanced", "--masses", "1,1,1", "--spectrum", "0.7,0.3",
               "--seed", "3", "--out", str(tmp_path)])
    assert rc == 0
    data = json.loads((tmp_path / "balanced.json").read_text())
    assert data["balanced_residual"] < 1e-8


def test_kepler_csv(tmp_path):
    rc = main(["kepler", "--e", "0.5", "--a", "1.0", "--k", "2.0",
               "--samples", "5", "--out", str(tmp_path)])
    assert rc == 0
    lines = (tmp_path / "kepler.csv").read_text().splitlines()
    assert len(lines) == 6
    first = [float(v) for v in lines[1].split(",")]
    assert first[1] == pytest.approx(2.0 * (1.0 - 0.5))  # ka(cos 0 - e)


def test_jobs_suffix(tmp_path, circ_config):
    rc = main(["simulate", "--config", circ_config, "--config", circ_config,
               "--out", str(tmp_path), "--horizon", "2", "--jobs", "2"])
    assert rc == 0
    assert (tmp_path / "trajectory_job0.csv").exists()
    assert (tmp_path / "audit_job1.json").exists()


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_every_config_runs_to_its_own_end(tmp_path, capsys, jobs):
    bad = dict(CIRCULAR, masses=[1.0, -1.0])
    out = tmp_path / "out"
    rc = main(["simulate", "--horizon", "1", "--jobs", jobs, "--out", str(out)]
              + config_args(tmp_path, [bad, CIRCULAR]))
    assert rc == 2
    errors = [json.loads(line) for line in capsys.readouterr().err.splitlines()]
    assert [e["error"] for e in errors] == ["ValidationError"]
    assert sorted(p.name for p in out.iterdir()) == ["audit_job1.json", "trajectory_job1.csv"]


def test_shape_sphere_csv(tmp_path):
    cfg = {
        "masses": [1.0, 1.0, 1.0],
        "positions": [[0.0, 1.0, 0.5], [0.0, 0.0, 0.8660254037844386]],
    }
    path = tmp_path / "tri.json"
    path.write_text(json.dumps(cfg))
    rc = main(["shape-sphere", "--config", str(path), "--out", str(tmp_path)])
    assert rc == 0
    lines = (tmp_path / "shape.csv").read_text().splitlines()
    lon, lat, inertia = (float(v) for v in lines[1].split(","))
    assert lat == pytest.approx(np.pi / 2, abs=1e-6)  # equilateral at the pole


def test_shape_sphere_horizon_zero_maps_the_configuration_only(tmp_path):
    argv = ["shape-sphere", "--horizon", "0", "--samples", "33", "--out", str(tmp_path)]
    assert main(argv + config_args(tmp_path, ISOSCELES_MOVING)) == 0
    assert len((tmp_path / "shape.csv").read_text().splitlines()) == 2   # header, one point


def test_hiphop_smoke(tmp_path):
    rc = main(["hiphop", "--seed", "0", "--modes", "6", "--gtol", "1e-4",
               "--samples", "17", "--out", str(tmp_path)])
    assert rc == 0
    report = json.loads((tmp_path / "hiphop_report.json").read_text())
    assert report["planarity"] > 0.05
    loop_data = json.loads((tmp_path / "loop.json").read_text())
    loop = loop_from_dict(loop_data)
    assert loop.n_modes == 6


@pytest.mark.parametrize("field, value", [("masses", [True, True]), ("masses", [1.0, False]),
                                          ("positions", [[0, 1], [0, True]]), ("G", 10 ** 400),
                                          ("masses", [1, 10 ** 400]), ("positions", [[0, 1], [0]])],
                         ids=["masses-true", "masses-false", "positions-true", "G-huge",
                              "masses-huge", "positions-ragged"])
def test_a_boolean_or_a_huge_integer_is_no_number(field, value):
    # an integer beyond the floats made OverflowError, exit 3
    data = {"masses": [1, 1], "positions": [[0, 1], [0, 0.5]], field: value}
    with pytest.raises(ValidationError, match=repr(field)):
        scenario_from_dict(data)


@pytest.mark.parametrize("field, value", [
    ("period", "1"), ("period", True), ("period", None), ("G", "x"), ("G", True),
    ("kappa", [-0.5]), ("masses", [1.0, True]), ("masses", "1, 1"),
    ("cos_modes", [[[0.0, 1.0], [0.0, "1"]]]), ("sin_modes", {"k": 1}),
])
def test_loop_from_dict_names_a_field_of_the_wrong_type(field, value):
    data = json.loads(dumps(loop_to_dict(circular_two_body_loop(2 * np.pi, MassSystem([1.0, 1.0]),
                                                                1))))
    assert loop_from_dict(data).n_modes == 1
    data[field] = value
    with pytest.raises(ValidationError, match=repr(field)):
        loop_from_dict(data)


def test_scenario_and_loop_round_trip():
    sys, z = scenario_from_dict(CIRCULAR)
    redumped = dumps({"masses": list(sys.m), "G": sys.G, "kappa": sys.kappa,
                      "positions": z.x.r.tolist(), "velocities": z.y.r.tolist()})
    sys2, z2 = scenario_from_dict(json.loads(redumped))
    assert np.array_equal(z.x.r, z2.x.r)
    assert np.array_equal(z.y.r, z2.y.r)

    loop = circular_two_body_loop(2 * np.pi, MassSystem([1.0, 1.0]), 5)
    loop2 = loop_from_dict(json.loads(dumps(loop_to_dict(loop))))
    assert np.array_equal(loop.cos_modes, loop2.cos_modes)
    assert np.array_equal(loop.sin_modes, loop2.sin_modes)
    assert loop.T == loop2.T


def test_seventeen_digit_floats():
    x = 0.1234567890123456789
    text = dumps({"x": x})
    assert json.loads(text)["x"] == x


def test_audit_leapfrog(tmp_path, circ_config):
    rc = main(["audit", "--config", circ_config, "--out", str(tmp_path),
               "--horizon", "5", "--integrator", "leapfrog"])
    assert rc == 0
    audit = json.loads((tmp_path / "audit.json").read_text())
    assert audit["energy_drift"] < 1e-10


def test_homographic_and_relequil(tmp_path):
    path = tmp_path / "central.json"
    path.write_text(json.dumps(EQUILATERAL))
    rc = main(["homographic", "--config", str(path), "--e", "0.5",
               "--samples", "17", "--out", str(tmp_path)])
    assert rc == 0
    assert (tmp_path / "homographic.csv").exists()

    path2 = tmp_path / "iso.json"
    path2.write_text(json.dumps(ISOSCELES))
    rc = main(["relequil", "--config", str(path2), "--samples", "9",
               "--out", str(tmp_path)])
    assert rc == 0
    data = json.loads((tmp_path / "relequil.json").read_text())
    assert len(data["frequencies"]) == 2
    assert (tmp_path / "relequil.csv").exists()


def test_closed_form_commands_do_not_import_scipy(tmp_path):
    # nor does any other command: scipy is blocked in a fresh process (this
    # one has it loaded already), so any import of it raises
    for name, scenario in [("central", EQUILATERAL), ("iso", ISOSCELES), ("eight", EIGHT),
                           ("bad", dict(CIRCULAR, masses=[1.0, -1.0])),
                           ("collapse", dict(EQUILATERAL, velocities=[[0.0] * 3] * 2))]:
        (tmp_path / f"{name}.json").write_text(json.dumps(scenario))
    script = textwrap.dedent(f"""
        import sys
        sys.modules["scipy"] = None
        import nbodyred.cli, nbodyred.dynamics, nbodyred.configurations

        def loaded():
            return sorted(m for m, mod in sys.modules.items()
                          if mod is not None and m.split(".")[0] == "scipy")

        assert not loaded(), "import"
        out = {str(tmp_path / "out")!r}
        eight = {str(tmp_path / "eight.json")!r}
        for argv, code in [
            (["kepler", "--e", "0.5"], 0),
            (["find-central", "--masses", "1,2,3", "--seed", "7"], 0),
            (["homographic", "--config", {str(tmp_path / "central.json")!r}], 0),
            (["relequil", "--config", {str(tmp_path / "iso.json")!r}, "--samples", "9"], 0),
            (["hiphop", "--seed", "0", "--modes", "4"], 0),
            (["simulate", "--config", eight, "--horizon", "1"], 0),
            (["reduce", "--config", eight, "--horizon", "1"], 0),
            (["audit", "--config", eight, "--horizon", "1", "--integrator", "leapfrog"], 0),
            (["shape-sphere", "--config", eight, "--horizon", "1", "--samples", "33"], 0),
            (["simulate", "--config", {str(tmp_path / "collapse.json")!r}, "--horizon", "5"], 3),
            (["simulate", "--config", {str(tmp_path / "bad.json")!r}], 2),
            (["find-balanced", "--masses", "1,1,1,1", "--spectrum=nan,1", "--seed", "1"], 2),
            (["find-balanced", "--masses", "1,1,1", "--spectrum", "0.7,0.3", "--seed", "3"], 0),
            (["find-balanced", "--masses", "1,1.3,0.8,1.1", "--spectrum", "0.5,0.3,0.2",
              "--seed", "5"], 0),
        ]:
            assert nbodyred.cli.main(argv + ["--out", out]) == code, argv
            assert not loaded(), argv
    """)
    src = os.path.dirname(os.path.dirname(nbodyred.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


# ---------------------------------------------------------------------------
# fresh processes: `python -m nbodyred.cli` ends through cli.run


def fresh_env(**extra):
    """The environment of a fresh process that imports this checkout's
    nbodyred, with NBODY_LOG unset unless given."""
    src = os.path.dirname(os.path.dirname(nbodyred.__file__))
    env = {k: v for k, v in os.environ.items() if k != "NBODY_LOG"}
    env["PYTHONPATH"] = os.pathsep.join([src] + [p for p in [os.environ.get("PYTHONPATH")] if p])
    return dict(env, **extra)


def run_cli(argv, **env):
    """A `python -m nbodyred.cli` process with stdout and stderr on pipes."""
    return subprocess.run([sys.executable, "-m", "nbodyred.cli", *argv], env=fresh_env(**env),
                          capture_output=True, text=True, timeout=120)


def test_fresh_process_writes_its_files(tmp_path, circ_config):
    proc = run_cli(["simulate", "--config", circ_config, "--horizon", "1", "--samples", "9",
                    "--out", str(tmp_path / "out")])
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "", "")
    assert sorted(p.name for p in (tmp_path / "out").iterdir()) == ["audit.json",
                                                                    "trajectory.csv"]
    header, *rows = (tmp_path / "out" / "trajectory.csv").read_text().splitlines()
    assert header.startswith("t[time],") and len(rows) == 9
    assert json.loads((tmp_path / "out" / "audit.json").read_text())["energy_drift"] < 1e-8


@pytest.mark.parametrize("scenario, code, error", [
    (dict(CIRCULAR, masses=[1.0, -1.0]), 2, "ValidationError"),
    (dict(EQUILATERAL, velocities=[[0.0] * 3] * 2), 3, "CollisionError"),
])
def test_fresh_process_failure_line_is_complete(tmp_path, scenario, code, error):
    out = tmp_path / "out"
    proc = run_cli(["simulate", "--horizon", "5", "--out", str(out)]
                   + config_args(tmp_path, scenario))
    assert proc.returncode == code and proc.stdout == ""
    assert proc.stderr.endswith("\n") and proc.stderr.count("\n") == 1
    assert json.loads(proc.stderr)["error"] == error
    assert not out.exists()


@pytest.mark.parametrize("argv, scenario", [
    (["kepler", "--e", "1.5"], None),
    (["kepler", "--e", "0.5", "--a=-1"], None),
    (["homographic", "--e", "1.5"], EQUILATERAL),
], ids=["kepler-e", "kepler-a", "homographic-e"])
def test_fresh_process_invalid_kepler_elements_print_one_line(tmp_path, argv, scenario):
    # the elements are checked before sqrt(a (1 - e^2)) is formed, which used
    # to print a numpy RuntimeWarning ahead of the JSON line
    out = tmp_path / "out"
    proc = run_cli(argv + config_args(tmp_path, scenario) + ["--out", str(out)])
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr.endswith("\n") and proc.stderr.count("\n") == 1
    assert json.loads(proc.stderr)["error"] == "ValidationError"
    assert not out.exists()


def test_fresh_process_parser_exit(tmp_path):
    # argparse's own exit keeps the normal path: usage on stderr, code 2
    proc = run_cli(["simulate", "--out", str(tmp_path)])
    assert proc.returncode == 2
    assert proc.stderr.startswith("usage: nbodyred simulate")
    assert "--config" in proc.stderr.splitlines()[-1]


def test_fresh_process_jobs_report_every_outcome(tmp_path):
    bad = dict(CIRCULAR, masses=[1.0, -1.0])
    out = tmp_path / "out"
    proc = run_cli(["simulate", "--horizon", "1", "--samples", "9", "--jobs", "2",
                    "--out", str(out)] + config_args(tmp_path, [CIRCULAR, bad]))
    assert proc.returncode == 2
    assert [json.loads(line)["error"] for line in proc.stderr.splitlines()] == ["ValidationError"]
    assert sorted(p.name for p in out.iterdir()) == ["audit_job0.json", "trajectory_job0.csv"]


def test_fresh_process_info_log(tmp_path):
    proc = run_cli(["hiphop", "--seed", "0", "--modes", "8", "--samples", "9",
                    "--out", str(tmp_path)], NBODY_LOG="INFO")
    assert proc.returncode == 0
    assert [line.split(":")[2] for line in proc.stderr.splitlines()] == ["minimize_action"]
    assert proc.stderr.startswith("INFO:nbodyred:minimize_action: ")


def test_commands_do_not_load_logging_unless_asked(tmp_path, circ_config):
    # main imports and configures logging only when NBODY_LOG is set; run in
    # process in a fresh interpreter (this one has logging loaded already)
    script = textwrap.dedent(f"""
        import sys
        import nbodyred.cli

        assert "logging" not in sys.modules, "import"
        out = {str(tmp_path / "out")!r}
        for argv in (["kepler", "--e", "0.5"],
                     ["simulate", "--config", {circ_config!r}, "--horizon", "1"]):
            assert nbodyred.cli.main(argv + ["--out", out]) == 0, argv
            assert "logging" not in sys.modules, argv
    """)
    proc = subprocess.run([sys.executable, "-c", script], env=fresh_env(), capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("value", ["basic_format", "verbose"])
def test_fresh_process_rejects_unknown_log_level(tmp_path, value):
    # a logging attribute that is no level used to crash the command with a
    # traceback, and a misspelt level to run silently at WARNING
    out = tmp_path / "out"
    proc = run_cli(["kepler", "--e", "0.5", "--out", str(out)], NBODY_LOG=value)
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr.endswith("\n") and proc.stderr.count("\n") == 1
    error = json.loads(proc.stderr)
    assert error["error"] == "ValidationError" and repr(value) in error["message"]
    assert all(name in error["message"] for name in ("DEBUG", "INFO", "WARNING", "ERROR",
                                                     "CRITICAL"))
    assert not out.exists()


def test_fresh_process_log_level_in_any_case(tmp_path):
    proc = run_cli(["hiphop", "--seed", "0", "--modes", "8", "--samples", "9",
                    "--out", str(tmp_path)], NBODY_LOG="info")
    assert proc.returncode == 0
    assert proc.stderr.startswith("INFO:nbodyred:minimize_action: ")
    assert (tmp_path / "hiphop_report.json").exists()
