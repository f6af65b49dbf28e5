import importlib
import json
import logging
import os
import re
import subprocess
import sys
import textwrap
import time
from pathlib import Path

import numpy as np
import pytest

import nbodyred
from nbodyred.cli import main
from nbodyred.errors import NumericalError, ValidationError
from nbodyred.serialize import dumps, loop_to_dict, scenario_from_dict
from nbodyred.configurations import find_balanced, find_central
from nbodyred.dynamics import scalar_invariants
from nbodyred.geometry import MassSystem, mass_dot
from nbodyred.motions import relative_equilibrium
from oracles import (
    Bivector,
    angular_momentum,
    circular_two_body_loop,
    complex_schwarz_gap,
    hermitian_from_bivector,
    loop_from_dict,
    saari_decomposition,
)


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

SQUARE = {
    "masses": [1.0, 1.0, 1.0, 1.0],
    "positions": [[1.0, 0.0, -1.0, 0.0], [0.0, 1.0, 0.0, -1.0]],
}

# the kappa = -1 collapse from rest, on a height of 7 digits
COLLAPSE = {
    "masses": [1.0, 1.0, 1.0],
    "kappa": -1.0,
    "positions": [[0.0, 1.0, 0.5], [0.0, 0.0, 0.8660254]],
    "velocities": [[0.0, 0.0, 0.0], [0.0, 0.0, 0.0]],
}


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


def test_trajectory_and_reduced_csv_headers(tmp_path):
    # the whole header row of each trajectory kind, as FORMATS.md names it (d = 2, n = 3)
    out = tmp_path / "out"
    for command in ("simulate", "reduce"):
        assert main([command, "--horizon", "0.1", "--samples", "3", "--out", str(out)]
                    + config_args(tmp_path, EIGHT)) == 0
    assert (out / "trajectory.csv").read_text().splitlines()[0] == (
        "t[time],r0_0[length],r0_1[length],r0_2[length],r1_0[length],r1_1[length],"
        "r1_2[length],v0_0[length/time],v0_1[length/time],v0_2[length/time],"
        "v1_0[length/time],v1_1[length/time],v1_2[length/time]")
    blocks = [("beta", "length^2"), ("gamma", "length^2/time"), ("delta", "length^2/time^2"),
              ("rho", "length^2/time")]
    reduced = (out / "reduced.csv").read_text().splitlines()[0]
    assert reduced == "t[time]," + ",".join(
        f"{name}_{i}_{j}[{unit}]" for name, unit in blocks for i in "012" for j in "012")
    assert reduced.startswith("t[time],beta_0_0[length^2],beta_0_1[length^2],beta_0_2[length^2],"
                              "beta_1_0[length^2]")


@pytest.mark.parametrize("argv, scenario, name, keys", [
    (["find-central", "--masses", "1,2,3", "--seed", "7"], None, "central.json",
     ["masses", "G", "kappa", "positions", "kind", "multiplier", "central_residual",
      "balanced_residual"]),
    (["find-balanced", "--masses", "1,1,1", "--spectrum", "0.7,0.3", "--seed", "3"], None,
     "balanced.json", ["masses", "G", "kappa", "spectrum", "positions", "kind",
                       "central_residual", "balanced_residual"]),
    (["relequil"], ISOSCELES, "relequil.json",
     ["masses", "G", "kappa", "x0", "Omega", "frequencies", "sundman_gap", "kepler_type"]),
    (["hiphop", "--seed", "0", "--modes", "4"], None, "loop.json",
     ["period", "masses", "G", "kappa", "cos_modes", "sin_modes"]),
], ids=["central", "balanced", "relequil", "loop"])
def test_json_records_keep_their_key_order(tmp_path, argv, scenario, name, keys):
    assert main(argv + config_args(tmp_path, scenario) + ["--out", str(tmp_path)]) == 0
    assert list(json.loads((tmp_path / name).read_text())) == keys


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
    out = tmp_path / "out"
    rc = main(["audit", "--integrator", "leapfrog", "--horizon", "5", "--out", str(out)]
              + config_args(tmp_path, COLLAPSE))
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



def kappa_minus_one_relative_equilibrium():
    """The isosceles relative equilibrium under kappa = -1, whose energy is 0,
    as a scenario."""
    sys, x0 = scenario_from_dict(dict(ISOSCELES, kappa=-1.0))
    z = relative_equilibrium(x0, sys).state(0.0)
    return dict(ISOSCELES, kappa=-1.0, positions=z.x.r.tolist(), velocities=z.y.r.tolist())


@pytest.mark.parametrize("integrator", ["rk8", "leapfrog"])
def test_audit_of_a_zero_energy_relative_equilibrium(tmp_path, integrator):
    # measured against |H0| = 2.7e-15, rk8 read energy and scaling-integral
    # drifts of 6.4e5, and the leapfrog exited 3 at t = 0.00977
    rc = main(["audit", "--integrator", integrator, "--horizon", "5", "--out", str(tmp_path)]
              + config_args(tmp_path, kappa_minus_one_relative_equilibrium()))
    assert rc == 0
    audit = json.loads((tmp_path / "audit.json").read_text())
    assert abs(audit["series"]["H"][0]) < 1e-14
    assert audit["energy_drift"] <= 1e-9
    if integrator == "rk8":
        assert audit["scaling_integral_drift"] <= 1e-9


@pytest.mark.parametrize("integrator", ["rk8", "leapfrog"])
def test_audit_of_a_release_from_rest(tmp_path, integrator):
    # C0 = 0: measured against max |C0| the momentum drift read 7.2e14 and more
    rest = {"masses": [1.0, 2.0, 3.0], "positions": EQUILATERAL["positions"],
            "velocities": [[0.0, 0.0, 0.0], [0.0, 0.0, 0.0]]}
    rc = main(["audit", "--integrator", integrator, "--horizon", "0.3", "--out", str(tmp_path)]
              + config_args(tmp_path, rest))
    assert rc == 0
    assert json.loads((tmp_path / "audit.json").read_text())["momentum_drift"] < 1e-12

def test_rhs_budget_exit_code(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr("nbodyred.dynamics.MAX_RHS_EVALS", 100)
    out = tmp_path / "out"
    rc = main(["simulate", "--horizon", "5"] + config_args(tmp_path, CIRCULAR) + ["--out", str(out)])
    assert rc == 3
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "StepFailure" and "budget of 100 evaluations" in err["message"]
    assert not out.exists()


def test_reduce_names_the_collapse_of_the_stronger_eight(tmp_path, capsys):
    # the figure-eight under kappa = -1, G = 1.7 falls into a collapse, which
    # the reduced right-hand side meets at its floor, at the shipped budget:
    # the run ends as the absolute route does, in a CollisionError, well
    # within 20 s (it used to crawl into the collapse)
    out = tmp_path / "out"
    start = time.perf_counter()
    rc = main(["reduce", "--horizon", "2", "--out", str(out)]
              + config_args(tmp_path, {**EIGHT, "kappa": -1, "G": 1.7}))
    assert rc == 3 and time.perf_counter() - start < 20.0
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and json.loads(err[0])["error"] == "CollisionError"
    assert json.loads(err[0])["message"].startswith("collapse at t = 0.345668 (min distance ")
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
    exact, calls = serialize.fmt_floats, []

    def failing(values, sep):
        calls.append(values)
        if len(calls) == 9:   # each row is one call
            raise ValueError("injected formatter failure")
        return exact(values, sep)

    monkeypatch.setattr(serialize, "fmt_floats", failing)
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


def test_a_record_without_G_or_kappa_gets_the_mass_system_defaults():
    for sys in (scenario_from_dict({"masses": [1, 2]})[0],
                loop_from_dict({"period": 1, "masses": [1, 2], "cos_modes": [[[0, 1], [0, -0.5]]],
                                "sin_modes": [[[0, 0], [0, 0]]]}).sys):
        assert (sys.G, sys.kappa) == (1.0, -0.5)
    sys, _ = scenario_from_dict({"masses": [1, 2], "kappa": -1})
    assert (sys.G, sys.kappa) == (1.0, -1.0)
    with pytest.raises(ValidationError, match="'G'"):
        scenario_from_dict({"masses": [1, 2], "G": "1"})


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


def test_row_template_writes_the_bytes_of_the_per_value_formatter(tmp_path):
    # one %.17g template per row against fmt value by value: signed zeros,
    # the smallest subnormal, 1e+-300, 0.1, integral floats and random bit patterns
    from nbodyred import serialize

    special = [-0.0, 0.0, 5e-324, -5e-324, 1e300, -1e300, 1e-300, 0.1, -0.1, 1.0, -3.0, 64.0,
               2.0 ** 53, 2.0 ** 53 + 2.0, 1e16, 1e17, 123456789.0]
    bits = np.random.default_rng(45).integers(0, 2 ** 63, 200, dtype=np.uint64).view(float)
    rows = np.concatenate([special * 4, bits[np.isfinite(bits)][:164]]).reshape(-1, 8)
    serialize.write_csv(str(tmp_path / "rows.csv"), list("abcdefgh"), rows)
    expected = "a,b,c,d,e,f,g,h\n" + "".join(",".join(serialize.fmt(v) for v in row) + "\n" for row in rows)
    assert (tmp_path / "rows.csv").read_text() == expected
    for seq in (special, tuple(special), np.array(special)):
        assert dumps(seq) == "[" + ", ".join(serialize.fmt(v) for v in special) + "]\n"
    assert dumps(rows) == "[" + ", ".join("[" + ", ".join(serialize.fmt(v) for v in row) + "]"
                                          for row in rows) + "]\n"
    with pytest.raises(NumericalError):
        dumps([0.5, np.inf])


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
    # Omega as written: exactly antisymmetric, +-omega_i on the plane pairs
    W, om = np.array(data["Omega"]), data["frequencies"]
    assert np.array_equal(W, -W.T)
    assert [W[0, 1], W[2, 3]] == [-om[0], -om[1]] and [W[1, 0], W[3, 2]] == om


def test_find_central_converges_where_its_start_is_far_above_the_minimum(tmp_path):
    # seed 140 on the line ends far below its starting potential: the
    # search must stop on the scale the central residual is judged on
    rc = main(["find-central", "--masses", "1,2,3", "--dim", "1", "--seed", "140",
               "--out", str(tmp_path)])
    assert rc == 0
    data = json.loads((tmp_path / "central.json").read_text())
    assert data["kind"] == "central" and data["central_residual"] <= 1e-12


def masses_123(tmp_path, search):
    """--config of masses (1, 2, 3) at the configuration search(sys)."""
    return config_args(tmp_path, {"masses": [1.0, 2.0, 3.0],
                                  "positions": search(MassSystem([1.0, 2.0, 3.0])).r.tolist()})


def written_by(tmp_path, argv, name):
    """--config of the file name that the search command argv writes."""
    assert main(argv + ["--out", str(tmp_path / "search")]) == 0
    return ["--config", str(tmp_path / "search" / name)]


RELEQUIL_INPUTS = {   # each a function of tmp_path giving the --config arguments
    "equilateral": lambda tmp: config_args(tmp, EQUILATERAL),
    "square": lambda tmp: config_args(tmp, SQUARE),
    "central-123": lambda tmp: masses_123(tmp, lambda sys: find_central(sys, 2, seed=1)),
    "central-search": lambda tmp: written_by(tmp, ["find-central", "--masses", "1,2,3", "--seed", "7"],
                                             "central.json"),
    "isosceles": lambda tmp: config_args(tmp, ISOSCELES),
    "balanced-123": lambda tmp: masses_123(tmp, lambda sys: find_balanced(sys, [2.0, 1.0], seed=1)),
    "balanced-search": lambda tmp: written_by(tmp, ["find-balanced", "--masses", "1,2,3", "--spectrum",
                                                    "2,1", "--seed", "1"], "balanced.json"),
}


@pytest.mark.parametrize("name, gap", [
    ("equilateral", None), ("square", None), ("central-123", None), ("central-search", None),
    ("isosceles", 2.388e-3), ("balanced-123", 5.693e-6), ("balanced-search", 5.693e-6),
])
def test_relequil_tells_the_kepler_type_of_central_configurations(tmp_path, name, gap):
    # the relative equilibria of a central configuration are of Kepler type,
    # the absolute minimum of Sundman's inequality; those of a balanced one
    # are not, and turn their two planes at distinct frequencies (gap None:
    # central); the searches' own files chain into relequil
    config = RELEQUIL_INPUTS[name](tmp_path)
    assert main(["relequil"] + config + ["--out", str(tmp_path)]) == 0
    data = json.loads((tmp_path / "relequil.json").read_text())
    if gap is None:
        assert data["kepler_type"] is True
        assert abs(data["sundman_gap"]) <= 1e-12
    else:
        assert data["kepler_type"] is False
        assert data["sundman_gap"] == pytest.approx(gap, rel=1e-3)
        w = data["frequencies"]
        assert len(w) == 2 and w[0] - w[1] > 1e-6 * w[0]
    # the complex Schwarz gap with Omega_C reaches equality in the same cases,
    # and both motions are rigid: Saari's deformation part is zero
    with open(config[1]) as fh:
        sys, x0 = scenario_from_dict(json.load(fh))
    z = relative_equilibrium(x0, sys).state(0.0)
    omega_c = Bivector(hermitian_from_bivector(angular_momentum(z, sys))[0])
    assert complex_schwarz_gap(z, omega_c, sys).equality is data["kepler_type"]
    y_d = saari_decomposition(z, sys)[2]
    assert mass_dot(y_d, y_d, sys.m) <= 1e-12 * scalar_invariants(z, sys)[2]


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
    assert {"audit.json", "reduced.csv", "shape.csv", "trajectory.csv"} <= {
        p.name for p in (tmp_path / "out").iterdir()}


# ---------------------------------------------------------------------------
# fresh processes: `python -m nbodyred.cli` ends through cli.run


def fresh_env(**extra):
    """The environment of a fresh process that imports this checkout's
    nbodyred, with NBODY_LOG unset unless given."""
    src = os.path.dirname(os.path.dirname(nbodyred.__file__))
    env = {k: v for k, v in os.environ.items() if k != "NBODY_LOG"}
    env["PYTHONPATH"] = os.pathsep.join([src] + [p for p in [os.environ.get("PYTHONPATH")] if p])
    return dict(env, **extra)


def run_cli(argv, timeout=120, **env):
    """A `python -m nbodyred.cli` process with stdout and stderr on pipes."""
    return subprocess.run([sys.executable, "-m", "nbodyred.cli", *argv], env=fresh_env(**env),
                          capture_output=True, text=True, timeout=timeout)


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
    (COLLAPSE, 3, "CollisionError"),
])
def test_fresh_process_failure_line_is_complete(tmp_path, scenario, code, error):
    out = tmp_path / "out"
    proc = run_cli(["simulate", "--horizon", "5", "--out", str(out)]
                   + config_args(tmp_path, scenario))
    assert proc.returncode == code and proc.stdout == ""
    assert proc.stderr.endswith("\n") and proc.stderr.count("\n") == 1
    line = json.loads(proc.stderr)
    assert list(line) == ["error", "message"] and line["error"] == error
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


@pytest.mark.parametrize("argv, scenario", [
    (["simulate", "--horizon", "1"], dict(CIRCULAR, masses=[1e200, 1e200])),
    (["relequil"], dict(EQUILATERAL, masses=[1e200, 1e200, 1.0])),
    (["hiphop", "--modes", "4", "--seed", "0", "--mass", "1e300"], None),
], ids=["simulate", "relequil", "hiphop"])
def test_fresh_process_overflowing_masses_print_one_line(tmp_path, argv, scenario):
    # a pair factor 2 G kappa m_i m_j that overflows used to spend the whole
    # evaluation budget (simulate), end in LinAlgError (relequil) or blame
    # the loop's coefficients (hiphop), after numpy's RuntimeWarnings
    out = tmp_path / "out"
    proc = run_cli(argv + config_args(tmp_path, scenario) + ["--out", str(out)], timeout=20)
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr.endswith("\n") and proc.stderr.count("\n") == 1
    assert json.loads(proc.stderr)["error"] == "ValidationError"
    assert not out.exists()


def test_fresh_process_underflowing_masses_print_one_line(tmp_path):
    # a pair mass m_i m_j that underflows to 0 silenced gravity: simulate
    # exited 0 with every audit drift exactly 0
    out = tmp_path / "out"
    scenario = dict(CIRCULAR, masses=[1e-200, 1e-200])
    proc = run_cli(["simulate", "--horizon", "1"] + config_args(tmp_path, scenario) + ["--out", str(out)],
                   timeout=20)
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr.endswith("\n") and proc.stderr.count("\n") == 1
    assert json.loads(proc.stderr)["error"] == "ValidationError"
    assert not out.exists()


def assert_one_json_line(proc, code, error, out):
    """proc exited with code, wrote one JSON line naming error on stderr and
    nothing else, no RuntimeWarning ahead of it, and left no output folder."""
    assert (proc.returncode, proc.stdout) == (code, "")
    assert proc.stderr.endswith("\n") and proc.stderr.count("\n") == 1
    assert json.loads(proc.stderr)["error"] == error
    assert not out.exists()


def test_fresh_process_find_central_rejects_a_potential_that_underflows(tmp_path):
    # U at I = 1 underflows to 0 for these masses, G and kappa: the search,
    # which divides by it, raised a bare ZeroDivisionError (exit 1)
    out = tmp_path / "out"
    proc = run_cli(["find-central", "--masses", "3,1e-300", "--seed", "7", "--G", "2", "--kappa",
                    "-1", "--dim", "7", "--out", str(out)])
    assert_one_json_line(proc, 2, "ValidationError", out)
    assert "underflow the potential" in json.loads(proc.stderr)["message"]


def test_fresh_process_relequil_far_out_writes_no_nan(tmp_path):
    # a body 1e150 away made Sundman's gap NaN: relequil.json held
    # "sundman_gap": NaN and the command exited 0
    out = tmp_path / "out"
    scenario = {"masses": [1, 1, 1], "positions": [[0, 1, 0.5], [0, 1e150, 0.8660254037844386]]}
    proc = run_cli(["relequil", "--out", str(out)] + config_args(tmp_path, scenario))
    assert_one_json_line(proc, 3, "FloatingPointError", out)


@pytest.mark.parametrize("argv, scenario, error", [
    (["audit", "--integrator", "leapfrog", "--horizon", "2"], dict(EIGHT, kappa=-1.0, G=1.7),
     "CollisionError"),
    (["find-balanced", "--masses", "1,1,1", "--spectrum", "1e300,1", "--seed", "0"], None,
     "NoConvergence"),
    (["shape-sphere"], dict(EIGHT, positions=[[1e300] + EIGHT["positions"][0][1:], EIGHT["positions"][1]]),
     None),
    (["hiphop", "--seed", "0", "--period", "5e-324"], None, None),
], ids=["leapfrog-stronger-eight", "find-balanced-spectrum-1e300", "shape-sphere-1e300",
        "hiphop-period-5e-324"])
def test_fresh_process_fault_prints_one_json_line(tmp_path, argv, scenario, error):
    # the leapfrog stops at the collapse of the stronger eight; a spectrum
    # whose forces overflow ends the balanced search; the shape sphere of a
    # body at 1e300 wrote the row nan,-0,inf, and a subnormal period printed
    # numpy's RuntimeWarnings (error None: any, a boundary check may take it)
    out = tmp_path / "out"
    proc = run_cli(argv + config_args(tmp_path, scenario) + ["--out", str(out)], timeout=20)
    assert proc.returncode in (2, 3) and proc.stdout == ""
    assert proc.stderr.endswith("\n") and proc.stderr.count("\n") == 1
    line = json.loads(proc.stderr)
    assert list(line) == ["error", "message"] and error in (None, line["error"])
    assert not out.exists()


def test_fresh_process_find_balanced_overflow_prints_no_warning(tmp_path):
    # the forces overflow and the start's cost is NaN: numpy printed three
    # RuntimeWarnings ahead of the JSON line
    out = tmp_path / "out"
    proc = run_cli(["find-balanced", "--masses", "3,0.001,1,1e300", "--seed", "1", "--G", "1e6",
                    "--kappa", "-1", "--spectrum", "1e-300,1", "--out", str(out)])
    assert_one_json_line(proc, 3, "NoConvergence", out)


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("writer", ["json", "trajectory", "kepler", "shape"])
def test_writers_refuse_a_non_finite_number_before_opening_the_file(tmp_path, writer, value):
    from nbodyred import serialize
    from nbodyred.geometry import Trajectory

    rows = np.arange(6.0).reshape(2, 3)
    rows[1, 2] = value
    samples = np.zeros((2, 2, 1, 2))
    samples[1, 1, 0, 1] = value
    path = str(tmp_path / "out" / "file")
    write = {"json": lambda: serialize.write_json(path, {"x": [1.0, {"y": rows[1, 2]}]}),
             "trajectory": lambda: serialize.trajectory_to_csv(
                 path, Trajectory(np.array([0.0, 1.0]), samples, "absolute", {})),
             "kepler": lambda: serialize.kepler_to_csv(path, rows[0, :2], rows[:, :2], rows[:, 1:]),
             "shape": lambda: serialize.shape_points_to_csv(path, rows)}[writer]
    with pytest.raises(NumericalError, match="not finite"):
        write()
    assert list(tmp_path.iterdir()) == []   # not even the output folder


SIX = {
    "masses": [1, 1.3, 0.8, 1.1, 0.9, 1.2],
    "positions": [[1, 0.525, -0.475, -1.02, -0.49, 0.5],
                  [0, 0.866025, 0.866025, 0, -0.866025, -0.866025]],
    "velocities": [[0, -0.902628, -0.952628, -0.05, 0.952628, 0.952628],
                   [1.1, 0.55, -0.52, -1.1, -0.58, 0.55]],
}


@pytest.fixture(scope="module")
def hash_seed_outputs(tmp_path_factory):
    """The folders {seed: out} that every writer fills, one fresh process per
    command and PYTHONHASHSEED 1 or 2, the two seeds' processes side by side."""
    tmp = tmp_path_factory.mktemp("hashseed")
    eight, six, equilateral, isosceles = config_args(tmp, [EIGHT, SIX, EQUILATERAL, ISOSCELES])[1::2]
    outs = {seed: tmp / f"hashseed{seed}" for seed in ("1", "2")}
    for argv, folder in [
        (["simulate", "--config", eight, "--horizon", "1"], ""),
        (["reduce", "--config", eight, "--horizon", "1"], ""),
        # 700 reduced samples expand as ten full blocks of 64 and one partial block
        (["reduce", "--config", six, "--horizon", "1", "--samples", "700"], "six"),
        (["find-central", "--masses", "1,2,3", "--seed", "7"], ""),
        # a line search that ends far below its starting potential
        (["find-central", "--masses", "1,2,3", "--dim", "1", "--seed", "140"], "line"),
        (["find-balanced", "--masses", "1,1,1", "--spectrum", "0.7,0.3", "--seed", "3"], ""),
        # every shipped group's block layout
        (["hiphop", "--modes", "8", "--seed", "0"], ""),
        (["hiphop", "--symmetry", "italian", "--modes", "8", "--seed", "0"], "italian"),
        (["hiphop", "--symmetry", "z3", "--modes", "8", "--seed", "0"], "z3"),
        (["kepler", "--e", "0.5"], ""),
        (["homographic", "--config", equilateral, "--e", "0.5"], ""),
        (["relequil", "--config", isosceles, "--samples", "65"], ""),
        (["relequil", "--config", equilateral], "central"),
        (["shape-sphere", "--config", eight, "--horizon", "1"], ""),
    ]:
        procs = [subprocess.Popen([sys.executable, "-m", "nbodyred.cli", *argv, "--out", str(out / folder)],
                                  env=fresh_env(PYTHONHASHSEED=seed), text=True,
                                  stdout=subprocess.PIPE, stderr=subprocess.PIPE)
                 for seed, out in outs.items()]
        for proc in procs:
            assert (*proc.communicate(timeout=120), proc.returncode) == ("", "", 0), argv
    return outs


def test_fresh_processes_integrate_to_the_same_bytes_under_two_hash_seeds(hash_seed_outputs):
    # two fresh processes whose string hashing differs write the same bytes,
    # through every writer
    written = [{str(p.relative_to(out)): p.read_bytes() for p in out.rglob("*") if p.is_file()}
               for out in hash_seed_outputs.values()]
    assert sorted(written[0]) == [
        "audit.json", "balanced.json", "central.json", "central/relequil.json", "hiphop.csv",
        "hiphop_report.json", "homographic.csv", "italian/hiphop.csv", "italian/hiphop_report.json",
        "italian/loop.json", "kepler.csv", "line/central.json", "loop.json", "reduced.csv",
        "relequil.csv", "relequil.json", "shape.csv", "six/reduced.csv", "trajectory.csv",
        "z3/hiphop.csv", "z3/hiphop_report.json", "z3/loop.json"]
    assert written[0] == written[1]


@pytest.mark.parametrize("group", ["", "italian", "z3"], ids=["z2z4", "italian", "z3"])
def test_hiphop_csv_samples_the_reported_loop(hash_seed_outputs, group):
    out = hash_seed_outputs["2"] / group
    x = np.loadtxt(out / "hiphop.csv", delimiter=",", skiprows=1)
    report = json.loads((out / "hiphop_report.json").read_text())
    # Loop.at_times samples from t = 0 to t = T: the first and last rows are one state
    assert np.abs(x[-1, 1:] - x[0, 1:]).max() <= 1e-12 * np.abs(x[:, 1:]).max()
    # the kinetic part of the action is Parseval's sum over the modes: at
    # --modes 8 the first 256 of the 257 rows are verify_loop's nodes, and
    # their rectangle rule T/256 sum (|v|^2 / 2 + sum 1/r_ij) (unit masses,
    # G = 1) gives the reported action
    r, v = x[:256, 1:13].reshape(-1, 3, 4), x[:256, 13:].reshape(-1, 3, 4)
    i, j = np.triu_indices(4, 1)
    U = (1.0 / np.linalg.norm(r[:, :, i] - r[:, :, j], axis=1)).sum()
    S = x[-1, 0] / 256 * (0.5 * (v * v).sum() + U)
    assert abs(S - report["action"]) <= 1e-12 * report["action"]
    # the planarity is read from the modes by Parseval: the same rows'
    # positions make the centred node cloud whose singular value ratio it is
    cloud = r.transpose(1, 0, 2).reshape(3, -1)
    sv = np.linalg.svd(cloud - cloud.mean(axis=1, keepdims=True), compute_uv=False)
    assert abs(sv[-1] / sv[0] - report["planarity"]) <= 1e-12 * report["planarity"]


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
    # the central search says what it did: evaluations, iterations, |g|, guard
    proc = run_cli(["find-central", "--masses", "1,2,3", "--seed", "7", "--out", str(tmp_path)],
                   NBODY_LOG="info")
    assert proc.returncode == 0
    assert re.search(r"^INFO:nbodyred:find_central: .*, converged$", proc.stderr, re.M)


def test_console_script_ends_through_cli_run():
    # the installed nbodyred command is cli.run; pyproject.toml is read as
    # text, since tomllib is new in Python 3.11
    text = (Path(__file__).parents[1] / "pyproject.toml").read_text()
    scripts = text.split("\n[project.scripts]\n")[1].split("\n[")[0]
    [(command, module, name)] = re.findall(r'^(\S+) = "([\w.]+):(\w+)"$', scripts, re.M)
    assert (command, module, name) == ("nbodyred", "nbodyred.cli", "run")
    assert callable(getattr(importlib.import_module(module), name))
