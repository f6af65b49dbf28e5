import json
import os
import subprocess
import sys
import textwrap

import numpy as np
import pytest

import nbodyred
from nbodyred.cli import main
from nbodyred.errors import NumericalError
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

ISOSCELES = {
    "masses": [1.0, 1.0, 1.0],
    "positions": [[-0.6, 0.6, 0.0], [0.0, 0.0, 0.9]],
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


@pytest.mark.parametrize("argv, scenario", [
    (["simulate", "--horizon", "3"], CIRCULAR),
    (["reduce", "--horizon", "3"], CIRCULAR),
    (["homographic", "--e", "0.5", "--samples", "17"], EQUILATERAL),
    (["relequil", "--samples", "65"], ISOSCELES),
    (["hiphop", "--seed", "0", "--modes", "4"], None),
], ids=["simulate", "reduce", "homographic", "relequil", "hiphop"])
def test_simulate_deterministic(tmp_path, argv, scenario):
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        assert main(argv + config_args(tmp_path, scenario) + ["--out", str(out)]) == 0
        outs.append({p.name: p.read_bytes() for p in sorted(out.iterdir())})
    assert outs[0] and outs[0] == outs[1]


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
], ids=["horizon-nan", "samples-0", "samples-1", "reduce-horizon-nan", "G-nan", "kappa-nan",
        "tol-nan", "tol-0", "tol-negative", "kepler-samples-0", "kepler-samples-1",
        "homographic-samples-0", "homographic-samples-1", "relequil-samples-1",
        "relequil-samples-negative", "hiphop-samples-0", "hiphop-samples-1",
        "hiphop-modes-0", "hiphop-modes-negative", "jobs-0", "jobs-negative",
        "spectrum-nan", "spectrum-inf", "gtol-nan", "gtol-0", "gtol-negative", "kick-nan",
        "kick-inf"])
def test_invalid_input_fails_fast_without_outputs(tmp_path, capsys, argv, scenario):
    out = tmp_path / "out"
    rc = main(argv + config_args(tmp_path, scenario) + ["--out", str(out)])
    assert rc == 2
    assert json.loads(capsys.readouterr().err)["error"] == "ValidationError"
    assert not out.exists()


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


def test_rhs_budget_exit_code(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr("nbodyred.dynamics.MAX_RHS_EVALS", 100)
    out = tmp_path / "out"
    rc = main(["simulate", "--horizon", "5"] + config_args(tmp_path, CIRCULAR) + ["--out", str(out)])
    assert rc == 3
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "StepFailure" and "budget of 100 evaluations" in err["message"]
    assert not out.exists()


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


def test_hiphop_smoke(tmp_path):
    rc = main(["hiphop", "--seed", "0", "--modes", "6", "--gtol", "1e-4",
               "--samples", "17", "--out", str(tmp_path)])
    assert rc == 0
    report = json.loads((tmp_path / "hiphop_report.json").read_text())
    assert report["planarity"] > 0.05
    loop_data = json.loads((tmp_path / "loop.json").read_text())
    loop = loop_from_dict(loop_data)
    assert loop.n_modes == 6


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
    # the test process has scipy loaded already, so check in a fresh one
    for name, scenario in [("central", EQUILATERAL), ("iso", ISOSCELES),
                           ("bad", dict(CIRCULAR, masses=[1.0, -1.0]))]:
        (tmp_path / f"{name}.json").write_text(json.dumps(scenario))
    script = textwrap.dedent(f"""
        import sys
        import nbodyred.cli, nbodyred.dynamics, nbodyred.configurations

        def loaded():
            return sorted(m for m in sys.modules if m.split(".")[0] == "scipy")

        assert not loaded(), "import"
        out = {str(tmp_path / "out")!r}
        for argv, code in [
            (["kepler", "--e", "0.5"], 0),
            (["find-central", "--masses", "1,2,3", "--seed", "7"], 0),
            (["homographic", "--config", {str(tmp_path / "central.json")!r}], 0),
            (["relequil", "--config", {str(tmp_path / "iso.json")!r}, "--samples", "9"], 0),
            (["hiphop", "--seed", "0", "--modes", "4"], 0),
            (["simulate", "--config", {str(tmp_path / "bad.json")!r}], 2),
            (["find-balanced", "--masses", "1,1,1,1", "--spectrum=nan,1", "--seed", "1"], 2),
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
