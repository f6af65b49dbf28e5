"""A seeded fuzz of the command line's exit contract.

Each case runs cli.main in process on a mutated figure-eight or equilateral
scenario, with mutated flags, over all ten commands in turn.  A scenario
takes zero to three mutations: a mass, coordinate or velocity set to one of
VALUES, G set to one of them, kappa to one of KAPPAS, or the whole
configuration scaled by 1e+-150 or 1e+-100.  A command takes up to two flag
mutations: a float flag set to one of VALUES, an integer flag to one of its
small values (sample counts and modes at most 64, --jobs at most 2; two
copies of one scenario go to a pool of two jobs, whose --jobs 2 comes last
and so wins).

Every case must keep the contract: exit code 0, 2 or 3; on failure one JSON
error line on stderr per failed run (a pool reports each of its two equal
runs) and no output folder; on success only finite numbers in every file;
no RuntimeWarning; an end within CASE_SECONDS, read from the clock after
the case, so no signal is involved.  An rk8 run spends at most FUZZ_BUDGET
right-hand side evaluations here rather than MAX_RHS_EVALS, and a
quasi-Newton search at most FUZZ_ITER accepted steps rather than MAX_ITER:
a case whose horizon is 1e300 then ends in the same StepFailure in a tenth
of a second, and a hiphop at --gtol 1e-150 in the same NoConvergence in a
tenth of its 4,000-step time.
"""

import contextlib
import io
import json
import math
import time
import warnings

import numpy as np

import nbodyred.dynamics
import nbodyred.optimize
from nbodyred.cli import main

VALUES = (0.0, -1.0, 1e300, 1e-300, 1e150, 1e-150, 5e-324, math.inf, -math.inf, math.nan)
KAPPAS = (-0.5, -1.0, -0.3, -2.0, -1e-9, -10.0)
SCALES = (1e150, 1e-150, 1e100, 1e-100)

EIGHT = {
    "masses": [1.0, 1.0, 1.0],
    "positions": [[0.97000436, -0.97000436, 0.0], [-0.24308753, 0.24308753, 0.0]],
    "velocities": [[0.466203685, 0.466203685, -0.93240737],
                   [0.43236573, 0.43236573, -0.86473146]],
}
EQUILATERAL = {
    "masses": [1.0, 1.0, 1.0],
    "positions": [[0.0, 1.0, 0.5], [0.0, 0.0, 0.8660254037844386]],
}

SAMPLES = (0, -1, 1, 2, 17, 64)
INTS = {"--samples": SAMPLES, "--modes": (0, -1, 1, 2, 8, 64), "--dim": (0, -1, 1, 2, 3, 7),
        "--seed": (0, -1, 7), "--jobs": (0, -1, 1, 2)}
# each command's flags at small, valid values; --masses and --spectrum are
# comma lists whose entries mutate like a float flag
FLAGS = {
    "simulate": {"--horizon": 1.0, "--tol": 1e-8, "--samples": 17, "--integrator": "rk8", "--jobs": 1},
    "audit": {"--horizon": 1.0, "--tol": 1e-8, "--samples": 17, "--integrator": "leapfrog", "--jobs": 1},
    "reduce": {"--horizon": 1.0, "--tol": 1e-8, "--samples": 17, "--jobs": 1},
    "find-central": {"--masses": [1.0, 2.0, 3.0], "--dim": 2, "--seed": 7, "--G": 1.0, "--kappa": -0.5},
    "find-balanced": {"--masses": [1.0, 1.0, 1.0], "--spectrum": [0.7, 0.3], "--seed": 3,
                      "--G": 1.0, "--kappa": -0.5},
    "kepler": {"--e": 0.5, "--a": 1.0, "--k": 1.0, "--samples": 17},
    "homographic": {"--e": 0.3, "--scale": 1.0, "--samples": 17, "--jobs": 1},
    "relequil": {"--samples": 17, "--jobs": 1},
    "hiphop": {"--mass": 1.0, "--G": 1.0, "--period": 2.0 * math.pi, "--modes": 8, "--seed": 0,
               "--kick": 0.3, "--gtol": 1e-6, "--samples": 17, "--symmetry": "z2z4"},
    "shape-sphere": {"--horizon": 1.0, "--tol": 1e-8, "--samples": 17, "--jobs": 1},
}
CONFIG_COMMANDS = ("simulate", "audit", "reduce", "homographic", "relequil", "shape-sphere")
COMMANDS = tuple(FLAGS)
SEEDS = (0, 1, 2)
CASES_PER_SEED = 80
CASE_SECONDS = 3.0
FUZZ_BUDGET = 20_000
FUZZ_ITER = 400


def mutate_scenario(rng):
    """A figure-eight or equilateral scenario with zero to three mutations."""
    sc = json.loads(json.dumps(EIGHT if rng.random() < 0.5 else EQUILATERAL))
    for _ in range(int(rng.integers(4))):
        kind = int(rng.integers(5))
        if kind == 0:
            sc["masses"][int(rng.integers(3))] = float(rng.choice(VALUES))
        elif kind == 1:
            key = "velocities" if "velocities" in sc and rng.random() < 0.5 else "positions"
            sc[key][int(rng.integers(2))][int(rng.integers(3))] = float(rng.choice(VALUES))
        elif kind == 2:
            sc["G"] = float(rng.choice(VALUES))
        elif kind == 3:
            sc["kappa"] = float(rng.choice(KAPPAS))
        else:
            scale = float(rng.choice(SCALES))   # Python floats overflow to inf silently
            sc["positions"] = [[v * scale for v in row] for row in sc["positions"]]
    return sc


def mutate_flags(command, rng):
    """The command's flags with zero to two of them mutated, as argv."""
    flags = dict(FLAGS[command])
    for _ in range(int(rng.integers(3))):
        key = str(rng.choice(sorted(flags)))
        if key in INTS:
            flags[key] = int(rng.choice(INTS[key]))
        elif key == "--kappa" and rng.random() < 0.5:
            flags[key] = float(rng.choice(KAPPAS))
        elif key in ("--masses", "--spectrum"):
            flags[key] = list(flags[key])
            flags[key][int(rng.integers(len(flags[key])))] = float(rng.choice(VALUES))
        elif key not in ("--integrator", "--symmetry"):
            flags[key] = float(rng.choice(VALUES))
    # --flag=value, so that argparse reads -inf as a value, not as an option
    return [f"{key}={','.join(map(repr, value)) if isinstance(value, list) else value}"
            for key, value in flags.items()]


def cases(seed):
    """(argv without --out, scenario or None, number of configs) of each case."""
    rng = np.random.default_rng(seed)
    for k in range(CASES_PER_SEED):
        command = COMMANDS[k % len(COMMANDS)]
        argv = [command] + mutate_flags(command, rng)
        scenario, configs = None, 0
        if command in CONFIG_COMMANDS:
            scenario = mutate_scenario(rng)
            configs = 2 if rng.random() < 0.1 else 1
            if configs == 2:
                argv += ["--jobs", "2"]
        yield argv, scenario, configs


def finite_numbers(path):
    """Whether every number of a CSV or JSON output file is finite."""
    text = path.read_text()
    if path.suffix == ".csv":
        rows = [line.split(",") for line in text.splitlines()[1:]]
        return all(math.isfinite(float(v)) for row in rows for v in row)
    numbers = []

    def walk(obj):
        if isinstance(obj, dict):
            for v in obj.values():
                walk(v)
        elif isinstance(obj, list):
            for v in obj:
                walk(v)
        elif isinstance(obj, (int, float)) and not isinstance(obj, bool):
            numbers.append(float(obj))

    walk(json.loads(text, parse_constant=float))
    return all(map(math.isfinite, numbers))


def run_case(argv, scenario, configs, where):
    """The exit code of one case and the contract's breaches, as strings
    (none when it holds)."""
    if scenario is not None:
        path = where / "scenario.json"
        path.write_text(json.dumps(scenario))   # NaN and inf as JSON reads them back
        argv = argv + ["--config", str(path)] * configs
    out = where / "out"
    err = io.StringIO()
    start = time.perf_counter()
    with warnings.catch_warnings(record=True) as caught, contextlib.redirect_stderr(err):
        warnings.simplefilter("always")
        try:
            code = main(argv + ["--out", str(out)])
        except BaseException as exc:   # a traceback or a parser exit breaks the contract
            code = f"{type(exc).__name__}: {exc}"
    seconds = time.perf_counter() - start
    breaches = []
    if code not in (0, 2, 3):
        breaches.append(f"exit {code}")
    lines = err.getvalue().splitlines()
    if code == 0:
        if lines:
            breaches.append(f"success with stderr {lines}")
        files = sorted(out.iterdir()) if out.exists() else []
        if not files:
            breaches.append("success without output")
        breaches += [f"non-finite number in {f.name}" for f in files if not finite_numbers(f)]
    elif code in (2, 3):
        try:
            errors = [json.loads(line) for line in lines]
        except ValueError:
            errors = None
        if (not errors or len(errors) not in (1, max(configs, 1))
                or any(e != errors[0] or set(e) != {"error", "message"} for e in errors)):
            breaches.append(f"stderr is not one JSON error line per failed run: {lines}")
        if out.exists():
            breaches.append("failure left an output folder")
    breaches += [f"RuntimeWarning: {w.message}" for w in caught if issubclass(w.category, RuntimeWarning)]
    if seconds > CASE_SECONDS:
        breaches.append(f"took {seconds:.1f} s")
    return code, breaches


def test_seeded_cli_fuzz_keeps_the_exit_contract(tmp_path, monkeypatch):
    monkeypatch.setattr(nbodyred.dynamics, "MAX_RHS_EVALS", FUZZ_BUDGET)
    monkeypatch.setattr(nbodyred.optimize, "MAX_ITER", FUZZ_ITER)
    failures, reached = [], set()
    for seed in SEEDS:
        for k, (argv, scenario, configs) in enumerate(cases(seed)):
            where = tmp_path / f"s{seed}c{k}"
            where.mkdir()
            code, breaches = run_case(argv, scenario, configs, where)
            reached.add((argv[0], code, configs))
            failures += [f"seed {seed} case {k} {argv} {scenario}: {b}" for b in breaches]
    assert not failures, "\n".join(failures)
    # the fuzz is only as good as its reach: every command runs, each ends
    # in success at least once, both failure codes occur, and so do pools
    assert {command for command, code, _ in reached if code == 0} == set(COMMANDS)
    assert {2, 3} <= {code for _, code, _ in reached}
    assert any(configs == 2 for _, code, configs in reached if code == 0)
