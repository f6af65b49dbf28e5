"""Command-line entry point.

Subcommands: simulate, reduce, audit, find-central, find-balanced, kepler,
homographic, relequil, hiphop, shape-sphere.  Inputs are JSON scenarios
(FORMATS.md); outputs are CSV/JSON files in --out.  Exit codes: 0 success,
2 validation error, 3 numerical failure; failures emit one JSON object on
stderr.  Runs are deterministic: stochastic searches require --seed and all
floats are written with fixed formatting.
"""

import argparse
import json
import os
import sys as _sys

import numpy as np

from . import serialize
from .errors import NumericalError, ValidationError, log_info
from .geometry import MassSystem, RelativeState, State
from .dynamics import _sample_times, audit_invariants, integrate_absolute, integrate_reduced
from .configurations import classify, find_balanced, find_central, shape_sphere
from .motions import HomographicMotion, KeplerOrbit, kepler_state, relative_equilibrium
from .action import (
    MinimizeOptions,
    minimize_action,
    square_relative_equilibrium_loop,
    symmetry_by_label,
    verify_loop,
)


def _outpath(args, name, suffix=""):
    os.makedirs(args.out, exist_ok=True)
    stem, ext = name.rsplit(".", 1)
    return os.path.join(args.out, f"{stem}{suffix}.{ext}")


def _need_state(path):
    sys, z = serialize.load_scenario(path)
    if not isinstance(z, State):
        raise ValidationError(f"{path} must contain positions and velocities")
    return sys, z


def _need_configuration(path):
    sys, z = serialize.load_scenario(path)
    if z is None:
        raise ValidationError(f"{path} must contain positions")
    return sys, (z.x if isinstance(z, State) else z)


# ---------------------------------------------------------------------------
# subcommands


def _cmd_simulate(args, config, suffix=""):
    """simulate writes trajectory.csv and audit.json, audit only audit.json."""
    sys, z0 = _need_state(config)
    traj = integrate_absolute(z0, sys, args.horizon, tol=args.tol,
                              method=args.integrator, samples=args.samples)
    report = audit_invariants(traj, sys)
    if args.command == "simulate":
        serialize.trajectory_to_csv(_outpath(args, "trajectory.csv", suffix), traj)
    serialize.write_json(_outpath(args, "audit.json", suffix),
                         serialize.report_to_dict(report))
    log_info("energy drift %.3e, momentum drift %.3e",
             report.energy_drift, report.momentum_drift)
    return 0


def _cmd_reduce(args, config, suffix=""):
    sys, z0 = _need_state(config)
    rel0 = RelativeState.from_state(z0)
    traj = integrate_reduced(rel0, sys, args.horizon, tol=args.tol,
                             samples=args.samples)
    serialize.reduced_trajectory_to_csv(_outpath(args, "reduced.csv", suffix), traj)
    return 0


def _masses(text):
    m = [float(v) for v in text.split(",") if v.strip()]
    if not m:
        raise ValidationError("empty mass list")
    return m


def _cmd_find(args, config=None, suffix=""):
    """find-central writes central.json, find-balanced balanced.json."""
    sys = MassSystem(_masses(args.masses), G=args.G, kappa=args.kappa)
    head = {"masses": list(sys.m), "G": sys.G, "kappa": sys.kappa}
    if args.command == "find-central":
        x = find_central(sys, args.dim, seed=args.seed)
    else:
        head["spectrum"] = [float(v) for v in args.spectrum.split(",") if v.strip()]
        x = find_balanced(sys, head["spectrum"], seed=args.seed)
    cls = classify(x, sys, tol=1e-8)
    multiplier = {"multiplier": cls.multiplier} if args.command == "find-central" else {}
    serialize.write_json(_outpath(args, args.command.removeprefix("find-") + ".json", suffix), {
        **head, "positions": x.r.tolist(), "kind": cls.kind, **multiplier,
        "central_residual": cls.central_residual, "balanced_residual": cls.balanced_residual})
    return 0


def _cmd_kepler(args, config=None, suffix=""):
    orbit = KeplerOrbit.from_elements(args.k, args.a, args.e)
    ts = _sample_times(orbit.period, args.samples)
    zeta, zdot = kepler_state(orbit, ts)
    serialize.write_csv(_outpath(args, "kepler.csv", suffix),
                        ["t[time]", "xi[length]", "eta[length]", "xidot[length/time]",
                         "etadot[length/time]"], np.column_stack([ts, zeta.T, zdot.T]))
    return 0


def _cmd_homographic(args, config, suffix=""):
    sys, x0 = _need_configuration(config)
    motion = HomographicMotion(x0, sys, e=args.e, scale=args.scale)
    traj = motion.sample(_sample_times(motion.period, args.samples))
    serialize.trajectory_to_csv(_outpath(args, "homographic.csv", suffix), traj)
    return 0


def _cmd_relequil(args, config, suffix=""):
    sys, x0 = _need_configuration(config)
    re = relative_equilibrium(x0, sys)
    if args.samples:
        traj = re.sample(_sample_times(2.0 * re.slow_period, args.samples))
    serialize.write_json(_outpath(args, "relequil.json", suffix), {
        "masses": list(sys.m), "G": sys.G, "kappa": sys.kappa,
        "x0": re.x0.r.tolist(),
        "Omega": re.Omega.c.tolist(),
        "frequencies": re.frequencies,
    })
    if args.samples:
        serialize.trajectory_to_csv(_outpath(args, "relequil.csv", suffix), traj)
    return 0


def _cmd_hiphop(args, config=None, suffix=""):
    if args.bodies != 4:
        raise ValidationError("the square/tetrahedron class is built for 4 bodies")
    ts = _sample_times(args.period, args.samples)
    sys = MassSystem([args.mass] * args.bodies, G=args.G)
    sym = symmetry_by_label(args.symmetry, n=args.bodies, d=3)
    seed_loop = square_relative_equilibrium_loop(args.period, sys, args.modes,
                                                 vertical_kick=args.kick)
    opts = MinimizeOptions(gtol=args.gtol, seed=args.seed)
    loop = minimize_action(seed_loop, sym, opts)
    report = verify_loop(loop, sym=sym)
    traj = loop.sample(ts)
    serialize.write_json(_outpath(args, "loop.json", suffix),
                         serialize.loop_to_dict(loop))
    serialize.write_json(_outpath(args, "hiphop_report.json", suffix), vars(report))
    serialize.trajectory_to_csv(_outpath(args, "hiphop.csv", suffix), traj)
    return 0


def _cmd_shape_sphere(args, config, suffix=""):
    if not 0.0 <= args.horizon < np.inf:   # written so that NaN fails it
        raise ValidationError("--horizon must be finite and nonnegative (0: configuration only)")
    sys, z = serialize.load_scenario(config)
    if z is None:
        raise ValidationError("scenario needs positions")
    if isinstance(z, State) and args.horizon > 0:
        traj = integrate_absolute(z, sys, args.horizon, tol=args.tol, samples=args.samples)
        r = traj.samples[:, 0]
    else:
        r = (z.x if isinstance(z, State) else z).r[None]
    w, I = shape_sphere(r, sys)
    lon = np.arctan2(w[:, 1], w[:, 0])
    lat = np.arcsin(np.clip(w[:, 2], -1.0, 1.0))
    serialize.shape_points_to_csv(_outpath(args, "shape.csv", suffix),
                                  np.column_stack([lon, lat, I]))
    return 0


# ---------------------------------------------------------------------------
# parser and dispatch


_CONFIG_COMMANDS = {
    "simulate": _cmd_simulate,
    "reduce": _cmd_reduce,
    "audit": _cmd_simulate,
    "homographic": _cmd_homographic,
    "relequil": _cmd_relequil,
    "shape-sphere": _cmd_shape_sphere,
}
_PLAIN_COMMANDS = {
    "find-central": _cmd_find,
    "find-balanced": _cmd_find,
    "kepler": _cmd_kepler,
    "hiphop": _cmd_hiphop,
}


def build_parser():
    top = argparse.ArgumentParser(prog="nbodyred", description=__doc__)
    sub = top.add_subparsers(dest="command", required=True)

    def common(p, config=False):
        p.add_argument("--out", default=".", help="output directory")
        if config:
            p.add_argument("--jobs", type=int, default=1,
                           help="parallel jobs over repeated --config")
            p.add_argument("--config", action="append", required=True,
                           help="scenario JSON (repeatable)")

    for name in ("simulate", "audit", "reduce"):
        p = sub.add_parser(name)
        common(p, config=True)
        p.add_argument("--horizon", type=float, default=10.0)
        p.add_argument("--tol", type=float, default=1e-10)
        p.add_argument("--samples", type=int, default=513)
        if name != "reduce":
            p.add_argument("--integrator", choices=("rk8", "leapfrog"), default="rk8")

    for name in ("find-central", "find-balanced"):
        p = sub.add_parser(name)
        common(p)
        p.add_argument("--masses", required=True, help="comma-separated masses")
        if name == "find-central":
            p.add_argument("--dim", type=int, default=2)
        else:
            p.add_argument("--spectrum", required=True, help="comma-separated inertia spectrum")
        p.add_argument("--seed", type=int, required=True)
        p.add_argument("--G", type=float, default=1.0)
        p.add_argument("--kappa", type=float, default=-0.5)

    p = sub.add_parser("kepler")
    common(p)
    p.add_argument("--e", type=float, required=True)
    p.add_argument("--a", type=float, default=1.0)
    p.add_argument("--k", type=float, default=1.0)
    p.add_argument("--samples", type=int, default=257)

    p = sub.add_parser("homographic")
    common(p, config=True)
    p.add_argument("--e", type=float, default=0.0)
    p.add_argument("--scale", type=float, default=1.0)
    p.add_argument("--samples", type=int, default=257)

    p = sub.add_parser("relequil")
    common(p, config=True)
    p.add_argument("--samples", type=int, default=0,
                   help="also write a sampled trajectory when not 0")

    p = sub.add_parser("hiphop")
    common(p)
    p.add_argument("--bodies", type=int, default=4)
    p.add_argument("--mass", type=float, default=1.0)
    p.add_argument("--G", type=float, default=1.0)
    p.add_argument("--period", type=float, default=2.0 * np.pi)
    p.add_argument("--modes", type=int, default=16)
    p.add_argument("--symmetry", default="z2z4",
                   choices=("z2z4", "hiphop_Z2xZ4", "italian", "z3", "hiphop_Z3"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--kick", type=float, default=0.3)
    p.add_argument("--gtol", type=float, default=1e-6)
    p.add_argument("--samples", type=int, default=257)

    p = sub.add_parser("shape-sphere")
    common(p, config=True)
    p.add_argument("--horizon", type=float, default=0.0)
    p.add_argument("--tol", type=float, default=1e-10)
    p.add_argument("--samples", type=int, default=257)

    return top


# LinAlgError (a ValueError) and Python's own numerical failures are not bad input
_NUMERICAL = (NumericalError, np.linalg.LinAlgError, MemoryError, FloatingPointError, OverflowError)
_FAILURES = _NUMERICAL + (ValidationError, ValueError)


def _failure(exc):
    """Exit code and JSON error line of a failed run (one of _FAILURES)."""
    code = 3 if isinstance(exc, _NUMERICAL) else 2
    return code, json.dumps({"error": type(exc).__name__, "message": str(exc)})


def _run_job(payload):
    """One config run to its own end: (exit code, JSON error line or None)."""
    args, config, suffix = payload
    try:
        return _CONFIG_COMMANDS[args.command](args, config, suffix), None
    except _FAILURES as exc:
        return _failure(exc)


def _dispatch(args):
    """Exit code of the command; with several configs every one runs, each
    failure goes to stderr and the largest code is returned."""
    if getattr(args, "seed", 0) < 0:   # numpy would refuse it, or hiphop only on a restart
        raise ValidationError(f"--seed = {args.seed} must be nonnegative")
    if args.command in _PLAIN_COMMANDS:
        return _PLAIN_COMMANDS[args.command](args)
    configs = args.config
    if args.jobs < 1:
        raise ValidationError(f"--jobs = {args.jobs} must be at least 1")
    suffixes = [""] if len(configs) == 1 else [f"_job{k}" for k in range(len(configs))]
    payloads = [(args, c, s) for c, s in zip(configs, suffixes)]
    workers = min(args.jobs, len(configs))
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_run_job, payloads))
    else:
        results = [_run_job(p) for p in payloads]
    for _, error in results:
        if error is not None:
            _sys.stderr.write(error + "\n")
    return max(code for code, _ in results)


# the values NBODY_LOG accepts, in any case (logging.getLevelNamesMapping
# needs Python 3.11)
_LOG_LEVELS = ("DEBUG", "INFO", "WARNING", "ERROR", "CRITICAL")


def _configure_logging():
    """Load and configure logging when NBODY_LOG names a level; any other
    non-empty value is a ValidationError."""
    level = os.environ.get("NBODY_LOG")
    if not level:
        return
    if level.upper() not in _LOG_LEVELS:
        raise ValidationError(f"NBODY_LOG = {level!r} is not a level name; "
                              f"use one of {', '.join(_LOG_LEVELS)}, in any case")
    import logging

    logging.basicConfig(level=getattr(logging, level.upper()))


def main(argv=None):
    """Run one command; returns its exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _configure_logging()
        return _dispatch(args)
    except _FAILURES as exc:
        code, error = _failure(exc)
        _sys.stderr.write(error + "\n")
        return code


def run():
    """The console entry point: main(), then the end of the process without
    interpreter teardown (about 16 ms), which has nothing left to do: every
    output file is closed and in place once main returns.  A parser exit or
    an uncaught exception leaves through the normal path."""
    code = main()
    _sys.stdout.flush()
    _sys.stderr.flush()
    os._exit(code)


if __name__ == "__main__":
    run()
