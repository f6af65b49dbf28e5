"""Seeded inputs, task lists and correctness gates of the benchmark workloads.

Every workload is a fixed list of tasks.  A task is one call into the
library (in process) or one `nbodyred` command (fresh process); its gate
checks the result against the paper's identities after the timed call.
The seed perturbs the reference orbits and loops slightly, so every seed
runs the same kind of work and passes the same gates.

`size` is "full" for measured passes and "tiny" for the smoke test and for
the coverage passes of a traced run.
"""

import hashlib
import json
import os

import numpy as np

FIGURE_EIGHT_PERIOD = 6.32591398


class GateError(Exception):
    """A task's output failed its correctness gate."""


class Task:
    """One unit of timed work.

    `run(ctx)` is timed; `check(result, ctx)` runs afterwards and raises
    GateError.  `expect` names the exception type the call must raise; the
    raised exception is then passed to `check` as the result.
    """

    def __init__(self, name, run, check=None, expect=None):
        self.name = name
        self.run = run
        self.check = check
        self.expect = expect


def gate(ok, message):
    if not ok:
        raise GateError(message)


def _rng(seed):
    return np.random.default_rng(seed % 2**63)  # any integer seed, negative too


def _jitter(rng, a, scale):
    a = np.asarray(a, dtype=float)
    return a * (1.0 + scale * rng.standard_normal(a.shape))


# ---------------------------------------------------------------------------
# few_body: bound orbits through the absolute and reduced integrators


def _figure_eight():
    p1 = np.array([0.97000436, -0.24308753])
    v3 = np.array([-0.93240737, -0.86473146])
    x = np.stack([p1, -p1, np.zeros(2)], axis=1)
    v = np.stack([-0.5 * v3, -0.5 * v3, v3], axis=1)
    return x, v


def _rotating_pentagon():
    """Regular pentagon in R^3 near its relative equilibrium, with a
    vertical kick and a 1 % speed excess."""
    ang = 2.0 * np.pi * np.arange(5) / 5.0
    x = np.vstack([np.cos(ang), np.sin(ang), np.zeros(5)])
    # Newtonian equal-mass pentagon: omega^2 = sum_{j>0} 1 / (4 sin(pi j/5))
    # over |r| = 1 (the resultant pull per unit radius)
    pull = sum(1.0 / (4.0 * np.sin(np.pi * j / 5.0)) for j in range(1, 5))
    w = np.sqrt(pull)
    v = 1.01 * w * np.vstack([-np.sin(ang), np.cos(ang), np.zeros(5)])
    v[2] += 0.01 * np.array([1.0, -1.0, 0.5, 0.2, -0.7])
    return x, v


ISOSCELES = np.array([[-0.6, 0.6, 0.0], [0.0, 0.0, 0.9]])
EQUILATERAL = np.array([[0.0, 1.0, 0.5], [0.0, 0.0, 0.8660254037844386]])


def few_body_inputs(seed, size="full"):
    """Seeded initial data: plain arrays, no library objects."""
    rng = _rng(seed)
    tiny = size == "tiny"
    eight_x, eight_v = _figure_eight()
    pent_x, pent_v = _rotating_pentagon()
    return {
        "triangle": {"masses": [1.0, 1.0, 1.0], "x": EQUILATERAL,
                     "v": _jitter(rng, 0.4 * np.array([[0.0, 0.0, 0.0], [1.0, -1.0, 0.0]]), 1e-4),
                     "horizon": 1.0 if tiny else 10.0},
        "eight": {"masses": [1.0, 1.0, 1.0], "x": eight_x, "v": _jitter(rng, eight_v, 1e-4),
                  "horizon": (0.1 if tiny else 3.0) * FIGURE_EIGHT_PERIOD},
        "leapfrog_dt": FIGURE_EIGHT_PERIOD / (256.0 if tiny else 4096.0),
        "pentagon": {"masses": [1.0] * 5, "x": pent_x, "v": _jitter(rng, pent_v, 1e-4),
                     "horizon": 1.0 if tiny else 6.0},
        "r4_kick": _jitter(rng, np.ones((4, 3)), 1e-4),
        "r4_periods": 0.3 if tiny else 3.0,
        "kappa1_alpha": 0.02 * (1.0 + 1e-3 * rng.standard_normal()),
        "kappa1_horizon": 0.7 if tiny else 7.0,
        "collapse_x": _jitter(rng, EQUILATERAL, 1e-4),
        "samples": 129 if tiny else 513,
    }


def _state(x, v, sys):
    from nbodyred.geometry import Configuration, State

    return State(Configuration(x, sys), Configuration(v, sys))


def _check_series(series, lagrange_jacobi_residual, sundman_min_gap, energy=3e-8,
                 lagrange_jacobi=True):
    """Energy and angular-momentum drift, Lagrange-Jacobi residual and the
    sign of the Sundman gap along an audited trajectory.

    Drifts are measured against the natural scales K + |U| and sqrt(I K)
    rather than against H(0) and C(0), which may be close to zero.
    """
    s = {k: np.asarray(v, dtype=float) for k, v in series.items()}
    scale = np.max(s["K"] + np.abs(s["U"]))
    ik = np.max(s["I"] * s["K"])
    e = np.max(np.abs(s["H"] - s["H"][0])) / scale
    gate(e < energy, f"energy drift {e:.2e} of max(K + |U|)")
    c = np.max(np.abs(s["normC"] - s["normC"][0])) / np.sqrt(ik)
    gate(c < 3e-8, f"angular momentum drift {c:.2e} of sqrt(I K)")
    if lagrange_jacobi:
        lj = lagrange_jacobi_residual / scale
        gate(lj < 1e-5, f"Lagrange-Jacobi residual {lj:.2e} of max(K + |U|)")
    gate(sundman_min_gap >= -1e-12 * ik, f"negative Sundman gap {sundman_min_gap:.3e}")


def _check_audit(rep, lagrange_jacobi=True, energy=3e-8):
    _check_series(rep.series, rep.lagrange_jacobi_residual, rep.sundman_min_gap,
                        energy, lagrange_jacobi)


def _check_reduced(traj_abs, traj_red, limit):
    """Reduced and absolute integrations describe the same motion."""
    from nbodyred.geometry import RelativeState

    gate(len(traj_red.states) == len(traj_abs.states), "sample counts differ")
    worst, scale = 0.0, 0.0
    for za, rel in zip(traj_abs.states, traj_red.states):
        ra = RelativeState.from_state(za)
        for name in ("beta", "gamma", "delta", "rho"):
            a = getattr(ra, name)
            worst = max(worst, np.abs(a - getattr(rel, name)).max())
            scale = max(scale, np.abs(a).max())
    gate(worst <= limit * scale, f"reduced differs from absolute by {worst / scale:.2e}")


def few_body_tasks(seed, size="full"):
    """Tasks of one pass; they share a context dict within the pass."""
    from nbodyred import dynamics, motions
    from nbodyred.errors import CollisionError
    from nbodyred.geometry import Configuration, MassSystem, RelativeState, State

    inp = few_body_inputs(seed, size)
    samples = inp["samples"]
    tasks = []

    orbits = {}
    for name in ("triangle", "eight", "pentagon"):
        spec = inp[name]
        sys = MassSystem(spec["masses"])
        orbits[name] = (_state(spec["x"], spec["v"], sys), sys, spec["horizon"])

    def orbit(name, reduced_limit, lagrange_jacobi=True, scaling=False):
        def initial(ctx):
            return orbits[name] if name in orbits else ctx[name]

        def absolute(ctx):
            z0, sys, horizon = initial(ctx)
            return dynamics.integrate_absolute(z0, sys, horizon, tol=1e-10, samples=samples)

        def keep(traj, ctx):
            ctx[name + ".abs"] = traj

        def audit(ctx):
            return dynamics.audit_invariants(ctx[name + ".abs"], initial(ctx)[1])

        def check_audit(rep, ctx):
            _check_audit(rep, lagrange_jacobi)
            if scaling:
                drift = rep.scaling_integral_drift
                gate(drift is not None and drift < 1e-6, f"scaling-integral drift {drift}")

        def reduced(ctx):
            z0, sys, horizon = initial(ctx)
            return dynamics.integrate_reduced(RelativeState.from_state(z0), sys, horizon,
                                              tol=1e-10, samples=samples)

        def check_reduced(traj, ctx):
            _check_reduced(ctx[name + ".abs"], traj, reduced_limit)

        tasks.extend([Task(f"{name}.absolute", absolute, keep),
                      Task(f"{name}.audit", audit, check_audit),
                      Task(f"{name}.reduced", reduced, check_reduced)])

    # close approach: spline differentiation of J cannot resolve the
    # Lagrange-Jacobi relation at 513 samples, and the near-collision
    # amplifies tolerance-level differences between the two routes
    orbit("triangle", 1e-3, lagrange_jacobi=False)
    orbit("eight", 1e-6)

    def leapfrog(ctx):
        z0, sys, horizon = orbits["eight"]
        return dynamics.integrate_absolute(z0, sys, horizon, method="leapfrog",
                                           samples=samples, dt=inp["leapfrog_dt"])

    def keep_leapfrog(traj, ctx):
        ctx["eight.leapfrog"] = traj

    def leapfrog_audit(ctx):
        return dynamics.audit_invariants(ctx["eight.leapfrog"], orbits["eight"][1])

    def check_leapfrog(rep, ctx):
        _check_audit(rep, lagrange_jacobi=False, energy=1e-4)

    tasks += [Task("eight.leapfrog", leapfrog, keep_leapfrog),
              Task("eight.leapfrog_audit", leapfrog_audit, check_leapfrog)]
    orbit("pentagon", 1e-6)

    def relequil(ctx):
        """Relative equilibria of the isosceles triangle for kappa = -1/2, -1."""
        out = {}
        for kappa in (-0.5, -1.0):
            sys = MassSystem([1.0, 1.0, 1.0], kappa=kappa)
            re = motions.relative_equilibrium(Configuration(ISOSCELES, sys), sys)
            out[kappa] = (re, sys, re.state(0.0))
        return out

    def prepare_relequil(out, ctx):
        re, sys, z = out[-0.5]
        gate(z.d == 4, f"relative equilibrium in dimension {z.d}, expected 4")
        v = z.y.r * inp["r4_kick"]
        ctx["r4"] = (State(z.x, Configuration(v, sys)), sys, inp["r4_periods"] * re.slow_period)
        # kappa = -1: the relative equilibrium has H = 0; slowing the rotation
        # and adding an outward push gives H < 0 < J, so I rises and falls
        # back to I0 at t = -J/H, which is the horizon
        re, sys, z = out[-1.0]
        alpha = inp["kappa1_alpha"]
        I0, _, K, U, _ = dynamics.scalar_invariants(z, sys)
        target = -alpha * I0 / inp["kappa1_horizon"]
        shrink = np.sqrt(2.0 * (target + U - 0.5 * alpha**2 * I0) / K)
        v = shrink * z.y.r + alpha * z.x.r
        z1 = State(z.x, Configuration(v, sys))
        _, J, _, _, H = dynamics.scalar_invariants(z1, sys)
        gate(H < 0.0 < J, f"kappa = -1 orbit has H = {H:.3e}, J = {J:.3e}")
        ctx["kappa1"] = (z1, sys, -J / H)

    tasks.append(Task("relequil", relequil, prepare_relequil))
    orbit("r4", 1e-6)
    orbit("kappa1", 1e-6, scaling=True)

    collapse_sys = MassSystem([1.0, 1.0, 1.0], kappa=-1.0)
    collapse_z0 = _state(inp["collapse_x"], np.zeros((2, 3)), collapse_sys)

    def collapse(ctx):
        return dynamics.integrate_absolute(collapse_z0, collapse_sys, 5.0, tol=1e-10, samples=samples)

    tasks.append(Task("collapse", collapse, expect=CollisionError))
    return tasks


# ---------------------------------------------------------------------------
# hiphop: symmetric action minimization for four equal masses


HIPHOP_CASES = {"full": [("z2z4", 16), ("z2z4", 32), ("z2z4", 64), ("italian", 16), ("z3", 16)],
                "tiny": [("z2z4", 8), ("italian", 8), ("z3", 8)]}


def hiphop_inputs(seed, size="full"):
    rng = _rng(seed)
    return {"kick": 0.3 * (1.0 + 0.02 * rng.standard_normal()),
            "opt_seed": int(rng.integers(0, 2**31)),
            "cases": HIPHOP_CASES[size]}


def hiphop_tasks(seed, size="full"):
    from nbodyred import action
    from nbodyred.geometry import MassSystem

    inp = hiphop_inputs(seed, size)
    sys = MassSystem([1.0] * 4)
    T = 2.0 * np.pi
    tasks = []

    for label, K in inp["cases"]:
        key = f"{label}.K{K}"

        def minimize(ctx, label=label, K=K):
            sym = action.symmetry_by_label(label)
            seed_loop = action.square_relative_equilibrium_loop(T, sys, K, vertical_kick=inp["kick"])
            opts = action.MinimizeOptions(gtol=1e-6, seed=inp["opt_seed"])
            return sym, action.minimize_action(seed_loop, sym, opts)

        def keep(out, ctx, key=key):
            ctx[key] = out

        def verify(ctx, key=key):
            sym, loop = ctx[key]
            return action.verify_loop(loop, sym=sym)

        def check(rep, ctx, label=label, K=K, key=key):
            square = action.square_relative_equilibrium_loop(T, sys, K)
            s_square, _ = action.action_value_and_gradient(square)
            gate(rep.action < s_square, f"action {rep.action:.9f} not below the square's {s_square:.9f}")
            eom_limit = 1e-3 if K >= 16 else 5e-2
            gate(rep.eom_residual < eom_limit, f"eom residual {rep.eom_residual:.2e}")
            gate(rep.symmetry_defect < 1e-12, f"symmetry defect {rep.symmetry_defect:.2e}")
            gate(rep.min_distance > 0.5, f"min distance {rep.min_distance:.3f}")
            if label == "z2z4":
                gate(len(rep.square_events) == 2 and len(rep.tetra_events) == 2,
                     f"{len(rep.square_events)} square + {len(rep.tetra_events)} tetrahedron events")
                gate(rep.planarity > 0.05, f"planarity {rep.planarity:.3f}")
                first = ctx.setdefault("z2z4.action", rep.action)
                # mode convergence: more modes leave the action unchanged
                gate(abs(rep.action - first) < 1e-6 * abs(first),
                     f"action {rep.action:.12f} differs from {first:.12f}")

        tasks += [Task(f"{key}.minimize", minimize, keep), Task(f"{key}.verify", verify, check)]
    return tasks


# ---------------------------------------------------------------------------
# cli: one fresh `nbodyred` process per command


def _scenario(masses, x, v=None, kappa=None):
    out = {"masses": [float(m) for m in masses]}
    if kappa is not None:
        out["kappa"] = kappa
    out["positions"] = np.asarray(x, dtype=float).tolist()
    if v is not None:
        out["velocities"] = np.asarray(v, dtype=float).tolist()
    return out


def _read_csv(path):
    with open(path) as fh:
        header = fh.readline().rstrip("\n").split(",")
    return header, np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)


def _read_json(path):
    with open(path) as fh:
        return json.load(fh)


def _check_cli_audit(path, energy=3e-8, lagrange_jacobi=True):
    rep = _read_json(path)
    _check_series(rep["series"], rep["lagrange_jacobi_residual"], rep["sundman_min_gap"], energy,
                 lagrange_jacobi)


def _beta_from_positions(row, d, n):
    r = row[1:1 + d * n].reshape(d, n)
    return r.T @ r


def cli_plan(seed, work, size="full"):
    """Input files and command tasks of one pass.

    Returns (files, tasks): `files` maps a path under `work` to its JSON
    text; each task's `run` is the argument list of one command, whose
    outputs go to `<work>/out/<task name>`; `check(outdir, code, stderr,
    ctx)` gates them, and `expect` is the exit code.
    """
    rng = _rng(seed)
    tiny = size == "tiny"
    inputs = os.path.join(work, "inputs")
    files = {}

    def put(name, obj):
        path = os.path.join(inputs, name)
        files[path] = json.dumps(obj, indent=1) + "\n"
        return path

    eight_x, eight_v = _figure_eight()
    eight = put("eight.json", _scenario([1.0, 1.0, 1.0], eight_x, _jitter(rng, eight_v, 1e-4)))
    masses3 = _jitter(rng, [1.0, 2.0, 3.0], 1e-2)
    central = put("central.json", _scenario(masses3, EQUILATERAL))
    balanced = put("balanced.json", _scenario([1.0, 1.0, 1.0], ISOSCELES))
    circ = put("circular.json", _scenario(
        [1.0, 1.0], [[-0.5, 0.5], [0.0, 0.0]],
        _jitter(rng, [[0.0, 0.0], [-np.sqrt(0.5), np.sqrt(0.5)]], 1e-4)))
    invalid = put("invalid.json", _scenario([1.0, -1.0], [[-0.5, 0.5], [0.0, 0.0]], np.zeros((2, 2))))
    collapse = put("collapse.json", _scenario([1.0, 1.0, 1.0], _jitter(rng, EQUILATERAL, 1e-4),
                                              np.zeros((2, 3)), kappa=-1.0))
    horizon = FIGURE_EIGHT_PERIOD * (0.1 if tiny else 1.0)
    samples = "33" if tiny else "257"
    e = 0.5 + 0.01 * rng.standard_normal()
    kick = 0.3 * (1.0 + 0.02 * rng.standard_normal())
    spectrum = 0.7 + 0.01 * rng.standard_normal()
    masses5 = _jitter(rng, [1.0, 1.5, 2.0, 2.5, 3.0], 1e-2)
    fmt = lambda v: format(float(v), ".17g")
    masses = lambda ms: ",".join(fmt(m) for m in ms)

    def sim(name):
        return os.path.join(work, "out", name)

    def check_simulate(out, code, err, ctx):
        _check_cli_audit(os.path.join(out, "audit.json"))
        ctx["simulate"] = _read_csv(os.path.join(out, "trajectory.csv"))[1]

    def check_reduce(out, code, err, ctx):
        header, red = _read_csv(os.path.join(out, "reduced.csv"))
        ref = ctx.get("simulate")
        gate(ref is not None and ref.shape[0] == red.shape[0], "no matching simulate output")
        n = 3
        worst = max(np.abs(_beta_from_positions(a, 2, n) - b[1:1 + n * n].reshape(n, n)).max()
                    for a, b in zip(ref, red))
        scale = np.abs(red[:, 1:1 + n * n]).max()
        gate(worst < 1e-6 * scale, f"reduced beta differs from simulate by {worst / scale:.2e}")

    def check_leapfrog(out, code, err, ctx):
        _check_cli_audit(os.path.join(out, "audit.json"), energy=1e-4, lagrange_jacobi=False)

    def check_central(label):
        def check(out, code, err, ctx):
            data = _read_json(os.path.join(out, "central.json"))
            gate(data["kind"] == "central", f"{label}: kind {data['kind']}")
            gate(data["central_residual"] < 1e-10, f"{label}: central residual {data['central_residual']:.2e}")
        return check

    def check_balanced(out, code, err, ctx):
        data = _read_json(os.path.join(out, "balanced.json"))
        gate(data["kind"] in ("central", "balanced"), f"kind {data['kind']}")
        gate(data["balanced_residual"] < 1e-8, f"balanced residual {data['balanced_residual']:.2e}")

    def check_rows(name, rows):
        def check(out, code, err, ctx):
            _, data = _read_csv(os.path.join(out, name))
            gate(data.shape[0] == rows and np.isfinite(data).all(), f"{name}: {data.shape[0]} rows")
        return check

    def check_homographic(out, code, err, ctx):
        check_rows("homographic.csv", int(samples))(out, code, err, ctx)
        # every body moves on a similar conic: the shape stays fixed, so the
        # ratios of mutual distances are constant along the motion
        _, data = _read_csv(os.path.join(out, "homographic.csv"))
        d = (data.shape[1] - 1) // 6
        r = data[:, 1:1 + 3 * d].reshape(-1, d, 3)
        dist = np.linalg.norm(r[:, :, [0, 0, 1]] - r[:, :, [1, 2, 2]], axis=1)
        ratios = dist / dist[:, :1]
        gate(np.ptp(ratios, axis=0).max() < 1e-9, "homographic shape not fixed")

    def check_relequil(out, code, err, ctx):
        data = _read_json(os.path.join(out, "relequil.json"))
        gate(len(data["x0"]) == 4, f"relative equilibrium in dimension {len(data['x0'])}")
        freq = data["frequencies"]
        gate(all(f > 0 for f in freq) and freq == sorted(freq, reverse=True), f"frequencies {freq}")
        check_rows("relequil.csv", 65)(out, code, err, ctx)

    def check_shape(out, code, err, ctx):
        _, data = _read_csv(os.path.join(out, "shape.csv"))
        gate(data.shape[0] == int(samples), f"{data.shape[0]} shape points")
        gate(np.all(np.abs(data[:, 1]) <= np.pi / 2) and np.all(data[:, 2] > 0), "shape point out of range")

    def check_hiphop(out, code, err, ctx):
        rep = _read_json(os.path.join(out, "hiphop_report.json"))
        gate(rep["symmetry_defect"] < 1e-12, f"symmetry defect {rep['symmetry_defect']:.2e}")
        gate(rep["eom_residual"] < 5e-2, f"eom residual {rep['eom_residual']:.2e}")
        gate(len(rep["square_events"]) == 2 and len(rep["tetra_events"]) == 2,
             f"{len(rep['square_events'])} square + {len(rep['tetra_events'])} tetrahedron events")
        check_rows("hiphop.csv", int(samples))(out, code, err, ctx)

    def check_jobs(out, code, err, ctx):
        for k in (0, 1):
            _check_cli_audit(os.path.join(out, f"audit_job{k}.json"))

    def check_error(kind):
        def check(out, code, err, ctx):
            try:
                data = json.loads(err.strip().splitlines()[-1])
            except (ValueError, IndexError):
                raise GateError(f"no JSON error on stderr: {err[-200:]!r}")
            gate(data.get("error") == kind, f"error {data.get('error')!r}, expected {kind}")
        return check

    h = fmt(horizon)
    tasks = [
        Task("kepler", ["kepler", "--e", fmt(e), "--samples", samples], check_rows("kepler.csv", int(samples))),
        Task("find-central.n3", ["find-central", "--masses", masses(masses3), "--dim", "2", "--seed", "7"],
             check_central("n3")),
        Task("find-central.n5", ["find-central", "--masses", masses(masses5), "--dim", "2", "--seed", "1"],
             check_central("n5")),
        Task("find-balanced", ["find-balanced", "--masses", "1,1,1", "--spectrum",
                               f"{fmt(spectrum)},{fmt(1.0 - spectrum)}", "--seed", "3"], check_balanced),
        Task("homographic", ["homographic", "--config", central, "--e", fmt(e), "--samples", samples],
             check_homographic),
        Task("relequil", ["relequil", "--config", balanced, "--samples", "65"], check_relequil),
        Task("simulate", ["simulate", "--config", eight, "--horizon", h], check_simulate),
        Task("reduce", ["reduce", "--config", eight, "--horizon", h], check_reduce),
        Task("audit-leapfrog", ["audit", "--config", eight, "--horizon", h, "--integrator", "leapfrog"],
             check_leapfrog),
        Task("shape-sphere", ["shape-sphere", "--config", eight, "--horizon", h, "--samples", samples],
             check_shape),
        Task("hiphop", ["hiphop", "--modes", "8", "--seed", "0", "--kick", fmt(kick), "--samples", samples],
             check_hiphop),
        Task("simulate-jobs2", ["simulate", "--config", circ, "--config", eight, "--horizon", h,
                                "--jobs", "2"], check_jobs),
        Task("exit2", ["simulate", "--config", invalid], check_error("ValidationError"), expect=2),
        Task("exit3", ["simulate", "--config", collapse, "--horizon", "5"], check_error("CollisionError"),
             expect=3),
    ]
    for task in tasks:
        task.run = task.run + ["--out", sim(task.name)]
        if task.expect is None:
            task.expect = 0
    return files, tasks


def write_files(files):
    for path, text in files.items():
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as fh:
            fh.write(text)


def digest_dir(path):
    """{file name: (size, sha256)} of a command's output directory."""
    out = {}
    if os.path.isdir(path):
        for name in sorted(os.listdir(path)):
            with open(os.path.join(path, name), "rb") as fh:
                data = fh.read()
            out[name] = (len(data), hashlib.sha256(data).hexdigest())
    return out
