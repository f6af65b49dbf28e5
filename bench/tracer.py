"""Spans around calls into the library's layers, recorded from outside.

A target is a function reached through a module or class attribute.  While
a traced pass runs, the tracer replaces every attribute a caller actually
uses with a wrapper that records a span (name, start, end, parent) and puts
the originals back afterwards; nothing under src/ changes.  A target none
of whose attributes exists any more is reported as absent.
"""

import collections
import functools
import importlib
import math
import time


class Target:
    """Span `name` around every attribute in `paths` ("module:attr" or
    "module:Class.attr").  `before(tracer, args, kwargs)` may rewrite the
    arguments, `after(tracer, args, kwargs, result)` adds counts and
    `rename(args, kwargs)` may give a call another span name.  With
    `skip_nested`, a call made inside a span of the same layer records
    nothing (for helpers that the layer's own functions call per value)."""

    def __init__(self, name, paths, before=None, after=None, rename=None, skip_nested=False):
        self.name = name
        self.paths = paths
        self.before = before
        self.after = after
        self.rename = rename
        self.skip_nested = skip_nested


def _wrap_fun(tracer, args, kwargs):
    """solve_ivp(fun, ...): time every right-hand-side evaluation."""
    if "fun" in kwargs:
        kwargs["fun"] = tracer.wrap(kwargs["fun"], "dynamics.rhs")
    else:
        args = (tracer.wrap(args[0], "dynamics.rhs"),) + tuple(args[1:])
    return args, kwargs


def _count(key, attr):
    def after(tracer, args, kwargs, result):
        tracer.counts[key] += int(getattr(result, attr))
    return after


def _audit_samples(tracer, args, kwargs, result):
    traj = args[0] if args else kwargs["traj"]
    tracer.counts["dynamics.audit.samples"] += len(traj.times)


def _arg(args, kwargs, index, name, default=None):
    if len(args) > index:
        return args[index]
    return kwargs.get(name, default)


def _leapfrog_name(args, kwargs):
    method = _arg(args, kwargs, 4, "method", "rk8")
    return "dynamics.leapfrog" if method == "leapfrog" else None


def _leapfrog_steps(tracer, args, kwargs, result):
    """Requested kick-drift-kick steps: each sample interval is split into
    ceil(interval / dt) steps."""
    if _leapfrog_name(args, kwargs) is None:
        return
    horizon = float(_arg(args, kwargs, 2, "horizon"))
    samples = int(_arg(args, kwargs, 5, "samples", 513))
    dt = _arg(args, kwargs, 6, "dt") or horizon / 8192.0
    interval = horizon / (samples - 1)
    tracer.counts["dynamics.leapfrog.steps"] += (samples - 1) * math.ceil(interval / dt - 1e-9)


CLI = "nbodyred.cli"

TARGETS = [
    Target("cli.main", [f"{CLI}:main"]),
    Target("serialize.write", ["nbodyred.serialize:write_json", "nbodyred.serialize:trajectory_to_csv",
                               "nbodyred.serialize:reduced_trajectory_to_csv",
                               "nbodyred.serialize:shape_points_to_csv", "nbodyred.serialize:fmt"],
           skip_nested=True),
    Target("serialize.read", ["nbodyred.serialize:load_scenario"]),
    Target("geometry.interaction_matrix", ["nbodyred.geometry:interaction_matrix_from_s",
                                           "nbodyred.dynamics:interaction_matrix_from_s",
                                           "nbodyred.action:interaction_matrix_from_s"]),
    Target("dynamics.integrate_absolute", ["nbodyred.dynamics:integrate_absolute", f"{CLI}:integrate_absolute"],
           after=_leapfrog_steps, rename=_leapfrog_name),
    Target("dynamics.integrate_reduced", ["nbodyred.dynamics:integrate_reduced", f"{CLI}:integrate_reduced"]),
    Target("dynamics.solve_ivp", ["nbodyred.dynamics:solve_ivp", "scipy.integrate:solve_ivp"],
           before=_wrap_fun, after=_count("dynamics.rhs_evals", "nfev")),
    Target("dynamics.audit_invariants", ["nbodyred.dynamics:audit_invariants", f"{CLI}:audit_invariants"],
           after=_audit_samples),
    Target("configurations.find_central", ["nbodyred.configurations:find_central", f"{CLI}:find_central"]),
    Target("configurations.find_balanced", ["nbodyred.configurations:find_balanced", f"{CLI}:find_balanced"]),
    Target("configurations.minimize", ["nbodyred.configurations:minimize", "scipy.optimize:minimize"],
           after=_count("configurations.bfgs_iters", "nit")),
    Target("configurations.classify", [f"{CLI}:classify"]),
    Target("configurations.shape_sphere", [f"{CLI}:shape_sphere"]),
    Target("motions.state", ["nbodyred.motions:HomographicMotion.state",
                             "nbodyred.motions:RelativeEquilibrium.state", f"{CLI}:kepler_state"]),
    Target("motions.relative_equilibrium", ["nbodyred.motions:relative_equilibrium",
                                            f"{CLI}:relative_equilibrium"]),
    Target("motions.homographic", ["nbodyred.motions:HomographicMotion.__init__"]),
    Target("action.invariant_basis", ["nbodyred.action:invariant_basis"]),
    Target("action.project_symmetry", ["nbodyred.action:project_symmetry"]),
    Target("action.action_grad", ["nbodyred.action:action_value_and_gradient",
                                  f"{CLI}:action_value_and_gradient"]),
    Target("action.minimize", ["nbodyred.action:minimize_action", f"{CLI}:minimize_action"]),
    Target("action.verify_loop", ["nbodyred.action:verify_loop", f"{CLI}:verify_loop"]),
    Target("action.loop_state", ["nbodyred.action:Loop.state"]),
]


def _resolve(path):
    """(owner object, attribute name) of "module:attr" or "module:Class.attr"."""
    module, _, attr = path.partition(":")
    try:
        owner = importlib.import_module(module)
    except ImportError:
        return None
    *classes, name = attr.split(".")
    for cls in classes:
        owner = getattr(owner, cls, None)
        if owner is None:
            return None
    if not callable(getattr(owner, name, None)):
        return None
    return owner, name


class Tracer:
    def __init__(self, targets=TARGETS):
        self.targets = targets
        self.spans = []            # [name, start, end, parent index or -1]
        self.counts = collections.Counter()
        self.absent = []
        self.recording = False
        self._stack = []
        self._patched = []

    def wrap(self, fn, name, target=None):
        spans, stack = self.spans, self._stack
        layer = name.split(".", 1)[0] + "."
        before = target.before if target else None
        after = target.after if target else None
        rename = target.rename if target else None
        skip_nested = target.skip_nested if target else False

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.recording:
                return fn(*args, **kwargs)
            parent = stack[-1] if stack else -1
            if skip_nested and parent >= 0 and spans[parent][0].startswith(layer):
                return fn(*args, **kwargs)
            if before is not None:
                args, kwargs = before(self, args, kwargs)
            span = [(rename and rename(args, kwargs)) or name, 0.0, 0.0, parent]
            stack.append(len(spans))
            spans.append(span)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if after is not None:
                after(self, args, kwargs, result)
            return result

        return wrapper

    def install(self):
        self.absent = []
        for target in self.targets:
            found = False
            for path in target.paths:
                where = _resolve(path)
                if where is None:
                    continue
                owner, attr = where
                original = owner.__dict__[attr] if attr in vars(owner) else getattr(owner, attr)
                setattr(owner, attr, self.wrap(original, target.name, target))
                self._patched.append((owner, attr, original))
                found = True
            if not found:
                self.absent.append(target.name)

    def uninstall(self):
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched = []

    def write(self, path):
        with open(path, "w") as fh:
            fh.write("name,start_s,end_s,parent\n")
            for name, start, end, parent in self.spans:
                fh.write(f"{name},{start!r},{end!r},{parent}\n")

    def summary(self):
        """{span name: (calls, total seconds, self seconds)}."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = {}
        for k, (name, start, end, parent) in enumerate(self.spans):
            calls, total, own = out.get(name, (0, 0.0, 0.0))
            out[name] = (calls + 1, total + end - start, own + end - start - child[k])
        return out
