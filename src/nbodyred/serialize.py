"""Deterministic file formats (see FORMATS.md), every one written here: the
CLI hands over arrays and records, and _encode alone turns arrays and numpy
scalars into JSON.  A number that is not finite is never written: the
writers refuse it with NumericalError before they open the file.

Floats are written with 17 significant digits so every value round-trips
exactly; identical inputs therefore produce byte-identical files.  CSV uses
a comma separator, '.' decimal and a header row carrying units.  A file is
written to a temporary beside it, renamed onto it only once complete.
"""

import contextlib
import json
import math
import os

import numpy as np

from .errors import NumericalError, ValidationError
from .geometry import Configuration, MassSystem, State


def fmt(x):
    return format(float(x), ".17g")


def fmt_floats(values, sep):
    """A row of Python floats, each as fmt writes it, joined by sep: one
    %.17g template formats the whole row."""
    return sep.join(["%.17g"] * len(values)) % tuple(values)


_NOT_FINITE = "refusing to write a number that is not finite (NaN or inf)"


def _finite(*arrays):
    """Raise NumericalError unless every number of the arrays is finite: no
    file holds NaN or inf (a JSON number is checked as _encode meets it)."""
    if not all(np.isfinite(a).all() for a in arrays):
        raise NumericalError(_NOT_FINITE)


def _encode(obj):
    if isinstance(obj, dict):
        items = ", ".join(f"{json.dumps(k)}: {_encode(v)}" for k, v in obj.items())
        return "{" + items + "}"
    if isinstance(obj, (list, tuple, np.ndarray)):
        seq = obj.tolist() if isinstance(obj, np.ndarray) else obj
        if seq and set(map(type, seq)) == {float}:
            text = fmt_floats(seq, ", ")
            if "n" in text:   # inf, -inf or nan: no finite %.17g has an n
                raise NumericalError(_NOT_FINITE)
            return "[" + text + "]"
        return "[" + ", ".join(_encode(v) for v in seq) + "]"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if obj is None:
        return "null"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        if not math.isfinite(obj):
            raise NumericalError(_NOT_FINITE)
        return fmt(obj)
    if isinstance(obj, str):
        return json.dumps(obj)
    raise TypeError(f"cannot serialize {type(obj)!r}")


def dumps(obj):
    """JSON text with fixed 17-significant-digit float formatting."""
    return _encode(obj) + "\n"


@contextlib.contextmanager
def _replacing(path):
    """Text handle on a temporary beside path: renamed onto it on success, else
    removed.  The folder of path is made here, by the first file written into it."""
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "w") as fh:
            yield fh
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)


def write_json(path, obj):
    text = dumps(obj)   # a non-finite number fails here, before the file is opened
    with _replacing(path) as fh:
        fh.write(text)


def _system(sys):
    """The masses, G and kappa fields of an output record."""
    return {"masses": sys.m, "G": sys.G, "kappa": sys.kappa}


# ---------------------------------------------------------------------------
# scenarios (mass system + state)


def _numbers(value):
    """Whether value is a number or a list, nested or not, of numbers only;
    a JSON boolean is no number, nor is an integer beyond the floats."""
    if isinstance(value, list):
        return all(map(_numbers, value))
    if isinstance(value, int) and not isinstance(value, bool):
        return abs(value) <= float(np.finfo(float).max)
    return isinstance(value, float)


def _number(data, key):
    value = data.get(key)
    if isinstance(value, list) or not _numbers(value):
        raise ValidationError(f"field {key!r} must be a number")
    return value


def _floats(data, key):
    value = data.get(key)
    if isinstance(value, list) and _numbers(value):
        with contextlib.suppress(ValueError):   # a ragged row
            return np.asarray(value, dtype=float)
    raise ValidationError(f"field {key!r} must be an array of numbers")


def _mass_system(data):
    """MassSystem of the masses, G and kappa fields of a record; G and kappa
    pass only when the record has them, so their defaults are MassSystem's."""
    given = {key: _number(data, key) for key in ("G", "kappa") if key in data}
    return MassSystem(_floats(data, "masses"), **given)


def scenario_from_dict(data):
    """(MassSystem, State or Configuration or None) from a scenario mapping;
    a missing "masses" or a field of the wrong JSON type is a ValidationError
    naming the field."""
    if not isinstance(data, dict):
        raise ValidationError("scenario must be a JSON object")
    if "masses" not in data:
        raise ValidationError("scenario is missing 'masses'")
    sys = _mass_system(data)
    if "positions" not in data:
        return sys, None
    x = Configuration(_floats(data, "positions"), sys)
    if "velocities" in data:
        return sys, State(x, Configuration(_floats(data, "velocities"), sys))
    return sys, x


def load_scenario(path):
    try:
        with open(path) as fh:
            data = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ValidationError(f"cannot read scenario {path}: {exc}") from exc
    return scenario_from_dict(data)


# ---------------------------------------------------------------------------
# loops


def loop_to_dict(loop):
    return {"period": loop.T, **_system(loop.sys), "cos_modes": loop.cos_modes,
            "sin_modes": loop.sin_modes}


# ---------------------------------------------------------------------------
# output files


def write_csv(path, header, rows):
    """A header line, then one line per row, a 1-D float array, by fmt_floats."""
    with _replacing(path) as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(fmt_floats(row.tolist(), ",") + "\n")


# column prefix and unit of each sample block of a trajectory, by its kind
_BLOCKS = {"absolute": [("r", "length"), ("v", "length/time")],
           "reduced": [("beta_", "length^2"), ("gamma_", "length^2/time"),
                       ("delta_", "length^2/time^2"), ("rho_", "length^2/time")]}


def trajectory_to_csv(path, traj):
    """Time, then each sample block row-major: positions and velocities of an
    absolute trajectory, beta, gamma, delta and rho of a reduced one; each
    row is built as it is written, with no second copy of the samples."""
    header = ["t[time]"] + [f"{prefix}{i}_{j}[{unit}]" for prefix, unit in _BLOCKS[traj.kind]
                            for i, j in np.ndindex(traj.samples.shape[-2:])]
    _finite(traj.times, traj.samples)
    rows = traj.samples.reshape(traj.times.size, -1)
    write_csv(path, header, (np.concatenate(([t], row)) for t, row in zip(traj.times, rows)))


def kepler_to_csv(path, ts, zeta, zdot):
    """Rows (t, xi, eta, xidot, etadot) of (2, q) Kepler positions and velocities."""
    _finite(ts, zeta, zdot)
    write_csv(path, ["t[time]", "xi[length]", "eta[length]", "xidot[length/time]",
                     "etadot[length/time]"], np.column_stack([ts, zeta.T, zdot.T]))


def shape_points_to_csv(path, points):
    """Rows (longitude[rad], latitude[rad], I)."""
    _finite(points)
    write_csv(path, ["longitude[rad]", "latitude[rad]", "I[mass*length^2]"], points)


def search_to_json(path, x, sys, cls, spectrum):
    """central.json of a central search (spectrum None), with the multiplier,
    or balanced.json of a balanced one, with the requested spectrum: the
    configuration x and its classification cls."""
    central = spectrum is None
    head = _system(sys) if central else {**_system(sys), "spectrum": spectrum}
    write_json(path, {**head, "positions": x.r, "kind": cls.kind,
                      **({"multiplier": cls.multiplier} if central else {}),
                      "central_residual": cls.central_residual,
                      "balanced_residual": cls.balanced_residual})


def relequil_to_json(path, re, sys, sundman_gap, kepler_type):
    """relequil.json of a relative equilibrium, with Sundman's gap over I K at
    t = 0 and its verdict: whether the motion is of Kepler type."""
    write_json(path, {**_system(sys), "x0": re.x0.r, "Omega": re.Omega,
                      "frequencies": re.frequencies, "sundman_gap": sundman_gap,
                      "kepler_type": kepler_type})
