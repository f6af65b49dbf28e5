"""The central-configuration search against the one it replaced.

The reference below is the earlier implementation, kept verbatim as the
oracle apart from its evaluation counter: projected step-doubling descent
of U on the sphere I = 1, then Newton on grad U - (2 kappa U / I) x = 0
with a finite-difference Jacobian (d n + 1 potential evaluations each).
The quasi-Newton search must land on the same configuration in at most
half the potential evaluations.
"""

import numpy as np
import pytest

import nbodyred.configurations
from conftest import squared_distance_table
from nbodyred.configurations import find_central
from nbodyred.errors import NoConvergence, ValidationError
from nbodyred.geometry import (
    Configuration,
    MassSystem,
    inertia,
    mass_dot,
    potential_and_gradient,
)


def _normalize_inertia(r, sys):
    x = Configuration(r, sys)
    I, _ = inertia(x, sys)
    return Configuration(x.r / np.sqrt(I), sys)


def find_central_reference(sys, d, seed=None, x0=None, gtol=1e-12, max_iter=400):
    """The descent plus finite-difference Newton; returns the configuration
    and the number of potential evaluations."""
    nfev = 0

    def potential(x):
        nonlocal nfev
        nfev += 1
        return potential_and_gradient(x, sys)

    if d < 1:
        raise ValidationError("dimension must be >= 1")
    rng = np.random.default_rng(seed)
    if x0 is None:
        x = _normalize_inertia(rng.normal(size=(d, sys.n)), sys)
    else:
        x = _normalize_inertia(x0.r, sys)

    # phase 1: descend U on the sphere I = 1
    U, grad = potential(x)
    step = 0.05
    for _ in range(max_iter):
        gt = grad - mass_dot(x.r, grad, sys.m) * x.r  # tangential part (I = 1)
        gnorm = np.sqrt(mass_dot(gt, gt, sys.m))
        if gnorm < 1e-8 * U:
            break
        while step > 1e-14:
            cand = _normalize_inertia(x.r - step * gt / gnorm, sys)
            Uc, gc = potential(cand)
            if Uc < U:
                x, U, grad = cand, Uc, gc
                step = min(step * 1.6, 0.2)
                break
            step *= 0.5
        else:
            break

    # phase 2: Newton on F(x) = grad U - lam x, finite-difference jacobian
    def F(r):
        xx = Configuration(r, sys)
        UU, gg = potential(xx)
        II, _ = inertia(xx, sys)
        return (gg - (2.0 * sys.kappa * UU / II) * xx.r).ravel()

    r = x.r.copy()
    scale = np.sqrt(mass_dot(grad, grad, sys.m))
    for _ in range(60):
        f = F(r)
        if np.linalg.norm(f) <= gtol * scale:
            break
        h = 1e-7
        jac = np.column_stack([(F(r + h * e.reshape(r.shape)) - f) / h for e in np.eye(r.size)])
        delta, *_ = np.linalg.lstsq(jac, -f, rcond=None)
        r = r + delta.reshape(r.shape)
    else:
        raise NoConvergence("central-configuration Newton refinement stalled")

    R = np.linalg.qr(_normalize_inertia(r, sys).r, mode="complete")[1]
    R[np.flatnonzero(np.diag(R) < 0.0)] *= -1.0
    out = Configuration(R, sys)
    if np.linalg.norm(F(out.r)) > 10.0 * gtol * scale:
        raise NoConvergence("central-configuration residual above tolerance")
    return out, nfev


def counted_find_central(monkeypatch, sys, d, seed=None, x0=None):
    """find_central with its potential evaluations counted: the search and
    the residual call the accelerations of a pair_kernel, the start
    potential_and_gradient."""
    calls = []
    pair_kernel = nbodyred.configurations.pair_kernel
    potential_and_gradient = nbodyred.configurations.potential_and_gradient

    def counted_kernel(*args):
        c, accelerations = pair_kernel(*args)

        def counted(r, out):
            calls.append(1)
            return accelerations(r, out)
        return c, counted

    def counted_potential(*args):
        calls.append(1)
        return potential_and_gradient(*args)

    monkeypatch.setattr(nbodyred.configurations, "pair_kernel", counted_kernel)
    monkeypatch.setattr(nbodyred.configurations, "potential_and_gradient", counted_potential)
    return find_central(sys, d, seed=seed, x0=x0), len(calls)


def _sorted_s(x):
    return np.sort(squared_distance_table(x.r)[np.triu_indices(x.n, 1)])


# n = 3 for random masses; the 4-body cases of test_configurations; the
# 5-body masses of the command-line benchmark with its --seed 1
CASES = [([1.0, 2.0, 3.0], 2, 7, None), ([0.7, 1.3, 1.9], 2, 0, None),
         ([1.0, 2.0, 3.0], 1, 0, None), ([1.0, 2.0, 3.0], 2, None, 4),
         ([1.0, 1.5, 2.0, 2.5], 3, None, 4), ([1.0, 1.0, 1.0, 1.0], 2, 0, None),
         ([1.0, 1.5, 2.0, 2.5, 3.0], 2, 1, None)]


@pytest.mark.parametrize("masses, d, seed, x0_seed", CASES,
                         ids=["n3-seed7", "n3-seed0", "n3-line", "n3-x0", "n4-d3-x0",
                              "n4-equal", "n5-cli"])
def test_search_lands_where_the_newton_reference_does(monkeypatch, masses, d, seed, x0_seed):
    sys = MassSystem(masses)
    x0 = None if x0_seed is None else Configuration(
        np.random.default_rng(x0_seed).normal(size=(d, sys.n)), sys)
    ref, ref_nfev = find_central_reference(sys, d, seed=seed, x0=x0)
    out, nfev = counted_find_central(monkeypatch, sys, d, seed=seed, x0=x0)
    assert np.abs(_sorted_s(out) - _sorted_s(ref)).max() < 1e-9
    assert 2 * nfev <= ref_nfev, (nfev, ref_nfev)
