"""The line-search quasi-Newton routine shared by the searches for central
and balanced configurations and for symmetric periodic orbits."""

import math
from collections import namedtuple

import numpy as np

MAX_ITER = 4000   # accepted steps of one call before the "budget" guard fires
MEMORY = 12       # correction pairs of the two-loop recursion
STEPS = tuple(0.5 ** i for i in range(40))   # the line search's trial steps, Python floats

# the end point, its value and |g|, accepted steps, calls of fun, and the guard
# that stopped the search: "converged", "stalled" (no step accepted) or "budget"
Search = namedtuple("Search", "x f gnorm nit nfev guard")


def quasi_newton(fun, x, f, g, gtol, rtol=0.0, step=None, metric=None):
    """Minimize fun, fun(x) = (f, 1-D gradient g), from x where fun is (f, g).

    L-BFGS over the last MEMORY pairs (s, y) with s.y > 1e-12 |s| |y|; the
    initial inverse Hessian is 1 / metric (default 1) scaled by s.y / y.(y /
    metric), or by 1 / max(|g|, 1) while no pair is stored, and a direction
    p that does not descend is replaced by -g, dropping the pairs.  The
    trial point step(x, p, t) (default x + t p) is tried at t = 1, 1/2, ...
    (40 times) and taken at the first t where f and g are finite and either
    f_new <= f + 1e-4 t p.g (Armijo) or f_new <= f + 4e-16 |f| and |g_new|
    < |g| (f flat to rounding).  When no t passes along a direction built
    from stored pairs, the pairs are dropped and the search is made once
    more along the first-step direction, -g scaled as above; a search
    without pairs that fails ends the run "stalled".  Stops at |g| <= gtol
    + rtol |f|.
    """
    step = step or (lambda x, p, t: x + t * p)
    w2 = 1.0 if metric is None else metric
    hist, nfev = [], 0   # correction pairs (s, y, s.y), oldest first; calls of fun
    for nit in range(MAX_ITER):
        gnorm = math.sqrt(g.dot(g))   # np.linalg.norm's own product form
        if gnorm <= gtol + rtol * abs(f):
            return Search(x, f, float(gnorm), nit, nfev, "converged")

        while True:   # once more, without the pairs, if their direction stalls
            q, alphas = g.copy(), []
            for s_k, y_k, sy_k in reversed(hist):
                a_k = s_k.dot(q) / sy_k
                q -= a_k * y_k
                alphas.append(a_k)
            if hist:
                _, y_k, sy_k = hist[-1]
                q *= sy_k / y_k.dot(y_k / w2) / w2
            else:
                q *= 1.0 / (w2 * max(gnorm, 1.0))
            for (s_k, y_k, sy_k), a_k in zip(hist, reversed(alphas)):
                b_k = y_k.dot(q) / sy_k
                q += (a_k - b_k) * s_k
            direction = -q
            if direction.dot(g) >= 0:
                direction, hist = -g, []
            slope = direction.dot(g)

            for t in STEPS:
                x_new = step(x, direction, t)
                f_new, g_new = fun(x_new)
                nfev += 1
                if math.isfinite(f_new) and np.isfinite(g_new).all() and (
                        f_new <= f + 1e-4 * t * slope
                        or (f_new <= f + 4e-16 * abs(f) and math.sqrt(g_new.dot(g_new)) < gnorm)):
                    break
            else:
                if hist:
                    hist = []
                    continue
                return Search(x, f, float(gnorm), nit, nfev, "stalled")
            break

        s_k, y_k = t * direction, g_new - g
        sy_k = s_k.dot(y_k)
        if sy_k > 1e-12 * math.sqrt(s_k.dot(s_k)) * math.sqrt(y_k.dot(y_k)):
            hist = hist[-(MEMORY - 1):] + [(s_k, y_k, sy_k)]
        x, f, g = x_new, f_new, g_new

    return Search(x, f, math.sqrt(g.dot(g)), MAX_ITER, nfev, "budget")
