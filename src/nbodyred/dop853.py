"""DOP853, the Runge-Kutta pair of order 8(5,3) of Hairer, Norsett and Wanner
(Solving ODEs I, sections II.5 and II.10), with its 7th-order dense output.
First step, step control and expression forms are scipy's (solve_ivp with
method="DOP853"), whose states and evaluation counts a run reproduces.
"""

import math
from bisect import bisect_right
from collections import namedtuple

import numpy as np

EPS = np.finfo(float).eps

# stages 0-11 make the step, 12 is the slope at its end, 13-15 feed the dense
# output F[3:] = h D K; B = A[12, :12] are the 8th-order weights
C = [0.0, 0.05260015195876773, 0.0789002279381516, 0.1183503419072274, 0.2816496580927726,
    0.3333333333333333, 0.25, 0.3076923076923077, 0.6512820512820513, 0.6, 0.8571428571428571, 1.0,
    1.0, 0.1, 0.2, 0.7777777777777778]
A = np.zeros((16, 16))
A[np.tril_indices(16, -1)] = [0.05260015195876773, 0.0197250569845379, 0.0591751709536137,
    0.02958758547680685, 0, 0.08876275643042054, 0.2413651341592667, 0, -0.8845494793282861,
    0.924834003261792, 0.037037037037037035, 0, 0, 0.17082860872947386, 0.12546768756682242,
    0.037109375, 0, 0, 0.17025221101954405, 0.06021653898045596, -0.017578125, 0.03709200011850479,
    0, 0, 0.17038392571223998, 0.10726203044637328, -0.015319437748624402, 0.008273789163814023,
    0.6241109587160757, 0, 0, -3.3608926294469414, -0.868219346841726, 27.59209969944671,
    20.154067550477894, -43.48988418106996, 0.47766253643826434, 0, 0, -2.4881146199716677,
    -0.590290826836843, 21.230051448181193, 15.279233632882423, -33.28821096898486,
    -0.020331201708508627, -0.9371424300859873, 0, 0, 5.186372428844064, 1.0914373489967295,
    -8.149787010746927, -18.52006565999696, 22.739487099350505, 2.4936055526796523,
    -3.0467644718982196, 2.273310147516538, 0, 0, -10.53449546673725, -2.0008720582248625,
    -17.9589318631188, 27.94888452941996, -2.8589982771350235, -8.87285693353063,
    12.360567175794303, 0.6433927460157636, 0.054293734116568765, 0, 0, 0, 0, 4.450312892752409,
    1.8915178993145003, -5.801203960010585, 0.3111643669578199, -0.1521609496625161,
    0.20136540080403034, 0.04471061572777259, 0.056167502283047954, 0, 0, 0, 0, 0,
    0.25350021021662483, -0.2462390374708025, -0.12419142326381637, 0.15329179827876568,
    0.00820105229563469, 0.007567897660545699, -0.008298, 0.03183464816350214, 0, 0, 0, 0,
    0.028300909672366776, 0.053541988307438566, -0.05492374857139099, 0, 0,
    -0.00010834732869724932, 0.0003825710908356584, -0.00034046500868740456, 0.1413124436746325,
    -0.42889630158379194, 0, 0, 0, 0, -4.697621415361164, 7.683421196062599, 4.06898981839711,
    0.3567271874552811, 0, 0, 0, -0.0013990241651590145, 2.9475147891527724, -9.15095847217987]
B = A[12, :12]
A_ROWS = [A[s, :s] for s in range(16)]   # the weights of stage s
E3 = np.append(B, 0.0)
E3[[0, 8, 11]] -= [0.2440944881889764, 0.7338466882816118, 0.022058823529411766]
E5 = np.array([0.01312004499419488, 0, 0, 0, 0, -1.2251564463762044, -0.4957589496572502,
    1.6643771824549864, -0.35032884874997366, 0.3341791187130175, 0.08192320648511571,
    -0.022355307863886294, 0])
D = np.array([-8.428938276109013, 0, 0, 0, 0, 0.5667149535193777, -3.0689499459498917,
    2.38466765651207, 2.117034582445028, -0.871391583777973, 2.2404374302607883,
    0.6315787787694688, -0.08899033645133331, 18.148505520854727, -9.194632392478356,
    -4.436036387594894, 10.427508642579134, 0, 0, 0, 0, 242.28349177525817, 165.20045171727028,
    -374.5467547226902, -22.113666853125306, 7.733432668472264, -30.674084731089398,
    -9.332130526430229, 15.697238121770845, -31.139403219565178, -9.35292435884448,
    35.81684148639408, 19.985053242002433, 0, 0, 0, 0, -387.0373087493518, -189.17813819516758,
    527.8081592054236, -11.57390253995963, 6.8812326946963, -1.0006050966910838,
    0.7777137798053443, -2.778205752353508, -60.19669523126412, 84.32040550667716,
    11.99229113618279, -25.69393346270375, 0, 0, 0, 0, -154.18974869023643, -231.5293791760455,
    357.6391179106141, 93.40532418362432, -37.45832313645163, 104.0996495089623, 29.8402934266605,
    -43.53345659001114, 96.32455395918828, -39.17726167561544, -149.72683625798564]).reshape(4, 16)


# y: one row per requested time up to the stop; status 0 at the last time, 1 at the
# event (t_event), -1 on step-size underflow, -2 at the budget; nfev, accepted, rejected:
# work; t_last, y_last: the last accepted step (t0, y0 before the first)
Solution = namedtuple("Solution", "y nfev status t_event accepted rejected t_last y_last")


def _dense(F, y_old, x):
    """Rows y(t_old + x h) of the dense output over a step, x of shape (k, 1)."""
    y, factors = np.zeros((x.shape[0], y_old.size)), (x, 1 - x)
    for i, f in enumerate(F[::-1]):
        y += f
        y *= factors[i % 2]
    return y + y_old


def solve_ivp(fun, ts, y0, tol, event, budget):
    """Solution of y' = fun(t, y), y(ts[0]) = y0, at the increasing times ts,
    with relative and absolute tolerance tol.

    fun(t, y, out) writes y' into out: a row of the stage table, or a new
    array, never memory that y shares.  The stage arguments are built in
    one buffer of their own, in the operations of y + (K^T a_s) h.

    The run stops at the first step over which event(t, y) crosses zero
    downwards, the crossing bisected on the dense output to a few ulps, when
    the step size falls below ten ulps of t, or before a step attempt or
    dense output that would make more than max(budget, 2) calls of fun.
    """
    rtol, atol = max(tol, 100 * EPS), tol
    times = ts.tolist()   # the step bookkeeping runs on Python floats
    t, t_end = times[0], times[-1]
    y = np.asarray(y0, dtype=float)
    K, arg = np.empty((16, y.size)), np.empty(y.size)
    KT = [K[:s].T for s in range(16)]   # the stage views: KT[s].dot(w) is np.dot(K[:s].T, w)
    stage = list(zip(KT, A_ROWS, C, K))   # per stage s: K[:s].T, its weights, c_s, the row K[s]
    step_stages, dense_stages = stage[1:12], stage[13:]   # a step's 1-11, the dense output's 13-15

    def stages(plan, t, y, h):   # the rows of the stages in plan, over the step h from (t, y)
        for KTs, weights, c, row in plan:
            a = KTs.dot(weights, arg)
            a *= h
            a += y
            fun(t + c * h, a, row)

    fun(t, y, f := np.empty(y.size))
    abs_y, root_n = np.abs(y), y.size ** 0.5   # first step by Hairer's rule
    scale = atol + abs_y * rtol
    d0, d1 = np.linalg.norm(y / scale) / root_n, np.linalg.norm(f / scale) / root_n
    h0 = min(1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1, t_end - t)
    fun(t + h0, y + h0 * f, K[1])
    d2 = np.linalg.norm((K[1] - f) / scale) / root_n / h0
    h1 = max(1e-6, h0 * 1e-3) if d1 <= 1e-15 and d2 <= 1e-15 else (0.01 / max(d1, d2)) ** (1 / 8)
    h_abs = float(min(100 * h0, h1, t_end - t))

    nfev, accepted, rejected, filled, status, t_event = 2, 0, 0, 0, None, None
    out, F = np.empty((len(ts), y.size)), np.empty((7, y.size))
    g = event(t, y)
    while status is None:
        min_step = 10 * (math.nextafter(t, math.inf) - t)
        h_abs, rejected_before = max(h_abs, min_step), rejected
        while True:
            if h_abs < min_step or nfev + 12 > budget:
                status = -1 if h_abs < min_step else -2
                return Solution(out[:filled], nfev, status, None, accepted, rejected, t, y)
            t_new = min(t + h_abs, t_end)
            h_abs = abs(h := t_new - t)
            K[0] = f
            stages(step_stages, t, y, h)
            y_new = y + h * KT[12].dot(B)
            fun(t + h, y_new, K[12])
            nfev += 12
            scale = atol + np.maximum(abs_y, abs_new := np.abs(y_new)) * rtol
            err5, err3 = KT[13].dot(E5) / scale, KT[13].dot(E3) / scale
            # squared norms formed as np.linalg.norm forms a 1-D norm, to the bit
            e5, e3 = math.sqrt(err5.dot(err5)) ** 2, math.sqrt(err3.dot(err3)) ** 2
            error = 0.0 if e5 == e3 == 0 else h_abs * e5 / math.sqrt((e5 + 0.01 * e3) * y.size)
            if error < 1:
                factor = 10 if error == 0 else min(10, 0.9 * error ** -0.125)
                h_abs *= min(1, factor) if rejected > rejected_before else factor
                accepted += 1
                break
            h_abs *= max(0.2, 0.9 * error ** -0.125)
            rejected += 1
        t_old, y_old, f_old, t, y, f, abs_y = t, y, f, t_new, y_new, K[12].copy(), abs_new
        status = 0 if t - t_end >= 0 else None
        g_old, g = g, event(t, y)
        crossing = g_old >= 0 >= g
        stop = bisect_right(times, t)
        if crossing or stop > filled:   # the dense output over the step
            if nfev + 3 > budget:
                return Solution(out[:filled], nfev, -2, None, accepted, rejected, t, y)
            stages(dense_stages, t_old, y_old, h)
            nfev += 3
            dy = np.subtract(y, y_old, F[0])   # F = [dy, h f_old - dy, 2 dy - h (f + f_old), h D K]
            np.subtract(h * f_old, dy, F[1])
            np.subtract(2 * dy, h * (f + f_old), F[2])
            np.multiply(D.dot(K), h, F[3:])
        if crossing:   # bisected with event >= 0 at lo, <= 0 at hi
            lo, hi = t_old, t
            while hi - lo > 4 * EPS * (1.0 + abs(hi)):
                mid = 0.5 * (lo + hi)
                above = event(mid, _dense(F, y_old, np.array([[(mid - t_old) / h]]))[0]) > 0
                lo, hi = (mid, hi) if above else (lo, mid)
            t_event, status = hi, 1
            stop = bisect_right(times, hi)
        if stop > filled:
            out[filled:stop] = _dense(F, y_old, ((ts[filled:stop] - t_old) / h)[:, None])
            filled = stop
    return Solution(out[:filled], nfev, status, t_event, accepted, rejected, t, y)
