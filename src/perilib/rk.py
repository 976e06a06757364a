"""Embedded Runge-Kutta pairs stepped on Python floats.

Two explicit pairs with their continuous extensions: Dormand & Prince's
5(4) pair (RK45) and Hairer's 8(5,3) pair (DOP853); see E. Hairer,
S. P. Norsett and G. Wanner, Solving Ordinary Differential Equations I,
2nd ed., Springer 1993, sections II.4-II.6.  The step-size controller, the
initial-step rule, the error norms, the dense output, the sampling at
t_eval and the event location (Brent's method on the dense output) are
those of scipy.integrate.solve_ivp, so a run agrees with solve_ivp's to
rounding, and takes its steps wherever the error estimates stand above
rounding noise.  States and slopes are four floats, the phase space of a
2-DOF flow: stepped in Python floats, they cost less than numpy calls on
length-4 arrays, and no run imports scipy.integrate.  DOP853's dense
output evaluates every output time of a run as one numpy batch, after the
last step; RK45's takes one matrix product per step.

The tableaux are copied from SciPy 1.17.1 (scipy/integrate/_ivp/rk.py and
dop853_coefficients.py), Copyright (c) 2001-2002 Enthought, Inc. 2003,
SciPy Developers, under the BSD 3-Clause license.
"""

import math
import sys
from dataclasses import dataclass

import numpy as np

EPS = sys.float_info.epsilon
SAFETY = 0.9  # multiplies the asymptotically optimal step
MIN_FACTOR = 0.2  # smallest decrease of the step at a rejection
MAX_FACTOR = 10  # largest increase of the step at an acceptance
TOO_SMALL_STEP = "Required step size is less than spacing between numbers."
MESSAGES = {
    0: "The solver successfully reached the end of the integration interval.",
    1: "A termination event occurred.",
}

# Dormand-Prince 5(4): nodes, stages, 5th-order weights, error weights (the
# difference of the two embedded solutions, over the 6 stages and the slope
# at the step's end) and the 4th-degree dense-output coefficients.
RK45_C = (0, 1/5, 3/10, 4/5, 8/9, 1)
RK45_A = (
    (0, 0, 0, 0, 0),
    (1/5, 0, 0, 0, 0),
    (3/40, 9/40, 0, 0, 0),
    (44/45, -56/15, 32/9, 0, 0),
    (19372/6561, -25360/2187, 64448/6561, -212/729, 0),
    (9017/3168, -355/33, 46732/5247, 49/176, -5103/18656),
)
RK45_B = (35/384, 0, 500/1113, 125/192, -2187/6784, 11/84)
RK45_E = (-71/57600, 0, 71/16695, -71/1920, 17253/339200, -22/525, 1/40)
RK45_P = (
    (1, -8048581381/2820520608, 8663915743/2820520608,
     -12715105075/11282082432),
    (0, 0, 0, 0),
    (0, 131558114200/32700410799, -68118460800/10900136933,
     87487479700/32700410799),
    (0, -1754552775/470086768, 14199869525/1410260304,
     -10690763975/1880347072),
    (0, 127303824393/49829197408, -318862633887/49829197408,
     701980252875 / 199316789632),
    (0, -282668133/205662961, 2019193451/616988883, -1453857185/822651844),
    (0, 40617522/29380423, -110615467/29380423, 69997945/29380423),
)

# DOP853: 12 stages, then 3 more that only the dense output takes (stage 12
# is the slope at the step's end).  Rows are {column: entry}; absent
# entries are 0.
DOP853_C = (
    0.0,
    0.526001519587677318785587544488e-01,
    0.789002279381515978178381316732e-01,
    0.118350341907227396726757197510,
    0.281649658092772603273242802490,
    0.333333333333333333333333333333,
    0.25,
    0.307692307692307692307692307692,
    0.651282051282051282051282051282,
    0.6,
    0.857142857142857142857142857142,
    1.0,
    1.0,
    0.1,
    0.2,
    0.777777777777777777777777777778,
)
DOP853_A = (
    {},
    {0: 5.26001519587677318785587544488e-2},
    {0: 1.97250569845378994544595329183e-2,
     1: 5.91751709536136983633785987549e-2},
    {0: 2.95875854768068491816892993775e-2,
     2: 8.87627564304205475450678981324e-2},
    {0: 2.41365134159266685502369798665e-1,
     2: -8.84549479328286085344864962717e-1,
     3: 9.24834003261792003115737966543e-1},
    {0: 3.7037037037037037037037037037e-2,
     3: 1.70828608729473871279604482173e-1,
     4: 1.25467687566822425016691814123e-1},
    {0: 3.7109375e-2,
     3: 1.70252211019544039314978060272e-1,
     4: 6.02165389804559606850219397283e-2,
     5: -1.7578125e-2},
    {0: 3.70920001185047927108779319836e-2,
     3: 1.70383925712239993810214054705e-1,
     4: 1.07262030446373284651809199168e-1,
     5: -1.53194377486244017527936158236e-2,
     6: 8.27378916381402288758473766002e-3},
    {0: 6.24110958716075717114429577812e-1,
     3: -3.36089262944694129406857109825,
     4: -8.68219346841726006818189891453e-1,
     5: 2.75920996994467083049415600797e1,
     6: 2.01540675504778934086186788979e1,
     7: -4.34898841810699588477366255144e1},
    {0: 4.77662536438264365890433908527e-1,
     3: -2.48811461997166764192642586468,
     4: -5.90290826836842996371446475743e-1,
     5: 2.12300514481811942347288949897e1,
     6: 1.52792336328824235832596922938e1,
     7: -3.32882109689848629194453265587e1,
     8: -2.03312017085086261358222928593e-2},
    {0: -9.3714243008598732571704021658e-1,
     3: 5.18637242884406370830023853209,
     4: 1.09143734899672957818500254654,
     5: -8.14978701074692612513997267357,
     6: -1.85200656599969598641566180701e1,
     7: 2.27394870993505042818970056734e1,
     8: 2.49360555267965238987089396762,
     9: -3.0467644718982195003823669022},
    {0: 2.27331014751653820792359768449,
     3: -1.05344954667372501984066689879e1,
     4: -2.00087205822486249909675718444,
     5: -1.79589318631187989172765950534e1,
     6: 2.79488845294199600508499808837e1,
     7: -2.85899827713502369474065508674,
     8: -8.87285693353062954433549289258,
     9: 1.23605671757943030647266201528e1,
     10: 6.43392746015763530355970484046e-1},
    {0: 5.42937341165687622380535766363e-2,
     5: 4.45031289275240888144113950566,
     6: 1.89151789931450038304281599044,
     7: -5.8012039600105847814672114227,
     8: 3.1116436695781989440891606237e-1,
     9: -1.52160949662516078556178806805e-1,
     10: 2.01365400804030348374776537501e-1,
     11: 4.47106157277725905176885569043e-2},
    {0: 5.61675022830479523392909219681e-2,
     6: 2.53500210216624811088794765333e-1,
     7: -2.46239037470802489917441475441e-1,
     8: -1.24191423263816360469010140626e-1,
     9: 1.5329179827876569731206322685e-1,
     10: 8.20105229563468988491666602057e-3,
     11: 7.56789766054569976138603589584e-3,
     12: -8.298e-3},
    {0: 3.18346481635021405060768473261e-2,
     5: 2.83009096723667755288322961402e-2,
     6: 5.35419883074385676223797384372e-2,
     7: -5.49237485713909884646569340306e-2,
     10: -1.08347328697249322858509316994e-4,
     11: 3.82571090835658412954920192323e-4,
     12: -3.40465008687404560802977114492e-4,
     13: 1.41312443674632500278074618366e-1},
    {0: -4.28896301583791923408573538692e-1,
     5: -4.69762141536116384314449447206,
     6: 7.68342119606259904184240953878,
     7: 4.06898981839711007970213554331,
     8: 3.56727187455281109270669543021e-1,
     12: -1.39902416515901462129418009734e-3,
     13: 2.9475147891527723389556272149,
     14: -9.15095847217987001081870187138},
)
DOP853_B = DOP853_A[12]
# the 3rd- and 5th-order error weights over stages 0-12
DOP853_E3 = {**DOP853_B,
             0: DOP853_B[0] - 0.244094488188976377952755905512,
             8: DOP853_B[8] - 0.733846688281611857341361741547,
             11: DOP853_B[11] - 0.220588235294117647058823529412e-1}
DOP853_E5 = {0: 0.1312004499419488073250102996e-1,
             5: -0.1225156446376204440720569753e+1,
             6: -0.4957589496572501915214079952,
             7: 0.1664377182454986536961530415e+1,
             8: -0.3503288487499736816886487290,
             9: 0.3341791187130174790297318841,
             10: 0.8192320648511571246570742613e-1,
             11: -0.2235530786388629525884427845e-1}
# the dense output's coefficients of x^3 ... x^6 terms, over stages 0-15
DOP853_D = (
    {0: -0.84289382761090128651353491142e+1,
     5: 0.56671495351937776962531783590,
     6: -0.30689499459498916912797304727e+1,
     7: 0.23846676565120698287728149680e+1,
     8: 0.21170345824450282767155149946e+1,
     9: -0.87139158377797299206789907490,
     10: 0.22404374302607882758541771650e+1,
     11: 0.63157877876946881815570249290,
     12: -0.88990336451333310820698117400e-1,
     13: 0.18148505520854727256656404962e+2,
     14: -0.91946323924783554000451984436e+1,
     15: -0.44360363875948939664310572000e+1},
    {0: 0.10427508642579134603413151009e+2,
     5: 0.24228349177525818288430175319e+3,
     6: 0.16520045171727028198505394887e+3,
     7: -0.37454675472269020279518312152e+3,
     8: -0.22113666853125306036270938578e+2,
     9: 0.77334326684722638389603898808e+1,
     10: -0.30674084731089398182061213626e+2,
     11: -0.93321305264302278729567221706e+1,
     12: 0.15697238121770843886131091075e+2,
     13: -0.31139403219565177677282850411e+2,
     14: -0.93529243588444783865713862664e+1,
     15: 0.35816841486394083752465898540e+2},
    {0: 0.19985053242002433820987653617e+2,
     5: -0.38703730874935176555105901742e+3,
     6: -0.18917813819516756882830838328e+3,
     7: 0.52780815920542364900561016686e+3,
     8: -0.11573902539959630126141871134e+2,
     9: 0.68812326946963000169666922661e+1,
     10: -0.10006050966910838403183860980e+1,
     11: 0.77771377980534432092869265740,
     12: -0.27782057523535084065932004339e+1,
     13: -0.60196695231264120758267380846e+2,
     14: 0.84320405506677161018159903784e+2,
     15: 0.11992291136182789328035130030e+2},
    {0: -0.25693933462703749003312586129e+2,
     5: -0.15418974869023643374053993627e+3,
     6: -0.23152937917604549567536039109e+3,
     7: 0.35763911791061412378285349910e+3,
     8: 0.93405324183624310003907691704e+2,
     9: -0.37458323136451633156875139351e+2,
     10: 0.10409964950896230045147246184e+3,
     11: 0.29840293426660503123344363579e+2,
     12: -0.43533456590011143754432175058e+2,
     13: 0.96324553959188282948394950600e+2,
     14: -0.39177261675615439165231486172e+2,
     15: -0.14972683625798562581422125276e+3},
)


def _row(entries):
    """The nonzero entries of a tableau row (a sequence, or a {column:
    entry} dict) as (column, entry) pairs, in column order."""
    if not isinstance(entries, dict):
        entries = dict(enumerate(entries))
    return tuple((j, float(entries[j])) for j in sorted(entries) if entries[j])


def _combine(K, row):
    """sum_j a_j K[j] over the (j, a_j) pairs of row, for 4-component slopes.
    One accumulator per component takes about a third of the time of a
    loop over the components at each term."""
    s0 = s1 = s2 = s3 = 0.0
    for j, a in row:
        k0, k1, k2, k3 = K[j]
        s0 += a * k0
        s1 += a * k1
        s2 += a * k2
        s3 += a * k3
    return s0, s1, s2, s3


def _stages(fun, t, y, h, K, first, rows):
    """Fills K[first], K[first + 1], ... with fun at the stages (c, a) of
    rows, each at t + c h and y + h sum_j a_j K[j]; returns the last
    stage's state."""
    y0, y1, y2, y3 = y
    for s, (c, a) in enumerate(rows, first):
        d0, d1, d2, d3 = _combine(K, a)
        z = [y0 + d0 * h, y1 + d1 * h, y2 + d2 * h, y3 + d3 * h]
        K[s] = fun(t + c * h, z)
    return z


def _rms(v):
    return math.sqrt(sum(x * x for x in v)) / len(v) ** 0.5


class _Pair:
    """One embedded pair: its stages after the first as (node, row) pairs,
    the weights last, at node 1 (their state is the step's end, and their
    slope the next step's first), the order of its error estimate, and
    n_slopes, the slopes a step and its dense output hold.

    Each pair adds error_norm(K, h, scale), solve_ivp's scaled norm of the
    step's error estimate, and the continuous extension of an accepted
    step from (t_old, y_old) to (t, y), with solve_ivp's operations:
    dense(fun, t_old, t, y_old, y, K) returns the step's interpolant as
    (t_old, h, y_old, coefficients), and sample(steps, counts, ts) the
    states at the m times of the array ts as an (m, 4) array, each step
    in turn taking the next counts[i] of them.
    """

    def __init__(self, C, A, B, error_order, n_slopes):
        self.stages = tuple(zip(map(float, [*C[1:], 1]), map(_row, [*A[1:], B])))
        self.error_order = error_order
        self.n_slopes = n_slopes

    def step(self, fun, t, y, f, h, K):
        """One trial step of size h from (t, y, f): fills K[0..len(stages)]
        and returns (y_new, f_new)."""
        K[0] = f
        y_new = _stages(fun, t, y, h, K, 1, self.stages)
        return y_new, K[len(self.stages)]


class _RK45(_Pair):
    def __init__(self):
        super().__init__(RK45_C, RK45_A, RK45_B, 4, len(RK45_E))
        self.E = _row(RK45_E)
        self.P = np.array(RK45_P, dtype=float)

    def error_norm(self, K, h, scale):
        return _rms([e * h / s for e, s in zip(_combine(K, self.E), scale)])

    def dense(self, fun, t_old, t, y_old, y, K):
        """The step's 4th-degree interpolant: (t_old, h, y_old, Q)."""
        return t_old, t - t_old, np.array(y_old), np.dot(np.array(K).T, self.P)

    def sample(self, steps, counts, ts):
        # BLAS takes the matrix product's sums, so each step's times are one
        # product of their own, as in solve_ivp
        out, i = [], 0
        for (t_old, h, y_old, Q), n in zip(steps, counts):
            x = (ts[i:i + n] - t_old) / h
            p = np.cumprod(np.tile(x, (self.P.shape[1], 1)), axis=0)
            out.append((h * np.dot(Q, p) + y_old[:, None]).T)
            i += n
        return np.concatenate(out)


class _DOP853(_Pair):
    def __init__(self):
        C, A = DOP853_C, DOP853_A
        super().__init__(C[:12], A[:12], DOP853_B, 7, len(A))
        self.extra = tuple(zip(C[13:], map(_row, A[13:])))
        self.E3 = _row(DOP853_E3)
        self.E5 = _row(DOP853_E5)
        self.D = np.array([[d.get(j, 0.0) for j in range(len(A))] for d in DOP853_D])

    def error_norm(self, K, h, scale):
        err5 = [e / s for e, s in zip(_combine(K, self.E5), scale)]
        err3 = [e / s for e, s in zip(_combine(K, self.E3), scale)]
        # squares of 2-norms, taken as solve_ivp takes them
        err5_2 = math.sqrt(sum(e * e for e in err5)) ** 2
        err3_2 = math.sqrt(sum(e * e for e in err3)) ** 2
        if err5_2 == 0 and err3_2 == 0:
            return 0.0
        denom = err5_2 + 0.01 * err3_2
        return abs(h) * err5_2 / math.sqrt(denom * len(scale))

    def dense(self, fun, t_old, t, y_old, y, K):
        """The step's 7th-degree interpolant, after the three extra stages:
        (t_old, h, y_old, F), F its coefficient rows from the lowest
        degree."""
        h = t - t_old
        _stages(fun, t_old, y_old, h, K, 13, self.extra)
        K = np.array(K)
        y_old = np.array(y_old)
        f_old, f = K[0], K[12]
        F = np.empty((3 + len(self.D), len(y_old)))
        F[0] = np.array(y) - y_old
        F[1] = h * f_old - F[0]
        F[2] = 2 * F[0] - h * (f + f_old)
        F[3:] = h * np.dot(self.D, K)
        return t_old, h, y_old, F

    def sample(self, steps, counts, ts):
        """Every step's times as one batch: each time meets its own step's
        t_old, h, y_old and coefficients, gathered one row at a time, in
        solve_ivp's elementwise operations, so it keeps their bits."""
        t_old, h, y_old, F = map(np.array, zip(*steps))
        idx = np.repeat(np.arange(len(steps)), counts)
        x = ((ts - t_old[idx]) / h[idx])[:, None]
        z = np.zeros((len(x), len(y_old[0])))
        for i in range(len(F[0])):
            z += F[idx, -1 - i]
            z *= x if i % 2 == 0 else 1 - x
        return z + y_old[idx]


PAIRS = {"RK45": _RK45(), "DOP853": _DOP853()}


def _initial_step(fun, t0, y0, f0, t_bound, direction, order, rtol, atol):
    """solve_ivp's starting step (Hairer, Norsett & Wanner, II.4)."""
    interval = abs(t_bound - t0)
    scale = [atol + abs(v) * rtol for v in y0]
    d0 = _rms([v / s for v, s in zip(y0, scale)])
    d1 = _rms([v / s for v, s in zip(f0, scale)])
    h0 = 1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1
    h0 = min(h0, interval)
    y1 = [v + h0 * direction * fv for v, fv in zip(y0, f0)]
    f1 = fun(t0 + h0 * direction, y1)
    d2 = _rms([(a - b) / s for a, b, s in zip(f1, f0, scale)]) / h0
    if d1 <= 1e-15 and d2 <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** (1 / (order + 1))
    return min(100 * h0, h1, interval)


def brentq(f, a, b):
    """A root of f in [a, b] (either order) by Brent's method, as
    scipy.optimize.brentq finds it with solve_ivp's tolerances (xtol and
    rtol 4 EPS, 100 iterations): the same iterates, so the same root.
    f(a) and f(b) must differ in sign (ValueError)."""
    xtol = rtol = 4 * EPS
    maxiter = 100
    xpre, xcur = a, b
    fpre, fcur = f(xpre), f(xcur)
    if math.isnan(fpre) or math.isnan(fcur):
        raise ValueError("the function value is NaN; solver cannot continue")
    if fpre == 0:
        return xpre
    if fcur == 0:
        return xcur
    if math.copysign(1, fpre) == math.copysign(1, fcur):
        raise ValueError("f(a) and f(b) must have different signs")
    xblk = fblk = spre = scur = 0.0
    for _ in range(maxiter):
        if fpre != 0 and fcur != 0 and math.copysign(1, fpre) != math.copysign(1, fcur):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (xtol + rtol * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0 or abs(sbis) < delta:
            return xcur
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:  # secant
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:  # inverse quadratic
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):
                spre, scur = scur, stry
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        xcur += scur if abs(scur) > delta else (delta if sbis > 0 else -delta)
        fcur = f(xcur)
        if math.isnan(fcur):
            raise ValueError("the function value is NaN; solver cannot continue")
    raise RuntimeError("Failed to converge after %d iterations, value is %f"
                       % (maxiter, xcur))


@dataclass
class Solution:
    """What a run did.

    times and states are the samples at t_eval (states one row each),
    cut at a terminal event's time; status is 0 (reached the end), 1 (a
    terminal event) or -1 (the step size fell below the float spacing),
    with message saying which.  t_events and y_events hold, per event
    function, the times and states of its zeros (None without events).
    nfev counts right-hand-side evaluations, n_accepted the accepted steps
    and n_rejected the rejected trial steps.
    """

    times: np.ndarray
    states: np.ndarray
    status: int
    message: str
    t_events: list
    y_events: list
    nfev: int
    n_accepted: int
    n_rejected: int


def solve(fun, t_span, y0, t_eval, method, rtol, atol, events=None, first_step=None):
    """Integrate y' = fun(t, y) over t_span = (t0, t_bound), t_bound != t0.

    fun takes a time and the state, a list of 4 floats, and returns the
    slope as 4 floats.  t_eval lists the output times, inside t_span and in
    integration order; their states come from the accepted steps' dense
    output, in one batch after the last step.  first_step, as solve_ivp's,
    is the size of the first trial step, in place of the initial-step rule
    and its one evaluation of fun.  A method other than RK45 and DOP853, an
    rtol below 100 * EPS, a negative atol (NaN included) or a first_step
    that is not finite, positive and at most |t_bound - t0| is a ValueError
    before any evaluation.
    Each event is a scalar function event(t, y) whose zeros are located,
    with two of solve_ivp's optional attributes: terminal (True stops the
    run at the event's first zero) and direction (> 0 or < 0: only rising
    or only falling zeros count).  Returns a Solution.
    """
    pair = PAIRS.get(method)
    if pair is None:
        raise ValueError("method must be one of %s, got %r" % (sorted(PAIRS), method))
    t0, t_bound = map(float, t_span)
    y = [float(v) for v in y0]
    if len(y) != 4 or not all(map(math.isfinite, y)):
        raise ValueError("the initial state y0 must be 4 finite floats, got %r" % (y0,))
    if not rtol >= 100 * EPS:
        # solve_ivp would step at 100 EPS instead: a run at another
        # tolerance than the one asked for
        raise ValueError("rtol must be at least 100 * EPS = %r, got %r" % (100 * EPS, rtol))
    if not atol >= 0:
        # a NaN atol makes every step size NaN, which no check ever ends
        raise ValueError("atol must be nonnegative, got %r" % (atol,))
    if first_step is not None and not (
            math.isfinite(first_step) and 0 < first_step <= abs(t_bound - t0)):
        raise ValueError("first_step must be finite, positive and at most "
                         "|t_bound - t0| = %r, got %r" % (abs(t_bound - t0), first_step))
    t_eval = np.asarray(t_eval, dtype=float)
    direction = 1.0 if t_bound >= t0 else -1.0
    # the output times as increasing keys, for bisection
    t_keys = t_eval if direction > 0 else -t_eval

    nfev = 0

    def rhs(t, z):
        nonlocal nfev
        nfev += 1
        return fun(t, z)

    if events is not None:
        terminal = [getattr(event, "terminal", False) for event in events]
        if not all(isinstance(v, bool) for v in terminal):
            raise ValueError("The `terminal` attribute of each event must be a boolean.")
        event_dir = [getattr(event, "direction", 0) for event in events]
        g = [event(t0, y) for event in events]
        t_events = [[] for _ in events]
        y_events = [[] for _ in events]

    f = rhs(t0, y)
    if first_step is None:
        h_abs = _initial_step(rhs, t0, y, f, t_bound, direction, pair.error_order, rtol, atol)
    else:
        h_abs = float(first_step)
    exponent = -1 / (pair.error_order + 1)
    K = [None] * pair.n_slopes
    t = t0
    # the dense output of each step that holds samples, and their count
    steps, counts = [], []
    i_eval = 0
    n_accepted = n_rejected = 0
    status = None
    message = None
    while status is None:
        # one accepted step of solve_ivp's controller
        min_step = 10 * abs(math.nextafter(t, direction * math.inf) - t)
        h_abs = max(h_abs, min_step)
        rejected = False
        while True:
            if h_abs < min_step:
                status, message = -1, TOO_SMALL_STEP
                break
            t_new = t + h_abs * direction
            if direction * (t_new - t_bound) > 0:
                t_new = t_bound
            h = t_new - t
            h_abs = abs(h)
            y_new, f_new = pair.step(rhs, t, y, f, h, K)
            scale = [atol + max(abs(a), abs(b)) * rtol for a, b in zip(y, y_new)]
            error_norm = pair.error_norm(K, h, scale)
            if error_norm < 1:
                if error_norm == 0:
                    factor = MAX_FACTOR
                else:
                    factor = min(MAX_FACTOR, SAFETY * error_norm ** exponent)
                if rejected:
                    factor = min(1, factor)
                h_abs *= factor
                break
            h_abs *= max(MIN_FACTOR, SAFETY * error_norm ** exponent)
            rejected = True
            n_rejected += 1
        if status == -1:
            break
        n_accepted += 1
        t_old, y_old = t, y
        t, y, f = t_new, y_new, f_new
        if direction * (t - t_bound) >= 0:
            status = 0

        step = None
        t_end = t
        if events is not None:
            g_new = [event(t, y) for event in events]
            active = [i for i, (a, b, d) in enumerate(zip(g, g_new, event_dir))
                      if (a <= 0 <= b and d >= 0) or (a >= 0 >= b and d <= 0)]
            if active:
                step = pair.dense(rhs, t_old, t, y_old, y, K)
                sol = lambda tt: pair.sample([step], [1], np.array([tt]))[0].tolist()
                roots = [brentq(lambda tt, e=events[i]: e(tt, sol(tt)), t_old, t)
                         for i in active]
                if any(terminal[i] for i in active):
                    # the zeros in integration order, up to the first
                    # terminal one
                    order = sorted(range(len(active)), key=lambda k: direction * roots[k])
                    active = [active[k] for k in order]
                    roots = [roots[k] for k in order]
                    last = next(k for k, i in enumerate(active) if terminal[i])
                    active, roots = active[:last + 1], roots[:last + 1]
                    status = 1
                for i, te in zip(active, roots):
                    t_events[i].append(te)
                    y_events[i].append(sol(te))
                if status == 1:
                    t_end = roots[-1]
            g = g_new
        i_step = i_eval
        i_eval = int(np.searchsorted(t_keys, direction * t_end, side="right"))
        if i_eval > i_step:
            if step is None:
                step = pair.dense(rhs, t_old, t, y_old, y, K)
            steps.append(step)
            counts.append(i_eval - i_step)

    if events is not None:
        t_events = [np.asarray(te) for te in t_events]
        y_events = [np.asarray(ye) for ye in y_events]
    else:
        t_events = y_events = None
    times = t_eval[:i_eval].copy()
    states = pair.sample(steps, counts, times) if steps else np.empty((0, len(y)))
    return Solution(times, states,
                    status, MESSAGES.get(status, message), t_events, y_events,
                    nfev, n_accepted, n_rejected)
