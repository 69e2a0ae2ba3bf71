"""Limited-memory BFGS for GRAPE: the unconstrained path of L-BFGS-B.

``lbfgs_steps`` takes the steps that L-BFGS-B (Byrd, Lu, Nocedal & Zhu,
SIAM J. Sci. Comput. 16, 1190 (1995)) takes when no variable is bounded:
the quasi-Newton direction from the last ``MEMORY`` pairs (s, y), with the
initial inverse Hessian s^T y / y^T y of the newest pair, found here by the
two-loop recursion; a first step of 1/|d| and 1 after it; and the
Moré-Thuente line search (ACM TOMS 20, 286 (1994)), whose ``_dcstep`` is
MINPACK-2's safeguarded cubic/quadratic step.  Its stopping tests are those
GRAPE ran L-BFGS-B with (``ftol = 1e-18``, ``gtol = 1e-14``).  It is a
generator that yields the points to evaluate, so that GRAPE can step many
runs in lockstep, one batched objective call per round; ``lbfgs`` drives
it on one objective.
"""

from __future__ import annotations

from collections import deque

import numpy as np

MEMORY = 10  # pairs (s, y) kept
# line search: sufficient decrease, curvature, bracket width, largest step,
# evaluations per search
FTOL, GTOL, XTOL, STPMAX, MAX_EVALS = 1e-3, 0.9, 0.1, 1e10, 20
# the run stops at max |g| <= GRAD_TOL or f_old - f <= REDUCTION_TOL max(|f_old|, |f|, 1)
GRAD_TOL, REDUCTION_TOL = 1e-14, 1e-18
EPS = np.finfo(float).eps


def lbfgs(fun, x, callback, max_iter):
    """Minimize ``fun`` from ``x``; ``fun(x)`` returns (f, gradient).  The
    one-problem driver of ``lbfgs_steps``: returns (x, f, iterations)."""
    steps = lbfgs_steps(x, callback, max_iter)
    try:
        point = next(steps)
        while True:
            point = steps.send(fun(point))
    except StopIteration as stop:
        return stop.value


def lbfgs_steps(x, callback, max_iter):
    """L-BFGS from ``x`` as a generator: it yields each point to evaluate,
    is sent (f, gradient) there, and returns (x, f, iterations), so a
    caller can evaluate many runs' points in one batched call.

    After each iteration ``callback(x, f)`` sees the new iterate and ends the
    run by returning true; ``max_iter`` iterations end it too.  A failed line
    search restores the iterate and empties the memory, or ends the run if
    the memory is empty already.  A point equal to the last one evaluated is
    not yielded again: its (f, gradient) is reused, as scipy's wrapper does.
    """
    last = None  # (point, f, gradient) of the last evaluation

    def evaluate(point):
        nonlocal last
        if last is None or not np.array_equal(point, last[0]):
            f, grad = yield point
            last = point, np.float64(f), grad
        return last[1:]

    f, g = yield from evaluate(x)
    pairs = deque(maxlen=MEMORY)  # (s, y, 1 / s^T y), oldest first
    scale = 1.0
    iterations = 0
    if np.abs(g).max() <= GRAD_TOL:
        return x, f, iterations
    while True:
        p = -g
        if pairs:
            alphas = []
            for s, y, rho in reversed(pairs):
                alphas.append(rho * (s @ p))
                p -= alphas[-1] * y
            p *= scale
            for (s, y, rho), alpha in zip(pairs, reversed(alphas)):
                p += (alpha - rho * (y @ p)) * s
        # as in L-BFGS-B, the direction is z - x, and a unit step lands on z
        z = x + p
        d = z - x
        gd_old = g @ d
        stp = 1.0 if iterations else min(1.0 / np.linalg.norm(d), STPMAX)
        found = yield from _line_search(evaluate, x, z, f, gd_old, d, stp)
        if found is None:
            if not pairs:
                return x, f, iterations
            pairs.clear()
            continue
        stp, x_new, f_new, g_new, gd = found
        iterations += 1
        if callback(x_new, f_new) or iterations >= max_iter:
            return x_new, f_new, iterations
        if np.abs(g_new).max() <= GRAD_TOL or f - f_new <= REDUCTION_TOL * max(abs(f), abs(f_new), 1.0):
            return x_new, f_new, iterations
        y = g_new - g
        sy = (gd - gd_old) * stp
        if sy > EPS * (-gd_old * stp):
            pairs.append((stp * d, y, 1.0 / sy))
            scale = sy / (y @ y)
        x, f, g = x_new, f_new, g_new


def _line_search(evaluate, x, z, f0, ginit, d, stp):
    """Moré-Thuente search along ``d`` from ``x`` (``z`` = x + d) with
    f(0) = ``f0``, f'(0) = ``ginit``, first trial ``stp``: MINPACK-2's
    ``dcsrch``, whose warnings accept the step as convergence does.  A
    generator over ``evaluate``'s points, as ``lbfgs_steps`` is.
    Returns (stp, x + stp d, f, gradient, f'(stp)), or None when f'(0) >= 0
    or ``MAX_EVALS`` evaluations bring neither."""
    if not ginit < 0:
        return None
    gtest = FTOL * ginit
    brackt, stage1 = False, True
    width, width1 = STPMAX, 2.0 * STPMAX
    stx = sty = 0.0
    fx = fy = f0
    gx = gy = ginit
    stmin, stmax = 0.0, 5.0 * stp
    for _ in range(MAX_EVALS):
        point = z if stp == 1.0 else stp * d + x
        f, grad = yield from evaluate(point)
        g = grad @ d
        ftest = f0 + stp * gtest
        if stage1 and f <= ftest and g >= 0:
            stage1 = False
        if (
            f <= ftest and abs(g) <= GTOL * -ginit
            or brackt and (stp <= stmin or stp >= stmax or stmax - stmin <= XTOL * stmax)
            or stp == STPMAX and f <= ftest and g <= gtest
            or stp == 0.0 and (f > ftest or g >= gtest)
        ):
            return stp, point, f, grad, g
        # in stage 1, a step with f above the sufficient-decrease line but
        # not above f(stx) moves by the modified function f - stp gtest
        shift = gtest if stage1 and ftest < f <= fx else 0.0
        stx, fx, gx, sty, fy, gy, stp, brackt = _dcstep(
            stx, fx - stx * shift, gx - shift, sty, fy - sty * shift, gy - shift,
            stp, f - stp * shift, g - shift, brackt, stmin, stmax,
        )
        fx, fy, gx, gy = fx + stx * shift, fy + sty * shift, gx + shift, gy + shift
        if brackt:
            if abs(sty - stx) >= 0.66 * width1:
                stp = stx + 0.5 * (sty - stx)
            width1, width = width, abs(sty - stx)
            stmin, stmax = min(stx, sty), max(stx, sty)
        else:
            stmin, stmax = stp + 1.1 * (stp - stx), stp + 4.0 * (stp - stx)
        stp = min(max(stp, 0.0), STPMAX)
        if brackt and (stp <= stmin or stp >= stmax or stmax - stmin <= XTOL * stmax):
            stp = stx
    return None


@np.errstate(all="ignore")
def _dcstep(stx, fx, dx, sty, fy, dy, stp, fp, dp, brackt, stpmin, stpmax):
    """MINPACK-2's ``dcstep``: the next trial step from the best step stx,
    the other bracket end sty and the trial stp (values f, derivatives d),
    and the updated interval.  Returns (stx, fx, dx, sty, fy, dy, stp,
    brackt)."""
    opposite = dp < 0 < dx or dx < 0 < dp
    if fp > fx:  # higher value: the minimum is bracketed
        theta = 3.0 * (fx - fp) / (stp - stx) + dx + dp
        s = max(abs(theta), abs(dx), abs(dp))
        gamma = s * np.sqrt((theta / s) ** 2 - (dx / s) * (dp / s))
        if stp < stx:
            gamma = -gamma
        r = ((gamma - dx) + theta) / (((gamma - dx) + gamma) + dp)
        stpc = stx + r * (stp - stx)
        stpq = stx + ((dx / ((fx - fp) / (stp - stx) + dx)) / 2.0) * (stp - stx)
        stpf = stpc if abs(stpc - stx) <= abs(stpq - stx) else stpc + (stpq - stpc) / 2.0
        brackt = True
    elif opposite:  # derivatives of opposite sign: bracketed
        theta = 3.0 * (fx - fp) / (stp - stx) + dx + dp
        s = max(abs(theta), abs(dx), abs(dp))
        gamma = s * np.sqrt((theta / s) ** 2 - (dx / s) * (dp / s))
        if stp > stx:
            gamma = -gamma
        r = ((gamma - dp) + theta) / (((gamma - dp) + gamma) + dx)
        stpc = stp + r * (stx - stp)
        stpq = stp + (dp / (dp - dx)) * (stx - stp)
        stpf = stpc if abs(stpc - stp) > abs(stpq - stp) else stpq
        brackt = True
    elif abs(dp) < abs(dx):  # same sign, smaller derivative
        theta = 3.0 * (fx - fp) / (stp - stx) + dx + dp
        s = max(abs(theta), abs(dx), abs(dp))
        gamma = s * np.sqrt(max(0.0, (theta / s) ** 2 - (dx / s) * (dp / s)))
        if stp > stx:
            gamma = -gamma
        r = ((gamma - dp) + theta) / ((gamma + (dx - dp)) + gamma)
        if r < 0 and gamma != 0:
            stpc = stp + r * (stx - stp)
        else:
            stpc = stpmax if stp > stx else stpmin
        stpq = stp + (dp / (dp - dx)) * (stx - stp)
        if brackt:
            stpf = stpc if abs(stpc - stp) < abs(stpq - stp) else stpq
            bound = stp + 0.66 * (sty - stp)
            stpf = min(bound, stpf) if stp > stx else max(bound, stpf)
        else:
            stpf = stpc if abs(stpc - stp) > abs(stpq - stp) else stpq
            stpf = max(stpmin, min(stpmax, stpf))
    elif brackt:  # same sign, no smaller: cubic through stp and sty
        theta = 3.0 * (fp - fy) / (sty - stp) + dy + dp
        s = max(abs(theta), abs(dy), abs(dp))
        gamma = s * np.sqrt((theta / s) ** 2 - (dy / s) * (dp / s))
        if stp > sty:
            gamma = -gamma
        r = ((gamma - dp) + theta) / (((gamma - dp) + gamma) + dy)
        stpf = stp + r * (sty - stp)
    else:
        stpf = stpmax if stp > stx else stpmin
    if fp > fx:
        sty, fy, dy = stp, fp, dp
    else:
        if opposite:
            sty, fy, dy = stx, fx, dx
        stx, fx, dx = stp, fp, dp
    return stx, fx, dx, sty, fy, dy, stpf, brackt
