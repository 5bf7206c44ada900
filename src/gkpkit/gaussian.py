"""Closed-form Gaussian expectation values of O_GKP and the 5/3 - ||u||_inf bound.

A pure single-mode Gaussian state is parametrized by displacements
(x0, p0), squeezing magnitude r and squeezing angle theta; its covariance
matrix then satisfies the purity condition sxx*spp - sxp^2 = 1/4.
"""

import math
from dataclasses import dataclass
from itertools import product

import numpy as np

from .errors import InvalidArgumentError
from .operators import SQRT_PI, check_unit

# squeezing-magnitude clip of the bound search: the minimum at 8 equals that
# at 6 to 1e-4 (test_rmax_saturation)
R_MAX = 6.0


@dataclass(frozen=True)
class GaussianPureParams:
    """Displacements, squeezing magnitude and angle: floats, or arrays of one
    shape holding one Gaussian state per entry."""

    x0: float
    p0: float
    r: float
    theta: float


def covariance_from_params(g):
    """Covariance entries (sxx, sxp, spp) of the pure Gaussian state."""
    e_minus = np.exp(-2 * g.r)
    e_plus = 1 / e_minus
    cos, sin = np.cos(g.theta), np.sin(g.theta)
    cos2, sin2 = cos**2, sin**2
    sxx = 0.5 * (e_minus * cos2 + e_plus * sin2)
    sxp = 0.5 * (e_minus - e_plus) * sin * cos
    spp = 0.5 * (e_minus * sin2 + e_plus * cos2)
    return sxx, sxp, spp


def gaussian_expectation(g, u):
    """<O_GKP(u)> = 2 - R on the pure Gaussian state g, where R is the
    six-term characteristic-function sum.

    u is one Bloch vector, checked here, or an already-checked (..., 3)
    stack that broadcasts against the fields of g.

    Each quadrature q in (x, x - p, p) with variance s and mean a enters as
    e^(-pi s / 2) cos(sqrt(pi) a) and e^(-2 pi s) cos(2 sqrt(pi) a); the
    second pair is the fourth power and 2 cos^2 - 1 of the first, so one
    stacked exp and one stacked cos serve all six terms.
    """
    u = np.asarray(u, dtype=float)
    if u.ndim < 2:
        u = check_unit(u)
    sxx, sxp, spp = covariance_from_params(g)
    # rows: the variances, then the means, of x, x - p and p
    damp = np.exp(-0.5 * math.pi * np.array((sxx, sxx - 2 * sxp + spp, spp)))
    wave = np.cos(SQRT_PI * np.array((g.x0, g.x0 - g.p0, g.p0)))
    double = (damp**2) ** 2 * (2 * wave**2 - 1)
    single = damp * wave
    return 2.0 - (
        (double[0] + double[1] + double[2]) / 3.0
        + u[..., 2] * single[0] + u[..., 1] * single[1] + u[..., 0] * single[2]
    )


def gaussian_bound(u):
    """Analytic Gaussian minimum of <O_GKP(u)>: 5/3 - max|u_i|."""
    u = check_unit(u)
    return 5.0 / 3.0 - float(np.max(np.abs(u)))


def squeezed_vacuum_fock(r, cutoff):
    """Fock amplitudes of a squeezed vacuum (theta = 0), for cross-checks.

    c_2n = (sech r)^(1/2) (-tanh r)^n sqrt((2n)!) / (2^n n!); squeezing with
    r > 0 reduces Var(x).
    """
    amps = np.zeros(cutoff, dtype=complex)
    amps[0] = math.sqrt(1 / math.cosh(r))
    t = math.tanh(r)
    for n in range(1, (cutoff - 1) // 2 + 1):
        # ratio c_2n / c_(2n-2) = -tanh(r) * sqrt((2n-1)/(2n))
        amps[2 * n] = amps[2 * n - 2] * (-t) * math.sqrt((2 * n - 1) / (2 * n))
    return amps / np.linalg.norm(amps)


def _start_grid():
    thetas = (0.0, -math.pi / 4, math.pi / 4, math.pi / 2)
    shifts = (0.0, 0.5 * SQRT_PI, SQRT_PI)
    rs = (0.0, 2.0, 5.0)
    return np.array(list(product(shifts, shifts, rs, thetas)))


@dataclass(frozen=True)
class NelderMeadResult:
    x: np.ndarray  # (lanes, dim) best vertex of each lane's last simplex
    fun: np.ndarray  # (lanes,) its value
    nfev: int  # evaluations, summed over lanes


def minimize(objective, x0, xatol, fatol, maxiter):
    """Nelder-Mead (Comput. J. 7, 308 (1965)) on every row of x0 at once.

    Each row of x0, shape (lanes, dim), is one lane that steps exactly as the
    reference `_minimize_neldermead` (non-adaptive) would on it alone: same
    initial simplex, coefficients, convergence test and at most maxiter - 1
    iterations, with a stable sort, evaluating only the points it evaluates.
    objective(points, lanes) returns the values at points, shape (n, dim),
    whose row i belongs to lane lanes[i]. A simplex never drops its best
    vertex and the stable sort keeps the earliest of equal values first, so
    fun is the lowest value a lane ever evaluated and x the first point there.
    """
    rho, chi, psi, sigma = 1, 2, 0.5, 0.5
    x0 = np.asarray(x0, dtype=float)
    count, dim = x0.shape
    sim = np.repeat(x0[:, None, :], dim + 1, axis=1)
    for k in range(dim):
        sim[:, k + 1, k] = np.where(x0[:, k] != 0, (1 + 0.05) * x0[:, k], 0.00025)
    lanes = np.arange(count)
    fsim = objective(sim.reshape(-1, dim), np.repeat(lanes, dim + 1)).reshape(count, -1)
    nfev = fsim.size
    x, fun = np.empty_like(x0), np.empty(count)
    for iteration in range(maxiter):
        rows = np.arange(lanes.size)[:, None]
        order = np.argsort(fsim, axis=1, kind="stable")
        sim, fsim = sim[rows, order], fsim[rows, order]
        stop = (np.abs(sim[:, 1:] - sim[:, :1]).max(axis=(1, 2)) <= xatol) & (
            np.abs(fsim[:, :1] - fsim[:, 1:]).max(axis=1) <= fatol
        )
        if iteration == maxiter - 1:
            stop[:] = True
        x[lanes[stop]], fun[lanes[stop]] = sim[stop, 0], fsim[stop, 0]
        lanes, sim, fsim = lanes[~stop], sim[~stop], fsim[~stop]
        if not lanes.size:
            break
        xbar = sim[:, 0]
        for k in range(1, dim):
            xbar = xbar + sim[:, k]
        xbar = xbar / dim
        worst = sim[:, -1]
        new_x = (1 + rho) * xbar - rho * worst
        new_f = objective(new_x, lanes)
        expand = new_f < fsim[:, 0]
        contract = ~expand & ~(new_f < fsim[:, -2])
        outside = contract & (new_f < fsim[:, -1])
        # one second point per lane that needs one: a * xbar - b * worst is
        # the expansion, the outside or the inside contraction
        second = np.flatnonzero(expand | contract)
        a = np.where(expand, 1 + rho * chi, np.where(outside, 1 + psi * rho, 1 - psi))
        b = np.where(expand, rho * chi, np.where(outside, psi * rho, -psi))
        x2 = a[second, None] * xbar[second] - b[second, None] * worst[second]
        f2 = objective(x2, lanes[second])
        nfev += lanes.size + second.size
        take = np.where(
            expand[second],
            f2 < new_f[second],
            np.where(outside[second], f2 <= new_f[second], f2 < fsim[second, -1]),
        )
        new_x[second[take]], new_f[second[take]] = x2[take], f2[take]
        shrink = second[~take & ~expand[second]]
        kept = np.ones(lanes.size, dtype=bool)
        kept[shrink] = False
        sim[kept, -1], fsim[kept, -1] = new_x[kept], new_f[kept]
        if shrink.size:
            best = sim[shrink, :1]
            sim[shrink, 1:] = best + sigma * (sim[shrink, 1:] - best)
            fsim[shrink, 1:] = objective(
                sim[shrink, 1:].reshape(-1, dim), np.repeat(lanes[shrink], dim)
            ).reshape(-1, dim)
            nfev += dim * shrink.size
    return NelderMeadResult(x=x, fun=fun, nfev=nfev)


def minimize_over_gaussians(targets, budget, seed=0):
    """Multi-start Nelder-Mead minimization of <O_GKP(u)> over pure Gaussians,
    for each Bloch vector u of the (T, 3) stack targets.

    The starts, the 108 points of _start_grid() and budget - 108 seeded
    draws, are each one lane per target of a single lockstep `minimize`.
    The squeezing magnitude is clipped to [-R_MAX, R_MAX] inside the
    objective, standing in for the infinite-squeezing limit. Returns, per
    target, the best value seen across every objective evaluation of every
    start (ties go to the lowest start) with the corresponding parameters: a
    (T,) array and GaussianPureParams whose fields have shape (T,).
    """
    targets = np.array([check_unit(t) for t in targets])
    grid = _start_grid()
    if budget < len(grid):
        raise InvalidArgumentError(f"budget must be >= {len(grid)}, got {budget}")
    low, high = (0, 0, 0, -math.pi / 2), (2 * SQRT_PI, 2 * SQRT_PI, R_MAX, math.pi / 2)
    rng = np.random.default_rng(seed)
    drawn = rng.uniform(low, high, size=(budget - len(grid), 4))
    starts = np.concatenate((grid, drawn))

    def params(points):
        x0, p0, r, theta = points.T
        return GaussianPureParams(x0, p0, np.clip(r, -R_MAX, R_MAX), theta)

    u_of_lane = np.repeat(targets, budget, axis=0)
    result = minimize(
        lambda points, lanes: gaussian_expectation(params(points), u_of_lane[lanes]),
        np.tile(starts, (len(targets), 1)), xatol=1e-7, fatol=1e-10, maxiter=2000,
    )
    best = np.argmin(result.fun.reshape(-1, budget), axis=1)
    best += budget * np.arange(len(targets))
    return result.fun[best], params(result.x[best])
