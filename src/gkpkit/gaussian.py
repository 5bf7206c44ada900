"""Closed-form Gaussian expectation values of O_GKP and the 5/3 - ||u||_inf bound.

A pure single-mode Gaussian state is parametrized by displacements
(x0, p0), squeezing magnitude r and squeezing angle theta; its covariance
matrix then satisfies the purity condition sxx*spp - sxp^2 = 1/4.
"""

import math
from dataclasses import dataclass
from itertools import combinations, product

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


# lanes that `minimize` steps together: a block's stencil and the objective's
# temporaries take ~10 MB whatever the number of lanes
BLOCK_LANES = 1024


@dataclass(frozen=True)
class NewtonResult:
    x: np.ndarray  # (lanes, dim) last point each lane accepted
    fun: np.ndarray  # (lanes,) its value, the lowest the lane accepted
    nfev: int  # points evaluated, summed over lanes


def minimize(objective, x0):
    """Damped Newton (Levenberg-Marquardt style: Marquardt, J. SIAM 11, 431
    (1963)) on every row of x0, shape (lanes, dim), at once.

    objective(points, lanes) returns the values at points, shape (n, dim), whose
    row i belongs to lane lanes[i]. A lane keeps f, the value at its start or at
    the last point it accepted. Per iteration one call evaluates each live lane's
    stencil (+-h along each axis and the four corners (+-h, +-h) in each plane of
    two axes, h = 1e-4), whose central differences with f give the gradient g and
    the Hessian H. A second call evaluates the steps -(H+ + d)^-1 g for the
    dampings d = 0, 1e-6, 1e-4, 1e-2, 1 and 100, where H+ is H with its
    eigenvalues floored at 0 and the inverse is a pseudo-inverse, and the
    gradient step -g. A lane moves to its best trial only if that lowers f, and
    stops when none does, when the drop is below 1e-13 or after 60 iterations.
    """
    h, ftol, maxiter = 1e-4, 1e-13, 60
    dampings = np.array([0, 1e-6, 1e-4, 1e-2, 1, 100])[:, None]
    x = np.array(x0, dtype=float)
    count, dim = x.shape
    eye, pairs = h * np.eye(dim), np.array(list(combinations(range(dim), 2))).T
    corners = [s * eye[pairs[0]] + t * eye[pairs[1]] for s, t in product((1, -1), repeat=2)]
    offsets = np.concatenate((eye, -eye, *corners))
    fun, nfev = np.empty(count), count
    for first in range(0, count, BLOCK_LANES):
        lanes = np.arange(first, min(first + BLOCK_LANES, count))
        fun[lanes] = objective(x[lanes], lanes)
        for _ in range(maxiter):
            live, centre = x[lanes], fun[lanes]
            f = objective(
                (live[:, None] + offsets).reshape(-1, dim), np.repeat(lanes, len(offsets))
            ).reshape(lanes.size, -1)
            plus, minus = f[:, :dim], f[:, dim : 2 * dim]
            c = f[:, 2 * dim :].reshape(lanes.size, 4, -1)  # ++, +-, -+, --
            grad = (plus - minus) / (2 * h)
            hess = np.zeros((lanes.size, dim, dim))
            hess[:, range(dim), range(dim)] = (plus - 2 * centre[:, None] + minus) / h**2
            hess[:, pairs[0], pairs[1]] = hess[:, pairs[1], pairs[0]] = (
                c[:, 0] - c[:, 1] - c[:, 2] + c[:, 3]
            ) / (4 * h**2)
            w, v = np.linalg.eigh(hess)
            # the floor makes every Newton step a descent direction
            shifted = np.maximum(w, 0)[:, None, :] + dampings
            scale = np.divide(1, shifted, out=np.zeros_like(shifted), where=shifted > 0)
            # -V diag(scale) V^T g, one row per damping, then -g
            coef = scale * (v * grad[:, :, None]).sum(axis=1)[:, None, :]
            newton = -(v[:, None] * coef[:, :, None, :]).sum(axis=3)
            trials = live[:, None] + np.concatenate((newton, -grad[:, None]), axis=1)
            ft = objective(trials.reshape(-1, dim), np.repeat(lanes, trials.shape[1]))
            ft = ft.reshape(lanes.size, -1)
            nfev += f.size + ft.size
            pick, best = ft.argmin(axis=1), ft.min(axis=1)
            lower = best < centre
            x[lanes[lower]], fun[lanes[lower]] = trials[lower, pick[lower]], best[lower]
            lanes = lanes[lower & (centre - best >= ftol)]
            if not lanes.size:
                break
    return NewtonResult(x=x, fun=fun, nfev=nfev)


def minimize_over_gaussians(targets, budget, seed=0):
    """Multi-start damped-Newton minimization of <O_GKP(u)> over pure
    Gaussians, for each Bloch vector u of the (T, 3) stack targets.

    The starts, the 108 points of _start_grid() and budget - 108 seeded
    draws, are each one lane per target of a single batched `minimize`.
    The squeezing magnitude is clipped to [-R_MAX, R_MAX] inside the
    objective, standing in for the infinite-squeezing limit. Returns, per
    target, the lowest value any start reached (ties go to the lowest start)
    with the corresponding parameters: a (T,) array and GaussianPureParams
    whose fields have shape (T,).
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
        np.tile(starts, (len(targets), 1)),
    )
    best = np.argmin(result.fun.reshape(-1, budget), axis=1)
    best += budget * np.arange(len(targets))
    return result.fun[best], params(result.x[best])
