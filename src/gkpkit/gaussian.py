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
    """<O_GKP(u)> = 2 - R on the pure Gaussian state g, for one Bloch vector u,
    checked here, or an already-checked (..., 3) stack that broadcasts against
    the fields of g. Quadrature q in (x, x - p, p), with variance v and mean a,
    adds w_q e^(-pi v / 2) cos(sqrt(pi) a) + e^(-2 pi v) cos(2 sqrt(pi) a) / 3
    to R, where w = (u_z, u_y, u_x).
    """
    u = np.asarray(u, dtype=float)
    if u.ndim < 2:
        u = check_unit(u)
    sxx, sxp, spp = covariance_from_params(g)
    damp = np.exp(-0.5 * math.pi * np.stack((sxx, sxx - 2 * sxp + spp, spp), axis=-1))
    wave = np.cos(SQRT_PI * np.stack((g.x0, g.x0 - g.p0, g.p0), axis=-1))
    terms = u[..., ::-1] * damp * wave + (damp**2) ** 2 * (2 * wave**2 - 1) / 3
    return 2.0 - terms.sum(axis=-1)


def expectation_derivatives(g, u):
    """Gradient (..., 4) and Hessian (..., 4, 4) of gaussian_expectation in
    (x0, p0, r, theta), for an already-checked u.

    Each term of R is Re(a e^z), z = -lam v + i mu mean: its gradient is
    Re(a e^z z'), its Hessian Re(a e^z (z' z'^T + z'')). The variances are
    m (c + s phi), m = (1/2, 1, 1/2), c = cosh 2r, s = sinh 2r, phi =
    -cos(2 theta + (0, pi/2, pi)); r-derivatives are 0 where |r| >= R_MAX.
    This form cancels at the clip, so the values keep covariance_from_params.
    """
    c, s = np.cosh(2 * g.r)[..., None], np.sinh(2 * g.r)[..., None]
    angle = np.add.outer(2 * g.theta, (0, math.pi / 2, math.pi))
    phi, dphi = -np.cos(angle), 2 * np.sin(angle)
    free, m = np.abs(g.r)[..., None] < R_MAX, np.array((0.5, 1, 0.5))
    var, phase = m * (c + s * phi), SQRT_PI * np.stack((g.x0, g.x0 - g.p0, g.p0), axis=-1)
    damp = np.exp(-0.5 * math.pi * var)
    # gradients of the means and the variances in (x0, p0, r, theta)
    means = np.array(((1.0, 0, 0, 0), (1, -1, 0, 0), (0, 1, 0, 0)))
    dv = np.zeros(var.shape + (4,))
    dv[..., 2], dv[..., 3] = 2 * m * (s + c * phi) * free, m * s * dphi
    # a e^z per quadrature and term, (..., 3, 2): single and double terms
    lam, mu = np.array((0.5, 2)) * math.pi, np.array((1, 2)) * SQRT_PI
    e = np.stack((u[..., ::-1] * damp * np.exp(1j * phase),
                  (damp**2) ** 2 / 3 * np.exp(2j * phase)), axis=-1)
    re, cross = e.real, (e.imag @ (lam * mu))[..., None]
    grad = ((re @ lam)[..., None] * dv + (e.imag @ mu)[..., None] * means).sum(axis=-2)
    hess = -np.swapaxes(dv, -1, -2) @ ((re @ lam**2)[..., None] * dv + cross * means)
    hess -= means.T @ (cross * dv - (re @ mu**2)[..., None] * means)
    mixed = 2 * m * c * dphi * free  # then each variance's own Hessian
    curv = np.array(((4 * var * free, mixed), (mixed, -4 * m * s * phi)))
    hess[..., 2:, 2:] += np.einsum("...k,ij...k->...ij", re @ lam, curv)
    return grad, hess


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


# lanes that `minimize` steps together: a block's trials and the objective's
# temporaries take a few MB whatever the number of lanes
BLOCK_LANES = 1024


@dataclass(frozen=True)
class NewtonResult:
    x: np.ndarray  # (lanes, dim) last point each lane accepted
    fun: np.ndarray  # (lanes,) its value, the lowest the lane accepted
    nfev: int  # points where the value or the derivatives were taken, over all lanes


def minimize(objective, derivatives, x0):
    """Damped Newton (Levenberg-Marquardt style: Marquardt, J. SIAM 11, 431
    (1963)) on every row of x0, shape (lanes, dim), at once.

    objective(points, lanes) returns the values at points, shape (n, dim), whose
    row i belongs to lane lanes[i]; derivatives(points, lanes) returns their
    gradients g and Hessians H. A lane keeps f, the value at its start or at the
    last point it accepted. Per iteration it takes g and H at that point, then
    f at the steps -(H+ + d)^-1 g for the dampings d = 0, 1e-6, 1e-4, 1e-2, 1
    and 100, where H+ is H with its eigenvalues floored at 0 and the inverse is
    a pseudo-inverse, and at the gradient step -g. It moves to its best trial
    only if that lowers f, and stops when none does, when the drop is below
    1e-13 or after 60 iterations.
    """
    ftol, maxiter = 1e-13, 60
    dampings = np.array([0, 1e-6, 1e-4, 1e-2, 1, 100])[:, None]
    x = np.array(x0, dtype=float)
    count, dim = x.shape
    fun, nfev = np.empty(count), count
    for first in range(0, count, BLOCK_LANES):
        lanes = np.arange(first, min(first + BLOCK_LANES, count))
        fun[lanes] = objective(x[lanes], lanes)
        for _ in range(maxiter):
            live, centre = x[lanes], fun[lanes]
            grad, hess = derivatives(live, lanes)
            w, v = np.linalg.eigh(hess)
            # the floor makes every Newton step a descent direction; eigenvalues
            # that underflow at the squeezing clip count as 0, not as 1/tiny
            shifted = np.maximum(w, 0)[:, None, :] + dampings
            scale = np.divide(1, shifted, out=np.zeros_like(shifted), where=shifted > 1e-200)
            # -V diag(scale) V^T g, one row per damping, then -g
            coef = scale * (v * grad[:, :, None]).sum(axis=1)[:, None, :]
            newton = -(v[:, None] * coef[:, :, None, :]).sum(axis=3)
            trials = live[:, None] + np.concatenate((newton, -grad[:, None]), axis=1)
            ft = objective(trials.reshape(-1, dim), np.repeat(lanes, trials.shape[1]))
            ft = ft.reshape(lanes.size, -1)
            nfev += lanes.size + ft.size
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
    with its parameters, x0, p0 in [0, 2 sqrt(pi)) and theta in [-pi/2, pi/2):
    a (T,) array and GaussianPureParams whose fields have shape (T,).
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
        lambda points, lanes: expectation_derivatives(params(points), u_of_lane[lanes]),
        np.tile(starts, (len(targets), 1)),
    )
    best = np.argmin(result.fun.reshape(-1, budget), axis=1)
    best += budget * np.arange(len(targets))
    # periods 2 sqrt(pi) in x0 and p0 and pi in theta: the argmin goes back to
    # the box of the draws, however far a lane drifted where terms underflow
    x, box = result.x[best], [0, 1, 3]
    width = np.subtract(high, low)[box]
    reduced = np.mod(x[:, box] - np.take(low, box), width)
    x[:, box] = np.take(low, box) + np.where(reduced < width, reduced, 0)
    return result.fun[best], params(x)
