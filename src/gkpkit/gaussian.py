"""Closed-form Gaussian expectation values of O_GKP and the 5/3 - ||u||_inf bound.

A pure single-mode Gaussian state is parametrized by displacements
(x0, p0), squeezing magnitude r and squeezing angle theta; its covariance
matrix then satisfies the purity condition sxx*spp - sxp^2 = 1/4.
"""

import math
from dataclasses import dataclass
from itertools import product

import numpy as np
from scipy.optimize import minimize

from .errors import InvalidArgumentError
from .operators import SQRT_PI, check_unit


@dataclass(frozen=True)
class GaussianPureParams:
    x0: float
    p0: float
    r: float
    theta: float


def covariance_from_params(g):
    """Covariance entries (sxx, sxp, spp) of the pure Gaussian state."""
    e_minus = math.exp(-2 * g.r)
    e_plus = math.exp(2 * g.r)
    cos2 = math.cos(g.theta) ** 2
    sin2 = math.sin(g.theta) ** 2
    sxx = 0.5 * (e_minus * cos2 + e_plus * sin2)
    sxp = 0.25 * (e_minus - e_plus) * math.sin(2 * g.theta)
    spp = 0.5 * (e_minus * sin2 + e_plus * cos2)
    return sxx, sxp, spp


def variance_x_minus_p(g):
    """Var(x - p) = sxx - 2 sxp + spp."""
    sxx, sxp, spp = covariance_from_params(g)
    return sxx - 2 * sxp + spp


def gaussian_R(g, u):
    """The six-term characteristic-function sum R; <O_GKP> = 2 - R."""
    u = check_unit(u)
    sxx, sxp, spp = covariance_from_params(g)
    var_xp = sxx - 2 * sxp + spp
    x0, p0 = g.x0, g.p0
    double = (
        math.exp(-2 * sxx * math.pi) * math.cos(2 * SQRT_PI * x0)
        + math.exp(-2 * math.pi * var_xp) * math.cos(2 * SQRT_PI * (x0 - p0))
        + math.exp(-2 * spp * math.pi) * math.cos(2 * SQRT_PI * p0)
    ) / 3.0
    single = (
        u[2] * math.exp(-0.5 * math.pi * sxx) * math.cos(SQRT_PI * x0)
        + u[1] * math.exp(-0.5 * math.pi * var_xp) * math.cos(SQRT_PI * (x0 - p0))
        + u[0] * math.exp(-0.5 * math.pi * spp) * math.cos(SQRT_PI * p0)
    )
    return double + single


def gaussian_expectation(g, u):
    """<O_GKP(u)> on the pure Gaussian state g."""
    return 2.0 - gaussian_R(g, u)


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
    return [
        np.array(start)
        for start in product(shifts, shifts, rs, thetas)
    ]


def minimize_over_gaussians(u, budget=400, seed=0, r_max=6.0):
    """Multi-start Nelder-Mead minimization of <O_GKP(u)> over pure Gaussians.

    The squeezing magnitude is clipped to [-r_max, r_max] inside the
    objective, standing in for the infinite-squeezing limit.  Returns the
    best value seen across every objective evaluation of every start, with
    the corresponding parameters.
    """
    u = check_unit(u)
    if budget < 100:
        raise InvalidArgumentError(f"budget must be >= 100, got {budget}")
    best = {"value": math.inf, "params": None}

    def objective(vec):
        g = GaussianPureParams(
            x0=float(vec[0]),
            p0=float(vec[1]),
            r=float(np.clip(vec[2], -r_max, r_max)),
            theta=float(vec[3]),
        )
        val = gaussian_expectation(g, u)
        if val < best["value"]:
            best["value"] = val
            best["params"] = g
        return val

    starts = _start_grid()
    rng = np.random.default_rng(seed)
    while len(starts) < budget:
        starts.append(
            np.array(
                [
                    rng.uniform(0, 2 * SQRT_PI),
                    rng.uniform(0, 2 * SQRT_PI),
                    rng.uniform(0, r_max),
                    rng.uniform(-math.pi / 2, math.pi / 2),
                ]
            )
        )
    if len(starts) > budget:
        starts.sort(key=objective)
        starts = starts[:budget]
    for start in starts:
        minimize(
            objective,
            start,
            method="Nelder-Mead",
            options={"xatol": 1e-7, "fatol": 1e-10, "maxiter": 2000},
        )
    return best["value"], best["params"]
