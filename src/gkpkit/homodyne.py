"""Simulated homodyne detection and the three-quadrature witness estimator.

The rotated quadrature is x_theta = x cos(theta) + p sin(theta); its
wavefunction is obtained by multiplying Fock amplitudes with e^(-i n theta)
and expanding in Hermite functions with vacuum variance 1/2.  Sampling all
six cosine moments of O_GKP(u) needs only the angles 0, pi/2 and -pi/4.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidArgumentError, NumericalFailureError
from .operators import SQRT_PI, check_unit

SQRT_2PI = math.sqrt(2 * math.pi)
_RESCALE = 1e150

MEASUREMENT_ANGLES = (0.0, math.pi / 2, -math.pi / 4)
DEFAULT_GRID_POINTS = 4096


@dataclass
class WitnessEstimate:
    value: float
    std_error: float
    per_term: tuple  # six (moment, std_error) pairs


def wavefunction(state, points):
    """Quadrature wavefunction sum_n c_n phi_n(t) at points of any shape.

    phi_n are the Hermite functions with vacuum variance 1/2.  A single
    recurrence in n runs over all points and accumulates the sum as it goes,
    so the (levels x points) basis is never stored.  The factor e^(-t^2/2) is
    held apart as a per-point logarithm and points whose recurrence values
    grow large are rescaled every 16 steps, so neither the Gaussian
    underflows nor the polynomial part overflows, even far outside the
    classically allowed region.
    """
    state = np.asarray(state, dtype=complex)
    t = np.asarray(points, dtype=float)
    log_scale = -0.5 * t**2
    prev = np.zeros(t.shape)
    cur = np.full(t.shape, np.pi ** (-0.25))
    acc = state[0] * cur
    for n in range(1, state.size):
        nxt = (math.sqrt(2.0 / n) * t) * cur
        nxt -= math.sqrt((n - 1) / n) * prev
        prev, cur = cur, nxt
        acc += state[n] * cur
        if n % 16 == 0:
            big = np.abs(cur) > _RESCALE
            if big.any():
                shrink = np.where(big, 1 / _RESCALE, 1.0)
                cur *= shrink
                prev *= shrink
                acc *= shrink
                log_scale[big] += math.log(_RESCALE)
    # rescaled points hold a large acc and a log_scale below the exp range
    half = np.exp(0.5 * log_scale)
    return acc * half * half


def support_half_width(state):
    """Half-width sqrt(2 n_max) + 5 of the classically allowed region plus tails,
    where n_max is the highest level with amplitude above 1e-8."""
    state = np.asarray(state)
    occupied = np.nonzero(np.abs(state) > 1e-8)[0]
    n_max = int(occupied[-1]) if occupied.size else 0
    return math.sqrt(2 * n_max) + 5


def default_grid(state):
    """Grid spanning the classically allowed region of the state plus tails."""
    half_width = support_half_width(state)
    return np.linspace(-half_width, half_width, DEFAULT_GRID_POINTS)


def rotated_wavefunction(state, angle, grid):
    """Wavefunction of the state in the x_angle quadrature representation."""
    state = np.asarray(state, dtype=complex)
    grid = np.asarray(grid, dtype=float)
    if grid.size < 2 or not np.isfinite(grid).all() or np.any(np.diff(grid) <= 0):
        raise InvalidArgumentError("grid must be finite and strictly increasing")
    if not np.isfinite(state).all():  # NaN would pass the mass check below
        raise InvalidArgumentError("state must be finite")
    rotated = state * np.exp(-1j * angle * np.arange(state.size))
    psi = wavefunction(rotated, grid)
    mass = np.trapezoid(np.abs(psi) ** 2, grid)
    if mass < 1 - 1e-6:
        raise NumericalFailureError(
            f"grid captures only {mass:.8f} of the probability mass",
            captured_mass=float(mass),
        )
    return psi


def _check_count(count):
    if count < 2:  # one sample has no sample variance
        raise InvalidArgumentError(
            f"each quadrature needs at least 2 samples, got {count}"
        )


def sample_quadrature(state, angle, count, seed):
    """count homodyne outcomes at the angle, drawn by inverse-CDF sampling on
    default_grid from a generator seeded with seed."""
    _check_count(count)
    grid = default_grid(state)
    psi = rotated_wavefunction(state, angle, grid)
    pdf = np.abs(psi) ** 2
    dx = np.diff(grid)
    # cumulative trapezoid, normalized
    cdf = np.concatenate(([0.0], np.cumsum(0.5 * dx * (pdf[1:] + pdf[:-1]))))
    cdf /= cdf[-1]
    uniform = np.random.default_rng(seed).random(count)
    order = np.argsort(uniform)  # np.interp searches on from its last hit
    outcomes = np.empty(count)
    outcomes[order] = np.interp(uniform[order], cdf, grid)
    return outcomes


def measure_quadratures(state, count, seed):
    """The (3, count) homodyne outcomes of the witness: row k holds count
    outcomes at MEASUREMENT_ANGLES[k], drawn with seed + k."""
    return np.array([
        sample_quadrature(state, angle, count, seed + k)
        for k, angle in enumerate(MEASUREMENT_ANGLES)
    ])


def estimate_witness(samples, u):
    """Estimate <O_GKP(u)> from a (3, count) array of homodyne outcomes.

    Row k of samples holds the outcomes at MEASUREMENT_ANGLES[k]
    (`measure_quadratures` draws them from a Fock state).  The standard
    error combines per-row variances of the assembled integrand; the three
    rows are independent.
    """
    u = check_unit(u)
    samples = np.asarray(samples, dtype=float)
    if samples.ndim != 2 or samples.shape[0] != 3:
        raise InvalidArgumentError(
            f"samples must have shape (3, count), got {samples.shape}"
        )
    count = samples.shape[1]
    _check_count(count)
    if not np.isfinite(samples).all():
        raise InvalidArgumentError("samples must be finite")

    # cos(f q) and cos(2 f q) per row: f = sqrt(pi) on x (the u_z term) and p
    # (u_x), sqrt(2 pi) on x_(-pi/4) = (x - p) / sqrt(2) (u_y)
    freq = np.array([[SQRT_PI], [SQRT_PI], [SQRT_2PI]])
    single = np.cos(freq * samples)
    double = np.cos(2 * freq * samples)
    stats = [(m.mean(axis=1), m.std(axis=1, ddof=1) / math.sqrt(count))
             for m in (single, double)]
    # the integrand overwrites double: one (3, count) array fewer at the peak
    combined = np.divide(double, 3.0, out=double)
    combined += u[[2, 0, 1], None] * single
    return WitnessEstimate(
        value=2.0 - float(combined.mean(axis=1).sum()),
        std_error=math.sqrt(float((combined.var(axis=1, ddof=1) / count).sum())),
        per_term=tuple(
            (float(mean[k]), float(error[k])) for k in range(3) for mean, error in stats
        ),
    )
