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
class QuadratureSamples:
    angle: float
    values: np.ndarray
    seed: int


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
    if grid.size < 2 or np.any(np.diff(grid) <= 0):
        raise InvalidArgumentError("grid must be strictly increasing")
    rotated = state * np.exp(-1j * angle * np.arange(state.size))
    psi = wavefunction(rotated, grid)
    mass = np.trapezoid(np.abs(psi) ** 2, grid)
    if mass < 1 - 1e-6:
        raise NumericalFailureError(
            f"grid captures only {mass:.8f} of the probability mass",
            captured_mass=float(mass),
        )
    return psi


def sample_quadrature(state, angle, count, seed):
    """Draw homodyne outcomes at the angle by inverse-CDF sampling on default_grid."""
    if count < 1:
        raise InvalidArgumentError(f"count must be >= 1, got {count}")
    grid = default_grid(state)
    psi = rotated_wavefunction(state, angle, grid)
    pdf = np.abs(psi) ** 2
    dx = np.diff(grid)
    # cumulative trapezoid, normalized
    cdf = np.concatenate(([0.0], np.cumsum(0.5 * dx * (pdf[1:] + pdf[:-1]))))
    cdf /= cdf[-1]
    rng = np.random.default_rng(seed)
    uniforms = rng.random(count)
    values = np.interp(uniforms, cdf, grid)
    return QuadratureSamples(angle=angle, values=values, seed=seed)


def estimate_witness(state_or_samples, u, count_per_quadrature=100_000, seed=0):
    """Estimate <O_GKP(u)> from three sets of homodyne samples.

    Accepts either a Fock state (sampled internally with seeds seed, seed+1,
    seed+2 at angles 0, pi/2, -pi/4) or a sequence of three QuadratureSamples
    at those angles.  The standard error combines per-sample-set variances of
    the assembled integrand; the three sets are independent.
    """
    u = check_unit(u)
    given = isinstance(state_or_samples, (list, tuple)) and isinstance(
        state_or_samples[0], QuadratureSamples
    )
    if given:
        by_angle = {round(s.angle, 12): s for s in state_or_samples}
        try:
            samples = [by_angle[round(a, 12)] for a in MEASUREMENT_ANGLES]
        except KeyError as exc:
            raise InvalidArgumentError(
                f"samples must cover angles {MEASUREMENT_ANGLES}"
            ) from exc
    count = min(s.values.size for s in samples) if given else count_per_quadrature
    if count < 2:  # one sample has no sample variance
        raise InvalidArgumentError(
            f"each quadrature needs at least 2 samples, got {count}"
        )
    if not given:
        state = np.asarray(state_or_samples, dtype=complex)
        samples = [
            sample_quadrature(state, angle, count, seed + i)
            for i, angle in enumerate(MEASUREMENT_ANGLES)
        ]

    # (samples, single-frequency, Bloch coefficient); x - p = sqrt(2) x_(-pi/4)
    setup = [
        (samples[0].values, SQRT_PI, u[2]),  # cos(sqrt(pi) x) terms
        (samples[1].values, SQRT_PI, u[0]),  # cos(sqrt(pi) p) terms
        (samples[2].values, SQRT_2PI, u[1]),  # cos(sqrt(pi)(x-p)) terms
    ]
    per_term = []
    total = 0.0
    variance = 0.0
    for vals, freq, coeff in setup:
        single = np.cos(freq * vals)
        double = np.cos(2 * freq * vals)
        n = vals.size
        per_term.append((float(single.mean()), float(single.std(ddof=1) / math.sqrt(n))))
        per_term.append((float(double.mean()), float(double.std(ddof=1) / math.sqrt(n))))
        combined = double / 3.0 + coeff * single
        total += float(combined.mean())
        variance += float(combined.var(ddof=1) / n)
    return WitnessEstimate(
        value=2.0 - total,
        std_error=math.sqrt(variance),
        per_term=tuple(per_term),
    )
