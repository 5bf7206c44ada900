"""Wigner functions of Fock-amplitude states on a phase-space grid."""

import logging
import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidArgumentError
from .homodyne import wavefunction

log = logging.getLogger(__name__)


@dataclass
class WignerGrid:
    xs: np.ndarray
    ps: np.ndarray
    values: np.ndarray  # shape (len(xs), len(ps)), values[i, j] = W(xs[i], ps[j])

    def mass(self):
        """Trapezoid sum of W over the grid. For a normalized state it differs
        from 1 only when the grid is too narrow or too coarse."""
        return float(
            np.trapezoid(np.trapezoid(self.values, self.ps, axis=1), self.xs)
        )


def wigner(state, xs, ps):
    """Wigner function W(x, p) of a pure state given by Fock amplitudes.

    Wigner-Weyl integral over the quadrature wavefunction psi:

        W(x, p) = (1/pi) int psi*(x + y) psi(x - y) e^(2ipy) dy.

    psi is evaluated at x_i +- y_l by `homodyne.wavefunction`.  The
    integrand f(x, y) = psi*(x + y) psi(x - y) obeys f(x, -y) = conj f(x, y),
    so the trapezoid sum runs over y >= 0 only, with weights 1, 2, 2, ...,
    and W = Re(f) cos(2 y p^T) - Im(f) sin(2 y p^T) is two real matrix
    products.

    y-step rule: an N-level state is negligible beyond the reach
    R = sqrt(2N + 1) + 6 in both quadratures, so y runs over [0, R] in steps
    dy <= pi / (R + max|p|).  The trapezoid sum equals the integral plus
    aliased copies W(x, p - k pi/dy), k != 0, and for every p on the axis
    these sit at momenta |p'| >= R, outside the state's support.

    Lattice: the x-axis must be evenly spaced to round-off with step h
    (every `linspace`, a one-point axis included); any other x-axis raises
    InvalidArgumentError.  dy = h/q with q = ceil(h (R + max|p|)/pi), so
    every x_i +- y_l is a point xs[0] + k dy of one 1-D lattice.  psi is
    evaluated once, at the lattice points within R of some x_i, and
    gathered by index.

    Cost: one N-step Hermite recurrence over at most the smaller of
    (xs[-1] - xs[0])/dy + 2R/dy and len(xs) (2R/dy + 1) points (1243 for
    N = 150 on the 271-point axis [-18, 18]); then two GEMMs of size
    len(xs) x len(ys) x len(ps), where len(ys) ~ R/dy.
    Normalization is such that the integral of W is one and the vacuum peaks
    at exactly 1/pi.
    """
    state = np.asarray(state, dtype=complex)
    xs = np.asarray(xs, dtype=float)
    ps = np.asarray(ps, dtype=float)
    for axis in (xs, ps):
        if axis.size == 0 or not np.isfinite(axis).all() or np.any(np.diff(axis) <= 0):
            raise InvalidArgumentError(
                "grid axes must be non-empty, finite and strictly increasing"
            )
    norm = np.linalg.norm(state)
    if not abs(norm - 1.0) <= 1e-8:
        raise InvalidArgumentError(f"state must be normalized, |psi| = {norm}")
    reach = math.sqrt(2 * state.size + 1) + 6
    max_dy = math.pi / (reach + np.abs(ps).max())
    h = _lattice_step(xs, max_dy)
    q = math.ceil(h / max_dy)
    dy = h / q
    last = math.ceil(reach / dy)
    # x_i +- y_l = xs[0] + (q i +- l) dy.  The windows q i + (-last..last)
    # overlap into one run when q <= 2 last + 1, else lie end to end; entry j
    # of their union is lattice index q (j // stride) + j % stride - last.
    stride = min(q, 2 * last + 1)
    window, rest = np.divmod(np.arange(stride * (xs.size - 1) + 2 * last + 1), stride)
    on_lattice = wavefunction(state, xs[0] + dy * (q * window + rest - last))
    centres = last + stride * np.arange(xs.size)[:, None]
    offsets = np.arange(last + 1)
    weights = np.full(offsets.size, 2 * dy / math.pi)
    weights[0] /= 2
    f = on_lattice[centres + offsets].conj() * on_lattice[centres - offsets] * weights
    arg = 2 * np.multiply.outer(dy * offsets, ps)
    w = f.real @ np.cos(arg) - f.imag @ np.sin(arg)

    grid = WignerGrid(xs=xs, ps=ps, values=w)
    mass = grid.mass()
    if abs(mass - 1.0) > 1e-4:
        log.warning(
            "Wigner grid sum %.6f differs from 1 by %.2e: "
            "the grid is too narrow or too coarse", mass, mass - 1
        )
    return grid


def _lattice_step(xs, max_dy):
    """The step h of an x-axis with xs[i] = xs[0] + i h to round-off (every
    linspace), or max_dy for a one-point axis, which lies on any lattice."""
    if xs.size == 1:
        return max_dy
    h = (xs[-1] - xs[0]) / (xs.size - 1)
    off = np.abs(xs - (xs[0] + h * np.arange(xs.size))).max()
    if off > 4 * np.finfo(float).eps * np.abs(xs).max():
        raise InvalidArgumentError("the x-axis must be evenly spaced")
    return h


def marginal_x(grid):
    """Position marginal: integral of W over p at each x."""
    return np.trapezoid(grid.values, grid.ps, axis=1)
