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
        """Trapezoid integral of W over the grid."""
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
    dy = pi / (R + max|p|).  The trapezoid sum equals the integral plus
    aliased copies W(x, p - k pi/dy), k != 0, and for every p on the axis
    these sit at momenta |p'| >= R, outside the state's support.

    Cost: one N-step Hermite recurrence over 2 len(xs) len(ys) points plus
    two GEMMs of size len(xs) x len(ys) x len(ps), where
    len(ys) ~ R (R + max|p|) / pi.  Normalization is such that the integral
    of W is one and the vacuum peaks at exactly 1/pi.
    """
    state = np.asarray(state, dtype=complex)
    xs = np.asarray(xs, dtype=float)
    ps = np.asarray(ps, dtype=float)
    if np.any(np.diff(xs) <= 0) or np.any(np.diff(ps) <= 0):
        raise InvalidArgumentError("grid axes must be strictly increasing")
    norm = np.linalg.norm(state)
    if abs(norm - 1.0) > 1e-8:
        raise InvalidArgumentError(f"state must be normalized, |psi| = {norm}")
    reach = math.sqrt(2 * state.size + 1) + 6
    dy = math.pi / (reach + np.abs(ps).max(initial=0.0))
    ys = dy * np.arange(math.ceil(reach / dy) + 1)
    # psi[0] = psi(x_i + y_l), psi[1] = psi(x_i - y_l)
    psi = wavefunction(state, xs[:, None] + np.multiply.outer((1.0, -1.0), ys)[:, None])
    weights = np.full(ys.size, 2 * dy / math.pi)
    weights[0] /= 2
    f = psi[0].conj() * psi[1] * weights
    arg = 2 * np.multiply.outer(ys, ps)
    w = f.real @ np.cos(arg) - f.imag @ np.sin(arg)

    grid = WignerGrid(xs=xs, ps=ps, values=w)
    mass = grid.mass()
    if abs(mass - 1.0) > 1e-4:
        log.warning("Wigner grid captures mass %.6f (deficit %.2e)", mass, 1 - mass)
    return grid


def marginal_x(grid):
    """Position marginal: integral of W over p at each x."""
    return np.trapezoid(grid.values, grid.ps, axis=1)
