"""GKP stabilizers, target operators O_GKP(u) and analytic complements.

All operators are exact truncations of their infinite-dimensional
counterparts, built from closed-form displacement matrix elements.  The
stabilizers are displacements:

    X = e^(-i p sqrt(pi))          = D(sqrt(pi/2))
    Z = e^(+i x sqrt(pi))          = D(i sqrt(pi/2))
    Y = i X Z = e^(i sqrt(pi)(x-p)) = D(sqrt(pi/2) (1+i))
"""

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import InvalidArgumentError
from .fock import cosine_of_quadrature, displacement_matrix, hermitize

# the one sqrt(pi) of the package: stabilizer phases and the Gaussian sums
SQRT_PI = math.sqrt(math.pi)

# Displacement amplitude of e^(i(u*x + v*p)) is alpha = (-v + i*u)/sqrt(2).
_STABILIZER_ALPHA = {
    "X": np.sqrt(np.pi / 2),
    "Z": 1j * np.sqrt(np.pi / 2),
    "Y": np.sqrt(np.pi / 2) * (1 + 1j),
}


def stabilizer(which, cutoff):
    """Truncated stabilizer matrix X, Z or Y, each a single displacement."""
    if cutoff < 1:
        raise InvalidArgumentError(f"cutoff must be >= 1, got {cutoff}")
    if which not in _STABILIZER_ALPHA:
        raise InvalidArgumentError(f"unknown stabilizer {which!r}")
    return displacement_matrix(_STABILIZER_ALPHA[which], cutoff)


@dataclass(frozen=True)
class GkpOperatorSet:
    """The four Hermitian building blocks of O_GKP at a fixed cutoff."""

    o1: np.ndarray
    ox: np.ndarray
    oy: np.ndarray
    oz: np.ndarray
    cutoff: int


def _herm_displacement(alpha, cutoff):
    """Exact truncation of cos of the quadrature generating D(alpha)."""
    mat = hermitize(displacement_matrix(alpha, cutoff))
    mat.flags.writeable = False
    return mat


@lru_cache(maxsize=4)  # a sweep builds each cutoff once; keep few sets alive
def build_operator_set(cutoff):
    """O_1 and O_x, O_y, O_z as exact N-level truncations.

    O_1 = 1 - (1/3)[cos(2 sqrt(pi) p) + cos(2 sqrt(pi)(x-p)) + cos(2 sqrt(pi) x)]
    O_x = cos(sqrt(pi) p), O_y = cos(sqrt(pi)(x-p)), O_z = cos(sqrt(pi) x),
    each realized as the Hermitian part of the corresponding truncated
    displacement (squared stabilizers for O_1, single ones for the rest).
    """
    if cutoff < 2:
        raise InvalidArgumentError(f"cutoff must be >= 2, got {cutoff}")
    ox = _herm_displacement(_STABILIZER_ALPHA["X"], cutoff)
    oy = _herm_displacement(_STABILIZER_ALPHA["Y"], cutoff)
    oz = _herm_displacement(_STABILIZER_ALPHA["Z"], cutoff)
    cos2 = sum(
        _herm_displacement(2 * _STABILIZER_ALPHA[w], cutoff) for w in ("X", "Y", "Z")
    )
    # in place: a fresh N x N result here raises a sweep's peak RSS by ~1.4 MB
    o1 = cos2 / 3.0
    np.subtract(np.eye(cutoff), o1, out=o1)
    o1.flags.writeable = False
    return GkpOperatorSet(o1=o1, ox=ox, oy=oy, oz=oz, cutoff=cutoff)


def check_unit(u, tol=1e-9):
    u = np.asarray(u, dtype=float)
    if u.shape != (3,):
        raise InvalidArgumentError(f"Bloch vector must have 3 components, got {u.shape}")
    norm = np.linalg.norm(u)
    if abs(norm - 1.0) > tol:
        raise InvalidArgumentError(f"Bloch vector must be unit length, |u| = {norm}")
    return u


def gkp_operator(u, cutoff):
    """Truncated target operator O_GKP(u) = O_1 + 1 - (ux Ox + uy Oy + uz Oz)."""
    u = check_unit(u)
    ops = build_operator_set(cutoff)
    return ops.o1 + np.eye(cutoff) - (u[0] * ops.ox + u[1] * ops.oy + u[2] * ops.oz)


def reduced_zero_operator(cutoff):
    """The reduced target 2 sin^2(sqrt(pi) x) + 2 sin^2(sqrt(pi) p / 2).

    Equals 2 - cos(2 sqrt(pi) x) - cos(sqrt(pi) p), truncated exactly; its
    ground state coincides with that of gkp_operator((1,0,0)).
    """
    if cutoff < 2:
        raise InvalidArgumentError(f"cutoff must be >= 2, got {cutoff}")
    cos_2x = _herm_displacement(2 * _STABILIZER_ALPHA["Z"], cutoff)
    cos_p = _herm_displacement(_STABILIZER_ALPHA["X"], cutoff)
    return hermitize(2 * np.eye(cutoff) - cos_2x - cos_p)


# Bloch vectors of the five targets with closed-form complements.
TABLE_TARGETS = {
    "0L": (0.0, 0.0, 1.0),
    "1L": (0.0, 0.0, -1.0),
    "+L": (1.0, 0.0, 0.0),
    "-L": (-1.0, 0.0, 0.0),
    "HL": (1 / np.sqrt(2), 1 / np.sqrt(2), 0.0),
}


def analytic_complement(label, cutoff, padding=None):
    """Closed-form complement O_GKP(u) - O_1, built spectrally.

    Known targets: 0L -> 2 sin^2(sqrt(pi) x / 2), 1L -> 2 cos^2(sqrt(pi) x / 2),
    +L / -L -> the p-quadrature analogues, and
    HL -> 1 - [cos(sqrt(pi) p) + cos(sqrt(pi)(x - p))]/sqrt(2).
    """
    eye = np.eye(cutoff)
    if label == "0L":
        return eye - cosine_of_quadrature(1, 0, SQRT_PI, cutoff, padding)
    if label == "1L":
        return eye + cosine_of_quadrature(1, 0, SQRT_PI, cutoff, padding)
    if label == "+L":
        return eye - cosine_of_quadrature(0, 1, SQRT_PI, cutoff, padding)
    if label == "-L":
        return eye + cosine_of_quadrature(0, 1, SQRT_PI, cutoff, padding)
    if label == "HL":
        cos_p = cosine_of_quadrature(0, 1, SQRT_PI, cutoff, padding)
        cos_xp = cosine_of_quadrature(1, -1, SQRT_PI, cutoff, padding)
        return eye - (cos_p + cos_xp) / np.sqrt(2)
    raise InvalidArgumentError(f"no analytic complement for target {label!r}")

