"""GKP stabilizers, target operators O_GKP(u) and analytic complements.

All operators are exact truncations of their infinite-dimensional
counterparts, built from closed-form displacement matrix elements.  The
stabilizers are displacements:

    X = e^(-i p sqrt(pi))          = D(sqrt(pi/2))
    Z = e^(+i x sqrt(pi))          = D(i sqrt(pi/2))
    Y = i X Z = e^(i sqrt(pi)(x-p)) = D(sqrt(pi/2) (1+i))
"""

import math
import threading
from collections import namedtuple

import numpy as np

from .errors import InvalidArgumentError
from .fock import displacement_matrix, exp_of_quadrature, hermitize

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
    if which not in _STABILIZER_ALPHA:
        raise InvalidArgumentError(f"unknown stabilizer {which!r}")
    return displacement_matrix(_STABILIZER_ALPHA[which], cutoff)


def _operator_set(cutoff):
    comps = np.empty((4, cutoff, cutoff), dtype=complex)
    for k, which in enumerate("XYZ", start=1):
        comps[k] = hermitize(displacement_matrix(_STABILIZER_ALPHA[which], cutoff))
    cos2 = sum(
        hermitize(displacement_matrix(2 * _STABILIZER_ALPHA[w], cutoff)) for w in "XYZ"
    )
    comps[0] = np.eye(cutoff) - cos2 / 3.0 + np.eye(cutoff)
    comps.flags.writeable = False
    return comps


_CacheInfo = namedtuple("CacheInfo", "hits misses")


class _OperatorSets:
    """build_operator_set(cutoff): the read-only (4, N, N) array
    C = (O_1 + 1, O_x, O_y, O_z) of exact N-level truncations, so that
    O_GKP(u) = C[0] - u . C[1:].

    O_1 = 1 - (1/3)[cos(2 sqrt(pi) p) + cos(2 sqrt(pi)(x-p)) + cos(2 sqrt(pi) x)]
    O_x = cos(sqrt(pi) p), O_y = cos(sqrt(pi)(x-p)), O_z = cos(sqrt(pi) x),
    each cosine realized as the Hermitian part of the corresponding truncated
    displacement (squared stabilizers for O_1, single ones for the rest).

    Every entry of a displacement matrix is independent of the cutoff, so
    the set at N is, bit for bit, the leading (4, N, N) block of the set at
    any larger cutoff. The largest set built so far is kept and smaller
    cutoffs get views of it: a sweep, which asks for its largest cutoff
    first, builds once. cache_info() counts hits and misses as
    functools.lru_cache's does.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._largest = None
        self._hits = self._misses = 0

    def __call__(self, cutoff):
        if cutoff < 2:
            raise InvalidArgumentError(f"cutoff must be >= 2, got {cutoff}")
        with self._lock:
            if self._largest is None or self._largest.shape[1] < cutoff:
                self._largest = _operator_set(cutoff)
                self._misses += 1
            else:
                self._hits += 1
            return self._largest[:, :cutoff, :cutoff]

    def cache_info(self):
        with self._lock:
            return _CacheInfo(self._hits, self._misses)


build_operator_set = _OperatorSets()


def check_unit(u):
    u = np.asarray(u, dtype=float)
    if u.shape != (3,):
        raise InvalidArgumentError(f"Bloch vector must have 3 components, got {u.shape}")
    norm = np.linalg.norm(u)
    if not abs(norm - 1.0) <= 1e-9:
        raise InvalidArgumentError(f"Bloch vector must be unit length, |u| = {norm}")
    return u


def gkp_operator(u, cutoff):
    """Truncated target operator O_GKP(u) = O_1 + 1 - (ux Ox + uy Oy + uz Oz)."""
    u = check_unit(u)
    comps = build_operator_set(cutoff)
    return comps[0] - (u[0] * comps[1] + u[1] * comps[2] + u[2] * comps[3])


def reduced_zero_operator(cutoff):
    """The reduced target 2 sin^2(sqrt(pi) x) + 2 sin^2(sqrt(pi) p / 2).

    Equals 2 - cos(2 sqrt(pi) x) - cos(sqrt(pi) p), truncated exactly; its
    ground state coincides with that of gkp_operator((1,0,0)).
    """
    if cutoff < 2:
        raise InvalidArgumentError(f"cutoff must be >= 2, got {cutoff}")
    cos_2x = hermitize(displacement_matrix(2 * _STABILIZER_ALPHA["Z"], cutoff))
    cos_p = hermitize(displacement_matrix(_STABILIZER_ALPHA["X"], cutoff))
    return 2 * np.eye(cutoff) - cos_2x - cos_p


# Closed-form complements O_GKP(u) - O_1 = 1 - sum w cos(sqrt(pi)(cx x + cp p))
# of five core states, as (w, cx, cp) terms keyed by bloch.core_states labels:
# 0L -> 2 sin^2(sqrt(pi) x / 2), 1L -> 2 cos^2(sqrt(pi) x / 2), +L / -L -> the
# p-quadrature analogues, H+x+y -> 1 - [cos(sqrt(pi) p) + cos(sqrt(pi)(x - p))]/sqrt(2).
_COMPLEMENT_TERMS = {
    "0L": ((1.0, 1, 0),),
    "1L": ((-1.0, 1, 0),),
    "+L": ((1.0, 0, 1),),
    "-L": ((-1.0, 0, 1),),
    "H+x+y": ((1 / math.sqrt(2), 0, 1), (1 / math.sqrt(2), 1, -1)),
}


def analytic_complement(label, cutoff):
    """Closed-form complement O_GKP(u) - O_1 of a core state, built spectrally."""
    if label not in _COMPLEMENT_TERMS:
        raise InvalidArgumentError(f"no analytic complement for target {label!r}")
    out = np.eye(cutoff, dtype=complex)
    for weight, cx, cp in _COMPLEMENT_TERMS[label]:
        out -= weight * hermitize(exp_of_quadrature(cx, cp, SQRT_PI, cutoff))
    return out
