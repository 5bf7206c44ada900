"""Dense Fock-space linear algebra.

Convention: hbar = 1, [x, p] = i, so x = (a + a^dag)/sqrt(2),
p = i(a^dag - a)/sqrt(2) and the vacuum has Var(x) = Var(p) = 1/2.
Operators are plain complex numpy arrays; states are 1-D complex arrays.
"""

import math

import numpy as np
from numpy.linalg import LinAlgError, eigh

from .errors import InvalidArgumentError, NumericalFailureError

HERMITICITY_TOL = 1e-12


def annihilation(cutoff):
    """Truncated annihilation operator a in the number basis."""
    return np.diag(np.sqrt(np.arange(1, cutoff, dtype=float)), k=1).astype(complex)


def hermitize(matrix):
    """Return (M + M^dag)/2, scrubbing round-off asymmetry."""
    return 0.5 * (matrix + matrix.conj().T)


def check_hermitian(matrix, tol=HERMITICITY_TOL):
    defect = np.max(np.abs(matrix - matrix.conj().T))
    if defect > tol:
        raise InvalidArgumentError(
            f"matrix is not Hermitian (max asymmetry {defect:.3e} > {tol:.1e})"
        )


def quadrature_matrix(coeff_x, coeff_p, cutoff):
    """Matrix of coeff_x * x + coeff_p * p truncated to `cutoff` levels."""
    if cutoff < 2:
        raise InvalidArgumentError(f"cutoff must be >= 2, got {cutoff}")
    if coeff_x == 0 and coeff_p == 0:
        raise InvalidArgumentError("quadrature coefficients must not both vanish")
    a = annihilation(cutoff)
    adag = a.conj().T
    x = (a + adag) / np.sqrt(2)
    p = 1j * (adag - a) / np.sqrt(2)
    return hermitize(coeff_x * x + coeff_p * p)


def _eigh(matrix, failure, **diagnostics):
    """numpy eigh of a Hermitian matrix; a failed solve or a non-finite entry
    raises NumericalFailureError with the given message."""
    diagnostics["dimension"] = matrix.shape[0]
    if not np.all(np.isfinite(matrix)):
        raise NumericalFailureError(
            f"{failure}: non-finite matrix entries", **diagnostics
        )
    try:
        return eigh(matrix)
    except LinAlgError as exc:
        raise NumericalFailureError(failure, **diagnostics) from exc


def _spectral_function(func, coeff_x, coeff_p, scale, cutoff, padding):
    """Apply `func` to scale*(coeff_x*x + coeff_p*p) spectrally, then truncate.

    The function is evaluated in dimension cutoff+padding and the top-left
    cutoff x cutoff block is returned; padding suppresses truncation error
    in the retained block.  Default padding equals the cutoff, which keeps
    the retained block within ~1e-8 of the exact truncation of the
    infinite-dimensional operator.
    """
    if padding is None:
        padding = cutoff
    if padding < 0:
        raise InvalidArgumentError(f"padding must be >= 0, got {padding}")
    dim = cutoff + padding
    evals, evecs = _eigh(
        quadrature_matrix(coeff_x, coeff_p, dim),
        "eigendecomposition of quadrature matrix failed",
        coeff_x=coeff_x,
        coeff_p=coeff_p,
    )
    full = (evecs * func(scale * evals)) @ evecs.conj().T
    return full[:cutoff, :cutoff]


def cosine_of_quadrature(coeff_x, coeff_p, scale, cutoff, padding=None):
    """cos(scale * (coeff_x*x + coeff_p*p)) via padded spectral decomposition."""
    return hermitize(
        _spectral_function(np.cos, coeff_x, coeff_p, scale, cutoff, padding)
    )


def sine_of_quadrature(coeff_x, coeff_p, scale, cutoff, padding=None):
    """sin(scale * (coeff_x*x + coeff_p*p)); companion to cosine_of_quadrature."""
    return hermitize(
        _spectral_function(np.sin, coeff_x, coeff_p, scale, cutoff, padding)
    )


def exp_of_quadrature(coeff_x, coeff_p, scale, cutoff, padding=None):
    """exp(i * scale * (coeff_x*x + coeff_p*p)); unitary before truncation."""
    return _spectral_function(
        lambda phase: np.exp(1j * phase), coeff_x, coeff_p, scale, cutoff, padding
    )


def displacement_matrix(alpha, cutoff):
    """Exact Fock-basis matrix of the displacement operator D(alpha).

    Uses <m|D(alpha)|n> = sqrt(n!/m!) alpha^(m-n) e^(-|alpha|^2/2)
    L_n^(m-n)(|alpha|^2) for m >= n.  Each diagonal k = m - n is generated
    by a three-term Laguerre recurrence in n carried out directly on the
    scaled (bounded-by-one) matrix elements, so there is no overflow even
    for cutoffs of several hundred; one step of the recurrence advances all
    diagonals at once.
    """
    if cutoff < 1:
        raise InvalidArgumentError(f"cutoff must be >= 1, got {cutoff}")
    alpha = complex(alpha)
    if alpha == 0:
        return np.eye(cutoff, dtype=complex)
    mod2 = abs(alpha) ** 2
    log_mod = np.log(abs(alpha))
    phase = alpha / abs(alpha)
    k = np.arange(cutoff)
    # scaled[n, k] = sqrt(n!/(n+k)!) |alpha|^k e^(-|alpha|^2/2) L_n^(k)(|alpha|^2),
    # a bounded element of the untruncated matrix; only n + k < cutoff is kept
    scaled = np.empty((cutoff, cutoff))
    log_factorial = np.array([math.lgamma(j + 1) for j in range(cutoff)])
    scaled[0] = np.exp(k * log_mod - 0.5 * mod2 - 0.5 * log_factorial)
    if cutoff > 1:
        scaled[1] = (k + 1 - mod2) * scaled[0] / np.sqrt(k + 1)
    # coefficients of the steps n -> n + 1 for n = 1 .. cutoff-2 (row n - 1)
    steps = np.arange(1, cutoff - 1)[:, None]
    up = (2 * steps + k + 1 - mod2) * np.sqrt((steps + 1) / (steps + 1 + k))
    down = (steps + k) * np.sqrt(
        (steps + 1) * steps / ((steps + 1 + k) * (steps + k))
    )
    for n in range(1, cutoff - 1):
        scaled[n + 1] = (up[n - 1] * scaled[n] - down[n - 1] * scaled[n - 1]) / (n + 1)
    rows, cols = np.tril_indices(cutoff)
    diag = rows - cols
    values = scaled[cols, diag]
    out = np.empty((cutoff, cutoff), dtype=complex)
    # upper triangle from D(alpha)^dag = D(-alpha); the main diagonal
    # (k = 0) is written twice with the same value
    out[cols, rows] = ((-phase.conjugate()) ** k)[diag] * values
    out[rows, cols] = (phase**k)[diag] * values
    return out


def ground_state(op):
    """Smallest eigenvalue and its normalized eigenvector of any Hermitian matrix.

    The eigenvector's global phase is fixed by making its largest-magnitude
    amplitude real and positive. Ground states of O_GKP(u) come from
    `sweep.ground_states`, which uses the operator's parity blocks.
    """
    check_hermitian(op, tol=1e-10)
    evals, evecs = _eigh(op, "eigensolver failed to converge")
    vec = evecs[:, 0]
    vec = vec / np.linalg.norm(vec)
    idx = int(np.argmax(np.abs(vec)))
    vec = vec * (vec[idx].conjugate() / abs(vec[idx]))
    return float(evals[0]), vec


def expectation(op, state):
    """Real expectation value <state|op|state>."""
    state = np.asarray(state)
    if op.shape[0] != state.shape[0]:
        raise InvalidArgumentError(
            f"cutoff mismatch: operator {op.shape[0]}, state {state.shape[0]}"
        )
    val = np.vdot(state, op @ state)
    if abs(val.imag) > 1e-10:
        raise NumericalFailureError(
            f"expectation has non-negligible imaginary part {val.imag:.3e}"
        )
    return float(val.real)
