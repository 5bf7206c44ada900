"""Bloch-sphere sweep: ground states and the expectation/infidelity matrices."""

from dataclasses import dataclass, field

import numpy as np
from numpy.linalg import eigh, eigvalsh

from .bloch import Atlas, infidelity_matrix
from .errors import DegenerateInputError, InvalidArgumentError, NumericalFailureError
from .operators import build_operator_set


@dataclass
class SweepRecord:
    """Expectation matrices E[N][i, j] = <psi_i^(N)| O_GKP^[N](u_j) |psi_i^(N)>."""

    atlas: Atlas
    cutoffs: list
    expectation: dict = field(default_factory=dict)  # N -> (M, M) array
    infidelity: np.ndarray = None
    ground_energies: dict = field(default_factory=dict)  # N -> (M,) array
    # N -> min over states of E_odd - E_even, the spectral gap between the
    # lowest odd-parity level and the (even-parity) ground state
    parity_gap: dict = field(default_factory=dict)


def _sweep_cutoff(points, cutoff):
    """Ground states, expectation matrix and parity gap for one cutoff.

    Every term of O_GKP(u) is a cosine of a linear quadrature, so the
    operator commutes with photon-number parity (-1)^n and its even and odd
    Fock levels do not couple. The ground state is taken from the even block
    of size ceil(N/2); the odd block gives only its lowest eigenvalue, which
    must lie above the even ground energy. O_GKP(u_j) is linear in u_j, so
    each row of the expectation matrix only needs the four component
    expectations of the row's ground state, which one contraction gives for
    all states at once.
    """
    ops = build_operator_set(cutoff)
    blocks = np.stack([ops.o1 + np.eye(cutoff), ops.ox, ops.oy, ops.oz])
    even = np.ascontiguousarray(blocks[:, 0::2, 0::2])
    odd = np.ascontiguousarray(blocks[:, 1::2, 1::2])
    m = points.shape[0]
    energies = np.empty(m)
    gaps = np.empty(m)
    states = np.empty((m, even.shape[1]), dtype=complex)
    for i, u in enumerate(points):
        try:
            evals, evecs = eigh(even[0] - np.tensordot(u, even[1:], axes=1))
            odd_ground = eigvalsh(odd[0] - np.tensordot(u, odd[1:], axes=1))[0]
        except np.linalg.LinAlgError as exc:
            raise NumericalFailureError(
                "eigensolver failed during sweep", bloch=tuple(u), cutoff=cutoff
            ) from exc
        gaps[i] = odd_ground - evals[0]
        if not gaps[i] > 0:
            raise NumericalFailureError(
                "ground state is not in the even-parity sector",
                bloch=tuple(u),
                cutoff=cutoff,
                parity_gap=float(gaps[i]),
            )
        energies[i] = evals[0]
        states[i] = evecs[:, 0]
    parts = np.einsum("mi,kij,mj->mk", states.conj(), even, states).real
    expectation = parts[:, :1] - parts[:, 1:] @ points.T
    return expectation, energies, float(gaps.min())


def run_sweep(atlas, cutoffs):
    """Fill a SweepRecord over all (state, cutoff) combinations.

    Deterministic for fixed atlas and cutoffs under a fixed BLAS thread
    count; the CLI runs every command on one BLAS thread.
    """
    cutoffs = [int(n) for n in cutoffs]
    if sorted(cutoffs) != cutoffs:
        raise InvalidArgumentError("cutoffs must be ascending")
    if len(set(cutoffs)) != len(cutoffs):
        raise InvalidArgumentError("cutoffs must be distinct")
    points = np.asarray(atlas.points, dtype=float)
    record = SweepRecord(
        atlas=atlas,
        cutoffs=cutoffs,
        infidelity=infidelity_matrix(points),
    )
    for cutoff in cutoffs:
        expectation, energies, gap = _sweep_cutoff(points, cutoff)
        record.expectation[cutoff] = expectation
        record.ground_energies[cutoff] = energies
        record.parity_gap[cutoff] = gap
    return record


def normalize_matrix(matrix):
    """Affine min-max rescale of a matrix to [0, 1]."""
    matrix = np.asarray(matrix, dtype=float)
    lo, hi = matrix.min(), matrix.max()
    if hi == lo:
        raise DegenerateInputError("cannot normalize a constant matrix")
    return (matrix - lo) / (hi - lo)


def logical_subspace_identity_check(record, cutoff):
    """Max |E[N][i,j] - 2 * (1 - F_ij)| over all state/operator pairs."""
    if cutoff not in record.expectation:
        raise InvalidArgumentError(f"cutoff {cutoff} not present in record")
    return float(
        np.max(np.abs(record.expectation[cutoff] - 2.0 * record.infidelity))
    )


def diagonal_violations(matrix):
    """Count rows and columns whose minimum is off the diagonal."""
    rows = int(np.sum(np.argmin(matrix, axis=1) != np.arange(matrix.shape[0])))
    cols = int(np.sum(np.argmin(matrix, axis=0) != np.arange(matrix.shape[1])))
    return rows + cols
