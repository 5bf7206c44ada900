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


def ground_states(points, cutoff):
    """Ground states of O_GKP(u) for every row u of `points` at one cutoff.

    Every term of O_GKP(u) is a cosine of a linear quadrature, so the
    operator commutes with photon-number parity (-1)^n and its even and odd
    Fock levels do not couple. One stacked solve of the even blocks, of size
    ceil(N/2), gives the ground states; one of the odd blocks gives their
    lowest levels, which must lie above the even ground energies. O_GKP(u_j)
    is linear in u_j, so one contraction of the ground states with the four
    components gives every expectation.

    Returns (energies, states, expectation, parity_gap): N-level states with
    zero odd amplitudes and the largest amplitude real and positive,
    expectation[i, j] = <psi_i|O_GKP(u_j)|psi_i>, and min E_odd - E_even.
    """
    points = np.asarray(points, dtype=float)
    ops = build_operator_set(cutoff)
    components = (ops.o1 + np.eye(cutoff), ops.ox, ops.oy, ops.oz)
    even, odd = (np.stack([c[p::2, p::2] for c in components]) for p in (0, 1))

    def stack(block):
        # one (1, 3) @ (3, n*n) product per point, the bits of a per-point
        # tensordot, so a row does not depend on the rest of the batch
        terms = points.astype(complex)[:, None] @ block[1:].reshape(3, -1)
        terms = terms.reshape(-1, *block.shape[1:])
        return np.subtract(block[0], terms, out=terms)

    try:  # the odd stack is freed before the even one is built
        odd_ground = eigvalsh(stack(odd))[:, 0]
        evals, evecs = eigh(stack(even))
    except np.linalg.LinAlgError as exc:
        raise NumericalFailureError("eigensolver failed", cutoff=cutoff) from exc
    energies = evals[:, 0]
    gaps = odd_ground - energies
    bad = np.flatnonzero(~(gaps > 0))
    if bad.size:
        raise NumericalFailureError(
            "ground state is not in the even-parity sector",
            bloch=tuple(points[bad[0]]),
            cutoff=cutoff,
            parity_gap=float(gaps[bad[0]]),
        )
    vecs = evecs[:, :, 0]
    parts = np.einsum("mi,kij,mj->mk", vecs.conj(), even, vecs).real
    expectation = parts[:, :1] - parts[:, 1:] @ points.T
    peak = vecs[np.arange(len(vecs)), np.argmax(np.abs(vecs), axis=1)]
    states = np.zeros((len(vecs), cutoff), dtype=complex)
    states[:, 0::2] = vecs * (peak.conj() / np.abs(peak))[:, None]
    return energies, states, expectation, float(gaps.min())


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
        energies, _, expectation, gap = ground_states(points, cutoff)
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
