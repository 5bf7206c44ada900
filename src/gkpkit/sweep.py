"""Bloch-sphere sweep: ground states and the expectation/infidelity matrices."""

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np
from numpy.linalg import eigh, eigvalsh

from .bloch import Atlas, infidelity_matrix
from .errors import InvalidArgumentError, NumericalFailureError
from .operators import build_operator_set, check_unit


class CutoffResult(NamedTuple):
    """What a sweep keeps per cutoff N; the field names are the keys of a
    sweep.json per-cutoff block."""

    # (M, M): E[i, j] = <psi_i^(N)| O_GKP^[N](u_j) |psi_i^(N)>
    expectation: np.ndarray
    ground_energies: np.ndarray  # (M,)
    # min over states of E_odd - E_even, the spectral gap between the lowest
    # odd-parity level and the (even-parity) ground state
    parity_gap: float


@dataclass
class SweepRecord:
    """The atlas, its infidelity matrix and one CutoffResult per cutoff."""

    atlas: Atlas
    cutoffs: list
    infidelity: np.ndarray = None
    results: dict = field(default_factory=dict)  # N -> CutoffResult


# rows per stacked eigensolve: bounds the (rows, n, n) stacks and eigh's
# eigenvector output whatever the size of the atlas
CHUNK_ROWS = 8


def ground_states(points, cutoff):
    """Ground states of O_GKP(u) for every unit row u of `points` at one cutoff.

    Every term of O_GKP(u) is a cosine of a linear quadrature, so the
    operator commutes with photon-number parity (-1)^n and its even and odd
    Fock levels do not couple. Stacked solves of the even blocks, of size
    ceil(N/2), give the ground states; stacked solves of the odd blocks give
    their lowest levels, which must lie above the even ground energies. Each
    stack holds at most CHUNK_ROWS points, and a row's result does not depend
    on the rows solved with it. O_GKP(u_j) is linear in u_j, so one
    contraction of the ground states with the four components gives every
    expectation.

    Returns (states, CutoffResult): N-level states with zero odd amplitudes
    and the largest amplitude real and positive, and the result with
    expectation[i, j] = <psi_i|O_GKP(u_j)|psi_i>, the ground energies and
    min E_odd - E_even.
    """
    points = np.asarray(points, dtype=float)
    for u in np.atleast_1d(points):  # O_GKP(u) is positive semidefinite for unit u
        check_unit(u)
    comps = build_operator_set(cutoff)
    even, odd = comps[:, 0::2, 0::2], comps[:, 1::2, 1::2]

    def stack(block, rows):
        # one (1, 3) @ (3, n*n) product per point, the bits of a per-point
        # tensordot, so a row does not depend on the rest of the batch
        terms = points[rows].astype(complex)[:, None] @ block[1:].reshape(3, -1)
        terms = terms.reshape(-1, *block.shape[1:])
        return np.subtract(block[0], terms, out=terms)

    energies, odd_ground = np.empty((2, len(points)))
    vecs = np.empty((len(points), even.shape[1]), dtype=complex)
    try:
        for start in range(0, len(points), CHUNK_ROWS):
            rows = slice(start, start + CHUNK_ROWS)
            odd_ground[rows] = eigvalsh(stack(odd, rows))[:, 0]
            evals, evecs = eigh(stack(even, rows))
            energies[rows], vecs[rows] = evals[:, 0], evecs[:, :, 0]
    except np.linalg.LinAlgError as exc:
        raise NumericalFailureError("eigensolver failed", cutoff=cutoff) from exc
    gaps = odd_ground - energies
    bad = np.flatnonzero(~(gaps > 0))
    if bad.size:
        raise NumericalFailureError(
            "ground state is not in the even-parity sector",
            bloch=tuple(points[bad[0]].tolist()),
            cutoff=cutoff,
            parity_gap=float(gaps[bad[0]]),
        )
    parts = np.einsum("mi,kij,mj->mk", vecs.conj(), even, vecs).real
    expectation = parts[:, :1] - parts[:, 1:] @ points.T
    peak = vecs[np.arange(len(vecs)), np.argmax(np.abs(vecs), axis=1)]
    states = np.zeros((len(vecs), cutoff), dtype=complex)
    states[:, 0::2] = vecs * (peak.conj() / np.abs(peak))[:, None]
    return states, CutoffResult(expectation, energies, float(gaps.min()))


def usable_cores():
    """The number of cores this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def run_sweep(atlas, cutoffs, done=None):
    """Fill a SweepRecord over all (state, cutoff) combinations.

    A cutoff that the SweepRecord `done` holds is taken from it. The rest are
    solved on a pool of one thread per usable core, largest cutoff first, and
    read back in ascending order: when solves fail, the error raised is that
    of the smallest failing cutoff, as in a serial loop, and cutoffs still
    queued are cancelled. Each solve runs on the caller's BLAS threads; the
    CLI runs every command on one, so the record is deterministic for fixed
    atlas and cutoffs and does not depend on the pool size.
    """
    cutoffs = [int(n) for n in cutoffs]
    if sorted(set(cutoffs)) != cutoffs:
        raise InvalidArgumentError("cutoffs must be distinct and ascending")
    points = np.asarray(atlas.points, dtype=float)
    record = SweepRecord(atlas, cutoffs, infidelity_matrix(points))
    held = {} if done is None else done.results
    pool = ThreadPoolExecutor(max_workers=usable_cores())
    try:
        solves = {
            n: pool.submit(ground_states, points, n)
            for n in reversed(cutoffs) if n not in held
        }
        for n in cutoffs:
            record.results[n] = held[n] if n in held else solves[n].result()[1]
    finally:
        pool.shutdown(cancel_futures=True)
    return record


def logical_subspace_identity_check(record, cutoff):
    """Max |E[N][i,j] - 2 * (1 - F_ij)| over all state/operator pairs."""
    if cutoff not in record.results:
        raise InvalidArgumentError(f"cutoff {cutoff} not present in record")
    expectation = record.results[cutoff].expectation
    return float(np.max(np.abs(expectation - 2.0 * record.infidelity)))


def diagonal_violations(matrix):
    """Count rows and columns whose minimum is off the diagonal."""
    rows = int(np.sum(np.argmin(matrix, axis=1) != np.arange(matrix.shape[0])))
    cols = int(np.sum(np.argmin(matrix, axis=0) != np.arange(matrix.shape[1])))
    return rows + cols
