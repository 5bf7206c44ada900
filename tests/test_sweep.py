import numpy as np
import pytest

from gkpkit import sweep
from gkpkit.bloch import (
    Atlas,
    core_states,
    infidelity_matrix,
    order_greedy,
    sample_sphere,
)
from gkpkit.cli import main
from gkpkit.errors import (
    DegenerateInputError,
    InvalidArgumentError,
    NumericalFailureError,
)
from gkpkit.fock import expectation, ground_state
from gkpkit.operators import GkpOperatorSet, build_operator_set, gkp_operator
from gkpkit.sweep import (
    diagonal_violations,
    logical_subspace_identity_check,
    normalize_matrix,
    run_sweep,
)

STABILIZER_POINTS = np.array(
    [
        [0, 0, 1],
        [0, 0, -1],
        [1, 0, 0],
        [-1, 0, 0],
        [0, 1, 0],
        [0, -1, 0],
    ],
    dtype=float,
)


@pytest.fixture(scope="module")
def stabilizer_record():
    atlas = Atlas(points=STABILIZER_POINTS, labels=[""] * 6)
    return run_sweep(atlas, [50])


def test_diagonal_is_ground_energy_and_row_minimum(stabilizer_record):
    exp = stabilizer_record.expectation[50]
    np.testing.assert_allclose(
        np.diag(exp), stabilizer_record.ground_energies[50], atol=1e-12
    )
    assert np.all(np.argmin(exp, axis=1) == np.arange(6))


def test_stabilizer_infidelity_pattern(stabilizer_record):
    inf = stabilizer_record.infidelity
    np.testing.assert_allclose(np.diag(inf), 0.0, atol=1e-14)
    # antipodal pairs sit next to each other in the point list
    for i in (0, 2, 4):
        assert inf[i, i + 1] == pytest.approx(1.0)
    off = inf[~np.eye(6, dtype=bool)]
    assert set(np.round(off, 12)) == {0.5, 1.0}


def test_diagonal_decreases_with_cutoff():
    atlas = Atlas(points=STABILIZER_POINTS, labels=[""] * 6)
    record = run_sweep(atlas, [50, 150])
    diag_small = np.diag(record.expectation[50])
    diag_large = np.diag(record.expectation[150])
    assert np.all(diag_large <= diag_small)


def test_run_sweep_rejects_bad_cutoffs():
    atlas = Atlas(points=STABILIZER_POINTS, labels=[""] * 6)
    with pytest.raises(InvalidArgumentError):
        run_sweep(atlas, [50, 30])
    with pytest.raises(InvalidArgumentError):
        run_sweep(atlas, [50, 50])


def test_sweep_determinism(stabilizer_record):
    atlas = Atlas(points=STABILIZER_POINTS, labels=[""] * 6)
    again = run_sweep(atlas, [50])
    np.testing.assert_array_equal(
        stabilizer_record.expectation[50], again.expectation[50]
    )


def test_normalize_matrix_examples():
    np.testing.assert_allclose(
        normalize_matrix([[0, 2], [4, 2]]), [[0, 0.5], [1, 0.5]]
    )
    already = np.array([[0.0, 0.3], [1.0, 0.6]])
    np.testing.assert_allclose(normalize_matrix(already), already)


def test_normalize_matrix_rejects_constant():
    with pytest.raises(DegenerateInputError):
        normalize_matrix(np.full((3, 3), 2.0))


def test_normalized_matrices_share_argmin_structure(stabilizer_record):
    exp = normalize_matrix(stabilizer_record.expectation[50])
    inf = normalize_matrix(stabilizer_record.infidelity)
    np.testing.assert_array_equal(
        np.argmin(exp, axis=1), np.argmin(inf, axis=1)
    )


def test_identity_check_diagonal_equals_energy(stabilizer_record):
    exp = stabilizer_record.expectation[50]
    dev = logical_subspace_identity_check(stabilizer_record, 50)
    # diagonal deviation is the ground energy itself (2(1-F_ii) = 0)
    assert dev >= stabilizer_record.ground_energies[50].max()


def test_identity_check_improves_with_cutoff():
    atlas = Atlas(points=STABILIZER_POINTS, labels=[""] * 6)
    record = run_sweep(atlas, [50, 150])
    assert logical_subspace_identity_check(
        record, 150
    ) < logical_subspace_identity_check(record, 50)


def test_identity_check_missing_cutoff(stabilizer_record):
    with pytest.raises(InvalidArgumentError):
        logical_subspace_identity_check(stabilizer_record, 999)


def test_probe_bloch_vector_norm_grows():
    # (<X>, <Y>, <Z>) of the ground state approaches a unit vector
    from gkpkit.fock import ground_state, hermitize
    from gkpkit.operators import gkp_operator, stabilizer

    u = np.array([1, 1, 1]) / np.sqrt(3)
    norms = []
    for cutoff in (30, 80, 150):
        _, psi = ground_state(gkp_operator(u, cutoff))
        probe = [
            np.vdot(psi, hermitize(stabilizer(w, cutoff)) @ psi).real
            for w in ("X", "Y", "Z")
        ]
        norms.append(np.linalg.norm(probe))
    assert norms[0] < norms[1] < norms[2]
    assert abs(norms[-1] - 1.0) < 0.1


def test_diagonal_violations_counting():
    good = np.array([[0.0, 1.0], [1.0, 0.0]])
    assert diagonal_violations(good) == 0
    bad = np.array([[1.0, 0.0], [0.0, 1.0]])
    assert diagonal_violations(bad) == 4


def _oracle_points():
    rng = np.random.default_rng(2024)
    generic = rng.standard_normal((8, 3))
    generic /= np.linalg.norm(generic, axis=1, keepdims=True)
    return np.vstack([np.array([vec for _, vec in core_states()]), generic])


@pytest.mark.parametrize("cutoff", [5, 6, 51, 120])
def test_parity_sweep_matches_full_matrix_oracle(cutoff):
    # the sweep solves only the even-parity block; the oracle diagonalizes
    # the full N x N operator and evaluates every entry directly
    points = _oracle_points()
    record = run_sweep(Atlas(points=points, labels=[""] * len(points)), [cutoff])
    ops = [gkp_operator(u, cutoff) for u in points]
    gaps = []
    for i, op in enumerate(ops):
        energy, psi = ground_state(op)
        assert abs(record.ground_energies[cutoff][i] - energy) <= 1e-12
        row = [expectation(op_j, psi) for op_j in ops]
        np.testing.assert_allclose(
            record.expectation[cutoff][i], row, rtol=0, atol=1e-12
        )
        evals, evecs = np.linalg.eigh(op)
        odd_weight = np.sum(np.abs(evecs[1::2]) ** 2, axis=0)
        assert odd_weight[0] < 1e-12  # the ground state is even
        gaps.append(evals[odd_weight > 0.5][0] - energy)
    assert record.parity_gap[cutoff] > 0
    assert abs(record.parity_gap[cutoff] - min(gaps)) <= 1e-12


def _odd_ground_operator_set(cutoff):
    """The true operator set with every odd level pushed 10 below the rest."""
    ops = build_operator_set(cutoff)
    shift = np.diag(10.0 * (np.arange(cutoff) % 2))
    return GkpOperatorSet(
        o1=ops.o1 - shift, ox=ops.ox, oy=ops.oy, oz=ops.oz, cutoff=cutoff
    )


def test_odd_sector_ground_state_raises(monkeypatch):
    monkeypatch.setattr(sweep, "build_operator_set", _odd_ground_operator_set)
    atlas = Atlas(points=STABILIZER_POINTS, labels=[""] * 6)
    with pytest.raises(NumericalFailureError, match="even-parity"):
        run_sweep(atlas, [10, 20])


@pytest.mark.parametrize(
    "args",
    [
        ["sweep", "--delta", "1.2", "--cutoffs", "10,20"],
        ["groundstate", "--u", "H", "--cutoff", "20", "--wigner"],
        ["measure", "--u", "0", "--cutoff", "20", "--counts", "100"],
    ],
    ids=["sweep", "groundstate", "measure"],
)
def test_command_exits_3_on_odd_sector_ground_state(
    monkeypatch, tmp_path, capsys, args
):
    monkeypatch.setattr(sweep, "build_operator_set", _odd_ground_operator_set)
    assert main(args + ["--out", str(tmp_path)]) == 3
    assert "even-parity" in capsys.readouterr().err
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("cutoff", [5, 6, 51, 120])
def test_ground_states_rows_do_not_depend_on_the_batch(cutoff):
    # `groundstate --u X` must report the energy the sweep records for X
    points = order_greedy(sample_sphere(0.35, 0)).points
    energies, states, _, _ = sweep.ground_states(points, cutoff)
    for i in range(len(points)):
        energy, state, _, _ = sweep.ground_states(points[i : i + 1], cutoff)
        assert energy[0] == energies[i]
        np.testing.assert_array_equal(state[0], states[i])


def test_core_states_at_large_cutoff():
    # E_ij ≈ 2(1 - F_ij) tightens and the parity gap stays open up to N = 300
    points = np.array([vec for _, vec in core_states()])
    infidelity = infidelity_matrix(points)
    deviations = []
    for cutoff in (200, 300):
        _, _, expectation, gap = sweep.ground_states(points, cutoff)
        deviations.append(np.max(np.abs(expectation - 2 * infidelity)))
        assert gap > 0
    assert deviations[1] < deviations[0]


def test_ground_states_match_full_matrix_at_cutoff_300():
    points = np.array([vec for _, vec in core_states()])[[0, 4, 9, 17]]
    energies, states, expectation, _ = sweep.ground_states(points, 300)
    for i, u in enumerate(points):
        evals, evecs = np.linalg.eigh(gkp_operator(u, 300))
        assert abs(energies[i] - evals[0]) <= 1e-12
        assert abs(expectation[i, i] - evals[0]) <= 1e-12
        assert abs(abs(np.vdot(evecs[:, 0], states[i])) - 1) <= 1e-12
