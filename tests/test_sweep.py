import re
import sys
import threading

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
from gkpkit.errors import InvalidArgumentError, NumericalFailureError
from gkpkit.fock import expectation, ground_state
from gkpkit.io_utils import load_sweep
from gkpkit.operators import build_operator_set, gkp_operator
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
    with pytest.raises(InvalidArgumentError):
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
    ops = build_operator_set(cutoff).copy()
    ops[0] -= np.diag(10.0 * (np.arange(cutoff) % 2))
    return ops


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
    err = capsys.readouterr().err
    assert "even-parity" in err
    assert "cutoff=" in err and "parity_gap=" in err
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("cutoff", [5, 6, 51, 120])
def test_ground_states_rows_do_not_depend_on_the_batch(monkeypatch, cutoff):
    # `groundstate --u X` must report the energy the sweep records for X
    points = order_greedy(sample_sphere(0.35, 0)).points
    assert len(points) % sweep.CHUNK_ROWS  # the desk atlas ends in a short chunk
    result = sweep.ground_states(points, cutoff)
    energies, states, _, _ = result
    for i in range(len(points)):
        energy, state, _, _ = sweep.ground_states(points[i : i + 1], cutoff)
        assert energy[0] == energies[i]
        np.testing.assert_array_equal(state[0], states[i])
    # solving the whole atlas in one stack changes no bit of any output
    monkeypatch.setattr(sweep, "CHUNK_ROWS", len(points))
    for chunked, whole in zip(result, sweep.ground_states(points, cutoff)):
        np.testing.assert_array_equal(chunked, whole)


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


@pytest.mark.parametrize(
    "points",
    [[(0.0, 0.0, 3.0)], [(0.0, 0.0, 1.0), (1.0, 1.0, 0.0)], (0.0, 0.0, 1.0)],
    ids=["long", "one-bad-row", "1-D"],
)
def test_ground_states_rejects_points_that_are_not_unit_rows(points):
    # O_GKP(u) is positive semidefinite only for unit u: u = (0, 0, 3)
    # would give a negative "ground energy"
    with pytest.raises(InvalidArgumentError):
        sweep.ground_states(points, 10)


POOL_CUTOFFS = [10, 15, 20, 25, 30, 35, 40]


def test_sweep_file_does_not_depend_on_the_pool_size(monkeypatch, tmp_path):
    # every cutoff is stored under its own key whatever order the solves end in
    args = ["sweep", "--delta", "1.2", "--cutoffs", "10:40:5"]
    files = {}
    for cores in (1, 2):
        monkeypatch.setattr(sweep, "usable_cores", lambda cores=cores: cores)
        out = tmp_path / f"pool{cores}"
        assert main(args + ["--out", str(out)]) == 0
        text = (out / "sweep.json").read_text()
        files[cores] = re.sub(r'"timestamp": "[^"]*"', "", text)
    assert files[1] == files[2]
    record = load_sweep(tmp_path / "pool2" / "sweep.json")
    points = record.atlas.points
    for cutoff in POOL_CUTOFFS:
        energies, _, expectation, gap = sweep.ground_states(points, cutoff)
        np.testing.assert_array_equal(record.expectation[cutoff], expectation)
        np.testing.assert_array_equal(record.ground_energies[cutoff], energies)
        assert record.parity_gap[cutoff] == gap


def test_run_sweep_on_more_threads_than_cores_matches_one_thread(monkeypatch):
    # eight threads share the operator cache; a lost or crossed result would
    # leave a cutoff missing or holding another cutoff's matrices
    atlas = Atlas(points=STABILIZER_POINTS, labels=[""] * 6)
    cutoffs = list(range(5, 65, 5))
    monkeypatch.setattr(sweep, "usable_cores", lambda: 1)
    serial = run_sweep(atlas, cutoffs)
    monkeypatch.setattr(sweep, "usable_cores", lambda: 8)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for _ in range(3):
            pooled = run_sweep(atlas, cutoffs)
            assert sorted(pooled.expectation) == cutoffs
            for n in cutoffs:
                np.testing.assert_array_equal(pooled.expectation[n], serial.expectation[n])
                assert pooled.parity_gap[n] == serial.parity_gap[n]
    finally:
        sys.setswitchinterval(interval)


def test_run_sweep_submits_the_largest_cutoff_first(monkeypatch):
    solved = []

    def logged(points, cutoff):
        solved.append(cutoff)
        return solve(points, cutoff)

    solve = sweep.ground_states
    monkeypatch.setattr(sweep, "ground_states", logged)
    monkeypatch.setattr(sweep, "usable_cores", lambda: 1)
    atlas = Atlas(points=STABILIZER_POINTS, labels=[""] * 6)
    done = run_sweep(atlas, [10, 20])
    run_sweep(atlas, [10, 15, 20, 25], done=done)
    assert solved == [20, 10, 25, 15]


def test_run_sweep_solves_as_many_cutoffs_at_once_as_there_are_cores(monkeypatch):
    # both solves must be in flight together to pass the barrier
    barrier = threading.Barrier(2, timeout=10)

    def meet(points, cutoff):
        barrier.wait()
        return solve(points, cutoff)

    solve = sweep.ground_states
    monkeypatch.setattr(sweep, "ground_states", meet)
    monkeypatch.setattr(sweep, "usable_cores", lambda: 2)
    atlas = Atlas(points=STABILIZER_POINTS, labels=[""] * 6)
    assert sorted(run_sweep(atlas, [10, 20]).expectation) == [10, 20]


def _fail_at(failing):
    solve = sweep.ground_states

    def ground_states(points, cutoff):
        if cutoff in failing:
            raise NumericalFailureError(f"failed at N = {cutoff}", cutoff=cutoff)
        return solve(points, cutoff)

    return ground_states


@pytest.mark.parametrize("cores", [1, 2])
def test_failing_cutoff_in_the_pool_raises_like_the_serial_loop(
    monkeypatch, tmp_path, capsys, cores
):
    # the serial loop stopped at the smallest failing cutoff, 20; the pool
    # solves 35 first, and the error must still name 20
    monkeypatch.setattr(sweep, "ground_states", _fail_at({20, 35}))
    monkeypatch.setattr(sweep, "usable_cores", lambda: cores)
    atlas = Atlas(points=STABILIZER_POINTS, labels=[""] * 6)
    with pytest.raises(NumericalFailureError) as info:
        run_sweep(atlas, POOL_CUTOFFS)
    assert info.value.diagnostics == {"cutoff": 20}
    out = tmp_path / "out"
    args = ["sweep", "--delta", "1.2", "--cutoffs", "10:40:5", "--out", str(out)]
    assert main(args) == 3
    assert "failed at N = 20" in capsys.readouterr().err
    assert not out.exists()
