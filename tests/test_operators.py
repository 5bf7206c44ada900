import sys
import threading
import time

import numpy as np
import pytest

from gkpkit import operators
from gkpkit.bloch import core_states
from gkpkit.errors import InvalidArgumentError
from gkpkit.fock import exp_of_quadrature, expectation, ground_state, hermitize
from gkpkit.gaussian import gaussian_bound
from gkpkit.operators import (
    analytic_complement,
    build_operator_set,
    gkp_operator,
    reduced_zero_operator,
    stabilizer,
)

SQRT_PI = np.sqrt(np.pi)


def test_stabilizer_vacuum_entry():
    mat = stabilizer("X", 1)
    assert mat.shape == (1, 1)
    assert mat[0, 0] == pytest.approx(np.exp(-np.pi / 4), abs=1e-12)


def test_stabilizer_rejects_bad_input():
    with pytest.raises(InvalidArgumentError):
        stabilizer("X", 0)
    with pytest.raises(InvalidArgumentError):
        stabilizer("W", 10)


def test_composed_y_matches_single_displacement():
    # Y = i X Z holds for the truncated factors on the interior block
    composed = 1j * (stabilizer("X", 100) @ stabilizer("Z", 100))
    direct = stabilizer("Y", 100)
    assert np.abs(composed[:50, :50] - direct[:50, :50]).max() < 1e-8


def test_stabilizer_unitarity_defect_interior():
    x = stabilizer("X", 150)
    defect = x.conj().T @ x - np.eye(150)
    assert np.abs(defect[:75, :]).max() <= 1e-6


def test_mean_stabilizer_on_plus_state():
    # the ground state for u = (1,0,0) approximates |+_L>, whose <X> is 1
    _, psi = ground_state(gkp_operator((1, 0, 0), 150))
    x = stabilizer("X", 150)
    mean_x = np.vdot(psi, x @ psi)
    assert abs(mean_x.real - 1.0) < 0.05


def test_operator_set_components_match_spectral_route():
    ops = build_operator_set(100)
    ox_ref = hermitize(exp_of_quadrature(0, 1, SQRT_PI, 100))
    oy_ref = hermitize(exp_of_quadrature(1, -1, SQRT_PI, 100))
    oz_ref = hermitize(exp_of_quadrature(1, 0, SQRT_PI, 100))
    assert np.abs(ops[1] - ox_ref).max() < 1e-8
    assert np.abs(ops[2] - oy_ref).max() < 1e-8
    assert np.abs(ops[3] - oz_ref).max() < 1e-8


def test_operator_set_spectra():
    ops = build_operator_set(80)
    for comp in ops[1:]:
        vals = np.linalg.eigvalsh(comp)
        assert vals.min() >= -1 - 1e-6 and vals.max() <= 1 + 1e-6
    assert np.linalg.eigvalsh(ops[0] - np.eye(80)).min() >= -1e-6


def test_subspace_penalty_small_on_ground_state():
    ops = build_operator_set(150)
    # measured leakage at this cutoff is 0.067 and still shrinking with N
    _, psi = ground_state(gkp_operator((0, 0, 1), 150))
    assert expectation(ops[0] - np.eye(150), psi) <= 0.1


@pytest.mark.parametrize("label", ["+L", "-L", "0L", "1L", "H+x+y"])
def test_analytic_complements(label):
    u = dict(core_states())[label]
    ops = build_operator_set(100)
    complement = gkp_operator(u, 100) - (ops[0] - np.eye(100))
    reference = analytic_complement(label, 100)
    assert np.abs(complement - reference).max() <= 1e-8


def test_bloch_symmetry():
    u = np.array([0.6, 0.0, 0.8])
    ops = build_operator_set(60)
    combo = gkp_operator(u, 60) + gkp_operator(-u, 60)
    ref = 2 * ops[0]
    assert np.abs(combo - ref).max() < 1e-13


def test_gkp_operator_rejects_non_unit():
    with pytest.raises(InvalidArgumentError):
        gkp_operator((1, 1, 1), 50)
    with pytest.raises(InvalidArgumentError):
        gkp_operator((1, 0), 50)


def test_check_unit_rejects_nan():
    # abs(nan - 1) > tol is False, so the check must be written as a pass test
    for u in ((np.nan, 0, 0), (1, 0, np.nan), (np.inf, 0, 0)):
        with pytest.raises(InvalidArgumentError, match="unit length"):
            operators.check_unit(u)
        with pytest.raises(InvalidArgumentError):
            gaussian_bound(u)


def test_ground_energies_decrease_with_cutoff():
    energies = [ground_state(gkp_operator((0, 0, 1), n))[0] for n in (5, 15, 30, 50)]
    assert all(a > b for a, b in zip(energies, energies[1:]))


@pytest.mark.parametrize(
    "u",
    [
        (0, 0, 1),
        (1 / np.sqrt(2), 1 / np.sqrt(2), 0),
        (1 / np.sqrt(3), 1 / np.sqrt(3), 1 / np.sqrt(3)),
    ],
)
def test_empirical_positivity(u):
    vals = np.linalg.eigvalsh(gkp_operator(u, 200))
    assert vals.min() >= -1e-8


def test_reduced_operator_small_cutoff_nonnegative():
    vals = np.linalg.eigvalsh(reduced_zero_operator(2))
    assert vals.shape == (2,)
    assert vals.min() >= -1e-12


def test_reduced_operator_ground_energy_nonnegative():
    for cutoff in (10, 50, 150):
        val, _ = ground_state(reduced_zero_operator(cutoff))
        assert val >= -1e-12


def test_reduced_operator_ground_state_overlap():
    # overlap with the (1,0,0) target ground state; frozen oracle value is
    # 0.9883 at cutoff 150, far above the overlap with any other target
    _, gs_reduced = ground_state(reduced_zero_operator(150))
    _, gs_full = ground_state(gkp_operator((1, 0, 0), 150))
    overlap = abs(np.vdot(gs_reduced, gs_full)) ** 2
    assert overlap >= 0.98
    _, gs_other = ground_state(gkp_operator((0, 0, 1), 150))
    assert abs(np.vdot(gs_reduced, gs_other)) ** 2 < overlap


def test_vacuum_expectation_closed_form():
    vac = np.zeros(100, dtype=complex)
    vac[0] = 1.0
    got = expectation(gkp_operator((0, 0, 1), 100), vac)
    ref = 2 - ((2 * np.exp(-np.pi) + np.exp(-2 * np.pi)) / 3 + np.exp(-np.pi / 4))
    assert got == pytest.approx(ref, abs=1e-10)
    assert got == pytest.approx(1.5146301124809196, abs=1e-12)


def test_ground_state_of_op_gives_ground_energy():
    op = gkp_operator((0, 1, 0), 60)
    val, psi = ground_state(op)
    assert expectation(op, psi) == pytest.approx(val, abs=1e-10)


def test_operator_set_is_read_only():
    ops = build_operator_set(30)
    with pytest.raises(ValueError):
        ops[1][0, 0] = 1.0


def test_operator_sets_are_leading_blocks_of_the_largest_bit_for_bit():
    sets = operators._OperatorSets()
    largest = sets(151)
    for n in (2, 3, 17, 64, 149, 150, 151):
        block = sets(n)
        assert block.shape == (4, n, n) and not block.flags.writeable
        assert block.tobytes() == operators._operator_set(n).tobytes()
    assert sets.cache_info() == (7, 1)
    with pytest.raises(InvalidArgumentError):
        sets(1)
    assert sets(152).tobytes() == operators._operator_set(152).tobytes()
    assert sets.cache_info() == (7, 2)
    assert largest.shape == (4, 151, 151)


def test_operator_sets_from_many_threads_equal_fresh_builds(monkeypatch):
    # eight threads ask for cutoffs in different orders while each build
    # sleeps, so the kept set is replaced while others wait to slice it: a
    # block of the wrong set or size, or a kept set that shrinks (two builds
    # at once, the larger stored first), fails
    sets = operators._OperatorSets()
    cutoffs = [5, 40, 12, 60, 33, 2, 59, 21]
    fresh = {n: operators._operator_set(n).tobytes() for n in cutoffs}
    built, wrong = [], []

    def slow_build(cutoff):
        built.append(cutoff)
        time.sleep(0.002)
        return build(cutoff)

    def ask(shift):
        for n in cutoffs[shift:] + cutoffs[:shift]:
            if sets(n).tobytes() != fresh[n]:
                wrong.append(n)

    build = operators._operator_set
    monkeypatch.setattr(operators, "_operator_set", slow_build)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=ask, args=(k,)) for k in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert wrong == []
    assert built == sorted(set(built)) and built[-1] == 60
    assert sets.cache_info() == (64 - len(built), len(built))
