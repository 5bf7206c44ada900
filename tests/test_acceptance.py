"""End-to-end acceptance checks, one test per criterion.

Each test prints a single PASS/FAIL line (visible with pytest -s or on
failure) in addition to its assertion, so the suite doubles as a report.
"""

import json
import math
import re

import numpy as np
import pytest

from gkpkit.analysis import (
    extrapolate_slope,
    ksg_mutual_information,
    regression_per_cutoff,
)
from gkpkit.bloch import Atlas, core_states, order_greedy, sample_sphere
from gkpkit.cli import main
from gkpkit.fock import exp_of_quadrature, expectation, ground_state
from gkpkit.gaussian import gaussian_bound, minimize_over_gaussians
from gkpkit.homodyne import (
    estimate_witness,
    measure_quadratures,
    rotated_wavefunction,
)
from gkpkit.operators import analytic_complement, build_operator_set, gkp_operator
from gkpkit.sweep import (
    diagonal_violations,
    logical_subspace_identity_check,
    run_sweep,
)
from gkpkit.wigner import marginal_x, wigner

SQRT_PI = math.sqrt(math.pi)
S2 = 1 / math.sqrt(2)


def _report(num, name, ok, detail):
    print(f"criterion {num:2d} ({name}): {'PASS' if ok else 'FAIL'} [{detail}]")
    assert ok, f"criterion {num} ({name}) failed: {detail}"


@pytest.fixture(scope="module")
def core_atlas():
    return order_greedy(
        Atlas(
            points=np.array([vec for _, vec in core_states()]),
            labels=[label for label, _ in core_states()],
        )
    )


@pytest.fixture(scope="module")
def core_record(core_atlas):
    return run_sweep(core_atlas, [50, 100, 150])


@pytest.fixture(scope="module")
def desk_record():
    atlas = order_greedy(sample_sphere(0.35, seed=0))
    cutoffs = list(range(5, 121, 5))
    return run_sweep(atlas, cutoffs)


def test_criterion_01_analytic_complement_equivalence():
    o1 = build_operator_set(100)[0] - np.eye(100)
    worst = 0.0
    targets = dict(core_states())
    for label in ("0L", "1L", "+L", "-L", "H+x+y"):
        diff = gkp_operator(targets[label], 100) - o1 - analytic_complement(label, 100)
        worst = max(worst, float(np.abs(diff).max()))
    _report(1, "analytic complements", worst <= 1e-8, f"max diff {worst:.2e}")


def test_criterion_02_dual_route_stabilizers():
    from gkpkit.operators import _STABILIZER_ALPHA, stabilizer

    scales = {"X": (0, 1, -SQRT_PI), "Z": (1, 0, SQRT_PI), "Y": (1, -1, SQRT_PI)}
    worst = 0.0
    for which, (cx, cp, scale) in scales.items():
        spectral = exp_of_quadrature(cx, cp, scale, 128, 128)
        laguerre = stabilizer(which, 128)
        worst = max(worst, float(np.abs(spectral - laguerre).max()))
    _report(2, "dual-route equivalence", worst <= 1e-8, f"max diff {worst:.2e}")


def test_criterion_03_ground_state_convergence():
    cutoffs = (5, 15, 30, 50, 100, 150)
    ok = True
    details = []
    for u in ((0, 0, 1), (1, 0, 0), (S2, S2, 0)):
        energies = [ground_state(gkp_operator(u, n))[0] for n in cutoffs]
        decreasing = all(a > b for a, b in zip(energies, energies[1:]))
        ok = ok and decreasing and energies[-1] >= -1e-8
        details.append(f"{energies[-1]:.3e}")
    _report(3, "ground-state convergence", ok, "E(150) = " + ", ".join(details))


def test_criterion_04_diagonal_minima(core_record):
    violations = {
        n: diagonal_violations(core_record.results[n].expectation) for n in (50, 100)
    }
    ok = all(v == 0 for v in violations.values())
    ok = ok and len(core_record.atlas) == 26
    _report(4, "diagonal minima", ok, f"violations {violations}")


def test_criterion_05_slope_two(desk_record):
    stats = regression_per_cutoff(desk_record)
    slopes = {n: s.slope for n, s in stats.items()}
    result = extrapolate_slope(slopes)
    ok = 1.9 <= result.window_mean <= 2.1 and result.window_std < 0.05
    _report(
        5,
        "slope-2 extrapolation",
        ok,
        f"m_inf = {result.window_mean:.4f} +- {result.window_std:.4f}",
    )


def test_criterion_06_logical_subspace_identity(core_record):
    devs = [logical_subspace_identity_check(core_record, n) for n in (50, 100, 150)]
    ok = devs[0] > devs[1] > devs[2]
    _report(6, "logical-subspace identity", ok, f"deviations {np.round(devs, 4)}")


def test_criterion_07_gaussian_bound():
    rng = np.random.default_rng(0)
    targets = [vec for _, vec in core_states()]
    for _ in range(50):
        u = rng.standard_normal(3)
        targets.append(u / np.linalg.norm(u))
    # one lockstep search over the (76, 3) stack; per target it returns the
    # values separate calls would (test_batched_search_equals_single_target_calls)
    numeric, _ = minimize_over_gaussians(np.array(targets), budget=120, seed=0)
    gaps = numeric - np.array([gaussian_bound(u) for u in targets])
    worst_gap = max(0.0, float(np.max(np.abs(gaps))))
    worst_violation = min(0.0, float(np.min(gaps)))
    ok = worst_gap <= 1e-3 and worst_violation >= -1e-9
    _report(
        7,
        "Gaussian bound",
        ok,
        f"max |gap| {worst_gap:.2e}, worst violation {worst_violation:.2e}",
    )


def test_criterion_08_witness_from_samples():
    vac = np.array([1.0 + 0j])
    u = np.array([0.0, 0.0, 1.0])
    vac_ref = 2 - (
        (2 * math.exp(-math.pi) + math.exp(-2 * math.pi)) / 3 + math.exp(-math.pi / 4)
    )
    est_vac = estimate_witness(measure_quadratures(vac, 100_000, seed=0), u)
    op = gkp_operator(u, 150)
    _, psi = ground_state(op)
    exact = expectation(op, psi)
    est_gs = estimate_witness(measure_quadratures(psi, 100_000, seed=0), u)
    dev_vac = abs(est_vac.value - vac_ref) / est_vac.std_error
    dev_gs = abs(est_gs.value - exact) / est_gs.std_error
    margin = (gaussian_bound(u) - est_gs.value) / est_gs.std_error
    ok = dev_vac <= 4 and dev_gs <= 4 and margin > 4
    _report(
        8,
        "witness from samples",
        ok,
        f"vacuum {dev_vac:.2f} sigma, gs {dev_gs:.2f} sigma, "
        f"below bound by {margin:.0f} sigma",
    )


def test_criterion_09_ksg_oracle():
    rng = np.random.default_rng(42)
    worst = 0.0
    for rho in (0.0, 0.5, 0.9):
        xs = rng.standard_normal(10_000)
        ys = rho * xs + math.sqrt(1 - rho**2) * rng.standard_normal(10_000)
        err = abs(ksg_mutual_information(xs, ys) + 0.5 * math.log(1 - rho**2))
        worst = max(worst, err)
    _report(9, "KSG estimator oracle", worst < 0.05, f"max error {worst:.3f} nats")


def test_criterion_10_wigner_integrity():
    axis = np.linspace(-12, 12, 361)
    worst_mass = 0.0
    worst_peak = 0.0
    worst_marginal = 0.0
    for u in ((0, 0, 1), (1, 0, 0), (S2, S2, 0)):
        for cutoff in (10, 50):
            _, psi = ground_state(gkp_operator(u, cutoff))
            grid = wigner(psi, axis, axis)
            worst_mass = max(worst_mass, abs(grid.mass() - 1.0))
            worst_peak = max(worst_peak, float(np.abs(grid.values).max()) - 1 / math.pi)
            pdf = np.abs(rotated_wavefunction(psi, 0.0, axis)) ** 2
            worst_marginal = max(
                worst_marginal, float(np.abs(marginal_x(grid) - pdf).max())
            )
    ok = worst_mass < 1e-4 and worst_peak <= 1e-9 and worst_marginal < 1e-4
    _report(
        10,
        "Wigner integrity",
        ok,
        f"mass err {worst_mass:.1e}, peak excess {worst_peak:.1e}, "
        f"marginal err {worst_marginal:.1e}",
    )


def _strip_timestamps(path):
    with open(path) as fh:
        text = fh.read()
    text = re.sub(r"# timestamp: .*\n", "", text)
    return re.sub(r'"timestamp": "[^"]*"', '"timestamp": ""', text)


def test_criterion_11_determinism(tmp_path, core_record, desk_record, capsys):
    # criterion 4 inputs: core-state sweep recomputed from scratch
    atlas = order_greedy(
        Atlas(
            points=np.array([vec for _, vec in core_states()]),
            labels=[label for label, _ in core_states()],
        )
    )
    again4 = run_sweep(atlas, [50, 100, 150])
    same4 = all(
        np.array_equal(
            core_record.results[n].expectation, again4.results[n].expectation
        )
        for n in (50, 100, 150)
    )
    # criterion 5 inputs: desk-scale sweep recomputed from scratch
    again5 = run_sweep(order_greedy(sample_sphere(0.35, seed=0)), desk_record.cutoffs)
    same5 = all(
        np.array_equal(
            desk_record.results[n].expectation, again5.results[n].expectation
        )
        for n in desk_record.cutoffs
    )
    # criterion 8 via the CLI: measure twice, compare files modulo timestamps
    outs = []
    for name in ("m1", "m2"):
        out = tmp_path / name
        code = main(
            [
                "measure", "--u", "0", "--cutoff", "150",
                "--counts", "100000", "--seed", "0", "--out", str(out),
            ]
        )
        assert code == 0
        outs.append(_strip_timestamps(out / "measure.json"))
    capsys.readouterr()
    same8 = outs[0] == outs[1]
    ok = same4 and same5 and same8
    _report(
        11,
        "determinism",
        ok,
        f"core sweep {same4}, desk sweep {same5}, measure files {same8}",
    )
