import logging
import tracemalloc

import numpy as np
import pytest
from scipy.special import digamma

from gkpkit import analysis
from gkpkit.analysis import (
    _count_within,
    _kth_neighbour_distance,
    extrapolate_slope,
    ksg_mutual_information,
    regression_per_cutoff,
)
from gkpkit.bloch import Atlas, infidelity_matrix, sample_sphere
from gkpkit.errors import InvalidArgumentError
from gkpkit.sweep import CutoffResult, SweepRecord


def _synthetic_record(slope, intercept=0.0, seed=0):
    rng = np.random.default_rng(seed)
    infid = rng.uniform(0, 1, size=(8, 8))
    record = SweepRecord(
        atlas=Atlas(points=np.zeros((8, 3))),
        cutoffs=[10],
        infidelity=infid,
    )
    record.results[10] = CutoffResult(slope * infid + intercept, None, None)
    return record


def test_regression_exact_line():
    stats = regression_per_cutoff(_synthetic_record(2.0))
    assert stats[10].slope == pytest.approx(2.0, abs=1e-10)
    assert stats[10].intercept == pytest.approx(0.0, abs=1e-10)
    assert stats[10].correlation_error == pytest.approx(0.0, abs=1e-10)


def test_regression_rejects_tiny_input():
    record = SweepRecord(
        atlas=Atlas(points=np.zeros((1, 3))),
        cutoffs=[10],
        infidelity=np.array([[0.0]]),
    )
    record.results[10] = CutoffResult(np.array([[0.0]]), None, None)
    with pytest.raises(InvalidArgumentError):
        regression_per_cutoff(record)


def _correlated_gaussian(rho, size, seed):
    rng = np.random.default_rng(seed)
    xs = rng.standard_normal(size)
    ys = rho * xs + np.sqrt(1 - rho**2) * rng.standard_normal(size)
    return xs, ys


@pytest.mark.parametrize("rho", [0.0, 0.5, 0.9])
def test_ksg_gaussian_oracle(rho):
    xs, ys = _correlated_gaussian(rho, 10_000, seed=42)
    got = ksg_mutual_information(xs, ys)
    ref = -0.5 * np.log(1 - rho**2)
    assert abs(got - ref) < 0.05


def test_ksg_deterministic_relation_grows_with_samples():
    rng = np.random.default_rng(1)
    small = rng.standard_normal(500)
    large = rng.standard_normal(5000)
    mi_small = ksg_mutual_information(small, small)
    mi_large = ksg_mutual_information(large, large)
    assert mi_large > mi_small > 1.0


def test_ksg_handles_duplicates():
    xs = np.repeat([0.0, 1.0, 2.0], 10)
    got = ksg_mutual_information(xs, xs)
    assert np.isfinite(got)


def _ksg_brute_force(xs, ys, k=4):
    """O(M^2) KSG with the same jitter rule, counts and digamma."""
    joint = np.column_stack((xs, ys))
    if np.unique(joint, axis=0).shape[0] < xs.size:
        joint = joint + 1e-12 * np.random.default_rng(0).standard_normal(joint.shape)
        xs, ys = joint[:, 0], joint[:, 1]
    dx = np.abs(xs[:, None] - xs[None, :])
    dy = np.abs(ys[:, None] - ys[None, :])
    eps = np.sort(np.maximum(dx, dy), axis=1)[:, k] - 1e-15
    n_x = np.sum(dx <= eps[:, None], axis=1) - 1
    n_y = np.sum(dy <= eps[:, None], axis=1) - 1
    return digamma(k) + digamma(xs.size) - np.mean(digamma(n_x + 1) + digamma(n_y + 1))


@pytest.mark.parametrize("k", [1, 4, 7])
def test_ksg_matches_brute_force_with_ties(k):
    rng = np.random.default_rng(3)
    xs = np.round(rng.standard_normal(300), 1)  # ties in x
    noise = 0.6 * rng.standard_normal(300)
    for ys in (0.8 * xs + noise, np.round(0.8 * xs + noise, 2)):  # + joint ties
        got = ksg_mutual_information(xs, ys, k=k)
        assert abs(got - _ksg_brute_force(xs, ys, k)) <= 1e-12


def _ksg_kd_tree(xs, ys, k):
    """The estimator as written with scipy's k-d tree: same jitter rule,
    neighbour counts by query_ball_point and harmonic-number table."""
    from scipy.spatial import cKDTree

    m = xs.size
    joint = np.column_stack((xs, ys))
    if np.unique(joint, axis=0).shape[0] < m:
        joint = joint + 1e-12 * np.random.default_rng(0).standard_normal(joint.shape)
        xs, ys = joint[:, 0], joint[:, 1]
    eps = cKDTree(joint).query(joint, k=k + 1, p=np.inf)[0][:, k] - 1e-15
    counts = [
        cKDTree(v[:, None]).query_ball_point(
            v[:, None], eps, p=np.inf, return_length=True
        ) - 1
        for v in (xs, ys)
    ]
    harmonic = np.concatenate(([0.0], np.cumsum(1.0 / np.arange(1, m + 1))))
    return float(
        harmonic[k - 1] + harmonic[m - 1]
        - np.mean(harmonic[counts[0]] + harmonic[counts[1]])
    )


@pytest.mark.parametrize("k", [1, 4, 17, 40])
def test_ksg_equals_kd_tree_estimator(k, monkeypatch):
    rng = np.random.default_rng(k)
    sets = []
    for m in (k + 1, k + 2, 300):
        xs = rng.standard_normal(m)
        sets.append((xs, 0.7 * xs + rng.standard_normal(m)))  # untied
        ints = rng.integers(0, 6, size=(2, m)).astype(float)
        sets.append((ints[0], ints[0] + ints[1]))  # ties in x, y and joint
        sets.append((1000 + ints[0], ints[1]))  # ties where rounding bites
        signs = np.where(rng.random(m) < 0.5, -1.0, 1.0)
        sets.append((signs * ints[0] * (ints[0] < 2), signs * ints[1]))  # +-0.0
    xs = rng.standard_normal(300)
    sets.append((xs, 3.0 * xs + rng.standard_normal(300)))  # scanned along y
    assert np.ptp(sets[-1][1]) > np.ptp(sets[-1][0])
    # desk-shaped: all pairs of the 26 core states, E = 2(1 - F) + noise
    infid = infidelity_matrix(sample_sphere(0.9, 0).points).ravel()
    sets.append((infid, 2.0 * infid + 0.05 * rng.standard_normal(infid.size)))
    for block in (analysis.KSG_BLOCK, 1, 7):  # sets span many blocks
        monkeypatch.setattr(analysis, "KSG_BLOCK", block)
        for xs, ys in sets:
            assert ksg_mutual_information(xs, ys, k=k) == _ksg_kd_tree(xs, ys, k)
            assert np.array_equal(
                _kth_neighbour_distance(xs, ys, k), _kth_neighbour_distance(ys, xs, k)
            )
    # the marginal counts do not depend on the order of the queries
    xs, ys = sets[-1]
    radius = _kth_neighbour_distance(xs, ys, k) - 1e-15
    perm = rng.permutation(xs.size)
    for values in (xs, ys):
        assert np.array_equal(
            _count_within(values[perm], radius[perm]), _count_within(values, radius)[perm]
        )


def test_ksg_memory_is_bounded():
    rng = np.random.default_rng(0)
    xs = rng.standard_normal(40_000)
    ys = 0.7 * xs + rng.standard_normal(40_000)
    tracemalloc.start()
    try:
        ksg_mutual_information(xs, ys)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16e6


def test_ksg_input_validation():
    with pytest.raises(InvalidArgumentError):
        ksg_mutual_information([1, 2, 3], [1, 2])
    with pytest.raises(InvalidArgumentError):
        ksg_mutual_information([1, 2, 3], [1, 2, 3], k=4)
    with pytest.raises(InvalidArgumentError):
        ksg_mutual_information([1, 2, 3], [1, 2, 3], k=0)


def test_extrapolation_exact_recovery():
    ns = np.arange(25, 151, 5)
    slopes = {int(n): 2.0 - 5.0 / n for n in ns}
    result = extrapolate_slope(slopes)
    assert result.m_infinity == pytest.approx(2.0, abs=1e-6)
    assert result.amplitude == pytest.approx(5.0, rel=1e-4)
    assert result.rate == pytest.approx(1.0, rel=1e-4)
    assert result.window_std < 1e-4


def test_extrapolation_positive_fit_parameters():
    ns = np.arange(25, 126, 10)
    slopes = {int(n): 2.0 - 3.0 * n**-0.7 for n in ns}
    result = extrapolate_slope(slopes)
    assert result.amplitude > 0
    assert result.rate > 0


def test_extrapolation_needs_five_cutoffs():
    slopes = {10: 1.0, 20: 1.5, 30: 1.7, 40: 1.8}
    with pytest.raises(InvalidArgumentError):
        extrapolate_slope(slopes)


def test_extrapolation_window_restriction():
    ns = np.arange(25, 151, 5)
    slopes = {int(n): 2.0 - 5.0 / n for n in ns}
    result = extrapolate_slope({n: m for n, m in slopes.items() if 50 <= n <= 120})
    assert result.m_infinity == pytest.approx(2.0, abs=1e-5)


@pytest.mark.parametrize("rate", [0.3, 0.7, 1.0, 2.3])
def test_extrapolation_recovers_exact_power_laws(rate):
    slopes = {int(n): 2.0 - 5.0 * float(n) ** -rate for n in range(25, 151, 5)}
    result = extrapolate_slope(slopes)
    assert abs(result.m_infinity - 2.0) <= 1e-10
    assert abs(result.amplitude / 5.0 - 1.0) <= 1e-10
    assert abs(result.rate - rate) <= 1e-10
    assert abs(result.window_mean - 2.0) <= 1e-10
    assert result.failed_windows == []


def test_extrapolation_insensitive_to_last_bits():
    rng = np.random.default_rng(0)
    slopes = {
        n: 2.0 - 2.7 * n**-0.8 + 2e-3 * rng.standard_normal() for n in range(5, 121, 5)
    }
    reference = extrapolate_slope(slopes)
    for seed in range(5):
        jitter = np.random.default_rng(100 + seed)
        perturbed = {
            n: m * (1 + 1e-15 * jitter.standard_normal()) for n, m in slopes.items()
        }
        result = extrapolate_slope(perturbed)
        assert abs(result.window_mean - reference.window_mean) <= 1e-8
        assert result.failed_windows == reference.failed_windows


def test_extrapolation_records_failed_windows(caplog):
    # from N = 100 on, a decaying power law: the windows there fit A = -5
    slopes = {
        n: 2.0 - 5.0 / n if n <= 100 else 1.9 + 5.0 / n for n in range(25, 151, 5)
    }
    with caplog.at_level(logging.WARNING, logger="gkpkit.analysis"):
        result = extrapolate_slope(slopes)
    messages = [r.getMessage() for r in caplog.records if r.name == "gkpkit.analysis"]
    assert messages == [
        f"power-law fit failed for window start {w['start']}: {w['reason']}"
        for w in result.failed_windows
    ]
    assert messages[-1] == (
        "power-law fit failed for window start 130: amplitude -5 is not positive"
    )
    reasons = {w["start"]: w["reason"] for w in result.failed_windows}
    assert sorted(reasons) == list(range(70, 131, 5))
    assert all("pinned at bound" in reasons[n] for n in range(70, 100, 5))
    assert all(reasons[n] == "amplitude -5 is not positive" for n in range(100, 131, 5))
