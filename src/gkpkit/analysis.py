"""Regression, mutual information and slope extrapolation for sweep records."""

import logging
from dataclasses import dataclass

import numpy as np

from .errors import InvalidArgumentError, NumericalFailureError

log = logging.getLogger(__name__)


@dataclass
class RegressionStats:
    slope: float
    intercept: float
    correlation_error: float  # 1 - Pearson r
    mutual_information: float  # nats


@dataclass
class ExtrapolationResult:
    m_infinity: float
    amplitude: float
    rate: float
    window_mean: float
    window_std: float
    failed_windows: list  # {"start": N, "reason": text} per window not fitted


def ksg_mutual_information(xs, ys, k=4):
    """KSG (variant 1) mutual information estimate in nats.

    I = psi(k) + psi(M) - <psi(n_x + 1) + psi(n_y + 1)>, where n_x and n_y
    count strict max-norm neighbors within the k-th joint neighbor distance;
    psi(n) = H_(n-1) - gamma, and the gamma terms cancel, leaving harmonic
    numbers H. Duplicate joint points are broken by a 1e-12 seeded jitter.
    """
    xs = np.asarray(xs, dtype=float).ravel()
    ys = np.asarray(ys, dtype=float).ravel()
    if xs.size != ys.size:
        raise InvalidArgumentError("xs and ys must have the same length")
    m = xs.size
    if m < k + 1:
        raise InvalidArgumentError(f"need at least k+1 = {k + 1} samples, got {m}")
    from scipy.spatial import cKDTree  # here, so that only analyze imports scipy

    joint = np.column_stack((xs, ys))
    if np.unique(joint, axis=0).shape[0] < m:
        log.info("duplicate sample points; applying 1e-12 jitter")
        rng = np.random.default_rng(0)
        joint = joint + 1e-12 * rng.standard_normal(joint.shape)
        xs, ys = joint[:, 0], joint[:, 1]
    tree_joint = cKDTree(joint)
    dists, _ = tree_joint.query(joint, k=k + 1, p=np.inf)
    eps = dists[:, k]
    tree_x = cKDTree(xs[:, None])
    tree_y = cKDTree(ys[:, None])
    n_x = np.array(
        tree_x.query_ball_point(xs[:, None], eps - 1e-15, p=np.inf, return_length=True)
    ) - 1
    n_y = np.array(
        tree_y.query_ball_point(ys[:, None], eps - 1e-15, p=np.inf, return_length=True)
    ) - 1
    harmonic = np.concatenate(([0.0], np.cumsum(1.0 / np.arange(1, m + 1))))
    return float(
        harmonic[k - 1] + harmonic[m - 1] - np.mean(harmonic[n_x] + harmonic[n_y])
    )


def regression_per_cutoff(record, ksg_k=4):
    """Per-cutoff linear fit of expectation vs infidelity over all pairs."""
    x = record.infidelity.ravel()
    if x.size < 3:
        raise InvalidArgumentError("need at least 3 state pairs for regression")
    stats = {}
    for cutoff in record.cutoffs:
        y = record.expectation[cutoff].ravel()
        slope, intercept = np.polyfit(x, y, 1)
        r = np.corrcoef(x, y)[0, 1]
        mi = ksg_mutual_information(x, y, k=ksg_k)
        stats[cutoff] = RegressionStats(
            slope=float(slope),
            intercept=float(intercept),
            correlation_error=float(1.0 - r),
            mutual_information=mi,
        )
    return stats


_RATE_BOUNDS = (0.1, 10.0)


def _project(ns, ms, rates):
    """Least-squares m_inf, A and residual sum of squares of m = m_inf - A n^(-d)
    at each rate d, by a centred regression on n^(-d) (variable projection)."""
    x = ns ** -rates[:, None]
    xc = x - x.mean(axis=1, keepdims=True)
    yc = ms - ms.mean()
    amplitude = -(xc @ yc) / np.sum(xc * xc, axis=1)
    resid = yc + amplitude[:, None] * xc
    return ms.mean() + amplitude * x.mean(axis=1), amplitude, np.sum(resid**2, axis=1)


def _fit_window(ns, ms):
    """(m_inf, A, d) of one window, or RuntimeError. d comes from a log grid over
    _RATE_BOUNDS and four zoom grids over the cells beside the best point, each
    200 times narrower (a fifth moves window_mean on the desk slopes by 1e-14)."""
    rates = np.geomspace(*_RATE_BOUNDS, 401)
    best = int(np.argmin(_project(ns, ms, rates)[2]))
    if best in (0, rates.size - 1):
        raise RuntimeError(f"saturation rate {rates[best]:.3g} pinned at bound")
    for _ in range(4):
        rates = np.linspace(rates[best - 1], rates[best + 1], 401)
        m_inf, amplitude, rss = _project(ns, ms, rates)
        best = int(np.argmin(rss))
    if not amplitude[best] > 0:
        raise RuntimeError(f"amplitude {amplitude[best]:.3g} is not positive")
    return m_inf[best], amplitude[best], rates[best]


def extrapolate_slope(slopes):
    """Saturating power-law extrapolation m(N) = m_inf - A N^(-d).

    Fits every window [start, max N] with a start above N = 20 and at least
    five cutoffs (all cutoffs when no start qualifies). The headline m_inf,
    A and d are those of the widest window fitted; window_mean and
    window_std are taken over the windows fitted. A window whose best d
    sits at an end of [0.1, 10], or whose best A is not positive, goes to
    `failed_windows` with its reason.
    """
    ns = np.array(sorted(slopes), dtype=float)
    ms = np.array([slopes[int(n)] for n in ns])
    if ns.size < 5:
        raise InvalidArgumentError("need at least 5 cutoffs")
    window_starts = [n for n in ns if n > 20 and np.sum(ns >= n) >= 5] or [ns[0]]
    winners, failed = [], []
    for start in window_starts:
        try:
            winners.append(_fit_window(ns[ns >= start], ms[ns >= start]))
        except RuntimeError as exc:
            log.warning("power-law fit failed for window start %s: %s", start, exc)
            failed.append({"start": int(start), "reason": str(exc)})
    if not winners:
        raise NumericalFailureError(
            "power-law fit failed for every window", windows=len(window_starts)
        )
    m_infs = np.array([w[0] for w in winners])
    head = winners[0]
    return ExtrapolationResult(
        m_infinity=float(head[0]),
        amplitude=float(head[1]),
        rate=float(head[2]),
        window_mean=float(m_infs.mean()),
        window_std=float(m_infs.std()),
        failed_windows=failed,
    )
