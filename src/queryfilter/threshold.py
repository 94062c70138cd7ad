"""Partition scored comments into qualified and unqualified groups.

The primary strategy fits a two-component 1-D Gaussian mixture to the
reconstruction losses by expectation-maximization and cuts at the point
where the posterior responsibility of the low-loss component drops to 0.5.
Percentile and two-means partitions are provided as alternatives.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import compress
from typing import Sequence

import numpy as np

SIGMA_FLOOR = 1e-6
_LOG_2PI = math.log(2.0 * math.pi)


@dataclass(frozen=True)
class GmmFit:
    """Two-component mixture over losses; the qualified component has the lower mean."""

    pi: float  # mixture weight of the qualified component
    mu_q: float
    sigma_q: float
    mu_uq: float
    sigma_uq: float
    threshold: float
    loglik_trace: tuple[float, ...]


@dataclass(frozen=True)
class PartitionResult:
    keep: np.ndarray  # bool, one per input position: True where retained
    retained: list  # ids, in input order
    discarded: list
    report: dict


def _norm_logpdf(x: np.ndarray, mu: float, sigma: float) -> np.ndarray:
    return -0.5 * _LOG_2PI - math.log(sigma) - 0.5 * ((x - mu) / sigma) ** 2


def _mixture_loglik_and_resp(x, pi, mu_q, sigma_q, mu_uq, sigma_uq):
    log_q = math.log(pi) + _norm_logpdf(x, mu_q, sigma_q)
    log_u = math.log(1.0 - pi) + _norm_logpdf(x, mu_uq, sigma_uq)
    top = np.maximum(log_q, log_u)
    log_mix = top + np.log(np.exp(log_q - top) + np.exp(log_u - top))
    resp_q = np.exp(log_q - log_mix)
    return float(np.sum(log_mix)), resp_q


def _posterior_gap(x, pi, mu_q, sigma_q, mu_uq, sigma_uq) -> float:
    # Positive while the qualified component dominates at x.
    return (math.log(pi) + float(_norm_logpdf(np.float64(x), mu_q, sigma_q))) - (
        math.log(1.0 - pi) + float(_norm_logpdf(np.float64(x), mu_uq, sigma_uq))
    )


def _dividing_point(pi, mu_q, sigma_q, mu_uq, sigma_uq) -> float:
    """Root of equal posterior responsibility inside (mu_q, mu_uq), by bisection.

    Restricting the search to the open interval between the means keeps the
    retained region contiguous; without a sign change there, the midpoint is
    the documented fallback.
    """
    lo, hi = mu_q, mu_uq
    if hi - lo <= 0:
        return 0.5 * (lo + hi)
    args = (pi, mu_q, sigma_q, mu_uq, sigma_uq)
    f_lo = _posterior_gap(lo, *args)
    f_hi = _posterior_gap(hi, *args)
    if f_lo == 0.0:
        return lo
    if f_hi == 0.0:
        return hi
    if (f_lo > 0) == (f_hi > 0):
        return 0.5 * (lo + hi)
    while hi - lo > 1e-9:
        mid = 0.5 * (lo + hi)
        f_mid = _posterior_gap(mid, *args)
        if f_mid == 0.0:
            return mid
        if (f_mid > 0) == (f_lo > 0):
            lo, f_lo = mid, f_mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def decision_threshold(fit: GmmFit) -> float:
    """Loss value where both components are equally responsible."""
    return _dividing_point(fit.pi, fit.mu_q, fit.sigma_q, fit.mu_uq, fit.sigma_uq)


def fit_em_gmm(
    losses: Sequence[float],
    max_iter: int = 200,
    tol: float = 1e-8,
) -> GmmFit:
    """Fit the two-component mixture by EM.

    Means start at the 25th/75th percentiles (min/max when those coincide),
    both standard deviations at the overall standard deviation, and the
    mixture weight at 0.5.  Iteration stops when the log-likelihood gain
    falls below ``tol`` or after ``max_iter`` rounds.  The fit is
    deterministic.  ``max_iter`` must be at least 1 and ``tol`` a finite
    number >= 0; otherwise :class:`ValueError`.
    """
    if max_iter < 1:
        raise ValueError(f"max_iter must be at least 1, got {max_iter}")
    if not 0.0 <= tol < math.inf:
        raise ValueError(f"tol must be a finite number >= 0, got {tol}")
    x = np.asarray(losses, dtype=np.float64)
    if x.ndim != 1 or x.size < 10:
        raise ValueError(
            "EM-GMM needs at least 10 loss samples; use the percentile strategy instead"
        )
    if float(x.min()) == float(x.max()):
        raise ValueError(
            "EM-GMM needs at least two distinct loss values; use the percentile strategy instead"
        )

    mu_q = float(np.percentile(x, 25))
    mu_uq = float(np.percentile(x, 75))
    if mu_q == mu_uq:
        mu_q, mu_uq = float(x.min()), float(x.max())
    sigma = max(float(x.std()), SIGMA_FLOOR)
    sigma_q = sigma_uq = sigma
    pi = 0.5

    trace: list[float] = []
    for _ in range(max_iter):
        loglik, resp_q = _mixture_loglik_and_resp(x, pi, mu_q, sigma_q, mu_uq, sigma_uq)
        if trace and loglik - trace[-1] < tol:
            trace.append(loglik)
            break
        trace.append(loglik)

        weight_q = float(resp_q.sum())
        weight_u = float(x.size - weight_q)
        safe_q = max(weight_q, 1e-300)
        safe_u = max(weight_u, 1e-300)
        mu_q = float((resp_q * x).sum() / safe_q)
        mu_uq = float(((1.0 - resp_q) * x).sum() / safe_u)
        sigma_q = max(
            math.sqrt(float((resp_q * (x - mu_q) ** 2).sum() / safe_q)), SIGMA_FLOOR
        )
        sigma_uq = max(
            math.sqrt(float(((1.0 - resp_q) * (x - mu_uq) ** 2).sum() / safe_u)),
            SIGMA_FLOOR,
        )
        pi = min(max(weight_q / x.size, 1e-12), 1.0 - 1e-12)

    if mu_q > mu_uq:
        pi = 1.0 - pi
        mu_q, mu_uq = mu_uq, mu_q
        sigma_q, sigma_uq = sigma_uq, sigma_q

    return GmmFit(
        pi=pi,
        mu_q=mu_q,
        sigma_q=sigma_q,
        mu_uq=mu_uq,
        sigma_uq=sigma_uq,
        threshold=_dividing_point(pi, mu_q, sigma_q, mu_uq, sigma_uq),
        loglik_trace=tuple(trace),
    )


def kmeans_two(losses: Sequence[float], max_iter: int = 200):
    """Lloyd's algorithm on 1-D losses with k=2, centers seeded at min/max.

    Returns (low_center, high_center); assignment ties go to the low center.
    ``max_iter`` must be at least 1; otherwise :class:`ValueError`.
    """
    if max_iter < 1:
        raise ValueError(f"max_iter must be at least 1, got {max_iter}")
    x = np.asarray(losses, dtype=np.float64)
    if x.size == 0:
        raise ValueError("kmeans needs at least one sample")
    c_low, c_high = float(x.min()), float(x.max())
    for _ in range(max_iter):
        boundary = 0.5 * (c_low + c_high)
        low_mask = x <= boundary
        new_low = float(x[low_mask].mean()) if low_mask.any() else c_low
        new_high = float(x[~low_mask].mean()) if (~low_mask).any() else c_high
        if new_low == c_low and new_high == c_high:
            break
        c_low, c_high = new_low, new_high
    return c_low, c_high


def partition(
    ids: Sequence[str],
    losses: Sequence[float],
    strategy: str = "gmm",
    p: float | None = None,
    max_iter: int = 200,
    tol: float = 1e-8,
) -> PartitionResult:
    """Split records into retained and discarded groups by their losses.

    ``losses[i]`` is the loss of the record ``ids[i]``; a compact sequence
    such as ``array('d')`` is read without copying.  Strategies: ``gmm``
    retains losses at or below the mixture dividing point; ``percentile``
    retains the floor(p * n) smallest losses with boundary ties broken by
    ascending id; ``kmeans2`` retains the cluster around the lower center.
    Returned id lists preserve input order; the report carries the strategy
    parameters and counts.
    """
    if len(ids) != len(losses):
        raise ValueError("ids and losses differ in length")
    if len(ids) == 0:
        raise ValueError("nothing to partition")
    losses = np.asarray(losses, dtype=np.float64)
    if not np.isfinite(losses).all():
        raise ValueError("scores must be finite")

    report: dict = {"strategy": strategy, "n_input": len(ids)}
    if strategy == "gmm":
        fit = fit_em_gmm(losses, max_iter=max_iter, tol=tol)
        keep_mask = losses <= fit.threshold
        report.update(
            threshold=fit.threshold,
            pi=fit.pi,
            mu_q=fit.mu_q,
            sigma_q=fit.sigma_q,
            mu_uq=fit.mu_uq,
            sigma_uq=fit.sigma_uq,
            em_iterations=len(fit.loglik_trace),
        )
    elif strategy == "percentile":
        if p is None or not 0.0 < p <= 1.0:
            raise ValueError("percentile strategy needs p in (0, 1]")
        keep_count = int(math.floor(p * len(ids)))
        by_loss = sorted(range(len(ids)), key=lambda i: (losses[i], ids[i]))
        keep_mask = np.zeros(len(ids), dtype=bool)
        keep_mask[by_loss[:keep_count]] = True
        boundary = losses[by_loss[keep_count - 1]] if keep_count else None
        report.update(p=p, boundary_loss=None if boundary is None else float(boundary))
    elif strategy == "kmeans2":
        c_low, c_high = kmeans_two(losses, max_iter=max_iter)
        boundary = 0.5 * (c_low + c_high)
        keep_mask = losses <= boundary
        report.update(threshold=boundary, center_low=c_low, center_high=c_high)
    else:
        raise ValueError(f'unknown partition strategy "{strategy}"')

    retained = list(compress(ids, keep_mask))
    discarded = list(compress(ids, ~keep_mask))
    report["n_retained"] = len(retained)
    report["n_discarded"] = len(discarded)
    report["retained_fraction"] = len(retained) / len(ids)
    return PartitionResult(keep=keep_mask, retained=retained, discarded=discarded, report=report)
