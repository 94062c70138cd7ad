"""Partition scored comments into qualified and unqualified groups.

The primary strategy fits a two-component 1-D Gaussian mixture to the
reconstruction losses by expectation-maximization and cuts at the point
where the posterior responsibility of the low-loss component drops to 0.5,
solved in closed form: between the two means when a crossing lies there,
else at the upper crossing when the low-loss component is the narrower one.
A fit with neither is refused.  A percentile partition is the alternative;
at p = 1 it keeps every record, the rule-filter-only ablation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

SIGMA_FLOOR = 1e-6
_LOG_2PI = math.log(2.0 * math.pi)
_CHUNK = 1 << 13  # most losses the EM fit works on at once


@dataclass(frozen=True)
class GmmFit:
    """Two-component mixture over losses; the qualified component has the lower mean."""

    pi: float  # mixture weight of the qualified component
    mu_q: float
    sigma_q: float
    mu_uq: float
    sigma_uq: float
    loglik_trace: tuple[float, ...]
    converged: bool  # False when EM stopped at max_iter, not at tol


def dividing_point(pi, mu_q, sigma_q, mu_uq, sigma_uq) -> float:
    """Where the posterior of the component at ``mu_q`` falls to 0.5.

    The arguments are a mixture's parameters as in :class:`GmmFit`, with
    ``mu_q <= mu_uq`` and ``pi`` the weight of the component at ``mu_q``.
    The gap ``log pi N(x; mu_q, sigma_q) - log (1 - pi) N(x; mu_uq, sigma_uq)``
    is ``a x^2 + b x + c``, with roots taken in the cancellation-free form
    ``q / a`` and ``c / q``.  The gap falls strictly between the means, so a
    root there is the cut.  Without one, a narrower component at ``mu_q`` is
    cut at the upper root.  Any other mixture has no cut of the form
    ``loss <= t`` and raises :class:`ValueError`.
    """
    a = 0.5 / sigma_uq**2 - 0.5 / sigma_q**2
    b = mu_q / sigma_q**2 - mu_uq / sigma_uq**2
    c = (0.5 * (mu_uq / sigma_uq) ** 2 - 0.5 * (mu_q / sigma_q) ** 2
         + math.log(pi * sigma_uq / ((1.0 - pi) * sigma_q)))
    disc = b * b - 4.0 * a * c
    if disc > 0.0:
        q = -0.5 * (b + math.copysign(math.sqrt(disc), b))
        roots = (c / q, q / a) if a else (c / q,)
        for root in roots:
            if mu_q < root < mu_uq:
                return root
        if sigma_q < sigma_uq:
            return max(roots)
    raise ValueError(
        f"the gmm fit (pi {pi:.6g}, mu_q {mu_q:.6g}, sigma_q {sigma_q:.6g}, mu_uq {mu_uq:.6g}, "
        f"sigma_uq {sigma_uq:.6g}) has no cut where the low-loss component's posterior "
        "falls to 0.5; use --strategy percentile"
    )


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
    number >= 0, and every loss must be finite; otherwise :class:`ValueError`.

    Each round walks the losses twice in chunks of at most ``_CHUNK``: the
    first for the log-likelihood, the weight and the new means, the second,
    under the same parameters, for the spreads around those means.  Beyond
    ``losses`` and the transient copy its quartiles take, its memory is four
    chunk-sized buffers, whatever the number of losses.  The chunks are the
    leaves of numpy's pairwise summation, so every sum equals ``np.sum``
    over the whole array.
    """
    check_partition_settings("gmm", max_iter=max_iter, tol=tol)
    x = np.asarray(losses, dtype=np.float64)
    if x.ndim != 1 or x.size < 10:
        raise ValueError(
            "EM-GMM needs at least 10 loss samples; use the percentile strategy instead"
        )
    lowest, highest = _finite_range(x)
    if lowest == highest:
        raise ValueError(
            "EM-GMM needs at least two distinct loss values; use the percentile strategy instead"
        )

    mu_q, mu_uq = _quartiles(x)
    if mu_q == mu_uq:
        mu_q, mu_uq = lowest, highest
    sigma = max(float(x.std()), SIGMA_FLOOR)
    sigma_q = sigma_uq = sigma
    pi = 0.5

    # Four chunk-sized buffers serve every round.  Length-N buffers cost the
    # partition stage 32 B per record; new arrays per expression cost more.
    bufs = np.empty((4, min(x.size, _CHUNK)))
    trace: list[float] = []
    converged = False
    for _ in range(max_iter):
        mixture = (pi, mu_q, sigma_q, mu_uq, sigma_uq)
        loglik, weight_q, sum_qx, sum_ux = _tree_sum(x, _first_moments, bufs, mixture)
        if trace and loglik - trace[-1] < tol:
            trace.append(loglik)
            converged = True
            break
        trace.append(loglik)

        # M step
        weight_u = float(x.size - weight_q)
        safe_q = max(weight_q, 1e-300)
        safe_u = max(weight_u, 1e-300)
        mu_q = sum_qx / safe_q
        mu_uq = sum_ux / safe_u
        square_q, square_u = _tree_sum(x, _second_moments, bufs, mixture, mu_q, mu_uq)
        sigma_q = max(math.sqrt(square_q / safe_q), SIGMA_FLOOR)
        sigma_uq = max(math.sqrt(square_u / safe_u), SIGMA_FLOOR)
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
        loglik_trace=tuple(trace),
        converged=converged,
    )


def _quartiles(x: np.ndarray) -> tuple[float, float]:
    """The 25th and 75th percentiles of ``x``, as ``np.percentile`` gives them.

    Both come from one ``np.partition`` copy of ``x``, where ``np.percentile``
    copies ``x`` once per call and, through ``np.unique``, imports
    ``numpy.ma`` (about 2 MB).  The steps are numpy's: the order statistics
    ``a`` and ``b`` around the index ``(n - 1) q``, both the last one from
    ``n - 1`` on, and ``a + (b - a) t``, or ``b - (b - a) (1 - t)`` when
    ``t >= 0.5``; so the result is numpy's bit for bit, save that where
    ``x`` holds both 0.0 and -0.0, a zero quartile may differ in sign (which
    zero lands where depends on the partition).  The EM fit only squares
    ``x - mu``, so that sign never reaches it.
    """
    spots = []
    for q in (0.25, 0.75):
        at = (x.size - 1) * q
        low = math.floor(at)
        high = low + 1
        if at >= x.size - 1:  # numpy's index -1 for both; t is then at + 1, as numpy's
            low = high = -1
        spots.append((low, high, at - low))
    part = np.partition(x, sorted({i for low, high, _ in spots for i in (low, high)}))
    out = []
    for low, high, t in spots:
        a, b = float(part[low]), float(part[high])
        d = b - a
        out.append(b - d * (1.0 - t) if t >= 0.5 else a + d * t)
    return out[0], out[1]


def _finite_range(x: np.ndarray) -> tuple[float, float]:
    """``(min, max)`` of ``x``; :class:`ValueError` if any value is NaN or infinite."""
    lowest, highest = float(x.min()), float(x.max())  # NaN propagates into both
    if math.isfinite(lowest) and math.isfinite(highest):
        return lowest, highest
    bad = ~np.isfinite(x)
    raise ValueError(
        f"EM-GMM needs finite losses, but {int(np.count_nonzero(bad))} of {x.size} are NaN "
        f"or infinite (the first at position {int(np.argmax(bad))})"
    )


def _tree_sum(x: np.ndarray, leaf, *args) -> tuple[float, ...]:
    """The sums ``leaf(piece, *args)`` returns, added over the pieces of ``x``.

    ``x`` is split as numpy's pairwise summation splits an array, down to
    pieces of at most ``_CHUNK``, and the two halves' sums are added left +
    right.  So each sum is bit-identical to one ``np.sum`` over all of ``x``
    when ``leaf`` takes it with one ``np.add.reduce`` (what ``np.sum`` runs).
    """
    if x.size <= _CHUNK:
        return leaf(x, *args)
    half = x.size // 2 - (x.size // 2) % 8
    left = _tree_sum(x[:half], leaf, *args)
    right = _tree_sum(x[half:], leaf, *args)
    return tuple(a + b for a, b in zip(left, right))


def _e_step(x: np.ndarray, bufs: np.ndarray, pi, mu_q, sigma_q, mu_uq, sigma_uq):
    """``(resp_q, resp_u, log_mix, spare)`` of ``x`` under a mixture, as views of ``bufs``.

    ``resp_q`` and ``resp_u`` are the posteriors of the components at
    ``mu_q`` and ``mu_uq``, ``log_mix`` the log mixture density, and the
    spare view is free for the caller.
    """
    a, b, c, d = bufs[:, : x.size]
    # a = log(pi) + logpdf_q(x), b = log(1 - pi) + logpdf_uq(x)
    for buf, weight, mu, sd in ((a, pi, mu_q, sigma_q), (b, 1.0 - pi, mu_uq, sigma_uq)):
        np.subtract(x, mu, out=buf)
        np.divide(buf, sd, out=buf)
        np.square(buf, out=buf)
        np.multiply(0.5, buf, out=buf)
        np.subtract(-0.5 * _LOG_2PI - math.log(sd), buf, out=buf)
        np.add(math.log(weight), buf, out=buf)
    # c = log_mix = top + log(exp(a - top) + exp(b - top)), top = max(a, b)
    np.maximum(a, b, out=c)
    np.subtract(a, c, out=d)
    np.exp(d, out=d)
    np.subtract(b, c, out=b)
    np.exp(b, out=b)
    np.add(d, b, out=d)
    np.log(d, out=d)
    np.add(c, d, out=c)
    np.exp(np.subtract(a, c, out=a), out=a)
    np.subtract(1.0, a, out=d)
    return a, d, c, b


def _first_moments(x: np.ndarray, bufs: np.ndarray, mixture) -> tuple[float, ...]:
    """Sums over ``x`` of log_mix, resp_q, resp_q * x and resp_u * x."""
    resp_q, resp_u, log_mix, spare = _e_step(x, bufs, *mixture)
    return (
        float(np.add.reduce(log_mix)),
        float(np.add.reduce(resp_q)),
        float(np.add.reduce(np.multiply(resp_q, x, out=spare))),
        float(np.add.reduce(np.multiply(resp_u, x, out=spare))),
    )


def _second_moments(x: np.ndarray, bufs: np.ndarray, mixture, mu_q, mu_uq) -> tuple[float, ...]:
    """Sums over ``x`` of resp_q * (x - mu_q)^2 and resp_u * (x - mu_uq)^2."""
    resp_q, resp_u, _, spare = _e_step(x, bufs, *mixture)
    return (
        float(np.add.reduce(_weighted_square(resp_q, x, mu_q, spare))),
        float(np.add.reduce(_weighted_square(resp_u, x, mu_uq, spare))),
    )


def _weighted_square(resp: np.ndarray, x: np.ndarray, mu: float, out: np.ndarray) -> np.ndarray:
    """``resp * (x - mu) ** 2``, written to ``out``."""
    np.subtract(x, mu, out=out)
    np.square(out, out=out)
    return np.multiply(resp, out, out=out)


def check_partition_settings(strategy: str, p: float | None = None, max_iter: int = 200,
                             tol: float = 1e-8) -> None:
    """Raise ``ValueError`` on settings that :func:`partition` refuses whatever the losses.

    ``percentile`` reads only ``p``, and ``gmm`` only ``max_iter`` and ``tol``.
    """
    if strategy == "percentile":
        if p is None or not 0.0 < p <= 1.0:
            raise ValueError("percentile strategy needs p in (0, 1]")
    elif strategy != "gmm":
        raise ValueError(f'unknown partition strategy "{strategy}"')
    elif max_iter < 1:
        raise ValueError(f"max_iter must be at least 1, got {max_iter}")
    elif not 0.0 <= tol < math.inf:
        raise ValueError(f"tol must be a finite number >= 0, got {tol}")


def partition(
    ids: Sequence[str] | None,
    losses: Sequence[float],
    strategy: str = "gmm",
    p: float | None = None,
    max_iter: int = 200,
    tol: float = 1e-8,
) -> tuple[np.ndarray, dict]:
    """Split records into retained and discarded groups by their losses.

    ``losses[i]`` is the loss of the record ``ids[i]``; a compact sequence
    such as ``array('d')`` is read without copying.  Strategies: ``gmm``
    retains losses at or below the mixture's :func:`dividing_point`; ``percentile``
    retains the floor(p * n) smallest losses with boundary ties broken by
    ascending id.  Only ``percentile`` reads the ids; ``gmm`` takes ``ids=None``.
    Returns ``(keep, report)``: a bool mask, True at each retained input
    position, and a report of the strategy parameters and counts.
    """
    check_partition_settings(strategy, p, max_iter, tol)
    n = len(losses)
    if ids is not None and len(ids) != n:
        raise ValueError("ids and losses differ in length")
    if n == 0:
        raise ValueError("nothing to partition: input is empty")
    losses = np.asarray(losses, dtype=np.float64)
    if not np.isfinite(losses).all():
        raise ValueError("scores must be finite")

    report: dict = {"strategy": strategy, "n_input": n}
    if strategy == "gmm":
        fit = fit_em_gmm(losses, max_iter=max_iter, tol=tol)
        threshold = dividing_point(fit.pi, fit.mu_q, fit.sigma_q, fit.mu_uq, fit.sigma_uq)
        keep_mask = losses <= threshold
        report.update(
            threshold=threshold,
            pi=fit.pi,
            mu_q=fit.mu_q,
            sigma_q=fit.sigma_q,
            mu_uq=fit.mu_uq,
            sigma_uq=fit.sigma_uq,
            em_iterations=len(fit.loglik_trace),
            converged=fit.converged,
        )
    else:  # percentile
        if ids is None:
            raise ValueError("the percentile strategy breaks ties by id and needs the ids")
        keep_count = int(math.floor(p * n))
        by_loss = sorted(range(n), key=lambda i: (losses[i], ids[i]))
        keep_mask = np.zeros(n, dtype=bool)
        keep_mask[by_loss[:keep_count]] = True
        boundary = losses[by_loss[keep_count - 1]] if keep_count else None
        report.update(p=p, boundary_loss=None if boundary is None else float(boundary))

    n_retained = int(np.count_nonzero(keep_mask))
    report["n_retained"] = n_retained
    report["n_discarded"] = n - n_retained
    report["retained_fraction"] = n_retained / n
    return keep_mask, report
