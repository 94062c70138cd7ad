"""EM mixture fitting, dividing-point computation, and partition strategies."""

import math
from array import array

import numpy as np
import pytest

from queryfilter.threshold import (
    GmmFit,
    decision_threshold,
    fit_em_gmm,
    kmeans_two,
    partition,
)


def split(scored):
    """The (ids, losses) arguments of :func:`partition` for (id, loss) pairs."""
    return [rid for rid, _ in scored], [loss for _, loss in scored]


def closed_form_threshold(pi, mu_q, sigma_q, mu_uq, sigma_uq):
    """Independent oracle: solve the posterior-equality quadratic analytically.

    pi * N(x|mu_q, sigma_q) = (1 - pi) * N(x|mu_uq, sigma_uq) in log form is
    a quadratic in x; return its root inside (mu_q, mu_uq), else the midpoint.
    """
    a = 1.0 / (2.0 * sigma_uq**2) - 1.0 / (2.0 * sigma_q**2)
    b = mu_q / sigma_q**2 - mu_uq / sigma_uq**2
    c = (
        mu_uq**2 / (2.0 * sigma_uq**2)
        - mu_q**2 / (2.0 * sigma_q**2)
        + math.log(pi * sigma_uq / ((1.0 - pi) * sigma_q))
    )
    if abs(a) < 1e-14:
        roots = [] if b == 0 else [-c / b]
    else:
        disc = b * b - 4.0 * a * c
        if disc < 0:
            roots = []
        else:
            s = math.sqrt(disc)
            roots = [(-b - s) / (2.0 * a), (-b + s) / (2.0 * a)]
    inside = [r for r in roots if mu_q < r < mu_uq]
    return inside[0] if inside else 0.5 * (mu_q + mu_uq)


class TestFitEmGmm:
    def test_recovers_balanced_mixture(self):
        rng = np.random.default_rng(5)
        x = np.concatenate([rng.normal(1.0, 0.25, 500), rng.normal(4.0, 0.25, 500)])
        fit = fit_em_gmm(x)
        assert 0.45 <= fit.pi <= 0.55
        assert 0.9 <= fit.mu_q <= 1.1
        assert 3.9 <= fit.mu_uq <= 4.1

    def test_point_masses(self):
        # two exact point masses (doubled to meet the 10-sample floor)
        fit = fit_em_gmm([0.0] * 6 + [10.0] * 4)
        assert fit.mu_q == 0.0
        assert fit.mu_uq == 10.0
        assert abs(fit.pi - 0.6) < 1e-9

    def test_trace_non_decreasing(self):
        rng = np.random.default_rng(8)
        for data in (
            rng.normal(2.0, 1.0, 300),
            np.concatenate([rng.normal(0, 0.5, 100), rng.normal(5, 2.0, 200)]),
            rng.exponential(1.0, 200),
        ):
            fit = fit_em_gmm(data)
            diffs = np.diff(fit.loglik_trace)
            assert np.all(diffs >= -1e-9)

    def test_component_ordering(self):
        rng = np.random.default_rng(9)
        x = np.concatenate([rng.normal(6.0, 0.3, 400), rng.normal(1.0, 0.3, 100)])
        fit = fit_em_gmm(x)
        assert fit.mu_q <= fit.mu_uq
        assert fit.sigma_q >= 1e-6 and fit.sigma_uq >= 1e-6

    def test_too_few_samples_directs_to_percentile(self):
        with pytest.raises(ValueError, match="percentile"):
            fit_em_gmm([1.0, 2.0, 3.0])

    def test_constant_data_directs_to_percentile(self):
        with pytest.raises(ValueError, match="percentile"):
            fit_em_gmm([2.0] * 50)

    def test_deterministic(self):
        rng = np.random.default_rng(10)
        x = np.concatenate([rng.normal(1, 0.3, 200), rng.normal(3, 0.3, 200)])
        assert fit_em_gmm(x) == fit_em_gmm(x)


    @pytest.mark.parametrize("max_iter", [0, -1])
    def test_max_iter_below_one_rejected(self, max_iter):
        x = np.concatenate([np.linspace(0.0, 1.0, 10), np.linspace(5.0, 6.0, 10)])
        with pytest.raises(ValueError, match="max_iter must be at least 1"):
            fit_em_gmm(x, max_iter=max_iter)

    @pytest.mark.parametrize("tol", [-1e-8, math.nan, math.inf])
    def test_tol_not_finite_non_negative_rejected(self, tol):
        x = np.concatenate([np.linspace(0.0, 1.0, 10), np.linspace(5.0, 6.0, 10)])
        with pytest.raises(ValueError, match="tol must be a finite number >= 0"):
            fit_em_gmm(x, tol=tol)

    def test_one_iteration_and_zero_tol_accepted(self):
        x = np.concatenate([np.linspace(0.0, 1.0, 10), np.linspace(5.0, 6.0, 10)])
        assert len(fit_em_gmm(x, max_iter=1).loglik_trace) == 1
        assert fit_em_gmm(x, tol=0.0).mu_q < 1.0


class TestDecisionThreshold:
    def test_symmetric_midpoint(self):
        fit = GmmFit(0.5, 0.0, 1.0, 4.0, 1.0, 0.0, ())
        assert abs(decision_threshold(fit) - 2.0) < 1e-9

    def test_equal_variance_midpoint_with_any_means(self):
        fit = GmmFit(0.5, 1.0, 0.7, 5.0, 0.7, 0.0, ())
        assert abs(decision_threshold(fit) - 3.0) < 1e-9

    def test_matches_closed_form_quadratic(self):
        fit = GmmFit(0.6, 1.0, 0.5, 4.0, 0.5, 0.0, ())
        expected = closed_form_threshold(0.6, 1.0, 0.5, 4.0, 0.5)
        assert abs(decision_threshold(fit) - expected) < 1e-6

    def test_random_fits_match_oracle(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            pi = rng.uniform(0.2, 0.8)
            mu_q = rng.uniform(0.0, 2.0)
            mu_uq = mu_q + rng.uniform(1.0, 4.0)
            sigma_q = rng.uniform(0.1, 0.8)
            sigma_uq = rng.uniform(0.1, 0.8)
            fit = GmmFit(pi, mu_q, sigma_q, mu_uq, sigma_uq, 0.0, ())
            expected = closed_form_threshold(pi, mu_q, sigma_q, mu_uq, sigma_uq)
            assert abs(decision_threshold(fit) - expected) < 1e-6


class TestKmeansTwo:
    def test_separated_clusters(self):
        low, high = kmeans_two([1.0, 1.1, 0.9, 9.0, 9.1])
        assert abs(low - 1.0) < 0.2
        assert abs(high - 9.05) < 0.2

    def test_constant_data(self):
        low, high = kmeans_two([3.0] * 5)
        assert low == high == 3.0

    @pytest.mark.parametrize("max_iter", [0, -1])
    def test_max_iter_below_one_rejected(self, max_iter):
        with pytest.raises(ValueError, match="max_iter must be at least 1"):
            kmeans_two([1.0, 1.1, 0.9, 9.0, 9.1], max_iter=max_iter)


class TestPartition:
    def test_gmm_separated_clusters(self):
        # doubled version of the {1,1,1,9,9} example to satisfy the sample floor
        scored = [(f"lo{i}", 1.0 + 0.01 * i) for i in range(6)] + [
            (f"hi{i}", 9.0 + 0.01 * i) for i in range(4)
        ]
        result = partition(*split(scored), strategy="gmm")
        assert set(result.retained) == {f"lo{i}" for i in range(6)}
        assert result.report["n_retained"] == 6

    def test_percentile_half(self):
        scored = [(f"r{i}", float(i)) for i in range(10)]
        result = partition(*split(scored), strategy="percentile", p=0.5)
        assert set(result.retained) == {f"r{i}" for i in range(5)}
        assert result.report["p"] == 0.5

    def test_percentile_boundary_ties_by_id(self):
        scored = [("b", 1.0), ("a", 1.0), ("c", 1.0), ("d", 0.5)]
        result = partition(*split(scored), strategy="percentile", p=0.5)
        assert set(result.retained) == {"d", "a"}

    def test_percentile_one_retains_everything(self):
        scored = [(f"r{i}", float(i)) for i in range(7)]
        result = partition(*split(scored), strategy="percentile", p=1.0)
        assert result.retained == [f"r{i}" for i in range(7)]
        assert result.discarded == []

    def test_percentile_validation(self):
        scored = [("a", 1.0), ("b", 2.0)]
        for bad in (0.0, -0.5, 1.5, None):
            with pytest.raises(ValueError):
                partition(*split(scored), strategy="percentile", p=bad)

    def test_kmeans_lower_cluster(self):
        scored = [(f"lo{i}", 1.0 + 0.1 * i) for i in range(5)] + [
            (f"hi{i}", 8.0 + 0.1 * i) for i in range(5)
        ]
        result = partition(*split(scored), strategy="kmeans2")
        assert set(result.retained) == {f"lo{i}" for i in range(5)}

    def test_keep_mask_matches_retained_and_compact_losses_accepted(self):
        ids = [f"r{i}" for i in range(10)]
        losses = array("d", [1.0 + 0.01 * i if i % 2 else 9.0 + 0.01 * i for i in range(10)])
        result = partition(ids, losses, strategy="gmm")
        assert result.retained == [rid for rid, keep in zip(ids, result.keep) if keep]
        assert result.discarded == [rid for rid, keep in zip(ids, result.keep) if not keep]
        assert result.retained == [f"r{i}" for i in range(1, 10, 2)]
        with pytest.raises(ValueError, match="length"):
            partition(ids, losses[:-1], strategy="gmm")

    def test_unknown_strategy(self):
        with pytest.raises(ValueError, match="strategy"):
            partition(["a"], [1.0], strategy="median")

    def test_empty_input(self):
        with pytest.raises(ValueError):
            partition([], [], strategy="gmm")

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    @pytest.mark.parametrize("strategy", ["gmm", "percentile", "kmeans2"])
    def test_non_finite_loss_rejected(self, strategy, bad):
        scored = [(f"r{i}", 1.0 + i) for i in range(20)] + [("bad", bad)]
        with pytest.raises(ValueError, match="finite"):
            partition(*split(scored), strategy=strategy, p=0.5)

    def test_contiguous_split_invariant(self):
        rng = np.random.default_rng(12)
        losses = np.concatenate([rng.normal(1, 0.4, 60), rng.normal(5, 0.6, 40)])
        losses = np.abs(losses)
        scored = [(f"r{i}", float(v)) for i, v in enumerate(losses)]
        by_id = dict(scored)
        for strategy in ("gmm", "kmeans2"):
            result = partition(*split(scored), strategy=strategy)
            assert set(result.retained) | set(result.discarded) == set(by_id)
            assert not set(result.retained) & set(result.discarded)
            if result.retained and result.discarded:
                assert max(by_id[i] for i in result.retained) <= min(
                    by_id[i] for i in result.discarded
                )

    def test_gmm_retained_fraction_tracks_component_weight(self):
        rng = np.random.default_rng(20)
        n = 1000
        from_q = rng.random(n) < 0.6
        losses = np.where(from_q, rng.normal(1.0, 0.25, n), rng.normal(4.0, 0.25, n))
        scored = [(f"r{i}", float(abs(v))) for i, v in enumerate(losses)]
        result = partition(*split(scored), strategy="gmm")
        assert abs(result.report["retained_fraction"] - 0.6) <= 0.02

    def test_membership_permutation_invariant(self):
        rng = np.random.default_rng(13)
        losses = np.concatenate([rng.normal(1, 0.4, 30), rng.normal(5, 0.6, 30)])
        scored = [(f"r{i}", float(v)) for i, v in enumerate(losses)]
        shuffled = scored[::-1]
        for strategy, kwargs in (("gmm", {}), ("percentile", {"p": 0.4}), ("kmeans2", {})):
            a = partition(*split(scored), strategy=strategy, **kwargs)
            b = partition(*split(shuffled), strategy=strategy, **kwargs)
            assert set(a.retained) == set(b.retained)
