"""EM mixture fitting, dividing-point computation, and partition strategies."""

import math
import tracemalloc
from array import array

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from queryfilter.threshold import (
    _CHUNK,
    SIGMA_FLOOR,
    _quartiles,
    dividing_point,
    fit_em_gmm,
    partition,
)


def split(scored):
    """The (ids, losses) arguments of :func:`partition` for (id, loss) pairs."""
    return [rid for rid, _ in scored], [loss for _, loss in scored]


def partition_ids(scored, **kwargs):
    """:func:`partition` on (id, loss) pairs: (retained ids, discarded ids, report)."""
    ids, losses = split(scored)
    keep, report = partition(ids, losses, **kwargs)
    return [i for i, k in zip(ids, keep) if k], [i for i, k in zip(ids, keep) if not k], report


def closed_form_threshold(pi, mu_q, sigma_q, mu_uq, sigma_uq):
    """Independent oracle: solve the posterior-equality quadratic analytically.

    pi * N(x|mu_q, sigma_q) = (1 - pi) * N(x|mu_uq, sigma_uq) in log form is
    a quadratic in x; return its root inside (mu_q, mu_uq), else its upper
    root when sigma_q < sigma_uq, else None: the mixture has no cut.
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
    if inside:
        return inside[0]
    return max(roots) if roots and sigma_q < sigma_uq else None


def _reference_logpdf(x, mu, sigma):
    return -0.5 * math.log(2.0 * math.pi) - math.log(sigma) - 0.5 * ((x - mu) / sigma) ** 2


def gap(x, pi, mu_q, sigma_q, mu_uq, sigma_uq):
    """log pi N(x; mu_q, sigma_q) - log (1 - pi) N(x; mu_uq, sigma_uq), term by term:
    positive where the component at ``mu_q`` holds the posterior majority."""
    return (math.log(pi) + _reference_logpdf(x, mu_q, sigma_q)) - (
        math.log(1.0 - pi) + _reference_logpdf(x, mu_uq, sigma_uq)
    )


def assert_falls_through_zero(t, *mixture):
    """``gap`` is positive just below ``t`` and negative just above it."""
    eps = 1e-7 * (abs(t) + mixture[2] + mixture[4])
    assert gap(t - eps, *mixture) > 0 > gap(t + eps, *mixture)


def reference_em(x, max_iter=200, tol=1e-8):
    """EM as first written, with new arrays for every expression: the oracle
    :func:`fit_em_gmm` must match bit for bit.  Returns the mixture and its
    trace, and whether the gain fell below ``tol``.
    """
    x = np.asarray(x, dtype=np.float64)
    mu_q = float(np.percentile(x, 25))
    mu_uq = float(np.percentile(x, 75))
    if mu_q == mu_uq:
        mu_q, mu_uq = float(x.min()), float(x.max())
    sigma_q = sigma_uq = max(float(x.std()), SIGMA_FLOOR)
    pi = 0.5
    trace, converged = [], False
    for _ in range(max_iter):
        log_q = math.log(pi) + _reference_logpdf(x, mu_q, sigma_q)
        log_u = math.log(1.0 - pi) + _reference_logpdf(x, mu_uq, sigma_uq)
        top = np.maximum(log_q, log_u)
        log_mix = top + np.log(np.exp(log_q - top) + np.exp(log_u - top))
        resp_q = np.exp(log_q - log_mix)
        loglik = float(np.sum(log_mix))
        if trace and loglik - trace[-1] < tol:
            trace.append(loglik)
            converged = True
            break
        trace.append(loglik)
        weight_q = float(resp_q.sum())
        weight_u = float(x.size - weight_q)
        safe_q = max(weight_q, 1e-300)
        safe_u = max(weight_u, 1e-300)
        mu_q = float((resp_q * x).sum() / safe_q)
        mu_uq = float(((1.0 - resp_q) * x).sum() / safe_u)
        sigma_q = max(math.sqrt(float((resp_q * (x - mu_q) ** 2).sum() / safe_q)), SIGMA_FLOOR)
        sigma_uq = max(math.sqrt(float(((1.0 - resp_q) * (x - mu_uq) ** 2).sum() / safe_u)),
                       SIGMA_FLOOR)
        pi = min(max(weight_q / x.size, 1e-12), 1.0 - 1e-12)
    if mu_q > mu_uq:
        pi, mu_q, mu_uq, sigma_q, sigma_uq = 1.0 - pi, mu_uq, mu_q, sigma_uq, sigma_q
    return (pi, mu_q, sigma_q, mu_uq, sigma_uq, tuple(trace)), converged


def em_sample(rng, n, kind, levels=3):
    """n losses of a shape EM meets: normal, bimodal, heavy-tailed, or tied on ``levels`` values."""
    if kind == "normal":
        x = rng.normal(3.0, 0.5, n)
    elif kind == "bimodal":
        x = np.where(rng.random(n) < 0.7, rng.normal(3.0, 0.5, n), rng.normal(6.0, 0.8, n))
    elif kind == "heavy":
        x = np.abs(rng.standard_t(1.5, n))
    else:
        x = rng.integers(0, levels, n).astype(np.float64)
    if x.min() == x.max():
        x[0] += 1.0
    return x


@st.composite
def _em_losses(draw):
    """Loss samples of the shapes EM meets: normal, bimodal, heavy-tailed, heavily tied."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(10, 400))
    kind = draw(st.sampled_from(["normal", "bimodal", "heavy", "tied"]))
    return em_sample(rng, n, kind, draw(st.integers(2, 4)))


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

    @settings(max_examples=150, deadline=None)
    @given(_em_losses(), st.sampled_from([1, 3, 200]))
    def test_matches_the_allocating_formula(self, x, max_iter):
        fields, converged = reference_em(x, max_iter=max_iter)
        fit = fit_em_gmm(x, max_iter=max_iter)
        assert (fit.pi, fit.mu_q, fit.sigma_q, fit.mu_uq, fit.sigma_uq, fit.loglik_trace) == fields
        assert fit.converged == converged

    @pytest.mark.parametrize("kind", ["bimodal", "heavy", "tied"])
    @pytest.mark.parametrize("n", [_CHUNK - 1, _CHUNK, _CHUNK + 1, 3 * _CHUNK + 7, 50_000, 100_001])
    def test_matches_the_allocating_formula_over_many_chunks(self, n, kind):
        x = em_sample(np.random.default_rng(n), n, kind)
        for max_iter in (1, 3, 200):
            fields, converged = reference_em(x, max_iter=max_iter)
            fit = fit_em_gmm(x, max_iter=max_iter)
            assert (fit.pi, fit.mu_q, fit.sigma_q, fit.mu_uq, fit.sigma_uq,
                    fit.loglik_trace) == fields
            assert fit.converged == converged

    def test_memory_does_not_grow_with_the_losses(self):
        # Four length-N EM buffers grew the traced peak by 32 B per loss; the
        # quartiles' transient copy of the losses is what still grows.
        def traced_peak(n):
            x = em_sample(np.random.default_rng(n), n, "bimodal")
            tracemalloc.start()
            try:
                fit_em_gmm(x)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        traced_peak(1_000)  # a first fit's one-time allocations are not per-loss state
        per_loss = (traced_peak(80_000) - traced_peak(20_000)) / 60_000
        assert per_loss < 12, f"{per_loss:.1f} B per extra loss"

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_losses_rejected(self, bad):
        x = np.linspace(0.0, 1.0, 40)
        x[[7, 30]] = bad
        with pytest.raises(ValueError, match=r"2 of 40 are NaN or infinite \(the first at position 7\)"):
            fit_em_gmm(x)

    def test_converged_is_false_when_max_iter_ends_the_fit(self):
        x = np.concatenate([np.linspace(0.0, 1.0, 10), np.linspace(5.0, 6.0, 10)])
        assert fit_em_gmm(x).converged
        fit = fit_em_gmm(x, max_iter=2)
        assert not fit.converged and len(fit.loglik_trace) == 2
        _, report = partition([f"r{i}" for i in range(20)], x, max_iter=2)
        assert report["converged"] is False

    def test_upper_root_when_no_crossing_lies_between_the_means(self):
        # A narrow cluster inside a wide one whose mean lies just above it: the
        # narrow component dominates over the whole interval between the means,
        # and its posterior falls to 0.5 only above the wide component's mean.
        x = np.concatenate([np.linspace(49.0, 51.0, 900), np.linspace(31.0, 71.0, 100)])
        fit = fit_em_gmm(x)
        mixture = (fit.pi, fit.mu_q, fit.sigma_q, fit.mu_uq, fit.sigma_uq)
        assert fit.converged and fit.sigma_q < fit.sigma_uq
        keep, report = partition([f"r{i}" for i in range(x.size)], x)
        assert report["threshold"] == dividing_point(*mixture) > fit.mu_uq
        assert_falls_through_zero(report["threshold"], *mixture)
        assert keep[:900].all() and report["n_retained"] < x.size
        shifted = np.concatenate([np.linspace(49.0, 51.0, 900), np.linspace(32.0, 72.0, 100)])
        fit = fit_em_gmm(shifted)
        assert fit.mu_q < dividing_point(fit.pi, fit.mu_q, fit.sigma_q, fit.mu_uq,
                                         fit.sigma_uq) < fit.mu_uq

    def test_one_iteration_and_zero_tol_accepted(self):
        x = np.concatenate([np.linspace(0.0, 1.0, 10), np.linspace(5.0, 6.0, 10)])
        assert len(fit_em_gmm(x, max_iter=1).loglik_trace) == 1
        assert fit_em_gmm(x, tol=0.0).mu_q < 1.0


def _bits(values):
    return np.asarray(values, dtype=np.float64).tobytes()


class TestQuartiles:
    # Both come from one partitioned copy, by numpy's interpolation steps.  That
    # partition can order 0.0 and -0.0, which compare equal, otherwise than
    # np.percentile's one per quartile, so only a zero quartile of losses that
    # hold both zeros may differ, and only in sign.
    @settings(max_examples=400, deadline=None)
    @given(st.lists(st.floats(-1e300, 1e300), min_size=1, max_size=59)
           | st.lists(st.sampled_from([-0.0, 0.0, 5e-324, 1.0, 2.5]), min_size=1, max_size=59))
    def test_bit_for_bit_np_percentile(self, values):
        x = np.array(values)
        got, want = _quartiles(x), [np.percentile(x, 25), np.percentile(x, 75)]
        if {math.copysign(1.0, v) for v in values if v == 0} == {1.0, -1.0}:
            got, want = np.add(got, 0.0), np.add(want, 0.0)  # -0.0 + 0.0 is 0.0; others keep their bits
        assert _bits(got) == _bits(want)

    @pytest.mark.parametrize("n", [1000, 1001, 1002, 1003, 50_000, 50_001])
    @pytest.mark.parametrize("kind", ["bimodal", "heavy", "tied"])
    def test_bit_for_bit_np_percentile_on_large_samples(self, n, kind):
        x = em_sample(np.random.default_rng(n), n, kind)
        assert _bits(_quartiles(x)) == _bits([np.percentile(x, 25), np.percentile(x, 75)])

    def test_signed_zero_quartiles_leave_the_fit_bit_for_bit(self):
        # Here the upper quartile is -0.0 where np.percentile gives 0.0 (numpy
        # 2.4); EM starts from the quartiles but only squares x - mu.
        x = np.array([0.0, 1.0, -0.0, 0.0, -0.0, -0.0, 0.0, 0.0, 0.0, 0.0, -0.0, 0.0, 0.0, -0.0,
                      -0.0, 0.0, -0.0, -0.0, -0.0])
        fields, converged = reference_em(x)
        fit = fit_em_gmm(x)
        assert _bits([fit.pi, fit.mu_q, fit.sigma_q, fit.mu_uq, fit.sigma_uq]) == _bits(fields[:5])
        assert (fit.loglik_trace, fit.converged) == (fields[5], converged)

    def test_leaves_the_losses_as_they_were(self):
        x = np.arange(20.0)[::-1].copy()
        _quartiles(x)
        assert x.tolist() == list(np.arange(20.0)[::-1])


class TestDecisionThreshold:
    def test_symmetric_midpoint(self):
        assert abs(dividing_point(0.5, 0.0, 1.0, 4.0, 1.0) - 2.0) < 1e-9

    def test_equal_variance_midpoint_with_any_means(self):
        assert abs(dividing_point(0.5, 1.0, 0.7, 5.0, 0.7) - 3.0) < 1e-9

    def test_matches_closed_form_quadratic(self):
        expected = closed_form_threshold(0.6, 1.0, 0.5, 4.0, 0.5)
        assert abs(dividing_point(0.6, 1.0, 0.5, 4.0, 0.5) - expected) < 1e-6

    def test_upper_root_matches_oracle(self):
        # A narrow low-loss component beside a wide one: no root between the means.
        mixture = (0.9, 50.0, 0.6, 51.0, 12.0)
        expected = closed_form_threshold(*mixture)
        assert expected > 51.0
        assert abs(dividing_point(*mixture) - expected) < 1e-6

    def test_no_cut_where_oracle_has_none(self):
        # The low-loss component is the wide one, and no root lies between the means.
        mixture = (0.1, 49.0, 10.0, 50.0, 0.6)
        assert closed_form_threshold(*mixture) is None
        with pytest.raises(ValueError, match="use --strategy percentile"):
            dividing_point(*mixture)

    def test_random_fits_match_oracle(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            pi = rng.uniform(0.2, 0.8)
            mu_q = rng.uniform(0.0, 2.0)
            mu_uq = mu_q + rng.uniform(1.0, 4.0)
            sigma_q = rng.uniform(0.1, 0.8)
            sigma_uq = rng.uniform(0.1, 0.8)
            expected = closed_form_threshold(pi, mu_q, sigma_q, mu_uq, sigma_uq)
            assert abs(dividing_point(pi, mu_q, sigma_q, mu_uq, sigma_uq) - expected) < 1e-6

    # Spreads and sigma ratios are exact or clear of the degenerate values: a
    # tiny spread hides gap's fall between the means in rounding, and a sigma
    # ratio a few ulps from 1 puts a root where float64 cannot evaluate gap.
    @settings(max_examples=300, deadline=None)
    @given(st.floats(0.01, 0.99), st.floats(-10.0, 10.0), st.floats(0.05, 5.0),
           st.one_of(st.just(0.0), st.floats(1e-3, 10.0)),
           st.one_of(st.just(1.0), st.floats(0.1, 0.99), st.floats(1.01, 10.0)))
    def test_cut_is_where_the_posterior_falls_to_half(self, pi, mu_q, sigma_q, spread, ratio):
        mixture = (pi, mu_q, sigma_q, mu_q + spread, sigma_q * ratio)
        mu_uq, sigma_uq = mixture[3:]
        narrow = sigma_q < sigma_uq
        # A narrower component at mu_q makes gap concave, with roots iff its peak is positive.
        peak = mu_q
        if narrow:
            peak = (mu_q * sigma_uq**2 - mu_uq * sigma_q**2) / (sigma_uq**2 - sigma_q**2)
        # Rounding cannot tell a root from one at a mean, or a tangent from no root.
        assume(min(abs(gap(x, *mixture)) for x in (mu_q, mu_uq, peak)) > 1e-9)
        # gap falls strictly between the means, so a root lies there iff it changes sign.
        between = gap(mu_q, *mixture) > 0 > gap(mu_uq, *mixture)
        upper = narrow and gap(peak, *mixture) > 0
        if not (between or upper):
            with pytest.raises(ValueError, match="use --strategy percentile"):
                dividing_point(*mixture)
            return
        t = dividing_point(*mixture)
        assert_falls_through_zero(t, *mixture)  # on a concave gap, that is the upper root
        assert (mu_q < t < mu_uq) == between


class TestPartition:
    def test_gmm_separated_clusters(self):
        # doubled version of the {1,1,1,9,9} example to satisfy the sample floor
        scored = [(f"lo{i}", 1.0 + 0.01 * i) for i in range(6)] + [
            (f"hi{i}", 9.0 + 0.01 * i) for i in range(4)
        ]
        retained, _, report = partition_ids(scored, strategy="gmm")
        assert set(retained) == {f"lo{i}" for i in range(6)}
        assert report["n_retained"] == 6

    def test_percentile_half(self):
        scored = [(f"r{i}", float(i)) for i in range(10)]
        retained, _, report = partition_ids(scored, strategy="percentile", p=0.5)
        assert set(retained) == {f"r{i}" for i in range(5)}
        assert report["p"] == 0.5

    def test_percentile_boundary_ties_by_id(self):
        scored = [("b", 1.0), ("a", 1.0), ("c", 1.0), ("d", 0.5)]
        retained, _, _ = partition_ids(scored, strategy="percentile", p=0.5)
        assert set(retained) == {"d", "a"}

    @pytest.mark.parametrize("p, expected", [
        (0.375, ["", "a", "ab"]),
        (0.625, ["", "a", "ab", "a\ud800", "b"]),
    ], ids=["three_of_eight", "five_of_eight"])
    def test_percentile_ties_go_by_ascending_id(self, p, expected):
        # Code point order: U+D800 sorts after "b", so "a\ud800" after "ab"; "é" and "😀" last.
        ids = ["é", "b", "", "a\ud800", "ab", "a", "z", "\U0001f600"]
        keep, report = partition(ids, [1.0] * len(ids), strategy="percentile", p=p)
        assert sorted(rid for rid, kept in zip(ids, keep) if kept) == expected
        assert report["n_retained"] == len(expected) and report["boundary_loss"] == 1.0

    def test_percentile_one_retains_everything(self):
        scored = [(f"r{i}", float(i)) for i in range(7)]
        retained, discarded, _ = partition_ids(scored, strategy="percentile", p=1.0)
        assert retained == [f"r{i}" for i in range(7)]
        assert discarded == []

    def test_percentile_validation(self):
        scored = [("a", 1.0), ("b", 2.0)]
        for bad in (0.0, -0.5, 1.5, None):
            with pytest.raises(ValueError):
                partition(*split(scored), strategy="percentile", p=bad)

    def test_keep_mask_matches_retained_and_compact_losses_accepted(self):
        ids = [f"r{i}" for i in range(10)]
        losses = array("d", [1.0 + 0.01 * i if i % 2 else 9.0 + 0.01 * i for i in range(10)])
        keep, report = partition(ids, losses, strategy="gmm")
        assert keep.dtype == bool and keep.shape == (10,)
        assert keep.tolist() == [bool(i % 2) for i in range(10)]
        assert report["n_retained"] == 5
        with pytest.raises(ValueError, match="length"):
            partition(ids, losses[:-1], strategy="gmm")

    def test_ids_are_read_only_by_the_percentile_strategy(self):
        ids = [f"r{i}" for i in range(20)]
        losses = array("d", [1.0 + 0.01 * i if i % 3 else 6.0 + 0.01 * i for i in range(20)])
        keep, report = partition(None, losses, strategy="gmm")
        expected_keep, expected_report = partition(ids, losses, strategy="gmm")
        assert keep.tolist() == expected_keep.tolist() and report == expected_report
        with pytest.raises(ValueError, match="needs the ids"):
            partition(None, losses, strategy="percentile", p=0.5)

    @pytest.mark.parametrize("strategy", ["median", "kmeans2"])
    def test_unknown_strategy(self, strategy):
        with pytest.raises(ValueError, match=f'^unknown partition strategy "{strategy}"$'):
            partition(["a"], [1.0], strategy=strategy)

    @pytest.mark.parametrize("setting", [{"max_iter": 0}, {"tol": math.nan}])
    def test_percentile_ignores_the_gmm_settings(self, setting):
        retained, discarded, _ = partition_ids([("b", 2.0), ("a", 1.0)], strategy="percentile",
                                               p=0.5, **setting)
        assert (retained, discarded) == (["a"], ["b"])

    def test_empty_input(self):
        with pytest.raises(ValueError):
            partition([], [], strategy="gmm")

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    @pytest.mark.parametrize("strategy", ["gmm", "percentile"])
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
        retained, discarded, _ = partition_ids(scored, strategy="gmm")
        assert set(retained) | set(discarded) == set(by_id)
        assert not set(retained) & set(discarded)
        if retained and discarded:
            assert max(by_id[i] for i in retained) <= min(by_id[i] for i in discarded)

    def test_gmm_retained_fraction_tracks_component_weight(self):
        rng = np.random.default_rng(20)
        n = 1000
        from_q = rng.random(n) < 0.6
        losses = np.where(from_q, rng.normal(1.0, 0.25, n), rng.normal(4.0, 0.25, n))
        scored = [(f"r{i}", float(abs(v))) for i, v in enumerate(losses)]
        _, _, report = partition_ids(scored, strategy="gmm")
        assert abs(report["retained_fraction"] - 0.6) <= 0.02

    def test_membership_permutation_invariant(self):
        rng = np.random.default_rng(13)
        losses = np.concatenate([rng.normal(1, 0.4, 30), rng.normal(5, 0.6, 30)])
        scored = [(f"r{i}", float(v)) for i, v in enumerate(losses)]
        shuffled = scored[::-1]
        for strategy, kwargs in (("gmm", {}), ("percentile", {"p": 0.4})):
            a, _, _ = partition_ids(scored, strategy=strategy, **kwargs)
            b, _, _ = partition_ids(shuffled, strategy=strategy, **kwargs)
            assert set(a) == set(b)
