"""Retrieval metrics against brute-force oracles and published-scale fixtures."""

import json
import math

import numpy as np
import pytest

from queryfilter.metrics import answered_at_k, mrr, read_rank_file, sample_size


def brute_force_mrr(ranks):
    return sum((1.0 / r) if r is not None else 0.0 for r in ranks) / len(ranks)


def brute_force_answered(ranks, k):
    count = 0
    for r in ranks:
        if r is not None and r <= k:
            count += 1
    return count


def _random_rank_list(rng):
    n = int(rng.integers(1, 60))
    out = []
    for _ in range(n):
        if rng.random() < 0.2:
            out.append(None)
        else:
            out.append(int(rng.integers(1, 1000)))
    return out


class TestMrr:
    def test_all_first(self):
        assert mrr([1, 1, 1]) == 1.0

    def test_hand_case(self):
        assert mrr([1, 2, 4, None]) == 0.4375

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            mrr([])

    def test_invalid_rank(self):
        with pytest.raises(ValueError):
            mrr([0])

    def test_matches_brute_force_on_random_lists(self):
        rng = np.random.default_rng(99)
        for _ in range(1000):
            ranks = _random_rank_list(rng)
            assert mrr(ranks) == brute_force_mrr(ranks)

    def test_permutation_invariant_and_bounded(self):
        rng = np.random.default_rng(3)
        ranks = _random_rank_list(rng)
        assert 0.0 <= mrr(ranks) <= 1.0
        assert math.isclose(mrr(ranks), mrr(ranks[::-1]), rel_tol=0, abs_tol=1e-15)


class TestAnsweredAtK:
    def test_hand_cases(self):
        assert answered_at_k([1, 2, 4], 1) == 1
        assert answered_at_k([1, 2, 4], 5) == 3

    def test_pool_size_boundary_counts_retrieved(self):
        ranks = [1, 5, None, 700, None]
        assert answered_at_k(ranks, 1000) == 3

    def test_monotone_in_k(self):
        rng = np.random.default_rng(4)
        ranks = _random_rank_list(rng)
        values = [answered_at_k(ranks, k) for k in (1, 2, 5, 10, 100, 1000)]
        assert values == sorted(values)

    def test_matches_brute_force(self):
        rng = np.random.default_rng(5)
        for _ in range(1000):
            ranks = _random_rank_list(rng)
            k = int(rng.integers(1, 50))
            assert answered_at_k(ranks, k) == brute_force_answered(ranks, k)

    def test_k_validation(self):
        with pytest.raises(ValueError):
            answered_at_k([1], 0)


def retrieval_run_434():
    """A stored 434-query evaluation: ranks consistent with A@1=168, A@5=299,
    A@10=348 and MRR ~= 0.512."""
    ranks = (
        [1] * 168 + [2] * 43 + [3] * 41 + [4] * 26 + [5] * 21
        + [6] * 10 + [7] * 10 + [8] * 10 + [9] * 10 + [10] * 9
    )
    for r in range(11, 21):
        ranks += [r] * 3
    ranks += [None] * 56
    assert len(ranks) == 434
    return ranks


class TestStoredRankFile:
    def test_reference_filtered_run_scores(self, tmp_path):
        ranks = retrieval_run_434()
        path = tmp_path / "ranks.jsonl"
        with open(path, "w", encoding="utf-8") as fh:
            for i, rank in enumerate(ranks):
                fh.write(json.dumps({"query_id": f"q{i}", "rank": rank}) + "\n")
        loaded = [rank for _, rank in read_rank_file(path)]
        assert loaded == ranks
        assert abs(mrr(loaded) - 0.512) <= 0.0005
        assert answered_at_k(loaded, 1) == 168
        assert answered_at_k(loaded, 5) == 299
        assert answered_at_k(loaded, 10) == 348

    def test_rank_file_validation(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"query_id":"q0","rank":0}\n', encoding="utf-8")
        with pytest.raises(ValueError):
            read_rank_file(path)

    @pytest.mark.parametrize("line", [
        '{"rank": 1}',
        '{"query_id": 7, "rank": 1}',
        '[1, 2]',
        '"q1"',
        '{"query_id": "q1", "rank": 1',
        '{"query_id": "q1", "rank": true}',
        '{"query_id": "q1", "rank": 2.5}',
        '{"query_id": "q1", "rank": 2.0}',
        '{"query_id": "q1", "rank": "2"}',
    ], ids=["no-query-id", "int-query-id", "list", "string", "truncated", "bool-rank",
            "fractional-rank", "float-rank", "string-rank"])
    def test_bad_line_named_in_value_error(self, tmp_path, line):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"query_id": "q0", "rank": null}\n\n' + line + "\n", encoding="utf-8")
        with pytest.raises(ValueError, match="^line 3: "):
            read_rank_file(path)

    def test_invalid_utf8_named_in_value_error(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_bytes(b'{"query_id": "q0", "rank": 1}\n{"query_id": "q\xe9", "rank": 2}\n')
        with pytest.raises(ValueError, match="^line 2: not valid UTF-8$"):
            read_rank_file(path)

    @pytest.mark.parametrize("value", ["9" * 5001, "[" * 200_000 + "]" * 200_000],
                             ids=["long_integer", "deep_nesting"])
    def test_value_beyond_parser_limits_named_in_value_error(self, tmp_path, value):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"query_id": "q0", "rank": 1}\n{"query_id": "q1", "rank": ' + value
                        + "}\n", encoding="utf-8")
        with pytest.raises(ValueError, match="^line 2: unsupported JSON: "):
            read_rank_file(path)

    def test_crlf_and_padded_lines(self, tmp_path):
        path = tmp_path / "ranks.jsonl"
        path.write_bytes(b'{"query_id": "q0", "rank": 1}\r\n\r\n\x0c{"query_id": "q1"}\x0c\r\n')
        assert read_rank_file(path) == [("q0", 1), ("q1", None)]

    def test_null_and_missing_rank_read_as_unanswered(self, tmp_path):
        path = tmp_path / "ranks.jsonl"
        path.write_text('{"query_id": "q0", "rank": null}\n{"query_id": "q1"}\n'
                        '{"query_id": "q2", "rank": 3}\n', encoding="utf-8")
        assert read_rank_file(path) == [("q0", None), ("q1", None), ("q2", 3)]


class TestSampleSize:
    def test_large_population(self):
        assert sample_size(394_471, 1.96, 0.5, 0.05) == 384

    def test_small_population(self):
        assert sample_size(100, 1.96, 0.5, 0.05) == 80

    def test_infinite_population_limit(self):
        assert sample_size(math.inf, 1.96, 0.5, 0.05) == 385

    def test_monotone_in_tolerance_and_bounded(self):
        sizes = [sample_size(10_000, 1.96, 0.5, c) for c in (0.01, 0.02, 0.05, 0.1)]
        assert sizes == sorted(sizes, reverse=True)
        for population in (1, 10, 100, 5000):
            assert sample_size(population, 1.96, 0.5, 0.05) <= population

    def test_validation(self):
        with pytest.raises(ValueError):
            sample_size(0)
        with pytest.raises(ValueError):
            sample_size(100, p=1.5)
        with pytest.raises(ValueError):
            sample_size(100, c=0.0)

    @pytest.mark.parametrize("kwargs, name", [
        ({"population": math.nan}, "population"),
        ({"p": math.nan}, "p"),
        ({"confidence_z": math.nan}, "confidence_z"),
        ({"confidence_z": math.inf}, "confidence_z"),
        ({"c": math.nan}, "c"),
        ({"c": math.inf}, "c"),
    ])
    def test_non_finite_argument_rejected_by_name(self, kwargs, name):
        args = {"population": 100, **kwargs}
        with pytest.raises(ValueError, match=rf"^{name} must "):
            sample_size(**args)

    @pytest.mark.parametrize("kwargs", [{"confidence_z": 1e200}, {"c": 1e-300}])
    def test_z_and_c_whose_ratio_overflows_rejected_naming_both(self, kwargs):
        # z^2 overflows to inf, or c^2 underflows to 0, though each argument is finite.
        with pytest.raises(ValueError, match=r"^confidence_z and c must "):
            sample_size(100, **kwargs)
