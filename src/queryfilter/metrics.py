"""Retrieval evaluation metrics and the manual-inspection sample-size formula."""

from __future__ import annotations

import math
from typing import Sequence

from .corpus import CorpusError, iter_json_objects


def mrr(ranks: Sequence[int | None]) -> float:
    """Mean reciprocal rank; a missing rank (None) contributes zero."""
    if len(ranks) == 0:
        raise ValueError("mrr needs at least one query")
    total = 0.0
    for rank in ranks:
        if rank is None:
            continue
        if rank < 1:
            raise ValueError("ranks must be positive integers")
        total += 1.0 / rank
    return total / len(ranks)


def answered_at_k(ranks: Sequence[int | None], k: int) -> int:
    """Number of queries whose first hit appears within the top k results."""
    if k < 1:
        raise ValueError("k must be >= 1")
    return sum(1 for rank in ranks if rank is not None and rank <= k)


def sample_size(population: float, confidence_z: float = 1.96, p: float = 0.5, c: float = 0.05) -> int:
    """Cochran sample size with finite-population correction, rounded up.

    ``population`` may be ``math.inf`` for the uncorrected limit; NaN is
    rejected like every other bad argument, naming it.
    """
    if not population >= 1:
        raise ValueError(f"population must be >= 1, got {population}")
    if not 0.0 < p < 1.0:
        raise ValueError(f"p must lie in (0, 1), got {p}")
    for name, value in (("confidence_z", confidence_z), ("c", c)):
        if not (math.isfinite(value) and value > 0):
            raise ValueError(f"{name} must be positive and finite, got {value}")
    ss0 = confidence_z * confidence_z * p * (1.0 - p) / (c * c)
    ss = ss0 / (1.0 + (ss0 - 1.0) / population)
    return int(math.ceil(ss))


def read_rank_file(path) -> list[tuple[str, int | None]]:
    """Read a JSONL rank file of {"query_id": string, "rank": positive int or null}.

    Any other line, including one that is not UTF-8, raises ValueError naming
    the line.
    """
    out: list[tuple[str, int | None]] = []
    try:
        for line_no, obj in iter_json_objects(path):
            query_id = obj.get("query_id")
            if not isinstance(query_id, str):
                raise ValueError(f'line {line_no}: "query_id" must be a string')
            rank = obj.get("rank")
            if rank is not None and (type(rank) is not int or rank < 1):
                raise ValueError(f"line {line_no}: rank must be a positive integer or null")
            out.append((query_id, rank))
    except CorpusError as exc:
        # A bad rank file is a usage error (exit 1), not a corpus I/O error.
        raise ValueError(str(exc)) from exc
    return out
