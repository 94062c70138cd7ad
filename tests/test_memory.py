"""Peak memory of the record stages grows only by the state they must keep.

Each stage runs on n and on 4n records under ``tracemalloc``; the growth of
its traced peak, divided by the 3n extra records, is held to a per-record
bound.  n is N, or 10 N for partition, whose EM fit sets its peak only at
that size.  A warm-up run before the first measurement keeps one-time imports
and caches out of the figure.
"""

import json
import random
import tracemalloc

import pytest

from queryfilter import cli
from queryfilter.checkpoint import save_checkpoint
from queryfilter.config import PipelineConfig, PathsConfig, ThresholdConfig
from queryfilter.vae import VaeConfig, init_params
from queryfilter.vocab import SPECIAL_TOKENS, Vocabulary

N = 500
WORDS = ("convert", "read", "write", "parse", "string", "file", "list", "value", "number",
         "stream", "buffer", "index", "from", "into", "the", "a", "to", "with")
CODE = "public static int parse(String text) { return Integer.parseInt(text.trim()); }"

# Measured per extra record: rule-filter 8 B (one id hash), partition 16 B
# (scores, keep mask and the EM fit's transient copy of the scores for its
# quartiles) and score 206 B (encoded comments, and the share list and scores
# of its one scoring path); each stage spills its output
# lines to a file, not to memory.  With N = 500 for every stage, a stage that
# keeps every Record grows by 814, 747 and 734 B, a rule-filter that keeps a
# set of every id by 124 B, a partition that keeps its ids as a list of str by
# 135 B and as packed ids by 35 B, and a score that keeps packed ids by 207 B.
# A partition whose EM runs in four length-N float64 buffers grows by 60 B at
# 10 N, and one whose EM makes new arrays for every expression by 92 B.  The
# bounds leave room for container resizes.
# The percentile partition keeps its ids as a list of str, and its sort adds
# a position and a (score, id) key per record: 212 B at 10 N, against 223 B
# with ids packed in one buffer and decoded for each key, and 800 B for one
# that keeps every Record.  Those figures are Python 3.11's; the bound leaves
# about 40 % for the object sizes of 3.10 and 3.12, which were not measured.
BOUND = {"rule_filter": 40, "partition": 25, "percentile": 300, "score": 283}


def _comment(rng: random.Random, i: int) -> str:
    words = [rng.choice(WORDS) for _ in range(rng.randint(3, 12))]
    if i % 5 == 0:
        return "See https://example.com/" + "/".join(words)  # rejected by the urls rule
    return " ".join(words).capitalize() + f" {i}.\n@param text the input"


def _write_rows(path, n: int, scored: bool = False) -> None:
    rng = random.Random(n)
    with open(path, "w", encoding="utf-8") as fh:
        for i in range(n):
            row = {"id": f"rec{i:07d}", "comment": _comment(rng, i), "code": CODE}
            if scored:
                row["score"] = abs(rng.gauss(1.0, 0.2) if i % 3 else rng.gauss(4.0, 0.5))
            fh.write(json.dumps(row) + "\n")


@pytest.fixture()
def cfg(tmp_path):
    names = {f: str(tmp_path / f) for f in ("input", "rule_retained", "rule_rejects",
                                            "rule_stats", "checkpoint", "vocabulary", "scored",
                                            "retained", "semantic_rejects", "report")}
    config = PipelineConfig(paths=PathsConfig(**names))
    vocab = Vocabulary(SPECIAL_TOKENS + WORDS)
    vae_cfg = VaeConfig(embed_dim=8, hidden_dim=12, latent_dim=4)
    save_checkpoint(init_params(vae_cfg, vocab.size, 1), vae_cfg, vocab, names["checkpoint"])
    return config


def _run_percentile(cfg) -> None:
    cfg.threshold = ThresholdConfig(strategy="percentile", p=0.5)
    cli.run_partition(cfg, quiet=True)


STAGES = {
    "rule_filter": ("input", False, N, lambda c: cli.run_rule_filter(c, quiet=True)),
    "partition": ("scored", True, 10 * N, lambda c: cli.run_partition(c, quiet=True)),
    "percentile": ("scored", True, 10 * N, _run_percentile),
    "score": ("rule_retained", False, N, lambda c: cli.run_score(c, quiet=True)),
}


def _traced_peak(fn) -> int:
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("stage", sorted(STAGES))
def test_peak_grows_only_by_the_kept_state(cfg, stage):
    field, scored, size, run = STAGES[stage]
    peaks = []
    for n in (size, 4 * size):
        _write_rows(getattr(cfg.paths, field), n, scored)
        if not peaks:
            run(cfg)  # a first call's imports and caches are not per-record state
        peaks.append(_traced_peak(lambda: run(cfg)))
    per_record = (peaks[1] - peaks[0]) / (3 * size)
    assert per_record < BOUND[stage], f"{stage}: {per_record:.1f} B per extra record"
