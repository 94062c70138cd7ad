"""Tests of the benchmark itself: seeded inputs, output oracles, traced metrics.

Run from the repository root: ``python3 -m pytest perfbench/tests``.
"""

import copy
import json
import math
import os
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)
sys.path.insert(0, os.path.join(ROOT, "src"))

import checks  # noqa: E402
import run  # noqa: E402
from workloads import REJECT_RULES, WORKLOADS, generate  # noqa: E402

SMALL = {"rules-io": 0.02, "pipeline-small": 0.1, "model-default": 0.25}


def _files(directory):
    out = {}
    for name in sorted(os.listdir(directory)):
        with open(os.path.join(directory, name), "rb") as fh:
            out[name] = fh.read()
    return out


@pytest.mark.parametrize("name", WORKLOADS)
def test_same_seed_gives_byte_identical_inputs(tmp_path, name):
    generate(name, 5, tmp_path / "a", SMALL[name])
    generate(name, 5, tmp_path / "b", SMALL[name])
    generate(name, 6, tmp_path / "c", SMALL[name])
    assert _files(tmp_path / "a") == _files(tmp_path / "b")
    assert _files(tmp_path / "a") != _files(tmp_path / "c")
    assert generate(name, 7, tmp_path / "d").sizes == generate(name, 8, tmp_path / "e").sizes


def _run_stages(wl, monkeypatch):
    from queryfilter.cli import main

    monkeypatch.chdir(wl.dir)
    for argv in wl.stages:
        assert main(argv) == 0, argv


@pytest.fixture(scope="module")
def rules_io(tmp_path_factory):
    wl = generate("rules-io", 3, tmp_path_factory.mktemp("rules-io"), SMALL["rules-io"])
    with pytest.MonkeyPatch.context() as mp:
        _run_stages(wl, mp)
    with open(wl.path("rule_stats.json"), encoding="utf-8") as fh:
        stats = json.load(fh)
    with open(wl.path("partition_report.json"), encoding="utf-8") as fh:
        report = json.load(fh)
    read = checks.read_records
    return {
        "wl": wl, "stats": stats, "report": report,
        "rule_retained": read(wl.path("rule_retained.jsonl")),
        "rule_rejects": read(wl.path("rule_rejects.jsonl")),
        "retained": read(wl.path("retained.jsonl")),
        "rejects": read(wl.path("semantic_rejects.jsonl")),
        "scores": [(rid, score) for rid, (score, _) in wl.scored_labels.items()],
    }


@pytest.fixture(scope="module")
def pipeline_small(tmp_path_factory):
    wl = generate("pipeline-small", 3, tmp_path_factory.mktemp("pipeline-small"), SMALL["pipeline-small"])
    with pytest.MonkeyPatch.context() as mp:
        _run_stages(wl, mp)
    return wl, checks.read_records(wl.path("scored.jsonl"))


def test_rule_check_accepts_real_output_and_rejects_count_off_by_one(rules_io):
    o = rules_io
    assert checks.check_rule_filter(o["wl"], o["stats"], o["rule_retained"], o["rule_rejects"]) == []
    for rule in ("javadoc_tags", "html_tags"):
        stats = copy.deepcopy(o["stats"])
        row = next(r for r in stats["rows"] if r["rule"] == rule)
        row["discarded" if "discarded" in row else "modified"] += 1
        assert checks.check_rule_filter(o["wl"], stats, o["rule_retained"], o["rule_rejects"])
    stats = copy.deepcopy(o["stats"])
    stats["retained"] -= 1
    assert checks.check_rule_filter(o["wl"], stats, o["rule_retained"], o["rule_rejects"])


def test_partition_check_rejects_one_flipped_retained_id(rules_io):
    o = rules_io
    assert checks.check_partition(o["scores"], o["report"], o["retained"], o["rejects"]) == []
    assert checks.check_mixture(o["wl"], o["report"]) == []
    flipped = o["retained"][1:]
    assert checks.check_partition(o["scores"], o["report"], flipped, [o["retained"][0]] + o["rejects"])
    report = dict(o["report"], threshold=o["report"]["threshold"] + 1e-3)
    assert checks.check_partition(o["scores"], report, o["retained"], o["rejects"])
    assert checks.check_mixture(o["wl"], dict(o["report"], mu_q=o["report"]["mu_q"] + 0.5))


def test_score_check_rejects_one_nan_score(pipeline_small):
    wl, scored = pipeline_small
    assert checks.check_scores(wl, scored) == ([], 0)
    broken = copy.deepcopy(scored)
    broken[len(broken) // 2]["score"] = math.nan
    problems, bad = checks.check_scores(wl, broken)
    assert problems and bad == 1
    broken = copy.deepcopy(scored)
    del broken[0]["score"]
    assert checks.check_scores(wl, broken)[1] == 1


def test_rescore_check_rejects_one_changed_bit(pipeline_small):
    _, scored = pipeline_small
    reference = {r["id"]: r["score"] for r in scored[:5]}
    assert checks.check_rescored(reference, scored[:5]) == []
    changed = copy.deepcopy(scored[:5])
    changed[2]["score"] = math.nextafter(changed[2]["score"], math.inf)
    assert checks.check_rescored(reference, changed)


def test_bootstrap_and_vocabulary_checks(pipeline_small):
    wl, _ = pipeline_small
    with open(wl.path("bootstrap.txt"), encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    with open(wl.path("vocab.txt"), encoding="utf-8") as fh:
        tokens = fh.read().splitlines()
    assert checks.check_bootstrap(wl, lines) == []
    assert checks.check_bootstrap(wl, lines[:-1])
    assert checks.check_vocabulary(wl, tokens) == []
    assert checks.check_vocabulary(wl, tokens[:-1])


def test_closed_form_threshold_is_the_posterior_equality_root():
    pi, mu_q, s_q, mu_u, s_u = 0.7, 3.0, 0.5, 6.0, 0.8
    x = checks.closed_form_threshold(pi, mu_q, s_q, mu_u, s_u)

    def log_post(w, mu, s):
        return math.log(w) - math.log(s) - 0.5 * ((x - mu) / s) ** 2

    assert mu_q < x < mu_u
    assert abs(log_post(pi, mu_q, s_q) - log_post(1 - pi, mu_u, s_u)) < 1e-9
    assert checks.closed_form_threshold(0.5, 0.0, 1.0, 1.0, 1.0) == pytest.approx(0.5)


def _per_layer_names():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return {m["name"] for m in json.load(fh)["per_layer"]}


# Metrics each workload must report as non-zero in the traced run.
EXERCISED = {
    "rules-io": [
        "cli.rule_filter.self_s", "cli.partition.self_s", "corpus.read_jsonl.s",
        "corpus.read_jsonl.records", "corpus.write_jsonl.s", "corpus.write_jsonl.bytes",
        "corpus.extract_first_sentence.s", "rules.apply_ruleset.calls", "rules.apply_ruleset.s",
        "rules.retained_ratio", "threshold.fit_em_gmm.s", "threshold.em_iterations",
        "threshold.partition.self_s", "rule_filter_rec_per_s", "partition_rec_per_s",
        "partition.agreement", *(f"rules.discarded.{r}" for r in REJECT_RULES),
    ],
    "pipeline-small": [
        "cli.score.self_s", "cli.pool.child_cpu_s", "cli.pool.busy_ratio",
        "cli.pool.worker_peak_rss_mb", "corpus.prepare_bootstrap.s", "vocab.tokenize.s",
        "vocab.build_vocab.s", "vocab.encode.s", "vocab.size", "train.vae.train.s",
        "train.vae.train.self_s", "train.vae.optimizer_steps", "train.vae.loss_and_grads.calls",
        "train.vae.loss_and_grads.self_s", "train.vae.tokens", "train.vae.gflop",
        "train.vae.gflop_per_s", "train_seq_per_s", "score_rec_per_s", "partition.agreement",
        *(f"train.vae.{s}.s" for s in ("encoder_forward", "latent", "decoder_forward", "elbo_loss")),
    ],
    "model-default": [
        "score.vae.reconstruction_loss.calls", "score.vae.reconstruction_loss.self_s",
        "score.vae.tokens", "score.vae.gflop", "score.vae.gflop_per_s",
        "checkpoint.save_checkpoint.s", "checkpoint.load_checkpoint.s", "checkpoint.bytes",
        "train.vae.loss_and_grads.self_s", "train.vae.optimizer_steps", "cli.score.self_s",
        *(f"{p}.vae.{s}.s" for p in ("train", "score")
          for s in ("encoder_forward", "latent", "decoder_forward", "elbo_loss")),
    ],
}


@pytest.mark.parametrize("name", WORKLOADS)
def test_traced_run_emits_every_per_layer_metric(tmp_path, name):
    wl = generate(name, 2, tmp_path, SMALL[name])
    tally = run.Tally()
    result = run.measure(ROOT, wl, 0.0, True, tally)
    assert result["traced"] is not None, tally.problems
    metrics = run.layer_report(wl, result)
    assert set(metrics) == _per_layer_names()
    zero = [m for m in EXERCISED[name] if not metrics[m][0] > 0]
    assert zero == []
    assert os.path.getsize(wl.path("spans.jsonl")) > 0


def test_exits_non_zero_without_a_result_when_sources_are_missing(tmp_path):
    proc = subprocess.run(
        [sys.executable, os.path.join(BENCH, "run.py"), "--workload", "rules-io",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_benchmark_json_lists_the_workloads_and_end_to_end_metrics():
    from workloads import WHY

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    assert {w["name"]: w["why"] for w in bench["workloads"]} == WHY
    assert [m["name"] for m in bench["end_to_end"]] == ["setup_s", "wall_s", "peak_rss_mb"]
