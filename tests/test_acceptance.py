"""Acceptance suite: every exit criterion at its stated tolerance.

Each test prints one pass/fail line (visible under ``pytest -s`` or in the
captured output section on failure).  Criterion 10 needs a locally prepared
corpus and is skipped unless QUERYFILTER_CSN_JSONL is set.
"""

import json
import math
import os
import time
from contextlib import contextmanager

import numpy as np
import pytest

from queryfilter.cli import main
from queryfilter.corpus import extract_first_sentence, read_jsonl
from queryfilter.metrics import answered_at_k, mrr, sample_size
from queryfilter.rules import (
    apply_ruleset,
    builtin_rules,
    reject_interrogation,
    reject_javadoc,
    reject_non_english,
    reject_punctuation_only,
    reject_short,
    reject_url,
    strip_html_tags,
    strip_parentheses,
)
from queryfilter.threshold import dividing_point, fit_em_gmm, partition
from queryfilter.vae import (
    VaeConfig,
    init_params,
    loss_and_grads,
    named_tensors,
    pad_batch,
    reconstruction_loss,
    total_loss,
    train,
    zeros_like_params,
)
from queryfilter.vocab import build_vocab, tokenize

from test_threshold import closed_form_threshold


@contextmanager
def criterion(name):
    started = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"[FAIL] {name}")
        raise
    print(f"[PASS] {name} ({time.perf_counter() - started:.1f}s)")


def test_criterion_1_table_golden_suite():
    with criterion("1 rule golden suite"):
        # documented transform outputs
        assert strip_html_tags("<p>parse line</p>") == "parse line"
        assert strip_parentheses("(TODO) Send requests") == "Send requests"
        # documented rejections, each naming the expected rule
        ruleset = builtin_rules()
        expected = [
            ("Returns a {@link Support}", "javadoc_tags"),
            ("See https://github.com/", "urls"),
            ("创建临时文件", "non_english"),
            ("==============", "punctuation"),
            ("Is this a name declaration?", "interrogation"),
            ("DEPRECATED", "short_sentence"),
        ]
        for comment, rule_id in expected:
            outcome = apply_ruleset(ruleset, comment)
            assert outcome.action == "rejected", comment
            assert outcome.rule_id == rule_id, comment


def test_criterion_2_gradient_oracle():
    with criterion("2 gradient oracle vs central finite differences"):
        cfg = VaeConfig(embed_dim=4, hidden_dim=8, latent_dim=3)
        params = init_params(cfg, 20, 7)
        # a generic parameter point: larger weights than the training init so
        # every path carries signal
        point_rng = np.random.default_rng(11)
        for _, tensor in named_tensors(params):
            tensor[...] = point_rng.uniform(-0.5, 0.5, size=tensor.shape)

        # one padded batch with mixed lengths: a leak through the padding
        # shows up as a gradient mismatch (e.g. on the PAD embedding row)
        ids, lengths = pad_batch([[1, 5, 9, 4, 17, 2], [1, 7, 12, 2]])
        noise = np.random.default_rng(3).standard_normal((2, cfg.latent_dim))
        beta = 1.0

        grads = zeros_like_params(params)
        loss_and_grads(params, ids, lengths, noise, beta, grads=grads)

        def batch_loss():
            return total_loss(params, ids, lengths, noise, beta).total

        eps = 1e-5
        grad_of = dict(named_tensors(grads))
        worst_by_tensor = {}
        for name, tensor in named_tensors(params):
            analytic = grad_of[name]
            worst = 0.0
            it = np.nditer(tensor, flags=["multi_index"])
            for _ in it:
                idx = it.multi_index
                saved = tensor[idx]
                tensor[idx] = saved + eps
                up = batch_loss()
                tensor[idx] = saved - eps
                down = batch_loss()
                tensor[idx] = saved
                numeric = (up - down) / (2.0 * eps)
                # denominator floored at the finite-difference noise scale so
                # structurally zero entries (e.g. unused embedding rows) are
                # compared absolutely
                rel = abs(analytic[idx] - numeric) / max(
                    abs(analytic[idx]), abs(numeric), 1e-6
                )
                worst = max(worst, rel)
            worst_by_tensor[name] = worst
            assert worst < 1e-4, f"{name}: max relative error {worst:.3e}"
        assert len(worst_by_tensor) == 16  # every parameter tensor checked


def test_criterion_3_em_recovery():
    with criterion("3 EM parameter recovery on a known mixture"):
        rng = np.random.default_rng(1234)
        n = 10_000
        from_q = rng.random(n) < 0.6
        samples = np.where(
            from_q, rng.normal(1.0, 0.25, n), rng.normal(4.0, 0.25, n)
        )
        fit = fit_em_gmm(samples)
        assert abs(fit.pi - 0.6) <= 0.02
        assert abs(fit.mu_q - 1.0) <= 0.05
        assert abs(fit.mu_uq - 4.0) <= 0.05
        assert abs(fit.sigma_q - 0.25) <= 0.05
        assert abs(fit.sigma_uq - 0.25) <= 0.05
        diffs = np.diff(fit.loglik_trace)
        assert np.all(diffs >= -1e-9)


def test_criterion_4_threshold_oracle():
    with criterion("4 dividing point matches the closed-form root"):
        rng = np.random.default_rng(7)
        for _ in range(100):
            pi = rng.uniform(0.2, 0.8)
            mu_q = rng.uniform(0.0, 2.0)
            mu_uq = mu_q + rng.uniform(1.0, 4.0)
            sigma_q = rng.uniform(0.1, 0.8)
            sigma_uq = rng.uniform(0.1, 0.8)
            oracle = closed_form_threshold(pi, mu_q, sigma_q, mu_uq, sigma_uq)
            assert abs(dividing_point(pi, mu_q, sigma_q, mu_uq, sigma_uq) - oracle) <= 1e-6


TEMPLATES = [
    "convert {a} to {b}", "read {a} from {b}", "write {a} to {b}",
    "sort {a} by {b}", "parse {a} into {b}", "get {a} from {b}",
    "create {a} with {b}", "remove {a} from {b}", "check if {a} contains {b}",
    "find {a} in {b}",
]
NOUNS = [
    "string", "int", "file", "list", "map", "array", "json", "xml", "date",
    "number", "object", "stream", "buffer", "path", "url", "bytes", "char",
    "index", "key", "value", "table", "row", "column", "text", "line",
]
ALL_WORDS = sorted(
    {w for t in TEMPLATES for w in t.replace("{a}", "").replace("{b}", "").split()}
    | set(NOUNS)
)


def _template_sentence(rng):
    text = TEMPLATES[rng.integers(len(TEMPLATES))]
    return text.format(a=rng.choice(NOUNS), b=rng.choice(NOUNS))


def _random_sentence(rng):
    length = rng.integers(3, 11)
    return " ".join(rng.choice(ALL_WORDS) for _ in range(length))


def test_criterion_5_separation_experiment():
    with criterion("5 template/random separation via trained scores + gmm"):
        rng = np.random.default_rng(42)
        corpus = [_template_sentence(rng) for _ in range(2000)]
        eval_texts = [(_template_sentence(rng), True) for _ in range(1000)]
        eval_texts += [(_random_sentence(rng), False) for _ in range(1000)]

        token_lists = [tokenize(s) for s in corpus]
        vocab = build_vocab(token_lists, max_size=500, min_count=1, max_len=20)
        sequences = [vocab.encode(t) for t in token_lists]
        cfg = VaeConfig(embed_dim=32, hidden_dim=64, latent_dim=16, epochs=10, batch_size=32,
                        learning_rate=1e-3, kl_anneal_steps=2000)
        params, trace = train(sequences, cfg, vocab.size, 0)
        assert trace[-1].mean_total < trace[0].mean_total

        scores = reconstruction_loss(
            params, [vocab.encode(tokenize(text)) for text, _ in eval_texts]
        )
        scored = [(f"s{i}", score) for i, score in enumerate(scores.tolist())]
        labels = {f"s{i}": is_template for i, (_, is_template) in enumerate(eval_texts)}
        keep, _ = partition([rid for rid, _ in scored], scores, strategy="gmm")
        agree = sum(1 for (rid, _), kept in zip(scored, keep) if kept == labels[rid])
        assert agree / len(scored) >= 0.95


def test_criterion_6_metric_oracle():
    with criterion("6 metrics equal the brute-force oracle"):
        assert mrr([1, 2, 4, None]) == 0.4375
        rng = np.random.default_rng(99)
        for _ in range(1000):
            n = int(rng.integers(1, 60))
            ranks = [
                None if rng.random() < 0.2 else int(rng.integers(1, 1000))
                for _ in range(n)
            ]
            oracle_mrr = sum((1.0 / r) if r is not None else 0.0 for r in ranks) / len(ranks)
            assert mrr(ranks) == oracle_mrr
            k = int(rng.integers(1, 50))
            oracle_count = sum(1 for r in ranks if r is not None and r <= k)
            assert answered_at_k(ranks, k) == oracle_count


_CHAR_POOLS = [
    "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789 ",
    "<>()@?!.,:;*=#[]{}/\\'\"-_ ",
    "创建临时文件日本語キーワードпривет français",
    " \t\n",
]


def _random_text(rng):
    length = int(rng.integers(0, 60))
    chars = []
    for _ in range(length):
        pool = _CHAR_POOLS[int(rng.integers(len(_CHAR_POOLS)))]
        chars.append(pool[int(rng.integers(len(pool)))])
    return "".join(chars)


def test_criterion_7_idempotence_and_closure():
    with criterion("7 ruleset idempotence and closure on 10k random strings"):
        ruleset = builtin_rules()
        predicates = (
            reject_javadoc, reject_url, reject_non_english,
            reject_punctuation_only, reject_interrogation, reject_short,
        )
        rng = np.random.default_rng(2024)
        retained_seen = 0
        for _ in range(10_000):
            text = _random_text(rng)
            outcome = apply_ruleset(ruleset, text)
            if outcome.action == "rejected":
                continue
            retained_seen += 1
            again = apply_ruleset(ruleset, outcome.text)
            assert again.action == "kept"
            assert again.text == outcome.text
            for predicate in predicates:
                assert not predicate(outcome.text)
        assert retained_seen > 50  # the generator produces non-trivial survivors


def _write_determinism_inputs(base):
    rng = np.random.default_rng(77)
    rows = []
    for i in range(30):
        rows.append(
            {
                "id": f"r{i:02d}",
                "comment": _template_sentence(rng) + " for the current request",
                "code": "int x;",
            }
        )
    with open(base / "pairs.jsonl", "w", encoding="utf-8") as fh:
        for row in rows:
            fh.write(json.dumps(row) + "\n")
    queries = [_template_sentence(rng) for _ in range(150)]
    (base / "bootstrap.txt").write_text("\n".join(queries) + "\n", encoding="utf-8")
    (base / "pipeline.ini").write_text(
        f"""
[pipeline]
seed = 7

[paths]
input = {base}/pairs.jsonl
bootstrap = {base}/bootstrap.txt
rule_retained = {base}/rule_retained.jsonl
rule_rejects = {base}/rule_rejects.jsonl
rule_stats = {base}/rule_stats.json
checkpoint = {base}/model.ckpt
vocabulary = {base}/vocab.txt
scored = {base}/scored.jsonl
retained = {base}/retained.jsonl
semantic_rejects = {base}/semantic_rejects.jsonl
report = {base}/report.json

[tokenizer]
max_size = 300
min_count = 1
max_len = 16

[vae]
embed_dim = 16
hidden_dim = 24
latent_dim = 6
epochs = 2
batch_size = 16
learning_rate = 0.002
kl_anneal_steps = 100
""",
        encoding="utf-8",
    )


def test_criterion_8_run_determinism(tmp_path):
    with criterion("8 end-to-end rerun is byte-identical"):
        outputs = [
            "retained.jsonl", "rule_rejects.jsonl", "semantic_rejects.jsonl",
            "report.json", "rule_stats.json", "model.ckpt",
        ]
        blobs = []
        for run in ("a", "b"):
            base = tmp_path / run
            base.mkdir()
            _write_determinism_inputs(base)
            assert main(["run", "--config", str(base / "pipeline.ini"), "--quiet"]) == 0
            blobs.append({name: (base / name).read_bytes() for name in outputs})
        assert blobs[0] == blobs[1]
        retained = list(read_jsonl(tmp_path / "a" / "retained.jsonl"))
        assert retained  # the toy fixture keeps a nonzero set


def test_criterion_9_sample_size():
    with criterion("9 sample-size closed form"):
        assert sample_size(394_471, 1.96, 0.5, 0.05) == 384
        assert sample_size(math.inf, 1.96, 0.5, 0.05) == 385


@pytest.mark.skipif(
    "QUERYFILTER_CSN_JSONL" not in os.environ,
    reason="extended check needs a local CodeSearchNet-style corpus "
    "(set QUERYFILTER_CSN_JSONL to a JSONL file with id/comment/code fields)",
)
def test_criterion_10_extended_corpus_retention(tmp_path):
    with criterion("10 extended corpus retention rates"):
        corpus_path = os.environ["QUERYFILTER_CSN_JSONL"]
        records = list(read_jsonl(corpus_path))
        n = len(records)
        assert n > 0
        ruleset = builtin_rules()
        survivors = []
        for record in records:
            outcome = apply_ruleset(ruleset, extract_first_sentence(record.comment))
            if outcome.action != "rejected":
                survivors.append(record)
        rule_fraction = len(survivors) / n
        # published run retained 285,372 / 394,471 = 72.3%
        assert abs(rule_fraction - 0.723) <= 0.05
