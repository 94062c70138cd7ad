"""Rule-filter, score and partition write each record as ``record_line`` writes it.

Score and partition spill each record's output line in their one read and
fill in the score or the semantic action afterwards; rule-filter writes its
records through the same encoder.  These tests draw records whose text holds
what the splice looks for (`"retained"}]`, `, "score": `), quotes,
backslashes, line separators, lone surrogates and non-ASCII text, and hold
every output line to ``record_line(record)`` for the record the stage should
have written.
"""

import contextlib
import dataclasses
import io

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from queryfilter.checkpoint import save_checkpoint
from queryfilter.cli import main
from queryfilter.config import PipelineConfig
from queryfilter.corpus import (Record, extract_first_sentence, provenance_entry, read_jsonl,
                                record_line)
from queryfilter.rules import apply_ruleset, ruleset_from_config
from queryfilter.threshold import partition
from queryfilter.vae import VaeConfig, init_params, reconstruction_loss
from queryfilter.vocab import SPECIAL_TOKENS, Vocabulary, tokenize

WORDS = ("read", "write", "parse", "file", "the", "a", "to")
PIECES = ("read", "a", " ", "é", "中", "\U0001f600", '"', "\\", "\u2028", "\n", '"retained"}]',
          ', "score": ', '"rejected"', "}", "]", "retained", "<b>", "(a)", ".")
SURROGATES = ("\ud800", "\udfff")  # written back as the JSON escapes "\ud800" and "\udfff"


@st.composite
def _records(draw, score):
    """Records with distinct ids; in half the draws their text may hold lone surrogates."""
    text = st.lists(st.sampled_from(PIECES + SURROGATES * draw(st.booleans())),
                    max_size=5).map("".join)
    entry = st.builds(provenance_entry, text, st.sampled_from(["retained", "rejected"]) | text,
                      st.none() | text, st.none() | text, st.none() | text)
    # A list of objects can end in "retained"}], as the semantic entry does.
    nested = st.lists(st.dictionaries(text, st.just("retained") | text, max_size=2), max_size=2)
    extra = st.dictionaries(text.filter(lambda k: k not in ("id", "comment", "code",
                                                            "provenance", "score")),
                            text | st.integers(-5, 5) | st.lists(text, max_size=2) | nested,
                            max_size=2)
    rows = draw(st.lists(st.tuples(text, text, text, st.lists(entry, max_size=3), score, extra),
                         min_size=1, max_size=12))
    return [Record(f"{i}{rid}", comment, code, provenance, s, extra)
            for i, (rid, comment, code, provenance, s, extra) in enumerate(rows)]


_score = st.integers(0, 10**6) | st.floats(0.0, 1e300)


def _write_input(path, records, newline=b"\n"):
    path.write_bytes(b"".join(record_line(r)[:-1] + newline for r in records))


def _run(argv):
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main(argv)
    return code, err.getvalue()


def _check(expected, code, err):
    """The stage succeeded, and each output holds ``record_line`` of its expected
    records, which is also what it reads back as."""
    assert (code, err) == (0, "")
    for path, records in expected.items():
        assert path.read_bytes() == b"".join(record_line(r) for r in records)
        assert list(read_jsonl(path)) == records


def _rule_filtered(records):
    """``{retained: records, rejected: records}`` as rule-filter writes them."""
    ruleset = ruleset_from_config(PipelineConfig().ruleset.order, ())
    out = {True: [], False: []}
    for record in records:
        first = extract_first_sentence(record.comment)
        if first != record.comment:
            record.provenance.append(provenance_entry("extract", "transformed",
                                                      before=record.comment, after=first))
        outcome = apply_ruleset(ruleset, first)
        record.provenance += [provenance_entry("rule", "transformed", s.rule_id, s.before, s.after)
                              for s in outcome.transforms]
        record.comment = outcome.transforms[-1].after if outcome.transforms else first
        kept = outcome.action != "rejected"
        record.provenance.append(provenance_entry("rule", "retained" if kept else "rejected",
                                                  outcome.rule_id))
        out[kept].append(record)
    return out


def _scored(records, model):
    _, vocab, params, _ = model
    scores = reconstruction_loss(params, [vocab.encode(tokenize(r.comment)) for r in records])
    return [dataclasses.replace(r, score=float(s)) for r, s in zip(records, scores)]


def _partitioned(records, strategy, strip):
    """``{retained: records, rejected: records}`` as partition writes them at p = 0.5."""
    keep, _ = partition([r.id for r in records], [r.score for r in records], strategy, p=0.5)
    out = {True: [], False: []}
    for record, kept in zip(records, keep):
        if kept and strip:
            record.provenance = []
        else:
            record.provenance.append(provenance_entry("semantic",
                                                      "retained" if kept else "rejected"))
        out[bool(kept)].append(record)
    return out


def _rule_filter_argv(tmp):
    return ["rule-filter", "--quiet", "--input", str(tmp / "in.jsonl"),
            "--retained", str(tmp / "retained.jsonl"), "--rejects", str(tmp / "rejects.jsonl"),
            "--stats", str(tmp / "stats.json")]


def _score_argv(tmp, root):
    return ["score", "--quiet", "--input", str(tmp / "in.jsonl"),
            "--checkpoint", str(root / "model.ckpt"), "--output", str(tmp / "out.jsonl")]


def _partition_argv(tmp, strategy, strip):
    return ["partition", "--quiet", "--input", str(tmp / "in.jsonl"),
            "--retained", str(tmp / "retained.jsonl"), "--rejects", str(tmp / "rejects.jsonl"),
            "--report", str(tmp / "report.json"), "--strategy", strategy, "--p", "0.5",
            *(["--strip-provenance"] if strip else [])]


@pytest.fixture(scope="module")
def model(tmp_path_factory):
    root = tmp_path_factory.mktemp("model")
    vocab = Vocabulary(SPECIAL_TOKENS + WORDS, max_len=12)
    cfg = VaeConfig(embed_dim=4, hidden_dim=6, latent_dim=2)
    params = init_params(cfg, vocab.size, 1)
    save_checkpoint(params, cfg, vocab, root / "model.ckpt")
    return root, vocab, params, cfg


@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(_records(st.none() | _score), st.sampled_from([b"\n", b"\r\n"]))
def test_rule_filter_writes_each_record_with_its_provenance(tmp_path_factory, records, newline):
    tmp = tmp_path_factory.mktemp("rule_filter")
    _write_input(tmp / "in.jsonl", records, newline)
    code, err = _run(_rule_filter_argv(tmp))
    out = _rule_filtered(list(read_jsonl(tmp / "in.jsonl")))
    _check({tmp / "retained.jsonl": out[True], tmp / "rejects.jsonl": out[False]}, code, err)


@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(_records(st.none() | _score), st.sampled_from([b"\n", b"\r\n"]))
def test_score_writes_each_record_with_its_score(tmp_path_factory, model, records, newline):
    tmp = tmp_path_factory.mktemp("score")
    _write_input(tmp / "in.jsonl", records, newline)
    code, err = _run(_score_argv(tmp, model[0]))
    _check({tmp / "out.jsonl": _scored(list(read_jsonl(tmp / "in.jsonl")), model)}, code, err)


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(_records(_score), st.sampled_from([b"\n", b"\r\n"]),
       st.sampled_from(["percentile", "kmeans2"]), st.booleans())
def test_partition_writes_each_record_with_its_action(tmp_path_factory, records, newline,
                                                      strategy, strip):
    tmp = tmp_path_factory.mktemp("partition")
    _write_input(tmp / "in.jsonl", records, newline)
    code, err = _run(_partition_argv(tmp, strategy, strip))
    out = _partitioned(list(read_jsonl(tmp / "in.jsonl")), strategy, strip)
    _check({tmp / "retained.jsonl": out[True], tmp / "rejects.jsonl": out[False]}, code, err)


# Lone surrogates as JSON admits them, escaped, in an id, the code, an extra key
# and value and a provenance string; the comments pass every rule.
SURROGATE_LINES = b"".join(
    b'{"id": "%d\\ud800", "comment": "Read the %s file from the disk.", "code": "x = \\"\\udfff\\"", '
    b'"k\\udfff": ["\\ud800", %d], "provenance": [{"stage": "rule", "action": "retained", '
    b'"before": "\\udfff\\ud800"}], "score": %d.5}\n' % (i, word, i, i)
    for i, word in enumerate([b"csv", b"json", b"text", b"log"]))


@pytest.mark.parametrize("stage", ["rule-filter", "score", "percentile", "kmeans2", "strip"])
def test_lone_surrogate_escapes_pass_every_stage(tmp_path, model, stage):
    (tmp_path / "in.jsonl").write_bytes(SURROGATE_LINES)
    records = list(read_jsonl(tmp_path / "in.jsonl"))
    assert records[0].id == "0\ud800" and records[0].extra == {"k\udfff": ["\ud800", 0]}
    if stage == "rule-filter":
        code, err = _run(_rule_filter_argv(tmp_path))
        out = _rule_filtered(records)
        expected = {tmp_path / "retained.jsonl": out[True], tmp_path / "rejects.jsonl": out[False]}
    elif stage == "score":
        code, err = _run(_score_argv(tmp_path, model[0]))
        expected = {tmp_path / "out.jsonl": _scored(records, model)}
    else:
        strategy, strip = ("percentile", True) if stage == "strip" else (stage, False)
        code, err = _run(_partition_argv(tmp_path, strategy, strip))
        out = _partitioned(records, strategy, strip)
        expected = {tmp_path / "retained.jsonl": out[True], tmp_path / "rejects.jsonl": out[False]}
    _check(expected, code, err)
    assert b'"id": "0\\ud800"' in b"".join(path.read_bytes() for path in expected)
