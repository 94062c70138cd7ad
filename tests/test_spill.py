"""Score and partition write each record exactly as its Record would be written.

Both stages spill each record's output line in their one read and fill in the
score or the semantic action afterwards.  These tests draw records whose text
holds what that splice looks for (`"retained"}]`, `, "score": `), quotes,
backslashes, line separators, lone surrogates and non-ASCII text, and hold
every output line to ``_ENCODE(record.to_json_obj()) + "\\n"`` for the record
the stage should have written.
"""

import contextlib
import dataclasses
import io

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from queryfilter.checkpoint import save_checkpoint
from queryfilter.cli import main
from queryfilter.corpus import _ENCODE, ProvenanceEntry, Record, read_jsonl
from queryfilter.threshold import partition
from queryfilter.vae import VaeConfig, init_params, reconstruction_loss
from queryfilter.vocab import SPECIAL_TOKENS, Vocabulary, tokenize

WORDS = ("read", "write", "parse", "file", "the", "a", "to")
PIECES = ("read", "a", " ", "é", "中", "\U0001f600", '"', "\\", "\u2028", "\n", '"retained"}]',
          ', "score": ', '"rejected"', "}", "]", "retained")
SURROGATES = ("\ud800", "\udfff")  # no output line can hold one; the stage exits 1


@st.composite
def _records(draw, score):
    """Records with distinct ids; in half the draws their text may hold lone surrogates."""
    text = st.lists(st.sampled_from(PIECES + SURROGATES * draw(st.booleans())),
                    max_size=5).map("".join)
    entry = st.builds(ProvenanceEntry, text, st.sampled_from(["retained", "rejected"]) | text,
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


def _write_input(path, records, newline):
    # A lone surrogate cannot be UTF-8; as backslashreplace writes it, it is a JSON escape.
    path.write_bytes(b"".join(_ENCODE(r.to_json_obj()).encode("utf-8", "backslashreplace")
                              + newline for r in records))


def _run(argv):
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main(argv)
    return code, err.getvalue()


def _check(outputs, expected, code, err):
    """Every output holds the expected records' lines, or, where a line cannot be
    UTF-8, the stage exits 1 and writes no output."""
    texts = {path: "".join(_ENCODE(r.to_json_obj()) + "\n" for r in records)
             for path, records in expected.items()}
    try:
        wanted = {path: text.encode("utf-8") for path, text in texts.items()}
    except UnicodeEncodeError:
        assert code == 1 and "surrogates not allowed" in err
        assert not any(path.exists() for path in outputs)
        return
    assert (code, err) == (0, "")
    for path, data in wanted.items():
        assert path.read_bytes() == data


@pytest.fixture(scope="module")
def model(tmp_path_factory):
    root = tmp_path_factory.mktemp("model")
    vocab = Vocabulary(SPECIAL_TOKENS + WORDS)
    cfg = VaeConfig(vocab_size=vocab.size, embed_dim=4, hidden_dim=6, latent_dim=2, max_len=12,
                    seed=1)
    params = init_params(cfg)
    vocab.save(root / "vocab.txt")
    save_checkpoint(params, cfg, vocab.content_hash(), root / "model.ckpt")
    return root, vocab, params, cfg


@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(_records(st.none() | _score), st.sampled_from([b"\n", b"\r\n"]))
def test_score_writes_each_record_with_its_score(tmp_path_factory, model, records, newline):
    root, vocab, params, cfg = model
    tmp = tmp_path_factory.mktemp("score")
    _write_input(tmp / "in.jsonl", records, newline)
    code, err = _run(["score", "--quiet", "--input", str(tmp / "in.jsonl"),
                      "--checkpoint", str(root / "model.ckpt"),
                      "--vocabulary", str(root / "vocab.txt"), "--output", str(tmp / "out.jsonl")])
    read = list(read_jsonl(tmp / "in.jsonl"))
    scores = reconstruction_loss(params, [vocab.encode(tokenize(r.comment), cfg.max_len)
                                          for r in read])
    scored = [dataclasses.replace(r, score=float(s)) for r, s in zip(read, scores)]
    _check([tmp / "out.jsonl"], {tmp / "out.jsonl": scored}, code, err)


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(_records(_score), st.sampled_from([b"\n", b"\r\n"]),
       st.sampled_from(["percentile", "kmeans2"]), st.booleans())
def test_partition_writes_each_record_with_its_action(tmp_path_factory, records, newline,
                                                      strategy, strip):
    tmp = tmp_path_factory.mktemp("partition")
    _write_input(tmp / "in.jsonl", records, newline)
    outputs = [tmp / "retained.jsonl", tmp / "rejects.jsonl"]
    code, err = _run(["partition", "--quiet", "--input", str(tmp / "in.jsonl"),
                      "--retained", str(outputs[0]), "--rejects", str(outputs[1]),
                      "--report", str(tmp / "report.json"), "--strategy", strategy, "--p", "0.5",
                      *(["--strip-provenance"] if strip else [])])
    read = list(read_jsonl(tmp / "in.jsonl"))
    keep, _ = partition([r.id for r in read], [r.score for r in read], strategy, p=0.5)
    retained, rejected = [], []
    for record, kept in zip(read, keep):
        if kept:
            if strip:
                record.provenance = []
            else:
                record.provenance.append(ProvenanceEntry("semantic", "retained"))
            retained.append(record)
        else:
            record.provenance.append(ProvenanceEntry("semantic", "rejected"))
            rejected.append(record)
    _check(outputs, {outputs[0]: retained, outputs[1]: rejected}, code, err)
