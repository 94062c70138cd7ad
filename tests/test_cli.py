"""End-to-end CLI behavior: stages, exit codes, file contracts."""

import argparse
import dataclasses
import json
import multiprocessing
import os
import struct
import subprocess
import sys

import numpy as np
import pytest

import queryfilter
from queryfilter.checkpoint import CheckpointError, load_checkpoint, save_checkpoint
from queryfilter import cli, corpus, vae
from queryfilter.cli import _load_cfg, build_parser, main
from queryfilter.config import PathsConfig, load_config
from queryfilter.corpus import (CorpusError, Record, _record_from_obj, iter_json_objects,
                                read_jsonl, write_jsonl)
from queryfilter.vae import TrainingError, VaeConfig, init_params, named_tensors, reconstruction_loss
from queryfilter.vocab import SPECIAL_TOKENS, Vocabulary, tokenize

TABLE_EXAMPLES = [
    ("t1", "<p>parse line</p>"),
    ("t2", "(TODO) Send requests"),
    ("t3", "Returns a {@link Support}"),
    ("t4", "See https://github.com/"),
    ("t5", "创建临时文件"),
    ("t6", "=============="),
    ("t7", "Is this a name declaration?"),
    ("t8", "DEPRECATED"),
]


def write_pairs(path, rows):
    with open(path, "w", encoding="utf-8") as fh:
        for rid, comment in rows:
            fh.write(json.dumps({"id": rid, "comment": comment, "code": "int x;"},
                                ensure_ascii=False) + "\n")


def write_scored(path, n, extra_line=None):
    """``n`` scored records from two separated clusters, plus an optional raw line."""
    with open(path, "w", encoding="utf-8") as fh:
        for i in range(n):
            score = (1.0 if i % 3 else 5.0) + 0.001 * (i % 97)
            fh.write(json.dumps({"id": f"s{i:05d}", "comment": f"read record {i} from the file",
                                 "code": "int x;", "score": score}) + "\n")
        if extra_line is not None:
            fh.write(extra_line)


def edit_model(path, edit):
    """Rewrite the checkpoint ``path`` with ``edit`` applied to its parameters."""
    params, vae_cfg, vocab = load_checkpoint(path)
    edit(params)
    save_checkpoint(params, vae_cfg, vocab, path)


def overflow_logits(params):
    """Finite weights whose logits overflow to inf for every record."""
    params.out_b.fill(np.finfo(float).max)
    params.out_w *= 1e306


def tensor_payload(path):
    """The bytes of a checkpoint after its header."""
    blob = path.read_bytes()
    (header_len,) = struct.unpack("<I", blob[8:12])
    return blob[12 + header_len:]


def output_bytes(tmp_path, names):
    return {name: (tmp_path / name).read_bytes() for name in names}


def temp_files(tmp_path):
    return [p.name for p in tmp_path.rglob("*.tmp")]


def rewrite(path, edit):
    """Rewrite the JSONL file ``path`` as ``edit(records)``, repeated ids and all."""
    write_jsonl(edit([_record_from_obj(obj, n) for n, obj in iter_json_objects(path)]), path)


def reads_of(monkeypatch, edit=None):
    """Record the path of each ``read_jsonl`` call a stage makes; with ``edit``,
    rewrite the input as ``edit(records)`` once the first call has yielded them all."""
    reads = []
    real = cli.read_jsonl

    def read_jsonl(path):
        reads.append(path)
        yield from real(path)
        if edit is not None and len(reads) == 1:
            rewrite(path, edit)

    monkeypatch.setattr(cli, "read_jsonl", read_jsonl)
    return reads


def rewrite_before_the_confirming_read(monkeypatch, edit):
    """Rewrite a stage's input as ``edit(records)`` just before its second parse,
    which for an input with a repeated id is the duplicate check's confirming read."""
    parses, real = [], corpus.iter_json_objects

    def iter_json_objects(path):
        parses.append(path)
        if len(parses) == 2:
            rewrite(path, edit)
        return real(path)

    monkeypatch.setattr(corpus, "iter_json_objects", iter_json_objects)
    return parses


def _renamed(records):
    records[len(records) // 2].id = "replaced"
    return records


def _repeated(records):
    records[len(records) // 2].id = records[0].id
    return records


def _retexted(records):
    record = records[len(records) // 2]
    record.comment += " (edited)"
    if record.score is not None:
        record.score += 1.0
    return records


# How a file's ids can change between two reads of it.
CHANGES = {
    "changed_id": _renamed,
    "extra_record": lambda records: records + [Record(id="extra", comment="c", code="x", score=1.0)],
    "missing_record": lambda records: records[:-1],
    "repeated_id": _repeated,
}
# ... and every way a file can change, its text under the same ids included.
EDITS = {**CHANGES, "changed_text": _retexted}


def small_config(tmp_path, extra=""):
    cfg = tmp_path / "pipeline.ini"
    cfg.write_text(
        f"""
[pipeline]
seed = 7

[paths]
input = {tmp_path}/pairs.jsonl
titles = {tmp_path}/titles.txt
bootstrap = {tmp_path}/bootstrap.txt
rule_retained = {tmp_path}/rule_retained.jsonl
rule_rejects = {tmp_path}/rule_rejects.jsonl
rule_stats = {tmp_path}/rule_stats.json
checkpoint = {tmp_path}/model.ckpt
vocabulary = {tmp_path}/vocab.txt
scored = {tmp_path}/scored.jsonl
retained = {tmp_path}/retained.jsonl
semantic_rejects = {tmp_path}/semantic_rejects.jsonl
report = {tmp_path}/report.json

[tokenizer]
max_size = 200
min_count = 1
max_len = 12

[vae]
embed_dim = 8
hidden_dim = 12
latent_dim = 4
epochs = 2
batch_size = 8
learning_rate = 0.002
kl_anneal_steps = 100
{extra}
""",
        encoding="utf-8",
    )
    return cfg


class TestRuleFilterCommand:
    @pytest.mark.parametrize("disabled", ["", "urls"])
    def test_repeated_rule_id_in_order_exits_1_naming_it(self, tmp_path, capsys, disabled):
        write_pairs(tmp_path / "pairs.jsonl", TABLE_EXAMPLES)
        cfg = small_config(tmp_path, extra="[ruleset]\norder = urls, html_tags, urls\n"
                                            f"disabled = {disabled}\n")
        assert main(["rule-filter", "--config", str(cfg), "--quiet"]) == 1
        assert capsys.readouterr().err == 'error: rule ids must be unique: "urls" repeats\n'
        assert sorted(p.name for p in tmp_path.iterdir()) == ["pairs.jsonl", "pipeline.ini"]

    def test_table_examples(self, tmp_path):
        write_pairs(tmp_path / "pairs.jsonl", TABLE_EXAMPLES)
        cfg = small_config(tmp_path)
        assert main(["rule-filter", "--config", str(cfg), "--quiet"]) == 0

        stats = json.loads((tmp_path / "rule_stats.json").read_text())
        by_rule = {row["rule"]: row for row in stats["rows"]}
        assert by_rule["html_tags"]["modified"] == 1
        assert by_rule["parentheses"]["modified"] == 1
        for rule in ("javadoc_tags", "urls", "non_english", "punctuation", "interrogation"):
            assert by_rule[rule]["discarded"] == 1, rule
        # "DEPRECATED" plus the two transformed-but-now-short comments
        assert by_rule["short_sentence"]["discarded"] == 3
        assert stats["retained"] == 0
        # transform rows leave the running retained count untouched; reject
        # rows decrement it in order
        assert by_rule["html_tags"]["retained"] == 8
        assert by_rule["parentheses"]["retained"] == 8
        running = 8
        for row in stats["rows"]:
            if row["kind"] == "reject":
                running -= row["discarded"]
                assert row["retained"] == running

        rejects = {r.id: r for r in read_jsonl(tmp_path / "rule_rejects.jsonl")}
        assert len(rejects) == 8
        transformed = rejects["t1"]
        steps = [p for p in transformed.provenance if p["action"] == "transformed"]
        assert any(p.get("rule_id") == "html_tags" and p.get("after") == "parse line"
                   for p in steps)

    def test_retained_and_rejected_are_a_partition(self, tmp_path):
        rows = TABLE_EXAMPLES + [
            ("k1", "convert string to int"),
            ("k2", "Reads the configuration file. Returns null on failure."),
        ]
        write_pairs(tmp_path / "pairs.jsonl", rows)
        cfg = small_config(tmp_path)
        assert main(["rule-filter", "--config", str(cfg), "--quiet"]) == 0
        retained = {r.id for r in read_jsonl(tmp_path / "rule_retained.jsonl")}
        rejected = {r.id for r in read_jsonl(tmp_path / "rule_rejects.jsonl")}
        assert retained == {"k1", "k2"}
        assert retained | rejected == {rid for rid, _ in rows}
        assert not retained & rejected

    def test_first_sentence_extraction_recorded(self, tmp_path):
        write_pairs(tmp_path / "pairs.jsonl",
                    [("k2", "Reads the configuration file. Returns null.")])
        cfg = small_config(tmp_path)
        main(["rule-filter", "--config", str(cfg), "--quiet"])
        (rec,) = read_jsonl(tmp_path / "rule_retained.jsonl")
        assert rec.comment == "Reads the configuration file."
        assert rec.provenance[0]["stage"] == "extract"

    def test_disable_rule_flag(self, tmp_path):
        write_pairs(tmp_path / "pairs.jsonl", [("s1", "quick sort")])
        cfg = small_config(tmp_path)
        main(["rule-filter", "--config", str(cfg), "--quiet",
              "--disable-rule", "short_sentence"])
        retained = [r.id for r in read_jsonl(tmp_path / "rule_retained.jsonl")]
        assert retained == ["s1"]

    def test_disabled_in_config_and_by_flag_both_left_out(self, tmp_path):
        write_pairs(tmp_path / "pairs.jsonl",
                    [("s1", "quick sort"), ("u1", "See www.example.com for the format")])
        cfg = small_config(tmp_path, extra="[ruleset]\ndisabled = urls\n")
        assert main(["rule-filter", "--config", str(cfg), "--quiet",
                     "--disable-rule", "short_sentence"]) == 0
        retained = [r.id for r in read_jsonl(tmp_path / "rule_retained.jsonl")]
        assert retained == ["s1", "u1"]
        stats = json.loads((tmp_path / "rule_stats.json").read_text())
        rules = [row["rule"] for row in stats["rows"]]
        assert "urls" not in rules and "short_sentence" not in rules
        assert len(rules) == 6

    def test_stats_rows_follow_configured_order(self, tmp_path):
        write_pairs(tmp_path / "pairs.jsonl", [("k1", "convert string to int")])
        cfg = small_config(
            tmp_path,
            extra="[ruleset]\norder = parentheses, html_tags, short_sentence, urls\n",
        )
        main(["rule-filter", "--config", str(cfg), "--quiet"])
        stats = json.loads((tmp_path / "rule_stats.json").read_text())
        assert [row["rule"] for row in stats["rows"]] == [
            "parentheses", "html_tags", "short_sentence", "urls",
        ]

    def test_missing_input_exits_2(self, tmp_path):
        cfg = small_config(tmp_path)
        assert main(["rule-filter", "--config", str(cfg), "--quiet"]) == 2

    def test_invalid_utf8_exits_2_naming_the_line(self, tmp_path, capsys):
        (tmp_path / "pairs.jsonl").write_bytes(
            b'{"id":"a","comment":"parse line","code":"x"}\n{"id":"b","comment":"\xff","code":"x"}\n'
        )
        cfg = small_config(tmp_path)
        assert main(["rule-filter", "--config", str(cfg), "--quiet"]) == 2
        assert "line 2: not valid UTF-8" in capsys.readouterr().err
        assert not (tmp_path / "rule_retained.jsonl").exists()

    @pytest.mark.parametrize("value", ["9" * 5001, "[" * 200_000 + "]" * 200_000],
                             ids=["long_integer", "deep_nesting"])
    def test_value_beyond_parser_limits_exits_2_naming_the_line(self, tmp_path, capsys, value):
        (tmp_path / "pairs.jsonl").write_text(
            '{"id":"a","comment":"parse line","code":"x"}\n'
            '{"id":"b","comment":"parse line","code":"x","extra":' + value + "}\n",
            encoding="utf-8",
        )
        cfg = small_config(tmp_path)
        assert main(["rule-filter", "--config", str(cfg), "--quiet"]) == 2
        assert "line 2: unsupported JSON" in capsys.readouterr().err
        assert not (tmp_path / "rule_retained.jsonl").exists()

    def test_provenance_entry_off_schema_exits_2_naming_the_line(self, tmp_path, capsys):
        entry = {"stage": "upstream", "action": "kept", "note": "keep me"}
        (tmp_path / "pairs.jsonl").write_text(
            '{"id":"a","comment":"parse line","code":"x"}\n'
            + json.dumps({"id": "b", "comment": "parse line", "code": "x",
                          "provenance": [entry]}) + "\n",
            encoding="utf-8",
        )
        cfg = small_config(tmp_path)
        assert main(["rule-filter", "--config", str(cfg), "--quiet"]) == 2
        assert "line 2: provenance entries hold a string" in capsys.readouterr().err
        assert not (tmp_path / "rule_retained.jsonl").exists()

    def test_unknown_disabled_rule_flag_exits_1(self, tmp_path, capsys):
        write_pairs(tmp_path / "pairs.jsonl", [("k1", "convert string to int")])
        cfg = small_config(tmp_path)
        assert main(["rule-filter", "--config", str(cfg), "--quiet",
                     "--disable-rule", "shrot_sentence"]) == 1
        assert "shrot_sentence" in capsys.readouterr().err
        assert not (tmp_path / "rule_retained.jsonl").exists()

    def test_unknown_disabled_rule_in_config_exits_1(self, tmp_path, capsys):
        write_pairs(tmp_path / "pairs.jsonl", [("k1", "convert string to int")])
        cfg = small_config(tmp_path, extra="[ruleset]\ndisabled = urls, nonsense\n")
        assert main(["rule-filter", "--config", str(cfg), "--quiet"]) == 1
        err = capsys.readouterr().err
        assert "nonsense" in err and "urls" not in err
        assert not (tmp_path / "rule_retained.jsonl").exists()

    @pytest.mark.parametrize("rejects", ["rule_retained.jsonl", "sub/../rule_retained.jsonl"])
    def test_retained_and_rejects_on_one_file_exit_1(self, tmp_path, capsys, rejects):
        write_pairs(tmp_path / "pairs.jsonl", TABLE_EXAMPLES)
        (tmp_path / "sub").mkdir()
        cfg = small_config(tmp_path)
        retained, rejects = str(tmp_path / "rule_retained.jsonl"), str(tmp_path / rejects)
        assert main(["rule-filter", "--config", str(cfg), "--quiet",
                     "--retained", retained, "--rejects", rejects]) == 1
        err = capsys.readouterr().err
        assert retained in err and rejects in err and "same file" in err
        assert not (tmp_path / "rule_retained.jsonl").exists()

    @pytest.mark.parametrize("flag", ["--retained", "--rejects"])
    def test_stats_on_a_record_output_exits_1(self, tmp_path, capsys, flag):
        write_pairs(tmp_path / "pairs.jsonl", TABLE_EXAMPLES)
        (tmp_path / "sub").mkdir()
        cfg = small_config(tmp_path)
        stats, out = str(tmp_path / "out.json"), str(tmp_path / "sub/../out.json")
        assert main(["rule-filter", "--config", str(cfg), "--quiet",
                     "--stats", stats, flag, out]) == 1
        err = capsys.readouterr().err
        assert stats in err and out in err and "same file" in err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["pairs.jsonl", "pipeline.ini", "sub"]

    def test_repeated_id_through_a_fifo_exits_2_saying_so(self, tmp_path):
        write_pairs(tmp_path / "pairs.jsonl", [("a", "Read the file."), ("a", "Write the file.")])
        done = run_through_fifo(tmp_path / "pairs.jsonl", [
            "rule-filter", "--quiet", "--retained", str(tmp_path / "retained.jsonl"),
            "--rejects", str(tmp_path / "rejects.jsonl"), "--stats", str(tmp_path / "stats.json")])
        assert (done.returncode, done.stderr) == (2, (
            f"error: {tmp_path / 'input.fifo'} repeats an id, or two of its ids share a 64-bit "
            "hash, and it cannot be read again to name the id\n"))
        assert sorted(p.name for p in tmp_path.iterdir()) == ["pairs.jsonl"]

    def test_malformed_line_near_the_end_keeps_both_earlier_outputs(self, tmp_path, capsys):
        # Enough records that both outputs are partly written when the bad line is met.
        rows = [(f"k{i:05d}", f"Convert value {i} to a string." if i % 3 else f"See http://x.org/{i}")
                for i in range(3000)]
        write_pairs(tmp_path / "pairs.jsonl", rows[:30])
        cfg = small_config(tmp_path)
        assert main(["rule-filter", "--config", str(cfg), "--quiet"]) == 0
        outputs = ("rule_retained.jsonl", "rule_rejects.jsonl", "rule_stats.json")
        before = output_bytes(tmp_path, outputs)
        write_pairs(tmp_path / "pairs.jsonl", rows)
        with open(tmp_path / "pairs.jsonl", "a", encoding="utf-8") as fh:
            fh.write('{"id": "bad", "comment": \n')
            fh.write('{"id": "last", "comment": "Parse the line.", "code": "x"}\n')
        assert main(["rule-filter", "--config", str(cfg), "--quiet"]) == 2
        assert "line 3001: malformed JSON" in capsys.readouterr().err
        assert output_bytes(tmp_path, outputs) == before
        assert temp_files(tmp_path) == []


class TestBootstrapCommand:
    def test_title_preparation(self, tmp_path):
        (tmp_path / "titles.txt").write_text(
            "How to convert string to int?\n"
            "Why is my loop slow?\n"
            "How to use {@link Foo}\n"
            "How to read a file line by line\n",
            encoding="utf-8",
        )
        cfg = small_config(tmp_path)
        assert main(["bootstrap", "--config", str(cfg), "--quiet"]) == 0
        lines = (tmp_path / "bootstrap.txt").read_text().splitlines()
        assert lines == ["convert string to int", "read a file line by line"]

    def test_crlf_titles_match_lf_titles(self, tmp_path):
        titles = ["How to convert string to int?", "Why is my loop slow?",
                  "How to read a file line by line", "how to  sort a list ?"]
        cfg = small_config(tmp_path)
        outputs = []
        for ending in ("\n", "\r\n"):
            (tmp_path / "titles.txt").write_bytes(ending.join(titles).encode() + ending.encode())
            assert main(["bootstrap", "--config", str(cfg), "--quiet"]) == 0
            outputs.append((tmp_path / "bootstrap.txt").read_bytes())
        assert outputs[0] == outputs[1]
        assert outputs[0] == b"convert string to int\nread a file line by line\nsort a list\n"

    def test_invalid_utf8_exits_2_naming_the_line(self, tmp_path, capsys):
        (tmp_path / "titles.txt").write_bytes(
            b"How to convert string to int?\nHow to read a file \xff line by line\n"
        )
        cfg = small_config(tmp_path)
        assert main(["bootstrap", "--config", str(cfg), "--quiet"]) == 2
        assert "line 2: not valid UTF-8" in capsys.readouterr().err
        assert not (tmp_path / "bootstrap.txt").exists()


def score_shares(monkeypatch):
    """Record the shares a score stage scores, each as a list of id tuples:
    those this process passes to ``reconstruction_loss``, and those given to
    each worker as it is started.  The workers still run."""
    here, started = [], []
    real_loss, real_process = cli.reconstruction_loss, multiprocessing.Process

    def reconstruction_loss(params, sequences):
        here.append([tuple(seq) for seq in sequences])
        return real_loss(params, sequences)

    def process(target, args):
        started.append([tuple(seq) for seq in args[-1]])
        return real_process(target=target, args=args)

    monkeypatch.setattr(cli, "reconstruction_loss", reconstruction_loss)
    monkeypatch.setattr(multiprocessing, "Process", process)
    return here, started


@pytest.fixture()
def trained_pipeline(tmp_path):
    """Inputs plus a completed rule-filter + bootstrap + train run."""
    comments = [
        ("r%02d" % i, f"convert the {noun} value to a number")
        for i, noun in enumerate(
            ["string", "float", "date", "index", "token", "buffer",
             "row", "column", "field", "item", "key", "line"]
        )
    ] + [
        ("q%02d" % i, f"read {noun} records from the input stream")
        for i, noun in enumerate(
            ["csv", "json", "xml", "binary", "text", "log", "table", "batch"]
        )
    ]
    write_pairs(tmp_path / "pairs.jsonl", comments)
    titles = [
        f"How to convert a {n} to a number?" for n in
        ["string", "float", "date", "token", "value", "buffer", "row", "item"]
    ] + [
        f"How to read {n} records from a stream?" for n in
        ["csv", "json", "xml", "text", "log", "binary", "table", "batch"]
    ]
    (tmp_path / "titles.txt").write_text("\n".join(titles) + "\n", encoding="utf-8")
    cfg = small_config(tmp_path)
    assert main(["rule-filter", "--config", str(cfg), "--quiet"]) == 0
    assert main(["bootstrap", "--config", str(cfg), "--quiet"]) == 0
    assert main(["train", "--config", str(cfg), "--quiet"]) == 0
    return tmp_path, cfg


def rewrite_header(ckpt, edit):
    """Replace the checkpoint's JSON header with ``edit(header)``; returns the new header."""
    blob = ckpt.read_bytes()
    (header_len,) = struct.unpack("<I", blob[8:12])
    header = edit(json.loads(blob[12 : 12 + header_len]))
    raw = json.dumps(header).encode("utf-8")
    ckpt.write_bytes(blob[:8] + struct.pack("<I", len(raw)) + raw + blob[12 + header_len :])
    return header


def stage_env():
    """The environment for a child interpreter that imports this queryfilter."""
    src = os.path.dirname(os.path.dirname(queryfilter.__file__))
    return {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH"))))}


# Runs one CLI command in a child interpreter while a thread feeds the input
# file to it through a named pipe.
_FIFO_FEED = """
import sys, threading
from queryfilter.cli import main
fifo, data = sys.argv[1:3]

def feed():
    with open(data, "rb") as src, open(fifo, "wb") as out:
        out.write(src.read())

threading.Thread(target=feed, daemon=True).start()
sys.exit(main(sys.argv[3:] + ["--input", fifo]))
"""


def run_through_fifo(data, argv):
    """``queryfilter argv --input FIFO`` in a child process, fed ``data`` through the FIFO.

    A stage that opens its input twice blocks on the second open, so the
    child runs under a timeout: a regression fails here instead of hanging.
    """
    if not hasattr(os, "mkfifo"):
        pytest.skip("needs named pipes")
    fifo = data.parent / "input.fifo"
    os.mkfifo(fifo)
    try:
        return subprocess.run([sys.executable, "-c", _FIFO_FEED, str(fifo), str(data), *argv],
                              env=stage_env(), capture_output=True, text=True, timeout=60)
    finally:
        fifo.unlink()


# Runs one CLI command in this interpreter, then prints which it loaded of
# hashlib and _hashlib (OpenSSL), multiprocessing, which only score's workers
# need, and multiprocessing.pool and numpy.ma, which no stage needs.
_IMPORT_PROBE = """
import sys
from queryfilter.cli import main
code = main(sys.argv[1:])
print(" ".join(m for m in ("hashlib", "_hashlib", "multiprocessing", "multiprocessing.pool",
                           "numpy.ma") if m in sys.modules))
sys.exit(code)
"""

# Runs one CLI command with a scorer that SIGKILLs any process but this one, so
# every score worker dies before it sends its scores.
_KILLED_WORKER = """
import os, signal, sys
from queryfilter import cli
caller, real = os.getpid(), cli.reconstruction_loss

def reconstruction_loss(params, sequences):
    if os.getpid() != caller:
        os.kill(os.getpid(), signal.SIGKILL)
    return real(params, sequences)

cli.reconstruction_loss = reconstruction_loss
sys.exit(cli.main(sys.argv[1:]))
"""


def test_stages_load_openssl_and_multiprocessing_only_when_they_use_them(trained_pipeline):
    tmp_path, cfg = trained_pipeline
    write_scored(tmp_path / "scored.jsonl", 30)
    write_pairs(tmp_path / "one.jsonl", [("o1", "read the csv records")])
    commands = {
        "rule-filter": ["rule-filter"],
        "bootstrap": ["bootstrap"],
        "partition gmm": ["partition", "--strategy", "gmm"],
        "partition kmeans2": ["partition", "--strategy", "kmeans2"],
        "partition percentile": ["partition", "--strategy", "percentile", "--p", "0.5"],
        "score --jobs 1": ["score"],
        "score --jobs 2": ["score", "--jobs", "2"],
        "score --jobs 3, one record": ["score", "--jobs", "3", "--input", str(tmp_path / "one.jsonl"),
                                       "--output", str(tmp_path / "one_scored.jsonl")],
        "train": ["train"],
    }
    env = stage_env()
    loaded = {}
    for name, argv in commands.items():
        done = subprocess.run([sys.executable, "-c", _IMPORT_PROBE, *argv, "--config", str(cfg),
                               "--quiet"], env=env, capture_output=True, text=True, check=True)
        loaded[name] = done.stdout.split()
    # Only train's numpy.random loads OpenSSL; that train shows it proves the probe sees it.
    assert loaded == {**{name: [] for name in commands}, "train": ["hashlib", "_hashlib"],
                      "score --jobs 2": ["multiprocessing"]}


class TestTrainCommand:
    @pytest.mark.parametrize("setting, bad, message", [
        ("max_size = 200", "max_size = 3", "max_size must be at least 5"),
        ("min_count = 1", "min_count = 0", "min_count must be at least 1"),
    ])
    def test_bad_tokenizer_limit_exits_1_before_the_bootstrap_is_read(
            self, tmp_path, capsys, setting, bad, message):
        (tmp_path / "bootstrap.txt").write_bytes(b"\xff convert string to int\n")
        cfg = small_config(tmp_path)
        cfg.write_text(cfg.read_text().replace(setting, bad))
        assert main(["train", "--config", str(cfg), "--quiet"]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["bootstrap.txt", "pipeline.ini"]

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")  # numpy overflows on the way
    def test_diverging_loss_exits_3_naming_the_step(self, tmp_path, capsys):
        (tmp_path / "bootstrap.txt").write_text("convert string to int\nread a file\n",
                                                encoding="utf-8")
        cfg = small_config(tmp_path)
        cfg.write_text(cfg.read_text().replace("learning_rate = 0.002", "learning_rate = 1e14"))
        assert main(["train", "--config", str(cfg), "--quiet"]) == 3
        assert "non-finite loss at optimizer step" in capsys.readouterr().err
        assert not (tmp_path / "model.ckpt").exists()

    def test_checkpoint_and_vocabulary_on_one_file_exit_1(self, tmp_path, capsys):
        (tmp_path / "bootstrap.txt").write_text("convert string to int\nread a file\n",
                                                encoding="utf-8")
        cfg = small_config(tmp_path)
        out = str(tmp_path / "model.out")
        assert main(["train", "--config", str(cfg), "--quiet",
                     "--checkpoint", out, "--vocabulary", out]) == 1
        err = capsys.readouterr().err
        assert err.count(out) == 2 and "same file" in err
        assert not (tmp_path / "model.out").exists()

    def test_artifacts_written(self, trained_pipeline):
        tmp_path, _ = trained_pipeline
        assert (tmp_path / "model.ckpt").exists()
        vocab_lines = (tmp_path / "vocab.txt").read_text().splitlines()
        assert vocab_lines[:4] == ["<pad>", "<bos>", "<eos>", "<unk>"]

    def test_empty_corpus_exits_3(self, tmp_path):
        (tmp_path / "bootstrap.txt").write_text("", encoding="utf-8")
        cfg = small_config(tmp_path)
        assert main(["train", "--config", str(cfg), "--quiet"]) == 3

    def test_invalid_utf8_exits_2_naming_the_line(self, tmp_path, capsys):
        (tmp_path / "bootstrap.txt").write_bytes(
            b"convert string to int\n\nread a file \xff line by line\n"
        )
        cfg = small_config(tmp_path)
        assert main(["train", "--config", str(cfg), "--quiet"]) == 2
        assert "line 3: not valid UTF-8" in capsys.readouterr().err
        assert not (tmp_path / "model.ckpt").exists()

    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_learning_rate_exits_1_before_the_first_step(
            self, tmp_path, monkeypatch, capsys, value):
        (tmp_path / "bootstrap.txt").write_text("convert string to int\nread a file\n",
                                                encoding="utf-8")
        cfg = small_config(tmp_path)
        cfg.write_text(cfg.read_text().replace("learning_rate = 0.002", f"learning_rate = {value}"))

        def no_step(*args, **kwargs):
            raise AssertionError("train took a step")

        monkeypatch.setattr(vae, "loss_and_grads", no_step)
        assert main(["train", "--config", str(cfg), "--quiet"]) == 1
        assert "learning_rate" in capsys.readouterr().err
        assert not (tmp_path / "model.ckpt").exists()

    @pytest.mark.parametrize("how", ["flag", "config"])
    def test_negative_seed_exits_1_before_the_bootstrap_is_read(self, tmp_path, capsys, how):
        cfg = small_config(tmp_path)  # bootstrap.txt is absent: reading it would exit 2
        argv = ["train", "--config", str(cfg), "--quiet"]
        if how == "flag":
            argv += ["--seed", "-5"]
        else:
            cfg.write_text(cfg.read_text().replace("seed = 7", "seed = -1"))
        assert main(argv) == 1
        assert capsys.readouterr().err == "error: seed must be >= 0\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["pipeline.ini"]

    def test_checkpoint_takes_max_len_from_tokenizer(self, trained_pipeline):
        tmp_path, _ = trained_pipeline  # [tokenizer] max_len = 12
        assert load_checkpoint(tmp_path / "model.ckpt")[2].max_len == 12

    def test_seed_flag_trains_as_the_pipeline_seed(self, trained_pipeline):
        tmp_path, cfg = trained_pipeline  # [pipeline] seed = 7
        seed_7 = tensor_payload(tmp_path / "model.ckpt")
        assert main(["train", "--config", str(cfg), "--quiet", "--seed", "5"]) == 0
        flag_5 = tensor_payload(tmp_path / "model.ckpt")
        cfg.write_text(cfg.read_text().replace("seed = 7", "seed = 5"))
        assert main(["train", "--config", str(cfg), "--quiet"]) == 0
        assert tensor_payload(tmp_path / "model.ckpt") == flag_5 != seed_7

    def test_same_seed_same_checkpoint(self, trained_pipeline):
        tmp_path, cfg = trained_pipeline
        first = (tmp_path / "model.ckpt").read_bytes()
        assert main(["train", "--config", str(cfg), "--quiet"]) == 0
        assert (tmp_path / "model.ckpt").read_bytes() == first


class TestScoreCommand:
    def test_scores_attached_in_order(self, trained_pipeline):
        tmp_path, cfg = trained_pipeline
        assert main(["score", "--config", str(cfg), "--quiet"]) == 0
        inputs = [r.id for r in read_jsonl(tmp_path / "rule_retained.jsonl")]
        scored = list(read_jsonl(tmp_path / "scored.jsonl"))
        assert [r.id for r in scored] == inputs
        assert all(r.score is not None and r.score >= 0 for r in scored)

    def test_scoring_is_deterministic(self, trained_pipeline):
        tmp_path, cfg = trained_pipeline
        main(["score", "--config", str(cfg), "--quiet"])
        first = (tmp_path / "scored.jsonl").read_bytes()
        main(["score", "--config", str(cfg), "--quiet"])
        assert (tmp_path / "scored.jsonl").read_bytes() == first

    def test_score_reads_the_vocabulary_from_the_checkpoint_alone(self, trained_pipeline):
        tmp_path, cfg = trained_pipeline
        assert main(["score", "--config", str(cfg), "--quiet"]) == 0
        before = (tmp_path / "scored.jsonl").read_bytes()
        (tmp_path / "vocab.txt").unlink()
        assert main(["score", "--config", str(cfg), "--quiet"]) == 0
        assert (tmp_path / "scored.jsonl").read_bytes() == before

    @pytest.mark.parametrize("edit, message", [
        (lambda v: [*v, v[5]], lambda v: f'vocabulary tokens must be unique: "{v[5]}" at id '
                                         f"{len(v) - 1} repeats id 5"),
        (lambda v: [*v[4:], *v[:4]],
         lambda v: "vocabulary must start with the reserved special tokens"),
        (lambda v: [*v[:4], 5], lambda v: "vocabulary must be a list of strings"),
    ], ids=["repeated-token", "reserved-tokens-last", "non-string-token"])
    def test_malformed_checkpoint_vocabulary_exits_4_naming_the_file(
            self, trained_pipeline, capsys, edit, message):
        tmp_path, cfg = trained_pipeline
        ckpt = tmp_path / "model.ckpt"
        header = rewrite_header(ckpt, lambda h: {**h, "vocabulary": edit(h["vocabulary"])})
        assert main(["score", "--config", str(cfg), "--quiet"]) == 4
        assert capsys.readouterr().err == (
            f"error: {ckpt}: invalid checkpoint header: {message(header['vocabulary'])}\n")
        assert not (tmp_path / "scored.jsonl").exists()

    def test_vocabulary_unlike_the_model_exits_4(self, trained_pipeline, capsys):
        tmp_path, cfg = trained_pipeline
        ckpt = tmp_path / "model.ckpt"
        rewrite_header(ckpt, lambda h: {**h, "vocabulary": [*SPECIAL_TOKENS, "somethingelse"]})
        assert main(["score", "--config", str(cfg), "--quiet"]) == 4
        assert capsys.readouterr().err.startswith(f"error: {ckpt}: tensor manifest must be ")
        assert not (tmp_path / "scored.jsonl").exists()

    def test_version_1_checkpoint_exits_4(self, trained_pipeline, capsys):
        tmp_path, cfg = trained_pipeline
        ckpt = tmp_path / "model.ckpt"
        blob = ckpt.read_bytes()
        ckpt.write_bytes(blob[:4] + struct.pack("<I", 1) + blob[8:])
        assert main(["score", "--config", str(cfg), "--quiet"]) == 4
        assert "unsupported checkpoint version 1" in capsys.readouterr().err

    def test_malformed_checkpoint_header_exits_4(self, trained_pipeline, capsys):
        tmp_path, cfg = trained_pipeline
        rewrite_header(tmp_path / "model.ckpt", lambda h: {**h, "tensors": 5})
        assert main(["score", "--config", str(cfg), "--quiet"]) == 4
        assert "[name, shape] pairs" in capsys.readouterr().err

    @pytest.mark.parametrize("key, value", [("embed_dim", 10**9), ("hidden_dim", 300_000)])
    def test_header_claiming_too_large_a_model_exits_4(self, trained_pipeline, capsys, key,
                                                       value):
        tmp_path, cfg = trained_pipeline
        assert main(["score", "--config", str(cfg), "--quiet"]) == 0
        before = (tmp_path / "scored.jsonl").read_bytes()
        ckpt = tmp_path / "model.ckpt"
        rewrite_header(ckpt, lambda h: {**h, "config": {**h["config"], key: value}})
        capsys.readouterr()
        assert main(["score", "--config", str(cfg), "--quiet"]) == 4
        err = capsys.readouterr().err
        assert err.startswith(f"error: {ckpt}: ") and "Traceback" not in err
        assert (tmp_path / "scored.jsonl").read_bytes() == before

    def test_huge_posterior_variance_scores_as_the_mean(self, trained_pipeline):
        # Scoring decodes from z = mu; at logvar 3000, exp(logvar / 2) is infinite.
        tmp_path, cfg = trained_pipeline
        assert main(["score", "--config", str(cfg), "--quiet"]) == 0
        before = (tmp_path / "scored.jsonl").read_bytes()
        edit_model(tmp_path / "model.ckpt", lambda p: p.latent_b[p.latent_dim:].fill(3000.0))
        assert main(["score", "--config", str(cfg), "--quiet"]) == 0
        assert (tmp_path / "scored.jsonl").read_bytes() == before

    @pytest.mark.parametrize("edit, message", [
        (lambda p: p.out_b.__setitem__(3, np.nan), "tensor out_b holds a NaN or infinite value"),
        (overflow_logits, "the model gives 20 records a NaN or infinite score (first: record 1)"),
    ], ids=["nan-tensor", "overflowing-logits"])
    def test_model_without_finite_scores_exits_4_before_any_output(self, trained_pipeline,
                                                                  capsys, edit, message):
        tmp_path, cfg = trained_pipeline
        ckpt = tmp_path / "model.ckpt"
        edit_model(ckpt, edit)
        listing = sorted(os.listdir(tmp_path))
        with np.errstate(all="ignore"):
            assert main(["score", "--config", str(cfg), "--quiet"]) == 4
        assert capsys.readouterr().err == f"error: {ckpt}: {message}\n"
        assert sorted(os.listdir(tmp_path)) == listing

    def test_empty_comment_scores_finite_and_is_flagged(self, trained_pipeline, capsys):
        tmp_path, cfg = trained_pipeline
        write_pairs(tmp_path / "edge.jsonl", [("e1", ""), ("e2", "read the csv records")])
        assert main(["score", "--config", str(cfg),
                     "--input", str(tmp_path / "edge.jsonl"),
                     "--output", str(tmp_path / "edge_scored.jsonl")]) == 0
        assert "BOS/EOS only" in capsys.readouterr().err
        scored = {r.id: r.score for r in read_jsonl(tmp_path / "edge_scored.jsonl")}
        assert all(s is not None and s >= 0 for s in scored.values())

    def test_parallel_scoring_matches_serial(self, trained_pipeline):
        tmp_path, cfg = trained_pipeline
        lines = (tmp_path / "rule_retained.jsonl").read_text(encoding="utf-8").splitlines(True)
        # The whole file, one record on more workers than records, and no records.
        for count, jobs in ((len(lines), 2), (1, 3), (0, 2)):
            (tmp_path / "subset.jsonl").write_text("".join(lines[:count]), encoding="utf-8")
            files = ["--input", str(tmp_path / "subset.jsonl"),
                     "--output", str(tmp_path / "subset_scored.jsonl")]
            assert main(["score", "--config", str(cfg), "--quiet", *files]) == 0
            serial = (tmp_path / "subset_scored.jsonl").read_bytes()
            assert serial.count(b"\n") == count
            assert main(["score", "--config", str(cfg), "--quiet", "--jobs", str(jobs), *files]) == 0
            assert (tmp_path / "subset_scored.jsonl").read_bytes() == serial

    def test_jobs_1_starts_no_worker_and_jobs_3_scores_three_shares(self, trained_pipeline,
                                                                    monkeypatch):
        tmp_path, cfg = trained_pipeline
        here, started = score_shares(monkeypatch)
        assert main(["score", "--config", str(cfg), "--quiet", "--jobs", "1"]) == 0
        assert started == []
        [records] = here
        serial = (tmp_path / "scored.jsonl").read_bytes()
        here.clear()
        assert main(["score", "--config", str(cfg), "--quiet", "--jobs", "3"]) == 0
        # This process scores share 0 while two workers score the others.
        assert here == [records[0::3]]
        assert started == [records[1::3], records[2::3]]
        assert (tmp_path / "scored.jsonl").read_bytes() == serial

    def test_processes_never_outnumber_the_records(self, trained_pipeline, monkeypatch):
        tmp_path, cfg = trained_pipeline
        here, started = score_shares(monkeypatch)
        lines = (tmp_path / "rule_retained.jsonl").read_text(encoding="utf-8").splitlines(True)
        files = ["--input", str(tmp_path / "subset.jsonl"),
                 "--output", str(tmp_path / "subset_scored.jsonl")]
        # (records, --jobs, share sizes here, share sizes of the workers started):
        # no worker below two records.
        for count, jobs, own, shares in ((0, 3, [0], []), (1, 3, [1], []), (2, 5, [1], [1])):
            (tmp_path / "subset.jsonl").write_text("".join(lines[:count]), encoding="utf-8")
            assert main(["score", "--config", str(cfg), "--quiet", *files]) == 0
            serial = (tmp_path / "subset_scored.jsonl").read_bytes()
            here.clear()
            started.clear()
            assert main(["score", "--config", str(cfg), "--quiet", "--jobs", str(jobs), *files]) == 0
            assert [len(share) for share in here] == own
            assert [len(share) for share in started] == shares
            assert (tmp_path / "subset_scored.jsonl").read_bytes() == serial

    @pytest.mark.skipif(multiprocessing.get_start_method() != "fork",
                        reason="the workers must inherit the patched scorer")
    def test_worker_exception_exits_with_its_code(self, trained_pipeline, monkeypatch, capsys):
        tmp_path, cfg = trained_pipeline
        caller, real = os.getpid(), cli.reconstruction_loss

        def reconstruction_loss(params, sequences):
            if os.getpid() != caller:
                raise TrainingError(f"non-finite loss in a share of {len(sequences)}")
            return real(params, sequences)

        monkeypatch.setattr(cli, "reconstruction_loss", reconstruction_loss)
        assert main(["score", "--config", str(cfg), "--quiet", "--jobs", "2"]) == 3
        n = sum(1 for _ in read_jsonl(tmp_path / "rule_retained.jsonl"))
        assert capsys.readouterr().err == f"error: non-finite loss in a share of {n // 2}\n"
        assert not (tmp_path / "scored.jsonl").exists()

    @pytest.mark.skipif(multiprocessing.get_start_method() != "fork",
                        reason="the workers must inherit the patched scorer")
    def test_worker_killed_mid_share_exits_1_naming_it(self, trained_pipeline):
        tmp_path, cfg = trained_pipeline
        assert main(["score", "--config", str(cfg), "--quiet"]) == 0
        before = (tmp_path / "scored.jsonl").read_bytes()
        listing = sorted(os.listdir(tmp_path))
        done = subprocess.run([sys.executable, "-c", _KILLED_WORKER, "score", "--config", str(cfg),
                               "--quiet", "--jobs", "2"],
                              env=stage_env(), capture_output=True, text=True, timeout=60)
        assert done.returncode == 1
        assert done.stderr.startswith("error: score worker 1 (pid ")
        assert "records 1::2) exited with code -9 before sending its scores" in done.stderr
        assert (tmp_path / "scored.jsonl").read_bytes() == before
        assert sorted(os.listdir(tmp_path)) == listing

    def test_record_score_independent_of_file_and_jobs(self, tmp_path):
        # A GEMM row's bits can depend on how many rows are multiplied, so
        # records are scored in groups of one length and a fixed row count.
        # Weights larger than the training init make such differences show.
        words = tuple(f"w{i}" for i in range(496))
        vocab = Vocabulary(SPECIAL_TOKENS + words)
        vae_cfg = VaeConfig(embed_dim=32, hidden_dim=64, latent_dim=8)
        params = init_params(vae_cfg, vocab.size, 5)
        rng = np.random.default_rng(9)
        for _, tensor in named_tensors(params):
            tensor[...] = rng.uniform(-0.5, 0.5, size=tensor.shape)
        save_checkpoint(params, vae_cfg, vocab, tmp_path / "model.ckpt")
        rows = [(f"r{i:02d}", " ".join(rng.choice(words, size=int(rng.integers(1, 19)))))
                for i in range(64)]
        cfg = small_config(tmp_path)

        def scores(subset, name, jobs=1):
            write_pairs(tmp_path / f"{name}.jsonl", subset)
            assert main(["score", "--config", str(cfg), "--quiet", "--jobs", str(jobs),
                         "--input", str(tmp_path / f"{name}.jsonl"),
                         "--output", str(tmp_path / f"{name}_scored.jsonl")]) == 0
            return {r.id: r.score for r in read_jsonl(tmp_path / f"{name}_scored.jsonl")}

        every = scores(rows, "all")
        assert scores(rows, "all_jobs2", jobs=2) == every
        assert scores(rows[20:27], "seven") == {rid: every[rid] for rid, _ in rows[20:27]}
        for rid, comment in rows[20:27]:
            assert scores([(rid, comment)], f"alone_{rid}") == {rid: every[rid]}

    def test_interleaved_split_scores_each_record_as_alone(self, tmp_path):
        words = tuple(f"w{i}" for i in range(96))
        vocab = Vocabulary(SPECIAL_TOKENS + words, max_len=12)
        vae_cfg = VaeConfig(embed_dim=16, hidden_dim=32, latent_dim=4)
        params = init_params(vae_cfg, vocab.size, 3)
        rng = np.random.default_rng(4)
        for _, tensor in named_tensors(params):
            tensor[...] = rng.uniform(-0.5, 0.5, size=tensor.shape)
        save_checkpoint(params, vae_cfg, vocab, tmp_path / "model.ckpt")
        rows = [(f"r{i:03d}", " ".join(rng.choice(words, size=int(rng.integers(1, 11)))))
                for i in range(300)]
        write_pairs(tmp_path / "rule_retained.jsonl", rows)
        cfg = small_config(tmp_path)
        assert main(["score", "--config", str(cfg), "--quiet", "--jobs", "2"]) == 0
        scored = list(read_jsonl(tmp_path / "scored.jsonl"))
        assert [r.id for r in scored] == [rid for rid, _ in rows]
        for record, (_, comment) in zip(scored, rows):
            ids = vocab.encode(tokenize(comment))
            assert record.score == reconstruction_loss(params, [ids])[0]

    @pytest.mark.parametrize("edit", sorted(EDITS))
    def test_input_rewritten_after_the_read_changes_no_output(self, trained_pipeline, monkeypatch,
                                                              edit):
        tmp_path, cfg = trained_pipeline
        assert main(["score", "--config", str(cfg), "--quiet"]) == 0
        before = (tmp_path / "scored.jsonl").read_bytes()
        reads = reads_of(monkeypatch, EDITS[edit])
        assert main(["score", "--config", str(cfg), "--quiet"]) == 0
        assert reads == [str(tmp_path / "rule_retained.jsonl")]
        assert (tmp_path / "scored.jsonl").read_bytes() == before
        assert temp_files(tmp_path) == []

    @pytest.mark.parametrize("change", sorted(CHANGES))
    def test_input_changed_between_reads_exits_2(self, trained_pipeline, monkeypatch, capsys, change):
        # The one second read left: the duplicate check confirming a repeated id.
        tmp_path, cfg = trained_pipeline
        assert main(["score", "--config", str(cfg), "--quiet"]) == 0
        before = (tmp_path / "scored.jsonl").read_bytes()
        path = tmp_path / "rule_retained.jsonl"
        lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
        path.write_text("".join(lines + lines[:1]), encoding="utf-8")
        listing = sorted(os.listdir(tmp_path))
        parses = rewrite_before_the_confirming_read(monkeypatch, CHANGES[change])
        assert main(["score", "--config", str(cfg), "--quiet"]) == 2
        assert len(parses) == 2
        err = capsys.readouterr().err
        assert f"{path} changed while it was read: its ids differ from the first read" in err
        assert (tmp_path / "scored.jsonl").read_bytes() == before
        assert sorted(os.listdir(tmp_path)) == listing

    def test_fifo_input_is_read_once(self, trained_pipeline):
        tmp_path, cfg = trained_pipeline
        assert main(["score", "--config", str(cfg), "--quiet"]) == 0
        done = run_through_fifo(tmp_path / "rule_retained.jsonl",
                                ["score", "--config", str(cfg), "--quiet",
                                 "--output", str(tmp_path / "fifo_scored.jsonl")])
        assert (done.returncode, done.stderr) == (0, "")
        assert (tmp_path / "fifo_scored.jsonl").read_bytes() == \
            (tmp_path / "scored.jsonl").read_bytes()

    def test_duplicate_id_exits_2_from_the_first_read(self, trained_pipeline, monkeypatch, capsys):
        tmp_path, cfg = trained_pipeline
        path = tmp_path / "rule_retained.jsonl"
        lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
        path.write_text("".join(lines + lines[:1]), encoding="utf-8")
        reads = reads_of(monkeypatch)
        assert main(["score", "--config", str(cfg), "--quiet"]) == 2
        first = json.loads(lines[0])["id"]
        assert f'line {len(lines) + 1}: duplicate id "{first}"' in capsys.readouterr().err
        assert len(reads) == 1
        assert not (tmp_path / "scored.jsonl").exists()


class TestPartitionCommand:
    @pytest.mark.parametrize("extra, flags, message", [
        ("", ["--strategy", "percentile", "--p", "2"], "percentile strategy needs p in (0, 1]"),
        ("", ["--strategy", "percentile", "--p", "0"], "percentile strategy needs p in (0, 1]"),
        ("strategy = median", [], 'unknown partition strategy "median"'),
        ("max_iter = 0", ["--strategy", "kmeans2"], "max_iter must be at least 1, got 0"),
        ("tol = nan", [], "tol must be a finite number >= 0, got nan"),
    ])
    def test_bad_threshold_setting_exits_1_before_the_input_is_read(
            self, tmp_path, capsys, extra, flags, message):
        (tmp_path / "scored.jsonl").write_text('{"id": "s0", "comment": \n', encoding="utf-8")
        cfg = small_config(tmp_path, extra=f"[threshold]\n{extra}\n")
        assert main(["partition", "--config", str(cfg), "--quiet", *flags]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["pipeline.ini", "scored.jsonl"]

    def test_a_flag_applies_before_the_settings_are_checked(self, tmp_path):
        write_scored(tmp_path / "scored.jsonl", 30)
        cfg = small_config(tmp_path, extra="[threshold]\nstrategy = percentile\np = 2\n")
        assert main(["partition", "--config", str(cfg), "--quiet", "--p", "0.5"]) == 0
        assert json.loads((tmp_path / "report.json").read_text())["n_retained"] == 15

    def test_missing_scores_exit_5(self, trained_pipeline):
        tmp_path, cfg = trained_pipeline
        assert main(["partition", "--config", str(cfg), "--quiet",
                     "--input", str(tmp_path / "rule_retained.jsonl")]) == 5

    @pytest.mark.parametrize("literal", ["NaN", "Infinity"])
    def test_non_finite_score_exits_2(self, tmp_path, literal):
        lines = [json.dumps({"id": f"r{i}", "comment": "c", "code": "x", "score": 1.0 + i})
                 for i in range(20)]
        lines.append(f'{{"id": "bad", "comment": "c", "code": "x", "score": {literal}}}')
        (tmp_path / "scored.jsonl").write_text("\n".join(lines) + "\n", encoding="utf-8")
        cfg = small_config(tmp_path)
        assert main(["partition", "--config", str(cfg), "--quiet"]) == 2
        assert not (tmp_path / "retained.jsonl").exists()

    @pytest.mark.parametrize("setting, strategy", [("max_iter = 0", "gmm"),
                                                   ("tol = -1", "gmm"),
                                                   ("max_iter = 0", "kmeans2")])
    def test_fit_that_cannot_iterate_exits_1(self, tmp_path, capsys, setting, strategy):
        lines = [json.dumps({"id": f"r{i}", "comment": "c", "code": "x",
                             "score": (1.0 if i % 2 else 5.0) + 0.01 * i})
                 for i in range(20)]
        (tmp_path / "scored.jsonl").write_text("\n".join(lines) + "\n", encoding="utf-8")
        cfg = small_config(tmp_path, extra=f"[threshold]\n{setting}\n")
        assert main(["partition", "--config", str(cfg), "--quiet", "--strategy", strategy]) == 1
        assert setting.split()[0] in capsys.readouterr().err
        assert not (tmp_path / "retained.jsonl").exists()

    def test_empty_input_exits_1(self, tmp_path, capsys):
        (tmp_path / "scored.jsonl").write_text("", encoding="utf-8")
        cfg = small_config(tmp_path)
        assert main(["partition", "--config", str(cfg), "--quiet"]) == 1
        assert "nothing to partition" in capsys.readouterr().err
        for name in ("retained.jsonl", "semantic_rejects.jsonl", "report.json"):
            assert not (tmp_path / name).exists()
        assert temp_files(tmp_path) == []

    def test_mixture_without_a_cut_exits_1_before_any_output(self, tmp_path, capsys):
        # A narrow high-mean cluster inside a wide low-mean one: no crossing lies
        # between the means, and the low-loss component is the wider one.
        scores = np.concatenate([np.linspace(49.0, 51.0, 900), np.linspace(29.0, 69.0, 100)])
        lines = [json.dumps({"id": f"r{i}", "comment": "c", "code": "x", "score": float(score)})
                 for i, score in enumerate(scores)]
        (tmp_path / "scored.jsonl").write_text("\n".join(lines) + "\n", encoding="utf-8")
        cfg = small_config(tmp_path)
        assert main(["partition", "--config", str(cfg), "--quiet"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "--strategy percentile" in err
        for name in ("retained.jsonl", "semantic_rejects.jsonl", "report.json"):
            assert not (tmp_path / name).exists()
        assert temp_files(tmp_path) == []

    def test_retained_and_rejects_on_one_file_exit_1(self, tmp_path, capsys):
        write_scored(tmp_path / "scored.jsonl", 30)
        cfg = small_config(tmp_path)
        out = str(tmp_path / "out.jsonl")
        assert main(["partition", "--config", str(cfg), "--quiet",
                     "--retained", out, "--rejects", out]) == 1
        err = capsys.readouterr().err
        assert err.count(out) == 2 and "same file" in err
        assert not (tmp_path / "out.jsonl").exists()

    @pytest.mark.parametrize("flag", ["--retained", "--rejects"])
    def test_report_on_a_record_output_exits_1(self, tmp_path, capsys, flag):
        write_scored(tmp_path / "scored.jsonl", 30)
        cfg = small_config(tmp_path)
        out = str(tmp_path / "out.json")
        assert main(["partition", "--config", str(cfg), "--quiet",
                     "--report", out, flag, out]) == 1
        err = capsys.readouterr().err
        assert err.count(out) == 2 and "same file" in err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["pipeline.ini", "scored.jsonl"]

    def test_malformed_line_near_the_end_keeps_both_earlier_outputs(self, tmp_path, capsys):
        write_scored(tmp_path / "scored.jsonl", 30)
        cfg = small_config(tmp_path)
        assert main(["partition", "--config", str(cfg), "--quiet"]) == 0
        outputs = ("retained.jsonl", "semantic_rejects.jsonl", "report.json")
        before = output_bytes(tmp_path, outputs)
        write_scored(tmp_path / "scored.jsonl", 3000, extra_line='{"id": "bad", "score": \n')
        assert main(["partition", "--config", str(cfg), "--quiet"]) == 2
        assert "line 3001: malformed JSON" in capsys.readouterr().err
        assert output_bytes(tmp_path, outputs) == before
        assert temp_files(tmp_path) == []

    @pytest.mark.parametrize("edit", sorted(EDITS))
    def test_input_rewritten_after_the_read_changes_no_output(self, tmp_path, monkeypatch, edit):
        write_scored(tmp_path / "scored.jsonl", 3000)
        cfg = small_config(tmp_path)
        outputs = ("retained.jsonl", "semantic_rejects.jsonl", "report.json")
        assert main(["partition", "--config", str(cfg), "--quiet"]) == 0
        before = output_bytes(tmp_path, outputs)
        reads = reads_of(monkeypatch, EDITS[edit])
        assert main(["partition", "--config", str(cfg), "--quiet"]) == 0
        assert reads == [str(tmp_path / "scored.jsonl")]
        assert output_bytes(tmp_path, outputs) == before
        assert temp_files(tmp_path) == []

    @pytest.mark.parametrize("change", sorted(CHANGES))
    def test_input_changed_between_reads_exits_2(self, tmp_path, monkeypatch, capsys, change):
        # The one second read left: the duplicate check confirming a repeated id.
        write_scored(tmp_path / "scored.jsonl", 30)
        cfg = small_config(tmp_path)
        assert main(["partition", "--config", str(cfg), "--quiet"]) == 0
        outputs = ("retained.jsonl", "semantic_rejects.jsonl", "report.json")
        before = output_bytes(tmp_path, outputs)
        write_scored(tmp_path / "scored.jsonl", 3000, extra_line=json.dumps(
            {"id": "s00007", "comment": "c", "code": "x", "score": 1.0}) + "\n")
        listing = sorted(os.listdir(tmp_path))
        parses = rewrite_before_the_confirming_read(monkeypatch, CHANGES[change])
        assert main(["partition", "--config", str(cfg), "--quiet"]) == 2
        assert len(parses) == 2
        assert (f"{tmp_path / 'scored.jsonl'} changed while it was read: its ids differ from "
                "the first read") in capsys.readouterr().err
        assert output_bytes(tmp_path, outputs) == before
        assert sorted(os.listdir(tmp_path)) == listing

    @pytest.mark.parametrize("flags", [[], ["--strip-provenance"],
                                       ["--strategy", "percentile", "--p", "0.4"]],
                             ids=["gmm", "strip_provenance", "percentile"])
    def test_fifo_input_is_read_once(self, tmp_path, flags):
        write_scored(tmp_path / "scored.jsonl", 200)
        cfg = small_config(tmp_path)
        outputs = ("retained.jsonl", "semantic_rejects.jsonl", "report.json")
        assert main(["partition", "--config", str(cfg), "--quiet", *flags]) == 0
        expected = output_bytes(tmp_path, outputs)
        for name in outputs:
            (tmp_path / name).unlink()
        done = run_through_fifo(tmp_path / "scored.jsonl",
                                ["partition", "--config", str(cfg), "--quiet", *flags])
        assert (done.returncode, done.stderr) == (0, "")
        assert output_bytes(tmp_path, outputs) == expected

    def test_duplicate_id_exits_2_from_the_first_read(self, tmp_path, monkeypatch, capsys):
        write_scored(tmp_path / "scored.jsonl", 30, extra_line=json.dumps(
            {"id": "s00007", "comment": "c", "code": "x", "score": 1.0}) + "\n")
        cfg = small_config(tmp_path)
        reads = reads_of(monkeypatch)
        assert main(["partition", "--config", str(cfg), "--quiet"]) == 2
        assert 'line 31: duplicate id "s00007"' in capsys.readouterr().err
        assert len(reads) == 1
        assert not (tmp_path / "retained.jsonl").exists()

    def test_percentile_partition_and_report(self, trained_pipeline):
        tmp_path, cfg = trained_pipeline
        main(["score", "--config", str(cfg), "--quiet"])
        assert main(["partition", "--config", str(cfg), "--quiet",
                     "--strategy", "percentile", "--p", "1.0"]) == 0
        scored = [r.id for r in read_jsonl(tmp_path / "scored.jsonl")]
        retained = [r.id for r in read_jsonl(tmp_path / "retained.jsonl")]
        assert retained == scored  # p = 1.0 reproduces the rule-filter-only ablation
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["strategy"] == "percentile"
        assert report["retained_fraction"] == 1.0

    @pytest.mark.parametrize("p, expected", [(0.375, ["", "a", "ab"]),
                                             (0.625, ["", "a", "ab", "a\ud800", "b"])],
                             ids=["three_of_eight", "five_of_eight"])
    def test_percentile_ties_go_by_ascending_id(self, tmp_path, p, expected):
        ids = ["é", "b", "", "a\ud800", "ab", "a", "z", "\U0001f600"]
        # json.dumps writes every non-ASCII character, the lone surrogate too, as an escape.
        (tmp_path / "scored.jsonl").write_text("".join(
            json.dumps({"id": rid, "comment": "c", "code": "x", "score": 1.0}) + "\n"
            for rid in ids), encoding="ascii")
        cfg = small_config(tmp_path)
        assert main(["partition", "--config", str(cfg), "--quiet",
                     "--strategy", "percentile", "--p", str(p)]) == 0
        retained = [r.id for r in read_jsonl(tmp_path / "retained.jsonl")]
        rejected = [r.id for r in read_jsonl(tmp_path / "semantic_rejects.jsonl")]
        assert sorted(retained) == expected
        assert sorted(retained + rejected) == sorted(ids)

    def test_gmm_report_schema(self, trained_pipeline):
        tmp_path, cfg = trained_pipeline
        main(["score", "--config", str(cfg), "--quiet"])
        assert main(["partition", "--config", str(cfg), "--quiet",
                     "--strategy", "gmm"]) == 0
        report = json.loads((tmp_path / "report.json").read_text())
        for key in ("pi", "mu_q", "sigma_q", "mu_uq", "sigma_uq", "threshold"):
            assert key in report

    def test_strip_provenance(self, trained_pipeline):
        tmp_path, cfg = trained_pipeline
        main(["score", "--config", str(cfg), "--quiet"])
        flags = ["partition", "--config", str(cfg), "--quiet", "--strategy", "percentile",
                 "--p", "1.0"]
        assert main(flags) == 0
        records = list(read_jsonl(tmp_path / "retained.jsonl"))
        for rec in records:
            rec.provenance = []
        write_jsonl(records, tmp_path / "expected.jsonl")
        assert main([*flags, "--strip-provenance"]) == 0
        for rec in read_jsonl(tmp_path / "retained.jsonl"):
            assert rec.provenance == []
        assert (tmp_path / "retained.jsonl").read_bytes() == (tmp_path / "expected.jsonl").read_bytes()


# Each stage's output flags, with the file that small_config names for each.
STAGE_OUTPUTS = {
    "rule-filter": {"--retained": "rule_retained.jsonl", "--rejects": "rule_rejects.jsonl",
                    "--stats": "rule_stats.json"},
    "bootstrap": {"--output": "bootstrap.txt"},
    "train": {"--checkpoint": "model.ckpt", "--vocabulary": "vocab.txt"},
    "score": {"--output": "scored.jsonl"},
    "partition": {"--retained": "retained.jsonl", "--rejects": "semantic_rejects.jsonl",
                  "--report": "report.json"},
}


def every_file(tmp_path):
    """Each path under ``tmp_path`` with its bytes, or None for a directory."""
    return {p: p.read_bytes() if p.is_file() else None for p in tmp_path.rglob("*")}


def refused_output(trained_pipeline, capsys, command, flag, path) -> str:
    """Run ``command`` with ``flag`` naming ``path``: require exit 2 and no file changed.

    Returns the error line, less its ``error:`` prefix.
    """
    tmp_path, cfg = trained_pipeline
    assert main(["score", "--config", str(cfg), "--quiet"]) == 0
    assert main(["partition", "--config", str(cfg), "--quiet"]) == 0
    for other, name in STAGE_OUTPUTS[command].items():
        if other != flag:  # so that a rewrite with the same bytes would show too
            (tmp_path / name).write_bytes(b"an earlier output\n")
    before = every_file(tmp_path)
    assert main([command, "--config", str(cfg), "--quiet", flag, path]) == 2
    err = capsys.readouterr().err
    assert every_file(tmp_path) == before
    assert err.startswith("error: ")
    return err[len("error: "):]


@pytest.mark.parametrize("command, flag", [(command, flag) for command, flags in
                                           STAGE_OUTPUTS.items() for flag in flags])
def test_output_in_a_missing_directory_exits_2_before_any_output(trained_pipeline, capsys,
                                                                 command, flag):
    missing = str(trained_pipeline[0] / "absent" / STAGE_OUTPUTS[command][flag])
    assert refused_output(trained_pipeline, capsys, command, flag, missing).endswith(
        f" output {missing}: its directory does not exist\n")


@pytest.mark.parametrize("command, flag", [(command, flag) for command, flags in
                                           STAGE_OUTPUTS.items() for flag in flags])
def test_output_naming_a_directory_exits_2_before_any_output(trained_pipeline, capsys,
                                                             command, flag):
    directory = trained_pipeline[0] / "outdir"
    directory.mkdir()
    assert refused_output(trained_pipeline, capsys, command, flag, str(directory)).endswith(
        f" output {directory}: is a directory\n")


@pytest.mark.parametrize("command, flag", [(command, flag) for command, flags in
                                           STAGE_OUTPUTS.items() for flag in flags])
def test_empty_output_path_exits_2_before_any_output(trained_pipeline, capsys, command, flag):
    assert refused_output(trained_pipeline, capsys, command, flag, "").endswith(
        " output: the path is empty\n")


# Every file that run writes, by its [paths] key in small_config.
RUN_OUTPUTS = {"rule_retained": "rule_retained.jsonl", "rule_rejects": "rule_rejects.jsonl",
               "rule_stats": "rule_stats.json", "checkpoint": "model.ckpt",
               "vocabulary": "vocab.txt", "scored": "scored.jsonl", "retained": "retained.jsonl",
               "semantic_rejects": "semantic_rejects.jsonl", "report": "report.json"}


class TestRunCommand:
    @pytest.mark.parametrize("key", RUN_OUTPUTS)
    def test_output_in_a_missing_directory_exits_2_before_the_first_stage(
            self, trained_pipeline, capsys, key):
        tmp_path, cfg = trained_pipeline
        for name in RUN_OUTPUTS.values():  # so that a rewrite with the same bytes would show too
            (tmp_path / name).write_bytes(b"an earlier output\n")
        missing = f"{tmp_path}/absent/{RUN_OUTPUTS[key]}"
        cfg.write_text(cfg.read_text().replace(f"\n{key} = {tmp_path}/",
                                               f"\n{key} = {tmp_path}/absent/"))
        before = every_file(tmp_path)
        assert main(["run", "--config", str(cfg), "--quiet"]) == 2
        assert capsys.readouterr().err == (
            f"error: {key} output {missing}: its directory does not exist\n")
        assert every_file(tmp_path) == before

    @pytest.mark.parametrize("command", ["rule-filter", "run"])
    @pytest.mark.parametrize("setting, bad, flags, message", [
        ("epochs = 2", "epochs = 0", [], "[vae] epochs must be >= 1"),
        ("max_len = 12", "max_len = 2", [], "max_len must be >= 3"),
        ("", "", ["--seed", "-5"], "seed must be >= 0"),
    ], ids=["vae_epochs", "tokenizer_max_len", "seed_flag"])
    def test_bad_setting_exits_1_before_any_stage(self, trained_pipeline, capsys, command,
                                                  setting, bad, flags, message):
        tmp_path, cfg = trained_pipeline
        for name in RUN_OUTPUTS.values():
            (tmp_path / name).write_bytes(b"an earlier output\n")
        cfg.write_text(cfg.read_text().replace(setting, bad))
        before = every_file(tmp_path)
        assert main([command, "--config", str(cfg), "--quiet", *flags]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert every_file(tmp_path) == before

    def test_every_record_lands_in_exactly_one_bucket(self, trained_pipeline):
        tmp_path, cfg = trained_pipeline
        assert main(["run", "--config", str(cfg), "--quiet"]) == 0
        inputs = {r.id for r in read_jsonl(tmp_path / "pairs.jsonl")}
        final = {r.id for r in read_jsonl(tmp_path / "retained.jsonl")}
        rule_rejects = {r.id for r in read_jsonl(tmp_path / "rule_rejects.jsonl")}
        semantic_rejects = {r.id for r in read_jsonl(tmp_path / "semantic_rejects.jsonl")}
        assert final | rule_rejects | semantic_rejects == inputs
        assert not final & rule_rejects
        assert not final & semantic_rejects
        assert not rule_rejects & semantic_rejects
        assert final  # nonzero retained set


class TestUtilityCommands:
    def test_metrics_command(self, tmp_path, capsys):
        path = tmp_path / "ranks.jsonl"
        rows = [{"query_id": "a", "rank": 1}, {"query_id": "b", "rank": 2},
                {"query_id": "c", "rank": 4}, {"query_id": "d", "rank": None}]
        path.write_text("\n".join(json.dumps(r) for r in rows) + "\n", encoding="utf-8")
        assert main(["metrics", str(path), "--k", "1", "5"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["mrr"] == 0.4375
        assert out["answered"] == {"1": 1, "5": 3}

    def test_metrics_bad_rank_line_exits_1(self, tmp_path, capsys):
        path = tmp_path / "ranks.jsonl"
        path.write_text('{"query_id": "a", "rank": 1}\n[1, 2]\n', encoding="utf-8")
        assert main(["metrics", str(path)]) == 1
        captured = capsys.readouterr()
        assert "line 2" in captured.err and captured.out == ""

    def test_metrics_invalid_utf8_exits_1_naming_the_line(self, tmp_path, capsys):
        path = tmp_path / "ranks.jsonl"
        path.write_bytes(b'{"query_id": "a", "rank": 1}\n{"query_id": "\xff", "rank": 2}\n')
        assert main(["metrics", str(path)]) == 1
        captured = capsys.readouterr()
        assert "line 2: not valid UTF-8" in captured.err and captured.out == ""

    @pytest.mark.parametrize("value", ["9" * 5001, "[" * 200_000 + "]" * 200_000],
                             ids=["long_integer", "deep_nesting"])
    def test_metrics_value_beyond_parser_limits_exits_1(self, tmp_path, capsys, value):
        path = tmp_path / "ranks.jsonl"
        path.write_text('{"query_id": "a", "rank": 1}\n{"query_id": "b", "rank": ' + value
                        + "}\n", encoding="utf-8")
        assert main(["metrics", str(path)]) == 1
        captured = capsys.readouterr()
        assert "line 2: unsupported JSON" in captured.err and captured.out == ""

    def test_sample_size_command(self, capsys):
        assert main(["sample-size", "394471"]) == 0
        assert capsys.readouterr().out.strip() == "384"

    @pytest.mark.parametrize("argv, name", [
        (["nan"], "population"),
        (["100", "--z", "nan"], "confidence_z"),
        (["100", "--c", "nan"], "c"),
    ])
    def test_sample_size_nan_exits_1_naming_the_argument(self, capsys, argv, name):
        assert main(["sample-size", *argv]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith(f"error: {name} must ") and captured.out == ""


# (subcommand, file flag, [paths] field the flag overrides)
FILE_FLAGS = [
    ("rule-filter", "--input", "input"),
    ("rule-filter", "--retained", "rule_retained"),
    ("rule-filter", "--rejects", "rule_rejects"),
    ("rule-filter", "--stats", "rule_stats"),
    ("bootstrap", "--input", "titles"),
    ("bootstrap", "--output", "bootstrap"),
    ("train", "--bootstrap", "bootstrap"),
    ("train", "--checkpoint", "checkpoint"),
    ("train", "--vocabulary", "vocabulary"),
    ("score", "--input", "rule_retained"),
    ("score", "--checkpoint", "checkpoint"),
    ("score", "--output", "scored"),
    ("partition", "--input", "scored"),
    ("partition", "--retained", "retained"),
    ("partition", "--rejects", "semantic_rejects"),
    ("partition", "--report", "report"),
    ("run", "--input", "input"),
    ("run", "--bootstrap", "bootstrap"),
]


class TestArgumentParsing:
    @pytest.mark.parametrize("command, flag, field", FILE_FLAGS)
    def test_file_flag_sets_its_paths_field(self, tmp_path, command, flag, field):
        cfg_path = small_config(tmp_path)
        configured = load_config(cfg_path)
        args = build_parser().parse_args([command, "--config", str(cfg_path), flag, "flagged.out"])
        cfg = _load_cfg(args)
        assert cfg.paths == dataclasses.replace(configured.paths, **{field: "flagged.out"})
        assert cfg.threshold == configured.threshold

    def test_table_lists_every_file_flag(self):
        (commands,) = [a for a in build_parser()._actions
                       if isinstance(a, argparse._SubParsersAction)]
        fields = {f.name for f in dataclasses.fields(PathsConfig)}
        found = {(name, action.option_strings[0])
                 for name, sub in commands.choices.items()
                 for action in sub._actions if action.dest in fields}
        assert found == {(command, flag) for command, flag, _ in FILE_FLAGS}

    @pytest.mark.parametrize("flag, value, field, expected", [
        ("--strategy", "percentile", "strategy", "percentile"),
        ("--p", "0.25", "p", 0.25),
    ])
    def test_partition_threshold_flag_sets_its_field(self, tmp_path, flag, value, field, expected):
        cfg_path = small_config(tmp_path, extra="[threshold]\nstrategy = kmeans2\np = 0.75\n")
        configured = load_config(cfg_path)
        cfg = _load_cfg(build_parser().parse_args(["partition", "--config", str(cfg_path), flag, value]))
        assert cfg.threshold == dataclasses.replace(configured.threshold, **{field: expected})
        assert cfg.paths == configured.paths

    @pytest.mark.parametrize("jobs", ["0", "-2"])
    def test_jobs_below_one_rejected(self, jobs, capsys):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(["score", "--jobs", jobs])
        assert exc.value.code == 2
        assert "--jobs" in capsys.readouterr().err

    def test_score_takes_no_vocabulary_flag(self, capsys):
        # score reads the vocabulary from the checkpoint.
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(["score", "--vocabulary", "vocab.txt"])
        assert exc.value.code == 2
        assert "--vocabulary" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["bootstrap", "train"])
    def test_stages_without_a_pool_take_no_jobs_flag(self, command, capsys):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args([command, "--jobs", "1"])
        assert exc.value.code == 2
        assert "--jobs" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["rule-filter", "score", "partition", "run"])
    def test_jobs_flag_accepted(self, command):
        assert build_parser().parse_args([command, "--jobs", "2"]).jobs == 2

    @pytest.mark.parametrize("command, outputs", [
        ("rule-filter", ("rule_retained.jsonl", "rule_rejects.jsonl", "rule_stats.json")),
        ("partition", ("retained.jsonl", "semantic_rejects.jsonl", "report.json")),
    ], ids=["rule-filter", "partition"])
    def test_ignored_jobs_flag_changes_no_output(self, tmp_path, command, outputs):
        write_pairs(tmp_path / "pairs.jsonl", TABLE_EXAMPLES + [("k1", "convert string to int")])
        write_scored(tmp_path / "scored.jsonl", 30)
        cfg = small_config(tmp_path)
        assert main([command, "--config", str(cfg), "--quiet"]) == 0
        serial = output_bytes(tmp_path, outputs)
        assert main([command, "--config", str(cfg), "--quiet", "--jobs", "2"]) == 0
        assert output_bytes(tmp_path, outputs) == serial

    @pytest.mark.parametrize("section, key, value", [
        ("vae", "hidden_dim", "abc"),
        ("threshold", "p", ""),
        ("vae", "epochs", "2.5"),
    ])
    def test_bad_config_value_exits_1_naming_its_key(self, tmp_path, capsys, section, key, value):
        cfg = tmp_path / "pipeline.ini"
        cfg.write_text(f"[{section}]\n{key} = {value}\n", encoding="utf-8")
        assert main(["partition", "--config", str(cfg), "--quiet"]) == 1
        assert f"error: [{section}] {key}: " in capsys.readouterr().err

    @pytest.mark.parametrize("text", [
        b"[pipeline]\nseed = 1\nseed = 2\n",
        b"seed = 1\n[pipeline]\n",
        b"[pipeline]\nseed\n",
        b"[pipeline]\nseed = 1\n\xff\n",
        b"[pipeline]\nseed = 1\n[pipeline]\nseed = 2\n",
    ], ids=["repeated_key", "no_section_header", "key_without_value", "not_utf8",
            "repeated_section"])
    def test_config_file_that_does_not_parse_exits_1_naming_it(self, tmp_path, capsys, text):
        cfg = tmp_path / "pipeline.ini"
        cfg.write_bytes(text)
        assert main(["partition", "--config", str(cfg), "--quiet"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: config file ") and str(cfg) in err

    @pytest.mark.parametrize("text", ["[DEFAULT]\nseed = 3\n",
                                      "[DEFAULT]\nseed = 3\n[paths]\ninput = x.jsonl\n"],
                             ids=["alone", "beside_paths"])
    def test_default_section_exits_1_as_unknown(self, tmp_path, capsys, text):
        cfg = tmp_path / "pipeline.ini"
        cfg.write_text(text, encoding="utf-8")
        assert main(["partition", "--config", str(cfg), "--quiet"]) == 1
        assert capsys.readouterr().err == "error: unknown config section [DEFAULT]\n"

    @pytest.mark.parametrize("command", [["metrics", "ranks.jsonl"], ["sample-size", "100"]],
                             ids=["metrics", "sample-size"])
    @pytest.mark.parametrize("flag", [["--config", "missing.ini"], ["--seed", "1"],
                                      ["--jobs", "7"], ["--quiet"]],
                             ids=["config", "seed", "jobs", "quiet"])
    def test_utility_commands_take_no_pipeline_flags(self, command, flag):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(command + flag)
        assert exc.value.code == 2


# Every row of the exit table, stated here rather than read from cli so that
# the order is pinned: CorpusError is a ValueError and must exit 2, not 1.
ERROR_EXITS = [
    (OSError, 2),
    (FileNotFoundError, 2),
    (CorpusError, 2),
    (TrainingError, 3),
    (CheckpointError, 4),
    (cli.MissingScoreError, 5),
    (ValueError, 1),
    (cli.WorkerError, 1),
]


class TestDispatch:
    def test_every_table_row_is_tested(self):
        assert set(cli._ERROR_EXITS) <= set(ERROR_EXITS)

    @pytest.mark.parametrize("error, code", ERROR_EXITS, ids=[c.__name__ for c, _ in ERROR_EXITS])
    def test_error_class_exits_with_its_code(self, monkeypatch, capsys, error, code):
        def failing(*args, **kwargs):
            raise error("stage failed")

        monkeypatch.setattr(cli, "run_partition", failing)
        assert main(["partition", "--quiet"]) == code
        assert capsys.readouterr().err == "error: stage failed\n"

    def test_unlisted_error_propagates_from_the_patched_stage(self, monkeypatch):
        def failing(*args, **kwargs):
            raise RuntimeError("not in the table")

        monkeypatch.setattr(cli, "run_partition", failing)
        with pytest.raises(RuntimeError, match="not in the table"):
            main(["partition", "--quiet"])
