"""Command-line pipeline: each stage is a subcommand, `run` composes them.

Stage outputs are always written to disk so a pipeline can resume per stage;
diagnostics go to stderr, data to the configured files.  Exit codes: 0 on
success, 2 for I/O problems, 3 when training failed (an empty corpus or a
non-finite loss), 4 for a checkpoint/vocabulary mismatch, 5 for missing
scores, 1 otherwise.

The record stages stream: no stage holds its records.  What each keeps that
grows with the corpus is named in its docstring, with its size per record
for short ids.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import multiprocessing
import os
import sys
from array import array

import numpy as np

from .atomic import atomic_open
from .checkpoint import CheckpointError, load_checkpoint, save_checkpoint
from .config import PipelineConfig, load_config
from .corpus import (
    BootstrapStats,
    CorpusError,
    ProvenanceEntry,
    extract_first_sentence,
    iter_lines,
    jsonl_writer,
    prepare_bootstrap,
    read_jsonl,
    write_jsonl,
)
from .metrics import answered_at_k, mrr, read_rank_file, sample_size
from .rules import apply_ruleset, ruleset_from_config
from .threshold import partition
from .vae import TrainingError, reconstruction_loss, train
from .vocab import Vocabulary, build_vocab, tokenize

class MissingScoreError(RuntimeError):
    pass


def _diag(quiet: bool, message: str) -> None:
    if not quiet:
        print(message, file=sys.stderr)


def _distinct_outputs(retained, rejects) -> None:
    """Reject a retained and a rejects output that are one file.

    Both are written at once, and two writers on one path would share one
    temporary file, leaving only one of the outputs.
    """
    if os.path.realpath(retained) == os.path.realpath(rejects):
        raise ValueError(f"retained output {retained} and rejects output {rejects} "
                         "name the same file")


def _write_json(obj: dict, path) -> None:
    with atomic_open(path) as fh:
        json.dump(obj, fh, indent=2)
        fh.write("\n")


# ----------------------------------------------------------------------
# rule-filter stage
# ----------------------------------------------------------------------


def run_rule_filter(cfg: PipelineConfig, quiet: bool = False) -> dict:
    """Apply the ruleset to every record in one streaming pass.

    Each record goes to the retained or the rejects output as soon as the
    rules decide it, so the only state that grows with the corpus is the
    duplicate-id set of :func:`read_jsonl`, about 120 B per record.
    """
    _distinct_outputs(cfg.paths.rule_retained, cfg.paths.rule_rejects)
    ruleset = ruleset_from_config(cfg.ruleset.order, cfg.ruleset.disabled)
    modified = {r.id: 0 for r in ruleset.rules if r.kind == "transform"}
    discarded = {r.id: 0 for r in ruleset.rules if r.kind == "reject"}

    def retained(reject):
        for record in read_jsonl(cfg.paths.input):
            first = extract_first_sentence(record.comment)
            outcome = apply_ruleset(ruleset, first)
            if first != record.comment:
                record.provenance.append(
                    ProvenanceEntry("extract", "transformed", before=record.comment, after=first)
                )
            record.comment = first
            for step in outcome.transforms:
                modified[step.rule_id] += 1
                record.provenance.append(
                    ProvenanceEntry("rule", "transformed", rule_id=step.rule_id,
                                    before=step.before, after=step.after)
                )
                record.comment = step.after
            if outcome.action == "rejected":
                discarded[outcome.rule_id] += 1
                record.provenance.append(
                    ProvenanceEntry("rule", "rejected", rule_id=outcome.rule_id)
                )
                reject(record)
            else:
                record.comment = outcome.text
                record.provenance.append(ProvenanceEntry("rule", "retained"))
                yield record

    with jsonl_writer(cfg.paths.rule_rejects) as reject:
        n_retained = write_jsonl(retained(reject), cfg.paths.rule_retained)

    n_input = n_retained + sum(discarded.values())
    rows = []
    running = n_input
    for rule in ruleset.rules:
        if rule.kind == "transform":
            rows.append({"rule": rule.id, "kind": "transform",
                         "modified": modified[rule.id], "retained": running})
        else:
            running -= discarded[rule.id]
            rows.append({"rule": rule.id, "kind": "reject",
                         "discarded": discarded[rule.id], "retained": running})
    stats = {"input": n_input, "retained": n_retained,
             "rejected": n_input - n_retained, "rows": rows}

    _write_json(stats, cfg.paths.rule_stats)
    _diag(quiet, f"rule-filter: {n_retained}/{n_input} records retained")
    return stats


# ----------------------------------------------------------------------
# bootstrap stage
# ----------------------------------------------------------------------


def run_bootstrap(cfg: PipelineConfig, quiet=False) -> BootstrapStats:
    ruleset = ruleset_from_config(cfg.ruleset.order, (*cfg.ruleset.disabled, "interrogation"))
    stats = BootstrapStats()
    titles = (line.rstrip("\r\n") for _, line in iter_lines(cfg.paths.titles))
    with atomic_open(cfg.paths.bootstrap) as out:
        for query in prepare_bootstrap(titles, ruleset, stats):
            out.write(query + "\n")
    _diag(
        quiet,
        f"bootstrap: kept {stats.kept}/{stats.total} titles "
        f"({stats.not_how_to} without the how-to prefix, {stats.rejected} rejected)",
    )
    return stats


# ----------------------------------------------------------------------
# train stage
# ----------------------------------------------------------------------


def run_train(cfg: PipelineConfig, quiet=False):
    lines = [line.strip() for _, line in iter_lines(cfg.paths.bootstrap) if not line.isspace()]
    token_lists = [tokenize(line) for line in lines]
    vocab = build_vocab(token_lists, cfg.tokenizer.max_size, cfg.tokenizer.min_count)
    sequences = [vocab.encode(tokens, cfg.tokenizer.max_len) for tokens in token_lists]
    vae_cfg = dataclasses.replace(
        cfg.vae, vocab_size=vocab.size, max_len=cfg.tokenizer.max_len, seed=cfg.seed
    )
    _diag(quiet, f"train: {len(sequences)} sequences, vocabulary size {vocab.size}")

    def progress(stats):
        _diag(
            quiet,
            f"epoch {stats.epoch}: ce {stats.mean_ce:.4f} kl {stats.mean_kl:.4f} "
            f"({stats.seconds:.1f}s)",
        )

    params, trace = train(sequences, vae_cfg, progress=progress)
    vocab.save(cfg.paths.vocabulary)
    save_checkpoint(params, vae_cfg, vocab.content_hash(), cfg.paths.checkpoint)
    return trace


# ----------------------------------------------------------------------
# score stage
# ----------------------------------------------------------------------


# Pool workers receive the model once, through the initializer, and look
# `reconstruction_loss` up when they call it, so no function is sent to them.
_SCORER: dict = {}


def _score_init(params) -> None:
    _SCORER["params"] = params


def _score_worker(share):
    return reconstruction_loss(_SCORER["params"], share)


def run_score(cfg: PipelineConfig, jobs: int = 1, quiet: bool = False) -> int:
    """Attach a reconstruction-loss score to every record, in two passes.

    Pass 1 keeps each record's id and its encoded comment as an ``array('i')``
    (4 B per token plus about 64 B) and scores them all, so length groups span
    the whole file; the stage peaks at about 255 B per record.  Pass 2
    re-reads the records and writes each one with its score.
    """
    vocab = Vocabulary.load(cfg.paths.vocabulary)
    params, vae_cfg = load_checkpoint(cfg.paths.checkpoint, vocab.content_hash())
    ids, encoded = [], []
    for record in read_jsonl(cfg.paths.rule_retained):
        ids.append(record.id)
        encoded.append(array("i", vocab.encode(tokenize(record.comment), vae_cfg.max_len)))

    empty = sum(1 for seq in encoded if len(seq) == 2)
    if empty:
        _diag(quiet, f"score: {empty} records encode to BOS/EOS only (empty comment)")

    if jobs == 1:
        scores = reconstruction_loss(params, encoded)
    else:
        # Worker i scores the records i::jobs.  A score depends only on its
        # record's ids, so the split changes no score.
        scores = np.empty(len(encoded))
        with multiprocessing.Pool(jobs, initializer=_score_init, initargs=(params,)) as pool:
            parts = pool.map(_score_worker, [encoded[i::jobs] for i in range(jobs)], chunksize=1)
        for i, part in enumerate(parts):
            scores[i::jobs] = part
    del encoded  # pass 2 needs only the ids and the scores

    def scored():
        for i, record in enumerate(read_jsonl(cfg.paths.rule_retained, ids)):
            record.score = scores.item(i)
            yield record

    write_jsonl(scored(), cfg.paths.scored)
    _diag(quiet, f"score: {len(ids)} records scored")
    return len(ids)


# ----------------------------------------------------------------------
# partition stage
# ----------------------------------------------------------------------


def run_partition(cfg: PipelineConfig, strip_provenance: bool = False, quiet: bool = False) -> dict:
    """Split scored records at the fitted threshold, in two passes.

    Pass 1 keeps each record's id and score (an id list and an ``array('d')``)
    and fits the threshold, which adds a keep mask (1 B per record) and four
    float64 EM buffers that last as long as the fit.  Pass 2 re-reads the
    records, matching each to pass 1's id at its position, and streams each
    one to the retained or the rejects output.  The stage peaks at about
    135 B per record.
    """
    _distinct_outputs(cfg.paths.retained, cfg.paths.semantic_rejects)
    ids, scores = [], array("d")
    for record in read_jsonl(cfg.paths.scored):
        ids.append(record.id)
        scores.append(math.nan if record.score is None else record.score)
    missing = np.flatnonzero(np.isnan(scores))  # read_jsonl admits finite scores only
    if missing.size:
        raise MissingScoreError(
            f"{missing.size} records lack scores (first: {ids[missing[0]]}); "
            "run the score stage first"
        )
    keep, report = partition(ids, scores, **dataclasses.asdict(cfg.threshold))

    def retained(reject):
        for i, record in enumerate(read_jsonl(cfg.paths.scored, ids)):
            if keep[i]:
                if strip_provenance:
                    record.provenance = []
                else:
                    record.provenance.append(ProvenanceEntry("semantic", "retained"))
                yield record
            else:
                record.provenance.append(ProvenanceEntry("semantic", "rejected"))
                reject(record)

    with jsonl_writer(cfg.paths.semantic_rejects) as reject:
        n_retained = write_jsonl(retained(reject), cfg.paths.retained)
    _write_json(report, cfg.paths.report)
    _diag(
        quiet,
        f"partition[{cfg.threshold.strategy}]: retained "
        f"{n_retained}/{len(ids)} "
        f"({100.0 * report['retained_fraction']:.1f}%)",
    )
    return report


# ----------------------------------------------------------------------
# argument parsing and dispatch
# ----------------------------------------------------------------------


def _jobs(text: str) -> int:
    jobs = int(text)
    if jobs < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {jobs}")
    return jobs


def _common_flags(sub: argparse.ArgumentParser, jobs_help: str | None = None) -> None:
    sub.add_argument("--config", help="pipeline configuration file (INI)")
    sub.add_argument("--seed", type=int, help="override the configured seed")
    if jobs_help:
        sub.add_argument("--jobs", type=_jobs, default=1, help=jobs_help)
    sub.add_argument("--quiet", action="store_true", help="suppress diagnostics")


def build_parser() -> argparse.ArgumentParser:
    """The CLI; each file flag's dest is the [paths] field it overrides.

    Each subparser's ``handler`` looks its stage up as a module global when
    it runs, so a stage replaced on this module is the one that runs.
    """
    parser = argparse.ArgumentParser(
        prog="queryfilter",
        description="Clean comment-code corpora into query-quality training pairs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("rule-filter", help="apply the syntactic ruleset")
    p.set_defaults(handler=lambda args: run_rule_filter(_load_cfg(args), args.quiet))
    _common_flags(p, "accepted and ignored: this stage runs in one process")
    p.add_argument("--input")
    p.add_argument("--retained", dest="rule_retained")
    p.add_argument("--rejects", dest="rule_rejects")
    p.add_argument("--stats", dest="rule_stats")
    p.add_argument("--disable-rule", action="append", default=[], metavar="RULE_ID")

    p = sub.add_parser("bootstrap", help="prepare the bootstrap query corpus from titles")
    p.set_defaults(handler=lambda args: run_bootstrap(_load_cfg(args), args.quiet))
    _common_flags(p)
    p.add_argument("--input", dest="titles", help="question titles, one per line")
    p.add_argument("--output", dest="bootstrap")

    p = sub.add_parser("train", help="train the scoring model on the bootstrap corpus")
    p.set_defaults(handler=lambda args: run_train(_load_cfg(args), args.quiet))
    _common_flags(p)
    p.add_argument("--bootstrap")
    p.add_argument("--checkpoint")
    p.add_argument("--vocabulary")

    p = sub.add_parser("score", help="attach reconstruction-loss scores to records")
    p.set_defaults(handler=lambda args: run_score(_load_cfg(args), args.jobs, args.quiet))
    _common_flags(p, "worker processes for the score stage")
    p.add_argument("--input", dest="rule_retained")
    p.add_argument("--checkpoint")
    p.add_argument("--vocabulary")
    p.add_argument("--output", dest="scored")

    p = sub.add_parser("partition", help="split scored records into retained/rejected")
    p.set_defaults(handler=lambda args: run_partition(_load_cfg(args), args.strip_provenance,
                                                      args.quiet))
    _common_flags(p, "accepted and ignored: this stage runs in one process")
    p.add_argument("--input", dest="scored")
    p.add_argument("--retained")
    p.add_argument("--rejects", dest="semantic_rejects")
    p.add_argument("--report")
    p.add_argument("--strategy", choices=["gmm", "percentile", "kmeans2"])
    p.add_argument("--p", type=float, help="retained fraction for the percentile strategy")
    p.add_argument("--strip-provenance", action="store_true")

    p = sub.add_parser("run", help="run all stages end to end")
    p.set_defaults(handler=_run_all)
    _common_flags(p, "worker processes for the score stage")
    p.add_argument("--input")
    p.add_argument("--bootstrap")

    p = sub.add_parser("metrics", help="evaluate a JSONL rank file")
    p.set_defaults(handler=_print_metrics)
    p.add_argument("rank_file")
    p.add_argument("--k", type=int, nargs="+", default=[1, 5, 10])

    p = sub.add_parser("sample-size", help="manual-inspection sample size")
    p.set_defaults(handler=lambda args: print(sample_size(args.population, args.z, args.p, args.c)))
    p.add_argument("population", type=float)
    p.add_argument("--z", type=float, default=1.96)
    p.add_argument("--p", type=float, default=0.5)
    p.add_argument("--c", type=float, default=0.05)

    return parser


def _load_cfg(args) -> PipelineConfig:
    """The configured pipeline with every given flag applied to its field.

    A flag overrides the [paths] or [threshold] field named by its dest;
    ``--disable-rule`` ids are added to [ruleset] disabled.
    """
    cfg = load_config(args.config) if args.config else PipelineConfig()
    if args.seed is not None:
        cfg.seed = args.seed
    given = {k: v for k, v in vars(args).items() if v is not None}
    for section in ("paths", "threshold"):
        target = getattr(cfg, section)
        overrides = {f.name: given[f.name] for f in dataclasses.fields(target) if f.name in given}
        setattr(cfg, section, dataclasses.replace(target, **overrides))
    cfg.ruleset.disabled += tuple(given.get("disable_rule", ()))
    return cfg


def _run_all(args) -> None:
    cfg = _load_cfg(args)
    run_rule_filter(cfg, args.quiet)
    run_train(cfg, args.quiet)
    run_score(cfg, args.jobs, args.quiet)
    run_partition(cfg, quiet=args.quiet)


def _print_metrics(args) -> None:
    ranks = [rank for _, rank in read_rank_file(args.rank_file)]
    out = {
        "n_queries": len(ranks),
        "mrr": mrr(ranks),
        "answered": {str(k): answered_at_k(ranks, k) for k in args.k},
    }
    print(json.dumps(out, indent=2))


# Error class -> exit code; the first class that matches wins, so CorpusError
# (a ValueError) exits 2.  Any other exception propagates.
_ERROR_EXITS = (
    (OSError, 2),
    (CorpusError, 2),
    (TrainingError, 3),
    (CheckpointError, 4),
    (MissingScoreError, 5),
    (ValueError, 1),
)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        args.handler(args)
    except tuple(cls for cls, _ in _ERROR_EXITS) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(code for cls, code in _ERROR_EXITS if isinstance(exc, cls))
    return 0


if __name__ == "__main__":
    sys.exit(main())
