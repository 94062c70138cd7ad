"""Command-line pipeline: each stage is a subcommand, `run` composes them.

Stage outputs are always written to disk so a pipeline can resume per stage;
diagnostics go to stderr, data to the configured files.  Exit codes: 0 on
success, 2 for I/O problems, 3 when training failed (an empty corpus or a
non-finite loss), 4 for a bad checkpoint or one whose model gives a
non-finite score, 5 for missing scores, 1 otherwise.

The record stages stream: no stage holds its records.  What each keeps that
grows with the corpus is named in its docstring, with its size per record
for short ids.
"""

from __future__ import annotations

import argparse
import dataclasses
import itertools
import json
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
    add_score,
    as_rejected,
    extract_first_sentence,
    iter_lines,
    jsonl_writer,
    prepare_bootstrap,
    provenance_entry,
    read_jsonl,
    record_line,
    spill_beside,
    write_jsonl,
)
from .metrics import answered_at_k, mrr, read_rank_file, sample_size
from .rules import apply_ruleset, builtin_rules
from .threshold import check_partition_settings, partition
from .vae import TrainingError, reconstruction_loss, train
from .vocab import build_vocab, check_vocab_limits, tokenize

class MissingScoreError(RuntimeError):
    pass


def _diag(quiet: bool, message: str) -> None:
    if not quiet:
        print(message, file=sys.stderr)


# The [paths] fields that each stage writes.
_OUTPUTS = {
    "rule-filter": ("rule_retained", "rule_rejects", "rule_stats"),
    "bootstrap": ("bootstrap",),
    "train": ("checkpoint", "vocabulary"),
    "score": ("scored",),
    "partition": ("retained", "semantic_rejects", "report"),
}


def _check_outputs(paths, stage: str) -> None:
    """Reject the outputs of ``stage``, named in ``paths``, that it could not all write.

    Each output must name a file, not nothing or a directory, in a directory
    that exists, or the stage would find out only on writing that output,
    after it had done its work and replaced the others.  No two outputs may
    be one file: two writers on one path share one temporary file, or the
    later output replaces the earlier one.
    """
    outputs = {name: getattr(paths, name) for name in _OUTPUTS[stage]}
    for name, path in outputs.items():
        if not path:
            raise FileNotFoundError(f"{name} output: the path is empty")
        if os.path.isdir(path):
            raise IsADirectoryError(f"{name} output {path}: is a directory")
        if not os.path.isdir(os.path.dirname(path) or os.curdir):
            raise FileNotFoundError(f"{name} output {path}: its directory does not exist")
    for (one, path), (other, other_path) in itertools.combinations(outputs.items(), 2):
        if os.path.realpath(path) == os.path.realpath(other_path):
            raise ValueError(f"{one} output {path} and {other} output {other_path} "
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
    id hash :func:`read_jsonl` keeps for its duplicate check, about 8 B per
    record.
    """
    _check_outputs(cfg.paths, "rule-filter")
    ruleset = builtin_rules(cfg.ruleset.disabled)
    modified = {r.id: 0 for r in ruleset if r.kind == "transform"}
    discarded = {r.id: 0 for r in ruleset if r.kind == "reject"}

    def retained(reject):
        for record in read_jsonl(cfg.paths.input):
            first = extract_first_sentence(record.comment)
            outcome = apply_ruleset(ruleset, first)
            if first != record.comment:
                record.provenance.append(
                    provenance_entry("extract", "transformed", before=record.comment, after=first)
                )
            record.comment = first
            for step in outcome.transforms:
                modified[step.rule_id] += 1
                record.provenance.append(
                    provenance_entry("rule", "transformed", rule_id=step.rule_id,
                                     before=step.before, after=step.after)
                )
                record.comment = step.after
            if outcome.action == "rejected":
                discarded[outcome.rule_id] += 1
                record.provenance.append(
                    provenance_entry("rule", "rejected", rule_id=outcome.rule_id)
                )
                reject(record)
            else:
                record.comment = outcome.text
                record.provenance.append(provenance_entry("rule", "retained"))
                yield record

    with jsonl_writer(cfg.paths.rule_rejects) as reject:
        n_retained = write_jsonl(retained(reject), cfg.paths.rule_retained)

    n_input = n_retained + sum(discarded.values())
    rows = []
    running = n_input
    for rule in ruleset:
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
    _check_outputs(cfg.paths, "bootstrap")
    ruleset = builtin_rules((*cfg.ruleset.disabled, "interrogation"))
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
    _check_outputs(cfg.paths, "train")
    # tokenize finds [a-z0-9]+ runs, so a line's surrounding whitespace never matters
    token_lists = [tokenize(line) for _, line in iter_lines(cfg.paths.bootstrap)
                   if not line.isspace()]
    vocab = build_vocab(token_lists, cfg.tokenizer.max_size, cfg.tokenizer.min_count,
                        cfg.tokenizer.max_len)
    sequences = [vocab.encode(tokens) for tokens in token_lists]
    _diag(quiet, f"train: {len(sequences)} sequences, vocabulary size {vocab.size}")

    def progress(stats):
        _diag(
            quiet,
            f"epoch {stats.epoch}: ce {stats.mean_ce:.4f} kl {stats.mean_kl:.4f} "
            f"({stats.seconds:.1f}s)",
        )

    params, trace = train(sequences, cfg.vae, vocab.size, cfg.seed, progress=progress)
    vocab.save(cfg.paths.vocabulary)
    save_checkpoint(params, cfg.vae, vocab, cfg.paths.checkpoint)
    return trace


# ----------------------------------------------------------------------
# score stage
# ----------------------------------------------------------------------


class WorkerError(RuntimeError):
    pass


def _score_share(conn, params, share) -> None:
    """A worker of :func:`run_score`: send its share's scores, or its exception.

    It looks ``reconstruction_loss`` up when it calls it, so under fork it
    runs what the calling process would.
    """
    try:
        conn.send(reconstruction_loss(params, share))
    except Exception as exc:
        conn.send(exc)
    conn.close()


def _score_in_processes(params, encoded: list, jobs: int) -> np.ndarray:
    """Score ``encoded`` in ``jobs`` processes: this one and ``jobs - 1`` workers.

    Share i is ``encoded[i::jobs]``; this process scores share 0 while the
    workers, each with a one-way pipe back, score the rest, so at ``jobs`` 1
    it scores every record and starts no worker.  A score depends only on
    its record's ids, so the split changes no score.  A worker's exception
    is raised here; a worker that dies before it sends raises
    :class:`WorkerError`.  Workers still running on the way out are ended.
    """
    scores = np.empty(len(encoded))
    workers = []
    try:
        for i in range(1, jobs):
            import multiprocessing  # ~0.7 MB that only workers need

            receiver, sender = multiprocessing.Pipe(duplex=False)
            worker = multiprocessing.Process(target=_score_share,
                                             args=(sender, params, encoded[i::jobs]))
            worker.start()
            workers.append((worker, receiver))
            sender.close()  # else a later worker holds it, and a death reads no EOF
        scores[0::jobs] = reconstruction_loss(params, encoded[0::jobs])
        for i, (worker, receiver) in enumerate(workers, 1):
            try:
                part = receiver.recv()
            except EOFError:
                worker.join()
                raise WorkerError(f"score worker {i} (pid {worker.pid}, records {i}::{jobs}) "
                                  f"exited with code {worker.exitcode} before sending its scores"
                                  ) from None
            if isinstance(part, Exception):
                raise part
            scores[i::jobs] = part
    finally:
        for worker, receiver in workers:
            receiver.close()
            if worker.is_alive():
                worker.terminate()
            worker.join()
    return scores


def _keep_freed_heap() -> None:
    """Let each score group reuse the heap that the group before it freed.

    Under glibc's default thresholds each group maps its several MB of arrays
    afresh (28,000 page faults, a quarter of the scoring time on
    ``model-default``).  These are the ceilings of glibc's own dynamic rule.
    A C library without ``mallopt`` is left as it is.
    """
    import ctypes

    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return
    mallopt(-3, 32 << 20)  # M_MMAP_THRESHOLD
    mallopt(-1, 64 << 20)  # M_TRIM_THRESHOLD


def run_score(cfg: PipelineConfig, jobs: int = 1, quiet: bool = False) -> int:
    """Attach a reconstruction-loss score to every record, reading them once.

    Pass 1 keeps each record's encoded comment as an ``array('i')`` (4 B per
    token plus about 64 B) and spills the record's :func:`record_line`, all
    but the score, to an unnamed file beside the output (:func:`spill_beside`).
    It then scores them all, so at ``jobs`` 1 length groups span the whole
    file; the stage peaks at about 206 B per record.  A NaN or infinite
    score raises :class:`CheckpointError` before the output is opened.  Pass
    2 copies each spilled line's bytes to the output with its score added.
    """
    _check_outputs(cfg.paths, "score")
    params, _, vocab = load_checkpoint(cfg.paths.checkpoint)
    encoded = []
    with spill_beside(cfg.paths.scored) as spill:
        for record in read_jsonl(cfg.paths.rule_retained):
            encoded.append(array("i", vocab.encode(tokenize(record.comment))))
            record.score = None
            spill.write(record_line(record))

        empty = sum(1 for seq in encoded if len(seq) == 2)
        if empty:
            _diag(quiet, f"score: {empty} records encode to BOS/EOS only (empty comment)")

        _keep_freed_heap()
        # A process with no records would idle.
        scores = _score_in_processes(params, encoded, max(1, min(jobs, len(encoded))))
        del encoded  # pass 2 needs only the scores
        bad = np.flatnonzero(~np.isfinite(scores))
        if bad.size:
            raise CheckpointError(f"{cfg.paths.checkpoint}: the model gives {bad.size} records "
                                  f"a NaN or infinite score (first: record {bad[0] + 1})")

        spill.seek(0)
        with atomic_open(cfg.paths.scored, "wb") as out:
            for i, line in enumerate(spill):
                out.write(add_score(line, scores.item(i)))
    _diag(quiet, f"score: {len(scores)} records scored")
    return len(scores)


# ----------------------------------------------------------------------
# partition stage
# ----------------------------------------------------------------------


def run_partition(cfg: PipelineConfig, quiet: bool = False) -> dict:
    """Split scored records at the fitted threshold, reading them once.

    Pass 1 keeps each record's score in an ``array('d')``, and only for the
    percentile strategy, whose ties go by id, its id in a list.  It spills
    the record's :func:`record_line` as a retained record to an unnamed file
    beside the retained output (:func:`spill_beside`).  The fit adds a keep
    mask (1 B per record); the EM fit works in fixed-size chunks, and only
    its quartiles take a transient copy of the scores.  Pass 2 copies each
    spilled line's bytes to the retained output, or with its semantic entry
    rejected to the rejects output.  The stage peaks at about 20 B per
    record with the gmm strategy, and at about 210 B with percentile, whose
    sort keys each position by its (score, id).
    """
    _check_outputs(cfg.paths, "partition")
    ids = [] if cfg.threshold.strategy == "percentile" else None
    scores, missing, first_missing = array("d"), 0, None
    with spill_beside(cfg.paths.retained) as spill:
        for record in read_jsonl(cfg.paths.scored):
            if ids is not None:
                ids.append(record.id)
            if record.score is None:
                if not missing:
                    first_missing = record.id
                missing += 1
            else:
                scores.append(record.score)
            record.provenance.append(provenance_entry("semantic", "retained"))
            spill.write(record_line(record))
        if missing:
            raise MissingScoreError(f"{missing} records lack scores (first: {first_missing}); "
                                    "run the score stage first")
        keep, report = partition(ids, scores, **dataclasses.asdict(cfg.threshold))

        spill.seek(0)
        with atomic_open(cfg.paths.semantic_rejects, "wb") as rejects, \
                atomic_open(cfg.paths.retained, "wb") as retained:
            for kept, line in zip(keep, spill):
                if kept:
                    retained.write(line)
                else:
                    rejects.write(as_rejected(line))
    _write_json(report, cfg.paths.report)
    _diag(
        quiet,
        f"partition[{cfg.threshold.strategy}]: retained "
        f"{report['n_retained']}/{report['n_input']} "
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
    _common_flags(p, "processes that score: this one and N - 1 workers")
    p.add_argument("--input", dest="rule_retained")
    p.add_argument("--checkpoint")
    p.add_argument("--output", dest="scored")

    p = sub.add_parser("partition", help="split scored records into retained/rejected")
    p.set_defaults(handler=lambda args: run_partition(_load_cfg(args), args.quiet))
    _common_flags(p, "accepted and ignored: this stage runs in one process")
    p.add_argument("--input", dest="scored")
    p.add_argument("--retained")
    p.add_argument("--rejects", dest="semantic_rejects")
    p.add_argument("--report")
    p.add_argument("--strategy", choices=["gmm", "percentile"])
    p.add_argument("--p", type=float, help="retained fraction for the percentile strategy")

    p = sub.add_parser("run", help="run all stages end to end")
    p.set_defaults(handler=_run_all)
    _common_flags(p, "processes that score: this one and N - 1 workers")
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
    ``--disable-rule`` ids are added to [ruleset] disabled.  The settings
    that load_config could not check alone are then checked, before any
    stage reads input.
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
    if cfg.seed < 0:
        raise ValueError("seed must be >= 0")
    check_vocab_limits(cfg.tokenizer.max_size, cfg.tokenizer.min_count, cfg.tokenizer.max_len)
    check_partition_settings(**dataclasses.asdict(cfg.threshold))
    return cfg


def _run_all(args) -> None:
    cfg = _load_cfg(args)
    for stage in ("rule-filter", "train", "score", "partition"):  # before any stage runs
        _check_outputs(cfg.paths, stage)
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
    (WorkerError, 1),
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
