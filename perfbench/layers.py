"""Span tracing of queryfilter's layers from outside the program.

:func:`install` replaces each traced function by a wrapper at the name where
it is looked up at call time: ``queryfilter.cli`` binds its helpers at import,
``vae.train`` / ``vae.loss_and_grads`` and ``threshold.partition`` reach their
callees through module globals, and ``Vocabulary.encode`` is a class
attribute.  Spans (id, parent id, name, start, end) are kept in memory and
written out once the traced process is done.

Wrappers record nothing inside pool workers (a forked child has another pid):
those spans cannot be seen from here, so the pool is reported through its
CPU accounting instead.
"""

from __future__ import annotations

import json
import os
import time
from collections import defaultdict

from workloads import REJECT_RULES

VAE_STEPS = ("encoder_forward", "latent", "decoder_forward", "elbo_loss")
STAGES = {
    "run_rule_filter": "cli.rule_filter",
    "run_bootstrap": "cli.bootstrap",
    "run_train": "cli.train",
    "run_score": "cli.score",
    "run_partition": "cli.partition",
}


def vae_flop(params, ids, backward: bool) -> float:
    """FLOPs of one sequence computed from the model dims (not measured).

    Counts the multiply-adds of both encoder GRUs over every position, the
    latent and decoder-init projections, and the decoder GRU plus the V x H
    output projection over every predicted token; two FLOPs per multiply-add.
    Backward is taken as twice the forward cost.
    """
    vocab, embed = params.embedding.shape
    hidden = params.hidden_dim
    k = params.latent_dim
    n = len(ids)
    gru = 3 * hidden * (embed + hidden)
    macs = 2 * n * gru + 2 * k * hidden + hidden * k + (n - 1) * (gru + vocab * hidden)
    return 2.0 * macs * (3.0 if backward else 1.0)


class Tracer:
    """In-memory span recorder plus the counters the per-layer metrics need."""

    def __init__(self):
        self.pid = os.getpid()
        self.spans: list[tuple] = []  # (id, parent, name, stage, start, end)
        self.stack: list[int] = []
        self.stage = ""
        self.counts: dict[str, float] = defaultdict(float)
        self._next = 1

    def _open(self):
        sid = self._next
        self._next += 1
        parent = self.stack[-1] if self.stack else 0
        self.stack.append(sid)
        return sid, parent

    def wrap(self, name, fn, after=None):
        """Span every call of ``fn``; ``after(args, result)`` updates counters."""
        tracer = self

        def traced(*args, **kwargs):
            if os.getpid() != tracer.pid:
                return fn(*args, **kwargs)
            sid, parent = tracer._open()
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                tracer.stack.pop()
                tracer.spans.append((sid, parent, name, tracer.stage, start, end))
            if after is not None:
                after(args, result)
            return result

        return traced

    def wrap_stage(self, name, fn):
        tracer = self

        def staged(*args, **kwargs):
            outer, tracer.stage = tracer.stage, name
            try:
                return traced(*args, **kwargs)
            finally:
                tracer.stage = outer

        traced = self.wrap(name, fn)
        return staged

    def wrap_generator(self, name, fn):
        """Span each step of the generator ``fn`` returns (one span per item)."""
        tracer = self

        def traced(*args, **kwargs):
            inner = fn(*args, **kwargs)
            if os.getpid() != tracer.pid:
                return inner

            def steps():
                while True:
                    sid, parent = tracer._open()
                    start = time.perf_counter()
                    try:
                        item = next(inner)
                    except StopIteration:
                        return
                    finally:
                        end = time.perf_counter()
                        tracer.stack.pop()
                        tracer.spans.append((sid, parent, name, tracer.stage, start, end))
                    tracer.counts[name + ".items"] += 1
                    yield item

            return steps()

        return traced

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for sid, parent, name, stage, start, end in self.spans:
                fh.write(json.dumps({"id": sid, "parent": parent, "name": name,
                                     "stage": stage, "start": start, "end": end}))
                fh.write("\n")


def install(tracer: Tracer) -> None:
    """Patch queryfilter's layer functions so every call records a span."""
    from queryfilter import cli, rules, threshold, vae, vocab

    counts = tracer.counts

    def stage_prefix() -> str:
        return {"cli.train": "train.", "cli.score": "score."}.get(tracer.stage, "")

    def on_ruleset(args, outcome):
        if tracer.stage == "cli.rule_filter":
            counts["rules.outcomes"] += 1
            if outcome.action == "rejected":
                counts["rules.discarded." + outcome.rule_id] += 1

    def on_write(args, result):
        counts["corpus.write_jsonl.bytes"] += os.path.getsize(args[1])

    def on_vocab(args, result):
        counts["vocab.size"] = result.size

    def vae_counter(backward):
        def after(args, result):
            params, ids = args[0], args[1]
            prefix = stage_prefix()
            counts[prefix + "vae.tokens"] += len(ids) - 1
            counts[prefix + "vae.flop"] += vae_flop(params, ids, backward)
        return after

    def on_save(args, result):
        counts["checkpoint.bytes"] = os.path.getsize(args[3])

    def on_fit(args, fit):
        counts["threshold.em_iterations"] += len(fit.loglik_trace)

    for attr, name in STAGES.items():
        setattr(cli, attr, tracer.wrap_stage(name, getattr(cli, attr)))
    for attr, name, after in (
        ("write_jsonl", "corpus.write_jsonl", on_write),
        ("extract_first_sentence", "corpus.extract_first_sentence", None),
        ("tokenize", "vocab.tokenize", None),
        ("build_vocab", "vocab.build_vocab", on_vocab),
        ("train", "vae.train", None),
        ("reconstruction_loss", "vae.reconstruction_loss", vae_counter(backward=False)),
        ("partition", "threshold.partition", None),
        ("save_checkpoint", "checkpoint.save_checkpoint", on_save),
        ("load_checkpoint", "checkpoint.load_checkpoint", None),
    ):
        setattr(cli, attr, tracer.wrap(name, getattr(cli, attr), after))
    cli.read_jsonl = tracer.wrap_generator("corpus.read_jsonl", cli.read_jsonl)
    cli.prepare_bootstrap = tracer.wrap_generator("corpus.prepare_bootstrap", cli.prepare_bootstrap)
    traced_ruleset = tracer.wrap("rules.apply_ruleset", rules.apply_ruleset, on_ruleset)
    cli.apply_ruleset = rules.apply_ruleset = traced_ruleset  # bootstrap imports it per call
    vae.loss_and_grads = tracer.wrap("vae.loss_and_grads", vae.loss_and_grads, vae_counter(backward=True))
    for step in VAE_STEPS:
        setattr(vae, step, tracer.wrap("vae." + step, getattr(vae, step)))
    update = vae._Adam.update

    def counted_update(self, *args, **kwargs):
        counts["vae.optimizer_steps"] += 1
        return update(self, *args, **kwargs)

    vae._Adam.update = counted_update
    threshold.fit_em_gmm = tracer.wrap("threshold.fit_em_gmm", threshold.fit_em_gmm, on_fit)
    vocab.Vocabulary.encode = tracer.wrap("vocab.encode", vocab.Vocabulary.encode)


def layer_metrics(tracer: Tracer) -> dict:
    """Per-layer metrics as {name: (value, unit)} from the recorded spans."""
    total = defaultdict(float)  # (name, stage) -> summed duration
    calls = defaultdict(int)
    child_time = defaultdict(float)
    durations = {}
    for sid, parent, name, stage, start, end in tracer.spans:
        duration = end - start
        durations[sid] = (name, stage, duration)
        child_time[parent] += duration
    self_time = defaultdict(float)
    for sid, (name, stage, duration) in durations.items():
        total[name, stage] += duration
        calls[name, stage] += 1
        self_time[name, stage] += duration - child_time[sid]

    def summed(table, name, stage=None):
        return sum(v for (n, s), v in table.items() if n == name and (stage is None or s == stage))

    c = tracer.counts
    m: dict[str, tuple[float, str]] = {
        "cli.rule_filter.self_s": (summed(self_time, "cli.rule_filter"), "s"),
        "cli.partition.self_s": (summed(self_time, "cli.partition"), "s"),
        "cli.score.self_s": (summed(self_time, "cli.score"), "s"),
        "corpus.read_jsonl.s": (summed(total, "corpus.read_jsonl"), "s"),
        "corpus.read_jsonl.records": (c["corpus.read_jsonl.items"], "count"),
        "corpus.write_jsonl.s": (summed(total, "corpus.write_jsonl"), "s"),
        "corpus.write_jsonl.bytes": (c["corpus.write_jsonl.bytes"], "B"),
        "corpus.extract_first_sentence.s": (summed(total, "corpus.extract_first_sentence"), "s"),
        "corpus.prepare_bootstrap.s": (summed(total, "corpus.prepare_bootstrap"), "s"),
        "rules.apply_ruleset.calls": (summed(calls, "rules.apply_ruleset"), "count"),
        "rules.apply_ruleset.s": (summed(total, "rules.apply_ruleset"), "s"),
        "vocab.tokenize.s": (summed(total, "vocab.tokenize"), "s"),
        "vocab.build_vocab.s": (summed(total, "vocab.build_vocab"), "s"),
        "vocab.encode.s": (summed(total, "vocab.encode"), "s"),
        "vocab.size": (c["vocab.size"], "count"),
        "train.vae.train.s": (summed(total, "vae.train"), "s"),
        "train.vae.train.self_s": (summed(self_time, "vae.train"), "s"),
        "train.vae.optimizer_steps": (c["vae.optimizer_steps"], "count"),
        "train.vae.loss_and_grads.calls": (summed(calls, "vae.loss_and_grads"), "count"),
        "train.vae.loss_and_grads.self_s": (summed(self_time, "vae.loss_and_grads"), "s"),
        "score.vae.reconstruction_loss.calls": (summed(calls, "vae.reconstruction_loss"), "count"),
        "score.vae.reconstruction_loss.self_s": (summed(self_time, "vae.reconstruction_loss"), "s"),
        "checkpoint.save_checkpoint.s": (summed(total, "checkpoint.save_checkpoint"), "s"),
        "checkpoint.load_checkpoint.s": (summed(total, "checkpoint.load_checkpoint"), "s"),
        "checkpoint.bytes": (c["checkpoint.bytes"], "B"),
        "threshold.fit_em_gmm.s": (summed(total, "threshold.fit_em_gmm"), "s"),
        "threshold.em_iterations": (c["threshold.em_iterations"], "count"),
        "threshold.partition.self_s": (summed(self_time, "threshold.partition"), "s"),
    }
    outcomes = c["rules.outcomes"]
    discarded = sum(c["rules.discarded." + rule] for rule in REJECT_RULES)
    m["rules.retained_ratio"] = ((outcomes - discarded) / outcomes if outcomes else 0.0, "ratio")
    for rule in REJECT_RULES:
        m["rules.discarded." + rule] = (c["rules.discarded." + rule], "count")
    for stage, prefix in (("cli.train", "train"), ("cli.score", "score")):
        for step in VAE_STEPS:
            m[f"{prefix}.vae.{step}.s"] = (summed(total, "vae." + step, stage), "s")
        gflop = c[prefix + ".vae.flop"] / 1e9
        outer = "vae.loss_and_grads" if prefix == "train" else "vae.reconstruction_loss"
        busy = summed(total, outer, stage)
        m[prefix + ".vae.tokens"] = (c[prefix + ".vae.tokens"], "count")
        m[prefix + ".vae.gflop"] = (gflop, "GFLOP")
        m[prefix + ".vae.gflop_per_s"] = (gflop / busy if busy else 0.0, "GFLOP/s")
    return m
