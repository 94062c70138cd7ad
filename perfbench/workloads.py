"""Seeded input generators and workload definitions for the queryfilter benchmark.

Every workload builds its inputs from ``(workload name, seed, scale)`` alone,
writes them under a directory, and returns a :class:`Workload` that carries
the CLI stages to run plus the generator's own labels: for each raw record the
rule its comment was built to trip (first in rule order) and, where it
applies, its template/random or mixture-component label.  The labels never
reach the program; they live only in the returned object.

The rule model below is the benchmark's reading of the documented ruleset
(README "Rule filter"), not an import of the program's code: comments are
built so that their first sentence and the rule that fires are known by
construction.
"""

from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass, field

RULE_ORDER = (
    "html_tags", "parentheses", "javadoc_tags", "urls", "non_english",
    "punctuation", "interrogation", "short_sentence",
)
TRANSFORM_RULES = ("html_tags", "parentheses")
REJECT_RULES = RULE_ORDER[2:]

# Why each workload exists; printed with every result and listed in BENCHMARK.json.
WHY = {
    "rules-io": (
        "rule-filter then partition on 50k records, --jobs 1: rules, first-sentence extraction, "
        "JSONL I/O and EM do all the work; a VAE change must leave it flat; RSS grows with "
        "corpus size"
    ),
    "pipeline-small": (
        "bootstrap then run --jobs 2 at test dims 32/64/16: VAE cost is per-step Python and numpy "
        "overhead; the only workload through the pools and with the agreement check"
    ),
    "model-default": (
        "train then score, --jobs 1, at default dims 128/256/64: the VxH output projection and its "
        "per-step backward, Adam over V-sized tensors and the ~9 MB checkpoint dominate"
    ),
}

TEMPLATES = (
    "convert {a} to {b}", "read {a} from {b}", "write {a} to {b}",
    "sort {a} by {b}", "parse {a} into {b}", "get {a} from {b}",
    "create {a} with {b}", "remove {a} from {b}", "check if {a} contains {b}",
    "find {a} in {b}", "copy {a} into {b}", "load {a} from {b}",
)
NOUNS = (
    "string", "int", "file", "list", "map", "array", "json", "xml", "date",
    "number", "object", "stream", "buffer", "path", "url", "bytes", "char",
    "index", "key", "value", "table", "row", "column", "text", "line",
)
SALAD_WORDS = tuple(sorted(
    {w for t in TEMPLATES for w in t.replace("{a}", "").replace("{b}", "").split()}
    | set(NOUNS)
))

_CODE_LINES = (
    "    int count = 0;", "    for (int i = 0; i < n; i++) {", "        total += values[i];",
    "    }", "    if (buffer == null) {", "        throw new IllegalStateException();",
    "    return result;", "    String name = source.getName();", "    list.add(item);",
    "    Map<String, Integer> index = new HashMap<>();", "    try (Reader r = open(path)) {",
    "        parse(r);", "    } catch (IOException e) {", "        log.warn(e);",
    "    byte[] data = stream.readAllBytes();", "    out.write(data, 0, data.length);",
)
_ASIDES = ("(TODO)", "(see below)", "(optional)", "(internal use)", "(thread safe)")
_TAGS = (("<b>", "</b>"), ("<code>", "</code>"), ("<i>", "</i>"), ("<em>", "</em>"))
_TAIL_SENTENCES = (
    "Callers must hold the lock.", "Returns null when absent.",
    "The result is cached!", "Used by the loader.", "See the module notes.",
)
_NON_ENGLISH = ("创建临时文件", "Создать временный файл", "一時ファイルを作成する", "Crée un fichier")
_PUNCT = ("==============", "// ---------- //", "*** *** ***", "#####", "-=-=-=-=-=-")
_SHORT = ("Deprecated.", "TODO", "Getter.", "Returns value.", "Internal helper.")
_URLS = ("https://example.com/docs", "http://www.example.org/api", "ftp://files.example.net/pub")

# Noise kinds and their exact shares of the raw corpus.  The first six are
# retained and sum to 0.72, the paper's rule retention (285k of 394k); each
# of the others trips one reject rule.
NOISE_MIX = (
    ("plain", 0.28), ("multi_sentence", 0.14), ("wrapped", 0.10),
    ("html", 0.10), ("paren", 0.08), ("javadoc_late", 0.02),
    ("paren_short", 0.02), ("javadoc", 0.04), ("url", 0.04), ("non_english", 0.04),
    ("punctuation", 0.04), ("question", 0.04), ("short", 0.06),
)

# rules-io partition input: a two-component mixture the EM fit must recover.
MIXTURE = {"pi": 0.7, "mu_q": 3.0, "sigma_q": 0.5, "mu_uq": 6.0, "sigma_uq": 0.8}


@dataclass
class RawLabel:
    """What the generator built one raw record to do."""

    rule: str | None  # first reject rule that fires, None when retained
    text: str | None  # the retained first sentence after transforms
    modified: tuple[str, ...]  # transform rules that change its first sentence
    template: bool | None = None  # template (True) / word salad (False); None if n/a


@dataclass
class Workload:
    """Generated inputs of one workload plus the labels the checks use."""

    name: str
    seed: int
    dir: str
    jobs: int = 1
    stages: list = field(default_factory=list)  # CLI argument lists for queryfilter.cli.main
    sizes: dict = field(default_factory=dict)  # records each timed stage consumes
    outputs: list = field(default_factory=list)  # files the stages write
    raw_ids: list = field(default_factory=list)
    raw_labels: dict = field(default_factory=dict)  # id -> RawLabel
    scored_labels: dict = field(default_factory=dict)  # id -> (score, component is q)
    bootstrap_expected: list = field(default_factory=list)
    score_ids: list = field(default_factory=list)  # ids the score stage must score
    tokenizer: dict = field(default_factory=dict)

    def path(self, name: str) -> str:
        return os.path.join(self.dir, name)


_RULE_OUTPUTS = ("rule_retained.jsonl", "rule_rejects.jsonl", "rule_stats.json")
_MODEL_OUTPUTS = ("vocab.txt", "model.ckpt", "scored.jsonl")
_PARTITION_OUTPUTS = ("retained.jsonl", "semantic_rejects.jsonl", "partition_report.json")


def _capitalize(words: list[str]) -> list[str]:
    return [words[0][:1].upper() + words[0][1:]] + words[1:]


def _template_words(rng: random.Random) -> list[str]:
    text = rng.choice(TEMPLATES).format(a=rng.choice(NOUNS), b=rng.choice(NOUNS))
    return text.split()


def _salad_words(rng: random.Random) -> list[str]:
    return [rng.choice(SALAD_WORDS) for _ in range(rng.randint(3, 10))]


def noisy_comment(rng: random.Random, words: list[str], kind: str):
    """Wrap a sentence of >= 3 words in one kind of comment noise.

    Returns (comment, RawLabel).  The first sentence of the comment, as the
    documented extraction defines it (text up to the first '.', '!' or '?'
    followed by whitespace or end), is known by construction.
    """
    words = _capitalize(words)
    body = " ".join(words)
    sentence = body + "."
    retained = None
    rule = None
    modified: tuple[str, ...] = ()
    if kind == "plain":
        comment, retained = sentence, sentence
    elif kind == "multi_sentence":
        comment = f"{sentence} {rng.choice(_TAIL_SENTENCES)}\n{rng.choice(_TAIL_SENTENCES)}"
        retained = sentence
    elif kind == "wrapped":
        cut = rng.randint(1, len(words) - 1)
        comment = (" ".join(words[:cut]) + "\n     " + " ".join(words[cut:]) + ".\n"
                   + rng.choice(_TAIL_SENTENCES))
        retained = sentence
    elif kind == "html":
        open_tag, close_tag = rng.choice(_TAGS)
        at = rng.randrange(len(words) - 1)  # a tag on the last word leaves ' .'
        tagged = list(words)
        tagged[at] = open_tag + tagged[at] + close_tag
        comment = " ".join(tagged) + ".\n" + rng.choice(_TAIL_SENTENCES)
        retained, modified = sentence, ("html_tags",)
    elif kind == "paren":
        at = rng.randrange(len(words))
        parts = words[:at] + [rng.choice(_ASIDES)] + words[at:]
        comment = " ".join(parts) + "."
        retained, modified = sentence, ("parentheses",)
    elif kind == "paren_short":
        comment = f"(TODO) {rng.choice(('Fix', 'Check', 'Remove'))} it."
        rule, modified = "short_sentence", ("parentheses",)
    elif kind == "javadoc_late":  # the tag follows the first sentence, which stays clean
        comment, retained = f"{sentence}\n@return the {words[-1]}", sentence
    elif kind == "javadoc":
        comment = rng.choice((f"{body} for {{@link {words[-1].capitalize()}}}.",
                              f"@param {words[-1]} {body.lower()}."))
        rule = "javadoc_tags"
    elif kind == "url":
        comment = f"{body} as in {rng.choice(_URLS)} now."
        rule = "urls"
    elif kind == "non_english":
        comment = rng.choice((rng.choice(_NON_ENGLISH), f"{body} für {words[-1]}."))
        rule = "non_english"
    elif kind == "punctuation":
        comment = rng.choice(_PUNCT)
        rule = "punctuation"
    elif kind == "question":
        comment = f"{body}? {rng.choice(_TAIL_SENTENCES)}"
        rule = "interrogation"
    elif kind == "short":
        comment = rng.choice(_SHORT)
        rule = "short_sentence"
    else:
        raise ValueError(f"unknown noise kind {kind!r}")
    return comment, RawLabel(rule=rule, text=retained, modified=modified)


def _code_bodies(rng: random.Random, count: int = 256) -> list[str]:
    bodies = []
    for _ in range(count):
        lines = ["public Object method() {"]
        while sum(len(line) + 1 for line in lines) < 480:
            lines.append(rng.choice(_CODE_LINES))
        lines.append("}")
        bodies.append("\n".join(lines))
    return bodies


def _write_jsonl(path: str, rows) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for row in rows:
            fh.write(json.dumps(row, ensure_ascii=False))
            fh.write("\n")


def _shuffled(rng: random.Random, n: int, shares) -> list:
    """``n`` labels in a seeded order, each share rounded to an exact count.

    Exact counts keep the work of a workload the same for every seed.
    """
    counts = [int(n * share) for _, share in shares]
    by_remainder = sorted(range(len(shares)), key=lambda i: int(n * shares[i][1]) - n * shares[i][1])
    for i in by_remainder[: n - sum(counts)]:
        counts[i] += 1
    labels = [label for (label, _), count in zip(shares, counts) for _ in range(count)]
    rng.shuffle(labels)
    return labels


def _raw_corpus(wl: Workload, rng: random.Random, n: int, template_share: float | None) -> None:
    """Write ``n`` noisy raw records to ``pairs.jsonl`` and label each one.

    Each comment wraps a template sentence, or, for ``1 - template_share`` of
    the records, a word salad over the same words.
    """
    bodies = _code_bodies(rng)
    kinds = _shuffled(rng, n, NOISE_MIX)
    if template_share is None:
        templates = [None] * n
    else:
        templates = _shuffled(rng, n, ((True, template_share), (False, 1 - template_share)))
    rows = []
    for i, (kind, template) in enumerate(zip(kinds, templates)):
        words = _salad_words(rng) if template is False else _template_words(rng)
        comment, label = noisy_comment(rng, words, kind)
        label.template = template
        rid = f"r{i:07d}"
        wl.raw_ids.append(rid)
        wl.raw_labels[rid] = label
        rows.append({"id": rid, "comment": comment, "code": rng.choice(bodies)})
    _write_jsonl(wl.path("pairs.jsonl"), rows)


def _write_config(wl: Workload, tokenizer: dict, vae: dict) -> None:
    """Write ``pipeline.ini`` with paths relative to the workload directory."""
    names = {
        "input": "pairs.jsonl", "titles": "titles.txt", "bootstrap": "bootstrap.txt",
        "rule_retained": "rule_retained.jsonl", "rule_rejects": "rule_rejects.jsonl",
        "rule_stats": "rule_stats.json", "checkpoint": "model.ckpt",
        "vocabulary": "vocab.txt", "scored": "scored.jsonl", "retained": "retained.jsonl",
        "semantic_rejects": "semantic_rejects.jsonl", "report": "partition_report.json",
    }
    lines = [f"[pipeline]\nseed = {wl.seed}\n", "[paths]"]
    lines += [f"{key} = {value}" for key, value in names.items()]
    lines.append("\n[tokenizer]")
    lines += [f"{key} = {value}" for key, value in tokenizer.items()]
    lines.append("\n[vae]")
    lines += [f"{key} = {value}" for key, value in vae.items()]
    lines.append("\n[threshold]\nstrategy = gmm\n")
    with open(wl.path("pipeline.ini"), "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines))
    wl.tokenizer = dict(tokenizer)


def _rules_io(wl: Workload, rng: random.Random, scale: float) -> None:
    n = max(200, round(50_000 * scale))
    _raw_corpus(wl, rng, n, None)
    bodies = _code_bodies(rng)
    m = MIXTURE
    rows = []
    for i, is_q in enumerate(_shuffled(rng, n, ((True, m["pi"]), (False, 1 - m["pi"])))):
        mu, sigma = (m["mu_q"], m["sigma_q"]) if is_q else (m["mu_uq"], m["sigma_uq"])
        score = rng.gauss(mu, sigma)
        while score < 0:
            score = rng.gauss(mu, sigma)
        rid = f"s{i:07d}"
        wl.scored_labels[rid] = (score, is_q)
        comment = " ".join(_capitalize(_template_words(rng))) + "."
        rows.append({"id": rid, "comment": comment, "code": rng.choice(bodies), "score": score})
    _write_jsonl(wl.path("prescored.jsonl"), rows)
    _write_config(wl, {"max_size": 500, "min_count": 1, "max_len": 20}, {})
    common = ["--config", "pipeline.ini", "--jobs", "1", "--quiet"]
    wl.stages = [
        ["rule-filter", *common],
        ["partition", *common, "--strategy", "gmm", "--input", "prescored.jsonl"],
    ]
    wl.sizes = {"rule_filter": n, "partition": n}
    wl.outputs = [*_RULE_OUTPUTS, *_PARTITION_OUTPUTS]


def _how_to_titles(wl: Workload, rng: random.Random, n: int) -> list[str]:
    titles = []
    for kind in _shuffled(rng, n, (("how_to", 0.85), ("why", 0.10), ("rejected", 0.05))):
        words = _template_words(rng)
        if kind == "how_to":
            titles.append(f"How to {' '.join(words)}?")
            wl.bootstrap_expected.append(" ".join(words))
        elif kind == "why":
            titles.append(f"Why does {' '.join(words)} fail?")
        else:
            titles.append(rng.choice((
                f"How to {' '.join(words)} via {rng.choice(_URLS)}?",
                f"How to {rng.choice(('fix', 'test'))} it?",
            )))
    return titles


def _pipeline_small(wl: Workload, rng: random.Random, scale: float) -> None:
    n_titles = max(60, round(300 * scale))
    n_raw = max(200, round(2_500 * scale))
    titles = _how_to_titles(wl, rng, n_titles)
    with open(wl.path("titles.txt"), "w", encoding="utf-8") as fh:
        fh.write("\n".join(titles) + "\n")
    _raw_corpus(wl, rng, n_raw, 0.6)
    _write_config(
        wl,
        {"max_size": 500, "min_count": 1, "max_len": 20},
        {"embed_dim": 32, "hidden_dim": 64, "latent_dim": 16, "epochs": 3,
         "batch_size": 16, "learning_rate": 0.01, "kl_anneal_steps": 200},
    )
    wl.jobs = 2
    wl.stages = [
        ["bootstrap", "--config", "pipeline.ini", "--quiet"],
        ["run", "--config", "pipeline.ini", "--jobs", "2", "--quiet"],
    ]
    wl.score_ids = [rid for rid in wl.raw_ids if wl.raw_labels[rid].rule is None]
    wl.sizes = {
        "bootstrap": n_titles,
        "rule_filter": n_raw,
        "train": len(wl.bootstrap_expected) * 3,
        "score": len(wl.score_ids),
        "partition": len(wl.score_ids),
    }
    wl.outputs = ["bootstrap.txt", *_RULE_OUTPUTS, *_MODEL_OUTPUTS, *_PARTITION_OUTPUTS]


def _pseudo_words(rng: random.Random, count: int) -> list[str]:
    syllables = [c + v for c in "bdfgklmnprstvz" for v in "aeiou"]
    words: set[str] = set()
    while len(words) < count:
        words.add("".join(rng.choice(syllables) for _ in range(rng.randint(2, 3))))
    return sorted(words)


def _model_default(wl: Workload, rng: random.Random, scale: float) -> None:
    n_boot = max(40, round(96 * scale))
    n_score = max(40, round(160 * scale))
    lexicon = _pseudo_words(rng, 4000)
    rng.shuffle(lexicon)
    weights = [1.0 / (rank + 1) ** 0.6 for rank in range(len(lexicon))]

    def zipf_sentence() -> list[str]:
        return rng.choices(lexicon, weights, k=rng.randint(6, 14))

    sentences = [" ".join(zipf_sentence()) for _ in range(n_boot)]
    with open(wl.path("bootstrap.txt"), "w", encoding="utf-8") as fh:
        fh.write("\n".join(sentences) + "\n")
    wl.bootstrap_expected = sentences
    bodies = _code_bodies(rng)
    rows = []
    for i in range(n_score):
        rid = f"q{i:07d}"
        wl.score_ids.append(rid)
        comment = " ".join(_capitalize(zipf_sentence())) + "."
        rows.append({"id": rid, "comment": comment, "code": rng.choice(bodies)})
    _write_jsonl(wl.path("rule_retained.jsonl"), rows)
    _write_config(
        wl,
        {"max_size": 10000, "min_count": 1, "max_len": 20},
        {"embed_dim": 128, "hidden_dim": 256, "latent_dim": 64, "epochs": 1,
         "batch_size": 64, "learning_rate": 0.001, "kl_anneal_steps": 2000},
    )
    wl.stages = [
        ["train", "--config", "pipeline.ini", "--quiet"],
        ["score", "--config", "pipeline.ini", "--jobs", "1", "--quiet"],
    ]
    wl.sizes = {"train": n_boot, "score": n_score}
    wl.outputs = list(_MODEL_OUTPUTS)


_GENERATORS = {"rules-io": _rules_io, "pipeline-small": _pipeline_small, "model-default": _model_default}
WORKLOADS = tuple(_GENERATORS)


def generate(name: str, seed: int, directory: str, scale: float = 1.0) -> Workload:
    """Write the inputs of workload ``name`` for ``seed`` into ``directory``."""
    os.makedirs(directory, exist_ok=True)
    wl = Workload(name=name, seed=seed, dir=os.path.abspath(directory))
    _GENERATORS[name](wl, random.Random(f"{name}:{seed}"), scale)
    return wl
