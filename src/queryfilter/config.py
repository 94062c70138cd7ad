"""Pipeline configuration: one INI file shared by all stages.

Sections mirror the pipeline: [pipeline] for the seed, [paths] for every
file the stages read or write, [ruleset], [tokenizer], [vae] and
[threshold].  Each section is one dataclass, whose fields are its keys.
Any value may be omitted; defaults below apply.  Command-line flags
override file values.
"""

from __future__ import annotations

import configparser
from dataclasses import dataclass, field, fields, is_dataclass, replace

from .vae import VaeConfig


@dataclass
class PathsConfig:
    input: str = "pairs.jsonl"
    titles: str = "titles.txt"
    bootstrap: str = "bootstrap.txt"
    rule_retained: str = "rule_retained.jsonl"
    rule_rejects: str = "rule_rejects.jsonl"
    rule_stats: str = "rule_stats.json"
    checkpoint: str = "model.ckpt"
    vocabulary: str = "vocab.txt"
    scored: str = "scored.jsonl"
    retained: str = "retained.jsonl"
    semantic_rejects: str = "semantic_rejects.jsonl"
    report: str = "partition_report.json"


@dataclass
class TokenizerConfig:
    max_size: int = 10_000
    min_count: int = 2
    max_len: int = 20


@dataclass
class ThresholdConfig:  # the keyword arguments of threshold.partition
    strategy: str = "gmm"  # gmm | percentile
    p: float = 0.5
    max_iter: int = 200
    tol: float = 1e-8


@dataclass
class RulesetConfig:
    disabled: tuple[str, ...] = ()


@dataclass
class PipelineConfig:
    seed: int = 0
    paths: PathsConfig = field(default_factory=PathsConfig)
    ruleset: RulesetConfig = field(default_factory=RulesetConfig)
    tokenizer: TokenizerConfig = field(default_factory=TokenizerConfig)
    vae: VaeConfig = field(default_factory=VaeConfig)
    threshold: ThresholdConfig = field(default_factory=ThresholdConfig)


def _cast(current, raw: str):
    """Parse ``raw`` as the type of the field's current value."""
    if isinstance(current, tuple):
        return tuple(item.strip() for item in raw.split(",") if item.strip())
    return type(current)(raw)


def load_config(path) -> PipelineConfig:
    """Parse an INI pipeline configuration; unknown sections and keys are rejected."""
    parser = configparser.ConfigParser(
        interpolation=None, inline_comment_prefixes=(";", "#")
    )
    try:
        with open(path, "r", encoding="utf-8") as fh:
            parser.read_file(fh)
    except (configparser.Error, UnicodeDecodeError) as exc:
        raise ValueError(f"config file {path}: {exc}") from exc
    if parser.defaults():  # configparser would copy its keys into every section
        raise ValueError(f"unknown config section [{parser.default_section}]")

    # Each nested dataclass field is a section; [pipeline] holds the rest.
    cfg = PipelineConfig()
    sections = {f.name for f in fields(cfg) if is_dataclass(getattr(cfg, f.name))}
    for section in parser.sections():
        if section != "pipeline" and section not in sections:
            raise ValueError(f"unknown config section [{section}]")
        target = getattr(cfg, section) if section in sections else cfg
        known = {f.name for f in fields(target) if not is_dataclass(getattr(target, f.name))}
        unknown = set(parser.options(section)) - known
        if unknown:
            raise ValueError(f"unknown keys in [{section}]: {sorted(unknown)}")
        values = {}
        for key, raw in parser.items(section):
            try:
                values[key] = _cast(getattr(target, key), raw)
            except ValueError as exc:
                raise ValueError(f"[{section}] {key}: {exc}") from exc
        try:  # a section's dataclass may refuse a value out of its range
            target = replace(target, **values)
        except ValueError as exc:
            raise ValueError(f"[{section}] {exc}") from exc
        cfg = replace(cfg, **{section: target}) if section in sections else target
    return cfg
