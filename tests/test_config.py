"""INI configuration loading: section and key validation, typed values."""

import pytest

from queryfilter.config import PipelineConfig, load_config


def write_ini(tmp_path, text):
    path = tmp_path / "pipeline.ini"
    path.write_text(text, encoding="utf-8")
    return path


def test_empty_file_gives_defaults(tmp_path):
    assert load_config(write_ini(tmp_path, "")) == PipelineConfig()


def test_unknown_section_rejected(tmp_path):
    with pytest.raises(ValueError, match=r"unknown config section \[model\]"):
        load_config(write_ini(tmp_path, "[model]\nhidden_dim = 8\n"))


@pytest.mark.parametrize(
    "section, key",
    [
        ("pipeline", "paths"),
        ("paths", "outputs"),
        ("ruleset", "rule_order"),
        ("ruleset", "order"),
        ("tokenizer", "vocab_size"),
        ("threshold", "seed"),
        ("vae", "hidden"),
        # decided by the vocabulary, [tokenizer] and [pipeline] respectively
        ("vae", "vocab_size"),
        ("vae", "max_len"),
        ("vae", "seed"),
    ],
)
def test_unknown_key_rejected(tmp_path, section, key):
    path = write_ini(tmp_path, f"[{section}]\n{key} = 1\n")
    with pytest.raises(ValueError, match=rf"unknown keys in \[{section}\]: \['{key}'\]"):
        load_config(path)


def test_values_are_typed(tmp_path):
    cfg = load_config(write_ini(tmp_path, """
[pipeline]
seed = 42
[paths]
input = data/pairs.jsonl
[ruleset]
disabled = urls ,short_sentence
[tokenizer]
max_size = 500
[vae]
hidden_dim = 32
learning_rate = 0.002
[threshold]
strategy = percentile  ; inline comment
p = 0.25
tol = 1e-6
"""))
    assert cfg.seed == 42
    assert cfg.paths.input == "data/pairs.jsonl"
    assert cfg.paths.titles == PipelineConfig().paths.titles
    assert cfg.ruleset.disabled == ("urls", "short_sentence")
    assert cfg.tokenizer.max_size == 500 and isinstance(cfg.tokenizer.max_size, int)
    assert cfg.vae.hidden_dim == 32 and isinstance(cfg.vae.hidden_dim, int)
    assert cfg.vae.learning_rate == 0.002
    assert cfg.threshold.strategy == "percentile"
    assert cfg.threshold.p == 0.25 and cfg.threshold.tol == 1e-6
    assert isinstance(cfg.threshold.max_iter, int)


def test_bad_value_rejected(tmp_path):
    with pytest.raises(ValueError, match=r"^\[vae\] epochs: invalid literal"):
        load_config(write_ini(tmp_path, "[vae]\nepochs = ten\n"))
