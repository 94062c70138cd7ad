"""queryfilter: two-stage cleaning of comment-code corpora.

Stage one applies an ordered set of syntactic rules to comment text; stage
two scores the survivors with the reconstruction loss of a GRU variational
autoencoder trained on a bootstrap query corpus, and keeps the low-loss
group found by a two-component Gaussian mixture (or a percentile
alternative).
"""

from .corpus import (
    BootstrapStats,
    CorpusError,
    Record,
    extract_first_sentence,
    prepare_bootstrap,
    provenance_entry,
    read_jsonl,
    write_jsonl,
)
from .rules import Rule, RuleOutcome, apply_ruleset, builtin_rules
from .vocab import Vocabulary, build_vocab, tokenize
from .vae import (
    LossBreakdown,
    TrainingError,
    VaeConfig,
    VaeParams,
    elbo_loss,
    reconstruction_loss,
    train,
)
from .checkpoint import CheckpointError, load_checkpoint, save_checkpoint
from .threshold import GmmFit, dividing_point, fit_em_gmm, partition
from .metrics import answered_at_k, mrr, sample_size
from .config import PipelineConfig, load_config

__version__ = "0.1.0"

__all__ = [
    "BootstrapStats",
    "CheckpointError",
    "CorpusError",
    "GmmFit",
    "LossBreakdown",
    "PipelineConfig",
    "Record",
    "Rule",
    "RuleOutcome",
    "TrainingError",
    "VaeConfig",
    "VaeParams",
    "Vocabulary",
    "answered_at_k",
    "apply_ruleset",
    "build_vocab",
    "builtin_rules",
    "dividing_point",
    "elbo_loss",
    "extract_first_sentence",
    "fit_em_gmm",
    "load_checkpoint",
    "load_config",
    "mrr",
    "partition",
    "prepare_bootstrap",
    "provenance_entry",
    "read_jsonl",
    "reconstruction_loss",
    "sample_size",
    "save_checkpoint",
    "tokenize",
    "train",
    "write_jsonl",
]
