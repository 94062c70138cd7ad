"""Train the scoring model on query-like sentences and watch it separate
in-distribution text from noise.

The bootstrap corpus here is synthetic ("verb noun preposition noun"
sentences); real pipelines would use prepared question titles.  Takes a few
seconds on a laptop.

Run with: python demos/train_and_score.py
"""

import numpy as np

from queryfilter import VaeConfig, build_vocab, reconstruction_loss, tokenize, train

rng = np.random.default_rng(0)

VERBS = ["convert", "read", "write", "sort", "parse", "remove", "find", "create"]
NOUNS = ["string", "file", "list", "array", "json", "date", "buffer", "index", "value"]

corpus = [
    f"{rng.choice(VERBS)} {rng.choice(NOUNS)} to {rng.choice(NOUNS)}"
    for _ in range(400)
]

token_lists = [tokenize(s) for s in corpus]
vocab = build_vocab(token_lists, max_size=200, min_count=1, max_len=12)
sequences = [vocab.encode(t) for t in token_lists]

config = VaeConfig(embed_dim=24, hidden_dim=48, latent_dim=12, epochs=8, batch_size=32,
                   learning_rate=2e-3, kl_anneal_steps=500)
print(f"training on {len(sequences)} sentences, vocabulary of {vocab.size} tokens")
params, trace = train(sequences, config, vocab.size, seed=0)
for stats in trace:
    print(f"  epoch {stats.epoch}: ce/token {stats.mean_ce:.3f}  kl {stats.mean_kl:.3f}")

# ---------------------------------------------------------------------------
# Reconstruction loss is the anomaly score: low means "looks like a query".
# ---------------------------------------------------------------------------
probes = [
    "convert string to json",          # in distribution
    "read date to buffer",             # in distribution
    "buffer buffer convert to to",     # right words, wrong shape
    "json array file value index",     # right words, no verb structure
    "Copyright 2014 by the authors",   # off-topic prose, mostly unknown tokens
]
print("\nreconstruction loss (nats/token):")
scores = reconstruction_loss(params, [vocab.encode(tokenize(t)) for t in probes])
for text, score in zip(probes, scores):
    print(f"  {text!r:35} {score:6.3f}")
