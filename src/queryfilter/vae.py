"""GRU variational autoencoder over token sequences, implemented in numpy.

The encoder is a bi-directional GRU whose two final hidden states are summed;
a fully-connected layer maps that state to the mean and log-variance of a
diagonal Gaussian, and a GRU decoder reconstructs the sequence from the
sampled latent vector with teacher forcing.  Training minimizes per-token
cross-entropy plus a linearly annealed KL term; scoring is the deterministic
per-token cross-entropy with the latent fixed at its mean.

All gradients are computed analytically by backpropagation through time and
are validated against central finite differences in the test suite.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, fields
from typing import Callable, Sequence

import numpy as np

from .vocab import BOS, EOS


class TrainingError(RuntimeError):
    """Raised for unusable training input or a diverged optimization."""


@dataclass(frozen=True)
class VaeConfig:
    """Model and optimizer hyperparameters; everything stochastic keys off ``seed``."""

    vocab_size: int
    embed_dim: int = 128
    hidden_dim: int = 256
    latent_dim: int = 64
    max_len: int = 20
    epochs: int = 10
    batch_size: int = 64
    learning_rate: float = 1e-3
    kl_anneal_steps: int = 2000
    seed: int = 0

    def validate(self) -> None:
        for name in ("vocab_size", "embed_dim", "hidden_dim", "latent_dim"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
        if self.max_len < 3:
            raise ValueError("max_len must be >= 3")
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be positive")
        if self.kl_anneal_steps < 0:
            raise ValueError("kl_anneal_steps must be >= 0")


@dataclass
class GruWeights:
    """One GRU cell with its three gates stacked row-wise.

    Rows ``[0, H)`` are the update gate, ``[H, 2H)`` the reset gate and
    ``[2H, 3H)`` the candidate state.
    """

    w: np.ndarray  # (3*hidden, in): input weights
    u: np.ndarray  # (3*hidden, hidden): recurrent weights
    b: np.ndarray  # (3*hidden,)


@dataclass
class VaeParams:
    """All learnable tensors; the embedding is shared by encoder and decoder."""

    embedding: np.ndarray  # (vocab, embed)
    enc_fwd: GruWeights  # embed -> hidden, left to right
    enc_bwd: GruWeights  # embed -> hidden, right to left
    latent_w: np.ndarray  # (2*latent, hidden): rows split into mean / log-variance
    latent_b: np.ndarray
    dec_init_w: np.ndarray  # (hidden, latent): latent -> initial decoder state
    dec_init_b: np.ndarray
    dec: GruWeights  # embed -> hidden
    out_w: np.ndarray  # (vocab, hidden)
    out_b: np.ndarray

    @property
    def vocab_size(self) -> int:
        return self.embedding.shape[0]

    @property
    def hidden_dim(self) -> int:
        return self.latent_w.shape[1]

    @property
    def latent_dim(self) -> int:
        return self.latent_w.shape[0] // 2


@dataclass(frozen=True)
class LossBreakdown:
    ce: float  # mean cross-entropy per predicted token, nats
    kl: float  # KL divergence of the posterior from the standard normal, nats
    total: float  # ce + beta * kl


@dataclass(frozen=True)
class EpochStats:
    epoch: int
    mean_ce: float
    mean_kl: float
    mean_total: float
    seconds: float


def named_tensors(params: VaeParams) -> list[tuple[str, np.ndarray]]:
    """All tensors in a fixed order, for the optimizer, checkpoints and tests."""
    out: list[tuple[str, np.ndarray]] = []
    for f in fields(params):
        value = getattr(params, f.name)
        if isinstance(value, GruWeights):
            for sub in fields(value):
                out.append((f"{f.name}.{sub.name}", getattr(value, sub.name)))
        else:
            out.append((f.name, value))
    return out


def init_params(config: VaeConfig) -> VaeParams:
    """Uniform initialization in [-0.08, 0.08], reproducible from the seed."""
    config.validate()
    rng = np.random.default_rng(config.seed)

    def u(*shape: int) -> np.ndarray:
        return rng.uniform(-0.08, 0.08, size=shape)

    def gru(in_dim: int) -> GruWeights:
        # Drawn gate by gate (update, reset, candidate), each as w, u, b.
        h = config.hidden_dim
        gates = [(u(h, in_dim), u(h, h), u(h)) for _ in range(3)]
        return GruWeights(*(np.concatenate(parts) for parts in zip(*gates)))

    return VaeParams(
        embedding=u(config.vocab_size, config.embed_dim),
        enc_fwd=gru(config.embed_dim),
        enc_bwd=gru(config.embed_dim),
        latent_w=u(2 * config.latent_dim, config.hidden_dim),
        latent_b=u(2 * config.latent_dim),
        dec_init_w=u(config.hidden_dim, config.latent_dim),
        dec_init_b=u(config.hidden_dim),
        dec=gru(config.embed_dim),
        out_w=u(config.vocab_size, config.hidden_dim),
        out_b=u(config.vocab_size),
    )


def zeros_like_params(params: VaeParams) -> VaeParams:
    def zeros(value):
        if isinstance(value, np.ndarray):
            return np.zeros_like(value)
        return type(value)(*(zeros(getattr(value, f.name)) for f in fields(value)))

    return zeros(params)


def _sigmoid(x: np.ndarray) -> np.ndarray:
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def _log_softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=-1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))


# A cell cache is (x, h_prev, update, reset, cand); the new state is
# update * h_prev + (1 - update) * cand.
def _gru_step(w: GruWeights, x: np.ndarray, h_prev: np.ndarray):
    n = 2 * h_prev.shape[0]
    a = w.w @ x
    gates = _sigmoid(a[:n] + w.u[:n] @ h_prev + w.b[:n])
    update, reset = np.split(gates, 2)
    cand = np.tanh(a[n:] + w.u[n:] @ (reset * h_prev) + w.b[n:])
    h = update * h_prev + (1.0 - update) * cand
    return h, (x, h_prev, update, reset, cand)


def _gru_step_backward(w: GruWeights, g: GruWeights, cache, dh: np.ndarray):
    """Accumulate gradients for one cell into ``g``; return (dx, dh_prev)."""
    x, h_prev, update, reset, cand = cache
    hidden = dh.shape[0]
    n = 2 * hidden
    da = np.empty(3 * hidden)  # gradient of the pre-activations, stacked like w
    da[n:] = dh * (1.0 - update) * (1.0 - cand * cand)
    d_rh = w.u[n:].T @ da[n:]
    da[:hidden] = dh * (h_prev - cand) * update * (1.0 - update)
    da[hidden:n] = d_rh * h_prev * reset * (1.0 - reset)

    g.w += np.outer(da, x)
    g.u[:n] += np.outer(da[:n], h_prev)
    g.u[n:] += np.outer(da[n:], reset * h_prev)
    g.b += da
    dx = w.w.T @ da
    dh_prev = dh * update + d_rh * reset + w.u[:n].T @ da[:n]
    return dx, dh_prev


def _check_ids(params: VaeParams, ids: np.ndarray) -> np.ndarray:
    ids = np.asarray(ids, dtype=np.int64)
    if ids.size == 0:
        raise ValueError("id sequence must be non-empty")
    if ids.min() < 0 or ids.max() >= params.vocab_size:
        raise ValueError(
            f"token id out of range for vocabulary of size {params.vocab_size}"
        )
    return ids


def encoder_forward(params: VaeParams, ids: Sequence[int]):
    """Run both GRU directions from zero states; return (h, cache).

    ``h`` is the elementwise sum of the final states of the left-to-right
    pass and the right-to-left pass.
    """
    ids = _check_ids(params, ids)
    X = params.embedding[ids]
    n = len(ids)
    hidden = params.hidden_dim

    h = np.zeros(hidden)
    fwd_caches = []
    for t in range(n):
        h, cache = _gru_step(params.enc_fwd, X[t], h)
        fwd_caches.append(cache)
    h_fwd = h

    h = np.zeros(hidden)
    bwd_caches = []  # kept in processing order: positions n-1 .. 0
    for t in range(n - 1, -1, -1):
        h, cache = _gru_step(params.enc_bwd, X[t], h)
        bwd_caches.append((t, cache))
    h_bwd = h

    return h_fwd + h_bwd, (ids, fwd_caches, bwd_caches)


def latent(params: VaeParams, h: np.ndarray, noise: np.ndarray):
    """Project ``h`` to (mean, log-variance) and reparameterize with ``noise``.

    Returns (mu, logvar, z) with z = mu + noise * exp(logvar / 2); passing
    zero noise makes the latent deterministic at the posterior mean.
    """
    a = params.latent_w @ h + params.latent_b
    k = params.latent_dim
    mu, logvar = a[:k], a[k:]
    z = mu + np.asarray(noise) * np.exp(0.5 * logvar)
    return mu, logvar, z


def decoder_forward(params: VaeParams, z: np.ndarray, targets: Sequence[int]):
    """Teacher-forced decoding; returns (logits, cache).

    The initial hidden state is an affine map of ``z``.  Step i consumes the
    embedding of ``targets[i]`` (step 0 consumes BOS) and emits logits for
    ``targets[i + 1]``, so ``logits`` has ``len(targets) - 1`` rows.
    """
    targets = _check_ids(params, targets)
    if targets[0] != BOS or targets[-1] != EOS:
        raise ValueError("decoder targets must start with BOS and end with EOS")
    s = params.dec_init_w @ z + params.dec_init_b
    states, caches = [], []
    logits = np.empty((len(targets) - 1, params.vocab_size))
    for i in range(len(targets) - 1):
        s, cache = _gru_step(params.dec, params.embedding[targets[i]], s)
        states.append(s)
        caches.append(cache)
        logits[i] = params.out_w @ s + params.out_b
    return logits, (targets, states, caches)


def elbo_loss(
    logits: np.ndarray,
    targets: Sequence[int],
    mu: np.ndarray,
    logvar: np.ndarray,
    beta: float = 1.0,
) -> LossBreakdown:
    """Mean per-token cross-entropy plus the (annealed) Gaussian KL term."""
    targets = np.asarray(targets, dtype=np.int64)
    n_pred = logits.shape[0]
    log_probs = _log_softmax(logits)
    ce = float(-np.mean(log_probs[np.arange(n_pred), targets[1:]]))
    kl = float(0.5 * np.sum(mu * mu + np.exp(logvar) - logvar - 1.0))
    return LossBreakdown(ce=ce, kl=kl, total=ce + beta * kl)


def loss_and_grads(
    params: VaeParams,
    ids: Sequence[int],
    noise: np.ndarray,
    beta: float = 1.0,
    grads: VaeParams | None = None,
):
    """Forward pass plus full backpropagation for one sequence.

    Gradients accumulate into ``grads`` when given (callers batching several
    sequences reuse one container), otherwise a fresh container is returned.
    """
    ids = _check_ids(params, ids)
    h, (_, fwd_caches, bwd_caches) = encoder_forward(params, ids)
    mu, logvar, z = latent(params, h, noise)
    logits, (_, dec_states, dec_caches) = decoder_forward(params, z, ids)
    breakdown = elbo_loss(logits, ids, mu, logvar, beta)
    g = grads if grads is not None else zeros_like_params(params)

    # Cross-entropy backward: softmax minus one-hot, averaged over positions.
    n_pred = logits.shape[0]
    d_logits = np.exp(_log_softmax(logits))
    d_logits[np.arange(n_pred), ids[1:]] -= 1.0
    d_logits /= n_pred

    # Decoder, walked back through time.
    ds = np.zeros(params.hidden_dim)
    for i in range(n_pred - 1, -1, -1):
        g.out_w += np.outer(d_logits[i], dec_states[i])
        g.out_b += d_logits[i]
        ds = ds + params.out_w.T @ d_logits[i]
        dx, ds = _gru_step_backward(params.dec, g.dec, dec_caches[i], ds)
        g.embedding[ids[i]] += dx
    g.dec_init_w += np.outer(ds, z)
    g.dec_init_b += ds
    dz = params.dec_init_w.T @ ds

    # Latent projection: reparameterization path plus the direct KL path.
    d_mu = dz + beta * mu
    d_logvar = dz * np.asarray(noise) * np.exp(0.5 * logvar) * 0.5
    d_logvar += beta * 0.5 * (np.exp(logvar) - 1.0)
    d_affine = np.concatenate([d_mu, d_logvar])
    g.latent_w += np.outer(d_affine, h)
    g.latent_b += d_affine
    dh = params.latent_w.T @ d_affine

    # Both encoder directions receive the summed-state gradient.
    n = len(ids)
    dX = np.zeros((n, params.embedding.shape[1]))
    dcur = dh.copy()
    for t in range(n - 1, -1, -1):
        dx, dcur = _gru_step_backward(params.enc_fwd, g.enc_fwd, fwd_caches[t], dcur)
        dX[t] += dx
    dcur = dh.copy()
    for t, cache in reversed(bwd_caches):
        dx, dcur = _gru_step_backward(params.enc_bwd, g.enc_bwd, cache, dcur)
        dX[t] += dx
    for t in range(n):
        g.embedding[ids[t]] += dX[t]

    return breakdown, g


def total_loss(
    params: VaeParams, ids: Sequence[int], noise: np.ndarray, beta: float = 1.0
) -> LossBreakdown:
    """Forward-only loss; the finite-difference oracle in the tests uses this."""
    ids = _check_ids(params, ids)
    h, _ = encoder_forward(params, ids)
    mu, logvar, z = latent(params, h, noise)
    logits, _ = decoder_forward(params, z, ids)
    return elbo_loss(logits, ids, mu, logvar, beta)


def reconstruction_loss(params: VaeParams, ids: Sequence[int]) -> float:
    """Deterministic anomaly score: mean per-token cross-entropy at z = mu.

    No sampling and no KL term, so repeated calls are bit-identical.
    """
    ids = _check_ids(params, ids)
    h, _ = encoder_forward(params, ids)
    mu, logvar, z = latent(params, h, np.zeros(params.latent_dim))
    logits, _ = decoder_forward(params, z, ids)
    return elbo_loss(logits, ids, mu, logvar).ce


def greedy_generate(params: VaeParams, z: np.ndarray, max_len: int = 20) -> list[int]:
    """Free-running argmax decoding from a latent vector (qualitative use only)."""
    s = params.dec_init_w @ z + params.dec_init_b
    out: list[int] = []
    token = BOS
    for _ in range(max_len):
        s, _ = _gru_step(params.dec, params.embedding[token], s)
        token = int(np.argmax(params.out_w @ s + params.out_b))
        if token == EOS:
            break
        out.append(token)
    return out


class _Adam:
    """Adam over the named tensors, deterministic given the gradient stream."""

    def __init__(self, params: VaeParams, lr: float, beta1=0.9, beta2=0.999, eps=1e-8):
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.t = 0
        self.m = {name: np.zeros_like(p) for name, p in named_tensors(params)}
        self.v = {name: np.zeros_like(p) for name, p in named_tensors(params)}

    def update(self, params: VaeParams, grads: VaeParams, scale: float) -> None:
        self.t += 1
        bc1 = 1.0 - self.beta1**self.t
        bc2 = 1.0 - self.beta2**self.t
        grad_tensors = dict(named_tensors(grads))
        for name, p in named_tensors(params):
            g = grad_tensors[name] * scale
            m = self.m[name]
            v = self.v[name]
            m *= self.beta1
            m += (1.0 - self.beta1) * g
            v *= self.beta2
            v += (1.0 - self.beta2) * g * g
            p -= self.lr * (m / bc1) / (np.sqrt(v / bc2) + self.eps)


def kl_weight(step: int, anneal_steps: int) -> float:
    """Linear KL annealing from 0 to 1 over the first ``anneal_steps`` updates."""
    if anneal_steps <= 0:
        return 1.0
    return min(1.0, step / anneal_steps)


def train(
    sequences: Sequence[Sequence[int]],
    config: VaeConfig,
    progress: Callable[[EpochStats], None] | None = None,
) -> tuple[VaeParams, list[EpochStats]]:
    """Train on encoded sequences; returns final parameters and the loss trace.

    The corpus is canonicalized by sorting before the seed-driven shuffle, so
    the result depends on the seed but not on input file ordering.  Raises
    :class:`TrainingError` on an empty corpus or a non-finite loss.
    """
    config.validate()
    if not sequences:
        raise TrainingError("training corpus is empty")
    canonical = sorted(tuple(int(i) for i in seq) for seq in sequences)
    for seq in canonical:
        if len(seq) < 2 or seq[0] != BOS or seq[-1] != EOS:
            raise TrainingError("sequences must be BOS ... EOS encoded")
        if max(seq) >= config.vocab_size:
            raise TrainingError("sequence id exceeds configured vocabulary size")

    params = init_params(config)
    optimizer = _Adam(params, config.learning_rate)
    rng = np.random.default_rng([config.seed, 1])
    grads = zeros_like_params(params)
    arrays = [np.array(seq, dtype=np.int64) for seq in canonical]

    trace: list[EpochStats] = []
    step = 0
    for epoch in range(config.epochs):
        started = time.perf_counter()
        order = rng.permutation(len(arrays))
        sum_ce = sum_kl = sum_total = 0.0
        for lo in range(0, len(arrays), config.batch_size):
            batch = order[lo : lo + config.batch_size]
            beta = kl_weight(step, config.kl_anneal_steps)
            for _, tensor in named_tensors(grads):
                tensor.fill(0.0)
            for idx in batch:
                noise = rng.standard_normal(config.latent_dim)
                breakdown, _ = loss_and_grads(
                    params, arrays[idx], noise, beta, grads=grads
                )
                if not math.isfinite(breakdown.total):
                    raise TrainingError(
                        f"non-finite loss at optimizer step {step} (epoch {epoch})"
                    )
                sum_ce += breakdown.ce
                sum_kl += breakdown.kl
                sum_total += breakdown.total
            optimizer.update(params, grads, 1.0 / len(batch))
            step += 1
        n = len(arrays)
        stats = EpochStats(
            epoch=epoch,
            mean_ce=sum_ce / n,
            mean_kl=sum_kl / n,
            mean_total=sum_total / n,
            seconds=time.perf_counter() - started,
        )
        trace.append(stats)
        if progress is not None:
            progress(stats)
    return params, trace
