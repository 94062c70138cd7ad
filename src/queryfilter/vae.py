"""GRU variational autoencoder over token sequences, implemented in numpy.

The encoder is a bi-directional GRU whose two final hidden states are summed;
a fully-connected layer maps that state to the mean and log-variance of a
diagonal Gaussian, and a GRU decoder reconstructs the sequence from the
sampled latent vector with teacher forcing.  Training minimizes per-token
cross-entropy plus a linearly annealed KL term; scoring is the deterministic
per-token cross-entropy with the latent fixed at its mean.

Every function works on a padded batch: a ``(B, T)`` id matrix whose row b
holds a sequence in its first ``lengths[b]`` columns (see :func:`pad_batch`).
Each GRU projects the inputs of all its steps with one GEMM before the time
loop and carries a row's state unchanged past that row's end.
:func:`reconstruction_loss` scores records in groups of one length and a fixed
number of rows, so that a record's score depends on its own ids only.

All gradients are computed analytically by backpropagation through time and
are validated against central finite differences in the test suite.
"""

from __future__ import annotations

import math
import time
from collections import defaultdict
from dataclasses import dataclass, field, fields
from typing import Callable, Sequence

import numpy as np

from .vocab import BOS, EOS, PAD

# Training feeds each optimizer batch to loss_and_grads in sub-batches of at
# most this many (time step x hidden unit) activations per GRU.
_ACTIVATION_CAP = 8 * 16 * 256

# Scoring runs every group of same-length records this many rows at a time.
_SCORE_ROWS = 16


class TrainingError(RuntimeError):
    """Raised for unusable training input or a diverged optimization."""


@dataclass(frozen=True)
class VaeConfig:
    """Model and optimizer hyperparameters: the ``[vae]`` section.

    Building one raises ``TypeError`` on a wrongly typed field, ``ValueError`` on one out of range.
    """

    embed_dim: int = 128
    hidden_dim: int = 256
    latent_dim: int = 64
    epochs: int = 10
    batch_size: int = 64
    learning_rate: float = 1e-3
    kl_anneal_steps: int = 2000

    def __post_init__(self) -> None:
        for f in fields(self):
            kind = type(getattr(self, f.name))  # a bool is not an int here
            if kind is not int and not (kind is float and f.type == "float"):
                raise TypeError(f"config field {f.name!r} must be {f.type}")
        for name in ("embed_dim", "hidden_dim", "latent_dim", "epochs", "batch_size"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
        if not (math.isfinite(self.learning_rate) and self.learning_rate > 0):
            raise ValueError("learning_rate must be a finite positive number")
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
    ce: float  # sum over the batch of each row's mean cross-entropy per predicted token, nats
    kl: float  # KL divergence of the posterior from the standard normal, nats
    total: float  # ce + beta * kl
    seq_ce: np.ndarray = field(compare=False)  # (B,): each row's mean cross-entropy; ce is its sum


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


def param_shapes(config: VaeConfig, vocab_size: int) -> list[tuple[str, tuple[int, ...]]]:
    """Each tensor's name and shape, in :func:`named_tensors` order, allocating nothing."""
    v, e, h, k = vocab_size, config.embed_dim, config.hidden_dim, config.latent_dim

    def gru(name: str, in_dim: int) -> list[tuple[str, tuple[int, ...]]]:
        return [(f"{name}.w", (3 * h, in_dim)), (f"{name}.u", (3 * h, h)), (f"{name}.b", (3 * h,))]

    return [("embedding", (v, e)), *gru("enc_fwd", e), *gru("enc_bwd", e),
            ("latent_w", (2 * k, h)), ("latent_b", (2 * k,)),
            ("dec_init_w", (h, k)), ("dec_init_b", (h,)), *gru("dec", e),
            ("out_w", (v, h)), ("out_b", (v,))]


def empty_params(config: VaeConfig, vocab_size: int) -> VaeParams:
    """Uninitialized tensors of :func:`param_shapes`, for a loader to fill.

    A model too large to allocate raises :class:`ValueError` naming its sizes.
    """
    try:
        t = [np.empty(shape) for _, shape in param_shapes(config, vocab_size)]
    except (MemoryError, ValueError):  # ValueError: too large for numpy to index
        raise ValueError(f"cannot allocate a model with embed_dim {config.embed_dim}, "
                         f"hidden_dim {config.hidden_dim}, latent_dim {config.latent_dim} "
                         f"and {vocab_size} vocabulary tokens") from None
    return VaeParams(t[0], GruWeights(*t[1:4]), GruWeights(*t[4:7]), *t[7:11],
                     GruWeights(*t[11:14]), t[14], t[15])


def init_params(config: VaeConfig, vocab_size: int, seed: int) -> VaeParams:
    """Uniform initialization in [-0.08, 0.08], reproducible from ``seed``."""
    params = empty_params(config, vocab_size)
    rng = np.random.default_rng(seed)
    h = config.hidden_dim
    for f in fields(params):
        value = getattr(params, f.name)
        if isinstance(value, GruWeights):
            # Drawn gate by gate (update, reset, candidate), each as w, u, b.
            for gate in range(3):
                for tensor in (value.w, value.u, value.b):
                    rows = tensor[gate * h : (gate + 1) * h]
                    rows[...] = rng.uniform(-0.08, 0.08, size=rows.shape)
        else:
            value[...] = rng.uniform(-0.08, 0.08, size=value.shape)
    return params


def zeros_like_params(params: VaeParams) -> VaeParams:
    def zeros(value):
        if isinstance(value, np.ndarray):
            return np.zeros_like(value)
        return type(value)(*(zeros(getattr(value, f.name)) for f in fields(value)))

    return zeros(params)


def pad_batch(sequences: Sequence[Sequence[int]]) -> tuple[np.ndarray, np.ndarray]:
    """Stack id sequences into a PAD-filled ``(B, T)`` matrix plus their lengths."""
    lengths = np.array([len(seq) for seq in sequences], dtype=np.int64)
    if lengths.size == 0 or lengths.min() == 0:
        raise ValueError("id sequence must be non-empty")
    ids = np.full((len(sequences), lengths.max()), PAD, dtype=np.int64)
    for row, seq in zip(ids, sequences):
        row[: len(seq)] = seq
    return ids, lengths


def _check_batch(params: VaeParams, ids, lengths) -> tuple[np.ndarray, np.ndarray]:
    ids = np.asarray(ids, dtype=np.int64)
    lengths = np.asarray(lengths, dtype=np.int64)
    if ids.ndim != 2 or lengths.shape != ids.shape[:1]:
        raise ValueError("ids must be a (batch, time) matrix with one length per row")
    if ids.size == 0 or lengths.min() < 1 or lengths.max() > ids.shape[1]:
        raise ValueError("id sequence must be non-empty and fit its row")
    if ids.min() < 0 or ids.max() >= params.vocab_size:
        raise ValueError(
            f"token id out of range for vocabulary of size {params.vocab_size}"
        )
    return ids, lengths


def _targets(ids: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """The predicted ids ``ids[b, 1:lengths[b]]`` of every row, in batch order."""
    return ids[:, 1:][np.arange(ids.shape[1] - 1) < (lengths - 1)[:, None]]


def _sigmoid_(x: np.ndarray) -> np.ndarray:
    """Logistic function in place, as 0.5 * tanh(x / 2) + 0.5 (cannot overflow)."""
    x *= 0.5
    np.tanh(x, out=x)
    x *= 0.5
    x += 0.5
    return x


def _log_softmax_(x: np.ndarray) -> np.ndarray:
    """Log-softmax over the last axis, in place."""
    x -= x.max(axis=-1, keepdims=True)
    x -= np.log(np.exp(x).sum(axis=-1, keepdims=True))
    return x


# A GRU cache is (x, pad, states, gates, cand), all time-major.  states[t] is
# the state entering step t (states[0] is the initial state), gates[t] holds
# the update and reset gates side by side, and the state leaving step t is
# update * h + (1 - update) * cand, except in rows that pad[t] marks as past
# their end, which carry h on unchanged.
def _gru_forward(w: GruWeights, x: np.ndarray, pad: np.ndarray, h0: np.ndarray):
    """Run one GRU left to right over ``x (T, B, in)``; return (states, cache).

    The input projection of every step is one GEMM before the time loop.
    """
    x = np.ascontiguousarray(x)
    steps, batch, _ = x.shape
    hidden = h0.shape[1]
    n = 2 * hidden
    a = (x.reshape(steps * batch, -1) @ w.w.T).reshape(steps, batch, 3 * hidden)
    a += w.b
    states = np.empty((steps + 1, batch, hidden))
    states[0] = h0
    gates = np.empty((steps, batch, n))
    cand = np.empty((steps, batch, hidden))
    u_gates, u_cand = w.u[:n].T, w.u[n:].T
    for t in range(steps):
        h, g, c, h_new = states[t], gates[t], cand[t], states[t + 1]
        np.matmul(h, u_gates, out=g)
        g += a[t, :, :n]
        _sigmoid_(g)
        np.matmul(g[:, hidden:] * h, u_cand, out=c)
        c += a[t, :, n:]
        np.tanh(c, out=c)
        np.subtract(h, c, out=h_new)
        h_new *= g[:, :hidden]
        h_new += c
        np.copyto(h_new, h, where=pad[t])
    return states, (x, pad, states, gates, cand)


def _gru_backward(w: GruWeights, g: GruWeights, cache, dh: np.ndarray, d_states=None):
    """Backpropagate through one GRU run, accumulating its gradients into ``g``.

    ``dh`` is the gradient of the final state and ``d_states[t]``, when given,
    that of the state leaving step t.  Each step stores its pre-activation
    gradient ``da`` (stacked like ``w``); the weight gradients are single
    GEMMs after the loop.  Returns (dx (T, B, in), gradient of the initial state).
    """
    x, pad, states, gates, cand = cache
    steps, batch, hidden = cand.shape
    n = 2 * hidden
    da = np.empty((steps, batch, 3 * hidden))
    u_gates, u_cand = w.u[:n], w.u[n:]
    for t in range(steps - 1, -1, -1):
        if d_states is not None:
            dh = dh + d_states[t]
        h, c = states[t], cand[t]
        update, reset = gates[t, :, :hidden], gates[t, :, hidden:]
        d_cand = dh * (1.0 - update) * (1.0 - c * c)
        d_rh = d_cand @ u_cand
        da[t, :, n:] = d_cand
        da[t, :, :hidden] = dh * (h - c) * update * (1.0 - update)
        da[t, :, hidden:n] = d_rh * h * reset * (1.0 - reset)
        np.copyto(da[t], 0.0, where=pad[t])
        dh_prev = dh * update + d_rh * reset + da[t, :, :n] @ u_gates
        dh = np.where(pad[t], dh, dh_prev)

    flat = da.reshape(steps * batch, 3 * hidden)
    h_prev = states[:-1].reshape(steps * batch, hidden)
    g.w += flat.T @ x.reshape(steps * batch, -1)
    g.u[:n] += flat[:, :n].T @ h_prev
    g.u[n:] += flat[:, n:].T @ (gates[:, :, hidden:].reshape(steps * batch, hidden) * h_prev)
    g.b += flat.sum(axis=0)
    return (flat @ w.w).reshape(x.shape), dh


def encoder_forward(params: VaeParams, ids, lengths):
    """Run both GRU directions from zero states over a padded batch; return (h, cache).

    ``h (B, H)`` is, per row, the sum of the final state of the left-to-right
    pass and that of the right-to-left pass over the row's first
    ``lengths[b]`` ids.
    """
    ids, lengths = _check_batch(params, ids, lengths)
    x = params.embedding[ids.T]  # (T, B, E)
    pad = (np.arange(ids.shape[1])[:, None] >= lengths)[:, :, None]
    h0 = np.zeros((len(lengths), params.hidden_dim))
    fwd_states, fwd = _gru_forward(params.enc_fwd, x, pad, h0)
    # Right to left is left to right over the reversed time axis; a row's
    # padding then comes first and leaves its zero state untouched.
    bwd_states, bwd = _gru_forward(params.enc_bwd, x[::-1], pad[::-1], h0)
    return fwd_states[-1] + bwd_states[-1], (pad, fwd, bwd)


def latent(params: VaeParams, h: np.ndarray, noise: np.ndarray | None = None):
    """Project ``h (B, H)`` to (mean, log-variance) and reparameterize with ``noise (B, k)``.

    Returns (mu, logvar, z) with z = mu + noise * exp(logvar / 2), or without
    ``noise`` z = mu exactly: the posterior mean, whatever the variance.
    """
    a = h @ params.latent_w.T + params.latent_b
    k = params.latent_dim
    mu, logvar = a[:, :k], a[:, k:]
    z = mu if noise is None else mu + np.asarray(noise) * np.exp(0.5 * logvar)
    return mu, logvar, z


def decoder_forward(params: VaeParams, z: np.ndarray, ids, lengths):
    """Teacher-forced decoding of a padded batch; returns (logits, cache).

    Row b's initial hidden state is an affine map of ``z[b]``.  Step i
    consumes the embedding of ``ids[b, i]`` (step 0 consumes BOS) and emits
    logits for ``ids[b, i + 1]``.  ``logits`` has one row per predicted
    token, ``lengths[b] - 1`` rows for row b, in batch order.
    """
    ids, lengths = _check_batch(params, ids, lengths)
    last = ids[np.arange(len(lengths)), lengths - 1]
    if np.any(ids[:, 0] != BOS) or np.any(last != EOS):
        raise ValueError("decoder targets must start with BOS and end with EOS")
    pad = (np.arange(ids.shape[1] - 1)[:, None] >= lengths - 1)[:, :, None]
    s0 = z @ params.dec_init_w.T + params.dec_init_b
    states, cache = _gru_forward(params.dec, params.embedding[ids[:, :-1].T], pad, s0)
    out = states[1:].transpose(1, 0, 2)[~pad[:, :, 0].T]  # (predicted tokens, H)
    logits = out @ params.out_w.T
    logits += params.out_b
    return logits, (pad, out, cache)


def elbo_loss(
    logp: np.ndarray,
    ids,
    lengths,
    mu: np.ndarray,
    logvar: np.ndarray,
    beta: float = 1.0,
) -> LossBreakdown:
    """Per-sequence mean cross-entropy plus the (annealed) KL term, summed over the batch.

    ``logp`` is the log-softmax of the logits of :func:`decoder_forward`,
    with the same rows.
    """
    ids = np.asarray(ids, dtype=np.int64)
    n_pred = np.asarray(lengths, dtype=np.int64) - 1
    targets = _targets(ids, n_pred + 1)
    nll = -logp[np.arange(len(targets)), targets]
    seq_ce = np.add.reduceat(nll, np.cumsum(n_pred) - n_pred) / n_pred
    ce = float(np.sum(seq_ce))
    with np.errstate(over="ignore"):  # a variance past exp's range: kl = inf, unread by scoring
        kl = float(0.5 * np.sum(mu * mu + np.exp(logvar) - logvar - 1.0))
    return LossBreakdown(ce=ce, kl=kl, total=ce + beta * kl, seq_ce=seq_ce)


def loss_and_grads(
    params: VaeParams,
    ids,
    lengths,
    noise: np.ndarray,
    beta: float = 1.0,
    grads: VaeParams | None = None,
):
    """Forward pass plus full backpropagation for a padded batch.

    The loss is the sum of the rows' losses, so the gradient is the sum of
    the rows' gradients.  Gradients accumulate into ``grads`` when given
    (training reuses one container over sub-batches), otherwise a fresh
    container is returned.
    """
    ids, lengths = _check_batch(params, ids, lengths)
    h, (enc_pad, fwd_cache, bwd_cache) = encoder_forward(params, ids, lengths)
    mu, logvar, z = latent(params, h, noise)
    logits, (dec_pad, out, dec_cache) = decoder_forward(params, z, ids, lengths)
    logp = _log_softmax_(logits)
    breakdown = elbo_loss(logp, ids, lengths, mu, logvar, beta)
    g = grads if grads is not None else zeros_like_params(params)

    # Cross-entropy backward: softmax minus one-hot, each row averaged over
    # the predicted positions of its own sequence.
    n_pred = lengths - 1
    d_logits = np.exp(logp, out=logp)
    d_logits[np.arange(len(d_logits)), _targets(ids, lengths)] -= 1.0
    d_logits /= np.repeat(n_pred, n_pred)[:, None]
    g.out_w += d_logits.T @ out
    g.out_b += d_logits.sum(axis=0)
    d_states = np.zeros(dec_pad.shape[:2] + (params.hidden_dim,))
    d_states.transpose(1, 0, 2)[~dec_pad[:, :, 0].T] = d_logits @ params.out_w

    # Decoder, walked back through time.
    dx_dec, ds = _gru_backward(params.dec, g.dec, dec_cache, np.zeros_like(h), d_states)
    g.dec_init_w += ds.T @ z
    g.dec_init_b += ds.sum(axis=0)
    dz = ds @ params.dec_init_w

    # Latent projection: reparameterization path plus the direct KL path.
    d_mu = dz + beta * mu
    d_logvar = dz * np.asarray(noise) * np.exp(0.5 * logvar) * 0.5
    d_logvar += beta * 0.5 * (np.exp(logvar) - 1.0)
    d_affine = np.concatenate([d_mu, d_logvar], axis=1)
    g.latent_w += d_affine.T @ h
    g.latent_b += d_affine.sum(axis=0)
    dh = d_affine @ params.latent_w

    # Both encoder directions receive the summed-state gradient; decoder step
    # i read the embedding at position i.
    dx, _ = _gru_backward(params.enc_fwd, g.enc_fwd, fwd_cache, dh)
    dx_bwd, _ = _gru_backward(params.enc_bwd, g.enc_bwd, bwd_cache, dh)
    dx += dx_bwd[::-1]
    dx[:-1] += dx_dec
    valid = ~enc_pad[:, :, 0]
    np.add.at(g.embedding, ids.T[valid], dx[valid])

    return breakdown, g


def total_loss(
    params: VaeParams, ids, lengths, noise: np.ndarray | None = None, beta: float = 1.0
) -> LossBreakdown:
    """Forward-only loss of a padded batch; z = mu without ``noise``, as scoring runs it."""
    h, _ = encoder_forward(params, ids, lengths)
    mu, logvar, z = latent(params, h, noise)
    logits, _ = decoder_forward(params, z, ids, lengths)
    return elbo_loss(_log_softmax_(logits), ids, lengths, mu, logvar, beta)


def reconstruction_loss(params: VaeParams, sequences: Sequence[Sequence[int]]) -> np.ndarray:
    """Deterministic anomaly scores: each record's mean per-token cross-entropy at z = mu.

    Returns one score per encoded record, in input order.  No sampling and
    no KL term, so repeated calls are bit-identical.  Records are grouped by
    length L and each group runs through :func:`total_loss` ``_SCORE_ROWS``
    rows at a time; a short group is filled with copies of its first row.
    A GEMM row's bits can depend on the operand shapes but not on the other
    rows' values, and every shape here is fixed by L alone, so a record's
    score depends only on its own ids: not on its neighbours, their number,
    or the order of the input.
    """
    scores = np.empty(len(sequences))
    groups: dict[int, list[int]] = defaultdict(list)
    for i, seq in enumerate(sequences):
        groups[len(seq)].append(i)
    for length, positions in groups.items():
        lengths = np.full(_SCORE_ROWS, length)
        for lo in range(0, len(positions), _SCORE_ROWS):
            rows = positions[lo : lo + _SCORE_ROWS]
            ids = np.empty((_SCORE_ROWS, length), dtype=np.int64)
            ids[: len(rows)] = [sequences[i] for i in rows]
            ids[len(rows) :] = ids[0]
            scores[rows] = total_loss(params, ids, lengths).seq_ce[: len(rows)]
    return scores


class _Adam:
    """Adam over the named tensors, deterministic given the gradient stream."""

    BETA1 = 0.9
    BETA2 = 0.999
    EPS = 1e-8

    def __init__(self, params: VaeParams, lr: float):
        self.lr = lr
        self.t = 0
        self.m = {name: np.zeros_like(p) for name, p in named_tensors(params)}
        self.v = {name: np.zeros_like(p) for name, p in named_tensors(params)}

    def update(self, params: VaeParams, grads: VaeParams, scale: float) -> None:
        """One step in place: for g = grad * scale,

        m = BETA1 * m + (1 - BETA1) * g;  v = BETA2 * v + (1 - BETA2) * g * g;
        p -= lr * (m / bc1) / (sqrt(v / bc2) + EPS),

        evaluated operation by operation in that order with ``out=`` ufuncs
        into two scratch buffers shared by all tensors.  The buffers live for
        one step only: kept between steps they would stay resident during
        the next forward and backward pass and raise peak memory.
        """
        self.t += 1
        bc1 = 1.0 - self.BETA1**self.t
        bc2 = 1.0 - self.BETA2**self.t
        grad_tensors = dict(named_tensors(grads))
        size = max(p.size for _, p in named_tensors(params))
        scratch = (np.empty(size), np.empty(size))
        for name, p in named_tensors(params):
            g, tmp = (buf[: p.size].reshape(p.shape) for buf in scratch)
            m = self.m[name]
            v = self.v[name]
            np.multiply(grad_tensors[name], scale, out=g)
            m *= self.BETA1
            np.multiply(g, 1.0 - self.BETA1, out=tmp)
            m += tmp
            v *= self.BETA2
            np.multiply(g, 1.0 - self.BETA2, out=tmp)
            tmp *= g
            v += tmp
            np.divide(m, bc1, out=g)
            g *= self.lr
            np.divide(v, bc2, out=tmp)
            np.sqrt(tmp, out=tmp)
            tmp += self.EPS
            g /= tmp
            p -= g


def kl_weight(step: int, anneal_steps: int) -> float:
    """Linear KL annealing from 0 to 1 over the first ``anneal_steps`` updates."""
    if anneal_steps <= 0:
        return 1.0
    return min(1.0, step / anneal_steps)


def train(
    sequences: Sequence[Sequence[int]],
    config: VaeConfig,
    vocab_size: int,
    seed: int,
    progress: Callable[[EpochStats], None] | None = None,
) -> tuple[VaeParams, list[EpochStats]]:
    """Train on encoded sequences; returns final parameters and the loss trace.

    The corpus is canonicalized by sorting before the ``seed``-driven shuffle,
    so the result depends on the seed but not on input file ordering.  Each
    optimizer batch goes through :func:`loss_and_grads` in sub-batches of at
    most ``_ACTIVATION_CAP`` (time step x hidden unit) activations, so peak
    memory does not grow with ``batch_size``.  Raises
    :class:`TrainingError` on an empty corpus or a non-finite loss.
    """
    if not sequences:
        raise TrainingError("training corpus is empty")
    canonical = sorted(tuple(int(i) for i in seq) for seq in sequences)
    for seq in canonical:
        if len(seq) < 2 or seq[0] != BOS or seq[-1] != EOS:
            raise TrainingError("sequences must be BOS ... EOS encoded")
        if max(seq) >= vocab_size:
            raise TrainingError("sequence id exceeds the vocabulary size")

    params = init_params(config, vocab_size, seed)
    optimizer = _Adam(params, config.learning_rate)
    rng = np.random.default_rng([seed, 1])
    grads = zeros_like_params(params)
    padded, lengths = pad_batch(canonical)
    sub_batch = max(1, _ACTIVATION_CAP // (padded.shape[1] * config.hidden_dim))

    trace: list[EpochStats] = []
    step = 0
    for epoch in range(config.epochs):
        started = time.perf_counter()
        order = rng.permutation(len(padded))
        sum_ce = sum_kl = sum_total = 0.0
        for lo in range(0, len(padded), config.batch_size):
            batch = order[lo : lo + config.batch_size]
            beta = kl_weight(step, config.kl_anneal_steps)
            for _, tensor in named_tensors(grads):
                tensor.fill(0.0)
            noise = rng.standard_normal((len(batch), config.latent_dim))
            for sub in range(0, len(batch), sub_batch):
                rows = batch[sub : sub + sub_batch]
                width = lengths[rows].max()
                breakdown, _ = loss_and_grads(
                    params, padded[rows, :width], lengths[rows],
                    noise[sub : sub + sub_batch], beta, grads=grads,
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
        n = len(padded)
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
