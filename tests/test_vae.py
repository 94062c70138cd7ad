"""VAE forward semantics, training contracts, and checkpoint round-trips."""

import json
import math
import re
import struct
import tracemalloc
from dataclasses import asdict, replace

import numpy as np
import pytest

from queryfilter import checkpoint
from queryfilter.checkpoint import (
    CheckpointError,
    load_checkpoint,
    save_checkpoint,
)
from queryfilter.vae import (
    TrainingError,
    VaeConfig,
    VaeParams,
    _Adam,
    _log_softmax_,
    decoder_forward,
    elbo_loss,
    encoder_forward,
    init_params,
    latent,
    loss_and_grads,
    named_tensors,
    pad_batch,
    reconstruction_loss,
    total_loss,
    train,
    zeros_like_params,
)
from queryfilter.vocab import BOS, EOS, SPECIAL_TOKENS, Vocabulary


def tiny_config(**overrides) -> VaeConfig:
    base = dict(
        vocab_size=9, embed_dim=4, hidden_dim=6, latent_dim=2, max_len=8,
        epochs=3, batch_size=2, learning_rate=1e-3, kl_anneal_steps=2000, seed=11,
    )
    base.update(overrides)
    return VaeConfig(**base)


def _tie_encoder_directions(params: VaeParams) -> None:
    for name in ("w", "u", "b"):
        getattr(params.enc_bwd, name)[...] = getattr(params.enc_fwd, name)


class TestEncoder:
    def test_zero_weights_give_zero_state(self):
        params = init_params(tiny_config())
        for _, tensor in named_tensors(params):
            tensor.fill(0.0)
        h, _ = encoder_forward(params, *pad_batch([[1, 4, 5, 2]]))
        assert np.array_equal(h, np.zeros_like(h))

    def test_single_token_is_twice_one_hand_computed_cell(self):
        # Hand-evaluate one GRU step elementwise from the gate equations;
        # with tied directions a single token gives h = 2 * step.
        cfg = tiny_config(vocab_size=5, embed_dim=2, hidden_dim=2, latent_dim=2)
        params = init_params(cfg)
        _tie_encoder_directions(params)
        token = 4
        x = params.embedding[token]
        w = params.enc_fwd
        step = []
        for j in range(2):
            c_row = 4 + j  # candidate rows follow the update and reset rows
            a_u = w.w[j, 0] * x[0] + w.w[j, 1] * x[1] + w.b[j]
            a_c = w.w[c_row, 0] * x[0] + w.w[c_row, 1] * x[1] + w.b[c_row]
            u = 1.0 / (1.0 + math.exp(-a_u))
            c = math.tanh(a_c)
            step.append((1.0 - u) * c)  # h_prev is zero
        h, _ = encoder_forward(params, *pad_batch([[token]]))
        assert np.allclose(h, 2.0 * np.array([step]), rtol=0, atol=1e-15)

    def test_tied_weights_make_h_reversal_invariant(self):
        params = init_params(tiny_config(seed=5))
        _tie_encoder_directions(params)
        ids = [1, 4, 5, 6, 7, 2]
        h_fwd, _ = encoder_forward(params, *pad_batch([ids]))
        h_rev, _ = encoder_forward(params, *pad_batch([ids[::-1]]))
        assert np.array_equal(h_fwd, h_rev)

    def test_out_of_range_id_rejected(self):
        params = init_params(tiny_config())
        with pytest.raises(ValueError, match="out of range"):
            encoder_forward(params, *pad_batch([[1, 99, 2]]))
        with pytest.raises(ValueError, match="non-empty"):
            encoder_forward(params, *pad_batch([[]]))


class TestLatent:
    def test_zero_noise_gives_mean(self):
        params = init_params(tiny_config())
        h = np.linspace(-1, 1, params.hidden_dim)[None]
        mu, logvar, z = latent(params, h, np.zeros((1, params.latent_dim)))
        assert np.array_equal(z, mu)

    def test_unit_logvar_zero(self):
        params = init_params(tiny_config())
        h = np.linspace(-1, 1, params.hidden_dim)[None]
        params.latent_b[params.latent_dim:] = 0.0
        params.latent_w[params.latent_dim:, :] = 0.0  # force logvar == 0
        mu, logvar, z = latent(params, h, np.ones((1, params.latent_dim)))
        assert np.array_equal(logvar, np.zeros_like(logvar))
        assert np.allclose(z, mu + 1.0, rtol=0, atol=0)

    def test_hand_case(self):
        # mu=(1,0), logvar=(0, ln 4), noise=(2,-1) -> z=(3,-2)
        params = init_params(tiny_config(latent_dim=2))
        params.latent_w[...] = 0.0
        params.latent_b[...] = [1.0, 0.0, 0.0, math.log(4.0)]
        mu, logvar, z = latent(params, np.zeros((1, params.hidden_dim)), np.array([[2.0, -1.0]]))
        assert np.allclose(mu, [[1.0, 0.0]])
        assert np.allclose(z, [[3.0, -2.0]])


class TestDecoderAndLoss:
    def test_softmax_rows_normalized(self):
        params = init_params(tiny_config(seed=2))
        logits, _ = decoder_forward(params, np.ones((1, params.latent_dim)), *pad_batch([[1, 4, 5, 2]]))
        probs = np.exp(logits - logits.max(axis=1, keepdims=True))
        probs /= probs.sum(axis=1, keepdims=True)
        assert np.all(np.abs(probs.sum(axis=1) - 1.0) < 1e-12)

    def test_zero_weights_give_uniform_ce(self):
        cfg = tiny_config(vocab_size=20)
        params = init_params(cfg)
        for _, tensor in named_tensors(params):
            tensor.fill(0.0)
        ids, lengths = pad_batch([[1, 4, 5, 6, 2]])
        logits, _ = decoder_forward(params, np.zeros((1, cfg.latent_dim)), ids, lengths)
        logp = _log_softmax_(logits)
        breakdown = elbo_loss(logp, ids, lengths, np.zeros((1, 2)), np.zeros((1, 2)))
        assert breakdown.ce == math.log(20.0)
        assert breakdown.kl == 0.0

    def test_deterministic_logits(self):
        params = init_params(tiny_config(seed=9))
        z = np.linspace(-0.5, 0.5, params.latent_dim)[None]
        a, _ = decoder_forward(params, z, *pad_batch([[1, 4, 2]]))
        b, _ = decoder_forward(params, z, *pad_batch([[1, 4, 2]]))
        assert np.array_equal(a, b)

    def test_targets_must_be_bos_eos_framed(self):
        params = init_params(tiny_config())
        with pytest.raises(ValueError, match="BOS"):
            decoder_forward(params, np.zeros((1, params.latent_dim)), *pad_batch([[4, 5, 6]]))

    def test_kl_zero_when_posterior_is_prior(self):
        bd = elbo_loss(np.zeros((1, 9)), *pad_batch([[1, 2]]), np.zeros((1, 3)), np.zeros((1, 3)))
        assert bd.kl == 0.0

    def test_kl_half_for_unit_mean(self):
        bd = elbo_loss(np.zeros((1, 9)), *pad_batch([[1, 2]]), np.array([[1.0]]), np.array([[0.0]]))
        assert abs(bd.kl - 0.5) < 1e-15

    def test_one_hot_logits_drive_ce_to_zero(self):
        ids, lengths = pad_batch([[1, 4, 2]])
        logits = np.full((2, 9), -1000.0)
        logits[0, 4] = 1000.0
        logits[1, 2] = 1000.0
        bd = elbo_loss(_log_softmax_(logits), ids, lengths, np.zeros((1, 2)), np.zeros((1, 2)))
        assert bd.ce < 1e-12

    def test_total_combines_with_beta(self):
        ids, lengths = pad_batch([[1, 4, 2]])
        logits = np.zeros((2, 9))
        mu, logvar = np.array([[1.0]]), np.array([[0.0]])
        bd = elbo_loss(logits, ids, lengths, mu, logvar, beta=0.25)
        assert bd.total == bd.ce + 0.25 * bd.kl
        bd1 = elbo_loss(logits, ids, lengths, mu, logvar)
        assert bd1.total == bd1.ce + bd1.kl


class TestBatching:
    def test_batch_gradient_is_sum_of_single_sequence_gradients(self):
        params = init_params(tiny_config(vocab_size=20, seed=6))
        seqs = [[1, 5, 9, 4, 17, 2], [1, 7, 12, 2], [1, 3, 2], [1, 8, 8, 8, 8, 8, 6, 2]]
        noise = np.random.default_rng(0).standard_normal((len(seqs), params.latent_dim))
        batched, grads = loss_and_grads(params, *pad_batch(seqs), noise, 0.7)
        summed = zeros_like_params(params)
        total = 0.0
        for seq, row in zip(seqs, noise):
            single, _ = loss_and_grads(params, *pad_batch([seq]), row[None], 0.7, grads=summed)
            total += single.total
        assert abs(batched.total - total) <= 1e-12 * abs(total)
        for (name, a), (_, b) in zip(named_tensors(grads), named_tensors(summed)):
            assert np.max(np.abs(a - b)) <= 1e-12 * np.max(np.abs(b)), name


class TestAdam:
    def test_step_is_bit_identical_to_the_reference_formula(self):
        params = init_params(tiny_config(seed=2))
        grads = init_params(tiny_config(seed=3))  # any tensors of the right shapes
        expected = {name: t.copy() for name, t in named_tensors(params)}
        m = {name: np.zeros_like(t) for name, t in expected.items()}
        v = {name: np.zeros_like(t) for name, t in expected.items()}
        lr, beta1, beta2, eps, scale = 1e-2, 0.9, 0.999, 1e-8, 0.25
        optimizer = _Adam(params, lr)
        for t in (1, 2):
            optimizer.update(params, grads, scale)
            bc1 = 1.0 - beta1**t
            bc2 = 1.0 - beta2**t
            for name, grad in named_tensors(grads):
                g = grad * scale
                m[name] = beta1 * m[name] + (1.0 - beta1) * g
                v[name] = beta2 * v[name] + (1.0 - beta2) * g * g
                expected[name] -= lr * (m[name] / bc1) / (np.sqrt(v[name] / bc2) + eps)
        for name, tensor in named_tensors(params):
            assert np.array_equal(tensor, expected[name]), name


class TestTrain:
    def test_overfits_repeated_sentence(self):
        cfg = VaeConfig(
            vocab_size=9, embed_dim=8, hidden_dim=12, latent_dim=3, max_len=8,
            epochs=200, batch_size=4, learning_rate=5e-3, kl_anneal_steps=2000, seed=3,
        )
        params, trace = train([[1, 4, 5, 6, 7, 2]] * 4, cfg)
        assert trace[-1].mean_ce < 0.1
        assert trace[-1].mean_total < trace[0].mean_total
        assert len(trace) == cfg.epochs

    def test_seed_reproducibility(self):
        corpus = [[1, 4, 5, 2], [1, 6, 7, 8, 2], [1, 5, 5, 4, 2], [1, 8, 2]]
        p1, t1 = train(corpus, tiny_config())
        p2, t2 = train(corpus, tiny_config())
        for (name, a), (_, b) in zip(named_tensors(p1), named_tensors(p2)):
            assert np.array_equal(a, b), name
        losses = lambda trace: [(s.mean_ce, s.mean_kl, s.mean_total) for s in trace]
        assert losses(t1) == losses(t2)

    def test_input_order_does_not_matter(self):
        corpus = [[1, 4, 5, 2], [1, 6, 7, 8, 2], [1, 5, 5, 4, 2], [1, 8, 2]]
        p1, _ = train(corpus, tiny_config())
        p2, _ = train(list(reversed(corpus)), tiny_config())
        for (name, a), (_, b) in zip(named_tensors(p1), named_tensors(p2)):
            assert np.array_equal(a, b), name

    def test_empty_corpus_rejected(self):
        with pytest.raises(TrainingError, match="empty"):
            train([], tiny_config())

    def test_unframed_sequence_rejected(self):
        with pytest.raises(TrainingError, match="BOS"):
            train([[4, 5, 6]], tiny_config())

    def test_divergence_aborts_with_step(self):
        cfg = tiny_config(learning_rate=1e14, epochs=5)
        corpus = [[1, 4, 5, 2], [1, 6, 7, 8, 2], [1, 5, 5, 4, 2], [1, 8, 2]]
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(TrainingError, match="step"):
                train(corpus, cfg)


@pytest.fixture(scope="module")
def small_trained_model():
    """A model overfit to 100 two-slot template sentences."""
    rng = np.random.default_rng(17)
    nouns = list(range(4, 14))
    verbs = list(range(14, 19))
    sentences = []
    for _ in range(100):
        sentences.append(
            [BOS, int(rng.choice(verbs)), int(rng.choice(nouns)), 19, int(rng.choice(nouns)), EOS]
        )
    cfg = VaeConfig(
        vocab_size=20, embed_dim=12, hidden_dim=24, latent_dim=6, max_len=10,
        epochs=25, batch_size=16, learning_rate=3e-3, kl_anneal_steps=500, seed=1,
    )
    params, trace = train(sentences, cfg)
    return params, sentences, trace


class TestReconstructionLoss:
    def test_non_negative_and_deterministic(self):
        params = init_params(tiny_config(seed=4))
        ids = [1, 4, 5, 2]
        (a,) = reconstruction_loss(params, [ids])
        (b,) = reconstruction_loss(params, [ids])
        assert a >= 0.0
        assert a == b

    def test_training_sentences_beat_shuffles(self, small_trained_model):
        params, sentences, _ = small_trained_model
        rng = np.random.default_rng(23)
        wins = 0
        trials = 0
        for seq in sentences[:60]:
            body = seq[1:-1]
            shuffled = body[:]
            rng.shuffle(shuffled)
            if shuffled == body:
                continue
            trials += 1
            original, permuted = reconstruction_loss(params, [seq, [BOS] + shuffled + [EOS]])
            if original < permuted:
                wins += 1
        assert trials >= 40
        assert wins / trials >= 0.95

    def test_loss_trace_decreases(self, small_trained_model):
        _, _, trace = small_trained_model
        assert trace[-1].mean_total < trace[0].mean_total


def _random_records(rng, lengths, vocab_size):
    return [[BOS] + rng.integers(4, vocab_size, size=n - 2).tolist() + [EOS] for n in lengths]


class TestBatchedScoring:
    """A record's score depends on its own ids only, never on the rest of the input."""

    VOCAB = 101  # odd, so rows of the (tokens x V) log-softmax start at every alignment

    @pytest.fixture(scope="class")
    def params(self):
        params = init_params(VaeConfig(vocab_size=self.VOCAB, embed_dim=16, hidden_dim=32,
                                       latent_dim=4, max_len=20, seed=8))
        rng = np.random.default_rng(8)
        for _, tensor in named_tensors(params):
            tensor[...] = rng.uniform(-0.5, 0.5, size=tensor.shape)
        return params

    def test_alone_equals_in_a_shuffled_input(self, params):
        rng = np.random.default_rng(1)
        records = _random_records(rng, [5] * 20 + [3, 8, 12] * 4, self.VOCAB)
        scores = reconstruction_loss(params, records)
        for record, score in zip(records, scores):
            assert reconstruction_loss(params, [record])[0] == score
        for _ in range(3):
            order = rng.permutation(len(records))
            shuffled = reconstruction_loss(params, [records[i] for i in order])
            assert np.array_equal(shuffled, scores[order])

    def test_every_position_and_any_neighbours(self, params):
        rng = np.random.default_rng(2)
        record = _random_records(rng, [6], self.VOCAB)[0]
        (alone,) = reconstruction_loss(params, [record])
        others = _random_records(rng, [6, 4, 6, 9, 6, 6, 4], self.VOCAB)
        for at in range(len(others) + 1):
            assert reconstruction_loss(params, others[:at] + [record] + others[at:])[at] == alone
        for n in (1, 15, 16, 40):  # a partial group, a full one and more than two
            neighbours = _random_records(rng, [6] * n, self.VOCAB)
            at = int(rng.integers(0, n + 1))
            scores = reconstruction_loss(params, neighbours[:at] + [record] + neighbours[at:])
            assert scores[at] == alone

    def test_mixed_lengths_come_back_in_input_order(self, params):
        rng = np.random.default_rng(3)
        records = _random_records(rng, [7, 3, 12, 3, 7, 5, 20, 3, 9], self.VOCAB)
        scores = reconstruction_loss(params, records)
        noise = np.zeros((1, params.latent_dim))
        expected = [total_loss(params, *pad_batch([r]), noise).ce for r in records]
        assert np.allclose(scores, expected, rtol=1e-12, atol=0.0)

    def test_empty_input_gives_empty_array(self, params):
        scores = reconstruction_loss(params, [])
        assert isinstance(scores, np.ndarray) and scores.shape == (0,)


class TestConfig:
    """A VaeConfig checks its fields when built, whether by its constructor or by replace."""

    BUILDERS = {"constructor": lambda **fields: tiny_config(**fields),
                "replace": lambda **fields: replace(tiny_config(), **fields)}

    @pytest.mark.parametrize("build", BUILDERS)
    @pytest.mark.parametrize("key, value, message", [
        ("vocab_size", 0, "vocab_size must be >= 1"),
        ("embed_dim", 0, "embed_dim must be >= 1"),
        ("hidden_dim", -1, "hidden_dim must be >= 1"),
        ("latent_dim", 0, "latent_dim must be >= 1"),
        ("max_len", 2, "max_len must be >= 3"),
        ("epochs", 0, "epochs must be >= 1"),
        ("batch_size", 0, "batch_size must be >= 1"),
        ("learning_rate", 0.0, "learning_rate must be a finite positive number"),
        ("learning_rate", -1e-3, "learning_rate must be a finite positive number"),
        ("learning_rate", math.nan, "learning_rate must be a finite positive number"),
        ("learning_rate", math.inf, "learning_rate must be a finite positive number"),
        ("kl_anneal_steps", -1, "kl_anneal_steps must be >= 0"),
        ("seed", -1, "seed must be >= 0"),
    ])
    def test_out_of_range_value_raises_value_error(self, build, key, value, message):
        with pytest.raises(ValueError) as raised:
            self.BUILDERS[build](**{key: value})
        assert str(raised.value) == message

    @pytest.mark.parametrize("build", BUILDERS)
    @pytest.mark.parametrize("key, value, expected", [
        ("vocab_size", 9.0, "int"), ("embed_dim", "4", "int"), ("hidden_dim", True, "int"),
        ("latent_dim", None, "int"), ("max_len", np.int64(8), "int"), ("epochs", 3.5, "int"),
        ("batch_size", [2], "int"), ("learning_rate", "0.1", "float"),
        ("learning_rate", np.float64(0.1), "float"), ("learning_rate", False, "float"),
        ("kl_anneal_steps", 2000.0, "int"), ("seed", "11", "int"),
    ])
    def test_wrongly_typed_value_raises_type_error(self, build, key, value, expected):
        with pytest.raises(TypeError) as raised:
            self.BUILDERS[build](**{key: value})
        assert str(raised.value) == f"config field '{key}' must be {expected}"

    def test_the_bounds_themselves_are_accepted(self):
        cfg = tiny_config(vocab_size=1, embed_dim=1, hidden_dim=1, latent_dim=1, max_len=3,
                          epochs=1, batch_size=1, learning_rate=1, kl_anneal_steps=0, seed=0)
        assert replace(cfg, learning_rate=5e-324).learning_rate == 5e-324


def vocab_of_size(size: int) -> Vocabulary:
    return Vocabulary(SPECIAL_TOKENS + tuple(f"w{i}" for i in range(size - len(SPECIAL_TOKENS))))


class TestCheckpoint:
    def _roundtrip_setup(self, tmp_path):
        cfg = tiny_config(seed=21)
        params = init_params(cfg)
        path = tmp_path / "model.ckpt"
        save_checkpoint(params, cfg, vocab_of_size(cfg.vocab_size), path)
        return params, cfg, path

    def test_bitwise_round_trip(self, tmp_path):
        params, cfg, path = self._roundtrip_setup(tmp_path)
        loaded, loaded_cfg, vocab = load_checkpoint(path)
        assert loaded_cfg == cfg
        assert vocab == vocab_of_size(cfg.vocab_size)
        for (name, a), (_, b) in zip(named_tensors(params), named_tensors(loaded)):
            assert np.array_equal(a, b), name

    def test_truncated_file_rejected(self, tmp_path):
        _, _, path = self._roundtrip_setup(tmp_path)
        blob = path.read_bytes()
        path.write_bytes(blob[: len(blob) - 100])
        with pytest.raises(CheckpointError, match="truncated"):
            load_checkpoint(path)

    def test_bad_magic_rejected(self, tmp_path):
        _, _, path = self._roundtrip_setup(tmp_path)
        blob = path.read_bytes()
        path.write_bytes(b"XXXX" + blob[4:])
        with pytest.raises(CheckpointError, match="magic"):
            load_checkpoint(path)

    def test_version_1_rejected(self, tmp_path):
        _, _, path = self._roundtrip_setup(tmp_path)
        blob = path.read_bytes()
        path.write_bytes(blob[:4] + struct.pack("<I", 1) + blob[8:])
        with pytest.raises(CheckpointError, match="unsupported checkpoint version 1"):
            load_checkpoint(path)

    def _rewrite_header(self, path, edit):
        blob = path.read_bytes()
        (header_len,) = struct.unpack("<I", blob[8:12])
        header = json.dumps(edit(json.loads(blob[12 : 12 + header_len]))).encode("utf-8")
        path.write_bytes(blob[:8] + struct.pack("<I", len(header)) + header
                         + blob[12 + header_len :])

    def test_version_2_file_rejected_with_a_request_to_retrain(self, tmp_path):
        # The version-2 header: the full config, and the hash of a separate vocab.txt.
        _, cfg, path = self._roundtrip_setup(tmp_path)
        self._rewrite_header(path, lambda h: {"config": asdict(cfg), "vocab_hash": "0" * 64,
                                              "tensors": h["tensors"]})
        blob = path.read_bytes()
        path.write_bytes(blob[:4] + struct.pack("<I", 2) + blob[8:])
        with pytest.raises(CheckpointError,
                           match=rf"^{re.escape(str(path))}: unsupported checkpoint version 2; "
                                 "retrain the model"):
            load_checkpoint(path)

    @pytest.mark.parametrize("dropped", [("config",), ("vocabulary",), ("tensors",),
                                         ("vocabulary", "config", "tensors")],
                             ids=["config", "vocabulary", "tensors", "all"])
    def test_header_without_field_rejected(self, tmp_path, dropped):
        _, _, path = self._roundtrip_setup(tmp_path)
        self._rewrite_header(path, lambda h: {k: v for k, v in h.items() if k not in dropped})
        with pytest.raises(CheckpointError, match=f"lacks '{dropped[0]}'"):
            load_checkpoint(path)

    # vocab_size is the vocabulary's length, so a header may not state it again.
    @pytest.mark.parametrize("key, value", [("dropout", 0.1), ("vocab_size", 9)])
    def test_unknown_config_key_rejected(self, tmp_path, key, value):
        _, _, path = self._roundtrip_setup(tmp_path)
        self._rewrite_header(path, lambda h: {**h, "config": {**h["config"], key: value}})
        with pytest.raises(CheckpointError, match=rf"^{re.escape(str(path))}: .*'{key}'"):
            load_checkpoint(path)

    @pytest.mark.parametrize("edit, message", [
        (lambda v: "<pad> <bos> <eos> <unk> w0", "must be a list of strings"),
        (lambda v: {token: i for i, token in enumerate(v)}, "must be a list of strings"),
        (lambda v: None, "must be a list of strings"),
        (lambda v: [*v[:-1], 7], "must be a list of strings"),
        (lambda v: [*v[:-1], ["w4"]], "must be a list of strings"),
        (lambda v: [*v[:-1], None], "must be a list of strings"),
        (lambda v: [], "must start with the reserved special tokens"),
        (lambda v: [*v[1:], v[0]], "must start with the reserved special tokens"),
        (lambda v: [v[1], v[0], *v[2:]], "must start with the reserved special tokens"),
        (lambda v: [*v[:-1], "<unk>"], 'tokens must be unique: "<unk>" at id 8 repeats id 3'),
        (lambda v: [*v[:-1], v[4]], 'tokens must be unique: "w0" at id 8 repeats id 4'),
    ], ids=["string", "object", "null", "int-token", "list-token", "null-token", "empty",
            "reserved-last", "reserved-swapped", "repeated-reserved", "repeated-token"])
    def test_malformed_vocabulary_rejected(self, tmp_path, edit, message):
        _, _, path = self._roundtrip_setup(tmp_path)
        self._rewrite_header(path, lambda h: {**h, "vocabulary": edit(h["vocabulary"])})
        with pytest.raises(CheckpointError, match=rf"^{re.escape(str(path))}: invalid checkpoint "
                                                  rf"header: vocabulary {re.escape(message)}$"):
            load_checkpoint(path)

    @pytest.mark.parametrize("corrupt", [lambda h: h.replace(b'"w0"', b'"w\xff"'),
                                         lambda h: h.replace(b'"w0"', b'"w0\'')],
                             ids=["token-not-utf8", "not-json"])
    def test_header_that_does_not_decode_rejected(self, tmp_path, corrupt):
        _, _, path = self._roundtrip_setup(tmp_path)
        blob = path.read_bytes()
        (header_len,) = struct.unpack("<I", blob[8:12])
        header = corrupt(blob[12 : 12 + header_len])
        assert len(header) == header_len
        path.write_bytes(blob[:12] + header + blob[12 + header_len :])
        with pytest.raises(CheckpointError,
                           match=rf"^{re.escape(str(path))}: corrupt checkpoint header$"):
            load_checkpoint(path)

    @pytest.mark.parametrize("edit", [lambda v: [*v, "extra"], lambda v: v[:-1]],
                             ids=["one-more", "one-fewer"])
    def test_token_count_unlike_the_tensors_rejected(self, tmp_path, edit):
        _, _, path = self._roundtrip_setup(tmp_path)
        self._rewrite_header(path, lambda h: {**h, "vocabulary": edit(h["vocabulary"])})
        with pytest.raises(CheckpointError, match=rf"^{re.escape(str(path))}: tensor manifest "
                                                  r"must be the \[name, shape\] pairs"):
            load_checkpoint(path)

    @pytest.mark.parametrize("tensors", [
        5, "enc_gru.w", {"enc_gru.w": [3, 4]}, [["embedding", [4, 4]], 7],
        [["embedding", [4, 4]], ["enc_gru.w"]], [["embedding", 16]],
    ], ids=["int", "string", "object", "non-list-entry", "short-pair", "int-shape"])
    def test_malformed_tensor_manifest_rejected(self, tmp_path, tensors):
        _, _, path = self._roundtrip_setup(tmp_path)
        self._rewrite_header(path, lambda h: {**h, "tensors": tensors})
        with pytest.raises(CheckpointError, match=r"\[name, shape\] pairs"):
            load_checkpoint(path)

    @pytest.mark.parametrize("key, value", [
        ("hidden_dim", "4"), ("hidden_dim", 4.0), ("epochs", True), ("learning_rate", "0.1"),
        ("seed", None),
    ])
    def test_wrongly_typed_config_value_rejected(self, tmp_path, key, value):
        _, _, path = self._roundtrip_setup(tmp_path)
        self._rewrite_header(path, lambda h: {**h, "config": {**h["config"], key: value}})
        with pytest.raises(CheckpointError, match=f"config field '{key}' must be"):
            load_checkpoint(path)

    def test_invalid_config_value_rejected(self, tmp_path):
        _, _, path = self._roundtrip_setup(tmp_path)
        self._rewrite_header(path, lambda h: {**h, "config": {**h["config"], "hidden_dim": 0}})
        with pytest.raises(CheckpointError, match="hidden_dim must be >= 1"):
            load_checkpoint(path)

    @pytest.mark.parametrize("edit", [
        lambda m: [["embeddings", m[0][1]], *m[1:]],
        lambda m: [["embedding", m[0][1][::-1]], *m[1:]],
        lambda m: [["embedding", [m[0][1][0] + 1, m[0][1][1]]], *m[1:]],
        lambda m: [*m, ["extra", [1]]],
        lambda m: m[:-1],
    ], ids=["wrong-name", "transposed-shape", "larger-shape", "extra-entry", "missing-entry"])
    def test_manifest_unlike_the_model_rejected(self, tmp_path, edit):
        _, _, path = self._roundtrip_setup(tmp_path)
        self._rewrite_header(path, lambda h: {**h, "tensors": edit(h["tensors"])})
        with pytest.raises(CheckpointError, match=rf"^{re.escape(str(path))}: .*tensor"):
            load_checkpoint(path)

    def test_trailing_bytes_rejected(self, tmp_path):
        _, _, path = self._roundtrip_setup(tmp_path)
        path.write_bytes(path.read_bytes() + bytes(8))
        with pytest.raises(CheckpointError, match="trailing bytes after tensor payload"):
            load_checkpoint(path)

    @pytest.mark.parametrize("kept", [lambda n: 0, lambda n: 1, lambda n: n // 2, lambda n: n - 1],
                             ids=["none", "one-byte", "half", "all-but-one-byte"])
    def test_truncation_inside_the_header_rejected(self, tmp_path, kept):
        _, _, path = self._roundtrip_setup(tmp_path)
        blob = path.read_bytes()
        (header_len,) = struct.unpack("<I", blob[8:12])
        path.write_bytes(blob[: 12 + kept(header_len)])
        with pytest.raises(CheckpointError, match="truncated checkpoint header"):
            load_checkpoint(path)

    def test_truncation_at_each_tensor_boundary_rejected(self, tmp_path):
        params, _, path = self._roundtrip_setup(tmp_path)
        blob = path.read_bytes()
        (header_len,) = struct.unpack("<I", blob[8:12])
        end = 12 + header_len
        for _, tensor in named_tensors(params):
            path.write_bytes(blob[:end])
            with pytest.raises(CheckpointError, match="truncated tensor payload"):
                load_checkpoint(path)
            end += tensor.nbytes
        assert end == len(blob)

    @pytest.mark.parametrize("key, value", [("embed_dim", 10**9), ("hidden_dim", 300_000)])
    def test_header_claiming_a_larger_model_than_the_file_holds_rejected(self, tmp_path, key,
                                                                        value):
        # Terabytes of float64: a load must refuse the header, not ask numpy for them.
        _, _, path = self._roundtrip_setup(tmp_path)
        self._rewrite_header(path, lambda h: {**h, "config": {**h["config"], key: value}})
        with pytest.raises(CheckpointError, match=rf"^{re.escape(str(path))}: "):
            load_checkpoint(path)

    def test_header_and_manifest_claiming_more_than_the_file_rejected_before_allocating(
            self, tmp_path, monkeypatch):
        _, cfg, path = self._roundtrip_setup(tmp_path)
        big = replace(cfg, embed_dim=1000)
        manifest = [[name, list(t.shape)] for name, t in named_tensors(init_params(big))]
        self._rewrite_header(path, lambda h: {**h, "config": {**h["config"], "embed_dim": 1000},
                                              "tensors": manifest})

        def no_allocation(config):
            raise AssertionError("load_checkpoint allocated the model")

        monkeypatch.setattr(checkpoint, "empty_params", no_allocation)
        with pytest.raises(CheckpointError, match="truncated tensor payload"):
            load_checkpoint(path)

    def test_loading_holds_about_one_copy_of_the_model(self, tmp_path):
        cfg = VaeConfig(vocab_size=2000, embed_dim=128, hidden_dim=256, latent_dim=64, seed=4)
        params = init_params(cfg)
        path = tmp_path / "model.ckpt"
        save_checkpoint(params, cfg, vocab_of_size(cfg.vocab_size), path)
        model_bytes = sum(t.nbytes for _, t in named_tensors(params))
        del params
        tracemalloc.start()
        try:
            load_checkpoint(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * model_bytes, f"{peak / model_bytes:.2f} x the model's bytes"

    def test_loading_draws_no_random_numbers_and_is_bit_identical(self, tmp_path, monkeypatch):
        # The model-default workload's dims; the weights differ from any seeded init.
        cfg = VaeConfig(vocab_size=2000, embed_dim=128, hidden_dim=256, latent_dim=64, seed=4)
        params = init_params(cfg)
        rng = np.random.default_rng(8)
        for _, tensor in named_tensors(params):
            tensor[...] = rng.standard_normal(tensor.shape)
        path = tmp_path / "model.ckpt"
        save_checkpoint(params, cfg, vocab_of_size(cfg.vocab_size), path)

        def no_rng(*args, **kwargs):
            raise AssertionError("load_checkpoint drew random numbers")

        monkeypatch.setattr(np.random, "default_rng", no_rng)
        loaded, loaded_cfg, _ = load_checkpoint(path)
        assert loaded_cfg == cfg
        for (name, a), (_, b) in zip(named_tensors(params), named_tensors(loaded)):
            assert a.shape == b.shape and a.tobytes() == b.tobytes(), name
            assert b.flags.writeable and b.flags.c_contiguous, name

    def test_integer_learning_rate_accepted(self, tmp_path):
        cfg = replace(tiny_config(seed=21), learning_rate=1)
        path = tmp_path / "model.ckpt"
        save_checkpoint(init_params(cfg), cfg, vocab_of_size(cfg.vocab_size), path)
        assert load_checkpoint(path)[1] == cfg
