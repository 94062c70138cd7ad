"""Tokenizer and vocabulary construction."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from queryfilter.vocab import (BOS, EOS, PAD, SPECIAL_TOKENS, UNK, Vocabulary, build_vocab,
                               check_vocab_limits, tokenize)


class TestTokenize:
    def test_lowercase_split(self):
        assert tokenize("Convert String to int") == ["convert", "string", "to", "int"]

    def test_empty(self):
        assert tokenize("") == []

    def test_non_alphanumeric_separators(self):
        assert tokenize("read-write I/O") == ["read", "write", "i", "o"]


class TestBuildVocab:
    def test_frequency_ranking(self):
        vocab = build_vocab([["a", "b"], ["a"]], max_size=10, min_count=1)
        assert vocab.size == 6
        assert vocab.id_of("a") == 4
        assert vocab.id_of("b") == 5

    def test_empty_corpus_gives_specials_only(self):
        assert build_vocab([], max_size=10, min_count=1).size == 4

    def test_lexicographic_tie_break(self):
        vocab = build_vocab([["y", "x"], ["x", "y"]], max_size=10, min_count=1)
        assert vocab.id_of("x") < vocab.id_of("y")

    def test_min_count_excludes_rare_tokens(self):
        vocab = build_vocab([["a", "a"], ["b"]], max_size=10, min_count=2)
        assert vocab.id_of("a") == 4
        assert vocab.id_of("b") == UNK

    def test_max_size_cap(self):
        corpus = [[f"t{i}"] * (50 - i) for i in range(50)]
        vocab = build_vocab(corpus, max_size=10, min_count=1)
        assert vocab.size == 10

    def test_deterministic(self):
        corpus = [["m", "n", "m"], ["n", "o"]]
        a = build_vocab(corpus, max_size=8, min_count=1)
        b = build_vocab(corpus, max_size=8, min_count=1)
        assert a.id_to_token == b.id_to_token

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            build_vocab([], max_size=4, min_count=1)
        with pytest.raises(ValueError):
            build_vocab([], max_size=10, min_count=0)
        with pytest.raises(ValueError, match="^max_len must be >= 3$"):
            build_vocab([], max_size=10, min_count=1, max_len=2)

    def test_the_vocabulary_carries_max_len(self):
        assert build_vocab([["a"]], 10, 1, 12).max_len == 12
        assert build_vocab([["a"]], 10, 1).max_len == 20

    @pytest.mark.parametrize("max_size, min_count, max_len, message", [
        (4, 1, 20, "max_size must be at least 5"),
        (10, 0, 20, "min_count must be at least 1"),
        (10, 1, 2, "max_len must be >= 3"),
    ])
    def test_limits_checked_before_any_corpus(self, max_size, min_count, max_len, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            check_vocab_limits(max_size, min_count, max_len)


class TestVocabulary:
    """A Vocabulary checks its max_len when built, since it may come from a checkpoint."""

    @pytest.mark.parametrize("max_len", [2, 0, -5])
    def test_max_len_below_3_raises_value_error(self, max_len):
        with pytest.raises(ValueError, match="^max_len must be >= 3$"):
            Vocabulary(SPECIAL_TOKENS, max_len)

    @pytest.mark.parametrize("max_len", [True, 12.0, "12", None, np.int64(12)])
    def test_max_len_not_an_int_raises_type_error(self, max_len):
        with pytest.raises(TypeError, match="^max_len must be an int$"):
            Vocabulary(SPECIAL_TOKENS, max_len)

    def test_the_bound_itself_is_accepted(self):
        assert Vocabulary(SPECIAL_TOKENS, 3).encode(["a", "b"]) == [BOS, UNK, EOS]


class TestEncodeDecode:
    def _vocab(self, max_len=20):
        return build_vocab([["a", "b", "c"]], max_size=10, min_count=1, max_len=max_len)

    def test_bos_eos_wrapping(self):
        vocab = self._vocab()
        assert vocab.encode(["a"]) == [BOS, 4, EOS]

    def test_unknown_maps_to_unk(self):
        assert self._vocab().encode(["zz"]) == [BOS, UNK, EOS]

    def test_truncation(self):
        encoded = self._vocab(max_len=10).encode(["a"] * 50)
        assert len(encoded) == 10
        assert encoded[0] == BOS
        assert encoded[-1] == EOS

    @given(st.lists(st.sampled_from(["a", "b", "c"]), max_size=10))
    def test_encode_maps_in_vocab_tokens_to_their_ids(self, tokens):
        vocab = self._vocab()
        assert vocab.encode(tokens) == [BOS, *map(vocab.id_to_token.index, tokens), EOS]

    def test_encode_length_bounds(self):
        vocab = self._vocab(max_len=12)
        for tokens in (["a"], ["a", "b"], ["a"] * 100):
            encoded = vocab.encode(tokens)
            assert 3 <= len(encoded) <= 12
            assert encoded[0] == BOS and encoded[-1] == EOS
        # empty comments still encode (scoring stays total over rule output)
        assert vocab.encode([]) == [BOS, EOS]


class TestPersistence:
    def test_line_number_equals_id(self, tmp_path):
        vocab = build_vocab([["alpha", "beta"]], max_size=10, min_count=1)
        path = tmp_path / "vocab.txt"
        vocab.save(path)
        lines = path.read_text(encoding="utf-8").splitlines()
        assert len(lines) == vocab.size
        assert lines[vocab.id_of("beta")] == "beta"
        assert lines[PAD] == "<pad>"
