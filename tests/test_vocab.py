"""Tokenizer and vocabulary construction."""

import pytest
from hypothesis import given, strategies as st

from queryfilter.vocab import BOS, EOS, PAD, UNK, build_vocab, tokenize


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


class TestEncodeDecode:
    def _vocab(self):
        return build_vocab([["a", "b", "c"]], max_size=10, min_count=1)

    def test_bos_eos_wrapping(self):
        vocab = self._vocab()
        assert vocab.encode(["a"]) == [BOS, 4, EOS]

    def test_unknown_maps_to_unk(self):
        assert self._vocab().encode(["zz"]) == [BOS, UNK, EOS]

    def test_truncation(self):
        vocab = self._vocab()
        encoded = vocab.encode(["a"] * 50, max_len=10)
        assert len(encoded) == 10
        assert encoded[0] == BOS
        assert encoded[-1] == EOS

    def test_max_len_validation(self):
        with pytest.raises(ValueError):
            self._vocab().encode(["a"], max_len=2)

    @given(st.lists(st.sampled_from(["a", "b", "c"]), max_size=10))
    def test_encode_maps_in_vocab_tokens_to_their_ids(self, tokens):
        vocab = self._vocab()
        assert vocab.encode(tokens, max_len=20) == [BOS, *map(vocab.id_to_token.index, tokens), EOS]

    def test_encode_length_bounds(self):
        vocab = self._vocab()
        for tokens in (["a"], ["a", "b"], ["a"] * 100):
            encoded = vocab.encode(tokens, max_len=12)
            assert 3 <= len(encoded) <= 12
            assert encoded[0] == BOS and encoded[-1] == EOS
        # empty comments still encode (scoring stays total over rule output)
        assert vocab.encode([], max_len=12) == [BOS, EOS]


class TestPersistence:
    def test_line_number_equals_id(self, tmp_path):
        vocab = build_vocab([["alpha", "beta"]], max_size=10, min_count=1)
        path = tmp_path / "vocab.txt"
        vocab.save(path)
        lines = path.read_text(encoding="utf-8").splitlines()
        assert len(lines) == vocab.size
        assert lines[vocab.id_of("beta")] == "beta"
        assert lines[PAD] == "<pad>"
