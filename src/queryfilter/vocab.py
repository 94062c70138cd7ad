"""Tokenization and the vocabulary: the one encoder that training and scoring share.

A :class:`Vocabulary` carries ``max_len``, so scoring from a checkpoint encodes as training did.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Iterable, Sequence

from .atomic import atomic_open

PAD, BOS, EOS, UNK = 0, 1, 2, 3
SPECIAL_TOKENS = ("<pad>", "<bos>", "<eos>", "<unk>")

_TOKEN_RE = re.compile(r"[a-z0-9]+")


def tokenize(text: str) -> list[str]:
    """Lowercase and split on non-alphanumeric characters, dropping empties."""
    return _TOKEN_RE.findall(text.lower())


@dataclass(frozen=True)
class Vocabulary:
    """Token/id bijection with the four reserved ids in front; ``encode`` keeps ``max_len`` ids."""

    id_to_token: tuple[str, ...]
    max_len: int = 20

    def __post_init__(self):  # both fields may come from a checkpoint header
        if type(self.max_len) is not int:  # a bool is not an int here
            raise TypeError("max_len must be an int")
        if self.max_len < 3:
            raise ValueError("max_len must be >= 3")
        if self.id_to_token[: len(SPECIAL_TOKENS)] != SPECIAL_TOKENS:
            raise ValueError("vocabulary must start with the reserved special tokens")
        token_to_id: dict[str, int] = {}
        for i, token in enumerate(self.id_to_token):
            first = token_to_id.setdefault(token, i)
            if first != i:
                raise ValueError(f'vocabulary tokens must be unique: "{token}" at id {i} '
                                 f"repeats id {first}")
        object.__setattr__(self, "_token_to_id", token_to_id)

    @property
    def size(self) -> int:
        return len(self.id_to_token)

    def id_of(self, token: str) -> int:
        return self._token_to_id.get(token, UNK)

    def encode(self, tokens: Sequence[str]) -> list[int]:
        """Wrap token ids with BOS/EOS, truncating to ``max_len`` total ids.

        Unknown tokens map to UNK; no padding is applied.
        """
        body = [self.id_of(t) for t in tokens[: self.max_len - 2]]
        return [BOS] + body + [EOS]

    def save(self, path) -> None:
        """Write one token per line, line i + 1 holding id i: a listing for people.

        The checkpoint holds the vocabulary that scoring reads.
        """
        with atomic_open(path) as fh:
            fh.write("\n".join(self.id_to_token) + "\n")


def check_vocab_limits(max_size: int, min_count: int, max_len: int) -> None:
    """Raise ``ValueError`` on limits that :func:`build_vocab` refuses whatever the corpus."""
    if max_size < 5:
        raise ValueError("max_size must be at least 5")
    if min_count < 1:
        raise ValueError("min_count must be at least 1")
    Vocabulary(SPECIAL_TOKENS, max_len)  # checks max_len


def build_vocab(
    corpus: Iterable[Sequence[str]], max_size: int = 10_000, min_count: int = 2,
    max_len: int = 20,
) -> Vocabulary:
    """Build a vocabulary that encodes to at most ``max_len`` ids from token sequences.

    Tokens are ranked by descending frequency with lexicographic tie-breaks;
    tokens below ``min_count`` are dropped, then the top ``max_size - 4`` fill
    the ids after the specials.  Deterministic for a given corpus.
    """
    check_vocab_limits(max_size, min_count, max_len)
    counts: dict[str, int] = {}
    for tokens in corpus:
        for token in tokens:
            counts[token] = counts.get(token, 0) + 1
    ranked = sorted(
        (token for token, count in counts.items() if count >= min_count),
        key=lambda token: (-counts[token], token),
    )
    kept = ranked[: max_size - len(SPECIAL_TOKENS)]
    return Vocabulary(SPECIAL_TOKENS + tuple(kept), max_len)
