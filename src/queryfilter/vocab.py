"""Tokenization and vocabulary handling shared by training and scoring."""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Iterable, Sequence

from .atomic import atomic_open
from .corpus import iter_lines

PAD, BOS, EOS, UNK = 0, 1, 2, 3
SPECIAL_TOKENS = ("<pad>", "<bos>", "<eos>", "<unk>")

_TOKEN_RE = re.compile(r"[a-z0-9]+")


def tokenize(text: str) -> list[str]:
    """Lowercase and split on non-alphanumeric characters, dropping empties."""
    return _TOKEN_RE.findall(text.lower())


@dataclass(frozen=True)
class Vocabulary:
    """Token/id bijection with the four reserved ids in front."""

    id_to_token: tuple[str, ...]

    def __post_init__(self):
        if self.id_to_token[: len(SPECIAL_TOKENS)] != SPECIAL_TOKENS:
            raise ValueError("vocabulary must start with the reserved special tokens")
        token_to_id: dict[str, int] = {}
        for i, token in enumerate(self.id_to_token):
            first = token_to_id.setdefault(token, i)
            if first != i:  # ids count from 0, lines of the serialized form from 1
                raise ValueError(f'vocabulary tokens must be unique: "{token}" on line {i + 1} '
                                 f"repeats line {first + 1}")
        object.__setattr__(self, "_token_to_id", token_to_id)

    @property
    def size(self) -> int:
        return len(self.id_to_token)

    def id_of(self, token: str) -> int:
        return self._token_to_id.get(token, UNK)

    def encode(self, tokens: Sequence[str], max_len: int = 20) -> list[int]:
        """Wrap token ids with BOS/EOS, truncating to ``max_len`` total ids.

        Unknown tokens map to UNK; no padding is applied.
        """
        if max_len < 3:
            raise ValueError("max_len must be at least 3")
        body = [self.id_of(t) for t in tokens[: max_len - 2]]
        return [BOS] + body + [EOS]

    def serialize(self) -> str:
        return "\n".join(self.id_to_token) + "\n"

    def content_hash(self) -> str:
        """SHA-256 of the serialized vocabulary; binds checkpoints to vocabularies."""
        import hashlib  # loads OpenSSL (~3.6 MB), which only train and score need

        return hashlib.sha256(self.serialize().encode("utf-8")).hexdigest()

    def save(self, path) -> None:
        with atomic_open(path) as fh:
            fh.write(self.serialize())

    @classmethod
    def load(cls, path) -> "Vocabulary":
        """Read one token per line; a line that is not UTF-8 raises ``CorpusError`` naming it.

        A file that is not a vocabulary raises ``ValueError`` naming ``path``.
        """
        tokens = tuple(line.rstrip("\r\n") for _, line in iter_lines(path))
        try:
            return cls(tokens)
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from None


def check_vocab_limits(max_size: int, min_count: int) -> None:
    """Raise ``ValueError`` on limits that :func:`build_vocab` refuses whatever the corpus."""
    if max_size < 5:
        raise ValueError("max_size must be at least 5")
    if min_count < 1:
        raise ValueError("min_count must be at least 1")


def build_vocab(
    corpus: Iterable[Sequence[str]], max_size: int = 10_000, min_count: int = 2
) -> Vocabulary:
    """Build a vocabulary from token sequences.

    Tokens are ranked by descending frequency with lexicographic tie-breaks;
    tokens below ``min_count`` are dropped, then the top ``max_size - 4`` fill
    the ids after the specials.  Deterministic for a given corpus.
    """
    check_vocab_limits(max_size, min_count)
    counts: dict[str, int] = {}
    for tokens in corpus:
        for token in tokens:
            counts[token] = counts.get(token, 0) + 1
    ranked = sorted(
        (token for token, count in counts.items() if count >= min_count),
        key=lambda token: (-counts[token], token),
    )
    kept = ranked[: max_size - len(SPECIAL_TOKENS)]
    return Vocabulary(SPECIAL_TOKENS + tuple(kept))
