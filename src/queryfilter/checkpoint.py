"""Binary checkpoint format for trained models.

Layout: magic "QDVA", little-endian u32 version, u32 header length, a JSON
header (config, vocabulary tokens in id order, tensor manifest), then the raw
tensor payload as little-endian float64 in manifest order.  A checkpoint is
the whole model: the vocabulary sets ``vocab_size``, so the stored config
omits it.  Loading verifies the magic, version, sizes, vocabulary and tensor
layout.
"""

from __future__ import annotations

import json
import math
import os
import struct
import sys
from dataclasses import asdict

import numpy as np

from .atomic import atomic_open
from .vae import VaeConfig, VaeParams, empty_params, named_tensors
from .vocab import Vocabulary

MAGIC = b"QDVA"
VERSION = 3  # 3 added the vocabulary to the header; 2 stacked each GRU's (w, u, b)


class CheckpointError(RuntimeError):
    """Unreadable, corrupt, or inconsistent checkpoint file."""


def save_checkpoint(params: VaeParams, config: VaeConfig, vocab: Vocabulary, path) -> None:
    tensors = named_tensors(params)
    header = {
        "config": {k: v for k, v in asdict(config).items() if k != "vocab_size"},
        "vocabulary": list(vocab.id_to_token),
        "tensors": [[name, list(t.shape)] for name, t in tensors],
    }
    header_bytes = json.dumps(header, sort_keys=True).encode("utf-8")
    with atomic_open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<I", VERSION))
        fh.write(struct.pack("<I", len(header_bytes)))
        fh.write(header_bytes)
        for _, tensor in tensors:
            fh.write(np.ascontiguousarray(tensor, dtype="<f8").tobytes())


def load_checkpoint(path):
    """Read a checkpoint; returns (params, config, vocab).

    Reads the file once, front to back: head, JSON header, then each tensor
    straight into the arrays of :func:`empty_params`.  The header's vocabulary
    and sizes are checked before the model is allocated.  Raises
    :class:`CheckpointError` naming ``path`` on a bad magic or another version
    (a version-2 file predates the stored vocabulary: retrain), a truncated
    file or trailing bytes, a header without its config, vocabulary or
    tensors, a vocabulary that is not a list of unique strings starting with
    the reserved tokens, an invalid config, a manifest other than the model's
    ``[name, shape]`` pairs, or a model too large to allocate.
    """
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        head = fh.read(12)
        if len(head) < 12 or head[:4] != MAGIC:
            raise CheckpointError(f"{path}: not a model checkpoint (bad magic)")
        version, header_len = struct.unpack("<II", head[4:])
        if version != VERSION:
            raise CheckpointError(f"{path}: unsupported checkpoint version {version}; "
                                  f"retrain the model to write version {VERSION}")
        if 12 + header_len > size:
            raise CheckpointError(f"{path}: truncated checkpoint header")
        try:
            header = json.loads(fh.read(header_len).decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise CheckpointError(f"{path}: corrupt checkpoint header") from exc
        try:
            tokens = header["vocabulary"]
            if not (isinstance(tokens, list) and all(isinstance(t, str) for t in tokens)):
                raise TypeError("vocabulary must be a list of strings")
            vocab = Vocabulary(tuple(tokens))
            config = VaeConfig(vocab_size=vocab.size, **header["config"])
            manifest = header["tensors"]
        except KeyError as exc:
            raise CheckpointError(f"{path}: checkpoint header lacks {exc}") from exc
        except (TypeError, ValueError) as exc:  # Vocabulary and VaeConfig refuse bad values
            raise CheckpointError(f"{path}: invalid checkpoint header: {exc}") from exc
        layout = f"{path}: tensor manifest must be the [name, shape] pairs of the config's model"
        try:
            declared = sum(8 * math.prod(shape) for _, shape in manifest)
        except (TypeError, ValueError):
            raise CheckpointError(layout) from None
        if 12 + header_len + declared > size:
            raise CheckpointError(f"{path}: truncated tensor payload of {declared} bytes")
        try:
            params = empty_params(config)
        except (MemoryError, ValueError) as exc:  # ValueError: too large for numpy to index
            raise CheckpointError(f"{path}: cannot allocate the header's model: {exc}") from None
        tensors = named_tensors(params)
        if manifest != [[name, list(t.shape)] for name, t in tensors]:
            raise CheckpointError(layout)
        for name, tensor in tensors:
            if fh.readinto(tensor) != tensor.nbytes:
                raise CheckpointError(f"{path}: truncated tensor payload at {name}")
            if sys.byteorder == "big":  # the payload is little-endian
                tensor.byteswap(inplace=True)
        if fh.read(1):
            raise CheckpointError(f"{path}: trailing bytes after tensor payload")
    return params, config, vocab
