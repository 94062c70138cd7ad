"""Binary checkpoint format for trained models.

Layout: magic "QDVA", little-endian u32 version, u32 header length, a JSON
header (the [vae] config, the vocabulary's tokens in id order and its
max_len, the tensor manifest), then the raw tensor payload as little-endian
float64 in manifest order.  A checkpoint is the whole model, encoder
included.  Loading verifies the magic, version, sizes, vocabulary, tensor
layout and that every value is finite.
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
from .vae import VaeConfig, VaeParams, empty_params, named_tensors, param_shapes
from .vocab import Vocabulary

MAGIC = b"QDVA"
VERSION = 4  # 4 moved max_len beside the vocabulary and dropped the seed; 3 added the vocabulary


class CheckpointError(RuntimeError):
    """Unreadable, corrupt, or inconsistent checkpoint file."""


def save_checkpoint(params: VaeParams, config: VaeConfig, vocab: Vocabulary, path) -> None:
    tensors = named_tensors(params)
    header = {
        "config": asdict(config),
        "vocabulary": list(vocab.id_to_token),
        "max_len": vocab.max_len,
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
    straight into the arrays of :func:`empty_params`.  The header's vocabulary,
    its manifest against :func:`param_shapes` and the file's size are checked
    before the model is allocated.  Raises
    :class:`CheckpointError` naming ``path`` on a bad magic or another version
    (retrain an older file), a truncated file or trailing bytes, a header that
    is not UTF-8 JSON within the parser's digit and nesting limits, a header
    without its config, vocabulary, max_len or tensors, a vocabulary that is
    not a list of unique strings starting with the reserved tokens, an invalid
    max_len or config, a manifest other than the model's ``[name, shape]``
    pairs, a model too large to allocate, or a non-finite value.
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
        except (ValueError, RecursionError) as exc:  # also past the parser's digit or depth limits
            raise CheckpointError(f"{path}: corrupt checkpoint header") from exc
        try:
            tokens = header["vocabulary"]
            if not (isinstance(tokens, list) and all(isinstance(t, str) for t in tokens)):
                raise TypeError("vocabulary must be a list of strings")
            vocab = Vocabulary(tuple(tokens), header["max_len"])
            config = VaeConfig(**header["config"])
            manifest = header["tensors"]
        except KeyError as exc:
            raise CheckpointError(f"{path}: checkpoint header lacks {exc}") from exc
        except (TypeError, ValueError) as exc:  # Vocabulary and VaeConfig refuse bad values
            raise CheckpointError(f"{path}: invalid checkpoint header: {exc}") from exc
        shapes = param_shapes(config, vocab.size)
        if manifest != [[name, list(shape)] for name, shape in shapes]:
            raise CheckpointError(f"{path}: tensor manifest must be the [name, shape] pairs "
                                  f"of the config's model")
        declared = sum(8 * math.prod(shape) for _, shape in shapes)
        if 12 + header_len + declared > size:
            raise CheckpointError(f"{path}: truncated tensor payload of {declared} bytes")
        try:
            params = empty_params(config, vocab.size)
        except ValueError as exc:
            raise CheckpointError(f"{path}: {exc}") from None
        for name, tensor in named_tensors(params):
            if fh.readinto(tensor) != tensor.nbytes:
                raise CheckpointError(f"{path}: truncated tensor payload at {name}")
            if sys.byteorder == "big":  # the payload is little-endian
                tensor.byteswap(inplace=True)
            if not np.isfinite(tensor).all():
                raise CheckpointError(f"{path}: tensor {name} holds a NaN or infinite value")
        if fh.read(1):
            raise CheckpointError(f"{path}: trailing bytes after tensor payload")
    return params, config, vocab
