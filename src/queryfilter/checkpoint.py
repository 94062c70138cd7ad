"""Binary checkpoint format for trained models.

Layout: magic "QDVA", little-endian u32 version, u32 header length, a JSON
header (config, vocabulary hash, tensor manifest), then the raw tensor
payload as little-endian float64 in manifest order.  Loading verifies the
magic, version, payload size and, when a vocabulary hash is supplied, that
the checkpoint was trained against the same vocabulary.
"""

from __future__ import annotations

import json
import struct
from dataclasses import asdict

import numpy as np

from .atomic import atomic_open
from .vae import VaeConfig, VaeParams, empty_params, named_tensors

MAGIC = b"QDVA"
VERSION = 2  # each GRU is one stacked (w, u, b) triple, see vae.GruWeights


class CheckpointError(RuntimeError):
    """Unreadable, corrupt, or mismatched checkpoint file."""


def save_checkpoint(params: VaeParams, config: VaeConfig, vocab_hash: str, path) -> None:
    tensors = named_tensors(params)
    header = {
        "config": asdict(config),
        "vocab_hash": vocab_hash,
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


def load_checkpoint(path, expected_vocab_hash: str | None = None):
    """Read a checkpoint; returns (params, config).

    Raises :class:`CheckpointError` on a bad magic/version, a truncated file,
    a header without its config, vocabulary hash or tensors, a config with an
    unknown key or a wrongly typed or invalid value, a manifest that is not a
    list of ``[name, shape]`` pairs, or (when ``expected_vocab_hash`` is given)
    a model/vocabulary mismatch.
    """
    with open(path, "rb") as fh:
        blob = fh.read()
    if len(blob) < 12 or blob[:4] != MAGIC:
        raise CheckpointError(f"{path}: not a model checkpoint (bad magic)")
    (version,) = struct.unpack("<I", blob[4:8])
    if version != VERSION:
        raise CheckpointError(f"{path}: unsupported checkpoint version {version}")
    (header_len,) = struct.unpack("<I", blob[8:12])
    if len(blob) < 12 + header_len:
        raise CheckpointError(f"{path}: truncated checkpoint header")
    try:
        header = json.loads(blob[12 : 12 + header_len].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise CheckpointError(f"{path}: corrupt checkpoint header") from exc
    try:
        config = VaeConfig(**header["config"])
        stored_hash = header["vocab_hash"]
        manifest = header["tensors"]
    except KeyError as exc:
        raise CheckpointError(f"{path}: checkpoint header lacks {exc}") from exc
    except (TypeError, ValueError) as exc:  # VaeConfig refuses a wrong type or value
        raise CheckpointError(f"{path}: invalid checkpoint header: {exc}") from exc
    if not isinstance(manifest, list) or not all(
        isinstance(entry, list) and len(entry) == 2 and isinstance(entry[1], list)
        for entry in manifest
    ):
        raise CheckpointError(f"{path}: tensor manifest must be a list of [name, shape] pairs")
    if expected_vocab_hash is not None and stored_hash != expected_vocab_hash:
        raise CheckpointError(f"{path}: model/vocabulary mismatch")

    params = empty_params(config)
    current = {name: t for name, t in named_tensors(params)}
    expected_names = list(current.keys())
    if [name for name, _ in manifest] != expected_names:
        raise CheckpointError(f"{path}: tensor manifest does not match model layout")

    payload = memoryview(blob)
    offset = 12 + header_len
    for name, shape in manifest:
        tensor = current[name]
        if list(tensor.shape) != list(shape):
            raise CheckpointError(f"{path}: tensor {name} has unexpected shape {shape}")
        nbytes = tensor.size * 8
        chunk = payload[offset : offset + nbytes]
        if len(chunk) != nbytes:
            raise CheckpointError(f"{path}: truncated tensor payload at {name}")
        tensor[...] = np.frombuffer(chunk, dtype="<f8").reshape(tensor.shape)
        offset += nbytes
    if offset != len(blob):
        raise CheckpointError(f"{path}: trailing bytes after tensor payload")
    return params, config

