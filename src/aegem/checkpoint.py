"""Named-tensor checkpoint container ("AEW1").

Layout, all little-endian: 4-byte magic "AEW1", then one record per
tensor: uint32 name length, utf-8 name bytes, uint32 rank, uint32 dims,
float64 payload in row-major order.  Records run to end of file.

The autoencoder's records are `enc{i}.weight` and `enc{i}.bias` for each
encoder layer (layer 0's weights on the k basis coordinates, (C, k, kh,
kw)), `dec.weight` and `basis`, the (L, k) spectral basis its encoder
reads through.  A file written before the basis was saved has none, and
one written before layer 0 trained on the basis holds its weights at
full band width; neither loads.  The GCN's are `w1` and `w2`.  The
loaders fetch each record through `take`, so a missing or misshapen one
fails naming the file and the record.
"""
from __future__ import annotations

import struct
from pathlib import Path

import numpy as np

MAGIC = b"AEW1"


def save_tensors(tensors: dict[str, np.ndarray], path) -> None:
    parts = [MAGIC]
    for name, arr in tensors.items():
        arr = np.asarray(arr, dtype=np.float64)
        raw = name.encode("utf-8")
        parts.append(struct.pack("<I", len(raw)))
        parts.append(raw)
        parts.append(struct.pack("<I", arr.ndim))
        parts.append(struct.pack(f"<{arr.ndim}I", *arr.shape))
        parts.append(np.ascontiguousarray(arr, dtype="<f8").tobytes())
    Path(path).write_bytes(b"".join(parts))


def load_tensors(path) -> dict[str, np.ndarray]:
    """Every record of the file; a record cut short fails naming the file."""
    raw = Path(path).read_bytes()
    if raw[:4] != MAGIC:
        raise ValueError(f"{path}: not an AEW1 checkpoint (magic {raw[:4]!r})")
    out: dict[str, np.ndarray] = {}
    pos = 4

    def take(n: int) -> bytes:
        nonlocal pos
        if pos + n > len(raw):
            raise ValueError(f"{path}: record {len(out)} needs {pos + n} bytes, "
                             f"the file has {len(raw)}")
        pos += n
        return raw[pos - n : pos]

    while pos < len(raw):
        (nlen,) = struct.unpack("<I", take(4))
        try:
            name = take(nlen).decode("utf-8")
        except UnicodeDecodeError:
            raise ValueError(f"{path}: record {len(out)} name is not UTF-8") from None
        (rank,) = struct.unpack("<I", take(4))
        dims = struct.unpack(f"<{rank}I", take(4 * rank))
        payload = take(8 * int(np.prod(dims)))
        out[name] = np.frombuffer(payload, dtype="<f8").reshape(dims).astype(np.float64)
    return out


def take(tensors: dict[str, np.ndarray], name: str, shape: tuple, path) -> np.ndarray:
    """tensors[name], which must exist and have `shape`; None there matches any size."""
    if name not in tensors:
        raise ValueError(f"{path}: no tensor {name!r} (the file holds "
                         f"{', '.join(tensors) or 'none'})")
    arr = tensors[name]
    if arr.ndim != len(shape) or any(s not in (None, d) for s, d in zip(shape, arr.shape)):
        want = "(" + ", ".join("*" if s is None else str(s) for s in shape) + ")"
        raise ValueError(f"{path}: tensor {name!r} has shape {arr.shape}, expected {want}")
    return arr
