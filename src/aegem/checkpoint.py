"""Named-tensor checkpoint writer ("AEW1").

Layout, all little-endian: 4-byte magic "AEW1", then one record per
tensor: uint32 name length, utf-8 name bytes, uint32 rank, uint32 dims,
float64 payload in row-major order.  Records run to end of file.

The autoencoder's records are `enc{i}.weight` and `enc{i}.bias` for each
encoder layer (layer 0's weights on the k basis coordinates, (C, k, kh,
kw)), `dec.weight` and `basis`, the (L, k) spectral basis its encoder
reads through.  The GCN's are `w1` and `w2`.

A run writes both checkpoints and reads neither back, as it writes the
`maps/*.pgm` images and reads none: the layout above is for outside
readers.  A run that resumes from a checkpoint would bring its loader
with the code that calls it.
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

