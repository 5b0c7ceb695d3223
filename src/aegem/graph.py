"""Elliptical neighborhood masks and the star-topology pixel graph.

Centroids on a regular grid each own an integer-grid ellipse of
neighbors; every (centroid, neighbor) pair becomes a directed edge
weighted by the spectral angle between the two pixel spectra.  Pixels
that no clipped ellipse reaches (image corners, for some axis choices)
are attached to their elliptically-nearest centroid so that every pixel
participates in the graph.

Also houses the general graph utilities: RBF adjacency, the graph
Laplacian, and its symmetric normalization.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .hsi import HsiCube, row_blocks, row_norms, write_table


@dataclass(frozen=True)
class EllipseKernel:
    """Integer offsets (dr, dc) with dr^2/a^2 + dc^2/b^2 <= 1."""

    a: int
    b: int
    offsets: tuple[tuple[int, int], ...]


def build_kernel(a: int, b: int) -> EllipseKernel:
    """Enumerate the integer-grid ellipse with semi-axes a (rows), b (cols)."""
    if a < 1 or b < 1:
        raise ValueError("semi-axes must be >= 1")
    offsets = [
        (dr, dc)
        for dr in range(-a, a + 1)
        for dc in range(-b, b + 1)
        if dr * dr / (a * a) + dc * dc / (b * b) <= 1.0
    ]
    return EllipseKernel(a, b, tuple(offsets))


def tile_centroids(height: int, width: int, kernel: EllipseKernel,
                   stride_r: int | None = None, stride_c: int | None = None) -> np.ndarray:
    """Centroid coordinates on a regular grid starting at (a, b).

    Default strides (a, b) make adjacent ellipses overlap.  On an axis
    shorter than the kernel the single centroid sits at the image middle.
    """
    stride_r = kernel.a if stride_r is None else stride_r
    stride_c = kernel.b if stride_c is None else stride_c
    if stride_r < 1 or stride_c < 1:
        raise ValueError("strides must be >= 1")
    rows = [height // 2] if height < 2 * kernel.a + 1 else list(range(kernel.a, height, stride_r))
    cols = [width // 2] if width < 2 * kernel.b + 1 else list(range(kernel.b, width, stride_c))
    return np.array([(r, c) for r in rows for c in cols], dtype=np.int64)


@dataclass(frozen=True)
class EllipticalGraph:
    """Star-topology graph: centroid senders, in-ellipse receivers."""

    height: int
    width: int
    senders: np.ndarray  # (n_centroids, 2) pixel coordinates
    edges: np.ndarray  # (n_edges, 2) flat (sender, receiver) pixel indices
    edge_weights: np.ndarray  # (n_edges,) spectral angles, from sad_adjacency

    @property
    def n_pixels(self) -> int:
        return self.height * self.width


def build_star_edges(height: int, width: int, kernel: EllipseKernel,
                     centroids: np.ndarray) -> np.ndarray:
    """Directed (sender, receiver) edges, sorted, covering every pixel.

    Receivers are the clipped-ellipse members around each centroid; any
    pixel left uncovered is attached to its nearest centroid under the
    elliptical norm (ties broken by centroid order).  The leftovers'
    distances to every centroid are taken in `row_blocks` of leftovers.
    """
    offsets = np.array([o for o in kernel.offsets if o != (0, 0)],
                       dtype=np.int64).reshape(-1, 2)
    recv = centroids[:, None, :] + offsets[None, :, :]
    inside = ((recv >= 0) & (recv < (height, width))).all(axis=2)
    send_flat = centroids[:, 0] * width + centroids[:, 1]
    senders = np.broadcast_to(send_flat[:, None], inside.shape)[inside]
    receivers = recv[inside, 0] * width + recv[inside, 1]
    covered = np.zeros(height * width, dtype=bool)
    covered[send_flat] = True
    covered[receivers] = True
    leftovers = np.nonzero(~covered)[0]
    nearest = np.empty(leftovers.size, dtype=np.int64)
    a2, b2 = float(kernel.a**2), float(kernel.b**2)
    for rows in row_blocks(leftovers.size, 8 * len(centroids)):  # float64 distance rows
        r, c = np.divmod(leftovers[rows, None], width)
        d = (centroids[:, 0] - r) ** 2 / a2 + (centroids[:, 1] - c) ** 2 / b2
        nearest[rows] = np.argmin(d, axis=1)  # first minimum wins ties
    senders = np.concatenate([senders, send_flat[nearest]])
    receivers = np.concatenate([receivers, leftovers])
    order = np.lexsort((receivers, senders))
    return np.column_stack([senders[order], receivers[order]])


def sad_adjacency(cube: HsiCube, edges: np.ndarray) -> np.ndarray:
    """Per-edge spectral angles between sender and receiver spectra.

    The angle is taken in its half-angle form, 2 atan2(|a - b|, |a + b|)
    for unit spectra a and b: exact 0 for identical spectra.  Each edge's
    angle depends on its own two spectra only, so `row_blocks` of edges
    bound the (edges x bands) temporaries.
    """
    spectra = cube.spectra()
    norms = row_norms(spectra)
    zero = np.nonzero(norms == 0.0)[0]
    if zero.size:
        r, c = divmod(int(zero[0]), cube.width)
        raise ValueError(f"pixel ({r},{c}) has a zero spectrum; spectral angle undefined")
    s, r = edges[:, 0], edges[:, 1]
    weights = np.empty(len(s))
    for block in row_blocks(len(s), 8 * spectra.shape[1]):  # float64 (edges x bands)
        sb, rb = s[block], r[block]
        a = spectra[sb] / norms[sb, None]
        b = spectra[rb] / norms[rb, None]
        weights[block] = 2.0 * np.arctan2(np.linalg.norm(a - b, axis=1),
                                          np.linalg.norm(a + b, axis=1))
    return weights


def build_graph(cube: HsiCube, a: int = 3, b: int = 5,
                stride_r: int | None = None, stride_c: int | None = None) -> EllipticalGraph:
    """Kernel, centroid tiling, star edges, and SAD weights in one call."""
    kernel = build_kernel(a, b)
    centroids = tile_centroids(cube.height, cube.width, kernel, stride_r, stride_c)
    edges = build_star_edges(cube.height, cube.width, kernel, centroids)
    return EllipticalGraph(cube.height, cube.width, centroids, edges,
                           sad_adjacency(cube, edges))


# -- general graph utilities ---------------------------------------------------

def rbf_adjacency(vectors: np.ndarray, sigma: float) -> np.ndarray:
    """Dense RBF adjacency exp(-||x_i - x_j|| / sigma^2), unsquared distance."""
    if sigma <= 0:
        raise ValueError("sigma must be positive")
    v = np.asarray(vectors, dtype=np.float64)
    d = np.linalg.norm(v[:, None, :] - v[None, :, :], axis=2)
    return np.exp(-d / sigma**2)


def laplacian(adjacency: np.ndarray) -> np.ndarray:
    """Graph Laplacian D - A; rows sum to zero."""
    a = np.asarray(adjacency, dtype=np.float64)
    return np.diag(a.sum(axis=1)) - a


def normalized_laplacian(adjacency: np.ndarray) -> np.ndarray:
    """Symmetric normalized Laplacian I - D^{-1/2} A D^{-1/2}.

    Zero-degree nodes use the pseudo-inverse convention: their row and
    column of D^{-1/2} are zero, leaving a bare 1 on the diagonal.
    """
    a = np.asarray(adjacency, dtype=np.float64)
    deg = a.sum(axis=1)
    inv_sqrt = np.zeros_like(deg)
    pos = deg > 0
    inv_sqrt[pos] = 1.0 / np.sqrt(deg[pos])
    return np.eye(a.shape[0]) - inv_sqrt[:, None] * a * inv_sqrt[None, :]


# -- serialization -------------------------------------------------------------

def write_graph_csv(graph: EllipticalGraph, path) -> None:
    """Edge list CSV: sender_row,sender_col,recv_row,recv_col,sad."""
    s, r = graph.edges[:, 0], graph.edges[:, 1]
    write_table(path, ["sender_row", "sender_col", "recv_row", "recv_col", "sad"],
                np.column_stack([*np.divmod(s, graph.width), *np.divmod(r, graph.width)]),
                graph.edge_weights[:, None])

