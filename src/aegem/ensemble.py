"""Per-endmember ensemble decision between candidate abundance stacks.

For every channel the source (autoencoder or GCN) with the smaller RMSE
on the given pixels wins; ties go to the GCN.  Mixing winners can break
the per-pixel sum-to-one constraint, so the assembled stack is
renormalized by its channel sum.

The pipeline's `_ensemble` and `score_artifacts` pass every labeled
pixel, and `gcn.train_gcn` took gradients on 90 % of those, so the
`val_` figures are not held out from the GCN: the choice leans towards
it (ROADMAP item 3, choosing on pixels no model trained on).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass
class EnsembleSelection:
    """Outcome of the per-channel decision; `val_` RMSEs are over the given pixels."""

    final_stack: np.ndarray  # renormalized H x W x P
    sources: list[str]  # "ae" | "gcn" per channel
    val_rmse_ae: np.ndarray
    val_rmse_gcn: np.ndarray
    val_rmse_final: np.ndarray  # pre-renormalization, equals the per-channel min
    val_rmse_final_renorm: np.ndarray


def _subset_rmse(stack: np.ndarray, truth: np.ndarray, rows: np.ndarray,
                 cols: np.ndarray) -> np.ndarray:
    diff = stack[rows, cols] - truth[rows, cols]
    return np.sqrt(np.mean(diff**2, axis=0))


def ensemble_select(ae_stack: np.ndarray, gcn_stack: np.ndarray,
                    truth_abundances: np.ndarray,
                    label_idx: np.ndarray) -> EnsembleSelection:
    """Choose the better source per channel by its RMSE on the label_idx pixels.

    All stacks must already be in reference channel order; label_idx are
    flat pixel indices, every labeled pixel in the pipeline (see the
    module docstring).
    """
    if ae_stack.shape != gcn_stack.shape or ae_stack.shape != truth_abundances.shape:
        raise ValueError("stack shapes differ")
    if label_idx.size == 0:
        raise ValueError("validation subset is empty")
    h, w, p = ae_stack.shape
    rows, cols = np.divmod(np.asarray(label_idx, dtype=np.int64), w)
    rmse_ae = _subset_rmse(ae_stack, truth_abundances, rows, cols)
    rmse_gcn = _subset_rmse(gcn_stack, truth_abundances, rows, cols)
    sources = ["gcn" if rmse_gcn[j] <= rmse_ae[j] else "ae" for j in range(p)]
    mixed = np.stack(
        [gcn_stack[:, :, j] if s == "gcn" else ae_stack[:, :, j]
         for j, s in enumerate(sources)],
        axis=2,
    )
    rmse_final = np.minimum(rmse_ae, rmse_gcn)
    final = mixed / (mixed.sum(axis=2, keepdims=True) + 1e-12)
    rmse_renorm = _subset_rmse(final, truth_abundances, rows, cols)
    return EnsembleSelection(final, sources, rmse_ae, rmse_gcn, rmse_final, rmse_renorm)
