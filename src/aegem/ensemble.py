"""Per-endmember ensemble decision between candidate abundance stacks.

For every channel the source (autoencoder or GCN) with the smaller RMSE
on the given pixels wins; ties go to the GCN.  Each RMSE is
`metrics.channel_rmse` over those pixels, the function that scores the
full maps in `score_artifacts`.  Mixing winners can break the per-pixel
sum-to-one constraint, so the assembled stack is renormalized by its
channel sum.

The pipeline's `_ensemble` and `score_artifacts` pass every labeled
pixel, and `gcn.train_gcn` took gradients on 90 % of those, so the
`val_` figures are not held out from the GCN: the choice leans towards
it (ROADMAP item 3, choosing on pixels no model trained on).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .metrics import channel_rmse


@dataclass
class EnsembleSelection:
    """Outcome of the per-channel decision; `val_` RMSEs are over the given pixels."""

    final_stack: np.ndarray  # renormalized H x W x P
    sources: list[str]  # "ae" | "gcn" per channel
    val_rmse_ae: np.ndarray
    val_rmse_gcn: np.ndarray
    val_rmse_final: np.ndarray  # pre-renormalization, equals the per-channel min
    val_rmse_final_renorm: np.ndarray


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
    rmse_ae = channel_rmse(ae_stack, truth_abundances, label_idx)
    rmse_gcn = channel_rmse(gcn_stack, truth_abundances, label_idx)
    sources = ["gcn" if g <= a else "ae" for a, g in zip(rmse_ae, rmse_gcn)]
    mixed = np.stack(
        [gcn_stack[:, :, j] if s == "gcn" else ae_stack[:, :, j]
         for j, s in enumerate(sources)],
        axis=2,
    )
    rmse_final = np.minimum(rmse_ae, rmse_gcn)
    final = mixed / (mixed.sum(axis=2, keepdims=True) + 1e-12)
    rmse_renorm = channel_rmse(final, truth_abundances, label_idx)
    return EnsembleSelection(final, sources, rmse_ae, rmse_gcn, rmse_final, rmse_renorm)
