"""Evaluation metrics: spectral angle, abundance-map RMSE, channel matching.

Estimated endmembers come out of the autoencoder in arbitrary channel
order; :func:`match_endmembers` finds the spectral-angle-optimal bijection
to the reference signatures so maps and metrics compare like with like.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import permutations

import numpy as np

from .hsi import fmt9


def sad(p_hat: np.ndarray, p: np.ndarray) -> float:
    """Spectral angle distance in radians: the angle whose cosine is the
    cosine similarity, evaluated in the half-angle form 2*atan2(|a-b|,|a+b|)
    on unit vectors (exact at 0, stable over the whole [0, pi] range)."""
    p_hat = np.asarray(p_hat, dtype=np.float64).ravel()
    p = np.asarray(p, dtype=np.float64).ravel()
    if p_hat.shape != p.shape:
        raise ValueError(f"spectra lengths differ: {p_hat.size} vs {p.size}")
    na, nb = np.linalg.norm(p_hat), np.linalg.norm(p)
    if na == 0.0 or nb == 0.0:
        raise ValueError("spectral angle undefined for a zero vector")
    a, b = p_hat / na, p / nb
    return float(2.0 * np.arctan2(np.linalg.norm(a - b), np.linalg.norm(a + b)))


def rmse(alpha: np.ndarray, alpha_hat: np.ndarray) -> float:
    """Root mean square error between two abundance maps of equal shape."""
    alpha = np.asarray(alpha, dtype=np.float64)
    alpha_hat = np.asarray(alpha_hat, dtype=np.float64)
    if alpha.shape != alpha_hat.shape:
        raise ValueError(f"map shapes differ: {alpha.shape} vs {alpha_hat.shape}")
    return float(np.sqrt(np.mean((alpha - alpha_hat) ** 2)))


def channel_rmse(stack: np.ndarray, truth: np.ndarray, pixels=slice(None)) -> np.ndarray:
    """Per-channel `rmse` of an (H, W, P) stack against the truth's, over
    the flat pixel indices `pixels`, every pixel by default."""
    if stack.shape != truth.shape:
        raise ValueError(f"stack shapes differ: {stack.shape} vs {truth.shape}")
    est = stack.reshape(-1, stack.shape[2])[pixels]
    ref = truth.reshape(-1, truth.shape[2])[pixels]
    return np.array([rmse(ref[:, j], est[:, j]) for j in range(stack.shape[2])])


@dataclass
class PermutationMatch:
    """Bijection estimated-channel -> reference-channel with its mean SAD."""

    assignment: tuple[int, ...]
    cost: float

    def __post_init__(self):
        if sorted(self.assignment) != list(range(len(self.assignment))):
            raise ValueError("assignment must be a bijection")

    @property
    def order(self) -> np.ndarray:
        """The estimated channel of each truth slot: `stack[:, :, order]` and
        `endmembers[:, order]` are in truth order."""
        return np.argsort(self.assignment)


def match_endmembers(estimated: np.ndarray, truth: np.ndarray) -> PermutationMatch:
    """Exhaustively match estimated to true endmembers by mean SAD.

    assignment[j] is the truth column for estimated column j.  Supports
    up to 6 endmembers (brute force over P! permutations).
    """
    if estimated.shape != truth.shape:
        raise ValueError(f"endmember shapes differ: {estimated.shape} vs {truth.shape}")
    p = estimated.shape[1]
    if p > 6:
        raise ValueError(f"{p} endmembers exceeds the supported scale (6)")
    cost = np.empty((p, p))
    for i in range(p):
        for j in range(p):
            cost[i, j] = sad(estimated[:, i], truth[:, j])
    best, best_cost = None, np.inf
    for perm in permutations(range(p)):
        c = float(np.mean([cost[i, perm[i]] for i in range(p)]))
        if c < best_cost:
            best, best_cost = perm, c
    return PermutationMatch(tuple(best), best_cost)


@dataclass
class MetricsReport:
    """Per-material metrics plus the ensemble's source decisions.

    rmse_ae / rmse_gcn / rmse_final are abundance-map RMSEs against the
    full reference maps; sad compares extracted and reference endmembers.
    The val_* fields hold the labeled-subset RMSEs the ensemble selection
    actually used (pre- and post-renormalization for the final stack).
    """

    materials: list[str]
    rmse_ae: np.ndarray
    rmse_gcn: np.ndarray
    rmse_final: np.ndarray
    sad_values: np.ndarray
    sources: list[str]
    val_rmse_ae: np.ndarray
    val_rmse_gcn: np.ndarray
    val_rmse_final: np.ndarray
    val_rmse_final_renorm: np.ndarray
    seed: int = 0
    elapsed_seconds: float = 0.0

    @property
    def mean_rmse(self) -> float:
        return float(np.mean(self.rmse_final))

    @property
    def mean_sad(self) -> float:
        return float(np.mean(self.sad_values))

    def to_csv(self, path) -> None:
        """Table layout: material,rmse_ae,rmse_gcn,rmse_final,sad,source."""
        with open(path, "w", encoding="utf-8") as f:
            f.write("material,rmse_ae,rmse_gcn,rmse_final,sad,source\n")
            for i, name in enumerate(self.materials):
                f.write(
                    f"{name},{fmt9(self.rmse_ae[i])},{fmt9(self.rmse_gcn[i])},"
                    f"{fmt9(self.rmse_final[i])},{fmt9(self.sad_values[i])},{self.sources[i]}\n"
                )
            f.write(
                f"mean,{fmt9(np.mean(self.rmse_ae))},{fmt9(np.mean(self.rmse_gcn))},"
                f"{fmt9(self.mean_rmse)},{fmt9(self.mean_sad)},-\n"
            )

    def to_text(self) -> str:
        widths = max(8, max(len(n) for n in self.materials) + 1)
        lines = [
            f"{'material':<{widths}} {'rmse_ae':>10} {'rmse_gcn':>10} "
            f"{'rmse_final':>11} {'sad':>10}  source"
        ]
        for i, name in enumerate(self.materials):
            lines.append(
                f"{name:<{widths}} {self.rmse_ae[i]:>10.4f} {self.rmse_gcn[i]:>10.4f} "
                f"{self.rmse_final[i]:>11.4f} {self.sad_values[i]:>10.4f}  {self.sources[i]}"
            )
        lines.append(
            f"{'mean':<{widths}} {np.mean(self.rmse_ae):>10.4f} {np.mean(self.rmse_gcn):>10.4f} "
            f"{self.mean_rmse:>11.4f} {self.mean_sad:>10.4f}  -"
        )
        lines.append(f"seed={self.seed} elapsed={self.elapsed_seconds:.2f}s")
        return "\n".join(lines)
