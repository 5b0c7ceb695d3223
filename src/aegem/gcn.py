"""Two-layer graph convolutional network that refines abundance maps.

The star graph's spectral-angle distances become edge similarities
exp(-angle); with self-loops added, the symmetrically normalized
operator D^{-1/2} (A + I) D^{-1/2} drives both layers.  Training is
semi-supervised: binary cross-entropy against reference abundances on a
labeled pixel subset; the output is the sigmoid head renormalized to
sum to one.

The logits are z = A relu(A X W1) W2 for the fixed operator A and node
features X, the autoencoder's abundances with one row per pixel.
Training computes only the rows the loss reads: the labeled rows of z
need the hidden rows of the labeled pixels' one-hop neighbours (their
receptive field N1), and those need only the same rows of A X, which is
fixed and computed once (as in SGC, Wu et al. 2019).
The second product is taken as A (H W2), P wide instead of hidden wide.
This is the same function of the weights as the full-graph forward, so
only floating-point summation order differs.

The epoch loop (`_train_epochs`) is `autodiff.fit`'s, in float32 as its
docstring sets out, on A X's rows N1, computed in float64 and cast down.
The final forward over all nodes, the checkpoint and the maps stay
float64.  The loss is one op, `bce_with_logits`, whose gradient is
(sigmoid(z) - t)/n on the rows it reads.

The hidden layer is one fused op, `ad.relu_mlp(AX[N1], W1, W2)`, which
walks the fixed rows of A X in row tiles that fit in L2 cache and takes
each tile's `relu(AX W1) W2` there, as fused GNN kernels keep the wide
intermediate in cache (FusedMM, Rahman, Sujon & Azad 2021).  The
(N1, hidden) matrix H is never built, in training or in the final
forward over all nodes: the backward pass recomputes each tile's
pre-activation for both weight gradients.

The operator is a `Sparse`: its entries as three numpy arrays (rows,
columns, values) sorted by (row, column), so that importing the package
loads no scipy.  Training takes it once through `restrict(label_idx)`,
which gives the labeled rows over their receptive field N1 and N1
itself, renumbered in order so the entries stay sorted.  It adds in
scipy.sparse's order, so every product is the same to the bit as
scipy's and each written map stays byte-equal to the scipy build's.
Rows sum with `np.add.reduceat` as scipy's `csr.sum(axis=1)` does.
`A @ x` is one `np.bincount` per column, which adds each row's entries
in order from zero, as scipy's `csr_matvec` loop does (`reduceat`
switches to pairwise sums on long rows); one `bincount` over all
columns at once is as exact but measured slower (ROADMAP's decision
"`gcn.Sparse.__matmul__` keeps one `np.bincount` per operand column").
`A.T` is the same arrays with rows and columns swapped, so `A.T @ g`,
the VJP `ad.sparse_matmul` takes, adds each column's entries in row
order, as scipy's transposed product does.  A float32 operand's
products and sums are still taken in float64, and the result is
rounded to float32 once.  `ad.sparse_matmul` takes a scipy matrix in
place of a `Sparse` as well, which the tests use as an oracle.

`save_gcn` writes W1 and W2 as an AEW1 checkpoint; nothing in the
package reads one back (see `checkpoint`).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from . import checkpoint
from .graph import EllipticalGraph
from .rng import SplitMix64


@dataclass
class GcnConfig:
    hidden: int = 128
    epochs: int = 200
    learning_rate: float = 0.001
    label_fraction: float = 0.1
    seed: int = 0

    def __post_init__(self):
        if not 0.0 < self.label_fraction <= 1.0:
            raise ValueError("label_fraction must be in (0, 1]")
        if self.hidden < 1:
            raise ValueError("hidden must be >= 1")
        ad.check_schedule("gcn", self.epochs, self.learning_rate)


class Sparse:
    """A sparse matrix as its entry list: the few operations the GCN needs.

    Entry k is `vals[k]` at (`rows[k]`, `cols[k]`), sorted by (row,
    column) as `normalized_operator` writes them.  `A.T` is the same
    arrays with rows and columns swapped: no sort and no copy.  `@`
    takes a 1-D or 2-D dense array and adds each output's entries in
    entry order, in float64; a float32 operand gets that sum rounded
    once to float32, any other operand the float64 sum.  `restrict`
    takes the rows the GCN's loss reads over the columns they reach.
    """

    def __init__(self, rows: np.ndarray, cols: np.ndarray, vals: np.ndarray,
                 shape: tuple[int, int]):
        self.rows = rows
        self.cols = cols
        self.vals = vals
        self.shape = shape

    @property
    def nnz(self) -> int:
        return self.vals.size

    @property
    def T(self) -> Sparse:
        return Sparse(self.cols, self.rows, self.vals, self.shape[::-1])

    def __matmul__(self, x) -> np.ndarray:
        x = np.asarray(x)
        if x.shape[0] != self.shape[1]:
            raise ValueError(f"dimension mismatch: {self.shape} @ {x.shape}")
        n = self.shape[0]
        dtype = np.float32 if x.dtype == np.float32 else np.float64
        out = np.empty((n, *x.shape[1:]), dtype=dtype)
        columns = out.reshape(n, -1)
        for c, column in enumerate(x.reshape(x.shape[0], -1).T):
            columns[:, c] = np.bincount(self.rows, weights=self.vals * column.take(self.cols),
                                        minlength=n)
        return out

    def restrict(self, rows: np.ndarray) -> tuple[Sparse, np.ndarray]:
        """(A[rows][:, field], field): the given rows over the columns they reach.

        rows must be sorted, distinct and in 0..n-1, as `sample_labels`
        returns them; others raise IndexError.  field is the sorted
        columns holding an entry in those rows.  Both renumberings keep
        order, so the entries stay sorted by (row, column).
        """
        n = self.shape[0]
        if np.any(np.diff(rows) <= 0) or rows.size and not 0 <= rows[0] <= rows[-1] < n:
            raise IndexError(f"rows must be sorted, distinct and in 0..{n - 1}")
        # boolean marks, not np.isin and np.unique: np.unique without return
        # flags imports numpy.ma, about 10 ms and 1.3 MiB in a fresh process
        chosen = np.zeros(n, dtype=bool)
        chosen[rows] = True
        keep = np.flatnonzero(chosen[self.rows])
        cols = self.cols[keep]
        reached = np.zeros(self.shape[1], dtype=bool)
        reached[cols] = True
        field = np.flatnonzero(reached)
        return Sparse(np.searchsorted(rows, self.rows[keep]), np.searchsorted(field, cols),
                      self.vals[keep], (rows.size, field.size)), field


def normalized_operator(graph: EllipticalGraph) -> Sparse:
    """Sparse symmetric D^{-1/2} (A + I) D^{-1/2} with A_ij = exp(-angle).

    Star edges are made bidirectional and de-duplicated before
    normalization; self-loops guarantee positive degrees everywhere.
    An edge endpoint outside the graph's pixels raises ValueError
    naming the edge.
    """
    n = graph.n_pixels
    bad = np.flatnonzero(((graph.edges < 0) | (graph.edges >= n)).any(axis=1))
    if bad.size:
        u, v = graph.edges[bad[0]]
        raise ValueError(f"edge {bad[0]} ({u}, {v}) has an endpoint outside "
                         f"the graph's pixels 0..{n - 1}")
    both = np.vstack([graph.edges, graph.edges[:, ::-1]])
    sim = np.exp(-np.concatenate([graph.edge_weights, graph.edge_weights]))
    # each entry (u, v) is keyed u * n + v, which sorts as the pairs do since
    # 0 <= v < n; np.unique's stable sort keeps the first index of each edge
    edge_keys, keep = np.unique(both[:, 0] * np.int64(n) + both[:, 1], return_index=True)
    # entries sorted by (row, column); a self-edge's entry and the
    # self-loop add into one, as scipy's coo -> csr conversion adds them
    keys, slot = np.unique(np.concatenate([edge_keys, np.arange(n) * (n + 1)]),
                           return_inverse=True)
    a_hat = np.bincount(slot, weights=np.concatenate([sim[keep], np.ones(n)]))
    rows, cols = np.divmod(keys, n)
    # every row holds its self-loop, so row i's entries start at row_starts[i]
    row_starts = np.searchsorted(rows, np.arange(n))
    inv_sqrt = 1.0 / np.sqrt(np.add.reduceat(a_hat, row_starts))
    return Sparse(rows, cols, (a_hat * inv_sqrt[rows]) * inv_sqrt[cols], (n, n))


class GcnModel:
    """Weights plus the cached normalized graph operator."""

    def __init__(self, operator: Sparse, feature_dim: int, hidden: int,
                 out_dim: int, rng: SplitMix64):
        self.operator = operator
        # the labels' receptive field N1, set by train_gcn
        self.field: np.ndarray | None = None
        self.w1 = ad.glorot_uniform((feature_dim, hidden), feature_dim, hidden, rng)
        self.w2 = ad.glorot_uniform((hidden, out_dim), hidden, out_dim, rng)

    def parameters(self) -> list[ad.Tensor]:
        return [self.w1, self.w2]

    def logits(self, features) -> ad.Tensor:
        """A relu(A X W1) W2 over all nodes; the hidden layer is one `ad.relu_mlp`."""
        ax = ad.sparse_matmul(self.operator, ad.as_tensor(features))
        return ad.sparse_matmul(self.operator, ad.relu_mlp(ax.data, self.w1, self.w2))


def forward(model: GcnModel, features: np.ndarray) -> np.ndarray:
    """Refined abundances per node: the sigmoid head renormalized to sum to one."""
    with ad.no_grad():
        p = ad.sigmoid(model.logits(features)).data
    return p / (p.sum(axis=1, keepdims=True) + 1e-12)


def bce_with_logits(logits: ad.Tensor, targets: np.ndarray, rows=slice(None)) -> ad.Tensor:
    """Mean binary cross-entropy of sigmoid(logits[rows]) against targets[rows].

    One op, in the logits' dtype: its value is `_bce`'s, the value of
    `(softplus(z) - t * z).mean()` to the bit, and its gradient is
    (sigmoid(z) - t) / n written into the n rows it reads, zero in the
    others.  The rows must be distinct.
    """
    z, t = logits.data[rows], targets[rows]

    def vjp(g):
        e = np.exp(-np.abs(z))
        sig = np.where(z >= 0, 1.0, e) / (1.0 + e)
        grad = np.zeros_like(logits.data)
        grad[rows] = (sig - t) * (g / t.size)
        return grad

    return ad.Tensor._from_op(_bce(z, t), (logits,), (vjp,), "bce_with_logits")


def _bce(z: np.ndarray, t: np.ndarray):
    """Mean of softplus(z) - t z, in z's dtype, summed as `Tensor.mean` sums."""
    terms = np.maximum(z, 0.0) + np.log1p(np.exp(-np.abs(z))) - t * z
    return terms.sum() * (1.0 / terms.size)


def sample_labels(abundances: np.ndarray, fraction: float,
                  rng: SplitMix64) -> tuple[np.ndarray, np.ndarray]:
    """Seeded sample of labeled pixels: flat indices and their target rows."""
    h, w, p = abundances.shape
    n = h * w
    k = max(1, int(round(fraction * n)))
    idx = np.sort(rng.choice(n, k))
    return idx, abundances.reshape(n, p)[idx]


def train_gcn(graph: EllipticalGraph, features: np.ndarray, label_idx: np.ndarray,
              label_targets: np.ndarray, config: GcnConfig,
              ) -> tuple[GcnModel, list[tuple[int, float, float]]]:
    """Full-batch Adam on labeled-node BCE; deterministic per config.seed.

    A X is computed in float64 for every node first, so a non-finite
    feature anywhere raises ad.DivergenceError(0) as the full-graph forward
    would.  The operator is restricted once to the labeled rows over
    their receptive field, which `model.field` keeps.  The epoch loop
    (`_train_epochs`) then runs on the rows of A X in that field, the
    weights and the targets, all cast to float32, as `autodiff.fit` sets
    out, so the returned model is float64.
    """
    if label_idx.size == 0:
        raise ValueError("labeled pixel set is empty")
    root = SplitMix64(config.seed)
    model = GcnModel(normalized_operator(graph), features.shape[1], config.hidden,
                     label_targets.shape[1], root.split(0))
    try:
        ax = ad.sparse_matmul(model.operator, ad.as_tensor(features)).data
    except ad.NonFiniteError as exc:
        raise ad.DivergenceError(0) from exc
    rows_op, model.field = model.operator.restrict(label_idx)
    params = model.parameters()
    for p in params:
        p.data = p.data.astype(np.float32)
    history = _train_epochs(model, rows_op, ax[model.field].astype(np.float32),
                            label_targets.astype(np.float32), config, root.split(1))
    for p in params:
        p.data = p.data.astype(np.float64)
    return model, history


def _train_epochs(model: GcnModel, rows_op: Sparse, ax_field: np.ndarray,
                  targets: np.ndarray, config: GcnConfig, split_rng: SplitMix64,
                  ) -> list[tuple[int, float, float]]:
    """config.epochs of full-batch `ad.fit`; history rows are (epoch, train_bce, val_bce).

    rows_op is the operator's labeled rows over the labels' receptive
    field, and ax_field the rows of A X at that field, as
    `Sparse.restrict` gives them.  One tenth of the labeled set (at
    least one node when possible), drawn from split_rng, is held out
    from the gradient for validation logging.  Each epoch computes only
    the labeled rows of the logits, rows_op relu(ax_field W1) W2 (see
    the module docstring); nothing outside those rows enters the loss or
    its gradient, so the training is that of the full-graph forward.
    Every step runs in the dtype of ax_field, the targets and the
    parameters, which should agree.
    """
    n_lab = rows_op.shape[0]
    n_val = max(1, n_lab // 10) if n_lab >= 2 else 0
    order = split_rng.permutation(n_lab)
    val_rows, train_rows = order[:n_val], order[n_val:]

    def epoch(i: int, optimizer: ad.Adam) -> tuple[int, float, float]:
        z_lab = ad.sparse_matmul(rows_op, ad.relu_mlp(ax_field, model.w1, model.w2))
        loss = bce_with_logits(z_lab, targets, train_rows)
        train_bce = loss.item()
        val_bce = float(_bce(z_lab.data[val_rows], targets[val_rows])) if n_val else train_bce
        optimizer.step(ad.backward(loss))
        return i, train_bce, val_bce

    return ad.fit(model.parameters(), config.epochs, config.learning_rate, epoch)


def save_gcn(model: GcnModel, path) -> None:
    checkpoint.save_tensors({"w1": model.w1.data, "w2": model.w2.data}, path)

