"""Independent oracles the tests check the library against.

Everything here is deliberately naive (nested loops, brute force,
finite differences, dense eigensolvers) and shares no code with the
implementation paths it verifies.
"""
from __future__ import annotations

import numpy as np
from scipy.optimize import nnls

from aegem import autodiff as ad
from aegem.autoencoder import (ConvAutoencoder, DivergenceError, patch_validity_masks,
                               reconstruction_loss)
from aegem.gcn import GcnModel, bce_with_logits, normalized_operator
from aegem.rng import SplitMix64


def conv2d_loops(x: np.ndarray, w: np.ndarray, b: np.ndarray | None = None,
                 padding: str = "valid") -> np.ndarray:
    """Nested-loop cross-correlation: out[i,j] = sum w[u,v] x[i+u, j+v]."""
    n, cin, hin, win = x.shape
    cout, _, kh, kw = w.shape
    if padding == "same":
        ph, pw = (kh - 1) // 2, (kw - 1) // 2
        x = np.pad(x, ((0, 0), (0, 0), (ph, ph), (pw, pw)))
        hin, win = hin + 2 * ph, win + 2 * pw
    hout, wout = hin - kh + 1, win - kw + 1
    out = np.zeros((n, cout, hout, wout))
    for bi in range(n):
        for o in range(cout):
            for i in range(hout):
                for j in range(wout):
                    acc = 0.0
                    for c in range(cin):
                        for u in range(kh):
                            for v in range(kw):
                                acc += w[o, c, u, v] * x[bi, c, i + u, j + v]
                    out[bi, o, i, j] = acc
            if b is not None:
                out[bi, o] += b[o]
    return out


def conv2d_einsum(x: np.ndarray, w: np.ndarray, g: np.ndarray
                  ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Valid cross-correlation of an [N,Cin,Hp,Wp] array by einsum over its windows.

    Returns the output and, for an output gradient g, the gradients of x
    and w: the input gradient correlates the fully padded g with the
    flipped kernel, the weight gradient contracts g against the windows.
    """
    kh, kw = w.shape[2], w.shape[3]

    def windows(a):
        return np.lib.stride_tricks.sliding_window_view(a, (kh, kw), axis=(2, 3))

    out = np.einsum("bchwuv,ocuv->bohw", windows(x), w, optimize=True)
    gp = np.pad(g, ((0, 0), (0, 0), (kh - 1, kh - 1), (kw - 1, kw - 1)))
    gx = np.einsum("bohwuv,ocuv->bchw", windows(gp), w[:, :, ::-1, ::-1], optimize=True)
    gw = np.einsum("bchwuv,bohw->ocuv", windows(x), g, optimize=True)
    return out, gx, gw


def relu_mlp_unfused(x: np.ndarray, w1: np.ndarray, w2: np.ndarray, g: np.ndarray
                     ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """relu(x @ W1) @ W2 as three whole-matrix ops, with the gradients of
    W1 and W2 for an output gradient g: the composition `ad.relu_mlp` fuses."""
    w1t, w2t = ad.Tensor(w1, requires_grad=True), ad.Tensor(w2, requires_grad=True)
    out = ad.relu(ad.Tensor(x) @ w1t) @ w2t
    grads = ad.backward((out * g).sum())
    return out.data, grads[w1t], grads[w2t]


def finite_diff_grads(f, arrays: list[np.ndarray], h: float = 1e-6) -> list[np.ndarray]:
    """Central-difference gradient of scalar f(*arrays) w.r.t. each array."""
    arrays = [np.array(a, dtype=np.float64) for a in arrays]
    grads = []
    for a in arrays:
        g = np.zeros_like(a)
        flat, gflat = a.reshape(-1), g.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            fp = f(*arrays)
            flat[i] = orig - h
            fm = f(*arrays)
            flat[i] = orig
            gflat[i] = (fp - fm) / (2.0 * h)
        grads.append(g)
    return grads


def max_rel_err(analytic: np.ndarray, numeric: np.ndarray) -> float:
    """|a - n| relative to max(1, |a|, |n|), elementwise maximum."""
    denom = np.maximum(1.0, np.maximum(np.abs(analytic), np.abs(numeric)))
    return float(np.max(np.abs(analytic - numeric) / denom))


def gradcheck(make_loss, arrays: list[np.ndarray], tol: float = 1e-6,
              h: float = 1e-6) -> float:
    """Compare reverse-mode gradients of make_loss(*tensors) to central FD.

    make_loss receives one Tensor per input array and must return a
    scalar Tensor.  Returns the worst relative error (and asserts tol).
    """
    tensors = [ad.Tensor(a.copy(), requires_grad=True) for a in arrays]
    grads = ad.backward(make_loss(*tensors))
    analytic = [grads[t] for t in tensors]

    def value(*arrs):
        return make_loss(*[ad.Tensor(a) for a in arrs]).item()

    numeric = finite_diff_grads(value, arrays, h)
    worst = max(max_rel_err(a, n) for a, n in zip(analytic, numeric))
    assert worst <= tol, f"gradient mismatch: max relative error {worst:.3e} > {tol}"
    return worst


def adam_scalar_reference(grad_fn, w0: float, lr: float, steps: int,
                          beta1: float = 0.9, beta2: float = 0.999,
                          eps: float = 1e-8) -> list[float]:
    """Textbook scalar Adam trajectory, independent of the Tensor engine."""
    w, m, v = w0, 0.0, 0.0
    path = [w]
    for t in range(1, steps + 1):
        g = grad_fn(w)
        m = beta1 * m + (1 - beta1) * g
        v = beta2 * v + (1 - beta2) * g * g
        m_hat = m / (1 - beta1**t)
        v_hat = v / (1 - beta2**t)
        w -= lr * m_hat / (np.sqrt(v_hat) + eps)
        path.append(w)
    return path


def ellipse_offsets_bruteforce(a: int, b: int) -> set[tuple[int, int]]:
    """Scan the full bounding box for integer points inside the ellipse."""
    out = set()
    for dr in range(-a, a + 1):
        for dc in range(-b, b + 1):
            if dr * dr * b * b + dc * dc * a * a <= a * a * b * b:
                out.add((dr, dc))
    return out


def fcls_abundances(spectra: np.ndarray, endmembers: np.ndarray,
                    weight: float = 1e3) -> np.ndarray:
    """Fully constrained least squares via NNLS with a sum-to-one row.

    Reference solver for scene solvability; independent of the pipeline.
    """
    l, p = endmembers.shape
    m_aug = np.vstack([endmembers, weight * np.ones(p)])
    out = np.zeros((spectra.shape[0], p))
    for i, y in enumerate(spectra):
        out[i], _ = nnls(m_aug, np.concatenate([y, [weight]]))
    return out


def abundance_stack_per_patch(model, cube) -> np.ndarray:
    """Encode every pixel's own zero-padded patch and keep its center -> (H, W, P).

    The direct definition of the abundance stack, one patch per pixel.
    """
    ps = model.config.patch_size
    half = ps // 2
    padded = np.pad(cube.reflectance, ((half, half), (half, half), (0, 0)))
    centers = [(r, c) for r in range(cube.height) for c in range(cube.width)]
    rows = []
    with ad.no_grad():
        for start in range(0, len(centers), 256):
            batch = np.stack([padded[r : r + ps, c : c + ps].transpose(2, 0, 1)
                              for r, c in centers[start : start + 256]])
            rows.append(model.encode(batch).data[:, :, half, half])
    return np.concatenate(rows).reshape(cube.height, cube.width, -1)


def train_autoencoder_per_patch(cube, config) -> tuple[list[float], ConvAutoencoder]:
    """AE training with every layer a `conv2d` of the gathered patches.

    The same seeds, shuffle, batches, loss and optimizer as
    `autoencoder.train_autoencoder`, whose first layer shares each
    pixel's tap projections across patches instead; returns the
    per-epoch mean losses and the trained model.
    """
    root = SplitMix64(config.seed)
    model = ConvAutoencoder(config, cube.bands, root.split(0))
    model.seed_decoder_columns(cube.spectra())
    shuffle_rng = root.split(1)
    ps, half = config.patch_size, config.patch_size // 2
    padded = np.pad(cube.reflectance, ((half, half), (half, half), (0, 0)))
    centers = [(r, c) for r in range(cube.height) for c in range(cube.width)]
    masks = patch_validity_masks(cube.height, cube.width, ps)
    optimizer = ad.Adam(model.parameters(), lr=config.learning_rate)
    history = []
    for epoch in range(config.epochs):
        order = shuffle_rng.permutation(len(centers))
        losses = []
        for start in range(0, len(centers), config.batch_size):
            sel = [centers[i] for i in order[start : start + config.batch_size]]
            batch = ad.Tensor(np.stack([padded[r : r + ps, c : c + ps].transpose(2, 0, 1)
                                        for r, c in sel]))
            valid = np.stack([masks[r, c] for r, c in sel])[:, None]
            _, recon = model.forward(batch)
            loss = reconstruction_loss(batch, recon, config.loss, config.mse_weight, valid)
            optimizer.step(ad.backward(loss))
            model.clamp_decoder()
            losses.append(loss.item())
        history.append(float(np.mean(losses)))
    return history, model


def permutation_fisher_yates(rng, n: int) -> np.ndarray:
    """Fisher-Yates on range(n) with one `integers` draw per swap."""
    idx = np.arange(n)
    for i in range(n - 1, 0, -1):
        j = rng.integers(i + 1)
        idx[i], idx[j] = idx[j], idx[i]
    return idx


def pixel_csv_text_per_value(stack: np.ndarray, names: list[str]) -> str:
    """A row,col,... CSV built one value at a time with format(v, '.9g')."""
    h, w, _ = stack.shape
    lines = ["row,col," + ",".join(names) + "\n"]
    for r in range(h):
        for c in range(w):
            lines.append(f"{r},{c}," + ",".join(format(float(v), ".9g") for v in stack[r, c])
                         + "\n")
    return "".join(lines)


def train_gcn_full_graph(graph, features, label_idx, label_targets, config):
    """GCN training that computes every node's logits in every epoch.

    The same seeds, split, loss and optimizer as `gcn.train_gcn`, with
    the logits written as (A relu(A X W1)) W2 over the whole graph.
    """
    root = SplitMix64(config.seed)
    op = normalized_operator(graph)
    model = GcnModel(op, features.shape[1], config.hidden, label_targets.shape[1],
                     root.split(0))
    n_lab = label_idx.size
    n_val = max(1, n_lab // 10) if n_lab >= 2 else 0
    order = root.split(1).permutation(n_lab)
    val_rows, train_rows = order[:n_val], order[n_val:]
    optimizer = ad.Adam(model.parameters(), lr=config.learning_rate)
    history = []
    for epoch in range(config.epochs):
        try:
            h = ad.relu(ad.sparse_matmul(op, ad.Tensor(features), op) @ model.w1)
            z_lab = (ad.sparse_matmul(op, h, op) @ model.w2)[label_idx]
            loss = bce_with_logits(z_lab[train_rows], label_targets[train_rows])
        except ad.NonFiniteError as exc:
            raise DivergenceError(epoch) from exc
        train_bce = loss.item()
        val_bce = train_bce
        if n_val:
            z, t = z_lab.data[val_rows], label_targets[val_rows]
            val_bce = float(np.mean(np.logaddexp(0.0, z) - t * z))
        optimizer.step(ad.backward(loss))
        history.append((epoch, train_bce, val_bce))
    return model, history


def star_edges_loops(height: int, width: int, kernel, centroids: np.ndarray) -> np.ndarray:
    """Star edges built one centroid, offset and leftover pixel at a time."""
    covered = np.zeros(height * width, dtype=bool)
    edges = []
    for r0, c0 in centroids:
        covered[r0 * width + c0] = True
        for dr, dc in kernel.offsets:
            r, c = r0 + dr, c0 + dc
            if (dr or dc) and 0 <= r < height and 0 <= c < width:
                edges.append((r0 * width + c0, r * width + c))
                covered[r * width + c] = True
    a2, b2 = float(kernel.a**2), float(kernel.b**2)
    for flat in np.nonzero(~covered)[0]:
        r, c = divmod(int(flat), width)
        d = (centroids[:, 0] - r) ** 2 / a2 + (centroids[:, 1] - c) ** 2 / b2
        k = int(np.argmin(d))
        edges.append((centroids[k, 0] * width + centroids[k, 1], int(flat)))
    return np.array(sorted(edges), dtype=np.int64).reshape(-1, 2)
