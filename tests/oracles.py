"""Independent oracles the tests check the library against.

Everything here is deliberately naive (nested loops, brute force,
finite differences, dense eigensolvers) and shares no code with the
implementation paths it verifies.
"""
from __future__ import annotations

import struct
from pathlib import Path

import numpy as np
import scipy.sparse as sp
from scipy.optimize import nnls

from aegem import autodiff as ad
from aegem import hsi
from aegem.autoencoder import ConvAutoencoder, reconstruction_loss
from aegem.gcn import GcnModel, normalized_operator
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


def conv2d_input_grad_transposed(w: np.ndarray, g: np.ndarray, padding: str) -> np.ndarray:
    """Input gradient of `ad.conv2d` for an output gradient g, as the
    transposed conv: g zero-padded by (kh-1-ph, kw-1-pw) and correlated with
    the flipped kernel, Cin and Cout swapped, through `ad.conv2d`'s forward
    pass, so its GEMM runs over every input pixel instead of every output one."""
    kh, kw = w.shape[2], w.shape[3]
    ph, pw = ((kh - 1) // 2, (kw - 1) // 2) if padding == "same" else (0, 0)
    gp = np.pad(g, ((0, 0), (0, 0), (kh - 1 - ph, kh - 1 - ph), (kw - 1 - pw, kw - 1 - pw)))
    flipped = np.ascontiguousarray(w[:, :, ::-1, ::-1].transpose(1, 0, 2, 3))
    return ad.conv2d(ad.Tensor(gp), ad.Tensor(flipped), None, "valid").data


def input_gradient_strided_taps(g: np.ndarray, wmat: np.ndarray, kh: int, kw: int, ph: int,
                                pw: int, h: int, w: int) -> np.ndarray:
    """`ad._input_gradient` as one GEMM per block of output rows and 4-D strided tap adds.

    Per block of output rows (`ad._row_blocks`, so the blocks are the
    library's), `wmat.T @ g` gives the taps in rows (c, u, v), and tap
    (u, v) is added, for every channel at once, into a zero-filled
    (C, H+2ph, W+2pw, N) gradient shifted by (u, v); the padding is then
    cropped off.  Each position adds its taps in the library's order.
    """
    cout, ho, wo, n = g.shape
    c = wmat.shape[1] // (kh * kw)
    gmat = g.reshape(cout, -1)
    if kh == kw == 1:
        return (wmat.T @ gmat).reshape(c, ho, wo, n)
    gx = np.zeros((c, h + 2 * ph, w + 2 * pw, n), dtype=np.result_type(g, wmat))
    for i0, i1 in ad._row_blocks(ho, c * kh * kw * wo * n * gx.itemsize):
        taps = (wmat.T @ gmat[:, i0 * wo * n : i1 * wo * n]).reshape(c, kh, kw, i1 - i0, wo, n)
        for u in range(kh):
            for v in range(kw):
                gx[:, i0 + u : i1 + u, v : v + wo] += taps[:, u, v]
    return np.ascontiguousarray(gx[:, ph : ph + h, pw : pw + w])


def conv2d_plus_bias(x: np.ndarray, w: np.ndarray, b: np.ndarray, padding: str,
                     g: np.ndarray) -> tuple[np.ndarray, ...]:
    """A bias-free `ad.conv2d` followed by a separate broadcast add of b.

    Returns the output and, for an output gradient g, the gradients of
    x, w and b: the composition that `ad.conv2d` fuses by adding its
    bias in place.
    """
    xt, wt, bt = (ad.Tensor(a, requires_grad=True) for a in (x, w, b))
    out = ad.conv2d(xt, wt, None, padding) + bt.reshape(1, b.size, 1, 1)
    grads = ad.backward((out * g).sum())
    return out.data, grads[xt], grads[wt], grads[bt]


def leaky_relu_slope(x: np.ndarray, alpha: float, g: np.ndarray
                     ) -> tuple[np.ndarray, np.ndarray]:
    """leaky_relu as x times a float slope array, and its gradient g times the slope."""
    slope = np.where(x > 0, 1.0, alpha)
    return x * slope, g * slope


def leaky_relu_masked(x: ad.Tensor, alpha: float = 0.01) -> ad.Tensor:
    """leaky_relu as x * alpha with x copied back where x > 0, a boolean
    mask on the node, and the same masked copy of g as its VJP."""
    mask = x.data > 0

    def scaled(a):
        out = a * alpha
        np.copyto(out, a, where=mask)
        return out

    return ad.Tensor._from_op(scaled(x.data), (x,), (scaled,), "leaky_relu")


_conv2d = ad.conv2d  # the library's, kept for tests that patch `ad.conv2d` with the next one


def conv2d_leaky_relu_unfused(x: ad.Tensor, w: ad.Tensor, b: ad.Tensor | None = None,
                              padding: str = "same", leaky: float | None = None) -> ad.Tensor:
    """`ad.conv2d` with its leaky ReLU as a node of its own: the conv without
    `leaky`, then `leaky_relu_masked` of slope `leaky` if one is given."""
    out = _conv2d(x, w, b, padding)
    return out if leaky is None else leaky_relu_masked(out, leaky)


def arccos_clamped(x: ad.Tensor, clip_eps: float = 1e-7) -> ad.Tensor:
    """arccos of x clamped into [-1+eps, 1-eps], as a Tensor op; outside
    the clamp its gradient is 0."""
    u = np.clip(x.data, -1.0 + clip_eps, 1.0 - clip_eps)
    inside = (x.data > -1.0 + clip_eps) & (x.data < 1.0 - clip_eps)
    grad_u = np.where(inside, -1.0 / np.sqrt(1.0 - u**2), 0.0)
    return ad.Tensor._from_op(np.arccos(u), (x,), (lambda g: g * grad_u,), "arccos")


def reconstruction_loss_composite(target, recon: ad.Tensor, mse_weight: float) -> ad.Tensor:
    """SAD + mse_weight * MSE at the center pixel, composed of Tensor ops:
    the composition `autoencoder.reconstruction_loss` fuses into one op."""
    ch, cw = recon.shape[2] // 2, recon.shape[3] // 2
    a = recon[:, :, ch, cw]
    b = ad.as_tensor(target)[:, :, ch, cw]
    dot = (a * b).sum(axis=1)
    na = ad.sqrt((a * a).sum(axis=1) + 1e-24)
    nb = ad.sqrt((b * b).sum(axis=1) + 1e-24)
    sad = arccos_clamped(dot / (na * nb)).mean()
    return sad + mse_weight * ((a - b) ** 2).mean()


def block_columns_windows(xt: np.ndarray, kh: int, kw: int, ph: int, pw: int,
                          i0: int, i1: int) -> np.ndarray:
    """Columns of output rows i0..i1-1 of pixels-last xt, zero-padded by (ph, pw),
    from `sliding_window_view` over the whole padded input: rows (c, u, v),
    columns (i, j, n)."""
    c, _, _, n = xt.shape
    padded = np.pad(xt, ((0, 0), (ph, ph), (pw, pw), (0, 0)))
    windows = np.lib.stride_tricks.sliding_window_view(padded, (kh, kw), axis=(1, 2))
    # windows is (C, Ho, Wo, N, kh, kw): move the taps forward, keep rows i0..i1-1
    return windows[:, i0:i1].transpose(0, 4, 5, 1, 2, 3).reshape(c * kh * kw, -1)


def sad_weights_whole(spectra: np.ndarray, edges: np.ndarray) -> np.ndarray:
    """Half-angle spectral angles of every edge at once, from whole
    (edges x bands) unit-vector arrays."""
    norms = np.linalg.norm(spectra, axis=1)
    s, r = edges[:, 0], edges[:, 1]
    a = spectra[s] / norms[s, None]
    b = spectra[r] / norms[r, None]
    return 2.0 * np.arctan2(np.linalg.norm(a - b, axis=1), np.linalg.norm(a + b, axis=1))


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


def adam_step_reference(params: list[np.ndarray], grads: list, m: list, v: list, t: int,
                        lr: float, beta1: float = 0.9, beta2: float = 0.999,
                        eps: float = 1e-8) -> None:
    """One textbook Adam step, written out of place, on plain arrays.

    Updates each params[i] in place and rebinds m[i] and v[i]; a None in
    grads skips that parameter, as a missing gradient does.
    """
    for i, (p, g) in enumerate(zip(params, grads)):
        if g is None:
            continue
        m[i] = beta1 * m[i] + (1 - beta1) * g
        v[i] = beta2 * v[i] + (1 - beta2) * g * g
        m_hat = m[i] / (1 - beta1**t)
        v_hat = v[i] / (1 - beta2**t)
        p -= lr * m_hat / (np.sqrt(v_hat) + eps)


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


def endmembers_conv_readout(model) -> np.ndarray:
    """Signature matrix (L x P) read off the decoder's conv: the response at
    the patch center to P one-hot fields, each 1 in one channel over the
    whole patch."""
    p, ps = model.config.endmembers, model.config.patch_size
    fields = np.zeros((p, p, ps, ps))
    for j in range(p):
        fields[j, j] = 1.0
    with ad.no_grad():
        out = model.decode(fields)
    return np.maximum(out.data[:, :, ps // 2, ps // 2].T, 0.0)


def encode_full_band(model, x, padding: str = "same") -> tuple[ad.Tensor, ad.Tensor]:
    """`model.encode` with layer 1 convolving every band of x with W = W' ×_band Vᵀ.

    Returns the abundances and W, a fresh leaf whose gradient the caller
    can read.  No projection of x: equal to the encoder's own result to
    round-off on any x, since conv(x, W' Vᵀ) = conv(Vᵀx, W').
    """
    full = ad.Tensor(np.einsum("ckhw,lk->clhw", model.enc_weights[0].data, model.basis),
                     requires_grad=True)
    out = ad.as_tensor(x)
    for i, (w, b) in enumerate(zip([full, *model.enc_weights[1:]], model.enc_biases)):
        if i:
            out = ad.leaky_relu(out, 0.01)
        out = ad.conv2d(out, w, b, padding=padding)
    return ad.scaled_softmax(out, model.config.softmax_scale, axis=1), full


def train_autoencoder_per_patch(cube, config, seed) -> tuple[list[float], ConvAutoencoder]:
    """AE training on whole ps x ps patches through same-padded convs.

    The same seeds, shuffle, batches, loss and optimizer as
    `autoencoder.train_autoencoder`, with the loss read at each patch's
    center; training reads only the center's receptive cone instead.
    Returns the per-epoch mean losses and the trained model.
    """
    root = SplitMix64(seed)
    model = ConvAutoencoder(config, cube.bands, root.split(0))
    model.seed_from_spectra(cube.spectra())
    shuffle_rng = root.split(1)
    ps, half = config.patch_size, config.patch_size // 2
    padded = np.pad(cube.reflectance, ((half, half), (half, half), (0, 0)))
    centers = [(r, c) for r in range(cube.height) for c in range(cube.width)]
    optimizer = ad.Adam(model.parameters(), lr=config.learning_rate)
    history = []
    for epoch in range(config.epochs):
        order = shuffle_rng.permutation(len(centers))
        losses = []
        for start in range(0, len(centers), config.batch_size):
            sel = [centers[i] for i in order[start : start + config.batch_size]]
            batch = ad.Tensor(np.stack([padded[r : r + ps, c : c + ps].transpose(2, 0, 1)
                                        for r, c in sel]))
            recon = model.decode(model.encode(batch))
            loss = reconstruction_loss(batch, recon, config.mse_weight)
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


def write_table_per_row(path, header: list[str], keys, values, fmt: str = "%.9g") -> None:
    """`hsi.write_table` as it was: one `%` call and one line per row."""
    keys = np.asarray(keys, dtype=np.int64)
    values = np.asarray(values, dtype=np.float64)
    line = ",".join(["%d"] * keys.shape[1] + [fmt] * values.shape[1]) + "\n"
    with open(path, "w", encoding="utf-8") as f:
        f.write(",".join(header) + "\n")
        f.writelines(line % (*k, *v) for k, v in zip(keys.tolist(), values.tolist()))


def read_table_per_row(path, keys: list[str]) -> tuple[np.ndarray, np.ndarray, list[str]]:
    """`hsi.read_table` as it was: each line split and parsed on its own,
    in blocks of `hsi._block_rows(len(header))` rows whose field counts are checked
    before their values."""
    lines = Path(path).read_text(encoding="utf-8").split("\n")
    if lines.pop():
        raise ValueError(f"{path}: line {len(lines) + 1} does not end in a newline")
    header = lines[0].split(",") if lines else []
    k = len(keys)
    if header[:k] != keys:
        raise ValueError(f"{path}: expected header '{','.join(keys)},...'")
    n = len(lines) - 1
    ints = np.empty((n, k), dtype=np.int64)
    floats = np.empty((n, len(header) - k))
    step = hsi._block_rows(len(header))
    for b in range(0, n, step):
        rows = [line.split(",") for line in lines[1 + b : 1 + b + step]]
        for i, parts in enumerate(rows, start=b):
            if len(parts) != len(header):
                raise ValueError(f"{path}: line {i + 2} has {len(parts)} fields, "
                                 f"expected {len(header)}")
        for i, parts in enumerate(rows, start=b):
            try:
                ints[i] = [int(v) for v in parts[:k]]
                floats[i] = [float(v) for v in parts[k:]]
            except (ValueError, OverflowError):
                raise ValueError(f"{path}: line {i + 2} does not parse: "
                                 f"{lines[i + 1]!r}") from None
    if not np.isfinite(floats).all():
        i, j = np.argwhere(~np.isfinite(floats))[0]
        raise ValueError(f"{path}: line {i + 2} holds {float(floats[i, j])!r} "
                         f"in column {header[k + j]!r}")
    return ints, floats, header[k:]


def normalized_operator_scipy(graph) -> sp.csr_matrix:
    """D^{-1/2} (A + I) D^{-1/2} built with scipy.sparse, as `gcn` once built it."""
    n = graph.n_pixels
    both = np.vstack([graph.edges, graph.edges[:, ::-1]])
    sim = np.exp(-np.concatenate([graph.edge_weights, graph.edge_weights]))
    pairs, keep = np.unique(both, axis=0, return_index=True)
    rows = np.concatenate([pairs[:, 0], np.arange(n)])
    cols = np.concatenate([pairs[:, 1], np.arange(n)])
    vals = np.concatenate([sim[keep], np.ones(n)])
    a_hat = sp.coo_matrix((vals, (rows, cols)), shape=(n, n)).tocsr()
    inv_sqrt = 1.0 / np.sqrt(np.asarray(a_hat.sum(axis=1)).ravel())
    d = sp.diags(inv_sqrt)
    return (d @ a_hat @ d).tocsr()


def train_gcn_full_graph(graph, features, label_idx, label_targets, config, seed):
    """GCN training in float64 that computes every node's logits in every epoch.

    The same seeds, split, loss and optimizer as `gcn.train_gcn`, with
    the logits written as (A relu(A X W1)) W2 over the whole graph and
    the loss as the composite `(softplus(z) - t z).mean()` of the
    training rows.
    """
    root = SplitMix64(seed)
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
            h = ad.relu(ad.sparse_matmul(op, ad.Tensor(features)) @ model.w1)
            z_lab = (ad.sparse_matmul(op, h) @ model.w2)[label_idx]
            z, t = z_lab[train_rows], label_targets[train_rows]
            loss = (ad.softplus(z) - ad.Tensor(t) * z).mean()
        except ad.NonFiniteError as exc:
            raise ad.DivergenceError(epoch) from exc
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


def read_aew(path) -> dict[str, np.ndarray]:
    """Every record of an AEW1 checkpoint, in file order, read field by field
    from the layout the `checkpoint` module documents."""
    raw = Path(path).read_bytes()
    assert raw[:4] == b"AEW1"
    records, pos = {}, 4
    while pos < len(raw):
        (name_len,) = struct.unpack_from("<I", raw, pos)
        name = raw[pos + 4 : pos + 4 + name_len].decode("utf-8")
        pos += 4 + name_len
        (rank,) = struct.unpack_from("<I", raw, pos)
        dims = struct.unpack_from(f"<{rank}I", raw, pos + 4)
        pos += 4 + 4 * rank
        count = int(np.prod(dims))
        records[name] = np.frombuffer(raw, "<f8", count, pos).reshape(dims)
        pos += 8 * count
    return records


# -- whole-array forms of the blocked draws and writers -----------------------

_U64 = np.uint64


def _mix_whole(z):
    z = (z ^ (z >> _U64(30))) * _U64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> _U64(27))) * _U64(0x94D049BB133111EB)
    return z ^ (z >> _U64(31))


class SplitMix64Whole:
    """The splitmix64 stream drawn whole: each draw builds its full-size
    uint64 and float64 temporaries, one numpy expression per step."""

    def __init__(self, seed: int, counter: int = 0):
        self.seed = _U64(int(seed) & 0xFFFFFFFFFFFFFFFF)
        self.counter = _U64(counter)

    def raw(self, n: int) -> np.ndarray:
        with np.errstate(over="ignore"):
            idx = self.counter + np.arange(1, n + 1, dtype=np.uint64)
            out = _mix_whole(self.seed + idx * _U64(0x9E3779B97F4A7C15))
            self.counter += _U64(n)
        return out

    def split(self, key: int) -> "SplitMix64Whole":
        with np.errstate(over="ignore"):
            return SplitMix64Whole(int(_mix_whole(self.seed + _U64(key + 1)
                                                  * _U64(0x94D049BB133111EB))))

    def uniform(self, low=0.0, high=1.0, shape=()):
        n = int(np.prod(shape)) if shape else 1
        u = (self.raw(n) >> _U64(11)).astype(np.float64) / float(2**53)
        out = low + (high - low) * u
        return out.reshape(shape) if shape else float(out[0])

    def normal(self, shape=()):
        n = int(np.prod(shape)) if shape else 1
        m = (n + 1) // 2
        u1 = ((self.raw(m) >> _U64(11)).astype(np.float64) + 1.0) / float(2**53)
        u2 = (self.raw(m) >> _U64(11)).astype(np.float64) / float(2**53)
        r = np.sqrt(-2.0 * np.log(u1))
        z = np.concatenate([r * np.cos(2.0 * np.pi * u2), r * np.sin(2.0 * np.pi * u2)])[:n]
        return z.reshape(shape) if shape else float(z[0])

    def dirichlet_flat(self, shape, p: int) -> np.ndarray:
        e = -np.log(1.0 - self.uniform(shape=(*shape, p)))
        return e / e.sum(axis=-1, keepdims=True)


def save_cube_whole(cube, path) -> None:
    """An HSB file built as one bytes object: header plus the transposed payload."""
    h, w, l = cube.reflectance.shape
    payload = np.ascontiguousarray(np.transpose(cube.reflectance, (2, 0, 1)))
    Path(path).write_bytes(hsi.HSB_MAGIC + struct.pack("<IIII", h, w, l, 1)
                           + payload.astype("<f8").tobytes())


def extreme_pixel_indices_whole(spectra: np.ndarray, count: int) -> list[int]:
    """Successive projections with whole-array updates: each step builds the
    rank-1 update and the new residual as full-size arrays."""
    idx = [int(np.argmax(np.linalg.norm(spectra, axis=1)))]
    residual = spectra.astype(np.float64, copy=True)
    for _ in range(count - 1):
        v = residual[idx[-1]]
        norm = np.linalg.norm(v)
        if norm == 0:
            break
        v = v / norm
        residual = residual - np.outer(residual @ v, v)
        idx.append(int(np.argmax(np.linalg.norm(residual, axis=1))))
    while len(idx) < count:
        idx.append(idx[0])
    return idx
