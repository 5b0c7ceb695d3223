"""Convolutional autoencoder for abundance estimation and endmember extraction.

The encoder maps 9x9 spectral patches through four same-padded
convolutions to per-pixel abundance channels, closed by a scaled softmax
that enforces the sum-to-one and non-negativity constraints by
construction.  The decoder is by default a 1x1 convolution, the
per-pixel linear mixing model: each reconstructed spectrum is the
abundance-weighted sum of the decoder's columns.

The encoder's receptive-field radius, the sum of (k-1)/2 over its
kernels, may not exceed the patch half-width (the config checks it).
Then a patch center is encoded from the patch alone, never from the
zeros each layer pads beyond the patch edge, so it is the only pixel
of a patch with a full-context encoding: with the default kernels the
radius is exactly the half-width, and every other pixel's encoding is
truncated.  A wider decoder would rebuild the center from neighbouring
abundances whose encodings are truncated, and fit its weights to those.
The same condition makes inference cheap: encoding the zero-padded
image in row strips, each with a halo as wide as the patch half-width,
gives every pixel bit for bit the value its own patch's center gets.

Training cannot encode strips: each patch is zero-padded at its own
edge, so from layer 2 on a pixel's activations differ from patch to
patch.  Layer 1 is the exception, as its input is the image itself:
every patch holding a pixel projects it through the same weights.  So
a batch's layer 1 is `ad.patch_conv`: one GEMM over the U distinct
pixels its patches read, giving each pixel's kh*kw tap projections,
then a fixed 0/1 tap operator (`TapPattern`) that sums, for each of the
N*ps*ps patch pixels, the projections of its in-patch taps.  Taps that
leave the patch read the conv's zero padding and have no entry; the
image's own zero border is one shared zero pixel.  A batch of 64 9x9
patches on a 24x24 crop reads at most U = 577 pixels (the crop's 576
and the zero pixel) for its 5184 patch pixels, so the GEMM of Samson's
156-band layer 1, 5.2 of a batch's 6.1 forward GFLOP as a per-patch
conv, shrinks about nine-fold.  Scattered batches on large scenes
share less: U/P is about 0.74 on a 95x95 scene.

The decoder is strictly linear in the abundances, with weights clamped
non-negative after every optimizer step: sum-to-one abundances span an
affine subspace, so any normalization or bias hands the decoder an
offset that can absorb one endmember outright and collapse a channel.
Keeping the decoder offset-free anchors the mixing to its non-negative
columns; its response to a constant one-hot abundance field, read at
the patch center, defines the extracted endmember signatures.  Decoder
columns start from spectra sampled across the scene so every channel
begins with a distinct spectral role.
"""
from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import NamedTuple

import numpy as np
import scipy.sparse as sp

from . import autodiff as ad
from . import checkpoint
from .hsi import HsiCube
from .rng import SplitMix64


class DivergenceError(RuntimeError):
    """Training produced a non-finite loss."""

    def __init__(self, epoch: int):
        super().__init__(f"training diverged (non-finite loss) at epoch {epoch}")
        self.epoch = epoch


@dataclass
class AutoencoderConfig:
    """Architecture and training settings; encoder_filters ends with P."""

    encoder_filters: tuple[int, ...] = (128, 64, 32, 3)
    encoder_kernels: tuple[int, ...] = (5, 3, 3, 1)
    patch_size: int = 9
    softmax_scale: float = 5.0
    decoder_kernel: int = 1  # 1 = per-pixel linear mixing
    decoder_filters: int = 0  # band count; 0 means take it from the cube
    epochs: int = 60
    batch_size: int = 64
    learning_rate: float = 1e-3
    loss: str = "sad_plus_mse"  # sad | mse | sad_plus_mse
    mse_weight: float = 0.5
    seed: int = 0

    def __post_init__(self):
        self.encoder_filters = tuple(int(v) for v in self.encoder_filters)
        self.encoder_kernels = tuple(int(v) for v in self.encoder_kernels)
        if len(self.encoder_filters) != len(self.encoder_kernels):
            raise ValueError("encoder_filters and encoder_kernels lengths differ")
        if any(k % 2 == 0 or k < 1 for k in (*self.encoder_kernels, self.decoder_kernel)):
            raise ValueError("all kernels must be odd and positive")
        if self.patch_size % 2 == 0 or self.patch_size < 1:
            raise ValueError("patch_size must be odd and positive")
        radius = sum((k - 1) // 2 for k in self.encoder_kernels)
        if radius > self.patch_size // 2:
            raise ValueError(
                f"encoder receptive-field radius {radius} exceeds the patch half-width "
                f"{self.patch_size // 2}: shrink encoder_kernels or grow patch_size"
            )
        if self.softmax_scale <= 0:
            raise ValueError("softmax_scale must be positive")
        if self.loss not in ("sad", "mse", "sad_plus_mse"):
            raise ValueError(f"unknown loss {self.loss!r}")

    @property
    def endmembers(self) -> int:
        return self.encoder_filters[-1]


def extreme_pixel_indices(spectra: np.ndarray, count: int) -> list[int]:
    """Indices of successively most-extreme pixel spectra.

    Greedy orthogonal-projection search: start at the largest norm, then
    keep taking the pixel with the largest component orthogonal to the
    span of the selection so far.
    """
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
    while len(idx) < count:  # degenerate data: pad with the first pick
        idx.append(idx[0])
    return idx


# -- patch extraction ----------------------------------------------------------

def patch_centers(height: int, width: int) -> np.ndarray:
    """(H*W, 2) row-major coordinates of every pixel: each is a patch center."""
    rows, cols = np.divmod(np.arange(height * width), width)
    return np.stack([rows, cols], axis=1)


def _zero_padded(cube: HsiCube, patch_size: int) -> np.ndarray:
    """(H+ps-1, W+ps-1, L) reflectance, zero-padded by the patch half-width."""
    half = patch_size // 2
    return np.pad(cube.reflectance, ((half, half), (half, half), (0, 0)))


def _padded_windows(cube: HsiCube, patch_size: int, padded: np.ndarray | None = None
                    ) -> np.ndarray:
    """(H, W, L, ps, ps) view: window [r, c] is the patch centered at (r, c).

    `padded`, if given, is the cube's `_zero_padded` array to view.
    """
    if padded is None:
        padded = _zero_padded(cube, patch_size)
    return np.lib.stride_tricks.sliding_window_view(padded, (patch_size, patch_size), axis=(0, 1))


def extract_patches(cube: HsiCube, patch_size: int = 9) -> tuple[np.ndarray, np.ndarray]:
    """Every pixel's patch as (H*W, L, ps, ps), with the centers in row-major order.

    Borders are zero-padded so that every pixel is a patch center.
    """
    if cube.height < 1 or cube.width < 1:
        raise ValueError("empty cube")
    centers = patch_centers(cube.height, cube.width)
    win = _padded_windows(cube, patch_size)
    patches = win[centers[:, 0], centers[:, 1]]  # (N, L, ps, ps)
    return np.ascontiguousarray(patches), centers


class BatchTaps(NamedTuple):
    """One training batch's tap operator (see `TapPattern.batch`)."""

    pixel_ids: np.ndarray  # (U,) rows of the padded pixel table the patches read
    taps: sp.csr_matrix  # (N*ps*ps, U*k*k), row n*ps*ps + i*ps + j
    taps_t: sp.csc_matrix  # its transpose: the same three arrays read as CSC
    shape: tuple[int, int, int]  # (N, ps, ps)


class TapPattern:
    """Where each tap of a same-padded k x k conv reads inside a ps x ps patch.

    For every patch pixel (i, j) in row-major order the pattern lists the
    kernel taps t = u*k + v that land inside the patch, and the patch
    pixel (i+u-k//2, j+v-k//2) each reads; taps beyond the patch edge read
    the conv's zero padding and are left out.  It depends only on
    (ps, k), so it is built once per training run, and `batch` needs
    only one `np.unique` over the pixels a batch's patches hold and one
    gather of the pattern.  `ad.patch_conv` gives the operator's layout;
    a row's entries come in tap order.
    """

    def __init__(self, patch_size: int, kernel: int):
        ps, r = patch_size, kernel // 2
        i, j, u, v = np.meshgrid(*(np.arange(ps),) * 2, *(np.arange(kernel),) * 2,
                                 indexing="ij")
        a, b = i + u - r, j + v - r
        inside = ((a >= 0) & (a < ps) & (b >= 0) & (b < ps)).ravel()
        self.patch_size, self.n_taps = ps, kernel * kernel
        self._tap = (u * kernel + v).ravel()[inside]
        self._source = (a * ps + b).ravel()[inside]
        # entries come sorted by patch pixel: each pixel's row ends here
        self._row_ends = np.cumsum(np.bincount((i * ps + j).ravel()[inside],
                                               minlength=ps * ps))

    def batch(self, sources: np.ndarray) -> BatchTaps:
        """Tap operator of N patches; sources[n, a, b] is the pixel-table row
        under patch n's pixel (a, b)."""
        n, area = sources.shape[0], self.patch_size**2
        pixel_ids, local = np.unique(sources, return_inverse=True)
        indices = local.reshape(n, area)[:, self._source] * self.n_taps + self._tap
        indptr = np.arange(n)[:, None] * self._tap.size + self._row_ends
        indices = indices.reshape(-1).astype(np.int32)
        indptr = np.concatenate([[0], indptr.reshape(-1)]).astype(np.int32)
        data = np.ones(indices.size)
        rows, cols = n * area, pixel_ids.size * self.n_taps
        return BatchTaps(pixel_ids,
                         sp.csr_matrix((data, indices, indptr), shape=(rows, cols)),
                         sp.csc_matrix((data, indices, indptr), shape=(cols, rows)),
                         sources.shape)


def pixel_sources(height: int, width: int, patch_size: int) -> np.ndarray:
    """(H, W, ps, ps) windows of rows of the zero-padded image's (Hp*Wp, L) table.

    Window [r, c] holds, for each pixel of the patch centered at (r, c),
    the row of the image pixel under it, or row 0 where it lies in the
    padding: with ps > 1 that is the padded corner, a zero pixel, so a
    batch reads all its padding as one pixel.
    """
    half = patch_size // 2
    wp = width + 2 * half
    index = np.zeros((height + 2 * half, wp), dtype=np.intp)
    index[half : half + height, half : half + width] = (
        np.arange(half, half + height)[:, None] * wp + np.arange(half, half + width))
    return np.lib.stride_tricks.sliding_window_view(index, (patch_size, patch_size))


# -- model ---------------------------------------------------------------------

class ConvAutoencoder:
    """Encoder/decoder pair built on the autodiff tensor engine."""

    def __init__(self, config: AutoencoderConfig, bands: int, rng: SplitMix64):
        if config.decoder_filters and config.decoder_filters != bands:
            raise ValueError(
                f"config expects {config.decoder_filters} bands, cube has {bands}"
            )
        self.config = replace(config, decoder_filters=bands)
        self.bands = bands
        self.enc_weights: list[ad.Tensor] = []
        self.enc_biases: list[ad.Tensor] = []
        cin = bands
        for cout, k in zip(config.encoder_filters, config.encoder_kernels):
            fan_in, fan_out = cin * k * k, cout * k * k
            self.enc_weights.append(ad.glorot_uniform((cout, cin, k, k), fan_in, fan_out, rng))
            self.enc_biases.append(ad.Tensor(np.zeros(cout), requires_grad=True))
            cin = cout
        # zero logits at init: the scaled softmax starts uniform instead of
        # saturating on a random winner, which would kill its gradients
        self.enc_weights[-1].data[:] = 0.0
        p = config.endmembers
        k = config.decoder_kernel
        # all mass on the center tap (seed_decoder_columns fills it); a
        # kernel wider than 1 lets off-center taps grow, which blurs the
        # reconstruction of non-constant abundance fields and mixes in
        # abundances whose encodings saw the patch-edge zeros
        self.dec_weight = ad.Tensor(np.zeros((bands, p, k, k)), requires_grad=True)
        self.dec_weight.data[:, :, k // 2, k // 2] = 1.0 / p

    def parameters(self) -> list[ad.Tensor]:
        return [*self.enc_weights, *self.enc_biases, self.dec_weight]

    def seed_decoder_columns(self, spectra: np.ndarray) -> None:
        """Start each decoder column's center tap from an extreme pixel.

        Successive-projection selection: the largest-norm pixel first,
        then repeatedly the pixel with the largest residual outside the
        span of those already chosen.  Near-pure pixels are the extreme
        points of the mixing cone, so the decoder begins close to a
        plausible endmember bank instead of a random one.
        """
        k = self.config.decoder_kernel // 2
        picks = extreme_pixel_indices(spectra, self.config.endmembers)
        for j, idx in enumerate(picks):
            self.dec_weight.data[:, j, k, k] = spectra[idx]

    def encode(self, x) -> ad.Tensor:
        """Patches or image strips (N, L, h, w) -> abundances (N, P, h, w)."""
        w, b = self.enc_weights[0], self.enc_biases[0]
        return self._encode_after_first(ad.conv2d(ad.as_tensor(x), w, b, padding="same"))

    def encode_patches(self, table: np.ndarray, taps: BatchTaps) -> ad.Tensor:
        """`encode` of the batch of patches that `taps` cuts from a pixel table.

        Layer 1 is `ad.patch_conv` over the (M, L) `table` of the
        zero-padded image's pixels (see `TapPattern`); the other layers
        are the same same-padded convs as in `encode`.
        """
        w, b = self.enc_weights[0], self.enc_biases[0]
        return self._encode_after_first(
            ad.patch_conv(table, taps.pixel_ids, w, taps.taps, taps.taps_t, taps.shape, b))

    def _encode_after_first(self, out: ad.Tensor) -> ad.Tensor:
        for w, b in zip(self.enc_weights[1:], self.enc_biases[1:]):
            out = ad.conv2d(ad.leaky_relu(out, 0.01), w, b, padding="same")
        return ad.scaled_softmax(out, self.config.softmax_scale, axis=1)

    def decode(self, abundance) -> ad.Tensor:
        """Abundance batch (N, P, h, w) -> reconstruction (N, L, h, w).

        Exactly linear: a pixel with zero abundance reconstructs to zero.
        """
        return ad.conv2d(ad.as_tensor(abundance), self.dec_weight, None, padding="same")

    def forward(self, x) -> tuple[ad.Tensor, ad.Tensor]:
        a = self.encode(x)
        return a, self.decode(a)

    def clamp_decoder(self) -> None:
        np.maximum(self.dec_weight.data, 0.0, out=self.dec_weight.data)


def reconstruction_loss(patch: ad.Tensor, recon: ad.Tensor, kind: str,
                        mse_weight: float, valid: np.ndarray | None = None) -> ad.Tensor:
    """Training loss: spectral angle at the patch center, MSE over the patch.

    Only the patch center has a full-context encoding: with the default
    kernels the encoder's receptive field reaches the patch half-width,
    so every other pixel's abundances are computed partly from the zeros
    beyond the patch edge.
    The center is therefore where a reconstruction is to be judged.

    `valid` masks the MSE to in-image pixels (N, 1, ps, ps): sum-to-one
    abundances cannot reconstruct the border zero-padding, so scoring it
    would only push the decoder columns toward zero.
    """
    terms = []
    if kind in ("sad", "sad_plus_mse"):
        c = patch.shape[2] // 2
        a = recon[:, :, c, c]
        b = patch[:, :, c, c]
        dot = (a * b).sum(axis=1)
        na = ad.sqrt((a * a).sum(axis=1) + 1e-24)
        nb = ad.sqrt((b * b).sum(axis=1) + 1e-24)
        terms.append(ad.arccos(dot / (na * nb)).mean())
    if kind in ("mse", "sad_plus_mse"):
        err = (recon - patch) ** 2
        if valid is None:
            mse = err.mean()
        else:
            bands = patch.shape[1]
            mse = (err * valid).sum() * (1.0 / (valid.sum() * bands))
        terms.append(mse if kind == "mse" else mse_weight * mse)
    loss = terms[0]
    for t in terms[1:]:
        loss = loss + t
    return loss


def patch_validity_masks(height: int, width: int, patch_size: int) -> np.ndarray:
    """(H, W, ps, ps) windows marking which patch pixels lie in the image."""
    half = patch_size // 2
    padded = np.pad(np.ones((height, width)), half)
    return np.lib.stride_tricks.sliding_window_view(padded, (patch_size, patch_size))


# -- training ------------------------------------------------------------------

def assemble_abundance_stack(model: ConvAutoencoder, cube: HsiCube,
                             strip_pixels: int = 4096) -> np.ndarray:
    """Every pixel encoded as the center of its zero-padded patch -> (H, W, P).

    The image is padded once by the patch half-width and encoded in row
    strips of about `strip_pixels` output pixels, each with a halo of
    half-width rows above and below; halo and padding are cropped off.
    This equals the per-patch encode bit for bit: the receptive-field
    radius is at most the half-width, so a center reads only values that
    its patch holds too, and each is computed by the same arithmetic.
    The budget bounds the strip buffers at any scene size.
    """
    half = model.config.patch_size // 2
    h, w = cube.height, cube.width
    padded = np.pad(cube.reflectance.transpose(2, 0, 1), ((0, 0), (half, half), (half, half)))
    rows = max(1, strip_pixels // w)
    stack = np.empty((h, w, model.config.endmembers))
    with ad.no_grad():
        for r0 in range(0, h, rows):
            r1 = min(h, r0 + rows)
            enc = model.encode(padded[None, :, r0 : r1 + 2 * half]).data[0]
            stack[r0:r1] = enc[:, half : half + r1 - r0, half : half + w].transpose(1, 2, 0)
    return stack


def endmembers_from_decoder(model: ConvAutoencoder) -> np.ndarray:
    """Signature matrix (L x P): decoder response to one-hot abundances.

    Column j is the decoder output at the patch center for a spatially
    constant field that is 1 in channel j and 0 elsewhere; with the
    linear decoder this equals the summed taps of weight channel j (the
    single tap for the default 1x1 decoder), so non-negativity is
    inherited from the weight clamp.
    """
    p = model.config.endmembers
    ps = model.config.patch_size
    fields = np.zeros((p, p, ps, ps))
    for j in range(p):
        fields[j, j] = 1.0
    with ad.no_grad():
        out = model.decode(fields)
    c = ps // 2
    return np.maximum(out.data[:, :, c, c].T, 0.0)


def train_autoencoder(cube: HsiCube, config: AutoencoderConfig,
                      ) -> tuple[np.ndarray, np.ndarray, list[float], ConvAutoencoder]:
    """Train on every pixel's patch; returns endmembers, maps, loss history.

    Deterministic per config.seed.  The abundance stack is assembled from
    final-epoch weights; per-epoch mean losses form the history.
    """
    root = SplitMix64(config.seed)
    model = ConvAutoencoder(config, cube.bands, root.split(0))
    model.seed_decoder_columns(cube.spectra())
    shuffle_rng = root.split(1)
    ps = config.patch_size
    centers = patch_centers(cube.height, cube.width)
    padded = _zero_padded(cube, ps)
    win = _padded_windows(cube, ps, padded)
    table = padded.reshape(-1, cube.bands)
    masks = patch_validity_masks(cube.height, cube.width, ps)
    # layer 1 reads the image itself: see TapPattern and ad.patch_conv
    pattern = TapPattern(ps, config.encoder_kernels[0])
    sources = pixel_sources(cube.height, cube.width, ps)
    n = len(centers)
    params = model.parameters()
    optimizer = ad.Adam(params, lr=config.learning_rate)
    history: list[float] = []
    for epoch in range(config.epochs):
        order = shuffle_rng.permutation(n)
        batch_losses = []
        try:
            for start in range(0, n, config.batch_size):
                sel = centers[order[start : start + config.batch_size]]
                batch = ad.Tensor(np.ascontiguousarray(win[sel[:, 0], sel[:, 1]]))
                valid = masks[sel[:, 0], sel[:, 1]][:, None]
                taps = pattern.batch(sources[sel[:, 0], sel[:, 1]])
                recon = model.decode(model.encode_patches(table, taps))
                loss = reconstruction_loss(batch, recon, config.loss,
                                           config.mse_weight, valid)
                grads = ad.backward(loss)
                optimizer.step(grads)
                model.clamp_decoder()
                batch_losses.append(loss.item())
        except ad.NonFiniteError as exc:
            raise DivergenceError(epoch) from exc
        epoch_loss = float(np.mean(batch_losses))
        if not np.isfinite(epoch_loss):
            raise DivergenceError(epoch)
        history.append(epoch_loss)
    stack = assemble_abundance_stack(model, cube)
    endmembers = endmembers_from_decoder(model)
    return endmembers, stack, history, model


# -- checkpointing -------------------------------------------------------------

def save_autoencoder(model: ConvAutoencoder, path) -> None:
    tensors = {}
    for i, (w, b) in enumerate(zip(model.enc_weights, model.enc_biases)):
        tensors[f"enc{i}.weight"] = w.data
        tensors[f"enc{i}.bias"] = b.data
    tensors["dec.weight"] = model.dec_weight.data
    checkpoint.save_tensors(tensors, path)


def load_autoencoder(path, config: AutoencoderConfig, bands: int) -> ConvAutoencoder:
    tensors = checkpoint.load_tensors(path)
    model = ConvAutoencoder(config, bands, SplitMix64(0))
    for i in range(len(model.enc_weights)):
        model.enc_weights[i].data = tensors[f"enc{i}.weight"]
        model.enc_biases[i].data = tensors[f"enc{i}.bias"]
    model.dec_weight.data = tensors["dec.weight"]
    return model
