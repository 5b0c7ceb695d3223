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

import numpy as np

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

def _tile_axis(extent: int, stride: int) -> np.ndarray:
    """Centered tiling: every pixel at stride 1, symmetric margins otherwise."""
    n = -(-extent // stride)
    offset = (stride - 1 - (n * stride - extent)) // 2
    return offset + stride * np.arange(n)


def patch_centers(height: int, width: int, stride: int = 1) -> np.ndarray:
    rows = _tile_axis(height, stride)
    cols = _tile_axis(width, stride)
    return np.array([(r, c) for r in rows for c in cols], dtype=np.int64)


def _padded_windows(cube: HsiCube, patch_size: int) -> np.ndarray:
    """(H, W, L, ps, ps) view: window [r, c] is the patch centered at (r, c)."""
    half = patch_size // 2
    padded = np.pad(cube.reflectance, ((half, half), (half, half), (0, 0)))
    return np.lib.stride_tricks.sliding_window_view(padded, (patch_size, patch_size), axis=(0, 1))


def extract_patches(cube: HsiCube, patch_size: int = 9,
                    stride: int = 1) -> tuple[np.ndarray, np.ndarray]:
    """All patches as (N, L, ps, ps) with their center coordinates.

    Borders are zero-padded so that at stride 1 every pixel is a patch
    center; larger strides tile the image with symmetric margins.
    """
    if cube.height < 1 or cube.width < 1:
        raise ValueError("empty cube")
    centers = patch_centers(cube.height, cube.width, stride)
    win = _padded_windows(cube, patch_size)
    patches = win[centers[:, 0], centers[:, 1]]  # (N, L, ps, ps)
    return np.ascontiguousarray(patches), centers


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
        out = ad.as_tensor(x)
        last = len(self.enc_weights) - 1
        for i, (w, b) in enumerate(zip(self.enc_weights, self.enc_biases)):
            out = ad.conv2d(out, w, b, padding="same")
            if i < last:
                out = ad.leaky_relu(out, 0.01)
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
    """Train on all stride-1 patches; returns endmembers, maps, loss history.

    Deterministic per config.seed.  The abundance stack is assembled from
    final-epoch weights; per-epoch mean losses form the history.
    """
    root = SplitMix64(config.seed)
    model = ConvAutoencoder(config, cube.bands, root.split(0))
    model.seed_decoder_columns(cube.spectra())
    shuffle_rng = root.split(1)
    ps = config.patch_size
    centers = patch_centers(cube.height, cube.width, 1)
    win = _padded_windows(cube, ps)
    masks = patch_validity_masks(cube.height, cube.width, ps)
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
                _, recon = model.forward(batch)
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
