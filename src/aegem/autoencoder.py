"""Convolutional autoencoder for abundance estimation and endmember extraction.

The encoder maps a pixel's spectral neighbourhood through a stack of
convolutions to per-pixel abundance channels, closed by a scaled softmax
that enforces the sum-to-one and non-negativity constraints by
construction.  The decoder is by default a 1x1 convolution, the
per-pixel linear mixing model: each reconstructed spectrum is the
abundance-weighted sum of the decoder's columns.

A pixel's abundances read the pixels within the encoder's receptive-field
radius r, the sum of (k-1)/2 over its kernels, and its reconstruction
reads those within r + decoder_kernel//2: its receptive cone.  Training
reads exactly that cone.  Each shuffled center's window, of width
2*(r + decoder_kernel//2) + 1, is cut from the image zero-padded by its
half-width, and every encoder layer and the decoder run as `valid`
convolutions, which shrink the window to the one reconstructed center:
9x9 -> 5x5 -> 3x3 -> 1x1 -> 1x1 with the default kernels.  The loss
scores that center alone.  The paper trains on 9x9 patches, and in a
patch zero-padded at its own edge only the center is encoded from full
context: every other pixel's encoding reads the zeros beyond the patch
edge.  An MSE over the whole patch would fit the decoder to 80 such
truncated encodings, so the MSE, like the spectral angle, is taken at
the center only.  Then a patch adds nothing beyond its center's cone:
while patch_size - 2r >= decoder_kernel (the config checks it) the cone
lies inside the patch, and training on the cone gives the patch
training's weights to round-off.

The encoder reads a pixel's spectra through a fixed orthonormal basis V
(L x k, k = min(P, L)): the top k eigenvectors of the uncentred XᵀX of
the image's spectra, set once per run (`spectral_basis`).  Layer 1
convolves the coordinates z = Vᵀx, a fixed 1x1 conv, with its own
weights W' of shape (C, k, kh, kw), set at seeding to W ×_band V, the
Glorot draw W over every band mapped onto the basis.  conv(Vᵀx, W') =
conv(x, W' Vᵀ) for any x: the loss is that of the full-band layer W' Vᵀ,
and the gradient of W' is that layer's gradient gW mapped onto the
basis, gW ×_band V.  Under the linear mixing model a scene of P
endmembers spans P spectral directions, so without noise every spectrum
x lies in span(V), and so does gW, a sum of spectra times output
gradients: a plain gradient step on W' is then the full-band step in
exact arithmetic.  Adam's steps are not, since Adam scales each weight's
step by that weight's own moments, which no rotation of the band axis
preserves (Kingma & Ba 2015).  Adam updates k/L of a full-band layer 1's
weights (k = 3 of L = 156 on Samson), and layer 1 costs k/L of a
full-band one.  With noise, the part of x outside span(V) is
mostly noise, and the encoder no longer reads it: the signal-subspace
step of VCA (Nascimento & Bioucas-Dias 2005) and HySime (Bioucas-Dias &
Nascimento 2008).  The decoder, the loss, inference's input and the
endmembers keep all L bands.

The training steps are `autodiff.fit`'s, in float32 as its docstring
sets out; inference, the endmembers and the checkpoint stay float64,
and inference is about 1 % of a run.  Each encoder layer but the last is
one conv node with its leaky ReLU inside (`autodiff.conv2d`'s `leaky`):
with four encoder layers a step records 7 nodes, three of those, the
last encoder conv, the softmax, the decoder's conv and the fused loss.

Inference encodes the image zero-padded by the patch half-width in row
strips with a halo as wide, through `same`-padded convs (see
`assemble_abundance_stack`).  Every pixel then gets bit for bit the value
its own zero-padded patch's center gets from the same convs.  `valid`
convs on the strips would compute the same sums, but their GEMMs see
other column counts and round some columns differently in the last
bits, so they would lose that exact identity and save nothing that
matters in a stage this small; a trained model's window encode and its
strips agree to round-off either way.

The decoder is strictly linear in the abundances, with weights clamped
non-negative after every optimizer step: sum-to-one abundances span an
affine subspace, so any normalization or bias hands the decoder an
offset that can absorb one endmember outright and collapse a channel.
Keeping the decoder offset-free anchors the mixing to its non-negative
columns; its response to a constant one-hot abundance field, which is
each channel's taps summed, defines the extracted endmember signatures
(`endmembers_from_decoder`).  Decoder columns start from spectra
sampled across the scene so every channel begins with a distinct
spectral role.

`save_autoencoder` writes the trained parameters and V as an AEW1
checkpoint; nothing in the package reads one back (see `checkpoint`).
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from . import checkpoint
from .hsi import HsiCube, pixel_coordinates, row_blocks, row_norms
from .rng import SplitMix64


@dataclass
class AutoencoderConfig:
    """Architecture and training settings; encoder_filters ends with P.

    `patch_size` is the paper's patch width, and only bounds the encoder:
    patch_size - 2*radius >= decoder_kernel, so that a patch holds its
    center's whole receptive cone.  Training reads that cone and scores
    the center alone, so inside the bound patch_size changes no result.
    `patch_size` and `decoder_kernel` stay as fields until the benchmark's
    workloads, which pass both as keyword arguments, stop passing them.
    The loss is SAD + mse_weight * MSE; mse_weight = 0 is pure SAD.
    """

    encoder_filters: tuple[int, ...] = (128, 64, 32, 3)
    encoder_kernels: tuple[int, ...] = (5, 3, 3, 1)
    patch_size: int = 9
    softmax_scale: float = 5.0
    decoder_kernel: int = 1  # 1 = per-pixel linear mixing
    epochs: int = 60
    batch_size: int = 64
    learning_rate: float = 1e-3
    mse_weight: float = 0.5

    def __post_init__(self):
        self.encoder_filters = tuple(int(v) for v in self.encoder_filters)
        self.encoder_kernels = tuple(int(v) for v in self.encoder_kernels)
        if len(self.encoder_filters) != len(self.encoder_kernels):
            raise ValueError("encoder_filters and encoder_kernels lengths differ")
        if min(self.encoder_filters) < 1:
            raise ValueError(f"encoder_filters must all be >= 1, got {self.encoder_filters}")
        if any(k % 2 == 0 or k < 1 for k in (*self.encoder_kernels, self.decoder_kernel)):
            raise ValueError("all kernels must be odd and positive")
        if self.patch_size % 2 == 0 or self.patch_size < 1:
            raise ValueError("patch_size must be odd and positive")
        room = self.patch_size - 2 * self.radius
        if room < self.decoder_kernel:
            raise ValueError(
                f"patch_size - 2*radius = {self.patch_size} - 2*{self.radius} = {room} is "
                f"less than decoder_kernel {self.decoder_kernel}: the patch cannot hold its "
                "center's receptive cone; shrink encoder_kernels or decoder_kernel, or grow "
                "patch_size"
            )
        if not 0 < self.softmax_scale < math.inf:
            raise ValueError("softmax_scale must be positive and finite, "
                             f"got {self.softmax_scale!r}")
        ad.check_schedule("autoencoder", self.epochs, self.learning_rate)
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {self.batch_size}")
        if not 0 <= self.mse_weight < math.inf:
            raise ValueError(f"mse_weight must be finite and >= 0, got {self.mse_weight!r}")

    @property
    def endmembers(self) -> int:
        return self.encoder_filters[-1]

    @property
    def radius(self) -> int:
        """The encoder's receptive-field radius: the sum of (k-1)/2 over its kernels."""
        return sum((k - 1) // 2 for k in self.encoder_kernels)


def extreme_pixel_indices(spectra: np.ndarray, count: int) -> list[int]:
    """Indices of successively most-extreme pixel spectra.

    Greedy orthogonal-projection search: start at the largest norm, then
    keep taking the pixel with the largest component orthogonal to the
    span of the selection so far.  The residual is one float64 copy of
    the spectra, updated in place: each rank-1 update is subtracted in
    `row_blocks`, so its scratch is one block, and the row norms are
    `row_norms`'.
    """
    idx = [int(np.argmax(row_norms(spectra)))]
    residual = spectra.astype(np.float64, copy=True)
    for _ in range(count - 1):
        v = residual[idx[-1]]
        norm = np.linalg.norm(v)
        if norm == 0:
            break
        v = v / norm
        # one GEMV over every row: a product per row block rounds some rows
        # otherwise (seen with odd block sizes and a one-row last block)
        proj = residual @ v
        for rows in row_blocks(len(residual), residual.shape[1] * residual.itemsize):
            residual[rows] -= np.outer(proj[rows], v)
        idx.append(int(np.argmax(row_norms(residual))))
    while len(idx) < count:  # degenerate data: pad with the first pick
        idx.append(idx[0])
    return idx


def spectral_basis(spectra: np.ndarray, endmembers: int) -> np.ndarray:
    """(L, k) orthonormal basis of the spectra's k-dimensional signal subspace.

    k = min(endmembers, L).  The columns are the eigenvectors of the
    uncentred L x L matrix XᵀX of the (N, L) spectra X, largest eigenvalue
    first, each signed so that its largest-magnitude entry is positive: the
    P-dimensional projection of VCA (Nascimento & Bioucas-Dias 2005).
    Under linear mixing without noise the spectra lie in this span.
    """
    x = np.asarray(spectra, dtype=np.float64)
    k = min(endmembers, x.shape[1])
    _, vectors = np.linalg.eigh(x.T @ x)
    basis = vectors[:, ::-1][:, :k]
    peak = np.abs(basis).argmax(axis=0)
    return basis * np.sign(basis[peak, np.arange(k)])


# -- patch extraction ----------------------------------------------------------

def training_windows(reflectance: np.ndarray, config: AutoencoderConfig) -> np.ndarray:
    """(H, W, L, w, w) view of an (H, W, L) image, in its dtype: window
    [r, c] is pixel (r, c)'s receptive cone.

    w = 2*(radius + decoder_kernel//2) + 1, cut from the image zero-padded
    by w//2: `valid` convs through the encoder and the decoder reduce a
    window to its center's reconstruction.
    """
    half = config.radius + config.decoder_kernel // 2
    padded = np.pad(reflectance, ((half, half), (half, half), (0, 0)))
    return np.lib.stride_tricks.sliding_window_view(padded, (2 * half + 1,) * 2, axis=(0, 1))


# -- model ---------------------------------------------------------------------

class ConvAutoencoder:
    """Encoder/decoder pair built on the autodiff tensor engine.

    `basis` is the fixed (L, k) orthonormal basis V the encoder reads its
    input through (see the module docstring): the identity, every band,
    until `seed_from_spectra` sets it from the image.  Layer 1's weights
    `enc_weights[0]` are W', (C, k, kh, kw), which convolve the
    coordinates Vᵀx; they are the full-band draw (C, L, kh, kw) until
    seeding maps them onto V.  The loss and the gradient are those of the
    full-band layer W' Vᵀ, its gradient mapped onto V; Adam's steps on W'
    are not the full-band ones.
    """

    def __init__(self, config: AutoencoderConfig, bands: int, rng: SplitMix64):
        self.config = config
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
        # all mass on the center tap (seed_from_spectra fills it); a
        # kernel wider than 1 lets off-center taps grow, which blurs the
        # reconstruction of non-constant abundance fields
        self.dec_weight = ad.Tensor(np.zeros((bands, p, k, k)), requires_grad=True)
        self.dec_weight.data[:, :, k // 2, k // 2] = 1.0 / p
        self.basis = np.eye(bands)  # every band, until seed_from_spectra sets V

    def parameters(self) -> list[ad.Tensor]:
        return [*self.enc_weights, *self.enc_biases, self.dec_weight]

    def seed_from_spectra(self, spectra: np.ndarray) -> None:
        """Set the spectral basis V, map layer 1 onto it and start each decoder
        column from an extreme pixel.

        V is `spectral_basis(spectra, P)`, and layer 1's weights, on a
        fresh model the Glorot draw W over every band, become W' = W ×_band
        V, (C, k, kh, kw).  The decoder columns come from
        successive-projection selection: the largest-norm pixel first, then
        repeatedly the pixel with the largest residual outside the span of
        those already chosen.  Near-pure pixels are the extreme points of
        the mixing cone, so the decoder begins close to a plausible
        endmember bank instead of a random one.
        """
        self.basis = spectral_basis(spectra, self.config.endmembers)
        first = self.enc_weights[0]
        first.data = np.einsum("clhw,lk->ckhw", first.data, self.basis)
        k = self.config.decoder_kernel // 2
        picks = extreme_pixel_indices(spectra, self.config.endmembers)
        for j, idx in enumerate(picks):
            self.dec_weight.data[:, j, k, k] = spectra[idx]

    def project(self, x) -> ad.Tensor:
        """Spectra (N, L, h, w) -> their coordinates z = Vᵀx (N, k, h, w).

        A fixed 1x1 conv with no gradient, in x's dtype.  Its GEMM has the
        weights on the left, as every conv's has, so a pixel's z is the
        same to the bit in a strip and in its own patch.
        """
        x = ad.as_tensor(x)
        v = self.basis.astype(x.data.dtype, copy=False)
        return ad.conv2d(x, ad.Tensor(v.T[:, :, None, None]), None, padding="valid")

    def encode(self, x, padding: str = "same") -> ad.Tensor:
        """Windows or image strips (N, L, h, w) -> abundances (N, P, h', w').

        `same` convs keep h x w; `valid` convs shrink both by 2*radius.
        """
        return self.encode_subspace(self.project(x), padding)

    def encode_subspace(self, z, padding: str = "same") -> ad.Tensor:
        """`encode` from the coordinates z = Vᵀx (N, k, h, w): layer 1
        convolves z with its weights W' directly.  Every layer but the last
        is followed by a leaky ReLU of slope 0.01, taken inside its conv's
        node."""
        out = ad.as_tensor(z)
        last = len(self.enc_weights) - 1
        for i, (w, b) in enumerate(zip(self.enc_weights, self.enc_biases)):
            out = ad.conv2d(out, w, b, padding=padding, leaky=0.01 if i < last else None)
        return ad.scaled_softmax(out, self.config.softmax_scale, axis=1)

    def decode(self, abundance, padding: str = "same") -> ad.Tensor:
        """Abundance batch (N, P, h, w) -> reconstruction (N, L, h', w').

        Exactly linear: a pixel with zero abundance reconstructs to zero.
        """
        return ad.conv2d(ad.as_tensor(abundance), self.dec_weight, None, padding=padding)

    def clamp_decoder(self) -> None:
        np.maximum(self.dec_weight.data, 0.0, out=self.dec_weight.data)


def reconstruction_loss(target, recon: ad.Tensor, mse_weight: float) -> ad.Tensor:
    """Training loss at the center pixel: SAD + mse_weight * MSE, one op.

    `target` and `recon` are (N, L, h, w) with h and w odd, and only
    their center pixels are scored: training reconstructs only the
    center of each window, the one pixel of a patch encoded from its
    full receptive field (see the module docstring).  mse_weight = 0 is
    pure SAD.  With a the centers of recon and b those of target, SAD is
    the mean over pixels of arccos(a·b / (|a| |b|)), each norm
    sqrt(sum of squares + 1e-24) and the cosine clamped into
    [-1 + 1e-7, 1 - 1e-7], where its gradient is 0 (a saturated cosine
    keeps a finite gradient); MSE is the mean of (a - b)² over pixels and
    bands.  Its value and its gradient are bit-equal to those of the same
    loss composed of `Tensor` ops: the forward pass takes that
    composite's numpy expressions in its order, and the VJP repeats the
    composite tape's arithmetic step by step, its four terms on a summed
    in the tape's order.  One node stands for the composite's 18, and 6
    untracked ones on the target.  The target is a constant: only recon
    gets a gradient.
    """
    ch, cw = recon.shape[2] // 2, recon.shape[3] // 2
    # a non-finite center fails here, as the composite's first op fails on it
    a = ad.check_finite(recon.data[:, :, ch, cw], "reconstruction_loss")
    b = ad.check_finite(ad.as_tensor(target).data[:, :, ch, cw], "reconstruction_loss")
    dot = (a * b).sum(axis=1)
    na = np.sqrt((a * a).sum(axis=1) + 1e-24)
    nb = np.sqrt((b * b).sum(axis=1) + 1e-24)
    nanb = na * nb
    cos = dot / nanb
    clip_eps = 1e-7
    u = np.clip(cos, -1.0 + clip_eps, 1.0 - clip_eps)
    inside = (cos > -1.0 + clip_eps) & (cos < 1.0 - clip_eps)
    grad_u = np.where(inside, -1.0 / np.sqrt(1.0 - u**2), 0.0)
    sad = np.arccos(u).sum() * (1.0 / cos.size)
    diff = a - b
    sq = diff**2
    weight = np.asarray(mse_weight, dtype=sq.dtype)
    mse = sq.sum() * (1.0 / sq.size)

    def vjp(g):
        g_cos = (g * (1.0 / cos.size)) * grad_u
        g_dot = g_cos / nanb
        g_na = -g_cos * dot / nanb**2 * nb
        g_norm2 = g_na * 0.5 / na
        ga = g_dot[:, None] * b
        # a * a's two factors add one term each, as the tape adds them
        ga = ga + g_norm2[:, None] * a
        ga = ga + g_norm2[:, None] * a
        ga = ga + (g * weight * (1.0 / sq.size)) * 2 * diff
        grad = np.zeros_like(recon.data)
        grad[:, :, ch, cw] += ga
        return grad

    return ad.Tensor._from_op(np.asarray(sad + mse * weight), (recon,), (vjp,),
                              "reconstruction_loss")


# -- training ------------------------------------------------------------------

def assemble_abundance_stack(model: ConvAutoencoder, cube: HsiCube,
                             strip_pixels: int = 4096) -> np.ndarray:
    """Every pixel encoded as the center of its zero-padded patch -> (H, W, P).

    The image is encoded in row strips of about `strip_pixels` output
    pixels, each with a halo of half-width rows above and below, from a
    slab of the image zero-padded by the patch half-width: only the
    strip's slab is built, never the whole padded image.  Halo and
    padding are cropped off.  This equals the per-patch encode bit for
    bit: the receptive-field radius is at most the half-width, so a
    center reads only values that its patch holds too, and each is
    computed by the same arithmetic.  The budget bounds the strip buffers
    at any scene size.
    """
    half = model.config.patch_size // 2
    h, w = cube.height, cube.width
    bands = cube.reflectance.transpose(2, 0, 1)
    rows = max(1, strip_pixels // w)
    stack = np.empty((h, w, model.config.endmembers))
    with ad.no_grad():
        for r0 in range(0, h, rows):
            r1 = min(h, r0 + rows)
            # slab row i is image row r0 - half + i; rows outside the image stay 0
            lo, hi = max(r0 - half, 0), min(r1 + half, h)
            slab = np.zeros((cube.bands, r1 - r0 + 2 * half, w + 2 * half))
            slab[:, lo - r0 + half : hi - r0 + half, half : half + w] = bands[:, lo:hi]
            enc = model.encode(slab[None]).data[0]
            stack[r0:r1] = enc[:, half : half + r1 - r0, half : half + w].transpose(1, 2, 0)
    return stack


def endmembers_from_decoder(model: ConvAutoencoder) -> np.ndarray:
    """Signature matrix (L x P): each decoder channel's taps summed.

    Column j is the decoder's response to a spatially constant field
    that is 1 in channel j and 0 elsewhere, read away from the field's
    edge; with the linear decoder that is the sum of weight channel j's
    taps (the single tap for the default 1x1 decoder), so non-negativity
    is inherited from the weight clamp.  The taps are added one at a
    time in (row, column) order, the order in which the decoder's conv
    adds them, so the sum is that response to the bit.
    """
    w = model.dec_weight.data
    em = np.zeros(w.shape[:2])
    for u in range(w.shape[2]):
        for v in range(w.shape[3]):
            em += w[:, :, u, v]
    return np.maximum(em, 0.0)


def train_autoencoder(cube: HsiCube, config: AutoencoderConfig, seed: int,
                      ) -> tuple[np.ndarray, np.ndarray, list[float], ConvAutoencoder]:
    """Train on every pixel's receptive cone; returns endmembers, maps, loss history.

    The epoch loop (`_train_epochs`) runs in float32, as `autodiff.fit`
    sets out; the returned model, the abundance stack from its final-epoch
    weights and the endmembers are float64.  Deterministic per seed.
    """
    root = SplitMix64(seed)
    model = ConvAutoencoder(config, cube.bands, root.split(0))
    model.seed_from_spectra(cube.spectra())
    params = model.parameters()
    for p in params:
        p.data = p.data.astype(np.float32)
    history = _train_epochs(model, cube.reflectance.astype(np.float32), root.split(1))
    for p in params:
        p.data = p.data.astype(np.float64)
    stack = assemble_abundance_stack(model, cube)
    endmembers = endmembers_from_decoder(model)
    return endmembers, stack, history, model


def _train_epochs(model: ConvAutoencoder, reflectance: np.ndarray,
                  shuffle_rng: SplitMix64) -> list[float]:
    """config.epochs of `ad.fit` on an (H, W, L) image; returns per-epoch mean losses.

    Each epoch visits the pixels in a shuffled order, in batches: a
    batch's `training_windows` run through `valid` convs down to their
    centers' reconstructions, which the loss scores against the center
    spectra.  The windows are cut from the image's coordinates z = Vᵀx,
    projected once, so layer 1 reads k channels instead of L; the loss
    reads the full-band spectra.  Every step runs in the dtype of the
    image and the parameters, which should agree.  A non-finite image
    fails as a divergence at epoch 0.
    """
    config = model.config
    height, width, _ = reflectance.shape
    centers = pixel_coordinates(height, width)
    try:
        coords = model.project(reflectance.transpose(2, 0, 1)[None]).data[0]
    except ad.NonFiniteError as exc:
        raise ad.DivergenceError(0) from exc
    windows = training_windows(coords.transpose(1, 2, 0), config)
    n = len(centers)

    def epoch(_, optimizer: ad.Adam) -> float:
        order = shuffle_rng.permutation(n)
        batch_losses = []
        for start in range(0, n, config.batch_size):
            r, c = centers[order[start : start + config.batch_size]].T
            recon = model.decode(model.encode_subspace(windows[r, c], "valid"), "valid")
            loss = reconstruction_loss(reflectance[r, c, :, None, None], recon,
                                       config.mse_weight)
            # the gradients live until the next step's backward: freed at once,
            # they let malloc hand a Samson-shaped step's heap back to the OS,
            # and every step faults it in again (`autodiff`, "Memory")
            grads = ad.backward(loss)
            optimizer.step(grads)
            model.clamp_decoder()
            batch_losses.append(loss.item())
        return float(np.mean(batch_losses))

    return ad.fit(model.parameters(), config.epochs, config.learning_rate, epoch)


# -- checkpointing -------------------------------------------------------------

def save_autoencoder(model: ConvAutoencoder, path) -> None:
    """Every parameter and the basis V, under the record names `checkpoint` lists."""
    tensors = {}
    for i, (w, b) in enumerate(zip(model.enc_weights, model.enc_biases)):
        tensors[f"enc{i}.weight"] = w.data
        tensors[f"enc{i}.bias"] = b.data
    tensors["dec.weight"] = model.dec_weight.data
    tensors["basis"] = model.basis
    checkpoint.save_tensors(tensors, path)

