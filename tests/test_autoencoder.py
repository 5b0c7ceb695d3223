"""Patch extraction, encoder constraints, decoder linearity, training behavior."""
import numpy as np
import pytest

from aegem import autodiff as ad
from aegem.autoencoder import (AutoencoderConfig, ConvAutoencoder, DivergenceError,
                               assemble_abundance_stack, endmembers_from_decoder,
                               extract_patches, load_autoencoder, patch_centers,
                               reconstruction_loss, save_autoencoder,
                               train_autoencoder)
from aegem.hsi import HsiCube, SceneSpec, normalize, synthesize_scene
from aegem.metrics import apply_match, match_endmembers, sad
from aegem.rng import SplitMix64
from oracles import abundance_stack_per_patch, train_autoencoder_per_patch


SMALL_CONFIG = AutoencoderConfig(
    encoder_filters=(16, 8, 4, 2),
    encoder_kernels=(5, 3, 3, 1),
    epochs=40,
    batch_size=128,
    learning_rate=3e-3,
    seed=5,
)


@pytest.fixture(scope="module")
def trained():
    """One real training run on a small noiseless two-material scene."""
    cube, gt = synthesize_scene(SceneSpec(16, 16, 12, 2, smoothness=1.2, seed=3))
    ncube = normalize(cube)
    endmembers, stack, history, model = train_autoencoder(ncube, SMALL_CONFIG)
    return ncube, gt, endmembers, stack, history, model


# -- config ---------------------------------------------------------------------

def test_config_validation():
    with pytest.raises(ValueError, match="odd"):
        AutoencoderConfig(encoder_kernels=(4, 3, 3, 1))
    with pytest.raises(ValueError, match="lengths"):
        AutoencoderConfig(encoder_filters=(8, 3), encoder_kernels=(3, 3, 1))
    with pytest.raises(ValueError, match="loss"):
        AutoencoderConfig(loss="huber")
    # a patch center would read the zeros each layer pads beyond the patch
    with pytest.raises(ValueError, match="radius 5 exceeds the patch half-width 4"):
        AutoencoderConfig(encoder_kernels=(5, 5, 3, 1), patch_size=9)
    assert AutoencoderConfig().endmembers == 3


# -- patch extraction -------------------------------------------------------------

def test_patch_count_exact_tiling():
    cube = HsiCube(np.random.default_rng(0).uniform(size=(9, 9, 4)))
    patches, centers = extract_patches(cube, 9)
    assert len(patches) == 81
    assert centers[40].tolist() == [4, 4]
    # the patch at the image center needs no padding: it is exactly the image
    assert np.array_equal(patches[40], cube.reflectance.transpose(2, 0, 1))


def test_patch_count_dense_stride():
    cube = HsiCube(np.random.default_rng(1).uniform(size=(10, 10, 3)))
    patches, centers = extract_patches(cube, 9)
    assert len(patches) == 100
    assert centers[0].tolist() == [0, 0] and centers[-1].tolist() == [9, 9]


def test_patch_count_benchmark_shape():
    centers = patch_centers(95, 95)
    assert len(centers) == 95 * 95


def test_patch_values_zero_padded():
    cube = HsiCube(np.arange(27.0).reshape(3, 3, 3))
    patches, centers = extract_patches(cube, 3)
    corner = patches[0]  # centered at (0,0): top-left 2x2 of data, rest zeros
    assert corner.shape == (3, 3, 3)
    assert corner[0, 0, 0] == 0.0 and corner[0, 1, 1] == cube.reflectance[0, 0, 0]
    center = patches[4]  # centered at (1,1): the full image
    assert np.array_equal(center, cube.reflectance.transpose(2, 0, 1))


def test_patch_centers_cover_all_pixels_at_stride_one():
    centers = patch_centers(7, 5)
    assert {tuple(c) for c in centers} == {(r, c) for r in range(7) for c in range(5)}


# -- encoder constraints -----------------------------------------------------------

def test_encode_sums_to_one_structurally():
    rng = np.random.default_rng(2)
    config = AutoencoderConfig(encoder_filters=(8, 4, 4, 3), encoder_kernels=(5, 3, 3, 1))
    for trial in range(5):
        model = ConvAutoencoder(config, 6, SplitMix64(trial))
        for w in model.enc_weights:  # random, not just the zeroed head
            w.data = rng.normal(size=w.shape)
        x = rng.normal(size=(2, 6, 9, 9))
        with ad.no_grad():
            out = model.encode(x).data
        assert np.max(np.abs(out.sum(axis=1) - 1.0)) <= 1e-12
        assert out.min() >= 0.0


def test_encode_zero_weights_uniform():
    config = AutoencoderConfig(encoder_filters=(8, 4, 4, 3), encoder_kernels=(5, 3, 3, 1))
    model = ConvAutoencoder(config, 5, SplitMix64(0))
    for w, b in zip(model.enc_weights, model.enc_biases):
        w.data[:] = 0.0
        b.data[:] = 0.0
    x = np.random.default_rng(3).uniform(size=(1, 5, 9, 9))
    with ad.no_grad():
        out = model.encode(x).data
    assert np.allclose(out, 1.0 / 3.0, atol=1e-15)


# -- decoder -------------------------------------------------------------------------

def test_decode_zero_abundance_is_zero():
    # the offset-free decoder's bias response is identically zero
    model = ConvAutoencoder(SMALL_CONFIG, 12, SplitMix64(1))
    with ad.no_grad():
        out = model.decode(np.zeros((1, 2, 9, 9))).data
    assert np.array_equal(out, np.zeros((1, 12, 9, 9)))


def test_decode_output_shape_matches_patch():
    model = ConvAutoencoder(SMALL_CONFIG, 12, SplitMix64(2))
    with ad.no_grad():
        out = model.decode(np.random.default_rng(4).uniform(size=(3, 2, 9, 9)))
    assert out.shape == (3, 12, 9, 9)


def test_endmember_readout_center_tap_decoder():
    model = ConvAutoencoder(SMALL_CONFIG, 12, SplitMix64(3))
    rng = np.random.default_rng(5)
    taps = rng.uniform(0.1, 1.0, size=(12, 2))
    c = SMALL_CONFIG.decoder_kernel // 2
    model.dec_weight.data[:] = 0.0
    model.dec_weight.data[:, :, c, c] = taps
    em = endmembers_from_decoder(model)
    assert np.allclose(em, taps, atol=1e-15)


def test_decoder_linearity_of_one_hot_responses():
    model = ConvAutoencoder(SMALL_CONFIG, 12, SplitMix64(4))
    ps = SMALL_CONFIG.patch_size
    e0 = np.zeros((1, 2, ps, ps))
    e0[0, 0] = 1.0
    e1 = np.zeros((1, 2, ps, ps))
    e1[0, 1] = 1.0
    with ad.no_grad():
        r0 = model.decode(e0).data
        r1 = model.decode(e1).data
        r01 = model.decode(e0 + e1).data
    assert np.allclose(r01, r0 + r1, atol=1e-12)


# -- training ---------------------------------------------------------------------------

def test_zero_epoch_training_still_valid(tmp_path):
    cube, gt = synthesize_scene(SceneSpec(12, 12, 8, 2, smoothness=1.0, seed=6))
    config = AutoencoderConfig(encoder_filters=(8, 4, 4, 2), encoder_kernels=(5, 3, 3, 1),
                               epochs=0, seed=7)
    endmembers, stack, history, model = train_autoencoder(normalize(cube), config)
    assert history == []
    assert np.max(np.abs(stack.sum(axis=2) - 1.0)) <= 1e-12
    assert stack.min() >= 0.0
    assert endmembers.min() >= 0.0


def test_training_loss_decreases(trained):
    _, _, _, _, history, _ = trained
    assert history[-1] < history[0]
    assert history[min(39, len(history) - 1)] < history[0]
    assert all(np.isfinite(v) for v in history)


def test_training_deterministic():
    cube, _ = synthesize_scene(SceneSpec(10, 10, 6, 2, smoothness=1.0, seed=8))
    ncube = normalize(cube)
    config = AutoencoderConfig(encoder_filters=(8, 4, 4, 2), encoder_kernels=(5, 3, 3, 1),
                               epochs=3, batch_size=64, seed=9)
    _, s1, h1, _ = train_autoencoder(ncube, config)
    _, s2, h2, _ = train_autoencoder(ncube, config)
    assert h1 == h2
    assert np.array_equal(s1, s2)


def test_decoder_weights_nonnegative_after_training(trained):
    *_, model = trained
    assert model.dec_weight.data.min() >= 0.0


def test_dominant_channel_on_pure_region(trained):
    ncube, gt, endmembers, stack, _, model = trained
    match = match_endmembers(endmembers, gt.endmembers)
    stack_m = apply_match(match, stack=stack)
    pure = gt.abundances.max(axis=2) > 0.85
    assert pure.sum() > 10
    dominant = np.take_along_axis(
        stack_m.reshape(-1, 2), gt.abundances.argmax(axis=2).reshape(-1, 1), axis=1
    ).reshape(gt.abundances.shape[:2])
    assert dominant[pure].mean() > 0.8


def test_reconstruction_error_small_after_training(trained):
    # only the patch center is encoded from its full receptive field (the
    # rest sees the zeros beyond the patch edge), so each patch is scored
    # at the pixel it encodes, as the loss's SAD term does
    ncube, gt, _, _, _, model = trained
    patches, centers = extract_patches(ncube, 9)
    patches = patches[(centers % 3 == 0).all(axis=1)]  # every third row and column
    with ad.no_grad():
        _, recon = model.forward(patches)
    c = patches.shape[2] // 2
    mse = float(np.mean((recon.data[:, :, c, c] - patches[:, :, c, c]) ** 2))
    assert mse < 1e-3


def test_trained_endmembers_close_in_angle(trained):
    ncube, gt, endmembers, _, _, _ = trained
    match = match_endmembers(endmembers, gt.endmembers)
    assert match.cost < 0.15


def test_gradient_flow_through_full_loss():
    cube, _ = synthesize_scene(SceneSpec(10, 10, 6, 2, smoothness=1.0, seed=10))
    ncube = normalize(cube)
    config = AutoencoderConfig(encoder_filters=(6, 4, 4, 2), encoder_kernels=(5, 3, 3, 1),
                               seed=11)
    model = ConvAutoencoder(config, 6, SplitMix64(11))
    rng = np.random.default_rng(12)
    for w in model.enc_weights:
        w.data = rng.uniform(-0.3, 0.3, size=w.shape)
    patches, centers = extract_patches(ncube, 9)
    x = patches[(centers % 5 == 2).all(axis=1)]  # centers (2, 2), (2, 7), (7, 2), (7, 7)

    def full_loss():
        batch = ad.Tensor(x)
        _, recon = model.forward(batch)
        return reconstruction_loss(batch, recon, "sad_plus_mse", 0.5)

    grads = ad.backward(full_loss())
    params = model.parameters()
    picks = [(params[i % len(params)], rng.integers(params[i % len(params)].size))
             for i in range(10)]
    h = 1e-6
    for tensor, flat_idx in picks:
        orig = tensor.data.reshape(-1)[flat_idx]
        tensor.data.reshape(-1)[flat_idx] = orig + h
        up = full_loss().item()
        tensor.data.reshape(-1)[flat_idx] = orig - h
        down = full_loss().item()
        tensor.data.reshape(-1)[flat_idx] = orig
        fd = (up - down) / (2 * h)
        an = grads[tensor].reshape(-1)[flat_idx]
        assert abs(an - fd) / max(1.0, abs(an), abs(fd)) <= 1e-5


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # diverges on purpose
def test_divergence_raises_with_epoch():
    cube, _ = synthesize_scene(SceneSpec(10, 10, 6, 2, smoothness=1.0, seed=13))
    bad = HsiCube(cube.reflectance * 1e150)  # finite input, overflowing activations
    config = AutoencoderConfig(encoder_filters=(6, 4, 4, 2), encoder_kernels=(5, 3, 3, 1),
                               epochs=2, learning_rate=1e3, seed=14)
    with pytest.raises(DivergenceError) as err:
        train_autoencoder(bad, config)
    assert err.value.epoch == 0


@pytest.mark.parametrize("filters,kernels,patch", [((8, 4, 4, 3), (5, 3, 3, 1), 9),
                                                   ((6, 3), (3, 1), 5)])
def test_abundance_stack_matches_per_patch_encode(filters, kernels, patch):
    # radius 4 = half-width 4, and radius 1 < half-width 2; strips of one
    # row, of two rows with a one-row remainder, and the whole image
    rng = np.random.default_rng(15)
    config = AutoencoderConfig(encoder_filters=filters, encoder_kernels=kernels,
                               patch_size=patch)
    model = ConvAutoencoder(config, 5, SplitMix64(16))
    for w, b in zip(model.enc_weights, model.enc_biases):  # the last layer starts at zero
        w.data = rng.normal(scale=0.5, size=w.shape)
        b.data = rng.normal(scale=0.1, size=b.shape)
    cube = HsiCube(rng.uniform(size=(13, 7, 5)))
    reference = abundance_stack_per_patch(model, cube)
    assert np.array_equal(assemble_abundance_stack(model, cube), reference)
    for strip_pixels in (1, 17, 10**6):
        stack = assemble_abundance_stack(model, cube, strip_pixels)
        assert np.array_equal(stack, reference), strip_pixels


def test_trained_abundance_stack_matches_per_patch_encode(trained):
    ncube, _, _, stack, _, model = trained
    assert np.array_equal(stack, abundance_stack_per_patch(model, ncube))


@pytest.mark.parametrize("filters,kernels,patch,decoder,batch", [
    ((8, 6, 3), (5, 3, 1), 9, 1, 64),  # 13x11 = 143 centers: batches of 64, 64 and 15
    ((6, 3), (3, 1), 5, 3, 40),
    ((5, 3), (1, 1), 5, 1, 50),
])
def test_training_matches_the_per_patch_conv_loop(filters, kernels, patch, decoder, batch):
    # layer 1 shares pixels across patches; every weight and loss must stay
    # within round-off of convolving each patch on its own for 2 epochs
    cube, _ = synthesize_scene(SceneSpec(13, 11, 7, 3, smoothness=1.2, seed=17))
    config = AutoencoderConfig(encoder_filters=filters, encoder_kernels=kernels,
                               patch_size=patch, decoder_kernel=decoder, epochs=2,
                               batch_size=batch, learning_rate=3e-3, seed=18)
    ncube = normalize(cube)
    _, _, history, model = train_autoencoder(ncube, config)
    ref_history, ref_model = train_autoencoder_per_patch(ncube, config)
    assert np.allclose(history, ref_history, rtol=1e-9, atol=0)
    for p, ref in zip(model.parameters(), ref_model.parameters()):
        assert np.max(np.abs(p.data - ref.data)) <= 1e-9 * np.max(np.abs(ref.data))


# -- checkpoints ---------------------------------------------------------------------------

def test_checkpoint_roundtrip(tmp_path, trained):
    ncube, _, endmembers, stack, _, model = trained
    path = tmp_path / "ae.aew"
    save_autoencoder(model, path)
    back = load_autoencoder(path, model.config, ncube.bands)
    for w1, w2 in zip(model.parameters(), back.parameters()):
        assert np.array_equal(w1.data, w2.data)
    assert np.array_equal(endmembers_from_decoder(back), endmembers)
    assert np.array_equal(assemble_abundance_stack(back, ncube), stack)
