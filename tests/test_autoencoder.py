"""Patch extraction, encoder constraints, decoder linearity, training behavior."""

import textwrap

import numpy as np
import pytest

from aegem import autodiff as ad
from aegem import autoencoder
from aegem.autoencoder import (AutoencoderConfig, ConvAutoencoder, _train_epochs,
                               assemble_abundance_stack, endmembers_from_decoder,
                               extreme_pixel_indices, reconstruction_loss, save_autoencoder,
                               spectral_basis, train_autoencoder, training_windows)
from aegem.hsi import HsiCube, SceneSpec, normalize, pixel_coordinates, synthesize_scene
from aegem.metrics import match_endmembers, sad
from aegem.rng import SplitMix64
from oracles import (abundance_stack_per_patch, conv2d_leaky_relu_unfused, encode_full_band,
                     endmembers_conv_readout, extreme_pixel_indices_whole, read_aew,
                     reconstruction_loss_composite, train_autoencoder_per_patch)
from page_faults import (glibc_only, minor_faults, peak_rss_growth, proc_status_only,
                         traced_peak)


SMALL_CONFIG = AutoencoderConfig(
    encoder_filters=(16, 8, 4, 2),
    encoder_kernels=(5, 3, 3, 1),
    epochs=40,
    batch_size=128,
    learning_rate=3e-3,
)


@pytest.fixture(scope="module")
def trained():
    """One real training run on a small noiseless two-material scene."""
    cube, gt = synthesize_scene(SceneSpec(16, 16, 12, 2, smoothness=1.2), 3)
    ncube = normalize(cube)
    endmembers, stack, history, model = train_autoencoder(ncube, SMALL_CONFIG, 5)
    return ncube, gt, endmembers, stack, history, model


# -- config ---------------------------------------------------------------------

def test_config_validation():
    with pytest.raises(ValueError, match="odd"):
        AutoencoderConfig(encoder_kernels=(4, 3, 3, 1))
    with pytest.raises(ValueError, match="lengths"):
        AutoencoderConfig(encoder_filters=(8, 3), encoder_kernels=(3, 3, 1))
    # a patch must hold its center's receptive cone: 9 - 2*5 < 1 and 9 - 2*4 < 3
    with pytest.raises(ValueError, match=r"= -1 is less than decoder_kernel 1"):
        AutoencoderConfig(encoder_kernels=(5, 5, 3, 1), patch_size=9)
    with pytest.raises(ValueError, match=r"patch_size - 2\*radius = 9 - 2\*4 = 1 is less "
                                         r"than decoder_kernel 3"):
        AutoencoderConfig(decoder_kernel=3)
    assert AutoencoderConfig(decoder_kernel=3, patch_size=11).radius == 4
    assert AutoencoderConfig().endmembers == 3


# -- patch extraction -------------------------------------------------------------

def test_patch_count_exact_tiling():
    # the default encoder's receptive cone is 9x9
    cube = HsiCube(np.random.default_rng(0).uniform(size=(9, 9, 4)))
    centers = pixel_coordinates(9, 9)
    windows = training_windows(cube.reflectance, AutoencoderConfig())
    windows = windows[centers[:, 0], centers[:, 1]]
    assert windows.shape == (81, 4, 9, 9)
    assert centers[40].tolist() == [4, 4]
    # the window at the image center needs no padding: it is exactly the image
    assert np.array_equal(windows[40], cube.reflectance.transpose(2, 0, 1))


def test_patch_count_dense_stride():
    cube = HsiCube(np.random.default_rng(1).uniform(size=(10, 10, 3)))
    centers = pixel_coordinates(10, 10)
    windows = training_windows(cube.reflectance, AutoencoderConfig())
    windows = windows[centers[:, 0], centers[:, 1]]
    assert windows.shape == (100, 3, 9, 9)
    assert centers[0].tolist() == [0, 0] and centers[-1].tolist() == [9, 9]


def test_patch_count_benchmark_shape():
    centers = pixel_coordinates(95, 95)
    assert len(centers) == 95 * 95


def test_patch_values_zero_padded():
    cube = HsiCube(np.arange(27.0).reshape(3, 3, 3))
    # one 3x3 encoder layer and a 1x1 decoder: a 3x3 receptive cone
    config = AutoencoderConfig(encoder_filters=(2,), encoder_kernels=(3,), patch_size=3)
    centers = pixel_coordinates(3, 3)
    patches = training_windows(cube.reflectance, config)[centers[:, 0], centers[:, 1]]
    corner = patches[0]  # centered at (0,0): top-left 2x2 of data, rest zeros
    assert corner.shape == (3, 3, 3)
    assert corner[0, 0, 0] == 0.0 and corner[0, 1, 1] == cube.reflectance[0, 0, 0]
    center = patches[4]  # centered at (1,1): the full image
    assert np.array_equal(center, cube.reflectance.transpose(2, 0, 1))


def test_patch_centers_cover_all_pixels_at_stride_one():
    centers = pixel_coordinates(7, 5)
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


@pytest.mark.parametrize("kernel, patch", [(1, 9), (3, 5), (5, 9)])
def test_endmembers_are_the_conv_readout_to_the_bit(kernel, patch):
    # (3, 5) is large_scene's decoder; random non-negative taps over six decades
    config = AutoencoderConfig(encoder_filters=(8, 3), encoder_kernels=(3, 1),
                               patch_size=patch, decoder_kernel=kernel)
    rng = np.random.default_rng(kernel)
    for seed in range(5):
        model = ConvAutoencoder(config, 20, SplitMix64(seed))
        shape = model.dec_weight.data.shape
        model.dec_weight.data[:] = (rng.uniform(size=shape)
                                    * 10.0 ** rng.integers(-3, 3, size=shape))
        assert np.array_equal(endmembers_from_decoder(model), endmembers_conv_readout(model))


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
    cube, gt = synthesize_scene(SceneSpec(12, 12, 8, 2, smoothness=1.0), 6)
    config = AutoencoderConfig(encoder_filters=(8, 4, 4, 2), encoder_kernels=(5, 3, 3, 1),
                               epochs=0)
    endmembers, stack, history, model = train_autoencoder(normalize(cube), config, 7)
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
    cube, _ = synthesize_scene(SceneSpec(10, 10, 6, 2, smoothness=1.0), 8)
    ncube = normalize(cube)
    config = AutoencoderConfig(encoder_filters=(8, 4, 4, 2), encoder_kernels=(5, 3, 3, 1),
                               epochs=3, batch_size=64)
    _, s1, h1, _ = train_autoencoder(ncube, config, 9)
    _, s2, h2, _ = train_autoencoder(ncube, config, 9)
    assert h1 == h2
    assert np.array_equal(s1, s2)


def test_decoder_weights_nonnegative_after_training(trained):
    *_, model = trained
    assert model.dec_weight.data.min() >= 0.0


def test_dominant_channel_on_pure_region(trained):
    ncube, gt, endmembers, stack, _, model = trained
    match = match_endmembers(endmembers, gt.endmembers)
    stack_m = stack[:, :, match.order]
    pure = gt.abundances.max(axis=2) > 0.85
    assert pure.sum() > 10
    dominant = np.take_along_axis(
        stack_m.reshape(-1, 2), gt.abundances.argmax(axis=2).reshape(-1, 1), axis=1
    ).reshape(gt.abundances.shape[:2])
    assert dominant[pure].mean() > 0.8


def test_reconstruction_error_small_after_training():
    # the `trained` scene and config through the float64 epoch loop (3.4e-4
    # here): float32 rounding alone moves this error across the bound at some
    # seeds.  Scored as training scores it: each center's reconstruction from
    # its receptive cone, at every third row and column
    cube, _ = synthesize_scene(SceneSpec(16, 16, 12, 2, smoothness=1.2), 3)
    ncube = normalize(cube)
    model, shuffle_rng = _initial_model(ncube, SMALL_CONFIG, 5)
    _train_epochs(model, ncube.reflectance, shuffle_rng)
    centers = pixel_coordinates(ncube.height, ncube.width)
    r, c = centers[(centers % 3 == 0).all(axis=1)].T
    with ad.no_grad():
        windows = training_windows(ncube.reflectance, model.config)[r, c]
        recon = model.decode(model.encode(windows, "valid"), "valid")
    assert recon.shape == (r.size, ncube.bands, 1, 1)
    mse = float(np.mean((recon.data[:, :, 0, 0] - ncube.reflectance[r, c]) ** 2))
    assert mse < 1e-3


def test_trained_endmembers_close_in_angle(trained):
    ncube, gt, endmembers, _, _, _ = trained
    match = match_endmembers(endmembers, gt.endmembers)
    assert match.cost < 0.15


def test_gradient_flow_through_full_loss():
    cube, _ = synthesize_scene(SceneSpec(10, 10, 6, 2, smoothness=1.0), 10)
    ncube = normalize(cube)
    config = AutoencoderConfig(encoder_filters=(6, 4, 4, 2), encoder_kernels=(5, 3, 3, 1))
    model = ConvAutoencoder(config, 6, SplitMix64(11))
    rng = np.random.default_rng(12)
    for w in model.enc_weights:
        w.data = rng.uniform(-0.3, 0.3, size=w.shape)
    r, c = np.array([2, 2, 7, 7]), np.array([2, 7, 2, 7])
    x = training_windows(ncube.reflectance, config)[r, c]  # the 9x9 cones of four centers
    target = ncube.reflectance[r, c, :, None, None]

    def full_loss():
        recon = model.decode(model.encode(x, "valid"), "valid")
        return reconstruction_loss(target, recon, 0.5)

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
    cube, _ = synthesize_scene(SceneSpec(10, 10, 6, 2, smoothness=1.0), 13)
    bad = HsiCube(cube.reflectance * 1e150)  # finite input, overflowing activations
    config = AutoencoderConfig(encoder_filters=(6, 4, 4, 2), encoder_kernels=(5, 3, 3, 1),
                               epochs=2, learning_rate=1e3)
    with pytest.raises(ad.DivergenceError) as err:
        train_autoencoder(bad, config, 14)
    assert err.value.epoch == 0


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # diverges on purpose
def test_a_divergence_in_the_last_step_raises_with_its_epoch():
    # one epoch of one batch: no training forward follows the step that
    # makes the weights non-finite, and inference failed on them
    cube, _ = synthesize_scene(SceneSpec(12, 12, 6, 3), 1)
    bad = HsiCube(normalize(cube).reflectance * 1e3)
    config = AutoencoderConfig(encoder_filters=(6, 4, 3), encoder_kernels=(3, 3, 1),
                               patch_size=5, epochs=1, batch_size=256,
                               learning_rate=3.3e38)
    with pytest.raises(ad.DivergenceError) as err:
        train_autoencoder(bad, config, 1)
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


def test_abundance_stack_holds_less_than_one_padded_cube():
    # padding the whole image first held it beside the strips' buffers
    config = AutoencoderConfig(encoder_filters=(8, 3), encoder_kernels=(3, 1), patch_size=5)
    cube = HsiCube(np.random.default_rng(18).uniform(size=(96, 96, 24)))
    model = ConvAutoencoder(config, cube.bands, SplitMix64(17))
    model.seed_from_spectra(cube.spectra())
    padded = 24 * (96 + 4) * (96 + 4) * 8
    assert traced_peak(lambda: assemble_abundance_stack(model, cube, 256)) < padded


def test_trained_abundance_stack_matches_per_patch_encode(trained):
    ncube, _, _, stack, _, model = trained
    assert np.array_equal(stack, abundance_stack_per_patch(model, ncube))


def _window_encode(model, cube):
    """Every pixel's abundances from its training window -> (H, W, P)."""
    win = training_windows(cube.reflectance, model.config)
    r, c = pixel_coordinates(cube.height, cube.width).T
    k = model.config.decoder_kernel // 2
    with ad.no_grad():
        enc = model.encode(win[r, c], "valid").data[:, :, k, k]
    return enc.reshape(cube.height, cube.width, -1)


def test_trained_window_encode_matches_the_abundance_stack(trained):
    # training and inference encode a pixel through different convs
    # (valid on its cone, same-padded on a strip): equal to round-off
    ncube, _, _, stack, _, model = trained
    assert np.max(np.abs(_window_encode(model, ncube) - stack)) <= 1e-12 * np.max(stack)


@pytest.mark.parametrize("ps,kernel", [(5, 3), (9, 5)])
@pytest.mark.parametrize("hw", [(1, 1), (2, 3), (4, 1), (4, 4)])
def test_window_encode_on_an_image_smaller_than_the_patch(hw, ps, kernel):
    # every window and strip reads mostly zero padding here
    rng = np.random.default_rng(19)
    kernels = (kernel, 3, 3, 1) if kernel == 5 else (kernel, 1)
    config = AutoencoderConfig(encoder_filters=(6, 5, 4, 3)[-len(kernels):],
                               encoder_kernels=kernels, patch_size=ps)
    model = ConvAutoencoder(config, 4, SplitMix64(20))
    for w, b in zip(model.enc_weights, model.enc_biases):
        w.data = rng.normal(scale=0.5, size=w.shape)
        b.data = rng.normal(scale=0.1, size=b.shape)
    cube = HsiCube(rng.uniform(size=(*hw, 4)))
    stack = assemble_abundance_stack(model, cube)
    assert np.max(np.abs(_window_encode(model, cube) - stack)) <= 1e-12 * np.max(stack)


def _initial_model(cube, config, seed):
    """`train_autoencoder`'s model before its first step, and its shuffle generator."""
    root = SplitMix64(seed)
    model = ConvAutoencoder(config, cube.bands, root.split(0))
    model.seed_from_spectra(cube.spectra())
    return model, root.split(1)


@pytest.mark.parametrize("filters,kernels,patch,decoder,batch", [
    ((8, 6, 3), (5, 3, 1), 9, 1, 64),  # 13x11 = 143 centers: batches of 64, 64 and 15
    ((6, 3), (3, 1), 5, 3, 40),
    ((5, 3), (1, 1), 5, 1, 50),
])
def test_training_matches_the_per_patch_conv_loop(filters, kernels, patch, decoder, batch):
    # the epoch loop reads each center's receptive cone through valid convs;
    # run in float64, every weight and loss must stay within round-off of
    # convolving each whole patch same-padded and scoring its center, for 2 epochs
    cube, _ = synthesize_scene(SceneSpec(13, 11, 7, 3, smoothness=1.2), 17)
    config = AutoencoderConfig(encoder_filters=filters, encoder_kernels=kernels,
                               patch_size=patch, decoder_kernel=decoder, epochs=2,
                               batch_size=batch, learning_rate=3e-3)
    ncube = normalize(cube)
    model, shuffle_rng = _initial_model(ncube, config, 18)
    history = _train_epochs(model, ncube.reflectance, shuffle_rng)
    ref_history, ref_model = train_autoencoder_per_patch(ncube, config, 18)
    assert np.allclose(history, ref_history, rtol=1e-9, atol=0)
    for p, ref in zip(model.parameters(), ref_model.parameters()):
        assert p.data.dtype == np.float64
        assert np.max(np.abs(p.data - ref.data)) <= 1e-9 * np.max(np.abs(ref.data))


def test_training_is_the_epoch_loop_in_float32_with_float64_weights_out():
    cube, _ = synthesize_scene(SceneSpec(13, 11, 7, 3, smoothness=1.2), 17)
    config = AutoencoderConfig(encoder_filters=(8, 6, 3), encoder_kernels=(5, 3, 1),
                               epochs=2, batch_size=64, learning_rate=3e-3)
    ncube = normalize(cube)
    endmembers, stack, history, model = train_autoencoder(ncube, config, 18)
    ref, shuffle_rng = _initial_model(ncube, config, 18)
    for p in ref.parameters():
        p.data = p.data.astype(np.float32)
    assert history == _train_epochs(ref, ncube.reflectance.astype(np.float32), shuffle_rng)
    for p, q in zip(model.parameters(), ref.parameters()):
        assert p.data.dtype == np.float64 and q.data.dtype == np.float32
        assert np.array_equal(p.data, q.data)
        assert np.array_equal(p.data.astype(np.float32).astype(np.float64), p.data)
    assert stack.dtype == endmembers.dtype == np.float64
    assert np.array_equal(stack, abundance_stack_per_patch(model, ncube))


def test_a_float32_training_step_makes_nothing_float64(monkeypatch):
    # one step at the acceptance run's shapes: 20 bands, a batch of 64 9x9
    # cones through (32, 16, 8, 3) filters; every forward output and every
    # VJP output must be float32, or a 0-d float64 constant has leaked in
    config = AutoencoderConfig(encoder_filters=(32, 16, 8, 3), encoder_kernels=(5, 3, 3, 1),
                               epochs=1, batch_size=64)
    cube = HsiCube(np.random.default_rng(21).uniform(0.1, 1.0, size=(8, 8, 20)))
    dtypes = []
    record = ad.Tensor._from_op.__func__

    def spy(cls, data, parents, vjps, op):
        def traced(vjp):
            def run(g):
                grad = vjp(g)
                dtypes.append((f"{op} vjp", grad.dtype))
                return grad
            return run

        out = record(cls, data, parents, tuple(traced(v) for v in vjps), op)
        dtypes.append((op, out.data.dtype))
        return out

    monkeypatch.setattr(ad.Tensor, "_from_op", classmethod(spy))
    model, shuffle_rng = _initial_model(cube, config, 0)
    for p in model.parameters():
        p.data = p.data.astype(np.float32)
    assert len(_train_epochs(model, cube.reflectance.astype(np.float32), shuffle_rng)) == 1
    assert {"conv2d", "conv2d vjp", "scaled_softmax vjp", "reconstruction_loss vjp",
            "conv2d_leaky_relu vjp"} <= {d[0] for d in dtypes}
    assert [d for d in dtypes if d[1] != np.float32] == []
    assert all(p.data.dtype == np.float32 for p in model.parameters())


def test_an_acceptance_shaped_training_step_records_seven_nodes(monkeypatch):
    # three conv nodes with their leaky ReLU inside, the last encoder conv, the
    # softmax, the decoder's conv and the loss; with each leaky ReLU a node of
    # its own a step recorded 10
    config = AutoencoderConfig(encoder_filters=(32, 16, 8, 3), encoder_kernels=(5, 3, 3, 1),
                               epochs=1, batch_size=64)
    cube = HsiCube(np.random.default_rng(22).uniform(0.1, 1.0, size=(8, 8, 20)))
    recorded = []
    record = ad.Tensor._from_op.__func__

    def spy(cls, data, parents, vjps, op):
        out = record(cls, data, parents, vjps, op)
        if out._parents:
            recorded.append(op)
        return out

    monkeypatch.setattr(ad.Tensor, "_from_op", classmethod(spy))
    model, shuffle_rng = _initial_model(cube, config, 0)
    _train_epochs(model, cube.reflectance, shuffle_rng)  # one batch of all 64 pixels
    assert recorded == ["conv2d_leaky_relu"] * 3 + ["conv2d", "scaled_softmax", "conv2d",
                                                    "reconstruction_loss"]


# -- the fused loss ------------------------------------------------------------------------

def _loss_and_grad(loss_fn, target, recon, mse_weight):
    rt = ad.Tensor(recon, requires_grad=True)
    loss = loss_fn(target, rt, mse_weight)
    return loss.data, ad.backward(loss)[rt]


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("mse_weight", [0.0, 0.5])
@pytest.mark.parametrize("hw", [1, 9])
@pytest.mark.parametrize("saturated", [False, True])
def test_the_fused_loss_is_bit_equal_to_the_composite(dtype, mse_weight, hw, saturated):
    # recon pixels-last behind an [N,L,h,w] view, as the decoder's conv leaves it;
    # b = 2a makes every cosine 1, where the clamp zeroes the SAD gradient
    rng = np.random.default_rng(40)
    for _ in range(5):
        recon = rng.uniform(0.05, 1.0, size=(20, hw, hw, 64)).astype(dtype).transpose(3, 0, 1, 2)
        target = (2 * recon.copy() if saturated
                  else rng.uniform(0.05, 1.0, size=(64, 20, hw, hw)).astype(dtype))
        value, grad = _loss_and_grad(reconstruction_loss, target, recon, mse_weight)
        ref_value, ref_grad = _loss_and_grad(reconstruction_loss_composite, target, recon,
                                             mse_weight)
        assert value.dtype == ref_value.dtype == grad.dtype == ref_grad.dtype == dtype
        assert np.array_equal(value, ref_value)
        assert np.array_equal(grad, ref_grad)
        assert np.array_equal(np.signbit(grad), np.signbit(ref_grad))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("mse_weight", [0.0, 0.5])
def test_the_fused_loss_raises_on_a_non_finite_recon(bad, mse_weight):
    recon = np.random.default_rng(41).uniform(0.1, 1.0, size=(4, 6, 3, 3)).astype(np.float32)
    target = recon[::-1].copy()
    recon[2, 3, 1, 1] = bad
    with pytest.raises(ad.NonFiniteError, match="reconstruction_loss"):
        reconstruction_loss(target, ad.Tensor(recon, requires_grad=True), mse_weight)


def test_a_float32_epoch_is_bit_equal_to_the_composite_loss_and_masked_leaky_relu(monkeypatch):
    # one seeded epoch at the acceptance run's shapes: 16 steps of 64 9x9 cones of a
    # 32x32x20 scene through (32, 16, 8, 3) filters; the fused loss and the leaky
    # ReLU inside the conv node must leave every weight and the loss where the
    # unfused ops, with the masked-copy leaky ReLU, do
    cube = normalize(synthesize_scene(SceneSpec(32, 32, 20, 3, snr_db=30.0), 42)[0])
    config = AutoencoderConfig(encoder_filters=(32, 16, 8, 3), encoder_kernels=(5, 3, 3, 1),
                               epochs=1, batch_size=64, learning_rate=1e-2)

    def one_epoch():
        model, shuffle_rng = _initial_model(cube, config, 43)
        for p in model.parameters():
            p.data = p.data.astype(np.float32)
        return _train_epochs(model, cube.reflectance.astype(np.float32), shuffle_rng), model

    history, model = one_epoch()
    slopes = []

    def unfused(*args, **kwargs):
        slopes.append(kwargs.get("leaky"))
        return conv2d_leaky_relu_unfused(*args, **kwargs)

    monkeypatch.setattr("aegem.autoencoder.reconstruction_loss", reconstruction_loss_composite)
    monkeypatch.setattr(ad, "conv2d", unfused)
    ref_history, ref_model = one_epoch()
    assert slopes.count(0.01) == 16 * 3  # every step's three activations were unfused
    assert np.array_equal(history, ref_history)
    for p, ref in zip(model.parameters(), ref_model.parameters()):
        assert p.data.dtype == np.float32 and np.array_equal(p.data, ref.data)


# -- page faults of the training steps -----------------------------------------------------

def _training_faults(setup: str, shape: tuple[int, int, int], epochs: int, **config) -> int:
    """Minor faults of `train_autoencoder` on a noise-free (H, W, L) scene of 3
    endmembers with `epochs` epochs, less those with none, each in a fresh
    process after `setup`: what the training steps alone take."""
    setup += textwrap.dedent(f"""
        from aegem.autoencoder import AutoencoderConfig, train_autoencoder
        from aegem.hsi import SceneSpec, normalize, synthesize_scene
        spec = SceneSpec(*{shape!r}, 3, snr_db=float("inf"))
        cube = normalize(synthesize_scene(spec, 1)[0])
        """)

    def faults(n: int) -> int:
        return minor_faults(setup, f"train_autoencoder(cube, AutoencoderConfig(epochs={n}, "
                                   f"**{config!r}), 0)")

    return faults(epochs) - faults(0)


@glibc_only
def test_acceptance_training_steps_keep_their_heap_resident():
    # set up much as the benchmark's sample process is, scipy loaded after the
    # pipeline: under that heap layout, without `_train_epochs`' warm-up
    # buffer, each of the 80 steps handed its heap back to the OS and faulted
    # it in again (24k-36k faults over scene seeds, against about 10)
    faults = _training_faults("import aegem.pipeline\nimport scipy.sparse\n", (32, 32, 20), 5,
                              encoder_filters=(32, 16, 8, 3), encoder_kernels=(5, 3, 3, 1),
                              batch_size=64)
    assert faults < 300


@glibc_only
def test_samson_shaped_training_keeps_each_steps_gradients_until_the_next_backward():
    # the default AE on a 24x24x156 scene, 9 steps: a step's heap outgrows the
    # warm-up's thresholds, and gradients freed right after Adam's step
    # (`optimizer.step(ad.backward(loss))`) took 16.6k-17.6k faults, against 2.3k-4.3k
    assert _training_faults("", (24, 24, 156), 1) < 8000


@proc_status_only
def test_samson_shaped_training_raises_the_peak_rss_by_little():
    # the default AE on a 24x24x156 scene for one epoch, as the benchmark's
    # `samson_crop` runs it: the Glorot draw of layer 1 (499 200 values) and
    # inference's 9.4 MB column block of layer 2 each set a peak.  Drawn whole
    # and built in one block, they grew it by 16.0 MiB at scene seeds 1-5,
    # against 11.4 MiB in 4 MiB blocks with the transposed-conv input
    # gradient, and 9.1 MiB with col2im and blocks within the 2 MiB warm-up
    setup = """
        from aegem.autoencoder import AutoencoderConfig, train_autoencoder
        from aegem.hsi import SceneSpec, normalize, synthesize_scene
        cube = normalize(synthesize_scene(SceneSpec(24, 24, 156, 3, snr_db=float("inf")),
                                          1)[0])
        """
    growth = peak_rss_growth(setup, "train_autoencoder(cube, AutoencoderConfig(epochs=1), 0)")
    assert growth < 10.5 * 1024, growth


# -- successive projections ---------------------------------------------------------------

# rows of one rank-1 update block on 64 bands
_SPA_ROWS = autoencoder._SPA_BLOCK_BYTES // (8 * 64)


@pytest.mark.parametrize("n", [1, 2, 5, _SPA_ROWS - 1, _SPA_ROWS, _SPA_ROWS + 1,
                               2 * _SPA_ROWS + 3])
@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_extreme_pixels_match_the_whole_array_search(n, dtype):
    spectra = np.random.default_rng(n).uniform(size=(n, 64)).astype(dtype)
    assert extreme_pixel_indices(spectra, 5) == extreme_pixel_indices_whole(spectra, 5)


def test_extreme_pixels_of_degenerate_spectra_match_the_whole_array_search():
    # rank 1 along a band axis: the residual is exactly zero after the first pick
    spectra = np.outer(np.arange(1.0, 8.0), np.eye(6)[2])
    # the second pick reads an all-zero residual, and the third pads with the first
    assert extreme_pixel_indices(spectra, 3) == extreme_pixel_indices_whole(spectra, 3) == [6, 0, 6]


def test_extreme_pixel_search_holds_one_copy_and_one_block():
    # whole-array updates held three copies of the spectra; here the residual
    # is one, and beside it a block and a few per-pixel vectors
    n = 4 * _SPA_ROWS
    spectra = np.random.default_rng(24).uniform(size=(n, 64))
    bound = spectra.nbytes + 2 * autoencoder._SPA_BLOCK_BYTES + 4 * 8 * n
    assert traced_peak(lambda: extreme_pixel_indices(spectra, 4)) <= bound


# -- the spectral basis --------------------------------------------------------------------

@pytest.mark.parametrize("bands,p", [(12, 2), (20, 3), (3, 5)])
def test_spectral_basis_is_orthonormal_and_deterministic(bands, p):
    spectra = np.random.default_rng(22).uniform(size=(50, bands))
    basis = spectral_basis(spectra, p)
    k = min(p, bands)
    assert basis.shape == (bands, k)
    assert np.max(np.abs(basis.T @ basis - np.eye(k))) <= 1e-14
    assert np.array_equal(spectral_basis(spectra.copy(), p), basis)
    # the leading subspace holds at least the energy of any other, here that of k spectra
    energy = np.sum((spectra @ basis) ** 2)
    assert energy >= np.sum((spectra @ np.linalg.qr(spectra[:k].T)[0]) ** 2)


def test_a_noise_free_scene_lies_in_the_span_of_its_basis():
    cube, _ = synthesize_scene(SceneSpec(32, 32, 20, 3, smoothness=1.2), 23)
    x = normalize(cube).spectra()
    basis = spectral_basis(x, 3)
    assert np.max(np.abs(x - (x @ basis) @ basis.T)) <= 1e-13 * np.max(x)


def test_seeding_maps_the_first_layer_onto_the_basis():
    cube, _ = synthesize_scene(SceneSpec(16, 16, 12, 2, smoothness=1.2), 3)
    cube = normalize(cube)
    draw = ConvAutoencoder(SMALL_CONFIG, cube.bands, SplitMix64(27)).enc_weights[0].data
    model = ConvAutoencoder(SMALL_CONFIG, cube.bands, SplitMix64(27))
    assert np.array_equal(model.enc_weights[0].data, draw)
    model.seed_from_spectra(cube.spectra())
    first = model.enc_weights[0].data
    assert first.shape == (16, 2, 5, 5) and model.basis.shape == (12, 2)
    ref = np.einsum("clhw,lk->ckhw", draw, model.basis)
    assert np.max(np.abs(first - ref)) <= 1e-14 * np.max(np.abs(ref))


def _one_full_band_and_one_subspace_step(cube):
    """Loss and gradients of one float64 step at the acceptance run's shapes, twice:
    layer 1 on the basis coordinates (`encode`), and on every band with W = W' ×_band Vᵀ,
    W's gradient gW mapped onto the basis as gW ×_band V; and gW itself."""
    config = AutoencoderConfig(encoder_filters=(32, 16, 8, 3), encoder_kernels=(5, 3, 3, 1),
                               batch_size=64)
    model, shuffle_rng = _initial_model(cube, config, 24)
    rng = np.random.default_rng(25)
    model.enc_weights[-1].data = rng.normal(scale=0.5, size=model.enc_weights[-1].shape)
    centers = pixel_coordinates(cube.height, cube.width)
    r, c = centers[shuffle_rng.permutation(len(centers))[:config.batch_size]].T
    windows = training_windows(cube.reflectance, config)[r, c]
    target = cube.reflectance[r, c, :, None, None]
    params = model.parameters()
    recon = model.decode(model.encode(windows, "valid"), "valid")
    loss = reconstruction_loss(target, recon, config.mse_weight)
    grads = ad.backward(loss)
    results = [(loss.item(), [grads[p] for p in params])]
    abundance, full = encode_full_band(model, windows, "valid")
    loss = reconstruction_loss(target, model.decode(abundance, "valid"), config.mse_weight)
    grads = ad.backward(loss)
    grads[params[0]] = np.einsum("clhw,lk->ckhw", grads[full], model.basis)
    results.append((loss.item(), [grads[p] for p in params]))
    return results, grads[full], model.basis


def _outside_the_basis(full_grad, basis):
    """Largest entry of a full-band layer-1 gradient's part outside span(V),
    which a step on W' drops."""
    inside = np.einsum("clhw,lk,mk->cmhw", full_grad, basis, basis)
    return np.max(np.abs(full_grad - inside))


def test_a_step_on_the_basis_equals_the_full_band_step_on_a_rank_p_scene():
    # the loss and the mapped gradient match on any image; on a rank-P scene
    # the full-band gradient also lies in span(V), so a gradient step on W'
    # is the full-band one
    cube, _ = synthesize_scene(SceneSpec(32, 32, 20, 3, smoothness=1.2), 23)
    cube = normalize(cube)
    ((loss, grads), (ref_loss, ref_grads)), full_grad, basis = \
        _one_full_band_and_one_subspace_step(cube)
    assert abs(loss - ref_loss) <= 1e-12 * abs(ref_loss)
    assert grads[0].shape == (32, 3, 5, 5)
    for g, ref in zip(grads, ref_grads):
        assert g.shape == ref.shape
        assert np.max(np.abs(g - ref)) <= 1e-12 * np.max(np.abs(ref))
    assert _outside_the_basis(full_grad, basis) <= 1e-12 * np.max(np.abs(full_grad))


def test_a_step_on_the_basis_drops_what_lies_outside_it_on_a_full_rank_image():
    cube = HsiCube(np.random.default_rng(26).uniform(0.1, 1.0, size=(32, 32, 20)))
    _, full_grad, basis = _one_full_band_and_one_subspace_step(cube)
    assert _outside_the_basis(full_grad, basis) > 1e-6 * np.max(np.abs(full_grad))


# -- checkpoints ---------------------------------------------------------------------------

def test_checkpoint_roundtrip(tmp_path, trained):
    # the file holds every parameter and the basis, bit for bit, under its record name
    ncube, *_, model = trained
    path = tmp_path / "ae.aew"
    save_autoencoder(model, path)
    records = read_aew(path)
    layers = range(len(model.enc_weights))
    assert list(records) == [*(f"enc{i}.{part}" for i in layers for part in ("weight", "bias")),
                             "dec.weight", "basis"]
    for i in layers:
        assert np.array_equal(records[f"enc{i}.weight"], model.enc_weights[i].data)
        assert np.array_equal(records[f"enc{i}.bias"], model.enc_biases[i].data)
    assert np.array_equal(records["dec.weight"], model.dec_weight.data)
    assert model.basis.shape == (ncube.bands, 2)
    assert np.array_equal(records["basis"], model.basis)
    assert records["enc0.weight"].shape[1] == 2  # layer 1 reads the basis coordinates
