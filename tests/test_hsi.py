"""Cube container, HSB format, normalization, scene synthesis, exports."""
import math
import os
import re
import struct

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from aegem import hsi
from aegem.hsi import (BadMagicError, DimensionError, GroundTruth, HsbFormatError,
                       HsiCube, SceneSpec, TruncatedPayloadError, gaussian_blur, load_cube,
                       normalize, read_abundance_csv, read_endmember_csv, read_table,
                       save_abundance_maps, save_cube,
                       synthesize_scene, write_abundance_csv, write_endmember_csv,
                       write_table, MIN_ENDMEMBER_SEPARATION)
from aegem.metrics import sad
from oracles import (pixel_csv_text_per_value, read_table_per_row, save_cube_whole,
                     write_table_per_row)
from page_faults import fresh_interpreter, traced_peak


def small_cube(seed=0, shape=(2, 2, 3)):
    rng = np.random.default_rng(seed)
    return HsiCube(rng.uniform(0.1, 2.0, size=shape))


# -- container validation ----------------------------------------------------------

def test_cube_rejects_bad_shapes():
    with pytest.raises(ValueError):
        HsiCube(np.ones((3, 3)))
    with pytest.raises(ValueError):
        HsiCube(np.full((2, 2, 2), np.nan))


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_cube_rejects_one_non_finite_value(value):
    a = np.ones((3, 4, 5))
    a[2, 1, 3] = value
    with pytest.raises(ValueError, match="non-finite"):
        HsiCube(a)


def test_ground_truth_constraints():
    ab = np.full((2, 2, 2), 0.5)
    GroundTruth(np.ones((4, 2)), ab)
    with pytest.raises(ValueError, match="non-negativity"):
        GroundTruth(np.ones((4, 2)), ab - 0.6)
    with pytest.raises(ValueError, match="sum-to-one"):
        GroundTruth(np.ones((4, 2)), ab * 1.1)


def test_ground_truth_rejects_non_finite_values():
    ab = np.full((2, 2, 2), 0.5)
    ab[1, 0] = np.nan
    with pytest.raises(ValueError, match="non-finite"):
        GroundTruth(np.ones((4, 2)), ab)
    em = np.ones((4, 2))
    em[2, 1] = np.inf
    with pytest.raises(ValueError, match="non-finite"):
        GroundTruth(em, np.full((2, 2, 2), 0.5))


def test_scene_spec_validation():
    with pytest.raises(ValueError):
        SceneSpec(8, 8, 3, 5)  # P > L
    with pytest.raises(ValueError):
        SceneSpec(8, 8, 10, 3, snr_db=float("nan"))


# -- HSB round-trip -----------------------------------------------------------------

def test_hsb_roundtrip_bitwise(tmp_path):
    cube = small_cube()
    path = tmp_path / "c.hsb"
    save_cube(cube, path)
    back = load_cube(path)
    assert np.array_equal(back.reflectance, cube.reflectance)


def test_hsb_roundtrip_many_random(tmp_path):
    rng = np.random.default_rng(1)
    for i in range(10):
        shape = tuple(rng.integers(1, 6, size=3))
        cube = HsiCube(rng.normal(size=shape) * 10)
        save_cube(cube, tmp_path / "r.hsb")
        back = load_cube(tmp_path / "r.hsb")
        assert np.array_equal(back.reflectance, cube.reflectance)


def _hsb_bytes(bands: np.ndarray, dtype: str) -> bytes:
    """An HSB file of an (L, H, W) payload in `dtype`, "<f8" or "<f4"."""
    l, h, w = bands.shape
    return (hsi.HSB_MAGIC + struct.pack("<IIII", h, w, l, 1 if dtype == "<f8" else 0)
            + bands.astype(dtype).tobytes())


def test_hsb_float32_flag(tmp_path):
    cube = small_cube()
    path = tmp_path / "c32.hsb"
    path.write_bytes(_hsb_bytes(cube.reflectance.transpose(2, 0, 1), "<f4"))
    back = load_cube(path)
    assert np.allclose(back.reflectance, cube.reflectance, atol=1e-6)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("dtype", ["<f8", "<f4"])
def test_hsb_non_finite_value_names_the_file_pixel_and_band(tmp_path, value, dtype):
    bands = np.arange(12.0).reshape(3, 2, 2)
    bands[2, 1, 0] = value
    path = tmp_path / "c.hsb"
    path.write_bytes(_hsb_bytes(bands, dtype))
    with pytest.raises(ValueError, match=rf"^{re.escape(str(path))}: pixel \(1, 0\) holds "
                                         rf"{re.escape(repr(value))} in band 2$"):
        load_cube(path)


def test_hsb_band_sequential_layout(tmp_path):
    # band 0 occupies the first H*W payload values, row-major
    cube = HsiCube(np.arange(12.0).reshape(2, 2, 3))
    path = tmp_path / "layout.hsb"
    save_cube(cube, path)
    payload = np.frombuffer(path.read_bytes()[20:], dtype="<f8")
    assert np.array_equal(payload[:4], cube.reflectance[:, :, 0].ravel())


@pytest.mark.parametrize("shape", [(1, 1, 1), (3, 5, 7), (17, 4, 2)])
def test_hsb_writes_the_whole_array_writers_bytes(tmp_path, shape):
    cube = small_cube(4, shape)
    # also from a band-sequential cube, as `load_cube` returns one
    banded = HsiCube(np.ascontiguousarray(cube.reflectance.transpose(2, 0, 1)).transpose(1, 2, 0))
    save_cube_whole(cube, tmp_path / "whole.hsb")
    for c in (cube, banded):
        save_cube(c, tmp_path / "slabs.hsb")
        assert (tmp_path / "slabs.hsb").read_bytes() == (tmp_path / "whole.hsb").read_bytes()


def test_hsb_save_holds_one_band_slab(tmp_path):
    # the whole-array writer held three copies of the cube
    cube = small_cube(5, (64, 64, 32))
    slab = 64 * 64 * 8
    assert traced_peak(lambda: save_cube(cube, tmp_path / "c.hsb")) <= slab + 16 * 2**10


@pytest.mark.parametrize("dtype", ["<f8", "<f4"])
def test_hsb_load_holds_the_cube_and_one_band_slab(tmp_path, dtype):
    # reading the whole file first held its bytes beside the cube: two cubes
    bands = np.random.default_rng(6).uniform(size=(32, 64, 64))
    path = tmp_path / "c.hsb"
    path.write_bytes(_hsb_bytes(bands, dtype))
    cube_bytes, slab = bands.nbytes, 64 * 64 * np.dtype(dtype).itemsize
    assert traced_peak(lambda: load_cube(path)) <= cube_bytes + slab + 16 * 2**10
    assert np.array_equal(load_cube(path).reflectance, bands.astype(dtype).transpose(1, 2, 0))


def test_hsb_errors_keep_their_text(tmp_path):
    path = tmp_path / "e.hsb"
    full = _hsb_bytes(np.ones((2, 3, 4)), "<f8")
    cases = [
        (b"HSB1" + b"\x00" * 10, TruncatedPayloadError, "file shorter than the 20-byte header"),
        (b"NOPE" + full[4:], BadMagicError, "bad magic b'NOPE'"),
        (b"HSB1" + struct.pack("<IIII", 3, 0, 2, 1), DimensionError,
         "zero dimension in header (3x0x2)"),
        (b"HSB1" + struct.pack("<IIII", 70000, 70000, 1000, 1), DimensionError,
         "header claims 4900000000000 cells, over the 2^32 limit"),
        (full[:-9], TruncatedPayloadError, "payload holds 22 of 24 values"),
        (full + b"\x00" * 3, HsbFormatError, "3 trailing bytes after payload"),
    ]
    for data, error, text in cases:
        path.write_bytes(data)
        with pytest.raises(error, match=f"^{re.escape(f'{path}: {text}')}$"):
            load_cube(path)


def test_hsb_file_cut_while_it_is_read_fails_naming_the_band(tmp_path, monkeypatch):
    # the size checks pass on the file's size when opened; a file cut after
    # that ends inside a band slab, which must not be left unread
    bands = np.ones((3, 2, 2))
    path = tmp_path / "c.hsb"
    path.write_bytes(_hsb_bytes(bands, "<f8"))
    full_size = path.stat().st_size
    path.write_bytes(path.read_bytes()[:-40])
    stat = os.stat_result((0,) * 6 + (full_size,) + (0,) * 3)  # st_size is field 6
    monkeypatch.setattr(hsi.os, "fstat", lambda fd: stat)
    with pytest.raises(TruncatedPayloadError, match=r": payload ends inside band 1$"):
        load_cube(path)


def test_hsb_bad_magic(tmp_path):
    path = tmp_path / "bad.hsb"
    path.write_bytes(b"NOPE" + b"\x00" * 32)
    with pytest.raises(BadMagicError):
        load_cube(path)


def test_hsb_truncated_payload(tmp_path):
    cube = HsiCube(np.ones((10, 10, 5)))
    path = tmp_path / "t.hsb"
    save_cube(cube, path)
    full = path.read_bytes()
    short = full[: 20 + 10 * 10 * 4 * 8]  # payload for 10x10x4 only
    path.write_bytes(short)
    with pytest.raises(TruncatedPayloadError):
        load_cube(path)


def test_hsb_zero_dimension(tmp_path):
    import struct

    path = tmp_path / "z.hsb"
    path.write_bytes(b"HSB1" + struct.pack("<IIII", 0, 4, 4, 1))
    with pytest.raises(DimensionError):
        load_cube(path)


def test_hsb_dimension_overflow(tmp_path):
    import struct

    path = tmp_path / "o.hsb"
    path.write_bytes(b"HSB1" + struct.pack("<IIII", 70000, 70000, 1000, 1))
    with pytest.raises(DimensionError):
        load_cube(path)


def test_hsb_trailing_bytes(tmp_path):
    cube = small_cube()
    path = tmp_path / "x.hsb"
    save_cube(cube, path)
    path.write_bytes(path.read_bytes() + b"\x00" * 8)
    with pytest.raises(HsbFormatError):
        load_cube(path)


def test_csv_cube_roundtrip(tmp_path):
    cube = small_cube(2, (3, 4, 2))
    write_abundance_csv(cube.reflectance, tmp_path / "c.csv")
    back = load_cube(tmp_path / "c.csv", format="csv")
    assert np.allclose(back.reflectance, cube.reflectance, rtol=1e-8)


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_csv_cube_non_finite_value_names_the_file_line_and_column(tmp_path, value):
    path = tmp_path / "c.csv"
    write_abundance_csv(small_cube(2, (3, 4, 2)).reflectance, path)
    lines = path.read_text().splitlines(keepends=True)
    lines[5] = f"1,0,0.5,{value}\n"
    path.write_text("".join(lines))
    with pytest.raises(ValueError, match=rf"^{re.escape(str(path))}: line 6 holds "
                                         rf"{re.escape(repr(float(value)))} in column 'em1'$"):
        load_cube(path, format="csv")


# -- normalization ------------------------------------------------------------------

def test_normalize_global_max():
    # one scale for all bands: each spectrum keeps its shape
    cube = HsiCube(np.ones((2, 2, 3)) * np.array([1.0, 2.0, 4.0]))
    out = normalize(cube)
    assert np.array_equal(out.reflectance, np.ones((2, 2, 3)) * np.array([0.25, 0.5, 1.0]))


def test_normalize_idempotent():
    cube = small_cube(3)
    once = normalize(cube)
    twice = normalize(once)
    assert np.max(np.abs(twice.reflectance - once.reflectance)) < 1e-15


def test_normalize_holds_one_output():
    # dividing and then clipping into a new array held two outputs
    cube = small_cube(7, (64, 64, 32))
    assert traced_peak(lambda: normalize(cube)) <= cube.reflectance.nbytes + 16 * 2**10
    out = normalize(cube)
    assert np.array_equal(out.reflectance,
                          np.clip(cube.reflectance / cube.reflectance.max(), 0.0, 1.0))


def test_normalize_all_zero_errors():
    with pytest.raises(ValueError):
        normalize(HsiCube(np.zeros((2, 2, 2))))


# -- synthetic scenes ----------------------------------------------------------------

@pytest.mark.parametrize("shape,sigma", [
    ((16, 16), 1.5), ((32, 24), 0.7), ((7, 40), 2.0), ((1, 9), 1.0),
    ((5, 3), 3.7), ((11,), 6.1), ((4, 5, 6), 1.2), ((6, 6), 0.1),
])
def test_gaussian_blur_matches_scipy_bit_for_bit(shape, sigma):
    # 5x3 at sigma 3.7 has radius 15: the mirrored edge repeats many times
    from scipy.ndimage import gaussian_filter

    a = np.random.default_rng(30).uniform(0.0, 1.0, size=shape)
    assert np.array_equal(gaussian_blur(a, sigma), gaussian_filter(a, sigma, mode="reflect"))
    assert np.array_equal(gaussian_blur(a[..., ::-1], sigma),
                          gaussian_filter(a[..., ::-1], sigma, mode="reflect"))


def test_import_aegem_leaves_scipy_ndimage_unloaded():
    # the scene blur is numpy: importing the package costs no scipy.ndimage
    code = ("import sys, aegem, aegem.cli; "
            "print(any(m.startswith('scipy.ndimage') for m in sys.modules))")
    assert fresh_interpreter(code) == "False"


def test_scene_noiseless_reconstruction_exact():
    cube, gt = synthesize_scene(SceneSpec(16, 16, 12, 3), 5)
    p = gt.endmembers.shape[1]
    recon = (gt.abundances.reshape(-1, p) @ gt.endmembers.T).reshape(cube.reflectance.shape)
    assert np.array_equal(recon, cube.reflectance)


def test_scene_abundance_constraints():
    _, gt = synthesize_scene(SceneSpec(16, 16, 12, 4), 6)
    assert gt.abundances.min() >= 0.0
    assert np.max(np.abs(gt.abundances.sum(axis=2) - 1.0)) <= 1e-9


def test_scene_snr_within_half_db():
    spec = SceneSpec(16, 16, 12, 3, snr_db=30.0)
    cube, gt = synthesize_scene(spec, 7)
    p = gt.endmembers.shape[1]
    signal = (gt.abundances.reshape(-1, p) @ gt.endmembers.T).reshape(cube.reflectance.shape)
    noise = cube.reflectance - signal
    measured = 10.0 * np.log10(np.sum(signal**2) / np.sum(noise**2))
    assert 29.5 <= measured <= 30.5


def test_scene_seed_reproducible_bitwise():
    spec = SceneSpec(12, 10, 8, 3, snr_db=25.0)
    c1, g1 = synthesize_scene(spec, 11)
    c2, g2 = synthesize_scene(spec, 11)
    assert np.array_equal(c1.reflectance, c2.reflectance)
    assert np.array_equal(g1.endmembers, g2.endmembers)
    assert np.array_equal(g1.abundances, g2.abundances)


def test_finite_snr_scene_is_the_same_at_any_blas_thread_count():
    # the noise gain is a ratio of norms: as OpenBLAS dots, split across its
    # threads, they gave this scene other bytes at 2 threads than at 1
    code = ("import hashlib\n"
            "from aegem.hsi import SceneSpec, synthesize_scene\n"
            "cube = synthesize_scene(SceneSpec(64, 64, 64, 3, snr_db=30.0), 7)[0]\n"
            "print(hashlib.sha256(cube.reflectance.tobytes()).hexdigest())")
    assert fresh_interpreter(code, blas_threads=1) == fresh_interpreter(code, blas_threads=2)


@pytest.mark.parametrize("n", [1, 5, hsi._ROW_BLOCK_BYTES // 8, hsi._ROW_BLOCK_BYTES // 8 + 1,
                               3 * hsi._ROW_BLOCK_BYTES // 8 + 7])
def test_sum_of_squares_is_the_norm_squared_in_one_block_of_scratch(n):
    a = np.random.default_rng(n).normal(size=n)
    want = math.fsum(float(v) ** 2 for v in a)
    assert abs(hsi._sum_of_squares(a) - want) <= 1e-13 * want
    assert traced_peak(lambda: hsi._sum_of_squares(a)) <= hsi._ROW_BLOCK_BYTES + 16 * 2**10


def test_scene_endmember_separation():
    for seed in range(5):
        _, gt = synthesize_scene(SceneSpec(8, 8, 16, 4), seed)
        p = gt.endmembers.shape[1]
        for i in range(p):
            for j in range(i + 1, p):
                assert sad(gt.endmembers[:, i], gt.endmembers[:, j]) >= MIN_ENDMEMBER_SEPARATION


def test_scene_property_sweep():
    # GroundTruth invariants over a spread of random scene specs
    rng = np.random.default_rng(8)
    for _ in range(100):
        h, w = rng.integers(4, 14, size=2)
        p = int(rng.integers(2, 5))
        l = int(rng.integers(p, 16))
        sm = float(rng.uniform(0.0, 2.5))
        snr = float(rng.choice([math.inf, 20.0, 35.0]))
        _, gt = synthesize_scene(SceneSpec(int(h), int(w), l, p, smoothness=sm, snr_db=snr),
                                 int(rng.integers(0, 10000)))
        assert gt.abundances.min() >= 0.0
        assert np.max(np.abs(gt.abundances.sum(axis=2) - 1.0)) <= 1e-9


def test_scene_rejects_too_many_endmembers():
    with pytest.raises(ValueError, match="at most 6"):
        synthesize_scene(SceneSpec(8, 8, 20, 7), 0)


# -- exports -------------------------------------------------------------------------

def test_abundance_maps_pgm_values(tmp_path):
    stack = np.zeros((2, 2, 1))
    stack[:, :, 0] = np.array([[0.0, 1 / 3], [2 / 3, 1.0]])
    paths = save_abundance_maps(stack, tmp_path)
    raw = paths[0].read_bytes()
    header, rest = raw.split(b"255\n", 1)
    assert header == b"P5\n2 2\n"
    assert list(rest) == [0, 85, 170, 255]


def test_abundance_maps_constant_values(tmp_path):
    ones = save_abundance_maps(np.ones((2, 3, 1)), tmp_path / "a")
    assert set(ones[0].read_bytes()[-6:]) == {255}
    halves = save_abundance_maps(np.full((2, 3, 1), 0.5), tmp_path / "b")
    assert set(halves[0].read_bytes()[-6:]) == {128}  # round half up


def test_abundance_maps_rejects_out_of_range(tmp_path):
    with pytest.raises(ValueError, match=re.escape("outside [0, 1]: 1.2 to 1.2")):
        save_abundance_maps(np.full((2, 2, 1), 1.2), tmp_path)


def test_abundance_csv_roundtrip(tmp_path):
    rng = np.random.default_rng(9)
    stack = rng.uniform(0, 1, size=(3, 4, 2))
    write_abundance_csv(stack, tmp_path / "a.csv", ["water", "soil"])
    back, names = read_abundance_csv(tmp_path / "a.csv")
    assert names == ["water", "soil"]
    assert np.allclose(back, stack, rtol=1e-8)


def test_abundance_csv_header(tmp_path):
    write_abundance_csv(np.ones((1, 1, 3)) / 3, tmp_path / "h.csv")
    first = (tmp_path / "h.csv").read_text().splitlines()[0]
    assert first == "row,col,em0,em1,em2"


def _write_abundances(path):
    write_abundance_csv(np.full((3, 4, 2), 0.5), path)
    return lambda: read_abundance_csv(path)


def _write_csv_cube(path):
    write_abundance_csv(small_cube(11, (3, 4, 2)).reflectance, path)
    return lambda: load_cube(path, format="csv")


PIXEL_CSVS = pytest.mark.parametrize("write", [_write_abundances, _write_csv_cube],
                                     ids=["abundances", "cube"])


def _edit_lines(path, edit):
    lines = path.read_text().splitlines(keepends=True)
    path.write_text("".join(edit(lines)))


@PIXEL_CSVS
def test_pixel_csv_truncated_file_names_the_missing_pixel(tmp_path, write):
    # 3x4 raster, header + 12 lines; the last two pixels are cut off
    read = write(tmp_path / "t.csv")
    _edit_lines(tmp_path / "t.csv", lambda lines: lines[:-2])
    with pytest.raises(ValueError, match=r"t\.csv: pixel \(2, 2\) is missing"):
        read()


@PIXEL_CSVS
def test_pixel_csv_duplicated_line_names_the_pixel(tmp_path, write):
    read = write(tmp_path / "d.csv")
    _edit_lines(tmp_path / "d.csv", lambda lines: lines[:3] + [lines[2]] + lines[3:])
    with pytest.raises(ValueError, match=r"d\.csv: pixel \(0, 1\) appears again on line 4"):
        read()


@PIXEL_CSVS
def test_pixel_csv_names_the_first_line_that_repeats_a_pixel(tmp_path, write):
    # pixel lines A, B, B, A: line 4 repeats B before line 5 repeats A
    read = write(tmp_path / "d.csv")
    _edit_lines(tmp_path / "d.csv", lambda lines: [*lines[:3], lines[2], lines[1], *lines[3:]])
    with pytest.raises(ValueError, match=r"d\.csv: pixel \(0, 1\) appears again on line 4"):
        read()


@pytest.mark.parametrize("row", [1_000_000, 4_000_000])
def test_pixel_csv_check_is_sized_by_its_lines_not_the_raster_they_name(tmp_path, row):
    # a mistyped row names a raster of millions of pixels; the check fails
    # holding what three lines take, not one count per pixel of it
    path = tmp_path / "a.csv"
    path.write_text(f"row,col,em0\n0,0,1\n{row},0,1\n0,1,1\n")
    errors = []

    def read():
        try:
            read_abundance_csv(path)
        except ValueError as exc:
            errors.append(str(exc))

    assert traced_peak(read) <= 64 * 2**10
    assert errors == [f"{path}: pixel (1, 0) is missing "
                      f"({2 * (row + 1) - 3} of {row + 1}x2 pixels have no line)"]


def test_pixel_csv_whose_raster_overflows_int64_names_the_line_with_the_largest_row(tmp_path):
    # 3074457345618258604 x 3 pixels is more than 2**63 - 1: the pixel keys
    # row * 3 + col wrapped, and line 2's (0, 0) was reported missing
    path = tmp_path / "a.csv"
    path.write_text("row,col,em0\n0,0,1\n3074457345618258603,2,1\n0,1,1\n0,2,1\n")
    with pytest.raises(ValueError) as err:
        read_abundance_csv(path)
    assert str(err.value) == (f"{path}: line 3 names row 3074457345618258603: a "
                              "3074457345618258604x3 raster has more pixels than a 64-bit "
                              "index can count")


@PIXEL_CSVS
def test_pixel_csv_short_line_names_the_line(tmp_path, write):
    read = write(tmp_path / "s.csv")
    _edit_lines(tmp_path / "s.csv",
                lambda lines: lines[:5] + [lines[5].rsplit(",", 1)[0] + "\n"] + lines[6:])
    with pytest.raises(ValueError, match=r"s\.csv: line 6 has 3 fields, expected 4"):
        read()


@PIXEL_CSVS
def test_pixel_csv_cut_inside_the_last_number_names_the_line(tmp_path, write):
    # the last line loses its newline and the end of its last value
    read = write(tmp_path / "c.csv")
    (tmp_path / "c.csv").write_text((tmp_path / "c.csv").read_text()[:-3])
    with pytest.raises(ValueError, match=r"c\.csv: line 13 does not end in a newline"):
        read()


@PIXEL_CSVS
def test_pixel_csv_unparsable_value_names_the_line(tmp_path, write):
    read = write(tmp_path / "u.csv")
    _edit_lines(tmp_path / "u.csv",
                lambda lines: lines[:7] + [lines[7].replace(",", ",x", 1)] + lines[8:])
    with pytest.raises(ValueError, match=r"u\.csv: line 8 does not parse"):
        read()


def test_table_roundtrip_keeps_keys_values_and_names(tmp_path):
    keys = np.array([[0, 7], [-3, 2**40]])
    values = np.array([[0.1, -2.5e-300], [np.pi, 1e20]])
    write_table(tmp_path / "t.csv", ["i", "j", "x", "y"], keys, values)
    assert (tmp_path / "t.csv").read_text().splitlines()[1] == "0,7,0.1,-2.5e-300"
    k, v, names = read_table(tmp_path / "t.csv", ["i", "j"])
    assert names == ["x", "y"] and k.dtype == np.int64
    assert np.array_equal(k, keys)
    assert np.array_equal(v, [[0.1, -2.5e-300], [float("%.9g" % np.pi), 1e20]])


def test_abundance_csv_matches_the_per_value_format(tmp_path):
    rng = np.random.default_rng(12)
    stack = rng.standard_normal((5, 7, 3)) * 10.0 ** rng.integers(-300, 300, (5, 7, 3))
    stack[0, 0] = [0.0, -0.0, 1.0]
    stack[1, 1] = [np.finfo(float).max, np.finfo(float).tiny, 5e-324]
    write_abundance_csv(stack, tmp_path / "a.csv", ["x", "y", "z"])
    assert (tmp_path / "a.csv").read_text() == pixel_csv_text_per_value(stack, ["x", "y", "z"])


@pytest.mark.parametrize("block_rows", [3, 4096])
def test_tables_are_written_and_read_the_same_in_any_block_size(tmp_path, monkeypatch,
                                                                 block_rows):
    # 65 x 65 = 4225 rows: one full block of 4096 and a ragged one, or 1409 of 3
    rng = np.random.default_rng(13)
    stack = rng.uniform(size=(65, 65, 2))
    monkeypatch.setattr(hsi, "_TABLE_BLOCK_CELLS", block_rows * 4)
    write_abundance_csv(stack, tmp_path / "a.csv", ["x", "y"])
    text = pixel_csv_text_per_value(stack, ["x", "y"])
    assert (tmp_path / "a.csv").read_text() == text
    rc, values, names = read_table(tmp_path / "a.csv", ["row", "col"])
    assert names == ["x", "y"]
    assert np.array_equal(rc, np.indices((65, 65)).reshape(2, -1).T)
    assert np.array_equal(values, [[float(v) for v in line.split(",")[2:]]
                                   for line in text.splitlines()[1:]])


@pytest.mark.parametrize("short_line,message", [(4, "line 4 has 2 fields, expected 3"),
                                                (9, "line 3 does not parse")])
def test_table_errors_are_reported_block_by_block(tmp_path, monkeypatch, short_line, message):
    # blocks of 4 rows are lines 2-5, 6-9, ...: within a block field counts
    # are checked first; a bad value in an earlier block comes before them
    monkeypatch.setattr(hsi, "_TABLE_BLOCK_CELLS", 4 * 3)
    lines = ["band,em0,em1\n"] + [f"{i},0.5,0.5\n" for i in range(10)]
    lines[2] = "1,0.5,x\n"
    lines[short_line - 1] = f"{short_line - 2},0.5\n"
    (tmp_path / "m.csv").write_text("".join(lines))
    with pytest.raises(ValueError, match=rf"m\.csv: {message}"):
        read_table(tmp_path / "m.csv", ["band"])


_KEY_EDGES = [0, 1, -1, -(2**63), 2**63 - 1]
_VALUE_EDGES = [0.0, -0.0, 5e-324, -5e-324, 1e-310, 1e300, -1e300, 1e-300, -1e-300,
                math.nan, math.inf, -math.inf]


@st.composite
def _tables(draw):
    # up to 10 rows cross the block edges at 3, 6 and 9 rows
    n, k, v = draw(st.integers(0, 10)), draw(st.integers(0, 2)), draw(st.integers(0, 4))
    keys = draw(arrays(np.int64, (n, k), elements=st.integers(-(2**63), 2**63 - 1)
                       | st.sampled_from(_KEY_EDGES)))
    values = draw(arrays(np.float64, (n, v), elements=st.floats(allow_subnormal=True)
                         | st.sampled_from(_VALUE_EDGES)))
    return keys, values


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(table=_tables(), fmt=st.sampled_from(["%.9g", "%r"]))
def test_write_table_writes_the_per_row_writers_bytes(tmp_path, monkeypatch, table, fmt):
    # under %r a numpy scalar among the cells would print as np.float64(...)
    monkeypatch.setattr(hsi, "_TABLE_BLOCK_CELLS", 3 * (table[0].shape[1] + table[1].shape[1]))
    keys, values = table
    header = [f"k{j}" for j in range(keys.shape[1])] + [f"v{j}" for j in range(values.shape[1])]
    write_table(tmp_path / "block.csv", header, keys, values, fmt)
    write_table_per_row(tmp_path / "row.csv", header, keys, values, fmt)
    assert (tmp_path / "block.csv").read_bytes() == (tmp_path / "row.csv").read_bytes()


@pytest.mark.parametrize("long_line,short_line,message", [
    (4, 7, "line 4 has 4 fields, expected 3"),
    (7, 4, "line 4 has 2 fields, expected 3"),
])
def test_a_long_and_a_short_line_in_one_block_fail_naming_the_first(
        tmp_path, long_line, short_line, message):
    # the block still holds 3 cells a line, so only a per-line count finds them
    lines = ["band,em0,em1\n"] + [f"{i},0.5,0.5\n" for i in range(10)]
    lines[long_line - 1] = f"{long_line - 2},0.5,0.5,0.5\n"
    lines[short_line - 1] = f"{short_line - 2},0.5\n"
    assert sum(line.count(",") + 1 for line in lines[1:]) == 10 * 3
    path = tmp_path / "m.csv"
    path.write_text("".join(lines))
    for read in (read_table, read_table_per_row):
        with pytest.raises(ValueError) as exc:
            read(path, ["band"])
        assert str(exc.value) == f"{path}: {message}"


@pytest.mark.parametrize("text", [
    "band,v\n 7,0.5\n",
    "band,v\n+3,0.5\n",
    "band,v\n1_000,2_5.0\n",
    "band,v\n0,1e-320\n1,-0.0\n",
    "band,v\r\n0,0.25\r\n1,0.5\r\n",
    "band,v\n0,0.5\n1,infinity\n",
    "band,v\n0,0.5\n1.0,0.5\n",
    "band,v\n0,0.5\n9223372036854775808,0.5\n",
])
def test_read_table_parses_literals_as_the_per_row_reader_does(tmp_path, text):
    path = tmp_path / "t.csv"
    path.write_bytes(text.encode("utf-8"))

    def outcome(read):
        try:
            ints, floats, names = read(path, ["band"])
        except ValueError as exc:
            return str(exc)
        return ints.shape, ints.tobytes(), floats.shape, floats.tobytes(), names

    assert outcome(read_table) == outcome(read_table_per_row)
    if "infinity" in text:
        assert outcome(read_table) == f"{path}: line 3 holds inf in column 'v'"


def _table_outcome(read, path):
    """A read's arrays and names as bytes, or the text of its ValueError."""
    try:
        ints, floats, names = read(path, ["band"])
    except ValueError as exc:
        return str(exc)
    return ints.shape, ints.tobytes(), floats.shape, floats.tobytes(), names


def _per_row_outcome(path):
    """`read_table_per_row`'s outcome, with `read_utf8`'s error for a file
    that is not UTF-8, as `read_table` gave it when it read the file whole."""
    try:
        hsi.read_utf8(path)
    except ValueError as exc:
        return str(exc)
    return _table_outcome(read_table_per_row, path)


_BLOCK_TWO_EDITS = {
    # blocks of 4 rows are lines 2-5, 6-9, 10-11: each edit is to line 7,
    # which starts at byte 13 + 5 * 10 = 63
    "crlf": (b"5,0.5,0.5\r\n", None),
    "lone-cr": (b"5,0.5,0.5\r", None),
    "not-utf8": (b"5,0.5,0.\xe95\n", "line 7 is not UTF-8 text (byte 0xe9 at offset 71)"),
    "field-count": (b"5,0.5\n", "line 7 has 2 fields, expected 3"),
}


@pytest.mark.parametrize("edit", list(_BLOCK_TWO_EDITS))
def test_a_line_in_the_second_block_reads_as_the_whole_file_read_did(tmp_path, monkeypatch,
                                                                      edit):
    # a CR LF or a lone CR ends line 7 as a text-mode read of the whole
    # file ended it; the line and offset of an error are the file's own
    monkeypatch.setattr(hsi, "_TABLE_BLOCK_CELLS", 4 * 3)
    line, message = _BLOCK_TWO_EDITS[edit]
    lines = [b"band,em0,em1\n"] + [b"%d,0.5,0.5\n" % i for i in range(10)]
    lines[6] = line
    path = tmp_path / "m.csv"
    path.write_bytes(b"".join(lines))
    got = _table_outcome(read_table, path)
    assert got == _per_row_outcome(path)
    if message:
        assert got == f"{path}: {message}"
    else:
        assert np.frombuffer(got[1], dtype=np.int64).tolist() == list(range(10))


def test_a_cut_last_line_of_a_table_of_several_blocks_names_it(tmp_path, monkeypatch):
    monkeypatch.setattr(hsi, "_TABLE_BLOCK_CELLS", 4 * 3)
    monkeypatch.setattr(hsi, "_READ_CHUNK_BYTES", 16)
    text = "band,em0,em1\n" + "".join(f"{i},0.5,0.5\n" for i in range(10)) + "10,0.5,0."
    path = tmp_path / "m.csv"
    path.write_text(text)
    assert _table_outcome(read_table, path) == _per_row_outcome(path)
    assert _table_outcome(read_table, path) == f"{path}: line 12 does not end in a newline"


_TEXT_PIECES = [b"0,0.5\n", b"1,-2e3\r\n", b"2,nan\r", b"0", b"7", b"0.5", b",", b"\n",
                b"\r", b"\r\n", b"x", b"\xc3\xa9", b"\xe2\x82\xac", b"\xf0\x9f\x98\x80"]
_NOT_UTF8 = [b"\xe9", b"\xe2\x82", b"\xc3", b"\x80", b"\xff", b"\xed\xa0\x80"]


@settings(max_examples=300, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(head=st.sampled_from([b"band,v\n", b"band,v\r\n", b"band\r", b""]),
       body=st.lists(st.sampled_from(_TEXT_PIECES), max_size=30),
       bad=st.none() | st.tuples(st.integers(0, 30), st.sampled_from(_NOT_UTF8)),
       chunk=st.integers(1, 9), block=st.integers(1, 4))
def test_read_table_in_chunks_and_blocks_reads_as_the_whole_file_read_did(
        tmp_path, monkeypatch, head, body, bad, chunk, block):
    # line ends, characters cut between chunks, and a byte sequence that is
    # not UTF-8 anywhere in the file, read in chunks and blocks of any size
    monkeypatch.setattr(hsi, "_READ_CHUNK_BYTES", chunk)
    monkeypatch.setattr(hsi, "_TABLE_BLOCK_CELLS", 2 * block)
    if bad:
        body.insert(min(bad[0], len(body)), bad[1])
    path = tmp_path / "t.csv"
    path.write_bytes(head + b"".join(body))
    assert _table_outcome(read_table, path) == _per_row_outcome(path)


def test_read_table_scratch_does_not_grow_with_the_row_count(tmp_path):
    # a large_scene abundance table's rows, 2 and 16 blocks of them: the
    # whole-file read held the file's text and a string per line
    rng = np.random.default_rng(14)
    scratch = []
    for blocks in (2, 16):
        n = blocks * hsi._block_rows(5)
        write_table(tmp_path / "a.csv", ["row", "col", "em0", "em1", "em2"],
                    rng.integers(0, 112, (n, 2)), rng.uniform(size=(n, 3)))
        got = []
        peak = traced_peak(lambda: got.append(read_table(tmp_path / "a.csv", ["row", "col"])))
        ints, floats, _ = got[0]
        assert len(ints) == n
        scratch.append(peak - ints.nbytes - floats.nbytes)
    assert abs(scratch[1] - scratch[0]) <= 0.1 * scratch[0], scratch


def test_a_wide_tables_read_scratch_does_not_grow_with_the_row_count(tmp_path):
    # a Samson-shape CSV cube's 158 columns, 2 and 8 blocks of rows: in
    # blocks of 4096 rows whatever the width, both tables were one block
    rng = np.random.default_rng(15)
    header = ["row", "col"] + [f"b{j}" for j in range(156)]
    scratch = []
    for blocks in (2, 8):
        n = blocks * hsi._block_rows(len(header))
        write_table(tmp_path / "c.csv", header, rng.integers(0, 95, (n, 2)),
                    rng.uniform(size=(n, 156)))
        got = []
        peak = traced_peak(lambda: got.append(read_table(tmp_path / "c.csv", ["row", "col"])))
        ints, floats, _ = got[0]
        assert floats.shape == (n, 156)
        scratch.append(peak - ints.nbytes - floats.nbytes)
    assert abs(scratch[1] - scratch[0]) <= 0.1 * scratch[0], scratch


def test_endmember_csv_band_gap_names_the_line(tmp_path):
    path = tmp_path / "m.csv"
    path.write_text("band,em0,em1\n0,0.1,0.2\n5,0.3,0.4\n")
    with pytest.raises(ValueError, match=r"m\.csv: line 3 has band 5, expected 1"):
        read_endmember_csv(path)


def test_endmember_csv_short_line_names_the_line(tmp_path):
    path = tmp_path / "m.csv"
    write_endmember_csv(np.full((4, 2), 0.5), path)
    _edit_lines(path, lambda lines: lines[:3] + ["2,0.5\n"] + lines[4:])
    with pytest.raises(ValueError, match=r"m\.csv: line 4 has 2 fields, expected 3"):
        read_endmember_csv(path)


def test_endmember_csv_roundtrip(tmp_path):
    rng = np.random.default_rng(10)
    m = rng.uniform(0, 1, size=(8, 3))
    write_endmember_csv(m, tmp_path / "m.csv")
    back, names = read_endmember_csv(tmp_path / "m.csv")
    assert names == ["em0", "em1", "em2"]
    assert np.allclose(back, m, rtol=1e-8)
