"""Property tests: a file cut short or with a broken header fails naming itself.

Every strict prefix of a written file either raises a ValueError whose
message starts with the path, or ends right after a line end and reads
back as the leading complete lines of the whole file.
"""
import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from aegem.hsi import (HsiCube, load_cube, read_abundance_csv, read_endmember_csv,
                       save_cube, write_abundance_csv, write_endmember_csv)

DETERMINISTIC = settings(derandomize=True, deadline=None, database=None, max_examples=60,
                         suppress_health_check=[HealthCheck.function_scoped_fixture])

FINITE = st.floats(allow_nan=False, allow_infinity=False, width=64)


def _raster(shape):
    return arrays(np.float64, shape, elements=FINITE)


def _check_prefix(path, data: bytes, cut: int, read):
    """`read` of data[:cut] fails naming `path`, or returns its complete lines."""
    path.write_bytes(data[:cut])
    try:
        got = read(path)
    except ValueError as exc:
        assert str(exc).startswith(str(path)), str(exc)
        return None
    assert data[:cut].endswith(b"\n")
    return got


def _write_pixels(path, stack):
    write_abundance_csv(stack, path)
    return read_abundance_csv


def _write_cube(path, stack):
    write_abundance_csv(stack, path)
    return lambda p: (load_cube(p, format="csv").reflectance, None)


@pytest.mark.parametrize("write", [_write_pixels, _write_cube], ids=["abundances", "cube"])
@DETERMINISTIC
@given(data=st.data(), shape=st.tuples(st.integers(1, 4), st.integers(1, 4),
                                       st.integers(1, 3)))
def test_pixel_csv_prefix_fails_or_reads_the_leading_pixels(tmp_path, write, data, shape):
    stack = data.draw(_raster(shape))
    full = tmp_path / "full.csv"
    read = write(full, stack)
    whole, _ = read(full)
    raw = full.read_bytes()
    cut = data.draw(st.integers(0, len(raw) - 1))
    got = _check_prefix(tmp_path / "cut.csv", raw, cut, read)
    if got is not None:
        part = got[0]
        h, w = part.shape[:2]
        assert h * w == raw[:cut].count(b"\n") - 1
        assert np.array_equal(part, whole[:h, :w])


@DETERMINISTIC
@given(data=st.data(), shape=st.tuples(st.integers(1, 6), st.integers(1, 3)))
def test_endmember_csv_prefix_fails_or_reads_the_leading_bands(tmp_path, data, shape):
    em = data.draw(_raster(shape))
    full = tmp_path / "full.csv"
    write_endmember_csv(em, full)
    whole, _ = read_endmember_csv(full)
    raw = full.read_bytes()
    cut = data.draw(st.integers(0, len(raw) - 1))
    got = _check_prefix(tmp_path / "cut.csv", raw, cut, read_endmember_csv)
    if got is not None:
        n = raw[:cut].count(b"\n") - 1
        assert np.array_equal(got[0], whole[:n])


HEADER_TEXT = st.text(st.characters(blacklist_characters="\n\r", blacklist_categories=["Cs"]),
                      max_size=30)


@DETERMINISTIC
@given(header=HEADER_TEXT)
def test_fuzzed_pixel_csv_header_names_the_file(tmp_path, header):
    fields = header.split(",")
    # a header that starts with the keys and has the right field count is valid
    if fields[:2] == ["row", "col"] and len(fields) == 4:
        return
    path = tmp_path / "a.csv"
    write_abundance_csv(np.full((2, 3, 2), 0.5), path)
    lines = path.read_text(encoding="utf-8").split("\n")
    path.write_text("\n".join([header, *lines[1:]]), encoding="utf-8")
    with pytest.raises(ValueError) as exc:
        read_abundance_csv(path)
    assert str(exc.value).startswith(str(path))


@DETERMINISTIC
@given(header=HEADER_TEXT)
def test_fuzzed_endmember_csv_header_names_the_file(tmp_path, header):
    fields = header.split(",")
    if fields[:1] == ["band"] and len(fields) == 3:
        return
    path = tmp_path / "m.csv"
    write_endmember_csv(np.full((3, 2), 0.5), path)
    lines = path.read_text(encoding="utf-8").split("\n")
    path.write_text("\n".join([header, *lines[1:]]), encoding="utf-8")
    with pytest.raises(ValueError) as exc:
        read_endmember_csv(path)
    assert str(exc.value).startswith(str(path))


@DETERMINISTIC
@given(data=st.data(), shape=st.tuples(st.integers(1, 3), st.integers(1, 3),
                                       st.integers(1, 3)))
def test_hsb_prefix_fails_naming_the_file(tmp_path, data, shape):
    path = tmp_path / "c.hsb"
    save_cube(HsiCube(data.draw(_raster(shape))), path)
    raw = path.read_bytes()
    cut = data.draw(st.integers(0, len(raw) - 1))
    path.write_bytes(raw[:cut])
    with pytest.raises(ValueError) as exc:
        load_cube(path)
    assert str(exc.value).startswith(str(path))
