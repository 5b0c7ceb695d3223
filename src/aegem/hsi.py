"""Hyperspectral cube representation, file formats, and scene synthesis.

A cube is an H x W x L reflectance raster.  The on-disk HSB container is
bit-exact and language-neutral: a 20-byte header (magic "HSB1", H, W, L,
flags as little-endian uint32) followed by the payload, band-sequential
and row-major within each band.  Flags bit 0 selects the payload width
(0 = float32, 1 = float64): `save_cube` writes float64, and both widths
load, since a cube file can come from elsewhere.

The synthetic scene generator draws smooth positive endmember spectra and
blurred Dirichlet abundance fields, mixes them linearly, and adds white
Gaussian noise scaled to a requested SNR.  It is the ground-truth source
for every desk-scale verification run.

Every CSV table a run writes or reads (abundance stacks, endmember
matrices, the graph edge list, labeled pixels, loss logs, and the CSV
cubes it only reads) is one table format, written by `write_table` and
parsed by `read_table`: a header line of comma-separated column names,
then one line per row holding the integer key columns (`row,col`,
`band`, `epoch`, ...) followed by the value columns, written with
`%.9g` (9 significant digits; the loss logs keep Python's shortest
round-trip repr).  Every line, the last one included, ends in a
newline, so a file cut inside its last line is told apart from a
complete one.

Both functions work on blocks of at most `_TABLE_BLOCK_CELLS` cells
(whole rows, at least one), and hold the text of one block at a time.
A block is written with one `%` call: the row template repeated once
per row, applied to one flat list of the block's cells in row order,
then one `write`.  That list is filled a column at a time, column j
into every width-th slot from j (`cells[j::width] = column.tolist()`),
so no per-row list is built.  Reading first passes over
the file's bytes in chunks of `_READ_CHUNK_BYTES`, to check the UTF-8,
find a cut last line and count the rows.  Then each block's lines are
read, every line's comma count is checked, and the block is joined with
commas and split once, so that column j is every width-th cell from j,
parsed with `map(int, ...)` or `map(float, ...)`.  Only when that fails
is the block parsed again line by line, to name the first line that
does not parse.
"""
from __future__ import annotations

import codecs
import itertools
import math
import os
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .rng import SplitMix64

HSB_MAGIC = b"HSB1"
_MAX_CELLS = 2**32


def gaussian_blur(a: np.ndarray, sigma: float) -> np.ndarray:
    """Separable Gaussian blur of a float array along every axis.

    The same result, bit for bit, as `scipy.ndimage.gaussian_filter(a,
    sigma, mode="reflect")` without importing scipy.ndimage: radius
    int(4*sigma + 0.5), weights exp(-x^2 / (2 sigma^2)) normalized to sum
    one, edges mirrored with the edge value repeated ("symmetric" in
    np.pad), and each output summed as scipy's symmetric-kernel loop sums
    it: the centre tap, then (x[i-k] + x[i+k]) * w[k] from k = r down to 1.
    """
    r = int(4.0 * sigma + 0.5)
    taps = np.arange(-r, r + 1)
    w = np.exp(-0.5 / (sigma * sigma) * taps**2)
    w = (w / w.sum())[r:]
    out = np.asarray(a, dtype=np.float64)
    for axis in range(out.ndim):
        n = out.shape[axis]
        pad = [(r, r) if ax == axis else (0, 0) for ax in range(out.ndim)]
        p = np.moveaxis(np.pad(out, pad, mode="symmetric"), axis, 0)
        acc = p[r : r + n] * w[0]
        for k in range(r, 0, -1):
            acc += (p[r - k : r - k + n] + p[r + k : r + k + n]) * w[k]
        out = np.moveaxis(acc, 0, axis)
    return out


# Bytes of one block of squares in `row_norms` and `_sum_of_squares`.
_ROW_BLOCK_BYTES = 2**20


def row_norms(a: np.ndarray) -> np.ndarray:
    """np.linalg.norm(a, axis=1) of a 2-D array, bit for bit, taken in row
    blocks of `_ROW_BLOCK_BYTES`: each row's sum of squares reads that row
    alone, so the squares of one block, not of the whole array, are built."""
    rows = max(1, _ROW_BLOCK_BYTES // (a.shape[1] * a.itemsize))
    return np.concatenate([np.linalg.norm(a[b : b + rows], axis=1)
                           for b in range(0, len(a), rows)])


def _sum_of_squares(a: np.ndarray) -> float:
    """Sum of a contiguous array's squared values, the same at any BLAS thread
    count: numpy's pairwise sum of each block's squares, blocks of
    `_ROW_BLOCK_BYTES` added in order.  `np.linalg.norm` takes a BLAS dot,
    which OpenBLAS splits across its threads, each adding its own share."""
    flat = a.reshape(-1)
    step = max(1, _ROW_BLOCK_BYTES // flat.itemsize)
    total = 0.0
    for b in range(0, flat.size, step):
        total += float(np.square(flat[b : b + step]).sum())
    return total


def fmt9(v: float) -> str:
    """Format a value with 9 significant digits (CSV convention)."""
    return format(float(v), ".9g")


class HsbFormatError(ValueError):
    """Base class for HSB container violations."""


class BadMagicError(HsbFormatError):
    pass


class DimensionError(HsbFormatError):
    pass


class TruncatedPayloadError(HsbFormatError):
    pass


@dataclass
class HsiCube:
    """H x W x L reflectance raster: finite float64 values, every axis at least 1."""

    reflectance: np.ndarray

    def __post_init__(self):
        self.reflectance = np.asarray(self.reflectance, dtype=np.float64)
        if self.reflectance.ndim != 3:
            raise ValueError(f"reflectance must be H x W x L, got shape {self.reflectance.shape}")
        if min(self.reflectance.shape) < 1:
            raise ValueError("all cube dimensions must be >= 1")
        # min and max propagate NaN, and an infinity is the min or the max: the
        # extremes are finite only if every value is, and no cube-sized mask
        # is built
        r = self.reflectance
        if not (np.isfinite(r.min()) and np.isfinite(r.max())):
            raise ValueError("cube contains non-finite values")

    @property
    def height(self) -> int:
        return self.reflectance.shape[0]

    @property
    def width(self) -> int:
        return self.reflectance.shape[1]

    @property
    def bands(self) -> int:
        return self.reflectance.shape[2]

    def spectra(self) -> np.ndarray:
        """Pixel spectra as an (H*W, L) view, row-major pixel order."""
        return self.reflectance.reshape(-1, self.bands)


@dataclass
class GroundTruth:
    """True endmember signatures (L x P) and abundance fields (H x W x P).

    `materials` names the P materials; None writes em0, em1, ...
    """

    endmembers: np.ndarray
    abundances: np.ndarray
    materials: list[str] | None = None

    def __post_init__(self):
        self.endmembers = np.asarray(self.endmembers, dtype=np.float64)
        self.abundances = np.asarray(self.abundances, dtype=np.float64)
        if self.endmembers.ndim != 2:
            raise ValueError("endmembers must be L x P")
        if self.abundances.ndim != 3 or self.abundances.shape[2] != self.endmembers.shape[1]:
            raise ValueError("abundances must be H x W x P matching endmember count")
        if not (np.all(np.isfinite(self.endmembers)) and np.all(np.isfinite(self.abundances))):
            raise ValueError("ground truth contains non-finite values")
        if self.abundances.min() < 0:
            raise ValueError("abundance non-negativity violated")
        sums = self.abundances.sum(axis=2)
        if np.max(np.abs(sums - 1.0)) > 1e-9:
            raise ValueError("abundance sum-to-one violated beyond 1e-9")


@dataclass
class SceneSpec:
    """Parameters for one synthetic linear-mixture scene."""

    height: int
    width: int
    bands: int
    endmembers: int
    smoothness: float = 2.0
    snr_db: float = math.inf

    def __post_init__(self):
        if min(self.height, self.width, self.bands, self.endmembers) < 1:
            raise ValueError("all scene dimensions must be >= 1")
        if self.endmembers > self.bands:
            raise ValueError("endmember count cannot exceed band count")
        if math.isnan(self.snr_db) or self.snr_db == -math.inf:
            raise ValueError(f"snr_db must be finite or inf, got {self.snr_db!r}")
        if not 0 <= self.smoothness < math.inf:
            raise ValueError(f"smoothness must be finite and >= 0, got {self.smoothness!r}")


# -- HSB container ------------------------------------------------------------

def save_cube(cube: HsiCube, path) -> None:
    """Write a cube as an HSB file with a float64 payload, one band slab at a time."""
    h, w, l = cube.height, cube.width, cube.bands
    with open(path, "wb") as f:
        f.write(HSB_MAGIC + struct.pack("<IIII", h, w, l, 1))
        for b in range(l):
            f.write(np.ascontiguousarray(cube.reflectance[:, :, b], dtype="<f8").data)


def _load_hsb(path) -> HsiCube:
    """The cube of an HSB file, read one band slab at a time into the cube; a
    payload value that is not finite fails naming its pixel and band."""
    with open(path, "rb") as f:
        size = os.fstat(f.fileno()).st_size
        head = f.read(20)
        if len(head) < 20:
            raise TruncatedPayloadError(f"{path}: file shorter than the 20-byte header")
        if head[:4] != HSB_MAGIC:
            raise BadMagicError(f"{path}: bad magic {head[:4]!r}")
        h, w, l, flags = struct.unpack("<IIII", head[4:20])
        if min(h, w, l) < 1:
            raise DimensionError(f"{path}: zero dimension in header ({h}x{w}x{l})")
        if h * w * l > _MAX_CELLS:
            raise DimensionError(f"{path}: header claims {h * w * l} cells, over the 2^32 limit")
        itemsize = 8 if flags & 1 else 4
        expected = h * w * l * itemsize
        if size - 20 < expected:
            raise TruncatedPayloadError(
                f"{path}: payload holds {(size - 20) // itemsize} of {h * w * l} values"
            )
        if size - 20 > expected:
            raise HsbFormatError(f"{path}: {size - 20 - expected} trailing bytes after payload")
        # band-sequential in memory, as the payload is: band b is one contiguous slab
        bands = np.empty((l, h, w))
        slab = np.empty((h, w), dtype="<f8" if flags & 1 else "<f4")
        for b in range(l):
            if f.readinto(slab.data) != slab.nbytes:
                raise TruncatedPayloadError(f"{path}: payload ends inside band {b}")
            if not np.isfinite(slab).all():
                r, c = np.argwhere(~np.isfinite(slab))[0]
                raise ValueError(f"{path}: pixel ({r}, {c}) holds {float(slab[r, c])!r} "
                                 f"in band {b}")
            bands[b] = slab
    return HsiCube(bands.transpose(1, 2, 0))


# -- CSV tables ---------------------------------------------------------------

# Cells a table is written or parsed in at a time, whatever its width: the
# Python lists of one block, not of the whole file, are what a large edge
# list or raster holds.  A block is one `%` call on its cells in row order
# when written; when read, it is the only part of the file held as text,
# joined and split into cells and parsed a column at a time.  4096 rows of
# a 5-column abundance table; 129 rows of a 158-column Samson CSV cube.
_TABLE_BLOCK_CELLS = 5 * 4096


def _block_rows(width: int) -> int:
    """Rows of a `width`-column table in one block: at least one."""
    return max(1, _TABLE_BLOCK_CELLS // max(1, width))


# Bytes of the file `read_table`'s first pass reads at a time.
_READ_CHUNK_BYTES = 2**20


def _utf8_error(path, exc: UnicodeDecodeError, newlines: int = 0,
                offset: int = 0) -> ValueError:
    """The error for a byte that is not UTF-8, naming the file, line and offset;
    exc.object is the file's bytes from `offset` on, after `newlines` newlines."""
    line = newlines + exc.object.count(b"\n", 0, exc.start) + 1
    return ValueError(f"{path}: line {line} is not UTF-8 text (byte "
                      f"{exc.object[exc.start]:#04x} at offset {offset + exc.start})")


def read_utf8(path) -> str:
    """A text file's contents; a byte that is not UTF-8 fails naming the file and line."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        # read_text decodes the whole file at once, so exc.object is its bytes
        raise _utf8_error(path, exc) from None


def _count_lines(path) -> int:
    """The number of lines of a UTF-8 text file, read `_READ_CHUNK_BYTES` at a time.

    A line ends in LF, CR LF or CR, the three ends a text-mode read turns
    into LF.  A byte that is not UTF-8 fails as in `read_utf8`, and a
    last line without its end (a cut file) fails naming the line.
    """
    decoder = codecs.getincrementaldecoder("utf-8")()
    lf = cr = crlf = offset = 0
    tail = b""
    with open(path, "rb") as f:
        # one buffer, read into: a read would allocate the size it asks for
        chunk = bytearray(min(_READ_CHUNK_BYTES, os.fstat(f.fileno()).st_size))
        while True:
            del chunk[f.readinto(chunk):]  # the last chunk is shorter
            pending = decoder.getstate()[0]  # a character cut at the chunk before's end
            if pending or not chunk.isascii():  # ASCII is UTF-8 as it stands
                try:
                    decoder.decode(chunk, final=not chunk)
                except UnicodeDecodeError as exc:
                    # exc.object is the pending bytes, then the chunk
                    raise _utf8_error(path, exc, lf, offset - len(pending)) from None
            if not chunk:
                break
            lf += chunk.count(b"\n")
            if b"\r" in chunk or tail == b"\r":
                cr += chunk.count(b"\r")
                crlf += chunk.count(b"\r\n") + (tail == b"\r" and chunk[:1] == b"\n")
            tail = chunk[-1:]
            offset += len(chunk)
    lines = lf + cr - crlf
    if tail not in (b"", b"\n", b"\r"):
        raise ValueError(f"{path}: line {lines + 1} does not end in a newline")
    return lines


def write_table(path, header: list[str], keys, values, fmt: str = "%.9g") -> None:
    """Write the header line, then one line per row: `keys` (N x K) as
    integers, then `values` (N x V) with `fmt`."""
    keys = np.asarray(keys, dtype=np.int64)
    values = np.asarray(values, dtype=np.float64)
    width = keys.shape[1] + values.shape[1]
    line = ",".join(["%d"] * keys.shape[1] + [fmt] * values.shape[1]) + "\n"
    step = _block_rows(width)
    with open(path, "w", encoding="utf-8") as f:
        f.write(",".join(header) + "\n")
        for b in range(0, len(keys), step):
            k, v = keys[b : b + step], values[b : b + step]
            # the block's cells in row order, filled a column at a time; plain
            # ints and floats: numpy 2 scalars would print as np.float64(...)
            cells = [0] * (len(k) * width)
            for j, column in enumerate(itertools.chain(k.T, v.T)):
                cells[j::width] = column.tolist()
            f.write(line * len(k) % tuple(cells))


def retitle_table(src, dst, header: list[str]) -> None:
    """Write `dst` as the table `src` with `header` for its header line."""
    body = Path(src).read_bytes()
    Path(dst).write_bytes((",".join(header) + "\n").encode("utf-8")
                          + body[body.index(b"\n") + 1:])


def read_table(path, keys: list[str]) -> tuple[np.ndarray, np.ndarray, list[str]]:
    """(N x K int keys, N x V float values, value-column names) of a table.

    The header must start with `keys`; row i is on line i + 2.  A line
    with the wrong field count, a field that does not parse, or a last
    line without its newline (a cut file) fails naming the file and line.
    A first pass over the bytes checks that the file is UTF-8 text, finds
    a cut last line and counts the rows, so the arrays are allocated once
    and the cut line is reported before any value is parsed.  Then the
    rows are read and checked a block of `_block_rows(width)` lines at a
    time, the only text held, every line's field count before any value
    within a block, so a line that does not parse is reported before a
    wrong field count in a later block.  Once every line has parsed, a
    value that is not finite (`nan`, `inf`) fails naming the file, its
    line and its column.  Lines end as in a text-mode read: LF, CR LF or
    CR.
    """
    n_lines = _count_lines(path)
    k = len(keys)
    with open(path, encoding="utf-8") as f:
        header = f.readline()[:-1].split(",") if n_lines else []
        if header[:k] != keys:
            raise ValueError(f"{path}: expected header '{','.join(keys)},...'")
        width, n = len(header), n_lines - 1
        ints = np.empty((n, k), dtype=np.int64)
        floats = np.empty((n, width - k))
        step = _block_rows(width)
        for b in range(0, n, step):
            # every line read ends in its newline, so the split ends in ""
            block = "".join(itertools.islice(f, step)).split("\n")
            block.pop()
            commas = list(map(str.count, block, itertools.repeat(",", len(block))))
            if commas.count(width - 1) != len(block):
                i = next(i for i, c in enumerate(commas) if c != width - 1)
                raise ValueError(f"{path}: line {b + i + 2} has {commas[i] + 1} fields, "
                                 f"expected {width}")
            # every line holds `width` fields, so column j is every width-th cell from j
            cells = ",".join(block).split(",")
            rows = slice(b, b + len(block))
            try:
                for j in range(k):
                    ints[rows, j] = list(map(int, cells[j::width]))
                for j in range(k, width):
                    floats[rows, j - k] = list(map(float, cells[j::width]))
            except (ValueError, OverflowError):
                # row by row, to name the first line that does not parse
                for i, line in enumerate(block, start=b):
                    parts = line.split(",")
                    try:
                        ints[i] = [int(v) for v in parts[:k]]
                        floats[i] = [float(v) for v in parts[k:]]
                    except (ValueError, OverflowError):
                        raise ValueError(f"{path}: line {i + 2} does not parse: "
                                         f"{line!r}") from None
            del block, cells  # before the next block is read
    if not np.isfinite(floats).all():
        i, j = np.argwhere(~np.isfinite(floats))[0]
        raise ValueError(f"{path}: line {i + 2} holds {float(floats[i, j])!r} "
                         f"in column {header[k + j]!r}")
    return ints, floats, header[k:]


def pixel_coordinates(height: int, width: int) -> np.ndarray:
    """(H*W, 2) row,col pairs of every pixel in row-major order."""
    return np.indices((height, width)).reshape(2, -1).T


def sorted_pixels(path, rc: np.ndarray, flat: np.ndarray) -> np.ndarray:
    """The flat pixel indices `flat` of a table's `row,col` lines rc, sorted.

    A pixel on two lines fails naming the first line, in file order, whose
    pixel an earlier line holds.  The check is one stable sort of the
    lines' indices, so its memory goes with the line count, not with the
    raster that the largest row and col name.
    """
    order = np.argsort(flat, kind="stable")
    keys = flat[order]
    again = order[1:][keys[1:] == keys[:-1]]  # a later line of an equal pixel
    if again.size:
        i = int(again.min())
        raise ValueError(f"{path}: pixel ({rc[i, 0]}, {rc[i, 1]}) appears again "
                         f"on line {i + 2}")
    return keys


def load_cube(path, format: str = "hsb") -> HsiCube:
    """Load a cube from an HSB container or a row,col,b0,... CSV."""
    if format == "hsb":
        return _load_hsb(path)
    if format == "csv":
        return HsiCube(read_abundance_csv(path)[0])
    raise ValueError(f"unknown cube format {format!r}")


# -- normalization ------------------------------------------------------------

def normalize(cube: HsiCube) -> HsiCube:
    """Scale reflectance into [0, 1] by the cube's global maximum.

    One scale for every band keeps each pixel's spectral shape, and so
    the spectral angles the graph and the SAD loss read.  Small negative
    values (sensor or synthetic noise) are clipped to 0.
    """
    m = cube.reflectance.max()
    if m <= 0:
        raise ValueError("cannot normalize: cube maximum is not positive")
    out = cube.reflectance / m
    return HsiCube(np.clip(out, 0.0, 1.0, out=out))


# -- synthetic scenes ---------------------------------------------------------

MIN_ENDMEMBER_SEPARATION = 0.15  # pairwise spectral angle, radians
_MAX_REDRAWS = 100


def _draw_spectrum(l: int, rng: SplitMix64) -> np.ndarray:
    """One smooth positive spectrum: a baseline plus Gaussian bumps, max 1."""
    grid = np.linspace(0.0, 1.0, l)
    n_bumps = 2 + rng.integers(4)
    s = np.full(l, rng.uniform(0.05, 0.2))
    for _ in range(n_bumps):
        amp = rng.uniform(0.2, 1.0)
        center = rng.uniform(0.0, 1.0)
        width = rng.uniform(0.04, 0.25)
        s = s + amp * np.exp(-((grid - center) ** 2) / (2.0 * width**2))
    return s / s.max()


def _angle(a: np.ndarray, b: np.ndarray) -> float:
    cos = np.dot(a, b) / (np.linalg.norm(a) * np.linalg.norm(b))
    return float(np.arccos(np.clip(cos, -1.0, 1.0)))


def synthesize_scene(spec: SceneSpec, seed: int) -> tuple[HsiCube, GroundTruth]:
    """Generate a linear-mixture scene with known endmembers and abundances.

    Endmembers are redrawn until all pairwise spectral angles reach
    MIN_ENDMEMBER_SEPARATION; abundance fields are Dirichlet(1,...,1)
    draws blurred per channel and renormalized to sum-to-one.  Noise is
    white Gaussian scaled so the empirical SNR equals spec.snr_db exactly.
    """
    if spec.endmembers > 6:
        raise ValueError("scene generator supports at most 6 endmembers")
    root = SplitMix64(seed)
    em_rng, ab_rng, noise_rng = root.split(1), root.split(2), root.split(3)

    p, l = spec.endmembers, spec.bands
    members = [_draw_spectrum(l, em_rng) for _ in range(p)]
    redraws = 0
    while True:
        bad = None
        for i in range(p):
            for j in range(i + 1, p):
                if _angle(members[i], members[j]) < MIN_ENDMEMBER_SEPARATION:
                    bad = j
                    break
            if bad is not None:
                break
        if bad is None:
            break
        redraws += 1
        if redraws > _MAX_REDRAWS:
            raise ValueError(
                f"could not reach endmember separation {MIN_ENDMEMBER_SEPARATION} rad "
                f"after {_MAX_REDRAWS} redraws"
            )
        members[bad] = _draw_spectrum(l, em_rng)
    endmembers = np.stack(members, axis=1)  # L x P

    # Dirichlet base drawn per macro-cell so blurring leaves large
    # single-material regions instead of washing every pixel to 1/P.
    # One anchor cell per endmember is set pure: every material gets a
    # homogeneous region, as in real ground-cover scenes.
    # cell cores sit >= 2 sigma from their edges, surviving the blur intact;
    # capped so even small scenes keep at least a 2x2 region structure
    cell = max(1, int(round(4.0 * spec.smoothness)) + 1)
    cell = min(cell, max(1, min(spec.height, spec.width) // 2))
    ch, cw = -(-spec.height // cell), -(-spec.width // cell)
    base = ab_rng.dirichlet_flat((ch, cw), p)
    flat_base = base.reshape(-1, p)
    for j, anchor in enumerate(ab_rng.choice(ch * cw, min(p, ch * cw))):
        flat_base[anchor] = np.eye(p)[j]
    abund = np.repeat(np.repeat(base, cell, axis=0), cell, axis=1)
    abund = np.ascontiguousarray(abund[: spec.height, : spec.width])
    if spec.smoothness > 0:
        for k in range(p):
            abund[:, :, k] = gaussian_blur(abund[:, :, k], spec.smoothness)
    abund = np.clip(abund, 0.0, None)
    abund /= abund.sum(axis=2, keepdims=True)

    signal = (abund.reshape(-1, p) @ endmembers.T).reshape(spec.height, spec.width, l)
    if math.isinf(spec.snr_db):
        refl = signal
    else:
        noise = noise_rng.normal(signal.shape)
        gain = math.sqrt(_sum_of_squares(signal) / _sum_of_squares(noise)) \
            / 10.0 ** (spec.snr_db / 20.0)
        # signal + gain * noise, built in the noise's array
        noise *= gain
        refl = np.add(signal, noise, out=noise)
    cube = HsiCube(refl)
    return cube, GroundTruth(endmembers, abund)


# -- abundance / endmember exports ---------------------------------------------

def save_abundance_maps(stack: np.ndarray, out_dir, names: list[str] | None = None) -> list[Path]:
    """Write one 8-bit PGM per endmember plus a raw-value CSV.

    Values must already lie in [0, 1], as the ensemble's renormalized
    final stack does.
    Gray level is round-half-up of 255 * abundance.
    """
    stack = np.asarray(stack, dtype=np.float64)
    if stack.ndim != 3:
        raise ValueError("abundance stack must be H x W x P")
    if stack.min() < 0.0 or stack.max() > 1.0:
        raise ValueError(f"abundance values outside [0, 1]: {stack.min():g} to {stack.max():g}")
    h, w, p = stack.shape
    if names is None:
        names = [f"em{j}" for j in range(p)]
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    paths = []
    for j in range(p):
        gray = np.floor(255.0 * stack[:, :, j] + 0.5).astype(np.uint8)
        path = out_dir / f"{names[j]}.pgm"
        path.write_bytes(f"P5\n{w} {h}\n255\n".encode("ascii") + gray.tobytes())
        paths.append(path)
    csv_path = out_dir / "abundances.csv"
    write_abundance_csv(stack, csv_path, names)
    paths.append(csv_path)
    return paths


def write_abundance_csv(stack: np.ndarray, path, names: list[str] | None = None) -> None:
    """Write per-pixel abundances: header row,col,em0,...,emP-1; 9 digits."""
    h, w, p = stack.shape
    if names is None:
        names = [f"em{j}" for j in range(p)]
    write_table(path, ["row", "col", *names], pixel_coordinates(h, w), stack.reshape(h * w, p))


def read_abundance_csv(path) -> tuple[np.ndarray, list[str]]:
    """(H, W, K) raster and value-column names from a `row,col,v0,...` CSV:
    an abundance stack, or a CSV cube (`load_cube`).

    H and W are one past the largest row and col.  Every pixel of that
    raster must appear exactly once; a duplicate or a missing pixel fails
    naming the file and the line or pixel instead of leaving a zero in
    the raster.  Both checks read the sorted pixels of the lines
    (`sorted_pixels`), so a mistyped row or col fails before anything
    the size of the raster it names is allocated.  A raster of more than
    2**63 - 1 pixels, whose int64 pixel keys would wrap, fails naming the
    line with the largest row.
    """
    rc, values, names = read_table(path, ["row", "col"])
    if not names:
        raise ValueError(f"{path}: expected header 'row,col,v0,...'")
    if not len(rc):
        raise ValueError(f"{path}: no pixel lines")
    if rc.min() < 0:
        bad = int(np.argmax(rc.min(axis=1) < 0))
        raise ValueError(f"{path}: line {bad + 2} has a negative row or col")
    h, w = (int(v) + 1 for v in rc.max(axis=0))
    if h * w > np.iinfo(np.int64).max:  # the keys below would wrap
        bad = int(np.argmax(rc[:, 0]))
        raise ValueError(f"{path}: line {bad + 2} names row {rc[bad, 0]}: a {h}x{w} "
                         "raster has more pixels than a 64-bit index can count")
    keys = sorted_pixels(path, rc, rc[:, 0] * w + rc[:, 1])
    n = len(keys)
    if n < h * w:  # distinct and below h * w: the first pixel missing is the first gap
        gap = np.flatnonzero(keys != np.arange(n))
        r, c = divmod(int(gap[0]) if gap.size else n, w)
        raise ValueError(f"{path}: pixel ({r}, {c}) is missing "
                         f"({h * w - n} of {h}x{w} pixels have no line)")
    raster = np.empty((h, w, len(names)))
    raster[rc[:, 0], rc[:, 1]] = values
    return raster, names


def write_endmember_csv(endmembers: np.ndarray, path, names: list[str] | None = None) -> None:
    """Write an L x P endmember matrix: header band,em0,...,emP-1."""
    l, p = endmembers.shape
    if names is None:
        names = [f"em{j}" for j in range(p)]
    write_table(path, ["band", *names], np.arange(l)[:, None], endmembers)


def read_endmember_csv(path) -> tuple[np.ndarray, list[str]]:
    """(L, P) matrix and names; the band column must count 0, 1, ..."""
    bands, data, names = read_table(path, ["band"])
    if not names:
        raise ValueError(f"{path}: expected header 'band,em0,...'")
    if not len(bands):
        raise ValueError(f"{path}: no band lines")
    off = np.nonzero(bands[:, 0] != np.arange(len(bands)))[0]
    if off.size:
        i = int(off[0])
        raise ValueError(f"{path}: line {i + 2} has band {bands[i, 0]}, expected {i}")
    return data, names
