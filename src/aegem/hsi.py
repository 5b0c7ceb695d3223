"""Hyperspectral cube representation, file formats, and scene synthesis.

A cube is an H x W x L reflectance raster.  The on-disk HSB container is
bit-exact and language-neutral: a 20-byte header (magic "HSB1", H, W, L,
flags as little-endian uint32) followed by the payload, band-sequential
and row-major within each band.  Flags bit 0 selects the payload width
(0 = float32, 1 = float64).

The synthetic scene generator draws smooth positive endmember spectra and
blurred Dirichlet abundance fields, mixes them linearly, and adds white
Gaussian noise scaled to a requested SNR.  It is the ground-truth source
for every desk-scale verification run.
"""
from __future__ import annotations

import math
import struct
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
from scipy.ndimage import gaussian_filter

from .rng import SplitMix64

HSB_MAGIC = b"HSB1"
_MAX_CELLS = 2**32


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
    """H x W x L reflectance raster with optional band wavelengths (nm)."""

    reflectance: np.ndarray
    band_wavelengths: np.ndarray | None = None
    provenance: tuple[str, ...] = ()

    def __post_init__(self):
        self.reflectance = np.asarray(self.reflectance, dtype=np.float64)
        if self.reflectance.ndim != 3:
            raise ValueError(f"reflectance must be H x W x L, got shape {self.reflectance.shape}")
        if min(self.reflectance.shape) < 1:
            raise ValueError("all cube dimensions must be >= 1")
        if not np.all(np.isfinite(self.reflectance)):
            raise ValueError("cube contains non-finite values")
        if self.band_wavelengths is not None:
            self.band_wavelengths = np.asarray(self.band_wavelengths, dtype=np.float64)
            if self.band_wavelengths.shape != (self.bands,):
                raise ValueError("band_wavelengths length must equal band count")

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
    """True endmember signatures (L x P) and abundance fields (H x W x P)."""

    endmembers: np.ndarray
    abundances: np.ndarray

    def __post_init__(self):
        self.endmembers = np.asarray(self.endmembers, dtype=np.float64)
        self.abundances = np.asarray(self.abundances, dtype=np.float64)
        if self.endmembers.ndim != 2:
            raise ValueError("endmembers must be L x P")
        if self.abundances.ndim != 3 or self.abundances.shape[2] != self.endmembers.shape[1]:
            raise ValueError("abundances must be H x W x P matching endmember count")
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
    seed: int = 0

    def __post_init__(self):
        if min(self.height, self.width, self.bands, self.endmembers) < 1:
            raise ValueError("all scene dimensions must be >= 1")
        if self.endmembers > self.bands:
            raise ValueError("endmember count cannot exceed band count")
        if math.isnan(self.snr_db):
            raise ValueError("snr_db must not be NaN")
        if self.smoothness < 0:
            raise ValueError("smoothness must be >= 0")


# -- HSB container ------------------------------------------------------------

def save_cube(cube: HsiCube, path, float64: bool = True) -> None:
    """Write a cube as an HSB file (float64 payload unless float64=False)."""
    h, w, l = cube.height, cube.width, cube.bands
    header = HSB_MAGIC + struct.pack("<IIII", h, w, l, 1 if float64 else 0)
    payload = np.ascontiguousarray(np.transpose(cube.reflectance, (2, 0, 1)))
    dtype = "<f8" if float64 else "<f4"
    Path(path).write_bytes(header + payload.astype(dtype).tobytes())


def _load_hsb(path) -> HsiCube:
    raw = Path(path).read_bytes()
    if len(raw) < 20:
        raise TruncatedPayloadError(f"{path}: file shorter than the 20-byte header")
    if raw[:4] != HSB_MAGIC:
        raise BadMagicError(f"{path}: bad magic {raw[:4]!r}")
    h, w, l, flags = struct.unpack("<IIII", raw[4:20])
    if min(h, w, l) < 1:
        raise DimensionError(f"{path}: zero dimension in header ({h}x{w}x{l})")
    if h * w * l > _MAX_CELLS:
        raise DimensionError(f"{path}: header claims {h * w * l} cells, over the 2^32 limit")
    itemsize = 8 if flags & 1 else 4
    expected = h * w * l * itemsize
    if len(raw) - 20 < expected:
        raise TruncatedPayloadError(
            f"{path}: payload holds {(len(raw) - 20) // itemsize} of {h * w * l} values"
        )
    if len(raw) - 20 > expected:
        raise HsbFormatError(f"{path}: {len(raw) - 20 - expected} trailing bytes after payload")
    dtype = "<f8" if flags & 1 else "<f4"
    bands = np.frombuffer(raw, dtype=dtype, count=h * w * l, offset=20).reshape(l, h, w)
    return HsiCube(np.transpose(bands, (1, 2, 0)).astype(np.float64))


def _read_pixel_csv(path) -> tuple[np.ndarray, list[str]]:
    """(H, W, K) raster and value-column names from a `row,col,v0,...` CSV.

    H and W are one past the largest row and col.  Every pixel of that
    raster must appear exactly once, on a line with the header's field
    count; a short line, a duplicate or a missing pixel fails naming the
    file and the line or pixel instead of leaving a zero in the raster.
    """
    with open(path, "r", encoding="utf-8") as f:
        header = f.readline().strip().split(",")
        if header[:2] != ["row", "col"] or len(header) < 3:
            raise ValueError(f"{path}: expected header 'row,col,v0,...'")
        coords, values, linenos = [], [], []
        for lineno, line in enumerate(f, start=2):
            parts = line.strip().split(",")
            if parts == [""]:
                continue
            if len(parts) != len(header):
                raise ValueError(f"{path}: line {lineno} has {len(parts)} fields, "
                                 f"expected {len(header)}")
            try:
                coords.append((int(parts[0]), int(parts[1])))
                values.append([float(v) for v in parts[2:]])
            except ValueError:
                raise ValueError(f"{path}: line {lineno} does not parse: "
                                 f"{line.strip()!r}") from None
            linenos.append(lineno)
    if not coords:
        raise ValueError(f"{path}: no pixel lines")
    rc = np.asarray(coords)
    if rc.min() < 0:
        bad = int(np.argmax(rc.min(axis=1) < 0))
        raise ValueError(f"{path}: line {linenos[bad]} has a negative row or col")
    h, w = (int(v) + 1 for v in rc.max(axis=0))
    flat = rc[:, 0] * w + rc[:, 1]
    counts = np.bincount(flat, minlength=h * w)
    if counts.max() > 1:
        first = flat[np.argmax(counts[flat] > 1)]
        again = np.nonzero(flat == first)[0][1]
        r, c = divmod(int(first), w)
        raise ValueError(f"{path}: pixel ({r}, {c}) appears again on line {linenos[again]}")
    missing = np.nonzero(counts == 0)[0]
    if missing.size:
        r, c = divmod(int(missing[0]), w)
        raise ValueError(f"{path}: pixel ({r}, {c}) is missing "
                         f"({missing.size} of {h}x{w} pixels have no line)")
    raster = np.empty((h, w, len(header) - 2))
    raster[rc[:, 0], rc[:, 1]] = values
    return raster, header[2:]


def load_cube(path, format: str = "hsb") -> HsiCube:
    """Load a cube from an HSB container or a row,col,b0,... CSV."""
    if format == "hsb":
        return _load_hsb(path)
    if format == "csv":
        return HsiCube(_read_pixel_csv(path)[0])
    raise ValueError(f"unknown cube format {format!r}")


def save_cube_csv(cube: HsiCube, path) -> None:
    header = "row,col," + ",".join(f"b{i}" for i in range(cube.bands))
    with open(path, "w", encoding="utf-8") as f:
        f.write(header + "\n")
        for r in range(cube.height):
            for c in range(cube.width):
                vals = ",".join(fmt9(v) for v in cube.reflectance[r, c])
                f.write(f"{r},{c},{vals}\n")


# -- normalization ------------------------------------------------------------

def normalize(cube: HsiCube, mode: str = "global_max") -> HsiCube:
    """Scale reflectance into [0, 1] by the global or per-band maximum.

    Small negative values (sensor or synthetic noise) are clipped to 0.
    The mode is recorded in the cube's provenance.
    """
    refl = cube.reflectance
    if mode == "global_max":
        m = refl.max()
        if m <= 0:
            raise ValueError("cannot normalize: cube maximum is not positive")
        out = refl / m
    elif mode == "per_band":
        m = refl.max(axis=(0, 1))
        dead = np.nonzero(m <= 0)[0]
        if dead.size:
            raise ValueError(f"cannot normalize: band {dead[0]} has no positive values")
        out = refl / m
    else:
        raise ValueError(f"unknown normalize mode {mode!r}")
    return HsiCube(
        np.clip(out, 0.0, 1.0),
        band_wavelengths=cube.band_wavelengths,
        provenance=cube.provenance + (f"normalize:{mode}",),
    )


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


def synthesize_scene(spec: SceneSpec) -> tuple[HsiCube, GroundTruth]:
    """Generate a linear-mixture scene with known endmembers and abundances.

    Endmembers are redrawn until all pairwise spectral angles reach
    MIN_ENDMEMBER_SEPARATION; abundance fields are Dirichlet(1,...,1)
    draws blurred per channel and renormalized to sum-to-one.  Noise is
    white Gaussian scaled so the empirical SNR equals spec.snr_db exactly.
    """
    if spec.endmembers > 6:
        raise ValueError("scene generator supports at most 6 endmembers")
    root = SplitMix64(spec.seed)
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
            abund[:, :, k] = gaussian_filter(abund[:, :, k], spec.smoothness, mode="reflect")
    abund = np.clip(abund, 0.0, None)
    abund /= abund.sum(axis=2, keepdims=True)

    signal = (abund.reshape(-1, p) @ endmembers.T).reshape(spec.height, spec.width, l)
    if math.isinf(spec.snr_db):
        refl = signal
    else:
        noise = noise_rng.normal(signal.shape)
        gain = np.linalg.norm(signal) / (np.linalg.norm(noise) * 10.0 ** (spec.snr_db / 20.0))
        refl = signal + gain * noise
    cube = HsiCube(refl, provenance=("synthetic",))
    return cube, GroundTruth(endmembers, abund)


# -- abundance / endmember exports ---------------------------------------------

def save_abundance_maps(stack: np.ndarray, out_dir, names: list[str] | None = None) -> list[Path]:
    """Write one 8-bit PGM per endmember plus a raw-value CSV.

    Values must already lie in [0, 1]; callers clamp deliberately.
    Gray level is round-half-up of 255 * abundance.
    """
    stack = np.asarray(stack, dtype=np.float64)
    if stack.ndim != 3:
        raise ValueError("abundance stack must be H x W x P")
    if stack.min() < 0.0 or stack.max() > 1.0:
        raise ValueError("abundance values outside [0, 1]; clamp before saving")
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
    with open(path, "w", encoding="utf-8") as f:
        f.write("row,col," + ",".join(names) + "\n")
        for r in range(h):
            for c in range(w):
                f.write(f"{r},{c}," + ",".join(fmt9(v) for v in stack[r, c]) + "\n")


def read_abundance_csv(path) -> tuple[np.ndarray, list[str]]:
    """(H, W, P) stack and channel names; every pixel exactly once."""
    return _read_pixel_csv(path)


def write_endmember_csv(endmembers: np.ndarray, path, names: list[str] | None = None) -> None:
    """Write an L x P endmember matrix: header band,em0,...,emP-1."""
    l, p = endmembers.shape
    if names is None:
        names = [f"em{j}" for j in range(p)]
    with open(path, "w", encoding="utf-8") as f:
        f.write("band," + ",".join(names) + "\n")
        for b in range(l):
            f.write(f"{b}," + ",".join(fmt9(v) for v in endmembers[b]) + "\n")


def read_endmember_csv(path) -> tuple[np.ndarray, list[str]]:
    with open(path, "r", encoding="utf-8") as f:
        header = f.readline().strip().split(",")
        if header[0] != "band":
            raise ValueError(f"{path}: expected header 'band,...'")
        names = header[1:]
        rows = [line.strip().split(",") for line in f if line.strip()]
    data = np.asarray([[float(v) for v in r[1:]] for r in rows])
    return data, names
