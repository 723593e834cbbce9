"""Binary silhouette frames to rotation-profile feature vectors.

A frame's foreground pixels are projected onto lines at angles theta in
[0, pi): each pixel contributes 1 to the nearest displacement bin along
rho = i*cos(theta) + j*sin(theta). Squaring each sinogram column, summing
over displacements, and normalizing by the total squared mass yields a
unit-sum angle profile.

Pixel coordinates are taken relative to the image center, shifted by the
integer offset that moves the foreground centroid closest to that center
(clamped so every pixel stays inside the centered frame). An integer
translation of the silhouette moves the centroid by the same integers, so
the re-centered coordinates - and therefore the sinogram and the feature
vector - are bit-identical under in-frame shifts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DataError, NumericalError


@dataclass(frozen=True)
class SilhouetteImage:
    """H x W binary pixel grid; 1 marks foreground."""

    pixels: np.ndarray

    def __post_init__(self):
        pixels = np.array(self.pixels, dtype=np.uint8)
        if pixels.ndim != 2 or pixels.size == 0:
            raise DataError("pixels must be a nonempty 2-D grid")
        if np.any(pixels > 1):
            raise DataError("pixels must be binary (0/1)")
        pixels.flags.writeable = False
        object.__setattr__(self, "pixels", pixels)

    @property
    def height(self):
        return self.pixels.shape[0]

    @property
    def width(self):
        return self.pixels.shape[1]


@dataclass(frozen=True)
class RadonConfig:
    """angle_bins: theta samples over [0, pi); displacement_bins: rho bins
    spanning the image diagonal, odd so a central bin exists (None = pick
    per image: ceil(diagonal) forced odd)."""

    angle_bins: int = 180
    displacement_bins: int | None = None

    def __post_init__(self):
        if int(self.angle_bins) < 1:
            raise DataError("angle_bins must be >= 1")
        if self.displacement_bins is not None and int(self.displacement_bins) < 3:
            raise DataError("displacement_bins must be >= 3")


@dataclass(frozen=True)
class RadonSinogram:
    """T[rho_bin, angle_bin]: foreground mass per projection line."""

    T: np.ndarray


def load_pgm(path) -> SilhouetteImage:
    """Read a PGM file (P2 ASCII or P5 binary, maxval <= 255), binarized at > 0."""
    try:
        with open(path, "rb") as handle:
            data = handle.read()
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc}") from exc

    pos = 0

    def next_token():
        nonlocal pos
        while pos < len(data):
            byte = data[pos : pos + 1]
            if byte == b"#":
                while pos < len(data) and data[pos : pos + 1] not in (b"\n", b"\r"):
                    pos += 1
            elif byte.isspace():
                pos += 1
            else:
                break
        start = pos
        while pos < len(data) and not data[pos : pos + 1].isspace() and data[pos : pos + 1] != b"#":
            pos += 1
        if start == pos:
            raise DataError(f"{path}: malformed PGM header (truncated at byte {start})")
        return data[start:pos]

    magic = next_token()
    if magic not in (b"P2", b"P5"):
        raise DataError(f"{path}: malformed PGM header: unsupported magic {magic!r}")
    dims = []
    for name in ("width", "height", "maxval"):
        token = next_token()
        try:
            dims.append(int(token))
        except ValueError:
            raise DataError(f"{path}: malformed PGM header: non-numeric {name} {token!r}") from None
    width, height, maxval = dims
    if width < 1 or height < 1:
        raise DataError(f"{path}: malformed PGM header: bad dimensions {width}x{height}")
    if not 1 <= maxval <= 255:
        raise DataError(f"{path}: unsupported maxval {maxval} (must be in 1..255)")

    count = width * height
    if magic == b"P5":
        pos += 1  # exactly one whitespace byte separates the header from the raster
        if len(data) - pos < count:
            raise DataError(
                f"{path}: truncated P5 payload at byte {len(data)}: "
                f"expected {pos + count} bytes"
            )
        raster = np.frombuffer(data, dtype=np.uint8, count=count, offset=pos)
    else:
        tokens = data[pos:].split()
        if len(tokens) < count:
            raise DataError(
                f"{path}: truncated P2 payload: expected {count} values, got {len(tokens)}"
            )
        try:
            raster = np.array([int(t) for t in tokens[:count]], dtype=np.int64)
        except ValueError:
            raise DataError(f"{path}: malformed P2 payload: non-numeric pixel value") from None
    pixels = (raster.reshape(height, width) > 0).astype(np.uint8)
    return SilhouetteImage(pixels=pixels)


def _centered_coordinates(image: SilhouetteImage):
    """Foreground coordinates about the image center, integer-shifted onto the centroid.

    The shift is clamped so all coordinates stay within the centered frame
    bounds (|i| <= (H-1)/2), which keeps every projection inside the
    displacement span.
    """
    fg = np.argwhere(image.pixels > 0)
    if fg.shape[0] == 0:
        return None
    H, W = image.pixels.shape
    center = np.array([(H - 1) / 2.0, (W - 1) / 2.0])
    offsets = np.empty(2, dtype=np.int64)
    for axis, extent in enumerate((H, W)):
        raw = math.floor(fg[:, axis].mean() - center[axis] + 0.5)
        low = int(fg[:, axis].max()) - (extent - 1)
        high = int(fg[:, axis].min())
        offsets[axis] = min(max(raw, low), high)
    return fg - center[None, :] - offsets[None, :]


def radon(image: SilhouetteImage, config: RadonConfig | None = None) -> RadonSinogram:
    """Nearest-bin discrete Radon transform of a binary silhouette."""
    if config is None:
        config = RadonConfig()
    H, W = image.pixels.shape
    diagonal = math.hypot(H, W)
    bins = config.displacement_bins if config.displacement_bins is not None else (math.ceil(diagonal) | 1)
    angles = np.arange(config.angle_bins) * (math.pi / config.angle_bins)
    T = np.zeros((bins, config.angle_bins))
    coords = _centered_coordinates(image)
    if coords is None:
        return RadonSinogram(T=T)
    low = -diagonal / 2.0
    step = diagonal / (bins - 1)
    rho = coords[:, 0:1] * np.cos(angles)[None, :] + coords[:, 1:2] * np.sin(angles)[None, :]
    idx = np.floor((rho - low) / step + 0.5).astype(np.int64)
    if idx.min() < 0 or idx.max() >= bins:
        raise NumericalError("projection fell outside the displacement span")
    for a in range(config.angle_bins):
        T[:, a] = np.bincount(idx[:, a], minlength=bins)
    return RadonSinogram(T=T)


def r_transform(sinogram: RadonSinogram):
    """Unit-sum angle profile: per-angle sum of squared sinogram mass, normalized."""
    squared = sinogram.T.astype(np.float64) ** 2
    per_angle = squared.sum(axis=0)
    total = per_angle.sum()
    if total <= 0:
        raise NumericalError("all-zero sinogram: empty silhouette has no angle profile")
    return per_angle / total


def sequence_features(frame_paths, config: RadonConfig | None = None):
    """Feature matrix for an ordered frame list: column f is frame f's angle profile.

    Returns (angle_bins x F matrix, F). Per-frame failures are re-raised
    with the frame index.
    """
    frame_paths = list(frame_paths)
    if not frame_paths:
        raise DataError("sequence_features needs at least one frame")
    if config is None:
        config = RadonConfig()
    columns = []
    for f, frame_path in enumerate(frame_paths):
        try:
            image = load_pgm(frame_path)
            columns.append(r_transform(radon(image, config)))
        except (DataError, NumericalError) as exc:
            reason = str(exc).removeprefix(f"{frame_path}: ")  # load_pgm names the path
            raise type(exc)(f"frame {f} ({frame_path}): {reason}") from exc
    return np.column_stack(columns), len(columns)
