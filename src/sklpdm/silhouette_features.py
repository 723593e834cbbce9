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

The displacement axis spans the image diagonal in ceil(diagonal) bins,
forced odd so a central bin exists. Every re-centered pixel is a cell of
the fixed centered H x W grid, so the bin of each cell at each angle is
computed once per frame shape and angle count (`_bin_table`); a frame's
sinogram is then one bincount over the table rows of its foreground cells.
"""

from __future__ import annotations

import functools
import math
import re
from dataclasses import dataclass

import numpy as np

from .errors import DataError, NumericalError
from ._util import own, positive_int


@dataclass(frozen=True)
class SilhouetteImage:
    """H x W binary pixel grid; 1 marks foreground."""

    pixels: np.ndarray

    def __post_init__(self):
        pixels = own(self, "pixels", np.uint8)
        if pixels.ndim != 2 or pixels.size == 0:
            raise DataError("pixels must be a nonempty 2-D grid")
        if np.any(pixels > 1):
            raise DataError("pixels must be binary (0/1)")


# one header token, after any whitespace and '#' comments (a comment runs to the next CR or LF)
_PGM_TOKEN = re.compile(rb"(?:\s|#[^\r\n]*)*([^\s#]*)")


def load_pgm(path) -> SilhouetteImage:
    """Read a PGM file (P2 ASCII or P5 binary, maxval <= 255), binarized at > 0."""
    try:
        with open(path, "rb") as handle:
            data = handle.read()
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc}") from exc

    pos, header = 0, []
    for name in ("magic", "width", "height", "maxval"):
        match = _PGM_TOKEN.match(data, pos)
        token, pos = match[1], match.end()
        if not token:
            raise DataError(f"{path}: malformed PGM header (truncated at byte {match.start(1)})")
        if not header and token not in (b"P2", b"P5"):
            raise DataError(f"{path}: malformed PGM header: unsupported magic {token!r}")
        try:
            header.append(int(token) if header else token)
        except ValueError:
            raise DataError(f"{path}: malformed PGM header: non-numeric {name} {token!r}") from None
    magic, width, height, maxval = header
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


def _centered_cells(image: SilhouetteImage):
    """Flat cell index (row * W + column) of each foreground pixel after re-centring.

    Each axis is shifted by the integer offset that moves the foreground
    centroid closest to the image center, clamped so every pixel stays
    inside the H x W frame; the re-centred pixel (i, j) then sits at
    (i - (H-1)/2, j - (W-1)/2) about the center.
    """
    fg = np.argwhere(image.pixels > 0)
    if fg.shape[0] == 0:
        return None
    H, W = image.pixels.shape
    for axis, extent in enumerate((H, W)):
        raw = math.floor(fg[:, axis].mean() - (extent - 1) / 2.0 + 0.5)
        low = int(fg[:, axis].max()) - (extent - 1)
        high = int(fg[:, axis].min())
        fg[:, axis] -= min(max(raw, low), high)
    return fg[:, 0] * W + fg[:, 1]


def _displacement_bins(H, W):
    """Displacement bins of an H x W frame: ceil(diagonal), forced odd."""
    return math.ceil(math.hypot(H, W)) | 1


@functools.lru_cache(maxsize=4)
def _bin_table(H, W, angle_bins):
    """Flat sinogram index of every cell of the centred H x W grid at every angle.

    Row h * W + w is the cell (i, j) = (h - (H-1)/2, w - (W-1)/2). Its entry
    for angle a is rho_bin * angle_bins + a, where rho_bin is the nearest
    displacement bin floor((rho - low) / step + 0.5) of
    rho = i*cos(theta_a) + j*sin(theta_a). A bincount of a frame's rows is
    therefore its sinogram, flattened in C order. The table is int32 and
    read-only, H * W * angle_bins * 4 bytes (2.0 MB for 64 x 44 at 180
    angles); the 4 most recently used are cached.
    """
    diagonal = math.hypot(H, W)
    bins = _displacement_bins(H, W)
    angles = np.arange(angle_bins) * (math.pi / angle_bins)
    cos, sin = np.cos(angles), np.sin(angles)
    i, j = np.indices((H, W)).reshape(2, -1) - np.array([[(H - 1) / 2.0], [(W - 1) / 2.0]])
    low = -diagonal / 2.0
    step = diagonal / (bins - 1)
    table = np.empty((H * W, angle_bins), dtype=np.int32)
    for a in range(angle_bins):  # one column at a time: no H*W x angle_bins float temporaries
        rho = i * cos[a] + j * sin[a]
        table[:, a] = np.floor((rho - low) / step + 0.5)
    if table.min() < 0 or table.max() >= bins:
        raise NumericalError("projection fell outside the displacement span")
    table *= angle_bins
    table += np.arange(angle_bins, dtype=np.int32)
    table.flags.writeable = False
    return table


def radon(image: SilhouetteImage, angle_bins=180):
    """Nearest-bin discrete Radon transform of a binary silhouette.

    Returns the float64 sinogram T[rho_bin, angle_bin]: the foreground mass
    on each projection line, angle_bins samples of theta over [0, pi).
    """
    angle_bins = positive_int(angle_bins, "angle_bins")
    H, W = image.pixels.shape
    bins = _displacement_bins(H, W)
    cells = _centered_cells(image)
    if cells is None:
        return np.zeros((bins, angle_bins))
    table = _bin_table(H, W, angle_bins)
    counts = np.bincount(table[cells].ravel(), minlength=bins * angle_bins)
    return counts.reshape(bins, angle_bins).astype(np.float64)


def r_transform(sinogram):
    """Unit-sum angle profile: per-angle sum of squared sinogram mass, normalized."""
    per_angle = (sinogram**2).sum(axis=0)
    total = per_angle.sum()
    if total <= 0:
        raise NumericalError("all-zero sinogram: empty silhouette has no angle profile")
    return per_angle / total


def sequence_features(frame_paths, angle_bins=180):
    """Feature matrix for an ordered frame list: column f is frame f's angle profile.

    Returns the angle_bins x F matrix. Per-frame failures are re-raised
    with the frame index.
    """
    frame_paths = list(frame_paths)
    if not frame_paths:
        raise DataError("sequence_features needs at least one frame")
    angle_bins = positive_int(angle_bins, "angle_bins")
    columns = []
    for f, frame_path in enumerate(frame_paths):
        try:
            image = load_pgm(frame_path)
            columns.append(r_transform(radon(image, angle_bins)))
        except (DataError, NumericalError) as exc:
            reason = str(exc).removeprefix(f"{frame_path}: ")  # load_pgm names the path
            raise type(exc)(f"frame {f} ({frame_path}): {reason}") from exc
    return np.column_stack(columns)
