"""Seeded input generators and writers for the benchmark workloads.

The inputs are made here, not with the package's own generators, so that
a change to the package cannot change what the benchmark feeds it. Every
generator draws from numpy's PCG64 stream for the given seed: the same
seed gives byte-identical files.
"""

import math
import os

import numpy as np


def ring_classes(rng, classes, per_class, noise, dim):
    """Concentric rings of radius 1..K in a random 2-plane of R^dim, plus Gaussian noise.

    Returns (dim x n features, n labels), class by class.
    """
    plane, _ = np.linalg.qr(rng.standard_normal((dim, 2)))
    features = np.empty((dim, classes * per_class))
    labels = np.repeat(np.arange(classes), per_class)
    for k in range(classes):
        angles = rng.uniform(0.0, 2.0 * math.pi, per_class)
        circle = (k + 1.0) * np.vstack([np.cos(angles), np.sin(angles)])
        block = slice(k * per_class, (k + 1) * per_class)
        features[:, block] = plane @ circle + noise * rng.standard_normal((dim, per_class))
    return features, labels


def round_robin_groups(labels, groups):
    """Group ids assigned round-robin within each class, so every group holds every class."""
    out = np.empty(len(labels), dtype=np.int64)
    for k in np.unique(labels):
        members = np.flatnonzero(labels == k)
        out[members] = np.arange(len(members)) % groups
    return out


def write_dataset_csv(path, features, labels, groups=None):
    """Dataset CSV in the package's documented layout: label, f0..f{D-1}[, group]."""
    dim = features.shape[0]
    header = ["label"] + [f"f{j}" for j in range(dim)] + (["group"] if groups is not None else [])
    lines = [",".join(header)]
    for i in range(features.shape[1]):
        row = [f"c{labels[i]}"] + [repr(float(v)) for v in features[:, i]]
        if groups is not None:
            row.append(f"g{groups[i]}")
        lines.append(",".join(row))
    with open(path, "w", encoding="utf-8", newline="") as handle:
        handle.write("\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# Silhouette frames: a stick figure with thick limbs, drawn per action and phase.

ACTIONS = ("walk", "wave", "jack", "bend", "punch")


def _joint_angles(action, phase):
    """Limb angles (radians from straight down) and torso tilt for one frame.

    Returns (left arm, right arm, left leg, right leg, torso tilt).
    """
    s = math.sin(phase)
    if action == "walk":
        return 0.5 * s, -0.5 * s, -0.45 * s, 0.45 * s, 0.0
    if action == "wave":
        return 0.15, -(2.3 + 0.5 * s), 0.05, -0.05, 0.0
    if action == "jack":
        spread = 0.5 * (1.0 + s)
        return 0.3 + 2.2 * spread, -(0.3 + 2.2 * spread), 0.1 + 0.35 * spread, -(0.1 + 0.35 * spread), 0.0
    if action == "bend":
        tilt = 0.45 + 0.4 * s
        return 0.2 + tilt, 0.1 + tilt, 0.08, -0.08, tilt
    # punch: one arm jabs forward and back, the other stays guarded
    return 0.9, -(1.1 + 0.4 * s), 0.25, -0.2, 0.05


def _segment_mask(yy, xx, p, q, radius):
    """Pixels within `radius` of the segment p-q (coordinates as (row, col))."""
    d = np.subtract(q, p)
    length2 = float(d @ d)
    t = ((yy - p[0]) * d[0] + (xx - p[1]) * d[1]) / length2 if length2 > 0 else 0.0
    t = np.clip(t, 0.0, 1.0)
    dy = yy - (p[0] + t * d[0])
    dx = xx - (p[1] + t * d[1])
    return dy * dy + dx * dx <= radius * radius


def silhouette(rng, height, width, action, actor, phase):
    """One binary frame (uint8 0/1) of `actor` performing `action` at `phase`.

    Actors differ in size, limb thickness and proportions; every frame gets
    an integer shift and a sprinkle of flipped pixels around the figure.
    """
    scale, thick, arm_ratio = actor
    yy, xx = np.mgrid[0:height, 0:width].astype(np.float64)
    la, ra, ll, rl, tilt = _joint_angles(action, phase)
    la += rng.normal(0.0, 0.12)
    ra += rng.normal(0.0, 0.12)
    ll += rng.normal(0.0, 0.08)
    rl += rng.normal(0.0, 0.08)
    tilt += rng.normal(0.0, 0.05)
    unit = height * 0.11 * scale
    hip = np.array([height * 0.55, width * 0.5])
    torso_dir = np.array([-math.cos(tilt), math.sin(tilt)])
    neck = hip + 2.2 * unit * torso_dir
    head = neck + 0.8 * unit * torso_dir
    shoulder = hip + 1.9 * unit * torso_dir

    def limb(start, angle, length):
        return start + length * np.array([math.cos(angle), math.sin(angle)])

    mask = _segment_mask(yy, xx, hip, neck, thick * 1.6)
    mask |= (yy - head[0]) ** 2 + (xx - head[1]) ** 2 <= (0.55 * unit) ** 2
    for angle in (la, ra):
        mask |= _segment_mask(yy, xx, shoulder, limb(shoulder, angle, 2.0 * unit * arm_ratio), thick)
    for angle in (ll, rl):
        mask |= _segment_mask(yy, xx, hip, limb(hip, angle, 2.6 * unit), thick * 1.2)
    pixels = mask.astype(np.uint8)
    flips = rng.random((height, width)) < 0.03
    border = np.zeros_like(mask)
    border[1:-1, 1:-1] = mask[1:-1, 1:-1] != mask[:-2, 1:-1]
    border[1:-1, 1:-1] |= mask[1:-1, 1:-1] != mask[1:-1, :-2]
    pixels[flips & border] ^= 1
    shift_y, shift_x = rng.integers(-4, 5, size=2)
    pixels = np.roll(pixels, (int(shift_y), int(shift_x)), axis=(0, 1))
    if not pixels.any():
        pixels[height // 2, width // 2] = 1
    return pixels


def random_actor(rng):
    """(scale, limb half-thickness in pixels, arm length ratio) for one actor."""
    return (rng.uniform(0.85, 1.1), rng.uniform(2.0, 3.2), rng.uniform(0.85, 1.15))


def write_pgm(path, pixels):
    """Binary P5 PGM with maxval 255 (foreground 255, background 0)."""
    height, width = pixels.shape
    with open(path, "wb") as handle:
        handle.write(f"P5\n{width} {height}\n255\n".encode("ascii"))
        handle.write((pixels * 255).astype(np.uint8).tobytes())


def write_frames(directory, rng, actors, frames_per_video, height, width, prefix):
    """Draw every (actor, action) video; write its frames and a path,label,group manifest.csv."""
    os.makedirs(directory, exist_ok=True)
    rows = ["path,label,group"]
    for a, actor in enumerate(actors):
        speed = rng.uniform(0.8, 1.25)
        offset = rng.uniform(0.0, 2.0 * math.pi)
        for action in ACTIONS:
            for f in range(frames_per_video):
                phase = offset + speed * 2.0 * math.pi * f / frames_per_video
                pixels = silhouette(rng, height, width, action, actor, phase)
                name = f"{prefix}{a}-{action}-{f:03d}.pgm"
                write_pgm(os.path.join(directory, name), pixels)
                rows.append(f"{name},{action},{prefix}{a}-{action}")
    with open(os.path.join(directory, "manifest.csv"), "w", encoding="utf-8", newline="") as handle:
        handle.write("\n".join(rows) + "\n")
