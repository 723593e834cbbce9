"""Independent reference computations that the benchmark checks outputs against.

Nothing here imports sklpdm. Each routine recomputes a result from its
documented definition with a different method than the package uses
(direct loops, Gram-matrix distances, own file parsers), so that a fault in
a shared helper cannot make the check agree with a wrong output.
"""

import csv
import math

import numpy as np


class CheckFailed(Exception):
    """An output disagreed with its reference."""


def require(condition, message):
    if not condition:
        raise CheckFailed(message)


# ---------------------------------------------------------------------------
# File readers


def read_dataset_csv(path):
    """(label strings, group strings or None, D x n features) from a dataset or embedding CSV."""
    with open(path, "r", encoding="utf-8", newline="") as handle:
        rows = list(csv.reader(handle))
    header = rows[0]
    label_col = header.index("label") if "label" in header else None
    group_col = header.index("group") if "group" in header else None
    feature_cols = [c for c in range(len(header)) if c not in (label_col, group_col)]
    body = rows[1:]
    labels = [row[label_col] for row in body] if label_col is not None else None
    groups = [row[group_col] for row in body] if group_col is not None else None
    values = np.array([[row[c] for c in feature_cols] for row in body], dtype=np.float64)
    return labels, groups, values.T


def read_pgm(path):
    """Pixels (0/1) of a binary P5 PGM as written by the benchmark's own generator."""
    with open(path, "rb") as handle:
        data = handle.read()
    tokens = data.split(maxsplit=4)
    require(tokens[0] == b"P5", f"{path}: not a P5 PGM")
    width, height = int(tokens[1]), int(tokens[2])
    raster = data[len(data) - width * height :]
    return [[1 if raster[r * width + c] > 0 else 0 for c in range(width)] for r in range(height)]


def read_report(path):
    """Overall accuracy and the confusion tables of a `classify` report.

    Returns {"accuracy": float, "confusion": {(true, predicted): count},
    "group_confusion": same or None}.
    """
    with open(path, "r", encoding="utf-8") as handle:
        lines = handle.read().splitlines()

    def table(title):
        for pos, line in enumerate(lines):
            if line.startswith(title):
                names = lines[pos + 1].split()
                cells = {}
                for row in lines[pos + 2 : pos + 2 + len(names)]:
                    parts = row.split()
                    for name, count in zip(names, parts[1:]):
                        cells[(parts[0], name)] = int(count)
                return cells
        return None

    accuracy = [float(l.split(":")[1]) for l in lines if l.startswith("overall accuracy:")]
    confusion = table("confusion matrix")
    require(accuracy and confusion is not None, f"{path}: no overall accuracy or confusion matrix")
    return {"accuracy": accuracy[0], "confusion": confusion, "group_confusion": table("group-vote confusion")}


# ---------------------------------------------------------------------------
# Nearest neighbour and voting


def nearest_neighbour(train_X, train_y, test_X):
    """1-NN by exhaustive scan; distance ties go to the lower training index.

    Returns (predictions, ambiguous) where ambiguous[i] marks a test point
    whose two nearest differently-labelled training points lie within a
    relative 1e-9 of each other, so that rounding alone could decide it.
    """
    predictions = []
    ambiguous = []
    for i in range(test_X.shape[1]):
        diff = train_X - test_X[:, i : i + 1]
        dist = (diff * diff).sum(axis=0)
        best = int(np.argmin(dist))  # first minimum = lowest index
        predictions.append(train_y[best])
        other = dist[np.asarray(train_y) != train_y[best]]
        ambiguous.append(bool(other.size) and other.min() - dist[best] <= 1e-9 * (dist[best] + 1e-300))
    return predictions, ambiguous


def majority_vote(labels, groups):
    """{group: most frequent label}; a tie goes to the tied label seen first in frame order."""
    members = {}
    for label, group in zip(labels, groups):
        members.setdefault(group, []).append(label)
    votes = {}
    for group, seq in members.items():
        counts = {}
        for label in seq:
            counts[label] = counts.get(label, 0) + 1
        top = max(counts.values())
        votes[group] = next(label for label in seq if counts[label] == top)
    return votes


def tally(true_labels, predicted_labels):
    cells = {}
    for t, p in zip(true_labels, predicted_labels):
        cells[(t, p)] = cells.get((t, p), 0) + 1
    return cells


def same_tally(reported, expected, slack, what):
    """Equal tables, allowing `slack` moved entries for rounding-ambiguous points."""
    keys = set(reported) | set(expected)
    moved = sum(abs(reported.get(k, 0) - expected.get(k, 0)) for k in keys)
    require(moved <= 2 * slack, f"{what}: {moved} entries differ from the brute-force 1-NN tally")


# ---------------------------------------------------------------------------
# Silhouette angle profile


def angle_profile(pixels, angle_bins):
    """Direct R-transform of a binary frame, one pixel and one angle at a time.

    Follows the documented rule: coordinates about the image center, moved by
    the clamped integer offset nearest the foreground centroid; each pixel
    adds 1 to the nearest of ceil(diagonal)|1 displacement bins along
    i*cos(theta) + j*sin(theta); per-angle sums of squared bin counts,
    normalised to unit sum.
    """
    height, width = len(pixels), len(pixels[0])
    fg = [(i, j) for i in range(height) for j in range(width) if pixels[i][j]]
    center = ((height - 1) / 2.0, (width - 1) / 2.0)
    offsets = []
    for axis, extent in ((0, height), (1, width)):
        values = [p[axis] for p in fg]
        raw = math.floor(sum(values) / len(values) - center[axis] + 0.5)
        offsets.append(min(max(raw, max(values) - (extent - 1)), min(values)))
    coords = [(i - center[0] - offsets[0], j - center[1] - offsets[1]) for i, j in fg]
    diagonal = math.hypot(height, width)
    bins = math.ceil(diagonal) | 1
    low = -diagonal / 2.0
    step = diagonal / (bins - 1)
    per_angle = []
    for a in range(angle_bins):
        theta = a * (math.pi / angle_bins)
        c, s = math.cos(theta), math.sin(theta)
        column = [0] * bins
        for y, x in coords:
            column[math.floor((y * c + x * s - low) / step + 0.5)] += 1
        per_angle.append(float(sum(v * v for v in column)))
    total = sum(per_angle)
    return np.array(per_angle) / total


# ---------------------------------------------------------------------------
# SKLP initial objective and the diffusion spectrum


def gram_sq_distances(Y):
    """Squared distances between columns through the Gram matrix, diagonal exactly 0."""
    sq = (Y * Y).sum(axis=0)
    M = sq[:, None] + sq[None, :] - 2.0 * (Y.T @ Y)
    np.maximum(M, 0.0, out=M)
    np.fill_diagonal(M, 0.0)
    return M


def median_distance(M):
    return float(np.median(np.sqrt(M[np.triu_indices(M.shape[0], 1)])))


def sklp_initial_objective(X, labels, rho):
    """J0 of an SKLP fit with automatic bandwidth, dimension K-1 and pair-count weights.

    Distances come from the top-(K-1) principal directions, sigma is their
    median, lambda_k = n_o / (K * n_k) over ordered pairs, and
    J0 = (1-rho) sum_k lambda_k sum_intra-k exp(-M/sigma^2) - rho sum_inter exp(-M/sigma^2).
    """
    labels = np.asarray(labels)
    classes = np.unique(labels)
    K, n = len(classes), X.shape[1]
    centered = X - X.mean(axis=1, keepdims=True)
    values, vectors = np.linalg.eigh(centered @ centered.T / (n - 1))
    top = vectors[:, np.argsort(values)[::-1][: min(K - 1, X.shape[0], n - 1)]]
    M = gram_sq_distances(top.T @ X)
    sigma = median_distance(M)
    kernel = np.exp(-M / sigma**2)
    np.fill_diagonal(kernel, 0.0)
    counts = np.array([(labels == k).sum() for k in classes])
    n_k = counts * (counts - 1)
    n_o = n * (n - 1) - n_k.sum()
    intra = np.array([kernel[np.ix_(labels == k, labels == k)].sum() for k in classes])
    inter = kernel.sum() - intra.sum()
    weights = n_o / (K * np.maximum(n_k, 1))
    return float((1.0 - rho) * (weights * intra).sum() - rho * inter)


def check_diffusion_embedding(X, embedding, time_steps):
    """Each embedding column is lambda^t times a unit right eigenvector of T = D^-1 W.

    T is built here from the training columns X with the median-distance
    bandwidth. Checks the eigen-residual ||T psi - lambda psi||, that the
    lambdas descend, and that they are the leading non-trivial eigenvalues
    of T. Returns the lambdas.
    """
    M = gram_sq_distances(X)
    W = np.exp(-M / median_distance(M) ** 2)
    T = W / W.sum(axis=1, keepdims=True)
    lambdas = []
    for l in range(embedding.shape[1]):
        column = embedding[:, l]
        psi = column / np.linalg.norm(column)
        image = T @ psi
        lam = float(psi @ image)
        residual = float(np.linalg.norm(image - lam * psi))
        require(residual <= 1e-8, f"diffusion coordinate {l + 1}: eigen-residual {residual:.3g}")
        require(
            abs(np.linalg.norm(column) - abs(lam) ** time_steps) <= 1e-8,
            f"diffusion coordinate {l + 1}: norm is not lambda^t",
        )
        lambdas.append(lam)
    require(all(a > b for a, b in zip(lambdas, lambdas[1:])), f"eigenvalues not descending: {lambdas}")
    root = 1.0 / np.sqrt(W.sum(axis=1))
    spectrum = np.sort(np.linalg.eigvalsh(W * np.outer(root, root)))[::-1]
    leading = spectrum[1 : 1 + len(lambdas)]
    require(
        np.allclose(lambdas, leading, rtol=0.0, atol=1e-8),
        f"eigenvalues {lambdas} are not the leading non-trivial ones {leading.tolist()}",
    )
    return lambdas
