"""Diffusion-map embedding: Markov transition eigenpairs plus out-of-sample extension.

The affinity is a Gaussian kernel on pairwise squared distances; rows of
the normalized transition matrix T are jumping probabilities. T is
eigendecomposed through its symmetric conjugate D^(1/2) T D^(-1/2) for
stability. Only the top embed_dim + 1 eigenpairs are kept: the trivial
pair (lambda_0 = 1, constant eigenvector) and the embed_dim retained
pairs. Embedding coordinates are lambda_l^t * phi_l(i) over the retained
pairs. New points are embedded by the Nystrom rule: their normalized
affinities to the training points averaged against each retained
eigenvector, scaled by lambda_l^(t-1).
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .errors import DataError, NumericalError
from .sklp_projection import (
    bandwidth as _bandwidth, gaussian_kernel, pairwise_sq_distances, _fix_signs, _sorted_eigh)
from ._util import atomic_write_text, positive_int, save_float_rows_csv


@dataclass(frozen=True)
class DiffusionConfig:
    """bandwidth: kernel sigma or "auto" (median pairwise distance), by sklp_projection.bandwidth's
    rule; embed_dim: number of retained coordinates; time: diffusion steps."""

    bandwidth: float | str = "auto"
    embed_dim: int = 2
    time: int = 1

    def __post_init__(self):
        if self.bandwidth != "auto":
            _bandwidth(None, self.bandwidth, "bandwidth")
        for name in ("embed_dim", "time"):
            object.__setattr__(self, name, positive_int(getattr(self, name), name))


@dataclass(frozen=True)
class DiffusionModel:
    """Fitted diffusion embedding.

    eigenvalues holds the top embed_dim + 1 transition eigenvalues,
    descending: the trivial lambda_0 = 1, then the retained ones.
    eigenvectors holds the matching right eigenvectors of T as unit-norm
    columns, n x (embed_dim + 1); column 0 is constant. embedding is
    n x embed_dim (rows are embedded training points). No n x n array is
    kept.
    """

    train_points: np.ndarray
    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    embedding: np.ndarray
    bandwidth: float
    time: int
    embed_dim: int

    def __post_init__(self):
        if abs(self.eigenvalues[0] - 1.0) > 1e-8:
            raise NumericalError("leading transition eigenvalue must be 1")
        if np.any(np.abs(self.eigenvalues) > 1.0 + 1e-8):
            raise NumericalError("transition eigenvalues must lie in [-1, 1]")


def affinity(Xhat, bandwidth):
    """Gaussian affinities W_ij = exp(-||x_i - x_j||^2 / sigma^2), sigma as in fit; symmetric, unit diagonal."""
    S = pairwise_sq_distances(np.asarray(Xhat, dtype=np.float64))
    return gaussian_kernel(S, _bandwidth(S, bandwidth), S)


def fit(Xhat, config: DiffusionConfig) -> DiffusionModel:
    """Fit the diffusion embedding on columns of Xhat."""
    X = np.asarray(Xhat, dtype=np.float64)
    if X.ndim != 2:
        raise DataError("Xhat must be a 2-D matrix (columns are samples)")
    n = X.shape[1]
    kept = config.embed_dim + 1  # the trivial pair, then the retained ones
    if n < kept:
        raise DataError(f"embed_dim {config.embed_dim} exceeds available eigenpairs for n={n}")
    S = pairwise_sq_distances(X)  # one buffer: distances, their median, affinity W, conjugate
    sigma = _bandwidth(S, config.bandwidth)
    # the symmetric conjugate D^-1/2 W D^-1/2 of T = D^-1 W shares its (real)
    # spectrum; scaled in place row by row, it is exactly symmetric as W is
    inv_root = 1.0 / np.sqrt(gaussian_kernel(S, sigma, S).sum(axis=1))
    for i, scale in enumerate(inv_root):
        S[i] *= scale * inv_root
    values, phi = _sorted_eigh(S, kept)
    values = values[:kept]
    phi *= inv_root[:, None]  # right eigenvectors of T
    phi /= np.linalg.norm(phi, axis=0, keepdims=True)
    _fix_signs(phi)  # again: the rescale can move each column's largest entry

    embedding = phi[:, 1:] * (values[1:] ** config.time)[None, :]
    return DiffusionModel(
        train_points=X.copy(),
        eigenvalues=values,
        eigenvectors=phi,
        embedding=embedding,
        bandwidth=sigma,
        time=config.time,
        embed_dim=config.embed_dim,
    )


def extend(model: DiffusionModel, Xnew):
    """Nystrom embedding of new columns into the fitted diffusion space.

    Coordinates: lambda_l^(t-1) * sum_j p_j phi_l(j), where p is the new
    point's normalized affinity row to the training points. A new point
    equal to a training point reproduces that training embedding row.
    """
    Xnew = np.asarray(Xnew, dtype=np.float64)
    if Xnew.ndim != 2 or Xnew.shape[0] != model.train_points.shape[0]:
        raise DataError(
            f"expected {model.train_points.shape[0]} feature rows, got {Xnew.shape}"
        )
    probs = pairwise_sq_distances(Xnew, model.train_points)
    sums = gaussian_kernel(probs, model.bandwidth, probs).sum(axis=1, keepdims=True)
    unreached = np.count_nonzero(sums == 0)
    if unreached:
        raise NumericalError(
            f"{unreached} of {len(sums)} new columns have zero affinity to every training "
            f"point at bandwidth {model.bandwidth!r}: they lie too far from the training data"
        )
    probs /= sums
    lam = model.eigenvalues[1:]
    coords = probs @ model.eigenvectors[:, 1:]
    return coords * (lam ** (model.time - 1))[None, :]


def save_embedding_csv(path, embedding, labels=None):
    """Embedding export: columns `label` (when provided) and c1..c_d."""
    embedding = np.asarray(embedding, dtype=np.float64)
    header = (["label"] if labels is not None else []) + [f"c{j + 1}" for j in range(embedding.shape[1])]
    save_float_rows_csv(path, header, embedding, lead=labels)


def save_model_json(model: DiffusionModel, path):
    """Serialize what `extend` needs (full float precision): the kept pairs and training points."""
    payload = {
        "bandwidth": model.bandwidth,
        "time": model.time,
        "embed_dim": model.embed_dim,
        "eigenvalues": model.eigenvalues.tolist(),
        "eigenvectors": model.eigenvectors.tolist(),
        "train_points": model.train_points.tolist(),
    }
    atomic_write_text(path, json.dumps(payload) + "\n")
