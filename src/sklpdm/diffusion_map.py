"""Diffusion-map embedding: Markov transition eigenpairs plus out-of-sample extension.

The affinity is a Gaussian kernel on pairwise squared distances; rows of
the normalized transition matrix T are jumping probabilities. T is
eigendecomposed through its symmetric conjugate D^(1/2) T D^(-1/2) for
stability. Only the top embed_dim + 1 eigenpairs are solved for and
kept: the trivial pair (lambda_0 = 1, constant eigenvector) and the
embed_dim retained pairs. Embedding coordinates are lambda_l^t * phi_l(i)
over the retained pairs. New points are embedded by the Nystrom rule:
their normalized affinities to the training points averaged against each
retained eigenvector, scaled by lambda_l^(t-1).
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .errors import DataError, NumericalError
from .sklp_projection import (
    bandwidth as _bandwidth, gaussian_kernel, pairwise_sq_distances, _fix_signs, _sorted_eigh)
from ._util import atomic_write_text, own, positive_int, samples, save_float_rows_csv


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
    kept, and the four arrays are read-only copies.

    The solve: sweeps is the number of subspace-iteration sweeps run (0
    when the block was too wide to iterate), residual the largest
    ||S v - theta v|| over the kept pairs of the symmetric conjugate S,
    and dense_fallback whether the kept pairs came from the dense
    eigensolver instead.
    """

    train_points: np.ndarray
    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    embedding: np.ndarray
    bandwidth: float
    time: int
    embed_dim: int
    sweeps: int
    residual: float
    dense_fallback: bool

    def __post_init__(self):
        for name in ("train_points", "eigenvalues", "eigenvectors", "embedding"):
            own(self, name)
        if abs(self.eigenvalues[0] - 1.0) > 1e-8:
            raise NumericalError("leading transition eigenvalue must be 1")
        if np.any(np.abs(self.eigenvalues) > 1.0 + 1e-8):
            raise NumericalError("transition eigenvalues must lie in [-1, 1]")


def affinity(Xhat, bandwidth):
    """Gaussian affinities W_ij = exp(-||x_i - x_j||^2 / sigma^2), sigma as in fit; symmetric, unit diagonal."""
    S = pairwise_sq_distances(np.asarray(Xhat, dtype=np.float64))
    return gaussian_kernel(S, _bandwidth(S, bandwidth), S)


_OVERSAMPLE = 8  # block columns beyond the kept pairs
_RESIDUAL_TOL = 1e-12  # on ||S v - theta v|| of every kept pair; S's spectrum lies in [0, 1]
_MAX_SWEEPS = 30  # then the dense solve: a flat spectrum's fit costs about 1.3x the dense-only fit at n = 300


def _start_block(top, width):
    """The n x width start block: top, then the DCT-II columns cos(pi (i + 1/2) j / n) over rows i, j = 1..width-1,
    orthogonal to each other and to the constant, which the positive top is not, so the block has full rank."""
    block = np.cos(np.pi / len(top) * np.outer(np.arange(len(top)) + 0.5, np.arange(width)))
    block[:, 0] = top
    return block


def _largest_residual(SV, V, values):
    """The largest column norm of SV - V diag(values)."""
    return float(np.linalg.norm(SV - V * values, axis=0).max())


def _kept_pairs(S, top, kept):
    """The top `kept` eigenpairs of the symmetric positive semidefinite S.

    Block subspace iteration with Rayleigh-Ritz on kept + _OVERSAMPLE
    columns: each sweep is one S @ Q, the Ritz pairs of Q^T S Q, and a QR
    of S @ Q, until every kept pair's residual is at most _RESIDUAL_TOL.
    `top` is S's known top eigenvector (unnormalised) and starts the block.
    The dense eigensolver runs instead when the block is at least half as
    wide as S, or after _MAX_SWEEPS sweeps. Returns (values descending,
    unit vectors, sweeps, largest residual, whether the dense solve ran).
    """
    n = len(top)
    width = min(n, kept + _OVERSAMPLE)
    sweeps = 0
    if 2 * width < n:
        Q, _ = np.linalg.qr(_start_block(top, width))
        for sweeps in range(1, _MAX_SWEEPS + 1):
            Z = S @ Q
            theta, U = _sorted_eigh(Q.T @ Z, kept)  # reads one triangle
            theta, V = theta[:kept], Q @ U
            residual = _largest_residual(Z @ U, V, theta)
            if residual <= _RESIDUAL_TOL:
                return theta, V, sweeps, residual, False
            Q, _ = np.linalg.qr(Z)
    values, vectors = _sorted_eigh(S, kept)
    return values[:kept], vectors, sweeps, _largest_residual(S @ vectors, vectors, values[:kept]), True


def fit(Xhat, config: DiffusionConfig) -> DiffusionModel:
    """Fit the diffusion embedding on columns of Xhat."""
    X = samples(Xhat, "Xhat")
    n = X.shape[1]
    kept = config.embed_dim + 1  # the trivial pair, then the retained ones
    if n < kept:
        raise DataError(f"embed_dim {config.embed_dim} exceeds available eigenpairs for n={n}")
    with np.errstate(over="ignore", invalid="ignore"):  # an "auto" bandwidth reports overflow: rescale
        S = pairwise_sq_distances(X)  # one buffer: distances, their median, affinity W, conjugate
    sigma = _bandwidth(S, config.bandwidth)
    # the symmetric conjugate D^-1/2 W D^-1/2 of T = D^-1 W shares its (real)
    # spectrum; scaled in place row by row, it is exactly symmetric as W is
    inv_root = 1.0 / np.sqrt(gaussian_kernel(S, sigma, S).sum(axis=1))
    for i, scale in enumerate(inv_root):
        S[i] *= scale * inv_root
    values, phi, sweeps, residual, dense = _kept_pairs(S, 1.0 / inv_root, kept)
    phi *= inv_root[:, None]  # right eigenvectors of T
    phi /= np.linalg.norm(phi, axis=0, keepdims=True)
    _fix_signs(phi)  # after the rescale, which can move each column's largest entry

    embedding = phi[:, 1:] * (values[1:] ** config.time)[None, :]
    return DiffusionModel(
        train_points=X,
        eigenvalues=values,
        eigenvectors=phi,
        embedding=embedding,
        bandwidth=sigma,
        time=config.time,
        embed_dim=config.embed_dim,
        sweeps=sweeps,
        residual=residual,
        dense_fallback=dense,
    )


def extend(model: DiffusionModel, Xnew):
    """Nystrom embedding of new columns into the fitted diffusion space.

    Coordinates: lambda_l^(t-1) * sum_j p_j phi_l(j), where p is the new
    point's normalized affinity row to the training points. A new point
    equal to a training point reproduces that training embedding row.
    """
    Xnew = samples(Xnew, "Xnew", model.train_points.shape[0])
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
