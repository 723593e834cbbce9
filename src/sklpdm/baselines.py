"""PCA and LDA reference projections sharing the ProjectionModel contract."""

from __future__ import annotations

import numpy as np

from .dataset import LabeledDataset
from .errors import DataError, NumericalError
from .sklp_projection import ProjectionModel, _sorted_eigh, covariance, output_dim, solve_eig


def pca_fit(dataset: LabeledDataset, target_dim="auto") -> ProjectionModel:
    """Top-d directions of the sample covariance (1/(n-1) normalization).

    d is resolved from target_dim as SKLP resolves it (output_dim). The
    mean is stored on the model and subtracted before projecting.
    Zero-variance directions are kept so the reported spectrum matches the
    covariance exactly.
    """
    X = dataset.features
    D, n = X.shape
    if n < 2:
        raise DataError("pca_fit needs at least 2 samples")
    d = output_dim(target_dim, dataset.class_count, D, n)
    mean, cov = covariance(X)
    values, vectors = _sorted_eigh(cov, d)
    return ProjectionModel(
        matrix=vectors,
        kind="pca",
        dim_in=D,
        dim_out=d,
        eigenvalues=values[:d],
        mean=mean,
    )


def lda_fit(dataset: LabeledDataset, target_dim="auto") -> ProjectionModel:
    """The top eigenvectors u of the whitened between-class scatter, applied to the raw features.

    u are eigenvectors of G^(-1/2) S_b G^(-1/2) with G = S_w + gamma I and
    gamma = 1e-6 * max(trace(S_w), 1e-6 * trace(S_b)) / D, so the ridge
    scales with the features even where S_w vanishes (class-constant
    samples); gamma is 1 only when every sample is equal. Their
    eigenvalues are the generalized discriminant values of (S_b, G), and
    the columns are orthonormal, but they are not Fisher's directions
    G^(-1/2) u: the two span the same subspace only when S_w is
    proportional to I. d is resolved from target_dim as SKLP resolves it
    (output_dim), then capped at K - 1.
    """
    X = dataset.features
    labels = dataset.labels
    D, n = X.shape
    K = dataset.class_count
    if K < 2:
        raise DataError("lda_fit needs at least 2 classes")
    d = min(output_dim(target_dim, K, D, n), K - 1)
    overall_mean = X.mean(axis=1)
    S_w = np.zeros((D, D))
    S_b = np.zeros((D, D))
    with np.errstate(over="ignore", invalid="ignore"):  # a scatter that overflows is reported below
        for k in range(K):
            members = X[:, labels == k]
            mu_k = members.mean(axis=1)
            centered = members - mu_k[:, None]
            S_w += centered @ centered.T
            delta = mu_k - overall_mean
            S_b += members.shape[1] * np.outer(delta, delta)
        # relative to S_b where S_w is at its rounding level, so the ridge scales with the features
        gamma = 1e-6 * max(float(np.trace(S_w)), 1e-6 * float(np.trace(S_b))) / D or 1.0
        G = S_w + gamma * np.eye(D)
    if not (np.isfinite(G).all() and np.isfinite(S_b).all()):
        raise NumericalError("the class scatter is not finite: rescale the features to a smaller magnitude")
    g_values, g_vectors = np.linalg.eigh(G)
    if np.any(g_values <= 0):
        raise NumericalError("within-class scatter singular even after regularization")
    whiten = (g_vectors * (1.0 / np.sqrt(g_values))) @ g_vectors.T
    discriminant = whiten @ S_b @ whiten
    discriminant = (discriminant + discriminant.T) / 2.0
    try:
        values, vectors = solve_eig(discriminant, d)
    except NumericalError:
        raise NumericalError("no direction separates the class means: they coincide, or the features are too "
                             "small (rescale the features to a larger magnitude)") from None
    return ProjectionModel(
        matrix=vectors,
        kind="lda",
        dim_in=D,
        dim_out=vectors.shape[1],
        eigenvalues=values,
        config={"ridge": gamma},
    )
