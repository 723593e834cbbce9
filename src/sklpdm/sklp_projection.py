"""Supervised kernel linear projection (SKLP).

Learns an orthonormal linear map P that pulls same-class samples together
and pushes different-class samples apart, measured by Gaussian kernel
similarities of the projected pairwise distances. Each iteration:

  1. summarise the current projected squared distances M into per-class and
     inter-class kernel averages (m_c, m_o), all read off the class blocks
     of one Y^T K Y product (Y the one-hot label matrix),
  2. convert those averages into signed pair weights, constant on class
     blocks: a K x K matrix W, negative on the diagonal (intra-class pairs)
     and positive off it (inter-class pairs),
  3. assemble the weighted pairwise scatter from the class moments of the
     centred X, computed once per fit: A = 2 (sum_k (W c)_k C_k - S W S^T),
     and take its top positive eigenvectors as the new projection,
  4. relax M toward the new projected distances with learning rate eta,
  5. evaluate the objective J on the updated M.

The fit keeps the projection with the best observed objective.
"""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import asdict, dataclass, field

import numpy as np

from .dataset import LabeledDataset
from .errors import DataError, NumericalError
from ._util import atomic_write_text, positive_int

MODEL_KINDS = ("sklp", "pca", "lda")

_TILE_FLOATS = 1 << 16  # floats in one row tile of a distance array


@dataclass(frozen=True)
class SklpConfig:
    """Hyperparameters of the supervised projection.

    rho              : inter/intra balance in (0, 1); (1-rho) weights the
                       intra-class term, rho the inter-class term
    kernel_bandwidth : Gaussian kernel sigma, or "auto" for the median of the
                       initial projected pairwise distances (see `bandwidth`)
    target_dim       : output dimension d, or "auto" for K - 1 (capped at
                       min(D, n-1))
    learning_rate    : distance relaxation step eta in (0, 1]

    The class weights are always the pair-count default lambda_k =
    n_o / (K * n_k) of `default_class_weights`.
    """

    rho: float = 0.1
    kernel_bandwidth: float | str = "auto"
    target_dim: int | str = "auto"
    learning_rate: float = 0.1
    max_iters: int = 100
    rel_tolerance: float = 1e-6

    def __post_init__(self):
        if not 0.0 < self.rho < 1.0:
            raise DataError("rho must lie in (0, 1)")
        if not 0.0 < self.learning_rate <= 1.0:
            raise DataError("learning_rate must lie in (0, 1]")
        object.__setattr__(self, "max_iters", positive_int(self.max_iters, "max_iters"))
        if not self.rel_tolerance > 0:
            raise DataError("rel_tolerance must be positive")
        if self.kernel_bandwidth != "auto":
            bandwidth(None, self.kernel_bandwidth, "kernel_bandwidth")
        if self.target_dim != "auto":
            object.__setattr__(self, "target_dim", positive_int(self.target_dim, "target_dim"))


@dataclass(frozen=True)
class ProjectionModel:
    """A fitted linear map: columns of `matrix` are orthonormal directions.

    `eigenvalues` are the spectrum entries the directions were selected by
    (scatter eigenvalues for sklp, covariance for pca, generalized
    discriminant values for lda), sorted descending. `mean` is subtracted
    before projecting when present (pca only).
    """

    matrix: np.ndarray
    kind: str
    dim_in: int
    dim_out: int
    eigenvalues: np.ndarray
    mean: np.ndarray | None = None
    config: dict | None = None

    def __post_init__(self):
        if self.kind not in MODEL_KINDS:
            raise DataError(f"unknown model kind {self.kind!r}")
        matrix = np.array(self.matrix, dtype=np.float64)
        eigenvalues = np.array(self.eigenvalues, dtype=np.float64)
        if matrix.shape != (self.dim_in, self.dim_out):
            raise DataError("matrix shape does not match dim_in x dim_out")
        if eigenvalues.shape != (self.dim_out,):
            raise DataError("eigenvalues length must equal dim_out")
        mean = self.mean
        if mean is not None:
            mean = np.array(mean, dtype=np.float64)
            if mean.shape != (self.dim_in,):
                raise DataError("mean length must equal dim_in")
            mean.flags.writeable = False
        if not all(np.isfinite(a).all() for a in (matrix, eigenvalues, mean) if a is not None):
            raise DataError("matrix, eigenvalues and mean must be finite")
        gram = matrix.T @ matrix
        if np.max(np.abs(gram - np.eye(self.dim_out))) > 1e-10:
            raise NumericalError("projection columns are not orthonormal")
        if np.any(np.diff(eigenvalues) > 0):
            raise NumericalError("eigenvalues must be sorted descending")
        if self.kind == "sklp" and np.any(eigenvalues <= 0):
            raise NumericalError("sklp retains only positive eigenvalues")
        matrix.flags.writeable = False
        eigenvalues.flags.writeable = False
        object.__setattr__(self, "matrix", matrix)
        object.__setattr__(self, "eigenvalues", eigenvalues)
        object.__setattr__(self, "mean", mean)


@dataclass
class SklpState:
    """Per-iteration state of the projection fit.

    M holds the current symmetric matrix of low-dimensional squared
    distances and m_c / m_o its kernel averages, from which the next pair
    weights are built. sigma and class_weights are the bandwidth and the
    pair-count default lambda_k that init_state resolved.
    objective_history[0] is the objective at initialization; entry t is
    the objective after iteration t, and eigenvalue_history[t] the
    eigenvalues of the directions chosen there. predicted_increments
    records, per iteration, the sum of the selected eigenvalues plus the
    constant
    (1-rho) * sum_k lambda_k n_k - rho * n_o  (a reported diagnostic of the
    expected objective gain; not enforced). best_index is the iterate with
    the highest objective; best_matrix and best_scatter are its directions
    and the scatter they were solved from (None for the initialization).
    """

    M: np.ndarray
    m_c: np.ndarray
    m_o: float
    objective_history: list = field(default_factory=list)
    iteration: int = 0
    sigma: float = 0.0
    class_weights: np.ndarray | None = None
    predicted_increments: list = field(default_factory=list)
    eigenvalue_history: list = field(default_factory=list)
    best_index: int = 0
    best_matrix: np.ndarray | None = None
    best_scatter: np.ndarray | None = None


def _pair_counts(labels, class_count):
    """Ordered-pair counts: n_k = c_k (c_k - 1) per class, n_o for inter-class (zero is an error)."""
    counts = np.bincount(labels, minlength=class_count)
    n_k = counts * (counts - 1)
    n = len(labels)
    n_o = n * (n - 1) - int(n_k.sum())
    if n_o == 0:
        raise NumericalError("no inter-class pairs: need at least 2 classes")
    return n_k, n_o


def default_class_weights(labels, class_count):
    """Pair-count balancing weights lambda_k = n_o / (K * n_k).

    Classes without intra-class pairs (singletons) get a placeholder weight
    of n_o / K; it never enters any sum because such classes contribute no
    pairs.
    """
    n_k, n_o = _pair_counts(labels, class_count)
    return n_o / (class_count * np.maximum(n_k, 1))


def pairwise_sq_distances(points, others=None):
    """Squared distances between columns, sum_d (points[d, i] - others[d, j])^2 in feature order.

    The m x n output is filled one row tile (at most 2**16 floats) at a time,
    so memory beyond it is one tile of scratch, never a D x m x n tensor.
    Each feature's difference tile is one BLAS product of [a, 1] (rows x 2)
    and [1; -b] (2 x n): the entry a_i*1 + 1*(-b_j) has two exact products
    and one rounded addition, so it equals a_i - b_j bit for bit.
    others=None gives the self case: exactly symmetric, zero diagonal.
    """
    others = points if others is None else others
    m, n = points.shape[1], others.shape[1]
    out = np.zeros((m, n))  # stays zero when there are no features
    rows = _tile_rows(n, m)
    scratch = np.empty((rows, n))
    left = np.ones((rows, 2))  # column 0 takes a feature's tile of points
    right = np.ones((2, n))  # row 1 takes a feature's negated others
    for start in range(0, m, rows):
        block = out[start:start + rows]
        tile_left = left[:len(block)]
        for d, (a, b) in enumerate(zip(points[:, start:start + rows], others, strict=True)):
            term = scratch[:len(block)] if d else block  # the first term goes straight into out
            tile_left[:, 0] = a
            np.negative(b, out=right[1])
            np.matmul(tile_left, right, out=term)
            np.multiply(term, term, out=term)
            if d:
                block += term
    return out


def bandwidth(M, setting, name="bandwidth"):
    """Kernel sigma: `setting` itself, or for "auto" the median pairwise distance sqrt(M_ij), i < j.

    The one bandwidth rule: sigma > 0 and 0 < sigma * sigma < inf. A fixed
    setting that breaks it or is not a number is a DataError naming `name`
    (M is then unread and may be None); a median that breaks it is a
    NumericalError. The median is taken as np.median takes it, from the one
    or two middle order statistics, without index arrays or a sorted copy.
    """
    if setting != "auto":
        sigma = float(setting) if isinstance(setting, numbers.Real) else math.nan
        if not (sigma > 0 and 0 < sigma * sigma < math.inf):
            raise DataError(f"{name} must be 'auto' or a number sigma > 0 with 0 < sigma^2 < inf, got {setting!r}")
        return sigma
    n = M.shape[0]
    if n < 2:
        raise DataError("need at least 2 points")
    upper = np.empty(n * (n - 1) // 2)  # M_ij for i < j, row-major
    start = 0
    for i in range(n - 1):
        upper[start:start + n - 1 - i] = M[i, i + 1:]
        start += n - 1 - i
    middle = [len(upper) // 2] if len(upper) % 2 else [len(upper) // 2 - 1, len(upper) // 2]
    upper.partition(middle)
    sigma = float(np.mean(np.sqrt(upper[middle])))
    if not 0 < sigma * sigma < math.inf:
        raise NumericalError(f"median distance {sigma!r} has sigma^2 outside (0, inf): rescale the features")
    return sigma


def gaussian_kernel(M, sigma, out):
    """The Gaussian kernel exp(-M / sigma^2) of squared distances M, returned in out (which may be M)."""
    np.divide(M, -(sigma * sigma), out=out)
    return np.exp(out, out=out)


def output_dim(target_dim, class_count, dim, sample_count):
    """Output dimension: K - 1 for "auto", else target_dim; capped at min(D, n-1), at least 1."""
    d = class_count - 1 if target_dim == "auto" else positive_int(target_dim, "target_dim")
    return max(1, min(d, dim, sample_count - 1))


def _one_hot(labels, class_count):
    return (labels[:, None] == np.arange(class_count)[None, :]).astype(np.float64)


def _kernel_sums(M, labels, class_count, sigma):
    """Kernel sums over ordered pairs i != j, read off the class blocks of Y^T K Y.

    Returns (intra, inter, n_k, n_o): intra[k] sums the pairs inside class
    k, inter the pairs across classes; n_k and n_o count those pairs.
    The kernel exp(-M / sigma^2) is built one row tile (at most 2**16
    floats) at a time, and each tile's Y_t^T K_t Y is added to the block
    sums, so no n x n kernel array is made.
    """
    n_k, n_o = _pair_counts(labels, class_count)
    n = M.shape[0]
    Y = _one_hot(labels, class_count)
    blocks = np.zeros((class_count, class_count))
    rows = _tile_rows(n, n)
    scratch = np.empty((rows, n))
    for start in range(0, n, rows):
        kernels = gaussian_kernel(M[start:start + rows], sigma, scratch[:min(rows, n - start)])
        kernels.flat[start::n + 1] = 0.0  # the tile's diagonal: ordered pairs with i != j only
        blocks += Y[start:start + rows].T @ (kernels @ Y)
    inter = float(blocks[~np.eye(class_count, dtype=bool)].sum())
    return np.diag(blocks), inter, n_k, n_o


def kernel_averages(M, labels, sigma):
    """Per-class and inter-class kernel averages of the distance matrix M at bandwidth sigma.

    m_ck = exp(-(1/n_k) * sum over ordered same-class pairs of exp(-M_ij/sigma^2)),
    m_o analogously over inter-class pairs, with K = labels.max() + 1
    classes. Both lie in (exp(-1), 1]. Singleton classes (no intra pairs)
    report m_ck = 1.
    """
    labels = np.asarray(labels)
    return _averages(*_kernel_sums(M, labels, int(labels.max()) + 1, sigma))


def _averages(intra, inter, n_k, n_o):
    m_c = np.array([math.exp(-(s / c)) if c else 1.0 for s, c in zip(intra, n_k)])
    return m_c, math.exp(-(inter / n_o))


def _objective_value(intra, inter, rho, weights):
    return (1.0 - rho) * float(weights @ intra) - rho * inter


def alpha_weights(m_c, m_o, rho, weights):
    """Class-block pair weights W (K x K): W_kk = -(1-rho) * lambda_k / m_ck, W_kl = rho / m_o.

    weights holds the lambda_k. The weight of the pair (i, j) is
    W[labels[i], labels[j]].
    """
    m_c = np.asarray(m_c, dtype=np.float64)
    W = np.full((len(m_c), len(m_c)), rho / m_o)
    np.fill_diagonal(W, -(1.0 - rho) * np.asarray(weights, dtype=np.float64) / m_c)
    return W


def class_moments(X, labels, class_count):
    """Class moments of the centred X that every scatter of a fit is assembled from.

    Returns (C, S, counts): C (K x D x D) holds each class's second moment
    sum_{i in k} x_i x_i^T, S (D x K) the class sums and counts the class
    sizes, all of X centred on its mean. They depend only on X and the
    labels, so a fit computes them once; C holds K * D^2 floats.
    """
    X = np.asarray(X, dtype=np.float64)
    labels = np.asarray(labels)
    X = X - X.mean(axis=1, keepdims=True)
    C = np.empty((class_count, X.shape[0], X.shape[0]))
    for k in range(class_count):
        members = X[:, labels == k]
        np.matmul(members, members.T, out=C[k])
    return C, X @ _one_hot(labels, class_count), np.bincount(labels, minlength=class_count)


def scatter_matrix(moments, W):
    """Pairwise scatter A = sum over ordered pairs i != j of W[l_i, l_j] z_ij z_ij^T, z_ij = x_i - x_j.

    moments are the (C, S, counts) of class_moments. For symmetric W the
    Laplacian form reduces to class sums:
    A = 2 (sum_k (W c)_k C_k - S W S^T), with c the class counts, in
    O(K D^2 + D K^2) work. A does not change under translation, and the
    centred moments keep the two terms from cancelling.
    """
    C, S, counts = moments
    A = 2.0 * (np.tensordot(W @ counts, C, axes=1) - S @ W @ S.T)
    return (A + A.T) / 2.0


def _fix_signs(vectors):
    """Deterministic sign convention, in place: largest-magnitude entry of each column positive."""
    lead = np.argmax(np.abs(vectors), axis=0)  # ties -> lowest index
    flip = vectors[lead, np.arange(vectors.shape[1])] < 0
    np.negative(vectors, out=vectors, where=flip)
    return vectors


def _sorted_eigh(A, d):
    """All eigenvalues of the symmetric A, descending, and the top-d eigenvectors, signs fixed."""
    values, vectors = np.linalg.eigh(A)
    order = np.argsort(values)[::-1]
    return values[order], _fix_signs(vectors[:, order[:d]])


def covariance(X):
    """Column mean and sample covariance (1/(n-1) normalization, exactly symmetric, finite) of X's columns."""
    mean = X.mean(axis=1)
    centered = X - mean[:, None]
    cov = centered @ centered.T / (X.shape[1] - 1)
    cov = (cov + cov.T) / 2.0
    if not np.isfinite(cov).all():
        raise NumericalError("the feature covariance is not finite: rescale the features to a smaller magnitude")
    return mean, cov


def solve_eig(A, d):
    """Top-d positive eigenpairs (values, vectors) of the symmetric A, values descending.

    d is capped at the number of eigenvalues above the floor
    1e-10 * (||A|| + 1), ||A|| the largest eigenvalue magnitude; zero
    positive eigenvalues is an error (degenerate configuration).
    """
    if d < 1:
        raise DataError(f"cannot extract {d} eigenpairs")
    values, vectors = _sorted_eigh(A, d)
    available = int((values > 1e-10 * (np.abs(values).max() + 1.0)).sum())
    if available == 0:
        raise NumericalError(
            "no positive eigenvalues: the weighted scatter is degenerate "
            "(all directions decrease the objective)"
        )
    d = min(d, available)
    return values[:d], vectors[:, :d]


def objective(M, labels, sigma, rho, weights):
    """J = (1-rho) sum_k lambda_k sum_intra kernel - rho sum_inter kernel, K = labels.max() + 1.

    The kernel is exp(-M_ij / sigma^2) over ordered pairs i != j; weights holds the lambda_k.
    """
    labels = np.asarray(labels)
    intra, inter, _, _ = _kernel_sums(M, labels, int(labels.max()) + 1, sigma)
    return _objective_value(intra, inter, rho, np.asarray(weights, dtype=np.float64))


def _tile_rows(n, cap):
    """Rows per tile of an n-column distance array: at most _TILE_FLOATS floats and `cap` rows, at least 1."""
    return max(1, min(_TILE_FLOATS // max(n, 1), cap))


def update_distances(M, P, X, learning_rate):
    """Relax M in place toward the squared distances of the projection P^T X: M + eta * (d_P - M).

    Returns M. Each row tile of the new distances (at most 2**16 floats and
    n // 2 rows) comes from pairwise_sq_distances and is freed before the
    next is built, so beyond M the update holds one tile, its scratch and
    the d x n projection. The row cap bounds that transient: it binds for
    n <= 362, where it holds the tile plus its scratch to n^2 floats.
    """
    if not 0.0 < learning_rate <= 1.0:
        raise DataError("learning_rate must lie in (0, 1]")
    projected = P.T @ np.asarray(X, dtype=np.float64)
    n = projected.shape[1]
    rows = _tile_rows(n, n // 2)
    for start in range(0, n, rows):
        block = M[start:start + rows]
        target = pairwise_sq_distances(projected[:, start:start + rows], projected)
        if learning_rate == 1.0:  # full step is exact, no cancellation residue
            block[...] = target
        else:  # M + eta * (target - M)
            target -= block
            target *= learning_rate
            block += target
        del target  # free this tile before the next one is built
    return M


def init_state(dataset: LabeledDataset, config: SklpConfig) -> SklpState:
    """Initial state: distances from the top-d principal directions, sigma from their median.

    The kernel bandwidth, class weights, and target dimension are resolved
    here: sigma = median of the initial projected pairwise distances when
    'auto'; d = K - 1 capped at min(D, n-1) when 'auto'.
    """
    X = dataset.features
    n = dataset.sample_count
    K = dataset.class_count
    if n < 2:
        raise DataError("need at least 2 samples")
    if K < 2:
        raise NumericalError("need at least 2 classes (K >= 2) to contrast pairs")
    d = output_dim(config.target_dim, K, dataset.dim, n)
    weights = default_class_weights(dataset.labels, K)

    cov = covariance(X)[1]
    try:
        init_values, init_matrix = solve_eig(cov, d)
    except NumericalError:
        if (X == X[:, :1]).all():
            raise NumericalError("all samples identical: cannot scale initial distances") from None
        raise NumericalError("the samples differ, but their covariance is below the solver's floor of about "
                             "1e-10: rescale the features to a larger magnitude") from None

    M = pairwise_sq_distances(init_matrix.T @ X)
    sigma = bandwidth(M, config.kernel_bandwidth)
    m_c, m_o = kernel_averages(M, dataset.labels, sigma)
    J0 = objective(M, dataset.labels, sigma, config.rho, weights)
    return SklpState(
        M=M,
        m_c=m_c,
        m_o=m_o,
        objective_history=[J0],
        iteration=0,
        sigma=sigma,
        class_weights=weights,
        eigenvalue_history=[init_values],
        best_index=0,
        best_matrix=init_matrix,
        best_scatter=None,
    )


def fit(dataset: LabeledDataset, config: SklpConfig | None = None):
    """Run the iterative fit; returns (ProjectionModel, SklpState).

    Stops when the objective change drops below rel_tolerance * (|J| + 1)
    or after max_iters iterations. The returned projection is the iterate
    with the best observed objective (the initialization counts as
    iterate 0, carrying the covariance spectrum).
    """
    if config is None:
        config = SklpConfig()
    state = init_state(dataset, config)
    X = dataset.features
    labels = dataset.labels
    K = dataset.class_count
    d = output_dim(config.target_dim, K, dataset.dim, dataset.sample_count)
    n_k, n_o = _pair_counts(labels, K)
    increment_constant = float(
        (1.0 - config.rho) * np.sum(state.class_weights * n_k) - config.rho * n_o
    )

    moments = class_moments(X, labels, K)
    previous = state.objective_history[0]
    for t in range(1, config.max_iters + 1):
        W = alpha_weights(state.m_c, state.m_o, config.rho, state.class_weights)
        scatter = scatter_matrix(moments, W)
        try:
            values, P = solve_eig(scatter, d)
        except NumericalError as exc:
            raise NumericalError(
                f"iteration {t} with rho={config.rho}: {exc}; a larger rho weights "
                "the inter-class term more"
            ) from exc
        update_distances(state.M, P, X, config.learning_rate)
        # one exp(-M / sigma^2) gives this objective and the next iteration's averages
        sums = _kernel_sums(state.M, labels, K, state.sigma)
        current = _objective_value(sums[0], sums[1], config.rho, state.class_weights)
        state.m_c, state.m_o = _averages(*sums)
        state.objective_history.append(current)
        state.eigenvalue_history.append(values)
        state.predicted_increments.append(float(values.sum()) + increment_constant)
        state.iteration = t
        if current > state.objective_history[state.best_index]:
            state.best_index = t
            state.best_matrix = P
            state.best_scatter = scatter
        if abs(current - previous) <= config.rel_tolerance * (abs(previous) + 1.0):
            break
        previous = current

    model = ProjectionModel(
        matrix=state.best_matrix,
        kind="sklp",
        dim_in=dataset.dim,
        dim_out=state.best_matrix.shape[1],
        eigenvalues=state.eigenvalue_history[state.best_index],
        config=asdict(config),
    )
    return model, state


def project(model: ProjectionModel, X):
    """Apply the fitted map: P^T X, after mean subtraction when the model stores one."""
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[0] != model.dim_in:
        raise DataError(f"expected {model.dim_in} feature rows, got {X.shape}")
    if model.mean is not None:
        X = X - model.mean[:, None]
    return model.matrix.T @ X


def save_model(model: ProjectionModel, path):
    """Serialize a projection to JSON (full float precision round-trip)."""
    payload = {
        "kind": model.kind,
        "dim_in": model.dim_in,
        "dim_out": model.dim_out,
        "matrix": model.matrix.tolist(),
        "eigenvalues": model.eigenvalues.tolist(),
        "mean": model.mean.tolist() if model.mean is not None else None,
        "config": model.config,
    }
    atomic_write_text(path, json.dumps(payload, indent=1) + "\n")


def load_model(path) -> ProjectionModel:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            payload = json.load(handle)
    except (OSError, UnicodeDecodeError) as exc:
        raise DataError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise DataError(f"{path}: malformed model file: {exc}") from exc
    if not isinstance(payload, dict):
        raise DataError(f"{path}: malformed model file: expected a JSON object")
    for key in ("kind", "dim_in", "dim_out", "matrix", "eigenvalues"):
        if key not in payload:
            raise DataError(f"{path}: model file missing field {key!r}")
    try:
        return ProjectionModel(
            matrix=np.asarray(payload["matrix"], dtype=np.float64),
            kind=payload["kind"],
            dim_in=positive_int(payload["dim_in"], "dim_in"),
            dim_out=positive_int(payload["dim_out"], "dim_out"),
            eigenvalues=np.asarray(payload["eigenvalues"], dtype=np.float64),
            mean=np.asarray(payload["mean"], dtype=np.float64) if payload.get("mean") is not None else None,
            config=payload.get("config"),
        )
    except (TypeError, ValueError, OverflowError) as exc:
        raise DataError(f"{path}: malformed model file: {exc}") from exc
    except (DataError, NumericalError) as exc:
        raise type(exc)(f"{path}: {exc}") from exc
