"""KNN / linear-SVM classification, video-level voting, confusion matrices,
and the leave-one-group-out evaluation pipeline.

Tie rules are fixed for reproducibility: KNN breaks distance ties by lower
training index and SVM score ties go to the lowest class id. Every majority
vote, KNN's over the k nearest neighbors and a video's over its frames,
follows one rule (`_majority`): ties go to the label that occurs first,
which is the nearest neighbor for KNN and the earliest frame for videos.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import asdict, dataclass, field

import numpy as np

from .dataset import LabeledDataset, leave_one_group_out
from .errors import DataError
from ._util import positive_int
from . import baselines
from . import diffusion_map
from . import sklp_projection
from .sklp_projection import SklpConfig


@dataclass(frozen=True)
class KnnConfig:
    k: int = 1

    def __post_init__(self):
        object.__setattr__(self, "k", positive_int(self.k, "k"))


@dataclass(frozen=True)
class SvmConfig:
    regularization: float = 1e-3
    epochs: int = 200

    def __post_init__(self):
        if not 0 < self.regularization < np.inf:
            raise DataError(f"regularization must be positive and finite, got {self.regularization!r}")
        object.__setattr__(self, "epochs", positive_int(self.epochs, "epochs"))


@dataclass(frozen=True)
class SvmModel:
    """One-vs-rest linear classifiers: scores = weights @ x + biases.

    weights is K x D and biases has length K; objective_histories holds
    each binary classifier's per-epoch hinge objective.
    """

    weights: np.ndarray
    biases: np.ndarray
    objective_histories: tuple = ()


@dataclass(frozen=True)
class ConfusionMatrix:
    """K x K counts, rows = true class, columns = predicted class."""

    counts: np.ndarray
    class_names: tuple

    def __post_init__(self):
        counts = np.array(self.counts, dtype=np.int64)
        if counts.ndim != 2 or counts.shape[0] != counts.shape[1]:
            raise DataError("confusion counts must be square")
        if np.any(counts < 0):
            raise DataError("confusion counts must be nonnegative")
        if len(self.class_names) != counts.shape[0]:
            raise DataError("class_names length must match matrix size")
        counts.flags.writeable = False
        object.__setattr__(self, "counts", counts)
        object.__setattr__(self, "class_names", tuple(str(n) for n in self.class_names))

    @property
    def total(self):
        return int(self.counts.sum())

    @property
    def accuracy(self):
        if self.total == 0:
            raise DataError("empty confusion matrix has no accuracy")
        return float(np.trace(self.counts)) / self.total

    def per_class_accuracy(self):
        """Diagonal fraction per row; None for classes with no test samples."""
        out = []
        for k in range(self.counts.shape[0]):
            row = self.counts[k].sum()
            out.append(float(self.counts[k, k]) / row if row > 0 else None)
        return out


def _majority(labels):
    """Most frequent label; Counter keeps first-encountered order, so a tie goes to the earliest."""
    return Counter(labels).most_common(1)[0][0]


def _samples(values, name):
    """`values` as a float matrix with one sample per column; DataError unless it is 2-D."""
    matrix = np.asarray(values, dtype=np.float64)
    if matrix.ndim != 2:
        raise DataError(f"{name} must be a 2-D matrix (columns are samples), got shape {matrix.shape}")
    return matrix


def _training_set(train):
    """(X, y) of a (features, labels) pair: a D x n float matrix and n integer labels, else DataError."""
    X = _samples(train[0], "training features")
    y = np.asarray(train[1], dtype=np.int64)
    if y.shape != (X.shape[1],):
        raise DataError(f"{y.size} training labels for {X.shape[1]} training columns")
    return X, y


def knn_predict(train, test, config: KnnConfig | None = None):
    """Majority label among the k nearest training columns (squared Euclidean), per test column."""
    if config is None:
        config = KnnConfig()
    train_X, train_y = _training_set(train)
    test_X = _samples(test, "test features")
    n_train = train_X.shape[1]
    if n_train == 0:
        raise DataError("empty training set")
    if config.k > n_train:
        raise DataError(f"k={config.k} exceeds training size {n_train}")
    if test_X.shape[0] != train_X.shape[0]:
        raise DataError("train and test dimensionality differ")

    sq = sklp_projection.pairwise_sq_distances(test_X, train_X)
    order = np.argsort(sq, axis=1, kind="stable")  # distance ties -> lower train index
    neighbors = train_y[order[:, : config.k]].tolist()  # nearest first
    return np.array([_majority(row) for row in neighbors], dtype=np.int64)


def _hinge_objective(X, targets, w, b, reg):
    margins = targets * (w @ X + b)
    hinge = np.maximum(0.0, 1.0 - margins)
    return 0.5 * reg * float(w @ w) + float(hinge.mean())


def _fit_binary_svm(X, targets, config: SvmConfig):
    """Deterministic batch subgradient descent with backtracking.

    The step halves until the objective does not increase, so the recorded
    per-epoch objective sequence is non-increasing by construction.
    """
    D, n = X.shape
    reg = config.regularization
    w = np.zeros(D)
    b = 0.0
    step = 1.0
    history = [_hinge_objective(X, targets, w, b, reg)]
    for _ in range(config.epochs):
        margins = targets * (w @ X + b)
        active = margins < 1.0
        grad_w = reg * w - (X[:, active] * targets[active]).sum(axis=1) / n
        grad_b = -targets[active].sum() / n
        if not np.any(grad_w) and grad_b == 0.0:
            break
        accepted = False
        trial = step
        for _ in range(60):
            w_new = w - trial * grad_w
            b_new = b - trial * grad_b
            value = _hinge_objective(X, targets, w_new, b_new, reg)
            if value <= history[-1]:
                w, b = w_new, b_new
                history.append(value)
                step = trial * 1.5
                accepted = True
                break
            trial /= 2.0
        if not accepted:
            break  # subgradient plateau
    return w, b, history


def svm_fit(train, config: SvmConfig | None = None) -> SvmModel:
    """One-vs-rest hinge-loss linear classifiers.

    Training is deterministic (zero initialization, batch subgradient with
    backtracking) and consumes no randomness.
    """
    if config is None:
        config = SvmConfig()
    X, y = _training_set(train)
    if len(np.unique(y)) < 2:
        raise DataError("svm_fit needs at least 2 classes")
    if y.min() < 0:
        raise DataError("svm_fit needs labels >= 0")
    K = int(y.max()) + 1
    weights = np.zeros((K, X.shape[0]))
    biases = np.zeros(K)
    histories = []
    for k in range(K):
        targets = np.where(y == k, 1.0, -1.0)
        w, b, history = _fit_binary_svm(X, targets, config)
        weights[k] = w
        biases[k] = b
        histories.append(tuple(history))
    return SvmModel(weights=weights, biases=biases, objective_histories=tuple(histories))


def svm_predict(model: SvmModel, test):
    """Argmax of per-class scores; ties resolve to the lowest class id."""
    test_X = _samples(test, "test features")
    if test_X.shape[0] != model.weights.shape[1]:
        raise DataError("test dimensionality does not match the fitted model")
    scores = model.weights @ test_X + model.biases[:, None]
    return np.argmax(scores, axis=0)


def video_majority_vote(frame_labels, frame_groups):
    """Most frequent frame label per group id; ties go to the earliest frame's label.

    Returns {group id -> label} in first-appearance order of the groups.
    """
    frame_labels = list(frame_labels)
    frame_groups = list(frame_groups)
    if len(frame_labels) != len(frame_groups):
        raise DataError("frame_labels and frame_groups lengths differ")
    if not frame_labels:
        raise DataError("empty input: nothing to vote on")
    per_group = {}
    for label, group in zip(frame_labels, frame_groups):
        per_group.setdefault(group, []).append(label)
    return {group: _majority(labels) for group, labels in per_group.items()}


def confusion(true_labels, predicted_labels, class_count, class_names=None) -> ConfusionMatrix:
    """Tally a K x K confusion matrix from parallel label sequences."""
    true_labels = np.asarray(true_labels, dtype=np.int64)
    predicted_labels = np.asarray(predicted_labels, dtype=np.int64)
    if true_labels.shape != predicted_labels.shape:
        raise DataError("true and predicted label lengths differ")
    if true_labels.size and (
        true_labels.min() < 0
        or true_labels.max() >= class_count
        or predicted_labels.min() < 0
        or predicted_labels.max() >= class_count
    ):
        raise DataError(f"labels must lie in [0, {class_count})")
    counts = np.zeros((class_count, class_count), dtype=np.int64)
    np.add.at(counts, (true_labels, predicted_labels), 1)
    names = class_names if class_names is not None else [f"c{k}" for k in range(class_count)]
    return ConfusionMatrix(counts=counts, class_names=tuple(names))


PIPELINES = ("pca", "lda", "dm", "sklp+dm")


@dataclass(frozen=True)
class PipelineConfig:
    """Names the reduction arm and classifier for cross-validated evaluation.

    sklp.target_dim sets the dimension of every linear projection arm
    ("auto" = K - 1). The same DiffusionConfig drives the `dm` and
    `sklp+dm` arms so their parameters stay identical. Each arm reads only
    its own configs: `pca` and `lda` read sklp.target_dim and no other
    SKLP field, only the two diffusion arms read `diffusion`, and only the
    named classifier's config is read.
    """

    reduction: str = "sklp+dm"
    classifier: str = "knn"
    knn: KnnConfig = field(default_factory=KnnConfig)
    svm: SvmConfig = field(default_factory=SvmConfig)
    sklp: SklpConfig = field(default_factory=SklpConfig)
    diffusion: diffusion_map.DiffusionConfig = field(default_factory=diffusion_map.DiffusionConfig)

    def __post_init__(self):
        if self.reduction not in PIPELINES:
            raise DataError(f"unknown pipeline {self.reduction!r}; choose from {PIPELINES}")
        if self.classifier not in ("knn", "svm"):
            raise DataError("classifier must be 'knn' or 'svm'")


@dataclass(frozen=True)
class CrossValidationResult:
    confusion: ConfusionMatrix
    accuracy: float
    fold_accuracies: tuple
    pipeline: dict


def _embed_fold(train_X, train_y, test_X, class_count, pipeline: PipelineConfig):
    """Fit the named reduction on the training side; embed both sides."""
    if pipeline.reduction != "dm":
        fold_set = LabeledDataset(features=train_X, labels=train_y, class_count=class_count)
        if pipeline.reduction == "sklp+dm":
            model, _ = sklp_projection.fit(fold_set, pipeline.sklp)
        else:
            baseline_fit = baselines.pca_fit if pipeline.reduction == "pca" else baselines.lda_fit
            model = baseline_fit(fold_set, pipeline.sklp.target_dim)
        train_X = sklp_projection.project(model, train_X)
        test_X = sklp_projection.project(model, test_X)
        if pipeline.reduction != "sklp+dm":
            return train_X, test_X
    dm = diffusion_map.fit(train_X, pipeline.diffusion)
    return dm.embedding.T, diffusion_map.extend(dm, test_X).T


def _settings_read(pipeline: PipelineConfig):
    """The pipeline's settings that its arm reads, keyed like its fields: what a result echoes."""
    settings = {"reduction": pipeline.reduction, "classifier": pipeline.classifier}
    if pipeline.reduction in ("pca", "lda"):
        settings["sklp"] = {"target_dim": pipeline.sklp.target_dim}
    else:
        if pipeline.reduction == "sklp+dm":
            settings["sklp"] = asdict(pipeline.sklp)
        settings["diffusion"] = asdict(pipeline.diffusion)
    settings[pipeline.classifier] = asdict(getattr(pipeline, pipeline.classifier))
    return settings


def cross_validate_actions(dataset: LabeledDataset, pipeline: PipelineConfig) -> CrossValidationResult:
    """Leave-one-group-out evaluation with per-video majority voting.

    Groups identify actors; within a fold's test side, the frames of each
    (group, class) pair form one video, and the video's predicted label is
    the majority vote over its frames. The confusion matrix accumulates one
    entry per video across all folds.
    """
    if dataset.groups is None:
        raise DataError("cross_validate_actions requires group ids")
    K = dataset.class_count
    counts = np.zeros((K, K), dtype=np.int64)
    fold_accuracies = []
    for train_idx, test_idx in leave_one_group_out(dataset):
        train_y = dataset.labels[train_idx]
        if len(np.unique(train_y)) != K:
            raise DataError("fold leaves a class with no training samples")
        train_X = dataset.features[:, train_idx]
        test_X = dataset.features[:, test_idx]
        test_y = dataset.labels[test_idx]
        emb_train, emb_test = _embed_fold(train_X, train_y, test_X, K, pipeline)
        if pipeline.classifier == "knn":
            predicted = knn_predict((emb_train, train_y), emb_test, pipeline.knn)
        else:
            model = svm_fit((emb_train, train_y), pipeline.svm)
            predicted = svm_predict(model, emb_test)
        votes = video_majority_vote(predicted.tolist(), test_y.tolist())  # one video per class
        for k, vote in votes.items():
            counts[k, vote] += 1
        fold_accuracies.append(sum(vote == k for k, vote in votes.items()) / len(votes))
    matrix = ConfusionMatrix(counts=counts, class_names=dataset.label_names)
    return CrossValidationResult(
        confusion=matrix,
        accuracy=matrix.accuracy,
        fold_accuracies=tuple(fold_accuracies),
        pipeline=_settings_read(pipeline),
    )
