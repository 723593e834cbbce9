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
from .errors import DataError, NumericalError
from ._util import own, positive_int, samples
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

    def __post_init__(self):
        if not 0 < self.regularization < np.inf:
            raise DataError(f"regularization must be positive and finite, got {self.regularization!r}")


@dataclass(frozen=True)
class SvmModel:
    """One-vs-rest linear classifiers: scores = weights @ x + biases.

    weights is K x D and biases has length K; objective_histories holds
    each binary classifier's objective at the start and after each Newton step.
    """

    weights: np.ndarray
    biases: np.ndarray
    objective_histories: tuple = ()

    def __post_init__(self):
        if not (np.isfinite(own(self, "weights")).all() and np.isfinite(own(self, "biases")).all()):
            raise NumericalError("the SVM weights are not finite: rescale the features to a larger magnitude")


@dataclass(frozen=True)
class ConfusionMatrix:
    """K x K counts, rows = true class, columns = predicted class."""

    counts: np.ndarray
    class_names: tuple

    def __post_init__(self):
        counts = own(self, "counts", np.int64)
        if counts.ndim != 2 or counts.shape[0] != counts.shape[1]:
            raise DataError("confusion counts must be square")
        if np.any(counts < 0):
            raise DataError("confusion counts must be nonnegative")
        if len(self.class_names) != counts.shape[0]:
            raise DataError("class_names length must match matrix size")
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


def _training_set(train):
    """(X, y) of a (features, labels) pair: a D x n float matrix and n integer labels, else DataError."""
    X = samples(train[0], "training features")
    y = np.asarray(train[1], dtype=np.int64)
    if y.shape != (X.shape[1],):
        raise DataError(f"{y.size} training labels for {X.shape[1]} training columns")
    return X, y


def knn_predict(train, test, config: KnnConfig | None = None):
    """Majority label among the k nearest training columns (squared Euclidean), per test column."""
    if config is None:
        config = KnnConfig()
    train_X, train_y = _training_set(train)
    test_X = samples(test, "test features", train_X.shape[0])
    n_train = train_X.shape[1]
    if n_train == 0:
        raise DataError("empty training set")
    if config.k > n_train:
        raise DataError(f"k={config.k} exceeds training size {n_train}")

    sq = sklp_projection.pairwise_sq_distances(test_X, train_X)
    order = np.argsort(sq, axis=1, kind="stable")  # distance ties -> lower train index
    neighbors = train_y[order[:, : config.k]].tolist()  # nearest first
    return np.array([_majority(row) for row in neighbors], dtype=np.int64)


_MAX_NEWTON_STEPS = 50  # a guard: the decrement stops a binary fit within about 10 steps


def _squared_hinge(Z, targets, v, penalty):
    """(objective, scores) at v: 0.5 * sum(penalty * v^2) + mean(max(0, 1 - targets * scores)^2), scores = v @ Z."""
    scores = v @ Z
    slack = np.maximum(0.0, 1.0 - targets * scores)
    return 0.5 * float(penalty @ (v * v)) + float(slack @ slack) / len(targets), scores


def _fit_binary_svm(Z, targets, reg):
    """Finite Newton on the squared hinge (Mangasarian 2002; Keerthi & DeCoste 2005).

    Z carries a row of ones, so v = (w, b) and the bias goes unpenalised.
    Each step solves the generalized Newton system on the active set (the
    samples with margin below 1), then halves its length until the Armijo
    condition holds, so the recorded objectives never increase. The fit
    stops when the Newton decrement falls below 1e-14 (1 + f).
    """
    n = len(targets)
    penalty = np.full(len(Z), reg)
    penalty[-1] = 0.0
    v = np.zeros(len(Z))
    value, scores = _squared_hinge(Z, targets, v, penalty)
    history = [value]
    for _ in range(_MAX_NEWTON_STEPS):
        active = targets * scores < 1.0
        Za = Z[:, active]
        grad = penalty * v - (2.0 / n) * (Za @ (targets[active] - scores[active]))
        hessian = (2.0 / n) * (Za @ Za.T)
        hessian.flat[::len(Z) + 1] += penalty
        if not active.any():  # the bias row is zero, and so is its gradient: b stays
            hessian[-1, -1] = 1.0
        step = np.linalg.solve(hessian, -grad)
        decrement = -float(grad @ step)
        if decrement < 1e-14 * (1.0 + value):
            break
        size = 1.0
        while (trial := _squared_hinge(Z, targets, v + size * step, penalty))[0] > value - 1e-4 * size * decrement:
            size /= 2.0
        v = v + size * step
        value, scores = trial
        history.append(value)
    return v, history


def svm_fit(train, config: SvmConfig | None = None) -> SvmModel:
    """One-vs-rest squared-hinge linear classifiers, each solved to its optimum by finite Newton.

    Features are standardised with the training mean and standard deviation,
    and the standardisation is folded back into the weights and biases. A
    constant feature gets scale 1, and each deviation is divided by its
    feature's largest before squaring, so no square underflows or
    overflows. Training consumes no randomness.
    """
    if config is None:
        config = SvmConfig()
    X, y = _training_set(train)
    if y.size == 0 or (y == y[0]).all():
        raise DataError("svm_fit needs at least 2 classes")
    if y.min() < 0:
        raise DataError("svm_fit needs labels >= 0")
    mean = X.mean(axis=1)
    centred = X - mean[:, None]
    varies = np.ptp(X, axis=1) > 0.0
    peak = np.where(varies, np.abs(centred).max(axis=1), 1.0)
    scale = np.where(varies, peak * np.sqrt(np.mean((centred / peak[:, None]) ** 2, axis=1)), 1.0)
    Z = np.vstack([centred / scale[:, None], np.ones(len(y))])
    fits = [_fit_binary_svm(Z, np.where(y == k, 1.0, -1.0), config.regularization) for k in range(y.max() + 1)]
    with np.errstate(over="ignore", invalid="ignore"):  # subnormal features overflow the weights: SvmModel says so
        weights = np.array([v[:-1] for v, _ in fits]) / scale
        return SvmModel(weights=weights, biases=np.array([v[-1] for v, _ in fits]) - weights @ mean,
                        objective_histories=tuple(tuple(history) for _, history in fits))


def svm_predict(model: SvmModel, test):
    """Argmax of per-class scores; ties resolve to the lowest class id."""
    test_X = samples(test, "test features", model.weights.shape[1])
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
        if not np.bincount(train_y, minlength=K).all():
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
