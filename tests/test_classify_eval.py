import dataclasses
import math
import warnings

import numpy as np
import pytest

from sklpdm import (
    ConfusionMatrix,
    DataError,
    DiffusionConfig,
    KnnConfig,
    LabeledDataset,
    NumericalError,
    PipelineConfig,
    SklpConfig,
    SvmConfig,
    confusion,
    cross_validate_actions,
    gen_gaussian_classes,
    gen_ring_classes,
    knn_predict,
    leave_one_group_out,
    pca_fit,
    project,
    svm_fit,
    svm_predict,
    video_majority_vote,
    with_groups,
)

from oracles import confusion_oracle, knn_oracle, vote_oracle


class TestKnn:
    def test_exact_training_point(self):
        train_X = np.array([[0.0, 5.0, 9.0]])
        train_y = np.array([0, 1, 2])
        predicted = knn_predict((train_X, train_y), np.array([[5.0]]), KnnConfig(k=1))
        assert predicted.tolist() == [1]

    def test_uniform_tie_resolved_to_nearest(self):
        # k = n with a 2-2 label split: the nearest neighbor's label wins
        train_X = np.array([[0.0, 1.0, 2.0, 3.0]])
        train_y = np.array([1, 0, 0, 1])
        predicted = knn_predict((train_X, train_y), np.array([[0.4]]), KnnConfig(k=4))
        assert predicted.tolist() == [1]

    def test_distance_tie_prefers_lower_index(self):
        train_X = np.array([[-1.0, 1.0]])
        train_y = np.array([1, 0])
        predicted = knn_predict((train_X, train_y), np.array([[0.0]]), KnnConfig(k=1))
        assert predicted.tolist() == [1]

    def test_matches_exhaustive_oracle(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            train_X = rng.standard_normal((3, 20))
            train_y = rng.integers(0, 2, 20)
            test_X = rng.standard_normal((3, 8))
            ours = knn_predict((train_X, train_y), test_X, KnnConfig(k=3))
            np.testing.assert_array_equal(ours, knn_oracle(train_X, train_y, test_X, 3))

    def test_k_larger_than_train_rejected(self):
        with pytest.raises(DataError):
            knn_predict((np.zeros((1, 2)), np.array([0, 1])), np.zeros((1, 1)), KnnConfig(k=3))

    @pytest.mark.parametrize(
        "make, field", [(lambda v: KnnConfig(k=v), "k")]
    )
    def test_counts_must_be_positive_integers(self, make, field):
        for value in (1.5, "3", 0):
            with pytest.raises(DataError, match=f"{field} must be a positive integer"):
                make(value)
        assert type(getattr(make(2.0), field)) is int

    @pytest.mark.parametrize("value", [0.0, -1.0, math.nan, math.inf])
    def test_regularization_must_be_positive_and_finite(self, value):
        with pytest.raises(DataError, match="regularization must be positive and finite"):
            SvmConfig(regularization=value)

    def test_self_prediction_with_distinct_points(self):
        rng = np.random.default_rng(1)
        X = rng.standard_normal((4, 15))
        y = rng.integers(0, 3, 15)
        predicted = knn_predict((X, y), X, KnnConfig(k=1))
        np.testing.assert_array_equal(predicted, y)


class TestSvm:
    def separable(self, seed=0):
        rng = np.random.default_rng(seed)
        left = rng.normal(-5, 0.3, (2, 20))
        right = rng.normal(5, 0.3, (2, 20))
        X = np.hstack([left, right])
        y = np.array([0] * 20 + [1] * 20)
        return X, y

    def test_separable_training_accuracy(self):
        X, y = self.separable()
        model = svm_fit((X, y), SvmConfig(regularization=1e-3))
        predicted = svm_predict(model, X)
        assert (predicted == y).mean() == 1.0

    def test_flipped_labels_complement_predictions(self):
        X, y = self.separable(seed=2)
        config = SvmConfig(regularization=1e-3)
        forward = svm_predict(svm_fit((X, y), config), X)
        backward = svm_predict(svm_fit((X, 1 - y), config), X)
        np.testing.assert_array_equal(forward, 1 - backward)

    def test_seed_determinism(self):
        X, y = self.separable(seed=3)
        config = SvmConfig(regularization=1e-2)
        a = svm_fit((X, y), config)
        b = svm_fit((X, y), config)
        assert np.array_equal(a.weights, b.weights)
        assert np.array_equal(a.biases, b.biases)

    def test_objective_nonincreasing_per_epoch(self):
        rng = np.random.default_rng(4)
        X = rng.standard_normal((3, 30))
        y = rng.integers(0, 3, 30)
        y[:3] = [0, 1, 2]
        model = svm_fit((X, y), SvmConfig())
        for history in model.objective_histories:
            values = list(history)
            assert all(values[i + 1] <= values[i] for i in range(len(values) - 1))

    @staticmethod
    def pca_folds():
        """(train embedding, train labels, test embedding) of each fold of the 4-group rings that
        compare_outputs' `cv pca svm` case evaluates; their SVM confusions sit at chance level."""
        data = with_groups(gen_ring_classes(4, 48, 0.5, 30, 7), 4)
        for train_idx, test_idx in leave_one_group_out(data):
            train = LabeledDataset(data.features[:, train_idx], data.labels[train_idx], 4)
            model = pca_fit(train, "auto")
            yield project(model, train.features), train.labels, project(model, data.features[:, test_idx])

    def test_predictions_ignore_rounding_noise(self):
        """Moving every input entry by at most 2 ulps changes no prediction: the fit reaches its optimum."""
        rng = np.random.default_rng(0)
        flips = 0
        for train_X, train_y, test_X in self.pca_folds():
            reference = svm_predict(svm_fit((train_X, train_y)), test_X)
            for _ in range(20):
                noisy_train, noisy_test = (X + rng.integers(-2, 3, X.shape) * np.spacing(X) for X in (train_X, test_X))
                flips += int(np.sum(svm_predict(svm_fit((noisy_train, train_y)), noisy_test) != reference))
        assert flips == 0

    @pytest.mark.parametrize("factor", [1e-3, 180.0, 1e-300, 1e300])
    def test_predictions_ignore_the_feature_scale(self, factor):
        for train_X, train_y, test_X in self.pca_folds():
            scaled = svm_predict(svm_fit((factor * train_X, train_y)), factor * test_X)
            np.testing.assert_array_equal(scaled, svm_predict(svm_fit((train_X, train_y)), test_X))

    def test_subnormal_features_raise_instead_of_overflowing(self):
        """At x1e-307 the fit is scale-free; at x1e-310 the folded weights overflow, which raises, without a warning."""
        data = gen_ring_classes(4, 40, 0.3, 20, 3)
        expected = svm_predict(svm_fit((data.features, data.labels)), data.features)
        tiny = 1e-307 * data.features
        np.testing.assert_array_equal(svm_predict(svm_fit((tiny, data.labels)), tiny), expected)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericalError, match="rescale the features to a larger magnitude"):
                svm_fit((1e-310 * data.features, data.labels))

    def test_single_class_rejected(self):
        with pytest.raises(DataError):
            svm_fit((np.zeros((2, 4)), np.zeros(4, dtype=int)), SvmConfig())

    def test_score_tie_resolves_to_lowest_class(self):
        model_config = SvmConfig()
        model = svm_fit(
            (np.array([[-1.0, 1.0]]), np.array([0, 1])), model_config
        )
        zero_model = model.__class__(
            weights=np.zeros_like(model.weights), biases=np.zeros_like(model.biases)
        )
        predicted = svm_predict(zero_model, np.array([[3.0, -3.0]]))
        assert predicted.tolist() == [0, 0]


SIX_COLUMNS = np.arange(12.0).reshape(2, 6)
SIX_LABELS = np.array([0, 0, 1, 1, 2, 2])


@pytest.mark.parametrize("call, message", [
    (lambda: svm_fit((SIX_COLUMNS, SIX_LABELS[:5])), "5 training labels for 6 training columns"),
    (lambda: svm_fit((SIX_COLUMNS, SIX_LABELS - 1)), "svm_fit needs labels >= 0"),
    (lambda: svm_fit((SIX_COLUMNS[:, :0], SIX_LABELS[:0])), "svm_fit needs at least 2 classes"),
    (lambda: svm_predict(svm_fit((SIX_COLUMNS, SIX_LABELS)), SIX_COLUMNS[:, 0]),
     r"test features must be a 2-D matrix \(columns are samples\), got shape \(2,\)"),
    (lambda: knn_predict((SIX_COLUMNS, SIX_LABELS[:4]), SIX_COLUMNS), "4 training labels for 6 training columns"),
    (lambda: knn_predict((SIX_COLUMNS, SIX_LABELS), SIX_COLUMNS[:, 0]),
     r"test features must be a 2-D matrix \(columns are samples\), got shape \(2,\)"),
    (lambda: knn_predict((SIX_COLUMNS[0], SIX_LABELS), SIX_COLUMNS), r"training features must be a 2-D matrix"),
], ids=["svm-short-labels", "svm-negative-label", "svm-no-labels", "svm-1d-test", "knn-short-labels", "knn-1d-test", "knn-1d-train"])
def test_mismatched_classifier_inputs_rejected(call, message):
    with pytest.raises(DataError, match=message):
        call()


class TestVoting:
    def test_majority(self):
        assert video_majority_vote(["a", "a", "b"], [0, 0, 0]) == {0: "a"}

    def test_tie_goes_to_earliest_frame(self):
        assert video_majority_vote(["a", "b"], [0, 0]) == {0: "a"}
        assert video_majority_vote(["b", "a"], [0, 0]) == {0: "b"}

    def test_three_videos_match_tally_oracle(self):
        labels = [0, 0, 1, 1, 1, 2, 2, 0, 0]
        groups = [0, 0, 0, 1, 1, 1, 2, 2, 2]
        assert video_majority_vote(labels, groups) == vote_oracle(labels, groups)

    def test_empty_rejected(self):
        with pytest.raises(DataError):
            video_majority_vote([], [])

    def test_length_mismatch(self):
        with pytest.raises(DataError):
            video_majority_vote([0], [0, 1])


class TestConfusion:
    def test_perfect_prediction(self):
        matrix = confusion([0, 1, 2], [0, 1, 2], 3)
        np.testing.assert_array_equal(matrix.counts, np.eye(3, dtype=int))
        assert matrix.accuracy == 1.0

    def test_constant_predictor(self):
        matrix = confusion([0, 1, 2, 1], [1, 1, 1, 1], 3)
        assert matrix.counts[:, 1].sum() == 4
        assert matrix.counts[:, 0].sum() == 0 and matrix.counts[:, 2].sum() == 0

    def test_matches_tally_oracle(self):
        rng = np.random.default_rng(5)
        true = rng.integers(0, 4, 60)
        pred = rng.integers(0, 4, 60)
        matrix = confusion(true, pred, 4)
        np.testing.assert_array_equal(matrix.counts, confusion_oracle(true, pred, 4))

    def test_row_sums_are_per_class_counts(self):
        rng = np.random.default_rng(6)
        true = rng.integers(0, 3, 40)
        pred = rng.integers(0, 3, 40)
        matrix = confusion(true, pred, 3)
        np.testing.assert_array_equal(matrix.counts.sum(axis=1), np.bincount(true, minlength=3))


    @pytest.mark.parametrize("call, message", [
        (lambda: confusion([0, 1], [0], 2), "true and predicted label lengths differ"),
        (lambda: confusion([0, 2], [0, 1], 2), r"labels must lie in \[0, 2\)"),
        (lambda: ConfusionMatrix([[1, 2]], ("a",)), "confusion counts must be square"),
        (lambda: ConfusionMatrix([1, 2], ("a", "b")), "confusion counts must be square"),
        (lambda: ConfusionMatrix([[1, -1], [0, 1]], ("a", "b")), "confusion counts must be nonnegative"),
        (lambda: ConfusionMatrix(np.eye(2, dtype=int), ("a",)), "class_names length must match matrix size"),
    ], ids=["lengths", "label-range", "not-square", "one-dimensional", "negative", "names-length"])
    def test_malformed_tally_rejected(self, call, message):
        with pytest.raises(DataError, match=message):
            call()


class TestAccuracy:
    def test_diagonal(self):
        assert ConfusionMatrix(np.diag([3, 4]), ("a", "b")).accuracy == 1.0

    def test_off_diagonal_only(self):
        counts = np.array([[0, 2], [3, 0]])
        assert ConfusionMatrix(counts, ("a", "b")).accuracy == 0.0

    def test_arithmetic(self):
        counts = np.array([[3, 1], [0, 4]])
        assert ConfusionMatrix(counts, ("a", "b")).accuracy == pytest.approx(7 / 8)

    def test_empty_rejected(self):
        with pytest.raises(DataError):
            ConfusionMatrix(np.zeros((2, 2), dtype=int), ("a", "b")).accuracy


class TestCrossValidate:
    def separable_grouped(self, seed=0):
        data = gen_gaussian_classes(3, 24, 6, spread=0.5, separation=12.0, seed=seed)
        return with_groups(data, 4)

    def test_distance_preserving_projection_perfect_accuracy(self):
        data = self.separable_grouped()
        pipeline = PipelineConfig(
            reduction="pca", classifier="knn", knn=KnnConfig(k=1), sklp=SklpConfig(target_dim=6)
        )
        result = cross_validate_actions(data, pipeline)
        assert result.accuracy == 1.0
        assert result.confusion.total == 12  # 4 groups x 3 classes, one video each

    def test_determinism(self):
        data = self.separable_grouped(seed=1)
        pipeline = PipelineConfig(
            reduction="sklp+dm",
            classifier="knn",
            sklp=SklpConfig(rho=0.5, max_iters=15),
            diffusion=DiffusionConfig(embed_dim=2),
        )
        a = cross_validate_actions(data, pipeline)
        b = cross_validate_actions(data, pipeline)
        np.testing.assert_array_equal(a.confusion.counts, b.confusion.counts)
        assert a.fold_accuracies == b.fold_accuracies

    def test_every_video_counted_once(self):
        data = self.separable_grouped(seed=2)
        for reduction in ("pca", "lda", "dm"):
            pipeline = PipelineConfig(reduction=reduction, classifier="knn")
            result = cross_validate_actions(data, pipeline)
            assert result.confusion.total == 12
            assert len(result.fold_accuracies) == 4

    def test_svm_classifier_path(self):
        data = self.separable_grouped(seed=3)
        pipeline = PipelineConfig(
            reduction="pca", classifier="svm", svm=SvmConfig()
        )
        result = cross_validate_actions(data, pipeline)
        assert result.accuracy >= 0.9

    def test_video_tally_matches_oracles(self):
        # overlapping classes and 4-frame videos, so frame predictions mix and some votes tie
        data = with_groups(gen_gaussian_classes(3, 16, 5, spread=1.0, separation=1.5, seed=5), 4)
        ties = 0
        for k in (1, 2):
            pipeline = PipelineConfig(reduction="pca", knn=KnnConfig(k=k), sklp=SklpConfig(target_dim=2))
            result = cross_validate_actions(data, pipeline)
            counts = np.zeros((3, 3), dtype=np.int64)
            fold_accuracies = []
            for group in np.unique(data.groups):
                train, test = data.groups != group, data.groups == group
                model = pca_fit(LabeledDataset(data.features[:, train], data.labels[train], 3), 2)
                predicted = knn_oracle(
                    project(model, data.features[:, train]), data.labels[train],
                    project(model, data.features[:, test]), k,
                )
                true = data.labels[test]
                votes = vote_oracle(predicted.tolist(), true.tolist())  # the class is the video
                for label, vote in votes.items():
                    counts[label, vote] += 1
                    tally = np.bincount(predicted[true == label])
                    ties += int(np.sum(tally == tally.max()) > 1)
                fold_accuracies.append(sum(vote == label for label, vote in votes.items()) / len(votes))
            np.testing.assert_array_equal(result.confusion.counts, counts)
            assert result.fold_accuracies == tuple(fold_accuracies)
        assert ties > 0

    def test_missing_groups_rejected(self):
        data = gen_gaussian_classes(2, 10, 4, 1.0, 8.0, seed=4)
        with pytest.raises(DataError):
            cross_validate_actions(data, PipelineConfig(reduction="pca"))

    def test_fold_with_missing_class_rejected(self):
        features = np.array([[0.0, 1.0, 2.0, 3.0]])
        data = LabeledDataset(
            features=features,
            labels=[0, 0, 1, 1],
            class_count=2,
            groups=[0, 0, 1, 1],  # group 0 holds all of class 0
        )
        pipeline = PipelineConfig(reduction="pca", sklp=SklpConfig(target_dim=1))
        with pytest.raises(DataError, match="fold leaves a class with no training samples"):
            cross_validate_actions(data, pipeline)

    def test_result_echoes_only_the_settings_its_arm_reads(self):
        data = with_groups(gen_gaussian_classes(3, 8, 4, spread=1.0, separation=6.0, seed=0), 2)
        sklp = SklpConfig(rho=0.5, max_iters=2, target_dim=2)
        for reduction in ("pca", "lda", "dm", "sklp+dm"):
            for classifier in ("knn", "svm"):
                pipeline = PipelineConfig(reduction=reduction, classifier=classifier, sklp=sklp,
                                          svm=SvmConfig())
                echo = cross_validate_actions(data, pipeline).pipeline
                expected = {"reduction": reduction, "classifier": classifier,
                            classifier: dataclasses.asdict(getattr(pipeline, classifier))}
                if reduction in ("pca", "lda"):
                    expected["sklp"] = {"target_dim": 2}
                else:
                    expected["diffusion"] = dataclasses.asdict(pipeline.diffusion)
                if reduction == "sklp+dm":
                    expected["sklp"] = dataclasses.asdict(sklp)
                assert echo == expected, (reduction, classifier)

    def test_unknown_pipeline_rejected(self):
        with pytest.raises(DataError):
            PipelineConfig(reduction="umap")
