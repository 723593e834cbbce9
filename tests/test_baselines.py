import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sklpdm import (
    DataError,
    DiffusionConfig,
    LabeledDataset,
    NumericalError,
    diffusion_map,
    fit,
    gen_gaussian_classes,
    gen_ring_classes,
    knn_predict,
    lda_fit,
    pca_fit,
    project,
    svm_fit,
    svm_predict,
)
from sklpdm.sklp_projection import output_dim

from oracles import jacobi_eigh, knn_oracle


def unlabeled(X):
    """The columns of X as a one-class dataset, the input pca_fit takes."""
    return LabeledDataset(features=X, labels=np.zeros(np.shape(X)[1], dtype=int), class_count=1)


class TestPca:
    def test_axis_aligned_data(self):
        X = np.array([[1.0, 2.0, 3.0, 4.0], [0.0, 0.0, 0.0, 0.0]])
        model = pca_fit(unlabeled(X), 2)
        np.testing.assert_allclose(np.abs(model.matrix[:, 0]), [1.0, 0.0], atol=1e-12)
        assert model.matrix[0, 0] > 0  # sign convention
        assert model.eigenvalues[1] == pytest.approx(0.0, abs=1e-12)

    def test_isotropic_contract(self):
        rng = np.random.default_rng(0)
        X = rng.standard_normal((3, 400))
        model = pca_fit(unlabeled(X), 2)
        gram = model.matrix.T @ model.matrix
        np.testing.assert_allclose(gram, np.eye(2), atol=1e-10)
        centered = X - X.mean(axis=1, keepdims=True)
        cov = centered @ centered.T / (X.shape[1] - 1)
        residual = cov @ model.matrix - model.matrix * model.eigenvalues[None, :]
        assert np.max(np.abs(residual)) <= 1e-8 * (np.linalg.norm(cov, 2) + 1)

    def test_matches_jacobi_oracle(self):
        rng = np.random.default_rng(1)
        X = rng.standard_normal((10, 20))
        model = pca_fit(unlabeled(X), 3)
        centered = X - X.mean(axis=1, keepdims=True)
        cov = centered @ centered.T / 19
        oracle_values, _ = jacobi_eigh(cov)
        np.testing.assert_allclose(model.eigenvalues, oracle_values[:3], atol=1e-9)

    def test_d_too_large(self):
        # capped at min(D, n - 1), as `fit pca --dim` caps it
        X = np.random.default_rng(2).standard_normal((3, 5))
        model = pca_fit(unlabeled(X), 7)
        assert model.dim_out == 3 and model.matrix.shape == (3, 3)
        np.testing.assert_array_equal(model.matrix, pca_fit(unlabeled(X), 3).matrix)
        assert pca_fit(unlabeled(X[:, :3]), 7).dim_out == 2

    def test_reconstruction_error_nonincreasing_in_d(self):
        rng = np.random.default_rng(3)
        X = rng.standard_normal((6, 30))
        errors = []
        for d in range(1, 6):
            model = pca_fit(unlabeled(X), d)
            centered = X - model.mean[:, None]
            recon = model.matrix @ (model.matrix.T @ centered)
            errors.append(float(np.sum((centered - recon) ** 2)))
        assert all(errors[i + 1] <= errors[i] + 1e-9 for i in range(len(errors) - 1))

    def test_mean_subtracted_on_projection(self):
        rng = np.random.default_rng(4)
        X = rng.standard_normal((4, 10)) + 100.0
        model = pca_fit(unlabeled(X), 2)
        projected = project(model, model.mean[:, None])
        np.testing.assert_allclose(projected, 0.0, atol=1e-10)


class TestLda:
    def test_two_single_point_classes(self):
        X = np.array([[0.0, 3.0], [0.0, 4.0]])
        data = LabeledDataset(features=X, labels=[0, 1], class_count=2)
        model = lda_fit(data, 1)
        direction = model.matrix[:, 0]
        difference = (X[:, 0] - X[:, 1]) / np.linalg.norm(X[:, 0] - X[:, 1])
        assert abs(abs(direction @ difference) - 1.0) < 1e-9

    def test_identical_class_means_degenerate(self):
        rng = np.random.default_rng(5)
        noise = rng.standard_normal((3, 40))
        data = LabeledDataset(
            features=noise, labels=np.arange(40) % 2, class_count=2
        )
        # force identical means exactly
        X = noise.copy()
        for k in range(2):
            members = np.arange(40) % 2 == k
            X[:, members] -= X[:, members].mean(axis=1, keepdims=True)
        data = LabeledDataset(features=X, labels=np.arange(40) % 2, class_count=2)
        with pytest.raises(NumericalError, match="no direction separates the class means: they coincide"):
            lda_fit(data, 1)

    def test_d_capped_at_k_minus_one(self):
        data = gen_gaussian_classes(3, 10, 5, 1.0, 5.0, seed=1)
        model = lda_fit(data, 3)
        assert model.dim_out == 2 and model.matrix.shape == (5, 2)
        with pytest.raises(DataError):
            lda_fit(data, 0)

    def test_orthonormal_columns_and_descending_values(self):
        data = gen_gaussian_classes(4, 20, 7, 1.0, 4.0, seed=2)
        model = lda_fit(data, 3)
        gram = model.matrix.T @ model.matrix
        np.testing.assert_allclose(gram, np.eye(model.dim_out), atol=1e-10)
        assert np.all(np.diff(model.eigenvalues) <= 1e-12)
        assert np.all(model.eigenvalues >= 0)

    def test_beats_pca_on_shared_spherical_covariances(self):
        # within-class variance spread across many ambient dims so variance
        # alone (PCA) cannot find the mean subspace, but the whitened
        # discriminant (shared spherical covariance) can
        wins = 0
        for seed in range(10):
            data = gen_gaussian_classes(3, 40, 20, spread=2.0, separation=5.0, seed=seed)
            train = np.arange(data.sample_count) % 2 == 0
            train_set = LabeledDataset(
                features=data.features[:, train],
                labels=data.labels[train],
                class_count=3,
            )
            lda = lda_fit(train_set, 2)
            pca = pca_fit(train_set, 2)
            truth = data.labels[~train]
            lda_acc = (
                knn_oracle(
                    project(lda, data.features[:, train]),
                    data.labels[train],
                    project(lda, data.features[:, ~train]),
                    1,
                )
                == truth
            ).mean()
            pca_acc = (
                knn_oracle(
                    project(pca, data.features[:, train]),
                    data.labels[train],
                    project(pca, data.features[:, ~train]),
                    1,
                )
                == truth
            ).mean()
            if lda_acc >= pca_acc:
                wins += 1
        assert wins == 10

    def test_determinism(self):
        data = gen_gaussian_classes(3, 15, 6, 1.0, 5.0, seed=3)
        m1 = lda_fit(data, 2)
        m2 = lda_fit(data, 2)
        assert np.array_equal(m1.matrix, m2.matrix)


class TestApplyModel:
    def test_matches_project_contract(self):
        rng = np.random.default_rng(6)
        X = rng.standard_normal((5, 12))
        model = pca_fit(unlabeled(X), 2)
        projected = project(model, X)
        assert projected.shape == (2, 12)
        centered = X - model.mean[:, None]
        np.testing.assert_allclose(projected, model.matrix.T @ centered, atol=1e-12)

    def test_zero_input_with_lda(self):
        data = gen_gaussian_classes(2, 10, 4, 1.0, 6.0, seed=7)
        model = lda_fit(data, 1)
        assert np.max(np.abs(project(model, np.zeros((4, 3))))) == 0.0

    def test_dimension_mismatch(self):
        data = gen_gaussian_classes(2, 10, 4, 1.0, 6.0, seed=8)
        model = lda_fit(data, 1)
        with pytest.raises(DataError):
            project(model, np.zeros((5, 2)))


@st.composite
def ordinary_datasets(draw):
    """Rings or Gaussians at a global scale 10^u, u in [-6, 6], plus an offset.

    Half the draws add a constant feature, and half repeat every sample.
    """
    K, per_class, D = draw(st.integers(2, 5)), draw(st.integers(2, 30)), draw(st.integers(3, 30))
    seed = draw(st.integers(0, 999))
    if draw(st.booleans()):
        data = gen_ring_classes(K, per_class, draw(st.floats(0.0, 1.0)), D, seed)
    else:
        data = gen_gaussian_classes(K, per_class, D, draw(st.floats(0.1, 2.0)), draw(st.floats(0.5, 5.0)), seed)
    X = data.features * 10.0 ** draw(st.floats(-6.0, 6.0)) + draw(st.floats(-1e3, 1e3))
    labels = data.labels
    if draw(st.booleans()):
        X = np.vstack([X, np.full((1, X.shape[1]), draw(st.floats(-1e3, 1e3)))])
    if draw(st.booleans()):
        X, labels = np.hstack([X, X]), np.concatenate([labels, labels])
    return LabeledDataset(features=X, labels=labels, class_count=K)


@settings(max_examples=25, deadline=None)
@given(ordinary_datasets())
def test_projection_fits_at_defaults_succeed_or_say_what_to_change(data):
    """pca_fit, lda_fit and the SKLP fit at their defaults: a finite orthonormal model, or an error naming the fix."""
    bound = output_dim("auto", data.class_count, data.dim, data.sample_count)
    for fit_at_defaults in (pca_fit, lda_fit, lambda dataset: fit(dataset)[0]):
        try:
            model = fit_at_defaults(data)
        except (DataError, NumericalError) as exc:
            assert re.search(r"\brho\b|rescale the features", str(exc)), exc
            continue
        assert np.isfinite(model.matrix).all() and np.isfinite(model.eigenvalues).all()
        np.testing.assert_allclose(model.matrix.T @ model.matrix, np.eye(model.dim_out), atol=1e-10)
        assert 1 <= model.dim_out <= bound


@settings(max_examples=25, deadline=None)
@given(ordinary_datasets())
def test_classifiers_and_diffusion_at_defaults_return_finite_outputs_or_raise(data):
    """knn_predict, svm_fit/svm_predict and diffusion fit/extend at their defaults, trained on 3 of every 4
    samples and applied to the rest: finite outputs and labels in [0, K), or a DataError/NumericalError."""
    held = np.arange(data.sample_count) % 4 == 3
    train, labels, test = data.features[:, ~held], data.labels[~held], data.features[:, held]
    def svm_at_defaults():
        model = svm_fit((train, labels))
        assert np.isfinite(model.weights).all() and np.isfinite(model.biases).all()
        return svm_predict(model, test)

    for classify in (lambda: knn_predict((train, labels), test), svm_at_defaults):
        try:
            predicted = classify()
        except (DataError, NumericalError):
            continue
        assert predicted.shape == (test.shape[1],)
        assert 0 <= predicted.min() and predicted.max() < data.class_count
    try:
        model = diffusion_map.fit(train, DiffusionConfig())
        extended = diffusion_map.extend(model, test)
    except (DataError, NumericalError):
        return
    assert np.isfinite(model.embedding).all() and np.isfinite(extended).all()
    assert extended.shape == (test.shape[1], model.embedding.shape[1])
