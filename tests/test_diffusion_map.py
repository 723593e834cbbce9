import json
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sklpdm import DataError, DiffusionConfig, NumericalError, affinity
from sklpdm import diffusion_map, sklp_projection

from oracles import csv_rows_oracle, row_normalized, transition_eig_oracle


def ring_points(n, radius=1.0):
    # irregular spacing keeps the transition spectrum simple (no repeated
    # eigenvalues from rotational symmetry)
    angles = np.arange(n) * (2 * math.pi / n) + 0.13 * np.sin(np.arange(n) + 0.7)
    return np.vstack([radius * np.cos(angles), radius * np.sin(angles)])


class TestAffinity:
    def test_identical_points(self):
        X = np.zeros((3, 2))
        np.testing.assert_array_equal(affinity(X, 1.0), np.ones((2, 2)))

    def test_distance_equal_to_bandwidth(self):
        X = np.array([[0.0, 2.5]])
        W = affinity(X, 2.5)
        assert W[0, 1] == pytest.approx(math.exp(-1), abs=1e-15)

    def test_matches_pairwise_oracle(self):
        rng = np.random.default_rng(0)
        X = rng.standard_normal((3, 5))
        W = affinity(X, 1.7)
        for i in range(5):
            for j in range(5):
                diff = X[:, i] - X[:, j]
                expected = math.exp(-float(diff @ diff) / 1.7**2)
                assert abs(W[i, j] - expected) <= 1e-12
        np.testing.assert_array_equal(W, W.T)  # exactly symmetric
        np.testing.assert_array_equal(np.diag(W), np.ones(5))

    @pytest.mark.parametrize("value", [0, -1.0, math.nan, math.inf, 1e-200, 1e200, "abc"])
    def test_unusable_bandwidth_rejected(self, value):
        message = f"bandwidth must be 'auto' or a number .*, got {re.escape(repr(value))}"
        with pytest.raises(DataError, match=message):
            DiffusionConfig(bandwidth=value)
        with pytest.raises(DataError, match=message):
            affinity(np.zeros((2, 3)), value)

    @settings(max_examples=50, deadline=None)
    @given(
        st.floats(min_value=0.0, max_value=30.0),
        st.floats(min_value=1e-3, max_value=30.0),
        st.floats(min_value=0.5, max_value=5.0),
    )
    def test_strictly_decreasing_in_squared_distance(self, sq, gap, bandwidth):
        # ranges bounded away from exp underflow so strictness is observable
        near = math.exp(-sq / bandwidth**2)
        far = math.exp(-(sq + gap) / bandwidth**2)
        assert far < near


class TestFit:
    def test_two_clusters_split_by_sign(self):
        rng = np.random.default_rng(2)
        X = np.hstack([rng.normal(0, 0.05, (2, 8)), rng.normal(50, 0.05, (2, 8))])
        model = diffusion_map.fit(X, DiffusionConfig(bandwidth=1.0, embed_dim=1))
        first = model.embedding[:, 0]
        assert len(set(np.sign(first[:8]))) == 1
        assert len(set(np.sign(first[8:]))) == 1
        assert np.sign(first[0]) != np.sign(first[8])

    def test_time_scaling_of_columns(self):
        rng = np.random.default_rng(3)
        X = rng.standard_normal((3, 12))
        base = diffusion_map.fit(X, DiffusionConfig(embed_dim=3, time=1))
        doubled = diffusion_map.fit(X, DiffusionConfig(embed_dim=3, time=2))
        lam = base.eigenvalues[1:]
        np.testing.assert_allclose(doubled.embedding, base.embedding * lam[None, :], atol=1e-10)

    def test_matches_dense_transition_eigensolve(self):
        X = ring_points(6)
        model = diffusion_map.fit(X, DiffusionConfig(bandwidth=1.0, embed_dim=2, time=1))
        T = row_normalized(affinity(X, 1.0))
        oracle_values, oracle_vectors = transition_eig_oracle(T)
        assert model.eigenvalues.shape == (3,) and model.eigenvectors.shape == (6, 3)
        np.testing.assert_allclose(model.eigenvalues, oracle_values[:3], atol=1e-8)
        for idx in range(3):
            reference = oracle_vectors[:, idx] / np.linalg.norm(oracle_vectors[:, idx])
            columns = [(model.eigenvectors[:, idx], reference)]
            if idx > 0:
                columns.append((model.embedding[:, idx - 1], reference * oracle_values[idx]))
            for ours, expected in columns:
                agreement = min(
                    np.max(np.abs(ours - expected)), np.max(np.abs(ours + expected))
                )
                assert agreement <= 1e-8

    def test_leading_eigenpair_is_trivial(self):
        rng = np.random.default_rng(4)
        X = rng.standard_normal((2, 10))
        model = diffusion_map.fit(X, DiffusionConfig(embed_dim=2))
        assert model.eigenvalues[0] == pytest.approx(1.0, abs=1e-8)
        lead = model.eigenvectors[:, 0]
        assert np.max(np.abs(lead - lead[0])) <= 1e-8  # constant eigenvector

    def test_embed_dim_exceeds_eigenpairs(self):
        X = np.array([[0.0, 1.0, 2.0]])
        with pytest.raises(DataError, match="embed_dim"):
            diffusion_map.fit(X, DiffusionConfig(embed_dim=3))

    def test_auto_bandwidth_needs_two_points(self):
        with pytest.raises(DataError, match="at least 2 points"):
            sklp_projection.bandwidth(np.zeros((1, 1)), "auto")

    def test_keeps_no_n_by_n_array(self, tmp_path):
        rng = np.random.default_rng(5)
        n = 30
        model = diffusion_map.fit(rng.standard_normal((4, n)), DiffusionConfig(embed_dim=3))
        assert model.eigenvalues.shape == (4,)
        assert model.eigenvectors.shape == (n, 4)
        assert model.embedding.shape == (n, 3)
        for value in vars(model).values():
            assert np.shape(value) != (n, n)
        path = tmp_path / "model.json"
        diffusion_map.save_model_json(model, path)
        payload = json.loads(path.read_text())
        assert sorted(payload) == [
            "bandwidth", "eigenvalues", "eigenvectors", "embed_dim", "time", "train_points"
        ]
        for value in payload.values():
            assert np.shape(value) != (n, n)
        np.testing.assert_array_equal(payload["eigenvectors"], model.eigenvectors)
        np.testing.assert_array_equal(payload["train_points"], model.train_points)

    @pytest.mark.parametrize("field", ["embed_dim", "time"])
    @pytest.mark.parametrize("value", [2.7, 1.9, "2", 0])
    def test_settings_must_be_positive_integers(self, field, value):
        with pytest.raises(DataError, match=f"{field} must be a positive integer"):
            DiffusionConfig(**{field: value})

    def test_integral_float_settings_become_ints(self):
        config = DiffusionConfig(embed_dim=3.0, time=2.0)
        assert (config.embed_dim, config.time) == (3, 2)
        assert type(config.embed_dim) is int and type(config.time) is int

    def test_rigid_motion_invariance(self):
        rng = np.random.default_rng(6)
        X = np.hstack(
            [rng.normal(0, 1.0, (3, 14)), rng.normal(6, 1.0, (3, 14))]
        )
        rotation, _ = np.linalg.qr(rng.standard_normal((3, 3)))
        shifted = rotation @ X + rng.standard_normal((3, 1))
        a = diffusion_map.fit(X, DiffusionConfig(bandwidth=2.0, embed_dim=2))
        b = diffusion_map.fit(shifted, DiffusionConfig(bandwidth=2.0, embed_dim=2))
        for col in range(2):
            agreement = min(
                np.max(np.abs(a.embedding[:, col] - b.embedding[:, col])),
                np.max(np.abs(a.embedding[:, col] + b.embedding[:, col])),
            )
            assert agreement <= 1e-8


class TestExtend:
    def test_training_point_reproduces_row(self):
        rng = np.random.default_rng(7)
        X = np.hstack([rng.normal(0, 0.5, (2, 10)), rng.normal(8, 0.5, (2, 10))])
        model = diffusion_map.fit(X, DiffusionConfig(embed_dim=2))
        out = diffusion_map.extend(model, X[:, [3]])
        np.testing.assert_allclose(
            out[0], model.embedding[3], rtol=1e-3, atol=1e-6
        )

    def test_barycenter_of_symmetric_clusters(self):
        offsets = np.array([1.0, 2.0, 3.0, 1.5])
        left = np.vstack([-5.0 + 0.0 * offsets, offsets])
        right = np.vstack([5.0 + 0.0 * offsets, offsets])
        X = np.hstack([left, right])
        model = diffusion_map.fit(X, DiffusionConfig(bandwidth=3.0, embed_dim=1))
        center = diffusion_map.extend(model, np.array([[0.0], [np.mean(offsets)]]))
        assert abs(center[0, 0]) <= 1e-8 * (np.max(np.abs(model.embedding)) + 1)

    def test_empty_input(self):
        rng = np.random.default_rng(8)
        X = rng.standard_normal((2, 6))
        model = diffusion_map.fit(X, DiffusionConfig(embed_dim=2))
        out = diffusion_map.extend(model, np.zeros((2, 0)))
        assert out.shape == (0, 2)

    def test_unreachable_columns_rejected(self):
        # columns far from every unit-sum training profile get affinity exp(-huge) = 0
        rng = np.random.default_rng(11)
        train = rng.random((180, 40))
        train /= train.sum(axis=0)
        model = diffusion_map.fit(train, DiffusionConfig(embed_dim=2))
        new = np.hstack([rng.random((180, 3)), train[:, [5]], rng.random((180, 2))])
        message = rf"5 of 6 new columns have zero affinity .* bandwidth {re.escape(repr(model.bandwidth))}:"
        with pytest.raises(NumericalError, match=message):
            diffusion_map.extend(model, new)
        np.testing.assert_array_equal(
            diffusion_map.extend(model, train[:, [5]]), diffusion_map.extend(model, new[:, [3]])
        )

    def test_dimension_mismatch(self):
        rng = np.random.default_rng(9)
        model = diffusion_map.fit(rng.standard_normal((3, 6)), DiffusionConfig(embed_dim=2))
        with pytest.raises(DataError):
            diffusion_map.extend(model, np.zeros((2, 1)))


class TestEmbeddingCsv:
    def test_columns_and_labels(self, tmp_path):
        rng = np.random.default_rng(10)
        X = rng.standard_normal((2, 5))
        model = diffusion_map.fit(X, DiffusionConfig(embed_dim=2))
        path = tmp_path / "emb.csv"
        diffusion_map.save_embedding_csv(path, model.embedding, ["a", "b", "a", "b", "a"])
        lines = path.read_text().splitlines()
        assert lines[0] == "label,c1,c2"
        assert len(lines) == 6

    def test_no_labels(self, tmp_path):
        path = tmp_path / "emb.csv"
        diffusion_map.save_embedding_csv(path, np.zeros((2, 3)))
        assert path.read_text().splitlines()[0] == "c1,c2,c3"

    def test_bytes_match_field_by_field_writer(self, tmp_path):
        rng = np.random.default_rng(12)
        embedding = rng.standard_normal((6, 3)) * 10.0 ** rng.integers(-200, 200, (6, 3))
        embedding[0] = [-0.0, 5e-324, 1e16]
        labels = ['a,b', 'say "hi"', "", "plain", "cr\rlf", "a,b"]
        header = ["label", "c1", "c2", "c3"]
        path = tmp_path / "emb.csv"
        diffusion_map.save_embedding_csv(path, embedding, labels)
        assert path.read_bytes().decode() == csv_rows_oracle(header, embedding, labels)
        diffusion_map.save_embedding_csv(path, embedding)
        assert path.read_bytes().decode() == csv_rows_oracle(header[1:], embedding)
