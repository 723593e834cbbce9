import json
import math
import re

import numpy as np
import pytest

from sklpdm import (
    DataError,
    DiffusionConfig,
    KnnConfig,
    LabeledDataset,
    NumericalError,
    SklpConfig,
    alpha_weights,
    class_moments,
    fit,
    diffusion_map,
    gen_gaussian_classes,
    gen_ring_classes,
    init_state,
    knn_predict,
    kernel_averages,
    load_model,
    objective,
    project,
    save_model,
    scatter_matrix,
    solve_eig,
    update_distances,
)
from sklpdm.sklp_projection import (
    _sorted_eigh,
    ProjectionModel,
    _smallest_admissible_rho,
    _tile_rows,
    bandwidth,
    default_class_weights,
    output_dim,
    pairwise_sq_distances,
)

from oracles import (
    jacobi_eigh,
    kernel_averages_oracle,
    knn_oracle,
    median_pairwise_oracle,
    objective_oracle,
    scatter_oracle,
    sklp_fit_oracle,
)


def dataset_from(features, labels):
    labels = np.asarray(labels)
    return LabeledDataset(
        features=np.asarray(features, dtype=float),
        labels=labels,
        class_count=int(labels.max()) + 1,
    )


def random_instance(rng, n_max=12, d_max=5, k_max=3):
    K = int(rng.integers(2, k_max + 1))
    n = int(rng.integers(2 * K, max(n_max, 2 * K) + 1))
    D = int(rng.integers(2, d_max + 1))
    # two guaranteed members per class, remainder random
    labels = np.concatenate([np.repeat(np.arange(K), 2), rng.integers(0, K, n - 2 * K)])
    rng.shuffle(labels)
    X = rng.standard_normal((D, n))
    return X, labels, K


class TestInitState:
    def test_identical_pair_plus_singleton(self):
        features = np.array([[0.0, 0.0, 3.0], [0.0, 0.0, 4.0]])
        data = dataset_from(features, [0, 0, 1])
        state = init_state(data, SklpConfig(kernel_bandwidth=1.0))
        assert state.M[0, 1] == 0.0
        assert state.m_c[0] == pytest.approx(math.exp(-1), abs=1e-12)
        assert state.m_c[1] == 1.0  # singleton class: no intra pairs

    def test_single_class_rejected(self):
        data = dataset_from(np.random.default_rng(0).standard_normal((3, 5)), [0] * 5)
        with pytest.raises(NumericalError, match="2 classes"):
            init_state(data, SklpConfig())

    def test_identical_points_rejected(self):
        data = dataset_from(np.ones((2, 4)), [0, 0, 1, 1])
        with pytest.raises(NumericalError):
            init_state(data, SklpConfig())

    def test_identical_samples_message(self):
        data = dataset_from(np.full((3, 5), 0.1), [0, 0, 1, 1, 1])
        with pytest.raises(NumericalError, match="all samples identical: cannot scale initial distances"):
            init_state(data, SklpConfig(kernel_bandwidth=1.0))

    def test_underflowing_covariance_is_not_called_identical(self):
        data = dataset_from(np.random.default_rng(1).standard_normal((3, 6)) * 1e-160, [0, 0, 0, 1, 1, 1])
        with pytest.raises(NumericalError, match="the samples differ, .* rescale the features to a larger magnitude"):
            init_state(data, SklpConfig(kernel_bandwidth=1.0))

    def test_auto_sigma_is_median_of_projected_distances(self):
        data = gen_gaussian_classes(3, 20, 5, 1.0, 4.0, seed=7)
        state = init_state(data, SklpConfig())
        d = data.class_count - 1
        centered = data.features - data.features.mean(axis=1, keepdims=True)
        cov = centered @ centered.T / (data.sample_count - 1)
        values, vectors = jacobi_eigh(cov)
        projected = vectors[:, :d].T @ data.features
        assert state.sigma == pytest.approx(median_pairwise_oracle(projected), rel=1e-9)
        assert state.dim == d
        assert init_state(data, SklpConfig(target_dim=50)).dim == 5  # capped at the 5 features

    def test_auto_bandwidth_equals_numpy_median(self):
        """Odd and even pair counts, and tied distances from integer points."""
        rng = np.random.default_rng(8)
        for n in (2, 3, 4, 5, 50, 250, 251, 300, 1000):
            for points in (rng.standard_normal((3, n)), rng.integers(0, 4, (2, n)).astype(float)):
                M = pairwise_sq_distances(points)
                expected = float(np.median(np.sqrt(M[np.triu_indices(n, 1)])))
                assert bandwidth(M, "auto") == expected


class TestKernelAverages:
    def test_all_zero_distances(self):
        labels = np.array([0, 0, 1, 1])
        m_c, m_o = kernel_averages(np.zeros((4, 4)), labels, 1.0)
        assert m_c == pytest.approx([math.exp(-1)] * 2, abs=1e-12)
        assert m_o == pytest.approx(math.exp(-1), abs=1e-12)

    def test_huge_distances(self):
        labels = np.array([0, 0, 1, 1])
        M = np.full((4, 4), 1e6)
        np.fill_diagonal(M, 0.0)
        m_c, m_o = kernel_averages(M, labels, 1.0)
        assert m_c == pytest.approx([1.0, 1.0], abs=1e-12)
        assert m_o == pytest.approx(1.0, abs=1e-12)

    def test_matches_double_loop_oracle(self):
        rng = np.random.default_rng(5)
        raw = rng.uniform(0.1, 3.0, (4, 4))
        M = (raw + raw.T) / 2
        np.fill_diagonal(M, 0.0)
        labels = np.array([0, 1, 0, 1])
        m_c, m_o = kernel_averages(M, labels, 1.0)
        oracle_c, oracle_o = kernel_averages_oracle(M, labels, 1.0)
        np.testing.assert_allclose(m_c, oracle_c, atol=1e-12)
        assert m_o == pytest.approx(oracle_o, abs=1e-12)


    def test_row_tiled_sums_match_double_loop_oracles(self):
        """At n = 301 the kernel is built in two row tiles, the last one ragged."""
        rng = np.random.default_rng(15)
        n = 301
        rows = _tile_rows(n, n)
        assert rows < n and n % rows != 0
        labels = np.concatenate([np.arange(4).repeat(2), rng.integers(0, 4, n - 8)])
        M = pairwise_sq_distances(rng.standard_normal((3, n)))
        lam = rng.uniform(0.5, 2.0, 4)
        m_c, m_o = kernel_averages(M, labels, 1.7)
        oracle_c, oracle_o = kernel_averages_oracle(M, labels, 1.7)
        np.testing.assert_allclose(m_c, oracle_c, atol=1e-12)
        assert m_o == pytest.approx(oracle_o, abs=1e-12)
        expected = objective_oracle(M, labels, 1.7, 0.35, lam)
        value = objective(M, labels, 1.7, 0.35, lam)
        assert value == pytest.approx(expected, abs=1e-12 * (1 + abs(expected)))


class TestAlphaWeights:
    def test_balanced_example(self):
        labels = np.array([0, 0, 1, 1])
        W = alpha_weights([math.exp(-1)] * 2, math.exp(-1), 0.5, (1.0, 1.0))
        assert W.shape == (2, 2)
        alpha = W[labels][:, labels]
        assert alpha[0, 1] == pytest.approx(-0.5 * math.e, rel=1e-12)
        assert alpha[0, 2] == pytest.approx(0.5 * math.e, rel=1e-12)
        np.testing.assert_array_equal(W, W.T)

    def test_rho_one_drops_intra_weights(self):
        labels = np.array([0, 0, 1])
        alpha = alpha_weights([0.5, 0.5], 0.5, 1.0, (1.0, 1.0))[labels][:, labels]
        assert alpha[0, 1] == 0.0
        assert alpha[0, 2] == pytest.approx(2.0)

    def test_sign_pattern_matches_labels(self):
        rng = np.random.default_rng(8)
        labels = rng.integers(0, 3, 10)
        labels[:3] = [0, 1, 2]
        m_c = rng.uniform(0.4, 0.9, 3)
        alpha = alpha_weights(m_c, 0.7, 0.3, (1.0, 2.0, 0.5))[labels][:, labels]
        for i in range(10):
            for j in range(10):
                if i == j:
                    continue  # a pair of a sample with itself carries no scatter
                elif labels[i] == labels[j]:
                    assert alpha[i, j] < 0
                else:
                    assert alpha[i, j] > 0


class TestScatterMatrix:
    # an arbitrary n x n alpha is the class-block form with every sample its own class

    def test_zero_weights(self):
        X = np.random.default_rng(1).standard_normal((3, 5))
        A = scatter_matrix(class_moments(X, np.arange(5), 5), np.zeros((5, 5)))
        assert np.max(np.abs(A)) == 0.0

    def test_two_point_hand_case(self):
        X = np.array([[1.0, 0.0], [0.0, 0.0]])
        c = 0.7
        alpha = np.array([[0.0, c], [c, 0.0]])
        A = scatter_matrix(class_moments(X, np.arange(2), 2), alpha)
        expected = 2 * c * np.array([[1.0, 0.0], [0.0, 0.0]])
        np.testing.assert_allclose(A, expected, atol=1e-12)
        np.testing.assert_allclose(scatter_oracle(X, alpha), expected, atol=1e-12)

    def test_random_instance_matches_pairwise_sum(self):
        rng = np.random.default_rng(4)
        X = rng.standard_normal((6, 6))
        raw = rng.standard_normal((6, 6))
        alpha = (raw + raw.T) / 2
        np.fill_diagonal(alpha, 0.0)
        for shifted in (X, X + 1e4):  # far from the origin the two class-sum terms nearly cancel
            A = scatter_matrix(class_moments(shifted, np.arange(6), 6), alpha)
            oracle = scatter_oracle(shifted, alpha)
            scale = np.linalg.norm(oracle)
            assert np.max(np.abs(A - oracle)) <= 1e-9 * scale

    def test_class_blocks_match_pairwise_sum(self):
        """K = 4 classes of 40 samples far from the origin, against the direct ordered-pair sum."""
        rng = np.random.default_rng(5)
        labels = np.concatenate([np.arange(4).repeat(2), rng.integers(0, 4, 32)])
        X = rng.standard_normal((6, 40)) + 1e4
        raw = rng.standard_normal((4, 4))
        W = (raw + raw.T) / 2
        moments = class_moments(X, labels, 4)
        assert moments[0].shape == (4, 6, 6) and moments[1].shape == (6, 4)
        np.testing.assert_array_equal(moments[2], np.bincount(labels))
        A = scatter_matrix(moments, W)
        oracle = scatter_oracle(X, W[labels][:, labels])
        assert np.max(np.abs(A - oracle)) <= 1e-9 * np.linalg.norm(oracle)

    def test_factored_forms(self):
        rng = np.random.default_rng(6)
        X = rng.standard_normal((4, 7))
        raw = rng.standard_normal((7, 7))
        alpha = (raw + raw.T) / 2
        np.fill_diagonal(alpha, 0.0)
        A = scatter_matrix(class_moments(X, np.arange(7), 7), alpha)
        L = 2.0 * (np.diag(alpha.sum(axis=1)) - alpha)
        np.testing.assert_allclose(A, X @ L @ X.T, atol=1e-10 * (1 + np.linalg.norm(A)))


class TestSolveEig:
    def test_diagonal_matrix(self):
        values, P = solve_eig(np.diag([3.0, 1.0, 0.0, -2.0]), 2)
        np.testing.assert_allclose(values, [3.0, 1.0], atol=1e-12)
        np.testing.assert_allclose(P, np.eye(4)[:, :2], atol=1e-12)

    def test_degenerate_spectrum_contract(self):
        A = np.eye(3)
        values, P = solve_eig(A, 2)
        gram = P.T @ P
        np.testing.assert_allclose(gram, np.eye(2), atol=1e-10)
        residual = A @ P - P * values[None, :]
        assert np.max(np.abs(residual)) <= 1e-8 * (np.linalg.norm(A, 2) + 1)

    def test_matches_jacobi_oracle(self):
        rng = np.random.default_rng(2)
        raw = rng.standard_normal((8, 8))
        A = (raw + raw.T) / 2 + np.eye(8)  # shift to guarantee positives
        values, _ = solve_eig(A, 3)
        oracle_values, _ = jacobi_eigh(A)
        np.testing.assert_allclose(values, oracle_values[:3], atol=1e-8)

    def test_no_positive_eigenvalues(self):
        with pytest.raises(NumericalError, match="positive"):
            solve_eig(-np.eye(3), 2)

    def test_truncates_to_positive_count(self):
        values, P = solve_eig(np.diag([2.0, -1.0, -1.0]), 3)
        assert len(values) == 1 and P.shape == (3, 1)

    def test_sign_convention(self):
        _, P = solve_eig(np.diag([5.0, 2.0]), 2)
        assert P[0, 0] > 0 and P[1, 1] > 0

    def test_sorted_eigh_reverses_eigh_on_a_copy(self, monkeypatch):
        """Descending values, eigh's columns reversed (ties too) with signs fixed, in a C-ordered block that does not
        share memory with eigh's output, which stays as eigh returned it."""
        rng = np.random.default_rng(4)
        basis, _ = np.linalg.qr(rng.standard_normal((7, 7)))
        A = basis @ np.diag([3.0, 1.0, 1.0, 1.0, 0.5, 0.0, -2.0]) @ basis.T
        A = (A + A.T) / 2.0
        eigh_values, eigh_vectors = np.linalg.eigh(A)
        returned = []
        eigh = np.linalg.eigh
        monkeypatch.setattr(np.linalg, "eigh", lambda M: returned.append(eigh(M)) or returned[-1])
        values, vectors = _sorted_eigh(A, 5)
        np.testing.assert_array_equal(values, eigh_values[::-1])
        assert np.all(np.diff(values) <= 0)
        expected = eigh_vectors[:, ::-1][:, :5]
        signs = np.sign(expected[np.argmax(np.abs(expected), axis=0), np.arange(5)])
        assert np.any(signs < 0)  # so a write through a view would show
        np.testing.assert_array_equal(vectors, expected * signs)
        assert vectors.flags.c_contiguous and not np.shares_memory(vectors, returned[0][1])
        np.testing.assert_array_equal(returned[0][1], eigh_vectors)


class TestPairwiseSqDistances:
    @staticmethod
    def broadcast_reference(points, others):
        diff = points[:, :, None] - others[:, None, :]
        return np.einsum("dij,dij->ij", diff, diff)

    def test_bit_identical_to_broadcast_reference(self):
        """No tolerance: random shapes and scales, several ragged row tiles, signed zeros,
        subnormals, magnitudes near 1e+-150, equal columns, and strided or sliced views."""
        rng = np.random.default_rng(41)
        shapes = [(0, 2, 3), (1, 1, 1), (1, 5, 3), (3, 1, 9), (2, 7, 1), (3, 7, 11), (180, 24, 30)]
        shapes += [tuple(int(v) for v in rng.integers(1, 40, 3)) for _ in range(20)]
        # m x n = 150 x 1000, and 301 x 301 in the self case: several row tiles, the last one ragged
        for m, n in ((150, 1000), (301, 301)):
            rows = _tile_rows(n, m)
            assert rows < m and m % rows
        shapes += [(3, 150, 1000), (2, 301, 5)]
        cases = []
        for D, m, n in shapes:
            scale = 10.0 ** rng.uniform(-3, 3)
            points = rng.standard_normal((D, m)) * scale
            cases.append((points, rng.standard_normal((D, n)) * scale + rng.uniform(-5, 5)))
        edges = [
            np.array([[0.0, -0.0, 0.0, -0.0, 1.0], [-0.0, 0.0, -1.0, 1.0, -0.0]]),
            rng.integers(-5, 6, (3, 9)) * np.finfo(np.float64).smallest_subnormal,
            rng.standard_normal((3, 9)) * 1e-308,  # normal and subnormal, differences underflow
            rng.standard_normal((4, 12)) * 1e150,
            rng.standard_normal((4, 12)) * 1e-150,
            rng.standard_normal((4, 12)) * 10.0 ** rng.choice([-150, 0, 150], (4, 12)),
            np.repeat(rng.standard_normal((5, 1)), 7, axis=1),  # equal columns
        ]
        cases += [(points, points[:, ::-1] * 0.5) for points in edges]
        big = rng.standard_normal((9, 40)) * 1e3
        cases += [
            (big[::2, 1::3], big[4:, ::2]),
            (big[:4, ::-1], big[5:, 3:]),
            (big.T[5:25].T[:3], big[6:, ::5]),  # a transposed view
        ]
        for points, others in cases:
            np.testing.assert_array_equal(
                pairwise_sq_distances(points, others), self.broadcast_reference(points, others)
            )
            np.testing.assert_array_equal(
                pairwise_sq_distances(points), self.broadcast_reference(points, points)
            )
            # the feature-order sum does not depend on memory layout
            np.testing.assert_array_equal(
                pairwise_sq_distances(np.asfortranarray(points), np.asfortranarray(others)),
                pairwise_sq_distances(points, others),
            )

    def test_self_case_exactly_symmetric_with_zero_diagonal(self):
        rng = np.random.default_rng(42)
        for D, n in [(1, 1), (1, 6), (4, 25), (60, 40)]:
            M = pairwise_sq_distances(rng.standard_normal((D, n)) * 1e3)
            np.testing.assert_array_equal(M, M.T)
            assert np.all(np.diag(M) == 0.0)

    def test_feature_count_mismatch_rejected(self):
        with pytest.raises(ValueError):
            pairwise_sq_distances(np.zeros((3, 4)), np.zeros((2, 4)))

    def test_memory_is_order_m_times_n(self, traced_peak):
        """At D=180, m=240, n=300 one D x m x n tensor would be ~99 MB; m x n is 0.58 MB."""
        rng = np.random.default_rng(43)
        D, m, n = 180, 240, 300
        train = rng.random((D, n))
        test = rng.random((D, m))
        train /= train.sum(axis=0)
        test /= test.sum(axis=0)
        labels = rng.integers(0, 4, n)
        model = diffusion_map.fit(train, DiffusionConfig(embed_dim=3))
        calls = {
            "pairwise_sq_distances": (lambda: pairwise_sq_distances(test, train), 3),
            "knn_predict": (lambda: knn_predict((train, labels), test, KnnConfig(k=3)), 4),
            "extend": (lambda: diffusion_map.extend(model, test), 4),
            "fit": (lambda: diffusion_map.fit(train, DiffusionConfig(embed_dim=3)), 4),
        }
        for name, (call, multiple) in calls.items():
            peak = traced_peak(call)
            assert peak < multiple * m * n * 8, f"{name} peaked at {peak / 1e6:.1f} MB"


class TestObjective:
    def test_all_zero_distances(self):
        labels = np.array([0, 0, 1, 1])
        value = objective(np.zeros((4, 4)), labels, 1.0, 0.5, (1.0, 1.0))
        assert value == pytest.approx(-2.0, abs=1e-12)

    def test_huge_distances_vanish(self):
        labels = np.array([0, 0, 1, 1])
        M = np.full((4, 4), 1e8)
        np.fill_diagonal(M, 0.0)
        assert objective(M, labels, 1.0, 0.5, (1.0, 1.0)) == pytest.approx(0.0, abs=1e-12)

    def test_matches_double_loop_oracle(self):
        rng = np.random.default_rng(12)
        for _ in range(5):
            X, labels, K = random_instance(rng)
            M = pairwise_sq_distances(X)
            lam = rng.uniform(0.5, 2.0, K)
            expected = objective_oracle(M, labels, 1.3, 0.35, lam)
            value = objective(M, labels, 1.3, 0.35, lam)
            assert value == pytest.approx(expected, abs=1e-12 * (1 + abs(expected)))


class TestUpdateDistances:
    def make_model(self, D, d, rng):
        q, _ = np.linalg.qr(rng.standard_normal((D, D)))
        return ProjectionModel(
            matrix=q[:, :d],
            kind="pca",
            dim_in=D,
            dim_out=d,
            eigenvalues=np.arange(d, 0, -1, dtype=float),
        )

    def test_full_step_reproduces_projected_distances(self):
        rng = np.random.default_rng(3)
        X = rng.standard_normal((4, 6))
        model = self.make_model(4, 2, rng)
        M = pairwise_sq_distances(X)
        updated = update_distances(M, model.matrix, X, 1.0)
        np.testing.assert_array_equal(updated, pairwise_sq_distances(model.matrix.T @ X))

    def test_damped_step_arithmetic(self):
        X = np.array([[0.0, math.sqrt(2.0)]])
        model = ProjectionModel(
            matrix=np.array([[1.0]]), kind="pca", dim_in=1, dim_out=1, eigenvalues=np.array([1.0])
        )
        M = np.array([[0.0, 4.0], [4.0, 0.0]])
        updated = update_distances(M, model.matrix, X, 0.1)
        assert updated[0, 1] == pytest.approx(3.8, abs=1e-12)

    def test_fixed_point(self):
        rng = np.random.default_rng(9)
        X = rng.standard_normal((3, 5))
        model = self.make_model(3, 2, rng)
        M = pairwise_sq_distances(model.matrix.T @ X)
        np.testing.assert_array_equal(update_distances(M.copy(), model.matrix, X, 0.3), M)

    def test_convex_combination_bounds(self):
        rng = np.random.default_rng(10)
        X = rng.standard_normal((5, 7))
        model = self.make_model(5, 3, rng)
        M = pairwise_sq_distances(X) * rng.uniform(0.5, 2.0)
        target = pairwise_sq_distances(model.matrix.T @ X)
        updated = update_distances(M.copy(), model.matrix, X, 0.4)
        low = np.minimum(M, target) - 1e-12
        high = np.maximum(M, target) + 1e-12
        assert np.all(updated >= low) and np.all(updated <= high)

    def test_tiled_in_place_update_matches_whole_matrix_arithmetic(self):
        rng = np.random.default_rng(11)
        n = 301
        rows = _tile_rows(n, n // 2)
        assert n // rows >= 2 and n % rows != 0  # at least 3 tiles, the last one ragged
        X = rng.standard_normal((6, n))
        model = self.make_model(6, 3, rng)
        M0 = pairwise_sq_distances(X) * 0.7
        for eta in (0.1, 0.37, 1.0):
            expected = pairwise_sq_distances(model.matrix.T @ X)
            if eta < 1.0:
                expected -= M0
                expected *= eta
                expected += M0
            M = M0.copy()
            updated = update_distances(M, model.matrix, X, eta)
            assert updated is M
            assert np.array_equal(M, expected)
            assert np.array_equal(M, M.T) and np.all(np.diag(M) == 0.0)

    def test_update_holds_one_tile_and_its_scratch(self, traced_peak):
        """Beyond M, two tiles of at most n // 2 rows: each tile's target is freed before the next."""
        rng = np.random.default_rng(12)
        n = 301
        rows = _tile_rows(n, n // 2)
        assert n // rows >= 2 and n % rows != 0  # at least 3 tiles, the last one ragged
        X = rng.standard_normal((6, n))
        model = self.make_model(6, 3, rng)
        M = pairwise_sq_distances(X)
        peak = traced_peak(lambda: update_distances(M, model.matrix, X, 0.37))
        assert peak < 1.25 * n * n * 8, f"update peaked at {peak / (n * n * 8):.2f} n^2 floats"


class TestFit:
    @pytest.mark.parametrize("value", [2.7, 1.9, "2", 0])
    def test_target_dim_must_be_positive_integer(self, value):
        with pytest.raises(DataError, match="target_dim must be a positive integer"):
            SklpConfig(target_dim=value)
        with pytest.raises(DataError, match="target_dim must be a positive integer"):
            output_dim(value, 4, 6, 80)

    @pytest.mark.parametrize("value", [0, -1.0, math.nan, math.inf, 1e-200, 1e200, "abc", "2.5", None])
    def test_unusable_bandwidth_rejected(self, value):
        with pytest.raises(DataError, match=f"kernel_bandwidth must be 'auto' or a number .*, got {re.escape(repr(value))}"):
            SklpConfig(kernel_bandwidth=value)

    @pytest.mark.parametrize("value", [1e-150, 2, np.float32(0.5), 1e150])
    def test_bandwidth_kept_as_given(self, value):
        assert SklpConfig(kernel_bandwidth=value).kernel_bandwidth is value
        assert bandwidth(None, value) == float(value)

    @pytest.mark.parametrize("M", [np.zeros((3, 3)), np.full((3, 3), np.inf), np.full((3, 3), 1e-310)])
    def test_unusable_median_bandwidth_says_rescale(self, M):
        # squared distances of 1e-310 give sigma^2 = 1e-310, positive but below the smallest normal float
        with pytest.raises(NumericalError, match=r"sigma\^2 outside \[2\.2e-308, inf\): rescale the features"):
            bandwidth(M, "auto")

    @pytest.mark.parametrize("value", [0.0, -1e-6, math.nan, math.inf])
    def test_rel_tolerance_must_be_positive(self, value):
        with pytest.raises(DataError, match="rel_tolerance must be positive"):
            SklpConfig(rel_tolerance=value)

    def test_fractional_max_iters_rejected(self):
        with pytest.raises(DataError, match="max_iters must be a positive integer"):
            SklpConfig(max_iters=2.5)

    def test_integral_float_target_dim_becomes_int(self):
        data = gen_gaussian_classes(4, 20, 6, 1.0, 5.0, seed=0)
        config = SklpConfig(rho=0.6, target_dim=2.0, max_iters=3.0)
        assert type(config.target_dim) is int and type(config.max_iters) is int
        model, _ = fit(data, config)
        assert model.dim_out == 2
        assert type(model.config["target_dim"]) is int and model.config["target_dim"] == 2

    def test_projection_helps_separated_classes(self):
        wins = 0
        for seed in range(10):
            data = gen_gaussian_classes(2, 30, 8, spread=1.0, separation=10.0, seed=seed)
            train = np.arange(data.sample_count) % 2 == 0
            train_set = LabeledDataset(
                features=data.features[:, train],
                labels=data.labels[train],
                class_count=2,
            )
            model, _ = fit(train_set, SklpConfig(target_dim=1))
            raw = knn_oracle(
                data.features[:, train], data.labels[train], data.features[:, ~train], 1
            )
            proj_train = project(model, data.features[:, train])
            proj_test = project(model, data.features[:, ~train])
            projected = knn_oracle(proj_train, data.labels[train], proj_test, 1)
            truth = data.labels[~train]
            if (projected == truth).mean() >= (raw == truth).mean():
                wins += 1
        assert wins == 10

    def test_rayleigh_optimality_each_iteration(self):
        rng = np.random.default_rng(0)
        data = gen_gaussian_classes(3, 10, 5, 1.0, 6.0, seed=1)
        config = SklpConfig(rho=0.5)
        state = init_state(data, config)
        moments = class_moments(data.features, data.labels, data.class_count)
        d = 2
        for _ in range(5):
            m_c, m_o = kernel_averages(state.M, data.labels, state.sigma)
            W = alpha_weights(m_c, m_o, config.rho, state.class_weights)
            A = scatter_matrix(moments, W)
            _, P = solve_eig(A, d)
            best = np.trace(P.T @ A @ P)
            for _ in range(25):
                q, _ = np.linalg.qr(rng.standard_normal((5, P.shape[1])))
                assert best >= np.trace(q.T @ A @ q) - 1e-9
            state.M = update_distances(state.M, P, data.features, config.learning_rate)

    def test_fused_loop_matches_public_stages(self):
        """fit's loop is bit for bit the public stages run by hand."""
        data = gen_ring_classes(7, 43, 0.4, 12, 5)
        config = SklpConfig(rho=0.6, max_iters=8, rel_tolerance=1e-300)
        model, fitted = fit(data, config)
        assert data.sample_count == 301 and fitted.iteration == 8
        state = init_state(data, config)
        d = output_dim(config.target_dim, data.class_count, data.dim, data.sample_count)
        best_matrix = state.best_matrix
        moments = class_moments(data.features, data.labels, data.class_count)
        for _ in range(config.max_iters):
            m_c, m_o = kernel_averages(state.M, data.labels, state.sigma)
            W = alpha_weights(m_c, m_o, config.rho, state.class_weights)
            A = scatter_matrix(moments, W)
            _, P = solve_eig(A, d)
            state.M = update_distances(state.M, P, data.features, config.learning_rate)
            J = objective(state.M, data.labels, state.sigma, config.rho, state.class_weights)
            if J > max(state.objective_history):
                best_matrix = P
            state.objective_history.append(J)
        assert fitted.objective_history == state.objective_history
        assert np.array_equal(fitted.M, state.M)
        assert np.array_equal(fitted.best_matrix, best_matrix)
        assert np.array_equal(model.matrix, best_matrix)
        # the state's kernel averages are those of its final M, as the next iteration would use
        m_c, m_o = kernel_averages(fitted.M, data.labels, fitted.sigma)
        assert np.array_equal(fitted.m_c, m_c) and fitted.m_o == m_o

    def test_fit_peak_is_distances_plus_bandwidth_half_copy(self, traced_peak):
        """M, plus at init the bandwidth median's copy of M's upper half.

        The distance update and the kernel sums work in row tiles, so no
        second n x n array is made.
        """
        data = gen_ring_classes(5, 120, 0.4, 60, 1)
        n = data.sample_count
        assert (n, data.dim, data.class_count) == (600, 60, 5)
        peak = traced_peak(lambda: fit(data, SklpConfig(rho=0.6, max_iters=5, rel_tolerance=1e-300)))
        assert peak < 1.6 * n * n * 8, f"fit peaked at {peak / (n * n * 8):.2f} n^2 floats"

    def test_degenerate_scatter_names_iteration_and_rho(self):
        data = gen_ring_classes(4, 150, 0.4, 60, 0)
        with pytest.raises(NumericalError, match=r"iteration 1 with rho=0\.1: .*larger rho"):
            fit(data)

    @pytest.mark.parametrize("make", [lambda seed: gen_ring_classes(4, 150, 0.4, 60, seed),
                                      lambda seed: gen_gaussian_classes(3, 100, 20, 1.0, 4.0, seed)],
                             ids=["rings", "gaussians"])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_degenerate_scatter_names_the_smallest_rho_that_works(self, make, seed):
        """At the default rho the first scatter has no positive eigenvalue. The message names the
        smallest rho (to 4 decimals) that gives it one: 1e-4 less still fails there, and 1.05 times
        it fits to the end."""
        data = make(seed)
        with pytest.raises(NumericalError, match=r"iteration 1 with rho=0\.1: .*rho >= (0\.\d+) gives") as failure:
            fit(data)
        rho = float(re.search(r"rho >= (0\.\d+)", str(failure.value)).group(1))
        with pytest.raises(NumericalError, match=r"iteration 1 with rho="):
            fit(data, SklpConfig(rho=rho - 1e-4))
        model, state = fit(data, SklpConfig(rho=1.05 * rho))
        assert state.iteration > 1 and np.all(model.eigenvalues > 0)

    def test_no_rho_is_named_when_even_the_inter_class_scatter_is_below_the_floor(self):
        data = gen_gaussian_classes(3, 2, 20, 1.0, 4.0, seed=0)
        state = init_state(data, SklpConfig())
        tiny = class_moments(1e-8 * data.features, data.labels, data.class_count)
        assert _smallest_admissible_rho(class_moments(data.features, data.labels, data.class_count), state, 0.1)
        assert _smallest_admissible_rho(tiny, state, 0.1) is None

    def test_single_iteration_contract(self):
        data = gen_gaussian_classes(3, 15, 6, 1.0, 8.0, seed=4)
        model, state = fit(data, SklpConfig(max_iters=1))
        assert state.iteration == 1
        assert len(state.objective_history) == 2
        gram = model.matrix.T @ model.matrix
        np.testing.assert_allclose(gram, np.eye(model.dim_out), atol=1e-10)

    def test_best_objective_is_history_max(self):
        data = gen_gaussian_classes(3, 20, 6, 1.0, 6.0, seed=2)
        _, state = fit(data, SklpConfig(rho=0.5, max_iters=25))
        assert state.objective_history[state.best_index] == max(state.objective_history)

    def test_determinism(self):
        data = gen_gaussian_classes(3, 18, 5, 1.0, 5.0, seed=6)
        m1, s1 = fit(data, SklpConfig(rho=0.5, max_iters=20))
        m2, s2 = fit(data, SklpConfig(rho=0.5, max_iters=20))
        assert np.array_equal(m1.matrix, m2.matrix)
        assert s1.objective_history == s2.objective_history

    def test_predicted_increment_recorded_per_iteration(self):
        data = gen_gaussian_classes(2, 12, 4, 1.0, 7.0, seed=3)
        _, state = fit(data, SklpConfig(max_iters=10))
        assert len(state.predicted_increments) == state.iteration
        labels = data.labels
        n_k = np.bincount(labels) * (np.bincount(labels) - 1)
        n_o = len(labels) * (len(labels) - 1) - n_k.sum()
        constant = 0.9 * float(np.sum(state.class_weights * n_k)) - 0.1 * n_o
        expected = float(state.eigenvalue_history[1].sum()) + constant
        assert state.predicted_increments[0] == pytest.approx(expected, rel=1e-12)


CONTRACT_CASES = {
    "rings-eta0.1": (lambda: gen_ring_classes(4, 30, 0.4, 12, 0), SklpConfig(rho=0.6)),
    "rings-eta1": (lambda: gen_ring_classes(3, 40, 0.3, 8, 1), SklpConfig(rho=0.5, learning_rate=1.0)),
    "rings-fixed-sigma": (
        lambda: gen_ring_classes(4, 25, 0.4, 20, 2),
        SklpConfig(rho=0.7, learning_rate=0.37, kernel_bandwidth=1.5),
    ),
    "gaussian-d2": (lambda: gen_gaussian_classes(3, 40, 10, 1.0, 4.0, 3), SklpConfig(rho=0.5, target_dim=2)),
    "gaussian-k5": (lambda: gen_gaussian_classes(5, 20, 6, 1.0, 5.0, 4), SklpConfig(rho=0.6, max_iters=30)),
    "three-points": (
        lambda: dataset_from([[0.0, 1.0, 3.0], [0.5, -1.0, 2.0]], [0, 0, 1]),
        SklpConfig(rho=0.5),
    ),
}


@pytest.mark.parametrize("case", sorted(CONTRACT_CASES))
def test_fit_meets_tolerance_contract_against_direct_formulas(case):
    """The README's contract: the same iterations and best iterate, objectives
    within 1e-12 (|J| + 1), the kept directions within 1e-10."""
    make, config = CONTRACT_CASES[case]
    data = make()
    assert data.sample_count <= 120
    model, state = fit(data, config)
    expected = sklp_fit_oracle(data, config)
    assert (state.iteration, state.best_index) == (expected["iteration"], expected["best_index"])
    history = np.array(expected["objective_history"])
    deviation = np.abs(np.array(state.objective_history) - history) / (np.abs(history) + 1.0)
    assert np.max(deviation) <= 1e-12
    assert model.matrix.shape == expected["matrix"].shape
    assert np.max(np.abs(model.matrix - expected["matrix"])) <= 1e-10


class TestProject:
    def test_coordinate_selection(self):
        model = ProjectionModel(
            matrix=np.eye(3)[:, :2],
            kind="sklp",
            dim_in=3,
            dim_out=2,
            eigenvalues=np.array([2.0, 1.0]),
        )
        X = np.arange(12, dtype=float).reshape(3, 4)
        np.testing.assert_array_equal(project(model, X), X[:2])

    def test_zero_input(self):
        model = ProjectionModel(
            matrix=np.eye(4)[:, :2],
            kind="sklp",
            dim_in=4,
            dim_out=2,
            eigenvalues=np.array([2.0, 1.0]),
        )
        assert np.max(np.abs(project(model, np.zeros((4, 3))))) == 0.0

    def test_projected_distances_match_quadratic_form(self):
        rng = np.random.default_rng(13)
        q, _ = np.linalg.qr(rng.standard_normal((6, 3)))
        model = ProjectionModel(
            matrix=q, kind="sklp", dim_in=6, dim_out=3, eigenvalues=np.array([3.0, 2.0, 1.0])
        )
        X = rng.standard_normal((6, 8))
        projected = project(model, X)
        for i in range(8):
            for j in range(8):
                z = X[:, i] - X[:, j]
                expected = float(z @ q @ q.T @ z)
                actual = float(np.sum((projected[:, i] - projected[:, j]) ** 2))
                assert abs(actual - expected) <= 1e-10 * (1 + expected)

    def test_dimension_mismatch(self):
        model = ProjectionModel(
            matrix=np.eye(3)[:, :1], kind="sklp", dim_in=3, dim_out=1, eigenvalues=np.array([1.0])
        )
        with pytest.raises(DataError):
            project(model, np.zeros((4, 2)))


class TestInvariants:
    def test_log_mean_identity_over_random_states(self):
        rng = np.random.default_rng(21)
        for _ in range(20):
            X, labels, K = random_instance(rng)
            M = pairwise_sq_distances(X)
            sigma = 1.0 + rng.uniform(0, 2)
            m_c, m_o = kernel_averages(M, labels, sigma)
            kernels = np.exp(-M / sigma**2)
            np.fill_diagonal(kernels, 0.0)
            counts = np.bincount(labels, minlength=K)
            n_k = counts * (counts - 1)
            for k in range(K):
                members = labels == k
                direct = kernels[np.ix_(members, members)].sum()
                recon = -n_k[k] * math.log(m_c[k])
                assert abs(recon - direct) <= 1e-10 * (1 + abs(direct))

    def test_default_class_weights_balance_pair_counts(self):
        labels = np.array([0, 0, 0, 1, 1, 2])
        weights = default_class_weights(labels, 3)
        counts = np.bincount(labels)
        n_k = counts * (counts - 1)
        n_o = 30 - n_k.sum()
        np.testing.assert_allclose(weights[:2], n_o / (3 * n_k[:2]))

    def test_single_class_has_no_inter_class_pairs(self):
        labels = np.zeros(4, dtype=np.int64)
        M = pairwise_sq_distances(np.arange(8.0).reshape(2, 4))
        message = "no inter-class pairs: need at least 2 classes"
        with pytest.raises(NumericalError, match=message):
            kernel_averages(M, labels, 1.0)
        with pytest.raises(NumericalError, match=message):
            objective(M, labels, 1.0, 0.5, [1.0])
        with pytest.raises(NumericalError, match=message):
            default_class_weights(labels, 1)


class TestSerialization:
    def test_round_trip_exact(self, tmp_path):
        data = gen_gaussian_classes(3, 15, 6, 1.0, 6.0, seed=5)
        model, _ = fit(data, SklpConfig(rho=0.5, max_iters=5))
        path = tmp_path / "model.json"
        save_model(model, path)
        loaded = load_model(path)
        assert np.array_equal(loaded.matrix, model.matrix)
        assert np.array_equal(loaded.eigenvalues, model.eigenvalues)
        assert loaded.kind == model.kind
        assert loaded.config == model.config

    def test_missing_field_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"kind": "sklp"}')
        with pytest.raises(DataError, match="missing field"):
            load_model(path)

    @pytest.mark.parametrize(
        "text",
        [
            "3",
            '{"kind": "pca", "dim_in": "x", "dim_out": 1, "matrix": [[1.0], [0.0]], "eigenvalues": [1.0]}',
            '{"kind": "pca", "dim_in": Infinity, "dim_out": 1, "matrix": [[1.0], [0.0]], "eigenvalues": [1.0]}',
            '{"kind": "pca", "dim_in": 2, "dim_out": 1, "matrix": "abc", "eigenvalues": [1.0]}',
            '{"kind": "pca", "dim_in": 2, "dim_out": 1, "matrix": [[NaN], [0.0]], "eigenvalues": [1.0]}',
            '{"kind": "pca", "dim_in": 2, "dim_out": 1, "matrix": [[1.0], [0.0]], "eigenvalues": [1.0], "mean": 0}',
        ],
        ids=["not-an-object", "text-dim", "infinite-dim", "text-matrix", "nan-matrix", "scalar-mean"],
    )
    def test_malformed_file_named_in_error(self, tmp_path, text):
        path = tmp_path / "bad-model.json"
        path.write_text(text)
        with pytest.raises(DataError, match="bad-model.json"):
            load_model(path)

    @pytest.mark.parametrize("field, value", [("dim_in", 2.7), ("dim_out", 1.9)])
    def test_non_integral_dimension_rejected(self, tmp_path, field, value):
        payload = {"kind": "pca", "dim_in": 2, "dim_out": 1, "matrix": [[1.0], [0.0]], "eigenvalues": [1.0]}
        path = tmp_path / "frac-model.json"
        path.write_text(json.dumps({**payload, field: value}))
        message = f"frac-model.json: malformed model file: {field} must be a positive integer, got {value}"
        with pytest.raises(DataError, match=message):
            load_model(path)
        path.write_text(json.dumps({**payload, field: float(payload[field])}))
        assert getattr(load_model(path), field) == payload[field]

    @pytest.mark.parametrize("change, error, message", [
        ({"kind": "ica"}, DataError, "malformed model file: unknown model kind 'ica'"),
        ({"dim_in": 3}, DataError, "malformed model file: matrix shape does not match dim_in x dim_out"),
        ({"eigenvalues": [2.0, 1.0]}, DataError, "malformed model file: eigenvalues length must equal dim_out"),
        ({"dim_out": 2, "matrix": [[1.0, 0.0], [0.0, 1.0]], "eigenvalues": [1.0, 2.0]}, NumericalError,
         "eigenvalues must be sorted descending"),
        ({"kind": "sklp", "eigenvalues": [0.0]}, NumericalError, "sklp retains only positive eigenvalues"),
    ], ids=["unknown-kind", "matrix-shape", "eigenvalue-count", "unsorted-eigenvalues", "sklp-zero-eigenvalue"])
    def test_inconsistent_model_file_rejected(self, tmp_path, change, error, message):
        payload = {"kind": "pca", "dim_in": 2, "dim_out": 1, "matrix": [[1.0], [0.0]], "eigenvalues": [1.0]}
        path = tmp_path / "odd-model.json"
        path.write_text(json.dumps({**payload, **change}))
        with pytest.raises(error) as excinfo:
            load_model(path)
        assert str(excinfo.value) == f"{path}: {message}"

    @pytest.mark.parametrize("field", ["matrix", "eigenvalues", "mean"])
    def test_non_finite_entries_rejected(self, field):
        parts = {"matrix": np.eye(2)[:, :1], "eigenvalues": np.array([1.0]), "mean": np.zeros(2)}
        parts[field] = np.full_like(parts[field], np.nan)
        with pytest.raises(DataError, match="finite"):
            ProjectionModel(kind="pca", dim_in=2, dim_out=1, **parts)

    def test_mean_round_trip(self, tmp_path):
        rng = np.random.default_rng(14)
        q, _ = np.linalg.qr(rng.standard_normal((4, 2)))
        model = ProjectionModel(
            matrix=q,
            kind="pca",
            dim_in=4,
            dim_out=2,
            eigenvalues=np.array([2.0, 1.0]),
            mean=rng.standard_normal(4),
        )
        path = tmp_path / "pca.json"
        save_model(model, path)
        loaded = load_model(path)
        assert np.array_equal(loaded.mean, model.mean)
