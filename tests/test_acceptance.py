"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines. Criteria 5 and 6 share their fitted sweeps with criterion 7 through
module-scoped fixtures.
"""

import math
import time

import numpy as np
import pytest

from sklpdm import (
    DiffusionConfig,
    KnnConfig,
    LabeledDataset,
    PipelineConfig,
    SilhouetteImage,
    SklpConfig,
    SvmConfig,
    alpha_weights,
    class_moments,
    confusion,
    cross_validate_actions,
    gen_gaussian_classes,
    gen_ring_classes,
    init_state,
    kernel_averages,
    knn_predict,
    load_csv,
    load_model,
    objective,
    pca_fit,
    r_transform,
    radon,
    save_csv,
    save_model,
    scatter_matrix,
    solve_eig,
    svm_fit,
    svm_predict,
    update_distances,
    video_majority_vote,
    with_groups,
)
from sklpdm import baselines, diffusion_map, sklp_projection
from sklpdm.cli import run as cli_run
from sklpdm.sklp_projection import pairwise_sq_distances

from oracles import (
    confusion_oracle,
    kernel_averages_oracle,
    knn_oracle,
    objective_oracle,
    r_transform_oracle,
    radon_oracle,
    row_normalized,
    scatter_oracle,
    vote_oracle,
)

# the spec's default inter/intra balance suits widely separated classes; the
# overlapping desk-scale geometries below need the inter-class term weighted
# at least as strongly as the intra term for the scatter to keep positive
# directions, so the acceptance sweeps pin rho = 0.6 explicitly
SWEEP_RHO = 0.6


def ok(criterion, detail):
    print(f"ACCEPTANCE criterion {criterion}: PASS ({detail})")


def random_labeled_instance(rng, n_max=50, d_max=10, k_max=4):
    K = int(rng.integers(2, k_max + 1))
    n = int(rng.integers(2 * K, n_max + 1))
    D = int(rng.integers(2, d_max + 1))
    labels = np.concatenate([np.repeat(np.arange(K), 2), rng.integers(0, K, n - 2 * K)])
    rng.shuffle(labels)
    X = rng.standard_normal((D, n))
    return X, labels, K


def test_criterion_1_algebraic_identities():
    started = time.monotonic()
    rng = np.random.default_rng(101)
    for _ in range(200):
        X, labels, K = random_labeled_instance(rng)
        sigma = float(rng.uniform(0.5, 3.0))
        rho = float(rng.uniform(0.1, 0.9))
        weights = rng.uniform(0.5, 3.0, K)
        M = pairwise_sq_distances(X)

        # log-mean identity at 1e-10 relative
        m_c, m_o = kernel_averages(M, labels, sigma)
        kernels = np.exp(-M / sigma**2)
        np.fill_diagonal(kernels, 0.0)
        counts = np.bincount(labels, minlength=K)
        n_k = counts * (counts - 1)
        n_o = len(labels) * (len(labels) - 1) - n_k.sum()
        for k in range(K):
            direct = kernels[np.ix_(labels == k, labels == k)].sum()
            recon = -float(n_k[k]) * math.log(m_c[k])
            assert abs(recon - direct) <= 1e-10 * (abs(direct) + 1.0)
        inter = kernels[labels[:, None] != labels[None, :]].sum()
        assert abs(-n_o * math.log(m_o) - inter) <= 1e-10 * (abs(inter) + 1.0)

        # class-sum scatter equals the direct ordered-pair sum at 1e-9 relative
        W = alpha_weights(m_c, m_o, rho, weights)
        alpha = W[labels][:, labels]
        assembled = scatter_matrix(class_moments(X, labels, K), W)
        direct_sum = scatter_oracle(X, alpha)
        scale = np.linalg.norm(direct_sum) + 1e-30
        assert np.max(np.abs(assembled - direct_sum)) <= 1e-9 * scale

        # sign pattern exact; every inter-class pair carries the same weight
        same = labels[:, None] == labels[None, :]
        off = ~np.eye(len(labels), dtype=bool)
        assert np.all(alpha[same & off] < 0)
        assert np.all(alpha[~same] > 0)
        assert np.all(W[~np.eye(K, dtype=bool)] == W[0, 1])
    elapsed = time.monotonic() - started
    assert elapsed < 30.0
    ok(1, f"200 instances, identities/signs verified in {elapsed:.1f}s")


def _eigen_contract(matrix, eigenvalues, operator):
    gram = matrix.T @ matrix
    assert np.max(np.abs(gram - np.eye(matrix.shape[1]))) <= 1e-10
    norm = np.linalg.norm(operator, 2)
    residual = operator @ matrix - matrix * eigenvalues[None, :]
    assert np.max(np.abs(residual)) <= 1e-8 * (norm + 1.0)
    assert np.all(np.diff(eigenvalues) <= 1e-12)


def _rayleigh_beats_random(matrix, operator, rng, competitors=100):
    achieved = np.trace(matrix.T @ operator @ matrix)
    for _ in range(competitors):
        q, _ = np.linalg.qr(rng.standard_normal(matrix.shape))
        assert achieved >= np.trace(q.T @ operator @ q) - 1e-9 * (abs(achieved) + 1.0)


def test_criterion_2_eigen_solution_contract(ring_sweep, blob_sweep):
    rng = np.random.default_rng(202)
    fits = 0
    # every projection fit of the criterion-5/6 sweeps: the returned
    # directions must solve their recorded scatter
    for state in ring_sweep["states"] + blob_sweep["states"]:
        if state.best_scatter is None:
            continue  # best iterate was the initialization
        _eigen_contract(
            state.best_matrix, state.eigenvalue_history[state.best_index], state.best_scatter
        )
        _rayleigh_beats_random(state.best_matrix, state.best_scatter, rng)
        fits += 1
    for trial in range(5):
        data = gen_gaussian_classes(3, 15, 8, 1.0, 6.0, seed=trial)
        config = SklpConfig(rho=SWEEP_RHO)
        state = init_state(data, config)
        moments = class_moments(data.features, data.labels, data.class_count)
        for _ in range(4):  # every iteration of the manual loop
            m_c, m_o = kernel_averages(state.M, data.labels, state.sigma)
            W = alpha_weights(m_c, m_o, config.rho, state.class_weights)
            A = scatter_matrix(moments, W)
            values, P = solve_eig(A, 2)
            _eigen_contract(P, values, A)
            assert np.all(values > 0)
            _rayleigh_beats_random(P, A, rng)
            state.M = update_distances(state.M, P, data.features, config.learning_rate)
            fits += 1

        pca = pca_fit(data, 3)
        centered = data.features - pca.mean[:, None]
        covariance = centered @ centered.T / (data.sample_count - 1)
        _eigen_contract(pca.matrix, pca.eigenvalues, covariance)
        _rayleigh_beats_random(pca.matrix, covariance, rng)
        fits += 1

        lda = baselines.lda_fit(data, 2)
        discriminant = _lda_operator(data)
        _eigen_contract(lda.matrix, lda.eigenvalues, discriminant)
        _rayleigh_beats_random(lda.matrix, discriminant, rng)
        fits += 1
    ok(2, f"orthonormality/residual/ordering/Rayleigh on {fits} fits, 100 competitors each")


def _lda_operator(data):
    X, labels = data.features, data.labels
    D = X.shape[0]
    S_w = np.zeros((D, D))
    S_b = np.zeros((D, D))
    overall = X.mean(axis=1)
    for k in range(data.class_count):
        members = X[:, labels == k]
        mu = members.mean(axis=1)
        centered = members - mu[:, None]
        S_w += centered @ centered.T
        S_b += members.shape[1] * np.outer(mu - overall, mu - overall)
    gamma = 1e-6 * np.trace(S_w) / D
    values, vectors = np.linalg.eigh(S_w + gamma * np.eye(D))
    whiten = vectors @ np.diag(1.0 / np.sqrt(values)) @ vectors.T
    operator = whiten @ S_b @ whiten
    return (operator + operator.T) / 2.0


def test_criterion_3_diffusion_contract():
    rng = np.random.default_rng(303)
    X = np.hstack([rng.normal(0, 1.0, (3, 20)), rng.normal(5, 1.0, (3, 20))])
    config = DiffusionConfig(bandwidth=2.5, embed_dim=3)
    model = diffusion_map.fit(X, config)

    T = row_normalized(diffusion_map.affinity(X, 2.5))
    assert np.max(np.abs(T.sum(axis=1) - 1.0)) <= 1e-12
    assert abs(model.eigenvalues[0] - 1.0) <= 1e-8
    lead = model.eigenvectors[:, 0]
    assert np.max(np.abs(lead - lead[0])) <= 1e-8

    rotation, _ = np.linalg.qr(rng.standard_normal((3, 3)))
    moved = rotation @ X + rng.standard_normal((3, 1))
    model_moved = diffusion_map.fit(moved, config)
    for col in range(3):
        a = model.embedding[:, col]
        b = model_moved.embedding[:, col]
        assert min(np.max(np.abs(a - b)), np.max(np.abs(a + b))) <= 1e-8

    longer = diffusion_map.fit(X, DiffusionConfig(bandwidth=2.5, embed_dim=3, time=3))
    lam = model.eigenvalues[1:]
    assert np.max(np.abs(longer.embedding - model.embedding * (lam**2)[None, :])) <= 1e-10
    ok(3, "row-stochastic, unit leading pair, rigid-motion and time-scaling laws")


def test_criterion_4_angle_profile_contract():
    rng = np.random.default_rng(404)
    angle_bins = 14
    for _ in range(100):
        H = int(rng.integers(6, 15))
        W = int(rng.integers(6, 15))
        pixels = (rng.random((H, W)) < 0.35).astype(np.uint8)
        if pixels.sum() == 0:
            pixels[H // 2, W // 2] = 1
        sinogram = radon(SilhouetteImage(pixels), angle_bins)
        np.testing.assert_array_equal(
            sinogram.sum(axis=0), np.full(angle_bins, float(pixels.sum()))
        )
        profile = r_transform(sinogram)
        assert abs(profile.sum() - 1.0) <= 1e-12

    base = np.zeros((14, 14), dtype=np.uint8)
    base[3:8, 4:9] = (rng.random((5, 5)) < 0.6).astype(np.uint8)
    base[5, 6] = 1
    reference = r_transform(radon(SilhouetteImage(base), angle_bins))
    for di, dj in ((1, 0), (0, 1), (3, 2), (-3, 4), (6, -4), (2, 5)):
        shifted = np.roll(np.roll(base, di, axis=0), dj, axis=1)
        moved = r_transform(radon(SilhouetteImage(shifted), angle_bins))
        np.testing.assert_array_equal(moved, reference)

    single = np.zeros((9, 9), dtype=np.uint8)
    single[4, 4] = 1
    uniform = r_transform(radon(SilhouetteImage(single), angle_bins))
    assert np.all(uniform == 1.0 / angle_bins)
    ok(4, "unit sums, exact shift invariance, exact mass conservation, uniform single pixel")


# ---------------------------------------------------------------------------
# criteria 5-7: desk-scale sweeps (shared fixtures)

RING_SEEDS = range(10)
BLOB_SEEDS = range(10)


def _ring_dataset(seed):
    # noise 0.4 against unit ring gaps: hard enough that frame-level errors
    # survive video voting, so the projection's contribution is visible
    data = gen_ring_classes(3, 60, noise=0.4, ambient_dim=10, seed=seed)
    return with_groups(data, 6)


@pytest.fixture(scope="module")
def ring_sweep():
    """Leave-one-group-out accuracies for the dm and sklp+dm arms, plus fit states."""
    shared_dm = DiffusionConfig(bandwidth="auto", embed_dim=2, time=1)
    sklp_cfg = SklpConfig(rho=SWEEP_RHO)
    started = time.monotonic()
    accuracies = {"dm": [], "sklp+dm": []}
    states = []
    for seed in RING_SEEDS:
        data = _ring_dataset(seed)
        for arm in ("dm", "sklp+dm"):
            pipeline = PipelineConfig(
                reduction=arm,
                classifier="knn",
                knn=KnnConfig(k=1),
                sklp=sklp_cfg,
                diffusion=shared_dm,
            )
            result = cross_validate_actions(data, pipeline)
            accuracies[arm].append(result.accuracy)
        # states for criterion 7, one full-data fit per seed fold pattern
        from sklpdm.dataset import leave_one_group_out

        for train_idx, _ in leave_one_group_out(data):
            fold = LabeledDataset(
                features=data.features[:, train_idx],
                labels=data.labels[train_idx],
                class_count=3,
            )
            _, state = sklp_projection.fit(fold, sklp_cfg)
            states.append(state)
    return {
        "accuracies": accuracies,
        "states": states,
        "elapsed": time.monotonic() - started,
    }


@pytest.fixture(scope="module")
def blob_sweep():
    """SVM accuracies on sklp- vs pca-projected blobs, plus the fit states."""
    svm_cfg = SvmConfig(regularization=1e-3)
    sklp_cfg = SklpConfig(rho=SWEEP_RHO)
    results = {"sklp": [], "pca": []}
    states = []
    for seed in BLOB_SEEDS:
        data = gen_gaussian_classes(4, 50, 20, spread=1.0, separation=3.0, seed=seed)
        train = np.zeros(data.sample_count, dtype=bool)
        for k in range(4):
            members = np.where(data.labels == k)[0]
            train[members[:25]] = True
        train_set = LabeledDataset(
            features=data.features[:, train], labels=data.labels[train], class_count=4
        )
        model, state = sklp_projection.fit(train_set, sklp_cfg)
        states.append(state)
        d = model.dim_out
        pca = pca_fit(train_set, d)
        truth = data.labels[~train]
        for tag, projector in (("sklp", model), ("pca", pca)):
            train_proj = sklp_projection.project(projector, data.features[:, train])
            test_proj = sklp_projection.project(projector, data.features[:, ~train])
            svm = svm_fit((train_proj, data.labels[train]), svm_cfg)
            predicted = svm_predict(svm, test_proj)
            results[tag].append(float((predicted == truth).mean()))
    return {"results": results, "states": states}


def test_criterion_5_ring_pipeline_ordering(ring_sweep):
    accs = ring_sweep["accuracies"]
    mean_with = float(np.mean(accs["sklp+dm"]))
    mean_without = float(np.mean(accs["dm"]))
    improvement = float(np.mean(np.array(accs["sklp+dm"]) - np.array(accs["dm"])))
    assert mean_with >= mean_without - 0.01, (mean_with, mean_without)
    assert improvement >= 0.0, improvement
    assert ring_sweep["elapsed"] < 300.0
    ok(
        5,
        f"sklp+dm {mean_with:.4f} vs dm {mean_without:.4f} "
        f"(improvement {improvement:+.4f}) in {ring_sweep['elapsed']:.0f}s",
    )


def test_criterion_6_blob_svm_ordering(blob_sweep):
    sklp_accs = np.array(blob_sweep["results"]["sklp"])
    pca_accs = np.array(blob_sweep["results"]["pca"])
    band = float(pca_accs.std())
    assert sklp_accs.mean() >= pca_accs.mean() - band, (
        sklp_accs.mean(),
        pca_accs.mean(),
        band,
    )
    ok(
        6,
        f"svm on sklp {sklp_accs.mean():.4f} vs pca {pca_accs.mean():.4f} "
        f"(band {band:.4f})",
    )


def test_criterion_7_objective_behavior(ring_sweep, blob_sweep):
    states = ring_sweep["states"] + blob_sweep["states"]
    assert states
    nondecreasing = 0
    for state in states:
        history = state.objective_history
        assert history[state.best_index] == max(history)  # exact
        window = history[: min(4, len(history))]
        if all(window[i + 1] >= window[i] for i in range(len(window) - 1)):
            nondecreasing += 1
    fraction = nondecreasing / len(states)
    assert fraction >= 0.8, fraction
    ok(
        7,
        f"best J == max(history) on {len(states)} fits; "
        f"{fraction:.0%} non-decreasing through the first 3 iterations",
    )


def test_criterion_8_oracle_equivalence():
    rng = np.random.default_rng(808)

    for _ in range(100):
        train_X = rng.standard_normal((3, int(rng.integers(5, 15))))
        train_y = rng.integers(0, 3, train_X.shape[1])
        test_X = rng.standard_normal((3, 4))
        k = int(rng.integers(1, train_X.shape[1] + 1))
        ours = knn_predict((train_X, train_y), test_X, KnnConfig(k=k))
        np.testing.assert_array_equal(ours, knn_oracle(train_X, train_y, test_X, k))

    for _ in range(100):
        n = int(rng.integers(3, 30))
        true = rng.integers(0, 4, n)
        pred = rng.integers(0, 4, n)
        np.testing.assert_array_equal(
            confusion(true, pred, 4).counts, confusion_oracle(true, pred, 4)
        )

    for _ in range(100):
        n = int(rng.integers(1, 20))
        labels = rng.integers(0, 3, n).tolist()
        groups = rng.integers(0, 4, n).tolist()
        assert video_majority_vote(labels, groups) == vote_oracle(labels, groups)

    for _ in range(100):
        X, labels, K = random_labeled_instance(rng, n_max=14, d_max=4)
        M = pairwise_sq_distances(X)
        sigma = float(rng.uniform(0.5, 2.5))
        m_c, m_o = kernel_averages(M, labels, sigma)
        oracle_c, oracle_o = kernel_averages_oracle(M, labels, sigma)
        assert np.max(np.abs(m_c - oracle_c)) <= 1e-12
        assert abs(m_o - oracle_o) <= 1e-12

        weights = rng.uniform(0.5, 2.0, K)
        rho = float(rng.uniform(0.1, 0.9))
        expected = objective_oracle(M, labels, sigma, rho, weights)
        value = objective(M, labels, sigma, rho, weights)
        assert abs(value - expected) <= 1e-12 * (abs(expected) + 1.0)

    for _ in range(100):
        H = int(rng.integers(5, 12))
        W = int(rng.integers(5, 12))
        pixels = (rng.random((H, W)) < 0.4).astype(np.uint8)
        if pixels.sum() == 0:
            pixels[0, 0] = 1
        sinogram = radon(SilhouetteImage(pixels), 9)
        np.testing.assert_array_equal(sinogram, radon_oracle(pixels, 9))
        np.testing.assert_allclose(
            r_transform(sinogram), r_transform_oracle(sinogram), atol=1e-12
        )
    ok(8, "knn, confusion, voting, kernel averages, objective, radon profile vs oracles")


def test_criterion_9_determinism_and_round_trips(tmp_path):
    data_path = tmp_path / "d.csv"
    again_path = tmp_path / "d2.csv"
    base_args = [
        "synth", "gaussian", "--classes", "3", "--per-class", "20", "--dim", "6",
        "--seed", "11", "--groups", "3",
    ]
    assert cli_run(base_args + ["--out", str(data_path)]) == 0
    assert cli_run(base_args + ["--out", str(again_path)]) == 0
    assert data_path.read_bytes() == again_path.read_bytes()

    model_a = tmp_path / "a.json"
    model_b = tmp_path / "b.json"
    for path in (model_a, model_b):
        assert cli_run(
            ["fit", "sklp", "--data", str(data_path), "--rho", "0.5", "--out", str(path)]
        ) == 0
    assert model_a.read_bytes() == model_b.read_bytes()

    loaded = load_model(model_a)
    resaved = tmp_path / "resaved.json"
    save_model(loaded, resaved)
    assert np.array_equal(load_model(resaved).matrix, loaded.matrix)
    assert np.array_equal(load_model(resaved).eigenvalues, loaded.eigenvalues)

    dataset = load_csv(data_path)
    round_trip = tmp_path / "rt.csv"
    save_csv(dataset, round_trip)
    reloaded = load_csv(round_trip)
    assert np.max(np.abs(reloaded.features - dataset.features)) <= 1e-12
    np.testing.assert_array_equal(reloaded.labels, dataset.labels)
    np.testing.assert_array_equal(reloaded.groups, dataset.groups)

    report_a = tmp_path / "ra.txt"
    report_b = tmp_path / "rb.txt"
    for report in (report_a, report_b):
        assert cli_run(
            [
                "evaluate", "sklp+dm", "knn", "--data", str(data_path),
                "--rho", "0.6", "--report", str(report),
                "--confusion", str(tmp_path / (report.name + ".csv")),
            ]
        ) == 0
    assert report_a.read_bytes() == report_b.read_bytes()
    ok(9, "bit-identical CLI reruns; model and CSV round-trips exact")
