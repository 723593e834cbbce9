"""The three benchmark workloads: their inputs, their jobs and their checks.

Each workload is a closed loop run by one client: every step starts only
after the previous one has ended.

* cv-sklp-rings  - the paper's experiment as a library call: LOGO
  cross-validation of sklp+dm with 1-NN on grouped rings. Nearly all time is
  in SKLP fits run to convergence, so it shows per-iteration gains.
* fit-sklp-wide  - one large SKLP fit through the CLI with a fixed
  iteration count, then project and classify. Its n x n state dominates
  memory, so it shows memory-for-flops trades that cv-sklp-rings may not.
* cli-frames     - silhouette frames through the CLI: radon, raw-profile
  KNN and SVM, and a dense diffusion fit with its model file. No SKLP.
"""

import hashlib
import json
import os

import numpy as np

import inputs
import reference
from reference import require

FULL, TOY = "full", "toy"


def digest_files(paths):
    """SHA-256 over the bytes of the given files, in order."""
    h = hashlib.sha256()
    for path in paths:
        with open(path, "rb") as handle:
            h.update(handle.read())
    return h.hexdigest()


def _check_knn_report(report_path, train_path, test_path, vote_by_group):
    """Compare a `classify knn --k 1` report with brute-force 1-NN; returns its accuracy."""
    train_labels, _, train_X = reference.read_dataset_csv(train_path)
    test_labels, test_groups, test_X = reference.read_dataset_csv(test_path)
    predicted, ambiguous = reference.nearest_neighbour(train_X, train_labels, test_X)
    slack = sum(ambiguous)
    report = reference.read_report(report_path)
    reference.same_tally(report["confusion"], reference.tally(test_labels, predicted), slack, "knn confusion")
    right = sum(t == p for t, p in zip(test_labels, predicted))
    require(abs(report["accuracy"] - right / len(test_labels)) <= 1e-6 + slack / len(test_labels),
            f"knn accuracy {report['accuracy']} != brute force {right / len(test_labels)}")
    if vote_by_group:
        votes = reference.majority_vote(predicted, test_groups)
        truth = reference.majority_vote(test_labels, test_groups)
        expected = reference.tally([truth[g] for g in votes], [votes[g] for g in votes])
        require(report["group_confusion"] is not None, f"{report_path}: no group-vote confusion")
        reference.same_tally(report["group_confusion"], expected, slack, "group-vote confusion")
    return report["accuracy"]


def _check_initial_objective(path, rho):
    """The package's J0 on a training CSV equals the independently computed one."""
    import sklpdm

    labels, _, X = reference.read_dataset_csv(path)
    expected = reference.sklp_initial_objective(X, labels, rho)
    got = sklpdm.init_state(sklpdm.load_csv(path), sklpdm.SklpConfig(rho=rho)).objective_history[0]
    require(abs(got - expected) <= 1e-8 * (abs(expected) + 1.0), f"J0 {got} != independent {expected}")


class CliWorkload:
    """A workload whose job is a chain of `sklpdm` CLI commands writing files under `out`."""

    kind = "cli"

    def digest(self, out):
        return digest_files(self.primary_outputs(out))


class CvSklpRings:
    name = "cv-sklp-rings"
    kind = "library"
    sizes = {
        FULL: dict(classes=5, per_class=60, dim=60, noise=0.5, groups=6, datasets=6, floor=0.5),
        TOY: dict(classes=3, per_class=24, dim=8, noise=0.2, groups=3, datasets=2, floor=0.6),
    }
    rho = 0.6
    exercised = (
        "sklp_projection.fit_s", "sklp_projection.init_state_s", "sklp_projection.kernel_averages_s",
        "sklp_projection.alpha_weights_s", "sklp_projection.scatter_matrix_s", "sklp_projection.solve_eig_s",
        "sklp_projection.update_distances_s", "sklp_projection.objective_s",
        "sklp_projection.pairwise_sq_distances_s", "sklp_projection.fit_peak_mb", "sklp_projection.iterations",
        "diffusion_map.fit_s", "diffusion_map.extend_s", "classify_eval.knn_predict_s",
        "dataset.load_csv_s", "dataset.load_csv_cells",
    )

    def make_inputs(self, work, seed, size):
        p = self.sizes[size]
        for r in range(p["datasets"]):
            rng = np.random.default_rng([seed, r])
            X, y = inputs.ring_classes(rng, p["classes"], p["per_class"], p["noise"], p["dim"])
            groups = inputs.round_robin_groups(y, p["groups"])
            inputs.write_dataset_csv(os.path.join(work, f"rings-{r}.csv"), X, y, groups)

    def job(self, work, dataset, size, runner):
        """Load the CSV and cross-validate; the result stays in memory for `check`."""
        import sklpdm
        from sklpdm import classify_eval, dataset as ds

        path = os.path.join(work, f"rings-{dataset}.csv")
        pipeline = classify_eval.PipelineConfig(
            reduction="sklp+dm", classifier="knn", sklp=sklpdm.SklpConfig(rho=self.rho)
        )
        data = runner.call(ds.load_csv, path)
        if data is None:
            return {"attempted": 2, "failed": 2}
        result = runner.call(classify_eval.cross_validate_actions, data, pipeline)
        return {"attempted": 2, "failed": int(result is None), "result": result, "path": path}

    def digest(self, outputs):
        result = outputs["result"]
        return hashlib.sha256(json.dumps([result.confusion.counts.tolist(), result.fold_accuracies]).encode()).hexdigest()

    def check(self, work, seed, size, outputs):
        """Counts and accuracy agree with each other, and J0 matches the independent value."""
        p = self.sizes[size]
        result = outputs["result"]
        counts = np.asarray(result.confusion.counts)
        require(counts.sum() == p["classes"] * p["groups"], "one vote per (group, class) video expected")
        require(len(result.fold_accuracies) == p["groups"], "one fold per group expected")
        require(abs(result.accuracy - np.trace(counts) / counts.sum()) <= 1e-12, "accuracy != trace/total")
        require(abs(np.mean(result.fold_accuracies) - result.accuracy) <= 1e-12, "fold accuracies disagree")
        require(result.accuracy >= p["floor"], f"video accuracy {result.accuracy} below floor {p['floor']}")
        _check_initial_objective(outputs["path"], self.rho)
        return result.accuracy


class FitSklpWide(CliWorkload):
    name = "fit-sklp-wide"
    sizes = {
        FULL: dict(classes=5, train=200, test=100, dim=180, noise=0.4, iters=20, floor=0.5),
        TOY: dict(classes=3, train=40, test=15, dim=12, noise=0.2, iters=5, floor=0.6),
    }
    rho = 0.6
    exercised = (
        "sklp_projection.fit_s", "sklp_projection.init_state_s", "sklp_projection.kernel_averages_s",
        "sklp_projection.alpha_weights_s", "sklp_projection.scatter_matrix_s", "sklp_projection.solve_eig_s",
        "sklp_projection.update_distances_s", "sklp_projection.objective_s",
        "sklp_projection.pairwise_sq_distances_s", "sklp_projection.fit_peak_mb", "sklp_projection.iterations",
        "classify_eval.knn_predict_s", "classify_eval.knn_predict_peak_mb",
        "dataset.load_csv_s", "dataset.load_csv_cells", "dataset.save_csv_s",
        "cli.startup_s", "cli.fit_s", "cli.project_s", "cli.classify_s", "cli.output_mb",
    )

    def make_inputs(self, work, seed, size):
        p = self.sizes[size]
        rng = np.random.default_rng([seed, 0])
        X, y = inputs.ring_classes(rng, p["classes"], p["train"] + p["test"], p["noise"], p["dim"])
        within = np.arange(len(y)) % (p["train"] + p["test"])
        train, test = within < p["train"], within >= p["train"]
        inputs.write_dataset_csv(os.path.join(work, "train.csv"), X[:, train], y[train])
        inputs.write_dataset_csv(os.path.join(work, "test.csv"), X[:, test], y[test])

    def steps(self, work, out, size):
        p = self.sizes[size]
        train, test = os.path.join(work, "train.csv"), os.path.join(work, "test.csv")
        model = os.path.join(out, "model.json")
        return [
            ["fit", "sklp", "--data", train, "--rho", str(self.rho), "--max-iters", str(p["iters"]),
             "--tol", "1e-12", "--out", model],
            ["project", "--model", model, "--data", train, "--out", os.path.join(out, "train_p.csv")],
            ["project", "--model", model, "--data", test, "--out", os.path.join(out, "test_p.csv")],
            ["classify", "knn", "--train", os.path.join(out, "train_p.csv"),
             "--test", os.path.join(out, "test_p.csv"), "--k", "1", "--report", os.path.join(out, "knn.txt")],
        ]

    def primary_outputs(self, out):
        return [os.path.join(out, f) for f in ("model.json", "train_p.csv", "test_p.csv", "knn.txt")]

    def check(self, work, seed, size, out):
        """Orthonormal model, projections equal P^T X, 1-NN report matches, J0 matches."""
        p = self.sizes[size]
        with open(os.path.join(out, "model.json"), encoding="utf-8") as handle:
            model = json.load(handle)
        P = np.array(model["matrix"])
        values = np.array(model["eigenvalues"])
        require(P.shape == (p["dim"], p["classes"] - 1), f"projection shape {P.shape}")
        require(np.abs(P.T @ P - np.eye(P.shape[1])).max() <= 1e-10, "projection columns not orthonormal")
        require(np.all(values > 0) and np.all(np.diff(values) <= 0), "eigenvalues not positive and descending")
        for raw, projected in (("train.csv", "train_p.csv"), ("test.csv", "test_p.csv")):
            labels, _, X = reference.read_dataset_csv(os.path.join(work, raw))
            got_labels, _, Y = reference.read_dataset_csv(os.path.join(out, projected))
            require(got_labels == labels, f"{projected}: labels reordered")
            expected = P.T @ X
            require(np.abs(Y - expected).max() <= 1e-12 * (np.abs(expected).max() + 1.0), f"{projected} != P^T X")
        accuracy = _check_knn_report(os.path.join(out, "knn.txt"), os.path.join(out, "train_p.csv"),
                                     os.path.join(out, "test_p.csv"), vote_by_group=False)
        require(accuracy >= p["floor"], f"frame accuracy {accuracy} below floor {p['floor']}")
        _check_initial_objective(os.path.join(work, "train.csv"), self.rho)
        return accuracy


class CliFrames(CliWorkload):
    name = "cli-frames"
    sizes = {
        FULL: dict(height=64, width=44, train_actors=10, test_actors=8, frames=6, angles=180, dm_dim=3,
                   sampled=3, knn_floor=0.6, svm_floor=0.3),
        TOY: dict(height=40, width=28, train_actors=2, test_actors=1, frames=6, angles=36, dm_dim=2,
                  sampled=2, knn_floor=0.3, svm_floor=0.25),
    }
    exercised = (
        "silhouette_features.load_pgm_s", "silhouette_features.radon_s", "silhouette_features.r_transform_s",
        "silhouette_features.frames", "dataset.save_csv_s", "dataset.load_csv_s", "dataset.load_csv_cells",
        "classify_eval.knn_predict_s", "classify_eval.knn_predict_peak_mb", "classify_eval.svm_fit_s",
        "classify_eval.svm_epochs", "diffusion_map.fit_s", "diffusion_map.fit_peak_mb",
        "diffusion_map.save_model_json_s", "diffusion_map.model_json_mb",
        "sklp_projection.pairwise_sq_distances_s",
        "cli.startup_s", "cli.radon_s", "cli.classify_s", "cli.diffuse_s", "cli.output_mb",
    )

    def make_inputs(self, work, seed, size):
        p = self.sizes[size]
        rng = np.random.default_rng([seed, 0])
        actors = [inputs.random_actor(rng) for _ in range(p["train_actors"] + p["test_actors"])]
        shape = (p["frames"], p["height"], p["width"])
        inputs.write_frames(os.path.join(work, "train"), rng, actors[: p["train_actors"]], *shape, "a")
        inputs.write_frames(os.path.join(work, "test"), rng, actors[p["train_actors"]:], *shape, "b")

    def steps(self, work, out, size):
        p = self.sizes[size]
        train, test = os.path.join(out, "train.csv"), os.path.join(out, "test.csv")
        return [
            ["radon", "--manifest", os.path.join(work, "train", "manifest.csv"), "--angles", str(p["angles"]),
             "--out", train],
            ["radon", "--manifest", os.path.join(work, "test", "manifest.csv"), "--angles", str(p["angles"]),
             "--out", test],
            ["classify", "knn", "--train", train, "--test", test, "--k", "1", "--vote-by-group",
             "--report", os.path.join(out, "knn.txt")],
            ["classify", "svm", "--train", train, "--test", test, "--report", os.path.join(out, "svm.txt")],
            ["diffuse", "--data", train, "--dim", str(p["dm_dim"]), "--out", os.path.join(out, "embedding.csv")],
        ]

    def primary_outputs(self, out):
        return [os.path.join(out, f) for f in ("train.csv", "test.csv", "knn.txt", "svm.txt", "embedding.csv")]

    def check(self, work, seed, size, out):
        """Profiles match the direct R-transform, reports match 1-NN, embedding is T's spectrum."""
        p = self.sizes[size]
        for split in ("train", "test"):
            with open(os.path.join(work, split, "manifest.csv"), encoding="utf-8") as handle:
                rows = [line.split(",") for line in handle.read().splitlines()[1:]]
            labels, groups, F = reference.read_dataset_csv(os.path.join(out, f"{split}.csv"))
            require(labels == [r[1] for r in rows] and groups == [r[2] for r in rows], f"{split}.csv: rows reordered")
            require(F.shape[0] == p["angles"], f"{split}.csv: {F.shape[0]} angle columns")
            require(F.min() >= 0 and np.abs(F.sum(axis=0) - 1.0).max() <= 1e-12, f"{split}.csv: profiles not unit-sum")
            picks = np.random.default_rng([seed, 1]).choice(len(rows), size=p["sampled"], replace=False)
            for i in picks:
                pixels = reference.read_pgm(os.path.join(work, split, rows[i][0]))
                direct = reference.angle_profile(pixels, p["angles"])
                require(np.abs(direct - F[:, i]).max() <= 1e-12, f"{split} frame {rows[i][0]}: profile differs")
        train, test = os.path.join(out, "train.csv"), os.path.join(out, "test.csv")
        accuracy = _check_knn_report(os.path.join(out, "knn.txt"), train, test, vote_by_group=True)
        require(accuracy >= p["knn_floor"], f"knn frame accuracy {accuracy} below floor {p['knn_floor']}")
        svm = reference.read_report(os.path.join(out, "svm.txt"))
        test_count = len(reference.read_dataset_csv(test)[0])
        require(sum(svm["confusion"].values()) == test_count, "svm confusion does not count every test frame")
        right = sum(c for (t, q), c in svm["confusion"].items() if t == q)
        require(abs(svm["accuracy"] - right / test_count) <= 1e-6, "svm accuracy != trace/total")
        require(svm["accuracy"] >= p["svm_floor"], f"svm accuracy {svm['accuracy']} below floor {p['svm_floor']}")
        train_labels, _, X = reference.read_dataset_csv(train)
        emb_labels, _, E = reference.read_dataset_csv(os.path.join(out, "embedding.csv"))
        require(emb_labels == train_labels, "embedding rows reordered")
        require(E.shape == (p["dm_dim"], X.shape[1]), f"embedding shape {E.shape}")
        reference.check_diffusion_embedding(X, E.T, 1)
        return accuracy


WORKLOADS = {w.name: w for w in (CvSklpRings(), FitSklpWide(), CliFrames())}
