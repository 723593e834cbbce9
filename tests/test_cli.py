import dataclasses
import json
import subprocess
import sys

import numpy as np
import pytest

from sklpdm import DiffusionConfig, KnnConfig, SklpConfig, SvmConfig, load_csv, load_model, save_csv
from sklpdm.cli import _build_parser, run


def invoke(*argv):
    return run(list(argv))


def read_accuracy(report_path):
    for line in report_path.read_text().splitlines():
        if line.startswith("overall accuracy:"):
            return float(line.split(":")[1])
    raise AssertionError("no accuracy line in report")


@pytest.fixture
def gaussian_csv(tmp_path):
    out = tmp_path / "g.csv"
    assert invoke(
        "synth", "gaussian", "--classes", "3", "--per-class", "30", "--dim", "8",
        "--seed", "1", "--out", str(out),
    ) == 0
    return out


class TestSynthAndFit:
    def test_synth_then_fit_sklp(self, tmp_path, gaussian_csv):
        model_path = tmp_path / "m.json"
        assert invoke("fit", "sklp", "--data", str(gaussian_csv), "--out", str(model_path)) == 0
        model = load_model(model_path)
        gram = model.matrix.T @ model.matrix
        np.testing.assert_allclose(gram, np.eye(model.dim_out), atol=1e-10)
        assert model.kind == "sklp"

    def test_single_class_exits_3(self, tmp_path, capsys):
        data = tmp_path / "one.csv"
        data.write_text("label,f0,f1\na,1,2\na,3,4\na,5,6\n")
        code = invoke("fit", "sklp", "--data", str(data), "--out", str(tmp_path / "m.json"))
        assert code == 3
        assert "K >= 2" in capsys.readouterr().err

    def test_usage_error_exits_1(self, tmp_path):
        assert invoke("fit", "sklp", "--data") == 1
        assert invoke("nonsense") == 1

    def test_missing_file_exits_2(self, tmp_path):
        assert invoke(
            "fit", "pca", "--data", str(tmp_path / "absent.csv"), "--out", str(tmp_path / "m.json")
        ) == 2

    @pytest.mark.parametrize("command", ["classify", "evaluate", "trace"])
    def test_unwritable_output_exits_2(self, tmp_path, capsys, command):
        data = str(tmp_path / "g.csv")
        assert invoke(
            "synth", "gaussian", "--classes", "2", "--per-class", "6", "--dim", "3",
            "--seed", "1", "--groups", "2", "--out", data,
        ) == 0
        out = str(tmp_path / "nodir" / "r.txt")
        argv = {
            "classify": ["classify", "knn", "--train", data, "--test", data, "--report", out],
            "evaluate": ["evaluate", "--data", data, "--pipeline", "pca", "--report", out,
                         "--confusion", str(tmp_path / "c.csv")],
            "trace": ["trace", "--data", data, "--rho", "0.5", "--max-iters", "2", "--out", out],
        }[command]
        assert invoke(*argv) == 2
        assert f"data error: cannot write {out}" in capsys.readouterr().err

    def test_non_utf8_data_exits_2(self, tmp_path, capsys):
        data = tmp_path / "latin1.csv"
        data.write_bytes("label,f0\ncaf\u00e9,1\nthé,2\n".encode("latin-1"))
        assert invoke("fit", "pca", "--data", str(data), "--out", str(tmp_path / "m.json")) == 2
        assert f"cannot read {data}" in capsys.readouterr().err

    def test_non_utf8_model_exits_2(self, tmp_path, capsys, gaussian_csv):
        model = tmp_path / "bad.json"
        model.write_bytes('{"kind": "pca \u00e9"}'.encode("latin-1"))
        assert invoke(
            "project", "--model", str(model), "--data", str(gaussian_csv), "--out", str(tmp_path / "p.csv")
        ) == 2
        assert f"cannot read {model}" in capsys.readouterr().err

    @pytest.mark.parametrize("command, flag, setting, value", [
        (command, flag, setting, value)
        for command, flag, setting in [
            (["fit", "sklp"], "--sigma", "kernel_bandwidth"),
            (["trace"], "--sigma", "kernel_bandwidth"),
            (["diffuse"], "--sigma", "bandwidth"),
            (["evaluate", "--pipeline", "dm"], "--dm-sigma", "bandwidth"),
        ]
        for value in ["0", "-1", "nan", "inf", "1e-200", "1e200"]
    ] + [(["fit", "sklp"], "--tol", "rel_tolerance", "nan")])
    def test_unusable_setting_exits_2(self, tmp_path, capsys, gaussian_csv, command, flag, setting, value):
        """Every fixed bandwidth needs 0 < sigma and 0 < sigma^2 < inf; 1e-200 and 1e200 square to 0 and inf."""
        out = tmp_path / "out"
        outputs = ["--report", str(out), "--confusion", str(tmp_path / "c.csv")] if "evaluate" in command else [
            "--out", str(out)]
        assert invoke(*command, "--data", str(gaussian_csv), flag, value, *outputs) == 2
        assert capsys.readouterr().err.startswith(f"data error: {setting} must be")
        assert not out.exists()

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    @pytest.mark.parametrize("scale, command, message", [
        (1e155, ["diffuse"], "median distance inf has sigma^2 outside (0, inf): rescale the features"),
        (1e155, ["fit", "sklp"], "covariance is not finite: rescale the features to a smaller magnitude"),
        (1e155, ["fit", "pca"], "covariance is not finite: rescale the features to a smaller magnitude"),
        (1e-160, ["fit", "sklp"], "the samples differ, but their covariance is below the solver's floor"),
    ])
    def test_feature_scale_failure_exits_3(self, tmp_path, capsys, gaussian_csv, scale, command, message):
        data = load_csv(gaussian_csv)
        scaled = tmp_path / "scaled.csv"
        save_csv(dataclasses.replace(data, features=data.features * scale), scaled)
        out = tmp_path / "out"
        assert invoke(*command, "--data", str(scaled), "--out", str(out)) == 3
        err = capsys.readouterr().err
        assert err.startswith("numerical failure: ") and message in err and "rescale the features" in err
        assert not out.exists()

    def test_fit_pca_and_lda(self, tmp_path, gaussian_csv):
        for kind in ("pca", "lda"):
            out = tmp_path / f"{kind}.json"
            assert invoke("fit", kind, "--data", str(gaussian_csv), "--out", str(out)) == 0
            assert load_model(out).kind == kind

    def test_fit_dim_capped_like_evaluate(self, tmp_path):
        data = tmp_path / "g.csv"
        assert invoke(
            "synth", "gaussian", "--classes", "3", "--per-class", "12", "--dim", "8",
            "--seed", "1", "--groups", "3", "--out", str(data),
        ) == 0
        dims = {}
        for kind in ("pca", "lda"):
            out = tmp_path / f"{kind}.json"
            assert invoke("fit", kind, "--data", str(data), "--dim", "50", "--out", str(out)) == 0
            dims[kind] = load_model(out).dim_out
            # dim_out records the delivered dimension; the config does not echo it
            assert "target_dim" not in (json.loads(out.read_text())["config"] or {}), kind
        report = tmp_path / "r.txt"
        assert invoke(
            "evaluate", "--data", str(data), "--pipeline", "pca", "--dim", "50",
            "--report", str(report), "--confusion", str(tmp_path / "c.csv"),
        ) == 0
        echo = json.loads(report.read_text().splitlines()[-1].removeprefix("configuration: "))
        # evaluate's diffusion dimension follows its capped projection dimension
        assert echo["diffusion"]["embed_dim"] == 8
        assert dims == {"pca": 8, "lda": 2}  # capped at the 8 features and at K - 1

    def test_documented_wiring_example(self, tmp_path):
        # synth gaussian with only classes/per-class/dim/seed, then fit sklp
        # with all defaults: both must exit 0 and yield an orthonormal model
        data = tmp_path / "d.csv"
        model_path = tmp_path / "m.json"
        assert invoke(
            "synth", "gaussian", "--classes", "3", "--per-class", "50", "--dim", "10",
            "--seed", "1", "--out", str(data),
        ) == 0
        assert invoke("fit", "sklp", "--data", str(data), "--out", str(model_path)) == 0
        model = load_model(model_path)
        gram = model.matrix.T @ model.matrix
        np.testing.assert_allclose(gram, np.eye(model.dim_out), atol=1e-10)

    def test_rings_synth(self, tmp_path):
        out = tmp_path / "r.csv"
        assert invoke(
            "synth", "rings", "--classes", "2", "--per-class", "20", "--dim", "5",
            "--noise", "0.05", "--seed", "3", "--out", str(out),
        ) == 0
        data = load_csv(out)
        assert data.class_count == 2
        assert data.dim == 5


class TestDeterminismAndManifest:
    def test_bit_identical_reruns(self, tmp_path):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        args = ["synth", "gaussian", "--classes", "2", "--per-class", "10", "--dim", "4", "--seed", "9"]
        assert invoke(*args, "--out", str(a)) == 0
        assert invoke(*args, "--out", str(b)) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_manifest_written_and_replayable(self, tmp_path):
        out = tmp_path / "d.csv"
        assert invoke(
            "synth", "gaussian", "--classes", "2", "--per-class", "8", "--dim", "3",
            "--seed", "5", "--out", str(out),
        ) == 0
        manifest = json.loads((tmp_path / "d.csv.manifest.json").read_text())
        assert manifest["command"] == "synth"
        assert manifest["flags"]["seed"] == 5
        assert manifest["version"]
        original = out.read_bytes()
        flags = manifest["flags"]
        replay = [
            "synth", flags["shape"],
            "--classes", str(flags["classes"]),
            "--per-class", str(flags["per_class"]),
            "--dim", str(flags["dim"]),
            "--spread", str(flags["spread"]),
            "--separation", str(flags["separation"]),
            "--noise", str(flags["noise"]),
            "--seed", str(flags["seed"]),
            "--groups", str(flags["groups"]),
            "--out", str(out),
        ]
        assert invoke(*replay) == 0
        assert out.read_bytes() == original

    def test_seedless_command_records_no_seed(self, tmp_path, gaussian_csv):
        report = tmp_path / "r.txt"
        assert invoke(
            "classify", "knn", "--train", str(gaussian_csv), "--test", str(gaussian_csv),
            "--report", str(report),
        ) == 0
        manifest = json.loads((tmp_path / "r.txt.manifest.json").read_text())
        assert manifest["command"] == "classify"
        assert "seed" not in manifest
        assert "seed" not in manifest["flags"]

    @pytest.mark.parametrize(
        "command", ["synth", "radon", "fit", "project", "diffuse", "classify", "evaluate", "trace"]
    )
    def test_every_command_writes_its_manifest(self, tmp_path, command):
        data, model = str(tmp_path / "g.csv"), str(tmp_path / "m.json")
        assert invoke(
            "synth", "gaussian", "--classes", "2", "--per-class", "6", "--dim", "3",
            "--seed", "1", "--groups", "2", "--out", data,
        ) == 0
        assert invoke("fit", "pca", "--data", data, "--out", model) == 0
        (tmp_path / "f.pgm").write_text("P2\n3 3\n255\n0 1 0\n1 1 1\n0 1 0\n")
        frames = str(tmp_path / "frames.txt")
        (tmp_path / "frames.txt").write_text("f.pgm\n")
        out, report, matrix = (str(tmp_path / name) for name in ("o.csv", "r.txt", "c.csv"))
        cases = {  # argv, inputs, outputs; the first output is the primary one
            "synth": (["synth", "rings", "--out", out], [], [out]),
            "radon": (["radon", "--manifest", frames, "--label", "a", "--angles", "4", "--out", out],
                      [frames], [out]),
            "fit": (["fit", "lda", "--data", data, "--out", out], [data], [out]),
            "project": (["project", "--model", model, "--data", data, "--out", out], [model, data], [out]),
            "diffuse": (["diffuse", "--data", data, "--out", out], [data], [out, out + ".model.json"]),
            "classify": (["classify", "knn", "--train", data, "--test", data, "--report", report],
                         [data, data], [report]),
            "evaluate": (["evaluate", "--data", data, "--pipeline", "pca", "--report", report,
                          "--confusion", matrix], [data], [report, matrix]),
            "trace": (["trace", "--data", data, "--rho", "0.5", "--max-iters", "2", "--out", out],
                      [data], [out]),
        }
        argv, inputs, outputs = cases[command]
        assert invoke(*argv) == 0
        with open(outputs[0] + ".manifest.json", encoding="utf-8") as handle:
            manifest = json.load(handle)
        assert manifest["command"] == command
        assert (manifest["inputs"], manifest["outputs"]) == (inputs, outputs)

    def test_fit_model_deterministic(self, tmp_path, gaussian_csv):
        m1 = tmp_path / "m1.json"
        m2 = tmp_path / "m2.json"
        for path in (m1, m2):
            assert invoke(
                "fit", "sklp", "--data", str(gaussian_csv), "--rho", "0.5", "--out", str(path)
            ) == 0
        assert m1.read_bytes() == m2.read_bytes()


class TestProjectAndDiffuse:
    def test_project_round_trip(self, tmp_path, gaussian_csv):
        model_path = tmp_path / "m.json"
        invoke("fit", "pca", "--data", str(gaussian_csv), "--dim", "2", "--out", str(model_path))
        out = tmp_path / "proj.csv"
        assert invoke(
            "project", "--model", str(model_path), "--data", str(gaussian_csv), "--out", str(out)
        ) == 0
        projected = load_csv(out)
        assert projected.dim == 2
        assert projected.sample_count == 90

    def test_diffuse_outputs(self, tmp_path, gaussian_csv):
        out = tmp_path / "emb.csv"
        assert invoke(
            "diffuse", "--data", str(gaussian_csv), "--dim", "2", "--out", str(out)
        ) == 0
        header = out.read_text().splitlines()[0]
        assert header == "label,c1,c2"
        model_payload = json.loads((tmp_path / "emb.csv.model.json").read_text())
        assert model_payload["embed_dim"] == 2

    def test_trace_emits_history(self, tmp_path, gaussian_csv):
        out = tmp_path / "trace.csv"
        assert invoke(
            "trace", "--data", str(gaussian_csv), "--rho", "0.5", "--max-iters", "10",
            "--out", str(out),
        ) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "iteration,objective,predicted_increment"
        assert len(lines) >= 3
        assert lines[1].split(",")[0] == "0"

    def test_project_with_non_finite_model_names_the_file(self, tmp_path, gaussian_csv, capsys):
        model_path = tmp_path / "nan-model.json"
        model_path.write_text(
            '{"kind": "pca", "dim_in": 8, "dim_out": 1, "eigenvalues": [1.0], '
            '"matrix": [[NaN], [0], [0], [0], [0], [0], [0], [0]]}'
        )
        code = invoke(
            "project", "--model", str(model_path), "--data", str(gaussian_csv),
            "--out", str(tmp_path / "p.csv"),
        )
        assert code == 2
        err = capsys.readouterr().err
        assert "nan-model.json" in err and "finite" in err


class TestClassify:
    def test_knn_report(self, tmp_path):
        train = tmp_path / "train.csv"
        test = tmp_path / "test.csv"
        invoke("synth", "gaussian", "--classes", "2", "--per-class", "20", "--dim", "4",
               "--separation", "12", "--seed", "2", "--out", str(train))
        invoke("synth", "gaussian", "--classes", "2", "--per-class", "10", "--dim", "4",
               "--separation", "12", "--seed", "2", "--out", str(test))
        report = tmp_path / "report.txt"
        assert invoke(
            "classify", "knn", "--train", str(train), "--test", str(test),
            "--k", "1", "--report", str(report),
        ) == 0
        assert read_accuracy(report) == 1.0

    def test_vote_by_group(self, tmp_path):
        train = tmp_path / "train.csv"
        test = tmp_path / "test.csv"
        invoke("synth", "gaussian", "--classes", "2", "--per-class", "20", "--dim", "4",
               "--separation", "12", "--seed", "4", "--groups", "2", "--out", str(train))
        invoke("synth", "gaussian", "--classes", "2", "--per-class", "10", "--dim", "4",
               "--separation", "12", "--seed", "5", "--groups", "2", "--out", str(test))
        report = tmp_path / "report.txt"
        assert invoke(
            "classify", "svm", "--train", str(train), "--test", str(test),
            "--vote-by-group", "--report", str(report),
        ) == 0
        assert "group-vote accuracy" in report.read_text()


class TestEvaluate:
    def test_pipeline_ordering_on_rings(self, tmp_path):
        data = tmp_path / "rings.csv"
        assert invoke(
            "synth", "rings", "--classes", "3", "--per-class", "30", "--dim", "8",
            "--noise", "0.2", "--seed", "1", "--groups", "3", "--out", str(data),
        ) == 0
        accuracies = {}
        for pipeline in ("dm", "sklp+dm"):
            report = tmp_path / f"{pipeline}.txt"
            matrix = tmp_path / f"{pipeline}.confusion.csv"
            assert invoke(
                "evaluate", "--data", str(data), "--pipeline", pipeline,
                "--classifier", "knn", "--rho", "0.6",
                "--report", str(report), "--confusion", str(matrix),
            ) == 0
            accuracies[pipeline] = read_accuracy(report)
            assert matrix.read_text().startswith("true\\predicted,")
        assert accuracies["sklp+dm"] >= accuracies["dm"] - 0.01

    def test_identical_runs_identical_reports(self, tmp_path):
        data = tmp_path / "d.csv"
        invoke("synth", "gaussian", "--classes", "2", "--per-class", "12", "--dim", "4",
               "--separation", "10", "--seed", "6", "--groups", "3", "--out", str(data))
        texts = []
        for tag in ("x", "y"):
            report = tmp_path / f"{tag}.txt"
            matrix = tmp_path / f"{tag}.csv"
            assert invoke(
                "evaluate", "--data", str(data), "--pipeline", "pca",
                "--report", str(report), "--confusion", str(matrix),
            ) == 0
            texts.append(report.read_bytes() + matrix.read_bytes())
        assert texts[0] == texts[1]

    def test_diffusion_dim_follows_capped_projection_dim(self, tmp_path):
        data = tmp_path / "rings4.csv"
        assert invoke(
            "synth", "rings", "--classes", "3", "--per-class", "12", "--dim", "4",
            "--noise", "0.2", "--seed", "2", "--groups", "3", "--out", str(data),
        ) == 0
        report = tmp_path / "r.txt"
        assert invoke(
            "evaluate", "--data", str(data), "--pipeline", "sklp+dm", "--dim", "12",
            "--rho", "0.6", "--max-iters", "3",
            "--report", str(report), "--confusion", str(tmp_path / "c.csv"),
        ) == 0
        line = report.read_text().splitlines()[-1]
        echo = json.loads(line.removeprefix("configuration: "))
        assert echo["diffusion"]["embed_dim"] == 4  # --dim 12 capped at the 4 features

    def test_negative_dm_dim_exits_2(self, tmp_path, capsys):
        data = tmp_path / "rings.csv"
        assert invoke(
            "synth", "rings", "--classes", "3", "--per-class", "12", "--dim", "4",
            "--noise", "0.2", "--seed", "2", "--groups", "3", "--out", str(data),
        ) == 0
        code = invoke(
            "evaluate", "--data", str(data), "--pipeline", "sklp+dm", "--rho", "0.6",
            "--dm-dim", "-1", "--report", str(tmp_path / "r.txt"),
            "--confusion", str(tmp_path / "c.csv"),
        )
        assert code == 2
        assert "embed_dim" in capsys.readouterr().err
        assert not (tmp_path / "r.txt").exists()


def _field_names(config_class):
    return sorted(f.name for f in dataclasses.fields(config_class))


def test_sklp_flag_defaults_match_config():
    default = SklpConfig()
    # flag -> the SklpConfig field it sets; every field has a flag
    table = {
        "dim": "target_dim",
        "rho": "rho",
        "eta": "learning_rate",
        "sigma": "kernel_bandwidth",
        "tol": "rel_tolerance",
        "max_iters": "max_iters",
    }
    assert sorted(table.values()) == _field_names(SklpConfig)
    expected = {flag: getattr(default, name) for flag, name in table.items()}
    parser = _build_parser()
    for argv in (
        ["fit", "sklp", "--data", "d.csv", "--out", "m.json"],
        ["evaluate", "--data", "d.csv", "--pipeline", "sklp+dm", "--report", "r.txt",
         "--confusion", "c.csv"],
        ["trace", "--data", "d.csv", "--out", "t.csv"],
    ):
        flags = vars(parser.parse_args(argv))
        assert {key: flags[key] for key in expected} == expected, argv[0]


class TestRadonCommand:
    def test_manifest_to_feature_csv(self, tmp_path):
        frames = []
        for f in range(3):
            pixels = np.zeros((8, 8), dtype=np.uint8)
            pixels[2 + f : 5 + f, 3 : 6] = 1
            path = tmp_path / f"frame{f}.pgm"
            body = "\n".join(" ".join(str(v) for v in row) for row in pixels)
            path.write_text(f"P2\n8 8\n255\n{body}\n")
            frames.append(path)
        manifest = tmp_path / "frames.csv"
        manifest.write_text(
            "path,label,group\n"
            + "\n".join(f"{p.name},walk,person0" for p in frames)
            + "\n"
        )
        out = tmp_path / "features.csv"
        assert invoke(
            "radon", "--manifest", str(manifest), "--angles", "12", "--out", str(out)
        ) == 0
        data = load_csv(out)
        assert data.dim == 12
        assert data.sample_count == 3
        assert data.group_names == ("person0",)
        # translating rectangle: identical profiles
        assert np.max(np.abs(data.features - data.features[:, [0]])) <= 1e-12

    def test_unreadable_frame_named_in_error(self, tmp_path, capsys):
        pixels = np.zeros((6, 6), dtype=np.uint8)
        pixels[2:4, 2:4] = 1
        body = "\n".join(" ".join(str(v) for v in row) for row in pixels)
        (tmp_path / "good.pgm").write_text(f"P2\n6 6\n255\n{body}\n")
        (tmp_path / "broken.pgm").write_text("P2\n6 6\n255\n1 2 3\n")
        manifest = tmp_path / "frames.csv"
        manifest.write_text("path,label\ngood.pgm,walk\nbroken.pgm,walk\ngood.pgm,walk\n")
        out = tmp_path / "features.csv"
        assert invoke("radon", "--manifest", str(manifest), "--out", str(out)) == 2
        message = capsys.readouterr().err
        assert "frame 1 (" in message
        assert str(tmp_path / "broken.pgm") in message
        assert not out.exists()
        assert message.count(str(tmp_path / "broken.pgm")) == 1
        assert f"frame 1 ({tmp_path / 'broken.pgm'}): truncated P2 payload" in message

    def test_missing_column_exits_2(self, tmp_path):
        manifest = tmp_path / "bad.csv"
        manifest.write_text("path\nframe.pgm\n")
        assert invoke("radon", "--manifest", str(manifest), "--out", str(tmp_path / "o.csv")) == 2

    def test_non_utf8_manifest_exits_2(self, tmp_path, capsys):
        manifest = tmp_path / "latin1.csv"
        manifest.write_bytes("path,label\nf.pgm,saut\u00e9\n".encode("latin-1"))
        assert invoke("radon", "--manifest", str(manifest), "--out", str(tmp_path / "o.csv")) == 2
        assert f"cannot read {manifest}" in capsys.readouterr().err

    def test_plain_path_list_with_flags(self, tmp_path):
        pixels = np.zeros((6, 6), dtype=np.uint8)
        pixels[2:4, 2:4] = 1
        body = "\n".join(" ".join(str(v) for v in row) for row in pixels)
        frame = tmp_path / "f.pgm"
        frame.write_text(f"P2\n6 6\n255\n{body}\n")
        manifest = tmp_path / "list.txt"
        manifest.write_text(f"{frame.name}\n{frame.name}\n")
        out = tmp_path / "features.csv"
        assert invoke(
            "radon", "--manifest", str(manifest), "--angles", "8",
            "--label", "jump", "--group", "p1", "--out", str(out),
        ) == 0
        data = load_csv(out)
        assert data.sample_count == 2
        assert data.label_names == ("jump",)
        assert data.group_names == ("p1",)

    def test_plain_list_without_label_exits_2(self, tmp_path):
        manifest = tmp_path / "list.txt"
        manifest.write_text("a.pgm\n")
        assert invoke("radon", "--manifest", str(manifest), "--out", str(tmp_path / "o.csv")) == 2


def test_module_entry_point(tmp_path):
    out = tmp_path / "m.csv"
    result = subprocess.run(
        [sys.executable, "-m", "sklpdm", "synth", "gaussian", "--classes", "2",
         "--per-class", "5", "--dim", "3", "--seed", "0", "--out", str(out)],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0
    assert out.exists()


def test_version_flag():
    result = subprocess.run(
        [sys.executable, "-m", "sklpdm", "--version"], capture_output=True, text=True
    )
    assert result.returncode == 0
    assert "sklpdm" in result.stdout


def test_diffusion_flag_defaults_match_config():
    default = DiffusionConfig()
    table = {"dim": "embed_dim", "sigma": "bandwidth", "time": "time"}  # flag -> field
    assert sorted(table.values()) == _field_names(DiffusionConfig)
    parser = _build_parser()
    flags = vars(parser.parse_args(["diffuse", "--data", "d.csv", "--out", "e.csv"]))
    assert {flag: flags[flag] for flag in table} == {
        flag: getattr(default, name) for flag, name in table.items()
    }
    flags = vars(parser.parse_args(
        ["evaluate", "--data", "d.csv", "--pipeline", "dm", "--report", "r.txt", "--confusion", "c.csv"]
    ))
    # --dm-dim 0 follows the projection dimension
    assert (flags["dm_dim"], flags["dm_sigma"], flags["time"]) == (0, default.bandwidth, default.time)


def test_classifier_flag_defaults_match_config():
    knn_table = {"k": "k"}  # flag -> KnnConfig field
    svm_table = {"reg": "regularization", "epochs": "epochs"}  # flag -> SvmConfig field
    assert sorted(knn_table.values()) == _field_names(KnnConfig)
    assert sorted(svm_table.values()) == _field_names(SvmConfig)
    knn, svm = KnnConfig(), SvmConfig()
    expected = {flag: getattr(knn, name) for flag, name in knn_table.items()}
    expected.update({flag: getattr(svm, name) for flag, name in svm_table.items()})
    parser = _build_parser()
    for argv in (
        ["classify", "knn", "--train", "a.csv", "--test", "b.csv", "--report", "r.txt"],
        ["evaluate", "--data", "d.csv", "--pipeline", "pca", "--report", "r.txt", "--confusion", "c.csv"],
    ):
        flags = vars(parser.parse_args(argv))
        assert {key: flags[key] for key in expected} == expected, argv[0]
        assert "seed" not in flags, argv[0]  # svm training consumes no randomness
