import argparse
import dataclasses
import json
import os
import re
import shlex
import stat
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from sklpdm import (DiffusionConfig, KnnConfig, SklpConfig, SvmConfig, lda_fit, load_csv, load_model, pca_fit,
                    save_csv, sequence_features)
from sklpdm.cli import _auto_or_float, _build_parser, run


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


SKLP_FLOATS = [("--rho", "rho"), ("--eta", "learning_rate"), ("--sigma", "kernel_bandwidth"),
               ("--tol", "rel_tolerance")]
# (command and kind, flag, the setting its data error names): every float flag of every command and kind
FLOAT_FLAGS = [
    (["synth", "gaussian"], "--spread", "spread"),
    (["synth", "gaussian"], "--separation", "separation"),
    (["synth", "rings"], "--noise", "noise"),
    *[
        (command, flag, setting)
        for command in (["fit", "sklp"], ["trace"], ["evaluate", "sklp+dm", "knn"])
        for flag, setting in SKLP_FLOATS
    ],
    (["diffuse"], "--sigma", "bandwidth"),
    (["evaluate", "dm", "knn"], "--dm-sigma", "bandwidth"),
    (["evaluate", "pca", "svm"], "--reg", "regularization"),
    (["classify", "svm"], "--reg", "regularization"),
]
BANDWIDTH_FLAGS = [
    (["fit", "sklp"], "--sigma", "kernel_bandwidth"),
    (["trace"], "--sigma", "kernel_bandwidth"),
    (["diffuse"], "--sigma", "bandwidth"),
    (["evaluate", "dm", "knn"], "--dm-sigma", "bandwidth"),
]


def unusable_settings():
    """Each bandwidth flag at every value that breaks the bandwidth rule, and each float flag at nan and inf."""
    cases = [
        (command, flag, setting, value)
        for command, flag, setting in BANDWIDTH_FLAGS
        for value in ["0", "-1", "nan", "inf", "1e-200", "1e200"]
    ] + [(["fit", "sklp"], "--tol", "rel_tolerance", "nan")] + [
        (command, flag, setting, "1e-160") for command, flag, setting in BANDWIDTH_FLAGS
    ]
    return cases + [
        case
        for case in ((*flag, value) for flag in FLOAT_FLAGS for value in ("nan", "inf"))
        if case not in cases
    ]


UNUSABLE_SETTINGS = unusable_settings() + [
    (["synth", "rings"], "--seed", "seed", "-1"), (["synth", "gaussian"], "--groups", "groups", "-2")]
# the float flags of the other evaluate leaves, swept after the cases above so that their ids keep their indices
EVALUATE_BANDWIDTH_FLAGS = [
    (["evaluate", "sklp+dm", classifier], flag, setting)
    for classifier in ("knn", "svm")
    for flag, setting in [("--sigma", "kernel_bandwidth"), ("--dm-sigma", "bandwidth")]
] + [(["evaluate", "dm", "svm"], "--dm-sigma", "bandwidth")]
BANDWIDTH_FLAGS += EVALUATE_BANDWIDTH_FLAGS
FLOAT_FLAGS += [flag for flag in EVALUATE_BANDWIDTH_FLAGS if flag not in FLOAT_FLAGS] + [
    (["evaluate", "sklp+dm", "svm"], flag, setting) for flag, setting in SKLP_FLOATS if flag != "--sigma"
] + [(["evaluate", reduction, "svm"], "--reg", "regularization") for reduction in ("lda", "dm", "sklp+dm")]
UNUSABLE_SETTINGS += [case for case in unusable_settings() if case not in UNUSABLE_SETTINGS]


def parser_leaves(parser, path=()):
    """(command path, parser) for every leaf of the parser tree, such as (("fit", "pca"), parser)."""
    branches = [action for action in parser._actions if isinstance(action, argparse._SubParsersAction)]
    if not branches:
        yield path, parser
    for branch in branches:
        for name, child in branch.choices.items():
            yield from parser_leaves(child, path + (name,))


def io_flags(command, data, out, tmp_path):
    """The input and output flags that `command` needs, with its primary output at `out`."""
    if command[0] == "synth":
        return ["--out", out]
    if command[0] == "classify":
        return ["--train", data, "--test", data, "--report", out]
    if command[0] == "evaluate":
        return ["--data", data, "--report", out, "--confusion", str(tmp_path / "c.csv")]
    return ["--data", data, "--out", out]


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
            "evaluate": ["evaluate", "pca", "knn", "--data", data, "--report", out,
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

    @pytest.mark.parametrize("command, flag, setting, value", UNUSABLE_SETTINGS)
    def test_unusable_setting_exits_2(self, tmp_path, capsys, gaussian_csv, command, flag, setting, value):
        """Every fixed bandwidth needs sigma > 0 and 2.2e-308 <= sigma^2 < inf: 1e-200 and 1e-160 square
        below the smallest normal float, 1e200 to inf. No float flag takes nan or inf, and synth's
        seed and group count must be >= 0."""
        out = tmp_path / "out"
        assert invoke(*command, flag, value, *io_flags(command, str(gaussian_csv), str(out), tmp_path)) == 2
        assert capsys.readouterr().err.startswith(f"data error: {setting} must be")
        assert not out.exists()
        assert not (tmp_path / "out.manifest.json").exists()

    @pytest.mark.parametrize("scale, command, message", [
        (1e155, ["diffuse"], "median distance inf has sigma^2 outside [2.2e-308, inf): rescale the features"),
        (1e155, ["fit", "sklp"], "covariance is not finite: rescale the features to a smaller magnitude"),
        (1e155, ["fit", "pca"], "covariance is not finite: rescale the features to a smaller magnitude"),
        (1e-160, ["fit", "sklp"], "the samples differ, but their covariance is below the solver's floor"),
        (1e-160, ["diffuse"], "has sigma^2 outside [2.2e-308, inf): rescale the features"),
        (1e155, ["fit", "lda"], "class scatter is not finite: rescale the features to a smaller magnitude"),
        (1e-160, ["fit", "lda"], "the features are too small (rescale the features to a larger magnitude)"),
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

    def test_overflowing_fit_warns_nothing_before_its_message(self, tmp_path, capsys, gaussian_csv):
        """The sums that overflow at x1e155 are reported by the command's own message alone."""
        data = load_csv(gaussian_csv)
        scaled = tmp_path / "scaled.csv"
        save_csv(dataclasses.replace(data, features=data.features * 1e155), scaled)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for command in (["fit", "pca"], ["fit", "lda"], ["fit", "sklp"], ["diffuse"]):
                assert invoke(*command, "--data", str(scaled), "--out", str(tmp_path / "m.json")) == 3, command
                err = capsys.readouterr().err
                assert err.startswith("numerical failure: ") and "rescale the features" in err, command

    def test_subnormal_svm_exits_3_without_a_warning(self, tmp_path, capsys, gaussian_csv):
        data = load_csv(gaussian_csv)
        scaled = tmp_path / "scaled.csv"
        save_csv(dataclasses.replace(data, features=data.features * 1e-310), scaled)
        report = tmp_path / "report.txt"
        argv = ["classify", "svm", "--train", str(scaled), "--test", str(scaled), "--report", str(report)]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert invoke(*argv) == 3
        err = capsys.readouterr().err
        assert err.startswith("numerical failure: the SVM weights are not finite: rescale the features to a larger "
                              "magnitude"), err
        assert not report.exists()

    @pytest.mark.parametrize("files, argv, code, message", [
        ({"m.txt": ""}, ["radon", "--manifest", "{tmp}/m.txt"], 2, "{tmp}/m.txt: empty manifest"),
        ({"m.txt": "path,label\n\n"}, ["radon", "--manifest", "{tmp}/m.txt"], 2, "{tmp}/m.txt: no frames listed"),
        ({"m.txt": "path,label\nf.pgm,walk\nf.pgm,walk,p0\n"}, ["radon", "--manifest", "{tmp}/m.txt"], 2,
         "{tmp}/m.txt: row 2: expected 2 fields"),
        ({"t.csv": "label,f0,f1\na,1,2\n"}, ["classify", "knn", "--train", "{data}", "--test", "{tmp}/t.csv"], 2,
         "train and test feature dimensions differ"),
        ({"t.csv": "label," + ",".join(f"f{j}" for j in range(8)) + "\nzz" + ",1" * 8 + "\n"},
         ["classify", "svm", "--train", "{data}", "--test", "{tmp}/t.csv"], 2,
         "test label 'zz' never appears in the training data"),
        ({}, ["classify", "knn", "--train", "{data}", "--test", "{data}", "--vote-by-group"], 2,
         "--vote-by-group requires a `group` column in the test data"),
        ({"h.csv": "label,f0,f1\n"}, ["fit", "pca", "--data", "{tmp}/h.csv"], 2, "{tmp}/h.csv: no data rows"),
        ({"m.json": "{kind: pca}"}, ["project", "--model", "{tmp}/m.json", "--data", "{data}"], 2,
         "{tmp}/m.json: malformed model file: Expecting property name enclosed in double quotes"),
        ({"m.json": json.dumps({"kind": "pca", "dim_in": 8, "dim_out": 1, "eigenvalues": [1.0],
                                "matrix": [[2.0]] + [[0.0]] * 7})},
         ["project", "--model", "{tmp}/m.json", "--data", "{data}"], 3,
         "{tmp}/m.json: projection columns are not orthonormal"),
    ])
    def test_bad_input_exits_with_its_message(self, tmp_path, capsys, gaussian_csv, files, argv, code, message):
        for name, text in files.items():
            (tmp_path / name).write_text(text)
        out = tmp_path / "out"
        argv = [arg.format(tmp=tmp_path, data=gaussian_csv) for arg in argv]
        argv += ["--report" if argv[0] == "classify" else "--out", str(out)]
        assert invoke(*argv) == code
        prefix = {2: "data error: ", 3: "numerical failure: "}[code]
        assert capsys.readouterr().err.startswith(prefix + message.format(tmp=tmp_path))
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
            "evaluate", "pca", "knn", "--data", str(data), "--dim", "50",
            "--report", str(report), "--confusion", str(tmp_path / "c.csv"),
        ) == 0
        echo = json.loads(report.read_text().splitlines()[-1].removeprefix("configuration: "))
        # the pca arm runs no diffusion map, so its echo names none
        assert "diffusion" not in echo
        assert echo["sklp"] == {"target_dim": 50}
        assert dims == {"pca": 8, "lda": 2}  # capped at the 8 features and at K - 1

    @pytest.mark.parametrize("kind, fit_baseline, dim, delivered", [
        ("pca", pca_fit, "auto", 2), ("pca", pca_fit, 5, 5), ("pca", pca_fit, 50, 8),
        ("lda", lda_fit, "auto", 2), ("lda", lda_fit, 1, 1), ("lda", lda_fit, 50, 2),
    ])
    def test_library_resolves_dim_as_the_cli_does(self, tmp_path, gaussian_csv, kind, fit_baseline, dim, delivered):
        # K = 3 classes in 8 features: "auto" is K - 1, and 50 caps at the 8 features (pca) or at K - 1 (lda)
        out = tmp_path / "m.json"
        assert invoke("fit", kind, "--data", str(gaussian_csv), "--dim", str(dim), "--out", str(out)) == 0
        written, fitted = load_model(out), fit_baseline(load_csv(gaussian_csv), dim)
        assert fitted.dim_out == written.dim_out == delivered
        np.testing.assert_array_equal(fitted.matrix, written.matrix)
        np.testing.assert_array_equal(fitted.eigenvalues, written.eigenvalues)

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

    def test_outputs_get_the_mode_open_gives(self, tmp_path):
        reference, out = tmp_path / "by-open.txt", tmp_path / "d.csv"
        umask = os.umask(0o022)  # a umask that leaves group and others some bits
        try:
            with open(reference, "w", encoding="utf-8") as handle:
                handle.write("x\n")
            assert invoke("synth", "rings", "--out", str(out)) == 0
        finally:
            os.umask(umask)
        for path in (out, tmp_path / "d.csv.manifest.json"):
            assert stat.S_IMODE(path.stat().st_mode) == stat.S_IMODE(reference.stat().st_mode), path
        for path in (reference, out):  # rewriting a file keeps its mode
            path.chmod(0o640)
        with open(reference, "w", encoding="utf-8") as handle:
            handle.write("y\n")
        assert invoke("synth", "rings", "--seed", "2", "--out", str(out)) == 0
        assert stat.S_IMODE(out.stat().st_mode) == stat.S_IMODE(reference.stat().st_mode) == 0o640

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
        out.unlink()
        flags = dict(manifest["flags"])
        replay = ["synth", flags.pop("shape")]
        for key, value in flags.items():
            replay += ["--" + key.replace("_", "-"), str(value)]
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
            "evaluate": (["evaluate", "pca", "knn", "--data", data, "--report", report,
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
            rho = ["--rho", "0.6"] if pipeline == "sklp+dm" else []
            assert invoke(
                "evaluate", pipeline, "knn", "--data", str(data), *rho,
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
                "evaluate", "pca", "knn", "--data", str(data),
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
            "evaluate", "sklp+dm", "knn", "--data", str(data), "--dim", "12",
            "--rho", "0.6", "--max-iters", "3",
            "--report", str(report), "--confusion", str(tmp_path / "c.csv"),
        ) == 0
        line = report.read_text().splitlines()[-1]
        echo = json.loads(line.removeprefix("configuration: "))
        assert echo["diffusion"]["embed_dim"] == 4  # --dim 12 capped at the 4 features

    def test_arm_records_and_echoes_only_its_settings(self, tmp_path):
        data = tmp_path / "d.csv"
        assert invoke(
            "synth", "gaussian", "--classes", "2", "--per-class", "6", "--dim", "3",
            "--seed", "1", "--groups", "2", "--out", str(data),
        ) == 0
        report = tmp_path / "r.txt"
        assert invoke(
            "evaluate", "pca", "knn", "--data", str(data), "--report", str(report),
            "--confusion", str(tmp_path / "c.csv"),
        ) == 0
        manifest = json.loads((tmp_path / "r.txt.manifest.json").read_text())
        assert set(manifest["flags"]) == {"pipeline", "classifier", "data", "dim", "k", "report", "confusion"}
        echo = json.loads(report.read_text().splitlines()[-1].removeprefix("configuration: "))
        # no svm, no diffusion, and no SKLP field but the projection dimension
        assert echo == {"reduction": "pca", "classifier": "knn", "sklp": {"target_dim": "auto"}, "knn": {"k": 1}}

    def test_negative_dm_dim_exits_2(self, tmp_path, capsys):
        data = tmp_path / "rings.csv"
        assert invoke(
            "synth", "rings", "--classes", "3", "--per-class", "12", "--dim", "4",
            "--noise", "0.2", "--seed", "2", "--groups", "3", "--out", str(data),
        ) == 0
        code = invoke(
            "evaluate", "sklp+dm", "knn", "--data", str(data), "--rho", "0.6",
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
        ["evaluate", "sklp+dm", "knn", "--data", "d.csv", "--report", "r.txt", "--confusion", "c.csv"],
        ["trace", "--data", "d.csv", "--out", "t.csv"],
    ):
        flags = vars(parser.parse_args(argv))
        assert {key: flags[key] for key in expected} == expected, argv[0]
    # fit sklp and trace take exactly the SKLP flags; the pca and lda baselines take only --dim
    io = {"command", "data", "out"}
    assert set(vars(parser.parse_args(["trace", "--data", "d.csv", "--out", "t.csv"]))) == io | set(table)
    for kind, settings in (("sklp", set(table)), ("pca", {"dim"}), ("lda", {"dim"})):
        flags = vars(parser.parse_args(["fit", kind, "--data", "d.csv", "--out", "m.json"]))
        assert set(flags) == io | {"kind"} | settings, kind
        assert flags["dim"] == "auto", kind


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

    def test_plain_path_list_keeps_commas_in_paths(self, tmp_path):
        pixels = np.zeros((6, 6), dtype=np.uint8)
        pixels[1:4, 2:5] = 1
        frame = tmp_path / "a,b.pgm"
        frame.write_bytes(b"P5 6 6 1\n" + pixels.tobytes())
        manifest = tmp_path / "list.txt"
        manifest.write_text(f" {frame.name} \n\n{frame}\n")
        out = tmp_path / "features.csv"
        assert invoke("radon", "--manifest", str(manifest), "--angles", "8", "--label", "x", "--out", str(out)) == 0
        expected = sequence_features([frame, frame], 8)
        np.testing.assert_array_equal(load_csv(out).features, expected)

    @pytest.mark.parametrize("flag", ["--label", "--group"])
    def test_headed_manifest_with_label_or_group_exits_2(self, tmp_path, capsys, flag):
        manifest = tmp_path / "frames.csv"
        manifest.write_text("path,label,group\nf.pgm,walk,p0\n")
        out = tmp_path / "o.csv"
        assert invoke("radon", "--manifest", str(manifest), flag, "x", "--out", str(out)) == 2
        assert "has a path,label header, so --label/--group do not apply" in capsys.readouterr().err
        assert not out.exists()

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


NO_MASKED_ARRAYS_SCRIPT = """
import sys
from sklpdm import cli

pixels = [[int(2 <= r < 6 and 2 <= c < 6) * 255 for c in range(8)] for r in range(10)]
for f in range(4):
    with open(f"f{f}.pgm", "w") as handle:
        handle.write("P2\\n8 10\\n255\\n" + "\\n".join(" ".join(map(str, row)) for row in pixels[f:] + pixels[:f]))
with open("frames.csv", "w") as handle:
    handle.write("path,label,group\\n" + "".join(f"f{f}.pgm,{'ab'[f % 2]},p{f // 2}\\n" for f in range(4)))
commands = [
    ["synth", "gaussian", "--classes", "3", "--per-class", "12", "--dim", "5", "--groups", "3", "--out", "d.csv"],
    ["radon", "--manifest", "frames.csv", "--angles", "12", "--out", "r.csv"],
    *(["fit", kind, "--data", "d.csv", "--out", f"{kind}.json"] for kind in ("sklp", "pca", "lda")),
    ["project", "--model", "sklp.json", "--data", "d.csv", "--out", "p.csv"],
    ["diffuse", "--data", "d.csv", "--out", "e.csv"],
    ["classify", "knn", "--train", "d.csv", "--test", "d.csv", "--vote-by-group", "--report", "knn.txt"],
    ["classify", "svm", "--train", "d.csv", "--test", "d.csv", "--report", "svm.txt"],
    ["evaluate", "pca", "knn", "--data", "d.csv", "--report", "ev.txt", "--confusion", "c.csv"],
    ["trace", "--data", "d.csv", "--out", "t.csv"],
]
for argv in commands:
    assert cli.run(argv) == 0, argv
    if "numpy.ma" in sys.modules:
        sys.exit(f"{' '.join(argv[:2])} imported numpy.ma")
"""


def test_no_command_imports_masked_arrays(tmp_path):
    """Importing numpy.ma costs a fresh process 15-20 ms, and no command needs it (np.unique would load it)."""
    src = str(Path(sys.modules["sklpdm"].__file__).resolve().parents[1])
    result = subprocess.run([sys.executable, "-c", NO_MASKED_ARRAYS_SCRIPT], cwd=tmp_path, capture_output=True,
                            text=True, timeout=120, env=dict(os.environ, PYTHONPATH=src))
    assert result.returncode == 0, result.stderr


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
        ["evaluate", "dm", "knn", "--data", "d.csv", "--report", "r.txt", "--confusion", "c.csv"]
    ))
    # --dm-dim 0 follows the projection dimension
    assert (flags["dm_dim"], flags["dm_sigma"], flags["time"]) == (0, default.bandwidth, default.time)


def test_classifier_flag_defaults_match_config():
    knn_table = {"k": "k"}  # flag -> KnnConfig field
    svm_table = {"reg": "regularization"}  # flag -> SvmConfig field
    assert sorted(knn_table.values()) == _field_names(KnnConfig)
    assert sorted(svm_table.values()) == _field_names(SvmConfig)
    knn = {flag: getattr(KnnConfig(), name) for flag, name in knn_table.items()}
    svm = {flag: getattr(SvmConfig(), name) for flag, name in svm_table.items()}
    parser = _build_parser()
    io = {"command", "method", "train", "test", "vote_by_group", "report"}
    evaluate_io = {"command", "pipeline", "classifier", "data", "dim", "report", "confusion"}
    for method, expected in (("knn", knn), ("svm", svm)):
        flags = vars(parser.parse_args(["classify", method, "--train", "a.csv", "--test", "b.csv",
                                        "--report", "r.txt"]))
        assert set(flags) == io | set(expected), method  # each method takes only its own settings
        assert {key: flags[key] for key in expected} == expected, method
        flags = vars(parser.parse_args(
            ["evaluate", "pca", method, "--data", "d.csv", "--report", "r.txt", "--confusion", "c.csv"]
        ))
        assert set(flags) == evaluate_io | set(expected), method
        assert {key: flags[key] for key in expected} == expected, method
    assert "seed" not in flags  # svm training consumes no randomness


def test_synth_flags_per_shape():
    parser = _build_parser()
    shared = {"command", "shape", "classes", "per_class", "dim", "seed", "groups", "out"}
    for shape, settings in (("gaussian", {"spread", "separation"}), ("rings", {"noise"})):
        assert set(vars(parser.parse_args(["synth", shape, "--out", "d.csv"]))) == shared | settings, shape


@pytest.mark.parametrize("argv", [
    ["fit", "pca", "--rho", "0.5"],
    ["fit", "lda", "--tol", "nan"],
    ["classify", "knn", "--reg", "1"],
    ["classify", "svm", "--k", "3"],
    ["synth", "gaussian", "--noise", "0.1"],
    ["synth", "rings", "--spread", "2"],
    ["evaluate", "pca", "knn", "--dm-dim", "-3"],
    ["evaluate", "dm", "svm", "--rho", "0.5"],
    ["evaluate", "sklp+dm", "knn", "--reg", "1"],
    ["evaluate", "pca", "svm", "--k", "3"],
    ["classify", "svm", "--epochs", "200"],  # the SVM stops on its Newton decrement
    ["evaluate", "pca", "svm", "--epochs", "200"],
])
def test_flag_of_another_kind_is_a_usage_error(tmp_path, capsys, gaussian_csv, argv):
    out = tmp_path / "out"
    assert invoke(*argv, *io_flags(argv, str(gaussian_csv), str(out), tmp_path)) == 1
    flag = next(arg for arg in argv if arg.startswith("--"))
    assert capsys.readouterr().err.startswith(f"usage error: unrecognized arguments: {flag}")
    assert not out.exists()
    assert not (tmp_path / "c.csv").exists()


def test_readme_cli_examples_parse():
    """Every `sklpdm` line of the README's CLI block parses, so the docs cannot drift from the parser."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("## CLI", 1)[1].split("```bash\n", 1)[1].split("```", 1)[0]
    commands = [line for line in block.replace("\\\n", " ").splitlines() if line.startswith("sklpdm ")]
    assert len(commands) >= 10
    parser = _build_parser()
    for line in commands:
        parser.parse_args(shlex.split(line)[1:])


def test_every_float_flag_is_swept():
    """FLOAT_FLAGS names every float flag of every leaf once, so each is swept at nan and inf."""
    float_flags = {
        (path, flag)
        for path, leaf in parser_leaves(_build_parser())
        for action in leaf._actions
        if action.type in (float, _auto_or_float)
        for flag in action.option_strings
    }
    assert sorted((tuple(command), flag) for command, flag, _ in FLOAT_FLAGS) == sorted(float_flags)


def test_readme_flag_table_matches_parser():
    """Each row of the README's CLI flag table lists exactly the flags of the leaves it names, and
    every leaf of the parser has a row."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    table = readme.split("| command and kind | flags |\n|---|---|\n", 1)[1].split("\n\n", 1)[0]
    leaves = dict(parser_leaves(_build_parser()))
    named = []
    for row in table.splitlines():
        names, flags = row.strip("|").split("|")
        for name in re.findall(r"`([^`]+)`", names):
            named.append(tuple(name.split()))
            parsed = {flag for action in leaves[named[-1]]._actions for flag in action.option_strings}
            assert parsed - {"-h", "--help"} == set(re.findall(r"--[a-z-]+", flags)), name
    assert sorted(named) == sorted(leaves)
