"""Guards for code outside the package that binds sklpdm names.

The benchmark's tracer (bench/tracing.py) wraps the functions listed in its
TRACED table, and a traced run fails when a listed function is missing or
records no calls. These checks catch a removed or renamed name, a changed
signature, or a layer the pipeline no longer calls, here, in the fast test
run, instead of only in the benchmark smoke tests. The output comparison
tool (tools/compare_outputs.py) is checked the same way.
"""

import importlib
import importlib.util
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np

import sklpdm

ROOT = Path(__file__).resolve().parents[1]
TRACING = ROOT / "bench" / "tracing.py"
COMPARE = ROOT / "tools" / "compare_outputs.py"


def load_module(name, path):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def load_tracing():
    return load_module("bench_tracing", TRACING)


def test_every_traced_function_resolves():
    traced = load_tracing().TRACED
    assert traced
    missing = [
        f"sklpdm.{module}.{name}"
        for module, name in traced
        if not callable(getattr(importlib.import_module(f"sklpdm.{module}"), name, None))
    ]
    assert missing == []


def test_every_traced_sklp_layer_records_calls():
    tracing = load_tracing()
    tracer = tracing.Tracer()
    data = sklpdm.gen_gaussian_classes(3, 10, 4, 1.0, 6.0, seed=0)
    config = sklpdm.SklpConfig(rho=0.5, max_iters=2)
    tracer.install()
    try:
        # through the module attributes, which install() replaced
        sklpdm.sklp_projection.init_state(data, config)
        sklpdm.sklp_projection.fit(data, config)
    finally:
        tracer.uninstall()
    layers = [name for (module, _), name in tracing.TRACED.items() if module == "sklp_projection"]
    assert layers
    assert [name for name in layers if not tracer.calls.get(name)] == []


def test_every_traced_layer_records_calls(tmp_path):
    tracing = load_tracing()
    tracer = tracing.Tracer()
    frames = []
    for f, rows in enumerate(("0 1 0\n1 1 0\n0 1 1", "1 1 0\n0 1 0\n0 0 0")):
        frames.append(tmp_path / f"f{f}.pgm")
        frames[-1].write_text(f"P2\n3 3\n1\n{rows}\n")
    data = sklpdm.with_groups(sklpdm.gen_gaussian_classes(3, 8, 4, 1.0, 6.0, seed=0), 2)
    pipeline = sklpdm.PipelineConfig(reduction="sklp+dm", sklp=sklpdm.SklpConfig(rho=0.5, max_iters=2))
    tracer.install()
    try:
        # through the module attributes, which install() replaced
        features = sklpdm.silhouette_features.sequence_features(frames, 4)
        sklpdm.dataset.save_csv(data, tmp_path / "d.csv")
        loaded = sklpdm.dataset.load_csv(tmp_path / "d.csv")
        sklpdm.classify_eval.cross_validate_actions(loaded, pipeline)
        sklpdm.classify_eval.svm_fit((loaded.features, loaded.labels), sklpdm.SvmConfig(epochs=2))
        model = sklpdm.diffusion_map.fit(loaded.features, pipeline.diffusion)
        sklpdm.diffusion_map.save_model_json(model, tmp_path / "dm.json")
    finally:
        tracer.uninstall()
    assert features.shape == (4, 2)
    np.testing.assert_array_equal(loaded.features, data.features)
    assert [name for name in tracing.TRACED.values() if not tracer.calls.get(name)] == []


def test_every_public_name_resolves():
    missing = [name for name in sklpdm.__all__ if not hasattr(sklpdm, name)]
    assert missing == []


def test_compare_outputs_flags_each_breach():
    deviations = load_module("compare_outputs", COMPARE).deviations
    fit = {"iteration": 3, "best_index": 2, "objective_history": [1.0, 2.0, 3.0, 2.5], "matrix": [[1.0], [0.0]]}
    assert deviations(fit, fit)[1]
    assert deviations(fit, dict(fit, objective_history=[1.0, 2.0, 3.0 + 1e-12, 2.5], matrix=[[1.0], [1e-11]]))[1]
    breaches = [
        dict(fit, iteration=4),
        dict(fit, best_index=1),
        dict(fit, objective_history=[1.0, 2.0, 3.0 + 1e-9, 2.5]),
        dict(fit, matrix=[[1.0], [1e-9]]),
        dict(fit, matrix=[[1.0, 0.0], [0.0, 1.0]]),
    ]
    assert [deviations(fit, changed)[1] for changed in breaches] == [False] * len(breaches)
    cv = {"confusion": [[2, 0], [1, 1]], "fold_accuracies": [1.0, 0.5]}
    assert deviations(cv, cv)[1]
    assert not deviations(cv, dict(cv, confusion=[[1, 1], [1, 1]]))[1]
    dm = {"eigenvalues": [1.0, 0.5], "embedding": [[0.25], [-0.25]], "extended": [[0.125]]}
    assert deviations(dm, dm)[1]
    assert deviations(dm, dict(dm, embedding=[[0.25 + 1e-11], [-0.25]]))[1]
    breaches = [
        dict(dm, eigenvalues=[1.0, 0.5 + 1e-9]),
        dict(dm, embedding=[[0.25], [-0.25 + 1e-9]]),
        dict(dm, extended=[[0.125 + 1e-9]]),
        dict(dm, extended=[[0.125], [0.0]]),
    ]
    assert [deviations(dm, changed)[1] for changed in breaches] == [False] * len(breaches)
    summary, ok = deviations(dict(dm, solve="dense"), dict(dm, solve="iterative, 12 sweeps"))
    assert ok and summary.endswith("(solve dense / iterative, 12 sweeps)")
    model = {"matrix": [[1.0], [0.0]], "eigenvalues": [2.0]}
    assert deviations(model, model)[1]
    assert deviations(model, dict(model, eigenvalues=[2.0 + 1e-11]))[1]
    breaches = [dict(model, matrix=[[1.0], [1e-9]]), dict(model, eigenvalues=[2.0 + 1e-9]),
                dict(model, matrix=[[1.0, 0.0], [0.0, 1.0]])]
    assert [deviations(model, changed)[1] for changed in breaches] == [False] * len(breaches)
    read = {"exact": {"features": [[0.5, -0.0]], "label names": ["walk, fast"]}}
    assert deviations(read, read) == ("bit-identical", True)
    breaches = [{"exact": {"features": [[0.5, 0.0]], "label names": ["walk, fast"]}},
                {"exact": {"features": [[0.5, -0.0]], "label names": ["walk"]}},
                {"exact": {"features": [[0.5, -0.0]]}}]
    assert [deviations(read, changed) for changed in breaches] == [
        ("differ in features", False), ("differ in label names", False), ("differ in label names", False)]
    assert deviations(None, cv) == ("old tree has no such case", False)
    assert deviations(cv, None) == ("new tree has no such case", False)
    assert deviations(cv, {"error": "DataError('bad frame')"}) == ("new tree raised DataError('bad frame')", False)
    assert deviations({"error": "KeyError('x')"}, None) == (
        "old tree raised KeyError('x'); new tree has no such case", False)


def run_compare(old, new):
    """(exit code, case name -> "ok" or "BREACH", output) of tools/compare_outputs.py OLD NEW."""
    proc = subprocess.run([sys.executable, str(COMPARE), str(old), str(new)], capture_output=True, text=True, timeout=300)
    verdicts = {name: status for status, name in re.findall(r"^(ok|BREACH) +(.+?):", proc.stdout, re.M)}
    return proc.returncode, verdicts, proc.stdout + proc.stderr


def test_compare_outputs_accepts_a_tree_against_itself():
    src = Path(sklpdm.__file__).resolve().parents[1]
    code, verdicts, output = run_compare(src, src)
    assert code == 0, output
    assert "BREACH" not in output and "34/34 cases within the contract" in output
    assert len([name for name in verdicts if name.startswith("diffusion")]) == 8
    assert len([name for name in verdicts if name.startswith("cli fit")]) == 4
    assert re.findall(r"^ok +(read .+): bit-identical$", output, re.M) == ["read load_csv", "read sequence_features"]
    assert re.search(r"^ok +diffusion ring fold n=250: .*\(solve iterative, \d+ sweeps / iterative, \d+ sweeps\)$",
                     output, re.M), output
    assert re.search(r"^ok +diffusion flat spectrum n=300: .*\(solve dense after 30 sweeps / dense after 30 sweeps\)$",
                     output, re.M), output


def test_compare_outputs_flags_a_nudged_diffusion_kernel(tmp_path):
    """A copy whose diffusion kernel uses sigma * (1 + 1e-7) breaches every diffusion case and nothing else."""
    src = Path(sklpdm.__file__).resolve().parents[1]
    shutil.copytree(src / "sklpdm", tmp_path / "sklpdm", ignore=shutil.ignore_patterns("__pycache__"))
    with open(tmp_path / "sklpdm" / "diffusion_map.py", "a", encoding="utf-8") as handle:
        handle.write(
            "\n_exact_kernel = gaussian_kernel\n\n\n"
            "def gaussian_kernel(M, sigma, out):\n"
            "    return _exact_kernel(M, sigma * (1 + 1e-7), out)\n"
        )
    code, verdicts, output = run_compare(src, tmp_path)
    diffusion = [name for name in verdicts if name.startswith("diffusion")]
    assert len(verdicts) == 34 and len(diffusion) == 8, output
    assert [name for name, status in verdicts.items() if status == "BREACH"] == diffusion
    assert code == 1


def test_compare_outputs_reports_each_case_when_one_raises(tmp_path):
    """A copy whose sequence_features raises and which drops the dm arm: those cases breach, every other reports."""
    src = Path(sklpdm.__file__).resolve().parents[1]
    shutil.copytree(src / "sklpdm", tmp_path / "sklpdm", ignore=shutil.ignore_patterns("__pycache__"))
    with open(tmp_path / "sklpdm" / "silhouette_features.py", "a", encoding="utf-8") as handle:
        handle.write("\n\ndef sequence_features(paths, angles):\n    raise DataError('no frames today')\n")
    with open(tmp_path / "sklpdm" / "classify_eval.py", "a", encoding="utf-8") as handle:
        handle.write('\nPIPELINES = ("pca", "lda", "sklp+dm")\n')
    code, verdicts, output = run_compare(src, tmp_path)
    assert code == 1 and len(verdicts) == 34, output
    assert [name for name, status in verdicts.items() if status == "BREACH"] == [
        "read sequence_features", "cv dm knn", "cv dm svm"], output
    assert re.search(r"^BREACH read sequence_features: new tree raised DataError\('no frames today'\)$", output, re.M)
    assert re.search(r"^BREACH cv dm knn: new tree has no such case$", output, re.M)
    assert "31/34 cases within the contract" in output

