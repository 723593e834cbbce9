"""Compare the library outputs of two source trees under the tolerance contract.

    python3 tools/compare_outputs.py OLD_SRC NEW_SRC

OLD_SRC and NEW_SRC are directories that hold an `sklpdm` package (a
checkout's `src`). The tool runs a fixed set of SKLP fits, diffusion fits
with their Nystrom extensions, and all 8 cross-validation pipelines
(4 reductions x KNN/SVM) once per tree, each in its own subprocess with
only that tree on PYTHONPATH. It prints every case's deviations and exits
1 if any case breaches the contract that the README states under
"Tolerance contract":

  - SKLP fits: the same iteration count and best iterate, every objective
    within 1e-12 (|J| + 1), and the kept directions within 1e-10;
  - diffusion fits: eigenvalues, embedding and extended held-out points
    within 1e-10 entrywise;
  - cross-validation: equal confusion counts and fold accuracies.
"""

import argparse
import json
import os
import subprocess
import sys

import numpy as np

OBJECTIVE_TOL = 1e-12
MODEL_TOL = 1e-10


def sklp_cases(sklpdm):
    """name -> (dataset, SklpConfig) of the compared fits."""
    cases = {}
    for seed in range(3):
        data = sklpdm.gen_ring_classes(4, 60, 0.4, 60, seed)
        for rho, eta in ((0.6, 0.1), (0.5, 1.0), (0.7, 0.37)):
            cases[f"fit rings s{seed} rho={rho} eta={eta}"] = (
                data, sklpdm.SklpConfig(rho=rho, learning_rate=eta))
    cases["fit gaussian 5x200 D=180"] = (
        sklpdm.gen_gaussian_classes(5, 200, 180, 1.0, 4.0, 0), sklpdm.SklpConfig(rho=0.6, max_iters=20))
    cases["fit gaussian 3x100 D=20"] = (
        sklpdm.gen_gaussian_classes(3, 100, 20, 1.0, 4.0, 1), sklpdm.SklpConfig(rho=0.5))
    cases["fit three points"] = (
        sklpdm.LabeledDataset([[0.0, 1.0, 3.0], [0.5, -1.0, 2.0]], [0, 0, 1], 2), sklpdm.SklpConfig(rho=0.5))
    return cases


def diffusion_cases(sklpdm):
    """name -> (training columns, held-out columns, DiffusionConfig) of the compared diffusion fits."""
    cases = {}
    for n in (30, 120, 300):
        X = sklpdm.gen_gaussian_classes(3, n // 2, 5, 1.0, 4.0, n).features
        held = np.arange(X.shape[1]) % 3 == 0
        for sigma in (3.0, "auto"):
            cases[f"diffusion n={n} sigma={sigma}"] = (
                X[:, ~held], X[:, held], sklpdm.DiffusionConfig(bandwidth=sigma, embed_dim=3, time=2))
    return cases


def collect():
    """Run every case with the importable sklpdm; returns name -> record."""
    import sklpdm
    from sklpdm import classify_eval, diffusion_map

    records = {"sklpdm": os.path.dirname(os.path.dirname(os.path.abspath(sklpdm.__file__)))}
    for name, (data, config) in sklp_cases(sklpdm).items():
        model, state = sklpdm.fit(data, config)
        records[name] = {
            "iteration": state.iteration,
            "best_index": state.best_index,
            "objective_history": [float(j) for j in state.objective_history],
            "matrix": model.matrix.tolist(),
        }
    for name, (train, held, config) in diffusion_cases(sklpdm).items():
        model = diffusion_map.fit(train, config)
        records[name] = {
            "eigenvalues": model.eigenvalues.tolist(),
            "embedding": model.embedding.tolist(),
            "extended": diffusion_map.extend(model, held).tolist(),
        }
    data = sklpdm.with_groups(sklpdm.gen_ring_classes(4, 48, 0.5, 30, 7), 4)
    for reduction in classify_eval.PIPELINES:
        for classifier in ("knn", "svm"):
            pipeline = classify_eval.PipelineConfig(
                reduction=reduction, classifier=classifier, sklp=sklpdm.SklpConfig(rho=0.6))
            result = classify_eval.cross_validate_actions(data, pipeline)
            records[f"cv {reduction} {classifier}"] = {
                "confusion": result.confusion.counts.tolist(),
                "fold_accuracies": list(result.fold_accuracies),
            }
    return records


def deviations(old, new):
    """(summary, within contract) of one case's two records."""
    if "confusion" in old:
        return ("equal", True) if old == new else (f"differ: {old} vs {new}", False)
    if "embedding" in old:
        pairs = [(np.array(old[key]), np.array(new[key])) for key in ("eigenvalues", "embedding", "extended")]
        d_max = max(np.max(np.abs(b - a)) if a.shape == b.shape else np.inf for a, b in pairs)
        return f"eigenvalues, embedding and extension {d_max:.1e}", bool(d_max <= MODEL_TOL)
    summary = f"iterations {old['iteration']}/{new['iteration']} best {old['best_index']}/{new['best_index']}"
    if (old["iteration"], old["best_index"]) != (new["iteration"], new["best_index"]):
        return summary, False
    history = np.array(old["objective_history"])
    d_objective = np.max(np.abs(np.array(new["objective_history"]) - history) / (np.abs(history) + 1.0))
    old_matrix, new_matrix = np.array(old["matrix"]), np.array(new["matrix"])
    d_model = np.max(np.abs(new_matrix - old_matrix)) if new_matrix.shape == old_matrix.shape else np.inf
    summary += f" objective {d_objective:.1e} model {d_model:.1e}"
    return summary, bool(d_objective <= OBJECTIVE_TOL and d_model <= MODEL_TOL)


def run_tree(src):
    """The records of one source tree, collected in a subprocess."""
    src = os.path.abspath(src)
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, os.path.abspath(__file__), "--collect"],
                          env=env, capture_output=True, text=True)
    if proc.returncode != 0:
        sys.exit(f"{src}: collection failed:\n{proc.stderr}")
    records = json.loads(proc.stdout)
    if records.pop("sklpdm") != src:
        sys.exit(f"{src}: sklpdm was imported from elsewhere")
    return records


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("old_src", nargs="?")
    parser.add_argument("new_src", nargs="?")
    parser.add_argument("--collect", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.collect:
        print(json.dumps(collect()))
        return 0
    if args.new_src is None:
        parser.error("OLD_SRC and NEW_SRC are required")
    old, new = run_tree(args.old_src), run_tree(args.new_src)
    breaches = 0
    for name in old:
        summary, ok = deviations(old[name], new[name])
        breaches += not ok
        print(f"{'ok    ' if ok else 'BREACH'} {name}: {summary}")
    print(f"{len(old) - breaches}/{len(old)} cases within the contract")
    return 1 if breaches else 0


if __name__ == "__main__":
    sys.exit(main())
