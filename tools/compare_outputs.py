"""Compare the library outputs of two source trees under the tolerance contract.

    python3 tools/compare_outputs.py OLD_SRC NEW_SRC

OLD_SRC and NEW_SRC are directories that hold an `sklpdm` package (a
checkout's `src`). The tool runs a fixed set of SKLP fits, diffusion fits
with their Nystrom extensions, `fit pca` and `fit lda` through the tree's
`sklpdm.cli.run`, one chain of `python -m sklpdm` processes (`radon`,
`classify svm --vote-by-group`, `diffuse`), two read paths (`load_csv`
on a plain and on a quoted-label file, `sequence_features` on P2 and P5
frames with header comments) and all 8 cross-validation pipelines
(4 reductions x KNN/SVM) in one subprocess per tree with only that tree
on PYTHONPATH. Each case runs on its own, so a case that raises is
reported as a breach naming its exception while the others still report,
and so is a case that only one tree has. It prints every case's deviations, and for a diffusion case how
each tree solved it (iterative or dense, and the sweeps run). It exits 1
if any case breaches the contract that the README states under
"Tolerance contract":

  - SKLP fits: the same iteration count and best iterate, every objective
    within 1e-12 (|J| + 1), and the kept directions within 1e-10;
  - diffusion fits: eigenvalues, embedding and extended held-out points
    within 1e-10 entrywise;
  - `fit pca|lda` models: matrix and eigenvalues within 1e-10 entrywise;
  - read paths and the process chain: every value, and every byte the
    chain wrote, bit for bit (manifests without `duration_s`);
  - cross-validation: equal confusion counts and fold accuracies.

It also prints the line count of each tree's `sklpdm/*.py` (as `wc -l`
counts them) and the difference.
"""

import argparse
import functools
import glob
import json
import os
import subprocess
import sys
import tempfile

import numpy as np

OBJECTIVE_TOL = 1e-12
MODEL_TOL = 1e-10


def sklp_cases(sklpdm):
    """name -> function returning the (dataset, SklpConfig) of a compared fit."""
    cases = {}
    for seed in range(3):
        for rho, eta in ((0.6, 0.1), (0.5, 1.0), (0.7, 0.37)):
            cases[f"fit rings s{seed} rho={rho} eta={eta}"] = lambda seed=seed, rho=rho, eta=eta: (
                sklpdm.gen_ring_classes(4, 60, 0.4, 60, seed), sklpdm.SklpConfig(rho=rho, learning_rate=eta))
    cases["fit gaussian 5x200 D=180"] = lambda: (
        sklpdm.gen_gaussian_classes(5, 200, 180, 1.0, 4.0, 0), sklpdm.SklpConfig(rho=0.6, max_iters=20))
    cases["fit gaussian 3x100 D=20"] = lambda: (
        sklpdm.gen_gaussian_classes(3, 100, 20, 1.0, 4.0, 1), sklpdm.SklpConfig(rho=0.5))
    cases["fit three points"] = lambda: (
        sklpdm.LabeledDataset([[0.0, 1.0, 3.0], [0.5, -1.0, 2.0]], [0, 0, 1], 2), sklpdm.SklpConfig(rho=0.5))
    return cases


def diffusion_cases(sklpdm):
    """name -> function returning the (training columns, held-out columns, DiffusionConfig) of a compared fit."""
    def gaussians(n, sigma):
        X = sklpdm.gen_gaussian_classes(3, n // 2, 5, 1.0, 4.0, n).features
        held = np.arange(X.shape[1]) % 3 == 0
        return X[:, ~held], X[:, held], sklpdm.DiffusionConfig(bandwidth=sigma, embed_dim=3, time=2)

    def ring_fold():
        # the sklp+dm arm's training fold (n = 250) and held-out group, as cross_validate_actions feeds them
        data = sklpdm.with_groups(sklpdm.gen_ring_classes(5, 60, 0.5, 60, 3), 6)
        held = data.groups == 0
        fold = sklpdm.LabeledDataset(data.features[:, ~held], data.labels[~held], data.class_count)
        model, _ = sklpdm.fit(fold, sklpdm.SklpConfig(rho=0.6))
        return (sklpdm.project(model, fold.features), sklpdm.project(model, data.features[:, held]),
                sklpdm.DiffusionConfig())

    def permuted_ring_fold():
        # the same fold with its columns in a seeded random order, which the start block must not depend on
        train, held, config = ring_fold()
        return train[:, np.random.default_rng(0).permutation(train.shape[1])], held, config

    def flat_spectrum():
        # unit-sum uniform columns: a flat spectrum that exhausts the sweep cap (n = 300)
        X = np.random.default_rng(0).random((180, 360))
        X /= X.sum(axis=0)
        return X[:, :300], X[:, 300:], sklpdm.DiffusionConfig(embed_dim=2)

    cases = {f"diffusion n={n} sigma={sigma}": functools.partial(gaussians, n, sigma)
             for n in (30, 120, 300) for sigma in (3.0, "auto")}
    cases["diffusion ring fold n=250"] = ring_fold
    cases["diffusion ring fold n=250, columns permuted"] = permuted_ring_fold
    cases["diffusion flat spectrum n=300"] = flat_spectrum
    return cases


def cli_fit_cases():
    """name -> function returning the {matrix, eigenvalues} of `fit pca|lda` at --dim auto or above the 8 features."""
    def record(kind, dim):
        from sklpdm import cli

        def run(*argv):
            if cli.run(list(argv)) != 0:
                raise RuntimeError(f"sklpdm {' '.join(argv)} failed")

        with tempfile.TemporaryDirectory() as tmp:
            data, model_path = os.path.join(tmp, "d.csv"), os.path.join(tmp, "model.json")
            run("synth", "gaussian", "--classes", "3", "--per-class", "30", "--dim", "8", "--seed", "1", "--out", data)
            run("fit", kind, "--data", data, "--dim", dim, "--out", model_path)
            with open(model_path, encoding="utf-8") as handle:
                model = json.load(handle)
        return {key: model[key] for key in ("matrix", "eigenvalues")}

    return {f"cli fit {kind} --dim {dim}": functools.partial(record, kind, dim)
            for kind in ("pca", "lda") for dim in ("auto", "50")}


def cli_process_cases(sklpdm):
    """name -> function returning {"exact": files} of a `python -m sklpdm` chain on the PGM frames: radon,
    `classify svm --vote-by-group` and diffuse, each in its own process of the given package's tree. files
    maps every file the chain wrote to its text, or for a manifest to its JSON without `duration_s`."""
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(os.path.abspath(sklpdm.__file__))))

    def chain():
        with tempfile.TemporaryDirectory() as tmp:
            frames = [(os.path.basename(path), ("walk", "run")[f % 2]) for f, path in enumerate(pgm_frames(tmp))]
            for split, order in (("train", frames), ("test", frames[::-1])):
                rows = "".join(f"{name},{label},{split}{i // 2}\n" for i, (name, label) in enumerate(order))
                with open(os.path.join(tmp, f"{split}.txt"), "w", encoding="utf-8") as handle:
                    handle.write("path,label,group\n" + rows)
            inputs = set(os.listdir(tmp))
            for argv in (
                ["radon", "--manifest", "train.txt", "--angles", "36", "--out", "train.csv"],
                ["radon", "--manifest", "test.txt", "--angles", "36", "--out", "test.csv"],
                ["classify", "svm", "--train", "train.csv", "--test", "test.csv", "--vote-by-group",
                 "--report", "svm.txt"],
                ["diffuse", "--data", "train.csv", "--dim", "2", "--out", "embedding.csv"],
            ):
                proc = subprocess.run([sys.executable, "-m", "sklpdm", *argv], cwd=tmp, env=env, capture_output=True,
                                      text=True)
                if proc.returncode != 0:
                    raise RuntimeError(f"sklpdm {argv[0]} exited {proc.returncode}: {proc.stderr.strip()}")
            files = {}
            for name in sorted(set(os.listdir(tmp)) - inputs):
                with open(os.path.join(tmp, name), encoding="utf-8") as handle:
                    files[name] = handle.read()
                if name.endswith(".manifest.json"):
                    files[name] = json.loads(files[name])
                    del files[name]["duration_s"]
        return {"exact": files}

    return {"cli process radon, classify svm, diffuse": chain}


PLAIN_CSV = """label,f0,f1,group
run,1.5,-2,a1
walk,0.1,3e-5,a2
run,-0.0,7,a1
jump,1e300,0.30000000000000004,a3
walk,2.5e-308,-1.25,a2
"""
QUOTED_CSV = '''group,f0,label,f1
g2,1,"walk, fast",0.5
g1,2,"say ""hi""",-0.5
g2,3,run,1e-3
g1,4,"walk, fast",-1e3
'''


def pgm_frames(tmp):
    """Paths of P2 and P5 silhouette frames (ellipses at several offsets) whose headers carry comments."""
    rows, cols = np.mgrid[:24, :16]
    paths = []
    for f, (dy, dx, ry, rx) in enumerate(((0, 0, 8, 4), (3, -2, 6, 5), (-4, 3, 9, 3), (1, 1, 4, 6))):
        pixels = ((rows - 12 - dy) / ry) ** 2 + ((cols - 8 - dx) / rx) ** 2 <= 1.0
        if f % 2:
            data = b"P5\n# frame %d\n16 24 # width height\n255\n" % f + (pixels * 255).astype(np.uint8).tobytes()
        else:
            raster = "\r".join(" ".join(str(v) for v in row) for row in pixels.astype(int))
            data = b"P2#frame %d\r16\t24\r#maxval # next\r1\r" % f + raster.encode()
        paths.append(os.path.join(tmp, f"frame{f}.pgm"))
        with open(paths[-1], "wb") as handle:
            handle.write(data)
    return paths


def read_cases(sklpdm):
    """name -> function returning {"exact": values} of a read path, each value to be reproduced bit for bit."""
    def load_csv_values():
        exact = {}
        with tempfile.TemporaryDirectory() as tmp:
            for kind, text in (("plain", PLAIN_CSV), ("quoted", QUOTED_CSV)):
                path = os.path.join(tmp, f"{kind}.csv")
                with open(path, "w", encoding="utf-8", newline="") as handle:
                    handle.write(text)
                data = sklpdm.load_csv(path)
                exact[f"{kind} features"] = data.features.tolist()
                exact[f"{kind} label ids"] = data.labels.tolist()
                exact[f"{kind} label names"] = list(data.label_names)
                exact[f"{kind} group ids"] = data.groups.tolist()
        return {"exact": exact}

    def sequence_features_values():
        with tempfile.TemporaryDirectory() as tmp:
            features = sklpdm.silhouette_features.sequence_features(pgm_frames(tmp), 36)
        return {"exact": {"features": features.tolist()}}

    return {"read load_csv": load_csv_values, "read sequence_features": sequence_features_values}


def cv_cases(sklpdm):
    """name -> function returning the confusion counts and fold accuracies of one cross-validated pipeline."""
    def record(reduction, classifier):
        data = sklpdm.with_groups(sklpdm.gen_ring_classes(4, 48, 0.5, 30, 7), 4)
        pipeline = sklpdm.classify_eval.PipelineConfig(
            reduction=reduction, classifier=classifier, sklp=sklpdm.SklpConfig(rho=0.6))
        result = sklpdm.classify_eval.cross_validate_actions(data, pipeline)
        return {"confusion": result.confusion.counts.tolist(), "fold_accuracies": list(result.fold_accuracies)}

    return {f"cv {reduction} {classifier}": functools.partial(record, reduction, classifier)
            for reduction in sklpdm.classify_eval.PIPELINES for classifier in ("knn", "svm")}


def solve_summary(model):
    """How a diffusion fit solved its pairs; a tree without the solve fields solved densely."""
    sweeps = getattr(model, "sweeps", 0)
    if not getattr(model, "dense_fallback", True):
        return f"iterative, {sweeps} sweeps"
    return f"dense after {sweeps} sweeps" if sweeps else "dense"


def collect():
    """Run every case with the importable sklpdm; returns name -> record, {"error": ...} for a case that raised."""
    import sklpdm

    def sklp_record(data, config):
        model, state = sklpdm.fit(data, config)
        return {
            "iteration": state.iteration,
            "best_index": state.best_index,
            "objective_history": [float(j) for j in state.objective_history],
            "matrix": model.matrix.tolist(),
        }

    def diffusion_record(train, held, config):
        model = sklpdm.diffusion_map.fit(train, config)
        return {
            "eigenvalues": model.eigenvalues.tolist(),
            "embedding": model.embedding.tolist(),
            "extended": sklpdm.diffusion_map.extend(model, held).tolist(),
            "solve": solve_summary(model),
        }

    cases = {name: lambda make=make: sklp_record(*make()) for name, make in sklp_cases(sklpdm).items()}
    cases.update({name: lambda make=make: diffusion_record(*make()) for name, make in diffusion_cases(sklpdm).items()})
    cases.update(cli_fit_cases())
    cases.update(cli_process_cases(sklpdm))
    cases.update(read_cases(sklpdm))
    cases.update(cv_cases(sklpdm))
    records = {"sklpdm": os.path.dirname(os.path.dirname(os.path.abspath(sklpdm.__file__)))}
    for name, record in cases.items():
        try:
            records[name] = record()
        except Exception as exc:  # this case breaches; the others still report
            records[name] = {"error": repr(exc)}
    return records


def max_deviation(old, new, keys):
    """The largest entrywise |new - old| over the named arrays of two records; inf where a shape differs."""
    pairs = [(np.array(old[key]), np.array(new[key])) for key in keys]
    return max(np.max(np.abs(b - a)) if a.shape == b.shape else np.inf for a, b in pairs)


def deviations(old, new):
    """(summary, within contract) of one case's two records; None for a tree that has no such case."""
    failed = [f"{side} tree {'has no such case' if record is None else 'raised ' + record['error']}"
              for side, record in (("old", old), ("new", new)) if record is None or "error" in record]
    if failed:
        return "; ".join(failed), False
    if "exact" in old:
        differ = [key for key in {**old["exact"], **new["exact"]}
                  if json.dumps(old["exact"].get(key)) != json.dumps(new["exact"].get(key))]
        return (f"differ in {', '.join(differ)}", False) if differ else ("bit-identical", True)
    if "confusion" in old:
        return ("equal", True) if old == new else (f"differ: {old} vs {new}", False)
    if "embedding" in old:
        d_max = max_deviation(old, new, ("eigenvalues", "embedding", "extended"))
        summary = f"eigenvalues, embedding and extension {d_max:.1e}"
        if "solve" in old:
            summary += f" (solve {old['solve']} / {new['solve']})"
        return summary, bool(d_max <= MODEL_TOL)
    if "iteration" not in old:  # a `fit pca|lda` model
        d_max = max_deviation(old, new, ("matrix", "eigenvalues"))
        return f"matrix and eigenvalues {d_max:.1e}", bool(d_max <= MODEL_TOL)
    summary = f"iterations {old['iteration']}/{new['iteration']} best {old['best_index']}/{new['best_index']}"
    if (old["iteration"], old["best_index"]) != (new["iteration"], new["best_index"]):
        return summary, False
    history = np.array(old["objective_history"])
    d_objective = np.max(np.abs(np.array(new["objective_history"]) - history) / (np.abs(history) + 1.0))
    d_model = max_deviation(old, new, ("matrix",))
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


def line_count(src):
    """The number of lines in the tree's `sklpdm/*.py`, as `wc -l` counts them."""
    total = 0
    for path in glob.glob(os.path.join(src, "sklpdm", "*.py")):
        with open(path, "rb") as handle:
            total += handle.read().count(b"\n")
    return total


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
    names = {**old, **new}  # the old tree's cases, then any only the new tree has
    breaches = 0
    for name in names:
        summary, ok = deviations(old.get(name), new.get(name))
        breaches += not ok
        print(f"{'ok    ' if ok else 'BREACH'} {name}: {summary}")
    print(f"{len(names) - breaches}/{len(names)} cases within the contract")
    old_lines, new_lines = line_count(args.old_src), line_count(args.new_src)
    print(f"sklpdm/*.py lines: {old_lines} -> {new_lines} ({new_lines - old_lines:+d})")
    return 1 if breaches else 0


if __name__ == "__main__":
    sys.exit(main())
