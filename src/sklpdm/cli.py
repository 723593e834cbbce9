"""Command-line front end wiring the modules into reproducible end-to-end runs.

Exit codes: 0 success, 1 usage error, 2 data error, 3 numerical failure.
Every run writes its primary output atomically and drops a
`<output>.manifest.json` recording the command, flags (`synth`'s seed
among them), paths, version, and wall-clock duration; replaying the
manifest's flags reproduces the outputs byte-for-byte. The flags of each
config (SKLP, diffusion, KNN, SVM) are spelled once, in `_FLAGS`, and
default to the config's own defaults.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import gc
import json
import os
import sys
import time

import numpy as np

from . import __version__
from . import baselines
from . import classify_eval
from . import diffusion_map
from . import silhouette_features
from . import sklp_projection
from .dataset import (
    from_names,
    load_csv,
    save_csv,
    gen_gaussian_classes,
    gen_ring_classes,
    with_groups,
)
from .diffusion_map import DiffusionConfig
from .errors import DataError, NumericalError
from .sklp_projection import SklpConfig
from ._util import atomic_write_text, save_float_rows_csv


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _auto_or_float(text):
    if text == "auto":
        return "auto"
    return float(text)


def _auto_or_int(text):
    if text == "auto":
        return "auto"
    return int(text)


# config type -> {flag: (config field, argparse type)}; each flag defaults to its field's default
_FLAGS = {
    SklpConfig: {"--dim": ("target_dim", _auto_or_int), "--rho": ("rho", float),
                 "--sigma": ("kernel_bandwidth", _auto_or_float), "--tol": ("rel_tolerance", float),
                 "--max-iters": ("max_iters", int)},
    DiffusionConfig: {"--dim": ("embed_dim", int), "--sigma": ("bandwidth", _auto_or_float), "--time": ("time", int)},
    classify_eval.KnnConfig: {"--k": ("k", int)},
    classify_eval.SvmConfig: {"--reg": ("regularization", float)},
}
_CLASSIFIERS = {"knn": (classify_eval.KnnConfig, "k-nearest neighbours"),
                "svm": (classify_eval.SvmConfig, "one-vs-rest linear SVM")}


def _add_flags(leaf, config_type, *only):
    """Add config_type's flags (or only those named) to a parser leaf, each defaulting to its field's default."""
    default = config_type()
    for flag, (name, type_) in _FLAGS[config_type].items():
        if not only or flag in only:
            leaf.add_argument(flag, type=type_, default=getattr(default, name))


def _config(config_type, args):
    """A config_type built from the parsed values of those of its flags that args' leaf takes; other fields default."""
    given = vars(args)
    return config_type(**{name: given[dest] for flag, (name, _) in _FLAGS[config_type].items()
                          if (dest := flag[2:].replace("-", "_")) in given})


def _build_parser():
    """One subparser per command, per kind, and per evaluate arm and classifier: each takes only flags it reads."""
    parser = _Parser(prog="sklpdm", description=__doc__)
    parser.add_argument("--version", action="version", version=f"sklpdm {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    shapes = sub.add_parser("synth", help="generate a synthetic dataset CSV").add_subparsers(
        dest="shape", required=True)
    gaussian = shapes.add_parser("gaussian", help="isotropic Gaussian blobs")
    gaussian.add_argument("--spread", type=float, default=1.0)
    gaussian.add_argument("--separation", type=float, default=10.0)
    shapes.add_parser("rings", help="concentric rings in a random 2-plane").add_argument(
        "--noise", type=float, default=0.1)
    for shape in shapes.choices.values():
        shape.add_argument("--classes", type=int, default=3)
        shape.add_argument("--per-class", type=int, default=50)
        shape.add_argument("--dim", type=int, default=10)
        shape.add_argument("--seed", type=int, default=0)
        shape.add_argument("--groups", type=int, default=0, help="assign this many round-robin group ids")
        shape.add_argument("--out", required=True)

    radon_cmd = sub.add_parser("radon", help="angle-profile features from silhouette frames")
    radon_cmd.add_argument(
        "--manifest",
        required=True,
        help="CSV with columns path,label[,group], or a plain list of frame paths "
        "(one per line) combined with --label/--group",
    )
    radon_cmd.add_argument("--angles", type=int, default=180)
    radon_cmd.add_argument("--label", default=None, help="label for every frame of a plain-list manifest")
    radon_cmd.add_argument("--group", default=None, help="group id for every frame of a plain-list manifest")
    radon_cmd.add_argument("--out", required=True)

    kinds = sub.add_parser("fit", help="fit a projection model").add_subparsers(dest="kind", required=True)
    _add_flags(kinds.add_parser("sklp", help="supervised kernel locality-preserving projection"), SklpConfig)
    for kind in ("pca", "lda"):
        _add_flags(kinds.add_parser(kind, help=f"{kind.upper()} baseline"), SklpConfig, "--dim")
    for kind in kinds.choices.values():
        kind.add_argument("--data", required=True)
        kind.add_argument("--out", required=True)

    project_cmd = sub.add_parser("project", help="apply a fitted model to a dataset")
    project_cmd.add_argument("--model", required=True)
    project_cmd.add_argument("--data", required=True)
    project_cmd.add_argument("--out", required=True)

    diffuse = sub.add_parser("diffuse", help="diffusion embedding of a dataset")
    diffuse.add_argument("--data", required=True)
    _add_flags(diffuse, DiffusionConfig)
    diffuse.add_argument("--out", required=True, help="embedding CSV; model JSON lands at <out>.model.json")

    methods = sub.add_parser("classify", help="train on one CSV, evaluate on another").add_subparsers(
        dest="method", required=True)
    for method, (config_type, text) in _CLASSIFIERS.items():
        leaf = methods.add_parser(method, help=text)
        _add_flags(leaf, config_type)
        leaf.add_argument("--train", required=True)
        leaf.add_argument("--test", required=True)
        leaf.add_argument("--vote-by-group", action="store_true")
        leaf.add_argument("--report", required=True)

    arms = sub.add_parser(
        "evaluate", help="leave-one-group-out evaluation of one reduction arm and classifier"
    ).add_subparsers(dest="pipeline", required=True)
    arm_help = {"pca": "PCA baseline projection", "lda": "LDA baseline projection",
                "dm": "diffusion map of the raw features", "sklp+dm": "SKLP projection, then a diffusion map"}
    for reduction in classify_eval.PIPELINES:
        classifiers = arms.add_parser(reduction, help=arm_help[reduction]).add_subparsers(
            dest="classifier", required=True)
        for method, (config_type, text) in _CLASSIFIERS.items():
            leaf = classifiers.add_parser(method, help=text)
            _add_flags(leaf, config_type)
            leaf.add_argument("--data", required=True)
            if reduction in ("pca", "lda"):
                _add_flags(leaf, SklpConfig, "--dim")
            if reduction == "sklp+dm":
                _add_flags(leaf, SklpConfig)
            if reduction in ("dm", "sklp+dm"):
                leaf.add_argument("--dm-dim", type=int, default=0,
                                  help="0 = the projection dimension (K - 1, capped, for dm)")
                leaf.add_argument("--dm-sigma", type=_auto_or_float, default=DiffusionConfig.bandwidth)
                leaf.add_argument("--time", type=int, default=DiffusionConfig.time)
            leaf.add_argument("--report", required=True)
            leaf.add_argument("--confusion", required=True)

    trace = sub.add_parser("trace", help="per-iteration objective trace of a projection fit")
    trace.add_argument("--data", required=True)
    _add_flags(trace, SklpConfig)
    trace.add_argument("--out", required=True)
    return parser


def _write_manifest(args, inputs, outputs, started):
    manifest = {
        "command": args.command,
        "flags": {
            key: value
            for key, value in sorted(vars(args).items())
            if key != "command"
        },
        "inputs": [str(p) for p in inputs],
        "outputs": [str(p) for p in outputs],
        "version": __version__,
        "duration_s": time.monotonic() - started,
    }
    atomic_write_text(outputs[0] + ".manifest.json", json.dumps(manifest, indent=1) + "\n")


def _cmd_synth(args):
    if args.shape == "gaussian":
        data = gen_gaussian_classes(
            args.classes, args.per_class, args.dim, args.spread, args.separation, args.seed
        )
    else:
        data = gen_ring_classes(args.classes, args.per_class, args.noise, args.dim, args.seed)
    if args.groups < 0:
        raise DataError(f"groups must be >= 0, got {args.groups}")
    if args.groups > 0:
        data = with_groups(data, args.groups)
    save_csv(data, args.out)
    return [], [args.out]


def _parse_frame_manifest(args):
    """(path, label, group-or-None) rows from either manifest form: a `path,label[,group]` CSV, or one path per line."""
    try:
        with open(args.manifest, "r", encoding="utf-8", newline="") as handle:
            lines = handle.readlines()
    except (OSError, UnicodeDecodeError) as exc:
        raise DataError(f"cannot read {args.manifest}: {exc}") from exc
    rows = [row for row in csv.reader(lines) if row and any(cell.strip() for cell in row)]
    if not rows:
        raise DataError(f"{args.manifest}: empty manifest")
    header = rows[0]
    if "path" in header and "label" in header:
        path_col = header.index("path")
        label_col = header.index("label")
        group_col = header.index("group") if "group" in header else None
        if args.label is not None or args.group is not None:
            raise DataError(f"{args.manifest}: has a path,label header, so --label/--group do not apply")
        if not rows[1:]:
            raise DataError(f"{args.manifest}: no frames listed")
        entries = []
        for r, row in enumerate(rows[1:], start=1):
            if len(row) != len(header):
                raise DataError(f"{args.manifest}: row {r}: expected {len(header)} fields")
            entries.append(
                (row[path_col], row[label_col], row[group_col] if group_col is not None else None)
            )
        return entries
    if args.label is None:
        raise DataError(
            f"{args.manifest}: plain path lists need --label (and optionally --group)"
        )
    paths = [line.strip() for line in lines]  # one path per line; a comma is part of the path
    return [(path, args.label, args.group) for path in paths if path]


def _cmd_radon(args):
    entries = _parse_frame_manifest(args)
    base = os.path.dirname(os.path.abspath(args.manifest))
    paths = [raw if os.path.isabs(raw) else os.path.join(base, raw) for raw, _, _ in entries]
    features = silhouette_features.sequence_features(paths, args.angles)
    labels = [label for _, label, _ in entries]
    groups = [group for _, _, group in entries]
    if all(group is None for group in groups):
        groups = None
    save_csv(from_names(features, labels, groups), args.out)
    return [args.manifest], [args.out]


def _cmd_fit(args):
    data = load_csv(args.data)
    if args.kind == "sklp":
        model, _ = sklp_projection.fit(data, _config(SklpConfig, args))
    else:
        model = baselines.pca_fit(data, args.dim) if args.kind == "pca" else baselines.lda_fit(data, args.dim)
    sklp_projection.save_model(model, args.out)
    return [args.data], [args.out]


def _cmd_project(args):
    model = sklp_projection.load_model(args.model)
    data = load_csv(args.data)
    projected = sklp_projection.project(model, data.features)
    save_csv(dataclasses.replace(data, features=projected), args.out)
    return [args.model, args.data], [args.out]


def _cmd_diffuse(args):
    data = load_csv(args.data)
    model = diffusion_map.fit(data.features, _config(DiffusionConfig, args))
    labels = [data.label_names[y] for y in data.labels]
    diffusion_map.save_embedding_csv(args.out, model.embedding, labels)
    model_path = args.out + ".model.json"
    diffusion_map.save_model_json(model, model_path)
    return [args.data], [args.out, model_path]


def _format_confusion(matrix):
    names = matrix.class_names
    width = max(6, max(len(n) for n in names) + 1)
    lines = [" " * width + "".join(f"{n:>{width}}" for n in names)]
    for k, name in enumerate(names):
        lines.append(f"{name:>{width}}" + "".join(f"{c:>{width}}" for c in matrix.counts[k]))
    return "\n".join(lines)


def _report_text(title, matrix, fold_accuracies, config_echo, extra_lines=()):
    lines = [title, ""]
    lines.append(f"overall accuracy: {matrix.accuracy:.6f}")
    lines.append("per-class accuracy:")
    for name, value in zip(matrix.class_names, matrix.per_class_accuracy()):
        lines.append(f"  {name}: " + (f"{value:.6f}" if value is not None else "n/a"))
    lines.extend(extra_lines)
    lines.append("confusion matrix (rows = true, cols = predicted):")
    lines.append(_format_confusion(matrix))
    if fold_accuracies:
        lines.append("per-fold accuracies: " + ", ".join(f"{a:.6f}" for a in fold_accuracies))
    lines.append("configuration: " + json.dumps(config_echo, sort_keys=True))
    return "\n".join(lines) + "\n"


def _cmd_classify(args):
    train = load_csv(args.train)
    test = load_csv(args.test)
    if train.dim != test.dim:
        raise DataError("train and test feature dimensions differ")
    name_to_id = {name: k for k, name in enumerate(train.label_names)}
    for name in test.label_names:
        if name not in name_to_id:
            raise DataError(f"test label {name!r} never appears in the training data")
    test_y = np.array([name_to_id[test.label_names[y]] for y in test.labels], dtype=np.int64)
    config = _config(_CLASSIFIERS[args.method][0], args)
    predicted = classify_eval.fit_predict((train.features, train.labels), test.features, config)
    matrix = classify_eval.confusion(test_y, predicted, train.class_count, train.label_names)
    extra = []
    if args.vote_by_group:
        if test.groups is None:
            raise DataError("--vote-by-group requires a `group` column in the test data")
        votes = classify_eval.video_majority_vote(predicted.tolist(), test.groups.tolist())
        true_votes = classify_eval.video_majority_vote(test_y.tolist(), test.groups.tolist())
        group_true = [true_votes[g] for g in votes]
        group_pred = [votes[g] for g in votes]
        group_matrix = classify_eval.confusion(
            group_true, group_pred, train.class_count, train.label_names
        )
        extra.append(f"group-vote accuracy: {group_matrix.accuracy:.6f}")
        extra.append("group-vote confusion (rows = true, cols = predicted):")
        extra.append(_format_confusion(group_matrix))
    echo = {"method": args.method, **dataclasses.asdict(config)}
    text = _report_text(f"classification report ({args.method})", matrix, (), echo, extra)
    atomic_write_text(args.report, text)
    return [args.train, args.test], [args.report]


def _cmd_evaluate(args):
    data = load_csv(args.data)
    # only the configs this arm reads (pca and lda take only --dim); the others keep their unread defaults
    configs = {args.classifier: _config(_CLASSIFIERS[args.classifier][0], args)}
    if args.pipeline != "dm":
        configs["sklp"] = _config(SklpConfig, args)
    if args.pipeline in ("dm", "sklp+dm"):
        # --dm-dim 0 follows the projection dimension; the dm arm projects to K - 1, capped
        target_dim = args.dim if args.pipeline == "sklp+dm" else "auto"
        dm_dim = args.dm_dim or sklp_projection.output_dim(target_dim, data.class_count, data.dim, data.sample_count)
        configs["diffusion"] = DiffusionConfig(bandwidth=args.dm_sigma, embed_dim=dm_dim, time=args.time)
    pipeline = classify_eval.PipelineConfig(reduction=args.pipeline, classifier=args.classifier, **configs)
    result = classify_eval.cross_validate_actions(data, pipeline)
    text = _report_text(
        f"leave-one-group-out evaluation ({args.pipeline} / {args.classifier})",
        result.confusion,
        result.fold_accuracies,
        result.pipeline,
    )
    atomic_write_text(args.report, text)
    names = result.confusion.class_names
    save_float_rows_csv(args.confusion, ["true\\predicted", *names], result.confusion.counts, lead=names)
    return [args.data], [args.report, args.confusion]


def _cmd_trace(args):
    data = load_csv(args.data)
    _, state = sklp_projection.fit(data, _config(SklpConfig, args))
    history = np.array(state.objective_history)[:, None]
    increments = ["", *map(repr, state.predicted_increments)]  # iteration 0 predicts nothing
    save_float_rows_csv(args.out, ["iteration", "objective", "predicted_increment"], history,
                        lead=range(len(history)), tail=increments)
    return [args.data], [args.out]


# each command returns (input paths, output paths); run() writes the manifest next to the first output
_COMMANDS = {
    "synth": _cmd_synth,
    "radon": _cmd_radon,
    "fit": _cmd_fit,
    "project": _cmd_project,
    "diffuse": _cmd_diffuse,
    "classify": _cmd_classify,
    "evaluate": _cmd_evaluate,
    "trace": _cmd_trace,
}


def run(argv=None):
    """Parse argv and execute one subcommand; returns the process exit code."""
    started = time.monotonic()
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    try:
        inputs, outputs = _COMMANDS[args.command](args)
        _write_manifest(args, inputs, outputs, started)
        return 0
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


def main():
    gc.freeze()  # collections, the exit-time ones too, skip the import-time objects a one-shot process never frees
    sys.exit(run())


if __name__ == "__main__":
    main()
