"""Supervised kernel linear projection with diffusion-map embedding.

A toolkit that learns a label-aware orthonormal projection, feeds the
projected data to a diffusion map, and evaluates the resulting features
with KNN / linear-SVM classifiers, including silhouette angle-profile
extraction and PCA/LDA baselines.
"""

import importlib

__version__ = "0.1.0"

# Each public name, listed once under the module that defines it. The modules
# are imported in this order, and __all__ lists the names in this order.
_EXPORTS = {
    "dataset": ("LabeledDataset", "load_csv", "save_csv", "gen_gaussian_classes", "gen_ring_classes",
                "leave_one_group_out", "with_groups"),
    "sklp_projection": ("SklpConfig", "SklpState", "ProjectionModel", "init_state", "kernel_averages",
                        "alpha_weights", "class_moments", "scatter_matrix", "solve_eig", "objective",
                        "update_distances", "fit", "project", "save_model", "load_model"),
    "baselines": ("pca_fit", "lda_fit"),
    "diffusion_map": ("DiffusionConfig", "DiffusionModel", "affinity"),
    "silhouette_features": ("SilhouetteImage", "load_pgm", "radon", "r_transform", "sequence_features"),
    "classify_eval": ("KnnConfig", "SvmConfig", "SvmModel", "ConfusionMatrix", "PipelineConfig",
                      "CrossValidationResult", "knn_predict", "svm_fit", "svm_predict", "video_majority_vote",
                      "confusion", "cross_validate_actions"),
    "errors": ("DataError", "NumericalError"),
}

for _module, _names in _EXPORTS.items():
    _module = importlib.import_module(f".{_module}", __name__)
    globals().update((name, getattr(_module, name)) for name in _names)
del _module, _names

__all__ = [name for names in _EXPORTS.values() for name in names] + ["__version__"]
