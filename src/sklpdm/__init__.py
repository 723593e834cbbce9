"""Supervised kernel linear projection with diffusion-map embedding.

A toolkit that learns a label-aware orthonormal projection, feeds the
projected data to a diffusion map, and evaluates the resulting features
with KNN / linear-SVM classifiers, including silhouette angle-profile
extraction and PCA/LDA baselines.
"""

__version__ = "0.1.0"

from .dataset import (
    LabeledDataset,
    load_csv,
    save_csv,
    gen_gaussian_classes,
    gen_ring_classes,
    leave_one_group_out,
    with_groups,
)
from .sklp_projection import (
    SklpConfig,
    SklpState,
    ProjectionModel,
    init_state,
    kernel_averages,
    alpha_weights,
    class_moments,
    scatter_matrix,
    solve_eig,
    objective,
    update_distances,
    fit,
    project,
    save_model,
    load_model,
)
from .baselines import pca_fit, lda_fit
from .diffusion_map import DiffusionConfig, DiffusionModel, affinity, transition
from .silhouette_features import (
    SilhouetteImage,
    load_pgm,
    radon,
    r_transform,
    sequence_features,
)
from .classify_eval import (
    KnnConfig,
    SvmConfig,
    SvmModel,
    ConfusionMatrix,
    PipelineConfig,
    CrossValidationResult,
    knn_predict,
    svm_fit,
    svm_predict,
    video_majority_vote,
    confusion,
    cross_validate_actions,
)
from .errors import DataError, NumericalError

__all__ = [
    "LabeledDataset",
    "load_csv",
    "save_csv",
    "gen_gaussian_classes",
    "gen_ring_classes",
    "leave_one_group_out",
    "with_groups",
    "SklpConfig",
    "SklpState",
    "ProjectionModel",
    "init_state",
    "kernel_averages",
    "alpha_weights",
    "class_moments",
    "scatter_matrix",
    "solve_eig",
    "objective",
    "update_distances",
    "fit",
    "project",
    "save_model",
    "load_model",
    "pca_fit",
    "lda_fit",
    "DiffusionConfig",
    "DiffusionModel",
    "affinity",
    "transition",
    "SilhouetteImage",
    "load_pgm",
    "radon",
    "r_transform",
    "sequence_features",
    "KnnConfig",
    "SvmConfig",
    "SvmModel",
    "ConfusionMatrix",
    "PipelineConfig",
    "CrossValidationResult",
    "knn_predict",
    "svm_fit",
    "svm_predict",
    "video_majority_vote",
    "confusion",
    "cross_validate_actions",
    "DataError",
    "NumericalError",
    "__version__",
]
