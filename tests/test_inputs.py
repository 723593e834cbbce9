"""Arrays enter the library one way: each frozen type owns read-only copies of its array fields, and every
function that takes samples checks them as a D x n matrix with the feature rows it needs."""

import numpy as np
import pytest

from sklpdm import (
    ConfusionMatrix,
    DataError,
    DiffusionConfig,
    DiffusionModel,
    LabeledDataset,
    ProjectionModel,
    SilhouetteImage,
    SvmModel,
    diffusion_map,
    knn_predict,
    project,
    svm_fit,
    svm_predict,
)

# each frozen type, built from caller arrays: (type, the caller's array of each array field, the other fields)
FROZEN = {
    "SilhouetteImage": (SilhouetteImage, lambda: {"pixels": np.eye(3, dtype=np.uint8)}, {}),
    "LabeledDataset": (LabeledDataset, lambda: {
        "features": np.arange(6.0).reshape(2, 3), "labels": np.array([0, 1, 1]), "groups": np.array([0, 0, 1])},
        {"class_count": 2}),
    "ProjectionModel": (ProjectionModel, lambda: {
        "matrix": np.eye(3)[:, :2], "eigenvalues": np.array([2.0, 1.0]), "mean": np.array([0.5, -1.0, 2.0])},
        {"kind": "pca", "dim_in": 3, "dim_out": 2}),
    "DiffusionModel": (DiffusionModel, lambda: {
        "train_points": np.arange(6.0).reshape(2, 3), "eigenvalues": np.array([1.0, 0.5]),
        "eigenvectors": np.ones((3, 2)) / np.sqrt(3.0), "embedding": np.ones((3, 1))},
        {"bandwidth": 1.0, "time": 1, "embed_dim": 1, "sweeps": 0, "residual": 0.0, "dense_fallback": True}),
    "SvmModel": (SvmModel, lambda: {"weights": np.array([[1.0, -2.0], [0.5, 3.0]]), "biases": np.array([0.25, -1.0])},
                 {}),
    "ConfusionMatrix": (ConfusionMatrix, lambda: {"counts": np.array([[3, 1], [0, 2]])}, {"class_names": ("a", "b")}),
}


@pytest.mark.parametrize("name", FROZEN)
def test_frozen_types_own_read_only_copies(name):
    """Changing the caller's arrays leaves the fields as built, and no field can be written."""
    kind, caller_arrays, settings = FROZEN[name]
    arrays = caller_arrays()
    built = kind(**arrays, **settings)
    before = {field: array.copy() for field, array in arrays.items()}
    for array in arrays.values():
        array += 1
    for field in arrays:
        value = getattr(built, field)
        np.testing.assert_array_equal(value, before[field])
        with pytest.raises(ValueError, match="read-only"):
            value[(0,) * value.ndim] = 0


SIX_COLUMNS = np.arange(12.0).reshape(2, 6)
SIX_LABELS = np.array([0, 0, 1, 1, 2, 2])
THREE_ROWS = np.zeros((3, 6))


def diffusion_model():
    return diffusion_map.fit(SIX_COLUMNS, DiffusionConfig(embed_dim=1))


def sklp_model():
    return ProjectionModel(matrix=np.eye(2)[:, :1], kind="sklp", dim_in=2, dim_out=1, eigenvalues=np.array([1.0]))


@pytest.mark.parametrize("call, message", [
    (lambda: svm_fit((SIX_COLUMNS[0], SIX_LABELS)),
     r"training features must be a 2-D matrix \(columns are samples\), got shape \(6,\)"),
    (lambda: knn_predict((SIX_COLUMNS, SIX_LABELS), THREE_ROWS),
     r"test features must have 2 feature rows, got shape \(3, 6\)"),
    (lambda: svm_predict(svm_fit((SIX_COLUMNS, SIX_LABELS)), THREE_ROWS),
     r"test features must have 2 feature rows, got shape \(3, 6\)"),
    (lambda: diffusion_map.fit(SIX_COLUMNS[0], DiffusionConfig()),
     r"Xhat must be a 2-D matrix \(columns are samples\), got shape \(6,\)"),
    (lambda: diffusion_map.extend(diffusion_model(), THREE_ROWS), r"Xnew must have 2 feature rows, got shape \(3, 6\)"),
    (lambda: diffusion_map.extend(diffusion_model(), SIX_COLUMNS[0]), r"Xnew must be a 2-D matrix"),
    (lambda: project(sklp_model(), THREE_ROWS), r"X must have 2 feature rows, got shape \(3, 6\)"),
    (lambda: project(sklp_model(), SIX_COLUMNS[0]), r"X must be a 2-D matrix"),
], ids=["svm-fit-1d", "knn-rows", "svm-predict-rows", "diffusion-fit-1d", "extend-rows", "extend-1d", "project-rows",
        "project-1d"])
def test_every_sample_matrix_is_checked(call, message):
    with pytest.raises(DataError, match=message):
        call()
