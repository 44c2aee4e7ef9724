"""Dataset-level transforms.

Transforms operate on whole input arrays (not per-sample) because the
datasets in this project are in-memory.  They return new arrays and never
mutate their argument, except :func:`train_test_statistics`, which
standardizes freshly built splits in place so that no split is held twice.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.data.dataset import ArrayDataset
from repro.exceptions import ShapeError
from repro.nn.dtype import as_float


def normalize(inputs: np.ndarray, mean: float = None, std: float = None) -> np.ndarray:
    """Standardize inputs to zero mean / unit variance (or given statistics)."""
    inputs = as_float(inputs)
    mean = float(inputs.mean()) if mean is None else float(mean)
    std = float(inputs.std()) if std is None else float(std)
    if std <= 0:
        raise ValueError(f"std must be > 0, got {std}")
    return (inputs - mean) / std


def per_channel_normalize(images: np.ndarray) -> np.ndarray:
    """Standardize an NCHW batch per channel."""
    images = as_float(images)
    if images.ndim != 4:
        raise ShapeError(f"expected NCHW images, got shape {images.shape}")
    mean = images.mean(axis=(0, 2, 3), keepdims=True)
    std = images.std(axis=(0, 2, 3), keepdims=True)
    std = np.where(std > 0, std, 1.0)
    return (images - mean) / std


def flatten_images(images: np.ndarray) -> np.ndarray:
    """Flatten an NCHW batch into ``(N, C·H·W)`` vectors."""
    images = as_float(images)
    if images.ndim < 2:
        raise ShapeError(f"expected at least 2-D input, got shape {images.shape}")
    return images.reshape(images.shape[0], -1)


def normalize_dataset(dataset: ArrayDataset) -> ArrayDataset:
    """Return a standardized copy of ``dataset`` (global mean/std over inputs)."""
    return ArrayDataset(normalize(dataset.inputs), dataset.targets.copy())


def train_test_statistics(train: ArrayDataset, test: ArrayDataset) -> Tuple[ArrayDataset, ArrayDataset]:
    """Standardize both splits in place with the *training* split's statistics.

    The train mean and std are computed first; then every input element of
    both splits becomes ``(x - mean) / std``, bit-equal to :func:`normalize`
    with those statistics.  Inputs that already have the policy dtype (the
    synthetic generators' do) are overwritten, not copied, so the two splits
    must not overlap; ``train`` and ``test`` themselves are returned.
    Raises ``ValueError`` when the train std is not positive.
    """
    mean = float(train.inputs.mean())
    std = float(train.inputs.std())
    if std <= 0:
        raise ValueError(f"std must be > 0, got {std}")
    for split in (train, test):
        split.inputs = as_float(split.inputs)
        split.inputs -= mean
        split.inputs /= std
    return train, test
