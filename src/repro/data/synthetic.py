"""Synthetic image-classification datasets.

The paper evaluates on MNIST (28×28×1, 10 classes) and CIFAR-10 (32×32×3,
10 classes).  Those datasets are not available offline, so this module
generates *structured, class-separable* synthetic substitutes with the same
geometry:

* every class owns a smooth random prototype pattern (a band-limited Gaussian
  field, fixed by the dataset seed), giving each class a distinct spatial
  structure a convolution can latch onto;
* each sample is its class prototype under a small random translation, a
  random per-sample contrast factor, and additive Gaussian pixel noise.

This preserves what the experiments need — networks of the paper's exact
topology can be trained to high accuracy, and pruning/clipping trades off
against a measurable accuracy — while being fully deterministic given a seed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from repro.data.dataset import ArrayDataset
from repro.nn.dtype import as_float
from repro.utils.rng import RngLike, as_rng
from repro.utils.validation import check_non_negative, check_positive_int

#: Bytes of Gaussian noise drawn at a time while a split is synthesized.
_NOISE_BLOCK_BYTES = 1 << 20


@dataclass(frozen=True)
class SyntheticImageConfig:
    """Configuration for a synthetic image-classification dataset.

    Attributes
    ----------
    num_classes:
        Number of distinct classes.
    image_size:
        Spatial height and width of each (square) image.
    channels:
        Number of image channels (1 for the MNIST-like set, 3 for CIFAR-like).
    train_samples, test_samples:
        Number of samples in the train and test splits.
    noise_std:
        Standard deviation of the additive Gaussian pixel noise.
    max_shift:
        Maximum absolute translation (pixels) applied to each sample.
    smoothness:
        Size of the smoothing kernel used to band-limit the prototypes;
        larger values make prototypes smoother (easier).
    contrast_jitter:
        Relative range of the per-sample contrast factor.
    seed:
        Seed fixing the prototypes and all sampled perturbations.
    """

    num_classes: int = 10
    image_size: int = 28
    channels: int = 1
    train_samples: int = 2000
    test_samples: int = 500
    noise_std: float = 0.25
    max_shift: int = 2
    smoothness: int = 5
    contrast_jitter: float = 0.2
    seed: int = 0

    def validate(self) -> None:
        """Raise ``ValueError`` on out-of-range fields."""
        check_positive_int(self.num_classes, "num_classes")
        check_positive_int(self.image_size, "image_size")
        check_positive_int(self.channels, "channels")
        check_positive_int(self.train_samples, "train_samples")
        check_positive_int(self.test_samples, "test_samples")
        check_non_negative(self.noise_std, "noise_std")
        check_non_negative(self.contrast_jitter, "contrast_jitter")
        check_positive_int(self.smoothness, "smoothness")
        if self.max_shift < 0:
            raise ValueError(f"max_shift must be >= 0, got {self.max_shift}")
        if self.max_shift >= self.image_size:
            raise ValueError(
                f"max_shift must be smaller than image_size, got {self.max_shift} "
                f">= {self.image_size}"
            )


def _smooth(field: np.ndarray, kernel_size: int) -> np.ndarray:
    """Box-smooth a 2-D field with wrap-around padding (cheap band limiting)."""
    if kernel_size <= 1:
        return field
    kernel = np.ones(kernel_size) / kernel_size
    out = np.apply_along_axis(
        lambda row: np.convolve(np.concatenate([row, row[: kernel_size - 1]]), kernel, "valid"),
        1,
        field,
    )
    out = np.apply_along_axis(
        lambda col: np.convolve(np.concatenate([col, col[: kernel_size - 1]]), kernel, "valid"),
        0,
        out,
    )
    return out


def make_prototypes(config: SyntheticImageConfig, rng: np.random.Generator) -> np.ndarray:
    """Generate one prototype image per class: shape ``(classes, C, H, W)``."""
    size = config.image_size
    prototypes = np.empty((config.num_classes, config.channels, size, size))
    for cls in range(config.num_classes):
        for channel in range(config.channels):
            field = rng.normal(size=(size, size))
            field = _smooth(field, config.smoothness)
            # Normalize each prototype channel to zero mean, unit variance so
            # classes differ in *structure* rather than overall brightness.
            field = (field - field.mean()) / (field.std() + 1e-12)
            prototypes[cls, channel] = field
    return prototypes


def _shift_image(image: np.ndarray, dy: int, dx: int) -> np.ndarray:
    """Translate ``(..., H, W)`` images by (dy, dx) pixels with zero fill."""
    shifted = np.zeros_like(image)
    h, w = image.shape[-2], image.shape[-1]
    src_y = slice(max(0, -dy), min(h, h - dy))
    dst_y = slice(max(0, dy), min(h, h + dy))
    src_x = slice(max(0, -dx), min(w, w - dx))
    dst_x = slice(max(0, dx), min(w, w + dx))
    shifted[..., dst_y, dst_x] = image[..., src_y, src_x]
    return shifted


def _shifted_prototypes(prototypes: np.ndarray, max_shift: int) -> np.ndarray:
    """Every prototype under every shift: ``(classes, span², C, H, W)``.

    ``span = 2·max_shift + 1``; shift ``(dy, dx)`` sits at index
    ``(dy + max_shift)·span + (dx + max_shift)``.
    """
    span = 2 * max_shift + 1
    table = np.empty(prototypes.shape[:1] + (span * span,) + prototypes.shape[1:])
    for index in range(span * span):
        dy, dx = divmod(index, span)
        table[:, index] = _shift_image(prototypes, dy - max_shift, dx - max_shift)
    return table


def _sample_split(
    prototypes: np.ndarray,
    num_samples: int,
    config: SyntheticImageConfig,
    rng: np.random.Generator,
) -> ArrayDataset:
    """Draw ``num_samples`` perturbed prototype images with balanced labels.

    Each sample gathers its class prototype under its shift from a table of
    every shifted prototype, then takes its contrast in one broadcast
    multiply.  The noise is drawn and added in row blocks of about
    ``_NOISE_BLOCK_BYTES``, so no noise array as large as the split exists;
    ``Generator.normal`` yields the same stream whether it is called once or
    block by block.  The draws come in a fixed order (labels, shifts,
    contrasts, noise).
    """
    labels = np.arange(num_samples) % config.num_classes
    rng.shuffle(labels)
    shift = config.max_shift
    shifts = rng.integers(-shift, shift + 1, size=(num_samples, 2))
    contrasts = 1.0 + config.contrast_jitter * rng.uniform(-1.0, 1.0, size=num_samples)
    index = (shifts[:, 0] + shift) * (2 * shift + 1) + (shifts[:, 1] + shift)
    images = _shifted_prototypes(prototypes, shift)[labels, index]
    images *= contrasts[:, None, None, None]
    rows = max(1, _NOISE_BLOCK_BYTES // (images[0].size * images.itemsize))
    for start in range(0, num_samples, rows):
        block = images[start : start + rows]
        block += rng.normal(0.0, config.noise_std, size=block.shape)
    return ArrayDataset(as_float(images), labels.astype(np.int64))


def make_synthetic_image_dataset(
    config: SyntheticImageConfig,
) -> Tuple[ArrayDataset, ArrayDataset]:
    """Build ``(train, test)`` splits from a :class:`SyntheticImageConfig`."""
    config.validate()
    rng = as_rng(config.seed)
    prototypes = make_prototypes(config, rng)
    train = _sample_split(prototypes, config.train_samples, config, rng)
    test = _sample_split(prototypes, config.test_samples, config, rng)
    return train, test


def make_mnist_like(
    *,
    train_samples: int = 2000,
    test_samples: int = 500,
    noise_std: float = 0.3,
    image_size: int = 28,
    seed: int = 0,
) -> Tuple[ArrayDataset, ArrayDataset]:
    """MNIST-stand-in: 10-class single-channel ``image_size²`` images."""
    config = SyntheticImageConfig(
        num_classes=10,
        image_size=image_size,
        channels=1,
        train_samples=train_samples,
        test_samples=test_samples,
        noise_std=noise_std,
        seed=seed,
    )
    return make_synthetic_image_dataset(config)


def make_cifar10_like(
    *,
    train_samples: int = 2000,
    test_samples: int = 500,
    noise_std: float = 0.5,
    image_size: int = 32,
    seed: int = 1,
) -> Tuple[ArrayDataset, ArrayDataset]:
    """CIFAR-10 stand-in: 10-class three-channel ``image_size²`` images.

    A larger default noise level makes this the "more challenging" dataset,
    mirroring the paper's MNIST-vs-CIFAR difficulty gap.
    """
    config = SyntheticImageConfig(
        num_classes=10,
        image_size=image_size,
        channels=3,
        train_samples=train_samples,
        test_samples=test_samples,
        noise_std=noise_std,
        smoothness=4,
        seed=seed,
    )
    return make_synthetic_image_dataset(config)


def make_gaussian_blobs(
    *,
    num_classes: int = 4,
    num_features: int = 16,
    samples_per_class: int = 50,
    separation: float = 3.0,
    noise_std: float = 1.0,
    seed: int = 0,
) -> Tuple[ArrayDataset, ArrayDataset]:
    """Tiny vector-valued dataset (Gaussian blobs) for fast unit tests.

    Returns a 75 % / 25 % train/test split of linearly separable clusters.
    """
    check_positive_int(num_classes, "num_classes")
    check_positive_int(num_features, "num_features")
    check_positive_int(samples_per_class, "samples_per_class")
    rng = as_rng(seed)
    centers = rng.normal(scale=separation, size=(num_classes, num_features))
    inputs = []
    labels = []
    for cls in range(num_classes):
        points = centers[cls] + rng.normal(scale=noise_std, size=(samples_per_class, num_features))
        inputs.append(points)
        labels.append(np.full(samples_per_class, cls, dtype=np.int64))
    x = np.concatenate(inputs, axis=0)
    y = np.concatenate(labels, axis=0)
    order = rng.permutation(len(x))
    x, y = x[order], y[order]
    split = int(0.75 * len(x))
    return ArrayDataset(x[:split], y[:split]), ArrayDataset(x[split:], y[split:])
