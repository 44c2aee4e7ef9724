"""Tests for the data substrate: datasets, loaders, synthetic generators, transforms."""

import tracemalloc

import numpy as np
import pytest

from repro.data import (
    ArrayDataset,
    DataLoader,
    SyntheticImageConfig,
    flatten_images,
    make_cifar10_like,
    make_gaussian_blobs,
    make_mnist_like,
    make_synthetic_image_dataset,
    normalize,
    normalize_dataset,
    per_channel_normalize,
    stratified_split,
    train_test_statistics,
    train_val_split,
)
from repro.data import synthetic
from repro.data.synthetic import _sample_split, make_prototypes
from repro.exceptions import ShapeError


def per_sample_split(prototypes, num_samples, config, rng):
    """Oracle: each sample's shifted, contrast-scaled prototype built alone."""
    labels = np.arange(num_samples) % config.num_classes
    rng.shuffle(labels)
    size, pad = config.image_size, config.max_shift
    images = np.empty((num_samples, config.channels, size, size))
    shifts = rng.integers(-pad, pad + 1, size=(num_samples, 2))
    contrasts = 1.0 + config.contrast_jitter * rng.uniform(-1.0, 1.0, size=num_samples)
    noise = rng.normal(0.0, config.noise_std, size=images.shape)
    for i, label in enumerate(labels):
        padded = np.pad(prototypes[label], ((0, 0), (pad, pad), (pad, pad)))
        dy, dx = shifts[i]
        base = padded[:, pad - dy : pad - dy + size, pad - dx : pad - dx + size]
        images[i] = contrasts[i] * base
    images += noise
    return images, labels


def assert_split_matches_the_oracle(config):
    """70 samples from ``_sample_split`` equal the oracle's, generator state included."""
    prototypes = make_prototypes(config, np.random.default_rng(0))
    rng, oracle_rng = np.random.default_rng(1), np.random.default_rng(1)
    split = _sample_split(prototypes, 70, config, rng)
    images, labels = per_sample_split(prototypes, 70, config, oracle_rng)
    assert split.inputs.tobytes() == images.tobytes()
    assert split.targets.tobytes() == labels.astype(np.int64).tobytes()
    assert rng.bit_generator.state == oracle_rng.bit_generator.state


class TestArrayDataset:
    def test_basic_properties(self):
        ds = ArrayDataset(np.zeros((10, 3, 4, 4)), np.arange(10) % 2)
        assert len(ds) == 10
        assert ds.sample_shape == (3, 4, 4)
        assert ds.num_classes == 2
        x, y = ds[3]
        assert x.shape == (3, 4, 4) and y == 1

    def test_length_mismatch_rejected(self):
        with pytest.raises(ShapeError):
            ArrayDataset(np.zeros((5, 2)), np.zeros(4))

    def test_empty_rejected(self):
        with pytest.raises(ShapeError):
            ArrayDataset(np.zeros((0, 2)), np.zeros(0))

    def test_subset(self):
        ds = ArrayDataset(np.arange(20).reshape(10, 2), np.arange(10))
        sub = ds.subset([1, 3, 5])
        assert len(sub) == 3
        assert np.array_equal(sub.targets, [1, 3, 5])

    def test_class_counts(self):
        ds = ArrayDataset(np.zeros((6, 1)), np.array([0, 0, 1, 2, 2, 2]))
        assert np.array_equal(ds.class_counts(), [2, 1, 3])

    def test_arrays_view(self):
        inputs = np.zeros((4, 2))
        targets = np.arange(4)
        ds = ArrayDataset(inputs, targets)
        x, y = ds.arrays()
        assert x is inputs and y is targets


class TestDataLoader:
    def test_batch_shapes_and_count(self):
        ds = ArrayDataset(np.arange(50).reshape(25, 2), np.arange(25) % 5)
        loader = DataLoader(ds, batch_size=8, shuffle=False)
        batches = list(loader)
        assert len(loader) == 4
        assert len(batches) == 4
        assert batches[0][0].shape == (8, 2)
        assert batches[-1][0].shape == (1, 2)

    def test_drop_last(self):
        ds = ArrayDataset(np.zeros((25, 2)), np.zeros(25))
        loader = DataLoader(ds, batch_size=8, drop_last=True, shuffle=False)
        assert len(loader) == 3
        assert sum(b[0].shape[0] for b in loader) == 24

    def test_covers_all_samples_when_shuffled(self):
        ds = ArrayDataset(np.arange(30).reshape(30, 1), np.arange(30))
        loader = DataLoader(ds, batch_size=7, shuffle=True, rng=0)
        seen = np.concatenate([y for _, y in loader])
        assert sorted(seen.tolist()) == list(range(30))

    def test_shuffle_determinism(self):
        ds = ArrayDataset(np.arange(30).reshape(30, 1), np.arange(30))
        a = np.concatenate([y for _, y in DataLoader(ds, batch_size=5, rng=42)])
        b = np.concatenate([y for _, y in DataLoader(ds, batch_size=5, rng=42)])
        assert np.array_equal(a, b)

    def test_shuffle_changes_across_epochs(self):
        ds = ArrayDataset(np.arange(30).reshape(30, 1), np.arange(30))
        loader = DataLoader(ds, batch_size=30, rng=1)
        first = next(iter(loader))[1]
        second = next(iter(loader))[1]
        assert not np.array_equal(first, second)

    def test_generic_dataset_support(self):
        class Tiny:
            def __len__(self):
                return 4

            def __getitem__(self, index):
                return np.full(3, index, dtype=float), index

        loader = DataLoader(Tiny(), batch_size=2, shuffle=False)
        x, y = next(iter(loader))
        assert x.shape == (2, 3)
        assert np.array_equal(y, [0, 1])


class TestSyntheticImages:
    def test_mnist_like_geometry(self):
        train, test = make_mnist_like(train_samples=50, test_samples=20, seed=0)
        assert train.inputs.shape == (50, 1, 28, 28)
        assert test.inputs.shape == (20, 1, 28, 28)
        assert train.num_classes == 10

    def test_cifar_like_geometry(self):
        train, test = make_cifar10_like(train_samples=30, test_samples=10, image_size=16)
        assert train.inputs.shape == (30, 3, 16, 16)

    def test_determinism(self):
        a, _ = make_mnist_like(train_samples=20, test_samples=10, seed=5)
        b, _ = make_mnist_like(train_samples=20, test_samples=10, seed=5)
        assert np.array_equal(a.inputs, b.inputs)
        assert np.array_equal(a.targets, b.targets)

    def test_different_seeds_differ(self):
        a, _ = make_mnist_like(train_samples=20, test_samples=10, seed=1)
        b, _ = make_mnist_like(train_samples=20, test_samples=10, seed=2)
        assert not np.array_equal(a.inputs, b.inputs)

    def test_labels_balanced(self):
        train, _ = make_mnist_like(train_samples=100, test_samples=10, seed=0)
        counts = train.class_counts()
        assert counts.min() >= 9 and counts.max() <= 11

    @pytest.mark.parametrize("channels", [1, 3])
    @pytest.mark.parametrize("max_shift", [0, 1, 2])
    def test_split_matches_the_per_sample_oracle(self, max_shift, channels):
        config = SyntheticImageConfig(
            image_size=9, channels=channels, max_shift=max_shift, seed=4
        )
        assert_split_matches_the_oracle(config)

    @pytest.mark.parametrize("channels", [1, 3])
    @pytest.mark.parametrize("noise_block_rows", [1, 3])
    def test_noise_drawn_in_blocks_matches_one_draw(
        self, noise_block_rows, channels, monkeypatch
    ):
        # The oracle draws all the noise at once.  With the block budget cut
        # to a few rows (plus half a row) the split draws it in 70 or 24
        # blocks, the last one short.
        row_bytes = channels * 9 * 9 * 8
        monkeypatch.setattr(
            synthetic, "_NOISE_BLOCK_BYTES", noise_block_rows * row_bytes + row_bytes // 2
        )
        config = SyntheticImageConfig(image_size=9, channels=channels, max_shift=2, seed=4)
        assert_split_matches_the_oracle(config)

    @pytest.mark.parametrize(
        "make, kwargs", [(make_mnist_like, {}), (make_cifar10_like, {"image_size": 16})]
    )
    def test_synthesis_and_standardization_hold_each_split_once(self, make, kwargs):
        # Noise drawn in blocks and standardization in place: the peak is
        # the two splits plus the train split's temporary inside ``std`` and
        # a block of noise, where a split-sized noise array or standardized
        # copy would reach twice the splits' bytes.
        tracemalloc.start()
        try:
            train, test = train_test_statistics(
                *make(train_samples=500, test_samples=4000, **kwargs)
            )
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.25 * (train.inputs.nbytes + test.inputs.nbytes)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            SyntheticImageConfig(max_shift=30, image_size=28).validate()
        with pytest.raises(ValueError):
            SyntheticImageConfig(num_classes=0).validate()

    def test_classes_are_separable_by_nearest_prototype(self):
        # A nearest-class-mean classifier on the noiseless prototypes should
        # label the noisy samples well above chance, otherwise no network
        # could learn the task.
        config = SyntheticImageConfig(
            train_samples=200, test_samples=50, noise_std=0.3, seed=3
        )
        train, test = make_synthetic_image_dataset(config)
        means = np.stack(
            [train.inputs[train.targets == c].mean(axis=0).ravel() for c in range(10)]
        )
        correct = 0
        for x, y in zip(test.inputs, test.targets):
            distances = np.linalg.norm(means - x.ravel(), axis=1)
            correct += int(np.argmin(distances) == y)
        assert correct / len(test) > 0.5

    def test_gaussian_blobs(self):
        train, test = make_gaussian_blobs(num_classes=3, num_features=5, samples_per_class=20)
        assert train.inputs.shape[1] == 5
        assert set(np.unique(train.targets)) == {0, 1, 2}
        assert len(train) + len(test) == 60


class TestTransformsAndSplits:
    def test_normalize(self):
        data = np.random.default_rng(0).normal(5.0, 3.0, size=(100, 4))
        normalized = normalize(data)
        assert normalized.mean() == pytest.approx(0.0, abs=1e-9)
        assert normalized.std() == pytest.approx(1.0, abs=1e-9)
        with pytest.raises(ValueError):
            normalize(data, mean=0.0, std=0.0)

    def test_per_channel_normalize(self):
        images = np.random.default_rng(0).normal(size=(10, 3, 4, 4)) * np.array(
            [1.0, 5.0, 10.0]
        ).reshape(1, 3, 1, 1)
        out = per_channel_normalize(images)
        for c in range(3):
            assert out[:, c].std() == pytest.approx(1.0, abs=1e-9)
        with pytest.raises(ShapeError):
            per_channel_normalize(np.zeros((3, 4, 4)))

    def test_flatten_images(self):
        assert flatten_images(np.zeros((5, 2, 3, 3))).shape == (5, 18)

    def test_normalize_dataset(self):
        ds = ArrayDataset(np.random.default_rng(0).normal(3, 2, size=(50, 4)), np.zeros(50))
        out = normalize_dataset(ds)
        assert out.inputs.mean() == pytest.approx(0.0, abs=1e-9)

    def test_train_test_statistics_uses_train_stats(self):
        train = ArrayDataset(np.full((10, 2), 4.0), np.zeros(10))
        test = ArrayDataset(np.full((5, 2), 6.0), np.zeros(5))
        train = ArrayDataset(train.inputs + np.arange(10).reshape(-1, 1), train.targets)
        norm_train, norm_test = train_test_statistics(train, test)
        assert norm_train.inputs.mean() == pytest.approx(0.0, abs=1e-9)
        assert norm_test.inputs.mean() != pytest.approx(0.0, abs=1e-3)

    def test_train_test_statistics_standardizes_in_place(self):
        rng = np.random.default_rng(3)
        train = ArrayDataset(rng.normal(2.0, 3.0, size=(40, 1, 5, 5)), np.arange(40) % 4)
        test = ArrayDataset(rng.normal(1.0, 2.0, size=(12, 1, 5, 5)), np.arange(12) % 4)
        mean, std = float(train.inputs.mean()), float(train.inputs.std())
        expected = [normalize(split.inputs, mean, std) for split in (train, test)]
        arrays = [split.inputs for split in (train, test)]
        out = train_test_statistics(train, test)
        assert out[0] is train and out[1] is test
        for split, array, reference in zip(out, arrays, expected):
            assert split.inputs is array
            assert split.inputs.tobytes() == reference.tobytes()

    def test_train_test_statistics_rejects_a_constant_train_split(self):
        train = ArrayDataset(np.full((6, 2), 3.0), np.zeros(6))
        test = ArrayDataset(np.ones((2, 2)), np.zeros(2))
        with pytest.raises(ValueError, match="std must be > 0"):
            train_test_statistics(train, test)
        assert np.all(train.inputs == 3.0) and np.all(test.inputs == 1.0)

    def test_train_val_split_sizes(self):
        ds = ArrayDataset(np.arange(40).reshape(20, 2), np.arange(20) % 4)
        train, val = train_val_split(ds, 0.25, rng=0)
        assert len(train) == 15 and len(val) == 5
        all_targets = sorted(np.concatenate([train.targets, val.targets]).tolist())
        assert all_targets == sorted(ds.targets.tolist())

    def test_stratified_split_balances_classes(self):
        targets = np.repeat(np.arange(4), 20)
        ds = ArrayDataset(np.zeros((80, 2)), targets)
        train, val = stratified_split(ds, 0.25, rng=0)
        val_counts = np.bincount(val.targets.astype(int))
        assert np.all(val_counts == 5)

    def test_split_fraction_validation(self):
        ds = ArrayDataset(np.zeros((10, 2)), np.zeros(10))
        with pytest.raises(ValueError):
            train_val_split(ds, 0.0)
        with pytest.raises(ValueError):
            train_val_split(ds, 1.0)
