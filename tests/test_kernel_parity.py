"""Parity tests: vectorized kernels vs the preserved loop reference kernels.

The vectorized im2col/col2im and pooling paths must match the seed's
offset-loop implementations (kept in :mod:`repro.nn._reference`) to 1e-12 on
randomized shapes — in fact they are bit-identical everywhere the semantics
did not intentionally change (max pooling with ``padding > 0`` now pads with
``-inf`` instead of zero; see ``TestMaxPoolPaddingFix``).
"""

import numpy as np
import pytest

from repro.exceptions import ShapeError
from repro.nn import _reference as ref
from repro.nn import functional as F
from repro.nn.layers import AvgPool2D, MaxPool2D
from repro.nn.layers.pooling import _Pool2D, _window_cells

ATOL = 1e-12


def random_conv_cases(rng):
    """Randomized (shape, kernel, stride, padding) conv geometries."""
    cases = []
    for _ in range(12):
        n = int(rng.integers(1, 5))
        c = int(rng.integers(1, 4))
        kernel = int(rng.integers(1, 5))
        stride = int(rng.integers(1, 4))
        padding = int(rng.integers(0, 3))
        # Input large enough to give a positive output size.
        min_side = max(kernel - 2 * padding, 1)
        h = int(rng.integers(min_side + 2, min_side + 11))
        w = int(rng.integers(min_side + 2, min_side + 11))
        cases.append(((n, c, h, w), kernel, stride, padding))
    # Deterministic corner cases: 1x1 kernel, disjoint stride, kernel == input.
    cases.append(((2, 3, 8, 8), 1, 1, 0))
    cases.append(((2, 3, 8, 8), 2, 2, 0))
    cases.append(((1, 1, 4, 4), 4, 4, 0))
    cases.append(((2, 2, 5, 5), 3, 3, 1))
    return cases


class TestConvKernelParity:
    def test_im2col_matches_loop_reference(self, rng):
        for shape, kernel, stride, padding in random_conv_cases(rng):
            x = rng.standard_normal(shape)
            cols_new, oh_new, ow_new = F.im2col(x, kernel, kernel, stride, padding)
            cols_ref, oh_ref, ow_ref = ref.im2col_loop(x, kernel, kernel, stride, padding)
            assert (oh_new, ow_new) == (oh_ref, ow_ref)
            np.testing.assert_allclose(cols_new, cols_ref, atol=ATOL, rtol=0)

    def test_col2im_matches_loop_reference(self, rng):
        for shape, kernel, stride, padding in random_conv_cases(rng):
            x = rng.standard_normal(shape)
            cols, _, _ = F.im2col(x, kernel, kernel, stride, padding)
            grad_cols = rng.standard_normal(cols.shape)
            new = F.col2im(grad_cols, shape, kernel, kernel, stride, padding)
            expected = ref.col2im_loop(grad_cols, shape, kernel, kernel, stride, padding)
            np.testing.assert_allclose(new, expected, atol=ATOL, rtol=0)

    @pytest.mark.parametrize(
        "shape, kernel, stride, padding",
        [((7, 3, 12, 12), 5, 1, 2), ((5, 2, 11, 9), 3, 2, 1)],
    )
    def test_col2im_batch_chunks_match_loop_reference(
        self, rng, monkeypatch, shape, kernel, stride, padding
    ):
        """Several chunks, the last one short, add exactly as the loop does."""
        x = rng.standard_normal(shape)
        cols, out_h, out_w = F.im2col(x, kernel, kernel, stride, padding)
        grad_cols = rng.standard_normal(cols.shape)
        expected = ref.col2im_loop(grad_cols, shape, kernel, kernel, stride, padding)
        image_bytes = grad_cols.itemsize * grad_cols.shape[1] * out_h * out_w
        for images_per_chunk in (1, 2, 3):
            monkeypatch.setattr(F, "COL2IM_CHUNK_BYTES", images_per_chunk * image_bytes)
            new = F.col2im(grad_cols, shape, kernel, kernel, stride, padding)
            assert new.tobytes() == expected.tobytes()

    def test_rectangular_kernels(self, rng):
        x = rng.standard_normal((2, 3, 9, 11))
        for kh, kw in [(1, 3), (3, 1), (2, 4)]:
            cols_new, _, _ = F.im2col(x, kh, kw, 1, 1)
            cols_ref, _, _ = ref.im2col_loop(x, kh, kw, 1, 1)
            np.testing.assert_allclose(cols_new, cols_ref, atol=ATOL, rtol=0)
            g = rng.standard_normal(cols_new.shape)
            np.testing.assert_allclose(
                F.col2im(g, x.shape, kh, kw, 1, 1),
                ref.col2im_loop(g, x.shape, kh, kw, 1, 1),
                atol=ATOL,
                rtol=0,
            )

    def test_col2im_is_adjoint_of_im2col(self, rng):
        """<im2col(x), g> == <x, col2im(g)> — the defining adjoint identity."""
        shape = (3, 2, 7, 7)
        x = rng.standard_normal(shape)
        cols, _, _ = F.im2col(x, 3, 3, 2, 1)
        g = rng.standard_normal(cols.shape)
        lhs = float(np.sum(cols * g))
        rhs = float(np.sum(x * F.col2im(g, shape, 3, 3, 2, 1)))
        assert lhs == pytest.approx(rhs, rel=1e-12)


def batch_in_layout(rng, shape, layout, dtype=np.float64):
    """A random NCHW-shaped batch stored the way ``layout`` names."""
    n, c, h, w = shape
    if layout == "nchw":
        return rng.standard_normal(shape).astype(dtype)
    if layout == "channel-last":
        # What a conv layer emits: its (N, H, W, C) GEMM output viewed as NCHW.
        return rng.standard_normal((n, h, w, c)).astype(dtype).transpose(0, 3, 1, 2)
    if layout == "nchw-batch-slice":
        return rng.standard_normal((2 * n, c, h, w)).astype(dtype)[::2]
    assert layout == "channel-last-batch-slice"
    return rng.standard_normal((2 * n, h, w, c)).astype(dtype).transpose(0, 3, 1, 2)[1::2]


LAYOUTS = ["nchw", "channel-last", "nchw-batch-slice", "channel-last-batch-slice"]


class TestIm2colOffsetGather:
    """The offset gather must lay down the loop reference's bytes on every layout branch."""

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("layout", LAYOUTS)
    @pytest.mark.parametrize(
        "shape,kernel_h,kernel_w,stride,padding",
        [
            ((2, 1, 7, 6), 3, 3, 1, 1),     # C = 1: both layouts are the same bytes
            ((3, 4, 9, 11), 2, 4, 1, 0),    # rectangular kernel, no padding
            ((2, 3, 9, 8), 3, 1, 2, 2),     # rectangular kernel, stride 2, padding 2
            ((4, 8, 8, 8), 3, 3, 1, 1),     # ConvNet conv2 (small scale)
            ((2, 5, 10, 10), 5, 5, 2, 0),   # stride 2, no padding
        ],
    )
    def test_bytes_match_loop_reference(
        self, rng, dtype, layout, shape, kernel_h, kernel_w, stride, padding
    ):
        x = batch_in_layout(rng, shape, layout, dtype)
        cols, out_h, out_w = F.im2col(x, kernel_h, kernel_w, stride, padding)
        expected, ref_h, ref_w = ref.im2col_loop(x, kernel_h, kernel_w, stride, padding)
        assert (out_h, out_w) == (ref_h, ref_w)
        assert cols.dtype == x.dtype
        assert cols.flags.c_contiguous
        assert cols.tobytes() == expected.tobytes()

    def test_layout_classification(self, rng):
        """Only a contiguous NHWC buffer takes the channel-last offsets."""
        assert F.channel_last(batch_in_layout(rng, (2, 3, 5, 5), "channel-last"))
        for layout in ("nchw", "nchw-batch-slice", "channel-last-batch-slice"):
            assert not F.channel_last(batch_in_layout(rng, (2, 3, 5, 5), layout))
        assert not F.channel_last(batch_in_layout(rng, (2, 1, 5, 5), "channel-last"))

    def test_padding_keeps_the_layout(self, rng):
        x = batch_in_layout(rng, (2, 3, 5, 5), "channel-last")
        padded = F.pad_images(x, 2)
        assert F.channel_last(padded)
        assert padded.tobytes() == ref.pad_images(x, 2).tobytes()

    def test_offsets_are_memoized_read_only(self):
        offsets = F.patch_offsets(3, 8, 8, 3, 3, 1, True)
        assert F.patch_offsets(3, 8, 8, 3, 3, 1, True) is offsets
        assert F.patch_offsets.cache_info().maxsize is not None  # bounded
        assert not offsets.flags.writeable
        with pytest.raises(ValueError):
            offsets[0, 0] = 1
        assert offsets.shape == (36, 27)


class TestFusedConvBackwardParity:
    """conv_backward_input must equal col2im(grad_mat @ W) to 1e-12."""

    @pytest.mark.parametrize(
        "shape,kernel,stride,padding,out_like",
        [
            ((2, 16, 10, 10), 3, 1, 1, 12),  # fused path (c >= threshold)
            ((2, 8, 9, 9), 5, 1, 2, 6),      # fused path, rank-like out dim
            ((3, 3, 8, 8), 3, 1, 1, 10),     # narrow input -> unfused dispatch
            ((2, 16, 8, 8), 2, 2, 0, 7),     # disjoint stride -> unfused dispatch
            ((1, 9, 6, 6), 3, 2, 1, 5),      # overlapping strided
        ],
    )
    def test_matches_unfused_reference(self, rng, shape, kernel, stride, padding, out_like):
        n, c, h, w = shape
        out_h = F.conv_output_size(h, kernel, stride, padding)
        out_w = F.conv_output_size(w, kernel, stride, padding)
        grad_mat = rng.standard_normal((n * out_h * out_w, out_like))
        weight = rng.standard_normal((out_like, c * kernel * kernel))
        fused = F.conv_backward_input(
            grad_mat, weight, shape, kernel, kernel, stride, padding
        )
        reference = ref.col2im_loop(
            grad_mat @ weight, shape, kernel, kernel, stride, padding
        )
        np.testing.assert_allclose(fused, reference, atol=ATOL, rtol=0)

    def test_shape_validation(self, rng):
        grad_mat = rng.standard_normal((8, 4))
        weight = rng.standard_normal((4, 9))
        with pytest.raises(Exception):
            F.conv_backward_input(grad_mat, weight, (1, 1, 5, 5), 3, 3, 1, 0)
        with pytest.raises(Exception):
            F.conv_backward_input(
                rng.standard_normal((9, 4)), rng.standard_normal((5, 9)),
                (1, 1, 5, 5), 3, 3, 1, 0,
            )

    def test_conv_layer_backward_matches_manual_reference(self, rng):
        """Full Conv2D backward (fused path) vs the reference col2im chain."""
        from repro.nn.layers import Conv2D

        layer = Conv2D(16, 6, 3, stride=1, padding=1, rng=rng)
        x = rng.standard_normal((2, 16, 7, 7))
        layer.train()
        out = layer.forward(x)
        grad_out = rng.standard_normal(out.shape)
        grad_in = layer.backward(grad_out)
        grad_mat = grad_out.transpose(0, 2, 3, 1).reshape(-1, 6)
        expected = ref.col2im_loop(
            grad_mat @ layer.weight_matrix, x.shape, 3, 3, 1, 1
        )
        np.testing.assert_allclose(grad_in, expected, atol=ATOL, rtol=0)


def nchw_conv_backward_input(grad_mat, weight_matrix, input_shape, kernel, stride, padding):
    """Oracle: the fused per-offset loop accumulated straight into an NCHW buffer.

    It runs the same matmuls and the same per-element add order as
    ``conv_backward_input``, so the two must agree byte for byte.
    """
    n, c, h, w = input_shape
    out_h = F.conv_output_size(h, kernel, stride, padding)
    out_w = F.conv_output_size(w, kernel, stride, padding)
    weight4 = weight_matrix.reshape(grad_mat.shape[1], c, kernel, kernel)
    x_padded = np.zeros((n, c, h + 2 * padding, w + 2 * padding))
    for i in range(kernel):
        for j in range(kernel):
            contribution = grad_mat @ weight4[:, :, i, j]
            x_padded[:, :, i : i + stride * out_h : stride, j : j + stride * out_w : stride] += (
                contribution.reshape(n, out_h, out_w, c).transpose(0, 3, 1, 2)
            )
    return x_padded[:, :, padding : padding + h, padding : padding + w]


class TestChannelLastConvBackwardInput:
    """The channel-last accumulator must reproduce the NCHW loop byte for byte."""

    @pytest.mark.parametrize(
        "shape,kernel,stride,padding,out_like",
        [
            ((32, 8, 8, 8), 3, 1, 1, 8),     # ConvNet conv2 (small scale)
            ((32, 8, 4, 4), 3, 1, 1, 16),    # ConvNet conv3 (small scale)
            ((2, 16, 10, 10), 3, 1, 1, 12),
            ((2, 8, 9, 9), 5, 1, 2, 6),
            ((1, 9, 6, 6), 3, 2, 1, 5),      # overlapping strided
            ((2, 12, 7, 5), 3, 1, 0, 4),     # no padding, non-square
        ],
    )
    @pytest.mark.parametrize("layout", ["c-contiguous", "lowrank-vt-view"])
    def test_matches_nchw_loop(self, rng, shape, kernel, stride, padding, out_like, layout):
        n, c, h, w = shape
        assert c >= F.FUSED_BACKWARD_MIN_CHANNELS  # the fused branch is under test
        rows = n * F.conv_output_size(h, kernel, stride, padding) * F.conv_output_size(
            w, kernel, stride, padding
        )
        grad_mat = rng.standard_normal((rows, out_like))
        fan_in = c * kernel * kernel
        if layout == "c-contiguous":
            weight = rng.standard_normal((out_like, fan_in))
        else:
            # LowRankConv2D passes its (fan_in, rank) V factor transposed.
            weight = np.ascontiguousarray(rng.standard_normal((fan_in, out_like))).T
        fused = F.conv_backward_input(grad_mat, weight, shape, kernel, kernel, stride, padding)
        oracle = nchw_conv_backward_input(grad_mat, weight, shape, kernel, stride, padding)
        assert fused.shape == oracle.shape
        assert fused.tobytes() == oracle.tobytes()


def _signed_zero_grad(rng, shape):
    """A gradient with ReLU-made ``-0.0`` entries (``g * mask``) and exact ties."""
    grad = np.round(rng.standard_normal(shape), 1) * (rng.random(shape) > 0.4)
    assert np.any(np.signbit(grad) & (grad == 0))
    return grad


class TestTiledPoolBackward:
    """The single-write disjoint-window backward against the per-offset scatter, byte for byte."""

    @staticmethod
    def _backward_both_paths(layer, x, grad_out, monkeypatch):
        """(backward as dispatched, per-offset scatter backward, took the scatter?)."""
        scatters = []
        scatter = _Pool2D._scatter

        def counting_scatter(self, contributions):
            scatters.append(self.name)
            return scatter(self, contributions)

        with monkeypatch.context() as patch:
            patch.setattr(_Pool2D, "_scatter", counting_scatter)
            layer.forward(x)
            dispatched = layer.backward(grad_out)
        took_scatter = bool(scatters)
        with monkeypatch.context() as patch:
            patch.setattr(_Pool2D, "_windows_disjoint", lambda self: False)
            layer.forward(x)
            scattered = layer.backward(grad_out)
        return dispatched, scattered, took_scatter

    @pytest.mark.parametrize("layer_cls", [MaxPool2D, AvgPool2D])
    @pytest.mark.parametrize(
        "shape,pool",
        [
            ((4, 3, 8, 8), 2),
            ((2, 2, 9, 6), 3),
            ((32, 8, 16, 16), 2),
            # Windows that leave a trailing row and column uncovered: LeNet
            # pool2 at small scale (5x5, k=2), ConvNet pool2/pool3 at tiny.
            ((4, 3, 5, 5), 2),
            ((2, 3, 7, 7), 2),
            ((2, 3, 3, 3), 2),
            ((2, 2, 8, 7), 3),
        ],
    )
    def test_tiled_matches_scatter(self, rng, monkeypatch, layer_cls, shape, pool):
        # Small integers: max-pool windows with tied maxima, as after a ReLU.
        x = rng.integers(-1, 2, size=shape).astype(float)
        layer = layer_cls(pool)
        out_shape = layer.forward(x).shape
        grad_out = _signed_zero_grad(rng, out_shape)
        tiled, scattered, took_scatter = self._backward_both_paths(
            layer, x, grad_out, monkeypatch
        )
        assert not took_scatter
        assert tiled.shape == x.shape
        assert tiled.tobytes() == scattered.tobytes()
        # Signed-zero rule: a -0.0 gradient lands as +0.0, as 0.0 + g does.
        assert not np.any(np.signbit(tiled) & (tiled == 0))
        if layer_cls is MaxPool2D:
            _, grad_ref = ref.maxpool_forward_backward_loop(x, pool, pool, 0, grad_out)
        else:
            _, grad_ref = ref.avgpool_forward_backward_loop(x, pool, pool, 0, grad_out)
        assert tiled.tobytes() == grad_ref.tobytes()

    @pytest.mark.parametrize("layer_cls", [MaxPool2D, AvgPool2D])
    @pytest.mark.parametrize(
        "shape,pool,stride,padding",
        # Overlapping windows; stride == k with padding; gaps between windows.
        [((2, 3, 7, 8), 3, 2, 1), ((2, 3, 7, 8), 2, 2, 1), ((2, 3, 7, 8), 2, 3, 0)],
    )
    def test_non_tiling_geometry_takes_the_scatter(
        self, rng, monkeypatch, layer_cls, shape, pool, stride, padding
    ):
        x = rng.integers(-1, 2, size=shape).astype(float)
        layer = layer_cls(pool, stride, padding=padding)
        grad_out = _signed_zero_grad(rng, layer.forward(x).shape)
        dispatched, scattered, took_scatter = self._backward_both_paths(
            layer, x, grad_out, monkeypatch
        )
        assert took_scatter
        assert dispatched.tobytes() == scattered.tobytes()


def copyto_argmax(x, pool, stride, padding):
    """Oracle: the masked-copy arg-max loop ``MaxPool2D`` ran before the miss count.

    Descending offsets, each overwriting where its slab equals the max, so
    the lowest matching offset wins; a window nothing matches (a NaN) keeps
    the initial 0.
    """
    out_h = F.conv_output_size(x.shape[2], pool, stride, padding)
    out_w = F.conv_output_size(x.shape[3], pool, stride, padding)
    x_padded = F.pad_images(x, padding, value=-np.inf)
    slabs = [
        x_padded[:, :, i : i + stride * out_h : stride, j : j + stride * out_w : stride]
        for i in range(pool)
        for j in range(pool)
    ]
    out = slabs[0].copy()
    for slab in slabs[1:]:
        np.maximum(out, slab, out=out)
    argmax = np.zeros(out.shape, dtype=np.int16)
    for t in range(len(slabs) - 1, -1, -1):
        np.copyto(argmax, np.int16(t), where=(slabs[t] == out))
    return argmax


class TestMaxPoolMissCountArgmax:
    """The miss-count arg-max map against the masked-copy loop it replaced."""

    @staticmethod
    def _windows(rng, kind, shape):
        if kind == "tied":
            return np.zeros(shape)  # every window fully tied, as after a ReLU
        if kind == "signed-zero":
            signs = np.where(rng.random(shape) < 0.5, -1.0, 1.0)
            values = np.where(rng.random(shape) < 0.7, 0.0, -1.0)
            return values * signs  # +0.0, -0.0, -1.0 and +1.0 mixed in each window
        assert kind == "nan"
        x = rng.integers(-2, 3, size=shape).astype(float)
        x[0, 0] = np.nan  # all-NaN windows
        x[-1, -1, 0, -1] = np.nan  # one NaN inside an otherwise finite window
        return x

    @pytest.mark.parametrize("kind", ["tied", "signed-zero", "nan"])
    @pytest.mark.parametrize("layout", ["nchw", "channel-last"])
    @pytest.mark.parametrize(
        "pool,stride,padding", [(2, 2, 0), (3, 3, 0), (3, 2, 1), (2, 1, 0), (1, 1, 0)]
    )
    def test_matches_copyto_loop(self, rng, kind, layout, pool, stride, padding):
        shape = (2, 3, 6, 7)
        x = self._windows(rng, kind, shape)
        if layout == "channel-last":
            x = np.ascontiguousarray(x.transpose(0, 2, 3, 1)).transpose(0, 3, 1, 2)
        layer = MaxPool2D(pool, stride, padding=padding)
        layer.forward(x)
        argmax = layer._argmax
        assert argmax.dtype == np.int16
        np.testing.assert_array_equal(argmax, copyto_argmax(x, pool, stride, padding))

    def test_nan_window_keeps_offset_zero(self):
        x = np.full((1, 1, 2, 2), np.nan)
        layer = MaxPool2D(2)
        assert np.isnan(layer.forward(x)).all()
        assert layer._argmax.item() == 0


class TestChannelLastPoolBackward:
    """Pool backward returns the forward input's layout, with the per-offset scatter's bytes."""

    @pytest.mark.parametrize("layer_cls", [MaxPool2D, AvgPool2D])
    @pytest.mark.parametrize("layout", ["nchw", "channel-last"])
    @pytest.mark.parametrize(
        "shape,pool,stride,padding",
        [
            ((32, 8, 16, 16), 2, 2, 0),  # ConvNet pool1 (small scale): tiled
            ((4, 3, 5, 5), 2, 2, 0),     # trailing row and column uncovered
            ((2, 2, 8, 7), 3, 3, 0),
            ((2, 3, 7, 8), 3, 2, 1),     # overlapping: always the scatter
            ((2, 3, 7, 8), 2, 2, 1),
        ],
    )
    def test_matches_scatter_in_input_layout(
        self, rng, monkeypatch, layer_cls, layout, shape, pool, stride, padding
    ):
        n, c, h, w = shape
        values = rng.integers(-1, 2, size=(n, h, w, c)).astype(float)
        x = values.transpose(0, 3, 1, 2)
        if layout == "nchw":
            x = np.ascontiguousarray(x)
        layer = layer_cls(pool, stride, padding=padding)
        grad_out = _signed_zero_grad(rng, layer.forward(x).shape)
        dispatched = layer.backward(grad_out)
        with monkeypatch.context() as patch:
            patch.setattr(_Pool2D, "_windows_disjoint", lambda self: False)
            layer.forward(x)
            scattered = layer.backward(grad_out)
        assert dispatched.tobytes() == scattered.tobytes()
        for grad in (dispatched, scattered):
            assert grad.shape == x.shape
            # Same axis order in memory as the input (a padded scatter
            # returns a cropped view, so compare stride order).
            assert np.argsort(grad.strides).tolist() == np.argsort(x.strides).tolist()
        if padding == 0:
            assert F.channel_last(dispatched) == (layout == "channel-last")

    def test_window_cells_are_memoized_read_only(self):
        corners, deltas = _window_cells((2, 3, 4, 6), 2, (2, 3), True)
        assert _window_cells((2, 3, 4, 6), 2, (2, 3), True)[0] is corners
        assert not corners.flags.writeable and not deltas.flags.writeable
        # NHWC buffer: a window step of one row is W·C cells, of one column C.
        assert corners.shape == (2, 2, 3, 3)
        assert deltas.tolist() == [0, 3, 18, 21]


class TestPoolingLayerParity:
    @pytest.mark.parametrize("pool,stride", [(2, 2), (3, 2), (2, 1), (3, 3)])
    def test_maxpool_unpadded_matches_reference(self, rng, pool, stride):
        x = rng.standard_normal((3, 2, 9, 9))
        layer = MaxPool2D(pool, stride)
        out = layer.forward(x)
        grad_out = rng.standard_normal(out.shape)
        grad_in = layer.backward(grad_out)
        out_ref, grad_ref = ref.maxpool_forward_backward_loop(x, pool, stride, 0, grad_out)
        np.testing.assert_allclose(out, out_ref, atol=ATOL, rtol=0)
        np.testing.assert_allclose(grad_in, grad_ref, atol=ATOL, rtol=0)

    @pytest.mark.parametrize("pool,stride,padding", [(2, 2, 0), (3, 2, 1), (2, 1, 0)])
    def test_avgpool_matches_reference(self, rng, pool, stride, padding):
        x = rng.standard_normal((3, 2, 8, 8))
        layer = AvgPool2D(pool, stride, padding=padding)
        out = layer.forward(x)
        grad_out = rng.standard_normal(out.shape)
        grad_in = layer.backward(grad_out)
        out_ref, grad_ref = ref.avgpool_forward_backward_loop(x, pool, stride, padding, grad_out)
        np.testing.assert_allclose(out, out_ref, atol=ATOL, rtol=0)
        np.testing.assert_allclose(grad_in, grad_ref, atol=ATOL, rtol=0)

    def test_maxpool_tie_breaking_matches_reference_argmax(self):
        """All-tied windows (e.g. post-ReLU zeros) must route gradient like argmax."""
        x = np.zeros((2, 2, 4, 4))
        layer = MaxPool2D(2, 2)
        out = layer.forward(x)
        grad_out = np.arange(out.size, dtype=float).reshape(out.shape) + 1.0
        grad_in = layer.backward(grad_out)
        out_ref, grad_ref = ref.maxpool_forward_backward_loop(x, 2, 2, 0, grad_out)
        np.testing.assert_allclose(out, out_ref, atol=ATOL, rtol=0)
        np.testing.assert_allclose(grad_in, grad_ref, atol=ATOL, rtol=0)

    def test_maxpool_padded_positive_input_matches_reference(self, rng):
        """With strictly positive inputs the -inf padding fix changes nothing."""
        x = np.abs(rng.standard_normal((2, 2, 6, 6))) + 0.5
        layer = MaxPool2D(3, 2, padding=1)
        out = layer.forward(x)
        grad_out = rng.standard_normal(out.shape)
        grad_in = layer.backward(grad_out)
        out_ref, grad_ref = ref.maxpool_forward_backward_loop(x, 3, 2, 1, grad_out)
        np.testing.assert_allclose(out, out_ref, atol=ATOL, rtol=0)
        np.testing.assert_allclose(grad_in, grad_ref, atol=ATOL, rtol=0)


class TestMaxPoolPaddingFix:
    """Regression tests: padding must not win the max nor swallow gradient."""

    def test_all_negative_input_ignores_padding(self):
        x = -np.abs(np.random.default_rng(0).standard_normal((2, 3, 4, 4))) - 0.1
        layer = MaxPool2D(2, 2, padding=1)
        out = layer.forward(x)
        # Zero padding would have produced 0.0 in every border window; the
        # -inf padding must select the largest *real* (negative) entry.
        assert np.all(out < 0)

    def test_gradient_flows_for_all_negative_windows(self, grad_checker):
        rng = np.random.default_rng(3)
        x = -np.abs(rng.standard_normal((1, 1, 4, 4))) - 0.1
        layer = MaxPool2D(2, 2, padding=1)
        target = rng.standard_normal(layer.output_shape((1, 4, 4)))[None]

        def loss():
            return 0.5 * float(np.sum((layer.forward(x) - target) ** 2))

        out = layer.forward(x)
        grad_in = layer.backward(out - target)
        numeric = grad_checker(loss, x)
        np.testing.assert_allclose(grad_in, numeric, atol=1e-6)
        # Every output window routes its gradient to a real input position,
        # so the total gradient mass is conserved (nothing cropped away).
        assert np.count_nonzero(grad_in) > 0

    def test_gradient_mass_conserved_with_padding(self):
        rng = np.random.default_rng(4)
        x = -np.abs(rng.standard_normal((2, 2, 4, 4))) - 0.1
        layer = MaxPool2D(2, 2, padding=1)
        out = layer.forward(x)
        grad_out = np.ones_like(out)
        grad_in = layer.backward(grad_out)
        # Disjoint windows: each unit of output gradient lands on exactly one
        # input entry.  With zero padding, border windows lost their unit.
        assert float(grad_in.sum()) == pytest.approx(float(grad_out.sum()))

    def test_padding_at_least_pool_size_rejected(self):
        """padding >= pool_size would create windows made purely of padding."""
        for layer_cls in (MaxPool2D, AvgPool2D):
            with pytest.raises(ValueError):
                layer_cls(2, 2, padding=2)
            with pytest.raises(ValueError):
                layer_cls(2, 2, padding=3)

    def test_avgpool_keeps_zero_padding_semantics(self, rng):
        """Average pooling still counts padded zeros toward the mean."""
        x = rng.standard_normal((1, 1, 2, 2))
        layer = AvgPool2D(2, 2, padding=1)
        out = layer.forward(x)
        out_ref, _ = ref.avgpool_forward_backward_loop(x, 2, 2, 1, np.zeros_like(out))
        np.testing.assert_allclose(out, out_ref, atol=ATOL, rtol=0)


def sequential_row_sum(mat):
    """Oracle: the rows of ``(..., M, C)`` added one after another, in order."""
    total = np.zeros(mat.shape[:-2] + mat.shape[-1:])
    for m in range(mat.shape[-2]):
        total += mat[..., m, :]
    return total


class TestBiasGradientSums:
    """Bias gradients sum rows with einsum: the bytes of ``.sum`` and of a loop.

    On a C-contiguous operand ``np.einsum`` and ``.sum`` over the row axis
    both add the rows in sequence.  The shapes are each site's presets:
    ``Conv2D``/``LowRankConv2D.backward`` on figure7/figure8's ConvNet and
    figure_hw's LeNet (full and last batches), ``NetworkStack`` conv and
    dense layers on figure8's three-point stack.  A numpy release that
    changes einsum's summation order fails here before it moves a digest.
    """

    @pytest.mark.parametrize(
        "shape",
        [(8192, 8), (2048, 8), (512, 16), (6144, 8), (1536, 8), (384, 16),
         (6272, 5), (800, 12), (4704, 5), (600, 12)],
    )
    def test_layer_sum_is_sequential(self, rng, shape):
        grad_mat = rng.standard_normal(shape)
        expected = sequential_row_sum(grad_mat).tobytes()
        assert np.einsum("mc->c", grad_mat).tobytes() == expected
        assert grad_mat.sum(axis=0).tobytes() == expected

    @pytest.mark.parametrize(
        "shape",
        [(3, 8192, 8), (3, 2048, 8), (3, 512, 16), (3, 6144, 8), (3, 1536, 8),
         (3, 384, 16), (3, 32, 10), (3, 24, 10)],
    )
    def test_stacked_sum_is_sequential(self, rng, shape):
        g3 = rng.standard_normal(shape)
        expected = sequential_row_sum(g3).tobytes()
        assert np.einsum("kmc->kc", g3).tobytes() == expected
        assert g3.sum(axis=1).tobytes() == expected

    @pytest.mark.parametrize("lowrank", [False, True], ids=["conv", "lowrank"])
    def test_conv_backward_bias_grad(self, rng, lowrank):
        from repro.nn.layers import Conv2D, LowRankConv2D

        if lowrank:
            layer = LowRankConv2D(3, 8, 5, rank=4, padding=2, rng=0)
        else:
            layer = Conv2D(3, 8, 5, padding=2, rng=0)
        out = layer.forward(rng.standard_normal((4, 3, 8, 8)))
        grad = rng.standard_normal(out.shape)
        layer.backward(grad)
        grad_mat = grad.transpose(0, 2, 3, 1).reshape(-1, 8)
        assert layer.bias.grad.tobytes() == sequential_row_sum(grad_mat).tobytes()


class TestConvBiasAdd:
    """``F.add_conv_bias`` adds one image row at a time: the bytes of ``out += bias``.

    Each element of the GEMM output gets one add of its channel's bias
    either way.  The shapes are each conv site's presets as ``(N·positions,
    C, positions)``: ``Conv2D``/``LowRankConv2D.forward`` on figure7/figure8's
    ConvNet and figure_hw's LeNet (full and last batches), the simulator's
    conv path on figure_hw's 256-image test batches (and the last batch of a
    10,000-sample split), ``NetworkStack._forward_conv`` on figure8's
    three-point stack, and a 1×1 output (``positions = 1``).
    """

    @pytest.mark.parametrize(
        "rows, channels, positions",
        [(8192, 8, 1024), (2048, 8, 256), (512, 16, 64), (6144, 8, 1024),
         (1536, 8, 256), (384, 16, 64), (6272, 5, 196), (800, 12, 25),
         (4704, 5, 196), (600, 12, 25), (50176, 5, 196), (6400, 12, 25),
         (3136, 5, 196), (400, 12, 25), (32, 10, 1)],
    )
    def test_matches_the_broadcast_add(self, rng, rows, channels, positions):
        out = rng.standard_normal((rows, channels))
        bias = rng.standard_normal(channels)
        expected = out + bias
        assert F.add_conv_bias(out, bias, positions) is out
        assert out.tobytes() == expected.tobytes()

    @pytest.mark.parametrize(
        "rows, channels, positions",
        [(8192, 8, 1024), (2048, 8, 256), (512, 16, 64), (32, 10, 1)],
    )
    def test_stacked_matches_the_broadcast_add(self, rng, rows, channels, positions):
        out = rng.standard_normal((3, rows, channels))
        bias = rng.standard_normal((3, channels))
        expected = out + bias[:, None, :]
        F.add_conv_bias(out, bias, positions)
        assert out.tobytes() == expected.tobytes()

    def test_a_strided_output_is_refused(self, rng):
        out = rng.standard_normal((8, 12))[:, ::2]
        with pytest.raises(ShapeError):
            F.add_conv_bias(out, np.zeros(6), 2)

    @pytest.mark.parametrize("lowrank", [False, True], ids=["conv", "lowrank"])
    def test_conv_forward_is_the_gemm_plus_the_bias(self, rng, lowrank):
        from repro.nn.layers import Conv2D, LowRankConv2D

        if lowrank:
            layer = LowRankConv2D(3, 8, 5, rank=4, padding=2, rng=0)
        else:
            layer = Conv2D(3, 8, 5, padding=2, rng=0)
        layer.bias.data = rng.standard_normal(8)
        x = rng.standard_normal((4, 3, 8, 8))
        cols, out_h, out_w = F.im2col(x, 5, 5, 1, 2)
        if lowrank:
            gemm = (cols @ layer.v.data) @ layer.u.data.T
        else:
            gemm = cols @ layer.weight_matrix.T
        expected = (gemm + layer.bias.data).reshape(4, out_h, out_w, 8).transpose(0, 3, 1, 2)
        assert layer.eval().forward(x).tobytes() == expected.tobytes()
