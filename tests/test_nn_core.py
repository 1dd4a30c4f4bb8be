import math

import numpy as np
import pytest

from scnn.errors import NumericError
from scnn.nn_core import (
    ADAM_CHUNK,
    AdamState,
    adam_step,
    cross_entropy,
    dense_forward,
    dense_backward,
    dropout,
    softmax,
    softmax_cross_entropy_backward,
    xavier_init,
)
from scnn.rng import Rng


class TestXavier:
    def test_bound(self):
        t = xavier_init(2, 1, (1000,), Rng(0))
        bound = math.sqrt(6.0 / 3.0)
        assert np.abs(t).max() <= bound
        assert t.dtype == np.float64  # build_model casts on assignment

    def test_variance_matches_uniform_closed_form(self):
        # var of U(-b, b) is b^2/3 = (6/200)/3 = 0.01 for fan 100+100
        t = xavier_init(100, 100, (100_000,), Rng(1))
        assert abs(t.var() - 0.01) < 0.0005  # within 5%

    def test_deterministic(self):
        a = xavier_init(3, 4, (3, 4), Rng(7))
        b = xavier_init(3, 4, (3, 4), Rng(7))
        np.testing.assert_array_equal(a, b)

    def test_zero_fan_rejected(self):
        with pytest.raises(ValueError):
            xavier_init(0, 1, (1,), Rng(0))


class TestDense:
    def test_identity(self):
        y, _ = dense_forward(np.array([[1.0, 2.0]]), np.eye(2), np.zeros(2))
        np.testing.assert_array_equal(y, [[1.0, 2.0]])

    def test_relu_clamp(self):
        y, _ = dense_forward(np.array([[1.0, -3.0]]), np.eye(2), np.zeros(2), "relu")
        np.testing.assert_array_equal(y, [[1.0, 0.0]])

    def test_hand_product(self):
        y, _ = dense_forward(np.array([[1.0, 1.0]]), np.array([[1.0], [1.0]]),
                             np.array([0.5]))
        np.testing.assert_array_equal(y, [[2.5]])

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            dense_forward(np.zeros((1, 3)), np.zeros((2, 2)), np.zeros(2))

    def test_backward_shapes_and_batch(self):
        x = Rng(0).uniform(-1, 1, (4, 3))
        W = Rng(1).uniform(-1, 1, (3, 2))
        b = np.zeros(2)
        y, cache = dense_forward(x, W, b, "relu")
        dx, dW, db = dense_backward(cache, np.ones_like(y))
        assert dx.shape == x.shape and dW.shape == W.shape and db.shape == b.shape


class TestSoftmax:
    def test_uniform(self):
        np.testing.assert_allclose(softmax(np.zeros(3)), [1 / 3] * 3)

    def test_closed_form(self):
        np.testing.assert_allclose(
            softmax(np.array([math.log(2), 0.0, 0.0])), [0.5, 0.25, 0.25], atol=1e-12
        )

    def test_large_logits_stable(self):
        p = softmax(np.array([1000.0, 0.0, 0.0]))
        assert np.isfinite(p).all()
        np.testing.assert_allclose(p, [1, 0, 0], atol=1e-12)

    def test_shift_invariance(self):
        logits = Rng(3).uniform(-5, 5, 3)
        np.testing.assert_allclose(softmax(logits), softmax(logits + 123.0), atol=1e-6)

    def test_sums_to_one_positive(self):
        p = softmax(Rng(4).uniform(-10, 10, (8, 3)))
        np.testing.assert_allclose(p.sum(axis=1), 1.0, atol=1e-6)
        assert (p > 0).all()

    def test_nan_rejected(self):
        with pytest.raises(NumericError):
            softmax(np.array([0.0, np.nan, 1.0]))


class TestCrossEntropy:
    def test_uniform(self):
        assert abs(cross_entropy(np.full((1, 3), 1 / 3), [2]) - math.log(3)) < 1e-12

    def test_perfect(self):
        assert cross_entropy(np.array([[0.0, 1.0, 0.0]]), [2]) == 0.0

    def test_clamped_zero(self):
        loss = cross_entropy(np.array([[1.0, 0.0, 0.0]]), [2])
        assert abs(loss - (-math.log(1e-12))) < 1e-9

    def test_batch_mean(self):
        p = np.array([[1.0, 0, 0], [0, 1.0, 0]])
        single = (cross_entropy(p[:1], [1]) + cross_entropy(p[1:], [1])) / 2
        assert abs(cross_entropy(p, [1, 1]) - single) < 1e-12

    def test_backward_zero_at_optimum(self):
        p = np.array([[1.0, 0.0, 0.0]])
        g = softmax_cross_entropy_backward(p, [1])
        assert np.abs(g).max() == 0


class TestDropout:
    def test_keep_prob_one(self):
        x = np.ones((4, 4), dtype=np.float32)
        y, mask = dropout(x, 1.0, Rng(1))
        np.testing.assert_array_equal(y, x)
        np.testing.assert_array_equal(mask, np.ones_like(x))

    def test_mean_preserved(self):
        x = np.ones(10_000, dtype=np.float64)
        y, _ = dropout(x, 0.5, Rng(2))
        assert abs(y.mean() - 1.0) < 0.02

    def test_mask_values(self):
        x = np.ones(100, dtype=np.float32)
        y, mask = dropout(x, 0.8, Rng(3))
        assert set(np.unique(mask)) <= {np.float32(0), np.float32(1 / 0.8)}
        np.testing.assert_array_equal(y, x * mask)

    @pytest.mark.parametrize("bad", [0.0, -0.1, 1.5])
    def test_bad_keep_prob(self, bad):
        with pytest.raises(ValueError):
            dropout(np.ones(3), bad, Rng(0))


class TestAdam:
    def _setup(self, dtype=np.float64, layout=(("w", (1,)),)):
        params = np.zeros(sum(math.prod(shape) for _, shape in layout), dtype=dtype)
        state = AdamState.for_arena(params, layout, beta2=0.999)
        return params, state

    def test_single_step_hand_computed(self):
        params, state = self._setup()
        adam_step(params, np.ones(1), state, lr=0.001)
        # m_hat = v_hat = 1 after one step -> theta = -lr / (1 + eps)
        expected = -0.001 / (1.0 + 1e-8)
        assert abs(params[0] - expected) < 1e-12
        assert state.t == 1

    def test_zero_gradient_no_move(self):
        params, state = self._setup()
        params[0] = 0.7
        adam_step(params, np.zeros(1), state, lr=0.1)
        assert params[0] == 0.7

    def test_deterministic_on_copies(self):
        import copy

        params1, state1 = self._setup()
        params2, state2 = params1.copy(), copy.deepcopy(state1)
        g = np.array([0.3])
        for _ in range(5):
            adam_step(params1, g, state1, lr=0.01)
            adam_step(params2, g, state2, lr=0.01)
        np.testing.assert_array_equal(params1, params2)
        np.testing.assert_array_equal(state1.m, state2.m)

    def test_reset_zeroes_moments_and_step(self):
        params, state = self._setup()
        adam_step(params, np.ones(1), state, lr=0.1)
        state.reset()
        assert state.t == 0 and not state.m.any() and not state.v.any()
        fresh, fresh_state = self._setup()
        fresh[:] = params
        adam_step(params, np.ones(1), state, lr=0.1)
        adam_step(fresh, np.ones(1), fresh_state, lr=0.1)
        np.testing.assert_array_equal(params, fresh)

    def test_reset_writes_no_moment_before_a_step(self):
        _, state = self._setup(layout=(("w", (4,)),))
        for moment in (state.m, state.v):
            moment.flags.writeable = False  # a fill would raise
        state.reset()
        assert state.t == 0 and not state.m.any() and not state.v.any()

    def test_first_step_must_advance(self):
        params, state = self._setup()
        with pytest.raises(ValueError, match="advance"):
            adam_step(params, np.ones(1), state, lr=0.1, advance=False)
        assert state.t == 0 and not params.any() and not state.m.any()

    def test_non_finite_gradient_named(self):
        layout = (("a", (2,)), ("w", (2, 3)), ("b", (1,)))
        params, state = self._setup(layout=layout)
        for index, name in ((0, "a"), (2, "w"), (7, "w"), (8, "b")):
            g = np.zeros(9)
            g[index] = np.inf if index % 2 else np.nan
            with pytest.raises(NumericError, match=f"'{name}'"):
                adam_step(params, g, state, lr=0.1)
            # a span's gradients name the tensor by the span's offset
            for lo in range(index + 1):
                with pytest.raises(NumericError, match=f"'{name}'"):
                    adam_step(params, g[lo:], state, lr=0.1, offset=lo)
        assert state.t == 0 and not params.any()

    def test_spans_update_like_one_step(self):
        rng = Rng(3)
        params = rng.uniform(-1, 1, 40)
        state = AdamState.for_arena(params, [("w", (40,))], beta2=0.999)
        whole, whole_state = params.copy(), AdamState.for_arena(params, [("w", (40,))], 0.999)
        for step in range(1, 4):
            g = rng.gen.normal(0, 1, 40)
            adam_step(whole, g, whole_state, lr=0.01)
            # the spans from the end, as backward_batch visits them
            for k, (lo, hi) in enumerate([(25, 40), (9, 25), (0, 9)]):
                adam_step(params, g[lo:hi], state, lr=0.01, offset=lo, advance=k == 0)
            assert state.t == whole_state.t == step
            for got, want in ((params, whole), (state.m, whole_state.m),
                              (state.v, whole_state.v)):
                np.testing.assert_array_equal(got, want)

    def test_span_must_fit_the_parameters(self):
        params, state = self._setup(layout=(("w", (4,)),))
        for g, offset in ((np.ones(2), 3), (np.ones(2), -1), (np.ones(5), 0)):
            with pytest.raises(ValueError, match="does not fit"):
                adam_step(params, g, state, lr=0.1, offset=offset)
        assert state.t == 0 and not params.any()

    def test_bad_lr(self):
        params, state = self._setup()
        with pytest.raises(ValueError):
            adam_step(params, np.ones(1), state, lr=0.0)

    def test_gradient_dtype_must_match(self):
        params, state = self._setup(np.float32)
        with pytest.raises(ValueError, match="float64"):
            adam_step(params, np.ones(1), state, lr=0.1)

    def test_buffers_must_be_flat_and_contiguous(self):
        params, state = self._setup(layout=(("w", (2, 2)),))
        with pytest.raises(ValueError, match=r"gradient \(2, 2\)"):
            adam_step(params, np.ones((2, 2)), state, lr=0.1)
        strided = np.zeros(8)[::2]
        state = AdamState.for_arena(strided, [("w", (4,))], beta2=0.999)
        with pytest.raises(ValueError, match="C-contiguous"):
            adam_step(strided, np.ones(4), state, lr=0.1)

    @staticmethod
    def _reference_step(params, grads, m_all, v_all, t, lr, b1=0.9, b2=0.999, eps=1e-8):
        """The update written per tensor with plain temporaries."""
        bc1 = 1.0 - b1 ** t
        bc2 = 1.0 - b2 ** t
        for name, p in params.items():
            g, m, v = grads[name], m_all[name], v_all[name]
            m *= b1
            m += (1 - b1) * g
            v *= b2
            v += (1 - b2) * np.square(g)
            p -= (lr / bc1) * m / (np.sqrt(v / bc2) + eps)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_bitwise_equal_to_reference(self, dtype):
        rng = Rng(42)
        # the flat buffer spans three ADAM_CHUNK slices, the last one partial,
        # whose ends fall inside "conv"
        layout = [("conv", (3, 160, 150)), ("dense", (40, 16)), ("b", (8,)), ("one", (1,))]
        assert 2 * ADAM_CHUNK < sum(math.prod(s) for _, s in layout) < 3 * ADAM_CHUNK
        ref = {k: rng.uniform(-1, 1, s).astype(dtype) for k, s in layout}
        ref_m = {k: np.zeros_like(p) for k, p in ref.items()}
        ref_v = {k: np.zeros_like(p) for k, p in ref.items()}
        params = np.concatenate([p.reshape(-1) for p in ref.values()])
        state = AdamState.for_arena(params, layout, beta2=0.999)
        for step in range(1, 7):
            grads = {k: rng.gen.normal(0, 10.0 ** (step % 3 - 1), s).astype(dtype)
                     for k, s in layout}
            lr = 0.01 / step
            adam_step(params, np.concatenate([g.reshape(-1) for g in grads.values()]),
                      state, lr)
            self._reference_step(ref, grads, ref_m, ref_v, step, lr)
            assert params.dtype == dtype
            for flat, want in ((params, ref), (state.m, ref_m), (state.v, ref_v)):
                np.testing.assert_array_equal(
                    flat, np.concatenate([a.reshape(-1) for a in want.values()]))
