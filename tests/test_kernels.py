import numpy as np
import pytest

from oracles import naive_attention, naive_ffn, naive_layer_norm, scalar_gelu

from spa_compressor import autodiff as ad
from spa_compressor.autodiff import Node
from spa_compressor.kernels import (
    AttentionParams,
    FfnParams,
    attend,
    attention_core,
    attention_params,
    cross_attention,
    ffn,
    ffn_params,
    layer_norm,
    layer_norm_params,
    self_attention,
)


def np_params(p: AttentionParams):
    return dict(
        heads=p.heads,
        wq=p.wq.value, wk=p.wk.value, wv=p.wv.value, wo=p.wo.value,
        bq=p.bq.value, bk=p.bk.value, bv=p.bv.value, bo=p.bo.value,
    )


class TestLayerNorm:
    def test_all_zero_input_stays_zero(self):
        p = layer_norm_params(4)
        out = layer_norm(Node(np.zeros((1, 4))), p)
        np.testing.assert_array_equal(out.value, np.zeros((1, 4)))

    def test_symmetric_pair_has_zero_mean(self):
        p = layer_norm_params(2)
        out = layer_norm(Node(np.array([[1.0, -1.0]])), p)
        assert abs(out.value.mean()) < 1e-12

    def test_matches_scalar_loop_oracle(self, rng):
        p = layer_norm_params(16)
        p.scale.value = rng.uniform(0.5, 1.5, 16)
        p.shift.value = rng.standard_normal(16)
        x = rng.standard_normal((7, 16))
        expected = naive_layer_norm(x, p.scale.value, p.shift.value)
        got = layer_norm(Node(x), p).value
        np.testing.assert_allclose(got, expected, atol=1e-12)

    def test_normalized_statistics(self, rng):
        p = layer_norm_params(12)
        x = rng.standard_normal((30, 12)) * 3.0
        out = layer_norm(Node(x), p).value
        assert np.abs(out.mean(axis=-1)).max() < 1e-10
        assert np.abs(out.var(axis=-1) - 1.0).max() < 1e-4

    def test_non_finite_input_reports_index(self):
        p = layer_norm_params(3)
        x = np.ones((2, 3))
        x[1, 2] = np.nan
        with pytest.raises(ValueError, match=r"\(1, 2\)"):
            layer_norm(Node(x), p)


class TestAttention:
    def test_single_key_returns_projected_value(self, rng):
        p = attention_params(4, 2, rng)
        q = Node(rng.standard_normal((1, 3, 4)))
        kv = rng.standard_normal((1, 1, 4))
        out = cross_attention(q, Node(kv), p)
        # softmax over one key is 1, so every query receives the same
        # projected value of that key
        projected = (kv[0] @ p.wv.value + p.bv.value) @ p.wo.value + p.bo.value
        for row in out.value[0]:
            np.testing.assert_allclose(row, projected[0], atol=1e-12)

    def test_softmax_rows_sum_to_one(self, rng):
        # with every value 1, each output is the sum of one row of weights
        q = Node(rng.standard_normal((2, 5, 8)))
        k = Node(rng.standard_normal((2, 7, 8)))
        v = Node(np.ones((2, 7, 8)))
        out = attention_core(q, k, v, heads=4)
        np.testing.assert_allclose(out.value, 1.0, rtol=0, atol=1e-12)

    def test_matches_naive_loop_oracle(self, rng):
        p = attention_params(4, 2, rng)
        q = rng.standard_normal((1, 2, 4))
        kv = rng.standard_normal((1, 3, 4))
        expected = naive_attention(q, kv, **np_params(p))
        got = cross_attention(Node(q), Node(kv), p).value
        np.testing.assert_allclose(got, expected, atol=1e-10)

    @pytest.mark.parametrize("seed", range(10))
    def test_randomized_instances_match_oracle(self, seed):
        rng = np.random.default_rng(seed)
        dim = int(rng.choice([4, 8]))
        heads = int(rng.choice([1, 2]))
        p = attention_params(dim, heads, rng)
        q = rng.standard_normal((2, int(rng.integers(1, 5)), dim))
        kv = rng.standard_normal((2, int(rng.integers(1, 6)), dim))
        expected = naive_attention(q, kv, **np_params(p))
        np.testing.assert_allclose(cross_attention(Node(q), Node(kv), p).value, expected, atol=1e-10)

    def test_key_permutation_invariance(self, rng):
        p = attention_params(8, 2, rng)
        q = Node(rng.standard_normal((1, 4, 8)))
        kv = rng.standard_normal((1, 6, 8))
        base = cross_attention(q, Node(kv), p).value
        perm = rng.permutation(6)
        shuffled = cross_attention(q, Node(kv[:, perm]), p).value
        np.testing.assert_allclose(shuffled, base, atol=1e-12)

    def test_empty_context_is_an_error(self, rng):
        p = attention_params(4, 2, rng)
        q = Node(rng.standard_normal((1, 2, 4)))
        with pytest.raises(ValueError, match="empty"):
            cross_attention(q, Node(np.zeros((1, 0, 4))), p)

    def test_shape_mismatch_is_an_error(self, rng):
        p = attention_params(4, 2, rng)
        with pytest.raises(ValueError, match="mismatch"):
            cross_attention(Node(np.zeros((1, 2, 4))), Node(np.zeros((1, 3, 6))), p)

    @pytest.mark.parametrize("q_shape,kv_shape", [((2, 4), (1, 3, 4)), ((1, 1, 1, 2, 4), (1, 3, 4)), ((1, 2, 4), (1, 1, 3, 4))])
    def test_rank_mismatch_is_an_error(self, rng, q_shape, kv_shape):
        p = attention_params(4, 2, rng)
        with pytest.raises(ValueError, match="expected rank-3 or rank-4 queries and a rank-3 context"):
            cross_attention(Node(np.zeros(q_shape)), Node(np.zeros(kv_shape)), p)

    def test_self_attention_single_token(self, rng):
        p = attention_params(4, 2, rng)
        x = rng.standard_normal((1, 1, 4))
        out = self_attention(Node(x), p)
        projected = (x[0] @ p.wv.value + p.bv.value) @ p.wo.value + p.bo.value
        np.testing.assert_allclose(out.value[0], projected, atol=1e-12)

    def test_self_attention_is_cross_attention_with_itself(self, rng):
        p = attention_params(8, 4, rng)
        x = Node(rng.standard_normal((2, 5, 8)))
        np.testing.assert_array_equal(
            self_attention(x, p).value, cross_attention(x, x, p).value
        )

    def test_deterministic_initialization(self):
        a = attention_params(8, 2, np.random.default_rng(42))
        b = attention_params(8, 2, np.random.default_rng(42))
        np.testing.assert_array_equal(a.wq.value, b.wq.value)
        np.testing.assert_array_equal(a.bo.value, b.bo.value)


class TestAttendSharedContext:
    def test_matches_cross_attention_on_materialized_context(self, rng):
        # two batch entries of three frames each; the query block is shared
        # by every frame (Nq = 1) or is each frame's own (Nq = 3)
        p = attention_params(8, 2, rng)
        shared = rng.standard_normal((2, 5, 8))
        own = rng.standard_normal((2, 3, 2, 8))
        context = np.concatenate([np.repeat(shared[:, None], 3, axis=1), own], axis=2).reshape(6, 7, 8)
        for n_q in (1, 3):
            q = rng.standard_normal((2, n_q, 4, 8))
            q_rows = Node(np.broadcast_to(q, (2, 3, 4, 8)).reshape(6, 4, 8))

            got = attention_core(
                Node(q), Node(shared), Node(2.0 * shared), 2, Node(own), Node(2.0 * own)
            ).value
            want = attention_core(q_rows, Node(context), Node(2.0 * context), heads=2).value
            np.testing.assert_allclose(got.reshape(6, 4, 8), want, rtol=0, atol=1e-12)

            got = attend(Node(q), Node(shared), Node(own), p).value
            want = cross_attention(q_rows, Node(context), p).value
            np.testing.assert_allclose(got.reshape(6, 4, 8), want, rtol=0, atol=1e-12)

    def test_query_blocks_without_own_context_match_the_3d_call(self, rng):
        # the global-context event path: (B, 1, Lq, D) queries, shared context only
        p = attention_params(8, 2, rng)
        q = rng.standard_normal((2, 1, 4, 8))
        shared = Node(rng.standard_normal((2, 5, 8)))
        got = attend(Node(q), shared, None, p).value
        assert got.shape == (2, 1, 4, 8)
        want = cross_attention(Node(q[:, 0]), shared, p).value
        np.testing.assert_allclose(got[:, 0], want, rtol=0, atol=1e-12)

    @pytest.mark.parametrize(
        "q_shape,own_shape",
        [((2, 1, 4, 8), (2, 3, 2, 6)), ((2, 1, 4, 8), (1, 3, 2, 8)), ((2, 2, 4, 8), (2, 3, 2, 8)), ((2, 4, 8), (2, 3, 2, 8))],
    )
    def test_own_context_shape_mismatch_is_an_error(self, rng, q_shape, own_shape):
        p = attention_params(8, 2, rng)
        with pytest.raises(ValueError, match="mismatch|query blocks"):
            attend(Node(np.zeros(q_shape)), Node(np.zeros((2, 5, 8))), Node(np.zeros(own_shape)), p)


class TestFfn:
    def test_zeroed_second_layer_gives_zero_output(self, rng):
        p = ffn_params(4, rng)
        p.w2.value[:] = 0.0
        p.b2.value[:] = 0.0
        out = ffn(Node(rng.standard_normal((3, 4))), p)
        np.testing.assert_array_equal(out.value, np.zeros((3, 4)))

    def test_hand_computed_scalar_case(self):
        # D=1, W=1 with hand-set weights: the whole network is
        # w2 * gelu(w1*x + b1) + b2
        p = FfnParams(
            w1=Node(np.array([[2.0]])),
            b1=Node(np.array([0.1])),
            w2=Node(np.array([[3.0]])),
            b2=Node(np.array([-0.2])),
        )
        x = 0.5
        expected = 3.0 * scalar_gelu(2.0 * x + 0.1) - 0.2
        got = ffn(Node(np.array([[x]])), p).value[0, 0]
        assert abs(got - expected) < 1e-12

    def test_matches_scalar_loop_oracle(self, rng):
        p = ffn_params(6, rng)
        x = rng.standard_normal((5, 6))
        expected = naive_ffn(x, p.w1.value, p.b1.value, p.w2.value, p.b2.value)
        np.testing.assert_allclose(ffn(Node(x), p).value, expected, atol=1e-10)

    def test_preserves_width_on_higher_rank_input(self, rng):
        p = ffn_params(4, rng)
        x = rng.standard_normal((2, 3, 4))
        assert ffn(Node(x), p).shape == (2, 3, 4)


class TestKernelGradients:
    def fd_check(self, params, forward, tol=1e-7):
        loss = lambda: float(forward().value.sum())
        out = forward()
        grads = ad.backward(ad.reduce_sum(out))
        for name, node in params:
            flat = node.value.reshape(-1)
            analytic = ad.grad_of(grads, node).reshape(-1)
            for k in range(flat.size):
                orig = flat[k]
                flat[k] = orig + 1e-6
                plus = loss()
                flat[k] = orig - 1e-6
                minus = loss()
                flat[k] = orig
                numeric = (plus - minus) / 2e-6
                assert abs(analytic[k] - numeric) < tol, f"{name}[{k}]"

    def test_layer_norm_gradients(self, rng):
        p = layer_norm_params(5)
        p.scale.value = rng.uniform(0.5, 1.5, 5)
        x = Node(rng.standard_normal((3, 5)))
        self.fd_check(ad.named_parameters(p) + [("x", x)], lambda: layer_norm(x, p))

    def test_layer_norm_kills_uniform_input_shift(self, rng):
        # a constant added to every coordinate of a token disappears in
        # the mean subtraction, so the loss gradient along that direction
        # is zero
        p = layer_norm_params(6)
        x = Node(rng.standard_normal((2, 6)))
        grads = ad.backward(ad.reduce_sum(layer_norm(x, p)))
        gx = ad.grad_of(grads, x)
        np.testing.assert_allclose(gx.sum(axis=-1), 0.0, atol=1e-12)

    def test_attention_gradients(self, rng):
        p = attention_params(4, 2, rng)
        q = Node(rng.standard_normal((1, 2, 4)))
        kv = Node(rng.standard_normal((1, 3, 4)))
        self.fd_check(
            ad.named_parameters(p) + [("q", q), ("kv", kv)],
            lambda: cross_attention(q, kv, p),
        )

    def test_attend_gradients_through_shared_and_per_frame_context(self, rng):
        # the shared context feeds every frame, so its gradient sums over
        # them, and so does the gradient of a query block shared by all frames
        p = attention_params(4, 2, rng)
        shared = Node(rng.standard_normal((2, 2, 4)))
        frames = Node(rng.standard_normal((2, 3, 2, 4)))
        for n_q in (1, 3):
            q = Node(rng.standard_normal((2, n_q, 2, 4)))
            self.fd_check(
                ad.named_parameters(p) + [("shared", shared), ("frames", frames), ("q", q)],
                lambda: attend(q, shared, frames, p),
            )

    def test_ffn_gradients(self, rng):
        p = ffn_params(3, rng)
        x = Node(rng.standard_normal((2, 3)))
        self.fd_check(ad.named_parameters(p) + [("x", x)], lambda: ffn(x, p))
