import itertools
import tracemalloc

import numpy as np
import pytest

from oracles import naive_attention, naive_ffn, naive_layer_norm, scalar_gelu

from spa_compressor import autodiff as ad
from spa_compressor import kernels
from spa_compressor.autodiff import Node
from spa_compressor.kernels import (
    AttentionParams,
    FfnParams,
    _project,
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
    """The oracle's keyword arguments: ``p``'s values in float64."""
    return dict(
        heads=p.heads,
        **{name: getattr(p, name).value.astype(np.float64) for name in ("wq", "wk", "wv", "wo", "bq", "bv", "bo")},
    )


# input scales: at 1 the bound |q_h| |k_h| of every attention input below is
# at most 5.5, under kernels.SHIFT_FREE, so attention_core skips the row-max
# shift; at 6 it is at least 20, so the core takes the row-max fallback (the
# shift_paths fixture checks which path ran)
LOGIT_SCALES = {"unshifted": 1.0, "shifted": 6.0}


@pytest.fixture
def shift_paths(monkeypatch):
    """Records, for each attention_core call, whether it shifted any entry."""
    seen = []
    decide = kernels._shifted_entries

    def spy(*args):
        shifted = decide(*args)
        seen.append(shifted is not None)
        return shifted

    monkeypatch.setattr(kernels, "_shifted_entries", spy)
    return seen


def assert_matches_oracle(got, want):
    """float64 ``got`` to 1e-12; float32 to 1e-5 of the largest value of ``want``."""
    atol = 1e-12 if got.dtype == np.float64 else 1e-5 * np.abs(want).max()
    np.testing.assert_allclose(got, want, rtol=0, atol=atol)


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

    def test_matches_naive_loop_oracle(self, rng, shift_paths):
        # the core alone is the oracle with identity projections, since it scales the queries
        eye = np.eye(4)
        for dtype, logits in itertools.product((np.float64, np.float32), LOGIT_SCALES):
            p = attention_params(4, 2, rng, dtype)
            q = (rng.standard_normal((1, 2, 4)) * LOGIT_SCALES[logits]).astype(dtype)
            kv = (rng.standard_normal((1, 3, 4)) * LOGIT_SCALES[logits]).astype(dtype)
            q64, kv64 = q.astype(np.float64), kv.astype(np.float64)
            got = cross_attention(Node(q), Node(kv), p).value
            assert_matches_oracle(got, naive_attention(q64, kv64, **np_params(p)))
            got = attention_core(Node(q), Node(kv), Node(kv), heads=2).value
            assert_matches_oracle(got, naive_attention(q64, kv64, 2, eye, eye, eye, eye))
            assert shift_paths == [logits == "shifted"] * 2, (dtype, logits)
            shift_paths.clear()

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
    def test_matches_cross_attention_on_materialized_context(self, rng, shift_paths):
        # two batch entries of three frames each; the query block is shared
        # by every frame (Nq = 1) or is each frame's own (Nq = 3)
        eye = np.eye(8)
        for dtype, logits in itertools.product((np.float64, np.float32), LOGIT_SCALES):
            p = attention_params(8, 2, rng, dtype)
            shared = (rng.standard_normal((2, 5, 8)) * LOGIT_SCALES[logits]).astype(dtype)
            own = (rng.standard_normal((2, 3, 2, 8)) * LOGIT_SCALES[logits]).astype(dtype)
            context = np.concatenate([np.repeat(shared[:, None], 3, axis=1), own], axis=2).reshape(6, 7, 8)
            for n_q in (1, 3):
                q = (rng.standard_normal((2, n_q, 4, 8)) * LOGIT_SCALES[logits]).astype(dtype)
                rows = np.broadcast_to(q, (2, 3, 4, 8)).reshape(6, 4, 8)
                rows64, context64 = rows.astype(np.float64), context.astype(np.float64)

                got = attention_core(
                    Node(q), Node(shared), Node(2.0 * shared), 2, Node(own), Node(2.0 * own)
                ).value.reshape(6, 4, 8)
                want = attention_core(Node(rows), Node(context), Node(2.0 * context), heads=2).value
                assert_matches_oracle(got, want.astype(np.float64))
                assert_matches_oracle(got, naive_attention(rows64, context64, 2, eye, eye, 2.0 * eye, eye))

                got = attend(Node(q), Node(shared), Node(own), p).value.reshape(6, 4, 8)
                want = cross_attention(Node(rows), Node(context), p).value
                assert_matches_oracle(got, want.astype(np.float64))
                assert_matches_oracle(got, naive_attention(rows64, context64, **np_params(p)))
            assert set(shift_paths) == {logits == "shifted"}, (dtype, logits)
            shift_paths.clear()

    def test_a_safe_entry_keeps_its_values_next_to_a_shifted_one(self, rng, shift_paths):
        # entry 0 needs no row-max shift and entry 1 does; the batched call
        # shifts entry 1 only, so entry 0's output and query gradient are
        # bit-identical to its own call's, and entry 1 still matches the oracle
        p = attention_params(8, 2, rng)
        scales = np.array([1.0, LOGIT_SCALES["shifted"]]).reshape(2, 1, 1, 1)
        shared = rng.standard_normal((2, 5, 8)) * scales[:, 0]
        own = rng.standard_normal((2, 3, 2, 8)) * scales
        for n_q in (1, 3):
            q = rng.standard_normal((2, n_q, 4, 8)) * scales
            runs = []
            for entries in (slice(0, 2), slice(0, 1)):
                qn = Node(q[entries])
                out = attend(qn, Node(shared[entries]), Node(own[entries]), p)
                runs.append((out.value, ad.grad_of(ad.backward(ad.reduce_sum(out)), qn)))
            (both, grad_both), (alone, grad_alone) = runs
            np.testing.assert_array_equal(both[:1], alone)
            np.testing.assert_array_equal(grad_both[:1], grad_alone)
            context = np.concatenate([np.repeat(shared[1:, None], 3, axis=1), own[1:]], axis=2)[0]
            want = naive_attention(np.broadcast_to(q[1], (3, 4, 8)), context, **np_params(p))
            np.testing.assert_allclose(both[1], want, rtol=0, atol=1e-12)
        assert shift_paths == [True, False] * 2

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

    @pytest.mark.parametrize(
        "q_shape,kv_shape,own_shape",
        [((1, 64, 8), (1, 512, 8), None), ((1, 4, 16, 8), (1, 512, 8), (1, 4, 128, 8)),
         ((1, 1, 16, 8), (1, 512, 8), (1, 4, 128, 8))],
        ids=["one-block", "two-block-nq-n", "two-block-nq-1"],
    )
    def test_recorded_core_holds_no_score_sized_array(self, rng, q_shape, kv_shape, own_shape):
        # the VJP recomputes each block's exps, so a recorded node keeps only
        # row-sized statistics next to its inputs and output
        heads = 2
        q, k, v = (Node(rng.standard_normal(s)) for s in (q_shape, kv_shape, kv_shape))
        own = (Node(rng.standard_normal(own_shape)), Node(rng.standard_normal(own_shape))) if own_shape else ()
        # float64 scores: the shared block's, (1, heads, Nq * Lq, L), and the own block's, (1, heads, N, Lq, L_r)
        blocks = [heads * int(np.prod(q_shape[:-1])) * kv_shape[1]]
        if own_shape:
            blocks.append(heads * own_shape[1] * q_shape[-2] * own_shape[2])
        smallest_block = 8 * min(blocks)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            out = attention_core(q, k, v, heads, *own)
            held = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert out.parents
        assert held < smallest_block / 4, f"{held} bytes held against a {smallest_block}-byte score block"


class TestProject:
    def test_recorded_projection_is_one_node_over_input_weights_and_bias(self, rng):
        x = Node(rng.standard_normal((2, 3, 4)))
        w, b = Node(rng.standard_normal((4, 5))), Node(rng.standard_normal(5))
        out = _project(x, w, b)
        assert out.parents == (x, w, b) and len(out.vjps) == 3
        np.testing.assert_array_equal(out.value, x.value @ w.value + b.value)


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

    def test_attention_gradients(self, rng, shift_paths):
        for logits, scale in LOGIT_SCALES.items():
            p = attention_params(4, 2, rng)
            q = Node(rng.standard_normal((1, 2, 4)) * scale)
            kv = Node(rng.standard_normal((1, 3, 4)) * scale)
            self.fd_check(
                ad.named_parameters(p) + [("q", q), ("kv", kv)],
                lambda: cross_attention(q, kv, p),
            )
            assert set(shift_paths) == {logits == "shifted"}, logits
            shift_paths.clear()

    def test_attend_gradients_through_shared_and_per_frame_context(self, rng, shift_paths):
        # the shared context feeds every frame, so its gradient sums over
        # them, and so does the gradient of a query block shared by all frames
        for logits, scale in LOGIT_SCALES.items():
            p = attention_params(4, 2, rng)
            shared = Node(rng.standard_normal((2, 2, 4)) * scale)
            frames = Node(rng.standard_normal((2, 3, 2, 4)) * scale)
            for n_q in (1, 3):
                q = Node(rng.standard_normal((2, n_q, 2, 4)) * scale)
                self.fd_check(
                    ad.named_parameters(p) + [("shared", shared), ("frames", frames), ("q", q)],
                    lambda: attend(q, shared, frames, p),
                )
            assert set(shift_paths) == {logits == "shifted"}, logits
            shift_paths.clear()

    def test_ffn_gradients(self, rng):
        p = ffn_params(3, rng)
        x = Node(rng.standard_normal((2, 3)))
        self.fd_check(ad.named_parameters(p) + [("x", x)], lambda: ffn(x, p))
