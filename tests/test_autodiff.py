import contextlib

import numpy as np
import pytest

from spa_compressor import autodiff as ad
from spa_compressor.autodiff import Node
from spa_compressor.kernels import (
    LayerNormParams,
    attention_core,
    layer_norm,
    layer_norm_params,
)
from spa_compressor.time_encoder import TimeEncoderParams, encode_timestamp


def fd_grad(fn, x, step=1e-6):
    """Central finite differences of a scalar-valued fn w.r.t. array x."""
    g = np.zeros_like(x)
    flat = x.reshape(-1)
    gflat = g.reshape(-1)
    for k in range(flat.size):
        orig = flat[k]
        flat[k] = orig + step
        plus = fn()
        flat[k] = orig - step
        minus = fn()
        flat[k] = orig
        gflat[k] = (plus - minus) / (2 * step)
    return g


def check_op(build, *arrays, tol=1e-7):
    nodes = [Node(a) for a in arrays]
    out = build(*nodes)
    grads = ad.backward(ad.reduce_sum(out * out))
    for node, arr in zip(nodes, arrays):
        numeric = fd_grad(lambda: float((build(*[Node(a) for a in arrays]).value ** 2).sum()), arr)
        analytic = ad.grad_of(grads, node)
        np.testing.assert_allclose(analytic, numeric, rtol=tol, atol=tol)


GRU_WEIGHTS = [(4, 4), (4, 4), (4,)] * 3  # W, U, b of the update, reset and candidate gates

# the fused nodes: one node each over all their inputs, closed-form VJPs
FUSED = [
    (lambda x, s, b: layer_norm(x, LayerNormParams(s, b)), [(2, 3, 4), (4,), (4,)]),
    (lambda q, k, v: attention_core(q, k, v, heads=2), [(2, 3, 4), (2, 5, 4), (2, 5, 4)]),  # Lq < Lk
    (lambda q, k, v: attention_core(q, k, v, heads=3), [(1, 4, 6), (1, 2, 6), (1, 2, 6)]),  # Lq > Lk
    # (B, 1, Lq, D) queries with no own block: the global-context event path
    (lambda q, k, v: attention_core(q, k, v, heads=2), [(2, 1, 3, 4), (2, 5, 4), (2, 5, 4)]),
    (lambda e, *w: encode_timestamp(47.3, TimeEncoderParams(e, *w)), [(11, 4)] + GRU_WEIGHTS),
    (lambda e, *w: encode_timestamp(11.1, TimeEncoderParams(e, *w)), [(11, 4)] + GRU_WEIGHTS),  # "11.1": a repeated row
    # B=2 of N=3 frames with own blocks: a query block shared by every frame, then one per frame
    (lambda q, k, v, *own: attention_core(q, k, v, 2, *own), [(2, 1, 3, 4), (2, 5, 4), (2, 5, 4), (2, 3, 2, 4), (2, 3, 2, 4)]),
    (lambda q, k, v, *own: attention_core(q, k, v, 2, *own), [(2, 3, 3, 4), (2, 5, 4), (2, 5, 4), (2, 3, 2, 4), (2, 3, 2, 4)]),
]

OPS = [
    (lambda a, b: a + b, [(3, 4), (3, 4)]),
    (lambda a, b: a + b, [(3, 4), (4,)]),  # broadcast
    (lambda a, b: a - b, [(2, 3), (2, 3)]),
    (lambda a, b: a * b, [(3, 4), (1, 4)]),
    (lambda a, b: a @ b, [(3, 4), (4, 5)]),
    (lambda a, b: a @ b, [(2, 3, 4), (4, 5)]),  # batched vs shared
    (lambda a, b: a @ b, [(2, 2, 3, 4), (4, 5)]),  # two batch axes vs shared
    (lambda a: ad.gelu(a), [(4, 3)]),
    (lambda a: ad.reduce_sum(a) * a, [(3, 4)]),
    (lambda a: ad.reduce_mean(a) - a, [(2, 5)]),
    (lambda a: ad.reshape(a, (6, 2)), [(3, 4)]),
    (lambda a: ad.broadcast_to(a, (2, 3, 4)), [(3, 1)]),
    (lambda a, b: ad.concat([a, b], axis=1), [(2, 3), (2, 2)]),
    *FUSED,
]


@pytest.mark.parametrize("build,shapes", OPS)
def test_vjp_matches_finite_differences(build, shapes):
    rng = np.random.default_rng(99)
    arrays = [rng.standard_normal(s) for s in shapes]
    check_op(build, *arrays)


def test_constant_loss_has_zero_gradients():
    x = Node(np.arange(6.0).reshape(2, 3))
    loss = ad.reduce_sum(x * 0.0)
    grads = ad.backward(loss)
    assert np.all(ad.grad_of(grads, x) == 0.0)


def test_backward_requires_scalar_root():
    x = Node(np.ones((2, 2)))
    with pytest.raises(ValueError, match="scalar"):
        ad.backward(x + x)


def test_unrecorded_node_gradient_is_an_error():
    x = Node(np.ones(3))
    other = Node(np.ones(3))
    grads = ad.backward(ad.reduce_sum(x * x))
    with pytest.raises(KeyError, match="not part of the differentiated graph"):
        ad.grad_of(grads, other)


def test_float32_graph_stays_float32():
    # python scalars adopt the float32 dtype, with and without a graph
    for context in (contextlib.nullcontext, ad.no_grad):
        with context():
            x = Node(np.ones((1, 2, 4), dtype=np.float32))
            y = ad.gelu(1.0 - x * 0.5) + 2.0
            assert y.value.dtype == np.float32
            z = layer_norm(y, layer_norm_params(4, np.float32)) * (1.0 / 3.0)
            assert z.value.dtype == np.float32
            assert attention_core(z, z, z, heads=2).value.dtype == np.float32


# every VJP returns its parent's dtype, so an f32 graph's backward stays f32
@pytest.mark.parametrize("build,shapes", OPS)
def test_fused_node_gradients_stay_float32(build, shapes):
    rng = np.random.default_rng(7)
    nodes = [Node(rng.standard_normal(s).astype(np.float32)) for s in shapes]
    out = build(*nodes)
    assert out.value.dtype == np.float32
    grads = ad.backward(ad.reduce_sum(out * out))
    for node in nodes:
        assert ad.grad_of(grads, node).dtype == np.float32


def test_nodes_cannot_be_indexed():
    with pytest.raises(TypeError):
        Node(np.ones((3, 4)))[1]


def test_matmul_needs_a_2d_right_operand():
    with pytest.raises(ValueError, match=r"\(3, 4\) @ \(2, 4, 5\)"):
        Node(np.ones((3, 4))) @ Node(np.ones((2, 4, 5)))
    with pytest.raises(ValueError, match="rank >= 2"):
        Node(np.ones(4)) @ Node(np.ones((4, 5)))


def test_gradients_accumulate_across_reuse():
    x = Node(np.full(4, 2.0))
    y = x * x + x  # dy/dx = 2x + 1
    grads = ad.backward(ad.reduce_sum(y))
    np.testing.assert_allclose(ad.grad_of(grads, x), np.full(4, 5.0))


@pytest.mark.parametrize("build,shapes", OPS)
def test_no_grad_gives_the_same_values_and_records_nothing(build, shapes):
    rng = np.random.default_rng(99)
    nodes = [Node(rng.standard_normal(s)) for s in shapes]
    recorded = build(*nodes)
    with ad.no_grad():
        value_only = build(*nodes)
    assert recorded.parents
    assert value_only.parents == () and value_only.vjps == ()
    assert value_only.value.dtype == recorded.value.dtype
    assert np.array_equal(value_only.value, recorded.value, equal_nan=True)


def test_no_grad_nests_and_is_restored_after_an_exception():
    x = Node(np.ones(3))
    with pytest.raises(RuntimeError):
        with ad.no_grad():
            with ad.no_grad():
                assert (x * x).parents == ()
            assert (x * x).parents == ()  # leaving the inner context keeps recording off
            raise RuntimeError("inside no_grad")
    y = x * x
    assert y.parents == (x, x)
    np.testing.assert_array_equal(ad.grad_of(ad.backward(ad.reduce_sum(y)), x), np.full(3, 2.0))
