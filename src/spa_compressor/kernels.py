"""Dense transformer numerics: layer norm, multi-head attention, FFN.

All kernels take and return :class:`~spa_compressor.autodiff.Node` values so
both the forward result and analytic gradients come from one code path.
Layer norm and the attention core (head split, scores, softmax, weighted
sum, head merge) are fused nodes: one node each with closed-form numpy VJPs,
whose forward runs the same numpy operations, in the same order, as the
op-by-op graph it fuses, so its values are bit-identical to that graph.  The
attention projections and the FFN are ``matmul``/``add``/``gelu`` nodes.
Weights are initialized uniformly in [-1/sqrt(D), 1/sqrt(D)] from a seeded
generator, which makes every run bit-reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Node

LAYER_NORM_EPS = 1e-5
FFN_HIDDEN_MULT = 4


def check_finite(value: np.ndarray, what: str) -> None:
    if np.isfinite(value).all():
        return
    bad = np.argwhere(~np.isfinite(value))[0]
    raise ValueError(f"non-finite value in {what} at index {tuple(int(i) for i in bad)}")


def _param(rng: np.random.Generator, shape, bound: float, dtype) -> Node:
    return Node(rng.uniform(-bound, bound, size=shape).astype(dtype))


@dataclass
class LayerNormParams:
    scale: Node  # (D,), initialized to ones
    shift: Node  # (D,), initialized to zeros


def layer_norm_params(dim: int, dtype=np.float64) -> LayerNormParams:
    return LayerNormParams(
        scale=Node(np.ones(dim, dtype=dtype)),
        shift=Node(np.zeros(dim, dtype=dtype)),
    )


def layer_norm(x: Node, p: LayerNormParams) -> Node:
    """Normalize the last axis to zero mean / unit variance, then affine.

    One node over ``(x, scale, shift)``.  The mean and variance are sums
    times a ``1/D`` cast to the dtype, as ``reduce_mean`` computes them.
    """
    check_finite(x.value, "layer_norm input")
    xv, scale, shift = x.value, p.scale.value, p.shift.value
    inv_dim = np.asarray(1.0 / xv.shape[-1], dtype=xv.dtype)
    centered = xv - xv.sum(axis=-1, keepdims=True) * inv_dim
    variance = (centered * centered).sum(axis=-1, keepdims=True) * inv_dim
    inv_std = (variance + np.asarray(LAYER_NORM_EPS, dtype=xv.dtype)) ** -0.5
    normalized = centered * inv_std
    out = normalized * scale + shift
    if not ad.recording():
        return Node(out)

    def vjp_x(g):
        gn = g * scale
        mean_gn = gn.mean(axis=-1, keepdims=True)
        mean_gn_n = (gn * normalized).mean(axis=-1, keepdims=True)
        return inv_std * (gn - mean_gn - normalized * mean_gn_n)

    return Node(
        out,
        (x, p.scale, p.shift),
        (
            vjp_x,
            lambda g: ad.unbroadcast(g * normalized, scale.shape),
            lambda g: ad.unbroadcast(g, shift.shape),
        ),
    )


@dataclass
class AttentionParams:
    heads: int
    wq: Node
    wk: Node
    wv: Node
    wo: Node
    bq: Node
    bk: Node
    bv: Node
    bo: Node


def attention_params(dim: int, heads: int, rng: np.random.Generator, dtype=np.float64) -> AttentionParams:
    if dim % heads != 0:
        raise ValueError(f"head count {heads} must divide model dim {dim}")
    bound = 1.0 / np.sqrt(dim)
    weights = [_param(rng, (dim, dim), bound, dtype) for _ in range(4)]
    biases = [_param(rng, (dim,), bound, dtype) for _ in range(4)]
    return AttentionParams(heads, *weights, *biases)


def _project(x: Node, w: Node, b: Node) -> Node:
    return x @ w + b


def _check_context(q: Node, kv: Node) -> None:
    if q.ndim != 3 or kv.ndim != 3:
        raise ValueError(f"expected rank-3 inputs, got {q.shape} and {kv.shape}")
    if kv.shape[0] != q.shape[0] or kv.shape[2] != q.shape[2]:
        raise ValueError(f"query/context shape mismatch: {q.shape} vs {kv.shape}")
    if kv.shape[1] == 0:
        raise ValueError("attention context is empty (zero key/value tokens)")


def project_kv(kv: Node, p: AttentionParams) -> tuple[Node, Node]:
    """Key and value projections of a context ``kv`` (batch, Lkv, D).

    Projections act row by row, so a context shared by several query
    batches can be projected once and broadcast; see
    :func:`shared_prefix_kv`.
    """
    check_finite(kv.value, "attention key/value input")
    return _project(kv, p.wk, p.bk), _project(kv, p.wv, p.bv)


def shared_prefix_kv(shared: Node, rows: Node, p: AttentionParams) -> tuple[Node, Node]:
    """Keys and values of the contexts [shared, own tokens] of B*N query
    batches: ``shared`` (B, L_s, D) is common to N consecutive batches and
    ``rows`` (B*N, L_r, D) holds each batch's own tokens.

    The shared part is projected once and broadcast over its N batches,
    which is exact because the projections act row by row.
    """
    batch, l_s, dim = shared.shape
    n_rows, l_r, _ = rows.shape
    n = n_rows // batch

    def join(s: Node, r: Node) -> Node:
        s = ad.broadcast_to(ad.reshape(s, (batch, 1, l_s, dim)), (batch, n, l_s, dim))
        r = ad.reshape(r, (batch, n, l_r, dim))
        return ad.reshape(ad.concat([s, r], axis=2), (n_rows, l_s + l_r, dim))

    k_shared, v_shared = project_kv(shared, p)
    k_rows, v_rows = project_kv(rows, p)
    return join(k_shared, k_rows), join(v_shared, v_rows)


def attention_core(q: Node, k: Node, v: Node, heads: int) -> Node:
    """softmax(q k^T) v per head for (batch, L, D) queries ``q``, already
    scaled, and projected keys ``k`` and values ``v``: head split, scores,
    softmax over the key axis, weighted sum and head merge as one node over
    ``(q, k, v)``.

    Returns the (batch, Lq, D) node.  It keeps only what its VJP reads, the
    head-split q/k/v and the (batch*heads, Lq, Lkv) softmax weights; the VJP
    computes the softmax gradient once for all three parents.
    """
    batch, l_q, dim = q.shape
    l_kv = k.shape[1]
    head_dim = dim // heads

    def split(a, length):
        a = a.reshape(batch, length, heads, head_dim).transpose(0, 2, 1, 3)
        return a.reshape(batch * heads, length, head_dim)

    def merge(a, length):
        a = a.reshape(batch, heads, length, head_dim).transpose(0, 2, 1, 3)
        return a.reshape(batch, length, dim)

    qh, kh, vh = split(q.value, l_q), split(k.value, l_kv), split(v.value, l_kv)
    # the score buffer becomes the weights in place
    weights = qh @ kh.transpose(0, 2, 1)
    weights -= weights.max(axis=-1, keepdims=True)
    np.exp(weights, out=weights)
    weights /= weights.sum(axis=-1, keepdims=True)
    out = merge(weights @ vh, l_q)
    if not ad.recording():
        return Node(out)

    def grads(g):
        gh = split(g, l_q)
        d_weights = gh @ vh.transpose(0, 2, 1)
        d_scores = weights * (d_weights - (d_weights * weights).sum(axis=-1, keepdims=True))
        return (
            merge(d_scores @ kh, l_q),
            merge(d_scores.transpose(0, 2, 1) @ qh, l_kv),
            merge(weights.transpose(0, 2, 1) @ gh, l_kv),
        )

    return Node(out, (q, k, v), ad.shared_vjps(grads, 3))


def attend(q: Node, k: Node, v: Node, p: AttentionParams) -> Node:
    """Multi-head scaled-dot-product attention of queries ``q`` into
    projected keys ``k`` and values ``v``, each (batch, Lkv, D).

    Softmax runs over the key axis with scale 1/sqrt(head_dim), applied to
    the projected queries; no mask.  The q and output projections are
    ``matmul``/``add`` nodes around :func:`attention_core`.
    """
    _check_context(q, k)
    if v.shape != k.shape:
        raise ValueError(f"key/value shape mismatch: {k.shape} vs {v.shape}")
    check_finite(q.value, "attention query input")

    scale = 1.0 / np.sqrt(q.shape[2] // p.heads)
    context = attention_core(_project(q, p.wq, p.bq) * scale, k, v, p.heads)
    return _project(context, p.wo, p.bo)


def cross_attention(q: Node, kv: Node, p: AttentionParams) -> Node:
    """Multi-head scaled-dot-product attention of queries ``q`` into ``kv``:
    :func:`project_kv` followed by :func:`attend`."""
    _check_context(q, kv)
    k, v = project_kv(kv, p)
    return attend(q, k, v, p)


def self_attention(x: Node, p: AttentionParams) -> Node:
    return cross_attention(x, x, p)


@dataclass
class FfnParams:
    w1: Node
    b1: Node
    w2: Node
    b2: Node


def ffn_params(dim: int, rng: np.random.Generator, dtype=np.float64) -> FfnParams:
    hidden = FFN_HIDDEN_MULT * dim
    bound = 1.0 / np.sqrt(dim)
    return FfnParams(
        w1=_param(rng, (dim, hidden), bound, dtype),
        b1=_param(rng, (hidden,), bound, dtype),
        w2=_param(rng, (hidden, dim), bound, dtype),
        b2=_param(rng, (dim,), bound, dtype),
    )


def ffn(x: Node, p: FfnParams) -> Node:
    """Position-wise feed-forward: affine, GELU, affine; keeps width D."""
    check_finite(x.value, "ffn input")
    return ad.gelu(x @ p.w1 + p.b1) @ p.w2 + p.b2
