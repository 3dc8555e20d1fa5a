"""Dense transformer numerics: layer norm, multi-head attention, FFN.

All kernels take and return :class:`~spa_compressor.autodiff.Node` values so
both the forward result and analytic gradients come from one code path.
Layer norm and the attention core (head split, scores, softmax, weighted
sum, head merge) are fused nodes: one node each with closed-form numpy VJPs,
whose forward runs the same numpy operations, in the same order, as the
op-by-op graph it fuses, so its values are bit-identical to that graph.
The prefix attention core is the event stage's cross-attention: per-frame
queries attend into a context shared by every frame followed by each
frame's own tokens, and the two key blocks are scored separately and
combined by their row maxima and sums, so the shared block is never tiled
over frames.  The attention projections and the FFN are
``matmul``/``add``/``gelu`` nodes.
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
    """Key and value projections of a context ``kv`` (..., Lkv, D).

    Projections act row by row, so a context shared by several query
    blocks can be projected once; see :func:`prefix_attend`.
    """
    check_finite(kv.value, "attention key/value input")
    return _project(kv, p.wk, p.bk), _project(kv, p.wv, p.bv)


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


def prefix_attention_core(q: Node, k_s: Node, v_s: Node, k_r: Node, v_r: Node, heads: int) -> Node:
    """:func:`attention_core` of per-frame queries into the contexts
    [shared prefix, the frame's own tokens], without joining them.

    ``q`` (B, Nq, Lq, D) is already scaled, with Nq 1 (one query block for
    every frame) or N; ``k_s``/``v_s`` (B, L_s, D) are the projected shared
    prefix and ``k_r``/``v_r`` (B, N, L_r, D) each frame's own keys and
    values.  The shared block is scored once, by one GEMM per batch entry
    and head over all Nq*Lq query rows, and is never tiled over frames.
    Each block keeps its row max m, its exps and their row sum l; the two
    are combined as FlashAttention does (Dao et al., 2022), rescaling block
    i by a_i = exp(m_i - max(m_s, m_r)):
    out = (a_s O_s + a_r O_r) / (a_s l_s + a_r l_r), with O = exps @ V.

    Returns the (B, N, Lq, D) node.  The VJP rebuilds the per-frame softmax
    weights from the kept exps and factors; the shared keys and values take
    the gradient summed over frames, and so does ``q`` when Nq is 1.
    """
    batch, n_q, l_q, dim = q.shape
    head_dim = dim // heads

    def split(a):  # (B, ..., L, D) -> (B, heads, ..., L, head_dim)
        a = a.reshape(a.shape[:-1] + (heads, head_dim))
        return a.transpose(0, a.ndim - 2, *range(1, a.ndim - 2), a.ndim - 1)

    def merge(a):  # (B, heads, ..., L, head_dim) -> (B, ..., L, D)
        a = a.transpose(0, *range(2, a.ndim - 1), 1, a.ndim - 1)
        return a.reshape(a.shape[:-2] + (dim,))

    def block(scores, vh):
        """Row max, exps (in place of the scores), row sum and exps @ V."""
        m = scores.max(axis=-1, keepdims=True)
        scores -= m
        np.exp(scores, out=scores)
        return m, scores, scores.sum(axis=-1, keepdims=True), scores @ vh

    qh = split(q.value).reshape(batch, heads, n_q * l_q, head_dim)
    ksh, vsh, krh, vrh = split(k_s.value), split(v_s.value), split(k_r.value), split(v_r.value)
    m_s, e_s, l_s, o_s = block(qh @ ksh.swapaxes(-1, -2), vsh)
    qh = qh.reshape(batch, heads, n_q, l_q, head_dim)
    m_s, e_s, l_s, o_s = (a.reshape(batch, heads, n_q, l_q, -1) for a in (m_s, e_s, l_s, o_s))
    m_r, e_r, l_r, o_r = block(qh @ krh.swapaxes(-1, -2), vrh)
    m = np.maximum(m_s, m_r)
    a_s, a_r = np.exp(m_s - m), np.exp(m_r - m)
    denom = a_s * l_s + a_r * l_r
    out_h = (a_s * o_s + a_r * o_r) / denom
    out = merge(out_h)
    if not ad.recording():
        return Node(out)

    def grads(g):
        gh = split(g)
        row = (gh * out_h).sum(axis=-1, keepdims=True)
        w_s, w_r = e_s * (a_s / denom), e_r * (a_r / denom)
        d_s = w_s * (gh @ vsh[:, :, None].swapaxes(-1, -2) - row)
        d_r = w_r * (gh @ vrh.swapaxes(-1, -2) - row)
        d_q = d_s @ ksh[:, :, None] + d_r @ krh
        if n_q == 1:
            d_q = d_q.sum(axis=2, keepdims=True)
        return (
            merge(d_q),
            merge((d_s.swapaxes(-1, -2) @ qh).sum(axis=2)),
            merge((w_s.swapaxes(-1, -2) @ gh).sum(axis=2)),
            merge(d_r.swapaxes(-1, -2) @ qh),
            merge(w_r.swapaxes(-1, -2) @ gh),
        )

    return Node(out, (q, k_s, v_s, k_r, v_r), ad.shared_vjps(grads, 5))


def _around_core(core, q: Node, p: AttentionParams, *keys_values) -> Node:
    """The q projection, scaled by 1/sqrt(head_dim), the attention ``core``
    over ``keys_values`` and the output projection."""
    check_finite(q.value, "attention query input")
    scale = 1.0 / np.sqrt(q.shape[-1] // p.heads)
    context = core(_project(q, p.wq, p.bq) * scale, *keys_values, p.heads)
    return _project(context, p.wo, p.bo)


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
    return _around_core(attention_core, q, p, k, v)


def prefix_attend(q: Node, shared: Node, own: Node, p: AttentionParams) -> Node:
    """Attention of per-frame queries ``q`` (B, Nq, Lq, D), Nq 1 or N, into
    the contexts [``shared`` (B, L_s, D), the frame's ``own`` tokens
    (B, N, L_r, D)]; returns (B, N, Lq, D).

    The shared prefix is projected once for all frames, and the core is
    :func:`prefix_attention_core`, so it is never tiled over frames.
    """
    return _around_core(prefix_attention_core, q, p, *project_kv(shared, p), *project_kv(own, p))


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
