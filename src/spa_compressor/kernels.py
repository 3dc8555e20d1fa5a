"""Dense transformer numerics: layer norm, multi-head attention, FFN.

All kernels take and return :class:`~spa_compressor.autodiff.Node` values so
both the forward result and analytic gradients come from one code path.
Layer norm and the attention core (head split, scores, softmax, weighted
sum, head merge) are fused nodes: one node each with closed-form numpy VJPs.
Layer norm's forward runs the same numpy operations, in the same order, as
the op-by-op graph it fuses, so its values are bit-identical to that graph.
Every attention in the compressor is one :func:`attend`: queries attend
into a context shared by every query row and, for the event stage's
frame-conditioned cross-attention, each frame's own tokens.  The core
scales the queries by 1/sqrt(head_dim) itself and scores the two key
blocks separately, so the shared block is never tiled over frames.  It
bounds every score by |q_h| |k_h| per head: where that stays below
``SHIFT_FREE`` it takes exp of the scores with no row-max shift and sums
the blocks, and otherwise it shifts each block by its row max and combines
them by their maxima and sums.  A recorded core keeps no score-sized
array, since its VJP recomputes the exps.  Every attention and FFN
projection is one ``affine`` node, and the FFN adds a ``gelu``.
The projections and layer norm also take parameters that stack P probe
values of the finite-difference sweep, one per part of the batch; that
path is value-only.
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
    A ``scale`` and ``shift`` of P*D entries stack P probe values (see
    :func:`_probe_split`); that path is value-only and returns a leaf.
    """
    check_finite(x.value, "layer_norm input")
    xv, scale, shift = x.value, p.scale.value, p.shift.value
    inv_dim = np.asarray(1.0 / xv.shape[-1], dtype=xv.dtype)
    centered = xv - xv.sum(axis=-1, keepdims=True) * inv_dim
    variance = (centered * centered).sum(axis=-1, keepdims=True) * inv_dim
    inv_std = (variance + np.asarray(LAYER_NORM_EPS, dtype=xv.dtype)) ** -0.5
    normalized = centered * inv_std
    if scale.shape != xv.shape[-1:]:  # stacked probe values: the value-only probe path
        parts, scales = _probe_split(normalized, scale, xv.shape[-1:])
        return Node((parts * scales + shift.reshape(scales.shape)).reshape(xv.shape))
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
    bv: Node
    bo: Node


def attention_params(dim: int, heads: int, rng: np.random.Generator, dtype=np.float64) -> AttentionParams:
    bound = 1.0 / np.sqrt(dim)
    weights = [_param(rng, (dim, dim), bound, dtype) for _ in range(4)]
    # no key bias: it adds q_i . b_k to every score of query row i, which softmax
    # cancels; its draw is discarded so that later parameters keep their values
    bq, _, bv, bo = (_param(rng, (dim,), bound, dtype) for _ in range(4))
    return AttentionParams(heads, *weights, bq, bv, bo)


def _probe_split(x: np.ndarray, stacked: np.ndarray, shape: tuple) -> tuple[np.ndarray, np.ndarray]:
    """The probe path of the finite-difference sweep, value-only.

    ``stacked`` holds P probe values of a parameter of shape ``shape``
    along its leading axis, (P * shape[0], *shape[1:]), and the leading
    axis of the activation ``x`` holds P equal parts, part i for probe i.
    Returns ``x`` split to (P, part, ...) and the probes as
    (P, 1, ..., *shape), aligned to it for broadcasting.  Each part then
    meets the same numpy operations, on the same shapes, as it would with
    the unstacked parameter, so its values are bit-identical.
    """
    p = stacked.shape[0] // shape[0]
    parts = x.reshape((p, x.shape[0] // p) + x.shape[1:])
    return parts, stacked.reshape((p,) + (1,) * (parts.ndim - 1 - len(shape)) + shape)


def _project(x: Node, w: Node, b: Node | None) -> Node:
    """``x @ w + b``, or ``x @ w`` with no ``b``, as one ``affine`` node.  A
    ``w`` with P times x's width in rows, and a ``b`` of P*n entries, stack
    P probe values (see :func:`_probe_split`); that path is value-only and
    returns a leaf."""
    k, n = x.shape[-1], w.shape[-1]
    if w.shape[0] == k:
        return ad.affine(x, w, b)
    parts, ws = _probe_split(x.value, w.value, (k, n))
    out = parts @ ws
    if b is not None:
        out += b.value.reshape(ws.shape[:-2] + (1, n))
    return Node(out.reshape(x.shape[:-1] + (n,)))


# head split and merge transposes by the rank of the split array
_SPLIT_AXES = {4: (0, 2, 1, 3), 5: (0, 3, 1, 2, 4)}
_MERGE_AXES = {4: (0, 2, 1, 3), 5: (0, 2, 3, 1, 4)}

# Softmax needs no row-max shift where no score can reach SHIFT_FREE in
# magnitude.  By Cauchy-Schwarz a score of head h is at most |q_h| |k_h|, the
# norms of that head's slices of a scaled query row and a key row.  Below
# SHIFT_FREE, exp of a score lies in [e^-16, e^16], about [1.1e-7, 8.9e6], far
# inside float32's normal range [1.2e-38, 3.4e38]; a row sum of L exps is at
# most 8.9e6 L and exps @ V at most 8.9e6 L max|V|, so float32 holds both for
# any L and |V| under about 3.8e31 / L.
SHIFT_FREE = 16.0


def _shifted_entries(q: np.ndarray, keys: list, heads: int) -> np.ndarray | None:
    """The batch entries whose scores may reach SHIFT_FREE, as a boolean
    array over the batch axis, or None when there is none.

    An entry needs the shift unless, for every head, the largest squared
    norm of its query rows times that of its key rows, over every key
    block, is below SHIFT_FREE^2.  One product of the largest norms over
    the whole batch settles the common case in which no entry needs it.
    The squares are summed in float64 without a temporary of q's size, and
    cannot overflow from float32 inputs.
    """

    def square_norms(a):  # (B, rows, heads)
        a = a.reshape(a.shape[0], -1, heads, a.shape[-1] // heads)
        return np.einsum("brhc,brhc->brh", a, a, dtype=np.float64)

    q2, k2 = square_norms(q), [square_norms(k) for k in keys]
    if q2.max(initial=0.0) * max(k.max(initial=0.0) for k in k2) < SHIFT_FREE**2:
        return None
    bound = q2.max(axis=1, initial=0.0) * np.maximum.reduce([k.max(axis=1, initial=0.0) for k in k2])
    shifted = ~(bound < SHIFT_FREE**2).all(axis=1)
    return shifted if shifted.any() else None


def attention_core(
    q: Node, k: Node, v: Node, heads: int, k_own: Node | None = None, v_own: Node | None = None
) -> Node:
    """softmax(q k^T / sqrt(head_dim)) v per head as one node: query scale,
    head split, scores, softmax over the keys, weighted sum and head merge.

    ``q`` (B, Lq, D) or (B, Nq, Lq, D) holds the projected queries, which
    the core scales by 1/sqrt(head_dim) itself.
    ``k``/``v`` (B, L, D) are a key/value block shared by every query row;
    it is scored by one GEMM per batch entry and head over all of them, and
    never tiled.  ``k_own``/``v_own`` (B, N, L_r, D), if given, are each
    frame's own keys and values, for a (B, Nq, Lq, D) ``q`` with Nq 1 (one
    query block for every frame) or N; the keys of frame n are then
    [k, k_own[:, n]].
    Each block's exps give its row sum l and O = exps @ V and are then
    dropped.  Where no score can reach SHIFT_FREE (see
    :func:`_shifted_entries`), the exps are exp(q k^T) with no row-max
    shift, and the blocks combine as out = sum_i O_i / sum_i l_i, in place
    in the own block's arrays.  Otherwise the safe softmax runs: each block
    is shifted by its row max m_i, zeroed on the batch entries that need
    no shift, and the blocks are combined as FlashAttention does (Dao et
    al., 2022), rescaling block i by a_i = exp(m_i - max_j m_j):
    out = sum_i a_i O_i / sum_i a_i l_i.  A zeroed m makes every a_i 1, so
    each batch entry's values are bit-identical to those of its own call.

    Returns the node of ``q``'s shape, with N query blocks when there is an
    own block.  A recorded node keeps the head-split scaled q and the k/v,
    ``out`` and the combined row sum; the shifted path keeps each block's
    row max m and factor a_i too.  As in FlashAttention's backward, the one
    VJP recomputes each block's exps from q, k and m by the forward's own
    GEMM, subtraction and exp, and scales them by a_i / sum_i a_i l_i into
    the softmax weights; the weights, and so the gradients, are
    bit-identical to keeping the exps.
    It loops over the blocks; ``ad.unbroadcast`` sums the gradients of the
    shared block, and of a query block shared by every frame, over the
    frames.
    """
    batch, dim = q.shape[0], q.shape[-1]
    head_dim = dim // heads
    q_scale = np.asarray(1.0 / np.sqrt(head_dim), dtype=q.value.dtype)

    def split(a):  # (B, ..., L, D) -> (B, heads, ..., L, head_dim)
        a = a.reshape(a.shape[:-1] + (heads, head_dim))
        return a.transpose(_SPLIT_AXES[a.ndim])

    def merge(a):  # (B, heads, ..., L, head_dim) -> (B, ..., L, D)
        a = a.transpose(_MERGE_AXES[a.ndim])
        return a.reshape(a.shape[:-2] + (dim,))

    def exps(qh, kh, m=None):
        """m and exp(qh kh^T - m), in place of the scores.  The VJP gives
        the forward's m; the forward takes the row max, zeroed on the
        entries that need no shift, and subtracts nothing (m None) when no
        entry needs one."""
        scores = qh @ kh.swapaxes(-1, -2)
        if m is None and shifted is not None:
            m = scores.max(axis=-1, keepdims=True)
            m[~shifted] = 0.0
        if m is not None:
            scores -= m
        return m, np.exp(scores, out=scores)

    def block(qh, kh, vh):
        """Row max, row sum of the exps and exps @ V; the exps are dropped."""
        m, e = exps(qh, kh)
        return m, e.sum(axis=-1, keepdims=True), e @ vh

    q_scaled = q.value * q_scale
    keys = [k.value] if k_own is None else [k.value, k_own.value]
    shifted = _shifted_entries(q_scaled, keys, heads)
    qh = split(q_scaled)
    kh, vh = split(k.value), split(v.value)
    # the shared block: one GEMM per batch entry and head over every query row
    qs = qh.reshape(batch, heads, -1, head_dim)
    m, denom, out_h = block(qs, kh, vh)
    scored = [(qs, kh, m)]  # each block's score operands and row max, for the VJP's exps
    if q.ndim == 4:  # back to (B, heads, Nq, Lq, .); the shared keys broadcast over frames
        denom, out_h = (a.reshape(qh.shape[:-1] + a.shape[-1:]) for a in (denom, out_h))
        if m is not None:
            m = m.reshape(denom.shape)
        kh, vh = kh[:, :, None], vh[:, :, None]
    blocks, parents = [(1.0, kh, vh)], (q, k, v)
    if k_own is not None:
        krh, vrh = split(k_own.value), split(v_own.value)
        m_r, l_r, o_r = block(qh, krh, vrh)
        if shifted is None:
            l_r += denom
            o_r += out_h
            denom, out_h = l_r, o_r
            blocks.append((1.0, krh, vrh))
        else:
            m_max = np.maximum(m, m_r)
            a_s, a_r = np.exp(m - m_max), np.exp(m_r - m_max)
            denom = a_s * denom + a_r * l_r
            out_h = a_s * out_h + a_r * o_r
            blocks = [(a_s, kh, vh), (a_r, krh, vrh)]
        scored.append((qh, krh, m_r))
        parents += (k_own, v_own)
    out_h /= denom
    out = merge(out_h)
    if not ad.recording():
        return Node(out)

    def grads(g):
        gh = split(g)
        row = (gh * out_h).sum(axis=-1, keepdims=True)
        d_q, d_kv = [], []
        for (a, kh, vh), (qb, kb, m) in zip(blocks, scored):
            # the softmax weights exps * a / denom, from the forward's exps recomputed
            w = exps(qb, kb, m)[1]
            if w.ndim < qh.ndim:  # the shared block, scored over every query block at once
                w = w.reshape(qh.shape[:-1] + w.shape[-1:])
            scale = a / denom
            if scale.shape[:-1] == w.shape[:-1]:
                w *= scale
            else:  # one query block's exps serve every frame
                w = w * scale
            d = gh @ vh.swapaxes(-1, -2)
            d -= row
            d *= w
            d_q.append(d @ kh)
            d_kv += [
                ad.unbroadcast(d.swapaxes(-1, -2) @ qh, kh.shape),
                ad.unbroadcast(w.swapaxes(-1, -2) @ gh, vh.shape),
            ]
        d_all = [ad.unbroadcast(sum(d_q[1:], d_q[0]), qh.shape)] + d_kv
        d_all = [merge(d).reshape(p.shape) for d, p in zip(d_all, parents)]
        d_all[0] *= q_scale  # through the query scale
        return tuple(d_all)

    return Node(out, parents, ad.shared_vjps(grads, len(parents)))


def attend(q: Node, shared: Node, own: Node | None, p: AttentionParams) -> Node:
    """Multi-head scaled-dot-product attention of queries ``q``, (B, Lq, D)
    or (B, Nq, Lq, D), into a context ``shared`` (B, L, D) read by every
    query row and, if given, each frame's ``own`` tokens (B, N, L_r, D), for
    a (B, Nq, Lq, D) ``q`` with Nq 1 or N; frame n reads [shared, own[:, n]].

    Softmax runs over the keys with scale 1/sqrt(head_dim), which
    :func:`attention_core` applies to the projected queries; no mask.  Each
    context is projected once, so the shared one is never tiled over
    frames, and the q, k, v and output projections are ``affine`` nodes
    around :func:`attention_core`; the key projection has no bias (see
    :func:`attention_params`).
    """
    if q.ndim not in (3, 4) or shared.ndim != 3:
        raise ValueError(
            f"expected rank-3 or rank-4 queries and a rank-3 context, got {q.shape} and {shared.shape}"
        )
    if shared.shape[0] != q.shape[0] or shared.shape[2] != q.shape[-1]:
        raise ValueError(f"query/context shape mismatch: {q.shape} vs {shared.shape}")
    if shared.shape[1] == 0:
        raise ValueError("attention context is empty (zero key/value tokens)")
    contexts = [shared]
    if own is not None:
        if own.ndim != 4 or q.ndim != 4 or own.shape[0] != q.shape[0] or own.shape[3] != q.shape[3]:
            raise ValueError(f"query/frame context shape mismatch: {q.shape} vs {own.shape}")
        if q.shape[1] not in (1, own.shape[1]):
            raise ValueError(f"{q.shape[1]} query blocks for {own.shape[1]} frames")
        contexts.append(own)
    check_finite(q.value, "attention query input")
    for context in contexts:
        if context is not q:
            check_finite(context.value, "attention key/value input")
    keys_values = [_project(c, w, b) for c in contexts for w, b in ((p.wk, None), (p.wv, p.bv))]
    out = attention_core(_project(q, p.wq, p.bq), *keys_values[:2], p.heads, *keys_values[2:])
    return _project(out, p.wo, p.bo)


def cross_attention(q: Node, kv: Node, p: AttentionParams) -> Node:
    """Attention of (batch, Lq, D) queries ``q`` into (batch, Lkv, D) ``kv``."""
    return attend(q, kv, None, p)


def self_attention(x: Node, p: AttentionParams) -> Node:
    return attend(x, x, None, p)


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
    return _project(ad.gelu(_project(x, p.w1, p.b1)), p.w2, p.b2)
