"""Recurrent timestamp encoder.

A timestamp in seconds is rendered as a fixed-point decimal string with one
decimal place ("73.5"), each character is looked up in a learned digit
embedding table, and a gated recurrent (GRU) cell consumes the characters
left to right.  The final hidden state is the timestamp embedding.  This
keeps arbitrarily large times representable without magnitude saturation.

Each GRU step is one fused autodiff node (:func:`gru_step`) whose forward
runs the same numpy operations, in the same order, as the op-by-op gate
graph, so its values are bit-identical to that graph.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import expit

from . import autodiff as ad
from .autodiff import Node
from .kernels import _param

DIGIT_ALPHABET = "0123456789."
MAX_TIME_SECONDS = 1e6


@dataclass
class TimeEncoderParams:
    dim: int
    embed: Node  # (len(DIGIT_ALPHABET), D)
    w_update: Node
    u_update: Node
    b_update: Node
    w_reset: Node
    u_reset: Node
    b_reset: Node
    w_cand: Node
    u_cand: Node
    b_cand: Node


def time_encoder_params(dim: int, rng: np.random.Generator, dtype=np.float64) -> TimeEncoderParams:
    bound = 1.0 / math.sqrt(dim)
    mat = lambda: _param(rng, (dim, dim), bound, dtype)
    vec = lambda: _param(rng, (dim,), bound, dtype)
    return TimeEncoderParams(
        dim=dim,
        embed=_param(rng, (len(DIGIT_ALPHABET), dim), bound, dtype),
        w_update=mat(), u_update=mat(), b_update=vec(),
        w_reset=mat(), u_reset=mat(), b_reset=vec(),
        w_cand=mat(), u_cand=mat(), b_cand=vec(),
    )


def render_time(t: float) -> str:
    if not math.isfinite(t) or t < 0:
        raise ValueError(f"timestamp must be finite and non-negative, got {t}")
    if t >= MAX_TIME_SECONDS:
        raise ValueError(f"timestamp {t} exceeds the {MAX_TIME_SECONDS:.0f}s limit")
    return f"{t:.1f}"


def gru_step(x: Node, h: Node, p: TimeEncoderParams) -> Node:
    """One GRU step from input ``x`` and state ``h``, each (batch, D):

        z = sigmoid(x W_z + h U_z + b_z)        r = sigmoid(x W_r + h U_r + b_r)
        n = tanh(x W_n + (r * h) U_n + b_n)     h' = (1 - z) * n + z * h

    One node over ``x``, ``h`` and the nine gate parameters (the embedding
    table is not used); the VJP computes all eleven gradients at once.
    """
    xv, hv = x.value, h.value
    dtype = hv.dtype
    w_z, u_z, w_r, u_r, w_n, u_n = (
        m.value for m in (p.w_update, p.u_update, p.w_reset, p.u_reset, p.w_cand, p.u_cand)
    )
    z = expit(xv @ w_z + hv @ u_z + p.b_update.value).astype(dtype)
    r = expit(xv @ w_r + hv @ u_r + p.b_reset.value).astype(dtype)
    rh = r * hv
    n = np.tanh(xv @ w_n + rh @ u_n + p.b_cand.value)
    out = (np.asarray(1.0, dtype=dtype) - z) * n + z * hv
    if not ad.recording():
        return Node(out)

    def grads(g):
        d_n = g * (1.0 - z) * (1.0 - n * n)
        d_rh = d_n @ u_n.T
        d_z = g * (hv - n) * z * (1.0 - z)
        d_r = d_rh * hv * r * (1.0 - r)
        d_x = d_z @ w_z.T + d_r @ w_r.T + d_n @ w_n.T
        d_h = g * z + d_rh * r + d_z @ u_z.T + d_r @ u_r.T
        return (
            d_x, d_h,
            xv.T @ d_z, hv.T @ d_z, d_z.sum(axis=0),
            xv.T @ d_r, hv.T @ d_r, d_r.sum(axis=0),
            xv.T @ d_n, rh.T @ d_n, d_n.sum(axis=0),
        )

    parents = (
        x, h,
        p.w_update, p.u_update, p.b_update,
        p.w_reset, p.u_reset, p.b_reset,
        p.w_cand, p.u_cand, p.b_cand,
    )
    return Node(out, parents, ad.shared_vjps(grads, len(parents)))


def encode_timestamp(t: float, p: TimeEncoderParams) -> Node:
    """Embed a timestamp; returns the final (D,) GRU hidden state."""
    text = render_time(t)
    h = Node(np.zeros((1, p.dim), dtype=p.embed.value.dtype))
    for ch in text:
        i = DIGIT_ALPHABET.index(ch)
        h = gru_step(p.embed[i : i + 1], h, p)
    return ad.reshape(h, (p.dim,))
