"""Recurrent timestamp encoder.

A timestamp in seconds is rendered as a fixed-point decimal string with one
decimal place ("73.5"), each character is looked up in a learned digit
embedding table, and a gated recurrent (GRU) cell consumes the characters
left to right.  The final hidden state is the timestamp embedding.  This
keeps arbitrarily large times representable without magnitude saturation.

The whole recurrence of one timestamp is one fused autodiff node
(:func:`encode_timestamp`).  Its forward runs, character by character, the
same numpy operations in the same order as the op-by-op gate graph, so its
values are bit-identical to that graph; its VJP backpropagates through time.
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


def encode_timestamp(t: float, p: TimeEncoderParams) -> Node:
    """Embed a timestamp; returns the final (D,) GRU hidden state.

    Each character's embedding row ``x`` updates the (1, D) state ``h``:

        z = sigmoid(x W_z + h U_z + b_z)        r = sigmoid(x W_r + h U_r + b_r)
        n = tanh(x W_n + (r * h) U_n + b_n)     h' = (1 - z) * n + z * h

    One node over the embedding table and the nine gate parameters.  Its
    VJP backpropagates through the steps, then forms each weight gradient
    as one GEMM over the stacked steps.
    """
    rows = [DIGIT_ALPHABET.index(ch) for ch in render_time(t)]
    gates = (
        p.w_update, p.u_update, p.b_update,
        p.w_reset, p.u_reset, p.b_reset,
        p.w_cand, p.u_cand, p.b_cand,
    )
    w_z, u_z, b_z, w_r, u_r, b_r, w_n, u_n, b_n = (g.value for g in gates)
    embed = p.embed.value
    xs = embed[rows]
    dtype = xs.dtype
    h = np.zeros((1, embed.shape[1]), dtype=dtype)
    steps = []
    for k in range(len(rows)):
        x = xs[k : k + 1]
        z = expit(x @ w_z + h @ u_z + b_z)
        r = expit(x @ w_r + h @ u_r + b_r)
        rh = r * h
        n = np.tanh(x @ w_n + rh @ u_n + b_n)
        steps.append((h, z, r, rh, n))
        h = (np.asarray(1.0, dtype=dtype) - z) * n + z * h
    out = h.reshape(-1)
    if not ad.recording():
        return Node(out)

    def grads(g):
        d_h = g.reshape(1, -1)
        d_z, d_r, d_n = (np.empty_like(xs) for _ in range(3))
        for k in reversed(range(len(steps))):
            h, z, r, _, n = steps[k]
            d_n[k] = d_h * (1.0 - z) * (1.0 - n * n)
            d_rh = d_n[k : k + 1] @ u_n.T
            d_z[k] = d_h * (h - n) * z * (1.0 - z)
            d_r[k] = d_rh * h * r * (1.0 - r)
            d_h = d_h * z + d_rh * r + d_z[k : k + 1] @ u_z.T + d_r[k : k + 1] @ u_r.T
        hs = np.concatenate([step[0] for step in steps])
        rhs = np.concatenate([step[3] for step in steps])
        d_embed = np.zeros_like(embed)
        np.add.at(d_embed, rows, d_z @ w_z.T + d_r @ w_r.T + d_n @ w_n.T)
        return (
            d_embed,
            xs.T @ d_z, hs.T @ d_z, d_z.sum(axis=0),
            xs.T @ d_r, hs.T @ d_r, d_r.sum(axis=0),
            xs.T @ d_n, rhs.T @ d_n, d_n.sum(axis=0),
        )

    parents = (p.embed,) + gates
    return Node(out, parents, ad.shared_vjps(grads, len(parents)))
