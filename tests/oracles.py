"""Independent scalar-loop reference implementations.

These deliberately avoid the package's kernel code paths: plain Python
loops, math-module scalars, and explicit index arithmetic only.  They are
the ground truth the vectorized kernels are checked against.
"""

import math

import numpy as np


def naive_layer_norm(x, scale, shift, eps=1e-5):
    """Per-row normalization of a 2-D array via explicit scalar loops."""
    rows, dim = x.shape
    out = np.zeros_like(x)
    for r in range(rows):
        mean = 0.0
        for c in range(dim):
            mean += x[r, c]
        mean /= dim
        var = 0.0
        for c in range(dim):
            var += (x[r, c] - mean) ** 2
        var /= dim
        inv = 1.0 / math.sqrt(var + eps)
        for c in range(dim):
            out[r, c] = (x[r, c] - mean) * inv * scale[c] + shift[c]
    return out


def naive_linear(x, w, b):
    rows, din = x.shape
    dout = w.shape[1]
    out = np.zeros((rows, dout), dtype=x.dtype)
    for r in range(rows):
        for j in range(dout):
            acc = 0.0 if b is None else float(b[j])
            for k in range(din):
                acc += x[r, k] * w[k, j]
            out[r, j] = acc
    return out


def scalar_gelu(v):
    return 0.5 * v * (1.0 + math.erf(v / math.sqrt(2.0)))


def naive_ffn(x, w1, b1, w2, b2):
    hidden = naive_linear(x, w1, b1)
    for r in range(hidden.shape[0]):
        for c in range(hidden.shape[1]):
            hidden[r, c] = scalar_gelu(hidden[r, c])
    return naive_linear(hidden, w2, b2)


def naive_attention(q, kv, heads, wq, wk, wv, wo, bq=None, bk=None, bv=None, bo=None):
    """Multi-head attention via four nested loops; q (B,Lq,D), kv (B,Lkv,D)."""
    batch, lq, dim = q.shape
    lkv = kv.shape[1]
    head_dim = dim // heads
    out = np.zeros((batch, lq, dim), dtype=q.dtype)
    for b in range(batch):
        qp = naive_linear(q[b], wq, bq)
        kp = naive_linear(kv[b], wk, bk)
        vp = naive_linear(kv[b], wv, bv)
        mixed = np.zeros((lq, dim), dtype=q.dtype)
        for h in range(heads):
            lo, hi = h * head_dim, (h + 1) * head_dim
            for i in range(lq):
                scores = []
                for j in range(lkv):
                    dot = 0.0
                    for c in range(lo, hi):
                        dot += qp[i, c] * kp[j, c]
                    scores.append(dot / math.sqrt(head_dim))
                peak = max(scores)
                exps = [math.exp(s - peak) for s in scores]
                total = sum(exps)
                weights = [e / total for e in exps]
                for c in range(lo, hi):
                    acc = 0.0
                    for j in range(lkv):
                        acc += weights[j] * vp[j, c]
                    mixed[i, c] = acc
        out[b] = naive_linear(mixed, wo, bo)
    return out


def naive_encode_timestamp(t, embed, w_update, u_update, b_update, w_reset, u_reset, b_reset, w_cand, u_cand, b_cand):
    """Character-level GRU over the one-decimal rendering of ``t``, one
    scalar at a time; returns the final (D,) hidden state."""
    alphabet = "0123456789."
    dim = embed.shape[1]

    def preactivation(x, state, w, u, b, j):
        acc = float(b[j])
        for k in range(dim):
            acc += x[k] * w[k, j] + state[k] * u[k, j]
        return acc

    h = [0.0] * dim
    for ch in "%.1f" % t:
        x = [float(v) for v in embed[alphabet.index(ch)]]
        z = [1.0 / (1.0 + math.exp(-preactivation(x, h, w_update, u_update, b_update, j))) for j in range(dim)]
        r = [1.0 / (1.0 + math.exp(-preactivation(x, h, w_reset, u_reset, b_reset, j))) for j in range(dim)]
        rh = [r[k] * h[k] for k in range(dim)]
        n = [math.tanh(preactivation(x, rh, w_cand, u_cand, b_cand, j)) for j in range(dim)]
        h = [(1.0 - z[j]) * n[j] + z[j] * h[j] for j in range(dim)]
    return np.array(h)


def accumulate_everything_backward(root):
    """Reverse-mode accumulation that keeps every node's gradient, leaves
    and interior nodes alike, until it returns: a dict keyed by node
    identity.  It visits the nodes in the same order as
    ``autodiff.backward`` and adds the contributions in the same order, so
    its leaf gradients are the reference for that backward's, bit for bit."""
    order, seen, stack = [], set(), [(root, False)]
    while stack:  # depth-first post-order, parents pushed in order
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
        elif id(node) not in seen:
            seen.add(id(node))
            stack.append((node, True))
            stack.extend((parent, False) for parent in node.parents)
    grads = {id(root): np.ones_like(root.value)}
    for node in reversed(order):
        g = grads[id(node)]
        for parent, vjp in zip(node.parents, node.vjps):
            contribution = vjp(g)
            existing = grads.get(id(parent))
            grads[id(parent)] = contribution if existing is None else existing + contribution
    return grads
