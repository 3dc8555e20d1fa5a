"""Reverse-mode automatic differentiation over dense numpy arrays.

A ``Node`` wraps an ndarray together with references to the nodes it was
computed from and one vector-Jacobian product per parent.  Graphs are built
eagerly by the op functions below and differentiated by :func:`backward`,
which walks the graph in reverse topological order and returns the
gradients of the leaves (parameters and inputs) only: each interior node's
gradient is freed as soon as its VJPs have run.  Everything is pure
numpy, double precision by default, and bit-deterministic: the same inputs
always produce the same graph and the same gradients.

The ops here are the generic building blocks; :func:`affine` is every
projection, ``x @ w + b`` as one node.  A node cannot be indexed.
The hot kernels are fused nodes built outside this module:
``kernels.layer_norm``, ``kernels.attention_core`` and
``time_encoder.encode_timestamp`` (the whole character GRU of one
timestamp).  Each is one node over all its inputs with closed-form VJPs.
The forwards of layer norm and the GRU run the same numpy operations, in
the same order, as the op-by-op graph they fuse, so their values are
bit-identical to that graph; the attention core combines one or two
softmax blocks and matches the op-by-op attention to round-off.  A fused
node shares one backward computation between the VJPs of its parents
through :func:`shared_vjps`.

Every VJP returns its parent's dtype, so the backward of a float32 graph
stays float32.  Python scalars adopt their partner's dtype, and the one
float64 step, the CDF in :func:`gelu`'s forward, is cast back.  It stays
float64 only so that a float32 GELU value is the float64 formula rounded
once; a float32 CDF would change float32 forward values.

Inside :func:`no_grad` the ops compute the same values but record no
graph: every node they create is a leaf, so intermediate values are freed
as soon as nothing refers to them.  Every op and fused node checks
:func:`recording` after computing its value and, when it is off, returns
a leaf before it builds any VJP closure; :class:`Node` itself does not
check.

:func:`named_parameters` names the parameter nodes of a params dataclass
after its fields.
"""

from __future__ import annotations

import dataclasses
from contextlib import contextmanager
from itertools import accumulate

import numpy as np
from scipy.special import erf as _erf

__all__ = [
    "Node",
    "no_grad",
    "recording",
    "shared_vjps",
    "unbroadcast",
    "as_node",
    "add",
    "sub",
    "mul",
    "affine",
    "gelu",
    "reduce_sum",
    "reduce_mean",
    "reshape",
    "broadcast_to",
    "concat",
    "backward",
    "grad_of",
    "named_parameters",
]


_recording = True


@contextmanager
def no_grad():
    """Value-only evaluation: nodes created in this context keep their value
    but record no parents or VJPs, so nothing can be differentiated through
    them.  Nests, and restores the previous mode on exit or exception."""
    global _recording
    previous, _recording = _recording, False
    try:
        yield
    finally:
        _recording = previous


def recording() -> bool:
    """Whether new nodes record parents and VJPs (false inside :func:`no_grad`)."""
    return _recording


class Node:
    """One value in the computation graph.

    ``parents`` and ``vjps`` are parallel tuples: ``vjps[i]`` maps the
    upstream gradient to the gradient contribution for ``parents[i]``.
    Leaf nodes (constants, parameters) have empty parents, and so does every
    node an op or fused node creates inside :func:`no_grad`, since each
    passes no parents there; the constructor stores what it is given.
    """

    __slots__ = ("value", "parents", "vjps")

    def __init__(self, value, parents=(), vjps=()):
        self.value = np.asarray(value)
        self.parents = parents
        self.vjps = vjps

    @property
    def shape(self):
        return self.value.shape

    @property
    def ndim(self):
        return self.value.ndim

    def __repr__(self):
        return f"Node(shape={self.value.shape})"

    # arithmetic sugar; all routes through the op functions below
    def __add__(self, other):
        return add(self, other)

    __radd__ = __add__

    def __sub__(self, other):
        return sub(self, other)

    def __rsub__(self, other):
        return sub(other, self)

    def __mul__(self, other):
        return mul(self, other)

    __rmul__ = __mul__


def as_node(x) -> Node:
    return x if isinstance(x, Node) else Node(np.asarray(x))


def _coerce_pair(a, b) -> tuple[Node, Node]:
    """Wrap operands as nodes; bare python scalars adopt the partner's dtype
    so float32 graphs are not silently promoted to float64."""
    if isinstance(a, Node) and isinstance(b, (int, float)):
        return a, Node(np.asarray(b, dtype=a.value.dtype))
    if isinstance(b, Node) and isinstance(a, (int, float)):
        return Node(np.asarray(a, dtype=b.value.dtype)), b
    return as_node(a), as_node(b)


def unbroadcast(grad: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum ``grad`` down to ``shape``, undoing numpy broadcasting."""
    if grad.shape == shape:
        return grad
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad


def shared_vjps(grads, count: int) -> tuple:
    """``count`` VJPs, one per parent, that share one call of ``grads(g)``,
    which returns every parent's gradient at once.

    :func:`backward` calls a node's VJPs one after another with the same
    upstream gradient, so a fused node's backward work runs once per
    upstream gradient, not once per parent.  Each gradient is released as
    soon as its parent has taken it.
    """
    memo = {}

    def make(i):
        def vjp(g):
            if memo.get("g") is not g:
                memo.clear()
                memo.update(enumerate(grads(g)), g=g)
            out = memo.pop(i)
            if len(memo) == 1:
                memo.clear()
            return out

        return vjp

    return tuple(make(i) for i in range(count))


def add(a, b) -> Node:
    a, b = _coerce_pair(a, b)
    out = a.value + b.value
    if not _recording:
        return Node(out)
    return Node(
        out,
        (a, b),
        (
            lambda g: unbroadcast(g, a.value.shape),
            lambda g: unbroadcast(g, b.value.shape),
        ),
    )


def sub(a, b) -> Node:
    a, b = _coerce_pair(a, b)
    out = a.value - b.value
    if not _recording:
        return Node(out)
    return Node(
        out,
        (a, b),
        (
            lambda g: unbroadcast(g, a.value.shape),
            lambda g: unbroadcast(-g, b.value.shape),
        ),
    )


def mul(a, b) -> Node:
    a, b = _coerce_pair(a, b)
    out = a.value * b.value
    if not _recording:
        return Node(out)
    return Node(
        out,
        (a, b),
        (
            lambda g: unbroadcast(g * b.value, a.value.shape),
            lambda g: unbroadcast(g * a.value, b.value.shape),
        ),
    )


def affine(x, w, b=None) -> Node:
    """``x @ w + b`` as one node, for ``x`` of rank >= 2, 2-D weights ``w``
    and a bias ``b`` that broadcasts over the rows; with no ``b``, ``x @ w``
    over the two parents ``(x, w)``.

    ``b`` is added in the product's buffer, so the result keeps ``x @ w``'s
    dtype where ``x @ w + b`` would promote; every caller passes one dtype,
    so the values are those of ``x @ w + b``.  The weight VJPs fold the
    leading axes of ``x`` into the rows of one 2-D GEMM per gradient.
    """
    x, w = as_node(x), as_node(w)
    if x.ndim < 2 or w.ndim != 2:
        raise ValueError(f"affine expects an input of rank >= 2 and 2-D weights, got {x.shape} @ {w.shape}")
    out = x.value @ w.value
    parents = (x, w)
    if b is not None:
        b = as_node(b)
        out += b.value
        parents += (b,)
    if not _recording:
        return Node(out)
    k, n = w.shape
    vjps = (
        lambda g: (g.reshape(-1, n) @ w.value.T).reshape(x.value.shape),
        lambda g: x.value.reshape(-1, k).T @ g.reshape(-1, n),
        lambda g: unbroadcast(g, b.value.shape),
    )
    return Node(out, parents, vjps[: len(parents)])


_INV_SQRT2 = 1.0 / np.sqrt(2.0)
_INV_SQRT2PI = 1.0 / np.sqrt(2.0 * np.pi)


def gelu(a) -> Node:
    """Gaussian error linear unit, exact (erf) form; smooth everywhere.

    The forward computes the CDF in float64 (the float64 constant promotes
    it) and casts the product, so float32 values are those of the float64
    formula rounded once.  The VJP computes in the input's dtype.
    """
    a = as_node(a)
    x = a.value
    dtype = x.dtype
    # cdf = 0.5 * (1 + erf(x / sqrt(2))) in one buffer
    cdf = x * _INV_SQRT2
    _erf(cdf, out=cdf)
    cdf += 1.0
    cdf *= 0.5
    out = (x * cdf).astype(dtype, copy=False)
    if not _recording:
        return Node(out)
    cdf = cdf.astype(dtype, copy=False)

    def vjp(g):
        # g * (cdf + x * pdf), pdf = exp(-x^2 / 2) / sqrt(2 pi), in one buffer
        t = x * dtype.type(-0.5)
        t *= x
        np.exp(t, out=t)
        t *= dtype.type(_INV_SQRT2PI)
        t *= x
        t += cdf
        t *= g
        return t

    return Node(out, (a,), (vjp,))


def reduce_sum(a) -> Node:
    """Sum of every element, a 0-d node."""
    a = as_node(a)
    out = a.value.sum()
    if not _recording:
        return Node(out)
    return Node(
        out,
        (a,),
        (lambda g: np.broadcast_to(g, a.value.shape).copy(),),
    )


def reduce_mean(a) -> Node:
    """Mean of every element, a 0-d node."""
    a = as_node(a)
    return mul(reduce_sum(a), 1.0 / a.value.size)


def reshape(a, shape) -> Node:
    a = as_node(a)
    out = a.value.reshape(shape)
    if not _recording:
        return Node(out)
    return Node(
        out,
        (a,),
        (lambda g: g.reshape(a.value.shape),),
    )


def broadcast_to(a, shape) -> Node:
    """Read-only broadcast view of ``a``; the gradient sums over the copies."""
    a = as_node(a)
    out = np.broadcast_to(a.value, shape)
    if not _recording:
        return Node(out)
    return Node(
        out,
        (a,),
        (lambda g: unbroadcast(g, a.value.shape),),
    )


def concat(nodes, axis: int = 0) -> Node:
    nodes = [as_node(n) for n in nodes]
    out = np.concatenate([n.value for n in nodes], axis=axis)
    if not _recording:
        return Node(out)
    splits = list(accumulate(n.value.shape[axis] for n in nodes))[:-1]
    return Node(
        out,
        tuple(nodes),
        shared_vjps(lambda g: np.split(g, splits, axis=axis), len(nodes)),
    )


def _topological_order(root: Node) -> list:
    order = []
    seen = set()
    stack = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for parent in node.parents:
            stack.append((parent, False))
    return order


def backward(root: Node) -> dict:
    """Gradients of a scalar ``root`` w.r.t. the leaves of its graph.

    Returns a dict keyed by node identity that holds every leaf's gradient
    and no interior node's: each interior gradient is taken out of the dict
    when its node is reached and freed once the node's VJPs have run, so
    the gradients held at any time are those of the frontier.  The graph
    itself is left as it was, so ``backward`` can run over it again.  Look
    values up with :func:`grad_of` to get a clear error for other nodes.
    """
    if root.value.size != 1:
        raise ValueError(f"backward root must be scalar, got shape {root.value.shape}")
    grads: dict[int, np.ndarray] = {id(root): np.ones_like(root.value)}
    # each node comes after every node that takes it as a parent, so its
    # gradient is complete, and present, when it is reached
    for node in reversed(_topological_order(root)):
        if not node.parents:
            continue  # a leaf: its gradient is complete and stays
        g = grads.pop(id(node))
        for parent, vjp in zip(node.parents, node.vjps):
            contribution = vjp(g)
            existing = grads.get(id(parent))
            if existing is None:
                grads[id(parent)] = contribution
            else:
                grads[id(parent)] = existing + contribution
    return grads


def grad_of(grads: dict, node: Node) -> np.ndarray:
    """Gradient of the backward root w.r.t. the leaf ``node``; error for an
    interior node, whose gradient :func:`backward` does not keep, and for a
    leaf outside the differentiated graph."""
    g = grads.get(id(node))
    if g is None:
        if node.parents:
            raise KeyError(
                f"no gradient kept for node {node!r}; it is not a leaf, "
                "and backward returns leaf gradients only"
            )
        raise KeyError(
            f"no gradient recorded for node {node!r}; "
            "it was not part of the differentiated graph"
        )
    return g


def named_parameters(params) -> list[tuple[str, Node]]:
    """The ``(dotted name, node)`` pairs of a params dataclass, in field
    declaration order: a ``Node`` field is named after the field, a nested
    dataclass field contributes its own pairs under ``field.``, and the i-th
    item of a list field is named ``layer{i}``.  Other fields (head counts,
    widths, an absent ``None`` block) hold no parameters and are skipped.
    """
    named = []
    for field in dataclasses.fields(params):
        value = getattr(params, field.name)
        if isinstance(value, list):
            items = [(f"layer{i}", item) for i, item in enumerate(value)]
        else:
            items = [(field.name, value)]
        for name, item in items:
            if isinstance(item, Node):
                named.append((name, item))
            elif dataclasses.is_dataclass(item):
                named += [(f"{name}.{n}", node) for n, node in named_parameters(item)]
    return named
