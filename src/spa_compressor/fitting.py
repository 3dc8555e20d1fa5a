"""Toy compressor-only training loop.

Plain gradient descent on a mean-squared-error objective against a fixed
random teacher target of matching shape, drawn from the model's seed.  The
objective exists purely to exercise end-to-end gradients; every parameter
group trains and the inputs are never touched.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Node
from .compressor import SpaCompressor
from .sequence import AsrSentence, Frame


@dataclass(frozen=True)
class FitConfig:
    steps: int = 200
    learning_rate: float = 0.05

    def __post_init__(self):
        if self.steps < 1:
            raise ValueError("need at least one step")
        if not (math.isfinite(self.learning_rate) and self.learning_rate >= 0):
            raise ValueError(f"learning rate must be finite and non-negative, got {self.learning_rate}")


def make_teacher_target(model: SpaCompressor, frames, sentences) -> np.ndarray:
    with ad.no_grad():
        shape = model.forward(frames, sentences).flattened.shape
    rng = np.random.default_rng(model.config.seed)
    return rng.standard_normal(shape).astype(model.config.dtype)


def fit(
    model: SpaCompressor,
    frames: list[Frame],
    sentences: list[AsrSentence],
    config: FitConfig,
) -> list[float]:
    """Run gradient descent; returns the loss at every step plus the
    final post-update loss (length steps + 1).

    Each step runs with numpy's overflow, invalid-operation and
    divide-by-zero errors raised, so a diverging run stops at the first
    non-finite value as a ``ValueError`` naming the step; underflow stays
    quiet, since softmax exps underflow legitimately."""
    target = Node(make_teacher_target(model, frames, sentences))
    trainable = [node for _, node in model.parameters()]

    losses: list[float] = []
    for step in range(config.steps + 1):
        try:
            with np.errstate(over="raise", invalid="raise", divide="raise"):
                diff = model.forward(frames, sentences).flattened - target
                loss = ad.reduce_mean(diff * diff)
                losses.append(float(loss.value))
                if step == config.steps:
                    break
                grads = ad.backward(loss)
                for node in trainable:
                    g = grads.get(id(node))
                    if g is not None:
                        node.value -= config.learning_rate * g
                # free this step's graph and gradients before the next
                # forward; the graph holds no reference cycles
                del diff, loss, grads
        except (ValueError, FloatingPointError) as exc:
            raise ValueError(f"loss diverged at step {step}: {exc}") from exc
    return losses
