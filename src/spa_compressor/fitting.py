"""Toy compressor-only training loop.

Plain gradient descent on a mean-squared-error objective against a fixed
random teacher target of matching shape.  The objective exists purely to
exercise end-to-end gradients; inputs and any frozen parameter groups are
never touched.
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
    seed: int = 0

    def __post_init__(self):
        if self.steps < 1:
            raise ValueError("need at least one step")
        if not (math.isfinite(self.learning_rate) and self.learning_rate >= 0):
            raise ValueError(f"learning rate must be finite and non-negative, got {self.learning_rate}")


def make_teacher_target(model: SpaCompressor, frames, sentences, seed: int) -> np.ndarray:
    with ad.no_grad():
        shape = model.forward(frames, sentences).flattened.shape
    rng = np.random.default_rng(seed)
    return rng.standard_normal(shape).astype(model.config.dtype)


def fit(
    model: SpaCompressor,
    frames: list[Frame],
    sentences: list[AsrSentence],
    config: FitConfig,
    target: np.ndarray | None = None,
    freeze: tuple[str, ...] = (),
) -> list[float]:
    """Run gradient descent; returns the loss at every step plus the
    final post-update loss (length steps + 1).  An unknown group in
    ``freeze`` is a ``ValueError``."""
    model.check_groups(freeze)
    if target is None:
        target = make_teacher_target(model, frames, sentences, config.seed)
    target_node = Node(np.asarray(target, dtype=model.config.dtype))

    trainable = [
        node
        for group, named in model.parameter_groups().items()
        if group not in freeze
        for _, node in named
    ]

    losses: list[float] = []
    for step in range(config.steps + 1):
        try:
            result = model.forward(frames, sentences)
        except ValueError as exc:
            raise ValueError(f"loss diverged at step {step}: {exc}") from exc
        diff = result.flattened - target_node
        loss = ad.reduce_mean(diff * diff)
        value = float(loss.value)
        if not math.isfinite(value):
            raise ValueError(f"loss diverged (non-finite) at step {step}")
        losses.append(value)
        if step == config.steps:
            break
        grads = ad.backward(loss)
        for node in trainable:
            g = grads.get(id(node))
            if g is not None:
                node.value -= config.learning_rate * g
    return losses
