"""Deterministic synthetic video generation for tests and demos."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .compressor import FieldError
from .sequence import AsrSentence, Frame
from .time_encoder import MAX_TIME_SECONDS

MIN_SENTENCE_WINDOW = 0.2  # seconds


@dataclass(frozen=True)
class SyntheticVideoSpec:
    n_frames: int
    n_sentences: int
    vision_tokens_per_frame: int
    dim: int
    sentence_tokens_min: int = 2
    sentence_tokens_max: int = 4
    frame_step: float = 1.0
    seed: int = 0

    def __post_init__(self):
        if self.n_frames < 1:
            raise FieldError(("n_frames",), f"need at least one frame, got {self.n_frames}")
        if self.n_sentences < 0:
            raise FieldError(("n_sentences",), f"sentence count cannot be negative, got {self.n_sentences}")
        if not 1 <= self.sentence_tokens_min <= self.sentence_tokens_max:
            raise FieldError(
                ("sentence_tokens_min", "sentence_tokens_max"), "sentence token range must satisfy 1 <= min <= max"
            )
        if self.dim < 1 or self.vision_tokens_per_frame < 1:
            raise FieldError(("dim", "vision_tokens_per_frame"), "model dim and vision tokens per frame must be >= 1")
        if not (math.isfinite(self.frame_step) and self.frame_step > 0):
            raise FieldError(("frame_step",), f"frame step must be finite and positive, got {self.frame_step}")
        if (self.n_frames - 1) * self.frame_step >= MAX_TIME_SECONDS:
            raise FieldError(
                ("n_frames", "frame_step"),
                f"{self.n_frames} frames {self.frame_step:g}s apart end past "
                f"the {MAX_TIME_SECONDS:.0f}s timestamp limit",
            )
        duration = self.n_frames * self.frame_step
        if self.n_sentences and duration / self.n_sentences < MIN_SENTENCE_WINDOW:
            raise FieldError(
                ("n_frames", "n_sentences", "frame_step"),
                f"{self.n_sentences} sentences cannot fit a {duration:.1f}s video "
                f"(window {duration / self.n_sentences:.3f}s < {MIN_SENTENCE_WINDOW}s)",
            )
        if self.seed < 0:
            raise FieldError(("seed",), f"video seed must be non-negative, got {self.seed}")


def generate(spec: SyntheticVideoSpec) -> tuple[list[Frame], list[AsrSentence]]:
    """Sample a video satisfying all frame/sentence invariants.

    Frames sit at multiples of ``frame_step``; sentences occupy disjoint
    sub-intervals of consecutive equal windows spanning the video.
    """
    rng = np.random.default_rng(spec.seed)
    duration = spec.n_frames * spec.frame_step

    frames = [
        Frame(
            index=i,
            time_seconds=i * spec.frame_step,
            vision_tokens=rng.standard_normal((spec.vision_tokens_per_frame, spec.dim)),
        )
        for i in range(spec.n_frames)
    ]
    sentences = []
    for j in range(spec.n_sentences):
        window = duration / spec.n_sentences
        lo, hi = j * window, (j + 1) * window
        start = rng.uniform(lo, lo + 0.4 * (hi - lo))
        end = rng.uniform(start + 0.1 * (hi - lo), hi)
        length = int(rng.integers(spec.sentence_tokens_min, spec.sentence_tokens_max + 1))
        sentences.append(
            AsrSentence(
                index=j + 1,
                start=start,
                end=end,
                tokens=rng.standard_normal((length, spec.dim)),
            )
        )
    return frames, sentences
