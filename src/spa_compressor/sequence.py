"""Sentence-level interleaved sequence construction.

A video arrives as timestamped frames (each carrying its visual token
embeddings) plus timed ASR sentences (each carrying its token embeddings).
The builder emits, per frame, a timestamp slot followed by the frame's
vision block, and inserts each sentence's token block immediately after the
block of its anchor frame: the latest frame at or before the sentence's end
time.  Sentences ending before the first frame anchor to frame 0 so nothing
is dropped.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass, field

import numpy as np

from .time_encoder import MAX_TIME_SECONDS

TIMESTAMP = "timestamp"
VISION = "vision"
ASR = "asr"


@dataclass(frozen=True)
class Frame:
    index: int  # 0-based position in the video
    time_seconds: float
    vision_tokens: np.ndarray  # (L_v, D)


@dataclass(frozen=True)
class AsrSentence:
    index: int  # 1-based position in the transcript
    start: float
    end: float
    tokens: np.ndarray  # (L_s_j, D), L_s_j >= 1


@dataclass(frozen=True)
class Element:
    """One slot of the interleaved sequence."""

    kind: str  # TIMESTAMP | VISION | ASR
    ref: int  # frame index for timestamp/vision, sentence index for asr
    length: int  # token count occupied by this slot


@dataclass
class InterleavedSequence:
    elements: list[Element] = field(default_factory=list)

    @property
    def total_length(self) -> int:
        return sum(e.length for e in self.elements)


def _check_time(t: float, what: str, limit: float = math.inf) -> None:
    # NaN fails every comparison, so test for the range, not against it
    if not (math.isfinite(t) and 0 <= t < limit):
        raise ValueError(f"{what} must be finite and in [0, {limit:.0f}) seconds, got {t}")


def validate_frames(frames: list[Frame]) -> None:
    if not frames:
        raise ValueError("a video needs at least one frame")
    for i, f in enumerate(frames):
        if f.index != i:
            raise ValueError(
                f"frame {f.index} at position {i}: frame indices must be 0, 1, 2, ... "
                "with no gaps or repeats"
            )
        # frame times are what the timestamp encoder renders
        _check_time(f.time_seconds, f"frame {f.index}: time", MAX_TIME_SECONDS)
    widths = {f.vision_tokens.shape for f in frames}
    if len(widths) != 1:
        raise ValueError(f"frames disagree on vision token shape: {sorted(widths)}")
    for prev, cur in zip(frames, frames[1:]):
        if cur.time_seconds <= prev.time_seconds:
            raise ValueError(
                f"frame times must be strictly increasing: "
                f"frame {cur.index} at {cur.time_seconds} after {prev.time_seconds}"
            )


def validate_sentences(sentences: list[AsrSentence]) -> None:
    for j, s in enumerate(sentences):
        if s.index != j + 1:
            raise ValueError(
                f"sentence {s.index} at position {j + 1}: sentence indices must be 1, 2, 3, ... "
                "with no gaps or repeats"
            )
        _check_time(s.start, f"sentence {s.index}: start")
        _check_time(s.end, f"sentence {s.index}: end")
        if s.start > s.end:
            raise ValueError(f"sentence {s.index} has start {s.start} > end {s.end}")
        if s.tokens.ndim != 2 or s.tokens.shape[0] < 1:
            raise ValueError(f"sentence {s.index} needs at least one token")
    for prev, cur in zip(sentences, sentences[1:]):
        if cur.start < prev.end:
            raise ValueError(
                f"sentences must be sorted and non-overlapping: "
                f"sentence {cur.index} starts at {cur.start} before {prev.end}"
            )


def align_sentences(frames: list[Frame], sentences: list[AsrSentence]) -> dict[int, int]:
    """Anchor each sentence to the latest frame at or before its end time."""
    validate_frames(frames)
    validate_sentences(sentences)
    times = [f.time_seconds for f in frames]  # strictly increasing
    return {s.index: max(bisect_right(times, s.end) - 1, 0) for s in sentences}


def build_sequence(
    frames: list[Frame],
    sentences: list[AsrSentence],
    anchors: dict[int, int],
) -> InterleavedSequence:
    """Emit [timestamp_i, vision_i] per frame with each sentence block
    inserted right after its anchor frame; sentence order is preserved."""
    validate_frames(frames)
    n = len(frames)
    by_anchor: dict[int, list[AsrSentence]] = {}
    for s in sentences:
        a = anchors[s.index]
        if not 0 <= a < n:
            raise ValueError(f"sentence {s.index} anchored to invalid frame {a}")
        by_anchor.setdefault(a, []).append(s)

    seq = InterleavedSequence()
    for f in frames:
        seq.elements.append(Element(TIMESTAMP, f.index, 1))
        seq.elements.append(Element(VISION, f.index, f.vision_tokens.shape[0]))
        for s in by_anchor.get(f.index, ()):
            seq.elements.append(Element(ASR, s.index, s.tokens.shape[0]))
    return seq
