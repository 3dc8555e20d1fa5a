"""Closed-form compression accounting.

For S scene tokens, E event tokens per frame, an average of N frames per
ASR sentence, and D_v original visual tokens per frame, the token ratio of
compressed to original input is (S + N*E) / (N * D_v) and the reduction is
(1 - ratio) * 100 percent.  Ratios are computed in double precision and
rounded only for display.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass

DEFAULT_FRAMES_PER_SENTENCE = 1.836
DEFAULT_VISUAL_TOKENS_PER_FRAME = 384

# Published ablation configurations with their printed reduction
# percentages, all at the default N and D_v, so a row matches only those
# whole inputs.  A printed value is consistent with the ratio formula above
# when it is within PUBLISHED_TOLERANCE_PP percentage points of it.  The S=8
# row is not (the formula gives ~90.53%), so it is flagged as inconsistent
# rather than silently reproduced.
PUBLISHED_TOLERANCE_PP = 0.02
PUBLISHED_SWEEP = [
    {"s": 8, "e": 32, "printed_reduction": 93.38},
    {"s": 16, "e": 32, "printed_reduction": 89.40},
    {"s": 32, "e": 32, "printed_reduction": 87.13},
    {"s": 64, "e": 32, "printed_reduction": 82.59},
    {"s": 64, "e": 8, "printed_reduction": 88.84},
    {"s": 64, "e": 16, "printed_reduction": 86.76},
    {"s": 64, "e": 64, "printed_reduction": 74.26},
]


@dataclass(frozen=True)
class RatioInput:
    scene_tokens: float
    event_tokens: float
    frames_per_sentence: float = DEFAULT_FRAMES_PER_SENTENCE
    visual_tokens_per_frame: float = DEFAULT_VISUAL_TOKENS_PER_FRAME

    def __post_init__(self):
        for name, v in (
            ("scene_tokens", self.scene_tokens),
            ("event_tokens", self.event_tokens),
            ("frames_per_sentence", self.frames_per_sentence),
            ("visual_tokens_per_frame", self.visual_tokens_per_frame),
        ):
            if not (math.isfinite(v) and v > 0):
                raise ValueError(f"{name} must be finite and strictly positive, got {v}")


@dataclass(frozen=True)
class CompressionReport:
    inputs: RatioInput
    ratio: float

    @property
    def reduction_percent(self) -> float:
        return (1.0 - self.ratio) * 100.0

    def display_ratio(self) -> str:
        return f"{self.ratio:.4f}"

    def display_reduction(self) -> str:
        return f"{self.reduction_percent:.2f}"


def compression_ratio(inputs: RatioInput) -> CompressionReport:
    n = inputs.frames_per_sentence
    original = n * inputs.visual_tokens_per_frame  # 0.0 if the product underflows
    ratio = (inputs.scene_tokens + n * inputs.event_tokens) / original if original else math.inf
    if not math.isfinite(ratio):
        raise ValueError(f"compression ratio is not finite for {inputs}")
    return CompressionReport(inputs=inputs, ratio=ratio)


def sweep(
    scene_grid,
    event_grid,
    frames_per_sentence: float = DEFAULT_FRAMES_PER_SENTENCE,
    visual_tokens_per_frame: float = DEFAULT_VISUAL_TOKENS_PER_FRAME,
) -> list[CompressionReport]:
    scene_grid, event_grid = list(scene_grid), list(event_grid)
    if not scene_grid or not event_grid:
        raise ValueError("sweep grid must be non-empty")
    return [
        compression_ratio(
            RatioInput(s, e, frames_per_sentence, visual_tokens_per_frame)
        )
        for s in scene_grid
        for e in event_grid
    ]


def published_sweep_check() -> list[dict]:
    """Recompute every published ablation row and compare to its printed
    reduction; inconsistent rows get a visible flag."""
    rows = []
    for entry in PUBLISHED_SWEEP:
        computed = compression_ratio(RatioInput(entry["s"], entry["e"])).reduction_percent
        delta = computed - entry["printed_reduction"]
        consistent = abs(delta) <= PUBLISHED_TOLERANCE_PP
        rows.append(
            {
                **entry,
                "consistent": consistent,
                "computed_reduction": computed,
                "delta_pp": delta,
                "flag": "" if consistent else "INCONSISTENT with ratio formula",
            }
        )
    return rows


def published_note(report: CompressionReport) -> str:
    """Annotation for a report whose whole input is a published
    configuration, judged as :func:`published_sweep_check` judges it;
    empty for any other input."""
    for row in published_sweep_check():
        if RatioInput(row["s"], row["e"]) != report.inputs:
            continue
        if row["consistent"]:
            return f"matches published {row['printed_reduction']}"
        return (
            f"published {row['printed_reduction']} INCONSISTENT "
            f"(formula gives {report.display_reduction()})"
        )
    return ""


def format_table(reports: list[CompressionReport]) -> str:
    lines = [f"{'S':>6} {'E':>6} {'ratio':>8} {'reduction_%':>12}  note"]
    for r in reports:
        lines.append(
            f"{r.inputs.scene_tokens:>6g} {r.inputs.event_tokens:>6g} "
            f"{r.display_ratio():>8} {r.display_reduction():>12}  {published_note(r)}".rstrip()
        )
    return "\n".join(lines)


def format_csv(reports: list[CompressionReport]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["s", "e", "n_avg", "dv", "ratio", "reduction_percent", "note"])
    for r in reports:
        writer.writerow(
            [
                r.inputs.scene_tokens,
                r.inputs.event_tokens,
                r.inputs.frames_per_sentence,
                r.inputs.visual_tokens_per_frame,
                r.display_ratio(),
                r.display_reduction(),
                published_note(r),
            ]
        )
    return buf.getvalue()
