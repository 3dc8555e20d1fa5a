"""Plain-text video manifests.

One record per line, whitespace-separated; tensor payloads live in
sibling snapshot files referenced by relative path:

    frame <index> <time_seconds> <tensor_path>
    sentence <index> <t_start> <t_end> <tensor_path>

A record with more or fewer fields is an error.  Lines starting with '#'
are comments.
"""

from __future__ import annotations

import math
from pathlib import Path

import numpy as np

from .goldenio import read_tensor, write_tensor
from .kernels import check_finite
from .sequence import AsrSentence, Frame, validate_frames, validate_sentences

# each record kind's layout, one whitespace-separated field per word
RECORDS = {
    "frame": "frame <index> <time_seconds> <tensor_path>",
    "sentence": "sentence <index> <t_start> <t_end> <tensor_path>",
}


def write_video(directory, frames: list[Frame], sentences: list[AsrSentence]) -> Path:
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    lines = ["# video manifest"]
    for f in frames:
        rel = f"frame_{f.index:05d}.spat"
        write_tensor(directory / rel, f.vision_tokens)
        # repr of a python float reads back exactly; a numpy scalar's repr
        # ("np.float64(0.5)") would not read back at all
        lines.append(f"frame {f.index} {float(f.time_seconds)!r} {rel}")
    for s in sentences:
        rel = f"sentence_{s.index:05d}.spat"
        write_tensor(directory / rel, s.tokens)
        lines.append(f"sentence {s.index} {float(s.start)!r} {float(s.end)!r} {rel}")
    path = directory / "video.manifest"
    path.write_text("\n".join(lines) + "\n")
    return path


def _read_finite(path: Path):
    """A SPAT tensor that holds no NaN or infinity, and no value so large
    that layer norm's sum of squares over its width overflows float32.

    |x - mean| <= 2 max|x|, so that sum stays finite while
    max|x| <= sqrt(float32 max / (4 width)).  The bound is float32's, so
    the tensor is valid in either precision and survives the cast.
    """
    tensor = read_tensor(path)
    check_finite(tensor, str(path))
    if tensor.size:
        width = tensor.shape[-1] if tensor.ndim else 1
        bound = math.sqrt(float(np.finfo(np.float32).max) / (4 * width))
        peak = float(np.abs(tensor).max())
        if peak > bound:
            raise ValueError(f"{path}: magnitude {peak:.3g} exceeds {bound:.3g}, the limit for width {width}")
    return tensor


def read_video(manifest_path) -> tuple[list[Frame], list[AsrSentence]]:
    manifest_path = Path(manifest_path)
    base = manifest_path.parent
    frames: list[Frame] = []
    sentences: list[AsrSentence] = []
    try:
        text = manifest_path.read_text()
    except UnicodeDecodeError as exc:
        raise ValueError(f"{manifest_path}: not UTF-8 text: {exc}") from exc
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        fields = line.split()
        kind = fields[0]
        try:
            if kind not in RECORDS:
                raise ValueError(f"unknown record kind {kind!r}")
            expected = len(RECORDS[kind].split())
            if len(fields) != expected:
                raise ValueError(f"{len(fields)} fields, expected {expected}: {RECORDS[kind]}")
            if kind == "frame":
                index, time_s, rel = int(fields[1]), float(fields[2]), fields[3]
                frames.append(Frame(index, time_s, _read_finite(base / rel)))
            else:
                index, start, end, rel = int(fields[1]), float(fields[2]), float(fields[3]), fields[4]
                sentences.append(AsrSentence(index, start, end, _read_finite(base / rel)))
        except ValueError as exc:
            raise ValueError(f"{manifest_path}:{lineno}: malformed record: {exc}") from exc
    frames.sort(key=lambda f: f.index)
    sentences.sort(key=lambda s: s.index)
    try:
        validate_frames(frames)
        validate_sentences(sentences)
    except ValueError as exc:
        raise ValueError(f"{manifest_path}: {exc}") from exc
    return frames, sentences
