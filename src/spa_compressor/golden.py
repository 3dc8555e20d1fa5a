"""Golden-file regression: recompute fixed seeded cases and compare."""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import autodiff as ad
from .compressor import CompressorConfig, SpaCompressor, ini_value, read_ini
from .goldenio import first_divergence, read_tensor, write_tensor
from .synthetic import SyntheticVideoSpec, generate

TOLERANCES = {"f64": 1e-10, "f32": 1e-5}


@dataclass(frozen=True)
class GoldenCase:
    name: str
    config: CompressorConfig
    video: SyntheticVideoSpec


@dataclass
class VerifyResult:
    name: str
    ok: bool
    detail: str


VIDEO_KEYS = ("video_frames", "video_sentences", "video_seed")


def load_manifest(path) -> list[GoldenCase]:
    parser = read_ini(path, "golden manifest")
    cases = []
    for section in parser.sections():
        if not section.startswith("case:"):
            continue
        sec, where = parser[section], f"{path} [{section}]"
        config = CompressorConfig.from_section(sec, where, extra=VIDEO_KEYS)
        frames, sentences, seed = (ini_value(sec, key, int, where) for key in VIDEO_KEYS)
        try:
            video = SyntheticVideoSpec(frames, sentences, config.vision_tokens_per_frame, config.dim, seed=seed)
        except ValueError as exc:
            raise ValueError(f"{where}: {exc}") from None
        cases.append(GoldenCase(section.removeprefix("case:"), config, video))
    if not cases:
        raise ValueError(f"{path}: no [case:*] sections in golden manifest")
    return cases


def compute_case(case: GoldenCase) -> np.ndarray:
    frames, sentences = generate(case.video)
    with ad.no_grad():
        return SpaCompressor(case.config).forward(frames, sentences).flattened.value


def emit(cases: list[GoldenCase], directory) -> list[Path]:
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    paths = []
    for case in cases:
        path = directory / f"{case.name}.spat"
        write_tensor(path, compute_case(case))
        paths.append(path)
    return paths


def verify(cases: list[GoldenCase], directory) -> list[VerifyResult]:
    directory = Path(directory)
    results = []
    for case in cases:
        path = directory / f"{case.name}.spat"
        tolerance = TOLERANCES[case.config.precision]
        if not path.exists():
            results.append(VerifyResult(case.name, False, f"missing golden file {path}"))
            continue
        stored = read_tensor(path)
        fresh = compute_case(case)
        if stored.shape != fresh.shape:
            results.append(
                VerifyResult(case.name, False, f"shape {stored.shape} != recomputed {fresh.shape}")
            )
            continue
        divergence = first_divergence(stored, fresh, tolerance)
        if divergence is None:
            max_diff = float(np.abs(stored - fresh).max())
            detail = f"match within {tolerance:g}, max |diff| {max_diff:.3g}"
            results.append(VerifyResult(case.name, True, detail))
        else:
            idx, a, b = divergence
            results.append(
                VerifyResult(case.name, False, f"first divergence at {idx}: stored {a!r} vs recomputed {b!r}")
            )
    return results
