import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))

from spa_compressor.compressor import CompressorConfig, SpaCompressor
from spa_compressor.synthetic import SyntheticVideoSpec, generate

# default toy setup: small enough for exhaustive finite differences
TOY_CONFIG = dict(
    dim=8,
    heads=2,
    scene_tokens=2,
    event_tokens=2,
    scene_layers=1,
    event_layers=1,
    vision_tokens_per_frame=2,
    seed=7,
)
TOY_VIDEO = dict(n_frames=2, n_sentences=1, vision_tokens_per_frame=2, dim=8, seed=3)
# the paper's attention shapes at a Tier-1 cost: 8 heads of width 8, two
# layers per stage, and event queries with one block per frame
PAPER_WIDTH_CONFIG = dict(
    dim=64, heads=8, scene_tokens=8, event_tokens=8,
    scene_layers=2, event_layers=2, vision_tokens_per_frame=4, seed=7,
)
PAPER_WIDTH_VIDEO = dict(n_frames=3, n_sentences=2, vision_tokens_per_frame=4, dim=64, seed=3)


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


@pytest.fixture
def toy_model():
    return SpaCompressor(CompressorConfig(**TOY_CONFIG))


@pytest.fixture
def toy_video():
    return generate(SyntheticVideoSpec(**TOY_VIDEO))
