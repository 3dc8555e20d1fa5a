"""Regenerate reference.npz, the stored outputs compress-long checks against.

    python3 perfbench/make_reference.py

For each video of the compress-long pool it stores the output's sketch
(every output token projected onto two fixed +-1 directions, see
``bench_workloads.sketch``).  Run it only when the compressor's numerics are
meant to change; otherwise a mismatch is a regression.
"""

from __future__ import annotations

import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from bench_workloads import COMPRESS_POOL, PAPER, REFERENCE_PATH, CompressLong, sketch  # noqa: E402
from spa_compressor.compressor import SpaCompressor  # noqa: E402

SIGNS_SEED = 97


def main() -> None:
    signs = np.random.default_rng(SIGNS_SEED).choice([-1.0, 1.0], size=(PAPER["dim"], 2))
    model = SpaCompressor(CompressLong.config())
    arrays = {"signs": signs}
    for k in range(COMPRESS_POOL):
        frames, sentences = CompressLong.pool_video(k)
        arrays[f"video_{k}"] = sketch(model.forward(frames, sentences).flattened.value, signs)
    np.savez(REFERENCE_PATH, **arrays)
    print(f"wrote {REFERENCE_PATH.name}: {COMPRESS_POOL} videos")


if __name__ == "__main__":
    main()
