"""Acceptance criteria, one test per criterion.

Each test prints a single ``[ACCEPTANCE] <name>: PASS|FAIL`` line (visible
with ``pytest -s`` or in captured output on failure).  Tolerances are fixed
here, not configurable.
"""

import re
from contextlib import contextmanager

import numpy as np

from spa_compressor.analytics import published_sweep_check
from spa_compressor.autodiff import Node
from spa_compressor.cli import main
from spa_compressor.compressor import MODE_FRAME, MODE_GLOBAL, CompressorConfig, SpaCompressor
from spa_compressor.fitting import FitConfig, fit
from spa_compressor.gradcheck import finite_difference_check
from spa_compressor.sequence import AsrSentence, Frame, align_sentences, build_sequence
from spa_compressor.synthetic import SyntheticVideoSpec, generate

from conftest import TOY_CONFIG, TOY_VIDEO
from oracles import naive_attention, naive_ffn, naive_layer_norm


@contextmanager
def criterion(name):
    try:
        yield
    except Exception:
        print(f"[ACCEPTANCE] {name}: FAIL")
        raise
    print(f"[ACCEPTANCE] {name}: PASS")


def test_worked_ratio_example(capsys):
    with criterion("worked ratio example 64/32 -> 0.1741 / 82.59%"):
        assert main(["ratio", "--s", "64", "--e", "32"]) == 0
        out = capsys.readouterr().out
        ratio = float(re.search(r"ratio ([\d.]+)", out).group(1))
        reduction = float(re.search(r"reduction ([\d.]+)%", out).group(1))
        assert abs(ratio - 0.1741) <= 0.0001
        assert abs(reduction - 82.59) <= 0.01


def test_published_sweep_reproduction():
    with criterion("published sweep: 6/7 rows within 0.02pp, S=8 flagged"):
        rows = published_sweep_check()
        consistent = [r for r in rows if r["consistent"]]
        assert len(consistent) == 6
        for r in consistent:
            assert abs(r["delta_pp"]) <= 0.02, r
        outlier = next(r for r in rows if not r["consistent"])
        assert (outlier["s"], outlier["e"]) == (8, 32)
        assert abs(outlier["computed_reduction"] - 90.53) < 0.01
        assert "INCONSISTENT" in outlier["flag"]


def test_output_shape_law():
    with criterion("shape law over 50 randomized configs"):
        for seed in range(50):
            rng = np.random.default_rng(seed)
            heads = int(rng.choice([1, 2]))
            dim = heads * int(rng.integers(1, 4)) * 2
            config = CompressorConfig(
                dim=dim,
                heads=heads,
                scene_tokens=int(rng.integers(1, 6)),
                event_tokens=int(rng.integers(1, 6)),
                scene_layers=int(rng.integers(1, 3)),
                event_layers=int(rng.integers(1, 3)),
                vision_tokens_per_frame=int(rng.integers(1, 4)),
                mode=str(rng.choice([MODE_GLOBAL, MODE_FRAME])),
                seed=seed,
            )
            n = int(rng.integers(1, 5))
            frames, sentences = generate(
                SyntheticVideoSpec(
                    n_frames=n,
                    n_sentences=int(rng.integers(0, 3)),
                    vision_tokens_per_frame=config.vision_tokens_per_frame,
                    dim=dim,
                    seed=seed,
                )
            )
            result = SpaCompressor(config).forward(frames, sentences)
            expected = config.scene_tokens + n * (1 + config.event_tokens)
            assert result.flattened.shape[1] == expected


def test_interleaved_length_law():
    with criterion("interleaved length law over 200 randomized videos"):
        for seed in range(200):
            rng = np.random.default_rng(seed + 10_000)
            n, l_v = int(rng.integers(1, 15)), int(rng.integers(1, 8))
            frames = [Frame(i, float(i), np.zeros((l_v, 2))) for i in range(n)]
            sentences, cursor = [], 0.0
            for j in range(int(rng.integers(0, 7))):
                start = cursor + float(rng.uniform(0.01, 1.5))
                end = start + float(rng.uniform(0.0, 1.5))
                sentences.append(
                    AsrSentence(j + 1, start, end, np.zeros((int(rng.integers(1, 9)), 2)))
                )
                cursor = end
            seq = build_sequence(frames, sentences, align_sentences(frames, sentences))
            assert seq.total_length == n * (1 + l_v) + sum(s.tokens.shape[0] for s in sentences)


def test_gradient_suite():
    with criterion("finite-difference gradient suite, all groups < 1e-4"):
        frames, sentences = generate(SyntheticVideoSpec(**TOY_VIDEO))
        model = SpaCompressor(CompressorConfig(**TOY_CONFIG))
        reports = finite_difference_check(model, frames, sentences)
        assert {r.name for r in reports} == {"fusion", "scene", "event", "time_encoder"}
        for r in reports:
            assert r.max_rel_err < 1e-4, f"{r.name}: {r.max_rel_err} at {r.worst_param}"


def test_oracle_equivalence():
    from spa_compressor.kernels import (
        attention_params, cross_attention, ffn, ffn_params, layer_norm, layer_norm_params,
    )

    with criterion("vectorized kernels match scalar-loop oracles on 100 instances"):
        for seed in range(100):
            rng = np.random.default_rng(seed + 500)
            dim = int(rng.choice([2, 4, 8]))
            rows = int(rng.integers(1, 8))

            kind = seed % 3
            if kind == 0:
                p = layer_norm_params(dim)
                p.scale.value = rng.uniform(0.5, 1.5, dim)
                p.shift.value = rng.standard_normal(dim)
                x = rng.standard_normal((rows, dim))
                expected = naive_layer_norm(x, p.scale.value, p.shift.value)
                got = layer_norm(Node(x), p).value
            elif kind == 1:
                heads = int(rng.choice([1, 2]))
                p = attention_params(dim, heads, rng)
                q = rng.standard_normal((1, rows, dim))
                kv = rng.standard_normal((1, int(rng.integers(1, 8)), dim))
                expected = naive_attention(
                    q, kv, heads,
                    p.wq.value, p.wk.value, p.wv.value, p.wo.value,
                    bq=p.bq.value, bv=p.bv.value, bo=p.bo.value,
                )
                got = cross_attention(Node(q), Node(kv), p).value
            else:
                p = ffn_params(dim, rng)
                x = rng.standard_normal((rows, dim))
                expected = naive_ffn(x, p.w1.value, p.b1.value, p.w2.value, p.b2.value)
                got = ffn(Node(x), p).value
            assert np.abs(got - expected).max() < 1e-10, f"instance {seed}"


def test_event_block_duplication_invariant():
    with criterion("event duplication: shared context identical, frame-conditioned distinct"):
        for seed in range(10):
            rng = np.random.default_rng(seed + 77)
            fused = Node(rng.standard_normal((1, 3, 4)))
            scene = Node(rng.standard_normal((1, 2, 4)))
            vision = Node(rng.standard_normal((1, 3, 2, 4)))

            shared = SpaCompressor(
                CompressorConfig(dim=4, heads=2, scene_tokens=2, event_tokens=2,
                                 scene_layers=1, event_layers=1,
                                 vision_tokens_per_frame=2, mode=MODE_GLOBAL, seed=seed)
            )
            events = shared.extract_events(fused, scene, vision).value
            for i in range(1, events.shape[1]):
                assert np.abs(events[:, i] - events[:, 0]).max() < 1e-12

            conditioned = SpaCompressor(
                CompressorConfig(dim=4, heads=2, scene_tokens=2, event_tokens=2,
                                 scene_layers=1, event_layers=1,
                                 vision_tokens_per_frame=2, mode=MODE_FRAME, seed=seed)
            )
            events = conditioned.extract_events(fused, scene, vision).value
            assert np.abs(events[:, 0] - events[:, 1]).max() > 1e-8


def test_scene_frame_permutation_invariance():
    with criterion("scene tokens invariant under frame reordering (<= 1e-12)"):
        for seed in range(10):
            rng = np.random.default_rng(seed + 321)
            model = SpaCompressor(
                CompressorConfig(dim=4, heads=2, scene_tokens=3, event_tokens=2,
                                 scene_layers=2, event_layers=1,
                                 vision_tokens_per_frame=2, mode=MODE_GLOBAL, seed=seed)
            )
            asr = Node(rng.standard_normal((1, 3, 4)))
            vision = rng.standard_normal((1, 5, 2, 4))
            fused, flat = model.fuse_vision_asr(asr, Node(vision))
            base = model.aggregate_scene(fused, flat).value
            perm = rng.permutation(5)
            fused_p, flat_p = model.fuse_vision_asr(asr, Node(vision[:, perm]))
            permuted = model.aggregate_scene(fused_p, flat_p).value
            assert np.abs(permuted - base).max() <= 1e-12


def test_trainability():
    with criterion("toy fit halves initial MSE in 200 steps, inputs untouched"):
        frames, sentences = generate(SyntheticVideoSpec(**TOY_VIDEO))
        input_digest = [f.vision_tokens.tobytes() for f in frames] + [
            s.tokens.tobytes() for s in sentences
        ]
        model = SpaCompressor(CompressorConfig(**TOY_CONFIG))
        losses = fit(model, frames, sentences, FitConfig(steps=200, learning_rate=0.05))
        assert losses[-1] <= 0.5 * losses[0], f"{losses[0]} -> {losses[-1]}"
        assert input_digest == [f.vision_tokens.tobytes() for f in frames] + [
            s.tokens.tobytes() for s in sentences
        ]


def test_run_determinism(tmp_path):
    with criterion("run subcommand is byte-deterministic given a seed"):
        video_dir = tmp_path / "video"
        assert main(["--seed", "4", "generate", "--out", str(video_dir), "--d", "8"]) == 0
        args = ["--seed", "9", "run", "--d", "8", "--l-v", "2",
                "--manifest", str(video_dir / "video.manifest")]
        assert main(args + ["--out", str(tmp_path / "a.spat")]) == 0
        assert main(args + ["--out", str(tmp_path / "b.spat")]) == 0
        assert (tmp_path / "a.spat").read_bytes() == (tmp_path / "b.spat").read_bytes()
