"""Tests of the benchmark itself: its correctness gates, its tracer and its
definition file.  Run with ``python3 -m pytest perfbench``."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import run

run.import_program()

import bench_trace  # noqa: E402
import bench_workloads as bw  # noqa: E402
from spa_compressor import gradcheck  # noqa: E402
from spa_compressor.compressor import CompressorConfig, SpaCompressor  # noqa: E402
from spa_compressor.gradcheck import GroupReport  # noqa: E402
from spa_compressor.synthetic import SyntheticVideoSpec, generate  # noqa: E402

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def corrupted_reference(tmp_path: Path, video: int, delta: float) -> Path:
    with np.load(bw.REFERENCE_PATH) as ref:
        arrays = {k: ref[k].copy() for k in ref.files}
    arrays[f"video_{video}"][5, 0] += delta
    path = tmp_path / "reference.npz"
    np.savez(path, **arrays)
    return path


def test_compress_output_matches_stored_reference(tmp_path):
    workload = bw.CompressLong(seed=3, workdir=tmp_path)
    workload.setup()
    outcomes = run.serve(workload, seconds=0.0, min_requests=1)
    assert [o.error for o in outcomes] == [None]
    assert outcomes[0].units == bw.COMPRESS_FRAMES


def test_corrupted_reference_registers_a_failed_operation(tmp_path):
    """Negative control: a stored reference moved by 1e-6, far beyond the
    golden tolerance, turns the request into a failed operation."""
    first = bw.CompressLong(seed=3, workdir=tmp_path).order[0]
    workload = bw.CompressLong(seed=3, workdir=tmp_path, reference_path=corrupted_reference(tmp_path, first, 1e-6))
    workload.setup()
    outcomes = run.serve(workload, seconds=0.0, min_requests=1)
    assert len(outcomes) == 1
    assert "differs from reference" in outcomes[0].error


def test_sketch_tolerance_accepts_outputs_within_golden_tolerance():
    rng = np.random.default_rng(0)
    out = rng.standard_normal((1, 40, 64))
    signs = rng.choice([-1.0, 1.0], size=(64, 2))
    reference = bw.sketch(out, signs)
    nudged = out + 0.9e-10 * rng.choice([-1.0, 1.0], size=out.shape)
    assert bw.compare_sketch(nudged, reference, signs, 1e-10) is None
    bad = out.copy()
    bad[0, 7, 3] += 1e-7
    assert "output token 7" in bw.compare_sketch(bad, reference, signs, 1e-10)
    bad[0, 7, 3] = np.nan
    assert bw.compare_sketch(bad, reference, signs, 1e-10) is not None


def test_global_invariant_check_catches_a_differing_event_block():
    workload = bw.TrainGlobal(seed=0, workdir=Path("."))
    workload.model = SpaCompressor(CompressorConfig(**bw.PAPER, mode="global-context", precision="f32"))
    cfg = workload.model.config
    out = np.zeros((1, bw.output_tokens(cfg, bw.TRAIN_FRAMES), cfg.dim), dtype=np.float32)
    out[0, cfg.scene_tokens :: 1 + cfg.event_tokens] = 3.0  # timestamps may differ
    assert workload._check_global_invariant(out) is None
    out[0, -1, 0] += 1e-6
    assert "differ across frames" in workload._check_global_invariant(out)


def test_failed_gradient_check_registers_a_failed_operation(monkeypatch):
    workload = bw.VerifyToy(seed=0, workdir=Path("."))
    workload.setup()
    group = workload.group(0)

    def broken_check(model, frames, sentences, freeze=()):
        return [
            GroupReport(g, workload.sizes[g], 0.0, "(frozen)", frozen=True)
            if g in freeze
            else GroupReport(g, workload.sizes[g], 3e-3, "wq[0]")
            for g in bw.GROUPS
        ]

    monkeypatch.setattr(gradcheck, "finite_difference_check", broken_check)
    outcomes = run.serve(workload, seconds=0.0, min_requests=1)
    assert outcomes[0].error == f"group {group}: max relative error 3.000e-03 at wq[0]"


def test_same_seed_same_inputs():
    for cls in bw.WORKLOADS.values():
        a, b = cls(seed=11, workdir=Path(".")), cls(seed=11, workdir=Path("."))
        assert vars(a) == vars(b)
    assert bw.CompressLong(seed=1, workdir=Path(".")).order != bw.CompressLong(seed=2, workdir=Path(".")).order


def toy_model_and_video():
    model = SpaCompressor(CompressorConfig(**bw.TOY, seed=5))
    video = generate(SyntheticVideoSpec(bw.TOY_FRAMES, bw.TOY_SENTENCES, bw.TOY["vision_tokens_per_frame"], bw.TOY["dim"], seed=6))
    return model, video


def test_tracer_is_transparent_and_restores_the_program():
    model, video = toy_model_and_video()
    originals = [getattr(owner, attr) for owner, attr, _, _ in bench_trace.TARGETS]
    plain = model.forward(*video).flattened.value
    tracer = bench_trace.Tracer()
    tracer.install()
    try:
        traced = tracer.run_request(0, "toy", model.forward, *video).flattened.value
    finally:
        tracer.uninstall()
    assert [getattr(owner, attr) for owner, attr, _, _ in bench_trace.TARGETS] == originals
    assert np.array_equal(plain, traced)

    spans = tracer.spans
    names = [s[bench_trace.NAME] for s in spans]
    forward = names.index("compressor.forward")
    assert spans[forward][bench_trace.PARENT] == names.index("request")
    for stage in bench_trace.STAGES:
        assert spans[names.index(stage)][bench_trace.PARENT] == forward
    metrics = tracer.layer_metrics([bw.graph_stats(model.forward(*video).flattened)])
    assert metrics["compressor.events_nodes"] > 0
    assert metrics["time_encoder.gru_steps"] == sum(len(f"{t:.1f}") for t in (0.0, 1.0))
    assert metrics["trace.stage_coverage"] > run.MIN_STAGE_COVERAGE


def test_layer_metrics_cover_the_declared_set():
    tracer = bench_trace.Tracer()
    metrics = tracer.layer_metrics([])
    derived = {"trace.overhead_pct", "blas.peak_gflops", "blas.peak_gflops_f64", "blas.peak_gflops_f32"}
    assert set(metrics) | derived == set(bench_trace.LAYER_METRICS)


def test_benchmark_json_matches_the_harness():
    assert BENCHMARK["command"] == ["python3", "perfbench/run.py"]
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(bw.WORKLOADS)
    assert {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]} == run.UNITS
    assert {m["name"]: (m["unit"], m["better"]) for m in BENCHMARK["per_layer"]} == bench_trace.LAYER_METRICS


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.ROOT / "perfbench", tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "verify-toy", "--seconds", "1"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode != 0
    assert "{" not in proc.stdout
