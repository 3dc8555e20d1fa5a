import dataclasses
import functools
import math
import weakref
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest

from spa_compressor import autodiff, compressor, gradcheck
from spa_compressor.autodiff import Node
from spa_compressor.compressor import MODE_FRAME, MODE_GLOBAL, MODES, CompressorConfig, SpaCompressor
from spa_compressor.fitting import FitConfig, fit
from spa_compressor.golden import emit, load_manifest, verify
from spa_compressor.goldenio import read_tensor, write_tensor
from spa_compressor.gradcheck import (
    REL_ERR_FLOOR,
    STEP,
    TOLERANCE,
    GroupReport,
    batched_losses,
    chunk_size,
    finite_difference_check,
    relative_error,
)
from spa_compressor.manifest import read_video, write_video
from spa_compressor.sequence import validate_frames, validate_sentences
from spa_compressor.synthetic import SyntheticVideoSpec, generate

from conftest import PAPER_WIDTH_CONFIG, PAPER_WIDTH_VIDEO, TOY_CONFIG, TOY_VIDEO

GOLDEN_MANIFEST = Path(__file__).resolve().parent.parent / "golden_manifest.ini"
GOLDEN_DIR = Path(__file__).resolve().parent / "goldens"

TINY_CONFIG = dict(
    dim=4, heads=2, scene_tokens=1, event_tokens=1,
    scene_layers=1, event_layers=1, vision_tokens_per_frame=1, seed=5,
)
TINY_VIDEO = dict(n_frames=2, n_sentences=1, vision_tokens_per_frame=1, dim=4, seed=2)
SAMPLED_PER_TENSOR = 16


def gelu_with_scaled_vjp(factor):
    """``autodiff.gelu`` with its vector-Jacobian product scaled by ``factor``."""
    true_gelu = autodiff.gelu

    def gelu(a):
        node = true_gelu(a)
        return Node(node.value, node.parents, tuple(lambda g, f=f: factor * f(g) for f in node.vjps))

    return gelu


def paper_width_setup(mode: str):
    frames, sentences = generate(SyntheticVideoSpec(**PAPER_WIDTH_VIDEO))
    return SpaCompressor(CompressorConfig(**PAPER_WIDTH_CONFIG, mode=mode)), frames, sentences


@functools.cache
def sampled_losses(mode: str) -> dict[str, tuple[list[tuple[int, int]], np.ndarray]]:
    """Each group's sample, SAMPLED_PER_TENSOR scalars of every parameter
    tensor of the paper-width model drawn with a fixed seed per group, and
    their (+STEP, -STEP) losses from the sweep's ``batched_losses``.  The
    losses are value-only, so a corrupted VJP leaves them as they are, and
    the negative control reuses them."""
    model, frames, sentences = paper_width_setup(mode)
    x = model.prepare_input(frames, sentences)
    samples = {}
    with autodiff.no_grad():
        cached = model.run_stages(x)
        for group, named in model.parameter_groups().items():
            rng = np.random.default_rng(0)
            scalars = [
                (i, int(k))
                for i, (_, node) in enumerate(named)
                for k in np.sort(rng.choice(node.value.size, SAMPLED_PER_TENSOR, replace=False))
            ]
            samples[group] = scalars, batched_losses(model, x, cached, group, scalars)
    return samples


def sampled_fd_errors(mode: str) -> dict[str, dict[str, float]]:
    """Each group's relative errors, by scalar label, between the analytic
    gradient and the central difference at the scalars of :func:`sampled_losses`."""
    model, frames, sentences = paper_width_setup(mode)
    grads = autodiff.backward(autodiff.reduce_sum(model.forward(frames, sentences).flattened))
    groups = model.parameter_groups()
    return {
        group: {
            f"{groups[group][i][0]}[{k}]": relative_error(
                float(autodiff.grad_of(grads, groups[group][i][1]).flat[k]), (plus - minus) / (2.0 * STEP)
            )
            for (i, k), (plus, minus) in zip(scalars, losses)
        }
        for group, (scalars, losses) in sampled_losses(mode).items()
    }


def scalar_relative_error(analytic: float, numeric: float) -> float:
    """The relative error of one pair of Python floats, the reference for
    the array formula of ``gradcheck.relative_error``."""
    return abs(analytic - numeric) / max(abs(analytic) + abs(numeric), REL_ERR_FLOOR)


def scalar_loop_reports(model, frames, sentences) -> list[GroupReport]:
    """Every group's report, scored one scalar at a time: the oracle of the
    check's array pass.  The worst scalar is the first non-finite error,
    else the first strictly largest; with every error 0 it is unnamed."""
    grads = autodiff.backward(autodiff.reduce_sum(model.forward(frames, sentences).flattened))
    x = model.prepare_input(frames, sentences)
    reports = []
    with autodiff.no_grad():
        cached = model.run_stages(x)
        for group, named in model.parameter_groups().items():
            scalars = [(i, k) for i, (_, node) in enumerate(named) for k in range(node.value.size)]
            losses = batched_losses(model, x, cached, group, scalars)
            worst_err, worst_param = 0.0, ""
            for (i, k), (plus, minus) in zip(scalars, losses):
                name, node = named[i]
                analytic = float(autodiff.grad_of(grads, node).flat[k])
                err = scalar_relative_error(analytic, (float(plus) - float(minus)) / (2.0 * STEP))
                if not math.isfinite(err):
                    worst_err, worst_param = err, f"{name}[{k}]"
                    break
                if err > worst_err:
                    worst_err, worst_param = err, f"{name}[{k}]"
            reports.append(GroupReport(group, len(scalars), worst_err, worst_param))
    return reports


class TestSynthetic:
    def test_same_seed_gives_identical_manifests(self, tmp_path):
        spec = SyntheticVideoSpec(**TOY_VIDEO)
        a = write_video(tmp_path / "a", *generate(spec))
        b = write_video(tmp_path / "b", *generate(spec))
        assert a.read_text() == b.read_text()
        for f in sorted((tmp_path / "a").glob("*.spat")):
            assert f.read_bytes() == (tmp_path / "b" / f.name).read_bytes()

    def test_requested_counts_are_honored(self):
        frames, sentences = generate(SyntheticVideoSpec(4, 2, 3, 6, seed=1))
        assert len(frames) == 4
        assert len(sentences) == 2

    @pytest.mark.parametrize("seed", range(100))
    def test_random_specs_satisfy_invariants(self, seed):
        rng = np.random.default_rng(seed)
        spec = SyntheticVideoSpec(
            n_frames=int(rng.integers(1, 12)),
            n_sentences=int(rng.integers(0, 5)),
            vision_tokens_per_frame=int(rng.integers(1, 5)),
            dim=int(rng.integers(2, 9)),
            frame_step=float(rng.uniform(0.5, 3.0)),
            seed=seed,
        )
        frames, sentences = generate(spec)
        validate_frames(frames)
        validate_sentences(sentences)

    def test_infeasible_sentence_count_is_an_error(self):
        with pytest.raises(ValueError, match="cannot fit"):
            generate(SyntheticVideoSpec(1, 50, 1, 4, frame_step=0.5))


class TestGradcheck:
    def test_tiny_config_passes_all_groups(self):
        frames, sentences = generate(SyntheticVideoSpec(**TINY_VIDEO))
        model = SpaCompressor(CompressorConfig(**TINY_CONFIG))
        reports = finite_difference_check(model, frames, sentences)
        assert {r.name for r in reports} == {"fusion", "scene", "event", "time_encoder"}
        for r in reports:
            assert r.passed(), f"{r.name}: {r.max_rel_err} at {r.worst_param}"

    def test_frozen_group_is_flagged_without_gradient_flow(self):
        frames, sentences = generate(SyntheticVideoSpec(**TINY_VIDEO))
        model = SpaCompressor(CompressorConfig(**TINY_CONFIG))
        reports = finite_difference_check(model, frames, sentences, freeze=("time_encoder",))
        frozen = {r.name: r for r in reports}["time_encoder"]
        assert frozen.frozen
        assert frozen.max_rel_err == 0.0
        assert frozen.worst_param == "(frozen)"

    def test_corrupted_backward_fails_the_check(self, monkeypatch):
        # negative control: scale the GELU vector-Jacobian product and the
        # analytic gradients must stop matching finite differences
        monkeypatch.setattr(autodiff, "gelu", gelu_with_scaled_vjp(1.01))
        frames, sentences = generate(SyntheticVideoSpec(**TINY_VIDEO))
        model = SpaCompressor(CompressorConfig(**TINY_CONFIG))
        reports = finite_difference_check(model, frames, sentences)
        # GELU is in every FFN, so the fusion, scene and event groups must fail;
        # the time encoder has none, so it passes
        assert [r.name for r in reports if not r.passed()] == ["fusion", "scene", "event"]

    def test_corrupted_time_encoder_backward_fails_only_its_group(self, monkeypatch):
        # negative control for the GRU: scale the recorded timestamp node's
        # VJPs, and the probe-batched time_encoder sweep must catch it.  The
        # sweep's probe calls return leaves, which pass through unchanged
        true_encode = compressor.encode_timestamp

        def corrupted_encode(t, p):
            node = true_encode(t, p)
            if not node.parents:
                return node
            bad = tuple(lambda g, f=f: 1.01 * f(g) for f in node.vjps)
            return Node(node.value, node.parents, bad)

        monkeypatch.setattr(compressor, "encode_timestamp", corrupted_encode)
        frames, sentences = generate(SyntheticVideoSpec(**TINY_VIDEO))
        model = SpaCompressor(CompressorConfig(**TINY_CONFIG))
        reports = finite_difference_check(model, frames, sentences)
        assert [r.name for r in reports if not r.passed()] == ["time_encoder"]

    def test_non_finite_gradient_fails_the_check(self, monkeypatch):
        # a NaN gradient makes every relative error it touches NaN, which
        # compares False against any bound: it must fail its group, not be
        # skipped as smaller than the worst finite error
        monkeypatch.setattr(autodiff, "gelu", gelu_with_scaled_vjp(np.nan))
        frames, sentences = generate(SyntheticVideoSpec(**TINY_VIDEO))
        model = SpaCompressor(CompressorConfig(**TINY_CONFIG))
        reports = {r.name: r for r in finite_difference_check(model, frames, sentences)}
        assert [name for name, r in reports.items() if not r.passed()] == ["fusion", "scene", "event"]
        for name in ("fusion", "scene", "event"):
            assert math.isnan(reports[name].max_rel_err)
            first = model.parameter_groups()[name][0][0]
            assert reports[name].worst_param == f"{first}[0]"
        assert math.isfinite(reports["time_encoder"].max_rel_err)

    @pytest.mark.parametrize("mode", MODES)
    def test_reports_equal_the_scalar_loop(self, mode):
        frames, sentences = generate(SyntheticVideoSpec(**TOY_VIDEO))
        model = SpaCompressor(CompressorConfig(**{**TOY_CONFIG, "mode": mode}))
        expected = scalar_loop_reports(model, frames, sentences)
        reports = finite_difference_check(model, frames, sentences)
        assert reports == expected  # field by field, the floats with ==
        assert all(e.worst_param for e in expected)  # every group's worst error is finite and non-zero

    @pytest.mark.parametrize(
        "prepared, worst",
        [
            ({}, (0.0, None)),
            ({2: np.inf, 5: np.nan, 7: 0.5}, (np.inf, 2)),
            ({1: 1e-9, 3: 0.25, 9: 0.25, 12: 0.125}, (0.25, 3)),
        ],
        ids=["all-zero", "first-non-finite", "first-of-equal-maxima"],
    )
    def test_worst_scalar_selection(self, monkeypatch, prepared, worst):
        # the check scores a group with one relative_error call; its
        # prepared result picks the reported scalar
        frames, sentences = generate(SyntheticVideoSpec(**TINY_VIDEO))
        model = SpaCompressor(CompressorConfig(**TINY_CONFIG))
        named = model.parameter_groups()["time_encoder"]
        labels = [f"{name}[{k}]" for name, node in named for k in range(node.value.size)]
        errors = np.zeros(len(labels))
        for k, err in prepared.items():
            errors[k] = err
        monkeypatch.setattr(gradcheck, "relative_error", lambda analytic, numeric: errors.copy())
        freeze = ("fusion", "scene", "event")
        (report,) = [r for r in finite_difference_check(model, frames, sentences, freeze=freeze) if not r.frozen]
        err, k = worst
        assert report.max_rel_err == err and type(report.max_rel_err) is float
        assert report.worst_param == ("" if k is None else labels[k])

    def test_relative_error_of_arrays_is_the_scalar_formula_bit_for_bit(self):
        floor, tiny, big = REL_ERR_FLOOR, 1e-300, 1e308
        pairs = [
            (0.0, 0.0), (0.0, 1e-9), (-1e-9, 0.0), (3e-5, 2e-5), (floor / 2, -floor / 2), (floor, 0.0),
            (tiny, -tiny), (1.0, 1.0 + 1e-12), (-2.5, 2.5), (1e-3, 2e-3), (big, -big), (big, big),
            (np.nan, 1.0), (1.0, np.nan), (np.nan, np.nan), (np.inf, 1.0), (-1.0, -np.inf),
            (np.inf, np.inf), (np.inf, -np.inf), (np.nan, np.inf),
        ]
        analytic, numeric = (np.array(column) for column in zip(*pairs))
        errors = relative_error(analytic, numeric)
        expected = np.array([scalar_relative_error(a, n) for a, n in pairs])
        assert errors.tobytes() == expected.tobytes()
        for a, n in pairs:  # a pair of Python floats gives the same bits
            assert np.float64(relative_error(a, n)).tobytes() == np.float64(scalar_relative_error(a, n)).tobytes()

    def test_every_group_frozen_is_rejected_before_any_work(self, monkeypatch):
        frames, sentences = generate(SyntheticVideoSpec(**TINY_VIDEO))
        model = SpaCompressor(CompressorConfig(**TINY_CONFIG))
        for method in ("forward", "prepare_input", "run_stages"):
            monkeypatch.setattr(model, method, lambda *args, method=method: pytest.fail(f"{method} ran"))
        with pytest.raises(ValueError, match="every parameter group is frozen"):
            finite_difference_check(model, frames, sentences, freeze=tuple(model.DOWNSTREAM))

    @pytest.mark.parametrize("mode", MODES)
    def test_paper_width_sample_passes(self, mode):
        for group, errors in sampled_fd_errors(mode).items():
            worst = max(errors, key=errors.get)
            assert all(err < TOLERANCE for err in errors.values()), f"{group}: {errors[worst]} at {worst}"

    def test_corrupted_backward_fails_the_paper_width_sample(self, monkeypatch):
        # every group with a GELU must fail; the finite differences are those of the passing test
        monkeypatch.setattr(autodiff, "gelu", gelu_with_scaled_vjp(1.01))
        errors = sampled_fd_errors(MODE_GLOBAL)
        failed = [group for group, errs in errors.items() if not all(err < TOLERANCE for err in errs.values())]
        assert failed == ["fusion", "scene", "event"]

    def test_probe_losses_do_not_depend_on_the_chunk_size(self, monkeypatch):
        # each probe's loss is its own batch entry's sum, so the rule's chunk,
        # one scalar per forward and a chunk that leaves a partial last chunk
        # in every group give the same bits
        frames, sentences = generate(SyntheticVideoSpec(**TOY_VIDEO))
        model = SpaCompressor(CompressorConfig(**TOY_CONFIG))
        x = model.prepare_input(frames, sentences)
        partial = 3
        with autodiff.no_grad():
            cached = model.run_stages(x)
            for group, named in model.parameter_groups().items():
                scalars = [(i, k) for i, (_, node) in enumerate(named) for k in range(node.value.size)]
                assert len(scalars) % partial != 0, group
                by_rule = batched_losses(model, x, cached, group, scalars)
                for chunk in (1, partial):
                    monkeypatch.setattr(gradcheck, "chunk_size", lambda out, scalars, chunk=chunk: chunk)
                    assert np.array_equal(batched_losses(model, x, cached, group, scalars), by_rule), (group, chunk)
                    monkeypatch.undo()

    @pytest.mark.parametrize("freeze", [("events",), ("fusion", "timestamps")])
    def test_unknown_freeze_group_is_rejected(self, freeze):
        frames, sentences = generate(SyntheticVideoSpec(**TINY_VIDEO))
        model = SpaCompressor(CompressorConfig(**TINY_CONFIG))
        with pytest.raises(ValueError, match=f"unknown parameter group {freeze[-1]!r}"):
            finite_difference_check(model, frames, sentences, freeze=freeze)

    def test_float32_model_is_rejected(self):
        frames, sentences = generate(SyntheticVideoSpec(**TINY_VIDEO))
        model = SpaCompressor(CompressorConfig(**{**TINY_CONFIG, "precision": "f32"}))
        with pytest.raises(ValueError, match="needs precision f64, got f32"):
            finite_difference_check(model, frames, sentences)

    @pytest.mark.parametrize(
        "config, video",
        [
            ({**TOY_CONFIG, "mode": MODE_FRAME}, TOY_VIDEO),
            ({**TOY_CONFIG, "mode": MODE_GLOBAL}, TOY_VIDEO),
            # layer 1's self-attention reads the (B, N, E, D) state folded to (B*N, E, D)
            ({**TOY_CONFIG, "mode": MODE_FRAME, "event_layers": 2}, TOY_VIDEO),
            # frame times "0.0", "9.5" and "19.0": GRU runs of 3 and 4 characters
            ({**TOY_CONFIG, "mode": MODE_FRAME}, {**TOY_VIDEO, "n_frames": 3, "frame_step": 9.5}),
        ],
        ids=[MODE_FRAME, MODE_GLOBAL, f"{MODE_FRAME}-2-event-layers", f"{MODE_FRAME}-times-of-two-lengths"],
    )
    def test_staged_loss_equals_a_full_forward_bit_for_bit(self, config, video):
        # the sweep reruns only the stages downstream of the perturbed group;
        # a stage missing from SpaCompressor.DOWNSTREAM would reuse a stale
        # output, and a probe row that leaked into another batch entry would
        # change that entry's loss
        frames, sentences = generate(SyntheticVideoSpec(**video))
        model = SpaCompressor(CompressorConfig(**config))
        x = model.prepare_input(frames, sentences)

        @contextmanager
        def perturbed(node, k, delta):
            flat = node.value.reshape(-1)
            original = flat[k]
            flat[k] = original + delta
            try:
                with autodiff.no_grad():
                    yield
            finally:
                flat[k] = original

        def full_loss():
            return float(model.forward(frames, sentences).flattened.value.sum())

        with autodiff.no_grad():
            cached = model.run_stages(x)
            out = model.assemble(cached.scene, cached.events, cached.timestamps).flattened.value.size
        for group, named in model.parameter_groups().items():
            scalars = [(i, k) for i, (_, node) in enumerate(named) for k in range(node.value.size)]
            chunk = chunk_size(out, len(scalars))
            with autodiff.no_grad():
                losses = batched_losses(model, x, cached, group, scalars)
            assert losses.shape == (len(scalars), 2)
            # every row of two batched runs: the last chunk, which leaves rows
            # at the original values when the group's size is not a multiple of
            # the chunk, and the first whose scalars span two tensors (for the
            # time encoder, embed -> w_update)
            last = (len(scalars) - 1) // chunk * chunk
            spanning = next(
                start for start in range(0, len(scalars), chunk)
                if len({i for i, _ in scalars[start : start + chunk]}) == 2
            )
            for start in sorted({spanning, last}):
                for t in range(start, min(start + chunk, len(scalars))):
                    i, k = scalars[t]
                    name, node = named[i]
                    for column, delta in enumerate((STEP, -STEP)):
                        with perturbed(node, k, delta):
                            full = full_loss()
                        assert losses[t, column] == full, f"{group}.{name}[{k}]{delta:+}: {losses[t, column]!r} != {full!r}"

    # every group takes the probe-batched path; each case fails a stage that
    # its group's sweep reruns
    @pytest.mark.parametrize(
        "group, stage", [("fusion", "extract_events"), ("event", "extract_events"), ("time_encoder", "encode_frame_times")]
    )
    def test_sweep_restores_every_parameter_byte_for_byte(self, monkeypatch, group, stage):
        frames, sentences = generate(SyntheticVideoSpec(**TINY_VIDEO))
        model = SpaCompressor(CompressorConfig(**TINY_CONFIG))
        freeze = tuple(g for g in model.DOWNSTREAM if g != group)

        before = [(node.value, node.value.tobytes()) for _, node in model.parameters()]

        def assert_restored():
            for (value, data), (name, node) in zip(before, model.parameters()):
                assert node.value is value and node.value.tobytes() == data, name

        finite_difference_check(model, frames, sentences, freeze=freeze)
        assert_restored()
        # a stage that raises in the middle of the sweep, while probe values are in place
        calls, run = [0], getattr(model, stage)

        def failing(*args):
            calls[0] += 1
            if calls[0] == 4:  # the analytic forward and the cached run come first
                raise RuntimeError("stage failed")
            return run(*args)

        monkeypatch.setattr(model, stage, failing)
        with pytest.raises(RuntimeError, match="stage failed"):
            finite_difference_check(model, frames, sentences, freeze=freeze)
        assert calls[0] == 4
        assert_restored()


class TestFit:
    def test_zero_learning_rate_keeps_loss_constant(self):
        frames, sentences = generate(SyntheticVideoSpec(**TINY_VIDEO))
        model = SpaCompressor(CompressorConfig(**TINY_CONFIG))
        losses = fit(model, frames, sentences, FitConfig(steps=5, learning_rate=0.0))
        assert len(set(losses)) == 1

    def test_toy_loop_halves_the_initial_loss(self):
        frames, sentences = generate(SyntheticVideoSpec(**TOY_VIDEO))
        model = SpaCompressor(CompressorConfig(**TOY_CONFIG))
        losses = fit(model, frames, sentences, FitConfig(steps=200, learning_rate=0.05))
        assert losses[-1] <= 0.5 * losses[0]

    def test_inputs_stay_byte_identical_and_every_group_trains(self):
        frames, sentences = generate(SyntheticVideoSpec(**TINY_VIDEO))
        model = SpaCompressor(CompressorConfig(**TINY_CONFIG))
        input_digest = [f.vision_tokens.tobytes() for f in frames] + [
            s.tokens.tobytes() for s in sentences
        ]
        fit(model, frames, sentences, FitConfig(steps=10, learning_rate=0.05))
        assert input_digest == [f.vision_tokens.tobytes() for f in frames] + [
            s.tokens.tobytes() for s in sentences
        ]
        initial = SpaCompressor(CompressorConfig(**TINY_CONFIG)).parameter_groups()
        for group, named in model.parameter_groups().items():
            pairs = zip(named, initial[group])
            assert any(not np.array_equal(a.value, b.value) for (_, a), (_, b) in pairs), group

    def test_each_step_frees_its_graph_before_the_next_forward(self, monkeypatch):
        # a node holds its value, so the previous step's output value is dead
        # only once its node is; the graph holds no reference cycles, so it
        # dies as soon as fit drops that step's loss and gradients
        frames, sentences = generate(SyntheticVideoSpec(**TINY_VIDEO))
        model = SpaCompressor(CompressorConfig(**TINY_CONFIG))
        forward, outputs = model.forward, []

        def tracked(*args):
            assert all(ref() is None for ref in outputs)
            result = forward(*args)
            outputs.append(weakref.ref(result.flattened.value))
            return result

        monkeypatch.setattr(model, "forward", tracked)
        fit(model, frames, sentences, FitConfig(steps=3))
        assert len(outputs) == 5  # the teacher target's shape, then 3 steps and the final loss

    @pytest.mark.parametrize("lr", [float("nan"), float("inf"), -float("inf"), -0.05])
    def test_learning_rate_must_be_finite_and_non_negative(self, lr):
        with pytest.raises(ValueError, match="learning rate must be finite and non-negative"):
            FitConfig(steps=3, learning_rate=lr)

    @pytest.mark.parametrize("steps", [0, -1])
    def test_steps_must_be_at_least_one(self, steps):
        with pytest.raises(ValueError, match="need at least one step"):
            FitConfig(steps=steps)

    def test_divergence_reports_step_index(self):
        frames, sentences = generate(SyntheticVideoSpec(**TINY_VIDEO))
        model = SpaCompressor(CompressorConfig(**TINY_CONFIG))
        with pytest.raises(ValueError, match=r"step \d+"):
            fit(model, frames, sentences, FitConfig(steps=60, learning_rate=500.0))


class TestGolden:
    def test_manifest_loads_shipped_cases(self):
        cases = load_manifest(GOLDEN_MANIFEST)
        assert {c.name for c in cases} >= {"toy_f64", "toy_f32", "wide_f64"}

    def test_committed_goldens_pass(self):
        # snapshots emitted once and stored: a numeric change anywhere in the
        # forward beyond 1e-10 (f64) or 1e-5 (f32) fails here
        cases = load_manifest(GOLDEN_MANIFEST)
        results = verify(cases, GOLDEN_DIR)
        assert [r.name for r in results] == [c.name for c in cases]
        assert all(r.ok for r in results), [r.detail for r in results if not r.ok]

    def test_verify_after_emit_passes(self, tmp_path):
        cases = load_manifest(GOLDEN_MANIFEST)
        emit(cases, tmp_path)
        results = verify(cases, tmp_path)
        assert all(r.ok for r in results), [r.detail for r in results if not r.ok]

    def test_small_perturbation_fails_verification(self, tmp_path):
        cases = [c for c in load_manifest(GOLDEN_MANIFEST) if c.name == "toy_f64"]
        emit(cases, tmp_path)
        path = tmp_path / "toy_f64.spat"
        stored = read_tensor(path)
        stored.flat[7] += 1e-6
        write_tensor(path, stored)
        results = verify(cases, tmp_path)
        assert not results[0].ok
        assert "first divergence" in results[0].detail

    def test_passing_case_reports_its_max_difference(self, tmp_path):
        cases = [c for c in load_manifest(GOLDEN_MANIFEST) if c.name == "toy_f64"]
        emit(cases, tmp_path)
        assert verify(cases, tmp_path)[0].detail == "match within 1e-10, max |diff| 0"
        path = tmp_path / "toy_f64.spat"
        stored = read_tensor(path)
        stored.flat[7] += 2.5e-11
        write_tensor(path, stored)
        result = verify(cases, tmp_path)[0]
        assert result.ok
        assert result.detail == "match within 1e-10, max |diff| 2.5e-11"

    def test_missing_file_fails_verification(self, tmp_path):
        cases = [c for c in load_manifest(GOLDEN_MANIFEST) if c.name == "toy_f64"]
        results = verify(cases, tmp_path)
        assert not results[0].ok
        assert "missing" in results[0].detail

    def test_cross_mode_outputs_differ(self, tmp_path):
        cases = {c.name: c for c in load_manifest(GOLDEN_MANIFEST)}
        emit(list(cases.values()), tmp_path)
        frame_mode = read_tensor(tmp_path / "toy_f64.spat")
        shared_mode = read_tensor(tmp_path / "toy_f64_shared_context.spat")
        assert np.abs(frame_mode - shared_mode).max() > 1e-8


class TestManifestIo:
    def test_round_trip(self, tmp_path):
        frames, sentences = generate(SyntheticVideoSpec(**TOY_VIDEO))
        path = write_video(tmp_path, frames, sentences)
        back_frames, back_sentences = read_video(path)
        assert len(back_frames) == len(frames)
        assert len(back_sentences) == len(sentences)
        for a, b in zip(frames, back_frames):
            assert a.time_seconds == b.time_seconds
            np.testing.assert_array_equal(a.vision_tokens, b.vision_tokens)
        for a, b in zip(sentences, back_sentences):
            assert (a.start, a.end) == (b.start, b.end)
            np.testing.assert_array_equal(a.tokens, b.tokens)

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_numpy_scalar_times_round_trip(self, tmp_path, dtype):
        frames, sentences = generate(SyntheticVideoSpec(**TOY_VIDEO))
        frames = [dataclasses.replace(f, time_seconds=dtype(f.time_seconds)) for f in frames]
        sentences = [dataclasses.replace(s, start=dtype(s.start), end=dtype(s.end)) for s in sentences]
        back_frames, back_sentences = read_video(write_video(tmp_path, frames, sentences))
        assert [b.time_seconds for b in back_frames] == [float(f.time_seconds) for f in frames]
        assert [(b.start, b.end) for b in back_sentences] == [(float(s.start), float(s.end)) for s in sentences]

    def test_tensor_magnitude_is_bounded_by_the_float32_layer_norm_square(self, tmp_path):
        # width W: |x| <= sqrt(float32 max / (4 W)) keeps layer norm's sum of squares finite
        frames, sentences = generate(SyntheticVideoSpec(**TOY_VIDEO))
        width = frames[0].vision_tokens.shape[1]
        bound = math.sqrt(float(np.finfo(np.float32).max) / (4 * width))
        frames[0].vision_tokens[0, 0] = -bound
        read_video(write_video(tmp_path / "at", frames, sentences))
        frames[0].vision_tokens[0, 0] = -bound * (1 + 1e-12)
        with pytest.raises(ValueError, match=r"video.manifest:2: malformed record: .*frame_00000.spat: magnitude"):
            read_video(write_video(tmp_path / "above", frames, sentences))

    def test_malformed_line_reports_location(self, tmp_path):
        frames, sentences = generate(SyntheticVideoSpec(**TOY_VIDEO))
        path = write_video(tmp_path, frames, sentences)
        path.write_text(path.read_text() + "frame nonsense\n")
        with pytest.raises(ValueError, match="malformed record"):
            read_video(path)
