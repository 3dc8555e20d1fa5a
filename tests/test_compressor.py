import dataclasses
import re

import numpy as np
import pytest

from oracles import naive_attention, naive_ffn, naive_layer_norm

from spa_compressor import autodiff as ad
from spa_compressor.autodiff import Node
from spa_compressor.compressor import (
    MODE_FRAME,
    MODE_GLOBAL,
    MODES,
    CompressorConfig,
    SpaCompressor,
)
from spa_compressor.fitting import make_teacher_target
from spa_compressor.synthetic import SyntheticVideoSpec, generate


def toy_config(**overrides):
    base = dict(
        dim=4,
        heads=2,
        scene_tokens=2,
        event_tokens=2,
        scene_layers=1,
        event_layers=1,
        vision_tokens_per_frame=2,
        seed=13,
    )
    base.update(overrides)
    return CompressorConfig(**base)


def zero_attention_output(p):
    p.wo.value[:] = 0.0
    if p.bo is not None:
        p.bo.value[:] = 0.0


def zero_ffn_output(p):
    p.w2.value[:] = 0.0
    p.b2.value[:] = 0.0


def np_attention(x, kv, p):
    return naive_attention(
        x, kv, p.heads,
        p.wq.value, p.wk.value, p.wv.value, p.wo.value,
        p.bq.value, p.bk.value, p.bv.value, p.bo.value,
    )


def np_layer_norm(x, p):
    return np.stack([naive_layer_norm(row, p.scale.value, p.shift.value) for row in x])


def np_ffn(x, p):
    return np.stack([naive_ffn(row, p.w1.value, p.b1.value, p.w2.value, p.b2.value) for row in x])


class TestFusion:
    def test_zeroed_branches_reduce_to_normalized_asr(self, rng):
        model = SpaCompressor(toy_config())
        zero_attention_output(model.fusion.attn)
        zero_ffn_output(model.fusion.ffn)
        asr = Node(rng.standard_normal((1, 3, 4)))
        vision = Node(rng.standard_normal((1, 2, 2, 4)))
        fused, _ = model.fuse_vision_asr(asr, vision)
        expected = np_layer_norm(asr.value, model.fusion.ln_asr)
        np.testing.assert_allclose(fused.value, expected, atol=1e-12)

    def test_frame_permutation_leaves_fusion_unchanged(self, rng):
        model = SpaCompressor(toy_config())
        asr = Node(rng.standard_normal((1, 3, 4)))
        vision = rng.standard_normal((1, 4, 2, 4))
        base, _ = model.fuse_vision_asr(asr, Node(vision))
        shuffled, _ = model.fuse_vision_asr(asr, Node(vision[:, [2, 0, 3, 1]]))
        np.testing.assert_allclose(shuffled.value, base.value, atol=1e-12)

    def test_matches_naive_kernel_composition(self, rng):
        model = SpaCompressor(toy_config())
        asr = rng.standard_normal((1, 2, 4))
        vision = rng.standard_normal((1, 2, 2, 4))
        fused, vision_flat = model.fuse_vision_asr(Node(asr), Node(vision))

        f = model.fusion
        v_norm = np.stack([
            np.concatenate([naive_layer_norm(frame, f.ln_vision.scale.value, f.ln_vision.shift.value)
                            for frame in batch])
            for batch in vision
        ])
        a_norm = np_layer_norm(asr, f.ln_asr)
        attended = a_norm + np_attention(a_norm, v_norm, f.attn)
        expected = attended + np_ffn(np_layer_norm(attended, f.ln_ffn), f.ffn)
        np.testing.assert_allclose(vision_flat.value, v_norm, atol=1e-10)
        np.testing.assert_allclose(fused.value, expected, atol=1e-10)


class TestSceneAggregation:
    def test_zeroed_branches_reduce_to_normalized_queries(self, rng):
        model = SpaCompressor(toy_config(scene_tokens=1))
        for layer in model.scene.layers:
            zero_attention_output(layer.attn)
            zero_ffn_output(layer.ffn)
        fused = Node(rng.standard_normal((1, 2, 4)))
        vision_flat = Node(rng.standard_normal((1, 4, 4)))
        scene = model.aggregate_scene(fused, vision_flat)
        queries = model.scene.queries.value[None, ...]
        expected = np_layer_norm(queries, model.scene.ln_init)
        np.testing.assert_allclose(scene.value, expected, atol=1e-12)

    def test_context_token_permutation_invariance(self, rng):
        model = SpaCompressor(toy_config())
        fused = rng.standard_normal((1, 3, 4))
        vision_flat = rng.standard_normal((1, 5, 4))
        base = model.aggregate_scene(Node(fused), Node(vision_flat)).value
        # permuting rows inside either context segment permutes M_s rows
        perm = rng.permutation(5)
        shuffled = model.aggregate_scene(Node(fused), Node(vision_flat[:, perm])).value
        np.testing.assert_allclose(shuffled, base, atol=1e-12)

    def test_two_layer_stack_matches_naive_oracle(self, rng):
        model = SpaCompressor(toy_config(scene_layers=2))
        fused = rng.standard_normal((1, 2, 4))
        vision_flat = rng.standard_normal((1, 4, 4))
        got = model.aggregate_scene(Node(fused), Node(vision_flat)).value

        context = np.concatenate([fused, vision_flat], axis=1)
        h = np_layer_norm(model.scene.queries.value[None, ...], model.scene.ln_init)
        for layer in model.scene.layers:
            h = h + np_attention(np_layer_norm(h, layer.ln_attn), context, layer.attn)
            h = h + np_ffn(np_layer_norm(h, layer.ln_ffn), layer.ffn)
        np.testing.assert_allclose(got, h, atol=1e-10)


class TestEventExtraction:
    def test_global_context_mode_duplicates_event_blocks(self, rng):
        model = SpaCompressor(toy_config(mode=MODE_GLOBAL))
        fused = Node(rng.standard_normal((1, 3, 4)))
        scene = Node(rng.standard_normal((1, 2, 4)))
        vision = Node(rng.standard_normal((1, 4, 2, 4)))
        events = model.extract_events(fused, scene, vision).value
        for i in range(1, 4):
            assert np.abs(events[:, i] - events[:, 0]).max() < 1e-12

    @pytest.mark.parametrize("seed", range(10))
    def test_frame_conditioned_mode_separates_distinct_frames(self, seed):
        rng = np.random.default_rng(seed)
        model = SpaCompressor(toy_config(mode=MODE_FRAME, seed=seed))
        fused = Node(rng.standard_normal((1, 3, 4)))
        scene = Node(rng.standard_normal((1, 2, 4)))
        vision = Node(rng.standard_normal((1, 2, 2, 4)))
        events = model.extract_events(fused, scene, vision).value
        assert np.abs(events[:, 0] - events[:, 1]).max() > 1e-8

    def test_single_query_single_layer_matches_naive_oracle(self, rng):
        model = SpaCompressor(toy_config(event_tokens=1, event_layers=1, mode=MODE_GLOBAL))
        fused = rng.standard_normal((1, 2, 4))
        scene = rng.standard_normal((1, 2, 4))
        vision = rng.standard_normal((1, 2, 2, 4))
        got = model.extract_events(Node(fused), Node(scene), Node(vision)).value

        context = np.concatenate([fused, scene], axis=1)
        h = np_layer_norm(model.events.queries.value[None, ...], model.events.ln_init)
        layer = model.events.layers[0]
        h = h + np_attention(np_layer_norm(h, layer.ln_self), np_layer_norm(h, layer.ln_self), layer.self_attn)
        h = h + np_attention(np_layer_norm(h, layer.ln_cross), context, layer.cross_attn)
        h = h + np_ffn(np_layer_norm(h, layer.ln_ffn), layer.ffn)
        for i in range(2):
            np.testing.assert_allclose(got[:, i], h, atol=1e-10)

    def test_batched_frame_conditioned_stack_matches_per_frame_oracle(self, rng):
        # two batch entries of three frames each, so a wrong fold of frames
        # into the batch axis shows up as well as a wrong layer
        model = SpaCompressor(toy_config(event_tokens=3, event_layers=2, mode=MODE_FRAME))
        for _, node in model.parameter_groups()["event"]:
            if node.ndim == 1:  # layer-norm scales and shifts, attention and FFN biases
                node.value[:] = rng.uniform(0.5, 1.5, node.shape)
        fused = rng.standard_normal((2, 3, 4))
        scene = rng.standard_normal((2, 2, 4))
        vision = rng.standard_normal((2, 3, 2, 4))
        got = model.extract_events(Node(fused), Node(scene), Node(vision)).value
        assert got.shape == (2, 3, 3, 4)

        ev = model.events
        shared = np.concatenate([fused, scene], axis=1)
        for i in range(3):
            context = np.concatenate([shared, np_layer_norm(vision[:, i], ev.ln_vision)], axis=1)
            h = np_layer_norm(np.stack([ev.queries.value] * 2), ev.ln_init)
            for layer in ev.layers:
                x = np_layer_norm(h, layer.ln_self)
                h = h + np_attention(x, x, layer.self_attn)
                h = h + np_attention(np_layer_norm(h, layer.ln_cross), context, layer.cross_attn)
                h = h + np_ffn(np_layer_norm(h, layer.ln_ffn), layer.ffn)
            np.testing.assert_allclose(got[:, i], h, atol=1e-10)

    def test_unknown_mode_is_an_error(self):
        with pytest.raises(ValueError, match="unknown mode"):
            toy_config(mode="telepathy")


class TestAssembly:
    def make_blocks(self, rng, s, e, n, d):
        scene = Node(rng.standard_normal((1, s, d)))
        events = Node(rng.standard_normal((1, n, e, d)))
        stamps = [Node(rng.standard_normal(d)) for _ in range(n)]
        return scene, events, stamps

    def test_default_scale_token_count(self, rng):
        model = SpaCompressor(toy_config())
        scene, events, stamps = self.make_blocks(rng, 64, 32, 144, 4)
        result = model.assemble(scene, events, stamps)
        assert result.flattened.shape == (1, 64 + 144 * 33, 4)
        assert result.flattened.shape[1] == 4816

    @pytest.mark.parametrize("seed", range(10))
    def test_flattened_matches_index_walk_oracle(self, seed):
        rng = np.random.default_rng(seed)
        s, e, n, d = (int(rng.integers(1, 6)) for _ in range(4))
        d += 1
        model = SpaCompressor(toy_config())
        scene, events, stamps = self.make_blocks(rng, s, e, n, d)
        flat = model.assemble(scene, events, stamps).flattened.value

        # oracle: walk the output index space slot by slot
        pos = 0
        for i in range(s):
            np.testing.assert_array_equal(flat[0, pos], scene.value[0, i])
            pos += 1
        for frame in range(n):
            np.testing.assert_array_equal(flat[0, pos], stamps[frame].value)
            pos += 1
            for j in range(e):
                np.testing.assert_array_equal(flat[0, pos], events.value[0, frame, j])
                pos += 1
        assert pos == flat.shape[1]


class TestForward:
    @pytest.mark.parametrize("seed", range(20))
    def test_shape_law_over_random_configs(self, seed):
        rng = np.random.default_rng(seed)
        heads = int(rng.choice([1, 2]))
        dim = heads * int(rng.integers(1, 4)) * 2
        config = CompressorConfig(
            dim=dim,
            heads=heads,
            scene_tokens=int(rng.integers(1, 5)),
            event_tokens=int(rng.integers(1, 5)),
            scene_layers=int(rng.integers(1, 3)),
            event_layers=int(rng.integers(1, 3)),
            vision_tokens_per_frame=int(rng.integers(1, 4)),
            mode=str(rng.choice([MODE_GLOBAL, MODE_FRAME])),
            seed=seed,
        )
        n_frames = int(rng.integers(1, 5))
        frames, sentences = generate(
            SyntheticVideoSpec(
                n_frames=n_frames,
                n_sentences=int(rng.integers(0, 3)),
                vision_tokens_per_frame=config.vision_tokens_per_frame,
                dim=dim,
                seed=seed,
            )
        )
        result = SpaCompressor(config).forward(frames, sentences)
        expected = config.scene_tokens + n_frames * (1 + config.event_tokens)
        assert result.flattened.shape == (1, expected, dim)

    def test_bit_identical_across_runs(self, toy_video):
        frames, sentences = toy_video
        config = toy_config(dim=8, vision_tokens_per_frame=2)
        a = SpaCompressor(config).forward(frames, sentences)
        b = SpaCompressor(config).forward(frames, sentences)
        assert a.flattened.value.tobytes() == b.flattened.value.tobytes()

    def test_scene_block_leads_and_timestamps_precede_events(self, toy_video):
        frames, sentences = toy_video
        config = toy_config(dim=8, vision_tokens_per_frame=2)
        model = SpaCompressor(config)
        result = model.forward(frames, sentences)
        np.testing.assert_array_equal(
            result.flattened.value[:, : config.scene_tokens], result.scene.value
        )
        stamps = model.encode_frame_times(frames)
        offset = config.scene_tokens
        for i in range(len(frames)):
            np.testing.assert_array_equal(result.flattened.value[0, offset], stamps[i].value)
            offset += 1 + config.event_tokens

    def test_wrong_vision_token_shape_is_an_error(self, toy_video):
        frames, sentences = toy_video
        model = SpaCompressor(toy_config(dim=8, vision_tokens_per_frame=3))
        with pytest.raises(ValueError, match="vision tokens have shape"):
            model.forward(frames, sentences)

    def test_wrong_sentence_token_width_names_the_sentence(self, toy_video):
        frames, sentences = toy_video
        model = SpaCompressor(toy_config(dim=8, vision_tokens_per_frame=2))
        narrow = dataclasses.replace(sentences[0], tokens=sentences[0].tokens[:, :5])
        with pytest.raises(ValueError, match=rf"sentence {narrow.index} tokens have shape \(\d+, 5\)"):
            model.forward(frames, [narrow] + sentences[1:])

    def test_float32_precision_produces_float32(self, toy_video):
        frames, sentences = toy_video
        model = SpaCompressor(toy_config(dim=8, vision_tokens_per_frame=2, precision="f32"))
        result = model.forward(frames, sentences)
        assert result.flattened.value.dtype == np.float32


def resolve(params, dotted: str):
    """The node a parameter name points at, read off the params dataclasses."""
    for part in dotted.split("."):
        if part.startswith("layer") and part[5:].isdigit():
            params = params.layers[int(part[5:])]
        else:
            params = getattr(params, part)
    return params


class TestParameters:
    OWNERS = {"fusion": "fusion", "scene": "scene", "event": "events", "time_encoder": "time_encoder"}

    def test_frame_conditioned_event_group_order(self):
        names = [n for n, _ in SpaCompressor(toy_config(event_layers=2)).parameter_groups()["event"]]
        assert names[:6] == [
            "queries", "ln_init.scale", "ln_init.shift",
            "ln_vision.scale", "ln_vision.shift", "layer0.ln_self.scale",
        ]
        assert names[-1] == "layer1.ffn.b2"

    @pytest.mark.parametrize("scene_layers, event_layers", [(1, 1), (3, 2)])
    def test_global_mode_drops_exactly_the_frame_norm(self, scene_layers, event_layers):
        def names(mode):
            model = SpaCompressor(toy_config(scene_layers=scene_layers, event_layers=event_layers, mode=mode))
            return [n for n, _ in model.parameters()]

        frame, shared = names(MODE_FRAME), names(MODE_GLOBAL)
        assert [n for n in frame if n not in shared] == ["event.ln_vision.scale", "event.ln_vision.shift"]
        assert [n for n in frame if not n.startswith("event.ln_vision.")] == shared

    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("scene_layers, event_layers", [(1, 1), (3, 2)])
    def test_names_are_unique_and_point_at_the_model_nodes(self, mode, scene_layers, event_layers):
        model = SpaCompressor(toy_config(scene_layers=scene_layers, event_layers=event_layers, mode=mode))
        for group, named in model.parameter_groups().items():
            owner = getattr(model, self.OWNERS[group])
            for name, node in named:
                assert resolve(owner, name) is node, f"{group}.{name}"
        named = model.parameters()
        assert len({n for n, _ in named}) == len({id(node) for _, node in named}) == len(named)

    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("d, s, e, l_s, l_e", [(4, 2, 2, 1, 1), (8, 3, 5, 2, 3)])
    def test_scalar_count_matches_the_closed_form(self, mode, d, s, e, l_s, l_e):
        model = SpaCompressor(toy_config(
            dim=d, scene_tokens=s, event_tokens=e, scene_layers=l_s, event_layers=l_e, mode=mode,
        ))
        norm, attention, ffn = 2 * d, 4 * d * d + 4 * d, 8 * d * d + 5 * d
        expected = {
            "fusion": 3 * norm + attention + ffn,
            "scene": s * d + norm + l_s * (2 * norm + attention + ffn),
            "event": e * d + norm + (norm if mode == MODE_FRAME else 0) + l_e * (3 * norm + 2 * attention + ffn),
            "time_encoder": 11 * d + 6 * d * d + 3 * d,
        }
        counts = {g: sum(node.value.size for _, node in named) for g, named in model.parameter_groups().items()}
        assert counts == expected


def mse_gradients(toy_video, mode, precision):
    """Each group's ``(param, gradient)`` pairs after one MSE backward of
    the seeded toy model, as ``fitting.fit`` takes them."""
    frames, sentences = toy_video
    model = SpaCompressor(toy_config(dim=8, vision_tokens_per_frame=2, mode=mode, precision=precision))
    target = make_teacher_target(model, frames, sentences, seed=5)
    diff = model.forward(frames, sentences).flattened - Node(target)
    grads = ad.backward(ad.reduce_mean(diff * diff))
    return {
        group: [(node, ad.grad_of(grads, node)) for _, node in named]
        for group, named in model.parameter_groups().items()
    }


@pytest.mark.parametrize("mode", MODES)
class TestFloat32Backward:
    def test_every_gradient_has_its_parameters_dtype(self, toy_video, mode):
        for named in mse_gradients(toy_video, mode, "f32").values():
            for node, grad in named:
                assert node.value.dtype == grad.dtype == np.float32

    def test_gradients_match_float64_per_group(self, toy_video, mode):
        f32 = mse_gradients(toy_video, mode, "f32")
        f64 = mse_gradients(toy_video, mode, "f64")
        for group, named in f64.items():
            exact = np.concatenate([grad.ravel() for _, grad in named])
            approx = np.concatenate([grad.ravel() for _, grad in f32[group]]).astype(np.float64)
            assert np.linalg.norm(approx - exact) <= 1e-5 * np.linalg.norm(exact), group


class TestConfig:
    def test_defaults_match_shipped_scale(self):
        config = CompressorConfig()
        assert (config.scene_tokens, config.event_tokens) == (64, 32)
        assert (config.scene_layers, config.event_layers) == (2, 2)

    def test_head_divisibility_enforced(self):
        with pytest.raises(ValueError, match="divide"):
            CompressorConfig(dim=10, heads=4)

    def test_ini_round_trip(self, tmp_path):
        path = tmp_path / "c.ini"
        path.write_text(
            "[compressor]\nd = 8\nheads = 2\ns = 3\ne = 4\nl_s = 1\nl_e = 2\n"
            "l_v = 5\nmode = global-context\nseed = 9\n"
        )
        config = CompressorConfig.from_ini(path)
        assert config.dim == 8
        assert config.scene_tokens == 3
        assert config.event_tokens == 4
        assert config.mode == MODE_GLOBAL
        assert config.seed == 9

    def test_zero_vision_tokens_is_an_error(self, tmp_path):
        with pytest.raises(ValueError, match="vision token counts .* must be >= 1"):
            CompressorConfig(vision_tokens_per_frame=0)
        path = tmp_path / "c.ini"
        path.write_text("[compressor]\nd = 8\nheads = 2\ns = 3\ne = 4\nl_s = 1\nl_e = 2\nl_v = 0\n")
        with pytest.raises(ValueError, match=rf"^{re.escape(str(path))} \[compressor\]: .*vision token counts"):
            CompressorConfig.from_ini(path)

    def test_missing_ini_file_is_an_error(self, tmp_path):
        path = tmp_path / "absent.ini"
        with pytest.raises(FileNotFoundError, match=rf"config file not found: {re.escape(str(path))}$"):
            CompressorConfig.from_ini(path)
