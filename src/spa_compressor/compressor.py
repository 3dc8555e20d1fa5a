"""Hierarchical scene/event token compressor.

Four stages, each a thin composition of the numeric kernels:

1. fusion       - ASR token embeddings attend into the flattened vision
                  tokens so spoken phrases pick up visual grounding.
2. scene stage  - a bank of S learnable queries cross-attends into the
                  fused ASR + vision context, distilling global context.
3. event stage  - a bank of E learnable queries, shared across frames,
                  runs self-attention / cross-attention / FFN decoder
                  layers against the fused ASR + scene context.  In
                  "frame-conditioned" mode the context is extended with
                  the current frame's normalized vision tokens so event
                  blocks can differ per frame.  One decoder loop serves
                  both modes: its state is (B, Nh, E, D), with Nh = 1
                  until a cross-attention reads frame-own tokens, so the
                  first layer's self-attention and query projection run
                  once per video.  Each cross-attention is one
                  kernels.attend: the frame-independent context is
                  projected once per layer and never tiled over frames.
                  "global-context" mode uses that context only, so one
                  event block is decoded and broadcast.
4. assembly     - output is [scene block, then per frame: timestamp token
                  followed by its E event tokens], flattened to
                  (B, S + N*(1+E), D) by one concat over all frames.
"""

from __future__ import annotations

import configparser
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Node
# perfbench/bench_trace.py's TARGETS patches layer_norm, cross_attention, self_attention, ffn, align_sentences,
# build_sequence and encode_timestamp here, and six SpaCompressor methods, by name: a traced run fails if one
# goes (ROADMAP item 1 step A)
from .kernels import (
    AttentionParams,
    FfnParams,
    LayerNormParams,
    attend,
    attention_params,
    cross_attention,
    ffn,
    ffn_params,
    layer_norm,
    layer_norm_params,
    self_attention,
)
from .sequence import AsrSentence, Frame, InterleavedSequence, align_sentences, build_sequence
from .time_encoder import encode_timestamp, time_encoder_params

MODE_GLOBAL = "global-context"
MODE_FRAME = "frame-conditioned"
MODES = (MODE_GLOBAL, MODE_FRAME)

_DTYPES = {"f32": np.float32, "f64": np.float64}


# INI key -> (CompressorConfig field, value parser).  The seven shape keys
# are required; mode, seed and precision default to the field defaults.
INI_KEYS = {
    "d": ("dim", int),
    "heads": ("heads", int),
    "s": ("scene_tokens", int),
    "e": ("event_tokens", int),
    "l_s": ("scene_layers", int),
    "l_e": ("event_layers", int),
    "l_v": ("vision_tokens_per_frame", int),
    "mode": ("mode", str),
    "seed": ("seed", int),
    "precision": ("precision", str),
}
OPTIONAL_INI_KEYS = ("mode", "seed", "precision")


def read_ini(path, what: str) -> configparser.ConfigParser:
    """Parse the INI file ``path``; a parse error is a ``ValueError`` naming it."""
    parser = configparser.ConfigParser()
    try:
        read = parser.read(str(path), encoding="utf-8")
    except configparser.Error as exc:
        raise ValueError(f"{path}: {' '.join(str(exc).split())}") from None
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path}: not UTF-8 text: {exc}") from None
    if not read:
        raise FileNotFoundError(f"{what} not found: {path}")
    return parser


def ini_value(section, key: str, parse, where: str):
    """``section[key]`` converted by ``parse``; errors name ``where`` and the key."""
    if key not in section:
        raise ValueError(f"{where}: missing key {key!r}")
    try:
        return parse(section[key])
    except (ValueError, configparser.Error) as exc:
        raise ValueError(f"{where}: bad value for {key!r}: {exc}") from None


class FieldError(ValueError):
    """A bad value; ``fields`` names the config or spec fields the failed check read."""

    def __init__(self, fields: tuple[str, ...], message: str):
        super().__init__(message)
        self.fields = fields


@dataclass
class CompressorConfig:
    dim: int = 64
    heads: int = 8
    scene_tokens: int = 64
    event_tokens: int = 32
    scene_layers: int = 2
    event_layers: int = 2
    vision_tokens_per_frame: int = 4
    mode: str = MODE_FRAME
    seed: int = 0
    precision: str = "f64"

    def __post_init__(self):
        counts = ("scene_tokens", "event_tokens", "scene_layers", "event_layers", "vision_tokens_per_frame")
        below_one = tuple(f for f in counts if getattr(self, f) < 1)
        if below_one:
            raise FieldError(below_one, "scene/event/vision token counts and layer counts must be >= 1")
        if self.dim < 1:
            raise FieldError(("dim",), f"model dim must be >= 1, got {self.dim}")
        if self.heads < 1:
            raise FieldError(("heads",), f"head count must be >= 1, got {self.heads}")
        if self.dim % self.heads != 0:
            raise FieldError(("dim", "heads"), f"heads ({self.heads}) must divide model dim ({self.dim})")
        if self.mode not in MODES:
            raise FieldError(("mode",), f"unknown mode {self.mode!r}; expected one of {MODES}")
        if self.precision not in _DTYPES:
            raise FieldError(("precision",), f"precision must be one of {sorted(_DTYPES)}")
        if self.seed < 0:
            raise FieldError(("seed",), f"seed must be non-negative, got {self.seed}")

    @property
    def dtype(self):
        return _DTYPES[self.precision]

    @classmethod
    def from_section(cls, section, where: str, extra=()) -> "CompressorConfig":
        """The config an INI section describes; ``where`` names the file and
        section in errors, and ``extra`` lists keys the caller parses itself."""
        for key in section:
            if key not in INI_KEYS and key not in extra:
                raise ValueError(f"{where}: unknown key {key!r}")
        fields = {
            field: ini_value(section, key, parse, where)
            for key, (field, parse) in INI_KEYS.items()
            if key in section or key not in OPTIONAL_INI_KEYS
        }
        try:
            return cls(**fields)
        except ValueError as exc:
            raise ValueError(f"{where}: {exc}") from None

    @classmethod
    def from_ini(cls, path) -> "CompressorConfig":
        parser = read_ini(path, "config file")
        if not parser.has_section("compressor"):
            raise ValueError(f"{path}: no [compressor] section")
        return cls.from_section(parser["compressor"], f"{path} [compressor]")


@dataclass
class FusionParams:
    ln_asr: LayerNormParams
    ln_vision: LayerNormParams
    attn: AttentionParams
    ln_ffn: LayerNormParams
    ffn: FfnParams


@dataclass
class SceneLayerParams:
    ln_attn: LayerNormParams
    attn: AttentionParams
    ln_ffn: LayerNormParams
    ffn: FfnParams


@dataclass
class SceneParams:
    queries: Node  # (S, D), broadcast over the batch at use time
    ln_init: LayerNormParams
    layers: list[SceneLayerParams]


@dataclass
class EventLayerParams:
    ln_self: LayerNormParams
    self_attn: AttentionParams
    ln_cross: LayerNormParams
    cross_attn: AttentionParams
    ln_ffn: LayerNormParams
    ffn: FfnParams


@dataclass
class EventParams:
    queries: Node  # (E, D), one parameter bank replicated for every frame
    ln_init: LayerNormParams
    ln_vision: LayerNormParams | None  # frame-conditioned mode only
    layers: list[EventLayerParams]


@dataclass
class ForwardResult:
    scene: Node  # (B, S, D)
    events: Node  # (B, N, E, D)
    flattened: Node  # (B, S + N*(1+E), D)
    sequence: InterleavedSequence | None = None


@dataclass
class PreparedInput:
    """A validated video as the stages consume it (B=1)."""

    frames: list[Frame]
    asr: Node  # (1, L_a, D), every sentence's tokens in order
    vision: Node  # (1, N, L_v, D)
    sequence: InterleavedSequence


@dataclass
class StageOutputs:
    fused: Node  # fusion: (B, L_a, D)
    vision_flat: Node  # fusion: (B, N*L_v, D)
    scene: Node  # (B, S, D)
    events: Node  # (B, N, E, D)
    timestamps: list[Node]  # one per frame: (D,), or (P, D) on the probe path


def _query_bank(bank: Node, shape: tuple) -> Node:
    """The (tokens, D) query bank ``bank`` broadcast to ``shape``, batch
    first.  A bank of P stacked probe values, (P * tokens, D), gives batch
    entry i its probe i (the value-only probe path of the gradient check)."""
    if bank.shape[0] != shape[-2]:
        return ad.reshape(bank, shape)
    return ad.broadcast_to(bank, shape)


# the parameter-dependent stages of SpaCompressor.run_stages, in pipeline order
STAGES = ("fusion", "scene", "events", "times")


class SpaCompressor:
    """Scene/event compressor with learnable parameters and full autodiff."""

    def __init__(self, config: CompressorConfig):
        self.config = config
        d, h = config.dim, config.heads
        dtype = config.dtype
        rng = np.random.default_rng(config.seed)
        bound = 1.0 / np.sqrt(d)

        self.fusion = FusionParams(
            ln_asr=layer_norm_params(d, dtype),
            ln_vision=layer_norm_params(d, dtype),
            attn=attention_params(d, h, rng, dtype),
            ln_ffn=layer_norm_params(d, dtype),
            ffn=ffn_params(d, rng, dtype),
        )
        self.scene = SceneParams(
            queries=Node(rng.uniform(-bound, bound, (config.scene_tokens, d)).astype(dtype)),
            ln_init=layer_norm_params(d, dtype),
            layers=[
                SceneLayerParams(
                    ln_attn=layer_norm_params(d, dtype),
                    attn=attention_params(d, h, rng, dtype),
                    ln_ffn=layer_norm_params(d, dtype),
                    ffn=ffn_params(d, rng, dtype),
                )
                for _ in range(config.scene_layers)
            ],
        )
        self.events = EventParams(
            queries=Node(rng.uniform(-bound, bound, (config.event_tokens, d)).astype(dtype)),
            ln_init=layer_norm_params(d, dtype),
            layers=[
                EventLayerParams(
                    ln_self=layer_norm_params(d, dtype),
                    self_attn=attention_params(d, h, rng, dtype),
                    ln_cross=layer_norm_params(d, dtype),
                    cross_attn=attention_params(d, h, rng, dtype),
                    ln_ffn=layer_norm_params(d, dtype),
                    ffn=ffn_params(d, rng, dtype),
                )
                for _ in range(config.event_layers)
            ],
            ln_vision=layer_norm_params(d, dtype) if config.mode == MODE_FRAME else None,
        )
        self.time_encoder = time_encoder_params(d, rng, dtype)

    # ----- parameter bookkeeping -------------------------------------

    def parameter_groups(self) -> dict[str, list[tuple[str, Node]]]:
        """Each group's ``(name, node)`` pairs, named by
        :func:`autodiff.named_parameters` after the params dataclass fields."""
        return {
            "fusion": ad.named_parameters(self.fusion),
            "scene": ad.named_parameters(self.scene),
            "event": ad.named_parameters(self.events),
            "time_encoder": ad.named_parameters(self.time_encoder),
        }

    # the stages whose outputs depend on each parameter group; only these
    # need rerunning when that group changes
    DOWNSTREAM = {
        "fusion": ("fusion", "scene", "events"),
        "scene": ("scene", "events"),
        "event": ("events",),
        "time_encoder": ("times",),
    }

    def parameters(self) -> list[tuple[str, Node]]:
        return [
            (f"{group}.{name}", node)
            for group, named in self.parameter_groups().items()
            for name, node in named
        ]

    # ----- stages -----------------------------------------------------

    def fuse_vision_asr(self, asr: Node, vision: Node) -> tuple[Node, Node]:
        """Fuse ASR tokens (B, L_a, D) with vision tokens (B, N, L_v, D).

        Returns the fused ASR block and the flattened normalized vision
        tokens (B, N*L_v, D) for reuse by the scene stage.
        """
        b, n, l_v, d = vision.shape
        vision_flat = ad.reshape(layer_norm(vision, self.fusion.ln_vision), (b, n * l_v, d))
        asr_norm = layer_norm(asr, self.fusion.ln_asr)
        attended = asr_norm + cross_attention(asr_norm, vision_flat, self.fusion.attn)
        fused = attended + ffn(layer_norm(attended, self.fusion.ln_ffn), self.fusion.ffn)
        return fused, vision_flat

    def aggregate_scene(self, fused_asr: Node, vision_flat: Node) -> Node:
        """Distill the full token context into S scene tokens (B, S, D)."""
        context = ad.concat([fused_asr, vision_flat], axis=1)
        shape = (fused_asr.shape[0], self.config.scene_tokens, self.config.dim)
        h = layer_norm(_query_bank(self.scene.queries, shape), self.scene.ln_init)
        for layer in self.scene.layers:
            h = h + cross_attention(layer_norm(h, layer.ln_attn), context, layer.attn)
            h = h + ffn(layer_norm(h, layer.ln_ffn), layer.ffn)
        return h

    def extract_events(self, fused_asr: Node, scene: Node, vision: Node) -> Node:
        """Produce E event tokens per frame, (B, N, E, D).

        The query bank is one (E, D) parameter replicated for every frame,
        so the decoder state ``h`` is (B, Nh, E, D) with Nh = 1 until a
        cross-attention reads the frames' own vision tokens, and N after.
        Every cross-attention is one :func:`attend` into the fused ASR +
        scene context, joined in frame-conditioned mode by the frame's own
        tokens; in global-context mode it reads the shared context only, so
        one block is decoded and broadcast.
        """
        batch, n_frames, _, d = vision.shape
        e = self.config.event_tokens
        shared = ad.concat([fused_asr, scene], axis=1)
        own = layer_norm(vision, self.events.ln_vision) if self.config.mode == MODE_FRAME else None
        h = layer_norm(_query_bank(self.events.queries, (batch, 1, e, d)), self.events.ln_init)
        for layer in self.events.layers:
            x = ad.reshape(layer_norm(h, layer.ln_self), (-1, e, d))  # (B*Nh, E, D)
            h = h + ad.reshape(self_attention(x, layer.self_attn), h.shape)
            h = h + attend(layer_norm(h, layer.ln_cross), shared, own, layer.cross_attn)
            h = h + ffn(layer_norm(h, layer.ln_ffn), layer.ffn)
        return ad.broadcast_to(h, (batch, n_frames, e, d))

    def assemble(self, scene: Node, events: Node, timestamps: list[Node]) -> ForwardResult:
        """Interleave timestamp tokens with event blocks and prepend scene;
        ``timestamps`` holds one node per frame, and there is at least one
        frame.  A (D,) stamp serves every batch entry; a (P, D) stamp of
        stacked probe values gives batch entry i its row i."""
        batch, n_frames, n_events, d = events.shape
        stamps = ad.reshape(ad.concat(timestamps, axis=-1), (-1, n_frames, 1, d))
        blocks = ad.concat([ad.broadcast_to(stamps, (batch, n_frames, 1, d)), events], axis=2)
        flat_blocks = ad.reshape(blocks, (batch, n_frames * (1 + n_events), d))
        return ForwardResult(scene=scene, events=events, flattened=ad.concat([scene, flat_blocks], axis=1))

    def encode_frame_times(self, frames: list[Frame]) -> list[Node]:
        # one call per frame: perfbench counts GRU steps per encode_timestamp call (ROADMAP item 1 step A)
        return [encode_timestamp(f.time_seconds, self.time_encoder) for f in frames]

    def prepare_input(self, frames: list[Frame], sentences: list[AsrSentence]) -> PreparedInput:
        """Validate a video and stack its embeddings into the stages' inputs."""
        cfg = self.config
        anchors = align_sentences(frames, sentences)
        sequence = build_sequence(frames, sentences, anchors)

        dtype = cfg.dtype
        # align_sentences proved that every frame has frame 0's token shape
        # and that every sentence's tokens are a 2-D (tokens, width) array
        if frames[0].vision_tokens.shape != (cfg.vision_tokens_per_frame, cfg.dim):
            raise FieldError(
                ("dim", "vision_tokens_per_frame"),
                f"frame vision tokens have shape {frames[0].vision_tokens.shape}, "
                f"expected {(cfg.vision_tokens_per_frame, cfg.dim)}"
            )
        for s in sentences:
            if s.tokens.shape[1] != cfg.dim:
                raise FieldError(
                    ("dim",),
                    f"sentence {s.index} tokens have shape {s.tokens.shape}, "
                    f"expected (tokens, {cfg.dim})"
                )
        vision = Node(
            np.stack([f.vision_tokens for f in frames])[None, ...].astype(dtype, copy=False)
        )
        if sentences:
            asr = Node(np.concatenate([s.tokens for s in sentences])[None, ...].astype(dtype, copy=False))
        else:
            asr = Node(np.zeros((1, 0, cfg.dim), dtype=dtype))
        return PreparedInput(frames, asr, vision, sequence)

    def run_stages(
        self, x: PreparedInput, rerun=STAGES, cached: StageOutputs | None = None
    ) -> StageOutputs:
        """Run the stages named in ``rerun``; every other stage's output is
        taken from ``cached``, the outputs of an earlier run on ``x``."""
        if "fusion" in rerun:
            fused, vision_flat = self.fuse_vision_asr(x.asr, x.vision)
        else:
            fused, vision_flat = cached.fused, cached.vision_flat
        scene = self.aggregate_scene(fused, vision_flat) if "scene" in rerun else cached.scene
        events = self.extract_events(fused, scene, x.vision) if "events" in rerun else cached.events
        times = self.encode_frame_times(x.frames) if "times" in rerun else cached.timestamps
        return StageOutputs(fused, vision_flat, scene, events, times)

    def forward(self, frames: list[Frame], sentences: list[AsrSentence]) -> ForwardResult:
        """Full pipeline from raw frame/sentence embeddings to the
        flattened hierarchical representation (B=1)."""
        x = self.prepare_input(frames, sentences)
        out = self.run_stages(x)
        result = self.assemble(out.scene, out.events, out.timestamps)
        result.sequence = x.sequence
        return result
