"""The three benchmark workloads: compress-long, train-global, verify-toy.

Each workload is a closed loop driven by one caller: ``setup()`` builds the
model and every input from the workload seed, then ``request(i)`` runs one
operation, times it, checks its output and returns a :class:`Outcome`.
Checks run outside the timed region.  The program only ever receives inputs
made by ``synthetic.generate`` and parameters made by ``SpaCompressor``.

Calls into the program go through module attributes (``manifest.read_video``
rather than a bare ``read_video``) so that the traced run's wrappers see them.
"""

from __future__ import annotations

import math
import struct
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from spa_compressor import autodiff, goldenio, gradcheck, manifest
from spa_compressor.compressor import MODE_FRAME, MODE_GLOBAL, CompressorConfig, SpaCompressor
from spa_compressor.synthetic import SyntheticVideoSpec, generate

# paper scale (D=64, H=8, S=64, E=32, L_s=L_e=2, L_v=16)
PAPER = dict(
    dim=64,
    heads=8,
    scene_tokens=64,
    event_tokens=32,
    scene_layers=2,
    event_layers=2,
    vision_tokens_per_frame=16,
)
# the Tier-1 toy gradcheck setup (tests/conftest.py TOY_CONFIG / TOY_VIDEO)
# with its seeds left to the workload seed
TOY = dict(
    dim=8,
    heads=2,
    scene_tokens=2,
    event_tokens=2,
    scene_layers=1,
    event_layers=1,
    vision_tokens_per_frame=2,
)
TOY_FRAMES, TOY_SENTENCES = 2, 1

COMPRESS_FRAMES, COMPRESS_SENTENCES = 64, 32
# compress-long serves videos from a fixed pool whose reference outputs are
# stored in reference.npz; the workload seed picks the order they are sent in
COMPRESS_POOL = 8
COMPRESS_MODEL_SEED = 20260
COMPRESS_VIDEO_SEED_BASE = 5100

TRAIN_FRAMES, TRAIN_SENTENCES = 16, 8
TRAIN_LEARNING_RATE = 0.05  # fitting.FitConfig's default

GOLDEN_TOLERANCE = {"f64": 1e-10, "f32": 1e-5}
GLOBAL_INVARIANT_TOLERANCE = 1e-12
FD_TOLERANCE = 1e-4
GROUPS = ("fusion", "scene", "event", "time_encoder")

REFERENCE_PATH = Path(__file__).with_name("reference.npz")


@dataclass
class Outcome:
    units: int  # frames, steps or FD-checked scalars
    seconds: float  # timed region only
    error: str | None = None  # why the output check failed


def output_tokens(config: CompressorConfig, n_frames: int) -> int:
    return config.scene_tokens + n_frames * (1 + config.event_tokens)


def check_shape(out: np.ndarray, config: CompressorConfig, n_frames: int) -> str | None:
    expected = (1, output_tokens(config, n_frames), config.dim)
    if out.shape != expected:
        return f"output shape {out.shape}, shape law gives {expected}"
    return None


def sketch(out: np.ndarray, signs: np.ndarray) -> np.ndarray:
    """Project each output token onto fixed +-1 directions: (T, D) -> (T, k).

    If every element is within tol of the reference, every projection is
    within D * tol, so comparing sketches at D * tol never rejects an output
    the element-wise golden check would accept.
    """
    return out[0].astype(np.float64) @ signs


def compare_sketch(out: np.ndarray, reference: np.ndarray, signs: np.ndarray, tol: float) -> str | None:
    got = sketch(out, signs)
    if got.shape != reference.shape:
        return f"sketch shape {got.shape} differs from reference {reference.shape}"
    limit = signs.shape[0] * tol
    diff = np.abs(got - reference)
    if not np.all(diff <= limit):  # also catches NaN
        row = int(np.argmax(np.where(np.isnan(diff), np.inf, diff)) // diff.shape[1])
        return f"output token {row} differs from reference by {float(np.nanmax(diff)):.3e} > {limit:.1e}"
    return None


def read_spat(path: Path) -> np.ndarray:
    """Parse a SPAT file without goldenio, so the check does not trust the
    writer it is checking."""
    data = path.read_bytes()
    if data[:4] != b"SPAT":
        raise ValueError(f"{path}: not a SPAT file")
    _, width, rank = struct.unpack_from("<III", data, 4)
    shape = struct.unpack_from(f"<{rank}I", data, 16)
    dtype = {4: "<f4", 8: "<f8"}[width]
    return np.frombuffer(data, dtype=dtype, offset=16 + 4 * rank).reshape(shape)


def graph_stats(root) -> tuple[int, int, int]:
    """(nodes, bytes of the distinct buffers node values hold, VJP edges)
    of ``root``'s graph; views count once, through the buffer they share."""
    seen = {id(root)}
    stack = [root]
    buffers: dict[int, int] = {}
    edges = 0
    while stack:
        node = stack.pop()
        base = node.value
        while isinstance(base.base, np.ndarray):
            base = base.base
        buffers[id(base)] = base.nbytes
        edges += len(node.vjps)
        for parent in node.parents:
            if id(parent) not in seen:
                seen.add(id(parent))
                stack.append(parent)
    return len(seen), sum(buffers.values()), edges


class Workload:
    """Shared bookkeeping: with ``trace`` set, each request walks its output
    graph (outside the timed region) and appends the stats to ``graphs``."""

    latency_per_unit = False  # op_p50_ms per request, not per unit
    trace_requests = 0  # the traced run serves this many requests; 0: as long as the untraced one
    overhead_pairs = 0  # untraced/traced pairs of overhead_unit() for trace.overhead_pct

    def __init__(self, trace: bool = False):
        self.trace = trace
        self.graphs: list[tuple[int, int, int]] = []

    def note_graph(self, root) -> None:
        if self.trace:
            self.graphs.append(graph_stats(root))

    def label(self, i: int) -> str:
        """What request ``i`` works on, for the trace."""
        return self.name

    def overhead_unit(self, i: int) -> float:
        """One unit of work for measuring the tracer's overhead."""
        return self.request(i).seconds


def workload_rng(seed: int, name: str) -> np.random.Generator:
    return np.random.default_rng([seed, sum(map(ord, name))])


class CompressLong(Workload):
    """Value-only ``spa run`` path on long paper-scale videos:
    ``manifest.read_video`` -> ``SpaCompressor.forward`` -> ``goldenio.write_tensor``."""

    name = "compress-long"
    operation = "video"
    overhead_pairs = 4
    precision = "f64"

    def __init__(self, seed: int, workdir: Path, trace: bool = False, reference_path: Path = REFERENCE_PATH):
        super().__init__(trace)
        self.order = [int(k) for k in workload_rng(seed, self.name).permutation(COMPRESS_POOL)]
        self.workdir = workdir
        self.reference_path = reference_path

    @staticmethod
    def config() -> CompressorConfig:
        return CompressorConfig(**PAPER, mode=MODE_FRAME, precision="f64", seed=COMPRESS_MODEL_SEED)

    @staticmethod
    def pool_video(k: int):
        return generate(
            SyntheticVideoSpec(
                COMPRESS_FRAMES,
                COMPRESS_SENTENCES,
                PAPER["vision_tokens_per_frame"],
                PAPER["dim"],
                seed=COMPRESS_VIDEO_SEED_BASE + k,
            )
        )

    def setup(self) -> None:
        with np.load(self.reference_path) as ref:
            self.signs = ref["signs"]
            self.references = {k: ref[f"video_{k}"] for k in self.order}
        self.model = SpaCompressor(self.config())
        self.manifests = {}
        for k in self.order:
            frames, sentences = self.pool_video(k)
            self.manifests[k] = manifest.write_video(self.workdir / f"video_{k}", frames, sentences)
        self.out_path = self.workdir / "out.spat"
        self.request(0)  # warm-up

    def request(self, i: int) -> Outcome:
        k = self.order[i % len(self.order)]
        t0 = time.perf_counter()
        frames, sentences = manifest.read_video(self.manifests[k])
        result = self.model.forward(frames, sentences)
        goldenio.write_tensor(self.out_path, result.flattened.value)
        elapsed = time.perf_counter() - t0
        self.note_graph(result.flattened)
        written = read_spat(self.out_path)
        error = check_shape(written, self.model.config, len(frames)) or compare_sketch(
            written, self.references[k], self.signs, GOLDEN_TOLERANCE[self.precision]
        )
        return Outcome(len(frames), elapsed, error)


class TrainGlobal(Workload):
    """One SGD step per request on the global-context, f32 model: forward,
    MSE against a fixed seeded target, ``autodiff.backward``, update; the same
    calls ``fitting.fit`` makes."""

    name = "train-global"
    operation = "training step"
    overhead_pairs = 12
    precision = "f32"

    def __init__(self, seed: int, workdir: Path, trace: bool = False):
        super().__init__(trace)
        rng = workload_rng(seed, self.name)
        self.model_seed, self.video_seed, self.target_seed = (int(x) for x in rng.integers(0, 2**31, 3))

    def setup(self) -> None:
        config = CompressorConfig(**PAPER, mode=MODE_GLOBAL, precision="f32", seed=self.model_seed)
        self.model = SpaCompressor(config)
        self.frames, self.sentences = generate(
            SyntheticVideoSpec(
                TRAIN_FRAMES, TRAIN_SENTENCES, config.vision_tokens_per_frame, config.dim, seed=self.video_seed
            )
        )
        shape = (1, output_tokens(config, TRAIN_FRAMES), config.dim)
        target = np.random.default_rng(self.target_seed).standard_normal(shape).astype(config.dtype)
        self.target = autodiff.Node(target)
        self.trainable = [node for _, node in self.model.parameters()]
        self.request(0)  # warm-up

    def sgd_update(self, grads) -> None:
        for node in self.trainable:
            g = grads.get(id(node))
            if g is not None:
                node.value -= TRAIN_LEARNING_RATE * g

    def request(self, i: int) -> Outcome:
        t0 = time.perf_counter()
        result = self.model.forward(self.frames, self.sentences)
        diff = result.flattened - self.target
        loss = autodiff.reduce_mean(diff * diff)
        grads = autodiff.backward(loss)
        self.sgd_update(grads)
        elapsed = time.perf_counter() - t0
        self.note_graph(result.flattened)
        out = result.flattened.value
        error = check_shape(out, self.model.config, TRAIN_FRAMES)
        if error is None and not math.isfinite(float(loss.value)):
            error = f"loss is not finite: {float(loss.value)}"
        if error is None:
            error = self._check_global_invariant(out)
        return Outcome(1, elapsed, error)

    def _check_global_invariant(self, out: np.ndarray) -> str | None:
        cfg = self.model.config
        width = 1 + cfg.event_tokens
        frames = out[0, cfg.scene_tokens :].reshape(TRAIN_FRAMES, width, cfg.dim)
        events = frames[:, 1:].astype(np.float64)  # drop the timestamp token
        spread = float(np.max(np.abs(events - events[0])))
        if not spread <= GLOBAL_INVARIANT_TOLERANCE:
            return f"global-context event blocks differ across frames by {spread:.3e}"
        return None


class VerifyToy(Workload):
    """The Tier-1 toy finite-difference gradcheck.  One request checks one
    parameter group with ``gradcheck.finite_difference_check`` (the other
    three frozen); requests rotate through the four groups."""

    name = "verify-toy"
    operation = "group check"
    # a group check holds hundreds of FD scalars, so latency is per scalar
    latency_per_unit = True
    # the traced run is exactly one sweep over the four groups
    trace_requests = len(GROUPS)
    overhead_pairs = 300
    precision = "f64"

    def __init__(self, seed: int, workdir: Path, trace: bool = False):
        super().__init__(trace)
        rng = workload_rng(seed, self.name)
        self.model_seed, self.video_seed = (int(x) for x in rng.integers(0, 2**31, 2))
        self.first_group = int(rng.integers(len(GROUPS)))

    def setup(self) -> None:
        self.model = SpaCompressor(CompressorConfig(**TOY, seed=self.model_seed))
        self.frames, self.sentences = generate(
            SyntheticVideoSpec(
                TOY_FRAMES, TOY_SENTENCES, TOY["vision_tokens_per_frame"], TOY["dim"], seed=self.video_seed
            )
        )
        self.sizes = {
            group: sum(node.value.size for _, node in named)
            for group, named in self.model.parameter_groups().items()
        }
        # warm-up: the analytic side of the check, one recorded forward and backward
        result = self.model.forward(self.frames, self.sentences)
        autodiff.backward(autodiff.reduce_sum(result.flattened))
        self.note_graph(result.flattened)  # the FD sweep's forwards build this same graph
        self.baseline = result.flattened.value.copy()

    def group(self, i: int) -> str:
        return GROUPS[(self.first_group + i) % len(GROUPS)]

    label = group

    def request(self, i: int) -> Outcome:
        group = self.group(i)
        freeze = tuple(g for g in GROUPS if g != group)
        t0 = time.perf_counter()
        reports = gradcheck.finite_difference_check(self.model, self.frames, self.sentences, freeze=freeze)
        elapsed = time.perf_counter() - t0
        checked = [r for r in reports if not r.frozen]
        error = None
        if [r.name for r in checked] != [group]:
            error = f"expected only group {group} to be checked, got {[r.name for r in checked]}"
        elif checked[0].n_params != self.sizes[group]:
            error = f"group {group}: checked {checked[0].n_params} of {self.sizes[group]} scalars"
        elif not checked[0].max_rel_err < FD_TOLERANCE:
            r = checked[0]
            error = f"group {group}: max relative error {r.max_rel_err:.3e} at {r.worst_param}"
        return Outcome(self.sizes[group], elapsed, error)

    def overhead_unit(self, i: int) -> float:
        """One value forward, the unit the FD sweep is made of."""
        t0 = time.perf_counter()
        out = self.model.forward(self.frames, self.sentences).flattened.value
        elapsed = time.perf_counter() - t0
        if not np.array_equal(out, self.baseline):
            raise RuntimeError("toy forward is not deterministic")
        return elapsed


WORKLOADS = {w.name: w for w in (CompressLong, TrainGlobal, VerifyToy)}
