"""In-memory span tracer for the benchmark's traced runs.

While installed, the tracer swaps the public entry points of each
``spa_compressor`` module (as the callers inside the program look them up)
for timing wrappers, counts every autodiff ``Node`` created, and records
each garbage-collector pass through ``gc.callbacks``.  Uninstalling restores
the originals, so untraced requests run the unmodified program.

A span is ``(name, start, end, parent, request, nodes, count)``: perf_counter
seconds, the index of the enclosing span (-1 for none), the request id, the
autodiff nodes created inside it, and a per-span count (GEMM flops for the
kernels, GRU steps for the timestamp encoder, bytes for the writer).  Spans
stay in memory until :meth:`Tracer.write` dumps them at the end of the run.
"""

from __future__ import annotations

import gc
import math
import statistics
import time
from pathlib import Path

import numpy as np

from spa_compressor import autodiff, compressor, goldenio, gradcheck, manifest
from spa_compressor.compressor import SpaCompressor
from spa_compressor.time_encoder import render_time

import bench_workloads

NAME, START, END, PARENT, REQUEST, NODES, COUNT = range(7)

STAGES = (
    "sequence.align",
    "sequence.build",
    "compressor.fusion",
    "compressor.scene",
    "compressor.events",
    "time_encoder.encode",
    "compressor.assembly",
)
# stages whose output depends on each parameter group: the share of an FD
# forward spent in them is the share a stage-cached FD sweep must recompute
DOWNSTREAM = {
    "fusion": ("compressor.fusion", "compressor.scene", "compressor.events", "compressor.assembly"),
    "scene": ("compressor.scene", "compressor.events", "compressor.assembly"),
    "event": ("compressor.events", "compressor.assembly"),
    "time_encoder": ("time_encoder.encode", "compressor.assembly"),
}


# every per-layer metric the traced run reports: name -> (unit, better)
LAYER_METRICS = {
    "compressor.events_ms": ("ms", "lower"),
    "compressor.events_nodes": ("count", "lower"),
    "compressor.fusion_ms": ("ms", "lower"),
    "compressor.fusion_nodes": ("count", "lower"),
    "compressor.scene_ms": ("ms", "lower"),
    "compressor.scene_nodes": ("count", "lower"),
    "compressor.assembly_ms": ("ms", "lower"),
    "compressor.assembly_nodes": ("count", "lower"),
    "compressor.forward_ms": ("ms", "lower"),
    "time_encoder.encode_ms": ("ms", "lower"),
    "time_encoder.nodes": ("count", "lower"),
    "time_encoder.gru_steps": ("count", "lower"),
    "autodiff.graph_nodes": ("count", "lower"),
    "autodiff.graph_mb": ("MiB", "lower"),
    "autodiff.vjp_edges": ("count", "lower"),
    "autodiff.backward_ms": ("ms", "lower"),
    "python.gc_ms": ("ms", "lower"),
    "python.gc_collections": ("count", "lower"),
    "kernels.layer_norm_ms": ("ms", "lower"),
    "kernels.layer_norm_calls": ("count", "lower"),
    "kernels.attention_ms": ("ms", "lower"),
    "kernels.attention_calls": ("count", "lower"),
    "kernels.ffn_ms": ("ms", "lower"),
    "kernels.ffn_calls": ("count", "lower"),
    "kernels.gflop": ("GFLOP", "lower"),
    "kernels.achieved_gflops": ("GFLOP/s", "higher"),
    "blas.peak_gflops": ("GFLOP/s", "higher"),
    "blas.peak_gflops_f64": ("GFLOP/s", "higher"),
    "blas.peak_gflops_f32": ("GFLOP/s", "higher"),
    "sequence.align_ms": ("ms", "lower"),
    "manifest.read_ms": ("ms", "lower"),
    "goldenio.write_ms": ("ms", "lower"),
    "goldenio.bytes": ("B", "lower"),
    "fitting.update_ms": ("ms", "lower"),
    "gradcheck.analytic_ms": ("ms", "lower"),
    "gradcheck.fd_forwards": ("count", "lower"),
    "gradcheck.fusion_s": ("s", "lower"),
    "gradcheck.scene_s": ("s", "lower"),
    "gradcheck.event_s": ("s", "lower"),
    "gradcheck.time_encoder_s": ("s", "lower"),
    "gradcheck.recompute_useful_frac": ("ratio", "higher"),
    "trace.overhead_pct": ("%", "lower"),
    "trace.stage_coverage": ("ratio", "higher"),
    "trace.stage_coverage_p01": ("ratio", "higher"),
    "trace.spans": ("count", "lower"),
}


def _attention_flops(q, kv, p, *args, **kwargs) -> int:
    batch, lq, d = q.shape
    lk = kv.shape[1]
    # q and output projections, k and v projections, scores and weighted sum
    return 2 * batch * (2 * lq * d * d + 2 * lk * d * d + 2 * lq * lk * d)


def _self_attention_flops(x, p, *args, **kwargs) -> int:
    return _attention_flops(x, x, p)


def _ffn_flops(x, p) -> int:
    d, hidden = p.w1.shape
    return 4 * math.prod(x.shape[:-1]) * d * hidden


def _gru_steps(t, p) -> int:
    return len(render_time(t))


def _tensor_bytes(path, array) -> int:
    return int(np.asarray(array).nbytes)


# (owner, attribute, span name, per-call count); kernels are wrapped where
# compressor looks them up, so only the calls compressor makes are traced
TARGETS = (
    (compressor, "align_sentences", "sequence.align", None),
    (compressor, "build_sequence", "sequence.build", None),
    (compressor, "layer_norm", "kernels.layer_norm", None),
    (compressor, "cross_attention", "kernels.attention", _attention_flops),
    (compressor, "self_attention", "kernels.attention", _self_attention_flops),
    (compressor, "ffn", "kernels.ffn", _ffn_flops),
    (compressor, "encode_timestamp", "time_encoder.gru", _gru_steps),
    (SpaCompressor, "forward", "compressor.forward", None),
    (SpaCompressor, "fuse_vision_asr", "compressor.fusion", None),
    (SpaCompressor, "aggregate_scene", "compressor.scene", None),
    (SpaCompressor, "extract_events", "compressor.events", None),
    (SpaCompressor, "encode_frame_times", "time_encoder.encode", None),
    (SpaCompressor, "assemble", "compressor.assembly", None),
    (autodiff, "backward", "autodiff.backward", None),
    (manifest, "read_video", "manifest.read", None),
    (goldenio, "write_tensor", "goldenio.write", _tensor_bytes),
    (gradcheck, "finite_difference_check", "gradcheck.check", None),
    (bench_workloads.TrainGlobal, "sgd_update", "fitting.update", None),
)


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []
        self.stack: list[int] = []
        self.request = -1
        self.nodes = 0
        self.requests: dict[int, str] = {}  # request id -> label (the FD group on verify-toy)
        self._saved: list[tuple[object, str, object]] = []
        self._gc_start = 0.0

    # ----- recording -------------------------------------------------

    def wrap(self, name, fn, count=None):
        spans, stack, clock = self.spans, self.stack, time.perf_counter
        tracer = self

        def traced(*args, **kwargs):
            n = 0 if count is None else count(*args, **kwargs)
            parent = stack[-1] if stack else -1
            idx = len(spans)
            spans.append(None)
            stack.append(idx)
            nodes = tracer.nodes
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                # a tuple of atomic values, which the collector stops tracking,
                # so a long trace does not slow the program's own gc passes
                spans[idx] = (name, start, end, parent, tracer.request, tracer.nodes - nodes, n)

        traced.__wrapped__ = fn
        return traced

    def run_request(self, request: int, label: str, fn, *args):
        """Run ``fn(*args)`` as request ``request`` under a root span."""
        self.request = request
        self.requests[request] = label
        return self.wrap("request", fn)(*args)

    def _on_gc(self, phase, info):
        now = time.perf_counter()
        if phase == "start":
            self._gc_start = now
        else:
            parent = self.stack[-1] if self.stack else -1
            self.spans.append(("python.gc", self._gc_start, now, parent, self.request, 0, 1))

    def install(self) -> None:
        if self._saved:
            return
        for owner, attr, name, count in TARGETS:
            original = getattr(owner, attr)
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self.wrap(name, original, count))
        node_init = autodiff.Node.__init__
        tracer = self

        def counting_init(node, *args, **kwargs):
            tracer.nodes += 1
            node_init(node, *args, **kwargs)

        self._saved.append((autodiff.Node, "__init__", node_init))
        autodiff.Node.__init__ = counting_init
        gc.callbacks.append(self._on_gc)

    def uninstall(self) -> None:
        if not self._saved:
            return
        gc.callbacks.remove(self._on_gc)
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            fh.write("id,parent,request,name,start_s,end_s,nodes,count\n")
            for i, s in enumerate(self.spans):
                fh.write(f"{i},{s[PARENT]},{s[REQUEST]},{s[NAME]},{s[START]:.9f},{s[END]:.9f},{s[NODES]},{s[COUNT]}\n")

    # ----- aggregation -----------------------------------------------

    def layer_metrics(self, graphs) -> dict[str, float]:
        """Per-layer metrics, as means per forward pass unless named otherwise."""
        spans = self.spans
        time_by: dict[str, float] = {}
        nodes_by: dict[str, int] = {}
        calls_by: dict[str, int] = {}
        count_by: dict[str, int] = {}
        child_time: dict[int, dict[str, float]] = {}
        for s in spans:
            name, dur = s[NAME], s[END] - s[START]
            time_by[name] = time_by.get(name, 0.0) + dur
            nodes_by[name] = nodes_by.get(name, 0) + s[NODES]
            calls_by[name] = calls_by.get(name, 0) + 1
            count_by[name] = count_by.get(name, 0) + s[COUNT]
            if s[PARENT] >= 0 and spans[s[PARENT]][NAME] == "compressor.forward":
                per = child_time.setdefault(s[PARENT], {})
                per[name] = per.get(name, 0.0) + dur

        forwards = [i for i, s in enumerate(spans) if s[NAME] == "compressor.forward"]
        nf = max(len(forwards), 1)

        def ms(name):
            return 1e3 * time_by.get(name, 0.0) / nf

        def per_forward(table, name):
            return table.get(name, 0) / nf

        m: dict[str, float] = {}
        for stage in ("fusion", "scene", "events", "assembly"):
            m[f"compressor.{stage}_ms"] = ms(f"compressor.{stage}")
            m[f"compressor.{stage}_nodes"] = per_forward(nodes_by, f"compressor.{stage}")
        m["compressor.forward_ms"] = ms("compressor.forward")
        m["time_encoder.encode_ms"] = ms("time_encoder.encode")
        m["time_encoder.nodes"] = per_forward(nodes_by, "time_encoder.encode")
        m["time_encoder.gru_steps"] = per_forward(count_by, "time_encoder.gru")

        m["autodiff.graph_nodes"] = m["autodiff.graph_mb"] = m["autodiff.vjp_edges"] = 0.0
        if graphs:
            m["autodiff.graph_nodes"] = statistics.fmean(g[0] for g in graphs)
            m["autodiff.graph_mb"] = statistics.fmean(g[1] for g in graphs) / 2**20
            m["autodiff.vjp_edges"] = statistics.fmean(g[2] for g in graphs)
        m["autodiff.backward_ms"] = ms("autodiff.backward")

        m["python.gc_ms"] = ms("python.gc")
        m["python.gc_collections"] = per_forward(calls_by, "python.gc")

        gemm_s = time_by.get("kernels.attention", 0.0) + time_by.get("kernels.ffn", 0.0)
        gemm_flop = count_by.get("kernels.attention", 0) + count_by.get("kernels.ffn", 0)
        for kernel in ("layer_norm", "attention", "ffn"):
            m[f"kernels.{kernel}_ms"] = ms(f"kernels.{kernel}")
            m[f"kernels.{kernel}_calls"] = per_forward(calls_by, f"kernels.{kernel}")
        m["kernels.gflop"] = gemm_flop / nf / 1e9
        m["kernels.achieved_gflops"] = gemm_flop / gemm_s / 1e9 if gemm_s else 0.0

        m["sequence.align_ms"] = ms("sequence.align") + ms("sequence.build")
        m["manifest.read_ms"] = ms("manifest.read")
        m["goldenio.write_ms"] = ms("goldenio.write")
        m["goldenio.bytes"] = per_forward(count_by, "goldenio.write")
        m["fitting.update_ms"] = ms("fitting.update")

        m.update(self._gradcheck_metrics(forwards, child_time))

        # share of each forward span that its stage spans cover
        covered = [sum(d for n, d in child_time.get(i, {}).items() if n in STAGES) for i in forwards]
        total = [spans[i][END] - spans[i][START] for i in forwards]
        m["trace.stage_coverage"] = sum(covered) / sum(total) if forwards else 0.0
        shares = sorted(c / t for c, t in zip(covered, total))
        m["trace.stage_coverage_p01"] = shares[len(shares) // 100] if shares else 0.0
        m["trace.spans"] = float(len(spans))
        return m

    def _gradcheck_metrics(self, forwards, child_time) -> dict[str, float]:
        spans = self.spans
        checks = [i for i, s in enumerate(spans) if s[NAME] == "gradcheck.check"]
        m = {f"gradcheck.{g}_s": 0.0 for g in bench_workloads.GROUPS}
        analytic, fd_forwards, useful = [], 0, []
        first_backward_end: dict[int, float] = {}
        for s in spans:
            if s[NAME] == "autodiff.backward" and s[REQUEST] not in first_backward_end:
                first_backward_end[s[REQUEST]] = s[END]
        for i in checks:
            s = spans[i]
            group = self.requests.get(s[REQUEST], "")
            m[f"gradcheck.{group}_s"] = m.get(f"gradcheck.{group}_s", 0.0) + s[END] - s[START]
            if s[REQUEST] in first_backward_end:
                analytic.append(first_backward_end[s[REQUEST]] - s[START])
        analytic_forward_seen: set[int] = set()
        for i in forwards:
            request = spans[i][REQUEST]
            group = self.requests.get(request, "")
            if group not in DOWNSTREAM:
                continue
            if request not in analytic_forward_seen:  # a check's first forward is the analytic one
                analytic_forward_seen.add(request)
                continue
            fd_forwards += 1
            dur = spans[i][END] - spans[i][START]
            stages = child_time.get(i, {})
            useful.append(sum(stages.get(n, 0.0) for n in DOWNSTREAM[group]) / dur)
        m["gradcheck.analytic_ms"] = 1e3 * statistics.fmean(analytic) if analytic else 0.0
        m["gradcheck.fd_forwards"] = float(fd_forwards)
        m["gradcheck.recompute_useful_frac"] = statistics.fmean(useful) if useful else 0.0
        return m


def gemm_peak_gflops(dtype, n: int = 256, repeats: int = 7) -> float:
    """Best single-call GFLOP/s of an n x n x n GEMM (BLAS pinned to one thread)."""
    rng = np.random.default_rng(0)
    a = rng.standard_normal((n, n)).astype(dtype)
    b = rng.standard_normal((n, n)).astype(dtype)
    a @ b
    best = math.inf
    for _ in range(repeats):
        t0 = time.perf_counter()
        a @ b
        best = min(best, time.perf_counter() - t0)
    return 2 * n**3 / best / 1e9
