"""Central finite-difference verification of the analytic backward pass.

The finite differences come from value-only staged forwards that rerun only
the stages downstream of the checked group, each with the +STEP and -STEP
probes of :func:`chunk_size` scalars stacked on one batch axis.  The chunk
shrinks as the model's output grows, which bounds one forward's memory.
A group's relative errors are computed as one array, and only its worst
scalar is named.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Node
from .compressor import PreparedInput, SpaCompressor, StageOutputs
from .sequence import AsrSentence, Frame

# the check's contract: central differences at STEP must match the
# analytic gradient within relative error TOLERANCE
STEP = 1e-5
TOLERANCE = 1e-4
# floor in the relative-error denominator: below this gradient magnitude
# the comparison degrades to scaled absolute error, which keeps benign
# structural zeros from dividing by noise
REL_ERR_FLOOR = 1e-4
# scalars checked per probe-batched staged forward (see chunk_size): at
# most MAX_CHUNK, and at most CHUNK_BUDGET output values per sign
MAX_CHUNK = 64
CHUNK_BUDGET = 2**17


@dataclass
class GroupReport:
    name: str
    n_params: int
    max_rel_err: float
    worst_param: str
    frozen: bool = False

    def passed(self) -> bool:
        return self.frozen or self.max_rel_err < TOLERANCE


# elementwise, for arrays or scalars, and as silent as Python floats: inf / inf is NaN
@np.errstate(invalid="ignore", over="ignore")
def relative_error(analytic, numeric):
    return np.abs(analytic - numeric) / np.maximum(np.abs(analytic) + np.abs(numeric), REL_ERR_FLOOR)


def chunk_size(out: int, scalars: int) -> int:
    """Scalars checked per staged forward, for a group of ``scalars``
    scalars when one probe's output holds ``out`` values.

    A toy model gets up to MAX_CHUNK, since its forward is mostly fixed
    Python cost.  A larger one gets at most CHUNK_BUDGET // ``out``, so a
    forward's output stays near 2 * CHUNK_BUDGET values, and its
    activations, which also grow with the probe batch times the model's
    size, stay bounded.  The group is then split into that many forwards
    of equal size, so the last one is not a mostly idle full batch.
    """
    most = max(1, min(MAX_CHUNK, CHUNK_BUDGET // out))
    forwards = -(-scalars // most)
    return -(-scalars // forwards)


def batched_losses(
    model: SpaCompressor, x: PreparedInput, cached: StageOutputs, group: str, scalars: list[tuple[int, int]]
) -> np.ndarray:
    """The (+STEP, -STEP) losses of the ``scalars`` of ``group``, one row
    each: a pair (i, k) is flat index k of the group's i-th parameter.
    They run ``chunk`` scalars per staged forward at batch ``probes`` =
    2 * ``chunk``, with ``chunk`` from :func:`chunk_size` of their count
    and one probe's output width, (S + N * (1 + E)) * D.

    Every parameter of the group holds ``probes`` values, stacked on its
    leading axis: row 2j holds scalar j of the chunk at +STEP, row 2j + 1
    at -STEP, and every other row the original value.  The cached stage
    outputs and the prepared inputs are read-only views broadcast to batch
    ``probes``, so batch entry i meets probe i in ``kernels._probe_split``, in
    the query banks and in ``time_encoder.encode_timestamp``, whose (P, D)
    stamps ``SpaCompressor.assemble`` gives one per batch entry.  Each
    probe's loss is its batch entry's sum, the same float computation as a
    full forward with that one perturbation, whatever the chunk size.  The
    original arrays are put back when the sweep ends, also if a stage raises.
    """
    nodes = [node for _, node in model.parameter_groups()[group]]
    originals = [node.value for node in nodes]
    _, n_frames, n_events, d = cached.events.shape
    chunk = chunk_size((cached.scene.shape[1] + n_frames * (1 + n_events)) * d, len(scalars))
    probes = 2 * chunk

    def batch(node: Node) -> Node:
        return Node(np.broadcast_to(node.value, (probes,) + node.shape[1:]))

    bx = PreparedInput(x.frames, batch(x.asr), batch(x.vision), x.sequence)
    bcached = StageOutputs(
        batch(cached.fused), batch(cached.vision_flat), batch(cached.scene), batch(cached.events), cached.timestamps
    )
    stacked = [np.repeat(value[None], probes, axis=0) for value in originals]
    rows = [probe.reshape(probes, -1) for probe in stacked]  # views: (probe, flat index)
    losses = np.empty((len(scalars), 2))
    try:
        for node, probe in zip(nodes, stacked):
            node.value = probe.reshape((-1,) + probe.shape[2:])
        for start in range(0, len(scalars), chunk):
            part = scalars[start : start + chunk]
            for j, (i, k) in enumerate(part):
                original = originals[i].flat[k]
                rows[i][2 * j, k] = original + STEP
                rows[i][2 * j + 1, k] = original - STEP
            out = model.run_stages(bx, model.DOWNSTREAM[group], bcached)
            flat = model.assemble(out.scene, out.events, out.timestamps).flattened.value
            sums = flat.reshape(probes, -1).sum(axis=1).reshape(chunk, 2)
            losses[start : start + len(part)] = sums[: len(part)]
            for j, (i, k) in enumerate(part):
                rows[i][2 * j : 2 * j + 2, k] = originals[i].flat[k]
    finally:
        for node, value in zip(nodes, originals):
            node.value = value
    return losses


def finite_difference_check(
    model: SpaCompressor,
    frames: list[Frame],
    sentences: list[AsrSentence],
    freeze: tuple[str, ...] = (),
) -> list[GroupReport]:
    """Compare analytic gradients of a sum-of-outputs loss against central
    differences for every scalar parameter, grouped by compressor stage.

    Frozen groups are skipped and flagged; they receive no gradient flow.
    The finite-difference losses come from :func:`batched_losses`, the same
    float computation as a full forward.  A group's report holds its largest
    relative error and names that scalar, the first one on a tie.  A
    non-finite error, from a NaN or infinite gradient or loss, is its
    group's worst and fails it, naming the first such scalar.  Float64
    models only: at ``STEP``, float32 round-off swamps the difference.  An
    unknown group in ``freeze``, or a ``freeze`` of every group, is a
    ``ValueError``.
    """
    for group in freeze:
        if group not in model.DOWNSTREAM:
            raise ValueError(
                f"unknown parameter group {group!r}; expected one of {', '.join(model.DOWNSTREAM)}"
            )
    if set(model.DOWNSTREAM) <= set(freeze):
        raise ValueError(f"every parameter group is frozen ({', '.join(model.DOWNSTREAM)}); nothing to check")
    if model.config.precision != "f64":
        raise ValueError(
            f"finite-difference gradcheck needs precision f64, got {model.config.precision}"
        )
    result = model.forward(frames, sentences)
    grads = ad.backward(ad.reduce_sum(result.flattened))
    analytic = {
        group: np.concatenate([grads.get(id(node), np.zeros_like(node.value)).reshape(-1) for _, node in named])
        for group, named in model.parameter_groups().items() if group not in freeze
    }
    # free the recorded graph before the finite-difference sweep; it holds
    # no reference cycles, so dropping these references frees it
    del result, grads

    x = model.prepare_input(frames, sentences)
    reports = []
    with ad.no_grad():
        cached = model.run_stages(x)
        for group, named in model.parameter_groups().items():
            if group in freeze:
                n = sum(node.value.size for _, node in named)
                reports.append(GroupReport(group, n, 0.0, "(frozen)", frozen=True))
                continue
            scalars = [(i, k) for i, (_, node) in enumerate(named) for k in range(node.value.size)]
            losses = batched_losses(model, x, cached, group, scalars)
            errors = relative_error(analytic[group], (losses[:, 0] - losses[:, 1]) / (2.0 * STEP))
            # the first non-finite error, else the first largest; none if every error is 0
            worst = int(np.argmax(np.where(np.isfinite(errors), errors, np.inf)))
            i, k = scalars[worst]
            label = f"{named[i][0]}[{k}]" if errors[worst] != 0 else ""
            reports.append(GroupReport(group, len(scalars), float(errors[worst]), label))
    return reports
