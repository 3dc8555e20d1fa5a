"""Central finite-difference verification of the analytic backward pass."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .compressor import PreparedInput, SpaCompressor, StageOutputs
from .sequence import AsrSentence, Frame

DEFAULT_STEP = 1e-5
DEFAULT_TOLERANCE = 1e-4
# floor in the relative-error denominator: below this gradient magnitude
# the comparison degrades to scaled absolute error, which keeps benign
# structural zeros from dividing by noise
REL_ERR_FLOOR = 1e-4


@dataclass
class GroupReport:
    name: str
    n_params: int
    max_rel_err: float
    worst_param: str
    frozen: bool = False

    def passed(self, tolerance: float) -> bool:
        return self.frozen or self.max_rel_err < tolerance


def relative_error(analytic: float, numeric: float) -> float:
    return abs(analytic - numeric) / max(abs(analytic) + abs(numeric), REL_ERR_FLOOR)


def staged_sum_loss(model: SpaCompressor, x: PreparedInput, cached: StageOutputs, group: str) -> float:
    """The check's sum-of-outputs loss after parameter group ``group`` has
    changed since ``cached = model.run_stages(x)``: only the stages
    downstream of ``group`` rerun."""
    out = model.run_stages(x, model.DOWNSTREAM[group], cached)
    return float(model.assemble(out.scene, out.events, out.timestamps).flattened.value.sum())


def finite_difference_check(
    model: SpaCompressor,
    frames: list[Frame],
    sentences: list[AsrSentence],
    step: float = DEFAULT_STEP,
    freeze: tuple[str, ...] = (),
) -> list[GroupReport]:
    """Compare analytic gradients of a sum-of-outputs loss against central
    differences for every scalar parameter, grouped by compressor stage.

    Frozen groups are skipped and flagged; they receive no gradient flow.
    Each finite-difference loss reruns, value-only, only the stages
    downstream of the perturbed group and reuses the others' outputs, so it
    is the same float computation as a full forward.  Float64 models only:
    at the default step, float32 round-off swamps the difference.  A step
    that is not finite and positive, or an unknown group in ``freeze``, is a
    ``ValueError``.
    """
    if not (math.isfinite(step) and step > 0):
        raise ValueError(f"finite-difference step must be finite and positive, got {step}")
    model.check_groups(freeze)
    if model.config.precision != "f64":
        raise ValueError(
            f"finite-difference gradcheck needs precision f64, got {model.config.precision}"
        )
    result = model.forward(frames, sentences)
    grads = ad.backward(ad.reduce_sum(result.flattened))
    analytic_grads = {
        id(node): np.array(grads.get(id(node), np.zeros_like(node.value)))
        for _, named in model.parameter_groups().items()
        for _, node in named
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
            worst_err, worst_param, count = 0.0, "", 0
            for name, node in named:
                flat_value = node.value.reshape(-1)
                flat_grad = analytic_grads[id(node)].reshape(-1)
                for k in range(flat_value.size):
                    original = flat_value[k]
                    flat_value[k] = original + step
                    plus = staged_sum_loss(model, x, cached, group)
                    flat_value[k] = original - step
                    minus = staged_sum_loss(model, x, cached, group)
                    flat_value[k] = original
                    numeric = (plus - minus) / (2.0 * step)
                    err = relative_error(float(flat_grad[k]), numeric)
                    if err > worst_err:
                        worst_err, worst_param = err, f"{name}[{k}]"
                    count += 1
            reports.append(GroupReport(group, count, worst_err, worst_param))
    return reports
