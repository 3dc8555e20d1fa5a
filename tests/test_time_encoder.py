import numpy as np
import pytest

from oracles import naive_encode_timestamp

from spa_compressor import autodiff as ad
from spa_compressor.time_encoder import (
    TimeEncoderParams,
    encode_timestamp,
    render_time,
    time_encoder_params,
)


def test_rendering_uses_one_decimal_place():
    assert render_time(3.0) == "3.0"
    assert render_time(30.0) == "30.0"
    assert render_time(71.25) == "71.2"
    assert render_time(0) == "0.0"


@pytest.mark.parametrize("bad", [-1.0, -0.001, float("nan"), float("inf"), 1e6])
def test_invalid_times_are_errors(bad):
    with pytest.raises(ValueError):
        render_time(bad)


def test_encoding_is_deterministic():
    p = time_encoder_params(8, np.random.default_rng(5))
    a = encode_timestamp(12.3, p)
    b = encode_timestamp(12.3, p)
    np.testing.assert_array_equal(a.value, b.value)


def test_same_digits_different_magnitude_separate():
    # measured over 100 random initializations: 3.0s and 30.0s must land
    # on visibly different embeddings every time
    for seed in range(100):
        p = time_encoder_params(6, np.random.default_rng(seed))
        a = encode_timestamp(3.0, p).value
        b = encode_timestamp(30.0, p).value
        assert np.abs(a - b).max() > 1e-6, f"collision at seed {seed}"


def test_output_shape_and_finiteness():
    p = time_encoder_params(10, np.random.default_rng(3))
    out = encode_timestamp(99999.9, p)
    assert out.shape == (10,)
    assert np.isfinite(out.value).all()


@pytest.mark.parametrize("t", [0.0, 3.0, 47.3, 71.25, 99999.9])
def test_matches_scalar_loop_oracle(t):
    p = time_encoder_params(6, np.random.default_rng(23))
    expected = naive_encode_timestamp(t, *(node.value for _, node in ad.named_parameters(p)))
    np.testing.assert_allclose(encode_timestamp(t, p).value, expected, rtol=0, atol=1e-12)


@pytest.mark.parametrize("t", [47.3, 11.1])
def test_gradients_match_finite_differences(t):
    p = time_encoder_params(5, np.random.default_rng(11))
    out = encode_timestamp(t, p)
    grads = ad.backward(ad.reduce_sum(out))

    def loss():
        return float(encode_timestamp(t, p).value.sum())

    for name, node in ad.named_parameters(p):
        flat = node.value.reshape(-1)
        analytic = ad.grad_of(grads, node).reshape(-1)
        for k in range(flat.size):
            orig = flat[k]
            flat[k] = orig + 1e-5
            plus = loss()
            flat[k] = orig - 1e-5
            minus = loss()
            flat[k] = orig
            numeric = (plus - minus) / 2e-5
            denom = max(abs(analytic[k]) + abs(numeric), 1e-4)
            assert abs(analytic[k] - numeric) / denom < 1e-4, f"{name}[{k}]"


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize("t", [0.0, 7.5, 73.5, 999999.9])
def test_stacked_probe_values_match_one_call_per_probe(dtype, t):
    # the gradient check's probe path: P parameter sets stacked on each
    # parameter's leading axis give one (P, D) leaf, row i bit-identical to
    # the call on set i
    rng = np.random.default_rng(31)
    base = ad.named_parameters(time_encoder_params(6, rng, dtype))
    sets = [
        TimeEncoderParams(**{name: ad.Node(node.value + dtype(0.01) * rng.standard_normal(node.shape).astype(dtype))
                             for name, node in base})
        for _ in range(3)
    ]
    stacked = TimeEncoderParams(**{
        name: ad.Node(np.concatenate([getattr(s, name).value for s in sets])) for name, _ in base
    })
    assert ad.recording()
    out = encode_timestamp(t, stacked)
    assert out.shape == (3, 6) and out.value.dtype == dtype
    assert out.parents == ()
    for i, params in enumerate(sets):
        assert np.array_equal(out.value[i], encode_timestamp(t, params).value), i
