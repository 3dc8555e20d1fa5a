import numpy as np
import pytest

from spa_compressor.goldenio import MAGIC, first_divergence, read_tensor, write_tensor


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_round_trip_preserves_bits(tmp_path, dtype, rng):
    arr = rng.standard_normal((3, 4, 2)).astype(dtype)
    path = tmp_path / "t.spat"
    write_tensor(path, arr)
    back = read_tensor(path)
    assert back.dtype == dtype
    assert back.tobytes() == arr.tobytes()


def test_header_layout(tmp_path):
    path = tmp_path / "t.spat"
    write_tensor(path, np.zeros((2, 5)))
    raw = path.read_bytes()
    assert raw[:4] == MAGIC
    assert int.from_bytes(raw[4:8], "little") == 1  # version
    assert int.from_bytes(raw[8:12], "little") == 8  # element width
    assert int.from_bytes(raw[12:16], "little") == 2  # rank
    assert int.from_bytes(raw[16:20], "little") == 2
    assert int.from_bytes(raw[20:24], "little") == 5


def test_bad_magic_rejected(tmp_path):
    path = tmp_path / "bad.spat"
    path.write_bytes(b"NOPE" + bytes(12))
    with pytest.raises(ValueError, match="bad magic"):
        read_tensor(path)


@pytest.mark.parametrize(
    "offset, message", [(4, "unsupported format version 2"), (8, "invalid element width 2")], ids=["version", "width"]
)
def test_unsupported_header_field_rejected(tmp_path, offset, message):
    path = tmp_path / "t.spat"
    write_tensor(path, np.zeros(3))
    raw = bytearray(path.read_bytes())
    raw[offset : offset + 4] = (2).to_bytes(4, "little")
    path.write_bytes(bytes(raw))
    with pytest.raises(ValueError, match=rf"t\.spat: {message}$"):
        read_tensor(path)


def test_truncated_payload_rejected(tmp_path, rng):
    path = tmp_path / "t.spat"
    write_tensor(path, rng.standard_normal((4, 4)))
    path.write_bytes(path.read_bytes()[:-8])
    with pytest.raises(ValueError, match="payload"):
        read_tensor(path)


@pytest.mark.parametrize("keep", [4, 10, 16, 20])
def test_truncated_header_names_the_file(tmp_path, rng, keep):
    # 4 and 10 bytes cut the fixed header, 16 and 20 the per-axis extents
    path = tmp_path / "t.spat"
    write_tensor(path, rng.standard_normal((2, 3, 4)))
    path.write_bytes(path.read_bytes()[:keep])
    with pytest.raises(ValueError, match=r"t\.spat: truncated header"):
        read_tensor(path)


def test_payload_not_a_whole_number_of_values_rejected(tmp_path, rng):
    path = tmp_path / "t.spat"
    write_tensor(path, rng.standard_normal((4, 4)))
    path.write_bytes(path.read_bytes()[:-3])
    with pytest.raises(ValueError, match=r"t\.spat: payload has 125 bytes"):
        read_tensor(path)


def test_integer_arrays_rejected(tmp_path):
    with pytest.raises(ValueError, match="unsupported dtype"):
        write_tensor(tmp_path / "t.spat", np.arange(4))


def test_first_divergence_reports_first_index(rng):
    a = rng.standard_normal((2, 3))
    b = a.copy()
    assert first_divergence(a, b, 1e-12) is None
    b[1, 2] += 1e-6
    b[0, 1] += 1e-6
    idx, va, vb = first_divergence(a, b, 1e-10)
    assert idx == (0, 1)
    assert va != vb


@pytest.mark.parametrize(
    "stored, fresh", [(np.nan, 1.0), (1.0, np.nan), (np.inf, np.inf), (-np.inf, np.inf)], ids=["nan-stored", "nan-fresh", "inf", "inf-sign"]
)
def test_non_finite_values_diverge(stored, fresh):
    # a NaN difference compares False against the tolerance; it must not pass
    a, b = np.zeros((2, 3)), np.zeros((2, 3))
    a[1, 1], b[1, 1] = stored, fresh
    idx, va, vb = first_divergence(a, b, 1e-10)
    assert idx == (1, 1)
    assert np.array_equal([va, vb], [stored, fresh], equal_nan=True)
