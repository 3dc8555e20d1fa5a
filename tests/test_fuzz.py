"""Fuzz the input edge: mutated SPAT files, manifests and INI files.

Each example corrupts one input of a toy video or config, or sets one value
of a video tensor near a numeric limit, and runs the CLI in-process, in
either precision.  Whatever the corruption, the command either succeeds
(exit 0, nothing on stderr and no warning) or fails cleanly: exit 1 or 2
with exactly one ``error:`` line on stderr and no traceback.
``golden verify`` may also report a snapshot mismatch, which is a check
failure (exit 1, ``FAIL`` on stdout, nothing on stderr) rather than an
input error.
"""

import io
import math
import shutil
import tempfile
import warnings
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spa_compressor.cli import main
from spa_compressor.goldenio import read_tensor, write_tensor
from spa_compressor.manifest import write_video
from spa_compressor.synthetic import SyntheticVideoSpec, generate

from test_cli import COMPRESSOR_INI, GOLDEN_CASE

# golden manifests are INI files too; two small cases keep each verify fast
GOLDEN_INI = GOLDEN_CASE.replace("[case:toy]", "[case:a]") + "video_frames = 2\n" + (
    GOLDEN_CASE.replace("[case:toy]", "[case:b]") + "mode = global-context\nvideo_frames = 1\n"
)

# replacement fields and values: numbers at and beyond the valid ranges,
# other record kinds, other files of the video, and garbage; all numbers
# stay small so that no mutation asks for a large model
TOKENS = [
    "", "0", "1", "2", "3", "4", "8", "16", "-1", "1.5", "1e6", "nan", "inf", "-inf",
    "frame", "sentence", "x", "frame_00000.spat", "sentence_00001.spat", "video.manifest",
    "missing.spat", ".", "global-context", "frame-conditioned", "f32", "f64", "f16",
]
GARBAGE = st.text(alphabet="ab=[]#;:% \t\\", max_size=6)
FIELD = st.one_of(st.sampled_from(TOKENS), GARBAGE)

# tensor values at and around each limit an input value meets: the bound
# that keeps layer norm's sum of squares over the toy width 8 finite in
# float32, the float32 cast and the float64 range (beyond it: infinity)
LIMITS = [math.sqrt(float(np.finfo(np.float32).max) / 32), float(np.finfo(np.float32).max),
          float(np.finfo(np.float64).max)]
VALUE = st.builds(
    lambda limit, factor, sign: sign * limit * factor,
    st.sampled_from(LIMITS), st.sampled_from([0.5, 1 - 1e-6, 1.0, 1 + 1e-6, 2.0]), st.sampled_from([1.0, -1.0]),
)


@pytest.fixture(scope="module")
def pristine(tmp_path_factory):
    """A toy video, its run config and a golden manifest with its snapshots."""
    root = tmp_path_factory.mktemp("pristine")
    write_video(root / "video", *generate(SyntheticVideoSpec(3, 2, 2, 8, seed=4)))
    (root / "config.ini").write_text(COMPRESSOR_INI)
    (root / "golden.ini").write_text(GOLDEN_INI)
    emit = ["golden", "emit", "--manifest", str(root / "golden.ini"), "--dir", str(root / "goldens")]
    assert cli(emit)[0] == 0
    return root


def cli(argv):
    """Exit code, stdout and stderr of ``spa`` run with ``argv``; a warning
    is put on stderr, where the command line would print it."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err), warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(argv)
    shown = "".join(f"{w.category.__name__}: {w.message}\n" for w in caught)
    return code, out.getvalue(), shown + err.getvalue()


@st.composite
def line_edits(draw):
    """An edit of a text file's lines: delete, duplicate or swap lines,
    replace one whitespace-separated field, or insert a garbage line."""
    kind = draw(st.sampled_from(["delete", "duplicate", "swap", "field", "insert"]))
    return kind, draw(st.integers(0, 63)), draw(st.integers(0, 63)), draw(FIELD)


def edit_lines(text: str, edit) -> str:
    kind, i, j, token = edit
    lines = text.splitlines()
    i, j = i % len(lines), j % len(lines)
    if kind == "delete":
        del lines[i]
    elif kind == "duplicate":
        lines.insert(i, lines[i])
    elif kind == "swap":
        lines[i], lines[j] = lines[j], lines[i]
    elif kind == "field":
        fields = lines[i].split() or [""]
        fields[j % len(fields)] = token
        lines[i] = " ".join(fields)
    else:
        lines.insert(i, token)
    return "\n".join(lines) + "\n"


@st.composite
def byte_edits(draw):
    """An edit of a binary file: overwrite a byte, truncate, or insert
    bytes; positions are biased to the 16-byte header and shape words."""
    kind = draw(st.sampled_from(["set", "truncate", "insert"]))
    position = draw(st.one_of(st.integers(0, 31), st.integers(0, 1 << 12)))
    return kind, position, draw(st.binary(min_size=1, max_size=4))


def edit_bytes(data: bytes, edit) -> bytes:
    kind, position, payload = edit
    position %= len(data) + 1
    if kind == "set":
        return data[:position] + payload[:1] + data[position + 1 :]
    if kind == "truncate":
        return data[:position]
    return data[:position] + payload + data[position:]


TARGETS = ["video spat", "video value", "video manifest", "run config", "golden spat", "golden manifest"]


@settings(max_examples=50, deadline=None)
@given(target=st.sampled_from(TARGETS), which=st.integers(0, 15), lines=line_edits(), data=byte_edits(),
       value=VALUE, precision=st.sampled_from([[], ["--precision", "f32"]]))
def test_mutated_inputs_end_in_exit_0_or_one_error_line(pristine, target, which, lines, data, value, precision):
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        shutil.copytree(pristine, root, dirs_exist_ok=True)
        video, goldens = root / "video" / "video.manifest", root / "goldens"
        if target == "video value":
            files = sorted(video.parent.glob("*.spat"))
            path = files[which % len(files)]
            tensor = read_tensor(path)
            tensor.flat[which % tensor.size] = value
            write_tensor(path, tensor)
        elif target.endswith("spat"):
            files = sorted((video.parent if target == "video spat" else goldens).glob("*.spat"))
            path = files[which % len(files)]
            path.write_bytes(edit_bytes(path.read_bytes(), data))
        else:
            path = {"video manifest": video, "run config": root / "config.ini",
                    "golden manifest": root / "golden.ini"}[target]
            path.write_text(edit_lines(path.read_text(), lines))

        if target.startswith("golden"):
            argv = ["golden", "verify", "--manifest", str(root / "golden.ini"), "--dir", str(goldens)]
        else:
            model = ["--d", "8", "--l-v", "2"]
            if target == "run config":
                model = ["--config", str(root / "config.ini")]
            argv = [*precision, "run", *model, "--manifest", str(video), "--out", str(root / "out.spat")]
        code, out, err = cli(argv)

    assert "Traceback" not in err
    if code == 0:
        assert err == ""
    elif target.startswith("golden") and code == 1 and err == "":
        assert "FAIL" in out  # a snapshot mismatch, not an input error
    else:
        assert code in (1, 2)
        assert err.startswith("error: ") and err.count("\n") == 1, err
