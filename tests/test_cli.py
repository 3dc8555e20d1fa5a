import dataclasses
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import spa_compressor
from spa_compressor.cli import TOY, main
from spa_compressor.compressor import MODES, CompressorConfig, SpaCompressor
from spa_compressor.goldenio import read_tensor, write_tensor
from spa_compressor.manifest import read_video, write_video
from spa_compressor.synthetic import SyntheticVideoSpec, generate

from test_harness import GOLDEN_MANIFEST

TINY_FLAGS = [
    "--d", "4", "--heads", "2", "--s", "1", "--e", "1",
    "--l-s", "1", "--l-e", "1", "--l-v", "1",
]
COMPRESSOR_INI = "[compressor]\nd = 8\nheads = 2\ns = 2\ne = 2\nl_s = 1\nl_e = 1\nl_v = 2\n"
GOLDEN_CASE = COMPRESSOR_INI.replace("[compressor]", "[case:toy]") + "video_sentences = 2\nvideo_seed = 1\n"


def run_cli(*argv):
    return main(list(argv))


class TestRatioCommand:
    def test_single_configuration(self, capsys):
        assert run_cli("ratio", "--s", "64", "--e", "32") == 0
        out = capsys.readouterr().out
        assert "ratio 0.1741" in out
        assert "reduction 82.59%" in out

    def test_grid_table_flags_published_outlier(self, capsys):
        assert run_cli("ratio", "--grid", "8,16,32,64x8,16,32,64") == 0
        out = capsys.readouterr().out
        assert "INCONSISTENT" in out
        assert "82.59" in out

    def test_grid_csv_format(self, capsys):
        assert run_cli("ratio", "--grid", "64x32", "--format", "csv") == 0
        out = capsys.readouterr().out.strip().splitlines()
        assert out[0].startswith("s,e,")
        assert "0.1741" in out[1]

    def test_custom_averages(self, capsys):
        assert run_cli("ratio", "--s", "10", "--e", "10", "--n-avg", "2", "--dv", "100") == 0
        out = capsys.readouterr().out
        assert "ratio 0.1500" in out

    def test_published_note_only_at_the_published_inputs(self, capsys):
        assert run_cli("ratio", "--s", "64", "--e", "32") == 0
        assert capsys.readouterr().out.splitlines()[-1] == "matches published 82.59"
        # the published rows hold only at the default --n-avg and --dv
        assert run_cli("ratio", "--s", "64", "--e", "32", "--n-avg", "3") == 0
        assert capsys.readouterr().out == "ratio 0.1389\nreduction 86.11%\n"
        assert run_cli("ratio", "--grid", "64x32", "--dv", "100") == 0
        out = capsys.readouterr().out
        assert "published" not in out and out.splitlines()[1].split() == ["64", "32", "0.6686", "33.14"]
        assert run_cli("ratio", "--grid", "64x32") == 0
        assert capsys.readouterr().out.splitlines()[1].endswith("matches published 82.59")

    @pytest.mark.parametrize("fmt", ["csv", "table"])
    def test_format_without_grid_is_usage_error(self, capsys, fmt):
        assert run_cli("ratio", "--format", fmt, "--s", "64", "--e", "32") == 2
        out, err = capsys.readouterr()
        assert out == "" and err == "error: --format applies only to --grid\n"

    def test_missing_tokens_is_usage_error(self, capsys):
        assert run_cli("ratio", "--s", "64") == 2
        out, err = capsys.readouterr()
        assert out == "" and err == "error: ratio needs either --grid or both --s and --e\n"

    def test_malformed_grid_is_usage_error(self, capsys):
        for grid in ("64;32", "64x32x8", "1,2x", "x", "", "1,ax2", "64×32"):
            assert run_cli("ratio", "--grid", grid) == 2, grid
            out, err = capsys.readouterr()
            assert out == "" and err == f"error: bad --grid {grid!r}; expected 's1,s2x e1,e2' syntax\n"
        # --grid sweeps its own scene and event counts, so --s and --e are not ignored but refused
        for flags in (["--s", "64"], ["--e", "32"], ["--s", "64", "--e", "32"]):
            assert run_cli("ratio", "--grid", "64x32", *flags) == 2, flags
            out, err = capsys.readouterr()
            assert out == "" and err == "error: --grid cannot be combined with --s or --e\n"

    def test_non_positive_input_fails(self, capsys):
        assert run_cli("ratio", "--s", "0", "--e", "32") == 1

    @pytest.mark.parametrize("flag, value", [("--n-avg", "0"), ("--s", "0"), ("--dv", "-1"), ("--e", "nan")])
    def test_bad_input_names_its_flag(self, capsys, flag, value):
        flags = {"--s": "64", "--e": "32", flag: value}
        assert run_cli("ratio", *(token for pair in flags.items() for token in pair)) == 1
        out, err = capsys.readouterr()
        assert out == "" and err == f"error: {flag} must be finite and strictly positive, got {value}\n"

    @pytest.mark.parametrize(
        "flags",
        [["--grid", "1,infx2"], ["--s", "1e308", "--e", "1e308", "--n-avg", "1e308"]],
    )
    def test_non_finite_input_or_ratio_fails(self, capsys, flags):
        assert run_cli("ratio", *flags) == 1
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize(
        "flags, given",
        [
            (["--s", "64", "--e", "32", "--n-avg", "1e308", "--dv", "1e308"], "--s 64 --e 32 --n-avg 1e+308 --dv 1e+308"),
            # the original token count n * dv underflows to zero
            (["--s", "1", "--e", "1", "--n-avg", "1e-200", "--dv", "1e-200"], "--s 1 --e 1 --n-avg 1e-200 --dv 1e-200"),
            (["--grid", "1,2x3", "--n-avg", "1e308", "--dv", "1e308"], "--grid 1,2x3 --n-avg 1e+308 --dv 1e+308"),
        ],
        ids=["overflow", "underflow", "grid"],
    )
    def test_non_finite_ratio_names_its_flags(self, capsys, flags, given):
        assert run_cli("ratio", *flags) == 1
        out, err = capsys.readouterr()
        assert out == "" and err == f"error: ratio is not finite for {given}\n"


@pytest.mark.parametrize(
    "flags, message",
    [
        (["generate", "--step", "nan"], "frame step must be finite and positive"),
        (["generate", "--step", "inf"], "frame step must be finite and positive"),
        (["generate", "--step", "nan", "--sentences", "0"], "frame step must be finite and positive"),
        (["generate", "--step", "0"], "frame step must be finite and positive"),
        (["generate", "--step", "1e300"], "timestamp limit"),
        (["generate", "--step", "400000"], "timestamp limit"),
        (["generate", "--d", "0"], "must be >= 1"),
        (["generate", "--l-v", "0"], "must be >= 1"),
        (["generate", "--sentences", "-1"], "sentence count cannot be negative"),
        (["generate", "--l-s-min", "5", "--l-s-max", "4"], "1 <= min <= max"),
        (["--seed", "-1", "generate"], "video seed must be non-negative, got -1"),
    ],
)
def test_generate_rejects_a_video_that_run_cannot_read(tmp_path, capsys, flags, message):
    assert run_cli(*flags, "--out", str(tmp_path / "video")) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err
    assert err.count("\n") == 1 and "Traceback" not in err
    assert not (tmp_path / "video").exists()


@pytest.mark.parametrize(
    "flags, message",
    [
        (["generate", "--frames", "0"], "--frames: need at least one frame, got 0"),
        (["generate", "--sentences", "-1"], "--sentences: sentence count cannot be negative, got -1"),
        (["generate", "--step", "nan"], "--step: frame step must be finite and positive, got nan"),
        (["generate", "--step", "400000"],
         "--frames, --step: 4 frames 400000s apart end past the 1000000s timestamp limit"),
        (["generate", "--sentences", "30", "--step", "0.1"],
         "--frames, --sentences, --step: 30 sentences cannot fit a 0.4s video (window 0.013s < 0.2s)"),
        (["generate", "--l-s-min", "5", "--l-s-max", "4"],
         "--l-s-min, --l-s-max: sentence token range must satisfy 1 <= min <= max"),
        (["generate", "--d", "0"], "--d, --l-v: model dim and vision tokens per frame must be >= 1"),
        (["--seed", "-1", "generate"], "--seed: video seed must be non-negative, got -1"),
        # gradcheck and fit have no --step or --l-s-* flags, so only the flags they have are named
        (["gradcheck", "--frames", "0"], "--frames: need at least one frame, got 0"),
        (["gradcheck", "--sentences", "-1"], "--sentences: sentence count cannot be negative, got -1"),
        (["gradcheck", "--frames", "2000000"], "--frames: 2000000 frames 1s apart end past the 1000000s timestamp limit"),
        (["fit", "--frames", "0"], "--frames: need at least one frame, got 0"),
        (["fit", "--frames", "1", "--sentences", "50"],
         "--frames, --sentences: 50 sentences cannot fit a 1.0s video (window 0.020s < 0.2s)"),
    ],
)
def test_bad_video_value_names_its_flags(tmp_path, capsys, flags, message):
    out = ["--out", str(tmp_path / "video")] if "generate" in flags else []
    assert run_cli(*flags, *out) == 1
    captured = capsys.readouterr()
    assert captured.err == f"error: {message}\n" and captured.out == ""
    assert not (tmp_path / "video").exists()


class TestGenerateAndRun:
    def test_generate_then_run_and_report(self, tmp_path, capsys):
        video_dir = tmp_path / "video"
        assert run_cli("--seed", "4", "generate", "--out", str(video_dir),
                       "--frames", "3", "--sentences", "2", "--l-v", "2", "--d", "8") == 0
        out_file = tmp_path / "out.spat"
        report = tmp_path / "report.txt"
        assert run_cli("--seed", "9", "run", *TINY_FLAGS[:2], "--d", "8", "--l-v", "2",
                       "--manifest", str(video_dir / "video.manifest"),
                       "--out", str(out_file), "--report", str(report)) == 0
        tensor = read_tensor(out_file)
        # s=1 default tiny: 1 + 3*(1+1); but run used toy defaults for s/e
        assert tensor.ndim == 3
        text = report.read_text()
        assert "scene block [0," in text
        assert "frame 0 block" in text
        assert "interleaved input length" in text

    @pytest.mark.parametrize("flag", ["--out", "--report"])
    def test_unwritable_output_fails_before_writing_anything(self, tmp_path, capsys, flag):
        video_dir = tmp_path / "video"
        assert run_cli("generate", "--out", str(video_dir), "--d", "8") == 0
        capsys.readouterr()
        paths = {"--out": tmp_path / "out.spat", "--report": tmp_path / "report.txt"}
        paths[flag] = tmp_path / "nonexistent" / "dir" / "file"
        assert run_cli("run", "--d", "8", "--l-v", "2", "--manifest", str(video_dir / "video.manifest"),
                       "--out", str(paths["--out"]), "--report", str(paths["--report"])) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {flag} {paths[flag]}: directory ") and err.count("\n") == 1
        assert not (tmp_path / "out.spat").exists() and not (tmp_path / "report.txt").exists()

    def test_same_file_for_out_and_report_is_an_error(self, tmp_path, capsys):
        video_dir = tmp_path / "video"
        assert run_cli("generate", "--out", str(video_dir), "--d", "8") == 0
        capsys.readouterr()
        out = tmp_path / "o.spat"
        # one file reached by two spellings: the report would overwrite the tensor
        assert run_cli("run", "--d", "8", "--l-v", "2", "--manifest", str(video_dir / "video.manifest"),
                       "--out", str(out), "--report", str(video_dir / ".." / "o.spat")) == 1
        out_text, err = capsys.readouterr()
        assert out_text == "" and err == f"error: --out and --report name the same file, {out}\n"
        assert not out.exists()

    def test_run_twice_same_seed_is_byte_identical(self, tmp_path):
        video_dir = tmp_path / "video"
        run_cli("--seed", "4", "generate", "--out", str(video_dir), "--d", "8")
        args = ["--seed", "9", "run", "--d", "8", "--l-v", "2",
                "--manifest", str(video_dir / "video.manifest")]
        run_cli(*args, "--out", str(tmp_path / "a.spat"))
        run_cli(*args, "--out", str(tmp_path / "b.spat"))
        assert (tmp_path / "a.spat").read_bytes() == (tmp_path / "b.spat").read_bytes()

    def test_run_with_ini_config(self, tmp_path):
        ini = tmp_path / "c.ini"
        ini.write_text(
            "[compressor]\nd = 8\nheads = 2\ns = 2\ne = 2\nl_s = 1\nl_e = 1\n"
            "l_v = 2\nmode = frame-conditioned\nseed = 3\n"
        )
        video_dir = tmp_path / "video"
        run_cli("generate", "--out", str(video_dir), "--frames", "2", "--d", "8")
        out_file = tmp_path / "out.spat"
        assert run_cli("run", "--config", str(ini),
                       "--manifest", str(video_dir / "video.manifest"),
                       "--out", str(out_file)) == 0
        assert read_tensor(out_file).shape == (1, 2 + 2 * 3, 8)

    @pytest.mark.parametrize("mode", MODES)
    def test_value_only_run_equals_a_recorded_forward(self, tmp_path, mode):
        video_dir = tmp_path / "video"
        run_cli("generate", "--out", str(video_dir), "--frames", "3", "--d", "8")
        manifest = video_dir / "video.manifest"
        out_file = tmp_path / "out.spat"
        assert run_cli("--seed", "3", "run", "--d", "8", "--l-v", "2", "--mode", mode,
                       "--manifest", str(manifest), "--out", str(out_file)) == 0
        config = CompressorConfig(**{**TOY, "mode": mode, "seed": 3})
        recorded = SpaCompressor(config).forward(*read_video(manifest)).flattened
        assert recorded.parents
        assert read_tensor(out_file).tobytes() == recorded.value.tobytes()

    def test_truncated_frame_file_is_an_error_line(self, tmp_path, capsys):
        video_dir = tmp_path / "video"
        run_cli("generate", "--out", str(video_dir), "--frames", "2", "--d", "8")
        frame = video_dir / "frame_00001.spat"
        frame.write_bytes(frame.read_bytes()[:10])
        assert run_cli("run", "--d", "8", "--l-v", "2",
                       "--manifest", str(video_dir / "video.manifest"),
                       "--out", str(tmp_path / "o.spat")) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert "frame_00001.spat: truncated header" in err

    def test_missing_manifest_fails(self, tmp_path, capsys):
        assert run_cli("run", "--manifest", str(tmp_path / "nope.manifest"),
                       "--out", str(tmp_path / "o.spat")) == 1

    def test_directory_as_manifest_is_an_error_line(self, tmp_path, capsys):
        assert run_cli("run", "--manifest", str(tmp_path),
                       "--out", str(tmp_path / "o.spat")) == 1
        assert capsys.readouterr().err.startswith("error: ")

    def test_one_based_frame_indices_are_rejected(self, tmp_path, capsys):
        frames, sentences = generate(SyntheticVideoSpec(3, 2, 2, 8, seed=4))
        frames = [dataclasses.replace(f, index=f.index + 1) for f in frames]
        manifest = write_video(tmp_path / "video", frames, sentences)
        assert run_cli("run", "--d", "8", "--l-v", "2", "--manifest", str(manifest),
                       "--out", str(tmp_path / "o.spat")) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert "frame 1 at position 0" in err

    def test_explicit_seed_and_precision_override_the_ini(self, tmp_path):
        ini = tmp_path / "c.ini"
        ini.write_text(
            "[compressor]\nd = 8\nheads = 2\ns = 2\ne = 2\nl_s = 1\nl_e = 1\n"
            "l_v = 2\nseed = 3\nprecision = f64\n"
        )
        video_dir = tmp_path / "video"
        run_cli("generate", "--out", str(video_dir), "--frames", "2", "--d", "8")

        def run(name, *global_flags):
            out = tmp_path / name
            assert run_cli(*global_flags, "run", "--config", str(ini),
                           "--manifest", str(video_dir / "video.manifest"), "--out", str(out)) == 0
            return out.read_bytes()

        ini_seed = run("ini.spat")
        seed_3 = run("3.spat", "--seed", "3")
        seed_9 = run("9.spat", "--seed", "9")
        seed_10_f32 = run("10.spat", "--seed", "10", "--precision", "f32")
        assert ini_seed == seed_3
        assert seed_9 != seed_3
        assert int.from_bytes(seed_9[8:12], "little") == 8
        assert int.from_bytes(seed_10_f32[8:12], "little") == 4  # SPAT element width

    def test_model_flags_override_the_ini(self, tmp_path):
        ini = tmp_path / "c.ini"
        ini.write_text(COMPRESSOR_INI + "mode = frame-conditioned\nseed = 3\n")
        video_dir = tmp_path / "video"
        run_cli("generate", "--out", str(video_dir), "--frames", "3", "--d", "8")
        manifest = str(video_dir / "video.manifest")

        def run(name, *argv):
            out = tmp_path / name
            assert run_cli(*argv, "--manifest", manifest, "--out", str(out)) == 0
            return out

        flagged = read_tensor(run("flags.spat", "run", "--config", str(ini), "--s", "5",
                                  "--mode", "global-context"))
        assert flagged.shape == (1, 5 + 3 * (1 + 2), 8)
        events = flagged[0, 5:].reshape(3, 1 + 2, 8)[:, 1:]
        np.testing.assert_array_equal(events, np.broadcast_to(events[:1], events.shape))
        # the INI alone matches the same shape given as flags over the toy defaults
        ini_only = run("ini.spat", "run", "--config", str(ini)).read_bytes()
        flags_only = run("seed.spat", "--seed", "3", "run", "--d", "8", "--l-v", "2").read_bytes()
        assert ini_only == flags_only


def set_field(manifest, kind, index, field, value):
    """Replace one whitespace-separated field of the ``kind`` record ``index``."""
    lines = manifest.read_text().splitlines()
    for i, line in enumerate(lines):
        fields = line.split()
        if fields[:2] == [kind, str(index)]:
            fields[field] = value
            lines[i] = " ".join(fields)
    manifest.write_text("\n".join(lines) + "\n")


def poison_tensor(path, value):
    tensor = read_tensor(path).copy()
    tensor.flat[1] = value
    write_tensor(path, tensor)


# a generated manifest has a comment on line 1, frames 0-2 on lines 2-4 and
# sentences 1-2 on lines 5-6
@pytest.mark.parametrize(
    "corrupt, fragments",
    [
        (lambda m: set_field(m, "frame", 1, 2, "nan"), ["video.manifest: frame 1: time must be finite"]),
        (lambda m: set_field(m, "frame", 2, 2, "inf"), ["video.manifest: frame 2: time must be finite"]),
        (lambda m: set_field(m, "frame", 2, 2, "1e6"),
         ["video.manifest: frame 2: time must be finite and in [0, 1000000) seconds, got 1000000.0"]),
        (lambda m: set_field(m, "sentence", 1, 2, "nan"), ["video.manifest: sentence 1: start must be finite"]),
        (lambda m: m.write_bytes(m.read_bytes() + b"frame 3 3.0 \xff.spat\n"), ["video.manifest: not UTF-8 text"]),
        (lambda m: poison_tensor(m.parent / "frame_00001.spat", np.nan),
         ["video.manifest:3: malformed record: non-finite value in ", "frame_00001.spat at index (0, 1)"]),
        (lambda m: poison_tensor(m.parent / "sentence_00001.spat", np.inf),
         ["video.manifest:5: malformed record: non-finite value in ", "sentence_00001.spat at index (0, 1)"]),
        (lambda m: poison_tensor(m.parent / "frame_00001.spat", 1e300),
         ["video.manifest:3: malformed record: ", "frame_00001.spat: magnitude 1e+300 exceeds 3.26e+18"]),
        (lambda m: poison_tensor(m.parent / "sentence_00001.spat", -1e39),
         ["video.manifest:5: malformed record: ", "sentence_00001.spat: magnitude 1e+39 exceeds 3.26e+18"]),
        (lambda m: m.write_text(m.read_text() + "scene 0 1.0 frame_00000.spat\n"),
         ["video.manifest:7: malformed record: unknown record kind 'scene'"]),
        (lambda m: m.write_text(m.read_text().replace("frame_00000.spat", "frame_00000.spat trailing junk")),
         ["video.manifest:2: malformed record: 6 fields, expected 4: frame <index> <time_seconds> <tensor_path>"]),
        (lambda m: m.write_text(m.read_text().replace(" sentence_00002.spat", "")),
         ["video.manifest:6: malformed record: 4 fields, expected 5: sentence <index> <t_start> <t_end> <tensor_path>"]),
    ],
    ids=["frame-time-nan", "frame-time-inf", "frame-time-1e6", "sentence-start-nan", "not-utf8",
         "frame-tensor-nan", "sentence-tensor-inf", "frame-tensor-1e300", "sentence-tensor-1e39",
         "unknown-record", "frame-extra-fields", "sentence-missing-field"],
)
def test_malformed_video_is_one_error_line(tmp_path, capsys, corrupt, fragments):
    frames, sentences = generate(SyntheticVideoSpec(3, 2, 2, 8, seed=4))
    manifest = write_video(tmp_path / "video", frames, sentences)
    corrupt(manifest)
    assert run_cli("run", "--d", "8", "--l-v", "2", "--manifest", str(manifest),
                   "--out", str(tmp_path / "o.spat")) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {manifest}")
    assert all(fragment in err for fragment in fragments)
    assert err.count("\n") == 1 and "Traceback" not in err


@pytest.mark.parametrize(
    "command, text, named",
    [
        ("run", COMPRESSOR_INI.replace("d = 8\n", ""), "missing key 'd'"),
        ("run", COMPRESSOR_INI.replace("d = 8", "d = abc"), "bad value for 'd'"),
        ("run", COMPRESSOR_INI.replace("[compressor]\n", ""), "no section headers"),
        ("run", COMPRESSOR_INI.replace("[compressor]", "[model]"), "no [compressor] section"),
        ("run", COMPRESSOR_INI + "scene_tokens = 9\n", "[compressor]: unknown key 'scene_tokens'"),
        ("golden", GOLDEN_CASE, "[case:toy]: missing key 'video_frames'"),
        ("golden", GOLDEN_CASE + "video_frames = 0\n", "[case:toy]: need at least one frame"),
        ("golden", COMPRESSOR_INI, "no [case:*] sections"),
        ("run", COMPRESSOR_INI + "precision = f16\n", "[compressor]: precision must be one of"),
        ("run", COMPRESSOR_INI + "seed = -1\n", "[compressor]: seed must be non-negative, got -1"),
        ("run", COMPRESSOR_INI.replace("\nd = 8", "\nd = 0"), "[compressor]: model dim must be >= 1, got 0"),
        ("run", COMPRESSOR_INI.replace("heads = 2", "heads = -2"), "[compressor]: head count must be >= 1, got -2"),
        ("golden", GOLDEN_CASE.replace("video_seed = 1", "video_seed = -2") + "video_frames = 2\n",
         "[case:toy]: video seed must be non-negative, got -2"),
        ("golden", GOLDEN_CASE.replace("video_sentences = 2", "video_sentences = 50") + "video_frames = 1\n",
         "[case:toy]: 50 sentences cannot fit a 1.0s video"),
        # a case name is the file stem of its golden under --dir, so it must not leave --dir or hide there
        *[("golden", GOLDEN_CASE.replace("[case:toy]", f"[case:{name}]") + "video_frames = 2\n",
           f"[case:{name}]: case name {name!r} is not a plain file name")
          for name in ("../escaped", "", ".", "..", "sub/toy", "sub\\toy")],
        # a case spelt in another letter case would drop out of emit and verify unseen
        *[("golden", GOLDEN_CASE + "video_frames = 2\n" + GOLDEN_CASE.replace("[case:toy]", f"[{prefix}:b]"),
           f"[{prefix}:b]: a case section must start with lower-case 'case:'")
          for prefix in ("CASE", "Case")],
    ],
    ids=["missing-key", "bad-int", "no-header", "no-section", "unknown-key",
         "golden-missing-video-key", "golden-bad-video", "golden-no-case", "bad-precision",
         "negative-seed", "zero-dim", "negative-heads", "golden-negative-video-seed", "golden-sentences-cannot-fit",
         "golden-name-escapes-dir", "golden-name-empty", "golden-name-dot", "golden-name-dotdot",
         "golden-name-slash", "golden-name-backslash", "golden-upper-case-section", "golden-title-case-section"],
)
def test_malformed_ini_is_one_error_line(tmp_path, capsys, command, text, named):
    path = tmp_path / "bad.ini"
    path.write_text(text)
    argv = {
        "run": ["run", "--config", str(path), "--manifest", str(tmp_path / "v.manifest"),
                "--out", str(tmp_path / "o.spat")],
        "golden": ["golden", "emit", "--manifest", str(path), "--dir", str(tmp_path / "golden")],
    }[command]
    assert run_cli(*argv) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}")
    assert named in err
    assert err.count("\n") == 1 and "Traceback" not in err


@pytest.mark.parametrize("command", ["run", "golden"])
def test_non_utf8_ini_is_one_error_line(tmp_path, capsys, command):
    path = tmp_path / "bad.ini"
    path.write_bytes(COMPRESSOR_INI.replace("d = 8", "d = \xff8").encode("latin-1"))
    argv = {
        "run": ["run", "--config", str(path), "--manifest", str(tmp_path / "v.manifest"),
                "--out", str(tmp_path / "o.spat")],
        "golden": ["golden", "verify", "--manifest", str(path), "--dir", str(tmp_path)],
    }[command]
    assert run_cli(*argv) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}: not UTF-8 text")
    assert err.count("\n") == 1


class TestGradcheckCommand:
    def test_passes_on_tiny_config(self, capsys):
        code = run_cli("--seed", "5", "gradcheck", *TINY_FLAGS, "--frames", "2", "--sentences", "1")
        out = capsys.readouterr().out
        assert code == 0
        assert out.count("[ok]") == 4

    def test_frozen_group_reported(self, capsys):
        code = run_cli("--seed", "5", "gradcheck", *TINY_FLAGS,
                       "--frames", "2", "--sentences", "1", "--freeze", "time_encoder")
        out = capsys.readouterr().out
        assert code == 0
        assert "time_encoder: frozen" in out

    def test_every_group_frozen_is_an_error_line(self, capsys):
        freeze = [flag for group in SpaCompressor.DOWNSTREAM for flag in ("--freeze", group)]
        assert run_cli("gradcheck", *TINY_FLAGS, *freeze) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: every parameter group is frozen")
        assert captured.err.count("\n") == 1

    def test_f32_is_an_error_line(self, capsys):
        assert run_cli("--precision", "f32", "gradcheck", *TINY_FLAGS) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert "f32" in err

    @pytest.mark.parametrize("group", ["events", "Fusion", "time-encoder"])
    def test_unknown_freeze_group_is_usage_error(self, capsys, group):
        with pytest.raises(SystemExit) as exc:
            run_cli("gradcheck", *TINY_FLAGS, "--freeze", group)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "argument --freeze: invalid choice" in err and repr(group) in err


class TestFitCommand:
    def test_writes_loss_curve_and_halves(self, tmp_path, capsys):
        csv = tmp_path / "curve.csv"
        code = run_cli("--seed", "7", "fit", *TINY_FLAGS,
                       "--steps", "200", "--lr", "0.05", "--out", str(csv))
        assert code == 0
        lines = csv.read_text().strip().splitlines()
        assert lines[0] == "step,loss"
        assert len(lines) == 202

    @pytest.mark.parametrize("target", ["missing-dir", "directory"])
    def test_unwritable_out_fails_before_training(self, tmp_path, capsys, monkeypatch, target):
        def no_training(*args, **kwargs):
            raise AssertionError("training started")

        monkeypatch.setattr("spa_compressor.cli.fit", no_training)
        out = {"missing-dir": tmp_path / "nonexistent" / "c.csv", "directory": tmp_path}[target]
        assert run_cli("fit", *TINY_FLAGS, "--steps", "3", "--out", str(out)) == 1
        stdout, err = capsys.readouterr()
        assert stdout == "" and err.startswith(f"error: --out {out}") and err.count("\n") == 1

    def test_zero_learning_rate_fails_halving_bar(self, capsys):
        assert run_cli("fit", *TINY_FLAGS, "--steps", "3", "--lr", "0") == 1

    @pytest.mark.parametrize(
        "flags, message",
        [
            (("--lr", "nan"), "--lr must be finite and non-negative, got nan"),
            (("--lr", "inf"), "--lr must be finite and non-negative, got inf"),
            (("--lr=-0.1",), "--lr must be finite and non-negative, got -0.1"),
            (("--steps", "0"), "--steps must be at least 1, got 0"),
            (("--steps", "-3"), "--steps must be at least 1, got -3"),
        ],
        ids=["lr-nan", "lr-inf", "lr-negative", "steps-0", "steps-negative"],
    )
    def test_bad_steps_or_learning_rate_is_usage_error(self, capsys, flags, message):
        assert run_cli("fit", *TINY_FLAGS, "--steps", "3", *flags) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: {message}\n"
        assert captured.out == ""

    @pytest.mark.parametrize("lr", ["1e39", "1e200"])
    def test_rate_float32_cannot_hold_is_usage_error(self, capsys, lr):
        # before: "loss diverged at step 0: overflow encountered in cast", exit 1
        assert run_cli("--precision", "f32", "fit", "--steps", "40", "--lr", lr) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: --lr {float(lr):g} exceeds the largest f32 value, 3.40282e+38\n"
        assert captured.out == ""

    @pytest.mark.parametrize("lr", ["5", "5e3"])
    def test_divergence_is_one_error_line(self, capsys, lr):
        # numpy's overflow and invalid-value warnings are raised, not printed
        assert run_cli("fit", "--steps", "40", "--lr", lr) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error: loss diverged at step ")
        assert captured.err.count("\n") == 1 and captured.out == ""


class TestGoldenCommand:
    def test_emit_then_verify(self, tmp_path, capsys):
        assert run_cli("golden", "emit", "--manifest", str(GOLDEN_MANIFEST),
                       "--dir", str(tmp_path)) == 0
        assert run_cli("golden", "verify", "--manifest", str(GOLDEN_MANIFEST),
                       "--dir", str(tmp_path)) == 0
        out = capsys.readouterr().out
        assert "toy_f64: ok" in out

    def test_nan_golden_fails(self, tmp_path, capsys):
        assert run_cli("golden", "emit", "--manifest", str(GOLDEN_MANIFEST), "--dir", str(tmp_path)) == 0
        path = tmp_path / "toy_f64.spat"
        write_tensor(path, np.full_like(read_tensor(path), np.nan))
        capsys.readouterr()
        assert run_cli("golden", "verify", "--manifest", str(GOLDEN_MANIFEST), "--dir", str(tmp_path)) == 1
        out = capsys.readouterr().out
        assert "toy_f64: FAIL (first divergence at (0, 0, 0): stored nan vs recomputed " in out
        assert "toy_f64_shared_context: ok" in out

    def test_verify_without_files_fails(self, tmp_path, capsys):
        assert run_cli("golden", "verify", "--manifest", str(GOLDEN_MANIFEST),
                       "--dir", str(tmp_path)) == 1


@pytest.mark.parametrize(
    "argv",
    [["gradcheck", "--tolerance", "1"], ["gradcheck", "--step", "1e-3"],
     ["gradcheck", "--video-seed", "1"], ["fit", "--video-seed", "1"]],
)
def test_step_tolerance_and_video_seed_are_not_options(capsys, argv):
    # the check's step and tolerance are its contract, and the video comes
    # from the model seed: a script that tried to set them stops
    with pytest.raises(SystemExit) as exc:
        run_cli(*argv)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert "unrecognized arguments" in captured.err and captured.out == ""


@pytest.mark.parametrize("command", [["run", "--manifest", "v.manifest", "--out", "o.spat"], ["gradcheck"]])
def test_negative_seed_is_one_error_line(tmp_path, monkeypatch, capsys, command):
    monkeypatch.chdir(tmp_path)
    assert run_cli("--seed", "-1", *command) == 1
    assert capsys.readouterr().err == "error: --seed: seed must be non-negative, got -1\n"


@pytest.mark.parametrize(
    "flags, message",
    [
        (["--d", "0"], "--d: model dim must be >= 1, got 0"),
        (["--heads", "-2"], "--heads: head count must be >= 1, got -2"),
        (["--heads", "3"], "--d, --heads: heads (3) must divide model dim (8)"),
        (["--s", "0", "--l-e", "0"], "--s, --l-e: scene/event/vision token counts and layer counts must be >= 1"),
    ],
)
@pytest.mark.parametrize("command", [["run", "--manifest", "v.manifest", "--out", "o.spat"], ["gradcheck"], ["fit"]])
def test_bad_model_value_names_its_flags(tmp_path, monkeypatch, capsys, command, flags, message):
    monkeypatch.chdir(tmp_path)
    assert run_cli(*command, *flags) == 1
    captured = capsys.readouterr()
    assert captured.err == f"error: {message}\n" and captured.out == ""
    assert not (tmp_path / "o.spat").exists()


def test_model_too_large_to_allocate_is_one_error_line():
    # a 1e6-wide model needs a 7.28 TiB weight; the 4 GiB address-space cap
    # refuses it at once, whatever the host's overcommit policy
    code = (
        "import resource, sys\n"
        "resource.setrlimit(resource.RLIMIT_AS, (2**32, 2**32))\n"
        "from spa_compressor.cli import main\n"
        "sys.exit(main(['gradcheck', '--d', '1000000', '--heads', '1']))\n"
    )
    src = str(Path(spa_compressor.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": src, "OPENBLAS_NUM_THREADS": "1"}
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode == 1
    assert done.stdout == ""
    assert done.stderr.startswith("error: out of memory: Unable to allocate 7.28 TiB")
    assert done.stderr.count("\n") == 1


def test_unknown_subcommand_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2
