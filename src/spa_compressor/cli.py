"""Batch command-line interface.

Subcommands:
    ratio     - closed-form compression ratio / reduction, single or grid
    run       - compress a video manifest and write the flattened output
    generate  - write a deterministic synthetic video manifest
    gradcheck - finite-difference verification of the backward pass
    fit       - toy compressor-only gradient-descent loop
    golden    - emit or verify seeded regression snapshots

Exit codes: 0 success, 1 check failure or runtime error, 2 usage error.
"""

from __future__ import annotations

import argparse
import dataclasses
import math
import os
import sys
from pathlib import Path

import numpy as np

from . import analytics, golden
from . import autodiff as ad
from .compressor import INI_KEYS, MODES, CompressorConfig, ConfigError, SpaCompressor
from .fitting import FitConfig, fit
from .goldenio import write_tensor
from .gradcheck import finite_difference_check
from .manifest import read_video, write_video
from .synthetic import SyntheticVideoSpec, VideoSpecError, generate

# toy defaults sized so gradcheck and fit finish in seconds
TOY = dict(dim=8, heads=2, scene_tokens=2, event_tokens=2, scene_layers=1, event_layers=1, vision_tokens_per_frame=2)


def _add_model_flags(p: argparse.ArgumentParser) -> None:
    # each dest is its INI key; None: not given, so --config's value (else TOY) applies
    p.add_argument("--config", type=Path, help="INI file with a [compressor] section")
    for flag in ("--d", "--heads", "--s", "--e", "--l-s", "--l-e", "--l-v"):
        p.add_argument(flag, type=int)
    p.add_argument("--mode", choices=MODES)


def _model_config(args) -> CompressorConfig:
    """Each model flag given explicitly (global ``--seed`` and ``--precision``
    too), else the ``--config`` INI's value, else the toy default; an error
    names the flags of the values it read."""
    config = CompressorConfig.from_ini(args.config) if args.config is not None else CompressorConfig(**TOY)
    given = {field: getattr(args, key) for key, (field, _) in INI_KEYS.items()}
    try:
        return dataclasses.replace(config, **{k: v for k, v in given.items() if v is not None})
    except ConfigError as exc:
        flags = ["--" + key.replace("_", "-") for key, (field, _) in INI_KEYS.items() if field in exc.fields]
        raise ValueError(f"{', '.join(flags)}: {exc}") from None


# SyntheticVideoSpec field -> the dest of the flag that sets it
VIDEO_FLAGS = dict(n_frames="frames", n_sentences="sentences", frame_step="step", sentence_tokens_min="l_s_min",
                   sentence_tokens_max="l_s_max", vision_tokens_per_frame="l_v", dim="d", seed="seed")


def _video(args, **spec):
    """The video of ``--frames``, ``--sentences`` and ``spec``; an error names the flags of ``args`` it read."""
    try:
        return generate(SyntheticVideoSpec(args.frames, args.sentences, **spec))
    except VideoSpecError as exc:
        dests = [VIDEO_FLAGS[field] for field in exc.fields if hasattr(args, VIDEO_FLAGS[field])]
        raise ValueError(f"{', '.join('--' + d.replace('_', '-') for d in dests)}: {exc}") from None


def cmd_ratio(args) -> int:
    values = [("--n-avg", args.n_avg), ("--dv", args.dv)]
    if args.grid is not None:
        if args.s is not None or args.e is not None:
            print("error: --grid cannot be combined with --s or --e", file=sys.stderr)
            return 2
        try:
            s_part, e_part = args.grid.split("x")
            scene_grid = [float(v) for v in s_part.split(",") if v]
            event_grid = [float(v) for v in e_part.split(",") if v]
        except ValueError:
            scene_grid = event_grid = []
        if not (scene_grid and event_grid):
            print(f"error: bad --grid {args.grid!r}; expected 's1,s2x e1,e2' syntax", file=sys.stderr)
            return 2
        values += [("--grid", v) for v in scene_grid + event_grid]
    elif args.format is not None:
        print("error: --format applies only to --grid", file=sys.stderr)
        return 2
    elif args.s is None or args.e is None:
        print("error: ratio needs either --grid or both --s and --e", file=sys.stderr)
        return 2
    else:
        values += [("--s", args.s), ("--e", args.e)]
    for flag, value in values:
        if not (math.isfinite(value) and value > 0):
            print(f"error: {flag} must be finite and strictly positive, got {value:g}", file=sys.stderr)
            return 1
    try:
        if args.grid is not None:
            reports = analytics.sweep(scene_grid, event_grid, args.n_avg, args.dv)
        else:
            report = analytics.compression_ratio(analytics.RatioInput(args.s, args.e, args.n_avg, args.dv))
    except ValueError:  # every input is finite and positive, so the ratio over- or underflowed
        given = f"--grid {args.grid}" if args.grid is not None else f"--s {args.s:g} --e {args.e:g}"
        print(f"error: ratio is not finite for {given} --n-avg {args.n_avg:g} --dv {args.dv:g}", file=sys.stderr)
        return 1
    if args.grid is not None:
        print(analytics.format_csv(reports) if args.format == "csv" else analytics.format_table(reports))
        return 0
    print(f"ratio {report.display_ratio()}")
    print(f"reduction {report.display_reduction()}%")
    note = analytics.published_note(report)
    if note:
        print(note)
    return 0


def _check_writable(path: Path, flag: str) -> None:
    """Raise, naming ``flag``, unless a file can be written at ``path``."""
    if path.is_dir():
        raise ValueError(f"{flag} {path} is a directory")
    if not path.parent.is_dir():
        raise ValueError(f"{flag} {path}: directory {path.parent} does not exist")
    if not os.access(path if path.exists() else path.parent, os.W_OK):
        raise ValueError(f"{flag} {path} is not writable")


def cmd_run(args) -> int:
    # both outputs are checked before any work, so a failed run writes neither
    _check_writable(args.out, "--out")
    if args.report:
        _check_writable(args.report, "--report")
        if args.report.resolve() == args.out.resolve():
            raise ValueError(f"--out and --report name the same file, {args.out}")
    config = _model_config(args)
    frames, sentences = read_video(args.manifest)
    model = SpaCompressor(config)
    with ad.no_grad():
        result = model.forward(frames, sentences)
    write_tensor(args.out, result.flattened.value)

    cfg = model.config
    n = len(frames)
    lines = [
        f"frames {n}  sentences {len(sentences)}  dim {cfg.dim}  mode {cfg.mode}",
        f"interleaved input length {result.sequence.total_length}",
        f"flattened output tokens {result.flattened.shape[1]}"
        f" = scene {cfg.scene_tokens} + {n} x (1 + {cfg.event_tokens})",
        f"scene block [0, {cfg.scene_tokens})",
    ]
    offset = cfg.scene_tokens
    for i in range(n):
        width = 1 + cfg.event_tokens
        lines.append(f"frame {i} block [{offset}, {offset + width})  timestamp at {offset}")
        offset += width
    report_text = "\n".join(lines) + "\n"
    if args.report:
        Path(args.report).write_text(report_text)
    else:
        print(report_text, end="")
    return 0


def cmd_generate(args) -> int:
    frames, sentences = _video(args, vision_tokens_per_frame=args.l_v, dim=args.d, sentence_tokens_min=args.l_s_min,
                               sentence_tokens_max=args.l_s_max, frame_step=args.step, seed=args.seed or 0)
    path = write_video(args.out, frames, sentences)
    print(f"wrote {path}")
    return 0


def cmd_gradcheck(args) -> int:
    config = _model_config(args)
    frames, sentences = _video(
        args, vision_tokens_per_frame=config.vision_tokens_per_frame, dim=config.dim, seed=config.seed
    )
    model = SpaCompressor(config)
    reports = finite_difference_check(model, frames, sentences, freeze=tuple(args.freeze))
    failed = False
    for r in reports:
        if r.frozen:
            print(f"{r.name:>14}: frozen ({r.n_params} params, no gradient flow)")
            continue
        ok = r.passed()
        failed |= not ok
        status = "ok" if ok else "FAIL"
        print(f"{r.name:>14}: max rel err {r.max_rel_err:.3e} at {r.worst_param} [{status}]")
    return 1 if failed else 0


def cmd_fit(args) -> int:
    if args.steps < 1:
        print(f"error: --steps must be at least 1, got {args.steps}", file=sys.stderr)
        return 2
    if not (math.isfinite(args.lr) and args.lr >= 0):
        print(f"error: --lr must be finite and non-negative, got {args.lr}", file=sys.stderr)
        return 2
    config = _model_config(args)
    largest = float(np.finfo(config.dtype).max)
    if args.lr > largest:
        print(f"error: --lr {args.lr:g} exceeds the largest {config.precision} value, {largest:g}", file=sys.stderr)
        return 2
    if args.out:
        _check_writable(args.out, "--out")
    frames, sentences = _video(
        args, vision_tokens_per_frame=config.vision_tokens_per_frame, dim=config.dim, seed=config.seed
    )
    model = SpaCompressor(config)
    losses = fit(model, frames, sentences, FitConfig(args.steps, args.lr))
    if args.out:
        with open(args.out, "w") as fh:
            fh.write("step,loss\n")
            for i, value in enumerate(losses):
                fh.write(f"{i},{value!r}\n")
    print(f"initial loss {losses[0]:.6f}  final loss {losses[-1]:.6f}")
    if losses[-1] > 0.5 * losses[0]:
        print("fit did not halve the initial loss", file=sys.stderr)
        return 1
    return 0


def cmd_golden(args) -> int:
    cases = golden.load_manifest(args.manifest)
    if args.action == "emit":
        for path in golden.emit(cases, args.dir):
            print(f"wrote {path}")
        return 0
    results = golden.verify(cases, args.dir)
    failed = False
    for r in results:
        print(f"{r.name}: {'ok' if r.ok else 'FAIL'} ({r.detail})")
        failed |= not r.ok
    return 1 if failed else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="spa", description="hierarchical scene/event token compressor")
    # None: not given, so --config's value (else 0 and f64) applies
    parser.add_argument("--seed", type=int)
    parser.add_argument("--precision", choices=("f32", "f64"))
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ratio", help="compression ratio analytics")
    p.add_argument("--s", type=float)
    p.add_argument("--e", type=float)
    p.add_argument("--n-avg", type=float, default=analytics.DEFAULT_FRAMES_PER_SENTENCE)
    p.add_argument("--dv", type=float, default=analytics.DEFAULT_VISUAL_TOKENS_PER_FRAME)
    p.add_argument("--grid", help="'s1,s2,...xe1,e2,...' sweep specification")
    p.add_argument("--format", choices=("table", "csv"), help="--grid output format (default: table)")
    p.set_defaults(func=cmd_ratio)

    p = sub.add_parser("run", help="compress a video manifest")
    _add_model_flags(p)
    p.add_argument("--manifest", type=Path, required=True)
    p.add_argument("--out", type=Path, required=True)
    p.add_argument("--report", type=Path)
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("generate", help="write a synthetic video manifest")
    p.add_argument("--out", type=Path, required=True)
    p.add_argument("--frames", type=int, default=4)
    p.add_argument("--sentences", type=int, default=2)
    p.add_argument("--l-v", type=int, default=TOY["vision_tokens_per_frame"])
    p.add_argument("--d", type=int, default=TOY["dim"])
    p.add_argument("--l-s-min", type=int, default=2)
    p.add_argument("--l-s-max", type=int, default=4)
    p.add_argument("--step", type=float, default=1.0)
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("gradcheck", help="finite-difference gradient verification")
    _add_model_flags(p)
    p.add_argument("--frames", type=int, default=2)
    p.add_argument("--sentences", type=int, default=1)
    p.add_argument("--freeze", action="append", default=[], choices=tuple(SpaCompressor.DOWNSTREAM),
                   help="parameter group to freeze")
    p.set_defaults(func=cmd_gradcheck)

    p = sub.add_parser("fit", help="toy compressor-only training loop")
    _add_model_flags(p)
    p.add_argument("--frames", type=int, default=2)
    p.add_argument("--sentences", type=int, default=1)
    p.add_argument("--steps", type=int, default=200)
    p.add_argument("--lr", type=float, default=0.05)
    p.add_argument("--out", type=Path, help="loss-curve CSV path")
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("golden", help="regression snapshots")
    p.add_argument("action", choices=("emit", "verify"))
    p.add_argument("--manifest", type=Path, default=Path("golden_manifest.ini"))
    p.add_argument("--dir", type=Path, required=True)
    p.set_defaults(func=cmd_golden)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:  # a model or video too large to allocate
        print(f"error: out of memory: {exc}" if str(exc) else "error: out of memory", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
