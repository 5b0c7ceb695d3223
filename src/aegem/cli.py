"""Command-line entry point.

Subcommands:

  synth   generate a synthetic scene and its ground truth
  run     every stage of `aegem.pipeline.STAGES`: load, normalize,
          autoencoder, graph, gcn, ensemble, score
  ae      load, normalize, autoencoder
  graph   load, normalize, graph
  eval    re-score saved run artifacts against a truth directory

run, ae and graph go through one stage runner, so each run directory
holds config.ini and a run.log with one timed line per stage, and each
first deletes what any earlier run left there, but never its input
files (see `aegem.pipeline.run_stages`).  Every model setting is read
from the config file alone; the flags of run, graph and ae override
only the seed, the repeat count and the output directory.  eval reports
the seed of the estimate directory's config.ini, if it holds one.  Exit
codes: 0 success, 1 usage, config or I/O error, 2 pipeline-stage
failure.

The BLAS thread pool is sized when numpy loads, which `import aegem`
does before any subcommand runs; to cap it, set OPENBLAS_NUM_THREADS
or OMP_NUM_THREADS in the environment that starts aegem.
"""
from __future__ import annotations

import argparse
import sys


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="aegem",
                                     description="hyperspectral unmixing toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    synth = sub.add_parser("synth", help="generate a synthetic scene with ground truth")
    synth.add_argument("--h", type=int, required=True, help="scene height")
    synth.add_argument("--w", type=int, required=True, help="scene width")
    synth.add_argument("--l", type=int, required=True, help="band count")
    synth.add_argument("--p", type=int, required=True, help="endmember count")
    synth.add_argument("--snr", type=float, default=float("inf"), help="SNR in dB")
    synth.add_argument("--smoothness", type=float, default=2.0)
    synth.add_argument("--seed", type=int, default=0)
    synth.add_argument("--out", default=".")

    run = sub.add_parser("run", help="run the full pipeline from a config file")
    run.add_argument("--config", required=True)
    run.add_argument("--seed", type=int, default=None, help="override config seed")
    run.add_argument("--repeat", type=int, default=None, help="override repeat count")
    run.add_argument("--out", default=None, help="override output directory")

    ev = sub.add_parser("eval", help="re-score saved run artifacts against truth")
    ev.add_argument("estimate_dir")
    ev.add_argument("truth_dir")
    ev.add_argument("--out", default=None, help="directory for the report CSV")

    for name, text in (("graph", "build and serialize the elliptical graph"),
                       ("ae", "train the autoencoder only")):
        stages = sub.add_parser(name, help=text)
        stages.add_argument("--config", required=True)
        stages.add_argument("--seed", type=int, default=None, help="override config seed")
        stages.add_argument("--out", default=None, help="override output directory")
    return parser


def _resolved_config(args):
    from dataclasses import replace

    from .pipeline import parse_config

    rc = parse_config(args.config)
    if args.seed is not None:
        rc = replace(rc, seed=args.seed)
    if getattr(args, "repeat", None) is not None:
        rc = replace(rc, repeat=args.repeat)
    if args.out is not None:
        rc = replace(rc, out_dir=args.out)
    return rc


def _cmd_synth(args) -> int:
    from pathlib import Path

    from .hsi import (SceneSpec, save_cube, synthesize_scene,
                      write_abundance_csv, write_endmember_csv)

    spec = SceneSpec(height=args.h, width=args.w, bands=args.l, endmembers=args.p,
                     smoothness=args.smoothness, snr_db=args.snr)
    cube, truth = synthesize_scene(spec, args.seed)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    save_cube(cube, out / "cube.hsb")
    write_endmember_csv(truth.endmembers, out / "truth_endmembers.csv")
    write_abundance_csv(truth.abundances, out / "truth_abundances.csv")
    print(f"wrote cube.hsb, truth_endmembers.csv, truth_abundances.csv to {out}")
    return 0


def _cmd_run(args) -> int:
    from .pipeline import run_repeated

    rc = _resolved_config(args)
    reports = run_repeated(rc)
    print(reports[-1].to_text())
    return 0


def _cmd_eval(args) -> int:
    from pathlib import Path

    from .pipeline import parse_config, score_artifacts

    truth, config = Path(args.truth_dir), Path(args.estimate_dir) / "config.ini"
    report = score_artifacts(args.estimate_dir,
                             truth / "truth_endmembers.csv",
                             truth / "truth_abundances.csv",
                             seed=parse_config(config).seed if config.exists() else 0)
    print(report.to_text())
    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        report.to_csv(out / "metrics.csv")
    return 0


def _cmd_stages(args) -> int:
    """`ae` and `graph`: load, normalize and the stage named."""
    from .pipeline import run_stages

    rc = _resolved_config(args)
    stages = ("load", "normalize", "autoencoder" if args.command == "ae" else "graph")
    run_stages(rc, stages)
    print(f"wrote the {args.command} artifacts to {rc.out_dir}")
    return 0


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 1 if exc.code not in (0, None) else 0
    from .pipeline import PipelineStageError

    handlers = {"synth": _cmd_synth, "run": _cmd_run, "eval": _cmd_eval,
                "graph": _cmd_stages, "ae": _cmd_stages}
    try:
        return handlers[args.command](args)
    except PipelineStageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
