"""Command-line entry point.

Subcommands: synth (scene generator), run (every pipeline stage: load,
autoencoder, graph, gcn, ensemble), eval (re-score saved artifacts),
graph (the load and graph stages), ae (the load and autoencoder
stages).  Every model setting and variant, such as `[gcn]
paper_literal_asc`, is read from the config file alone; the flags of
run, graph and ae override only the seed, the repeat count and the
output directory.  Exit codes: 0 success, 1 usage, config or I/O error,
2 pipeline-stage failure.

The AEGEM_THREADS environment variable caps worker threads; it is
applied to the BLAS thread pools before numpy loads.
"""
from __future__ import annotations

import argparse
import os
import sys


def _apply_thread_cap() -> None:
    cap = os.environ.get("AEGEM_THREADS")
    if cap:
        for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                    "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
            os.environ.setdefault(var, cap)


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

    gr = sub.add_parser("graph", help="build and serialize the elliptical graph only")
    gr.add_argument("--config", required=True)
    gr.add_argument("--seed", type=int, default=None)
    gr.add_argument("--out", default=None)

    ae = sub.add_parser("ae", help="train the autoencoder only")
    ae.add_argument("--config", required=True)
    ae.add_argument("--seed", type=int, default=None)
    ae.add_argument("--out", default=None)
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
                     smoothness=args.smoothness, snr_db=args.snr, seed=args.seed)
    cube, truth = synthesize_scene(spec)
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

    from .pipeline import score_artifacts

    truth = Path(args.truth_dir)
    report = score_artifacts(args.estimate_dir,
                             truth / "truth_endmembers.csv",
                             truth / "truth_abundances.csv")
    print(report.to_text())
    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        report.to_csv(out / "metrics.csv")
    return 0


def _cmd_graph(args) -> int:
    from pathlib import Path

    from .pipeline import graph_stage, load_stage

    rc = _resolved_config(args)
    if rc.sad_on == "abundance":
        raise ValueError("[kernel] sad_on = abundance weights the graph by the "
                         "autoencoder's abundances, so only `aegem run` can build it; "
                         "use sad_on = spectra here")
    out = Path(rc.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    cube, _ = load_stage(rc, out, print)
    graph_stage(rc, cube, None, out, print)
    print(f"wrote graph.csv to {out}")
    return 0


def _cmd_ae(args) -> int:
    from pathlib import Path

    from .pipeline import autoencoder_stage, load_stage

    rc = _resolved_config(args)
    out = Path(rc.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    cube, truth = load_stage(rc, out, print)
    autoencoder_stage(rc, cube, truth, out, print)
    print(f"wrote autoencoder artifacts to {out}")
    return 0


def main(argv=None) -> int:
    _apply_thread_cap()
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 1 if exc.code not in (0, None) else 0
    from .pipeline import PipelineStageError

    handlers = {"synth": _cmd_synth, "run": _cmd_run, "eval": _cmd_eval,
                "graph": _cmd_graph, "ae": _cmd_ae}
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
