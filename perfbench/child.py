"""One benchmark sample in a fresh process; started by run.py, never imported.

    python3 perfbench/child.py --workload NAME --seed N --out DIR
        --result FILE --spawned T [--trace] [--setup-only]

`--spawned` is the parent's `time.monotonic()` just before it started this
process, so set-up time covers interpreter start, `import aegem` and
building the RunConfig.  The BLAS thread count comes from the parent's
environment, which is set before numpy loads here.
"""
from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "perfbench"))

import aegem.pipeline  # noqa: E402  (numpy and scipy load here)
from workloads import build_config  # noqa: E402


def main() -> None:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--result", required=True)
    p.add_argument("--spawned", type=float, required=True)
    p.add_argument("--trace", action="store_true")
    p.add_argument("--setup-only", action="store_true")
    args = p.parse_args()
    rc = build_config(args.workload, args.seed, args.out)
    result = {"setup_s": time.monotonic() - args.spawned, "versions": versions()}
    if not args.setup_only:
        result.update(run_sample(rc, args.trace, args.result + ".spans.json"))
    Path(args.result).write_text(json.dumps(result), encoding="utf-8")


def versions() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"numpy": numpy.__version__, "scipy": scipy.__version__,
            "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}"}


def run_sample(rc, trace: bool, spans_path: str) -> dict:
    # the benchmark's own modules load after set-up time is taken
    from check import check_run
    from tracing import Tracer, layer_metrics

    tracer = Tracer()
    if trace:
        tracer.install()
    try:
        cpu0 = time.process_time()
        t0 = time.perf_counter()
        report, out = aegem.pipeline.run_pipeline(rc, log=None)
        wall = time.perf_counter() - t0
        cpu = time.process_time() - cpu0
    finally:
        tracer.remove()
    result = {
        "wall_s": wall,
        "cpu_s": cpu,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "mean_rmse": report.mean_rmse,
        "mean_sad": report.mean_sad,
        **check_run(out, report),
    }
    if trace:
        spans = tracer.to_json()
        Path(spans_path).write_text(json.dumps(spans), encoding="utf-8")
        scene = rc.scene
        result["layers"] = layer_metrics(spans, rc.ae.epochs, rc.gcn.epochs,
                                         scene.height * scene.width, report, cpu)
    return result


if __name__ == "__main__":
    main()
