"""aegem benchmark: one workload, one seed, each sample in a fresh process.

    python3 perfbench/run.py --workload acceptance --seed 1 --seconds 10 --trace 0

Run from the root of a checkout.  With --trace 0 it starts pipeline
samples until --seconds have passed (at least one), plus a few set-up-only
processes, and reports the end-to-end metrics.  With --trace 1 it runs
one untraced sample, one traced sample and one traced sample with a
single BLAS thread, and reports the per-layer metrics.  Every sample's
outputs are checked.  The last line of standard output is one JSON
object: {"correct", "attempted", "failed", "metrics"}.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
from tracing import LAYER_METRICS  # noqa: E402

WORK = ROOT / ".perfbench-runs"
DEADLINE_S = 175.0
SETUP_ONLY_SAMPLES = 6

END_TO_END = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MiB"}  # name -> unit


def available_cpus() -> int:
    return len(os.sched_getaffinity(0))


def environment(blas_threads: int, versions: dict) -> dict:
    """Machine and library versions, recorded with every result."""
    cpu = platform.processor() or "?"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            cpu = next(line.split(":", 1)[1].strip() for line in f
                       if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {"nproc": available_cpus(), "blas_threads": blas_threads, "cpu": cpu,
            "python": platform.python_version(), **versions}


def code_digest() -> str:
    """Hash of the program's and the workloads' sources: output digests are
    compared only between runs of the same code."""
    h = hashlib.sha256()
    for path in sorted([*(ROOT / "src").rglob("*.py"), *HERE.glob("*.py")]):
        h.update(path.relative_to(ROOT).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


class Runner:
    """Starts child processes for one workload and seed, within one deadline."""

    def __init__(self, workload: str, seed: int, blas_threads: int):
        self.workload = workload
        self.seed = seed
        self.blas_threads = blas_threads
        self.start = time.monotonic()
        self.count = 0
        self.dir = WORK / f"{workload}-seed{seed}"
        shutil.rmtree(self.dir, ignore_errors=True)
        self.dir.mkdir(parents=True)

    def child(self, *, setup_only=False, trace=False, threads=None) -> dict:
        """Run one child; returns its result, or {"error": ...} if it failed."""
        self.count += 1
        tag = f"{self.count:02d}-{'setup' if setup_only else 'trace' if trace else 'run'}"
        out, result = self.dir / tag, self.dir / f"{tag}.json"
        threads = str(threads or self.blas_threads)
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
                   MKL_NUM_THREADS=threads)
        cmd = [sys.executable, str(HERE / "child.py"), "--workload", self.workload,
               "--seed", str(self.seed), "--out", str(out), "--result", str(result)]
        cmd += ["--setup-only"] * setup_only + ["--trace"] * trace
        timeout = max(1.0, DEADLINE_S - (time.monotonic() - self.start))
        try:
            proc = subprocess.run([*cmd, "--spawned", repr(time.monotonic())], env=env,
                                  capture_output=True, text=True, timeout=timeout)
        except subprocess.TimeoutExpired:
            return {"error": f"{tag}: timed out after {timeout:.0f} s"}
        finally:
            shutil.rmtree(out, ignore_errors=True)  # artifacts were checked in the child
        if proc.returncode != 0:
            tail = proc.stderr.strip().splitlines()[-1:] or ["no output"]
            return {"error": f"{tag}: exit {proc.returncode}: {tail[0]}"}
        data = json.loads(result.read_text(encoding="utf-8"))
        data["threads"] = int(threads)
        return data


def check_digests(samples: list[dict], key: str) -> None:
    """Every sample of one workload, seed, thread count and source tree must
    write the same final stack, also across separate invocations."""
    path = WORK / "digests.json"
    known = json.loads(path.read_text(encoding="utf-8")) if path.exists() else {}
    for s in samples:
        if not s.get("digest"):
            continue
        k = f"{key}-t{s['threads']}"
        if known.setdefault(k, s["digest"]) != s["digest"]:
            s["problems"].append(f"final_abundances.csv digest {s['digest'][:12]} differs "
                                 f"from {known[k][:12]} recorded for {k}")
    path.write_text(json.dumps(known, indent=1), encoding="utf-8")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not (ROOT / "src" / "aegem" / "__init__.py").is_file():
        print(f"aegem sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2

    threads = available_cpus()
    runner = Runner(args.workload, args.seed, threads)
    first = runner.child(setup_only=True)
    if "error" in first:
        print(f"cannot start a sample: {first['error']}", file=sys.stderr)
        return 2
    print("environment: " + json.dumps(environment(threads, first["versions"])))

    if args.trace:
        samples = [runner.child(), runner.child(trace=True), runner.child(trace=True, threads=1)]
        setups = []
    else:
        setups = [first] + [runner.child(setup_only=True) for _ in range(SETUP_ONLY_SAMPLES - 1)]
        setups = [s for s in setups if "error" not in s]
        samples, t0 = [], time.monotonic()
        while not samples or time.monotonic() - t0 < args.seconds:
            samples.append(runner.child())

    check_digests(samples, f"{args.workload}-seed{args.seed}-{code_digest()}")
    problems = [s["error"] for s in samples if "error" in s]
    problems += [f"sample {i}: {msg}" for i, s in enumerate(samples)
                 for msg in s.get("problems", [])]
    good = [s for s in samples if "error" not in s and not s["problems"]]
    failed = len(samples) - len(good)
    for i, s in enumerate(samples):
        if s.get("digest"):
            print(f"sample {i}: threads={s['threads']} wall_s={s['wall_s']:.4f} "
                  f"cpu_s={s['cpu_s']:.4f} peak_rss_mb={s['peak_rss_mb']:.1f} "
                  f"digest={s['digest'][:16]}")
    for msg in problems:
        print(f"FAILED {msg}")

    if args.trace:
        metrics = trace_metrics(samples) if not failed else {}
        units = {name: unit for name, (unit, _) in LAYER_METRICS.items()}
    else:
        setups += good
        metrics = {"setup_s": statistics.median(s["setup_s"] for s in setups)}
        for name in ("wall_s", "peak_rss_mb"):
            if good:
                metrics[name] = statistics.median(s[name] for s in good)
        units = END_TO_END
        print(f"{args.workload} seed {args.seed}: {len(good)} of {len(samples)} samples ok, "
              f"{len(setups)} set-up samples; medians:")
        print(f"  {'error_rate':<40} {failed / len(samples):.6g} fraction")
        if good:
            print(f"  {'mean_rmse':<40} {good[0]['mean_rmse']:.6g} 1 (deterministic per seed)")
            print(f"  {'mean_sad':<40} {good[0]['mean_sad']:.6g} rad (deterministic per seed)")
    for name, value in metrics.items():
        print(f"  {name:<40} {value:.6g} {units[name]}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(samples),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0 if failed == 0 else 1


def trace_metrics(samples: list[dict]) -> dict:
    plain, traced, single = samples
    m = dict(traced["layers"])
    m["pipeline.wall_s"] = traced["wall_s"]
    m["trace.overhead_s"] = traced["wall_s"] - plain["wall_s"]
    m["single_thread.wall_s"] = single["wall_s"]
    m["single_thread.cpu_s"] = single["cpu_s"]
    m["single_thread.conv2d_gflops"] = single["layers"]["autodiff.conv2d_gflops"]
    return m


if __name__ == "__main__":
    sys.exit(main())
