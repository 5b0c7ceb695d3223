"""Tests of the benchmark's own code: span accounting, wrapper removal,
the output check, metric names, and the whole runner on the smoke workload."""
from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

from check import check_run  # noqa: E402
from tracing import LAYER_METRICS, Span, Tracer, self_times, targets  # noqa: E402
from workloads import WORKLOADS, build_config  # noqa: E402

import aegem.pipeline  # noqa: E402
import run as bench_run  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")


def test_self_time_subtracts_only_covered_child_time():
    spans = [
        Span(0, "root", 0.0, 10.0, None),
        Span(1, "a", 1.0, 4.0, 0),
        Span(2, "b", 3.0, 6.0, 0),  # overlaps a: the union 1..6 is covered once
        Span(3, "c", 8.0, 12.0, 0),  # runs past the parent's end: 8..10 counts
        Span(4, "a.child", 1.5, 2.5, 1),
    ]
    selfs = self_times(spans)
    assert selfs[0] == pytest.approx(10.0 - 5.0 - 2.0)
    assert selfs[1] == pytest.approx(3.0 - 1.0)
    assert selfs[2] == pytest.approx(3.0)
    assert selfs[3] == pytest.approx(4.0)
    assert selfs[4] == pytest.approx(1.0)


def _originals():
    return [(owner, attr, owner.__dict__[attr]) for owner, attr, _, _ in targets()]


def test_wrappers_are_removed_after_tracing(tmp_path):
    before = _originals()
    rc = build_config("smoke", 1, str(tmp_path / "run"))
    with Tracer() as tracer:
        assert all(owner.__dict__[attr] is not fn for owner, attr, fn in before)
        aegem.pipeline.run_pipeline(rc, log=None)
    assert all(owner.__dict__[attr] is fn for owner, attr, fn in before)
    names = {s.name for s in tracer.spans}
    assert {"pipeline.run", "autoencoder.train", "autodiff.conv2d", "gcn.train",
            "rng.permutation", "hsi.csv_read"} <= names
    root = [s for s in tracer.spans if s.parent is None]
    assert [s.name for s in root] == ["pipeline.run"]


def test_wrappers_are_removed_when_the_traced_call_raises(tmp_path):
    before = _originals()
    blocker = tmp_path / "file"
    blocker.write_text("")
    rc = build_config("smoke", 1, str(blocker))  # the run directory cannot be made
    with pytest.raises(FileExistsError):
        with Tracer() as tracer:
            aegem.pipeline.run_pipeline(rc, log=None)
    assert all(owner.__dict__[attr] is fn for owner, attr, fn in before)
    assert [s.name for s in tracer.spans] == ["pipeline.run"]
    assert tracer.spans[0].end >= tracer.spans[0].start


def test_output_check_accepts_a_run_and_flags_a_broken_stack(tmp_path):
    rc = build_config("smoke", 2, str(tmp_path / "run"))
    report, out = aegem.pipeline.run_pipeline(rc, log=None)
    ok = check_run(out, report)
    assert ok["problems"] == [] and len(ok["digest"]) == 64
    final = out / "final_abundances.csv"
    lines = final.read_text().splitlines()
    r, c, *vals = lines[1].split(",")
    lines[1] = ",".join([r, c, "-0.5", *vals[1:]])
    final.write_text("\n".join(lines) + "\n")
    bad = check_run(out, report)
    assert any("negative" in p for p in bad["problems"])
    assert any("sums miss 1" in p for p in bad["problems"])
    assert bad["digest"] != ok["digest"]
    (out / "graph.csv").unlink()
    assert "missing graph.csv" in check_run(out, report)["problems"]


def test_metric_and_workload_names_are_valid_and_match_the_benchmark_file():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    layers = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert e2e == bench_run.END_TO_END
    assert layers == {k: unit for k, (unit, _) in LAYER_METRICS.items()}
    assert {m["name"]: m["better"] for m in spec["per_layer"]} == {
        k: better for k, (_, better) in LAYER_METRICS.items()}
    for name in [*e2e, *layers, *WORKLOADS]:
        assert NAME.fullmatch(name) and len(name) <= 64, name
    assert {w["name"] for w in spec["workloads"]} <= set(WORKLOADS)


def _bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", ["0", "1"])
def test_runner_drives_the_smoke_workload(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    key = "end_to_end" if trace == "0" else "per_layer"
    proc = _bench("--workload", "smoke", "--seed", "5", "--seconds", "1", "--trace", trace)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    assert set(result["metrics"]) == {m["name"] for m in spec[key]}
    for m in spec[key]:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"] and np.isfinite(got["value"])


def test_runner_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench("--workload", "smoke", "--seed", "1", "--seconds", "1", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
