"""Spans around calls into aegem's public functions, recorded from outside.

`Tracer.install` replaces each target attribute with a timing wrapper
under the name its caller looks up (the pipeline imports most functions
by name, so those are wrapped on `aegem.pipeline`), and `Tracer.remove`
puts every original back.  Spans stay in memory until the run ends.
"""
from __future__ import annotations

import functools
import os
import time
from dataclasses import dataclass, field


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    counts: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span id -> duration minus the part of it covered by child spans."""
    children: dict[int, list[Span]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append(s)
    out = {}
    for s in spans:
        covered = 0.0
        reach = s.start
        for c in sorted(children.get(s.id, []), key=lambda c: c.start):
            lo, hi = max(c.start, reach, s.start), min(c.end, s.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out[s.id] = s.duration - covered
    return out


# -- computed kernel counts (from shapes, not measured) ------------------------

def _conv2d_counts(args, kwargs, out) -> dict:
    x, w = args[0], args[1]
    n, cout, ho, wo = out.shape
    _, cin, kh, kw = w.shape
    return {"flop": 2 * n * cout * cin * kh * kw * ho * wo,
            "bytes": 8 * (x.size + w.size + out.size)}


def _sparse_matmul_counts(args, kwargs, out) -> dict:
    op, x = args[0], args[1]
    cols = x.shape[1] if len(x.shape) == 2 else 1
    return {"flop": 2 * op.nnz * cols}


def _edge_counts(args, kwargs, graph) -> dict:
    return {"edges": len(graph.edges)}


def _file_bytes(args, kwargs, out) -> dict:
    # the pipeline passes every hsi writer its target path positionally, last
    path = next(a for a in reversed(args) if isinstance(a, (str, os.PathLike)))
    if os.path.isdir(path):
        return {"bytes": sum(e.stat().st_size for e in os.scandir(path) if e.is_file())}
    return {"bytes": os.path.getsize(path)}


def targets():
    """(owner, attribute, span name, count hook) for every traced call."""
    import aegem.autodiff as ad
    import aegem.autoencoder as ae
    import aegem.gcn as gcn
    import aegem.pipeline as pl
    import aegem.rng as rng

    return [
        (pl, "run_pipeline", "pipeline.run", None),
        (pl, "score_artifacts", "pipeline.score", None),
        (pl, "train_autoencoder", "autoencoder.train", None),
        (ae, "assemble_abundance_stack", "autoencoder.infer", None),
        (ad, "conv2d", "autodiff.conv2d", _conv2d_counts),
        (ad, "backward", "autodiff.backward", None),
        (ad, "sparse_matmul", "autodiff.sparse_matmul", _sparse_matmul_counts),
        (ad.Adam, "step", "autodiff.adam_step", None),
        (pl, "build_graph", "graph.build", _edge_counts),
        (pl, "write_graph_csv", "graph.write_csv", None),
        (gcn, "sample_labels", "gcn.sample_labels", None),
        (gcn, "train_gcn", "gcn.train", None),
        (gcn, "forward", "gcn.forward", None),
        (rng.SplitMix64, "permutation", "rng.permutation", None),
        (pl, "synthesize_scene", "hsi.synth", None),
        (pl, "save_cube", "hsi.save_cube", _file_bytes),
        (pl, "write_abundance_csv", "hsi.csv_write", _file_bytes),
        (pl, "write_endmember_csv", "hsi.csv_write", _file_bytes),
        (pl, "write_labels_csv", "hsi.csv_write", _file_bytes),
        (pl, "save_abundance_maps", "hsi.maps", _file_bytes),
        (pl, "read_abundance_csv", "hsi.csv_read", None),
        (pl, "read_endmember_csv", "hsi.csv_read", None),
        (pl, "read_labels_csv", "hsi.csv_read", None),
    ]


class Tracer:
    """Records one span per wrapped call; single-threaded callers only."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def _wrap(self, fn, name: str, count):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(self.spans)
            parent = self._stack[-1] if self._stack else None
            span = Span(sid, name, time.perf_counter(), 0.0, parent)
            self.spans.append(span)
            self._stack.append(sid)
            try:
                out = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
            if count is not None:
                span.counts = count(args, kwargs, out)
            return out

        return traced

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer is already installed")
        for owner, attr, name, count in targets():
            original = owner.__dict__[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, name, count))

    def remove(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.remove()

    def to_json(self) -> list[dict]:
        selfs = self_times(self.spans)
        return [{"id": s.id, "name": s.name, "start": s.start, "end": s.end,
                 "parent": s.parent, "self": selfs[s.id], **s.counts}
                for s in self.spans]


# -- per-layer metrics -----------------------------------------------------------

LAYERS = ("autoencoder", "autodiff", "graph", "gcn", "rng", "hsi", "pipeline")

# name -> (unit, better); the "computed" figures come from shapes, not timers
LAYER_METRICS = {
    "autoencoder.train_s": ("s", "lower"),
    "autoencoder.infer_s": ("s", "lower"),
    "autoencoder.train_patches_per_s": ("1/s", "higher"),
    "autoencoder.mean_rmse": ("1", "lower"),
    "autodiff.conv2d_s": ("s", "lower"),
    "autodiff.conv2d_calls": ("count", "lower"),
    "autodiff.conv2d_gflop": ("GFLOP", "lower"),  # computed
    "autodiff.conv2d_gbytes": ("GB", "lower"),  # computed
    "autodiff.conv2d_gflops": ("GFLOP/s", "higher"),
    "autodiff.backward_s": ("s", "lower"),
    "autodiff.backward_calls": ("count", "lower"),
    "autodiff.sparse_matmul_s": ("s", "lower"),
    "autodiff.sparse_matmul_calls": ("count", "lower"),
    "autodiff.sparse_matmul_gflop": ("GFLOP", "lower"),  # computed
    "autodiff.sparse_matmul_gflops": ("GFLOP/s", "higher"),
    "autodiff.adam_step_s": ("s", "lower"),
    "graph.build_s": ("s", "lower"),
    "graph.edges": ("count", "lower"),
    "graph.write_csv_s": ("s", "lower"),
    "gcn.train_s": ("s", "lower"),
    "gcn.epochs_per_s": ("1/s", "higher"),
    "gcn.forward_s": ("s", "lower"),
    "gcn.sample_labels_s": ("s", "lower"),
    "gcn.mean_rmse": ("1", "lower"),
    "rng.permutation_s": ("s", "lower"),
    "rng.permutation_calls": ("count", "lower"),
    "hsi.synth_s": ("s", "lower"),
    "hsi.csv_write_s": ("s", "lower"),
    "hsi.csv_read_s": ("s", "lower"),
    "hsi.maps_s": ("s", "lower"),
    "hsi.bytes_written": ("B", "lower"),
    "pipeline.score_s": ("s", "lower"),
    "pipeline.cpu_s": ("s", "lower"),
    "pipeline.mean_rmse": ("1", "lower"),
    "pipeline.mean_sad": ("rad", "lower"),
    **{f"{layer}.self_s": ("s", "lower") for layer in LAYERS},
    "pipeline.wall_s": ("s", "lower"),
    "trace.overhead_s": ("s", "lower"),
    "single_thread.wall_s": ("s", "lower"),
    "single_thread.cpu_s": ("s", "lower"),
    "single_thread.conv2d_gflops": ("GFLOP/s", "higher"),
}


def layer_metrics(spans: list[dict], epochs_ae: int, epochs_gcn: int, pixels: int,
                  report, cpu_s: float) -> dict[str, float]:
    """Per-layer figures of one traced run, from its spans and its report."""
    total: dict[str, float] = {}
    calls: dict[str, int] = {}
    sums: dict[str, float] = {}
    self_by_layer = dict.fromkeys(LAYERS, 0.0)
    for s in spans:
        name = s["name"]
        total[name] = total.get(name, 0.0) + (s["end"] - s["start"])
        calls[name] = calls.get(name, 0) + 1
        for key in ("flop", "bytes", "edges"):
            if key in s:
                sums[f"{name}.{key}"] = sums.get(f"{name}.{key}", 0) + s[key]
        self_by_layer[name.split(".")[0]] += s["self"]

    def t(name):
        return total.get(name, 0.0)

    train, infer = t("autoencoder.train"), t("autoencoder.infer")
    conv_flop = sums.get("autodiff.conv2d.flop", 0)
    spmm_flop = sums.get("autodiff.sparse_matmul.flop", 0)
    m = {
        "autoencoder.train_s": train,
        "autoencoder.infer_s": infer,
        "autoencoder.train_patches_per_s": epochs_ae * pixels / (train - infer),
        "autoencoder.mean_rmse": float(report.rmse_ae.mean()),
        "autodiff.conv2d_s": t("autodiff.conv2d"),
        "autodiff.conv2d_calls": calls.get("autodiff.conv2d", 0),
        "autodiff.conv2d_gflop": conv_flop / 1e9,
        "autodiff.conv2d_gbytes": sums.get("autodiff.conv2d.bytes", 0) / 1e9,
        "autodiff.conv2d_gflops": conv_flop / 1e9 / t("autodiff.conv2d"),
        "autodiff.backward_s": t("autodiff.backward"),
        "autodiff.backward_calls": calls.get("autodiff.backward", 0),
        "autodiff.sparse_matmul_s": t("autodiff.sparse_matmul"),
        "autodiff.sparse_matmul_calls": calls.get("autodiff.sparse_matmul", 0),
        "autodiff.sparse_matmul_gflop": spmm_flop / 1e9,
        "autodiff.sparse_matmul_gflops": spmm_flop / 1e9 / t("autodiff.sparse_matmul"),
        "autodiff.adam_step_s": t("autodiff.adam_step"),
        "graph.build_s": t("graph.build"),
        "graph.edges": sums.get("graph.build.edges", 0),
        "graph.write_csv_s": t("graph.write_csv"),
        "gcn.train_s": t("gcn.train"),
        "gcn.epochs_per_s": epochs_gcn / t("gcn.train"),
        "gcn.forward_s": t("gcn.forward"),
        "gcn.sample_labels_s": t("gcn.sample_labels"),
        "gcn.mean_rmse": float(report.rmse_gcn.mean()),
        "rng.permutation_s": t("rng.permutation"),
        "rng.permutation_calls": calls.get("rng.permutation", 0),
        "hsi.synth_s": t("hsi.synth"),
        "hsi.csv_write_s": t("hsi.csv_write"),
        "hsi.csv_read_s": t("hsi.csv_read"),
        "hsi.maps_s": t("hsi.maps"),
        "hsi.bytes_written": sum(v for k, v in sums.items()
                                 if k.startswith("hsi.") and k.endswith(".bytes")),
        "pipeline.score_s": t("pipeline.score"),
        "pipeline.cpu_s": cpu_s,
        "pipeline.mean_rmse": report.mean_rmse,
        "pipeline.mean_sad": report.mean_sad,
    }
    for layer in LAYERS:
        m[f"{layer}.self_s"] = self_by_layer[layer]
    return m
