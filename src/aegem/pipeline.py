"""The unmixing run as one ordered table of stages, and its on-disk artifacts.

`STAGES` holds the run in order: load -> normalize -> autoencoder ->
graph -> gcn -> ensemble -> score.  Each stage reads and fills one
`RunState`, writes its own artifacts (`ARTIFACTS`) into the run directory
and returns the text of its log line.  `run_stages` is the one runner: it
creates the directory, deletes what any earlier run left there (the
files and run_NNN/ dirs a run writes, never its input files), writes
config.ini, logs a timed `[name] ... in N.Ns` line per stage, names the
stage of any failure in a PipelineStageError and writes run.log even
when a stage fails.  `run_pipeline` runs the whole table; the `ae` and
`graph` subcommands run its first stages (see `aegem.cli`).  A run
directory receives the candidate and final abundance stacks, extracted
endmembers, the graph edge list, labeled pixels, training logs,
grayscale maps, checkpoints, and a metrics report.  Reports are always
computed from the written CSV artifacts so that re-scoring a saved run
reproduces them exactly.  Every random stream is seeded from
`RunConfig.seed` and `scene_seed` alone, as `RunConfig` lists, and
config.ini records both, so that a run's config.ini reproduces it.
"""
from __future__ import annotations

import configparser
import time
import types
import typing
from dataclasses import MISSING, dataclass, field, fields, replace
from pathlib import Path

import numpy as np

from . import gcn as gcn_mod
from .autoencoder import (AutoencoderConfig, save_autoencoder, train_autoencoder)
from .ensemble import ensemble_select
from .gcn import GcnConfig
from .graph import EllipticalGraph, build_graph, write_graph_csv
from .hsi import (GroundTruth, HsiCube, SceneSpec, fmt9, load_cube, normalize,
                  read_abundance_csv, read_endmember_csv, read_table, read_utf8,
                  retitle_table, save_abundance_maps, save_cube, sorted_pixels,
                  synthesize_scene, write_abundance_csv, write_endmember_csv, write_table)
from .metrics import MetricsReport, channel_rmse, match_endmembers, sad
from .rng import SplitMix64

# Published per-material targets for the 95x95x156 Samson benchmark,
# printed for side-by-side comparison on best-effort runs (no tolerance
# is enforced).
SAMSON_REFERENCE = {
    "tree": (0.158, 0.029),
    "soil": (0.182, 0.024),
    "water": (0.081, 0.079),
    "mean": (0.140, 0.044),
}
SAMSON_SHAPE = (95, 95, 156)


class PipelineStageError(RuntimeError):
    """Wraps a failure with the name of the stage that raised it."""

    def __init__(self, stage: str, cause: Exception):
        super().__init__(f"stage '{stage}' failed: {cause}")
        self.stage = stage
        self.cause = cause


@dataclass
class RunConfig:
    """Everything one pipeline invocation needs; exactly one input source."""

    scene: SceneSpec | None = None
    input_path: str | None = None
    input_format: str = "hsb"
    truth_endmembers: str | None = None
    truth_abundances: str | None = None
    ae: AutoencoderConfig = field(default_factory=AutoencoderConfig)
    gcn: GcnConfig = field(default_factory=GcnConfig)
    kernel_a: int = 3
    kernel_b: int = 5
    stride_r: int | None = None
    stride_c: int | None = None
    out_dir: str = "out"
    seed: int = 0  # the AE's is seed + 1, the GCN's seed + 2 and the labels' seed + 3
    scene_seed: int | None = None  # the scene's, when not seed; for a scene input only
    repeat: int = 1

    def __post_init__(self):
        if (self.scene is None) == (self.input_path is None):
            raise ValueError("config needs exactly one of a scene spec or an input path")
        if self.repeat < 1:
            raise ValueError("repeat must be >= 1")
        for key, value in (("a", self.kernel_a), ("b", self.kernel_b),
                           ("stride_r", self.stride_r), ("stride_c", self.stride_c)):
            if value is not None and value < 1:
                raise ValueError(f"kernel {key} must be >= 1, got {value}")
        if self.scene is None and self.scene_seed is not None:
            raise ValueError("[run] scene_seed is set, but the input is a file, not a scene")


# -- config file round-trip ------------------------------------------------------

# Every key a config file may hold, by section, in write order, and the
# RunConfig field it sets: `scene.`, `ae.` and `gcn.` name a field of
# rc.scene, rc.ae and rc.gcn.  A value parses as its field's declared type.
_KNOWN_KEYS = {
    "run": {"seed": "seed", "scene_seed": "scene_seed", "repeat": "repeat", "out": "out_dir"},
    "input": {**{k: f"scene.{k}" for k in ("height", "width", "bands", "endmembers",
                                           "smoothness", "snr_db")},
              "path": "input_path", "format": "input_format",
              "truth_endmembers": "truth_endmembers", "truth_abundances": "truth_abundances"},
    "autoencoder": {k: f"ae.{k}" for k in ("encoder_filters", "encoder_kernels", "patch_size",
                                           "softmax_scale", "decoder_kernel", "epochs",
                                           "batch_size", "learning_rate", "mse_weight")},
    "kernel": {"a": "kernel_a", "b": "kernel_b", "stride_r": "stride_r", "stride_c": "stride_c"},
    "gcn": {k: f"gcn.{k}" for k in ("hidden", "epochs", "learning_rate", "label_fraction")},
}


def _field_value(rc: RunConfig, field_path: str):
    """The value of a RunConfig field path; None under an absent scene."""
    part, _, name = field_path.rpartition(".")
    owner = getattr(rc, part) if part else rc
    return None if owner is None else getattr(owner, name)


def _field_kind(field_path: str) -> type:
    """What a value of the field parses to: int, float, str or tuple."""
    hint = RunConfig
    for name in field_path.split("."):
        hint = typing.get_type_hints(hint)[name]
        if isinstance(hint, types.UnionType):  # X | None
            (hint,) = (a for a in typing.get_args(hint) if a is not type(None))
    return typing.get_origin(hint) or hint  # tuple[int, ...] -> tuple


def _fmt(v) -> str:
    if isinstance(v, float):
        return repr(v)
    if isinstance(v, (tuple, list)):
        return ",".join(str(x) for x in v)
    return str(v)


def write_config(rc: RunConfig, path) -> None:
    """Every key whose field is set; [input] holds the scene keys or the file keys."""
    cp = configparser.ConfigParser(interpolation=None)
    for section, keys in _KNOWN_KEYS.items():
        cp[section] = {}
        for key, field_path in keys.items():
            value = _field_value(rc, field_path)
            file_key = section == "input" and not field_path.startswith("scene.")
            if value is not None and not (file_key and rc.scene is not None):
                cp[section][key] = _fmt(value)
    with open(path, "w", encoding="utf-8") as f:
        cp.write(f)


def _parse_value(raw: str, kind: type):
    if kind is tuple:
        return tuple(int(v) for v in raw.split(","))
    return kind(raw)


def parse_config(path) -> RunConfig:
    """Read a config file; every absent key takes its dataclass default.

    An unknown section or key, a missing scene key, a scene key beside an
    input path, a file key (`format`, `truth_*`) without one or a value
    that does not parse fails naming the file, the section and the key.
    A path that cannot be read fails naming it, and a byte that is not
    UTF-8 naming the file and the line.
    """
    path = Path(path)
    if not path.exists():
        raise FileNotFoundError(f"config file not found: {path}")
    cp = configparser.ConfigParser(interpolation=None)
    text = read_utf8(path)  # unlike cp.read, fails on a path it cannot open
    try:
        cp.read_string(text, source=str(path))
    except configparser.Error as exc:
        raise ValueError(f"{path}: {exc}") from None
    if cp.defaults():  # configparser would copy these keys into every section
        raise ValueError(f"{path}: unknown section [{cp.default_section}]")
    parts = {"": {}, "scene": {}, "ae": {}, "gcn": {}}  # RunConfig part -> field -> value
    for section in cp.sections():
        if section not in _KNOWN_KEYS:
            raise ValueError(f"{path}: unknown section [{section}]")
        for key, raw in cp[section].items():
            field_path = _KNOWN_KEYS[section].get(key)
            if field_path is None:
                raise ValueError(f"{path}: [{section}] {key} is not a known key")
            part, _, name = field_path.rpartition(".")
            kind = _field_kind(field_path)
            try:
                parts[part][name] = _parse_value(raw, kind)
            except ValueError:
                raise ValueError(
                    f"{path}: [{section}] {key} = {raw!r} is not a valid {kind.__name__}"
                ) from None
    if "input" not in cp:
        raise ValueError(f"{path}: missing [input] section")
    scene_input = "path" not in cp["input"]
    required = {f"scene.{f.name}" for f in fields(SceneSpec) if f.default is MISSING}
    for key, field_path in _KNOWN_KEYS["input"].items():
        given = key in cp["input"]
        if given and not scene_input and field_path.startswith("scene."):
            raise ValueError(f"{path}: [input] {key} is a scene key, but [input] has a path")
        if given and scene_input and not field_path.startswith("scene."):
            raise ValueError(f"{path}: [input] {key} is a file key, but [input] has no path")
        if not given and scene_input and field_path in required:
            raise ValueError(f"{path}: [input] {key} is required")
    try:  # the dataclasses' own checks, such as a patch too small for the encoder
        return RunConfig(scene=SceneSpec(**parts["scene"]) if parts["scene"] else None,
                         ae=AutoencoderConfig(**parts["ae"]),
                         gcn=GcnConfig(**parts["gcn"]), **parts[""])
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


# -- scoring from artifacts -------------------------------------------------------

def read_labels_csv(path, height: int, width: int) -> np.ndarray:
    """Flat pixel indices of a `row,col` table: at least one line, and every
    pixel inside the image and on one line only."""
    rc, _, names = read_table(path, ["row", "col"])
    if names:
        raise ValueError(f"{path}: expected header 'row,col'")
    if not len(rc):
        raise ValueError(f"{path}: no pixel lines")
    outside = np.nonzero((rc < 0).any(axis=1) | (rc[:, 0] >= height)
                         | (rc[:, 1] >= width))[0]
    if outside.size:
        i = int(outside[0])
        raise ValueError(f"{path}: line {i + 2} has pixel ({rc[i, 0]}, {rc[i, 1]}) "
                         f"outside the {height}x{width} image")
    flat = rc[:, 0] * width + rc[:, 1]
    sorted_pixels(path, rc, flat)
    return flat


def write_labels_csv(label_idx: np.ndarray, width: int, path) -> None:
    write_table(path, ["row", "col"], np.column_stack(np.divmod(label_idx, width)),
                np.empty((len(label_idx), 0)))


def score_artifacts(est_dir, truth_endmembers_csv, truth_abundances_csv,
                    seed: int = 0, elapsed: float = 0.0) -> MetricsReport:
    """Metrics report from saved artifacts (shared by `run` and `eval`).

    Channels are permutation-matched to the reference endmembers before
    any comparison, so re-scoring is invariant to channel order.
    """
    est_dir = Path(est_dir)
    truth_em, _ = read_endmember_csv(truth_endmembers_csv)
    truth_ab, materials = read_abundance_csv(truth_abundances_csv)
    est_em, _ = read_endmember_csv(est_dir / "ae_endmembers.csv")
    if est_em.shape != truth_em.shape:
        raise ValueError(f"{est_dir / 'ae_endmembers.csv'}: endmembers {est_em.shape} do not "
                         f"match the truth's {truth_em.shape} in {truth_endmembers_csv}")
    stacks = []
    for name in ("ae_abundances.csv", "gcn_abundances.csv", "final_abundances.csv"):
        stack, _ = read_abundance_csv(est_dir / name)
        if stack.shape != truth_ab.shape:
            raise ValueError(f"{est_dir / name}: maps {stack.shape} do not match "
                             f"the truth's {truth_ab.shape} in {truth_abundances_csv}")
        stacks.append(stack)
    label_idx = read_labels_csv(est_dir / "labels.csv", *truth_ab.shape[:2])

    order = match_endmembers(est_em, truth_em).order
    ae_stack, gcn_stack, final_stack = (stack[:, :, order] for stack in stacks)
    est_em = est_em[:, order]

    sad_values = np.array([sad(est_em[:, j], truth_em[:, j]) for j in range(truth_em.shape[1])])

    # the renormalized figure is read off the written final stack, so that
    # re-scoring checks the artifact rather than recomputing it
    selection = ensemble_select(ae_stack, gcn_stack, truth_ab, label_idx)
    return MetricsReport(
        materials=materials,
        rmse_ae=channel_rmse(ae_stack, truth_ab),
        rmse_gcn=channel_rmse(gcn_stack, truth_ab),
        rmse_final=channel_rmse(final_stack, truth_ab),
        sad_values=sad_values,
        sources=selection.sources,
        val_rmse_ae=selection.val_rmse_ae,
        val_rmse_gcn=selection.val_rmse_gcn,
        val_rmse_final=selection.val_rmse_final,
        val_rmse_final_renorm=channel_rmse(final_stack, truth_ab, label_idx),
        seed=seed,
        elapsed_seconds=elapsed,
    )


# -- the stages ------------------------------------------------------------------

def _load_truth_files(rc: RunConfig, cube: HsiCube) -> GroundTruth:
    """The truth files of a file input, checked against the cube's shape.

    The materials take the abundance file's names, which `eval` reports.
    """
    if not rc.truth_endmembers or not rc.truth_abundances:
        raise ValueError(
            "file inputs need truth_endmembers and truth_abundances for the "
            "semi-supervised refiner"
        )
    em, _ = read_endmember_csv(rc.truth_endmembers)
    if em.shape[0] != cube.bands:
        raise ValueError(f"{rc.truth_endmembers}: {em.shape[0]} bands, "
                         f"the cube has {cube.bands}")
    path = rc.truth_abundances
    ab, names = read_abundance_csv(path)
    if ab.shape[:2] != (cube.height, cube.width):
        raise ValueError(f"{path}: {ab.shape[0]}x{ab.shape[1]} maps, "
                         f"the cube is {cube.height}x{cube.width}")
    if ab.shape[2] != em.shape[1]:
        raise ValueError(f"{path}: {ab.shape[2]} abundance channels, but "
                         f"{rc.truth_endmembers}'s endmember count is {em.shape[1]}")
    # repair only what 9-digit CSV rounding explains (at most 5e-10 per
    # value); anything else fails naming the pixel
    negative = np.argwhere(ab < -1e-9)
    if negative.size:
        r, c, j = negative[0]
        raise ValueError(f"{path}: pixel ({r}, {c}) has {names[j]} = "
                         f"{float(ab[r, c, j])!r} < 0")
    ab = np.clip(ab, 0.0, None)
    sums = ab.sum(axis=2, keepdims=True)
    empty = np.argwhere(sums[:, :, 0] == 0)
    if empty.size:
        r, c = empty[0]
        raise ValueError(f"{path}: pixel ({r}, {c}) has no positive abundance")
    off = np.argwhere(np.abs(sums[:, :, 0] - 1.0) > 1e-8)
    if off.size:
        r, c = off[0]
        raise ValueError(f"{path}: pixel ({r}, {c}) abundances sum to "
                         f"{float(sums[r, c, 0])!r}, not 1")
    ab /= sums
    return GroundTruth(em, ab, names)


@dataclass
class RunState:
    """What one run's stages read and write: each stage fills the fields it makes."""

    rc: RunConfig
    out: Path
    started: float = field(default_factory=time.perf_counter)
    cube: HsiCube | None = None
    truth: GroundTruth | None = None
    ae_stack: np.ndarray | None = None
    graph: EllipticalGraph | None = None
    gcn_stack: np.ndarray | None = None
    label_idx: np.ndarray | None = None
    report: MetricsReport | None = None


def _load(run: RunState) -> str:
    """The scene or input cube and its truth, written to the run directory."""
    rc, out = run.rc, run.out
    if rc.scene is not None:
        run.cube, run.truth = synthesize_scene(
            rc.scene, rc.seed if rc.scene_seed is None else rc.scene_seed)
        save_cube(run.cube, out / "cube.hsb")
    else:
        if not Path(rc.input_path).exists():
            raise FileNotFoundError(f"input file not found: {rc.input_path}")
        run.cube = load_cube(rc.input_path, rc.input_format)
        run.truth = _load_truth_files(rc, run.cube)
    names = run.truth.materials
    write_endmember_csv(run.truth.endmembers, out / "truth_endmembers.csv", names)
    write_abundance_csv(run.truth.abundances, out / "truth_abundances.csv", names)
    return (f"cube {run.cube.height}x{run.cube.width}x{run.cube.bands}, "
            f"{run.truth.endmembers.shape[1]} endmembers")


def _normalize(run: RunState) -> str:
    run.cube = normalize(run.cube)
    return "global_max"


def _autoencoder(run: RunState) -> str:
    """Train the AE with one channel per truth endmember; stack in truth order."""
    rc, out, truth = run.rc, run.out, run.truth
    ae_cfg = replace(rc.ae, encoder_filters=(*rc.ae.encoder_filters[:-1],
                                             truth.endmembers.shape[1]))
    em_ae, ae_stack, ae_history, ae_model = train_autoencoder(run.cube, ae_cfg, rc.seed + 1)
    order = match_endmembers(em_ae, truth.endmembers).order
    run.ae_stack, em_ae = ae_stack[:, :, order], em_ae[:, order]
    save_autoencoder(ae_model, out / "checkpoint_ae.aew")
    write_table(out / "ae_loss.csv", ["epoch", "loss"],
                np.arange(len(ae_history))[:, None],
                np.reshape(ae_history, (-1, 1)), fmt="%r")
    write_endmember_csv(em_ae, out / "ae_endmembers.csv", truth.materials)
    write_abundance_csv(run.ae_stack, out / "ae_abundances.csv", truth.materials)
    return (f"{ae_cfg.epochs} epochs, final loss "
            f"{ae_history[-1] if ae_history else float('nan'):.5f}")


def _graph(run: RunState) -> str:
    """The elliptical star graph, written to graph.csv.

    Edge weights are the spectral angles between the normalized cube's
    pixel spectra; nothing the autoencoder computes enters the graph.
    """
    rc = run.rc
    run.graph = build_graph(run.cube, rc.kernel_a, rc.kernel_b, rc.stride_r, rc.stride_c)
    write_graph_csv(run.graph, run.out / "graph.csv")
    return (f"ellipse a={rc.kernel_a} b={rc.kernel_b}: "
            f"{len(run.graph.senders)} centroids, {len(run.graph.edges)} edges")


def _gcn(run: RunState) -> str:
    """Refine the AE stack on the graph; writes the GCN stack and the labeled pixels."""
    rc, out, cube = run.rc, run.out, run.cube
    features = run.ae_stack.reshape(-1, run.ae_stack.shape[2])
    run.label_idx, label_targets = gcn_mod.sample_labels(
        run.truth.abundances, rc.gcn.label_fraction, SplitMix64(rc.seed + 3))
    model, gcn_history = gcn_mod.train_gcn(run.graph, features, run.label_idx,
                                           label_targets, rc.gcn, rc.seed + 2)
    run.gcn_stack = gcn_mod.forward(model, features).reshape(cube.height, cube.width, -1)
    gcn_mod.save_gcn(model, out / "checkpoint_gcn.aew")
    history = np.reshape(gcn_history, (-1, 3))
    write_table(out / "gcn_loss.csv", ["epoch", "train_bce", "val_bce"],
                history[:, :1], history[:, 1:], fmt="%r")
    write_labels_csv(run.label_idx, cube.width, out / "labels.csv")
    write_abundance_csv(run.gcn_stack, out / "gcn_abundances.csv", run.truth.materials)
    return (f"{features.shape[1]}-d node features, {rc.gcn.epochs} epochs "
            f"on {run.label_idx.size} labeled pixels (receptive field {model.field.size} of "
            f"{run.graph.n_pixels} nodes)")


def _ensemble(run: RunState) -> str:
    """Per-channel source choice; writes the final stack and its maps.

    The final stack renormalizes non-negative channels, so it lies in
    [0, 1] as the maps require: it is formatted once, for
    maps/abundances.csv, and final_abundances.csv is that table under the
    truth's material names.
    """
    selection = ensemble_select(run.ae_stack, run.gcn_stack, run.truth.abundances,
                                run.label_idx)
    maps = save_abundance_maps(selection.final_stack, run.out / "maps")
    names = run.truth.materials or [f"em{j}" for j in range(len(selection.sources))]
    retitle_table(maps[-1], run.out / "final_abundances.csv", ["row", "col", *names])
    return f"sources: {','.join(selection.sources)}"


def samson_reference_text() -> str:
    lines = ["reference targets (Samson benchmark):",
             f"  {'material':<10} {'rmse':>7} {'sad':>7}"]
    for name, (r, s) in SAMSON_REFERENCE.items():
        lines.append(f"  {name:<10} {r:>7.3f} {s:>7.3f}")
    return "\n".join(lines)


def _score(run: RunState) -> str:
    """The report scored from the written artifacts, in metrics.csv and metrics.txt."""
    out, cube = run.out, run.cube
    run.report = report = score_artifacts(
        out, out / "truth_endmembers.csv", out / "truth_abundances.csv",
        seed=run.rc.seed, elapsed=time.perf_counter() - run.started)
    report.to_csv(out / "metrics.csv")
    text = report.to_text()
    if (cube.height, cube.width, cube.bands) == SAMSON_SHAPE and len(report.materials) == 3:
        text += "\n" + samson_reference_text()
    (out / "metrics.txt").write_text(text + "\n", encoding="utf-8")
    return f"mean rmse {report.mean_rmse:.4f}, mean sad {report.mean_sad:.4f}"


# The whole run, in order.  A stage reads the RunState fields that the
# stages before it filled and returns the text of its log line.
STAGES = {"load": _load, "normalize": _normalize, "autoencoder": _autoencoder,
          "graph": _graph, "gcn": _gcn, "ensemble": _ensemble, "score": _score}

# What each stage writes into the run directory, as glob patterns.
ARTIFACTS = {
    "load": ("cube.hsb", "truth_endmembers.csv", "truth_abundances.csv"),
    "normalize": (),
    "autoencoder": ("checkpoint_ae.aew", "ae_loss.csv", "ae_endmembers.csv",
                    "ae_abundances.csv"),
    "graph": ("graph.csv",),
    "gcn": ("checkpoint_gcn.aew", "gcn_loss.csv", "labels.csv", "gcn_abundances.csv"),
    "ensemble": ("final_abundances.csv", "maps/em*.pgm", "maps/abundances.csv"),
    "score": ("metrics.csv", "metrics.txt"),
}


def _clear_artifacts(rc: RunConfig, out: Path, runs: int = 0) -> None:
    """Delete from out what any earlier run left there, before a run writes
    its files, or `runs` > 0 run_NNN/ dirs, into it.

    That is config.ini, run.log, metrics_runs.csv and every `ARTIFACTS`
    match, never the run's input files; then maps/ once empty, and the
    run_NNN/ dirs from run_{runs:03d} on, each cleared alike and removed
    once empty.  A run into a used directory then leaves no earlier run's
    results beside its own, even when it fails part way; files that no
    run writes stay.
    """
    inputs = {Path(p).resolve() for p in (rc.input_path, rc.truth_endmembers,
                                           rc.truth_abundances) if p}
    for pattern in ("config.ini", "run.log", "metrics_runs.csv",
                    *(p for patterns in ARTIFACTS.values() for p in patterns)):
        for path in out.glob(pattern):
            if path.resolve() not in inputs:
                path.unlink()
    maps = out / "maps"
    if maps.is_dir() and not any(maps.iterdir()):
        maps.rmdir()
    for sub in out.glob("run_*"):
        if sub.is_dir() and sub.name[4:].isdigit() and int(sub.name[4:]) >= runs:
            _clear_artifacts(rc, sub)
            if not any(sub.iterdir()):
                sub.rmdir()


def run_stages(rc: RunConfig, stages, log=print) -> RunState:
    """Run the named stages in order in rc.out_dir, next to config.ini and run.log.

    First `_clear_artifacts` deletes what any earlier run left in the
    directory.  Each stage logs one `[name] ... in N.Ns` line.  Any
    failure but a missing file is re-raised as a PipelineStageError
    naming the stage; run.log holds the lines of the stages that finished
    either way.
    """
    out = Path(rc.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    _clear_artifacts(rc, out)
    write_config(rc, out / "config.ini")
    run = RunState(rc, out)
    lines: list[str] = []
    try:
        for name in stages:
            stage, t = STAGES[name], time.perf_counter()
            try:
                note = stage(run)
            except FileNotFoundError:
                raise  # usage/IO error, not a stage failure
            except Exception as exc:
                raise PipelineStageError(name, exc) from exc
            lines.append(f"[{name}] {note} in {time.perf_counter() - t:.1f}s")
            if log:
                log(lines[-1])
    finally:
        (out / "run.log").write_text("".join(f"{line}\n" for line in lines), encoding="utf-8")
    return run


def run_pipeline(rc: RunConfig, log=print) -> tuple[MetricsReport, Path]:
    """Run every stage; returns the metrics report and the run directory."""
    run = run_stages(rc, STAGES, log)
    return run.report, run.out


def run_repeated(rc: RunConfig, log=print) -> list[MetricsReport]:
    """Repeat the pipeline with seeds seed..seed+N-1, then aggregate.

    Run i writes run_{i:03d}/ with seed + i.  A synthetic scene is drawn
    from rc.scene_seed, or else the base seed, which each run's config.ini
    records as its scene_seed, so that it reproduces the run.
    metrics_runs.csv holds each run's metrics, then their mean and std per
    material.  repeat = 1 is one `run_pipeline` in rc.out_dir itself.

    Before N > 1 runs, `_clear_artifacts` deletes what any earlier run
    left in rc.out_dir, the run_NNN/ dirs from run_{N:03d} on included;
    each run's own `run_stages` clears its run_NNN/.
    """
    if rc.repeat == 1:
        return [run_pipeline(rc, log=log)[0]]
    base = Path(rc.out_dir)
    _clear_artifacts(rc, base, rc.repeat)
    scene_seed = None if rc.scene is None else (
        rc.seed if rc.scene_seed is None else rc.scene_seed)
    reports = []
    for i in range(rc.repeat):
        sub = replace(rc, seed=rc.seed + i, scene_seed=scene_seed, repeat=1,
                      out_dir=str(base / f"run_{i:03d}"))
        reports.append(run_pipeline(sub, log=log)[0])
    _write_aggregate(reports, base / "metrics_runs.csv")
    return reports


def _write_aggregate(reports: list[MetricsReport], path) -> None:
    """Per-run rows, then mean and std over the runs; values formatted as in metrics.csv."""
    materials = reports[0].materials
    with open(path, "w", encoding="utf-8") as f:
        f.write("run,seed,material,rmse_ae,rmse_gcn,rmse_final,sad,source\n")
        for i, rep in enumerate(reports):
            for j, m in enumerate(materials):
                f.write(f"{i},{rep.seed},{m},{fmt9(rep.rmse_ae[j])},{fmt9(rep.rmse_gcn[j])},"
                        f"{fmt9(rep.rmse_final[j])},{fmt9(rep.sad_values[j])},{rep.sources[j]}\n")
        for j, m in enumerate(materials):
            rf = np.array([rep.rmse_final[j] for rep in reports])
            sv = np.array([rep.sad_values[j] for rep in reports])
            f.write(f"mean,-,{m},-,-,{fmt9(rf.mean())},{fmt9(sv.mean())},-\n")
            f.write(f"std,-,{m},-,-,{fmt9(rf.std())},{fmt9(sv.std())},-\n")
        mean_r = np.array([rep.mean_rmse for rep in reports])
        mean_s = np.array([rep.mean_sad for rep in reports])
        f.write(f"mean,-,all,-,-,{fmt9(mean_r.mean())},{fmt9(mean_s.mean())},-\n")
        f.write(f"std,-,all,-,-,{fmt9(mean_r.std())},{fmt9(mean_s.std())},-\n")
