"""Output check of one finished run directory."""
from __future__ import annotations

import hashlib
from dataclasses import fields
from pathlib import Path

import numpy as np

from aegem.hsi import read_abundance_csv
from aegem.pipeline import score_artifacts

ARTIFACTS = (
    "config.ini", "cube.hsb", "truth_endmembers.csv", "truth_abundances.csv",
    "checkpoint_ae.aew", "ae_loss.csv", "ae_endmembers.csv", "ae_abundances.csv",
    "graph.csv", "checkpoint_gcn.aew", "gcn_loss.csv", "labels.csv",
    "gcn_abundances.csv", "final_abundances.csv", "maps/abundances.csv",
    "metrics.csv", "metrics.txt", "run.log",
)
# final_abundances.csv keeps 9 significant digits, so pixel sums already
# miss 1 by about 1e-9 at the seed; 1e-8 is the tightest tolerance that holds
SUM_TOL = 1e-8


def _same_report(a, b) -> bool:
    for f in fields(a):
        if f.name in ("elapsed_seconds", "seed"):
            continue
        x, y = getattr(a, f.name), getattr(b, f.name)
        if isinstance(x, np.ndarray):
            if not np.array_equal(x, y):
                return False
        elif x != y:
            return False
    return True


def check_run(out: Path, report) -> dict:
    """Problems found in a run directory, and the final stack's SHA-256.

    Checks that every artifact exists, that the final stack read back from
    its CSV is non-negative and sums to one per pixel, and that re-scoring
    the directory reproduces the report the run returned.
    """
    out = Path(out)
    problems = [f"missing {name}" for name in ARTIFACTS if not (out / name).is_file()]
    p = len(report.materials)
    problems += [f"missing maps/em{j}.pgm" for j in range(p)
                 if not (out / "maps" / f"em{j}.pgm").is_file()]
    final = out / "final_abundances.csv"
    digest = None
    if final.is_file():
        digest = hashlib.sha256(final.read_bytes()).hexdigest()
        stack, _ = read_abundance_csv(final)
        if stack.min() < 0.0:
            problems.append(f"final stack has negative abundance {stack.min()!r}")
        err = float(np.max(np.abs(stack.sum(axis=2) - 1.0)))
        if err > SUM_TOL:
            problems.append(f"final stack pixel sums miss 1 by {err!r}")
    if not problems:
        rescored = score_artifacts(out, out / "truth_endmembers.csv",
                                   out / "truth_abundances.csv", seed=report.seed)
        if not _same_report(rescored, report):
            problems.append("re-scoring the run directory changed the report")
    return {"problems": problems, "digest": digest}
