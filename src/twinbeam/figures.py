"""Plot-ready data bundles for the standard demonstration figures.

Each bundle lands in its own directory as CSV files plus a ``manifest.json``
(schema 1) describing axes, parameters, seed, and the role of every file.
Data only, no rendering: the files feed any plotting front end.

  fig2a, fig2b  joint count tables at the two reference parameter sets
                (mu=197, eta=0.06, M=13.4) and (mu=25, eta=0.056, M=17.1)
  fig3, fig5    conditional count distributions (exact trigger values,
                above- and below-threshold selections), the affine
                conditional-mean line, and a synthetic 50 000-shot
                "experimental" overlay resampled from the model, every
                post-selection of it read from its one (s, t) count table
  fig4          four renormalised-nonGaussianity sweep panels (vs energy,
                trigger value, efficiency, and mode number)
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from . import serialize
from .conditional import (
    SelectionRule,
    build_conditional,
    cond_count_dist,
    conditional_mean,
)
from .core import _validate_count, marginal_dist
from .errors import InfeasibleConstraintError, ParameterError
from .nongauss import solve_mean_counts, sweep
from .params import ExperimentParams
from .sampling import histogram, sample_run

__all__ = ["FIGURE_IDS", "reproduce"]

PARAMS_A = ExperimentParams(197.0, 0.06, 13.4)
PARAMS_B = ExperimentParams(25.0, 0.056, 17.1)

FIGURE_IDS = ("fig2a", "fig2b", "fig3", "fig4", "fig5")

_COND_FIGS = {
    # exact trigger values, above-thresholds, below-thresholds
    "fig3": (PARAMS_A, (10, 15), (11, 17), (8, 15)),
    "fig5": (PARAMS_B, (13, 19), (17, 21), (10, 15)),
}

_SHOTS = 50_000


def reproduce(
    figure_id: str,
    outdir,
    seed: int = 0,
    tol: float = 1e-10,
) -> dict:
    """Write every curve of the named figure under ``outdir/<figure_id>/``.

    Returns the manifest (also written to manifest.json).  Deterministic for
    fixed seed.
    """
    if figure_id not in FIGURE_IDS:
        raise ParameterError(f"unknown figure id {figure_id!r}; know {FIGURE_IDS}")
    seed = _validate_count(seed, "seed")  # before any file of the bundle is written
    # absolute, so that writing below it does not apply $TWINBEAM_OUTDIR twice
    outdir = serialize.resolve_output(Path(outdir) / figure_id).absolute()
    if figure_id in ("fig2a", "fig2b"):
        manifest = _joint_figure(figure_id, outdir, tol)
    elif figure_id in _COND_FIGS:
        manifest = _conditional_figure(figure_id, outdir, seed, tol)
    else:
        manifest = _sweep_figure(outdir, tol)
    fields = {"figure": figure_id, "seed": seed, "tol": tol, **manifest}
    serialize.write_text(outdir / "manifest.json", serialize.format_json(fields, indent=1))
    return {"schema": serialize.SCHEMA, **fields}


def _write(outdir: Path, files: list, name: str, text: str, role: str) -> None:
    """Write one CSV file of a bundle and list it, with its header, in ``files``."""
    serialize.write_text(outdir / name, text)
    files.append({"path": name, "role": role, "columns": text[: text.index("\n")]})


def _joint_figure(figure_id: str, outdir: Path, tol: float) -> dict:
    from .core import joint_table

    params = PARAMS_A if figure_id == "fig2a" else PARAMS_B
    files: list = []
    _write(outdir, files, "joint.csv", serialize.format_table(joint_table(params, tol=tol), "csv"),
           "joint count probability table")
    return {"params": params.to_dict(), "axes": ["s", "t"], "files": files}


def _conditional_figure(figure_id: str, outdir: Path, seed: int, tol: float) -> dict:
    params, exact_ts, above_ts, below_ts = _COND_FIGS[figure_id]
    files: list = []

    def write(name: str, text: str, role: str) -> None:
        _write(outdir, files, name, text, role)

    write("unconditioned_theory.csv", serialize.format_table(marginal_dist(params, tol), "csv"),
          "unconditioned count distribution")
    rules = [(f"exact_t{t}", SelectionRule.exact(t)) for t in exact_ts]
    rules += [(f"above_{t}", SelectionRule.above(t)) for t in above_ts]
    rules += [(f"below_{t}", SelectionRule.below(t)) for t in below_ts]
    for name, rule in rules:
        write(f"{name}_theory.csv",
              serialize.format_table(cond_count_dist(params, rule, tol=tol), "csv"),
              f"conditional count distribution, {rule.describe()}")

    # Mean-vs-selection curves: exact trigger, both threshold families, and
    # the unconditioned level.
    t_hi = 30
    curves = [SelectionRule.exact(t) for t in range(t_hi + 1)]
    curves += [SelectionRule.above(t) for t in range(t_hi)]
    curves += [SelectionRule.below(t) for t in range(1, t_hi + 1)]
    mean_rows = []
    for rule in curves:
        if rule.kind == "exact":
            mean = conditional_mean(params, rule.threshold)
        else:
            mean = build_conditional(params, rule, tol).mean_counts()
        mean_rows.append((rule.kind, rule.threshold, mean))
    mean_rows.append(("unconditioned", -1, params.mean_counts))
    write("means_theory.csv", serialize.format_csv("kind,value,mean", mean_rows),
          "conditional mean counts vs trigger value / threshold")

    # Synthetic experimental overlay: resample the model, post-select from its counts.
    record = sample_run(params, _SHOTS, seed=seed)
    write("shots.csv", serialize.format_table(record, "csv"), f"synthetic record, {_SHOTS} shots")
    counts = histogram(record).meta["counts"]
    for name, rule in rules:
        probs, _, n_selected = _post_selected(counts, rule)
        if n_selected:
            write(f"{name}_synthetic.csv", serialize.format_csv("s,p", enumerate(probs.tolist())),
                  f"post-selected synthetic counts, {rule.describe()}")
    emp_rows = []
    for rule in curves:
        _, mean, n_selected = _post_selected(counts, rule)
        if n_selected >= 20:
            emp_rows.append((rule.kind, rule.threshold, mean, n_selected))
    write("means_synthetic.csv", serialize.format_csv("kind,value,mean,n_shots", emp_rows),
          "post-selected synthetic mean counts")

    return {"params": params.to_dict(), "axes": ["s"], "n_shots": _SHOTS, "files": files}


def _post_selected(counts: np.ndarray, rule: SelectionRule) -> tuple[np.ndarray, float, int]:
    """The s histogram (to the last s seen), mean s and number of shots ``rule`` accepts."""
    per_s = np.trim_zeros(counts[:, rule.mask(np.arange(counts.shape[1]))].sum(axis=1), "b")
    n_selected = int(per_s.sum())
    # an exact integer sum below 2**53 over the count: the float mean, bit for bit
    mean = int(per_s @ np.arange(per_s.size)) / n_selected if n_selected else np.nan
    return per_s / n_selected, mean, n_selected


# (mu, eta) curve families shared by the sweep panels.
_MU_SET = (197.0, 25.0, 1.0)
_ETA_SET = (0.06, 0.08, 0.10, 0.20)


def _feasible(axis: str, values, fixed: dict):
    """Grid points where the conditional-mean inversion gives a positive beam mean."""
    out = []
    for v in values:
        point = dict(fixed)
        point[axis] = v
        try:
            m = solve_mean_counts(point["M_t"], point["t"], point["mu"], point["eta"])
        except InfeasibleConstraintError:
            continue
        if m > 1e-9:
            out.append(v)
    return out


def _sweep_figure(outdir: Path, tol: float) -> dict:
    files = []
    panels = {
        "energy_panel.csv": (
            "M_t",
            np.round(np.arange(1.2, 8.01, 0.4), 10).tolist(),
            [{"t": 5, "mu": mu, "eta": eta} for mu in _MU_SET for eta in _ETA_SET],
        ),
        "trigger_panel.csv": (
            "t",
            list(range(0, 31, 2)),
            [{"M_t": 4.0, "mu": mu, "eta": eta} for mu in _MU_SET for eta in _ETA_SET],
        ),
        "efficiency_panel.csv": (
            "eta",
            np.round(np.arange(0.02, 0.301, 0.02), 10).tolist(),
            [{"M_t": 4.0, "t": t, "mu": mu} for t in (5, 15) for mu in _MU_SET],
        ),
        "modes_panel.csv": (
            "mu",
            [1.0, 2.0, 3.0, 5.0, 8.0, 12.0, 25.0, 50.0, 100.0, 197.0],
            [{"M_t": 4.0, "t": t, "eta": eta} for t in (2, 15) for eta in _ETA_SET],
        ),
    }
    for name, (axis, grid, curves) in panels.items():
        rows = []
        for fixed in curves:
            feasible = _feasible(axis, grid, fixed)
            if not feasible:
                continue
            label = dict(fixed)
            for row in sweep(axis, feasible, fixed, tol=tol):
                label[axis] = row.value
                rows.append((label["mu"], label["eta"], label["t"], row.axis, row.value,
                             row.delta, row.delta_R, row.S_state, row.S_ref))
        _write(outdir, files, name,
               serialize.format_csv("mu,eta,t,axis,value,delta,delta_R,S_state,S_ref", rows),
               f"renormalised nonGaussianity vs {axis} (beam mean solved "
               "from the conditional-mean relation at each point)")
    return {"axes": ["value"], "files": files}
