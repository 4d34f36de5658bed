import csv
import json
from collections import defaultdict

import pytest

from twinbeam import ParameterError, reproduce
from twinbeam.figures import _feasible


def test_unknown_figure_rejected(tmp_path):
    with pytest.raises(ParameterError):
        reproduce("fig7", tmp_path)


def test_relative_outdir_env_keeps_bundle_together(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("TWINBEAM_OUTDIR", "rel")
    reproduce("fig2a", "figs", tol=1e-6)
    written = sorted(p.relative_to(tmp_path).as_posix() for p in tmp_path.rglob("*.*"))
    assert written == ["rel/figs/fig2a/joint.csv", "rel/figs/fig2a/manifest.json"]


def test_feasibility_clipping():
    # the single-mode, high-efficiency curve cannot reach large conditional
    # means: the inversion denominator t + mu*(1-eta) - M_t closes at 5.8
    grid = [x / 10.0 for x in range(12, 81, 4)]
    kept = _feasible("M_t", grid, {"t": 5, "mu": 1.0, "eta": 0.2})
    assert kept and max(kept) < 5.8
    # a many-mode curve keeps the whole grid
    assert _feasible("M_t", grid, {"t": 5, "mu": 197.0, "eta": 0.06}) == grid


@pytest.fixture(scope="module")
def fig4_dir(tmp_path_factory):
    outdir = tmp_path_factory.mktemp("figs")
    reproduce("fig4", outdir, tol=1e-10)
    return outdir / "fig4"


def test_fig4_manifest_and_panels(fig4_dir):
    manifest = json.loads((fig4_dir / "manifest.json").read_text())
    assert manifest["schema"] == 1
    names = {entry["path"] for entry in manifest["files"]}
    assert names == {"energy_panel.csv", "trigger_panel.csv",
                     "efficiency_panel.csv", "modes_panel.csv"}


def test_fig4_efficiency_families_are_ordered(fig4_dir):
    # within each mode-count family of the trigger panel, higher efficiency
    # gives larger delta_R; at t = 0 the state is thermal for every
    # efficiency (delta_R ~ 1e-14 noise), so compare above that floor only
    rows = list(csv.DictReader(open(fig4_dir / "trigger_panel.csv")))
    curves = defaultdict(dict)
    for row in rows:
        key = (float(row["mu"]), float(row["eta"]))
        curves[key][float(row["value"])] = float(row["delta_R"])
    for mu in (197.0, 25.0, 1.0):
        low = curves[(mu, 0.06)]
        high = curves[(mu, 0.20)]
        shared = [v for v in sorted(set(low) & set(high)) if low[v] > 1e-10]
        assert shared
        assert all(high[v] > low[v] for v in shared)


def test_fig4_values_are_well_formed(fig4_dir):
    for name in ("energy_panel.csv", "modes_panel.csv"):
        for row in csv.DictReader(open(fig4_dir / name)):
            delta_r = float(row["delta_R"])
            assert -1e-9 <= delta_r <= 1.0
            assert float(row["S_state"]) <= float(row["S_ref"]) + 1e-9
