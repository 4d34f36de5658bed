import csv
import json
from collections import defaultdict

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from twinbeam import ParameterError, SelectionRule, ShotRecord, histogram, reproduce
from twinbeam.figures import _COND_FIGS, _SHOTS, _feasible, _post_selected


def test_unknown_figure_rejected(tmp_path):
    with pytest.raises(ParameterError):
        reproduce("fig7", tmp_path)


def test_negative_seed_rejected_before_writing(tmp_path):
    # fig3 wrote its 8 theory files before the sampler refused the seed
    with pytest.raises(ParameterError, match="seed must be >= 0"):
        reproduce("fig3", tmp_path, seed=-1)
    assert list(tmp_path.iterdir()) == []


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


# every exact/above/below rule the fig3 and fig5 overlays and mean curves use
_FIGURE_RULES = sorted(
    {SelectionRule.exact(t) for t in range(31)}
    | {SelectionRule.above(t) for t in range(30)}
    | {SelectionRule.below(t) for t in range(1, 31)}
    | {rule(t) for _, *families in _COND_FIGS.values()
       for rule, ts in zip((SelectionRule.exact, SelectionRule.above, SelectionRule.below),
                           families) for t in ts},
    key=lambda rule: (rule.kind, rule.threshold),
)


@given(shots=st.lists(st.tuples(st.integers(0, 200), st.integers(0, 40)),
                      min_size=1, max_size=300))
@settings(max_examples=60, deadline=None)
def test_count_table_post_selection_is_the_mask_route_bit_for_bit(shots):
    record = ShotRecord(np.array(shots, dtype=np.int64))
    counts = histogram(record).meta["counts"]
    for rule in _FIGURE_RULES:
        selected = record.s[rule.mask(record.t)]
        probs, mean, n_selected = _post_selected(counts, rule)
        assert n_selected == selected.size
        want = np.bincount(selected) / selected.size if selected.size else np.zeros(0)
        assert probs.dtype == want.dtype and probs.tobytes() == want.tobytes()
        if selected.size:
            assert np.float64(mean).tobytes() == np.float64(selected.mean()).tobytes()


def test_reproduce_masks_no_array_of_record_length(tmp_path, monkeypatch):
    sizes = []
    mask = SelectionRule.mask

    def spy(self, t):
        sizes.append(np.size(t))
        return mask(self, t)

    monkeypatch.setattr(SelectionRule, "mask", spy)
    reproduce("fig3", tmp_path)
    assert sizes and max(sizes) < _SHOTS
