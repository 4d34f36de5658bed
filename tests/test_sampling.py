import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from twinbeam import (
    ExperimentParams,
    ParameterError,
    SelectionRule,
    ShotRecord,
    TableSizeError,
    cond_count_dist,
    fidelity,
    histogram,
    joint_table,
    marginal_dist,
    noise_reduction,
    sample_run,
)
from conftest import per_mode_draw


def test_vacuum_always_zero():
    rec = sample_run(ExperimentParams(3.0, 0.4, 0.0), 500, seed=1)
    assert np.all(rec.shots == 0)
    assert np.all(sample_run(ExperimentParams(2.0, 0.9, 0.0), 1, seed=0).shots == 0)


def test_lossless_single_mode_perfectly_correlated():
    params = ExperimentParams(1.0, 1.0, 2.0)
    rec = sample_run(params, 2000, seed=3)
    assert np.array_equal(rec.s, rec.t)
    assert rec.s.max() > 0


def test_same_seed_identical_different_seed_differs():
    params = ExperimentParams(25.0, 0.056, 17.1)
    a = sample_run(params, 10_000, seed=42)
    b = sample_run(params, 10_000, seed=42)
    c = sample_run(params, 10_000, seed=43)
    assert np.array_equal(a.shots, b.shots)
    assert not np.array_equal(a.shots, c.shots)


def test_worker_count_does_not_change_the_record():
    params = ExperimentParams(197.0, 0.06, 13.4)
    lone = sample_run(params, 30_000, seed=7, workers=1)
    pooled = sample_run(params, 30_000, seed=7, workers=8)
    assert np.array_equal(lone.shots, pooled.shots)


def test_shot_count_not_multiple_of_block():
    params = ExperimentParams(2.0, 0.3, 1.0)
    rec = sample_run(params, 8192 + 17, seed=5)
    assert len(rec) == 8192 + 17
    # a longer run extends, never rewrites, the shorter one
    longer = sample_run(params, 2 * 8192, seed=5)
    assert np.array_equal(longer.shots[: len(rec) - 17], rec.shots[:-17])


def test_validation():
    good = ExperimentParams(2.0, 0.3, 1.0)
    with pytest.raises(ParameterError):
        sample_run(good, 0, seed=0)
    with pytest.raises(ParameterError):
        sample_run(good, 10, seed=-1)
    with pytest.raises(ParameterError):
        sample_run(good, 10, seed=0, workers=0)
    with pytest.raises(ParameterError):
        sample_run(good, 10, seed=0, workers=True)


def test_refuses_rates_beyond_the_poisson_limit():
    # (M/mu)(mu + 40 sqrt(mu) + 700) is 5.2e18 > 2**62 here, 4.16e18 below it
    with pytest.raises(ParameterError, match="too large to sample"):
        sample_run(ExperimentParams(1e6, 0.5, 5e18), 10, seed=1)
    rec = sample_run(ExperimentParams(1e6, 0.5, 4e18), 10, seed=1)
    assert np.all(np.abs(rec.shots / 4e18 - 1.0) < 0.01)
    # the draw never forms lambda_sq, so a ratio that rounds to 1 is no limit
    params = ExperimentParams(1.0, 1e-6, 1e12)
    assert params.lambda_sq == 1.0
    assert sample_run(params, 1000, seed=1).s.mean() == pytest.approx(1e12, rel=0.2)


def test_sample_mean_within_three_sigma(record_a, params_a):
    m = params_a.mean_counts
    sigma = math.sqrt(m * (1.0 + m / params_a.mu) / len(record_a))
    assert abs(record_a.s.mean() - m) <= 3.0 * sigma
    assert abs(record_a.t.mean() - m) <= 3.0 * sigma


def test_arm_difference_is_centred(record_a):
    diff = record_a.s.astype(float) - record_a.t.astype(float)
    se = diff.std(ddof=1) / math.sqrt(diff.size)
    assert abs(diff.mean()) <= 5.0 * se


def test_noise_reduction_converges(record_a, params_a):
    # at 50k shots the estimator sits well inside five standard errors
    r_hat = noise_reduction(record_a)
    assert abs(r_hat - (1.0 - params_a.eta)) < 0.05


# --- histograms --------------------------------------------------------------


def test_histogram_single_shot():
    rec = ShotRecord(shots=np.array([[2, 3]]))
    h = histogram(rec)
    assert h.probs.shape == (3, 4)
    assert h.probs[2, 3] == 1.0
    assert h.meta["n_shots"] == 1
    assert h.meta["counts"][2, 3] == 1


def test_histogram_order_invariance():
    params = ExperimentParams(25.0, 0.056, 17.1)
    rec = sample_run(params, 5000, seed=9)
    reverse = ShotRecord(shots=rec.shots[::-1].copy())
    assert np.array_equal(histogram(rec).probs, histogram(reverse).probs)


def test_histogram_refuses_oversized_table():
    # two shots with counts of 60000 would need 3.6e9 cells
    rec = ShotRecord(shots=np.array([[60000, 0], [0, 60000]]))
    with pytest.raises(TableSizeError):
        histogram(rec)


def test_histogram_counts_metadata(record_b):
    h = histogram(record_b)
    assert h.meta["counts"].sum() == len(record_b)
    assert float(h.probs.sum()) == pytest.approx(1.0, abs=1e-12)


# --- statistical agreement with the closed form (million-shot oracle) ---------


@pytest.fixture(scope="module")
def big_run_b(params_b):
    return sample_run(params_b, 1_000_000, seed=11)


# Mean counts of 1 keep the histograms to a few hundred occupied cells, so the
# Bhattacharyya deficit of two 2e5-shot histograms of one law (about K/(4n)
# per histogram) stays well inside the 1e-3 margin.
@pytest.mark.parametrize(
    "mu, eta, m",
    [(1, 0.3, 1.0), (1, 1.0, 1.0), (3, 0.3, 1.0), (3, 1.0, 1.0),
     (25, 0.3, 1.0), (25, 1.0, 1.0), (3, 0.3, 0.0)],
)
def test_sampler_matches_per_mode_oracle(mu, eta, m):
    params = ExperimentParams(float(mu), eta, m)
    sampled = histogram(sample_run(params, 200_000, seed=4))
    oracle = histogram(
        ShotRecord(shots=per_mode_draw(params, 200_000, np.random.default_rng(5)))
    )
    assert fidelity(sampled, oracle) >= 0.999
    if eta < 1.0:
        table = joint_table(params, tol=1e-10)
        assert fidelity(sampled, table) >= 0.999
        assert fidelity(oracle, table) >= 0.999


# Pearson chi-square of 2e6 shots against the closed-form law: cells whose
# expected count is at least 5 stand alone, the rest (and all mass outside
# the table) are pooled into one cell; z = (chi2 - dof)/sqrt(2 dof).
@pytest.mark.parametrize("mu, eta, m", [
    (197.0, 0.06, 13.4), (25.0, 0.056, 17.1), (1.0, 0.5, 0.5), (3.0, 0.45, 2.9),
    (2.5, 0.3, 1.0),  # a fitted, non-integer mode count
])
def test_sampler_passes_chi_square_against_joint_table(mu, eta, m):
    n = 2_000_000
    params = ExperimentParams(mu, eta, m)
    expected = n * joint_table(params, tol=1e-12).probs
    counts = histogram(sample_run(params, n, seed=0)).meta["counts"]
    observed = np.zeros(expected.shape)
    rows, cols = min(counts.shape[0], expected.shape[0]), min(counts.shape[1], expected.shape[1])
    observed[:rows, :cols] = counts[:rows, :cols]
    kept = expected >= 5.0
    obs = np.append(observed[kept], n - observed[kept].sum())
    exp = np.append(expected[kept], n - expected[kept].sum())
    chi2 = float(np.sum((obs - exp) ** 2 / exp))
    dof = obs.size - 1
    z = (chi2 - dof) / math.sqrt(2.0 * dof)
    assert abs(z) <= 5.0, (chi2, dof, z)


def test_million_shot_fidelity(big_run_b, table_b):
    assert fidelity(histogram(big_run_b), table_b) >= 0.999


def test_million_shot_marginal_total_variation(big_run_b, params_b):
    emp = histogram(big_run_b).probs.sum(axis=0)
    ref = marginal_dist(params_b, tol=1e-12)
    n = max(len(emp), len(ref))
    a = np.zeros(n)
    a[: len(emp)] = emp
    b = np.zeros(n)
    b[: len(ref)] = ref.probs
    assert 0.5 * np.abs(a - b).sum() <= 0.005


def test_post_selection_reproduces_conditional(record_a, params_a):
    # condition the synthetic record on the trigger value: the in-silico
    # version of conditional preparation
    t_value = 13
    mask = record_a.t == t_value
    selected = record_a.s[mask]
    assert selected.size > 1000
    emp = np.bincount(selected) / selected.size
    model = cond_count_dist(params_a, SelectionRule.exact(t_value), tol=1e-10)
    assert fidelity(emp, model) >= 0.995
    assert abs(selected.mean() - model.mean) < 5.0 * selected.std() / math.sqrt(selected.size)


def test_record_validation():
    with pytest.raises(ParameterError):
        ShotRecord(shots=np.zeros((0, 2), dtype=np.int64))
    with pytest.raises(ParameterError):
        ShotRecord(shots=np.array([[1, 2, 3]]))
    with pytest.raises(ParameterError):
        ShotRecord(shots=np.array([[1, -2]]))
    with pytest.raises(ParameterError):
        ShotRecord(shots=np.array([[1.5, 2.0]]))
    rec = ShotRecord(shots=np.array([[1.0, 2.0]]))  # integral floats accepted
    assert rec.shots.dtype == np.int64


@given(seed=st.integers(0, 2**32), n=st.integers(1, 300))
@settings(max_examples=20, deadline=None)
def test_sample_run_shape_and_domain(seed, n):
    params = ExperimentParams(3.0, 0.5, 2.0)
    rec = sample_run(params, n, seed=seed)
    assert rec.shots.shape == (n, 2)
    assert np.all(rec.shots >= 0)
    assert rec.meta["seed"] == seed
