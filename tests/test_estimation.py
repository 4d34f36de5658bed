import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from twinbeam import (
    DegenerateRecordError,
    ExperimentParams,
    ParameterError,
    ShotRecord,
    TableSizeError,
    estimate_params,
    fidelity,
    joint_table,
    noise_reduction,
    sample_run,
)
from twinbeam import estimation
from twinbeam.core import _log_nb_arr

from conftest import bootstrap_errors, cell_tally


# --- noise reduction -----------------------------------------------------------


def test_noise_reduction_perfect_correlation():
    shots = np.column_stack([np.arange(1, 101), np.arange(1, 101)])
    assert noise_reduction(ShotRecord(shots=shots)) == 0.0


def test_noise_reduction_independent_poisson_arms():
    rng = np.random.default_rng(21)
    shots = np.column_stack([rng.poisson(8.0, 40_000), rng.poisson(8.0, 40_000)])
    r = noise_reduction(ShotRecord(shots=shots))
    assert r == pytest.approx(1.0, abs=0.03)


def test_noise_reduction_recovers_efficiency(record_a, params_a):
    est = estimate_params(record_a, n_bootstrap=200, bootstrap_seed=0,
                          compute_fidelity=False)
    r_hat = est.R_hat
    se = est.standard_errors["R"]
    assert abs(r_hat - (1.0 - params_a.eta)) <= 5.0 * se


def test_noise_reduction_degenerate_records():
    with pytest.raises(DegenerateRecordError):
        noise_reduction(ShotRecord(shots=np.array([[1, 1]])))
    with pytest.raises(DegenerateRecordError):
        noise_reduction(ShotRecord(shots=np.zeros((10, 2), dtype=np.int64)))


# --- parameter recovery -----------------------------------------------------------


def test_recovery_within_ten_percent(closure_record_a, closure_record_b, params_a, params_b):
    for rec, truth in ((closure_record_a, params_a), (closure_record_b, params_b)):
        est = estimate_params(rec, n_bootstrap=0, compute_fidelity=False)
        assert abs(est.M_hat - truth.mean_counts) / truth.mean_counts < 0.10
        assert abs(est.eta_hat - truth.eta) / truth.eta < 0.10
        assert abs(est.mu_hat - truth.mu) / truth.mu < 0.10
        assert est.R_hat == pytest.approx(1.0 - est.eta_hat, abs=1e-15)


def test_recovery_single_mode_regime():
    rec = sample_run(ExperimentParams(1.0, 0.5, 2.0), 50_000, seed=0)
    est = estimate_params(rec, n_bootstrap=0, compute_fidelity=False)
    assert 0.8 <= est.mu_hat <= 1.3


def test_ml_refinement_stays_close():
    truth = ExperimentParams(1.0, 0.5, 2.0)
    rec = sample_run(truth, 50_000, seed=0)
    est = estimate_params(rec, refine=True, n_bootstrap=0, compute_fidelity=False)
    assert 0.8 <= est.mu_hat <= 1.3
    assert est.M_hat == pytest.approx(truth.mean_counts, rel=0.05)
    assert any("maximum likelihood" in d for d in est.diagnostics)


def test_poisson_record_hits_unbounded_mu_diagnostic():
    rng = np.random.default_rng(5)
    shots = np.column_stack([rng.poisson(5.0, 2000), rng.poisson(5.0, 2000)])
    est = estimate_params(ShotRecord(shots=shots), compute_fidelity=False)
    assert math.isinf(est.mu_hat)
    assert any("unbounded" in d for d in est.diagnostics)
    # sub-multithermal: no mu error, finite errors for the rest
    assert math.isinf(est.standard_errors["mu"])
    for key in ("M", "R", "eta"):
        assert 0.0 < est.standard_errors[key] < math.inf, key


def test_variance_equal_to_the_mean_leaves_mu_and_its_error_unbounded():
    # s = t with var(s) = mean(s) = 120/102: the excess variance is 0, so
    # mu and its error are both inf
    counts = np.repeat([0, 1, 2, 3, 4], [26, 53, 7, 11, 5])
    est = estimate_params(ShotRecord(shots=np.column_stack([counts, counts])),
                          compute_fidelity=False)
    assert est.mu_hat == math.inf
    assert est.standard_errors["mu"] == math.inf
    assert any("mu unbounded" in d for d in est.diagnostics)


def test_noise_reduction_is_the_reports_r_hat(record_a, record_b):
    for rec in (record_a, record_b):
        assert noise_reduction(rec) == estimate_params(rec, compute_fidelity=False).R_hat


def test_bootstrap_spread_shrinks_with_shots(params_b):
    spreads = []
    for n in (1_000, 10_000, 100_000):
        rec = sample_run(params_b, n, seed=2)
        est = estimate_params(rec, n_bootstrap=100, bootstrap_seed=1,
                              compute_fidelity=False)
        spreads.append((est.standard_errors["M"], est.standard_errors["eta"]))
    for (m_hi, eta_hi), (m_lo, eta_lo) in zip(spreads, spreads[1:]):
        assert m_lo < m_hi
        assert eta_lo < eta_hi


def test_bootstrap_is_deterministic(record_b):
    # the bootstrap arguments are kept for compatibility and ignored: the
    # delta-method errors draw no resamples
    errors = estimate_params(record_b, compute_fidelity=False).standard_errors
    assert list(errors) == ["M", "R", "eta", "mu"]
    for n_bootstrap, seed in ((0, 0), (1, 5), (50, 9), (5_000, 123), (-3, -1)):
        report = estimate_params(record_b, n_bootstrap=n_bootstrap, bootstrap_seed=seed,
                                 compute_fidelity=False)
        assert report.standard_errors == errors


@pytest.mark.parametrize("params,shots", [
    (ExperimentParams(25.0, 0.056, 17.1), 10_000),
    (ExperimentParams(25.0, 0.056, 17.1), 100_000),
    # at A the skewed mu = M**2/E needs 3e5 shots before its bootstrap
    # spread settles near the delta-method error
    (ExperimentParams(197.0, 0.06, 13.4), 300_000),
    (ExperimentParams(2.0, 0.5, 3.0), 10_000),
])
def test_errors_match_a_5000_resample_bootstrap(params, shots):
    record = sample_run(params, shots, seed=1)
    errors = estimate_params(record, compute_fidelity=False).standard_errors
    oracle = bootstrap_errors(record.s.astype(float), record.t.astype(float), 5_000, seed=0)
    for key, se in oracle.items():
        assert errors[key] == pytest.approx(se, rel=0.05), key


def _shot_bootstrap_errors(record: ShotRecord, n_bootstrap: int, seed: int) -> dict:
    """Oracle: bootstrap standard errors by resampling shot indices."""
    rng = np.random.default_rng(seed)
    s = record.s.astype(float)
    t = record.t.astype(float)
    stats = {"M": [], "eta": [], "mu": []}
    for _ in range(n_bootstrap):
        idx = rng.integers(0, s.size, size=s.size)
        bs, bt = s[idx], t[idx]
        m = 0.5 * float(np.mean(bs + bt))
        excess = 0.5 * (np.var(bs, ddof=1) + np.var(bt, ddof=1)) - m
        stats["M"].append(m)
        stats["eta"].append(1.0 - float(np.var(bs - bt, ddof=1)) / (2.0 * m))
        stats["mu"].append(m**2 / excess if excess > 0.0 else math.inf)
    out = {}
    for key, values in stats.items():
        values = np.array(values)
        out[key] = float(np.std(values[np.isfinite(values)], ddof=1))
    return out


def test_cell_bootstrap_matches_shot_resampling(params_b):
    # the oracle's multinomial cell weights against drawn shot indices
    rec = sample_run(params_b, 5_000, seed=3)
    cells = bootstrap_errors(rec.s.astype(float), rec.t.astype(float), 2_000, seed=1)
    oracle = _shot_bootstrap_errors(rec, 2_000, seed=2)
    for key, se in oracle.items():
        assert abs(cells[key] - se) <= 0.1 * se, key


def test_bootstrap_memory_stays_small(params_b):
    rec = sample_run(params_b, 100_000, seed=4)
    tracemalloc.start()
    try:
        estimate_params(rec, compute_fidelity=False)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2**20


# --- cell tally ----------------------------------------------------------------


def _row_sort_tally(s: np.ndarray, t: np.ndarray):
    """Oracle: the distinct (s, t) rows and their counts by a sort of the
    (n, 2) rows, the tally the bootstrap used before the 1-D key."""
    return np.unique(np.column_stack([s, t]).astype(float), axis=0, return_counts=True)


_BIG = 2**62  # s * (max t + 1) + t would overflow int64 here
_count = st.one_of(st.integers(0, 6), st.integers(0, 10**9), st.integers(_BIG - 3000, _BIG + 3000))


@given(shots=st.lists(st.tuples(_count, _count), min_size=1, max_size=300))
@example(shots=[(4, 4)] * 7)  # one cell
@example(shots=[(s, 0) for s in (3, 1, 4, 1, 5, 9, 2, 6)])  # an all-zero arm
@example(shots=[(_BIG + 2048 * i, _BIG - 1000 * i) for i in range(6)] * 2)  # both arms near 2**62
@settings(max_examples=150, deadline=None)
def test_cell_tally_matches_row_sort(shots):
    record = ShotRecord(shots=np.array(shots, dtype=np.int64))
    s, t = record.s.astype(float), record.t.astype(float)
    cells, counts = cell_tally(s, t)
    ref_cells, ref_counts = _row_sort_tally(s, t)
    assert np.array_equal(cells, ref_cells)
    assert np.array_equal(counts, ref_counts)


def test_bootstrap_runs_on_counts_near_2_62():
    rng = np.random.default_rng(8)
    shots = _BIG + rng.integers(0, 10**13, size=(500, 2))
    report = estimate_params(ShotRecord(shots=shots), compute_fidelity=False)
    assert all(0.0 < se < math.inf for se in report.standard_errors.values())


# --- maximum-likelihood refinement -----------------------------------------------


def _nelder_mead_refine(counts: np.ndarray, mu0: float, m0: float):
    """Oracle: the joint (mu, M) likelihood minimised by Nelder-Mead from the
    moment estimates, as the refinement was done before the profile root;
    returns the estimates and the negative log-likelihood function."""
    from scipy import optimize  # the package keeps it off its import path

    values, weights = np.unique(counts, return_counts=True)
    w = weights.astype(float)

    def nll(mu: float, m: float) -> float:
        if mu < 1.0 or m <= 0.0:
            return math.inf
        return -float(w @ _log_nb_arr(mu, m, values))

    x0 = np.array([min(max(mu0, 1.0), 1e6), max(m0, 1e-9)])
    res = optimize.minimize(
        lambda x: nll(*x), x0, method="Nelder-Mead",
        bounds=[(1.0, None), (1e-12, None)],
        options={"xatol": 1e-6, "fatol": 1e-9, "maxiter": 2000},
    )
    return float(res.x[0]), float(res.x[1]), nll


_CLOSURE_GRID = [
    ExperimentParams(mu, eta, m) for mu in (1.0, 2.0, 3.0) for eta in (0.2, 0.35, 0.5)
    for m in (1.6, 2.3, 3.0)
] + [ExperimentParams(25.0, 0.056, 17.1)]


def test_ml_root_matches_nelder_mead():
    # at (1, 0.2, 1.6) Nelder-Mead stops on the mu = 1 bound, while the ML mu
    # is 1.0016: there only the likelihoods are compared
    for params in _CLOSURE_GRID:
        record = sample_run(params, 20_000, seed=0)
        moments = estimate_params(record, n_bootstrap=0, compute_fidelity=False)
        refined = estimate_params(record, refine=True, n_bootstrap=0, compute_fidelity=False)
        mu_nm, m_nm, nll = _nelder_mead_refine(
            np.concatenate([record.s, record.t]), moments.mu_hat, moments.M_hat)
        best = nll(mu_nm, m_nm)
        assert nll(refined.mu_hat, refined.M_hat) <= best + 1e-9 * abs(best), params
        if mu_nm > 1.001:
            assert refined.mu_hat == pytest.approx(mu_nm, rel=1e-6), params
            assert refined.M_hat == pytest.approx(m_nm, rel=1e-6), params


def test_ml_root_clamps_and_caps_with_diagnostics():
    rng = np.random.default_rng(4)
    for counts, mu, note in (
        (rng.negative_binomial(0.3, 0.1, size=5_000), 1.0, "clamped"),
        (rng.poisson(5.0, size=5_000), 1e6, "capped"),
    ):
        diagnostics: list[str] = []
        mu_ml, m_ml = estimation._ml_refine(counts, diagnostics)
        assert mu_ml == mu and m_ml == np.mean(counts)
        assert len(diagnostics) == 1 and note in diagnostics[0]


def test_ml_refinement_refuses_huge_counts():
    counts = np.array([0, 3, 10**9, 7] * 50, dtype=np.int64)
    with pytest.raises(TableSizeError):
        estimation._ml_refine(counts, [])


def test_estimate_needs_enough_shots():
    with pytest.raises(DegenerateRecordError):
        estimate_params(ShotRecord(shots=np.ones((50, 2), dtype=np.int64)))


def test_report_fidelity_scores_model_agreement(record_b, params_b, table_b):
    est = estimate_params(record_b, n_bootstrap=0)
    assert est.fidelity is not None and est.fidelity >= 0.99
    # and the table built from the estimates agrees with the true table
    recovered = joint_table(est.params(), tol=1e-8)
    assert fidelity(recovered, table_b) >= 0.99


def test_fidelity_is_none_where_no_model_table_fits_the_budget():
    # the recovered point needs a table of over 2000**2 cells at tol 1e-8
    record = sample_run(ExperimentParams(25, 0.5, 3000), 2000, 1)
    report = estimate_params(record)
    assert report.fidelity is None
    assert report.M_hat == pytest.approx(3000, rel=0.1)
    assert 0.0 < report.eta_hat < 1.0 and math.isfinite(report.mu_hat)
    assert any(note.startswith("fidelity skipped: table needs over")
               for note in report.diagnostics)


# --- fidelity ------------------------------------------------------------------


def test_fidelity_identity(table_b):
    assert fidelity(table_b, table_b) == 1.0


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_fidelity_rejects_non_finite_tables(bad):
    table = np.array([[0.5, 0.25], [0.25, bad]])
    with pytest.raises(ParameterError):
        fidelity(table, table)
    with pytest.raises(ParameterError):
        fidelity(np.array([0.5, 0.5]), np.array([bad, 0.5]))


def test_fidelity_disjoint_support():
    a = np.array([1.0, 0.0])
    b = np.array([0.0, 1.0])
    assert fidelity(a, b) == 0.0


def test_fidelity_empty_overlap_is_zero():
    assert fidelity(np.zeros(3), np.array([0.0, 1.0])) == 0.0


def test_fidelity_symmetric_and_padded(table_a, table_b):
    small = table_b.probs[:40, :40]
    assert fidelity(small, table_b.probs) == pytest.approx(
        fidelity(table_b.probs, small), abs=1e-15
    )


def test_fidelity_allocates_only_the_overlap():
    # a union of the two supports would be 3000 x 3000 cells (72 MB)
    a, b = np.full((3000, 1), 1.0 / 3000), np.full((1, 3000), 1.0 / 3000)
    tracemalloc.start()
    try:
        value = fidelity(a, b)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert value == pytest.approx(1.0 / 3000, rel=1e-12)
    assert peak < 2**20


def test_fidelity_shift_invariance():
    rng = np.random.default_rng(3)
    a = rng.random((6, 6))
    b = rng.random((6, 6))
    base = fidelity(a, b)
    shifted_a = np.zeros((9, 9))
    shifted_b = np.zeros((9, 9))
    shifted_a[2:8, 2:8] = a
    shifted_b[2:8, 2:8] = b
    assert fidelity(shifted_a, shifted_b) == pytest.approx(base, rel=1e-12)


@given(
    n=st.integers(1, 12),
    seed=st.integers(0, 10_000),
)
@settings(max_examples=50)
def test_fidelity_properties(n, seed):
    rng = np.random.default_rng(seed)
    a = rng.random(n)
    b = rng.random(n)
    a /= a.sum()
    b /= b.sum()
    f_ab = fidelity(a, b)
    assert 0.0 <= f_ab <= 1.0
    assert f_ab == pytest.approx(fidelity(b, a), abs=1e-15)
    assert fidelity(a, a) == pytest.approx(1.0, abs=1e-12)
