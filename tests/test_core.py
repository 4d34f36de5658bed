import decimal
import math
import subprocess
import sys
import time
from decimal import Decimal

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from twinbeam import (
    ExperimentParams,
    ParameterError,
    TableSizeError,
    brute_force_joint,
    joint_prob,
    joint_table,
    log_binomial,
    marginal,
    marginal_dist,
)

from twinbeam.core import _joint_square

from conftest import PARAMS_A, PARAMS_B, domain_st

params_st = st.builds(
    ExperimentParams,
    mu=st.floats(1.0, 250.0),
    eta=st.floats(0.02, 0.95),
    mean_counts=st.floats(0.0, 30.0),
)


# --- log_binomial -----------------------------------------------------------


def test_log_binomial_small_integer():
    assert log_binomial(5.0, 2) == pytest.approx(math.log(10.0), abs=1e-14)


def test_log_binomial_k_zero_is_exact_zero():
    for n in (0.0, 3.0, 17.5, 1e6):
        assert log_binomial(n, 0) == 0.0


def test_log_binomial_vanishing_coefficient():
    assert log_binomial(3.0, 5) == -math.inf


def test_log_binomial_against_exact_integer_oracle():
    # big-integer factorials are exact; math.log of a Python int is accurate.
    # The achievable error is set by cancellation between the lgamma terms:
    # a few ulps at the scale of lgamma(n+1).
    cases = [(197 + 50 - 1, 50), (1000, 3), (123, 61), (10**6, 12)]
    for n, k in cases:
        exact = math.log(math.comb(n, k))
        bound = 4.0 * math.ulp(math.lgamma(n + 1.0)) + 1e-13
        assert abs(log_binomial(float(n), k) - exact) <= bound


def test_log_binomial_rejects_bad_input():
    with pytest.raises(ParameterError):
        log_binomial(5.0, -1)
    with pytest.raises(ParameterError):
        log_binomial(math.inf, 2)
    with pytest.raises(ParameterError):
        log_binomial(-1.0, 0)
    with pytest.raises(ParameterError):
        log_binomial(2.5, 4)  # non-integer n below k: sign-alternating region
    with pytest.raises(ParameterError):
        log_binomial(5.0, 2.0)  # type: ignore[arg-type]


@given(n=st.integers(0, 10**6), k=st.integers(0, 300))
@settings(max_examples=200)
def test_log_binomial_matches_comb(n, k):
    ours = log_binomial(float(n), k)
    if k > n:
        assert ours == -math.inf
    else:
        bound = 4.0 * math.ulp(math.lgamma(n + 1.0)) + 1e-13
        assert abs(ours - math.log(math.comb(n, k))) <= bound


# --- joint_prob -------------------------------------------------------------


def test_joint_prob_vacuum():
    p = ExperimentParams(3.0, 0.4, 0.0)
    assert joint_prob(p, 0, 0) == 1.0
    assert joint_prob(p, 1, 0) == 0.0


def test_joint_prob_lossless_limit_via_oracle():
    # one mode, no loss: perfectly correlated geometric counts
    bf = brute_force_joint(1, 2.0, 1.0)
    assert bf.probs[1, 1] == pytest.approx(2.0 / 9.0, abs=1e-14)
    for s in range(6):
        assert bf.probs[s, s] == pytest.approx((1.0 / 3.0) * (2.0 / 3.0) ** s, abs=1e-13)
    off_diag = bf.probs - np.diag(np.diag(bf.probs))
    assert np.abs(off_diag).max() == 0.0


def test_joint_prob_matches_enumeration_small():
    bf = brute_force_joint(2, 1.0, 0.5)
    p = ExperimentParams(2.0, 0.5, 0.5)
    for s in range(11):
        for t in range(11):
            assert joint_prob(p, s, t) == pytest.approx(bf.probs[s, t], abs=1e-10)


@pytest.mark.parametrize("mu", [1, 2, 3])
@pytest.mark.parametrize("eta", [0.3, 0.5, 0.9])
@pytest.mark.parametrize("n_mean", [0.5, 2.0])
def test_oracle_equivalence_grid(mu, eta, n_mean):
    bf = brute_force_joint(mu, n_mean, eta)
    params = ExperimentParams(float(mu), eta, eta * n_mean)
    k = min(bf.shape[0], 16)
    block = np.array([[joint_prob(params, s, t) for t in range(k)] for s in range(k)])
    assert np.abs(block - bf.probs[:k, :k]).max() <= 1e-10


def test_joint_prob_symmetric_exactly():
    p = ExperimentParams(7.3, 0.21, 4.2)
    for s, t in [(0, 5), (3, 11), (2, 2)]:
        assert joint_prob(p, s, t) == joint_prob(p, t, s)


def test_joint_prob_rejects_unit_eta():
    p = ExperimentParams(1.0, 1.0, 2.0, allow_unit_eta=True)
    with pytest.raises(ParameterError):
        joint_prob(p, 1, 1)


def test_joint_prob_validates_arguments():
    p = ExperimentParams(2.0, 0.5, 1.0)
    with pytest.raises(ParameterError):
        joint_prob(p, -1, 0)
    with pytest.raises(ParameterError):
        joint_prob(p, 0.5, 0)  # type: ignore[arg-type]


def _series_40(params: ExperimentParams, s: int, t: int) -> float:
    """p(s, t) from the paper's series over photon levels l >= max(s, t),
    A**mu B**(s+t) sum_l x**l C(l+mu-1, l) C(l, s) C(l, t), in 40-digit
    decimal arithmetic.  The term ratio falls with l, so the tail after a
    term is at most term * ratio/(1 - ratio); the sum stops when that is
    below 1e-42 of it."""
    with decimal.localcontext() as ctx:
        ctx.prec = 40
        mu, eta, m = (Decimal(v) for v in (params.mu, params.eta, params.mean_counts))
        x = m * (1 - eta) ** 2 / (m + mu * eta)
        s, t = max(s, t), min(s, t)
        term = x**s * math.comb(s, t)
        for j in range(1, s + 1):
            term = term * (mu - 1 + j) / j
        total, level = Decimal(0), s
        while True:
            total += term
            ratio = x * (level + mu) * (level + 1) / ((level + 1 - s) * (level + 1 - t))
            term *= ratio
            level += 1
            if ratio < 1 and term / (1 - ratio) < Decimal("1e-42") * total:
                break
        log_a = (mu * eta / (m + mu * eta)).ln()
        return float((mu * log_a).exp() * (eta / (1 - eta)) ** (s + t) * total)


@pytest.mark.parametrize(
    "params, cells",
    [
        (ExperimentParams(1e6, 0.3, 3.0), [(0, 0), (3, 1), (5, 5), (12, 4), (18, 18), (20, 3)]),
        (PARAMS_A, [(0, 0), (13, 2), (13, 13), (30, 25), (42, 40), (50, 10)]),
    ],
    ids=["large-mu", "A"],
)
def test_joint_prob_matches_the_series_to_40_digits(params, cells):
    # the truncated log-gamma series was 1.5e-11 to 5.3e-10 away at large mu
    for s, t in cells:
        ref = _series_40(params, s, t)
        assert abs(joint_prob(params, s, t) - ref) <= 1e-13 * ref, (s, t)


# --- joint_table -------------------------------------------------------------


def test_joint_table_vacuum_single_cell():
    table = joint_table(ExperimentParams(1.0, 0.99, 0.0))
    assert table.shape == (1, 1)
    assert table.probs[0, 0] == 1.0
    assert table.tail_bound == 0.0


def test_joint_table_mass_and_symmetry(table_a, table_b):
    for table in (table_a, table_b):
        assert 1.0 - 1e-9 <= table.total_mass <= 1.0
        assert np.array_equal(table.probs, table.probs.T)
        assert table.total_mass + table.tail_bound <= 1.0 + 1e-12


def test_joint_table_support_bound(table_b):
    # the few-mode bright beam needs, but does not exceed, a ~90-count box
    assert table_b.shape[0] <= 90


def test_joint_table_matches_cellwise_series(params_b, table_b):
    for s, t in [(0, 0), (5, 17), (30, 2), (12, 12)]:
        assert table_b.probs[s, t] == pytest.approx(
            joint_prob(params_b, s, t), rel=1e-10, abs=1e-15
        )


def test_joint_table_marginal_consistency(params_a, table_a):
    column_sums = table_a.marginal_first()
    for t in range(table_a.shape[1]):
        assert column_sums[t] == pytest.approx(marginal(params_a, t), abs=1e-8)
    # spotlight the near-mean cell
    assert column_sums[13] == pytest.approx(marginal(params_a, 13), abs=1e-8)


def test_joint_table_cell_budget():
    with pytest.raises(TableSizeError) as err:
        joint_table(ExperimentParams(1.0, 0.5, 1e4), tol=1e-12)
    assert "cells" in str(err.value)


def test_quantiles_match_scipy_stats():
    from scipy import stats  # the oracle; the package keeps it off its import path

    from twinbeam.conditional import _thinned_support
    from twinbeam.core import _nb_quantile

    for mu in (1.0, 2.3, 25.0, 197.0, 1000.0):
        for m in (0.1, 1.5, 13.4, 80.0):
            nb = stats.nbinom(mu, mu / (mu + m))
            for q in (1e-15, 2.5e-13, 1e-10, 1e-8):
                k = _nb_quantile(ExperimentParams(mu, 0.3, m), q)
                assert nb.sf(k) <= q and (k == 0 or nb.sf(k - 1) > q)
    for n in (0, 1, 10, 57, 1000, 10**5):
        for eta in (1e-6, 0.056, 0.3, 0.9):
            for tol in (1e-14, 1e-12, 1e-10, 1e-6):
                expected = max(int(stats.binom.isf(tol / 4.0, n, eta)), 4)
                assert _thinned_support(n, eta, tol) == expected


def test_import_leaves_slow_scipy_modules_out():
    code = ("import sys, twinbeam; "
            "print(sorted(m for m in ('scipy.stats', 'scipy.signal', 'scipy.optimize', "
            "'scipy.linalg') "
            "if m in sys.modules))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "[]"


def test_noise_reduction_identity_from_table(table_a, table_b):
    # var(s - t)/mean(s + t) over the exact table equals 1 - eta
    for table in (table_a, table_b):
        probs = table.probs
        idx = np.arange(probs.shape[0])
        s_idx = idx[:, None]
        t_idx = idx[None, :]
        mean_sum = float(((s_idx + t_idx) * probs).sum())
        mean_diff = float(((s_idx - t_idx) * probs).sum())
        var_diff = float((((s_idx - t_idx) ** 2) * probs).sum()) - mean_diff**2
        assert var_diff / mean_sum == pytest.approx(1.0 - table.params.eta, abs=1e-6)


# --- marginal ----------------------------------------------------------------


def test_marginal_single_mode_geometric():
    p = ExperimentParams(1.0, 0.5, 3.0)
    assert marginal(p, 0) == pytest.approx(1.0 / 4.0, rel=1e-12)
    for t in range(8):
        expected = (3.0**t) / (4.0 ** (t + 1))
        assert marginal(p, t) == pytest.approx(expected, rel=1e-11)


def test_marginal_mean_and_variance(params_a):
    dist = marginal_dist(params_a, tol=1e-12)
    assert dist.mean == pytest.approx(13.4, abs=1e-9)
    expected_var = 13.4 * (1.0 + 13.4 / 197.0)
    assert dist.variance() == pytest.approx(expected_var, rel=1e-6)


@given(params=params_st)
@settings(max_examples=60, deadline=None)
def test_marginal_mean_property(params):
    dist = marginal_dist(params, tol=1e-11)
    assert dist.mean == pytest.approx(params.mean_counts, abs=1e-7)


def test_table_sum_matches_marginal_sums(params_b, table_b):
    total_from_marginal = float(
        np.sum([marginal(params_b, t) for t in range(table_b.shape[1])])
    )
    assert table_b.total_mass == pytest.approx(total_from_marginal, abs=1e-10)


# --- brute force oracle -------------------------------------------------------


def test_brute_force_vacuum():
    bf = brute_force_joint(1, 0.0, 0.3)
    assert bf.probs.shape == (1, 1)
    assert bf.probs[0, 0] == 1.0


def test_brute_force_guards():
    with pytest.raises(ParameterError):
        brute_force_joint(5, 1.0, 0.5)
    with pytest.raises(ParameterError):
        brute_force_joint(2, 1.0, 0.0)


def test_joint_prob_at_tiny_efficiency_is_fast_and_exact():
    # x is within 2e-5 of 1 here: the truncated series refused p(0, 0),
    # ran 1.9 s into a ConvergenceError for p(3, 3) and took 1.1 s for the
    # (5, 5) cell at (2.3, 1e-5, 2.1)
    tiny = ExperimentParams(1.0, 1e-6, 0.1)
    for params, s in ((tiny, 0), (tiny, 3), (ExperimentParams(2.3, 1e-5, 2.1), 5)):
        start = time.perf_counter()
        value = joint_prob(params, s, s)
        assert time.perf_counter() - start < 0.1
        assert abs(value - _joint_square(params, s + 1)[s, s]) <= 1e-14


def test_convergence_guard_is_unreachable_for_valid_params():
    # x < 1 holds across the whole domain, so the series converges
    for params in (PARAMS_A, PARAMS_B, ExperimentParams(1.0, 0.02, 30.0)):
        x = (
            params.mean_counts
            * (1.0 - params.eta) ** 2
            / (params.mean_counts + params.mu * params.eta)
        )
        assert x < 1.0
        joint_prob(params, 0, 0)  # does not raise ConvergenceError


@given(params=domain_st, s=st.integers(0, 30), t=st.integers(0, 30))
@example(params=ExperimentParams(1.0, 0.5, 5e-324), s=0, t=0)  # x underflows to 0
@settings(max_examples=60, deadline=None)
def test_joint_prob_is_a_probability(params, s, t):
    value = joint_prob(params, s, t)
    assert 0.0 <= value <= 1.0
    assert value == joint_prob(params, t, s)
    assert abs(value - _joint_square(params, max(s, t) + 1)[s, t]) <= 1e-14
