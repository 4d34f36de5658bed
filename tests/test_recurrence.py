"""The series-free joint law: the recurrence kernel against independent
oracles, across the whole validated domain and at the points where the
log-gamma series lost precision or ran long."""

import decimal
import math
import time
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import stats

from twinbeam import (
    ConvergenceError,
    ExperimentParams,
    SelectionRule,
    TableSizeError,
    TwinbeamError,
    VerificationError,
    build_conditional,
    cond_count_dist,
    conditional_mean,
    joint_prob,
    joint_table,
    log_marginal,
    marginal_dist,
    weight,
)

from twinbeam.core import _MAX_CELLS_DEFAULT as _MAX_CELLS

from conftest import PARAMS_A, PARAMS_B, domain_st

_WALL_BUDGET = 2.0


def _nb_pmf(params: ExperimentParams, n: int) -> np.ndarray:
    """The closed-form single-beam law p2(t), t < n, in 40-digit decimal
    arithmetic (scipy.stats takes p = mu/(mu + M), which at mu = 1e6 keeps
    only ten digits of 1 - p)."""
    with decimal.localcontext() as ctx:
        ctx.prec = 40
        mu, m = Decimal(params.mu), Decimal(params.mean_counts)
        value = (mu * (mu / (mu + m)).ln()).exp()
        out = []
        for t in range(n):
            out.append(float(value))
            value = value * (mu + t) * m / ((mu + m) * (t + 1))
    return np.array(out)


def _check_mass(dist) -> None:
    total = math.fsum(np.ravel(dist.probs).tolist()) + dist.tail_bound
    assert abs(total - 1.0) <= 10.0 * dist.tol, f"mass + tail_bound = {total!r}"


def _check_joint(table) -> None:
    _check_mass(table)
    assert np.array_equal(table.probs, table.probs.T)
    rows = table.probs.sum(axis=1)
    gap = float(np.abs(rows - _nb_pmf(table.params, rows.size)).max())
    assert gap <= 10.0 * table.tol + 1e-12, f"row sums off the marginal by {gap:.3e}"


def _timed(call):
    """The call's result, or None when it raised a TwinbeamError; either way
    within the wall budget, and never a ConvergenceError or a
    VerificationError."""
    start = time.perf_counter()
    try:
        out = call()
    except (ConvergenceError, VerificationError):
        raise
    except TwinbeamError:
        out = None
    elapsed = time.perf_counter() - start
    assert elapsed < _WALL_BUDGET, f"took {elapsed:.2f} s"
    return out


rule_st = st.one_of(
    st.integers(0, 40).map(SelectionRule.exact),
    st.integers(-1, 40).map(SelectionRule.above),
    st.integers(1, 40).map(SelectionRule.below),
)


@given(params=domain_st, rule=rule_st)
@settings(max_examples=40, deadline=None)
def test_whole_domain_returns_valid_results_or_refuses_quickly(params, rule):
    table = _timed(lambda: joint_table(params))
    if table is not None:
        _check_joint(table)
    dist = _timed(lambda: marginal_dist(params))
    if dist is not None:
        _check_mass(dist)
        assert np.abs(dist.probs - _nb_pmf(params, len(dist))).max() <= 1e-10
    dist = _timed(lambda: cond_count_dist(params, rule, verify=True))
    if dist is not None:
        _check_mass(dist)
        _check_mean(params, rule, dist)


def _check_mean(params, rule, dist) -> None:
    """The count mean equals the closed-form mixture mean (M_t at E[t | A])."""
    if rule.kind == "exact":
        mean = conditional_mean(params, rule.threshold)
    else:
        mean = build_conditional(params, rule).mean_counts()
    assert dist.mean == pytest.approx(mean, rel=1e-9)


@pytest.mark.parametrize(
    "params", [PARAMS_A, PARAMS_B, ExperimentParams(2.3, 0.35, 2.1), ExperimentParams(1.0, 0.3, 5.0)],
    ids=["A", "B", "small-mu", "one-mode"],
)
def test_kernel_matches_the_series_cell_by_cell(params):
    table = joint_table(params).probs
    step = max(1, table.shape[0] // 25)
    cells = [(s, t) for s in range(0, table.shape[0], step) for t in range(s, table.shape[0], step)]
    gap = max(abs(table[s, t] - joint_prob(params, s, t)) for s, t in cells)
    assert gap <= 1e-14, f"max deviation {gap:.3e}"


def test_large_mu_joint_table_is_normalised():
    # the log-gamma series assembled a mass of 1.0000000003 here
    table = joint_table(ExperimentParams(1e6, 0.3, 3.0))
    _check_joint(table)


def test_large_mu_approaches_the_poisson_limit():
    # mu -> infinity at fixed M: N ~ Poisson(M/eta) photons in total, each
    # arm thinned binomially.  The gap falls as 1/mu, with coefficient 0.146
    # at this point; a precision loss of the old size (3e-10 in the mass)
    # would break the ratio.
    eta, m = 0.3, 3.0
    gaps = []
    for mu in (1e5, 1e6):
        table = joint_table(ExperimentParams(mu, eta, m)).probs
        n = np.arange(200)
        thin = stats.binom.pmf(np.arange(table.shape[0])[None, :], n[:, None], eta)
        limit = thin.T @ (stats.poisson.pmf(n, m / eta)[:, None] * thin)
        gaps.append(float(np.abs(table - limit).max()))
    assert gaps[1] <= 0.3 / 1e6
    assert 9.9 <= gaps[0] / gaps[1] <= 10.1


def test_large_mu_above_threshold_matches_the_series():
    # the log-gamma marginal made these member weights sum to 0.99999999999357
    params = ExperimentParams(1e4, 0.5, 10.0)
    dist = cond_count_dist(params, SelectionRule.above(1))
    _check_mass(dist)
    p2 = _nb_pmf(params, len(dist))
    success = 1.0 - p2[0] - p2[1]
    for s in range(0, len(dist), 3):
        ref = (p2[s] - joint_prob(params, s, 0) - joint_prob(params, s, 1)) / success
        assert dist.probs[s] == pytest.approx(ref, abs=1e-12)


def test_underflowing_vacuum_corner():
    # p(0, 0) = (1 + (M/mu)(2 - eta))**-mu underflows at both points.  With
    # mu = M = 1e4, P(t <= 1) is about 1e-3000, so the selection is the
    # marginal itself.
    table = joint_table(ExperimentParams(1e4, 0.05, 500.0))
    assert table.probs[0, 0] == 0.0
    _check_joint(table)
    params = ExperimentParams(1e4, 0.5, 1e4)
    dist = _timed(lambda: cond_count_dist(params, SelectionRule.above(1)))
    _check_mass(dist)
    assert np.abs(dist.probs - _nb_pmf(params, len(dist))).max() <= 1e-13
    assert dist.mean == pytest.approx(build_conditional(params, SelectionRule.above(1)).mean_counts(),
                                      rel=1e-12)


def _vacuum_trigger_law(eta: float, m: float, s_max: int) -> np.ndarray:
    """P(s | t = 0) for one mode, in exact rational arithmetic: with r the
    per-mode ratio and a = 1 - eta, it is (1 - ra)/(1 - ra**2) * k**s,
    k = r*a*eta/(1 - r*a**2)."""
    eta_q, m_q = Fraction(eta), Fraction(m)
    nbar = m_q / eta_q
    r, a = nbar / (1 + nbar), 1 - eta_q
    k = r * a * eta_q / (1 - r * a * a)
    first = (1 - r * a) / (1 - r * a * a)
    return np.array([float(first * k**s) for s in range(s_max + 1)])


def test_tiny_efficiency_returns_within_tol_quickly():
    # the series spun for seconds here before failing, or was refused
    for eta in (1e-6, 1e-9):
        params = ExperimentParams(1.0, eta, 0.1)
        start = time.perf_counter()
        table = joint_table(params)
        dist = cond_count_dist(params, SelectionRule.exact(0))
        assert time.perf_counter() - start < 0.5
        _check_joint(table)
        _check_mass(dist)
        assert np.abs(dist.probs - _vacuum_trigger_law(eta, 0.1, len(dist) - 1)).max() <= 1e-14
        column = table.probs[:, 0] / table.probs[:, 0].sum()
        oracle = _vacuum_trigger_law(eta, 0.1, table.shape[0] - 1)
        assert np.abs(column - oracle / oracle.sum()).max() <= 1e-14


def test_wide_threshold_selection_is_fast_and_matches_the_series():
    # O(|A|) work made this take 21 s; the tail column costs O(s_max * t*)
    params = ExperimentParams(1.0, 0.3, 300.0)
    start = time.perf_counter()
    dist = cond_count_dist(params, SelectionRule.above(1))
    assert time.perf_counter() - start < 0.5
    _check_mass(dist)
    p2 = _nb_pmf(params, len(dist))
    success = 1.0 - p2[0] - p2[1]
    for s in range(0, len(dist), 97):
        ref = (p2[s] - joint_prob(params, s, 0) - joint_prob(params, s, 1)) / success
        assert dist.probs[s] == pytest.approx(ref, abs=1e-13)


def test_wide_joint_table_is_fast():
    start = time.perf_counter()
    table = joint_table(ExperimentParams(1.0, 0.3, 40.0))
    assert time.perf_counter() - start < 0.3
    assert table.shape == (1176, 1176)
    _check_joint(table)


def test_wide_strips_are_refused_before_allocating():
    # the strip of P(t | s) up to t = 3000 would hold 2e7 cells
    params = ExperimentParams(1.0, 0.3, 1000.0)
    for rule in (SelectionRule.exact(3000), SelectionRule.from_set([0, 3000])):
        start = time.perf_counter()
        with pytest.raises(TableSizeError):
            cond_count_dist(params, rule)
        assert time.perf_counter() - start < 0.1


def test_huge_counts_take_the_gamma_form():
    # a running sum to 1e9 would allocate gigabytes
    start = time.perf_counter()
    value = log_marginal(PARAMS_A, 10**9)
    assert time.perf_counter() - start < 0.1
    mu, m = PARAMS_A.mu, PARAMS_A.mean_counts
    t = 1e9
    ref = (math.lgamma(t + mu) - math.lgamma(mu) - math.lgamma(t + 1.0)
           + t * math.log(m / (m + mu)) + mu * math.log(mu / (m + mu)))
    assert value == pytest.approx(ref, rel=1e-12)


def test_large_mu_verify_passes():
    # the log-gamma photon weights assembled a mass of 1.0000000005 here
    params = ExperimentParams(1e6, 0.3, 3.0)
    dist = cond_count_dist(params, SelectionRule.exact(2), verify=True)
    _check_mass(dist)
    _check_mean(params, SelectionRule.exact(2), dist)


@pytest.mark.parametrize(
    "point,rule",
    [
        # the log-gamma member weights assembled a mass above 1 beyond
        # rounding (ConvergenceError), at once or after 10 s of members
        ((2663.68, 1.1017e-4, 12.36), SelectionRule.exact(37)),
        ((2.2629, 1.2270e-4, 483.84), SelectionRule.below(38)),
        # over 20 s of member states and thinning kernels
        ((7.4827, 6.4727e-5, 4.5591), SelectionRule.above(7)),
        # over 20 s, then an unbounded loop: 3e11 convolution products now,
        # refused up front
        ((4.0049, 1.9553e-5, 840.40), SelectionRule.above(25)),
    ],
    ids=["exact-large-mu", "below-tiny-eta", "above-slow", "above-unbounded"],
)
def test_verify_returns_or_refuses_quickly(point, rule):
    params = ExperimentParams(*point)
    dist = _timed(lambda: cond_count_dist(params, rule, verify=True))
    if dist is not None:
        _check_mass(dist)
        _check_mean(params, rule, dist)


def test_verify_budget_is_checked_before_the_loop():
    params = ExperimentParams(4.0049, 1.9553e-5, 840.40)
    start = time.perf_counter()
    with pytest.raises(TableSizeError, match="convolution products"):
        cond_count_dist(params, SelectionRule.above(25), verify=True)
    assert time.perf_counter() - start < 0.1
    # the Bayes route alone stays within its own budget
    _check_mass(_timed(lambda: cond_count_dist(params, SelectionRule.above(25))))


def test_marginal_support_budget():
    # (1, 0.3, 1e7) needs 2.76e8 counts; the budget refuses it up front
    start = time.perf_counter()
    with pytest.raises(TableSizeError):
        marginal_dist(ExperimentParams(1.0, 0.3, 1e7))
    assert time.perf_counter() - start < 0.1
    dist = marginal_dist(ExperimentParams(1.0, 0.3, 1e5))
    assert 2_700_000 < len(dist) < _MAX_CELLS
    _check_mass(dist)


def test_threshold_member_budget():
    # above(1) at (1, 0.3, 1e7) lists 2.99e8 trigger values: both calls
    # ran 0.8-2.4 s into a MemoryError under a 3 GiB address-space cap
    params = ExperimentParams(1.0, 0.3, 1e7)
    for call in (build_conditional, cond_count_dist):
        start = time.perf_counter()
        with pytest.raises(TableSizeError, match="trigger values"):
            call(params, SelectionRule.above(1))
        assert time.perf_counter() - start < 0.1
    # 3.0e6 members fit the budget
    mixture = build_conditional(ExperimentParams(1.0, 0.3, 1e5), SelectionRule.above(1))
    assert 2_900_000 < len(mixture.trigger_values) < _MAX_CELLS


def test_weight_at_large_mu_matches_a_decimal_sum():
    # w = C(gamma, t) rr**(gamma-t) (1-rr)**(t+mu) / C(t+mu-1, t) in 40
    # digits, with 1 - rr formed directly and C(t+mu-1, t) as a product
    params = ExperimentParams(1e6, 0.3, 3.0)
    t, gamma = 2, 9
    with decimal.localcontext() as ctx:
        ctx.prec = 40
        mu, eta, m = (Decimal(v) for v in (params.mu, params.eta, params.mean_counts))
        rr = m * (1 - eta) / (m + mu * eta)
        rest = eta * (mu + m) / (m + mu * eta)
        ref = math.comb(gamma, t) * rr ** (gamma - t) * ((t + mu) * rest.ln()).exp()
        for j in range(t):
            ref = ref * (j + 1) / (j + mu)
    assert weight(params, t, gamma) == pytest.approx(float(ref), rel=1e-13)
