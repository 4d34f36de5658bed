"""The tail kernel ``core._law_tail``: its heads against the plain running
sum, and its tails against 40-digit decimal sums where the doubles of the
law underflow."""

import decimal
import itertools
import math
import time
import tracemalloc
from decimal import Decimal

import numpy as np
import pytest
from hypothesis import example, given, settings

import twinbeam.conditional as conditional
import twinbeam.core as core
from twinbeam import (
    ConditioningError,
    ConvergenceError,
    ExperimentParams,
    SelectionRule,
    TableSizeError,
    build_conditional,
    cond_count_dist,
    joint_table,
    marginal,
    marginal_dist,
    nongauss_report,
)
from twinbeam.conditional import _ratio
from twinbeam.core import _law_tail, _log_nb_running

from conftest import PARAMS_A, PARAMS_B, _log_uniform, decimal_log_nb, state_odds


def _nb_terms(a: float, odds: float, n: int) -> list:
    """p(0) .. p(n-1) of NB(a, x), x = odds/(1 + odds), for the doubles a
    and odds, in 40 digits."""
    with decimal.localcontext() as ctx:
        ctx.prec = 40
        a, odds = Decimal(a), Decimal(odds)
        x = odds / (1 + odds)
        term, out = (-a * (1 + odds).ln()).exp(), []
        for j in range(n):
            out.append(term)
            term = term * (j + a) * x / (j + 1)
    return out


def _nb_upper(a: float, odds: float, k: int) -> Decimal:
    """P(NB(a, x) > k), x = odds/(1 + odds), in 40 digits, summed until the
    terms fall below 1e-45 of the sum."""
    with decimal.localcontext() as ctx:
        ctx.prec = 40
        a_, x_ = Decimal(a), Decimal(odds) / (1 + Decimal(odds))
        term = _nb_terms(a, odds, k + 2)[-1]
        total, j = Decimal(0), k + 1
        while term > total * Decimal("1e-45"):
            total += term
            term = term * (j + a_) * x_ / (j + 1)
            j += 1
    return total


def test_deep_state_tail_matches_a_decimal_sum():
    # betainc underflowed to 0 here: the state kept 5164 levels with a
    # tail_bound of 0.0, while 2.53e-250 of its photon law lay beyond them
    tol = 1e-270
    state = build_conditional(PARAMS_B, SelectionRule.exact(9), tol=tol)
    k = state.log_levels.size - 1
    true = _nb_upper(9 + PARAMS_B.mu, _ratio(PARAMS_B), k)
    assert true <= Decimal(tol)
    assert abs(Decimal(state.tail_bound) - true) <= Decimal("1e-12") * true


def test_deep_marginal_quantile_matches_a_decimal_sum():
    # betainc gave 813 here; the quantile is 874
    q, mu, m = 2.5e-301, PARAMS_B.mu, PARAMS_B.mean_counts
    odds = m / mu
    k = _law_tail(mu, odds, q)[1]
    assert k == 874
    assert _nb_upper(mu, odds, k) <= Decimal(q) < _nb_upper(mu, odds, k - 1)


@pytest.mark.parametrize("tol", [1e-12, 1e-30, 1e-200])
def test_heads_are_the_running_sum_bit_for_bit(tol):
    for a, odds in ((197.0, 0.068), (42.0, 6.86), (1.0, 1999.0), (2.3, 0.913)):
        head, k, tail = _law_tail(a, odds, tol)
        assert np.array_equal(head, _log_nb_running(a, odds, k + 1))
        assert k + 1 == head.size
        assert 0.0 < tail <= tol


def _counted_sums(monkeypatch) -> list:
    """The lengths of every running sum taken from here on."""
    lengths = []

    def counted(a, odds, n):
        lengths.append(n)
        return _log_nb_running(a, odds, n)

    monkeypatch.setattr(core, "_log_nb_running", counted)
    monkeypatch.setattr(conditional, "_log_nb_running", counted)
    return lengths


def test_a_refilled_head_is_the_running_sum_bit_for_bit(monkeypatch):
    # the first guess of the support falls short at M/mu = 80 and tol 1e-15:
    # the point formula finds the longer length, and the head is summed once
    trials, point = [], core._log_pmf

    def pointed(a, odds, j):
        trials.append(j + 1)
        return point(a, odds, j)

    monkeypatch.setattr(core, "_log_pmf", pointed)
    lengths = _counted_sums(monkeypatch)
    head, k, tail = _law_tail(1.0, 80.0, 1e-15)
    assert len(lengths) == 1 and lengths[0] > trials[0]
    assert np.array_equal(head, _log_nb_running(1.0, 80.0, k + 1))
    assert 0.0 < tail <= 1e-15


def test_a_long_head_is_summed_once(monkeypatch):
    # a first guess of 3,754,398 terms was summed and then summed again at
    # 4,186,538
    lengths = _counted_sums(monkeypatch)
    nongauss_report(ExperimentParams(1.0, 1e-6, 0.1), 0)
    assert lengths == [4_186_538]


_BUILDS = {
    "marginal": marginal_dist,
    "joint": joint_table,
    "exact": lambda p, tol: build_conditional(p, SelectionRule.exact(int(p.mean_counts)), tol),
}


@given(mu=_log_uniform(1.0, 1e6), eta=_log_uniform(1e-9, 0.99), m=_log_uniform(1e-3, 1e8),
       tol=_log_uniform(1e-300, 0.5))
@example(mu=1e4, eta=0.5, m=3.74e6, tol=1e-12)
@example(mu=1e6, eta=0.5, m=3.97e6, tol=1e-12)
@example(mu=2.9046, eta=6.2853e-9, m=44860.5, tol=4.04e-116)
@example(mu=11.857, eta=4.225e-8, m=217510.2, tol=6.857e-89)
@example(mu=12.363, eta=5.865e-7, m=124023.2, tol=6.105e-175)
@settings(max_examples=50, deadline=None)
def test_budget_refusals_come_before_any_sum(mu, eta, m, tol):
    # each example once summed a 4e6-term head before its refusal, with a
    # traced peak of 96-128 MB; the last three summed one twice
    params = ExperimentParams(mu, eta, m)
    with pytest.MonkeyPatch.context() as monkeypatch:
        lengths = _counted_sums(monkeypatch)
        for name, build in _BUILDS.items():
            lengths.clear()
            tracemalloc.start()
            try:
                build(params, tol)
            except TableSizeError:
                peak = tracemalloc.get_traced_memory()[1]
                assert lengths == [] and peak < 2**20, (name, lengths, peak)
            except ConditioningError:
                pass
            finally:
                tracemalloc.stop()


def test_tails_match_decimal_sums():
    for params in (PARAMS_A, PARAMS_B, ExperimentParams(2.3, 0.35, 2.1)):
        for t in (0, 7, 19):
            a, odds = t + params.mu, _ratio(params)
            for tol in (1e-10, 1e-14):
                _, k, tail = _law_tail(a, odds, tol)
                true = _nb_upper(a, odds, k)
                assert abs(Decimal(tail) - true) <= Decimal("1e-13") * true
                assert true <= Decimal(tol) < _nb_upper(a, odds, k - 1)


def test_binomial_tails_end_with_the_support():
    for n, eta in ((0, 0.3), (1, 0.9), (57, 0.056), (400, 0.999)):
        head, k, tail = _law_tail(-float(n), -eta, 1e-12)
        assert k <= n and head.size == k + 1
        assert tail <= 1e-12
    # Bin(n, eta) has no mass beyond n
    assert _law_tail(-5.0, -0.9, 1e-300)[1:] == (5, 0.0)


def test_subnormal_mean_counts_is_the_point_mass_at_zero():
    # the recurrence ratio c = M(1-eta)/(mu + M(2-eta)) underflows to 0 here:
    # above(-1) read [0, 5e-324, 0, ...] with tail_bound 1.0, and below(3)
    # and from_set([0, 2]) raised on NaN probabilities.  At mu = 1e6 the
    # marginal's q = M/(M + mu) underflows too: its running sum read NaN.
    # M = 0 takes the same path and gives the same support
    for mu, m in itertools.product((1.0, 1e6), (5e-324, 0.0)):
        params = ExperimentParams(mu, 0.5, m)
        for rule in (SelectionRule.above(-1), SelectionRule.below(3),
                     SelectionRule.from_set([0, 2])):
            dist = cond_count_dist(params, rule, verify=True)
            assert dist.probs[0] == 1.0 and dist.tail_bound == 0.0
            assert np.all(dist.probs[2:] == 0.0) and len(dist) == 5
            if m == 0.0:
                assert np.array_equal(dist.probs, [1.0, 0.0, 0.0, 0.0, 0.0])
        assert marginal(params, 0) == 1.0 and marginal(params, 2) == 0.0
    assert np.array_equal(_log_nb_running(1.0, 0.0, 3), [0.0, -np.inf, -np.inf])


def test_above_rules_check_the_whole_marginal(monkeypatch):
    # P(A) is the listed mass plus the kernel's tail, so only the whole law
    # against its exact total 1 can catch an error in the running sum
    kernel = conditional._law_tail

    def drifted(*args, **kwargs):
        head, k, tail = kernel(*args, **kwargs)
        return head + math.log1p(1e-11), k, tail

    monkeypatch.setattr(conditional, "_law_tail", drifted)
    with pytest.raises(ConvergenceError):
        build_conditional(PARAMS_A, SelectionRule.above(3))


def test_a_long_below_rule_is_refused_quickly():
    # 5e6 trigger values: their marginal is one running sum, not 5e6 calls
    # of a Python log-gamma, and the recurrence budget refuses the rule
    start = time.perf_counter()
    with pytest.raises(TableSizeError):
        cond_count_dist(PARAMS_A, SelectionRule.below(5_000_001))
    assert time.perf_counter() - start < 3.0


def test_a_wide_below_rule_is_refused_before_listing_its_values():
    # the rule's width alone needs (4 + width)(width + 1) > 8e6 recurrence
    # cells: listing 4e6 trigger values first took 0.32 s and 183 MiB
    rule = SelectionRule.below(4_000_000)
    tracemalloc.start()
    try:
        start = time.perf_counter()
        with pytest.raises(TableSizeError, match="recurrence cells"):
            cond_count_dist(PARAMS_A, rule)
        elapsed = time.perf_counter() - start
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert elapsed < 0.01 and peak < 10 * 2**20
    # the mixture itself needs no recurrence cells
    assert len(build_conditional(PARAMS_A, rule).trigger_values) == 4_000_000


def test_a_huge_state_matches_decimal_values_at_both_ends():
    # 19,376,966 levels: the running sum from a rounded ratio was +2.9e-10
    # off at level 0 and -7.9e-10 at the last
    params = ExperimentParams(2.08, 3.42e-6, 46.8)
    state = build_conditional(params, SelectionRule.exact(18))
    assert state.log_levels.size == 19_376_966
    odds = state_odds(params)
    for j in (0, state.log_levels.size - 1):
        ref = decimal_log_nb(18 + params.mu, odds, j)
        assert abs(state.log_levels[j] - float(ref)) <= 1e-13, j


@pytest.mark.parametrize("params,triggers", [(PARAMS_A, (0, 5, 11, 20, 40)),
                                             (PARAMS_B, (0, 7, 13, 19, 30))], ids=["A", "B"])
def test_states_at_a_and_b_match_decimal_values(params, triggers):
    # the steps from a rounded ratio left 3.0e-14 (A) and 3.7e-14 (B)
    odds = state_odds(params)
    for t in triggers:
        levels = build_conditional(params, SelectionRule.exact(t)).log_levels
        for j in np.linspace(0, levels.size - 1, 25).astype(int).tolist():
            ref = decimal_log_nb(t + params.mu, odds, j)
            assert abs(math.expm1(levels[j] - float(ref))) <= 1.5e-14, (t, j)


def test_huge_thresholds_are_refused_before_listing_the_marginal():
    # above(t*) summed the marginal up to t* before finding P(A) vanishing,
    # and below(t*) listed t* values before any budget: tens of MB here,
    # GiB at t* = 1e8, where the command line ended in a MemoryError
    tracemalloc.start()
    try:
        with pytest.raises(ConditioningError, match="vanishing probability"):
            build_conditional(PARAMS_A, SelectionRule.above(10**6))
        with pytest.raises(TableSizeError, match="trigger values"):
            build_conditional(PARAMS_A, SelectionRule.below(4_000_001))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20
    # the bound refuses only vanishing selections: above(200) at A is 1e-114
    assert 0.0 < build_conditional(PARAMS_A, SelectionRule.above(200)).success_prob < 1e-100
