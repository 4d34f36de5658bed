"""The tail kernel ``core._law_tail``: its heads against the plain running
sum, and its tails against 40-digit decimal sums where the doubles of the
law underflow."""

import decimal
import math
import time
from decimal import Decimal

import numpy as np
import pytest

import twinbeam.conditional as conditional
import twinbeam.core as core
from twinbeam import (
    ConvergenceError,
    ExperimentParams,
    SelectionRule,
    TableSizeError,
    build_conditional,
    cond_count_dist,
    marginal,
)
from twinbeam.conditional import _ratio
from twinbeam.core import _law_tail, _log_nb_running

from conftest import PARAMS_A, PARAMS_B


def _nb_terms(a: float, x: float, n: int) -> list:
    """p(0) .. p(n-1) of NB(a, x) for the doubles a and x, in 40 digits."""
    with decimal.localcontext() as ctx:
        ctx.prec = 40
        a, x = Decimal(a), Decimal(x)
        term, out = (a * (1 - x).ln()).exp(), []
        for j in range(n):
            out.append(term)
            term = term * (j + a) * x / (j + 1)
    return out


def _nb_upper(a: float, x: float, k: int) -> Decimal:
    """P(NB(a, x) > k) in 40 digits, summed until the terms fall below 1e-45
    of the sum."""
    with decimal.localcontext() as ctx:
        ctx.prec = 40
        a_, x_ = Decimal(a), Decimal(x)
        term = _nb_terms(a, x, k + 2)[-1]
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
    true = _nb_upper(9 + PARAMS_B.mu, _ratio(PARAMS_B)[0], k)
    assert true <= Decimal(tol)
    assert abs(Decimal(state.tail_bound) - true) <= Decimal("1e-12") * true


def test_deep_marginal_quantile_matches_a_decimal_sum():
    # betainc gave 813 here; the quantile is 874
    q, mu, m = 2.5e-301, PARAMS_B.mu, PARAMS_B.mean_counts
    ratio = m / (m + mu)
    k = _law_tail(mu, ratio, q)[1]
    assert k == 874
    assert _nb_upper(mu, ratio, k) <= Decimal(q) < _nb_upper(mu, ratio, k - 1)


@pytest.mark.parametrize("tol", [1e-12, 1e-30, 1e-200])
def test_heads_are_the_running_sum_bit_for_bit(tol):
    for a, x in ((197.0, 0.0637), (42.0, 0.8726), (1.0, 0.9995), (2.3, 0.4773)):
        head, k, tail = _law_tail(a, x, tol)
        assert np.array_equal(head, _log_nb_running(a, x, k + 1))
        assert k + 1 == head.size
        assert 0.0 < tail <= tol


def test_a_refilled_head_is_the_running_sum_bit_for_bit(monkeypatch):
    # the first guess of the support falls short at M/mu = 80 and tol 1e-15,
    # so the head is summed a second time at the longer length
    lengths, running = [], core._log_nb_running

    def counted(a, x, n, start=None):
        lengths.append(n)
        return running(a, x, n, start)

    monkeypatch.setattr(core, "_log_nb_running", counted)
    start, x = -math.log1p(80.0), 80.0 / 81.0
    head, k, tail = _law_tail(1.0, x, 1e-15, start=start)
    assert len(lengths) == 2 and lengths[0] < lengths[1]
    assert np.array_equal(head, running(1.0, x, k + 1, start))
    assert 0.0 < tail <= 1e-15


def test_tails_match_decimal_sums():
    for params in (PARAMS_A, PARAMS_B, ExperimentParams(2.3, 0.35, 2.1)):
        for t in (0, 7, 19):
            a, x = t + params.mu, _ratio(params)[0]
            for tol in (1e-10, 1e-14):
                _, k, tail = _law_tail(a, x, tol)
                true = _nb_upper(a, x, k)
                assert abs(Decimal(tail) - true) <= Decimal("1e-13") * true
                assert true <= Decimal(tol) < _nb_upper(a, x, k - 1)


def test_binomial_tails_end_with_the_support():
    for n, eta in ((0, 0.3), (1, 0.9), (57, 0.056), (400, 0.999)):
        head, k, tail = _law_tail(-float(n), -eta / (1.0 - eta), 1e-12)
        assert k <= n and head.size == k + 1
        assert tail <= 1e-12
    # Bin(n, eta) has no mass beyond n
    assert _law_tail(-5.0, -0.9 / 0.1, 1e-300)[1:] == (5, 0.0)


def test_subnormal_mean_counts_is_the_point_mass_at_zero():
    # the recurrence ratio c = M(1-eta)/(mu + M(2-eta)) underflows to 0 here:
    # above(-1) read [0, 5e-324, 0, ...] with tail_bound 1.0, and below(3)
    # and from_set([0, 2]) raised on NaN probabilities.  At mu = 1e6 the
    # marginal's q = M/(M + mu) underflows too: its running sum read NaN
    for mu in (1.0, 1e6):
        params = ExperimentParams(mu, 0.5, 5e-324)
        for rule in (SelectionRule.above(-1), SelectionRule.below(3),
                     SelectionRule.from_set([0, 2])):
            dist = cond_count_dist(params, rule, verify=True)
            assert dist.probs[0] == 1.0 and dist.tail_bound == 0.0
            assert np.all(dist.probs[2:] == 0.0)
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
