import decimal
import math
import subprocess
import sys
import threading
import time
import weakref
from decimal import Decimal

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from twinbeam import (
    ExperimentParams,
    ParameterError,
    SelectionRule,
    TableSizeError,
    TwinbeamError,
    build_conditional,
    cond_count_dist,
    joint_prob,
    joint_table,
    log_marginal,
    marginal,
    marginal_dist,
    nongauss_report,
    povm_count_dist,
    sample_run,
)

from twinbeam import core, serialize
from twinbeam.core import _joint_square, _marginal_probs

from conftest import PARAMS_A, PARAMS_B, brute_force_joint, domain_st

params_st = st.builds(
    ExperimentParams,
    mu=st.floats(1.0, 250.0),
    eta=st.floats(0.02, 0.95),
    mean_counts=st.floats(0.0, 30.0),
)


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
    p = ExperimentParams(1.0, 1.0, 2.0)
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
    column_sums = table_a.probs.sum(axis=1)
    for t in range(table_a.shape[1]):
        assert column_sums[t] == pytest.approx(marginal(params_a, t), abs=1e-8)
    # spotlight the near-mean cell
    assert column_sums[13] == pytest.approx(marginal(params_a, 13), abs=1e-8)


def test_joint_table_cell_budget():
    with pytest.raises(TableSizeError) as err:
        joint_table(ExperimentParams(1.0, 0.5, 1e4), tol=1e-12)
    assert "cells" in str(err.value)


# --- joint_table reuse ---------------------------------------------------------


def test_a_repeated_table_is_the_one_built_and_formats_as_a_fresh_build():
    params = ExperimentParams(25.0, 0.056, 17.1)
    core._JOINT_TABLES.clear()
    table = joint_table(params, tol=1e-8)
    assert joint_table(ExperimentParams(25, 0.056, 17.1), 1e-8) is table
    core._JOINT_TABLES.clear()
    fresh = joint_table(params, tol=1e-8)
    assert fresh is not table
    for fmt in ("csv", "json"):
        assert serialize.format_table(fresh, fmt) == serialize.format_table(table, fmt)


def test_another_tol_or_params_is_another_table():
    table = joint_table(PARAMS_B, tol=1e-8)
    other_tol = joint_table(PARAMS_B, tol=1e-9)
    other_params = joint_table(ExperimentParams(25.0, 0.056, 17.2), tol=1e-8)
    assert other_tol is not table and other_tol.tol == 1e-9
    assert other_params is not table and other_params.params.mean_counts == 17.2
    assert joint_table(PARAMS_B, tol=1e-8) is table


def test_eight_other_tables_push_the_first_out():
    core._JOINT_TABLES.clear()
    first = joint_table(PARAMS_B, tol=1e-8)
    for mean in range(1, 8):
        joint_table(ExperimentParams(2.0, 0.5, float(mean)), tol=1e-8)
    assert joint_table(PARAMS_B, tol=1e-8) is first  # 7 others: still kept, now most recent
    for mean in range(11, 19):
        joint_table(ExperimentParams(2.0, 0.5, float(mean)), tol=1e-8)
    again = joint_table(PARAMS_B, tol=1e-8)
    assert again is not first and np.array_equal(again.probs, first.probs)


def test_a_table_over_the_kept_size_is_not_kept():
    table = joint_table(ExperimentParams(1.0, 0.5, 100.0), tol=1e-8)
    assert table.probs.size > core._JOINT_TABLES.max_cells
    ref = weakref.ref(table)
    del table
    assert ref() is None


def test_threads_asking_for_one_table_share_it():
    core._JOINT_TABLES.clear()
    tables, errors = [], []

    def ask():
        try:
            tables.append(joint_table(PARAMS_A, tol=1e-9))
        except Exception as exc:  # noqa: BLE001 - reported by the assertion below
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=ask) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == [] and len(tables) == 8
    assert all(np.array_equal(t.probs, tables[0].probs) for t in tables)
    # each thread returned the table kept first, whether or not it built one
    assert all(t is tables[0] for t in tables)
    assert joint_table(PARAMS_A, tol=1e-9) is tables[0]


def test_quantiles_match_scipy_stats():
    from scipy import stats  # the oracle; the package keeps it off its import path

    from twinbeam.core import _law_tail

    for mu in (1.0, 2.3, 25.0, 197.0, 1000.0):
        for m in (0.1, 1.5, 13.4, 80.0):
            nb = stats.nbinom(mu, mu / (mu + m))
            for q in (1e-15, 2.5e-13, 1e-10, 1e-8):
                k = _law_tail(mu, m / mu, q)[1]
                assert nb.sf(k) <= q and (k == 0 or nb.sf(k - 1) > q)
    for n in (0, 1, 10, 57, 1000, 10**5):
        for eta in (1e-6, 0.056, 0.3, 0.9):
            for tol in (1e-14, 1e-12, 1e-10, 1e-6):
                expected = max(int(stats.binom.isf(tol / 4.0, n, eta)), 4)
                assert max(_law_tail(-float(n), -eta, tol / 4.0)[1], 4) == expected


_SCIPY_LOADED = ("print(sorted(m for m in sys.modules "
                 "if m == 'scipy' or m.startswith('scipy.')))")


def test_import_leaves_slow_scipy_modules_out():
    # neither the package nor its command line loads any scipy module
    runs = [
        f"import sys, twinbeam; {_SCIPY_LOADED}",
        "import runpy, sys\n"
        "sys.argv = ['twinbeam', '--help']\n"
        "try:\n"
        "    runpy.run_module('twinbeam', run_name='__main__')\n"
        "except SystemExit:\n"
        "    pass\n"
        f"{_SCIPY_LOADED}",
    ]
    for code in runs:
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert out.returncode == 0, out.stderr
        assert out.stdout.strip().splitlines()[-1] == "[]"


_ENTRY_POINTS = """
import sys, tempfile
import twinbeam as tb
rules = [tb.SelectionRule.exact(3), tb.SelectionRule.above(2), tb.SelectionRule.below(4),
         tb.SelectionRule.from_set([0, 2, 5])]
for params in (tb.ExperimentParams(197.0, 0.06, 13.4), tb.ExperimentParams(2.0, 0.5, 3.0)):
    table = tb.joint_table(params)
    tb.marginal_dist(params)
    for rule in rules:
        tb.cond_count_dist(params, rule, verify=True)
        tb.build_conditional(params, rule)
    tb.nongauss_report(params, 3)
    tb.sweep("eta", [params.eta], {"M_t": 2.0, "t": 3, "mu": params.mu})
    record = tb.sample_run(params, 3000, seed=1)
    report = tb.estimate_params(record, refine=True, n_bootstrap=5)
    tb.fidelity(table, tb.joint_table(report.params(), tol=1e-9))
with tempfile.TemporaryDirectory() as out:
    for figure in tb.FIGURE_IDS:
        tb.reproduce(figure, out)
"""


def test_entry_points_leave_scipy_out():
    # a lazy import would pass the import test above and fail here
    out = subprocess.run(
        [sys.executable, "-c", _ENTRY_POINTS + _SCIPY_LOADED], capture_output=True, text=True
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip().splitlines()[-1] == "[]"


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
        assert abs(value - _joint_square(params, _marginal_probs(params, s + 1))[s, s]) <= 1e-14


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
    table = _joint_square(params, _marginal_probs(params, max(s, t) + 1))
    assert abs(value - table[s, t]) <= 1e-14


# --- mean counts far beyond mu ------------------------------------------------

# q = M/(M + mu) rounds to 1 once M/mu passes about 2**53: the marginal's
# support is then endless, and at both means the sampler's Poisson rates
# could pass numpy's limit.  Such calls raised ZeroDivisionError, a math
# domain error or numpy's ValueError; each must return or raise a
# TwinbeamError.
_HUGE_MEAN_CALLS = {
    "joint_table": lambda p: joint_table(p),
    "joint_prob": lambda p: joint_prob(p, 3, 3),
    "marginal": lambda p: marginal(p, 3),
    "marginal_dist": lambda p: marginal_dist(p),
    "exact": lambda p: cond_count_dist(p, SelectionRule.exact(3), verify=True),
    "above": lambda p: cond_count_dist(p, SelectionRule.above(3)),
    "below": lambda p: cond_count_dist(p, SelectionRule.below(3), verify=True),
    "state": lambda p: povm_count_dist(build_conditional(p, SelectionRule.exact(3))),
    "nongauss": lambda p: nongauss_report(p, 3),
    "sample": lambda p: sample_run(p, 4, 1),
}


@pytest.mark.parametrize("mean", [1e16, 1e300])
@pytest.mark.parametrize("call", sorted(_HUGE_MEAN_CALLS))
def test_huge_mean_returns_or_refuses(call, mean):
    try:
        _HUGE_MEAN_CALLS[call](ExperimentParams(1.0, 0.5, mean))
    except TwinbeamError:
        pass


@pytest.mark.parametrize("mean", [1e8, 1e12, 1e14])
def test_log_marginal_keeps_its_digits_at_large_mean(mean):
    # log(q**t (1 - q)) at mu = 1; the sum started at mu*log1p(-q), whose
    # rounded q put it 3.9e-9 (M = 1e8) to 8.0e-4 (M = 1e14) off in marginal
    exact = -3.0 * math.log1p(1.0 / mean) - math.log1p(mean)
    assert log_marginal(ExperimentParams(1.0, 0.5, mean), 3) == pytest.approx(exact, rel=1e-15)


def test_marginal_dist_keeps_its_digits_at_large_mean():
    # log(q**t (1 - q)) at mu = 1.  Started at mu*log1p(-q) of the rounded q,
    # the head was 4.7e-13 relative off at small t; started exactly but with
    # steps from the rounded q, it would be 4.4e-13 off at the mean t = M
    mean = 1e5
    probs = marginal_dist(ExperimentParams(1.0, 0.5, mean), tol=1e-6).probs
    for t in (0, 3, 100, 100_000):
        exact = -t * math.log1p(1.0 / mean) - math.log1p(mean)
        assert math.log(probs[t]) == pytest.approx(exact, rel=1e-15), t
