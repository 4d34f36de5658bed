import math
import time
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from twinbeam import (
    ExperimentParams,
    InfeasibleConstraintError,
    ParameterError,
    SelectionRule,
    TableSizeError,
    TailBoundError,
    build_conditional,
    entropy_conditional,
    entropy_tail_bound,
    nongauss_report,
    solve_mean_counts,
    sweep,
    thermal_entropy,
)
from twinbeam.conditional import ConditionalState

from conftest import geometric_cutoff, photon_conditional_oracle


# --- thermal entropy -----------------------------------------------------------


def test_thermal_entropy_vacuum():
    assert thermal_entropy(0.0, 1.0) == 0.0
    assert thermal_entropy(0.0, 197.0) == 0.0


def test_thermal_entropy_closed_form():
    assert thermal_entropy(1.0, 1.0) == pytest.approx(2.0 * math.log(2.0), rel=1e-14)


def test_thermal_entropy_additivity():
    for nbar in (0.3, 1.7, 42.0):
        for mu in (2.0, 7.5, 197.0):
            assert thermal_entropy(nbar, mu) == mu * thermal_entropy(nbar, 1.0)


def test_thermal_entropy_against_series_oracle(params_a):
    # high-cutoff numeric entropy of the per-mode geometric distribution
    m_t = build_conditional(params_a, SelectionRule.exact(10)).M_t
    nbar = m_t / (params_a.eta * params_a.mu)
    ratio = nbar / (1.0 + nbar)
    n = np.arange(0, 5000)
    probs = (1.0 - ratio) * ratio**n
    probs = probs[probs > 0.0]
    oracle = -float(np.sum(probs * np.log(probs)))
    assert thermal_entropy(nbar, 1.0) == pytest.approx(oracle, rel=1e-10)
    assert thermal_entropy(nbar, params_a.mu) == pytest.approx(
        params_a.mu * oracle, rel=1e-10
    )


def test_thermal_entropy_keeps_its_digits_at_large_nbar():
    # at (1, 1e-6, 0.1), t = 0, nbar = 90909: (nbar+1) ln(nbar+1) - nbar ln(nbar)
    # subtracts two terms near 1e6; the reference is a 40-digit mpmath value
    rep = nongauss_report(ExperimentParams(1.0, 1e-6, 0.1), 0)
    assert rep.S_ref == pytest.approx(12.41761978515073706484497386200305456546, abs=1e-14)
    # the t = 0 state is the thermal reference itself
    assert abs(rep.delta_R) <= 1e-15


def test_thermal_entropy_rejects_bad_input():
    with pytest.raises(ParameterError):
        thermal_entropy(-0.5, 1.0)
    with pytest.raises(ParameterError):
        thermal_entropy(1.0, 0.5)


# --- state entropy -----------------------------------------------------------


def test_entropy_pure_state_is_zero():
    # in vacuum the only trigger outcome, t = 0, leaves the vacuum
    state = build_conditional(ExperimentParams(1.0, 0.5, 0.0), SelectionRule.exact(0))
    assert state.log_levels.tolist() == [0.0]
    assert entropy_conditional(state) == 0.0


def test_entropy_matches_photon_oracle_single_mode():
    # one mode: no degeneracy, eigenvalue entropy equals distribution entropy
    params = ExperimentParams(1.0, 0.5, 1.0)
    state = build_conditional(params, SelectionRule.exact(0), tol=1e-14)
    cutoff = geometric_cutoff(1, params.mean_photons)
    oracle_dist = photon_conditional_oracle(1, 0.5, 1.0, 0, cutoff)
    mask = oracle_dist > 0.0
    oracle = -float(np.sum(oracle_dist[mask] * np.log(oracle_dist[mask])))
    assert entropy_conditional(state) == pytest.approx(oracle, abs=1e-9)


def test_entropy_invariant_under_degeneracy_splitting():
    params = ExperimentParams(3.0, 0.4, 0.9)
    state = build_conditional(params, SelectionRule.exact(1), tol=1e-13)
    flattened = []
    for gamma, w in zip(state.gammas, state.weights):
        deg = math.comb(int(gamma) + 2, int(gamma))  # C(gamma + mu - 1, gamma)
        flattened.extend([w] * deg)
    flattened = np.array(flattened)
    mask = flattened > 0.0
    split_entropy = -float(np.sum(flattened[mask] * np.log(flattened[mask])))
    assert entropy_conditional(state) == pytest.approx(split_entropy, rel=1e-10)


def test_entropy_tail_bound_covers_true_deficit(params_b):
    # chop a high-precision state and check the bound dominates the entropy
    # actually lost to the discarded tail
    import warnings

    ref = build_conditional(params_b, SelectionRule.exact(8), tol=1e-15)
    s_ref = entropy_conditional(ref)
    level = ref.level_probs()
    cum = np.cumsum(level)
    cut = int(np.searchsorted(cum, 1.0 - 1e-7)) + 1
    chopped = ConditionalState(
        t=ref.t, params=params_b, log_levels=ref.log_levels[:cut],
        tail_bound=max(0.0, 1.0 - float(cum[cut - 1])), M_t=ref.M_t,
    )
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        s_chopped = entropy_conditional(chopped)
    deficit = s_ref - s_chopped
    assert 0.0 < deficit <= entropy_tail_bound(chopped) <= 2.0 * deficit


def test_entropy_tail_policy(params_a):
    state = build_conditional(params_a, SelectionRule.exact(10), tol=1e-12)
    loose = ConditionalState(
        t=state.t, params=state.params, log_levels=state.log_levels,
        tail_bound=1e-8, M_t=state.M_t,
    )
    with pytest.warns(RuntimeWarning):
        entropy_conditional(loose)
    broken = ConditionalState(
        t=state.t, params=state.params, log_levels=state.log_levels,
        tail_bound=1e-5, M_t=state.M_t,
    )
    with pytest.raises(TailBoundError):
        entropy_conditional(broken)
    assert entropy_tail_bound(state) < 1e-9


def _shannon_entropy(state) -> float:
    """-sum_gamma C(gamma+mu-1, gamma) w ln w, the degeneracy-weighted
    eigenvalue sum, with the log degeneracies from log-gamma."""
    mu = state.params.mu
    g = state.gammas.astype(float)
    log_deg = np.array([math.lgamma(x + mu) - math.lgamma(x + 1.0) for x in g]) - math.lgamma(mu)
    level = state.level_probs()
    return -math.fsum((level * (state.log_levels - log_deg)).tolist())


@pytest.mark.parametrize("t", [0, 3, 10])
def test_entropy_matches_degeneracy_weighted_sum(params_a, params_b, t):
    for params in (params_a, params_b, ExperimentParams(2.3, 0.35, 2.1)):
        state = build_conditional(params, SelectionRule.exact(t), tol=1e-15)
        assert entropy_conditional(state) == pytest.approx(_shannon_entropy(state), rel=1e-12)


def _log_ratio_oracle(params, t, gammas):
    """l(gamma) = ln[P(gamma)/Q(gamma)] level by level, P the state's law
    t + NB(t+mu, rr) and Q the thermal NB(mu, q), q = nbar/(1+nbar); the
    rational parameters are exact fractions.  P/Q is
    C(t+k, t)/C(t+mu-1, t) (rr/q)**k ((1+nbar)/(1+odds))**(t+mu) / nbar**t
    at gamma = t + k, and (1+nbar)/(1+odds) = 1 + t/mu."""
    mu, eta, m = (Fraction(x) for x in (params.mu, params.eta, params.mean_counts))
    rr = m * (1 - eta) / (m + mu * eta)
    nbar = (t * (m + eta * mu) + mu * m * (1 - eta)) / ((m + mu) * eta * mu)
    q = nbar / (1 + nbar)
    k = np.asarray(gammas, dtype=float) - t
    log_binom = np.log1p(k[:, None] / np.arange(1.0, t + 1)).sum(axis=1)
    const = (
        float(t + mu) * math.log1p(float(Fraction(t) / mu))
        - t * math.log(float(nbar))
        - math.fsum(math.log1p(float((mu - 1) / j)) for j in range(1, t + 1))
    )
    return const + k * math.log1p(float(rr / q - 1)) + log_binom


# delta = sum P ln(P/Q) to 40 digits (mpmath, log-gamma terms summed until P < 1e-45)
_DELTA_40 = [
    ((197.0, 0.06, 13.4), 13, 0.003722431446693505150901466145239337972877, 1e-13),
    ((25.0, 0.056, 17.1), 7, 0.01797519425230013468892398311825590599652, 1e-13),
    ((2.3, 0.35, 2.1), 4, 0.4375479055830301558796487712334363552679, 1e-13),
    # mu = 5.6e5: S_ref = 7.3e5, so the entropies themselves agree to 1e-15 only
    ((557682.77, 2.2815e-8, 0.011411), 14, 7.047298801966022507273376660059199689054e-10, 1e-10),
]


@pytest.mark.parametrize("point,t,value,tol", _DELTA_40)
def test_delta_matches_40_digit_sum(point, t, value, tol):
    rep = nongauss_report(ExperimentParams(*point), t)
    assert abs(rep.delta - value) <= tol
    assert rep.S_state == rep.S_ref - rep.delta


def test_delta_near_the_level_budget():
    # 2.5e7 photon levels; a long-double sum of ln P - ln Q, each a running
    # sum, gives 3.3280363737e-6
    start = time.perf_counter()
    rep = nongauss_report(ExperimentParams(2187.7, 1.58e-8, 0.327), 8)
    assert time.perf_counter() - start < 20.0
    assert abs(rep.delta - 3.3280363737e-6) <= 1e-10


# --- reports -----------------------------------------------------------------


def test_report_reference_majorises_state(params_a, params_b):
    from twinbeam import conditional_mean

    for params in (params_a, params_b):
        for t in (0, 5, 12):
            rep = nongauss_report(params, t)
            assert rep.delta >= -1e-9
            assert -1e-9 <= rep.delta_R <= 1.0
            assert 0.0 <= rep.S_state <= rep.S_ref + 1e-9
            expected_nbar = conditional_mean(params, t) / (params.eta * params.mu)
            assert rep.nbar_per_mode == pytest.approx(expected_nbar, rel=1e-12)


def test_report_mode_number_ordering():
    # fewer modes concentrate the conditioning: delta_R grows as mu shrinks
    values = []
    for mu in (197.0, 25.0, 1.0):
        m = solve_mean_counts(4.0, 5, mu, 0.06)
        values.append(nongauss_report(ExperimentParams(mu, 0.06, m), 5).delta_R)
    assert values[0] < values[1] < values[2]


def test_report_trigger_monotonicity():
    values = []
    for t in (0, 10, 20, 30):
        m = solve_mean_counts(4.0, t, 25.0, 0.06)
        values.append(nongauss_report(ExperimentParams(25.0, 0.06, m), t).delta_R)
    assert all(a < b for a, b in zip(values, values[1:]))


def test_report_near_zero_efficiency_baseline():
    rep = nongauss_report(ExperimentParams(197.0, 1e-6, 0.5), 5)
    assert rep.delta_R <= 1e-3


def test_photon_support_budget_is_checked_before_allocating():
    # the t = 0 state would need 2.5e9 photon levels (about 19 GiB)
    start = time.perf_counter()
    with pytest.raises(TableSizeError):
        nongauss_report(ExperimentParams(1.0, 1e-9, 0.1), 0)
    assert time.perf_counter() - start < 1.0


def test_delta_r_is_base_invariant(params_b):
    rep = nongauss_report(params_b, 7)
    scale = 1.0 / math.log(2.0)  # nats -> bits
    delta_bits = rep.S_ref * scale - rep.S_state * scale
    assert delta_bits / (rep.S_ref * scale) == pytest.approx(rep.delta_R, rel=1e-12)


# --- inversion and sweeps -------------------------------------------------------


def test_solve_mean_counts_round_trip():
    from twinbeam import conditional_mean

    m = solve_mean_counts(4.0, 5, 25.0, 0.06)
    params = ExperimentParams(25.0, 0.06, m)
    assert conditional_mean(params, 5) == pytest.approx(4.0, rel=1e-12)


def test_solve_mean_counts_infeasible():
    with pytest.raises(InfeasibleConstraintError):
        solve_mean_counts(4.0, 2, 1.0, 0.2)  # unreachable target mean
    with pytest.raises(InfeasibleConstraintError):
        solve_mean_counts(0.1, 5, 25.0, 0.06)  # below t*eta: negative mean


def test_sweep_single_point_equals_report():
    m = solve_mean_counts(4.0, 5, 25.0, 0.06)
    rep = nongauss_report(ExperimentParams(25.0, 0.06, m), 5)
    rows = sweep("eta", [0.06], {"M_t": 4.0, "t": 5, "mu": 25.0})
    assert rows[0].delta_R == pytest.approx(rep.delta_R, rel=1e-12)
    assert rows[0].S_state == pytest.approx(rep.S_state, rel=1e-12)


def test_sweep_validates_inputs():
    with pytest.raises(ParameterError):
        sweep("nope", [1.0], {"M_t": 4.0, "t": 5, "mu": 25.0})
    with pytest.raises(ParameterError):
        sweep("eta", [], {"M_t": 4.0, "t": 5, "mu": 25.0})
    with pytest.raises(ParameterError):
        sweep("eta", [0.06], {"t": 5, "mu": 25.0})
    with pytest.raises(InfeasibleConstraintError):
        sweep("mu", [1.0], {"M_t": 4.0, "t": 2, "eta": 0.2})


def test_sweep_efficiency_ordering():
    rows = sweep("eta", [0.06, 0.08, 0.10, 0.20], {"M_t": 4.0, "t": 5, "mu": 197.0})
    dr = [r.delta_R for r in rows]
    assert all(a < b for a, b in zip(dr, dr[1:]))


@given(
    log_mu=st.floats(0.0, 6.0),
    log_eta=st.floats(-3.0, math.log10(0.999)),
    m=st.floats(0.05, 25.0),
    t=st.integers(0, 25),
)
@settings(max_examples=25, deadline=None)
def test_delta_bounds_property(log_mu, log_eta, m, t):
    from twinbeam import marginal

    params = ExperimentParams(10.0**log_mu, 10.0**log_eta, m)
    if marginal(params, t) <= 1e-12:
        return
    rep = nongauss_report(params, t, tol=1e-12)
    state = build_conditional(params, SelectionRule.exact(t), tol=1e-20)
    level = state.level_probs()
    oracle = math.fsum((level * _log_ratio_oracle(params, t, state.gammas)).tolist())
    assert abs(rep.delta - oracle) <= 1e-11
    assert -1e-12 <= rep.delta_R <= 1.0 + 1e-12
