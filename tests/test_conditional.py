import math
import time

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from twinbeam import (
    ConditionalMixture,
    ConditionalState,
    ConditioningError,
    ExperimentParams,
    ParameterError,
    SelectionRule,
    VerificationError,
    build_conditional,
    cond_count_dist,
    conditional_mean,
    joint_prob,
    marginal,
    marginal_dist,
    povm_count_dist,
)

from twinbeam.conditional import _count_law, _selection
from twinbeam.core import _conditional_law

from conftest import geometric_cutoff, photon_conditional_oracle

params_st = st.builds(
    ExperimentParams,
    mu=st.floats(1.0, 250.0),
    eta=st.floats(0.02, 0.95),
    mean_counts=st.floats(0.01, 30.0),
)


# --- selection rules ---------------------------------------------------------


def test_rule_semantics_are_strict():
    above = SelectionRule.above(11)
    assert not above.contains(11)
    assert above.contains(12)
    below = SelectionRule.below(8)
    assert below.contains(7)
    assert not below.contains(8)


def test_rule_validation():
    with pytest.raises(ParameterError):
        SelectionRule.from_set([])
    with pytest.raises(ParameterError):
        SelectionRule.from_set([3, 1, 2])
    with pytest.raises(ParameterError):
        SelectionRule.from_set([1, 1, 2])
    with pytest.raises(ParameterError):
        SelectionRule.below(0)
    with pytest.raises(ParameterError):
        SelectionRule.exact(-1)
    # accept-everything lower bound is representable
    assert SelectionRule.above(-1).contains(0)


# --- weights -----------------------------------------------------------------


def test_weight_heaviside_support(params_a):
    # the trigger cannot over-count photons: the levels start at gamma = t
    state = build_conditional(params_a, SelectionRule.exact(10))
    assert state.gamma_min == state.gammas[0] == 10
    assert state.weights[0] > 0.0


def test_weight_normalisation(params_a):
    state = build_conditional(params_a, SelectionRule.exact(10), tol=1e-12)
    assert state.norm() == pytest.approx(1.0, abs=1e-8)


def test_weight_positivity_identity():
    # M_t - t*eta = M(1-eta)(t+mu)/(M+mu) stays positive for every t
    for params in (
        ExperimentParams(1.0, 0.9, 0.3),
        ExperimentParams(42.0, 0.5, 12.0),
        ExperimentParams(197.0, 0.06, 13.4),
    ):
        mu, eta, m = params.mu, params.eta, params.mean_counts
        for t in range(0, 60, 7):
            direct = conditional_mean(params, t) - t * eta
            stable = m * (1.0 - eta) * (t + mu) / (m + mu)
            assert direct == pytest.approx(stable, rel=1e-9)
            assert stable > 0.0


def test_weight_matches_photon_conditional_oracle():
    mu, eta, m, t = 2, 0.5, 1.0, 1
    params = ExperimentParams(float(mu), eta, m)
    cutoff = geometric_cutoff(mu, params.mean_photons)
    oracle = photon_conditional_oracle(mu, eta, m, t, cutoff)
    weights = build_conditional(params, SelectionRule.exact(t)).weights
    for gamma in range(min(len(oracle), 40)):
        w = weights[gamma - t] if t <= gamma < t + weights.size else 0.0
        level = math.comb(gamma + mu - 1, gamma) * w
        assert level == pytest.approx(oracle[gamma], abs=1e-10)


def test_weight_vacuum_and_errors():
    vac = ExperimentParams(1.0, 0.5, 0.0)
    state = build_conditional(vac, SelectionRule.exact(0))
    assert state.weights.tolist() == [1.0]  # gamma = 0 alone: every gamma >= 1 has weight 0
    assert state.level_probs().tolist() == [1.0]
    with pytest.raises(ConditioningError):
        build_conditional(vac, SelectionRule.exact(2))
    # conditioning on an absurdly large count underflows the marginal
    with pytest.raises(ConditioningError):
        build_conditional(ExperimentParams(1.0, 0.5, 0.01), SelectionRule.exact(2000))


# --- conditional mean ----------------------------------------------------------


def test_conditional_mean_fixed_point(params_a):
    m = params_a.mean_counts
    assert conditional_mean(params_a, m) == pytest.approx(m, rel=1e-14)


def test_conditional_mean_at_zero(params_a):
    mu, eta, m = params_a.mu, params_a.eta, params_a.mean_counts
    expected = mu * m * (1.0 - eta) / (m + mu)
    assert conditional_mean(params_a, 0) == pytest.approx(expected, rel=1e-14)


def test_conditional_mean_affine_slope(params_a):
    mu, eta, m = params_a.mu, params_a.eta, params_a.mean_counts
    slope = (m + eta * mu) / (m + mu)
    assert slope == pytest.approx(0.12, abs=1e-3)
    diffs = [
        conditional_mean(params_a, t + 1) - conditional_mean(params_a, t)
        for t in range(25)
    ]
    assert np.ptp(diffs) < 1e-12
    assert diffs[0] == pytest.approx(slope, rel=1e-12)


@given(params=params_st, t=st.integers(0, 80))
@settings(max_examples=100)
def test_conditional_mean_strictly_increasing_and_ordered(params, t):
    m = params.mean_counts
    m_t = conditional_mean(params, t)
    assert conditional_mean(params, t + 1) > m_t
    if t > m:
        assert m_t > m
    elif t < m:
        assert m_t < m


# --- state construction ---------------------------------------------------------


def test_state_photon_mean(params_a):
    state = build_conditional(params_a, SelectionRule.exact(15), tol=1e-12)
    assert state.mean_photons() == pytest.approx(state.M_t / params_a.eta, abs=1e-8)


def test_state_support_starts_at_trigger(params_a):
    state = build_conditional(params_a, SelectionRule.exact(7), tol=1e-12)
    assert state.gamma_min == 7
    assert state.gammas[0] == 7


def test_small_instance_states_match_oracle():
    for mu, eta, m, t in [(1, 0.5, 1.0, 0), (2, 0.5, 1.0, 1), (3, 0.3, 0.8, 2)]:
        params = ExperimentParams(float(mu), eta, m)
        state = build_conditional(params, SelectionRule.exact(t), tol=1e-14)
        cutoff = geometric_cutoff(mu, params.mean_photons)
        oracle = photon_conditional_oracle(mu, eta, m, t, cutoff)
        level = state.level_probs()
        for gamma in range(min(len(oracle), int(state.gammas[-1]) + 1)):
            ours = level[gamma - t] if gamma >= t else 0.0
            assert ours == pytest.approx(oracle[gamma], abs=1e-10)


def test_vacuum_state():
    state = build_conditional(ExperimentParams(1.0, 0.5, 0.0), SelectionRule.exact(0))
    assert state.M_t == 0.0
    assert state.norm() == 1.0
    with pytest.raises(ConditioningError):
        build_conditional(ExperimentParams(1.0, 0.5, 0.0), SelectionRule.exact(1))


# --- count distributions ----------------------------------------------------------


def test_bayes_column_route(params_a):
    dist = cond_count_dist(params_a, SelectionRule.exact(0), tol=1e-12)
    p2 = marginal(params_a, 0)
    for s in range(0, 30, 5):
        assert dist.probs[s] == pytest.approx(
            joint_prob(params_a, s, 0) / p2, rel=1e-10, abs=1e-14
        )


def test_conditional_on_zero_monotone_decreasing():
    params = ExperimentParams(1.0, 0.9, 1.0)
    dist = cond_count_dist(params, SelectionRule.exact(0))
    probs = dist.probs[dist.probs > 1e-300]
    assert np.all(np.diff(probs) < 0.0)


def test_dual_route_agreement(params_a):
    for t in (0, 5, 15, 30):
        bayes = cond_count_dist(params_a, SelectionRule.exact(t), tol=1e-12)
        state = build_conditional(params_a, SelectionRule.exact(t), tol=1e-12)
        other = povm_count_dist(state, tol=1e-12)
        assert len(other) == len(bayes)
        assert np.abs(bayes.probs - other.probs).max() <= 1e-8


@pytest.mark.parametrize("mean", [2.1, 0.0], ids=["small-mu", "vacuum"])
def test_count_law_of_zero_is_the_kernels_first_row(mean):
    # P(s | 0) = NB(mu, c) takes c from the recurrence, so it is the
    # kernel's first row bit for bit; in vacuum it is the point mass at 0
    params = ExperimentParams(2.3, 0.35, mean)
    for size in (1, 2, 5, 40):
        law = _count_law(params, 0, size)
        assert np.array_equal(law, _conditional_law(params, 1, size)[0])
        if mean == 0.0:
            assert np.array_equal(law, np.eye(1, size)[0])


@pytest.mark.parametrize(
    "point,t", [((2.3, 0.35, 2.1), 4), ((197.0, 0.06, 13.4), 13)], ids=["small-mu", "A"]
)
def test_stored_state_thins_to_the_count_law(point, t):
    # povm_count_dist works from the closed-form count law, not from the
    # stored levels; thinning those with exact binomials must agree with it
    params = ExperimentParams(*point)
    state = build_conditional(params, SelectionRule.exact(t), tol=1e-12)
    dist = povm_count_dist(state)
    eta = params.eta
    for s in range(len(dist)):
        thinned = math.fsum(
            p * math.comb(g, s) * eta**s * (1.0 - eta) ** (g - s)
            for g, p in zip(state.gammas.tolist(), state.level_probs().tolist())
            if g >= s
        )
        assert dist.probs[s] == pytest.approx(thinned, abs=1e-12)


def test_verify_flag_runs_clean(params_b):
    dist = cond_count_dist(params_b, SelectionRule.exact(19), tol=1e-12, verify=True)
    assert dist.mean == pytest.approx(conditional_mean(params_b, 19), abs=1e-8)


def test_conditional_moment_matches_closed_form(params_a):
    dist = cond_count_dist(params_a, SelectionRule.exact(15), tol=1e-12)
    assert dist.mean == pytest.approx(conditional_mean(params_a, 15), abs=1e-8)


def test_impossible_trigger_raises():
    with pytest.raises(ConditioningError):
        cond_count_dist(ExperimentParams(1.0, 0.5, 0.01), SelectionRule.exact(2000))


# --- mixtures ----------------------------------------------------------------------


def test_full_set_mixture_recovers_unconditioned(params_a):
    full = SelectionRule.above(-1)
    dist = cond_count_dist(params_a, full, tol=1e-12)
    ref = marginal_dist(params_a, tol=1e-12)
    n = min(len(dist), len(ref))
    assert np.abs(dist.probs[:n] - ref.probs[:n]).max() <= 1e-9
    mix = build_conditional(params_a, full, tol=1e-12)
    assert mix.success_prob == pytest.approx(1.0, abs=1e-12)


def test_above_threshold_shifts_mean_up(params_a):
    dist = cond_count_dist(params_a, SelectionRule.above(11), tol=1e-10)
    assert dist.mean > params_a.mean_counts
    below = cond_count_dist(params_a, SelectionRule.below(8), tol=1e-10)
    assert below.mean < params_a.mean_counts


def test_mixture_mean_formula(params_a):
    rule = SelectionRule.above(11)
    mix = build_conditional(params_a, rule, tol=1e-12)
    assert isinstance(mix, ConditionalMixture)
    # renormalised marginal-weighted average of the member means
    expected = sum(
        marginal(params_a, t) * conditional_mean(params_a, t)
        for t in mix.trigger_values
    ) / mix.success_prob
    assert mix.mean_counts() == pytest.approx(expected, rel=1e-12)
    dist = cond_count_dist(params_a, rule, tol=1e-12)
    assert dist.mean == pytest.approx(mix.mean_counts(), abs=1e-9)


def test_set_rule_mixture(params_b):
    rule = SelectionRule.from_set([13, 19])
    mix = build_conditional(params_b, rule, tol=1e-12)
    assert mix.trigger_values == (13, 19)
    p13, p19 = marginal(params_b, 13), marginal(params_b, 19)
    assert mix.success_prob == pytest.approx(p13 + p19, rel=1e-12)
    assert mix.member_weights[0] == pytest.approx(p13 / (p13 + p19), rel=1e-12)


def test_empty_acceptance_raises(params_a):
    with pytest.raises(ConditioningError):
        build_conditional(params_a, SelectionRule.above(4000), tol=1e-10)


@given(params=params_st, t=st.integers(0, 40))
@settings(max_examples=40, deadline=None)
def test_state_normalisation_property(params, t):
    # skip trigger values that the marginal cannot reach at double precision
    if marginal(params, t) <= 1e-12:
        return
    state = build_conditional(params, SelectionRule.exact(t), tol=1e-11)
    assert isinstance(state, ConditionalState)
    assert state.norm() == pytest.approx(1.0, abs=1e-8)
    assert state.mean_photons() == pytest.approx(state.M_t / params.eta, rel=1e-7, abs=1e-7)


# --- set-like selections as weighted joint-table columns -----------------------

SMALL_MU = ExperimentParams(2.3, 0.35, 2.1)
SELECTIONS = [SelectionRule.below(10), SelectionRule.above(11), SelectionRule.from_set([4, 11, 19]),
              SelectionRule.exact(11)]


@pytest.mark.parametrize("rule", SELECTIONS, ids=lambda r: r.kind)
@pytest.mark.parametrize("point", ["a", "b", "small"])
def test_selection_matches_scalar_series(point, rule, params_a, params_b):
    # P(s | t in A) = sum_{t in A} p(s, t) / sum_{t in A} p2(t), from the
    # scalar joint series and the closed-form marginal
    params = {"a": params_a, "b": params_b, "small": SMALL_MU}[point]
    dist = cond_count_dist(params, rule, tol=1e-12)
    accepted = [t for t in range(1000) if rule.contains(t)]
    assert np.array_equal(np.flatnonzero(rule.mask(np.arange(1000))), accepted)
    p2 = [marginal(params, t) for t in accepted]
    p_accept = math.fsum(p2)
    # members below 1e-14 of the acceptance probability move no cell by 1e-12
    ts = [t for t, p in zip(accepted, p2) if p > 1e-14 * p_accept]
    for s in range(0, len(dist), 2):
        ref = math.fsum(joint_prob(params, s, t) for t in ts) / p_accept
        assert dist.probs[s] == pytest.approx(ref, abs=1e-10)


@pytest.mark.parametrize("tol", [1e-12, 1e-6])
@pytest.mark.parametrize("rule", [r for r in SELECTIONS if r.kind != "set"], ids=lambda r: r.kind)
@pytest.mark.parametrize("point", ["a", "b", "small", "tiny-eta", "small-M"])
def test_count_support_leaves_a_quarter_tol(point, rule, tol, params_a, params_b):
    # the support sums the Bin(t, eta) and NB(t + mu, c) quantiles at tol/8
    # for the largest accepted t; the count law of that t, and the mixture
    # of every accepted t, must leave at most tol/4 beyond it
    params = {"a": params_a, "b": params_b, "small": SMALL_MU,
              "tiny-eta": ExperimentParams(1.0, 1e-6, 0.1),
              "small-M": ExperimentParams(2.3, 0.35, 0.01)}[point]
    last = len(cond_count_dist(params, rule, tol=tol)) - 1
    values, p2, success = _selection(params, rule, tol)
    size = 4 * last + 64
    top = _count_law(params, int(values[-1]), size)
    assert math.fsum(top.tolist()) == pytest.approx(1.0, abs=1e-14)  # size holds the law
    mixture = sum(w * _count_law(params, t, size) for t, w in zip(values.tolist(), p2 / success))
    for law in (top, mixture):
        assert math.fsum(law[last + 1:].tolist()) <= tol / 4.0


@pytest.mark.parametrize("rule", [SelectionRule.above(11), SelectionRule.from_set([4, 11, 19])],
                         ids=lambda r: r.kind)
def test_verify_flag_on_selections(rule, params_a, params_b):
    for params in (params_a, params_b):
        cond_count_dist(params, rule, tol=1e-12, verify=True)


def test_verify_flag_detects_a_wrong_kernel(params_b, monkeypatch):
    import twinbeam.conditional as conditional

    kernel = conditional._conditional_law

    def skewed(*args, **kwargs):
        law = np.array(kernel(*args, **kwargs))
        law[5] *= 1.0 - 1e-6
        return law

    monkeypatch.setattr(conditional, "_conditional_law", skewed)
    for rule in (SelectionRule.exact(13), SelectionRule.from_set([13, 19]), SelectionRule.above(13)):
        cond_count_dist(params_b, rule, tol=1e-12)
        with pytest.raises(VerificationError):
            cond_count_dist(params_b, rule, tol=1e-12, verify=True)


small_params_st = st.builds(
    ExperimentParams,
    mu=st.floats(1.0, 4.0),
    eta=st.floats(0.1, 0.9),
    mean_counts=st.floats(0.2, 5.0),
)
selection_st = st.one_of(
    st.integers(-1, 8).map(SelectionRule.above),
    st.integers(1, 10).map(SelectionRule.below),
    st.sets(st.integers(0, 15), min_size=1, max_size=4).map(
        lambda v: SelectionRule.from_set(sorted(v))
    ),
)


@given(params=small_params_st, rule=selection_st)
@settings(max_examples=40, deadline=None)
def test_selection_mass_and_mean_property(params, rule):
    tol = 1e-12
    mix = build_conditional(params, rule, tol=tol)
    assume(mix.success_prob > 1e-8)
    dist = cond_count_dist(params, rule, tol=tol)
    assert abs(float(dist.probs.sum()) + dist.tail_bound - 1.0) <= 10 * tol
    assert dist.mean == pytest.approx(mix.mean_counts(), rel=1e-9, abs=1e-9)


def test_deep_threshold_acceptance_has_no_cancellation(params_a):
    # 1 - sum(below) leaves nothing of a 3e-19 upper tail; the mixture must
    # still sit above the exact-60 state and carry unit total weight
    deep = build_conditional(params_a, SelectionRule.above(60), tol=1e-12)
    assert math.fsum(deep.member_weights.tolist()) == pytest.approx(1.0, abs=1e-12)
    assert deep.mean_counts() > conditional_mean(params_a, 60)
    mix = build_conditional(params_a, SelectionRule.above(50), tol=1e-12)
    direct = math.fsum(marginal(params_a, t) for t in range(51, 1000))
    assert mix.success_prob == pytest.approx(direct, rel=1e-9)


@pytest.mark.parametrize("t_star", [15, 18, 22])
def test_deep_threshold_distribution_returns(t_star):
    dist = cond_count_dist(SMALL_MU, SelectionRule.above(t_star), tol=1e-12)
    mix = build_conditional(SMALL_MU, SelectionRule.above(t_star), tol=1e-12)
    assert dist.mean == pytest.approx(mix.mean_counts(), rel=1e-9)


def test_mixture_states_are_built_on_demand(params_a):
    mix = build_conditional(params_a, SelectionRule.below(4), tol=1e-12)
    assert "states" not in vars(mix)
    assert [s.t for s in mix.states] == [0, 1, 2, 3]
    assert sum(w * s.M_t for w, s in zip(mix.member_weights, mix.states)) == pytest.approx(
        mix.mean_counts(), rel=1e-12
    )


def test_wide_selection_finishes_quickly():
    params = ExperimentParams(1.0, 0.2, 50.0)
    start = time.perf_counter()
    dist = cond_count_dist(params, SelectionRule.above(1), tol=1e-12)
    assert time.perf_counter() - start < 10.0
    mix = build_conditional(params, SelectionRule.above(1), tol=1e-12)
    assert dist.mean == pytest.approx(mix.mean_counts(), rel=1e-9)
