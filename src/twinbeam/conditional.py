"""States of one beam prepared by counting the other.

Registering exactly t counts on the trigger beam collapses the signal beam
onto a photon-number-diagonal state whose photon total is

    gamma = t + NB(t + mu, rr),   rr = M*(1-eta) / (M + mu*eta),

and 1 - rr = eta*(mu + M)/(M + mu*eta).  The C(gamma+mu-1, gamma) mode
configurations of one total share the eigenvalue

    w(gamma) = C(gamma, t) * rr**(gamma-t) * (1-rr)**(t+mu) / C(t+mu-1, t),

whose logarithm ``weight`` takes from the odds rr/(1-rr), never from a
difference.  The state keeps gamma = t .. gamma_max, gamma_max - t the
smallest k whose upper tail I_rr(k+1, t+mu) is <= tol, and stores only the
log of its photon-total law, an exact running sum of O(1) log-ratios; the
eigenvalues divide the degeneracies out of it when they are first read.
The conditional mean count is affine in the trigger value,

    M_t = [t*(M + eta*mu) + mu*M*(1-eta)] / (M + mu),

and passes through (M, M).  Selection rules aggregate trigger outcomes: a
set A of accepted values (exact, above or below a threshold, or explicit)
yields the marginal-weighted mixture of the exact-t states, renormalised by
the acceptance probability P(A) = sum_{t in A} p2(t).  Because M_t is
affine, the mixture mean is M_t evaluated at E[t | A]; the member states
are built only when ``ConditionalMixture.states`` is read.

The count distribution of any selection, P(s | t in A) = p2(s) sum_{t in A}
P(t | s) / P(A), comes from the recurrence of ``core``: the columns
t <= max(A) of P(t | s), or for above(t*) the one tail column
P(count > t* | s), at a cost that does not grow with |A|.  The measurement
route thins the photon law: t photons give Bin(t, eta) counts and
NB(t+mu, rr) photons give NB(t+mu, c) counts, so

    P(s | t) = [Bin(t, eta) * NB(t + mu, c)](s),   c = M*(1-eta) / (mu + M*(2-eta)),

c being the ratio of the recurrence's first row.  ``povm_count_dist``
evaluates this convolution for one state.  Behind ``verify=True`` the
p2(t)/P(A)-weighted mixture of them must agree with the Bayes route to
10*tol; it is refused up front (TableSizeError) when it needs more than
2*_MAX_CELLS_DEFAULT products, sum_{t in A} (min(t, s_max) + 1)(s_max + 1),
the budget of the strip.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Union

import numpy as np
from scipy.special import betainc

from .core import (
    _FLOAT_SLACK,
    _MAX_CELLS_DEFAULT,
    PhotoCountDistribution,
    _assembled,
    _conditional_law,
    _exact_cumsum,
    _first_true,
    _freeze,
    _log_nb_arr,
    _log_nb_running,
    _marginal_probs,
    _mass_sum,
    _nb_quantile,
    _nb_sf,
    _validate_count,
    _validate_tol,
    log_marginal,
)
from .errors import (
    ConditioningError,
    ConvergenceError,
    ParameterError,
    TableSizeError,
    VerificationError,
)
from .params import ExperimentParams

__all__ = [
    "SelectionRule",
    "ConditionalState",
    "ConditionalMixture",
    "weight",
    "conditional_mean",
    "build_conditional",
    "cond_count_dist",
    "povm_count_dist",
]

_LOG_UNDERFLOW = math.log(1e-300)

# Photon levels one exact state may hold (a few arrays of this many floats).
# mu = 1 at eta = 1e-6 needs 2.4e7; tinier efficiencies are refused.
_MAX_LEVELS = 30_000_000


@dataclass(frozen=True)
class SelectionRule:
    """Accepted trigger outcomes: exact(t), above(t*), below(t*), or an
    explicit set.  Threshold comparisons are strict; inclusive selections are
    expressed by shifting the threshold."""

    kind: str
    threshold: int | None = None
    values: tuple[int, ...] | None = None

    def __post_init__(self) -> None:
        if self.kind not in ("exact", "above", "below", "set"):
            raise ParameterError(f"unknown selection kind {self.kind!r}")
        if self.kind == "set":
            if not self.values:
                raise ParameterError("set rule needs a non-empty value list")
            vals = tuple(_validate_count(v, "set value") for v in self.values)
            if sorted(set(vals)) != list(vals):
                raise ParameterError("set values must be sorted and duplicate-free")
            object.__setattr__(self, "values", vals)
        else:
            if self.threshold is None:
                raise ParameterError(f"{self.kind} rule needs a threshold value")
            if isinstance(self.threshold, bool) or not isinstance(
                self.threshold, (int, np.integer)
            ):
                raise ParameterError(f"threshold must be an integer, got {self.threshold!r}")
            thr = int(self.threshold)
            # above(-1) accepts every outcome (the inclusive >= 0 selection);
            # anything lower is malformed.
            floor = -1 if self.kind == "above" else 1 if self.kind == "below" else 0
            if thr < floor:
                raise ParameterError(f"{self.kind} threshold must be >= {floor}, got {thr}")
            object.__setattr__(self, "threshold", thr)

    @classmethod
    def exact(cls, t: int) -> "SelectionRule":
        return cls(kind="exact", threshold=t)

    @classmethod
    def above(cls, t_star: int) -> "SelectionRule":
        """Accept t > t_star."""
        return cls(kind="above", threshold=t_star)

    @classmethod
    def below(cls, t_star: int) -> "SelectionRule":
        """Accept t < t_star."""
        return cls(kind="below", threshold=t_star)

    @classmethod
    def from_set(cls, values) -> "SelectionRule":
        return cls(kind="set", values=tuple(values))

    def contains(self, t: int) -> bool:
        return bool(self.mask(t))

    def mask(self, t: np.ndarray) -> np.ndarray:
        """Whether each trigger count in ``t`` is accepted."""
        t = np.asarray(t)
        if self.kind == "exact":
            return t == self.threshold
        if self.kind == "above":
            return t > self.threshold
        if self.kind == "below":
            return t < self.threshold
        return np.isin(t, self.values)

    def describe(self) -> str:
        if self.kind == "set":
            return f"t in {list(self.values)}"  # type: ignore[arg-type]
        symbol = {"exact": "=", "above": ">", "below": "<"}[self.kind]
        return f"t {symbol} {self.threshold}"


@dataclass(frozen=True)
class ConditionalState:
    """Photon-total law of the state prepared by an exact trigger count t.

    ``log_levels[i]`` is the log probability of total photon number
    ``gamma_min + i``.  The state is uniform over the C(gamma+mu-1, gamma)
    mode configurations of one total, so ``weights[i]``, the eigenvalue
    they share, is that probability over the degeneracy.  M_t is the
    closed-form mean count of the state.
    """

    t: int
    params: ExperimentParams
    log_levels: np.ndarray
    tail_bound: float
    M_t: float

    def __post_init__(self) -> None:
        arr = _freeze(self.log_levels)
        object.__setattr__(self, "log_levels", arr)
        if arr.size == 0:
            raise ParameterError("conditional state needs at least one level")
        if not np.all(arr <= 0.0):
            raise ParameterError("log level probabilities must be <= 0")

    @property
    def gamma_min(self) -> int:
        return self.t

    @property
    def gammas(self) -> np.ndarray:
        return self.t + np.arange(self.log_levels.size)

    @cached_property
    def weights(self) -> np.ndarray:
        """Eigenvalue per level: its probability over C(gamma+mu-1, gamma),
        the log of which is the running sum of log((j+mu)/(j+1)), j < gamma."""
        mu, top = self.params.mu, int(self.gammas[-1])
        log_deg = _exact_cumsum(np.log1p((mu - 1.0) / np.arange(1.0, top + 1)))[self.t:]
        with np.errstate(under="ignore"):
            return _freeze(np.exp(self.log_levels - log_deg))

    def level_probs(self) -> np.ndarray:
        """The total-photon distribution."""
        with np.errstate(under="ignore"):
            return np.exp(self.log_levels)

    def norm(self) -> float:
        return _mass_sum(self.level_probs())

    def mean_photons(self) -> float:
        """First moment of the total-photon distribution (equals M_t/eta)."""
        return float(self.gammas @ self.level_probs())


@dataclass(frozen=True)
class ConditionalMixture:
    """Marginal-weighted mixture of exact-t states under a selection rule.

    ``member_weights`` pairs each accepted trigger value with its
    renormalised weight p2(t)/P(accept); ``success_prob`` is the preparation
    rate P(accept).  The member states (support cut at ``tol``) are built on
    first access to ``states``.
    """

    params: ExperimentParams
    rule: SelectionRule
    trigger_values: tuple[int, ...]
    member_weights: np.ndarray
    success_prob: float
    tol: float

    def __post_init__(self) -> None:
        w = np.ascontiguousarray(self.member_weights, dtype=float)
        w.flags.writeable = False
        object.__setattr__(self, "member_weights", w)

    @cached_property
    def states(self) -> tuple[ConditionalState, ...]:
        return tuple(_build_exact(self.params, t, self.tol) for t in self.trigger_values)

    def mean_counts(self) -> float:
        """M_t is affine in t, so the mixture mean is M_t at E[t | accept]."""
        mean_t = float(self.member_weights @ np.asarray(self.trigger_values, dtype=float))
        return conditional_mean(self.params, mean_t)


# ---------------------------------------------------------------------------
# weights and closed-form moments
# ---------------------------------------------------------------------------


def _ratio(params: ExperimentParams) -> tuple[float, float]:
    """rr and its odds rr/(1 - rr) = M(1-eta)/(eta(mu + M)); log rr and
    log(1 - rr) are -log1p of the inverse odds and of the odds."""
    mu, eta, m = params.mu, params.eta, params.mean_counts
    odds = m * (1.0 - eta) / (eta * (mu + m))
    return odds / (1.0 + odds), odds


def _require_trigger(params: ExperimentParams, t: int) -> None:
    log_p2 = log_marginal(params, t)
    if log_p2 < _LOG_UNDERFLOW:
        raise ConditioningError(
            f"trigger outcome t={t} has vanishing probability (log p2 = {log_p2:.1f})"
        )


def weight(params: ExperimentParams, t: int, gamma: int) -> float:
    """Eigenvalue of the exact-t conditional state at total photon number
    gamma.  Zero for gamma < t (the trigger cannot over-count photons)."""
    params.require_lossy()
    t = _validate_count(t, "t")
    gamma = _validate_count(gamma, "gamma")
    if gamma < t:
        return 0.0
    if params.mean_counts == 0.0:
        if t != 0:
            raise ConditioningError("t > 0 is impossible in vacuum")
        return 1.0 if gamma == 0 else 0.0
    _require_trigger(params, t)
    odds = _ratio(params)[1]
    # C(gamma, t) / C(t+mu-1, t) = prod_{j<t} (gamma - j)/(j + mu)
    j = np.arange(t, dtype=float)
    log_w = (
        math.fsum(np.log((gamma - j) / (j + params.mu)).tolist())
        - (gamma - t) * math.log1p(1.0 / odds)
        - (t + params.mu) * math.log1p(odds)
    )
    return math.exp(log_w)


def conditional_mean(params: ExperimentParams, t: float) -> float:
    """Closed-form mean count of the exact-t conditional state; affine in t
    with slope (M + eta*mu)/(M + mu), fixed point at t = M."""
    mu, eta, m = params.mu, params.eta, params.mean_counts
    if not (isinstance(t, (int, float)) and math.isfinite(float(t)) and t >= 0):
        raise ParameterError(f"t must be a non-negative real, got {t!r}")
    return (t * (m + eta * mu) + mu * m * (1.0 - eta)) / (m + mu)


def build_conditional(
    params: ExperimentParams,
    rule: SelectionRule,
    tol: float = 1e-12,
) -> Union[ConditionalState, "ConditionalMixture"]:
    """Construct the state selected by ``rule``.

    exact(t) yields a single ConditionalState with support gamma = t ..
    gamma_max, gamma_max chosen so the omitted photon mass is <= tol.
    Set-like rules yield the renormalised mixture over accepted trigger
    values together with the preparation success probability.
    """
    params.require_lossy()
    tol = _validate_tol(tol)
    if rule.kind == "exact":
        return _build_exact(params, rule.threshold, tol)  # type: ignore[arg-type]
    values, p2, success = _selection(params, rule, tol)
    return ConditionalMixture(
        params=params,
        rule=rule,
        trigger_values=tuple(values.tolist()),
        member_weights=p2 / success,
        success_prob=success,
        tol=tol,
    )


def _build_exact(params: ExperimentParams, t: int, tol: float) -> ConditionalState:
    t = _validate_count(t, "t")
    _require_trigger(params, t)  # in vacuum (rr = 0), t = 0 and one level remain
    mu = params.mu
    top = _photon_top(params, t, tol)
    levels = top - t + 1
    if levels > _MAX_LEVELS:
        raise TableSizeError(
            f"the t={t} state needs {levels} photon levels for tol={tol}, "
            f"exceeding the budget of {_MAX_LEVELS}"
        )
    rr = _ratio(params)[0]
    return ConditionalState(
        t=t,
        params=params,
        log_levels=_log_nb_running(t + mu, rr, levels),
        tail_bound=float(betainc(levels, t + mu, rr)),
        M_t=conditional_mean(params, t),
    )


def _photon_top(params: ExperimentParams, t: int, tol: float) -> int:
    """Largest photon total the exact-t state keeps: t plus the smallest k
    with P(NB(t+mu, rr) > k) = I_rr(k+1, t+mu) <= tol, searched from the
    mean (t+mu)*rr/(1-rr)."""
    rr, odds = _ratio(params)
    b = t + params.mu
    return t + _first_true(lambda k: betainc(k + 1.0, b, rr) <= tol, int(b * odds))


def _selection(
    params: ExperimentParams, rule: SelectionRule, tol: float
) -> tuple[np.ndarray, np.ndarray, float]:
    """Accepted trigger values of a rule, their marginal probabilities p2(t)
    and the acceptance probability P(A) = sum p2(t).

    above(t*) is open-ended: P(A) is the upper tail of the marginal, summed
    directly as a regularised incomplete beta function (no cancellation
    against 1), and the values are cut where the omitted marginal tail is
    <= tol*P(A)/10.  More than _MAX_CELLS_DEFAULT values (the marginal's
    budget) are refused before they are listed.
    """
    thr = rule.threshold
    if rule.kind == "above":
        success = 1.0 if thr < 0 else float(_nb_sf(params, thr))
        hi = _nb_quantile(params, max(tol * success * 0.1, 1e-300))
        if hi - thr > _MAX_CELLS_DEFAULT:
            raise TableSizeError(
                f"{rule.describe()} needs {hi - thr} trigger values, "
                f"over the {_MAX_CELLS_DEFAULT} budget"
            )
        values = np.arange(thr + 1, max(hi, thr + 1) + 1)
    elif rule.kind == "set":
        values = np.array(rule.values)
    else:
        values = np.arange(thr, thr + 1) if rule.kind == "exact" else np.arange(thr)
    p2 = np.exp(_log_nb_arr(params.mu, params.mean_counts, values))
    if rule.kind != "above":
        success = _mass_sum(p2)
    if success < 1e-300:
        raise ConditioningError(f"selection {rule.describe()} has vanishing probability")
    total = _mass_sum(p2 / success)
    if abs(total - 1.0) > 0.1 * tol + _FLOAT_SLACK:
        raise ConvergenceError(
            f"member weights of {rule.describe()} sum to {total}, not 1"
        )
    return values, p2, success


# ---------------------------------------------------------------------------
# count distributions: Bayes route and measurement route
# ---------------------------------------------------------------------------


def _thinned_support(n: int, eta: float, tol: float) -> int:
    """Upper count bound for a state whose photon support ends at n: the
    smallest s >= 4 with P(Bin(n, eta) > s) <= tol/4, the binomial upper
    tail being I_eta(s + 1, n - s) for s < n and 0 from s = n on."""
    s_max = _first_true(lambda s: s >= n or betainc(s + 1.0, n - s, eta) <= tol / 4.0, n)
    return max(s_max, 4)


def _count_law(params: ExperimentParams, t: int, size: int) -> np.ndarray:
    """P(s | t) for s < size: Bin(t, eta) convolved with NB(t + mu, c)."""
    mu, eta, m = params.mu, params.eta, params.mean_counts
    if m == 0.0:  # vacuum: only t = 0 occurs, and it yields no counts
        return np.eye(1, size)[0]
    c = m * (1.0 - eta) / (mu + m * (2.0 - eta))
    k = np.arange(min(t, size - 1) + 1, dtype=float)
    log_binom = (
        _exact_cumsum(np.log((t - k[:-1]) / k[1:]))
        + k * math.log(eta)
        + (t - k) * math.log1p(-eta)
    )
    with np.errstate(under="ignore"):
        return np.convolve(np.exp(log_binom), np.exp(_log_nb_running(t + mu, c, size)))[:size]


def povm_count_dist(
    state: ConditionalState, s_max: int | None = None, tol: float = 1e-12
) -> PhotoCountDistribution:
    """Count distribution via the measurement route: the state's photon law,
    t + NB(t+mu, rr), binomially thinned in closed form (see the module
    docstring); by default up to the thinned support of its last level."""
    params = state.params
    params.require_lossy()
    tol = _validate_tol(tol)
    if s_max is None:
        s_max = _thinned_support(int(state.gammas[-1]), params.eta, tol)
    return _assembled(PhotoCountDistribution, _count_law(params, state.t, s_max + 1), tol=tol)


def cond_count_dist(
    params: ExperimentParams,
    rule: SelectionRule,
    tol: float = 1e-12,
    verify: bool = False,
) -> PhotoCountDistribution:
    """Count distribution of the selected signal state.

    Every rule takes the Bayes route: the accepted joint-table columns are
    summed on the recurrence kernel and divided by the acceptance probability.
    ``verify=True`` additionally evaluates the measurement route (the
    p2-weighted mixture of the members' thinned photon distributions) and
    raises VerificationError if the two disagree beyond 10*tol.
    """
    params.require_lossy()
    tol = _validate_tol(tol)
    if rule.kind == "exact":
        return _exact_count_dist(params, rule.threshold, tol, verify)  # type: ignore[arg-type]
    return _selected_count_dist(params, rule, *_selection(params, rule, tol), tol, verify)


def _exact_count_dist(
    params: ExperimentParams, t: int, tol: float, verify: bool
) -> PhotoCountDistribution:
    """The one-column case of ``_selected_count_dist``; exact rules enter
    here, so a tracer can tell them apart from set-like selections."""
    rule = SelectionRule.exact(t)
    return _selected_count_dist(params, rule, *_selection(params, rule, tol), tol, verify)


def _selected_count_dist(
    params: ExperimentParams,
    rule: SelectionRule,
    values: np.ndarray,
    p2: np.ndarray,
    success: float,
    tol: float,
    verify: bool,
) -> PhotoCountDistribution:
    """sum_{t in values} p(s, t) / success for counts s up to the support of
    the largest member.  above(t*) takes the tail column P(count > t* | s);
    the other rules sum the accepted columns of P(t | s)."""
    if params.mean_counts == 0.0:  # only t = 0 is possible, and it is accepted
        return PhotoCountDistribution(probs=np.array([1.0]), tail_bound=0.0, tol=tol)
    s_max = _thinned_support(_photon_top(params, int(values[-1]), tol), params.eta, tol)
    width = rule.threshold + 2 if rule.kind == "above" else int(values[-1]) + 1
    cells = (s_max + width) * (width + 1)  # the sweep's diagonals, stored by t
    if cells > 2 * _MAX_CELLS_DEFAULT:
        raise TableSizeError(f"{rule.describe()} needs {cells} recurrence cells")
    if verify:
        products = int((np.minimum(values, s_max) + 1).sum()) * (s_max + 1)
        if products > 2 * _MAX_CELLS_DEFAULT:
            raise TableSizeError(
                f"verifying {rule.describe()} needs {products} convolution products"
            )
    law = _conditional_law(params, s_max + 1, width, tail=rule.kind == "above")
    given = law[:, -1] if rule.kind == "above" else law[:, values].sum(axis=1)
    bayes = _assembled(
        PhotoCountDistribution, _marginal_probs(params, s_max + 1) * given / success, tol=tol
    )
    if verify:
        other = np.zeros(s_max + 1)
        for t, frac in zip(values.tolist(), p2 / success):
            other += frac * _count_law(params, t, s_max + 1)
        gap = float(np.abs(other - bayes.probs).max())
        if gap > 10.0 * tol:
            raise VerificationError(
                f"Bayes and measurement routes disagree by {gap:.3e} for {rule.describe()}"
            )
    return bayes
