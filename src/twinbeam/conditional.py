"""States of one beam prepared by counting the other.

Registering exactly t counts on the trigger beam collapses the signal beam
onto a photon-number-diagonal state whose photon total is

    gamma = t + NB(t + mu, rr),   rr = M*(1-eta) / (M + mu*eta),

and 1 - rr = eta*(mu + M)/(M + mu*eta).  The C(gamma+mu-1, gamma) mode
configurations of one total share the eigenvalue

    w(gamma) = C(gamma, t) * rr**(gamma-t) * (1-rr)**(t+mu) / C(t+mu-1, t).

The state keeps gamma = t .. gamma_max, gamma_max - t the smallest k whose
upper tail P(NB(t+mu, rr) > k) is <= tol, and stores only the log of its
photon-total law, an exact running sum of O(1) log-ratios; its eigenvalues,
``ConditionalState.weights``, divide the degeneracies out of it when first read.
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

c being the recurrence's own coefficient (``core._recurrence``), so P(s | 0)
is the kernel's first row bit for bit.  The count support of t sums the
two laws' quantiles at tol/8 each, so P(S > s_max | t) <= tol/4; P(s | t)
grows stochastically with t, so the support of max(A) bounds any
selection.  ``povm_count_dist`` evaluates this convolution for one state.
Behind ``verify=True`` the p2(t)/P(A)-weighted mixture of them must agree
with the Bayes route to 10*tol; it is refused up front (TableSizeError)
when it needs more than 2*_MAX_CELLS_DEFAULT products,
sum_{t in A} (min(t, s_max) + 1)(s_max + 1), the budget of the strip.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Union

import numpy as np

from .core import (
    _FLOAT_SLACK,
    _MAX_CELLS_DEFAULT,
    PhotoCountDistribution,
    _assembled,
    _conditional_law,
    _exact_cumsum,
    _freeze,
    _law_tail,
    _log_nb_arr,
    _log_nb_running,
    _marginal_nb,
    _marginal_probs,
    _mass_sum,
    _recurrence,
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
        object.__setattr__(self, "member_weights", _freeze(self.member_weights))

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
    """The state t + NB(t+mu, rr), its levels and omitted mass from one
    ``_law_tail`` head cut where the omitted mass is <= tol."""
    t = _validate_count(t, "t")
    log_p2 = log_marginal(params, t)  # in vacuum (rr = 0), t = 0 and one level remain
    if log_p2 < _LOG_UNDERFLOW:
        raise ConditioningError(
            f"trigger outcome t={t} has vanishing probability (log p2 = {log_p2:.1f})"
        )
    refuse = f"the t={t} state needs over {_MAX_LEVELS} photon levels for tol={tol}"
    log_levels, _, tail = _law_tail(t + params.mu, _ratio(params)[0], tol, _MAX_LEVELS, refuse)
    return ConditionalState(
        t=t,
        params=params,
        log_levels=log_levels,
        tail_bound=tail,
        M_t=conditional_mean(params, t),
    )


def _selection(
    params: ExperimentParams, rule: SelectionRule, tol: float
) -> tuple[np.ndarray, np.ndarray, float]:
    """Accepted trigger values of a rule, their marginal probabilities p2(t)
    and the acceptance probability P(A) = sum p2(t).

    above(t*) is open-ended: one ``_law_tail`` head of the marginal lists
    the values up to where the omitted tail is <= tol*P(A)/10, and P(A) is
    their sum plus that tail (no cancellation against 1); the whole head
    plus that tail must sum to 1.  More than _MAX_CELLS_DEFAULT values (the
    marginal's budget) are refused before they are listed.
    """
    thr, mu, m = rule.threshold, params.mu, params.mean_counts
    if rule.kind == "above":
        refuse = f"{rule.describe()} needs over {_MAX_CELLS_DEFAULT} trigger values, the budget"
        cap = thr + 1 + _MAX_CELLS_DEFAULT
        q, start = _marginal_nb(mu, m)
        head, hi, tail = _law_tail(mu, q, 0.1 * tol, cap, refuse, size=thr + 2, start=start)
        values, p2 = np.arange(thr + 1, hi + 1), np.exp(head[thr + 1:])
        mass = _mass_sum(p2) + tail
        success = 1.0 if thr < 0 else mass
        total = float(np.exp(head[:thr + 1]).sum()) + mass  # the whole law against its exact total
        if abs(total - 1.0) > 0.1 * tol + _FLOAT_SLACK:
            raise ConvergenceError(f"the marginal behind {rule.describe()} sums to {total}, not 1")
    else:
        if rule.kind == "set":
            values = np.array(rule.values)
        else:
            values = np.arange(thr, thr + 1) if rule.kind == "exact" else np.arange(thr)
        p2 = np.exp(_log_nb_arr(mu, m, values))
        success = _mass_sum(p2)
    if success < 1e-300:
        raise ConditioningError(f"selection {rule.describe()} has vanishing probability")
    return values, p2, success


# ---------------------------------------------------------------------------
# count distributions: Bayes route and measurement route
# ---------------------------------------------------------------------------


def _count_laws(params: ExperimentParams, t: int) -> tuple[tuple[float, float], ...]:
    """(a, x) of Bin(t, eta) and of NB(t + mu, c), in ``_log_nb_running``'s
    terms: the two laws whose convolution is P(s | t)."""
    return (-float(t), -params.eta / (1.0 - params.eta)), (t + params.mu, _recurrence(params)[2])


def _count_support(params: ExperimentParams, t: int, tol: float, cap=math.inf, refuse="") -> int:
    """Count support (at least 4) of trigger t and of every mixture whose
    largest member is t: two quantiles at tol/8 (see the module docstring)."""
    quantiles = (_law_tail(a, x, tol / 8.0, cap, refuse)[1] for a, x in _count_laws(params, t))
    return max(sum(quantiles), 4)


def _count_law(params: ExperimentParams, t: int, size: int) -> np.ndarray:
    """P(s | t) for s < size: Bin(t, eta) convolved with NB(t + mu, c)."""
    (a, x), nb = _count_laws(params, t)
    with np.errstate(under="ignore"):
        binom = np.exp(_log_nb_running(a, x, min(t, size - 1) + 1))
        return np.convolve(binom, np.exp(_log_nb_running(*nb, size)))[:size]


def povm_count_dist(state: ConditionalState, tol: float = 1e-12) -> PhotoCountDistribution:
    """Count distribution via the measurement route: the state's photon law,
    t + NB(t+mu, rr), binomially thinned in closed form (see the module
    docstring), up to the count support of its trigger value."""
    params = state.params
    params.require_lossy()
    tol = _validate_tol(tol)
    size = _count_support(params, state.t, tol) + 1
    return _assembled(PhotoCountDistribution, _count_law(params, state.t, size), tol=tol)


def cond_count_dist(
    params: ExperimentParams,
    rule: SelectionRule,
    tol: float = 1e-12,
    verify: bool = False,
) -> PhotoCountDistribution:
    """Count distribution of the selected signal state.

    Every rule takes the Bayes route, sum_{t in A} p(s, t) / P(A) up to the
    count support of max(A): above(t*) reads the kernel's tail column
    P(count > t* | s), the other rules sum its accepted columns.
    ``verify=True`` also evaluates the measurement route (the p2-weighted
    mixture of the members' count laws) and raises VerificationError if the
    two disagree beyond 10*tol.
    """
    params.require_lossy()
    tol = _validate_tol(tol)
    values, p2, success = _selection(params, rule, tol)
    if params.mean_counts == 0.0:  # only t = 0 is possible, and it is accepted
        return PhotoCountDistribution(probs=np.array([1.0]), tail_bound=0.0, tol=tol)
    width = rule.threshold + 2 if rule.kind == "above" else int(values[-1]) + 1
    # the sweep stores its diagonals by t: (s_max + width) * (width + 1) cells
    refuse = f"{rule.describe()} needs over {2 * _MAX_CELLS_DEFAULT} recurrence cells"
    cap = 2 * _MAX_CELLS_DEFAULT // (width + 1) - width + 1
    s_max = _count_support(params, int(values[-1]), tol, cap, refuse)
    if (s_max + width) * (width + 1) > 2 * _MAX_CELLS_DEFAULT:
        raise TableSizeError(refuse)
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
