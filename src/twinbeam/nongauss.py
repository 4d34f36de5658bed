"""Entropy-based nonGaussianity of conditionally prepared states.

The measure is the entropy gap delta = S[reference] - S[state], where the
reference is the Gaussian state with the same first and second moments.  For
a photon-number-diagonal state on mu modes with nbar mean photons per mode,
the reference is the factorised thermal state, with entropy

    S_ref = mu * [ ln(1+nbar) + nbar*ln(1+1/nbar) ],   nbar = M_t/(eta*mu).

The exact-t state and its reference are both uniform over the
C(gamma+mu-1, gamma) mode configurations of one photon total gamma, and
their means agree, so the degeneracies cancel: delta is the relative
entropy sum_gamma P ln(P/Q) of the state's photon-total law
P = t + NB(t+mu, rr) to the reference's Q = NB(mu, nbar/(1+nbar)), and
S_state = S_ref - delta.  ln(P/Q) is an exact running sum over the state's
levels, so delta keeps its digits where the entropies are 1e5 times larger.

delta is normalised by its value for the maximally nonGaussian state of the
same mean energy and mode count, a factorised Fock state; that state has
zero entropy and the same thermal reference, so delta_max = S_ref and
delta_R = delta / S_ref = 1 - S_state/S_ref.  Natural logarithms are used
throughout; delta_R is a ratio of entropies and therefore base-invariant.

The only approximation is the truncated photon support, controlled through
the state's tail bound (warning above 1e-9, hard error above 1e-6).
``nongauss_report`` builds its state with omitted mass
<= min(tol, 1e-9) * 1e-8, which leaves delta unchanged to rounding.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .conditional import ConditionalState, SelectionRule, _log_degeneracy, _ratio, build_conditional
from .core import _exact_cumsum, _law, _validate_tol
from .errors import InfeasibleConstraintError, ParameterError, TailBoundError
from .params import ExperimentParams

__all__ = [
    "NonGaussReport",
    "SweepRow",
    "thermal_entropy",
    "entropy_conditional",
    "entropy_tail_bound",
    "nongauss_report",
    "solve_mean_counts",
    "sweep",
    "SWEEP_AXES",
]

_TAIL_WARN = 1e-9
_TAIL_FAIL = 1e-6


@dataclass(frozen=True)
class NonGaussReport:
    """Entropies and normalised nonGaussianity of one conditional state."""

    t: int
    params: ExperimentParams
    S_state: float
    S_ref: float
    delta: float
    delta_R: float
    nbar_per_mode: float

    def __post_init__(self) -> None:
        if self.delta < -1e-6:
            raise ParameterError(
                f"entropy gap {self.delta} is negative beyond numerical noise; "
                "the Gaussian reference must majorise the state entropy"
            )


@dataclass(frozen=True)
class SweepRow:
    axis: str
    value: float
    delta: float
    delta_R: float
    S_state: float
    S_ref: float


def thermal_entropy(nbar: float, mu: float = 1.0) -> float:
    """Von Neumann entropy of mu independent thermal modes with nbar mean
    photons each, in nats; additive in mu by construction."""
    if not (isinstance(nbar, (int, float)) and math.isfinite(float(nbar)) and nbar >= 0):
        raise ParameterError(f"nbar must be a non-negative real, got {nbar!r}")
    if not (isinstance(mu, (int, float)) and mu >= 1.0):
        raise ParameterError(f"mu must be >= 1, got {mu!r}")
    nbar = float(nbar)
    if nbar == 0.0:
        return 0.0
    # (nbar+1) ln(nbar+1) - nbar ln(nbar), without cancellation at large nbar
    single = math.log1p(nbar) + nbar * math.log1p(1.0 / nbar)
    return float(mu) * single


def _nbar(state: ConditionalState) -> tuple[float, float, float]:
    """(nbar, odds, d): the mean photons per mode M_t/(eta*mu) as the positive
    sum odds + d, odds = rr/(1-rr) and d = t*(1+odds)/mu."""
    odds = _ratio(state.params)
    d = state.t * (1.0 + odds) / state.params.mu
    return odds + d, odds, d


def _log_ratio(state: ConditionalState) -> tuple[np.ndarray, float]:
    """l(gamma) = ln[P(gamma)/Q(gamma)] over the state's levels, and its
    constant step c.  l(t) = (t+mu)*log1p(t/mu) - t*ln(nbar) - ln C(t+mu-1, t)
    and each level adds c + log1p(t/(gamma+1-t)), c = log1p(-d/(nbar*(1+odds))):
    no term is a difference of near-equal numbers."""
    t, mu = state.t, state.params.mu
    nbar, odds, d = _nbar(state)
    l_t = (t + mu) * math.log1p(t / mu) - t * math.log(nbar) - float(_log_degeneracy(mu, t + 1)[-1])
    c = math.log1p(-d / (nbar * (1.0 + odds)))
    steps = np.log1p(t / np.arange(1.0, state.log_levels.size))
    steps += c
    return _exact_cumsum(steps, l_t), c


def _entropy_gap(state: ConditionalState) -> tuple[float, float]:
    """delta = sum_gamma P(gamma) l(gamma) and S_ref, under the tail policy."""
    if state.tail_bound > _TAIL_FAIL:
        raise TailBoundError(
            f"tail bound {state.tail_bound:.3e} too large for an entropy sum; "
            "rebuild the state with a tighter tolerance"
        )
    if state.tail_bound > _TAIL_WARN:
        warnings.warn(
            f"entropy computed on a state with tail bound {state.tail_bound:.3e}; "
            f"the result may be off by up to {entropy_tail_bound(state):.3e}",
            RuntimeWarning,
            stacklevel=3,
        )
    s_ref = thermal_entropy(_nbar(state)[0], state.params.mu)
    if state.t == 0:  # the state is thermal: l = 0
        return 0.0, s_ref
    log_ratio = _log_ratio(state)[0]  # before P: the running sum's work arrays and P never coexist
    return float(state.level_probs() @ log_ratio), s_ref


def entropy_tail_bound(state: ConditionalState) -> float:
    """Upper bound on sum P(gamma) |l(gamma)| over the truncated levels.

    Their probabilities decay at least geometrically with the local ratio r,
    and |l| grows by at most max(-c, log1p(t/(gamma_end+1-t))) per level;
    summing the geometric series gives the bound.
    """
    if state.tail_bound == 0.0 or state.t == 0:
        return 0.0
    t, gamma_end = state.t, float(state.gammas[-1])
    r = _law(_ratio(state.params))[0] * (gamma_end + state.params.mu) / (gamma_end + 1.0 - t)
    if r >= 1.0:
        return math.inf
    log_ratio, c = _log_ratio(state)
    step = max(-c, math.log1p(t / (gamma_end + 1.0 - t)))
    return math.exp(state.log_levels[-1]) * r / (1.0 - r) * (abs(log_ratio[-1]) + step / (1.0 - r))


def entropy_conditional(state: ConditionalState) -> float:
    """Von Neumann entropy of the state in nats, S_ref - delta.  Warns when
    the stored tail bound exceeds 1e-9 and refuses above 1e-6."""
    delta, s_ref = _entropy_gap(state)
    return s_ref - delta


def nongauss_report(
    params: ExperimentParams, t: int, tol: float = 1e-12
) -> NonGaussReport:
    """Entropy gap and its Fock-normalised ratio for the exact-t state, built
    with omitted mass <= min(tol, 1e-9) * 1e-8 (see the module docstring)."""
    tol = _validate_tol(tol)
    state = build_conditional(params, SelectionRule.exact(t), tol=min(tol, _TAIL_WARN) * 1e-8)
    assert isinstance(state, ConditionalState)
    delta, s_ref = _entropy_gap(state)
    return NonGaussReport(
        t=t, params=params, S_state=s_ref - delta, S_ref=s_ref, delta=delta,
        delta_R=delta / s_ref if s_ref > 0.0 else 0.0,
        nbar_per_mode=_nbar(state)[0],
    )


def solve_mean_counts(m_t: float, t: float, mu: float, eta: float) -> float:
    """Invert the affine conditional-mean relation for the beam mean M.

    M_t = [t*(M + eta*mu) + mu*M*(1-eta)]/(M + mu)  solved for M gives
    M = mu*(M_t - t*eta) / (t + mu*(1-eta) - M_t).  Raises when the target
    mean is unreachable (negative M or non-positive denominator).
    """
    denom = t + mu * (1.0 - eta) - m_t
    numer = mu * (m_t - t * eta)
    if denom <= 0.0 or numer < 0.0:
        raise InfeasibleConstraintError(
            f"no beam mean reaches M_t={m_t} at t={t}, mu={mu}, eta={eta}"
        )
    return numer / denom


SWEEP_AXES = ("M_t", "t", "eta", "mu")


def sweep(
    axis: str,
    values,
    fixed: dict,
    tol: float = 1e-12,
) -> list[SweepRow]:
    """Evaluate delta_R along one axis at fixed remaining quantities.

    The sweep is parameterised by (M_t, t, eta, mu); ``fixed`` supplies the
    three not being swept.  The beam mean is solved from the conditional-mean
    relation at every grid point, so curves compare states of equal energy;
    an infeasible grid point raises with the offending value.
    """
    if axis not in SWEEP_AXES:
        raise ParameterError(f"axis must be one of {SWEEP_AXES}, got {axis!r}")
    values = list(values)
    if not values:
        raise ParameterError("sweep grid must be non-empty")
    missing = set(SWEEP_AXES) - {axis} - set(fixed)
    if missing:
        raise ParameterError(f"fixed map is missing {sorted(missing)}")
    rows = []
    for v in values:
        point = dict(fixed)
        point[axis] = v
        try:
            m = solve_mean_counts(point["M_t"], point["t"], point["mu"], point["eta"])
        except InfeasibleConstraintError as exc:
            raise InfeasibleConstraintError(f"grid point {axis}={v}: {exc}") from exc
        params = ExperimentParams(point["mu"], point["eta"], m)
        t = point["t"]
        if not float(t).is_integer():
            raise ParameterError(f"t must be an integer count, got {t}")
        rep = nongauss_report(params, int(t), tol=tol)
        rows.append(SweepRow(axis, float(v), rep.delta, rep.delta_R, rep.S_state, rep.S_ref))
    return rows
