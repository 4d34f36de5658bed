"""Entropy-based nonGaussianity of conditionally prepared states.

The measure is the entropy gap delta = S[reference] - S[state], where the
reference is the Gaussian state with the same first and second moments.  For
a photon-number-diagonal state on mu modes with nbar mean photons per mode,
the reference is the factorised thermal state, with entropy

    S_ref = mu * [ (nbar+1)*ln(nbar+1) - nbar*ln(nbar) ],   nbar = M_t/(eta*mu).

The state entropy is the degeneracy-weighted Shannon sum over the eigenvalue
per photon level,

    S_state = - sum_gamma C(gamma+mu-1, gamma) * w(gamma) * ln w(gamma).

delta is normalised by its value for the maximally nonGaussian state of the
same mean energy and mode count, a factorised Fock state; that state has
zero entropy and the same thermal reference, so delta_max = S_ref and
delta_R = delta / S_ref = 1 - S_state/S_ref.  Natural logarithms are used
throughout; delta_R is a ratio of entropies and therefore base-invariant.

Everything here is exact in the stated formulas; the only approximation is
the truncated photon support, whose effect is controlled through the state's
tail bound (warning above 1e-9, hard error above 1e-6: entropy tails close
more slowly than mass and silent truncation would inflate delta_R).  The
levels a state omits each carry -ln w, which grows with the photon number,
so ``nongauss_report`` builds its state with omitted mass
<= min(tol, 1e-9) * 1e-8: the entropy left out then stays below the
rounding of S_state.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .conditional import ConditionalState, build_conditional, SelectionRule
from .core import _validate_tol
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
    single = (nbar + 1.0) * math.log1p(nbar) - nbar * math.log(nbar)
    return float(mu) * single


def entropy_tail_bound(state: ConditionalState) -> float:
    """Upper bound on the entropy carried by the truncated photon tail.

    Level probabilities beyond the stored support decay at least
    geometrically with the local ratio r, while -ln w grows at most linearly
    with rate -ln rr per level; summing the geometric series gives the bound.
    """
    if state.tail_bound == 0.0 or state.weights.size == 0:
        return 0.0
    params = state.params
    mu, eta, m = params.mu, params.eta, params.mean_counts
    if m == 0.0:
        return 0.0
    rr = m * (1.0 - eta) / (m + mu * eta)
    gamma_end = float(state.gammas[-1])
    r = rr * (gamma_end + mu) / (gamma_end + 1.0 - state.t)
    if r >= 1.0:
        return math.inf
    p_end = float(state.level_probs()[-1])
    neg_log_w = -float(state.log_weights[-1])
    step = -math.log(rr)
    geo = r / (1.0 - r)
    return p_end * (neg_log_w * geo + step * r / (1.0 - r) ** 2)


def entropy_conditional(state: ConditionalState) -> float:
    """Degeneracy-weighted eigenvalue entropy of the state, in nats.

    Warns when the stored tail bound exceeds 1e-9 and refuses above 1e-6.
    """
    if state.tail_bound > _TAIL_FAIL:
        raise TailBoundError(
            f"tail bound {state.tail_bound:.3e} too large for an entropy sum; "
            "rebuild the state with a tighter tolerance"
        )
    if state.tail_bound > _TAIL_WARN:
        warnings.warn(
            f"entropy computed on a state with tail bound {state.tail_bound:.3e}; "
            f"the result may be low by up to {entropy_tail_bound(state):.3e}",
            RuntimeWarning,
            stacklevel=2,
        )
    level = state.level_probs()
    mask = level > 0.0
    return float(-np.dot(level[mask], state.log_weights[mask]))


def nongauss_report(
    params: ExperimentParams, t: int, tol: float = 1e-12
) -> NonGaussReport:
    """Entropy gap and its Fock-normalised ratio for the exact-t state, built
    with omitted mass <= min(tol, 1e-9) * 1e-8 (see the module docstring)."""
    tol = _validate_tol(tol)
    state = build_conditional(params, SelectionRule.exact(t), tol=min(tol, _TAIL_WARN) * 1e-8)
    assert isinstance(state, ConditionalState)
    s_state = entropy_conditional(state)
    nbar = state.M_t / (params.eta * params.mu)
    s_ref = thermal_entropy(nbar, params.mu)
    delta = s_ref - s_state
    delta_r = delta / s_ref if s_ref > 0.0 else 0.0
    return NonGaussReport(
        t=t,
        params=params,
        S_state=s_state,
        S_ref=s_ref,
        delta=delta,
        delta_R=delta_r,
        nbar_per_mode=nbar,
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
    needed = set(SWEEP_AXES) - {axis}
    missing = needed - set(fixed)
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
        report = nongauss_report(params, int(t), tol=tol)
        rows.append(
            SweepRow(
                axis=axis,
                value=float(v),
                delta=report.delta,
                delta_R=report.delta_R,
                S_state=report.S_state,
                S_ref=report.S_ref,
            )
        )
    return rows
