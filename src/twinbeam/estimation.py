"""Recovering (mu, eta, mean counts) from shot records, plus fidelity.

The estimators mirror how the experiment is analysed:

* the noise reduction R = var(s - t) / mean(s + t) determines the
  efficiency through eta = 1 - R (no noise subtraction);
* the beam mean is the grand mean of both arms;
* the mode count comes from the multithermal variance M*(1 + M/mu):
  mu = M**2 / (var - M), with an optional maximum-likelihood refinement of
  (mu, M) against the closed-form marginal for the small-mu regime.  The
  negative-binomial likelihood peaks at M equal to the pooled sample mean,
  so the refinement is one root in mu of the profile score, found by
  bracket doubling and bisection.

Fits are sequential (eta from R first, then mu and M from the marginal).
Every statistic is a sum over the record's (s, t) pair table, built once
per estimate: the moments, the ML refinement's pooled level counts, the
empirical histogram and the delta-method standard errors.  Each moment
estimate is a smooth function of sample means, so its error follows from
the per-shot influence functions, which depend on a shot only through its
(s, t) cell: sqrt(sum n IF**2) over the table rows keeps the arm-arm
correlation of a shot and draws no random numbers.  The estimates and
their errors share one set of sample moments (mean(s + t) and the
variances of s, t and s - t, each taken once), so the mu error is inf
exactly where mu_hat is.  The model at the estimates, for
``EstimationReport.params`` and the fidelity alike, clamps mu at the
domain bound 1, as the ML root does.  Agreement between a model table and
an empirical histogram is the Bhattacharyya coefficient sum_{cells}
sqrt(p*q) over the overlap of their supports (no other cell adds to it),
with each table normalised by its total mass.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import NamedTuple

import numpy as np

from .core import _MAX_CELLS_DEFAULT, JointDistribution, PhotoCountDistribution, joint_table
from .errors import DegenerateRecordError, ParameterError, TableSizeError
from .params import ExperimentParams
from .sampling import ShotRecord, _grid, _pair_table

__all__ = ["EstimationReport", "noise_reduction", "estimate_params", "fidelity"]

_MU_CAP = 1e6
_TABLE_TOL = 1e-8  # omitted mass of the model table the fidelity scores against


@dataclass(frozen=True)
class EstimationReport:
    """Point estimates, delta-method standard errors, and model-data fidelity.

    R_hat = 1 - eta_hat by construction.  mu_hat is +inf with a diagnostic
    when the sample variance does not exceed the mean (no overdispersion to
    attribute to mode structure), and so is its error.  standard_errors
    holds the errors of M, R, eta and mu.  fidelity is None, with the
    reason as a diagnostic, where no model table can be built (eta_hat = 1,
    mu_hat = inf, or a table beyond the budget).
    """

    M_hat: float
    eta_hat: float
    mu_hat: float
    R_hat: float
    fidelity: float | None
    standard_errors: dict = field(default_factory=dict)
    diagnostics: tuple[str, ...] = ()
    n_shots: int = 0

    def params(self) -> ExperimentParams:
        """The model at the estimates, mu clamped at the domain bound 1 (the
        bound of ``_ml_refine``); raises ParameterError if still out of domain."""
        return ExperimentParams(max(self.mu_hat, 1.0), self.eta_hat, self.M_hat)


class _Sums(NamedTuple):
    """Sums over the rows of a pair table, each weighted by its shot count n
    (int64, exact as a float factor) and pairwise, as ``np.sum``'s."""

    n: np.ndarray
    shots: int

    def total(self, x: np.ndarray) -> float:
        return float(np.sum(self.n * x))

    def var(self, dx: np.ndarray) -> float:  # of deviations from the mean, ddof=1
        x = dx * dx
        x *= self.n  # in place: a second temporary as long costs fresh pages per call
        return float(np.sum(x)) / (self.shots - 1)


def _moments(record: ShotRecord, need: int, what: str):
    """The pair table of a record of at least ``need`` shots that carries
    light, its ``_Sums``, the float deviations ds = s - mean(s),
    dt = t - mean(t) and dd = (s - t) - mean(s - t) of its rows, mean(s + t)
    and var(s - t)."""
    if len(record) < need:
        raise DegenerateRecordError(f"{what} needs at least {need} shots")
    table = _pair_table(record)
    sums = _Sums(table[2], len(record))
    ds, dt = table[0].astype(float), table[1].astype(float)
    total_s, total_t = sums.total(ds), sums.total(dt)
    mean_sum = (total_s + total_t) / sums.shots
    if mean_sum <= 0.0:
        raise DegenerateRecordError("mean(s + t) is zero; record carries no light")
    dd = ds - dt  # s - t, exact below 2**53
    dd -= (total_s - total_t) / sums.shots
    ds -= total_s / sums.shots
    dt -= total_t / sums.shots
    return table, sums, ds, dt, dd, mean_sum, sums.var(dd)


def noise_reduction(record: ShotRecord) -> float:
    """Sample variance of the count difference over the mean count sum.

    Equals 1 - eta for ideal twin beams; values below 1 certify nonclassical
    correlation.  No noise subtraction is applied.
    """
    *_, mean_sum, var_d = _moments(record, 2, "noise reduction")
    return var_d / mean_sum


def _ml_refine(table, diagnostics: list[str]) -> tuple[float, float]:
    """Maximum-likelihood (mu, M) of the closed-form marginal for the counts
    of both arms pooled, from the rows (s, t, n) of a pair table.

    The ML mean is exactly the sample mean x_bar, and the profile score in
    mu, sum_j S(j)/(mu + j) - n*log1p(x_bar/mu) with S(j) the number of
    counts above j, is positive below its one root and negative above it.
    The root is bracketed by doubling from mu = 1 and bisected to the last
    bit; it is clamped to [1, _MU_CAP], with a diagnostic at either bound.
    """
    s, t, counts = table
    top = max(int(s.max()), int(t.max()))
    if top > _MAX_CELLS_DEFAULT:
        raise TableSizeError(
            f"maximum-likelihood refinement sums over {top} count levels, "
            f"exceeding the budget of {_MAX_CELLS_DEFAULT}"
        )
    pooled = np.bincount(s, counts, top + 1) + np.bincount(t, counts, top + 1)
    levels = np.arange(top + 1, dtype=float)
    n = float(np.sum(pooled))
    x_bar = float(np.sum(pooled * levels)) / n
    above = n - np.cumsum(pooled)[:top]  # S(j), j < top
    levels = levels[:top]

    def score_negative(mu: float) -> bool:
        return float((above / (mu + levels)).sum()) <= n * math.log1p(x_bar / mu)

    if score_negative(1.0):
        diagnostics.append("maximum-likelihood mu clamped at the domain bound mu = 1")
        return 1.0, x_bar
    lo, hi = 1.0, 2.0
    while not score_negative(hi):
        if hi == _MU_CAP:
            diagnostics.append(f"maximum-likelihood mu capped at {_MU_CAP:g}")
            return hi, x_bar
        lo, hi = hi, min(2.0 * hi, _MU_CAP)
    while lo < (mid := 0.5 * (lo + hi)) < hi:
        if score_negative(mid):
            hi = mid
        else:
            lo = mid
    return hi, x_bar


def estimate_params(
    record: ShotRecord,
    refine: bool = False,
    n_bootstrap: int = 200,
    bootstrap_seed: int = 0,
    compute_fidelity: bool = True,
) -> EstimationReport:
    """Full parameter recovery from a shot record.

    ``refine=True`` replaces the moment (mu, M) with their joint maximum
    likelihood against the closed-form marginal (pooled over both arms).
    The standard errors are the delta-method errors of the moment
    estimators, also under ``refine=True``.  ``n_bootstrap`` and
    ``bootstrap_seed`` are kept for compatibility and ignored.
    ``compute_fidelity`` also scores the empirical histogram against the
    model table at the recovered parameters.
    """
    table, sums, ds, dt, dd, mean_sum, var_d = _moments(record, 100, "parameter estimation")
    var_sum, r_hat = sums.var(ds) + sums.var(dt), var_d / mean_sum
    m_hat = 0.5 * mean_sum
    excess = 0.5 * var_sum - m_hat
    mu_hat = m_hat**2 / excess if excess > 0.0 else math.inf
    eta_hat = 1.0 - r_hat
    errors = _standard_errors(sums, ds, dt, dd, m_hat, r_hat, excess, var_sum, var_d)
    diagnostics: list[str] = []
    if not math.isfinite(mu_hat):
        diagnostics.append(
            "mu unbounded: sample variance does not exceed the mean "
            "(sub-multithermal dispersion)"
        )
    if refine and math.isfinite(mu_hat):
        mu_hat, m_hat = _ml_refine(table, diagnostics)
        diagnostics.append("mu/M refined by maximum likelihood")
    if mu_hat < 1.0:
        diagnostics.append(f"moment mu {mu_hat!r} is below the domain bound; models take mu = 1")
    report = EstimationReport(
        M_hat=m_hat,
        eta_hat=eta_hat,
        mu_hat=mu_hat,
        R_hat=r_hat,
        fidelity=None,
        standard_errors=errors,
        n_shots=len(record),
    )
    fid = _model_fidelity(table, report, diagnostics) if compute_fidelity else None
    return replace(report, fidelity=fid, diagnostics=tuple(diagnostics))


def _standard_errors(sums: _Sums, ds, dt, dd, m, r, excess, v_sum, vd) -> dict:
    """Delta-method standard errors of the moment estimates (M, R, eta, mu).

    Each estimate is a smooth function of sample means, so its error is
    sqrt(sum IF**2)/N over the N per-shot influence functions IF.  A shot's
    IF depends only on its (s, t) cell, so the sum is sum n IF**2 over the
    rows of the pair table.  With ds = s - mean(s), dt = t - mean(t),
    dd = ds - dt and the estimates' own moments M, R, vd = var(s - t),
    v_sum = var(s) + var(t) and E = v_sum/2 - M (ddof=1): IF_M = (ds + dt)/2,
    IF_R = (dd**2 - vd - 2R IF_M)/(2M) = -IF_eta, and for mu = M**2/E,
    IF_mu = (2M/E) IF_M - (M/E)**2 IF_E, IF_E = (ds**2 + dt**2 - v_sum)/2 - IF_M.
    The mu error is inf when E <= 0, exactly where mu is.  The rows'
    deviations ds, dt and dd are overwritten.
    """
    def root_sum_sq(x):  # squares x in place
        x *= x
        return math.sqrt(sums.total(x)) / sums.shots

    if_m = ds + dt
    if_m *= 0.5
    dd *= dd  # from here on, IF_R times 2M
    dd -= vd
    dd -= 2.0 * r * if_m
    r_error, mu_error = root_sum_sq(dd) / (2.0 * m), math.inf
    if excess > 0.0:
        ratio = m / excess
        ds *= ds  # from here on, IF_mu
        dt *= dt
        ds += dt
        ds -= v_sum
        ds *= -0.5 * ratio**2
        ds += (2.0 * ratio + ratio**2) * if_m
        mu_error = root_sum_sq(ds)
    return {"M": root_sum_sq(if_m), "R": r_error, "eta": r_error, "mu": mu_error}


def _model_fidelity(table, report: EstimationReport, diagnostics: list[str]) -> float | None:
    """Fidelity of the record's pair table against the model table at
    ``report.params()``, or None with the refusal as a diagnostic."""
    try:
        model = joint_table(report.params(), tol=_TABLE_TOL)
        return fidelity(_grid(table) / report.n_shots, model)
    except (ParameterError, TableSizeError) as exc:
        diagnostics.append(f"fidelity skipped: {exc}")
        return None


def _as_table(dist) -> np.ndarray:
    if isinstance(dist, (JointDistribution, PhotoCountDistribution)):
        return dist.probs
    arr = np.asarray(dist, dtype=float)
    if arr.ndim not in (1, 2) or arr.size == 0:
        raise ParameterError("fidelity expects 1-D or 2-D probability tables")
    if not np.all(np.isfinite(arr)) or np.any(arr < 0.0):
        raise ParameterError("probability tables must be finite and >= 0")
    return arr


def fidelity(p, q) -> float:
    """Bhattacharyya overlap of two probability tables.

    sqrt(p*q) is summed over the leading overlap of the two supports, where
    both tables have cells (no other cell adds to it), and normalised by
    each table's own total mass, so trailing truncation does not depress
    the score: the result is symmetric, exactly 1 when the tables coincide
    cellwise, and 0 on disjoint (or empty) support.
    """
    a = _as_table(p)
    b = _as_table(q)
    if a.ndim != b.ndim:
        raise ParameterError("fidelity arguments must have matching dimensionality")
    mass = float(a.sum()) * float(b.sum())
    if mass == 0.0:
        return 0.0
    overlap = tuple(slice(0, min(x, y)) for x, y in zip(a.shape, b.shape))
    return min(1.0, float(np.sum(np.sqrt(a[overlap] * b[overlap]))) / math.sqrt(mass))
