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
All standard errors are nonparametric bootstrap over whole shots, which
preserves the arm-arm correlation; a resample is drawn as multinomial counts
over a tally of the record's distinct (s, t) cells, the same law as drawing
shot indices, and is deterministic given the bootstrap seed.  Agreement
between a model table and an empirical histogram is the Bhattacharyya
coefficient sum_{cells} sqrt(p*q) on the zero-padded union of their
supports, with each table normalised by its total mass.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .core import JointDistribution, PhotoCountDistribution, joint_table
from .errors import DegenerateRecordError, ParameterError, TableSizeError
from .params import ExperimentParams
from .sampling import ShotRecord, histogram

__all__ = ["EstimationReport", "noise_reduction", "estimate_params", "fidelity"]

_BOOTSTRAP_DEFAULT = 200
_MU_CAP = 1e6
_MAX_LEVELS = 4_000_000  # count levels the refinement's score sums over
_TABLE_TOL = 1e-8  # omitted mass of the model table the fidelity scores against


@dataclass(frozen=True)
class EstimationReport:
    """Point estimates, bootstrap errors, and model-data fidelity.

    R_hat = 1 - eta_hat by construction.  mu_hat is +inf with a diagnostic
    when the sample variance does not exceed the mean (no overdispersion to
    attribute to mode structure).  fidelity is None when no valid model
    table can be built from the estimates.
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
        """Estimates as an ExperimentParams; raises if out of domain."""
        if not math.isfinite(self.mu_hat):
            raise ParameterError("mu estimate is unbounded; no valid parameter set")
        return ExperimentParams(max(self.mu_hat, 1.0), self.eta_hat, self.M_hat)


def noise_reduction(record: ShotRecord) -> float:
    """Sample variance of the count difference over the mean count sum.

    Equals 1 - eta for ideal twin beams; values below 1 certify nonclassical
    correlation.  No noise subtraction is applied.
    """
    if len(record) < 2:
        raise DegenerateRecordError("noise reduction needs at least 2 shots")
    s = record.s.astype(float)
    t = record.t.astype(float)
    mean_sum = float(np.mean(s + t))
    if mean_sum <= 0.0:
        raise DegenerateRecordError("mean(s + t) is zero; record carries no light")
    return float(np.var(s - t, ddof=1)) / mean_sum


def _moment_estimates(s: np.ndarray, t: np.ndarray) -> tuple[float, float, float, float]:
    """(M, R, eta, mu) from sample moments of the two arms."""
    diff_var = float(np.var(s - t, ddof=1))
    mean_sum = float(np.mean(s + t))
    m_hat = 0.5 * mean_sum
    r_hat = diff_var / mean_sum
    eta_hat = 1.0 - r_hat
    var_hat = 0.5 * (float(np.var(s, ddof=1)) + float(np.var(t, ddof=1)))
    excess = var_hat - m_hat
    mu_hat = m_hat**2 / excess if excess > 0.0 else math.inf
    return m_hat, r_hat, eta_hat, mu_hat


def _ml_refine(counts: np.ndarray, diagnostics: list[str]) -> tuple[float, float]:
    """Maximum-likelihood (mu, M) of the closed-form marginal for pooled
    counts.

    The ML mean is exactly the sample mean x_bar, and the profile score in
    mu, sum_j S(j)/(mu + j) - n*log1p(x_bar/mu) with S(j) the number of
    counts above j, is positive below its one root and negative above it.
    The root is bracketed by doubling from mu = 1 and bisected to the last
    bit; it is clamped to [1, _MU_CAP], with a diagnostic at either bound.
    """
    n = counts.size
    top = int(counts.max())
    if top > _MAX_LEVELS:
        raise TableSizeError(
            f"maximum-likelihood refinement sums over {top} count levels, "
            f"exceeding the budget of {_MAX_LEVELS}"
        )
    above = n - np.cumsum(np.bincount(counts, minlength=top + 1))[:top]  # S(j), j < top
    levels = np.arange(top, dtype=float)
    x_bar = float(np.mean(counts))

    def score_negative(mu: float) -> bool:
        return float(above @ (1.0 / (mu + levels))) <= n * math.log1p(x_bar / mu)

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
    n_bootstrap: int = _BOOTSTRAP_DEFAULT,
    bootstrap_seed: int = 0,
    compute_fidelity: bool = True,
) -> EstimationReport:
    """Full parameter recovery from a shot record.

    ``refine=True`` replaces the moment (mu, M) with their joint maximum
    likelihood against the closed-form marginal (pooled over both arms).
    Bootstrap standard errors resample whole shots; mu resamples that hit
    the unbounded regime are excluded from its spread and counted in the
    diagnostics.  ``compute_fidelity`` also scores the empirical histogram
    against the model table at the recovered parameters.
    """
    if len(record) < 100:
        raise DegenerateRecordError("parameter estimation needs at least 100 shots")
    if n_bootstrap < 0:
        raise ParameterError("n_bootstrap must be >= 0")
    s = record.s.astype(float)
    t = record.t.astype(float)
    if float(np.mean(s + t)) <= 0.0:
        raise DegenerateRecordError("mean(s + t) is zero; record carries no light")

    m_hat, r_hat, eta_hat, mu_hat = _moment_estimates(s, t)
    diagnostics: list[str] = []
    if not math.isfinite(mu_hat):
        diagnostics.append(
            "mu unbounded: sample variance does not exceed the mean "
            "(sub-multithermal dispersion)"
        )
    if refine and math.isfinite(mu_hat):
        mu_hat, m_hat = _ml_refine(np.concatenate([record.s, record.t]), diagnostics)
        diagnostics.append("mu/M refined by maximum likelihood")

    errors = _bootstrap_errors(s, t, n_bootstrap, bootstrap_seed, diagnostics)

    fid = None
    if compute_fidelity:
        fid = _model_fidelity(record, m_hat, eta_hat, mu_hat, diagnostics)

    return EstimationReport(
        M_hat=m_hat,
        eta_hat=eta_hat,
        mu_hat=mu_hat,
        R_hat=r_hat,
        fidelity=fid,
        standard_errors=errors,
        diagnostics=tuple(diagnostics),
        n_shots=len(record),
    )


def _cell_tally(s: np.ndarray, t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct (s, t) cells of a record in lexicographic order, as an
    (k, 2) array, and the number of shots in each.

    Each arm is dense-ranked on its own and the pair is keyed as
    rank_s * (distinct t values) + rank_t, an integer below n**2, so one 1-D
    sort replaces a sort of the (n, 2) rows: the same cells, order and
    counts as ``np.unique(np.column_stack([s, t]), axis=0)``.
    """
    s_values, s_rank = np.unique(s, return_inverse=True)
    t_values, t_rank = np.unique(t, return_inverse=True)
    keys, counts = np.unique(s_rank * t_values.size + t_rank, return_counts=True)
    cells = np.column_stack([s_values[keys // t_values.size], t_values[keys % t_values.size]])
    return cells, counts


def _bootstrap_errors(
    s: np.ndarray,
    t: np.ndarray,
    n_bootstrap: int,
    seed: int,
    diagnostics: list[str],
) -> dict:
    """Bootstrap standard errors: each resample's statistics are weighted
    sums over the distinct (s, t) cells, with Multinomial(n, counts / n)
    weights, centred on the record means before squaring."""
    if n_bootstrap == 0:
        return {}
    n = s.size
    cells, counts = _cell_tally(s, t)
    weights = np.random.default_rng(seed).multinomial(n, counts / n, size=n_bootstrap)
    # per-cell deviations of s, t and s - t from the record means
    dev = np.column_stack([cells, cells[:, 0] - cells[:, 1]])
    record_mean = counts @ dev / n
    dev -= record_mean
    shift = weights @ dev / n  # resample mean minus record mean
    var = (weights @ dev**2 - n * shift**2) / (n - 1)
    m = 0.5 * (record_mean[0] + record_mean[1] + shift[:, 0] + shift[:, 1])
    excess = 0.5 * (var[:, 0] + var[:, 1]) - m
    with np.errstate(divide="ignore", invalid="ignore"):
        r = var[:, 2] / (2.0 * m)
        mu = np.where(excess > 0.0, m**2 / excess, np.inf)
    stats = {"M": m, "R": r, "eta": 1.0 - r, "mu": mu}
    out = {}
    for key, values in stats.items():
        finite = values[np.isfinite(values)]
        if key == "mu" and finite.size < values.size:
            diagnostics.append(
                f"{values.size - finite.size} of {values.size} bootstrap resamples "
                "hit the unbounded-mu regime"
            )
        out[key] = float(np.std(finite, ddof=1)) if finite.size > 1 else math.inf
    return out


def _model_fidelity(
    record: ShotRecord,
    m_hat: float,
    eta_hat: float,
    mu_hat: float,
    diagnostics: list[str],
) -> float | None:
    if not (math.isfinite(mu_hat) and mu_hat >= 1.0 and 0.0 < eta_hat < 1.0 and m_hat > 0.0):
        diagnostics.append("fidelity skipped: estimates leave the model domain")
        return None
    model = joint_table(ExperimentParams(mu_hat, eta_hat, m_hat), tol=_TABLE_TOL)
    return fidelity(histogram(record), model)


def _as_table(dist) -> np.ndarray:
    if isinstance(dist, JointDistribution):
        return dist.probs
    if isinstance(dist, PhotoCountDistribution):
        return dist.probs
    arr = np.asarray(dist, dtype=float)
    if arr.ndim not in (1, 2) or arr.size == 0:
        raise ParameterError("fidelity expects 1-D or 2-D probability tables")
    if not np.all(np.isfinite(arr)) or np.any(arr < 0.0):
        raise ParameterError("probability tables must be finite and >= 0")
    return arr


def fidelity(p, q) -> float:
    """Bhattacharyya overlap of two probability tables.

    Tables are zero-padded to their union support and normalised by their
    total masses, so trailing truncation does not depress the score: the
    result is symmetric, exactly 1 when the tables coincide cellwise on the
    union, and 0 on disjoint (or empty) support.
    """
    a = _as_table(p)
    b = _as_table(q)
    if a.ndim != b.ndim:
        raise ParameterError("fidelity arguments must have matching dimensionality")
    shape = tuple(max(x, y) for x, y in zip(a.shape, b.shape))
    pa = np.zeros(shape)
    pb = np.zeros(shape)
    pa[tuple(slice(0, n) for n in a.shape)] = a
    pb[tuple(slice(0, n) for n in b.shape)] = b
    mass = float(pa.sum()) * float(pb.sum())
    if mass == 0.0:
        return 0.0
    return min(1.0, float(np.sum(np.sqrt(pa * pb))) / math.sqrt(mass))
