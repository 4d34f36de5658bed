"""Closed-form counting statistics of multimode twin-beam light.

Per mode, the two arms carry perfectly correlated photon numbers with a
geometric law of ratio ``lambda_sq``; detection thins each arm independently
with efficiency eta.  Summing mu identical modes gives, for the detected
counts (s, t) on the two beams,

    p(s, t) = A**mu * B**(s+t)
              * sum_{l >= max(s,t)} x**l * C(l+mu-1, l) * C(l, s) * C(l, t)

with A = mu*eta/(M + mu*eta), B = eta/(1-eta), x = M*(1-eta)**2/(M + mu*eta)
and M the mean counts per beam.  Every summand is evaluated in log space
(gamma-function binomials, so mu may be real) and accumulated in linear
space; the term ratio

    r(l) = x * (l+mu) * (l+1) / ((l+1-s) * (l+1-t))

is monotonically non-increasing in l with limit x < 1, which yields a
rigorous geometric tail bound for truncation.  The single-beam marginal is
the closed-form multithermal (negative-binomial) law

    p2(t) = C(t+mu-1, t) * (M/mu)**t * (1 + M/mu)**(-(t+mu)).

``brute_force_joint`` provides the independent oracle: it enumerates photon
numbers per mode, applies binomial thinning to each arm, and convolves the
modes, using exact integer binomials throughout.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np
from scipy.special import betainc, gammaln

from .errors import ConvergenceError, ParameterError, TableSizeError
from .params import ExperimentParams

__all__ = [
    "PhotoCountDistribution",
    "JointDistribution",
    "log_binomial",
    "joint_prob",
    "joint_table",
    "marginal",
    "marginal_dist",
    "brute_force_joint",
]

# Mass slack added on top of 10*tol when validating truncated distributions,
# covering pure floating-point rounding at tol = 0 (empirical tables).
_FLOAT_SLACK = 1e-12

_CHUNK = 96
_MAX_CELLS_DEFAULT = 4_000_000


def _freeze(array: np.ndarray) -> np.ndarray:
    out = np.ascontiguousarray(array, dtype=float)
    out.flags.writeable = False
    return out


def _mass_sum(values) -> float:
    """Accurate sum of non-negative masses: exact compensated summation for
    small arrays, ascending pairwise summation for large ones."""
    arr = np.asarray(values, dtype=float).ravel()
    if arr.size <= 65536:
        return float(math.fsum(arr.tolist()))
    return float(np.sum(np.sort(arr)))


def _probs_and_tail(values: np.ndarray) -> tuple[np.ndarray, float]:
    """Pair an assembled mass array with its omitted-mass bound.

    The exact distribution has total mass <= 1; summation rounding can
    overshoot by a few ulps, which is scaled out (anything beyond rounding
    scale is a genuine bug and raises).
    """
    total = _mass_sum(values)
    if total > 1.0:
        if total > 1.0 + 1e-12:
            raise ConvergenceError(f"assembled mass {total} exceeds 1 beyond rounding")
        return values / total, 0.0
    return values, 1.0 - total


@dataclass(frozen=True)
class PhotoCountDistribution:
    """Truncated distribution over counts 0..len(probs)-1 on one beam.

    ``tail_bound`` is an upper bound on the omitted mass, so that
    sum(probs) + tail_bound recovers 1 up to the build tolerance.  ``mean``
    caches the first moment of the stored part.
    """

    probs: np.ndarray
    tail_bound: float
    tol: float
    mean: float = field(init=False)

    def __post_init__(self) -> None:
        probs = _freeze(np.atleast_1d(self.probs))
        if probs.ndim != 1 or probs.size == 0:
            raise ParameterError("probs must be a non-empty 1-D array")
        if np.any(probs < 0.0) or not np.all(np.isfinite(probs)):
            raise ParameterError("probabilities must be finite and >= 0")
        if self.tail_bound < 0.0:
            raise ParameterError("tail_bound must be >= 0")
        total = _mass_sum(probs) + self.tail_bound
        slack = 10.0 * self.tol + _FLOAT_SLACK
        if not (1.0 - slack <= total <= 1.0 + slack):
            raise ParameterError(f"mass + tail_bound = {total} outside [1-{slack}, 1]")
        object.__setattr__(self, "probs", probs)
        object.__setattr__(self, "mean", float(np.arange(probs.size) @ probs))

    def __len__(self) -> int:
        return int(self.probs.size)

    def variance(self) -> float:
        counts = np.arange(self.probs.size)
        return float((counts - self.mean) ** 2 @ self.probs)


@dataclass(frozen=True)
class JointDistribution:
    """Truncated two-beam count table over (s, t) starting at (0, 0).

    Model-derived tables are exactly symmetric (the closed form is symmetric
    in its arguments and both halves run through identical arithmetic);
    empirical tables set ``symmetric=False`` to skip that invariant.
    """

    probs: np.ndarray
    tail_bound: float
    params: Optional[ExperimentParams]
    tol: float
    symmetric: bool = True
    meta: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        probs = _freeze(np.atleast_2d(self.probs))
        if probs.ndim != 2 or probs.size == 0:
            raise ParameterError("probs must be a non-empty 2-D array")
        if np.any(probs < 0.0) or not np.all(np.isfinite(probs)):
            raise ParameterError("probabilities must be finite and >= 0")
        if self.tail_bound < 0.0:
            raise ParameterError("tail_bound must be >= 0")
        if self.symmetric and (
            probs.shape[0] != probs.shape[1] or not np.array_equal(probs, probs.T)
        ):
            raise ParameterError("model joint table must be exactly symmetric")
        total = self.total_mass + self.tail_bound
        slack = 10.0 * self.tol + _FLOAT_SLACK
        if not (1.0 - slack <= total <= 1.0 + slack):
            raise ParameterError(f"mass + tail_bound = {total} outside [1-{slack}, 1]")
        object.__setattr__(self, "probs", probs)

    @property
    def total_mass(self) -> float:
        return _mass_sum(self.probs)

    @property
    def shape(self) -> tuple[int, int]:
        return self.probs.shape  # type: ignore[return-value]

    def marginal_first(self) -> np.ndarray:
        """Column-summed marginal of the first index."""
        return self.probs.sum(axis=1)

    def marginal_second(self) -> np.ndarray:
        return self.probs.sum(axis=0)


# ---------------------------------------------------------------------------
# log-space combinatorics
# ---------------------------------------------------------------------------


def log_binomial(n: float, k: int) -> float:
    """Natural log of the (generalised) binomial coefficient C(n, k).

    n may be any non-negative real; k must be a non-negative integer.  For
    integer n < k the coefficient is zero and -inf is returned.  Non-integer
    n < k is rejected: there the gamma-function continuation alternates in
    sign and has no real logarithm.
    """
    if isinstance(k, bool) or not isinstance(k, (int, np.integer)):
        raise ParameterError(f"k must be an integer, got {k!r}")
    if k < 0:
        raise ParameterError(f"k must be >= 0, got {k}")
    if not isinstance(n, (int, float, np.integer, np.floating)) or not math.isfinite(
        float(n)
    ):
        raise ParameterError(f"n must be a finite real, got {n!r}")
    n = float(n)
    if n < 0.0:
        raise ParameterError(f"n must be >= 0, got {n}")
    if n < k:
        if n.is_integer():
            return float("-inf")
        raise ParameterError(f"C(n={n}, k={k}) with non-integer n < k has no real log")
    return math.lgamma(n + 1.0) - math.lgamma(k + 1.0) - math.lgamma(n - k + 1.0)


def _log_binom_arr(n, k):
    """Vectorised log C(n, k); caller guarantees n >= k >= 0 elementwise."""
    n = np.asarray(n, dtype=float)
    k = np.asarray(k, dtype=float)
    return gammaln(n + 1.0) - gammaln(k + 1.0) - gammaln(n - k + 1.0)


def _validate_count(value, name: str) -> int:
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ParameterError(f"{name} must be an integer count, got {value!r}")
    if value < 0:
        raise ParameterError(f"{name} must be >= 0, got {value}")
    return int(value)


def _validate_tol(tol: float) -> float:
    if not (isinstance(tol, (int, float)) and 0.0 < float(tol) < 1.0):
        raise ParameterError(f"tol must be in (0, 1), got {tol!r}")
    return float(tol)


# ---------------------------------------------------------------------------
# joint distribution, closed form
# ---------------------------------------------------------------------------


def _series_constants(params: ExperimentParams) -> tuple[float, float, float]:
    """(log A, log B, log x) for the joint-count series."""
    mu, eta, m = params.mu, params.eta, params.mean_counts
    denom = math.log(m + mu * eta)
    log_a = math.log(mu) + math.log(eta) - denom
    log_b = math.log(eta) - math.log1p(-eta)
    log_x = math.log(m) + 2.0 * math.log1p(-eta) - denom
    return log_a, log_b, log_x


def joint_prob(params: ExperimentParams, s: int, t: int, tol: float = 1e-12) -> float:
    """Probability of detecting s counts on one beam and t on the other.

    Evaluates the closed-form series with a relative truncation tolerance
    ``tol``: summation stops once the geometric tail bound drops below
    tol times the accumulated sum.  Exactly symmetric in (s, t): both orders
    run through the same code path after a swap.
    """
    params.require_lossy()
    s = _validate_count(s, "s")
    t = _validate_count(t, "t")
    tol = _validate_tol(tol)
    if params.mean_counts == 0.0:
        return 1.0 if s == 0 and t == 0 else 0.0
    s, t = (s, t) if s >= t else (t, s)

    mu = params.mu
    log_a, log_b, log_x = _series_constants(params)
    if log_x >= 0.0:
        raise ConvergenceError("series ratio bound >= 1; parameters out of domain")
    x = math.exp(log_x)
    c0 = mu * log_a + (s + t) * log_b

    # Linear-space accumulation of log-space terms, rescaled by the running
    # peak; each chunk is summed smallest-first.
    acc = 0.0
    scale = -math.inf
    lo = s
    hard_cap = lo + 10_000 + int(200.0 * (s + t + mu + 10.0) / max(1e-3, -log_x))
    # The stopping bound term(l) * r / (1 - r) falls with l (r is
    # non-increasing) and the sum never exceeds min(p2(s), p2(t)); if the
    # bound at the last chunk end the loop can reach is still above tol times
    # that, no chunk end can meet the stopping test.  The 1e-6 in the
    # exponent covers rounding in the log-gamma terms.
    last = lo + _CHUNK * ((hard_cap - lo) // _CHUNK) + _CHUNK - 1
    ratio = x * (last + mu) * (last + 1.0) / ((last + 1.0 - s) * (last + 1.0 - t))
    if ratio >= 1.0 or (
        c0 + last * log_x + log_binomial(last + mu - 1.0, last)
        + log_binomial(last, s) + log_binomial(last, t) + math.log(ratio / (1.0 - ratio))
        > math.log(tol) + float(_log_nb_arr(mu, params.mean_counts, [s, t]).min()) + 1e-6
    ):
        raise TableSizeError(
            f"series for p({s}, {t}) needs more than {last + 1} photon levels "
            f"to reach the relative tolerance {tol:.3g}"
        )
    while True:
        ls = np.arange(lo, lo + _CHUNK, dtype=float)
        logs = (
            c0
            + ls * log_x
            + _log_binom_arr(ls + mu - 1.0, ls)
            + _log_binom_arr(ls, s)
            + _log_binom_arr(ls, t)
        )
        peak = float(logs.max())
        if peak > scale:
            if acc > 0.0:
                acc *= math.exp(scale - peak)
            scale = peak
        acc += float(np.sort(np.exp(logs - scale)).sum())
        last = lo + _CHUNK - 1
        ratio = x * (last + mu) * (last + 1.0) / ((last + 1.0 - s) * (last + 1.0 - t))
        if ratio < 1.0:
            tail = math.exp(float(logs[-1]) - scale) * ratio / (1.0 - ratio)
            if tail <= tol * acc:
                break
        lo += _CHUNK
        if lo > hard_cap:
            raise ConvergenceError(f"series did not converge within l <= {hard_cap}")
    # the exact value is a probability; only terminal rounding can exceed 1
    return min(acc * math.exp(scale), 1.0)


def _slice_factors(params: ExperimentParams, ks: np.ndarray, lo: int, tol_mass: float):
    """Scaled rank-one factors of the joint series, one l-chunk at a time.

    The series contributes one rank-one slice c_l * u_l (x) u_l per index l,
    u_l(k) = B**k * C(l, k), where the slice over the full (s, t) plane has
    mass A**mu * y**l * C(l+mu-1, l) with y = M/(M + mu*eta) < 1, giving a
    global geometric stopping bound.  Yields V[l, j] = exp(log u_l(ks[j]) +
    log c_l / 2) for chunks of l from ``lo`` on, until l has passed every
    k and the bound on the mass of all later slices is <= tol_mass; raises
    TableSizeError up front when that cannot happen within the level cap.
    Every V entry squared is bounded by a diagonal table cell, so the scaled
    factors can never overflow.  Callers set the numpy error state.
    """
    mu, eta, m = params.mu, params.eta, params.mean_counts
    log_a, log_b, log_x = _series_constants(params)
    log_y = math.log(m) - math.log(m + mu * eta)
    y = math.exp(log_y)
    base = mu * log_a
    k_hi = int(ks.max())
    log_u_base = ks * log_b  # the C(l, k) part is filled per chunk
    chunk = 128
    hard_cap = 10_000 + int(200.0 * (k_hi + mu + 10.0) / max(1e-3, -log_y))
    # The slice masses are the NegBin(mu, 1 - y) law of the photon total, so
    # I_y(l + 1, mu) is the exact mass beyond slice l.  Every chunk the loop
    # can reach ends before slice hard_cap + chunk, and the stopping bound is
    # at least the exact mass beyond it: past the budget, the loop cannot stop.
    beyond_cap = float(betainc(hard_cap + chunk, mu, y))
    if beyond_cap > tol_mass:
        raise TableSizeError(
            f"table series needs more than {hard_cap + chunk} photon levels: mass "
            f"{beyond_cap:.3g} lies beyond them, above the budget of {tol_mass:.3g}"
        )
    while True:
        ls = np.arange(lo, lo + chunk, dtype=float)
        log_c = base + ls * log_x + _log_binom_arr(ls + mu - 1.0, ls)
        valid = ks[None, :] <= ls[:, None]
        log_u = np.where(
            valid,
            log_u_base[None, :] + gammaln(ls + 1.0)[:, None]
            - gammaln(ks + 1.0)[None, :]
            - gammaln(np.where(valid, ls[:, None] - ks[None, :], 0.0) + 1.0),
            -np.inf,
        )
        yield np.exp(log_u + 0.5 * log_c[:, None])
        last = lo + chunk - 1
        log_mass = base + last * log_y + log_binomial(last + mu - 1.0, last)
        ratio = y * (last + mu) / (last + 1.0)
        if last >= k_hi and ratio < 1.0:
            if math.exp(log_mass) * ratio / (1.0 - ratio) <= tol_mass:
                return
        lo += chunk
        if lo > hard_cap:
            raise ConvergenceError(f"table series did not converge within l <= {hard_cap}")


def _table_block(
    params: ExperimentParams, s_max: int, t_max: int, tol_mass: float
) -> np.ndarray:
    """Joint-count table on [0, s_max] x [0, t_max], truncation mass <= tol_mass.

    Slices are accumulated as V.T @ V over the factor chunks of
    ``_slice_factors``.  The upper triangle is mirrored at the end, making
    the stored table exactly symmetric.
    """
    size = max(s_max, t_max) + 1
    table = np.zeros((size, size))
    if params.mean_counts == 0.0:
        table[0, 0] = 1.0
        return table[: s_max + 1, : t_max + 1]
    with np.errstate(under="ignore", invalid="ignore", divide="ignore"):
        for factors in _slice_factors(params, np.arange(size, dtype=float), 0, tol_mass):
            table += factors.T @ factors
    table = np.triu(table) + np.triu(table, 1).T
    return table[: s_max + 1, : t_max + 1]


def _column_sum(
    params: ExperimentParams, columns: np.ndarray, s_max: int, tol_mass: float
) -> np.ndarray:
    """Summed joint-table columns sum_{t in columns} p(s, t) for s = 0..s_max,
    truncation mass <= tol_mass; ``columns`` is ascending and M > 0.

    The same slices as ``_table_block``, restricted to a set of columns: per
    chunk, (sum_{t in columns} V[l, t]) @ V[l, s].  Slices with l below the
    smallest column vanish on every column and are skipped.
    """
    ks = np.concatenate([np.arange(s_max + 1, dtype=float), columns])
    col = np.zeros(s_max + 1)
    with np.errstate(under="ignore", invalid="ignore", divide="ignore"):
        for factors in _slice_factors(params, ks, int(columns[0]), tol_mass):
            col += factors[:, s_max + 1 :].sum(axis=1) @ factors[:, : s_max + 1]
    return col


def _first_true(pred, hi: int) -> int:
    """Smallest k >= 0 with pred(k), for a predicate that is false below
    some k and true from there on; ``hi`` is a first guess, doubled until
    pred(hi) holds, and the step is found by bisection."""
    while not pred(hi):
        hi = 2 * hi + 1
    lo = -1
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if pred(mid):
            hi = mid
        else:
            lo = mid
    return hi


def _nb_sf(params: ExperimentParams, k) -> float:
    """P(count > k) under the closed-form marginal: the upper tail of the
    negative binomial, I_q(k + 1, mu) with q = M/(M + mu)."""
    q = params.mean_counts / (params.mean_counts + params.mu)
    return betainc(k + 1.0, params.mu, q)


def _nb_quantile(params: ExperimentParams, q: float) -> int:
    """Smallest k with P(count > k) <= q under the closed-form marginal."""
    if params.mean_counts == 0.0:
        return 0
    return _first_true(lambda k: _nb_sf(params, k) <= q, 1)


def joint_table(
    params: ExperimentParams,
    tol: float = 1e-12,
    max_cells: int = _MAX_CELLS_DEFAULT,
) -> JointDistribution:
    """Joint-count table with adaptively chosen bounds and omitted mass <= tol.

    The square support is sized from the closed-form marginal quantile (half
    the mass budget), the series truncation gets the other half.  Refuses to
    build more than ``max_cells`` cells.
    """
    params.require_lossy()
    tol = _validate_tol(tol)
    k = _nb_quantile(params, tol / 4.0)
    cells = (k + 1) ** 2
    if cells > max_cells:
        raise TableSizeError(
            f"table needs ({k + 1})**2 = {cells} cells for tol={tol}, "
            f"exceeding the budget of {max_cells}"
        )
    table = _table_block(params, k, k, tol / 2.0)
    table, tail = _probs_and_tail(table)
    return JointDistribution(probs=table, tail_bound=tail, params=params, tol=tol)


# ---------------------------------------------------------------------------
# single-beam marginal (multithermal / negative binomial)
# ---------------------------------------------------------------------------


def _log_nb_arr(mu: float, m: float, t) -> np.ndarray:
    """Log multithermal pmf for mode count mu and mean m, vectorised in t."""
    t = np.asarray(t, dtype=float)
    if m == 0.0:
        return np.where(t == 0.0, 0.0, -np.inf)
    return (
        _log_binom_arr(t + mu - 1.0, t)
        + t * (math.log(m) - math.log(mu))
        - (t + mu) * math.log1p(m / mu)
    )


def _log_marginal_arr(params: ExperimentParams, t) -> np.ndarray:
    return _log_nb_arr(params.mu, params.mean_counts, t)


def log_marginal(params: ExperimentParams, t: int) -> float:
    """Natural log of the closed-form single-beam count probability."""
    t = _validate_count(t, "t")
    return float(_log_marginal_arr(params, t))


def marginal(params: ExperimentParams, t: int) -> float:
    """Single-beam probability of t counts: the multithermal closed form."""
    value = log_marginal(params, t)
    return math.exp(value) if value > -math.inf else 0.0


def marginal_dist(params: ExperimentParams, tol: float = 1e-12) -> PhotoCountDistribution:
    """Single-beam count distribution truncated to omitted mass <= tol."""
    tol = _validate_tol(tol)
    k = _nb_quantile(params, tol)
    probs = np.exp(_log_marginal_arr(params, np.arange(k + 1)))
    probs, tail = _probs_and_tail(probs)
    return PhotoCountDistribution(probs=probs, tail_bound=tail, tol=tol)


# ---------------------------------------------------------------------------
# direct-enumeration oracle
# ---------------------------------------------------------------------------

_ORACLE_TAIL = 1e-12


def brute_force_joint(
    mu: int,
    mean_photons: float,
    eta: float,
    photon_cutoff: int | None = None,
) -> JointDistribution:
    """Joint count table straight from the model definition, no closed form.

    Enumerates the per-mode photon number n (geometric law, both arms carry
    the same n), thins each arm with an exact-integer binomial kernel, and
    convolves the modes.  Intended as an oracle for small mode numbers;
    eta = 1 (no loss) is allowed here and nowhere else.

    The geometric cutoff must leave a tail below 1e-12 summed over modes;
    ``photon_cutoff=None`` picks the smallest such cutoff.
    """
    from scipy.signal import convolve2d  # only this oracle needs it; import is slow

    if isinstance(mu, bool) or not isinstance(mu, (int, np.integer)):
        raise ParameterError(f"mu must be an integer for direct enumeration, got {mu!r}")
    if not 1 <= mu <= 4:
        raise ParameterError(f"direct enumeration supports 1 <= mu <= 4, got {mu}")
    if not (isinstance(eta, (int, float)) and 0.0 < float(eta) <= 1.0):
        raise ParameterError(f"eta must be in (0, 1], got {eta!r}")
    if not (isinstance(mean_photons, (int, float)) and float(mean_photons) >= 0.0):
        raise ParameterError(f"mean_photons must be >= 0, got {mean_photons!r}")
    mu = int(mu)
    eta = float(eta)
    n_mean = float(mean_photons)
    lam_sq = n_mean / (mu + n_mean) if n_mean > 0.0 else 0.0

    if lam_sq == 0.0:
        cutoff = 0
    else:
        needed = math.ceil(math.log(_ORACLE_TAIL / mu) / math.log(lam_sq)) - 1
        cutoff = max(0, needed)
        if photon_cutoff is not None:
            if photon_cutoff < cutoff:
                raise ParameterError(
                    f"photon_cutoff={photon_cutoff} leaves a geometric tail above "
                    f"{_ORACLE_TAIL}; need >= {cutoff}"
                )
            cutoff = int(photon_cutoff)

    ns = np.arange(cutoff + 1)
    geo = (1.0 - lam_sq) * lam_sq**ns if lam_sq > 0.0 else np.array([1.0])
    # Exact-integer binomial thinning kernel: thin[n, k] = C(n, k) eta^k (1-eta)^(n-k)
    thin = np.zeros((cutoff + 1, cutoff + 1))
    for n in range(cutoff + 1):
        for k in range(n + 1):
            thin[n, k] = math.comb(n, k) * eta**k * (1.0 - eta) ** (n - k)

    weighted = geo[:, None] * thin
    per_mode = weighted.T @ thin
    table = per_mode
    for _ in range(mu - 1):
        table = convolve2d(table, per_mode)
    # Convolution order breaks bitwise symmetry in the last ulp; mirror the
    # upper triangle so the stored table is exactly symmetric.
    table = np.triu(table) + np.triu(table, 1).T

    provenance = (
        ExperimentParams(mu, eta, eta * n_mean) if eta < 1.0 else
        ExperimentParams(mu, eta, eta * n_mean, allow_unit_eta=True)
    )
    table, tail = _probs_and_tail(table)
    return JointDistribution(
        probs=table, tail_bound=tail, params=provenance, tol=_ORACLE_TAIL
    )
