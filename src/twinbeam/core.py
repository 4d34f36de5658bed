"""Closed-form counting statistics of multimode twin-beam light.

Per mode, the two arms carry perfectly correlated photon numbers with a
geometric law; detection thins each arm independently with efficiency eta.
Summing mu identical modes, the detected counts (s, t) on the two beams have
the generating function G(u, v) = [(1-r) / (1 - r(a + bu)(a + bv))]**mu,
a = 1-eta, b = eta, r = nbar/(1 + nbar) with nbar = M/(eta*mu) the mean
photon number per mode and M the mean counts per beam.  The single-beam
marginal is the multithermal (negative-binomial) law

    p2(t) = C(t+mu-1, t) * q**t * (1 - q)**mu,   q = M/(M + mu),

a running sum of the O(1) log-ratios log((j+mu) q/(j+1)).  ``joint_table``
needs no series: the identity (1 - r(a + bu)(a + bv)) dG/du =
mu r b (a + bv) G gives, with m = M/mu and D = 1 + m(2-eta), for the
conditional law R(s, t) = p(s, t)/p2(s) = P(t | s)

    R(s, t) = alpha R(s-1, t) + beta R(s-1, t-1) + c R(s, t-1),
    alpha = (1-eta)(1+m)/D,  beta = eta(1+m)/D,  c = m(1-eta)/D,

positive and summing to 1, so every cell is a convex combination of cells
in [0, 1]: nothing cancels, overflows or needs rescaling, and the cells
p2(s) R(s, t) keep full precision where p(0, 0) = (1 + m(2-eta))**-mu
underflows.  The tail sums P(count >= t | s) obey the same recurrence for
t >= 1.  Both are swept one anti-diagonal s + t = d at a time
(``_conditional_law``).

``joint_prob`` is an independent oracle cell by cell.  The series over
photon levels p(s, t) = A**mu B**(s+t) sum_{l >= max(s,t)} x**l
C(l+mu-1, l) C(l, s) C(l, t), A = mu eta/(M + mu eta), B = eta/(1-eta),
x = M (1-eta)**2/(M + mu eta) < 1, is for s >= t the hypergeometric
x**s C(s+mu-1, s) C(s, t) 2F1(s+mu, s+1; s-t+1; x).  Euler's transformation
(Abramowitz & Stegun 15.3.3) makes it (1-x)**-(s+t+mu)
2F1(1-t-mu, -t; s-t+1; x), which ends after t + 1 positive terms; with
A/(1-x) = 1/D,

    p(s, t) = D**-mu (B/(1-x))**(s+t) x**s C(s+mu-1, s) C(s, t) sum_{k<=t} u_k,
    u_0 = 1,  u_{k+1} = u_k x (t+mu-1-k)(t-k) / ((s-t+1+k)(k+1)).

``brute_force_joint`` enumerates photon numbers per mode with exact integer
binomial thinning and convolves modes.
"""

from __future__ import annotations

import math
from dataclasses import InitVar, dataclass, field
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


def _assembled(cls, values: np.ndarray, **fields):
    """``cls`` built from an assembled mass array, summed once.

    The omitted mass is 1 - sum.  The exact distribution has total mass
    <= 1, so a sum above 1 can only come from rounding.  An overshoot of a
    few ulps is scaled out; anything larger is a bug and raises.
    """
    total = _mass_sum(values)
    if total > 1.0:
        if total > 1.0 + 1e-12:
            raise ConvergenceError(f"assembled mass {total} exceeds 1 beyond rounding")
        return cls(probs=values / total, tail_bound=0.0, **fields)
    return cls(probs=values, tail_bound=1.0 - total, _mass=total, **fields)


@dataclass(frozen=True)
class PhotoCountDistribution:
    """Truncated distribution over counts 0..len(probs)-1 on one beam.

    ``tail_bound`` is an upper bound on the omitted mass, so that
    sum(probs) + tail_bound recovers 1 up to the build tolerance.  ``mean``
    caches the first moment of the stored part.  ``_mass`` is the sum of
    ``probs`` when the builder has already taken it.
    """

    probs: np.ndarray
    tail_bound: float
    tol: float
    mean: float = field(init=False)
    _mass: InitVar[Optional[float]] = None

    def __post_init__(self, _mass: Optional[float]) -> None:
        probs = _freeze(np.atleast_1d(self.probs))
        if probs.ndim != 1 or probs.size == 0:
            raise ParameterError("probs must be a non-empty 1-D array")
        if np.any(probs < 0.0) or not np.all(np.isfinite(probs)):
            raise ParameterError("probabilities must be finite and >= 0")
        if self.tail_bound < 0.0:
            raise ParameterError("tail_bound must be >= 0")
        total = (_mass_sum(probs) if _mass is None else _mass) + self.tail_bound
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

    Model-derived tables are exactly symmetric (the stored table is one
    triangle and its mirror image); empirical tables set
    ``symmetric=False`` to skip that invariant.  ``total_mass`` is the sum
    of ``probs``; ``_mass`` passes it in when the builder has already taken it.
    """

    probs: np.ndarray
    tail_bound: float
    params: Optional[ExperimentParams]
    tol: float
    symmetric: bool = True
    meta: dict = field(default_factory=dict)
    total_mass: float = field(init=False, repr=False)
    _mass: InitVar[Optional[float]] = None

    def __post_init__(self, _mass: Optional[float]) -> None:
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
        mass = _mass_sum(probs) if _mass is None else _mass
        slack = 10.0 * self.tol + _FLOAT_SLACK
        if not (1.0 - slack <= mass + self.tail_bound <= 1.0 + slack):
            raise ParameterError(
                f"mass + tail_bound = {mass + self.tail_bound} outside [1-{slack}, 1]"
            )
        object.__setattr__(self, "probs", probs)
        object.__setattr__(self, "total_mass", mass)

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


def joint_prob(params: ExperimentParams, s: int, t: int) -> float:
    """Probability of detecting s counts on one beam and t on the other.

    The terminating form of the module docstring: min(s, t) + 1 positive
    terms, summed in log space shifted by the largest, with no truncation.
    Exactly symmetric in (s, t): both orders run through the same code path
    after a swap.  Independent of the recurrence and its helpers.
    """
    params.require_lossy()
    s = _validate_count(s, "s")
    t = _validate_count(t, "t")
    if params.mean_counts == 0.0:
        return 1.0 if s == 0 and t == 0 else 0.0
    s, t = (s, t) if s >= t else (t, s)

    mu, eta, mean = params.mu, params.eta, params.mean_counts
    den = mean + mu * eta
    log_x = math.log(mean) + 2.0 * math.log1p(-eta) - math.log(den)
    # B/(1-x) with 1 - x = eta (mu + M(2-eta)) / (M + mu eta)
    log_bx = math.log(den / ((1.0 - eta) * (mu + mean * (2.0 - eta))))
    k = np.arange(t, dtype=float)
    ratios = (t + mu - 1.0 - k) * (t - k) / ((s - t + 1.0 + k) * (k + 1.0))
    # log u_k as a compensated running sum: hi + lo carries its rounding
    log_u, hi, lo = [0.0], 0.0, 0.0
    for step in (log_x + np.log(ratios)).tolist():
        new = hi + step
        lo += (hi - new) + step if abs(hi) >= abs(step) else (step - new) + hi
        hi = new
        log_u.append(hi + lo)
    log_u = np.array(log_u)
    peak = float(log_u.max())
    j = np.arange(1.0, s + 1.0)
    return math.exp(math.fsum([
        -mu * math.log1p(mean / mu * (2.0 - eta)),
        (s + t) * log_bx,
        s * log_x,
        math.fsum(np.log1p((mu - 1.0) / j).tolist()),  # log C(s+mu-1, s)
        math.fsum(np.log1p((s - t) / j[:t]).tolist()),  # log C(s, t)
        peak,
        math.log(math.fsum(np.exp(log_u - peak).tolist())),
    ]))


def _conditional_law(params: ExperimentParams, rows: int, cols: int, tail: bool = False):
    """R(s, t) = P(t | s), or with ``tail`` P(count >= t | s), on the
    rectangle s < rows, t < cols, as a read-only (s, t) view.

    Both obey R(s, t) = alpha R(s-1, t) + beta R(s-1, t-1) + c R(s, t-1)
    (the tail sums for t >= 1).  P(t | s) starts from NB(mu, c) on its first
    row and P(0 | 0) alpha**s on its first column; the tail sums from
    I_c(t, mu) and 1.  Each anti-diagonal s + t = d is one vector update
    from the two before it; they are stored by t with a zero pad for t = -1.
    """
    mu, eta = params.mu, params.eta
    m = params.mean_counts / mu
    den = 1.0 + m * (2.0 - eta)
    alpha, beta, c = (1.0 - eta) * (1.0 + m) / den, eta * (1.0 + m) / den, m * (1.0 - eta) / den
    if tail:
        first_row, first_col = betainc(np.arange(float(cols)), mu, c), np.ones(rows)
    else:
        first_row = np.exp(_log_nb_running(mu, c, cols))
        first_col = np.exp(mu * math.log1p(-c) + np.arange(rows) * math.log(alpha))
    n = rows + cols - 1
    # row n stays zero: it is the d = -1 diagonal read by the first update
    diag = np.zeros((n + 1, cols + 1))
    body, left = diag[:, 1:], diag[:, :-1]
    edge = np.zeros(n)
    edge[:rows] = first_col
    body[0, 0] = first_row[0]
    for d in range(1, n):
        new = body[d]
        np.multiply(body[d - 1], alpha, out=new)
        new += beta * left[d - 2]
        new += c * left[d - 1]
        new[0] = edge[d]
        if d < cols:
            new[d] = first_row[d]
    step, width = body.strides
    return np.lib.stride_tricks.as_strided(
        body, shape=(rows, cols), strides=(step, step + width), writeable=False
    )


def _joint_square(params: ExperimentParams, n: int) -> np.ndarray:
    """p(s, t) = p2(s) P(t | s) on s, t < n, its upper triangle mirrored."""
    table = _marginal_probs(params, n)[:, None] * _conditional_law(params, n, n)
    return np.triu(table) + np.triu(table, 1).T


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


def joint_table(params: ExperimentParams, tol: float = 1e-12) -> JointDistribution:
    """Joint-count table with adaptively chosen bounds and omitted mass <= tol.

    The square support is sized from the closed-form marginal quantile, so
    that at most tol/4 of the mass lies beyond it on each beam.  Refuses to
    build more than _MAX_CELLS_DEFAULT cells.
    """
    params.require_lossy()
    tol = _validate_tol(tol)
    k = _nb_quantile(params, tol / 4.0)
    cells = (k + 1) ** 2
    if cells > _MAX_CELLS_DEFAULT:
        raise TableSizeError(
            f"table needs ({k + 1})**2 = {cells} cells for tol={tol}, "
            f"exceeding the budget of {_MAX_CELLS_DEFAULT}"
        )
    return _assembled(JointDistribution, _joint_square(params, k + 1), params=params, tol=tol)


# ---------------------------------------------------------------------------
# single-beam marginal (multithermal / negative binomial)
# ---------------------------------------------------------------------------


def _log_nb_running(mu: float, ratio: float, n: int) -> np.ndarray:
    """Log pmf of NB(mu, ratio) at k = 0..n-1.

    mu*log(1 - ratio) plus an exact running sum of the O(1) log-ratios
    log((j + mu) * ratio / (j + 1)).  Unlike log-gamma differences at large
    mu, this loses no digits to cancellation.
    """
    steps = np.log((np.arange(n - 1) + mu) * ratio / np.arange(1.0, n))
    return _exact_cumsum(steps, mu * math.log1p(-ratio))


def _exact_cumsum(steps: np.ndarray, start: float = 0.0) -> np.ndarray:
    """``start`` followed by ``start`` plus the running sums of ``steps``.

    Rounding does not accumulate along the sum: each step splits into a
    multiple of 2**-32, whose sums are exact below 2**53 units, and a
    remainder under 2**-33.  The sums are taken in place (3e7 steps near
    the level budget of a state).
    """
    coarse = np.rint(np.ldexp(steps, 32))
    fine = steps - np.ldexp(coarse, -32)
    out = np.empty(steps.size + 1)
    out[0] = start
    np.ldexp(np.cumsum(coarse, out=coarse), -32, out=out[1:])
    out[1:] += np.cumsum(fine, out=fine)
    out[1:] += start
    return out


def _log_nb_arr(mu: float, m: float, t) -> np.ndarray:
    """Log multithermal pmf for mode count mu and mean m, vectorised in t:
    NB(mu, m/(m + mu)) as a running sum up to the largest t.  Counts beyond
    _MAX_CELLS_DEFAULT, where that sum would take as many terms, use the
    gamma-function form."""
    t = np.asarray(t, dtype=float)
    if m == 0.0:
        return np.where(t == 0.0, 0.0, -np.inf)
    top = float(t.max())
    if top > _MAX_CELLS_DEFAULT:
        return (
            _log_binom_arr(t + mu - 1.0, t)
            + t * (math.log(m) - math.log(mu))
            - (t + mu) * math.log1p(m / mu)
        )
    return _log_nb_running(mu, m / (m + mu), int(top) + 1)[t.astype(np.intp)]


def _marginal_probs(params: ExperimentParams, n: int) -> np.ndarray:
    """p2(t) for t < n."""
    return np.exp(_log_nb_arr(params.mu, params.mean_counts, np.arange(n)))


def log_marginal(params: ExperimentParams, t: int) -> float:
    """Natural log of the closed-form single-beam count probability."""
    t = _validate_count(t, "t")
    return float(_log_nb_arr(params.mu, params.mean_counts, t))


def marginal(params: ExperimentParams, t: int) -> float:
    """Single-beam probability of t counts: the multithermal closed form."""
    value = log_marginal(params, t)
    return math.exp(value) if value > -math.inf else 0.0


def marginal_dist(params: ExperimentParams, tol: float = 1e-12) -> PhotoCountDistribution:
    """Single-beam count distribution truncated to omitted mass <= tol.
    Refuses a support of more than _MAX_CELLS_DEFAULT counts."""
    tol = _validate_tol(tol)
    k = _nb_quantile(params, tol)
    if k + 1 > _MAX_CELLS_DEFAULT:
        raise TableSizeError(f"marginal needs {k + 1} counts, over the {_MAX_CELLS_DEFAULT} budget")
    return _assembled(PhotoCountDistribution, _marginal_probs(params, k + 1), tol=tol)


# ---------------------------------------------------------------------------
# direct-enumeration oracle
# ---------------------------------------------------------------------------

_ORACLE_TAIL = 1e-12


def brute_force_joint(mu: int, mean_photons: float, eta: float) -> JointDistribution:
    """Joint count table straight from the model definition, no closed form.

    Enumerates the per-mode photon number n (geometric law, both arms carry
    the same n), thins each arm with an exact-integer binomial kernel, and
    convolves the modes.  Intended as an oracle for small mode numbers;
    eta = 1 (no loss) is allowed here and nowhere else.

    The geometric cutoff is the smallest that leaves a tail below 1e-12
    summed over modes.
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

    cutoff = 0
    if lam_sq > 0.0:
        cutoff = max(0, math.ceil(math.log(_ORACLE_TAIL / mu) / math.log(lam_sq)) - 1)

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
    return _assembled(JointDistribution, table, params=provenance, tol=_ORACLE_TAIL)
