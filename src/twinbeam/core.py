"""Closed-form counting statistics of multimode twin-beam light.

Per mode, the two arms carry perfectly correlated photon numbers with a
geometric law; detection thins each arm independently with efficiency eta.
Summing mu identical modes, the detected counts (s, t) on the two beams have
the generating function G(u, v) = [(1-r) / (1 - r(a + bu)(a + bv))]**mu,
a = 1-eta, b = eta, r = nbar/(1 + nbar) with nbar = M/(eta*mu) the mean
photon number per mode and M the mean counts per beam.  The single-beam
marginal is the multithermal (negative-binomial) law

    p2(t) = C(t+mu-1, t) * q**t * (1 - q)**mu,   q = M/(M + mu),

a running sum of the O(1) log-ratios log((j+mu) q/(j+1)).  One function,
``_log_nb_running``, forms that sum for NB(a, x) and Bin(n, eta);
``_law_tail`` takes it long enough that geometric bounds pin the rest, and
gives every support, cut and omitted mass; the incomplete beta functions of
A&S 26.5.24/26.5.26 are never evaluated.
``joint_table`` needs no series: the identity (1 - r(a + bu)(a + bv)) dG/du =
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
binomial thinning and convolves the modes' tables.
"""

from __future__ import annotations

import math
from dataclasses import InitVar, dataclass, field
from typing import Optional

import numpy as np

from .errors import ConvergenceError, ParameterError, TableSizeError
from .params import ExperimentParams

__all__ = [
    "PhotoCountDistribution",
    "JointDistribution",
    "joint_prob",
    "joint_table",
    "marginal",
    "marginal_dist",
    "log_marginal",
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


def _checked(dist, probs, ndim: int, mass: Optional[float]) -> tuple[np.ndarray, float]:
    """Freeze ``probs`` into ``dist`` after the checks of both distribution
    types: a non-empty ``ndim``-D array of finite non-negative cells,
    tail_bound >= 0 and mass + tail_bound within 10*tol (plus float slack)
    of 1.  Returns the frozen probs and their mass."""
    probs = _freeze(probs)
    if probs.ndim != ndim or probs.size == 0:
        raise ParameterError(f"probs must be a non-empty {ndim}-D array")
    if np.any(probs < 0.0) or not np.all(np.isfinite(probs)):
        raise ParameterError("probabilities must be finite and >= 0")
    if dist.tail_bound < 0.0:
        raise ParameterError("tail_bound must be >= 0")
    mass = _mass_sum(probs) if mass is None else mass
    slack = 10.0 * dist.tol + _FLOAT_SLACK
    if not (1.0 - slack <= mass + dist.tail_bound <= 1.0 + slack):
        raise ParameterError(f"mass + tail_bound = {mass + dist.tail_bound} outside [1-{slack}, 1]")
    object.__setattr__(dist, "probs", probs)
    return probs, mass


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
        probs = _checked(self, np.atleast_1d(self.probs), 1, _mass)[0]
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
        probs, mass = _checked(self, np.atleast_2d(self.probs), 2, _mass)
        if self.symmetric and (
            probs.shape[0] != probs.shape[1] or not np.array_equal(probs, probs.T)
        ):
            raise ParameterError("model joint table must be exactly symmetric")
        object.__setattr__(self, "total_mass", mass)

    @property
    def shape(self) -> tuple[int, int]:
        return self.probs.shape  # type: ignore[return-value]


# ---------------------------------------------------------------------------
# argument checks
# ---------------------------------------------------------------------------


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


def _recurrence(params: ExperimentParams) -> tuple[float, float, float]:
    """(alpha, beta, c) of the module docstring's recurrence, m = M/mu and
    D = 1 + m(2-eta); NB(mu, c) is its first row and P(s | 0)."""
    eta, m = params.eta, params.mean_counts / params.mu
    den = 1.0 + m * (2.0 - eta)
    return (1.0 - eta) * (1.0 + m) / den, eta * (1.0 + m) / den, m * (1.0 - eta) / den


def _conditional_law(params: ExperimentParams, rows: int, cols: int, tail: bool = False):
    """R(s, t) = P(t | s), or with ``tail`` P(count >= t | s), on the
    rectangle s < rows, t < cols, as a read-only (s, t) view.

    Both obey R(s, t) = alpha R(s-1, t) + beta R(s-1, t-1) + c R(s, t-1)
    (the tail sums for t >= 1).  P(t | s) starts from NB(mu, c) on its first
    row and P(0 | 0) alpha**s on its first column; the tail sums from the
    upper tails P(NB(mu, c) >= t), from ``_law_tail``, and 1.  Each
    anti-diagonal s + t = d is one vector update from the two before it;
    they are stored by t with a zero pad for t = -1.
    """
    mu = params.mu
    alpha, beta, c = _recurrence(params)
    if tail:
        head, _, rest = _law_tail(mu, c, 1.0, size=cols)
        first_row, first_col = rest + np.cumsum(np.exp(head)[::-1])[::-1], np.ones(rows)
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


def _joint_square(params: ExperimentParams, p2: np.ndarray) -> np.ndarray:
    """p(s, t) = p2(s) P(t | s) on s, t < n = p2.size, its upper triangle
    mirrored."""
    table = p2[:, None] * _conditional_law(params, p2.size, p2.size)
    return np.triu(table) + np.triu(table, 1).T


def joint_table(params: ExperimentParams, tol: float = 1e-12) -> JointDistribution:
    """Joint-count table with adaptively chosen bounds and omitted mass <= tol.

    The square support is sized from the closed-form marginal quantile, so
    that at most tol/4 of the mass lies beyond it on each beam.  Refuses to
    build more than _MAX_CELLS_DEFAULT cells.
    """
    params.require_lossy()
    tol = _validate_tol(tol)
    mu, side = params.mu, math.isqrt(_MAX_CELLS_DEFAULT)
    refuse = f"table needs over {side}**2 cells for tol={tol}, the budget of {_MAX_CELLS_DEFAULT}"
    q, start = _marginal_nb(mu, params.mean_counts)
    head = _law_tail(mu, q, tol / 4, side, refuse, start=start)[0]
    return _assembled(JointDistribution, _joint_square(params, np.exp(head)), params=params, tol=tol)


# ---------------------------------------------------------------------------
# single-beam marginal (multithermal / negative binomial)
# ---------------------------------------------------------------------------


def _log_ratios(a: float, x: float, lo: int, hi: int) -> np.ndarray:
    """log p(k+1)/p(k) = log((k + a) x / (k + 1)) for k = lo..hi-1."""
    return np.log((np.arange(lo, hi) + a) * x / np.arange(lo + 1.0, hi + 1.0))


def _log_nb_running(a: float, x: float, n: int, start: float | None = None) -> np.ndarray:
    """Log pmf at k = 0..n-1 of p(k) = p(0) prod_{j<k} (j+a) x/(j+1): NB(a, x)
    for a >= 1 (x = 0: the point mass at 0), Bin(n, eta) for a = -n and
    x = -eta/(1-eta).  An NB caller passes the exact log p(0) as ``start``
    where x is a rounded ratio; the default is a*log(1 - x).

    The one running sum of the O(1) log-ratios in the package.  Unlike
    log-gamma differences at large a, it loses no digits to cancellation.
    """
    if x == 0.0:
        return np.where(np.arange(n) == 0, 0.0, -np.inf)
    start = a * math.log1p(-x) if start is None else start
    return _exact_cumsum(_log_ratios(a, x, 0, n - 1) + _step_shift(a, x, start), start)


def _exact_cumsum(steps: np.ndarray, start: float = 0.0) -> np.ndarray:
    """``start`` followed by ``start`` plus the running sums of ``steps``.

    Rounding does not accumulate along the sum: each step splits into a
    multiple of 2**-32, whose sums are exact below 2**53 units, and a
    remainder under 2**-33 summed in order, so a longer sum begins with
    a shorter one bit for bit.  The sums are taken in place (3e7 steps near
    the level budget of a state).
    """
    out = np.empty(steps.size + 1)
    out[0] = start
    coarse = steps * 2.0**32
    np.rint(coarse, out=coarse)
    fine = coarse * -(2.0**-32)
    fine += steps
    body = out[1:]
    np.multiply(coarse.cumsum(out=coarse), 2.0**-32, out=body)
    body += fine.cumsum(out=fine)
    body += start
    return out


_LOG_PIN = 60.0 * math.log(2.0)  # the rest is pinned to 2**-60 of the cut


def _step_shift(a: float, x: float, start: float) -> float:
    """log(q/x) for NB(a, q) with exact log p(0) = ``start`` and q rounded to x.
    Added to each log-ratio step from x, it keeps the running sum on the law
    that ``start`` begins (a start alone gives 1e-11 too much mass at
    M/mu = 1e5).  0 where a*log1p(-x) is ``start``, and at x = 1."""
    if not 0.0 < x < 1.0:
        return 0.0
    return math.log1p(-math.expm1((start - a * math.log1p(-x)) / a) * (1.0 - x) / x)


def _law_tail(a: float, x: float, tol: float, cap=math.inf, refuse: str = "", size: int = 1,
              start: float | None = None):
    """Head and upper tail of the law of ``_log_nb_running`` with the same
    a, x and ``start``.  The cut is tol * P(X >= size - 1).

    The head, the log pmf from ``_log_nb_running``, is recomputed at the new
    length until the rest R beyond its last term N is below the cut: the
    term ratios fall toward x0 = max(x, 0), so with rho = p(N+1)/p(N),
    p(N) rho/(1-x0) <= R <= p(N) rho/(1-rho).  R is then summed on as ratio
    products until these bounds, taken further out, differ by 2**-60 of the
    cut, and their mean is added.  P(X > j) is summed in reverse from N,
    scaled by the cut, back to the first j above it.  Returns the log pmf at
    0..k, k the smallest k >= size - 1 with P(X > k) <= cut, and P(X > k).
    A k at or beyond ``cap`` raises TableSizeError(refuse), at once where
    the terms at and past cap alone outweigh tol or the pmf still rises at
    cap.
    """
    if cap < size or x >= 1.0:  # x = 1: M/mu beyond 2**53, no finite support
        raise TableSizeError(refuse)
    if x == 0.0:
        return np.append(0.0, np.full(size - 1, -np.inf)), size - 1, 0.0
    end, x0, log_cut = (int(1 - a) if a <= 0 else math.inf), max(x, 0.0), math.log(tol)
    mean, decay = a * x / (1.0 - x), (-1.0 / math.log(x) if x > 0.0 else 0.0)

    def log_pmf(j):  # the log-gamma form, for the first guess and the budget
        gamma = (math.lgamma(j + a) - math.lgamma(a) if a > 0
                 else math.lgamma(1 - a) - math.lgamma(1 - a - j))
        return a * math.log1p(-x) + j * math.log(abs(x)) + gamma - math.lgamma(j + 1.0)

    if size > 1:  # below the cut: P(X >= size - 1) >= p(j)/(1-x0), j = max(size - 1, mean)
        log_cut += min(log_pmf(max(size - 1, int(mean))) - math.log1p(-x0), 0.0)

    def guess(nats):  # where p falls below e**-nats: a gamma-like bulk, then its decay
        return int(mean + math.sqrt(2.0 * nats * mean / (1.0 - x)) + 2.0 / 3.0 * nats * decay) + 2

    n = guess(_LOG_PIN - log_cut)  # with room to spare where a refill costs more
    n = min(max(n + n // 16 + 16 if n < 4096 else guess(-log_cut), size + 1), end)
    if n > cap:
        rising = tol < 0.5 and (cap + a) * x >= cap + 1.0  # then P(X >= cap) >= 1/2
        if rising or log_pmf(cap) - math.log1p(-x0) > math.log(tol):
            raise TableSizeError(refuse)
        n = cap
    while True:
        head = _log_nb_running(a, x, n, start)
        rho, miss = (n - 1 + a) * x / n, 0.0
        if n >= end:  # the binomial's last term: rho = 0
            break
        if rho < 1.0:  # over the cut: the upper bound, and the pin of its gap
            over = float(head[-1]) + math.log(rho / (1.0 - rho)) - log_cut
            gap = (rho - x0) / (1.0 - x0)
            miss = max(over, over + math.log(max(gap, 1e-300)) + _LOG_PIN)
            if over <= 0.0:
                break
        if n >= cap:
            raise TableSizeError(refuse)
        n = int(min(n + 1 + (min(over / -math.log(rho), 4 * n) if rho < 1.0 else n), end, cap))
    scale = max(log_cut, -700.0)  # so that no tail overflows
    rest, last, top = 0.0, math.exp(float(head[-1]) - scale), n - 1
    if miss > 0.0:  # the terms that pin the rest, as ratio products in chunks
        stop = min(top + int(miss / -math.log(rho)) + 1, end - 1)
        for lo in range(top, stop, 1 << 20):
            j = np.arange(lo, min(lo + (1 << 20), stop), dtype=float)
            terms = ((j + a) * x / (j + 1.0)).cumprod() * last
            rest, last, top = rest + float(terms.sum()), float(terms[-1]), int(j[-1]) + 1
    rho = (top + a) * x / (top + 1)
    acc = rest + last * max(rho, 0.0) * (1.0 / (1.0 - rho) + 1.0 / (1.0 - x0)) / 2.0
    hi, level, block = n, math.exp(log_cut - scale), (n if size > 1 else max(n - int(mean), 64))
    while True:  # tails[i] = P(X > hi - 2 - i) and acc = P(X > hi - 1), scaled
        lo = max(hi - block, size - 1)
        tails = np.exp(head[hi - 1:lo:-1] - scale).cumsum() + acc
        if size > 1:  # the cut itself, from the whole scan down to size - 1
            level = tol * (float(tails[-1]) + math.exp(float(head[lo]) - scale))
        kept = int(tails.searchsorted(level, side="right"))
        if kept < tails.size or lo == size - 1:
            k = hi - 1 - kept
            return head[:k + 1], k, float(tails[kept - 1] if kept else acc) * math.exp(scale)
        hi, acc, block = lo + 1, float(tails[-1]), 4 * block


def _marginal_nb(mu: float, m: float) -> tuple[float, float]:
    """The marginal's law NB(mu, q): q = m/(m + mu) and its exact log p(0),
    -mu*log1p(m/mu), from the unrounded q."""
    return m / (m + mu), -mu * math.log1p(m / mu)


def _log_nb_arr(mu: float, m: float, t) -> np.ndarray:
    """Log multithermal pmf for mode count mu and mean m, vectorised in t:
    NB(mu, m/(m + mu)) as a running sum up to the largest t.  A few counts
    beyond _MAX_CELLS_DEFAULT, where that sum would take far more terms than
    there are counts, use the gamma-function form."""
    t = np.asarray(t, dtype=float)
    if m == 0.0:
        return np.where(t == 0.0, 0.0, -np.inf)
    top = float(t.max())
    if top > max(_MAX_CELLS_DEFAULT, 64 * t.size):
        lgamma = np.frompyfunc(math.lgamma, 1, 1)
        return (
            np.asarray(lgamma(t + mu) - lgamma(t + 1.0), dtype=float) - math.lgamma(mu)
            + t * (math.log(m) - math.log(mu))
            - (t + mu) * math.log1p(m / mu)
        )
    q, start = _marginal_nb(mu, m)
    return _log_nb_running(mu, q, int(top) + 1, start)[t.astype(np.intp)]


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
    refuse = f"marginal needs over {_MAX_CELLS_DEFAULT} counts, the budget"
    q, start = _marginal_nb(params.mu, params.mean_counts)
    head = _law_tail(params.mu, q, tol, _MAX_CELLS_DEFAULT, refuse, start=start)[0]
    return _assembled(PhotoCountDistribution, np.exp(head), tol=tol)


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
        table = _convolve_full(table, per_mode)
    # Convolution order breaks bitwise symmetry in the last ulp; mirror the
    # upper triangle so the stored table is exactly symmetric.
    table = np.triu(table) + np.triu(table, 1).T

    provenance = (
        ExperimentParams(mu, eta, eta * n_mean) if eta < 1.0 else
        ExperimentParams(mu, eta, eta * n_mean, allow_unit_eta=True)
    )
    return _assembled(JointDistribution, table, params=provenance, tol=_ORACLE_TAIL)


def _convolve_full(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Full 2-D convolution: row i of y adds x times band[b, j] = y[i, j - b]."""
    cols = x.shape[1] + y.shape[1] - 1
    out, pad = np.zeros((x.shape[0] + y.shape[0] - 1, cols)), np.zeros(cols + x.shape[1] - 1)
    for i, row in enumerate(y):
        pad[x.shape[1] - 1:cols] = row
        out[i:i + x.shape[0]] += x @ np.lib.stride_tricks.sliding_window_view(pad, cols)[::-1]
    return out
