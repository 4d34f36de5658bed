"""Closed-form counting statistics of multimode twin-beam light.

Per mode, the two arms carry perfectly correlated photon numbers with a
geometric law; detection thins each arm independently with efficiency eta.
Summing mu identical modes, the detected counts (s, t) on the two beams have
the generating function G(u, v) = [(1-r) / (1 - r(a + bu)(a + bv))]**mu,
a = 1-eta, b = eta, r = nbar/(1 + nbar) with nbar = M/(eta*mu) the mean
photon number per mode and M the mean counts per beam.  The single-beam
marginal is the multithermal (negative-binomial) law

    p2(t) = C(t+mu-1, t) * q**t * (1 - q)**mu,   q = M/(M + mu).

Every count law here is p(k) = p(0) prod_{j<k} (j+a) x/(j+1), given by a
and the odds x/(1-x): NB(a, x) with odds M/mu (the marginal), rr/(1-rr) (a
state) or c/(1-c) (the recurrence below), and Bin(n, eta) with a = -n and
odds -eta.  x, log|x| and log(1-x) come from the odds (``_law``), never from
a rounded x.  ``_log_pmf`` is the one point formula, Loader's saddle-point
form (C. Loader, "Fast and Accurate Computation of Binomial
Probabilities", 2000), O(1) at any count.  ``_log_nb_running`` is the one
running sum, of steps log1p((a-1)/(k+1)) + log x, anchored at the mode
where that is large, so that no sum climbs from a far p(0); ``_law_tail``
sizes it from the point formula, sums it once, long enough that geometric
bounds pin the rest, and gives every support, cut and omitted mass
(A&S 26.5.24/26.5.26 are never evaluated).
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
(``_conditional_law``).  Tables are immutable, so ``joint_table`` hands back
the one it built for an equal (params, tol) while that is among the 8 most
recently asked for and at most 2**17 cells (``_RecentTables``).

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
"""

from __future__ import annotations

import math
import threading
from collections import OrderedDict
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


def _recurrence(params: ExperimentParams) -> tuple[float, float, float, float]:
    """(alpha, beta, c) of the module docstring's recurrence, m = M/mu and
    D = 1 + m(2-eta), and the odds c/(1-c) = m(1-eta)/(1+m) of NB(mu, c),
    its first row and P(s | 0)."""
    eta, m = params.eta, params.mean_counts / params.mu
    den = 1.0 + m * (2.0 - eta)
    return ((1.0 - eta) * (1.0 + m) / den, eta * (1.0 + m) / den, m * (1.0 - eta) / den,
            m * (1.0 - eta) / (1.0 + m))


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
    alpha, beta, c, odds = _recurrence(params)
    if tail:
        head, _, rest = _law_tail(mu, odds, 1.0, size=cols)
        first_row, first_col = rest + np.cumsum(np.exp(head)[::-1])[::-1], np.ones(rows)
    else:
        first_row = np.exp(_log_nb_running(mu, odds, cols))
        first_col = np.exp(np.arange(rows) * math.log(alpha) - mu * math.log1p(odds))
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


class _RecentTables:
    """The ``slots`` joint tables last asked for, keyed by (params, tol),
    least recently used out first; a table of over ``max_cells`` cells is
    never kept.  A lock guards every read and write of the store."""

    def __init__(self, slots: int, max_cells: int) -> None:
        self.slots, self.max_cells = slots, max_cells
        self._tables: OrderedDict = OrderedDict()
        self._lock = threading.Lock()

    def get(self, key) -> Optional[JointDistribution]:
        with self._lock:
            table = self._tables.get(key)
            if table is not None:
                self._tables.move_to_end(key)
            return table

    def keep(self, key, table: JointDistribution) -> JointDistribution:
        """``table``, or the one another thread kept for ``key`` meanwhile."""
        if table.probs.size > self.max_cells:
            return table
        with self._lock:
            table = self._tables.setdefault(key, table)
            self._tables.move_to_end(key)
            while len(self._tables) > self.slots:
                self._tables.popitem(last=False)
            return table

    def clear(self) -> None:
        with self._lock:
            self._tables.clear()


# at most 8 tables of 2**17 cells (1 MiB) each, 8 MiB in all
_JOINT_TABLES = _RecentTables(slots=8, max_cells=2**17)


def joint_table(params: ExperimentParams, tol: float = 1e-12) -> JointDistribution:
    """Joint-count table with adaptively chosen bounds and omitted mass <= tol.

    The square support is sized from the closed-form marginal quantile, so
    that at most tol/4 of the mass lies beyond it on each beam.  Refuses to
    build more than _MAX_CELLS_DEFAULT cells.

    A call whose (params, tol) equals one of the 8 most recently asked for
    returns the table built for it then, the same object.  Only tables of
    at most 2**17 cells (1 MiB) are kept, so the kept tables hold at most
    8 MiB; larger ones are built on every call, and refusals are never
    kept.  A returned table, its ``probs`` and its ``meta`` are shared
    between callers and must not be written.
    """
    params.require_lossy()
    tol = _validate_tol(tol)
    key = (params, tol)
    table = _JOINT_TABLES.get(key)
    if table is not None:
        return table
    mu, side = params.mu, math.isqrt(_MAX_CELLS_DEFAULT)
    refuse = f"table needs over {side}**2 cells for tol={tol}, the budget of {_MAX_CELLS_DEFAULT}"
    head = _law_tail(mu, params.mean_counts / mu, tol / 4, side, refuse)[0]
    table = _assembled(JointDistribution, _joint_square(params, np.exp(head)), params=params, tol=tol)
    return _JOINT_TABLES.keep(key, table)


# ---------------------------------------------------------------------------
# single-beam marginal (multithermal / negative binomial)
# ---------------------------------------------------------------------------


_ANCHOR = 32  # a running sum starts at p(0) up to this mode, at the mode beyond it
_HALF_LOG_2PI = 0.5 * math.log(2.0 * math.pi)


def _law(odds: float) -> tuple[float, float, float]:
    """x = odds/(1 + odds), log|x| and log(1 - x) = -log1p(odds) of the law of
    ``_log_nb_running``, none formed from a rounded x.  Beyond odds = 1, log x
    is -log1p(1/odds): log(odds) - log1p(odds) cancels there."""
    log_1mx = -math.log1p(odds)
    if odds > 1.0:
        return odds / (1.0 + odds), -math.log1p(1.0 / odds), log_1mx
    return odds / (1.0 + odds), math.log(abs(odds)) + log_1mx if odds else -math.inf, log_1mx


def _stirlerr(n: float) -> float:
    """log n! - log(sqrt(2 pi n) (n/e)**n): Stirling's series beyond 15."""
    if n <= 15.0:
        return math.lgamma(n + 1.0) - (n + 0.5) * math.log(n) + n - _HALF_LOG_2PI
    nn = n * n
    return (1 / 12 - (1 / 360 - (1 / 1260 - (1 / 1680 - 1 / 1188 / nn) / nn) / nn) / nn) / n


def _bd0(k: float, e: float) -> float:
    """The deviance k log(k/e) + e - k, as a series in v = (k-e)/(k+e) near k = e."""
    if abs(k - e) >= 0.1 * (k + e):
        return k * math.log(k / e) + e - k
    v = (k - e) / (k + e)
    total, term, i, last = (k - e) * v, 2.0 * k * v, 1, None
    while total != last:
        term, i = term * v * v, i + 2
        last, total = total, total + term / i
    return total


def _log_pmf(a: float, odds: float, j: int) -> float:
    """Log pmf at j of the law of ``_log_nb_running``, O(1) at any j, in
    Loader's saddle-point form: the Stirling remainders and the deviances
    bd0 of both counts, none of which cancels.  NB(a, x) puts a counts at
    p = 1/(1 + odds) and j at q = odds*p (not 1 - p, which is 0 where the
    odds are subnormal); Bin(n, eta) puts n - j at 1 + odds and j at -odds."""
    if j == 0:
        return a * _law(odds)[2]
    n, k = (a + j, a) if a > 0 else (-a, -a - j)
    if k <= 0 or odds == 0.0:  # the binomial's last count or beyond, or the point mass
        return j * math.log(-odds) if k == 0 else -math.inf
    p = 1.0 / (1.0 + odds) if a > 0 else 1.0 + odds
    q, lead = (odds * p, -math.log1p(j / a)) if a > 0 else (-odds, 0.0)
    return (lead + _stirlerr(n) - _stirlerr(k) - _stirlerr(j) - _bd0(k, n * p) - _bd0(j, n * q)
            - _HALF_LOG_2PI - 0.5 * math.log(k * j / n))


def _log_nb_running(a: float, odds: float, n: int) -> np.ndarray:
    """Log pmf at k = 0..n-1 of the law (a, odds) of the module docstring:
    the steps log1p((a-1)/(k+1)) + log x (log((n-k)/(k+1)) + log|x| for
    Bin(n, eta)) summed from the exact p(0), or where the mode exceeds
    _ANCHOR outward from ``_log_pmf`` at the mode (at n - 1 short of it).
    Odds 0 give the point mass at 0."""
    if odds == 0.0:
        return np.where(np.arange(n) == 0, 0.0, -np.inf)
    steps = np.arange(1.0, n)  # k + 1, replaced by the steps so that it is not kept
    steps = np.log1p((a - 1.0) / steps) if a > 0 else np.log((1.0 - a - steps) / steps)
    steps += _law(odds)[1]
    mode = max((a - 1.0) * odds, 0.0)
    at = min(int(mode), n - 1) if mode > _ANCHOR else 0
    return _exact_cumsum(steps, _log_pmf(a, odds, at), at)


def _exact_cumsum(steps: np.ndarray, start: float = 0.0, at: int = 0) -> np.ndarray:
    """Running sums of ``steps`` that read ``start`` at index ``at``:
    out[i] - out[at] is the sum of steps[at:i] (minus that of steps[i:at]).

    Rounding does not accumulate along the sum: each step splits into a
    multiple of 2**-32, whose sums are exact below 2**53 units (and so is
    their shift to ``at``), and a remainder under 2**-33 summed in order, so
    a longer sum through the same ``at`` begins with a shorter one bit for
    bit.  The sums are taken in place (3e7 steps near a state's level budget).
    """
    coarse = np.concatenate(([0.0], steps))
    coarse *= 2.0**32
    np.rint(coarse, out=coarse)
    fine = coarse * -(2.0**-32)
    fine[1:] += steps
    coarse.cumsum(out=coarse)
    fine.cumsum(out=fine)
    coarse -= coarse[at]
    fine -= fine[at]
    coarse *= 2.0**-32
    coarse += fine
    coarse += start
    return coarse


_LOG_PIN = 60.0 * math.log(2.0)  # the rest is pinned to 2**-60 of the cut


def _law_tail(a: float, odds: float, tol: float, cap=math.inf, refuse: str = "", size: int = 1):
    """Head and upper tail of the law of ``_log_nb_running`` with the same
    a and odds.  The cut is tol * P(X >= size - 1).

    The head, the log pmf from ``_log_nb_running``, is summed once, to the
    first trial length whose rest R beyond its last term N is below the cut,
    each length judged by ``_log_pmf`` at N alone: the term ratios fall
    toward x0 = max(x, 0), so with rho = p(N+1)/p(N), p(N) rho/(1-x0) <= R
    <= p(N) rho/(1-rho).  R is then summed on as ratio products until these
    bounds, taken further out, differ by 2**-60 of the cut, and their mean is
    added.  P(X > j) is summed in reverse from N, scaled by the cut, back to
    the first j above it.  Returns the log pmf at 0..k, k the smallest
    k >= size - 1 with P(X > k) <= cut, and P(X > k).  A k at or beyond
    ``cap`` raises TableSizeError(refuse) before any head is summed.
    """
    x, log_x = _law(odds)[:2]
    if cap < size or x >= 1.0:  # x = 1: odds beyond 2**53, no finite support
        raise TableSizeError(refuse)
    if x == 0.0:
        return np.append(0.0, np.full(size - 1, -np.inf)), size - 1, 0.0
    end, x0, log_cut = (int(1 - a) if a <= 0 else math.inf), max(x, 0.0), math.log(tol)
    mean, decay = a * odds, (-1.0 / log_x if x > 0.0 else 0.0)
    if size > 1:  # below the cut: P(X >= size - 1) >= p(j)/(1-x0), j = max(size - 1, mean)
        log_cut += min(_log_pmf(a, odds, max(size - 1, int(mean))) - math.log1p(-x0), 0.0)

    def guess(nats):  # where p falls below e**-nats: a gamma-like bulk, then its decay
        return int(mean + math.sqrt(2.0 * nats * mean / (1.0 - x)) + 2.0 / 3.0 * nats * decay) + 2

    n = guess(_LOG_PIN - log_cut)  # the margin fixes each head's length, and so its bits
    n = min(max(n + n // 16 + 16 if n < 4096 else guess(-log_cut), size + 1), end, cap)
    while n < end:  # sized from the point formula: each trial length is O(1)
        rho = (n - 1 + a) * x / n
        over = _log_pmf(a, odds, n - 1) + math.log(rho / (1.0 - rho)) - log_cut if rho < 1.0 else math.inf
        if over <= 0.0:  # the upper bound p(n-1) rho/(1-rho) on the rest is below the cut
            break
        if n >= cap:
            raise TableSizeError(refuse)
        n = int(min(n + 1 + (min(over / -math.log(rho), 4 * n) if rho < 1.0 else n), end, cap))
    head, miss = _log_nb_running(a, odds, n), 0.0
    if n < end:  # the loop's last rho: the upper bound over the cut, and the pin of its gap
        over = float(head[-1]) + math.log(rho / (1.0 - rho)) - log_cut
        miss = max(over, over + math.log(max((rho - x0) / (1.0 - x0), 1e-300)) + _LOG_PIN)
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


def _marginal_probs(params: ExperimentParams, n: int) -> np.ndarray:
    """p2(t) for t < n: NB(mu, x) with odds M/mu."""
    return np.exp(_log_nb_running(params.mu, params.mean_counts / params.mu, n))


def log_marginal(params: ExperimentParams, t: int) -> float:
    """Natural log of the closed-form single-beam count probability."""
    t = _validate_count(t, "t")
    return _log_pmf(params.mu, params.mean_counts / params.mu, t)


def marginal(params: ExperimentParams, t: int) -> float:
    """Single-beam probability of t counts: the multithermal closed form."""
    value = log_marginal(params, t)
    return math.exp(value) if value > -math.inf else 0.0


def marginal_dist(params: ExperimentParams, tol: float = 1e-12) -> PhotoCountDistribution:
    """Single-beam count distribution truncated to omitted mass <= tol.
    Refuses a support of more than _MAX_CELLS_DEFAULT counts."""
    tol = _validate_tol(tol)
    refuse = f"marginal needs over {_MAX_CELLS_DEFAULT} counts, the budget"
    head = _law_tail(params.mu, params.mean_counts / params.mu, tol, _MAX_CELLS_DEFAULT, refuse)[0]
    return _assembled(PhotoCountDistribution, np.exp(head), tol=tol)
