"""Closed-form oracles computed apart from the package.

Every function here recomputes a quantity from the model's defining laws with
scipy's distributions and plain sums; nothing calls into ``twinbeam``.  A
check returns ``None`` when the output passes and a one-line reason when it
does not, so the harness can count the failure and carry on.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import stats
from scipy.special import gammaln

# Relative tolerance for closed-form quantities (selection means, success
# probabilities, entropies).  The complement form of the acceptance
# probability leaves a relative error of 6.3e-10 in the mixture mean at A,
# above(30), and 1.4e-9 at above(31): the check passes the first and
# rejects the second.
REL_TOL = 1e-9
# Entropy sums over a support truncated at omitted mass tol read low by
# about tol times the log-eigenvalue at the cut; allow ENTROPY_TAIL * tol.
ENTROPY_TAIL = 1e3
# Float rounding allowed on a sum of probabilities, as the package allows.
FLOAT_SLACK = 1e-12
# Absolute tolerance on count probabilities against the oracle pmf.
PMF_TOL = 1e-10


def _nb(mu: float, m: float):
    """Single-beam multithermal law: negative binomial with mu modes, mean m."""
    return stats.nbinom(mu, mu / (mu + m))


def _rr(mu: float, eta: float, m: float) -> float:
    return m * (1.0 - eta) / (m + mu * eta)


def cond_mean(mu: float, eta: float, m: float, t) -> np.ndarray:
    """M_t, the mean count of the exact-t state (affine in t)."""
    t = np.asarray(t, dtype=float)
    return (t * (m + eta * mu) + mu * m * (1.0 - eta)) / (m + mu)


def exact_pmf(mu: float, eta: float, m: float, t: int, size: int) -> np.ndarray:
    """p(s | t) for s < size: Binomial(t, eta) convolved with
    NegBin(t + mu) of ratio eta*rr / (1 - rr + eta*rr)."""
    rr = _rr(mu, eta, m)
    q = eta * rr / (1.0 - rr + eta * rr)
    ks = np.arange(size)
    binom = stats.binom.pmf(np.arange(t + 1), t, eta)
    negbin = stats.nbinom.pmf(ks, t + mu, 1.0 - q)
    return np.convolve(binom, negbin)[:size]


def accepted(mu: float, m: float, rule: tuple, floor: float = 1e-22) -> tuple[np.ndarray, np.ndarray]:
    """Accepted trigger values and their p2 weights, summed directly from the
    pmf (never as one minus a lower sum).  ``rule`` is (kind, threshold) or
    ("set", values)."""
    kind, arg = rule
    nb = _nb(mu, m)
    if kind == "set":
        ts = np.asarray(arg, dtype=int)
    elif kind == "below":
        ts = np.arange(0, arg)
    elif kind == "above":
        hi = int(nb.isf(floor)) + 1
        while nb.pmf(hi) > floor * 1e-3:
            hi += 1
        ts = np.arange(arg + 1, max(arg + 2, hi + 1))
    else:
        ts = np.asarray([arg])
    return ts, nb.pmf(ts)


def selection_pmf(mu, eta, m, rule, size) -> np.ndarray:
    ts, w = accepted(mu, m, rule)
    total = math.fsum(w.tolist())
    out = np.zeros(size)
    for t, wt in zip(ts, w):
        if wt > 0.0:
            out += (wt / total) * exact_pmf(mu, eta, m, int(t), size)
    return out


def selection_mean(mu, eta, m, rule) -> float:
    ts, w = accepted(mu, m, rule)
    return math.fsum((w * cond_mean(mu, eta, m, ts)).tolist()) / math.fsum(w.tolist())


def success_prob(mu, m, rule) -> float:
    kind, arg = rule
    nb = _nb(mu, m)
    if kind == "above":
        return float(nb.sf(arg))
    if kind == "below":
        return float(nb.cdf(arg - 1))
    return math.fsum(accepted(mu, m, rule)[1].tolist())


def state_entropy(mu, eta, m, t) -> float:
    """-sum P(g) ln[P(g)/C(g+mu-1, g)] with g - t ~ NegBin(t+mu, 1-rr)."""
    rr = _rr(mu, eta, m)
    law = stats.nbinom(t + mu, 1.0 - rr)
    hi = int(law.isf(1e-30)) + 50
    j = np.arange(hi + 1)
    logp = law.logpmf(j)
    g = j + t
    log_deg = gammaln(g + mu) - gammaln(g + 1.0) - gammaln(mu)
    p = np.exp(logp)
    keep = p > 0.0
    return -math.fsum((p[keep] * (logp[keep] - log_deg[keep])).tolist())


def thermal_entropy(mu, nbar) -> float:
    if nbar == 0.0:
        return 0.0
    return mu * ((nbar + 1.0) * math.log1p(nbar) - nbar * math.log(nbar))


def solve_mean(m_t, t, mu, eta) -> float:
    """Beam mean M whose exact-t state has mean m_t."""
    return mu * (m_t - t * eta) / (t + mu * (1.0 - eta) - m_t)


# --- checks ---------------------------------------------------------------


def _rel(a: float, b: float) -> float:
    return abs(a - b) / max(abs(b), 1e-300)


def check_joint(probs, tail, tol, mu, eta, m):
    probs = np.asarray(probs, dtype=float)
    total = math.fsum(probs.ravel().tolist()) + tail
    if abs(total - 1.0) > 10.0 * tol:
        return f"mass + tail_bound = {total!r}, off 1 by more than 10*tol"
    if not np.array_equal(probs, probs.T):
        return "joint table not exactly symmetric"
    k = np.arange(probs.shape[0])
    gap = float(np.abs(probs.sum(axis=1) - _nb(mu, m).pmf(k)).max())
    if gap > 10.0 * tol + FLOAT_SLACK:
        return f"row sums differ from the negative binomial by {gap:.3e}"
    return None


def check_marginal(probs, tail, tol, mu, m):
    probs = np.asarray(probs, dtype=float)
    total = math.fsum(probs.tolist()) + tail
    if abs(total - 1.0) > 10.0 * tol:
        return f"mass + tail_bound = {total!r}"
    gap = float(np.abs(probs - _nb(mu, m).pmf(np.arange(probs.size))).max())
    if gap > PMF_TOL:
        return f"marginal differs from the negative binomial by {gap:.3e}"
    return None


def check_counts(probs, tail, tol, mu, eta, m, rule):
    """Exact-t or selection count distribution against the oracle."""
    probs = np.asarray(probs, dtype=float)
    total = math.fsum(probs.tolist()) + tail
    if abs(total - 1.0) > 10.0 * tol:
        return f"mass + tail_bound = {total!r}"
    if rule[0] == "exact":
        ref = exact_pmf(mu, eta, m, rule[1], probs.size)
    else:
        ref = selection_pmf(mu, eta, m, rule, probs.size)
    gap = float(np.abs(probs - ref).max())
    if gap > PMF_TOL:
        return f"count pmf differs from the oracle by {gap:.3e}"
    return None


def check_mixture(mean, success, mu, eta, m, rule):
    ref = selection_mean(mu, eta, m, rule)
    if not _rel(mean, ref) <= REL_TOL:
        return f"mixture mean {mean!r} vs oracle {ref!r} (rel {_rel(mean, ref):.2e})"
    if success is not None:
        ps = success_prob(mu, m, rule)
        if not _rel(success, ps) <= REL_TOL:
            return f"success_prob {success!r} vs oracle {ps!r}"
    return None


def check_entropy(s_state, s_ref, delta_r, mu, eta, m, t, tol=1e-12):
    ref = state_entropy(mu, eta, m, t)
    slack = ENTROPY_TAIL * tol
    if not abs(s_state - ref) <= REL_TOL * ref + slack:
        return f"S_state {s_state!r} vs oracle {ref!r}"
    nbar = float(cond_mean(mu, eta, m, t)) / (eta * mu)
    th = thermal_entropy(mu, nbar)
    if not _rel(s_ref, th) <= REL_TOL:
        return f"S_ref {s_ref!r} vs thermal {th!r}"
    # delta_R is 0 for the Gaussian t = 0 state and reads -6.2e-14 at B, t = 0:
    # rounding of S_ref - S_state, allowed up to FLOAT_SLACK.
    if not -FLOAT_SLACK <= delta_r <= 1.0:
        return f"delta_R {delta_r!r} outside [0, 1]"
    if abs(delta_r - (1.0 - ref / th)) > REL_TOL + slack / th:
        return f"delta_R {delta_r!r} vs oracle {1.0 - ref / th!r}"
    return None


def bhattacharyya(a, b) -> float:
    """sum sqrt(p q) / sqrt(sum p * sum q) on the zero-padded union support."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    shape = tuple(max(x, y) for x, y in zip(a.shape, b.shape))
    pa, pb = np.zeros(shape), np.zeros(shape)
    pa[tuple(slice(0, n) for n in a.shape)] = a
    pb[tuple(slice(0, n) for n in b.shape)] = b
    return math.fsum(np.sqrt(pa * pb).ravel().tolist()) / math.sqrt(
        math.fsum(pa.ravel().tolist()) * math.fsum(pb.ravel().tolist()))


def check_arm_means(point, shots) -> str | None:
    """Each arm's sample mean within 5 sigma of M, sigma**2 = M(1 + M/mu)/n."""
    mu, _, m = point
    shots = np.asarray(shots)
    sigma = math.sqrt(m * (1.0 + m / mu) / shots.shape[0])
    for arm in (0, 1):
        mean = float(shots[:, arm].mean())
        if abs(mean - m) > 5.0 * sigma:
            return f"arm {arm} mean {mean:.5f} is {abs(mean - m) / sigma:.1f} sigma from {m}"
    return None


def _occupied(shots) -> int:
    return int(np.unique(shots[:, 0] * (int(shots[:, 1].max()) + 1) + shots[:, 1]).size)


def check_estimate(point, n, m_hat, eta_hat, errors, record_fidelity, shots=None):
    """M_hat and eta_hat within 5 bootstrap standard errors of the truth; the
    record-model fidelity clears 1 - K/n, K the occupied histogram cells (the
    Bhattacharyya bias of an n-shot histogram is about K/(4n))."""
    mu, eta, m = point
    for name, value, truth in (("M", m_hat, m), ("eta", eta_hat, eta)):
        se = errors.get(name, math.inf)
        if not abs(value - truth) <= 5.0 * se:
            return f"{name}_hat {value!r} is more than 5 standard errors ({se:.3g}) from {truth}"
    if shots is not None:
        floor = 1.0 - _occupied(shots) / n
        if record_fidelity is None or not record_fidelity >= floor:
            return f"record fidelity {record_fidelity!r} below {floor:.5f}"
    return None


def check_cycle(point, shots, record, hist, r, report, model_fidelity) -> str | None:
    arr = np.asarray(record.shots)
    if arr.shape != (shots, 2):
        return f"record shape {arr.shape}"
    bad = check_arm_means(point, arr)
    if bad:
        return bad
    counts = np.zeros(hist.probs.shape)
    np.add.at(counts, (arr[:, 0], arr[:, 1]), 1.0)
    if not np.array_equal(hist.probs, counts / shots):
        return "histogram differs from the tallied record"
    s, t = arr[:, 0].astype(float), arr[:, 1].astype(float)
    r_ref = float(np.var(s - t, ddof=1) / np.mean(s + t))
    if abs(r - r_ref) > 1e-12 * r_ref or abs(r - report.R_hat) > 1e-12 * r_ref:
        return f"noise reduction {r!r} vs {r_ref!r}"
    bad = check_estimate(point, shots, report.M_hat, report.eta_hat,
                         report.standard_errors, report.fidelity, arr)
    if bad:
        return bad
    # Two model tables whose parameters differ by estimation error of an
    # n-shot record: 1 - F is second order in that error, below 20/n.
    if not model_fidelity >= 1.0 - 20.0 / shots:
        return f"model fidelity {model_fidelity!r} below {1.0 - 20.0 / shots}"
    return None
