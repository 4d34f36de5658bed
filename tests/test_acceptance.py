"""Acceptance suite: every exit criterion at its stated tolerance.

Each criterion prints one line, `[criterion N] PASS|FAIL: summary`, visible
with `pytest -s tests/test_acceptance.py` (and in the failure report
otherwise).
"""

import subprocess
import sys
import time
from contextlib import contextmanager

import numpy as np

from twinbeam import (
    ExperimentParams,
    SelectionRule,
    brute_force_joint,
    build_conditional,
    cond_count_dist,
    conditional_mean,
    estimate_params,
    fidelity,
    histogram,
    joint_table,
    marginal,
    marginal_dist,
    nongauss_report,
    noise_reduction,
    povm_count_dist,
    sample_run,
    solve_mean_counts,
)
from twinbeam.core import _joint_square, _marginal_probs

from conftest import PARAMS_A, PARAMS_B

BOTH = (PARAMS_A, PARAMS_B)


@contextmanager
def criterion(number: int, summary: str):
    try:
        yield
    except BaseException:
        print(f"[criterion {number}] FAIL: {summary}")
        raise
    print(f"[criterion {number}] PASS: {summary}")


def test_criterion_1_oracle_equivalence():
    with criterion(1, "closed form equals direct enumeration to 1e-10 on 18 grids"):
        start = time.monotonic()
        worst = 0.0
        for mu in (1, 2, 3):
            for eta in (0.3, 0.5, 0.9):
                for n_mean in (0.5, 2.0):
                    oracle = brute_force_joint(mu, n_mean, eta)
                    params = ExperimentParams(float(mu), eta, eta * n_mean)
                    k = oracle.shape[0] - 1
                    block = _joint_square(params, _marginal_probs(params, k + 1))
                    worst = max(worst, float(np.abs(block - oracle.probs).max()))
        elapsed = time.monotonic() - start
        assert worst <= 1e-10, f"max deviation {worst:.3e}"
        assert elapsed < 30.0, f"took {elapsed:.1f}s"


def test_criterion_2_normalisation_and_marginals(table_a, table_b):
    with criterion(2, "table mass, closed-form marginals, and marginal means"):
        for params, table in zip(BOTH, (table_a, table_b)):
            mass = table.total_mass
            assert 1.0 - 1e-9 <= mass <= 1.0, f"mass {mass}"
            sums = table.probs.sum(axis=1)
            for t in range(table.shape[1]):
                assert abs(sums[t] - marginal(params, t)) <= 1e-8
            dist = marginal_dist(params, tol=1e-12)
            assert abs(dist.mean - params.mean_counts) <= 1e-8


def test_criterion_3_conditional_state_suite():
    with criterion(3, "conditional states for t = 0..30 at both parameter sets"):
        start = time.monotonic()
        for params in BOTH:
            m = params.mean_counts
            for t in range(31):
                state = build_conditional(params, SelectionRule.exact(t), tol=1e-12)
                assert abs(state.norm() - 1.0) <= 1e-8
                bayes = cond_count_dist(params, SelectionRule.exact(t), tol=1e-12)
                other = povm_count_dist(state, tol=1e-12)
                assert len(other) == len(bayes)
                assert float(np.abs(bayes.probs - other.probs).max()) <= 1e-8
                assert abs(bayes.mean - conditional_mean(params, t)) <= 1e-8
            # affine trigger dependence passing through (M, M)
            second_diff = (
                conditional_mean(params, 2)
                - 2.0 * conditional_mean(params, 1)
                + conditional_mean(params, 0)
            )
            assert abs(second_diff) <= 1e-12
            assert abs(conditional_mean(params, m) - m) <= 1e-10
        elapsed = time.monotonic() - start
        assert elapsed < 60.0, f"took {elapsed:.1f}s"


def test_criterion_4_fidelity_reproduction(table_a, table_b):
    with criterion(4, "50k-shot fidelity >= 0.99 for >= 95% of 20 seeds, both sets"):
        for params, table in zip(BOTH, (table_a, table_b)):
            passes = 0
            values = []
            for seed in range(20):
                record = sample_run(params, 50_000, seed=seed)
                value = fidelity(histogram(record), table)
                values.append(value)
                passes += value >= 0.99
            assert passes >= 19, f"only {passes}/20 seeds at mu={params.mu}: {values}"


def test_criterion_5_noise_reduction(record_a):
    with criterion(5, "noise reduction recovers 0.94 within 5 standard errors"):
        report = estimate_params(record_a, n_bootstrap=200, bootstrap_seed=0,
                                 compute_fidelity=False)
        r_hat = noise_reduction(record_a)
        assert r_hat == report.R_hat
        se = report.standard_errors["R"]
        assert abs(r_hat - 0.94) <= 5.0 * se, f"R={r_hat}, se={se}"


def test_criterion_6_nongauss_trends():
    with criterion(6, "entropy-gap bounds and strict trend orderings on 26 points"):
        evaluated = 0

        def report_at(m_t, t, mu, eta):
            nonlocal evaluated
            m = solve_mean_counts(m_t, t, mu, eta)
            rep = nongauss_report(ExperimentParams(mu, eta, m), t, tol=1e-12)
            assert rep.delta >= 0.0 - 1e-9
            assert -1e-9 <= rep.delta_R <= 1.0
            evaluated += 1
            return rep.delta_R

        increasing_t = [report_at(4.0, t, 25.0, 0.06) for t in (0, 3, 6, 9, 12, 15, 18)]
        assert all(a < b for a, b in zip(increasing_t, increasing_t[1:]))

        increasing_eta = [report_at(4.0, 5, 25.0, eta)
                          for eta in (0.04, 0.06, 0.08, 0.12, 0.20)]
        assert all(a < b for a, b in zip(increasing_eta, increasing_eta[1:]))

        decreasing_mu = [report_at(4.0, 5, mu, 0.06)
                         for mu in (1.0, 2.0, 5.0, 25.0, 90.0, 197.0)]
        assert all(a > b for a, b in zip(decreasing_mu, decreasing_mu[1:]))

        decreasing_energy = [report_at(m_t, 5, 25.0, 0.06)
                             for m_t in (1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 8.0, 10.0)]
        assert all(a > b for a, b in zip(decreasing_energy, decreasing_energy[1:]))

        assert evaluated >= 25


def test_criterion_7_near_zero_efficiency_baseline():
    with criterion(7, "delta_R <= 1e-3 for t <= 10 at eta = 1e-6"):
        for mu in (197.0, 25.0):
            params = ExperimentParams(mu, 1e-6, 0.5)
            for t in range(11):
                rep = nongauss_report(params, t, tol=1e-12)
                assert abs(rep.delta_R) <= 1e-3, f"mu={mu}, t={t}: {rep.delta_R}"


def test_criterion_8_estimator_closure(closure_record_a, closure_record_b, table_a, table_b):
    with criterion(8, "2e6-shot sample -> estimate -> retable closes within 10% / 0.99"):
        records = (closure_record_a, closure_record_b)
        for params, record, table in zip(BOTH, records, (table_a, table_b)):
            est = estimate_params(record, n_bootstrap=0, compute_fidelity=False)
            assert abs(est.M_hat - params.mean_counts) / params.mean_counts < 0.10
            assert abs(est.eta_hat - params.eta) / params.eta < 0.10
            assert abs(est.mu_hat - params.mu) / params.mu < 0.10
            recovered = joint_table(est.params(), tol=1e-9)
            assert fidelity(recovered, table) >= 0.99


def test_criterion_9_cli_determinism(tmp_path):
    with criterion(9, "sample --seed 7 is byte-identical across runs and workers"):
        args = [sys.executable, "-m", "twinbeam", "sample", "--mu", "25",
                "--eta", "0.056", "--mean", "17.1", "--shots", "20000",
                "--seed", "7"]
        paths = [tmp_path / name for name in ("one.csv", "two.csv", "eight.csv")]
        for path, extra in zip(paths, ([], [], ["--workers", "8"])):
            result = subprocess.run(
                args + extra + ["--out", str(path)], capture_output=True, text=True
            )
            assert result.returncode == 0, result.stderr
        blobs = [path.read_bytes() for path in paths]
        assert blobs[0] == blobs[1] == blobs[2]
