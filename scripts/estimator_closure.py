#!/usr/bin/env python3
"""End-to-end pipeline demo: model -> synthetic record -> recovered model.

Samples a shot record at chosen parameters, recovers (mu, eta, M) from it,
rebuilds the joint table at the estimates, and reports the fidelity against
the true table.  The whole loop is the in-silico analogue of calibrating the
apparatus from measured pulse statistics.

Usage:
    python scripts/estimator_closure.py [--mu MU --eta ETA --mean M]
                                        [--shots N] [--seed S] [--refine]
"""

import argparse

from twinbeam import (
    ExperimentParams,
    estimate_params,
    fidelity,
    joint_table,
    sample_run,
)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--mu", type=float, default=25.0)
    parser.add_argument("--eta", type=float, default=0.056)
    parser.add_argument("--mean", type=float, default=17.1)
    parser.add_argument("--shots", type=int, default=50_000)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--refine", action="store_true",
                        help="maximum-likelihood refinement of (mu, M)")
    args = parser.parse_args()

    truth = ExperimentParams(args.mu, args.eta, args.mean)
    record = sample_run(truth, args.shots, seed=args.seed)
    report = estimate_params(record, refine=args.refine)

    se = report.standard_errors
    print(f"truth      : mu={truth.mu}  eta={truth.eta}  M={truth.mean_counts}")
    print(f"recovered  : mu={report.mu_hat:.4g} (+-{se['mu']:.2g})  "
          f"eta={report.eta_hat:.4g} (+-{se['eta']:.2g})  "
          f"M={report.M_hat:.6g} (+-{se['M']:.2g})")
    print(f"noise red. : {report.R_hat:.6g}  (1 - eta = {1 - truth.eta:.6g})")
    if report.fidelity is None:
        print("record fid.: skipped (see the notes below)")
    else:
        print(f"record fid.: {report.fidelity:.6f}  (histogram vs recovered model)")

    recovered_table = joint_table(report.params(), tol=1e-9)
    true_table = joint_table(truth, tol=1e-9)
    print(f"table fid. : {fidelity(recovered_table, true_table):.6f}  "
          "(recovered model vs true model)")
    for note in report.diagnostics:
        print(f"note       : {note}")


if __name__ == "__main__":
    main()
