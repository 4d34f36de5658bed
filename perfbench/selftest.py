#!/usr/bin/env python3
"""Show that every check of the benchmark accepts a true output and rejects
a perturbed one.

    PYTHONPATH=src python3 perfbench/selftest.py

Each case builds a genuine output with the package, confirms the check
passes it, perturbs it slightly (a few parts in 10**8 or less, or one flipped
digit in a written file), and confirms the check rejects it.  Prints one line
per case and exits 1 if any check fails to discriminate.
"""

import sys
import tempfile
from pathlib import Path

import numpy as np

import twinbeam as tb

import oracles as o
import workloads as w

A, B = w.A, w.B
SMALL = (2.3, 0.35, 1.9)
results = []


def case(name, good, bad):
    """good/bad: zero-argument callables returning the check's verdict."""
    accepted = good() is None
    rejected = bad() is not None
    results.append(accepted and rejected)
    print(f"{'ok  ' if accepted and rejected else 'FAIL'} {name}"
          + ("" if accepted else " (rejects the true output)")
          + ("" if rejected else " (accepts the perturbed output)"))


def moved(probs, i, j, delta):
    out = np.array(probs, dtype=float)
    out.flat[i] += delta
    out.flat[j] -= delta
    return out


def main() -> int:
    table = tb.joint_table(tb.ExperimentParams(*A))
    p, tail, tol = table.probs, table.tail_bound, table.tol
    n = p.shape[0]
    case("joint: mass", lambda: o.check_joint(p, tail, tol, *A),
         lambda: o.check_joint(p * (1 + 1e-9), tail, tol, *A))
    asym = p.copy()
    asym[1, 2] = np.nextafter(asym[1, 2], 1.0)
    case("joint: exact symmetry", lambda: o.check_joint(p, tail, tol, *A),
         lambda: o.check_joint(asym, tail, tol, *A))
    case("joint: row sums", lambda: o.check_joint(p, tail, tol, *A),
         lambda: o.check_joint(moved(p, 0, n + 1, 1e-9), tail, tol, *A))

    marg = tb.marginal_dist(tb.ExperimentParams(*B))
    case("marginal: pmf", lambda: o.check_marginal(marg.probs, marg.tail_bound, marg.tol, B[0], B[2]),
         lambda: o.check_marginal(moved(marg.probs, 3, 4, 1e-9), marg.tail_bound, marg.tol,
                                  B[0], B[2]))

    for point, spec in ((A, ("exact", 10)), (SMALL, ("exact", 3)), (B, ("below", 8)),
                        (A, ("above", 15)), (SMALL, ("set", (1, 4)))):
        d = tb.cond_count_dist(tb.ExperimentParams(*point), w._rule(spec))
        case(f"counts {spec}: pmf",
             lambda: o.check_counts(d.probs, d.tail_bound, d.tol, *point, spec),
             lambda: o.check_counts(moved(d.probs, 2, 3, 1e-9), d.tail_bound, d.tol,
                                    *point, spec))

    mix = tb.build_conditional(tb.ExperimentParams(*A), tb.SelectionRule.above(12))
    mean, success = mix.mean_counts(), mix.success_prob
    case("mixture: mean", lambda: o.check_mixture(mean, success, *A, ("above", 12)),
         lambda: o.check_mixture(mean * (1 + 1e-8), success, *A, ("above", 12)))
    case("mixture: success_prob", lambda: o.check_mixture(mean, success, *A, ("above", 12)),
         lambda: o.check_mixture(mean, success * (1 + 1e-8), *A, ("above", 12)))

    rep = tb.nongauss_report(tb.ExperimentParams(*B), 7)
    args = (rep.S_state, rep.S_ref, rep.delta_R)
    for label, bad in (("S_state", (rep.S_state * (1 + 1e-8), rep.S_ref, rep.delta_R)),
                       ("S_ref", (rep.S_state, rep.S_ref * (1 + 1e-8), rep.delta_R)),
                       ("delta_R", (rep.S_state, rep.S_ref, rep.delta_R + 1e-8)),
                       ("delta_R range", (rep.S_state, rep.S_ref, -1e-9))):
        case(f"entropy: {label}", lambda: o.check_entropy(*args, *B, 7),
             lambda bad=bad: o.check_entropy(*bad, *B, 7))

    record = tb.sample_run(tb.ExperimentParams(*B), 10_000, 5)
    shifted = record.shots + np.array([1, 0])
    case("record: arm means", lambda: o.check_arm_means(B, record.shots),
         lambda: o.check_arm_means(B, shifted))

    out = w._cycle(B, 10_000, 5, False).fn()
    rec, hist, r, report, model_f = out
    se = report.standard_errors
    case("estimate: M_hat", lambda: o.check_cycle(B, 10_000, *out),
         lambda: o.check_estimate(B, 10_000, B[2] + 6 * se["M"], report.eta_hat, se,
                                  report.fidelity, rec.shots))
    case("estimate: eta_hat", lambda: o.check_cycle(B, 10_000, *out),
         lambda: o.check_estimate(B, 10_000, report.M_hat, B[1] - 6 * se["eta"], se,
                                  report.fidelity, rec.shots))
    case("estimate: record fidelity", lambda: o.check_cycle(B, 10_000, *out),
         lambda: o.check_estimate(B, 10_000, report.M_hat, report.eta_hat, se,
                                  1.0 - 1.0 / 10_000 * (o._occupied(rec.shots) + 1),
                                  rec.shots))
    swapped = tb.JointDistribution(probs=hist.probs[::-1], tail_bound=0.0, params=None,
                                   tol=0.0, symmetric=False)
    case("cycle: histogram", lambda: o.check_cycle(B, 10_000, *out),
         lambda: o.check_cycle(B, 10_000, rec, swapped, r, report, model_f))
    case("cycle: noise reduction", lambda: o.check_cycle(B, 10_000, *out),
         lambda: o.check_cycle(B, 10_000, rec, hist, r * (1 + 1e-9), report, model_f))
    case("cycle: model fidelity", lambda: o.check_cycle(B, 10_000, *out),
         lambda: o.check_cycle(B, 10_000, rec, hist, r, report, 1.0 - 21.0 / 10_000))

    tasks = w.calibrate_tasks(1, Path("."))
    twin = tasks[-1]
    first = next(t for t in tasks[:-1] if t.seed == twin.seed)
    first_out = first.fn()
    first.check(first_out, o)
    twin_out = twin.fn()
    other = tb.sample_run(tb.ExperimentParams(*B), 10_000, twin_out[0].meta["seed"] + 1)
    case("cycle: workers=2 twin", lambda: twin.check(twin_out, o),
         lambda: twin.check((other,) + twin_out[1:], o))

    with tempfile.TemporaryDirectory() as tmp:
        d = Path(tmp)
        path = d / "A.csv"
        code, _, err = w._invoke(["joint", *w._pargs(A), "--out", str(path)])
        good_text = path.read_text()
        check = w._check_joint_file(path, A, 1e-12)
        lines = good_text.splitlines()
        last = lines[1]
        lines[1] = last[:-1] + str((int(last[-1]) + 1) % 10)

        def tampered():
            path.write_text("\n".join(lines) + "\n")
            return check((0, "", ""), o)
        case("cli: table re-read bit-exactly", lambda: check((0, "", ""), o), tampered)

        other_path = d / "B.csv"
        w._invoke(["marginal", *w._pargs(B), "--out", str(other_path)])
        path.write_text(good_text)
        fid = w._check_fidelity(path, path)
        case("cli: fidelity value", lambda: fid((0, "1.0\n", ""), o),
             lambda: fid((0, repr(1.0 - 1e-9) + "\n", ""), o))

        figs = d / "figs"
        code, stdout, _ = w._invoke(["reproduce", "fig2b", "--outdir", str(figs)])
        rep_check = w._check_reproduce(figs, "fig2b")
        joint_csv = figs / "fig2b" / "joint.csv"
        text = joint_csv.read_text()

        def tampered_fig():
            rows = text.splitlines()
            s, t, val = rows[5].split(",")
            rows[5] = f"{s},{t},{float(val) * (1 + 1e-6)!r}"
            joint_csv.write_text("\n".join(rows) + "\n")
            return rep_check((code, stdout, ""), o)
        case("cli: reproduce file oracle", lambda: rep_check((code, stdout, ""), o), tampered_fig)

        means = d / "means_theory.csv"
        mu, eta, m = A
        rows = [("exact", 4, float(o.cond_mean(mu, eta, m, 4))),
                ("above", 12, o.selection_mean(mu, eta, m, ("above", 12)))]

        def means_file(scale):
            means.write_text("kind,value,mean\n" + "".join(
                f"{k},{v},{x * scale!r}\n" for k, v, x in rows))
            return w._check_figure_file(means, A, 1e-10, o)
        case("figure: means_theory", lambda: means_file(1.0), lambda: means_file(1 + 1e-8))

    case("cli: error line", lambda: w._check_error_line((1, "", "error: bad input\n"), o),
         lambda: w._check_error_line((1, "", "Traceback (most recent call last):\n  x\n"), o))
    passed = sum(results)
    print(f"{passed} of {len(results)} checks discriminate")
    return 0 if passed == len(results) else 1


if __name__ == "__main__":
    sys.exit(main())
