import hashlib
import json
import subprocess
import sys
import warnings

import pytest


def run_cli(*args: str, cwd=None) -> subprocess.CompletedProcess:
    cmd = [sys.executable, "-m", "twinbeam", *args]
    return subprocess.run(cmd, capture_output=True, text=True, cwd=cwd)


def test_help():
    cp = run_cli("--help")
    assert cp.returncode == 0
    assert "joint" in cp.stdout and "reproduce" in cp.stdout


def test_usage_error_exit_2():
    cp = run_cli("joint", "--mu", "2")
    assert cp.returncode == 2
    assert "--eta" in cp.stderr
    cp = run_cli("joint", "--mu", "2", "--eta", "0.5", "--mean", "1", "--bogus")
    assert cp.returncode == 2
    assert "--bogus" in cp.stderr


def test_computation_error_exit_1(tmp_path):
    cp = run_cli(
        "sweep", "--axis", "mu", "--values", "1", "--mt", "4", "--t", "2",
        "--eta", "0.2",
    )
    assert cp.returncode == 1
    assert "error:" in cp.stderr
    # a grid value that is not a number is one error line, not a traceback
    cp = run_cli("sweep", "--axis", "eta", "--values", "a,b", "--mt", "4", "--t", "5",
                 "--mu", "25")
    assert cp.returncode == 1
    assert cp.stderr.startswith("error:") and "Traceback" not in cp.stderr


def test_joint_writes_csv(tmp_path):
    out = tmp_path / "fig2a.csv"
    cp = run_cli("joint", "--mu", "197", "--eta", "0.06", "--mean", "13.4",
                 "--tol", "1e-9", "--out", str(out))
    assert cp.returncode == 0, cp.stderr
    lines = out.read_text().splitlines()
    assert lines[0] == "s,t,p"
    total = sum(float(line.split(",")[2]) for line in lines[1:])
    assert abs(total - 1.0) < 1e-8


def test_joint_stdout_when_no_out():
    cp = run_cli("joint", "--mu", "1", "--eta", "0.5", "--mean", "0.5",
                 "--tol", "1e-6")
    assert cp.returncode == 0
    assert cp.stdout.startswith("s,t,p")


def test_fidelity_self_is_one(tmp_path):
    out = tmp_path / "x.csv"
    run_cli("joint", "--mu", "2", "--eta", "0.5", "--mean", "1", "--out", str(out))
    cp = run_cli("fidelity", "--a", str(out), "--b", str(out))
    assert cp.returncode == 0
    assert cp.stdout.strip() == "1.0"


def test_conditional_mean_matches_closed_form(tmp_path):
    from twinbeam import ExperimentParams, conditional_mean

    out = tmp_path / "cond.csv"
    cp = run_cli("conditional", "--mu", "197", "--eta", "0.06", "--mean", "13.4",
                 "--t", "10", "--out", str(out))
    assert cp.returncode == 0, cp.stderr
    rows = out.read_text().splitlines()[1:]
    mean = sum(int(r.split(",")[0]) * float(r.split(",")[1]) for r in rows)
    expected = conditional_mean(ExperimentParams(197.0, 0.06, 13.4), 10)
    assert abs(mean - expected) < 1e-8


def test_conditional_inclusive_variants(tmp_path):
    strict = tmp_path / "strict.csv"
    inclusive = tmp_path / "inclusive.csv"
    base = ["conditional", "--mu", "25", "--eta", "0.056", "--mean", "17.1",
            "--tol", "1e-9"]
    assert run_cli(*base, "--above", "16", "--out", str(strict)).returncode == 0
    assert run_cli(*base, "--at-least", "17", "--out", str(inclusive)).returncode == 0
    assert strict.read_text() == inclusive.read_text()


def test_conditional_state_out(tmp_path):
    state_path = tmp_path / "state.json"
    cp = run_cli("conditional", "--mu", "25", "--eta", "0.056", "--mean", "17.1",
                 "--t", "13", "--out", str(tmp_path / "c.csv"),
                 "--state-out", str(state_path))
    assert cp.returncode == 0, cp.stderr
    payload = json.loads(state_path.read_text())
    assert payload["t"] == 13 and payload["gamma_min"] == 13


def test_state_out_rejects_set_rules_before_computing(tmp_path, monkeypatch, capsys):
    import twinbeam.cli as cli

    def no_computation(*args, **kwargs):
        raise AssertionError("a distribution was computed before the rule check")

    monkeypatch.setattr(cli, "cond_count_dist", no_computation)
    monkeypatch.setattr(cli, "build_conditional", no_computation)
    state_path = tmp_path / "state.json"
    base = ["conditional", "--mu", "25", "--eta", "0.056", "--mean", "17.1",
            "--state-out", str(state_path)]
    for flag in ("--above", "--below", "--at-least", "--at-most"):
        assert cli.main([*base, flag, "12"]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:") and "--state-out" in err[0]
    assert not state_path.exists()


def _refuses_before_computing(cli, argv, path, capsys):
    assert cli.main(argv) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:") and "JSON only" in err[0]
    assert not path.exists()


def test_nongauss_refuses_a_csv_request(tmp_path, monkeypatch, capsys):
    import twinbeam.cli as cli

    def no_computation(*args, **kwargs):
        raise AssertionError("a report was computed before the format check")

    monkeypatch.setattr(cli, "nongauss_report", no_computation)
    base = ["nongauss", "--mu", "25", "--eta", "0.06", "--mean", "3.77", "--t", "5"]
    csv_path = tmp_path / "nongauss.csv"
    json_path = tmp_path / "nongauss.json"
    _refuses_before_computing(cli, [*base, "--out", str(csv_path)], csv_path, capsys)
    _refuses_before_computing(cli, [*base, "--format", "csv", "--out", str(json_path)],
                              json_path, capsys)
    _refuses_before_computing(cli, [*base, "--format", "csv"], csv_path, capsys)


def test_nongauss_stdout_stays_json(capsys):
    import twinbeam.cli as cli

    # SHA-256 of the JSON report; CSV requests are refused
    argv = ["nongauss", "--mu", "1", "--eta", "0.5", "--mean", "0.5", "--t", "1",
            "--tol", "1e-6"]
    for extra in ([], ["--format", "json"]):
        with warnings.catch_warnings():
            # the state is built tightly enough for an entropy sum
            warnings.simplefilter("error", RuntimeWarning)
            assert cli.main([*argv, *extra]) == 0
        assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == (
            "3bc53be76915d18a9be1b5027571cef9354f1e489050959cd2e2f6c6743055c3")


def test_state_out_refuses_a_csv_path(tmp_path, monkeypatch, capsys):
    import twinbeam.cli as cli

    def no_computation(*args, **kwargs):
        raise AssertionError("a distribution was computed before the format check")

    monkeypatch.setattr(cli, "cond_count_dist", no_computation)
    monkeypatch.setattr(cli, "build_conditional", no_computation)
    state_path = tmp_path / "state.CSV"
    _refuses_before_computing(
        cli, ["conditional", "--mu", "25", "--eta", "0.056", "--mean", "17.1", "--t", "13",
              "--state-out", str(state_path)], state_path, capsys)


def test_estimate_refuses_a_csv_report(tmp_path, monkeypatch, capsys):
    import twinbeam.cli as cli

    def no_computation(*args, **kwargs):
        raise AssertionError("the record was read before the format check")

    monkeypatch.setattr(cli.serialize, "read_record", no_computation)
    monkeypatch.setattr(cli, "estimate_params", no_computation)
    report = tmp_path / "report.csv"
    _refuses_before_computing(
        cli, ["estimate", "--input", str(tmp_path / "run.csv"), "--out", str(report)],
        report, capsys)


def test_malformed_inputs_give_one_error_line(tmp_path, capsys):
    import twinbeam.cli as cli

    table = tmp_path / "table.csv"
    assert cli.main(["joint", "--mu", "2", "--eta", "0.5", "--mean", "1",
                     "--tol", "1e-6", "--out", str(table)]) == 0
    header_only = tmp_path / "header_only.csv"
    header_only.write_text("s,t,p\n")
    bad_cell = tmp_path / "bad_cell.csv"
    bad_cell.write_text("s,t\n" + "".join(f"{i % 7},{i % 5}\n" for i in range(150)) + "3,2.5\n")
    capsys.readouterr()
    for argv, path in ((["fidelity", "--a", str(header_only), "--b", str(table)], header_only),
                       (["estimate", "--input", str(bad_cell)], bad_cell),
                       (["estimate", "--input", str(tmp_path / "missing.csv")],
                        tmp_path / "missing.csv")):
        assert cli.main(argv) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:") and str(path) in err[0]


def test_consecutive_calls_reuse_one_parser(monkeypatch, capsys):
    import twinbeam.cli as cli

    verify_flags = []
    real = cli.cond_count_dist

    def spy(*args, **kwargs):
        verify_flags.append(kwargs["verify"])
        return real(*args, **kwargs)

    monkeypatch.setattr(cli, "cond_count_dist", spy)
    plain = ["conditional", "--mu", "25", "--eta", "0.056", "--mean", "17.1", "--t", "3",
             "--tol", "1e-8"]
    usage_error = ["conditional", "--mu", "25", "--t", "3"]
    assert cli.main([*plain, "--verify"]) == 0
    verified = capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        cli.main(usage_error)
    assert exc.value.code == 2
    usage = capsys.readouterr()
    assert cli.main(plain) == 0
    assert capsys.readouterr() == verified
    # the flag did not carry over, and the output is a fresh parser's
    assert verify_flags == [True, False]
    assert vars(cli._parser().parse_args(plain)) == vars(cli.build_parser().parse_args(plain))
    with pytest.raises(SystemExit):
        cli.build_parser().parse_args(usage_error)
    assert capsys.readouterr() == usage and "--eta" in usage.err
    assert cli._parser() is cli._parser()


def test_sample_determinism_across_workers(tmp_path):
    args = ["sample", "--mu", "25", "--eta", "0.056", "--mean", "17.1",
            "--shots", "20000", "--seed", "7"]
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    c = tmp_path / "c.csv"
    assert run_cli(*args, "--out", str(a)).returncode == 0
    assert run_cli(*args, "--out", str(b)).returncode == 0
    assert run_cli(*args, "--workers", "8", "--out", str(c)).returncode == 0
    assert a.read_bytes() == b.read_bytes() == c.read_bytes()


def test_sample_estimate_round_trip(tmp_path):
    rec = tmp_path / "run.csv"
    report = tmp_path / "report.json"
    assert run_cli("sample", "--mu", "25", "--eta", "0.056", "--mean", "17.1",
                   "--shots", "20000", "--seed", "0", "--out", str(rec)).returncode == 0
    cp = run_cli("estimate", "--input", str(rec), "--bootstrap", "50",
                 "--out", str(report))
    assert cp.returncode == 0, cp.stderr
    assert "mean counts" in cp.stdout
    payload = json.loads(report.read_text())
    assert abs(payload["M_hat"] - 17.1) / 17.1 < 0.1
    assert payload["fidelity"] > 0.98


def test_estimate_reports_without_a_fidelity_beyond_the_table_budget(tmp_path, capsys):
    import twinbeam.cli as cli

    rec = tmp_path / "wide.csv"
    assert cli.main(["sample", "--mu", "25", "--eta", "0.5", "--mean", "3000",
                     "--shots", "2000", "--seed", "1", "--out", str(rec)]) == 0
    capsys.readouterr()
    assert cli.main(["estimate", "--input", str(rec)]) == 0
    out = capsys.readouterr().out
    assert "fidelity   : None" in out
    assert "note       : fidelity skipped: table needs over" in out
    assert "mean counts: " in out


def test_estimate_reads_json_records(tmp_path):
    rec = tmp_path / "run.json"
    assert run_cli("sample", "--mu", "2", "--eta", "0.5", "--mean", "1",
                   "--shots", "500", "--seed", "3", "--format", "json",
                   "--out", str(rec)).returncode == 0
    cp = run_cli("estimate", "--input", str(rec), "--bootstrap", "10")
    assert cp.returncode == 0, cp.stderr
    assert "mean counts" in cp.stdout


def test_fidelity_dimension_mismatch_is_a_computation_error(tmp_path):
    joint = tmp_path / "joint.csv"
    counts = tmp_path / "counts.csv"
    run_cli("joint", "--mu", "2", "--eta", "0.5", "--mean", "1",
            "--tol", "1e-8", "--out", str(joint))
    run_cli("marginal", "--mu", "2", "--eta", "0.5", "--mean", "1",
            "--tol", "1e-8", "--out", str(counts))
    cp = run_cli("fidelity", "--a", str(joint), "--b", str(counts))
    assert cp.returncode == 1
    assert "dimensionality" in cp.stderr


def test_sweep_csv_output(tmp_path):
    out = tmp_path / "sweep.csv"
    cp = run_cli("sweep", "--axis", "eta", "--values", "0.06,0.08,0.1",
                 "--mt", "4", "--t", "5", "--mu", "25", "--tol", "1e-10",
                 "--out", str(out))
    assert cp.returncode == 0, cp.stderr
    lines = out.read_text().splitlines()
    assert lines[0] == "axis,value,delta,delta_R,S_state,S_ref"
    assert len(lines) == 4


def test_nongauss_json(tmp_path):
    cp = run_cli("nongauss", "--mu", "25", "--eta", "0.06", "--mean", "3.77",
                 "--t", "5", "--tol", "1e-10")
    assert cp.returncode == 0
    payload = json.loads(cp.stdout)
    assert payload["log_base"] == "e"
    assert 0.0 <= payload["delta_R"] <= 1.0


def test_outdir_env_var(tmp_path):
    env_dir = tmp_path / "outputs"
    cp = subprocess.run(
        [sys.executable, "-m", "twinbeam", "marginal", "--mu", "2", "--eta",
         "0.5", "--mean", "1", "--tol", "1e-8", "--out", "m.csv"],
        capture_output=True, text=True,
        env={**__import__("os").environ, "TWINBEAM_OUTDIR": str(env_dir)},
    )
    assert cp.returncode == 0, cp.stderr
    assert (env_dir / "m.csv").exists()


def test_reproduce_fig2a_manifest(tmp_path):
    cp = run_cli("reproduce", "fig2a", "--outdir", str(tmp_path), "--tol", "1e-8")
    assert cp.returncode == 0, cp.stderr
    manifest = json.loads((tmp_path / "fig2a" / "manifest.json").read_text())
    assert manifest["figure"] == "fig2a"
    assert manifest["axes"] == ["s", "t"]
    assert manifest["params"] == {"mu": 197.0, "eta": 0.06, "mean_counts": 13.4}
    assert (tmp_path / "fig2a" / "joint.csv").exists()


def test_reproduce_unknown_figure():
    cp = run_cli("reproduce", "fig9")
    assert cp.returncode == 2  # argparse choice error


def test_reproduce_fig3_file_set(tmp_path):
    cp = run_cli("reproduce", "fig3", "--outdir", str(tmp_path), "--seed", "1",
                 "--tol", "1e-8")
    assert cp.returncode == 0, cp.stderr
    manifest = json.loads((tmp_path / "fig3" / "manifest.json").read_text())
    names = {f["path"] for f in manifest["files"]}
    assert {"exact_t10_theory.csv", "exact_t15_theory.csv",
            "above_11_theory.csv", "above_17_theory.csv",
            "below_8_theory.csv", "below_15_theory.csv",
            "means_theory.csv", "unconditioned_theory.csv"} <= names
    assert manifest["params"] == {"mu": 197.0, "eta": 0.06, "mean_counts": 13.4}
    # the mean-vs-trigger curve carries the exact, thresholded, and
    # unconditioned families
    means = (tmp_path / "fig3" / "means_theory.csv").read_text().splitlines()
    kinds = {line.split(",")[0] for line in means[1:]}
    assert kinds == {"exact", "above", "below", "unconditioned"}


def test_reproduce_conditional_figure(tmp_path):
    cp = run_cli("reproduce", "fig5", "--outdir", str(tmp_path), "--seed", "5",
                 "--tol", "1e-8")
    assert cp.returncode == 0, cp.stderr
    base = tmp_path / "fig5"
    manifest = json.loads((base / "manifest.json").read_text())
    names = {f["path"] for f in manifest["files"]}
    assert {"exact_t13_theory.csv", "exact_t19_theory.csv",
            "above_17_theory.csv", "above_21_theory.csv",
            "below_10_theory.csv", "below_15_theory.csv",
            "means_theory.csv", "shots.csv"} <= names
    assert manifest["params"]["mu"] == 25.0
    # deterministic given the seed
    again = tmp_path / "again"
    run_cli("reproduce", "fig5", "--outdir", str(again), "--seed", "5",
            "--tol", "1e-8")
    assert (base / "shots.csv").read_bytes() == (again / "fig5" / "shots.csv").read_bytes()
