import contextlib
import hashlib
import io
import json
import re
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from twinbeam import (
    FIGURE_IDS,
    ExperimentParams,
    JointDistribution,
    ParameterError,
    PhotoCountDistribution,
    SelectionRule,
    ShotRecord,
    SweepRow,
    TableSizeError,
    build_conditional,
    histogram,
    marginal_dist,
    sample_run,
)
from twinbeam import cli, serialize

from conftest import csv_oracle


def _write(path, obj, fmt="json"):
    return serialize.write_text(path, serialize.format_table(obj, fmt))


def test_joint_csv_round_trip(tmp_path, table_b):
    path = _write(tmp_path / "joint.csv", table_b, "csv")
    back = serialize.read_table(path)
    assert np.array_equal(back, table_b.probs)


def test_joint_json_round_trip(tmp_path, table_b, params_b):
    path = _write(tmp_path / "joint.json", table_b)
    assert np.array_equal(serialize.read_table(path), table_b.probs)
    payload = json.loads(path.read_text())
    assert payload["tail_bound"] == table_b.tail_bound
    assert payload["tol"] == table_b.tol
    assert ExperimentParams.from_dict(payload["params"]) == params_b


def test_counts_csv_round_trip(tmp_path, params_b):
    dist = marginal_dist(params_b, tol=1e-10)
    path = _write(tmp_path / "counts.csv", dist, "csv")
    back = serialize.read_table(path)
    assert np.array_equal(back, dist.probs)


def test_counts_json_schema(tmp_path, params_b):
    dist = marginal_dist(params_b, tol=1e-10)
    path = _write(tmp_path / "counts.json", dist)
    payload = json.loads(path.read_text())
    assert payload["schema"] == 1
    assert payload["mean"] == dist.mean
    assert payload["probs"] == dist.probs.tolist()
    assert np.array_equal(serialize.read_table(path), dist.probs)


def test_state_json_schema(tmp_path, params_b):
    state = build_conditional(params_b, SelectionRule.exact(4), tol=1e-10)
    # a state has no CSV form, so "csv" still gives its JSON
    assert serialize.format_table(state, "csv") == serialize.format_table(state)
    path = _write(tmp_path / "state.json", state)
    payload = json.loads(path.read_text())
    assert set(payload) == {"schema", "t", "params", "gamma_min", "weights",
                            "tail_bound", "M_t"}
    assert payload["t"] == 4
    assert payload["gamma_min"] == 4
    assert payload["M_t"] == state.M_t
    assert payload["weights"] == state.weights.tolist()


def test_shots_csv_round_trip(tmp_path):
    rec = sample_run(ExperimentParams(2.0, 0.4, 1.5), 500, seed=8)
    path = _write(tmp_path / "shots.csv", rec, "csv")
    back = serialize.read_record(path)
    assert np.array_equal(back.shots, rec.shots)
    assert back.meta == {"source": str(path)}
    assert path.read_text().splitlines()[0] == "s,t"


def test_shots_json_round_trip(tmp_path):
    rec = sample_run(ExperimentParams(2.0, 0.4, 1.5), 200, seed=8)
    path = _write(tmp_path / "shots.json", rec)
    back = serialize.read_record(path)
    assert np.array_equal(back.shots, rec.shots)
    assert back.meta == rec.meta
    # the record's params survive the round trip into its histogram
    assert histogram(back).params == ExperimentParams(2.0, 0.4, 1.5)


def test_read_table_dispatch(tmp_path, table_b, params_b):
    joint_path = _write(tmp_path / "a.csv", table_b, "csv")
    assert serialize.read_table(joint_path).ndim == 2
    counts_path = _write(tmp_path / "b.csv", marginal_dist(params_b, tol=1e-8), "csv")
    assert serialize.read_table(counts_path).ndim == 1
    bad = tmp_path / "c.csv"
    bad.write_text("x,y\n1,2\n")
    with pytest.raises(ParameterError):
        serialize.read_table(bad)


def test_sweep_csv_header(tmp_path):
    from twinbeam import sweep

    rows = sweep("eta", [0.06, 0.1], {"M_t": 4.0, "t": 5, "mu": 25.0}, tol=1e-10)
    path = _write(tmp_path / "sweep.csv", rows, "csv")
    lines = path.read_text().splitlines()
    assert lines[0] == "axis,value,delta,delta_R,S_state,S_ref"
    assert lines[1].startswith("eta,0.06,")
    # full-precision floats survive parsing
    value = float(lines[1].split(",")[3])
    assert value == rows[0].delta_R


def test_output_dir_env(tmp_path, monkeypatch):
    monkeypatch.setenv("TWINBEAM_OUTDIR", str(tmp_path / "sub"))
    out = serialize.write_text("file.txt", "hello\n")
    assert out == tmp_path / "sub" / "file.txt"
    assert out.read_text() == "hello\n"


# SHA-256 of the stdout of each subcommand; the codec must keep every byte.
# The sample pins hold the records of the gamma-Poisson split sampler (one
# gamma rate, then shared, arm-1 and arm-2 Poisson counts per shot).  The
# joint, conditional, marginal and sweep pins (and fig2a below) hold the
# recurrence kernel and the running-sum marginal.  Against the log-gamma
# series they moved by at most 4e-16 in probability (8e-13 in fig2a, where
# the series stopped at tol 1e-6; its cells are within 4e-15 of joint_prob)
# and 5e-13 in entropy.  The conditional and sweep pins hold the exact-t
# state as t + NB(t+mu, rr): the conditional support ends where that tail
# drops to tol (8 rows, not 48; every kept cell unchanged).  The conditional
# pins then moved once more when the count support became the sum of the
# Bin(t, eta) and NB(t + mu, c) quantiles of the count law at tol/8 each, in
# place of the thinned photon top: 7 rows, not 8, every kept cell unchanged,
# tail_bound 3.04e-5 (was 4.93e-6, within tol = 1e-3).  The sweep pins
# hold delta as the relative entropy of the photon-total laws: delta is
# within 1.3e-15 of a 40-digit sum (it moved by up to 7.8e-15) and S_ref
# within 6e-15 (S_state = S_ref - delta).  The joint, marginal, conditional
# and sweep pins (and fig2a) moved once more when every count law became
# (a, odds), with Loader's point formula and a running sum anchored at the
# mode: at most 4.7e-14 relative in any cell or entropy (1.1e-14 in fig2a),
# every length kept; the conditional tail_bound, 1 minus the mass, moved by
# 3.3e-16.
_SMALL = ["--mu", "1", "--eta", "0.5", "--mean", "0.5"]
_GOLDEN_ARGV = {
    "joint": ["joint", *_SMALL, "--tol", "1e-2"],
    "marginal": ["marginal", *_SMALL, "--tol", "1e-3"],
    "conditional": ["conditional", *_SMALL, "--t", "1", "--tol", "1e-3"],
    "sample": ["sample", *_SMALL, "--shots", "4", "--seed", "1"],
    "sweep": ["sweep", "--axis", "eta", "--values", "0.1,0.2", "--mt", "4", "--t", "5",
              "--mu", "25", "--tol", "1e-10"],
}
_GOLDEN_SHA256 = {
    ("joint", "csv"): "779ac6f2bf519d5ca302a69920f374639a56b3ff964167e7685b22aac457ad7a",
    ("joint", "json"): "3dce297409a1eb25393825bfca5c8a645c4c4ef05f6fcfc067ab36a6ae1dd67c",
    ("marginal", "csv"): "c8095e82a5adad61ad2ac016aa1c1937b6217e9869e8a9a09c0ede2f00ef0efa",
    ("marginal", "json"): "dc4a2825f51fa3ab06a728b21978037869edc066ba92409a311e8e98c1fb9bc5",
    ("conditional", "csv"): "d95f0ebecb5925e3289c29ef608ce93a9c07bec17d326bf92d6186d1270f63cd",
    ("conditional", "json"): "611081eb77085d16b814eb993c2f4184ab3cfe2bb71b9fd4af8b3e59ac4ffaa4",
    ("sample", "csv"): "5792b46ae258dfaa29f52bbdf9c4ac7fb13c330f23ee3c02847ca4d6e744f087",
    ("sample", "json"): "4a004e0b13b68bc9feb8b02b9591ea1b66c701f6fcf547cd692a1f2d0a57a76a",
    ("sweep", "csv"): "998e3bc63f6251734ad5bc456a46fffd7e41f4007d4b070a89f4376ed5e756df",
    ("sweep", "json"): "12f7520d84735cf68970a812ce7aa98c8e527ea60e7ec202bb849cc19f3bddca",
}


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("command,fmt", sorted(_GOLDEN_SHA256))
def test_cli_output_bytes_are_pinned(command, fmt):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main([*_GOLDEN_ARGV[command], "--format", fmt]) == 0
    assert _sha256(out.getvalue()) == _GOLDEN_SHA256[(command, fmt)]


def test_reproduce_bytes_are_pinned(tmp_path):
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["reproduce", "fig2a", "--outdir", str(tmp_path), "--tol", "1e-6"]) == 0
    got = {p.name: _sha256(p.read_text()) for p in (tmp_path / "fig2a").iterdir()}
    assert got == {
        "joint.csv": "9faf29139ede5e26e76011f4bc6c6f0b34902a4ab259499e4fcdfc7e28fafabb",
        "manifest.json": "3517955b5ea20dbd92f20e5adbb15711e93ccb37f83eab2f53fe4e31426c6d68",
    }


# SHA-256 of every file of the five bundles at the default seed and tol.  The
# sampled files (shots.csv, means_synthetic.csv and the *_synthetic.csv of
# fig3 and fig5) follow the sampler's per-version stream: a change of the
# sampler re-pins them and says so.  The 22 computed files moved once when
# every count law became (a, odds) with a mode-anchored running sum: same
# lengths, at most 3.2e-14 relative in any cell; the sampled files and the
# manifests kept their bytes.
_BUNDLE_SHA256 = {
    "fig2a/joint.csv": "7ccfd65cf1e5586e5f3b360a6f27695a6f4b0326f27e2a11c0678ac44c1c9057",
    "fig2a/manifest.json": "e0af4f056fdd82babdb3ad365b4109aaeb23c80c1046135e4e3c88077e45f9bb",
    "fig2b/joint.csv": "99dcb599b3b4a84e5128c7fa9e43f9a47181fc1c3fefb68f6e32dfdd37d7b746",
    "fig2b/manifest.json": "e93f7d7d6e53f18a3da3cd42b3f4564ab498a1a38844a2351ed9c045fcaa1643",
    "fig3/above_11_synthetic.csv": "ff74fdd71d19a1d1b00313c2c6312b097561692a3c6329f1ac0fbcf9c69e15a6",
    "fig3/above_11_theory.csv": "0354954996f5d5219cf9b9a56e3a8450a15d544c13356ab483c410f01a548f5c",
    "fig3/above_17_synthetic.csv": "ad5cd23d33ad4bc63f90eb3294f1741ee409f330b3b5d10c3f9f95b4162893b4",
    "fig3/above_17_theory.csv": "90e6452a80363a30968e2429b83b1967be3c6e0c175ba5fe65d99b0e61624172",
    "fig3/below_15_synthetic.csv": "516726afb21f635de63fec4a7ff24fd6bfe84a71a489a81f5ed05b15279d1855",
    "fig3/below_15_theory.csv": "d9f17e452a8a9e7245b946561cc493a731a204fa4b99e530293085b64072ecfc",
    "fig3/below_8_synthetic.csv": "264c859e784ba2ec9aa5a32a36f008c26c8618c2cc5ba8e1a811be2da8a14492",
    "fig3/below_8_theory.csv": "5be2fac95645e8599a21d88088764cf276a1a4849bca5f7e0f62e9a2906834fe",
    "fig3/exact_t10_synthetic.csv": "4608d3a6a60e5002d28e01a80c024adc24fcd4515b4944e307a442a3cf89d7d9",
    "fig3/exact_t10_theory.csv": "e4a6bd798dad04c13a6f6e5f90687a036204feb37e233b9c26ee13d5894fd3ca",
    "fig3/exact_t15_synthetic.csv": "a22ebdad6e407ad0e31653c0cc3d01b5ecf2f1784067a4a2a5aa09129e2490f3",
    "fig3/exact_t15_theory.csv": "b2e777f4327b736f7f1babf8f53c5b789a322a126fde83eae93d188a235c92ff",
    "fig3/manifest.json": "fdd05ed173c084665fb414c521dbb8b04acbc35d070a549ad3a33a5362c7bb31",
    "fig3/means_synthetic.csv": "b5d89b8d671b702f4c3f67623b60d7d6e39a9f0a588bcd705da4355cc3b5bb5c",
    "fig3/means_theory.csv": "301013624a336d6b3270eee5b6d4cf19eae3f18d1add13b6ca085e789ba8418c",
    "fig3/shots.csv": "f821e2c55afc773f960778ce54f0ea775ffdc00cc47fb413f7a21d35a77bb95a",
    "fig3/unconditioned_theory.csv": "ae8df2d152c313cbf2e2056f6807955a472e7b8f98dedd6a61732741fb3ac9dc",
    "fig4/efficiency_panel.csv": "faa6ab264f2e18055adf4044153c0efa441453697173780adf3758301d8ab93e",
    "fig4/energy_panel.csv": "7dc67cf13cf42d510a642c00cb80b8835656d9aa70fd78b924f2691c7f4986be",
    "fig4/manifest.json": "443c876b25365b51a737be679dbc62f86d72ebc3377201e2cfeaed0b3ac37b09",
    "fig4/modes_panel.csv": "1b0017e852a433a6caf6c8f54a3a2a6a0085d1c48b2ecaaab7e62b12a7302a63",
    "fig4/trigger_panel.csv": "ee83bcc18a151c9150b2d0025d3e29fdcb41c07049557ea1469e1e4dc41dea6c",
    "fig5/above_17_synthetic.csv": "ffa5db5e9067d88b332626671414b5c50bd675f02b86fb4d43d5030c0936138f",
    "fig5/above_17_theory.csv": "e737ed4df84c188557d3fe11dbdefbe3501c6e35aa684f2025d1a82fa0ff4527",
    "fig5/above_21_synthetic.csv": "bdd283d6c1e43f9dad9eceac08a230975b66c1d2a69cd8da22dce4ec4c748c9c",
    "fig5/above_21_theory.csv": "dcb9ecfb5dad716bcd973cba608646bfd4850c159db58acdc55d74e8a2c7b957",
    "fig5/below_10_synthetic.csv": "3bad6714484e6862e26238363081845589f82cf40703f5b5f80e50efee2537a3",
    "fig5/below_10_theory.csv": "9dcb054d858f06a07a8980015084394a2442ba62afd83f2dbed168d4da79778e",
    "fig5/below_15_synthetic.csv": "73688f302ca8a12d3005e76a250e3437de4d3938eef39d741534d8b6927c6fe7",
    "fig5/below_15_theory.csv": "a39b10d85e85b120b2f90722d0ec280c8b966fec5954961cdf5562042bf687d2",
    "fig5/exact_t13_synthetic.csv": "39041afbd7860941f88d3136341a360ea814e56304937ac1f7a6f0bd244afebb",
    "fig5/exact_t13_theory.csv": "34cebd70a0610b81b6d2d5834aa4b34787b32e79cfb6c0a1204659350d35fe4a",
    "fig5/exact_t19_synthetic.csv": "2b6ec7af67c8126105e2df615efb07188482680d1b312b0d70def504ad75443d",
    "fig5/exact_t19_theory.csv": "263df9be4fd1fa56e1ab4cfbad5b0551d239cbf32b658804a9f297444d4c2878",
    "fig5/manifest.json": "5e8a0e08fe8c63a47bb51ac8e726d763a2e1963a369f7ebfeb74ebf15f5b3d88",
    "fig5/means_synthetic.csv": "92609847fa11271b47125e2d743964f26765a692ebc83bcec5830f3825ee65ec",
    "fig5/means_theory.csv": "bc20eb9d415d0b6113f89220d35a8b8066129167abf068e18e3b3d0d8c3e03c3",
    "fig5/shots.csv": "0095255383d8c822f91d087f629cdbbe17fac773d6639acb9e3c8815b2d84ef9",
    "fig5/unconditioned_theory.csv": "b4a1af944eacf2307ba60dae8770cfd945f8b3bc7a40bb28a93826afb6afdf50",
}


def test_every_bundle_file_is_pinned(tmp_path):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(["reproduce", *FIGURE_IDS, "--outdir", str(tmp_path)]) == 0
    lines = [json.loads(line) for line in out.getvalue().splitlines()]
    assert [line["figure"] for line in lines] == list(FIGURE_IDS)
    got = {
        f"{p.parent.name}/{p.name}": _sha256(p.read_text())
        for p in sorted(tmp_path.glob("*/*"))
    }
    assert got == _BUNDLE_SHA256


MALFORMED = {
    "missing.csv": None,
    "header_only.csv": "s,t,p\n",
    "empty.csv": "",
    "non_integer.csv": "s,t\n1,2\n3,2.5\n",
    "short_row.csv": "s,t,p\n0,0,0.5\n1,0\n",
    "bad_value.csv": "s,p\n0,x\n",
    "negative.csv": "s,t,p\n-1,0,0.5\n",
    "broken.json": '{"probs": [[1, 2',
    "no_field.json": '{"schema": 1}\n',
    "not_object.json": "[1, 2]\n",
    "ragged.json": '{"probs": [[1], [1, 2]], "shots": [[1], [1, 2]]}\n',
    "fractional.json": '{"probs": "x", "shots": [[1, 2.5]]}\n',
    "scalar.json": '{"probs": 0.5, "shots": 5}\n',
    "cube.json": '{"probs": [[[0.5, 0.5]]], "shots": [[[1, 2]]]}\n',
    "blank_line.csv": "s,t\n1,2\n\n3,4\n",
    "whitespace_line.csv": "s,t,p\n0,0,0.5\n \t \n1,1,0.25\n",
    "comment.csv": "s,t\n1,2 # c\n",
    "int64_overflow.csv": "s,t\n9223372036854775808,1\n",
    "underscore.csv": "s,t\n1_0,2\n",
}

# the reader whose header a malformed CSV file has, and the rule it breaks
_CSV_REFUSALS = {
    "header_only.csv": ("read_table", "no rows under the header"),
    "negative.csv": ("read_table", "counts must be >= 0"),
    "short_row.csv": ("read_table", "every row needs 3 cells"),
    "blank_line.csv": ("read_record", "every row needs 2 cells"),
    "whitespace_line.csv": ("read_table", "every row needs 3 cells"),
    "non_integer.csv": ("read_record", "bad cell"),
    "bad_value.csv": ("read_table", "bad cell"),
    "comment.csv": ("read_record", "bad cell"),
    "int64_overflow.csv": ("read_record", "bad cell"),
    "underscore.csv": ("read_record", "bad cell"),
}


@pytest.mark.parametrize("name", sorted(MALFORMED))
@pytest.mark.parametrize("reader", ["read_table", "read_record"])
def test_malformed_files_name_their_path(tmp_path, name, reader):
    path = tmp_path / name
    if MALFORMED[name] is not None:
        path.write_text(MALFORMED[name])
    with pytest.raises(ParameterError, match=re.escape(str(path))):
        getattr(serialize, reader)(path)


def test_sparse_table_file_is_refused_before_allocating(tmp_path):
    path = tmp_path / "huge.csv"
    path.write_text("s,t,p\n100000,100000,0.5\n")
    with pytest.raises(TableSizeError):
        serialize.read_table(path)


@pytest.mark.parametrize("name", sorted(_CSV_REFUSALS))
def test_csv_refusals_name_the_rule(tmp_path, name):
    reader, rule = _CSV_REFUSALS[name]
    path = tmp_path / name
    path.write_text(MALFORMED[name])
    with pytest.raises(ParameterError, match=f"^{re.escape(f'{path}: {rule}')}"):
        getattr(serialize, reader)(path)


@pytest.mark.parametrize("count", ["1e30", "Infinity",
                                   pytest.param(str(2 * 10**308), id="int-beyond-float")])
def test_json_counts_beyond_int64_are_refused_without_a_warning(tmp_path, count):
    # the cast to int64 warned "invalid value encountered in cast" and wrapped
    # the count to -2**63, refused as a negative count
    path = tmp_path / "shots.json"
    path.write_text(f'{{"shots": [[{count}, 2]]}}')
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ParameterError, match=r"shot counts must be integers below 2\*\*63$"):
            serialize.read_record(path)


def test_bad_cell_names_its_line_in_the_file(tmp_path):
    # numpy counts rows from 0 under the header; the message counts file lines
    path = tmp_path / "shots.csv"
    for text, line in (("s,t\n3,4\n5,2.5\n", 3), ("\n\ns,t\n3,4\n5,2.5\n", 5)):
        path.write_text(text)
        with pytest.raises(ParameterError, match=f"'2.5' to int64 on line {line}, column 2"):
            serialize.read_record(path)


def test_unwritable_output_path_names_it(tmp_path):
    blocker = tmp_path / "f"
    blocker.write_text("")
    for path in (blocker / "x.csv", blocker / "sub" / "x.csv", tmp_path):
        with pytest.raises(ParameterError, match=f"^cannot write {re.escape(str(path))}: "):
            serialize.write_text(path, "text\n")
    with pytest.raises(ParameterError, match="cannot write"):
        serialize.resolve_output(blocker / "x.csv")
    assert blocker.read_text() == ""


def test_crlf_and_padded_cells_read_as_plain_ones(tmp_path):
    for reader, plain, padded in (
        ("read_table", b"s,t,p\n0,0,0.5\n1,1,0.25\n", b"s,t,p\r\n 0 ,0,\t0.5\r\n1, 1 ,0.25 \r\n"),
        ("read_record", b"s,t\n1,2\n3,4\n", b"s,t\r\n1 , 2\r\n\t3,4 \r\n"),
    ):
        (tmp_path / "plain.csv").write_bytes(plain)
        (tmp_path / "padded.csv").write_bytes(padded)
        read = getattr(serialize, reader)
        want, got = read(tmp_path / "plain.csv"), read(tmp_path / "padded.csv")
        if reader == "read_record":
            want, got = want.shots, got.shots
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


# probability cells, with zero, the smallest subnormal, other subnormals and
# tiny normals drawn often; counts up to 2**62, beyond any 32-bit path
_cell = st.one_of(
    st.sampled_from([0.0, 5e-324, 1e-310, 2.2250738585072014e-308, 1e-300, 1.0]),
    st.floats(0.0, 1.0),
)
_count = st.integers(0, 2**62)


@st.composite
def _tables(draw):
    n_s, n_t = draw(st.integers(1, 8)), draw(st.integers(1, 8))
    cells = draw(st.lists(_cell, min_size=n_s * n_t, max_size=n_s * n_t))
    return np.array(cells).reshape(n_s, n_t)


def _loose(cls, probs, **fields):
    """``cls`` holding any non-negative cells: a tol above their mass puts
    them inside the mass window."""
    return cls(probs=probs, tail_bound=1.0, tol=max(1.0, float(probs.sum())), **fields)


@given(
    shots=st.lists(st.tuples(_count, _count), min_size=1, max_size=40),
    table=_tables(),
    cells=st.lists(_cell, min_size=1, max_size=40),
    sweep_cells=st.lists(st.tuples(st.text("abc", min_size=1), *[st.floats()] * 5),
                         min_size=1, max_size=5),
)
@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_csv_writers_match_the_row_oracle_and_read_back_bit_for_bit(
    tmp_path, shots, table, cells, sweep_cells
):
    record = ShotRecord(np.array(shots, dtype=np.int64))
    joint = _loose(JointDistribution, table, params=None, symmetric=False)
    dist = _loose(PhotoCountDistribution, np.array(cells))
    rows = [SweepRow(*row) for row in sweep_cells]
    cases = (
        (record, "s,t", shots, serialize.read_record, lambda back: back.shots, record.shots),
        (joint, "s,t,p", ((s, t, p) for s, row in enumerate(table.tolist())
                          for t, p in enumerate(row)),
         serialize.read_table, lambda back: back, table),
        (dist, "s,p", enumerate(cells), serialize.read_table, lambda back: back, dist.probs),
        (rows, "axis,value,delta,delta_R,S_state,S_ref", sweep_cells, None, None, None),
    )
    for obj, header, oracle_rows, reader, arrays, want in cases:
        text = serialize.format_table(obj, "csv")
        assert text == csv_oracle(header, oracle_rows)
        if reader is not None:
            path = tmp_path / "file.csv"
            path.write_text(text)
            got = arrays(reader(path))
            assert got.dtype == want.dtype and got.shape == want.shape
            assert got.tobytes() == want.tobytes()


# small counts, counts up to 1e9, and counts around 2**62 and at 2**63 - 1,
# where a float on the way rounds them
_json_count = st.one_of(
    st.integers(0, 6), st.integers(0, 10**9), st.integers(2**62 - 3000, 2**62 + 3000),
    st.just(2**63 - 1),
)


@given(shots=st.lists(st.tuples(_json_count, _json_count), min_size=1, max_size=40))
@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_json_record_writer_matches_json_dumps_and_reads_back_bit_for_bit(tmp_path, shots):
    record = ShotRecord(np.array(shots, dtype=np.int64), meta={"seed": 3})
    text = serialize.format_table(record, "json")
    assert text == json.dumps({"schema": 1, "meta": {"seed": 3},
                               "shots": record.shots.tolist()}) + "\n"
    path = tmp_path / "shots.json"
    path.write_text(text)
    back = serialize.read_record(path)
    assert back.shots.dtype == record.shots.dtype and back.shots.shape == record.shots.shape
    assert back.shots.tobytes() == record.shots.tobytes()
    assert back.meta == {"seed": 3}


@pytest.mark.parametrize("shots", ['[["1", 2], [3, 4]]', "[[true, false], [1, 2]]",
                                   "[[2.0, true]]", '[[1, 2], [3, "4"]]'])
def test_json_string_and_boolean_counts_are_refused(tmp_path, shots):
    path = tmp_path / "shots.json"
    path.write_text(f'{{"shots": {shots}}}')
    with pytest.raises(ParameterError, match=f"^{re.escape(str(path))}: shot counts must be "
                                             "integers, not strings or booleans$"):
        serialize.read_record(path)


@pytest.mark.parametrize("probs", ['[["0.5", 0.5]]', "[[true, 0.0], [0.0, 0.0]]",
                                   '["0.25", 0.75]', "[false, 1.0]", '[[0.5, 0.5], [0.0, "0"]]'])
def test_json_string_and_boolean_probabilities_are_refused(tmp_path, probs):
    # np.asarray(..., dtype=float) parsed "0.5" and took true as 1.0
    path = tmp_path / "table.json"
    path.write_text(f'{{"probs": {probs}}}')
    with pytest.raises(ParameterError, match=f"^{re.escape(str(path))}: probabilities must be "
                                             "numbers, not strings or booleans$"):
        serialize.read_table(path)


@pytest.mark.parametrize("probs, rule", [
    (f"[[{2 * 10**308}, 0.5]]", "probabilities must be numbers within the float range"),
    (f"[{-2 * 10**308}, 0.5]", "probabilities must be >= 0"),
], ids=["positive", "negative"])
def test_json_probabilities_beyond_any_float_are_refused(tmp_path, probs, rule):
    # the cast to float raised OverflowError
    path = tmp_path / "table.json"
    path.write_text(f'{{"probs": {probs}}}')
    with pytest.raises(ParameterError, match=f"^{re.escape(f'{path}: {rule}')}$"):
        serialize.read_table(path)


def test_whole_json_float_counts_read_as_their_integers(tmp_path):
    path = tmp_path / "shots.json"
    path.write_text(f'{{"shots": [[2.0, {2**60 + 7}], [0.0, 1e3]]}}')
    assert serialize.read_record(path).shots.tolist() == [[2, 2**60 + 7], [0, 1000]]
    path.write_text(f'{{"shots": [[2.5, {2**60 + 7}]]}}')
    with pytest.raises(ParameterError, match="shot counts must be integers$"):
        serialize.read_record(path)


def test_a_wrong_header_is_quoted_to_40_characters(tmp_path):
    path = tmp_path / "shots.csv"
    record = sample_run(ExperimentParams(2.0, 0.5, 1.0), 200, seed=1)
    path.write_text(serialize.format_table(record, "json"))
    with pytest.raises(ParameterError) as info:
        serialize.read_record(path)
    assert f"header {serialize.format_table(record, 'json')[:40]!r} is not one of" in str(info.value)
    assert len(str(info.value)) < len(str(path)) + 100


@pytest.mark.parametrize("shots", [
    sample_run(ExperimentParams(200.0, 0.5, 5.0), 3000, seed=2).shots,  # pairs repeat
    np.indices((40, 50)).reshape(2, -1).T[::-1],  # every cell of the table once
    np.tile(np.indices((40, 25)).reshape(2, -1).T, (2, 1)),  # every cell twice
    np.array([[39, 0], [0, 49]] * 1000),  # a table as large as the record
    sample_run(ExperimentParams(1.0, 0.5, 1e4), 3000, seed=2).shots,  # a sparse table
    np.array([[2**63 - 1, 0], [0, 2**63 - 1]]),
], ids=["repeats", "every-cell-once", "every-cell-twice", "cells-equal-shots", "sparse",
        "int64-edges"])
def test_record_writers_format_per_pair_and_per_shot_alike(shots):
    # a table with no more cells than shots, each pair seen twice on average,
    # is formatted per pair, any other record per shot; both give the row
    # oracle's CSV and json.dumps' JSON
    record = ShotRecord(np.ascontiguousarray(shots, dtype=np.int64))
    rows = record.shots.tolist()
    assert serialize.format_table(record, "csv") == csv_oracle("s,t", rows)
    assert serialize.format_table(record, "json") == json.dumps(
        {"schema": 1, "meta": {}, "shots": rows}) + "\n"
