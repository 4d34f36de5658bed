import contextlib
import hashlib
import io
import json
import re

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
# within 6e-15 (S_state = S_ref - delta).
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
    ("joint", "csv"): "86aa2218b2a7876af4e51c238c1c5a7b822965bf81bfbc2035a6124f248e43f9",
    ("joint", "json"): "453baebfd18811561ca7dfa6676f2e21ef1bfff3fba3c5e076ce04ca581e0a2a",
    ("marginal", "csv"): "5cd680a786672a100685220217c54048c0f3a4ccd35158a57e21639353c8b8d1",
    ("marginal", "json"): "a9ad29ede1d0dd36c6431fbf65d84f1507fd25533ca69155553913a037e40125",
    ("conditional", "csv"): "fb39fab95d078cbba82f735c357a7b43171d574b56c99f9991e4a28b0b13cb20",
    ("conditional", "json"): "6543d776f0de483a86db153f0f7eaa570ec56b98316a099fb18a960ce2246b35",
    ("sample", "csv"): "5792b46ae258dfaa29f52bbdf9c4ac7fb13c330f23ee3c02847ca4d6e744f087",
    ("sample", "json"): "4a004e0b13b68bc9feb8b02b9591ea1b66c701f6fcf547cd692a1f2d0a57a76a",
    ("sweep", "csv"): "0661fb74961372e8bfec5afc8a93c0df658326f010c33bdcb79a3483190ddffc",
    ("sweep", "json"): "e3b341d4798133f55b7d0c46d21c392734de663aabd188ba4d9f404f3cd5d3c4",
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
        "joint.csv": "70c88859abe0ff628258d24be878468ba7889cf40ce24166bbae9ef3740b08fe",
        "manifest.json": "3517955b5ea20dbd92f20e5adbb15711e93ccb37f83eab2f53fe4e31426c6d68",
    }


# SHA-256 of every file of the five bundles at the default seed and tol.  The
# sampled files (shots.csv, means_synthetic.csv and the *_synthetic.csv of
# fig3 and fig5) follow the sampler's per-version stream: a change of the
# sampler re-pins them and says so.
_BUNDLE_SHA256 = {
    "fig2a/joint.csv": "82e31cd5ce633ea5630e3c9f2ade331f5944c58b3c67260fb8a3cae3e1ff2c2f",
    "fig2a/manifest.json": "e0af4f056fdd82babdb3ad365b4109aaeb23c80c1046135e4e3c88077e45f9bb",
    "fig2b/joint.csv": "71a7ef07ebd66ab7db4c841a67e13aa310b8334f7f2cfb0cf1bf7ed1a0ed7753",
    "fig2b/manifest.json": "e93f7d7d6e53f18a3da3cd42b3f4564ab498a1a38844a2351ed9c045fcaa1643",
    "fig3/above_11_synthetic.csv": "ff74fdd71d19a1d1b00313c2c6312b097561692a3c6329f1ac0fbcf9c69e15a6",
    "fig3/above_11_theory.csv": "08adcff062e420c0554f2b9827975cf71616d199bcb7d7f0d3b1673b9cd3544c",
    "fig3/above_17_synthetic.csv": "ad5cd23d33ad4bc63f90eb3294f1741ee409f330b3b5d10c3f9f95b4162893b4",
    "fig3/above_17_theory.csv": "812dba2526b5c253475584d3302202622c9257823c081c05b2bdc643f927e423",
    "fig3/below_15_synthetic.csv": "516726afb21f635de63fec4a7ff24fd6bfe84a71a489a81f5ed05b15279d1855",
    "fig3/below_15_theory.csv": "3d33d9cb95098091970b2405deb4c82a64c7858108b643d4cea6d002b4d465f8",
    "fig3/below_8_synthetic.csv": "264c859e784ba2ec9aa5a32a36f008c26c8618c2cc5ba8e1a811be2da8a14492",
    "fig3/below_8_theory.csv": "5498dd15ce0d69ce9d9b8880ebb57d65e6d4984ed8196787d304e7ed9eebb3a9",
    "fig3/exact_t10_synthetic.csv": "4608d3a6a60e5002d28e01a80c024adc24fcd4515b4944e307a442a3cf89d7d9",
    "fig3/exact_t10_theory.csv": "736cac305ecf758e4009652d8e4b09cd08e53ad7f1172e25a2848b25e5e043c1",
    "fig3/exact_t15_synthetic.csv": "a22ebdad6e407ad0e31653c0cc3d01b5ecf2f1784067a4a2a5aa09129e2490f3",
    "fig3/exact_t15_theory.csv": "8b5cc04dbf177548f66d4efc4da03a815f0273435ae4a69c5f75b0b7f2fa9723",
    "fig3/manifest.json": "fdd05ed173c084665fb414c521dbb8b04acbc35d070a549ad3a33a5362c7bb31",
    "fig3/means_synthetic.csv": "b5d89b8d671b702f4c3f67623b60d7d6e39a9f0a588bcd705da4355cc3b5bb5c",
    "fig3/means_theory.csv": "e6e4ff622e1fe0f3c86d4f6aef07ff02bd9369b568eaaeeb05a1ed97286bd1f4",
    "fig3/shots.csv": "f821e2c55afc773f960778ce54f0ea775ffdc00cc47fb413f7a21d35a77bb95a",
    "fig3/unconditioned_theory.csv": "9ac341b9fc9405aa38e4ddf72a93aae96a6251bac94751f105eca242b804f367",
    "fig4/efficiency_panel.csv": "96be4d2341f5b7a59a4b98485857c8095414be3c6b66eb660fbaa339f7c40912",
    "fig4/energy_panel.csv": "e771a7c686a42ee5e25fb5e9eae72d3bdfec9630ecfb2dbf5427f6d25d46ee32",
    "fig4/manifest.json": "443c876b25365b51a737be679dbc62f86d72ebc3377201e2cfeaed0b3ac37b09",
    "fig4/modes_panel.csv": "9802ebbbbe6e46785b6daa07d9d1d7694c821b247f68b66314318d935615e996",
    "fig4/trigger_panel.csv": "2967741c8a0a3d6a589713d7225a274de3edbc606fb669041839838f10c5d70e",
    "fig5/above_17_synthetic.csv": "ffa5db5e9067d88b332626671414b5c50bd675f02b86fb4d43d5030c0936138f",
    "fig5/above_17_theory.csv": "1f3acd5d840a37e40005790dbcf96858bce2203b1289be54d930269d78c31b8c",
    "fig5/above_21_synthetic.csv": "bdd283d6c1e43f9dad9eceac08a230975b66c1d2a69cd8da22dce4ec4c748c9c",
    "fig5/above_21_theory.csv": "fd5525d5fbd4f850c78fab5567cbaec3ed5c72b5bf27f143ee0276f6f7a2d760",
    "fig5/below_10_synthetic.csv": "3bad6714484e6862e26238363081845589f82cf40703f5b5f80e50efee2537a3",
    "fig5/below_10_theory.csv": "9390f44843fb16ea3f6d3db22300c95be997373e24fbde1fbe2be024af92b53d",
    "fig5/below_15_synthetic.csv": "73688f302ca8a12d3005e76a250e3437de4d3938eef39d741534d8b6927c6fe7",
    "fig5/below_15_theory.csv": "e31941c8384b0c8026439e7cb023e07a239f031684f09eaadab9c927cffd5b2b",
    "fig5/exact_t13_synthetic.csv": "39041afbd7860941f88d3136341a360ea814e56304937ac1f7a6f0bd244afebb",
    "fig5/exact_t13_theory.csv": "f6324ef51aaf6e57feca02b5200cdad8bb670a56dbe9485c99339026c4162c7d",
    "fig5/exact_t19_synthetic.csv": "2b6ec7af67c8126105e2df615efb07188482680d1b312b0d70def504ad75443d",
    "fig5/exact_t19_theory.csv": "9e2f70887c496abb4c2eea584f0efbb6b2393b1ea78f66feb615ebe4abd28ce5",
    "fig5/manifest.json": "5e8a0e08fe8c63a47bb51ac8e726d763a2e1963a369f7ebfeb74ebf15f5b3d88",
    "fig5/means_synthetic.csv": "92609847fa11271b47125e2d743964f26765a692ebc83bcec5830f3825ee65ec",
    "fig5/means_theory.csv": "7a14a4fac385623999ca1d1d18a24fae7e2d2c999db1a910d0cc3df77d1a2423",
    "fig5/shots.csv": "0095255383d8c822f91d087f629cdbbe17fac773d6639acb9e3c8815b2d84ef9",
    "fig5/unconditioned_theory.csv": "ab5e223cabb3c6d08c66c7a32fed3426697f58d13218ce993c35c7724d534c6f",
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
