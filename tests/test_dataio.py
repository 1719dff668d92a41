"""Tests for CSV ingestion, manifests, fixtures, and the prediction workflow."""

import dataclasses
import hashlib
import json
import math
from dataclasses import asdict
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from rednw import dataio
from rednw.dataio import (
    Dataset,
    RunManifest,
    WorkflowResult,
    json_text,
    load_csv,
    load_test_rows,
    run_predict_workflow,
    sha256_file,
    simulation_plan_from_config,
    synthetic_shellfish,
    write_table,
)
from rednw.errors import ArgumentError, DataError
from rednw.npregress import BandwidthRule, NWBatch
from rednw.reduction import oracle_basis


def write_csv(path, text):
    path.write_text(text)
    return path


@pytest.fixture
def small_csv(tmp_path):
    return write_csv(
        tmp_path / "small.csv",
        "a,b,y\n1.0,2.0,3.0\n4.0,5.0,6.0\n7.0,8.0,9.0\n",
    )


@pytest.fixture
def shellfish_csv(tmp_path):
    header, rows = synthetic_shellfish()
    path = tmp_path / "shellfish.csv"
    write_table(path, header, rows)
    return path


LOG_ALL = [
    ("length", "log"),
    ("width", "log"),
    ("height", "log"),
    ("shell_mass", "log"),
    ("muscle_mass", "log"),
]


class TestLoadCsv:
    def test_three_row_file(self, small_csv):
        ds = load_csv(small_csv, response_col="y")
        assert ds.n == 3 and ds.p == 2
        assert list(ds.column_names) == ["a", "b"]
        np.testing.assert_allclose(ds.Y, [3.0, 6.0, 9.0])
        np.testing.assert_allclose(ds.X[:, 1], [2.0, 5.0, 8.0])

    def test_missing_response_column(self, small_csv):
        with pytest.raises(DataError) as exc:
            load_csv(small_csv, response_col="z")
        assert "z" in str(exc.value)

    def test_non_numeric_cell_addressed(self, tmp_path):
        path = write_csv(tmp_path / "bad.csv", "a,y\n1.0,2.0\noops,3.0\n5.0,6.0\n")
        with pytest.raises(DataError) as exc:
            load_csv(path, response_col="y")
        msg = str(exc.value)
        assert "row 2" in msg and "a" in msg

    def test_ragged_row_addressed(self, tmp_path):
        path = write_csv(tmp_path / "ragged.csv", "a,y\n1.0,2.0\n3.0\n")
        with pytest.raises(DataError) as exc:
            load_csv(path, response_col="y")
        assert "row 2" in str(exc.value)

    def test_log_of_nonpositive_names_row(self, tmp_path):
        path = write_csv(tmp_path / "lg.csv", "a,y\n2.0,1.0\n0.0,2.0\n3.0,4.0\n")
        with pytest.raises(DataError) as exc:
            load_csv(path, response_col="y", transforms=[("a", "log")])
        msg = str(exc.value)
        assert "row 2" in msg and "log" in msg

    def test_log_transform_applied(self, small_csv):
        ds = load_csv(small_csv, response_col="y", transforms=[("a", "log")])
        np.testing.assert_allclose(ds.X[:, 0], np.log([1.0, 4.0, 7.0]), rtol=1e-15)

    def test_center_records_training_shift(self, small_csv):
        ds = load_csv(small_csv, response_col="y", transforms=[("b", "center")])
        np.testing.assert_allclose(ds.X[:, 1], [-3.0, 0.0, 3.0])
        assert dict(ds.center_shifts)["b"] == 5.0

    def test_skip_bad_rows(self, tmp_path):
        path = write_csv(
            tmp_path / "mixed.csv", "a,y\n1.0,2.0\nbad,3.0\n5.0,6.0\n7.0,8.0\n"
        )
        ds = load_csv(path, response_col="y", skip_bad_rows=True)
        assert ds.n == 3
        assert ds.n_dropped == 1
        assert list(ds.dropped_rows) == [2]

    def test_too_few_usable_rows(self, tmp_path):
        path = write_csv(tmp_path / "tiny.csv", "a,y\n1.0,2.0\n")
        with pytest.raises(DataError):
            load_csv(path, response_col="y")

    def test_unknown_transform_rejected(self, small_csv):
        # a bad operation name is a caller mistake, not malformed data
        with pytest.raises(ArgumentError):
            load_csv(small_csv, response_col="y", transforms=[("a", "sqrt")])

    @pytest.mark.parametrize("chain", [[("a", "log"), ("a", "log")],
                                       [("a", "center"), ("a", "log")]])
    def test_log_after_another_transform_rejected(self, tmp_path, chain):
        """Checked before any row is read: the bad cell below is never reached."""
        path = write_csv(tmp_path / "c.csv", "a,y\n2.0,1.0\noops,2.0\n0.5,3.0\n")
        with pytest.raises(ArgumentError, match="column 'a'"):
            load_csv(path, response_col="y", transforms=chain)

    def test_none_before_log_allowed(self, small_csv):
        ds = load_csv(small_csv, response_col="y", transforms=[("a", "none"), ("a", "log")])
        np.testing.assert_allclose(ds.X[:, 0], np.log([1.0, 4.0, 7.0]), rtol=1e-15)

    def test_skip_bad_rows_before_center(self, tmp_path):
        """Rows a log cannot take and rows that do not parse are dropped
        before any center, so the means come from the kept rows."""
        path = write_csv(tmp_path / "m.csv", "a,b,y\n1.0,2.0,1.0\n-1.0,100.0,2.0\n"
                                             "4.0,6.0,3.0\nx,7.0,4.0\n9.0,10.0,5.0\n")
        ds = load_csv(path, response_col="y", transforms=[("b", "center"), ("a", "log")],
                      skip_bad_rows=True)
        assert ds.dropped_rows == (2, 4) and ds.n_dropped == 2
        assert ds.center_shifts == (("b", 6.0),)
        np.testing.assert_array_equal(ds.X, [[0.0, -4.0], [np.log(4.0), 0.0], [np.log(9.0), 4.0]])

    def test_transform_on_unknown_column(self, small_csv):
        with pytest.raises(DataError):
            load_csv(small_csv, response_col="y", transforms=[("q", "log")])

    def test_missing_file(self, tmp_path):
        with pytest.raises(DataError):
            load_csv(tmp_path / "absent.csv", response_col="y")

    @pytest.mark.parametrize("header", ["a,a,y", "a,y,a", " a,a ,y", "a,y,y"])
    def test_repeated_column_rejected(self, tmp_path, header):
        """A repeated name would map every copy to the last column."""
        path = write_csv(tmp_path / "dup.csv", header + "\n1,10,1\n2,20,2\n3,35,3.5\n")
        name = "y" if header.endswith("y,y") else "a"
        with pytest.raises(DataError, match=f"column '{name}' appears more than once"):
            load_csv(path, response_col="y")


class TestTestRows:
    def test_reordered_columns_accepted(self, small_csv, tmp_path):
        ds = load_csv(small_csv, response_col="y")
        path = write_csv(tmp_path / "t.csv", "b,a\n20.0,10.0\n")
        rows = load_test_rows(path, ds)
        np.testing.assert_allclose(rows, [[10.0, 20.0]])

    def test_training_transforms_reapplied(self, small_csv, tmp_path):
        ds = load_csv(
            small_csv,
            response_col="y",
            transforms=[("a", "log"), ("b", "center")],
        )
        path = write_csv(tmp_path / "t.csv", "a,b\n2.0,7.0\n")
        rows = load_test_rows(path, ds)
        # center uses the training mean (5.0), not the test mean
        np.testing.assert_allclose(rows, [[np.log(2.0), 2.0]])

    @pytest.mark.parametrize("chain", [
        [("b", "center"), ("b", "center")],
        [("a", "log"), ("a", "center"), ("b", "center"), ("a", "center")],
        [("y", "log"), ("y", "center"), ("b", "center")],
    ], ids=["double-center", "log-then-centers", "response-centered"])
    def test_training_rows_reload_as_training_x(self, tmp_path, chain):
        """Test rows replay every recorded shift in order, so the training
        predictors read back as test rows give the training X bit for bit."""
        path = write_csv(tmp_path / "tr.csv", "a,b,y\n1.5,-20.0,3.0\n4.0,10.0,6.0\n"
                                              "7.25,40.0,9.0\n0.5,0.1,2.0\n")
        ds = load_csv(path, response_col="y", transforms=chain)
        assert len(ds.center_shifts) == sum(op == "center" for _, op in chain)
        test = write_csv(tmp_path / "t.csv", "b,a\n-20.0,1.5\n10.0,4.0\n40.0,7.25\n0.1,0.5\n")
        np.testing.assert_array_equal(load_test_rows(test, ds), ds.X)

    def test_empty_body_gives_zero_rows(self, small_csv, tmp_path):
        ds = load_csv(small_csv, response_col="y")
        path = write_csv(tmp_path / "t.csv", "a,b\n")
        rows = load_test_rows(path, ds)
        assert rows.shape == (0, 2)

    def test_repeated_column_rejected(self, small_csv, tmp_path):
        """The set of names matches the predictors', yet 'a' comes twice."""
        ds = load_csv(small_csv, response_col="y")
        path = write_csv(tmp_path / "t.csv", "a,b,a\n1.0,2.0,3.0\n")
        with pytest.raises(DataError, match="column 'a' appears more than once"):
            load_test_rows(path, ds)

    def test_missing_predictor_rejected(self, small_csv, tmp_path):
        ds = load_csv(small_csv, response_col="y")
        path = write_csv(tmp_path / "t.csv", "a\n1.0\n")
        with pytest.raises(DataError):
            load_test_rows(path, ds)

    @pytest.mark.parametrize("cell", ["nan", "inf", "-inf"])
    def test_non_finite_cell_addressed(self, small_csv, tmp_path, cell):
        ds = load_csv(small_csv, response_col="y")
        path = write_csv(tmp_path / "t.csv", f"a,b\n1.0,1.0\n2.0,{cell}\n")
        with pytest.raises(DataError, match=f"row 2, column 'b': non-finite value '{cell}'"):
            load_test_rows(path, ds)

    def test_nonpositive_log_value_addressed(self, small_csv, tmp_path):
        ds = load_csv(small_csv, response_col="y", transforms=[("a", "log")])
        path = write_csv(tmp_path / "t.csv", "a,b\n1.0,1.0\n-2.0,1.0\n")
        with pytest.raises(DataError) as exc:
            load_test_rows(path, ds)
        assert "row 2" in str(exc.value)


def read_both_paths(path, transforms=()):
    """The body's matrix from the C-tokenized read, with the per-row parser
    made to fail so that a fallback cannot hide, and from the per-row read."""
    with dataio._open_csv(path, "input") as (header, fh), \
            mock.patch.object(dataio, "_parse_row", side_effect=AssertionError("per-row path")):
        fast, dropped = dataio._read_body(path, fh, header, transforms)
    assert dropped == []
    with dataio._open_csv(path, "input") as (header, fh):
        slow, _ = dataio._read_rows(path, fh, header, transforms)
    return fast, slow


POSITIVE = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)


@st.composite
def cell_texts(draw):
    """A positive float as a CSV cell: repr, %.17g, a leading +, an integral
    value as "1.", each padded with blanks and tabs or not."""
    v = draw(POSITIVE)
    forms = [repr(v), "%.17g" % v, "+" + repr(v)]
    if v.is_integer() and v < 2.0 ** 53:
        forms.append("%d." % v)
    pad = st.text(" \t", max_size=2)
    return v, draw(pad) + draw(st.sampled_from(forms)) + draw(pad)


@st.composite
def clean_tables(draw):
    """(values, CSV text) of one to twelve rows of one to four positive
    columns, lines ending in \n or \r\n, with empty lines anywhere in the body."""
    m, p = draw(st.integers(1, 12)), draw(st.integers(1, 4))
    end = draw(st.sampled_from(["\n", "\r\n"]))
    cells = [[draw(cell_texts()) for _ in range(p)] for _ in range(m)]
    lines = [",".join(f"c{j}" for j in range(p))]
    for row in cells:
        lines += [""] * draw(st.integers(0, 2)) + [",".join(text for _, text in row)]
    last = end if draw(st.booleans()) else ""
    return np.array([[v for v, _ in row] for row in cells]), end.join(lines) + last


class TestReadPaths:
    """A body is parsed once by np.loadtxt, and row by row only where that
    parse cannot be taken as it is; both give the same matrix or the same
    DataError."""

    @settings(max_examples=200, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(table=clean_tables(), log=st.booleans())
    def test_clean_tables_bit_identical(self, tmp_path, table, log):
        values, text = table
        path = tmp_path / "t.csv"
        path.write_bytes(text.encode())
        transforms = [(f"c{j}", "log") for j in range(values.shape[1])] if log else []
        fast, slow = read_both_paths(path, transforms)
        assert fast.tobytes() == slow.tobytes() == values.tobytes()

    def test_large_clean_table_skips_the_row_parser(self, tmp_path, monkeypatch):
        """2,000 rows, training and test, without one call of _parse_row."""
        rng = np.random.default_rng(4)
        values = np.exp(rng.standard_normal((2000, 3)))
        path, test = tmp_path / "big.csv", tmp_path / "big_test.csv"
        write_table(path, ["a", "b", "y"], values)
        write_table(test, ["b", "a"], values[:, [1, 0]])
        monkeypatch.setattr(dataio, "_parse_row", mock.Mock(side_effect=AssertionError))
        ds = load_csv(path, response_col="y", transforms=[("a", "log")])
        np.testing.assert_array_equal(ds.X, np.column_stack([np.log(values[:, 0]), values[:, 1]]))
        np.testing.assert_array_equal(ds.Y, values[:, 2])
        np.testing.assert_array_equal(load_test_rows(test, ds), ds.X)

    @pytest.mark.parametrize("cell, value", [("1_0", 10.0), ('"1.5"', 1.5), ("١", 1.0),
                                             (" 2 ", 2.0)],
                             ids=["underscore", "quoted", "arabic-indic", "padded"])
    def test_cells_only_float_reads(self, tmp_path, cell, value):
        """Cells loadtxt rejects and float() or the csv reader accept; the
        per-row read gives what it always gave. The last one is read by both."""
        path = write_csv(tmp_path / "c.csv", f"a,y\n{cell},2.0\n3.0,4.0\n")
        ds = load_csv(path, response_col="y")
        np.testing.assert_array_equal(ds.X, [[value], [3.0]])
        np.testing.assert_array_equal(ds.Y, [2.0, 4.0])

    @pytest.mark.parametrize("body, message", [
        ("1.0,2.0,\n3.0,4.0\n", "row 1 has 3 cells, header has 2"),
        ("1.0,2.0\n3.0\n", "row 2 has 1 cells, header has 2"),
        ("1.0,2.0\n\nnan,4.0\n", "row 3, column 'a': non-finite value 'nan'"),
        ("1.0,inf\n3.0,4.0\n", "row 1, column 'y': non-finite value 'inf'"),
        ("1.0,2.0\n 1e400,4.0\n", "row 2, column 'a': non-finite value '1e400'"),
        ("1.0,2.0\n0.0,4.0\n", "row 2, column 'a': log of non-positive value 0.0"),
        ("1.0,2.0\n3.0,oops\n", "row 2, column 'y': cannot parse 'oops' as a number"),
        ("", "need at least 2 usable rows, got 0"),
        ("\n\r\n  \n", "need at least 2 usable rows, got 0"),
    ], ids=["trailing-comma", "ragged", "nan", "inf", "overflow", "log-of-zero", "word",
            "empty-body", "blank-body"])
    def test_bad_bodies_keep_their_messages(self, tmp_path, body, message):
        path = write_csv(tmp_path / "b.csv", "a,y\n" + body)
        with pytest.raises(DataError) as exc:
            load_csv(path, response_col="y", transforms=[("a", "log")])
        assert str(exc.value) == f"{path}: {message}"

    def test_skip_bad_rows_drops_on_the_row_path(self, tmp_path):
        path = write_csv(tmp_path / "s.csv", "a,y\n1.0,2.0\n\n1_0,3.0\n-1.0,4.0\n"
                                             "x,5.0\n6.0,nan\n7.0,8.0\n")
        ds = load_csv(path, response_col="y", transforms=[("a", "log")], skip_bad_rows=True)
        assert ds.dropped_rows == (4, 5, 6) and ds.n_dropped == 3
        np.testing.assert_array_equal(ds.X, np.log([[1.0], [10.0], [7.0]]))
        np.testing.assert_array_equal(ds.Y, [2.0, 3.0, 8.0])

    def test_test_rows_fall_back(self, small_csv, tmp_path):
        """A test file with a quoted cell reads row by row; an empty body,
        blank lines only, is a 0-row matrix without a loadtxt warning."""
        ds = load_csv(small_csv, response_col="y", transforms=[("a", "log")])
        quoted = write_csv(tmp_path / "q.csv", 'b,a\n"5.0",4.0\n')
        np.testing.assert_array_equal(load_test_rows(quoted, ds), [[np.log(4.0), 5.0]])
        blank = write_csv(tmp_path / "e.csv", "a,b\n\n\n")
        assert load_test_rows(blank, ds).shape == (0, 2)


class TestTableWriter:
    def test_float_round_trip_17_digits(self, tmp_path):
        rng = np.random.default_rng(23)
        values = list(rng.standard_normal(30)) + [1.0 / 3.0, 0.1, 2.0**-52]
        path = tmp_path / "vals.csv"
        write_table(path, ["v"], [[v] for v in values])
        back = [float(line) for line in path.read_text().splitlines()[1:]]
        assert back == values  # exact equality, shortest round-trip repr

    def test_none_becomes_empty_field(self, tmp_path):
        path = tmp_path / "n.csv"
        write_table(path, ["a", "b"], [[1.5, None]])
        assert path.read_text().splitlines()[1] == "1.5,"

    def test_cell_types(self, tmp_path):
        path = tmp_path / "t.csv"
        write_table(path, list("abcdefghi"), [[1.5, np.float64(0.1), np.float32(0.5), True,
                                               np.bool_(False), 3, np.int64(4), None, "x"]])
        assert path.read_text().splitlines()[1] == "1.5,0.1,0.5,True,False,3,4,,x"

    def test_sha256_matches_hashlib(self, tmp_path):
        path = tmp_path / "x.bin"
        path.write_bytes(b"digest me")
        assert sha256_file(path) == hashlib.sha256(b"digest me").hexdigest()


class TestSyntheticFixture:
    def test_shape_and_schema(self):
        header, rows = synthetic_shellfish()
        assert header == ["length", "width", "height", "shell_mass", "muscle_mass"]
        assert len(rows) == 79
        assert all(len(r) == 5 for r in rows)

    def test_deterministic(self):
        _, a = synthetic_shellfish()
        _, b = synthetic_shellfish()
        assert a == b

    def test_all_positive_for_log_scale(self):
        _, rows = synthetic_shellfish()
        assert min(min(r) for r in rows) > 0.0

    def test_size_drives_masses(self):
        """One latent size factor: shell and muscle masses co-vary strongly."""
        _, rows = synthetic_shellfish()
        arr = np.asarray(rows)
        corr = np.corrcoef(np.log(arr[:, 3]), np.log(arr[:, 4]))[0, 1]
        assert corr > 0.7


class TestManifest:
    def test_round_trip(self, tmp_path):
        m = RunManifest(
            tool_version="0.1.0",
            command="simulate",
            config={"model": 1, "ns": [80]},
            seeds={"base_seed": 7},
            input_digests={},
            outputs=("emse.csv",),
        )
        path = tmp_path / "manifest.json"
        m.to_json_file(path)
        back = RunManifest.from_json_file(path)
        assert back == m

    def test_missing_key_rejected(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text(json.dumps({"command": "simulate"}))
        with pytest.raises(DataError):
            RunManifest.from_json_file(path)

    def test_simulation_plan_from_config(self):
        config = {
            "model": 1,
            "seed": 3,
            "ns": [80, 120],
            "n_rep": 4,
            "methods": ["np", "nprt"],
            "nprt_reduction": "pls",
            "bandwidth": {"kind": "power_rule", "constant": 5.0,
                          "exponent_dim": "ambient_p"},
            "test_points": [[0.0] * 6, [0.5] * 6],
        }
        plan = simulation_plan_from_config(config)
        assert plan.ns == (80, 120)
        assert plan.test_points.shape == (2, 6)
        assert [m.label for m in plan.methods] == ["NP", "NPRT"]
        assert plan.bandwidth_rule.constant == 5.0
        # a config without the experiment keys asks for neither experiment
        assert (plan.equivalence, plan.coverage, plan.coverage_level) == (False, False, 0.95)

    @pytest.mark.parametrize(
        "rule",
        [
            BandwidthRule(kind="power_rule", constant=5.0),
            BandwidthRule(kind="power_rule", constant=2.0, exponent_dim="reduced_d",
                          exponent=0.3),
            BandwidthRule(kind="fixed", h_fixed=0.5),
            BandwidthRule(kind="loocv", cv_grid=(0.25, 0.5, 1.0)),
        ],
        ids=["power_rule", "undersmoothed", "fixed", "loocv"],
    )
    def test_bandwidth_block_round_trip(self, rule):
        """A manifest's bandwidth block is asdict(rule), read back as is."""
        assert BandwidthRule(**asdict(rule)) == rule
        assert BandwidthRule(**json.loads(json_text(asdict(rule)))) == rule

    def test_unknown_bandwidth_key_rejected(self):
        config = {
            "model": 1, "seed": 3, "ns": [80], "n_rep": 4, "methods": ["np"],
            "bandwidth": {"kind": "power_rule", "constant": 5.0, "bandwith": 1.0},
            "test_points": [[0.0] * 6],
        }
        with pytest.raises(DataError, match="bandwith"):
            simulation_plan_from_config(config)


def points_of(wf):
    """Each query row's object in the points file, read from the batch's
    columns: x0 with the row's numbers and h, or with its error."""
    b, out = wf.batch, []
    for i, x0 in enumerate(wf.X0.tolist()):
        if not b.ok[i]:
            out.append({"x0": x0, "error": b.errors[i]})
            continue
        out.append({"x0": x0, "eta_hat": float(b.eta_hat[i]), "ci_lo": float(b.ci_lo[i]),
                    "ci_hi": float(b.ci_hi[i]), "f_hat": float(b.f_hat[i]),
                    "sigma2_hat": float(b.sigma2_hat[i]), "h": float(b.h)})
    return out


def plot_rows_of(wf):
    """Each query row's (fitted, observed, ci_lo, ci_hi) in the plot file;
    None for a failed row's numbers and for observed out of sample."""
    b = wf.batch
    observed = [None] * len(b) if wf.observed is None else wf.observed.tolist()
    return [(float(b.eta_hat[i]), o, float(b.ci_lo[i]), float(b.ci_hi[i])) if b.ok[i]
            else (None, o, None, None) for i, o in enumerate(observed)]


class TestPredictWorkflow:
    def test_in_sample_plot_rows(self, shellfish_csv):
        ds = load_csv(shellfish_csv, response_col="muscle_mass", transforms=LOG_ALL)
        res = run_predict_workflow(ds, method="pls", d=1)
        assert len(points_of(res)) == ds.n
        rows = plot_rows_of(res)
        assert len(rows) == ds.n
        fitted, observed, lo, hi = rows[0]
        assert observed == ds.Y[0]
        assert lo <= fitted <= hi
        assert res.n_failed == 0

    def test_out_of_sample_has_no_observed(self, shellfish_csv):
        ds = load_csv(shellfish_csv, response_col="muscle_mass", transforms=LOG_ALL)
        res = run_predict_workflow(ds, method="pls", d=1, test_rows=ds.X[:3])
        rows = plot_rows_of(res)
        assert len(rows) == 3
        assert all(row[1] is None for row in rows)

    def test_reduced_intervals_narrower_than_full(self, shellfish_csv):
        """One fitted index gives tighter intervals than smoothing in all four
        predictor dimensions at comparable bandwidth rules."""
        ds = load_csv(shellfish_csv, response_col="muscle_mass", transforms=LOG_ALL)
        rule = BandwidthRule(
            kind="power_rule", constant=1.0, exponent_dim="reduced_d"
        )
        res_pls = run_predict_workflow(ds, method="pls", d=1, bandwidth_rule=rule)
        res_np = run_predict_workflow(ds, method="np", bandwidth_rule=rule)
        assert res_pls.n_failed == 0 and res_np.n_failed == 0
        w_pls = np.median(res_pls.batch.ci_hi - res_pls.batch.ci_lo)
        w_np = np.median(res_np.batch.ci_hi - res_np.batch.ci_lo)
        assert w_pls < w_np

    def test_identity_basis_matches_full_dimension_fit(self, shellfish_csv):
        ds = load_csv(shellfish_csv, response_col="muscle_mass", transforms=LOG_ALL)
        rule = BandwidthRule(kind="fixed", h_fixed=0.8)
        res_np = run_predict_workflow(ds, method="np", bandwidth_rule=rule)
        identity = oracle_basis(np.eye(ds.p))
        res_file = run_predict_workflow(
            ds, bandwidth_rule=rule, precomputed_basis=identity, d=ds.p
        )
        assert res_np.batch.ok.all()
        np.testing.assert_array_equal(res_np.batch.eta_hat, res_file.batch.eta_hat)
        np.testing.assert_array_equal(res_np.batch.ci_lo, res_file.batch.ci_lo)

    def test_empty_test_set(self, shellfish_csv):
        ds = load_csv(shellfish_csv, response_col="muscle_mass", transforms=LOG_ALL)
        res = run_predict_workflow(ds, method="pls", d=1, test_rows=np.zeros((0, 4)))
        assert len(res.batch) == 0 and points_of(res) == [] and plot_rows_of(res) == []

    def test_far_test_row_carries_error_marker(self, shellfish_csv):
        ds = load_csv(shellfish_csv, response_col="muscle_mass", transforms=LOG_ALL)
        rule = BandwidthRule(kind="fixed", h_fixed=0.3)
        far = np.full((1, 4), 80.0)
        res = run_predict_workflow(
            ds, method="pls", d=1, bandwidth_rule=rule, test_rows=far
        )
        assert res.n_failed == 1
        assert "error" in points_of(res)[0]

    def test_precomputed_basis_used(self, shellfish_csv):
        ds = load_csv(shellfish_csv, response_col="muscle_mass", transforms=LOG_ALL)
        basis = oracle_basis([[1.0, 0.0, 0.0, 0.0]])
        res = run_predict_workflow(ds, precomputed_basis=basis)
        assert not np.array_equal(res.batch.eta_hat, run_predict_workflow(ds).batch.eta_hat)


PLOT_HEADER = ["fitted", "observed", "ci_lo", "ci_hi"]


def assert_run_files_exact(wf, path):
    """The run-file writers against json_text and write_table, byte for byte."""
    chunks = list(wf.run_file_chunks())
    assert "".join(text for text, _ in chunks) == json_text(points_of(wf))
    write_table(path, PLOT_HEADER, plot_rows_of(wf))
    assert "".join(rows for _, rows in chunks).encode() == path.read_bytes()


# every kind of float, the non-finite ones and the float range's edges
# included, in the columns a batch writes
ANY_FLOAT = st.floats() | st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 5e-324, 1.7e308])


@st.composite
def workflow_results(draw):
    """WorkflowResults over hand-made batches: zero to eight rows, x0 of
    length 1 to 3, any floats, failed rows with any message, in-sample
    (observed responses) or not."""
    m, p = draw(st.integers(0, 8)), draw(st.integers(1, 3))
    ok = draw(hnp.arrays(bool, m))
    mass, *cols = draw(hnp.arrays(float, (6, m), elements=ANY_FLOAT))
    # the contract: estimate columns are NaN at failed rows
    cols = [np.where(ok, c, math.nan) for c in cols]
    batch = NWBatch(n=draw(st.integers(2, 10**6)),
                    h=draw(st.sampled_from([1e-200, 0.37, 1e200]) | st.floats(1e-300, 1e300)),
                    ok=ok, mass=mass, eta_hat=cols[0], sigma2_hat=cols[1], f_hat=cols[2],
                    ci_lo=cols[3], ci_hi=cols[4],
                    errors={i: draw(st.text()) for i in np.flatnonzero(~ok).tolist()})
    X0 = draw(hnp.arrays(float, (m, p), elements=ANY_FLOAT))
    observed = draw(st.none() | hnp.arrays(float, m, elements=ANY_FLOAT))
    return WorkflowResult(batch=batch, X0=X0, observed=observed)


class TestRunFileWriters:
    """``run_file_chunks`` formats from columns; its files must equal
    json_text of the points and write_table of the plot rows exactly."""

    @settings(max_examples=150, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(wf=workflow_results())
    def test_hand_made_batches(self, wf, tmp_path):
        assert_run_files_exact(wf, tmp_path / "plot.csv")

    @settings(max_examples=100, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(wf=workflow_results(), rows=st.integers(1, 3))
    def test_chunks_join_to_the_files(self, wf, rows, tmp_path):
        """Pieces of one to three rows, so the lists' joins fall between
        chunks, concatenate to the same two files."""
        with mock.patch.object(dataio, "_CHUNK_ROWS", rows):
            chunks = list(wf.run_file_chunks())
            assert [(text, "") for text, _ in chunks] == list(wf.run_file_chunks(plot=False))
        assert len(chunks) == max(1, -(-len(wf.batch) // rows))
        assert "".join(text for text, _ in chunks) == json_text(points_of(wf))
        write_table(tmp_path / "plot.csv", PLOT_HEADER, plot_rows_of(wf))
        assert "".join(plot for _, plot in chunks).encode() == (tmp_path / "plot.csv").read_bytes()

    @pytest.mark.parametrize("in_sample", [True, False], ids=["in-sample", "test-rows"])
    @pytest.mark.parametrize("h", [None, 1e200, 1e-200], ids=["power-rule", "h-1e200", "h-1e-200"])
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_workflow_batches(self, shellfish_csv, tmp_path, d, h, in_sample):
        """Real batches: empty windows at the far test rows, degenerate
        density rows at the extreme bandwidths."""
        ds = load_csv(shellfish_csv, response_col="muscle_mass", transforms=LOG_ALL)
        rule = None if h is None else BandwidthRule(kind="fixed", h_fixed=h)
        test = None if in_sample else np.vstack([ds.X[:6], ds.X[:3] + 50.0])
        wf = run_predict_workflow(ds, method="pls", d=d, bandwidth_rule=rule, test_rows=test)
        if h and d > 1:
            # h**d leaves the float range: every density is degenerate
            assert wf.n_failed == len(wf.batch)
        elif not in_sample and h != 1e200:
            assert wf.n_failed >= 3  # the far rows' windows are empty
        assert_run_files_exact(wf, tmp_path / "plot.csv")

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_overflowing_estimates(self, shellfish_csv, tmp_path, d):
        """Responses near the float range's edge give ok rows whose variance
        and interval bounds are infinite."""
        ds = load_csv(shellfish_csv, response_col="muscle_mass", transforms=LOG_ALL)
        huge = dataclasses.replace(ds, Y=1e300 * np.where(np.arange(ds.n) % 2, 1.0, -1.0))
        wf = run_predict_workflow(huge, bandwidth_rule=BandwidthRule(kind="fixed", h_fixed=1.0),
                                  precomputed_basis=oracle_basis(np.eye(ds.p)[:d]))
        assert not np.isfinite(wf.batch.ci_hi[wf.batch.ok]).all()
        assert_run_files_exact(wf, tmp_path / "plot.csv")

    def test_zero_test_rows(self, shellfish_csv, tmp_path):
        ds = load_csv(shellfish_csv, response_col="muscle_mass", transforms=LOG_ALL)
        wf = run_predict_workflow(ds, method="pls", d=1, test_rows=np.zeros((0, 4)))
        assert list(wf.run_file_chunks(plot=False)) == [("[]\n", "")]
        assert_run_files_exact(wf, tmp_path / "plot.csv")
