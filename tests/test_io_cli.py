import json
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import softkm.io as sio
from conftest import overflowing_perturbation, three_clusters
from softkm import (
    InvalidInput,
    NumericalFailure,
    ParseError,
    RunConfig,
    Solution,
    bench,
    center,
    is_skmable,
    is_ti_lsdable,
    load_csv,
    load_labels,
    run,
    save_matrix_csv,
    simplex_complement_basis,
    solve_am,
    solve_global,
)
from softkm.cli import main
from softkm.io import _write_plotdata, write_bench_outputs


def write(path, text):
    path.write_text(text, encoding="utf-8")
    return str(path)


def reference_csv(rows) -> str:
    """The per-value formatter the CSV writers replaced: a float with 12
    significant digits, anything else with str."""
    return "".join(
        ",".join(format(v, ".12g") if isinstance(v, float) else str(v) for v in row) + "\n"
        for row in rows
    )


# -0.0, subnormals, 1e+-300 and integer-valued floats
EDGE = np.array([[-0.0, 5e-324, 1e300, -1e-300, 3.0],
                 [2.5e-310, -1e300, 1e-300, -2.0, 1 / 3]])

# nan, +-inf, -0.0, subnormals; LONG spans more than one block of rows
SPECIAL = np.array([[np.nan, np.inf, -np.inf, -0.0, 5e-324],
                    [2.5e-310, 1 / 3, -1e300, 0.0, 12345678901234.5]])
LONG = np.random.default_rng(2).standard_normal((sio._WRITE_BLOCK + 7, 3))

TWO_POINTS = "-1\n1\n"

LABELED_2D = (
    "x,y,label\n"
    "0.0,0.1,0\n"
    "0.2,-0.1,0\n"
    "-0.1,0.0,0\n"
    "5.0,5.1,1\n"
    "5.2,4.9,1\n"
    "4.9,5.0,1\n"
)


class TestLoadCsv:
    def test_single_feature(self, tmp_path):
        X, labels = load_csv(write(tmp_path / "a.csv", TWO_POINTS))
        assert X.values.shape == (1, 2)
        np.testing.assert_array_equal(X.values, [[-1.0, 1.0]])
        assert labels is None

    def test_header_and_labels(self, tmp_path):
        X, labels = load_csv(write(tmp_path / "a.csv", LABELED_2D))
        assert X.values.shape == (2, 6)
        np.testing.assert_array_equal(labels, [0, 0, 0, 1, 1, 1])
        assert X.values[0, 3] == 5.0

    def test_header_without_label_column(self, tmp_path):
        X, labels = load_csv(write(tmp_path / "a.csv", "x,y\n1,2\n3,4\n"))
        assert X.values.shape == (2, 2)
        assert labels is None

    def test_blank_lines_skipped(self, tmp_path):
        X, _ = load_csv(write(tmp_path / "a.csv", "1,2\n\n3,4\n\n"))
        assert X.values.shape == (2, 2)

    def test_ragged_row(self, tmp_path):
        p = write(tmp_path / "a.csv", "1,2\n3\n")
        with pytest.raises(ParseError, match="row 2"):
            load_csv(p)

    def test_non_numeric_cell(self, tmp_path):
        p = write(tmp_path / "a.csv", "1,2\n3,oops\n")
        with pytest.raises(ParseError, match="row 2, column 2"):
            load_csv(p)

    def test_empty_file(self, tmp_path):
        with pytest.raises(ParseError, match="no data rows"):
            load_csv(write(tmp_path / "a.csv", ""))

    def test_header_only(self, tmp_path):
        with pytest.raises(ParseError, match="header but no data"):
            load_csv(write(tmp_path / "a.csv", "x,y\n"))

    def test_fractional_labels(self, tmp_path):
        p = write(tmp_path / "a.csv", "x,label\n1.0,0.5\n")
        with pytest.raises(ParseError, match="label column"):
            load_csv(p)

    def test_labels_only(self, tmp_path):
        p = write(tmp_path / "a.csv", "label\n0\n1\n")
        with pytest.raises(ParseError, match="no feature columns"):
            load_csv(p)

    def test_missing_file(self, tmp_path):
        with pytest.raises(InvalidInput, match="not found"):
            load_csv(str(tmp_path / "nope.csv"))

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("label", ["inf", "-inf", "1e300", "9223372036854775808"])
    def test_labels_beyond_int64(self, tmp_path, label):
        p = write(tmp_path / "a.csv", f"x,label\n1.0,0\n2.0,{label}\n")
        with pytest.raises(ParseError, match=f"^{re.escape(p)}: label column .* int64 range"):
            load_csv(p)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_label_at_int64_minimum(self, tmp_path):
        _, labels = load_csv(write(tmp_path / "a.csv", "x,label\n1.0,-9223372036854775808\n"))
        assert labels.tolist() == [np.iinfo(np.int64).min]


class TestLoadLabels:
    def test_label_column(self, tmp_path):
        labels = load_labels(write(tmp_path / "a.csv", LABELED_2D))
        np.testing.assert_array_equal(labels, [0, 0, 0, 1, 1, 1])

    def test_bare_integer_column(self, tmp_path):
        labels = load_labels(write(tmp_path / "a.csv", "0\n1\n1\n0\n"))
        np.testing.assert_array_equal(labels, [0, 1, 1, 0])

    def test_membership_matrix(self, tmp_path):
        p = write(tmp_path / "a.csv", "0.9,0.1\n0.3,0.7\n0.5,0.5\n")
        np.testing.assert_array_equal(load_labels(p), [0, 1, 0])

    def test_fractional_single_column(self, tmp_path):
        p = write(tmp_path / "a.csv", "0.25\n0.75\n")
        with pytest.raises(ParseError, match="nonnegative integers"):
            load_labels(p)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_single_column_beyond_int64(self, tmp_path):
        p = write(tmp_path / "a.csv", "0\n1e300\n")
        with pytest.raises(ParseError, match="nonnegative integers"):
            load_labels(p)


def loaded(path):
    """load_csv's answer as bytes, or the type and text of its error."""
    try:
        X, labels = load_csv(path)
    except InvalidInput as exc:
        return type(exc).__name__, str(exc)
    return X.values.shape, X.values.tobytes(), None if labels is None else labels.tobytes()


def decline(path):
    raise ValueError("per-cell parser only")


def paths_agree(path) -> bool:
    """Assert that load_csv answers alike through np.loadtxt and through
    the per-cell parser; return whether np.loadtxt took the file."""
    try:
        sio._parse_bulk(path)
        bulk = True
    except ValueError:
        bulk = False
    fast = loaded(path)
    with pytest.MonkeyPatch.context() as m:
        m.setattr(sio, "_parse_bulk", decline)
        slow = loaded(path)
    assert fast == slow
    return bulk


# cells np.loadtxt parses to float(cell.strip()), and cells it rejects
BULK_CELLS = [" 1.5 ", "\t2", "nan", "NaN", "-nan", "-inf", "inF", "Infinity", "1e400",
              "-1e-400", "5e-324", "1.5\xa0", "+7", "1.5\u2028"]
CELL_ONLY = ["1_0", "\u0661", "", " ", '"3"', "0x10", "oops"]

# (text with {e} for the line ending, whether np.loadtxt takes it)
LAYOUTS = [
    ("1,2{e}{e}3,4{e}", True),  # blank line
    ("{e}{e}1,2{e}3,4", True),  # leading blank lines, no final line ending
    ("x,y{e}1,2{e} {e}3,4{e}", False),  # whitespace-only line
    ("x,y{e}1,2{e},{e}3,4{e}", False),  # line of empty cells
    ("1,2{e}3{e}", False),  # ragged, no header
    ("x,y{e}1,2{e}3,4,5{e}", False),  # ragged below a header
    ("x,y{e}", False),  # header only
    ("x,y{e}{e}  {e}", False),  # header and blank lines
    ("", False),
    ("{e}{e}", False),
    ("1,2,3{e}", False),  # one row
    ("x{e}1{e}2{e}", True),  # one column
    ("x,label{e}1.5,0{e}2.5,1{e}", True),
    ("x,label{e}1.5,0{e}2.5,nan{e}", True),
    ("x,label{e}1.5,0{e}2.5,inf{e}", True),
    ("x,label{e}1.5,0{e}2.5,0.5{e}", True),
    ("label{e}0{e}1{e}", True),
]


class TestBulkParse:
    @pytest.mark.parametrize("header", ["x,y\n", ""], ids=["header", "no-header"])
    @pytest.mark.parametrize("cell", BULK_CELLS + CELL_ONLY)
    def test_cell_below_the_first_row(self, tmp_path, cell, header):
        p = write(tmp_path / "a.csv", f"{header}2,3\n1,{cell}\n")
        assert paths_agree(p) == (cell in BULK_CELLS)

    @pytest.mark.parametrize("cell", BULK_CELLS + CELL_ONLY)
    def test_cell_in_the_first_row(self, tmp_path, cell):
        # the first row is read with float(), as the header test reads it,
        # or it is the header, so np.loadtxt takes every one of these files
        assert paths_agree(write(tmp_path / "a.csv", f"{cell},1\n2,3\n"))

    @pytest.mark.parametrize("ending", ["\n", "\r\n", "\r"], ids=["LF", "CRLF", "CR"])
    @pytest.mark.parametrize("text, bulk", LAYOUTS)
    def test_layout(self, tmp_path, text, bulk, ending):
        assert paths_agree(write(tmp_path / "a.csv", text.format(e=ending))) == bulk

    @settings(max_examples=200, deadline=None)
    @given(header=st.sampled_from(["", "a,b", "a,label", "a"]),
           rows=st.lists(st.lists(st.sampled_from(BULK_CELLS + CELL_ONLY + ["0", "-3.25", "7"]),
                                  min_size=1, max_size=3), max_size=6),
           endings=st.lists(st.sampled_from(["\n", "\r\n", "\r", "\n\n", "\n \n"]),
                            min_size=7, max_size=7))
    def test_random_files(self, tmp_path_factory, header, rows, endings):
        lines = ([header] if header else []) + [",".join(row) for row in rows]
        text = "".join(line + end for line, end in zip(lines, endings))
        path = tmp_path_factory.mktemp("bulk") / "a.csv"
        path.write_text(text, encoding="utf-8", newline="")
        paths_agree(str(path))


class TestSaveMatrixCsv:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(0)
        A = rng.standard_normal((7, 3)) * np.logspace(-3, 3, 3)
        p = tmp_path / "m.csv"
        save_matrix_csv(str(p), A)
        X, _ = load_csv(str(p))
        np.testing.assert_allclose(X.values, A.T, rtol=1e-10)

    def test_vector_becomes_column(self, tmp_path):
        p = tmp_path / "v.csv"
        save_matrix_csv(str(p), np.array([1.0, 2.0]))
        assert p.read_text() == "1\n2\n"

    @pytest.mark.parametrize("A", [EDGE, EDGE.T, EDGE[0], np.zeros((3, 0)), np.zeros((0, 2))],
                             ids=["matrix", "transposed", "vector", "no-columns", "no-rows"])
    def test_matches_reference_formatter(self, tmp_path, A):
        p = tmp_path / "m.csv"
        save_matrix_csv(str(p), A)
        rows = A.reshape(-1, 1) if A.ndim == 1 else A
        assert p.read_text() == reference_csv(rows.tolist())

    @pytest.mark.parametrize("A", [SPECIAL, SPECIAL[0], SPECIAL[:1], SPECIAL[:, :1], LONG],
                             ids=["matrix", "vector", "row", "column", "blocks"])
    def test_matches_savetxt(self, tmp_path, A):
        save_matrix_csv(str(tmp_path / "m.csv"), A)
        np.savetxt(tmp_path / "ref.csv", A, fmt="%.12g", delimiter=",")
        assert (tmp_path / "m.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()


class TestRun:
    def test_two_point_global(self, tmp_path):
        inp = write(tmp_path / "in.csv", TWO_POINTS)
        out = tmp_path / "out"
        res = run(RunConfig(solver="global", k=2, input_path=inp, output_dir=str(out)))
        assert res.objective <= 1e-12
        assert res.iterations == 1
        G = np.loadtxt(out / "membership.csv", delimiter=",")
        assert G.shape == (2, 2)
        np.testing.assert_allclose(G.sum(axis=1), 1.0, atol=1e-10)
        F = np.loadtxt(out / "prototypes.csv", delimiter=",")
        assert F.shape == (2,)  # k x d = 2 x 1
        assert not (out / "plotdata.csv").exists()

    def test_result_json_contents(self, tmp_path):
        inp = write(tmp_path / "in.csv", LABELED_2D)
        out = tmp_path / "out"
        res = run(RunConfig(solver="am", k=2, input_path=inp, output_dir=str(out), seed=3))
        payload = json.loads((out / "result.json").read_text())
        assert payload["solver"] == "am"
        assert payload["k"] == 2
        assert payload["seed"] == 3
        assert payload["lambda"] is None
        assert payload["iterations"] == res.iterations
        assert payload["objective"] == pytest.approx(res.objective, rel=0)
        assert payload["objective_trace"] == res.objective_trace
        assert "runtime_ms" not in payload

    def test_result_json_revalidates(self, tmp_path):
        inp = write(tmp_path / "in.csv", LABELED_2D)
        out = tmp_path / "out"
        run(RunConfig(solver="global", k=2, input_path=inp, output_dir=str(out)))
        payload = json.loads((out / "result.json").read_text())
        X, _ = load_csv(inp)
        G = np.loadtxt(out / "membership.csv", delimiter=",")
        F = np.loadtxt(out / "prototypes.csv", delimiter=",").T
        resid = float(np.sum((X.values - F @ G.T) ** 2))
        assert resid == pytest.approx(payload["objective"], rel=1e-6, abs=1e-9)

    def test_plotdata_for_2d(self, tmp_path):
        inp = write(tmp_path / "in.csv", LABELED_2D)
        out = tmp_path / "out"
        run(RunConfig(solver="global", k=2, input_path=inp, output_dir=str(out)))
        lines = (out / "plotdata.csv").read_text().strip().splitlines()
        assert lines[0] == "x,y,label,is_prototype"
        assert len(lines) == 1 + 6 + 2
        flags = [line.rsplit(",", 1)[1] for line in lines[1:]]
        assert flags == ["0"] * 6 + ["1"] * 2
        X, _ = load_csv(inp)
        sol, _ = solve_global(X, 2)
        labels = np.argmax(sol.membership, axis=1)
        expected = [[*x, int(c), 0] for x, c in zip(X.values.T.tolist(), labels)]
        expected += [[*f, j, 1] for j, f in enumerate(sol.prototypes.T.tolist())]
        assert lines == ["x,y,label,is_prototype"] + reference_csv(expected).splitlines()

    def test_plotdata_edge_values(self, tmp_path):
        G = np.array([[1.0, 0.0], [0.25, 0.75], [0.5, 0.5], [0.0, 1.0], [1.0, 0.0]])
        sol = Solution(EDGE[:, :2].copy(), G, 0.0)
        p = tmp_path / "plotdata.csv"
        _write_plotdata(str(p), center(EDGE), sol)
        expected = [[*x, c, 0] for x, c in zip(EDGE.T.tolist(), [0, 1, 0, 1, 0])]
        expected += [[*f, j, 1] for j, f in enumerate(EDGE[:, :2].T.tolist())]
        assert p.read_text() == "x,y,label,is_prototype\n" + reference_csv(expected)

    def test_reruns_are_byte_identical(self, tmp_path):
        inp = write(tmp_path / "in.csv", LABELED_2D)
        for solver, lam in (("global", None), ("am", None), ("mvskm", 0.5)):
            a, b = tmp_path / f"{solver}_a", tmp_path / f"{solver}_b"
            for out in (a, b):
                run(RunConfig(solver=solver, k=2, input_path=inp,
                              output_dir=str(out), lam=lam, seed=1))
            for name in ("membership.csv", "result.json", "prototypes.csv"):
                assert (a / name).read_bytes() == (b / name).read_bytes()

    def test_config_validation(self, tmp_path):
        with pytest.raises(InvalidInput):
            RunConfig(solver="kmeans", k=2, input_path="a", output_dir="b")
        with pytest.raises(InvalidInput):
            RunConfig(solver="global", k=0, input_path="a", output_dir="b")
        with pytest.raises(InvalidInput):
            RunConfig(solver="mvskm", k=2, input_path="a", output_dir="b")  # no lambda
        with pytest.raises(InvalidInput):
            RunConfig(solver="global", k=2, input_path="", output_dir="b")
        bad = [dict(solver="am", k=2.9), dict(solver="am", k=True), dict(solver="am", k=2, seed=1.7),
               dict(solver="am", k=2, seed=-1), dict(solver="am", k=2, max_outer_iters="3"),
               dict(solver="am", k=2, max_outer_iters=0), dict(solver="am", k=2, lam="x"),
               dict(solver="global", k=2, lam=-1.0), dict(solver="global", k=2, epsilon=0.0),
               dict(solver="am", k=2, rel_obj_tol="1e-3"), dict(solver="am", k=2, rel_obj_tol=-1.0)]
        for fields in bad:
            with pytest.raises(InvalidInput):
                RunConfig(input_path="a", output_dir="b", **fields)


class TestBench:
    def test_rows_and_scores(self, tmp_path):
        inp = write(tmp_path / "in.csv", LABELED_2D)
        configs = [
            RunConfig(solver="global", k=2, input_path=inp, output_dir=str(tmp_path / "g")),
            RunConfig(solver="am", k=2, input_path=inp, output_dir=str(tmp_path / "a"), seed=0),
        ]
        rows = bench(configs)
        assert [r["solver"] for r in rows] == ["global", "am"]
        for r in rows:
            assert set(r) == {"solver", "k", "seed", "lambda", "objective", "acc", "nmi", "purity"}
            assert 0.0 <= r["acc"] <= 1.0
        # two tight, well-separated blobs: every solver should split them
        assert rows[0]["acc"] == pytest.approx(1.0)

    def test_validation(self, tmp_path):
        inp = write(tmp_path / "in.csv", LABELED_2D)
        other = write(tmp_path / "other.csv", LABELED_2D)
        plain = write(tmp_path / "plain.csv", "1,2\n3,4\n5,6\n")
        cfg = RunConfig(solver="global", k=2, input_path=inp, output_dir=str(tmp_path / "o"))
        with pytest.raises(InvalidInput, match="at least one"):
            bench([])
        with pytest.raises(InvalidInput, match="label column"):
            bench([RunConfig(solver="global", k=2, input_path=plain,
                             output_dir=str(tmp_path / "u"))])
        with pytest.raises(InvalidInput, match="share one input"):
            bench([cfg, RunConfig(solver="global", k=2, input_path=other,
                                  output_dir=str(tmp_path / "p"))])
        assert not (tmp_path / "u").exists() and not (tmp_path / "o").exists()

    def test_bench_csv_matches_reference_formatter(self, tmp_path):
        cols = ("solver", "k", "seed", "lambda", "objective", "acc", "nmi", "purity")
        rows = [dict(zip(cols, ("global", 2, 0, 0.0, v, 1.0, -0.0, 5e-324)))
                for v in EDGE.ravel().tolist()]
        write_bench_outputs(rows, str(tmp_path))
        expected = ",".join(cols) + "\n" + reference_csv([[r[c] for c in cols] for r in rows])
        assert (tmp_path / "bench.csv").read_text() == expected


class TestCli:
    def test_solve_global_success(self, tmp_path, capsys):
        inp = write(tmp_path / "in.csv", TWO_POINTS)
        out = tmp_path / "out"
        code = main(["solve-global", "--input", inp, "--k", "2", "--out", str(out)])
        assert code == 0
        assert "objective=" in capsys.readouterr().out
        assert (out / "result.json").exists()

    def test_solve_mvskm_needs_lambda(self, tmp_path, capsys):
        inp = write(tmp_path / "in.csv", TWO_POINTS)
        code = main(["solve-mvskm", "--input", inp, "--k", "2", "--out", str(tmp_path / "o")])
        assert code == 2
        assert "lambda" in capsys.readouterr().err

    def test_missing_input_file(self, tmp_path, capsys):
        code = main(["solve-global", "--input", str(tmp_path / "nope.csv"),
                     "--k", "2", "--out", str(tmp_path / "o")])
        assert code == 2
        assert "error" in capsys.readouterr().err

    def test_ragged_csv(self, tmp_path, capsys):
        inp = write(tmp_path / "in.csv", "1,2\n3\n")
        code = main(["solve-global", "--input", inp, "--k", "2", "--out", str(tmp_path / "o")])
        assert code == 2

    def test_numerical_failure_exit_code(self, tmp_path, capsys, monkeypatch):
        import softkm.cli as cli

        def boom(cfg):
            raise NumericalFailure("synthetic")

        monkeypatch.setattr(cli, "run", boom)
        inp = write(tmp_path / "in.csv", TWO_POINTS)
        code = main(["solve-global", "--input", inp, "--k", "2", "--out", str(tmp_path / "o")])
        assert code == 3
        assert "numerical failure" in capsys.readouterr().err

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_overflowing_membership_solve_exits_3(self, tmp_path, capsys):
        # data near the top of the float range must end in a numerical
        # failure, not a traceback; here ||Xc||_F^2 overflows before any
        # membership solve (k = 9 on two features is past the enumeration bound)
        X = np.random.default_rng(0).standard_normal((40, 2)) * 1e307
        inp = tmp_path / "big.csv"
        np.savetxt(inp, X, delimiter=",", fmt="%.17g")
        code = main(["solve-am", "--input", str(inp), "--k", "9", "--max-iters", "2",
                     "--out", str(tmp_path / "o")])
        assert code == 3
        assert "numerical failure: " in capsys.readouterr().err

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_overflowing_objective_exits_3(self, tmp_path, capsys):
        X, E = overflowing_perturbation()
        inp = tmp_path / "big.csv"
        np.savetxt(inp, (X + E).T, delimiter=",", fmt="%.17g")
        assert main(["solve-global", "--input", str(inp), "--k", "3",
                     "--out", str(tmp_path / "o")]) == 3
        assert capsys.readouterr().err.startswith("numerical failure: objective")

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("command, scale, code", [
        ("solve-am", 1e152, 0),  # ||Xc||_F^2 is finite
        ("solve-am", 1e153, 3),  # ||Xc||_F^2 overflows
        ("solve-global", 1e154, 3),  # the Gram matrix overflows
    ])
    def test_data_near_overflow(self, tmp_path, capsys, command, scale, code):
        inp = tmp_path / "big.csv"
        np.savetxt(inp, scale * three_clusters().T, delimiter=",", fmt="%.17g")
        assert main([command, "--input", str(inp), "--k", "3",
                     "--out", str(tmp_path / "o")]) == code
        out, err = capsys.readouterr()
        if code:
            assert err.startswith("numerical failure: ")
        else:  # the unscaled data's iteration count
            assert f"iterations={len(solve_am(three_clusters(), 3)[1]) - 1} " in out

    def test_check_skmable_true(self, tmp_path, capsys):
        t = np.linspace(0, 1, 8)
        rows = "\n".join(f"{a},{b}" for a, b in zip(1 + 2 * t, -0.5 * t))
        inp = write(tmp_path / "in.csv", rows + "\n")
        code = main(["check-skmable", "--input", inp, "--k", "2"])
        assert code == 0
        assert capsys.readouterr().out == "true\nnumerical_rank=1\n"

    def test_check_skmable_false(self, tmp_path, capsys):
        rng = np.random.default_rng(0)
        rows = "\n".join(f"{a},{b}" for a, b in rng.standard_normal((10, 2)))
        inp = write(tmp_path / "in.csv", rows + "\n")
        code = main(["check-skmable", "--input", inp, "--k", "2"])
        assert code == 0
        assert capsys.readouterr().out.startswith("false\n")

    def test_check_tilsdable_gram_default(self, tmp_path, capsys):
        t = np.linspace(0, 1, 6)
        rows = "\n".join(f"{a},{b}" for a, b in zip(t, 3 * t))
        inp = write(tmp_path / "in.csv", rows + "\n")
        code = main(["check-tilsdable", "--input", inp, "--k", "2"])
        assert code == 0
        assert capsys.readouterr().out == "true\nnumerical_rank=1\n"

    def test_check_tilsdable_threshold_is_the_kernels(self, tmp_path, capsys):
        # centered data with sigma = (1, 1e-7): its linear kernel has the
        # eigenvalues (1, 1e-14), which the default tau = 1e-10 counts once
        V = simplex_complement_basis(6)[:, :2]
        U = np.linalg.qr(np.random.default_rng(2).standard_normal((3, 2)))[0]
        X = U @ np.diag([1.0, 1e-7]) @ V.T
        rows = "\n".join(",".join(repr(float(v)) for v in col) for col in X.T)
        inp = write(tmp_path / "in.csv", rows + "\n")
        assert main(["check-tilsdable", "--input", inp, "--k", "2"]) == 0
        assert capsys.readouterr().out == "true\nnumerical_rank=1\n"

    def test_check_tilsdable_kernel_flag(self, tmp_path, capsys):
        n = 5
        rows = "\n".join(",".join("1.0" for _ in range(n)) for _ in range(n))
        inp = write(tmp_path / "in.csv", rows + "\n")
        code = main(["check-tilsdable", "--input", inp, "--k", "1", "--kernel"])
        assert code == 0
        assert capsys.readouterr().out == "true\nnumerical_rank=0\n"

    @pytest.mark.parametrize("k", [3, 4])
    def test_check_tilsdable_kernel_agrees_with_audit(self, tmp_path, capsys, k):
        # large enough that is_ti_lsdable decides from its sketch
        Y = np.random.default_rng(5).standard_normal((3, 60)) + 1.0
        K = Y.T @ Y
        K = 0.5 * (K + K.T)
        inp = tmp_path / "kernel.csv"
        np.savetxt(inp, K, fmt="%.17g", delimiter=",")
        assert main(["check-tilsdable", "--input", str(inp), "--k", str(k), "--kernel"]) == 0
        verdict = capsys.readouterr().out.splitlines()[0]
        assert verdict == ("true" if is_ti_lsdable(K, k) else "false")
        assert verdict == ("true" if k == 4 else "false")

    def test_check_tilsdable_kernel_not_square(self, tmp_path, capsys):
        inp = write(tmp_path / "in.csv", "1,2\n3,4\n5,6\n")
        code = main(["check-tilsdable", "--input", inp, "--k", "1", "--kernel"])
        assert code == 2

    def test_eval(self, tmp_path, capsys):
        pred = write(tmp_path / "p.csv", "0\n0\n1\n1\n")
        truth = write(tmp_path / "t.csv", "1\n1\n0\n0\n")
        code = main(["eval", "--pred", pred, "--truth", truth])
        assert code == 0
        out = capsys.readouterr().out
        assert "ACC 1.000000" in out
        assert "NMI 1.000000" in out
        assert "Purity 1.000000" in out

    def test_bench_end_to_end(self, tmp_path, capsys):
        inp = write(tmp_path / "in.csv", LABELED_2D)
        out = tmp_path / "sweep"
        spec = {
            "input": inp,
            "out": str(out),
            "runs": [
                {"solver": "global", "k": 2, "seeds": [0, 1, 2]},
                {"solver": "am", "k": 2, "seeds": [0, 1]},
            ],
        }
        spec_path = write(tmp_path / "spec.json", json.dumps(spec))
        code = main(["bench", "--spec", spec_path])
        assert code == 0
        lines = (out / "bench.csv").read_text().strip().splitlines()
        # one global row (seeds collapse) plus two am rows
        assert len(lines) == 1 + 3
        assert lines[0] == "solver,k,seed,lambda,objective,acc,nmi,purity"
        assert (out / "bench.txt").exists()
        assert "solver" in capsys.readouterr().out

    def test_int_and_float_lambda_write_identical_results(self, tmp_path):
        inp = write(tmp_path / "in.csv", LABELED_2D)
        results = []
        for name, lam in (("int", 1), ("float", 1.0)):
            out = tmp_path / name
            spec = {"input": inp, "out": str(out),
                    "runs": [{"solver": "mvskm", "k": 2, "lambda": lam, "seed": 0}]}
            assert main(["bench", "--spec", write(tmp_path / f"{name}.json", json.dumps(spec))]) == 0
            results.append((out / "run_000_mvskm" / "result.json").read_bytes())
        assert results[0] == results[1]
        assert b'"lambda": 1.0,' in results[0]

    def test_bench_spec_errors(self, tmp_path, capsys, monkeypatch):
        inp = write(tmp_path / "in.csv", LABELED_2D)
        bad_json = write(tmp_path / "bad.json", "{nope")
        assert main(["bench", "--spec", bad_json]) == 2
        missing = write(tmp_path / "missing.json", json.dumps({"input": inp, "runs": []}))
        assert main(["bench", "--spec", missing]) == 2
        # the spec must be an object whose input and out are nonempty strings,
        # checked before any solve or write
        monkeypatch.chdir(tmp_path)
        before = sorted(tmp_path.iterdir())
        runs = [{"solver": "global", "k": 2}]
        for j, spec in enumerate([{"input": inp, "out": 5, "runs": runs},
                                  {"input": inp, "out": "", "runs": runs},
                                  {"input": 5, "out": "o", "runs": runs},
                                  [inp, "o", runs],
                                  5]):
            path = tmp_path / f"paths{j}.json"
            path.write_text(json.dumps(spec), encoding="utf-8")
            before.append(path)
            assert main(["bench", "--spec", str(path)]) == 2, spec
            assert sorted(tmp_path.iterdir()) == sorted(before), spec
        unlabeled = write(tmp_path / "plain.csv", "1,2\n3,4\n5,6\n")
        spec = write(tmp_path / "spec.json", json.dumps(
            {"input": unlabeled, "out": str(tmp_path / "o"),
             "runs": [{"solver": "global", "k": 2}]}))
        assert main(["bench", "--spec", spec]) == 2
        capsys.readouterr()
        malformed = [
            [{"solver": "am", "k": "two"}],
            [{"solver": "am", "k": 2, "tol": "tight"}],
            ["am"],
            {"solver": "am"},
            [{"solver": "am", "k": 2, "seeds": 3}],
            [{"solver": "am", "k": 2, "seeds": "12"}],
            [{"solver": "am", "k": 2, "seeds": [1.7]}],
            [{"solver": "am", "k": 2.9}],
            [{"solver": "am", "k": 2, "seeds": []}, {"solver": "global", "k": 2}],
            [{"solver": "am", "k": 2, "max_iter": 1}],
            [{"solver": "am", "k": 2, "tol": "1e-3"}],
            [{"solver": "am", "k": 2, "lambda": "x"}],
            [{"solver": "am", "k": 2, "seed": 1, "seeds": [1, 2]}],
            [{"solver": "am", "k": True}],
            [{"solver": "global", "k": 2, "epsilon": 0}],
        ]
        for j, runs in enumerate(malformed):
            spec = write(tmp_path / f"malformed{j}.json", json.dumps(
                {"input": inp, "out": str(tmp_path / "o"), "runs": runs}))
            assert main(["bench", "--spec", spec]) == 2, runs
            err = capsys.readouterr().err
            assert ("runs[0]: " if isinstance(runs, list) else "runs must be a list") in err
            assert not (tmp_path / "o").exists(), runs

    @pytest.mark.parametrize("runs", [
        [{"solver": "global", "k": k} for k in (2, 3, 4)],  # k - 1 <= min(d, n) = 2
        [{"solver": "am", "k": 2}, {"solver": "mvskm", "k": 1, "lambda": 1.0}],
    ])
    def test_failing_run_writes_nothing(self, tmp_path, capsys, runs):
        # every run is solved before the first artifact is written
        inp = write(tmp_path / "in.csv", LABELED_2D)
        spec = write(tmp_path / "spec.json", json.dumps(
            {"input": inp, "out": str(tmp_path / "o"), "runs": runs}))
        assert main(["bench", "--spec", spec]) == 2
        assert "must be an integer in" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.filterwarnings("error")
    def test_unrepresentable_lambda_rejected_before_any_solve(self, tmp_path, capsys):
        inp = write(tmp_path / "in.csv", LABELED_2D)
        runs = [{"solver": "global", "k": 2}, {"solver": "mvskm", "k": 2, "lambda": 1e308}]
        spec = write(tmp_path / "spec.json", json.dumps(
            {"input": inp, "out": str(tmp_path / "o"), "runs": runs}))
        assert main(["bench", "--spec", spec]) == 2
        assert "runs[1]: 1/epsilon and lam/(2 epsilon) must be finite" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("command, flags", [
        ("solve-mvskm", ["--lambda", "inf"]),
        ("solve-mvskm", ["--lambda", "nan"]),
        ("solve-mvskm", ["--lambda", "1e308"]),
        ("solve-mvskm", ["--lambda", "1", "--epsilon", "inf"]),
        ("solve-mvskm", ["--lambda", "1", "--epsilon", "1e-320"]),
        ("solve-mvskm", ["--lambda", "1", "--tol", "inf"]),
        ("solve-am", ["--tol", "inf"]),
        ("solve-am", ["--lambda", "inf"]),
    ])
    def test_options_must_be_finite(self, tmp_path, capsys, command, flags):
        inp = write(tmp_path / "in.csv", LABELED_2D)
        out = tmp_path / "o"
        assert main([command, "--input", inp, "--k", "2", *flags, "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert not out.exists()

    def test_bench_parses_its_input_once(self, tmp_path, monkeypatch):
        import softkm.cli as cli
        import softkm.io as sio

        calls = []
        for mod in (cli, sio):
            def counted(path, _load=getattr(mod, "load_csv")):
                calls.append(path)
                return _load(path)
            monkeypatch.setattr(mod, "load_csv", counted)
        inp = write(tmp_path / "in.csv", LABELED_2D)
        spec = write(tmp_path / "spec.json", json.dumps(
            {"input": inp, "out": str(tmp_path / "o"),
             "runs": [{"solver": "global", "k": 2}, {"solver": "am", "k": 2, "seeds": [0, 1]}]}))
        assert main(["bench", "--spec", spec]) == 0
        assert calls == [inp]

    @pytest.mark.parametrize("command,extra", [("check-skmable", []),
                                               ("check-tilsdable", []),
                                               ("check-tilsdable", ["--kernel"])])
    def test_check_runs_one_svd(self, tmp_path, capsys, monkeypatch, command, extra):
        rng = np.random.default_rng(1)
        A = rng.standard_normal((6, 2)) @ rng.standard_normal((2, 6))
        data = A @ A.T if extra else A
        inp = str(tmp_path / "in.csv")
        save_matrix_csv(inp, data)
        X, _ = load_csv(inp)
        # one decomposition per command: a values-only SVD, or eigvalsh on a
        # symmetric (kernel-side) matrix
        calls = []
        for name in ("svd", "eigvalsh"):
            def counted(*a, _f=getattr(np.linalg, name), _name=name, **kw):
                calls.append(_name)
                return _f(*a, **kw)
            monkeypatch.setattr(np.linalg, name, counted)
        for k in (2, 3, 4):
            calls.clear()
            assert main([command, "--input", inp, "--k", str(k), *extra]) == 0
            assert len(calls) == 1
            verdict = capsys.readouterr().out.splitlines()[0] == "true"
            if command == "check-skmable":
                expected = is_skmable(X, k)
            else:
                expected = is_ti_lsdable(X.values if extra else X.values.T @ X.values, k)
            assert verdict == expected

    def test_check_invalid_inputs(self, tmp_path, capsys):
        data = write(tmp_path / "in.csv", "1,2\n3,4\n5,6\n")
        asym = write(tmp_path / "asym.csv", "1,2\n3,4\n")
        assert main(["check-skmable", "--input", data, "--k", "0"]) == 2
        assert main(["check-tilsdable", "--input", data, "--k", "0"]) == 2
        assert main(["check-tilsdable", "--input", asym, "--k", "1", "--kernel"]) == 2
        for tau in ("0", "-1"):
            assert main(["check-tilsdable", "--input", data, "--k", "1", "--tau", tau]) == 2
        assert capsys.readouterr().out == ""
