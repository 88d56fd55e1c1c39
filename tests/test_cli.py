import json
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from maxlab import (
    DiscreteMeasure,
    SampleFunction,
    gen_function,
    gen_measure,
    gen_ultrametric,
    line_space,
)
from maxlab import io as mio
from maxlab.cli import EXIT_INPUT_ERROR, EXIT_MATH_FAILURE, EXIT_OK, main

Q = Fraction


@pytest.fixture()
def files(tmp_path):
    space = line_space([0, 1, 2])
    mio.write_json(mio.space_to_json(space), tmp_path / "line3.json")
    mio.write_json(mio.measure_to_json(DiscreteMeasure((1, 1, 1))), tmp_path / "uniform.json")
    mio.write_json(mio.function_to_json(SampleFunction((0, 0, 1))), tmp_path / "ind2.json")
    eq3 = [[0, 1, 1], [1, 0, 1], [1, 1, 0]]
    mio.write_json({"labels": ["a", "b", "c"], "dist": eq3}, tmp_path / "eq3.json")
    return tmp_path


class TestScalars:
    @given(st.fractions(max_denominator=10**6))
    @settings(max_examples=200)
    def test_pq_roundtrip_bit_for_bit(self, q):
        assert mio.parse_scalar(mio.scalar_str(q)) == q

    def test_grammar(self):
        assert mio.parse_scalar(3) == 3
        assert mio.parse_scalar("1.25") == Q(5, 4)
        assert mio.parse_scalar(" 3/4 ") == Q(3, 4)
        assert mio.parse_scalar("-7") == -7

    def test_rejects_floats_and_junk(self):
        with pytest.raises(mio.InputFormatError):
            mio.parse_scalar(0.5)
        with pytest.raises(mio.InputFormatError):
            mio.parse_scalar("1/0")
        with pytest.raises(mio.InputFormatError):
            mio.parse_scalar("abc")
        with pytest.raises(mio.InputFormatError):
            mio.parse_scalar(True)


class TestRoundTrips:
    @given(n=st.integers(1, 9), seed=st.integers(0, 10**6))
    @settings(max_examples=30, deadline=None)
    def test_space_measure_function_roundtrip(self, tmp_path_factory, n, seed):
        tmp = tmp_path_factory.mktemp("rt")
        space = gen_ultrametric(n, seed=seed)
        mu = gen_measure(space, seed=seed, zero_fraction=0.2)
        f = gen_function(space, seed=seed)
        mio.write_json(mio.space_to_json(space), tmp / "s.json")
        mio.write_json(mio.measure_to_json(mu), tmp / "m.json")
        mio.write_json(mio.function_to_json(f), tmp / "f.json")
        assert mio.load_space(tmp / "s.json") == space
        assert mio.load_measure(tmp / "m.json", n) == mu
        assert mio.load_function(tmp / "f.json", n) == f

    def test_json_decimal_literals_parse_exactly(self, tmp_path):
        path = tmp_path / "s.json"
        path.write_text('{"labels": ["a", "b"], "dist": [[0, 0.1], [0.1, 0]]}')
        space = mio.load_space(path)
        assert space.dist[0][1] == Q(1, 10)  # not the float 0.1

    def test_csv_matrix(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("0,1,2\n1,0,1\n2,1,0\n")
        space = mio.load_space(path)
        assert space.n == 3 and space.dist[0][2] == 2


class TestExitCodes:
    def test_validate_ok(self, files, capsys):
        assert main(["validate", "--space", str(files / "line3.json")]) == EXIT_OK
        report = json.loads(capsys.readouterr().out)
        assert report["result"]["valid"] is True
        assert report["subcommand"] == "validate"
        assert report["inputs"][0]["sha256"]

    def test_validate_violation_exits_1(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        mio.write_json({"labels": ["a", "b", "c"], "dist": [[0, 1, 5], [1, 0, 1], [5, 1, 0]]}, bad)
        assert main(["validate", "--space", str(bad)]) == EXIT_MATH_FAILURE
        report = json.loads(capsys.readouterr().out)
        assert report["result"]["valid"] is False
        assert any(v["axiom"] == "triangle" for v in report["result"]["violations"])

    def test_garbage_exits_2(self, tmp_path):
        bad = tmp_path / "junk.json"
        bad.write_text("{nope")
        assert main(["validate", "--space", str(bad)]) == EXIT_INPUT_ERROR
        assert main(["validate", "--space", str(tmp_path / "absent.json")]) == EXIT_INPUT_ERROR

    def test_dimension_mismatch_exits_2(self, files, tmp_path):
        short = tmp_path / "short.json"
        mio.write_json({"weights": [1, 1]}, short)
        code = main(
            ["maximal", "--space", str(files / "line3.json"), "--measure", str(short), "--fn", str(files / "ind2.json")]
        )
        assert code == EXIT_INPUT_ERROR

    def test_gen_more_points_than_the_range_holds_exits_2(self, capsys):
        # the 1-D quarter-integer range [-10, 10] holds 81 distinct points
        argv = ["gen", "--family", "taxicab", "--n", "100", "--dim", "1", "--seed", "0"]
        assert main(argv) == EXIT_INPUT_ERROR
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1
        assert "holds only 81 distinct" in captured.err
        assert "Traceback" not in captured.err

    @pytest.mark.parametrize(
        "role, document",
        [
            ("space", {"dist": 5}),
            ("space", {"dist": [[0, 1], 7]}),
            ("space", {"labels": "ab", "dist": [[0, 1], [1, 0]]}),
            ("measure", {"weights": {"a": 1, "b": 1, "c": 1}}),
            ("fn", {"f": "001"}),
        ],
    )
    def test_malformed_document_exits_2(self, files, tmp_path, capsys, role, document):
        bad = tmp_path / "bad.json"
        mio.write_json(document, bad)
        paths = {"space": "line3.json", "measure": "uniform.json", "fn": "ind2.json"}
        argv = ["maximal"]
        for r, name in paths.items():
            argv += [f"--{r}", str(bad if r == role else files / name)]
        assert main(argv) == EXIT_INPUT_ERROR
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1
        assert "must be a list" in captured.err
        assert "Traceback" not in captured.err


class TestSubcommands:
    def test_maximal_report(self, files, capsys):
        code = main(
            [
                "maximal",
                "--space", str(files / "line3.json"),
                "--measure", str(files / "uniform.json"),
                "--fn", str(files / "ind2.json"),
            ]
        )
        assert code == EXIT_OK
        rows = json.loads(capsys.readouterr().out)["result"]["points"]
        by_label = {r["label"]: r for r in rows}
        assert by_label["0"]["centered"] == "1/3"
        assert by_label["1"]["centered"] == "1/3"
        assert by_label["1"]["noncentered"] == "1/2"
        assert by_label["1"]["noncentered_ball"] == ["1", "2"]
        assert by_label["2"]["noncentered"] == "1/1"

    def test_witness_line3(self, files, capsys):
        assert main(["witness", "--space", str(files / "line3.json")]) == EXIT_OK
        result = json.loads(capsys.readouterr().out)["result"]
        assert result["witness"]["noncentered"] == "1/2"
        assert result["witness"]["centered"] == "1/3"
        assert result["reverified"] is True

    def test_witness_on_ultrametric_exits_1(self, files, capsys):
        assert main(["witness", "--space", str(files / "eq3.json")]) == EXIT_MATH_FAILURE
        report = json.loads(capsys.readouterr().out)
        assert report["result"]["ultrametric"] is True

    def test_coincide_exact_equal_with_expect(self, files, capsys):
        code = main(
            [
                "coincide",
                "--space", str(files / "eq3.json"),
                "--measure", str(files / "uniform.json"),
                "--mode", "exact",
                "--expect", "equal",
            ]
        )
        assert code == EXIT_OK
        result = json.loads(capsys.readouterr().out)["result"]
        assert result["verdict"] == "equal"
        assert result["certificates"]

    def test_coincide_expect_mismatch_exits_1(self, files, capsys):
        code = main(
            [
                "coincide",
                "--space", str(files / "line3.json"),
                "--measure", str(files / "uniform.json"),
                "--mode", "exact",
                "--expect", "equal",
            ]
        )
        assert code == EXIT_MATH_FAILURE
        result = json.loads(capsys.readouterr().out)["result"]
        assert result["verdict"] == "distinct"
        assert result["witness"]
        # the ball {0, 1} around 0 holds 1 and 0 but not 2, as near to 1 as 0
        assert result["explanation"] == {"point": "1", "farthest": "0", "nearer": "2", "center": "0"}

    def test_coincide_randomized_seeded(self, files, capsys):
        argv = [
            "coincide",
            "--space", str(files / "line3.json"),
            "--measure", str(files / "uniform.json"),
            "--mode", "randomized",
            "--trials", "25",
            "--seed", "3",
        ]
        assert main(argv) == EXIT_OK
        first = json.loads(capsys.readouterr().out)
        assert main(argv) == EXIT_OK
        second = json.loads(capsys.readouterr().out)
        assert first == second
        assert first["seed"] == 3

    def test_lemma22_report(self, files, capsys):
        code = main(
            ["lemma22", "--space", str(files / "line3.json"), "--measure", str(files / "uniform.json")]
        )
        assert code == EXIT_OK
        result = json.loads(capsys.readouterr().out)["result"]
        assert result["all_inequalities_hold"] is False
        pair = next(p for p in result["pairs"] if p["x"] == "1" and p["y"] == "2")
        assert pair["measure_ball_y"] == "2/1"
        assert pair["measure_ball_x"] == "3/1"

    def test_lsc(self, files, tmp_path, capsys):
        seq = {
            "sequence": [["1/2", 0, "1/2"], ["3/4", 0, "1/4"], ["9/10", 0, "1/10"]],
            "limit": [1, 0, 0],
            "point": "0",
            "deviation_bound": "1/10",
        }
        path = tmp_path / "seq.json"
        mio.write_json(seq, path)
        code = main(
            [
                "lsc",
                "--space", str(files / "line3.json"),
                "--measure", str(files / "uniform.json"),
                "--sequence", str(path),
            ]
        )
        assert code == EXIT_OK
        result = json.loads(capsys.readouterr().out)["result"]
        assert result["tail_inequality_holds"] is True
        assert result["noncentered_values"] == ["1/2", "3/4", "9/10"]

    def test_demo_grid(self, capsys):
        assert main(["demo-grid", "--n", "10"]) == EXIT_OK
        result = json.loads(capsys.readouterr().out)["result"]
        assert result["centered"]["ratio"] == "11/21"
        assert result["noncentered"]["ratio"] == "11/12"
        assert result["gap"]["ratio"] == "11/28"
        assert result["matches_closed_form"] is True

    def test_balls(self, files, capsys):
        assert main(["balls", "--space", str(files / "line3.json")]) == EXIT_OK
        result = json.loads(capsys.readouterr().out)["result"]
        assert result["count"] == 6

    def test_gen_roundtrip_and_determinism(self, tmp_path, capsys):
        out1 = tmp_path / "s1.json"
        out2 = tmp_path / "s2.json"
        argv = ["gen", "--family", "ultrametric", "--n", "6", "--seed", "12"]
        assert main(argv + ["--out", str(out1)]) == EXIT_OK
        capsys.readouterr()
        assert main(argv + ["--out", str(out2)]) == EXIT_OK
        capsys.readouterr()
        assert out1.read_text() == out2.read_text()
        space = mio.load_space(out1)
        assert space.n == 6

    def test_gen_measure_and_fn_files(self, tmp_path, capsys):
        code = main(
            [
                "gen", "--family", "taxicab", "--n", "5", "--seed", "4",
                "--out", str(tmp_path / "s.json"),
                "--measure-out", str(tmp_path / "m.json"),
                "--fn-out", str(tmp_path / "f.json"),
            ]
        )
        assert code == EXIT_OK
        capsys.readouterr()
        space = mio.load_space(tmp_path / "s.json")
        mu = mio.load_measure(tmp_path / "m.json", space.n)
        f = mio.load_function(tmp_path / "f.json", space.n)
        assert mu.n == f.n == 5

    def test_env_seed_fallback(self, files, capsys, monkeypatch):
        monkeypatch.setenv("MAXLAB_SEED", "77")
        argv = [
            "coincide",
            "--space", str(files / "eq3.json"),
            "--measure", str(files / "uniform.json"),
            "--mode", "randomized",
            "--trials", "5",
        ]
        assert main(argv) == EXIT_OK
        report = json.loads(capsys.readouterr().out)
        assert report["seed"] == 77

    def test_out_file(self, files, tmp_path):
        out = tmp_path / "report.json"
        code = main(["validate", "--space", str(files / "line3.json"), "--out", str(out)])
        assert code == EXIT_OK
        assert json.loads(out.read_text())["result"]["valid"] is True
