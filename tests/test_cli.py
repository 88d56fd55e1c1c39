import contextlib
import io
import json
import math
import os
import re
import subprocess
import sys
import tempfile
import time
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from maxlab import (
    DiscreteMeasure,
    SampleFunction,
    gen_function,
    gen_measure,
    gen_ultrametric,
    line_space,
    validate_space,
)
from maxlab import cli
from maxlab import io as mio
from maxlab.cli import EXIT_INPUT_ERROR, EXIT_MATH_FAILURE, EXIT_OK, main
from maxlab.metric import MAX_VIOLATIONS, _integer_matrix

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
        with pytest.raises(mio.InputFormatError, match="refusing float scalar 0.5"):
            mio.parse_scalar(0.5)
        with pytest.raises(mio.InputFormatError, match=r"not a scalar: \[1\] \(list\)"):
            mio.parse_scalar([1])
        with pytest.raises(mio.InputFormatError):
            mio.parse_scalar("1/0")
        with pytest.raises(mio.InputFormatError):
            mio.parse_scalar("abc")
        with pytest.raises(mio.InputFormatError):
            mio.parse_scalar(True)

    # Fraction's own grammar is the reference for every string: the ASCII
    # [+-]digits[/digits] fast path must accept and reject exactly as it does.
    # A decimal past int()'s digit limit is rejected, and Fraction, which would
    # build a value of up to a million digits for 8 characters, is not asked.
    @given(
        st.one_of(
            st.text(alphabet="0123456789+-/ _.eE\t\u0663", max_size=8),
            st.builds("{}/{}".format, st.integers(-(10**30), 10**30), st.integers(-(10**6), 10**6)),
            st.integers(-(10**30), 10**30).map(str),
        )
    )
    @example("4E636509")
    @example(" 1_0e4_300")
    @example("1.5e-4299")
    @example("1e4299")
    @settings(max_examples=500)
    def test_parse_matches_fraction(self, text):
        if _past_digit_limit(text):
            with pytest.raises(mio.InputFormatError, match="digits"):
                mio.parse_scalar(text)
            return
        try:
            expected = Fraction(text.strip())
        except (ValueError, ZeroDivisionError):
            with pytest.raises(mio.InputFormatError):
                mio.parse_scalar(text)
        else:
            assert mio.parse_scalar(text) == expected

    @pytest.mark.parametrize("text", ["3/ 4", "3/-4", "3/+4", "3/0", "1_000", "\u0663", "1e3", "1.25"])
    def test_near_misses_of_the_fast_path(self, files, tmp_path, capsys, text):
        # int() alone would take the first three; Fraction rejects them
        measure = tmp_path / "m.json"
        mio.write_json({"weights": [text, 1, 1]}, measure)
        code = main(["lemma22", "--space", str(files / "line3.json"), "--measure", str(measure)])
        captured = capsys.readouterr()
        try:
            expected = Fraction(text)
        except (ValueError, ZeroDivisionError):
            assert code == EXIT_INPUT_ERROR
            assert captured.err.count("\n") == 1 and "Traceback" not in captured.err
        else:
            assert code == EXIT_OK
            assert mio.parse_scalar(text) == expected


DIGIT_LIMIT = getattr(sys, "get_int_max_str_digits", lambda: 0)() or 4300


def _past_digit_limit(text):
    """Whether text is a decimal whose unreduced numerator or denominator passes int()'s limit."""
    m = re.fullmatch(r"[+-]?(\d*)(?:\.(\d*))?[eE]([+-]?\d+)", text.strip().replace("_", ""))
    return m is not None and len(m[1]) + len(m[2] or "") + abs(int(m[3])) > DIGIT_LIMIT


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

    def test_csv_matches_json_twin(self, tmp_path):
        # repeated strings, and equal values written differently
        rows = [["0", "1/2", " 3/4", "1.25"], ["0.5", "0", "1/2", "3/4"],
                ["3/4", "1/2", "0", "1/2 "], ["5/4", "6/8", "1/2", "0"]]
        (tmp_path / "m.csv").write_text("".join(",".join(row) + "\n" for row in rows))
        labels = [f"p{i}" for i in range(4)]
        (tmp_path / "m.json").write_text(json.dumps({"labels": labels, "dist": rows}))
        from_csv = mio.load_space(tmp_path / "m.csv")
        from_json = mio.load_space(tmp_path / "m.json")
        assert from_csv == from_json == validate_space(
            [[Q(v.strip()) for v in row] for row in rows], labels=labels
        )


# A cell that no space loader may accept, and where it goes in a matrix of
# strings whose off-diagonal values each appear twice: at (0, 1), its first
# occurrence, or at (1, 0), where the valid "1/2" of (0, 1) would repeat.
BAD_CELLS = [True, False, math.nan, math.inf, -math.inf, "1//2", "1/2x", "", "1/0"]


class TestMemoizedCells:
    @pytest.mark.parametrize(
        "suffix, cell",
        [(".json", cell) for cell in BAD_CELLS]
        # a CSV cell is always a string
        + [(".csv", cell) for cell in BAD_CELLS if isinstance(cell, str)],
        ids=repr,
    )
    @pytest.mark.parametrize("where", [(0, 1), (1, 0)], ids=["first", "repeat"])
    def test_bad_cell_exits_2(self, tmp_path, suffix, cell, where):
        dist = [["0", "1/2", "1"], ["1/2", "0", "1/2"], ["1", "1/2", "0"]]
        dist[where[0]][where[1]] = cell
        path = tmp_path / f"space{suffix}"
        if suffix == ".csv":
            path.write_text("".join(",".join(row) + "\n" for row in dist))
        else:
            path.write_text(json.dumps({"dist": dist}))
        code, out, err = _run(["validate", "--space", str(path)])
        assert code == EXIT_INPUT_ERROR and out == ""
        assert err.count("\n") == 1 and err.startswith("maxlab: input error: ")

    def test_bool_after_equal_int(self, tmp_path):
        # True == 1 and hash(True) == hash(1): a memo keyed by value would let it through
        path = tmp_path / "space.json"
        path.write_text(json.dumps({"dist": [[0, 1, 1], [True, 0, 1], [1, 1, 0]]}))
        code, _, err = _run(["validate", "--space", str(path)])
        assert code == EXIT_INPUT_ERROR and "True" in err


# a literal of 5,000 digits, past int()'s default limit
LONG = "1" * 5000


def _too_long(text):
    """The one stderr line for a cell past the digit limit, which echoes 40 characters of it."""
    shown = text[:40] + "…" if len(text) > 40 else text
    return (
        f"maxlab: input error: cannot parse scalar {shown!r}:"
        f" more than {DIGIT_LIMIT} digits in its numerator or denominator\n"
    )


class TestDigitLimit:
    """A cell past int()'s digit limit exits 2 at parse time, named, through every entry."""

    def test_csv_space_cell(self, tmp_path):
        path = tmp_path / "space.csv"
        path.write_text("0,1e5000\n1e5000,0\n")
        code, out, err = _run(["validate", "--space", str(path)])
        assert code == EXIT_INPUT_ERROR and out == ""
        assert err == (
            "maxlab: input error: cannot parse scalar '1e5000':"
            f" more than {DIGIT_LIMIT} digits in its numerator or denominator\n"
        )

    def test_json_integer_space_cell(self, tmp_path):
        # json would pass the literal to int(), whose error names no cell
        path = tmp_path / "space.json"
        path.write_text(f'{{"dist": [[0, {LONG}], [{LONG}, 0]]}}')
        code, out, err = _run(["validate", "--space", str(path)])
        assert code == EXIT_INPUT_ERROR and out == ""
        assert err == _too_long(LONG)

    # a JSON string, and a JSON number literal, whose text the grammar reads; the
    # long ones skip Fraction's regex, or json would pass them to int()
    @pytest.mark.parametrize(
        "token",
        ['"1e5000"', "1e5000", LONG, json.dumps(LONG), json.dumps(f"1/{LONG}")],
        ids=["string", "number", "integer", "long-string", "long-denominator"],
    )
    def test_weight(self, files, tmp_path, token):
        path = tmp_path / "m.json"
        path.write_text(f'{{"weights": [{token}, 1, 1]}}')
        code, out, err = _run(["lemma22", "--space", str(files / "line3.json"), "--measure", str(path)])
        assert code == EXIT_INPUT_ERROR and out == ""
        assert err == _too_long(json.loads(token) if token.startswith('"') else token)

    def test_junk_cell_gives_one_short_line(self, files, tmp_path):
        # Fraction's own error repeats the whole literal; the line echoes 40 characters
        path = tmp_path / "m.json"
        path.write_text(json.dumps({"weights": ["x" * 5000, 1, 1]}))
        code, out, err = _run(["lemma22", "--space", str(files / "line3.json"), "--measure", str(path)])
        assert code == EXIT_INPUT_ERROR and out == ""
        assert err.count("\n") == 1 and err.endswith("\n") and len(err.encode()) < 120
        shown = "x" * 40 + "…"
        assert err == f"maxlab: input error: cannot parse scalar {shown!r}: not an integer, decimal or p/q\n"

    # each file passes the load-time bound, but a value the report derives from
    # them (an average over {0, 1}, the witness gap) has about twice the digits
    @pytest.mark.parametrize("subcommand", ["maximal", "coincide"])
    def test_report_value_past_the_limit(self, files, tmp_path, subcommand):
        big = "3" * (DIGIT_LIMIT - 1)
        mio.write_json({"weights": [big, 1, 1]}, tmp_path / "w.json")
        mio.write_json({"f": [big, 1, 1]}, tmp_path / "f.json")
        argv = [subcommand, "--space", str(files / "line3.json"), "--measure", str(tmp_path / "w.json")]
        argv += ["--fn", str(tmp_path / "f.json")] if subcommand == "maximal" else ["--mode", "randomized"]
        code, out, err = _run(argv)
        assert code == EXIT_INPUT_ERROR and out == ""
        assert err == (
            f"maxlab: input error: a report value passes {DIGIT_LIMIT} digits:"
            " the input values are too large together\n"
        )

    # each value parses, but over their common denominator 10**4000 the largest
    # is 10**8000: the vector is refused at load time, before any audit runs
    DERIVED = ["1e4000", "1e-4000", 1]

    @pytest.mark.parametrize("key", ["weights", "f"])
    def test_vector_past_the_limit_once_scaled(self, files, tmp_path, key):
        path = tmp_path / "big.json"
        path.write_text(json.dumps({key: self.DERIVED}))
        line3, uniform = str(files / "line3.json"), str(files / "uniform.json")
        argv = {
            "weights": ["lemma22", "--space", line3, "--measure", str(path)],
            "f": ["maximal", "--space", line3, "--measure", uniform, "--fn", str(path)],
        }[key]
        code, out, err = _run(argv)
        assert code == EXIT_INPUT_ERROR and out == ""
        assert err == (
            f"maxlab: input error: {path}: {key!r} passes {DIGIT_LIMIT} digits over its common denominator\n"
        )

    @pytest.mark.parametrize("key", ["sequence", "limit"])
    def test_sequence_past_the_limit_once_scaled(self, files, tmp_path, key):
        document = {"sequence": [[1, 1, 1]], "limit": [1, 1, 1], "point": "0", "deviation_bound": 1}
        if key == "sequence":
            document["sequence"].append(self.DERIVED)
        else:
            document["limit"] = self.DERIVED
        path = tmp_path / "seq.json"
        path.write_text(json.dumps(document))
        code, out, err = _run(
            ["lsc", "--space", str(files / "line3.json"), "--measure", str(files / "uniform.json"),
             "--sequence", str(path)]
        )
        assert code == EXIT_INPUT_ERROR and out == ""
        assert err.startswith(f"maxlab: input error: {path}: {key!r} passes {DIGIT_LIMIT} digits")
        assert err.count("\n") == 1

    # over denominator 1, three entries: 3 * 33...3 stays below 10**DIGIT_LIMIT,
    # and 3 * 44...4 reaches it
    @pytest.mark.parametrize("digit, loads", [("3", True), ("4", False)])
    def test_bound_at_the_limit(self, tmp_path, digit, loads):
        path = tmp_path / "f.json"
        path.write_text(json.dumps({"f": [digit * DIGIT_LIMIT, 1, 1]}))
        if loads:
            assert mio.load_function(path, 3).values[1] == 1
        else:
            with pytest.raises(mio.InputFormatError, match=f"'f' passes {DIGIT_LIMIT} digits"):
                mio.load_function(path, 3)


def _forms(q):
    """The ways a document may write q, as (JSON token, CSV text) pairs."""
    ratio = f"{q.numerator}/{q.denominator}"
    padded = f" {2 * q.numerator}/{2 * q.denominator} "  # unreduced, padded
    forms = [(json.dumps(ratio), ratio), (json.dumps(padded), padded)]
    if 10**6 % q.denominator == 0:
        scaled = abs(q.numerator) * (10**6 // q.denominator)
        decimal = f"{'-' if q < 0 else ''}{scaled // 10**6}.{scaled % 10**6:06d}"
        forms += [(json.dumps(decimal), decimal), (decimal, decimal)]  # a string, a JSON literal
    if q.denominator == 1:
        forms.append((str(q.numerator), str(q.numerator)))  # a JSON int
    return forms


@st.composite
def written_cells(draw, values, size):
    """`size` cells drawn from a few values, each written in a form of its own."""
    pool = draw(st.lists(values, min_size=1, max_size=4))
    return [draw(st.sampled_from(_forms(draw(st.sampled_from(pool))))) for _ in range(size)]


@st.composite
def written_spaces(draw):
    """The JSON and CSV texts of one metric: distances in [1, 2], few distinct, mixed forms."""
    n = draw(st.integers(1, 7))
    pool = draw(st.lists(st.fractions(1, 2, max_denominator=10), min_size=1, max_size=4))
    cells = [[draw(st.sampled_from(_forms(Fraction(0))))] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            # a distance and its mirror, each written in a form of its own
            q = draw(st.sampled_from(pool))
            cells[i][j], cells[j][i] = draw(st.lists(st.sampled_from(_forms(q)), min_size=2, max_size=2))
    tokens = ", ".join("[" + ", ".join(token for token, _ in row) + "]" for row in cells)
    labels = json.dumps([f"x{i}" for i in range(n)])
    return (
        f'{{"labels": {labels}, "dist": [{tokens}]}}',
        "".join(",".join(text for _, text in row) + "\n" for row in cells),
    )


class TestIngestion:
    """The loaders against parse_scalar of every cell of the same documents."""

    @given(documents=written_spaces())
    @settings(max_examples=80, deadline=None)
    def test_space_matches_per_cell_parse(self, tmp_path_factory, documents):
        json_text, csv_text = documents
        tmp = tmp_path_factory.mktemp("ingest")
        (tmp / "s.json").write_text(json_text)
        (tmp / "s.csv").write_text(csv_text)
        document = json.loads(json_text, parse_float=Fraction)
        for path, rows, labels in (
            (tmp / "s.json", document["dist"], document["labels"]),
            (tmp / "s.csv", [line.split(",") for line in csv_text.splitlines()], None),
        ):
            loaded = mio.load_space(path)
            expected = validate_space([[mio.parse_scalar(c) for c in row] for row in rows], labels)
            assert loaded.labels == expected.labels
            assert loaded.dist == expected.dist
            assert all(type(v) is Fraction for row in loaded.dist for v in row)
            assert loaded.int_dist == _integer_matrix(loaded.dist)

    @given(
        weights=st.integers(0, 9).flatmap(
            lambda n: written_cells(st.fractions(0, 3, max_denominator=10), n)
        ),
        values=st.integers(0, 9).flatmap(
            lambda n: written_cells(st.fractions(-3, 3, max_denominator=10), n)
        ),
    )
    @settings(max_examples=60, deadline=None)
    def test_vectors_match_per_entry_parse(self, tmp_path_factory, weights, values):
        tmp = tmp_path_factory.mktemp("vectors")
        for key, cells, load in (
            ("weights", weights, lambda p: mio.load_measure(p).weights),
            ("f", values, lambda p: mio.load_function(p).values),
        ):
            path = tmp / f"{key}.json"
            path.write_text(f'{{"{key}": [{", ".join(token for token, _ in cells)}]}}')
            raw = json.loads(path.read_text(), parse_float=Fraction)[key]
            assert load(path) == tuple(mio.parse_scalar(c) for c in raw)

    # (first, second): the bad cells at (0, 2) and (1, 0), with a valid 1 at (0, 1)
    @pytest.mark.parametrize(
        "first, second",
        [("x", "y"), ("1/0", "1//2"), (True, "y"), ("y", True), ([1], "y"), ("y", [1]), (None, {"a": 1})],
        ids=repr,
    )
    def test_first_bad_cell_in_row_major_order_is_named(self, tmp_path, first, second):
        dist = [[0, 1, first], [second, 0, 1], [1, 1, 0]]
        paths = [tmp_path / "s.json"]
        paths[0].write_text(json.dumps({"dist": dist}))
        if isinstance(first, str) and isinstance(second, str):
            paths.append(tmp_path / "s.csv")
            paths[1].write_text("".join(",".join(map(str, row)) + "\n" for row in dist))
        for path in paths:
            with pytest.raises(mio.InputFormatError) as info:
                mio.load_space(path)
            assert repr(first) in str(info.value) and repr(second) not in str(info.value)


class TestParserReuse:
    def test_consecutive_calls_parse_independently(self, files, monkeypatch):
        seen = []

        def record(args, seed):
            seen.append(vars(args))
            return {}

        for name in ("coincide", "gen", "demo-grid"):
            monkeypatch.setitem(cli._HANDLERS, name, record)
        space, measure = str(files / "line3.json"), str(files / "uniform.json")
        runs = [
            ["coincide", "--space", space, "--measure", measure, "--mode", "randomized",
             "--trials", "5", "--expect", "equal", "--seed", "3"],
            ["coincide", "--space", space, "--measure", measure],
            ["gen", "--family", "taxicab", "--n", "4", "--dim", "3", "--seed", "1"],
            ["demo-grid", "--n", "3"],
            ["coincide", "--space", space, "--measure", measure, "--trials", "7"],
        ]
        for argv in runs:
            assert _run(argv)[0] == EXIT_OK
        assert seen == [vars(cli.build_parser().parse_args(argv)) for argv in runs]
        assert [args["mode"] for args in seen if args["subcommand"] == "coincide"] == [
            "randomized", "exact", "exact"
        ]


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
        assert "truncated" not in report["result"]  # only a cut list says so

    def test_validate_lists_at_most_max_violations(self, tmp_path, capsys):
        # squared distances on a 13 x 13 grid break the triangle inequality 544,188 times
        grid = [(i, j) for i in range(13) for j in range(13)]
        bad = tmp_path / "squared.json"
        mio.write_json({"dist": [[(a - c) ** 2 + (b - d) ** 2 for c, d in grid] for a, b in grid]}, bad)
        start = time.perf_counter()
        assert main(["validate", "--space", str(bad)]) == EXIT_MATH_FAILURE
        assert time.perf_counter() - start < 1
        result = json.loads(capsys.readouterr().out)["result"]
        assert len(result["violations"]) == MAX_VIOLATIONS == 1000
        assert result["truncated"] is True

    def test_env_seed_not_an_integer_exits_2(self, files, monkeypatch):
        monkeypatch.setenv("MAXLAB_SEED", "abc")
        code, out, err = _run(["validate", "--space", str(files / "line3.json")])
        assert code == EXIT_INPUT_ERROR and out == ""
        assert err == "maxlab: input error: MAXLAB_SEED='abc' is not an integer\n"

    def test_axiom_violation_outside_validate_exits_2(self, files, tmp_path):
        # only `validate` reports violations (exit 1); to the others the file is bad input
        bad = tmp_path / "bad.json"
        mio.write_json({"labels": ["a", "b", "c"], "dist": [[0, 1, 5], [1, 0, 1], [5, 1, 0]]}, bad)
        code, out, err = _run(
            ["maximal", "--space", str(bad), "--measure", str(files / "uniform.json"), "--fn", str(files / "ind2.json")]
        )
        assert code == EXIT_INPUT_ERROR and out == ""
        assert err.count("\n") == 1
        assert err.startswith("maxlab: input error: 1 metric axiom violation(s): dist[0][2] = 5 > ")

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
        # one certificate per (point, containing ball), naming the centered ball with its trace
        assert len(result["certificates"]) == 6
        assert {"point": "a", "ball": ["a", "b", "c"], "centered_ball": ["a", "b", "c"]} in result[
            "certificates"
        ]
        assert all(set(cert) == {"point", "ball", "centered_ball"} for cert in result["certificates"])

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

    @pytest.mark.parametrize(
        "point, code, label",
        [(1, EXIT_OK, "b"), ("2", EXIT_OK, "c"), (3, EXIT_INPUT_ERROR, None), (-1, EXIT_INPUT_ERROR, None)],
    )
    def test_lsc_point_as_index(self, files, tmp_path, point, code, label):
        # the points are labeled a, b, c, so a number is read as an index
        seq = {"sequence": [[1, 1, 1]], "limit": [1, 1, 1], "point": point, "deviation_bound": 0}
        path = tmp_path / "seq.json"
        mio.write_json(seq, path)
        argv = ["lsc", "--space", str(files / "eq3.json"), "--measure", str(files / "uniform.json")]
        got, out, err = _run(argv + ["--sequence", str(path)])
        assert got == code
        if label is None:
            assert out == "" and err == f"maxlab: input error: point index {point} out of range\n"
        else:
            assert json.loads(out)["result"]["point"] == label

    @pytest.mark.parametrize(
        "sequence",
        [[["1/2", 0, 0], ["1/4", 0, 0]], [["1/2", 0, 0], ["1/4", 0, 0], [0, 0, 0]]],
    )
    def test_lsc_converging_to_zero(self, files, tmp_path, capsys, sequence):
        # nu(B)/mu(B) = 0 for every ball: a zero limit or element needs no support
        seq = {"sequence": sequence, "limit": [0, 0, 0], "point": "1", "deviation_bound": "1/4"}
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
        assert result["noncentered_limit"] == result["centered_limit"] == "0/1"
        assert result["noncentered_values"][:2] == ["1/4", "1/8"]
        assert result["centered_values"][:2] == ["1/6", "1/12"]

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


# Well-formed documents on a 3-point space labeled a, b, c; the fuzz below
# breaks exactly one of them at a time.
GOOD_DOCUMENTS = {
    "space": {"labels": ["a", "b", "c"], "dist": [[0, 1, 2], [1, 0, 1], [2, 1, 0]]},
    "measure": {"weights": [1, 1, 1]},
    "fn": {"f": [0, 0, 1]},
    "sequence": {
        "sequence": [[2, 1, 1], [1, 1, 1]],
        "limit": [1, 1, 1],
        "point": "b",
        "deviation_bound": 0,
    },
}

# Every subcommand that reads documents, with the roles it reads.
DOCUMENT_ROLES = {
    "validate": ("space",),
    "balls": ("space",),
    "maximal": ("space", "measure", "fn"),
    "coincide": ("space", "measure"),
    "witness": ("space",),
    "lemma22": ("space", "measure"),
    "lsc": ("space", "measure", "sequence"),
}


def _parses(text):
    try:
        Fraction(text.strip())
    except (ValueError, ZeroDivisionError):
        return False
    return True


NOT_A_SCALAR = st.one_of(
    st.none(),
    st.booleans(),
    st.sampled_from([math.nan, math.inf, -math.inf]),
    st.text(max_size=6).filter(lambda t: not _parses(t)),
    st.lists(st.integers(-3, 3), max_size=2),
    st.dictionaries(st.text(max_size=2), st.integers(-3, 3), max_size=2),
)
NOT_A_LIST = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-3, 3),
    st.text(max_size=6),
    st.dictionaries(st.text(max_size=2), st.integers(-3, 3), max_size=2),
)
# iterables, not lists, whose items would parse as the three scalars of a row
SCALAR_ITERABLES = st.sampled_from(["111", {"1": 0, "2": 0, "3": 0}])
NOT_AN_OBJECT = st.one_of(
    st.none(), st.integers(-3, 3), st.text(max_size=6), st.lists(st.integers(-3, 3), max_size=3)
)


def _vector_breaks(vector):
    """A list of scalars made malformed: one entry junk, or the wrong length."""
    n = len(vector)
    return st.one_of(
        st.tuples(st.integers(0, n - 1), NOT_A_SCALAR).map(
            lambda pair: [pair[1] if i == pair[0] else v for i, v in enumerate(vector)]
        ),
        st.sampled_from([vector[:-1], vector + [1]]),
    )


# What each field of a document holds; every field but "labels" is required.
FIELDS = {
    "space": {"dist": "matrix", "labels": "labels"},
    "measure": {"weights": "weights"},
    "fn": {"f": "vector"},
    "sequence": {"sequence": "matrix", "limit": "vector", "point": "point", "deviation_bound": "scalar"},
}


def _broken_field(kind, value):
    """A strategy for a value of the field that no loader may accept."""
    if kind == "matrix":
        row = st.integers(0, len(value) - 1)
        broken_row = st.tuples(
            row, st.one_of(NOT_A_LIST, SCALAR_ITERABLES, _vector_breaks(value[0]))
        )
        # one cell broken in a matrix of ints or of strings, whose repeated
        # values a loader may parse once; the cell may come first or repeat
        broken_cell = st.tuples(row, row, NOT_A_SCALAR, st.booleans()).map(
            lambda p: [
                [p[2] if (i, j) == p[:2] else str(v) if p[3] else v for j, v in enumerate(r)]
                for i, r in enumerate(value)
            ]
        )
        return st.one_of(
            NOT_A_LIST,
            broken_row.map(lambda p: [p[1] if i == p[0] else r for i, r in enumerate(value)]),
            broken_cell,
        )
    if kind in ("vector", "weights"):
        broken = st.one_of(NOT_A_LIST, SCALAR_ITERABLES, _vector_breaks(value))
        if kind == "weights":
            # a measure needs nonnegative weights and a nonempty support
            return st.one_of(broken, st.sampled_from([[0, 0, 0], [1, -1, 1], [-1, -1, -1]]))
        return broken
    if kind == "labels":
        return st.one_of(
            st.sampled_from([["a", "a", "b"], ["a", "b"], ["a", "b", "c", "d"], [1, 2, 3]]),
            NOT_A_LIST.filter(lambda v: v is not None),  # absent labels are allowed
        )
    if kind == "point":
        return NOT_A_SCALAR.filter(lambda v: str(v) not in ("a", "b", "c", "0", "1", "2"))
    return NOT_A_SCALAR


@st.composite
def malformed_documents(draw, role):
    """A document of the role that no loader may accept."""
    fields = FIELDS[role]
    kind = draw(st.sampled_from(["not an object", "missing field", "broken field"]))
    if kind == "not an object":
        return draw(NOT_AN_OBJECT)
    document = json.loads(json.dumps(GOOD_DOCUMENTS[role]))
    if kind == "missing field":
        del document[draw(st.sampled_from([k for k in fields if k != "labels"]))]
    else:
        key = draw(st.sampled_from(sorted(fields)))
        document[key] = draw(_broken_field(fields[key], document[key]))
    return document


def _run(argv):
    """Exit code, stdout and stderr of one in-process CLI run."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def _run_documents(subcommand, replaced):
    """_run on the good documents of every role the subcommand reads, some replaced."""
    documents = {**GOOD_DOCUMENTS, **replaced}
    with tempfile.TemporaryDirectory() as tmp:
        argv = [subcommand]
        for role in DOCUMENT_ROLES[subcommand]:
            path = Path(tmp) / f"{role}.json"
            path.write_text(json.dumps(documents[role]))
            argv += [f"--{role}", str(path)]
        return _run(argv)


class TestMalformedFuzz:
    """Every malformed document exits 2 with one stderr line and no traceback."""

    @pytest.mark.parametrize(
        "subcommand, role", [(sub, role) for sub, roles in DOCUMENT_ROLES.items() for role in roles]
    )
    @given(data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_documents(self, subcommand, role, data):
        document = data.draw(malformed_documents(role))
        code, out, err = _run_documents(subcommand, {role: document})
        assert code == EXIT_INPUT_ERROR, (document, err)
        assert out == ""
        assert err.count("\n") == 1 and err.startswith("maxlab: input error: ")
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "key, value",
        [("limit", "111"), ("sequence", ["211", "111"]), ("sequence", [[2, 1, 1], "111"])],
    )
    def test_sequence_rows_must_be_lists(self, key, value):
        # iterating these yields three parseable scalars, so they once passed as rows
        document = dict(GOOD_DOCUMENTS["sequence"], **{key: value})
        code, out, err = _run_documents("lsc", {"sequence": document})
        assert code == EXIT_INPUT_ERROR and out == "" and err.count("\n") == 1

    def test_invalid_json_sequence_names_the_file(self, files):
        # the sequence file goes through the loader every other document uses
        bad = files / "sequence.json"
        bad.write_text("{nope")
        space, measure = str(files / "line3.json"), str(files / "uniform.json")
        code, out, err = _run(["lsc", "--space", space, "--measure", measure, "--sequence", str(bad)])
        assert code == EXIT_INPUT_ERROR and out == "" and err.count("\n") == 1
        assert err.startswith(f"maxlab: input error: {bad}: invalid JSON: ")

    def test_good_documents_pass(self):
        # the fuzz breaks these; unbroken, every subcommand accepts them
        for subcommand in DOCUMENT_ROLES:
            assert _run_documents(subcommand, {})[0] == EXIT_OK, subcommand

    @given(
        st.one_of(
            st.integers(-3, 1).map(lambda n: ["demo-grid", "--n", str(n)]),
            st.integers(-3, 0).map(lambda n: ["gen", "--family", "ultrametric", "--n", str(n)]),
            st.sampled_from(
                [
                    ["gen", "--family", "taxicab", "--n", "3", "--dim", "0"],
                    ["gen", "--family", "graph", "--n", "3", "--edge-prob", "2"],
                    ["gen", "--family", "graph", "--n", "3", "--measure-out", "m.json",
                     "--zero-fraction", "1"],
                ]
            ),
        )
    )
    @settings(max_examples=30, deadline=None)
    def test_arguments_of_document_free_subcommands(self, argv):
        with tempfile.TemporaryDirectory() as tmp:
            argv = [str(Path(tmp) / a) if a.endswith(".json") else a for a in argv]
            code, out, err = _run(argv)
        assert code == EXIT_INPUT_ERROR
        assert err.count("\n") == 1 and "Traceback" not in err


# Every subcommand but gen, with the documents it reads on the star with hub and
# leaves l1, l2, l3 (not ultrametric, so witness finds a witness).
STAR4_RUNS = {
    "validate": ("space",),
    "balls": ("space",),
    "maximal": ("space", "measure", "fn"),
    "coincide": ("space", "measure"),
    "coincide-randomized": ("space", "measure"),
    "witness": ("space",),
    "lemma22": ("space", "measure"),
    "lsc": ("space", "measure", "sequence"),
    "demo-grid": (),
}


class TestReportDestinations:
    """stdout and --out get the same bytes; an unwritable destination exits 2 with one line."""

    @pytest.fixture()
    def star4(self, tmp_path):
        documents = {
            "space": {
                "labels": ["hub", "l1", "l2", "l3"],
                "dist": [[0, 1, 1, 1], [1, 0, 2, 2], [1, 2, 0, 2], [1, 2, 2, 0]],
            },
            "measure": {"weights": [1, 2, 0, "1/2"]},
            "fn": {"f": [0, 3, -1, "7/3"]},
            "sequence": {
                "sequence": [[1, 2, "1/2", "1/2"], [1, 2, "1/4", "1/2"]],
                "limit": [1, 2, 0, "1/2"],
                "point": "l1",
                "deviation_bound": "1/2",
            },
        }
        for role, document in documents.items():
            mio.write_json(document, tmp_path / f"{role}.json")
        return tmp_path

    @pytest.mark.parametrize("name", sorted(STAR4_RUNS))
    def test_stdout_and_out_agree(self, star4, name):
        argv = [name.split("-randomized")[0], "--seed", "3"]
        argv += ["--mode", "randomized"] if name == "coincide-randomized" else []
        argv += ["--n", "5"] if name == "demo-grid" else []
        for role in STAR4_RUNS[name]:
            argv += [f"--{role}", str(star4 / f"{role}.json")]
        code, out, err = _run(argv)
        assert code == EXIT_OK and err == "" and out.startswith("{\n")
        report = star4 / "report.json"
        assert _run(argv + ["--out", str(report)]) == (code, "", err)
        assert report.read_bytes() == out.encode("utf-8")

    @pytest.mark.parametrize("where", ["missing folder", "a folder"])
    def test_unwritable_out_exits_2(self, files, tmp_path, where):
        dest = tmp_path / "missing" / "r.json" if where == "missing folder" else tmp_path
        argv = ["maximal", "--space", str(files / "line3.json"), "--measure", str(files / "uniform.json")]
        code, out, err = _run(argv + ["--fn", str(files / "ind2.json"), "--out", str(dest)])
        assert code == EXIT_INPUT_ERROR and out == ""
        assert err.startswith(f"maxlab: cannot write {dest}: ") and err.count("\n") == 1

    @pytest.mark.parametrize("flag", ["--out", "--measure-out", "--fn-out"])
    def test_gen_unwritable_file_exits_2(self, tmp_path, flag):
        dest = tmp_path / "missing" / "x.json"
        code, out, err = _run(["gen", "--family", "taxicab", "--n", "4", flag, str(dest)])
        assert code == EXIT_INPUT_ERROR and out == ""
        assert err == f"maxlab: cannot write {dest}: No such file or directory\n"

    def test_closed_stdout_exits_2(self, files):
        # a reader that is gone before the report is written, as in `maxlab ... | head -c 0`
        read_end, write_end = os.pipe()
        os.close(read_end)
        argv = ["maximal", "--space", str(files / "line3.json"), "--measure", str(files / "uniform.json")]
        env = {**os.environ, "PYTHONPATH": str(Path(mio.__file__).resolve().parents[1])}
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "maxlab.cli", *argv, "--fn", str(files / "ind2.json")],
                stdout=write_end, stderr=subprocess.PIPE, env=env, timeout=60,
            )
        finally:
            os.close(write_end)
        assert proc.returncode == EXIT_INPUT_ERROR
        assert proc.stderr.decode() == "maxlab: cannot write stdout: Broken pipe\n"
