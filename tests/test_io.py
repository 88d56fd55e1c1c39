"""The report writer against the json module: `write_json` must write exactly
`json.dumps(obj, indent=2) + "\\n"`, to a path and to a text stream alike."""

import enum
import hashlib
import importlib.util
import io
import json
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from maxlab import io as mio
from maxlab import maximal_field

# quotes, backslashes, control characters, non-ASCII and astral characters
TRICKY = st.sampled_from(['"', "\\", "\x00", "\x1f", "\x7f", "\n", "\t", "é", "€", " ", "😀", "\U0010ffff"])
STRINGS = st.text(st.one_of(TRICKY, st.characters()), max_size=8)
INTS = st.one_of(st.integers(-9, 9), st.integers(-(2**80), 2**80))  # past 64 bits both ways
SCALARS = st.one_of(st.none(), st.booleans(), INTS, st.floats(), STRINGS)
KEYS = st.one_of(STRINGS, st.integers(-9, 9), st.booleans(), st.none(), st.floats())
TREES = st.recursive(
    SCALARS,
    lambda kids: st.one_of(
        st.lists(kids, max_size=5),
        st.lists(kids, max_size=5).map(tuple),
        st.dictionaries(KEYS, kids, max_size=5),
        st.lists(st.one_of(st.integers(-3, 3), st.booleans()), max_size=6),  # ints mixed with bools
        st.lists(STRINGS, max_size=6),
        st.lists(INTS, max_size=6),
    ),
    max_leaves=30,
)


class Level(enum.IntEnum):
    LOW = 1
    HIGH = 2


class Label(str):
    pass


class Ratio(float):
    pass


def written(obj, tmp_path: Path) -> tuple[bytes, str]:
    path = tmp_path / "w.json"
    mio.write_json(obj, path)
    stream = io.StringIO()
    mio.write_json(obj, stream)
    return path.read_bytes(), stream.getvalue()


@given(TREES)
@settings(max_examples=400, deadline=None)
def test_same_bytes_as_json_dumps(tmp_path_factory, obj):
    expected = json.dumps(obj, indent=2) + "\n"
    to_path, to_stream = written(obj, tmp_path_factory.mktemp("w"))
    assert to_stream == expected
    assert to_path == expected.encode("utf-8")


@pytest.mark.parametrize(
    "obj",
    [
        [],
        {},
        [[], {}, [[]], {"a": {}}],
        {"a": [1, True, 2, False, None], "b": [0, False, 1, True]},
        [1.5, float("nan"), float("inf"), -float("inf"), -0.0, 1e300],
        {1: "int", 2.5: "float", True: "bool", None: "none"},
        {"records": [{"label": "a", "ball": ["a", "b"], "ids": [1, 2]}], "deep": [[[1], [2, [3]]]]},
        [2**64, -(2**64) - 1, 10**40],
        [Level.HIGH, Label("x"), Ratio(0.5), {Label("k"): [Level.LOW, Label("y")]}],  # subclasses
    ],
)
def test_pinned_shapes(tmp_path, obj):
    expected = json.dumps(obj, indent=2) + "\n"
    assert written(obj, tmp_path) == (expected.encode("utf-8"), expected)


@pytest.mark.parametrize(
    "obj",
    [{1, 2}, Fraction(1, 2), [1, {2}], {"a": [Fraction(1, 3)]}, {"k": {"j": [[Fraction(1)]]}}, {(1, 2): 1}],
)
def test_refuses_what_json_dumps_refuses(tmp_path, obj):
    with pytest.raises(TypeError):
        json.dumps(obj, indent=2)
    with pytest.raises(TypeError):
        mio.write_json(obj, io.StringIO())
    with pytest.raises(TypeError):
        mio.write_json(obj, tmp_path / "r.json")


def _bench_inputs():
    """bench/inputs.py, which builds the benchmark's seeded input files."""
    path = Path(__file__).resolve().parents[1] / "bench" / "inputs.py"
    spec = importlib.util.spec_from_file_location("bench_inputs", path)
    module = sys.modules.setdefault("bench_inputs", importlib.util.module_from_spec(spec))
    spec.loader.exec_module(module)
    return module


# sha256 of the `maximal` results of the three seed-1 inputs of each workload, as
# json.dumps(result, indent=2) + "\n" wrote them
PINNED = {
    "ultra": (
        "38ea2d35ccbc2bbc06934ace1df807cdcbd761285eb8f564800133c43222628d",
        "1eb6eae84e7a70f4c04ece397860f07d41171fd9d3b14c87e1a16991c7665fdf",
        "3971a4aac3f6f4d376aaf51e2a9d175d26607f95a8185be4819a60b59d184d25",
    ),
    "nonultra": (
        "120a64c964fd076fb9be4ab7929b0fe91c409335730b2c0ce2ecabaa6bff1f6c",
        "c17f8ac4a32078c4035572701a28c9d315403010683a71601a461072070f725c",
        "2973da43e23b210fb64c841a3bc99a0af9e8411aa9776fb11bbe97ac04b530fa",
    ),
}


@pytest.mark.parametrize("workload", sorted(PINNED))
def test_pinned_maximal_reports(tmp_path, workload):
    bundles, _ = _bench_inputs().build(workload, 1, tmp_path)
    for b, digest in zip(bundles, PINNED[workload], strict=True):
        space = mio.load_space(b.space)
        mu, f = mio.load_measure(b.measure, space.n), mio.load_function(b.fn, space.n)
        result = {"points": mio.maximal_report_to_json(maximal_field(f, mu, space), space)}
        to_path, to_stream = written(result, tmp_path)
        assert to_stream == json.dumps(result, indent=2) + "\n"
        assert hashlib.sha256(to_path).hexdigest() == digest
