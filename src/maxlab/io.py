"""File formats and exact scalar serialization.

Wire grammar for scalars: `metric.as_rational`'s, the one grammar of the
package: an integer, a decimal string ("1.25", "1e-3") or a "p/q" string. JSON
floats are intercepted at parse time and read from their literal text by the
same grammar, so no binary rounding ever happens. Emitted
scalars are canonical "p/q" strings; reports add an auxiliary decimal
rendering for human eyes only.

Space file: {"labels": [str], "dist": [[scalar]]}  (or a CSV distance matrix).
Measure / function file: {"weights": [scalar]} / {"f": [scalar]}.
Sequence file: {"sequence": [[scalar]], "limit": [scalar], "point": label or
index, "deviation_bound": scalar}.

The loaders parse each distinct cell of a file once, in first-occurrence
order, so an error names the first bad cell. A space's Fraction matrix and its
lcm-scaled integer copy (`int_dist`) are both mapped from that table of
distinct cells, and validation reads the integer copy.

Every report and generated file leaves through `write_json`, to a path or a
text stream, as exactly `json.dumps(data, indent=2)` plus a newline. A record
(a container of scalars, or a dict of scalars and such containers) is encoded
whole, its string and int lists joined in C; the levels above it are streamed
one child at a time.
"""

from __future__ import annotations

import csv
import hashlib
import json
from contextlib import nullcontext
from fractions import Fraction
from itertools import chain, repeat
from json.encoder import encode_basestring_ascii
from os import PathLike
from pathlib import Path
from typing import Any, Callable, Iterator, TextIO

from .measure import DiscreteMeasure, SampleFunction
from .metric import Ball, BallFamily, FiniteMetricSpace, as_rational
from .metric import _checked_space, _digit_limit, _scaled
from .maximal import MaximalReport
from .theorems import (
    BallInfimumReport,
    CoincidenceVerdict,
    GridDemoReport,
    LowerSemicontinuityReport,
    Witness,
)

__all__ = [
    "parse_scalar",
    "scalar_str",
    "scalar_decimal",
    "scalar_json",
    "load_space",
    "load_measure",
    "load_function",
    "load_sequence",
    "space_to_json",
    "measure_to_json",
    "function_to_json",
    "family_to_json",
    "maximal_report_to_json",
    "witness_to_json",
    "verdict_to_json",
    "ball_infimum_report_to_json",
    "lsc_report_to_json",
    "grid_demo_to_json",
    "file_sha256",
    "write_json",
]


class InputFormatError(ValueError):
    """Malformed input file or scalar."""


def parse_scalar(value: Any) -> Fraction:
    """metric.as_rational, the one scalar grammar, with its errors as InputFormatError."""
    try:
        return as_rational(value)
    except TypeError as exc:
        raise InputFormatError(str(exc)) from None
    except (ValueError, ZeroDivisionError) as exc:
        shown = value[:40] + "…" if isinstance(value, str) and len(value) > 40 else value
        raise InputFormatError(f"cannot parse scalar {shown!r}: {exc}") from None


def scalar_str(q: Fraction) -> str:
    """Canonical exact rendering 'p/q'; a part past int()'s digit limit is an InputFormatError."""
    try:
        return f"{q.numerator}/{q.denominator}"
    except ValueError:  # int()'s digit limit, which each input value passed alone
        raise InputFormatError(
            f"a report value passes {_digit_limit()} digits: the input values are too large together"
        ) from None


def scalar_decimal(q: Fraction, digits: int = 12) -> str:
    """Auxiliary decimal rendering; display only, never parsed back."""
    try:
        return format(float(q), f".{digits}g")
    except OverflowError:
        return "overflow"


def scalar_json(q: Fraction) -> dict[str, str]:
    return {"ratio": scalar_str(q), "decimal": scalar_decimal(q)}


class _Literals(dict):
    """Literal text -> Fraction, parsing each distinct literal once."""

    def __missing__(self, text: str) -> Fraction:
        q = self[text] = parse_scalar(text)
        return q


def _load_json(path: Path) -> Any:
    limit = _digit_limit()
    with open(path, "r", encoding="utf-8") as fh:
        try:
            # parse_float receives the literal text, so decimals convert exactly;
            # equal literals share one Fraction, which a cell table then finds by identity.
            # An integer literal too long for int() gets the grammar's message, not int()'s.
            whole = lambda t: int(t) if len(t) <= limit else parse_scalar(t).numerator  # noqa: E731
            return json.load(fh, parse_float=_Literals().__getitem__, parse_int=whole)
        except json.JSONDecodeError as exc:
            raise InputFormatError(f"{path}: invalid JSON: {exc}") from None


def _scalar_table(cells: list[Any]) -> dict[Any, Fraction]:
    """parse_scalar of each distinct cell, keyed by the cell, in first-occurrence order.

    So the first bad cell of the list is the one an error names. A JSON `true`
    equals 1 and would merge with an earlier 1, and a list or an object cannot
    be a key; either is a bad cell, and sends the list through cell by cell.
    """
    try:
        table = dict.fromkeys(cells)
    except TypeError:  # an unhashable cell
        table = None
    if table is None or ((0 in table or 1 in table) and bool in set(map(type, cells))):
        return {v: parse_scalar(v) for v in cells}
    for v in table:
        table[v] = parse_scalar(v)
    return table


def load_space(path: str | Path) -> FiniteMetricSpace:
    """Space from a JSON file ({"labels","dist"}) or a CSV distance matrix."""
    p = Path(path)
    if p.suffix.lower() == ".csv":
        with open(p, newline="", encoding="utf-8") as fh:
            dist, labels = [row for row in csv.reader(fh) if row], None
        if not dist:
            raise InputFormatError(f"{p}: empty CSV matrix")
    else:
        data = _load_json(p)
        if not isinstance(data, dict) or "dist" not in data:
            raise InputFormatError(f"{p}: expected an object with a 'dist' matrix")
        dist, labels = data["dist"], data.get("labels")
        if not (isinstance(dist, list) and all(isinstance(row, list) for row in dist)):
            raise InputFormatError(f"{p}: 'dist' must be a list of lists")
        if labels is not None and not (
            isinstance(labels, list) and all(isinstance(label, str) for label in labels)
        ):
            raise InputFormatError(f"{p}: 'labels' must be a list of strings")
    table = _scalar_table(list(chain.from_iterable(dist)))
    # the lcm of the distinct values' denominators is that of the whole matrix
    ints, _ = _scaled(list(table.values()))
    scaled = dict(zip(table, ints))
    return _checked_space(
        tuple(tuple(map(table.__getitem__, row)) for row in dist),
        labels,
        tuple(tuple(map(scaled.__getitem__, row)) for row in dist),
    )


def _bounded(path: Path, key: str, cells: list[Any]) -> tuple[Fraction, ...]:
    """The scalars of a vector file's list, unless their scaled sums could pass the digit limit.

    The operators sum the values times the lcm of their denominators, one per point. If
    that lcm or the largest scaled magnitude, times the point count, reaches 10**`_digit_limit()`,
    an InputFormatError names the file and key. Products across two passing files are out of scope.
    """
    table = _scalar_table(cells)
    values = tuple(map(table.__getitem__, cells))
    ints, scale = _scaled(values)
    limit = _digit_limit()
    bound = max([scale, *map(abs, ints)]) * len(values)
    # 2**(3 limit) < 10**limit, so only a bound past 3 limit bits builds the power
    if bound.bit_length() > 3 * limit and bound >= 10**limit:
        raise InputFormatError(f"{path}: {key!r} passes {limit} digits over its common denominator")
    return values


def _load_vector(path: str | Path, key: str, n: int | None) -> tuple[Fraction, ...]:
    p = Path(path)
    data = _load_json(p)
    if not isinstance(data, dict) or key not in data:
        raise InputFormatError(f"{p}: expected an object with a {key!r} array")
    if not isinstance(data[key], list):
        raise InputFormatError(f"{p}: {key!r} must be a list")
    values = _bounded(p, key, data[key])
    if n is not None and len(values) != n:
        raise InputFormatError(f"{p}: {key!r} has {len(values)} entries, expected {n}")
    return values


def load_measure(path: str | Path, n: int | None = None) -> DiscreteMeasure:
    return DiscreteMeasure(_load_vector(path, "weights", n))


def load_function(path: str | Path, n: int | None = None) -> SampleFunction:
    return SampleFunction(_load_vector(path, "f", n))


def _point_index(space: FiniteMetricSpace, raw: str) -> int:
    if raw in space.labels:
        return space.labels.index(raw)
    try:
        idx = int(raw)
    except ValueError:
        raise InputFormatError(f"unknown point {raw!r}") from None
    if not 0 <= idx < space.n:
        raise InputFormatError(f"point index {idx} out of range")
    return idx


def load_sequence(
    path: str | Path, space: FiniteMetricSpace
) -> tuple[list[DiscreteMeasure], DiscreteMeasure, int, Fraction]:
    """The measure sequence, its limit, the point and the deviation bound of a sequence file."""
    p = Path(path)
    data = _load_json(p)
    rows, limit = (data.get("sequence"), data.get("limit")) if isinstance(data, dict) else (None, None)
    if not (isinstance(rows, list) and all(isinstance(row, list) for row in rows)):
        raise InputFormatError(f"{p}: 'sequence' must be a list of lists")
    if not isinstance(limit, list):
        raise InputFormatError(f"{p}: 'limit' must be a list")
    try:
        sequence = [DiscreteMeasure(_bounded(p, "sequence", row)) for row in rows]
        nu_limit = DiscreteMeasure(_bounded(p, "limit", limit))
        point = _point_index(space, str(data["point"]))
        bound = parse_scalar(data["deviation_bound"])
    except KeyError as exc:
        raise InputFormatError(f"{p}: bad sequence file: missing {exc}") from None
    return sequence, nu_limit, point, bound


def space_to_json(space: FiniteMetricSpace) -> dict:
    return {
        "labels": list(space.labels),
        "dist": [[scalar_str(v) for v in row] for row in space.dist],
    }


def measure_to_json(mu: DiscreteMeasure) -> dict:
    return {"weights": [scalar_str(w) for w in mu.weights]}


def function_to_json(f: SampleFunction) -> dict:
    return {"f": [scalar_str(v) for v in f.values]}


def _ball_json(ball: Ball, space: FiniteMetricSpace) -> dict:
    return {
        "center": space.labels[ball.center],
        "radius": scalar_str(ball.radius),
        "kind": "closed",
        "members": [space.labels[p] for p in ball.members],
    }


def family_to_json(family: BallFamily, space: FiniteMetricSpace) -> dict:
    return {
        "count": len(family),
        "balls": [_ball_json(b, space) for b in family.balls],
        "per_point": {
            space.labels[x]: {
                "containing": list(family.containing[x]),
                "centered": list(family.centered_at[x]),
            }
            for x in range(space.n)
        },
    }


def maximal_report_to_json(report: MaximalReport, space: FiniteMetricSpace) -> list[dict]:
    # a field repeats few values, and both operators often pick one ball: render each distinct
    # value once, keyed without Fraction.__hash__, and list the labels of a shared ball once
    labels, shown = space.labels, {}

    def text(q: Fraction) -> tuple[str, str]:
        key = q.numerator, q.denominator
        if key not in shown:
            shown[key] = scalar_str(q), scalar_decimal(q)
        return shown[key]

    out = []
    for point, centered, noncentered in report.points:
        (c, c_decimal), (nc, nc_decimal) = text(centered.value), text(noncentered.value)
        ball = [labels[p] for p in centered.ball.members]
        out.append(
            {
                "label": labels[point],
                "centered": c,
                "centered_decimal": c_decimal,
                "noncentered": nc,
                "noncentered_decimal": nc_decimal,
                "centered_ball": ball,
                "noncentered_ball": list(ball)
                if noncentered.ball is centered.ball
                else [labels[p] for p in noncentered.ball.members],
            }
        )
    return out


def witness_to_json(witness: Witness, space: FiniteMetricSpace) -> dict:
    return {
        "point": space.labels[witness.point],
        "weights": [scalar_str(w) for w in witness.measure.weights],
        "f": [scalar_str(v) for v in witness.function.values],
        "centered": scalar_str(witness.centered_value),
        "centered_decimal": scalar_decimal(witness.centered_value),
        "noncentered": scalar_str(witness.noncentered_value),
        "noncentered_decimal": scalar_decimal(witness.noncentered_value),
        "gap": scalar_str(witness.gap),
    }


def verdict_to_json(verdict: CoincidenceVerdict, space: FiniteMetricSpace) -> dict:
    out: dict[str, Any] = {
        "verdict": verdict.verdict,
        "method": verdict.method,
        "trials": verdict.trials,
    }
    if verdict.witness is not None:
        out["witness"] = witness_to_json(verdict.witness, space)
    if verdict.explanation is not None:
        keys = ("point", "farthest", "nearer", "center")
        out["explanation"] = {k: space.labels[i] for k, i in zip(keys, verdict.explanation)}
    if verdict.certificates is not None:
        out["certificates"] = [
            {
                "point": space.labels[cert.point],
                "ball": [space.labels[p] for p in cert.ball.members],
                "centered_ball": [space.labels[p] for p in cert.centered_ball.members],
            }
            for cert in verdict.certificates
        ]
    return out


def ball_infimum_report_to_json(report: BallInfimumReport, space: FiniteMetricSpace) -> dict:
    # the rows share few Fraction objects, one per distinct mass: render each once, keyed by
    # identity, so that no row pays Fraction.__hash__ or the division behind dirac_maximal
    values = {id(q): q for p in report.pairs for q in p[2:5]}
    ratio = {k: scalar_str(q) for k, q in values.items()}
    dirac = {k: scalar_str(1 / q) for k, q in values.items()}
    labels = space.labels
    return {
        "all_inequalities_hold": report.all_inequalities_hold,
        "all_symmetric": report.all_symmetric,
        "all_dirac_bounds_hold": report.all_dirac_bounds_hold,
        "pairs": [
            {
                "x": labels[p.x],
                "y": labels[p.y],
                "measure_ball_y": ratio[id(p.measure_ball_y)],
                "pair_infimum": ratio[id(p.pair_infimum)],
                "measure_ball_x": ratio[id(p.measure_ball_x)],
                "dirac_maximal": dirac[id(p.pair_infimum)],
                "inequality_holds": p.inequality_holds,
                "symmetry_holds": p.symmetry_holds,
                "dirac_bound_holds": p.dirac_bound_holds,
            }
            for p in report.pairs
        ],
    }


def lsc_report_to_json(report: LowerSemicontinuityReport, space: FiniteMetricSpace) -> dict:
    return {
        "point": space.labels[report.point],
        "noncentered_values": [scalar_str(v) for v in report.noncentered_values],
        "centered_values": [scalar_str(v) for v in report.centered_values],
        "noncentered_limit": scalar_str(report.noncentered_limit),
        "centered_limit": scalar_str(report.centered_limit),
        "deviations": [scalar_str(v) for v in report.deviations],
        "stability_constant": scalar_str(report.stability_constant),
        "tolerance": scalar_str(report.tolerance),
        "tail_start": report.tail_start,
        "tail_inequality_holds": report.tail_inequality_holds,
        "per_step_bounds_hold": report.per_step_bounds_hold,
    }


def grid_demo_to_json(report: GridDemoReport) -> dict:
    space = report.space
    return {
        "subdivisions": report.subdivisions,
        "points": space.n,
        "evaluation_point": space.labels[report.point],
        "centered": scalar_json(report.centered.value),
        "noncentered": scalar_json(report.noncentered.value),
        "centered_ball": [space.labels[p] for p in report.centered.ball.members],
        "noncentered_ball": [space.labels[p] for p in report.noncentered.ball.members],
        "gap": scalar_json(report.gap),
        "closed_form_gap": scalar_json(report.closed_form_gap),
        "matches_closed_form": report.matches_closed_form,
        "midpoint_config_count": len(report.midpoint_configs),
        "chain_points": [space.labels[p] for p in report.chain_points],
        "chain_measures": [scalar_str(m) for m in report.chain_measures],
        "chain_is_midpoint_sequence": report.chain_is_midpoint_sequence,
        "chain_nested": report.chain_nested,
        "chain_infimum_inequality_holds": report.chain_infimum_inequality_holds,
        "note": report.note,
    }


def file_sha256(path: str | Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            digest.update(chunk)
    return digest.hexdigest()


# exact type -> its JSON text; a bool is not an int here, so no bool is written as 'True'
_SCALARS: dict[type, Callable[[Any], str]] = {
    str: encode_basestring_ascii,
    int: int.__repr__,
    bool: {False: "false", True: "true"}.__getitem__,
    type(None): lambda o: "null",
}


def _scalar(o: Any) -> str:
    """o as JSON text: by the table for its exact type, else (a float, a subclass) by json.dumps."""
    write = _SCALARS.get(type(o))
    return write(o) if write else json.dumps(o)


def _key(k: Any) -> str:
    if not isinstance(k, (str, int, float, type(None))):  # json.dumps would write (1, 2) whole
        raise TypeError(f"keys must be str, int, float, bool or None, not {type(k).__name__}")
    return encode_basestring_ascii(k if isinstance(k, str) else _scalar(k))


def _whole(o: Any, pad: str, nested: bool = True) -> str | None:
    """o as json.dumps(o, indent=2) writes it at indentation `pad` if o is a record: a scalar,
    a container of scalars or, when `nested`, a dict of scalars and such containers."""
    if not isinstance(o, (dict, list, tuple)):
        return _scalar(o)
    if not o:
        return "{}" if isinstance(o, dict) else "[]"
    inner = pad + "  "
    if isinstance(o, dict):
        texts = []
        for v in o.values():
            write = _SCALARS.get(type(v))
            text = write(v) if write else _whole(v, inner, False) if nested else None
            if text is None:
                return None
            texts.append(text)
        try:  # string keys, in C
            texts = list(map(": ".join, zip(map(encode_basestring_ascii, o), texts)))
        except TypeError:
            texts = list(map(": ".join, zip(map(_key, o), texts)))
        ends = "{}"
    else:
        try:  # a string list, in C
            texts = list(map(encode_basestring_ascii, o))
        except TypeError:
            kinds = set(map(type, o))
            if not kinds <= _SCALARS.keys():
                return None
            texts = map(_SCALARS[kinds.pop()] if len(kinds) == 1 else _scalar, o)
        ends = "[]"
    return f"{ends[0]}\n{inner}" + (",\n" + inner).join(texts) + f"\n{pad}{ends[1]}"


def _pieces(o: dict | list | tuple, pad: str) -> Iterator[str]:
    """json.dumps(o, indent=2) at indentation `pad`, for a container deeper than a record
    (see _whole), one child at a time: each child record whole, each deeper child in pieces."""
    inner, is_dict = pad + "  ", isinstance(o, dict)
    lead = "{\n" if is_dict else "[\n"
    for k, v in o.items() if is_dict else zip(repeat(None), o):
        lead += f"{inner}{_key(k)}: " if is_dict else inner
        text = _whole(v, inner)
        yield lead if text is None else lead + text
        if text is None:
            yield from _pieces(v, inner)
        lead = ",\n"
    yield "\n" + pad + ("}" if is_dict else "]")


def write_json(data: Any, path: str | PathLike | TextIO) -> None:
    """Write json.dumps(data, indent=2) plus a newline to `path`, a file path or a text stream.

    Each record is encoded whole, its string and int lists joined in C. The levels above
    it go to the stream one child at a time, and its buffer writes them in blocks, so no
    report's text is ever held whole."""
    is_path = isinstance(path, (str, PathLike))
    with open(path, "w", encoding="utf-8") if is_path else nullcontext(path) as fh:
        text = _whole(data, "")
        fh.writelines(_pieces(data, "") if text is None else (text,))
        fh.write("\n")
