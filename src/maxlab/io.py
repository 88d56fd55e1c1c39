"""File formats and exact scalar serialization.

Wire grammar for scalars: an integer, a finite-decimal string ("1.25"), or a
"p/q" string. JSON floats are intercepted at parse time and converted from
their literal decimal text, so no binary rounding ever happens. Emitted
scalars are canonical "p/q" strings; reports add an auxiliary decimal
rendering for human eyes only.

Space file: {"labels": [str], "dist": [[scalar]]}  (or a CSV distance matrix).
Measure / function file: {"weights": [scalar]} / {"f": [scalar]}.
"""

from __future__ import annotations

import csv
import hashlib
import json
from fractions import Fraction
from pathlib import Path
from typing import Any

from .measure import DiscreteMeasure, SampleFunction
from .metric import Ball, BallFamily, FiniteMetricSpace, validate_space
from .maximal import MaximalReport
from .theorems import (
    BallInfimumReport,
    BumpRefinementReport,
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
    "bump_report_to_json",
    "file_sha256",
    "write_json",
]


class InputFormatError(ValueError):
    """Malformed input file or scalar."""


def parse_scalar(value: Any) -> Fraction:
    """Exact scalar from the wire grammar; floats are rejected."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, bool):
        raise InputFormatError(f"not a scalar: {value!r}")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        try:
            return Fraction(value.strip())
        except (ValueError, ZeroDivisionError) as exc:
            raise InputFormatError(f"cannot parse scalar {value!r}: {exc}") from None
    if isinstance(value, float):
        raise InputFormatError(
            f"refusing float scalar {value!r}; use an integer, a decimal string, or p/q"
        )
    raise InputFormatError(f"not a scalar: {value!r}")


def scalar_str(q: Fraction) -> str:
    """Canonical exact rendering 'p/q'."""
    return f"{q.numerator}/{q.denominator}"


def scalar_decimal(q: Fraction, digits: int = 12) -> str:
    """Auxiliary decimal rendering; display only, never parsed back."""
    try:
        return format(float(q), f".{digits}g")
    except OverflowError:
        return "overflow"


def scalar_json(q: Fraction) -> dict[str, str]:
    return {"ratio": scalar_str(q), "decimal": scalar_decimal(q)}


def _load_json(path: str | Path) -> Any:
    with open(path, "r", encoding="utf-8") as fh:
        # parse_float receives the literal text, so decimals convert exactly
        return json.load(fh, parse_float=Fraction)


def load_space(path: str | Path) -> FiniteMetricSpace:
    """Space from a JSON file ({"labels","dist"}) or a CSV distance matrix."""
    p = Path(path)
    if p.suffix.lower() == ".csv":
        with open(p, newline="", encoding="utf-8") as fh:
            rows = [[parse_scalar(cell) for cell in row] for row in csv.reader(fh) if row]
        if not rows:
            raise InputFormatError(f"{p}: empty CSV matrix")
        return validate_space(rows)
    try:
        data = _load_json(p)
    except json.JSONDecodeError as exc:
        raise InputFormatError(f"{p}: invalid JSON: {exc}") from None
    if not isinstance(data, dict) or "dist" not in data:
        raise InputFormatError(f"{p}: expected an object with a 'dist' matrix")
    dist, labels = data["dist"], data.get("labels")
    if not (isinstance(dist, list) and all(isinstance(row, list) for row in dist)):
        raise InputFormatError(f"{p}: 'dist' must be a list of lists")
    if labels is not None and not (
        isinstance(labels, list) and all(isinstance(label, str) for label in labels)
    ):
        raise InputFormatError(f"{p}: 'labels' must be a list of strings")
    return validate_space([[parse_scalar(v) for v in row] for row in dist], labels=labels)


def _load_vector(path: str | Path, key: str, n: int | None) -> list[Fraction]:
    p = Path(path)
    try:
        data = _load_json(p)
    except json.JSONDecodeError as exc:
        raise InputFormatError(f"{p}: invalid JSON: {exc}") from None
    if not isinstance(data, dict) or key not in data:
        raise InputFormatError(f"{p}: expected an object with a {key!r} array")
    if not isinstance(data[key], list):
        raise InputFormatError(f"{p}: {key!r} must be a list")
    values = [parse_scalar(v) for v in data[key]]
    if n is not None and len(values) != n:
        raise InputFormatError(f"{p}: {key!r} has {len(values)} entries, expected {n}")
    return values


def load_measure(path: str | Path, n: int | None = None) -> DiscreteMeasure:
    return DiscreteMeasure(tuple(_load_vector(path, "weights", n)))


def load_function(path: str | Path, n: int | None = None) -> SampleFunction:
    return SampleFunction(tuple(_load_vector(path, "f", n)))


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
        "kind": ball.kind,
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
    out = []
    for entry in report.points:
        out.append(
            {
                "label": space.labels[entry.point],
                "centered": scalar_str(entry.centered.value),
                "centered_decimal": scalar_decimal(entry.centered.value),
                "noncentered": scalar_str(entry.noncentered.value),
                "noncentered_decimal": scalar_decimal(entry.noncentered.value),
                "centered_ball": [space.labels[p] for p in entry.centered.ball.members],
                "noncentered_ball": [space.labels[p] for p in entry.noncentered.ball.members],
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


def verdict_to_json(
    verdict: CoincidenceVerdict, space: FiniteMetricSpace, family: BallFamily
) -> dict:
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
                "ball": [space.labels[p] for p in family.balls[cert.ball_index].members],
                "coefficients": [
                    {
                        "ball": [space.labels[p] for p in family.balls[idx].members],
                        "weight": scalar_str(lam),
                    }
                    for idx, lam in cert.coefficients
                ],
            }
            for cert in verdict.certificates
        ]
    return out


def ball_infimum_report_to_json(report: BallInfimumReport, space: FiniteMetricSpace) -> dict:
    return {
        "all_inequalities_hold": report.all_inequalities_hold,
        "all_symmetric": report.all_symmetric,
        "all_dirac_bounds_hold": report.all_dirac_bounds_hold,
        "pairs": [
            {
                "x": space.labels[p.x],
                "y": space.labels[p.y],
                "measure_ball_y": scalar_str(p.measure_ball_y),
                "pair_infimum": scalar_str(p.pair_infimum),
                "measure_ball_x": scalar_str(p.measure_ball_x),
                "dirac_maximal": scalar_str(p.dirac_maximal),
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


def bump_report_to_json(report: BumpRefinementReport, space: FiniteMetricSpace) -> dict:
    return {
        "x": space.labels[report.x],
        "y": space.labels[report.y],
        "bound": scalar_str(report.bound),
        "point_mass_threshold": scalar_str(report.point_mass_threshold),
        "all_bounds_hold": report.all_bounds_hold,
        "checks": [
            {
                "delta": scalar_str(c.delta),
                "centered_value_at_y": scalar_str(c.centered_value_at_y),
                "bound_holds": c.bound_holds,
                "is_point_mass": c.is_point_mass,
            }
            for c in report.checks
        ],
    }


def file_sha256(path: str | Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            digest.update(chunk)
    return digest.hexdigest()


def write_json(data: Any, path: str | Path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(data, fh, indent=2)
        fh.write("\n")
