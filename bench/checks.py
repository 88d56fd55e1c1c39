"""Correctness checks of every benchmark operation, run outside the timed intervals.

Each check compares an output with a computation that shares no code with
maxlab: the brute-force reference in `tests/oracle.py`, run on the
benchmark's own copy of the distances and weights, or a property the method
must have (centered <= non-centered, the closed forms of the grid demo, the
point-mass identity). A failed check raises `CheckFailure`.
"""

from __future__ import annotations

import importlib.util
import json
import math
import random
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace


class CheckFailure(Exception):
    """An operation's output disagrees with the independent computation."""


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailure(message)


def load_oracle(path: Path):
    spec = importlib.util.spec_from_file_location("maxlab_bench_oracle", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def triple_scan_ultrametric(dist: list[list[Fraction]]) -> bool:
    """True iff d(i,j) <= max(d(i,k), d(k,j)) for every triple, on integer-scaled distances."""
    scale = math.lcm(*(v.denominator for row in dist for v in row))
    rows = [[int(v * scale) for v in row] for row in dist]
    n = len(rows)
    for i in range(n):
        ri = rows[i]
        for j in range(i + 1, n):
            dij = ri[j]
            rj = rows[j]
            if any(dij > a and dij > b for a, b in zip(ri, rj)):
                return False
    return True


class Reference:
    """Brute-force answers on one space, computed from the benchmark's own matrix."""

    def __init__(self, oracle, dist: list[list[Fraction]]):
        self.oracle = oracle
        self.space = SimpleNamespace(dist=tuple(tuple(row) for row in dist), n=len(dist))
        self.ultrametric = triple_scan_ultrametric(dist)
        sets = oracle.all_ball_sets(self.space)
        self._containing = [[s for s in sets if p in s] for p in range(self.space.n)]

    def centered(self, weights, values, x: int) -> Fraction:
        return self.oracle.centered_value(
            self.space, SimpleNamespace(weights=weights), SimpleNamespace(values=values), x
        )

    def noncentered(self, weights, values, x: int) -> Fraction:
        mu = SimpleNamespace(weights=weights)
        f = SimpleNamespace(values=values)
        return max(self.oracle.average(self.space, mu, f, s) for s in self._containing[x])

    def pair_infimum(self, weights, x: int, y: int) -> Fraction:
        return min(
            sum((weights[p] for p in s), Fraction(0)) for s in self._containing[x] if y in s
        )

    def ball_measure(self, weights, center: int, radius: Fraction) -> Fraction:
        members = self.oracle.ball_members(self.space, center, radius)
        return sum((weights[p] for p in members), Fraction(0))


def _support(weights) -> list[int]:
    return [p for p, w in enumerate(weights) if w > 0]


def check_field(report, ref: Reference, weights, values, rng: random.Random, indicator_m=None) -> None:
    """Centered <= non-centered everywhere, equality on ultrametric spaces, oracle at one point.

    `indicator_m` is set when the function is the indicator of [0, 1] on the
    grid of step 1/m; the values at 1 + 1/m then have closed forms.
    """
    entries = {e.point: e for e in report.points}
    _require(sorted(entries) == _support(weights), "field report does not cover the support")
    for x, e in entries.items():
        c, nc = e.centered.value, e.noncentered.value
        _require(c <= nc, f"centered {c} > non-centered {nc} at {x}")
        _require(not ref.ultrametric or c == nc, f"ultrametric space but {c} != {nc} at {x}")
    x = rng.choice(sorted(entries))
    _require(entries[x].centered.value == ref.centered(weights, values, x), f"centered at {x} != oracle")
    _require(
        entries[x].noncentered.value == ref.noncentered(weights, values, x),
        f"non-centered at {x} != oracle",
    )
    if indicator_m is not None:
        m = indicator_m
        e = entries[m + 1]
        _require(e.centered.value == Fraction(m + 1, 2 * m + 1), "grid centered closed form")
        _require(e.noncentered.value == Fraction(m + 1, m + 2), "grid non-centered closed form")


def _check_witness(witness, ref: Reference) -> None:
    weights = witness.measure.weights
    values = witness.function.values
    x = witness.point
    c = ref.centered(weights, values, x)
    nc = ref.noncentered(weights, values, x)
    _require(nc > c, f"witness at {x}: oracle gives non-centered {nc} <= centered {c}")
    _require(
        (witness.centered_value, witness.noncentered_value) == (c, nc),
        f"witness at {x}: stored values differ from the oracle",
    )


def check_decision(verdict, ref: Reference) -> None:
    """With a full-support measure the verdict is `equal` exactly on ultrametric spaces."""
    expected = "equal" if ref.ultrametric else "distinct"
    _require(verdict.verdict == expected, f"verdict {verdict.verdict!r}, expected {expected!r}")
    if verdict.verdict == "distinct":
        _check_witness(verdict.witness, ref)


def check_search(verdict, ref: Reference, trials: int) -> None:
    if ref.ultrametric:
        _require(verdict.verdict == "equal", "randomized search separated an ultrametric space")
        _require(verdict.trials == trials, f"search ran {verdict.trials} of {trials} trials")
    elif verdict.verdict == "distinct":
        _check_witness(verdict.witness, ref)


def check_audit(report, ref: Reference, weights, rng: random.Random) -> None:
    """One row per ordered support pair; point-mass identity on every row; oracle on samples."""
    support = _support(weights)
    expected = {(x, y) for x in support for y in support if x != y}
    rows = report.pairs
    _require(len(rows) == len(expected), f"{len(rows)} audit rows for {len(expected)} pairs")
    _require({(r.x, r.y) for r in rows} == expected, "audit rows do not match the support pairs")
    for r in rows:
        _require(r.dirac_maximal * r.pair_infimum == 1, f"point-mass identity fails at {(r.x, r.y)}")
        if ref.ultrametric:
            _require(
                r.inequality_holds and r.symmetry_holds and r.dirac_bound_holds,
                f"ultrametric audit bound fails at {(r.x, r.y)}",
            )
    for r in rng.sample(rows, min(2, len(rows))):
        d = ref.space.dist[r.x][r.y]
        _require(r.pair_infimum == ref.pair_infimum(weights, r.x, r.y), f"pair infimum at {(r.x, r.y)}")
        _require(r.measure_ball_y == ref.ball_measure(weights, r.y, d), f"ball measure at {(r.x, r.y)}")


def _report(path: Path) -> dict:
    return json.loads(path.read_text(encoding="utf-8"))["result"]


def check_cli_maximal(code: int, out: Path, ref: Reference, weights, values, rng) -> None:
    _require(code == 0, f"maxlab maximal exited {code}")
    points = {int(e["label"][1:]): e for e in _report(out)["points"]}
    _require(sorted(points) == _support(weights), "CLI report does not cover the support")
    for x, e in points.items():
        c, nc = Fraction(e["centered"]), Fraction(e["noncentered"])
        _require(c <= nc, f"CLI: centered {c} > non-centered {nc} at {x}")
        _require(not ref.ultrametric or c == nc, f"CLI: ultrametric space but {c} != {nc} at {x}")
    x = rng.choice(sorted(points))
    _require(Fraction(points[x]["centered"]) == ref.centered(weights, values, x), "CLI centered != oracle")
    _require(
        Fraction(points[x]["noncentered"]) == ref.noncentered(weights, values, x),
        "CLI non-centered != oracle",
    )


def check_cli_grid(code: int, out: Path, m: int) -> None:
    _require(code == 0, f"maxlab demo-grid exited {code}")
    result = _report(out)
    _require(Fraction(result["centered"]["ratio"]) == Fraction(m + 1, 2 * m + 1), "demo centered")
    _require(Fraction(result["noncentered"]["ratio"]) == Fraction(m + 1, m + 2), "demo non-centered")
    _require(result["midpoint_config_count"] == m * m, "demo midpoint count != m^2")
