"""Seeded inputs for the three workloads, written as maxlab input files.

The spaces, measures and functions are built here rather than with
`maxlab.generators`, so that a change to the generators cannot change a
workload. maxlab itself only ever sees the files this module writes.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

# Workload make-up; the README records the same figures.
TAXICAB_ROWS, TAXICAB_COLS = 6, 10  # lattice shape of a taxicab cloud (n = 60)
TAXICAB_STEP = 6  # lattice spacing, in quarters
TAXICAB_JITTER = 2  # each coordinate moves by a seeded number of quarters in [-2, 2]
TAXICAB_AUDIT_CELLS = ((2, 4), (1, 7), (0, 1))  # lattice cells carrying the audit measure
DENDRO_N = 100  # leaves per dendrogram
DENDRO_AUDIT_N = 24  # leaves per audit dendrogram (full support)
GRID_M = (24, 32, 40)  # grids {k/m : 0 <= k <= 2m}, one per input
GRID_AUDIT_M = 6  # coarse grid for the audit
INPUTS_PER_WORKLOAD = 3  # odd, so that a median sits inside one input's values
SEARCH_TRIALS = 6  # random trials per coincidence_randomized call
FUNCTION_RANGE = (-9, 9)  # integer values of the random sample functions

WORKLOADS = ("nonultra", "ultra", "grid")


@dataclass
class Bundle:
    """One input of a workload: the files of its queries and what they hold.

    `space`, `measure` and `fn` feed the field, decision, search and CLI
    queries; `audit_space` and `audit_measure` feed the pairwise audit. The
    lists are the benchmark's own copies of the files' contents, for the checks.
    `grid_m` is set on the grid workload, where the CLI query is
    `demo-grid --n grid_m` and the field query of input 0 uses the indicator
    of [0, 1].
    """

    name: str
    dist: list[list[Fraction]]
    weights: list[Fraction]
    values: list[Fraction]
    audit_dist: list[list[Fraction]]
    audit_weights: list[Fraction]
    space: Path
    measure: Path
    fn: Path
    audit_space: Path
    audit_measure: Path
    grid_m: int | None = None


def _ratio(q: Fraction) -> str:
    return f"{q.numerator}/{q.denominator}"


def _write(path: Path, data: dict) -> Path:
    path.write_text(json.dumps(data), encoding="utf-8")
    return path


def _write_space(path: Path, dist: list[list[Fraction]]) -> Path:
    n = len(dist)
    return _write(
        path,
        {"labels": [f"p{i}" for i in range(n)], "dist": [[_ratio(v) for v in row] for row in dist]},
    )


def _write_weights(path: Path, weights: list[Fraction]) -> Path:
    return _write(path, {"weights": [_ratio(w) for w in weights]})


def random_function(rng: random.Random, n: int) -> list[Fraction]:
    lo, hi = FUNCTION_RANGE
    return [Fraction(rng.randint(lo, hi)) for _ in range(n)]


def _random_weights(rng: random.Random, n: int) -> list[Fraction]:
    return [Fraction(rng.randint(1, 12), rng.randint(1, 4)) for _ in range(n)]


def taxicab_cloud(rng: random.Random) -> list[list[Fraction]]:
    """L1 distances of a jittered lattice on quarter-integer coordinates.

    Point k sits at lattice cell k (row-major). A lattice keeps the number
    of distinct balls, and with it the cost of every query, nearly the same
    from seed to seed; quarter-integer coordinates keep exact ties.
    """
    points = [
        (TAXICAB_STEP * i + rng.randint(-TAXICAB_JITTER, TAXICAB_JITTER),
         TAXICAB_STEP * j + rng.randint(-TAXICAB_JITTER, TAXICAB_JITTER))
        for i in range(TAXICAB_ROWS)
        for j in range(TAXICAB_COLS)
    ]
    return [[Fraction(abs(a - c) + abs(b - d), 4) for c, d in points] for a, b in points]


def dendrogram(rng: random.Random, n: int) -> list[list[Fraction]]:
    """Merge-tree ultrametric from seeded recursive splits.

    Each cluster splits into two parts of seeded sizes between a third and
    two thirds of it, so trees stay near balanced and their cost steady. A
    cluster's height exceeds its children's by a seeded step, so every
    cluster is a distinct ball: 2n - 1 balls in all.
    """
    dist = [[Fraction(0)] * n for _ in range(n)]

    def split(ids: list[int]) -> int:
        if len(ids) == 1:
            return 0
        k = rng.randint(max(1, len(ids) // 3), max(1, 2 * len(ids) // 3))
        left, right = ids[:k], ids[k:]
        height = max(split(left), split(right)) + rng.randint(1, 3)
        h = Fraction(height, 2)
        for p in left:
            for q in right:
                dist[p][q] = dist[q][p] = h
        return height

    ids = list(range(n))
    rng.shuffle(ids)
    split(ids)
    return dist


def grid(m: int) -> list[list[Fraction]]:
    """The uniform grid {k/m : 0 <= k <= 2m} on [0, 2] with |a - b| distances."""
    return [[Fraction(abs(a - b), m) for b in range(2 * m + 1)] for a in range(2 * m + 1)]


def build(workload: str, seed: int, folder: Path) -> tuple[list[Bundle], random.Random]:
    """Write the workload's input files for `seed` into `folder`.

    Returns the bundles and a generator, seeded from the same seed, for the
    fresh functions the field queries draw during the run.
    """
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    rng = random.Random(f"{workload}:{seed}")
    bundles = []
    for i in range(INPUTS_PER_WORKLOAD):
        stem = folder / f"in{i}"
        if workload == "nonultra":
            n = TAXICAB_ROWS * TAXICAB_COLS
            dist = audit_dist = taxicab_cloud(rng)
            audit = [Fraction(0)] * n
            for row, col in TAXICAB_AUDIT_CELLS:
                audit[row * TAXICAB_COLS + col] = Fraction(rng.randint(1, 12), rng.randint(1, 4))
            weights = _random_weights(rng, n)
            grid_m = None
        elif workload == "ultra":
            n = DENDRO_N
            dist = dendrogram(rng, n)
            audit_dist = dendrogram(rng, DENDRO_AUDIT_N)
            audit = _random_weights(rng, DENDRO_AUDIT_N)
            weights = _random_weights(rng, n)
            grid_m = None
        else:
            grid_m = GRID_M[i]
            n = 2 * grid_m + 1
            dist = grid(grid_m)
            audit_dist = grid(GRID_AUDIT_M)
            audit = [Fraction(1)] * (2 * GRID_AUDIT_M + 1)
            weights = [Fraction(1)] * n
        values = random_function(rng, n)
        space = _write_space(stem.with_suffix(".space.json"), dist)
        if audit_dist is not dist:
            audit_space = _write_space(stem.with_suffix(".audit-space.json"), audit_dist)
        else:
            audit_space = space
        bundles.append(
            Bundle(
                name=f"{workload}[{i}]",
                dist=dist,
                weights=weights,
                values=values,
                audit_dist=audit_dist,
                audit_weights=audit,
                space=space,
                measure=_write_weights(stem.with_suffix(".measure.json"), weights),
                fn=_write(stem.with_suffix(".fn.json"), {"f": [_ratio(v) for v in values]}),
                audit_space=audit_space,
                audit_measure=_write_weights(stem.with_suffix(".audit-measure.json"), audit),
                grid_m=grid_m,
            )
        )
    return bundles, rng
