"""Seeded random generation of spaces, measures and functions for property corpora.

All generators are driven by `random.Random(seed)`, so identical parameters
and seed reproduce identical output across runs and platforms. Distances stay
rational by construction: merge-tree spaces use lowest-common-ancestor
heights, point clouds use the L1 distance, and graph spaces use shortest
paths with rational edge weights.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .measure import DiscreteMeasure, SampleFunction
from .metric import FiniteMetricSpace, as_rational, validate_space

__all__ = [
    "Dendrogram",
    "gen_ultrametric",
    "gen_taxicab",
    "gen_graph_metric",
    "gen_measure",
    "gen_function",
    "shortest_path_metric",
]

_ZERO = Fraction(0)


@dataclass(frozen=True)
class Dendrogram:
    """Rooted binary merge tree over n leaves; LCA heights induce the distances.

    Clusters are numbered with leaves 0..n-1 and internal nodes n, n+1, ... in
    merge order. Merge heights are positive and strictly increasing in merge
    order, i.e. strictly decreasing from the root downward.
    """

    n_leaves: int
    merges: tuple[tuple[int, int, Fraction], ...]  # (cluster, cluster, height)

    def __post_init__(self):
        if self.n_leaves < 1:
            raise ValueError("need at least one leaf")
        if len(self.merges) != self.n_leaves - 1:
            raise ValueError("a binary merge tree over n leaves has n-1 merges")
        last = _ZERO
        for _, _, h in self.merges:
            if h <= last:
                raise ValueError("merge heights must be positive and strictly increasing")
            last = h

    def distance_matrix(self) -> tuple[tuple[Fraction, ...], ...]:
        n = self.n_leaves
        members: dict[int, list[int]] = {i: [i] for i in range(n)}
        dist = [[_ZERO] * n for _ in range(n)]
        next_id = n
        for a, b, h in self.merges:
            for p in members[a]:
                for q in members[b]:
                    dist[p][q] = h
                    dist[q][p] = h
            members[next_id] = members.pop(a) + members.pop(b)
            next_id += 1
        return tuple(tuple(row) for row in dist)


def _distinct_heights(
    rng: random.Random, count: int, height_range: tuple[Fraction, Fraction]
) -> list[Fraction]:
    lo, hi = height_range
    if not lo < hi:
        raise ValueError("empty height range")
    span = hi - lo
    grid = max(64, 8 * count)
    chosen: set[int] = set()
    while len(chosen) < count:
        chosen.add(rng.randrange(1, grid + 1))
    return sorted(lo + span * Fraction(k, grid + 1) for k in chosen)


def gen_ultrametric(
    n: int,
    seed: int,
    height_range: tuple[int | str | Fraction, int | str | Fraction] = (1, 10),
) -> FiniteMetricSpace:
    """Random merge-tree space on n points; always passes the ultrametric check."""
    if n < 1:
        raise ValueError("n must be >= 1")
    labels = tuple(f"u{i}" for i in range(n))
    if n == 1:
        return FiniteMetricSpace(labels=labels, dist=((_ZERO,),))
    rng = random.Random(seed)
    lo, hi = (as_rational(height_range[0]), as_rational(height_range[1]))
    heights = _distinct_heights(rng, n - 1, (lo, hi))
    clusters = list(range(n))
    merges = []
    next_id = n
    for h in heights:
        i = rng.randrange(len(clusters))
        j = rng.randrange(len(clusters) - 1)
        if j >= i:
            j += 1
        a, b = clusters[i], clusters[j]
        for k in sorted((i, j), reverse=True):
            del clusters[k]
        clusters.append(next_id)
        merges.append((a, b, h))
        next_id += 1
    tree = Dendrogram(n_leaves=n, merges=tuple(merges))
    return FiniteMetricSpace(labels=labels, dist=tree.distance_matrix())


def gen_taxicab(
    n: int,
    dim: int = 2,
    coord_range: tuple[int, int] = (-10, 10),
    seed: int = 0,
) -> FiniteMetricSpace:
    """Random rational point cloud with L1 distances; duplicates are resampled."""
    if n < 1 or dim < 1:
        raise ValueError("need n >= 1 and dim >= 1")
    lo, hi = coord_range
    if lo >= hi:
        raise ValueError("empty coordinate range")
    denom = 4  # quarter-integer grid keeps scalars small and makes exact ties plausible
    capacity = ((hi - lo) * denom + 1) ** dim
    if n > capacity:
        raise ValueError(
            f"the coordinate range [{lo}, {hi}]^{dim} holds only {capacity} distinct "
            f"quarter-integer points, fewer than n = {n}"
        )
    rng = random.Random(seed)
    points: list[tuple[int, ...]] = []  # coordinates in quarters
    seen: set[tuple[int, ...]] = set()
    attempts = 0
    limit = 100 * n + 100
    while len(points) < n:
        attempts += 1
        if attempts > limit:
            raise ValueError(
                f"resample limit exceeded after {limit} draws for {n} distinct points"
            )
        p = tuple(rng.randint(lo * denom, hi * denom) for _ in range(dim))
        if p in seen:
            continue
        seen.add(p)
        points.append(p)
    # the distances in quarters are ints; each distinct one becomes one Fraction
    rows = [[sum(abs(a - b) for a, b in zip(p, q)) for q in points] for p in points]
    fractions = {d: Fraction(d, denom) for d in set().union(*rows)}
    dist = [list(map(fractions.__getitem__, row)) for row in rows]
    return validate_space(dist, labels=[f"t{i}" for i in range(n)])


def shortest_path_metric(
    n: int, edges: Sequence[tuple[int, int, int | str | Fraction]]
) -> tuple[tuple[Fraction, ...], ...]:
    """All-pairs shortest-path distances of a connected weighted graph."""
    infinite = None
    dist: list[list[Fraction | None]] = [[infinite] * n for _ in range(n)]
    for i in range(n):
        dist[i][i] = _ZERO
    for u, v, w in edges:
        weight = as_rational(w)
        if weight <= 0:
            raise ValueError("edge weights must be positive")
        if dist[u][v] is None or weight < dist[u][v]:
            dist[u][v] = weight
            dist[v][u] = weight
    for k in range(n):
        row_k = dist[k]
        for i in range(n):
            d_ik = dist[i][k]
            if d_ik is None:
                continue
            row_i = dist[i]
            for j in range(n):
                d_kj = row_k[j]
                if d_kj is None:
                    continue
                through = d_ik + d_kj
                if row_i[j] is None or through < row_i[j]:
                    row_i[j] = through
    if any(v is None for row in dist for v in row):
        raise ValueError("graph is not connected")
    return tuple(tuple(v for v in row) for row in dist)


def gen_graph_metric(
    n: int,
    edge_probability: float = 0.4,
    weight_range: tuple[int, int] = (1, 9),
    seed: int = 0,
) -> FiniteMetricSpace:
    """Shortest-path metric of a random connected graph with rational weights."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if not 0 <= edge_probability <= 1:
        raise ValueError("edge probability must be in [0, 1]")
    rng = random.Random(seed)
    wlo, whi = weight_range
    if wlo < 1 or wlo > whi:
        raise ValueError("weight range must satisfy 1 <= lo <= hi")

    def draw_weight() -> Fraction:
        return Fraction(rng.randint(2 * wlo, 2 * whi), 2)

    edges: list[tuple[int, int, Fraction]] = []
    present: set[tuple[int, int]] = set()
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < edge_probability:
                edges.append((i, j, draw_weight()))
                present.add((i, j))

    parent = list(range(n))

    def find(a: int) -> int:
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for u, v, _ in edges:
        parent[find(u)] = find(v)
    while len({find(i) for i in range(n)}) > 1:
        u = rng.randrange(n)
        v = rng.randrange(n)
        if find(u) == find(v):
            continue
        key = (min(u, v), max(u, v))
        if key in present:
            continue
        present.add(key)
        edges.append((key[0], key[1], draw_weight()))
        parent[find(u)] = find(v)

    dist = shortest_path_metric(n, edges) if n > 1 else ((_ZERO,),)
    return validate_space(dist, labels=[f"g{i}" for i in range(n)])


def gen_measure(
    space: FiniteMetricSpace, seed: int, zero_fraction: float = 0.0
) -> DiscreteMeasure:
    """Random nonnegative rational weights; support guaranteed nonempty."""
    if not 0 <= zero_fraction < 1:
        raise ValueError("zero_fraction must be in [0, 1)")
    rng = random.Random(seed)
    weights = []
    for _ in range(space.n):
        if rng.random() < zero_fraction:
            weights.append(_ZERO)
        else:
            weights.append(Fraction(rng.randint(1, 9), rng.randint(1, 4)))
    if all(w == 0 for w in weights):
        weights[rng.randrange(space.n)] = Fraction(1)
    return DiscreteMeasure(tuple(weights))


def gen_function(
    space: FiniteMetricSpace, seed: int, value_range: tuple[int, int] = (-9, 9)
) -> SampleFunction:
    """Random signed integer-valued function with entries in the given range."""
    lo, hi = value_range
    if lo > hi:
        raise ValueError("empty value range")
    rng = random.Random(seed)
    return SampleFunction(tuple(Fraction(rng.randint(lo, hi)) for _ in range(space.n)))
