"""Finite metric spaces over exact rationals.

Metric-axiom validation, ultrametric detection with a normalized violating
triple, closed/open ball computation, deduplicated enumeration of every
closed ball of a space, and midpoint-configuration search.

Every public scalar is a `fractions.Fraction` and floats are rejected, so ball
membership ties are decided exactly. Validation and ball enumeration compare
an integer copy of the distance matrix, scaled by the lcm of its denominators.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from operator import add
from typing import Iterable, Sequence

Rational = Fraction

__all__ = [
    "Rational",
    "as_rational",
    "MetricViolation",
    "MetricAxiomError",
    "FiniteMetricSpace",
    "Ball",
    "BallFamily",
    "MidpointConfig",
    "metric_violations",
    "validate_space",
    "line_space",
    "is_ultrametric",
    "ultrametric_violation",
    "closed_ball",
    "open_ball",
    "enumerate_balls",
    "find_midpoint_configs",
]


def as_rational(value: int | str | Fraction) -> Fraction:
    """Coerce ints, exact strings ("3", "1.25", "3/4") and Fractions; reject floats."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        return Fraction(value.strip())
    raise TypeError(
        f"expected an exact scalar (int, Fraction, or exact string), got {type(value).__name__}"
    )


@dataclass(frozen=True)
class MetricViolation:
    """One violated metric axiom with the offending indices."""

    axiom: str  # "diagonal" | "symmetry" | "positivity" | "triangle"
    indices: tuple[int, ...]
    detail: str


class MetricAxiomError(ValueError):
    """Raised by validate_space; carries the full violation list."""

    def __init__(self, violations: Sequence[MetricViolation]):
        self.violations = tuple(violations)
        shown = "; ".join(v.detail for v in self.violations[:8])
        extra = "" if len(self.violations) <= 8 else f" (+{len(self.violations) - 8} more)"
        super().__init__(f"{len(self.violations)} metric axiom violation(s): {shown}{extra}")


@dataclass(frozen=True)
class FiniteMetricSpace:
    """A labeled finite point set with an exact pairwise distance matrix."""

    labels: tuple[str, ...]
    dist: tuple[tuple[Fraction, ...], ...]

    @property
    def n(self) -> int:
        return len(self.labels)

    def d(self, i: int, j: int) -> Fraction:
        return self.dist[i][j]

    def index_of(self, label: str) -> int:
        try:
            return self.labels.index(label)
        except ValueError:
            raise KeyError(f"no point labeled {label!r}") from None

    def restrict(self, points: Sequence[int]) -> "FiniteMetricSpace":
        """Submetric on the given point indices, order preserved, labels carried."""
        pts = tuple(points)
        if len(set(pts)) != len(pts):
            raise ValueError("restriction points must be distinct")
        return FiniteMetricSpace(
            labels=tuple(self.labels[p] for p in pts),
            dist=tuple(tuple(self.dist[p][q] for q in pts) for p in pts),
        )


@dataclass(frozen=True)
class Ball:
    """A metric ball resolved to its member point set (sorted indices)."""

    center: int
    radius: Fraction
    kind: str  # "closed" or "open"
    members: tuple[int, ...]


@dataclass(frozen=True)
class BallFamily:
    """All distinct closed-ball member sets of a space, with per-point indices.

    `balls[i]` is a representative (center, radius) realizing member set i;
    `containing[x]` lists family indices of sets containing x; `centered_at[x]`
    lists family indices arising from balls centered at x, radii ascending.
    Both sublists are deduplicated; `centered_at[x]` is always a subset of
    `containing[x]`. `rank[c][p]` is the position in `centered_at[c]` of the
    smallest ball centered at c that holds p.
    """

    balls: tuple[Ball, ...]
    containing: tuple[tuple[int, ...], ...]
    centered_at: tuple[tuple[int, ...], ...]
    rank: tuple[tuple[int, ...], ...]

    def __len__(self) -> int:
        return len(self.balls)

    @property
    def n(self) -> int:
        return len(self.containing)


@dataclass(frozen=True)
class MidpointConfig:
    """Points a, m, b with d(a,m) = d(m,b) = d(a,b)/2."""

    a: int
    m: int
    b: int

    def __post_init__(self):
        if self.a == self.b:
            raise ValueError("midpoint endpoints must differ")


def _coerce_matrix(dist: Sequence[Sequence[object]]) -> tuple[tuple[Fraction, ...], ...]:
    return tuple(tuple(as_rational(v) for v in row) for row in dist)


def _scaled(values: Sequence[Fraction]) -> tuple[tuple[int, ...], int]:
    """The values times the lcm of their denominators, as ints, and that lcm."""
    scale = lcm(*(v.denominator for v in values))
    return tuple(v.numerator * (scale // v.denominator) for v in values), scale


def metric_violations(dist: tuple[tuple[Fraction, ...], ...]) -> list[MetricViolation]:
    """Every violated metric axiom of a square matrix, with indices."""
    n = len(dist)
    flat, _ = _scaled([v for row in dist for v in row])
    scaled = [flat[i * n : (i + 1) * n] for i in range(n)]
    out: list[MetricViolation] = []
    for i in range(n):
        if scaled[i][i] != 0:
            out.append(MetricViolation("diagonal", (i,), f"dist[{i}][{i}] = {dist[i][i]} != 0"))
    for i in range(n):
        for j in range(i + 1, n):
            if scaled[i][j] != scaled[j][i]:
                out.append(
                    MetricViolation(
                        "symmetry", (i, j), f"dist[{i}][{j}] = {dist[i][j]} != {dist[j][i]} = dist[{j}][{i}]"
                    )
                )
            if scaled[i][j] <= 0:
                out.append(
                    MetricViolation("positivity", (i, j), f"dist[{i}][{j}] = {dist[i][j]} is not > 0")
                )
    columns = list(zip(*scaled))
    for i, row in enumerate(scaled):
        for k in range(i + 1, n):
            # no shorter detour, no violation; the j = i, k detours (which only a
            # nonzero diagonal makes shorter) are skipped by the scan below
            if min(map(add, row, columns[k])) >= row[k]:
                continue
            for j in range(n):
                if j == i or j == k:
                    continue
                if row[k] > row[j] + scaled[j][k]:
                    out.append(
                        MetricViolation(
                            "triangle",
                            (i, j, k),
                            f"dist[{i}][{k}] = {dist[i][k]} > {dist[i][j]} + {dist[j][k]}"
                            f" = dist[{i}][{j}] + dist[{j}][{k}]",
                        )
                    )
    return out


def validate_space(
    dist: Sequence[Sequence[object]], labels: Sequence[str] | None = None
) -> FiniteMetricSpace:
    """Validate a distance matrix and wrap it as a FiniteMetricSpace.

    Shape problems (non-square matrix, label mismatch, duplicate labels) raise
    ValueError; axiom violations raise MetricAxiomError carrying every violation.
    """
    matrix = _coerce_matrix(dist)
    n = len(matrix)
    if n == 0:
        raise ValueError("a space needs at least one point")
    for i, row in enumerate(matrix):
        if len(row) != n:
            raise ValueError(f"matrix is not square: row {i} has length {len(row)}, expected {n}")
    if labels is None:
        labels = tuple(f"p{i}" for i in range(n))
    else:
        labels = tuple(str(lb) for lb in labels)
        if len(labels) != n:
            raise ValueError(f"{len(labels)} labels for {n} points")
        if len(set(labels)) != n:
            raise ValueError("labels must be distinct")
    violations = metric_violations(matrix)
    if violations:
        raise MetricAxiomError(violations)
    return FiniteMetricSpace(labels=labels, dist=matrix)


def line_space(
    coords: Sequence[int | str | Fraction], labels: Sequence[str] | None = None
) -> FiniteMetricSpace:
    """Space of distinct points on the rational line with |a - b| distances."""
    pts = [as_rational(c) for c in coords]
    if len(set(pts)) != len(pts):
        raise ValueError("line coordinates must be distinct")
    if labels is None:
        labels = tuple(str(p) for p in pts)
    dist = tuple(tuple(abs(a - b) for b in pts) for a in pts)
    return FiniteMetricSpace(labels=tuple(labels), dist=dist)


def ultrametric_violation(space: FiniteMetricSpace) -> tuple[int, int, int] | None:
    """First triple (x, y, z) with d(x,z) <= d(x,y) < d(z,y), or None.

    Scans pairs a < c, then b ascending, for d(a,c) > max(d(a,b), d(b,c)); a
    violation is normalized so that x is the middle point, y the farther
    endpoint and z the nearer one (ties resolved toward the later endpoint).
    """
    n = space.n
    flat, _ = _scaled([v for row in space.dist for v in row])
    scaled = [flat[i * n : (i + 1) * n] for i in range(n)]
    columns = list(zip(*scaled))
    for a, row in enumerate(scaled):
        for c in range(a + 1, n):
            dac = row[c]
            # b = a and b = c never pass: max(d(a,a), d(a,c)) >= d(a,c)
            if min(map(max, row, columns[c])) >= dac:
                continue
            for b in range(n):
                if dac > row[b] and dac > scaled[b][c]:
                    if scaled[b][c] >= scaled[b][a]:
                        return (b, c, a)
                    return (b, a, c)
    return None


def is_ultrametric(space: FiniteMetricSpace) -> bool:
    """True iff d(x,z) <= max(d(x,y), d(y,z)) for all triples."""
    return ultrametric_violation(space) is None


def closed_ball(space: FiniteMetricSpace, center: int, radius: int | str | Fraction) -> Ball:
    """Points at distance <= radius from the center."""
    r = as_rational(radius)
    if r < 0:
        raise ValueError(f"radius must be nonnegative, got {r}")
    row = space.dist[center]
    members = tuple(p for p in range(space.n) if row[p] <= r)
    return Ball(center=center, radius=r, kind="closed", members=members)


def open_ball(space: FiniteMetricSpace, center: int, radius: int | str | Fraction) -> Ball:
    """Points at distance < radius from the center."""
    r = as_rational(radius)
    if r < 0:
        raise ValueError(f"radius must be nonnegative, got {r}")
    row = space.dist[center]
    members = tuple(p for p in range(space.n) if row[p] < r)
    return Ball(center=center, radius=r, kind="open", members=members)


def enumerate_balls(space: FiniteMetricSpace) -> BallFamily:
    """All distinct closed-ball member sets of the space.

    Membership is piecewise constant in the radius, so per center it suffices
    to take the radii occurring in that center's row (r = 0 is the diagonal
    entry, giving the singleton {center}). Sets are deduplicated across
    centers; the representative is the first (center, radius) discovered with
    centers ascending and radii ascending.
    """
    n = space.n
    dist = space.dist
    balls: list[Ball] = []
    index_by_members: dict[tuple[int, ...], int] = {}
    centered_at: list[list[int]] = [[] for _ in range(n)]
    rank: list[tuple[int, ...]] = []
    flat, _ = _scaled([v for row in dist for v in row])
    for c in range(n):
        row = flat[c * n : (c + 1) * n]
        # sorted() is stable, so equal distances keep ascending point order
        order = sorted(range(n), key=row.__getitem__)
        position: dict[int, int] = {}  # distance -> index in centered_at[c]
        k = 0
        while k < n:
            r = row[order[k]]
            # each radius adds the points at that distance, so the sets grow strictly
            position[r] = len(centered_at[c])
            while k + 1 < n and row[order[k + 1]] == r:
                k += 1
            members = tuple(sorted(order[: k + 1]))
            idx = index_by_members.get(members)
            if idx is None:
                idx = len(balls)
                index_by_members[members] = idx
                balls.append(Ball(center=c, radius=dist[c][order[k]], kind="closed", members=members))
            centered_at[c].append(idx)
            k += 1
        rank.append(tuple(map(position.__getitem__, row)))
    containing: list[list[int]] = [[] for _ in range(n)]
    for idx, ball in enumerate(balls):
        for p in ball.members:
            containing[p].append(idx)
    return BallFamily(
        balls=tuple(balls),
        containing=tuple(tuple(s) for s in containing),
        centered_at=tuple(tuple(s) for s in centered_at),
        rank=tuple(rank),
    )


def find_midpoint_configs(space: FiniteMetricSpace) -> list[MidpointConfig]:
    """All (a, m, b) with a < b and d(a,m) = d(m,b) = d(a,b)/2."""
    n = space.n
    dist = space.dist
    at_distance: list[dict[Fraction, list[int]]] = []
    for i in range(n):
        buckets: dict[Fraction, list[int]] = {}
        row = dist[i]
        for j in range(n):
            if j != i:
                buckets.setdefault(row[j], []).append(j)
        at_distance.append(buckets)
    configs: list[MidpointConfig] = []
    for a in range(n):
        for b in range(a + 1, n):
            half = dist[a][b] / 2
            near_a = at_distance[a].get(half)
            if not near_a:
                continue
            near_b = set(at_distance[b].get(half, ()))
            for m in near_a:
                if m in near_b:
                    configs.append(MidpointConfig(a=a, m=m, b=b))
    return configs
