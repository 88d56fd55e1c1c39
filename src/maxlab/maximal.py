"""Centered and non-centered maximal averages, exactly evaluated over a ball family.

The centered value at x is the maximum of ball averages over balls centered at
x; the non-centered value ranges over every ball containing x. Both are
finite maxima because membership changes only at radii drawn from the distance
matrix. Argmax ties are broken toward the smallest member set (cardinality,
then lexicographic) so reports are reproducible.

Every operator is evaluated on integers: the measure's weights are scaled by
the lcm of their denominators, and a function's values (or a numerator
measure's weights) by the lcm of theirs. Ball sums are then Python ints, two
averages S_a/M_a and S_b/M_b are compared by cross-multiplication, and a
`Fraction` is built only for the value returned. No float ever enters.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

from .measure import DiscreteMeasure, SampleFunction
from .metric import Ball, BallFamily, FiniteMetricSpace, _scaled, enumerate_balls

__all__ = [
    "MaximalValue",
    "PointMaximal",
    "MaximalReport",
    "centered_maximal",
    "noncentered_maximal",
    "centered_maximal_measure",
    "noncentered_maximal_measure",
    "inf_ball_measure_pair",
    "maximal_field",
]

@dataclass(frozen=True)
class MaximalValue:
    """A maximal average together with a ball representative achieving it."""

    value: Fraction
    ball: Ball


@dataclass(frozen=True)
class PointMaximal:
    point: int
    centered: MaximalValue
    noncentered: MaximalValue


@dataclass(frozen=True)
class MaximalReport:
    """Both maximal values at every support point (off-support points are absent)."""

    points: tuple[PointMaximal, ...]

    def at(self, point: int) -> PointMaximal:
        for entry in self.points:
            if entry.point == point:
                return entry
        raise KeyError(f"point {point} is not in the support")

    def centered_values(self) -> dict[int, Fraction]:
        return {e.point: e.centered.value for e in self.points}

    def noncentered_values(self) -> dict[int, Fraction]:
        return {e.point: e.noncentered.value for e in self.points}


class _BallMeasures:
    """A ball family bound to a measure mu, with every ball's measure as an integer.

    mu's weights and the ball measures are scaled by the lcm of mu's
    denominators. They depend only on (family, mu), so one instance serves
    every query on that pair. A candidate ball's average (or measure ratio)
    is S/M, with M its scaled measure and S an integer ball sum of the
    query's scaled values; balls of measure zero read as 0.
    """

    def __init__(self, family: BallFamily, mu: DiscreteMeasure):
        if family.n != mu.n:
            raise ValueError(f"dimension mismatch: family on {family.n} points, measure on {mu.n}")
        self.family = family
        self.weights, self.scale = _scaled(mu.weights)
        weight = self.weights.__getitem__
        balls = family.balls
        self.masses = tuple(sum(map(weight, ball.members)) for ball in balls)
        # tie_rank[i] < tie_rank[j] iff ball i is smaller (size, then members) than ball j
        keys = [(len(ball.members), ball.members) for ball in balls]
        self.tie_rank = [0] * len(balls)
        for rank, i in enumerate(sorted(range(len(balls)), key=keys.__getitem__)):
            self.tie_rank[i] = rank

    def _require_support(self, x: int) -> None:
        if not 0 <= x < len(self.weights):
            raise ValueError(f"point {x} out of range")
        if self.weights[x] == 0:
            raise ValueError(f"point {x} is outside the support of the measure")

    def _sums(
        self, g: SampleFunction | DiscreteMeasure, indices: Iterable[int]
    ) -> tuple[dict[int, int], Fraction]:
        """Integer ball sums for g, and the factor taking S/M to the true value.

        For a function g the value is its ball average, for a measure g the
        ratio g(B)/mu(B). Balls of measure zero sum to 0.
        """
        n = len(self.weights)
        if g.n != n:
            raise ValueError(f"dimension mismatch: {g.n} points against a measure on {n}")
        if isinstance(g, SampleFunction):
            values, k = _scaled(g.values)
            point_values, factor = [v * w for v, w in zip(values, self.weights)], Fraction(1, k)
        else:
            point_values, k = _scaled(g.weights)
            factor = Fraction(self.scale, k)
        value = point_values.__getitem__
        balls, masses = self.family.balls, self.masses
        return {i: sum(map(value, balls[i].members)) if masses[i] else 0 for i in indices}, factor

    def _best(self, sums: dict[int, int], indices: Sequence[int]) -> int:
        """Argmax of sums[i] / masses[i] over the candidates, ties to the smallest ball."""
        if not indices:
            raise ValueError("no candidate balls")
        masses, tie_rank = self.masses, self.tie_rank
        best = indices[0]
        best_s, best_m = sums[best], masses[best] or 1
        for i in indices:
            s, m = sums[i], masses[i] or 1
            lhs, rhs = s * best_m, best_s * m
            if lhs > rhs or (lhs == rhs and tie_rank[i] < tie_rank[best]):
                best, best_s, best_m = i, s, m
        return best

    def _value(self, sums: dict[int, int], factor: Fraction, i: int) -> MaximalValue:
        """Ball i with its true average (or ratio) sums[i] / masses[i] times factor."""
        value = Fraction(sums[i] * factor.numerator, (self.masses[i] or 1) * factor.denominator)
        return MaximalValue(value=value, ball=self.family.balls[i])

    def at(
        self, g: SampleFunction | DiscreteMeasure, x: int
    ) -> tuple[MaximalValue, MaximalValue]:
        """Centered and non-centered maxima at the support point x.

        g is a function (ball averages) or a measure (ratios g(B)/mu(B)). The
        balls centered at x all contain x, so one pass of sums over the balls
        containing x serves both argmaxes.
        """
        self._require_support(x)
        family = self.family
        sums, factor = self._sums(g, family.containing[x])
        centered = self._value(sums, factor, self._best(sums, family.centered_at[x]))
        return centered, self._value(sums, factor, self._best(sums, family.containing[x]))

    def inf_pair(self, x: int, y: int) -> tuple[Fraction, Ball]:
        family = self.family
        if not (0 <= x < family.n and 0 <= y < family.n):
            raise ValueError("point index out of range")
        masses, tie_rank = self.masses, self.tie_rank
        in_y = set(family.containing[y])
        best = None
        for i in family.containing[x]:
            if i not in in_y:
                continue
            m = masses[i]
            if best is None or m < best_m or (m == best_m and tie_rank[i] < tie_rank[best]):
                best, best_m = i, m
        if best is None:
            raise AssertionError("ball family is missing a whole-space ball")
        return Fraction(best_m, self.scale), family.balls[best]

    def pair_masses(self, p: int) -> list[int]:
        """For every point x, the smallest scaled measure of a ball holding both p and x."""
        balls, masses = self.family.balls, self.masses
        row = [0] * self.family.n
        # largest balls first, so each point keeps the smallest mass written to it
        for i in sorted(self.family.containing[p], key=masses.__getitem__, reverse=True):
            m = masses[i]
            for x in balls[i].members:
                row[x] = m
        return row

    def field(self, f: SampleFunction) -> MaximalReport:
        family = self.family
        sums, factor = self._sums(f, range(len(family.balls)))
        return MaximalReport(
            points=tuple(
                PointMaximal(
                    point=x,
                    centered=self._value(sums, factor, self._best(sums, family.centered_at[x])),
                    noncentered=self._value(sums, factor, self._best(sums, family.containing[x])),
                )
                for x, w in enumerate(self.weights)
                if w
            )
        )

    def first_gap(self, f: SampleFunction) -> tuple[int, MaximalValue, MaximalValue] | None:
        """The first support point where the non-centered value of f beats the centered one.

        Compares the two argmax balls' integer (sum, mass) pairs point by
        point, as `field` would, and builds the values only for the point
        returned, with its centered and non-centered maxima.
        """
        family, masses = self.family, self.masses
        sums, factor = self._sums(f, range(len(family.balls)))
        for x, w in enumerate(self.weights):
            if not w:
                continue
            c = self._best(sums, family.centered_at[x])
            nc = self._best(sums, family.containing[x])
            if sums[nc] * (masses[c] or 1) > sums[c] * (masses[nc] or 1):
                return x, self._value(sums, factor, c), self._value(sums, factor, nc)
        return None


def centered_maximal(
    f: SampleFunction, mu: DiscreteMeasure, family: BallFamily, x: int
) -> MaximalValue:
    """Max ball average of f over balls centered at the support point x."""
    return _BallMeasures(family, mu).at(f, x)[0]


def noncentered_maximal(
    f: SampleFunction, mu: DiscreteMeasure, family: BallFamily, x: int
) -> MaximalValue:
    """Max ball average of f over every ball containing the support point x."""
    return _BallMeasures(family, mu).at(f, x)[1]


def centered_maximal_measure(
    nu: DiscreteMeasure, mu: DiscreteMeasure, family: BallFamily, x: int
) -> MaximalValue:
    """Max of nu(B)/mu(B) over balls centered at x (ratio 0 where mu(B) = 0)."""
    return _BallMeasures(family, mu).at(nu, x)[0]


def noncentered_maximal_measure(
    nu: DiscreteMeasure, mu: DiscreteMeasure, family: BallFamily, x: int
) -> MaximalValue:
    """Max of nu(B)/mu(B) over every ball containing x (ratio 0 where mu(B) = 0)."""
    return _BallMeasures(family, mu).at(nu, x)[1]


def inf_ball_measure_pair(
    mu: DiscreteMeasure, family: BallFamily, x: int, y: int
) -> tuple[Fraction, Ball]:
    """Minimum of mu over distinct closed balls containing both x and y.

    At least one candidate always exists (any ball of radius >= diameter).
    Argmin ties break toward the smallest member set.
    """
    return _BallMeasures(family, mu).inf_pair(x, y)


def maximal_field(
    f: SampleFunction,
    mu: DiscreteMeasure,
    space: FiniteMetricSpace,
    family: BallFamily | None = None,
) -> MaximalReport:
    """Both maximal values of f at every support point.

    Ball measures and ball sums are computed once for the whole family and
    shared across points.
    """
    if family is None:
        family = enumerate_balls(space)
    return _BallMeasures(family, mu).field(f)
