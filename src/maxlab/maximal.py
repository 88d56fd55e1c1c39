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

Nothing is summed ball by ball: every ball mass and ball sum is one read,
at `slots[i]`, of a prefix sum over the family's per-center `rows`.

One path per question. A point x is centered when every ball holding x is a
ball around x, as in an ultrametric space; there no function separates the
operators. Every point is centered iff Σ|B| equals the total length of
`centered_at` (`family.centered_only`). A field then answers from
`centered_at` alone, the centered argmax serving both operators, and
otherwise builds suffix winners, winner [c][j] being the best ball of
`centered_at[c][j:]`. A one-point query builds no winner tables and scans
`centered_at[x]` and `family.holding(x)`.
Along one center the balls grow strictly, so a tie there goes to the earlier
ball. Elsewhere two distinct balls are compared, on their member masks, only
when two cross-products are equal.

No kernel reads a `Ball` where `family.masks` serves: ties compare masks.
The point-mass row of the pair audit (`pair_masses`) sweeps the balls
containing p by ascending mass and writes only the points each one adds.

`MaximalValue` and `PointMaximal` are named tuples, one per value and point
of a field: built positionally, immutable, compared and hashed by field.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate
from typing import Iterable, NamedTuple, Sequence

from .measure import DiscreteMeasure, SampleFunction, _nonempty_support
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

class MaximalValue(NamedTuple):
    """A maximal average together with a ball representative achieving it."""

    value: Fraction
    ball: Ball


class PointMaximal(NamedTuple):
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


def _precedes(a: int, b: int) -> bool:
    """Whether the member set with mask a comes before b: fewer members, then lexicographically.

    Two sorted member tuples of equal length first differ at the smallest
    point of the symmetric difference, so a comes first iff that point is in a.
    """
    size_a, size_b = a.bit_count(), b.bit_count()
    if size_a != size_b:
        return size_a < size_b
    diff = a ^ b
    return diff & -diff & a != 0


class _BallMeasures:
    """A ball family bound to a measure mu, with every ball's measure as an integer.

    Holds only what depends on mu, its weights and the ball measures scaled
    by the lcm of mu's denominators, and never changes once built. A
    candidate ball's average (or measure ratio) is S/M, with M its scaled
    measure and S an integer ball sum of the query's scaled values; balls of
    measure zero read as 0.
    """

    def __init__(self, family: BallFamily, mu: DiscreteMeasure):
        if family.n != mu.n:
            raise ValueError(f"dimension mismatch: family on {family.n} points, measure on {mu.n}")
        self.family = family
        _nonempty_support(mu)
        self.weights, self.scale = _scaled(mu.weights)
        self.masses = self._ball_sums(self.weights)
        self._denominators = [m or 1 for m in self.masses]

    def _ball_sums(self, point_values: Sequence[int]) -> list[int]:
        """Every ball's sum of point_values: prefix sums over the family's rows, read at its slots."""
        value = point_values.__getitem__
        prefix: list[int] = []
        for row in self.family.rows:
            prefix += accumulate(map(value, row))
        return list(map(prefix.__getitem__, self.family.slots))

    def _require_support(self, x: int) -> None:
        if not 0 <= x < len(self.weights):
            raise ValueError(f"point {x} out of range")
        if self.weights[x] == 0:
            raise ValueError(f"point {x} is outside the support of the measure")

    def _sums(self, g: SampleFunction | DiscreteMeasure) -> tuple[list[int], Fraction]:
        """Integer ball sums for g, and the factor taking S/M to the true value.

        For a function g the value is its ball average, for a measure g the
        ratio g(B)/mu(B). Balls of measure zero sum to 0.
        """
        n = len(self.weights)
        if g.n != n:
            raise ValueError(f"dimension mismatch: {g.n} points against a measure on {n}")
        if isinstance(g, SampleFunction):
            values, k = _scaled(g.values)
            # a ball of measure zero sums to 0 here already
            return self._ball_sums([v * w for v, w in zip(values, self.weights)]), Fraction(1, k)
        point_values, k = _scaled(g.weights)
        sums = self._ball_sums(point_values)
        if 0 in self.masses:
            sums = [s if m else 0 for s, m in zip(sums, self.masses)]
        return sums, Fraction(self.scale, k)

    def _winners(self, sums: list[int]) -> list[list[int]]:
        """Suffix winners: entry [c][j] is the argmax over `centered_at[c][j:]`.

        Along one center the balls grow strictly, so a tie goes to the
        earlier, smaller ball. Only a family with an off-center point builds them.
        """
        denominators = self._denominators
        table = []
        for row in self.family.centered_at:
            best = row[-1]
            best_s, best_m = sums[best], denominators[best]
            winners = []
            for i in reversed(row):
                s, m = sums[i], denominators[i]
                if s * best_m >= best_s * m:
                    best, best_s, best_m = i, s, m
                winners.append(best)
            winners.reverse()
            table.append(winners)
        return table

    def _best(self, sums: list[int], candidates: Iterable[int]) -> int:
        """Argmax of sums[i] / masses[i] over the candidates, ties to the smallest ball.

        A tie between two distinct balls compares their masks (`_precedes`),
        and only such a tie does.
        """
        masks, denominators = self.family.masks, self._denominators
        candidates = iter(candidates)
        best = next(candidates)
        best_s, best_m = sums[best], denominators[best]
        for i in candidates:
            s, m = sums[i], denominators[i]
            lhs, rhs = s * best_m, best_s * m
            if lhs > rhs or (
                lhs == rhs and i != best and _precedes(masks[i], masks[best])
            ):
                best, best_s, best_m = i, s, m
        return best

    def _value(self, sums: list[int], factor: Fraction, i: int) -> MaximalValue:
        """Ball i with its true average (or ratio) sums[i] / masses[i] times factor."""
        value = Fraction(sums[i] * factor.numerator, self._denominators[i] * factor.denominator)
        return MaximalValue(value, self.family.ball(i))

    def at(
        self, g: SampleFunction | DiscreteMeasure, x: int
    ) -> tuple[MaximalValue, MaximalValue]:
        """Centered and non-centered maxima at the support point x.

        g is a function (ball averages) or a measure (ratios g(B)/mu(B)).
        One point does not pay for the winner tables, which cost a pass over
        every center's balls: it scans `centered_at[x]` and `holding(x)`.
        """
        self._require_support(x)
        family = self.family
        sums, factor = self._sums(g)
        centered = self._value(sums, factor, self._best(sums, family.centered_at[x]))
        return centered, self._value(sums, factor, self._best(sums, family.holding(x)))

    def inf_pair(self, x: int, y: int) -> tuple[Fraction, Ball]:
        """The smallest measure of a ball holding x and y, ties to the smallest ball.

        Around each center c the smallest ball holding both is the one of rank
        max(rank_of[x][c], rank_of[y][c]); any larger ball around c is no
        lighter and strictly bigger, so only these n candidates can win.
        """
        family = self.family
        if not (0 <= x < family.n and 0 <= y < family.n):
            raise ValueError("point index out of range")
        masks, masses = family.masks, self.masses
        rank_x, rank_y = family.rank_of[x], family.rank_of[y]
        best = family.centered_at[0][max(rank_x[0], rank_y[0])]
        for row, rx, ry in zip(family.centered_at, rank_x, rank_y):
            i = row[max(rx, ry)]
            if masses[i] < masses[best] or (
                masses[i] == masses[best] and i != best and _precedes(masks[i], masks[best])
            ):
                best = i
        return Fraction(masses[best], self.scale), family.ball(best)

    def pair_masses(self, p: int) -> list[int]:
        """For every point x, the smallest scaled measure of a ball holding both p and x.

        One sweep over the balls containing p by ascending mass gives each
        point the mass of the first ball that covers it: it writes only the
        points a ball adds to those already covered, n writes in all, and
        stops once every point is covered. It reads masks, never a `Ball`.
        """
        family, masses = self.family, self.masses
        n, masks = family.n, family.masks
        row = [0] * n
        covered, everything = 0, (1 << n) - 1
        for i in sorted(family.containing[p], key=masses.__getitem__):
            new = masks[i] & ~covered
            if new:
                covered |= new
                m = masses[i]
                while new:
                    low = new & -new
                    row[low.bit_length() - 1] = m
                    new ^= low
                if covered == everything:
                    break
        return row

    def field(self, f: SampleFunction) -> MaximalReport:
        """Both maxima of f at each support point, ascending.

        One path per family. Σ|B| counts each point once per ball holding it,
        and the balls around x are among those, so Σ|B| exceeds the total
        length of `centered_at` iff some ball holds a point it is no ball
        around. Then the suffix winners serve: the balls holding x are
        `centered_at[c][rank_of[x][c]:]` over every center c, the centered
        argmax is the winner [x][0] and the non-centered one the best of the n
        winners [c][rank_of[x][c]]. Otherwise every ball holding x is a ball
        around x, and the centered argmax serves for both. Each way gives the
        unique best ball by value, then `_precedes`.
        """
        family = self.family
        sums, factor = self._sums(f)
        winners = None if family.centered_only else self._winners(sums)
        points = []
        for x, w in enumerate(self.weights):
            if not w:
                continue
            if winners:
                c = winners[x][0]
                nc = self._best(sums, map(list.__getitem__, winners, family.rank_of[x]))
            else:
                c = nc = self._best(sums, family.centered_at[x])
            centered = self._value(sums, factor, c)
            noncentered = centered if nc == c else self._value(sums, factor, nc)
            points.append(PointMaximal(x, centered, noncentered))
        return MaximalReport(points=tuple(points))


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
