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
at `slots[i]`, of a prefix sum over the family's per-center `rows`. A
field reads the family's rows and slots, a one-point query those of
`family.plan(x)`: the rows of the centers whose balls hold x alone.

A measure is bound to a family once (`_BallMeasures.of`): its scaled weights
and every ball's scaled mass are kept on mu, for the last family mu met, and
read by every later query on that pair. The binding holds that family, so
mu keeps it alive; a query on another family rebinds.

One path per question. A point x is centered when every ball holding x is a
ball around x, as in an ultrametric space; there no function separates the
operators. Every point is centered iff Σ|B| equals the total length of
`centered_at` (`family.centered_only`), and a field then answers from
`centered_at` alone. Otherwise one backward scan of each `centered_at[c]`
gives the centered argmax at c and the records, the balls winning a suffix of
it; the best ball holding x is a record, as each later ball around its center
holds it, so one sweep over the records, best first on exact integer keys
floor(-S·2^shift/M) with 2^shift > 2M², gives every non-centered argmax. A
one-point query sums only the balls holding x, and scans `centered_at[x]` and
`family.holding(x)`. Along one center a tie goes to the earlier, smaller ball;
elsewhere two distinct balls are compared, on their masks, only at equal value.

No kernel reads a `Ball` where `family.masks` serves: ties compare masks.
One pair kernel (`pair_infima`) serves the audit and the point-mass search:
the smallest ball holding p and y around each center c has the larger of
their ranks around c, so a few points take n candidates each; a full
point-mass row (`pair_masses`) sweeps the balls containing p by ascending
mass and writes only the points each one adds. The cheaper path runs.

`MaximalValue` and `PointMaximal` are named tuples, one per value and point
of a field: built positionally, immutable, compared and hashed by field.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from functools import cmp_to_key
from itertools import accumulate
from operator import getitem
from typing import Callable, Iterable, NamedTuple, Sequence

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

# per-center pair steps that cost as much as one ball swept by `pair_masses`
_BALL_STEPS = 2


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
    by the lcm of mu's denominators, and never changes once built but for
    the `near` rows it keeps of the points read. A
    candidate ball's average (or measure ratio) is S/M, with M its scaled
    measure and S an integer ball sum of the query's scaled values; balls of
    measure zero read as 0. Built by `of`, and kept by mu.
    """

    @classmethod
    def of(cls, family: BallFamily, mu: DiscreteMeasure) -> _BallMeasures:
        """mu bound to family: the binding mu keeps if built for this very family, else a new one.

        The family is matched by identity, never by value (hashing the
        weights would cost more than a bind). mu keeps one binding, the last
        built, outside its equality, hash and repr; a failed build keeps none.
        """
        kept = mu.__dict__.get("_ball_measures")
        if kept is None or kept.family is not family:
            kept = mu.__dict__["_ball_measures"] = cls(family, mu)
        return kept

    def __init__(self, family: BallFamily, mu: DiscreteMeasure):
        if family.n != mu.n:
            raise ValueError(f"dimension mismatch: family on {family.n} points, measure on {mu.n}")
        self.family = family
        _nonempty_support(mu)
        self.weights, self.scale = _scaled(mu.weights)
        self.masses = _ball_sums(self.weights, family.rows, family.slots)
        self._denominators = [m or 1 for m in self.masses]
        self._shift = 2 * max(self._denominators).bit_length() + 1  # 2^shift > 2D²: see `field`
        self._near: dict[int, list[int]] = {}

    def _require(self, g: SampleFunction | DiscreteMeasure, x: int | None = None) -> None:
        """Raise unless x, if given, is a support point and g lives on mu's points."""
        n = len(self.weights)
        if x is not None:
            if not 0 <= x < n:
                raise ValueError(f"point {x} out of range")
            if self.weights[x] == 0:
                raise ValueError(f"point {x} is outside the support of the measure")
        if g.n != n:
            raise ValueError(f"dimension mismatch: {g.n} points against a measure on {n}")

    def _sums(
        self,
        g: SampleFunction | DiscreteMeasure,
        rows: Sequence[Sequence[int]],
        slots: Sequence[int],
    ) -> tuple[list[int], Fraction]:
        """Integer sums for g of the balls ending at `slots` of `rows` end to end, and a factor.

        S/M times the factor is the true value. For a function g that is its
        ball average, and a ball of measure zero sums to 0. For a measure g it
        is the ratio g(B)/mu(B); only `at` passes one, and every ball it reads
        holds a support point, so none has measure zero.
        """
        if isinstance(g, SampleFunction):
            values, k = _scaled(g.values)
            point_values = [v * w for v, w in zip(values, self.weights)]
            return _ball_sums(point_values, rows, slots), Fraction(1, k)
        point_values, k = _scaled(g.weights)
        return _ball_sums(point_values, rows, slots), Fraction(self.scale, k)

    def _scan(self, sums: list[int]) -> tuple[list[int], set[int]]:
        """The centered argmax around each center, and the records: every suffix winner.

        Walks each `centered_at[c]` backwards keeping the best ball of
        `centered_at[c][j:]`; a tie goes to the earlier, smaller ball.
        """
        denominators = self._denominators
        centered, records = [], set()
        for row in self.family.centered_at:
            best = row[-1]
            best_s, best_m = sums[best], denominators[best]
            for i in reversed(row):
                s, m = sums[i], denominators[i]
                if s * best_m >= best_s * m:
                    best, best_s, best_m = i, s, m
                    records.add(i)
            centered.append(best)
        return centered, records

    def _sweep(self, sums: list[int], records: set[int], support: int) -> list[int | None]:
        """The best record holding each point of the `support` mask, None elsewhere.

        Records go best first: by the key (-S << shift) // M, then by size, both
        in one int, and a run of equal ints, once it holds an uncovered point, by
        `_precedes`. Each takes the points it adds; the sweep ends once all are.
        """
        masks, denominators, shift = self.family.masks, self._denominators, self._shift
        width = len(self.weights).bit_length()  # a ball's size fits below the key
        keys = {i: ((-sums[i] << shift) // denominators[i] << width) + masks[i].bit_count() for i in records}
        order = sorted(keys, key=keys.__getitem__)
        best: list[int | None] = [None] * len(self.weights)
        for pos, i in enumerate(order):
            if masks[i] & support:
                run = order[pos : bisect_right(order, keys[i], pos, key=keys.__getitem__)]
                for j in sorted(run, key=cmp_to_key(lambda a, b: -1 if _precedes(masks[a], masks[b]) else 1)):
                    new = masks[j] & support
                    support ^= new
                    while new:
                        low = new & -new
                        best[low.bit_length() - 1] = j
                        new ^= low
                if not support:
                    break
        return best

    def _best(self, sums: list[int] | dict[int, int], candidates: Iterable[int]) -> int:
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

    def _value(self, sums: list[int] | dict[int, int], factor: Fraction, i: int) -> MaximalValue:
        """Ball i with its true average (or ratio) sums[i] / masses[i] times factor."""
        value = Fraction(sums[i] * factor.numerator, self._denominators[i] * factor.denominator)
        return MaximalValue(value, self.family.ball(i))

    def at(
        self, g: SampleFunction | DiscreteMeasure, x: int
    ) -> tuple[MaximalValue, MaximalValue]:
        """Centered and non-centered maxima at the support point x.

        g is a function (ball averages) or a measure (ratios g(B)/mu(B)).
        One point sums only the balls holding x, from `family.plan(x)`: the
        rows of their centers alone, with no record scan. Keyed by ball id,
        those sums serve its scans of `centered_at[x]` and `holding(x)`.
        """
        self._require(g, x)
        held, rows, slots = self.family.plan(x)
        sums, factor = self._sums(g, rows, slots)
        sums = dict(zip(held, sums))
        centered = self._value(sums, factor, self._best(sums, self.family.centered_at[x]))
        return centered, self._value(sums, factor, self._best(sums, held))

    def near(self, p: int) -> list[int]:
        """For each center c, the scaled mass of the smallest ball around c holding p; kept.

        That ball is `centered_at[c][rank_of[p][c]]`; the masses along a
        center's balls never decrease, as the balls are nested. Two C-level
        maps build it, n steps, once per point and binding.
        """
        found = self._near.get(p)
        if found is None:
            family = self.family
            ids = map(getitem, family.centered_at, family.rank_of[p])
            found = self._near[p] = list(map(self.masses.__getitem__, ids))
        return found

    def inf_pair(self, x: int, y: int) -> tuple[Fraction, Ball]:
        """The smallest measure of a ball holding x and y, ties to the smallest ball.

        Around each center c the smallest ball holding both is the one of rank
        max(rank_of[x][c], rank_of[y][c]); any larger ball around c is no
        lighter and strictly bigger, so only these n candidates can win. They
        are drawn, and their least mass found, by C-level maps in n steps;
        `_precedes` compares only candidates of that mass. This is
        `pair_infima`'s per-center path for one pair; its sweep gives masses
        but not the argmin ball, so this query has no other path.
        """
        family = self.family
        if not (0 <= x < family.n and 0 <= y < family.n):
            raise ValueError("point index out of range")
        masks, masses = family.masks, self.masses
        ranks = map(max, family.rank_of[x], family.rank_of[y])
        candidates = list(map(getitem, family.centered_at, ranks))
        least = min(map(masses.__getitem__, candidates))
        best = None
        for i in candidates:
            if masses[i] == least and (best is None or _precedes(masks[i], masks[best])):
                best = i
        return Fraction(least, self.scale), family.ball(best)

    def pair_infima(self, points: Sequence[int]) -> Callable[[int], list[int] | dict[int, int]]:
        """The pair infima with `points`, as a function of p: a table t with t[y] for each y there.

        t[y] is the least scaled mass of a ball holding p and y. Per center:
        around c the smallest ball holding both has rank max(rank_of[p][c],
        rank_of[y][c]), and masses never decrease along c's balls, so t[y]
        is the least of the n maxima of `near(p)` and `near(y)`: |points|·n
        steps for one p, and t a dict over `points`. The sweep,
        `pair_masses(p)` as t, walks the about Σ|B|/n balls holding p. A
        swept ball costs about K = `_BALL_STEPS` = 2 steps, so the
        per-center path is returned iff |points|·n² < K·Σ|B|; timing both
        over every p on taxicab clouds, line grids and graph metrics,
        n = 30 to 400 (Python 3.11, 2 vCPUs), put the crossover at K = 1.7
        to 3.8. A step is a comprehension: 59 ns a center, where
        `map(max, ...)` took 160.
        """
        family = self.family
        if len(points) * family.n**2 >= _BALL_STEPS * family.member_total:
            return self.pair_masses
        near = self.near

        def per_center(p: int) -> dict[int, int]:
            near_p = near(p)
            return {y: min([a if a > b else b for a, b in zip(near_p, near(y))]) for y in points}

        return per_center

    def pair_masses(self, p: int) -> list[int]:
        """For every point x, the smallest scaled measure of a ball holding both p and x.

        One sweep over the balls containing p by ascending mass gives each
        point the mass of the first ball that covers it: it writes only the
        points a ball adds to those already covered, n writes in all, and
        stops once every point is covered. It reads masks, never a `Ball`,
        and sorts and walks `containing[p]`, about Σ|B|/n balls, whatever the
        caller reads of the row; `pair_infima` picks it only where that
        costs less than |points|·n per-center steps.
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
        """Both maxima of f at each support point, ascending, one `MaximalValue` per ball.

        On `centered_only`, the best of `centered_at[x]` serves both operators.
        Else `_scan` gives the centered argmaxes and the records, and the
        non-centered argmax at x is the best record holding x: the best ball
        b holding x, of rank k around its center c, wins the suffix of
        `centered_at[c]` from k, as every later ball around c holds b, hence
        x, and is no better. `_sweep` finds it: with D the largest M and
        2^shift > 2D², two distinct values S/M differ by at least 1/D², over
        two units once shifted, so floored keys keep their order and equality.
        Each way gives the unique best ball by value, then `_precedes`.
        """
        family = self.family
        self._require(f)
        sums, factor = self._sums(f, family.rows, family.slots)
        support = [x for x, w in enumerate(self.weights) if w]
        if family.centered_only:
            centered = noncentered = {x: self._best(sums, family.centered_at[x]) for x in support}
        else:
            centered, records = self._scan(sums)
            noncentered = self._sweep(sums, records, sum(1 << x for x in support))
        balls = {*map(centered.__getitem__, support), *map(noncentered.__getitem__, support)}
        values = {i: self._value(sums, factor, i) for i in balls}
        points = (PointMaximal(x, values[centered[x]], values[noncentered[x]]) for x in support)
        return MaximalReport(points=tuple(points))


def _ball_sums(
    point_values: Sequence[int], rows: Sequence[Sequence[int]], slots: Sequence[int]
) -> list[int]:
    """The sums of point_values over the balls ending at `slots` of `rows` laid end to end."""
    value = point_values.__getitem__
    prefix: list[int] = []
    for row in rows:
        prefix += accumulate(map(value, row))
    return list(map(prefix.__getitem__, slots))


def centered_maximal(
    f: SampleFunction, mu: DiscreteMeasure, family: BallFamily, x: int
) -> MaximalValue:
    """Max ball average of f over balls centered at the support point x."""
    return _BallMeasures.of(family, mu).at(f, x)[0]


def noncentered_maximal(
    f: SampleFunction, mu: DiscreteMeasure, family: BallFamily, x: int
) -> MaximalValue:
    """Max ball average of f over every ball containing the support point x."""
    return _BallMeasures.of(family, mu).at(f, x)[1]


def centered_maximal_measure(
    nu: DiscreteMeasure, mu: DiscreteMeasure, family: BallFamily, x: int
) -> MaximalValue:
    """Max of nu(B)/mu(B) over balls centered at x (ratio 0 where mu(B) = 0)."""
    return _BallMeasures.of(family, mu).at(nu, x)[0]


def noncentered_maximal_measure(
    nu: DiscreteMeasure, mu: DiscreteMeasure, family: BallFamily, x: int
) -> MaximalValue:
    """Max of nu(B)/mu(B) over every ball containing x (ratio 0 where mu(B) = 0)."""
    return _BallMeasures.of(family, mu).at(nu, x)[1]


def inf_ball_measure_pair(
    mu: DiscreteMeasure, family: BallFamily, x: int, y: int
) -> tuple[Fraction, Ball]:
    """Minimum of mu over distinct closed balls containing both x and y.

    At least one candidate always exists (any ball of radius >= diameter).
    Argmin ties break toward the smallest member set.
    """
    return _BallMeasures.of(family, mu).inf_pair(x, y)


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
    return _BallMeasures.of(family, mu).field(f)
