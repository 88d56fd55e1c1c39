"""Discrete measures and sample functions on finite spaces, with exact ball integrals.

A measure's `support` is computed on first read and kept with it, as a
space keeps `int_dist`; equality and hashing still read only the weights.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Iterable

from .metric import Ball, FiniteMetricSpace, as_rational

__all__ = [
    "DiscreteMeasure",
    "SampleFunction",
    "measure_of",
    "integrate",
    "ball_average",
    "dirac",
    "normalized_indicator",
]

_ZERO = Fraction(0)


@dataclass(frozen=True)
class DiscreteMeasure:
    """Nonnegative weights per point; the zero measure may be a numerator nu, never mu.

    As mu it keeps its binding to the last ball family it met (its scaled
    weights and every ball's scaled mass, `maximal._BallMeasures.of`), which
    keeps that family alive; like `support`, it is outside ==, hash and repr.
    """

    weights: tuple[Fraction, ...]

    def __post_init__(self):
        coerced = tuple(as_rational(w) for w in self.weights)
        object.__setattr__(self, "weights", coerced)
        for i, w in enumerate(coerced):
            if w < 0:
                raise ValueError(f"weight {i} is negative: {w}")

    @property
    def n(self) -> int:
        return len(self.weights)

    @cached_property
    def support(self) -> tuple[int, ...]:
        """The points of positive weight, ascending: derived on first read and kept."""
        return tuple(i for i, w in enumerate(self.weights) if w > 0)

    @property
    def total(self) -> Fraction:
        return sum(self.weights, _ZERO)

    def scaled(self, c: int | str | Fraction) -> "DiscreteMeasure":
        factor = as_rational(c)
        if factor <= 0:
            raise ValueError("scaling factor must be positive")
        return DiscreteMeasure(tuple(factor * w for w in self.weights))


@dataclass(frozen=True)
class SampleFunction:
    """Signed rational values, one per point of the space."""

    values: tuple[Fraction, ...]

    def __post_init__(self):
        object.__setattr__(self, "values", tuple(as_rational(v) for v in self.values))

    @property
    def n(self) -> int:
        return len(self.values)

    def scaled(self, c: int | str | Fraction) -> "SampleFunction":
        factor = as_rational(c)
        return SampleFunction(tuple(factor * v for v in self.values))

    def plus(self, other: "SampleFunction") -> "SampleFunction":
        if other.n != self.n:
            raise ValueError(f"dimension mismatch: {self.n} vs {other.n}")
        return SampleFunction(tuple(a + b for a, b in zip(self.values, other.values)))


def _nonempty_support(mu: DiscreteMeasure) -> tuple[int, ...]:
    """mu's support; a measure that divides ball sums must have one."""
    support = mu.support
    if not support:
        raise ValueError("measure must have nonempty support")
    return support


def _check_ball(ball: Ball, n: int) -> None:
    if ball.mask.bit_length() > n:
        raise ValueError(f"ball member {ball.mask.bit_length() - 1} out of range for {n} points")


def measure_of(mu: DiscreteMeasure, ball: Ball) -> Fraction:
    """Total weight of the ball's members."""
    _check_ball(ball, mu.n)
    w = mu.weights
    return sum((w[p] for p in ball.members), _ZERO)


def integrate(f: SampleFunction, mu: DiscreteMeasure, ball: Ball) -> Fraction:
    """Sum of f * weight over the ball's members."""
    if f.n != mu.n:
        raise ValueError(f"dimension mismatch: function on {f.n} points, measure on {mu.n}")
    _check_ball(ball, mu.n)
    w = mu.weights
    v = f.values
    total = _ZERO
    for p in ball.members:
        wp = w[p]
        if wp:
            total += v[p] * wp
    return total


def ball_average(f: SampleFunction, mu: DiscreteMeasure, ball: Ball) -> Fraction:
    """Integral divided by measure, defined as exactly 0 on zero-measure balls."""
    m = measure_of(mu, ball)
    if m == 0:
        return _ZERO
    return integrate(f, mu, ball) / m


def dirac(space: FiniteMetricSpace, x: int) -> DiscreteMeasure:
    """Unit point mass at x."""
    if not 0 <= x < space.n:
        raise ValueError(f"point {x} out of range")
    return DiscreteMeasure(tuple(Fraction(1) if p == x else _ZERO for p in range(space.n)))


def normalized_indicator(
    space: FiniteMetricSpace, points: Iterable[int], mu: DiscreteMeasure
) -> SampleFunction:
    """Indicator of the point set scaled to unit integral against mu.

    Value 1/mu(S) on S and 0 elsewhere; requires mu(S) > 0.
    """
    pts = sorted(set(points))
    if pts and (pts[0] < 0 or pts[-1] >= space.n):
        raise ValueError("indicator points out of range")
    if mu.n != space.n:
        raise ValueError(f"dimension mismatch: measure on {mu.n} points, space has {space.n}")
    mass = sum((mu.weights[p] for p in pts), _ZERO)
    if mass == 0:
        raise ValueError("indicator set has zero measure")
    value = 1 / mass
    member = set(pts)
    return SampleFunction(tuple(value if p in member else _ZERO for p in range(space.n)))
