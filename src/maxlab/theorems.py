"""Mechanical checks of the operator-coincidence facts on finite spaces.

This module decides, with certificates, whether the centered and non-centered
maximal operators agree for every sample function on a given (space, measure)
pair; constructs explicit gap witnesses from ultrametric violations; audits
the pairwise ball-infimum inequality and its symmetric equality; verifies the
finite-space lower-semicontinuity of the measure-maximal operators; and runs
the line-grid demonstration where the two operators provably separate.

Everything is exact rational arithmetic. Verdicts carry certificates that an
independent checker can re-verify without trusting the decision.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate
from typing import Sequence

from .maximal import MaximalValue, _BallMeasures, centered_maximal, noncentered_maximal
from .measure import (
    DiscreteMeasure,
    SampleFunction,
    measure_of,
    normalized_indicator,
    dirac,
)
from .metric import (
    Ball,
    BallFamily,
    FiniteMetricSpace,
    MidpointConfig,
    as_rational,
    closed_ball,
    enumerate_balls,
    find_midpoint_configs,
    line_space,
    open_ball,
)

__all__ = [
    "Witness",
    "HullCertificate",
    "CoincidenceVerdict",
    "PairBallCheck",
    "BallInfimumReport",
    "LowerSemicontinuityReport",
    "GridDemoReport",
    "BumpCheck",
    "BumpRefinementReport",
    "construct_witness",
    "coincidence_randomized",
    "coincidence_exact",
    "verify_witness",
    "verify_hull_certificates",
    "check_ball_infimum",
    "check_lower_semicontinuity",
    "build_grid_demo",
    "bump_function",
    "check_bump_bound",
]

_ZERO = Fraction(0)
_ONE = Fraction(1)

GRID_DEMO_NOTE = (
    "finite-grid evidence: non-atomic measures have no exact finite "
    "representation, so the separation of the two operators is exhibited at "
    "grid resolution n rather than asserted in the continuum"
)


@dataclass(frozen=True)
class Witness:
    """A (measure, function, point) at which the non-centered maximal exceeds the centered one."""

    measure: DiscreteMeasure
    function: SampleFunction
    point: int
    centered_value: Fraction
    noncentered_value: Fraction

    def __post_init__(self):
        if self.function.n != self.measure.n:
            raise ValueError("witness function and measure live on different point counts")
        if not self.noncentered_value > self.centered_value:
            raise ValueError(
                f"not a witness: noncentered {self.noncentered_value} <= centered {self.centered_value}"
            )

    @property
    def gap(self) -> Fraction:
        return self.noncentered_value - self.centered_value


@dataclass(frozen=True)
class HullCertificate:
    """Convex coefficients writing one containing-ball functional over centered ones."""

    point: int
    ball_index: int
    coefficients: tuple[tuple[int, Fraction], ...]  # (centered ball family index, weight)


@dataclass(frozen=True)
class CoincidenceVerdict:
    """Equal-or-distinct decision with a re-checkable certificate.

    `distinct` always carries a Witness, and when decided exactly also the
    separating triple (x, p, q, c) behind it: see `coincidence_exact`.
    `equal` carries hull certificates when decided exactly; the randomized
    method's `equal` is inconclusive and carries none.
    """

    verdict: str  # "equal" | "distinct"
    method: str  # "exact" | "randomized"
    witness: Witness | None = None
    certificates: tuple[HullCertificate, ...] | None = None
    trials: int | None = None
    explanation: tuple[int, int, int, int] | None = None

    def __post_init__(self):
        if self.verdict not in ("equal", "distinct"):
            raise ValueError(f"bad verdict {self.verdict!r}")
        if self.method not in ("exact", "randomized"):
            raise ValueError(f"bad method {self.method!r}")
        if self.verdict == "distinct" and self.witness is None:
            raise ValueError("distinct verdicts must carry a witness")
        if self.verdict == "equal" and self.method == "exact" and self.certificates is None:
            raise ValueError("exact equal verdicts must carry hull certificates")


def construct_witness(
    space: FiniteMetricSpace, triple: tuple[int, int, int], family: BallFamily | None = None
) -> Witness:
    """Gap witness from a normalized ultrametric violation (x, y, z).

    Requires d(x,z) <= d(x,y) < d(z,y), the shape returned by
    `ultrametric_violation`. The witness measure puts weight 1 on x, y, z; the
    function is the unit-mass indicator of {y}; evaluation happens at x. Every
    ball centered at x that reaches y also swallows z, while the ball around y
    of radius d(x,y) contains x but not z, so the values are exactly 1/3 and
    1/2 regardless of the ambient space.
    """
    x, y, z = triple
    n = space.n
    if len({x, y, z}) != 3 or not all(0 <= p < n for p in (x, y, z)):
        raise ValueError(f"triple {triple} is not three distinct points of the space")
    if not (space.dist[x][z] <= space.dist[x][y] < space.dist[z][y]):
        raise ValueError(
            f"triple {triple} does not violate the ultrametric inequality in normalized form"
        )
    weights = [_ZERO] * n
    for p in (x, y, z):
        weights[p] = _ONE
    nu = DiscreteMeasure(tuple(weights))
    f = normalized_indicator(space, (y,), nu)
    if family is None:
        family = enumerate_balls(space)
    ball_measures = _BallMeasures(family, nu)
    cv = ball_measures.max_average(f, x, family.centered_at).value
    nv = ball_measures.max_average(f, x, family.containing).value
    return Witness(measure=nu, function=f, point=x, centered_value=cv, noncentered_value=nv)


def _first_gap(
    mu: DiscreteMeasure, ball_measures: _BallMeasures, f: SampleFunction
) -> Witness | None:
    report = ball_measures.field(f)
    for entry in report.points:
        if entry.noncentered.value > entry.centered.value:
            return Witness(
                measure=mu,
                function=f,
                point=entry.point,
                centered_value=entry.centered.value,
                noncentered_value=entry.noncentered.value,
            )
    return None


def coincidence_randomized(
    space: FiniteMetricSpace,
    mu: DiscreteMeasure,
    trials: int,
    seed: int,
    family: BallFamily | None = None,
    value_range: tuple[int, int] = (-9, 9),
) -> CoincidenceVerdict:
    """Search for a function separating the two maximal fields.

    Phase 1 tries the unit-mass indicator of each support point (the functions
    behind the explicit witness construction); phase 2 tries `trials` random
    integer-valued functions from the seeded generator. An `equal` answer is
    inconclusive; a `distinct` answer carries the first witness found.
    """
    if trials < 0:
        raise ValueError("trials must be >= 0")
    if family is None:
        family = enumerate_balls(space)
    ball_measures = _BallMeasures(family, mu)
    for p in mu.support:
        f = normalized_indicator(space, (p,), mu)
        witness = _first_gap(mu, ball_measures, f)
        if witness is not None:
            return CoincidenceVerdict("distinct", "randomized", witness=witness, trials=0)
    rng = random.Random(seed)
    lo, hi = value_range
    if lo > hi:
        raise ValueError("empty value range")
    for t in range(trials):
        f = SampleFunction(tuple(Fraction(rng.randint(lo, hi)) for _ in range(space.n)))
        witness = _first_gap(mu, ball_measures, f)
        if witness is not None:
            return CoincidenceVerdict("distinct", "randomized", witness=witness, trials=t + 1)
    return CoincidenceVerdict("equal", "randomized", trials=trials)


def _functional(
    ball: Ball, mu: DiscreteMeasure, ball_measure: Fraction
) -> tuple[Fraction, ...]:
    """Coordinates of f -> average of f over the ball, as a vector against f."""
    vec = [_ZERO] * mu.n
    for p in ball.members:
        w = mu.weights[p]
        if w:
            vec[p] = w / ball_measure
    return tuple(vec)


def coincidence_exact(
    space: FiniteMetricSpace, mu: DiscreteMeasure, family: BallFamily | None = None
) -> CoincidenceVerdict:
    """Decide whether both maximal operators agree for every sample function.

    Let S be the support of mu. At x in S the two values are maxima of the
    averaging functionals of the balls centered at x and of the balls
    containing x. The centered balls are nested, so a convex combination of
    their functionals has a mu-density that does not increase with the
    distance from x: a containing ball B's functional lies in their hull
    exactly when B ∩ S is the trace of a centered ball. With R the largest
    rank from x over B ∩ S, that holds iff B ∩ S holds every point of S of
    rank <= R, and the centered ball of rank R is then the smallest match.

    `equal` carries one certificate per (support point, containing ball),
    naming with weight 1 the ball itself if it is centered at x, else that
    centered ball. `distinct` stops at the first mismatch B, with p a
    farthest point of B ∩ S and q the first point of S outside B of rank
    <= R, so d(x,q) <= d(x,p) while B, around c, holds x and p but not q;
    it carries (x, p, q, c). Its witness f is 1 on B ∩ S, 2 on the points
    of B ∩ S of rank R, and -2 mu(B)/mu(q) at q: a centered ball that misses
    rank R averages at most 1, one that reaches it holds q and averages at
    most 0, and B averages above 1. Both values are re-evaluated directly.
    """
    if family is None:
        family = enumerate_balls(space)
    weights = mu.weights
    support = mu.support
    certificates: list[HullCertificate] = []
    for x in support:
        centered = family.centered_at[x]
        centered_set = set(centered)
        rank = family.rank[x]
        # count[r]: points of S of rank <= r from x
        per_rank = [0] * len(centered)
        for p in support:
            per_rank[rank[p]] += 1
        count = list(accumulate(per_rank))
        for j in family.containing[x]:
            if j in centered_set:
                certificates.append(HullCertificate(x, j, ((j, _ONE),)))
                continue
            ball = family.balls[j]
            trace = [p for p in ball.members if weights[p]]
            top = max(map(rank.__getitem__, trace))
            if len(trace) == count[top]:
                certificates.append(HullCertificate(x, j, ((centered[top], _ONE),)))
                continue
            far = next(p for p in trace if rank[p] == top)
            q = next(p for p in support if rank[p] <= top and p not in ball.members)
            ball_measures = _BallMeasures(family, mu)
            values = [_ZERO] * mu.n
            for p in trace:
                values[p] = Fraction(2 if rank[p] == top else 1)
            values[q] = Fraction(-2 * ball_measures.masses[j], ball_measures.scale) / weights[q]
            f = SampleFunction(tuple(values))
            cv = ball_measures.max_average(f, x, family.centered_at).value
            nv = ball_measures.max_average(f, x, family.containing).value
            if not nv > cv:
                raise RuntimeError("separating function failed direct re-evaluation")
            witness = Witness(
                measure=mu, function=f, point=x, centered_value=cv, noncentered_value=nv
            )
            return CoincidenceVerdict(
                "distinct", "exact", witness=witness, explanation=(x, far, q, ball.center)
            )
    return CoincidenceVerdict("equal", "exact", certificates=tuple(certificates))


def verify_witness(
    space: FiniteMetricSpace, witness: Witness, family: BallFamily | None = None
) -> bool:
    """Re-evaluate both maximal values directly and compare with the stored ones."""
    if family is None:
        family = enumerate_balls(space)
    cv = centered_maximal(witness.function, witness.measure, family, witness.point).value
    nv = noncentered_maximal(witness.function, witness.measure, family, witness.point).value
    return cv == witness.centered_value and nv == witness.noncentered_value and nv > cv


def verify_hull_certificates(
    space: FiniteMetricSpace,
    mu: DiscreteMeasure,
    verdict: CoincidenceVerdict,
    family: BallFamily | None = None,
) -> bool:
    """Check an exact `equal` verdict by plain arithmetic, without the decision.

    Requires full coverage (one certificate per support point and containing
    ball) and, for each certificate, nonnegative coefficients over centered
    balls summing to one whose combination reproduces the target functional.
    """
    if verdict.verdict != "equal" or verdict.certificates is None:
        return False
    if family is None:
        family = enumerate_balls(space)
    measures = [measure_of(mu, b) for b in family.balls]
    covered: set[tuple[int, int]] = set()
    for cert in verdict.certificates:
        x = cert.point
        if mu.weights[x] == 0:
            return False
        if cert.ball_index not in family.containing[x]:
            return False
        centered_set = set(family.centered_at[x])
        total = _ZERO
        combo = [_ZERO] * mu.n
        for idx, lam in cert.coefficients:
            if lam < 0 or idx not in centered_set:
                return False
            total += lam
            vec = _functional(family.balls[idx], mu, measures[idx])
            for p in range(mu.n):
                if vec[p]:
                    combo[p] += lam * vec[p]
        if total != 1:
            return False
        if tuple(combo) != _functional(family.balls[cert.ball_index], mu, measures[cert.ball_index]):
            return False
        covered.add((x, cert.ball_index))
    expected = {(x, j) for x in mu.support for j in family.containing[x]}
    return covered == expected


@dataclass(frozen=True)
class PairBallCheck:
    """Ball-infimum audit of one ordered support pair (x, y)."""

    x: int
    y: int
    measure_ball_y: Fraction  # measure of the closed ball around y with radius d(x,y)
    pair_infimum: Fraction  # minimum measure over balls containing both x and y
    measure_ball_x: Fraction  # measure of the closed ball around x with radius d(x,y)
    dirac_maximal: Fraction  # non-centered maximal of the point mass at x, at y
    inequality_holds: bool  # measure_ball_y <= pair_infimum
    symmetry_holds: bool  # measure_ball_y == measure_ball_x
    dirac_bound_holds: bool  # dirac_maximal <= 1 / measure_ball_y


@dataclass(frozen=True)
class BallInfimumReport:
    pairs: tuple[PairBallCheck, ...]

    @property
    def all_inequalities_hold(self) -> bool:
        return all(p.inequality_holds for p in self.pairs)

    @property
    def all_symmetric(self) -> bool:
        return all(p.symmetry_holds for p in self.pairs)

    @property
    def all_dirac_bounds_hold(self) -> bool:
        return all(p.dirac_bound_holds for p in self.pairs)

    def pair(self, x: int, y: int) -> PairBallCheck:
        for p in self.pairs:
            if p.x == x and p.y == y:
                return p
        raise KeyError(f"no pair ({x}, {y}) in report")


def check_ball_infimum(
    space: FiniteMetricSpace, mu: DiscreteMeasure, family: BallFamily | None = None
) -> BallInfimumReport:
    """Audit, for every ordered support pair (x, y) with x != y, the bounds

    measure(B(y, d(x,y))) <= min over balls containing x and y of the measure,
    the symmetric equality measure(B(y,d)) == measure(B(x,d)), and the bound
    of the point-mass maximal at y by 1/measure(B(y,d)). All three hold
    whenever the two maximal operators coincide for every function; each row
    records whether they hold here.
    """
    if family is None:
        family = enumerate_balls(space)
    ball_measures = _BallMeasures(family, mu)
    support = mu.support
    rows: list[PairBallCheck] = []
    for x in support:
        delta_x = dirac(space, x)
        for y in support:
            if y == x:
                continue
            d = space.dist[x][y]
            m_y = measure_of(mu, closed_ball(space, y, d))
            m_x = measure_of(mu, closed_ball(space, x, d))
            inf_m, _ = ball_measures.inf_pair(x, y)
            dm = ball_measures.max_ratio(delta_x, y, family.containing).value
            rows.append(
                PairBallCheck(
                    x=x,
                    y=y,
                    measure_ball_y=m_y,
                    pair_infimum=inf_m,
                    measure_ball_x=m_x,
                    dirac_maximal=dm,
                    inequality_holds=m_y <= inf_m,
                    symmetry_holds=m_y == m_x,
                    dirac_bound_holds=dm * m_y <= 1,
                )
            )
    return BallInfimumReport(pairs=tuple(rows))


@dataclass(frozen=True)
class LowerSemicontinuityReport:
    """Measure-maximal values along a weight-convergent sequence of measures."""

    point: int
    noncentered_values: tuple[Fraction, ...]
    centered_values: tuple[Fraction, ...]
    noncentered_limit: Fraction
    centered_limit: Fraction
    deviations: tuple[Fraction, ...]  # max entrywise |nu_k - nu| per element
    stability_constant: Fraction  # point count / min ball measure at the point
    tolerance: Fraction  # stability_constant * max tail deviation
    tail_start: int
    tail_inequality_holds: bool  # min over tail >= limit - tolerance, both operators
    per_step_bounds_hold: bool  # |value_k - limit| <= C * deviation_k at every k, both operators


def check_lower_semicontinuity(
    mu: DiscreteMeasure,
    space: FiniteMetricSpace,
    nu_sequence: Sequence[DiscreteMeasure],
    nu_limit: DiscreteMeasure,
    x: int,
    deviation_bound: int | str | Fraction,
    family: BallFamily | None = None,
) -> LowerSemicontinuityReport:
    """Track both measure-maximal values at x along nu_sequence -> nu_limit.

    On a finite space weak convergence is entrywise weight convergence, and
    both maximal values are maxima of finitely many ratios linear in the
    numerator measure, so they move by at most C times the entrywise
    deviation, C = (point count) / (smallest mu-ball measure at x). The report
    asserts the tail lower bound (min over the tail >= limit - tolerance) and
    the stronger per-step two-sided bound.

    The last element must deviate from the limit by at most `deviation_bound`.
    """
    if not nu_sequence:
        raise ValueError("empty measure sequence")
    if family is None:
        family = enumerate_balls(space)
    bound = as_rational(deviation_bound)
    for nu in (*nu_sequence, nu_limit):
        if nu.n != mu.n:
            raise ValueError("all measures must live on the same point count")

    def deviation(nu: DiscreteMeasure) -> Fraction:
        return max(abs(a - b) for a, b in zip(nu.weights, nu_limit.weights))

    deviations = tuple(deviation(nu) for nu in nu_sequence)
    if deviations[-1] > bound:
        raise ValueError(
            f"last element deviates by {deviations[-1]}, above the allowed {bound}"
        )
    ball_measures = _BallMeasures(family, mu)
    nc_values = tuple(
        ball_measures.max_ratio(nu, x, family.containing).value for nu in nu_sequence
    )
    c_values = tuple(
        ball_measures.max_ratio(nu, x, family.centered_at).value for nu in nu_sequence
    )
    nc_limit = ball_measures.max_ratio(nu_limit, x, family.containing).value
    c_limit = ball_measures.max_ratio(nu_limit, x, family.centered_at).value

    min_ball = min(ball_measures.masses[i] for i in family.containing[x])
    constant = Fraction(mu.n * ball_measures.scale, min_ball)
    tail_start = len(nu_sequence) // 2
    tolerance = constant * max(deviations[tail_start:])
    tail_ok = min(nc_values[tail_start:]) >= nc_limit - tolerance and min(
        c_values[tail_start:]
    ) >= c_limit - tolerance
    per_step_ok = all(
        abs(nc - nc_limit) <= constant * eps and abs(cc - c_limit) <= constant * eps
        for nc, cc, eps in zip(nc_values, c_values, deviations)
    )
    return LowerSemicontinuityReport(
        point=x,
        noncentered_values=nc_values,
        centered_values=c_values,
        noncentered_limit=nc_limit,
        centered_limit=c_limit,
        deviations=deviations,
        stability_constant=constant,
        tolerance=tolerance,
        tail_start=tail_start,
        tail_inequality_holds=tail_ok,
        per_step_bounds_hold=per_step_ok,
    )


@dataclass(frozen=True)
class GridDemoReport:
    """Exact operator gap on the uniform grid over [0, 2], plus midpoint structure."""

    subdivisions: int
    space: FiniteMetricSpace
    mu: DiscreteMeasure
    f: SampleFunction
    point: int
    centered: MaximalValue
    noncentered: MaximalValue
    gap: Fraction
    closed_form_gap: Fraction
    matches_closed_form: bool
    midpoint_configs: tuple[MidpointConfig, ...]
    chain_points: tuple[int, ...]
    chain_balls: tuple[Ball, ...]
    chain_measures: tuple[Fraction, ...]
    chain_is_midpoint_sequence: bool
    chain_nested: bool
    chain_infimum_inequality_holds: bool
    note: str


def build_grid_demo(n: int) -> GridDemoReport:
    """Uniform grid {k/n : 0 <= k <= 2n} on [0, 2] with the indicator of [0, 1].

    Evaluates both maximal operators exactly at x = 1 + 1/n and reports the
    gap: the centered value is (n+1)/(2n+1), the non-centered one (n+1)/(n+2)
    via the ball spanning [0, 1 + 1/n]. Also lists every midpoint
    configuration of the grid and follows the longest dyadic chain in which
    each new point is the midpoint of the previous two, reporting the measures
    of the associated shrinking balls: their nestedness forces the measures to
    be non-increasing, while the infimum inequality chain would force them to
    be non-decreasing, which visibly fails on the grid.
    """
    if n < 2:
        raise ValueError("need at least 2 subdivisions")
    coords = [Fraction(k, n) for k in range(2 * n + 1)]
    space = line_space(coords)
    mu = DiscreteMeasure(tuple(_ONE for _ in coords))
    f = SampleFunction(tuple(_ONE if c <= 1 else _ZERO for c in coords))
    point = n + 1  # coordinate 1 + 1/n
    family = enumerate_balls(space)
    centered = centered_maximal(f, mu, family, point)
    noncentered = noncentered_maximal(f, mu, family, point)
    gap = noncentered.value - centered.value
    closed_form = Fraction(n + 1, n + 2) - Fraction(n + 1, 2 * n + 1)

    # Longest dyadic midpoint chain: indices 0, m, m/2, 3m/4, ... while integral.
    m = 1 << ((2 * n).bit_length() - 1)
    chain = [0, m]
    while (chain[-2] + chain[-1]) % 2 == 0:
        chain.append((chain[-2] + chain[-1]) // 2)
    is_midpoint_seq = all(
        space.dist[chain[i]][chain[i + 2]] == space.dist[chain[i + 2]][chain[i + 1]]
        and space.dist[chain[i]][chain[i + 2]] == space.dist[chain[i]][chain[i + 1]] / 2
        for i in range(len(chain) - 2)
    )
    balls = tuple(
        closed_ball(space, chain[i + 2], space.dist[chain[i + 1]][chain[i + 2]])
        for i in range(len(chain) - 2)
    )
    ball_measures = tuple(measure_of(mu, b) for b in balls)
    nested = all(
        set(balls[i + 1].members) <= set(balls[i].members) for i in range(len(balls) - 1)
    )
    infimum_chain = all(
        ball_measures[i] <= ball_measures[i + 1] for i in range(len(ball_measures) - 1)
    )
    return GridDemoReport(
        subdivisions=n,
        space=space,
        mu=mu,
        f=f,
        point=point,
        centered=centered,
        noncentered=noncentered,
        gap=gap,
        closed_form_gap=closed_form,
        matches_closed_form=gap == closed_form,
        midpoint_configs=tuple(find_midpoint_configs(space)),
        chain_points=tuple(chain),
        chain_balls=balls,
        chain_measures=ball_measures,
        chain_is_midpoint_sequence=is_midpoint_seq,
        chain_nested=nested,
        chain_infimum_inequality_holds=infimum_chain,
        note=GRID_DEMO_NOTE,
    )


def bump_function(
    space: FiniteMetricSpace,
    mu: DiscreteMeasure,
    x: int,
    y: int,
    delta: int | str | Fraction,
) -> SampleFunction:
    """Unit-mass indicator of the open delta-ball at x minus the open d(x,y)-ball at y.

    The set always contains x, so it has positive measure whenever x is a
    support point. For delta at most the distance from x to its nearest other
    point, the set collapses to {x} and the function equals the unit-mass
    indicator of {x}.
    """
    if x == y:
        raise ValueError("x and y must differ")
    r = as_rational(delta)
    if r <= 0:
        raise ValueError("delta must be positive")
    inner = set(open_ball(space, x, r).members)
    removed = set(open_ball(space, y, space.dist[x][y]).members)
    support_set = sorted(inner - removed)
    return normalized_indicator(space, support_set, mu)


@dataclass(frozen=True)
class BumpCheck:
    delta: Fraction
    centered_value_at_y: Fraction
    bound_holds: bool
    is_point_mass: bool  # function equals the unit-mass indicator of {x}


@dataclass(frozen=True)
class BumpRefinementReport:
    x: int
    y: int
    bound: Fraction  # 1 / measure of B(y, d(x,y))
    point_mass_threshold: Fraction  # delta at or below this collapses the bump to {x}
    checks: tuple[BumpCheck, ...]

    @property
    def all_bounds_hold(self) -> bool:
        return all(c.bound_holds for c in self.checks)


def check_bump_bound(
    space: FiniteMetricSpace,
    mu: DiscreteMeasure,
    x: int,
    y: int,
    deltas: Sequence[int | str | Fraction],
    family: BallFamily | None = None,
) -> BumpRefinementReport:
    """Centered maximal of each bump at y against the bound 1/measure(B(y, d(x,y))).

    Any ball around y that meets the bump's support has radius at least
    d(x,y), so its measure dominates measure(B(y, d(x,y))) while the bump
    integrates to at most 1; the bound therefore holds for every delta, and
    in particular survives the shrinking limit where the bump becomes the
    unit point mass at x.
    """
    if x == y:
        raise ValueError("x and y must differ")
    if mu.weights[x] == 0 or mu.weights[y] == 0:
        raise ValueError("both points must be in the support")
    if not deltas:
        raise ValueError("need at least one delta")
    if family is None:
        family = enumerate_balls(space)
    bound = 1 / measure_of(mu, closed_ball(space, y, space.dist[x][y]))
    threshold = min(space.dist[x][p] for p in range(space.n) if p != x)
    point_mass = normalized_indicator(space, (x,), mu)
    ball_measures = _BallMeasures(family, mu)
    checks = []
    for raw in deltas:
        r = as_rational(raw)
        f = bump_function(space, mu, x, y, r)
        value = ball_measures.max_average(f, y, family.centered_at).value
        checks.append(
            BumpCheck(
                delta=r,
                centered_value_at_y=value,
                bound_holds=value <= bound,
                is_point_mass=f == point_mass,
            )
        )
    return BumpRefinementReport(
        x=x, y=y, bound=bound, point_mass_threshold=threshold, checks=tuple(checks)
    )
