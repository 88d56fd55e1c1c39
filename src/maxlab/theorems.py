"""Mechanical checks of the operator-coincidence facts on finite spaces.

This module decides, with certificates, whether the centered and non-centered
maximal operators agree for every sample function on a given (space, measure)
pair; constructs explicit gap witnesses from ultrametric violations; audits
the pairwise ball-infimum inequality and its symmetric equality; verifies the
finite-space lower-semicontinuity of the measure-maximal operators; and runs
the line-grid demonstration where the two operators provably separate.

Everything is exact rational arithmetic. Verdicts carry certificates that an
independent checker can re-verify without trusting the decision.

The records built once per row, `HullCertificate` and `PairBallCheck`, are
named tuples, built positionally in the loops that emit them: one tuple per
record, immutable, compared and hashed by field. A verdict or report that
holds them, one per call, stays a frozen dataclass.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from itertools import groupby
from typing import NamedTuple, Sequence

from .maximal import MaximalValue, _BallMeasures
from .measure import (
    DiscreteMeasure,
    SampleFunction,
    _nonempty_support,
    measure_of,
    normalized_indicator,
)
from .metric import (
    Ball,
    BallFamily,
    FiniteMetricSpace,
    MidpointConfig,
    _bit_indices,
    as_rational,
    closed_ball,
    enumerate_balls,
    find_midpoint_configs,
    line_space,
)

__all__ = [
    "Witness",
    "HullCertificate",
    "CoincidenceVerdict",
    "PairBallCheck",
    "BallInfimumReport",
    "LowerSemicontinuityReport",
    "GridDemoReport",
    "construct_witness",
    "coincidence_randomized",
    "coincidence_exact",
    "verify_witness",
    "verify_hull_certificates",
    "check_ball_infimum",
    "check_lower_semicontinuity",
    "build_grid_demo",
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


class HullCertificate(NamedTuple):
    """A ball centered at `point` with the same trace on the support as a containing ball.

    Two balls with the same trace average every function alike, so the
    containing ball's average is one of the centered values at `point`.
    """

    point: int
    ball: Ball  # a ball containing point
    centered_ball: Ball  # a ball centered at point with the same trace


@dataclass(frozen=True)
class CoincidenceVerdict:
    """Equal-or-distinct decision with a re-checkable certificate.

    `distinct` always carries a Witness, and when decided exactly also the
    separating triple (x, p, q, c) behind it: see `coincidence_exact`.
    `equal` carries trace-match certificates when decided exactly, one per
    (support point, containing ball); the randomized method's `equal` is
    decided by its point-mass search too, but carries no certificate.
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


def construct_witness(space: FiniteMetricSpace, triple: tuple[int, int, int]) -> Witness:
    """Gap witness from a normalized ultrametric violation (x, y, z).

    Requires d(x,z) <= d(x,y) < d(z,y), the shape returned by
    `ultrametric_violation`. The witness measure puts weight 1 on x, y, z; the
    function is the unit-mass indicator of {y}; evaluation happens at x. Every
    ball centered at x that reaches y also swallows z, while the ball around y
    of radius d(x,y) contains x but not z, so the values are exactly 1/3 and
    1/2 regardless of the ambient space; `verify_witness` re-checks them.
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
    return Witness(nu, f, x, centered_value=Fraction(1, 3), noncentered_value=Fraction(1, 2))


def coincidence_randomized(
    space: FiniteMetricSpace,
    mu: DiscreteMeasure,
    trials: int,
    seed: int,
    family: BallFamily | None = None,
) -> CoincidenceVerdict:
    """Search the point masses for a function separating the two maximal fields.

    Tries the unit-mass indicator of each support point p in turn (the
    functions behind the explicit witness construction). A `distinct` answer
    carries the first witness found: the first p, then the first support
    point x at which the non-centered value exceeds the centered one. If no
    point mass separates the operators, the answer is `equal`.

    The values are read off integer ball masses. A ball averages the
    indicator of p to 1/mu(B) if it holds p and to 0 otherwise, so at x the
    centered value is 1/mu(B(x, d(x,p))) and the non-centered one is 1 over
    the smallest mass of a ball holding both x and p, which one sweep over the
    balls containing p gives for every x. Only the witness is re-evaluated,
    directly.

    The point masses alone decide, so `equal` is no guess. If the operators
    differ at all, some ball B holds x and p but misses a q in the support S
    with d(x,q) <= d(x,p) (see `coincidence_exact`). Let p* be a point of
    B ∩ S farthest from x. B ∩ S lies in B(x, d(x,p*)), which also holds q, so
    mu(B) <= mu(B(x, d(x,p*))) - mu(q) < mu(B(x, d(x,p*))): the indicator of
    p* separates the operators at x.

    A centered x, one where every ball holding x is a ball around x, has no
    gap: the search tests only the others, and with none it reads no pair row.

    `trials` is only echoed by an `equal` verdict and `seed` is ignored; the
    benchmark under `bench/` still passes both, and their removal waits on
    ROADMAP item 2.
    """
    if trials < 0:
        raise ValueError("trials must be >= 0")
    if family is None:
        family = enumerate_balls(space)
    ball_measures = _BallMeasures.of(family, mu)
    masses = ball_measures.masses
    support = mu.support
    off_center = [x for x in support if family.off_center[x]]
    for p in support if off_center else ():
        pair_masses = ball_measures.pair_masses(p)
        ranks = family.rank_of[p]
        for x in off_center:
            if pair_masses[x] < masses[family.centered_at[x][ranks[x]]]:
                f = normalized_indicator(space, (p,), mu)
                cv, nv = ball_measures.at(f, x)
                witness = Witness(mu, f, x, centered_value=cv.value, noncentered_value=nv.value)
                return CoincidenceVerdict("distinct", "randomized", witness=witness, trials=0)
    return CoincidenceVerdict("equal", "randomized", trials=trials)


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
    Traces are bitmasks, a ball's mask AND the support's. The centered traces
    are nested, so R is found by bisection for the smallest one that holds
    B's trace, and one equality test decides.

    `equal` carries one certificate per (support point, containing ball),
    naming the ball itself if it is centered at x, else that centered ball.
    At a centered x each ball holding x certifies itself, read off
    `centered_at[x]` in family order: no trace, and no `containing`.
    `distinct` stops at the first mismatch B, with p a farthest point of
    B ∩ S and q the first point of S outside B of rank <= R, so
    d(x,q) <= d(x,p) while B, around c, holds x and p but not q;
    it carries (x, p, q, c). Its witness f is 1 on B ∩ S, 2 on the points
    of B ∩ S of rank R, and -2 mu(B)/mu(q) at q: a centered ball that misses
    rank R averages at most 1, one that reaches it holds q and averages at
    most 0, and B averages above 1. Both values are re-evaluated directly.
    """
    if family is None:
        family = enumerate_balls(space)
    weights = mu.weights
    support = _nonempty_support(mu)
    support_mask = sum(1 << p for p in support)
    masks, balls = family.masks, family.balls
    certificates: list[HullCertificate] = []
    for x in support:
        centered = family.centered_at[x]
        if not family.off_center[x]:
            certificates += [HullCertificate(x, balls[i], balls[i]) for i in sorted(centered)]
            continue
        centered_set = set(centered)
        # traces[k]: the points of S of rank <= k from x; the last is all of S
        traces = [masks[i] & support_mask for i in centered]
        for j in family.containing[x]:
            ball = balls[j]
            if j in centered_set:
                certificates.append(HullCertificate(x, ball, ball))
                continue
            trace = masks[j] & support_mask
            # the traces are nested, and the first that holds B ∩ S has rank R
            top = bisect_left(traces, True, key=lambda t: trace & ~t == 0)
            if trace == traces[top]:
                certificates.append(HullCertificate(x, ball, balls[centered[top]]))
                continue
            # the trace holds x, which has rank 0, so here top >= 1
            outer = trace & ~traces[top - 1]  # the points of B ∩ S of rank R
            far = _lowest_bit(outer)
            q = _lowest_bit(traces[top] & ~masks[j])
            ball_measures = _BallMeasures.of(family, mu)
            values = [_ZERO] * mu.n
            for p in _bit_indices(trace):
                values[p] = Fraction(2 if outer >> p & 1 else 1)
            values[q] = Fraction(-2 * ball_measures.masses[j], ball_measures.scale) / weights[q]
            f = SampleFunction(tuple(values))
            cv, nv = ball_measures.at(f, x)
            if not nv.value > cv.value:
                raise RuntimeError("separating function failed direct re-evaluation")
            witness = Witness(mu, f, x, centered_value=cv.value, noncentered_value=nv.value)
            return CoincidenceVerdict(
                "distinct", "exact", witness=witness, explanation=(x, far, q, ball.center)
            )
    return CoincidenceVerdict("equal", "exact", certificates=tuple(certificates))


def _lowest_bit(mask: int) -> int:
    """The position of the lowest set bit of a positive int."""
    return (mask & -mask).bit_length() - 1


def verify_witness(space: FiniteMetricSpace, witness: Witness) -> bool:
    """Re-evaluate both maximal values from the distance matrix and compare with the stored ones.

    Shares nothing with the ball family or the maximal operators' kernel. A
    ball's average depends only on its trace on the support S, which changes
    only at the radii d(c, p), p in S. So around each center c, S is sorted
    by the `Fraction`s d(c, p) once, mu and f·mu are summed in that order,
    and each trace up to a new distance d(c, p) >= d(c, x) gives one
    candidate average: O(n·|S| log |S|) in all. A witness at a point outside
    the support never verifies.
    """
    mu, f, x = witness.measure, witness.function, witness.point
    if not 0 <= x < space.n or mu.n != space.n or mu.weights[x] == 0:
        return False
    weights, values = mu.weights, f.values

    def best(center: int) -> Fraction:
        row = space.dist[center]
        averages, mass, integral = [], _ZERO, _ZERO
        for r, trace in groupby(sorted(mu.support, key=row.__getitem__), row.__getitem__):
            for p in trace:
                mass += weights[p]
                integral += values[p] * weights[p]
            if r >= row[x]:
                averages.append(integral / mass)
        return max(averages)

    centered = best(x)
    noncentered = max(map(best, range(space.n)))
    stored = (witness.centered_value, witness.noncentered_value)
    return (centered, noncentered) == stored and noncentered > centered


def verify_hull_certificates(
    space: FiniteMetricSpace, mu: DiscreteMeasure, verdict: CoincidenceVerdict
) -> bool:
    """Check an exact `equal` verdict by plain set comparison, without the decision.

    Shares nothing with the ball family: every closed ball, one per center
    and distinct radius of its row, is re-derived with `closed_ball`. A
    certificate's two balls must be those of their (center, radius), its
    centered ball one around its point (whatever center it names), and their
    traces on the support equal; together they cover each (support point,
    ball holding it) pair, and nothing else.
    """
    support = frozenset(_nonempty_support(mu))
    if verdict.verdict != "equal" or verdict.certificates is None:
        return False
    members = {
        (c, r): frozenset(closed_ball(space, c, r).members)
        for c, row in enumerate(space.dist)
        for r in set(row)
    }
    around = {(c, ball) for (c, _), ball in members.items()}

    def rederived(ball: Ball) -> frozenset[int] | None:
        """The members of the closed ball (center, radius), if the ball holds exactly those."""
        derived = members.get((ball.center, ball.radius))
        return derived if derived == frozenset(ball.members) else None

    covered: set[tuple[int, frozenset[int]]] = set()
    for cert in verdict.certificates:
        x, ball, centered = cert.point, rederived(cert.ball), rederived(cert.centered_ball)
        if ball is None or (x, centered) not in around or ball & support != centered & support:
            return False
        covered.add((x, ball))
    return covered == {(x, ball) for ball in set(members.values()) for x in ball & support}


class PairBallCheck(NamedTuple):
    """Ball-infimum audit of one ordered support pair (x, y)."""

    x: int
    y: int
    measure_ball_y: Fraction  # measure of the closed ball around y with radius d(x,y)
    pair_infimum: Fraction  # minimum measure over balls containing both x and y
    measure_ball_x: Fraction  # measure of the closed ball around x with radius d(x,y)
    inequality_holds: bool  # measure_ball_y <= pair_infimum
    symmetry_holds: bool  # measure_ball_y == measure_ball_x

    @property
    def dirac_maximal(self) -> Fraction:
        """Non-centered maximal of the point mass at x, at y: by definition 1 / pair_infimum."""
        return 1 / self.pair_infimum

    @property
    def dirac_bound_holds(self) -> bool:
        """dirac_maximal <= 1 / measure_ball_y: for positive measures, inequality_holds."""
        return self.inequality_holds


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
    """Audit, for every ordered support pair (x, y) with x != y, the bound

    measure(B(y, d(x,y))) <= min over balls containing x and y of the measure,
    and the symmetric equality measure(B(y,d)) == measure(B(x,d)). Both hold
    whenever the two maximal operators coincide for every function; each row
    records whether they hold here. The point-mass maximal of x at y is 1 over
    the pair infimum, so its bound by 1/measure(B(y,d)) is the first inequality.

    Every value is read off integer ball masses. B(y, d(x,y)) is the ball of
    rank rank_of[x][y] around y, and one `pair_masses(x)` row gives the pair
    infimum of x with every y. At a centered x, where every ball holding x
    is a ball around x, that infimum is measure(B(x,d)) and no row is read.
    """
    if family is None:
        family = enumerate_balls(space)
    ball_measures = _BallMeasures.of(family, mu)
    masses, scale = ball_measures.masses, ball_measures.scale
    # rows repeat few distinct masses: build each Fraction once
    measure = cache(lambda m: Fraction(m, scale))
    rank_of, centered_at = family.rank_of, family.centered_at
    support = mu.support
    rows: list[PairBallCheck] = []
    for x in support:
        off_center = family.off_center[x]
        least = ball_measures.pair_masses(x) if off_center else ()
        ranks_x = rank_of[x]
        for y in support:
            if y == x:
                continue
            m_y = masses[centered_at[y][ranks_x[y]]]
            m_x = masses[centered_at[x][rank_of[y][x]]]
            inf_m = least[y] if off_center else m_x
            rows.append(
                PairBallCheck(
                    x, y, measure(m_y), measure(inf_m), measure(m_x), m_y <= inf_m, m_y == m_x
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
    Every value is one `at` query on mu bound to `family` (the space's balls
    if None), so a caller's family keeps mu's binding and x's plan for later calls.
    """
    if not nu_sequence:
        raise ValueError("empty measure sequence")
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
    if family is None:
        family = enumerate_balls(space)
    ball_measures = _BallMeasures.of(family, mu)
    values = [ball_measures.at(nu, x) for nu in nu_sequence]
    c_values = tuple(c.value for c, _ in values)
    nc_values = tuple(nc.value for _, nc in values)
    c_limit, nc_limit = (v.value for v in ball_measures.at(nu_limit, x))

    # every ball holding x holds {x}, the ball of radius 0 around x, so
    # mu({x}) is the smallest ball measure at x
    constant = mu.n / mu.weights[x]
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
    centered, noncentered = _BallMeasures.of(enumerate_balls(space), mu).at(f, point)
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

