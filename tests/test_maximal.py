from dataclasses import replace
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracle
from maxlab import (
    BallFamily,
    DiscreteMeasure,
    FiniteMetricSpace,
    MaximalValue,
    PointMaximal,
    SampleFunction,
    ball_average,
    build_grid_demo,
    centered_maximal,
    centered_maximal_measure,
    check_ball_infimum,
    check_lower_semicontinuity,
    closed_ball,
    coincidence_exact,
    coincidence_randomized,
    dirac,
    enumerate_balls,
    gen_function,
    gen_graph_metric,
    gen_measure,
    gen_taxicab,
    gen_ultrametric,
    inf_ball_measure_pair,
    line_space,
    maximal_field,
    measure_of,
    noncentered_maximal,
    noncentered_maximal_measure,
    validate_space,
)
from maxlab import maximal
from maxlab.maximal import _BallMeasures


def check_record(record, fields):
    """A result record: these fields in this order, immutable, equal and hashed by field."""
    cls = type(record)
    assert cls._fields == fields
    values = tuple(getattr(record, name) for name in fields)
    twin = cls(*values)  # positionally, in the field order
    assert twin == record and hash(twin) == hash(record)
    assert cls(**dict(zip(fields, values))) == twin
    for name in (*fields, "extra"):
        with pytest.raises(AttributeError):
            setattr(record, name, None)
    shown = ", ".join(f"{name}={value!r}" for name, value in zip(fields, values))
    assert repr(record) == f"{cls.__name__}({shown})"


# Pairwise coprime denominators, so that the lcm scaling of the integer
# kernel meets large, unrelated factors; 1 keeps integer values and exact ties.
VALUE_DENOMINATORS = (1, 2, 3, 5, 7, 11, 13, 89, 97)
WEIGHT_DENOMINATORS = (1, 4, 9, 101, 9973, 65537)


@st.composite
def instances(draw):
    kind = draw(st.integers(0, 2))
    n = draw(st.integers(1, 8))
    seed = draw(st.integers(0, 10**6))
    if kind == 0:
        space = gen_ultrametric(n, seed=seed)
    elif kind == 1:
        space = gen_taxicab(n, dim=draw(st.integers(1, 3)), seed=seed)
    else:
        space = gen_graph_metric(n, seed=seed)
    weight = st.builds(Fraction, st.integers(0, 12), st.sampled_from(WEIGHT_DENOMINATORS))
    weights = draw(st.lists(weight, min_size=n, max_size=n))
    if not any(weights):
        weights[draw(st.integers(0, n - 1))] = Fraction(1)
    value = st.builds(Fraction, st.integers(-9, 9), st.sampled_from(VALUE_DENOMINATORS))
    values = draw(st.lists(value, min_size=n, max_size=n))
    return space, DiscreteMeasure(tuple(weights)), SampleFunction(tuple(values))


@st.composite
def measure_pairs(draw):
    """A space with tied distances and two measures mu, nu, both with zero weights."""
    n = draw(st.integers(1, 7))
    seed = draw(st.integers(0, 10**6))
    kind = draw(st.integers(0, 2))
    if kind == 0:
        space = gen_taxicab(n, dim=draw(st.integers(1, 2)), seed=seed)
    elif kind == 1:
        space = gen_graph_metric(n, edge_probability=0.45, seed=seed)
    else:
        space = gen_ultrametric(n, seed=seed)
    weight = st.sampled_from([Fraction(0), Fraction(0), Fraction(1), Fraction(2), Fraction(5, 7)])
    mu, nu = (
        DiscreteMeasure(tuple(draw(st.lists(weight, min_size=n, max_size=n).filter(any))))
        for _ in range(2)
    )
    return space, mu, nu


class TestExamples:
    def test_centered_line3(self, line3, uniform3, ind2):
        family = enumerate_balls(line3)
        got = centered_maximal(ind2, uniform3, family, 1)
        assert got.value == Fraction(1, 3)
        assert got.ball.members == (0, 1, 2)

    def test_centered_dominates_point_value(self, line3, uniform3, ind2):
        family = enumerate_balls(line3)
        got = centered_maximal(ind2, uniform3, family, 2)
        assert got.value == 1
        assert got.ball.members == (2,)

    def test_constant_function(self, line3, uniform3):
        ones = SampleFunction((1, 1, 1))
        report = maximal_field(ones, uniform3, line3)
        assert set(report.centered_values().values()) == {Fraction(1)}
        assert set(report.noncentered_values().values()) == {Fraction(1)}

    def test_noncentered_line3(self, line3, uniform3, ind2):
        family = enumerate_balls(line3)
        got = noncentered_maximal(ind2, uniform3, family, 1)
        assert got.value == Fraction(1, 2)
        assert got.ball.members == (1, 2)

    def test_single_point_space(self):
        space = validate_space([[0]])
        mu = DiscreteMeasure((Fraction(3, 2),))
        f = SampleFunction((Fraction(-7, 3),))
        family = enumerate_balls(space)
        assert noncentered_maximal(f, mu, family, 0).value == Fraction(-7, 3)

    def test_noncentered_equilateral(self, eq3, uniform3, ind2):
        family = enumerate_balls(eq3)
        assert noncentered_maximal(ind2, uniform3, family, 0).value == Fraction(1, 3)

    def test_measure_maximal_examples(self, line3, uniform3):
        family = enumerate_balls(line3)
        got = noncentered_maximal_measure(dirac(line3, 0), uniform3, family, 2)
        assert got.value == Fraction(1, 3)
        got = noncentered_maximal_measure(dirac(line3, 2), uniform3, family, 1)
        assert got.value == Fraction(1, 2)
        assert got.ball.members == (1, 2)

    def test_measure_maximal_of_itself(self, line3, uniform3):
        family = enumerate_balls(line3)
        for x in range(3):
            assert centered_maximal_measure(uniform3, uniform3, family, x).value == 1
            assert noncentered_maximal_measure(uniform3, uniform3, family, x).value == 1

    def test_inf_pair_examples(self, line3, uniform3):
        family = enumerate_balls(line3)
        value, ball = inf_ball_measure_pair(uniform3, family, 1, 2)
        assert value == 2 and ball.members == (1, 2)
        value, ball = inf_ball_measure_pair(uniform3, family, 0, 2)
        assert value == 3 and ball.members == (0, 1, 2)
        value, ball = inf_ball_measure_pair(uniform3, family, 1, 1)
        assert value == 1 and ball.members == (1,)

    def test_maximal_field_line3(self, line3, uniform3, ind2):
        report = maximal_field(ind2, uniform3, line3)
        assert report.centered_values() == {0: Fraction(1, 3), 1: Fraction(1, 3), 2: Fraction(1)}
        assert report.noncentered_values() == {
            0: Fraction(1, 3),
            1: Fraction(1, 2),
            2: Fraction(1),
        }

    def test_maximal_field_equilateral(self, eq3, uniform3, ind2):
        report = maximal_field(ind2, uniform3, eq3)
        assert report.centered_values() == report.noncentered_values()
        assert report.centered_values() == {
            0: Fraction(1, 3),
            1: Fraction(1, 3),
            2: Fraction(1),
        }

    def test_off_support_rejected(self, line3, ind2):
        mu = DiscreteMeasure((1, 0, 1))
        family = enumerate_balls(line3)
        with pytest.raises(ValueError, match="support"):
            centered_maximal(ind2, mu, family, 1)
        report = maximal_field(ind2, mu, line3)
        assert [e.point for e in report.points] == [0, 2]
        with pytest.raises(KeyError):
            report.at(1)

    def test_tie_break_smallest_ball(self, line3, uniform3):
        # every average of a constant ties; the singleton must win
        ones = SampleFunction((1, 1, 1))
        family = enumerate_balls(line3)
        assert centered_maximal(ones, uniform3, family, 1).ball.members == (1,)
        assert noncentered_maximal(ones, uniform3, family, 1).ball.members == (1,)


class TestProperties:
    @given(instances())
    @settings(max_examples=60, deadline=None)
    def test_matches_brute_force(self, inst):
        space, mu, f = inst
        family = enumerate_balls(space)
        for x in mu.support:
            assert centered_maximal(f, mu, family, x).value == oracle.centered_value(
                space, mu, f, x
            )
            assert noncentered_maximal(f, mu, family, x).value == oracle.noncentered_value(
                space, mu, f, x
            )

    @given(instances())
    @example(
        # at point 2 the balls {1,2,3}, {2,3,4}, {1,2,3,4}, {0,1,2,3} and the
        # whole line all average 0: size, then lexicographic order picks {1,2,3}
        (
            line_space([0, 1, 2, 3, 4]),
            DiscreteMeasure((1, 1, 1, 1, 1)),
            SampleFunction((0, 0, -1, 1, 0)),
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_field_matches_point_operators_and_oracle(self, inst):
        space, mu, f = inst
        family = enumerate_balls(space)
        report = maximal_field(f, mu, space, family=family)
        assert tuple(e.point for e in report.points) == mu.support
        for e in report.points:
            assert e.centered == centered_maximal(f, mu, family, e.point)
            assert e.noncentered == noncentered_maximal(f, mu, family, e.point)
            for got, centered in ((e.centered, True), (e.noncentered, False)):
                expected = oracle.argmax_ball(space, mu, f, e.point, centered)
                assert (got.value, got.ball.members) == expected

    @given(measure_pairs())
    @example(
        # the line 0..3 ties d(1,0) = d(1,2); mu and nu both vanish somewhere
        (line_space([0, 1, 2, 3]), DiscreteMeasure((1, 0, 1, 1)), DiscreteMeasure((0, 2, 0, 1)))
    )
    @settings(max_examples=150, deadline=None)
    def test_measure_operators_match_oracle(self, inst):
        space, mu, nu = inst
        family = enumerate_balls(space)
        for x in mu.support:
            for op, centered in (
                (centered_maximal_measure, True),
                (noncentered_maximal_measure, False),
            ):
                got = op(nu, mu, family, x)
                expected = oracle.ratio_value(space, mu, nu, x, centered)
                assert (got.value, got.ball.members) == expected

    @given(instances())
    @settings(max_examples=60, deadline=None)
    def test_domination_and_argmax_reproduction(self, inst):
        space, mu, f = inst
        report = maximal_field(f, mu, space)
        for entry in report.points:
            assert entry.centered.value <= entry.noncentered.value
            assert ball_average(f, mu, entry.centered.ball) == entry.centered.value
            assert ball_average(f, mu, entry.noncentered.ball) == entry.noncentered.value

    @given(instances(), st.integers(1, 9))
    @settings(max_examples=40, deadline=None)
    def test_positive_homogeneity(self, inst, c):
        space, mu, f = inst
        family = enumerate_balls(space)
        for x in mu.support:
            base_c = centered_maximal(f, mu, family, x).value
            base_n = noncentered_maximal(f, mu, family, x).value
            assert centered_maximal(f.scaled(c), mu, family, x).value == c * base_c
            assert noncentered_maximal(f.scaled(c), mu, family, x).value == c * base_n
            assert centered_maximal(f, mu.scaled(c), family, x).value == base_c
            assert noncentered_maximal(f, mu.scaled(c), family, x).value == base_n

    @given(instances(), st.integers(0, 10**6))
    @settings(max_examples=40, deadline=None)
    def test_sublinearity(self, inst, seed):
        space, mu, f = inst
        g = gen_function(space, seed=seed)
        family = enumerate_balls(space)
        for x in mu.support:
            for op in (centered_maximal, noncentered_maximal):
                assert (
                    op(f.plus(g), mu, family, x).value
                    <= op(f, mu, family, x).value + op(g, mu, family, x).value
                )

    @given(instances())
    @settings(max_examples=40, deadline=None)
    def test_inf_pair_matches_brute_force(self, inst):
        space, mu, _ = inst
        family = enumerate_balls(space)
        for x in range(space.n):
            for y in range(space.n):
                value, ball = inf_ball_measure_pair(mu, family, x, y)
                assert value == oracle.inf_pair_measure(space, mu, x, y)
                assert {x, y} <= set(ball.members)

    @given(instances())
    @settings(max_examples=60, deadline=None)
    def test_dirac_identity(self, inst):
        space, mu, _ = inst
        family = enumerate_balls(space)
        support = mu.support
        for x in support:
            delta = dirac(space, x)
            for y in support:
                value = noncentered_maximal_measure(delta, mu, family, y).value
                inf_value, _ = inf_ball_measure_pair(mu, family, x, y)
                assert value * inf_value == 1
                # the smallest ball around y that holds x is B(y, d(x,y))
                centered = centered_maximal_measure(delta, mu, family, y).value
                assert centered * measure_of(mu, closed_ball(space, y, space.dist[x][y])) == 1

    @given(instances(), st.integers(1, 50))
    @settings(max_examples=40, deadline=None)
    def test_measure_continuity(self, inst, k):
        # entrywise perturbation by eps moves both values by at most n*eps/mu_min
        space, mu, _ = inst
        family = enumerate_balls(space)
        eps = Fraction(1, 10 * k)
        nu = mu
        bumped = DiscreteMeasure(tuple(w + eps for w in nu.weights))
        for x in mu.support:
            mu_min = min(
                sum((mu.weights[p] for p in family.balls[i].members), Fraction(0))
                for i in family.containing[x]
            )
            bound = Fraction(space.n) * eps / mu_min
            for op in (centered_maximal_measure, noncentered_maximal_measure):
                before = op(nu, mu, family, x).value
                after = op(bumped, mu, family, x).value
                assert abs(after - before) <= bound


def _line_grid(m):
    return line_space([Fraction(k, m) for k in range(2 * m + 1)])


# (space, whether some point is off center, held by a ball that is no ball
# around it, so that a field's non-centered argmax reads the n suffix
# winners). The hop metric of a sparse graph mixes centered points (3, 10,
# 14, 17 and 20, every ball holding one a ball around it) with off-center ones.
CANDIDATE_CASES = {
    "taxicab20": (lambda: gen_taxicab(20, dim=2, seed=11), True),
    "taxicab25": (lambda: gen_taxicab(25, dim=2, seed=12), True),
    "taxicab30": (lambda: gen_taxicab(30, dim=2, seed=13), True),
    "grid6": (lambda: _line_grid(6), True),
    "grid8": (lambda: _line_grid(8), True),
    "grid10": (lambda: _line_grid(10), True),
    "dendrogram30a": (lambda: gen_ultrametric(30, seed=14), False),
    "dendrogram30b": (lambda: gen_ultrametric(30, seed=15), False),
    "hops25": (lambda: gen_graph_metric(25, 0.05, weight_range=(1, 1), seed=115), True),
}


def _check_against_oracle(space, family, mu, f):
    """maximal_field and at against the oracle's argmax balls."""
    ball_measures = _BallMeasures(family, mu)
    table = oracle.argmax_table(space, mu, f)
    report = maximal_field(f, mu, space, family=family)
    assert tuple(e.point for e in report.points) == mu.support
    for e in report.points:
        assert (e.centered.value, e.centered.ball.members) == table[e.point, True]
        assert (e.noncentered.value, e.noncentered.ball.members) == table[e.point, False]
        assert ball_measures.at(f, e.point) == (e.centered, e.noncentered)


class TestCandidateLists:
    """Seeded spaces large enough for both non-centered candidate lists.

    Where some point is off center, the argmax reads the n per-center
    suffix winners; elsewhere the centered argmax serves for both. The
    measures include weightless points, and the 0/1 functions tie many
    balls, so both the lazy (size, members) comparison and the zero-mass
    balls are reached.
    """

    @pytest.mark.parametrize("case", sorted(CANDIDATE_CASES))
    def test_matches_oracle(self, case):
        build, off_center = CANDIDATE_CASES[case]
        space = build()
        family = enumerate_balls(space)
        assert any(family.off_center) == off_center
        seed = sum(map(ord, case))
        for zero_fraction in (0.0, 0.4):
            mu = gen_measure(space, seed=seed, zero_fraction=zero_fraction)
            ball_measures = _BallMeasures(family, mu)
            for ball, mass in zip(family.balls, ball_measures.masses):
                assert Fraction(mass, ball_measures.scale) == oracle.mass(mu, ball.members)
            indicator = SampleFunction(tuple(Fraction(p % 3 == 0) for p in range(space.n)))
            for f in (gen_function(space, seed=seed), indicator):
                _check_against_oracle(space, family, mu, f)

    @pytest.mark.parametrize("weights", [(1, 1, 1, 1, 1), (1, 0, 1, 1, 0), (0, 1, 1, 1, 0)])
    def test_pinned_tie(self, weights):
        # at point 2 of the uniform line the balls {1,2,3}, {2,3,4}, {1,2,3,4},
        # {0,1,2,3} and the whole line all average 0: {1,2,3} must win
        space = line_space([0, 1, 2, 3, 4])
        family = enumerate_balls(space)
        assert family.off_center[2]
        f = SampleFunction((0, 0, -1, 1, 0))
        _check_against_oracle(space, family, DiscreteMeasure(weights), f)


class TestLazyFamily:
    """The family builds its `Ball` objects and `containing` lists on first read."""

    def test_field_builds_neither_balls_nor_containing(self):
        space = gen_taxicab(30, seed=1)
        family = enumerate_balls(space)
        assert "balls" not in family.__dict__ and "containing" not in family.__dict__
        assert family.member_total > sum(map(len, family.centered_at))
        mu = gen_measure(space, seed=2, zero_fraction=0.4)
        f = gen_function(space, seed=3)
        report = maximal_field(f, mu, space, family=family)
        assert "balls" not in family.__dict__ and "containing" not in family.__dict__
        table = oracle.argmax_table(space, mu, f)
        assert tuple(e.point for e in report.points) == mu.support
        for e in report.points:
            assert (e.centered.value, e.centered.ball.members) == table[e.point, True]
            assert (e.noncentered.value, e.noncentered.ball.members) == table[e.point, False]

    @pytest.mark.parametrize("seed", [14, 15])
    def test_ultrametric_queries_build_no_winners_and_no_ranks(self, seed, monkeypatch):
        calls = []
        scan = _BallMeasures._scan

        def counted(self, sums):
            calls.append(sums)
            return scan(self, sums)

        monkeypatch.setattr(_BallMeasures, "_scan", counted)
        space = gen_ultrametric(30, seed=seed)
        family = enumerate_balls(space)
        assert family.member_total == sum(map(len, family.centered_at))
        mu = gen_measure(space, seed=seed, zero_fraction=0.0)
        assert len(mu.support) == space.n
        f = gen_function(space, seed=seed)
        report = maximal_field(f, mu, space, family=family)
        assert coincidence_exact(space, mu, family=family).verdict == "equal"
        assert coincidence_randomized(space, mu, 6, seed, family=family).verdict == "equal"
        assert "rank_of" not in family.__dict__
        assert calls == []
        table = oracle.argmax_table(space, mu, f)
        for e in report.points:
            assert (e.centered.value, e.centered.ball.members) == table[e.point, True]
            assert (e.noncentered.value, e.noncentered.ball.members) == table[e.point, False]
        # the audit reads the ranks: the rank of d(c, p) among c's distinct distances
        check_ball_infimum(space, mu, family=family)
        n, dist = space.n, space.dist
        expected = tuple(
            tuple(sorted(set(dist[c])).index(dist[c][p]) for c in range(n)) for p in range(n)
        )
        assert family.rank_of == expected
        other = enumerate_balls(space)
        assert "rank_of" not in other.__dict__
        assert other == family and hash(other) == hash(family)
        assert "int_dist" not in repr(family)

    def test_ball_is_the_listed_ball(self):
        family = enumerate_balls(gen_taxicab(12, seed=4))
        first = family.ball(3)
        balls = family.balls
        assert balls[3] is first
        assert all(family.ball(i) is ball for i, ball in enumerate(balls))

    def test_one_point_queries_never_read_containing(self, monkeypatch):
        def unbuilt(family):
            raise AssertionError("the containing table was read")

        monkeypatch.setattr(BallFamily, "containing", property(unbuilt))
        report = build_grid_demo(8)
        space, mu, f, x = report.space, report.mu, report.f, report.point
        for centered, got in ((True, report.centered), (False, report.noncentered)):
            assert (got.value, got.ball.members) == oracle.argmax_ball(space, mu, f, x, centered)
        space = gen_taxicab(12, seed=6)
        mu = gen_measure(space, seed=7, zero_fraction=0.3)
        f = gen_function(space, seed=8)
        for x in mu.support:
            family = enumerate_balls(space)
            for op, centered in ((centered_maximal, True), (noncentered_maximal, False)):
                got = op(f, mu, family, x)
                assert (got.value, got.ball.members) == oracle.argmax_ball(
                    space, mu, f, x, centered
                )
        x = mu.support[0]
        limit = gen_measure(space, seed=9, zero_fraction=0.3)
        sequence = [
            DiscreteMeasure(tuple(w + Fraction(1, k) for w in limit.weights)) for k in (1, 2, 4)
        ]
        report = check_lower_semicontinuity(mu, space, sequence, limit, x, Fraction(1, 4))
        for nu, c, nc in zip(sequence, report.centered_values, report.noncentered_values):
            assert c == oracle.ratio_value(space, mu, nu, x, True)[0]
            assert nc == oracle.ratio_value(space, mu, nu, x, False)[0]
        assert report.centered_limit == oracle.ratio_value(space, mu, limit, x, True)[0]
        assert report.noncentered_limit == oracle.ratio_value(space, mu, limit, x, False)[0]

    @pytest.mark.parametrize("case", sorted(CANDIDATE_CASES))
    def test_winners_iff_some_point_is_off_center(self, case, monkeypatch):
        calls = []
        scan = _BallMeasures._scan
        monkeypatch.setattr(
            _BallMeasures, "_scan", lambda self, sums: calls.append(sums) or scan(self, sums)
        )
        build, off_center = CANDIDATE_CASES[case]
        space = build()
        family = enumerate_balls(space)
        seed = sum(map(ord, case))
        mu = gen_measure(space, seed=seed, zero_fraction=0.4)
        f = gen_function(space, seed=seed)
        report = maximal_field(f, mu, space, family=family)
        # one field, one path: the suffix-winner scan or the centered argmax, never `containing`
        assert "containing" not in family.__dict__
        assert len(calls) == off_center == any(family.off_center)
        table = oracle.argmax_table(space, mu, f)
        assert tuple(e.point for e in report.points) == mu.support
        for e in report.points:
            assert (e.centered.value, e.centered.ball.members) == table[e.point, True]
            assert (e.noncentered.value, e.noncentered.ball.members) == table[e.point, False]


@st.composite
def tie_instances(draw):
    """Line grids and small taxicab boxes, weights with zeros, a 0/1 or -1/0/1 function.

    Few distinct averages: many balls tie in value and in size, so the
    sweep's runs of equal keys reach `_precedes`.
    """
    if draw(st.booleans()):
        space = _line_grid(draw(st.integers(1, 6)))
    else:
        dim = draw(st.integers(1, 2))
        n = draw(st.integers(1, 12))
        space = gen_taxicab(n, dim=dim, coord_range=(0, 3), seed=draw(st.integers(0, 10**6)))
    n = space.n
    weight = st.sampled_from([Fraction(0), Fraction(0), Fraction(1), Fraction(2)])
    weights = draw(st.lists(weight, min_size=n, max_size=n).filter(any))
    value = st.sampled_from(draw(st.sampled_from([(0, 1), (-1, 0, 1)])))
    values = draw(st.lists(value, min_size=n, max_size=n))
    return space, DiscreteMeasure(tuple(weights)), SampleFunction(tuple(map(Fraction, values)))


class TestRecordSweep:
    """A field with an off-center point: one scan for the records, one sweep over them."""

    def test_cold_field_builds_no_ranks(self):
        space = gen_taxicab(30, seed=1)
        family = enumerate_balls(space)
        assert family.member_total > sum(map(len, family.centered_at))
        mu = gen_measure(space, seed=2, zero_fraction=0.3)
        f = gen_function(space, seed=3)
        report = maximal_field(f, mu, space, family=family)
        assert "rank_of" not in family.__dict__
        table = oracle.argmax_table(space, mu, f)
        assert tuple(e.point for e in report.points) == mu.support
        for e in report.points:
            assert (e.centered.value, e.centered.ball.members) == table[e.point, True]
            assert (e.noncentered.value, e.noncentered.ball.members) == table[e.point, False]

    @given(tie_instances())
    @settings(max_examples=200, deadline=None)
    @example((_line_grid(3), DiscreteMeasure((Fraction(1),) * 7), SampleFunction((Fraction(0),) * 7)))
    def test_matches_oracle_under_ties(self, inst):
        space, mu, f = inst
        _check_against_oracle(space, enumerate_balls(space), mu, f)

    @pytest.mark.parametrize("d", [3, 4, 5, 255, 256, 257, 2**40 - 1, 2**40, 2**40 + 1])
    def test_order_key_at_its_bound(self, d):
        # on the line 0, 1, 3 the balls {0}, {0, 1} and {0, 1, 2} hold point 0;
        # weights (w, d - 1 - w, 1) give the last two the masses d - 1 and d = D
        space = line_space([0, 1, 3])
        family = enumerate_balls(space)
        single, pair, whole = map(family.masks.index, (0b001, 0b011, 0b111))

        def winner(w, sums):
            ball_measures = _BallMeasures(family, DiscreteMeasure(tuple(map(Fraction, (w, d - 1 - w, 1)))))
            assert max(ball_measures.masses) == ball_measures.masses[whole] == d
            assert ball_measures.masses[pair] == d - 1 and ball_measures.masses[single] == w
            assert 2**ball_measures._shift > 2 * d * d
            table = [0] * len(family)
            for i, s in sums.items():
                table[i] = s
            return ball_measures._sweep(table, set(sums), 0b001)[0]

        # a/D against b/(D - 1): 1/(D(D - 1)) apart, of either sign, or equal
        for a, b in ((1, 1), (d - 1, d - 2), (d, d - 1), (0, 0)):
            for sign in (1, -1):
                s_whole, s_pair = sign * a, sign * b
                better = Fraction(s_whole, d) > Fraction(s_pair, d - 1)
                assert winner(1, {whole: s_whole, pair: s_pair}) == (whole if better else pair)
        # a ball of measure zero sums to 0 and reads as 0, ties to the smaller ball
        for s_pair, expected in ((1, pair), (0, single), (-1, single)):
            assert winner(0, {single: 0, pair: s_pair}) == expected


def _check_pair_kernels(space, family, mu):
    """Both paths of pair_infima, pair_masses and inf_ball_measure_pair against the oracle.

    For every pair (p, x): the smallest measure of a ball holding both, and
    the argmin ball, ties to the fewest members, then the first sorted ones.
    `_BALL_STEPS` set to 0 pins the sweep, set above n² the per-center path.
    """
    sets = [(oracle.mass(mu, s), tuple(sorted(s))) for s in oracle.all_ball_sets(space)]
    ball_measures = _BallMeasures(family, mu)
    points = list(range(space.n))
    sweep_reads = []
    pair_masses = _BallMeasures.pair_masses
    with mock.patch.object(
        _BallMeasures, "pair_masses", lambda self, p: sweep_reads.append(p) or pair_masses(self, p)
    ):
        with mock.patch.object(maximal, "_BALL_STEPS", 0):
            swept = list(map(ball_measures.pair_infima(points), points))
        assert sweep_reads == points
        with mock.patch.object(maximal, "_BALL_STEPS", space.n**2 + 1):
            per_center = list(map(ball_measures.pair_infima(points), points))
        assert sweep_reads == points
    for p in points:
        row = ball_measures.pair_masses(p)
        for x in points:
            holding = [(m, s) for m, s in sets if p in s and x in s]
            least = min(m for m, _ in holding)
            assert Fraction(row[x], ball_measures.scale) == least
            assert swept[p][x] == per_center[p][x] == row[x]
            value, ball = inf_ball_measure_pair(mu, family, p, x)
            assert value == least
            winners = [s for m, s in holding if m == least]
            assert ball.members == min(winners, key=lambda s: (len(s), s))


@st.composite
def layout_instances(draw):
    """A dendrogram, a 2-D taxicab cloud or a line grid, with a measure that has zero weights."""
    kind = draw(st.sampled_from(["dendrogram", "taxicab", "grid"]))
    seed = draw(st.integers(0, 10**6))
    if kind == "dendrogram":
        space = gen_ultrametric(draw(st.integers(1, 24)), seed=seed)
    elif kind == "taxicab":
        # a small box makes tied distances likely
        space = gen_taxicab(draw(st.integers(1, 16)), dim=2, coord_range=(0, 3), seed=seed)
    else:
        space = _line_grid(draw(st.integers(1, 6)))
    weight = st.sampled_from([Fraction(0), Fraction(0), Fraction(1), Fraction(3, 7)])
    weights = draw(st.lists(weight, min_size=space.n, max_size=space.n).filter(any))
    return space, DiscreteMeasure(tuple(weights))


class TestFamilyLayout:
    """The family's rows, slots and ranks, read as the kernel reads them."""

    @given(layout_instances())
    @example((gen_ultrametric(20, seed=5), DiscreteMeasure((1, 0) * 10)))
    @settings(max_examples=80, deadline=None)
    def test_rows_slots_and_masses(self, inst):
        space, mu = inst
        family = enumerate_balls(space)
        n = space.n
        # rows[c] is c's distance order, ties by index, cut after its largest ball
        for c, row in enumerate(family.rows):
            order = sorted(range(n), key=lambda p: (space.dist[c][p], p))
            represented = [len(b.members) for b in family.balls if b.center == c]
            assert row == tuple(order[: max(represented)])
        starts = [0]
        for row in family.rows:
            starts.append(starts[-1] + len(row))
        assert len(family.slots) == len(family.balls)
        for ball, slot in zip(family.balls, family.slots):
            size = len(ball.members)
            assert sorted(family.rows[ball.center][:size]) == list(ball.members)
            # the prefix sum over the concatenated rows is read at the ball's last point
            assert slot == starts[ball.center] + size - 1
        for p in range(n):
            for c in range(n):
                # rank_of[p][c] names the smallest ball around c holding p
                idx = family.centered_at[c][family.rank_of[p][c]]
                assert frozenset(family.balls[idx].members) == oracle.ball_members(
                    space, c, space.dist[c][p]
                )
        ball_measures = _BallMeasures(family, mu)
        for ball, mass in zip(family.balls, ball_measures.masses):
            assert Fraction(mass, ball_measures.scale) == oracle.mass(mu, ball.members)

    @given(layout_instances())
    @example((gen_ultrametric(30, seed=14), DiscreteMeasure((1,) * 30)))
    @settings(max_examples=80, deadline=None)
    def test_holding_is_containing(self, inst):
        space, _ = inst
        family = enumerate_balls(space)
        expected = enumerate_balls(space).containing
        n = space.n
        # before the table exists: one scan per point, none building the table
        for x in reversed(range(n)):
            assert family.holding(x) == expected[x]
        assert "containing" not in family.__dict__
        # read again from the kept scans, which the built table leaves as they are
        assert tuple(map(family.holding, range(n))) == expected
        assert family.containing == expected
        assert tuple(map(family.holding, range(n))) == expected
        with pytest.raises(IndexError):
            family.holding(n)

    def test_dendrogram_rows_stop_short(self):
        # a dendrogram has only 2n - 1 balls: most centers represent just their singleton
        family = enumerate_balls(gen_ultrametric(30, seed=14))
        assert len(family.balls) == 2 * 30 - 1
        assert sum(len(row) for row in family.rows) < 30 * 30 // 4


class TestMaskKernels:
    """The kernels that read ball masks, against the oracle."""

    @pytest.mark.parametrize("case", sorted(CANDIDATE_CASES))
    def test_pair_kernels_on_both_sides_of_the_sweep_rule(self, case):
        # pair_masses sweeps by coverage, at centered and off-center points alike
        build, off_center = CANDIDATE_CASES[case]
        space = build()
        family = enumerate_balls(space)
        assert any(family.off_center) == off_center
        mu = gen_measure(space, seed=sum(map(ord, case)), zero_fraction=0.4)
        _check_pair_kernels(space, family, mu)

    @given(layout_instances())
    @settings(max_examples=60, deadline=None)
    def test_pair_kernels_match_oracle(self, inst):
        space, mu = inst
        _check_pair_kernels(space, enumerate_balls(space), mu)

    @given(st.integers(1, 8), st.data())
    @settings(max_examples=80, deadline=None)
    def test_argmax_balls_on_line_grids(self, m, data):
        # few distinct averages, so equal-size balls tie often
        space = _line_grid(m)
        n = space.n
        weight = st.sampled_from([Fraction(0), Fraction(1), Fraction(1), Fraction(2)])
        weights = data.draw(st.lists(weight, min_size=n, max_size=n).filter(any))
        value = st.sampled_from([Fraction(0), Fraction(1), Fraction(-1), Fraction(1, 2)])
        values = data.draw(st.lists(value, min_size=n, max_size=n))
        mu, f = DiscreteMeasure(tuple(weights)), SampleFunction(tuple(values))
        _check_against_oracle(space, enumerate_balls(space), mu, f)


class TestRecords:
    def test_point_maximal_and_maximal_value(self, line3, uniform3, ind2):
        family = enumerate_balls(line3)
        entry = maximal_field(ind2, uniform3, line3, family=family).at(1)
        check_record(entry, ("point", "centered", "noncentered"))
        check_record(entry.centered, ("value", "ball"))
        # the family's representative of {0, 1, 2} is the first ball found, around 0
        centered = MaximalValue(Fraction(1, 3), closed_ball(line3, 0, 2))
        noncentered = MaximalValue(Fraction(1, 2), closed_ball(line3, 2, 1))
        assert entry == PointMaximal(1, centered, noncentered)
        # a field on a fresh family builds its own, equal records
        again = maximal_field(ind2, uniform3, line3).at(1)
        assert again == entry and hash(again) == hash(entry)
        assert again.centered.ball is not entry.centered.ball


def _count_builds(monkeypatch):
    """Record the (family, mu) of every `_BallMeasures` built from now on."""
    builds, init = [], _BallMeasures.__init__

    def counted(self, family, mu):
        builds.append((family, mu))
        init(self, family, mu)

    monkeypatch.setattr(_BallMeasures, "__init__", counted)
    return builds


class TestBinding:
    """mu keeps its binding to the last family it met, matched by identity."""

    def test_one_build_per_pair(self, monkeypatch):
        space = gen_taxicab(12, seed=1)
        family = enumerate_balls(space)
        mu, nu = gen_measure(space, seed=2, zero_fraction=0.2), gen_measure(space, seed=4)
        f = gen_function(space, seed=3)
        x, y = mu.support[0], mu.support[-1]
        builds = _count_builds(monkeypatch)
        report = maximal_field(f, mu, space, family=family)
        assert coincidence_exact(space, mu, family=family).verdict == "distinct"
        assert coincidence_randomized(space, mu, 6, 1, family=family).verdict == "distinct"
        check_ball_infimum(space, mu, family=family)
        assert centered_maximal(f, mu, family, x) == report.at(x).centered
        assert noncentered_maximal(f, mu, family, x) == report.at(x).noncentered
        assert centered_maximal_measure(nu, mu, family, x).value == oracle.ratio_value(
            space, mu, nu, x, True
        )[0]
        assert noncentered_maximal_measure(nu, mu, family, x).value == oracle.ratio_value(
            space, mu, nu, x, False
        )[0]
        value, _ = inf_ball_measure_pair(mu, family, x, y)
        assert value == oracle.inf_pair_measure(space, mu, x, y)
        assert len(builds) == 1 and builds[0][0] is family and builds[0][1] is mu
        # the binding is kept outside the measure's value
        twin = DiscreteMeasure(mu.weights)
        assert "_ball_measures" in vars(mu) and "_ball_measures" not in vars(twin)
        assert twin == mu and hash(twin) == hash(mu) and repr(twin) == repr(mu)

    def test_equal_family_or_measure_builds_its_own(self, monkeypatch):
        space = gen_taxicab(12, seed=1)
        family = enumerate_balls(space)
        mu, f = gen_measure(space, seed=2), gen_function(space, seed=3)
        builds = _count_builds(monkeypatch)
        first = maximal_field(f, mu, space, family=family)
        again = enumerate_balls(space)
        assert again == family and again is not family
        assert maximal_field(f, mu, space, family=again) == first
        assert len(builds) == 2 and builds[1][0] is again
        twin = DiscreteMeasure(mu.weights)
        assert twin == mu and twin is not mu
        assert maximal_field(f, twin, space, family=again) == first
        assert len(builds) == 3 and builds[2][1] is twin
        # mu's binding now belongs to `again`, and serves it
        assert maximal_field(f, mu, space, family=again) == first
        assert len(builds) == 3

    def test_failed_build_keeps_nothing(self):
        space = gen_taxicab(6, seed=1)
        family = enumerate_balls(space)
        for mu in (DiscreteMeasure((0,) * 6), DiscreteMeasure((1,) * 7)):
            with pytest.raises(ValueError):
                inf_ball_measure_pair(mu, family, 0, 1)
            assert "_ball_measures" not in vars(mu)

    def test_interleaved_pairs_match_oracle(self, monkeypatch):
        spaces = (gen_taxicab(10, seed=5), gen_graph_metric(10, seed=6))
        families = tuple(map(enumerate_balls, spaces))
        measures = (gen_measure(spaces[0], seed=7, zero_fraction=0.3), gen_measure(spaces[0], seed=8))
        f = gen_function(spaces[0], seed=9)
        tables = {
            (i, j): oracle.argmax_table(space, mu, f)
            for i, space in enumerate(spaces)
            for j, mu in enumerate(measures)
        }
        builds = _count_builds(monkeypatch)
        order = [(0, 0), (0, 0), (1, 0), (0, 1), (1, 0), (1, 1), (1, 1), (0, 0), (0, 1)]
        last = {}
        for i, j in order:
            space, family, mu = spaces[i], families[i], measures[j]
            before = len(builds)
            report = maximal_field(f, mu, space, family=family)
            for e in report.points:
                assert (e.centered.value, e.centered.ball.members) == tables[i, j][e.point, True]
                assert (e.noncentered.value, e.noncentered.ball.members) == tables[i, j][e.point, False]
            x, y = mu.support[0], mu.support[-1]
            assert noncentered_maximal(f, mu, family, y).value == tables[i, j][y, False][0]
            assert inf_ball_measure_pair(mu, family, x, y)[0] == oracle.inf_pair_measure(space, mu, x, y)
            # mu rebinds only where it last met the other family
            if last.get(j) == i:
                assert len(builds) == before
            else:
                assert len(builds) == before + 1
                assert builds[-1][0] is family and builds[-1][1] is mu
            last[j] = i
        assert len(builds) == 6


def _lattice(k):
    """The k × k taxicab lattice, corners at 0, k - 1, k² - k and k² - 1."""
    points = [(i, j) for i in range(k) for j in range(k)]
    dist = tuple(tuple(Fraction(abs(a - c) + abs(b - d)) for c, d in points) for a, b in points)
    return FiniteMetricSpace(labels=tuple(map(str, range(k * k))), dist=dist)


@st.composite
def one_point_instances(draw):
    """A layout instance with a function and a numerator measure that has zero weights too."""
    space, mu = draw(layout_instances())
    value = st.builds(Fraction, st.integers(-9, 9), st.sampled_from(VALUE_DENOMINATORS))
    values = draw(st.lists(value, min_size=space.n, max_size=space.n))
    weight = st.sampled_from([Fraction(0), Fraction(1), Fraction(2), Fraction(5, 7)])
    nu = draw(st.lists(weight, min_size=space.n, max_size=space.n))
    return space, mu, SampleFunction(tuple(values)), DiscreteMeasure(tuple(nu))


class _ReadRows(tuple):
    """A family's `rows` that records the center of every row read."""

    def __new__(cls, rows):
        self = super().__new__(cls, rows)
        self.read = []
        return self

    def __getitem__(self, c):
        self.read.append(c)
        return super().__getitem__(c)

    def __iter__(self):
        self.read.extend(range(len(self)))
        return super().__iter__()


class TestOnePointSums:
    """`at` sums only the rows of the centers whose balls hold its point."""

    @given(one_point_instances())
    @example(
        (
            _line_grid(4),
            DiscreteMeasure((1, 0, 0, 1, 0, 2, 0, 0, 1)),
            SampleFunction((3, -1, 4, 1, -5, 9, 2, -6, 5)),
            DiscreteMeasure((0, 1, 2, 0, 1, 0, 0, 5, 0)),
        )
    )
    @example(
        (
            _lattice(3),
            DiscreteMeasure((1, 0, 1, 0, 2, 0, 1, 0, 1)),
            SampleFunction((2, 7, -1, 8, 2, -8, 1, 8, 0)),
            DiscreteMeasure((0, 3, 0, 1, 0, 1, 0, 2, 1)),
        )
    )
    @settings(max_examples=80, deadline=None)
    def test_matches_oracle_and_field(self, inst):
        space, mu, f, nu = inst
        family = enumerate_balls(space)
        ball_measures = _BallMeasures(family, mu)
        table = oracle.argmax_table(space, mu, f)
        for e in ball_measures.field(f).points:
            x = e.point
            assert ball_measures.at(f, x) == (e.centered, e.noncentered)
            assert (e.centered.value, e.centered.ball.members) == table[x, True]
            assert (e.noncentered.value, e.noncentered.ball.members) == table[x, False]
            # balls of mu-measure zero hold no support point, so none is read here
            for got, centered in zip(ball_measures.at(nu, x), (True, False)):
                expected = oracle.ratio_value(space, mu, nu, x, centered)
                assert (got.value, got.ball.members) == expected

    @pytest.mark.parametrize(
        "space, x", [(_line_grid(6), 0), (_line_grid(6), 12), (_lattice(4), 0), (_lattice(4), 15)]
    )
    def test_reads_only_rows_holding_the_point(self, space, x):
        # grid endpoints and lattice corners: some center's balls never reach them
        family = enumerate_balls(space)
        family = replace(family, rows=_ReadRows(family.rows))
        mu = DiscreteMeasure((1,) * space.n)
        f = gen_function(space, seed=x)
        ball_measures = _BallMeasures(family, mu)
        centers = {c for c, mask in zip(family.centers, family.masks) if mask >> x & 1}
        family.rows.read.clear()
        with pytest.raises(ValueError, match="dimension mismatch"):
            ball_measures.at(SampleFunction((1,) * (space.n + 1)), x)
        assert family.rows.read == [] and "_plans" not in family.__dict__
        got = ball_measures.at(f, x)
        assert sorted(family.rows.read) == sorted(centers)
        assert len(centers) < sum(map(bool, family.rows))
        for value, centered in zip(got, (True, False)):
            expected = oracle.argmax_ball(space, mu, f, x, centered)
            assert (value.value, value.ball.members) == expected
        # the plan is kept: a second query reads no row
        family.rows.read.clear()
        assert ball_measures.at(gen_measure(space, seed=1), x)[0].value > 0
        assert family.rows.read == []
        report = ball_measures.field(f)
        assert sorted(family.rows.read) == list(range(space.n))
        assert report.at(x) == PointMaximal(x, *got)

    def test_interleaved_points_and_families(self):
        spaces = (_line_grid(5), _lattice(3))
        families = tuple(map(enumerate_balls, spaces))
        mus = tuple(gen_measure(space, seed=3, zero_fraction=0.3) for space in spaces)
        fs = tuple(gen_function(space, seed=4) for space in spaces)
        nus = tuple(gen_measure(space, seed=5, zero_fraction=0.3) for space in spaces)
        points = tuple((mu.support[0], mu.support[-1]) for mu in mus)
        order = [(0, 0), (1, 1), (0, 1), (1, 0), (0, 0), (1, 1), (1, 0), (0, 1)]
        for i, j in order:
            space, family, mu, f, nu = spaces[i], families[i], mus[i], fs[i], nus[i]
            x = points[i][j]
            for op, centered in ((centered_maximal, True), (noncentered_maximal, False)):
                got = op(f, mu, family, x)
                expected = oracle.argmax_ball(space, mu, f, x, centered)
                assert (got.value, got.ball.members) == expected
            for op, centered in (
                (centered_maximal_measure, True),
                (noncentered_maximal_measure, False),
            ):
                got = op(nu, mu, family, x)
                expected = oracle.ratio_value(space, mu, nu, x, centered)
                assert (got.value, got.ball.members) == expected
        assert all(len(family._plans) == 2 for family in families)

    def test_lower_semicontinuity_binds_once_per_family(self, monkeypatch):
        space = gen_taxicab(12, seed=6)
        family = enumerate_balls(space)
        mu = gen_measure(space, seed=7, zero_fraction=0.3)
        x = mu.support[0]
        limit = gen_measure(space, seed=9, zero_fraction=0.3)
        sequence = [
            DiscreteMeasure(tuple(w + Fraction(1, k) for w in limit.weights)) for k in (1, 2, 4)
        ]
        builds = _count_builds(monkeypatch)
        reports = [
            check_lower_semicontinuity(mu, space, sequence, limit, x, Fraction(1, 4), family=family)
            for _ in range(2)
        ]
        assert reports[0] == reports[1]
        assert len(builds) == 1 and builds[0][0] is family and builds[0][1] is mu
        assert list(family._plans) == [x]
        for nu, c, nc in zip(sequence, reports[0].centered_values, reports[0].noncentered_values):
            assert c == oracle.ratio_value(space, mu, nu, x, True)[0]
            assert nc == oracle.ratio_value(space, mu, nu, x, False)[0]
