from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracle
from maxlab import (
    MetricAxiomError,
    closed_ball,
    enumerate_balls,
    find_midpoint_configs,
    gen_graph_metric,
    gen_taxicab,
    gen_ultrametric,
    is_ultrametric,
    line_space,
    metric_violations,
    open_ball,
    ultrametric_violation,
    validate_space,
)

spaces = st.one_of(
    st.integers(1, 10).flatmap(
        lambda n: st.integers(0, 10**6).map(lambda s: gen_ultrametric(n, seed=s))
    ),
    st.integers(1, 8).flatmap(
        lambda n: st.tuples(st.integers(1, 3), st.integers(0, 10**6)).map(
            lambda t: gen_taxicab(n, dim=t[0], seed=t[1])
        )
    ),
    st.integers(1, 8).flatmap(
        lambda n: st.integers(0, 10**6).map(
            lambda s: gen_graph_metric(n, edge_probability=0.4, seed=s)
        )
    ),
)


# Entries of malformed matrices: zero and negative values, and coprime
# denominators up to 97, so the integer copy's common scale is large.
entries = st.builds(
    Fraction, st.integers(-40, 400), st.sampled_from([1, 1, 2, 3, 7, 11, 13, 89, 97])
)


@st.composite
def malformed_matrices(draw):
    n = draw(st.integers(1, 7))
    dist = [[draw(entries) for _ in range(n)] for _ in range(n)]
    for i in range(n):
        if draw(st.booleans()):
            dist[i][i] = Fraction(0)
        for j in range(i + 1, n):
            if draw(st.integers(0, 3)):  # mostly symmetric pairs
                dist[j][i] = dist[i][j]
    return tuple(tuple(row) for row in dist)


class TestValidate:
    def test_single_point(self):
        space = validate_space([[0]])
        assert space.n == 1

    def test_line3(self, line3):
        assert line3.n == 3
        assert line3.dist[0][2] == 2

    def test_triangle_violation_reported_with_indices(self):
        with pytest.raises(MetricAxiomError) as exc:
            validate_space([[0, 1, 5], [1, 0, 1], [5, 1, 0]])
        assert any(v.axiom == "triangle" and v.indices == (0, 1, 2) for v in exc.value.violations)

    def test_every_axiom_reported(self):
        # diagonal broken at 1, asymmetric (0,1), zero off-diagonal (0,2)
        matrix = [[0, 1, 0], [2, 3, 1], [0, 1, 0]]
        violations = metric_violations(
            tuple(tuple(Fraction(v) for v in row) for row in matrix)
        )
        axioms = {v.axiom for v in violations}
        assert {"diagonal", "symmetry", "positivity"} <= axioms
        assert any(v.axiom == "diagonal" and v.indices == (1,) for v in violations)
        assert any(v.axiom == "symmetry" and v.indices == (0, 1) for v in violations)

    @given(malformed_matrices())
    @settings(max_examples=300, deadline=None)
    def test_violations_match_brute_force(self, dist):
        got = [(v.axiom, v.indices, v.detail) for v in metric_violations(dist)]
        assert got == oracle.metric_violations(dist)

    def test_shape_errors(self):
        with pytest.raises(ValueError, match="square"):
            validate_space([[0, 1], [1, 0], [1, 1]])
        with pytest.raises(ValueError, match="labels"):
            validate_space([[0, 1], [1, 0]], labels=["a"])
        with pytest.raises(ValueError, match="distinct"):
            validate_space([[0, 1], [1, 0]], labels=["a", "a"])

    def test_floats_rejected(self):
        with pytest.raises(TypeError):
            validate_space([[0, 0.5], [0.5, 0]])

    def test_restrict(self, line3):
        sub = line3.restrict([0, 2])
        assert sub.labels == ("0", "2")
        assert sub.dist[0][1] == 2


class TestUltrametric:
    def test_line3_violation_normalized(self, line3):
        assert not is_ultrametric(line3)
        x, y, z = ultrametric_violation(line3)
        assert (x, y, z) == (1, 2, 0)
        assert line3.dist[x][z] <= line3.dist[x][y] < line3.dist[z][y]

    def test_equilateral_is_ultrametric(self, eq3):
        assert is_ultrametric(eq3)
        assert ultrametric_violation(eq3) is None

    def test_two_point_always_ultrametric(self):
        assert is_ultrametric(line_space([0, 7]))

    @given(spaces)
    @settings(max_examples=60, deadline=None)
    def test_violation_shape_or_brute_force_agreement(self, space):
        brute = all(
            space.dist[a][c] <= max(space.dist[a][b], space.dist[b][c])
            for a in range(space.n)
            for b in range(space.n)
            for c in range(space.n)
        )
        triple = ultrametric_violation(space)
        assert brute == (triple is None)
        if triple is not None:
            x, y, z = triple
            assert space.dist[x][z] <= space.dist[x][y] < space.dist[z][y]


class TestBalls:
    def test_closed_ball_examples(self, line3):
        assert closed_ball(line3, 1, 1).members == (0, 1, 2)
        assert closed_ball(line3, 2, 1).members == (1, 2)
        assert closed_ball(line3, 1, 0).members == (1,)

    def test_open_ball_strict(self, line3):
        assert open_ball(line3, 1, 1).members == (1,)

    def test_negative_radius(self, line3):
        with pytest.raises(ValueError):
            closed_ball(line3, 0, -1)
        with pytest.raises(ValueError):
            open_ball(line3, 0, Fraction(-1, 2))

    def test_line3_family(self, line3):
        family = enumerate_balls(line3)
        sets = {b.members for b in family.balls}
        assert sets == {(0,), (1,), (2,), (0, 1), (1, 2), (0, 1, 2)}
        assert (0, 2) not in sets

    def test_single_point_family(self):
        family = enumerate_balls(validate_space([[0]]))
        assert {b.members for b in family.balls} == {(0,)}

    def test_equilateral_family(self, eq3):
        family = enumerate_balls(eq3)
        assert {b.members for b in family.balls} == {(0,), (1,), (2,), (0, 1, 2)}

    @given(spaces)
    @settings(max_examples=50, deadline=None)
    def test_family_matches_brute_force(self, space):
        family = enumerate_balls(space)
        assert {frozenset(b.members) for b in family.balls} == oracle.all_ball_sets(space)
        assert len(family) <= space.n**2
        first: dict[frozenset[int], tuple[int, Fraction]] = {}
        for c in range(space.n):
            for r in sorted(set(space.dist[c])):
                first.setdefault(oracle.ball_members(space, c, r), (c, r))
        for ball in family.balls:
            # the representative recomputes to the stored member set
            assert closed_ball(space, ball.center, ball.radius).members == ball.members
            # and is the first (center, radius) realizing it, with an exact radius
            assert (ball.center, ball.radius) == first[frozenset(ball.members)]
            assert type(ball.radius) is Fraction
        for x in range(space.n):
            assert set(family.centered_at[x]) <= set(family.containing[x])
            for idx in family.containing[x]:
                assert x in family.balls[idx].members

    @given(spaces, st.data())
    @settings(max_examples=50, deadline=None)
    def test_radius_monotonicity(self, space, data):
        c = data.draw(st.integers(0, space.n - 1))
        entries = sorted(set(space.dist[c]))
        r1 = data.draw(st.sampled_from(entries))
        r2 = data.draw(st.sampled_from(entries))
        if r1 > r2:
            r1, r2 = r2, r1
        assert set(closed_ball(space, c, r1).members) <= set(closed_ball(space, c, r2).members)

    @given(st.integers(1, 10), st.integers(0, 10**6))
    @settings(max_examples=50, deadline=None)
    def test_ultrametric_center_exchange(self, n, seed):
        space = gen_ultrametric(n, seed=seed)
        family = enumerate_balls(space)
        for ball in family.balls:
            for z in ball.members:
                assert closed_ball(space, z, ball.radius).members == ball.members


class TestMidpoints:
    def test_line3(self, line3):
        configs = find_midpoint_configs(line3)
        assert [(c.a, c.m, c.b) for c in configs] == [(0, 1, 2)]

    def test_equilateral_empty(self, eq3):
        assert find_midpoint_configs(eq3) == []

    def test_grid5(self, grid5):
        got = {(c.a, c.m, c.b) for c in find_midpoint_configs(grid5)}
        # labels 0, 1/2, 1, 3/2, 2 are indices 0..4
        assert got == {(0, 1, 2), (1, 2, 3), (2, 3, 4), (0, 2, 4)}

    @given(spaces)
    @settings(max_examples=40, deadline=None)
    def test_matches_brute_force(self, space):
        got = {(c.a, c.m, c.b) for c in find_midpoint_configs(space)}
        assert got == oracle.midpoint_triples(space)
