from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracle
from test_maximal import check_record
from maxlab import io as mio
from maxlab import metric
from maxlab import (
    Ball,
    FiniteMetricSpace,
    MetricAxiomError,
    MidpointConfig,
    as_rational,
    build_grid_demo,
    closed_ball,
    enumerate_balls,
    find_midpoint_configs,
    gen_graph_metric,
    gen_taxicab,
    gen_ultrametric,
    is_ultrametric,
    line_space,
    metric_violations,
    ultrametric_violation,
    validate_space,
)
from maxlab.metric import MAX_VIOLATIONS

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
# denominators up to 97, so the integer copy's common scale is large. Some
# matrices also draw the primes 2**31 - 1 and 2**61 - 1, which make a packed
# field of the triangle and ultrametric scans wider than 8 bytes.
SMALL_DENOMINATORS = [1, 1, 2, 3, 7, 11, 13, 89, 97]
WIDE_DENOMINATORS = SMALL_DENOMINATORS + [2**31 - 1, 2**61 - 1]


@st.composite
def malformed_matrices(draw, max_n=12):
    n = draw(st.integers(1, max_n))
    denominators = draw(st.sampled_from([SMALL_DENOMINATORS, WIDE_DENOMINATORS]))
    entries = st.builds(Fraction, st.integers(-40, 400), st.sampled_from(denominators))
    dist = [[draw(entries) for _ in range(n)] for _ in range(n)]
    for i in range(n):
        if draw(st.booleans()):
            dist[i][i] = Fraction(0)
        for j in range(i + 1, n):
            if draw(st.integers(0, 3)):  # mostly symmetric pairs
                dist[j][i] = dist[i][j]
    return tuple(tuple(row) for row in dist)


@st.composite
def one_fault_matrices(draw):
    """A metric, distances in [1, 2], with one planted fault.

    The fault is a pair at zero or below, one entry of a pair changed, or a
    nonzero diagonal entry. Every other entry passes the whole-matrix symmetry
    and positivity test, so the fault alone decides whether the pairs are listed.
    """
    n = draw(st.integers(2, 8))
    entries = st.fractions(1, 2, max_denominator=6)
    dist = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            dist[i][j] = dist[j][i] = draw(entries)
    i, j = draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True))
    fault = draw(st.sampled_from(["positivity", "symmetry", "diagonal"]))
    if fault == "positivity":
        dist[i][j] = dist[j][i] = draw(st.fractions(-2, 0, max_denominator=6))
    elif fault == "symmetry":
        dist[i][j] = draw(entries.filter(lambda q: q != dist[j][i]))
    else:
        dist[i][i] = draw(entries)
    return tuple(tuple(row) for row in dist)


@st.composite
def byte_boundary_matrices(draw):
    """Integer matrices with negative entries whose packed fields sit at a byte boundary.

    The largest entry shifted by the offset -min entry, top, lies just below
    2**(8k - 1), so 2 top, which sets the field width, needs exactly 8k bits:
    a field one bit narrower has no room for its guard bit. k is 1, 2, 4 or 8,
    the widths that `struct` packs, or 9. The entries cluster at the two
    extremes, and for some 0 < i < k the triple (i, 0, k) holds the deepest
    triangle violation the matrix can have: d(i,k) the largest entry, d(i,0)
    and d(0,k) the smallest. Its deficit, top + offset, passes 2**(8k - 1),
    and point 0 has the lowest field, so in too narrow a field a borrow out of
    it runs through every field above.
    """
    n = draw(st.integers(3, 5))
    bits = 8 * draw(st.sampled_from([1, 2, 4, 8, 9]))
    below = draw(st.integers(1, 2 ** (bits - 4)))
    top = 2 ** (bits - 1) - below
    offset = draw(st.integers(below + 1, top))
    low, high = -offset, top - offset
    entries = st.one_of(st.sampled_from([low, high, 0]), st.integers(low, high))
    dist = [[draw(entries) for _ in range(n)] for _ in range(n)]
    for i in range(n):
        if draw(st.integers(0, 3)):  # mostly a zero diagonal
            dist[i][i] = 0
        for j in range(i + 1, n):
            if draw(st.integers(0, 3)):  # mostly symmetric pairs
                dist[j][i] = dist[i][j]
    i, k = sorted(draw(st.permutations(range(1, n)))[:2])
    dist[i][k] = dist[k][i] = high
    dist[i][0] = dist[0][k] = low
    return tuple(tuple(Fraction(v) for v in row) for row in dist)


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

    @given(st.one_of(malformed_matrices(), byte_boundary_matrices(), one_fault_matrices()))
    @settings(max_examples=300, deadline=None)
    def test_violations_match_brute_force(self, dist):
        got = [(v.axiom, v.indices, v.detail) for v in metric_violations(dist)]
        assert got == oracle.metric_violations(dist)

    @pytest.mark.parametrize(
        "dist",
        [
            # 2 max(shifted entry) needs exactly 8 bits: a field one bit short
            # has no room for the guard, and the pair (1, 2) hides its violation
            [[0, -34, -37], [-34, 0, 59], [-37, 59, 0]],
            # the same at 72 bits, past the 8-byte fields
            [[Fraction(1, 2**61 - 1), -280, -259], [-280, 0, 506], [-259, 506, 0]],
        ],
    )
    def test_violations_at_field_width_boundaries(self, dist):
        dist = tuple(tuple(Fraction(v) for v in row) for row in dist)
        got = [(v.axiom, v.indices, v.detail) for v in metric_violations(dist)]
        assert got == oracle.metric_violations(dist)
        assert ("triangle", (1, 0, 2)) in [g[:2] for g in got]

    def test_violations_cut_at_max_violations(self):
        # squared distances on a 5 x 5 grid: 1,300 violations, the first 1,000 listed
        grid = [(i, j) for i in range(5) for j in range(5)]
        dist = tuple(tuple(Fraction((a - c) ** 2 + (b - d) ** 2) for c, d in grid) for a, b in grid)
        expected = oracle.metric_violations(dist)
        assert len(expected) == 1300
        got = [(v.axiom, v.indices, v.detail) for v in metric_violations(dist)]
        assert got == expected[:MAX_VIOLATIONS]
        with pytest.raises(MetricAxiomError, match="^at least 1000 metric axiom violation") as exc:
            validate_space(dist)
        assert exc.value.truncated
        assert [(v.axiom, v.indices, v.detail) for v in exc.value.violations] == got

    def test_list_of_exactly_max_violations_is_not_truncated(self, monkeypatch):
        matrix = [[0, 1, 0], [2, 3, 1], [0, 1, 0]]
        total = len(metric_violations(tuple(tuple(Fraction(v) for v in row) for row in matrix)))
        for cap, truncated in ((total, False), (total - 1, True)):
            monkeypatch.setattr(metric, "MAX_VIOLATIONS", cap)
            with pytest.raises(MetricAxiomError) as exc:
                validate_space(matrix)
            assert (len(exc.value.violations), exc.value.truncated) == (cap, truncated)
            assert str(exc.value).startswith(f"at least {cap} " if truncated else f"{cap} ")

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

    def test_bools_rejected(self):
        with pytest.raises(TypeError, match="bool"):
            validate_space([[False, True], [True, False]])
        with pytest.raises(TypeError, match="bool"):
            line_space([0, True])

    def test_decimal_past_the_digit_limit_rejected(self):
        # 1e5000 would build a 5,001-digit numerator, and 1e-5000 a denominator as long
        for text in ("1e5000", "1e-5000", "1_0e4_300", "0." + "1" * 4301):
            with pytest.raises(ValueError, match="digits"):
                as_rational(text)
        assert as_rational("1e4299") == 10**4299  # 4,300 digits: at the limit
        with pytest.raises(ValueError, match="digits"):
            validate_space([[0, "1e5000"], ["1e5000", 0]])

    def test_junk_scalar_error_does_not_repeat_it(self):
        with pytest.raises(ValueError) as exc:
            as_rational("x" * 5000)
        assert str(exc.value) == "not an integer, decimal or p/q"

    # points (r + m k) / q share their residue mod m, a divisor of q, so the
    # differences' gcd with the common denominator is often above 1
    @given(
        st.integers(1, 60).flatmap(
            lambda q: st.tuples(
                st.just(q),
                st.sampled_from([m for m in range(1, q + 1) if q % m == 0]),
                st.integers(0, 59),
                st.lists(st.integers(-30, 30), min_size=1, max_size=12, unique=True),
            )
        )
    )
    @example((2, 2, 1, [0, 1]))  # 1/2 and 3/2: the common denominator 2 cancels
    @settings(max_examples=200, deadline=None)
    def test_line_space_integer_matrix(self, drawn):
        q, m, r, ks = drawn
        space = line_space([Fraction(r + m * k, q) for k in ks])
        assert space.__dict__["int_dist"] == metric._integer_matrix(space.dist)

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


# Symmetric matrices with a zero diagonal over few distinct values, so that
# ties are frequent and many are ultrametric or nearly so.
@st.composite
def tied_matrices(draw):
    n = draw(st.integers(1, 8))
    dist = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            dist[i][j] = dist[j][i] = draw(st.sampled_from([Fraction(1), Fraction(3, 2), Fraction(2)]))
    return tuple(tuple(row) for row in dist)


@st.composite
def perturbed_dendrograms(draw):
    """A dendrogram's matrix with one entry, or one symmetric pair, changed.

    The new value is another entry of the matrix or a neighbour of the old
    one, so the change breaks ultrametricity by a little or not at all.
    """
    space = gen_ultrametric(draw(st.integers(2, 14)), seed=draw(st.integers(0, 10**6)))
    dist = [list(row) for row in space.dist]
    i, j = draw(st.lists(st.integers(0, space.n - 1), min_size=2, max_size=2, unique=True))
    old = dist[i][j]
    values = sorted({v for row in dist for v in row})
    nudged = [old - Fraction(1, 7), old + Fraction(1, 7)]
    new = draw(st.sampled_from(values + nudged))
    dist[i][j] = new
    if draw(st.booleans()):
        dist[j][i] = new
    return tuple(map(tuple, dist))


class TestUltrametricScan:
    @given(
        st.one_of(
            spaces.map(lambda s: s.dist),
            tied_matrices(),
            malformed_matrices(),
            perturbed_dendrograms(),
            byte_boundary_matrices(),
        )
    )
    @settings(max_examples=400, deadline=None)
    def test_violation_matches_brute_force(self, dist):
        space = FiniteMetricSpace(labels=tuple(map(str, range(len(dist)))), dist=dist)
        assert ultrametric_violation(space) == oracle.ultrametric_violation(dist)

    @given(malformed_matrices(max_n=2))
    @settings(max_examples=60, deadline=None)
    def test_one_and_two_points_never_violate(self, dist):
        # with b in {a, c}, max(d(a,b), d(b,c)) >= d(a,c) for any matrix
        space = FiniteMetricSpace(labels=tuple(map(str, range(len(dist)))), dist=dist)
        assert ultrametric_violation(space) is None
        assert oracle.ultrametric_violation(dist) is None


@st.composite
def dendrogram_matrices(draw, min_n=1, max_n=12):
    """The matrix of a merge tree over min_n to max_n points in shuffled order, with many ties.

    Two clusters at a time merge at a height that never falls and often
    stays, so one height can join several clusters and many pairs. A step of
    1/(2**61 - 1) makes the packed fields wider than 8 bytes.
    """
    n = draw(st.integers(min_n, max_n))
    clusters = [[p] for p in draw(st.permutations(range(n)))]
    dist = [[Fraction(0)] * n for _ in range(n)]
    steps = st.sampled_from(
        [Fraction(0), Fraction(0), Fraction(1, 3), Fraction(2), Fraction(1, 2**61 - 1)]
    )
    height = Fraction(1)
    while len(clusters) > 1:
        pair = st.lists(st.integers(0, len(clusters) - 1), min_size=2, max_size=2, unique=True)
        i, j = sorted(draw(pair))
        joined = clusters.pop(j)
        for p in clusters[i]:
            for q in joined:
                dist[p][q] = dist[q][p] = height
        clusters[i] += joined
        height += draw(steps)
    return tuple(map(tuple, dist))


@st.composite
def nudged_dendrograms(draw):
    """A dendrogram matrix with one symmetric pair moved down or up.

    A step of 1/7 often keeps a metric; a quarter or three times the old
    distance often breaks the triangle inequality.
    """
    dist = [list(row) for row in draw(dendrogram_matrices(min_n=2))]
    i, j = draw(st.lists(st.integers(0, len(dist) - 1), min_size=2, max_size=2, unique=True))
    old = dist[i][j]
    new = draw(st.sampled_from([old / 4, old - Fraction(1, 7), old + Fraction(1, 7), 3 * old]))
    dist[i][j] = dist[j][i] = new
    return tuple(map(tuple, dist))


@st.composite
def faulty_dendrograms(draw):
    """A dendrogram matrix with one fault that keeps it from the O(n²) ultrametric test.

    The fault is a nonzero diagonal entry, one entry of a pair changed (the
    other triangle stays ultrametric), or a zero or negative off-diagonal
    entry, alone or with its mirror. Some such matrices keep every ordered
    triple ultrametric, some break one in one direction only.
    """
    dist = [list(row) for row in draw(dendrogram_matrices(min_n=2))]
    i, j = draw(st.lists(st.integers(0, len(dist) - 1), min_size=2, max_size=2, unique=True))
    fault = draw(st.sampled_from(["diagonal", "symmetry", "positivity"]))
    if fault == "diagonal":
        dist[i][i] = draw(st.sampled_from([Fraction(1, 3), dist[i][j], 3 * dist[i][j]]))
    elif fault == "symmetry":
        dist[i][j] = draw(st.sampled_from([dist[i][j] / 4, dist[i][j] + Fraction(1, 7), 3 * dist[i][j]]))
    else:
        dist[i][j] = draw(st.sampled_from([Fraction(0), -dist[i][j], Fraction(-1, 7)]))
        if draw(st.booleans()):
            dist[j][i] = dist[i][j]
    return tuple(map(tuple, dist))


# merge tree {0, 1} {2, 3} at height 1, joined at height 2
_TWO_CHERRIES = ((0, 1, 2, 2), (1, 0, 2, 2), (2, 2, 0, 1), (2, 2, 1, 0))


class TestUltrametricRowTest:
    @given(st.one_of(dendrogram_matrices(), nudged_dendrograms()))
    @settings(max_examples=400, deadline=None)
    def test_matches_brute_force(self, dist):
        space = FiniteMetricSpace(labels=tuple(map(str, range(len(dist)))), dist=dist)
        assert is_ultrametric(space) == oracle.is_ultrametric(dist)
        assert ultrametric_violation(space) == oracle.ultrametric_violation(dist)
        got = [(v.axiom, v.indices, v.detail) for v in metric_violations(dist)]
        assert got == oracle.metric_violations(dist)

    @given(dendrogram_matrices())
    @settings(max_examples=100, deadline=None)
    def test_dendrograms_are_ultrametric(self, dist):
        assert oracle.is_ultrametric(dist)

    @given(faulty_dendrograms())
    @example(((5, 1), (1, 0)))
    @example(((0, 1, 1), (1, 0, 1), (3, 1, 0)))
    @settings(max_examples=300, deadline=None)
    def test_fault_lists_every_violation(self, dist):
        dist = tuple(tuple(map(Fraction, row)) for row in dist)
        got = [(v.axiom, v.indices, v.detail) for v in metric_violations(dist)]
        assert got == oracle.metric_violations(dist)
        assert any(axiom != "triangle" for axiom, _, _ in got)
        # such a matrix takes the scan for its triple and every ordered triple for its verdict
        space = FiniteMetricSpace(labels=tuple(map(str, range(len(dist)))), dist=dist)
        assert ultrametric_violation(space) == oracle.ultrametric_violation(dist)
        assert is_ultrametric(space) == oracle.is_ultrametric(dist)

    @pytest.mark.parametrize(
        "cells, value, triangles",
        [
            ([(2, 2)], 1, []),
            # the lower triangle stays the ultrametric it was
            ([(0, 2)], 5, [(0, 1, 2), (0, 3, 2)]),
            ([(0, 2), (2, 0)], 0, [(0, 2, 3), (1, 0, 2)]),
        ],
    )
    def test_fault_keeps_the_triangle_check(self, cells, value, triangles):
        dist = [list(map(Fraction, row)) for row in _TWO_CHERRIES]
        for i, j in cells:
            dist[i][j] = Fraction(value)
        dist = tuple(map(tuple, dist))
        got = [(v.axiom, v.indices, v.detail) for v in metric_violations(dist)]
        assert got == oracle.metric_violations(dist)
        assert [indices for axiom, indices, _ in got if axiom == "triangle"] == triangles


class TestCenteredPoints:
    # tied matrices draw off-diagonal entries in [1, 2], so each is a metric
    @given(
        st.one_of(
            spaces,
            tied_matrices().map(lambda d: FiniteMetricSpace(tuple(map(str, range(len(d)))), d)),
        )
    )
    @settings(max_examples=200, deadline=None)
    def test_off_center_matches_brute_force(self, space):
        # x is centered iff every ball holding x is a ball around x. A
        # normalized violation (x, y, z) gives B(y, d(x,y)), which holds x and
        # misses z, while every ball around x that reaches y holds z; so no
        # point is off center iff the space is ultrametric
        family = enumerate_balls(space)
        around = [{oracle.ball_members(space, x, r) for r in space.dist[x]} for x in range(space.n)]
        balls = oracle.all_ball_sets(space)
        expected = tuple(any(x in s and s not in around[x] for s in balls) for x in range(space.n))
        assert family.off_center == expected
        assert (not any(family.off_center)) == is_ultrametric(space)
        # a centered-only family, every point centered, answers without the table
        assert family.centered_only == is_ultrametric(space)
        assert ("containing" in family.__dict__) != family.centered_only
        # and the flags are the same when the table was built first
        built = enumerate_balls(space)
        assert len(built.containing) == space.n
        assert built.off_center == family.off_center
        assert built.centered_only == family.centered_only


def _squared_grid(side: int) -> FiniteMetricSpace:
    """The side x side integer grid under squared Euclidean distance.

    Not a metric, but every distance is tied many ways, which is what the ball
    enumeration must get right.
    """
    pts = [(a, b) for a in range(side) for b in range(side)]
    dist = tuple(tuple(Fraction((a - c) ** 2 + (b - d) ** 2) for c, d in pts) for a, b in pts)
    return FiniteMetricSpace(labels=tuple(f"{a},{b}" for a, b in pts), dist=dist)


def _check_family(space):
    """enumerate_balls against the brute-force family, representatives and ranks."""
    family = enumerate_balls(space)
    assert {frozenset(b.members) for b in family.balls} == oracle.all_ball_sets(space)
    assert len({b.members for b in family.balls}) == len(family)
    assert len(family) <= space.n**2
    first: dict[frozenset[int], tuple[int, Fraction]] = {}
    for c in range(space.n):
        for r in sorted(set(space.dist[c])):
            first.setdefault(oracle.ball_members(space, c, r), (c, r))
    for ball in family.balls:
        # the members are the set bits of the mask, ascending
        assert ball.members == tuple(p for p in range(space.n) if ball.mask >> p & 1)
        # the representative recomputes to the stored member set
        assert closed_ball(space, ball.center, ball.radius).members == ball.members
        # and is the first (center, radius) realizing it, with an exact radius
        assert (ball.center, ball.radius) == first[frozenset(ball.members)]
        assert type(ball.radius) is Fraction
    for x in range(space.n):
        assert set(family.centered_at[x]) <= set(family.containing[x])
        # every ball holding x, in family order
        holding = tuple(i for i, b in enumerate(family.balls) if x in b.members)
        assert family.containing[x] == holding
        # rank_of[p][x] names the smallest ball around x holding p
        for p in range(space.n):
            idx = family.centered_at[x][family.rank_of[p][x]]
            assert frozenset(family.balls[idx].members) == oracle.ball_members(
                space, x, space.dist[x][p]
            )


class TestBalls:
    def test_closed_ball_examples(self, line3):
        assert closed_ball(line3, 1, 1).members == (0, 1, 2)
        assert closed_ball(line3, 2, 1).members == (1, 2)
        assert closed_ball(line3, 1, 0).members == (1,)

    @given(spaces, st.data())
    @settings(max_examples=60, deadline=None)
    def test_point_balls_match_brute_force(self, space, data):
        c = data.draw(st.integers(0, space.n - 1))
        entries = sorted(set(space.dist[c]))
        r = data.draw(st.one_of(st.sampled_from(entries), st.fractions(0, entries[-1] + 1)))
        ball = closed_ball(space, c, r)
        expected = oracle.ball_members(space, c, r)
        assert ball.members == tuple(sorted(expected))
        assert ball.mask == sum(1 << p for p in expected)

    @given(st.integers(0, 2**700))
    def test_members_are_the_set_bits(self, mask):
        ball = Ball(center=0, radius=Fraction(0), mask=mask)
        assert ball.members == tuple(p for p in range(mask.bit_length()) if mask >> p & 1)

    def test_negative_radius(self, line3):
        with pytest.raises(ValueError):
            closed_ball(line3, 0, -1)

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
        _check_family(space)

    @pytest.mark.parametrize(
        "space",
        [line_space([Fraction(k, m) for k in range(2 * m + 1)]) for m in (1, 3, 6, 9, 12)]
        + [_squared_grid(s) for s in (2, 3, 4, 5)],
        ids=[f"line-m{m}" for m in (1, 3, 6, 9, 12)] + [f"squared-{s}x{s}" for s in (2, 3, 4, 5)],
    )
    def test_tie_heavy_family_matches_brute_force(self, space):
        _check_family(space)

    def test_set_met_again_in_another_tie_order(self):
        # {1, 2, 3} first appears around point 1 (at radius 2), then around
        # point 2, which adds 1 and 3 together, and around point 3, which adds 2
        # before 1; all three name one ball
        space = line_space([0, 10, 11, 12])
        family = enumerate_balls(space)
        (idx,) = [i for i, b in enumerate(family.balls) if b.members == (1, 2, 3)]
        assert (family.balls[idx].center, family.balls[idx].radius) == (1, 2)
        assert family.centered_at[1][2] == idx
        assert family.centered_at[2][1] == family.centered_at[3][2] == idx
        _check_family(space)
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

# every field that ==, hash and repr read; the tree build must give each one as the scan does
_FAMILY_FIELDS = ("masks", "centers", "radii", "centered_at", "rows", "slots", "member_total")


def _unchecked(dist) -> FiniteMetricSpace:
    """The matrix as a space, built without validation."""
    return FiniteMetricSpace(labels=tuple(map(str, range(len(dist)))), dist=dist)


def _matches_scan(space):
    """enumerate_balls of the space, asserted equal to the scan of every row field for field."""
    family = enumerate_balls(space)
    scan = metric._ball_family(space, tree=False)
    for name in _FAMILY_FIELDS:
        assert getattr(family, name) == getattr(scan, name), name
    return family


def _member_sets(family):
    return {frozenset(family.ball(i).members) for i in range(len(family))}


def _row_test_calls():
    """A spy on `_ultrametric`, the O(n²) row test, for the length of a with block."""
    return mock.patch.object(metric, "_ultrametric", wraps=metric._ultrametric)


class TestTreeBuild:
    @given(dendrogram_matrices(max_n=14))
    @settings(max_examples=300, deadline=None)
    def test_dendrograms_match_the_scan(self, dist):
        space = _unchecked(dist)
        assert space._row_test is True
        family = _matches_scan(space)
        assert _member_sets(family) == oracle.all_ball_sets(space)
        # every dendrogram here is a metric; validation keeps the test's answer
        checked = validate_space(dist)
        assert vars(checked)["_row_test"] is True
        assert enumerate_balls(checked) == family

    @pytest.mark.parametrize("n", [1, 2, 100, 200])
    def test_generated_dendrograms_match_the_scan(self, n):
        space = gen_ultrametric(n, seed=n)
        family = _matches_scan(space)
        assert _member_sets(family) == oracle.all_ball_sets(space)
        # distinct merge heights: the n leaves and the n - 1 merges are the balls
        assert len(family) == 2 * n - 1

    @given(st.one_of(nudged_dendrograms(), faulty_dendrograms()))
    @settings(max_examples=300, deadline=None)
    def test_unvalidated_near_dendrograms_match_the_scan(self, dist):
        # a 1/7 step can keep an ultrametric, which then takes the tree build
        _matches_scan(_unchecked(dist))

    @given(st.one_of(dendrogram_matrices(), nudged_dendrograms(), faulty_dendrograms()))
    @settings(max_examples=300, deadline=None)
    def test_ultrametric_answers_read_the_kept_test(self, dist):
        expected = (oracle.is_ultrametric(dist), oracle.ultrametric_violation(dist))
        with _row_test_calls() as spy:
            cold = _unchecked(dist)
            assert (is_ultrametric(cold), ultrametric_violation(cold)) == expected
            assert spy.call_count == 1  # on first read, then kept
            if not oracle.metric_violations(dist):
                checked = validate_space(dist)
                assert spy.call_count == 2  # validation runs it once
                assert (is_ultrametric(checked), ultrametric_violation(checked)) == expected
                enumerate_balls(checked)
                assert spy.call_count == 2

    @pytest.mark.parametrize("count", range(1, 7))
    @given(st.data())
    @settings(max_examples=20, deadline=None)
    def test_line_space_keeps_its_answer(self, count, data):
        coords = data.draw(
            st.lists(st.fractions(-10, 10, max_denominator=12), min_size=count, max_size=count, unique=True)
        )
        with _row_test_calls() as spy:
            space = line_space(coords)
            assert vars(space)["_row_test"] is (count <= 2)
            assert spy.call_count == 0
        assert space._row_test == oracle.is_ultrametric(space.dist) == _unchecked(space.dist)._row_test

    def test_grid_demo_runs_no_row_test(self):
        with _row_test_calls() as spy:
            assert build_grid_demo(6).matches_closed_form
        assert spy.call_count == 0

    @pytest.mark.parametrize("suffix", [".json", ".csv"])
    def test_loaded_space_runs_the_row_test_once(self, tmp_path, suffix):
        for space, ultrametric in ((gen_ultrametric(30, seed=5), True), (gen_taxicab(12, seed=5), False)):
            path = tmp_path / f"space{suffix}"
            if suffix == ".json":
                mio.write_json(mio.space_to_json(space), path)
            else:
                path.write_text("".join(",".join(map(mio.scalar_str, row)) + "\n" for row in space.dist))
            with _row_test_calls() as spy:
                loaded = mio.load_space(path)
                assert spy.call_count == 1 and vars(loaded)["_row_test"] is ultrametric
                family = enumerate_balls(loaded)
                assert is_ultrametric(loaded) is ultrametric
                assert (ultrametric_violation(loaded) is None) is ultrametric
                assert spy.call_count == 1
            assert family == metric._ball_family(loaded, tree=False)


class TestMidpoints:
    def test_line3(self, line3):
        configs = find_midpoint_configs(line3)
        assert [(c.a, c.m, c.b) for c in configs] == [(0, 1, 2)]

    def test_equilateral_empty(self, eq3):
        assert find_midpoint_configs(eq3) == []

    def test_record(self, line3):
        (config,) = find_midpoint_configs(line3)
        check_record(config, ("a", "m", "b"))
        assert config == MidpointConfig(0, 1, 2)
        assert config._replace(m=5) == MidpointConfig(0, 5, 2)

    def test_equal_endpoints_rejected(self):
        for build in (
            lambda: MidpointConfig(1, 2, 1),
            lambda: MidpointConfig(a=1, m=2, b=1),
            lambda: MidpointConfig(0, 1, 2)._replace(b=0),
            lambda: MidpointConfig._make((3, 1, 3)),
        ):
            with pytest.raises(ValueError, match="endpoints must differ"):
                build()

    def test_grid5(self, grid5):
        got = {(c.a, c.m, c.b) for c in find_midpoint_configs(grid5)}
        # labels 0, 1/2, 1, 3/2, 2 are indices 0..4
        assert got == {(0, 1, 2), (1, 2, 3), (2, 3, 4), (0, 2, 4)}

    @given(spaces)
    @settings(max_examples=40, deadline=None)
    def test_matches_brute_force(self, space):
        got = {(c.a, c.m, c.b) for c in find_midpoint_configs(space)}
        assert got == oracle.midpoint_triples(space)
