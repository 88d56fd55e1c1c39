import random
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracle
from corpus import small_catalog, weight_grid
from test_maximal import CANDIDATE_CASES, check_record
from maxlab.maximal import _BallMeasures
from maxlab import (
    Ball,
    BallFamily,
    DiscreteMeasure,
    HullCertificate,
    PairBallCheck,
    SampleFunction,
    Witness,
    build_grid_demo,
    centered_maximal,
    check_ball_infimum,
    check_lower_semicontinuity,
    coincidence_exact,
    coincidence_randomized,
    construct_witness,
    dirac,
    enumerate_balls,
    find_midpoint_configs,
    gen_function,
    gen_graph_metric,
    gen_measure,
    gen_taxicab,
    gen_ultrametric,
    line_space,
    maximal_field,
    noncentered_maximal,
    normalized_indicator,
    ultrametric_violation,
    validate_space,
    verify_hull_certificates,
    verify_witness,
)

Q = Fraction


class TestBallInfimumAudit:
    def test_line3_failing_pair(self, line3, uniform3):
        report = check_ball_infimum(line3, uniform3)
        row = report.pair(2, 1)
        assert row.measure_ball_y == 3  # ball around 1 of radius 1 is everything
        assert row.pair_infimum == 2
        assert not row.inequality_holds

    def test_line3_symmetry_failure_matches_contradiction_pair(self, line3, uniform3):
        report = check_ball_infimum(line3, uniform3)
        row = report.pair(1, 2)
        assert row.measure_ball_y == 2
        assert row.measure_ball_x == 3
        assert not row.symmetry_holds

    def test_equilateral_all_hold(self, eq3, uniform3):
        report = check_ball_infimum(eq3, uniform3)
        assert report.all_inequalities_hold
        assert report.all_symmetric
        assert report.all_dirac_bounds_hold
        assert all(p.measure_ball_y == 3 == p.pair_infimum for p in report.pairs)

    def test_pairs_cover_ordered_support(self, line3):
        mu = DiscreteMeasure((1, 0, 1))
        report = check_ball_infimum(line3, mu)
        assert {(p.x, p.y) for p in report.pairs} == {(0, 2), (2, 0)}


class TestWitness:
    def test_line3_witness_values(self, line3):
        w = construct_witness(line3, (1, 2, 0))
        assert w.measure.weights == (1, 1, 1)
        assert w.function.values == (0, 0, 1)
        assert w.point == 1
        assert w.centered_value == Q(1, 3)
        assert w.noncentered_value == Q(1, 2)
        assert verify_witness(line3, w)

    def test_precondition_rejected(self, eq3):
        with pytest.raises(ValueError, match="normalized form"):
            construct_witness(eq3, (0, 1, 2))

    def test_degenerate_triple_rejected(self, line3):
        with pytest.raises(ValueError, match="distinct"):
            construct_witness(line3, (1, 1, 0))

    @given(st.integers(3, 12), st.integers(0, 10**6), st.booleans())
    @settings(max_examples=80, deadline=None)
    def test_nonultrametric_witness_is_exact(self, n, seed, taxicab):
        space = (
            gen_taxicab(n, dim=1 + seed % 3, seed=seed)
            if taxicab
            else gen_graph_metric(n, seed=seed)
        )
        triple = ultrametric_violation(space)
        if triple is None:
            return
        w = construct_witness(space, triple)
        # the construction pins both values on the full space
        assert w.noncentered_value == Q(1, 2)
        assert w.centered_value == Q(1, 3)
        assert verify_witness(space, w)
        # and on the restricted three-point space as well
        sub = space.restrict(sorted(triple))
        sub_triple = tuple(sorted(triple).index(p) for p in triple)
        sw = construct_witness(sub, sub_triple)
        assert sw.noncentered_value == Q(1, 2)
        assert sw.centered_value == Q(1, 3)


class TestWitnessChecker:
    """verify_witness must reject every tampered witness.

    On the line 0, 1, 2 with the uniform measure, the indicator of 2 at
    point 1 has centered value 1/3 and non-centered value 1/2.
    """

    @pytest.fixture
    def witness(self, line3):
        w = construct_witness(line3, (1, 2, 0))
        assert verify_witness(line3, w)
        return w

    def test_rejects_raised_centered_value(self, line3, witness):
        bad = replace(witness, centered_value=witness.centered_value + Q(1, 1000))
        assert not verify_witness(line3, bad)

    def test_rejects_lowered_noncentered_value(self, line3, witness):
        bad = replace(witness, noncentered_value=witness.noncentered_value - Q(1, 1000))
        assert bad.noncentered_value > bad.centered_value
        assert not verify_witness(line3, bad)

    def test_rejects_point_outside_the_support(self, line3):
        # with weights (1, 0, 1), the balls through 1 give centered 1/2 and
        # non-centered 1: stored values that re-evaluate, at a weightless point
        w = Witness(DiscreteMeasure((1, 0, 1)), SampleFunction((0, 0, 1)), 1, Q(1, 2), Q(1))
        assert not verify_witness(line3, w)
        assert not verify_witness(line3, replace(w, point=3))

    def test_rejects_space_of_another_point_count(self, witness):
        assert not verify_witness(line_space([0, 1, 2, 3]), witness)

    def test_taxicab40_witness(self):
        # the witness measure's support has three points, so each center
        # re-derives at most three balls of its row
        space = gen_taxicab(40, seed=3)
        witness = construct_witness(space, ultrametric_violation(space))
        assert verify_witness(space, witness)
        bad = replace(witness, centered_value=witness.centered_value + Q(1, 1000))
        assert not verify_witness(space, bad)

    @given(st.integers(3, 10), st.integers(0, 10**6), st.booleans(), st.booleans())
    @settings(max_examples=60, deadline=None)
    def test_agrees_with_every_radius(self, n, seed, taxicab, sparse):
        # stored values from the oracle, which averages a ball of every
        # radius, under measures with weightless points
        space = gen_taxicab(n, dim=2, seed=seed) if taxicab else gen_graph_metric(n, seed=seed)
        mu = gen_measure(space, seed=seed, zero_fraction=0.4 if sparse else 0.0)
        f = gen_function(space, seed=seed + 1)
        table = oracle.argmax_table(space, mu, f)
        gaps = [x for x in mu.support if table[x, False][0] > table[x, True][0]]
        x = (gaps or mu.support)[0]
        centered, noncentered = table[x, True][0], table[x, False][0]
        if gaps:
            assert verify_witness(space, Witness(mu, f, x, centered, noncentered))
            moved = Witness(mu, f, x, centered, noncentered + Q(1, 1000))
        else:
            moved = Witness(mu, f, x, centered - Q(1, 1000), noncentered)
        assert not verify_witness(space, moved)


class TestCoincidenceRandomized:
    def test_line3_found_in_phase1(self, line3, uniform3):
        verdict = coincidence_randomized(line3, uniform3, trials=0, seed=0)
        assert verdict.verdict == "distinct"
        assert verdict.method == "randomized"
        assert verdict.trials == 0  # a point mass separates: no trial is reported
        w = verdict.witness
        assert w.point == 1
        assert (w.centered_value, w.noncentered_value) == (Q(1, 3), Q(1, 2))
        assert verify_witness(line3, w)

    def test_equilateral_inconclusive_equal(self, eq3, uniform3):
        verdict = coincidence_randomized(eq3, uniform3, trials=100, seed=7)
        assert verdict.verdict == "equal"
        assert verdict.method == "randomized"
        assert verdict.trials == 100
        assert verdict.certificates is None

    def test_zero_trials_phase1_only(self, eq3, uniform3):
        verdict = coincidence_randomized(eq3, uniform3, trials=0, seed=1)
        assert verdict.verdict == "equal"
        assert verdict.trials == 0

    def test_seed_reproducibility(self, line3):
        mu = DiscreteMeasure((2, 1, 1))
        a = coincidence_randomized(line3, mu, trials=50, seed=99)
        b = coincidence_randomized(line3, mu, trials=50, seed=99)
        assert a == b


class TestCoincidenceExact:
    def test_line3_distinct_reverified(self, line3, uniform3):
        verdict = coincidence_exact(line3, uniform3)
        assert verdict.verdict == "distinct"
        assert verdict.witness.point == 1
        assert verify_witness(line3, verdict.witness)

    def test_equilateral_equal_with_unit_certificates(self, eq3, uniform3):
        verdict = coincidence_exact(eq3, uniform3)
        assert verdict.verdict == "equal"
        # every ball of an ultrametric space is centered at each of its points
        assert all(c.centered_ball == c.ball for c in verdict.certificates)
        assert verify_hull_certificates(eq3, uniform3, verdict)

    def test_single_point_equal(self):
        space = validate_space([[0]])
        verdict = coincidence_exact(space, DiscreteMeasure((2,)))
        assert verdict.verdict == "equal"
        assert verify_hull_certificates(space, DiscreteMeasure((2,)), verdict)

    def test_zero_weights_can_equalize_nonultrametric(self, line3):
        # support {0, 2} on the line: every containing functional is centered-realizable
        mu = DiscreteMeasure((1, 0, 1))
        verdict = coincidence_exact(line3, mu)
        assert verdict.verdict == "equal"
        assert verify_hull_certificates(line3, mu, verdict)

    @given(st.integers(1, 10), st.integers(0, 10**6), st.integers(0, 10**6))
    @settings(max_examples=60, deadline=None)
    def test_ultrametric_always_equal(self, n, seed_s, seed_m):
        space = gen_ultrametric(n, seed=seed_s)
        mu = gen_measure(space, seed=seed_m, zero_fraction=0.2)
        verdict = coincidence_exact(space, mu)
        assert verdict.verdict == "equal"
        assert verify_hull_certificates(space, mu, verdict)

    @given(st.integers(0, 10**6), st.integers(0, 10**6), st.integers(0, 10**5))
    @settings(max_examples=40, deadline=None)
    def test_equal_never_contradicted_by_randomized(self, seed_s, seed_m, seed_r):
        space = gen_ultrametric(1 + seed_s % 8, seed=seed_s)
        mu = gen_measure(space, seed=seed_m, zero_fraction=0.3)
        exact = coincidence_exact(space, mu)
        assert exact.verdict == "equal"
        randomized = coincidence_randomized(space, mu, trials=25, seed=seed_r)
        assert randomized.verdict == "equal"

    def test_exact_matches_field_scan_on_catalog(self):
        # the hull decision and the point-mass search decide alike
        for space in small_catalog():
            for mu in weight_grid(space.n, levels=(0, 1, 2)):
                exact = coincidence_exact(space, mu)
                randomized = coincidence_randomized(space, mu, trials=40, seed=11)
                assert randomized.verdict == exact.verdict
                if randomized.verdict == "distinct":
                    assert verify_witness(space, randomized.witness)
                if exact.verdict == "equal":
                    assert verify_hull_certificates(space, mu, exact)
                else:
                    assert verify_witness(space, exact.witness)


# Small spaces with tied distances (quarter-integer taxicab lattices, integer
# graph lengths) and measures with zero weights, so that many balls are
# centered outside the support.
small_spaces = st.one_of(
    st.tuples(st.integers(1, 7), st.integers(1, 2), st.integers(0, 10**6)).map(
        lambda t: gen_taxicab(t[0], dim=t[1], seed=t[2])
    ),
    st.tuples(st.integers(1, 7), st.integers(0, 10**6)).map(
        lambda t: gen_graph_metric(t[0], edge_probability=0.45, seed=t[1])
    ),
    st.tuples(st.integers(1, 7), st.integers(0, 10**6)).map(
        lambda t: gen_ultrametric(t[0], seed=t[1])
    ),
)
weight_values = st.sampled_from([Q(0), Q(0), Q(1), Q(2), Q(1, 3), Q(5, 7)])
tied_spaces = st.one_of(
    st.integers(1, 7).map(lambda m: line_space([Q(k, m) for k in range(2 * m + 1)])),
    st.tuples(st.integers(2, 14), st.integers(0, 10**6)).map(
        lambda t: gen_taxicab(t[0], dim=2, coord_range=(0, 3), seed=t[1])
    ),
    st.tuples(st.integers(2, 14), st.integers(0, 10**6)).map(
        lambda t: gen_graph_metric(t[0], edge_probability=0.3, seed=t[1])
    ),
    st.tuples(st.integers(2, 16), st.integers(0, 10**6)).map(
        lambda t: gen_ultrametric(t[0], seed=t[1])
    ),
)


class TestTraceDecision:
    def test_outer_triple_pinned(self):
        # {g2, g3, g4} is ultrametric as a subspace, but the ball {g1, g3, g4}
        # around g1, outside the support, holds g3 and g4 and cuts g2 off
        space = gen_graph_metric(5, edge_probability=0.45, seed=7)
        mu = DiscreteMeasure((0, 0, 1, 1, 1))
        assert ultrametric_violation(space.restrict([2, 3, 4])) is None
        verdict = coincidence_exact(space, mu)
        assert verdict.verdict == "distinct"
        assert [space.labels[i] for i in verdict.explanation] == ["g3", "g4", "g2", "g1"]
        witness = verdict.witness
        assert witness.point == 3
        assert witness.function.values == (0, 0, -4, 1, 2)
        assert (witness.centered_value, witness.noncentered_value) == (1, Q(3, 2))
        assert verify_witness(space, witness)

    @given(small_spaces, st.data())
    @settings(max_examples=300, deadline=None)
    def test_matches_trace_oracle(self, space, data):
        weights = data.draw(
            st.lists(weight_values, min_size=space.n, max_size=space.n).filter(any)
        )
        _check_decision(space, DiscreteMeasure(tuple(weights)))

    @given(tied_spaces, st.data())
    @settings(max_examples=150, deadline=None)
    def test_matches_trace_oracle_on_tied_spaces(self, space, data):
        # more points and many equal distances: long, tied rank tables to bisect
        weights = data.draw(
            st.lists(weight_values, min_size=space.n, max_size=space.n).filter(any)
        )
        _check_decision(space, DiscreteMeasure(tuple(weights)))


def _check_decision(space, mu):
    """coincidence_exact against the oracle: verdict, certificates and explanation."""
    family = enumerate_balls(space)
    verdict = coincidence_exact(space, mu, family=family)
    assert (verdict.verdict == "equal") == oracle.coincides(space, mu.weights)
    support = frozenset(mu.support)
    dist = space.dist
    if verdict.verdict == "equal":
        assert verify_hull_certificates(space, mu, verdict)
        for cert in verdict.certificates:
            x, ball = cert.point, cert.ball
            if ball in [family.balls[i] for i in family.centered_at[x]]:
                assert cert.centered_ball == ball  # a centered ball certifies itself
                continue
            # otherwise the smallest ball centered at x with the same trace
            trace = frozenset(ball.members) & support
            r = min(r for r in dist[x] if oracle.ball_members(space, x, r) & support == trace)
            assert frozenset(cert.centered_ball.members) == oracle.ball_members(space, x, r)
        return
    witness = verdict.witness
    x, f = witness.point, witness.function
    assert witness.centered_value == oracle.centered_value(space, mu, f, x)
    assert witness.noncentered_value == oracle.noncentered_value(space, mu, f, x)
    ex, p, q, c = verdict.explanation
    assert ex == x and {p, q} <= support
    # four distance comparisons: every ball around c that holds x and p misses
    # q, p lies beyond x, and q no farther from x than p
    assert dist[c][q] > dist[c][x] and dist[c][q] > dist[c][p]
    assert 0 < dist[x][p] and dist[x][q] <= dist[x][p]
    # the witness is positive exactly on the ball's trace B ∩ S, and 2 on its
    # points farthest from x: p is the first of those, q the first point of S
    # outside B no farther from x than they are
    trace = [s for s in range(space.n) if f.values[s] > 0]
    far = max(dist[x][s] for s in trace)
    assert p == min(s for s in trace if dist[x][s] == far)
    assert all(f.values[s] == (2 if dist[x][s] == far else 1) for s in trace)
    assert q == min(s for s in support if dist[x][s] <= far and s not in trace)


class TestHullCertificateChecker:
    """verify_hull_certificates must reject every tampered `equal` verdict.

    On the line 0, 1, 2 with weights (1, 1, 0) the operators agree. Family
    balls: 0 = {0}, 1 = {0,1}, 2 = {0,1,2}, 3 = {1}, 4 = {2}, 5 = {1,2};
    balls 0, 1, 2 are centered at 0, and around 1 lie {1} and {0,1,2}, which
    ball 2 represents from center 0.
    """

    @pytest.fixture
    def case(self, line3):
        mu = DiscreteMeasure((1, 1, 0))
        family = enumerate_balls(line3)
        verdict = coincidence_exact(line3, mu, family=family)
        assert verdict.verdict == "equal"
        assert verify_hull_certificates(line3, mu, verdict)
        return line3, mu, family.balls, verdict

    @staticmethod
    def _swap(verdict, old, new):
        certs = verdict.certificates
        assert old in certs
        return replace(verdict, certificates=tuple(new if c == old else c for c in certs))

    def test_rejects_centered_ball_with_another_trace(self, case):
        space, mu, balls, verdict = case
        # {0} is centered at 0, but its trace {0} is not the trace {0,1} of ball 1
        bad = self._swap(
            verdict, HullCertificate(0, balls[1], balls[1]), HullCertificate(0, balls[1], balls[0])
        )
        assert not verify_hull_certificates(space, mu, bad)

    def test_rejects_ball_centered_at_another_point(self, case):
        space, mu, balls, verdict = case
        # {0,1} has the same trace as itself but is no ball around 1
        bad = self._swap(
            verdict, HullCertificate(1, balls[1], balls[2]), HullCertificate(1, balls[1], balls[1])
        )
        assert not verify_hull_certificates(space, mu, bad)

    def test_rejects_ball_that_is_not_its_radius(self, case):
        space, mu, balls, verdict = case
        # the closed ball (0, 1) is {0,1}: a Ball that names it but holds only {0} is not it
        fake = Ball(0, Q(1), balls[0].mask)
        bad = self._swap(
            verdict, HullCertificate(0, balls[1], balls[1]), HullCertificate(0, balls[1], fake)
        )
        assert not verify_hull_certificates(space, mu, bad)

    def test_rejects_dropped_certificate(self, case):
        space, mu, balls, verdict = case
        for k in range(len(verdict.certificates)):
            certs = verdict.certificates[:k] + verdict.certificates[k + 1 :]
            bad = replace(verdict, certificates=certs)
            assert not verify_hull_certificates(space, mu, bad)

    def test_rejects_certificate_at_zero_weight_point(self, case):
        space, mu, balls, verdict = case
        # {2} is centered at 2 and matches its own (empty) trace
        extra = HullCertificate(2, balls[4], balls[4])
        bad = replace(verdict, certificates=verdict.certificates + (extra,))
        assert not verify_hull_certificates(space, mu, bad)

    def test_rejects_distinct_verdict(self, case, uniform3):
        space, mu, balls, verdict = case
        witness = coincidence_exact(space, uniform3).witness
        bad = replace(verdict, verdict="distinct", witness=witness)
        assert not verify_hull_certificates(space, mu, bad)
        assert not verify_hull_certificates(space, uniform3, coincidence_exact(space, uniform3))

    def test_rejects_verdict_of_a_family_missing_balls(self, line3, uniform3):
        # with {0,1} and {1,2} dropped from `containing`, every ball left
        # holding a point is centered there, and the fast path answers
        # `equal` where the operators differ
        family = enumerate_balls(line3)
        lost = {i for i, b in enumerate(family.balls) if b.members in ((0, 1), (1, 2))}
        # `containing` is built on first read: seed the broken lists into a copy's cache
        broken = replace(family)
        broken.__dict__["containing"] = tuple(
            tuple(i for i in row if i not in lost) for row in family.containing
        )
        verdict = coincidence_exact(line3, uniform3, family=broken)
        assert verdict.verdict == "equal"
        assert {c.ball.members for c in verdict.certificates}.isdisjoint({(0, 1), (1, 2)})
        assert not verify_hull_certificates(line3, uniform3, verdict)


def _check_audit_rows(space, mu, family=None):
    """Every row of check_ball_infimum against the oracle's balls and point-mass maximal."""
    report = check_ball_infimum(space, mu, family=family)
    support = mu.support
    assert [(r.x, r.y) for r in report.pairs] == [
        (x, y) for x in support for y in support if x != y
    ]
    for row in report.pairs:
        x, y = row.x, row.y
        d = space.dist[x][y]
        m_y = oracle.mass(mu, oracle.ball_members(space, y, d))
        m_x = oracle.mass(mu, oracle.ball_members(space, x, d))
        inf_m = oracle.inf_pair_measure(space, mu, x, y)
        dm = oracle.dirac_maximal(space, mu, x, y)
        assert (row.measure_ball_y, row.pair_infimum, row.measure_ball_x) == (m_y, inf_m, m_x)
        assert row.dirac_maximal == dm
        assert row.inequality_holds == (m_y <= inf_m)
        assert row.symmetry_holds == (m_y == m_x)
        assert row.dirac_bound_holds == (dm * m_y <= 1)
        assert row.dirac_maximal * row.pair_infimum == 1


class TestBallInfimumDifferential:
    @given(small_spaces, st.data())
    @settings(max_examples=300, deadline=None)
    def test_rows_match_brute_force(self, space, data):
        weights = data.draw(
            st.lists(weight_values, min_size=space.n, max_size=space.n).filter(any)
        )
        _check_audit_rows(space, DiscreteMeasure(tuple(weights)))

    # spaces of up to 30 points, with and without off-center support points,
    # where the audit reads pair_masses rows. The oracle costs O(n^4) per
    # pair, so only every seventh point has weight (1 to 3). The rows come
    # from masks: no case builds a `Ball`, not even hops25, whose support
    # points each lie in at most n balls.
    @pytest.mark.parametrize("case", sorted(CANDIDATE_CASES))
    def test_rows_match_brute_force_on_candidate_cases(self, case):
        build, off_center = CANDIDATE_CASES[case]
        space = build()
        family = enumerate_balls(space)
        mu = DiscreteMeasure(tuple(Q(1 + p % 3) if p % 7 == 3 else 0 for p in range(space.n)))
        assert any(family.off_center[x] for x in mu.support) == off_center
        _check_audit_rows(space, mu, family)
        assert "balls" not in family.__dict__


class TestPointMassSearch:
    @given(small_spaces, st.data())
    @settings(max_examples=300, deadline=None)
    def test_phase1_witness_is_first_separated_pair(self, space, data):
        weights = data.draw(
            st.lists(weight_values, min_size=space.n, max_size=space.n).filter(any)
        )
        mu = DiscreteMeasure(tuple(weights))
        support = mu.support
        separated = (
            (p, x)
            for p in support
            for x in support
            if oracle.inf_pair_measure(space, mu, x, p)
            < oracle.mass(mu, oracle.ball_members(space, x, space.dist[x][p]))
        )
        expected = next(separated, None)
        verdict = coincidence_randomized(space, mu, trials=0, seed=0)
        assert verdict.trials == 0
        if expected is None:
            assert verdict.verdict == "equal"
            return
        p, x = expected
        witness = verdict.witness
        assert verdict.verdict == "distinct"
        assert (witness.measure, witness.point) == (mu, x)
        assert witness.function == normalized_indicator(space, (p,), mu)
        assert witness.centered_value == oracle.centered_value(space, mu, witness.function, x)
        assert witness.noncentered_value == oracle.noncentered_value(
            space, mu, witness.function, x
        )

    @given(
        st.integers(0, 2),
        st.integers(1, 10),
        st.integers(0, 10**6),
        st.sampled_from([0.0, 0.3, 0.6]),
    )
    @settings(max_examples=150, deadline=None)
    def test_phase1_alone_decides(self, kind, n, seed, zero_fraction):
        # a separating triple (x, p, q) makes the indicator of the point of
        # B ∩ S farthest from x a witness, so the point masses miss no `distinct`
        if kind == 0:
            space = gen_taxicab(n, dim=1 + seed % 2, seed=seed)
        elif kind == 1:
            space = gen_graph_metric(n, edge_probability=0.45, seed=seed)
        else:
            space = gen_ultrametric(n, seed=seed)
        mu = gen_measure(space, seed=seed + 1, zero_fraction=zero_fraction)
        family = enumerate_balls(space)
        randomized = coincidence_randomized(space, mu, trials=0, seed=0, family=family)
        assert randomized.verdict == coincidence_exact(space, mu, family=family).verdict

    @pytest.mark.parametrize("seed", [14, 15])
    def test_centered_points_read_no_pair_row(self, seed, monkeypatch):
        # every point of a dendrogram is centered: neither the search nor the
        # audit reads a pair_masses row, and both still match the oracle
        space = gen_ultrametric(30, seed=seed)
        mu = DiscreteMeasure(tuple(Q(1 + p % 3) if p % 7 == 3 else 0 for p in range(space.n)))
        calls = []
        pair_masses = _BallMeasures.pair_masses
        monkeypatch.setattr(
            _BallMeasures, "pair_masses", lambda self, p: calls.append(p) or pair_masses(self, p)
        )
        verdict = coincidence_randomized(space, mu, trials=0, seed=0)
        assert oracle.coincides(space, mu.weights)
        assert (verdict.verdict, verdict.trials, verdict.witness) == ("equal", 0, None)
        _check_audit_rows(space, mu)
        assert calls == []

    def test_seeded_verdicts_pinned(self):
        space = gen_graph_metric(6, edge_probability=0.45, seed=2)
        mu = gen_measure(space, seed=1, zero_fraction=0.3)
        verdict = coincidence_randomized(space, mu, trials=50, seed=9)
        assert (verdict.verdict, verdict.trials, verdict.witness.point) == ("distinct", 0, 3)
        assert verdict.witness.function.values == (0, 0, 0, 0, 2, 0)
        assert (verdict.witness.centered_value, verdict.witness.noncentered_value) == (
            Q(6, 19),
            Q(2, 5),
        )

        space = gen_taxicab(6, dim=2, seed=5)
        mu = gen_measure(space, seed=3, zero_fraction=0.3)
        verdict = coincidence_randomized(space, mu, trials=20, seed=5)
        assert (verdict.verdict, verdict.trials, verdict.witness.point) == ("distinct", 0, 3)
        assert verdict.witness.function.values == (0, Q(2, 3), 0, 0, 0, 0)
        assert (verdict.witness.centered_value, verdict.witness.noncentered_value) == (
            Q(12, 89),
            Q(12, 77),
        )

        space = gen_ultrametric(7, seed=4)
        mu = gen_measure(space, seed=2, zero_fraction=0.3)
        verdict = coincidence_randomized(space, mu, trials=30, seed=2)
        assert (verdict.verdict, verdict.trials, verdict.witness) == ("equal", 30, None)


def _count_calls(monkeypatch, cls, name):
    """Wrap cls.name so that each call appends its arguments to the returned list."""
    calls, method = [], getattr(cls, name)
    monkeypatch.setattr(cls, name, lambda self, *args: calls.append(args) or method(self, *args))
    return calls


class TestCenteredOnlyFamily:
    """A dendrogram's family, every point centered, answers from `centered_at` alone."""

    @pytest.mark.parametrize("seed", [14, 15])
    @pytest.mark.parametrize("zero_fraction", [0.0, 0.3])
    def test_sums_no_ball(self, seed, zero_fraction, monkeypatch):
        space = gen_ultrametric(30, seed=seed)
        family = enumerate_balls(space)
        # every point is centered: Σ|B| is the total length of centered_at
        assert family.member_total == sum(map(len, family.centered_at))
        mu = gen_measure(space, seed=seed, zero_fraction=zero_fraction)
        assert (len(mu.support) == space.n) == (zero_fraction == 0)
        sums = _count_calls(monkeypatch, _BallMeasures, "_sums")
        held = _count_calls(monkeypatch, BallFamily, "holding")
        # no point is off center, so the search reads no ball sum and echoes `trials`
        verdict = coincidence_randomized(space, mu, trials=30, seed=seed, family=family)
        assert (verdict.verdict, verdict.trials, verdict.witness) == ("equal", 30, None)
        assert sums == [] and held == []
        # one point: its values need one set of ball sums each
        f = gen_function(space, seed=seed)
        x = mu.support[len(mu.support) // 2]
        for op, centered in ((centered_maximal, True), (noncentered_maximal, False)):
            got = op(f, mu, family, x)
            assert (got.value, got.ball.members) == oracle.argmax_ball(space, mu, f, x, centered)
        assert len(sums) == 2
        with pytest.raises(ValueError, match="dimension mismatch"):
            _BallMeasures(family, mu).at(SampleFunction((1,) * (space.n + 1)), x)

    def test_sums_no_ball_elsewhere(self, monkeypatch):
        # a taxicab family has off-center points, but with one support point
        # no point mass separates the operators, so `equal` sums no ball
        space = gen_taxicab(12, seed=1)
        family = enumerate_balls(space)
        assert family.member_total > sum(map(len, family.centered_at))
        sums = _count_calls(monkeypatch, _BallMeasures, "_sums")
        verdict = coincidence_randomized(space, dirac(space, 5), trials=7, seed=1, family=family)
        assert (verdict.verdict, verdict.trials, verdict.witness) == ("equal", 7, None)
        assert sums == []

    @pytest.mark.parametrize("seed", [14, 15])
    @pytest.mark.parametrize("zero_fraction", [0.0, 0.3])
    def test_cold_family_builds_no_containing(self, seed, zero_fraction):
        space = gen_ultrametric(30, seed=seed)
        mu = gen_measure(space, seed=seed, zero_fraction=zero_fraction)
        family = enumerate_balls(space)
        exact = coincidence_exact(space, mu, family=family)
        randomized = coincidence_randomized(space, mu, trials=6, seed=seed, family=family)
        report = check_ball_infimum(space, mu, family=family)
        assert "containing" not in family.__dict__
        assert (exact.verdict, randomized.verdict) == ("equal", "equal")
        assert verify_hull_certificates(space, mu, exact)
        # each support point with each ball holding it, in family order, certified by itself
        expected = [
            HullCertificate(x, ball, ball)
            for x in mu.support
            for ball in family.balls
            if x in ball.members
        ]
        assert list(exact.certificates) == expected
        rng = random.Random(seed)
        for row in rng.sample(report.pairs, 3):
            x, y, d = row.x, row.y, space.dist[row.x][row.y]
            assert row.measure_ball_y == oracle.mass(mu, oracle.ball_members(space, y, d))
            assert row.pair_infimum == oracle.inf_pair_measure(space, mu, x, y)


class TestForwardDirection:
    @given(
        st.integers(1, 12),
        st.integers(0, 10**6),
        st.integers(0, 10**6),
        st.integers(0, 10**6),
    )
    @settings(max_examples=100, deadline=None)
    def test_ultrametric_fields_coincide(self, n, seed_s, seed_m, seed_f):
        space = gen_ultrametric(n, seed=seed_s)
        mu = gen_measure(space, seed=seed_m, zero_fraction=0.25)
        f = gen_function(space, seed=seed_f)
        report = maximal_field(f, mu, space)
        for entry in report.points:
            assert entry.centered.value == entry.noncentered.value


class TestLemmaImplication:
    @given(st.integers(1, 10), st.integers(0, 10**6), st.integers(0, 10**6))
    @settings(max_examples=60, deadline=None)
    def test_equal_verdict_implies_ball_infimum_bounds(self, n, seed_s, seed_m):
        space = gen_ultrametric(n, seed=seed_s)
        mu = gen_measure(space, seed=seed_m, zero_fraction=0.2)
        assert coincidence_exact(space, mu).verdict == "equal"
        report = check_ball_infimum(space, mu)
        assert report.all_inequalities_hold
        assert report.all_symmetric
        assert report.all_dirac_bounds_hold


class TestLowerSemicontinuity:
    def test_shift_sequence(self, line3, uniform3):
        seq = [DiscreteMeasure((1 - Q(1, k), 0, Q(1, k))) for k in range(1, 31)]
        report = check_lower_semicontinuity(
            uniform3, line3, seq, dirac(line3, 0), 0, Q(1, 30)
        )
        assert report.noncentered_limit == 1
        assert report.noncentered_values[-1] == Q(29, 30)
        assert report.tail_inequality_holds
        assert report.per_step_bounds_hold

    def test_constant_sequence(self, line3, uniform3):
        seq = [uniform3] * 10
        report = check_lower_semicontinuity(uniform3, line3, seq, uniform3, 1, 0)
        assert set(report.noncentered_values) == {report.noncentered_limit}
        assert set(report.centered_values) == {report.centered_limit}
        assert report.tail_inequality_holds and report.per_step_bounds_hold

    def test_spike_sequence(self, line3, uniform3):
        seq = [DiscreteMeasure((Q(1, k), 0, 1)) for k in range(1, 31)]
        report = check_lower_semicontinuity(
            uniform3, line3, seq, dirac(line3, 2), 2, Q(1, 30)
        )
        assert set(report.noncentered_values) == {Q(1)}
        assert report.noncentered_limit == 1
        assert report.tail_inequality_holds and report.per_step_bounds_hold

    def test_precondition_violations(self, line3, uniform3):
        seq = [DiscreteMeasure((1, 0, 1))]
        with pytest.raises(ValueError, match="deviates"):
            check_lower_semicontinuity(uniform3, line3, seq, dirac(line3, 0), 0, 0)
        with pytest.raises(ValueError, match="support"):
            mu = DiscreteMeasure((1, 0, 1))
            check_lower_semicontinuity(mu, line3, seq, seq[0], 1, 2)

    @given(st.integers(1, 8), st.integers(0, 10**5), st.integers(0, 10**5), st.integers(2, 30))
    @settings(max_examples=40, deadline=None)
    def test_random_interpolation_sequences(self, n, seed_s, seed_m, steps):
        space = gen_ultrametric(n, seed=seed_s)
        mu = gen_measure(space, seed=seed_m, zero_fraction=0.0)
        target = gen_measure(space, seed=seed_m + 1, zero_fraction=0.0)
        start = gen_measure(space, seed=seed_m + 2, zero_fraction=0.0)
        seq = []
        for k in range(1, steps + 1):
            t = Q(k, steps)
            seq.append(
                DiscreteMeasure(
                    tuple((1 - t) * a + t * b for a, b in zip(start.weights, target.weights))
                )
            )
        x = mu.support[seed_m % len(mu.support)]
        report = check_lower_semicontinuity(mu, space, seq, target, x, 0)
        assert report.tail_inequality_holds
        assert report.per_step_bounds_hold


class TestGridDemo:
    def test_n10_exact_values(self):
        report = build_grid_demo(10)
        assert report.centered.value == Q(11, 21)
        assert report.noncentered.value == Q(11, 12)
        assert report.gap == Q(11, 28)
        assert report.matches_closed_form
        # the achieving non-centered ball spans [0, 1.1]
        members = report.noncentered.ball.members
        coords = [Q(k, 10) for k in range(21)]
        assert coords[members[0]] == 0 and coords[members[-1]] == Q(11, 10)

    def test_n10_against_brute_force(self):
        report = build_grid_demo(10)
        space, mu, f, x = report.space, report.mu, report.f, report.point
        assert report.centered.value == oracle.centered_value(space, mu, f, x)
        assert report.noncentered.value == oracle.noncentered_value(space, mu, f, x)

    def test_closed_form_follows_resolution(self):
        for n in (2, 3, 5, 10, 16):
            report = build_grid_demo(n)
            assert report.matches_closed_form
            assert report.centered.value == Q(n + 1, 2 * n + 1)
            assert report.noncentered.value == Q(n + 1, n + 2)

    def test_gap_grows_toward_half(self):
        gaps = [build_grid_demo(n).gap for n in (2, 5, 10, 20)]
        assert all(a < b for a, b in zip(gaps, gaps[1:]))
        assert all(g < Q(1, 2) for g in gaps)

    def test_midpoint_configs_include_consecutive_triples(self):
        report = build_grid_demo(4)
        got = {(c.a, c.m, c.b) for c in report.midpoint_configs}
        for k in range(1, 8):
            assert (k - 1, k, k + 1) in got

    def test_chain_structure(self):
        report = build_grid_demo(10)
        assert report.chain_is_midpoint_sequence
        assert report.chain_nested
        # measures of nested shrinking balls strictly drop, so the
        # forced-equality chain cannot hold: that is the whole point
        assert not report.chain_infimum_inequality_holds
        assert list(report.chain_points) == [0, 16, 8, 12, 10, 11]
        assert list(report.chain_measures) == [17, 9, 5, 3]

    def test_demo_preconditions(self):
        with pytest.raises(ValueError, match="subdivisions"):
            build_grid_demo(1)


class TestRecords:
    def test_pair_ball_check(self, line3, eq3, uniform3):
        row = check_ball_infimum(line3, uniform3).pair(2, 1)
        check_record(
            row,
            (
                "x", "y", "measure_ball_y", "pair_infimum",
                "measure_ball_x", "inequality_holds", "symmetry_holds",
            ),
        )
        assert row == PairBallCheck(2, 1, Q(3), Q(2), Q(2), False, False)
        assert row.dirac_maximal == Q(1, 2) and not row.dirac_bound_holds
        held = check_ball_infimum(eq3, uniform3).pair(0, 1)
        assert held == PairBallCheck(0, 1, Q(3), Q(3), Q(3), True, True)
        assert held.dirac_maximal == Q(1, 3) and held.dirac_bound_holds
        again = check_ball_infimum(line3, uniform3).pair(2, 1)
        assert again == row and hash(again) == hash(row)

    def test_hull_certificate(self, eq3, uniform3):
        verdict = coincidence_exact(eq3, uniform3)
        cert = verdict.certificates[0]
        check_record(cert, ("point", "ball", "centered_ball"))
        assert cert == HullCertificate(0, cert.ball, cert.centered_ball)
        # a fresh family builds its own balls, and equal certificates
        again = coincidence_exact(eq3, uniform3).certificates
        assert again == verdict.certificates and hash(again) == hash(verdict.certificates)
        assert again[0].ball is not cert.ball
