from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracle
from corpus import small_catalog, weight_grid
from maxlab import (
    DiscreteMeasure,
    SampleFunction,
    build_grid_demo,
    bump_function,
    check_ball_infimum,
    check_bump_bound,
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
    maximal_field,
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


class TestCoincidenceRandomized:
    def test_line3_found_in_phase1(self, line3, uniform3):
        verdict = coincidence_randomized(line3, uniform3, trials=0, seed=0)
        assert verdict.verdict == "distinct"
        assert verdict.method == "randomized"
        assert verdict.trials == 0  # phase 1 found it before any random trial
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
        assert all(len(c.coefficients) == 1 and c.coefficients[0][1] == 1 for c in verdict.certificates)
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
        # sanity: the hull decision agrees with a direct randomized falsifier
        for space in small_catalog():
            for mu in weight_grid(space.n, levels=(0, 1, 2)):
                exact = coincidence_exact(space, mu)
                randomized = coincidence_randomized(space, mu, trials=40, seed=11)
                if randomized.verdict == "distinct":
                    assert exact.verdict == "distinct"
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
        mu = DiscreteMeasure(tuple(weights))
        family = enumerate_balls(space)
        verdict = coincidence_exact(space, mu, family=family)
        assert (verdict.verdict == "equal") == oracle.coincides(space, weights)
        support = frozenset(mu.support)
        dist = space.dist
        if verdict.verdict == "equal":
            assert verify_hull_certificates(space, mu, verdict, family=family)
            for cert in verdict.certificates:
                x, j = cert.point, cert.ball_index
                ((idx, weight),) = cert.coefficients
                assert weight == 1
                if j in family.centered_at[x]:  # a centered ball certifies itself
                    assert idx == j
                    continue
                # otherwise the smallest ball centered at x with the same trace
                trace = frozenset(family.balls[j].members) & support
                r = min(r for r in dist[x] if oracle.ball_members(space, x, r) & support == trace)
                assert frozenset(family.balls[idx].members) == oracle.ball_members(space, x, r)
        else:
            witness = verdict.witness
            x, f = witness.point, witness.function
            assert witness.centered_value == oracle.centered_value(space, mu, f, x)
            assert witness.noncentered_value == oracle.noncentered_value(space, mu, f, x)
            ex, p, q, c = verdict.explanation
            assert ex == x and {p, q} <= support
            r = max(dist[c][x], dist[c][p])  # the smallest ball around c holding x and p
            assert dist[x][q] <= dist[x][p] and dist[c][q] > r


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


class TestBumpRefinement:
    def test_line3_bound_holds_for_all_deltas(self, line3, uniform3):
        report = check_bump_bound(
            line3, uniform3, 0, 1, [Q(3), Q(2), Q(1), Q(1, 2), Q(1, 8)]
        )
        assert report.bound == Q(1, 3)
        assert report.all_bounds_hold
        assert report.point_mass_threshold == 1
        for check in report.checks:
            if check.delta <= report.point_mass_threshold:
                assert check.is_point_mass

    def test_point_mass_limit_function(self, line3, uniform3):
        f = bump_function(line3, uniform3, 0, 1, Q(1, 2))
        assert f == normalized_indicator(line3, {0}, uniform3)

    def test_zero_delta_rejected(self, line3, uniform3):
        with pytest.raises(ValueError, match="positive"):
            bump_function(line3, uniform3, 0, 1, 0)

    @given(st.integers(2, 9), st.integers(0, 10**5), st.integers(0, 10**5))
    @settings(max_examples=50, deadline=None)
    def test_bound_holds_on_random_spaces(self, n, seed_s, seed_m):
        space = gen_taxicab(n, dim=2, seed=seed_s)
        mu = gen_measure(space, seed=seed_m, zero_fraction=0.0)
        x, y = 0, 1 + seed_m % (n - 1)
        deltas = [Q(4), Q(2), Q(1), Q(1, 2), Q(1, 4), Q(1, 16)]
        report = check_bump_bound(space, mu, x, y, deltas)
        assert report.all_bounds_hold
        assert report.checks[-1].is_point_mass or deltas[-1] > report.point_mass_threshold
