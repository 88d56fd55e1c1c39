"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Every numeric assertion is exact rational equality; the only tolerances are
the stated runtime budgets. Run with `pytest tests/test_acceptance.py -v -s`
to see the per-criterion lines.
"""

import time
from fractions import Fraction

from corpus import non_ultrametric_corpus, small_catalog, ultrametric_corpus, weight_grid
from maxlab import (
    DiscreteMeasure,
    build_grid_demo,
    check_ball_infimum,
    check_lower_semicontinuity,
    coincidence_exact,
    coincidence_randomized,
    construct_witness,
    dirac,
    enumerate_balls,
    gen_function,
    gen_measure,
    inf_ball_measure_pair,
    line_space,
    maximal_field,
    noncentered_maximal_measure,
    verify_hull_certificates,
    verify_witness,
)

Q = Fraction


def _report(num: int, elapsed: float, budget: float, detail: str) -> None:
    print(f"ACCEPTANCE {num}: PASS ({elapsed:.3f}s < {budget:g}s) - {detail}")


def test_criterion_1_proof_values_exact():
    """Contradiction pair 2 vs 3 on LINE3 with the three-point unit measure."""
    budget = 0.001
    line3 = line_space([0, 1, 2])
    nu = DiscreteMeasure((1, 1, 1))
    check_ball_infimum(line3, nu)  # warmup
    elapsed = min(
        _timed(check_ball_infimum, line3, nu)[1] for _ in range(5)
    )
    report = check_ball_infimum(line3, nu)
    row = report.pair(1, 2)
    assert row.measure_ball_y == 2
    assert row.measure_ball_x == 3
    assert not row.symmetry_holds
    assert elapsed < budget
    _report(1, elapsed, budget, "measure_ball_y = 2, measure_ball_x = 3, exact")


def _timed(fn, *args, **kwargs):
    t0 = time.perf_counter()
    out = fn(*args, **kwargs)
    return out, time.perf_counter() - t0


def test_criterion_2_witness_values():
    """Restricted witnesses are exactly (1/2, 1/3); full-space witnesses keep the gap."""
    budget = 10.0
    t0 = time.perf_counter()
    corpus = non_ultrametric_corpus(count=200, max_n=12)
    assert len(corpus) == 200
    for space, triple in corpus:
        order = sorted(triple)
        sub = space.restrict(order)
        sub_triple = tuple(order.index(p) for p in triple)
        restricted = construct_witness(sub, sub_triple)
        assert restricted.noncentered_value == Q(1, 2)
        assert restricted.centered_value == Q(1, 3)
        assert verify_witness(sub, restricted)
        full = construct_witness(space, triple)
        assert full.noncentered_value > full.centered_value
        assert verify_witness(space, full)
    elapsed = time.perf_counter() - t0
    assert elapsed < budget
    _report(2, elapsed, budget, "200 spaces: restricted = (1/2, 1/3); full-space gap > 0")


def test_criterion_3_ultrametric_fields_coincide():
    """200 merge-tree spaces x 5 measures x 5 functions: exact pointwise equality."""
    budget = 60.0
    t0 = time.perf_counter()
    corpus = ultrametric_corpus(count=200, max_n=12)
    assert len(corpus) == 200
    checked = 0
    for k, space in enumerate(corpus):
        family = enumerate_balls(space)
        for m in range(5):
            mu = gen_measure(space, seed=1_000 + 31 * k + m, zero_fraction=0.25 if m % 2 else 0.0)
            for j in range(5):
                f = gen_function(space, seed=2_000 + 17 * k + 5 * m + j)
                report = maximal_field(f, mu, space, family=family)
                for entry in report.points:
                    assert entry.centered.value == entry.noncentered.value
                    checked += 1
    elapsed = time.perf_counter() - t0
    assert elapsed < budget
    _report(3, elapsed, budget, f"{checked} pointwise equalities, zero failures")


def test_criterion_4_dirac_identity_over_corpus():
    """Point-mass maximal times pair infimum equals 1 on every support pair."""
    budget = 60.0
    t0 = time.perf_counter()
    spaces = list(ultrametric_corpus(count=200, max_n=12))
    spaces += [space for space, _ in non_ultrametric_corpus(count=200, max_n=12)]
    pairs = 0
    for k, space in enumerate(spaces):
        family = enumerate_balls(space)
        mu = gen_measure(space, seed=3_000 + k, zero_fraction=0.2 if k % 3 == 0 else 0.0)
        support = mu.support
        for x in support:
            delta = dirac(space, x)
            for y in support:
                value = noncentered_maximal_measure(delta, mu, family, y).value
                inf_value, _ = inf_ball_measure_pair(mu, family, x, y)
                assert value * inf_value == 1
                pairs += 1
    elapsed = time.perf_counter() - t0
    assert elapsed < budget
    _report(4, elapsed, budget, f"{pairs} support pairs over 400 spaces, all exact")


def test_criterion_5_decision_soundness_small_spaces():
    """Exact and randomized verdicts agree; all certificates and witnesses re-verify."""
    budget = 300.0
    t0 = time.perf_counter()
    combos = 0
    equal_count = 0
    for space in small_catalog():
        assert space.n <= 4
        family = enumerate_balls(space)
        for mu in weight_grid(space.n, levels=(0, 1, 2)):
            exact = coincidence_exact(space, mu, family=family)
            randomized = coincidence_randomized(space, mu, trials=1000, seed=500 + combos, family=family)
            assert randomized.verdict == exact.verdict
            if randomized.verdict == "distinct":
                assert verify_witness(space, randomized.witness)
            if exact.verdict == "equal":
                equal_count += 1
                assert verify_hull_certificates(space, mu, exact)
            else:
                assert verify_witness(space, exact.witness)
            combos += 1
    elapsed = time.perf_counter() - t0
    assert elapsed < budget
    _report(
        5,
        elapsed,
        budget,
        f"{combos} (space, weights) combos, {equal_count} equal, no contradictions",
    )


def test_criterion_6_equal_verdicts_satisfy_ball_infimum():
    """Wherever the exact decision is `equal`, the pairwise bounds hold, exactly."""
    budget = 120.0  # no stated budget; generous guard so the suite stays honest
    t0 = time.perf_counter()
    instances = []
    for k, space in enumerate(ultrametric_corpus(count=200, max_n=12)):
        instances.append((space, gen_measure(space, seed=4_000 + k, zero_fraction=0.0)))
        instances.append((space, gen_measure(space, seed=5_000 + k, zero_fraction=0.3)))
    for k, (space, _) in enumerate(non_ultrametric_corpus(count=200, max_n=12)):
        instances.append((space, gen_measure(space, seed=6_000 + k, zero_fraction=0.2)))
    equal_instances = 0
    for space, mu in instances:
        family = enumerate_balls(space)
        verdict = coincidence_exact(space, mu, family=family)
        if verdict.verdict != "equal":
            continue
        equal_instances += 1
        report = check_ball_infimum(space, mu, family=family)
        assert report.all_inequalities_hold
        assert report.all_symmetric
        assert report.all_dirac_bounds_hold
    elapsed = time.perf_counter() - t0
    assert equal_instances >= 400  # every ultrametric instance lands here
    assert elapsed < budget
    _report(6, elapsed, budget, f"{equal_instances} equal instances, zero bound failures")


def test_criterion_7_grid_demo_values():
    """Grid gaps: exact proof-scale values at n = 10 and n = 100, closed form throughout."""
    budget = 30.0
    demo10 = build_grid_demo(10)
    assert demo10.centered.value == Q(11, 21)
    assert demo10.noncentered.value == Q(11, 12)
    assert demo10.gap == Q(11, 28)
    demo100, elapsed100 = _timed(build_grid_demo, 100)
    assert demo100.centered.value == Q(101, 201)
    assert demo100.noncentered.value == Q(101, 102)
    for n in (10, 20, 50, 100):
        demo = build_grid_demo(n)
        assert demo.gap == Q(n + 1, n + 2) - Q(n + 1, 2 * n + 1)
        assert demo.matches_closed_form
    assert elapsed100 < budget
    _report(
        7,
        elapsed100,
        budget,
        f"n=100 runs standalone in {elapsed100:.2f}s; gaps match the closed form",
    )


def test_criterion_8_semicontinuity_rates():
    """|M nu_k(x) - M nu(x)| <= C/k with C from the instance; lower bound at every k."""
    budget = 1.0
    line3 = line_space([0, 1, 2])
    uniform = DiscreteMeasure((1, 1, 1))
    steps = 50

    def sequences():
        yield (
            [DiscreteMeasure((1 - Q(1, k), 0, Q(1, k))) for k in range(1, steps + 1)],
            dirac(line3, 0),
            0,
        )
        yield ([uniform] * steps, uniform, 1)
        yield (
            [DiscreteMeasure((Q(1, k), 0, 1)) for k in range(1, steps + 1)],
            dirac(line3, 2),
            2,
        )

    t0 = time.perf_counter()
    for seq, limit, x in sequences():
        report = check_lower_semicontinuity(uniform, line3, seq, limit, x, Q(1, steps))
        assert report.tail_inequality_holds
        assert report.per_step_bounds_hold
        c = report.stability_constant
        for k, (value, eps) in enumerate(
            zip(report.noncentered_values, report.deviations), start=1
        ):
            assert eps <= Q(1, k)  # deviations shrink like 1/k
            assert abs(value - report.noncentered_limit) <= c * eps  # so |diff| <= C/k
            assert value >= report.noncentered_limit - c * eps
        for k, (value, eps) in enumerate(
            zip(report.centered_values, report.deviations), start=1
        ):
            assert abs(value - report.centered_limit) <= c * eps
    elapsed = time.perf_counter() - t0
    assert elapsed < budget
    _report(8, elapsed, budget, "three sequences, 50 steps each, exact rate bounds")
