#!/usr/bin/env python3
"""Run the theorem-level checks over freshly generated corpora and print a summary.

Covers: exact field equality on merge-tree (ultrametric) spaces, witness
construction on non-ultrametric spaces, the point-mass product identity, the
implication from an `equal` coincidence verdict to the pairwise ball-infimum
bounds, and the certificates of `equal` verdicts on non-ultrametric spaces
under sparse measures, where some containing ball is certified by another
ball centered at the point; under those measures the randomized search
(its point-mass search) must give the exact verdict, with a verified
witness when `distinct`. Every generated space is also written as JSON and
as CSV and loaded back. Each non-ultrametric space, with one pair shortened so
that a triangle breaks, has its `metric_violations` compared with a
brute-force triple scan. On hop metrics of sparse graphs, where centered and
off-center points mix, the field at a seeded sample of support points and a
seeded sample of the pair-audit rows are compared with the brute-force
oracle of `tests/oracle.py`. A fresh family of each merge-tree space, built
from the O(n²) row test's tree, must equal the scan of every row field for
field; under a measure with about 30 % zero weights, the randomized search,
the exact decision and the pair audit then run without building its
`containing` table: every point of an ultrametric space is centered. On the
matrices of cold merge-tree spaces and of copies with one pair nudged down
or up, `is_ultrametric`, `ultrametric_violation` and `metric_violations`,
which skip their cubic scans where the O(n²) row test accepts, are compared
with brute force. Everything is seeded; rerunning reproduces the numbers.
"""

import argparse
import random
import sys
import tempfile
import time
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "tests"))

import oracle

from maxlab import (
    FiniteMetricSpace,
    check_ball_infimum,
    coincidence_exact,
    coincidence_randomized,
    construct_witness,
    dirac,
    enumerate_balls,
    gen_function,
    gen_graph_metric,
    gen_measure,
    gen_taxicab,
    gen_ultrametric,
    inf_ball_measure_pair,
    is_ultrametric,
    maximal_field,
    metric_violations,
    noncentered_maximal_measure,
    ultrametric_violation,
    verify_hull_certificates,
    verify_witness,
)
from maxlab import io as mio
from maxlab.metric import _ball_family


def check_loaded(space) -> None:
    """load_space of the space's JSON and CSV files gives back its labels, dist and int_dist."""
    with tempfile.TemporaryDirectory(prefix="corpus-") as tmp:
        json_path, csv_path = Path(tmp) / "space.json", Path(tmp) / "space.csv"
        mio.write_json(mio.space_to_json(space), json_path)
        csv_path.write_text("".join(",".join(map(mio.scalar_str, row)) + "\n" for row in space.dist))
        # a CSV matrix carries no labels
        for path, labels in ((json_path, space.labels), (csv_path, tuple(f"p{i}" for i in range(space.n)))):
            loaded = mio.load_space(path)
            assert loaded.labels == labels and loaded.dist == space.dist, path.name
            assert loaded.int_dist == space.int_dist, path.name


def triangle_violations(dist) -> list[tuple[int, int, int]]:
    """Every (i, j, k) with i < k, j apart from both and d(i,k) > d(i,j) + d(j,k), in (i, k, j) order."""
    n = len(dist)
    return [
        (i, j, k)
        for i in range(n)
        for k in range(i + 1, n)
        for j in range(n)
        if j not in (i, k) and dist[i][k] > dist[i][j] + dist[j][k]
    ]


def check_shortened(space, triple) -> int:
    """Shorten d(x, z) of an ultrametric violation (x, y, z) to half of d(z,y) - d(x,y).

    Then d(z,y) > d(z,x) + d(x,y), so at least one triangle breaks. The
    matrix stays symmetric with a zero diagonal and positive entries, so
    `metric_violations` must list exactly the brute-force triangle scan.
    Returns the number of violations.
    """
    x, y, z = triple
    dist = [list(row) for row in space.dist]
    dist[x][z] = dist[z][x] = (dist[z][y] - dist[x][y]) / 2
    dist = tuple(map(tuple, dist))
    expected = triangle_violations(dist)
    got = metric_violations(dist)
    assert expected, triple
    assert [(v.axiom, v.indices) for v in got] == [("triangle", t) for t in expected], triple
    return len(expected)


def check_row_test(dist) -> tuple[bool, bool]:
    """`is_ultrametric`, `ultrametric_violation` and `metric_violations` of a matrix against brute force.

    The space is built afresh, so its integer matrix is computed on first
    read. Returns whether the matrix is an ultrametric and whether a metric.
    """
    space = FiniteMetricSpace(labels=tuple(map(str, range(len(dist)))), dist=dist)
    ultrametric = oracle.is_ultrametric(dist)
    violations = oracle.metric_violations(dist)
    assert is_ultrametric(space) == ultrametric
    assert ultrametric_violation(space) == oracle.ultrametric_violation(dist)
    assert [(v.axiom, v.indices, v.detail) for v in metric_violations(dist)] == violations
    return ultrametric, not violations


def check_hops(space, seed: int) -> bool:
    """The field and the pair audit of a hop metric against the oracle, at seeded samples.

    Checks `maximal_field` at three support points and three rows of
    `check_ball_infimum`. Returns whether the space has an off-center point
    while Σ|B| <= n², the case whose field takes the suffix winners.
    """
    rng = random.Random(seed)
    family = enumerate_balls(space)
    mu = gen_measure(space, seed=seed, zero_fraction=0.3)
    f = gen_function(space, seed=seed + 1)
    report = maximal_field(f, mu, space, family=family)
    for x in rng.sample(mu.support, min(3, len(mu.support))):
        entry = report.at(x)
        for got, centered in ((entry.centered, True), (entry.noncentered, False)):
            assert (got.value, got.ball.members) == oracle.argmax_ball(space, mu, f, x, centered), x
    rows = check_ball_infimum(space, mu, family=family).pairs
    for row in rng.sample(rows, min(3, len(rows))):
        x, y, d = row.x, row.y, space.dist[row.x][row.y]
        assert row.measure_ball_y == oracle.mass(mu, oracle.ball_members(space, y, d)), (x, y)
        assert row.measure_ball_x == oracle.mass(mu, oracle.ball_members(space, x, d)), (x, y)
        assert row.pair_infimum == oracle.inf_pair_measure(space, mu, x, y), (x, y)
        assert row.dirac_maximal == oracle.dirac_maximal(space, mu, x, y), (x, y)
    return sum(map(len, family.centered_at)) < family.member_total <= space.n**2


def check_dendrogram(space, seed: int) -> int:
    """A cold family of an ultrametric space answers without its `containing` table.

    The family, built from the O(n²) row test's tree, equals the scan of
    every row field for field. Under a measure with about 30 % zero weights, the randomized search
    answers `equal` and echoes its 20 trials, the exact verdict's certificates
    verify, and two seeded audit rows match the oracle. Returns the number
    of certificates.
    """
    rng = random.Random(seed)
    family = enumerate_balls(space)
    assert family == _ball_family(space, tree=False)
    mu = gen_measure(space, seed=seed, zero_fraction=0.3)
    randomized = coincidence_randomized(space, mu, trials=20, seed=seed, family=family)
    exact = coincidence_exact(space, mu, family=family)
    rows = check_ball_infimum(space, mu, family=family).pairs
    assert "containing" not in family.__dict__
    assert (randomized.verdict, randomized.trials) == ("equal", 20)
    assert exact.verdict == "equal" and verify_hull_certificates(space, mu, exact)
    for row in rng.sample(rows, min(2, len(rows))):
        x, y, d = row.x, row.y, space.dist[row.x][row.y]
        assert row.measure_ball_y == oracle.mass(mu, oracle.ball_members(space, y, d)), (x, y)
        assert row.measure_ball_x == oracle.mass(mu, oracle.ball_members(space, x, d)), (x, y)
        assert row.pair_infimum == oracle.inf_pair_measure(space, mu, x, y), (x, y)
    return len(exact.certificates)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--count", type=int, default=100, help="spaces per family")
    parser.add_argument("--max-n", type=int, default=12)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()
    base = args.seed

    t0 = time.perf_counter()
    equalities = 0
    for k in range(args.count):
        space = gen_ultrametric((k % args.max_n) + 1, seed=base + k)
        check_loaded(space)
        family = enumerate_balls(space)
        mu = gen_measure(space, seed=base + 7 * k, zero_fraction=0.2)
        f = gen_function(space, seed=base + 13 * k)
        for entry in maximal_field(f, mu, space, family=family).points:
            assert entry.centered.value == entry.noncentered.value
            equalities += 1
        verdict = coincidence_exact(space, mu, family=family)
        assert verdict.verdict == "equal"
        assert verify_hull_certificates(space, mu, verdict)
        report = check_ball_infimum(space, mu, family=family)
        assert report.all_inequalities_hold and report.all_symmetric
    print(
        f"[ultrametric] {args.count} spaces: {equalities} pointwise equalities, "
        f"all verdicts equal with verified certificates ({time.perf_counter() - t0:.2f}s)"
    )

    t0 = time.perf_counter()
    certificates = 0
    for k in range(args.count):
        space = gen_ultrametric((k % args.max_n) + 1, seed=base + k)
        certificates += check_dendrogram(space, base + 17 * k)
    print(
        f"[dendrograms] {args.count} cold families equal to the row scan's: searches equal, "
        f"{certificates} certificates verified, sampled audit rows match the oracle, "
        f"no containing table built ({time.perf_counter() - t0:.2f}s)"
    )

    t0 = time.perf_counter()
    matrices = ultrametrics = metrics = 0
    for k in range(args.count):
        dist = gen_ultrametric((k % args.max_n) + 1, seed=base + 800 + k).dist
        copies = [dist]
        if len(dist) > 1:
            # one pair down to a quarter and up to three times its distance
            i, j = random.Random(base + 900 + k).sample(range(len(dist)), 2)
            for factor in (Fraction(1, 4), Fraction(3)):
                nudged = [list(row) for row in dist]
                nudged[i][j] = nudged[j][i] = factor * dist[i][j]
                copies.append(tuple(map(tuple, nudged)))
        for copy in copies:
            ultrametric, metric = check_row_test(copy)
            matrices += 1
            ultrametrics += ultrametric
            metrics += metric
    print(
        f"[row test] {args.count} cold dendrograms and {matrices - args.count} nudged copies, "
        f"{ultrametrics} ultrametric and {metrics} metrics: is_ultrametric, ultrametric_violation "
        f"and metric_violations equal brute force ({time.perf_counter() - t0:.2f}s)"
    )

    t0 = time.perf_counter()
    witnesses = 0
    broken_triangles = 0
    identity_pairs = 0
    equal_verdicts = 0
    searches = 0  # randomized searches under sparse measures, each matching the exact verdict
    nontrivial = 0  # equal verdicts with a certificate (x, B, C), C != B
    k = 0
    drawn = 0
    while witnesses < args.count:
        n = 3 + (k % (args.max_n - 2))
        space = (
            gen_taxicab(n, dim=1 + k % 3, seed=base + 100 + k)
            if k % 2 == 0
            else gen_graph_metric(n, seed=base + 100 + k)
        )
        k += 1
        drawn += 1
        check_loaded(space)
        triple = ultrametric_violation(space)
        if triple is None:
            continue
        broken_triangles += check_shortened(space, triple)
        family = enumerate_balls(space)
        witness = construct_witness(space, triple)
        assert verify_witness(space, witness)
        witnesses += 1
        # in an ultrametric space every ball is centered at each of its points,
        # so only here can a certificate name two different balls
        for zero_fraction in (0.5, 0.8):
            sparse = gen_measure(space, seed=base + 300 + k, zero_fraction=zero_fraction)
            verdict = coincidence_exact(space, sparse, family=family)
            randomized = coincidence_randomized(space, sparse, 20, seed=base + k, family=family)
            assert randomized.verdict == verdict.verdict
            if randomized.verdict == "distinct":
                assert verify_witness(space, randomized.witness)
            searches += 1
            if verdict.verdict == "equal":
                assert verify_hull_certificates(space, sparse, verdict)
                equal_verdicts += 1
                nontrivial += any(c.ball != c.centered_ball for c in verdict.certificates)
        mu = gen_measure(space, seed=base + 200 + k, zero_fraction=0.0)
        for x in mu.support:
            delta = dirac(space, x)
            for y in mu.support:
                value = noncentered_maximal_measure(delta, mu, family, y).value
                inf_value, _ = inf_ball_measure_pair(mu, family, x, y)
                assert value * inf_value == 1
                identity_pairs += 1
    print(
        f"[non-ultrametric] {witnesses} witnesses verified (from {drawn} draws), "
        f"{identity_pairs} point-mass identity pairs exact, {equal_verdicts} equal verdicts "
        f"under sparse measures verified, {nontrivial} with non-trivial certificates, "
        f"{searches} randomized searches matching the exact verdict "
        f"({time.perf_counter() - t0:.2f}s)"
    )
    assert nontrivial, "no certificate named a ball other than the one it certifies"
    print(f"[files] {args.count + drawn} spaces loaded back from JSON and CSV unchanged")
    print(
        f"[validation] {witnesses} shortened spaces: {broken_triangles} triangle violations, "
        "each list equal to the brute-force triple scan"
    )

    t0 = time.perf_counter()
    small = 0  # spaces with an off-center point and Σ|B| <= n²
    for k in range(args.count):
        n = 3 + (k % (args.max_n - 2))
        p = (0.03, 0.05, 0.1)[k % 3]
        space = gen_graph_metric(n, p, weight_range=(1, 1), seed=base + 500 + k)
        small += check_hops(space, base + 600 + k)
    print(
        f"[hop metrics] {args.count} spaces, {small} with off-center points and sum |B| <= n^2: "
        f"sampled field points and audit rows match the oracle ({time.perf_counter() - t0:.2f}s)"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
