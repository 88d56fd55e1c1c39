from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from maxlab import (
    Dendrogram,
    gen_function,
    gen_graph_metric,
    gen_measure,
    gen_taxicab,
    gen_ultrametric,
    is_ultrametric,
    metric_violations,
    shortest_path_metric,
    validate_space,
)


class TestDendrogram:
    def test_two_leaves(self):
        tree = Dendrogram(n_leaves=2, merges=((0, 1, Fraction(3, 2)),))
        assert tree.distance_matrix() == (
            (0, Fraction(3, 2)),
            (Fraction(3, 2), 0),
        )

    def test_lca_heights(self):
        # (a,b) merge at 1, ((a,b),c) at 2
        tree = Dendrogram(n_leaves=3, merges=((0, 1, Fraction(1)), (3, 2, Fraction(2))))
        d = tree.distance_matrix()
        assert d[0][1] == 1 and d[0][2] == 2 and d[1][2] == 2

    def test_heights_must_increase(self):
        with pytest.raises(ValueError, match="increasing"):
            Dendrogram(n_leaves=3, merges=((0, 1, Fraction(2)), (3, 2, Fraction(1))))


class TestUltrametricGenerator:
    def test_single_point(self):
        assert gen_ultrametric(1, seed=5).n == 1

    def test_two_points_symmetric(self):
        space = gen_ultrametric(2, seed=7)
        assert space.dist[0][1] == space.dist[1][0] > 0

    def test_always_ultrametric_bulk(self):
        # large seeded sweep backing the by-construction guarantee
        for k in range(10_000):
            space = gen_ultrametric((k % 12) + 1, seed=k)
            assert is_ultrametric(space)

    @given(st.integers(1, 12), st.integers(0, 10**9))
    @settings(max_examples=80, deadline=None)
    def test_valid_metric(self, n, seed):
        space = gen_ultrametric(n, seed=seed)
        assert metric_violations(space.dist) == []


class TestTaxicab:
    def test_line3_shape(self):
        got = validate_space([[0, 1, 2], [1, 0, 1], [2, 1, 0]])
        assert not is_ultrametric(got)

    def test_two_points_ultrametric(self):
        assert is_ultrametric(gen_taxicab(2, dim=2, seed=0))

    def test_duplicates_rejected(self):
        # a 2-unit coordinate range on the quarter grid has 9 slots in dim 1
        space = gen_taxicab(9, dim=1, coord_range=(0, 2), seed=3)
        assert space.n == 9
        with pytest.raises(ValueError, match="holds only 9 distinct"):
            gen_taxicab(10, dim=1, coord_range=(0, 2), seed=3)

    @given(st.integers(1, 10), st.integers(1, 3), st.integers(0, 10**9))
    @settings(max_examples=60, deadline=None)
    def test_valid_metric(self, n, dim, seed):
        space = gen_taxicab(n, dim=dim, seed=seed)
        assert metric_violations(space.dist) == []


class TestGraphMetric:
    def test_path_graph_gives_line(self):
        dist = shortest_path_metric(3, [(0, 1, 1), (1, 2, 1)])
        assert dist == ((0, 1, 2), (1, 0, 1), (2, 1, 0))

    def test_complete_graph_gives_equilateral(self):
        dist = shortest_path_metric(3, [(0, 1, 1), (1, 2, 1), (0, 2, 1)])
        assert dist == ((0, 1, 1), (1, 0, 1), (1, 1, 0))

    def test_star_not_ultrametric(self):
        dist = shortest_path_metric(4, [(0, 1, 1), (0, 2, 1), (0, 3, 1)])
        space = validate_space(dist)
        assert space.dist[1][2] == 2
        assert not is_ultrametric(space)

    def test_disconnected_rejected(self):
        with pytest.raises(ValueError, match="connected"):
            shortest_path_metric(3, [(0, 1, 1)])

    @given(st.integers(1, 10), st.integers(0, 10**9))
    @settings(max_examples=60, deadline=None)
    def test_valid_metric(self, n, seed):
        space = gen_graph_metric(n, edge_probability=0.3, seed=seed)
        assert metric_violations(space.dist) == []


class TestMeasureFunction:
    def test_full_support(self):
        space = gen_ultrametric(6, seed=1)
        mu = gen_measure(space, seed=2, zero_fraction=0.0)
        assert mu.support == tuple(range(6))

    def test_single_point_forced_support(self):
        space = gen_ultrametric(1, seed=1)
        for seed in range(50):
            mu = gen_measure(space, seed=seed, zero_fraction=0.9)
            assert mu.support == (0,)

    def test_zero_fraction_produces_zeros(self):
        space = gen_ultrametric(12, seed=3)
        mu = gen_measure(space, seed=4, zero_fraction=0.5)
        assert any(w == 0 for w in mu.weights)
        assert mu.support

    def test_function_range(self):
        space = gen_ultrametric(10, seed=5)
        f = gen_function(space, seed=6, value_range=(-3, 3))
        assert all(-3 <= v <= 3 and v.denominator == 1 for v in f.values)


class TestDeterminism:
    @given(st.integers(1, 10), st.integers(0, 10**9))
    @settings(max_examples=30, deadline=None)
    def test_same_seed_same_output(self, n, seed):
        assert gen_ultrametric(n, seed=seed) == gen_ultrametric(n, seed=seed)
        assert gen_taxicab(n, seed=seed) == gen_taxicab(n, seed=seed)
        assert gen_graph_metric(n, seed=seed) == gen_graph_metric(n, seed=seed)
        space = gen_ultrametric(n, seed=seed)
        assert gen_measure(space, seed=seed, zero_fraction=0.3) == gen_measure(
            space, seed=seed, zero_fraction=0.3
        )
        assert gen_function(space, seed=seed) == gen_function(space, seed=seed)

    def test_pinned_values(self):
        # frozen draws guard cross-platform reproducibility of the seeded stream
        space = gen_ultrametric(4, seed=42)
        assert space.dist[0][1] == Fraction(101, 65)
        mu = gen_measure(space, seed=42)
        assert mu.weights[0] == Fraction(1, 3)
