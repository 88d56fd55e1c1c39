from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from maxlab import (
    Ball,
    CoincidenceVerdict,
    DiscreteMeasure,
    SampleFunction,
    ball_average,
    check_ball_infimum,
    closed_ball,
    coincidence_exact,
    coincidence_randomized,
    dirac,
    enumerate_balls,
    gen_function,
    gen_measure,
    gen_ultrametric,
    inf_ball_measure_pair,
    integrate,
    maximal_field,
    measure_of,
    normalized_indicator,
    verify_hull_certificates,
)

rationals = st.fractions(min_value=-9, max_value=9, max_denominator=8)


def _ball(members):
    mask = sum(1 << p for p in members)
    return Ball(center=members[0], radius=Fraction(0), mask=mask)


class TestConstruction:
    def test_negative_weight_rejected(self):
        with pytest.raises(ValueError, match="negative"):
            DiscreteMeasure((1, -1, 1))

    def test_bools_rejected(self):
        # True is an int to Python, but no exact scalar
        with pytest.raises(TypeError, match="bool"):
            DiscreteMeasure((True,))
        with pytest.raises(TypeError, match="bool"):
            SampleFunction((0, False))
        with pytest.raises(TypeError, match="bool"):
            DiscreteMeasure((1, 1)).scaled(True)

    def test_empty_support_rejected(self, line3, ind2):
        # the zero measure is a valid numerator nu, but no measure that divides,
        # whether or not its support has been read before
        family = enumerate_balls(line3)
        empty = CoincidenceVerdict("equal", "exact", certificates=())
        for call in (
            lambda zero: maximal_field(ind2, zero, line3),
            lambda zero: inf_ball_measure_pair(zero, family, 0, 1),
            lambda zero: coincidence_exact(line3, zero),
            lambda zero: coincidence_randomized(line3, zero, trials=0, seed=1),
            lambda zero: verify_hull_certificates(line3, zero, empty),
            lambda zero: check_ball_infimum(line3, zero),
        ):
            for cached in (False, True):
                zero = DiscreteMeasure((0, 0, 0))
                if cached:
                    assert zero.support == () and zero.total == 0
                with pytest.raises(ValueError, match="nonempty support"):
                    call(zero)

    def test_support(self):
        mu = DiscreteMeasure((1, 0, Fraction(1, 2)))
        assert mu.support == (0, 2)
        assert mu.total == Fraction(3, 2)

    def test_support_kept_after_first_read(self):
        mu = DiscreteMeasure((1, 0, 2))
        first = mu.support
        assert first == (0, 2) and mu.support is first

    def test_cached_support_leaves_equality_alone(self):
        read, unread = DiscreteMeasure((1, 0, 2)), DiscreteMeasure((1, 0, 2))
        assert read.support == (0, 2)
        assert "support" in vars(read) and "support" not in vars(unread)
        assert read == unread and hash(read) == hash(unread)
        assert read != DiscreteMeasure((1, 0, 3))

    def test_replaced_measure_has_its_own_support(self):
        mu = DiscreteMeasure((1, 0, 2))
        assert mu.support == (0, 2)
        other = replace(mu, weights=(0, 3, 0))
        assert other.support == (1,) and mu.support == (0, 2)

    def test_float_rejected(self):
        with pytest.raises(TypeError):
            DiscreteMeasure((0.5, 1))
        with pytest.raises(TypeError):
            SampleFunction((0.5,))


class TestIntegration:
    def test_examples(self, line3, uniform3, ind2):
        b12 = closed_ball(line3, 2, 1)
        assert integrate(ind2, uniform3, b12) == 1
        assert measure_of(uniform3, b12) == 2
        assert ball_average(ind2, uniform3, b12) == Fraction(1, 2)

    def test_total_mass(self, line3):
        mu = DiscreteMeasure((2, 1, 1))
        ones = SampleFunction((1, 1, 1))
        assert integrate(ones, mu, closed_ball(line3, 1, 1)) == 4

    def test_zero_measure_ball_average_is_zero(self, line3, ind2):
        mu = DiscreteMeasure((0, 0, 1))
        b01 = _ball((0, 1))
        assert measure_of(mu, b01) == 0
        assert ball_average(ind2, mu, b01) == 0
        assert ball_average(SampleFunction((-5, 7, 3)), mu, b01) == 0

    def test_empty_open_ball(self, line3, uniform3):
        empty = Ball(0, Fraction(0), 0)  # no member, as the open ball B(0, 0) had
        assert empty.members == ()
        assert measure_of(uniform3, empty) == 0

    def test_average_full_ball(self, line3, uniform3, ind2):
        assert ball_average(ind2, uniform3, closed_ball(line3, 1, 1)) == Fraction(1, 3)

    def test_dimension_mismatch(self, line3, uniform3):
        with pytest.raises(ValueError, match="mismatch"):
            integrate(SampleFunction((1, 2)), uniform3, closed_ball(line3, 0, 1))


class TestDiracAndIndicator:
    def test_dirac(self, line3):
        assert dirac(line3, 0).weights == (1, 0, 0)

    def test_singleton_indicator(self, line3, uniform3):
        f = normalized_indicator(line3, {2}, uniform3)
        assert f.values == (0, 0, 1)

    def test_pair_indicator(self, line3, uniform3):
        f = normalized_indicator(line3, {0, 1}, uniform3)
        assert f.values == (Fraction(1, 2), Fraction(1, 2), 0)

    def test_unit_integral(self, line3):
        mu = DiscreteMeasure((2, 3, 5))
        f = normalized_indicator(line3, {0, 2}, mu)
        whole = closed_ball(line3, 1, 1)
        assert integrate(f, mu, whole) == 1

    def test_zero_mass_set_rejected(self, line3):
        mu = DiscreteMeasure((1, 0, 1))
        with pytest.raises(ValueError, match="zero measure"):
            normalized_indicator(line3, {1}, mu)


@st.composite
def space_measure_functions(draw):
    n = draw(st.integers(1, 8))
    space = gen_ultrametric(n, seed=draw(st.integers(0, 10**6)))
    mu = gen_measure(space, seed=draw(st.integers(0, 10**6)), zero_fraction=0.25)
    f = gen_function(space, seed=draw(st.integers(0, 10**6)))
    g = gen_function(space, seed=draw(st.integers(0, 10**6)))
    return space, mu, f, g


class TestProperties:
    @given(space_measure_functions(), rationals, rationals, st.data())
    @settings(max_examples=60, deadline=None)
    def test_linearity(self, smfg, a, b, data):
        space, mu, f, g = smfg
        family = enumerate_balls(space)
        ball = family.balls[data.draw(st.integers(0, len(family) - 1))]
        combo = f.scaled(a).plus(g.scaled(b))
        assert integrate(combo, mu, ball) == a * integrate(f, mu, ball) + b * integrate(
            g, mu, ball
        )

    @given(space_measure_functions(), st.data())
    @settings(max_examples=60, deadline=None)
    def test_monotone_measure(self, smfg, data):
        space, mu, _, _ = smfg
        family = enumerate_balls(space)
        b1 = family.balls[data.draw(st.integers(0, len(family) - 1))]
        b2 = family.balls[data.draw(st.integers(0, len(family) - 1))]
        if set(b1.members) <= set(b2.members):
            assert measure_of(mu, b1) <= measure_of(mu, b2)

    @given(space_measure_functions(), st.integers(1, 7), st.data())
    @settings(max_examples=60, deadline=None)
    def test_scale_invariance_of_average(self, smfg, c, data):
        space, mu, f, _ = smfg
        family = enumerate_balls(space)
        ball = family.balls[data.draw(st.integers(0, len(family) - 1))]
        assert ball_average(f, mu.scaled(c), ball) == ball_average(f, mu, ball)
