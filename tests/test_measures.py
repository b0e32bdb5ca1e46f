import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lecam import measures
from lecam.densities import uniform
from lecam.errors import DomainError, NumericalError, UsageError
from lecam.measures import (
    DiscreteLaw,
    DistanceReport,
    NormalSpec,
    PiecewiseLinearDensity,
    hellinger_sq_discrete,
    hellinger_sq_normal,
    hellinger_sq_product,
    hellinger_sq_quadrature,
    normal_support,
    tv_discrete,
    tv_sandwich,
)

# frozen oracle: 2 (1 - exp(-1/8)), cross-checked against quadrature below
H2_N01_N11 = 0.2350061948308091


def masses(n):
    return st.lists(
        st.floats(min_value=1e-3, max_value=1.0), min_size=n, max_size=n
    ).map(lambda w: [x / sum(w) for x in w])


class TestHellingerNormal:
    def test_identical_is_zero(self):
        a = NormalSpec(0.0, 1.0)
        assert hellinger_sq_normal(a, a) == 0.0

    def test_unit_shift_closed_form(self):
        got = hellinger_sq_normal(NormalSpec(0.0, 1.0), NormalSpec(1.0, 1.0))
        assert got == pytest.approx(H2_N01_N11, abs=1e-15)
        assert got == pytest.approx(2.0 * (1.0 - math.exp(-0.125)), abs=1e-15)

    def test_matches_quadrature_on_random_pairs(self):
        rng = np.random.default_rng(2024)
        for _ in range(20):
            a = NormalSpec(rng.uniform(-3, 3), rng.uniform(0.25, 4.0))
            b = NormalSpec(rng.uniform(-3, 3), rng.uniform(0.25, 4.0))
            closed = hellinger_sq_normal(a, b)
            quad, _ = hellinger_sq_quadrature(a, b, domain=normal_support(a, b))
            assert quad == pytest.approx(closed, abs=1e-6)
            assert 0.0 <= closed <= 2.0

    def test_variance_ratio_inequality(self):
        # H^2 <= 2 |1 - s1/s2| + (m1 - m2)^2 / (2 s2)
        rng = np.random.default_rng(7)
        for _ in range(200):
            a = NormalSpec(rng.uniform(-3, 3), rng.uniform(0.25, 4.0))
            b = NormalSpec(rng.uniform(-3, 3), rng.uniform(0.25, 4.0))
            bound = (
                2.0 * abs(1.0 - a.variance / b.variance)
                + (a.mean - b.mean) ** 2 / (2.0 * b.variance)
            )
            assert hellinger_sq_normal(a, b) <= bound + 1e-12

    def test_symmetry(self):
        a, b = NormalSpec(-1.0, 0.5), NormalSpec(2.0, 3.0)
        assert hellinger_sq_normal(a, b) == pytest.approx(
            hellinger_sq_normal(b, a), abs=1e-15
        )

    @pytest.mark.parametrize(
        "mean, variance",
        [(math.nan, 1.0), (math.inf, 1.0), (0.0, math.inf), (0.0, math.nan)],
    )
    def test_non_finite_parameters_rejected(self, mean, variance):
        with pytest.raises(DomainError, match="finite"):
            NormalSpec(mean, variance)

    def test_negative_variance_rejected(self):
        with pytest.raises(DomainError):
            NormalSpec(0.0, -1.0)
        with pytest.raises(DomainError):
            NormalSpec(0.0, 0.0)


class TestHellingerProduct:
    def test_identical_components(self):
        assert hellinger_sq_product([0.0, 0.0, 0.0]) == 0.0

    def test_singular_single_factor(self):
        assert hellinger_sq_product([2.0]) == 2.0

    def test_single_component_identity(self):
        for h in (0.0, 0.3, 1.7, 2.0):
            assert hellinger_sq_product([h]) == pytest.approx(h, abs=1e-14)

    def test_out_of_range_component(self):
        with pytest.raises(DomainError):
            hellinger_sq_product([2.5])
        with pytest.raises(DomainError):
            hellinger_sq_product([-0.1])

    def test_broken_subadditivity_raises(self, monkeypatch):
        # an explicit raise, not an assert, so it holds under python -O
        monkeypatch.setattr(measures.np, "expm1", lambda x: -1.0)
        with pytest.raises(NumericalError, match="subadditivity"):
            hellinger_sq_product([0.1, 0.2])

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(st.lists(st.floats(min_value=0.0, max_value=2.0), min_size=1, max_size=8))
    def test_subadditivity(self, comps):
        assert hellinger_sq_product(comps) <= sum(comps) + 1e-12

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(masses(2), masses(2), masses(3), masses(3))
    def test_product_rule_matches_joint_enumeration(self, p1, q1, p2, q2):
        # brute force over the product support vs. the product formula
        joint = 0.0
        for a, b in zip(p1, q1):
            for c, d in zip(p2, q2):
                joint += (math.sqrt(a * c) - math.sqrt(b * d)) ** 2
        h1 = hellinger_sq_discrete(
            DiscreteLaw(tuple(zip([0.0, 1.0], p1))),
            DiscreteLaw(tuple(zip([0.0, 1.0], q1))),
        )
        h2 = hellinger_sq_discrete(
            DiscreteLaw(tuple(zip([0.0, 1.0, 2.0], p2))),
            DiscreteLaw(tuple(zip([0.0, 1.0, 2.0], q2))),
        )
        assert hellinger_sq_product([h1, h2]) == pytest.approx(joint, abs=1e-12)


class TestQuadratureDistance:
    def test_same_density_zero(self):
        f = lambda x: np.ones_like(x)
        val, err = hellinger_sq_quadrature(f, f)
        assert val <= 1e-12

    def test_negative_density_rejected(self):
        f = lambda x: np.ones_like(x)
        g = lambda x: -np.ones_like(x)
        with pytest.raises(DomainError):
            hellinger_sq_quadrature(f, g)


class TestTvSandwich:
    def test_endpoints(self):
        assert tv_sandwich(0.0) == (0.0, 0.0)
        lo, hi = tv_sandwich(2.0)
        assert lo == 1.0 and hi == pytest.approx(math.sqrt(2.0), abs=1e-15)

    def test_out_of_range(self):
        with pytest.raises(DomainError):
            tv_sandwich(-0.5)
        with pytest.raises(DomainError):
            tv_sandwich(2.5)

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(masses(4), masses(4))
    def test_sandwich_contains_exact_tv(self, p, q):
        pts = [0.0, 0.25, 0.5, 0.75]
        a = DiscreteLaw(tuple(zip(pts, p)))
        b = DiscreteLaw(tuple(zip(pts, q)))
        tv = tv_discrete(a, b)
        lo, hi = tv_sandwich(hellinger_sq_discrete(a, b))
        assert lo - 1e-12 <= tv <= hi + 1e-12


class TestTvDiscrete:
    def test_same_law(self):
        law = DiscreteLaw(((0.0, 0.5), (1.0, 0.5)))
        assert tv_discrete(law, law) == 0.0

    def test_disjoint_point_masses(self):
        a = DiscreteLaw(((0.0, 1.0),))
        b = DiscreteLaw(((1.0, 1.0),))
        assert tv_discrete(a, b) == 1.0

    def test_half_l1(self):
        a = DiscreteLaw(((0.0, 0.5), (1.0, 0.5)))
        b = DiscreteLaw(((0.0, 0.25), (1.0, 0.75)))
        assert tv_discrete(a, b) == pytest.approx(0.25, abs=1e-15)

    def test_symmetry(self):
        a = DiscreteLaw(((0.0, 0.3), (1.0, 0.7)))
        b = DiscreteLaw(((0.0, 0.9), (2.0, 0.1)))
        assert tv_discrete(a, b) == tv_discrete(b, a)
        assert hellinger_sq_discrete(a, b) == hellinger_sq_discrete(b, a)


class TestLawValidation:
    def test_discrete_law_bad_sum(self):
        with pytest.raises(DomainError):
            DiscreteLaw(((0.0, 0.5), (1.0, 0.6)))

    def test_discrete_law_negative_mass(self):
        with pytest.raises(DomainError):
            DiscreteLaw(((0.0, -0.1), (1.0, 1.1)))

    def test_discrete_law_duplicate_points(self):
        with pytest.raises(DomainError):
            DiscreteLaw(((0.0, 0.5), (0.0, 0.5)))

    def test_distance_report_invariants(self):
        DistanceReport(metric="tv", value=0.4, method="closed_form")
        with pytest.raises(DomainError):
            DistanceReport(metric="tv", value=1.2, method="closed_form")
        with pytest.raises(DomainError):
            DistanceReport(metric="hellinger", value=1.5, method="quadrature")
        with pytest.raises(DomainError):
            DistanceReport(metric="made-up", value=0.0, method="closed_form")

    @pytest.mark.parametrize(
        "value, abs_error", [(math.nan, 0.0), (math.inf, 0.0), (0.1, math.nan), (0.1, math.inf)]
    )
    def test_distance_report_is_finite(self, value, abs_error):
        with pytest.raises(DomainError, match="finite"):
            DistanceReport(metric="tv", value=value, method="quadrature", abs_error=abs_error)

    @pytest.mark.parametrize("name", ["gamma", "K", "eps", "M"])
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_density_model_params_are_finite(self, name, value):
        with pytest.raises(DomainError, match="finite"):
            dataclasses.replace(uniform(), **{name: value})


class TestPiecewiseLinearDensity:
    KNOTS = np.array([0.0, 0.5, 1.0])

    def test_pdf_and_cdf_of_one_law(self):
        # 1.5 - x: masses 5/8 and 3/8 on the two halves
        law = PiecewiseLinearDensity(knots=self.KNOTS, values=[1.5, 1.0, 0.5])
        assert law.pdf([0.25, 0.75]) == pytest.approx([1.25, 0.75], abs=1e-15)
        assert law.cdf([0.25, 0.5, 0.75]) == pytest.approx(
            [0.34375, 0.625, 0.84375], abs=1e-15
        )

    def test_leading_axes_index_laws(self):
        rows = np.array([[1.5, 1.0, 0.5], [0.0, 1.0, 2.0]])
        laws = PiecewiseLinearDensity(knots=self.KNOTS, values=rows[None])
        x = np.linspace(-0.5, 1.5, 41)
        assert laws.pdf(x).shape == laws.cdf(x).shape == (1, 2, 41)
        for r, row in enumerate(rows):
            law = PiecewiseLinearDensity(knots=self.KNOTS, values=row)
            assert np.array_equal(laws.pdf(x)[0, r], law.pdf(x))
            assert np.array_equal(laws.cdf(x)[0, r], law.cdf(x))
        assert laws.cdf(x).flags.c_contiguous

    def test_cdf_ends_are_exact(self):
        law = PiecewiseLinearDensity(knots=[0.0, 1.0 / 3.0, 1.0], values=[0.9, 1.2, 0.75])
        assert np.all(law.cdf([-1.0, 0.0]) == 0.0)
        assert np.all(law.cdf([1.0, 2.0]) == 1.0)

    def test_rejects_non_laws(self):
        with pytest.raises(DomainError):
            PiecewiseLinearDensity(knots=self.KNOTS, values=[1.0, 1.0, 2.0])
        with pytest.raises(DomainError):
            PiecewiseLinearDensity(knots=[0.0, 0.5, 1.0], values=[-0.5, 2.0, 0.5])
        with pytest.raises(DomainError):
            PiecewiseLinearDensity(knots=self.KNOTS, values=[1.0, np.nan, 1.0])
        with pytest.raises(UsageError):
            PiecewiseLinearDensity(knots=self.KNOTS, values=[1.0, 1.0])
        with pytest.raises(UsageError):
            PiecewiseLinearDensity(knots=[0.0, 1.0, 1.0], values=[1.0, 1.0, 1.0])
