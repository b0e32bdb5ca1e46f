import dataclasses
import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq

from lecam import measures
from lecam.densities import uniform
from lecam.errors import DomainError, NumericalError, UsageError
from lecam.measures import (
    METRICS,
    DiscreteLaw,
    DistanceReport,
    NormalSpec,
    PiecewiseLinearDensity,
    hellinger_sq_discrete,
    hellinger_sq_product,
    hellinger_sq_quadrature,
    normal_distance,
    tv_discrete,
    tv_sandwich,
)
from lecam.quadrature import integrate

# frozen oracle: 2 (1 - exp(-1/8)), cross-checked against quadrature below
H2_N01_N11 = 0.2350061948308091


def masses(n):
    return st.lists(
        st.floats(min_value=1e-3, max_value=1.0), min_size=n, max_size=n
    ).map(lambda w: [x / sum(w) for x in w])


def h2(a, b):
    return normal_distance(a, b, "hellinger-sq").value


def normal_pdf(s, x):
    x = np.asarray(x, dtype=float)
    return np.exp(-((x - s.mean) ** 2) / (2.0 * s.variance)) / math.sqrt(
        2.0 * math.pi * s.variance
    )


def phi(z):
    return 0.5 * math.erfc(-z / math.sqrt(2.0))


def mass(s, lo, hi):
    sd = math.sqrt(s.variance)
    return phi((hi - s.mean) / sd) - phi((lo - s.mean) / sd)


def crossings(a, b):
    """Sorted points where the two normal densities are equal, by brentq.

    The narrower law's density is the larger at its own mean, so each root is
    bracketed between that mean and a point far enough out on either side.
    """
    narrow, wide = sorted((a, b), key=lambda s: s.variance)

    def log_ratio(x):
        return (
            -((x - narrow.mean) ** 2) / (2.0 * narrow.variance)
            + (x - wide.mean) ** 2 / (2.0 * wide.variance)
            + 0.5 * math.log(wide.variance / narrow.variance)
        )

    roots = []
    for side in (-1.0, 1.0):
        far = math.sqrt(wide.variance)
        while log_ratio(narrow.mean + side * far) > 0.0 and far < 1e12:
            far *= 2.0
        if log_ratio(narrow.mean + side * far) < 0.0:
            ends = sorted((narrow.mean, narrow.mean + side * far))
            roots.append(brentq(log_ratio, *ends, xtol=1e-15, rtol=1e-15))
    return sorted(roots)


def quadrature_distance(a, b, metric):
    """The former quadrature route: a truncated domain with the L1 kinks and
    each mean +- 8 sd as knots, so a narrow law gets panels of its own width."""
    sd = max(math.sqrt(a.variance), math.sqrt(b.variance))
    lo, hi = min(a.mean, b.mean) - 8.0 * sd, max(a.mean, b.mean) + 8.0 * sd
    spans = [s.mean + k * 8.0 * math.sqrt(s.variance) for s in (a, b) for k in (-1, 1)]
    knots = crossings(a, b) + spans

    def gap(x):
        return normal_pdf(a, x) - normal_pdf(b, x)

    if metric in ("hellinger", "hellinger-sq"):
        value, _ = integrate(
            lambda x: (np.sqrt(normal_pdf(a, x)) - np.sqrt(normal_pdf(b, x))) ** 2,
            lo, hi, knots=knots, panels=16,
        )
        return value if metric == "hellinger-sq" else math.sqrt(max(value, 0.0))
    if metric == "l2":
        return integrate(lambda x: gap(x) ** 2, lo, hi, knots=knots)[0]
    l1, _ = integrate(lambda x: np.abs(gap(x)), lo, hi, knots=knots)
    return l1 / 2.0 if metric == "tv" else l1


mp.mp.dps = 50


def _mp_ncdf(z):
    # mpmath's erfc fails on astronomically large arguments; Phi is 0 or 1 there
    return mp.mpf(1) if z > 1e6 else mp.mpf(0) if z < -1e6 else mp.ncdf(z)


def mp_reference(a, b, metric):
    """The distance in 50-digit arithmetic, straight from its definition."""
    ma, va, mb, vb = (mp.mpf(x) for x in (a.mean, a.variance, b.mean, b.variance))
    d, s = mb - ma, va + vb
    if metric in ("hellinger", "hellinger-sq"):
        g = mp.sqrt(2 * mp.sqrt(va * vb) / s)
        # 1 - g e, split so that a mean shift far below 1e-50 still shows
        value = 2 * ((1 - g) - g * mp.expm1(-d * d / (4 * s)))
        return value if metric == "hellinger-sq" else mp.sqrt(value)
    if metric == "l2":
        # int phi_a phi_b = N(d; 0, va + vb)
        def cross(v):
            return 1 / mp.sqrt(2 * mp.pi * v)

        spread = cross(2 * va) + cross(2 * vb) - 2 * cross(s)
        return spread - 2 * cross(s) * mp.expm1(-d * d / (2 * s))
    # TV is affine invariant: take the narrower law to N(0, 1), the other to N(mu, r^2)
    if va > vb:
        ma, va, mb, vb = mb, vb, ma, va
    mu, r2 = (mb - ma) / mp.sqrt(va), vb / va
    qa, qb, qc = (1 - 1 / r2) / 2, mu / r2, -mu * mu / (2 * r2) - mp.log(r2) / 2
    if qa == 0:  # equal variances: one crossing, at mu / 2
        roots = [] if qb == 0 else [-qc / qb]
    else:
        root = mp.sqrt(qb * qb - 4 * qa * qc)
        roots = sorted([(-qb - root) / (2 * qa), (-qb + root) / (2 * qa)])
    cuts = [-mp.inf] + roots + [mp.inf]
    tv = mp.mpf(0)
    for lo, hi in zip(cuts[:-1], cuts[1:]):
        if lo == -mp.inf:
            probe = mu / 2 if hi == mp.inf else hi - 1 - abs(hi)
        else:
            probe = lo + 1 + abs(lo) if hi == mp.inf else (lo + hi) / 2
        # add the stretches where N(0, 1) has the larger density
        if -probe * probe / 2 + (probe - mu) ** 2 / (2 * r2) + mp.log(r2) / 2 > 0:
            sw = mp.sqrt(r2)
            tv += _mp_ncdf(hi) - _mp_ncdf(lo)
            tv -= _mp_ncdf((hi - mu) / sw) - _mp_ncdf((lo - mu) / sw)
    return tv if metric == "tv" else 2 * tv


def assert_matches_reference(a, b, metric):
    report = normal_distance(a, b, metric)
    ref = mp_reference(a, b, metric)
    scale = 1.0 / math.sqrt(a.variance) + 1.0 / math.sqrt(b.variance) if metric == "l2" else 1.0
    err = abs(mp.mpf(report.value) - ref)
    assert err <= 1e-15 * scale + 1e-9 * abs(ref), (metric, a, b, report.value, ref)
    assert report.method == "closed_form"


finite_means = st.floats(min_value=-1e300, max_value=1e300)
variances = st.floats(min_value=1e-300, max_value=1e300)
normals = st.builds(NormalSpec, finite_means, variances)
# far enough inside the range that a scale by 2^+-60 stays finite and normal
inner_normals = st.builds(NormalSpec, st.floats(-1e280, 1e280), st.floats(1e-260, 1e260))


@st.composite
def near_identical_pairs(draw):
    """A law and a copy whose mean and variance move by at most 1e-3 relative."""
    a = draw(st.builds(NormalSpec, st.floats(-1e6, 1e6), st.floats(1e-6, 1e6)))
    dm, dv = (draw(st.floats(-1e-3, 1e-3)) for _ in range(2))
    return a, NormalSpec(a.mean + dm * math.sqrt(a.variance), a.variance * (1.0 + dv))


class TestHellingerNormal:
    def test_identical_is_zero(self):
        a = NormalSpec(0.0, 1.0)
        assert h2(a, a) == 0.0

    def test_unit_shift_closed_form(self):
        got = h2(NormalSpec(0.0, 1.0), NormalSpec(1.0, 1.0))
        assert got == pytest.approx(H2_N01_N11, abs=1e-15)
        assert got == pytest.approx(2.0 * (1.0 - math.exp(-0.125)), abs=1e-15)

    def test_matches_quadrature_on_random_pairs(self):
        rng = np.random.default_rng(2024)
        for _ in range(20):
            a = NormalSpec(rng.uniform(-3, 3), rng.uniform(0.25, 4.0))
            b = NormalSpec(rng.uniform(-3, 3), rng.uniform(0.25, 4.0))
            closed = h2(a, b)
            assert quadrature_distance(a, b, "hellinger-sq") == pytest.approx(closed, abs=1e-6)
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
            assert h2(a, b) <= bound + 1e-12

    def test_symmetry(self):
        a, b = NormalSpec(-1.0, 0.5), NormalSpec(2.0, 3.0)
        assert h2(a, b) == pytest.approx(h2(b, a), abs=1e-15)

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


class TestNormalDistance:
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(normals, normals)
    def test_matches_50_digit_reference(self, a, b):
        for metric in METRICS:
            assert_matches_reference(a, b, metric)

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(near_identical_pairs())
    def test_near_identical_pairs_match_reference(self, pair):
        for metric in METRICS:
            assert_matches_reference(*pair, metric)

    @pytest.mark.parametrize(
        "a, b",
        [
            ((0.0, 1.0), (0.0, 1.000000001)),  # H^2 = 1.25e-19, once printed as 0.0
            ((0.0, 1e200), (1e200, 1.0)),  # once an OverflowError on mean ** 2
            ((0.0, 1e-300), (0.0, 1e300)),  # once a quadrature that hit its panel cap
            ((-1e300, 1e-300), (1e300, 1e-300)),
            ((0.0, 5e-324), (1.0, 1.7e308)),  # r overflows a double
            ((0.0, 1.0), (1e-300, 1.0)),  # a shift whose square underflows
        ],
    )
    def test_extreme_pairs_match_reference(self, a, b):
        for metric in METRICS:
            assert_matches_reference(NormalSpec(*a), NormalSpec(*b), metric)

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(normals, normals)
    def test_symmetry(self, a, b):
        for metric in METRICS:
            assert normal_distance(a, b, metric) == normal_distance(b, a, metric)

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(
        st.builds(NormalSpec, st.floats(-10, 10), st.floats(0.01, 100)),
        st.builds(NormalSpec, st.floats(-10, 10), st.floats(0.01, 100)),
        st.floats(1e-3, 1e3),
        st.sampled_from([-1.0, 1.0]),
        st.floats(-100, 100),
    )
    def test_affine_invariance(self, a, b, scale, sign, offset):
        # x -> c (x + k): rounding m + k moves a standardized mean by <= 3e-13
        c = sign * scale

        def image(s):
            return NormalSpec(c * (s.mean + offset), c * c * s.variance)

        for metric in ("tv", "hellinger", "hellinger-sq"):
            got = normal_distance(image(a), image(b), metric).value
            want = normal_distance(a, b, metric).value
            assert got == pytest.approx(want, rel=1e-9, abs=1e-12)
        got = normal_distance(image(a), image(b), "l2").value
        assert got == pytest.approx(normal_distance(a, b, "l2").value / scale, rel=1e-9)

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(inner_normals, inner_normals, st.integers(-60, 60))
    def test_l2_scales_as_inverse_sigma(self, a, b, j):
        # a power-of-two scale is exact on the parameters
        c = 2.0**j
        scaled = [NormalSpec(c * s.mean, c * c * s.variance) for s in (a, b)]
        got = normal_distance(*scaled, "l2").value
        assert got == pytest.approx(normal_distance(a, b, "l2").value / c, rel=1e-15)

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(
        st.floats(-3, 3), st.floats(-3, 3), st.floats(0.25, 4.0), st.floats(-8.0, 8.0),
        st.sampled_from(METRICS),
    )
    def test_matches_former_quadrature(self, ma, mb, va, log_ratio, metric):
        a, b = NormalSpec(ma, va), NormalSpec(mb, va * 10.0**log_ratio)
        quad = quadrature_distance(a, b, metric)
        assert normal_distance(a, b, metric).value == pytest.approx(quad, rel=1e-6, abs=1e-6)

    def test_tv_at_crossings_of_unequal_variances(self):
        # phi(x) = phi(x / 2) / 2  <=>  x^2 = (8 / 3) ln 2
        a, b = NormalSpec(0.0, 1.0), NormalSpec(0.0, 4.0)
        c = math.sqrt(8.0 / 3.0 * math.log(2.0))
        assert c == pytest.approx(1.35956, abs=1e-5)
        assert normal_pdf(a, c) == pytest.approx(normal_pdf(b, c), rel=1e-12)
        exact = mass(a, -c, c) - mass(b, -c, c)
        for x, y in ((a, b), (b, a)):
            assert normal_distance(x, y, "tv").value == pytest.approx(exact, abs=1e-15)

    def test_tv_at_crossings_of_shifted_unequal_variances(self):
        a, b = NormalSpec(0.5, 0.3), NormalSpec(-1.0, 2.5)
        lo, hi = crossings(a, b)
        for x in (lo, hi):
            assert normal_pdf(a, x) == pytest.approx(normal_pdf(b, x), rel=1e-10)
        exact = mass(a, lo, hi) - mass(b, lo, hi)
        assert normal_distance(a, b, "tv").value == pytest.approx(exact, abs=1e-15)

    @pytest.mark.parametrize(
        "a, b",
        [
            ((0.0, 1.0), (81.0, 1.0)),  # |mu| > 40 (1 + r)
            ((-1e300, 1.0), (1e300, 1.0)),  # the mean shift overflows
            ((0.0, 5e-324), (0.0, 1.7e308)),  # r overflows
        ],
    )
    def test_disjoint_limits_are_exact(self, a, b):
        a, b = NormalSpec(*a), NormalSpec(*b)
        assert normal_distance(a, b, "tv").value == 1.0
        assert normal_distance(a, b, "l1").value == 2.0
        assert normal_distance(a, b, "hellinger-sq").value == 2.0
        assert normal_distance(a, b, "hellinger").value == math.sqrt(2.0)

    def test_abs_error_bounds_only_the_phi_terms(self):
        a, b = NormalSpec(0.3, 1.5), NormalSpec(-0.4, 0.7)
        errors = {m: normal_distance(a, b, m).abs_error for m in METRICS}
        assert errors["tv"] > 0.0 and errors["l1"] == 2.0 * errors["tv"]
        assert errors["hellinger"] == errors["hellinger-sq"] == errors["l2"] == 0.0

    def test_unknown_metric_rejected(self):
        with pytest.raises(DomainError):
            normal_distance(NormalSpec(0.0, 1.0), NormalSpec(1.0, 1.0), "kl")


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

    @pytest.mark.parametrize(
        "comps", [[math.nan], [0.1, math.nan], [math.inf], [0.1, -math.inf]]
    )
    def test_non_finite_component_is_a_domain_error(self, comps):
        with pytest.raises(DomainError, match="finite"):
            hellinger_sq_product(comps)

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

    @pytest.mark.parametrize(
        "atoms",
        [
            ((0.0, math.nan), (1.0, 1.0)),
            ((0.0, 0.5), (1.0, math.inf)),
            ((math.nan, 0.5), (math.nan, 0.5)),
            ((math.nan, 0.5), (1.0, 0.5)),
            ((math.inf, 0.5), (0.0, 0.5)),
            ((-math.inf, 0.5), (0.0, 0.5)),
        ],
    )
    def test_discrete_law_atoms_are_finite(self, atoms):
        # a NaN mass fails no sign or sum comparison, and two NaN points are
        # distinct to the duplicate check (NaN != NaN)
        with pytest.raises(DomainError, match="finite"):
            DiscreteLaw(atoms)

    def test_distance_report_invariants(self):
        DistanceReport(metric="tv", value=0.4, method="closed_form")
        with pytest.raises(DomainError):
            DistanceReport(metric="tv", value=1.2, method="closed_form")
        with pytest.raises(DomainError):
            DistanceReport(metric="hellinger", value=1.5, method="quadrature")
        with pytest.raises(DomainError):
            DistanceReport(metric="made-up", value=0.0, method="closed_form")

    def test_distance_report_rejects_monte_carlo(self):
        # no route produces a Monte Carlo distance, so the method is not accepted
        with pytest.raises(DomainError, match="unknown method"):
            DistanceReport(metric="tv", value=0.4, method="monte_carlo")

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
