import dataclasses

import numpy as np
import pytest

from lecam.densities import affine, cosine, parse_spec, uniform
from lecam.errors import DomainError, UsageError
from lecam.quadrature import integrate

GRID = np.linspace(0.0, 1.0, 1001)


@pytest.mark.parametrize(
    "model",
    [uniform(), cosine([0.3]), cosine([0.2, 0.1, 0.05]), affine(0.5), affine(-1.2)],
    ids=lambda m: m.name,
)
def test_catalog_members_are_valid(model):
    model.validate()
    fx = model.pdf(GRID)
    assert fx.min() >= model.eps - 1e-12
    assert fx.max() <= model.M + 1e-12
    total, _ = integrate(model.pdf, 0.0, 1.0, tol=1e-12)
    assert total == pytest.approx(1.0, abs=1e-10)


def test_cosine_clamps_into_class():
    f = cosine([0.4, 0.3])
    # coefficients rescaled so sum |a_k| = 1/2
    assert f.eps == pytest.approx(0.5, abs=1e-12)
    assert f.M == pytest.approx(1.5, abs=1e-12)
    f.validate()


def test_cosine_pdf_sums_terms_in_order():
    # 1 + a_1 cos(2 pi x) + a_2 cos(4 pi x) + ..., accumulated term by term
    a = [0.2, -0.1, 0.05]
    for x in (GRID, np.asarray(0.3)):
        want = np.ones_like(x)
        for k, ak in enumerate(a, start=1):
            want += ak * np.cos(2.0 * np.pi * k * x)
        assert cosine(a).pdf(x).tobytes() == want.tobytes()


def test_cosine_deriv_sums_terms_in_order():
    # f' = -sum_k a_k 2 pi k sin(2 pi k x), term by term; a zero coefficient
    # contributes nothing
    a = [0.2, 0.0, -0.1, 0.05]
    for x in (GRID, np.asarray(0.3)):
        deriv = np.zeros_like(x)
        for k, ak in enumerate(a, start=1):
            deriv -= ak * (2.0 * np.pi) * k * np.sin(2.0 * np.pi * k * x)
        assert cosine(a).deriv(x).tobytes() == deriv.tobytes()


def test_cosine_rejects_empty():
    with pytest.raises(DomainError):
        cosine([])


# closed-form antiderivatives F, with F(0) = 0, of the catalog densities they name
PRIMITIVES = {
    "uniform": lambda x: x,
    "cosine:0.3,0.1": lambda x: (
        x + 0.3 / (2.0 * np.pi) * np.sin(2.0 * np.pi * x)
        + 0.1 / (4.0 * np.pi) * np.sin(4.0 * np.pi * x)
    ),
    "affine:0.7": lambda x: x + 0.7 * (x**2 / 2.0 - x / 2.0),
}


def test_primitive_is_antiderivative():
    for spec, primitive in PRIMITIVES.items():
        model = parse_spec(spec)
        x = np.linspace(0.01, 0.99, 101)
        h = 1e-6
        numeric = (primitive(x + h) - primitive(x - h)) / (2.0 * h)
        assert numeric == pytest.approx(model.pdf(x), abs=1e-7)
        assert primitive(1.0) == pytest.approx(1.0, abs=1e-15)


def test_analytic_derivative_matches_finite_difference():
    model = cosine([0.25, 0.05])
    x = np.linspace(0.0, 1.0, 101)
    h = 1e-6
    lo, hi = np.clip(x - h, 0.0, 1.0), np.clip(x + h, 0.0, 1.0)  # one-sided at the ends
    numeric = (model.pdf(hi) - model.pdf(lo)) / (hi - lo)
    assert numeric == pytest.approx(model.deriv(x), abs=1e-4)


def test_affine_range():
    with pytest.raises(DomainError):
        affine(2.0)
    f = affine(1.0)
    assert f.eps == pytest.approx(0.5)
    assert f.M == pytest.approx(1.5)


def test_parse_spec_roundtrip():
    assert parse_spec("uniform").name == "uniform"
    assert parse_spec("cosine:0.3").name == "cosine:0.3"
    assert parse_spec("affine:0.5").name == "affine:0.5"
    assert parse_spec("cosine:0.2,0.1").eps == pytest.approx(0.7)


@pytest.mark.parametrize(
    "build",
    [
        lambda gamma: uniform(gamma),
        lambda gamma: cosine([0.0], gamma=gamma),
        lambda gamma: parse_spec("uniform", gamma=gamma),
        lambda gamma: parse_spec("cosine:0", gamma=gamma),
        lambda gamma: parse_spec("cosine:0.3", gamma=gamma),
        lambda gamma: parse_spec("affine:0.5", gamma=gamma),
    ],
)
def test_every_catalog_route_keeps_the_callers_gamma(build):
    # cosine with zero coefficients is the uniform density; it once dropped gamma
    assert build(0.5).gamma == 0.5


def test_parse_spec_errors():
    with pytest.raises(UsageError):
        parse_spec("triangle:1")
    with pytest.raises(UsageError):
        parse_spec("cosine:abc")
    with pytest.raises(UsageError):
        parse_spec("cosine")
    with pytest.raises(UsageError):
        parse_spec("affine:1,2")
    with pytest.raises(UsageError):
        parse_spec("uniform:3")


def test_validate_catches_bound_violations():
    lying = dataclasses.replace(cosine([0.3]), eps=0.9)
    with pytest.raises(DomainError):
        lying.validate()
    lying = dataclasses.replace(cosine([0.3]), M=1.1)
    with pytest.raises(DomainError):
        lying.validate()


def test_validate_catches_hoelder_violation():
    lying = dataclasses.replace(cosine([0.3]), K=1e-3)
    with pytest.raises(DomainError):
        lying.validate()


def test_validate_catches_bad_normalization():
    bad = dataclasses.replace(
        uniform(), pdf=lambda x: np.full_like(np.asarray(x, dtype=float), 1.05), M=1.1
    )
    with pytest.raises(DomainError):
        bad.validate()


def _nan_on_band(x):
    x = np.asarray(x, dtype=float)
    return np.where((x >= 0.4) & (x <= 0.41), np.nan, 0.0)


def test_validate_rejects_a_non_finite_pdf():
    # every comparison with NaN is false, so the bound checks let it through
    bad = dataclasses.replace(uniform(), pdf=lambda x: 1.0 + _nan_on_band(x))
    with pytest.raises(DomainError, match="density not finite at x=0.4"):
        bad.validate()


def test_validate_rejects_a_non_finite_derivative():
    bad = dataclasses.replace(uniform(), deriv=_nan_on_band)
    with pytest.raises(DomainError, match="Hoelder"):
        bad.validate()


def test_class_parameter_guards():
    with pytest.raises(DomainError):
        dataclasses.replace(uniform(), gamma=1.5)
    with pytest.raises(DomainError):
        dataclasses.replace(uniform(), eps=2.0)  # eps > M
    with pytest.raises(DomainError):
        dataclasses.replace(uniform(), K=0.0)
