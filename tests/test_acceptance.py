"""Acceptance suite.

One test per criterion; each prints a single PASS/FAIL line (visible with
pytest -s, and in the captured output on failure).  Tolerances are pinned
here, not configurable.
"""

import math
import time

import numpy as np

from lecam.approx import l2_error_sq, remainder_sup
from lecam.cli import main
from lecam.densities import cosine, uniform
from lecam.equivalence import choose_m, minimize_total, total_bound_curve
from lecam.experiments import theta_of
from lecam.harness import (
    theta1_problem,
    verify_risk_transfer,
    verify_sufficiency,
    verify_transport,
    verify_ystar_moments,
)
from lecam.measures import (
    DiscreteLaw,
    NormalSpec,
    hellinger_sq_discrete,
    hellinger_sq_product,
    normal_distance,
    tv_discrete,
    tv_sandwich,
)
from lecam.quadrature import integrate
from lecam.rng import substream_seq

COSINE = cosine([0.3])


def _report(num, label, ok, detail=""):
    suffix = f"  [{detail}]" if detail else ""
    print(f"{'PASS' if ok else 'FAIL'}  criterion {num}: {label}{suffix}")
    assert ok, f"criterion {num} failed: {label} {detail}"


def _simpson_weights(lo, hi, panels):
    h = (hi - lo) / panels
    w = np.full(2 * panels + 1, 2.0 * h / 6.0)
    w[1::2] = 4.0 * h / 6.0
    w[0] = w[-1] = h / 6.0
    return np.linspace(lo, hi, 2 * panels + 1), w


def _pdf(s, x):
    return np.exp(-((x - s.mean) ** 2) / (2.0 * s.variance)) / math.sqrt(
        2.0 * math.pi * s.variance
    )


def _support(a, b):
    """A truncated domain holding all but ~1e-15 of both normal masses."""
    sd = max(math.sqrt(a.variance), math.sqrt(b.variance))
    return min(a.mean, b.mean) - 8.0 * sd, max(a.mean, b.mean) + 8.0 * sd


def _h2_normal(a, b):
    return normal_distance(a, b, "hellinger-sq").value


def _h2_gaussian_pair_bruteforce(a1, b1, a2, b2):
    """Tensor-product quadrature of H^2 between two 2-d product Gaussians."""
    lo1, hi1 = _support(a1, b1)
    lo2, hi2 = _support(a2, b2)
    prev, panels = None, 64
    while True:
        x, wx = _simpson_weights(lo1, hi1, panels)
        y, wy = _simpson_weights(lo2, hi2, panels)
        diff = (
            np.sqrt(np.outer(_pdf(a1, x), _pdf(a2, y)))
            - np.sqrt(np.outer(_pdf(b1, x), _pdf(b2, y)))
        ) ** 2
        val = float(wx @ diff @ wy)
        if prev is not None and abs(val - prev) < 1e-10:
            return val
        if panels > 2**11:
            return val
        prev, panels = val, panels * 2


def _random_discrete_pair(rng, size):
    pts = np.arange(size, dtype=float)
    p = rng.uniform(0.01, 1.0, size)
    q = rng.uniform(0.01, 1.0, size)
    zero = rng.uniform(size=size) < 0.2  # allow some empty cells in q
    q[zero] = 0.0
    if not q.sum():
        q[0] = 1.0
    return (
        DiscreteLaw(tuple(zip(pts, p / p.sum()))),
        DiscreteLaw(tuple(zip(pts, q / q.sum()))),
    )


def test_criterion_1_closed_form_vs_quadrature():
    start = time.monotonic()
    rng = np.random.default_rng(1001)
    worst = 0.0
    for _ in range(100):
        a = NormalSpec(rng.uniform(-3, 3), rng.uniform(0.25, 4.0))
        b = NormalSpec(rng.uniform(-3, 3), rng.uniform(0.25, 4.0))
        closed = _h2_normal(a, b)
        quad, _ = integrate(
            lambda x: (np.sqrt(_pdf(a, x)) - np.sqrt(_pdf(b, x))) ** 2,
            *_support(a, b), panels=16,
        )
        worst = max(worst, abs(closed - quad))
    elapsed = time.monotonic() - start
    _report(
        1,
        "normal Hellinger closed form matches quadrature (100 pairs, 1e-6)",
        worst <= 1e-6 and elapsed < 5.0,
        f"worst gap {worst:.2e}, {elapsed:.2f}s",
    )


def test_criterion_2_product_rule_and_subadditivity():
    rng = np.random.default_rng(1002)
    worst = 0.0
    # Gaussian pairs: 2-component brute force vs the product formula
    for _ in range(3):
        specs = [
            (
                NormalSpec(rng.uniform(-1, 1), rng.uniform(0.5, 2.0)),
                NormalSpec(rng.uniform(-1, 1), rng.uniform(0.5, 2.0)),
            )
            for _ in range(2)
        ]
        brute = _h2_gaussian_pair_bruteforce(
            specs[0][0], specs[0][1], specs[1][0], specs[1][1]
        )
        formula = hellinger_sq_product(
            [_h2_normal(a, b) for a, b in specs]
        )
        worst = max(worst, abs(brute - formula))
    # discrete: 3- and 4-component joint enumeration vs the product formula
    for comps in (3, 4):
        pairs = [_random_discrete_pair(rng, 3) for _ in range(comps)]
        joint = 0.0
        for idx in np.ndindex(*([3] * comps)):
            pa = math.prod(p.masses[i] for (p, _), i in zip(pairs, idx))
            pb = math.prod(q.masses[i] for (_, q), i in zip(pairs, idx))
            joint += (math.sqrt(pa) - math.sqrt(pb)) ** 2
        formula = hellinger_sq_product(
            [hellinger_sq_discrete(p, q) for p, q in pairs]
        )
        worst = max(worst, abs(joint - formula))
    # subadditivity never violated
    violations = 0
    for _ in range(1000):
        comps = rng.uniform(0.0, 2.0, rng.integers(1, 9))
        if hellinger_sq_product(comps) > comps.sum() + 1e-12:
            violations += 1
    _report(
        2,
        "product rule matches brute-force product-measure quadrature (1e-8), "
        "subadditivity clean",
        worst <= 1e-8 and violations == 0,
        f"worst gap {worst:.2e}, {violations} violations",
    )


def test_criterion_3_tv_sandwich():
    rng = np.random.default_rng(1003)
    violations = 0
    for _ in range(1000):
        a, b = _random_discrete_pair(rng, int(rng.integers(2, 9)))
        tv = tv_discrete(a, b)
        lo, hi = tv_sandwich(hellinger_sq_discrete(a, b))
        if not (lo - 1e-12 <= tv <= hi + 1e-12):
            violations += 1
    _report(
        3,
        "exact TV inside [H^2/2, H] on 1000 random discrete pairs",
        violations == 0,
        f"{violations} violations",
    )


def test_criterion_4_sufficiency_chi_square_suite():
    start = time.monotonic()
    level = 0.001 / 6.0  # Bonferroni over the six (density, m) combinations
    reports = []
    for f in (uniform(), COSINE):
        for m in (4, 8, 16):
            reports.append(
                verify_sufficiency(
                    f, n=10_000, m=m,
                    seed=substream_seq(4001, f.name, m), level=level,
                )
            )
    all_pass = all(r.passed for r in reports)
    negative = verify_sufficiency(
        COSINE, n=100_000, m=4, seed=4002,
        theta_override=theta_of(uniform(), 4), level=level,
    )
    elapsed = time.monotonic() - start
    _report(
        4,
        "binned i.i.d. vs multinomial chi-square suite at Bonferroni 0.1%",
        all_pass and not negative.passed and negative.p_value < 1e-6 and elapsed < 60.0,
        f"min p {min(r.p_value for r in reports):.3g}, "
        f"negative p {negative.p_value:.2g}, {elapsed:.1f}s",
    )


def test_criterion_5_kernel_transport_law():
    from lecam.approx import reconstruct

    uniform_hat = reconstruct(uniform(), 8)
    uniform_exact = bool(np.all(uniform_hat.values == 1.0))
    reports = [
        verify_transport(COSINE, n=10_000, m=m, seed=substream_seq(5001, m))
        for m in (8, 16)
    ]
    uni = verify_transport(uniform(), n=10_000, m=8, seed=5002)
    _report(
        5,
        "chain output matches the exact reconstruction CDF (KS, n=1e4)",
        all(r.passed for r in reports) and uni.passed and uniform_exact,
        f"cosine p {[round(r.p_value, 4) for r in reports]}, uniform p {uni.p_value:.3f}",
    )


def test_criterion_6_variance_identity():
    start = time.monotonic()
    reports = []
    for n in (25, 100):
        reports.append(
            verify_ystar_moments(
                COSINE, n=n, m=8, replications=10_000,
                seed=substream_seq(6001, n),
            )
        )
    elapsed = time.monotonic() - start
    worst = max(r.statistic for r in reports)
    _report(
        6,
        "Var[y*_t] = t/(4n) and off-diagonal increment covariances within 4 SE",
        all(r.passed for r in reports) and elapsed < 120.0,
        f"worst |z| {worst:.2f}, {elapsed:.1f}s",
    )


def test_criterion_7_approximation_rates():
    # cosine members have f'(0) = f'(1) = 0, so the boundary cells decay
    # one order faster than their generic m^-3 and the interior term
    # dominates: expected exponent -(2 gamma + 2) = -4 at gamma = 1
    ms = np.array([8, 16, 32, 64, 128])
    vals = np.array([l2_error_sq(COSINE, int(m)) for m in ms])
    slope = float(np.polyfit(np.log(ms), np.log(vals), 1)[0])
    slope_ok = -4.3 <= slope <= -3.7

    rng = np.random.default_rng(7007)
    taylor_ok = True
    members = [COSINE] + [cosine(rng.uniform(-0.5, 0.5, 3)) for _ in range(4)]
    for f in members:
        for m in (4, 8, 16):
            for i in range(2, m):
                if remainder_sup(f, m, i) > f.K * m ** -(1.0 + f.gamma) + 1e-12:
                    taylor_ok = False
    _report(
        7,
        "L2 reconstruction slope in band, interior Taylor remainders below K m^(-1-g)",
        slope_ok and taylor_ok,
        f"slope {slope:.3f}",
    )


def test_criterion_8_risk_transfer():
    report = verify_risk_transfer(
        theta1_problem(16), COSINE, n=1_000, m=16, replications=10_000, seed=8001
    )
    _report(
        8,
        "risk gap within Hellinger-derived TV budget + 4 SE (n=1e3, m=16)",
        report.passed,
        f"gap {report.statistic:.2e} <= budget {report.details['allowance']:.3g}",
    )


def test_criterion_9_tuning_near_optimality():
    worst = 0.0
    for gamma in (0.25, 0.5, 1.0):
        for k in range(10, 21):
            n = 2**k
            at_rule = total_bound_curve(n, gamma, 1.0, [choose_m(n, gamma)])[0]
            _, best = minimize_total(n, gamma)
            worst = max(worst, at_rule / best)
    _report(
        9,
        "chain total at the m-rule within factor 2 of the grid minimum",
        worst <= 2.0,
        f"worst factor {worst:.3f}",
    )


def test_criterion_10_cli_determinism(tmp_path):
    paths = [tmp_path / name for name in ("a.jsonl", "b.jsonl", "par.jsonl")]
    base = ["verify", "--seed", "42"]
    codes = [
        main(base + ["--out", str(paths[0])]),
        main(base + ["--out", str(paths[1])]),
        main(base + ["--parallel", "8", "--out", str(paths[2])]),
    ]
    blobs = [p.read_bytes() for p in paths]
    identical = blobs[0] == blobs[1] == blobs[2]
    _report(
        10,
        "verify --seed 42 reports byte-identical, including --parallel 8",
        identical and codes == [0, 0, 0],
        f"exit codes {codes}, {len(blobs[0])} bytes",
    )
