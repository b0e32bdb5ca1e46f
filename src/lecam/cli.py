"""Command-line interface.

Subcommands: ``distance`` (closed-form / quadrature distances between two
laws), ``sweep`` (rate sweeps along the bin tuning rule, CSV or JSON),
``verify`` (the Monte Carlo verification suite as JSON lines), and
``transport`` (push a sample through the full kernel chain).  Exit codes:
0 success, 1 a verification check failed, 2 usage error (including a path
that cannot be read or written), 3 numerical failure.  Identical (config,
seed) pairs produce byte-identical output regardless of the parallel degree.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys

import numpy as np

from .densities import parse_spec
from .equivalence import choose_m
from .errors import DomainError, NumericalError, UsageError
from .experiments import format_samples, load_samples, sample_iid
from .harness import rate_sweep, run_suite, sig12
from .kernels import transport_batch, transport_chain
from .measures import (
    METRICS,
    DistanceReport,
    NormalSpec,
    hellinger_sq_normal,
    hellinger_sq_quadrature,
    normal_support,
)
from .quadrature import integrate
from .rng import substream_seq

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2
EXIT_NUMERICAL = 3


def _fmt(x: float) -> str:
    return f"{x:.12g}"


def _emit(text: str, out: str) -> None:
    if out == "-":
        sys.stdout.write(text)
    else:
        with open(out, "w") as fh:
            fh.write(text)


def _seed(text: str) -> int:
    """A seed is a non-negative integer, as numpy's SeedSequence requires."""
    if not text.isdecimal():
        raise argparse.ArgumentTypeError(f"expected a non-negative integer, got {text!r}")
    return int(text)


def _build_model(args):
    model = parse_spec(args.density, gamma=args.gamma)
    overrides = {}
    for name in ("K", "eps", "M"):
        value = getattr(args, name)
        if value is not None:
            overrides[name] = value
    if overrides:
        model = dataclasses.replace(model, **overrides)
    model.validate()
    return model


def _add_class_args(sp, default_density: str) -> None:
    sp.add_argument(
        "--density",
        default=default_density,
        help="builtin density spec: uniform | cosine:a1[,a2,a3] | affine:a",
    )
    sp.add_argument("--gamma", type=float, default=1.0, help="Hoelder exponent in (0,1]")
    sp.add_argument("--K", type=float, default=None, help="override the class constant K")
    sp.add_argument("--eps", type=float, default=None, help="override the lower bound")
    sp.add_argument("--M", type=float, default=None, help="override the upper bound")


def _parse_normal(text: str) -> NormalSpec:
    try:
        mean_s, var_s = text.split(",")
        return NormalSpec(mean=float(mean_s), variance=float(var_s))
    except ValueError as exc:
        if isinstance(exc, DomainError):
            raise
        raise UsageError(f"bad normal spec {text!r}, expected MEAN,VAR") from None


def _normal_crossings(a: NormalSpec, b: NormalSpec) -> list[float]:
    """Roots of g_a = g_b, used as quadrature knots for the L1 kink."""
    ca = 0.5 / a.variance
    cb = 0.5 / b.variance
    qa = cb - ca
    qb = 2.0 * (ca * a.mean - cb * b.mean)
    qc = (
        cb * b.mean**2
        - ca * a.mean**2
        + 0.5 * math.log(b.variance / a.variance)
    )
    if abs(qa) < 1e-15:
        return [] if abs(qb) < 1e-15 else [-qc / qb]
    disc = qb**2 - 4.0 * qa * qc
    if disc < 0.0:
        return []
    root = math.sqrt(disc)
    return [(-qb - root) / (2.0 * qa), (-qb + root) / (2.0 * qa)]


def _distance_between(pdf_a, pdf_b, metric, domain, knots):
    if metric in ("hellinger", "hellinger-sq"):
        h_sq, err = hellinger_sq_quadrature(pdf_a, pdf_b, domain=domain, knots=knots)
        if metric == "hellinger-sq":
            return h_sq, err
        h = math.sqrt(h_sq)
        return h, err / (2.0 * h) if h > 0 else err

    def gap(x):
        return np.asarray(pdf_a(x), dtype=float) - np.asarray(pdf_b(x), dtype=float)

    if metric == "l2":
        value, err = integrate(lambda x: gap(x) ** 2, *domain, knots=knots)
        return max(value, 0.0), err
    value, err = integrate(lambda x: np.abs(gap(x)), *domain, knots=knots)
    if metric == "tv":
        return max(value, 0.0) / 2.0, err / 2.0
    return max(value, 0.0), err  # l1


def cmd_distance(args) -> int:
    if args.normal and args.pair_density:
        raise UsageError("give two --normal specs or two --density specs, not both")
    if args.normal:
        if len(args.normal) != 2:
            raise UsageError("distance needs exactly two --normal specs")
        a, b = (_parse_normal(s) for s in args.normal)
        if args.metric == "hellinger-sq":
            value, method, err = hellinger_sq_normal(a, b), "closed_form", 0.0
        elif args.metric == "hellinger":
            value, method, err = (
                math.sqrt(hellinger_sq_normal(a, b)),
                "closed_form",
                0.0,
            )
        else:
            domain = normal_support(a, b)
            # the L1 kinks, and each mean +- 8 sd (normal_support's width), so
            # a narrow law gets panels of its own width
            spans = [
                s.mean + k * 8.0 * math.sqrt(s.variance) for s in (a, b) for k in (-1, 1)
            ]
            knots = [
                t for t in _normal_crossings(a, b) + spans if domain[0] < t < domain[1]
            ]
            value, err = _distance_between(a.pdf, b.pdf, args.metric, domain, knots)
            method = "quadrature"
    elif args.pair_density:
        if len(args.pair_density) != 2:
            raise UsageError("distance needs exactly two --density specs")
        fa, fb = (parse_spec(s) for s in args.pair_density)
        fa.validate()
        fb.validate()
        value, err = _distance_between(fa.pdf, fb.pdf, args.metric, (0.0, 1.0), None)
        method = "quadrature"
    else:
        raise UsageError("distance needs two --normal or two --density specs")
    report = DistanceReport(
        metric=args.metric, value=float(value), method=method, abs_error=float(err)
    )
    record = {
        "metric": report.metric,
        "value": sig12(report.value),
        "method": report.method,
        "abs_error": sig12(report.abs_error),
    }
    _emit(json.dumps(record, sort_keys=True) + "\n", args.out)
    return EXIT_OK


def cmd_sweep(args) -> int:
    model = _build_model(args)
    try:
        grid = [int(v) for v in args.n_grid.split(",") if v.strip()]
    except ValueError:
        raise UsageError(f"bad n grid {args.n_grid!r}") from None
    result = rate_sweep(model, args.gamma, grid, seed=args.seed)
    if args.format == "csv":
        lines = ["n,m,measured,bound,ratio"]
        for rec in result.to_records():
            lines.append(
                f"{rec['n']},{rec['m']},{_fmt(rec['measured'])},"
                f"{_fmt(rec['bound'])},{_fmt(rec['ratio'])}"
            )
        _emit("\n".join(lines) + "\n", args.out)
    else:
        payload = {
            "rows": sig12(result.to_records()),
            "slope": None if result.slope is None else sig12(result.slope),
            "slope_ci": None if result.slope_ci is None else sig12(list(result.slope_ci)),
            "exact_zero": result.exact_zero,
        }
        _emit(json.dumps(payload, sort_keys=True) + "\n", args.out)
    return EXIT_OK


def cmd_verify(args) -> int:
    model = _build_model(args)
    reports = run_suite(
        model,
        seed=args.seed,
        replications=args.reps,
        negative_control=args.negative_control,
        parallel=args.parallel,
    )
    _emit("".join(r.to_json() + "\n" for r in reports), args.out)
    return EXIT_OK if all(r.passed for r in reports) else EXIT_CHECK_FAILED


def cmd_transport(args) -> int:
    model = _build_model(args)
    modes = sum(x is not None for x in (args.n, args.infile, args.counts))
    if modes != 1:
        raise UsageError("give exactly one of --n, --in, or --counts")
    if args.auto_m:
        if args.m is not None:
            raise UsageError("give --m or --auto-m, not both")
        if args.n is None:
            raise UsageError("--auto-m needs --n to pick the bin count")
        args.m = choose_m(args.n, args.gamma)
    elif args.m is None:
        raise UsageError("give --m or --auto-m")
    # --counts enters the same chain at its midpoint stage, on the same seed path
    seed = substream_seq(args.seed, "chain")
    if args.counts is not None:
        try:
            counts = np.asarray([int(v) for v in args.counts.split(",")], dtype=int)
        except ValueError:
            raise UsageError(f"bad counts vector {args.counts!r}") from None
        if counts.size != args.m:
            raise UsageError(f"counts vector must have m={args.m} entries")
        n = int(counts.sum())
        if n < 1:
            raise UsageError("transport needs at least one sample point")
        ys = transport_chain(n, args.m).sample(counts, seed, start=1)
    else:
        if args.infile is not None:
            xs = load_samples(args.infile)
            if xs.size and (xs.min() < 0.0 or xs.max() > 1.0):
                raise UsageError(f"{args.infile}: sample values must lie in [0, 1]")
        else:
            xs = sample_iid(model, args.n, substream_seq(args.seed, "draw"))
        if xs.size < 1:
            raise UsageError("transport needs at least one sample point")
        ys = transport_batch(xs, args.m, seed)
    _emit(format_samples(ys), args.out)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lecam",
        description="distances, kernel transports, and Monte Carlo verification "
        "for the density-estimation / white-noise experiment chain",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    d = sub.add_parser("distance", help="distance between two laws")
    d.add_argument("--normal", action="append", default=[], metavar="MEAN,VAR")
    d.add_argument(
        "--density", action="append", default=[], dest="pair_density",
        metavar="SPEC", help="builtin density spec (give twice)",
    )
    d.add_argument(
        "--metric", choices=METRICS, default="hellinger-sq",
        help="tv and l1 integrate |f-g| (tv is half of l1); l2 prints the squared "
        "L2 distance, the integral of (f-g)^2, not its square root",
    )
    d.add_argument("--out", default="-")
    d.set_defaults(func=cmd_distance)

    s = sub.add_parser("sweep", help="rate sweep along the bin tuning rule")
    _add_class_args(s, "cosine:0.3")
    s.add_argument("--n-grid", required=True, help="comma-separated sample sizes")
    s.add_argument("--seed", type=_seed, required=True)
    s.add_argument("--format", choices=("csv", "json"), default="csv")
    s.add_argument("--out", default="-")
    s.set_defaults(func=cmd_sweep)

    v = sub.add_parser(
        "verify",
        help="run the verification suite",
        description="Run the seeded verification suite and emit one JSON "
        "line per check. Expected runtime at the default --reps 10000: "
        "a second or two (sufficiency and transport checks draw 1e4 points "
        "each; the moment checks are vectorized over replications; the "
        "risk-transfer check runs its replications in fixed-size blocks, "
        "which --parallel spreads over threads, so its memory no longer "
        "grows with --reps). Exit 0 iff every check passes.",
    )
    _add_class_args(v, "cosine:0.3")
    v.add_argument("--seed", type=_seed, required=True)
    v.add_argument("--reps", type=int, default=10_000)
    v.add_argument("--negative-control", action="store_true")
    v.add_argument("--parallel", type=int, default=1, metavar="N")
    v.add_argument("--out", default="-")
    v.set_defaults(func=cmd_verify)

    t = sub.add_parser(
        "transport",
        help="push a sample through the kernel chain",
        description="Run the kernel chain i.i.d. sample -> bin counts -> midpoint "
        "sample -> tent draws and print its output, one value per line. The "
        "output is the chain's uniformly ordered sample: value k is not the "
        "image of input point k. --counts enters the chain at the midpoint "
        "stage on the same seed path, so counts equal to a sample's bin counts "
        "print the same values as that sample.",
    )
    _add_class_args(t, "cosine:0.3")
    t.add_argument("--m", type=int, default=None, help="bin count")
    t.add_argument(
        "--auto-m", action="store_true",
        help="pick m by the tuning rule n^(1/(2+gamma)) (needs --n)",
    )
    t.add_argument("--n", type=int, default=None, help="generate an i.i.d. sample")
    t.add_argument("--in", dest="infile", default=None, help="read a sample file")
    t.add_argument("--counts", default=None, help="comma-separated counts vector")
    t.add_argument("--seed", type=_seed, required=True)
    t.add_argument("--out", default="-")
    t.set_defaults(func=cmd_transport)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (UsageError, DomainError, OSError) as exc:
        # OSError: an --in file that cannot be read or an --out path that cannot be written
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
