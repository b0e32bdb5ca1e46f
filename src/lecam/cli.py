"""Command-line interface.

Subcommands: ``distance`` (closed forms between two normals, quadrature
between two densities on [0, 1]), ``sweep`` (rate sweeps along the bin tuning
rule, CSV or JSON), ``verify`` (the Monte Carlo verification suite as JSON
lines), and ``transport`` (push a sample through the full kernel chain).
Exit codes: 0 success, 1 a verification check failed, 2 usage error
(including a path that cannot be read or written), 3 numerical failure, 4
internal error (any other exception, on one line).  Identical (config, seed)
pairs produce byte-identical output regardless of the thread count.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from collections.abc import Iterable

import numpy as np

from .densities import parse_spec
from .equivalence import choose_m
from .errors import DomainError, NumericalError, UsageError
from .experiments import format_float, format_samples, load_samples, sample_iid
from .harness import rate_sweep, run_suite, sig12
from .kernels import transport_batch, transport_chain
from .measures import (
    METRICS,
    DistanceReport,
    NormalSpec,
    hellinger_sq_quadrature,
    normal_distance,
)
from .quadrature import integrate
from .rng import substream_seq

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2
EXIT_NUMERICAL = 3
EXIT_INTERNAL = 4


def _emit(chunks: Iterable[str], out: str) -> None:
    """Write an iterable of strings to stdout or the file ``out``, each as it comes."""
    if out == "-":
        sys.stdout.writelines(chunks)
    else:
        with open(out, "w") as fh:
            fh.writelines(chunks)


def _seed(text: str) -> int:
    """A seed is a non-negative integer, as numpy's SeedSequence requires."""
    if not text.isdecimal():
        raise argparse.ArgumentTypeError(f"expected a non-negative integer, got {text!r}")
    return int(text)


def _int64(text: str) -> int:
    """An integer option must lie in numpy's int64 range (|x| < 2^63): it sizes arrays."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}") from None
    if abs(value) >= 2**63:
        raise argparse.ArgumentTypeError(f"{text!r} is outside the int64 range")
    return value


def _build_model(spec: str, gamma: float = 1.0):
    """The catalog density ``spec``, its class claims checked (DomainError: exit 2)."""
    model = parse_spec(spec, gamma=gamma)
    model.validate()
    return model


def _add_density_arg(sp) -> None:
    sp.add_argument(
        "--density",
        default="cosine:0.3",
        help="builtin density spec: uniform | cosine:a1[,a2,a3] with sum |a_k| <= 1/2 "
        "(larger exits 2) | affine:a; the spec fixes the class constants K, eps and M",
    )


def _parse_normal(text: str) -> NormalSpec:
    try:
        mean_s, var_s = text.split(",")
        return NormalSpec(mean=float(mean_s), variance=float(var_s))
    except ValueError as exc:
        if isinstance(exc, DomainError):
            raise
        raise UsageError(f"bad normal spec {text!r}, expected MEAN,VAR") from None


def _density_distance(fa, fb, metric: str) -> DistanceReport:
    """``metric`` between two densities on [0, 1] by quadrature."""
    if metric in ("hellinger", "hellinger-sq"):
        value, err = hellinger_sq_quadrature(fa, fb)
        if metric == "hellinger" and value > 0:
            value = math.sqrt(value)
            err /= 2.0 * value
    else:
        power = 2 if metric == "l2" else 1
        value, err = integrate(lambda x: np.abs(fa.pdf(x) - fb.pdf(x)) ** power, 0.0, 1.0)
        value = max(value, 0.0)
        if metric == "tv":
            value, err = value / 2.0, err / 2.0
    return DistanceReport(metric, float(value), "quadrature", float(err))


def cmd_distance(args) -> int:
    specs = args.normal or args.pair_density
    if bool(args.normal) == bool(args.pair_density) or len(specs) != 2:
        raise UsageError("distance needs exactly two --normal or two --density specs")
    if args.normal:
        a, b = (_parse_normal(s) for s in specs)
        report = normal_distance(a, b, args.metric)
    else:
        fa, fb = (_build_model(s) for s in specs)
        report = _density_distance(fa, fb, args.metric)
    record = {
        "metric": report.metric,
        "value": sig12(report.value),
        "method": report.method,
        "abs_error": sig12(report.abs_error),
    }
    _emit([json.dumps(record, sort_keys=True) + "\n"], args.out)
    return EXIT_OK


def cmd_sweep(args) -> int:
    model = _build_model(args.density, args.gamma)
    try:
        grid = [_int64(v) for v in args.n_grid.split(",") if v.strip()]
    except argparse.ArgumentTypeError as exc:
        raise UsageError(f"bad n grid {args.n_grid!r}: {exc}") from None
    result = rate_sweep(model, args.gamma, grid)
    if args.format == "csv":
        lines = ["n,m,measured,bound,ratio"]
        for rec in result.to_records():
            lines.append(
                f"{rec['n']},{rec['m']},{format_float(rec['measured'])},"
                f"{format_float(rec['bound'])},{format_float(rec['ratio'])}"
            )
        _emit(["\n".join(lines) + "\n"], args.out)
    else:
        payload = {
            "rows": sig12(result.to_records()),
            "slope": None if result.slope is None else sig12(result.slope),
            "slope_ci": None if result.slope_ci is None else sig12(list(result.slope_ci)),
            "exact_zero": result.exact_zero,
        }
        _emit([json.dumps(payload, sort_keys=True) + "\n"], args.out)
    return EXIT_OK


def cmd_verify(args) -> int:
    if args.parallel < 1:
        raise UsageError("parallel degree must be >= 1")
    model = _build_model(args.density)
    reports = run_suite(
        model,
        seed=args.seed,
        replications=args.reps,
        negative_control=args.negative_control,
    )
    _emit(["".join(r.to_json() + "\n" for r in reports)], args.out)
    return EXIT_OK if all(r.passed for r in reports) else EXIT_CHECK_FAILED


def cmd_transport(args) -> int:
    model = _build_model(args.density, args.gamma)
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
            values = [int(v) for v in args.counts.split(",")]
            counts = np.asarray(values, dtype=int)
        except (ValueError, OverflowError):  # OverflowError: a count beyond int64
            raise UsageError(f"bad counts vector {args.counts!r}") from None
        if counts.size != args.m:
            raise UsageError(f"counts vector must have m={args.m} entries")
        n = sum(values)  # Python ints: counts.sum() would wrap past int64
        if n > np.iinfo(np.int64).max:
            raise UsageError(f"counts total {n} exceeds the int64 range")
    elif args.infile is not None:
        xs = load_samples(args.infile)
        if xs.size and (xs.min() < 0.0 or xs.max() > 1.0):
            raise UsageError(f"{args.infile}: sample values must lie in [0, 1]")
        n = xs.size
    else:
        n = args.n
    if n < 1:
        raise UsageError("transport needs at least one sample point")
    if args.m > n:
        raise UsageError(f"m={args.m} bins exceed the n={n} sample points")
    if args.counts is not None:
        ys = transport_chain(n, args.m).sample(counts, seed, start=1)
    else:
        if args.infile is None:
            xs = sample_iid(model, n, substream_seq(args.seed, "draw"))
        ys = transport_batch(xs, args.m, seed)
        del xs  # the input is done with before the first line is written
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
        help="normal pairs: closed form for every metric; density pairs: "
        "quadrature. tv is half of l1; l2 prints the squared L2 distance, the "
        "integral of (f-g)^2, not its square root",
    )
    d.add_argument("--out", default="-")

    s = sub.add_parser("sweep", help="rate sweep along the bin tuning rule")
    _add_density_arg(s)
    s.add_argument("--gamma", type=float, default=1.0, help="Hoelder exponent in (0,1]")
    s.add_argument("--n-grid", required=True, help="comma-separated sample sizes, |n| < 2^63")
    s.add_argument(
        "--seed", type=_seed,
        help="optional, for old command lines: a sweep is pure quadrature, so it "
        "changes nothing",
    )
    s.add_argument("--format", choices=("csv", "json"), default="csv")
    s.add_argument("--out", default="-")

    v = sub.add_parser(
        "verify",
        help="run the verification suite",
        description="Run the seeded verification suite and emit one JSON "
        "line per check. Expected runtime at the default --reps 10000: "
        "a second or two (sufficiency and transport checks draw 1e4 points "
        "each; the y* moment and risk-transfer checks run their replications "
        "in fixed-size blocks, so memory does not grow with --reps). The risk "
        "blocks, then the other checks, run on one thread pool of at most two "
        "workers, sized from the CPUs the process may use. The density spec "
        "fixes the class (K, eps, M); the checks read no Hoelder exponent. "
        "--reps must be at least 100 and below 2^63. Exit 0 iff every check passes.",
    )
    _add_density_arg(v)
    v.add_argument("--seed", type=_seed, required=True)
    v.add_argument("--reps", type=_int64, default=10_000)
    v.add_argument("--negative-control", action="store_true")
    v.add_argument(
        "--parallel", type=int, default=1, metavar="N",
        help="accepted for old command lines (N >= 1); it changes nothing",
    )
    v.add_argument("--out", default="-")

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
    _add_density_arg(t)
    t.add_argument("--gamma", type=float, default=1.0, help="Hoelder exponent in (0,1]")
    t.add_argument("--m", type=_int64, default=None, help="bin count")
    t.add_argument(
        "--auto-m", action="store_true",
        help="pick m by the tuning rule n^(1/(2+gamma)) (needs --n)",
    )
    t.add_argument("--n", type=_int64, default=None, help="generate an i.i.d. sample")
    t.add_argument("--in", dest="infile", default=None, help="read a sample file")
    t.add_argument("--counts", default=None, help="comma-separated counts vector")
    t.add_argument("--seed", type=_seed, required=True)
    t.add_argument("--out", default="-")
    return parser


_parser: argparse.ArgumentParser | None = None  # built on the first call, not at import


def main(argv=None) -> int:
    global _parser
    if _parser is None:
        _parser = build_parser()
    args = _parser.parse_args(argv)
    try:
        # looked up per call, so a patched ``cmd_*`` takes effect
        return globals()["cmd_" + args.command](args)
    except (UsageError, DomainError, OSError) as exc:
        # OSError: an --in file that cannot be read or an --out path that cannot be written
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except Exception as exc:
        # a bug, not a failed check: exit 1 keeps meaning only that
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
