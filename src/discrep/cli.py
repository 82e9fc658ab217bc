"""Command-line interface.

Subcommands: gen | norms | aux | lemmas | comb | lin | certificate | constants.
Exit codes: 0 ok, 1 a verification check failed, 2 usage or input error,
3 a desk-scale resource cap was hit.

Every run echoes its configuration (seed, samples, precision, max level)
into the output, and identical configurations produce byte-identical
output; exact values print as rational strings, decimals appear only
where logarithms force approximation.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import auxiliary, combinatorics, discrepancy, pointsets, testfn
from .errors import CsvFormatError, ResourceLimitError

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2
EXIT_RESOURCE = 3


def _config_echo(args) -> dict:
    keys = ("seed", "samples", "precision", "max_level")
    return {k: getattr(args, k, None) for k in keys}


def _emit(args, payload: dict, text_lines) -> None:
    payload = {"config": _config_echo(args), **payload}
    if args.json:
        print(json.dumps(payload, sort_keys=True))
    else:
        config = payload["config"]
        print("# config: " + ", ".join(f"{k}={v}" for k, v in sorted(config.items())))
        for line in text_lines:
            print(line)


def _load(args) -> pointsets.PointSet:
    return pointsets.read_csv(getattr(args, "input"))


def cmd_gen(args) -> int:
    if args.kind == "vdc":
        if args.m is None:
            raise ValueError("gen --kind vdc requires --m")
        ps = pointsets.van_der_corput(args.m)
    else:
        if args.n is None:
            raise ValueError("gen --kind random requires --n")
        if args.seed is None:
            args.seed = 0       # the config line echoes the seed the set was drawn with
        ps = pointsets.random_uniform(args.n, args.seed)
    if args.mirror:
        ps = pointsets.symmetrize(ps)
    config = ", ".join(f"{k}={v}" for k, v in sorted(_config_echo(args).items()))
    pointsets.write_csv(ps, args.out, comments=[f"config: {config}"])
    print(f"wrote {len(ps)} points to {args.out}")
    return EXIT_OK


def cmd_norms(args) -> int:
    ps = _load(args)
    if args.method == "mc":
        if args.which in ("linf", "dn"):
            raise ValueError(f"norms --method mc estimates l1 or l2, not {args.which}")
        which = "l2" if args.which == "l2" else "l1"
        est, stderr = discrepancy.monte_carlo_norm(
            ps, which=which, samples=args.samples, seed=args.seed or 0
        )
        payload = {
            "n_points": len(ps),
            "which": which,
            "estimate": f"{est:.12g}",
            "stderr": f"{stderr:.6g}",
        }
        _emit(args, payload, [f"{which} (mc): {est:.12g} +- {stderr:.6g}"])
        return EXIT_OK
    report = discrepancy.norms_report(ps, dps=args.precision, which=args.which)
    lines = [f"{k}: {v}" for k, v in report.items()]
    _emit(args, report, lines)
    return EXIT_OK


def cmd_aux(args) -> int:
    ps = _load(args)
    if args.index is None:
        trees = auxiliary.build_trees(ps, args.max_level)
    else:
        trees = [auxiliary.build_tree(ps, args.index, args.max_level)]
    summaries = [tree.summary() for tree in trees]
    lines = []
    for s in summaries:
        lines.append(
            f"i={s['i']} n={s['n']} l*={s['l_star']} stabilized={s['stabilized']} "
            f"inner_product={s['inner_product']}"
        )
    _emit(args, {"n_points": len(ps), "trees": summaries}, lines)
    return EXIT_OK


def cmd_lemmas(args) -> int:
    ps = _load(args)
    trees = auxiliary.build_trees(ps, args.max_level)
    report = auxiliary.lemma_suite(ps, trees=trees)
    lines = [
        f"{'SKIP' if c.skipped else 'PASS' if c.passed else 'FAIL'} {c.name}: {c.witness}"
        for c in report.checks
    ]
    lines.append(f"overall: {'PASS' if report.passed else 'FAIL'} ({report.skipped} skipped)")
    _emit(args, report.to_json(), lines)
    return EXIT_OK if report.passed else EXIT_CHECK_FAILED


def cmd_comb(args) -> int:
    table = combinatorics.expansion_table(args.n, args.k)
    payload = table.to_json()
    lines = [f"A_{p}^{args.n}({args.k}) = {a}" for p, a in sorted(payload["A"].items())]
    _emit(args, payload, lines)
    return EXIT_OK


def cmd_lin(args) -> int:
    fn = testfn.SINE
    dps = args.precision
    value = testfn.lin_n(fn, args.n, dps=dps)
    series = testfn.lin_series_crosscheck(fn, args.n, order=args.order, dps=dps)
    limit = testfn.lin_limit(fn, dps=dps)
    payload = {
        "n": args.n,
        "order": args.order,
        "lin_n_sin": f"{float(value.real):.15g}",
        "series_crosscheck": f"{float(series.real):.15g}",
        "two_route_gap": f"{abs(float(value.real) - float(series.real)):.3g}",
        "limit_sin": f"{float(limit.real):.15g}",
        "sqrt_n_times_lin": f"{float(value.real) * args.n ** 0.5:.15g}",
    }
    _emit(args, payload, [f"{k}: {v}" for k, v in payload.items()])
    return EXIT_OK


def cmd_certificate(args) -> int:
    ps = _load(args)
    trees = auxiliary.build_trees(ps, args.max_level)
    cert = testfn.certificate(ps, dps=args.precision, trees=trees)
    payload = cert.to_json()
    lines = [
        f"N={payload['N']} n={payload['n']}",
        f"inner_product_sum: {payload['inner_product_sum']}",
        f"main_term >= {payload['main_term']}",
        f"error_bound <= {payload['error_bound']}",
        f"l1_lower_bound: {payload['l1_lower_bound']}",
        f"d_n_bound: {payload['d_n_bound']}",
    ]
    _emit(args, payload, lines)
    return EXIT_OK


def cmd_constants(args) -> int:
    table = testfn.constants_table()
    rows = testfn.asymptotic_dn_table(2, 16)
    payload = {
        "constants": table,
        "dn_lower_bound_table": [[n, f"{v:.10g}"] for n, v in rows],
        "dn_lower_bound_limit": f"{testfn.asymptotic_dn_limit():.10g}",
    }
    lines = [f"{k}: {v}" for k, v in table.items()]
    lines += [f"dn lower bound, n={n}: {v:.10g}" for n, v in rows[:4]]
    lines.append(f"limit: {testfn.asymptotic_dn_limit():.10g}")
    _emit(args, payload, lines)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true", help="machine-readable output")
    common.add_argument("--seed", type=int, default=None,
                        help="RNG seed of gen --kind random and norms --method mc")
    common.add_argument("--samples", type=int, default=10**6, help="Monte-Carlo samples")
    common.add_argument("--precision", type=int, default=50, help="working decimal digits")
    common.add_argument("--max-level", dest="max_level", type=int, default=None,
                        help=f"subdivision truncation level, 0..{auxiliary.HARD_LEVEL_CAP}")

    parser = argparse.ArgumentParser(prog="discrep", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", parents=[common], help="generate a point set CSV")
    p.add_argument("--kind", choices=["vdc", "random"], required=True)
    p.add_argument("--m", type=int, default=None, help="vdc size exponent (2^m points)")
    p.add_argument("--n", type=int, default=None, help="random point count")
    p.add_argument("--mirror", action="store_true", help="append the x-mirrored copy")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("norms", parents=[common], help="discrepancy norms of a point set")
    p.add_argument("--in", dest="input", required=True)
    p.add_argument("--which", choices=["l1", "l2", "linf", "dn", "all"], default="all")
    p.add_argument("--method", choices=["exact", "mc"], default="exact")
    p.set_defaults(func=cmd_norms)

    p = sub.add_parser("aux", parents=[common], help="auxiliary construction summaries")
    p.add_argument("--in", dest="input", required=True)
    p.add_argument("--index", type=int, default=None, help="single direction index")
    p.set_defaults(func=cmd_aux)

    p = sub.add_parser("lemmas", parents=[common], help="run the verification suite")
    p.add_argument("--in", dest="input", required=True)
    p.set_defaults(func=cmd_lemmas)

    p = sub.add_parser("comb", parents=[common], help="odd symmetric expansion table")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.set_defaults(func=cmd_comb)

    p = sub.add_parser("lin", parents=[common], help="linear coefficient of sin, both routes")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--order", type=int, default=41, help="series truncation order")
    p.set_defaults(func=cmd_lin)

    p = sub.add_parser("certificate", parents=[common], help="L1 lower-bound certificate")
    p.add_argument("--in", dest="input", required=True)
    p.set_defaults(func=cmd_certificate)

    p = sub.add_parser("constants", parents=[common], help="asymptotic constants table")
    p.set_defaults(func=cmd_constants)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.precision < 1:
        parser.error(f"--precision must be at least 1, got {args.precision}")
    try:
        return args.func(args)
    except ResourceLimitError as exc:
        print(f"resource limit: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except (CsvFormatError, FileNotFoundError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
