"""Command-line interface, and the one module that formats results.

Subcommands: gen | norms | aux | lemmas | comb | lin | certificate | constants.
Exit codes: 0 ok, 1 a verification check failed, 2 usage or input error,
3 a desk-scale resource cap was hit.

The library returns records and numbers, and each command turns them into
one payload: sorted JSON with `--json`, else text lines.  Every run echoes
its configuration (seed, samples, precision, max level; null where its
command takes no such option), and identical configurations produce
byte-identical output.  Exact values print as rational strings of at most
`pointsets.MAX_DIGITS` digits per integer, and decimals only where
logarithms force them, each bound rounded in its safe direction.
`_interval` is imported only to print an inexact L1 or a certificate.
`--samples` and `--precision` are only echoed: no command reads either.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from fractions import Fraction

from . import auxiliary, combinatorics, discrepancy, pointsets, testfn
from .errors import CsvFormatError, ResourceLimitError
from .pointsets import exact_str

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2
EXIT_RESOURCE = 3


def _config_echo(args) -> dict:
    keys = ("seed", "samples", "precision", "max_level")
    return {k: getattr(args, k, None) for k in keys}


def _config_line(args) -> str:
    return "config: " + ", ".join(f"{k}={v}" for k, v in sorted(_config_echo(args).items()))


def _emit(args, payload: dict, text_lines) -> None:
    if args.json:
        print(json.dumps({"config": _config_echo(args), **payload}, sort_keys=True))
    else:
        print(f"# {_config_line(args)}")
        for line in text_lines:
            print(line)


def _norms_payload(ps: pointsets.PointSet, which: str) -> dict:
    """The norms that `which` ("all", "l1", "l2", "linf" or "dn") names,
    each computed once from the set's one grid ("dn" needs L1).

    An exact L1 is "p/q" with `l1_err` "0", and loads no mpmath.  Otherwise
    the 17 digits of `l1` are the midpoint of the enclosure at
    `discrepancy.L1_DPS` digits, rounded to nearest from its own bits, and
    `l1_err`, rounded up to 3 digits, bounds the distance from the printed
    `l1` to the norm: the printed digits' offset from the midpoint plus the
    half-width.  `d_n`, the L1 norm over sqrt(ln N), needs N >= 2.
    """
    payload = {"n_points": len(ps)}
    if which in ("all", "l1", "dn"):
        l1 = discrepancy.l1_norm(ps)
    if which in ("all", "l1"):
        if l1.exact:
            payload["l1"], payload["l1_err"] = exact_str(l1.value), "0"
        else:
            from ._interval import _fraction, _nstr_directed, mp

            payload["l1"] = mp.nstr(l1.value, 17)
            offset = abs(Fraction(payload["l1"]) - _fraction(l1.value))
            payload["l1_err"] = _nstr_directed(offset + _fraction(l1.error), 3, up=True)
    if which in ("all", "l2"):
        payload["l2_sq"] = exact_str(discrepancy.l2_norm_sq(ps))
    if which in ("all", "linf"):
        payload["linf"] = exact_str(discrepancy.linf_norm(ps))
    if which in ("all", "dn") and len(ps) >= 2:
        payload["d_n"] = f"{float(l1.value) / math.sqrt(math.log(len(ps))):.12g}"
    return payload


def _tree_payload(tree: auxiliary.AuxFamilyTree) -> dict:
    levels = [{"l": level, "nonempty": len(rec.clusters), "empty": empty}
              for level, (rec, empty) in enumerate(zip(tree.levels, tree.empty_counts()))]
    return {"i": tree.direction, "n": tree.n, "levels": levels, "stabilized": tree.stabilized,
            "l_star": tree.stabilization_level,
            "sum_area_sq": str(auxiliary.sum_empty_area_sq(tree)[0]),
            "inner_product": str(auxiliary.inner_product(tree).value)}


def _certificate_payload(cert: testfn.BoundCertificate) -> dict:
    """The bounds at 17 digits, each rounded in its safe direction."""
    from ._interval import _nstr_directed

    return {"n": cert.n, "N": cert.point_count,
            "inner_product_sum": str(cert.inner_product_sum),
            "inner_product_error": str(cert.inner_product_error),
            "trees_stabilized": cert.trees_stabilized,
            "main_term": _nstr_directed(cert.main_term, 17, up=False),
            "error_bound": _nstr_directed(cert.error_bound, 17, up=True),
            "l1_lower_bound": _nstr_directed(cert.l1_lower_bound, 17, up=False),
            "d_n_bound": None if cert.d_n_bound is None
            else _nstr_directed(cert.d_n_bound, 17, up=False)}


def cmd_gen(args) -> int:
    # the size written, doubled under --mirror, is refused before a generator
    # runs; a negative --m is van_der_corput's to refuse
    if args.kind == "vdc":
        if args.m is None:
            raise ValueError("gen --kind vdc requires --m")
        pointsets.check_point_budget(1, max(args.m, 0) + args.mirror)
        ps = pointsets.van_der_corput(args.m)
    else:
        if args.n is None:
            raise ValueError("gen --kind random requires --n")
        if args.seed is None:
            args.seed = 0       # the config line echoes the seed the set was drawn with
        pointsets.check_point_budget(args.n, args.mirror)
        ps = pointsets.random_uniform(args.n, args.seed)
    if args.mirror:
        ps = pointsets.symmetrize(ps)
    pointsets.write_csv(ps, args.out, comments=[_config_line(args)])
    print(f"wrote {len(ps)} points to {args.out}")
    return EXIT_OK


def cmd_norms(args) -> int:
    payload = _norms_payload(pointsets.read_csv(args.input), args.which)
    _emit(args, payload, [f"{k}: {v}" for k, v in payload.items()])
    return EXIT_OK


def cmd_aux(args) -> int:
    ps = pointsets.read_csv(args.input)
    trees = (auxiliary.build_trees(ps, args.max_level) if args.index is None
             else [auxiliary.build_tree(ps, args.index, args.max_level)])
    summaries = list(map(_tree_payload, trees))     # one tree alive at a time
    lines = [f"i={s['i']} n={s['n']} l*={s['l_star']} stabilized={s['stabilized']} "
             f"inner_product={s['inner_product']}" for s in summaries]
    _emit(args, {"n_points": len(ps), "trees": summaries}, lines)
    return EXIT_OK


def cmd_lemmas(args) -> int:
    ps = pointsets.read_csv(args.input)
    report = auxiliary.lemma_suite(ps, trees=auxiliary.build_trees(ps, args.max_level))
    lines = [f"{'SKIP' if c.skipped else 'PASS' if c.passed else 'FAIL'} {c.name}: {c.witness}"
             for c in report.checks]
    lines.append(f"overall: {'PASS' if report.passed else 'FAIL'} ({report.skipped} skipped)")
    checks = [{"name": c.name, "passed": c.passed, "skipped": c.skipped, "witness": c.witness}
              for c in report.checks]
    _emit(args, {"label": report.label, "n": report.n, "passed": report.passed,
                 "skipped": report.skipped, "checks": checks}, lines)
    return EXIT_OK if report.passed else EXIT_CHECK_FAILED


def cmd_comb(args) -> int:
    table = combinatorics.expansion_table(args.n, args.k)
    coefficients = {str(p): str(a) for p, a in table.coefficients.items()}
    payload = {"n": table.n, "k": table.k, "A": coefficients}
    lines = [f"A_{p}^{args.n}({args.k}) = {a}" for p, a in sorted(table.coefficients.items())]
    _emit(args, payload, lines)
    return EXIT_OK


def cmd_lin(args) -> int:
    fn = testfn.SINE
    value = testfn.lin_n(fn, args.n)
    series = testfn.lin_series_crosscheck(fn, args.n, order=args.order)
    limit = testfn.lin_limit(fn)
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
    ps = pointsets.read_csv(args.input)
    cert = testfn.certificate(ps, trees=auxiliary.build_trees(ps, args.max_level))
    p = _certificate_payload(cert)
    lines = [f"N={p['N']} n={p['n']}", f"inner_product_sum: {p['inner_product_sum']}",
             f"main_term >= {p['main_term']}", f"error_bound <= {p['error_bound']}",
             f"l1_lower_bound: {p['l1_lower_bound']}", f"d_n_bound: {p['d_n_bound']}"]
    _emit(args, p, lines)
    return EXIT_OK


def cmd_constants(args) -> int:
    from mpmath import mp

    # the two L2 comparison entries are reproduced from elsewhere and only displayed
    table = {name: mp.nstr(value, 10) for name, value in testfn.constants_table().items()}
    table.update(l2_liminf_bound_external="0.17905", l2_liminf_conjectured_external="0.17601")
    rows = testfn.asymptotic_dn_table(2, 16)
    limit = table["limsup_dn_lower"]
    lines = [f"{k}: {v}" for k, v in table.items()]
    lines += [f"dn lower bound, n={n}: {v:.10g}" for n, v in rows[:4]]
    lines.append(f"limit: {limit}")
    _emit(args, {"constants": table, "dn_lower_bound_table": [[n, f"{v:.10g}"] for n, v in rows],
                 "dn_lower_bound_limit": limit}, lines)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true", help="machine-readable output")
    common.add_argument("--samples", type=int, default=10**6,
                        help="echoed in the config only; no command reads it")
    common.add_argument("--precision", type=int, default=50,
                        help="echoed in the config only; no command reads it")
    trees = argparse.ArgumentParser(add_help=False, parents=[common])
    trees.add_argument("--max-level", dest="max_level", type=int, default=None,
                       help=f"subdivision truncation level, 0..{auxiliary.HARD_LEVEL_CAP}")

    parser = argparse.ArgumentParser(prog="discrep", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", parents=[common], help="generate a point set CSV")
    p.add_argument("--kind", choices=["vdc", "random"], required=True)
    p.add_argument("--m", type=int, default=None, help="vdc size exponent (2^m points)")
    p.add_argument("--n", type=int, default=None, help="random point count")
    p.add_argument("--seed", type=int, default=None, help="RNG seed of --kind random")
    p.add_argument("--mirror", action="store_true", help="append the x-mirrored copy")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("norms", parents=[common], help="discrepancy norms of a point set")
    p.add_argument("--in", dest="input", required=True)
    p.add_argument("--which", choices=["l1", "l2", "linf", "dn", "all"], default="all")
    p.set_defaults(func=cmd_norms)

    p = sub.add_parser("aux", parents=[trees], help="auxiliary construction summaries")
    p.add_argument("--in", dest="input", required=True)
    p.add_argument("--index", type=int, default=None, help="single direction index")
    p.set_defaults(func=cmd_aux)

    p = sub.add_parser("lemmas", parents=[trees], help="run the verification suite")
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

    p = sub.add_parser("certificate", parents=[trees], help="L1 lower-bound certificate")
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
    if hasattr(sys, "set_int_max_str_digits"):     # the limit came with 3.10.7
        sys.set_int_max_str_digits(pointsets.MAX_DIGITS)
    try:
        return args.func(args)
    except ResourceLimitError as exc:
        print(f"resource limit: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except (CsvFormatError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
