"""Mutants of the library that the test suite must kill.

Run from anywhere, with the test dependencies installed:

    python tests/mutants.py            # every mutant
    python tests/mutants.py NAME ...   # the named ones

pytest does not collect this file: its name has no `test_` prefix.

Each mutant is one exact-text edit of one file under `src/discrep` and the
tests that must fail once it is made.  For each mutant the runner copies
`src/` to a temporary directory, applies the edit there and runs only the
named tests against that copy, one pytest process at a time.  First it
runs every named test once against an unedited copy, so that a kill is
never a test that fails anyway.

A mutant is killed when its tests fail (pytest exit code 1).  The runner
exits 1 if a mutant survives, if its old text no longer occurs in the
source (a change that moves the code must update this list on purpose),
or if pytest ends any other way, such as an import error in the edited
copy; it exits 0 when every mutant is killed.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]


class Mutant(NamedTuple):
    name: str
    path: str                   # relative to src/discrep
    old: str                    # every occurrence is replaced
    new: str
    tests: tuple[str, ...]      # test ids relative to tests/
    why: str                    # what the edit breaks


MUTANTS = (
    Mutant(
        "linf_filter_at_one_e", "discrepancy.py",
        "high - 2 * bound", "high - bound",
        ("test_grid_kernels.py::test_linf_filter_keeps_corners_within_2e_of_the_running_max",),
        "the L-infinity float filter must keep every corner within 2E of the running max",
    ),
    Mutant(
        "oversize_log_argument_to_nearest", "_interval.py",
        "lo, hi = mpi_log(_mpi_int(m, wp), wp)",
        'lo, hi = mpi_log((from_int(m, wp, "n"), from_int(m, wp, "n")), wp)',
        ("test_grid_kernels.py::test_l1_enclosure_logs_an_interval_holding_each_integer",),
        "an integer wider than the logs' precision must be rounded outward before its log",
    ),
    Mutant(
        "upper_log_end_without_its_ulp", "_interval.py",
        "b = a + (1 << (exp + bc - wp + shift))", "b = a",
        ("test_grid_kernels.py::test_l1_enclosure_is_bit_equal_to_two_logs_per_integer",),
        "a log rounded down is the lower end only: the upper end is one ulp above it",
    ),
    Mutant(
        "negative_coefficient_ends_unswapped", "_interval.py",
        "            a, b = b, a\n", "            pass\n",
        ("test_grid_kernels.py::test_l1_enclosure_holds_a_log_sum_cancelled_to_2_pow_minus_300",),
        "a negative coefficient takes its lower end from the log's upper end",
    ),
    Mutant(
        "level_0_mask_one_bit_short", "auxiliary.py",
        "mask = -1 << (n - direction)", "mask = -1 << (n - direction + 1)",
        ("test_auxiliary.py::test_bucket_and_tree_match_fraction_floor",),
        "a level-0 key keeps the top i of the n bits of x's cell, below them y's top n - i",
    ),
    Mutant(
        "level_0_y_prefix_one_bit_short", "auxiliary.py",
        "cx[t] & mask | cy[t] >> direction", "cx[t] & mask | cy[t] >> (direction + 1)",
        ("test_auxiliary.py::test_bucket_and_tree_match_fraction_floor",),
        "level 0 of direction i cuts y at scale n - i, the top n - i bits of its n-bit cell",
    ),
    Mutant(
        "rect_area_from_scale_x_alone", "auxiliary.py",
        "1 << (self.scale_x + self.scale_y)", "1 << (2 * self.scale_x)",
        ("test_auxiliary.py::test_singleton_tree_levels",
         "test_auxiliary.py::test_inner_product_deep_truncation_matches_tail"),
        "a cell's area is 2^-(scale_x + scale_y), and the two scales differ off i = n/2",
    ),
    Mutant(
        "pair_members_in_reverse_order", "auxiliary.py",
        "formed.append(lone[members[0]])\n                formed.append(lone[members[1]])",
        "formed.append(lone[members[1]])\n                formed.append(lone[members[0]])",
        ("test_auxiliary.py::test_bucket_and_tree_match_fraction_floor",),
        "a parted pair's clusters come out in member order, as bucketing would emit them",
    ),
    Mutant(
        "fresh_one_point_cluster", "auxiliary.py",
        "parts[key] = lone[t]", "parts[key] = ((t,), xs[t], ys[t], HARD_LEVEL_CAP)",
        ("test_auxiliary.py::test_lone_clusters_are_shared_across_trees_and_builds",),
        "every tree and level shares each point's one one-point cluster",
    ),
    Mutant(
        "split_scale_of_equal_members_from_the_width", "auxiliary.py",
        "(wx - ax.bit_length() if ax else scale)", "(wx - ax.bit_length())",
        ("test_auxiliary.py::test_bucket_and_tree_match_fraction_floor",),
        "members equal along a dyadic axis share its cells at every scale, past its width too",
    ),
    Mutant(
        "next_split_lowered_only_by_formed_clusters", "auxiliary.py",
        "                formed.append(c)\n"
        "                if c[3] < least:\n"
        "                    least = c[3]\n",
        "                formed.append(c)\n",
        ("test_auxiliary.py::test_clusters_split_where_the_oracle_splits_them",),
        "a cluster carried whole may split before every cluster formed on this level",
    ),
    Mutant(
        "distinct_count_on_the_integers", "auxiliary.py",
        "distinct = len({(xnum[t], ynum[t]) for t in interior})",
        "distinct = len({(xs[t], ys[t]) for t in interior})",
        ("test_auxiliary.py::test_tree_integers_match_fraction_oracle",
         "test_auxiliary.py::test_bucket_and_tree_match_fraction_floor"),
        "points closer than 2^-S share their integers but are distinct, and never stabilize",
    ),
    Mutant(
        "interior_with_x_1", "auxiliary.py",
        "if a < dx and b < dy)",
        "if a <= dx and b < dy)",
        ("test_auxiliary.py::test_tree_integers_match_fraction_oracle",),
        "a point on x = 1 lies in no half-open dyadic rectangle",
    ),
    Mutant(
        "empties_from_the_current_count", "auxiliary.py",
        "            empties.append(cells - count)\n            cells = children * count\n",
        "            cells = children * count if empties else cells\n"
        "            empties.append(cells - count)\n",
        ("test_auxiliary.py::test_empty_counts_follow_the_parent_cluster_count",
         "test_auxiliary.py::test_sum_empty_area_sq_matches_fraction_loop"),
        "a level's cells are the children of its parent's occupied cells, not of its own",
    ),
    Mutant(
        "stabilized_read_from_level_0", "auxiliary.py",
        "return len(self.levels[-1].clusters) == _tree_integers(self.pointset).distinct",
        "return len(self.levels[0].clusters) == _tree_integers(self.pointset).distinct",
        ("test_auxiliary.py::test_pair_splits_at_the_first_level_whose_scale_reaches_its_gap",
         "test_auxiliary.py::test_inner_product_unstabilized_brackets_truth"),
        "a tree is stabilized when its deepest level's clusters are the distinct points, "
        "whatever level 0 holds",
    ),
    Mutant(
        "partition_reads_every_level_whole", "auxiliary.py",
        "        if rec.clusters is not clusters:\n", "        if True:\n",
        ("test_auxiliary.py::test_cluster_partition_reads_a_shared_tuple_once",),
        "a level that holds its parent's cluster tuple has the same partition: it is not "
        "read again",
    ),
    Mutant(
        "partition_reads_only_level_0_whole", "auxiliary.py",
        "        if rec.clusters is not clusters:\n", "        if clusters is None:\n",
        ("test_auxiliary.py::test_cluster_partition_matches_the_cell_dict_reference",),
        "every level whose cluster tuple is new is read whole",
    ),
    Mutant(
        "partition_without_the_first_member_integers", "auxiliary.py",
        "if not members or x0 != xs[members[0]] or y0 != ys[members[0]]:",
        "if not members:",
        ("test_auxiliary.py::test_cluster_partition_fails_a_new_tuple_read_whole",
         "test_auxiliary.py::test_cluster_partition_matches_the_cell_dict_reference"),
        "a lone cluster holds its point in its cell at every scale only if its integers "
        "are its point's",
    ),
    Mutant(
        "partition_without_distinct_cells", "auxiliary.py",
        "for _, x0, y0, _ in clusters}) != len(clusters):",
        "for _, x0, y0, _ in clusters}) < 0:",
        ("test_auxiliary.py::test_cluster_partition_fails_a_new_tuple_read_whole",
         "test_auxiliary.py::test_cluster_partition_matches_the_cell_dict_reference"),
        "two clusters in one cell are one occupied cell counted twice",
    ),
    Mutant(
        "family_without_its_end_count", "auxiliary.py",
        "    if next(expected, None) is not None:\n        raise ValueError(mismatch)\n", "",
        ("test_testfn.py::test_certificate_refuses_trees_that_are_not_one_per_direction",),
        "a family that stops short of its last direction index is refused once it ends",
    ),
    Mutant(
        "family_without_its_direction_check", "auxiliary.py",
        "if tree.direction != next(expected, None):", "if next(expected, None) is None:",
        ("test_testfn.py::test_certificate_refuses_trees_that_are_not_one_per_direction",),
        "each tree of a family is the one of the next direction index, in order",
    ),
    Mutant(
        "side_lengths_by_their_sum", "auxiliary.py",
        "if (rec.scale_x, rec.scale_y) != want:", "if rec.scale_x + rec.scale_y != sum(want):",
        ("test_auxiliary.py::test_side_lengths_fails_a_tie",),
        "each scale has its own identity: their sum, the area, cannot tell a tie apart",
    ),
    Mutant(
        "grid_cuts_without_the_top_cut", "pointsets.py",
        "cuts = sorted({0, den, *nums})", "cuts = sorted({0, *nums})",
        ("test_grid_kernels.py::test_grid_matches_sort_and_bisect_oracle",),
        "each axis's cuts end at 1, the numerator D, whether or not a point lies there",
    ),
    Mutant(
        "grid_y_ranks_grouped_unsorted", "pointsets.py",
        "for i, j in sorted(zip(xr, yr)):", "for i, j in zip(xr, yr):",
        ("test_grid_kernels.py::test_grid_matches_sort_and_bisect_oracle",),
        "L-infinity's column bounds read each x cut's y ranks in increasing order",
    ),
    Mutant(
        "l1_cuts_read_before_the_grid_budget", "discrepancy.py",
        "    _check_grid_budget(grid)    # before any column is built\n",
        "    _lowest(grid.x_cuts[1], ps.axes[0][0])\n"
        "    _check_grid_budget(grid)    # before any column is built\n",
        ("test_grid_kernels.py::test_grid_budget_raises_before_building",),
        "L1 refuses an oversize grid before it reads a cut",
    ),
    Mutant(
        "pointset_eq_without_its_class_check", "pointsets.py",
        "        if other.__class__ is not self.__class__:\n            return NotImplemented\n",
        "",
        ("test_pointsets.py::test_pointset_is_an_immutable_record_that_caches",),
        "a point set equals only a point set, not a record of other type with its fields",
    ),
    Mutant(
        "linf_seeded_below_the_top_of_x_0", "discrepancy.py",
        "best_num, best_den = len(ranks[0]), 1",
        "best_num, best_den = len(ranks[0]) - ranks[0].count(len(row) - 1), 1",
        ("test_grid_kernels.py::test_linf_filter_matches_exact_scans",),
        "the x = 0 column's largest deviation is its count at y = 1, which points on (0, 1) reach",
    ),
    Mutant(
        "linf_closed_rise_without_its_points", "discrepancy.py",
        "k - d * fy for k, fy in enumerate([0.0, *ys])",
        "0 - d * fy for k, fy in enumerate([0.0, *ys])",
        ("test_grid_kernels.py::test_linf_filter_matches_exact_scans",),
        "the closed side's maximum rises by up to k - N Delta y at the k-th point of its x cut",
    ),
    Mutant(
        "linf_bound_without_its_float_slack", "discrepancy.py",
        "]) + slack", "])",
        ("test_grid_kernels.py::test_linf_column_bound_takes_its_float_slack",),
        "each rise is computed in floats, so each step adds a slack of 4E to the bound",
    ),
    Mutant(
        "fraction_fast_path_checks_only_p", "pointsets.py",
        "if num.isdecimal() and (den.isdecimal() or not slash):", "if num.isdecimal():",
        ("test_pointsets.py::test_parse_coordinate_matches_the_general_reader",),
        "only a literal with decimal digits on both sides of its slash, or an unsigned "
        "integer, is read as p/q",
    ),
    Mutant(
        "each_power_of_ten_budgeted_alone", "pointsets.py",
        "bits += exponent * math.log2(10)", "bits = exponent * math.log2(10)",
        ("test_pointsets.py::test_distinct_decimal_exponents_share_one_budget",),
        "the distinct powers of ten of one file share one MAX_LITERAL_BITS budget",
    ),
    Mutant(
        "one_power_a_bit_finer", "testfn.py",
        "mpi_pow_int(sin_a, p, prec)", "mpi_pow_int(sin_a, p, prec + 1)",
        ("test_testfn.py::test_certificate_matches_iv_objects",
         "test_testfn.py::test_odd_terms_match_iv_objects"),
        "every interval operation of the certificate runs at the one precision prec",
    ),
    Mutant(
        "working_precision_of_20_digits", "testfn.py",
        "DPS = 50", "DPS = 20",
        ("test_grid_kernels.py::test_certificate_bounds_within_1e_30_of_a_60_digit_reference",),
        "the certificate's bounds agree with a 60-digit reference to 1e-30 relative",
    ),
    Mutant(
        "odd_terms_at_frequency_one", "testfn.py",
        "a = mpi_div(_mpi_fraction(freq, prec),", "a = mpi_div(_mpi_int(1, prec),",
        ("test_testfn.py::test_lin_n_examples",),
        "each atom's factor is taken at a = w/sqrt(n), its own frequency over sqrt(n)",
    ),
    Mutant(
        "atom_sum_parts_swapped", "testfn.py",
        "    return re, im\n", "    return im, re\n",
        ("test_testfn.py::test_lin_limit_values",),
        "c (-i) = im - i re: the sum of im f is the real part, of -re f the imaginary one",
    ),
    Mutant(
        "d_n_without_its_square_root", "testfn.py",
        "mpi_sqrt(mpi_log(_mpi_int(count, prec), prec), prec)",
        "mpi_log(_mpi_int(count, prec), prec)",
        ("test_testfn.py::test_certificate_matches_iv_objects",),
        "d_n is the lower bound over sqrt(ln N)",
    ),
    Mutant(
        "upper_log_end_with_two_ulps", "_interval.py",
        "b = a + (1 << (exp + bc - wp + shift))", "b = a + (2 << (exp + bc - wp + shift))",
        ("test_grid_kernels.py::test_l1_enclosure_is_bit_equal_to_two_logs_per_integer",),
        "the upper end of a log rounded down is one ulp above it, not two",
    ),
    Mutant(
        "l1_err_without_the_printed_offset", "cli.py",
        "_nstr_directed(offset + _fraction(l1.error), 3, up=True)",
        "_nstr_directed(_fraction(l1.error), 3, up=True)",
        ("test_grid_kernels.py::test_printed_l1_and_error_hold_the_norm",),
        "l1_err bounds the printed l1's distance to the norm, not the enclosure's half-width",
    ),
    Mutant(
        "printed_error_bound_rounded_down", "cli.py",
        "_nstr_directed(cert.error_bound, 17, up=True)",
        "_nstr_directed(cert.error_bound, 17, up=False)",
        ("test_testfn.py::test_printed_bounds_round_in_the_safe_direction",),
        "the printed error series is an upper bound, so its digits round up",
    ),
    Mutant(
        "decimal_exponent_without_its_sign", "pointsets.py",
        "q = mantissa * power if exponent >= 0 else mantissa / power",
        "q = mantissa * power",
        ("test_pointsets.py::test_decimal_exponent_literal_is_read_exactly",),
        "a negative exponent divides the mantissa by its power of ten",
    ),
    Mutant(
        "digit_budget_at_ten_thirds_bits_a_digit", "pointsets.py",
        "if bits > MAX_DIGITS * math.log2(10):", "if bits > MAX_DIGITS * 10 / 3:",
        ("test_cli.py::test_digit_budget_boundary_exit_code",),
        "the bound is MAX_DIGITS log2(10) bits; at 10/3 bits a digit 333,333 bits pass the "
        "check, and str() then refuses their 100,344 digits",
    ),
    Mutant(
        "linf_closed_bound_reset_to_one_rise", "discrepancy.py",
        "closed_top += max(", "closed_top = max(",
        ("test_discrepancy.py::test_linf_matches_the_closed_form_of_van_der_corput",),
        "a skipped column's closed bound carries on to the next, raised by each rise",
    ),
    Mutant(
        "linf_closed_rise_one_short", "discrepancy.py",
        "enumerate([0.0, *ys])]) + slack", "enumerate([0.0, *ys])]) - 1 + slack",
        ("test_discrepancy.py::test_linf_matches_the_closed_form_of_van_der_corput",),
        "a closed bound one below its rise skips the column that holds the maximum",
    ),
    Mutant(
        "linf_closed_rise_with_twice_n_delta_y", "discrepancy.py",
        "k - d * fy for", "k - 2 * d * fy for",
        ("test_discrepancy.py::test_linf_matches_the_closed_form_of_van_der_corput",),
        "the closed side's maximum rises by k - N Delta y, with N Delta y taken once",
    ),
    Mutant(
        "linf_strict_side_copied_unshifted", "discrepancy.py",
        "else [0, *closed[:-1]])", "else closed)",
        ("test_grid_kernels.py::test_linf_takes_a_strict_side_from_the_last_closed_column",),
        "column i's strict counts are column i - 1's closed counts shifted down one y cut",
    ),
    Mutant(
        "l1_zero_at_the_upper_corner_counted_crossed", "discrepancy.py",
        "if k * bd * dd >= n_bn * dn:", "if k * bd * dd > n_bn * dn:",
        ("test_discrepancy.py::test_l1_matches_the_closed_form_of_van_der_corput",),
        "a cell where D >= 0 reaches 0 only at its upper-right corner is not crossed, "
        "so the L1 norm of van der Corput stays an exact rational",
    ),
    Mutant(
        "dyadic_coordinates_written_as_p_over_q", "pointsets.py",
        '    if q & (q - 1) == 0:\n        return f"{p}/2^{q.bit_length() - 1}"\n', "",
        ("test_pointsets.py::test_format_coordinate_forms_and_written_dyadic_literals",),
        "the writer prints a coordinate with a power-of-two denominator as a/2^k",
    ),
    Mutant(
        "csv_point_budget_one_past_its_cap", "pointsets.py",
        "check_point_budget(next_check + 1)", "check_point_budget(next_check)",
        ("test_cli.py::test_point_budget_refuses_a_mirrored_set_and_a_csv_past_it",),
        "`read_csv` refuses the point that would take the set past 2^MAX_POINTS_LOG2",
    ),
    Mutant(
        "point_budget_without_its_doublings", "pointsets.py",
        "if count > (1 << MAX_POINTS_LOG2) >> doublings:", "if count > 1 << MAX_POINTS_LOG2:",
        ("test_cli.py::test_gen_resource_limit",),
        "a van der Corput set of 2^m points is one point doubled m times",
    ),
    Mutant(
        "gen_vdc_budget_without_the_mirror", "cli.py",
        "pointsets.check_point_budget(1, max(args.m, 0) + args.mirror)",
        "pointsets.check_point_budget(1, max(args.m, 0))",
        ("test_cli.py::test_point_budget_refuses_a_mirrored_set_and_a_csv_past_it",),
        "`gen --mirror` refuses the doubled size before the generator makes half of it",
    ),
    Mutant(
        "gen_random_budget_without_the_mirror", "cli.py",
        "pointsets.check_point_budget(args.n, args.mirror)",
        "pointsets.check_point_budget(args.n)",
        ("test_cli.py::test_point_budget_refuses_a_mirrored_set_and_a_csv_past_it",),
        "`gen --mirror` refuses the doubled size before the generator makes half of it",
    ),
    Mutant(
        "literal_pair_unreduced", "pointsets.py",
        "    g = math.gcd(num, den)\n", "    g = 1\n",
        ("test_pointsets.py::test_integer_sets_match_the_fraction_oracle",),
        "a literal is read in lowest terms, so an axis's D is the lcm of lowest-terms "
        "denominators and equal sets hold equal integers",
    ),
    Mutant(
        "random_axis_unreduced", "pointsets.py",
        "g = math.gcd(den, math.gcd(*nums))", "g = 1",
        ("test_pointsets.py::test_generators_match_the_fraction_oracle",),
        "an axis of even 53-bit draws has a lowest-terms D below 2^53",
    ),
    Mutant(
        "symmetrize_maps_a_to_a", "pointsets.py",
        "xs + tuple(map(dx.__sub__, xs))", "xs + xs",
        ("test_pointsets.py::test_symmetrize",),
        "the mirror image of a / D is (D - a) / D",
    ),
    Mutant(
        "axis_budget_one_past_its_cap", "pointsets.py",
        "if count * (den.bit_length() - 64) > MAX_AXIS_BITS:",
        "if count * (den.bit_length() - 64) > MAX_AXIS_BITS + 1:",
        ("test_grid_kernels.py::test_axis_bit_budget_counts_every_integer",),
        "N numerators over D count N (bitlen(D) - 64) bits, refused one bit past MAX_AXIS_BITS",
    ),
    Mutant(
        "axis_budget_counts_the_first_64_bits", "pointsets.py",
        "if count * (den.bit_length() - 64) > MAX_AXIS_BITS:",
        "if count * den.bit_length() > MAX_AXIS_BITS:",
        ("test_grid_kernels.py::test_axis_bit_budget_counts_every_integer",),
        "a numerator's first 64 bits are paid for by the point budget, so a set with "
        "D <= 2^64, every generated one included, meets the point budget alone",
    ),
    Mutant(
        "dyadic_budget_checked_after_its_power", "pointsets.py",
        "        if exponent >= MAX_LITERAL_BITS:            # 2^k takes k + 1 bits\n",
        "        power = 1 << exponent\n"
        "        if exponent >= MAX_LITERAL_BITS:            # 2^k takes k + 1 bits\n",
        ("test_pointsets.py::test_literal_budget_refuses_before_building",),
        "a refused a/2^k literal never builds its 2^k",
    ),
    Mutant(
        "l1_log_term_from_the_unreduced_pair", "discrepancy.py",
        "    cuts = chain(zip(xs, x_logs), zip(ys, y_logs))",
        "    cuts = chain(zip(((a, qx) for a in xi), x_logs), zip(ys, y_logs))",
        ("test_grid_kernels.py::test_l1_terms_match_per_cell_oracle",),
        "a cut's logs are those of its lowest-terms numerator and denominator, not of "
        "its numerator over D: the enclosure's integers stay those of each cut",
    ),
)


def _pytest(src: Path, tests, cwd: Path) -> int:
    """pytest's exit code for `tests` run against the package under `src`.

    The ini file's `pythonpath` is overridden, so the tests import the copy
    and not the source tree; `PYTHONPATH` carries it into the interpreters
    that tests start.  No bytecode is written, so an edit never meets a
    stale cache, and Hypothesis keeps its examples in `cwd`.
    """
    command = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
               "-o", f"pythonpath={src}",
               *(str(ROOT / "tests" / t) for t in tests)]
    env = {**os.environ, "PYTHONPATH": str(src), "PYTHONDONTWRITEBYTECODE": "1"}
    return subprocess.run(command, cwd=cwd, env=env, capture_output=True).returncode


def main(names: list[str]) -> int:
    unknown = set(names) - {m.name for m in MUTANTS}
    if unknown:
        print(f"unknown mutants: {sorted(unknown)}")
        return 2
    mutants = [m for m in MUTANTS if not names or m.name in names]
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        src = work / "src"
        shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__"))
        tests = sorted({t for m in mutants for t in m.tests})
        if _pytest(src, tests, work) != 0:
            print("the named tests fail on the unedited source: no mutant can be judged")
            return 1
        failed = 0
        for m in mutants:
            target = src / "discrep" / m.path
            original = target.read_text(encoding="utf-8")
            if m.old not in original:
                print(f"STALE     {m.name}: its old text is not in {m.path}")
                failed += 1
                continue
            target.write_text(original.replace(m.old, m.new), encoding="utf-8")
            start = time.perf_counter()
            try:
                code = _pytest(src, m.tests, work)
            finally:
                target.write_text(original, encoding="utf-8")
            verdict = {0: "SURVIVED", 1: "killed"}.get(code, f"ERROR {code}")
            print(f"{verdict:9} {m.name} ({time.perf_counter() - start:.1f} s): {m.why}")
            failed += code != 1
    print(f"{len(mutants) - failed} of {len(mutants)} mutants killed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
