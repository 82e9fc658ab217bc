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
        "root_pair_split_without_bucketing", "auxiliary.py",
        "if len(members) == 2 and c[3] >= 0:", "if len(members) == 2:",
        ("test_auxiliary.py::test_bucket_and_tree_match_fraction_floor",),
        "the root's two points may share their level-0 cell, so the root is bucketed",
    ),
    Mutant(
        "pair_members_in_reverse_order", "auxiliary.py",
        "formed.append(lone[members[0]])\n                    formed.append(lone[members[1]])",
        "formed.append(lone[members[1]])\n                    formed.append(lone[members[0]])",
        ("test_auxiliary.py::test_bucket_and_tree_match_fraction_floor",),
        "a parted pair's clusters come out in member order, as bucketing would emit them",
    ),
    Mutant(
        "fresh_one_point_cluster", "auxiliary.py",
        "formed.append(lone[part])", "formed.append(((part,), xs[part], ys[part], HARD_LEVEL_CAP))",
        ("test_auxiliary.py::test_lone_clusters_are_shared_across_trees_and_builds",),
        "every tree and level shares each point's one one-point cluster",
    ),
    Mutant(
        "distinct_count_on_the_integers", "auxiliary.py",
        "distinct = len({(x.numerator, x.denominator, y.numerator, y.denominator)\n"
        "                        for x, y in (points[t] for t in interior)})",
        "distinct = len({(xs[t], ys[t]) for t in interior})",
        ("test_auxiliary.py::test_tree_integers_match_fraction_oracle",
         "test_auxiliary.py::test_bucket_and_tree_match_fraction_floor"),
        "points closer than 2^-S share their integers but are distinct, and never stabilize",
    ),
    Mutant(
        "interior_with_x_1", "auxiliary.py",
        "if x.numerator < x.denominator and y.numerator < y.denominator)",
        "if x.numerator <= x.denominator and y.numerator < y.denominator)",
        ("test_auxiliary.py::test_tree_integers_match_fraction_oracle",),
        "a point on x = 1 lies in no half-open dyadic rectangle",
    ),
    Mutant(
        "cuts_sorted_by_the_64_bit_key_alone", "pointsets.py",
        "key=lambda item: ((item[0][0] << 64) // item[0][1], item[1]))",
        "key=lambda item: (item[0][0] << 64) // item[0][1])",
        ("test_grid_kernels.py::test_grid_matches_sort_and_bisect_oracle",),
        "two cuts within 2^-64 of each other share their key and are ordered as Fractions",
    ),
    Mutant(
        "linf_seeded_below_the_top_of_x_0", "discrepancy.py",
        "best_num, best_den = first[-1], 1\n    high = float(first[-1])",
        "best_num, best_den = max(first[:-1]), 1\n    high = float(max(first[:-1]))",
        ("test_grid_kernels.py::test_linf_filter_matches_exact_scans",),
        "the x = 0 column's largest deviation is its count at y = 1, which points on (0, 1) reach",
    ),
    Mutant(
        "fraction_fast_path_checks_only_p", "pointsets.py",
        "if slash and num.isdecimal() and den.isdecimal():", "if slash and num.isdecimal():",
        ("test_pointsets.py::test_parse_coordinate_matches_the_general_reader",),
        "only a literal with decimal digits on both sides of its slash is read as p/q",
    ),
    Mutant(
        "one_power_a_bit_finer", "testfn.py",
        "mpi_pow_int(sin_a, p, prec)", "mpi_pow_int(sin_a, p, prec + 1)",
        ("test_testfn.py::test_certificate_matches_iv_objects",
         "test_testfn.py::test_odd_terms_match_iv_objects"),
        "every interval operation of the certificate runs at the one precision prec",
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
