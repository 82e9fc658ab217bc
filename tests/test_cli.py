"""Command-line surface: schemas, determinism, and exit codes."""

import gc
import json
import os
import re
import subprocess
import sys
from fnmatch import fnmatchcase
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import HealthCheck, event, given, settings, strategies as st

from discrep import auxiliary, cli
from discrep.cli import main
from discrep.pointsets import read_csv
from oracles import fraction_points


GOLDEN = Path(__file__).parent / "golden"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_gen_vdc_and_norms_roundtrip(tmp_path, capsys):
    out = tmp_path / "p.csv"
    code, stdout, _ = run(capsys, "gen", "--kind", "vdc", "--m", "3", "--out", str(out))
    assert code == 0
    assert "wrote 8 points" in stdout
    # 8 data lines after the label comment and header
    lines = out.read_text().strip().splitlines()
    assert len(lines) == 11

    code, stdout, _ = run(capsys, "norms", "--in", str(out), "--json")
    assert code == 0
    payload = json.loads(stdout)
    for key in ("n_points", "l1", "l1_err", "l2_sq", "linf", "d_n"):
        assert key in payload
    assert payload["n_points"] == 8
    assert "/" in payload["l2_sq"]


def test_gen_random_deterministic(tmp_path, capsys):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert run(capsys, "gen", "--kind", "random", "--n", "16", "--seed", "7", "--out", str(a))[0] == 0
    assert run(capsys, "gen", "--kind", "random", "--n", "16", "--seed", "7", "--out", str(b))[0] == 0
    assert a.read_text() == b.read_text()


def test_gen_random_without_seed_is_seed_zero(tmp_path, capsys):
    # the config line echoes the seed the set was drawn with
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert run(capsys, "gen", "--kind", "random", "--n", "3", "--out", str(a))[0] == 0
    assert run(capsys, "gen", "--kind", "random", "--n", "3", "--seed", "0", "--out", str(b))[0] == 0
    assert a.read_bytes() == b.read_bytes()
    assert "seed=0" in a.read_text() and read_csv(a).label == "uniform_n3_seed0"


def test_gen_mirror_appends_the_mirrored_copy(tmp_path, capsys):
    plain, mirrored = tmp_path / "p.csv", tmp_path / "m.csv"
    assert run(capsys, "gen", "--kind", "vdc", "--m", "2", "--out", str(plain))[0] == 0
    code, stdout, _ = run(capsys, "gen", "--kind", "vdc", "--m", "2", "--mirror",
                          "--out", str(mirrored))
    assert code == 0 and "wrote 8 points" in stdout
    base, both = read_csv(plain), read_csv(mirrored)
    assert both.label == "vdc_m2+xmirror"
    points = fraction_points(base)
    assert fraction_points(both) == points + tuple((1 - x, y) for x, y in points)


@pytest.mark.parametrize("kind, missing", [("vdc", "--m"), ("random", "--n")])
def test_gen_without_its_size_is_usage_error(tmp_path, capsys, kind, missing):
    out = tmp_path / "x.csv"
    code, _, err = run(capsys, "gen", "--kind", kind, "--out", str(out))
    assert code == 2
    assert f"requires {missing}" in err
    assert not out.exists()


def test_gen_resource_limit(tmp_path, capsys, monkeypatch):
    def no_set(*args):
        raise AssertionError("a generator ran past the cap")

    # both generators stop at 2^24 points, and so does a mirror that would
    # take a set past them: `gen` refuses the size before a generator runs,
    # so no point is built
    for name in ("van_der_corput", "random_uniform", "symmetrize"):
        monkeypatch.setattr(f"discrep.pointsets.{name}", no_set)
    out = tmp_path / "x.csv"
    for argv in (["--kind", "vdc", "--m", "99"], ["--kind", "random", "--n", str((1 << 24) + 1)],
                 ["--kind", "random", "--n", str(10**9)], ["--kind", "vdc", "--m", "24", "--mirror"],
                 ["--kind", "random", "--n", str((1 << 23) + 1), "--mirror"],
                 ["--kind", "vdc", "--m", str(10**30), "--mirror"]):
        code, _, err = run(capsys, "gen", *argv, "--out", str(out))
        assert code == 3
        assert "resource limit" in err and "2^24" in err
        assert not out.exists()


def test_point_budget_refuses_a_mirrored_set_and_a_csv_past_it(tmp_path, capsys, monkeypatch):
    from discrep import pointsets
    from discrep.errors import ResourceLimitError

    # at a cap of 2^2 points: vdc m = 1 mirrored holds 4, m = 2 mirrored 8;
    # random n = 2 mirrored holds 4, n = 3 mirrored 6
    monkeypatch.setattr(pointsets, "MAX_POINTS_LOG2", 2)
    made = []
    for name in ("van_der_corput", "random_uniform"):
        def spy(*args, make=getattr(pointsets, name), name=name):
            made.append(name)
            return make(*args)
        monkeypatch.setattr(pointsets, name, spy)
    out = tmp_path / "m.csv"
    for kind, size in (("vdc", ("--m", "1")), ("random", ("--n", "2"))):
        assert run(capsys, "gen", "--kind", kind, *size, "--mirror", "--out", str(out))[0] == 0
        assert len(read_csv(out)) == 4
        out.unlink()
    assert made == ["van_der_corput", "random_uniform"]
    # the doubled size is refused before a generator runs
    for kind, size in (("vdc", ("--m", "2")), ("random", ("--n", "3"))):
        code, _, err = run(capsys, "gen", "--kind", kind, *size, "--mirror", "--out", str(out))
        assert code == 3 and err == "resource limit: more than 2^2 points\n"
        assert not out.exists()
    assert made == ["van_der_corput", "random_uniform"]
    # `read_csv` stops at the fifth point, by its line; comments do not count
    path = tmp_path / "five.csv"
    path.write_text("x,y\n# four points fit\n" + "".join(f"{k}/2^3,1/2\n" for k in range(5)))
    code, _, err = run(capsys, "norms", "--in", str(path))
    assert code == 3 and err == "resource limit: line 7: more than 2^2 points\n"
    path.write_text("x,y\n# four points fit\n" + "".join(f"{k}/2^3,1/2\n" for k in range(4)))
    assert len(read_csv(path)) == 4
    # the mirror's refusal comes before any mirror point is made: the
    # base's x numerators cannot be read
    class Unread(tuple):
        def __iter__(self):
            raise AssertionError("a mirror point made past the cap")

    (dx, xs), y_axis = pointsets.van_der_corput(2).axes
    base = pointsets._pointset(((dx, Unread(xs)), y_axis), "vdc_m2")
    with pytest.raises(ResourceLimitError):
        pointsets.symmetrize(base)


def test_gen_unknown_kind_usage_error(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["gen", "--kind", "sobol", "--out", str(tmp_path / "x.csv")])
    assert exc.value.code == 2


def test_norms_exact_single_norm(tmp_path, capsys):
    out = tmp_path / "p.csv"
    run(capsys, "gen", "--kind", "vdc", "--m", "2", "--out", str(out))
    code, stdout, _ = run(capsys, "norms", "--in", str(out), "--which", "l1", "--json")
    assert code == 0
    payload = json.loads(stdout)
    assert set(payload) == {"config", "n_points", "l1", "l1_err"}
    assert Fraction(payload["l1"]) == Fraction(13, 16) and payload["l1_err"] == "0"
    code, stdout, _ = run(capsys, "norms", "--in", str(out), "--which", "l2", "--json")
    assert json.loads(stdout)["l2_sq"] == "887/1152"


def test_norms_l1_keeps_17_digits_at_low_precision(tmp_path, capsys):
    # one point at (1/3, 1/3): the exact L1 norm 97/324 is printed exactly
    one = tmp_path / "one.csv"
    one.write_text("x,y\n1/3,1/3\n")
    for precision in ("5", "50"):
        code, stdout, _ = run(capsys, "norms", "--in", str(one), "--json", "--precision", precision)
        assert code == 0
        payload = json.loads(stdout)
        assert (payload["l1"], payload["l1_err"]) == ("97/324", "0")


@pytest.mark.parametrize("precision", ["0", "-3"])
def test_precision_below_one_is_usage_error(precision):
    with pytest.raises(SystemExit) as exc:
        main(["norms", "--in", str(GOLDEN / "mixed.csv"), "--precision", precision])
    assert exc.value.code == 2


def test_low_precision_certifies_l1_at_twelve_digits(capsys):
    # mixed.csv has log cells; L1 is enclosed at L1_DPS = 20 digits whatever
    # --precision is, so the norms are the same at every precision
    payloads = {}
    for precision in ("1", "12", "50"):
        code, stdout, _ = run(capsys, "norms", "--in", str(GOLDEN / "mixed.csv"), "--json",
                              "--precision", precision)
        assert code == 0
        payloads[precision] = json.loads(stdout)
    low, low_err = Fraction(payloads["1"]["l1"]), Fraction(payloads["1"]["l1_err"])
    assert low_err <= Fraction(1, 10 ** 12) * low
    for payload in payloads.values():
        del payload["config"]
    assert payloads["1"] == payloads["12"] == payloads["50"]


def test_norms_which_computes_only_that_norm(capsys, monkeypatch):
    from discrep import discrepancy

    csv = str(GOLDEN / "mixed.csv")
    code, stdout, _ = run(capsys, "norms", "--in", csv, "--json")
    full = json.loads(stdout)
    calls = []
    for name in ("l1_norm", "linf_norm", "l2_norm_sq"):
        def counting(*args, norm=getattr(discrepancy, name), name=name, **kwargs):
            calls.append(name)
            return norm(*args, **kwargs)
        monkeypatch.setattr(discrepancy, name, counting)
    wanted = {"l1": (["l1_norm"], ("l1", "l1_err")), "l2": (["l2_norm_sq"], ("l2_sq",)),
              "linf": (["linf_norm"], ("linf",)), "dn": (["l1_norm"], ("d_n",))}
    for which, (kernels, keys) in wanted.items():
        calls.clear()
        code, stdout, _ = run(capsys, "norms", "--in", csv, "--which", which, "--json")
        assert code == 0
        assert calls == kernels
        # the same bytes as the keys of the full report
        assert json.loads(stdout) == {
            "config": full["config"], "n_points": full["n_points"], **{k: full[k] for k in keys}}


def test_norms_method_flag_is_gone(capsys):
    # norms computes the exact norms only; a Monte-Carlo estimate is a test oracle
    with pytest.raises(SystemExit) as exc:
        main(["norms", "--in", str(GOLDEN / "vdc3.csv"), "--method", "mc"])
    assert exc.value.code == 2
    assert "--method" in capsys.readouterr().err


def test_exact_norms_past_4300_digits(tmp_path, capsys):
    # Python refuses str() of an int of over 4,300 digits unless the limit
    # is raised, which main does: the L2 norm of this point has about 8,800
    # digits
    from discrep.discrepancy import l2_norm_sq

    path = tmp_path / "p.csv"
    path.write_text("x,y\n1e-2200,1/2\n")
    code, stdout, _ = run(capsys, "norms", "--in", str(path), "--json")
    assert code == 0
    payload = json.loads(stdout)
    assert Fraction(payload["l2_sq"]) == l2_norm_sq(read_csv(path))
    assert len(payload["l2_sq"]) > 4300 and payload["l1_err"] == "0"
    # the widest literal admitted has an L2 norm of about 630,000 digits
    path.write_text("x,y\n1e-315652,1/2\n")
    code, stdout, err = run(capsys, "norms", "--in", str(path), "--which", "l2")
    assert code == 3 and stdout == ""
    assert err.startswith("resource limit: ") and "100000-digit budget" in err


def test_digit_budget_boundary_exit_code(tmp_path, capsys):
    # L-infinity of one point (2^-k, 1/2) is 1 - 2^-(k+1), whose denominator
    # has k + 2 bits; 332,192 bits print in at most 100,000 digits
    path = tmp_path / "p.csv"
    path.write_text("x,y\n1/2^332190,1/2\n")
    code, stdout, _ = run(capsys, "norms", "--in", str(path), "--which", "linf", "--json")
    assert code == 0
    assert Fraction(json.loads(stdout)["linf"]) == 1 - Fraction(1, 2 ** 332191)
    path.write_text("x,y\n1/2^332191,1/2\n")
    code, stdout, err = run(capsys, "norms", "--in", str(path), "--which", "linf", "--json")
    assert code == 3 and stdout == ""
    assert err == "resource limit: a 332193-bit integer exceeds the 100000-digit budget\n"


def test_digit_literal_budget_exit_code(tmp_path, capsys):
    # a literal of 100,000 characters is read; one more exits 3 before any
    # digit is read, and names its line
    path = tmp_path / "p.csv"
    for digits, exit_code in ((99998, 0), (99999, 3)):
        path.write_text(f"x,y\n1/2,1/2\n0.{'0' * (digits - 1)}1,1/2\n")
        code, stdout, err = run(capsys, "aux", "--in", str(path))
        assert code == exit_code
    assert stdout == ""
    assert err == "resource limit: line 3: 100001 characters exceed the 100000-digit budget\n"


def test_aux_summaries(tmp_path, capsys):
    out = tmp_path / "p.csv"
    run(capsys, "gen", "--kind", "vdc", "--m", "2", "--out", str(out))
    code, stdout, _ = run(capsys, "aux", "--in", str(out), "--json")
    assert code == 0
    payload = json.loads(stdout)
    assert len(payload["trees"]) == 4  # n = 3
    tree = payload["trees"][0]
    assert set(tree) == {"i", "n", "levels", "stabilized", "l_star", "sum_area_sq", "inner_product"}


@pytest.mark.parametrize("command", ["aux", "certificate", "lemmas"])
@pytest.mark.parametrize("max_level, exit_code, message", [("-2", 2, "error"), ("70", 3, "resource limit")])
def test_max_level_outside_range_exit_codes(capsys, command, max_level, exit_code, message):
    code, stdout, err = run(
        capsys, command, "--in", str(GOLDEN / "vdc3.csv"), "--max-level", max_level, "--json"
    )
    assert code == exit_code
    assert stdout == ""
    assert err.startswith(message) and "max_level" in err


@pytest.mark.parametrize("command", ["certificate", "aux", "lemmas"])
def test_commands_keep_one_tree_alive(tmp_path, capsys, monkeypatch, command):
    # n = 6 > PRODUCT_MAX_N, so the suite keeps no tree for its product
    # checks; each tree must be dropped before the next is built.  A
    # NamedTuple takes no weak reference, so the live trees are counted
    # among the collector's objects, those of the set being built alone.
    out = tmp_path / "p.csv"
    run(capsys, "gen", "--kind", "vdc", "--m", "5", "--out", str(out))
    assert auxiliary.n_from_pointcount(32) == 6 > auxiliary.PRODUCT_MAX_N
    build, alive = auxiliary.build_tree, []

    def counting(ps, direction, max_level=None):
        alive.append(sum(type(o) is auxiliary.AuxFamilyTree and o.pointset is ps
                         for o in gc.get_objects()))
        return build(ps, direction, max_level)

    monkeypatch.setattr(auxiliary, "build_tree", counting)
    code, _, _ = run(capsys, command, "--in", str(out), "--json")
    assert code == 0
    assert len(alive) == 7 and max(alive) <= 1


def test_lemmas_max_level_sets_the_suite_depth(capsys):
    mixed = str(GOLDEN / "mixed.csv")
    for max_level, levels in (("0", 1), ("1", 2), ("3", 4)):
        code, stdout, _ = run(capsys, "lemmas", "--in", mixed, "--max-level", max_level, "--json")
        assert code == 0
        payload = json.loads(stdout)
        assert payload["config"]["max_level"] == int(max_level)
        counts = [c["witness"] for c in payload["checks"] if c["name"] == "cluster_partition"]
        assert counts == [f"i={i}: {levels} levels" for i in range(4)]
        products = [c for c in payload["checks"] if c["name"].startswith("product")]
        if levels < 3:
            # trees that stop before level 2 leave the product checks skipped
            assert len(products) == 2 and payload["skipped"] == 2
            assert all(c["skipped"] and not c["passed"] for c in products)
        else:
            assert len(products) == 4 and payload["skipped"] == 0
            assert all(c["passed"] for c in products)
    code, stdout, _ = run(capsys, "lemmas", "--in", mixed, "--max-level", "0")
    assert "PASS cluster_partition: i=0: 1 levels" in stdout
    assert stdout.count("SKIP product_bounds") == 2


def test_lemmas_pass_and_exit_codes(tmp_path, capsys):
    out = tmp_path / "p.csv"
    run(capsys, "gen", "--kind", "vdc", "--m", "2", "--out", str(out))
    code, stdout, _ = run(capsys, "lemmas", "--in", str(out), "--json")
    assert code == 0
    payload = json.loads(stdout)
    assert payload["passed"] is True
    assert all(c["passed"] for c in payload["checks"])


def test_lemmas_text_mode(tmp_path, capsys):
    out = tmp_path / "p.csv"
    run(capsys, "gen", "--kind", "vdc", "--m", "1", "--out", str(out))
    code, stdout, _ = run(capsys, "lemmas", "--in", str(out))
    assert code == 0
    assert "overall: PASS" in stdout


def test_lemmas_failing_check_exits_nonzero(tmp_path, capsys, monkeypatch):
    # corrupted-construction hook: a failing suite must map to exit code 1
    from discrep.auxiliary import CheckResult, SuiteReport

    def fake_suite(ps, **kwargs):
        return SuiteReport(ps.label, 1, (CheckResult("cluster_partition", False, "i=0: forged"),))

    monkeypatch.setattr("discrep.cli.auxiliary.lemma_suite", fake_suite)
    out = tmp_path / "p.csv"
    run(capsys, "gen", "--kind", "vdc", "--m", "1", "--out", str(out))
    code, stdout, _ = run(capsys, "lemmas", "--in", str(out), "--json")
    assert code == 1
    payload = json.loads(stdout)
    assert payload["passed"] is False
    assert "forged" in payload["checks"][0]["witness"]


def test_lemmas_skipped_product_check_is_not_passed(tmp_path, capsys):
    out = tmp_path / "p.csv"
    run(capsys, "gen", "--kind", "vdc", "--m", "4", "--out", str(out))  # N = 16, n = 5
    code, stdout, _ = run(capsys, "lemmas", "--in", str(out), "--json")
    assert code == 0
    payload = json.loads(stdout)
    skipped = [c for c in payload["checks"] if c["skipped"]]
    assert [c["name"] for c in skipped] == ["product_bounds"]
    assert skipped[0]["passed"] is False
    assert payload["passed"] is True
    assert payload["skipped"] == 1

    code, text, _ = run(capsys, "lemmas", "--in", str(out))
    assert code == 0
    assert "SKIP product_bounds: skipped: n=5" in text
    assert "overall: PASS (1 skipped)" in text


def test_lemmas_checks_do_not_depend_on_seed(tmp_path, capsys):
    # the suite samples nothing, so lemmas takes no --seed (refused below)
    # and its config echoes the seed as null
    out = tmp_path / "p.csv"
    run(capsys, "gen", "--kind", "random", "--n", "3", "--seed", "12", "--out", str(out))
    code, stdout, _ = run(capsys, "lemmas", "--in", str(out), "--json")
    assert code == 0
    payload = json.loads(stdout)
    assert payload["passed"] and payload["config"]["seed"] is None


@pytest.mark.parametrize("argv", [
    ["norms", "--in", str(GOLDEN / "vdc3.csv"), "--max-level", "3"],
    ["lemmas", "--in", str(GOLDEN / "vdc3.csv"), "--seed", "0"],
    ["comb", "--n", "2", "--k", "3", "--seed", "1"],
    ["gen", "--kind", "vdc", "--m", "2", "--out", "p.csv", "--max-level", "1"],
], ids=["norms-max-level", "lemmas-seed", "comb-seed", "gen-max-level"])
def test_options_a_command_does_not_read_are_usage_errors(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_literal_budget_boundary_exit_code(tmp_path, capsys):
    # the largest decimal exponent admitted is read; the next one exits 3
    path = tmp_path / "p.csv"
    path.write_text("x,y\n1e-315652,1/2\n")
    assert run(capsys, "aux", "--in", str(path))[0] == 0
    path.write_text("x,y\n1e-315653,1/2\n")
    code, stdout, err = run(capsys, "aux", "--in", str(path))
    assert code == 3 and stdout == ""
    assert err == "resource limit: line 2: 10^315653 exceeds the 1048576-bit budget\n"


def test_lemmas_prints_a_wide_d_error_as_a_power_of_two(tmp_path, capsys):
    # the product witness's d_error has a 1,048,583-bit denominator here, too
    # wide for exact_str: it prints as the least power of two at or above
    # it, and every check still runs, as on a point with a narrow x
    from discrep.auxiliary import build_trees, product_bound_check

    path = tmp_path / "p.csv"
    checks = {}
    for x in ("1e-3", "1e-315652"):
        path.write_text(f"x,y\n{x},1/2\n")
        code, stdout, _ = run(capsys, "lemmas", "--in", str(path), "--json")
        assert code == 0
        checks[x] = json.loads(stdout)["checks"]
    assert [(c["name"], c["passed"], c["skipped"]) for c in checks["1e-315652"]] == \
        [(c["name"], c["passed"], c["skipped"]) for c in checks["1e-3"]]
    assert checks["1e-315652"][-1]["name"] == "product_discrepancy_bound"
    ps = read_csv(path)
    d_error = product_bound_check(ps, (0, 1), build_trees(ps)).d_error
    assert Fraction(1, 2 ** 9) < d_error <= Fraction(1, 2 ** 8)
    assert checks["1e-315652"][-1]["witness"].endswith(" + 2^-8")


@pytest.mark.parametrize("command", ["norms", "aux", "lemmas", "certificate"])
def test_literal_budget_exit_code(tmp_path, capsys, monkeypatch, command):
    from discrep import pointsets

    lowest = pointsets._lowest

    def no_power(num, den):
        # every a/2^k literal's pair passes here, with its 2^k
        assert den.bit_length() <= pointsets.MAX_LITERAL_BITS, "power built over the bit budget"
        return lowest(num, den)

    # 15 bytes that would ask for a denominator of 10^10 bits
    path = tmp_path / "huge.csv"
    path.write_text("x,y\n1/2,1/3\n1/2^10000000000,1/2\n")
    monkeypatch.setattr(pointsets, "_lowest", no_power)
    code, stdout, err = run(capsys, command, "--in", str(path))
    assert code == 3 and stdout == ""
    assert "line 3" in err and "bit budget" in err


def test_norms_grid_budget_exit_code(tmp_path, capsys, monkeypatch):
    from discrep import discrepancy, pointsets
    from discrep.errors import ResourceLimitError

    refused = []
    check = discrepancy._check_grid_budget

    def watched(grid):
        try:
            check(grid)
        except ResourceLimitError:
            refused.append(sum(map(len, grid.y_ranks)))
            raise
        raise AssertionError("the budget let an oversize grid through")

    def no_columns(grid):
        raise AssertionError("columns streamed for an oversize grid")

    # 4097 points over D = 4097 on the antidiagonal: 4097^2 cells, over the
    # 2^24-cell budget, of small integers
    side = 4097
    big = tmp_path / "big.csv"
    big.write_text("x,y\n" + "".join(f"{k}/{side},{side - k}/{side}\n" for k in range(side)))
    monkeypatch.setattr(discrepancy, "_check_grid_budget", watched)
    monkeypatch.setattr(discrepancy, "_columns", no_columns)
    monkeypatch.setattr(discrepancy, "accumulate", no_columns)
    for which in ("all", "l1", "linf", "dn"):
        code, stdout, err = run(capsys, "norms", "--in", str(big), "--which", which, "--json")
        assert code == 3 and stdout == ""
        assert "cell budget" in err
    assert refused == [4097] * 4
    monkeypatch.undo()
    # L2 has no cell budget, and gets its value
    code, stdout, _ = run(capsys, "norms", "--in", str(big), "--which", "l2", "--json")
    assert code == 0
    payload = json.loads(stdout)
    assert payload["n_points"] == side
    assert payload["l2_sq"] == str(discrepancy.l2_norm_sq(pointsets.read_csv(big)))


@pytest.mark.parametrize("argv", [["norms", "--which", "linf"], ["norms", "--which", "l2"],
                                  ["aux"], ["certificate"]])
def test_axis_budget_refuses_a_csv_before_any_numerator(tmp_path, capsys, monkeypatch, argv):
    from discrep import pointsets
    from oracles import prime_reciprocals

    def no_numerator(*args):
        raise AssertionError("a numerator was built over the oversize denominator")

    # 4097 distinct prime denominators per axis: a common denominator of
    # about 56,000 bits, 4097 times over, past the 2^27-bit budget, which
    # trees and L-infinity once accepted
    path = tmp_path / "primes.csv"
    path.write_text("x,y\n" + "".join(f"{x.numerator}/{x.denominator},{y.numerator}/{y.denominator}\n"
                                      for x, y in prime_reciprocals(4097)))
    monkeypatch.setattr(pointsets, "mul", no_numerator)
    code, stdout, err = run(capsys, *argv, "--in", str(path))
    assert code == 3 and stdout == ""
    assert err == f"resource limit: axis integers exceed the {pointsets.MAX_AXIS_BITS}-bit budget\n"


def test_comb_json(capsys):
    code, stdout, _ = run(capsys, "comb", "--n", "1", "--k", "3", "--json")
    assert code == 0
    payload = json.loads(stdout)
    assert payload["A"] == {"1": "4"}
    code, stdout, _ = run(capsys, "comb", "--n", "2", "--k", "3", "--json")
    assert json.loads(stdout)["A"]["1"] == "7"


def test_comb_resource_limit(capsys):
    code, _, err = run(capsys, "comb", "--n", "13", "--k", "3")
    assert code == 3


def test_lin_report(capsys):
    code, stdout, _ = run(capsys, "lin", "--n", "4", "--order", "21", "--json")
    assert code == 0
    payload = json.loads(stdout)
    assert float(payload["two_route_gap"]) < 1e-10
    assert abs(float(payload["limit_sin"]) - 0.6065306597126334) < 1e-14


def test_lin_resource_limit(capsys, monkeypatch):
    from discrep.testfn import LIN_MAX_N

    def no_moment(*args):
        raise AssertionError("moment computed past the cap")

    monkeypatch.setattr("discrep.testfn.sign_sum_moment", no_moment)
    for n in (LIN_MAX_N + 1, 8000):
        code, stdout, err = run(capsys, "lin", "--n", str(n), "--json")
        assert code == 3
        assert stdout == ""
        assert "resource limit" in err and str(LIN_MAX_N) in err


def test_lin_even_order_usage_error(capsys):
    code, _, err = run(capsys, "lin", "--n", "4", "--order", "2")
    assert code == 2


def test_certificate_json_and_edge_case(tmp_path, capsys):
    out = tmp_path / "p.csv"
    run(capsys, "gen", "--kind", "vdc", "--m", "3", "--out", str(out))
    code, stdout, _ = run(capsys, "certificate", "--in", str(out), "--json")
    assert code == 0
    payload = json.loads(stdout)
    assert payload["N"] == 8 and payload["n"] == 4
    assert float(payload["l1_lower_bound"]) > 0

    single = tmp_path / "one.csv"
    single.write_text("x,y\n0,0\n")
    code, stdout, _ = run(capsys, "certificate", "--in", str(single), "--json")
    assert code == 0
    assert json.loads(stdout)["d_n_bound"] is None


def test_certificate_missing_file(capsys):
    code, _, err = run(capsys, "certificate", "--in", "/nonexistent/file.csv")
    assert code == 2


def test_constants_output(capsys):
    code, stdout, _ = run(capsys, "constants", "--json")
    assert code == 0
    payload = json.loads(stdout)
    assert payload["constants"]["liminf_dn_lower"].startswith("0.00853731")
    assert payload["dn_lower_bound_limit"].startswith("0.01138308")

    code, text, _ = run(capsys, "constants")
    assert "limsup_dn_lower" in text


def test_byte_identical_reruns(tmp_path, capsys):
    out = tmp_path / "p.csv"
    run(capsys, "gen", "--kind", "vdc", "--m", "2", "--out", str(out))
    outputs = []
    for _ in range(2):
        code, stdout, _ = run(capsys, "lemmas", "--in", str(out), "--json", "--samples", "9")
        assert code == 0
        outputs.append(stdout)
    assert outputs[0] == outputs[1]


def test_blank_csv_lines_are_skipped(tmp_path, capsys):
    clean, blank = tmp_path / "clean.csv", tmp_path / "blank.csv"
    clean.write_text("x,y\n1/3,1/2\n0,1/2^3\n")
    blank.write_text("\nx,y\n\n1/3,1/2\n   \n0,1/2^3\n\n")
    code, stdout, _ = run(capsys, "norms", "--in", str(blank), "--json")
    assert code == 0
    assert json.loads(stdout)["n_points"] == 2
    assert stdout == run(capsys, "norms", "--in", str(clean), "--json")[1]


def test_bad_csv_is_usage_error(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("x,y\n2.0,0.5\n")
    code, _, err = run(capsys, "norms", "--in", str(bad))
    assert code == 2
    assert "line 2" in err


@pytest.mark.parametrize("argv", [["norms", "--in", "{dir}"],
                                  ["gen", "--kind", "vdc", "--m", "2", "--out", "{dir}"]])
def test_directory_path_is_usage_error(tmp_path, capsys, argv):
    code, stdout, err = run(capsys, *(a.format(dir=tmp_path) for a in argv))
    assert code == 2 and stdout == ""
    assert err.startswith("error: ") and "Traceback" not in err


@pytest.mark.parametrize("argv, exit_code", [
    (["norms", "--in", "{dir}"], 2),
    (["aux", "--in", str(GOLDEN / "vdc3.csv"), "--max-level", "65"], 3),
    (["lemmas", "--in", str(GOLDEN / "vdc3.csv")], 0),
], ids=["directory", "max-level-65", "lemmas"])
def test_module_entry_point_exit_codes(tmp_path, argv, exit_code):
    # `python -m discrep.cli`, one interpreter per case, on the package the
    # tests import: each outcome leaves by its exit code, with no traceback
    src = Path(cli.__file__).resolve().parents[1]
    done = subprocess.run(
        [sys.executable, "-m", "discrep.cli", *(a.format(dir=tmp_path) for a in argv)],
        env={**os.environ, "PYTHONPATH": str(src)}, capture_output=True, text=True)
    assert done.returncode == exit_code, done.stderr
    assert "Traceback" not in done.stderr


# Flag values at and past the caps that are cheap to reach (comb's n <= 12
# and k <= 11, lin's odd order <= 41, the 64 tree levels), just past the
# others (gen's --m <= 24, lin's --n <= 2^11), and past Python's integers.
EDGE_INTS = ("-9223372036854775808", "-1", "0", "1", "2", "3", "4", "11", "12", "13", "25",
             "41", "43", "64", "65", "2049", str(2 ** 31), str(10 ** 30), "x")
LITERALS = ("0", "1", "1/2", "1/3", "2/3", "1/2^3", "0.25", "1e-3", "3E-2", " 1/7 ", "5/2^70")
BAD_LITERALS = ("-1", "2", "1/0", "nan", "inf", "", "x", "1/2^10000000000", "1e-999999999",
                "0x1")
COMMON_FLAGS = ("--json", "--samples", "--precision")
COMMANDS = {
    "gen": ("--kind", "--m", "--n", "--mirror", "--out"),
    "norms": ("--in", "--which"),
    "aux": ("--in", "--index"),
    "lemmas": ("--in",),
    "comb": ("--n", "--k"),
    "lin": ("--n", "--order"),
    "certificate": ("--in",),
    "constants": (),
}
# the flags a command takes that are drawn like the common ones, not always given
DRAWN_FLAGS = {"gen": ("--seed",), "aux": ("--max-level",), "lemmas": ("--max-level",),
               "certificate": ("--max-level",)}
CHOICES = {"--kind": ("vdc", "random", "sobol"), "--which": ("l1", "l2", "linf", "dn", "all", "l3")}


@st.composite
def _cli_runs(draw):
    """A drawn argv over the subcommands' own and common flags, with the
    paths as "{in}" and "{out}", and the bytes of the CSV file "{in}"."""
    command = draw(st.sampled_from(sorted(COMMANDS)))
    argv = [command]
    flags = COMMANDS[command]
    drawn = flags + COMMON_FLAGS + DRAWN_FLAGS.get(command, ())
    for flag in draw(st.lists(st.sampled_from(drawn), max_size=5)) + list(flags):
        if flag in ("--json", "--mirror"):
            argv.append(flag)
        elif flag in ("--in", "--out"):
            argv += [flag, "{" + flag[2:] + "}"]
        else:
            argv += [flag, draw(st.sampled_from(CHOICES.get(flag, EDGE_INTS)))]
    literal = st.sampled_from(LITERALS)
    rows = st.lists(st.tuples(literal, literal), min_size=1, max_size=6)
    bad = st.lists(st.tuples(literal, st.sampled_from(BAD_LITERALS)), max_size=1)
    body = draw(st.one_of(
        st.builds(lambda good, worse: "x,y\n" + "".join(f"{x},{y}\n" for x, y in good + worse),
                  rows, bad),
        st.text(max_size=30),
    ).map(str.encode) | st.binary(max_size=30))
    return argv, body


def _exit_code(argv) -> int:
    try:
        return main(argv)
    except SystemExit as exc:           # argparse refuses the command line
        return exc.code


@given(run=_cli_runs())
@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_exit_code_contract_under_fuzzing(tmp_path, capsys, run):
    # every run exits 0, 2 or 3, or 1 from lemmas with a failed check, and
    # raises nothing else; a successful run prints the same bytes again
    argv, body = run
    paths = {"in": tmp_path / "in.csv", "out": tmp_path / "out.csv"}
    paths["in"].write_bytes(body)
    argv = [a.format_map(paths) for a in argv]
    code = _exit_code(argv)
    stdout = capsys.readouterr().out
    event(f"{argv[0]} exit {code}")
    assert code in (0, 2, 3) or (code == 1 and argv[0] == "lemmas"
                                 and ("FAIL" in stdout or '"passed": false' in stdout))
    if code == 0:
        assert _exit_code(argv) == 0
        assert capsys.readouterr().out == stdout


@pytest.mark.parametrize("argv", [
    ["certificate", "--in", str(GOLDEN / "vdc3.csv")],
    ["certificate", "--in", str(GOLDEN / "mixed.csv")],
    ["lin", "--n", "4"],
], ids=["certificate-vdc3", "certificate-mixed", "lin"])
def test_precision_changes_nothing_but_the_echo(capsys, argv):
    # every computation runs at its own fixed precision and none samples:
    # --precision (checked) and --samples are echoed, and read by no command
    payloads = []
    for flag, values in (("--precision", ("1", "20", "50", "100")),
                         ("--samples", ("-1", "0", "1000", str(10 ** 12)))):
        for value in values:
            code, stdout, _ = run(capsys, *argv, "--json", flag, value)
            assert code == 0
            payload = json.loads(stdout)
            assert payload.pop("config")[flag[2:]] == int(value)
            payloads.append(payload)
    assert all(payload == payloads[0] for payload in payloads)


def _golden_runs():
    # vdc m=3 (n=4), and four points with non-dyadic coordinates, a duplicate
    # and one point on x = 1 (n=3); comb and lin take each input's n.  The
    # certificate also runs at --precision 20, whose payload equals the
    # default run's apart from the echoed config, as no command reads
    # --precision; comb also runs at the largest table the caps allow.  aux,
    # certificate and lemmas also run with trees cut at --max-level 0, where
    # lemmas skips its product checks, and at 2, the product checks' level.
    for stem, n in (("vdc3", 4), ("mixed", 3)):
        csv = str(GOLDEN / f"{stem}.csv")
        for command in ("norms", "aux", "certificate", "lemmas"):
            yield f"{stem}.{command}", [command, "--in", csv, "--json"]
        yield f"{stem}.certificate.p20", ["certificate", "--in", csv, "--precision", "20",
                                          "--json"]
        for command in ("aux", "certificate", "lemmas"):
            for level in (0, 2):
                yield f"{stem}.{command}.maxlevel{level}", [
                    command, "--in", csv, "--max-level", str(level), "--json"]
        yield f"{stem}.comb", ["comb", "--n", str(n), "--k", "3", "--json"]
        yield f"{stem}.lin", ["lin", "--n", str(n), "--json"]
    yield "comb.n12k11", ["comb", "--n", "12", "--k", "11", "--json"]
    yield "constants", ["constants", "--json"]


GOLDEN_RUNS = list(_golden_runs())
# text mode, for each command's default run on each input
TEXT_RUNS = [(name, [arg for arg in argv if arg != "--json"])
             for name, argv in GOLDEN_RUNS if name.count(".") <= 1]


def test_every_golden_file_has_a_run():
    for runs, suffix in ((GOLDEN_RUNS, ".json"), (TEXT_RUNS, ".txt")):
        files = {path.name[: -len(suffix)] for path in GOLDEN.glob(f"*{suffix}")}
        assert files == {name for name, _ in runs}


@pytest.mark.parametrize("name, argv", GOLDEN_RUNS, ids=[name for name, _ in GOLDEN_RUNS])
def test_golden_json_output(name, argv, capsys):
    """`--json` output is byte-identical to tests/golden/<name>.json.

    The expected files are the stdout of `python -m discrep.cli <argv>`;
    regenerate them only for a change that is meant to alter the output.
    """
    code, stdout, _ = run(capsys, *argv)
    assert code == 0
    assert stdout == (GOLDEN / f"{name}.json").read_text(encoding="utf-8")


@pytest.mark.parametrize("name, argv", TEXT_RUNS, ids=[name for name, _ in TEXT_RUNS])
def test_golden_text_output(name, argv, capsys):
    """Text-mode output is byte-identical to tests/golden/<name>.txt, made
    the same way as the `--json` goldens."""
    code, stdout, _ = run(capsys, *argv)
    assert code == 0
    assert stdout == (GOLDEN / f"{name}.txt").read_text(encoding="utf-8")


# The output contract (ROADMAP item 10): every number printed is exact, a
# bound rounded in its safe direction, or a value printed with its error
# field.  A path joins the dict keys down to a leaf with "." and skips list
# indices; "*" matches any key.  A value named with its error field maps to
# that field's path.
EXACT, DOWN, UP = "exact", "rounded down", "rounded up"
CONFIG_CONTRACT = {f"config.{k}": EXACT for k in ("seed", "samples", "precision", "max_level")}
CONTRACT = {
    "norms": {"n_points": EXACT, "l2_sq": EXACT, "linf": EXACT, "l1": "l1_err", "l1_err": UP},
    # the built levels' sum of |R|^2 and the inner product over them are
    # exact once a tree stabilizes, and bound the whole tree's otherwise
    "aux": {"n_points": EXACT, "trees.i": EXACT, "trees.n": EXACT, "trees.l_star": EXACT,
            "trees.levels.*": EXACT, "trees.sum_area_sq": DOWN, "trees.inner_product": UP},
    "lemmas": {"n": EXACT, "skipped": EXACT},
    "certificate": {"N": EXACT, "n": EXACT, "inner_product_sum": "inner_product_error",
                    "inner_product_error": EXACT, "main_term": DOWN, "error_bound": UP,
                    "l1_lower_bound": DOWN, "d_n_bound": DOWN},
    "comb": {"n": EXACT, "k": EXACT, "A.*": EXACT},
    "lin": {"n": EXACT, "order": EXACT},
    "constants": {},
}
# Numbers printed today outside the contract, each a float rounded to
# nearest (ROADMAP item 10).  The lin and constants bytes are pinned by the
# benchmark's digests (ROADMAP item 1), so they change with those pins.
PINNED = "ROADMAP items 10 and 1: rounded to nearest, and its bytes are pinned"
KNOWN_VIOLATIONS = {
    "norms": {"d_n": "ROADMAP item 10: L1 over sqrt(ln N) as a .12g float; a directed d_n "
                     "needs an interval sqrt(ln N), which would load mpmath on exact sets"},
    "lin": dict.fromkeys(("lin_n_sin", "series_crosscheck", "two_route_gap", "limit_sin",
                          "sqrt_n_times_lin"), PINNED),
    "constants": dict.fromkeys(("constants.*", "dn_lower_bound_table", "dn_lower_bound_limit"),
                               PINNED),
}
EXACT_FORM = re.compile(r"-?\d+(/\d+)?")


def _leaves(node, path=""):
    """(path, value, the dict or list holding it) for every scalar of a payload."""
    items = node.items() if isinstance(node, dict) else ((None, value) for value in node)
    for key, value in items:
        child = path if key is None else f"{path}.{key}" if path else key
        if isinstance(value, (dict, list)):
            yield from _leaves(value, child)
        else:
            yield child, value, node


def _is_number(value) -> bool:
    if value is None or isinstance(value, bool):
        return False
    try:
        Fraction(value)
    except ValueError:
        return False
    return True


def _kind(table: dict, path: str):
    return next((kind for pattern, kind in table.items() if fnmatchcase(path, pattern)), None)


def test_every_printed_number_is_exact_directed_or_carries_its_error(capsys):
    unused = {(command, pattern) for command, known in KNOWN_VIOLATIONS.items()
              for pattern in known}
    for name, argv in GOLDEN_RUNS:
        command = argv[0]
        code, stdout, _ = run(capsys, *argv)
        assert code == 0
        table = {**CONFIG_CONTRACT, **CONTRACT[command]}
        for path, value, holder in _leaves(json.loads(stdout)):
            if not _is_number(value):
                continue
            known = _kind({p: p for p in KNOWN_VIOLATIONS.get(command, {})}, path)
            if known is not None:
                unused.discard((command, known))
                continue
            kind = _kind(table, path)
            where = f"{name}: {path} = {value!r}"
            assert kind is not None, f"{where} is neither exact, directed nor with its error"
            if kind == EXACT:
                assert type(value) is int or EXACT_FORM.fullmatch(value), f"{where} is not exact"
            elif kind not in (DOWN, UP):
                # the error field sits beside the value and is exact or rounded up
                error_path = f"{path.rpartition('.')[0]}.{kind}".lstrip(".")
                assert _is_number(holder.get(kind)), f"{where} is printed without {kind}"
                assert table[error_path] in (EXACT, UP), f"{where}: {kind} may be low"
    assert not unused, f"known violations no longer printed: {sorted(unused)}"
