"""Command-line surface: schemas, determinism, and exit codes."""

import json
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from discrep.cli import main
from discrep.pointsets import read_csv


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
    assert both.points == base.points + tuple((1 - p.x, p.y) for p in base)


@pytest.mark.parametrize("kind, missing", [("vdc", "--m"), ("random", "--n")])
def test_gen_without_its_size_is_usage_error(tmp_path, capsys, kind, missing):
    out = tmp_path / "x.csv"
    code, _, err = run(capsys, "gen", "--kind", kind, "--out", str(out))
    assert code == 2
    assert f"requires {missing}" in err
    assert not out.exists()


def test_gen_resource_limit(tmp_path, capsys, monkeypatch):
    def no_point(*args):
        raise AssertionError("point built past the cap")

    # both generators stop at 2^24 points, before the first one is built
    monkeypatch.setattr("discrep.pointsets.Point", no_point)
    out = tmp_path / "x.csv"
    for argv in (["--kind", "vdc", "--m", "99"], ["--kind", "random", "--n", str((1 << 24) + 1)],
                 ["--kind", "random", "--n", str(10**9)]):
        code, _, err = run(capsys, "gen", *argv, "--out", str(out))
        assert code == 3
        assert "resource limit" in err and "2^24" in err
        assert not out.exists()


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
    assert float(payload["l1"]) == 13 / 16
    code, stdout, _ = run(capsys, "norms", "--in", str(out), "--which", "l2", "--json")
    assert json.loads(stdout)["l2_sq"] == "887/1152"


def test_norms_l1_keeps_17_digits_at_low_precision(tmp_path, capsys):
    # one point at (1/3, 1/3): the exact L1 norm is 97/324 = 0.2993827160493827160...
    one = tmp_path / "one.csv"
    one.write_text("x,y\n1/3,1/3\n")
    for precision in ("5", "50"):
        code, stdout, _ = run(capsys, "norms", "--in", str(one), "--json", "--precision", precision)
        assert code == 0
        payload = json.loads(stdout)
        assert (payload["l1"], payload["l1_err"]) == ("0.29938271604938272", "0.0")


@pytest.mark.parametrize("precision", ["0", "-3"])
def test_precision_below_one_is_usage_error(precision):
    with pytest.raises(SystemExit) as exc:
        main(["norms", "--in", str(GOLDEN / "mixed.csv"), "--precision", precision])
    assert exc.value.code == 2


def test_low_precision_certifies_l1_at_twelve_digits(capsys):
    # mixed.csv has log cells; below 12 digits L1 is still enclosed at 12
    payloads = {}
    for precision in ("1", "12", "50"):
        code, stdout, _ = run(capsys, "norms", "--in", str(GOLDEN / "mixed.csv"), "--json",
                              "--precision", precision)
        assert code == 0
        payloads[precision] = json.loads(stdout)
    (low, low_err), (high, high_err) = (
        (Fraction(p["l1"]), Fraction(p["l1_err"])) for p in (payloads["1"], payloads["50"]))
    assert low_err <= Fraction(1, 10 ** 12) * low
    # both midpoints are within their errors of the norm, and each printed
    # 17-digit decimal within 5e-17 of its midpoint
    assert abs(low - high) <= low_err + high_err + Fraction(1, 10 ** 16) * high
    del payloads["1"]["config"], payloads["12"]["config"]
    assert payloads["1"] == payloads["12"]


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


def test_norms_mc_deterministic(tmp_path, capsys):
    out = tmp_path / "p.csv"
    run(capsys, "gen", "--kind", "vdc", "--m", "2", "--out", str(out))
    args = ("norms", "--in", str(out), "--which", "l1", "--method", "mc",
            "--samples", "20000", "--seed", "5", "--json")
    code, first, _ = run(capsys, *args)
    assert code == 0
    code, second, _ = run(capsys, *args)
    assert first == second
    payload = json.loads(first)
    assert payload["config"]["seed"] == 5
    assert payload["config"]["samples"] == 20000
    assert float(payload["stderr"]) > 0


def test_norms_mc_sample_cap_is_resource_limit(capsys, monkeypatch):
    # numpy made unimportable: the cap is hit before any array is allocated
    monkeypatch.setitem(sys.modules, "numpy", None)
    code, stdout, err = run(capsys, "norms", "--in", str(GOLDEN / "vdc3.csv"), "--which", "l1",
                            "--method", "mc", "--samples", str(10**12))
    assert code == 3 and stdout == ""
    assert "resource limit" in err and "2^24" in err


@pytest.mark.parametrize("which", ["linf", "dn"])
def test_norms_mc_refuses_norms_it_cannot_estimate(which, capsys):
    csv = str(GOLDEN / "vdc3.csv")
    base = ("norms", "--in", csv, "--method", "mc", "--samples", "1000", "--json")
    code, stdout, stderr = run(capsys, *base, "--which", which)
    assert code == 2 and stdout == ""
    assert "mc" in stderr and which in stderr
    # the default and the two estimable norms still print their estimate
    outputs = {}
    for kept in ("all", "l1", "l2"):
        code, outputs[kept], _ = run(capsys, *base, "--which", kept)
        assert code == 0
    assert outputs["all"] == outputs["l1"]
    assert json.loads(outputs["l1"])["which"] == "l1"
    assert json.loads(outputs["l2"])["which"] == "l2"

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


def test_lemmas_max_level_sets_the_suite_depth(capsys):
    mixed = str(GOLDEN / "mixed.csv")
    for max_level, levels in (("0", 1), ("1", 2), ("3", 4)):
        code, stdout, _ = run(capsys, "lemmas", "--in", mixed, "--max-level", max_level, "--json")
        assert code == 0
        payload = json.loads(stdout)
        assert payload["config"]["max_level"] == int(max_level)
        counts = [c["witness"] for c in payload["checks"] if c["name"] == "level_counts"]
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
    assert "PASS level_counts: i=0: 1 levels" in stdout
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
        return SuiteReport(ps.label, 1, (CheckResult("level_counts", False, "i=0: forged"),))

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
    # the suite samples nothing: --seed reaches only the config echo
    out = tmp_path / "p.csv"
    run(capsys, "gen", "--kind", "random", "--n", "3", "--seed", "12", "--out", str(out))
    payloads = []
    for extra in ((), ("--seed", "0")):
        code, stdout, _ = run(capsys, "lemmas", "--in", str(out), "--json", *extra)
        assert code == 0
        payloads.append(json.loads(stdout))
    assert payloads[0]["checks"] == payloads[1]["checks"]
    assert [p["config"]["seed"] for p in payloads] == [None, 0]


@pytest.mark.parametrize("command", ["norms", "aux", "lemmas", "certificate"])
def test_literal_budget_exit_code(tmp_path, capsys, monkeypatch, command):
    from discrep import pointsets

    def no_power(*args):
        raise AssertionError("power built for a literal over the bit budget")

    # 15 bytes that would ask for a denominator of 10^10 bits
    path = tmp_path / "huge.csv"
    path.write_text("x,y\n1/2,1/3\n1/2^10000000000,1/2\n")
    monkeypatch.setattr(pointsets, "dyadic", no_power)
    code, stdout, err = run(capsys, command, "--in", str(path))
    assert code == 3 and stdout == ""
    assert "line 3" in err and "bit budget" in err


def test_norms_grid_budget_exit_code(tmp_path, capsys, monkeypatch):
    from discrep import discrepancy, pointsets
    from discrep.errors import ResourceLimitError
    from oracles import prime_reciprocals

    refused = []
    columns = discrepancy._columns

    def watched(grid):
        try:
            columns(grid)
        except ResourceLimitError:
            refused.append(len(grid))
            raise
        raise AssertionError("columns streamed for an oversize grid")

    def no_integers(cuts):
        raise AssertionError("axis integers built for an oversize grid")

    # 4097 distinct prime denominators per axis: 4098^2 cells, over the
    # 2^24-cell budget, and a common denominator of about 56,000 bits
    primes = tmp_path / "primes.csv"
    pointsets.write_csv(prime_reciprocals(4097), primes)
    monkeypatch.setattr(discrepancy, "_columns", watched)
    monkeypatch.setattr(pointsets, "_axis_integers", no_integers)
    for which in ("all", "l1", "linf", "dn"):
        code, stdout, err = run(capsys, "norms", "--in", str(primes), "--which", which, "--json")
        assert code == 3 and stdout == ""
        assert "cell budget" in err
    assert refused == [4097] * 4
    monkeypatch.undo()
    # L2 reads no column: the bit budget of its axis integers refuses it
    code, stdout, err = run(capsys, "norms", "--in", str(primes), "--which", "l2", "--json")
    assert code == 3 and stdout == ""
    assert "bit budget" in err
    # and a set over the cell budget whose integers are small gets its value
    side = 4097
    big = tmp_path / "big.csv"
    big.write_text("x,y\n" + "".join(f"{k}/{side},{side - k}/{side}\n" for k in range(side)))
    code, stdout, _ = run(capsys, "norms", "--in", str(big), "--which", "l2", "--json")
    assert code == 0
    payload = json.loads(stdout)
    assert payload["n_points"] == side
    assert payload["l2_sq"] == str(discrepancy.l2_norm_sq(pointsets.read_csv(big)))


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
    assert "constants" in payload

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
        code, stdout, _ = run(capsys, "lemmas", "--in", str(out), "--json", "--seed", "9")
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


def _golden_runs():
    # vdc m=3 (n=4), and four points with non-dyadic coordinates, a duplicate
    # and one point on x = 1 (n=3); comb and lin take each input's n.  The
    # certificate also runs below the default precision of 50 digits, and
    # comb at the largest table the caps allow.  aux, certificate and lemmas
    # also run with trees cut at --max-level 0, where lemmas skips its product
    # checks, and at 2, the product checks' level.
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


def test_every_golden_file_has_a_run():
    names = {name for name, _ in GOLDEN_RUNS}
    files = {path.name[: -len(".json")] for path in GOLDEN.glob("*.json")}
    assert files == names


@pytest.mark.parametrize("name, argv", GOLDEN_RUNS, ids=[name for name, _ in GOLDEN_RUNS])
def test_golden_json_output(name, argv, capsys):
    """`--json` output is byte-identical to tests/golden/<name>.json.

    The expected files are the stdout of `python -m discrep.cli <argv>`;
    regenerate them only for a change that is meant to alter the output.
    """
    code, stdout, _ = run(capsys, *argv)
    assert code == 0
    assert stdout == (GOLDEN / f"{name}.json").read_text(encoding="utf-8")
