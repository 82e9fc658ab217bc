"""Generators, transforms, and exact CSV round trips."""

import tempfile
import time
import tracemalloc
from collections import namedtuple
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from discrep import auxiliary, pointsets
from discrep.auxiliary import _tree_integers
from discrep.cli import main
from discrep.errors import CsvFormatError, ResourceLimitError
from discrep.pointsets import (
    MAX_LITERAL_BITS,
    PointSet,
    format_coordinate,
    random_uniform,
    read_csv,
    symmetrize,
    van_der_corput,
    write_csv,
)
from oracles import (
    axes_oracle,
    fraction_points,
    grid_oracle,
    parse_coordinate_oracle,
    random_uniform_oracle,
    tree_integers_oracle,
    van_der_corput_oracle,
)


def test_van_der_corput_small():
    assert fraction_points(van_der_corput(0)) == ((Fraction(0), Fraction(0)),)
    ps = van_der_corput(2)
    assert set(fraction_points(ps)) == {
        (Fraction(0), Fraction(0)),
        (Fraction(1, 4), Fraction(1, 2)),
        (Fraction(1, 2), Fraction(1, 4)),
        (Fraction(3, 4), Fraction(3, 4)),
    }
    # bit reversal of 001 over three bits is 100
    assert fraction_points(van_der_corput(3))[1] == (Fraction(1, 8), Fraction(1, 2))
    assert van_der_corput(3).axes[1] == (8, (0, 4, 2, 6, 1, 5, 3, 7))


def test_van_der_corput_coordinates_distinct():
    for m in (1, 2, 3, 4):
        ps = van_der_corput(m)
        assert len({x for x, _ in fraction_points(ps)}) == len(ps)
        assert len({y for _, y in fraction_points(ps)}) == len(ps)


def test_van_der_corput_cap():
    with pytest.raises(ResourceLimitError):
        van_der_corput(25)


def test_random_uniform_deterministic():
    a = random_uniform(50, seed=7)
    b = random_uniform(50, seed=7)
    assert a.axes == b.axes
    assert a.axes != random_uniform(50, seed=8).axes
    assert all(x.denominator <= 1 << 53 for x, _ in fraction_points(a))


def test_random_uniform_mean_sanity():
    ps = random_uniform(1000, seed=7)
    mean_x = sum(x for x, _ in fraction_points(ps)) / len(ps)
    assert abs(mean_x - Fraction(1, 2)) < Fraction(5, 100)


def test_random_uniform_validation():
    with pytest.raises(ValueError):
        random_uniform(0, seed=1)


def test_symmetrize():
    assert fraction_points(symmetrize(PointSet(((Fraction(0), Fraction(0)),)))) == (
        (Fraction(0), Fraction(0)),
        (Fraction(1), Fraction(0)),
    )
    # a fixed point of the reflection is kept twice (multiset semantics)
    ps = symmetrize(PointSet(((Fraction(1, 2), Fraction(1, 4)),)))
    assert len(ps) == 2
    assert fraction_points(ps)[0] == fraction_points(ps)[1]
    mirrored = symmetrize(van_der_corput(2))
    assert len(mirrored) == 8
    assert (Fraction(3, 4), Fraction(1, 2)) in fraction_points(mirrored)
    # along x each numerator a becomes D - a, over the same D
    assert mirrored.axes[0] == (4, (0, 1, 2, 3, 4, 3, 2, 1))


def test_pointset_validates_range():
    with pytest.raises(ValueError):
        PointSet(((Fraction(3, 2), Fraction(0)),))


def test_pointset_is_an_immutable_record_that_caches(tmp_path):
    a = PointSet(((Fraction(1, 3), 0), (1, Fraction(1, 2))), label="s")
    b = PointSet(fraction_points(a), label="s")
    assert a == b and hash(a) == hash(b) and not a != b
    assert a != PointSet(fraction_points(a), label="t")
    # a record of other type with the same fields is not a point set
    fields = namedtuple("PointSet", "axes label")(a.axes, a.label)
    assert a != fields and fields != a
    assert a != (a.axes, a.label)
    assert a.axes == ((3, (1, 3)), (2, (0, 1)))
    assert repr(a) == "PointSet(axes=((3, (1, 3)), (2, (0, 1))), label='s')"
    # a set read from CSV is built without __init__, and is the same value
    write_csv(a, tmp_path / "s.csv")
    back = read_csv(tmp_path / "s.csv")
    assert back == a and hash(back) == hash(a)
    for name in ("axes", "label", "grid"):
        with pytest.raises(AttributeError, match="immutable"):
            setattr(a, name, None)
    grid, axes = a.grid, a.axes
    for name in ("axes", "label", "grid", "missing"):
        with pytest.raises(AttributeError, match="immutable"):
            delattr(a, name)
    # each cache is built once per set and kept
    assert a.grid is grid and a.axes is axes and _tree_integers(a) is _tree_integers(a)
    assert a.axes == b.axes and a.label == "s" and a.grid == b.grid


def parse(text):
    """The literal as `read_csv` reads it, with each 10^e built afresh, as a
    Fraction of the reader's pair, which must be in lowest terms."""
    num, den = pointsets._parse_coordinate(text, lambda exponent: 10 ** exponent)
    q = Fraction(num, den)
    assert (q.numerator, q.denominator) == (num, den)
    return q


def test_parse_coordinate_forms():
    assert parse("0.25") == Fraction(1, 4)
    assert parse("3/2^3") == Fraction(3, 8)
    assert parse("1/2^1") == Fraction(1, 2)
    assert parse("1/3") == Fraction(1, 3)
    assert parse("1") == 1


def outcome(parse, text):
    try:
        value = parse(text)
    except (ValueError, ZeroDivisionError) as exc:
        return type(exc), str(exc)
    return type(value), value


# ASCII, Arabic-Indic and fullwidth digits
DIGITS = "0123456789" + "\u0660\u0663\u0669" + "\uff10\uff15\uff19"
digits = st.text(DIGITS, min_size=1, max_size=5)
integer = st.builds(lambda sign, d: sign + d, st.sampled_from(["", "+", "-"]), digits)
# underscores between digit groups, and misplaced ones
grouped = st.builds("_".join, st.lists(digits, min_size=1, max_size=3))
numeral = st.one_of(digits, integer, grouped, st.sampled_from(["", "_1", "1_", "1__2", " "]))
literals = st.one_of(
    st.builds(lambda p, q: f"{p}/{q}", numeral, numeral),
    st.builds(lambda p, q, pad: f"{pad}{p}{pad}/{pad}{q}{pad}", numeral, numeral,
              st.sampled_from([" ", "\t", "\u3000"])),
    st.builds(lambda a, k: f"{a}/2^{k}", numeral, st.integers(0, 200)),
    st.builds(lambda i, f, e: f"{i}.{f}{e}", st.one_of(integer, st.just("")),
              st.one_of(grouped, st.just("")),
              st.sampled_from(["", "e-3", "E+2", "e0", "e-1_0", "e", "e-"])),
    st.builds(lambda i, e: f"{i}e{e}", integer, st.integers(-300, 300)),
    st.text("0123456789/_.eE+-^ \u0663\uff15", max_size=7),
)


@settings(max_examples=1000, deadline=None)
@given(literals)
@example("3/4")
@example("+3/4")
@example("3/-4")
@example("-3/-4")
@example("3 / 4")
@example("1/0")
@example("0/0")
@example("007/010")
@example("1_000/3")
@example("\u0663/\u0664")
@example("\uff13/\uff14")
@example("5/2^3")
@example("0.25")
@example("1.")
@example(".5e-2")
@example("1e-3/4")
@example("1/" + "9" * 5000)
def test_parse_coordinate_matches_the_general_reader(text):
    # the same value, or the same exception type and message
    assert outcome(parse, text) == outcome(parse_coordinate_oracle, text)


def test_literal_budget_refuses_before_building(tmp_path, monkeypatch):
    built = []                  # each power of ten, `_lowest` pair and Fraction built

    def spy(name, real):
        def call(*args):
            built.append((name, *args))
            return real(*args)
        return call

    power_of_ten = spy("10^", lambda exponent: 10 ** exponent)
    monkeypatch.setattr(pointsets, "_lowest", spy("_lowest", pointsets._lowest))
    monkeypatch.setattr(pointsets, "Fraction", spy("Fraction", Fraction))
    # 2^k takes k + 1 bits and 10^e about 3.32 e: 2^20 / log2(10) = 315652.8
    assert MAX_LITERAL_BITS == 1 << 20
    # the first refused literal's 2^k would take 128 KiB: refusing it
    # allocates under 64 KiB, so no power is built, inline or in a helper,
    # before the next (1.25 GB) is tried
    tracemalloc.start()
    try:
        for text in (f"1/2^{MAX_LITERAL_BITS}", "1/2^10000000000", "1e-315653", "2.5E+315653",
                     "1e-1_000_000_000"):
            before = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            with pytest.raises(ResourceLimitError, match="bit budget"):
                pointsets._parse_coordinate(text, power_of_ten)
            assert tracemalloc.get_traced_memory()[1] - before < 1 << 16, text
    finally:
        tracemalloc.stop()
    assert built == []
    k = MAX_LITERAL_BITS - 1
    assert pointsets._parse_coordinate(f"1/2^{k}", power_of_ten) == (1, 1 << k)
    assert pointsets._parse_coordinate("1e-315652", power_of_ten) == (1, 10 ** 315652)
    # the mantissa is read as a Fraction, and 10^e is built as an int
    assert built == [("_lowest", 1, 1 << k), ("Fraction", "1"), ("10^", 315652)]
    path = tmp_path / "big.csv"
    path.write_text("x,y\n1/2,1/3\n1/2,1/2^10000000000\n")
    with pytest.raises(ResourceLimitError, match=r"^line 3: 2\^10000000000 exceeds"):
        read_csv(path)


def test_literal_budget_boundary_parses():
    # the widest powers admitted, one below those refused above, are built
    # and read exactly, in well under a second
    assert parse("1e-315652") == Fraction(1, 10 ** 315652)
    assert parse("2.5E+315652") == Fraction(5, 2) * 10 ** 315652
    k = MAX_LITERAL_BITS - 1
    assert parse(f"3/2^{k}") == Fraction(3, 1 << k)


def _grouped(size):
    # digits, non-ASCII ones included, in one or two underscore groups
    return st.lists(st.text("0123456789\u0663", min_size=1, max_size=size),
                    min_size=1, max_size=2).map("_".join)


# the pattern's grammar, with exponents below 10^4: sign, digits, point,
# digits, e or E, signed exponent; the filter drops the forms with no digit
# before the exponent
decimal_exponents = st.builds(
    "{}{}{}{}{}{}".format, st.sampled_from(["", "+", "-"]), st.one_of(st.just(""), _grouped(4)),
    st.sampled_from(["", "."]), st.one_of(st.just(""), _grouped(4)),
    st.sampled_from(["e", "E", "e+", "E-", "e-"]), _grouped(2),
).filter(pointsets._DECIMAL_EXPONENT.fullmatch)


@settings(max_examples=300, deadline=None)
@given(decimal_exponents)
@example("-2e3")
@example("+2.5E-3")
@example(".5e1")
@example("7.e-1")
@example("1_000.2_5e-1_0")
@example("-0e-400")
@example("0.125")
@example("1.")
@example("-0")
@example("\u0663.\u06635")
def test_decimal_exponent_literal_is_read_exactly(text):
    # a literal the pattern matches is its mantissa times its 10^e, and
    # any other decimal is read by `Fraction(str)`: the value it reads
    assert parse(text) == Fraction(text)


def test_repeated_decimal_exponent_builds_its_power_once(tmp_path, capsys, monkeypatch):
    # 200 literals k e-315652, the widest power admitted: Fraction(str)
    # built 10^315652 for each, 11 s in all on a 2-core Xeon
    path = tmp_path / "tiny.csv"
    path.write_text("x,y\n" + "".join(f"{k}e-315652,1/2\n" for k in range(1, 201)))
    powers = []
    parse_literal = pointsets._parse_coordinate

    def spy(text, power_of_ten):
        def recorded(exponent):
            powers.append(power_of_ten(exponent))
            return powers[-1]
        return parse_literal(text, recorded)

    monkeypatch.setattr(pointsets, "_parse_coordinate", spy)
    # 200 numerators over a 1,048,572-bit common denominator pass the axis
    # budget, so the set is refused once the file is read
    with pytest.raises(ResourceLimitError, match="axis integers exceed"):
        read_csv(path)
    # the 200 literals get one 10^315652 object: it was built once
    assert len(powers) == 200 and all(power is powers[0] for power in powers)
    assert powers[0] == 10 ** 315652
    assert main(["norms", "--in", str(path)]) == 3
    assert "axis integers exceed" in capsys.readouterr().err
    # the first eight lines fit the budget, and are read exactly
    path.write_text("x,y\n" + "".join(f"{k}e-315652,1/2\n" for k in range(1, 9)))
    assert fraction_points(read_csv(path))[6][0] == Fraction(7, 10 ** 315652)


def test_distinct_decimal_exponents_share_one_budget(tmp_path, capsys):
    # 200 literals 1e-(315652 - k): each power alone is admitted, and
    # building all 200 took 7 s in `read_csv` on a 2-core Xeon before the
    # axis budget refused the set; the second power takes the file past
    # MAX_LITERAL_BITS
    path = tmp_path / "distinct.csv"
    path.write_text("x,y\n" + "".join(f"1e-{315652 - k},1/2\n" for k in range(200)))
    start = time.perf_counter()
    assert main(["norms", "--in", str(path)]) == 3
    assert time.perf_counter() - start < 1
    assert capsys.readouterr().err == ("resource limit: line 3: 10^315651 takes the file's powers "
                                       "of ten past the 1048576-bit budget\n")
    # each literal alone still parses, and a file of small distinct powers reads
    assert parse("1e-315651") == Fraction(1, 10 ** 315651)
    path.write_text("x,y\n" + "".join(f"1e-{k},1/2\n" for k in range(1, 201)))
    assert fraction_points(read_csv(path))[-1][0] == Fraction(1, 10 ** 200)


def test_csv_round_trip_exact(tmp_path, monkeypatch):
    pts = (
        (Fraction(0), Fraction(1)),
        (Fraction(1, 3), Fraction(5, 7)),         # non-dyadic rationals
        (Fraction(12345, 1 << 53), Fraction(1, 2)),
        (Fraction(1, 4), Fraction(1, 4)),          # duplicate below
        (Fraction(1, 4), Fraction(1, 4)),
    )
    ps = PointSet(pts, label="round trip")
    path = tmp_path / "pts.csv"
    write_csv(ps, path)
    # the reader checks each coordinate once, itself, with its line number
    coerced = []
    monkeypatch.setattr(pointsets, "as_coordinate", lambda q: coerced.append(q) or q)
    back = read_csv(path)
    assert coerced == []
    assert fraction_points(back) == pts and back.axes == ps.axes
    # x over lcm(1, 3, 2^53, 4) = 3 2^53, y over lcm(1, 7, 2, 4) = 28
    assert back.axes == ((3 << 53, (0, 1 << 53, 3 * 12345, 3 << 51, 3 << 51)),
                         (28, (28, 20, 14, 7, 7)))
    assert back.label == "round trip"
    assert back == ps and hash(back) == hash(ps)
    assert _tree_integers(back).distinct == 3 and back.grid == ps.grid


def test_format_coordinate_forms_and_written_dyadic_literals(tmp_path):
    forms = {Fraction(5, 16): "5/2^4", Fraction(1, 3): "1/3", Fraction(0): "0", Fraction(1): "1",
             Fraction(12345, 1 << 53): "12345/2^53", Fraction(3, 10): "3/10"}
    assert {q: format_coordinate(q.numerator, q.denominator) for q in forms} == forms
    # a pair is written in lowest terms
    assert [format_coordinate(6, 16), format_coordinate(4, 12), format_coordinate(7, 7)] == [
        "3/2^3", "1/3", "1"]
    path = tmp_path / "pts.csv"
    write_csv(PointSet(((Fraction(3, 8), Fraction(1, 3)), (1, Fraction(1, 2)))), path)
    assert path.read_text().splitlines() == ["x,y", "3/2^3,1/3", "1,1/2^1"]


def test_csv_reader_accepts_decimals_and_comments(tmp_path):
    path = tmp_path / "pts.csv"
    path.write_text("# a comment\nx,y\n0.25,0.5\n# another\n3/2^3,1/2^1\n")
    ps = read_csv(path)
    assert fraction_points(ps) == (
        (Fraction(1, 4), Fraction(1, 2)),
        (Fraction(3, 8), Fraction(1, 2)),
    )
    assert ps.axes == ((8, (2, 3)), (2, (1, 1)))


def test_csv_reader_errors_carry_line_numbers(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("x,y\n0.25,0.5\nnot-a-number,0.5\n")
    with pytest.raises(CsvFormatError, match="line 3"):
        read_csv(path)
    path.write_text("1.5,0.2\n")
    with pytest.raises(CsvFormatError, match="outside"):
        read_csv(path)
    path.write_text("0.1,0.2,0.3\n")
    with pytest.raises(CsvFormatError, match="line 1"):
        read_csv(path)


def test_coordinates_keep_their_fraction_and_range_check():
    third = Fraction(1, 3)
    ps = PointSet(((third, 1), ("1/2", 0.25), (0, Fraction(1))))
    assert ps.axes == ((6, (2, 3, 0)), (4, (4, 1, 4)))
    assert fraction_points(ps) == ((third, 1), (Fraction(1, 2), Fraction(1, 4)), (0, 1))
    for bad, shown in ((Fraction(3, 2), "3/2"), (Fraction(-1, 3), "-1/3"), (-1, "-1"), ("4/3", "4/3")):
        with pytest.raises(ValueError, match=rf"^coordinate {shown} outside \[0, 1\]$"):
            PointSet(((Fraction(1, 2), bad),))


def test_csv_reader_refuses_negative_coordinates_by_line(tmp_path):
    path = tmp_path / "neg.csv"
    path.write_text("x,y\n1/2,1/3\n-1/2^2,1/2\n")
    with pytest.raises(CsvFormatError, match=r"^line 3: coordinate outside \[0, 1\]$"):
        read_csv(path)


# ---------------------------------------------------------------------------
# integer axes against Fractions
# ---------------------------------------------------------------------------

TWIN_GAP = Fraction(1, 1 << 1000)
coordinates = st.one_of(
    st.sampled_from([Fraction(0), Fraction(1)]),
    st.integers(0, 60).flatmap(lambda k: st.integers(0, 1 << k).map(lambda a: Fraction(a, 1 << k))),
    st.integers(0, 1 << 53).map(lambda a: Fraction(a, 1 << 53)),
    st.tuples(st.sampled_from([3, 5, 7, 101, 8191, (1 << 61) - 1]), st.integers(0, 1 << 62))
    .map(lambda t: Fraction(t[1] % (t[0] + 1), t[0])),
    st.integers(0, 3 ** 20).map(lambda a: Fraction(a, 3 ** 20)),
    st.integers(0, 10 ** 16).map(lambda a: Fraction(a, 10 ** 16)),
)


@st.composite
def fraction_sets(draw):
    """Dyadic, 2^53, odd-prime, 3^20 and decimal coordinates, 0 and 1,
    duplicates, N = 1, and twins 2^-1000 apart."""
    pts = draw(st.lists(st.tuples(coordinates, coordinates), min_size=1, max_size=6))
    pts += draw(st.lists(st.sampled_from(pts), max_size=2))
    if draw(st.booleans()):
        inside = coordinates.filter(lambda q: q < 1)
        x, y = draw(inside), draw(inside)
        pts += [(x, y), (x + TWIN_GAP, y + TWIN_GAP)]
    return draw(st.permutations(pts))


def literal(q: Fraction, pick: int) -> str:
    """One of the literals `read_csv` reads as q: p/q, unreduced p/q and
    a/2^k, and the decimal forms when q's denominator divides a power of ten."""
    p, d = q.numerator, q.denominator
    forms = [f"{p}/{d}", f"{3 * p}/{3 * d}"]
    if d & (d - 1) == 0:
        forms.append(f"{p << 2}/2^{d.bit_length() + 1}")
    twos = (d & -d).bit_length() - 1
    rest, fives = d >> twos, 0
    while rest % 5 == 0:
        rest, fives = rest // 5, fives + 1
    if rest == 1:
        j = max(twos, fives)
        a = p * 10 ** j // d
        forms += [f"{a}e-{j}", f"{a // 10 ** j}.{a % 10 ** j:0{j}d}" if j else str(a)]
    return forms[pick % len(forms)]


@settings(max_examples=150, deadline=None)
@given(fraction_sets(), st.lists(st.integers(0, 5), min_size=32, max_size=32))
def test_integer_sets_match_the_fraction_oracle(points, picks):
    # each axis is one D, the lcm of its lowest-terms denominators, and the
    # numerators q D, however the set is made or written
    ps = PointSet(points, label="drawn")
    assert ps.axes == axes_oracle(points)
    assert fraction_points(ps) == tuple(points) and len(ps) == len(points)
    assert ps.grid == grid_oracle(ps)
    assert _tree_integers(ps) == tree_integers_oracle(points)
    mirrored = symmetrize(ps)
    assert mirrored.axes == axes_oracle(points + [(1 - x, y) for x, y in points])
    assert mirrored == PointSet(points + [(1 - x, y) for x, y in points], label="drawn+xmirror")
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "drawn.csv"
        write_csv(ps, path)
        assert read_csv(path) == ps
        path.write_text("x,y\n" + "".join(f"{literal(x, a)},{literal(y, b)}\n" for (x, y), a, b
                                          in zip(points, picks[::2], picks[1::2])))
        back = read_csv(path)
        assert back.axes == ps.axes and back.grid == ps.grid


def test_generators_match_the_fraction_oracle():
    for m in range(8):
        points = van_der_corput_oracle(m)
        ps = van_der_corput(m)
        assert ps.axes == axes_oracle(points) and fraction_points(ps) == points
        assert symmetrize(ps).axes == axes_oracle(points + tuple((1 - x, y) for x, y in points))
    draws = [(n, seed) for n in (1, 2, 17) for seed in range(8)]
    for n, seed in draws:
        points = random_uniform_oracle(n, seed)
        ps = random_uniform(n, seed)
        assert ps.axes == axes_oracle(points) and fraction_points(ps) == points
        assert ps == PointSet(points, label=f"uniform_n{n}_seed{seed}")
    # one draw that is even: D is 2^53 reduced, as a set of Fractions has it
    assert any(random_uniform(1, seed).axes[0][0] < 1 << 53 for _, seed in draws)


def test_csv_read_builds_no_fraction(tmp_path, monkeypatch):
    def no_fraction(*args):
        raise AssertionError(f"Fraction{args} built")

    path = tmp_path / "pts.csv"
    # a/2^k, p/q and integer literals, as `gen` and `write_csv` print them
    path.write_text("x,y\n3/2^3,1/3\n12345/2^53,7/10\n1/4,1/1000\n1,0\n6/8,2/6\n")
    for module in (pointsets, auxiliary):
        monkeypatch.setattr(module, "Fraction", no_fraction)
    ps = read_csv(path)
    grid, record = ps.grid, _tree_integers(ps)
    write_csv(ps, tmp_path / "back.csv")
    monkeypatch.undo()
    F = Fraction
    assert fraction_points(ps) == ((F(3, 8), F(1, 3)), (F(12345, 1 << 53), F(7, 10)),
                                   (F(1, 4), F(1, 1000)), (1, 0), (F(3, 4), F(1, 3)))
    assert grid == grid_oracle(ps) and record == tree_integers_oracle(fraction_points(ps))
    assert read_csv(tmp_path / "back.csv").axes == ps.axes


def test_random_uniform_takes_under_100_bytes_a_point():
    # two 53-bit ints and two tuple slots a point, 80 B, and the draws'
    # tuple while the axes are sliced from it: 96 B at the peak
    tracemalloc.start()
    try:
        ps = random_uniform(1 << 14, 1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 100 * len(ps)
