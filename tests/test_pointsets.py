"""Generators, transforms, and exact CSV round trips."""

from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from discrep import pointsets
from discrep.auxiliary import _tree_integers
from discrep.errors import CsvFormatError, ResourceLimitError
from discrep.pointsets import (
    MAX_AXIS_BITS,
    MAX_LITERAL_BITS,
    Point,
    PointSet,
    parse_coordinate,
    random_uniform,
    read_csv,
    symmetrize,
    van_der_corput,
    write_csv,
)
from oracles import parse_coordinate_oracle


def test_van_der_corput_small():
    assert van_der_corput(0).points == (Point(Fraction(0), Fraction(0)),)
    ps = van_der_corput(2)
    assert set(ps.points) == {
        Point(Fraction(0), Fraction(0)),
        Point(Fraction(1, 4), Fraction(1, 2)),
        Point(Fraction(1, 2), Fraction(1, 4)),
        Point(Fraction(3, 4), Fraction(3, 4)),
    }
    # bit reversal of 001 over three bits is 100
    assert van_der_corput(3).points[1] == Point(Fraction(1, 8), Fraction(1, 2))


def test_van_der_corput_coordinates_distinct():
    for m in (1, 2, 3, 4):
        ps = van_der_corput(m)
        assert len({p.x for p in ps}) == len(ps)
        assert len({p.y for p in ps}) == len(ps)


def test_van_der_corput_cap():
    with pytest.raises(ResourceLimitError):
        van_der_corput(25)


def test_random_uniform_deterministic():
    a = random_uniform(50, seed=7)
    b = random_uniform(50, seed=7)
    assert a.points == b.points
    assert a.points != random_uniform(50, seed=8).points
    assert all(p.x.denominator <= 1 << 53 for p in a)


def test_random_uniform_mean_sanity():
    ps = random_uniform(1000, seed=7)
    mean_x = sum(p.x for p in ps) / len(ps)
    assert abs(mean_x - Fraction(1, 2)) < Fraction(5, 100)


def test_random_uniform_validation():
    with pytest.raises(ValueError):
        random_uniform(0, seed=1)


def test_symmetrize():
    assert symmetrize(PointSet((Point(Fraction(0), Fraction(0)),))).points == (
        Point(Fraction(0), Fraction(0)),
        Point(Fraction(1), Fraction(0)),
    )
    # a fixed point of the reflection is kept twice (multiset semantics)
    ps = symmetrize(PointSet((Point(Fraction(1, 2), Fraction(1, 4)),)))
    assert len(ps) == 2
    assert ps.points[0] == ps.points[1]
    mirrored = symmetrize(van_der_corput(2))
    assert len(mirrored) == 8
    assert Point(Fraction(3, 4), Fraction(1, 2)) in mirrored.points


def test_pointset_validates_range():
    with pytest.raises(ValueError):
        PointSet((Point(Fraction(3, 2), Fraction(0)),))


def test_parse_coordinate_forms():
    assert parse_coordinate("0.25") == Fraction(1, 4)
    assert parse_coordinate("3/2^3") == Fraction(3, 8)
    assert parse_coordinate("1/2^1") == Fraction(1, 2)
    assert parse_coordinate("1/3") == Fraction(1, 3)
    assert parse_coordinate("1") == 1


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
    assert outcome(parse_coordinate, text) == outcome(parse_coordinate_oracle, text)


def test_literal_budget_refuses_before_building(tmp_path, monkeypatch):
    built = []

    def record(*args):
        built.append(args)
        return Fraction(0)

    monkeypatch.setattr(pointsets, "dyadic", record)
    monkeypatch.setattr(pointsets, "Fraction", record)
    # 2^k takes k + 1 bits and 10^e about 3.32 e: (2^27 // 3) / log2(10) = 13467853.8
    assert MAX_LITERAL_BITS == MAX_AXIS_BITS // 3
    for text in (f"1/2^{MAX_LITERAL_BITS}", "1/2^10000000000", "1e-13467854", "2.5E+13467854",
                 "1e-1_000_000_000"):
        with pytest.raises(ResourceLimitError, match="bit budget"):
            parse_coordinate(text)
    assert built == []
    parse_coordinate(f"1/2^{MAX_LITERAL_BITS - 1}")
    parse_coordinate("1e-13467853")
    assert built == [(1, MAX_LITERAL_BITS - 1), ("1e-13467853",)]
    path = tmp_path / "big.csv"
    path.write_text("x,y\n1/2,1/3\n1/2,1/2^10000000000\n")
    with pytest.raises(ResourceLimitError, match=r"^line 3: 2\^10000000000 exceeds"):
        read_csv(path)


def test_csv_round_trip_exact(tmp_path, monkeypatch):
    pts = (
        Point(Fraction(0), Fraction(1)),
        Point(Fraction(1, 3), Fraction(5, 7)),         # non-dyadic rationals
        Point(Fraction(12345, 1 << 53), Fraction(1, 2)),
        Point(Fraction(1, 4), Fraction(1, 4)),          # duplicate below
        Point(Fraction(1, 4), Fraction(1, 4)),
    )
    ps = PointSet(pts, label="round trip")
    path = tmp_path / "pts.csv"
    write_csv(ps, path)
    # the reader checks each coordinate once, itself, with its line number
    coerced = []
    monkeypatch.setattr(pointsets, "as_coordinate", lambda q: coerced.append(q) or q)
    back = read_csv(path)
    assert coerced == []
    assert back.points == ps.points and all(type(c) is Fraction for p in back for c in p)
    assert back.label == "round trip"
    assert back == ps and hash(back) == hash(ps)
    assert _tree_integers(back).distinct == 3 and back.grid == ps.grid


def test_csv_reader_accepts_decimals_and_comments(tmp_path):
    path = tmp_path / "pts.csv"
    path.write_text("# a comment\nx,y\n0.25,0.5\n# another\n3/2^3,1/2^1\n")
    ps = read_csv(path)
    assert ps.points == (
        Point(Fraction(1, 4), Fraction(1, 2)),
        Point(Fraction(3, 8), Fraction(1, 2)),
    )


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
    assert ps[0].x is third
    assert ps.points == ((third, 1), (Fraction(1, 2), Fraction(1, 4)), (0, 1))
    assert all(type(c) is Fraction for p in ps for c in p)
    for bad, shown in ((Fraction(3, 2), "3/2"), (Fraction(-1, 3), "-1/3"), (-1, "-1"), ("4/3", "4/3")):
        with pytest.raises(ValueError, match=rf"^coordinate {shown} outside \[0, 1\]$"):
            PointSet(((Fraction(1, 2), bad),))


def test_csv_reader_refuses_negative_coordinates_by_line(tmp_path):
    path = tmp_path / "neg.csv"
    path.write_text("x,y\n1/2,1/3\n-1/2^2,1/2\n")
    with pytest.raises(CsvFormatError, match=r"^line 3: coordinate outside \[0, 1\]$"):
        read_csv(path)
