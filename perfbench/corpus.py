"""Seeded adversarial point-set corpus for the discrep benchmark.

Every input is generated here from the benchmark's own seed; the library
only ever receives the finished points, either as a CSV file written by
`write_csv` below or as a `PointSet` built from one.  Each input carries a
one-line reason for being in its workload.

Coordinates are exact `Fraction`s in [0, 1].  Three kinds of denominator
appear on purpose: dyadic (van der Corput), 2^53 (the library's own
`random_uniform` quantisation) and non-dyadic (odd primes, powers of 3,
sevenths), so that a change of coordinate representation shows whether
it helps one kind at the cost of another.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

DEN53 = 1 << 53
# Near-duplicate partners 2^-195 apart separate only once a side reaches
# 2^-195; with n = 11 (N = 640) that is level 16 for every direction.
NEAR_DUP_EXPONENT = 195
# 2^-1000 apart never separates within the library's 64-level cap.
CAP_EXPONENT = 1000


@dataclass(frozen=True)
class Input:
    name: str
    points: tuple[tuple[Fraction, Fraction], ...]
    why: str

    @property
    def size(self) -> int:
        return len(self.points)


def _rng(*parts) -> random.Random:
    # string seeds hash with SHA-512, so streams are stable across runs
    return random.Random("/".join(str(p) for p in ("discrep-bench", *parts)))


def uniform(rng: random.Random, count: int, den: int = DEN53):
    return [
        (Fraction(rng.randrange(den), den), Fraction(rng.randrange(den), den))
        for _ in range(count)
    ]


def random_uniform_points(count: int, seed: int):
    """The points of the library's `random_uniform(count, seed)`, rebuilt here."""
    rng = random.Random(seed)
    return [(Fraction(rng.getrandbits(53), DEN53), Fraction(rng.getrandbits(53), DEN53))
            for _ in range(count)]


def _bit_reverse(k: int, bits: int) -> int:
    return int(format(k, f"0{bits}b")[::-1], 2) if bits else 0


def vdc(m: int):
    den = 1 << m
    return [(Fraction(k, den), Fraction(_bit_reverse(k, m), den)) for k in range(den)]


def odd_primes(count: int) -> list[int]:
    primes: list[int] = []
    candidate = 3
    while len(primes) < count:
        if all(candidate % p for p in primes if p * p <= candidate):
            primes.append(candidate)
        candidate += 2
    return primes


def prime_denominators(rng: random.Random, count: int):
    """Every coordinate has its own odd prime denominator."""
    dens = odd_primes(2 * count)
    rng.shuffle(dens)
    return [
        (Fraction(rng.randrange(1, dens[2 * k]), dens[2 * k]),
         Fraction(rng.randrange(1, dens[2 * k + 1]), dens[2 * k + 1]))
        for k in range(count)
    ]


def duplicate_heavy(rng: random.Random, count: int, distinct: int):
    base = uniform(rng, distinct)
    return base + [rng.choice(base) for _ in range(count - distinct)]


def boundary(rng: random.Random, count: int):
    """The four corners, evenly spaced points on every edge, random interior points.

    The edge points are fixed so that the tree depth does not depend on the seed.
    """
    pts = [(Fraction(0), Fraction(0)), (Fraction(0), Fraction(1)),
           (Fraction(1), Fraction(0)), (Fraction(1), Fraction(1))]
    edges = (count - 4) // 2
    for k in range(edges):
        u = Fraction(2 * k + 1, 2 * edges)
        pts.append([(Fraction(0), u), (Fraction(1), u), (u, Fraction(0)), (u, Fraction(1))][k % 4])
    return pts + uniform(rng, count - len(pts))


def near_duplicates(rng: random.Random, pairs: int, exponent: int, singles: int = 0):
    base = uniform(rng, pairs + singles)
    eps = Fraction(1, 1 << exponent)
    return base + [(x + eps, y + eps) for x, y in base[:pairs]]


def lattice(side: int, den: int):
    return [(Fraction(i, den), Fraction(j, den)) for i in range(1, side + 1) for j in range(1, side + 1)]


def _finish(workload: str, seed: int, specs) -> list[Input]:
    """Shuffle each input's point order with the run seed."""
    out = []
    for name, pts, why in specs:
        pts = list(pts)
        _rng(workload, "order", name, seed).shuffle(pts)
        out.append(Input(name, tuple(pts), why))
    return out


def norms_corpus(seed: int) -> list[Input]:
    r = lambda name: _rng("norms", name, seed)  # noqa: E731
    specs = [
        (f"rand{n}", uniform(r(f"rand{n}"), n), "2^53 denominators; L-infinity is O(N^3) here")
        for n in (16, 32, 48, 64)
    ] + [
        (f"vdc_m{m}", vdc(m), "dyadic denominators 2^m")
        for m in (3, 4, 5, 6)
    ] + [
        ("primes48", prime_denominators(r("primes48"), 48),
         "non-dyadic: each coordinate has its own odd prime denominator"),
        ("pow3_40", uniform(r("pow3_40"), 40, 3 ** 20), "non-dyadic common denominator 3^20"),
        ("dup64", duplicate_heavy(r("dup64"), 64, 8), "64 points, 8 distinct: few cells, counts > 1"),
        ("boundary32", boundary(r("boundary32"), 32), "corners and points on x or y = 0 or 1"),
        ("lattice36", lattice(6, 7), "6x6 lattice over sevenths: ties in both coordinates"),
        ("single", uniform(r("single"), 1), "N = 1"),
    ]
    return _finish("norms", seed, specs)


def certify_corpus(seed: int) -> list[Input]:
    r = lambda name: _rng("certify", name, seed)  # noqa: E731
    specs = [
        ("neardup640", near_duplicates(r("neardup640"), 320, NEAR_DUP_EXPONENT),
         "320 pairs 2^-195 apart: l* = 16, deep levels"),
        ("rand2048", uniform(r("rand2048"), 2048), "largest set: 13 wide trees, peak memory"),
        ("rand1024", uniform(r("rand1024"), 1024), "2^53 denominators, stabilises at level 1"),
        ("vdc_m10", vdc(10), "dyadic, stabilises at level 0"),
        ("dup1024", duplicate_heavy(r("dup1024"), 1024, 64), "1024 points, 64 distinct"),
        ("boundary512", boundary(r("boundary512"), 512), "points on x or y = 1 drop out of the trees"),
        ("neardup160", near_duplicates(r("neardup160"), 40, 64, singles=80),
         "40 pairs 2^-64 apart among 80 singles: l* = 6"),
        ("vdc_m9", vdc(9), "dyadic, smaller"),
        ("primes256", prime_denominators(r("primes256"), 256), "non-dyadic bucketing"),
        ("cap12", near_duplicates(r("cap12"), 4, CAP_EXPONENT, singles=4),
         "pairs 2^-1000 apart: hits HARD_LEVEL_CAP without stabilising"),
    ]
    return _finish("certify", seed, specs)


BOUNDARY4 = (
    (Fraction(0), Fraction(1, 3)), (Fraction(1), Fraction(1, 2)),
    (Fraction(1, 5), Fraction(0)), (Fraction(2, 7), Fraction(1)),
)


# The lemmas sets are fixed: the seed only shuffles their point order.
# `values_unimodular` in the library's suite is a sampled 3-sigma test that
# wrongly fails on about 2% of random 3-point sets, so random sets drawn per
# seed would make the workload fail at random; see perfbench/README.md.
def lemmas_corpus(seed: int) -> list[Input]:
    r = lambda name: _rng("lemmas", name)  # noqa: E731
    specs = [
        ("vdc_m1", vdc(1), "n = 2: pair (0,2) and triple (0,1,2)"),
        ("vdc_m2", vdc(2), "n = 3, dyadic: deepest product enumeration here"),
        ("rand3", uniform(r("rand3a"), 3), "n = 3, 2^53 denominators"),
        ("rand4", uniform(r("rand4"), 4), "n = 3, 2^53 denominators"),
        ("rand2", uniform(r("rand2"), 2), "n = 2"),
        ("nondyadic3", uniform(r("nondyadic3"), 3, 3 ** 20), "n = 3, non-dyadic"),
        ("dup4", duplicate_heavy(r("dup4"), 4, 2), "two points, each twice"),
        ("dup5", [uniform(r("dup5"), 1)[0]] * 5, "one point five times: n = 4 product checks"),
        ("boundary4", BOUNDARY4, "points on all four edges"),
        ("single", uniform(r("single"), 1), "N = 1: only the pair (0,1)"),
        ("origin", [(Fraction(0), Fraction(0))], "N = 1 at the origin"),
        ("top_right", [(Fraction(1), Fraction(1))], "N = 1 outside every tree"),
    ]
    return _finish("lemmas", seed, specs)


def cli_inputs(seed: int) -> list[Input]:
    r = lambda name: _rng("cli", name, seed)  # noqa: E731
    specs = [
        ("vdc16", vdc(4), "dyadic"),
        ("primes12", prime_denominators(r("primes12"), 12), "non-dyadic"),
        ("neardup12", near_duplicates(r("neardup12"), 4, 60, singles=4), "l* > 0"),
        ("boundary4", BOUNDARY4, "lemmas input with product checks"),
    ]
    return _finish("cli", seed, specs)


def format_coordinate(q: Fraction) -> str:
    return f"{q.numerator}/{q.denominator}"


def write_csv(inp: Input, directory: Path) -> Path:
    path = Path(directory) / f"{inp.name}.csv"
    lines = [f"# label: {inp.name}", "x,y"]
    lines += [f"{format_coordinate(x)},{format_coordinate(y)}" for x, y in inp.points]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


def parse_coordinate(text: str) -> Fraction:
    """Inverse of the library's CSV writer: "a/2^k", "p/q" or integers."""
    text = text.strip()
    if "/2^" in text:
        num, exp = text.split("/2^")
        return Fraction(int(num), 1 << int(exp))
    return Fraction(text)


def parse_points(data: bytes) -> list[tuple[Fraction, Fraction]]:
    """Points of a CSV written by the library's `gen` subcommand."""
    pts = []
    for line in data.decode("utf-8").splitlines():
        line = line.strip()
        if not line or line.startswith("#") or line == "x,y":
            continue
        x, y = line.split(",")
        pts.append((parse_coordinate(x), parse_coordinate(y)))
    return pts
