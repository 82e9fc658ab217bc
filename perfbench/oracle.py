"""Independent reference values for every benchmark request.

Nothing here imports the library.  Each routine recomputes from the raw
points the value the seed code returns, by a route written separately
from the library's:

* L2: the pairwise closed form, summed over the upper triangle.
* L-infinity: closed and strict counts from one 2-D prefix table over the
  coordinate ranks, O(N^2) corners instead of O(N^3).
* L1: per cell, |k - Nxy| integrated column by column.  Where the
  hyperbola xy = k/N crosses the cell, the inner integral over y is
  k^2/(Nx) - k(c+d) + Nx(c^2+d^2)/2, whose x-integral carries
  (k^2/N) ln(x2/x1).  The result is exact when no cell is crossed and
  otherwise a 60-digit mpmath value.
* Trees: the occupied cells of a level are the distinct cells of the
  interior points, so the empty counts, l* and the closed-form tail
  follow without building the tree.

The values are cached per input, so each one is computed once per run.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb

from mpmath import mp, mpf

REF_DPS = 60
HARD_LEVEL_CAP = 64
EXTRA_LEVELS = 2


def n_of(count: int) -> int:
    """Smallest n with 2 * count <= 2^n."""
    n = 0
    while (1 << n) < 2 * count:
        n += 1
    return n


def l2_sq(points) -> Fraction:
    n = len(points)
    pair = Fraction(0)
    for i, (xi, yi) in enumerate(points):
        pair += (1 - xi) * (1 - yi)
        for xj, yj in points[i + 1:]:
            pair += 2 * (1 - max(xi, xj)) * (1 - max(yi, yj))
    single = sum(((1 - x * x) * (1 - y * y) for x, y in points), Fraction(0))
    return pair - Fraction(n, 2) * single + Fraction(n * n, 9)


def _prefix_counts(points, xs, ys):
    """table[i][j] = #{p : p_x <= xs[i], p_y <= ys[j]}."""
    xr = {x: i for i, x in enumerate(xs)}
    yr = {y: j for j, y in enumerate(ys)}
    table = [[0] * len(ys) for _ in xs]
    for x, y in points:
        table[xr[x]][yr[y]] += 1
    for i in range(len(xs)):
        row, above = table[i], table[i - 1] if i else None
        run = 0
        for j in range(len(ys)):
            run += row[j]
            row[j] = run + (above[j] if above else 0)
    return table


def linf(points) -> Fraction:
    n = len(points)
    xs = sorted({x for x, _ in points} | {Fraction(1)})
    ys = sorted({y for _, y in points} | {Fraction(1)})
    table = _prefix_counts(points, xs, ys)
    best = Fraction(0)
    for i, x in enumerate(xs):
        for j, y in enumerate(ys):
            nxy = n * x * y
            strict = table[i - 1][j - 1] if i and j else 0
            best = max(best, abs(table[i][j] - nxy), abs(strict - nxy))
    return best


def l1(points):
    """(exact Fraction or None, 60-digit mpf value, crossed-cell count)."""
    n = len(points)
    xs = sorted({x for x, _ in points} | {Fraction(0), Fraction(1)})
    ys = sorted({y for _, y in points} | {Fraction(0), Fraction(1)})
    table = _prefix_counts(points, xs, ys)
    rational = Fraction(0)
    logs = []
    for i in range(len(xs) - 1):
        a, b = xs[i], xs[i + 1]
        for j in range(len(ys) - 1):
            c, d = ys[j], ys[j + 1]
            k = table[i][j]
            t = Fraction(k, n)
            whole = k * (b - a) * (d - c) - Fraction(n, 4) * (b * b - a * a) * (d * d - c * c)
            if t >= b * d:
                rational += whole
                continue
            if t <= a * c:
                rational -= whole
                continue
            x1 = max(a, t / d)
            x2 = min(b, t / c) if c > 0 else b
            # x in [a, x1]: k - Nxy >= 0 on the whole column
            rational += k * (d - c) * (x1 - a) - Fraction(n, 4) * (d * d - c * c) * (x1 * x1 - a * a)
            # x in [x2, b]: k - Nxy <= 0 on the whole column
            rational += Fraction(n, 4) * (d * d - c * c) * (b * b - x2 * x2) - k * (d - c) * (b - x2)
            # x in [x1, x2]: the column is cut at y = t/x
            rational += -k * (c + d) * (x2 - x1) + Fraction(n, 4) * (c * c + d * d) * (x2 * x2 - x1 * x1)
            logs.append((Fraction(k * k, n), x2 / x1))
    with mp.workdps(REF_DPS):
        value = _mpf(rational) + sum((_mpf(cf) * mp.log(_mpf(r)) for cf, r in logs), mpf(0))
        value = +value
    return (rational if not logs else None), value, len(logs)


def _mpf(q: Fraction) -> mpf:
    return mpf(q.numerator) / mpf(q.denominator)


def tree_facts(points, direction: int) -> dict:
    """Inner product (value, error), l* and level count of one direction."""
    count = len(points)
    n = n_of(count)
    interior = {(x, y) for x, y in points if x < 1 and y < 1}
    children = 1 << (2 * (n + 1))
    total = Fraction(0)
    level, prev, lstar = 0, 0, None
    while True:
        kx = direction + (n + 1) * level
        ky = n - direction + (n + 1) * level
        occupied = len({
            ((x.numerator << kx) // x.denominator, (y.numerator << ky) // y.denominator)
            for x, y in interior
        })
        empty = (1 << n) - occupied if level == 0 else children * prev - occupied
        area = Fraction(1, 1 << (n + 2 * (n + 1) * level))
        total += empty * area * area
        if lstar is None and occupied == len(interior):
            lstar = level
        if (lstar is not None and level >= lstar + EXTRA_LEVELS) or level >= HARD_LEVEL_CAP:
            break
        prev = occupied
        level += 1
    next_area = area / children
    scale = Fraction(count, 16)
    if lstar is not None:
        ratio = Fraction(1, 1 << (4 * (n + 1)))
        tail = (children - 1) * occupied * next_area * next_area / (1 - ratio)
        return {"value": -scale * (total + tail), "error": Fraction(0), "l_star": lstar,
                "levels": level + 1}
    return {"value": -scale * total, "error": scale * next_area * occupied * area,
            "l_star": None, "levels": level + 1}


def certificate_facts(count: int, trees: list[dict]) -> dict:
    """Main term and error series of the sine certificate, to 60 digits."""
    n = n_of(count)
    total = sum((t["value"] for t in trees), Fraction(0))
    with mp.workdps(REF_DPS):
        a = 1 / mp.sqrt(n)
        main = mp.cos(a) ** n * mp.sin(a) * abs(_mpf(total))
        err = mpf(0)
        for p in range(3, n + 2, 2):
            tuples = sum(
                (Fraction(comb(g - 1, p - 2) * (n + 1 - g), 1 << g) for g in range(p - 1, n + 1)),
                Fraction(0),
            )
            err += mp.cos(a) ** (n + 1 - p) * mp.sin(a) ** p * _mpf(Fraction(count, 16 << n) * tuples)
    return {
        "n": n,
        "sum": total,
        "error_sum": sum((t["error"] for t in trees), Fraction(0)),
        "stabilized": all(t["l_star"] is not None for t in trees),
        "main": main,
        "err": err,
    }


def close(value, ref, rel: float) -> bool:
    """|value - ref| <= rel * |ref|, compared at the reference precision."""
    with mp.workdps(REF_DPS):
        return abs(mpf(value) - mpf(ref)) <= mpf(rel) * abs(mpf(ref))
