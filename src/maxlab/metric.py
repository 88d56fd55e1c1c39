"""Finite metric spaces over exact rationals.

Metric-axiom validation, ultrametric detection with a normalized violating
triple, closed balls and the deduplicated enumeration of every closed ball
of a space, and midpoint-configuration search.

Every public scalar is a `fractions.Fraction`, read by `as_rational` (the one
grammar, files included), which rejects floats and bools, so ball membership
ties are decided exactly. Validation and every scan compare an integer copy
of the distance matrix, scaled by the lcm of its denominators:
`FiniteMetricSpace.int_dist`, computed once per space and kept with it (a
space loaded from a file gets it from the loader).

One O(n³) scan is left, the triangle check of `metric_violations` and its
twin, the triple search of `ultrametric_violation`. It runs only on a matrix
that the O(n²) row test `_ultrametric` rejects, whose answer a space keeps
(`_row_test`, filled by validation and `line_space`); `is_ultrametric` reads
it, and every triple only where the test declines, never on a metric. The
scan's exact loop over the middle point j runs only for a pair that fails a
word-parallel pre-test. Each row and each column of the integer matrix is
packed into one Python int, one byte field per point with a guard bit on top
(`_packed_lines`); one subtraction of such ints compares all n entries of a
line with a threshold at once, and the guard bits that survive mark the
entries at or above it; the triangle pre-test adds `guards` to each packed
column once, since no field of a sum of two lines reaches its guard bit.
`enumerate_balls` scans every row and deduplicates member sets on an int
bitmask, bit p for point p; where the kept answer says ultrametric, it builds
the same family from the test's tree instead, since the balls are then the
clusters, and walks each point's row only below the level where it joins an
earlier point. The family builds its `Ball`s, its Σ|B|-entry `containing`
lists, its n² `rank_of` table and each ball's member tuple on first read.
"""

from __future__ import annotations

import struct
import sys
from bisect import bisect_left
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property, partial
from itertools import accumulate, combinations, compress, count, groupby, islice, repeat
from math import gcd, lcm
from operator import add, and_, ne
from typing import Callable, Iterator, NamedTuple, Sequence

__all__ = [
    "as_rational",
    "MetricViolation",
    "MetricAxiomError",
    "FiniteMetricSpace",
    "Ball",
    "BallFamily",
    "MidpointConfig",
    "metric_violations",
    "validate_space",
    "line_space",
    "is_ultrametric",
    "ultrametric_violation",
    "closed_ball",
    "enumerate_balls",
    "find_midpoint_configs",
]

# validation lists at most this many violations of a matrix, and says when it stops
MAX_VIOLATIONS = 1000


def _digit_limit() -> int:
    """int()'s digit limit, sys.get_int_max_str_digits(), or 4300 where that is 0 or missing."""
    return getattr(sys, "get_int_max_str_digits", lambda: 0)() or 4300


def as_rational(value: int | str | Fraction) -> Fraction:
    """The package's one scalar grammar: an int, a Fraction, or a string Fraction reads.

    A string whose numerator or denominator could pass int()'s digit limit (for a
    decimal, mantissa digits plus |exponent|, `_` dropped) raises ValueError
    before any value is built; the limit is `_digit_limit()`. A float, a bool
    or any other non-scalar raises TypeError naming the value and its type.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int) and not isinstance(value, bool):
        return Fraction(value)
    if isinstance(value, str):
        text = value.strip()
        num, slash, den = text.partition("/")
        digits = num[1:] if num[:1] in ("+", "-") else num
        limit = _digit_limit()
        # ASCII [+-]digits[/digits] skips Fraction's regex (int() alone takes "3/ 4")
        if text.isascii() and digits.isdigit() and (not slash or den.isdigit()):
            size = max(len(digits), len(den))
            if size <= limit:
                return Fraction(int(num), int(den)) if slash else Fraction(int(num))
        elif slash:
            size = max(sum(map(str.isdigit, num)), sum(map(str.isdigit, den)))
        else:
            mantissa, _, exponent = text.replace("_", "").upper().partition("E")
            try:
                shift = abs(int(exponent or 0)) if len(exponent) <= limit else limit + 1
            except ValueError:  # no exponent Fraction reads; it rejects the text
                shift = 0
            size = sum(map(str.isdigit, mantissa)) + shift
        if size > limit:
            raise ValueError(f"more than {limit} digits in its numerator or denominator")
        try:
            return Fraction(text)
        except ValueError:  # Fraction's message repeats the whole text, however long
            raise ValueError("not an integer, decimal or p/q") from None
    if isinstance(value, float):
        raise TypeError(f"refusing float scalar {value!r}; use an integer, a decimal string, or p/q")
    raise TypeError(f"not a scalar: {value!r} ({type(value).__name__})")


@dataclass(frozen=True)
class MetricViolation:
    """One violated metric axiom with the offending indices."""

    axiom: str  # "diagonal" | "symmetry" | "positivity" | "triangle"
    indices: tuple[int, ...]
    detail: str


class MetricAxiomError(ValueError):
    """Raised by validate_space; carries the violation list, `truncated` if it was cut."""

    def __init__(self, violations: Sequence[MetricViolation], truncated: bool = False):
        self.violations = tuple(violations)
        self.truncated = truncated
        shown = "; ".join(v.detail for v in self.violations[:8])
        extra = "" if len(self.violations) <= 8 else f" (+{len(self.violations) - 8} more)"
        total = f"at least {len(self.violations)}" if truncated else len(self.violations)
        super().__init__(f"{total} metric axiom violation(s): {shown}{extra}")


@dataclass(frozen=True)
class FiniteMetricSpace:
    """A labeled finite point set with an exact pairwise distance matrix."""

    labels: tuple[str, ...]
    dist: tuple[tuple[Fraction, ...], ...]

    @property
    def n(self) -> int:
        return len(self.labels)

    @cached_property
    def int_dist(self) -> tuple[tuple[int, ...], ...]:
        """The distance matrix times the lcm of its denominators, as ints.

        Computed on first use and kept with the space, so validation and every
        later scan of the space share one copy.
        """
        return _integer_matrix(self.dist)

    @cached_property
    def _row_test(self) -> bool | None:
        """`_ultrametric` of `int_dist`, kept; validation and `line_space` fill it."""
        scaled = self.int_dist
        symmetric = scaled == tuple(zip(*scaled))
        return _ultrametric(scaled, symmetric, _packed_lines(scaled, symmetric))

    def restrict(self, points: Sequence[int]) -> "FiniteMetricSpace":
        """Submetric on the given point indices, order preserved, labels carried."""
        pts = tuple(points)
        if len(set(pts)) != len(pts):
            raise ValueError("restriction points must be distinct")
        return FiniteMetricSpace(
            labels=tuple(self.labels[p] for p in pts),
            dist=tuple(tuple(self.dist[p][q] for q in pts) for p in pts),
        )


# maps the characters "0" and "1" of a binary numeral to the bytes 0 and 1
_BIT_BYTES = bytes.maketrans(b"01", b"\x00\x01")


def _bit_indices(mask: int) -> tuple[int, ...]:
    """The positions of the set bits of a nonnegative int, ascending."""
    return tuple(compress(count(), bin(mask)[:1:-1].encode().translate(_BIT_BYTES)))


@dataclass(frozen=True)
class Ball:
    """A closed metric ball resolved to its member point set, bit p of `mask` for point p.

    `mask` holds the points at distance <= radius from the center. `members`,
    the sorted member indices, is derived from the mask on first read and kept.
    """

    center: int
    radius: Fraction
    mask: int

    @cached_property
    def members(self) -> tuple[int, ...]:
        return _bit_indices(self.mask)


@dataclass(frozen=True)
class BallFamily:
    """All distinct closed-ball member sets of a space, with per-point indices.

    Set i is `masks[i]`, realized by the ball of center `centers[i]` and
    radius `radii[i]`, listed by center, then radius, ascending; `balls`
    lists those `Ball`s. `containing[x]` lists the family indices of sets
    containing x, ascending, Σ|B| = `member_total` entries in all; both are
    built whole on first read; `holding(x)` finds one list alone, by a pass
    over the masks; `plan(x)` adds their centers' rows and each one's slot in
    just these rows laid end to end. `centered_at[x]` lists family indices
    arising from balls centered at x, radii ascending, deduplicated, a subset of
    `containing[x]`: x is centered, every ball holding it a ball around it,
    unless `off_center[x]`. Every point is centered iff `member_total` is the
    total length of `centered_at` (`centered_only`); such a family answers
    from `centered_at` alone, and its `off_center` builds no `containing`.
    `rank_of[p][c]` is the position in `centered_at[c]` of the smallest ball
    centered at c that holds p: the rank of d(c, p) among the distinct
    distances from c. It is built whole on first read from `int_dist`, the
    space's integer matrix, which ==, hash and repr ignore. `rows[c]` lists
    the points by distance from c, ties by index, cut after the largest ball
    c represents; each ball c represents holds exactly the first
    len(members) points of it. With the rows laid end to end, ball i's last
    point sits at `slots[i]`.
    """

    masks: tuple[int, ...]
    centers: tuple[int, ...]
    radii: tuple[Fraction, ...]
    centered_at: tuple[tuple[int, ...], ...]
    rows: tuple[tuple[int, ...], ...]
    slots: tuple[int, ...]
    member_total: int
    int_dist: tuple[tuple[int, ...], ...] = field(compare=False, repr=False)

    def __len__(self) -> int:
        return len(self.masks)

    @property
    def n(self) -> int:
        return len(self.centered_at)

    @cached_property
    def rank_of(self) -> tuple[tuple[int, ...], ...]:
        ranks = [map(dict(zip(sorted(set(row)), count())).__getitem__, row) for row in self.int_dist]
        return tuple(zip(*ranks))

    @cached_property
    def _built(self) -> list[Ball | None]:
        return [None] * len(self.masks)

    def ball(self, i: int) -> Ball:
        """`balls[i]`, built on its own on first read and kept."""
        ball = self._built[i]
        if ball is None:
            ball = self._built[i] = Ball(self.centers[i], self.radii[i], self.masks[i])
        return ball

    @cached_property
    def balls(self) -> tuple[Ball, ...]:
        return tuple(map(self.ball, range(len(self.masks))))

    @cached_property
    def containing(self) -> tuple[tuple[int, ...], ...]:
        # The balls of a center are consecutive, each a longer prefix of its
        # row: the points a ball adds lie in it and in every later one.
        containing: list[list[int]] = [[] for _ in range(self.n)]
        for c, group in groupby(range(len(self.masks)), self.centers.__getitem__):
            ids, k0 = list(group), 0
            for j, i in enumerate(ids):
                later, k = ids[j:], self.masks[i].bit_count()  # ball i holds rows[c][:k]
                for p in self.rows[c][k0:k]:
                    containing[p] += later
                k0 = k
        return tuple(map(tuple, containing))

    @cached_property
    def centered_only(self) -> bool:
        return self.member_total == sum(map(len, self.centered_at))

    @cached_property
    def off_center(self) -> tuple[bool, ...]:
        if self.centered_only:
            return (False,) * self.n
        return tuple(map(ne, map(len, self.containing), map(len, self.centered_at)))

    @cached_property
    def _plans(self) -> dict[int, tuple]:
        return {}

    def holding(self, x: int) -> tuple[int, ...]:
        """`containing[x]` by one pass over the masks, kept in `plan(x)`: one path, whatever is built."""
        return self.plan(x)[0]

    def plan(self, x: int) -> tuple[tuple[int, ...], tuple[tuple[int, ...], ...], list[int]]:
        """`holding(x)`, their centers' rows, and each one's slot in those rows end to end; kept.

        The balls of one center are nested and the largest ends its row, so
        if one holds x its whole row is needed, and the rows of other centers are not.
        """
        if not 0 <= x < self.n:
            raise IndexError(f"point {x} out of range")
        found = self._plans.get(x)
        if found is None:
            bits = list(map(and_, self.masks, repeat(1 << x)))
            centers = list(compress(self.centers, bits))
            around = dict.fromkeys(centers)  # the centers, ascending
            rows = tuple(map(self.rows.__getitem__, around))
            # each row's start less 1: ball i holds the first |masks[i]| points of its row
            before = dict(zip(around, accumulate(map(len, rows), initial=-1)))
            sizes = map(int.bit_count, compress(self.masks, bits))
            slots = list(map(add, map(before.__getitem__, centers), sizes))
            found = self._plans[x] = (tuple(compress(count(), bits)), rows, slots)
        return found


class _MidpointFields(NamedTuple):
    a: int
    m: int
    b: int


class MidpointConfig(_MidpointFields):
    """Points a, m, b with d(a,m) = d(m,b) = d(a,b)/2: a named tuple that rejects a == b."""

    __slots__ = ()

    def __new__(cls, a: int, m: int, b: int) -> "MidpointConfig":
        if a == b:
            raise ValueError("midpoint endpoints must differ")
        return super().__new__(cls, a, m, b)

    @classmethod
    def _make(cls, iterable) -> "MidpointConfig":
        # the inherited _make, which _replace calls too, would skip the check
        return cls(*iterable)


def _scaled(values: Sequence[Fraction]) -> tuple[tuple[int, ...], int]:
    """The values times the lcm of their denominators, as ints, and that lcm."""
    ratios = [v.as_integer_ratio() for v in values]
    scale = lcm(*{q for _, q in ratios})
    return tuple([p * (scale // q) for p, q in ratios]), scale


def _integer_matrix(dist: Sequence[Sequence[Fraction]]) -> tuple[tuple[int, ...], ...]:
    """A square matrix times the lcm of all its denominators, as ints."""
    n = len(dist)
    flat, _ = _scaled([v for row in dist for v in row])
    return tuple(flat[i * n : (i + 1) * n] for i in range(n))


def _packed_lines(
    matrix: tuple[tuple[int, ...], ...], symmetric: bool
) -> tuple[list[int], list[int], int, int, int]:
    """Every row and every column of an integer matrix packed into one int each.

    A `symmetric` matrix's packed rows serve as its columns. Returns
    (rows, columns, offset, guards, ones). Entry j of a line, plus
    `offset` = -min(0, min entry), fills byte field j of its int (field 0 lowest).
    `ones` has the lowest bit of every field set and `guards` the top bit. The
    fields are wide enough that neither a shifted entry, nor a sum of two, nor
    a shifted entry plus `offset` reaches its guard bit. So for a packed line
    or a sum of two, x, and a threshold t in that range, the guard of field j
    survives in `((x | guards) - t * ones) & guards` iff field j of x is >= t:
    no field borrows from the next.
    """
    n = len(matrix)
    offset = -min(0, min(map(min, matrix), default=0))
    top = max(map(max, matrix), default=0) + offset  # the largest shifted entry
    width = max(2 * top, top + offset).bit_length() // 8 + 1  # bytes, guard bit included
    if width <= 8:
        # struct packs fields of 1, 2, 4 and 8 bytes in C
        width = 1 << (width - 1).bit_length()
        layout = struct.Struct(f"<{n}{'BHIQ'[width.bit_length() - 1]}")

        def pack(line: Sequence[int]) -> int:
            return int.from_bytes(layout.pack(*line), "little")

    else:

        def pack(line: Sequence[int]) -> int:
            return int.from_bytes(b"".join([v.to_bytes(width, "little") for v in line]), "little")

    lines = tuple(tuple(v + offset for v in row) for row in matrix) if offset else matrix
    rows = [pack(row) for row in lines]
    columns = rows if symmetric else [pack(col) for col in zip(*lines)]
    ones = int.from_bytes((1).to_bytes(width, "little") * n, "little")
    return rows, columns, offset, ones << (8 * width - 1), ones


def _ultrametric(scaled: tuple[tuple[int, ...], ...], symmetric: bool, lines: tuple) -> bool | None:
    """Whether D, packed as `lines`, is an ultrametric; None unless `symmetric`, 0 diagonal, D >= 0.

    For v >= 1 let w = D[v][u], u the first minimum of D[v][:v]. D is an
    ultrametric iff D[v][x] = max(w, D[u][x]) for all x < v: an ultrametric
    gives <=, and >= as D[u][x] <= max(w, D[v][x]) = D[v][x] >= w; each row
    so built keeps the triples up to v ultrametric. One word-parallel step a
    row, O(n²) in all: the fields of packed row u whose guard survives
    subtracting w ones, w in the others, must equal packed row v's first v.
    """
    rows, _, offset, guards, ones = lines
    if not symmetric or offset or any(row[i] for i, row in enumerate(scaled)):
        return None
    bits = (guards & -guards).bit_length()  # the width of a field
    for v in range(1, len(scaled)):
        head = scaled[v][:v]
        w = min(head)
        near, level = rows[head.index(w)], w * ones
        above = ((near | guards) - level) & guards
        blend = level ^ ((near ^ level) & ((above << 1) - (above >> bits - 1)))
        if (blend ^ rows[v]) & ((1 << bits * v) - 1):
            return False
    return True


def metric_violations(dist: tuple[tuple[Fraction, ...], ...]) -> list[MetricViolation]:
    """The violated metric axioms of a square matrix, with indices, the first MAX_VIOLATIONS."""
    return list(islice(_violations(dist, _integer_matrix(dist)), MAX_VIOLATIONS))


def _violations(
    dist: tuple[tuple[Fraction, ...], ...], scaled: tuple[tuple[int, ...], ...], keep: Callable = bool
) -> Iterator[MetricViolation]:
    """Every violation of the matrix, in metric_violations' order, given its integer copy `scaled`.

    A generator: a caller that stops taking violations stops the scan. Where
    `_ultrametric` runs, its answer is passed to `keep`, a no-op by default.

    A matrix with no other violation that `_ultrametric` accepts skips the
    O(n³) triangle check, which tests each pair (i, k) with i < k
    word-parallel first: with D the integer copy and each packed column lifted
    by `guards` once, every guard bit of row i + lifted column k - (D[i][k] +
    2 offset) ones survives iff D[i][j] + D[j][k] >= D[i][k] for every j. No
    field of a sum of two lines reaches its guard bit, so adding `guards` sets
    them all. Only a pair that fails this runs the exact scan over j.
    """
    n = len(dist)
    for i in range(n):
        if scaled[i][i] != 0:
            yield MetricViolation("diagonal", (i,), f"dist[{i}][{i}] = {dist[i][i]} != 0")
    # every pair i < j is symmetric and positive iff the matrix equals its
    # transpose and each row's smallest entry right of the diagonal is positive;
    # only a matrix that fails either runs the loop that lists the violations
    symmetric = scaled == tuple(zip(*scaled))
    positive = all(min(row[i + 1 :], default=1) > 0 for i, row in enumerate(scaled))
    if not (symmetric and positive):
        for i, j in combinations(range(n), 2):
            if scaled[i][j] != scaled[j][i]:
                yield MetricViolation(
                    "symmetry", (i, j), f"dist[{i}][{j}] = {dist[i][j]} != {dist[j][i]} = dist[{j}][{i}]"
                )
            if scaled[i][j] <= 0:
                yield MetricViolation("positivity", (i, j), f"dist[{i}][{j}] = {dist[i][j]} is not > 0")
    lines = rows, columns, offset, guards, ones = _packed_lines(scaled, symmetric)
    if positive:
        keep(ultrametric := _ultrametric(scaled, symmetric, lines))
        if ultrametric:
            return  # an ultrametric with no negative entry satisfies the triangle inequality
    lifted = [col + guards for col in columns]
    for i, row in enumerate(scaled):
        packed = rows[i]
        for k in range(i + 1, n):
            # no shorter detour, no violation; the j = i, k detours (which only a
            # nonzero diagonal makes shorter) are skipped by the scan below
            if (packed + lifted[k] - (row[k] + 2 * offset) * ones) & guards == guards:
                continue
            for j in range(n):
                if j == i or j == k:
                    continue
                if row[k] > row[j] + scaled[j][k]:
                    yield MetricViolation(
                        "triangle",
                        (i, j, k),
                        f"dist[{i}][{k}] = {dist[i][k]} > {dist[i][j]} + {dist[j][k]}"
                        f" = dist[{i}][{j}] + dist[{j}][{k}]",
                    )


def validate_space(
    dist: Sequence[Sequence[object]], labels: Sequence[str] | None = None
) -> FiniteMetricSpace:
    """Validate a distance matrix and wrap it as a FiniteMetricSpace.

    Shape problems (non-square matrix, label mismatch, duplicate labels) raise
    ValueError; axiom violations raise MetricAxiomError carrying the first
    MAX_VIOLATIONS of them, `truncated` if there are more.
    """
    return _checked_space(tuple(tuple(as_rational(v) for v in row) for row in dist), labels)


def _checked_space(
    matrix: tuple[tuple[Fraction, ...], ...],
    labels: Sequence[str] | None,
    int_dist: tuple[tuple[int, ...], ...] | None = None,
) -> FiniteMetricSpace:
    """validate_space of a matrix of Fractions; the space keeps `int_dist` if given."""
    n = len(matrix)
    if n == 0:
        raise ValueError("a space needs at least one point")
    for i, row in enumerate(matrix):
        if len(row) != n:
            raise ValueError(f"matrix is not square: row {i} has length {len(row)}, expected {n}")
    if labels is None:
        labels = tuple(f"p{i}" for i in range(n))
    else:
        labels = tuple(str(lb) for lb in labels)
        if len(labels) != n:
            raise ValueError(f"{len(labels)} labels for {n} points")
        if len(set(labels)) != n:
            raise ValueError("labels must be distinct")
    space = FiniteMetricSpace(labels=labels, dist=matrix)
    if int_dist is not None:
        # a frozen dataclass: fill the cached_property's slot directly
        object.__setattr__(space, "int_dist", int_dist)
    keep = partial(object.__setattr__, space, "_row_test")  # a valid space's test always runs
    violations = list(islice(_violations(matrix, space.int_dist, keep), MAX_VIOLATIONS + 1))
    if violations:
        raise MetricAxiomError(violations[:MAX_VIOLATIONS], len(violations) > MAX_VIOLATIONS)
    return space


def line_space(
    coords: Sequence[int | str | Fraction], labels: Sequence[str] | None = None
) -> FiniteMetricSpace:
    """Space of distinct points on the rational line with |a - b| distances."""
    pts = [as_rational(c) for c in coords]
    if len(set(pts)) != len(pts):
        raise ValueError("line coordinates must be distinct")
    if labels is None:
        labels = tuple(str(p) for p in pts)
    # over the common denominator the differences are ints; each distinct one
    # becomes one Fraction, shared by every entry equal to it
    ints, scale = _scaled(pts)
    rows = [[abs(a - b) for b in ints] for a in ints]
    fractions = {d: Fraction(d, scale) for d in set().union(*rows)}
    dist = tuple(tuple(map(fractions.__getitem__, row)) for row in rows)
    space = FiniteMetricSpace(labels=tuple(labels), dist=dist)
    g = gcd(scale, *fractions)  # the denominators are scale / gcd(scale, d); their lcm, scale / g
    object.__setattr__(space, "int_dist", tuple(tuple([d // g for d in row]) for row in rows))
    # points a < b < c on a line have d(a,c) = d(a,b) + d(b,c) > max(d(a,b), d(b,c))
    object.__setattr__(space, "_row_test", len(pts) <= 2)
    return space


def ultrametric_violation(space: FiniteMetricSpace) -> tuple[int, int, int] | None:
    """First triple (x, y, z) with d(x,z) <= d(x,y) < d(z,y), or None.

    None where the space's kept `_ultrametric` answer is True; else it scans pairs a < c,
    then b ascending, for d(a,c) > max(d(a,b), d(b,c)); a violation is
    normalized so that x is the middle point, y the farther endpoint and z
    the nearer one (ties resolved toward the later endpoint).
    A pair runs the scan over b only if it fails a word-parallel pre-test on
    the packed row a and column c: the OR of their `>= d(a,c)` masks keeps
    every guard bit iff no b lies closer than d(a,c) to both a and c.
    """
    if space._row_test:
        return None
    n = space.n
    scaled = space.int_dist
    symmetric = scaled == tuple(zip(*scaled))
    rows, columns, offset, guards, ones = _packed_lines(scaled, symmetric)
    columns = [col | guards for col in columns]
    for a, row in enumerate(scaled):
        packed = rows[a] | guards
        for c in range(a + 1, n):
            dac = row[c]
            threshold = (dac + offset) * ones
            # b = a and b = c never pass: max(d(a,a), d(a,c)) >= d(a,c)
            if ((packed - threshold) | (columns[c] - threshold)) & guards == guards:
                continue
            for b in range(n):
                if dac > row[b] and dac > scaled[b][c]:
                    if scaled[b][c] >= scaled[b][a]:
                        return (b, c, a)
                    return (b, a, c)
    return None


def is_ultrametric(space: FiniteMetricSpace) -> bool:
    """True iff d(x,z) <= max(d(x,y), d(y,z)) for all triples: the kept `_ultrametric`, else every one.

    Where `_ultrametric` declines (asymmetry, a nonzero diagonal, a negative
    entry), every ordered triple is read, not only the scan's pairs a < c.
    """
    verdict = space._row_test
    if verdict is not None:
        return verdict
    scaled = space.int_dist
    return all(
        d_xz <= max(d_xy, d_yz)
        for row_x in scaled
        for d_xy, row_y in zip(row_x, scaled)
        for d_xz, d_yz in zip(row_x, row_y)
    )


def closed_ball(space: FiniteMetricSpace, center: int, radius: int | str | Fraction) -> Ball:
    """Points at distance <= radius from the center."""
    r = as_rational(radius)
    if r < 0:
        raise ValueError(f"radius must be nonnegative, got {r}")
    mask = sum(1 << p for p, d in enumerate(space.dist[center]) if d <= r)
    return Ball(center=center, radius=r, mask=mask)


def enumerate_balls(space: FiniteMetricSpace) -> BallFamily:
    """All distinct closed-ball member sets of the space, built from the row test's tree if ultrametric.

    Membership is piecewise constant in the radius, so per center it suffices
    to take the radii occurring in that center's row (r = 0 is the diagonal
    entry, giving the singleton {center}). Sets are deduplicated across
    centers on a bitmask of their members; the representative is the first
    (center, radius) discovered with centers ascending and radii ascending.

    Where the space's kept `_ultrametric` answer is True, the same family
    comes from its tree. For c >= 1 let w = min D[c][:c], u its first index.
    Each ball around c below w holds c and no earlier point, so it is new and
    c represents it; from w up, ball(c, t) = ball(u, t) and u, c see the same
    distances, so `centered_at[c]` ends with `centered_at[u]` from u's level
    w. Only the points nearer to c than w are sorted and walked; row 0 whole.
    """
    return _ball_family(space, bool(space._row_test))


def _ball_family(space: FiniteMetricSpace, tree: bool) -> BallFamily:
    """`enumerate_balls` by the tree build if `tree`, else by the scan of every whole row."""
    n = space.n
    dist = space.dist
    index_by_mask: dict[int, int] = {}
    centers: list[int] = []
    radii: list[Fraction] = []
    levels: list[int] = []  # the integer radius of each ball; in an ultrametric, its diameter
    centered_at: list[list[int]] = [[] for _ in range(n)]
    rows: list[tuple[int, ...]] = []
    slots: list[int] = []
    start = 0  # where rows[c] begins when the rows are laid end to end
    member_total = 0
    bits = [1 << p for p in range(n)]
    for c, row in enumerate(space.int_dist):
        # sorted() is stable, so equal distances keep ascending point order
        if tree and c:
            w = min(row[:c])
            order = tuple(sorted(compress(range(c, n), map(w.__gt__, row[c:])), key=row.__getitem__))
        else:
            order = tuple(sorted(range(n), key=row.__getitem__))
        m = len(order)
        reach = 0  # size of the largest ball c represents so far
        mask = 0  # the members of the ball so far, bit p for point p
        k = 0
        while k < m:
            r = row[order[k]]
            # each radius adds the points at that distance, so the sets grow strictly
            mask |= bits[order[k]]
            while k + 1 < m and row[order[k + 1]] == r:
                k += 1
                mask |= bits[order[k]]
            idx = index_by_mask.get(mask)
            if idx is None:
                idx = len(centers)
                index_by_mask[mask] = idx
                centers.append(c)
                radii.append(dist[c][order[k]])
                levels.append(r)
                slots.append(start + k)
                reach = k + 1
                member_total += reach
            centered_at[c].append(idx)
            k += 1
        if tree and c:
            above = centered_at[row.index(w)]
            centered_at[c] += above[bisect_left(above, w, key=levels.__getitem__) :]
        rows.append(order[:reach])
        start += reach
    return BallFamily(
        masks=tuple(index_by_mask),  # a dict lists its keys in insertion order: family order
        centers=tuple(centers),
        radii=tuple(radii),
        centered_at=tuple(tuple(s) for s in centered_at),
        rows=tuple(rows),
        slots=tuple(slots),
        member_total=member_total,
        int_dist=space.int_dist,
    )


def find_midpoint_configs(space: FiniteMetricSpace) -> list[MidpointConfig]:
    """All (a, m, b) with a < b and d(a,m) = d(m,b) = d(a,b)/2.

    Works on the integer copy D of the distance matrix: m is a midpoint of
    (a, b) iff 2 D[a][m] = 2 D[b][m] = D[a][b].
    """
    n = space.n
    rows = space.int_dist
    # at_half[i][t]: the points j != i with 2 D[i][j] = t, ascending
    at_half: list[dict[int, list[int]]] = []
    for i, row in enumerate(rows):
        buckets: dict[int, list[int]] = {}
        for j, dij in enumerate(row):
            if j != i:
                buckets.setdefault(2 * dij, []).append(j)
        at_half.append(buckets)
    configs: list[MidpointConfig] = []
    for a, row in enumerate(rows):
        for b in range(a + 1, n):
            near_a = at_half[a].get(row[b])
            if not near_a:
                continue
            near_b = set(at_half[b].get(row[b], ()))
            for m in near_a:
                if m in near_b:
                    configs.append(MidpointConfig(a, m, b))
    return configs
