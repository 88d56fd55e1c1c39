"""Brute-force reference implementations used as independent test oracles.

Everything here works straight off the distance matrix and weight vectors,
bypassing the package's ball-family machinery, so agreement is meaningful.
"""

from __future__ import annotations

from fractions import Fraction

ZERO = Fraction(0)


def ball_members(space, center, radius, strict=False):
    row = space.dist[center]
    if strict:
        return frozenset(p for p in range(space.n) if row[p] < radius)
    return frozenset(p for p in range(space.n) if row[p] <= radius)


def all_ball_sets(space):
    """Distinct closed-ball member sets over every center and every matrix entry."""
    radii = {ZERO}
    for row in space.dist:
        radii.update(row)
    return {ball_members(space, c, r) for c in range(space.n) for r in radii}


def average(space, mu, f, members):
    mass = sum((mu.weights[p] for p in members), ZERO)
    if mass == 0:
        return ZERO
    return sum((f.values[p] * mu.weights[p] for p in members), ZERO) / mass


def centered_value(space, mu, f, x):
    best = None
    for r in set(space.dist[x]) | {ZERO}:
        v = average(space, mu, f, ball_members(space, x, r))
        if best is None or v > best:
            best = v
    return best


def noncentered_value(space, mu, f, x):
    best = None
    for c in range(space.n):
        for r in set(space.dist[c]) | {ZERO}:
            members = ball_members(space, c, r)
            if x not in members:
                continue
            v = average(space, mu, f, members)
            if best is None or v > best:
                best = v
    return best


def argmax_ball(space, mu, f, x, centered):
    """Maximal average at x and the sorted members of the ball attaining it.

    Ties go to the smallest member set, then to the lexicographically first.
    """
    if centered:
        sets = {ball_members(space, x, r) for r in set(space.dist[x]) | {ZERO}}
    else:
        sets = {s for s in all_ball_sets(space) if x in s}
    averages = {s: average(space, mu, f, s) for s in sets}
    best = max(averages.values())
    winners = (tuple(sorted(s)) for s, v in averages.items() if v == best)
    return best, min(winners, key=lambda m: (len(m), m))


def inf_pair_measure(space, mu, x, y):
    best = None
    for c in range(space.n):
        for r in set(space.dist[c]) | {ZERO}:
            members = ball_members(space, c, r)
            if x not in members or y not in members:
                continue
            m = sum((mu.weights[p] for p in members), ZERO)
            if best is None or m < best:
                best = m
    return best


def midpoint_triples(space):
    out = set()
    for a in range(space.n):
        for b in range(a + 1, space.n):
            for m in range(space.n):
                if m in (a, b):
                    continue
                if (
                    space.dist[a][m] == space.dist[m][b]
                    and space.dist[a][m] == space.dist[a][b] / 2
                ):
                    out.add((a, m, b))
    return out


def metric_violations(dist):
    """(axiom, indices, detail) of every violated metric axiom, in check order."""
    n = len(dist)
    out = []
    for i in range(n):
        if dist[i][i] != 0:
            out.append(("diagonal", (i,), f"dist[{i}][{i}] = {dist[i][i]} != 0"))
    for i in range(n):
        for j in range(i + 1, n):
            if dist[i][j] != dist[j][i]:
                detail = f"dist[{i}][{j}] = {dist[i][j]} != {dist[j][i]} = dist[{j}][{i}]"
                out.append(("symmetry", (i, j), detail))
            if dist[i][j] <= 0:
                out.append(("positivity", (i, j), f"dist[{i}][{j}] = {dist[i][j]} is not > 0"))
    for i in range(n):
        for k in range(i + 1, n):
            for j in range(n):
                if j in (i, k):
                    continue
                if dist[i][k] > dist[i][j] + dist[j][k]:
                    detail = (
                        f"dist[{i}][{k}] = {dist[i][k]} > {dist[i][j]} + {dist[j][k]}"
                        f" = dist[{i}][{j}] + dist[{j}][{k}]"
                    )
                    out.append(("triangle", (i, j, k), detail))
    return out


def coincides(space, weights):
    """True iff at every support point x, each ball containing x has the trace
    on the support of some ball centered at x."""
    support = frozenset(p for p in range(space.n) if weights[p] != 0)
    balls = all_ball_sets(space)
    for x in support:
        centered = {ball_members(space, x, r) & support for r in set(space.dist[x]) | {ZERO}}
        if any(x in s and s & support not in centered for s in balls):
            return False
    return True


def ultrametric_violation(dist):
    """First (b, far, near) over pairs a < c, then b, with d(a,c) > max(d(a,b), d(b,c)).

    far and near are a and c, far being c when d(b,c) >= d(b,a).
    """
    n = len(dist)
    for a in range(n):
        for c in range(a + 1, n):
            for b in range(n):
                if b in (a, c) or dist[a][c] <= max(dist[a][b], dist[b][c]):
                    continue
                return (b, c, a) if dist[b][c] >= dist[b][a] else (b, a, c)
    return None
