"""Seeded planar point sets and their Delaunay triangulation, in pure Python.

:func:`random_delaunay_network` (and so :func:`atlanta_like`) needs two
things: a reproducible uniform point set and its Delaunay edges. This module
provides both in pure Python, so building an irregular map imports no
numerical library:

* :func:`uniform_points` draws exactly the doubles
  ``numpy.random.default_rng(seed).uniform(0.0, extent, (count, 2))`` draws:
  SeedSequence pool hashing, the PCG64 (XSL-RR) stream and 53-bit doubles.
  Bit-identical draws keep every map the generators built with numpy.
* :func:`delaunay_edges` triangulates with a sweep hull in the Delaunator
  scheme: points are added in order of distance from a seed triangle, each
  joins the convex hull (found through a pseudo-angle hash), and flips
  restore the Delaunay condition. Orientation and in-circle tests fall back
  to exact rational arithmetic when floating point cannot decide them, so the
  edge set is the exact Delaunay triangulation of points in general position.

The triangulation never drops a point silently: duplicate points, points it
cannot place and all-collinear input raise :class:`RoadNetworkError`, because
a dropped junction would leave the generated map disconnected.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction
from typing import List, Optional, Sequence, Tuple

from ..errors import RoadNetworkError

__all__ = ["uniform_points", "delaunay_edges"]

# ----------------------------------------------------------------------
# seeded draws: numpy's SeedSequence -> PCG64 -> uniform doubles
# ----------------------------------------------------------------------
_MASK32 = 0xFFFFFFFF
_MASK64 = (1 << 64) - 1
_MASK128 = (1 << 128) - 1

# SeedSequence hashing constants (numpy.random.bit_generator).
_INIT_A = 0x43B0D7E5
_MULT_A = 0x931E8875
_INIT_B = 0x8B51F9DD
_MULT_B = 0x58F38DED
_MIX_MULT_L = 0xCA01F9DD
_MIX_MULT_R = 0x4973F715
_POOL_SIZE = 4

#: PCG64's 128-bit LCG multiplier.
_PCG_MULTIPLIER = 0x2360ED051FC65DA44385DF649FCCF645


def _seed_pool(seed: int) -> List[int]:
    """The 4-word entropy pool ``SeedSequence(seed)`` mixes from ``seed``."""
    words = []
    while True:  # little-endian 32-bit words; 0 is one zero word
        words.append(seed & _MASK32)
        seed >>= 32
        if not seed:
            break
    hash_const = _INIT_A

    def hashmix(value: int) -> int:
        nonlocal hash_const
        value ^= hash_const
        hash_const = (hash_const * _MULT_A) & _MASK32
        value = (value * hash_const) & _MASK32
        return value ^ (value >> 16)

    def mix(x: int, y: int) -> int:
        result = (_MIX_MULT_L * x - _MIX_MULT_R * y) & _MASK32
        return result ^ (result >> 16)

    pool = [hashmix(words[i] if i < len(words) else 0) for i in range(_POOL_SIZE)]
    for source in range(_POOL_SIZE):
        for target in range(_POOL_SIZE):
            if source != target:
                pool[target] = mix(pool[target], hashmix(pool[source]))
    for source in range(_POOL_SIZE, len(words)):
        for target in range(_POOL_SIZE):
            pool[target] = mix(pool[target], hashmix(words[source]))
    return pool


def _pcg64_seed(seed: int) -> Tuple[int, int]:
    """The (state, increment) of ``PCG64(SeedSequence(seed))``."""
    pool = _seed_pool(seed)
    hash_const = _INIT_B
    words = []
    for index in range(8):  # generate_state(4, uint64) as 8 uint32 words
        value = pool[index % _POOL_SIZE] ^ hash_const
        hash_const = (hash_const * _MULT_B) & _MASK32
        value = (value * hash_const) & _MASK32
        words.append(value ^ (value >> 16))
    u64 = [words[2 * k] | (words[2 * k + 1] << 32) for k in range(4)]
    initial_state = (u64[0] << 64) | u64[1]
    increment = (((u64[2] << 64) | u64[3]) << 1 | 1) & _MASK128
    # pcg_setseq_128_srandom_r: step from 0 (giving the increment), add
    # the initial state, step again.
    state = (increment + initial_state) & _MASK128
    return (state * _PCG_MULTIPLIER + increment) & _MASK128, increment


def uniform_points(seed: int, count: int, extent: float) -> List[Tuple[float, float]]:
    """``count`` points uniform in ``[0, extent)^2``, bit-identical to
    ``numpy.random.default_rng(seed).uniform(0.0, extent, (count, 2))``.

    Raises:
        RoadNetworkError: ``seed`` is negative.
    """
    seed = operator.index(seed)
    if seed < 0:
        raise RoadNetworkError(f"seed must be non-negative, got {seed}")
    state, increment = _pcg64_seed(seed)
    multiplier, mask64, mask128 = _PCG_MULTIPLIER, _MASK64, _MASK128
    scale = 1.0 / 9007199254740992.0  # 2**-53
    draws = []
    for _ in range(2 * count):
        state = (state * multiplier + increment) & mask128
        rotation = state >> 122
        word = ((state >> 64) ^ state) & mask64
        word = ((word >> rotation) | (word << (64 - rotation))) & mask64
        draws.append(extent * ((word >> 11) * scale))
    return list(zip(draws[0::2], draws[1::2]))


# ----------------------------------------------------------------------
# exact-when-needed geometric predicates
# ----------------------------------------------------------------------
_EPS = 2.0**-53
#: Shewchuk's forward error bounds of the orientation and in-circle
#: determinants: past them the floating-point sign is certain.
_ORIENT_BOUND = (3.0 + 16.0 * _EPS) * _EPS
_INCIRCLE_BOUND = (10.0 + 96.0 * _EPS) * _EPS


def _sign(exact: Fraction) -> float:
    # The sign alone: a tiny exact value could underflow as a float.
    return float((exact > 0) - (exact < 0))


def _orient(ax: float, ay: float, bx: float, by: float, cx: float, cy: float) -> float:
    """Positive when ``a, b, c`` turn counter-clockwise, negative when
    clockwise, zero when collinear; the sign is exact."""
    left = (ax - cx) * (by - cy)
    right = (ay - cy) * (bx - cx)
    det = left - right
    if abs(det) > _ORIENT_BOUND * (abs(left) + abs(right)):
        return det
    ax, ay, bx, by, cx, cy = map(Fraction, (ax, ay, bx, by, cx, cy))
    return _sign((ax - cx) * (by - cy) - (ay - cy) * (bx - cx))


def _incircle(
    ax: float, ay: float, bx: float, by: float, cx: float, cy: float,
    px: float, py: float,
) -> float:
    """Positive when ``p`` lies inside the circle through the
    counter-clockwise ``a, b, c`` (negative inside for clockwise ones);
    the sign is exact."""
    adx, ady, bdx, bdy, cdx, cdy = ax - px, ay - py, bx - px, by - py, cx - px, cy - py
    bc, cb = bdx * cdy, cdx * bdy
    ca, ac = cdx * ady, adx * cdy
    ab, ba = adx * bdy, bdx * ady
    alift = adx * adx + ady * ady
    blift = bdx * bdx + bdy * bdy
    clift = cdx * cdx + cdy * cdy
    det = alift * (bc - cb) + blift * (ca - ac) + clift * (ab - ba)
    permanent = (
        (abs(bc) + abs(cb)) * alift
        + (abs(ca) + abs(ac)) * blift
        + (abs(ab) + abs(ba)) * clift
    )
    if abs(det) > _INCIRCLE_BOUND * permanent:
        return det
    ax, ay, bx, by, cx, cy, px, py = map(Fraction, (ax, ay, bx, by, cx, cy, px, py))
    adx, ady, bdx, bdy, cdx, cdy = ax - px, ay - py, bx - px, by - py, cx - px, cy - py
    return _sign(
        (adx * adx + ady * ady) * (bdx * cdy - cdx * bdy)
        + (bdx * bdx + bdy * bdy) * (cdx * ady - adx * cdy)
        + (cdx * cdx + cdy * cdy) * (adx * bdy - bdx * ady)
    )


# ----------------------------------------------------------------------
# sweep-hull Delaunay triangulation
# ----------------------------------------------------------------------
def delaunay_edges(points: Sequence[Tuple[float, float]]) -> List[Tuple[int, int]]:
    """The Delaunay edges of ``points`` as ``(a, b)`` index pairs, ``a < b``.

    Triangles are kept as a flat vertex array with a twin (halfedge) array:
    halfedge ``e`` runs from ``triangles[e]`` to the next vertex of its
    triangle, and ``halfedges[e]`` is the opposite halfedge, ``-1`` on the
    convex hull. Triangles are stored clockwise.

    Raises:
        RoadNetworkError: Fewer than 3 points, all points collinear, or a
            point that could not be placed (a duplicate).
    """
    n = len(points)
    if n < 3:
        raise RoadNetworkError(f"a triangulation needs at least 3 points, got {n}")
    xs = [float(x) for x, _ in points]
    ys = [float(y) for _, y in points]
    center_x = (min(xs) + max(xs)) / 2
    center_y = (min(ys) + max(ys)) / 2

    def squared_distance(i: int, x: float, y: float) -> float:
        dx, dy = xs[i] - x, ys[i] - y
        return dx * dx + dy * dy

    # Seed triangle: the point nearest the box centre, its nearest
    # neighbour, and the point closing the smallest circumcircle.
    i0 = min(range(n), key=lambda i: squared_distance(i, center_x, center_y))
    x0, y0 = xs[i0], ys[i0]
    i1, best = -1, math.inf
    for i in range(n):
        d = squared_distance(i, x0, y0)
        if 0.0 < d < best:
            i1, best = i, d
    if i1 < 0:
        raise RoadNetworkError("cannot triangulate: all points coincide")
    x1, y1 = xs[i1], ys[i1]
    i2, best = -1, math.inf
    for i in range(n):
        if i == i0 or i == i1:
            continue
        centre = _circumcenter(x0, y0, x1, y1, xs[i], ys[i])
        if centre is not None:
            radius = squared_distance(i0, *centre)
            if radius < best:
                i2, best = i, radius
    if i2 < 0:
        raise RoadNetworkError("cannot triangulate: all points are collinear")
    if _orient(x0, y0, x1, y1, xs[i2], ys[i2]) > 0:
        i1, i2 = i2, i1
    x1, y1, x2, y2 = xs[i1], ys[i1], xs[i2], ys[i2]
    seed_x, seed_y = _circumcenter(x0, y0, x1, y1, x2, y2)

    hash_size = math.ceil(math.sqrt(n))

    def hash_key(x: float, y: float) -> int:
        dx, dy = x - seed_x, y - seed_y
        spread = abs(dx) + abs(dy)
        p = dx / spread if spread else 0.0
        angle = (3.0 - p if dy > 0 else 1.0 + p) / 4.0  # pseudo-angle in [0, 1]
        return int(angle * hash_size) % hash_size

    triangles: List[int] = []
    halfedges: List[int] = []

    def link(a: int, b: int) -> None:
        halfedges[a] = b
        if b != -1:
            halfedges[b] = a

    def add_triangle(v0: int, v1: int, v2: int, a: int, b: int, c: int) -> int:
        t = len(triangles)
        triangles.extend((v0, v1, v2))
        halfedges.extend((a, b, c))
        link(t, a)
        link(t + 1, b)
        link(t + 2, c)
        return t

    # The hull is a doubly linked cycle of point indices, clockwise;
    # hull_tri[v] is the halfedge of the hull edge leaving v.
    hull_next = [0] * n
    hull_prev = [0] * n
    hull_tri = [0] * n
    hull_hash = [-1] * hash_size
    hull_next[i0] = hull_prev[i2] = i1
    hull_next[i1] = hull_prev[i0] = i2
    hull_next[i2] = hull_prev[i1] = i0
    hull_tri[i0], hull_tri[i1], hull_tri[i2] = 0, 1, 2
    for v in (i0, i1, i2):
        hull_hash[hash_key(xs[v], ys[v])] = v
    hull_start = i0
    add_triangle(i0, i1, i2, -1, -1, -1)

    def legalize(a: int) -> int:
        """Flip edges from halfedge ``a`` (opposite the point just added)
        until every triangle around it is Delaunay. Flipped pairs are
        checked depth first, ``pr`` side last, so the returned halfedge —
        the one leaving the new point in the last triangle checked — is
        the new point's edge on the ``pr`` side: the hull edge a caller
        that just added a hull triangle records.

        Before and after flipping the pair sharing ``a``/``b``::

                   pl                    pl
                  /||\\                  /  \\
               al/ || \\bl            al/    \\a
                /  ||  \\              /      \\
               /  a||b  \\    flip    /___ar___\\
             p0\\   ||   /p1   =>   p0\\---bl---/p1
                \\  ||  /              \\      /
               ar\\ || /br             b\\    /br
                  \\||/                  \\  /
                   pr                    pr
        """
        stack: List[int] = []
        while True:
            b = halfedges[a]
            a0 = a - a % 3
            ar = a0 + (a + 2) % 3
            if b == -1:
                if not stack:
                    return ar
                a = stack.pop()
                continue
            b0 = b - b % 3
            al = a0 + (a + 1) % 3
            bl = b0 + (b + 2) % 3
            p0, pr, pl, p1 = triangles[ar], triangles[a], triangles[al], triangles[bl]
            if _incircle(
                xs[p0], ys[p0], xs[pr], ys[pr], xs[pl], ys[pl], xs[p1], ys[p1]
            ) >= 0:
                if not stack:
                    return ar
                a = stack.pop()
                continue
            triangles[a] = p1
            triangles[b] = p0
            hbl = halfedges[bl]
            if hbl == -1:
                # The flip moved a hull edge from bl to a; repoint its owner.
                e = hull_start
                while True:
                    if hull_tri[e] == bl:
                        hull_tri[e] = a
                        break
                    e = hull_prev[e]
                    if e == hull_start:
                        break
            link(a, hbl)
            link(b, halfedges[ar])
            link(ar, bl)
            stack.append(b0 + (b + 1) % 3)

    order = sorted(range(n), key=lambda i: squared_distance(i, seed_x, seed_y))
    previous_x = previous_y = math.nan
    for i in order:
        x, y = xs[i], ys[i]
        # Equal points sort next to each other; one that does not (a tie in
        # distance between them) finds no visible hull edge below.
        if x == previous_x and y == previous_y:
            raise RoadNetworkError(
                f"cannot triangulate: point {i} duplicates another point"
            )
        previous_x, previous_y = x, y
        if i == i0 or i == i1 or i == i2:
            continue

        # A hull edge the point can see, starting from the hash bucket.
        key = hash_key(x, y)
        start = 0
        for j in range(hash_size):
            start = hull_hash[(key + j) % hash_size]
            if start != -1 and start != hull_next[start]:
                break
        start = e = hull_prev[start]
        while True:
            q = hull_next[e]
            if _orient(x, y, xs[e], ys[e], xs[q], ys[q]) > 0:
                break
            e = q
            if e == start:
                raise RoadNetworkError(
                    f"cannot triangulate: point {i} lies on the hull or "
                    "duplicates another point"
                )

        t = add_triangle(e, i, hull_next[e], -1, -1, hull_tri[e])
        hull_tri[i] = legalize(t + 2)
        hull_tri[e] = t

        # Walk forward along the hull, fanning triangles to the new point.
        nxt = hull_next[e]
        while True:
            q = hull_next[nxt]
            if _orient(x, y, xs[nxt], ys[nxt], xs[q], ys[q]) <= 0:
                break
            t = add_triangle(nxt, i, q, hull_tri[i], -1, hull_tri[nxt])
            hull_tri[i] = legalize(t + 2)
            hull_next[nxt] = nxt  # removed from the hull
            nxt = q

        # And backward, when the visible edge was the search's first.
        if e == start:
            while True:
                q = hull_prev[e]
                if _orient(x, y, xs[q], ys[q], xs[e], ys[e]) <= 0:
                    break
                t = add_triangle(q, i, e, -1, hull_tri[e], hull_tri[q])
                legalize(t + 2)
                hull_tri[q] = t
                hull_next[e] = e  # removed from the hull
                e = q

        hull_start = hull_prev[i] = e
        hull_next[e] = hull_prev[nxt] = i
        hull_next[i] = nxt
        hull_hash[key] = i
        hull_hash[hash_key(xs[e], ys[e])] = e

    edges = []
    for e, twin in enumerate(halfedges):
        if twin < e:  # each interior edge once, every hull edge
            a = triangles[e]
            b = triangles[e + 1 if e % 3 < 2 else e - 2]
            edges.append((a, b) if a < b else (b, a))
    return edges


def _circumcenter(
    ax: float, ay: float, bx: float, by: float, cx: float, cy: float
) -> Optional[Tuple[float, float]]:
    """The centre of the circle through ``a, b, c``; ``None`` when they are
    collinear."""
    dx, dy, ex, ey = bx - ax, by - ay, cx - ax, cy - ay
    cross = dx * ey - dy * ex
    if cross == 0.0:
        return None
    bl, cl = dx * dx + dy * dy, ex * ex + ey * ey
    d = 0.5 / cross
    return ax + (ey * bl - dy * cl) * d, ay + (dx * cl - ex * bl) * d
