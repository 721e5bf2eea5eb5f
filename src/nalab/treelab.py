"""Exact combinatorics on a rooted complete k-ary tree of finite depth.

The tree is the brute-force backend: balls, the centered maximal operator,
pair-measure sums and the Kolmogorov inequality are all computed exactly in
integer geometry, so every inequality checked here is an honest theorem
about the finite object.

Truncation at depth D is explicit.  A ball is flagged when it reaches the
truncation depth, and the maximal operator flags a vertex when no
truncation-free radius attains its maximum; downstream statistics drop
flagged vertices rather than silently absorbing edge bias.

Layout: vertices are numbered in breadth-first order, the root is 0 and the
children of v are k*v + 1 .. k*v + k.  Level L starts at s_L = (k^L - 1) /
(k - 1), and the subtree of a vertex a at depth e covers, on each level
L >= e, the k^(L-e) consecutive vertices from s_L + (a - s_e) k^(L-e).
distances_from finds lowest common ancestors by writing into these blocks,
one per ancestor and level; it serves tree_ball and the naive oracle.

Every other ball mass rests on one identity.  For v at depth d off the
root and r >= D - d + 2, B(v, r) = B(parent, r - 1) as vertex sets: the
parent's ball of radius r - 1 already holds all of subtree(v), whose
deepest vertex is D - d + 1 from the parent, and it holds every vertex
outside subtree(v) that B(v, r) holds.  So only the radii
0 .. D - d + 1 of v are local; every larger radius repeats an
ancestor's ball.  _ball_sums computes the local radii alone, one
top-down step per radius: row r covers the levels <= D - r + 1, a prefix
of the breadth-first numbering, and the radii run 0 .. D + 1.  Summed over
the rows, that is about (2 + 1/(k - 1)) V entries instead of
(2 D + 1) V, so a maximal function costs O(V) numpy work.  The maximal
function splits v's radii into the interior ones r < D - d, whose balls
clear the truncation depth, the two pivot radii D - d and D - d + 1, and
the inherited tail, a running maximum of the pivot averages down the root
path.  It yields values and flags; TreeMaximal finds the argmax radius on
demand.  The pair measure and the ball-size table need every radius up to
2 D; they fill the deeper levels of each row from the parent's previous
row by the same identity.  Because the children of consecutive parents are
consecutive, every step is a vector operation on contiguous rows.

Ball sizes are _ball_sums of the constant 1, taken once per (k, depth)
by _local_counts, for exact division.  argmax_radius reads them from a
smaller table: a ball's size depends only on depth(v), since the tree's
automorphisms act transitively on each level, so one (2 depth + 1) x
(depth + 1) table per (k, depth) holds every radius.  No TreeSpace carries
state beyond its shape arrays.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Iterable, Iterator, Optional, Sequence

import numpy as np

from .errors import DomainError, GridRangeError

__all__ = [
    "TreeSpace",
    "VertexFunction",
    "VertexWeight",
    "TreeBall",
    "TreeMaximal",
    "KolmogorovReport",
    "tree_ball",
    "tree_maximal",
    "tree_maximal_naive",
    "tree_product_measure",
    "tree_kolmogorov",
    "weak11_constant",
]


class TreeSpace:
    """Complete rooted k-ary tree truncated at a fixed depth.

    size = (k^(depth+1) - 1) / (k - 1) vertices, counting measure.
    """

    def __init__(self, k: int, depth: int):
        if k < 2:
            raise DomainError(f"branching factor must be >= 2, got {k}")
        if depth < 1:
            raise DomainError(f"depth must be >= 1, got {depth}")
        self.k = int(k)
        self.depth = int(depth)
        self.size = (k ** (depth + 1) - 1) // (k - 1)

        self.parent = np.concatenate(
            [[-1], (np.arange(1, self.size, dtype=np.int64) - 1) // k]
        )
        widths = k ** np.arange(depth + 1, dtype=np.int64)
        self.depths = np.repeat(np.arange(depth + 1, dtype=np.int64), widths)
        self._level_starts = np.concatenate([[0], np.cumsum(widths)])

    def check_vertex(self, v: int):
        if not (0 <= v < self.size):
            raise GridRangeError(f"vertex {v} outside 0..{self.size - 1}")

    def distance(self, x: int, y: int) -> int:
        self.check_vertex(x)
        self.check_vertex(y)
        dx, dy = int(self.depths[x]), int(self.depths[y])
        d = 0
        while dx > dy:
            x = int(self.parent[x])
            dx -= 1
            d += 1
        while dy > dx:
            y = int(self.parent[y])
            dy -= 1
            d += 1
        while x != y:
            x = int(self.parent[x])
            y = int(self.parent[y])
            d += 2
        return d

    def distances_from(self, x: int) -> np.ndarray:
        """Distances from x to every vertex.

        Writing e into the level blocks of x's ancestor at depth e, for
        e = 1 .. depth(x), leaves at every vertex the depth of its lowest
        common ancestor with x: a deeper ancestor's blocks lie inside the
        shallower ones' and overwrite them.
        """
        self.check_vertex(x)
        s, k, dx = self._level_starts.tolist(), self.k, int(self.depths[x])
        lca = np.zeros(self.size, dtype=np.int64)
        for e in range(1, dx + 1):
            # the ancestor's place on level e
            offset = (int(x) - s[dx]) // k ** (dx - e)
            for lvl in range(e, self.depth + 1):
                width = k ** (lvl - e)
                lo = s[lvl] + offset * width
                lca[lo : lo + width] = e
        return dx + self.depths - 2 * lca

    def __repr__(self):
        return f"TreeSpace(k={self.k}, depth={self.depth}, size={self.size})"


@dataclass
class VertexFunction:
    """Nonnegative data on the vertices of a tree."""

    tree: TreeSpace
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.shape != (self.tree.size,):
            raise DomainError("vertex data must cover every vertex")
        if not np.all(np.isfinite(self.values)) or np.any(self.values < 0):
            raise DomainError("vertex data must be finite and nonnegative")

    @classmethod
    def zeros(cls, tree: TreeSpace) -> "VertexFunction":
        return cls(tree, np.zeros(tree.size))

    @classmethod
    def dirac(cls, tree: TreeSpace, vertices: Sequence[int]) -> "VertexFunction":
        counts = np.bincount(_vertex_ids(tree, vertices), minlength=tree.size)
        return cls(tree, counts.astype(float))

    def norm1(self) -> float:
        return float(self.values.sum())


@dataclass
class VertexWeight(VertexFunction):
    """Strictly positive data on the vertices."""

    def __post_init__(self):
        super().__post_init__()
        if np.any(self.values <= 0):
            raise DomainError("vertex weights must be strictly positive")

    @classmethod
    def ones(cls, tree: TreeSpace) -> "VertexWeight":
        return cls(tree, np.ones(tree.size))


@dataclass
class TreeBall:
    center: int
    radius: int
    vertices: np.ndarray
    touches_boundary: bool

    def __len__(self):
        return int(self.vertices.size)


@dataclass
class TreeMaximal:
    """Exact centered maximal function with truncation bookkeeping.

    boundary is True where no ball that avoids the truncation depth attains
    the maximum.  argmax_radius, computed from data (a copy of the
    function's values) on first read, is the smallest r in 0..2*depth whose
    ball average equals values bit for bit; a radius that repeats an
    ancestor's ball repeats that ball's sum and size bit for bit.
    """

    tree: TreeSpace
    values: np.ndarray
    boundary: np.ndarray
    data: np.ndarray

    def trusted(self) -> np.ndarray:
        return ~self.boundary

    @functools.cached_property
    def argmax_radius(self) -> np.ndarray:
        tree = self.tree
        counts = _level_counts(tree.k, tree.depth)[:, tree.depths]
        arg = np.full(tree.size, -1)
        for r, sums in enumerate(_all_ball_sums(tree, self.data[:, None])):
            np.copyto(arg, r, where=(arg < 0) & (sums[:, 0] / counts[r] == self.values))
        return arg


def tree_ball(tree: TreeSpace, x: int, r: int) -> TreeBall:
    """Closed ball B(x, r) by exact distance enumeration.

    touches_boundary is depth(x) + r >= depth: the ball reaches the
    truncation wall, so on the untruncated tree it would hold more vertices.
    """
    if r < 0 or r > 2 * tree.depth:
        raise GridRangeError(
            f"radius {r} outside 0..{2 * tree.depth} (tree diameter)"
        )
    dist = tree.distances_from(x)
    verts = np.flatnonzero(dist <= r)
    flag = bool(int(tree.depths[x]) + r >= tree.depth)
    return TreeBall(center=int(x), radius=int(r), vertices=verts, touches_boundary=flag)


def _ball_sums(tree: TreeSpace, block: np.ndarray) -> list:
    """Local ball sums of the columns of a C-contiguous (V x m) block.

    Row r, for r = 0 .. depth + 1, holds the sums over B(v, r) of the
    vertices at depth <= depth - r + 1, the prefix of the breadth-first
    numbering up to the start of level depth - r + 2; deeper vertices
    inherit their ball of radius r from the parent (module docstring).
    With sub(v, j) the sum over the vertices j levels below v, one
    top-down step per radius gives

        B(v, r) = B(parent, r - 1) + sub(v, r - 1) + sub(v, r),

    since B(parent, r - 1) holds all of B(v, r) but the part of subtree(v)
    at distance r - 1 and r, and the root's ball is B(root, r - 1) plus
    sub(root, r).  Every term is nonnegative on nonnegative data, so no
    step cancels.  sub(., r) is nonzero only on depth <= depth - r, and is
    built from sub(., r - 1) by adding the k children one at a time, in
    order: numpy's reduction over k contiguous values changes its
    summation order from k = 8 on.  Row r costs O(k^(depth - r + 2)), so
    all rows together are O(V) work.
    """
    D, k, s = tree.depth, tree.k, tree._level_starts.tolist()
    m = block.shape[1]
    sub, rows = block, [block]
    for r in range(1, D + 1):
        n = s[D - r + 1]  # the vertices with descendants r levels down
        nxt = sub[1 : k * n + 1 : k].copy()
        for j in range(2, k + 1):
            nxt += sub[j : k * n + 1 : k]
        ball = sub.copy()
        ball[:n] += nxt
        # the k consecutive children of parent p each get B(p, r - 1)
        ball[1:].reshape(-1, k, m)[...] += rows[-1][: (len(ball) - 1) // k, None]
        ball[0] = rows[-1][0] + nxt[0]
        rows.append(ball)
        sub = nxt
    rows.append(rows[D][:1])  # B(root, depth + 1) = B(root, depth), the whole tree
    return rows


def _all_ball_sums(tree: TreeSpace, block: np.ndarray) -> Iterator[np.ndarray]:
    """Yield B(v, r) for every vertex, for r = 0 .. 2*depth, as V x m rows.

    The local row r of _ball_sums, and below it B(v, r) = B(parent, r - 1)
    read from the row before.
    """
    (V, m), k = block.shape, tree.k
    rows = _ball_sums(tree, block)
    prev = None
    for r in range(2 * tree.depth + 1):
        local = rows[min(r, tree.depth + 1)]
        n = len(local)
        cur = np.empty((V, m))
        cur[:n] = local
        if n < V:
            cur[n:].reshape(-1, k, m)[...] = prev[(n - 1) // k : (V - 1) // k, None]
        yield cur
        prev = cur


@functools.lru_cache(maxsize=16)
def _level_counts(k: int, depth: int) -> np.ndarray:
    """counts[r, d] = |B(v, r)| for every vertex v at depth d; read-only.

    The automorphisms of the truncated tree act transitively on each level,
    so a ball's size depends only on its centre's depth and the first
    vertex of each level stands for all of them.
    """
    tree = TreeSpace(k, depth)
    firsts = tree._level_starts[:-1]
    ones = np.ones((tree.size, 1))
    counts = np.stack([s[firsts, 0] for s in _all_ball_sums(tree, ones)])
    counts.flags.writeable = False
    return counts


@functools.lru_cache(maxsize=16)
def _local_counts(k: int, depth: int) -> tuple:
    """The local rows of _ball_sums on the constant 1, the ball sizes; read-only."""
    tree = TreeSpace(k, depth)
    rows = _ball_sums(tree, np.ones((tree.size, 1)))
    for row in rows:
        row.flags.writeable = False
    return tuple(rows)


def _tree_maximal_block(tree: TreeSpace, block: np.ndarray) -> tuple:
    """Maximal functions of the columns of a (V x m) block of vertex data.

    Returns (values, boundary), each V x m, with the meaning of the
    TreeMaximal fields.  The averages of the local rows of _ball_sums split
    three ways for v at depth d.  The interior radii r < depth - d give
    balls clear of the truncation depth.  The pivot radii depth - d and
    depth - d + 1 give P(v), the larger of their two averages.  Every
    larger radius repeats the parent's ball one radius down, so the tail
    T(v) = max(P(v), T(parent)) runs down the root path one level at a
    time.  Mf = max(interior best, T), flagged where T is strictly larger.
    """
    D, k, s = tree.depth, tree.k, tree._level_starts.tolist()
    block = np.ascontiguousarray(block, dtype=float)
    V, m = block.shape
    avgs, counts = _ball_sums(tree, block), _local_counts(k, D)
    # in place; row 0 is the caller's, row D + 1 views row D's root (same count)
    avgs[0] = avgs[0] / counts[0]
    for a, c in zip(avgs[1 : D + 1], counts[1 : D + 1]):
        a /= c
    tail = np.empty((V, m))
    for d in range(D + 1):  # level d's pivots: rows D - d and D - d + 1
        lo, hi = s[d], s[d + 1]
        np.maximum(avgs[D - d][lo:hi], avgs[D - d + 1][lo:hi], out=tail[lo:hi])
        if d:
            level = tail[lo:hi].reshape(-1, k, m)
            np.maximum(level, tail[s[d - 1] : lo, None], out=level)
    # interior: row r's vertices at depth < depth - r, a prefix of the row;
    # their best gathers in row 0 above the leaves
    inner = avgs[0][: s[D]]
    for r in range(1, D):
        n = s[D - r]
        np.maximum(inner[:n], avgs[r][:n], out=inner[:n])
    top = tail[: s[D]]
    boundary = np.ones((V, m), dtype=bool)
    np.greater(top, inner, out=boundary[: s[D]])
    np.maximum(top, inner, out=top)
    return tail, boundary


def tree_maximal(f: VertexFunction) -> TreeMaximal:
    """Exact centered maximal function over integer radii 0..2*depth.

    The one-column case of _tree_maximal_block: O(V) numpy work, about
    2 + 1/(k - 1) ball averages per vertex instead of 2*depth + 1.
    """
    values, boundary = _tree_maximal_block(f.tree, f.values[:, None])
    return TreeMaximal(f.tree, values[:, 0], boundary[:, 0], f.values.copy())


def tree_maximal_naive(f: VertexFunction) -> TreeMaximal:
    """Reference double loop over vertices and radii; exact but O(V^2 D)."""
    tree = f.tree
    D = tree.depth
    best = np.zeros(tree.size)
    arg = np.zeros(tree.size, dtype=np.int64)
    boundary = np.zeros(tree.size, dtype=bool)
    for v in range(tree.size):
        dist = tree.distances_from(v)
        bv, ar = -np.inf, 0
        b_int = -np.inf
        for r in range(0, 2 * D + 1):
            inside = dist <= r
            a = float(f.values[inside].sum()) / float(inside.sum())
            if a > bv:
                bv, ar = a, r
            if tree.depths[v] + r < D and a > b_int:
                b_int = a
        best[v], arg[v] = bv, ar
        boundary[v] = b_int < bv
    result = TreeMaximal(tree, best, boundary, f.values.copy())
    result.argmax_radius = arg  # the oracle's own, not the scan's
    return result


def _vertex_ids(tree: TreeSpace, E: Iterable[int]) -> np.ndarray:
    """E as a flat int64 array of vertex ids, repeats kept.

    Non-integer ids, bools among them, raise DomainError rather than being
    truncated to a vertex; ids outside the tree raise GridRangeError.
    """
    if not isinstance(E, np.ndarray):
        E = list(E)
        # numpy would store [1, True] as the integers [1, 1]
        if any(isinstance(v, (bool, np.bool_)) for v in E):
            raise DomainError("vertex ids must be integers, got a bool")
    arr = np.asarray(E)
    if arr.size == 0:
        return np.zeros(0, dtype=np.int64)
    if arr.ndim != 1 or not np.issubdtype(arr.dtype, np.integer):
        raise DomainError(
            f"vertex ids must be a flat sequence of integers, got {arr.dtype} "
            f"of shape {arr.shape}"
        )
    if arr.min() < 0 or arr.max() >= tree.size:
        raise GridRangeError(f"vertex set leaves the tree 0..{tree.size - 1}")
    return arr.astype(np.int64, copy=False)


def _as_vertex_array(tree: TreeSpace, E: Iterable[int]) -> np.ndarray:
    """The distinct vertex ids of E, sorted."""
    return np.unique(_vertex_ids(tree, E))


def tree_product_measure(
    w: VertexWeight,
    E: Iterable[int],
    F: Iterable[int],
    n: int,
    mode: str = "less-than",
) -> float:
    """Mass of {(x, y) in E x F : d(x, y) = n (or < n)} under counting (x) w(y).

    The exact-distance mode sums w(y) over pairs at distance exactly n; the
    less-than mode over pairs at distance strictly below n.  Both come from
    one ball-sum pass of w * 1_F summed over x in E: pairs at distance below
    n are the balls of radius n - 1, and those at distance n are the
    difference of the radii n and n - 1.  That difference is exact on
    integer weights; on float weights it is accurate to a few ulps of the
    ball mass at radius n, not of the (possibly much smaller) result.
    """
    if mode not in ("exact-distance", "less-than"):
        raise DomainError(f"unknown pair mode {mode!r}")
    if not isinstance(n, (int, np.integer)) or n < 0:
        raise DomainError(f"pair distance must be a nonnegative integer, got {n!r}")
    tree = w.tree
    ex = _as_vertex_array(tree, E)
    fy = _as_vertex_array(tree, F)
    if ex.size == 0 or fy.size == 0:
        return 0.0
    wf = np.zeros(tree.size)
    wf[fy] = w.values[fy]
    # below[r] is the mass of the pairs at distance below r, for r up to
    # 2 * depth + 1, past the diameter
    below = np.array([0.0] + [s[ex].sum() for s in _all_ball_sums(tree, wf[:, None])])
    lo, hi = below[np.minimum([n, n + 1], below.size - 1)]
    return float(lo if mode == "less-than" else hi - lo)


def weak11_constant(f: VertexFunction, result: Optional[TreeMaximal] = None) -> float:
    """Exact weak-(1,1) quotient sup_l l*|{Mf > l}| / ||f||_1.

    The superlevel count runs over trusted (unflagged) vertices; the sup
    over levels is attained just below a value of Mf, so it is evaluated
    exactly by scanning distinct values.  result, when given, must be
    tree_maximal(f); one on a tree of another shape raises DomainError.
    """
    shape = (f.tree.k, f.tree.depth)
    if result is not None and (result.tree.k, result.tree.depth) != shape:
        raise DomainError(f"maximal function on {result.tree} does not fit {f.tree}")
    nrm = f.norm1()
    if nrm == 0.0:
        return 0.0
    if result is None:
        result = tree_maximal(f)
    vals = result.values[result.trusted()]
    vals = vals[vals > 0]
    if vals.size == 0:
        return 0.0
    vals = np.sort(vals)[::-1]
    # |{Mf >= v}| for the i-th largest distinct v is i+1 counting duplicates
    counts = np.arange(1, vals.size + 1)
    keep = np.ones(vals.size, dtype=bool)
    keep[:-1] = vals[:-1] != vals[1:]  # last occurrence of each distinct value
    return float(np.max(vals[keep] * counts[keep]) / nrm)


@dataclass
class KolmogorovReport:
    q: float
    lhs: float
    rhs: float
    weak_constant: float
    holds: bool


def tree_kolmogorov(
    q: float,
    f: VertexFunction,
    B: Iterable[int],
    result: Optional[TreeMaximal] = None,
) -> KolmogorovReport:
    """Check sum_B (Mf)^q <= c^q/(1-q) * |B|^(1-q) * ||f||_1^q exactly.

    c is the weak-(1,1) quotient measured for this very f, which makes the
    inequality a theorem about the finite tree.  The left side runs over
    trusted vertices of B.  result, when given, must be tree_maximal(f); it
    saves recomputing Mf when several exponents share one f.  A result on a
    tree of another shape raises DomainError.
    """
    if not (0.0 < q < 1.0):
        raise DomainError(f"Kolmogorov exponent must lie in (0,1), got {q}")
    tree = f.tree
    bv = _as_vertex_array(tree, B)
    res = tree_maximal(f) if result is None else result
    weak_constant = weak11_constant(f, res)
    trusted = res.trusted()[bv]
    lhs = float(np.sum(res.values[bv[trusted]] ** q))
    rhs = (
        weak_constant**q / (1.0 - q) * bv.size ** (1.0 - q) * f.norm1() ** q
    )
    return KolmogorovReport(
        q=float(q),
        lhs=lhs,
        rhs=float(rhs),
        weak_constant=float(weak_constant),
        holds=bool(lhs <= rhs * (1 + 1e-12)),
    )
