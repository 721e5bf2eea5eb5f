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
Every other ball mass comes from _ball_sums, in level-major layout: the
per-subtree distance profiles are a (depth+1) x V array with one contiguous
row per radius, built in one bottom-up pass, and one top-down rerooting
recurrence over the radii turns them into ball sums: B(v, r) is v's own
profile plus the parent's ball of radius r - 1, less the part of subtree(v)
counted twice.  Because the children of consecutive parents are
consecutive, each radius is a single O(V) vector step on contiguous rows,
so the full maximal function costs O(V * depth) numpy work instead of
O(V^2) graph searches, and the pair measure is one such pass.  Ball sizes
need no V-wide table: the tree's automorphisms act transitively on each
level, so |B(v, r)| depends only on depth(v), and one (2 depth + 1) x
(depth + 1) table per (k, depth) holds them all.  No TreeSpace carries
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

    def path_of(self, v: int) -> str:
        """Root path of a vertex as dot-joined child indices; root is ''."""
        self.check_vertex(v)
        parts = []
        while v != 0:
            parts.append(str((v - 1) % self.k))
            v = int(self.parent[v])
        return ".".join(reversed(parts))

    def vertex_at(self, path: str) -> int:
        """Inverse of path_of."""
        v = 0
        if path == "":
            return 0
        for part in path.split("."):
            c = int(part)
            if not (0 <= c < self.k):
                raise GridRangeError(f"child index {c} outside 0..{self.k - 1}")
            v = self.k * v + 1 + c
            if v >= self.size:
                raise GridRangeError(f"path {path!r} leaves the tree")
        return v

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
        vals = np.zeros(tree.size)
        for v in vertices:
            tree.check_vertex(int(v))
            vals[int(v)] += 1.0
        return cls(tree, vals)

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

    argmax_radius is the smallest radius attaining the maximum; boundary is
    True where no ball that avoids the truncation depth attains it.
    """

    tree: TreeSpace
    values: np.ndarray
    argmax_radius: np.ndarray
    boundary: np.ndarray

    def trusted(self) -> np.ndarray:
        return ~self.boundary


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


def _subtree_profiles(tree: TreeSpace, values: np.ndarray) -> np.ndarray:
    """cum[r, v] = sum of values over subtree(v) within distance r of v."""
    D, k = tree.depth, tree.k
    sub = np.zeros((D + 1, tree.size))
    sub[0] = values
    starts = tree._level_starts
    for d in range(D - 1, -1, -1):
        # the children of level d are level d + 1, k consecutive per parent,
        # added one child at a time: numpy's reduction over k contiguous
        # values changes its summation order from k = 8 on
        a, b, c = starts[d], starts[d + 1], starts[d + 2]
        for j in range(k):
            sub[1:, a:b] += sub[:-1, b + j : c : k]
    return np.cumsum(sub, axis=0)


def _ball_sums(tree: TreeSpace, values: np.ndarray) -> Iterator[np.ndarray]:
    """Yield the sums of values over B(v, r) for every v, for r = 0 .. 2*depth.

    Rerooting: off the root, B(v, r) is down(v, r) plus B(parent, r - 1)
    minus down(v, r - 2), the part of subtree(v) the parent's ball already
    holds; down(v, r) = 0 for r < 0 and is clipped at r = depth.  The root's
    ball is down(0, r).  Each radius is one O(V) pass over the previous one,
    so all radii cost O(V * depth).  On nonnegative data the subtraction
    cancels nothing large: the subtracted part lies inside both
    B(parent, r - 1) and the result, so every term is at most the result
    and each step adds only a few ulps of it to the relative error.
    """
    D, k = tree.depth, tree.k
    down = _subtree_profiles(tree, values)
    prev = None
    for r in range(2 * D + 1):
        cur = down[min(r, D)].copy()
        if r >= 1:
            # the k consecutive children of parent p each get prev[p]
            cur[1:].reshape(-1, k)[...] += prev[: (tree.size - 1) // k, None]
        if r >= 2:
            cur[1:] -= down[min(r - 2, D), 1:]
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
    counts = np.stack([s[firsts] for s in _ball_sums(tree, np.ones(tree.size))])
    counts.flags.writeable = False
    return counts


def tree_maximal(f: VertexFunction) -> TreeMaximal:
    """Exact centered maximal function over integer radii 0..2*depth."""
    tree = f.tree
    counts = _level_counts(tree.k, tree.depth)
    best = np.full(tree.size, -np.inf)
    best_interior = best.copy()
    arg = np.zeros(tree.size, dtype=np.int64)
    for r, sums in enumerate(_ball_sums(tree, f.values)):
        a = sums / counts[r][tree.depths]
        upd = a > best
        np.copyto(best, a, where=upd)
        np.copyto(arg, r, where=upd)
        # B(v, r) avoids the truncation depth iff depth(v) < depth - r,
        # which on the breadth-first numbering is a prefix of the vertices
        m = tree._level_starts[max(tree.depth - r, 0)]
        np.maximum(best_interior[:m], a[:m], out=best_interior[:m])
    boundary = best_interior < best
    return TreeMaximal(tree, best, arg, boundary)


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
    return TreeMaximal(tree, best, arg, boundary)


def _as_vertex_array(tree: TreeSpace, E: Iterable[int]) -> np.ndarray:
    arr = np.asarray(sorted(set(int(v) for v in E)), dtype=np.int64)
    if arr.size and (arr.min() < 0 or arr.max() >= tree.size):
        raise GridRangeError("vertex set leaves the tree")
    return arr


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
    below = np.array([0.0] + [s[ex].sum() for s in _ball_sums(tree, wf)])
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
