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
demand from the same local rows, carrying the tail's argmax down the root
path as the tail is carried.  The pair measure needs every radius up to
2 D; it fills the deeper levels of each row from the parent's previous
row by the same identity.  Because the children of consecutive parents are
consecutive, every step is a vector operation on contiguous rows.

Data enter as a C-contiguous block whose first axis runs over the
vertices: the values of one function, shape (V,), or m functions side by
side, shape (V, m), as vector_valued_ratio passes them.  Every row of
_ball_sums has the block's trailing shape, a level of k children per
parent is reshape(-1, k, *trailing), and a parent's row broadcasts over
its children through a new axis after the first; the ball-size table is
1-D and takes the block's rank by a reshape.  So one function and m
functions run the same code, elementwise in the same order, and column c
of the (V, m) result is bit for bit the result of column c alone.

Ball sizes are _ball_sums of the constant 1, taken once per (k, depth)
by _local_counts, for exact division; it is the one ball-size table, read
by the maximal function and its argmax alike.  No TreeSpace carries state
beyond its shape arrays.  A VertexFunction keeps a read-only float copy of
its data, so its maximal function and its norm are functions of the
object: tree_maximal keeps the last Mf in a one-entry memo keyed on the
object's identity, the object keeps its norm, and the Mf its trusted
mask, each taken on first call, so the exponents of one Kolmogorov check
share one Mf, one sort of it, one trusted mask and one norm.  The vector
path (_tree_maximal_block) and the naive oracle keep no memo.  Vertex ids,
radii and pair distances pass errors.require_index or
errors.require_integer, and vertex sets errors.require_index_set: a bool
or a float such as 2.0 raises DomainError, and a vertex or radius off the
tree GridRangeError.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Iterable, Iterator, Optional, Sequence

import numpy as np

from .errors import DomainError, require_data, require_index, require_index_set, require_integer

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
        require_integer(k, "branching factor")
        require_integer(depth, "depth")
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

    def distance(self, x: int, y: int) -> int:
        x = require_index(x, 0, self.size - 1, "vertex")
        y = require_index(y, 0, self.size - 1, "vertex")
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
        x = require_index(x, 0, self.size - 1, "vertex")
        s, k, dx = self._level_starts.tolist(), self.k, int(self.depths[x])
        lca = np.zeros(self.size, dtype=np.int64)
        for e in range(1, dx + 1):
            # the ancestor's place on level e
            offset = (x - s[dx]) // k ** (dx - e)
            for lvl in range(e, self.depth + 1):
                width = k ** (lvl - e)
                lo = s[lvl] + offset * width
                lca[lo : lo + width] = e
        return dx + self.depths - 2 * lca

    def __repr__(self):
        return f"TreeSpace(k={self.k}, depth={self.depth}, size={self.size})"


@dataclass(frozen=True, eq=False)
class VertexFunction:
    """Nonnegative data on the vertices of a tree, a read-only float copy."""

    tree: TreeSpace
    values: np.ndarray
    _gate = ("vertex data", False)  # require_data's name and positive

    def __post_init__(self):
        # np.array converts and copies at once; require_data then gates in place
        values = require_data(np.array(self.values, dtype=float), self.tree.size, *self._gate)
        values.flags.writeable = False
        object.__setattr__(self, "values", values)

    @classmethod
    def zeros(cls, tree: TreeSpace) -> "VertexFunction":
        return cls(tree, np.zeros(tree.size))

    @classmethod
    def dirac(cls, tree: TreeSpace, vertices: Sequence[int]) -> "VertexFunction":
        ids = require_index(vertices, 0, tree.size - 1, "vertex")
        return cls(tree, np.bincount(np.atleast_1d(ids), minlength=tree.size))

    def norm1(self) -> float:
        return self._norm1

    @functools.cached_property
    def _norm1(self) -> float:
        # the values are read-only, so one sum serves every call; taken on
        # first call, so a function never normed sums nothing
        return float(self.values.sum())


@dataclass(frozen=True, eq=False)
class VertexWeight(VertexFunction):
    """Strictly positive data on the vertices."""

    _gate = ("vertex weights", True)

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
    the maximum.  data is the function's read-only values themselves, not a
    copy.  argmax_radius, computed from data on first read, is the smallest
    r in 0..2*depth whose ball average equals values bit for bit.  It reads
    the local rows of _ball_sums that the values come from: the first
    interior radius that attains the value, else the tail's argmax.  A
    radius that repeats the parent's ball repeats its sum and size bit for
    bit, so the tail's argmax runs down the root path one level at a time:
    the first pivot radius attaining P(v) where P(v) >= T(parent), else the
    parent's tail argmax + 1 (see _tree_maximal_block for P and T).
    weak_sup, also computed on first read, is sup_l l*|{Mf > l}| over the
    trusted vertices, the numerator of weak11_constant.  trusted() is
    ~boundary, taken on first call and kept read-only.
    """

    tree: TreeSpace
    values: np.ndarray
    boundary: np.ndarray
    data: np.ndarray

    def trusted(self) -> np.ndarray:
        return self._trusted

    @functools.cached_property
    def _trusted(self) -> np.ndarray:
        trusted = ~self.boundary
        trusted.flags.writeable = False
        return trusted

    @functools.cached_property
    def argmax_radius(self) -> np.ndarray:
        tree = self.tree
        D, k, s = tree.depth, tree.k, tree._level_starts.tolist()
        avgs = _local_averages(tree, self.data)
        arg = np.full(tree.size, -1)
        for r in range(D):  # interior: row r's vertices at depth < depth - r
            n = s[D - r]
            np.copyto(arg[:n], r, where=(arg[:n] < 0) & (avgs[r][:n] == self.values[:n]))
        tail, tail_arg = np.empty(tree.size), np.full(tree.size, D + 1)
        for d in range(D + 1):  # level d's pivots: radii D - d and D - d + 1
            lo, hi = s[d], s[d + 1]
            a0, a1 = avgs[D - d][lo:hi], avgs[D - d + 1][lo:hi]
            np.maximum(a0, a1, out=tail[lo:hi])
            tail_arg[lo:hi] -= d + (a0 >= a1)  # D - d + 1, or D - d where a0 attains P
            if d:  # the parent's tail where it beats P(v), one radius further
                t, r = tail[lo:hi].reshape(-1, k), tail_arg[lo:hi].reshape(-1, k)
                inherit = t < tail[s[d - 1] : lo, None]
                np.copyto(t, tail[s[d - 1] : lo, None], where=inherit)
                np.copyto(r, tail_arg[s[d - 1] : lo, None] + 1, where=inherit)
        arg = np.where(arg < 0, tail_arg, arg)
        arg.flags.writeable = False
        return arg

    @functools.cached_property
    def weak_sup(self) -> float:
        vals = self.values[self.trusted()]
        if vals.size == 0:
            return 0.0
        vals = np.sort(vals)[::-1]
        # |{Mf >= v}| is i + 1 at the last occurrence i of v in descending order;
        # an earlier occurrence of v gives a smaller product, so it never wins,
        # and zeros sort last with products 0: an all-zero Mf gives 0.0
        return float((vals * np.arange(1, vals.size + 1)).max())


def tree_ball(tree: TreeSpace, x: int, r: int) -> TreeBall:
    """Closed ball B(x, r) by exact distance enumeration.

    touches_boundary is depth(x) + r >= depth: the ball reaches the
    truncation wall, so on the untruncated tree it would hold more vertices.
    """
    r = require_index(r, 0, 2 * tree.depth, "radius")
    x = require_index(x, 0, tree.size - 1, "vertex")
    verts = np.flatnonzero(tree.distances_from(x) <= r)
    flag = bool(int(tree.depths[x]) + r >= tree.depth)
    return TreeBall(center=x, radius=r, vertices=verts, touches_boundary=flag)


def _ball_sums(tree: TreeSpace, block: np.ndarray) -> list:
    """Local ball sums of a C-contiguous block of vertex data, (V,) or (V, m).

    Row r, for r = 0 .. depth + 1, has the block's trailing shape and holds
    the sums over B(v, r) of the vertices at depth <= depth - r + 1, the
    prefix of the breadth-first numbering up to the start of level
    depth - r + 2; deeper vertices inherit their ball of radius r from the
    parent (module docstring).
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
    trail = block.shape[1:]
    sub, rows = block, [block]
    for r in range(1, D + 1):
        n = s[D - r + 1]  # the vertices with descendants r levels down
        nxt = sub[1 : k * n + 1 : k].copy()
        for j in range(2, k + 1):
            nxt += sub[j : k * n + 1 : k]
        ball = sub.copy()
        ball[:n] += nxt
        # the k consecutive children of parent p each get B(p, r - 1)
        ball[1:].reshape(-1, k, *trail)[...] += rows[-1][: (len(ball) - 1) // k, None]
        ball[0] = rows[-1][0] + nxt[0]
        rows.append(ball)
        sub = nxt
    rows.append(rows[D][:1])  # B(root, depth + 1) = B(root, depth), the whole tree
    return rows


def _all_ball_sums(tree: TreeSpace, block: np.ndarray) -> Iterator[np.ndarray]:
    """Yield B(v, r) for every vertex, for r = 0 .. 2*depth, in the block's shape.

    The local row r of _ball_sums, and below it B(v, r) = B(parent, r - 1)
    read from the row before.
    """
    V, trail, k = len(block), block.shape[1:], tree.k
    rows = _ball_sums(tree, block)
    prev = None
    for r in range(2 * tree.depth + 1):
        local = rows[min(r, tree.depth + 1)]
        n = len(local)
        cur = np.empty(block.shape)
        cur[:n] = local
        if n < V:
            cur[n:].reshape(-1, k, *trail)[...] = prev[(n - 1) // k : (V - 1) // k, None]
        yield cur
        prev = cur


@functools.lru_cache(maxsize=16)
def _local_counts(k: int, depth: int) -> tuple:
    """The local rows of _ball_sums on the constant 1, the ball sizes; read-only.

    Each row is 1-D, one size per vertex; _local_averages reshapes it to
    the rank of the block it divides.
    """
    tree = TreeSpace(k, depth)
    rows = _ball_sums(tree, np.ones(tree.size))
    for row in rows:
        row.flags.writeable = False
    return tuple(rows)


def _local_averages(tree: TreeSpace, block: np.ndarray) -> list:
    """The local rows of _ball_sums of a C-contiguous block, (V,) or (V, m),
    divided by the ball sizes: the one expression for the averages that the
    maximal function and its argmax both read.  The 1-D size rows take the
    block's rank by a reshape, (n,) or (n, 1), and broadcast over its
    trailing axis."""
    D = tree.depth
    avgs, counts = _ball_sums(tree, block), _local_counts(tree.k, D)
    shape = (-1,) + (1,) * (block.ndim - 1)  # a size row at the block's rank
    # in place; row 0 is the caller's, row D + 1 views row D's root (same count)
    avgs[0] = avgs[0] / counts[0].reshape(shape)
    for a, c in zip(avgs[1 : D + 1], counts[1 : D + 1]):
        a /= c.reshape(shape)
    return avgs


def _tree_maximal_block(tree: TreeSpace, block: np.ndarray) -> tuple:
    """Maximal functions of a block of vertex data: one function, shape (V,),
    or the m columns of a (V, m) block.

    Returns (values, boundary), each of the block's shape, with the meaning
    of the TreeMaximal fields.  The averages of the local rows of _ball_sums
    split three ways for v at depth d.  The interior radii r < depth - d give
    balls clear of the truncation depth.  The pivot radii depth - d and
    depth - d + 1 give P(v), the larger of their two averages.  Every
    larger radius repeats the parent's ball one radius down, so the tail
    T(v) = max(P(v), T(parent)) runs down the root path one level at a
    time.  Mf = max(interior best, T), flagged where T is strictly larger.
    """
    D, k, s = tree.depth, tree.k, tree._level_starts.tolist()
    block = np.ascontiguousarray(block, dtype=float)
    trail = block.shape[1:]
    avgs = _local_averages(tree, block)
    tail = np.empty(block.shape)
    for d in range(D + 1):  # level d's pivots: rows D - d and D - d + 1
        lo, hi = s[d], s[d + 1]
        np.maximum(avgs[D - d][lo:hi], avgs[D - d + 1][lo:hi], out=tail[lo:hi])
        if d:
            level = tail[lo:hi].reshape(-1, k, *trail)
            np.maximum(level, tail[s[d - 1] : lo, None], out=level)
    # interior: row r's vertices at depth < depth - r, a prefix of the row;
    # their best gathers in row 0 above the leaves
    inner = avgs[0][: s[D]]
    for r in range(1, D):
        n = s[D - r]
        np.maximum(inner[:n], avgs[r][:n], out=inner[:n])
    top = tail[: s[D]]
    boundary = np.ones(block.shape, dtype=bool)
    np.greater(top, inner, out=boundary[: s[D]])
    np.maximum(top, inner, out=top)
    return tail, boundary


def tree_maximal(f: VertexFunction) -> TreeMaximal:
    """Exact centered maximal function over integer radii 0..2*depth.

    _tree_maximal_block on f's 1-D values themselves: O(V) numpy work, about
    2 + 1/(k - 1) ball averages per vertex instead of 2*depth + 1, bit for
    bit column 0 of the (V, 1) block of the same data.  The values and
    flags it returns are 1-D and read-only, as is argmax_radius.  The last
    result is kept, keyed on f itself, so a second call on the same f
    returns the same read-only TreeMaximal.
    """
    return _tree_maximal_memo(f)


@functools.lru_cache(maxsize=1)
def _tree_maximal_memo(f: VertexFunction) -> TreeMaximal:
    values, boundary = _tree_maximal_block(f.tree, f.values)
    values.flags.writeable = boundary.flags.writeable = False
    return TreeMaximal(f.tree, values, boundary, f.values)


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
    result = TreeMaximal(tree, best, boundary, f.values)
    result.argmax_radius = arg  # the oracle's own, not the scan's
    return result


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
    require_integer(n, "pair distance")
    if n < 0:
        raise DomainError(f"pair distance must be nonnegative, got {n}")
    tree = w.tree
    ex = require_index_set(E, 0, tree.size - 1, "vertex")
    fy = require_index_set(F, 0, tree.size - 1, "vertex")
    if ex.size == 0 or fy.size == 0:
        return 0.0
    wf = np.zeros(tree.size)
    wf[fy] = w.values[fy]
    # below[r] is the mass of the pairs at distance below r, for r up to
    # 2 * depth + 1, past the diameter
    below = np.array([0.0] + [s[ex].sum() for s in _all_ball_sums(tree, wf)])
    lo, hi = below[np.minimum([n, n + 1], below.size - 1)]
    return float(lo if mode == "less-than" else hi - lo)


def weak11_constant(f: VertexFunction, result: Optional[TreeMaximal] = None) -> float:
    """Exact weak-(1,1) quotient sup_l l*|{Mf > l}| / ||f||_1.

    The superlevel count runs over trusted (unflagged) vertices; the sup
    over levels is attained just below a value of Mf, so it is evaluated
    exactly from the values sorted in descending order, once per
    TreeMaximal (its weak_sup).  result, when given, must be a maximal
    function of f's data, such as tree_maximal_naive(f); one on a tree of
    another shape or of other data raises DomainError.
    """
    if result is not None:
        if (result.tree.k, result.tree.depth) != (f.tree.k, f.tree.depth):
            raise DomainError(f"maximal function on {result.tree} does not fit {f.tree}")
        if not (result.data is f.values or np.array_equal(result.data, f.values)):
            raise DomainError("maximal function of other data than f's")
    nrm = f.norm1()
    if nrm == 0.0:
        return 0.0
    return (tree_maximal(f) if result is None else result).weak_sup / nrm


@dataclass
class KolmogorovReport:
    q: float
    lhs: float
    rhs: float
    weak_constant: float
    holds: bool


def tree_kolmogorov(q: float, f: VertexFunction, B: Iterable[int]) -> KolmogorovReport:
    """Check sum_B (Mf)^q <= c^q/(1-q) * |B|^(1-q) * ||f||_1^q exactly.

    c is the weak-(1,1) quotient measured for this very f, which makes the
    inequality a theorem about the finite tree.  The left side runs over
    trusted vertices of B.  Several exponents on one f share one Mf, one
    sort of it and one trusted mask, through tree_maximal's memo, and one
    norm, kept by f.  c is weak11_constant's quotient, taken from that Mf
    without its check that the Mf fits f, which holds by construction; B
    passes the index-set gate, whose fast path takes a ball's sorted
    vertices as they are.
    """
    if not (0.0 < q < 1.0):
        raise DomainError(f"Kolmogorov exponent must lie in (0,1), got {q}")
    bv = require_index_set(B, 0, f.tree.size - 1, "vertex")
    res = tree_maximal(f)
    nrm = f.norm1()
    weak_constant = res.weak_sup / nrm if nrm else 0.0  # weak11_constant(f, res)
    lhs = float((res.values[bv[res.trusted()[bv]]] ** q).sum())
    rhs = weak_constant**q / (1.0 - q) * bv.size ** (1.0 - q) * nrm ** q
    return KolmogorovReport(
        q=float(q),
        lhs=lhs,
        rhs=float(rhs),
        weak_constant=float(weak_constant),
        holds=bool(lhs <= rhs * (1 + 1e-12)),
    )
