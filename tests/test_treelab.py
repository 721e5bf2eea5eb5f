"""Tree backend tests: exact combinatorics, agreement with brute force, and
the seeded weak-(1,1) family (k = 2 here; the cross-branching sweep runs in
the acceptance suite)."""
import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nalab import treelab
from nalab.errors import DomainError, GridRangeError, require_index_set
from nalab.treelab import (
    TreeMaximal,
    TreeSpace,
    VertexFunction,
    VertexWeight,
    tree_ball,
    tree_kolmogorov,
    tree_maximal,
    tree_maximal_naive,
    tree_product_measure,
    weak11_constant,
    _all_ball_sums,
    _local_counts,
    _tree_maximal_block,
)


@given(k=st.integers(min_value=2, max_value=4), depth=st.integers(min_value=1, max_value=6))
@settings(max_examples=30, deadline=None)
def test_size_and_parents(k, depth):
    t = TreeSpace(k, depth)
    assert t.size == (k ** (depth + 1) - 1) // (k - 1)
    for v in range(1, min(t.size, 120)):
        assert t.parent[v] == (v - 1) // k


def test_distance_symmetry_and_table():
    t = TreeSpace(2, 5)
    rng = np.random.default_rng(7)
    for _ in range(100):
        x, y = (int(a) for a in rng.integers(0, t.size, 2))
        assert t.distance(x, y) == t.distance(y, x)
    assert t.distance(0, t.size - 1) == 5
    # the level-block distances against the parent walk, on every pair
    for k, depth in ((2, 5), (3, 4), (4, 3)):
        t = TreeSpace(k, depth)
        for x in range(t.size):
            row = t.distances_from(x)
            assert row.tolist() == [t.distance(x, y) for y in range(t.size)], (k, depth, x)


def test_ball_counts():
    t = TreeSpace(2, 8)
    assert len(tree_ball(t, 0, 3)) == 15
    for k in (2, 3, 4):
        tk = TreeSpace(k, 6)
        for r in range(0, 7):
            assert len(tree_ball(tk, 0, r)) == (k ** (r + 1) - 1) // (k - 1)


def test_local_counts_match_every_ball():
    # row r holds |B(v, r)| for every v with a local radius r, depth(v) <= depth - r + 1
    for k, depth in ((2, 7), (3, 5), (4, 4), (5, 3), (2, 1)):
        t = TreeSpace(k, depth)
        counts = _local_counts(k, depth)
        assert len(counts) == depth + 2
        for r, row in enumerate(counts):
            assert row.shape == (t._level_starts[min(depth - r + 2, depth + 1)],)
            for v in range(len(row)):
                assert row[v] == len(tree_ball(t, v, r)), (k, depth, v, r)


def test_ball_nesting_and_boundary_flag():
    t = TreeSpace(2, 8)
    prev = set()
    for r in range(0, 11):
        b = tree_ball(t, 37, r)
        cur = set(int(u) for u in b.vertices)
        assert prev <= cur
        assert b.touches_boundary == (t.depths[37] + r >= 8)
        if not b.touches_boundary and r > 0:
            assert len(cur) > len(prev)
        prev = cur


def test_maximal_trivials():
    t = TreeSpace(2, 8)
    f = VertexFunction.dirac(t, [100])
    res = tree_maximal(f)
    assert res.values[100] == 1.0 and res.argmax_radius[100] == 0
    assert np.all(res.values >= f.values)
    with pytest.raises(DomainError):
        VertexFunction(t, -np.ones(t.size))
    with pytest.raises(DomainError):
        VertexFunction(t, np.ones(3))


def test_maximal_equals_naive_exactly():
    rng = np.random.default_rng(1234)
    for tree in (TreeSpace(2, 5), TreeSpace(3, 3)):
        for trial in range(6):
            if trial % 2 == 0:
                vals = rng.integers(0, 8, tree.size).astype(float)
            else:
                vals = rng.integers(0, 64, tree.size) / 64.0
            f = VertexFunction(tree, vals)
            fast = tree_maximal(f)
            slow = tree_maximal_naive(f)
            assert np.array_equal(fast.values, slow.values)
            assert np.array_equal(fast.argmax_radius, slow.argmax_radius)
            assert np.array_equal(fast.boundary, slow.boundary)


@st.composite
def _tree_data(draw, elements, ks=(2, 4), depths=(1, 4)):
    tree = TreeSpace(draw(st.integers(*ks)), draw(st.integers(*depths)))
    return tree, np.array(draw(st.lists(elements, min_size=tree.size, max_size=tree.size)))


@given(data=_tree_data(st.integers(0, 1000).map(float)))
@settings(max_examples=100, deadline=None)
def test_maximal_matches_naive_on_integer_data(data):
    # integer sums are exact, so the recurrence's subtraction loses nothing
    tree, vals = data
    fast = tree_maximal(VertexFunction(tree, vals))
    slow = tree_maximal_naive(VertexFunction(tree, vals))
    assert np.array_equal(fast.values, slow.values)
    assert np.array_equal(fast.argmax_radius, slow.argmax_radius)
    assert np.array_equal(fast.boundary, slow.boundary)


@given(data=_tree_data(st.floats(0.0, 1e6)))
@settings(max_examples=100, deadline=None)
def test_maximal_matches_naive_on_float_data(data):
    # the rerooting step subtracts; this bounds its cancellation on floats.
    # argmax and boundary are not compared: a last-bit difference between
    # summation orders can flip a near-tie between radii
    tree, vals = data
    fast = tree_maximal(VertexFunction(tree, vals))
    slow = tree_maximal_naive(VertexFunction(tree, vals))
    np.testing.assert_allclose(fast.values, slow.values, rtol=1e-12, atol=0.0)


def test_weak11_point_mass_family_k2():
    tree = TreeSpace(2, 8)
    rng = np.random.default_rng(1234)
    cs = [
        weak11_constant(VertexFunction.dirac(tree, rng.integers(0, tree.size, 10)))
        for _ in range(100)
    ]
    assert max(cs) == pytest.approx(0.9, abs=1e-12)


@pytest.mark.parametrize("k, depth", [(2, 6), (3, 4), (4, 3)])
def test_weak11_constant_on_tied_levels_matches_every_level(k, depth):
    # small integer data: Mf takes few distinct values, each many times, so
    # the count at every level must be taken at the value's last occurrence
    tree = TreeSpace(k, depth)
    rng = np.random.default_rng(17)
    for _ in range(20):
        f = VertexFunction(tree, rng.integers(0, 3, tree.size).astype(float))
        res = tree_maximal(f)
        mf = res.values[res.trusted()]
        levels = np.unique(mf[mf > 0])
        assert levels.size < np.count_nonzero(mf > 0)  # ties present
        brute = max(v * np.count_nonzero(mf >= v) for v in levels) / f.norm1()
        assert weak11_constant(f) == weak11_constant(f, res) == brute
        assert res.weak_sup == _weak_sup_by_np_max(res)


def _weak_sup_by_levels(res):
    # sup over the levels v > 0 of v |{trusted Mf >= v}|, level by level
    mf = res.values[~res.boundary]
    return max((v * np.count_nonzero(mf >= v) for v in mf[mf > 0]), default=0.0)


def _weak_sup_by_np_max(res):
    # the sorted products' maximum through np.max, as weak_sup took it before
    # it called ndarray.max: the same reduction, so the same float
    vals = np.sort(res.values[~res.boundary])[::-1]
    return float(np.max(vals * np.arange(1, vals.size + 1))) if vals.size else 0.0


def test_weak_sup_with_zeros_among_the_trusted_values():
    # Mf is zero only where f is zero throughout the tree: every ball of
    # radius 2 * depth is the whole tree.  Zeros sort last, with product 0
    tree = TreeSpace(2, 4)
    zero = tree_maximal(VertexFunction.zeros(tree))
    assert not zero.boundary.all()
    assert zero.weak_sup == _weak_sup_by_levels(zero) == _weak_sup_by_np_max(zero) == 0.0
    assert weak11_constant(VertexFunction.zeros(tree)) == 0.0
    # a TreeMaximal built by hand, zeros and ties among its trusted values
    rng = np.random.default_rng(23)
    for _ in range(20):
        values = rng.integers(0, 4, tree.size).astype(float)
        boundary = rng.uniform(size=tree.size) < 0.3
        res = TreeMaximal(tree, values, boundary, values)
        assert (values[~boundary] == 0).any()
        assert res.weak_sup == _weak_sup_by_levels(res) == _weak_sup_by_np_max(res)


def test_product_measure_brute_force():
    for t in (TreeSpace(2, 3), TreeSpace(3, 2)):
        w = VertexWeight(t, np.linspace(1.0, 2.0, t.size))
        sets = ([0, 1, 2], [3, 4, 5, 6], list(range(t.size)))
        for E in sets:
            for F in sets:
                for n in (0, 1, 2, 3, 6):
                    for mode in ("exact-distance", "less-than"):
                        got = tree_product_measure(w, E, F, n, mode=mode)
                        brute = 0.0
                        for x in set(E):
                            for y in set(F):
                                d = t.distance(x, y)
                                if (d == n) if mode == "exact-distance" else (d < n):
                                    brute += w.values[y]
                        assert abs(got - brute) < 1e-12, (t.k, E, F, n, mode)


@st.composite
def _weighted_pair_sets(draw):
    tree = TreeSpace(draw(st.integers(2, 4)), draw(st.integers(1, 3)))
    vertex = st.integers(0, tree.size - 1)
    w = draw(st.lists(st.integers(1, 1000), min_size=tree.size, max_size=tree.size))
    E = draw(st.lists(vertex, max_size=30))
    F = draw(st.lists(vertex, max_size=30))
    return VertexWeight(tree, np.array(w, dtype=float)), E, F


@given(case=_weighted_pair_sets())
@settings(max_examples=100, deadline=None)
def test_product_measure_exact_on_integer_weights(case):
    # integer ball sums are exact, so the radius difference must be too
    w, E, F = case
    t = w.tree
    dist = {(x, y): t.distance(x, y) for x in set(E) for y in set(F)}
    for n in range(2 * t.depth + 3):
        exact = sum(w.values[y] for (x, y), d in dist.items() if d == n)
        below = sum(w.values[y] for (x, y), d in dist.items() if d < n)
        assert tree_product_measure(w, E, F, n, mode="exact-distance") == exact
        assert tree_product_measure(w, E, F, n, mode="less-than") == below


def test_product_measure_rejects_bad_distances():
    w = VertexWeight.ones(TreeSpace(2, 3))
    for n in (-1, 1.5, 2.0):
        with pytest.raises(DomainError):
            tree_product_measure(w, [1], [2], n)


def test_product_measure_edge_count():
    t = TreeSpace(2, 8)
    w = VertexWeight.ones(t)
    allv = range(t.size)
    assert tree_product_measure(w, [1, 3], [2, 6], 0, mode="less-than") == 0.0
    pm1 = tree_product_measure(w, allv, allv, 1, mode="exact-distance")
    assert pm1 == 2 * (2**9 - 2)  # ordered pairs at distance 1 = twice the edges


def test_kolmogorov_trivials():
    t = TreeSpace(2, 8)
    rep = tree_kolmogorov(0.5, VertexFunction.zeros(t), range(t.size))
    assert rep.lhs == 0.0 and rep.rhs == 0.0 and rep.holds
    f_root = VertexFunction.dirac(t, [0])
    ball4 = tree_ball(t, 0, 4)
    rep5 = tree_kolmogorov(0.5, f_root, ball4.vertices)
    assert rep5.holds
    assert tree_kolmogorov(0.9, f_root, ball4.vertices).rhs >= rep5.rhs
    for bad_q in (0.0, 1.0, -0.2, 1.3):
        with pytest.raises(DomainError):
            tree_kolmogorov(bad_q, f_root, ball4.vertices)


def test_maximal_result_from_another_tree_is_rejected():
    t3, t4 = TreeSpace(2, 3), TreeSpace(2, 4)
    f = VertexFunction.dirac(t3, [5])
    alien = tree_maximal(VertexFunction.dirac(t4, [5]))
    with pytest.raises(DomainError):
        weak11_constant(f, alien)
    with pytest.raises(DomainError):
        weak11_constant(VertexFunction.zeros(t3), alien)
    # the same shape on another TreeSpace instance is the same tree
    twin = tree_maximal(VertexFunction.dirac(TreeSpace(2, 3), [5]))
    assert weak11_constant(f, twin) == weak11_constant(f) == 1.0
    # the same shape with other data is a maximal function of neither
    g = tree_maximal(VertexFunction.dirac(t3, [6]))
    with pytest.raises(DomainError):
        weak11_constant(f, g)


def _kolmogorov_reference(q, f, B):
    # the check's three numbers by their long path: the index-set gate's
    # mask (B as a list), a fresh trusted mask and norm, and the weak-(1,1)
    # quotient through weak11_constant's fit check, its sup and the left
    # side reduced by np.max and np.sum
    bv = require_index_set(list(B), 0, f.tree.size - 1, "vertex")
    res = tree_maximal(f)
    weak_constant = weak11_constant(f, res)
    assert weak_constant == _weak_sup_by_np_max(res) / float(f.values.sum())
    lhs = float(np.sum(res.values[bv[(~res.boundary)[bv]]] ** q))
    rhs = weak_constant**q / (1.0 - q) * bv.size ** (1.0 - q) * float(f.values.sum()) ** q
    return lhs, rhs, weak_constant


def test_kolmogorov_seeded_sample():
    # a 20-case slice of the 100-case acceptance sweep; the shared mask,
    # norm and gate give the long path's numbers bit for bit
    t = TreeSpace(2, 8)
    rng = np.random.default_rng(1234)
    for _ in range(20):
        f = VertexFunction(t, rng.uniform(0.0, 1.0, t.size))
        center = int(rng.integers(0, t.size))
        radius = int(rng.integers(0, 2 * t.depth + 1))
        B = tree_ball(t, center, radius).vertices
        for q in (0.3, 0.5, 0.7):
            rep = tree_kolmogorov(q, f, B)
            assert rep.holds
            assert (rep.lhs, rep.rhs, rep.weak_constant) == _kolmogorov_reference(q, f, B)


@given(data=_tree_data(st.integers(0, 1000).map(float), ks=(8, 9), depths=(1, 2)))
@settings(max_examples=40, deadline=None)
def test_maximal_matches_naive_at_wide_branching(data):
    # from k = 8 on, numpy sums k contiguous values in another order; the
    # children are added one at a time, so integer data stays exact
    tree, vals = data
    fast = tree_maximal(VertexFunction(tree, vals))
    slow = tree_maximal_naive(VertexFunction(tree, vals))
    assert np.array_equal(fast.values, slow.values)
    assert np.array_equal(fast.argmax_radius, slow.argmax_radius)
    assert np.array_equal(fast.boundary, slow.boundary)
    floats = VertexFunction(tree, vals * np.pi)
    np.testing.assert_allclose(
        tree_maximal(floats).values, tree_maximal_naive(floats).values, rtol=1e-12, atol=0.0
    )


@pytest.mark.parametrize("k, depth", [(2, 1), (2, 6), (3, 4), (4, 3), (9, 2)])
def test_maximal_block_equals_columns_bit_for_bit(k, depth):
    tree = TreeSpace(k, depth)
    rng = np.random.default_rng(k * 10 + depth)
    block = np.column_stack(
        [
            rng.integers(0, 50, tree.size).astype(float),
            rng.uniform(0.0, 1.0, tree.size),
            np.exp(rng.uniform(-30.0, 30.0, tree.size)),
            VertexFunction.dirac(tree, rng.integers(0, tree.size, 3)).values,
        ]
    )
    values, boundary = _tree_maximal_block(tree, block)
    for c in range(block.shape[1]):
        f = VertexFunction(tree, block[:, c])
        one = tree_maximal(f)
        assert np.array_equal(values[:, c], one.values)
        assert np.array_equal(boundary[:, c], one.boundary)
        if c in (0, 3):
            # integer data: every ball sum is exact, so ties are the oracle's
            assert np.array_equal(one.argmax_radius, tree_maximal_naive(f).argmax_radius)
        else:
            # float data: the radius attains the value up to summation order
            avg = [
                f.values[tree_ball(tree, v, r).vertices].mean()
                for v, r in enumerate(one.argmax_radius)
            ]
            np.testing.assert_allclose(avg, one.values, rtol=1e-12, atol=0.0)


def test_vertex_data_and_maximal_function_are_read_only():
    # f keeps its own copy: changing the caller's array moves neither f nor Mf
    tree = TreeSpace(3, 4)
    source = np.random.default_rng(17).integers(0, 20, tree.size).astype(float)
    f = VertexFunction(tree, source)
    kept = source.copy()
    expected = tree_maximal_naive(f)
    res = tree_maximal(f)
    source[:] = source[::-1]
    assert np.array_equal(f.values, kept)
    assert np.array_equal(tree_maximal(f).values, expected.values)
    assert np.array_equal(res.argmax_radius, expected.argmax_radius)
    assert res.trusted() is res.trusted()
    assert np.array_equal(res.trusted(), ~res.boundary)
    assert f.norm1() == float(f.values.sum())
    for arr in (f.values, res.values, res.boundary, res.argmax_radius, res.trusted()):
        with pytest.raises(ValueError):
            arr[0] = 1.0
    with pytest.raises(dataclasses.FrozenInstanceError):
        f.values = kept
    w = VertexWeight.ones(tree)
    with pytest.raises(ValueError):
        w.values[0] = 2.0


def test_maximal_memo_keeps_one_function():
    tree = TreeSpace(2, 5)
    rng = np.random.default_rng(5)
    f, g = (VertexFunction(tree, rng.integers(0, 30, tree.size)) for _ in range(2))
    for h in (f, g, f, g):
        assert np.array_equal(tree_maximal(h).values, tree_maximal_naive(h).values)
    assert tree_maximal(f) is tree_maximal(f)


def test_kolmogorov_exponents_share_one_maximal_function(monkeypatch):
    calls = []
    block = treelab._tree_maximal_block

    def counted(tree, data):
        calls.append(tree)
        return block(tree, data)

    monkeypatch.setattr(treelab, "_tree_maximal_block", counted)
    tree = TreeSpace(2, 6)
    f = VertexFunction(tree, np.random.default_rng(3).uniform(0.0, 1.0, tree.size))
    B = tree_ball(tree, 4, 3).vertices
    assert all(tree_kolmogorov(q, f, B).holds for q in (0.3, 0.5, 0.7))
    assert len(calls) == 1


def _argmax_by_scan(res):
    """The smallest radius whose ball average, over every radius of
    _all_ball_sums, equals the value bit for bit: the argmax as it was read
    before the tail's argmax was carried down the root path."""
    tree = res.tree
    sizes = _all_ball_sums(tree, np.ones((tree.size, 1)))
    arg = np.full(tree.size, -1)
    for r, (sums, size) in enumerate(zip(_all_ball_sums(tree, res.data[:, None]), sizes)):
        np.copyto(arg, r, where=(arg < 0) & (sums[:, 0] / size[:, 0] == res.values))
    return arg


DATA_KINDS = ["integer", "uniform", "dirac", "exp+30", "exp-30"]


def _kind_data(tree, kind):
    rng = np.random.default_rng([tree.k, tree.depth])
    return {
        "integer": lambda: rng.integers(0, 20, tree.size).astype(float),
        "uniform": lambda: rng.uniform(0.0, 1.0, tree.size),
        "dirac": lambda: VertexFunction.dirac(tree, rng.integers(0, tree.size, 10)).values,
        "exp+30": lambda: np.exp(30.0 * rng.uniform(0.0, 1.0, tree.size)),
        "exp-30": lambda: np.exp(-30.0 * rng.uniform(0.0, 1.0, tree.size)),
    }[kind]()


@pytest.mark.parametrize("kind", DATA_KINDS)
@pytest.mark.parametrize(
    "k, depth", [(2, 8), (3, 8), (4, 8), (2, 1), (5, 3), (8, 4), (2, 12), (3, 5)]
)
def test_argmax_radius_matches_the_scan_over_every_radius(k, depth, kind):
    # float data included: ties between radii are decided on the same sums
    tree = TreeSpace(k, depth)
    res = tree_maximal(VertexFunction(tree, _kind_data(tree, kind)))
    assert np.array_equal(res.argmax_radius, _argmax_by_scan(res))


@pytest.mark.parametrize("kind", DATA_KINDS)
@pytest.mark.parametrize(
    "k, depth", [(k, d) for k in (2, 3, 4, 5) for d in (1, 2, 3, 4, 5, 6)] + [(2, 8)]
)
def test_single_function_is_the_one_column_block(k, depth, kind):
    # tree_maximal runs the block code on the 1-D values; every field is
    # 1-D, read-only and, bit for bit, column 0 of the (V, 1) block's
    tree = TreeSpace(k, depth)
    f = VertexFunction(tree, _kind_data(tree, kind))
    res = tree_maximal(f)
    values, boundary = _tree_maximal_block(tree, f.values[:, None])
    assert np.array_equal(res.values, values[:, 0])
    assert np.array_equal(res.boundary, boundary[:, 0])
    assert np.array_equal(res.argmax_radius, _argmax_by_scan(res))
    for arr in (res.values, res.boundary, res.argmax_radius):
        assert arr.shape == (tree.size,) and not arr.flags.writeable


@pytest.mark.parametrize("k, depth", [(2, 5), (3, 3), (4, 3)])
def test_large_balls_are_the_parents_balls(k, depth):
    # the identity the maximal function inherits its tail radii from
    t = TreeSpace(k, depth)
    for v in range(1, t.size):
        p = int(t.parent[v])
        for r in range(depth - int(t.depths[v]) + 2, 2 * depth + 1):
            assert np.array_equal(tree_ball(t, v, r).vertices, tree_ball(t, p, r - 1).vertices)


def test_vertex_sets_refuse_non_integer_ids():
    t = TreeSpace(2, 3)
    w = VertexWeight.ones(t)
    f = VertexFunction.dirac(t, [3])
    for bad in ([2.7, True], [1, True], [np.True_], np.array([1.0, 2.0]), np.array([True]),
                ["1"], [[1, 2]]):
        with pytest.raises(DomainError):
            tree_product_measure(w, bad, [1], 1)
        with pytest.raises(DomainError):
            tree_kolmogorov(0.5, f, bad)
        with pytest.raises(DomainError):
            VertexFunction.dirac(t, bad)
    for outside in ([-1], [t.size], np.array([0, t.size])):
        with pytest.raises(GridRangeError):
            tree_product_measure(w, outside, [1], 1)
        with pytest.raises(GridRangeError):
            VertexFunction.dirac(t, outside)
    # any iterable of integers names a vertex set; repeats count once
    sets = ([1, 2, 2, 5], (5, 1, 2), {1, 2, 5}, np.array([5, 2, 1, 1], dtype=np.int32),
            (v for v in (2, 5, 1)))
    got = {tree_product_measure(w, E, range(t.size), 2) for E in sets}
    assert got == {tree_product_measure(w, [1, 2, 5], range(t.size), 2)}
    assert tree_product_measure(w, [], [1], 1) == 0.0
    assert np.array_equal(VertexFunction.dirac(t, [3, 3, 0]).values[[0, 3]], [1.0, 2.0])
