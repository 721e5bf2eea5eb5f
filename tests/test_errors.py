"""The one integer gate, errors.require_index, and every entry point that
takes an integer index or an integer parameter through it; its set form,
errors.require_index_set; and the data gate, errors.require_data, behind
every radial and vertex container."""
import math
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from nalab.checkers import (
    SetFamily,
    check_ap_loc,
    check_large_scale,
    check_easy_check,
    check_necessary,
    fs_ratio,
    strong_type_ratio,
)
import nalab
from nalab.errors import (
    DomainError, GridRangeError, require_data, require_index, require_index_set,
)
from nalab.geometry import DEFAULT_SPACE, AnnularGrid, annular_intersection, product_kernel
from nalab.radialops import RadialFunction, avg, maximal_dis, maximal_s
from nalab.treelab import (
    TreeSpace,
    VertexFunction,
    VertexWeight,
    tree_ball,
    tree_kolmogorov,
    tree_product_measure,
)
from nalab.weights import Weight, WeightSpec, materialize, weight_mass


def test_require_index_returns_ints_and_int64_arrays():
    assert require_index(np.int32(3), 1, 5, "j") == 3
    assert type(require_index(np.int32(3), 1, 5, "j")) is int
    for seq in ([3, 1, 3], (3, 1, 3), np.array([3, 1, 3], dtype=np.uint8), (v for v in (3, 1, 3))):
        got = require_index(seq, 1, 5, "j")
        assert got.dtype == np.int64 and got.tolist() == [3, 1, 3]
    assert sorted(require_index({5, 1}, 1, 5, "j").tolist()) == [1, 5]
    assert require_index(range(2, 4), 1, 5, "j").tolist() == [2, 3]
    for empty in ([], (), np.zeros(0, dtype=np.int64), np.zeros(0)):
        got = require_index(empty, 1, 5, "j")
        assert got.dtype == np.int64 and got.size == 0
    assert require_index(10**6, 1, math.inf, "j_max") == 10**6


@pytest.mark.parametrize(
    "x",
    [1.5, 2.0, True, np.True_, math.nan, None, "2", [[1, 2]], [[1], 2], [1, True], [np.True_],
     [2.0], ["2"], np.array([1.0, 2.0]), np.array([True]), np.array(3), np.array([[1, 2]]),
     [2**70]],
    ids=repr,
)
def test_require_index_refuses_what_is_not_an_integer_index(x):
    with pytest.raises(DomainError, match="'j'|j must"):
        require_index(x, 0, 5, "j")


@pytest.mark.parametrize("x, bad", [(0, 0), (6, 6), ([1, 0, 7], 0), (np.array([5, 9]), 9)])
def test_require_index_names_the_index_outside_the_range(x, bad):
    with pytest.raises(GridRangeError, match=rf"^j={bad} outside 1\.\.5$"):
        require_index(x, 1, 5, "j")


GRID = AnnularGrid(DEFAULT_SPACE, 40)
W = materialize(WeightSpec.constant(), GRID)
F = RadialFunction.indicator(GRID, [5])
TREE = TreeSpace(2, 3)
TREE_W = VertexWeight.ones(TREE)
TREE_F = VertexFunction.dirac(TREE, [3])


def _set(v):
    """v as a set argument: itself if a list, else the one-element list."""
    return v if isinstance(v, list) else [v]


# entry point -> (call with one bad value, an out-of-range value, its error);
# a set-valued argument takes the bad value as its one element
ENTRY_POINTS = {
    "AnnularGrid j_max": (lambda v: AnnularGrid(DEFAULT_SPACE, v), 0, GridRangeError),
    "ball_volume_at n": (lambda v: GRID.ball_volume_at(v), 41, GridRangeError),
    "annular_intersection n": (lambda v: annular_intersection(GRID, 5, v, 4.0), 41, GridRangeError),
    "annular_intersection j": (lambda v: annular_intersection(GRID, v, 3, 4.0), 0, GridRangeError),
    "annular_intersection j list": (
        lambda v: annular_intersection(GRID, _set(v), 3, 4.0), [41], GridRangeError),
    "product_kernel n": (lambda v: product_kernel(GRID, v), 19, GridRangeError),
    "avg n": (lambda v: avg(F, v), 19, GridRangeError),
    "indicator": (lambda v: RadialFunction.indicator(GRID, _set(v)), [41], GridRangeError),
    "maximal_dis n_max": (lambda v: maximal_dis(F, v), 19, GridRangeError),
    "maximal_s n_max": (lambda v: maximal_s(W, 2.0, v), 19, GridRangeError),
    "weight_mass": (lambda v: weight_mass(W, _set(v)), [0], GridRangeError),
    "necessary n_max": (lambda v: check_necessary(W, 2.0, n_max=v), 39, GridRangeError),
    "easy-check n_max": (lambda v: check_easy_check(W, 2.0, 0.0, n_max=v), 41, GridRangeError),
    "SetFamily": (lambda v: SetFamily([[1], _set(v)], "t", (1, 10)), [11], GridRangeError),
    "ap-loc refinements": (lambda v: check_ap_loc(W, 2.0, refinements=v), -1, DomainError),
    "fs-ratio k": (lambda v: fs_ratio(W, 2.0, F, k=v), 0, DomainError),
    "strong-type j_cut": (
        lambda v: strong_type_ratio(W, 2.0, F, j_cut=v, n_max=10), 20, GridRangeError),
    "TreeSpace k": (lambda v: TreeSpace(v, 3), 1, DomainError),
    "TreeSpace depth": (lambda v: TreeSpace(2, v), 0, DomainError),
    "dirac": (lambda v: VertexFunction.dirac(TREE, _set(v)), [15], GridRangeError),
    "distance": (lambda v: TREE.distance(v, 2), 15, GridRangeError),
    "distances_from": (lambda v: TREE.distances_from(v), -1, GridRangeError),
    "tree_ball centre": (lambda v: tree_ball(TREE, v, 1), 15, GridRangeError),
    "tree_ball radius": (lambda v: tree_ball(TREE, 0, v), 7, GridRangeError),
    "product measure E": (
        lambda v: tree_product_measure(TREE_W, _set(v), [1], 1), [15], GridRangeError),
    "product measure n": (lambda v: tree_product_measure(TREE_W, [1], [2], v), -1, DomainError),
    "kolmogorov B": (lambda v: tree_kolmogorov(0.5, TREE_F, _set(v)), [-1], GridRangeError),
}
BAD_VALUES = {"1.5": 1.5, "2.0": 2.0, "True": True, "np.True_": np.True_, "nan": math.nan,
              "[[1, 2]]": [[1, 2]]}


@pytest.mark.parametrize("value", [*BAD_VALUES, "out of range"])
@pytest.mark.parametrize("entry", list(ENTRY_POINTS))
def test_every_integer_entry_point_refuses_bad_indices(entry, value):
    # at the parent commit, annulus 1.5 and True read as annulus 1, radius
    # 1.5 as radius 1, k = 1.5 was recorded, and several values crashed
    # with a bare TypeError, IndexError or ValueError
    call, outside, error = ENTRY_POINTS[entry]
    if value == "out of range":
        with pytest.raises(error):
            call(outside)
    else:
        with pytest.raises(DomainError):
            call(BAD_VALUES[value])


def test_strong_type_refusal_names_j_cut_the_window_and_the_fit_range():
    with pytest.raises(GridRangeError, match=r"j_cut=20, window \(1, 29\)\).*\(20, 60\)"):
        strong_type_ratio(W, 2.0, F, j_cut=20, n_max=10)
    short = AnnularGrid(DEFAULT_SPACE, 30)
    f = RadialFunction.indicator(short, [1])
    with pytest.raises(GridRangeError, match=r"j_cut=60, window \(1, 19\)"):
        strong_type_ratio(materialize(WeightSpec.constant(), short), 2.0, f, n_max=10)
    # the zero function is refused too, before its degenerate report
    with pytest.raises(GridRangeError, match="j_cut=0"):
        strong_type_ratio(W, 2.0, RadialFunction.zeros(GRID), j_cut=0, n_max=10)
    rep = strong_type_ratio(W, 2.0, F, j_cut=21, n_max=5)
    assert rep.meta["fit_range"] == (20, 21) and rep.witness == {"j_cut": 21}


@pytest.mark.parametrize("window, sets", [((0, 10), [[0, 1]]), ((1, 50), [[45]])])
def test_pair_checkers_refuse_a_family_window_off_the_grid(window, sets):
    # SetFamily gates its sets against its own window; the checker reads
    # their masses ungated, so the window itself must fit the grid
    family = SetFamily(sets, "t", window)
    for check in (check_necessary, lambda *a, **kw: check_large_scale(*a[:2], 0.5, 0.5, **kw)):
        with pytest.raises(GridRangeError, match="family window"):
            check(W, 2.0, n_max=5, family=family)


# ---------------------------------------------------------------- index sets


def test_require_index_set_returns_distinct_sorted_int64():
    uint8 = np.array([3, 1, 1], dtype=np.uint8)
    for seq in ([3, 1, 3], (3, 3, 1), uint8, {1, 3}, (v for v in (3, 1))):
        got = require_index_set(seq, 1, 5, "j")
        assert got.dtype == np.int64 and got.tolist() == [1, 3]
    assert require_index_set(np.int32(4), 1, 5, "j").tolist() == [4]
    assert require_index_set([0, 9, 0], 0, 9, "j").tolist() == [0, 9]
    for empty in ([], (), np.zeros(0, dtype=np.int64)):
        got = require_index_set(empty, 1, 5, "j")
        assert got.dtype == np.int64 and got.size == 0


@pytest.mark.parametrize(
    "x", [True, [1, True], [2.0], 1.5, math.nan, [math.nan], [[1, 2]], [[1], 2]], ids=repr
)
def test_require_index_set_refuses_what_is_not_an_integer_index(x):
    with pytest.raises(DomainError, match="'j'|j must"):
        require_index_set(x, 0, 5, "j")


@pytest.mark.parametrize("x, bad", [([1, 0, 7], 0), ([5, 5, 9], 9), (6, 6)])
def test_require_index_set_names_the_index_outside_the_range(x, bad):
    with pytest.raises(GridRangeError, match=rf"^j={bad} outside 1\.\.5$"):
        require_index_set(x, 1, 5, "j")


@st.composite
def _int64_index_arrays(draw):
    # (x, lo, hi): sorted and distinct, unsorted, with repeats, out of range
    # at either end, or empty
    lo = draw(st.integers(-5, 5))
    hi = lo + draw(st.integers(0, 20))
    base = sorted(set(draw(st.lists(st.integers(lo, hi), min_size=1, max_size=12))))
    kind = draw(st.sampled_from(["sorted", "unsorted", "repeats", "below", "above", "empty"]))
    if kind == "unsorted":
        xs = draw(st.permutations(base))
        assume(xs != base)
    elif kind == "repeats":
        xs = sorted(base + [draw(st.sampled_from(base))])
    elif kind in ("below", "above"):
        off = draw(st.integers(1, 3))
        xs = sorted(base + [lo - off if kind == "below" else hi + off])
    else:
        xs = base if kind == "sorted" else []
    return np.array(xs, dtype=np.int64), lo, hi


def _outcome(gate, x, lo, hi):
    try:
        return gate(x, lo, hi, "j")
    except Exception as exc:
        return type(exc), str(exc)


@given(case=_int64_index_arrays())
@settings(max_examples=200, deadline=None)
def test_require_index_set_on_int64_arrays_equals_the_list_path(case):
    # a sorted distinct int64 array in range skips the mask; it must come out
    # as the mask would give it, a fresh array, and every other array as before
    x, lo, hi = case
    kept = x.copy()
    got = _outcome(require_index_set, x, lo, hi)
    want = _outcome(require_index_set, list(x), lo, hi)
    if isinstance(want, tuple):
        assert isinstance(got, tuple) and got == want
        return
    assert got.dtype == np.int64 and np.array_equal(got, want)
    if got.size:
        got[0] += 1
    assert np.array_equal(x, kept)


def test_index_set_entry_points_load_no_numpy_ma():
    # numpy's unique imports numpy.ma on its first call, 12-17 ms
    src = os.path.dirname(os.path.dirname(nalab.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    code = (
        "import sys\n"
        "from nalab.checkers import SetFamily\n"
        "from nalab.geometry import DEFAULT_SPACE, AnnularGrid\n"
        "from nalab.treelab import TreeSpace, VertexFunction, VertexWeight\n"
        "from nalab.treelab import tree_ball, tree_kolmogorov, tree_product_measure\n"
        "from nalab.weights import WeightSpec, materialize, weight_mass\n"
        "tree = TreeSpace(2, 4)\n"
        "tree_kolmogorov(0.5, VertexFunction.dirac(tree, [3]), [2, 1, 2])\n"
        "tree_kolmogorov(0.5, VertexFunction.dirac(tree, [3]), tree_ball(tree, 0, 2).vertices)\n"
        "tree_product_measure(VertexWeight.ones(tree), [1, 2], [3, 3], 2)\n"
        "weight_mass(materialize(WeightSpec.constant(), AnnularGrid(DEFAULT_SPACE, 40)), [3, 1])\n"
        "SetFamily.standard((1, 20))\n"
        "print('numpy.ma' in sys.modules)\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path},
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "False"


# ---------------------------------------------------------------- data arrays


def test_require_data_returns_float_arrays():
    got = require_data([0, 1, 2], 3, "data")
    assert got.dtype == np.float64 and got.tolist() == [0.0, 1.0, 2.0]
    ints = np.array([1, 2], dtype=np.int8)
    assert require_data(ints, 2, "w", positive=True).tolist() == [1.0, 2.0]


@pytest.mark.parametrize(
    "values, positive, match",
    [([1.0, 2.0], False, r"shape \(3,\), got shape \(2,\)"),
     ([[1.0, 2.0, 3.0]], False, r"shape \(3,\), got shape \(1, 3\)"),
     (5.0, False, r"got shape \(\)"),
     ([1.0, math.nan, 1.0], False, "finite and nonnegative"),
     ([1.0, math.inf, 1.0], False, "finite and nonnegative"),
     ([1.0, -1e-300, 1.0], False, "finite and nonnegative"),
     ([1.0, 0.0, 1.0], True, "finite and positive"),
     ([1.0, -math.inf, 1.0], True, "finite and positive")],
)
def test_require_data_refuses_bad_arrays(values, positive, match):
    with pytest.raises(DomainError, match=f"^data must .*{match}"):
        require_data(values, 3, "data", positive=positive)


CONTAINERS = {
    "RadialFunction": (lambda v: RadialFunction(GRID, v), GRID.j_max, False),
    "Weight": (lambda v: Weight(GRID, v), GRID.j_max, True),
    "VertexFunction": (lambda v: VertexFunction(TREE, v), TREE.size, False),
    "VertexWeight": (lambda v: VertexWeight(TREE, v), TREE.size, True),
}


@pytest.mark.parametrize("bad", ["short", "long", "2-d", "nan", "inf", "negative", "zero"])
@pytest.mark.parametrize("container", list(CONTAINERS))
def test_every_container_gates_its_data(container, bad):
    make, size, positive = CONTAINERS[container]
    values = {
        "short": np.ones(size - 1), "long": np.ones(size + 1), "2-d": np.ones((1, size)),
        "nan": math.nan, "inf": math.inf, "negative": -1.0, "zero": 0.0,
    }[bad]
    if np.ndim(values) == 0:
        values = np.concatenate([np.ones(size - 1), [values]])
    if bad == "zero" and not positive:
        assert make(values).values[-1] == 0.0
        return
    with pytest.raises(DomainError):
        make(values)
    assert make(np.ones(size)).values.dtype == np.float64
