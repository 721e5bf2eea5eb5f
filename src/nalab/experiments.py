"""Experiment drivers: canonical reproductions, config sweeps, report files.

Two kinds of artifacts: a JSON envelope holding full CheckReports, which
is byte-stable for a fixed seed except the `created` stamp, and for
sweeps a flat CSV with one row per parameter cell.  Exit codes follow
0 = all verdicts pass, 1 = some verdict failed (report still written),
2 = bad configuration; the CLI surfaces them unchanged.

Several canonical runs end in verdict "fail" by design: they reproduce
negative results (a weight failing a condition, a divergent constant
sequence), and the failing report is the expected outcome.

The reproduce ids that are checker calls and nothing more (ex-trivial,
ex-blesa, ex-beta-eq-alpha, ex-spherical, ex-notstrong, ex-apnot) are rows
of one recipe table, _RECIPES: a weight spec, j_max, a CHECKERS id, the
params that differ from its defaults and meta for the report, each run by
run_recipe through run_checker, as sweeps and `weight check` are.
ex-growthnec takes its necessary report from one such row; its divergence
sequence, thm-fs-failure, mf-lower and the three tree ids keep their code.
"""

from __future__ import annotations

import csv
import itertools
import json
import os
import stat
from contextlib import contextmanager
from dataclasses import dataclass
from datetime import datetime, timezone
from typing import Callable, List, NamedTuple, Optional

import numpy as np

from .checkers import (
    CheckReport,
    SetFamily,
    _fs_dens,
    _level_set_quotients,
    _weak_type_dens,
    check_ap_loc,
    check_classical_ap,
    check_easy_check,
    check_large_scale,
    check_msw,
    check_necessary,
    fs_ratio,
    strong_type_ratio,
    vector_valued_ratio,
    weak_type_ratio,
)
from .errors import ConfigError, finite_number
from .fitting import fit_linear, fit_log_slope
from .geometry import DEFAULT_SPACE, AnnularGrid, SpaceParams, valid_upper
from .radialops import RadialFunction, _indicator_maxima, _maximal_block, maximal_dis
from .treelab import (
    TreeSpace,
    VertexFunction,
    tree_ball,
    tree_kolmogorov,
    weak11_constant,
)
from .weights import WeightSpec, materialize

__all__ = [
    "CHECKERS",
    "CANONICAL_SEED",
    "CANONICAL_J_MAX",
    "CANONICAL_N_MAX",
    "OUTDIR_ENV",
    "REPRODUCE_IDS",
    "ExperimentConfig",
    "make_envelope",
    "report_dir",
    "run_checker",
    "run_recipe",
    "run_reproduce",
    "run_sweep",
    "write_json_report",
]

CANONICAL_SEED = 1234
CANONICAL_J_MAX = 80
CANONICAL_N_MAX = 25
TREE_K = 2
TREE_DEPTH = 8
OUTDIR_ENV = "NALAB_OUTDIR"


def report_dir(explicit: Optional[str] = None) -> str:
    """Output directory: explicit argument, else $NALAB_OUTDIR, else cwd."""
    out = explicit or os.environ.get(OUTDIR_ENV) or "."
    os.makedirs(out, exist_ok=True)
    return out


def _stamp() -> str:
    return datetime.now(timezone.utc).isoformat(timespec="seconds")


def _aggregate(reports: List[CheckReport]) -> str:
    return "fail" if any(r.verdict == "fail" for r in reports) else "pass"


def make_envelope(
    exp_id: str,
    seed: int,
    reports: List[CheckReport],
    space: SpaceParams = DEFAULT_SPACE,
    cells: Optional[List[dict]] = None,
    **context,
) -> dict:
    """Report wrapper shared by every command that persists JSON.

    context (weight, grid, axes) describes the run.  A sweep passes one
    parameter cell per report and gets a "cells" list in place of the flat
    "reports" list.
    """
    env = {
        "id": exp_id,
        "created": _stamp(),
        "seed": seed,
        "space": {"sigma": space.sigma, "tau": space.tau},
        **context,
        "verdict": _aggregate(reports),
    }
    if cells is None:
        env["reports"] = [r.to_json() for r in reports]
    else:
        env["cells"] = [
            {"cell": c, "report": r.to_json()} for c, r in zip(cells, reports)
        ]
    return env


@contextmanager
def _rewrite(path: str):
    """A text handle that writes path over its old bytes, then cuts the file
    at the end of the new ones.

    Reports are rewritten under the same names pass after pass, and an
    O_TRUNC open of an existing file costs far more than writing in place:
    on ext4 the open frees the blocks and the close flushes the file
    (auto_da_alloc).  A new file gets mode 0o666 & ~umask, as open() gives
    it.  Only a regular file is cut, so a report path that resolves to a
    device such as /dev/null still works.  A crash mid-write damages the
    file, as it would after a truncating open.
    """
    fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o666)
    regular = stat.S_ISREG(os.fstat(fd).st_mode)
    # on a descriptor, "w" only makes the handle writable: nothing is truncated
    with open(fd, "w", encoding="utf-8", newline="") as fh:
        try:
            yield fh
        finally:
            if regular:
                fh.truncate()


def write_json_report(env: dict, path: str):
    """Write env to path as indented JSON with a final newline.

    The text is encoded before the file is opened, so an envelope that does
    not encode leaves an existing file untouched; the file is then
    rewritten in place (see _rewrite).
    """
    # one encode and one write: json.dump writes each encoder chunk
    text = json.dumps(env, indent=2) + "\n"
    with _rewrite(path) as fh:
        fh.write(text)


# ---------------------------------------------------------------------------
# canonical reproduction pipelines
# ---------------------------------------------------------------------------


def run_recipe(row: tuple, seed: int) -> CheckReport:
    """Run one recipe row (weight spec, j_max, checker id, params, meta).

    The spec is materialized on AnnularGrid(DEFAULT_SPACE, j_max) and the
    checker runs through run_checker, so params need hold only the values
    that differ from the CHECKERS defaults; meta is added to the report's.
    """
    spec, j_max, cid, params, meta = row
    w = materialize(spec, AnnularGrid(DEFAULT_SPACE, j_max))
    rep = run_checker(cid, w, params, seed)
    rep.meta.update(meta)
    return rep


# The reproduce ids that are checker calls and nothing more, as rows of
# run_recipe; ex-growthnec takes its necessary report from one such row.
_RECIPES = {
    # constant weight: the maximal function fixes it, both conditions pass
    "ex-trivial": (
        (WeightSpec.constant(), CANONICAL_J_MAX, "msw", {}, {}),
        (WeightSpec.constant(), CANONICAL_J_MAX, "ap-loc", {}, {}),
    ),
    # decaying exponential family; admissible power s shrinks with the decay
    "ex-blesa": (
        (WeightSpec.exp_radial(-0.3), CANONICAL_J_MAX, "msw", {}, {"gamma": -0.3}),
        (WeightSpec.exp_radial(-0.5), CANONICAL_J_MAX, "msw", {}, {"gamma": -0.5}),
        (WeightSpec.exp_radial(-1.0), CANONICAL_J_MAX, "msw", {"s": 1.0}, {"gamma": -1.0}),
    ),
    "ex-beta-eq-alpha": (
        (WeightSpec.exp_strong(2.0), CANONICAL_J_MAX, "easy-check", {"eta": -1.0}, {}),
    ),
    # eigenfunction profiles standing in for their exponential envelopes
    "ex-spherical": (
        (WeightSpec.spherical_u(2.0), CANONICAL_J_MAX, "easy-check", {"eta": -1.0}, {}),
        (WeightSpec.jacobi_v(-0.3), CANONICAL_J_MAX, "msw", {}, {}),
    ),
    # weak-(2,2) holds while the strong partial sums grow linearly; the
    # [20, 60] fit needs Mf alive out to j = 60: scales must reach n >= j - 2
    # and the valid window must still cover 60
    "ex-notstrong": (
        (WeightSpec.eta_product(WeightSpec.exp_strong(2.0)), CANONICAL_J_MAX,
         "weak-type", {}, {}),
        (WeightSpec.eta_product(WeightSpec.exp_strong(2.0)), 130,
         "strong-type", {"n_max": 62}, {}),
    ),
    "ex-apnot": (
        (WeightSpec.exp_radial(-0.75), CANONICAL_J_MAX, "classical-ap", {}, {}),
    ),
}


def _recipe_pipeline(rows: tuple) -> Callable:
    return lambda seed: [run_recipe(row, seed) for row in rows]


def _divergence_sequence(
    report_id: str,
    quotients: Callable,
    n_max: int,
    witness: dict,
    meta: dict,
    relative: bool,
) -> CheckReport:
    """Constants c_j of the indicators 1_(Omega_j), j = 10..40, and their growth.

    w is exp_radial(-1) on a j_max 120 grid.  quotients(w, F, mf, n_max)
    returns the level-set quotients of every column of the block F, given
    the block mf of their maximal functions at truncation n_max, over the
    lambda grid, through checkers._level_set_quotients; c_j is the sup of
    its row.  The 31 indicators go through it as one block, the columns of
    an identity matrix, with their maximal functions read from the
    geometry's table (radialops._indicator_maxima).  The linear rate is
    fitted to c_j / c_10 when relative, else to c_j; reevaluate() recomputes
    c_(j_hi) as a one-column block whose maximal function comes from
    _maximal_block, the path of the single-function checker.
    """
    grid = AnnularGrid(DEFAULT_SPACE, 120)
    w = materialize(WeightSpec.exp_radial(-1.0), grid)
    eye = np.eye(grid.j_max)
    js = np.arange(10, 41)
    cols = js - 1
    mf = _indicator_maxima(grid, n_max)[:, cols]
    consts = quotients(w, eye[:, cols], mf, n_max).max(axis=1)
    growth = float(consts[-1] / consts[0])
    fit = fit_linear(js.astype(float), consts / consts[0] if relative else consts)

    def reeval(wit: dict) -> float:
        f = eye[:, [int(wit["j_hi"]) - 1]]
        return float(quotients(w, f, _maximal_block(grid, f, n_max), n_max).max())

    return CheckReport(
        id=report_id,
        constant=float(consts[-1]),
        witness={"j_lo": 10, "j_hi": 40, **witness},
        verdict="fail" if growth >= 2.0 else "info",
        slope=fit.slope,
        r2=fit.r2,
        meta={**meta, "growth_ratio": growth, "constants": [float(c) for c in consts]},
        _reeval=reeval,
    )


def _pipe_growthnec(seed: int) -> List[CheckReport]:
    """Growth condition passes, yet weak-type constants diverge along j."""
    nec = run_recipe(
        (WeightSpec.exp_radial(-1.0), CANONICAL_J_MAX, "necessary", {}, {}), seed
    )
    growth = _divergence_sequence(
        "weak-type-growth",
        lambda w, F, mf, n: _level_set_quotients(w, mf, 2.0, n, _weak_type_dens(w, 2.0, F)),
        42, {"n_max": 42}, {"p": 2.0}, relative=True,
    )
    return [nec, growth]


def _pipe_fs_failure(seed: int) -> List[CheckReport]:
    """s = 1 two-weight constants c_j grow linearly: no uniform bound."""
    rep = _divergence_sequence(
        "fs-divergence",
        lambda w, F, mf, n: _level_set_quotients(w, mf, 1.0, n, _fs_dens(w, 1.0, F, 1, n)),
        CANONICAL_N_MAX, {"s": 1.0, "k": 1}, {}, relative=False,
    )
    return [rep]


def _pipe_mf_lower(seed: int) -> List[CheckReport]:
    """Decay rate of M applied to the innermost-annulus indicator."""
    grid = AnnularGrid(DEFAULT_SPACE, CANONICAL_J_MAX)
    f = RadialFunction.indicator(grid, [1])
    res = maximal_dis(f, 30)
    js = np.arange(5, 31)
    vals = res.values[js - 1]
    fit = fit_log_slope(js.astype(float), vals)
    target = -DEFAULT_SPACE.homogeneous_dim
    # compensated level: the uniform lower constant the decay rate implies
    comp = vals * np.exp(DEFAULT_SPACE.homogeneous_dim * js)
    ok = abs(fit.slope - target) <= 0.1 * abs(target) and comp.min() > 0
    rep = CheckReport(
        id="maximal-lower-rate",
        constant=float(comp.min()),
        witness={"j_lo": 5, "j_hi": 30, "n_max": 30, "j": int(js[np.argmin(comp)])},
        verdict="pass" if ok else "fail",
        slope=fit.slope,
        r2=fit.r2,
        meta={
            "target_slope": target,
            "compensated_band": [float(comp.min()), float(comp.max())],
        },
        # M(1_(Omega_1)) at annulus j, recomputed and compensated
        _reeval=lambda wit: float(
            maximal_dis(f, int(wit["n_max"])).values[wit["j"] - 1]
            * np.exp(DEFAULT_SPACE.homogeneous_dim * wit["j"])
        ),
    )
    return [rep]


def _pipe_tree_weak11(seed: int) -> List[CheckReport]:
    """Weak-(1,1) family sups across branching numbers; spread must stay < 2."""

    def draw(tree: TreeSpace, rng) -> VertexFunction:
        return VertexFunction.dirac(tree, rng.integers(0, tree.size, 10))

    def case(k: int, index: int) -> float:
        # replay the generator of tree k through the witness draw
        tree = TreeSpace(k, TREE_DEPTH)
        rng = np.random.default_rng(seed)
        for _ in range(index + 1):
            f = draw(tree, rng)
        return weak11_constant(f)

    def spread(sups) -> float:
        return max(sups) / min(sups)

    reports = []
    for k in (2, 3, 4):
        tree = TreeSpace(k, TREE_DEPTH)
        rng = np.random.default_rng(seed)
        cs = np.array([weak11_constant(draw(tree, rng)) for _ in range(100)])
        reports.append(
            CheckReport(
                id=f"tree-weak11-k{k}",
                constant=float(cs.max()),
                witness={"k": k, "depth": TREE_DEPTH, "draws": 100, "masses": 10,
                         "draw": int(np.argmax(cs))},
                verdict="pass" if np.all(np.isfinite(cs)) else "fail",
                meta={"min": float(cs.min()), "mean": float(cs.mean()), "seed": seed},
                _reeval=lambda wit: case(int(wit["k"]), int(wit["draw"])),
            )
        )
    sups = {rep.witness["k"]: rep.constant for rep in reports}
    value = spread(list(sups.values()))
    reports.append(
        CheckReport(
            id="tree-weak11-spread",
            constant=float(value),
            witness={"ks": [2, 3, 4], "depth": TREE_DEPTH,
                     "draw": [rep.witness["draw"] for rep in reports]},
            verdict="pass" if value < 2.0 else "fail",
            meta={"sup_by_k": {str(k): sups[k] for k in (2, 3, 4)}, "seed": seed},
            _reeval=lambda wit: spread(
                [case(int(k), int(i)) for k, i in zip(wit["ks"], wit["draw"])]
            ),
        )
    )
    return reports


def _pipe_kolmogorov(seed: int) -> List[CheckReport]:
    """Low-exponent sums over random balls against the weak-(1,1) budget."""
    tree = TreeSpace(TREE_K, TREE_DEPTH)
    qs = (0.3, 0.5, 0.7)

    def draw(rng) -> tuple:
        f = VertexFunction(tree, rng.uniform(0.0, 1.0, tree.size))
        center = int(rng.integers(0, tree.size))
        radius = int(rng.integers(0, 2 * tree.depth + 1))
        return f, center, radius, tree_ball(tree, center, radius).vertices

    def ratio(rep) -> float:
        return rep.lhs / rep.rhs if rep.rhs > 0 else 0.0

    def reeval(wit: dict) -> float:
        # replay the generator through the witness draw
        rng = np.random.default_rng(seed)
        for _ in range(int(wit["draw"]) + 1):
            f, _, _, B = draw(rng)
        return ratio(tree_kolmogorov(wit["q"], f, B))

    rng = np.random.default_rng(seed)
    holds_all = True
    worst_case: dict = {}
    worst = 0.0
    for i in range(100):
        f, center, radius, B = draw(rng)
        for q in qs:
            rep = tree_kolmogorov(q, f, B)
            holds_all = holds_all and rep.holds
            value = ratio(rep)
            if value > worst:
                worst = value
                worst_case = {"q": q, "center": center, "radius": radius, "draw": i}
    rep = CheckReport(
        id="kolmogorov",
        constant=float(worst),
        witness=worst_case,
        verdict="pass" if holds_all else "fail",
        meta={"cases": 100 * len(qs), "qs": list(qs), "seed": seed},
        _reeval=reeval,
    )
    return [rep]


def _pipe_vector_valued(seed: int) -> List[CheckReport]:
    """Square-function quotient over seeded point-mass batches on the tree."""

    def quotient(tree: TreeSpace, batch: int, p: float, r: float) -> float:
        # batch i is drawn from seed + i, so a witness can redraw it
        rng = np.random.default_rng(seed + batch)
        funcs = [
            VertexFunction.dirac(tree, rng.integers(0, tree.size, size=10))
            for _ in range(20)
        ]
        return vector_valued_ratio(p, r, funcs, backend="tree").constant

    tree = TreeSpace(TREE_K, TREE_DEPTH)
    consts = [quotient(tree, i, 3.0, 2.0) for i in range(10)]
    consts_arr = np.array(consts)
    spread = float(consts_arr.max() / consts_arr.min())
    rep = CheckReport(
        id="vector-valued",
        constant=float(consts_arr.max()),
        witness={"p": 3.0, "r": 2.0, "k": TREE_K, "depth": TREE_DEPTH, "batches": 10,
                 "batch": int(np.argmax(consts_arr))},
        verdict="pass" if spread < 2.0 and np.all(np.isfinite(consts_arr)) else "fail",
        meta={
            "spread": spread,
            "constants": [float(c) for c in consts],
            "seed": seed,
        },
        _reeval=lambda wit: quotient(
            TreeSpace(wit["k"], wit["depth"]), int(wit["batch"]), wit["p"], wit["r"]
        ),
    )
    return [rep]


_PIPELINES = {
    **{exp_id: _recipe_pipeline(rows) for exp_id, rows in _RECIPES.items()},
    "ex-growthnec": _pipe_growthnec,
    "thm-fs-failure": _pipe_fs_failure,
    "mf-lower": _pipe_mf_lower,
    "tree-weak11": _pipe_tree_weak11,
    "kolmogorov": _pipe_kolmogorov,
    "vector-valued": _pipe_vector_valued,
}

REPRODUCE_IDS = tuple(_PIPELINES)


def run_reproduce(
    exp_id: str, seed: int = CANONICAL_SEED, outdir: Optional[str] = None
):
    """Run one canonical pipeline; returns (exit_code, json_path, envelope)."""
    if exp_id not in _PIPELINES:
        raise ConfigError(
            f"unknown experiment id {exp_id!r}; known: {', '.join(REPRODUCE_IDS)}"
        )
    reports = _PIPELINES[exp_id](seed)
    env = make_envelope(exp_id, seed, reports)
    path = os.path.join(report_dir(outdir), f"{exp_id}.json")
    write_json_report(env, path)
    return (0 if env["verdict"] == "pass" else 1), path, env


# ---------------------------------------------------------------------------
# config-driven sweeps
# ---------------------------------------------------------------------------


def _object(obj, where: str, known=None) -> dict:
    """obj if it is a JSON object without fields outside known (when given)."""
    if not isinstance(obj, dict):
        raise ConfigError(f"{where} must be a JSON object, got {type(obj).__name__}")
    extra = set() if known is None else set(obj) - set(known)
    if extra:
        raise ConfigError(f"unknown {where} fields: {sorted(extra)}")
    return obj


def _parse_space(obj) -> SpaceParams:
    obj = _object(obj, "space")
    if not obj:
        return DEFAULT_SPACE
    layers = set(obj) == {"m", "k"}
    if not layers and set(obj) != {"sigma", "tau"}:
        raise ConfigError("space needs exactly {m, k} or {sigma, tau}")
    nums = {n: finite_number(x, f"space {n!r}", layers) for n, x in obj.items()}
    return SpaceParams.from_mk(**nums) if layers else SpaceParams(**nums)


def _file_name(output: dict, key: str, default: str) -> str:
    """The output block's file name under key, which must be a nonempty string."""
    name = output.get(key, default)
    if not isinstance(name, str) or not name:
        raise ConfigError(f"output {key!r} must be a nonempty file name, got {name!r}")
    return name


@dataclass
class ExperimentConfig:
    """Validated sweep description; rejects any field it does not know."""

    space: SpaceParams
    j_max: int
    n_max: int
    weight: WeightSpec
    checker: str
    params: dict
    axes: dict
    seed: int
    csv_name: str
    json_name: str

    @classmethod
    def from_json(cls, obj) -> "ExperimentConfig":
        if isinstance(obj, str):
            try:
                obj = json.loads(obj)
            except json.JSONDecodeError as exc:
                raise ConfigError(f"config is not valid JSON: {exc}") from exc
        known = {"space", "grid", "weight", "checker", "axes", "seed", "output"}
        obj = _object(obj, "config", known)

        space = _parse_space(obj.get("space", {}))

        grid = _object(obj.get("grid", {}), "grid", {"j_max", "n_max"})
        j_max = finite_number(grid.get("j_max", CANONICAL_J_MAX), "grid 'j_max'", True)
        n_max = finite_number(grid.get("n_max", CANONICAL_N_MAX), "grid 'n_max'", True)
        _require_window(j_max, n_max)

        checker_block = _object(obj.get("checker"), "checker", {"id", "params"})
        cid = checker_block.get("id")
        if cid not in CHECKERS:
            raise ConfigError(
                f"unknown checker {cid!r}; known: {', '.join(sorted(CHECKERS))}"
            )
        given = checker_block.get("params", {})
        given = _object(given, f"{cid} params", CHECKERS[cid].params)
        params = {**CHECKERS[cid].defaults, **given}
        params.setdefault("n_max", n_max)

        if "weight" not in obj:
            raise ConfigError("config needs a weight spec")
        weight = WeightSpec.from_json(obj["weight"])

        axes = _object(obj.get("axes", {}), "axes")
        for name, values in axes.items():
            if name not in CHECKERS[cid].params:
                raise ConfigError(f"axis {name!r} is not a parameter of {cid}")
            if not isinstance(values, list) or not values:
                raise ConfigError(f"axis {name!r} needs a nonempty list of values")
        # every value a cell can see is checked before any cell runs
        for name, values in {**{n: [v] for n, v in params.items()}, **axes}.items():
            for value in values:
                _param(name, value)

        output = _object(obj.get("output", {}), "output", {"csv", "json"})
        csv_name = _file_name(output, "csv", "sweep.csv")
        json_name = _file_name(output, "json", "sweep.json")
        if os.path.normpath(csv_name) == os.path.normpath(json_name):
            raise ConfigError(
                f"output 'csv' and 'json' must name different files, "
                f"got {csv_name!r} and {json_name!r}"
            )
        seed = finite_number(obj.get("seed", CANONICAL_SEED), "seed", True)
        if seed < 0:
            raise ConfigError(f"seed must be nonnegative, got {seed}")

        return cls(
            space=space,
            j_max=j_max,
            n_max=n_max,
            weight=weight,
            checker=cid,
            params=params,
            axes=axes,
            seed=seed,
            csv_name=csv_name,
            json_name=json_name,
        )


# kind -> (its fields besides kind, with defaults; builder(window, seed, **fields))
_FAMILY_KINDS = {
    "standard": ({}, lambda window, seed: SetFamily.standard(window)),
    "singletons": ({}, lambda window, seed: SetFamily.singletons(window)),
    "dyadic": ({}, lambda window, seed: SetFamily.dyadic_blocks(window)),
    "random": ({"count": 10}, SetFamily.random_unions),
}


def _family(spec) -> Callable:
    """A validated family spec as a builder(window, seed) of its SetFamily."""
    spec = _object(spec, "family")
    kind = spec.get("kind", "standard")
    if not isinstance(kind, str) or kind not in _FAMILY_KINDS:
        raise ConfigError(f"unknown family kind {kind!r}; known: {list(_FAMILY_KINDS)}")
    defaults, build = _FAMILY_KINDS[kind]
    _object(spec, f"{kind} family", {"kind", *defaults})
    fields = {
        name: finite_number(spec.get(name, default), f"family {name!r}", True)
        for name, default in defaults.items()
    }
    return lambda window, seed: build(window, seed, **fields)


def _indicator(spec) -> list:
    """The annulus indices of a validated f spec."""
    annuli = _object(spec, "f", {"indicator"}).get("indicator")
    if not isinstance(annuli, list):
        raise ConfigError("f needs an 'indicator' list of annulus indices")
    return [finite_number(j, "f indicator", True) for j in annuli]


def _param(name: str, value):
    """A checker parameter read from outside, validated: family as its
    builder, f as annulus indices, the others as ints or floats."""
    if name == "family":
        return _family(value)
    if name == "f":
        return _indicator(value)
    return finite_number(value, f"parameter {name!r}", name in _INT_PARAMS)


class Checker(NamedTuple):
    """One row of the checker table that sweeps and `weight check` share."""

    run: Callable  # run(weight, **params) -> CheckReport
    params: set  # the parameter names a config may set
    defaults: dict  # sweep values of the parameters a config leaves out


# Parameters are keyword names of the checker; n_max defaults to the grid
# block, family to the standard one, others to the checker's own defaults.
# The ids without f are the `weight check` conditions, in this order.  Each
# lambda looks its checker up at call time, so wrappers on the name apply.
CHECKERS = {
    "msw": Checker(lambda w, **a: check_msw(w, **a), {"s", "n_max"}, {"s": 2.0}),
    "easy-check": Checker(
        lambda w, **a: check_easy_check(w, **a),
        {"p", "eta", "n_max"}, {"p": 2.0, "eta": 0.0},
    ),
    "large-scale": Checker(
        lambda w, **a: check_large_scale(w, **a),
        {"p", "alpha", "beta", "n_max", "family"}, {"p": 2.0, "alpha": 0.5, "beta": 0.5},
    ),
    "necessary": Checker(
        lambda w, **a: check_necessary(w, **a), {"p", "n_max", "family"}, {"p": 2.0}
    ),
    "ap-loc": Checker(
        lambda w, **a: check_ap_loc(w, **a), {"p", "step", "refinements"}, {"p": 2.0}
    ),
    "classical-ap": Checker(lambda w, **a: check_classical_ap(w, **a), {"p"}, {"p": 2.0}),
    "weak-type": Checker(
        lambda w, **a: weak_type_ratio(w, **a),
        {"p", "f", "n_max"}, {"p": 2.0, "f": {"indicator": [1]}},
    ),
    "strong-type": Checker(
        lambda w, **a: strong_type_ratio(w, **a),
        {"p", "f", "j_cut", "n_max"}, {"p": 2.0, "f": {"indicator": [1]}},
    ),
    "fs-ratio": Checker(
        lambda w, **a: fs_ratio(w, **a),
        {"s", "f", "k", "n_max"}, {"s": 2.0, "f": {"indicator": [5]}},
    ),
}

_INT_PARAMS = ("n_max", "refinements", "k", "j_cut")  # the other numbers are floats


def _require_window(j_max: int, n_max: int) -> None:
    """Refuse n_max < 1, and a grid whose trusted window (1, valid_upper) holds no annulus."""
    if n_max < 1:
        raise ConfigError(f"n_max must be >= 1, got {n_max}")
    if valid_upper(j_max, n_max) < 1:
        raise ConfigError(f"grid too small: j_max={j_max} with n_max={n_max}")


def run_checker(cid: str, w, params: dict, seed: int) -> CheckReport:
    """Run checker cid on w; names in params that cid lacks are ignored."""
    checker = CHECKERS[cid]
    given = {**checker.defaults, **params}
    kwargs = {name: _param(name, given[name]) for name in checker.params & set(given)}
    if "n_max" in kwargs:
        _require_window(w.grid.j_max, kwargs["n_max"])
    if "family" in kwargs:
        window = (1, valid_upper(w.grid.j_max, kwargs["n_max"]))
        kwargs["family"] = kwargs["family"](window, seed)
    if "f" in kwargs:
        kwargs["f"] = RadialFunction.indicator(w.grid, kwargs["f"])
    return checker.run(w, **kwargs)


def _csv_cell(v) -> str:
    if v is None:
        return ""
    if isinstance(v, float):
        return f"{v:.12g}"
    return str(v)


def run_sweep(cfg: ExperimentConfig, outdir: Optional[str] = None):
    """Run every cell of the axes product; returns (exit_code, paths, envelope)."""
    grid = AnnularGrid(cfg.space, cfg.j_max)
    w = materialize(cfg.weight, grid)
    axis_names = list(cfg.axes)
    cells, reports, rows = [], [], []
    for combo in itertools.product(*(cfg.axes[a] for a in axis_names)):
        cells.append(dict(zip(axis_names, combo)))
        rep = run_checker(cfg.checker, w, {**cfg.params, **cells[-1]}, cfg.seed)
        reports.append(rep)
        rows.append([cfg.checker, *combo, rep.constant, rep.slope, rep.r2, rep.verdict])

    out = report_dir(outdir)
    csv_path = os.path.join(out, cfg.csv_name)
    with _rewrite(csv_path) as fh:
        writer = csv.writer(fh)
        writer.writerow(["id", *axis_names, "constant", "slope", "r2", "verdict"])
        for row in rows:
            writer.writerow([_csv_cell(v) for v in row])

    env = make_envelope(
        f"sweep-{cfg.checker}",
        cfg.seed,
        reports,
        space=cfg.space,
        cells=cells,
        grid={"j_max": cfg.j_max, "n_max": cfg.n_max},
        weight=cfg.weight.to_json(),
        axes=cfg.axes,
    )
    json_path = os.path.join(out, cfg.json_name)
    write_json_report(env, json_path)
    code = 0 if env["verdict"] == "pass" else 1
    return code, (csv_path, json_path), env
