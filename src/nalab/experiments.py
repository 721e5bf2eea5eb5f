"""Experiment drivers: canonical reproductions, config sweeps, report files.

Two kinds of artifacts: a JSON envelope holding full CheckReports, which
is byte-stable for a fixed seed except the `created` stamp, and for
sweeps a flat CSV with one row per parameter cell.  Exit codes follow
0 = all verdicts pass, 1 = some verdict failed (report still written),
2 = bad configuration; the CLI surfaces them unchanged.

Several canonical runs end in verdict "fail" by design: they reproduce
negative results (a weight failing a condition, a divergent constant
sequence), and the failing report is the expected outcome.
"""

from __future__ import annotations

import csv
import itertools
import json
import os
from dataclasses import dataclass
from datetime import datetime, timezone
from typing import Callable, List, NamedTuple, Optional

import numpy as np

from .checkers import (
    CheckReport,
    SetFamily,
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
from .errors import ConfigError
from .fitting import fit_linear, fit_log_slope
from .geometry import DEFAULT_SPACE, AnnularGrid, SpaceParams, valid_upper
from .radialops import RadialFunction, maximal_dis
from .treelab import (
    TreeSpace,
    VertexFunction,
    tree_ball,
    tree_kolmogorov,
    tree_maximal,
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


def write_json_report(env: dict, path: str):
    with open(path, "w") as fh:
        json.dump(env, fh, indent=2)
        fh.write("\n")


def _canonical_grid(j_max: int = CANONICAL_J_MAX) -> AnnularGrid:
    return AnnularGrid(DEFAULT_SPACE, j_max)


# ---------------------------------------------------------------------------
# canonical reproduction pipelines
# ---------------------------------------------------------------------------


def _pipe_trivial(seed: int) -> List[CheckReport]:
    # constant weight: the maximal function fixes it, both conditions pass
    w = materialize(WeightSpec.constant(), _canonical_grid())
    return [check_msw(w, 2.0), check_ap_loc(w, 2.0)]


def _pipe_blesa(seed: int) -> List[CheckReport]:
    # decaying exponential family; admissible power s shrinks with the decay
    grid = _canonical_grid()
    out = []
    for gamma, s in ((-0.3, 2.0), (-0.5, 2.0), (-1.0, 1.0)):
        rep = check_msw(materialize(WeightSpec.exp_radial(gamma), grid), s)
        rep.meta["gamma"] = gamma
        out.append(rep)
    return out


def _pipe_beta_eq_alpha(seed: int) -> List[CheckReport]:
    w = materialize(WeightSpec.exp_strong(2.0), _canonical_grid())
    return [check_easy_check(w, 2.0, -1.0)]


def _pipe_spherical(seed: int) -> List[CheckReport]:
    # eigenfunction profiles standing in for their exponential envelopes
    grid = _canonical_grid()
    u = materialize(WeightSpec.spherical_u(2.0), grid)
    v = materialize(WeightSpec.jacobi_v(-0.3), grid)
    return [check_easy_check(u, 2.0, -1.0), check_msw(v, 2.0)]


def _pipe_notstrong(seed: int) -> List[CheckReport]:
    """Weak-(2,2) holds while the strong partial sums grow linearly."""
    spec = WeightSpec.eta_product(WeightSpec.exp_strong(2.0))
    grid = _canonical_grid()
    weak = weak_type_ratio(
        materialize(spec, grid), 2.0, RadialFunction.indicator(grid, [1])
    )
    # the [20, 60] fit needs Mf alive out to j = 60: scales must reach
    # n >= j - 2 and the valid window must still cover 60
    deep = _canonical_grid(130)
    strong = strong_type_ratio(
        materialize(spec, deep),
        2.0,
        RadialFunction.indicator(deep, [1]),
        n_max=62,
    )
    return [weak, strong]


def _pipe_apnot(seed: int) -> List[CheckReport]:
    w = materialize(WeightSpec.exp_radial(-0.75), _canonical_grid())
    return [check_classical_ap(w, 2.0)]


def _divergence_sequence(
    report_id: str,
    ratio: Callable[[object, RadialFunction], CheckReport],
    witness: dict,
    meta: dict,
    relative: bool,
) -> CheckReport:
    """Constants c_j of ratio(w, 1_(Omega_j)) for j = 10..40 and their growth.

    w is exp_radial(-1) on a j_max 120 grid.  The linear rate is fitted to
    c_j / c_10 when relative, else to c_j; reevaluate() recomputes
    c_(j_hi) through ratio.
    """
    grid = _canonical_grid(120)
    w = materialize(WeightSpec.exp_radial(-1.0), grid)

    def constant_at(j: int) -> float:
        return ratio(w, RadialFunction.indicator(grid, [j])).constant

    js = np.arange(10, 41)
    consts = np.array([constant_at(int(j)) for j in js])
    growth = float(consts[-1] / consts[0])
    fit = fit_linear(js.astype(float), consts / consts[0] if relative else consts)
    return CheckReport(
        id=report_id,
        constant=float(consts[-1]),
        witness={"j_lo": 10, "j_hi": 40, **witness},
        verdict="fail" if growth >= 2.0 else "info",
        slope=fit.slope,
        r2=fit.r2,
        meta={**meta, "growth_ratio": growth, "constants": [float(c) for c in consts]},
        _reeval=lambda wit: constant_at(int(wit["j_hi"])),
    )


def _pipe_growthnec(seed: int) -> List[CheckReport]:
    """Growth condition passes, yet weak-type constants diverge along j."""
    nec = check_necessary(
        materialize(WeightSpec.exp_radial(-1.0), _canonical_grid()), 2.0
    )
    growth = _divergence_sequence(
        "weak-type-growth", lambda w, f: weak_type_ratio(w, 2.0, f, n_max=42),
        {"n_max": 42}, {"p": 2.0}, relative=True,
    )
    return [nec, growth]


def _pipe_fs_failure(seed: int) -> List[CheckReport]:
    """s = 1 two-weight constants c_j grow linearly: no uniform bound."""
    rep = _divergence_sequence(
        "fs-divergence", lambda w, f: fs_ratio(w, 1.0, f, k=1),
        {"s": 1.0, "k": 1}, {}, relative=False,
    )
    return [rep]


def _pipe_mf_lower(seed: int) -> List[CheckReport]:
    """Decay rate of M applied to the innermost-annulus indicator."""
    grid = _canonical_grid()
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
        mf = tree_maximal(f)
        for q in qs:
            rep = tree_kolmogorov(q, f, B, result=mf)
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
    "ex-trivial": _pipe_trivial,
    "ex-blesa": _pipe_blesa,
    "ex-beta-eq-alpha": _pipe_beta_eq_alpha,
    "ex-spherical": _pipe_spherical,
    "ex-notstrong": _pipe_notstrong,
    "ex-apnot": _pipe_apnot,
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

_FAMILY_KINDS = ("standard", "singletons", "dyadic", "random")


def _expect_object(obj, where: str) -> dict:
    if not isinstance(obj, dict):
        raise ConfigError(f"{where} must be a JSON object, got {type(obj).__name__}")
    return obj

def _reject_unknown(obj: dict, known: set, where: str):
    extra = set(obj) - known
    if extra:
        raise ConfigError(f"unknown {where} fields: {sorted(extra)}")


def _parse_space(obj) -> SpaceParams:
    obj = _expect_object(obj, "space")
    if not obj:
        return DEFAULT_SPACE
    if set(obj) == {"m", "k"}:
        return SpaceParams.from_mk(int(obj["m"]), int(obj["k"]))
    if set(obj) == {"sigma", "tau"}:
        return SpaceParams(float(obj["sigma"]), float(obj["tau"]))
    raise ConfigError("space needs exactly {m, k} or {sigma, tau}")


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
        obj = _expect_object(obj, "config")
        _reject_unknown(
            obj,
            {"space", "grid", "weight", "checker", "axes", "seed", "output"},
            "config",
        )

        space = _parse_space(obj.get("space", {}))

        grid = _expect_object(obj.get("grid", {}), "grid")
        _reject_unknown(grid, {"j_max", "n_max"}, "grid")
        j_max = int(grid.get("j_max", CANONICAL_J_MAX))
        n_max = int(grid.get("n_max", CANONICAL_N_MAX))
        if j_max <= n_max + 1:
            raise ConfigError(f"grid too small: j_max={j_max} with n_max={n_max}")

        checker_block = _expect_object(obj.get("checker"), "checker")
        _reject_unknown(checker_block, {"id", "params"}, "checker")
        cid = checker_block.get("id")
        if cid not in CHECKERS:
            raise ConfigError(
                f"unknown checker {cid!r}; known: {', '.join(sorted(CHECKERS))}"
            )
        given = _expect_object(checker_block.get("params", {}), "checker params")
        _reject_unknown(given, CHECKERS[cid].params, f"{cid} params")
        params = {**CHECKERS[cid].defaults, **given}
        params.setdefault("n_max", n_max)

        if "weight" not in obj:
            raise ConfigError("config needs a weight spec")
        weight = WeightSpec.from_json(obj["weight"])

        axes = _expect_object(obj.get("axes", {}), "axes")
        for name, values in axes.items():
            if name not in CHECKERS[cid].params:
                raise ConfigError(f"axis {name!r} is not a parameter of {cid}")
            if not isinstance(values, list) or not values:
                raise ConfigError(f"axis {name!r} needs a nonempty list of values")

        output = _expect_object(obj.get("output", {}), "output")
        _reject_unknown(output, {"csv", "json"}, "output")

        return cls(
            space=space,
            j_max=j_max,
            n_max=n_max,
            weight=weight,
            checker=cid,
            params=params,
            axes=axes,
            seed=int(obj.get("seed", CANONICAL_SEED)),
            csv_name=str(output.get("csv", "sweep.csv")),
            json_name=str(output.get("json", "sweep.json")),
        )


def _build_family(spec, w, n_max: int, seed: int) -> SetFamily:
    spec = _expect_object(spec, "family")
    _reject_unknown(spec, {"kind", "count"}, "family")
    kind = spec.get("kind", "standard")
    if kind not in _FAMILY_KINDS:
        raise ConfigError(f"unknown family kind {kind!r}; known: {_FAMILY_KINDS}")
    window = (1, valid_upper(w.grid.j_max, n_max))
    if kind == "singletons":
        return SetFamily.singletons(window)
    if kind == "dyadic":
        return SetFamily.dyadic_blocks(window)
    if kind == "random":
        return SetFamily.random_unions(window, seed, int(spec.get("count", 10)))
    return SetFamily.standard(window)


def _build_f(grid: AnnularGrid, spec) -> RadialFunction:
    spec = _expect_object(spec, "f")
    _reject_unknown(spec, {"indicator"}, "f")
    if "indicator" not in spec:
        raise ConfigError("f needs an 'indicator' list of annulus indices")
    return RadialFunction.indicator(grid, [int(j) for j in spec["indicator"]])


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


def run_checker(cid: str, w, params: dict, seed: int) -> CheckReport:
    """Run checker cid on w; names in params that cid lacks are ignored."""
    checker = CHECKERS[cid]
    given = {**checker.defaults, **params}
    kwargs = {}
    for name in checker.params & given.keys():
        value = given[name]
        if name == "family":
            value = _build_family(value, w, int(given["n_max"]), seed)
        elif name == "f":
            value = _build_f(w.grid, value)
        else:
            value = (int if name in _INT_PARAMS else float)(value)
        kwargs[name] = value
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
    with open(csv_path, "w", newline="") as fh:
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
