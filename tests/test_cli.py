"""End-to-end tests for the canonical pipelines, the sweep runner, and the
command-line front end.  Pipelines that reproduce negative results exit 1 by
design; usage and config problems exit 2."""
import csv
import dataclasses
import json
import os
import subprocess
import sys

import numpy as np
import pytest

import nalab
from nalab import cli
from nalab.checkers import (
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
from nalab.cli import main
from nalab.errors import ConfigError
from nalab.experiments import (
    _PIPELINES,
    CANONICAL_SEED,
    CHECKERS,
    ExperimentConfig,
    REPRODUCE_IDS,
    run_reproduce,
    run_sweep,
)
from nalab.geometry import DEFAULT_SPACE, AnnularGrid, SpaceParams
from nalab.radialops import RadialFunction, maximal_dis
from nalab.treelab import (
    TreeSpace,
    VertexFunction,
    tree_ball,
    tree_kolmogorov,
    weak11_constant,
)
from nalab.weights import WeightSpec, materialize

ENVELOPE_KEYS = {"id", "created", "seed", "space", "verdict", "reports"}
# the benchmark's reference outcomes, which its radial workload checks
REFERENCES = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench", "references.json")
FROZEN_REL = 2e-4  # the references carry the precision of their capture
TREE_IDS = ("tree-weak11", "kolmogorov", "vector-valued")
RADIAL_IDS = tuple(i for i in REPRODUCE_IDS if i not in TREE_IDS)


def test_reproduce_id_registry():
    assert REPRODUCE_IDS == (
        "ex-trivial",
        "ex-blesa",
        "ex-beta-eq-alpha",
        "ex-spherical",
        "ex-notstrong",
        "ex-apnot",
        "ex-growthnec",
        "thm-fs-failure",
        "mf-lower",
        "tree-weak11",
        "kolmogorov",
        "vector-valued",
    )


def test_run_reproduce_trivial(tmp_path):
    code, path, env = run_reproduce("ex-trivial", outdir=str(tmp_path))
    assert code == 0
    assert set(env) == ENVELOPE_KEYS
    assert env["id"] == "ex-trivial" and env["verdict"] == "pass"
    assert env["space"] == {"sigma": 1.0, "tau": 0.0}
    on_disk = json.loads((tmp_path / "ex-trivial.json").read_text())
    assert on_disk["verdict"] == "pass"
    assert str(path) == str(tmp_path / "ex-trivial.json")


def test_run_reproduce_is_deterministic(tmp_path):
    _, _, env1 = run_reproduce("ex-trivial", outdir=str(tmp_path))
    _, _, env2 = run_reproduce("ex-trivial", outdir=str(tmp_path))
    env1.pop("created")
    env2.pop("created")
    assert env1 == env2


def test_run_reproduce_negative_result_exits_one(tmp_path):
    # the classical Ap products diverge for this weight; that is the point
    code, _, env = run_reproduce("ex-apnot", outdir=str(tmp_path))
    assert code == 1
    assert env["verdict"] == "fail"
    assert env["reports"][0]["id"] == "classical-ap"


@pytest.mark.parametrize("exp_id", RADIAL_IDS)
def test_radial_reproduce_matches_the_benchmark_reference(tmp_path, exp_id):
    with open(REFERENCES) as fh:
        ref = json.load(fh)["radial"][exp_id]
    code, _, env = run_reproduce(exp_id, outdir=str(tmp_path))
    assert code == ref["code"]
    got, want = env["reports"], ref["reports"]
    assert [(r["id"], r["verdict"]) for r in got] == [(r["id"], r["verdict"]) for r in want]
    for r, w in zip(got, want):
        assert r["constant"] == pytest.approx(w["constant"], rel=FROZEN_REL)


def test_run_reproduce_unknown_id():
    with pytest.raises(ConfigError):
        run_reproduce("ex-bogus")


def test_outdir_env_var(tmp_path, monkeypatch):
    monkeypatch.setenv("NALAB_OUTDIR", str(tmp_path))
    code, path, _ = run_reproduce("ex-beta-eq-alpha")
    assert code == 0
    assert (tmp_path / "ex-beta-eq-alpha.json").exists()


def _direct_trivial():
    w = materialize(WeightSpec.constant(), AnnularGrid(DEFAULT_SPACE, 80))
    return [check_msw(w, 2.0), check_ap_loc(w, 2.0)]


def _direct_blesa():
    grid = AnnularGrid(DEFAULT_SPACE, 80)
    out = []
    for gamma, s in ((-0.3, 2.0), (-0.5, 2.0), (-1.0, 1.0)):
        rep = check_msw(materialize(WeightSpec.exp_radial(gamma), grid), s)
        rep.meta["gamma"] = gamma
        out.append(rep)
    return out


def _direct_spherical():
    grid = AnnularGrid(DEFAULT_SPACE, 80)
    u = materialize(WeightSpec.spherical_u(2.0), grid)
    v = materialize(WeightSpec.jacobi_v(-0.3), grid)
    return [check_easy_check(u, 2.0, -1.0), check_msw(v, 2.0)]


def _direct_notstrong():
    spec = WeightSpec.eta_product(WeightSpec.exp_strong(2.0))
    grid, deep = AnnularGrid(DEFAULT_SPACE, 80), AnnularGrid(DEFAULT_SPACE, 130)
    weak = weak_type_ratio(materialize(spec, grid), 2.0, RadialFunction.indicator(grid, [1]))
    strong = strong_type_ratio(
        materialize(spec, deep), 2.0, RadialFunction.indicator(deep, [1]), n_max=62
    )
    return [weak, strong]


def _direct_on_80(spec, check):
    return lambda: [check(materialize(spec, AnnularGrid(DEFAULT_SPACE, 80)))]


# the reports of the recipe ids by direct checker calls, written out as the
# hand-made pipelines the recipe table replaced; of ex-growthnec, the
# necessary report
DIRECT_RECIPES = {
    "ex-trivial": _direct_trivial,
    "ex-blesa": _direct_blesa,
    "ex-beta-eq-alpha": _direct_on_80(
        WeightSpec.exp_strong(2.0), lambda w: check_easy_check(w, 2.0, -1.0)
    ),
    "ex-spherical": _direct_spherical,
    "ex-notstrong": _direct_notstrong,
    "ex-apnot": _direct_on_80(
        WeightSpec.exp_radial(-0.75), lambda w: check_classical_ap(w, 2.0)
    ),
    "ex-growthnec": _direct_on_80(
        WeightSpec.exp_radial(-1.0), lambda w: check_necessary(w, 2.0)
    ),
}


@pytest.mark.parametrize("exp_id", list(DIRECT_RECIPES))
def test_recipe_reports_equal_direct_checker_calls(exp_id):
    want = DIRECT_RECIPES[exp_id]()
    got = _PIPELINES[exp_id](CANONICAL_SEED)[: len(want)]
    assert [r.to_json() for r in got] == [r.to_json() for r in want]
    for rep in got:
        assert abs(rep.reevaluate() - rep.constant) <= 1e-10 * abs(rep.constant)


@pytest.fixture(scope="module")
def pipeline_reports(tree_weak11_reports):
    ids = ("ex-growthnec", "thm-fs-failure", "mf-lower", "kolmogorov", "vector-valued")
    reports = {i: _PIPELINES[i](CANONICAL_SEED)[-1] for i in ids}
    return {**reports, "tree-weak11": tree_weak11_reports[-1]}


def _grid120_case(j):
    grid = AnnularGrid(DEFAULT_SPACE, 120)
    return materialize(WeightSpec.exp_radial(-1.0), grid), RadialFunction.indicator(grid, [j])


def _other_case(exp_id):
    """A witness case the pipeline did not pick, and its value by direct call."""
    if exp_id == "ex-growthnec":
        w, f = _grid120_case(41)
        return {"j_hi": 41}, weak_type_ratio(w, 2.0, f, n_max=42).constant
    if exp_id == "thm-fs-failure":
        w, f = _grid120_case(41)
        return {"j_hi": 41}, fs_ratio(w, 1.0, f, k=1).constant
    if exp_id == "mf-lower":
        grid = AnnularGrid(DEFAULT_SPACE, 80)
        res = maximal_dis(RadialFunction.indicator(grid, [1]), 30)
        return {"j": 12}, res.values[11] * np.exp(DEFAULT_SPACE.homogeneous_dim * 12)
    if exp_id == "tree-weak11":
        sups = []
        for k in (2, 3, 4):  # draw 5 of each tree
            tree, rng = TreeSpace(k, 8), np.random.default_rng(CANONICAL_SEED)
            for _ in range(6):
                f = VertexFunction.dirac(tree, rng.integers(0, tree.size, 10))
            sups.append(weak11_constant(f))
        return {"draw": [5, 5, 5]}, max(sups) / min(sups)
    tree = TreeSpace(2, 8)
    if exp_id == "kolmogorov":
        rng = np.random.default_rng(CANONICAL_SEED)
        for _ in range(6):  # draws 0 .. 5
            f = VertexFunction(tree, rng.uniform(0.0, 1.0, tree.size))
            center, radius = int(rng.integers(0, tree.size)), int(rng.integers(0, 17))
        rep = tree_kolmogorov(0.5, f, tree_ball(tree, center, radius).vertices)
        return {"draw": 5, "q": 0.5}, rep.lhs / rep.rhs
    rng = np.random.default_rng(CANONICAL_SEED + 3)
    funcs = [VertexFunction.dirac(tree, rng.integers(0, tree.size, size=10)) for _ in range(20)]
    return {"batch": 3}, vector_valued_ratio(3.0, 2.0, funcs, backend="tree").constant


@pytest.mark.parametrize(
    "exp_id",
    ["ex-growthnec", "thm-fs-failure", "mf-lower", "tree-weak11", "kolmogorov", "vector-valued"],
)
def test_pipeline_reevaluate_recomputes_the_witness(pipeline_reports, exp_id):
    rep = pipeline_reports[exp_id]
    assert abs(rep.reevaluate() - rep.constant) <= 1e-10 * abs(rep.constant)
    # a witness naming another case recomputes that case, not the stored pick
    change, expected = _other_case(exp_id)
    other = dataclasses.replace(rep, witness={**rep.witness, **change})
    assert abs(other.reevaluate() - expected) <= 1e-10 * abs(expected)
    assert expected != rep.constant


@pytest.mark.parametrize("exp_id", ["ex-growthnec", "thm-fs-failure"])
def test_divergence_block_matches_single_function_checkers(pipeline_reports, exp_id):
    # the pipeline passes its 31 indicators as one block
    w, _ = _grid120_case(10)
    singles = []
    for j in range(10, 41):
        f = RadialFunction.indicator(w.grid, [j])
        rep = (
            weak_type_ratio(w, 2.0, f, n_max=42)
            if exp_id == "ex-growthnec"
            else fs_ratio(w, 1.0, f, k=1)
        )
        singles.append(rep.constant)
    block = pipeline_reports[exp_id].meta["constants"]
    np.testing.assert_allclose(block, singles, rtol=1e-13, atol=0)


# ---------------------------------------------------------------- sweeps


def sweep_config(**overrides):
    cfg = {
        "checker": {"id": "msw", "params": {"s": 2.0}},
        "weight": {"variant": "exp_radial", "gamma": -0.3},
        "axes": {},
    }
    cfg.update(overrides)
    return cfg


def test_sweep_single_cell_matches_direct_call(tmp_path):
    cfg = ExperimentConfig.from_json(sweep_config())
    code, (csv_path, json_path), env = run_sweep(cfg, outdir=str(tmp_path))
    assert code == 0
    rows = list(csv.DictReader(open(csv_path)))
    assert len(rows) == 1
    assert float(rows[0]["constant"]) == pytest.approx(0.804900, rel=2e-4)
    assert env["id"] == "sweep-msw" and len(env["cells"]) == 1


FAMILY_BUILDERS = {
    "standard": SetFamily.standard,
    "singletons": SetFamily.singletons,
    "dyadic": SetFamily.dyadic_blocks,
    "random": lambda window: SetFamily.random_unions(window, CANONICAL_SEED, 7),
}
PAIR_CHECKS = {
    "necessary": lambda w, family: check_necessary(w, 2.0, n_max=25, family=family),
    "large-scale": lambda w, family: check_large_scale(w, 2.0, 0.5, 0.5, n_max=25, family=family),
}


@pytest.mark.parametrize("checker", list(PAIR_CHECKS))
@pytest.mark.parametrize("kind", list(FAMILY_BUILDERS))
def test_sweep_family_kinds_end_to_end(tmp_path, kind, checker):
    # a family config reaches the checker as the SetFamily its kind names,
    # and the witness in the envelope recomputes the constant
    family = {"kind": kind, **({"count": 7} if kind == "random" else {})}
    spec = {"variant": "exp_radial", "gamma": -1.0 if checker == "necessary" else 1.0}
    cfg = ExperimentConfig.from_json(sweep_config(
        checker={"id": checker, "params": {"family": family}}, weight=spec))
    code, _, env = run_sweep(cfg, outdir=str(tmp_path))
    (cell,) = env["cells"]
    got = cell["report"]
    fam = FAMILY_BUILDERS[kind]((1, 80 - 25 - 1))  # the trusted window of the default grid
    w = materialize(WeightSpec.from_json(spec), AnnularGrid(DEFAULT_SPACE, 80))
    direct = PAIR_CHECKS[checker](w, fam)
    assert code == (1 if got["verdict"] == "fail" else 0)
    assert got["meta"]["family"] == fam.label
    assert (got["constant"], got["witness"]) == (direct.constant, direct.witness)
    replayed = dataclasses.replace(direct, witness=got["witness"]).reevaluate()
    assert abs(replayed - got["constant"]) <= 1e-10 * abs(got["constant"])


def test_sweep_axis_column(tmp_path):
    cfg = ExperimentConfig.from_json(
        sweep_config(
            checker={"id": "fs-ratio", "params": {"f": {"indicator": [5]}}},
            weight={"variant": "exp_radial", "gamma": -1.0},
            axes={"s": [1.1, 1.25, 1.5, 2.0]},
        )
    )
    code, (csv_path, _), env = run_sweep(cfg, outdir=str(tmp_path))
    assert code == 0
    rows = list(csv.DictReader(open(csv_path)))
    assert [r["s"] for r in rows] == ["1.1", "1.25", "1.5", "2"]
    col = [float(r["constant"]) for r in rows]
    for got, pin in zip(col, (0.627123, 0.422662, 0.187038, 0.049651)):
        assert got == pytest.approx(pin, rel=2e-4)
    assert all(a >= b for a, b in zip(col, col[1:]))
    header = open(csv_path).readline().strip().split(",")
    assert header == ["id", "s", "constant", "slope", "r2", "verdict"]


def test_sweep_config_gates():
    with pytest.raises(ConfigError):
        ExperimentConfig.from_json(sweep_config(unknown_field=1))
    with pytest.raises(ConfigError):
        ExperimentConfig.from_json(sweep_config(grid={"normalize": False}))
    with pytest.raises(ConfigError):
        ExperimentConfig.from_json(sweep_config(backend="tree"))
    with pytest.raises(ConfigError):
        # axis key must be a parameter of the chosen checker
        ExperimentConfig.from_json(sweep_config(axes={"radius": [1, 2]}))
    with pytest.raises(ConfigError):
        ExperimentConfig.from_json({"checker": {"id": "msw"}})  # weight is required


# ---------------------------------------------------------------- CLI


def test_cli_space_info(capsys):
    assert main(["space", "info"]) == 0
    out = capsys.readouterr().out
    assert "sigma" in out and "V(10)" in out
    assert main(["space", "info", "--sigma", "1.5", "--tau", "0.5"]) == 0


def test_cli_jacobi_eval(capsys):
    code = main(
        ["jacobi", "eval", "--sigma", "1", "--tau", "0", "--tmax", "2", "--step", "0.5"]
    )
    assert code == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "t,phi_re,phi_im,abs_err"
    assert len(lines) == 6
    first = lines[1].split(",")
    assert float(first[0]) == 0.0
    assert float(first[1]) == pytest.approx(1.0, abs=1e-14)


def test_cli_jacobi_eval_bad_step(capsys):
    assert main(["jacobi", "eval", "--sigma", "1", "--tau", "0", "--step", "-0.5"]) == 2


def test_cli_weight_check(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("NALAB_OUTDIR", str(tmp_path))
    code = main(["weight", "check", "--spec", '{"variant": "constant"}',
                 "--condition", "msw", "--j-max", "60"])
    assert code == 0
    payload = json.loads((tmp_path / "weight-msw.json").read_text())
    assert payload["verdict"] == "pass"
    assert payload["weight"] == {"variant": "constant"}

    spec_file = tmp_path / "w.json"
    spec_file.write_text('{"variant": "exp_radial", "gamma": -0.75}')
    code = main(["weight", "check", "--spec", str(spec_file),
                 "--condition", "classical-ap"])
    assert code == 1  # Ap products diverge for this weight
    assert json.loads((tmp_path / "weight-classical-ap.json").read_text())["verdict"] == "fail"


def test_cli_classical_ap_overflow_exits_one(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("NALAB_OUTDIR", str(tmp_path))
    spec = '{"variant": "exp_radial", "gamma": -3}'
    with np.errstate(over="ignore"):
        code = main(["weight", "check", "--spec", spec,
                     "--condition", "classical-ap", "--p", "1.5"])
    assert code == 1
    payload = json.loads((tmp_path / "weight-classical-ap.json").read_text())
    assert payload["verdict"] == "fail"
    assert payload["reports"][0]["constant"] == float("inf")


# each condition called directly with the CLI's defaults
CLI_CONDITIONS = {
    "msw": lambda w: check_msw(w, 2.0, n_max=25),
    "easy-check": lambda w: check_easy_check(w, 2.0, 0.0, n_max=25),
    "large-scale": lambda w: check_large_scale(w, 2.0, 0.5, 0.5, n_max=25),
    "necessary": lambda w: check_necessary(w, 2.0, n_max=25),
    "ap-loc": lambda w: check_ap_loc(w, 2.0),
    "classical-ap": lambda w: check_classical_ap(w, 2.0),
}


def test_cli_conditions_are_the_checkers_without_f(capsys):
    assert [c for c, ch in CHECKERS.items() if "f" not in ch.params] == list(CLI_CONDITIONS)
    spec = '{"variant": "constant"}'
    assert main(["weight", "check", "--spec", spec, "--condition", "weak-type"]) == 2


@pytest.mark.parametrize("cond", list(CLI_CONDITIONS))
def test_cli_weight_check_matches_direct_call(tmp_path, monkeypatch, capsys, cond):
    monkeypatch.setenv("NALAB_OUTDIR", str(tmp_path))
    spec = {"variant": "exp_radial", "gamma": -0.3}
    code = main(["weight", "check", "--spec", json.dumps(spec), "--condition", cond])
    payload = json.loads((tmp_path / f"weight-{cond}.json").read_text())
    grid = AnnularGrid(SpaceParams.from_mk(2, 1), 80)
    rep = CLI_CONDITIONS[cond](materialize(WeightSpec.from_json(spec), grid)).to_json()
    assert payload["id"] == f"weight-{cond}"
    # the whole report, meta, slope and r2 included, as it reads from disk
    assert payload["reports"] == [json.loads(json.dumps(rep))]
    assert code == (1 if rep["verdict"] == "fail" else 0)


@pytest.mark.parametrize(
    "spec",
    [
        '{"variant": "jacobi_v", "gamma": -0.5}',  # spectral point on a pole
        '{"variant": "exp_radial", "gamma": 5}',  # overflows the float range
        '{"variant": "exp_radial", "gamma": "x"}',  # malformed numbers
        '{"variant": "exp_strong", "p": "2"}',
        '{"variant": "spherical_u", "p": true}',
        '{"variant": "spherical_u", "p": 40.5}',  # phi overflows the float range
    ],
)
def test_cli_weight_check_crash_exits_two(tmp_path, monkeypatch, capsys, spec):
    monkeypatch.setenv("NALAB_OUTDIR", str(tmp_path))
    assert main(["weight", "check", "--spec", spec, "--condition", "msw"]) == 2
    assert capsys.readouterr().err.startswith("error: ")


JACOBI = ["jacobi", "eval", "--sigma", "1", "--tau", "0"]


def check_msw_spec(spec, *options):
    return ["weight", "check", "--spec", spec, "--condition", "msw", *options]


def family_params(family):
    return {"checker": {"id": "necessary", "params": {"family": family}}}


def f_params(indicator):
    return {"checker": {"id": "weak-type", "params": {"f": {"indicator": indicator}}}}


def strong_params(params):
    return {"checker": {"id": "strong-type", "params": params}}


# malformed inputs, each with the text its error message must name; a dict
# is a set of sweep_config overrides run through `nalab sweep`
REFUSED_INPUTS = {
    "constant weight given gamma": (
        check_msw_spec('{"variant": "constant", "gamma": -0.3}'), "'gamma'"),
    "weight spec not JSON": (check_msw_spec('{"variant": '), "JSON"),
    "msw s inf": (check_msw_spec('{"variant": "constant"}', "--s", "inf"), "--s"),
    "jacobi tmax inf": (JACOBI + ["--tmax", "inf"], "--tmax"),
    "jacobi step nan": (JACOBI + ["--step", "nan"], "--step"),
    "jacobi lambda-im nan": (JACOBI + ["--lambda-im", "nan"], "--lambda-im"),
    "space sigma inf": (["space", "info", "--sigma", "inf", "--tau", "0"], "--sigma"),
    # numpy refuses either grid's length: a usage error naming the point count
    "jacobi grid of 1e21 points": (JACOBI + ["--tmax", "1e12", "--step", "1e-9"],
                                   "grid of 1e+21 points"),
    "jacobi grid of 5e300 points": (JACOBI + ["--tmax", "5", "--step", "1e-300"],
                                    "grid of 5e+300 points"),
    # the origin panel's Gauss-Jacobi mass 2^(2 sigma + 2) overflows at
    # 2 sigma + 2 >= 1024, that is m + k >= 1023
    "space m + k 1024": (["space", "info", "--m", "1022", "--k", "2"],
                         "sigma=511.5, tau=0.5 leaves the float range"),
    "space sigma 511": (["space", "info", "--sigma", "511", "--tau", "0"],
                        "sigma=511, tau=0 leaves the float range"),
    "sweep space m + k 1024": ({"space": {"m": 1022, "k": 2}},
                               "sigma=511.5, tau=0.5 leaves the float range"),
    "f indicator a number": (f_params(5), "indicator"),
    "f indicator a string": (f_params("12"), "indicator"),
    "random family count a string": (family_params({"kind": "random", "count": "x"}),
                                     "'count'"),
    "count on a dyadic family": (family_params({"kind": "dyadic", "count": 3}),
                                 "'count'"),
    "space m not integral": ({"space": {"m": 2.7, "k": 1}}, "'m'"),
    "grid n_max not integral": ({"grid": {"n_max": 24.9}}, "'n_max'"),
    "axis value true": ({"axes": {"s": [True]}}, "'s'"),
    "axis value a string": ({"axes": {"s": ["2"]}}, "'s'"),
    "config seed negative": ({"seed": -1}, "seed"),
    "config seed not integral": ({"seed": 1.5}, "seed"),
    "option seed negative": (["--seed", "-1", "reproduce", "kolmogorov"], "--seed"),
    # an option the condition does not take is refused, never dropped from a
    # run that reads as if it had not been given
    "msw given p and eta": (
        check_msw_spec('{"variant": "constant"}', "--p", "7", "--eta", "0.5"),
        "msw takes no option --p, --eta"),
    "classical-ap given n_max and s": (
        ["weight", "check", "--spec", '{"variant": "constant"}',
         "--condition", "classical-ap", "--n-max", "3", "--s", "9"],
        "classical-ap takes no option --s, --n-max"),
    "ap-loc given n_max": (
        ["weight", "check", "--spec", '{"variant": "constant"}',
         "--condition", "ap-loc", "--n-max", "5"], "ap-loc takes no option --n-max"),
    # the trusted window (1, j_max - n_max - 1) holds no annulus
    "weight check grid too small": (
        ["weight", "check", "--spec", '{"variant": "constant"}',
         "--condition", "necessary", "--j-max", "20"],
        "grid too small: j_max=20 with n_max=25"),
    # no scale at all: easy-check crashed on max() of no sups, and the
    # pair-measure checks wrote a constant of -inf
    "easy-check n_max 0": (
        ["weight", "check", "--spec", '{"variant": "constant"}',
         "--condition", "easy-check", "--n-max", "0"], "n_max must be >= 1, got 0"),
    "sweep axis n_max -1": (
        {"checker": {"id": "necessary", "params": {}}, "axes": {"n_max": [25, -1]}},
        "n_max must be >= 1, got -1"),
    "sweep axis n_max past the grid": (
        {"axes": {"n_max": [25, 79]}}, "grid too small: j_max=80 with n_max=79"),
    # the normalized kernel of scale n needs 2n + 3 <= j_max, so 38 is the top
    "msw n_max past the kernel scales": (
        check_msw_spec('{"variant": "constant"}', "--j-max", "80", "--n-max", "50"),
        "n_max=50 outside 1..38"),
    # strong-type fits annuli 20..60, so it must measure annuli 1..21 at least;
    # these crashed with exit 70 (IndexError, or ValueError from the fit)
    "strong-type j_cut 0": (strong_params({"j_cut": 0}), "j_cut=0, window (1, 54)"),
    "strong-type j_cut 20": (strong_params({"j_cut": 20}), "j_cut=20, window (1, 54)"),
    "strong-type window short of the fit range": (
        {**strong_params({}), "grid": {"j_max": 30, "n_max": 10}}, "j_cut=60, window (1, 19)"),
}


@pytest.mark.parametrize("case", list(REFUSED_INPUTS))
def test_cli_malformed_input_exits_two(tmp_path, monkeypatch, capsys, case):
    outdir = tmp_path / "out"
    monkeypatch.setenv("NALAB_OUTDIR", str(outdir))
    argv, field = REFUSED_INPUTS[case]
    if isinstance(argv, dict):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(sweep_config(**argv)))
        argv = ["sweep", "--config", str(cfg_path)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith(("error: ", "usage: "))
    assert field in err.splitlines()[-1]
    assert not outdir.exists() or not any(outdir.iterdir())


def test_family_count_belongs_to_random_only():
    for kind in ("standard", "singletons", "dyadic"):
        family = {"kind": kind, "count": 3}
        with pytest.raises(ConfigError, match="count"):
            ExperimentConfig.from_json(sweep_config(**family_params(family)))
    family = {"kind": "random", "count": 3}
    cfg = ExperimentConfig.from_json(sweep_config(**family_params(family)))
    assert cfg.params["family"] == family


def test_cli_crash_exits_seventy(monkeypatch, capsys):
    def broken(args):
        raise RuntimeError("simulated internal fault")

    monkeypatch.setattr(cli, "_cmd_space_info", broken)
    assert main(["space", "info"]) == cli.EXIT_CRASH == 70
    err = capsys.readouterr().err
    assert err.startswith("Traceback (most recent call last):")
    assert "RuntimeError: simulated internal fault" in err


def test_cli_reproduce(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("NALAB_OUTDIR", str(tmp_path))
    assert main(["reproduce", "ex-beta-eq-alpha"]) == 0
    out = capsys.readouterr().out
    assert "easy-check" in out and "verdict=pass" in out
    assert main(["reproduce", "ex-bogus"]) == 2


def test_cli_sweep(tmp_path, monkeypatch):
    monkeypatch.setenv("NALAB_OUTDIR", str(tmp_path))
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(sweep_config()))
    assert main(["sweep", "--config", str(cfg_path)]) == 0
    assert (tmp_path / "sweep.csv").exists() and (tmp_path / "sweep.json").exists()
    assert main(["sweep", "--config", str(tmp_path / "missing.json")]) == 2


def test_console_script_wiring():
    # the child must import the nalab this process imported, installed or not
    src = os.path.dirname(os.path.dirname(nalab.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    out = subprocess.run(
        [sys.executable, "-m", "nalab.cli", "space", "info"],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path},
    )
    assert out.returncode == 0
    assert "growth rate" in out.stdout


@pytest.mark.parametrize("warnings_setting", ["", "error::RuntimeWarning"])
def test_sweep_on_an_overflowing_kernel_exits_two(tmp_path, warnings_setting):
    # on (3.5, 1) at j_max 120 the raw kernels of scales 19..25 hold inf
    # pair masses: the normalized kernels are refused by scale and grid, not
    # blamed on the constant weight, and no RuntimeWarning escapes
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({
        "space": {"sigma": 3.5, "tau": 1.0},
        "grid": {"j_max": 120, "n_max": 25},
        "checker": {"id": "msw"},
        "weight": {"variant": "constant"},
        "axes": {},
    }))
    src = os.path.dirname(os.path.dirname(nalab.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path, "PYTHONWARNINGS": warnings_setting,
           "NALAB_OUTDIR": str(tmp_path / "out")}
    out = subprocess.run(
        [sys.executable, "-m", "nalab.cli", "sweep", "--config", str(cfg_path)],
        capture_output=True, text=True, env=env,
    )
    assert out.returncode == 2, out.stderr
    assert out.stderr.splitlines()[-1].startswith(
        "error: the normalized kernel of scale n=19 on AnnularGrid(sigma=3.5, tau=1.0, "
        "j_max=120) is not finite"
    )


def test_default_seed_constant():
    assert CANONICAL_SEED == 1234
