"""The benchmark's workloads: fixed inputs, per-pass case lists and output gates.

Each workload is built from a seed and an output directory.  ``setup``
builds the fixed inputs (the part of start-up that ``setup_s`` charges
beyond ``import nalab``); ``cases(i)`` draws pass i's case list from
``(seed, i)``, so every pass sees fresh inputs and a cache that only
helps repeated inputs cannot flatter later passes; ``check`` returns the
problems with one case's output, and is called outside the timed region.
"""

from __future__ import annotations

import json
import math
import os
from collections import namedtuple
from functools import partial

import numpy as np

from nalab import checkers, experiments, treelab

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCES = os.path.join(HERE, "references.json")

FROZEN_REL = 2e-4  # the test suite's tolerance for frozen constants

# kind: reference key or case family; run: the timed call; data: input kept
# for the naive-oracle audit; audit: whether this case is audited
Case = namedtuple("Case", "kind run data audit", defaults=(None, False))

RADIAL_IDS = (
    "ex-trivial",
    "ex-blesa",
    "ex-beta-eq-alpha",
    "ex-spherical",
    "ex-notstrong",
    "ex-apnot",
    "ex-growthnec",
    "thm-fs-failure",
    "mf-lower",
)


def _exp(gamma):
    return {"variant": "exp_radial", "gamma": gamma}


def _sweep_configs() -> dict:
    """One sweep config per case, keyed by the case's reference name."""
    cfgs = {
        "necessary-exp-1": {
            "checker": {"id": "necessary"},
            "weight": _exp(-1.0),
            "axes": {"p": [2.0]},
        },
        "large-scale-exp+1": {
            "checker": {"id": "large-scale", "params": {"alpha": 0.5, "beta": 0.5}},
            "weight": _exp(1.0),
            "axes": {"p": [2.0]},
        },
        # the scalar Weight.profile -> jacobi_phi path; at the default step
        # and refinements this cell takes about 40 minutes
        "ap-loc-spherical": {
            "grid": {"j_max": 20, "n_max": 5},
            "checker": {"id": "ap-loc", "params": {"step": 2, "refinements": 0}},
            "weight": {"variant": "spherical_u", "p": 2.0},
            "axes": {"p": [2.0]},
        },
    }
    for g in (-0.3, -0.5, -1.0):
        cfgs[f"msw-exp{g}"] = {
            "checker": {"id": "msw"},
            "weight": _exp(g),
            "axes": {"s": [1.5, 2.0, 3.0]},
        }
    for g in (-0.3, -1.0):
        for j in (1, 5):
            cfgs[f"weak-type-exp{g}-f{j}"] = {
                "checker": {"id": "weak-type", "params": {"f": {"indicator": [j]}}},
                "weight": _exp(g),
                "axes": {"p": [1.5, 2.0]},
            }
    for g in (-0.5, -1.0):
        for j in (5, 10):
            cfgs[f"fs-ratio-exp{g}-f{j}"] = {
                "checker": {"id": "fs-ratio", "params": {"f": {"indicator": [j]}}},
                "weight": _exp(g),
                "axes": {"s": [1.1, 1.25, 1.5, 2.0]},
            }
    for name, spec in (
        ("exp-strong2", {"variant": "exp_strong", "p": 2.0}),
        ("exp-0.3", _exp(-0.3)),
        ("exp-0.5", _exp(-0.5)),
    ):
        cfgs[f"easy-check-{name}"] = {
            "checker": {"id": "easy-check"},
            "weight": spec,
            "axes": {"eta": [-1.0, 0.0]},
        }
    for name, spec in (
        ("constant", {"variant": "constant"}),
        ("exp-0.3", _exp(-0.3)),
        ("exp-0.5", _exp(-0.5)),
    ):
        cfgs[f"ap-loc-{name}"] = {
            "checker": {"id": "ap-loc"},
            "weight": spec,
            "axes": {"p": [2.0]},
        }
    for key, cfg in cfgs.items():
        cfg["output"] = {"csv": f"{key}.csv", "json": f"{key}.json"}
    return cfgs


SWEEP_CONFIGS = _sweep_configs()


def stable_envelope(env: dict) -> str:
    """Envelope text with the creation stamp removed; equal runs give equal text."""
    return json.dumps({k: v for k, v in env.items() if k != "created"}, sort_keys=True)


def reference_record(code: int, reports) -> dict:
    return {
        "code": code,
        "reports": [
            {"id": r["id"], "verdict": r["verdict"], "constant": r["constant"]}
            for r in reports
        ],
    }


def reference_problems(code: int, reports, ref: dict) -> list:
    """Differences between an outcome and its reference record."""
    problems = []
    if code != ref["code"]:
        problems.append(f"exit code {code}, reference {ref['code']}")
    got = [(r["id"], r["verdict"]) for r in reports]
    want = [(r["id"], r["verdict"]) for r in ref["reports"]]
    if got != want:
        problems.append(f"reports {got}, reference {want}")
        return problems
    for r, w in zip(reports, ref["reports"]):
        if not math.isclose(r["constant"], w["constant"], rel_tol=FROZEN_REL):
            problems.append(
                f"{r['id']} constant {r['constant']!r}, reference {w['constant']!r}"
            )
    return problems


def load_references(section: str) -> dict:
    with open(REFERENCES) as fh:
        return json.load(fh)[section]


class _EnvelopeWorkload:
    """Cases that return (exit code, paths, envelope) from the experiments layer."""

    section = ""

    def __init__(self, seed: int, outdir: str, references=None):
        self.seed = seed
        self.outdir = outdir
        if references is None:
            references = load_references(self.section)
        self.references = references
        self.first_envelope: dict = {}

    def setup(self):
        pass

    def _keys(self) -> tuple:
        raise NotImplementedError

    def _call(self, key: str):
        raise NotImplementedError

    def cases(self, index: int) -> list:
        keys = self._keys()
        order = np.random.default_rng([self.seed, index]).permutation(len(keys))
        return [Case(keys[i], partial(self._call, keys[i])) for i in order]

    @staticmethod
    def reports(env: dict) -> list:
        return env["reports"]

    def check(self, case: Case, out) -> list:
        code, _, env = out
        problems = reference_problems(code, self.reports(env), self.references[case.kind])
        text = stable_envelope(env)
        if self.first_envelope.setdefault(case.kind, text) != text:
            problems.append("envelope differs from the first pass")
        return problems

    def layer_counts(self, case: Case, out) -> dict:
        _, paths, env = out
        paths = paths if isinstance(paths, tuple) else (paths,)
        return {
            "experiments.bytes_written": sum(os.path.getsize(p) for p in paths),
            "checkers.skipped_pairs": sum(
                r["meta"].get("skipped_pairs", 0) for r in self.reports(env)
            ),
        }


class RadialWorkload(_EnvelopeWorkload):
    """The nine radial reproduce ids; the seed only permutes their order."""

    section = "radial"

    def _keys(self):
        return RADIAL_IDS

    def _call(self, key):
        return experiments.run_reproduce(key, outdir=self.outdir)


class SweepWorkload(_EnvelopeWorkload):
    """One run_sweep call per config; the seed only permutes their order."""

    section = "sweep"

    def setup(self):
        self.configs = {
            key: experiments.ExperimentConfig.from_json(cfg)
            for key, cfg in SWEEP_CONFIGS.items()
        }

    def _keys(self):
        return tuple(self.configs)

    def _call(self, key):
        return experiments.run_sweep(self.configs[key], outdir=self.outdir)

    @staticmethod
    def reports(env):
        return [cell["report"] for cell in env["cells"]]


TREE_DEPTH = 8
WEAK_DRAWS = {2: 24, 3: 12, 4: 2}  # weak-(1,1) draws per pass, by branching number
ATOMS = 10
KOLMOGOROV_CASES = 70
KOLMOGOROV_QS = (0.3, 0.5, 0.7)
VECTOR_BATCHES = 12
VECTOR_FUNCTIONS = 20
AUDITS_PER_PASS = 2  # k = 2 cases per pass checked against tree_maximal_naive
NAIVE_FLOAT_REL = 1e-12  # oracle tolerance on float data (observed: about 6e-16)


class TreeWorkload:
    """Weak-(1,1) draws, Kolmogorov cases and vector batches; the seed draws all inputs.

    Counts are set so that each case kind takes about a third of a pass.
    """

    def __init__(self, seed: int, outdir: str):
        self.seed = seed

    def setup(self):
        self.trees = {k: treelab.TreeSpace(k, TREE_DEPTH) for k in WEAK_DRAWS}
        for tree in self.trees.values():
            # the first maximal function on a tree builds its ball-count table
            treelab.tree_maximal(treelab.VertexFunction.zeros(tree))

    def cases(self, index: int) -> list:
        rng = np.random.default_rng([self.seed, index])
        dirac = treelab.VertexFunction.dirac
        out = []
        for k, draws in WEAK_DRAWS.items():
            tree = self.trees[k]
            for _ in range(draws):
                f = dirac(tree, rng.integers(0, tree.size, ATOMS))
                out.append(Case(f"weak11-k{k}", partial(treelab.weak11_constant, f), f))
        tree = self.trees[2]
        for _ in range(KOLMOGOROV_CASES):
            f = treelab.VertexFunction(tree, rng.uniform(0.0, 1.0, tree.size))
            center = int(rng.integers(0, tree.size))
            radius = int(rng.integers(0, 2 * tree.depth + 1))
            ball = treelab.tree_ball(tree, center, radius).vertices
            out.append(Case("kolmogorov", partial(_kolmogorov, f, ball), f))
        for _ in range(VECTOR_BATCHES):
            funcs = [
                dirac(tree, rng.integers(0, tree.size, ATOMS))
                for _ in range(VECTOR_FUNCTIONS)
            ]
            run = partial(checkers.vector_valued_ratio, 3.0, 2.0, funcs, backend="tree")
            out.append(Case("vector", run))
        k2 = [i for i, c in enumerate(out) if c.data is not None and c.data.tree.k == 2]
        for i in rng.choice(k2, AUDITS_PER_PASS, replace=False):
            out[i] = out[i]._replace(audit=True)
        return [out[i] for i in rng.permutation(len(out))]

    def check(self, case: Case, out) -> list:
        problems = []
        if case.kind == "kolmogorov":
            for rep in out:
                if not rep.holds:
                    problems.append(
                        f"Kolmogorov q={rep.q} fails: {rep.lhs!r} > {rep.rhs!r}"
                    )
                if not all(map(math.isfinite, (rep.lhs, rep.rhs, rep.weak_constant))):
                    problems.append(f"Kolmogorov q={rep.q} not finite")
        else:
            constant = out.constant if case.kind == "vector" else out
            if not math.isfinite(constant):
                problems.append(f"{case.kind} constant {constant!r} not finite")
        if case.audit:
            problems.extend(_naive_problems(case, out))
        return problems

    def layer_counts(self, case: Case, out) -> dict:
        return {}


def _kolmogorov(f, ball):
    return [treelab.tree_kolmogorov(q, f, ball) for q in KOLMOGOROV_QS]


def _naive_problems(case: Case, out) -> list:
    """tree_maximal must equal the naive oracle on the case's input.

    Argmax radii and boundary flags must be identical.  Values must be
    identical on integer data, where every ball sum is exact; on float data
    the two sum in different orders and may differ in the last bits.
    """
    fast = treelab.tree_maximal(case.data)
    naive = treelab.tree_maximal_naive(case.data)
    problems = [
        f"tree_maximal.{field} differs from tree_maximal_naive"
        for field in ("argmax_radius", "boundary")
        if not np.array_equal(getattr(fast, field), getattr(naive, field))
    ]
    vals = case.data.values
    if np.array_equal(vals, np.round(vals)):
        same = np.array_equal(fast.values, naive.values)
    else:
        same = np.allclose(fast.values, naive.values, rtol=NAIVE_FLOAT_REL, atol=0.0)
    if not same:
        problems.append("tree_maximal.values differs from tree_maximal_naive")
    weak = case.kind.startswith("weak11")
    if weak and treelab.weak11_constant(case.data, naive) != out:
        problems.append("weak11_constant differs on the naive maximal function")
    return problems


WORKLOADS = {"radial": RadialWorkload, "tree": TreeWorkload, "sweep": SweepWorkload}
