"""End-to-end tests for the canonical pipelines, the sweep runner, and the
command-line front end.  Pipelines that reproduce negative results exit 1 by
design; usage and config problems exit 2."""
import csv
import json
import subprocess
import sys

import pytest

from nalab import cli
from nalab.cli import main
from nalab.errors import ConfigError
from nalab.experiments import (
    CANONICAL_SEED,
    ExperimentConfig,
    REPRODUCE_IDS,
    run_reproduce,
    run_sweep,
)

ENVELOPE_KEYS = {"id", "created", "seed", "space", "verdict", "reports"}


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


def test_run_reproduce_unknown_id():
    with pytest.raises(ConfigError):
        run_reproduce("ex-bogus")


def test_outdir_env_var(tmp_path, monkeypatch):
    monkeypatch.setenv("NALAB_OUTDIR", str(tmp_path))
    code, path, _ = run_reproduce("ex-beta-eq-alpha")
    assert code == 0
    assert (tmp_path / "ex-beta-eq-alpha.json").exists()


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


@pytest.mark.parametrize(
    "spec",
    [
        '{"variant": "jacobi_v", "gamma": -0.5}',  # spectral point on a pole
        '{"variant": "exp_radial", "gamma": 5}',  # overflows the float range
        '{"variant": "exp_radial", "gamma": "x"}',  # malformed numbers
        '{"variant": "exp_strong", "p": "2"}',
        '{"variant": "spherical_u", "p": true}',
    ],
)
def test_cli_weight_check_crash_exits_two(tmp_path, monkeypatch, capsys, spec):
    monkeypatch.setenv("NALAB_OUTDIR", str(tmp_path))
    assert main(["weight", "check", "--spec", spec, "--condition", "msw"]) == 2
    assert capsys.readouterr().err.startswith("error: ")


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
    out = subprocess.run(
        [sys.executable, "-m", "nalab.cli", "space", "info"],
        capture_output=True, text=True,
    )
    assert out.returncode == 0
    assert "growth rate" in out.stdout


def test_default_seed_constant():
    assert CANONICAL_SEED == 1234
