"""Report files on disk: JSON envelopes and sweep CSVs are rewritten in
place and cut at the new end, new files get open()'s mode, device paths
are written and left alone, and envelope values encode from numpy types."""
import json
import os
import stat

import numpy as np
import pytest

from nalab.checkers import _jsonable
from nalab.cli import main
from nalab.errors import ConfigError
from nalab.experiments import (
    ExperimentConfig,
    run_reproduce,
    run_sweep,
    write_json_report,
)

JUNK = b"x" * 100_000 + b"\n"  # longer than any report below


def sweep_config(**overrides):
    cfg = {
        "checker": {"id": "msw", "params": {"s": 2.0}},
        "weight": {"variant": "exp_radial", "gamma": -0.3},
        "axes": {"s": [1.5, 2.0, 3.0]},
    }
    cfg.update(overrides)
    return cfg


def envelope_text(env) -> bytes:
    return (json.dumps(env, indent=2) + "\n").encode()


def test_json_report_over_a_longer_file_holds_exactly_the_new_bytes(tmp_path):
    path = tmp_path / "r.json"
    path.write_bytes(JUNK)
    env = {"id": "r", "values": [0.1, 2.5, None], "verdict": "pass"}
    write_json_report(env, str(path))
    assert path.read_bytes() == envelope_text(env)
    assert os.path.getsize(path) == len(envelope_text(env))


def test_reproduce_over_a_longer_file_holds_exactly_the_new_bytes(tmp_path):
    (tmp_path / "ex-trivial.json").write_bytes(JUNK)
    code, path, env = run_reproduce("ex-trivial", outdir=str(tmp_path))
    assert code == 0
    with open(path, "rb") as fh:
        assert fh.read() == envelope_text(env)


def test_sweep_csv_over_a_longer_file_holds_exactly_the_new_bytes(tmp_path):
    cfg = ExperimentConfig.from_json(sweep_config())
    fresh, old = tmp_path / "fresh", tmp_path / "old"
    old.mkdir()
    (old / "sweep.csv").write_bytes(JUNK)
    (old / "sweep.json").write_bytes(JUNK)
    _, (fresh_csv, _), _ = run_sweep(cfg, outdir=str(fresh))
    _, (csv_path, json_path), env = run_sweep(cfg, outdir=str(old))
    with open(fresh_csv, "rb") as fh:
        text = fh.read()
    assert text.count(b"\r\n") == 4  # csv's line ends, header and 3 cells
    with open(csv_path, "rb") as fh:
        assert fh.read() == text
    assert os.path.getsize(csv_path) == len(text)
    with open(json_path, "rb") as fh:
        assert fh.read() == envelope_text(env)


def test_report_written_over_a_shorter_file_grows(tmp_path):
    path = tmp_path / "r.json"
    path.write_bytes(b"{}")
    env = {"id": "r", "reports": list(range(50))}
    write_json_report(env, str(path))
    assert path.read_bytes() == envelope_text(env)


def test_new_report_files_get_the_mode_open_gives(tmp_path):
    old = os.umask(0o002)
    try:
        write_json_report({"id": "r"}, str(tmp_path / "r.json"))
        run_sweep(ExperimentConfig.from_json(sweep_config()), outdir=str(tmp_path))
        with open(tmp_path / "plain", "w"):
            pass
    finally:
        os.umask(old)
    for name in ("r.json", "sweep.csv", "sweep.json", "plain"):
        assert stat.S_IMODE(os.stat(tmp_path / name).st_mode) == 0o666 & ~0o002


def test_report_through_a_symlink_to_devnull(tmp_path):
    link = tmp_path / "r.json"
    link.symlink_to(os.devnull)
    write_json_report({"id": "r"}, str(link))
    assert stat.S_ISCHR(os.stat(os.devnull).st_mode)
    assert os.path.islink(link)


def test_cli_weight_check_through_a_symlink_to_devnull(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("NALAB_OUTDIR", str(tmp_path))
    (tmp_path / "weight-msw.json").symlink_to(os.devnull)
    code = main(["weight", "check", "--spec", '{"variant": "constant"}',
                 "--condition", "msw"])
    assert code == 0
    assert stat.S_ISCHR(os.stat(os.devnull).st_mode)


def test_envelope_that_fails_to_encode_leaves_the_old_file(tmp_path):
    path = tmp_path / "r.json"
    path.write_bytes(JUNK)
    with pytest.raises(TypeError):
        write_json_report({"id": "r", "bad": object()}, str(path))
    assert path.read_bytes() == JUNK


@pytest.mark.parametrize(
    "output",
    [
        {"csv": None},
        {"json": 7},
        {"csv": ""},
        {"json": ""},
        {"csv": "same", "json": "same"},
        {"csv": "out/r", "json": "out/./r"},
    ],
)
def test_sweep_output_names_are_two_different_nonempty_strings(output):
    with pytest.raises(ConfigError):
        ExperimentConfig.from_json(sweep_config(output=output))


def test_sweep_output_names_are_kept():
    cfg = ExperimentConfig.from_json(sweep_config(output={"csv": "a.csv"}))
    assert (cfg.csv_name, cfg.json_name) == ("a.csv", "sweep.json")


def test_jsonable_takes_numpy_scalars_and_arrays_of_every_kind():
    obj = {
        "bool": np.bool_(True),
        "f32": np.float32(0.5),
        "i64": np.int64(-3),
        "grid": np.array([[0.1, 1 / 3], [1e-300, -2.5]]),
        "mask": np.array([True, False]),
        "nested": [(np.int32(1), np.float64(0.25))],
    }
    assert json.loads(json.dumps(_jsonable(obj))) == {
        "bool": True,
        "f32": 0.5,
        "i64": -3,
        "grid": [[0.1, 1 / 3], [1e-300, -2.5]],
        "mask": [True, False],
        "nested": [[1, 0.25]],
    }


def test_jsonable_float64_text_is_unchanged():
    obj = {"w": np.array([[0.1, 1 / 3], [1e-300, -2.5]]), "x": np.float64(0.1) * 3}
    assert json.dumps(_jsonable(obj)) == (
        '{"w": [[0.1, 0.3333333333333333], [1e-300, -2.5]], "x": 0.30000000000000004}'
    )
