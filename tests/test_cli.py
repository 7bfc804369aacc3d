import json

import pytest

from ietkhinchin.cli import build_parser, main, parse_args


@pytest.fixture
def config(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"samples": 3, "n-max": 50, "check": True}))
    return str(path)


def test_config_beats_defaults(config):
    args = parse_args(build_parser(), ["dichotomy", "--config", config])
    assert (args.samples, args.n_max, args.check) == (3, 50, True)
    assert args.seed == 20240601


@pytest.mark.parametrize("order", ["flag first", "config first"])
def test_flags_beat_config(config, order):
    flags = ["--samples", "7"]
    config_flags = ["--config", config]
    argv = ["dichotomy"] + (flags + config_flags if order == "flag first" else config_flags + flags)
    args = parse_args(build_parser(), argv)
    assert (args.samples, args.n_max) == (7, 50)


def test_unknown_config_key_rejected(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"sample": 3}))
    with pytest.raises(SystemExit):
        parse_args(build_parser(), ["dichotomy", "--config", str(path)])


def test_zorich_estimate_prints_valid_json(capsys):
    # no sample meets the reference path in 10 steps, so there is no estimate
    assert main(["zorich-estimate", "--perm", "ABCD/DCBA", "--beta", "A", "--alpha", "D",
                 "--samples", "3", "--steps", "10"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["samples"] == 0 and data["theta_sup"] is None and data["theta_median"] is None
    json.dumps(data, allow_nan=False)


def test_bench_runs_on_phi_spec(capsys):
    assert main(["bench", "--samples", "4", "--n-max", "500"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["pure"]["checksum"] > 0
    if "compiled" in data:
        assert data["agreement"]


def test_config_supplies_required_flag(tmp_path, capsys):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"perm": "ABC/CBA"}))
    assert main(["class", "--config", str(path)]) == 0
    assert json.loads(capsys.readouterr().out)["size"] == 3
    args = parse_args(build_parser(), ["class", "--perm", "ABCD/DCBA", "--config", str(path)])
    assert args.perm == "ABCD/DCBA"


def test_required_flag_missing_from_flags_and_config(tmp_path, capsys):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"beta": "B"}))
    with pytest.raises(SystemExit):
        parse_args(build_parser(), ["detect", "--alpha", "A", "--config", str(path)])
    assert "the following arguments are required: --n" in capsys.readouterr().err
