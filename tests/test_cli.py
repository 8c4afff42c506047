"""CLI behavior: protocols end to end, exit codes, determinism, formats."""

import json
from pathlib import Path

import numpy as np
import pytest

from clickcraft.cli import main

CONFIGS = Path(__file__).resolve().parents[1] / "configs"


def write_config(tmp_path, payload, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def test_missing_config_is_parse_error(tmp_path, capsys):
    assert main(["subtract", "--config", str(tmp_path / "nope.json")]) == 1
    assert "config error" in capsys.readouterr().err


def test_malformed_json_is_parse_error(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["subtract", "--config", str(bad)]) == 1


def test_wrong_schema_is_parse_error(tmp_path):
    cfg = write_config(tmp_path, {"schema": 2, "protocol": "subtract"})
    assert main(["subtract", "--config", cfg]) == 1


def test_protocol_mismatch_is_parse_error(tmp_path):
    cfg = write_config(tmp_path, {"schema": 1, "protocol": "add"})
    assert main(["subtract", "--config", cfg]) == 1


def test_validation_error_exit_code(tmp_path, capsys):
    cfg = write_config(
        tmp_path,
        {
            "schema": 1,
            "protocol": "amplify",
            "input": {"kind": "coherent", "alpha": 0.5},
            "addition": {"detector": {"N": 4, "eta": 1.0}, "optics": {"mu": 1.5}},
            "subtraction": {"detector": {"N": 4, "eta": 0.5}, "optics": {"t": 0.6}},
        },
    )
    assert main(["amplify", "--config", cfg, "--out", str(tmp_path)]) == 2
    assert "invalid parameters" in capsys.readouterr().err


def test_numerical_failure_exit_code(tmp_path, capsys):
    cfg = write_config(
        tmp_path,
        {
            "schema": 1,
            "protocol": "clickstats",
            "input": {"kind": "coherent", "alpha": 4.0, "cutoff": 8},
            "detector": {"N": 4, "eta": 0.5},
        },
    )
    assert main(["clickstats", "--config", cfg, "--out", str(tmp_path)]) == 3
    assert "numerical failure" in capsys.readouterr().err


def test_cancellation_is_numerical_failure(tmp_path, capsys):
    # the table1 amplifier at N1 = N2 = 16: the alternating click-factor
    # expansion drives a probability below -1e-9, which is a numerical
    # failure of valid inputs, not an invalid parameter
    payload = json.loads((CONFIGS / "table1.json").read_text())
    payload["addition"]["detector"]["N"] = 16
    payload["subtraction"]["detector"]["N"] = 16
    cfg = write_config(tmp_path, payload)
    assert main(["amplify", "--config", cfg, "--out", str(tmp_path)]) == 3
    err = capsys.readouterr().err
    assert "numerical failure" in err and "probability" in err


def test_clickstats_vacuum(tmp_path):
    cfg = write_config(
        tmp_path,
        {
            "schema": 1,
            "protocol": "clickstats",
            "input": {"kind": "vacuum", "cutoff": 8},
            "detector": {"N": 4, "eta": 0.5},
        },
    )
    assert main(["clickstats", "--config", cfg, "--out", str(tmp_path)]) == 0
    lines = (tmp_path / "click_distribution.csv").read_text().splitlines()
    assert lines[0] == "k,probability"
    assert lines[1] == "0,1"
    assert [line.split(",")[1] for line in lines[2:]] == ["0", "0", "0", "0"]


def test_clickstats_accepts_explicit_distribution(tmp_path):
    cfg = write_config(
        tmp_path,
        {
            "schema": 1,
            "protocol": "clickstats",
            "input": {"kind": "photon_distribution", "probs": [0.0, 1.0]},
            "detector": {"N": 8, "eta": 0.4},
            "format": "json",
        },
    )
    assert main(["clickstats", "--config", cfg, "--out", str(tmp_path)]) == 0
    payload = json.loads((tmp_path / "click_distribution.json").read_text())
    assert payload["probability"][0] == pytest.approx(0.6)
    assert payload["probability"][1] == pytest.approx(0.4)


def test_errorbound_flags_only(tmp_path):
    out = tmp_path / "eb"
    rc = main(
        ["errorbound", "--eta", "0.5", "--k", "1", "--N", "2,4,8", "--out", str(out)]
    )
    assert rc == 0
    lines = (out / "errorbound.csv").read_text().splitlines()
    assert lines[0] == "N,distance,grid_sup,tail_bound"
    distances = [float(line.split(",")[1]) for line in lines[1:]]
    assert distances[0] > distances[1] > distances[2]


def test_herald_config_runs(tmp_path):
    rc = main(
        ["herald", "--config", str(CONFIGS / "fig2.json"), "--out", str(tmp_path)]
    )
    assert rc == 0
    for k in (0, 1, 4, 16):
        assert (tmp_path / f"herald_k{k}.csv").exists()
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert summary["clicks"] == [0, 1, 4, 16]


def test_subtract_with_grid_and_manifest(tmp_path):
    cfg = write_config(
        tmp_path,
        {
            "schema": 1,
            "protocol": "subtract",
            "input": {"kind": "thermal", "nbar": 0.5},
            "detector": {"N": 16, "eta": 0.8},
            "optics": {"t": 0.7},
            "clicks": [0, 2],
            "grid": {
                "re_min": -1.0,
                "re_max": 1.0,
                "im_min": -1.0,
                "im_max": 1.0,
                "n_re": 5,
                "n_im": 4,
            },
        },
    )
    rc = main(["subtract", "--config", cfg, "--out", str(tmp_path), "--manifest"])
    assert rc == 0
    grid_lines = (tmp_path / "pfunction_k0.csv").read_text().splitlines()
    assert grid_lines[0] == "re,im,value"
    assert len(grid_lines) == 1 + 5 * 4
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert manifest["protocol"] == "subtract"
    assert manifest["resolved"]["eta_eff"] == pytest.approx(0.8 * 0.51 / 0.49)
    assert "pfunction_k0.csv" in manifest["outputs"]
    terms = json.loads((tmp_path / "terms_k2.json").read_text())
    assert terms["probability"] > 0
    assert len(terms["gaussians"]) == 3


def test_grid_flag_overrides_config(tmp_path):
    cfg = write_config(
        tmp_path,
        {
            "schema": 1,
            "protocol": "add",
            "input": {"kind": "thermal", "nbar": 0.5},
            "detector": {"N": 16, "eta": 0.8},
            "optics": {"mu": 1.4},
            "clicks": 1,
        },
    )
    rc = main(
        ["add", "--config", cfg, "--out", str(tmp_path), "--grid=-1,1,-1,1,3,3"]
    )
    assert rc == 0
    lines = (tmp_path / "pfunction_k1.csv").read_text().splitlines()
    assert len(lines) == 1 + 9


def test_amplify_json_format(tmp_path):
    rc = main(
        [
            "amplify",
            "--config",
            str(CONFIGS / "table1.json"),
            "--out",
            str(tmp_path),
            "--format",
            "json",
        ]
    )
    assert rc == 0
    payload = json.loads((tmp_path / "probability_table.json").read_text())
    table = np.array(payload["probabilities"])
    assert table.shape == (5, 5)
    assert table.sum() == pytest.approx(1.0, abs=1e-9)
    assert payload["percent"][0][0] == f"{100 * table[0, 0]:.2f}"


def test_repeat_runs_are_byte_identical(tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    for out in (out1, out2):
        assert (
            main(
                [
                    "amplify",
                    "--config",
                    str(CONFIGS / "table1.json"),
                    "--out",
                    str(out),
                    "--manifest",
                ]
            )
            == 0
        )
    for name in ("probability_table.csv", "manifest.json"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


@pytest.mark.parametrize(
    "name,protocol",
    [
        ("fig2.json", "herald"),
        ("fig3.json", "subtract"),
        ("fig5.json", "add"),
        ("fig6.json", "amplify"),
        ("table1.json", "amplify"),
    ],
)
def test_shipped_configs_run(tmp_path, name, protocol):
    rc = main([protocol, "--config", str(CONFIGS / name), "--out", str(tmp_path)])
    assert rc == 0
    assert any(tmp_path.iterdir())


def test_csv_files_use_lf_endings(tmp_path):
    cfg = write_config(
        tmp_path,
        {
            "schema": 1,
            "protocol": "clickstats",
            "input": {"kind": "thermal", "nbar": 0.3, "cutoff": 48},
            "detector": {"N": 2, "eta": 0.5},
        },
    )
    assert main(["clickstats", "--config", cfg, "--out", str(tmp_path)]) == 0
    raw = (tmp_path / "click_distribution.csv").read_bytes()
    assert b"\r" not in raw
    assert raw.endswith(b"\n")
