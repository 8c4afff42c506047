"""CLI behavior: protocols end to end, exit codes, determinism, formats."""

import argparse
import errno
import json
import math
import os
import re
import stat
import threading
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from clickcraft import (
    BeamSplitterConfig,
    DetectorConfig,
    PhaseSpaceMixture,
    SubtractionSpec,
    amplify,
    subtract,
)
from clickcraft.cli import _PROTOCOLS, _distribution_file, _grid_file, _write, build_parser, main
from clickcraft.pfunc import GridSpec

CONFIGS = Path(__file__).resolve().parents[1] / "configs"


def write_config(tmp_path, payload, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def test_missing_config_is_parse_error(tmp_path, capsys):
    # a directory used to escape as an IsADirectoryError
    for path in (tmp_path / "nope.json", tmp_path):
        assert main(["subtract", "--config", str(path)]) == 1
        assert "config error" in capsys.readouterr().err


def test_malformed_json_is_parse_error(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["subtract", "--config", str(bad)]) == 1


def test_undecodable_config_is_parse_error(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_bytes(b"\xff\xfe{")
    assert main(["subtract", "--config", str(bad)]) == 1
    assert "config error" in capsys.readouterr().err


def test_deeply_nested_json_is_parse_error(tmp_path, capsys):
    # the decoder's RecursionError used to escape as a traceback, from a
    # config file and from an integer flag
    bad = tmp_path / "bad.json"
    bad.write_text("[" * 100_000)
    assert main(["subtract", "--config", str(bad)]) == 1
    for flag in ("--k", "--eta"):
        argv = ["errorbound", "--eta", "0.5", "--k", "1", "--N", "2", flag, "[" * 100_000]
        assert main(argv + ["--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err.count("config error") == 3


def test_wrong_schema_is_parse_error(tmp_path):
    cfg = write_config(tmp_path, {"schema": 2, "protocol": "subtract"})
    assert main(["subtract", "--config", cfg]) == 1


@pytest.mark.parametrize("schema", [True, 1.0, "1"])
def test_schema_that_only_compares_equal_to_one_is_parse_error(tmp_path, capsys, schema):
    # true and 1.0 used to pass the check, since both compare equal to 1
    cfg = write_config(tmp_path, {**FOCK_CLICKSTATS_CONFIG, "schema": schema})
    out = tmp_path / "out"
    assert main(["clickstats", "--config", cfg, "--out", str(out)]) == 1
    assert "unsupported config schema" in capsys.readouterr().err
    assert not out.exists()


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


ERRORBOUND = ["errorbound", "--eta", "0.5", "--k", "1", "--N", "2,4"]


@pytest.mark.parametrize(
    "argv,blocked",
    [(["subtract", "--config", str(CONFIGS / "fig3.json")], "summary.json"),
     (ERRORBOUND, "errorbound.csv"),
     ([*ERRORBOUND, "--format", "json"], "errorbound.json"),
     ([*ERRORBOUND, "--manifest"], "manifest.json")],
    ids=["summary", "csv", "json", "manifest"],
)
def test_unwritable_output_file_is_validation_error(tmp_path, capsys, argv, blocked):
    # a directory where an output file goes escaped as an IsADirectoryError
    (tmp_path / blocked).mkdir()
    assert main([*argv, "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert f"invalid parameters: cannot write {tmp_path / blocked}: " in err
    assert "Traceback" not in err
    # the files written before the blocked one are removed, and it is kept
    assert [p.name for p in tmp_path.iterdir()] == [blocked]


def test_write_that_fails_partway_leaves_no_file(tmp_path):
    def pieces():
        yield "re,im,value\n"
        raise OSError(errno.ENOSPC, "No space left on device")

    # a new file, and one written over an older, longer file, are removed
    for name, old in [("new.csv", None), ("old.csv", "0,0,0.5\n" * 4096)]:
        path = tmp_path / name
        if old is not None:
            path.write_text(old)
        with pytest.raises(ValueError, match=f"^cannot write {re.escape(str(path))}: No space left"):
            _write(path, pieces())
        assert not path.exists()


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


def test_clickstats_displaced_thermal_cutoff_error_names_the_input(tmp_path, capsys):
    # the message named "thermal nbar=5" at "cutoff 52", the oracle's work basis
    cfg = write_config(
        tmp_path,
        {
            "schema": 1,
            "protocol": "clickstats",
            "input": {"kind": "displaced_thermal", "alpha": 0.1, "nbar": 5, "cutoff": 10},
            "detector": {"N": 4, "eta": 0.5},
        },
    )
    assert main(["clickstats", "--config", cfg, "--out", str(tmp_path)]) == 3
    err = capsys.readouterr().err
    assert "displaced thermal (|alpha|=0.1, nbar=5.0) at cutoff 10 " in err
    assert "52-level work basis" in err


def test_herald_cutoff_below_tail_is_numerical_failure(tmp_path, capsys):
    cfg = write_config(tmp_path, {
        **HERALD_CONFIG,
        "input": {"kind": "phase_diffused_tmsv", "omega": 0.9},
        "clicks": [0, 1, 2, 3, 4],
        "cutoff": 10,
    })
    out = tmp_path / "out"
    assert main(["herald", "--config", cfg, "--out", str(out)]) == 3
    assert "numerical failure" in capsys.readouterr().err
    assert not list(out.glob("herald_k*"))


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


def test_click_factor_past_float_range_is_numerical_failure(tmp_path, capsys):
    # C(1100, 550) ~ 1e329 is no float; this used to end in an OverflowError traceback
    payload = {**ADD_CONFIG, "protocol": "subtract", "optics": {"t": 0.7},
               "detector": {"N": 1100, "eta": 0.5}, "clicks": [550]}
    out = tmp_path / "out"
    assert main(["subtract", "--config", write_config(tmp_path, payload), "--out", str(out)]) == 3
    assert "numerical failure" in capsys.readouterr().err
    assert not list(out.glob("terms_*"))


@pytest.mark.parametrize("protocol,optics", [("subtract", {"t": 0.7}), ("add", {"mu": 1.4})],
                         ids=["subtract", "add"])
def test_numerical_failure_writes_no_file(tmp_path, capsys, protocol, optics):
    # k = 0 passes and k = 550 fails; this used to leave terms_k0.json and
    # pfunction_k0.csv behind
    payload = {**ADD_CONFIG, "protocol": protocol, "optics": optics,
               "detector": {"N": 1100, "eta": 0.5}, "clicks": [0, 550], "grid": SMALL_GRID}
    out = tmp_path / "out"
    assert main([protocol, "--config", write_config(tmp_path, payload), "--out", str(out)]) == 3
    assert "numerical failure" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("k,message", [(237, "probability"), (238, "coefficient must be finite")])
def test_click_factor_overflow_is_numerical_failure(tmp_path, capsys, k, message):
    # finite, checked parameters whose products leave the float range: a
    # probability at k = 237 and a coefficient at k = 238, both exit 3
    payload = {"schema": 1, "protocol": "subtract", "input": {"kind": "thermal", "nbar": 0.02},
               "detector": {"N": 1000, "eta": 0.5}, "optics": {"t": 0.99}, "clicks": [k]}
    out = tmp_path / "out"
    assert main(["subtract", "--config", write_config(tmp_path, payload), "--out", str(out)]) == 3
    assert f"numerical failure: {message}" in capsys.readouterr().err
    assert not out.exists()


def _past_float_range(protocol, optics, inp=None):
    """A config of N = 4 and eta = 0.5 whose ``optics`` or ``inp`` (coherent
    alpha = 1 if not given) has a derived value past the float range."""
    det = {"N": 4, "eta": 0.5}
    inp = inp or {"kind": "coherent", "alpha": 1}
    if protocol == "amplify":
        stage = "addition" if "xi" in optics else "subtraction"
        payload = json.loads((CONFIGS / "table1.json").read_text())
        return {**payload, stage: {"detector": det, "optics": optics}}
    return {"schema": 1, "protocol": protocol, "input": inp, "detector": det, "optics": optics,
            "clicks": 1}


# finite, checked parameters whose derived values leave the float range: each
# used to end in a traceback, exit 2 on a zero or infinite inverse width (the
# noise width's a/(mu^2 + a (mu^2 - 1)) = 1e-607 underflowed to 0), or exit 0
# with every probability 0.0 (the noise centre's with NaN centres)
PAST_FLOAT_RANGE = {
    "add_xi_800": _past_float_range("add", {"xi": 800}),
    "add_xi_400": _past_float_range("add", {"xi": 400}),
    "add_mu_1e160": _past_float_range("add", {"mu": 1e160}),
    "subtract_t_1e-155": _past_float_range("subtract", {"t": 1e-155}),
    "subtract_t_1e-170": _past_float_range("subtract", {"t": 1e-170}),
    "subtract_thermal_t_1e-170": _past_float_range("subtract", {"t": 1e-170},
                                                   {"kind": "thermal", "nbar": 1}),
    "amplify_xi_800": _past_float_range("amplify", {"xi": 800}),
    "amplify_t_1e-170": _past_float_range("amplify", {"t": 1e-170}),
    "subtract_nbar_1e308": _past_float_range("subtract", {"t": 0.5},
                                             {"kind": "thermal", "nbar": 1e308}),
    "subtract_loss_width": _past_float_range("subtract", {"t": 1e-150},
                                             {"kind": "thermal", "nbar": 1e-10}),
    "subtract_click_factor_width": _past_float_range("subtract", {"t": 1e-154},
                                                     {"kind": "thermal", "nbar": 0.7}),
    "add_noise_width": _past_float_range("add", {"mu": 1e150}, {"kind": "thermal", "nbar": 1e307}),
    "add_noise_centre": {**_past_float_range("add", {"mu": 1.5},
                                             {"kind": "coherent", "alpha": 1.5e308}), "clicks": 3},
    "clickstats_alpha_1e155": {"schema": 1, "protocol": "clickstats",
                               "input": {"kind": "coherent", "alpha": 1e155, "cutoff": 8},
                               "detector": {"N": 4, "eta": 0.5}},
}


@pytest.mark.parametrize("payload", PAST_FLOAT_RANGE.values(), ids=PAST_FLOAT_RANGE.keys())
def test_derived_value_past_float_range_is_numerical_failure(tmp_path, capsys, payload):
    out = tmp_path / "out"
    argv = [payload["protocol"], "--config", write_config(tmp_path, payload), "--out", str(out)]
    assert main(argv) == 3
    assert "numerical failure" in capsys.readouterr().err
    assert not out.exists()


def test_herald_pair_weight_of_one_is_validation_error(tmp_path, capsys):
    cfg = write_config(tmp_path, {**HERALD_CONFIG, "input": {"kind": "phase_diffused_tmsv",
                                                              "omega": 1.0}})
    out = tmp_path / "out"
    assert main(["herald", "--config", cfg, "--out", str(out)]) == 2
    assert "invalid parameters: pair weight must satisfy 0 < omega < 1" in capsys.readouterr().err
    assert not out.exists()


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


def test_clickstats_coherent_past_the_first_amplitude_underflow(tmp_path):
    # exp(-|alpha|^2/2), which the coherent state's amplitudes were built
    # from, is 0 above |alpha| = 38.59; at 38.5 the photon distribution
    # summed to 1.035 and the run exited 2
    cfg = write_config(tmp_path, {"schema": 1, "protocol": "clickstats",
                                  "input": {"kind": "coherent", "alpha": 38.5, "cutoff": 1750},
                                  "detector": {"N": 4, "eta": 0.5}})
    assert main(["clickstats", "--config", cfg, "--out", str(tmp_path)]) == 0
    lines = (tmp_path / "click_distribution.csv").read_text().splitlines()[1:]
    assert math.fsum(float(line.split(",")[1]) for line in lines) == pytest.approx(1, abs=1e-10)


def test_clickstats_coherent_click_distribution_keeps_relative_digits(tmp_path):
    # each of the N = 4 detectors sees a coherent state of mean x = eta |alpha|^2 / N,
    # so P(k) = C(N, k) (1 - e^-x)^k e^(-x (N - k)); P(0) = e^(-112.5) = 1.4e-49
    cfg = write_config(tmp_path, {"schema": 1, "protocol": "clickstats",
                                  "input": {"kind": "coherent", "alpha": 15, "cutoff": 400},
                                  "detector": {"N": 4, "eta": 0.5}})
    assert main(["clickstats", "--config", cfg, "--out", str(tmp_path)]) == 0
    lines = (tmp_path / "click_distribution.csv").read_text().splitlines()[1:]
    x = 0.5 * 15**2 / 4
    expect = [math.comb(4, k) * (-math.expm1(-x)) ** k * math.exp(-x * (4 - k)) for k in range(5)]
    assert [float(line.split(",")[1]) for line in lines] == pytest.approx(expect, rel=1e-12, abs=0)


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


ADD_CONFIG = {
    "schema": 1,
    "protocol": "add",
    "input": {"kind": "thermal", "nbar": 0.5},
    "detector": {"N": 16, "eta": 0.8},
    "optics": {"mu": 1.4},
    "clicks": 1,
}


def test_non_numeric_grid_flag_is_parse_error(tmp_path, capsys):
    cfg = write_config(tmp_path, ADD_CONFIG)
    argv = ["add", "--config", cfg, "--out", str(tmp_path), "--grid=a,1,-1,1,3,3"]
    assert main(argv) == 1
    assert "config error" in capsys.readouterr().err


def test_non_numeric_config_grid_is_parse_error(tmp_path, capsys):
    grid = {"re_min": -1, "re_max": 1, "im_min": -1, "im_max": 1, "n_re": "x", "n_im": 3}
    cfg = write_config(tmp_path, {**ADD_CONFIG, "grid": grid})
    assert main(["add", "--config", cfg, "--out", str(tmp_path)]) == 1
    assert "config error" in capsys.readouterr().err


def test_empty_grid_extent_is_validation_error(tmp_path, capsys):
    cfg = write_config(tmp_path, ADD_CONFIG)
    argv = ["add", "--config", cfg, "--out", str(tmp_path), "--grid=1,-1,-1,1,3,3"]
    assert main(argv) == 2
    assert "invalid parameters" in capsys.readouterr().err


def test_zero_grid_cells_is_validation_error(tmp_path, capsys):
    cfg = write_config(tmp_path, ADD_CONFIG)
    argv = ["add", "--config", cfg, "--out", str(tmp_path), "--grid=1,2,-1,1,0,3"]
    assert main(argv) == 2
    assert "invalid parameters" in capsys.readouterr().err


def test_infinite_grid_extent_is_validation_error(tmp_path, capsys):
    cfg = write_config(tmp_path, ADD_CONFIG)
    argv = ["add", "--config", cfg, "--out", str(tmp_path), "--grid=-1,inf,-1,1,2,2"]
    assert main(argv) == 2
    assert "invalid parameters" in capsys.readouterr().err
    assert not list(tmp_path.glob("pfunction*"))


def test_infinite_coherent_amplitude_is_validation_error(tmp_path, capsys):
    payload = {
        "schema": 1,
        "protocol": "subtract",
        "input": {"kind": "coherent", "alpha": [float("inf"), 0]},
        "detector": {"N": 4, "eta": 0.5},
        "optics": {"t": 0.7},
        "clicks": 4,
    }
    cfg = write_config(tmp_path, payload)
    assert "Infinity" in Path(cfg).read_text()
    assert main(["subtract", "--config", cfg, "--out", str(tmp_path)]) == 2
    assert "invalid parameters" in capsys.readouterr().err


@pytest.mark.parametrize("k,n,cutoff", [("400", "1024", "2048"), ("550", "1100", "600")])
def test_errorbound_beyond_float_binomials(tmp_path, k, n, cutoff):
    # C(N, k) and the photoelectric binomials exceed the float range here
    argv = ["errorbound", "--eta", "0.5", "--k", k, "--N", n, "--cutoff", cutoff]
    assert main(argv + ["--out", str(tmp_path)]) == 0
    row = (tmp_path / "errorbound.csv").read_text().splitlines()[1].split(",")
    n_out, distance, grid_sup, tail_bound = (float(x) for x in row)
    assert n_out == int(n) and np.isfinite(grid_sup) and distance == tail_bound == 1.0


def test_non_numeric_errorbound_n_is_parse_error(tmp_path, capsys):
    argv = ["errorbound", "--eta", "0.5", "--k", "1", "--N", "2,x", "--out", str(tmp_path)]
    assert main(argv) == 1
    assert "config error" in capsys.readouterr().err


# each used to exit 2 through argparse, where the same value in a config exits 1
@pytest.mark.parametrize("flag,value", [("--k", "1.5"), ("--eta", "abc"), ("--cutoff", "10.5"),
                                        ("--format", "xml")])
def test_bad_errorbound_flag_is_parse_error(tmp_path, capsys, flag, value):
    argv = ["errorbound", "--eta", "0.5", "--k", "1", "--N", "2,4", flag, value]
    assert main(argv + ["--out", str(tmp_path / "out")]) == 1
    assert "config error" in capsys.readouterr().err
    assert not (tmp_path / "out").exists() or not any((tmp_path / "out").iterdir())


def test_integral_flag_value_reads_like_config_value(tmp_path):
    # "k": 2.0 in a config runs as k = 2, and so does --k 2.0 now
    flag = ["errorbound", "--eta", "0.5", "--k", "2.0", "--N", "2,4", "--out", str(tmp_path / "f")]
    payload = {"schema": 1, "protocol": "errorbound", "eta": 0.5, "k": 2.0, "N": [2, 4]}
    config = ["errorbound", "--config", write_config(tmp_path, payload), "--out", str(tmp_path / "c")]
    assert main(flag) == main(config) == 0
    assert (tmp_path / "f" / "errorbound.csv").read_bytes() == \
        (tmp_path / "c" / "errorbound.csv").read_bytes()


def test_flag_spellings_of_one_number_give_one_output(tmp_path):
    plain = ["errorbound", "--eta", "0.5", "--k", "1", "--N", "2,4", "--out", str(tmp_path / "p")]
    spelled = ["errorbound", "--eta", ".5", "--k", "1e0", "--N", "2.0,4", "--out",
               str(tmp_path / "s")]
    assert main(plain) == main(spelled) == 0
    assert (tmp_path / "p" / "errorbound.csv").read_bytes() == \
        (tmp_path / "s" / "errorbound.csv").read_bytes()


@pytest.mark.parametrize("source", ["flag", "config"])
def test_integer_past_float_range_is_validation_error(tmp_path, capsys, source):
    # reads as an infinite eta; in a config it used to escape as an OverflowError
    if source == "flag":
        argv = ["errorbound", "--eta", str(10**400), "--k", "1", "--N", "2,4"]
    else:
        payload = {**ERRORBOUND_CONFIG, "eta": 10**400}
        argv = ["errorbound", "--config", write_config(tmp_path, payload)]
    assert main(argv + ["--out", str(tmp_path / "out")]) == 2
    assert "invalid parameters" in capsys.readouterr().err


# each config gives a number as JSON text; each used to exit 0 and read the number
@pytest.mark.parametrize("case", ["errorbound_eta", "detector_N", "grid_re_min", "clicks"])
def test_number_as_config_text_is_parse_error(tmp_path, capsys, case):
    payload = {
        "errorbound_eta": {**ERRORBOUND_CONFIG, "eta": "0.5"},
        "detector_N": {**ADD_CONFIG, "detector": {"N": "4", "eta": 0.8}},
        "grid_re_min": {**ADD_CONFIG, "grid": {**SMALL_GRID, "re_min": "-1"}},
        "clicks": {**ADD_CONFIG, "clicks": "1"},
    }[case]
    out = tmp_path / "out"
    argv = [payload["protocol"], "--config", write_config(tmp_path, payload), "--out", str(out)]
    assert main(argv) == 1
    assert "config error" in capsys.readouterr().err
    assert not out.exists() or not any(out.iterdir())


def test_parser_offers_each_protocol_with_its_flag_fields():
    (protocols,) = [a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    assert list(protocols.choices) == list(_PROTOCOLS)
    assert {name: row[3] for name, row in _PROTOCOLS.items() if row[3]} == {
        "errorbound": ("eta", "k", "N", "cutoff")}
    common = {"-h", "--help", "--config", "--out", "--format", "--grid", "--manifest"}
    for name, (*_, flags) in _PROTOCOLS.items():
        options = {o for action in protocols.choices[name]._actions for o in action.option_strings}
        assert options == common | {f"--{key}" for key in flags}


@pytest.mark.parametrize("node, state", [
    ({"kind": "vacuum"}, PhaseSpaceMixture.vacuum()),
    ({"kind": "coherent", "alpha": [0.5, -0.25]}, PhaseSpaceMixture.coherent(0.5 - 0.25j)),
    ({"kind": "thermal", "nbar": 0.3}, PhaseSpaceMixture.thermal(0.3)),
    ({"kind": "displaced_thermal", "alpha": -0.5, "nbar": 0.3},
     PhaseSpaceMixture.displaced_thermal(-0.5, 0.3)),
], ids=["vacuum", "coherent", "thermal", "displaced_thermal"])
def test_conditioning_input_is_its_named_state(tmp_path, node, state):
    payload = {**ADD_CONFIG, "protocol": "subtract", "optics": {"t": 0.7}, "input": node}
    assert main(["subtract", "--config", write_config(tmp_path, payload), "--out", str(tmp_path)]) == 0
    det = DetectorConfig(**ADD_CONFIG["detector"])
    outcome = subtract(state, SubtractionSpec(BeamSplitterConfig(0.7), det, ADD_CONFIG["clicks"]))
    terms = json.loads((tmp_path / f"terms_k{ADD_CONFIG['clicks']}.json").read_text())
    assert terms["probability"] == outcome.probability
    assert [g["c"] for g in terms["gaussians"]] == list(outcome.state.c)
    assert [[d["c"], complex(*d["z"])] for d in terms["deltas"]] == \
        [[c, z] for c, z in zip(outcome.state.dc, outcome.state.dz)]


def test_flag_of_another_protocol_is_usage_error(tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["subtract", "--eta", "0.5", "--out", str(tmp_path)])
    assert exc.value.code == 2


HERALD_CONFIG = {
    "schema": 1,
    "protocol": "herald",
    "input": {"kind": "phase_diffused_tmsv", "omega": 0.25},
    "detector": {"N": 4, "eta": 0.9},
    "clicks": [1],
    "cutoff": 40,
}
FOCK_CLICKSTATS_CONFIG = {
    "schema": 1,
    "protocol": "clickstats",
    "input": {"kind": "fock", "n": 1, "cutoff": 8},
    "detector": {"N": 4, "eta": 0.5},
}
ERRORBOUND_CONFIG = {
    "schema": 1,
    "protocol": "errorbound",
    "eta": 0.5,
    "k": 1,
    "N": [2, 4],
    "cutoff": 64,
}
SMALL_GRID = {"re_min": -1, "re_max": 1, "im_min": -1, "im_max": 1, "n_re": 3, "n_im": 3}


def _amplify_pair_config(pair):
    payload = json.loads((CONFIGS / "table1.json").read_text())
    return {**payload, "clicks": pair, "grid": SMALL_GRID}


# (protocol and flags, config payload, the config error it reports)
MALFORMED_CONFIGS = {
    "not_an_object": (["herald"], [1, 2], "config must be a JSON object"),
    "detector_without_eta": (["herald"], {**HERALD_CONFIG, "detector": {"N": 4}},
                             "a detector is missing the 'eta' field"),
    "grid_flag_of_three": (["add", "--grid", "1,2,3"], ADD_CONFIG,
                           "--grid expects re0,re1,im0,im1,nre,nim"),
    "errorbound_n_not_a_list": (["errorbound"], {**ERRORBOUND_CONFIG, "N": 4},
                                "N must be a list of diode counts, got 4"),
}


@pytest.mark.parametrize("case", MALFORMED_CONFIGS)
def test_malformed_config_is_parse_error(tmp_path, capsys, case):
    argv, payload, message = MALFORMED_CONFIGS[case]
    out = tmp_path / "out"
    assert main([*argv, "--config", write_config(tmp_path, payload), "--out", str(out)]) == 1
    assert f"config error: {message}" in capsys.readouterr().err
    assert not out.exists()


# each config ran on the truncated value (4.7 -> 4, true -> 1) or raised a
# TypeError before integer fields were checked
NON_INTEGER_FIELDS = {
    "detector_N_fraction": {**ADD_CONFIG, "detector": {"N": 4.7, "eta": 0.8}},
    "detector_N_bool": {**ADD_CONFIG, "detector": {"N": True, "eta": 0.8}},
    "clicks_bool": {**ADD_CONFIG, "clicks": True},
    "clicks_list_bool": {**ADD_CONFIG, "clicks": [True, 1]},
    "clicks_pair_fraction": _amplify_pair_config([1.5, 1]),
    "grid_n_re_fraction": {**ADD_CONFIG, "grid": {**SMALL_GRID, "n_re": 2.7}},
    "grid_n_im_bool": {**ADD_CONFIG, "grid": {**SMALL_GRID, "n_im": True}},
    "herald_cutoff_fraction": {**HERALD_CONFIG, "cutoff": 40.5},
    "clickstats_cutoff_fraction": {
        **FOCK_CLICKSTATS_CONFIG,
        "input": {"kind": "fock", "n": 1, "cutoff": 8.5},
    },
    "clickstats_n_fraction": {
        **FOCK_CLICKSTATS_CONFIG,
        "input": {"kind": "fock", "n": 1.5, "cutoff": 8},
    },
    "errorbound_cutoff_fraction": {**ERRORBOUND_CONFIG, "cutoff": 64.5},
    "errorbound_k_fraction": {**ERRORBOUND_CONFIG, "k": 1.5},
    "errorbound_k_bool": {**ERRORBOUND_CONFIG, "k": True},
    "errorbound_N_fraction": {**ERRORBOUND_CONFIG, "N": [2.5, 4]},
    "errorbound_N_bool": {**ERRORBOUND_CONFIG, "N": [True, 4]},
}


@pytest.mark.parametrize("case", sorted(NON_INTEGER_FIELDS))
def test_non_integer_field_is_parse_error(tmp_path, capsys, case):
    payload = NON_INTEGER_FIELDS[case]
    cfg = write_config(tmp_path, payload)
    out = tmp_path / "out"
    assert main([payload["protocol"], "--config", cfg, "--out", str(out)]) == 1
    assert "must be an integer" in capsys.readouterr().err
    assert not out.exists() or not any(out.iterdir())


@pytest.mark.parametrize("protocol", ["subtract", "add"])
def test_empty_click_list_runs(tmp_path, protocol):
    # used to escape as an IndexError from the spec of clicks[0]
    optics = {"t": 0.7} if protocol == "subtract" else {"mu": 1.4}
    payload = {**ADD_CONFIG, "protocol": protocol, "optics": optics, "clicks": []}
    out = tmp_path / "out"
    argv = [protocol, "--config", write_config(tmp_path, payload), "--out", str(out)]
    assert main(argv + ["--manifest"]) == 0
    assert json.loads((out / "summary.json").read_text()) == {"clicks": [], "probabilities": []}
    assert json.loads((out / "manifest.json").read_text())["resolved"]["eta_eff"] > 0


REPEATED_CLICKS = {
    "add": ({**ADD_CONFIG, "detector": {"N": 4, "eta": 0.8}, "clicks": [1, 3, 1, 0, 3]},
            [1, 3, 0]),
    "herald": ({**HERALD_CONFIG, "clicks": [2, 2, 1]}, [2, 1]),
    "amplify": (_amplify_pair_config({"k1": [1, 1], "k2": [0, 2, 0]}), None),
}


@pytest.mark.parametrize("protocol", sorted(REPEATED_CLICKS))
def test_repeated_click_numbers_run_once(tmp_path, capsys, protocol):
    # each repeat used to be computed again, its file rewritten, printed and
    # listed in the manifest a second time
    payload, clicks = REPEATED_CLICKS[protocol]
    out = tmp_path / "out"
    argv = [protocol, "--config", write_config(tmp_path, payload), "--out", str(out)]
    assert main(argv + ["--manifest"]) == 0
    printed = capsys.readouterr().out.split()
    outputs = json.loads((out / "manifest.json").read_text())["outputs"]
    assert len(printed) == len(set(printed)) and len(outputs) == len(set(outputs))
    assert sorted(outputs + ["manifest.json"]) == sorted(p.name for p in out.iterdir())
    if clicks is None:
        assert sorted(n for n in outputs if n.startswith("terms_")) == [
            "terms_k1_0.json", "terms_k1_2.json"
        ]
    else:
        assert json.loads((out / "summary.json").read_text())["clicks"] == clicks


# each config wrote the outputs of the click numbers before the bad one (or
# the whole amplifier table) and then exited 2
OUT_OF_RANGE_CLICKS = {
    "subtract_list": {
        **ADD_CONFIG, "protocol": "subtract", "optics": {"t": 0.7},
        "detector": {"N": 4, "eta": 0.8}, "clicks": [0, 7],
    },
    "add_negative": {**ADD_CONFIG, "detector": {"N": 4, "eta": 0.8}, "clicks": [1, -1]},
    "herald_list": {**HERALD_CONFIG, "clicks": [1, 5]},
    "amplify_k1": _amplify_pair_config({"k1": [5], "k2": [0]}),
    "amplify_both_stages": _amplify_pair_config([1, 5]),
}


@pytest.mark.parametrize("case", sorted(OUT_OF_RANGE_CLICKS))
def test_out_of_range_click_writes_nothing(tmp_path, capsys, case):
    payload = OUT_OF_RANGE_CLICKS[case]
    out = tmp_path / "out"
    argv = [payload["protocol"], "--config", write_config(tmp_path, payload), "--out", str(out)]
    assert main(argv) == 2
    assert "outside 0..4" in capsys.readouterr().err
    assert not out.exists() or not any(out.iterdir())


def test_amplify_outcomes_come_from_amplify_as_their_files_are_written(monkeypatch):
    # the runner used to compose add and subtract itself; each (k1, k2)
    # outcome comes from processes.amplify, once its files are reached
    calls = []

    def recording(beta, spec):
        calls.append((spec.add.k, spec.sub.k))
        return amplify(beta, spec)

    monkeypatch.setattr("clickcraft.cli.amplify", recording)
    config = _amplify_pair_config({"k1": [1, 2], "k2": [0, 3]})
    files = iter(_PROTOCOLS["amplify"][0](config, "csv", GridSpec(**SMALL_GRID))[0])
    assert next(files)[0] == "probability_table.csv" and calls == []
    assert [(name, len(calls)) for name, _ in files] == [
        (f"{stem}_k{k1}_{k2}.{ext}", 2 * i1 + i2 + 1)
        for i1, k1 in enumerate((1, 2)) for i2, k2 in enumerate((0, 3))
        for stem, ext in (("terms", "json"), ("pfunction", "csv"))]
    assert calls == [(1, 0), (1, 3), (2, 0), (2, 3)]


def test_amplify_click_list_applies_to_both_stages(tmp_path):
    # [1, 2] used to mean the single pair (k1, k2) = (1, 2), and [1, 2, 3]
    # every pair of {1, 2, 3}
    out = tmp_path / "out"
    cfg = write_config(tmp_path, _amplify_pair_config([1, 2]))
    assert main(["amplify", "--config", cfg, "--out", str(out)]) == 0
    grids = sorted(path.name for path in out.glob("pfunction_*.csv"))
    assert grids == [f"pfunction_k{k1}_{k2}.csv" for k1 in (1, 2) for k2 in (1, 2)]


# each config ran on the bool as 1.0 (exit 0, or exit 2 where 1.0 is out of
# range), failed on the text as an invalid parameter (exit 2) or, for a
# scalar probs, raised a TypeError
NON_REAL_FIELDS = {
    "detector_eta_bool": {**ADD_CONFIG, "detector": {"N": 16, "eta": True}},
    "nbar_bool": {**ADD_CONFIG, "input": {"kind": "thermal", "nbar": True}},
    "nbar_text": {**ADD_CONFIG, "input": {"kind": "thermal", "nbar": "abc"}},
    "omega_bool": {**HERALD_CONFIG, "input": {"kind": "phase_diffused_tmsv", "omega": True}},
    "optics_t_bool": {**ADD_CONFIG, "protocol": "subtract", "optics": {"t": True}},
    "optics_mu_bool": {**ADD_CONFIG, "optics": {"mu": True}},
    "optics_xi_bool": {**ADD_CONFIG, "optics": {"xi": True}},
    "alpha_bool": {**ADD_CONFIG, "input": {"kind": "coherent", "alpha": True}},
    "alpha_pair_bool": {**ADD_CONFIG, "input": {"kind": "coherent", "alpha": [True, 0.5]}},
    "grid_re_max_bool": {**ADD_CONFIG, "grid": {**SMALL_GRID, "re_max": True}},
    "clickstats_probs_text": {
        **FOCK_CLICKSTATS_CONFIG,
        "input": {"kind": "photon_distribution", "probs": [0.5, "abc"]},
    },
    "clickstats_probs_bool": {
        **FOCK_CLICKSTATS_CONFIG,
        "input": {"kind": "photon_distribution", "probs": [0.0, True]},
    },
    "clickstats_nbar_bool": {
        **FOCK_CLICKSTATS_CONFIG,
        "input": {"kind": "thermal", "nbar": True, "cutoff": 64},
    },
    "clickstats_probs_scalar": {
        **FOCK_CLICKSTATS_CONFIG,
        "input": {"kind": "photon_distribution", "probs": 0.5},
    },
    "errorbound_eta_bool": {**ERRORBOUND_CONFIG, "eta": True},
}


@pytest.mark.parametrize("case", sorted(NON_REAL_FIELDS))
def test_non_real_field_is_parse_error(tmp_path, capsys, case):
    payload = NON_REAL_FIELDS[case]
    cfg = write_config(tmp_path, payload)
    out = tmp_path / "out"
    assert main([payload["protocol"], "--config", cfg, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert "config error" in err and "number" in err
    assert not out.exists() or not any(out.iterdir())


def test_clickstats_non_finite_nbar_is_validation_error(tmp_path, capsys):
    cfg = tmp_path / "config.json"
    cfg.write_text(
        '{"schema": 1, "protocol": "clickstats",'
        ' "input": {"kind": "thermal", "nbar": NaN, "cutoff": 64},'
        ' "detector": {"N": 4, "eta": 0.5}}'
    )
    out = tmp_path / "out"
    assert main(["clickstats", "--config", str(cfg), "--out", str(out)]) == 2
    # rejected at the state, before a NaN photon distribution is built
    assert "invalid parameters: mean photon number" in capsys.readouterr().err
    assert not (out / "click_distribution.csv").exists()


def test_amplify_accepts_squeezing_strength(tmp_path):
    # xi = acosh(1.5) is the strength from_mu(1.5) resolves: one pair source
    table1 = json.loads((CONFIGS / "table1.json").read_text())
    by_xi = {**table1, "addition": {**table1["addition"], "optics": {"xi": math.acosh(1.5)}}}
    runs = {}
    for name, payload in (("mu", table1), ("xi", by_xi)):
        out = tmp_path / name
        assert main(["amplify", "--config", write_config(tmp_path, payload, f"{name}.json"),
                     "--out", str(out), "--manifest"]) == 0
        runs[name] = {p.name: p.read_bytes() for p in sorted(out.iterdir())}
    assert runs["xi"] == runs["mu"]


def test_integral_float_field_is_accepted(tmp_path):
    cfg = write_config(tmp_path, {**ADD_CONFIG, "grid": {**SMALL_GRID, "n_re": 3.0}})
    assert main(["add", "--config", cfg, "--out", str(tmp_path)]) == 0
    assert len((tmp_path / "pfunction_k1.csv").read_text().splitlines()) == 1 + 9


def test_non_finite_photon_distribution_is_validation_error(tmp_path, capsys):
    cfg = tmp_path / "config.json"
    cfg.write_text(
        '{"schema": 1, "protocol": "clickstats",'
        ' "input": {"kind": "photon_distribution", "probs": [0.5, NaN]},'
        ' "detector": {"N": 4, "eta": 0.5}}'
    )
    out = tmp_path / "out"
    assert main(["clickstats", "--config", str(cfg), "--out", str(out)]) == 2
    assert "non-finite" in capsys.readouterr().err
    assert not (out / "click_distribution.csv").exists()


# a grid used to be ignored by these protocols, yet written into the manifest
NO_GRID_CONFIGS = {
    "herald": HERALD_CONFIG,
    "clickstats": FOCK_CLICKSTATS_CONFIG,
    "errorbound": ERRORBOUND_CONFIG,
}


@pytest.mark.parametrize("protocol", sorted(NO_GRID_CONFIGS))
def test_grid_for_protocol_without_p_function_is_parse_error(tmp_path, capsys, protocol):
    payload = NO_GRID_CONFIGS[protocol]
    out = tmp_path / "out"
    flag = [protocol, "--config", write_config(tmp_path, payload), "--grid=-1,1,-1,1,3,3"]
    in_config = [protocol, "--config", write_config(tmp_path, {**payload, "grid": SMALL_GRID}, "g.json")]
    for argv in (flag, in_config):
        assert main(argv + ["--out", str(out), "--manifest"]) == 1
        assert "takes no grid" in capsys.readouterr().err
        assert not out.exists()


# each used to end in a TypeError traceback: ``key in node`` on text is a
# substring test, and indexing text or a list by a key fails
NON_OBJECT_NODES = {
    "clickstats_input": {**FOCK_CLICKSTATS_CONFIG, "input": "kind"},
    "herald_input": {**HERALD_CONFIG, "input": "kind"},
    "subtract_optics": {**ADD_CONFIG, "protocol": "subtract", "optics": "t"},
    "add_optics_text": {**ADD_CONFIG, "optics": "mu"},
    "add_optics_list": {**ADD_CONFIG, "optics": ["mu"]},
    "amplify_addition": {**json.loads((CONFIGS / "table1.json").read_text()), "addition": "optics"},
    "amplify_addition_number": {**json.loads((CONFIGS / "table1.json").read_text()), "addition": 5},
    "amplify_subtraction_number": {**json.loads((CONFIGS / "table1.json").read_text()),
                                   "subtraction": 3.5},
    "subtract_detector": {**ADD_CONFIG, "protocol": "subtract", "optics": {"t": 0.7}, "detector": "N"},
    "add_grid": {**ADD_CONFIG, "grid": ["re_min"]},
}


@pytest.mark.parametrize("case", sorted(NON_OBJECT_NODES))
def test_non_object_config_node_is_parse_error(tmp_path, capsys, case):
    payload = NON_OBJECT_NODES[case]
    out = tmp_path / "out"
    argv = [payload["protocol"], "--config", write_config(tmp_path, payload), "--out", str(out)]
    assert main(argv) == 1
    assert "config error" in capsys.readouterr().err
    assert not out.exists() or not any(out.iterdir())


@pytest.mark.parametrize("kind", ["squeezed", "phase_diffused_tmsv", ["fock"]], ids=["unknown", "two_mode", "list"])
def test_clickstats_unknown_input_kind_is_parse_error(tmp_path, capsys, kind):
    # used to exit 2 through the oracle ("unknown state kind", or omega 0.0
    # for the two-mode phase_diffused_tmsv, whose omega was never passed on)
    payload = {**FOCK_CLICKSTATS_CONFIG, "input": {"kind": kind, "omega": 0.5}}
    out = tmp_path / "out"
    assert main(["clickstats", "--config", write_config(tmp_path, payload), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert "config error" in err and "displaced_thermal" in err
    assert not out.exists() or not any(out.iterdir())


# each input node names a field its kind does not read; each used to exit 0
# and drop the field
UNREAD_INPUT_FIELDS = {
    "clickstats_thermal_alpha": ({**FOCK_CLICKSTATS_CONFIG,
                                  "input": {"kind": "thermal", "nbar": 0.5, "alpha": 1.0}}, "alpha"),
    "clickstats_vacuum_n": ({**FOCK_CLICKSTATS_CONFIG,
                             "input": {"kind": "vacuum", "n": 3, "cutoff": 8}}, "n"),
    "clickstats_distribution_cutoff": ({**FOCK_CLICKSTATS_CONFIG, "input": {
        "kind": "photon_distribution", "probs": [0.5, 0.5], "cutoff": 8}}, "cutoff"),
    "subtract_thermal_alpha": ({**ADD_CONFIG, "protocol": "subtract", "optics": {"t": 0.7},
                                "input": {"kind": "thermal", "nbar": 0.5, "alpha": 1.0}}, "alpha"),
    "add_coherent_cutoff": ({**ADD_CONFIG, "input": {"kind": "coherent", "alpha": 0.5,
                                                     "cutoff": 8}}, "cutoff"),
    "herald_pair_nbar": ({**HERALD_CONFIG, "input": {"kind": "phase_diffused_tmsv",
                                                     "omega": 0.25, "nbar": 0.5}}, "nbar"),
    "amplify_coherent_nbar": ({**_amplify_pair_config([1]), "input": {
        "kind": "coherent", "alpha": 0.5, "nbar": 0.5}}, "nbar"),
}


@pytest.mark.parametrize("case", UNREAD_INPUT_FIELDS)
def test_input_field_its_kind_does_not_read_is_parse_error(tmp_path, capsys, case):
    payload, field = UNREAD_INPUT_FIELDS[case]
    out = tmp_path / "out"
    argv = [payload["protocol"], "--config", write_config(tmp_path, payload), "--out", str(out)]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert "config error" in err and repr(field) in err
    assert not out.exists() or not any(out.iterdir())


# each config names a field that no protocol, amplify clicks object, detector,
# optics, grid or amplify stage node reads; each used to exit 0 and drop the
# field
UNKNOWN_CONFIG_FIELDS = {
    "top_level": ({**ADD_CONFIG, "extra": 1}, "extra"),
    "misspelled_clicks": ({**{k: v for k, v in ADD_CONFIG.items() if k != "clicks"}, "click": 1},
                          "click"),
    "amplify_click_pair": (_amplify_pair_config({"k3": 1}), "k3"),
    "detector": ({**ADD_CONFIG, "detector": {"N": 4, "eta": 0.8, "etta": 0.1}}, "etta"),
    "beam_splitter": ({**ADD_CONFIG, "protocol": "subtract", "optics": {"t": 0.7, "xi": 0.3}},
                      "xi"),
    "pair_source_mu": ({**ADD_CONFIG, "optics": {"mu": 1.4, "t": 0.7}}, "t"),
    "pair_source_xi": ({**ADD_CONFIG, "optics": {"xi": 0.3, "t": 0.7}}, "t"),
    "grid": ({**ADD_CONFIG, "grid": {**SMALL_GRID, "nre": 9}}, "nre"),
    "amplify_addition": ({**_amplify_pair_config({"k1": 1, "k2": 0}), "addition": {
        "detector": {"N": 4, "eta": 0.5}, "optics": {"mu": 1.5}, "typo": 1}}, "typo"),
    "amplify_subtraction": ({**_amplify_pair_config({"k1": 1, "k2": 0}), "subtraction": {
        "detector": {"N": 4, "eta": 0.5}, "optics": {"t": 0.6}, "typo": 1}}, "typo"),
}


@pytest.mark.parametrize("case", UNKNOWN_CONFIG_FIELDS)
def test_unknown_config_field_is_parse_error(tmp_path, capsys, case):
    payload, field = UNKNOWN_CONFIG_FIELDS[case]
    out = tmp_path / "out"
    argv = [payload["protocol"], "--config", write_config(tmp_path, payload), "--out", str(out)]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert "config error" in err and repr(field) in err
    assert not out.exists() or not any(out.iterdir())


# each config holds a top-level field that only other protocols read; each
# used to exit 0 and drop the field
STRAY_CONFIG_FIELDS = {
    "herald": ({**HERALD_CONFIG, "optics": {"t": 0.7}}, "optics"),
    "subtract": ({**ADD_CONFIG, "protocol": "subtract", "optics": {"t": 0.7}, "cutoff": 5},
                 "cutoff"),
    "add": ({**ADD_CONFIG, "eta": 0.3, "cutoff": 5}, "eta"),
    "amplify": ({**_amplify_pair_config({"k1": 1, "k2": 0}), "detector": {"N": 4, "eta": 0.5}},
                "detector"),
    "clickstats": ({**FOCK_CLICKSTATS_CONFIG, "clicks": [1]}, "clicks"),
    "errorbound": ({**ERRORBOUND_CONFIG, "detector": {"N": 4, "eta": 0.5}}, "detector"),
}


@pytest.mark.parametrize("protocol", STRAY_CONFIG_FIELDS)
def test_field_of_another_protocol_is_parse_error(tmp_path, capsys, protocol):
    payload, field = STRAY_CONFIG_FIELDS[protocol]
    assert payload["protocol"] == protocol
    out = tmp_path / "out"
    argv = [protocol, "--config", write_config(tmp_path, payload), "--out", str(out)]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert f"a {protocol} config takes no {field!r} field" in err
    assert not out.exists()


def test_addition_at_unit_efficiency_on_coherent_input_writes_nothing(tmp_path, capsys):
    # at mu = 1.2 this used to exit 0 with an inverse width of 2^53 - 1 in terms_k0.json
    payload = {**ADD_CONFIG, "input": {"kind": "coherent", "alpha": 0.7},
               "detector": {"N": 4, "eta": 1.0}, "optics": {"mu": 1.2}, "clicks": "all"}
    out = tmp_path / "out"
    assert main(["add", "--config", write_config(tmp_path, payload), "--out", str(out)]) == 2
    assert "eta < 1" in capsys.readouterr().err
    assert not out.exists()


def test_amplify_addition_at_unit_efficiency_on_coherent_input_writes_nothing(tmp_path, capsys):
    # the addition stage's rule decides it, as for add: a coherent input has delta terms
    payload = _amplify_pair_config([1])
    payload["addition"] = {**payload["addition"], "detector": {"N": 4, "eta": 1.0}}
    out = tmp_path / "out"
    assert main(["amplify", "--config", write_config(tmp_path, payload), "--out", str(out)]) == 2
    assert "invalid parameters: eta = 1 turns the delta terms" in capsys.readouterr().err
    assert not out.exists()


def test_negative_photon_number_is_validation_error(tmp_path, capsys):
    # used to exit 3, a numerical failure, from the oracle's CutoffError
    payload = {**FOCK_CLICKSTATS_CONFIG, "input": {"kind": "fock", "n": -1, "cutoff": 8}}
    out = tmp_path / "out"
    assert main(["clickstats", "--config", write_config(tmp_path, payload), "--out", str(out)]) == 2
    assert "invalid parameters" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("protocol", ["add", "amplify"])
def test_pair_source_given_both_ways_is_parse_error(tmp_path, capsys, protocol):
    # used to exit 0 with mu, dropping xi
    optics = {"mu": 1.4, "xi": 3.0}
    if protocol == "add":
        payload = {**ADD_CONFIG, "optics": optics}
    else:
        payload = _amplify_pair_config([1])
        payload["addition"] = {**payload["addition"], "optics": optics}
    out = tmp_path / "out"
    argv = [protocol, "--config", write_config(tmp_path, payload), "--out", str(out)]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert "config error" in err and "not both" in err
    assert not out.exists() or not any(out.iterdir())


def test_clickstats_displaced_thermal_input(tmp_path):
    payload = {**FOCK_CLICKSTATS_CONFIG,
               "input": {"kind": "displaced_thermal", "alpha": [0.3, 0.2], "nbar": 0.2, "cutoff": 48},
               "format": "json"}
    assert main(["clickstats", "--config", write_config(tmp_path, payload), "--out", str(tmp_path)]) == 0
    probs = json.loads((tmp_path / "click_distribution.json").read_text())["probability"]
    assert len(probs) == 5 and sum(probs) == pytest.approx(1.0, abs=1e-9)


def test_out_naming_a_file_is_validation_error(tmp_path, capsys):
    # used to escape main as a FileExistsError traceback
    taken = tmp_path / "taken"
    taken.write_text("keep")
    argv = ["herald", "--config", str(CONFIGS / "fig2.json"), "--out", str(taken)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert "invalid parameters" in err and "output directory" in err
    assert taken.read_text() == "keep"


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


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_rerun_over_larger_output_writes_a_fresh_runs_bytes(tmp_path, fmt):
    # each output is rewritten in place and cut at the end of its new bytes
    fig3 = ["subtract", "--config", str(CONFIGS / "fig3.json"), "--format", fmt, "--manifest"]
    rerun, fresh = tmp_path / "rerun", tmp_path / "fresh"
    assert main([*fig3, "--out", str(rerun), "--grid=-2.5,2.5,-2.5,2.5,301,301"]) == 0
    larger = {p.name: p.stat().st_size for p in rerun.iterdir()}
    assert main([*fig3, "--out", str(rerun)]) == 0
    assert main([*fig3, "--out", str(fresh)]) == 0
    names = sorted(p.name for p in fresh.iterdir())
    assert sorted(p.name for p in rerun.iterdir()) == names
    assert all((rerun / n).read_bytes() == (fresh / n).read_bytes() for n in names)
    assert any(larger[n] > (fresh / n).stat().st_size for n in names)


def test_same_length_rerun_cuts_no_file(tmp_path, monkeypatch):
    argv = [*ERRORBOUND, "--out", str(tmp_path), "--manifest"]
    assert main(argv) == 0
    first = {p.name: p.read_bytes() for p in tmp_path.iterdir()}

    def ftruncate(fd, length):
        raise AssertionError(f"cut to {length}")

    monkeypatch.setattr(os, "ftruncate", ftruncate)
    assert main(argv) == 0
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == first


@pytest.mark.skipif(not Path("/dev/null").exists(), reason="no /dev/null")
def test_output_linked_to_dev_null_is_written(tmp_path):
    # /dev/null reports size 0, and ftruncate on it fails with EINVAL
    (tmp_path / "summary.json").symlink_to("/dev/null")
    argv = ["subtract", "--config", str(CONFIGS / "fig3.json"), "--grid=-1,1,-1,1,3,3"]
    assert main([*argv, "--out", str(tmp_path)]) == 0
    assert (tmp_path / "summary.json").is_symlink()
    assert (tmp_path / "summary.json").resolve() == Path("/dev/null").resolve()


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no FIFOs")
def test_write_to_a_fifo_leaves_the_fifo(tmp_path):
    # a FIFO reports size 0, and lseek on it fails with ESPIPE, so the
    # writer must not ask for its offset
    path = tmp_path / "grid.csv"
    os.mkfifo(path)
    received = []
    reader = threading.Thread(target=lambda: received.append(path.read_bytes()))
    reader.start()
    _write(path, ["re,im,value\n", "0,0,0.5\n"])
    reader.join(timeout=10)
    assert received == [b"re,im,value\n0,0,0.5\n"]
    assert stat.S_ISFIFO(path.lstat().st_mode)


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


# ---------------------------------------------------------------------------
# writer equivalence: the bulk writers against per-cell reference formatting
# ---------------------------------------------------------------------------

# -0.0, nan, +-inf, subnormals, huge and ordinary values
SPECIAL_VALUES = [-0.0, 0.0, np.nan, np.inf, -np.inf, 5e-324, -2.5e-310, 1e300,
                  -1e300, 1 / 3, 0.1, -7.0, 123456789.0, 1e-5, 1e16, 1e17]


def special_values(n, seed):
    rng = np.random.default_rng(seed)
    pool = np.concatenate([SPECIAL_VALUES, rng.normal(size=n)])
    return rng.permutation(pool)[:n]


def repeated_values(n, seed):
    """``n >= 17`` cells, mostly repeats, holding every special value and a
    second NaN payload: a writer that merges equal values, not equal bits,
    prints 0.0 as -0 or -0.0 as 0."""
    rng = np.random.default_rng(seed)
    nan_payload = np.array([0x7FF8000000000001], dtype=np.uint64).view(np.float64)
    pool = np.concatenate([SPECIAL_VALUES, nan_payload])
    return rng.permutation(np.concatenate([pool, rng.choice(pool, n - len(pool))]))


# percent cells that round at the second decimal, and -0.0
PERCENT_VALUES = [-1e-7, -0.0, 0.005, 0.015, 99.995, 100.0]


def amplifier_percent(length, seed):
    """``100 * special_values``, with ``PERCENT_VALUES`` in its first rows and
    on both sides of row 2048, where a CSV piece of 2048 rows ends."""
    percent = 100 * special_values(length, seed)
    for rows in (slice(0, 6), slice(2042, 2054)):
        percent[rows] = np.resize(PERCENT_VALUES, len(percent[rows]))
    return percent


def reference_json(payload):
    return json.dumps(payload, sort_keys=True, indent=1) + "\n"


def reference_csv(rows):
    return "\n".join(",".join(row) for row in rows) + "\n"


def reference_grid(fmt, matrix, grid):
    re, im = grid.centers()
    if fmt == "csv":
        rows = [["re", "im", "value"]]
        for i in range(grid.n_im):
            for j in range(grid.n_re):
                rows.append([f"{re[j]:.17g}", f"{im[i]:.17g}", f"{matrix[i, j]:.17g}"])
        return reference_csv(rows)
    fields = ("re_min", "re_max", "im_min", "im_max", "n_re", "n_im")
    payload = {
        "grid": {name: getattr(grid, name) for name in fields},
        "values_row_major": [float(v) for v in matrix.reshape(-1)],
    }
    return reference_json(payload)


def reference_distribution(fmt, columns):
    ints = ("n", "k", "N", "k1", "k2")
    if fmt == "csv":
        length = len(next(iter(columns.values())))
        rows = [list(columns)] + [
            [str(int(c[i])) if n in ints else f"{c[i]:.2f}" if n == "percent" else f"{c[i]:.17g}"
             for n, c in columns.items()]
            for i in range(length)
        ]
        return reference_csv(rows)
    return reference_json(
        {
            n: [int(v) for v in c] if n in ints else [float(v) for v in c]
            for n, c in columns.items()
        }
    )


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize(
    "n_re,n_im,values",
    [(1, 1, special_values), (1, 7, special_values), (7, 1, special_values),
     (5, 4, special_values), (16, 3, special_values), (12, 9, repeated_values),
     (70, 40, special_values), (70, 40, repeated_values), (1, 5000, special_values),
     (1, 5000, repeated_values)],
    ids=["1-1", "1-7", "7-1", "5-4", "16-3", "12-9-repeats", "70-40", "70-40-repeats",
         "1-5000", "1-5000-repeats"],
)
def test_grid_writer_matches_per_cell_formatting(tmp_path, fmt, n_re, n_im, values):
    grid = GridSpec(-1e-300, 2.5, -3.0, 1 / 3, n_re, n_im)
    matrix = values(n_re * n_im, n_re + 10 * n_im).reshape(n_im, n_re)
    name, pieces = _grid_file("grid", fmt, matrix, grid)
    _write(tmp_path / name, pieces)
    assert (tmp_path / name).read_bytes() == reference_grid(fmt, matrix, grid).encode()


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize(
    "length,values",
    [(0, special_values), (1, special_values), (17, special_values), (40, repeated_values),
     (5000, special_values), (5000, repeated_values)],
    ids=["0", "1", "17", "40-repeats", "5000", "5000-repeats"],
)
def test_distribution_writer_matches_per_cell_formatting(tmp_path, fmt, length, values):
    tables = [
        {"n": np.arange(length), "weight": values(length, 1),
         "normalized": values(length, 2)},
        {"k": np.arange(length), "probability": values(length, 3)},
        {"N": 2 ** np.arange(length), "distance": values(length, 4),
         "grid_sup": values(length, 5), "tail_bound": values(length, 6)},
        {"k1": np.arange(length) // 7, "k2": np.arange(length) % 7,
         "probability": values(length, 7), "percent": amplifier_percent(length, 8)},
    ]
    for stem, columns in enumerate(tables):
        name, pieces = _distribution_file(f"d{stem}", fmt, columns)
        _write(tmp_path / name, pieces)
        assert (tmp_path / name).read_bytes() == reference_distribution(fmt, columns).encode()


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_amplifier_table_file_matches_per_cell_formatting(tmp_path, monkeypatch, fmt):
    # a 7 x 4 table of special values, its first cells' percents rounding at
    # the second decimal, through the amplify runner's own table writer
    table = special_values(28, 9)
    table[:len(PERCENT_VALUES)] = np.asarray(PERCENT_VALUES) / 100
    table = table.reshape(7, 4)
    monkeypatch.setattr("clickcraft.cli.probability_table", lambda spec, beta: table)
    payload = json.loads((CONFIGS / "table1.json").read_text())
    payload["addition"]["detector"]["N"], payload["subtraction"]["detector"]["N"] = 6, 3
    cfg = write_config(tmp_path, payload)
    assert main(["amplify", "--config", cfg, "--out", str(tmp_path), "--format", fmt]) == 0
    if fmt == "csv":
        rows = [["k1", "k2", "probability", "percent"]] + [
            [str(k1), str(k2), f"{p:.17g}", f"{100.0 * p:.2f}"]
            for k1, row in enumerate(table.tolist()) for k2, p in enumerate(row)]
        expected = reference_csv(rows)
    else:
        expected = reference_json({"N1": 6, "N2": 3, "probabilities": table.tolist(),
                                   "percent": [[f"{100.0 * p:.2f}" for p in row]
                                               for row in table.tolist()]})
    assert (tmp_path / f"probability_table.{fmt}").read_text(encoding="utf-8") == expected


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_grid_writer_memory_grows_with_distinct_values_not_the_file(tmp_path, fmt):
    # the distinct texts, their index and one row: under 100 bytes a cell on
    # a grid of distinct values, where a writer that builds the whole file
    # in memory peaks at 137 (JSON) to 256 (CSV)
    grid = GridSpec(-2.5, 2.5, -2.5, 2.5, 301, 301)
    matrix = np.random.default_rng(7).normal(size=(301, 301))
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        name, pieces = _grid_file("grid", fmt, matrix, grid)
        _write(tmp_path / name, pieces)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert peak <= 120 * matrix.size
