"""CLI behavior: protocols end to end, exit codes, determinism, formats."""

import json
import math
from pathlib import Path

import numpy as np
import pytest

from clickcraft.cli import _write_distribution, _write_grid, main
from clickcraft.pfunc import GridSpec

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


def test_undecodable_config_is_parse_error(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_bytes(b"\xff\xfe{")
    assert main(["subtract", "--config", str(bad)]) == 1
    assert "config error" in capsys.readouterr().err


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
    payload = {**ADD_CONFIG, "protocol": protocol, "optics": {"t": 0.7, "mu": 1.4}, "clicks": []}
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
    ints = ("n", "k", "N")
    if fmt == "csv":
        length = len(next(iter(columns.values())))
        rows = [list(columns)] + [
            [str(int(c[i])) if n in ints else f"{c[i]:.17g}" for n, c in columns.items()]
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
     (5, 4, special_values), (16, 3, special_values), (12, 9, repeated_values)],
    ids=["1-1", "1-7", "7-1", "5-4", "16-3", "12-9-repeats"],
)
def test_grid_writer_matches_per_cell_formatting(tmp_path, fmt, n_re, n_im, values):
    grid = GridSpec(-1e-300, 2.5, -3.0, 1 / 3, n_re, n_im)
    matrix = values(n_re * n_im, n_re + 10 * n_im).reshape(n_im, n_re)
    (name,) = _write_grid(tmp_path, "grid", fmt, matrix, grid)
    assert (tmp_path / name).read_bytes() == reference_grid(fmt, matrix, grid).encode()


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize(
    "length,values",
    [(0, special_values), (1, special_values), (17, special_values), (40, repeated_values)],
    ids=["0", "1", "17", "40-repeats"],
)
def test_distribution_writer_matches_per_cell_formatting(tmp_path, fmt, length, values):
    tables = [
        {"n": np.arange(length), "weight": values(length, 1),
         "normalized": values(length, 2)},
        {"k": np.arange(length), "probability": values(length, 3)},
        {"N": 2 ** np.arange(length), "distance": values(length, 4),
         "grid_sup": values(length, 5), "tail_bound": values(length, 6)},
    ]
    for stem, columns in enumerate(tables):
        (name,) = _write_distribution(tmp_path, f"d{stem}", fmt, columns)
        assert (tmp_path / name).read_bytes() == reference_distribution(fmt, columns).encode()
