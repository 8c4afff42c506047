"""Command-line surface.

    clickcraft <protocol> --config <path> [--out DIR] [--format csv|json]
               [--grid re0,re1,im0,im1,nre,nim] [--manifest] [...]

Protocols: herald, subtract, add, amplify, clickstats, errorbound.  Parameters
come from a single versioned JSON config ("schema": 1); a handful of flags
override config fields for sweeps.  Outputs are deterministic: fixed file
names, fixed field order, 17-significant-digit decimal floats, LF line
endings, no timestamps, so identical configs produce byte-identical files.
The writers encode each distinct float bit pattern of an array once and
place its text in every cell that holds it: P-function grids of
phase-invariant or real-axis states repeat most of their cells.  Distinct
means distinct bits, not values, because ``-0.0 == 0.0`` prints as ``-0``
and ``0``, and a deduplication by value would also merge every NaN.

Exit codes: 0 success, 1 config parse error, 2 parameter validation error
(or an output directory that cannot be created), 3 numerical failure (a
result failed a numerical sanity check, or a cutoff could not hold the
requested tail tolerance: ``NumericalError``, of which ``CutoffError`` is
one kind).
"""

from __future__ import annotations

import argparse
import json
import sys
from collections.abc import Iterable
from dataclasses import asdict, replace
from functools import partial
from pathlib import Path

import numpy as np

from . import __version__
from .dsymbol import NumericalError
from .fock import _KIND_KEYWORDS, make_state, photon_distribution
from .pfunc import GridSpec, PhaseSpaceMixture, evaluate_grid
from .povm import DetectorConfig, click_statistics, operator_norm_distance
from .processes import (
    AdditionSpec,
    AmplifySpec,
    BeamSplitterConfig,
    ProcessOutcome,
    SqueezerConfig,
    SubtractionSpec,
    add,
    herald_tmsv_distribution,
    probability_table,
    subtract,
)

# the fields of each input kind besides ``kind``: a ``probs`` list, or the
# keywords of a state of ``make_state``; an input node holds no other field
_INPUT_FIELDS = {"photon_distribution": ("probs",), **_KIND_KEYWORDS}


class ConfigError(Exception):
    """The config file is missing, malformed, or schema-incompatible."""


def _write_text(path: Path, text: str) -> None:
    path.write_text(text, encoding="utf-8", newline="\n")


def _float_texts(values: np.ndarray, as_json: bool = False) -> list[str]:
    """The text of each float of ``values`` in flat order: ``%.17g``, or the
    JSON encoder's (``NaN``, ``Infinity``, ``float.__repr__``).  Each distinct
    bit pattern is encoded once, in one formatting call for all of them."""
    bits = np.asarray(values, dtype=np.float64).ravel().view(np.uint64)
    distinct, inverse = np.unique(bits, return_inverse=True)
    distinct = distinct.view(np.float64).tolist()
    if as_json:
        texts = json.dumps(distinct)[1:-1].split(", ")
    else:
        texts = ("%.17g\n" * len(distinct) % tuple(distinct)).split()
    return np.array(texts, dtype=object)[inverse].tolist()


def _json_array(values: np.ndarray, depth: int) -> str:
    """``values.tolist()`` laid out as ``json.dumps(..., indent=1)`` lays it
    out at nesting ``depth``; float rows go through ``_float_texts``, other
    rows are one C-encoder call each."""
    if not len(values):
        return "[]"
    pad = "\n" + " " * (depth + 1)
    if values.ndim == 1 and values.dtype.kind == "f":
        body = ("," + pad).join(_float_texts(values, as_json=True))
    elif values.ndim == 1:
        body = json.dumps(values.tolist(), separators=("," + pad, ": "))[1:-1]
    else:
        body = ("," + pad).join(_json_array(row, depth + 1) for row in values)
    return "[" + pad + body + "\n" + " " * depth + "]"


def _write_json(path: Path, payload: dict) -> None:
    """Write ``json.dumps(payload, sort_keys=True, indent=1) + "\\n"``;
    top-level numpy arrays are encoded row by row by ``_json_array``."""
    fields = []
    for key, value in sorted(payload.items()):
        if isinstance(value, np.ndarray):
            text = _json_array(value, 1)
        else:
            text = json.dumps(value, sort_keys=True, indent=1).replace("\n", "\n ")
        fields.append(f" {json.dumps(key)}: {text}")
    _write_text(path, "{\n" + ",\n".join(fields) + "\n}\n")


def _write_csv(path: Path, header: str, chunks: Iterable[tuple[str, list]]) -> None:
    """Write ``header`` and then ``template % tuple(values)`` for each
    ``(template, values)`` chunk.  A template holds whole lines, with their
    fixed fields inline and a ``%`` slot per value, so a file costs one
    formatting call per chunk, not one per cell."""
    body = "".join(template % tuple(values) for template, values in chunks)
    _write_text(path, header + "\n" + body)


# ---------------------------------------------------------------------------
# config handling
# ---------------------------------------------------------------------------


def load_config(path: str | None) -> dict:
    if path is None:
        return {"schema": 1}
    p = Path(path)
    if not p.exists():
        raise ConfigError(f"config file not found: {path}")
    try:
        config = json.loads(p.read_text(encoding="utf-8"))
    except ValueError as exc:  # JSONDecodeError, UnicodeDecodeError
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    if not isinstance(config, dict):
        raise ConfigError("config must be a JSON object")
    if config.get("schema", 1) != 1:
        raise ConfigError(f"unsupported config schema {config.get('schema')!r}")
    return config


def _require(node, key: str) -> object:
    """Field ``key`` of a config node, which must be an object holding it."""
    if not isinstance(node, dict):
        raise ConfigError(f"expected an object with the {key!r} field, got {node!r}")
    if key not in node:
        raise ConfigError(f"config is missing the {key!r} field")
    return node[key]


def _integer(value, what: str) -> int:
    """An integer field: an int, an integral float or integer text (a flag
    value).  A bool, a fractional number or other text is a config error."""
    if isinstance(value, float) and value.is_integer():
        return int(value)
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    if isinstance(value, str):
        try:
            return int(value)
        except ValueError:
            pass
    raise ConfigError(f"{what} must be an integer, got {value!r}")


def _real(value, what: str) -> float:
    """A float field: an int, a float or number text (a flag value).  A bool
    or other text is a config error."""
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return float(value)
    if isinstance(value, str):
        try:
            return float(value)
        except ValueError:
            pass
    raise ConfigError(f"{what} must be a number, got {value!r}")


def _complex_from(value, what: str) -> complex:
    """A number, or an ``[re, im]`` pair of numbers."""
    if isinstance(value, list) and len(value) == 2:
        return complex(_real(value[0], what), _real(value[1], what))
    return complex(_real(value, what))


def _detector_from(node) -> DetectorConfig:
    n_diodes = _integer(_require(node, "N"), "detector N")
    return DetectorConfig(n_diodes, _real(_require(node, "eta"), "detector eta"))


def _squeezer_from(optics) -> SqueezerConfig:
    """A pair source given by its gain ``mu`` or its squeezing strength ``xi``,
    not both."""
    if isinstance(optics, dict) and "mu" in optics:
        if "xi" in optics:
            raise ConfigError("a pair source takes its gain mu or its strength xi, not both")
        return SqueezerConfig.from_mu(_real(optics["mu"], "optics mu"))
    return SqueezerConfig(_real(_require(optics, "xi"), "optics xi"))


def _beam_splitter_from(optics) -> BeamSplitterConfig:
    return BeamSplitterConfig(_real(_require(optics, "t"), "optics t"))


def _probs_from(value, what: str) -> np.ndarray:
    if not isinstance(value, list):
        raise ConfigError(f"{what} must be a list of numbers, got {value!r}")
    return np.asarray([_real(v, what) for v in value])


_FIELD_PARSERS = {"alpha": _complex_from, "nbar": _real, "omega": _real, "n": _integer,
                  "probs": _probs_from}


def _input_from(node, kinds: tuple[str, ...], what: str, optional=()) -> tuple[str, dict]:
    """The kind of an input node, one of ``kinds``, and its fields by name,
    parsed.  A field its kind does not read, other than one of ``optional``,
    is a config error."""
    kind = _require(node, "kind")
    if kind not in kinds:
        raise ConfigError(f"{what} input kind must be one of {', '.join(kinds)}, got {kind!r}")
    fields = _INPUT_FIELDS[kind]
    for key in node:
        if key not in ("kind", *fields, *optional):
            raise ConfigError(f"a {kind} input takes no {key!r} field")
    return kind, {key: _FIELD_PARSERS[key](_require(node, key), key) for key in fields}


_GRID_FIELDS = ("re_min", "re_max", "im_min", "im_max", "n_re", "n_im")


def _grid_from(node) -> GridSpec:
    values = [_require(node, key) for key in _GRID_FIELDS]
    extents = [_real(v, f"grid {key}") for v, key in zip(values[:4], _GRID_FIELDS)]
    counts = [_integer(v, f"grid {key}") for v, key in zip(values[4:], _GRID_FIELDS[4:])]
    return GridSpec(*extents, *counts)


def _grid_from_flag(text: str) -> GridSpec:
    parts = text.split(",")
    if len(parts) != 6:
        raise ConfigError("--grid expects re0,re1,im0,im1,nre,nim")
    return _grid_from(dict(zip(_GRID_FIELDS, parts)))


def _clicks_list(node, n_max: int) -> list[int]:
    """``"all"`` (or no field), one click number or a list of them, each
    repeat dropped (first occurrences in order); a click number outside
    0..n_max is an invalid parameter, raised before any output is written."""
    if node == "all" or node is None:
        return list(range(n_max + 1))
    clicks = [_integer(k, "clicks") for k in (node if isinstance(node, list) else [node])]
    for k in clicks:
        if not 0 <= k <= n_max:
            raise ValueError(f"click number k={k} outside 0..{n_max}")
    return list(dict.fromkeys(clicks))


# ---------------------------------------------------------------------------
# output writers
# ---------------------------------------------------------------------------


def _write_grid(
    outdir: Path, stem: str, fmt: str, matrix: np.ndarray, grid: GridSpec
) -> list[str]:
    if fmt == "csv":
        # one line "re,im,value" per cell, im outer; the centres are formatted
        # once, and a row's template joins the re fields with the line's tail
        re, im = (_float_texts(axis) for axis in grid.centers())
        cells = _float_texts(matrix)
        rows = (cells[j : j + len(re)] for j in range(0, len(cells), len(re)))
        tails = (f",{i},%s\n" for i in im)
        chunks = ((tail.join(re) + tail, row) for tail, row in zip(tails, rows))
        _write_csv(outdir / f"{stem}.csv", "re,im,value", chunks)
        return [f"{stem}.csv"]
    payload = {"grid": asdict(grid), "values_row_major": matrix.ravel()}
    _write_json(outdir / f"{stem}.json", payload)
    return [f"{stem}.json"]


def _write_outcome(
    outdir: Path, key: str, fmt: str, outcome: ProcessOutcome, grid: GridSpec | None
) -> list[str]:
    """``terms_<key>.json`` (the output mixture's terms) and, given a grid,
    ``pfunction_<key>`` (its P function on the grid)."""
    state, files = outcome.state, [f"terms_{key}.json"]
    terms = {
        "probability": outcome.probability,
        "gaussians": [
            {"c": c, "z": [z.real, z.imag], "a": a} for c, z, a in zip(state.c, state.z, state.a)
        ],
        "deltas": [{"c": c, "z": [z.real, z.imag]} for c, z in zip(state.dc, state.dz)],
        "pruned_mass": state.dropped,
    }
    _write_json(outdir / files[0], terms)
    if grid is not None:
        files += _write_grid(outdir, f"pfunction_{key}", fmt, evaluate_grid(state, grid), grid)
    return files


# the CSV format of each integer or fixed-point column; a column not named
# here holds floats, printed by ``_float_texts``
_COLUMN_FORMATS = {
    "n": "%d", "k": "%d", "N": "%d", "k1": "%d", "k2": "%d", "percent": "%.2f"
}


def _write_distribution(
    outdir: Path, stem: str, fmt: str, columns: dict[str, np.ndarray | list]
) -> list[str]:
    if fmt == "csv":
        line = ",".join(_COLUMN_FORMATS.get(n, "%s") for n in columns) + "\n"
        texts = [
            np.asarray(col).tolist() if n in _COLUMN_FORMATS else _float_texts(col)
            for n, col in columns.items()
        ]
        cells = [cell for row in zip(*texts) for cell in row]
        _write_csv(outdir / f"{stem}.csv", ",".join(columns), [(line * len(texts[0]), cells)])
        return [f"{stem}.csv"]
    payload = {
        n: np.asarray(col, dtype=int if _COLUMN_FORMATS.get(n) == "%d" else float)
        for n, col in columns.items()
    }
    _write_json(outdir / f"{stem}.json", payload)
    return [f"{stem}.json"]


# ---------------------------------------------------------------------------
# protocol runners (each returns written file names and resolved parameters)
# ---------------------------------------------------------------------------


def _run_herald(config: dict, outdir: Path, fmt: str, grid) -> tuple[list[str], dict]:
    _, fields = _input_from(_require(config, "input"), ("phase_diffused_tmsv",), "herald")
    omega = fields["omega"]
    det = _detector_from(_require(config, "detector"))
    clicks = _clicks_list(config.get("clicks"), det.N)
    cutoff = config.get("cutoff")
    if cutoff is not None:
        cutoff = _integer(cutoff, "cutoff")
    files: list[str] = []
    summary = {"clicks": clicks, "probabilities": []}
    for k in clicks:
        res = herald_tmsv_distribution(omega, det, k, cutoff)
        columns = {"n": np.arange(res.weights.size), "weight": res.weights,
                   "normalized": res.normalized}
        files += _write_distribution(outdir, f"herald_k{k}", fmt, columns)
        summary["probabilities"].append(res.probability)
    _write_json(outdir / "summary.json", summary)
    files.append("summary.json")
    return files, {"omega": omega, "detector": asdict(det), "clicks": clicks}


def _conditioning_protocol(
    protocol: str, config: dict, outdir: Path, fmt: str, grid: GridSpec | None
) -> tuple[list[str], dict]:
    kinds = ("vacuum", "coherent", "thermal", "displaced_thermal")
    kind, fields = _input_from(_require(config, "input"), kinds, protocol)
    # each kind's constructor takes its fields in the table's order
    p_in = getattr(PhaseSpaceMixture, kind)(*fields.values())
    det = _detector_from(_require(config, "detector"))
    optics = _require(config, "optics")
    if protocol == "subtract":
        bs = _beam_splitter_from(optics)
        spec, run = SubtractionSpec(bs, det, 0), subtract
        resolved_optics = {"t": bs.t, "r": bs.r}
    else:
        sq = _squeezer_from(optics)
        spec, run = AdditionSpec(sq, det, 0), add
        resolved_optics = {"xi": sq.xi, "mu": sq.mu, "nu": sq.nu}
    clicks = _clicks_list(config.get("clicks"), det.N)

    files: list[str] = []
    summary = {"clicks": clicks, "probabilities": []}
    for k in clicks:
        outcome = run(p_in, replace(spec, k=k))
        summary["probabilities"].append(outcome.probability)
        files += _write_outcome(outdir, f"k{k}", fmt, outcome, grid)
    _write_json(outdir / "summary.json", summary)
    files.append("summary.json")
    resolved = {"detector": asdict(det), "optics": resolved_optics, "clicks": clicks,
                "eta_eff": spec.eta_eff}
    return files, resolved


def _run_amplify(config: dict, outdir: Path, fmt: str, grid) -> tuple[list[str], dict]:
    beta = _input_from(_require(config, "input"), ("coherent",), "amplify")[1]["alpha"]
    add_node = _require(config, "addition")
    sub_node = _require(config, "subtraction")
    sq = _squeezer_from(_require(add_node, "optics"))
    bs = _beam_splitter_from(_require(sub_node, "optics"))
    det1 = _detector_from(_require(add_node, "detector"))
    det2 = _detector_from(_require(sub_node, "detector"))
    spec = AmplifySpec(AdditionSpec(sq, det1, 0), SubtractionSpec(bs, det2, 0))
    # the grid's click pairs, {"k1": ..., "k2": ...} or one value for both
    # stages, parsed before any output is written
    node = config.get("clicks", "all")
    k1_node, k2_node = (node.get("k1"), node.get("k2")) if isinstance(node, dict) else (node, node)
    k1_list, k2_list = _clicks_list(k1_node, det1.N), _clicks_list(k2_node, det2.N)

    table = probability_table(spec, beta)
    percent = 100.0 * table
    if fmt == "csv":
        k1, k2 = np.indices(table.shape).reshape(2, -1)
        columns = {"k1": k1, "k2": k2, "probability": table.ravel(), "percent": percent.ravel()}
        files = _write_distribution(outdir, "probability_table", fmt, columns)
    else:
        texts = ("%.2f\n" * table.size % tuple(percent.ravel().tolist())).split()
        payload = {"N1": det1.N, "N2": det2.N, "probabilities": table,
                   "percent": np.reshape(texts, table.shape)}
        _write_json(outdir / "probability_table.json", payload)
        files = ["probability_table.json"]

    if grid is not None:
        for k1 in k1_list:
            added = add(PhaseSpaceMixture.coherent(beta), replace(spec.add, k=k1))
            for k2 in k2_list:
                outcome = subtract(added.state, replace(spec.sub, k=k2))
                files += _write_outcome(outdir, f"k{k1}_{k2}", fmt, outcome, grid)
    resolved = {
        "beta": [beta.real, beta.imag],
        "addition": {"detector": asdict(det1), "mu": sq.mu},
        "subtraction": {"detector": asdict(det2), "t": bs.t},
    }
    return files, resolved


def _run_clickstats(config: dict, outdir: Path, fmt: str, grid) -> tuple[list[str], dict]:
    inp = _require(config, "input")
    # a photon distribution, or a one-mode state of ``make_state`` with its cutoff
    kinds = tuple(k for k in _INPUT_FIELDS if k != "phase_diffused_tmsv")
    fock_space = _require(inp, "kind") != "photon_distribution"
    kind, fields = _input_from(inp, kinds, "clickstats", ("cutoff",) if fock_space else ())
    if fock_space:
        cutoff = _integer(inp.get("cutoff", 64), "cutoff")
        probs = photon_distribution(make_state(kind, cutoff, **fields))
    else:
        probs = fields["probs"]
    det = _detector_from(_require(config, "detector"))
    dist = click_statistics(probs, det)
    columns = {"k": np.arange(det.N + 1), "probability": dist.probs}
    files = _write_distribution(outdir, "click_distribution", fmt, columns)
    return files, {"detector": asdict(det), "input_kind": kind}


def _run_errorbound(config: dict, outdir: Path, fmt: str, grid) -> tuple[list[str], dict]:
    eta = _real(_require(config, "eta"), "eta")
    k = _integer(_require(config, "k"), "k")
    n_node = _require(config, "N")
    if not isinstance(n_node, list):
        raise ConfigError(f"N must be a list of diode counts, got {n_node!r}")
    n_values = [_integer(n, "diode counts N") for n in n_node]
    cutoff = _integer(config.get("cutoff", 512), "cutoff")
    res = [operator_norm_distance(DetectorConfig(n, eta), k, cutoff) for n in n_values]
    columns = {"N": n_values, "distance": [r.value for r in res],
               "grid_sup": [r.grid_sup for r in res], "tail_bound": [r.tail_bound for r in res]}
    files = _write_distribution(outdir, "errorbound", fmt, columns)
    return files, {"eta": eta, "k": k, "N": n_values, "cutoff": cutoff}


_RUNNERS = {
    "herald": _run_herald,
    "subtract": partial(_conditioning_protocol, "subtract"),
    "add": partial(_conditioning_protocol, "add"),
    "amplify": _run_amplify,
    "clickstats": _run_clickstats,
    "errorbound": _run_errorbound,
}


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="clickcraft",
        description="Conditional quantum state engineering with click-detector systems.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="protocol", required=True)
    for name in _RUNNERS:
        p = sub.add_parser(name)
        p.add_argument("--config", help="JSON parameter file (schema 1)")
        p.add_argument("--out", default=".", help="output directory")
        p.add_argument("--format", choices=("csv", "json"), help="tabular output format")
        p.add_argument("--grid", help="re0,re1,im0,im1,nre,nim grid override")
        p.add_argument("--manifest", action="store_true", help="write manifest.json")
        if name == "errorbound":
            p.add_argument("--eta", type=float)
            p.add_argument("--k", type=int)
            p.add_argument("--N", help="comma-separated diode counts")
            p.add_argument("--cutoff", type=int)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = load_config(args.config)
        if config.get("protocol", args.protocol) != args.protocol:
            raise ConfigError(
                f"config is for protocol {config.get('protocol')!r}, "
                f"not {args.protocol!r}"
            )
        # flag overrides
        for key in ("eta", "k", "N", "cutoff") if args.protocol == "errorbound" else ():
            value = getattr(args, key)
            if value is not None:
                config[key] = value.split(",") if key == "N" else value
        fmt = args.format or config.get("format", "csv")
        if fmt not in ("csv", "json"):
            raise ConfigError(f"unknown output format {fmt!r}")
        grid = None
        if args.grid is not None or "grid" in config:
            if args.protocol in ("herald", "clickstats", "errorbound"):
                raise ConfigError(f"{args.protocol} renders no P function and takes no grid")
            grid = _grid_from(config["grid"]) if args.grid is None else _grid_from_flag(args.grid)
        outdir = Path(args.out)
        try:
            outdir.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise ValueError(f"cannot create the output directory: {exc}") from exc
        files, resolved = _RUNNERS[args.protocol](config, outdir, fmt, grid)
    except ConfigError as exc:
        print(f"clickcraft: config error: {exc}", file=sys.stderr)
        return 1
    except NumericalError as exc:
        print(f"clickcraft: numerical failure: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"clickcraft: invalid parameters: {exc}", file=sys.stderr)
        return 2

    if args.manifest:
        manifest = {"version": __version__, "protocol": args.protocol, "format": fmt,
                    "resolved": resolved, "outputs": sorted(files)}
        if grid is not None:
            manifest["grid"] = asdict(grid)
        _write_json(outdir / "manifest.json", manifest)
    for name in files:
        print(outdir / name)
    return 0


if __name__ == "__main__":
    sys.exit(main())
