"""Command-line surface.

    clickcraft <protocol> --config <path> [--out DIR] [--format csv|json]
               [--grid re0,re1,im0,im1,nre,nim] [--manifest] [...]

Protocols: herald, subtract, add, amplify, clickstats, errorbound.  Parameters
come from a single versioned JSON config ("schema": 1); a handful of flags
override config fields for sweeps.  Outputs are deterministic: fixed file
names, fixed field order, 17-significant-digit decimal floats, LF line
endings, no timestamps, so identical configs produce byte-identical files.
Runners return their files, which ``main`` writes.  One encoder, ``_texts``,
makes every number's text: it encodes each distinct float bit pattern of an
array once and places its text in every cell that holds it, as P-function
grids of phase-invariant or real-axis states repeat most of their cells.
Distinct means distinct bits, not values, because ``-0.0 == 0.0`` prints as
``-0`` and ``0``, and a deduplication by value would also merge every NaN.
A file's text is made as it is written, a CSV grid row or a chunk of cells
at a time, so a writer holds the distinct texts of one array, its index
into them and one row, not a multiple of the file.  On a 301 x 301 grid of
distinct values, a grid file's tracemalloc peak is about 94 bytes per cell
as CSV or JSON, and ``clickcraft subtract`` with fig3's optics at k = 3 on a
1001 x 1001 grid peaks near 90 MB RSS in both formats.  An existing output
is rewritten in place and cut only where the old file was longer, so on
ext4 and similar file systems a rerun into the same ``--out`` reuses the
blocks of a file whose length is unchanged (a copy-on-write file system
such as btrfs or ZFS allocates new ones anyway).

Exit codes: 0 success, 1 config parse error, 2 invalid parameters (e.g. an
amplify addition stage at eta = 1 on a coherent input, or an output directory
or file that cannot be made), 3 numerical failure (``NumericalError``, of which
``CutoffError`` is one kind: a result failed a sanity check, a coefficient, an
inverse width, a centre or another value derived from the optics or the input
left the float range, or a cutoff cannot hold its tail tolerance).  A run that
its runner refuses creates no ``--out``.  A run that fails while it writes
removes every file it wrote, an overwritten one too, and may leave its new
``--out``.  A run killed while it writes removes nothing: the file it was
writing holds the bytes written so far followed by whatever of the old file
lies past them, where a truncating writer would leave those bytes alone;
neither is a complete output.  Such a file can parse cleanly and still be
wrong, so after a killed run the whole ``--out`` must be written again.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
from collections.abc import Iterable, Iterator
from dataclasses import asdict, replace
from functools import partial
from itertools import chain
from pathlib import Path

import numpy as np

from . import __version__
from .dsymbol import NumericalError, check_clicks
from .fock import make_state, photon_distribution
from .pfunc import GridSpec, PhaseSpaceMixture, evaluate_grid
from .povm import NORM_CUTOFF, DetectorConfig, click_statistics, operator_norm_distance
from .processes import (
    _KIND_KEYWORDS,
    AdditionSpec,
    AmplifySpec,
    BeamSplitterConfig,
    ProcessOutcome,
    SqueezerConfig,
    SubtractionSpec,
    add,
    amplify,
    herald_tmsv_distribution,
    probability_table,
    subtract,
)

# the fields of each input kind besides ``kind``: a ``probs`` list, or the
# keywords of a state of ``make_state``; an input node holds no other field
_INPUT_FIELDS = {"photon_distribution": ("probs",), **_KIND_KEYWORDS}


class ConfigError(Exception):
    """The config file is missing, malformed, or schema-incompatible."""


# values per formatting call, and rows per piece of a distribution's CSV: a
# writer's pieces and temporaries stay this size whatever the array's size
_CHUNK = 2048

# an output file: its name and its text pieces, made as the file is written
_File = tuple[str, Iterator[str]]


def _write(path: Path, pieces: Iterable[str]) -> None:
    """Write the text ``pieces`` to ``path`` as they are produced (UTF-8, LF
    endings).  An existing file is rewritten in place, not truncated first:
    it is cut at the end of the new bytes only where it extends past them,
    so a rerun of the same length makes no truncate call.  A file
    that cannot be written is an invalid parameter that names it.  A file
    that fails partway is removed; a path that could not be opened is left
    as it was.  A process killed while it writes leaves the bytes written so
    far followed by whatever of the old file lies past them, where a
    truncating writer would leave those bytes alone; neither is a complete
    output, and the first can look like one."""
    try:
        fd = os.open(path, os.O_WRONLY | os.O_CREAT | getattr(os, "O_BINARY", 0), 0o666)
        try:
            out = open(fd, "w", encoding="utf-8", newline="\n")
        except BaseException:
            os.close(fd)
            raise
        try:
            with out:
                out.writelines(pieces)
                out.flush()
                # a FIFO and a character device such as /dev/null report size
                # 0, and ftruncate on them fails, so only a longer file is
                # cut; the size test comes first because lseek on a FIFO
                # fails too (ESPIPE)
                size = os.fstat(fd).st_size
                if size and size > (end := os.lseek(fd, 0, os.SEEK_CUR)):
                    os.ftruncate(fd, end)
        except BaseException:
            path.unlink(missing_ok=True)
            raise
    except OSError as exc:
        raise ValueError(f"cannot write {path}: {exc.strerror or exc}") from exc


def _texts(values, fmt: str) -> tuple[np.ndarray, np.ndarray]:
    """The distinct texts of the cells of ``values``, as an object array, and
    the index into them of each cell in flat order.  ``fmt`` is a ``%``
    format or ``"json"``, the JSON encoder's text (``NaN``, ``Infinity``,
    ``float.__repr__``).  Floats are distinct by bit pattern, other cells by
    value; each distinct one is encoded once, ``_CHUNK`` per formatting call."""
    values = np.asarray(values).ravel()
    keys = values.view(f"u{values.itemsize}") if values.dtype.kind == "f" else values
    distinct, inverse = np.unique(keys, return_inverse=True)
    distinct = distinct.view(values.dtype)
    texts = np.empty(len(distinct), dtype=object)
    for start in range(0, len(distinct), _CHUNK):
        chunk = distinct[start : start + _CHUNK].tolist()
        if fmt == "json":
            texts[start : start + _CHUNK] = json.dumps(chunk)[1:-1].split(", ")
        else:
            texts[start : start + _CHUNK] = (f"{fmt}\n" * len(chunk) % tuple(chunk)).split()
    return texts, inverse


def _json_array(values: np.ndarray) -> Iterator[str]:
    """The pieces of a flat ``values`` laid out as ``_json_pieces`` lays out a
    top-level list, each cell's text the JSON encoder's by ``_texts``:
    ``_CHUNK`` cells per piece."""
    if not len(values):
        yield "[]"
        return
    texts, inverse = _texts(values, "json")
    yield "[\n  "
    for start in range(0, len(values), _CHUNK):
        yield ",\n  " if start else ""
        yield ",\n  ".join(texts[inverse[start : start + _CHUNK]].tolist())
    yield "\n ]"


def _json_pieces(payload: dict) -> Iterator[str]:
    """The pieces of ``json.dumps(payload, sort_keys=True, indent=1) + "\\n"``,
    where each top-level numpy array, flat, is streamed by ``_json_array``."""
    yield "{"
    for i, (key, value) in enumerate(sorted(payload.items())):
        yield f"{',' if i else ''}\n {json.dumps(key)}: "
        if isinstance(value, np.ndarray):
            yield from _json_array(value)
        else:
            yield json.dumps(value, sort_keys=True, indent=1).replace("\n", "\n ")
    yield "\n}\n"


# ---------------------------------------------------------------------------
# config handling
# ---------------------------------------------------------------------------


def load_config(path: str | None) -> dict:
    if path is None:
        return {"schema": 1}
    try:
        config = json.loads(Path(path).read_text(encoding="utf-8"))
    except OSError as exc:  # missing, a directory or unreadable
        raise ConfigError(f"cannot read config file {path}: {exc.strerror or exc}") from exc
    except (ValueError, RecursionError) as exc:  # JSONDecodeError, UnicodeDecodeError, deep nesting
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    if not isinstance(config, dict):
        raise ConfigError("config must be a JSON object")
    schema = config.get("schema", 1)
    if type(schema) is not int or schema != 1:  # true and 1.0 compare equal to 1
        raise ConfigError(f"unsupported config schema {schema!r}")
    return config


def _node(node, what: str, required=(), optional=()) -> dict:
    """A config node: an object that holds no field outside ``required`` and
    ``optional``, and every field of ``required``."""
    if not isinstance(node, dict):
        raise ConfigError(f"{what} must be an object, got {node!r}")
    for key in node:
        if key not in required and key not in optional:
            raise ConfigError(f"{what} takes no {key!r} field")
    for key in required:
        if key not in node:
            raise ConfigError(f"{what} is missing the {key!r} field")
    return node


def _flag_value(text: str):
    """A flag's text as a config value: its JSON value, else the float it spells, else the text."""
    for parse in (json.loads, float):
        try:
            return parse(text)
        except (ValueError, RecursionError):
            pass
    return text


def _integer(value, what: str) -> int:
    """An integer field: an int or an integral float.  A bool, a fractional
    number or anything else, text included, is a config error."""
    if isinstance(value, float) and value.is_integer():
        return int(value)
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    raise ConfigError(f"{what} must be an integer, got {value!r}")


def _real(value, what: str) -> float:
    """A float field: an int or a float; an int past the float range reads
    as an infinity.  A bool or anything else, text included, is a config error."""
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        try:
            return float(value)
        except OverflowError:
            return np.inf if value > 0 else -np.inf
    raise ConfigError(f"{what} must be a number, got {value!r}")


def _complex_from(value, what: str) -> complex:
    """A number, or an ``[re, im]`` pair of numbers."""
    if isinstance(value, list) and len(value) == 2:
        return complex(_real(value[0], what), _real(value[1], what))
    return complex(_real(value, what))


def _detector_from(node) -> DetectorConfig:
    node = _node(node, "a detector", ("N", "eta"))
    return DetectorConfig(_integer(node["N"], "detector N"), _real(node["eta"], "detector eta"))


def _squeezer_from(optics) -> SqueezerConfig:
    """A pair source given by its gain ``mu`` or its squeezing strength ``xi``,
    not both."""
    optics = _node(optics, "a pair source", optional=("mu", "xi"))
    if "mu" in optics:
        if "xi" in optics:
            raise ConfigError("a pair source takes its gain mu or its strength xi, not both")
        return SqueezerConfig.from_mu(_real(optics["mu"], "optics mu"))
    return SqueezerConfig(_real(_node(optics, "a pair source", ("xi",))["xi"], "optics xi"))


def _beam_splitter_from(optics) -> BeamSplitterConfig:
    return BeamSplitterConfig(_real(_node(optics, "a beam splitter", ("t",))["t"], "optics t"))


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
    kind = node.get("kind") if isinstance(node, dict) else None
    if kind not in kinds:
        raise ConfigError(f"{what} input kind must be one of {', '.join(kinds)}, got {kind!r}")
    fields = _INPUT_FIELDS[kind]
    node = _node(node, f"a {kind} input", ("kind", *fields), optional)
    return kind, {key: _FIELD_PARSERS[key](node[key], key) for key in fields}


# GridSpec's fields in order: four extents, then two cell counts
_GRID_FIELDS = tuple(f.name for f in dataclasses.fields(GridSpec))


def _grid_from(node) -> GridSpec:
    node = _node(node, "a grid", _GRID_FIELDS)
    extents = [_real(node[key], f"grid {key}") for key in _GRID_FIELDS[:4]]
    counts = [_integer(node[key], f"grid {key}") for key in _GRID_FIELDS[4:]]
    return GridSpec(*extents, *counts)


def _grid_from_flag(text: str) -> GridSpec:
    parts = text.split(",")
    if len(parts) != 6:
        raise ConfigError("--grid expects re0,re1,im0,im1,nre,nim")
    return _grid_from(dict(zip(_GRID_FIELDS, map(_flag_value, parts))))


def _clicks_list(node, n_max: int) -> list[int]:
    """``"all"`` (or no field), one click number or a list of them, each
    repeat dropped (first occurrences in order); a click number outside
    0..n_max is an invalid parameter, raised before any output is written."""
    if node == "all" or node is None:
        return list(range(n_max + 1))
    clicks = [_integer(k, "clicks") for k in (node if isinstance(node, list) else [node])]
    for k in clicks:
        check_clicks(k, n_max)
    return list(dict.fromkeys(clicks))


# ---------------------------------------------------------------------------
# output writers
# ---------------------------------------------------------------------------


def _grid_lines(matrix: np.ndarray, grid: GridSpec) -> Iterator[str]:
    """The CSV of a grid one im row at a time: a line "re,im,value" per cell,
    im outer.  The centres are formatted once, and a row's template joins the
    re fields with the line's tail and takes the row's value texts."""
    re, im = (t[i].tolist() for t, i in (_texts(c, "%.17g") for c in grid.centers()))
    texts, inverse = _texts(matrix, "%.17g")
    yield "re,im,value\n"
    for i, row in zip(im, inverse.reshape(len(im), len(re))):
        tail = f",{i},%s\n"
        yield (tail.join(re) + tail) % tuple(texts[row].tolist())


def _grid_file(stem: str, fmt: str, matrix: np.ndarray, grid: GridSpec) -> _File:
    if fmt == "csv":
        return f"{stem}.csv", _grid_lines(matrix, grid)
    return f"{stem}.json", _json_pieces({"grid": asdict(grid), "values_row_major": matrix.ravel()})


def _outcome_files(key: str, fmt: str, outcome: ProcessOutcome,
                   grid: GridSpec | None) -> Iterator[_File]:
    """``terms_<key>.json`` (the output mixture's terms) and, given a grid,
    ``pfunction_<key>`` (its P function on the grid, evaluated when the
    file is written)."""
    state = outcome.state
    yield f"terms_{key}.json", _json_pieces({
        "probability": outcome.probability,
        "gaussians": [
            {"c": c, "z": [z.real, z.imag], "a": a} for c, z, a in zip(state.c, state.z, state.a)
        ],
        "deltas": [{"c": c, "z": [z.real, z.imag]} for c, z in zip(state.dc, state.dz)],
        "pruned_mass": state.dropped,
    })
    if grid is not None:
        yield _grid_file(f"pfunction_{key}", fmt, evaluate_grid(state, grid), grid)


# the format of each integer or fixed-point column; a column not named here
# holds floats, printed by ``%.17g`` in a CSV and by the JSON encoder
_COLUMN_FORMATS = {
    "n": "%d", "k": "%d", "N": "%d", "k1": "%d", "k2": "%d", "percent": "%.2f"
}


def _distribution_lines(columns: dict[str, np.ndarray]) -> Iterator[str]:
    """The CSV of ``columns``, ``_CHUNK`` rows per piece: each piece is one
    formatting call of a template of whole lines, with a slot per cell."""
    tables = [_texts(col, _COLUMN_FORMATS.get(n, "%.17g")) for n, col in columns.items()]
    line = ",".join(["%s"] * len(columns)) + "\n"
    yield ",".join(columns) + "\n"
    for start in range(0, len(tables[0][1]), _CHUNK):
        cols = [texts[inverse[start : start + _CHUNK]].tolist() for texts, inverse in tables]
        yield line * len(cols[0]) % tuple(cell for row in zip(*cols) for cell in row)


def _distribution_file(stem: str, fmt: str, columns: dict[str, np.ndarray | list]) -> _File:
    columns = {n: np.asarray(col, dtype=None if n in _COLUMN_FORMATS else float)
               for n, col in columns.items()}
    if fmt == "csv":
        return f"{stem}.csv", _distribution_lines(columns)
    return f"{stem}.json", _json_pieces(columns)


def _summary_file(results: dict) -> _File:
    """``summary.json``: each click number of ``results`` and its probability."""
    return "summary.json", _json_pieces({
        "clicks": list(results), "probabilities": [r.probability for r in results.values()]})


# ---------------------------------------------------------------------------
# protocol runners (each returns its files and resolved parameters)
# ---------------------------------------------------------------------------


def _run_herald(config: dict, fmt: str, grid) -> tuple[Iterable[_File], dict]:
    _, fields = _input_from(config["input"], ("phase_diffused_tmsv",), "herald")
    omega = fields["omega"]
    det = _detector_from(config["detector"])
    clicks = _clicks_list(config.get("clicks"), det.N)
    cutoff = None if config.get("cutoff") is None else _integer(config["cutoff"], "cutoff")
    results = {k: herald_tmsv_distribution(omega, det, k, cutoff) for k in clicks}
    columns = ({"n": np.arange(r.weights.size), "weight": r.weights, "normalized": r.normalized}
               for r in results.values())
    files = [_distribution_file(f"herald_k{k}", fmt, c) for k, c in zip(results, columns)]
    resolved = {"omega": omega, "detector": asdict(det), "clicks": clicks}
    return [*files, _summary_file(results)], resolved


def _conditioning_protocol(
    protocol: str, config: dict, fmt: str, grid: GridSpec | None
) -> tuple[Iterable[_File], dict]:
    kinds = ("vacuum", "coherent", "thermal", "displaced_thermal")
    fields = _input_from(config["input"], kinds, protocol)[1]
    # every kind is a displaced thermal state, with 0 for a field it lacks
    p_in = PhaseSpaceMixture.displaced_thermal(fields.get("alpha", 0), fields.get("nbar", 0))
    det = _detector_from(config["detector"])
    optics = config["optics"]
    if protocol == "subtract":
        bs = _beam_splitter_from(optics)
        spec, run = SubtractionSpec(bs, det, 0), subtract
        resolved_optics = {"t": bs.t, "r": bs.r}
    else:
        sq = _squeezer_from(optics)
        spec, run = AdditionSpec(sq, det, 0), add
        resolved_optics = {"xi": sq.xi, "mu": sq.mu, "nu": sq.nu}
    clicks = _clicks_list(config.get("clicks"), det.N)
    results = {k: run(p_in, replace(spec, k=k)) for k in clicks}
    files = (file for k, outcome in results.items()
             for file in _outcome_files(f"k{k}", fmt, outcome, grid))
    resolved = {"detector": asdict(det), "optics": resolved_optics, "clicks": clicks,
                "eta_eff": spec.eta_eff}
    return chain(files, [_summary_file(results)]), resolved


def _run_amplify(config: dict, fmt: str, grid) -> tuple[Iterable[_File], dict]:
    beta = _input_from(config["input"], ("coherent",), "amplify")[1]["alpha"]
    add_node = _node(config["addition"], "an amplify addition stage", ("detector", "optics"))
    sub_node = _node(config["subtraction"], "an amplify subtraction stage", ("detector", "optics"))
    sq, det1 = _squeezer_from(add_node["optics"]), _detector_from(add_node["detector"])
    bs, det2 = _beam_splitter_from(sub_node["optics"]), _detector_from(sub_node["detector"])
    spec = AmplifySpec(AdditionSpec(sq, det1, 0), SubtractionSpec(bs, det2, 0))
    # the grid's click pairs, {"k1": ..., "k2": ...} or one value for both
    # stages, parsed before any output is written
    node = config.get("clicks", "all")
    pair = node if isinstance(node, dict) else {"k1": node, "k2": node}
    _node(pair, "an amplify clicks object", optional=("k1", "k2"))
    k1_list, k2_list = _clicks_list(pair.get("k1"), det1.N), _clicks_list(pair.get("k2"), det2.N)

    table = probability_table(spec, beta)
    percent = 100.0 * table
    if fmt == "csv":
        k1, k2 = np.indices(table.shape).reshape(2, -1)
        columns = {"k1": k1, "k2": k2, "probability": table.ravel(), "percent": percent.ravel()}
        table_file = _distribution_file("probability_table", fmt, columns)
    else:
        # (N1 + 1) x (N2 + 1) rows, encoded whole; each percent cell is its CSV text
        percent_rows = [[_COLUMN_FORMATS["percent"] % v for v in row] for row in percent.tolist()]
        table_file = "probability_table.json", _json_pieces(
            {"N1": det1.N, "N2": det2.N, "probabilities": table.tolist(), "percent": percent_rows})

    # each (k1, k2) outcome is computed when its files are written, one at a time
    outcomes = ((f"k{k1}_{k2}", amplify(beta, AmplifySpec(replace(spec.add, k=k1),
                                                          replace(spec.sub, k=k2))))
                for k1 in (k1_list if grid is not None else ()) for k2 in k2_list)
    files = (file for key, outcome in outcomes for file in _outcome_files(key, fmt, outcome, grid))
    resolved = {"beta": [beta.real, beta.imag],
                "addition": {"detector": asdict(det1), "mu": sq.mu},
                "subtraction": {"detector": asdict(det2), "t": bs.t}}
    return chain([table_file], files), resolved


def _run_clickstats(config: dict, fmt: str, grid) -> tuple[Iterable[_File], dict]:
    inp = config["input"]
    # a photon distribution, or a one-mode state of ``make_state`` with its cutoff
    kinds = tuple(k for k in _INPUT_FIELDS if k != "phase_diffused_tmsv")
    fock_space = isinstance(inp, dict) and inp.get("kind") != "photon_distribution"
    kind, fields = _input_from(inp, kinds, "clickstats", ("cutoff",) if fock_space else ())
    if fock_space:
        cutoff = _integer(inp.get("cutoff", 64), "cutoff")
        probs = photon_distribution(make_state(kind, cutoff, **fields))
    else:
        probs = fields["probs"]
    det = _detector_from(config["detector"])
    dist = click_statistics(probs, det)
    columns = {"k": np.arange(det.N + 1), "probability": dist.probs}
    files = [_distribution_file("click_distribution", fmt, columns)]
    return files, {"detector": asdict(det), "input_kind": kind}


def _run_errorbound(config: dict, fmt: str, grid) -> tuple[Iterable[_File], dict]:
    eta = _real(config["eta"], "eta")
    k = _integer(config["k"], "k")
    n_node = config["N"]
    if not isinstance(n_node, list):
        raise ConfigError(f"N must be a list of diode counts, got {n_node!r}")
    n_values = [_integer(n, "diode counts N") for n in n_node]
    cutoff = _integer(config.get("cutoff", NORM_CUTOFF), "cutoff")
    res = [operator_norm_distance(DetectorConfig(n, eta), k, cutoff) for n in n_values]
    columns = {"N": n_values, "distance": [r.value for r in res],
               "grid_sup": [r.grid_sup for r in res], "tail_bound": [r.tail_bound for r in res]}
    files = [_distribution_file("errorbound", fmt, columns)]
    return files, {"eta": eta, "k": k, "N": n_values, "cutoff": cutoff}


# each protocol's runner; the top-level fields its config requires, and those
# it may hold besides schema, protocol and format (it holds no other field);
# and the fields that a flag of the same name overrides
_PROTOCOLS = {
    "herald": (_run_herald, ("input", "detector"), ("clicks", "cutoff"), ()),
    "subtract": (partial(_conditioning_protocol, "subtract"), ("input", "detector", "optics"),
                 ("clicks", "grid"), ()),
    "add": (partial(_conditioning_protocol, "add"), ("input", "detector", "optics"),
            ("clicks", "grid"), ()),
    "amplify": (_run_amplify, ("input", "addition", "subtraction"), ("clicks", "grid"), ()),
    "clickstats": (_run_clickstats, ("input", "detector"), (), ()),
    "errorbound": (_run_errorbound, ("eta", "k", "N"), ("cutoff",), ("eta", "k", "N", "cutoff")),
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
    for name, (*_, flags) in _PROTOCOLS.items():
        p = sub.add_parser(name)
        p.add_argument("--config", help="JSON parameter file (schema 1)")
        p.add_argument("--out", default=".", help="output directory")
        p.add_argument("--format", help="tabular output format, csv or json")
        p.add_argument("--grid", help="re0,re1,im0,im1,nre,nim grid override")
        p.add_argument("--manifest", action="store_true", help="write manifest.json")
        for key in flags:
            p.add_argument(f"--{key}", help="comma-separated diode counts" if key == "N" else None)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    run, required, optional, flags = _PROTOCOLS[args.protocol]
    try:
        config = load_config(args.config)
        if config.get("protocol", args.protocol) != args.protocol:
            raise ConfigError(
                f"config is for protocol {config['protocol']!r}, not {args.protocol!r}")
        if (args.grid is not None or "grid" in config) and "grid" not in optional:
            raise ConfigError(f"{args.protocol} renders no P function and takes no grid")
        # flag overrides, each read as the config value its text stands for
        for key in flags:
            text = getattr(args, key)
            if text is not None:
                config[key] = (
                    [_flag_value(p) for p in text.split(",")] if key == "N" else _flag_value(text))
        _node(config, f"a {args.protocol} config", required,
              ("schema", "protocol", "format", *optional))
        fmt = config.get("format", "csv") if args.format is None else args.format
        if fmt not in ("csv", "json"):
            raise ConfigError(f"unknown output format {fmt!r}")
        grid = None
        if args.grid is not None or "grid" in config:
            grid = _grid_from(config["grid"]) if args.grid is None else _grid_from_flag(args.grid)
        files, resolved = run(config, fmt, grid)
        outdir = Path(args.out)
        try:
            outdir.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise ValueError(f"cannot create the output directory: {exc}") from exc
        written = []
        try:
            for name, pieces in files:
                _write(outdir / name, pieces)
                written.append(name)
            if args.manifest:
                manifest = {"version": __version__, "protocol": args.protocol, "format": fmt,
                            "resolved": resolved, "outputs": sorted(written)}
                if grid is not None:
                    manifest["grid"] = asdict(grid)
                _write(outdir / "manifest.json", _json_pieces(manifest))
        except BaseException:
            # a run that fails leaves no file of its own
            for name in written:
                (outdir / name).unlink(missing_ok=True)
            raise
    except ConfigError as exc:
        print(f"clickcraft: config error: {exc}", file=sys.stderr)
        return 1
    except NumericalError as exc:
        print(f"clickcraft: numerical failure: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"clickcraft: invalid parameters: {exc}", file=sys.stderr)
        return 2

    for name in written:
        print(outdir / name)
    return 0


if __name__ == "__main__":
    sys.exit(main())
