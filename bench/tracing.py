"""Per-layer spans recorded from outside clickcraft.

Each public function a layer exposes is wrapped where its caller looks it up
(``clickcraft.processes.multiply_click_factor``, ``clickcraft.cli.evaluate_grid``,
``clickcraft.povm.d_recursive``, ...).  A span is (name, start, end, parent,
count); spans are kept in memory, and a layer's self time is its span minus
its child spans.
"""

from __future__ import annotations

import functools
import importlib
import statistics
import time

# (module the caller looks the name up in, attribute, span name)
PATCHES = [
    ("clickcraft.cli", "main", "cli.main"),
    ("clickcraft.cli", "evaluate_grid", "pfunc.evaluate_grid"),
    ("clickcraft.cli", "subtract", "processes.subtract"),
    ("clickcraft.cli", "add", "processes.add"),
    ("clickcraft.cli", "probability_table", "processes.probability_table"),
    ("clickcraft.cli", "herald_tmsv_distribution", "processes.herald_tmsv_distribution"),
    ("clickcraft.cli", "click_statistics", "povm.click_statistics"),
    ("clickcraft.cli", "operator_norm_distance", "povm.operator_norm_distance"),
    ("clickcraft.cli", "make_state", "fock.make_state"),
    ("clickcraft.cli", "photon_distribution", "fock.photon_distribution"),
    ("clickcraft.processes", "add", "processes.add"),
    ("clickcraft.processes", "subtract", "processes.subtract"),
    ("clickcraft.processes", "scale_loss", "pfunc.scale_loss"),
    ("clickcraft.processes", "convolve_noise", "pfunc.convolve_noise"),
    ("clickcraft.processes", "husimi_smooth", "pfunc.husimi_smooth"),
    ("clickcraft.processes", "husimi_unsmooth", "pfunc.husimi_unsmooth"),
    ("clickcraft.processes", "multiply_click_factor", "pfunc.multiply_click_factor"),
    ("clickcraft.processes", "integral", "pfunc.integral"),
    ("clickcraft.processes", "click_kernel_table", "povm.click_kernel_table"),
    ("clickcraft.processes", "condition_on_clicks", "fock.condition_on_clicks"),
    ("clickcraft.povm", "click_povm_element", "povm.click_povm_element"),
    ("clickcraft.povm", "photoelectric_element", "povm.photoelectric_element"),
    ("clickcraft.povm", "click_kernel_table", "povm.click_kernel_table"),
    ("clickcraft.povm", "d_recursive", "dsymbol.d_recursive"),
    ("clickcraft.fock", "click_povm_element", "povm.click_povm_element"),
    # the benchmark's own calls go through the package namespace
    ("clickcraft", "subtract", "processes.subtract"),
    ("clickcraft", "add", "processes.add"),
    ("clickcraft", "probability_table", "processes.probability_table"),
    ("clickcraft", "herald_tmsv_distribution", "processes.herald_tmsv_distribution"),
    ("clickcraft", "moment", "pfunc.moment"),
    ("clickcraft", "operator_norm_distance", "povm.operator_norm_distance"),
    ("clickcraft", "click_statistics", "povm.click_statistics"),
    ("clickcraft", "make_state", "fock.make_state"),
    ("clickcraft", "tensor_product", "fock.tensor_product"),
    ("clickcraft", "apply_beam_splitter", "fock.apply_beam_splitter"),
    ("clickcraft", "apply_two_mode_squeezer", "fock.apply_two_mode_squeezer"),
    ("clickcraft", "condition_on_clicks", "fock.condition_on_clicks"),
    ("clickcraft", "normally_ordered_moment", "fock.normally_ordered_moment"),
]


def _grid_term_cells(args, kwargs, result):
    mixture, grid = args[0], args[1]
    return grid.n_re * grid.n_im * len(mixture.gaussians)


def _table_cells(args, kwargs, result):
    return (result.kmax + 1) * (result.mmax + 1)


def _dense_bytes(args, kwargs, result):
    d = args[0].cutoffs[0]
    return 16 * d**4  # one complex128 d^2 x d^2 matrix


COUNTS = {
    "pfunc.evaluate_grid": _grid_term_cells,
    "pfunc.multiply_click_factor": lambda a, kw, r: len(r.gaussians),
    "dsymbol.d_recursive": _table_cells,
    "fock.apply_beam_splitter": _dense_bytes,
    "fock.apply_two_mode_squeezer": _dense_bytes,
}

MAPS = {"pfunc.scale_loss", "pfunc.convolve_noise", "pfunc.husimi_smooth", "pfunc.husimi_unsmooth"}
UNITARIES = {"fock.apply_beam_splitter", "fock.apply_two_mode_squeezer"}
# dsymbol exposes one traced function, so its self time is d_recursive's
SELF_KEY = {
    "cli": "cli.self_s",
    "processes": "processes.self_s",
    "pfunc": "pfunc.self_s",
    "povm": "povm.self_s",
    "dsymbol": "dsymbol.d_recursive_s",
    "fock": "fock.self_s",
}
FOCK_OTHER = {
    "fock.make_state",
    "fock.tensor_product",
    "fock.normally_ordered_moment",
    "fock.photon_distribution",
}


class Tracer:
    """Records spans while installed; ``pass_metrics`` reduces one pass."""

    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent, count]
        self._stack: list[int] = []
        self._originals: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        count = COUNTS.get(name)
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, 0]
            spans.append(span)
            stack.append(idx)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if count is not None:
                span[4] = count(args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        for modname, attr, name in PATCHES:
            module = importlib.import_module(modname)
            original = getattr(module, attr)
            self._originals.append((module, attr, original))
            setattr(module, attr, self._wrap(name, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._originals):
            setattr(module, attr, original)
        self._originals.clear()


def pass_metrics(spans: list[list], offset: int, pass_s: float) -> dict[str, float]:
    """Per-layer totals of one pass; ``spans`` start at index ``offset`` of the
    tracer's list, and a pass begins with no open span."""
    spans = [[n, s, e, p - offset if p >= 0 else -1, c] for n, s, e, p, c in spans]
    child = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    selfs = [s[2] - s[1] - c for s, c in zip(spans, child)]
    new_table = set()
    for name, _, _, parent, _ in spans:
        if name == "povm.click_kernel_table" and parent >= 0:
            new_table.add(parent)

    m = {
        key: 0.0
        for key in (
            "cli.main_s", "cli.self_s", "pfunc.evaluate_grid_s", "pfunc.grid_term_cells",
            "pfunc.click_factor_s", "pfunc.click_factor_terms", "pfunc.maps_s",
            "pfunc.moment_s", "pfunc.self_s", "processes.self_s", "processes.calls",
            "povm.self_s", "povm.element_calls", "dsymbol.d_recursive_s",
            "dsymbol.table_cells", "fock.unitary_s", "fock.dense_bytes",
            "fock.condition_s", "fock.other_s", "fock.self_s", "bench.self_s",
        )
    }
    reused = 0
    top = 0.0
    for i, (name, start, end, parent, count) in enumerate(spans):
        layer = name.split(".", 1)[0]
        m[SELF_KEY[layer]] += selfs[i]
        if parent < 0:
            top += end - start
        if name == "cli.main":
            m["cli.main_s"] += end - start
        elif name == "pfunc.evaluate_grid":
            m["pfunc.evaluate_grid_s"] += selfs[i]
            m["pfunc.grid_term_cells"] += count
        elif name == "pfunc.multiply_click_factor":
            m["pfunc.click_factor_s"] += selfs[i]
            m["pfunc.click_factor_terms"] += count
        elif name in MAPS:
            m["pfunc.maps_s"] += selfs[i]
        elif name in ("pfunc.moment", "pfunc.integral"):
            m["pfunc.moment_s"] += selfs[i]
        elif name == "dsymbol.d_recursive":
            m["dsymbol.table_cells"] += count
        elif name in UNITARIES:
            m["fock.unitary_s"] += selfs[i]
            m["fock.dense_bytes"] += count
        elif name == "fock.condition_on_clicks":
            m["fock.condition_s"] += selfs[i]
        elif name in FOCK_OTHER:
            m["fock.other_s"] += selfs[i]
        if layer == "processes":
            m["processes.calls"] += 1
        if name == "povm.click_povm_element":
            m["povm.element_calls"] += 1
            reused += i not in new_table
    m["povm.table_reuse_ratio"] = reused / m["povm.element_calls"] if m["povm.element_calls"] else 0.0
    m["bench.self_s"] = pass_s - top
    return m


def median_metrics(per_pass: list[dict[str, float]]) -> dict[str, float]:
    return {key: statistics.median(p[key] for p in per_pass) for key in per_pass[0]}
