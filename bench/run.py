"""Benchmark for clickcraft: one workload per run, end to end or per layer.

    python3 bench/run.py --workload figures|sweep|oracle --seed N --seconds S --trace 0|1

Run from the root of a checkout; clickcraft is imported from its ``src``.
The run sets up the workload several times (median reported as ``setup_s``),
makes one untimed warm-up pass, then repeats whole passes for ``--seconds``
(at least ``MIN_PASSES``), with one BLAS thread.  With ``--trace 0`` it reports the median pass
time and the peak resident set; with ``--trace 1`` it alternates untraced
and traced passes and reports per-layer medians, the traced pass time and
the tracing overhead, and writes the spans to ``bench/out/``.  Every pass's
outputs are checked against the benchmark's own references.  The last line
of standard output is one JSON object.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SETUPS = 15
MIN_PASSES = 3
# One BLAS thread: on a shared two-core machine a second thread makes the
# dense Fock products wait on whatever else runs there.
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _import_fresh():
    """Import clickcraft from scratch (the modules, not numpy)."""
    for name in [m for m in sys.modules if m == "clickcraft" or m.startswith("clickcraft.")]:
        del sys.modules[name]
    return importlib.import_module("clickcraft")


def blas_threads() -> int | None:
    """OpenBLAS thread count of the numpy in use, if it ships scipy-openblas."""
    import ctypes
    import glob

    import numpy

    libs = glob.glob(os.path.join(os.path.dirname(numpy.__file__), os.pardir, "numpy.libs", "libscipy_openblas*"))
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "clickcraft" / "__init__.py").is_file():
        print(f"bench: no clickcraft sources under {src}", file=sys.stderr)
        return 2
    for name in BLAS_ENV:
        os.environ[name] = "1"  # before numpy is first imported
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    from tracing import Tracer, median_metrics, pass_metrics
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"bench: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload](ROOT)

    setups = []
    for _ in range(SETUPS):
        start = time.perf_counter()
        cc = _import_fresh()
        workload.build(cc, args.seed)
        setups.append(time.perf_counter() - start)
    if Path(cc.__file__).resolve().parent != (src / "clickcraft").resolve():
        print(f"bench: imported clickcraft from {cc.__file__}, not from {src}", file=sys.stderr)
        return 2
    workload.prepare_reference()

    failed_first, problems = workload.check(workload.run_pass())  # warm-up
    tracer = Tracer() if args.trace else None
    plain, traced, layers = [], [], []
    attempted = failed = 0
    start = time.perf_counter()
    passes = 0
    while time.perf_counter() - start < args.seconds or passes < MIN_PASSES * (1 + args.trace):
        tracing = tracer is not None and passes % 2 == 1
        if tracing:
            offset = len(tracer.spans)
            tracer.install()
        t0 = time.perf_counter()
        results = workload.run_pass()
        elapsed = time.perf_counter() - t0
        if tracing:
            tracer.uninstall()
            layers.append(pass_metrics(tracer.spans[offset:], offset, elapsed))
            traced.append(elapsed)
        else:
            plain.append(elapsed)
        n_failed, found = workload.check(results)
        attempted += workload.n_ops
        failed += n_failed
        problems += found
        passes += 1
        del results
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    problems += workload.final_check()

    print(f"bench: {args.workload}: pass times " + " ".join(f"{t:.4f}" for t in plain), file=sys.stderr)
    for line in problems[:20]:
        print(f"bench: {args.workload}: {line}", file=sys.stderr)
    if len(problems) > 20:
        print(f"bench: ... {len(problems) - 20} more", file=sys.stderr)

    if args.trace:
        metrics = median_metrics(layers)
        metrics["trace.pass_s"] = statistics.median(traced)
        metrics["trace.overhead_s"] = statistics.median(traced) - statistics.median(plain)
        units = {key: _unit(key) for key in metrics}
        out = ROOT / "bench" / "out"
        out.mkdir(parents=True, exist_ok=True)
        path = out / f"trace_{args.workload}_seed{args.seed}.json"
        path.write_text(json.dumps({"fields": ["name", "start", "end", "parent", "count"], "spans": tracer.spans}))
        print(f"nproc {os.cpu_count()}, numpy {sys.modules['numpy'].__version__}, BLAS threads {blas_threads()}")
    else:
        metrics = {
            "setup_s": statistics.median(setups),
            "pass_s": statistics.median(plain),
            "peak_rss_mb": peak_rss_mb,
        }
        units = {"setup_s": "s", "pass_s": "s", "peak_rss_mb": "MB"}

    print(f"workload {args.workload}, seed {args.seed}: {passes} passes, "
          f"{attempted} operations attempted, {failed} failed")
    for key, value in metrics.items():
        print(f"  {key} = {value:.6g} {units[key]}")
    # every pass repeats the warm-up's failures, so a differing count is a problem too
    correct = not problems and failed == failed_first * passes
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {key: {"value": value, "unit": units[key]} for key, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


def _unit(key: str) -> str:
    if key.endswith("_s"):
        return "s"
    if key == "fock.dense_bytes":
        return "B"
    if key == "povm.table_reuse_ratio":
        return "ratio"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
